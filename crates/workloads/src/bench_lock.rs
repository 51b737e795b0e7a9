//! A uniform facade over every lock the harness measures.
//!
//! The paper's figures compare TICKET/MCS/MUTEX, GLK, and GLS-mediated
//! locking on identical workloads. [`BenchLock`] is the small
//! object-safe trait the microbenchmark driver uses; [`make_locks`] builds a
//! set of lock objects for any of those setups.

use std::fmt;
use std::sync::Arc;

use gls::glk::{GlkConfig, GlkLock, MonitorHandle};
use gls::{GlsConfig, GlsService};
use gls_locks::{CachePadded, FutexLock, LockKind, McsLock, RawLock, TicketLock};

/// A lock as seen by the microbenchmark driver.
pub trait BenchLock: Send + Sync {
    /// Acquires the lock.
    fn acquire(&self);
    /// Releases the lock.
    fn release(&self);
}

macro_rules! impl_bench_for_raw {
    ($ty:ty) => {
        impl BenchLock for $ty {
            fn acquire(&self) {
                RawLock::lock(self)
            }
            fn release(&self) {
                RawLock::unlock(self)
            }
        }
    };
}

impl_bench_for_raw!(TicketLock);
impl_bench_for_raw!(McsLock);

/// MUTEX: the futex word padded to a cache line like every other measured
/// lock (the word alone would let neighbouring locks share a line).
impl BenchLock for CachePadded<FutexLock> {
    fn acquire(&self) {
        RawLock::lock(&**self)
    }
    fn release(&self) {
        RawLock::unlock(&**self)
    }
}

impl BenchLock for GlkLock {
    fn acquire(&self) {
        self.lock()
    }
    fn release(&self) {
        self.unlock()
    }
}

/// A lock reached *through* the GLS service (used by the overhead
/// experiments of Figures 11–13): every acquire/release goes through the
/// address → lock mapping, the lock cache, and the configured algorithm.
pub struct GlsBenchLock {
    service: Arc<GlsService>,
    addr: usize,
    kind: LockKind,
}

impl fmt::Debug for GlsBenchLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlsBenchLock")
            .field("addr", &self.addr)
            .field("kind", &self.kind)
            .finish()
    }
}

impl BenchLock for GlsBenchLock {
    fn acquire(&self) {
        self.service
            .lock_with(self.kind, self.addr)
            .expect("GLS lock cannot fail in normal mode");
    }

    fn release(&self) {
        self.service
            .unlock(self.addr)
            .expect("GLS unlock of a held lock cannot fail");
    }
}

/// The futex rwlock measured as a plain mutex (exclusive mode).
struct FutexRwAsMutex(gls_locks::FutexRwLock);

impl BenchLock for FutexRwAsMutex {
    fn acquire(&self) {
        RawLock::lock(&self.0)
    }
    fn release(&self) {
        RawLock::unlock(&self.0)
    }
}

/// What kind of lock objects to build for an experiment.
#[derive(Debug, Clone)]
pub enum LockSetup {
    /// Direct use of a concrete algorithm or of GLK.
    Direct(LockKind),
    /// Direct GLK with a custom configuration/monitor.
    Glk(GlkConfig, MonitorHandle),
    /// Locking through a GLS service with the given per-address algorithm.
    Gls {
        /// Service configuration (normal/debug/profile, GLK settings).
        config: GlsConfig,
        /// Algorithm used for every benchmark address.
        kind: LockKind,
    },
}

/// Builds `n` independent lock objects for the given setup.
///
/// Every lock is padded/heap-allocated separately, matching the paper's
/// "pad all locks to 64 bytes" methodology (the lock structures themselves
/// are cache-line padded).
pub fn make_locks(setup: &LockSetup, n: usize) -> Vec<Arc<dyn BenchLock>> {
    match setup {
        LockSetup::Direct(kind) => (0..n).map(|_| make_direct(*kind)).collect(),
        LockSetup::Glk(config, monitor) => (0..n)
            .map(|_| {
                Arc::new(GlkLock::with_config_and_monitor(
                    config.clone(),
                    monitor.clone(),
                )) as Arc<dyn BenchLock>
            })
            .collect(),
        LockSetup::Gls { config, kind } => {
            let service = Arc::new(GlsService::with_config(config.clone()));
            (0..n)
                .map(|i| {
                    Arc::new(GlsBenchLock {
                        service: Arc::clone(&service),
                        // Spread addresses a cache line apart, mimicking
                        // distinct lock sites in a real program.
                        addr: 0x10_0000 + i * 64,
                        kind: *kind,
                    }) as Arc<dyn BenchLock>
                })
                .collect()
        }
    }
}

fn make_direct(kind: LockKind) -> Arc<dyn BenchLock> {
    match kind {
        LockKind::Ticket => Arc::new(TicketLock::new()),
        LockKind::Mcs => Arc::new(McsLock::new()),
        LockKind::Mutex => Arc::new(CachePadded::new(FutexLock::new())),
        LockKind::FutexRw => Arc::new(FutexRwAsMutex(gls_locks::FutexRwLock::new())),
        LockKind::Glk => Arc::new(GlkLock::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_locks_roundtrip_for_every_kind() {
        for kind in LockKind::ALL {
            let locks = make_locks(&LockSetup::Direct(kind), 3);
            assert_eq!(locks.len(), 3);
            for lock in &locks {
                lock.acquire();
                lock.release();
            }
        }
    }

    #[test]
    fn gls_setup_shares_one_service_across_locks() {
        let locks = make_locks(
            &LockSetup::Gls {
                config: GlsConfig::default(),
                kind: LockKind::Ticket,
            },
            4,
        );
        for lock in &locks {
            lock.acquire();
            lock.release();
        }
    }

    #[test]
    fn glk_setup_with_custom_config() {
        let locks = make_locks(
            &LockSetup::Glk(GlkConfig::default(), MonitorHandle::Global),
            2,
        );
        for lock in &locks {
            lock.acquire();
            lock.release();
        }
    }
}
