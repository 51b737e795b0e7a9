//! Read-ratio sweep over a shared reader-writer lock.
//!
//! Kyoto Cabinet and SQLite guard their main structures with reader-writer
//! locks (§5.2), so the interesting axis is the fraction of shared
//! acquisitions: at 100% reads an rwlock should scale with the reader count,
//! at 0% it degenerates to a mutex, and the region in between exposes both
//! reader-side overhead and writer starvation. This module sweeps that axis
//! over one shared lock for three implementations: the raw TTAS rwlock, the
//! GLS service's rw interface (address mapping + lock cache in front of a
//! word-sized futex rwlock), and [`std::sync::RwLock`] as the system
//! baseline.

// Workload think-time is modeled as real wall-clock sleeps by design
// (see clippy.toml).
#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gls::{GlsConfig, GlsService};
use gls_locks::{RawLock, RawRwLock, RwTtasRaw};
use gls_runtime::spin_cycles;

/// A reader-writer lock as seen by the sweep driver: closure-scoped critical
/// sections, so guard-based and service-based locks share one interface.
pub trait RwBenchLock: Send + Sync {
    /// Runs `cs` while holding shared (read) access.
    fn read_section(&self, cs: &dyn Fn());
    /// Runs `cs` while holding exclusive (write) access.
    fn write_section(&self, cs: &dyn Fn());
    /// Display label for reports.
    fn label(&self) -> String;
}

impl RwBenchLock for RwTtasRaw {
    fn read_section(&self, cs: &dyn Fn()) {
        self.read_lock();
        cs();
        self.read_unlock();
    }

    fn write_section(&self, cs: &dyn Fn()) {
        self.lock();
        cs();
        self.unlock();
    }

    fn label(&self) -> String {
        "RW-TTAS".to_string()
    }
}

// The figure's whole point is measuring std's rwlock as the system
// baseline (see clippy.toml) — this is the one place it must be raw.
#[allow(clippy::disallowed_types)]
impl RwBenchLock for std::sync::RwLock<()> {
    fn read_section(&self, cs: &dyn Fn()) {
        let _g = self.read().expect("rwlock poisoned");
        cs();
    }

    fn write_section(&self, cs: &dyn Fn()) {
        let _g = self.write().expect("rwlock poisoned");
        cs();
    }

    fn label(&self) -> String {
        "STD-RW".to_string()
    }
}

/// A reader-writer lock reached through the GLS service rw interface: every
/// section pays the address → lock mapping and gets profiling.
pub struct GlsRwBenchLock {
    service: Arc<GlsService>,
    addr: usize,
}

impl std::fmt::Debug for GlsRwBenchLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlsRwBenchLock")
            .field("addr", &self.addr)
            .finish()
    }
}

impl GlsRwBenchLock {
    /// Creates a service-backed rw lock at a fixed synthetic address.
    pub fn new(config: GlsConfig) -> Self {
        Self {
            service: Arc::new(GlsService::with_config(config)),
            addr: 0x005A_0000,
        }
    }

    /// The backing service (e.g. to take a telemetry snapshot after a run).
    pub fn service(&self) -> &Arc<GlsService> {
        &self.service
    }
}

impl RwBenchLock for GlsRwBenchLock {
    fn read_section(&self, cs: &dyn Fn()) {
        self.service
            .read_lock(self.addr)
            .expect("GLS read lock cannot fail in normal mode");
        cs();
        self.service
            .read_unlock(self.addr)
            .expect("GLS read unlock of a held lock cannot fail");
    }

    fn write_section(&self, cs: &dyn Fn()) {
        self.service
            .write_lock(self.addr)
            .expect("GLS write lock cannot fail in normal mode");
        cs();
        self.service
            .write_unlock(self.addr)
            .expect("GLS write unlock of a held lock cannot fail");
    }

    fn label(&self) -> String {
        "GLS(RW)".to_string()
    }
}

/// The three lock flavors the read-ratio figure compares.
#[derive(Debug, Clone)]
pub enum RwLockSetup {
    /// The raw TTAS rwlock, used directly.
    Ttas,
    /// The GLS service's rw interface (a futex rwlock per address).
    Gls(GlsConfig),
    /// `std::sync::RwLock` as the system baseline.
    Std,
}

impl RwLockSetup {
    /// Builds the lock object for this setup.
    // `Std` deliberately constructs the raw std rwlock being benchmarked
    // (see clippy.toml).
    #[allow(clippy::disallowed_types)]
    pub fn build(&self) -> Arc<dyn RwBenchLock> {
        match self {
            RwLockSetup::Ttas => Arc::new(RwTtasRaw::new()),
            RwLockSetup::Gls(config) => Arc::new(GlsRwBenchLock::new(config.clone())),
            RwLockSetup::Std => Arc::new(std::sync::RwLock::new(())),
        }
    }
}

/// Configuration of one read-ratio sweep point.
#[derive(Debug, Clone)]
pub struct RwSweepConfig {
    /// Worker threads.
    pub threads: usize,
    /// Percentage of operations that acquire shared access (0–100).
    pub read_percent: u32,
    /// Critical-section length in cycles.
    pub cs_cycles: u64,
    /// Delay outside the critical section, in cycles.
    pub delay_cycles: u64,
    /// Wall-clock duration of the measurement.
    pub duration: Duration,
    /// RNG seed (each thread derives its own stream).
    pub seed: u64,
}

impl Default for RwSweepConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            read_percent: 90,
            cs_cycles: 200,
            delay_cycles: 100,
            duration: Duration::from_millis(200),
            seed: 0x5EED12,
        }
    }
}

/// Result of one read-ratio sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct RwSweepResult {
    /// Completed shared sections.
    pub reads: u64,
    /// Completed exclusive sections.
    pub writes: u64,
    /// Measured wall-clock duration.
    pub elapsed: Duration,
}

impl RwSweepResult {
    /// Total completed sections.
    pub fn total_ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Throughput in million operations per second.
    pub fn mops(&self) -> f64 {
        self.total_ops() as f64 / self.elapsed.as_secs_f64() / 1e6
    }
}

/// Runs one read-ratio point: every thread loops, flipping a biased coin per
/// iteration between a shared and an exclusive critical section.
///
/// # Panics
///
/// Panics if `config.threads` is zero or `read_percent` exceeds 100.
pub fn run(lock: &Arc<dyn RwBenchLock>, config: &RwSweepConfig) -> RwSweepResult {
    assert!(config.threads > 0, "rw sweep needs at least one thread");
    assert!(config.read_percent <= 100, "read_percent is a percentage");

    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let handles: Vec<_> = (0..config.threads)
        .map(|t| {
            let lock = Arc::clone(lock);
            let stop = Arc::clone(&stop);
            let read_percent = config.read_percent;
            let cs_cycles = config.cs_cycles;
            let delay_cycles = config.delay_cycles;
            let seed = config.seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            std::thread::spawn(move || {
                // Measure from a known placement, as in the mutex drivers.
                gls_runtime::topology::pin_worker(t);
                let mut rng = StdRng::seed_from_u64(seed);
                let cs = || spin_cycles(cs_cycles);
                let (mut reads, mut writes) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    if rng.gen_range(0..100u32) < read_percent {
                        lock.read_section(&cs);
                        reads += 1;
                    } else {
                        lock.write_section(&cs);
                        writes += 1;
                    }
                    spin_cycles(delay_cycles);
                }
                (reads, writes)
            })
        })
        .collect();

    std::thread::sleep(config.duration);
    stop.store(true, Ordering::Relaxed);
    let (mut reads, mut writes) = (0u64, 0u64);
    for h in handles {
        let (r, w) = h.join().unwrap();
        reads += r;
        writes += w;
    }
    RwSweepResult {
        reads,
        writes,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(setup: RwLockSetup, read_percent: u32) -> RwSweepResult {
        let lock = setup.build();
        run(
            &lock,
            &RwSweepConfig {
                threads: 4,
                read_percent,
                cs_cycles: 100,
                delay_cycles: 50,
                duration: Duration::from_millis(80),
                ..Default::default()
            },
        )
    }

    #[test]
    fn every_setup_completes_a_mixed_sweep_point() {
        for setup in [
            RwLockSetup::Ttas,
            RwLockSetup::Gls(GlsConfig::default()),
            RwLockSetup::Std,
        ] {
            let result = quick(setup.clone(), 90);
            assert!(result.reads > 0, "{:?}: no reads completed", setup);
            assert!(result.writes > 0, "{:?}: writers starved", setup);
            assert!(result.mops() > 0.0);
        }
    }

    #[test]
    fn pure_ratios_produce_pure_mixes() {
        let all_reads = quick(RwLockSetup::Ttas, 100);
        assert_eq!(all_reads.writes, 0);
        assert!(all_reads.reads > 0);
        let all_writes = quick(RwLockSetup::Ttas, 0);
        assert_eq!(all_writes.reads, 0);
        assert!(all_writes.writes > 0);
    }

    #[test]
    fn gls_rw_sweep_profiles_the_lock() {
        let lock = Arc::new(GlsRwBenchLock::new(GlsConfig::profile()));
        let dyn_lock: Arc<dyn RwBenchLock> = Arc::clone(&lock) as Arc<dyn RwBenchLock>;
        let result = run(
            &dyn_lock,
            &RwSweepConfig {
                threads: 2,
                duration: Duration::from_millis(60),
                ..Default::default()
            },
        );
        assert!(result.total_ops() > 0);
        let locks = lock.service().telemetry_snapshot().locks;
        assert_eq!(locks.len(), 1, "one rw lock entry must be profiled");
        assert_eq!(locks[0].algorithm, gls::LockKind::FutexRw);
        assert!(locks[0].acquisitions > 0);
    }

    #[test]
    #[should_panic(expected = "percentage")]
    fn read_percent_above_100_rejected() {
        let lock = RwLockSetup::Ttas.build();
        run(
            &lock,
            &RwSweepConfig {
                read_percent: 101,
                ..Default::default()
            },
        );
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = [
            RwLockSetup::Ttas,
            RwLockSetup::Gls(GlsConfig::default()),
            RwLockSetup::Std,
        ]
        .iter()
        .map(|s| s.build().label())
        .collect();
        assert_eq!(labels, vec!["RW-TTAS", "GLS(RW)", "STD-RW"]);
    }
}
