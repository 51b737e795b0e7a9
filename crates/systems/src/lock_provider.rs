//! The pluggable locking facade used by every simulated system.
//!
//! In the paper, "modifying locks is as simple as overloading the pthread
//! mutex functions with our own lock implementations" (§5). [`LockProvider`]
//! plays that role here: a system asks the provider for its mutexes and
//! reader-writer locks, and the experiment harness decides whether those are
//! MUTEX, TICKET, MCS, GLK, or GLS-mediated locks — without the system code
//! changing.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use std::time::Duration;

use gls::glk::GlkLock;
use gls::{GlsCondvar, GlsConfig, GlsService, WaitOutcome};
use gls_locks::{
    FutexLock, LockKind, McsLock, RawLock, RawRwLock, RawTryLock, RwTtasRaw, TicketLock,
};

/// Distinct synthetic addresses handed to GLS-backed locks.
static NEXT_ADDR: AtomicUsize = AtomicUsize::new(0x4000_0000);

fn fresh_addr() -> usize {
    NEXT_ADDR.fetch_add(64, Ordering::Relaxed)
}

/// Chooses which lock implementation the simulated systems receive.
#[derive(Clone)]
pub enum LockProvider {
    /// A concrete algorithm used directly (the "overload pthread mutex with
    /// algorithm X" configuration of Figures 14/15). `LockKind::Mutex` is the
    /// systems' default/baseline.
    Direct(LockKind),
    /// Locks obtained through a shared GLS service using its default
    /// algorithm (the "GLS" rewrite of Memcached in Figure 13).
    Gls(Arc<GlsService>),
    /// Locks obtained through a shared GLS service with an explicitly chosen
    /// algorithm per lock *purpose* (the "GLS SPECIALIZED" configuration):
    /// `contended_kind` for locks the caller marks as hot, `default_kind`
    /// for the rest.
    GlsSpecialized {
        /// The shared service.
        service: Arc<GlsService>,
        /// Algorithm for hot (contended) locks.
        contended_kind: LockKind,
        /// Algorithm for everything else.
        default_kind: LockKind,
    },
}

impl fmt::Debug for LockProvider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LockProvider({})", self.label())
    }
}

impl LockProvider {
    /// Baseline provider: the systems' default blocking mutex, MUTEX — a
    /// futex word ([`FutexLock`]), like glibc's `pthread_mutex`.
    pub fn mutex() -> Self {
        LockProvider::Direct(LockKind::Mutex)
    }

    /// GLK provider with paper-default settings and the global load monitor.
    pub fn glk() -> Self {
        LockProvider::Direct(LockKind::Glk)
    }

    /// GLS provider with a fresh service using the default (GLK) algorithm.
    pub fn gls() -> Self {
        LockProvider::Gls(Arc::new(GlsService::with_config(GlsConfig::default())))
    }

    /// GLS provider with explicit per-purpose algorithms (MCS for contended
    /// locks, TICKET elsewhere — the choice §5.1 arrives at for Memcached).
    pub fn gls_specialized() -> Self {
        LockProvider::GlsSpecialized {
            service: Arc::new(GlsService::with_config(GlsConfig::default())),
            contended_kind: LockKind::Mcs,
            default_kind: LockKind::Ticket,
        }
    }

    /// Display label used in experiment output.
    pub fn label(&self) -> String {
        match self {
            LockProvider::Direct(kind) => kind.name().to_string(),
            LockProvider::Gls(_) => "GLS".to_string(),
            LockProvider::GlsSpecialized { .. } => "GLS SPECIALIZED".to_string(),
        }
    }

    /// Creates a mutex for ordinary (not known-hot) use.
    pub fn new_mutex(&self) -> AppMutex {
        self.make_mutex(false)
    }

    /// Creates a mutex for a lock the system knows is highly contended
    /// (e.g. a global stats lock). Only the `GlsSpecialized` provider treats
    /// this differently.
    pub fn new_contended_mutex(&self) -> AppMutex {
        self.make_mutex(true)
    }

    fn make_mutex(&self, contended: bool) -> AppMutex {
        let inner = match self {
            LockProvider::Direct(kind) => MutexImpl::Raw(make_raw(*kind)),
            LockProvider::Gls(service) => MutexImpl::Gls {
                service: Arc::clone(service),
                addr: fresh_addr(),
                kind: LockKind::Glk,
            },
            LockProvider::GlsSpecialized {
                service,
                contended_kind,
                default_kind,
            } => MutexImpl::Gls {
                service: Arc::clone(service),
                addr: fresh_addr(),
                kind: if contended {
                    *contended_kind
                } else {
                    *default_kind
                },
            },
        };
        AppMutex { inner }
    }

    /// Creates a reader-writer lock.
    ///
    /// * The MUTEX baseline uses the standard blocking rwlock.
    /// * The GLS providers route it through the shared [`GlsService`] rw
    ///   interface, so Kyoto/SQLite rw traffic gets address mapping,
    ///   profiling and debug checking like every mutex, on a futex rwlock
    ///   that spins and then parks.
    /// * Every other provider uses the TTAS-based rwlock the paper
    ///   substitutes for `pthread_rwlock` (§5.2, footnote 7) directly.
    // The MUTEX baseline's contract is "whatever the system gives you",
    // which for rw traffic is std's rwlock (see clippy.toml).
    #[allow(clippy::disallowed_types)]
    pub fn new_rwlock(&self) -> AppRwLock {
        match self {
            LockProvider::Direct(LockKind::Mutex) => AppRwLock {
                inner: RwImpl::Blocking(std::sync::RwLock::new(())),
            },
            LockProvider::Gls(service) | LockProvider::GlsSpecialized { service, .. } => {
                AppRwLock {
                    inner: RwImpl::Gls {
                        service: Arc::clone(service),
                        addr: fresh_addr(),
                    },
                }
            }
            _ => AppRwLock {
                inner: RwImpl::Ttas(RwTtasRaw::new()),
            },
        }
    }

    /// Creates a condition variable usable with any [`AppMutex`] from this
    /// provider. The condvar parks its waiters in the shared parking lot;
    /// for GLS-backed mutexes the wait releases/re-acquires through the
    /// service (full debug/profile integration), for direct locks through
    /// the raw lock interface.
    pub fn new_condvar(&self) -> AppCondvar {
        AppCondvar {
            cv: GlsCondvar::new(),
        }
    }

    /// The GLS service backing this provider, if any (used by the Memcached
    /// experiment to pull profiler reports and issue logs).
    pub fn service(&self) -> Option<&Arc<GlsService>> {
        match self {
            LockProvider::Gls(service) => Some(service),
            LockProvider::GlsSpecialized { service, .. } => Some(service),
            _ => None,
        }
    }
}

/// Object-safe raw-lock facade for the direct providers.
trait RawFacade: Send + Sync {
    fn lock(&self);
    fn unlock(&self);
    fn try_lock(&self) -> bool;
}

struct Raw<L>(L);

impl<L: RawLock + RawTryLock> RawFacade for Raw<L> {
    fn lock(&self) {
        self.0.lock()
    }
    fn unlock(&self) {
        self.0.unlock()
    }
    fn try_lock(&self) -> bool {
        self.0.try_lock()
    }
}

struct GlkRaw(GlkLock);

impl RawFacade for GlkRaw {
    fn lock(&self) {
        self.0.lock()
    }
    fn unlock(&self) {
        self.0.unlock()
    }
    fn try_lock(&self) -> bool {
        self.0.try_lock()
    }
}

/// Releases a raw hold when dropped, so a panic inside a `with*` section
/// unwinds through the release like a GLS guard does.
struct Held<'a, L: ?Sized> {
    lock: &'a L,
    release: fn(&L),
}

impl<'a, L: ?Sized> Held<'a, L> {
    fn new(lock: &'a L, acquire: fn(&L), release: fn(&L)) -> Self {
        acquire(lock);
        Held { lock, release }
    }
}

impl<L: ?Sized> Drop for Held<'_, L> {
    fn drop(&mut self) {
        (self.release)(self.lock)
    }
}

fn make_raw(kind: LockKind) -> Arc<dyn RawFacade> {
    match kind {
        LockKind::Ticket => Arc::new(Raw(TicketLock::new())),
        LockKind::Mcs => Arc::new(Raw(McsLock::new())),
        LockKind::Mutex => Arc::new(Raw(FutexLock::new())),
        LockKind::FutexRw => Arc::new(Raw(gls_locks::FutexRwLock::new())),
        LockKind::Glk => Arc::new(GlkRaw(GlkLock::new())),
    }
}

enum MutexImpl {
    Raw(Arc<dyn RawFacade>),
    Gls {
        service: Arc<GlsService>,
        addr: usize,
        /// The algorithm the lock is created with: the service's default, or
        /// the provider's choice for the lock's purpose.
        kind: LockKind,
    },
}

/// A mutex handle handed to the simulated systems.
pub struct AppMutex {
    inner: MutexImpl,
}

impl fmt::Debug for AppMutex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            MutexImpl::Raw(_) => write!(f, "AppMutex(raw)"),
            MutexImpl::Gls { addr, .. } => write!(f, "AppMutex(gls @ {addr:#x})"),
        }
    }
}

impl AppMutex {
    /// Acquires the mutex.
    ///
    /// When the lock is GLS-backed and the service runs in debug mode, a
    /// detected misuse (e.g. double locking) is recorded in the service's
    /// issue log and the call returns without acquiring — the "warn and
    /// continue" behaviour of the paper's debug mode.
    pub fn lock(&self) {
        match &self.inner {
            MutexImpl::Raw(raw) => raw.lock(),
            MutexImpl::Gls {
                service,
                addr,
                kind,
            } => {
                let _ = service.lock_with(*kind, *addr);
            }
        }
    }

    /// Releases the mutex. Misuse detected by a debug-mode GLS service is
    /// recorded in its issue log rather than panicking (see [`AppMutex::lock`]).
    pub fn unlock(&self) {
        match &self.inner {
            MutexImpl::Raw(raw) => raw.unlock(),
            MutexImpl::Gls { service, addr, .. } => {
                let _ = service.unlock(*addr);
            }
        }
    }

    /// Attempts to acquire the mutex without waiting.
    pub fn try_lock(&self) -> bool {
        match &self.inner {
            MutexImpl::Raw(raw) => raw.try_lock(),
            MutexImpl::Gls {
                service,
                addr,
                kind,
            } => service.try_lock_with(*kind, *addr).unwrap_or(false),
        }
    }

    /// Runs `f` while holding the mutex. The mutex is held through a guard,
    /// so a panic in `f` releases it, and a debug-mode misuse that refused a
    /// GLS-backed acquisition (see [`AppMutex::lock`]) is not followed by a
    /// release of a lock this call never took.
    pub fn with<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.inner {
            MutexImpl::Raw(raw) => {
                let _held = Held::new(&**raw, |r| r.lock(), |r| r.unlock());
                f()
            }
            MutexImpl::Gls {
                service,
                addr,
                kind,
            } => {
                let _held = service.guard_with(*kind, *addr);
                f()
            }
        }
    }
}

/// A condition variable handle handed to the simulated systems, pairing
/// with the provider's [`AppMutex`]es (the real Memcached couples
/// `slab_rebalance_cond` with its maintenance mutex the same way).
#[derive(Debug, Default)]
pub struct AppCondvar {
    cv: GlsCondvar,
}

impl AppCondvar {
    /// Releases `mutex`, parks until notified, re-acquires `mutex`. The
    /// caller must hold `mutex`; re-check the predicate in a loop (spurious
    /// wakeups are possible).
    ///
    /// GLS-backed mutexes wait through [`GlsService::wait`], so debug
    /// mode checks that the caller really holds the mutex (misuse is
    /// recorded in the service's issue log and the wait becomes a no-op —
    /// the "warn and continue" behaviour of every GLS-backed handle).
    pub fn wait(&self, mutex: &AppMutex) {
        match &mutex.inner {
            MutexImpl::Gls { service, addr, .. } => {
                let _ = service.wait(&self.cv, *addr);
            }
            MutexImpl::Raw(_) => {
                self.cv.wait_with(|| mutex.unlock(), || mutex.lock(), None);
            }
        }
    }

    /// Like [`AppCondvar::wait`] with a timeout; returns whether the wait
    /// timed out. The mutex is re-acquired either way (a debug-mode misuse
    /// that aborts the wait reports as a timeout, so predicate loops keep
    /// re-checking).
    pub fn wait_timeout(&self, mutex: &AppMutex, timeout: Duration) -> bool {
        match &mutex.inner {
            MutexImpl::Gls { service, addr, .. } => service
                .wait_timeout(&self.cv, *addr, timeout)
                .map(|outcome| outcome.timed_out())
                .unwrap_or(true),
            MutexImpl::Raw(_) => {
                self.cv
                    .wait_with(|| mutex.unlock(), || mutex.lock(), Some(timeout))
                    == WaitOutcome::TimedOut
            }
        }
    }

    /// Wakes one waiter, if any.
    pub fn notify_one(&self) -> bool {
        self.cv.notify_one()
    }

    /// Wakes every waiter; returns how many were woken.
    pub fn notify_all(&self) -> usize {
        self.cv.notify_all()
    }

    /// Threads inside a wait on this condvar (see [`GlsCondvar::waiters`]).
    pub fn waiters(&self) -> u64 {
        self.cv.waiters()
    }
}

enum RwImpl {
    // The system-baseline arm (see `new_rwlock` and clippy.toml).
    #[allow(clippy::disallowed_types)]
    Blocking(std::sync::RwLock<()>),
    Ttas(RwTtasRaw),
    Gls {
        service: Arc<GlsService>,
        addr: usize,
    },
}

/// A reader-writer lock handle handed to the simulated systems.
pub struct AppRwLock {
    inner: RwImpl,
}

impl fmt::Debug for AppRwLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            RwImpl::Blocking(_) => write!(f, "AppRwLock(blocking)"),
            RwImpl::Ttas(_) => write!(f, "AppRwLock(ttas)"),
            RwImpl::Gls { addr, .. } => write!(f, "AppRwLock(gls @ {addr:#x})"),
        }
    }
}

impl AppRwLock {
    /// Runs `f` while holding shared (read) access.
    ///
    /// For GLS-backed locks, debug-mode misuse is recorded in the service's
    /// issue log and the call continues (see [`AppMutex::lock`]).
    pub fn with_read<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.inner {
            RwImpl::Blocking(l) => {
                let _g = l.read().expect("rwlock poisoned");
                f()
            }
            RwImpl::Ttas(l) => {
                let _held = Held::new(l, RwTtasRaw::read_lock, RwTtasRaw::read_unlock);
                f()
            }
            RwImpl::Gls { service, addr } => {
                let _held = service.read_guard(*addr);
                f()
            }
        }
    }

    /// Runs `f` while holding exclusive (write) access. Debug-mode misuse of
    /// GLS-backed locks is logged, not panicked on (see [`AppRwLock::with_read`]).
    pub fn with_write<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.inner {
            RwImpl::Blocking(l) => {
                let _g = l.write().expect("rwlock poisoned");
                f()
            }
            RwImpl::Ttas(l) => {
                let _held = Held::new(l, RwTtasRaw::write_lock, RwTtasRaw::write_unlock);
                f()
            }
            RwImpl::Gls { service, addr } => {
                let _held = service.write_guard(*addr);
                f()
            }
        }
    }
}

/// The four lock configurations compared in Figures 14 and 15.
pub fn figure14_providers() -> Vec<LockProvider> {
    vec![
        LockProvider::Direct(LockKind::Mutex),
        LockProvider::Direct(LockKind::Ticket),
        LockProvider::Direct(LockKind::Mcs),
        LockProvider::glk(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    fn all_providers() -> Vec<LockProvider> {
        vec![
            LockProvider::Direct(LockKind::Mutex),
            LockProvider::Direct(LockKind::Ticket),
            LockProvider::Direct(LockKind::Mcs),
            LockProvider::glk(),
            LockProvider::gls(),
            LockProvider::gls_specialized(),
        ]
    }

    #[test]
    fn every_provider_produces_working_mutexes() {
        for provider in all_providers() {
            let m = provider.new_mutex();
            m.lock();
            assert!(!m.try_lock(), "{}", provider.label());
            m.unlock();
            assert!(m.try_lock(), "{}", provider.label());
            m.unlock();
            m.with(|| ());
        }
    }

    #[test]
    fn every_provider_produces_working_rwlocks() {
        for provider in all_providers() {
            let rw = provider.new_rwlock();
            rw.with_read(|| ());
            rw.with_write(|| ());
        }
    }

    #[test]
    fn mutexes_provide_mutual_exclusion_for_every_provider() {
        for provider in all_providers() {
            let m = StdArc::new(provider.new_mutex());
            struct Cell(std::cell::UnsafeCell<u64>);
            // SAFETY: the cell is only touched while holding the lock under
            // test; that exclusion is exactly what the test verifies.
            unsafe impl Sync for Cell {}
            let value = StdArc::new(Cell(std::cell::UnsafeCell::new(0)));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let m = StdArc::clone(&m);
                    let value = StdArc::clone(&value);
                    std::thread::spawn(move || {
                        for _ in 0..5_000 {
                            // SAFETY: written while holding the lock under test.
                            m.with(|| unsafe { *value.0.get() += 1 });
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(
                // SAFETY: all worker threads are joined; nothing races this read.
                unsafe { *value.0.get() },
                20_000,
                "provider {}",
                provider.label()
            );
        }
    }

    /// Takes `rw` for writing (or reading) without waiting, then releases
    /// it; a hold that an unwind leaked makes the attempt fail.
    fn takeable(rw: &AppRwLock, write: bool) -> bool {
        match (&rw.inner, write) {
            (RwImpl::Gls { service, addr }, true) => {
                service.try_write_lock(*addr) == Ok(true) && service.write_unlock(*addr).is_ok()
            }
            (RwImpl::Gls { service, addr }, false) => {
                service.try_read_lock(*addr) == Ok(true) && service.read_unlock(*addr).is_ok()
            }
            (RwImpl::Ttas(l), true) => {
                let taken = l.try_write_lock();
                if taken {
                    l.write_unlock();
                }
                taken
            }
            (RwImpl::Ttas(l), false) => {
                let taken = l.try_read_lock();
                if taken {
                    l.read_unlock();
                }
                taken
            }
            (RwImpl::Blocking(_), _) => unreachable!("std's rwlock poisons instead"),
        }
    }

    #[test]
    fn a_panic_inside_with_releases_locks() {
        fn panics_inside(section: impl FnOnce()) {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(section));
            assert!(unwound.is_err());
        }
        let in_section = || -> () { std::panic::resume_unwind(Box::new("inside")) };
        let profile = StdArc::new(GlsService::with_config(GlsConfig::profile()));
        let debug = StdArc::new(GlsService::with_config(GlsConfig::debug()));
        for provider in [
            LockProvider::gls(),
            LockProvider::Gls(profile),
            LockProvider::gls_specialized(),
            LockProvider::Gls(debug),
            LockProvider::Direct(LockKind::Ticket),
            LockProvider::glk(),
        ] {
            let label = provider.label();
            let m = provider.new_contended_mutex();
            panics_inside(|| m.with(in_section));
            assert!(m.try_lock(), "{label}: mutex released by the unwind");
            m.unlock();
            let rw = provider.new_rwlock();
            panics_inside(|| rw.with_read(in_section));
            assert!(takeable(&rw, true), "{label}: read hold");
            panics_inside(|| rw.with_write(in_section));
            assert!(takeable(&rw, false), "{label}: write hold");
            if let Some(service) = provider.service() {
                let issues = service.issues();
                assert!(issues.is_empty(), "{label}: {issues:?}");
            }
        }
    }

    #[test]
    fn with_does_not_release_a_hold_it_was_refused() {
        // Debug mode refuses the nested acquisition (double lock); the
        // inner `with` must not then release the outer hold.
        let service = StdArc::new(GlsService::with_config(GlsConfig::debug()));
        let m = LockProvider::Gls(StdArc::clone(&service)).new_mutex();
        m.with(|| {
            m.with(|| ());
            assert!(
                !m.try_lock(),
                "the outer hold survives the refused inner one"
            );
        });
        let categories: Vec<_> = service.issues().iter().map(|i| i.category()).collect();
        assert_eq!(categories, ["double-lock", "double-lock"]);
    }

    #[test]
    fn specialized_provider_assigns_kinds_by_purpose() {
        let provider = LockProvider::gls_specialized();
        let hot = provider.new_contended_mutex();
        let cold = provider.new_mutex();
        hot.lock();
        hot.unlock();
        cold.lock();
        cold.unlock();
        let service = provider.service().unwrap();
        // Hot locks are MCS, cold locks are TICKET.
        let (hot_addr, cold_addr) = match (&hot.inner, &cold.inner) {
            (MutexImpl::Gls { addr: a, .. }, MutexImpl::Gls { addr: b, .. }) => (*a, *b),
            _ => panic!("specialized provider must produce GLS-backed mutexes"),
        };
        assert_eq!(service.algorithm_of(hot_addr), Some(LockKind::Mcs));
        assert_eq!(service.algorithm_of(cold_addr), Some(LockKind::Ticket));
    }

    #[test]
    fn gls_providers_route_rwlocks_through_the_service() {
        for provider in [LockProvider::gls(), LockProvider::gls_specialized()] {
            let service = StdArc::clone(provider.service().unwrap());
            let before = service.lock_count();
            let rw = provider.new_rwlock();
            rw.with_read(|| ());
            rw.with_write(|| ());
            assert_eq!(
                service.lock_count(),
                before + 1,
                "{}: the rwlock must create a service entry",
                provider.label()
            );
            let addr = match &rw.inner {
                RwImpl::Gls { addr, .. } => *addr,
                _ => panic!("{}: rwlock must be GLS-backed", provider.label()),
            };
            assert_eq!(service.algorithm_of(addr), Some(LockKind::FutexRw));
        }
    }

    #[test]
    fn direct_providers_keep_ttas_rwlocks() {
        let rw = LockProvider::Direct(LockKind::Ticket).new_rwlock();
        assert!(matches!(rw.inner, RwImpl::Ttas(_)));
        let rw = LockProvider::mutex().new_rwlock();
        assert!(matches!(rw.inner, RwImpl::Blocking(_)));
    }

    #[test]
    fn profiling_provider_reports_rw_and_mutex_entries() {
        let provider =
            LockProvider::Gls(StdArc::new(GlsService::with_config(GlsConfig::profile())));
        let rw = provider.new_rwlock();
        let m = provider.new_mutex();
        for _ in 0..20 {
            rw.with_read(|| ());
            rw.with_write(|| ());
            m.with(|| ());
        }
        let locks = provider.service().unwrap().telemetry_snapshot().locks;
        assert!(
            locks
                .iter()
                .any(|l| l.algorithm == LockKind::FutexRw && l.acquisitions == 40),
            "the snapshot must show the rw lock entry: {locks:?}"
        );
        assert!(
            locks
                .iter()
                .any(|l| l.algorithm != LockKind::FutexRw && l.acquisitions == 20),
            "the snapshot must show the mutex entry: {locks:?}"
        );
    }

    #[test]
    fn condvars_pair_with_every_provider_mutex() {
        use std::sync::atomic::AtomicBool;
        for provider in all_providers() {
            let label = provider.label();
            let m = StdArc::new(provider.new_mutex());
            let cv = StdArc::new(provider.new_condvar());
            // A timed wait with no notifier expires and re-acquires.
            m.lock();
            assert!(
                cv.wait_timeout(&m, Duration::from_millis(20)),
                "{label}: wait should time out"
            );
            assert!(!m.try_lock(), "{label}: mutex re-acquired after timeout");
            m.unlock();
            // A full wait/notify roundtrip.
            let flag = StdArc::new(AtomicBool::new(false));
            let waiter = {
                let (m, cv, flag) = (StdArc::clone(&m), StdArc::clone(&cv), StdArc::clone(&flag));
                std::thread::spawn(move || {
                    m.lock();
                    while !flag.load(Ordering::Relaxed) {
                        cv.wait(&m);
                    }
                    m.unlock();
                })
            };
            while cv.waiters() == 0 {
                std::thread::yield_now();
            }
            m.lock();
            flag.store(true, Ordering::Relaxed);
            m.unlock();
            cv.notify_one();
            waiter.join().unwrap();
        }
    }

    #[test]
    fn gls_condvar_wait_without_holding_is_flagged_in_debug_mode() {
        let service = StdArc::new(GlsService::with_config(GlsConfig::debug()));
        let provider = LockProvider::Gls(StdArc::clone(&service));
        let m = provider.new_mutex();
        let cv = provider.new_condvar();
        // Initialize the entry, then wait without holding: the service-level
        // ownership check must record the misuse instead of parking.
        m.lock();
        m.unlock();
        assert!(
            cv.wait_timeout(&m, Duration::from_millis(200)),
            "aborted wait reports as a timeout"
        );
        assert!(
            service
                .issues()
                .iter()
                .any(|i| i.category() == "release-free-lock"),
            "waiting without holding must be flagged: {:?}",
            service.issues()
        );
    }

    #[test]
    fn labels_and_figure14_set() {
        assert_eq!(LockProvider::mutex().label(), "MUTEX");
        assert_eq!(LockProvider::glk().label(), "GLK");
        assert_eq!(LockProvider::gls().label(), "GLS");
        let providers = figure14_providers();
        assert_eq!(providers.len(), 4);
        assert_eq!(providers[0].label(), "MUTEX");
        assert_eq!(providers[3].label(), "GLK");
    }
}
