//! The GLK lock: structure, acquisition protocol and adaptation policy.

use gls_sync::atomic::{AtomicPtr, AtomicU64, AtomicU8, Ordering};
use gls_sync::sync::Mutex as StdMutex;

use gls_locks::{FutexLock, McsLock, MutexLock, QueueInformed, RawLock, RawTryLock, TicketLock};
use gls_runtime::LockStats;

use super::config::{
    BlockingBackend, BlockingDensity, GlkConfig, MonitorHandle, PopulationMembership,
    COHORT_HANDOFF, EMA_ALPHA, INITIAL_CALM_ROUNDS, MAX_CALM_ROUNDS, MCS_TO_TICKET_QUEUE,
    MIN_QUEUE_FOR_MUTEX, TICKET_TO_MCS_QUEUE,
};
use super::mode::{GlkMode, ModeTransition};

/// Backend discriminants for [`AutoBlockingMutex`] (and the rw variant).
pub(crate) const AUTO_UNDECIDED: u8 = 0;
pub(crate) const AUTO_PER_LOCK: u8 = 1;
pub(crate) const AUTO_PARKING: u8 = 2;

// Raw std atomics: process-wide migration counters are pure telemetry,
// updated on the (rare) migration path, and stay invisible to the model
// explorer's scheduling points.
static MIGRATIONS_TO_PARKING: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static MIGRATIONS_TO_PER_LOCK: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Cumulative Auto backend migrations (process-wide, since start): how many
/// times density pressure moved a blocking lock onto the shared parking lot
/// and how many times relief moved one back to its embedded per-lock mutex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AutoMigrationStats {
    /// Migrations onto the word-sized parking-lot backend.
    pub to_parking: u64,
    /// Migrations back to the embedded per-lock backend.
    pub to_per_lock: u64,
}

impl AutoMigrationStats {
    /// Total migrations in either direction.
    pub fn total(&self) -> u64 {
        self.to_parking + self.to_per_lock
    }
}

/// The current process-wide Auto backend-migration counters.
pub fn auto_migration_stats() -> AutoMigrationStats {
    AutoMigrationStats {
        to_parking: MIGRATIONS_TO_PARKING.load(std::sync::atomic::Ordering::Relaxed),
        to_per_lock: MIGRATIONS_TO_PER_LOCK.load(std::sync::atomic::Ordering::Relaxed),
    }
}

/// The density decision: enter the parking lot at the threshold, leave it
/// below half the threshold (hysteresis damps migration churn).
pub(crate) fn decide_backend(density: &BlockingDensity, threshold: usize, current: u8) -> u8 {
    let live = density.live();
    if current == AUTO_PARKING {
        if live * 2 < threshold {
            AUTO_PER_LOCK
        } else {
            AUTO_PARKING
        }
    } else if live >= threshold {
        AUTO_PARKING
    } else {
        AUTO_PER_LOCK
    }
}

/// The backend-selection core shared by [`AutoBlockingMutex`] and the rw
/// variant: the backend discriminant, the lazily-boxed per-lock backend
/// and the migrate-on-release decision — all the raw-pointer publication
/// machinery, kept in one place so the mutex and rw flavors cannot drift.
#[derive(Debug, Default)]
pub(crate) struct AutoCore<T: Default> {
    /// AUTO_UNDECIDED until the first blocking acquisition, then the
    /// backend currently serving the lock. Flipped only by the holder
    /// (except the initial UNDECIDED CAS).
    backend: AtomicU8,
    /// The per-lock backend, allocated on first per-lock blocking use.
    per_lock: AtomicPtr<T>,
}

impl<T: Default> Drop for AutoCore<T> {
    fn drop(&mut self) {
        let ptr = self.per_lock.load(Ordering::Acquire);
        if !ptr.is_null() {
            // SAFETY: published exactly once by `per_lock_backend`, freed
            // exactly once here.
            unsafe { drop(Box::from_raw(ptr)) };
        }
    }
}

impl<T: Default> AutoCore<T> {
    /// The backend currently serving the lock.
    pub(crate) fn backend(&self) -> u8 {
        self.backend.load(Ordering::Acquire)
    }

    /// The embedded per-lock backend, allocated on first use.
    pub(crate) fn per_lock_backend(&self) -> &T {
        let ptr = self.per_lock.load(Ordering::Acquire);
        if !ptr.is_null() {
            // SAFETY: the pointer is only freed in Drop.
            return unsafe { &*ptr };
        }
        let fresh = Box::into_raw(Box::<T>::default());
        match self.per_lock.compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            // SAFETY: just published / published by the racing winner.
            Ok(_) => unsafe { &*fresh },
            Err(existing) => {
                // SAFETY: `fresh` was never published.
                unsafe { drop(Box::from_raw(fresh)) };
                // SAFETY: the winner's pointer is only freed in Drop.
                unsafe { &*existing }
            }
        }
    }

    /// Whether the per-lock backend has been allocated.
    pub(crate) fn per_lock_allocated(&self) -> Option<&T> {
        let ptr = self.per_lock.load(Ordering::Acquire);
        // SAFETY: only freed in Drop.
        (!ptr.is_null()).then(|| unsafe { &*ptr })
    }

    /// The backend serving new acquisitions, deciding it on first use.
    pub(crate) fn backend_or_decide(&self, density: &BlockingDensity, threshold: usize) -> u8 {
        let backend = self.backend.load(Ordering::Acquire);
        if backend != AUTO_UNDECIDED {
            return backend;
        }
        let choice = decide_backend(density, threshold, AUTO_UNDECIDED);
        match self.backend.compare_exchange(
            AUTO_UNDECIDED,
            choice,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => choice,
            Err(actual) => actual,
        }
    }

    /// Applies the density decision on behalf of the (momentarily
    /// exclusive) releasing holder, flipping the backend *before* the
    /// caller releases the backend it holds. Returns the backend the
    /// caller holds — and must release — plus whether it was migrated
    /// away from.
    pub(crate) fn migrate_on_release(
        &self,
        density: &BlockingDensity,
        threshold: usize,
    ) -> (u8, bool) {
        let current = self.backend.load(Ordering::Acquire);
        debug_assert_ne!(current, AUTO_UNDECIDED, "release without a decided backend");
        let target = decide_backend(density, threshold, current);
        let migrated = target != current;
        if migrated {
            self.backend.store(target, Ordering::Release);
            let to_parking = target == AUTO_PARKING;
            if to_parking {
                MIGRATIONS_TO_PARKING.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            } else {
                MIGRATIONS_TO_PER_LOCK.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            gls_runtime::flight::record(
                gls_runtime::flight::FlightEventKind::BackendMigration,
                self as *const _ as usize,
                u64::from(to_parking),
            );
        }
        (current, migrated)
    }
}

/// A blocking mutex that **migrates** between an embedded per-lock
/// `Mutex + Condvar` (fast when few locks block) and the word-sized
/// [`FutexLock`] parked on the shared lot (4 bytes of wait state per lock,
/// the only viable layout when thousands of locks block), driven by the
/// live blocking-lock count in a [`BlockingDensity`].
///
/// The embedded mutex is allocated lazily, only if the lock ever blocks in
/// per-lock mode — a lock born past the density threshold never pays more
/// than the futex word. Migration follows the GLK mode-transition protocol:
/// only the (momentarily exclusive) holder flips the backend, it flips
/// *before* releasing the backend it holds, and waiters still parked on the
/// old backend drain themselves — each wakes, acquires the old backend,
/// re-checks the backend choice, releases (waking the next) and retries on
/// the new backend. A release that migrates away from the parking backend
/// additionally **broadcasts** to the futex queue
/// ([`FutexLock::unlock_and_wake_all`]): condvar waiters requeued onto the
/// word do not re-release it, so the one-wakeup drain chain could strand
/// waiters queued behind them. No wakeup is lost and the old queue is
/// never abandoned while threads sleep in it.
#[derive(Debug, Default)]
pub struct AutoBlockingMutex {
    core: AutoCore<MutexLock>,
    /// The parking-lot backend: always present, one `AtomicU32`.
    futex: FutexLock,
}

impl AutoBlockingMutex {
    /// Creates an auto-backend blocking mutex (undecided until first use).
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn lock_backend(&self, backend: u8) {
        if backend == AUTO_PARKING {
            self.futex.lock();
        } else {
            self.core.per_lock_backend().lock();
        }
    }

    #[inline]
    fn try_lock_backend(&self, backend: u8) -> bool {
        if backend == AUTO_PARKING {
            self.futex.try_lock()
        } else {
            self.core.per_lock_backend().try_lock()
        }
    }

    #[inline]
    fn unlock_backend(&self, backend: u8) {
        if backend == AUTO_PARKING {
            self.futex.unlock();
        } else {
            self.core.per_lock_backend().unlock();
        }
    }

    /// Acquires the lock through whichever backend currently serves it,
    /// re-checking the choice after acquiring (the GLK Figure-4 protocol):
    /// a stale acquisition on a migrated-away backend releases it — waking
    /// the next drainer — and retries.
    pub fn lock(&self, density: &BlockingDensity, threshold: usize) {
        loop {
            let backend = self.core.backend_or_decide(density, threshold);
            self.lock_backend(backend);
            if self.core.backend() == backend {
                return;
            }
            self.unlock_backend(backend);
        }
    }

    /// Attempts to acquire the lock without waiting.
    pub fn try_lock(&self, density: &BlockingDensity, threshold: usize) -> bool {
        loop {
            let backend = self.core.backend_or_decide(density, threshold);
            if !self.try_lock_backend(backend) {
                return false;
            }
            if self.core.backend() == backend {
                return true;
            }
            self.unlock_backend(backend);
        }
    }

    /// Releases the lock, migrating the backend first when the density
    /// heuristic says so. Only the holder runs this, so reading and
    /// flipping the backend here is race-free; the flip lands *before* the
    /// release, so every later acquirer sees it. A release that migrates
    /// away from the parking backend broadcasts to the futex queue: it may
    /// hold requeued condvar waiters, which do not re-release the word, so
    /// the one-wakeup drain chain could otherwise strand waiters queued
    /// behind them.
    pub fn unlock(&self, density: &BlockingDensity, threshold: usize) {
        let (current, migrated) = self.core.migrate_on_release(density, threshold);
        if current != AUTO_PARKING {
            self.core.per_lock_backend().unlock();
        } else if migrated {
            self.futex.unlock_and_wake_all();
        } else {
            self.futex.unlock_cohort(COHORT_HANDOFF);
        }
    }

    /// Releases a lock whose futex word is about to stop being the serving
    /// lock for reasons *beyond* backend migration — GLK leaving mutex
    /// mode. The parking backend broadcasts unconditionally (requeued
    /// condvar waiters may sit in the queue and there may never be another
    /// futex release to drain the rest); the per-lock backend drains
    /// normally (condvar waiters are never requeued onto it).
    pub(crate) fn unlock_stale(&self, density: &BlockingDensity, threshold: usize) {
        let (current, _) = self.core.migrate_on_release(density, threshold);
        if current == AUTO_PARKING {
            self.futex.unlock_and_wake_all();
        } else {
            self.core.per_lock_backend().unlock();
        }
    }

    /// Whether the lock is held on either backend (racy; diagnostics).
    pub fn is_locked(&self) -> bool {
        self.futex.is_locked()
            || self
                .core
                .per_lock_allocated()
                .is_some_and(MutexLock::is_locked)
    }

    /// Holder plus waiters over both backends (waiters may still be
    /// draining from a migrated-away backend).
    pub fn queue_length(&self) -> u64 {
        self.futex.queue_length()
            + self
                .core
                .per_lock_allocated()
                .map_or(0, MutexLock::queue_length)
    }

    /// The backend currently serving the lock, for diagnostics and the
    /// footprint accounting of the parking benchmark: `None` until the
    /// first blocking acquisition, then `Some(true)` when the shared
    /// parking lot serves it, `Some(false)` for the embedded mutex.
    pub fn uses_parking_lot(&self) -> Option<bool> {
        match self.core.backend() {
            AUTO_UNDECIDED => None,
            b => Some(b == AUTO_PARKING),
        }
    }

    /// Bytes of heap-allocated blocking state (the lazily-created embedded
    /// mutex): 0 for locks that only ever blocked through the shared lot.
    pub fn blocking_heap_bytes(&self) -> usize {
        if self.core.per_lock_allocated().is_some() {
            std::mem::size_of::<MutexLock>()
        } else {
            0
        }
    }

    /// The parking-lot address a requeued waiter would sleep under, when
    /// the parking backend currently serves the lock.
    pub(crate) fn park_addr(&self) -> Option<usize> {
        (self.core.backend() == AUTO_PARKING).then(|| self.futex.park_addr())
    }
}

/// The low-level lock behind [`GlkMode::Mutex`], chosen by
/// [`GlkConfig::blocking_backend`]: per-lock parking state, a word-sized
/// futex lock sleeping in the shared parking lot, or the density-driven
/// [`AutoBlockingMutex`] that migrates between the two.
#[derive(Debug)]
pub(crate) enum BlockingMutex {
    /// `Mutex + Condvar` pair embedded in the lock.
    PerLock(MutexLock),
    /// One `AtomicU32`; waiters park in [`gls_locks::ParkingLot::global`].
    Parking(FutexLock),
    /// Migrates between the two based on blocking-lock density.
    Auto(AutoBlockingMutex),
}

impl BlockingMutex {
    pub(crate) fn new(backend: BlockingBackend) -> Self {
        match backend {
            BlockingBackend::PerLock => BlockingMutex::PerLock(MutexLock::new()),
            BlockingBackend::ParkingLot => BlockingMutex::Parking(FutexLock::new()),
            BlockingBackend::Auto => BlockingMutex::Auto(AutoBlockingMutex::new()),
        }
    }

    #[inline]
    pub(crate) fn lock(&self, config: &GlkConfig) {
        match self {
            BlockingMutex::PerLock(l) => l.lock(),
            BlockingMutex::Parking(l) => l.lock(),
            BlockingMutex::Auto(l) => {
                l.lock(config.density.density(), config.blocking_density_threshold)
            }
        }
    }

    #[inline]
    pub(crate) fn try_lock(&self, config: &GlkConfig) -> bool {
        match self {
            BlockingMutex::PerLock(l) => l.try_lock(),
            BlockingMutex::Parking(l) => l.try_lock(),
            BlockingMutex::Auto(l) => {
                l.try_lock(config.density.density(), config.blocking_density_threshold)
            }
        }
    }

    #[inline]
    pub(crate) fn unlock(&self, config: &GlkConfig) {
        match self {
            BlockingMutex::PerLock(l) => l.unlock(),
            BlockingMutex::Parking(l) => l.unlock_cohort(COHORT_HANDOFF),
            BlockingMutex::Auto(l) => {
                l.unlock(config.density.density(), config.blocking_density_threshold)
            }
        }
    }

    /// Releases a mutex-mode hold after GLK moved away from mutex mode:
    /// futex-backed queues are broadcast-drained (they may hold requeued
    /// condvar waiters that would break the one-wakeup drain chain, and
    /// there may never be another release of this word), per-lock queues
    /// drain normally.
    pub(crate) fn unlock_stale(&self, config: &GlkConfig) {
        match self {
            BlockingMutex::PerLock(l) => l.unlock(),
            BlockingMutex::Parking(l) => l.unlock_and_wake_all(),
            BlockingMutex::Auto(l) => {
                l.unlock_stale(config.density.density(), config.blocking_density_threshold)
            }
        }
    }

    pub(crate) fn is_locked(&self) -> bool {
        match self {
            BlockingMutex::PerLock(l) => l.is_locked(),
            BlockingMutex::Parking(l) => l.is_locked(),
            BlockingMutex::Auto(l) => l.is_locked(),
        }
    }

    pub(crate) fn queue_length(&self) -> u64 {
        match self {
            BlockingMutex::PerLock(l) => l.queue_length(),
            BlockingMutex::Parking(l) => l.queue_length(),
            BlockingMutex::Auto(l) => l.queue_length(),
        }
    }

    /// The address a condvar waiter can be requeued onto, when the lock's
    /// blocking path currently runs through the shared parking lot.
    pub(crate) fn park_addr(&self) -> Option<usize> {
        match self {
            BlockingMutex::PerLock(_) => None,
            BlockingMutex::Parking(l) => Some(l.park_addr()),
            BlockingMutex::Auto(l) => l.park_addr(),
        }
    }
}

/// The generic lock (GLK): a lock that adapts between ticket, MCS and mutex
/// modes based on observed contention and system load.
///
/// The structure mirrors the paper's Figure 3 — a `lock_type` flag, the three
/// low-level lock objects and the statistics counters — and the acquisition
/// protocol mirrors Figure 4: read the mode, acquire that low-level lock,
/// re-check the mode (restarting if it changed), and give the now-holder a
/// chance to adapt.
///
/// # Example
///
/// ```
/// use gls::glk::{GlkLock, GlkMode};
///
/// let lock = GlkLock::new();
/// lock.lock();
/// assert_eq!(lock.mode(), GlkMode::Ticket); // fresh locks start uncontended
/// lock.unlock();
/// ```
#[derive(Debug)]
pub struct GlkLock {
    /// Current mode (the paper's `lock_type`).
    mode: AtomicU8,
    /// Low-level lock used in [`GlkMode::Ticket`].
    ticket: TicketLock,
    /// Low-level lock used in [`GlkMode::Mcs`].
    mcs: McsLock,
    /// Low-level lock used in [`GlkMode::Mutex`] (backend per
    /// [`GlkConfig::blocking_backend`]).
    mutex: BlockingMutex,
    /// `num_acquired` / `queue_total` and friends.
    stats: LockStats,
    /// Exponential moving average of per-window queue lengths (f64 bits).
    ema_bits: AtomicU64,
    /// Calm ticks (100 µs of uninterrupted calm each) required to leave mutex
    /// mode; doubles after every departure (§3, "Selecting the GLK Mode").
    required_calm: AtomicU64,
    /// This lock's membership in the blocking-density population (exact
    /// across racing adaptation, free/resurrect and drop).
    population: PopulationMembership,
    config: GlkConfig,
    monitor: MonitorHandle,
    /// Recorded transitions (only populated when
    /// [`GlkConfig::record_transitions`] is set).
    transitions: StdMutex<Vec<ModeTransition>>,
}

impl Default for GlkLock {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for GlkLock {
    fn drop(&mut self) {
        // A lock dying in mutex mode leaves the blocking population.
        self.leave_population();
    }
}

impl GlkLock {
    /// Creates a GLK lock with the paper-default configuration and the
    /// process-wide system-load monitor.
    pub fn new() -> Self {
        Self::with_config(GlkConfig::default())
    }

    /// Creates a GLK lock with a custom configuration.
    pub fn with_config(config: GlkConfig) -> Self {
        Self::with_config_and_monitor(config, MonitorHandle::Global)
    }

    /// Creates a GLK lock with a custom configuration and system-load
    /// monitor (used by tests and by the benchmark harness, which need a
    /// runnable registry of their own).
    pub fn with_config_and_monitor(config: GlkConfig, monitor: MonitorHandle) -> Self {
        let starts_blocking = config.initial_mode == GlkMode::Mutex;
        if starts_blocking {
            config.density.density().enter();
        }
        Self {
            mode: AtomicU8::new(config.initial_mode.as_raw()),
            ticket: TicketLock::new(),
            mcs: McsLock::new(),
            mutex: BlockingMutex::new(config.blocking_backend),
            stats: LockStats::new(),
            ema_bits: AtomicU64::new(0f64.to_bits()),
            required_calm: AtomicU64::new(INITIAL_CALM_ROUNDS),
            population: PopulationMembership::new(starts_blocking),
            config,
            monitor,
            transitions: StdMutex::new(Vec::new()),
        }
    }

    /// Joins the blocking-density population (at most once until the
    /// matching leave).
    fn enter_population(&self) {
        self.population.enter(self.config.density.density());
    }

    /// Leaves the blocking-density population (at most once per enter).
    fn leave_population(&self) {
        self.population.leave(self.config.density.density());
    }

    /// Called when this lock's GLS entry is freed: a retired lock no
    /// longer belongs to the live blocking population the Auto backend
    /// heuristic reads (the allocation stays parked for resurrection, but
    /// it serves no traffic).
    pub(crate) fn note_retired(&self) {
        self.leave_population();
    }

    /// Called when this lock's GLS entry serves an address again: if it
    /// retired in mutex mode it rejoins the blocking population.
    pub(crate) fn note_resurrected(&self) {
        if self.mode() == GlkMode::Mutex {
            self.enter_population();
        }
    }

    /// Called when this lock's GLS entry is recycled for another address:
    /// forgets the statistics and the transition log of the old one.
    pub(crate) fn reset_telemetry(&self) {
        self.stats.reset();
        if self.config.record_transitions {
            self.transitions
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clear();
        }
    }

    /// The mode the lock currently operates in.
    pub fn mode(&self) -> GlkMode {
        GlkMode::from_raw(self.mode.load(Ordering::Acquire))
    }

    /// The configuration this lock runs with.
    pub fn config(&self) -> &GlkConfig {
        &self.config
    }

    /// Acquisition and queuing statistics.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Number of completed acquisitions (the paper's `num_acquired`).
    pub fn acquisitions(&self) -> u64 {
        self.stats.acquisitions()
    }

    /// Smoothed queue length currently driving adaptation decisions.
    pub fn smoothed_queue(&self) -> f64 {
        f64::from_bits(self.ema_bits.load(Ordering::Relaxed))
    }

    /// Mode transitions recorded so far (empty unless
    /// [`GlkConfig::record_transitions`] is enabled).
    pub fn transitions(&self) -> Vec<ModeTransition> {
        self.transitions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Number of threads currently holding or waiting for the lock, summed
    /// over all three low-level locks: during a mode transition waiters are
    /// still parked on the previous mode's lock, and they remain queuing
    /// behind *this* GLK lock until they migrate.
    pub fn queue_length(&self) -> u64 {
        self.ticket.queue_length() + self.mcs.queue_length() + self.mutex.queue_length()
    }

    #[inline]
    fn lock_mode(&self, mode: GlkMode) {
        match mode {
            GlkMode::Ticket => self.ticket.lock(),
            GlkMode::Mcs => self.mcs.lock(),
            GlkMode::Mutex => self.mutex.lock(&self.config),
        }
    }

    #[inline]
    fn try_lock_mode(&self, mode: GlkMode) -> bool {
        match mode {
            GlkMode::Ticket => self.ticket.try_lock(),
            GlkMode::Mcs => self.mcs.try_lock(),
            GlkMode::Mutex => self.mutex.try_lock(&self.config),
        }
    }

    #[inline]
    fn unlock_mode(&self, mode: GlkMode) {
        match mode {
            GlkMode::Ticket => self.ticket.unlock(),
            GlkMode::Mcs => self.mcs.unlock(),
            GlkMode::Mutex => self.mutex.unlock(&self.config),
        }
    }

    /// The parking-lot address this lock's blocking waiters sleep under,
    /// when the lock currently blocks through the shared lot (used by
    /// condvar requeue-on-notify; `None` in spin modes or with per-lock
    /// blocking state). The answer is inherently racy — the mode can
    /// change right after — which is safe because the requeue machinery
    /// only commits when the target word is observably held (see
    /// [`gls_locks::futex_mutex::prepare_direct_requeue`]).
    pub(crate) fn blocking_park_addr(&self) -> Option<usize> {
        if self.mode() != GlkMode::Mutex {
            return None;
        }
        self.mutex.park_addr()
    }

    /// Releases the low-level lock of a mode this thread acquired but will
    /// not keep (the mode changed under it, or its own adaptation flipped
    /// it). When the stale mode is mutex with a futex-backed queue, the
    /// release broadcasts: the queue may hold condvar waiters requeued
    /// onto the futex word, which re-acquire through the *current* mode
    /// and never re-release the word — the ordinary one-wakeup drain chain
    /// would strand everyone parked behind them, and with the lock leaving
    /// mutex mode there may never be another release of that word.
    #[inline]
    fn release_stale_mode(&self, stale: GlkMode) {
        match stale {
            GlkMode::Mutex => self.mutex.unlock_stale(&self.config),
            other => self.unlock_mode(other),
        }
    }

    /// Acquires the lock (paper Figure 4).
    pub fn lock(&self) {
        loop {
            let current = self.mode();
            self.lock_mode(current);
            // Line 15 of Figure 4: if the mode is unchanged and no adaptation
            // was performed, we hold the lock; otherwise release the
            // low-level lock (possibly of the old mode) and retry.
            if self.mode() == current && !self.try_adapt(current) {
                return;
            }
            self.release_stale_mode(current);
        }
    }

    /// Attempts to acquire the lock without waiting.
    pub fn try_lock(&self) -> bool {
        loop {
            let current = self.mode();
            if !self.try_lock_mode(current) {
                return false;
            }
            if self.mode() == current && !self.try_adapt(current) {
                return true;
            }
            self.release_stale_mode(current);
        }
    }

    /// Releases the lock.
    ///
    /// Only the holder may change the mode, and it does so *before* releasing
    /// the low-level lock it acquired, so reading the mode here always names
    /// the lock we actually hold.
    pub fn unlock(&self) {
        self.unlock_mode(self.mode());
    }

    /// Whether the lock is currently held (racy; diagnostics only).
    pub fn is_locked(&self) -> bool {
        match self.mode() {
            GlkMode::Ticket => self.ticket.is_locked(),
            GlkMode::Mcs => self.mcs.is_locked(),
            GlkMode::Mutex => self.mutex.is_locked(),
        }
    }

    /// Statistics collection and adaptation, performed by the thread that
    /// just acquired low-level lock `current`. Returns `true` if the mode was
    /// changed (in which case the caller must release and retry).
    fn try_adapt(&self, current: GlkMode) -> bool {
        if self.config.adaptation_disabled() {
            self.stats.record_acquisition();
            return false;
        }
        let acquisitions = self.stats.record_acquisition();

        // Periodic queue sampling (paper: every 128 critical sections).
        // The sample sums all three low-level queues, not just the current
        // mode's: right after a mode switch the waiters of the previous mode
        // drain out of its queue one by one, and counting only the new lock
        // would undercount contention during that migration — the EMA would
        // collapse and bounce the mode straight back (most visible when
        // context switches are slow relative to the adaptation period).
        if acquisitions.is_multiple_of(self.config.sampling_period) {
            self.stats.record_queue_sample(self.queue_length());
        }

        // Periodic adaptation (paper: every 4096 critical sections).
        if !acquisitions.is_multiple_of(self.config.adaptation_period) {
            return false;
        }

        // Fold this window's average queuing into the EMA and reset the
        // window. Only the holder executes this, so plain read-modify-write
        // on the atomic bits is race-free.
        let window_avg = self.stats.average_queue();
        let previous = self.smoothed_queue();
        let smoothed = if self.stats.queue_samples() == 0 {
            previous
        } else {
            if self.stats.acquisitions() <= self.config.adaptation_period {
                window_avg
            } else {
                EMA_ALPHA * window_avg + (1.0 - EMA_ALPHA) * previous
            }
        };
        self.ema_bits.store(smoothed.to_bits(), Ordering::Relaxed);
        self.stats.reset_queue_window();

        let monitor = self.monitor.monitor();
        let target = self.decide_mode(current, smoothed, monitor);
        if target == current {
            return false;
        }

        if self.config.record_transitions {
            let transition = ModeTransition {
                from: current,
                to: target,
                smoothed_queue: smoothed,
                multiprogrammed: monitor.is_multiprogrammed(),
                at_acquisition: acquisitions,
            };
            // The log is append-only, so a panic while holding it leaves
            // nothing half-updated: recover the guard, keep the history.
            self.transitions
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(transition);
        }
        self.stats.record_transition();
        gls_runtime::flight::record(
            gls_runtime::flight::FlightEventKind::ModeTransition,
            self as *const _ as usize,
            (u64::from(current.as_raw()) << 8) | u64::from(target.as_raw()),
        );
        self.mode.store(target.as_raw(), Ordering::Release);
        // Maintain the blocking-lock density the Auto backend heuristic
        // reads — *after* publishing the mode, so a racing
        // `note_resurrected` (which re-reads the mode) cannot re-count a
        // lock that is just leaving mutex mode; the CAS-guarded pairing
        // keeps a racing free/resurrect from unbalancing the count.
        if target == GlkMode::Mutex {
            self.enter_population();
        } else if current == GlkMode::Mutex {
            self.leave_population();
        }
        true
    }

    /// The adaptation policy (§3, "Selecting the GLK Mode").
    fn decide_mode(
        &self,
        current: GlkMode,
        smoothed: f64,
        monitor: &gls_runtime::SystemLoadMonitor,
    ) -> GlkMode {
        let multiprogrammed = monitor.is_multiprogrammed();

        // Multiprogramming forces mutex mode — but only for locks that see
        // real contention; lightly contended locks should finish their
        // critical sections as fast as possible and stay ticket.
        if multiprogrammed {
            return if smoothed >= MIN_QUEUE_FOR_MUTEX {
                GlkMode::Mutex
            } else {
                GlkMode::Ticket
            };
        }

        if current == GlkMode::Mutex {
            // Leaving mutex mode requires an exponentially growing stretch of
            // uninterrupted calm, to avoid bouncing: blocking reduces the
            // system load, which would immediately re-enable spinning, which
            // would re-trigger multiprogramming, and so on.
            let required = self.required_calm.load(Ordering::Relaxed);
            if monitor.calm_ticks() < required {
                return GlkMode::Mutex;
            }
            let next = (required.saturating_mul(2)).min(MAX_CALM_ROUNDS);
            self.required_calm.store(next, Ordering::Relaxed);
            return if smoothed > TICKET_TO_MCS_QUEUE {
                GlkMode::Mcs
            } else {
                GlkMode::Ticket
            };
        }

        // Spin-mode selection with hysteresis.
        if smoothed > TICKET_TO_MCS_QUEUE {
            GlkMode::Mcs
        } else if smoothed < MCS_TO_TICKET_QUEUE {
            GlkMode::Ticket
        } else {
            current
        }
    }
}

#[cfg(test)]
// Raw std sync and wall-clock sleeps are fine in stress tests: they pace
// real threads, not modeled ones (see clippy.toml).
#[allow(clippy::disallowed_types, clippy::disallowed_methods)]
mod tests {
    use super::super::test_support::{oversubscribe, own_monitor};
    use super::*;
    use gls_runtime::SystemLoadMonitor;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn fast_config() -> GlkConfig {
        GlkConfig::default()
            .with_adaptation_period(256)
            .with_sampling_period(16)
            .with_transition_recording(true)
    }

    /// Ends an oversubscription and waits out `ticks` of calm: sleeping *at
    /// least* that long can only make `calm_ticks() >= ticks` truer.
    fn calm_for(monitor: &SystemLoadMonitor, ticks: u64) {
        drop(oversubscribe(monitor));
        std::thread::sleep(std::time::Duration::from_micros(ticks * 100));
        assert!(monitor.calm_ticks() >= ticks);
    }

    #[test]
    fn starts_in_ticket_mode_and_counts_acquisitions() {
        let lock = GlkLock::new();
        assert_eq!(lock.mode(), GlkMode::Ticket);
        for _ in 0..100 {
            lock.lock();
            lock.unlock();
        }
        assert_eq!(lock.acquisitions(), 100);
        assert_eq!(
            lock.mode(),
            GlkMode::Ticket,
            "uncontended lock must stay ticket"
        );
    }

    #[test]
    fn try_lock_respects_holder() {
        let lock = GlkLock::new();
        assert!(lock.try_lock());
        assert!(!lock.try_lock());
        lock.unlock();
        assert!(lock.try_lock());
        lock.unlock();
    }

    #[test]
    fn provides_mutual_exclusion_across_modes() {
        // Force frequent adaptation so the test exercises mode changes while
        // checking that no increment is lost.
        let lock = Arc::new(GlkLock::with_config(
            GlkConfig::default()
                .with_adaptation_period(64)
                .with_sampling_period(8),
        ));
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let guard = std::cell::UnsafeCell::new(0u64);
        struct Shared(std::cell::UnsafeCell<u64>);
        // SAFETY: the cell is only touched while holding the lock under
        // test; that exclusion is exactly what the test verifies.
        unsafe impl Sync for Shared {}
        let shared = Arc::new(Shared(guard));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        lock.lock();
                        // Non-atomic increment: lost updates reveal any
                        // mutual-exclusion violation across mode switches.
                        // SAFETY: written while holding the lock under test.
                        unsafe { *shared.0.get() += 1 };
                        counter.fetch_add(1, Ordering::Relaxed);
                        lock.unlock();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 80_000);
        // SAFETY: all worker threads are joined; nothing races this read.
        assert_eq!(unsafe { *shared.0.get() }, 80_000);
    }

    #[test]
    fn adapts_to_mcs_under_contention() {
        let lock = Arc::new(GlkLock::with_config_and_monitor(
            fast_config(),
            MonitorHandle::Custom(own_monitor()),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        lock.lock();
                        gls_runtime::spin_cycles(500);
                        lock.unlock();
                    }
                })
            })
            .collect();
        // Wait until the lock has had ample opportunity to adapt.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while lock.mode() != GlkMode::Mcs && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            lock.mode(),
            GlkMode::Mcs,
            "8 contending threads should push GLK into mcs mode (smoothed queue {:.2})",
            lock.smoothed_queue()
        );
        assert!(!lock.transitions().is_empty());
    }

    #[test]
    fn returns_to_ticket_when_contention_drops() {
        let monitor = own_monitor();
        let lock = Arc::new(GlkLock::with_config_and_monitor(
            fast_config().with_initial_mode(GlkMode::Mcs),
            MonitorHandle::Custom(monitor),
        ));
        // Single-threaded use: the queue is always exactly 1, far below the
        // mcs->ticket threshold, so the lock must fall back to ticket mode.
        for _ in 0..2_000 {
            lock.lock();
            lock.unlock();
        }
        assert_eq!(lock.mode(), GlkMode::Ticket);
    }

    #[test]
    fn switches_to_mutex_under_multiprogramming() {
        let monitor = own_monitor();
        // Simulate oversubscription: more runnable threads than hardware
        // contexts.
        let guards = oversubscribe(&monitor);

        let lock = Arc::new(GlkLock::with_config_and_monitor(
            fast_config(),
            MonitorHandle::Custom(Arc::clone(&monitor)),
        ));
        // Create real contention so the smoothed queue exceeds the
        // min-queue-for-mutex threshold.
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        lock.lock();
                        gls_runtime::spin_cycles(300);
                        lock.unlock();
                    }
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while lock.mode() != GlkMode::Mutex && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lock.mode(), GlkMode::Mutex);
        drop(guards);
    }

    #[test]
    fn lightly_contended_locks_never_switch_to_mutex() {
        let monitor = own_monitor();
        let _guards = oversubscribe(&monitor);

        let lock = GlkLock::with_config_and_monitor(
            fast_config(),
            MonitorHandle::Custom(Arc::clone(&monitor)),
        );
        // Single-threaded (queue length 1 < min_queue_for_mutex): stays ticket
        // even though the system is multiprogrammed.
        for _ in 0..2_000 {
            lock.lock();
            lock.unlock();
        }
        assert_eq!(lock.mode(), GlkMode::Ticket);
    }

    #[test]
    fn leaving_mutex_requires_calm_and_doubles_requirement() {
        let monitor = own_monitor();
        let lock = GlkLock::with_config_and_monitor(
            fast_config().with_initial_mode(GlkMode::Mutex),
            MonitorHandle::Custom(Arc::clone(&monitor)),
        );
        assert_eq!(
            lock.required_calm.load(Ordering::Relaxed),
            INITIAL_CALM_ROUNDS
        );
        // Not calm enough: against a requirement no stretch of calm can
        // meet, the lock stays in mutex mode however slowly this thread runs
        // (an oversubscribed registry would not do here: it sends a lock
        // this lightly contended back to ticket regardless of calm).
        lock.required_calm.store(u64::MAX, Ordering::Relaxed);
        for _ in 0..1_000 {
            lock.lock();
            lock.unlock();
        }
        assert_eq!(lock.mode(), GlkMode::Mutex);
        // Calm enough: the lock may leave, and the next departure costs double.
        lock.required_calm
            .store(INITIAL_CALM_ROUNDS, Ordering::Relaxed);
        calm_for(&monitor, INITIAL_CALM_ROUNDS);
        for _ in 0..1_000 {
            lock.lock();
            lock.unlock();
        }
        assert_eq!(lock.mode(), GlkMode::Ticket);
        assert_eq!(
            lock.required_calm.load(Ordering::Relaxed),
            INITIAL_CALM_ROUNDS * 2
        );
    }

    #[test]
    fn adaptation_disabled_freezes_mode() {
        let lock = Arc::new(GlkLock::with_config(
            GlkConfig::default()
                .with_initial_mode(GlkMode::Mcs)
                .without_adaptation(),
        ));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        lock.lock();
                        lock.unlock();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lock.mode(), GlkMode::Mcs);
        assert!(lock.transitions().is_empty());
    }

    #[test]
    fn parking_backend_switches_to_mutex_and_excludes() {
        use super::super::config::BlockingBackend;
        let monitor = own_monitor();
        let _guards = oversubscribe(&monitor);

        let lock = Arc::new(GlkLock::with_config_and_monitor(
            fast_config().with_blocking_backend(BlockingBackend::ParkingLot),
            MonitorHandle::Custom(Arc::clone(&monitor)),
        ));
        assert!(matches!(lock.mutex, BlockingMutex::Parking(_)));
        struct Shared(std::cell::UnsafeCell<u64>);
        // SAFETY: the cell is only touched while holding the lock under
        // test; that exclusion is exactly what the test verifies.
        unsafe impl Sync for Shared {}
        let shared = Arc::new(Shared(std::cell::UnsafeCell::new(0)));
        // For its first `QUEUED` sections each holder keeps the lock until
        // two waiters stand behind it (or too few threads remain in that
        // phase to provide them), so every queue sample of the first
        // adaptation windows reads >= 2 whichever threads the scheduler
        // favours; after that the threads run free, as before.
        const QUEUED: usize = 200;
        let queueing = Arc::new(std::sync::atomic::AtomicUsize::new(6));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let shared = Arc::clone(&shared);
                let queueing = Arc::clone(&queueing);
                std::thread::spawn(move || {
                    for i in 0..10_000 {
                        lock.lock();
                        // Non-atomic increment: lost updates reveal any
                        // exclusion violation across mode switches into the
                        // futex-backed mutex mode.
                        // SAFETY: written while holding the lock under test.
                        unsafe { *shared.0.get() += 1 };
                        while i < QUEUED
                            && lock.queue_length() < 3
                            && queueing.load(Ordering::Relaxed) >= 3
                        {
                            std::thread::yield_now();
                        }
                        gls_runtime::spin_cycles(100);
                        lock.unlock();
                        if i + 1 == QUEUED {
                            queueing.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // SAFETY: all worker threads are joined; nothing races this read.
        assert_eq!(unsafe { *shared.0.get() }, 60_000);
        assert!(
            lock.transitions()
                .iter()
                .any(|t| t.to == GlkMode::Mutex || t.from == GlkMode::Mutex),
            "multiprogrammed contended lock should have visited mutex mode \
             (smoothed queue {:.2}, transitions {:?})",
            lock.smoothed_queue(),
            lock.transitions()
        );
    }

    #[test]
    fn poisoned_transition_log_still_records_and_reads() {
        let lock = Arc::new(GlkLock::with_config(
            fast_config().with_initial_mode(GlkMode::Mcs),
        ));
        let poisoner = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let _log = lock.transitions.lock().unwrap();
                panic!("poison the transition log");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(lock.transitions.lock().is_err(), "the log is poisoned");
        // Uncontended use drops mcs -> ticket at the first adaptation tick;
        // the transition is recorded through the poisoned log and read back.
        for _ in 0..fast_config().adaptation_period {
            lock.lock();
            lock.unlock();
        }
        let log = lock.transitions();
        assert_eq!(log.len(), 1, "transitions {log:?}");
        assert_eq!((log[0].from, log[0].to), (GlkMode::Mcs, GlkMode::Ticket));
    }

    #[test]
    fn auto_backend_decides_by_density_and_migrates_on_release() {
        use super::super::config::BlockingDensity;
        let density = BlockingDensity::new();
        let threshold = 4usize;
        let lock = AutoBlockingMutex::new();
        assert_eq!(lock.uses_parking_lot(), None, "undecided until first use");
        // Low density: the first use decides the embedded per-lock mutex.
        lock.lock(&density, threshold);
        assert_eq!(lock.uses_parking_lot(), Some(false));
        assert!(lock.is_locked());
        assert!(!lock.try_lock(&density, threshold));
        assert!(lock.blocking_heap_bytes() > 0, "per-lock box allocated");
        // Past the threshold, the holder migrates on release...
        for _ in 0..threshold {
            density.enter();
        }
        lock.unlock(&density, threshold);
        assert_eq!(lock.uses_parking_lot(), Some(true));
        assert!(!lock.is_locked());
        // ...and below half the threshold it migrates back.
        lock.lock(&density, threshold);
        for _ in 0..threshold {
            density.leave();
        }
        lock.unlock(&density, threshold);
        assert_eq!(lock.uses_parking_lot(), Some(false));
        assert_eq!(lock.queue_length(), 0);
    }

    #[test]
    fn auto_backend_born_past_threshold_never_allocates_per_lock_state() {
        use super::super::config::BlockingDensity;
        let density = BlockingDensity::new();
        for _ in 0..8 {
            density.enter();
        }
        let lock = AutoBlockingMutex::new();
        lock.lock(&density, 4);
        lock.unlock(&density, 4);
        assert_eq!(lock.uses_parking_lot(), Some(true));
        assert_eq!(
            lock.blocking_heap_bytes(),
            0,
            "a lock born past the density threshold pays only the futex word"
        );
    }

    #[test]
    fn auto_backend_excludes_across_forced_migrations() {
        use super::super::config::BlockingDensity;
        use std::sync::Arc;
        struct Shared(std::cell::UnsafeCell<u64>);
        // SAFETY: the cell is only touched while holding the lock under
        // test; that exclusion is exactly what the test verifies.
        unsafe impl Sync for Shared {}
        let density = Arc::new(BlockingDensity::new());
        let lock = Arc::new(AutoBlockingMutex::new());
        let shared = Arc::new(Shared(std::cell::UnsafeCell::new(0)));
        let stop = Arc::new(AtomicBool::new(false));
        // A churn thread oscillates the density across the threshold so
        // releases keep migrating the backend while workers fight for the
        // lock.
        let churn = {
            let density = Arc::clone(&density);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..8 {
                        density.enter();
                    }
                    std::thread::yield_now();
                    for _ in 0..8 {
                        density.leave();
                    }
                }
            })
        };
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let density = Arc::clone(&density);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        lock.lock(&density, 4);
                        // Non-atomic increment: lost updates reveal an
                        // exclusion violation across a backend migration.
                        // SAFETY: written while holding the lock under test.
                        unsafe { *shared.0.get() += 1 };
                        lock.unlock(&density, 4);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        churn.join().unwrap();
        // SAFETY: all worker threads are joined; nothing races this read.
        assert_eq!(unsafe { *shared.0.get() }, 60_000);
        assert!(!lock.is_locked());
        assert_eq!(lock.queue_length(), 0);
    }

    #[test]
    fn glk_mode_transitions_maintain_blocking_density() {
        use super::super::config::{BlockingDensity, DensityHandle};
        use std::sync::Arc;
        let density = Arc::new(BlockingDensity::new());
        let monitor = own_monitor();
        {
            let lock = GlkLock::with_config_and_monitor(
                fast_config()
                    .with_initial_mode(GlkMode::Mutex)
                    .with_density(DensityHandle::Custom(Arc::clone(&density))),
                MonitorHandle::Custom(Arc::clone(&monitor)),
            );
            assert_eq!(density.live(), 1, "initial mutex mode counts");
            // Calm single-threaded use leaves mutex mode -> count drops.
            calm_for(&monitor, INITIAL_CALM_ROUNDS);
            for _ in 0..1_000 {
                lock.lock();
                lock.unlock();
            }
            assert_eq!(lock.mode(), GlkMode::Ticket);
            assert_eq!(density.live(), 0, "leaving mutex mode decrements");
        }
        assert_eq!(density.live(), 0, "drop of a ticket-mode lock is neutral");
        {
            let _lock = GlkLock::with_config_and_monitor(
                fast_config()
                    .with_initial_mode(GlkMode::Mutex)
                    .with_density(DensityHandle::Custom(Arc::clone(&density))),
                MonitorHandle::Custom(monitor),
            );
            assert_eq!(density.live(), 1);
        }
        assert_eq!(density.live(), 0, "dropping a mutex-mode lock decrements");
    }

    #[test]
    fn queue_length_reports_holder() {
        let lock = GlkLock::new();
        assert_eq!(lock.queue_length(), 0);
        lock.lock();
        assert_eq!(lock.queue_length(), 1);
        assert!(lock.is_locked());
        lock.unlock();
        assert_eq!(lock.queue_length(), 0);
    }
}
