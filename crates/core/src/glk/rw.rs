//! GLK-RW: the adaptive reader-writer lock.
//!
//! Kyoto Cabinet and SQLite protect their main structures with reader-writer
//! locks (§5.2), so rw locking deserves the same adaptivity GLK gives plain
//! mutual exclusion. GLK-RW switches between two underlying implementations:
//!
//! * **spin** — the TTAS-based [`RwTtasRaw`] (the paper's pthread-rwlock
//!   replacement, footnote 7) while the machine has spare hardware contexts;
//! * **blocking** — a parking rw lock ([`RwMutexLock`], or [`FutexRwLock`]
//!   with the parking-lot backend) when the system-load monitor reports
//!   multiprogramming and the lock sees real contention, so waiters release
//!   their contexts to the OS.
//!
//! The acquisition protocol mirrors [`GlkLock`](crate::glk::GlkLock)
//! (paper Figure 4): read the mode, acquire that low-level lock, re-check the
//! mode and retry if it changed. Only a *write* holder — momentarily
//! exclusive — folds the sampled queue lengths into the EMA and flips the
//! mode, so adaptation is race-free; readers only bump the shared counters.
//! No release broadcasts when the lock leaves blocking mode: condvar waiters
//! are never requeued onto rw words (see `LockEntry::park_addr`), so every
//! waiter is native and drains through acquire-recheck-release-retry.

use std::sync::atomic::{AtomicBool, Ordering};

use gls_locks::{
    FutexRwLock, QueueInformed, RawLock, RawRwLock, RawTryLock, RwMutexLock, RwTtasRaw,
};
use gls_runtime::LockStats;

use super::adapt::{Adaptive, Load};
use super::config::{BlockingBackend, GlkConfig, MonitorHandle};

/// The low-level lock behind [`GlkRwMode::Blocking`], chosen by
/// [`GlkConfig::blocking_backend`].
#[derive(Debug)]
enum BlockingRw {
    /// Per-lock `Mutex + Condvar` parking state.
    PerLock(RwMutexLock),
    /// One `AtomicU32`; waiters park in [`gls_locks::ParkingLot::global`].
    Parking(FutexRwLock),
}

impl BlockingRw {
    fn new(backend: BlockingBackend) -> Self {
        match backend {
            BlockingBackend::PerLock => BlockingRw::PerLock(RwMutexLock::new()),
            BlockingBackend::ParkingLot => BlockingRw::Parking(FutexRwLock::new()),
        }
    }

    #[inline]
    fn read_lock(&self) {
        match self {
            BlockingRw::PerLock(l) => l.read_lock(),
            BlockingRw::Parking(l) => l.read_lock(),
        }
    }

    #[inline]
    fn try_read_lock(&self) -> bool {
        match self {
            BlockingRw::PerLock(l) => l.try_read_lock(),
            BlockingRw::Parking(l) => l.try_read_lock(),
        }
    }

    #[inline]
    fn read_unlock(&self) {
        match self {
            BlockingRw::PerLock(l) => l.read_unlock(),
            BlockingRw::Parking(l) => l.read_unlock(),
        }
    }

    #[inline]
    fn write_lock(&self) {
        match self {
            BlockingRw::PerLock(l) => l.lock(),
            BlockingRw::Parking(l) => l.lock(),
        }
    }

    #[inline]
    fn try_write_lock(&self) -> bool {
        match self {
            BlockingRw::PerLock(l) => l.try_lock(),
            BlockingRw::Parking(l) => l.try_lock(),
        }
    }

    #[inline]
    fn write_unlock(&self) {
        match self {
            BlockingRw::PerLock(l) => l.unlock(),
            BlockingRw::Parking(l) => l.unlock(),
        }
    }

    fn is_locked(&self) -> bool {
        match self {
            BlockingRw::PerLock(l) => l.is_locked(),
            BlockingRw::Parking(l) => l.is_locked(),
        }
    }

    fn queue_length(&self) -> u64 {
        match self {
            BlockingRw::PerLock(l) => l.queue_length(),
            BlockingRw::Parking(l) => l.queue_length(),
        }
    }
}

/// The two operating modes of [`GlkRwLock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlkRwMode {
    /// TTAS-based spinning readers and writers.
    Spin,
    /// Parking readers and writers (multiprogrammed systems).
    Blocking,
}

impl GlkRwMode {
    pub(crate) fn as_raw(self) -> u8 {
        match self {
            GlkRwMode::Spin => 0,
            GlkRwMode::Blocking => 1,
        }
    }

    pub(crate) fn from_raw(raw: u8) -> Self {
        match raw {
            0 => GlkRwMode::Spin,
            _ => GlkRwMode::Blocking,
        }
    }

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            GlkRwMode::Spin => "rw-spin",
            GlkRwMode::Blocking => "rw-blocking",
        }
    }
}

/// The adaptive reader-writer lock (GLK-RW).
///
/// # Example
///
/// ```
/// use gls::glk::{GlkRwLock, GlkRwMode};
///
/// let lock = GlkRwLock::new();
/// lock.read_lock();
/// assert_eq!(lock.mode(), GlkRwMode::Spin); // fresh locks spin
/// lock.read_unlock();
/// lock.write_lock();
/// lock.write_unlock();
/// ```
#[derive(Debug)]
pub struct GlkRwLock {
    /// Low-level lock used in [`GlkRwMode::Spin`].
    spin: RwTtasRaw,
    /// Low-level lock used in [`GlkRwMode::Blocking`] (backend per
    /// [`GlkConfig::blocking_backend`]).
    blocking: BlockingRw,
    /// The mode flag (the rw counterpart of the paper's `lock_type`), the
    /// counters (reads and writes combined) and the policy state shared
    /// with GLK.
    adapt: Adaptive,
    /// Raised when the acquisition count crosses an adaptation boundary on
    /// the *read* side; the next reader to win a try-acquired write slot on
    /// release runs the adaptation check. Without this, a 100%-read
    /// workload would never adapt (only write holders fold the EMA).
    adapt_pending: AtomicBool,
}

impl Default for GlkRwLock {
    fn default() -> Self {
        Self::new()
    }
}

impl GlkRwLock {
    /// Creates a GLK-RW lock with the paper-default configuration and the
    /// process-wide system-load monitor.
    pub fn new() -> Self {
        Self::with_config(GlkConfig::default())
    }

    /// Creates a GLK-RW lock with a custom configuration.
    pub fn with_config(config: GlkConfig) -> Self {
        Self::with_config_and_monitor(config, MonitorHandle::Global)
    }

    /// Creates a GLK-RW lock with a custom configuration and system-load
    /// monitor.
    pub fn with_config_and_monitor(config: GlkConfig, monitor: MonitorHandle) -> Self {
        Self {
            spin: RwTtasRaw::new(),
            blocking: BlockingRw::new(config.blocking_backend),
            adapt: Adaptive::new(GlkRwMode::Spin.as_raw(), config, monitor),
            adapt_pending: AtomicBool::new(false),
        }
    }

    /// Called when this lock's GLS entry is recycled for another address:
    /// forgets the statistics of the old one.
    pub(crate) fn reset_telemetry(&self) {
        self.adapt.reset();
    }

    /// The mode the lock currently operates in.
    #[inline]
    pub fn mode(&self) -> GlkRwMode {
        GlkRwMode::from_raw(self.adapt.mode())
    }

    /// Acquisition and queuing statistics (reads and writes combined).
    pub fn stats(&self) -> &LockStats {
        self.adapt.stats()
    }

    /// Number of completed acquisitions, shared and exclusive.
    pub fn acquisitions(&self) -> u64 {
        self.stats().acquisitions()
    }

    /// Smoothed queue length currently driving adaptation decisions.
    pub fn smoothed_queue(&self) -> f64 {
        self.adapt.smoothed_queue()
    }

    /// Holders plus waiters over both low-level locks: during a mode
    /// transition waiters still drain from the previous mode's lock yet keep
    /// queuing behind *this* lock.
    pub fn queue_length(&self) -> u64 {
        self.spin.queue_length() + self.blocking.queue_length()
    }

    /// Whether some thread holds the lock in either mode (racy; diagnostics
    /// only).
    pub fn is_locked(&self) -> bool {
        self.spin.is_locked() || self.blocking.is_locked()
    }

    #[inline]
    fn read_lock_mode(&self, mode: GlkRwMode) {
        match mode {
            GlkRwMode::Spin => self.spin.read_lock(),
            GlkRwMode::Blocking => self.blocking.read_lock(),
        }
    }

    #[inline]
    fn try_read_lock_mode(&self, mode: GlkRwMode) -> bool {
        match mode {
            GlkRwMode::Spin => self.spin.try_read_lock(),
            GlkRwMode::Blocking => self.blocking.try_read_lock(),
        }
    }

    #[inline]
    fn read_unlock_mode(&self, mode: GlkRwMode) {
        match mode {
            GlkRwMode::Spin => self.spin.read_unlock(),
            GlkRwMode::Blocking => self.blocking.read_unlock(),
        }
    }

    #[inline]
    fn write_lock_mode(&self, mode: GlkRwMode) {
        match mode {
            GlkRwMode::Spin => self.spin.lock(),
            GlkRwMode::Blocking => self.blocking.write_lock(),
        }
    }

    #[inline]
    fn try_write_lock_mode(&self, mode: GlkRwMode) -> bool {
        match mode {
            GlkRwMode::Spin => self.spin.try_lock(),
            GlkRwMode::Blocking => self.blocking.try_write_lock(),
        }
    }

    #[inline]
    fn write_unlock_mode(&self, mode: GlkRwMode) {
        match mode {
            GlkRwMode::Spin => self.spin.unlock(),
            GlkRwMode::Blocking => self.blocking.write_unlock(),
        }
    }

    /// Acquires shared (read) access.
    pub fn read_lock(&self) {
        loop {
            let current = self.mode();
            self.read_lock_mode(current);
            if self.mode() == current {
                self.note_read_acquisition();
                return;
            }
            self.read_unlock_mode(current);
        }
    }

    /// Attempts to acquire shared access without waiting.
    pub fn try_read_lock(&self) -> bool {
        loop {
            let current = self.mode();
            if !self.try_read_lock_mode(current) {
                return false;
            }
            if self.mode() == current {
                self.note_read_acquisition();
                return true;
            }
            self.read_unlock_mode(current);
        }
    }

    /// Releases shared access.
    ///
    /// A reader in its critical section pins the mode — flipping it requires
    /// the write lock of the current mode — so reading the mode here always
    /// names the lock the reader actually holds.
    pub fn read_unlock(&self) {
        self.read_unlock_mode(self.mode());
        // Reader-side adaptation: if a read acquisition crossed an
        // adaptation boundary, the first released reader to win a
        // try-acquired write slot runs the check. Without this, a 100%-read
        // workload would never adapt — e.g. never switch to the blocking
        // rwlock under oversubscription — because only write holders fold
        // the EMA.
        if self.adapt_pending.load(Ordering::Relaxed) {
            self.adapt_from_reader();
        }
    }

    /// Statistics bookkeeping done by every successful shared acquisition.
    /// Readers never fold the EMA themselves (they are not exclusive); they
    /// count (concurrently, hence the RMW), sample the queue, and flag
    /// crossed adaptation boundaries for the release path.
    #[inline]
    fn note_read_acquisition(&self) {
        let seq = self.stats().record_acquisition();
        if self.adapt.pace(seq, || self.queue_length()) {
            self.adapt_pending.store(true, Ordering::Relaxed);
        }
    }

    /// Runs the adaptation check from the read-side release path, guarded by
    /// a try-acquired write slot (which makes the caller momentarily
    /// exclusive, so folding the EMA and flipping the mode stay race-free).
    #[cold]
    fn adapt_from_reader(&self) {
        let current = self.mode();
        if !self.try_write_lock_mode(current) {
            // Another holder is active; the pending flag stays raised and a
            // later release (or a real writer's boundary) picks it up.
            return;
        }
        if self.mode() == current {
            self.adapt_pending.store(false, Ordering::Relaxed);
            self.adapt_exclusive(current);
        }
        // If the mode changed, `adapt_exclusive` stored it *before* this
        // release, exactly like the write path: unlock the lock we hold.
        self.write_unlock_mode(current);
    }

    /// Acquires exclusive (write) access.
    pub fn write_lock(&self) {
        loop {
            let current = self.mode();
            self.write_lock_mode(current);
            if self.mode() == current && !self.try_adapt(current) {
                return;
            }
            self.write_unlock_mode(current);
        }
    }

    /// Attempts to acquire exclusive access without waiting.
    pub fn try_write_lock(&self) -> bool {
        loop {
            let current = self.mode();
            if !self.try_write_lock_mode(current) {
                return false;
            }
            if self.mode() == current && !self.try_adapt(current) {
                return true;
            }
            self.write_unlock_mode(current);
        }
    }

    /// Releases exclusive access. Only the write holder may have changed the
    /// mode, and it did so *before* releasing, so the mode read here always
    /// names the lock actually held.
    pub fn write_unlock(&self) {
        self.write_unlock_mode(self.mode());
    }

    /// Statistics collection and adaptation, performed by the thread that
    /// just acquired the write lock of `current` (and therefore excludes
    /// every reader and writer of that mode). Returns `true` if the mode was
    /// changed, in which case the caller must release and retry.
    #[inline]
    fn try_adapt(&self, current: GlkRwMode) -> bool {
        // Readers share the counter, so writers count with the RMW too.
        let seq = self.stats().record_acquisition();
        self.adapt.pace(seq, || self.queue_length()) && self.adapt_exclusive(current)
    }

    /// One adaptation tick. The caller must hold the write lock of `current`
    /// (and therefore be exclusive). Returns `true` if the mode changed (the
    /// caller must release and retry).
    #[cold]
    fn adapt_exclusive(&self, current: GlkRwMode) -> bool {
        let smoothed = self.adapt.fold_window();
        let load = self.adapt.load(current == GlkRwMode::Blocking, smoothed);
        let target = Self::decide_mode(load);
        if target == current {
            return false;
        }
        let lock = self as *const _ as usize;
        self.adapt.publish(lock, current.as_raw(), target.as_raw());
        true
    }

    /// GLK-RW's half of the policy: with one spin mode, the load decides.
    fn decide_mode(load: Load) -> GlkRwMode {
        if load.block {
            GlkRwMode::Blocking
        } else {
            GlkRwMode::Spin
        }
    }
}

#[cfg(test)]
// Raw std sync and wall-clock sleeps are fine in stress tests: they pace
// real threads, not modeled ones (see clippy.toml).
#[allow(clippy::disallowed_types, clippy::disallowed_methods)]
mod tests {
    use super::super::test_support::{
        check_decision_table, oversubscribe, own_monitor, DecisionRow,
    };
    use super::*;
    use gls_sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn fast_config() -> GlkConfig {
        GlkConfig::default()
            .with_adaptation_period(256)
            .with_sampling_period(16)
    }

    /// The policy's verdict for `lock` in mode `current` at smoothed queue
    /// `smoothed`, under its monitor's present load.
    fn decide(lock: &GlkRwLock, current: GlkRwMode, smoothed: f64) -> GlkRwMode {
        GlkRwLock::decide_mode(lock.adapt.load(current == GlkRwMode::Blocking, smoothed))
    }

    fn required_calm(lock: &GlkRwLock) -> &AtomicU64 {
        lock.adapt.required_calm()
    }

    #[test]
    fn decision_table_maps_load_and_queue_to_mode() {
        use GlkRwMode::{Blocking as B, Spin as S};
        #[rustfmt::skip]
        let table: [DecisionRow<GlkRwMode>; 8] = [
            // Multiprogramming blocks contended locks only, whatever the
            // mode and whatever the calm requirement.
            (S, true,  false, [S, S, B, B, B], false),
            (S, true,  true,  [S, S, B, B, B], false),
            (B, true,  false, [S, S, B, B, B], false),
            (B, true,  true,  [S, S, B, B, B], false),
            // Without multiprogramming nothing starts blocking.
            (S, false, false, [S, S, S, S, S], false),
            (S, false, true,  [S, S, S, S, S], false),
            // Blocking mode holds until the calm requirement is met, then
            // leaves and doubles the requirement.
            (B, false, false, [B, B, B, B, B], false),
            (B, false, true,  [S, S, S, S, S], true),
        ];
        let monitor = own_monitor();
        let lock = GlkRwLock::with_config_and_monitor(
            fast_config(),
            MonitorHandle::Custom(Arc::clone(&monitor)),
        );
        check_decision_table(
            &monitor,
            required_calm(&lock),
            &table,
            |current, smoothed| decide(&lock, current, smoothed),
        );
    }

    #[test]
    fn starts_spinning_and_counts_acquisitions() {
        let lock = GlkRwLock::new();
        assert_eq!(lock.mode(), GlkRwMode::Spin);
        for _ in 0..50 {
            lock.read_lock();
            lock.read_unlock();
            lock.write_lock();
            lock.write_unlock();
        }
        assert_eq!(lock.acquisitions(), 100);
        assert_eq!(lock.mode(), GlkRwMode::Spin);
    }

    #[test]
    fn try_variants_respect_holders() {
        let lock = GlkRwLock::new();
        assert!(lock.try_read_lock());
        assert!(!lock.try_write_lock());
        lock.read_unlock();
        assert!(lock.try_write_lock());
        assert!(!lock.try_read_lock());
        assert!(!lock.try_write_lock());
        lock.write_unlock();
        assert!(!lock.is_locked());
    }

    #[test]
    fn queue_length_reports_holders() {
        let lock = GlkRwLock::new();
        assert_eq!(lock.queue_length(), 0);
        lock.read_lock();
        lock.read_lock();
        assert_eq!(lock.queue_length(), 2);
        lock.read_unlock();
        lock.read_unlock();
        assert_eq!(lock.queue_length(), 0);
    }

    #[test]
    fn switches_to_blocking_under_multiprogramming() {
        let monitor = own_monitor();
        let guards = oversubscribe(&monitor);

        let lock = Arc::new(GlkRwLock::with_config_and_monitor(
            fast_config(),
            MonitorHandle::Custom(Arc::clone(&monitor)),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let lock = Arc::clone(&lock);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        if t % 2 == 0 {
                            lock.write_lock();
                            gls_runtime::spin_cycles(300);
                            lock.write_unlock();
                        } else {
                            lock.read_lock();
                            gls_runtime::spin_cycles(300);
                            lock.read_unlock();
                        }
                    }
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while lock.mode() != GlkRwMode::Blocking && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            lock.mode(),
            GlkRwMode::Blocking,
            "multiprogrammed contended rw lock must adapt to blocking (queue {:.2})",
            lock.smoothed_queue()
        );
        drop(guards);
    }

    #[test]
    fn pure_read_workload_adapts_to_blocking_under_multiprogramming() {
        // Regression test for the reader-side adaptation gap (ROADMAP PR 2):
        // with only write holders running the adaptation check, a 100%-read
        // oversubscribed workload never switches to the blocking rwlock.
        // The reader-side trigger (boundary flag + try-acquired write slot
        // on release) must flip it.
        let monitor = own_monitor();
        let guards = oversubscribe(&monitor);

        let lock = Arc::new(GlkRwLock::with_config_and_monitor(
            fast_config(),
            MonitorHandle::Custom(Arc::clone(&monitor)),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        lock.read_lock();
                        gls_runtime::spin_cycles(300);
                        lock.read_unlock();
                    }
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while lock.mode() != GlkRwMode::Blocking && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            lock.mode(),
            GlkRwMode::Blocking,
            "100%-read oversubscribed workload must adapt via the reader-side \
             trigger (smoothed queue {:.2})",
            lock.smoothed_queue()
        );
        drop(guards);
    }

    #[test]
    fn parking_backend_serves_blocking_mode() {
        use super::super::config::BlockingBackend;
        let lock = GlkRwLock::with_config(
            fast_config().with_blocking_backend(BlockingBackend::ParkingLot),
        );
        assert!(matches!(lock.blocking, BlockingRw::Parking(_)));
        // Exercise the blocking lock directly through the mode dispatchers.
        lock.blocking.read_lock();
        assert!(!lock.blocking.try_write_lock());
        lock.blocking.read_unlock();
        lock.blocking.write_lock();
        assert!(lock.blocking.is_locked());
        assert!(!lock.blocking.try_read_lock());
        lock.blocking.write_unlock();
        assert_eq!(lock.blocking.queue_length(), 0);
    }

    #[test]
    fn readers_and_writers_stay_consistent_across_mode_flips() {
        struct Shared(std::cell::UnsafeCell<(u64, u64)>);
        // SAFETY: the cell is only touched while holding the lock under
        // test; that exclusion is exactly what the test verifies.
        unsafe impl Sync for Shared {}
        // Aggressive adaptation so the test exercises the transition
        // protocol; the monitor flips multiprogramming on and off.
        let monitor = own_monitor();
        let lock = Arc::new(GlkRwLock::with_config_and_monitor(
            GlkConfig::default()
                .with_adaptation_period(64)
                .with_sampling_period(8),
            MonitorHandle::Custom(Arc::clone(&monitor)),
        ));
        let shared = Arc::new(Shared(std::cell::UnsafeCell::new((0, 0))));
        let stop = Arc::new(AtomicBool::new(false));
        let flipper = {
            let monitor = Arc::clone(&monitor);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let guards = oversubscribe(&monitor);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    drop(guards);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            })
        };
        let writers: Vec<_> = (0..3)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        lock.write_lock();
                        // SAFETY: written while holding the write lock under test.
                        unsafe {
                            (*shared.0.get()).0 += 1;
                            (*shared.0.get()).1 += 1;
                        }
                        lock.write_unlock();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        lock.read_lock();
                        // SAFETY: read under the read lock; writers are excluded.
                        let (a, b) = unsafe { *shared.0.get() };
                        assert_eq!(a, b, "reader overlapped a writer across a mode flip");
                        lock.read_unlock();
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        flipper.join().unwrap();
        // SAFETY: all worker threads are joined; nothing races this read.
        assert_eq!(unsafe { (*shared.0.get()).0 }, 15_000);
    }
}
