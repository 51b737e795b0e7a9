//! The GLK lock: structure, acquisition protocol and spin-mode policy.

use gls_sync::atomic::{AtomicU64, Ordering};

use gls_locks::{FutexLock, McsLock, QueueInformed, RawLock, RawTryLock, TicketLock};
use gls_runtime::LockStats;

use super::adapt::{Adaptive, Load};
use super::config::{GlkConfig, MonitorHandle, MCS_TO_TICKET_QUEUE, TICKET_TO_MCS_QUEUE};
use super::mode::GlkMode;

/// How a hold numbers its acquisition for the pacing step.
#[derive(Clone, Copy)]
enum Turn {
    /// Ticket mode: the ticket the hold was served.
    Ticket(u32),
    /// MCS or mutex mode: the holder counts itself.
    Counted,
}

/// The generic lock (GLK): a lock that adapts between ticket, MCS and mutex
/// modes based on observed contention and system load.
///
/// The structure mirrors the paper's Figure 3 — a `lock_type` flag, the three
/// low-level lock objects and the statistics counters — and the acquisition
/// protocol mirrors Figure 4: read the mode, acquire that low-level lock,
/// re-check the mode (restarting if it changed), and give the now-holder a
/// chance to adapt. In ticket mode the paper's `num_acquired` is the ticket
/// lock's own ticket counter, so a ticket-mode acquisition writes no line
/// but the ticket lock's between two queue samples.
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
    /// Low-level lock used in [`GlkMode::Ticket`].
    ticket: TicketLock,
    /// Low-level lock used in [`GlkMode::Mcs`].
    mcs: McsLock,
    /// The `lock_type` flag, the counters and the policy state. Its
    /// acquisition counter counts the MCS- and mutex-mode holds only.
    adapt: Adaptive,
    /// Low-level lock used in [`GlkMode::Mutex`]: one word, whose waiters
    /// sleep in the shared parking lot. It shares the cold line of
    /// `ticket_base`, off the ticket lock's line and the mode's, so
    /// ticket-mode handoffs never pull it along.
    mutex: FutexLock,
    /// The ticket word at the last telemetry reset, less 2³² for every wrap
    /// of the word since: `ticket − ticket_base` is the number of tickets
    /// drawn since that reset, in full. Written by the holder that draws
    /// ticket `u32::MAX` and by `reset_telemetry`, never on the fast path.
    ticket_base: AtomicU64,
}

impl Default for GlkLock {
    fn default() -> Self {
        Self::new()
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
        Self {
            ticket: TicketLock::new(),
            mcs: McsLock::new(),
            adapt: Adaptive::new(config, monitor),
            mutex: FutexLock::new(),
            ticket_base: AtomicU64::new(0),
        }
    }

    /// Called when this lock's GLS entry is recycled for another address,
    /// by a caller that holds the lock: forgets the statistics of the old
    /// one, and counts acquisitions from zero.
    pub(crate) fn reset_telemetry(&self) {
        self.adapt.reset();
        self.ticket_base
            .store(u64::from(self.ticket.counters().0), Ordering::Relaxed);
    }

    /// The mode the lock currently operates in.
    #[inline]
    pub fn mode(&self) -> GlkMode {
        self.adapt.mode()
    }

    /// Queuing statistics and transition count. Its acquisition counter
    /// holds the MCS- and mutex-mode acquisitions only; the total is
    /// [`Self::acquisitions`].
    pub fn stats(&self) -> &LockStats {
        self.adapt.stats()
    }

    /// Number of completed acquisitions since creation or entry recycle
    /// (the paper's `num_acquired`): the tickets drawn plus the MCS- and
    /// mutex-mode holds. Exact while the lock is idle; while it is held,
    /// waiters that drew a ticket count already. An acquisition whose hold
    /// changed the mode counts twice (the hold, then the retry), and so
    /// does one that drew a ticket and found the mode changed under it.
    pub fn acquisitions(&self) -> u64 {
        let drawn = u64::from(self.ticket.counters().0);
        let tickets = drawn.wrapping_sub(self.ticket_base.load(Ordering::Relaxed));
        tickets.wrapping_add(self.stats().acquisitions())
    }

    /// Smoothed queue length currently driving adaptation decisions.
    pub fn smoothed_queue(&self) -> f64 {
        self.adapt.smoothed_queue()
    }

    /// Number of threads currently holding or waiting for the lock, summed
    /// over all three low-level locks: during a mode transition waiters are
    /// still parked on the previous mode's lock, and they remain queuing
    /// behind *this* GLK lock until they migrate.
    pub fn queue_length(&self) -> u64 {
        self.ticket.queue_length() + self.mcs.queue_length() + self.mutex.queue_length()
    }

    #[inline]
    fn lock_mode(&self, mode: GlkMode) -> Turn {
        match mode {
            GlkMode::Ticket => return self.served(self.ticket.acquire()),
            GlkMode::Mcs => self.mcs.lock(),
            GlkMode::Mutex => self.mutex.lock(),
        }
        Turn::Counted
    }

    #[inline]
    fn try_lock_mode(&self, mode: GlkMode) -> Option<Turn> {
        let acquired = match mode {
            GlkMode::Ticket => return self.ticket.try_acquire().map(|t| self.served(t)),
            GlkMode::Mcs => self.mcs.try_lock(),
            GlkMode::Mutex => self.mutex.try_lock(),
        };
        acquired.then_some(Turn::Counted)
    }

    /// The turn of a hold served `ticket`, whatever the mode turns out to
    /// be: drawing ticket `u32::MAX` wrapped the ticket word, so its holder
    /// (ticket holders are serialized) moves the base down by 2³².
    #[inline]
    fn served(&self, ticket: u32) -> Turn {
        if ticket == u32::MAX {
            let base = self.ticket_base.load(Ordering::Relaxed);
            self.ticket_base
                .store(base.wrapping_sub(1 << 32), Ordering::Relaxed);
        }
        Turn::Ticket(ticket)
    }

    #[inline]
    fn unlock_mode(&self, mode: GlkMode) {
        match mode {
            GlkMode::Ticket => self.ticket.unlock(),
            GlkMode::Mcs => self.mcs.unlock(),
            GlkMode::Mutex => self.mutex.unlock(),
        }
    }

    /// Acquires the lock (paper Figure 4).
    pub fn lock(&self) {
        loop {
            let current = self.mode();
            let turn = self.lock_mode(current);
            // Line 15 of Figure 4: if the mode is unchanged and no adaptation
            // was performed, we hold the lock; otherwise release the
            // low-level lock (possibly of the old mode) and retry.
            if self.mode() == current && !self.try_adapt(current, turn) {
                return;
            }
            // A stale mode, mutex included, is released like any hold: a
            // waiter woken from an abandoned mutex word re-checks the mode
            // and releases the word in turn.
            self.unlock_mode(current);
            #[cfg(gls_model)]
            model::after_stale_release(|(from, to, queue, mp)| self.publish(from, to, queue, mp));
        }
    }

    /// Attempts to acquire the lock without waiting.
    pub fn try_lock(&self) -> bool {
        loop {
            let current = self.mode();
            let Some(turn) = self.try_lock_mode(current) else {
                return false;
            };
            if self.mode() == current && !self.try_adapt(current, turn) {
                return true;
            }
            self.unlock_mode(current);
            #[cfg(gls_model)]
            model::after_stale_release(|(from, to, queue, mp)| self.publish(from, to, queue, mp));
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
    #[inline]
    fn try_adapt(&self, current: GlkMode, turn: Turn) -> bool {
        let seq = match turn {
            // The ticket numbers the acquisition: nothing to write.
            Turn::Ticket(ticket) => u64::from(ticket.wrapping_add(1)),
            // Holds that passed the mode re-check in MCS or mutex mode
            // exclude each other (a mode changes only under its holder, and
            // before the release), so the counter has one writer at a time.
            Turn::Counted => self.stats().record_exclusive_acquisition(),
        };
        // The sample sums all three low-level queues, not just the current
        // mode's: right after a mode switch the waiters of the previous mode
        // drain out of its queue one by one, and counting only the new lock
        // would undercount contention during that migration — the EMA would
        // collapse and bounce the mode straight back (most visible when
        // context switches are slow relative to the adaptation period).
        self.adapt.pace(seq, || self.queue_length()) && self.adapt_exclusive(current)
    }

    /// One adaptation tick, run by the holder of low-level lock `current`.
    #[cold]
    fn adapt_exclusive(&self, current: GlkMode) -> bool {
        let smoothed = self.adapt.fold_window();
        let load = self.adapt.load(current, smoothed);
        let target = Self::decide_mode(current, smoothed, load);
        if target == current {
            return false;
        }
        #[cfg(gls_model)]
        if model::hold_back((current, target, smoothed, load.multiprogrammed)) {
            return true;
        }
        self.publish(current, target, smoothed, load.multiprogrammed);
        true
    }

    /// Publishes the transition `from` → `to` and its reason; the caller
    /// holds the low-level lock of `from` and releases it afterwards.
    fn publish(&self, from: GlkMode, to: GlkMode, smoothed: f64, multiprogrammed: bool) {
        let lock = self as *const _ as usize;
        self.adapt
            .publish(lock, from, to, smoothed, multiprogrammed);
    }

    /// The lock's half of the policy (§3, "Selecting the GLK Mode"): which
    /// of the three modes answers `load` at smoothed queue `smoothed`.
    fn decide_mode(current: GlkMode, smoothed: f64, load: Load) -> GlkMode {
        if load.block {
            return GlkMode::Mutex;
        }
        // Spinning beside more runnable threads than contexts is reserved
        // for the lightly contended: the cheapest mode.
        if load.multiprogrammed {
            return GlkMode::Ticket;
        }
        // Spin-mode selection with hysteresis; a lock leaving mutex mode
        // has no spin mode to stay in, so the band resolves to ticket.
        if smoothed > TICKET_TO_MCS_QUEUE {
            GlkMode::Mcs
        } else if smoothed < MCS_TO_TICKET_QUEUE || current == GlkMode::Mutex {
            GlkMode::Ticket
        } else {
            current
        }
    }
}

/// Model-checker hooks for the Figure-4 protocol: a seeded bug and a
/// coverage count. Compiled only under `--cfg gls_model`.
#[cfg(gls_model)]
pub(crate) mod model {
    use std::cell::Cell;

    use super::GlkMode;

    /// A tick's decision: from, to, smoothed queue, multiprogrammed.
    pub(super) type Transition = (GlkMode, GlkMode, f64, bool);

    // Per thread: a vthread is an OS thread, and an exploration's threads
    // must not see another test's settings or counts.
    thread_local! {
        /// Whether this thread's ticks publish after the release.
        static LATE: Cell<bool> = const { Cell::new(false) };
        /// The transition this thread's last tick decided, and whether it
        /// was held back, until the stale-mode release that follows it.
        static TICK: Cell<Option<(Transition, bool)>> = const { Cell::new(None) };
        static STALE_RETRIES: Cell<u64> = const { Cell::new(0) };
    }

    /// Seeds, on the calling thread, the bug Figure 4's order prevents: a
    /// tick publishes the new mode only *after* releasing the old mode's
    /// lock. A thread queued on that lock then takes it, re-checks, still
    /// finds the old mode and enters beside the adapter, which retries in
    /// the new mode.
    pub fn model_publish_after_release(enabled: bool) {
        LATE.set(enabled);
    }

    /// Acquisitions by the calling thread that found the mode changed under
    /// them and retried (not counting retries after the thread's own tick).
    pub fn model_stale_retries() -> u64 {
        STALE_RETRIES.get()
    }

    /// A tick about to publish `transition`: whether to hold it back.
    pub(super) fn hold_back(transition: Transition) -> bool {
        let late = LATE.get();
        TICK.set(Some((transition, late)));
        late
    }

    /// After a stale-mode release: publishes a held-back tick, or counts a
    /// stale retry if this thread ran no tick.
    pub(super) fn after_stale_release(publish: impl FnOnce(Transition)) {
        match TICK.take() {
            Some((transition, true)) => publish(transition),
            Some(_) => {}
            None => STALE_RETRIES.set(STALE_RETRIES.get() + 1),
        }
    }
}

#[cfg(test)]
impl GlkLock {
    /// A lock whose ticket lock hands out `next` first, as if that many
    /// ticket-mode acquisitions had come and gone.
    fn with_next_ticket(mut self, next: u32) -> Self {
        self.ticket = TicketLock::starting_at(next);
        self
    }

    /// Moves the lock to `to` the way a tick does: a hold in the current
    /// mode publishes the change, then releases the stale mode.
    fn force_mode(&self, to: GlkMode) {
        self.lock();
        let from = self.mode();
        self.publish(from, to, 0.0, false);
        self.unlock_mode(from);
    }
}

#[cfg(test)]
// Raw std sync and wall-clock sleeps are fine in stress tests: they pace
// real threads, not modeled ones (see clippy.toml).
#[allow(clippy::disallowed_types, clippy::disallowed_methods)]
mod tests {
    use super::super::config::INITIAL_CALM_ROUNDS;
    use super::super::test_support::{
        calm_for, check_decision_table, oversubscribe, own_monitor, DecisionRow,
    };
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn fast_config() -> GlkConfig {
        GlkConfig::default()
            .with_adaptation_period(256)
            .with_sampling_period(16)
    }

    /// The policy's verdict for `lock` in mode `current` at smoothed queue
    /// `smoothed`, under its monitor's present load.
    fn decide(lock: &GlkLock, current: GlkMode, smoothed: f64) -> GlkMode {
        let load = lock.adapt.load(current, smoothed);
        GlkLock::decide_mode(current, smoothed, load)
    }

    fn required_calm(lock: &GlkLock) -> &AtomicU64 {
        lock.adapt.required_calm()
    }

    #[test]
    fn decision_table_maps_load_and_queue_to_mode() {
        use GlkMode::{Mcs as M, Mutex as X, Ticket as T};
        #[rustfmt::skip]
        let table: [DecisionRow; 12] = [
            // Multiprogramming blocks contended locks and sends the rest to
            // ticket, whatever the mode and whatever the calm requirement.
            (T, true,  false, [T, T, X, X, X], false),
            (T, true,  true,  [T, T, X, X, X], false),
            (M, true,  false, [T, T, X, X, X], false),
            (M, true,  true,  [T, T, X, X, X], false),
            (X, true,  false, [T, T, X, X, X], false),
            (X, true,  true,  [T, T, X, X, X], false),
            // Calm spin modes: 2.5 sits inside the hysteresis band.
            (T, false, false, [T, T, T, T, M], false),
            (T, false, true,  [T, T, T, T, M], false),
            (M, false, false, [T, T, T, M, M], false),
            (M, false, true,  [T, T, T, M, M], false),
            // Mutex mode holds until the calm requirement is met, then
            // leaves for a spin mode and doubles the requirement.
            (X, false, false, [X, X, X, X, X], false),
            (X, false, true,  [T, T, T, T, M], true),
        ];
        let monitor = own_monitor();
        let lock = GlkLock::with_config_and_monitor(
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
    fn counts_a_try_lock_mix_exactly_in_every_mode() {
        for mode in GlkMode::ALL {
            let lock = GlkLock::with_config(
                GlkConfig::default()
                    .with_initial_mode(mode)
                    .without_adaptation(),
            );
            for i in 0..300 {
                if i % 3 == 0 {
                    assert!(lock.try_lock(), "{mode}");
                    assert!(!lock.try_lock(), "{mode}: a failed try counts nothing");
                } else {
                    lock.lock();
                }
                lock.unlock();
            }
            assert_eq!(lock.acquisitions(), 300, "{mode}");
        }
    }

    #[test]
    fn ticket_mode_acquisitions_write_no_counter() {
        let lock = GlkLock::new();
        for _ in 0..1_000 {
            lock.lock();
            lock.unlock();
        }
        assert_eq!(lock.acquisitions(), 1_000);
        assert_eq!(lock.stats().acquisitions(), 0, "the ticket counted them");
    }

    #[test]
    fn counts_exactly_across_a_ticket_mcs_ticket_round_trip() {
        let lock = GlkLock::with_config(GlkConfig::default().without_adaptation());
        let pairs = |n: u64| {
            for _ in 0..n {
                lock.lock();
                lock.unlock();
            }
        };
        pairs(10);
        lock.force_mode(GlkMode::Mcs);
        assert_eq!(lock.acquisitions(), 11);
        pairs(20);
        assert_eq!(lock.acquisitions(), 31);
        lock.force_mode(GlkMode::Ticket);
        assert_eq!(lock.mode(), GlkMode::Ticket);
        pairs(30);
        // Each forced hold is one acquisition, like a tick's.
        assert_eq!(lock.acquisitions(), 62);
        assert_eq!(lock.stats().acquisitions(), 21, "the MCS holds");
    }

    #[test]
    fn counts_exactly_across_the_ticket_wrap() {
        let lock = GlkLock::new().with_next_ticket(u32::MAX - 2);
        let before = lock.acquisitions();
        assert_eq!(before, u64::from(u32::MAX - 2));
        for _ in 0..5 {
            lock.lock();
            lock.unlock();
        }
        assert!(lock.try_lock());
        lock.unlock();
        assert_eq!(lock.acquisitions(), before + 6);
        assert_eq!(lock.ticket.counters(), (3, 3), "the word wrapped");
        // A reset past the wrap counts from zero again.
        lock.reset_telemetry();
        lock.lock();
        lock.unlock();
        assert_eq!(lock.acquisitions(), 1);
    }

    #[test]
    fn records_the_acquisition_a_transition_happened_at() {
        use gls_runtime::flight::{self, FlightEventKind};

        let lock = GlkLock::with_config(
            fast_config()
                .with_initial_mode(GlkMode::Mcs)
                .with_adaptation_period(100)
                .with_sampling_period(10),
        );
        let addr = &lock as *const GlkLock as usize;
        // The ticker is this thread, so its flight ring holds the event.
        let transitions = || {
            flight::drain()
                .into_iter()
                .filter(|e| e.kind == FlightEventKind::ModeTransition && e.addr == addr)
                .map(|e| super::super::adapt::decode_transition(e.info))
                .collect::<Vec<_>>()
        };
        let pairs = |n: u64| {
            for _ in 0..n {
                lock.lock();
                lock.unlock();
            }
        };
        let _ = flight::drain();
        pairs(99);
        assert!(transitions().is_empty(), "no tick before acquisition 100");
        // Uncontended MCS drops to ticket at the first tick: each of its
        // samples saw the holder alone, so the smoothed queue is exactly 1.
        pairs(51);
        let log = transitions();
        assert_eq!(log, [(GlkMode::Mcs, GlkMode::Ticket, false, 1.0)]);
        assert_eq!(lock.stats().transitions(), 1);
        // The tick's hold retried in ticket mode.
        assert_eq!(lock.acquisitions(), 151);
    }

    #[test]
    fn glk_lock_stays_five_cache_lines() {
        assert_eq!(std::mem::size_of::<GlkLock>(), 320);
    }

    #[test]
    fn the_futex_word_sits_on_the_cold_line() {
        use std::mem::offset_of;
        let line = |offset: usize| offset / 64;
        let mutex = line(offset_of!(GlkLock, mutex));
        assert_ne!(mutex, line(offset_of!(GlkLock, ticket)), "ticket line");
        let mode = offset_of!(GlkLock, adapt) + Adaptive::MODE_OFFSET;
        assert_ne!(mutex, line(mode), "mode line");
        assert_eq!(mutex, line(offset_of!(GlkLock, ticket_base)), "cold line");
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
        assert!(lock.stats().transitions() > 0);
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
        let mut mode = lock.mode();
        while mode != GlkMode::Mutex && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
            mode = lock.mode();
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        // Judge the mode seen under contention: as the workers stop, the
        // queue drains and a lightly contended lock may go back to ticket.
        assert_eq!(mode, GlkMode::Mutex);
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
            required_calm(&lock).load(Ordering::Relaxed),
            INITIAL_CALM_ROUNDS
        );
        // Not calm enough: against a requirement no stretch of calm can
        // meet, the lock stays in mutex mode however slowly this thread runs
        // (an oversubscribed registry would not do here: it sends a lock
        // this lightly contended back to ticket regardless of calm).
        required_calm(&lock).store(u64::MAX, Ordering::Relaxed);
        for _ in 0..1_000 {
            lock.lock();
            lock.unlock();
        }
        assert_eq!(lock.mode(), GlkMode::Mutex);
        // Calm enough: the lock may leave, and the next departure costs double.
        required_calm(&lock).store(INITIAL_CALM_ROUNDS, Ordering::Relaxed);
        calm_for(&monitor, INITIAL_CALM_ROUNDS);
        for _ in 0..1_000 {
            lock.lock();
            lock.unlock();
        }
        assert_eq!(lock.mode(), GlkMode::Ticket);
        assert_eq!(
            required_calm(&lock).load(Ordering::Relaxed),
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
        assert_eq!(lock.stats().transitions(), 0);
    }

    #[test]
    fn parking_backend_switches_to_mutex_and_excludes() {
        let monitor = own_monitor();
        let _guards = oversubscribe(&monitor);

        let lock = Arc::new(GlkLock::with_config_and_monitor(
            fast_config(),
            MonitorHandle::Custom(Arc::clone(&monitor)),
        ));
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
                    let mut held_in_mutex_mode = false;
                    for i in 0..10_000 {
                        lock.lock();
                        held_in_mutex_mode |= lock.mode() == GlkMode::Mutex;
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
                    held_in_mutex_mode
                })
            })
            .collect();
        let mut visited_mutex = false;
        for h in handles {
            visited_mutex |= h.join().unwrap();
        }
        // SAFETY: all worker threads are joined; nothing races this read.
        assert_eq!(unsafe { *shared.0.get() }, 60_000);
        assert!(
            visited_mutex && lock.stats().transitions() > 0,
            "multiprogrammed contended lock should have visited mutex mode \
             (smoothed queue {:.2}, transitions {})",
            lock.smoothed_queue(),
            lock.stats().transitions()
        );
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
