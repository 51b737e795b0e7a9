//! GLK — the generic lock algorithm (§3 of the paper).
//!
//! GLK adapts, per lock and at runtime, between three modes:
//!
//! * **ticket** for low contention,
//! * **mcs** for high contention, and
//! * **mutex** (blocking) for multiprogrammed systems,
//!
//! driven by two inputs: the amount of queuing observed behind the lock
//! (sampled every [`GlkConfig::sampling_period`] critical sections and
//! smoothed with an exponential moving average) and the process-wide
//! multiprogramming signal of the shared
//! [`SystemLoadMonitor`](gls_runtime::SystemLoadMonitor). The paper polls
//! system-wide load from a background thread; this reproduction counts the
//! threads registered runnable and reads that count at the adaptation tick,
//! because the registry is the only load source any experiment here uses and
//! polling a counter that changes only on register/unregister is redundant.
//!
//! The mutex mode sleeps on one 4-byte word, a
//! [`FutexLock`](gls_locks::FutexLock) whose waiters park in the shared
//! [`ParkingLot`](gls_locks::ParkingLot). The policy state — queue counters, pacing, smoothed
//! queue, the load rule — lives in `adapt`, the lock and its three modes in
//! `lock`. GLK is the one adaptive lock: reader-writer entries are the
//! word-sized [`FutexRwLock`](gls_locks::FutexRwLock), which spins and then
//! parks on its own, as the paper substitutes a plain rwlock for the rwlocks
//! of Kyoto and SQLite (§5.2, footnote 7).
//!
//! In ticket mode the ticket is the acquisition counter: a holder paces
//! sampling and adaptation off the ticket it was served, so between two
//! queue samples a ticket-mode acquisition writes only the ticket lock's
//! own line. A separate counter would be a second line every holder pulls
//! over from the previous holder, and that pull was most of GLK's handoff
//! cost over a bare ticket lock. In MCS and mutex mode the holder counts
//! with a plain load and store.
//!
//! ```
//! use gls::glk::{GlkConfig, GlkLock, GlkMode};
//!
//! let lock = GlkLock::with_config(GlkConfig::default().with_adaptation_period(256));
//! for _ in 0..1_000 {
//!     lock.lock();
//!     lock.unlock();
//! }
//! // single-threaded: GLK stays in its fast ticket mode, and every mode
//! // change it makes is counted here and recorded in the flight ring
//! assert_eq!(lock.mode(), GlkMode::Ticket);
//! assert_eq!(lock.stats().transitions(), 0);
//! ```

mod adapt;
mod config;
mod lock;
mod mode;

pub use config::{
    GlkConfig, MonitorHandle, EMA_ALPHA, INITIAL_CALM_ROUNDS, MAX_CALM_ROUNDS, MCS_TO_TICKET_QUEUE,
    MIN_QUEUE_FOR_MUTEX, TICKET_TO_MCS_QUEUE,
};
#[cfg(gls_model)]
pub use lock::model::{model_publish_after_release, model_stale_retries};
pub use lock::GlkLock;
pub use mode::GlkMode;

/// Load fixtures and the decision-table check of GLK's unit tests.
#[cfg(test)]
mod test_support {
    use super::config::INITIAL_CALM_ROUNDS;
    use super::mode::GlkMode;
    use gls_runtime::sysload::{RunnableGuard, SystemLoadMonitor};
    use gls_sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A registry of the test's own, so other tests' threads cannot move it.
    pub(crate) fn own_monitor() -> Arc<SystemLoadMonitor> {
        Arc::new(SystemLoadMonitor::new())
    }

    /// Registers more runnable threads than the machine has contexts.
    pub(crate) fn oversubscribe(monitor: &SystemLoadMonitor) -> Vec<RunnableGuard<'_>> {
        let guards: Vec<_> = (0..gls_runtime::hardware_contexts() * 2 + 1)
            .map(|_| monitor.runnable_guard())
            .collect();
        assert!(monitor.is_multiprogrammed());
        guards
    }

    /// Ends an oversubscription and waits out `ticks` of calm: sleeping *at
    /// least* that long can only make `calm_ticks() >= ticks` truer.
    // A wall-clock sleep is the point: calm is measured in elapsed time.
    #[allow(clippy::disallowed_methods)]
    pub(crate) fn calm_for(monitor: &SystemLoadMonitor, ticks: u64) {
        drop(oversubscribe(monitor));
        std::thread::sleep(std::time::Duration::from_micros(ticks * 100));
        assert!(monitor.calm_ticks() >= ticks);
    }

    /// The smoothed queue lengths a [`DecisionRow`] has a target for: none,
    /// either side of `MIN_QUEUE_FOR_MUTEX`, inside the ticket/mcs
    /// hysteresis band, above it.
    pub(crate) const SMOOTHED: [f64; 5] = [0.0, 1.4, 1.5, 2.5, 3.5];

    /// (current mode, multiprogrammed, calm requirement met) -> target mode
    /// per [`SMOOTHED`] column, and whether the calm requirement doubles.
    pub(crate) type DecisionRow = (GlkMode, bool, bool, [GlkMode; 5], bool);

    /// Puts `monitor` and `required_calm` into each row's situation and
    /// holds `decide(current, smoothed)` to the row's targets.
    pub(crate) fn check_decision_table(
        monitor: &SystemLoadMonitor,
        required_calm: &AtomicU64,
        table: &[DecisionRow],
        decide: impl Fn(GlkMode, f64) -> GlkMode,
    ) {
        for &(current, multiprogrammed, calm_met, targets, doubles) in table {
            let _guards = if multiprogrammed {
                oversubscribe(monitor)
            } else {
                calm_for(monitor, INITIAL_CALM_ROUNDS);
                Vec::new()
            };
            let required = if calm_met {
                INITIAL_CALM_ROUNDS
            } else {
                u64::MAX
            };
            for (smoothed, target) in SMOOTHED.into_iter().zip(targets) {
                let row =
                    format!("{current:?} @ {smoothed}: mp {multiprogrammed}, calm {calm_met}");
                required_calm.store(required, Ordering::Relaxed);
                assert_eq!(decide(current, smoothed), target, "{row}");
                let next = if doubles { required * 2 } else { required };
                assert_eq!(required_calm.load(Ordering::Relaxed), next, "{row}");
            }
        }
    }
}
