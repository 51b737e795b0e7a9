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
//! ```
//! use gls::glk::{GlkConfig, GlkLock, GlkMode};
//!
//! let lock = GlkLock::with_config(GlkConfig::default().with_transition_recording(true));
//! lock.lock();
//! // single-threaded: GLK stays in its fast ticket mode
//! assert_eq!(lock.mode(), GlkMode::Ticket);
//! lock.unlock();
//! ```

mod config;
mod lock;
mod mode;
mod rw;

pub use config::{
    BlockingBackend, BlockingDensity, DensityHandle, GlkConfig, MonitorHandle, COHORT_HANDOFF,
    DEFAULT_BLOCKING_DENSITY_THRESHOLD, EMA_ALPHA, INITIAL_CALM_ROUNDS, MAX_CALM_ROUNDS,
    MCS_TO_TICKET_QUEUE, MIN_QUEUE_FOR_MUTEX, TICKET_TO_MCS_QUEUE,
};
pub use lock::{auto_migration_stats, AutoBlockingMutex, AutoMigrationStats, GlkLock};
pub use mode::{GlkMode, ModeTransition};
pub use rw::{GlkRwLock, GlkRwMode};

/// What the GLK and GLK-RW unit tests share.
#[cfg(test)]
mod test_support {
    use gls_runtime::sysload::{RunnableGuard, SystemLoadMonitor};
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
}
