//! GLK configuration parameters and their paper defaults.

use std::sync::Arc;

use gls_runtime::SystemLoadMonitor;

use super::mode::GlkMode;

/// Switch ticket → mcs when the smoothed queue exceeds this value.
pub const TICKET_TO_MCS_QUEUE: f64 = 3.0;
/// Switch mcs → ticket when it drops below this value (the gap is the hysteresis band).
pub const MCS_TO_TICKET_QUEUE: f64 = 2.0;
/// Smoothing factor of the moving average over per-window average queue lengths.
pub const EMA_ALPHA: f64 = 0.5;
/// Locks whose smoothed queue is below this value stay in (or return to)
/// ticket mode even under multiprogramming: "locks that face close-to-zero
/// contention do not cause a problem on multiprogramming".
pub const MIN_QUEUE_FOR_MUTEX: f64 = 1.5;
/// [`SystemLoadMonitor::calm_ticks`] (100 µs each) a lock needs before it first
/// leaves mutex mode; doubled after every departure to damp oscillation.
pub const INITIAL_CALM_ROUNDS: u64 = 2;
/// Upper bound for the exponentially growing calm requirement.
pub const MAX_CALM_ROUNDS: u64 = 1 << 20;

/// Configuration of a GLK lock: the parameters some experiment varies.
///
/// Defaults are the values of the paper's sensitivity analysis (§3.1):
/// adaptation every **4096** critical sections, queue sampling every **128**
/// (32 samples per adaptation). The rest of §3.1 (queue thresholds, EMA
/// factor, calm hold-off) no bench, figure, example or system model ever set
/// differently, so those are the constants above, read directly by the locks,
/// not fields to be covered. The paper's ~100 µs load-polling thread has no
/// counterpart: the lock reads its [`MonitorHandle`]'s runnable registry at
/// the adaptation tick ([`gls_runtime::sysload`] says why).
///
/// # Example
///
/// ```
/// use gls::glk::GlkConfig;
///
/// let config = GlkConfig::default()
///     .with_adaptation_period(1024)
///     .with_sampling_period(64);
/// assert_eq!(config.adaptation_period, 1024);
/// ```
#[derive(Debug, Clone)]
pub struct GlkConfig {
    /// Attempt adaptation every this many completed critical sections.
    pub adaptation_period: u64,
    /// Sample the queue length every this many completed critical sections.
    pub sampling_period: u64,
    /// The mode a fresh lock starts in.
    pub initial_mode: GlkMode,
}

impl Default for GlkConfig {
    fn default() -> Self {
        Self {
            adaptation_period: 4096,
            sampling_period: 128,
            initial_mode: GlkMode::Ticket,
        }
    }
}

impl GlkConfig {
    /// Sets the adaptation period (in completed critical sections).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn with_adaptation_period(mut self, period: u64) -> Self {
        assert!(period > 0, "adaptation period must be positive");
        self.adaptation_period = period;
        self
    }

    /// Sets the queue sampling period (in completed critical sections).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn with_sampling_period(mut self, period: u64) -> Self {
        assert!(period > 0, "sampling period must be positive");
        self.sampling_period = period;
        self
    }

    /// Sets the initial mode of the lock.
    pub fn with_initial_mode(mut self, mode: GlkMode) -> Self {
        self.initial_mode = mode;
        self
    }

    /// Disables adaptation entirely: the lock stays in its initial mode.
    /// (Used by the paper's overhead experiments, Figure 7.)
    pub fn without_adaptation(mut self) -> Self {
        self.adaptation_period = u64::MAX;
        self.sampling_period = u64::MAX;
        self
    }

    /// Whether adaptation is effectively disabled.
    pub fn adaptation_disabled(&self) -> bool {
        self.adaptation_period == u64::MAX
    }
}

/// Which system-load monitor a GLK lock consults for multiprogramming.
#[derive(Debug, Clone, Default)]
pub enum MonitorHandle {
    /// The process-wide monitor ([`SystemLoadMonitor::global`]): like the
    /// paper's, one detector shared by all GLK locks.
    #[default]
    Global,
    /// A dedicated registry: tests and the figure harness substitute their
    /// own so unrelated threads of the process cannot move their signal.
    Custom(Arc<SystemLoadMonitor>),
}

impl MonitorHandle {
    /// Resolves the handle to a monitor reference.
    pub fn monitor(&self) -> &SystemLoadMonitor {
        match self {
            MonitorHandle::Global => SystemLoadMonitor::global(),
            MonitorHandle::Custom(m) => m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = GlkConfig::default();
        assert_eq!(c.adaptation_period, 4096);
        assert_eq!(c.sampling_period, 128);
        assert_eq!(c.initial_mode, GlkMode::Ticket);
        assert_eq!(c.adaptation_period / c.sampling_period, 32);
        // The §3.1 values that are constants rather than fields.
        assert_eq!(TICKET_TO_MCS_QUEUE, 3.0);
        assert_eq!(MCS_TO_TICKET_QUEUE, 2.0);
        assert_eq!(EMA_ALPHA, 0.5);
        assert_eq!(MIN_QUEUE_FOR_MUTEX, 1.5);
        assert_eq!(INITIAL_CALM_ROUNDS, 2);
        assert_eq!(MAX_CALM_ROUNDS, 1 << 20);
    }

    #[test]
    fn builder_methods_apply() {
        let c = GlkConfig::default()
            .with_adaptation_period(512)
            .with_sampling_period(16)
            .with_initial_mode(GlkMode::Mcs);
        assert_eq!(c.adaptation_period, 512);
        assert_eq!(c.sampling_period, 16);
        assert_eq!(c.initial_mode, GlkMode::Mcs);
    }

    #[test]
    #[should_panic(expected = "adaptation period")]
    fn zero_adaptation_period_rejected() {
        let _ = GlkConfig::default().with_adaptation_period(0);
    }

    #[test]
    fn without_adaptation_disables() {
        let c = GlkConfig::default().without_adaptation();
        assert!(c.adaptation_disabled());
    }

    #[test]
    fn monitor_handle_resolves() {
        let global = MonitorHandle::Global;
        let _ = global.monitor();
        let custom = MonitorHandle::Custom(Arc::new(SystemLoadMonitor::new()));
        assert_eq!(custom.monitor().registered_runnable(), 0);
    }
}
