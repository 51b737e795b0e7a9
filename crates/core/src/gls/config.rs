//! GLS service configuration.

use std::time::Duration;

use gls_locks::LockKind;

use crate::glk::{GlkConfig, MonitorHandle};

/// Operating mode of a [`GlsService`](crate::GlsService).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GlsMode {
    /// Plain locking service: no ownership tracking, no profiling.
    #[default]
    Normal,
    /// Debug mode: ownership tracking, misuse detection and runtime deadlock
    /// detection (§4.2). Adds overhead.
    Debug,
    /// Profiler mode: per-lock queuing, acquisition latency and
    /// critical-section latency statistics (§4.3). Low overhead.
    Profile,
}

/// Configuration of a GLS service instance.
///
/// # Example
///
/// ```
/// use gls::{GlsConfig, GlsMode};
///
/// let config = GlsConfig::default().with_mode(GlsMode::Profile);
/// assert_eq!(config.mode, GlsMode::Profile);
/// ```
#[derive(Debug, Clone)]
pub struct GlsConfig {
    /// Operating mode.
    pub mode: GlsMode,
    /// Algorithm used by the default `lock` interface. The paper's default is
    /// GLK; the explicit interfaces override this per call.
    pub default_kind: LockKind,
    /// Configuration handed to every GLK lock created by this service.
    pub glk: GlkConfig,
    /// Grace period before a suspected deadlock is confirmed (debug mode).
    /// A thread finding a waits-for cycle as it is about to block waits this
    /// long and re-validates every edge: real deadlocks are frozen, phantom
    /// cycles assembled from a racy walk dissolve. Paper: "more than a
    /// second".
    pub deadlock_check_after: Duration,
    /// Initial capacity (number of lock objects) of the address → lock table.
    pub initial_capacity: usize,
    /// Whether the per-thread set-associative lock cache accelerates the
    /// address → entry mapping (on by default). Turning it off sends every
    /// operation through the CLHT — useful for measuring what the cache
    /// buys (see the `fig17_fastpath` benchmark), not for production.
    pub lock_cache: bool,
    /// The system-load monitor used by GLK entries.
    pub monitor: MonitorHandle,
    /// Profile-mode sampling budget in **samples per second per thread**, or
    /// `None` for full measurement (every acquisition timed — the historical
    /// behaviour, ~4.6× normal-mode cost under contention). With a budget,
    /// each thread times only every Nth acquisition, adapting N from its
    /// observed acquisition rate toward the budget; untimed acquisitions
    /// still count (acquisition totals stay exact), so per-lock averages
    /// keep their meaning while the two `rdtsc` reads leave the common
    /// path. See [`GlsConfig::with_sampling`].
    pub sampling_budget: Option<u64>,
}

impl Default for GlsConfig {
    fn default() -> Self {
        Self {
            mode: GlsMode::Normal,
            default_kind: LockKind::Glk,
            glk: GlkConfig::default(),
            deadlock_check_after: Duration::from_secs(1),
            initial_capacity: 192,
            lock_cache: true,
            monitor: MonitorHandle::Global,
            sampling_budget: None,
        }
    }
}

impl GlsConfig {
    /// Sets the operating mode.
    pub fn with_mode(mut self, mode: GlsMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for `with_mode(GlsMode::Debug)`.
    pub fn debug() -> Self {
        Self::default().with_mode(GlsMode::Debug)
    }

    /// Shorthand for `with_mode(GlsMode::Profile)`.
    pub fn profile() -> Self {
        Self::default().with_mode(GlsMode::Profile)
    }

    /// Sets the algorithm used by the default `lock` interface.
    pub fn with_default_kind(mut self, kind: LockKind) -> Self {
        self.default_kind = kind;
        self
    }

    /// Sets the GLK configuration used for adaptive entries.
    pub fn with_glk(mut self, glk: GlkConfig) -> Self {
        self.glk = glk;
        self
    }

    /// Sets the waiting threshold that triggers deadlock detection.
    pub fn with_deadlock_check_after(mut self, after: Duration) -> Self {
        self.deadlock_check_after = after;
        self
    }

    /// Enables or disables the per-thread lock cache (on by default).
    pub fn with_lock_cache(mut self, enabled: bool) -> Self {
        self.lock_cache = enabled;
        self
    }

    /// Sets the system-load monitor used by GLK entries.
    pub fn with_monitor(mut self, monitor: MonitorHandle) -> Self {
        self.monitor = monitor;
        self
    }

    /// Enables the adaptive sampling profiler: in [`GlsMode::Profile`],
    /// each thread times only every Nth acquisition, with N adapted from
    /// the thread's observed acquisition rate so that it lands about
    /// `budget` timed samples per second. Acquisition *counts* stay exact;
    /// only the latency/queue sampling is thinned. This is what makes
    /// profile mode cheap enough to leave on in production (ROADMAP item 5:
    /// profiled ≤ 2× normal, vs ~4.6× with full measurement).
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn with_sampling(mut self, budget: u64) -> Self {
        assert!(budget > 0, "sampling budget must be positive");
        self.sampling_budget = Some(budget);
        self
    }

    /// Whether ownership tracking is enabled.
    pub fn tracks_ownership(&self) -> bool {
        self.mode == GlsMode::Debug
    }

    /// Whether profiling is enabled.
    pub fn profiles(&self) -> bool {
        self.mode == GlsMode::Profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_use_glk_and_normal_mode() {
        let c = GlsConfig::default();
        assert_eq!(c.mode, GlsMode::Normal);
        assert_eq!(c.default_kind, LockKind::Glk);
        assert_eq!(c.deadlock_check_after, Duration::from_secs(1));
        assert!(c.lock_cache, "the lock cache is on by default");
        assert!(!c.tracks_ownership());
        assert!(!c.profiles());
    }

    #[test]
    fn lock_cache_can_be_disabled() {
        let c = GlsConfig::default().with_lock_cache(false);
        assert!(!c.lock_cache);
    }

    #[test]
    fn mode_shorthands() {
        assert!(GlsConfig::debug().tracks_ownership());
        assert!(GlsConfig::profile().profiles());
    }

    #[test]
    fn builders_apply() {
        let c = GlsConfig::default()
            .with_default_kind(LockKind::Ticket)
            .with_deadlock_check_after(Duration::from_millis(100));
        assert_eq!(c.default_kind, LockKind::Ticket);
        assert_eq!(c.deadlock_check_after, Duration::from_millis(100));
    }
}
