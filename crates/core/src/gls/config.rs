//! GLS service configuration.

use crate::glk::{GlkConfig, MonitorHandle};

/// Operating mode of a [`GlsService`](crate::GlsService).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GlsMode {
    /// Plain locking service: no ownership tracking, no profiling.
    #[default]
    Normal,
    /// Debug mode: ownership tracking, misuse detection and lock-order
    /// checking, which reports an acquisition that could deadlock before it
    /// blocks (§4.2). Adds overhead.
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
    /// Configuration handed to every GLK lock created by this service.
    pub glk: GlkConfig,
    /// Initial capacity (number of lock objects) of the address → lock table.
    pub initial_capacity: usize,
    /// Whether the per-thread direct-mapped lock cache accelerates the
    /// address → entry mapping (on by default). Turning it off sends every
    /// operation through the CLHT — useful for measuring what the cache
    /// buys (the benchmark's `cache.saving_ns.*` rungs), not for production.
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
            glk: GlkConfig::default(),
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

    /// Sets the GLK configuration used for adaptive entries.
    pub fn with_glk(mut self, glk: GlkConfig) -> Self {
        self.glk = glk;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_use_glk_and_normal_mode() {
        let c = GlsConfig::default();
        assert_eq!(c.mode, GlsMode::Normal);
        assert!(c.lock_cache, "the lock cache is on by default");
    }

    #[test]
    fn lock_cache_can_be_disabled() {
        let c = GlsConfig::default().with_lock_cache(false);
        assert!(!c.lock_cache);
    }

    #[test]
    fn mode_shorthands() {
        assert_eq!(GlsConfig::debug().mode, GlsMode::Debug);
        assert_eq!(GlsConfig::profile().mode, GlsMode::Profile);
    }

    #[test]
    fn builders_apply() {
        let c = GlsConfig::default()
            .with_lock_cache(false)
            .with_sampling(100)
            .with_glk(GlkConfig::default().with_sampling_period(8));
        assert!(!c.lock_cache);
        assert_eq!(c.sampling_budget, Some(100));
        assert_eq!(c.glk.sampling_period, 8);
    }
}
