//! Cycle-granularity time measurement and busy waiting.
//!
//! The paper expresses critical-section durations, adaptation periods and
//! latency overheads in CPU cycles. On x86-64 we read the time-stamp counter
//! directly (`rdtsc`); on other targets we fall back to [`std::time::Instant`]
//! scaled by a calibrated cycles-per-nanosecond factor so that the same
//! numeric scale is preserved.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Returns the current value of the cycle counter.
///
/// The value is only meaningful as a difference between two calls on the same
/// thread (or across threads on platforms with synchronized TSCs, which is
/// every x86-64 machine the paper targets).
///
/// # Example
///
/// ```
/// let a = gls_runtime::cycles::now();
/// let b = gls_runtime::cycles::now();
/// assert!(b >= a);
/// ```
#[inline]
pub fn now() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `_rdtsc` has no preconditions; it merely reads the TSC.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        fallback_now()
    }
}

/// Monotonic epoch used by the non-TSC fallback.
#[allow(dead_code)]
fn fallback_now() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    let nanos = epoch.elapsed().as_nanos() as u64;
    // Scale nanoseconds by the calibrated frequency so that "cycles" keep the
    // same order of magnitude as on x86-64.
    let cpns = cycles_per_nanosecond();
    (nanos as f64 * cpns) as u64
}

/// Returns the calibrated number of TSC cycles per nanosecond.
///
/// The calibration runs once per process: it measures how many cycles elapse
/// over a short wall-clock window. The result is cached.
pub fn cycles_per_nanosecond() -> f64 {
    static CPNS: OnceLock<f64> = OnceLock::new();
    *CPNS.get_or_init(calibrate)
}

fn calibrate() -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        let wall_start = Instant::now();
        let c_start = now();
        // Busy wait ~2ms of wall time; long enough to average out noise,
        // short enough not to be noticeable at process start.
        while wall_start.elapsed() < Duration::from_millis(2) {
            std::hint::spin_loop();
        }
        let c_end = now();
        let nanos = wall_start.elapsed().as_nanos() as f64;
        let cycles = (c_end - c_start) as f64;
        let cpns = cycles / nanos;
        if cpns.is_finite() && cpns > 0.01 {
            cpns
        } else {
            1.0
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // Treat one "cycle" as one nanosecond on platforms without a TSC.
        1.0
    }
}

/// Converts a cycle count to an (approximate) duration.
pub fn cycles_to_duration(cycles: u64) -> Duration {
    let nanos = cycles as f64 / cycles_per_nanosecond();
    Duration::from_nanos(nanos as u64)
}

/// Busy-waits for approximately `cycles` CPU cycles.
///
/// This is the paper's "critical section of N cycles" primitive: the calling
/// thread stays on its hardware context and spins, pausing the pipeline with
/// [`std::hint::spin_loop`] between polls of the cycle counter.
///
/// A `cycles` value of zero returns immediately (the paper's "empty critical
/// section").
#[inline]
pub fn spin_for(cycles: u64) {
    if cycles == 0 {
        return;
    }
    let start = now();
    // For very short waits, polling the TSC in a tight loop is accurate
    // enough; no need for fancier pacing.
    while now().wrapping_sub(start) < cycles {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_monotonic_enough() {
        let a = now();
        let b = now();
        let c = now();
        assert!(b >= a);
        assert!(c >= b);
    }

    #[test]
    fn spin_for_zero_is_noop() {
        let start = now();
        spin_for(0);
        let cycles = now().wrapping_sub(start);
        // An empty spin should be far below a millisecond worth of cycles.
        let millisecond = 1e6 * cycles_per_nanosecond();
        assert!((cycles as f64) < millisecond.max(1e6));
    }

    #[test]
    fn spin_for_waits_at_least_requested() {
        let want = 10_000;
        let start = now();
        spin_for(want);
        let took = now().wrapping_sub(start);
        assert!(
            took >= want,
            "spun for {took} cycles, wanted at least {want}"
        );
    }

    #[test]
    fn calibration_is_positive_and_cached() {
        let a = cycles_per_nanosecond();
        let b = cycles_per_nanosecond();
        assert!(a > 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn duration_cycle_roundtrip_is_close() {
        let cycles = (500_000.0 * cycles_per_nanosecond()) as u64;
        let back = cycles_to_duration(cycles);
        let diff = back.as_nanos().abs_diff(500_000);
        assert!(diff < 50_000, "500 µs came back as {back:?}");
    }
}
