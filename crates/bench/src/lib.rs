//! Shared helpers for the figure-reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the full index) and prints a tab-separated
//! [`SeriesTable`](gls_workloads::report::SeriesTable). Durations are scaled
//! by the `GLS_BENCH_MS` environment variable so the full harness can run
//! quickly in CI (default 300 ms per data point) or with paper-like lengths
//! (e.g. `GLS_BENCH_MS=10000`) on a dedicated machine.

#![warn(missing_docs)]

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use gls::glk::{GlkConfig, MonitorHandle};
use gls_locks::LockKind;
use gls_runtime::SystemLoadMonitor;
use gls_workloads::LockSetup;

/// Environment variable controlling the per-data-point measurement time.
pub const BENCH_MS_ENV: &str = "GLS_BENCH_MS";

/// Per-data-point measurement duration (default 300 ms).
pub fn point_duration() -> Duration {
    let ms = std::env::var(BENCH_MS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(300);
    Duration::from_millis(ms.max(10))
}

/// Number of repetitions per data point (median is reported). The paper uses
/// 11; the default here is 1 so the whole harness completes quickly. Override
/// with `GLS_BENCH_REPS`.
pub fn repetitions() -> usize {
    std::env::var("GLS_BENCH_REPS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(1)
        .max(1)
}

/// Thread counts swept by the "varying contention" figures: 1 up to ~1.25×
/// the machine's hardware contexts (the paper sweeps 1–60 on a 48-context
/// box).
pub fn thread_sweep() -> Vec<usize> {
    gls_runtime::topology::sweep(1.25)
}

/// Pins the calling worker thread round-robin over the hardware contexts
/// (worker `index` goes to context `index % hardware_contexts()`); returns
/// whether the kernel accepted the affinity mask. Every measurement thread
/// in the harness calls this so data points are taken from a *known*
/// placement instead of wherever the scheduler happened to put the workers.
pub fn pin_worker(index: usize) -> bool {
    gls_runtime::topology::pin_worker(index)
}

/// Whether pinning actually works on this host (probed once, on a throwaway
/// thread so the caller's affinity is untouched). False on non-Linux
/// platforms and in sandboxes that deny `sched_setaffinity`.
pub fn pinning_effective() -> bool {
    static PROBE: OnceLock<bool> = OnceLock::new();
    *PROBE.get_or_init(|| {
        std::thread::spawn(|| gls_runtime::pin_to(0))
            .join()
            .unwrap_or(false)
    })
}

/// The pinning policy name recorded in benchmark artifacts.
pub fn pin_policy() -> &'static str {
    if pinning_effective() {
        "round_robin"
    } else {
        "unpinned"
    }
}

/// The topology fields every emitted benchmark point must carry (see the
/// CI schema check): how many hardware contexts the host had at
/// measurement time and how the workers were placed on them. A trajectory
/// point without these is uninterpretable — a single-context smoke run and
/// a 48-context dedicated box would be indistinguishable.
pub fn topology_json_fields() -> String {
    format!(
        "\"hardware_contexts\": {}, \"pin_policy\": \"{}\", \"pinned\": {}",
        gls_runtime::hardware_contexts(),
        pin_policy(),
        pinning_effective(),
    )
}

/// Builds the [`LockSetup`] for one algorithm column of a figure.
///
/// GLK locks must consult the same system-load monitor that the experiment's
/// worker and background-spinner threads register with; every other algorithm
/// is used directly.
pub fn setup_for(kind: LockKind, monitor: &Arc<SystemLoadMonitor>) -> LockSetup {
    if kind == LockKind::Glk {
        LockSetup::Glk(
            GlkConfig::default(),
            MonitorHandle::Custom(Arc::clone(monitor)),
        )
    } else {
        LockSetup::Direct(kind)
    }
}

/// Prints the standard banner identifying the experiment.
pub fn banner(figure: &str, description: &str) {
    println!("# ================================================================");
    println!("# {figure}: {description}");
    println!(
        "# host: {} hardware contexts | workers {} | point duration: {:?} | reps: {}",
        gls_runtime::hardware_contexts(),
        pin_policy(),
        point_duration(),
        repetitions()
    );
    println!("# ================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_duration_has_a_sane_default() {
        let d = point_duration();
        assert!(d >= Duration::from_millis(10));
    }

    #[test]
    fn repetitions_is_at_least_one() {
        assert!(repetitions() >= 1);
    }

    #[test]
    fn thread_sweep_starts_at_one() {
        let sweep = thread_sweep();
        assert_eq!(sweep[0], 1);
        assert!(sweep.len() >= 2);
    }

    #[test]
    fn topology_fields_carry_the_required_keys() {
        let fields = topology_json_fields();
        for key in ["\"hardware_contexts\":", "\"pin_policy\":", "\"pinned\":"] {
            assert!(fields.contains(key), "missing {key} in {fields}");
        }
        // The fragment must be embeddable in a JSON object as-is.
        let object = format!("{{{fields}}}");
        assert!(object.starts_with('{') && object.ends_with('}'));
    }

    #[test]
    fn pin_policy_matches_probe() {
        let effective = pinning_effective();
        assert_eq!(pin_policy() == "round_robin", effective);
        if effective {
            // Pinning works on this host: a worker pin must succeed too.
            assert!(std::thread::spawn(|| pin_worker(0)).join().unwrap());
        }
    }
}
