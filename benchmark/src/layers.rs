//! Per-layer counters read from two `GlsService::telemetry_snapshot()`s taken
//! around the measured part of a traced repetition.

use std::collections::HashMap;

use gls::TelemetrySnapshot;
use gls_runtime::cycles::cycles_per_nanosecond;

/// Appends what the snapshots show happened between them. `ops` is the number
/// of application operations in that interval.
pub fn from_snapshots(
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
    ops: u64,
    out: &mut Vec<(&'static str, f64)>,
) {
    let ops = ops.max(1) as f64;

    let hits = after.cache.hits.saturating_sub(before.cache.hits) as f64;
    let misses = after.cache.misses.saturating_sub(before.cache.misses) as f64;
    if hits + misses > 0.0 {
        out.push(("cache.hit_ratio", hits / (hits + misses)));
    }
    out.push(("cache.misses_per_op", misses / ops));
    out.push((
        "cache.invalidations",
        after
            .cache
            .invalidations
            .saturating_sub(before.cache.invalidations) as f64,
    ));

    out.push(("entry.live_count", after.lock_count as f64));
    out.push(("entry.retired_count", after.retired_count as f64));
    out.push((
        "glk.transitions",
        after.glk_transitions.saturating_sub(before.glk_transitions) as f64,
    ));

    let lot = (&before.parking_lot, &after.parking_lot);
    out.push((
        "park.requeued_waiters",
        lot.1
            .requeued_waiters
            .saturating_sub(lot.0.requeued_waiters) as f64,
    ));
    out.push((
        "park.growth_events",
        lot.1.growth_events.saturating_sub(lot.0.growth_events) as f64,
    ));

    // Acquisition counts are exact in profile mode; the distributions come
    // from the sampled acquisitions.
    let earlier: HashMap<usize, u64> = before
        .locks
        .iter()
        .map(|l| (l.addr, l.acquisitions))
        .collect();
    let delta = |l: &gls::LockTelemetry| {
        l.acquisitions
            .saturating_sub(earlier.get(&l.addr).copied().unwrap_or(0))
    };
    let total: u64 = after.locks.iter().map(delta).sum();
    if total > 0 {
        out.push(("systems.acquisitions_per_op", total as f64 / ops));
    }
    if let Some(hot) = after.locks.iter().max_by_key(|l| delta(l)) {
        let ns = |cycles: u64| cycles as f64 / cycles_per_nanosecond();
        out.push(("glk.hot_lock_wait_ns_p99", ns(hot.lock_latency.p99)));
        out.push(("glk.hot_lock_hold_ns_p50", ns(hot.cs_latency.p50)));
        out.push(("glk.hot_lock_avg_queue", hot.avg_queue));
    }
}
