//! Every metric the benchmark emits, by name. `BENCHMARK.json` lists the
//! same names, units, directions and bounds; a test keeps the two in step.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    e2e(name, unit, better, 0.0)
}

/// What a user of the system sees; printed by `--trace 0` and held to its
/// bound by the driver. The bounds are what this 2-context VM can resolve:
/// its own compute speed wanders by 10 % and more between multi-second
/// periods (see README, *Measured spreads*).
pub const END_TO_END: &[Metric] = &[
    e2e("ops_per_s", "ops/s", "higher", 0.25),
    e2e("op_p50_ns", "ns", "lower", 0.25),
    e2e("rss_mb", "MB", "lower", 0.15),
    e2e("setup_s", "s", "lower", 0.25),
];

/// The tail of the end-to-end latency samples. Printed with every end-to-end
/// table, but not held to a bound: from run to run it moves by 10–60 % on
/// the sizing box, more than any bound the driver accepts. The traced run
/// reports it as `systems.op_ns_p99`.
pub const OP_P99_NS: Metric = layer("op_p99_ns", "ns", "lower");

/// Single layers, measured from outside; printed by `--trace 1`. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[Metric] = &[
    layer("systems.get_ns_p50", "ns", "lower"),
    layer("systems.set_ns_p50", "ns", "lower"),
    layer("systems.put_ns_p50", "ns", "lower"),
    layer("systems.maintain_ns_p50", "ns", "lower"),
    layer("systems.op_ns_p99", "ns", "lower"),
    layer("systems.op_ns_p999", "ns", "lower"),
    layer("systems.acquisitions_per_op", "count", "lower"),
    layer("systems.worker_min_share", "ratio", "higher"),
    layer("service.pair_ns", "ns", "lower"),
    layer("service.guard_pair_ns", "ns", "lower"),
    layer("service.uncached_pair_ns", "ns", "lower"),
    layer("service.self_ns", "ns", "lower"),
    layer("service.errors", "count", "lower"),
    layer("cache.hit_ratio", "ratio", "higher"),
    layer("cache.misses_per_op", "count", "lower"),
    layer("cache.invalidations", "count", "lower"),
    layer("cache.saving_ns.ws8", "ns", "higher"),
    layer("cache.saving_ns.ws128", "ns", "higher"),
    layer("clht.get_ns", "ns", "lower"),
    layer("clht.put_remove_ns", "ns", "lower"),
    layer("clht.expansions", "count", "lower"),
    layer("entry.create_ns_p50", "ns", "lower"),
    layer("entry.free_ns_p50", "ns", "lower"),
    layer("entry.recreate_ns_p50", "ns", "lower"),
    layer("entry.retired_count", "count", "lower"),
    layer("entry.live_count", "count", "lower"),
    layer("entry.bytes_per_freed_lock", "B", "lower"),
    layer("glk.pair_ns", "ns", "lower"),
    layer("glk.self_ns", "ns", "lower"),
    layer("glk.handoff_ns", "ns", "lower"),
    layer("glk.transitions", "count", "lower"),
    layer("glk.hot_lock_wait_ns_p99", "ns", "lower"),
    layer("glk.hot_lock_hold_ns_p50", "ns", "lower"),
    layer("glk.hot_lock_avg_queue", "count", "lower"),
    layer("glk_rw.read_pair_ns", "ns", "lower"),
    layer("glk_rw.write_pair_ns", "ns", "lower"),
    layer("glk_rw.writer_wait_ns_p99", "ns", "lower"),
    layer("locks.ticket_pair_ns", "ns", "lower"),
    layer("locks.mcs_pair_ns", "ns", "lower"),
    layer("locks.futex_pair_ns", "ns", "lower"),
    layer("locks.std_mutex_pair_ns", "ns", "lower"),
    layer("locks.ticket_handoff_ns", "ns", "lower"),
    layer("locks.mcs_handoff_ns", "ns", "lower"),
    layer("locks.futex_handoff_ns", "ns", "lower"),
    layer("condvar.roundtrip_us_p50", "us", "lower"),
    layer("condvar.waits_per_item", "count", "lower"),
    layer("condvar.timeouts", "count", "lower"),
    layer("park.requeued_waiters", "count", "higher"),
    layer("park.growth_events", "count", "lower"),
    layer("profiler.sampled_pair_ns", "ns", "lower"),
    layer("profiler.full_pair_ns", "ns", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
];
