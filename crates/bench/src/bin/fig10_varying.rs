//! Figure 10: one lock under contention levels that vary over time.
//!
//! The run is broken into the 14 phases annotated on the paper's figure
//! (threads 2–24, critical sections 310–1004 cycles), with 30 background
//! spinner threads occupying the processor throughout. An adaptive lock must
//! keep re-deciding its mode; the paper measures GLK ~15% above the best
//! static lock (MCS) on average.

use std::sync::Arc;

use gls_bench::{banner, point_duration, setup_for};
use gls_locks::LockKind;
use gls_runtime::SystemLoadMonitor;
use gls_workloads::make_locks;
use gls_workloads::phases::{paper_figure10_phases, run_phases};
use gls_workloads::report::SeriesTable;

fn main() {
    banner(
        "Figure 10",
        "one lock under a 14-phase varying workload with 30 background threads",
    );
    let kinds = [
        LockKind::Ticket,
        LockKind::Mcs,
        LockKind::Mutex,
        LockKind::Glk,
    ];
    // Each phase lasts one point-duration (the paper uses 0.5-1 s phases).
    let phases = paper_figure10_phases(point_duration());
    let background = 30;

    let mut table = SeriesTable::new(
        "Figure 10: per-phase throughput (Mops/s)",
        "phase(threads,cs)",
        kinds.iter().map(|k| k.name().to_string()).collect(),
    );
    let mut averages = vec![0.0f64; kinds.len()];
    let mut per_kind_results = Vec::new();
    for kind in kinds {
        let monitor = Arc::new(SystemLoadMonitor::new());
        let locks = make_locks(&setup_for(kind, &monitor), 1);
        let results = run_phases(&locks, &phases, background, Some(monitor));
        per_kind_results.push(results);
    }
    for (phase_idx, phase) in phases.iter().enumerate() {
        let mut row = Vec::new();
        for (kind_idx, results) in per_kind_results.iter().enumerate() {
            let mops = results[phase_idx].mops;
            averages[kind_idx] += mops / phases.len() as f64;
            row.push(mops);
        }
        table.push_row(
            format!("{}({},{})", phase_idx, phase.threads, phase.cs_cycles),
            row,
        );
    }
    table.push_row("Average", averages);
    table.print();
    println!("# paper shape: GLK's average beats every static lock (about +15% over MCS)");
}
