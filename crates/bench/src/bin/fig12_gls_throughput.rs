//! Figure 12: relative throughput of GLS over direct locking, 10 threads.
//!
//! 10 threads pick among 1, 512 or 4096 locks (high, medium, low contention)
//! with 1024-cycle critical sections; each algorithm is measured directly and
//! through GLS, and the table reports the ratio. The paper's shape: under
//! contention (1 lock) the GLS overhead is hidden by waiting; with thousands
//! of uncontended locks it costs a visible fraction of throughput.

use std::sync::Arc;

use gls::GlsConfig;
use gls_bench::{banner, point_duration, repetitions, setup_for};
use gls_locks::LockKind;
use gls_runtime::SystemLoadMonitor;
use gls_workloads::report::SeriesTable;
use gls_workloads::{make_locks, microbench, LockSetup, MicrobenchConfig};

fn main() {
    banner(
        "Figure 12",
        "throughput of GLS relative to direct locking, 10 threads, 1/512/4096 locks",
    );
    let kinds = [
        LockKind::Ticket,
        LockKind::Mcs,
        LockKind::Mutex,
        LockKind::Glk,
    ];
    let lock_counts = [1usize, 512, 4096];
    let threads = 10.min(gls_runtime::hardware_contexts().max(2));
    let monitor = Arc::new(SystemLoadMonitor::new());

    let mut table = SeriesTable::new(
        "Figure 12: GLS throughput / direct throughput",
        "locks",
        kinds.iter().map(|k| k.name().to_string()).collect(),
    );
    for &count in &lock_counts {
        let mut row = Vec::new();
        for kind in kinds {
            let config = MicrobenchConfig {
                threads,
                cs_cycles: 1024,
                delay_cycles: 128,
                duration: point_duration(),
                monitor: Some(Arc::clone(&monitor)),
                ..Default::default()
            };
            let direct = microbench::run_median(
                &make_locks(&setup_for(kind, &monitor), count),
                &config,
                repetitions(),
            )
            .mops();
            let through_gls = microbench::run_median(
                &make_locks(
                    &LockSetup::Gls {
                        config: GlsConfig::default(),
                        kind,
                    },
                    count,
                ),
                &config,
                repetitions(),
            )
            .mops();
            row.push(if direct > 0.0 {
                through_gls / direct
            } else {
                0.0
            });
        }
        table.push_row(count.to_string(), row);
    }
    table.print();
    println!(
        "# paper shape: close to 1.0 under contention; the gap grows as locks become uncontended"
    );
}
