//! Figure 8: a single lock under varying contention.
//!
//! One lock, 1024-cycle critical sections, rising thread count, comparing
//! TICKET, MCS, MUTEX and GLK. Expected shape: GLK tracks TICKET up to ~3
//! threads, tracks MCS in the contended middle, and avoids the spinlock
//! collapse once threads exceed hardware contexts (mutex mode).

use std::sync::Arc;

use gls_bench::{banner, point_duration, repetitions, setup_for, thread_sweep};
use gls_locks::LockKind;
use gls_runtime::SystemLoadMonitor;
use gls_workloads::report::SeriesTable;
use gls_workloads::{make_locks, microbench, MicrobenchConfig};

fn main() {
    banner(
        "Figure 8",
        "a single lock on varying contention (CS = 1024 cycles)",
    );
    let kinds = [
        LockKind::Ticket,
        LockKind::Mcs,
        LockKind::Mutex,
        LockKind::Glk,
    ];
    let monitor = Arc::new(SystemLoadMonitor::new());

    let mut table = SeriesTable::new(
        "Figure 8: single-lock throughput (Mops/s)",
        "threads",
        kinds.iter().map(|k| k.name().to_string()).collect(),
    );
    for threads in thread_sweep() {
        let mut row = Vec::new();
        for kind in kinds {
            let locks = make_locks(&setup_for(kind, &monitor), 1);
            let result = microbench::run_median(
                &locks,
                &MicrobenchConfig {
                    threads,
                    cs_cycles: 1024,
                    delay_cycles: 128,
                    duration: point_duration(),
                    monitor: Some(Arc::clone(&monitor)),
                    ..Default::default()
                },
                repetitions(),
            );
            row.push(result.mops());
        }
        table.push_row(threads.to_string(), row);
    }
    table.print();
    println!("# paper shape: GLK follows TICKET at <=3 threads, MCS in the middle, MUTEX beyond the core count");
}
