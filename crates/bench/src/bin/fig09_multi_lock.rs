//! Figure 9: eight locks under varying contention (zipfian, α = 0.9).
//!
//! Each iteration picks one of eight locks with a zipfian skew (the two
//! hottest locks serve ~34% and ~18% of requests). GLK's advantage here is
//! per-lock adaptation: it keeps the cold locks in ticket mode while moving
//! only the hot ones to mcs, which the paper measures at ~20% over MCS.

use std::sync::Arc;

use gls_bench::{banner, point_duration, repetitions, setup_for, thread_sweep};
use gls_locks::LockKind;
use gls_runtime::SystemLoadMonitor;
use gls_workloads::report::SeriesTable;
use gls_workloads::{make_locks, microbench, LockSelection, MicrobenchConfig};

fn main() {
    banner(
        "Figure 9",
        "eight locks, zipfian selection (alpha = 0.9), CS = 1024 cycles",
    );
    let kinds = [
        LockKind::Ticket,
        LockKind::Mcs,
        LockKind::Mutex,
        LockKind::Glk,
    ];
    let monitor = Arc::new(SystemLoadMonitor::new());

    let mut table = SeriesTable::new(
        "Figure 9: eight-lock throughput (Mops/s), zipfian alpha 0.9",
        "threads",
        kinds.iter().map(|k| k.name().to_string()).collect(),
    );
    for threads in thread_sweep() {
        let mut row = Vec::new();
        for kind in kinds {
            let locks = make_locks(&setup_for(kind, &monitor), 8);
            let result = microbench::run_median(
                &locks,
                &MicrobenchConfig {
                    threads,
                    cs_cycles: 1024,
                    delay_cycles: 128,
                    duration: point_duration(),
                    selection: LockSelection::Zipfian(0.9),
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
    println!("# paper shape: GLK ~20% above MCS in the contended (non-multiprogrammed) middle");
}
