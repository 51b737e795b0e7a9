//! Figure 7: overhead of GLK versus the best per-configuration lock.
//!
//! Three configurations, each favouring a different algorithm: a single
//! uncontested thread (TICKET territory), 10 threads on one lock (MCS
//! territory), and 10 threads plus enough background spinners to oversubscribe
//! the machine (MUTEX territory). For each configuration the table reports
//! the throughput of every lock normalized to the best one; the paper
//! measures GLK at 0.78 / 0.93 / 0.99 of the best lock respectively.

use std::sync::Arc;

use gls_bench::{banner, point_duration, repetitions, setup_for};
use gls_locks::LockKind;
use gls_runtime::SystemLoadMonitor;
use gls_workloads::report::SeriesTable;
use gls_workloads::{make_locks, microbench, MicrobenchConfig};

fn main() {
    banner(
        "Figure 7",
        "relative throughput of GLK vs the best per-configuration lock",
    );
    let hw = gls_runtime::hardware_contexts();
    let contended_threads = 10.min(hw.max(2));
    let configs: Vec<(&str, usize, usize)> = vec![
        ("1 thread", 1, 0),
        ("10 threads", contended_threads, 0),
        ("multiprog.", contended_threads, hw * 2),
    ];
    let kinds = [
        LockKind::Ticket,
        LockKind::Mcs,
        LockKind::Mutex,
        LockKind::Glk,
    ];

    let mut table = SeriesTable::new(
        "Figure 7: throughput normalized to the best lock per configuration",
        "configuration",
        kinds.iter().map(|k| k.name().to_string()).collect(),
    );
    for (label, threads, spinners) in configs {
        let monitor = Arc::new(SystemLoadMonitor::new());
        let mut absolute = Vec::new();
        for kind in kinds {
            let locks = make_locks(&setup_for(kind, &monitor), 1);
            let result = microbench::run_median(
                &locks,
                &MicrobenchConfig {
                    threads,
                    cs_cycles: 0,
                    delay_cycles: 64,
                    duration: point_duration(),
                    background_spinners: spinners,
                    monitor: Some(Arc::clone(&monitor)),
                    ..Default::default()
                },
                repetitions(),
            );
            absolute.push(result.mops());
        }
        let best = absolute.iter().cloned().fold(f64::MIN, f64::max);
        table.push_row(
            label,
            absolute.iter().map(|m| m / best).collect::<Vec<f64>>(),
        );
    }
    table.print();
    println!("# paper shape: GLK reaches ~0.78 / 0.93 / 0.99 of the best lock per configuration");
}
