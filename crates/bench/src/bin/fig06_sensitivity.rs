//! Figure 6: sensitivity of GLK to the adaptation and sampling periods.
//!
//! Relative throughput of GLK versus GLK-with-adaptation-disabled, for 2
//! threads (the non-adaptive baseline fixed to ticket mode) and 8 threads
//! (fixed to mcs mode), as the adaptation period (left) and the queue
//! sampling period (right) vary in powers of two. Short periods hurt; the
//! curves flatten as the period grows, which is why the paper settles on
//! 4096/128.

use std::sync::Arc;

use gls::glk::{GlkConfig, GlkMode, MonitorHandle};
use gls_bench::{banner, point_duration, repetitions};
use gls_runtime::SystemLoadMonitor;
use gls_workloads::report::SeriesTable;
use gls_workloads::{make_locks, microbench, LockSetup, MicrobenchConfig};

fn measure(config: GlkConfig, threads: usize) -> f64 {
    let monitor = MonitorHandle::Custom(Arc::new(SystemLoadMonitor::new()));
    let locks = make_locks(&LockSetup::Glk(config, monitor), 1);
    microbench::run_median(
        &locks,
        &MicrobenchConfig {
            threads,
            cs_cycles: 0,
            delay_cycles: 64,
            duration: point_duration(),
            ..Default::default()
        },
        repetitions(),
    )
    .mops()
}

fn main() {
    banner(
        "Figure 6",
        "relative throughput of GLK vs adaptation-disabled GLK, varying the adaptation and sampling periods",
    );
    let periods: Vec<u64> = (0..=12).map(|e| 1u64 << e).collect();
    let scenarios = [(2usize, GlkMode::Ticket), (8usize, GlkMode::Mcs)];

    // Baselines: adaptation disabled, fixed to the mode that matches the
    // scenario (as in the paper).
    let baselines: Vec<f64> = scenarios
        .iter()
        .map(|&(threads, mode)| {
            measure(
                GlkConfig::default()
                    .with_initial_mode(mode)
                    .without_adaptation(),
                threads,
            )
        })
        .collect();

    let mut adaptation = SeriesTable::new(
        "Figure 6 (left): relative throughput vs adaptation period (# CS)",
        "adaptation_period",
        vec!["2 threads (ticket)".into(), "8 threads (mcs)".into()],
    );
    for &period in &periods {
        let mut row = Vec::new();
        for (i, &(threads, mode)) in scenarios.iter().enumerate() {
            let mops = measure(
                GlkConfig::default()
                    .with_initial_mode(mode)
                    .with_adaptation_period(period)
                    .with_sampling_period(period.clamp(1, 128)),
                threads,
            );
            row.push(mops / baselines[i]);
        }
        adaptation.push_row(period.to_string(), row);
    }
    adaptation.print();

    let mut sampling = SeriesTable::new(
        "Figure 6 (right): relative throughput vs queue sampling period (# CS)",
        "sampling_period",
        vec!["2 threads (ticket)".into(), "8 threads (mcs)".into()],
    );
    for &period in &periods {
        let mut row = Vec::new();
        for (i, &(threads, mode)) in scenarios.iter().enumerate() {
            let mops = measure(
                GlkConfig::default()
                    .with_initial_mode(mode)
                    .with_adaptation_period(4096)
                    .with_sampling_period(period),
                threads,
            );
            row.push(mops / baselines[i]);
        }
        sampling.push_row(period.to_string(), row);
    }
    sampling.print();
    println!("# paper shape: short periods cost up to ~50%; curves flatten beyond ~2^8");
}
