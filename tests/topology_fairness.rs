//! Integration tests for the topology API.
//!
//! Two concerns, each testable without a multi-socket machine:
//!
//! * pinning round-trips through the kernel (skipped, not failed, where
//!   affinity is unsupported — non-Linux platforms, restrictive sandboxes);
//! * the GLK crossover that only multi-core measurement exposes: the same
//!   contended workload settles in a *spin* mode when the workers fit the
//!   machine and in *blocking* mutex mode when they exceed it.

// Integration stress tests drive real OS threads on wall-clock time;
// raw std sync and sleeps are the point here (see clippy.toml).
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gls::glk::{GlkConfig, GlkLock, GlkMode, MonitorHandle};
use gls_runtime::topology;
use gls_runtime::SystemLoadMonitor;

#[test]
fn pinning_round_trips_through_the_kernel_or_skips() {
    // Run on a throwaway thread so the test harness thread keeps its
    // affinity no matter what happens here.
    let outcome = std::thread::spawn(|| {
        if !topology::pin_to(0) {
            return None;
        }
        let first = (topology::pinned_context(), topology::current_context());
        let last_ctx = gls_runtime::hardware_contexts() - 1;
        if !topology::pin_to(last_ctx) {
            return None;
        }
        let last = (topology::pinned_context(), topology::current_context());
        Some((first, last_ctx, last))
    })
    .join()
    .expect("pinning probe thread");

    let Some((first, last_ctx, (pinned, current))) = outcome else {
        eprintln!("skipping: thread pinning is not available on this host");
        assert!(
            !topology::pinning_supported() || !gls_bench::pinning_effective(),
            "pin_to failed although this platform supports pinning and the probe succeeded"
        );
        return;
    };
    // Pinned to context 0: intent recorded, and the kernel (where getcpu is
    // available) must actually run the thread there.
    assert_eq!(first.0, Some(0));
    if let Some(ctx) = first.1 {
        assert_eq!(ctx, 0, "pinned to 0 but running on {ctx}");
    }
    // Re-pinned to the last context: everything moves consistently.
    assert_eq!(pinned, Some(last_ctx));
    if let Some(ctx) = current {
        assert_eq!(ctx, last_ctx, "pinned to {last_ctx} but running on {ctx}");
    }
}

/// Drives `workers` threads over one GLK lock until its mode settles;
/// returns the settled mode. `extra_load` registers
/// that many additional runnable guards, emulating the oversubscription a
/// smaller machine would see from the same worker count.
fn settle_glk_mode(workers: usize, extra_load: usize, pin: bool) -> GlkMode {
    let monitor = Arc::new(SystemLoadMonitor::new());
    let lock = Arc::new(GlkLock::with_config_and_monitor(
        GlkConfig::default()
            .with_adaptation_period(256)
            .with_sampling_period(16),
        MonitorHandle::Custom(Arc::clone(&monitor)),
    ));
    let extra: Vec<_> = (0..extra_load).map(|_| monitor.runnable_guard()).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..workers)
        .map(|t| {
            let lock = Arc::clone(&lock);
            let monitor = Arc::clone(&monitor);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                if pin {
                    topology::pin_worker(t);
                }
                let _runnable = monitor.runnable_guard();
                while !stop.load(Ordering::Relaxed) {
                    lock.lock();
                    gls_runtime::spin_cycles(200);
                    lock.unlock();
                }
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    let target_reached = |mode: GlkMode| {
        // The oversubscribed arm settles Mutex; the fitting arm never may.
        if extra_load > 0 {
            mode == GlkMode::Mutex
        } else {
            // Give the fitting arm a full adaptation cycle, then sample.
            lock.acquisitions() > 2_048
        }
    };
    while !target_reached(lock.mode()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let settled = lock.mode();
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    drop(extra);
    settled
}

#[test]
fn glk_crossover_spin_on_multicore_blocking_when_oversubscribed() {
    let hw = gls_runtime::hardware_contexts();
    // Oversubscribed arm (runs on any host): the same workload with more
    // runnable tasks than contexts must settle in blocking mutex mode.
    let blocked = settle_glk_mode(2, hw * 2 + 1, false);
    assert_eq!(
        blocked,
        GlkMode::Mutex,
        "oversubscribed contended GLK must settle blocking"
    );
    // Multi-core arm: two pinned workers that *fit* the machine must keep
    // spinning (ticket or mcs) — the crossover a single-context box cannot
    // measure, because there two runnable workers already oversubscribe it.
    if hw < 2 {
        eprintln!("skipping multi-core arm: requires >= 2 hardware contexts (found {hw})");
        return;
    }
    let spun = settle_glk_mode(2, 0, true);
    assert_ne!(
        spun,
        GlkMode::Mutex,
        "two workers on >=2 contexts are not multiprogrammed and must keep spinning"
    );
}
