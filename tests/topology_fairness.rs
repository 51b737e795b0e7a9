//! Integration tests for the topology API and the cohort handoff policy.
//!
//! Three concerns, each testable without a multi-socket machine:
//!
//! * pinning round-trips through the kernel (skipped, not failed, where
//!   affinity is unsupported — non-Linux platforms, restrictive sandboxes);
//! * the cohort handoff prefers same-domain waiters but admits a remote
//!   queue head within the bypass bound — driven deterministically at the
//!   park-token level through the real parking-lot bucket lock;
//! * the GLK crossover that only multi-core measurement exposes: the same
//!   contended workload settles in a *spin* mode when the workers fit the
//!   machine and in *blocking* mutex mode when they exceed it.

// Integration stress tests drive real OS threads on wall-clock time;
// raw std sync and sleeps are the point here (see clippy.toml).
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gls::glk::{GlkConfig, GlkLock, GlkMode, MonitorHandle};
use gls_locks::cohort::{choose_handoff, encode_token, COHORT_BYPASS_LIMIT};
use gls_locks::futex_mutex::TOKEN_MUTEX_WAITER;
use gls_locks::ParkingLot;
use gls_runtime::topology;
use gls_runtime::SystemLoadMonitor;

/// Polls until `cond` holds or the deadline passes; returns whether it held.
fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while !cond() {
        if Instant::now() >= end {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

#[test]
fn pinning_round_trips_through_the_kernel_or_skips() {
    // Run on a throwaway thread so the test harness thread keeps its
    // affinity no matter what happens here.
    let outcome = std::thread::spawn(|| {
        if !topology::pin_to(0) {
            return None;
        }
        let first = (
            topology::pinned_context(),
            topology::current_context(),
            topology::current_domain(),
        );
        let last_ctx = gls_runtime::hardware_contexts() - 1;
        if !topology::pin_to(last_ctx) {
            return None;
        }
        Some((
            first,
            last_ctx,
            topology::pinned_context(),
            topology::current_context(),
            topology::current_domain(),
        ))
    })
    .join()
    .expect("pinning probe thread");

    let Some((first, last_ctx, pinned, current, domain)) = outcome else {
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
    assert_eq!(first.2, topology::domain_of(0));
    // Re-pinned to the last context: everything moves consistently.
    assert_eq!(pinned, Some(last_ctx));
    if let Some(ctx) = current {
        assert_eq!(ctx, last_ctx, "pinned to {last_ctx} but running on {ctx}");
    }
    assert_eq!(domain, topology::domain_of(last_ctx));
}

#[test]
fn cohort_handoff_prefers_local_but_admits_remote_within_bound() {
    // Deterministic, token-level: waiters park with hand-crafted
    // domain-stamped tokens on a private lot, and the test drives the exact
    // policy (`choose_handoff`) the futex lock runs under the bucket lock.
    // One *remote* waiter parks first (queue head, domain 0), five *local*
    // waiters (domain 1, the releaser's) behind it. Local waiters are
    // preferred — but the head must be admitted after at most
    // `COHORT_BYPASS_LIMIT` consecutive bypasses, long before the queue
    // drains.
    const ADDR: usize = 0xC0_0FFE;
    const HANDOFF_TOKEN: usize = 7;
    let lot = Arc::new(ParkingLot::with_buckets(8));
    let order: Arc<Mutex<Vec<(&'static str, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut waiters = Vec::new();
    let mut spawn_waiter = |label: &'static str, domain: usize, expected_parked: usize| {
        let parker_lot = Arc::clone(&lot);
        let order = Arc::clone(&order);
        waiters.push(std::thread::spawn(move || {
            let result = parker_lot.park(
                ADDR,
                encode_token(TOKEN_MUTEX_WAITER, Some(domain)),
                || true,
                || {},
                None,
            );
            let token = match result {
                gls_locks::ParkResult::Unparked(t) => t,
                other => panic!("{label} park ended with {other:?}"),
            };
            order.lock().unwrap().push((label, token));
        }));
        assert!(
            wait_until(Duration::from_secs(10), || lot.parked_count(ADDR)
                == expected_parked),
            "{label} did not reach the queue"
        );
    };
    spawn_waiter("remote", 0, 1);
    for (i, label) in ["local1", "local2", "local3", "local4", "local5"]
        .into_iter()
        .enumerate()
    {
        spawn_waiter(label, 1, i + 2);
    }

    // Six releases from domain 1, persisting the bypass counter exactly as
    // the futex word does. FIFO + policy make the wake order fully
    // deterministic: four locals bypass the remote head, then the spent
    // budget forces the head in, then the last local drains.
    let mut bypass = 0u32;
    for round in 0..6 {
        let bypassed = std::cell::Cell::new(false);
        let woken = lot.unpark_choose_with(
            ADDR,
            |tokens| {
                let c = choose_handoff(tokens, TOKEN_MUTEX_WAITER, 1, bypass, COHORT_BYPASS_LIMIT)?;
                assert!(c.handoff, "all waiters here are native");
                bypassed.set(c.bypassed_head);
                Some((c.index, HANDOFF_TOKEN))
            },
            |_| {},
        );
        assert_eq!(woken.unparked, 1, "release {round} must wake someone");
        bypass = if bypassed.get() { bypass + 1 } else { 0 };
        assert!(
            wait_until(Duration::from_secs(10), || order.lock().unwrap().len()
                == round + 1),
            "woken waiter {round} did not report"
        );
    }
    for w in waiters {
        w.join().unwrap();
    }

    let order = order.lock().unwrap();
    let labels: Vec<&str> = order.iter().map(|(l, _)| *l).collect();
    assert_eq!(
        labels,
        ["local1", "local2", "local3", "local4", "remote", "local5"],
        "locals preferred, remote admitted after exactly the bypass budget"
    );
    assert!(order.iter().all(|&(_, t)| t == HANDOFF_TOKEN));
    assert_eq!(lot.parked_count(ADDR), 0);
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
