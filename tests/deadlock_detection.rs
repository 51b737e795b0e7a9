//! Runtime deadlock detection (§4.2): real threads, real locks, real cycle.

// Integration stress tests drive real OS threads on wall-clock time;
// raw std sync and sleeps are the point here (see clippy.toml).
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use gls::{GlsConfig, GlsError, GlsService};

fn debug_service(threshold_ms: u64) -> Arc<GlsService> {
    Arc::new(GlsService::with_config(
        GlsConfig::debug().with_deadlock_check_after(Duration::from_millis(threshold_ms)),
    ))
}

#[test]
fn two_thread_lock_order_inversion_is_detected() {
    let svc = debug_service(100);
    let barrier = Arc::new(Barrier::new(2));
    let addr_a = 0xA0_usize;
    let addr_b = 0xB0_usize;

    let spawn = |first: usize, second: usize| {
        let svc = Arc::clone(&svc);
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            svc.lock(first).unwrap();
            barrier.wait();
            let result = svc.lock(second);
            if result.is_ok() {
                svc.unlock(second).unwrap();
            }
            svc.unlock(first).unwrap();
            result
        })
    };

    let t1 = spawn(addr_a, addr_b);
    let t2 = spawn(addr_b, addr_a);
    let results = [t1.join().unwrap(), t2.join().unwrap()];

    // At least one thread must have been told about the deadlock; the other
    // may then have proceeded normally once the first backed off.
    let deadlocks: Vec<&GlsError> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert!(
        !deadlocks.is_empty(),
        "lock-order inversion must be detected"
    );
    let logged = svc.issues();
    for issue in deadlocks {
        match issue {
            GlsError::Deadlock { cycle, trail } => {
                assert!(cycle.len() >= 2);
                // The cycle must mention both addresses.
                let addrs: Vec<usize> = cycle.iter().map(|(_, a)| *a).collect();
                assert!(addrs.contains(&addr_a) || addrs.contains(&addr_b));
                // The confirming thread's flight-recorder trail travels in
                // the issue and records the deadlock candidate itself.
                assert!(
                    !trail.is_empty(),
                    "a confirmed deadlock must carry a flight-recorder trail"
                );
                assert!(
                    trail.iter().any(
                        |e| e.kind == gls_runtime::FlightEventKind::DeadlockCandidate
                            && (e.addr == addr_a || e.addr == addr_b)
                    ),
                    "the trail must record the deadlock candidate event: {trail:?}"
                );
            }
            other => panic!("expected a deadlock report, got {other:?}"),
        }
        // The service log holds the very issue the caller was handed.
        assert!(
            logged.contains(issue),
            "the returned deadlock must be the logged one"
        );
    }

    // The snapshot counts the confirmation.
    let snapshot = svc.telemetry_snapshot();
    assert!(snapshot.deadlock.confirmed >= 1);
}

#[test]
fn three_thread_cycle_is_detected() {
    let svc = debug_service(100);
    let barrier = Arc::new(Barrier::new(3));
    let addrs = [0x111_usize, 0x222, 0x333];

    let spawn = |first: usize, second: usize| {
        let svc = Arc::clone(&svc);
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            svc.lock(first).unwrap();
            barrier.wait();
            let result = svc.lock(second);
            if result.is_ok() {
                svc.unlock(second).unwrap();
            }
            svc.unlock(first).unwrap();
            result
        })
    };

    let t1 = spawn(addrs[0], addrs[1]);
    let t2 = spawn(addrs[1], addrs[2]);
    let t3 = spawn(addrs[2], addrs[0]);
    let results = [t1.join().unwrap(), t2.join().unwrap(), t3.join().unwrap()];

    assert!(
        results.iter().any(|r| r.is_err()),
        "a three-way cycle must be reported to at least one participant"
    );
    let reported = svc
        .issues()
        .into_iter()
        .filter(|i| i.category() == "deadlock")
        .count();
    assert!(reported >= 1);
}

#[test]
fn no_false_positives_without_a_cycle() {
    // Heavy but deadlock-free usage with a low detection threshold: the
    // detector must never fire.
    let svc = debug_service(20);
    let svc2 = Arc::clone(&svc);
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let svc = Arc::clone(&svc2);
            thread::spawn(move || {
                for i in 0..2_000usize {
                    // Consistent global order (ascending addresses): no cycle.
                    let a = 0x800 + ((t + i) % 4) * 8;
                    let b = a + 64;
                    svc.lock(a).unwrap();
                    svc.lock(b).unwrap();
                    gls_runtime::spin_cycles(100);
                    svc.unlock(b).unwrap();
                    svc.unlock(a).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        !svc.issues().iter().any(|i| i.category() == "deadlock"),
        "deadlock detector must not produce false positives: {:?}",
        svc.issues()
    );
}

#[test]
fn waiting_thread_eventually_reports_even_if_owner_never_releases() {
    // A "stuck owner" scenario: the owner grabs the lock and never releases;
    // the waiter should NOT report a deadlock (there is no cycle), it should
    // keep waiting. We verify the detector stays quiet and the waiter makes
    // progress once the owner finally releases.
    let svc = debug_service(50);
    svc.lock(0xF00).unwrap();
    let svc2 = Arc::clone(&svc);
    let waiter = thread::spawn(move || svc2.lock(0xF00).map(|()| svc2.unlock(0xF00)));
    thread::sleep(Duration::from_millis(300));
    assert!(
        !svc.issues().iter().any(|i| i.category() == "deadlock"),
        "a single blocked thread is not a deadlock"
    );
    svc.unlock(0xF00).unwrap();
    waiter.join().unwrap().unwrap().unwrap();
}
