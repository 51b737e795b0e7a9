//! Lock-order checking (§4.2): real threads, real locks, and an attempt that
//! would close a cycle in the order locks are taken is reported before it
//! blocks — whether or not this run would have hung. No test here waits out
//! a clock.

// Integration tests drive real OS threads; raw std sync is the point here
// (see clippy.toml).
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use gls::{GlsCondvar, GlsConfig, GlsError, GlsService};
use gls_runtime::FlightEventKind;

fn debug_service() -> Arc<GlsService> {
    Arc::new(GlsService::with_config(GlsConfig::debug()))
}

/// Every thread takes its `first` lock, waits for the others to take
/// theirs, then attempts `second`: a cycle of held-and-wanted locks. Returns
/// each thread's result for `second`.
fn hold_then_attempt(svc: &Arc<GlsService>, pairs: &[(usize, usize)]) -> Vec<Result<(), GlsError>> {
    let barrier = Arc::new(Barrier::new(pairs.len()));
    let handles: Vec<_> = pairs
        .iter()
        .map(|&(first, second)| {
            let svc = Arc::clone(svc);
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
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

fn deadlocks(svc: &GlsService) -> usize {
    svc.issues()
        .iter()
        .filter(|i| i.category() == "deadlock")
        .count()
}

#[test]
fn two_thread_lock_order_inversion_is_detected() {
    let svc = debug_service();
    let addr_a = 0xA0_usize;
    let addr_b = 0xB0_usize;
    let results = hold_then_attempt(&svc, &[(addr_a, addr_b), (addr_b, addr_a)]);

    // The second thread to attempt its edge is told, and backs off; the
    // other then gets its lock.
    let reports: Vec<&GlsError> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert_eq!(reports.len(), 1, "exactly one thread reports: {results:?}");
    let issue = reports[0];
    match issue {
        GlsError::Deadlock { cycle, trail } => {
            // The reporter's attempt, the other thread's edge, and back.
            assert_eq!(cycle.len(), 3, "{cycle:?}");
            assert_eq!(cycle.first(), cycle.last());
            let addrs: Vec<usize> = cycle.iter().map(|&(_, a)| a).collect();
            assert!(addrs.contains(&addr_a) && addrs.contains(&addr_b));
            // The reporting thread's flight-recorder trail travels in the
            // issue and records the cycle itself.
            assert!(
                trail
                    .iter()
                    .any(|e| e.kind == FlightEventKind::LockOrderCycle && e.addr == cycle[0].1),
                "the trail must record the lock-order cycle: {trail:?}"
            );
        }
        other => panic!("expected a deadlock report, got {other:?}"),
    }
    // The service log holds the very issue the caller was handed.
    assert_eq!(svc.issues(), vec![issue.clone()]);

    // The snapshot counts the report, and the one edge that was recorded:
    // the closing edge never enters the graph.
    let snapshot = svc.telemetry_snapshot();
    assert_eq!(snapshot.deadlock.confirmed, 1);
    assert_eq!(snapshot.deadlock.edges, 1);
}

#[test]
fn three_thread_cycle_is_detected() {
    let svc = debug_service();
    let [a, b, c] = [0x111_usize, 0x222, 0x333];
    let results = hold_then_attempt(&svc, &[(a, b), (b, c), (c, a)]);
    assert_eq!(
        results.iter().filter(|r| r.is_err()).count(),
        1,
        "a three-way cycle is reported to exactly one participant: {results:?}"
    );
    assert_eq!(deadlocks(&svc), 1);
}

#[test]
fn a_sequential_inversion_is_reported() {
    // Thread 1 takes A then B and finishes; thread 2 takes B then A. This
    // run cannot hang, but the two orders can: the second is reported.
    let svc = debug_service();
    let [a, b] = [0x5A0_usize, 0x5B0];
    let first = Arc::clone(&svc);
    thread::spawn(move || {
        first.lock(a).unwrap();
        first.lock(b).unwrap();
        first.unlock(b).unwrap();
        first.unlock(a).unwrap();
    })
    .join()
    .unwrap();
    let second = Arc::clone(&svc);
    let result = thread::spawn(move || {
        second.lock(b).unwrap();
        let result = second.lock(a);
        second.unlock(b).unwrap();
        result
    })
    .join()
    .unwrap();
    match result {
        Err(GlsError::Deadlock { cycle, .. }) => assert_eq!(cycle[0].1, a),
        other => panic!("expected the inversion to be reported, got {other:?}"),
    }
    // The refused attempt did not take the lock.
    assert_eq!(svc.try_lock(a), Ok(true));
    svc.unlock(a).unwrap();
}

#[test]
fn a_read_read_rw_inversion_is_reported() {
    // The rw entries are writer-preferring: readers taking two rw locks in
    // opposite orders deadlock once a writer queues on each lock.
    let svc = debug_service();
    let [a, b] = [0x6A0_usize, 0x6B0];
    svc.read_lock(a).unwrap();
    svc.read_lock(b).unwrap();
    svc.read_unlock(b).unwrap();
    svc.read_unlock(a).unwrap();
    let other = Arc::clone(&svc);
    let result = thread::spawn(move || {
        other.read_lock(b).unwrap();
        let result = other.read_lock(a);
        other.read_unlock(b).unwrap();
        result
    })
    .join()
    .unwrap();
    assert_eq!(result.unwrap_err().category(), "deadlock");
}

#[test]
fn a_cycle_through_the_second_shared_reader_is_reported() {
    // T1 and T2 read-hold A; only T2 takes B meanwhile. T0, holding B,
    // attempts to write A: the cycle runs through the second reader.
    let svc = debug_service();
    let [a, b] = [0x7A0_usize, 0x7B0];
    let readers = Arc::new(Barrier::new(3));
    let done = Arc::new(Barrier::new(3));
    let spawn_reader = |takes_b: bool| {
        let svc = Arc::clone(&svc);
        let (readers, done) = (Arc::clone(&readers), Arc::clone(&done));
        thread::spawn(move || {
            svc.read_lock(a).unwrap();
            readers.wait();
            if takes_b {
                svc.write_lock(b).unwrap();
                svc.write_unlock(b).unwrap();
            }
            done.wait();
            svc.read_unlock(a).unwrap();
        })
    };
    let first = spawn_reader(false);
    let second = spawn_reader(true);
    readers.wait();
    done.wait();
    first.join().unwrap();
    second.join().unwrap();
    svc.write_lock(b).unwrap();
    let result = svc.write_lock(a);
    svc.write_unlock(b).unwrap();
    match result {
        Err(GlsError::Deadlock { cycle, .. }) => {
            assert!(cycle.iter().any(|&(_, addr)| addr == b), "{cycle:?}");
        }
        other => panic!("expected the cycle through the reader, got {other:?}"),
    }
}

#[test]
fn free_forgets_the_order_of_a_freed_lock() {
    let svc = debug_service();
    let [a, b] = [0x8A0_usize, 0x8B0];
    svc.lock(a).unwrap();
    svc.lock(b).unwrap();
    svc.unlock(b).unwrap();
    svc.unlock(a).unwrap();
    assert_eq!(svc.telemetry_snapshot().deadlock.edges, 1);
    assert!(svc.free(a));
    assert_eq!(svc.telemetry_snapshot().deadlock.edges, 0);
    // A lock re-created at A is a new lock: B → A is no inversion.
    svc.lock(b).unwrap();
    svc.lock(a).unwrap();
    svc.unlock(a).unwrap();
    svc.unlock(b).unwrap();
    assert!(svc.issues().is_empty(), "{:?}", svc.issues());
    assert_eq!(svc.telemetry_snapshot().deadlock.edges, 1);
}

#[test]
fn no_false_positives_without_a_cycle() {
    // Heavy nesting in one consistent global order (ascending addresses):
    // the order graph grows, and never closes a cycle.
    let svc = debug_service();
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let svc = Arc::clone(&svc);
            thread::spawn(move || {
                for i in 0..2_000usize {
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
        svc.issues().is_empty(),
        "a consistent order must report nothing: {:?}",
        svc.issues()
    );
    assert_eq!(svc.telemetry_snapshot().deadlock.edges, 4);
}

#[test]
fn condvar_waits_add_no_order() {
    // The consumer holds an outer lock across its condvar waits; the
    // producer takes only the mutex. The parks order nothing, and the
    // re-acquisitions only repeat outer → mutex.
    let svc = debug_service();
    let cv = Arc::new(GlsCondvar::new());
    let [outer, mutex] = [0x900_usize, 0x980];
    let ready = Arc::new(AtomicBool::new(false));
    for _ in 0..200 {
        let consumer = {
            let (svc, cv, ready) = (Arc::clone(&svc), Arc::clone(&cv), Arc::clone(&ready));
            thread::spawn(move || {
                svc.lock(outer).unwrap();
                svc.lock(mutex).unwrap();
                while !ready.load(Ordering::Relaxed) {
                    svc.wait(&cv, mutex).unwrap();
                }
                ready.store(false, Ordering::Relaxed);
                svc.unlock(mutex).unwrap();
                svc.unlock(outer).unwrap();
            })
        };
        svc.lock(mutex).unwrap();
        ready.store(true, Ordering::Relaxed);
        svc.notify_one(&cv, mutex);
        svc.unlock(mutex).unwrap();
        consumer.join().unwrap();
    }
    assert!(svc.issues().is_empty(), "{:?}", svc.issues());
    assert_eq!(svc.telemetry_snapshot().deadlock.edges, 1);
}

#[test]
fn waiting_thread_eventually_reports_even_if_owner_never_releases() {
    // A "stuck owner": the owner holds the lock and the waiter blocks on
    // it. One blocked thread is no cycle, so nothing is reported; the
    // waiter gets the lock once the owner releases.
    let svc = debug_service();
    let addr = 0xF00_usize;
    svc.lock(addr).unwrap();
    let other = Arc::clone(&svc);
    let waiter = thread::spawn(move || other.lock(addr).map(|()| other.unlock(addr)));
    // The waiter has passed the order check and queued: holder + waiter.
    while svc.queue_length(addr) < Some(2) {
        thread::yield_now();
    }
    assert_eq!(
        deadlocks(&svc),
        0,
        "a single blocked thread is not a deadlock"
    );
    svc.unlock(addr).unwrap();
    waiter.join().unwrap().unwrap().unwrap();
    assert!(svc.issues().is_empty(), "{:?}", svc.issues());
}
