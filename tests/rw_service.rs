//! Reader-writer locking through the GLS service: sharing semantics, data
//! consistency under mixed reader/writer stress with deadlock detection
//! enabled, writer liveness under continuous reader churn, and readers
//! parking behind a writer.

// Integration stress tests drive real OS threads on wall-clock time;
// raw std sync and sleeps are the point here (see clippy.toml).
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gls::{GlsConfig, GlsService, LockKind};

#[test]
fn rw_guards_share_and_exclude_through_the_service() {
    let svc = GlsService::new();
    let table = vec![0u8; 16];
    {
        let r1 = svc.read_guard(&table).unwrap();
        let r2 = svc.read_guard(&table).unwrap();
        assert_eq!(r1.addr(), r2.addr());
        assert!(
            !svc.try_write_lock(&table).unwrap(),
            "readers must exclude writers"
        );
    }
    {
        let _w = svc.write_guard(&table).unwrap();
        assert!(
            !svc.try_read_lock(&table).unwrap(),
            "a writer must exclude readers"
        );
    }
    assert_eq!(svc.algorithm_of(&table), Some(LockKind::FutexRw));
}

/// A reader blocked behind a held write lock parks on the entry's word
/// (nothing spins through a long write section), and `write_unlock` admits
/// it. The signal is the lock's own queue length — holders plus parked
/// waiters, not the ones still spinning — so threads other tests park
/// elsewhere cannot move it.
#[test]
fn reader_behind_a_writer_parks_and_write_unlock_admits_it() {
    let svc = GlsService::new();
    let addr = 0x55_0000_usize;
    svc.write_lock(addr).unwrap();
    assert_eq!(svc.queue_length(addr), Some(1), "the writer alone");
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            svc.read_lock(addr).unwrap();
            let holders = svc.queue_length(addr);
            svc.read_unlock(addr).unwrap();
            holders
        });
        let parked = (0..100_000).any(|_| {
            std::thread::sleep(Duration::from_micros(100));
            svc.queue_length(addr) == Some(2)
        });
        svc.write_unlock(addr).unwrap();
        assert!(parked, "the reader never parked");
        assert_eq!(reader.join().unwrap(), Some(1), "the admitted reader alone");
    });
    assert_eq!(svc.queue_length(addr), Some(0));
}

/// The acceptance scenario of the rw subsystem: many readers and writers
/// mixing through a debug-mode service (ownership tracking and the
/// lock-order check both enabled), with the data itself checked for torn
/// reads. A second address is always locked after the first, so the order
/// graph sees real nesting but no cycle.
#[test]
fn mixed_rw_stress_with_deadlock_detection_stays_clean() {
    struct Shared(std::cell::UnsafeCell<(u64, u64)>);
    // SAFETY: the cell is only touched while holding the lock under test;
    // that exclusion is exactly what the test verifies.
    unsafe impl Sync for Shared {}

    let svc = Arc::new(GlsService::with_config(GlsConfig::debug()));
    let shared = Arc::new(Shared(std::cell::UnsafeCell::new((0, 0))));
    let outer = 0x11_0000_usize;
    let inner = 0x22_0000_usize;

    let handles: Vec<_> = (0..6)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for i in 0..1_500usize {
                    if (t + i) % 5 == 0 {
                        // Writer: exclusive on the outer lock, then a nested
                        // exclusive section on the inner lock (consistent
                        // order, so never a deadlock).
                        svc.write_lock(outer).unwrap();
                        svc.write_lock(inner).unwrap();
                        // SAFETY: written while holding the write lock under test.
                        unsafe {
                            (*shared.0.get()).0 += 1;
                            (*shared.0.get()).1 += 1;
                        }
                        svc.write_unlock(inner).unwrap();
                        svc.write_unlock(outer).unwrap();
                    } else {
                        // Reader: shared on the outer lock; the pair must
                        // never be observed torn.
                        svc.read_lock(outer).unwrap();
                        // SAFETY: read under the read lock; writers are excluded.
                        let (a, b) = unsafe { *shared.0.get() };
                        assert_eq!(a, b, "torn read under the service rw lock");
                        svc.read_unlock(outer).unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // SAFETY: all worker threads are joined; nothing races this read.
    let (a, b) = unsafe { *shared.0.get() };
    assert_eq!(a, b);
    assert!(a > 0, "writers must have made progress");
    assert!(
        svc.issues().is_empty(),
        "well-ordered rw stress must record no issues: {:?}",
        svc.issues()
    );
}

/// Writer liveness through the service: a writer must acquire within
/// bounded time while 8 reader threads loop continuously (the service-level
/// face of the writer-intent regression test in `gls_locks`).
#[test]
fn service_writer_completes_under_continuous_reader_churn() {
    let svc = Arc::new(GlsService::new());
    let stop = Arc::new(AtomicBool::new(false));
    let addr = 0x33_0000_usize;
    let readers: Vec<_> = (0..8)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    svc.read_lock(addr).unwrap();
                    svc.read_unlock(addr).unwrap();
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    let start = Instant::now();
    svc.write_lock(addr).unwrap();
    let waited = start.elapsed();
    svc.write_unlock(addr).unwrap();
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    assert!(
        waited < Duration::from_secs(10),
        "writer starved for {waited:?} behind the service rw lock"
    );
}

/// Upgrade attempts (write while holding read) self-deadlock on a
/// writer-preferring rwlock; the debug mode must flag them instead of
/// hanging.
#[test]
fn debug_mode_flags_upgrade_attempts() {
    let svc = GlsService::with_config(GlsConfig::debug());
    svc.read_lock(0x44_0000).unwrap();
    let err = svc.write_lock(0x44_0000).unwrap_err();
    assert_eq!(err.category(), "double-lock");
    svc.read_unlock(0x44_0000).unwrap();
}
