//! Mixed stress test: guards, explicit algorithms, trylocks, frees and
//! profiling all exercised together from many threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gls::{GlsConfig, GlsService, LockKind};

#[test]
fn mixed_api_stress() {
    let svc = Arc::new(GlsService::new());
    let successes = Arc::new(AtomicU64::new(0));
    const ADDRESSES: usize = 24;

    let handles: Vec<_> = (0..8usize)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let successes = Arc::clone(&successes);
            std::thread::spawn(move || {
                let mut x = (t as u64 + 1) * 0x9E3779B9;
                for i in 0..20_000usize {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let addr = 0x2000 + (x as usize % ADDRESSES) * 8;
                    match i % 4 {
                        0 => {
                            // RAII guard.
                            let _g = svc.guard(addr).unwrap();
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                        1 => {
                            // Plain lock/unlock.
                            svc.lock(addr).unwrap();
                            successes.fetch_add(1, Ordering::Relaxed);
                            svc.unlock(addr).unwrap();
                        }
                        2 => {
                            // Trylock, possibly failing.
                            if svc.try_lock(addr).unwrap() {
                                successes.fetch_add(1, Ordering::Relaxed);
                                svc.unlock(addr).unwrap();
                            }
                        }
                        _ => {
                            // Explicit algorithm on a disjoint address range so
                            // the same address always uses one algorithm.
                            let explicit = 0x9_0000 + (x as usize % 8) * 8;
                            svc.lock_with(LockKind::Ticket, explicit).unwrap();
                            successes.fetch_add(1, Ordering::Relaxed);
                            svc.unlock_with(LockKind::Ticket, explicit).unwrap();
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(successes.load(Ordering::Relaxed) > 0);
    assert!(svc.lock_count() >= ADDRESSES);
    // No issues should have been recorded in normal mode.
    assert!(svc.issues().is_empty());
}

#[test]
fn per_thread_lock_cache_survives_interleaved_addresses() {
    // Alternate rapidly between two addresses per thread so the single-entry
    // lock cache keeps missing; correctness must not depend on hits.
    let svc = Arc::new(GlsService::new());
    struct Pair(std::cell::UnsafeCell<(u64, u64)>);
    // SAFETY: the cell is only touched while holding the lock under test;
    // that exclusion is exactly what the test verifies.
    unsafe impl Sync for Pair {}
    let pair = Arc::new(Pair(std::cell::UnsafeCell::new((0, 0))));

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                for _ in 0..10_000 {
                    svc.lock(0xAAA0).unwrap();
                    // SAFETY: written while holding the lock under test.
                    unsafe { (*pair.0.get()).0 += 1 };
                    svc.unlock(0xAAA0).unwrap();

                    svc.lock(0xBBB0).unwrap();
                    // SAFETY: written while holding the lock under test.
                    unsafe { (*pair.0.get()).1 += 1 };
                    svc.unlock(0xBBB0).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // SAFETY: all worker threads are joined; nothing races this read.
    let (a, b) = unsafe { *pair.0.get() };
    assert_eq!(a, 80_000);
    assert_eq!(b, 80_000);
}

#[test]
fn profiling_service_under_stress_reports_every_lock() {
    let svc = Arc::new(GlsService::with_config(GlsConfig::profile()));
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                for i in 0..5_000usize {
                    let addr = 0x3000 + ((i + t) % 10) * 8;
                    svc.lock(addr).unwrap();
                    svc.unlock(addr).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let report = svc.profile_report();
    assert_eq!(report.len(), 10);
    let total: u64 = report.locks.iter().map(|l| l.acquisitions).sum();
    assert_eq!(total, 30_000);
}

#[test]
fn guards_can_be_held_across_nested_addresses() {
    let svc = GlsService::new();
    let outer = 0x111_usize;
    let inner = 0x222_usize;
    for _ in 0..1_000 {
        let _a = svc.guard(outer).unwrap();
        let _b = svc.guard(inner).unwrap();
        // Guards drop in reverse order (inner first), which is the correct
        // nesting discipline.
    }
    assert_eq!(svc.lock_count(), 2);
}

/// Locking objects as they come and go: 2 M never-repeated addresses
/// through `lock`/`unlock`/`free` from 2 threads. `free` has to give
/// entries back, or resident entries track the addresses ever locked.
#[test]
fn distinct_address_churn_keeps_resident_entries_bounded() {
    const PER_THREAD: usize = 1_000_000;
    // The service sweeps once 4 096 entries have been mapped since the last
    // pass: tombstones of two such periods, the pool of one, and slack for
    // the entries freed while a pass runs.
    const BOUND: usize = 4 * 4_096;
    let svc = Arc::new(GlsService::new());
    let handles: Vec<_> = (0..2usize)
        .map(|t| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let mut worst = 0;
                for i in 0..PER_THREAD {
                    let addr = ((t * PER_THREAD + i) << 6) + 64;
                    svc.lock(addr).unwrap();
                    svc.unlock(addr).unwrap();
                    assert!(svc.free(addr));
                    if i % 16_384 == 0 {
                        worst = worst.max(svc.lock_count() + svc.retired_count());
                    }
                }
                worst
            })
        })
        .collect();
    for h in handles {
        let worst = h.join().unwrap();
        assert!(worst <= BOUND, "{worst} entries resident mid-churn");
    }
    assert_eq!(svc.lock_count(), 0);
    assert!(svc.retired_count() <= BOUND);
    // Sized by the resident entries, not by the 2 M addresses (which would
    // take a million buckets).
    let buckets = svc.table_stats().buckets;
    assert!(buckets <= 4 * BOUND, "the table grew to {buckets} buckets");
}
