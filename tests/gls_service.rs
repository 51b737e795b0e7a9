//! Cross-crate integration tests of the GLS service: address-keyed locking,
//! the explicit per-algorithm interface, profiling and table behaviour under
//! heavy multi-threaded use.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gls::{GlsConfig, GlsMode, GlsService, LockKind};

#[test]
fn service_protects_disjoint_counters_per_address() {
    let svc = Arc::new(GlsService::new());
    const SLOTS: usize = 32;
    // Plain (non-atomic) counters protected purely by GLS address locks.
    struct Slots(std::cell::UnsafeCell<[u64; SLOTS]>);
    // SAFETY: the cell is only touched while holding the lock under test;
    // that exclusion is exactly what the test verifies.
    unsafe impl Sync for Slots {}
    let slots = Arc::new(Slots(std::cell::UnsafeCell::new([0; SLOTS])));

    let threads = 8;
    let iters = 8_000usize;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let slots = Arc::clone(&slots);
            std::thread::spawn(move || {
                for i in 0..iters {
                    let slot = (i * 7 + t) % SLOTS;
                    let addr = 0x9000 + slot * 8;
                    svc.lock(addr).unwrap();
                    // SAFETY: written while holding the lock under test.
                    unsafe {
                        (*slots.0.get())[slot] += 1;
                    }
                    svc.unlock(addr).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // SAFETY: all worker threads are joined; nothing races this read.
    let total: u64 = unsafe { (*slots.0.get()).iter().sum() };
    assert_eq!(total, (threads * iters) as u64);
    assert_eq!(svc.lock_count(), SLOTS);
}

#[test]
fn every_explicit_algorithm_provides_mutual_exclusion_through_the_service() {
    for kind in LockKind::ALL {
        let svc = Arc::new(GlsService::new());
        let counter = Arc::new(AtomicU64::new(0));
        struct Cell(std::cell::UnsafeCell<u64>);
        // SAFETY: the cell is only touched while holding the lock under
        // test; that exclusion is exactly what the test verifies.
        unsafe impl Sync for Cell {}
        let raw = Arc::new(Cell(std::cell::UnsafeCell::new(0)));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let counter = Arc::clone(&counter);
                let raw = Arc::clone(&raw);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        svc.lock_with(kind, 0x4242).unwrap();
                        // SAFETY: written while holding the lock under test.
                        unsafe { *raw.0.get() += 1 };
                        counter.fetch_add(1, Ordering::Relaxed);
                        svc.unlock_with(kind, 0x4242).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 30_000, "algorithm {kind}");
        // SAFETY: all worker threads are joined; nothing races this read.
        assert_eq!(unsafe { *raw.0.get() }, 30_000, "algorithm {kind}");
        assert_eq!(svc.algorithm_of(0x4242), Some(kind));
    }
}

#[test]
fn profiler_identifies_the_hot_lock() {
    let svc = Arc::new(GlsService::with_config(GlsConfig::profile()));
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let mut x = (t + 1) as u64;
                for _ in 0..20_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    // 70% of accesses hit the "global" lock at 0x100.
                    let addr = if x % 10 < 7 {
                        0x100
                    } else {
                        0x200 + (x as usize % 8) * 8
                    };
                    svc.lock(addr).unwrap();
                    gls_runtime::spin_cycles(300);
                    svc.unlock(addr).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let locks = svc.telemetry_snapshot().locks;
    assert!(locks.len() >= 2);
    // The skewed lock must dominate by traffic; with short runs on a noisy
    // machine a cold lock can occasionally edge ahead on the *average* queue
    // metric, so the traffic count is the robust signal to check.
    let hot = locks
        .iter()
        .find(|l| l.addr == 0x100)
        .expect("hot lock must be profiled");
    assert!(
        locks.iter().all(|l| l.acquisitions <= hot.acquisitions),
        "the skewed lock must have the most acquisitions"
    );
    assert!(hot.acquisitions > 0);
    assert!(hot.cs_latency.mean > 0.0);
    assert!(hot.avg_queue >= 0.0);
}

#[test]
fn trylock_contention_only_one_winner_at_a_time() {
    let svc = Arc::new(GlsService::new());
    let concurrent = Arc::new(AtomicU64::new(0));
    let violations = Arc::new(AtomicU64::new(0));
    let acquired = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let concurrent = Arc::clone(&concurrent);
            let violations = Arc::clone(&violations);
            let acquired = Arc::clone(&acquired);
            std::thread::spawn(move || {
                for _ in 0..30_000 {
                    if svc.try_lock(0x777).unwrap() {
                        if concurrent.fetch_add(1, Ordering::AcqRel) != 0 {
                            violations.fetch_add(1, Ordering::Relaxed);
                        }
                        acquired.fetch_add(1, Ordering::Relaxed);
                        concurrent.fetch_sub(1, Ordering::AcqRel);
                        svc.unlock(0x777).unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(violations.load(Ordering::Relaxed), 0);
    assert!(acquired.load(Ordering::Relaxed) > 0);
}

#[test]
fn free_and_recreate_cycles_are_safe() {
    let svc = GlsService::new();
    for round in 0..200usize {
        let addr = 0x6000;
        svc.lock(addr).unwrap();
        svc.unlock(addr).unwrap();
        assert!(svc.free(addr), "round {round}");
        assert_eq!(svc.lock_count(), 0);
    }
}

#[test]
fn debug_mode_issue_log_accumulates_across_threads() {
    let svc = Arc::new(GlsService::with_config(
        GlsConfig::default().with_mode(GlsMode::Debug),
    ));
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                // Every thread unlocks an address it never locked.
                let _ = svc.unlock(0xdead0 + t);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let issues = svc.issues();
    assert_eq!(issues.len(), 4);
    assert!(issues.iter().all(|i| i.category() == "uninitialized-lock"));
    svc.clear_issues();
    assert!(svc.issues().is_empty());
}

#[test]
fn lock_count_matches_distinct_addresses_used() {
    let svc = GlsService::new();
    for i in 1..=500usize {
        svc.lock(i * 16).unwrap();
        svc.unlock(i * 16).unwrap();
    }
    assert_eq!(svc.lock_count(), 500);
    let stats = svc.table_stats();
    assert_eq!(stats.elements, 500);
    assert!(stats.occupancy > 0.0);
}
