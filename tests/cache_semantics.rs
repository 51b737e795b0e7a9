//! Cache-semantics suite: the per-thread direct-mapped lock cache, the
//! validation of every hit against the entry's own state, the
//! free/recreate machinery behind it, and the equivalence of profile
//! reports after the sharded-stats fold.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use gls::{thread_cache_stats, CacheStats, GlsConfig, GlsService, LockKind};

/// The calling thread's cache counter changes since `before`.
fn since(before: CacheStats) -> CacheStats {
    let now = thread_cache_stats();
    CacheStats {
        hits: now.hits - before.hits,
        misses: now.misses - before.misses,
        invalidations: now.invalidations - before.invalidations,
    }
}

/// A multi-lock working set in distinct cache slots never misses after
/// warm-up. This is the workload the single-entry cache thrashed on: with
/// two or more locks per thread it missed on *every* acquisition.
#[test]
fn multi_lock_working_set_hits_in_cache() {
    let svc = GlsService::new();
    // 16 consecutive 64-byte-spaced addresses: the cache's Fibonacci hash
    // spreads them over distinct slots, and a direct-mapped cache holds one
    // mapping per slot.
    let addrs: Vec<usize> = (0..16).map(|i| 0x77_0000 + i * 64).collect();
    // Warm-up round: create the entries and populate the cache.
    for &a in &addrs {
        svc.lock(a).unwrap();
        svc.unlock(a).unwrap();
    }
    let before = thread_cache_stats();
    let rounds = 500;
    for _ in 0..rounds {
        for &a in &addrs {
            svc.lock(a).unwrap();
            svc.unlock(a).unwrap();
        }
    }
    let stats = since(before);
    // Each lock+unlock performs two lookups, and every one after warm-up
    // hits.
    assert_eq!(stats.misses, 0, "working set within capacity must not miss");
    assert_eq!(stats.hits, rounds * 2 * addrs.len() as u64);
}

/// The acceptance-criterion test: freeing one address must not invalidate
/// the cached mapping of any other address.
#[test]
fn free_one_address_keeps_other_cached() {
    let svc = GlsService::new();
    let (a, b) = (0x11_0000, 0x22_0000);
    for &addr in &[a, b] {
        svc.lock(addr).unwrap();
        svc.unlock(addr).unwrap();
    }
    let before = thread_cache_stats();
    assert!(svc.free(b));
    for _ in 0..10 {
        svc.lock(a).unwrap();
        svc.unlock(a).unwrap();
    }
    let stats = since(before);
    assert_eq!(
        stats.misses, 0,
        "freeing B evicted A's cached mapping — invalidation is not precise"
    );
    assert_eq!(stats.invalidations, 0);
    assert_eq!(stats.hits, 20);
}

/// The freed address itself must stop hitting: its cached slot now maps a
/// tombstone, which fails validation on the next probe, on the thread that
/// cached it.
#[test]
fn free_invalidates_its_own_cached_mapping() {
    let svc = GlsService::new();
    let (a, b) = (0x33_0000, 0x44_0000);
    for &addr in &[a, b] {
        svc.lock(addr).unwrap();
        svc.unlock(addr).unwrap();
    }
    assert!(svc.free(b));
    let before = thread_cache_stats();
    // find_entry must not serve the stale cached mapping for b.
    assert_eq!(svc.algorithm_of(b), None, "freed address must be gone");
    assert_eq!(
        since(before).invalidations,
        1,
        "the stale slot was self-invalidated"
    );
    // …while a is untouched.
    assert_eq!(svc.algorithm_of(a), Some(LockKind::Glk));
    assert_eq!(since(before).hits, 1);
}

/// While `addr` is held on this thread, another thread cannot take it;
/// after the release it can.
fn assert_lock_excludes(svc: &Arc<GlsService>, addr: usize) {
    let try_elsewhere = || {
        let svc = Arc::clone(svc);
        std::thread::spawn(move || {
            let taken = svc.try_lock(addr).unwrap();
            if taken {
                svc.unlock(addr).unwrap();
            }
            taken
        })
        .join()
        .unwrap()
    };
    svc.lock(addr).unwrap();
    assert!(!try_elsewhere(), "a held lock must exclude other threads");
    svc.unlock(addr).unwrap();
    assert!(try_elsewhere(), "a released lock must be free");
}

/// A slot that outlived a free and a re-create on *another* thread is
/// validated against what the entry is now. Resurrected in place, the entry
/// is still the address's mapping, so the slot hits. Swept and recycled for
/// another address, it is not, so the slot misses and counts one
/// invalidation.
#[test]
fn free_and_recreate_elsewhere_revalidates_stale_mapping() {
    // Resurrected: same address, same allocation, live again.
    let svc = Arc::new(GlsService::new());
    let addr = 0x55_0000usize;
    svc.lock(addr).unwrap();
    svc.unlock(addr).unwrap(); // cached here
    assert!(svc.free(addr));
    let svc2 = Arc::clone(&svc);
    std::thread::spawn(move || {
        svc2.lock(addr).unwrap();
        svc2.unlock(addr).unwrap();
    })
    .join()
    .unwrap();
    assert_eq!(svc.retired_count(), 0, "the freed entry was resurrected");
    let before = thread_cache_stats();
    svc.lock(addr).unwrap();
    svc.unlock(addr).unwrap();
    let stats = since(before);
    assert_eq!(
        (stats.hits, stats.misses, stats.invalidations),
        (2, 0, 0),
        "a resurrected entry still serves its address: the old slot hits"
    );
    assert_lock_excludes(&svc, addr);

    // Recycled: another thread creates fresh addresses until the sweep has
    // claimed the freed entry and a create has taken it from the pool.
    let svc = Arc::new(GlsService::new());
    let addr = 0x56_0000usize;
    svc.lock(addr).unwrap();
    svc.unlock(addr).unwrap(); // cached here
    assert!(svc.free(addr));
    let svc2 = Arc::clone(&svc);
    std::thread::spawn(move || {
        for i in 1..=1_000_000usize {
            let other = 0x1000_0000 + i * 64;
            svc2.lock(other).unwrap();
            svc2.unlock(other).unwrap();
            if i % 64 == 0 && svc2.retired_count() == 0 {
                return;
            }
        }
        panic!("the sweep never recycled the freed entry");
    })
    .join()
    .unwrap();
    let before = thread_cache_stats();
    svc.lock(addr).unwrap();
    svc.unlock(addr).unwrap();
    let stats = since(before);
    assert_eq!(
        (stats.hits, stats.misses, stats.invalidations),
        (1, 1, 1),
        "an entry recycled for another address must miss (the unlock hits \
         the fresh mapping)"
    );
    assert_lock_excludes(&svc, addr);
}

/// Concurrent version of precise invalidation: one thread's hot lock stays
/// cached (zero misses) while another thread churns free/recreate cycles on
/// unrelated addresses the whole time. The broadcast generation counter
/// this PR removed failed this by design: every `free` invalidated every
/// thread's whole cache.
#[test]
fn churn_on_other_addresses_never_disturbs_a_hot_mapping() {
    let svc = Arc::new(GlsService::new());
    let hot = 0x66_0000usize;
    let stop = Arc::new(AtomicBool::new(false));
    let churned = Arc::new(AtomicU64::new(0));
    let churner = {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        let churned = Arc::clone(&churned);
        std::thread::spawn(move || {
            let mut rounds = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let addr = 0x88_0000 + (rounds as usize % 8) * 64;
                svc.lock(addr).unwrap();
                svc.unlock(addr).unwrap();
                assert!(svc.free(addr));
                rounds += 1;
                churned.store(rounds, Ordering::Relaxed);
            }
        })
    };
    svc.lock(hot).unwrap();
    svc.unlock(hot).unwrap(); // warm
    let before = thread_cache_stats();
    // Keep hammering the hot lock until a substantial amount of churn has
    // really interleaved (on a single-core box the churner may not be
    // scheduled at all for the first millisecond), with a generous
    // iteration cap as a safety valve against a starved churner.
    let mut iters = 0u64;
    loop {
        svc.lock(hot).unwrap();
        svc.unlock(hot).unwrap();
        iters += 1;
        if (iters >= 50_000 && churned.load(Ordering::Relaxed) >= 100) || iters >= 50_000_000 {
            break;
        }
    }
    let stats = since(before);
    stop.store(true, Ordering::Relaxed);
    churner.join().unwrap();
    let churn_rounds = churned.load(Ordering::Relaxed);
    assert!(churn_rounds >= 100, "the churner must have freed something");
    assert_eq!(
        stats.misses, 0,
        "{churn_rounds} free/recreate cycles on other addresses must not \
         evict the hot mapping (pre-PR: every free invalidated it)"
    );
    assert_eq!(stats.hits, 2 * iters);
    assert!(
        svc.retired_count() <= 8,
        "churn stays bounded by its working set"
    );
}

/// A `free` racing with a lock holder must not strand the holder: its
/// release lands on the freed entry (still mapped) instead of erroring, and
/// the address remains usable afterwards.
#[test]
fn racing_free_cannot_strand_a_holder() {
    let svc = Arc::new(GlsService::new());
    let addr = 0x99_0000usize;
    svc.lock(addr).unwrap();
    // Another thread frees the address while we hold its lock.
    let svc2 = Arc::clone(&svc);
    std::thread::spawn(move || assert!(svc2.free(addr)))
        .join()
        .unwrap();
    assert_eq!((svc.lock_count(), svc.retired_count()), (0, 1));
    assert_eq!(svc.algorithm_of(addr), None, "freed: reads as gone");
    // Originally this returned UninitializedLock and left the entry locked
    // forever; the release has to reach the freed entry.
    svc.unlock(addr).unwrap();
    // The resurrected entry is actually unlocked: a fresh create can take it.
    svc.lock(addr).unwrap();
    svc.unlock(addr).unwrap();
    assert_eq!((svc.lock_count(), svc.retired_count()), (1, 0));
}

/// Disabling the lock cache sends every operation through the table and
/// records no cache activity.
#[test]
fn disabled_lock_cache_is_fully_bypassed() {
    let svc = GlsService::with_config(GlsConfig::default().with_lock_cache(false));
    let before = thread_cache_stats();
    for i in 0..32usize {
        let addr = 0xAA_0000 + (i % 4) * 64;
        svc.lock(addr).unwrap();
        svc.unlock(addr).unwrap();
    }
    let stats = since(before);
    assert_eq!(stats.hits + stats.misses, 0, "no lookups may be recorded");
}

/// Profile mode must lose no sample to the sharded fold: with T threads
/// doing exactly N acquisitions each on one lock, the folded snapshot shows
/// exactly T × N acquisitions, and the latency averages are populated.
#[test]
fn profile_report_is_exact_after_sharded_fold() {
    let svc = Arc::new(GlsService::with_config(GlsConfig::profile()));
    let addr = 0xBB_0000usize;
    let threads = 8usize;
    let per_thread = 1_000u64;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..per_thread {
                    svc.lock(addr).unwrap();
                    gls_runtime::spin_cycles(50);
                    svc.unlock(addr).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let locks = svc.telemetry_snapshot().locks;
    let lock = locks
        .iter()
        .find(|l| l.addr == addr)
        .expect("profiled lock must appear in the snapshot");
    assert_eq!(
        lock.acquisitions,
        threads as u64 * per_thread,
        "the sharded fold must not lose acquisitions"
    );
    assert!(lock.avg_lock_latency > 0.0);
    assert!(
        lock.avg_cs_latency > 0.0,
        "cs sections are timed via shards"
    );
}

/// Single-threaded profile determinism: every sample lands in one shard and
/// the snapshot matches the op counts exactly, like the unsharded profiler.
#[test]
fn profile_report_single_thread_matches_op_counts() {
    let svc = GlsService::with_config(GlsConfig::profile());
    for i in 0..120usize {
        let addr = 0xCC_0000 + (i % 3) * 64;
        svc.lock(addr).unwrap();
        gls_runtime::spin_cycles(80);
        svc.unlock(addr).unwrap();
    }
    let locks = svc.telemetry_snapshot().locks;
    assert_eq!(locks.len(), 3);
    for lock in &locks {
        assert_eq!(lock.acquisitions, 40);
        assert!(lock.avg_lock_latency > 0.0);
        assert!(lock.avg_cs_latency > 0.0);
    }
}

/// Try-lock acquisitions are profiled through the shards too.
#[test]
fn profile_report_counts_try_lock_acquisitions() {
    let svc = GlsService::with_config(GlsConfig::profile());
    let addr = 0xDD_0000usize;
    assert!(svc.try_lock(addr).unwrap());
    assert!(!svc.try_lock(addr).unwrap(), "second try must fail");
    svc.unlock(addr).unwrap();
    let locks = svc.telemetry_snapshot().locks;
    assert_eq!(locks[0].acquisitions, 1);
}

mod churn_proptest {
    use super::*;
    use proptest::prelude::*;

    const SHARED_ADDRS: [usize; 4] = [0xE0_0000, 0xE0_0040, 0xE0_0080, 0xE0_00C0];
    const CHURN_ADDRS: [usize; 3] = [0xF0_0000, 0xF0_0040, 0xF0_0080];

    /// One scheduled step of a worker thread.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Blocking lock + guarded counter increment on a never-freed
        /// address (mutual exclusion asserted exactly).
        LockShared(usize),
        /// try-lock/unlock on an address other threads may free at any
        /// moment (exercises resurrection and the unlock fallback; never
        /// blocks, so a racing free can never hang the schedule).
        TryChurn(usize),
        /// Free a churn address (the next TryChurn re-creates it).
        FreeChurn(usize),
        /// Cache-populating read-only probe of a churn address.
        Observe(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..SHARED_ADDRS.len()).prop_map(Op::LockShared),
            (0usize..CHURN_ADDRS.len()).prop_map(Op::TryChurn),
            (0usize..CHURN_ADDRS.len()).prop_map(Op::FreeChurn),
            (0usize..CHURN_ADDRS.len()).prop_map(Op::Observe),
        ]
    }

    fn schedule_strategy() -> impl Strategy<Value = Vec<Vec<Op>>> {
        proptest::collection::vec(proptest::collection::vec(op_strategy(), 1..120), 3..4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Free/recreate churn racing real lock traffic: counters guarded
        /// by never-freed locks stay exact (no lost updates ⇒ no stale
        /// cached mapping ever bypassed mutual exclusion), no operation
        /// panics or strands, and the retired set stays bounded.
        #[test]
        fn free_recreate_churn_preserves_exclusion(schedule in schedule_strategy()) {
            let svc = Arc::new(GlsService::new());
            let counters: Arc<Vec<AtomicU64>> =
                Arc::new((0..SHARED_ADDRS.len()).map(|_| AtomicU64::new(0)).collect());
            let barrier = Arc::new(Barrier::new(schedule.len()));
            let handles: Vec<_> = schedule
                .into_iter()
                .map(|ops| {
                    let svc = Arc::clone(&svc);
                    let counters = Arc::clone(&counters);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        let mut shared_ops = 0u64;
                        for op in ops {
                            match op {
                                Op::LockShared(i) => {
                                    let addr = SHARED_ADDRS[i];
                                    svc.lock(addr).unwrap();
                                    // Racy read-modify-write: only mutual
                                    // exclusion makes the final sum exact.
                                    let v = counters[i].load(Ordering::Relaxed);
                                    gls_runtime::spin_cycles(20);
                                    counters[i].store(v + 1, Ordering::Relaxed);
                                    svc.unlock(addr).unwrap();
                                    shared_ops += 1;
                                }
                                Op::TryChurn(j) => {
                                    let addr = CHURN_ADDRS[j];
                                    // TTAS entries: misdirected releases in
                                    // the (buggy-by-definition) free-while-
                                    // held races stay benign stores.
                                    if svc.try_lock_with(LockKind::Ttas, addr).unwrap() {
                                        gls_runtime::spin_cycles(10);
                                        svc.unlock_with(LockKind::Ttas, addr).unwrap();
                                    }
                                }
                                Op::FreeChurn(j) => {
                                    let _ = svc.free(CHURN_ADDRS[j]);
                                }
                                Op::Observe(j) => {
                                    let _ = svc.algorithm_of(CHURN_ADDRS[j]);
                                }
                            }
                        }
                        shared_ops
                    })
                })
                .collect();
            let mut expected = 0u64;
            for h in handles {
                expected += h.join().unwrap();
            }
            let total: u64 = counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
            prop_assert_eq!(total, expected, "lost update ⇒ exclusion was bypassed");
            // Churn never keeps more freed entries resident than its
            // working set: every address has exactly one allocation.
            prop_assert!(svc.retired_count() <= CHURN_ADDRS.len());
            // Every address still works after the churn settles.
            for &addr in CHURN_ADDRS.iter().chain(SHARED_ADDRS.iter()) {
                svc.lock(addr).unwrap();
                svc.unlock(addr).unwrap();
            }
        }
    }
}
