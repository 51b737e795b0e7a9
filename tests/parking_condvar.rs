//! Cross-crate integration suite for the parking subsystem: futex locks
//! reached through the GLS service, the condvar interface under every
//! service mode, and the debug-mode guarantees (no phantom deadlock
//! reports from sleeping waiters).

// Integration stress tests drive real OS threads on wall-clock time;
// raw std sync and sleeps are the point here (see clippy.toml).
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gls::{GlkConfig, GlsCondvar, GlsConfig, GlsMode, GlsService};
use gls_locks::{FutexLock, FutexRwLock, LockKind};

#[test]
fn futex_raw_state_is_one_word() {
    // The acceptance criterion of the parking subsystem: the whole per-lock
    // state of the futex locks is a single AtomicU32.
    assert_eq!(std::mem::size_of::<FutexLock>(), 4);
    assert_eq!(std::mem::size_of::<FutexRwLock>(), 4);
    // A condvar is its waiter count: the queue lives in the parking lot.
    assert_eq!(std::mem::size_of::<GlsCondvar>(), 8);
}

#[test]
fn futex_locks_work_through_the_explicit_gls_interface() {
    let svc = Arc::new(GlsService::new());
    let counter = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                for i in 0..5_000usize {
                    let addr = 0xF000 + (i % 8) * 64;
                    svc.lock_with(LockKind::Mutex, addr).unwrap();
                    counter.fetch_add(1, Ordering::Relaxed);
                    svc.unlock(addr).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.load(Ordering::Relaxed), 30_000);
    assert_eq!(svc.algorithm_of(0xF000), Some(LockKind::Mutex));
}

#[test]
fn futex_rw_entries_share_reads_through_the_service() {
    let svc = GlsService::new();
    svc.lock_with(LockKind::FutexRw, 0xF800).unwrap();
    svc.unlock_with(LockKind::FutexRw, 0xF800).unwrap();
    assert_eq!(svc.algorithm_of(0xF800), Some(LockKind::FutexRw));
    // The rw read path routes shared acquisitions to the futex rwlock.
    svc.read_lock(0xF800).unwrap();
    svc.read_lock(0xF800).unwrap();
    assert!(!svc.try_write_lock(0xF800).unwrap());
    svc.read_unlock(0xF800).unwrap();
    svc.read_unlock(0xF800).unwrap();
    assert!(svc.try_write_lock(0xF800).unwrap());
    svc.write_unlock(0xF800).unwrap();
}

#[test]
fn glk_with_parking_backend_keeps_exclusion_through_the_service() {
    // The default GLK interface, whose mutex mode is a futex word, behind
    // the full service machinery.
    let svc = Arc::new(GlsService::with_config(
        GlsConfig::default().with_glk(
            GlkConfig::default()
                .with_adaptation_period(128)
                .with_sampling_period(16),
        ),
    ));
    struct Cell(std::cell::UnsafeCell<u64>);
    // SAFETY: the cell is only touched while holding the lock under test;
    // that exclusion is exactly what the test verifies.
    unsafe impl Sync for Cell {}
    let value = Arc::new(Cell(std::cell::UnsafeCell::new(0)));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let value = Arc::clone(&value);
            std::thread::spawn(move || {
                for _ in 0..5_000 {
                    svc.lock(0xAB00).unwrap();
                    // SAFETY: written while holding the lock under test.
                    unsafe { *value.0.get() += 1 };
                    svc.unlock(0xAB00).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // SAFETY: all worker threads are joined; nothing races this read.
    assert_eq!(unsafe { *value.0.get() }, 40_000);
}

/// A bounded queue on one GLS mutex, keyed at the pipeline's address, and
/// two condvars: the canonical condvar workload.
struct Pipeline {
    /// The items, and the producers still running.
    state: UnsafeCell<(VecDeque<u64>, u64)>,
    not_empty: GlsCondvar,
    not_full: GlsCondvar,
}

// SAFETY: `state` is only touched while holding the GLS mutex keyed at the
// pipeline's address.
unsafe impl Sync for Pipeline {}

/// Runs `producers` threads, each pushing `items` distinct values through
/// a queue of `capacity`, against `consumers` threads; returns the items
/// consumed and their sum.
fn run_pipeline(
    svc: &Arc<GlsService>,
    (producers, consumers, capacity, items): (u64, usize, usize, u64),
) -> (u64, u64) {
    let pipe = Arc::new(Pipeline {
        state: UnsafeCell::new((VecDeque::new(), producers)),
        not_empty: GlsCondvar::new(),
        not_full: GlsCondvar::new(),
    });
    let addr = Arc::as_ptr(&pipe) as usize;
    let producer_threads: Vec<_> = (0..producers)
        .map(|p| {
            let (svc, pipe) = (Arc::clone(svc), Arc::clone(&pipe));
            std::thread::spawn(move || {
                for i in 0..items {
                    svc.lock(addr).unwrap();
                    // SAFETY (both blocks): the GLS mutex for `addr` is held.
                    while unsafe { (*pipe.state.get()).0.len() } >= capacity {
                        svc.wait(&pipe.not_full, addr).unwrap();
                    }
                    unsafe { (*pipe.state.get()).0.push_back(p << 32 | i) };
                    svc.unlock(addr).unwrap();
                    pipe.not_empty.notify_one();
                }
                svc.lock(addr).unwrap();
                // SAFETY: the GLS mutex for `addr` is held.
                let live = unsafe { &mut (*pipe.state.get()).1 };
                *live -= 1;
                let last = *live == 0;
                svc.unlock(addr).unwrap();
                // The last producer out makes every consumer re-check.
                if last {
                    pipe.not_empty.notify_all();
                }
            })
        })
        .collect();
    let consumer_threads: Vec<_> = (0..consumers)
        .map(|_| {
            let (svc, pipe) = (Arc::clone(svc), Arc::clone(&pipe));
            std::thread::spawn(move || {
                let (mut consumed, mut sum) = (0, 0u64);
                loop {
                    svc.lock(addr).unwrap();
                    let item = loop {
                        // SAFETY: the GLS mutex for `addr` is held.
                        let (queue, live) = unsafe { &mut *pipe.state.get() };
                        if let Some(value) = queue.pop_front() {
                            break Some(value);
                        }
                        if *live == 0 {
                            break None;
                        }
                        // Timed: a lost shutdown wake costs a tick, not a hang.
                        let tick = Duration::from_millis(25);
                        svc.wait_timeout(&pipe.not_empty, addr, tick).unwrap();
                    };
                    svc.unlock(addr).unwrap();
                    let Some(value) = item else {
                        return (consumed, sum);
                    };
                    consumed += 1;
                    sum = sum.wrapping_add(value);
                    pipe.not_full.notify_one();
                }
            })
        })
        .collect();
    for h in producer_threads {
        h.join().unwrap();
    }
    consumer_threads
        .into_iter()
        .map(|h| h.join().unwrap())
        .fold((0, 0), |(c, s), (dc, ds)| (c + dc, s.wrapping_add(ds)))
}

/// Runs one pipeline of `producers` x `consumers` under `mode` and checks
/// that every item arrives exactly once and that the debug mode stays
/// silent: sleeping condvar waiters hold nothing and their parks order no
/// locks. Returns the service for mode-specific checks.
fn check_pipeline(mode: GlsMode, shape: (u64, usize, usize, u64)) -> Arc<GlsService> {
    let (producers, consumers, capacity, items) = shape;
    let run = format!("{mode:?}, {producers}x{consumers}, capacity {capacity}");
    let svc = Arc::new(GlsService::with_config(
        GlsConfig::default().with_mode(mode),
    ));
    let sum = (0..producers)
        .flat_map(|p| (0..items).map(move |i| p << 32 | i))
        .sum::<u64>();
    assert_eq!(
        run_pipeline(&svc, shape),
        (producers * items, sum),
        "{run}: every item delivered exactly once"
    );
    assert!(svc.issues().is_empty(), "{run}: {:?}", svc.issues());
    svc
}

#[test]
fn condvar_pipeline_delivers_every_item_exactly_once() {
    check_pipeline(GlsMode::Normal, (2, 2, 8, 2_000));
}

#[test]
fn condvar_pipeline_single_producer_many_consumers_drains() {
    check_pipeline(GlsMode::Normal, (1, 4, 2, 3_000));
}

#[test]
fn condvar_pipeline_debug_mode_reports_no_issues() {
    check_pipeline(GlsMode::Debug, (2, 2, 8, 2_000));
}

#[test]
fn condvar_pipeline_profile_mode_sees_the_queue_mutex() {
    let locks = check_pipeline(GlsMode::Profile, (2, 2, 8, 2_000))
        .telemetry_snapshot()
        .locks;
    assert_eq!(locks.len(), 1, "one mutex entry behind the queue");
    assert!(locks[0].acquisitions > 0);
}

#[test]
fn condvar_mpmc_under_debug_mode_reports_no_false_deadlocks() {
    check_pipeline(GlsMode::Debug, (3, 3, 4, 3_000));
}

#[test]
fn wait_timeout_expires_and_reacquires_the_mutex() {
    let svc = GlsService::new();
    let cv = GlsCondvar::new();
    svc.lock(0xCC00).unwrap();
    let start = Instant::now();
    let outcome = svc
        .wait_timeout(&cv, 0xCC00, Duration::from_millis(50))
        .unwrap();
    assert!(outcome.timed_out());
    assert!(start.elapsed() >= Duration::from_millis(50));
    // The mutex was re-acquired on the way out.
    assert!(!svc.try_lock(0xCC00).unwrap());
    svc.unlock(0xCC00).unwrap();
    assert_eq!(cv.waiters(), 0, "a timed-out waiter uncounts itself");
}

#[test]
fn debug_mode_flags_waiting_without_holding() {
    let svc = GlsService::with_config(GlsConfig::debug());
    let cv = GlsCondvar::new();
    // Waiting with a mutex that was never locked is the same class of bug
    // as releasing it.
    let err = svc
        .wait_timeout(&cv, 0xDD00, Duration::from_millis(10))
        .unwrap_err();
    assert_eq!(err.category(), "release-free-lock");
    assert!(!svc.issues().is_empty());
}

#[test]
fn notify_one_hands_over_fifo_and_notify_all_drains() {
    let svc = Arc::new(GlsService::new());
    let cv = Arc::new(GlsCondvar::new());
    let woken = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let cv = Arc::clone(&cv);
            let woken = Arc::clone(&woken);
            std::thread::spawn(move || {
                svc.lock(0xEE00).unwrap();
                svc.wait(&cv, 0xEE00).unwrap();
                svc.unlock(0xEE00).unwrap();
                woken.fetch_add(1, Ordering::Release);
            })
        })
        .collect();
    while cv.waiters() < 4 {
        std::thread::yield_now();
    }
    assert!(cv.notify_one());
    let deadline = Instant::now() + Duration::from_secs(5);
    while woken.load(Ordering::Acquire) < 1 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(
        woken.load(Ordering::Acquire),
        1,
        "notify_one wakes exactly one"
    );
    assert_eq!(cv.notify_all(), 3);
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(woken.load(Ordering::Acquire), 4);
    assert_eq!(cv.waiters(), 0);
}

#[test]
fn condvar_requeue_mpmc_loses_no_items() {
    // A MUTEX entry sleeps on a futex word: notify_one requeues onto it.
    mpmc_loses_no_items(LockKind::Mutex);
    // A default GLK entry spins (no park address): most notifies find no
    // waiter and return at once, the rest take the plain wake.
    mpmc_loses_no_items(LockKind::Glk);
}

/// Condvar correctness under MPMC churn on a `kind` entry: producers notify
/// while *holding* the mutex (so on a futex-backed mutex every notify that
/// finds a waiter requeues it, and the mutex release wakes it), consumers
/// wait in the standard predicate loop. Every produced item must be
/// consumed exactly once.
fn mpmc_loses_no_items(kind: LockKind) {
    struct Queue(std::cell::UnsafeCell<std::collections::VecDeque<u64>>);
    // SAFETY: the queue cell is only touched while holding the service
    // mutex at `addr`.
    unsafe impl Sync for Queue {}
    const PRODUCERS: u64 = 3;
    const CONSUMERS: usize = 4;
    const PER_PRODUCER: u64 = 3_000;

    let svc = Arc::new(GlsService::new());
    let cv = Arc::new(GlsCondvar::new());
    let queue = Arc::new(Queue(std::cell::UnsafeCell::new(Default::default())));
    let addr = 0xCAFE;
    svc.lock_with(kind, addr).unwrap();
    svc.unlock(addr).unwrap();
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let (svc, cv, queue, done) = (
                Arc::clone(&svc),
                Arc::clone(&cv),
                Arc::clone(&queue),
                Arc::clone(&done),
            );
            std::thread::spawn(move || {
                let mut sum = 0u64;
                loop {
                    svc.lock(addr).unwrap();
                    let item = loop {
                        // SAFETY: guarded by the GLS mutex on `addr`.
                        let q = unsafe { &mut *queue.0.get() };
                        if let Some(item) = q.pop_front() {
                            break Some(item);
                        }
                        if done.load(Ordering::Acquire) {
                            break None;
                        }
                        svc.wait(&cv, addr).unwrap();
                    };
                    svc.unlock(addr).unwrap();
                    match item {
                        Some(v) => sum += v,
                        None => return sum,
                    }
                }
            })
        })
        .collect();

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let (svc, cv, queue) = (Arc::clone(&svc), Arc::clone(&cv), Arc::clone(&queue));
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    svc.lock(addr).unwrap();
                    // SAFETY: guarded by the GLS mutex on `addr`.
                    unsafe { (*queue.0.get()).push_back(p * PER_PRODUCER + i + 1) };
                    // Notify while holding the mutex: a waiter on a futex
                    // word is requeued onto it and woken by the unlock below.
                    svc.notify_one(&cv, addr);
                    svc.unlock(addr).unwrap();
                }
            })
        })
        .collect();
    for h in producers {
        h.join().unwrap();
    }
    svc.lock(addr).unwrap();
    done.store(true, Ordering::Release);
    svc.notify_all(&cv, addr);
    svc.unlock(addr).unwrap();

    let consumed: u64 = consumers.into_iter().map(|h| h.join().unwrap()).sum();
    let n = PRODUCERS * PER_PRODUCER;
    assert_eq!(
        consumed,
        n * (n + 1) / 2,
        "{kind:?}: every produced item consumed exactly once"
    );
    assert_eq!(cv.waiters(), 0);
}

#[test]
fn requeued_waiters_survive_glk_leaving_mutex_mode() {
    // Regression for the requeue/mode-switch interaction: condvar waiters
    // requeued onto a futex-backed mutex never re-release the futex word
    // (they re-acquire through GLK's *current* mode), so the release of the
    // acquisition that moves GLK out of mutex mode must *broadcast* to the
    // word's queue — with a one-wakeup release, everyone queued behind the
    // next waiter would sleep under a word nobody releases again.
    use gls::glk::{GlkMode, MonitorHandle, INITIAL_CALM_ROUNDS};
    const WAITERS: u64 = 3;
    // Each waiter's first acquisition, the notifier's, then the first
    // requeued waiter's re-acquisition: that one is the adaptation tick.
    const TICK: u64 = WAITERS + 2;
    // A registry of the test's own: nobody registers, so it stays calm.
    let monitor = Arc::new(gls_runtime::SystemLoadMonitor::new());
    let config = GlsConfig::default()
        .with_monitor(MonitorHandle::Custom(Arc::clone(&monitor)))
        .with_glk(
            GlkConfig::default()
                .with_initial_mode(GlkMode::Mutex)
                .with_adaptation_period(TICK)
                .with_sampling_period(1),
        );
    let svc = Arc::new(GlsService::with_config(config));
    let cv = Arc::new(GlsCondvar::new());
    let addr = 0x9A7E;
    let woken = Arc::new(AtomicU64::new(0));
    let waiters: Vec<_> = (0..WAITERS)
        .map(|_| {
            let (svc, cv, woken) = (Arc::clone(&svc), Arc::clone(&cv), Arc::clone(&woken));
            std::thread::spawn(move || {
                svc.lock(addr).unwrap();
                svc.wait(&cv, addr).unwrap();
                svc.unlock(addr).unwrap();
                woken.fetch_add(1, Ordering::Release);
            })
        })
        .collect();
    while cv.waiters() < WAITERS {
        std::thread::yield_now();
    }
    // Hold the mutex and morph the whole broadcast onto its futex word.
    svc.lock(addr).unwrap();
    assert_eq!(svc.notify_all(&cv, addr) as u64, WAITERS);
    // Leaving mutex mode takes this much uninterrupted calm.
    while monitor.calm_ticks() < INITIAL_CALM_ROUNDS {
        std::thread::sleep(Duration::from_micros(100));
    }
    // This release wakes one requeued waiter; its re-acquisition adapts
    // mutex -> ticket, and the release of *that* stale hold must broadcast,
    // or the other two strand under the abandoned futex word.
    svc.unlock(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while woken.load(Ordering::Acquire) < WAITERS {
        assert!(
            Instant::now() < deadline,
            "requeued waiters stranded when GLK left mutex mode ({} of {WAITERS} woke)",
            woken.load(Ordering::Acquire)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    for h in waiters {
        h.join().unwrap();
    }
    // 2·WAITERS + 1 acquisitions (one retried) stay below the second tick
    // at 2·TICK, so the one transition is the tick at TICK: the first
    // requeued waiter's re-acquisition left mutex mode.
    assert_eq!(svc.telemetry_snapshot().glk_transitions, 1);
}
