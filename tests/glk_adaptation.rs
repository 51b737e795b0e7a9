//! Cross-crate integration tests for GLK adaptation: the lock must pick the
//! mode the paper predicts for each contention regime and must keep mutual
//! exclusion while switching.

// Integration stress tests drive real OS threads on wall-clock time;
// raw std sync and sleeps are the point here (see clippy.toml).
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gls::glk::{GlkConfig, GlkLock, GlkMode, MonitorHandle};
use gls_runtime::SystemLoadMonitor;

fn fast_config() -> GlkConfig {
    GlkConfig::default()
        .with_adaptation_period(256)
        .with_sampling_period(16)
}

fn run_contended(lock: &Arc<GlkLock>, threads: usize, cs_cycles: u64, duration: Duration) -> u64 {
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let lock = Arc::clone(lock);
            let stop = Arc::clone(&stop);
            let total = Arc::clone(&total);
            std::thread::spawn(move || {
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    lock.lock();
                    gls_runtime::spin_cycles(cs_cycles);
                    lock.unlock();
                    local += 1;
                }
                total.fetch_add(local, Ordering::Relaxed);
            })
        })
        .collect();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    total.load(Ordering::Relaxed)
}

#[test]
fn single_threaded_lock_stays_in_ticket_mode() {
    let lock = GlkLock::with_config(fast_config());
    for _ in 0..10_000 {
        lock.lock();
        lock.unlock();
    }
    assert_eq!(lock.mode(), GlkMode::Ticket);
    assert_eq!(lock.acquisitions(), 10_000);
    assert_eq!(lock.stats().transitions(), 0);
}

#[test]
fn contended_lock_adapts_to_mcs_and_back() {
    let monitor = Arc::new(SystemLoadMonitor::new());
    let lock = Arc::new(GlkLock::with_config_and_monitor(
        fast_config(),
        MonitorHandle::Custom(monitor),
    ));

    // Phase 1: 8 threads hammer the lock; it should switch to mcs mode.
    let ops = run_contended(&lock, 8, 600, Duration::from_millis(800));
    assert!(ops > 0);
    assert_eq!(
        lock.mode(),
        GlkMode::Mcs,
        "high contention should move GLK to mcs (smoothed queue = {:.2})",
        lock.smoothed_queue()
    );

    // Phase 2: contention disappears; the lock should fall back to ticket.
    for _ in 0..5_000 {
        lock.lock();
        lock.unlock();
    }
    assert_eq!(lock.mode(), GlkMode::Ticket);

    // Both directions were counted.
    assert!(lock.stats().transitions() >= 2);
}

#[test]
fn multiprogramming_moves_contended_lock_to_mutex_mode() {
    let monitor = Arc::new(SystemLoadMonitor::new());
    let hw = gls_runtime::hardware_contexts();
    let guards: Vec<_> = (0..hw * 2 + 4).map(|_| monitor.runnable_guard()).collect();
    assert!(monitor.is_multiprogrammed());

    let lock = Arc::new(GlkLock::with_config_and_monitor(
        fast_config(),
        MonitorHandle::Custom(Arc::clone(&monitor)),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let lock = Arc::clone(&lock);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    lock.lock();
                    gls_runtime::spin_cycles(400);
                    lock.unlock();
                }
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut mode = lock.mode();
    while mode != GlkMode::Mutex && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        mode = lock.mode();
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    // Judge the mode seen under contention: as the workers stop, the queue
    // drains and a lightly contended lock may go back to ticket.
    assert_eq!(mode, GlkMode::Mutex);
    drop(guards);
}

#[test]
fn mutual_exclusion_holds_across_thousands_of_adaptations() {
    // Tiny periods force constant re-evaluation; a non-atomic counter exposes
    // any mutual-exclusion gap during mode switches.
    struct Shared(std::cell::UnsafeCell<u64>);
    // SAFETY: the cell is only touched while holding the lock under test;
    // that exclusion is exactly what the test verifies.
    unsafe impl Sync for Shared {}

    let lock = Arc::new(GlkLock::with_config(
        GlkConfig::default()
            .with_adaptation_period(32)
            .with_sampling_period(4),
    ));
    let shared = Arc::new(Shared(std::cell::UnsafeCell::new(0)));
    let threads = 8;
    let iters = 20_000u64;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let lock = Arc::clone(&lock);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for _ in 0..iters {
                    lock.lock();
                    // SAFETY: written while holding the lock under test.
                    unsafe { *shared.0.get() += 1 };
                    lock.unlock();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // SAFETY: all worker threads are joined; nothing races this read.
    assert_eq!(unsafe { *shared.0.get() }, threads as u64 * iters);
    // `num_acquired` counts low-level acquisitions, which includes the extra
    // acquisition performed when a thread adapts the mode and retries, so it
    // can slightly exceed the number of critical sections.
    assert!(lock.acquisitions() >= threads as u64 * iters);
    assert!(lock.acquisitions() < threads as u64 * iters + 10_000);
}

#[test]
fn try_lock_never_blocks_and_never_double_grants() {
    let lock = Arc::new(GlkLock::with_config(fast_config()));
    let holders = Arc::new(AtomicU64::new(0));
    let violations = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let lock = Arc::clone(&lock);
            let holders = Arc::clone(&holders);
            let violations = Arc::clone(&violations);
            std::thread::spawn(move || {
                for _ in 0..50_000 {
                    if lock.try_lock() {
                        if holders.fetch_add(1, Ordering::AcqRel) != 0 {
                            violations.fetch_add(1, Ordering::Relaxed);
                        }
                        holders.fetch_sub(1, Ordering::AcqRel);
                        lock.unlock();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(violations.load(Ordering::Relaxed), 0);
}
