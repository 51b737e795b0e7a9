//! Collision stress for the fixed parking-lot bucket table: thousands of
//! simultaneously *contended* locks (each with a parked waiter) share the
//! 64 bucket mutexes, and every waiter must still be found under its own
//! address and woken.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gls_locks::park::DEFAULT_PARK_TOKEN;
use gls_locks::{FutexLock, ParkResult, ParkingLot, QueueInformed, RawLock};

#[test]
fn four_thousand_waiters_share_a_fixed_table_and_all_wake() {
    // A dedicated lot of the production size (64 buckets). Each thread
    // parks under a distinct address — the "one contended lock with one
    // parked waiter" shape — with small stacks so >4k OS threads stay
    // cheap. About 65 waiters end up in every bucket.
    const LOCKS: usize = 4_200;
    let lot = Arc::new(ParkingLot::with_buckets(64));
    let parked = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..LOCKS)
        .map(|i| {
            let lot = Arc::clone(&lot);
            let parked = Arc::clone(&parked);
            std::thread::Builder::new()
                .stack_size(96 * 1024)
                .spawn(move || {
                    lot.park(
                        0x10_0000 + i * 64,
                        DEFAULT_PARK_TOKEN,
                        || {
                            parked.fetch_add(1, Ordering::Relaxed);
                            true
                        },
                        || {},
                        None,
                    )
                })
                .expect("spawning a parker")
        })
        .collect();
    // `parked` counts validations, which run just before a waiter is
    // queued and counted by the lot: wait for the lot's own count too.
    while parked.load(Ordering::Relaxed) < LOCKS || lot.total_parked() < LOCKS {
        std::thread::yield_now();
    }
    assert_eq!(lot.total_parked(), LOCKS);
    // Every waiter is reachable under its own address despite sharing a
    // bucket with ~65 others...
    for i in (0..LOCKS).step_by(97) {
        assert_eq!(lot.parked_count(0x10_0000 + i * 64), 1);
    }
    // ...and every single one wakes.
    for i in 0..LOCKS {
        assert_eq!(lot.unpark_all(0x10_0000 + i * 64, 7), 1);
    }
    for h in handles {
        assert!(matches!(h.join().unwrap(), ParkResult::Unparked(_)));
    }
    assert_eq!(lot.total_parked(), 0);
}

#[test]
fn global_lot_serves_hundreds_of_contended_futex_locks() {
    // Drive more simultaneously-contended futex locks through the *global*
    // lot than it has buckets; lock operations (and their queue_length
    // accounting) must be oblivious to the collisions.
    const LOCKS: usize = 256;
    let locks: Arc<Vec<FutexLock>> = Arc::new((0..LOCKS).map(|_| FutexLock::new()).collect());
    for lock in locks.iter() {
        lock.lock();
    }
    let waiters: Vec<_> = (0..LOCKS)
        .map(|i| {
            let locks = Arc::clone(&locks);
            std::thread::Builder::new()
                .stack_size(96 * 1024)
                .spawn(move || {
                    locks[i].lock();
                    locks[i].unlock();
                })
                .expect("spawning a waiter")
        })
        .collect();
    // Wait until every lock reports its parked waiter.
    for lock in locks.iter() {
        while lock.queue_length() < 2 {
            std::thread::yield_now();
        }
    }
    assert!(
        ParkingLot::global().total_parked() >= LOCKS,
        "every contended lock has a waiter asleep in the global lot"
    );
    for lock in locks.iter() {
        lock.unlock();
    }
    for h in waiters {
        h.join().unwrap();
    }
    for lock in locks.iter() {
        assert!(!lock.is_locked());
        assert_eq!(lock.queue_length(), 0);
    }
}
