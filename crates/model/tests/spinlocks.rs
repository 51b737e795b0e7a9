//! Model checks for the pure spin algorithms (TTAS, ticket, MCS).
//!
//! These were stress-only until the bounded-spin shim: a spinning virtual
//! thread used to hold the baton forever, so exhaustive DFS could never
//! get past the first contended acquisition. Now `gls_sync::hint::spin_loop`
//! parks the spinner after a small budget and any other thread's progress
//! re-readies it, so the same three algorithms the stress suite hammers run
//! under the explorer — and, since the critical sections mutate a
//! [`ModelCell`], under the happens-before race detector too: a lock that
//! admitted two holders would fail as a lost increment *and* as a data
//! race, on the exact interleaving that produced it.
//!
//! Run with `RUSTFLAGS="--cfg gls_model" cargo test -p gls_model --test
//! spinlocks`.

#![cfg(gls_model)]

use std::sync::Arc;

use gls_locks::{McsLock, QueueInformed, RawLock, TicketLock, TtasLock};
use gls_model::{Explorer, FailureKind};
use gls_sync::atomic::{AtomicUsize, Ordering};
use gls_sync::cell::ModelCell;
use gls_sync::thread;

/// A model body: `threads` threads increment a plain value under a lock
/// from `make`, then the root checks the count, that the lock is free and
/// `drained`. Any schedule admitting two holders loses an increment
/// (assertion) or, more precisely, races on the cell (race detector).
fn increments_under<L: RawLock + Send + Sync + 'static>(
    threads: usize,
    make: fn() -> L,
    drained: fn(&L),
) -> impl Fn() + Send + Sync + 'static {
    move || {
        let lock = Arc::new(make());
        let counter = Arc::new(ModelCell::new(0usize));
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    lock.lock();
                    // SAFETY: serialized by the lock under test — the claim
                    // the race detector verifies on every schedule.
                    counter.with_mut(|p| unsafe { *p += 1 });
                    lock.unlock();
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("model worker panicked");
        }
        // SAFETY: every writer has joined.
        let total = counter.with(|p| unsafe { *p });
        assert_eq!(total, threads, "an increment was lost under the lock");
        assert!(!lock.is_locked(), "lock left held after drain");
        drained(&lock);
    }
}

/// Exhaustive mutual-exclusion check with two threads.
fn check_mutual_exclusion<L: RawLock + Default + Send + Sync + 'static>(name: &'static str) {
    Explorer::exhaustive().check(name, increments_under(2, L::default, |_| {}));
}

#[test]
fn ttas_mutual_exclusion() {
    check_mutual_exclusion::<TtasLock>("ttas-mutex");
}

#[test]
fn ticket_mutual_exclusion() {
    check_mutual_exclusion::<TicketLock>("ticket-mutex");
}

#[test]
fn mcs_mutual_exclusion() {
    check_mutual_exclusion::<McsLock>("mcs-mutex");
}

/// Three threads through one MCS lock: every queue shape a holder can
/// leave (no successor, a linked one, one still linking behind `HELD` or
/// behind a node), and the holder+waiter count back at 0 after the drain.
///
/// Seeded random sweep rather than exhaustive DFS: the exhaustive tree
/// takes about 31 s in a debug build on a 2-context x86-64 machine, over
/// half the 60 s model budget on its own, while a fixed-seed
/// 2000-schedule sweep covers the three-deep queue many times over in a
/// few seconds and replays bit-for-bit.
#[test]
fn mcs_three_threads_keep_exclusion_and_drain_the_count() {
    Explorer::random(2_000, 0x3c5).check(
        "mcs-3-threads",
        increments_under(3, McsLock::new, |lock| {
            assert_eq!(lock.queue_length(), 0, "queue count left non-zero");
        }),
    );
}

/// Three workers take the lock in turn, and each releases only once the
/// previous holder's `unlock` has returned, so no `unlock` can read a
/// `next` that an earlier one has yet to clear. The root checks the count
/// and that the lock ended free.
///
/// The relay is what keeps the seeded bug reportable: with two plain
/// threads its one failing schedule has the successor's `unlock` read the
/// stale `next` naming its own node, and write into its `lock` frame after
/// that frame has returned, which can kill the test binary instead of
/// failing the exploration.
fn mcs_relay(seeded: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let lock = Arc::new(McsLock::new());
        if seeded {
            lock.model_wake_before_clear();
        }
        let turns = Arc::new(ModelCell::new(0usize));
        let released = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let (lock, turns, released) =
                    (Arc::clone(&lock), Arc::clone(&turns), Arc::clone(&released));
                thread::spawn(move || {
                    lock.lock();
                    // SAFETY: serialized by the lock under test.
                    let turn = turns.with_mut(|p| unsafe {
                        *p += 1;
                        *p - 1
                    });
                    while released.load(Ordering::Acquire) != turn {
                        gls_sync::hint::spin_loop();
                    }
                    lock.unlock();
                    released.fetch_add(1, Ordering::Release);
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("model worker panicked");
        }
        // SAFETY: every writer has joined.
        assert_eq!(turns.with(|p| unsafe { *p }), 3, "a turn was lost");
        assert!(!lock.is_locked(), "lock left held after drain");
    }
}

/// Seeded bug — an `unlock` that wakes the successor before clearing
/// `next` races the successor, which owns `next` once admitted: a
/// successor that found a waiter linked behind it stores that waiter in
/// `next`, the late clear wipes it out, and the waiter is never woken. It
/// and the releasing successor spin (and yield) forever, which the
/// explorer reports as a step-limit livelock. The explorer must find that
/// schedule, and the shipped order must pass the same relay.
#[test]
fn rediscovers_the_mcs_wake_before_clear_bug() {
    let failure = Explorer::exhaustive()
        .find_failure("mcs-wake-before-clear", mcs_relay(true))
        .expect("the explorer must catch the wake before the clear");
    assert_eq!(
        failure.kind,
        FailureKind::StepLimit,
        "expected the queued waiter stranded, got: {failure}"
    );
    // Exhaustively the shipped relay overruns the 60 s budget (three
    // spinning threads); a seeded sweep covers it.
    Explorer::random(2_000, 0xc1ea7).check("mcs-clear-before-wake", mcs_relay(false));
}

/// FIFO admission: the root holds the lock while a waiter draws its
/// ticket (the root releases only once `queue_length` shows the draw),
/// then the root re-draws. A FIFO lock must admit the queued waiter
/// before the root's later ticket on every schedule; a lock that let the
/// re-acquirer barge would record the root first.
///
/// Seeded random sweep rather than exhaustive DFS: with both threads in
/// spin loops (the waiter on `owner`, the root on `queue_length`), every
/// schedule point where both are spin-parked forks the tree on which one
/// the scheduler resumes — a *voluntary* switch the preemption bound
/// doesn't cap — so the exhaustive tree is exponential in the spin
/// depth and runs for minutes. A deterministic 1000-schedule sweep
/// covers the handoff window (release store vs waiter probe vs re-draw)
/// many times over, replays bit-for-bit from the fixed seed, and stays
/// well inside the CI runtime budget.
#[test]
fn ticket_admission_is_fifo() {
    Explorer::random(1_000, 0x7160).check("ticket-fifo", || {
        let lock = Arc::new(TicketLock::new());
        let order = Arc::new(ModelCell::new(Vec::new()));
        lock.lock();
        let waiter = {
            let lock = Arc::clone(&lock);
            let order = Arc::clone(&order);
            thread::spawn(move || {
                lock.lock();
                // SAFETY: serialized by the ticket lock.
                order.with_mut(|p| unsafe { (*p).push(1u32) });
                lock.unlock();
            })
        };
        // Hold until the waiter's ticket is visibly drawn, so the draw
        // order (waiter first, root's re-draw second) is pinned on every
        // schedule and only the admission order is left to the lock.
        while lock.queue_length() < 2 {
            gls_sync::hint::spin_loop();
        }
        lock.unlock();
        lock.lock();
        // SAFETY: serialized by the ticket lock.
        order.with_mut(|p| unsafe { (*p).push(2u32) });
        lock.unlock();
        waiter.join().expect("model waiter panicked");
        // SAFETY: every writer has joined.
        let served = order.with(|p| unsafe { (*p).clone() });
        assert_eq!(served, vec![1, 2], "ticket lock admitted out of draw order");
    });
}

/// The race detector covers the spin suites for free: a thread that
/// touches the shared value *without* taking the lock is flagged as a data
/// race — with the schedule — even on interleavings where the final count
/// happens to come out right.
#[test]
fn missing_lock_acquisition_is_flagged_as_a_race() {
    let failure = Explorer::exhaustive()
        .find_failure("ttas-missing-lock", || {
            let lock = Arc::new(TtasLock::new());
            let counter = Arc::new(ModelCell::new(0u64));
            let disciplined = {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    lock.lock();
                    // SAFETY: serialized by the lock.
                    counter.with_mut(|p| unsafe { *p += 1 });
                    lock.unlock();
                })
            };
            let rogue = {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    // The seeded bug: no lock acquisition around the access.
                    // SAFETY: dereference of a live allocation; the missing
                    // synchronization is exactly what the test expects the
                    // detector to flag.
                    counter.with_mut(|p| unsafe { *p += 1 });
                })
            };
            disciplined.join().expect("model worker panicked");
            rogue.join().expect("model worker panicked");
        })
        .expect("the explorer must flag the unlocked access");
    assert_eq!(
        failure.kind,
        FailureKind::Race,
        "expected a data race, got: {failure}"
    );
}
