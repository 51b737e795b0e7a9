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
use gls_sync::cell::ModelCell;
use gls_sync::thread;

/// Exhaustive mutual-exclusion check: two threads increment a plain value
/// under the lock. Any schedule admitting two holders loses an increment
/// (assertion) or, more precisely, races on the cell (race detector).
fn check_mutual_exclusion<L: RawLock + Default + Send + Sync + 'static>(name: &'static str) {
    Explorer::exhaustive().check(name, || {
        let lock = Arc::new(L::default());
        let counter = Arc::new(ModelCell::new(0u64));
        let workers: Vec<_> = (0..2)
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
        assert_eq!(total, 2, "an increment was lost under the lock");
        assert!(!lock.is_locked(), "lock left held after drain");
    });
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
