//! Word-sized blocking mutex parked on the shared parking lot: the paper's
//! MUTEX ([`LockKind::Mutex`](crate::LockKind::Mutex)).
//!
//! Like glibc's `pthread_mutex`, the entire lock is **one `AtomicU32`**
//! (asserted by a size test); all wait-queue state lives in the central
//! [`ParkingLot`], keyed by the lock's address — the futex idiom, in
//! userspace. That is what lets the middleware keep any number of live
//! blocking locks.
//!
//! The acquisition protocol is spin-then-park: a bounded
//! [`SpinWait`] phase (blocking through the lot costs far more than a short
//! critical section), then the waiter raises the `PARKED` bit and parks.
//! Every contended release wakes the queue head — the longest-parked
//! waiter, through [`ParkingLot::unpark_one`], one allocation-free
//! walk of its bucket. The woken waiter normally re-contends with arriving
//! threads (barging), like a futex mutex — but the bypass is **bounded**:
//! the lock word counts consecutive contended wakeups, and once the streak
//! reaches [`HANDOFF_WAKEUPS`] the release passes ownership *directly* to
//! the head (a handoff unpark token; the `LOCKED` bit never clears, so
//! bargers cannot steal the slot). A parked waiter can therefore be
//! bypassed at most a bounded number of times before it is served. Strict
//! FIFO admission remains the domain of ticket and MCS.

use gls_runtime::flight::{self, FlightEventKind};
use gls_sync::atomic::{AtomicU32, Ordering};

use crate::park::{ParkResult, ParkingLot, DEFAULT_PARK_TOKEN, DEFAULT_UNPARK_TOKEN};
use crate::raw::{QueueInformed, RawLock, RawTryLock};
use crate::spin_wait::SpinWait;

/// The lock-held bit.
const LOCKED: u32 = 1;
/// Set while at least one waiter is (or is about to be) parked.
const PARKED: u32 = 2;
/// Bits counting consecutive contended wakeups (the handoff streak). Only
/// the releasing holder writes them, and only while `PARKED` is set; an
/// uncontended release always leaves the word at 0.
const STREAK_SHIFT: u32 = 2;
const STREAK_MASK: u32 = 0b111 << STREAK_SHIFT;

/// After this many consecutive contended wakeups the release hands the lock
/// directly to the woken waiter instead of letting it re-contend. Bounds
/// how often a parked waiter can be barged past. The model build shortens
/// the streak so exhaustive exploration reaches the handoff path within the
/// preemption budget; the bound-vs-handoff logic is identical.
#[cfg(not(gls_model))]
pub const HANDOFF_WAKEUPS: u32 = 4;
/// Model-build value of the handoff streak bound (see above).
#[cfg(gls_model)]
pub const HANDOFF_WAKEUPS: u32 = 2;

/// Unpark token meaning "the lock is yours": the releaser kept `LOCKED`
/// set on the woken waiter's behalf.
const HANDOFF_UNPARK_TOKEN: usize = 1;

/// Number of bounded-spin rounds before a waiter parks. A single model
/// round covers the spin-vs-park split without exploding the state space.
#[cfg(not(gls_model))]
const SPIN_ATTEMPTS: u32 = 32;
#[cfg(gls_model)]
const SPIN_ATTEMPTS: u32 = 1;

/// A word-sized blocking (spin-then-park) mutual-exclusion lock.
///
/// The whole lock is one `AtomicU32`; waiters sleep in the global
/// [`ParkingLot`] keyed by this lock's address. Unlike the other locks in
/// this crate it is deliberately **not** cache-padded: its reason to exist
/// is density (millions of live locks), and callers that want padding can
/// wrap it in [`CachePadded`](crate::CachePadded).
///
/// # Example
///
/// ```
/// use gls_locks::{FutexLock, RawLock};
///
/// let lock = FutexLock::new();
/// lock.lock();
/// lock.unlock();
/// assert_eq!(std::mem::size_of::<FutexLock>(), 4);
/// ```
#[derive(Debug, Default)]
pub struct FutexLock {
    state: AtomicU32,
}

impl FutexLock {
    /// Creates an unlocked futex mutex.
    pub const fn new() -> Self {
        Self {
            state: AtomicU32::new(0),
        }
    }

    /// The parking-lot key: the address of the lock word.
    #[inline]
    fn addr(&self) -> usize {
        &self.state as *const AtomicU32 as usize
    }

    #[inline]
    fn try_acquire_fast(&self) -> bool {
        self.state
            .compare_exchange_weak(0, LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    #[cold]
    fn lock_slow(&self) {
        flight::record(FlightEventKind::SlowPathAcquire, self.addr(), 0);
        let lot = ParkingLot::global();
        let mut wait = SpinWait::new();
        let mut spins = 0u32;
        loop {
            let state = self.state.load(Ordering::Relaxed);
            // Free (parked waiters or not): barge in, preserving the parked
            // and streak bits.
            if state & LOCKED == 0 {
                if self
                    .state
                    .compare_exchange_weak(
                        state,
                        state | LOCKED,
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    return;
                }
                continue;
            }
            // Bounded spin phase while nobody is parked yet; `spin_bounded`
            // never yields — the fallback for long waits is parking below.
            if state & PARKED == 0 {
                if spins < SPIN_ATTEMPTS {
                    spins += 1;
                    wait.spin_bounded();
                    continue;
                }
                if self
                    .state
                    .compare_exchange_weak(
                        state,
                        state | PARKED,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
                    .is_err()
                {
                    continue;
                }
            }
            // Sleep until a release hands the parked bit to us. The
            // validation re-check runs under the bucket lock, closing the
            // race with a release that ran between our load and the park.
            let result = lot.park(
                self.addr(),
                DEFAULT_PARK_TOKEN,
                || {
                    let s = self.state.load(Ordering::Relaxed);
                    s & (LOCKED | PARKED) == LOCKED | PARKED
                },
                || {},
                None,
            );
            // A handoff wake means the releaser kept LOCKED set on our
            // behalf: the lock is ours, no re-contention.
            if result == ParkResult::Unparked(HANDOFF_UNPARK_TOKEN) {
                return;
            }
            // Woken normally (or the state changed): retry from the top.
            wait.reset();
            spins = 0;
        }
    }

    #[cold]
    fn unlock_slow(&self) {
        // The parked bit is set: wake the queue head. Only the holder writes
        // the streak bits, so reading them outside the bucket lock is
        // race-free. The state store happens in the callback, under the
        // bucket lock, so a thread concurrently validating its park sees a
        // consistent word.
        let streak = (self.state.load(Ordering::Relaxed) & STREAK_MASK) >> STREAK_SHIFT;
        // Streak exhausted: hand the lock to the head.
        let handoff_due = streak + 1 >= HANDOFF_WAKEUPS;
        let token = if handoff_due {
            HANDOFF_UNPARK_TOKEN
        } else {
            DEFAULT_UNPARK_TOKEN
        };
        let result = ParkingLot::global().unpark_one(self.addr(), token, |result| {
            let state = if result.unparked == 0 {
                // Nobody enqueued yet (the waiter that raised the parked
                // bit fails its validation on this word): plain release,
                // streak over.
                0
            } else if handoff_due {
                // Ownership transfers to the woken waiter: LOCKED stays
                // set so bargers cannot steal the slot; streak resets.
                LOCKED | if result.have_more { PARKED } else { 0 }
            } else if result.have_more {
                // Contended wakeup with waiters remaining: release and
                // advance the streak (saturating at the mask).
                let next = (streak + 1).min(STREAK_MASK >> STREAK_SHIFT);
                PARKED | (next << STREAK_SHIFT)
            } else {
                0
            };
            self.state.store(state, Ordering::Release);
        });
        // Outside the bucket critical section.
        if handoff_due && result.unparked == 1 {
            flight::record(
                FlightEventKind::Handoff,
                self.addr(),
                u64::from(result.have_more),
            );
        }
    }
}

impl RawLock for FutexLock {
    #[inline]
    fn lock(&self) {
        if !self.try_acquire_fast() {
            self.lock_slow();
        }
    }

    /// Releases the lock. With waiters parked, the release wakes the queue
    /// head; every [`HANDOFF_WAKEUPS`]-th consecutive contended release
    /// hands the lock to that head directly instead of letting it
    /// re-contend.
    #[inline]
    fn unlock(&self) {
        if self
            .state
            .compare_exchange(LOCKED, 0, Ordering::Release, Ordering::Relaxed)
            .is_err()
        {
            self.unlock_slow();
        }
    }

    fn is_locked(&self) -> bool {
        self.state.load(Ordering::Relaxed) & LOCKED != 0
    }
}

impl RawTryLock for FutexLock {
    #[inline]
    fn try_lock(&self) -> bool {
        // fetch_or also succeeds on a free-but-parked word (a waiter may be
        // mid-park): barging is part of the protocol.
        self.state.fetch_or(LOCKED, Ordering::Acquire) & LOCKED == 0
    }
}

impl QueueInformed for FutexLock {
    /// Holder plus *parked* waiters. Spinning waiters are invisible — their
    /// wait is bounded to a few microseconds, so the sampled queue GLK uses
    /// for adaptation is dominated by the parked population anyway.
    fn queue_length(&self) -> u64 {
        let held = u64::from(self.state.load(Ordering::Relaxed) & LOCKED != 0);
        held + ParkingLot::global().parked_count(self.addr()) as u64
    }
}

#[cfg(test)]
// Raw std sync and wall-clock sleeps are fine in stress tests: they pace
// real threads, not modeled ones (see clippy.toml).
#[allow(clippy::disallowed_types, clippy::disallowed_methods)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn raw_state_is_one_word() {
        assert_eq!(std::mem::size_of::<FutexLock>(), 4);
        assert_eq!(std::mem::align_of::<FutexLock>(), 4);
    }

    #[test]
    fn lock_unlock_single_thread() {
        let lock = FutexLock::new();
        assert!(!lock.is_locked());
        lock.lock();
        assert!(lock.is_locked());
        assert_eq!(lock.queue_length(), 1);
        lock.unlock();
        assert!(!lock.is_locked());
        assert_eq!(lock.queue_length(), 0);
    }

    #[test]
    fn try_lock_semantics() {
        let lock = FutexLock::new();
        assert!(lock.try_lock());
        assert!(!lock.try_lock());
        lock.unlock();
        assert!(lock.try_lock());
        lock.unlock();
    }

    #[test]
    fn provides_mutual_exclusion() {
        crate::test_support::check_mutual_exclusion::<FutexLock>(8, 20_000);
    }

    #[test]
    fn parked_waiters_are_woken() {
        // Hold the lock long enough that waiters exhaust the spin budget and
        // park in the shared lot, then release and check they all finish.
        let lock = Arc::new(FutexLock::new());
        lock.lock();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&lock);
                std::thread::spawn(move || {
                    l.lock();
                    l.unlock();
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        assert!(lock.queue_length() > 1, "waiters should have parked");
        lock.unlock();
        for h in handles {
            h.join().unwrap();
        }
        assert!(!lock.is_locked());
        assert_eq!(lock.queue_length(), 0);
        assert_eq!(lock.state.load(Ordering::Relaxed), 0, "parked bit cleared");
    }

    #[test]
    fn heavy_handover_does_not_deadlock() {
        let lock = Arc::new(FutexLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..12)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        lock.lock();
                        counter.fetch_add(1, Ordering::Relaxed);
                        lock.unlock();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 60_000);
        assert_eq!(lock.state.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn parked_waiter_bypass_is_bounded_under_oversubscription() {
        // Regression test for unbounded barging: a parked waiter must get
        // the lock after a bounded number of contended wakeups even while
        // bargers keep stealing the word. The handoff streak guarantees
        // that every HANDOFF_WAKEUPS-th consecutive contended wakeup hands
        // the lock directly to the queue head (LOCKED never clears, so the
        // bargers cannot steal that slot); without it this test livelocks
        // the victim for unbounded stretches under oversubscription.
        use std::sync::atomic::AtomicBool;
        let lock = Arc::new(FutexLock::new());
        let victim_done = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        lock.lock();
        let victim = {
            let lock = Arc::clone(&lock);
            let done = Arc::clone(&victim_done);
            std::thread::spawn(move || {
                lock.lock();
                done.store(true, Ordering::Release);
                lock.unlock();
            })
        };
        // Wait until the victim is parked (holder + parked waiter >= 2).
        while lock.queue_length() < 2 {
            std::thread::yield_now();
        }
        let bargers: Vec<_> = (0..8)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut ops = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        lock.lock();
                        std::hint::spin_loop();
                        lock.unlock();
                        ops += 1;
                    }
                    ops
                })
            })
            .collect();
        lock.unlock();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !victim_done.load(Ordering::Acquire) {
            assert!(
                std::time::Instant::now() < deadline,
                "parked waiter starved behind barging threads"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = bargers.into_iter().map(|h| h.join().unwrap()).sum();
        victim.join().unwrap();
        assert!(total > 0, "bargers must have run");
        assert_eq!(lock.state.load(Ordering::Relaxed), 0, "word fully clears");
    }

    #[test]
    fn handoff_keeps_the_word_consistent_under_churn() {
        // Heavy handover traffic drives the streak through handoffs over
        // and over; mutual exclusion and full word cleanup must survive.
        let lock = Arc::new(FutexLock::new());
        struct Shared(std::cell::UnsafeCell<u64>);
        // SAFETY: the cell is only touched while holding the lock under
        // test; that exclusion is exactly what the test verifies.
        unsafe impl Sync for Shared {}
        let shared = Arc::new(Shared(std::cell::UnsafeCell::new(0)));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        lock.lock();
                        // Non-atomic increment: lost updates reveal a
                        // broken handoff (two owners at once).
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
        assert_eq!(unsafe { *shared.0.get() }, 80_000);
        assert_eq!(lock.state.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn due_handoff_keeps_the_word_locked_for_the_queue_head() {
        // One waiter parks under the lock's address, and the holder's
        // release finds the streak due: the head gets the handoff token,
        // the word keeps LOCKED on its behalf, and the handoff is recorded
        // with nobody left parked behind the new holder.
        use crate::park::DEFAULT_PARK_TOKEN;
        use gls_runtime::flight::{self, FlightEventKind};
        let lock = Arc::new(FutexLock::new());
        lock.state.store(
            LOCKED | PARKED | ((HANDOFF_WAKEUPS - 1) << STREAK_SHIFT),
            Ordering::Relaxed,
        );
        let waiter = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                ParkingLot::global().park(lock.addr(), DEFAULT_PARK_TOKEN, || true, || {}, None)
            })
        };
        while ParkingLot::global().parked_count(lock.addr()) == 0 {
            std::thread::yield_now();
        }
        let _ = flight::drain();
        lock.unlock();
        assert_eq!(
            waiter.join().unwrap(),
            ParkResult::Unparked(HANDOFF_UNPARK_TOKEN)
        );
        assert_eq!(lock.state.load(Ordering::Relaxed), LOCKED);
        let handoffs: Vec<_> = flight::drain()
            .into_iter()
            .filter(|e| e.kind == FlightEventKind::Handoff)
            .map(|e| (e.addr, e.info))
            .collect();
        assert_eq!(handoffs, [(lock.addr(), 0)], "no waiter stays parked");
    }

    #[test]
    fn many_live_locks_share_the_lot() {
        // The space story: 10k live futex locks are 40kB of lock state; all
        // of them park through the same global lot without interference.
        let locks: Arc<Vec<FutexLock>> = Arc::new((0..10_000).map(|_| FutexLock::new()).collect());
        assert_eq!(std::mem::size_of_val(locks.as_slice()), 40_000);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let locks = Arc::clone(&locks);
                std::thread::spawn(move || {
                    for i in 0..10_000usize {
                        let lock = &locks[(i * 31 + t * 7919) % locks.len()];
                        lock.lock();
                        lock.unlock();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for lock in locks.iter() {
            assert!(!lock.is_locked());
        }
    }
}
