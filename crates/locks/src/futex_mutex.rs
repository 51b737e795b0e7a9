//! Word-sized blocking mutex parked on the shared parking lot: the paper's
//! MUTEX ([`LockKind::Mutex`](crate::LockKind::Mutex)).
//!
//! Like glibc's `pthread_mutex`, the entire lock is **one `AtomicU32`**
//! (asserted by a size test); all wait-queue state lives in the central
//! [`ParkingLot`], keyed by the lock's address — the futex idiom, in
//! userspace. That is what lets the middleware keep any number of live
//! blocking locks, and what lets GLK's mutex mode and a condvar's
//! requeue-on-notify share one park address.
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

use crate::park::{ParkResult, ParkingLot, DEFAULT_UNPARK_TOKEN};
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

/// Park token of a native mutex waiter (distinct from
/// [`DEFAULT_PARK_TOKEN`](crate::park::DEFAULT_PARK_TOKEN), which tags
/// condvar waiters requeued onto the mutex — those must never receive a
/// handoff token they would not understand).
pub const TOKEN_MUTEX_WAITER: usize = 2;

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

    /// The address this lock's waiters park under — the key condvar
    /// requeue-on-notify moves waiters onto (see
    /// [`prepare_direct_requeue`]).
    #[inline]
    pub fn park_addr(&self) -> usize {
        self.addr()
    }

    /// Releases the lock and wakes **every** parked waiter instead of one.
    ///
    /// For a holder that is about to stop serving this word — GLK leaving
    /// mutex mode — the ordinary one-waiter wake chain is not enough: it
    /// relies on each woken waiter
    /// re-acquiring and re-releasing this word, which a condvar waiter that
    /// was requeued here does not do (it re-acquires through whatever now
    /// serves the lock). Waking everyone lets each waiter re-examine the
    /// world; stragglers that re-contend this word drain through the
    /// ordinary protocol.
    pub fn unlock_and_wake_all(&self) {
        // Clearing the whole word (locked, parked and streak bits) before
        // the broadcast makes concurrent park validations fail, so no new
        // waiter can slip into the queue between the release and the wake
        // and miss both.
        self.state.store(0, Ordering::Release);
        ParkingLot::global().unpark_all(self.addr(), DEFAULT_UNPARK_TOKEN);
    }

    /// The abandonment this lock shipped with *before*
    /// [`unlock_and_wake_all`](Self::unlock_and_wake_all) existed: release
    /// the word and wake only the queue head. A requeued condvar waiter
    /// parked behind the head never re-releases this word, so the one-wake
    /// chain strands everyone behind it — the regression model test drives
    /// this to show the explorer finds that stranding as a deadlock.
    #[cfg(gls_model)]
    pub fn model_unlock_and_wake_one(&self) {
        self.state.store(0, Ordering::Release);
        ParkingLot::global().unpark_one(self.addr(), |_| DEFAULT_UNPARK_TOKEN, |_| {});
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
                TOKEN_MUTEX_WAITER,
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
        let handoff_due = streak + 1 >= HANDOFF_WAKEUPS;
        let handoff = std::cell::Cell::new(false);
        ParkingLot::global().unpark_one(
            self.addr(),
            |park_token| {
                // Streak exhausted: hand the lock to the head — unless it is
                // a requeued condvar waiter, which would not understand a
                // handoff and gets an ordinary wake instead.
                if handoff_due && park_token == TOKEN_MUTEX_WAITER {
                    handoff.set(true);
                    HANDOFF_UNPARK_TOKEN
                } else {
                    DEFAULT_UNPARK_TOKEN
                }
            },
            |result| {
                let state = if result.unparked == 0 {
                    // Nobody left (e.g. a requeued waiter timed out): plain
                    // release, streak over.
                    0
                } else if handoff.get() {
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
            },
        );
        // Outside the bucket critical section: `handoff` is set only when a
        // waiter was actually woken with the handoff token.
        if handoff.get() {
            flight::record(FlightEventKind::Handoff, self.addr(), 0);
        }
    }
}

/// Part of condvar requeue-on-notify: under the parking-lot bucket lock of
/// `addr` — the address of a [`FutexLock`] state word — atomically raises
/// the parked bit **iff the lock is currently held**. Returns `true` when
/// raised (a waiter requeued onto `addr` is then guaranteed a wakeup from
/// the holder's release, whose fast path cannot succeed with the parked bit
/// set) or `false` when the lock is free (the caller must wake the waiter
/// instead of requeueing it, or it could sleep on a mutex nobody holds).
///
/// # Safety
///
/// `addr` must be the address of the `AtomicU32` state word of a live
/// [`FutexLock`], and the caller must hold the parking-lot bucket lock of
/// `addr` (e.g. inside [`ParkingLot::unpark_requeue`]'s decide
/// closure) so the decision is atomic with park validation and with the
/// release path's state store.
pub unsafe fn prepare_direct_requeue(addr: usize) -> bool {
    // SAFETY: per the contract, `addr` points to a live AtomicU32.
    let state = unsafe { &*(addr as *const AtomicU32) };
    let mut s = state.load(Ordering::Relaxed);
    loop {
        if s & LOCKED == 0 {
            return false;
        }
        if s & PARKED != 0 {
            return true;
        }
        match state.compare_exchange_weak(s, s | PARKED, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(actual) => s = actual,
        }
    }
}

/// Companion to [`prepare_direct_requeue`] for broadcast wait-morphing:
/// raises the parked bit **unconditionally** (even on a free lock). Used
/// when waiters were just requeued onto `addr` behind one woken waiter that
/// is about to acquire the mutex: every subsequent release must take the
/// slow path and wake the next requeued waiter, even though the word was
/// free at requeue time. A spuriously raised bit (all requeued waiters
/// time out) self-heals: the next slow-path release finds nobody and
/// clears it.
///
/// # Safety
///
/// Same contract as [`prepare_direct_requeue`]: `addr` must be the state
/// word of a live [`FutexLock`] and the caller must hold its parking-lot
/// bucket lock.
pub unsafe fn mark_parked_for_requeue(addr: usize) {
    // SAFETY: per the contract, `addr` points to a live AtomicU32.
    let state = unsafe { &*(addr as *const AtomicU32) };
    state.fetch_or(PARKED, Ordering::Relaxed);
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
    fn direct_requeue_preparation_follows_the_lock_state() {
        let lock = FutexLock::new();
        // Free lock: a requeue must not be prepared (the waiter would
        // sleep on a mutex nobody will release).
        // SAFETY: the lock word is live and the test is single-threaded, so
        // the decision cannot race with a parker or a releaser (the reason
        // the contract wants the bucket lock held).
        assert!(!unsafe { prepare_direct_requeue(lock.addr()) });
        lock.lock();
        // Held lock: the parked bit is raised, so the eventual release
        // cannot take the fast path and will wake the requeued waiter.
        // SAFETY: the lock word is live and the test is single-threaded, so
        // the decision cannot race with a parker or a releaser (the reason
        // the contract wants the bucket lock held).
        assert!(unsafe { prepare_direct_requeue(lock.addr()) });
        assert_eq!(lock.state.load(Ordering::Relaxed), LOCKED | PARKED);
        // Idempotent while held.
        // SAFETY: the lock word is live and the test is single-threaded, so
        // the decision cannot race with a parker or a releaser (the reason
        // the contract wants the bucket lock held).
        assert!(unsafe { prepare_direct_requeue(lock.addr()) });
        // The release wakes nobody (nothing is actually parked) and heals
        // the word back to zero.
        lock.unlock();
        assert_eq!(lock.state.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn due_handoff_goes_only_to_a_native_queue_head() {
        // One waiter parks under the lock's address with a chosen token, and
        // the holder's release finds the streak due. A requeued condvar
        // waiter (DEFAULT_PARK_TOKEN) at the head gets an ordinary wake and
        // the word clears; a native waiter gets the handoff token and the
        // word keeps LOCKED on its behalf.
        use crate::park::DEFAULT_PARK_TOKEN;
        for (park_token, unpark_token, word_after) in [
            (DEFAULT_PARK_TOKEN, DEFAULT_UNPARK_TOKEN, 0),
            (TOKEN_MUTEX_WAITER, HANDOFF_UNPARK_TOKEN, LOCKED),
        ] {
            let lock = Arc::new(FutexLock::new());
            lock.state.store(
                LOCKED | PARKED | ((HANDOFF_WAKEUPS - 1) << STREAK_SHIFT),
                Ordering::Relaxed,
            );
            let waiter = {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    ParkingLot::global().park(lock.park_addr(), park_token, || true, || {}, None)
                })
            };
            while ParkingLot::global().parked_count(lock.park_addr()) == 0 {
                std::thread::yield_now();
            }
            lock.unlock();
            assert_eq!(waiter.join().unwrap(), ParkResult::Unparked(unpark_token));
            assert_eq!(lock.state.load(Ordering::Relaxed), word_after);
        }
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
