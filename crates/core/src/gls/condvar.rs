//! GLS condition variables, built on the address-keyed parking lot.
//!
//! Real GLS clients (the memcached scenario's background maintenance
//! thread, producer/consumer pipelines) block on *conditions*, not just on
//! locks. [`GlsCondvar`] provides `wait`/`wait_timeout`/`notify_one`/
//! `notify_all` on top of any GLS-managed mutex: the waiter enqueues itself
//! in the [`ParkingLot`](gls_locks::ParkingLot) under the condvar's own
//! address, releases the mutex *after* enqueueing (so a notifier that
//! acquires the mutex afterwards is guaranteed to find it), sleeps, and
//! re-acquires the mutex before returning.
//!
//! # No waiter, no lot
//!
//! The condvar's one word is its waiter count, never lower than the number
//! of threads queued under its address: a waiter counts itself under the
//! bucket lock before it enqueues, so before it releases the mutex, and
//! uncounts itself once its park returns, however the park ended. A notify
//! that reads 0 returns at once, with no entry lookup and no bucket lock.
//! A relaxed load is enough: the notifier took the mutex the waiter
//! released (or changed the predicate under it), so it sees the count.
//!
//! # Debug-mode integration
//!
//! A condvar wait adds nothing to the debug mode's lock-order graph:
//!
//! * the mutex is released through the normal service path before the
//!   thread sleeps, so the sleeper's held record drops it, and
//! * the park itself records no order edge — a condvar wait is resolved by
//!   a *signal*, not by a lock release, so it orders no locks. Only the
//!   re-acquisition after the wake records edges, from whatever else the
//!   thread still holds, through the ordinary debug path.
//!
//! # Spurious wakeups
//!
//! As with every condition variable, `wait` may return without a matching
//! notification (e.g. after [`GlsCondvar::notify_all`] raced with a
//! predicate change). Always wait in a loop re-checking the predicate.

use std::time::Duration;

use gls_locks::park::{DEFAULT_PARK_TOKEN, DEFAULT_UNPARK_TOKEN};
use gls_locks::{ParkResult, ParkingLot};
use gls_sync::atomic::{AtomicU64, Ordering};

/// How a condvar wait ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// A notification (or a spurious wakeup) ended the wait.
    Notified,
    /// The timeout elapsed first.
    TimedOut,
}

impl WaitOutcome {
    /// Whether the wait ended by timeout.
    pub fn timed_out(self) -> bool {
        self == WaitOutcome::TimedOut
    }
}

/// A condition variable whose waiters park in the shared parking lot,
/// keyed by the condvar's address.
///
/// The condvar itself carries no wait-queue state — like
/// [`FutexLock`](gls_locks::FutexLock), its identity is its address — only
/// its [waiter count](GlsCondvar::waiters). Pair it with a GLS-managed
/// mutex through [`GlsService::wait`](super::GlsService::wait) /
/// [`GlsService::wait_timeout`](super::GlsService::wait_timeout), or with
/// any lock at all through [`GlsCondvar::wait_with`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use gls::{GlsCondvar, GlsService};
///
/// let service = Arc::new(GlsService::new());
/// let ready = Arc::new(GlsCondvar::new());
/// let addr = 0x1000usize; // the mutex identity (any address or value)
///
/// let waiter = {
///     let (service, ready) = (Arc::clone(&service), Arc::clone(&ready));
///     std::thread::spawn(move || {
///         service.lock(addr).unwrap();
///         // Real code loops over a predicate here.
///         service.wait(&ready, addr).unwrap();
///         service.unlock(addr).unwrap();
///     })
/// };
/// while ready.waiters() == 0 {
///     std::thread::yield_now();
/// }
/// service.lock(addr).unwrap();
/// service.unlock(addr).unwrap();
/// ready.notify_one();
/// waiter.join().unwrap();
/// ```
#[derive(Debug, Default)]
pub struct GlsCondvar {
    /// See [`GlsCondvar::waiters`].
    waiters: AtomicU64,
}

impl GlsCondvar {
    /// Creates a condition variable with no waiters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The parking-lot key: the condvar's own address.
    fn addr(&self) -> usize {
        self as *const GlsCondvar as usize
    }

    /// Threads inside a wait on this condvar, from just before they enqueue
    /// until their park returns: never lower than the number queued under
    /// the condvar's address, so at 0 a notify has nobody to wake.
    pub fn waiters(&self) -> u64 {
        self.waiters.load(Ordering::Relaxed)
    }

    /// Every notify checks this first and, finding no waiter, returns.
    #[inline]
    pub(crate) fn has_waiters(&self) -> bool {
        self.waiters() != 0
    }

    /// The low-level wait: enqueue under the condvar's address, run
    /// `unlock` (release the associated mutex) once enqueued, sleep, then
    /// run `relock` before returning.
    ///
    /// This is what [`GlsService::wait`](super::GlsService::wait) and the
    /// system harnesses build on; use it directly when the associated mutex
    /// is not GLS-managed (any `unlock`/`relock` pair works — the condvar
    /// only needs the release to happen after the enqueue, and a notifier
    /// to change the predicate under that lock).
    pub fn wait_with(
        &self,
        unlock: impl FnOnce(),
        relock: impl FnOnce(),
        timeout: Option<Duration>,
    ) -> WaitOutcome {
        let result = ParkingLot::global().park(
            self.addr(),
            DEFAULT_PARK_TOKEN,
            || {
                #[cfg(gls_model)]
                if super::service::model::count_waiter_after_release() {
                    return true;
                }
                // Counted before the enqueue, so before `unlock`.
                self.waiters.fetch_add(1, Ordering::Relaxed);
                true
            },
            || {
                unlock();
                #[cfg(gls_model)]
                if super::service::model::count_waiter_after_release() {
                    self.waiters.fetch_add(1, Ordering::Relaxed);
                }
            },
            timeout,
        );
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        relock();
        match result {
            ParkResult::TimedOut => WaitOutcome::TimedOut,
            _ => WaitOutcome::Notified,
        }
    }

    /// Wakes the longest-waiting thread, if any; returns whether one was
    /// woken.
    pub fn notify_one(&self) -> bool {
        if !self.has_waiters() {
            return false;
        }
        let result = ParkingLot::global().unpark_one(self.addr(), |_| DEFAULT_UNPARK_TOKEN, |_| {});
        result.unparked > 0
    }

    /// Wakes every waiting thread; returns how many were woken.
    pub fn notify_all(&self) -> usize {
        if !self.has_waiters() {
            return 0;
        }
        ParkingLot::global().unpark_all(self.addr(), DEFAULT_UNPARK_TOKEN)
    }

    /// Notifies the longest-waiting thread, **requeueing** it onto
    /// `mutex_park_addr` — the parking address of the futex-backed mutex
    /// associated with the wait — when that mutex is currently held,
    /// instead of waking it only to have it immediately block on the mutex
    /// (the wake-then-block hop). The decision is made under the parking
    /// -lot bucket locks: if the mutex is held, its parked bit is raised
    /// atomically with the move
    /// ([`gls_locks::futex_mutex::prepare_direct_requeue`]), so the
    /// holder's release is guaranteed to wake the requeued waiter; if the
    /// mutex is free, the waiter is woken normally and acquires it without
    /// a hop.
    ///
    /// Returns whether a waiter was notified (woken or requeued). Prefer
    /// [`GlsService::notify_one`](super::GlsService::notify_one), which
    /// resolves the right park address (and falls back to
    /// [`GlsCondvar::notify_one`] for non-futex-backed mutexes).
    ///
    /// `revalidate` runs under the bucket locks, just before the requeue
    /// commits: it must re-check that `mutex_park_addr` is *still* the
    /// address the mutex's release path will unpark (an adaptive mutex may
    /// have left its blocking mode since the caller resolved the address).
    /// On `false` the waiter is woken instead of requeued.
    ///
    /// # Safety
    ///
    /// `mutex_park_addr` must be the parking address of a live
    /// [`FutexLock`](gls_locks::FutexLock) word that remains valid for the
    /// duration of the call (GLS lock entries are never reclaimed while
    /// their service lives, so addresses from the entry API qualify).
    pub unsafe fn notify_one_requeue(
        &self,
        mutex_park_addr: usize,
        revalidate: impl FnOnce() -> bool,
    ) -> bool {
        if !self.has_waiters() {
            return false;
        }
        let result = ParkingLot::global().unpark_requeue(
            self.addr(),
            mutex_park_addr,
            || {
                // SAFETY: forwarded from this function's contract; the
                // decide closure runs under the bucket lock of
                // `mutex_park_addr`, as `prepare_direct_requeue` requires.
                if revalidate()
                    && unsafe { gls_locks::futex_mutex::prepare_direct_requeue(mutex_park_addr) }
                {
                    (0, 1)
                } else {
                    (1, 0)
                }
            },
            DEFAULT_UNPARK_TOKEN,
            |_| {},
        );
        result.unparked + result.requeued > 0
    }

    /// Notifies every waiting thread, requeueing them onto
    /// `mutex_park_addr` when that futex-backed mutex is held (they are
    /// then woken one at a time by successive releases of the mutex — the
    /// classic wait-morphing broadcast, with no thundering herd on a held
    /// mutex). When the mutex is free, one waiter is woken to take it and
    /// the rest are requeued behind it. Returns how many waiters were
    /// notified (woken or requeued).
    ///
    /// # Safety
    ///
    /// Same contract as [`GlsCondvar::notify_one_requeue`].
    pub unsafe fn notify_all_requeue(
        &self,
        mutex_park_addr: usize,
        revalidate: impl FnOnce() -> bool,
    ) -> usize {
        if !self.has_waiters() {
            return 0;
        }
        let mutex_held = std::cell::Cell::new(false);
        let result = ParkingLot::global().unpark_requeue(
            self.addr(),
            mutex_park_addr,
            || {
                // The mutex may have stopped parking under this address
                // (GLK left mutex mode) since the caller resolved it: wake
                // everyone instead of requeueing onto a word whose release
                // path no longer runs.
                if !revalidate() {
                    return (usize::MAX, 0);
                }
                // SAFETY: forwarded from this function's contract.
                let held =
                    unsafe { gls_locks::futex_mutex::prepare_direct_requeue(mutex_park_addr) };
                mutex_held.set(held);
                if held {
                    (0, usize::MAX)
                } else {
                    (1, usize::MAX)
                }
            },
            DEFAULT_UNPARK_TOKEN,
            |result| {
                // Waiters were requeued behind a *free* mutex (the one
                // woken waiter is about to take it): raise its parked bit
                // so every subsequent release takes the slow path and wakes
                // the next one — without it the fast-path unlock would
                // strand them.
                if !mutex_held.get() && result.requeued > 0 {
                    // SAFETY: forwarded from this function's contract; the
                    // callback still holds the bucket locks.
                    unsafe {
                        gls_locks::futex_mutex::mark_parked_for_requeue(mutex_park_addr);
                    }
                }
            },
        );
        result.unparked + result.requeued
    }
}

#[cfg(test)]
// Raw std sync and wall-clock sleeps are fine in stress tests: they pace
// real threads, not modeled ones (see clippy.toml).
#[allow(clippy::disallowed_types, clippy::disallowed_methods)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    #[test]
    fn wait_with_releases_and_reacquires() {
        let cv = Arc::new(GlsCondvar::new());
        let mutex = Arc::new(Mutex::new(false));
        let waiter = {
            let cv = Arc::clone(&cv);
            let mutex = Arc::clone(&mutex);
            std::thread::spawn(move || {
                let guard = std::cell::RefCell::new(Some(mutex.lock().unwrap()));
                let outcome = cv.wait_with(
                    || drop(guard.borrow_mut().take()),
                    || *guard.borrow_mut() = Some(mutex.lock().unwrap()),
                    None,
                );
                assert_eq!(outcome, WaitOutcome::Notified);
                let relocked = guard.borrow();
                assert!(**relocked.as_ref().unwrap(), "predicate set before notify");
            })
        };
        while cv.waiters() == 0 {
            std::thread::yield_now();
        }
        // The waiter parked and released the mutex: we can take it.
        *mutex.lock().unwrap() = true;
        assert!(cv.notify_one());
        waiter.join().unwrap();
        assert_eq!(cv.waiters(), 0);
    }

    #[test]
    fn wait_timeout_expires_without_notifier() {
        let cv = GlsCondvar::new();
        let relocked = AtomicBool::new(false);
        let start = Instant::now();
        let outcome = cv.wait_with(
            || assert_eq!(cv.waiters(), 1, "counted before the release"),
            || {
                assert_eq!(cv.waiters(), 0, "uncounted before the relock");
                relocked.store(true, Ordering::Relaxed);
            },
            Some(Duration::from_millis(40)),
        );
        assert!(outcome.timed_out());
        assert!(start.elapsed() >= Duration::from_millis(40));
        assert!(relocked.load(Ordering::Relaxed), "relock runs on timeout");
        assert_eq!(cv.waiters(), 0, "a timed-out waiter uncounts itself");
    }

    #[test]
    fn notify_without_waiters_reports_nobody() {
        let cv = GlsCondvar::new();
        assert!(!cv.notify_one());
        assert_eq!(cv.notify_all(), 0);
        let word = gls_locks::FutexLock::new();
        // SAFETY: `word` is a live futex word that outlives both calls.
        unsafe {
            assert!(!cv.notify_one_requeue(word.park_addr(), || unreachable!()));
            assert_eq!(
                cv.notify_all_requeue(word.park_addr(), || unreachable!()),
                0
            );
        }
    }

    #[test]
    fn notify_all_wakes_every_waiter() {
        let cv = Arc::new(GlsCondvar::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cv = Arc::clone(&cv);
                std::thread::spawn(move || cv.wait_with(|| {}, || {}, None))
            })
            .collect();
        while cv.waiters() < 4 {
            std::thread::yield_now();
        }
        assert_eq!(cv.notify_all(), 4);
        for h in handles {
            assert_eq!(h.join().unwrap(), WaitOutcome::Notified);
        }
    }
}
