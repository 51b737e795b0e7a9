//! Test-and-test-and-set spinlock.
//!
//! Like [TAS](crate::TasLock) but waiters first spin reading the flag (which
//! stays in the shared state of their cache) and only attempt the atomic swap
//! once they observe the lock free, with a short exponential backoff between
//! failed attempts. This is the algorithm the paper uses to overload
//! `pthread` reader-writer locks as well (§5.2, footnote 7).

use gls_sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::cache_padded::CachePadded;
use crate::raw::{QueueInformed, RawLock, RawTryLock};
use crate::spin_wait::SpinWait;

/// A test-and-test-and-set (TTAS) spinlock with exponential backoff.
///
/// # Example
///
/// ```
/// use gls_locks::{RawLock, TtasLock};
///
/// let lock = TtasLock::new();
/// lock.lock();
/// lock.unlock();
/// ```
#[derive(Debug, Default)]
pub struct TtasLock {
    state: CachePadded<TtasState>,
}

#[derive(Debug, Default)]
struct TtasState {
    locked: AtomicBool,
    queued: AtomicU64,
}

impl TtasLock {
    /// Creates an unlocked TTAS lock.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RawLock for TtasLock {
    #[inline]
    fn lock(&self) {
        self.state.queued.fetch_add(1, Ordering::Relaxed);
        // One escalating waiter covers both the read-spin and the delay after
        // a lost swap race; it keeps escalating across attempts instead of
        // stacking two independent backoff schedules.
        let mut wait = SpinWait::new();
        loop {
            // Spin on a plain read until the lock looks free.
            while self.state.locked.load(Ordering::Relaxed) {
                wait.spin();
            }
            if !self.state.locked.swap(true, Ordering::Acquire) {
                return;
            }
            wait.spin();
        }
    }

    #[inline]
    fn unlock(&self) {
        self.state.locked.store(false, Ordering::Release);
        self.state.queued.fetch_sub(1, Ordering::Relaxed);
    }

    fn is_locked(&self) -> bool {
        self.state.locked.load(Ordering::Relaxed)
    }
}

impl RawTryLock for TtasLock {
    #[inline]
    fn try_lock(&self) -> bool {
        if self.state.locked.load(Ordering::Relaxed) {
            return false;
        }
        let acquired = !self.state.locked.swap(true, Ordering::Acquire);
        if acquired {
            self.state.queued.fetch_add(1, Ordering::Relaxed);
        }
        acquired
    }
}

impl QueueInformed for TtasLock {
    fn queue_length(&self) -> u64 {
        self.state.queued.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_unlock_single_thread() {
        let lock = TtasLock::new();
        lock.lock();
        assert!(lock.is_locked());
        lock.unlock();
        assert!(!lock.is_locked());
    }

    #[test]
    fn try_lock_semantics() {
        let lock = TtasLock::new();
        assert!(lock.try_lock());
        assert!(!lock.try_lock());
        lock.unlock();
        assert!(lock.try_lock());
        lock.unlock();
    }

    #[test]
    fn provides_mutual_exclusion() {
        crate::test_support::check_mutual_exclusion::<TtasLock>(8, 20_000);
    }

    #[test]
    fn queue_length_is_zero_when_free() {
        let lock = TtasLock::new();
        assert_eq!(lock.queue_length(), 0);
        lock.lock();
        assert_eq!(lock.queue_length(), 1);
        lock.unlock();
        assert_eq!(lock.queue_length(), 0);
    }
}
