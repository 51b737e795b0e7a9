//! Test-and-set spinlock.
//!
//! The simplest possible lock: one atomic flag, acquired with an atomic swap.
//! Every acquisition attempt writes the lock cache line, so under contention
//! the coherence traffic is maximal — this is the baseline the paper's more
//! scalable locks improve on.

use gls_sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::cache_padded::CachePadded;
use crate::raw::{QueueInformed, RawLock, RawTryLock};
use crate::spin_wait::SpinWait;

/// A test-and-set (TAS) spinlock, padded to one cache line.
///
/// # Example
///
/// ```
/// use gls_locks::{RawLock, RawTryLock, TasLock};
///
/// let lock = TasLock::new();
/// assert!(lock.try_lock());
/// assert!(!lock.try_lock());
/// lock.unlock();
/// ```
#[derive(Debug, Default)]
pub struct TasLock {
    state: CachePadded<TasState>,
}

#[derive(Debug, Default)]
struct TasState {
    locked: AtomicBool,
    /// Holder plus waiters, for [`QueueInformed`].
    queued: AtomicU64,
}

impl TasLock {
    /// Creates an unlocked TAS lock.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RawLock for TasLock {
    #[inline]
    fn lock(&self) {
        self.state.queued.fetch_add(1, Ordering::Relaxed);
        let mut wait = SpinWait::new();
        while self.state.locked.swap(true, Ordering::Acquire) {
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

impl RawTryLock for TasLock {
    #[inline]
    fn try_lock(&self) -> bool {
        let acquired = !self.state.locked.swap(true, Ordering::Acquire);
        if acquired {
            self.state.queued.fetch_add(1, Ordering::Relaxed);
        }
        acquired
    }
}

impl QueueInformed for TasLock {
    fn queue_length(&self) -> u64 {
        self.state.queued.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_unlock_single_thread() {
        let lock = TasLock::new();
        assert!(!lock.is_locked());
        lock.lock();
        assert!(lock.is_locked());
        assert_eq!(lock.queue_length(), 1);
        lock.unlock();
        assert!(!lock.is_locked());
        assert_eq!(lock.queue_length(), 0);
    }

    #[test]
    fn try_lock_fails_when_held() {
        let lock = TasLock::new();
        lock.lock();
        assert!(!lock.try_lock());
        lock.unlock();
        assert!(lock.try_lock());
        lock.unlock();
    }

    #[test]
    fn provides_mutual_exclusion() {
        crate::test_support::check_mutual_exclusion::<TasLock>(8, 20_000);
    }

    #[test]
    fn queue_length_counts_waiters() {
        let lock = Arc::new(TasLock::new());
        lock.lock();
        let l2 = Arc::clone(&lock);
        let waiter = std::thread::spawn(move || {
            l2.lock();
            l2.unlock();
        });
        // Wait for the spawned thread to start queuing.
        while lock.queue_length() < 2 {
            std::hint::spin_loop();
        }
        assert!(lock.queue_length() >= 2);
        lock.unlock();
        waiter.join().unwrap();
        assert_eq!(lock.queue_length(), 0);
    }
}
