//! Test-and-test-and-set spinlock.
//!
//! Waiters first spin reading the flag (which stays in the shared state of
//! their cache) and only attempt the atomic swap once they observe the lock
//! free, with a short exponential backoff between failed attempts. This is
//! the bucket lock of the GLS hash table (`gls_clht`), and the algorithm the
//! paper uses to overload `pthread` reader-writer locks as well (§5.2,
//! footnote 7).
//!
//! The lock is one byte and is not padded: a CLHT bucket is one aligned
//! cache line that holds its lock beside its keys and values, so taking
//! the lock brings in the line the update writes anyway.

use gls_sync::atomic::{AtomicBool, Ordering};

use crate::raw::RawLock;
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
    locked: AtomicBool,
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
        // One escalating waiter covers both the read-spin and the delay after
        // a lost swap race; it keeps escalating across attempts instead of
        // stacking two independent backoff schedules.
        let mut wait = SpinWait::new();
        loop {
            // Spin on a plain read until the lock looks free.
            while self.locked.load(Ordering::Relaxed) {
                wait.spin();
            }
            if !self.locked.swap(true, Ordering::Acquire) {
                return;
            }
            wait.spin();
        }
    }

    #[inline]
    fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }

    fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
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
    fn provides_mutual_exclusion() {
        crate::test_support::check_mutual_exclusion::<TtasLock>(8, 20_000);
    }
}
