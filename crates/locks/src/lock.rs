//! A data-carrying lock generic over the raw algorithm.
//!
//! [`Lock<T, R>`] pairs any [`RawLock`] algorithm from this crate with the
//! data it protects, giving the familiar guard-based API of
//! [`std::sync::Mutex`] while letting callers (and the benchmark harness)
//! choose the algorithm as a type parameter.

use std::cell::UnsafeCell;
use std::fmt;

use crate::futex_mutex::FutexLock;
use crate::raw::{RawLock, RawTryLock};

/// A value of type `T` protected by a raw lock of type `R`.
///
/// # Example
///
/// ```
/// use gls_locks::{Lock, TicketLock};
///
/// let counter: Lock<u32, TicketLock> = Lock::new(0);
/// {
///     let mut guard = counter.lock();
///     *guard += 1;
/// }
/// assert_eq!(counter.into_inner(), 1);
/// ```
#[derive(Default)]
pub struct Lock<T, R: RawLock = FutexLock> {
    raw: R,
    data: UnsafeCell<T>,
}

// SAFETY: the raw lock serializes all access to `data`.
unsafe impl<T: Send, R: RawLock> Send for Lock<T, R> {}
unsafe impl<T: Send, R: RawLock> Sync for Lock<T, R> {}

impl<T, R: RawLock> Lock<T, R> {
    /// Creates a new lock protecting `value`.
    pub fn new(value: T) -> Self {
        Self {
            raw: R::default(),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, returning a guard that releases it on drop.
    pub fn lock(&self) -> LockGuard<'_, T, R> {
        self.raw.lock();
        LockGuard { lock: self }
    }

    /// Attempts to acquire the lock without waiting.
    pub fn try_lock(&self) -> Option<LockGuard<'_, T, R>>
    where
        R: RawTryLock,
    {
        if self.raw.try_lock() {
            Some(LockGuard { lock: self })
        } else {
            None
        }
    }

    /// Whether the lock is currently held (racy; diagnostics only).
    pub fn is_locked(&self) -> bool {
        self.raw.is_locked()
    }

    /// Returns a reference to the underlying raw lock.
    pub fn raw(&self) -> &R {
        &self.raw
    }

    /// Mutable access without locking; requires `&mut self`.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Consumes the lock and returns the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: fmt::Debug, R: RawLock> fmt::Debug for Lock<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lock")
            .field("algorithm", &R::NAME)
            .field("locked", &self.raw.is_locked())
            .finish_non_exhaustive()
    }
}

impl<T, R: RawLock> From<T> for Lock<T, R> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

/// RAII guard for [`Lock`]; releases the lock when dropped.
pub struct LockGuard<'a, T, R: RawLock> {
    lock: &'a Lock<T, R>,
}

impl<T, R: RawLock> std::ops::Deref for LockGuard<'_, T, R> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard proves we hold the raw lock.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T, R: RawLock> std::ops::DerefMut for LockGuard<'_, T, R> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard proves we hold the raw lock.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T, R: RawLock> Drop for LockGuard<'_, T, R> {
    fn drop(&mut self) {
        self.lock.raw.unlock();
    }
}

impl<T: fmt::Debug, R: RawLock> fmt::Debug for LockGuard<'_, T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClhLock, McsLock, TicketLock, TtasLock};
    use std::sync::Arc;

    #[test]
    fn guard_gives_exclusive_access() {
        let lock: Lock<Vec<u32>, TicketLock> = Lock::new(vec![]);
        lock.lock().push(1);
        lock.lock().push(2);
        assert_eq!(*lock.lock(), vec![1, 2]);
    }

    #[test]
    fn try_lock_respects_holder() {
        let lock: Lock<u32, McsLock> = Lock::new(0);
        let guard = lock.lock();
        assert!(lock.try_lock().is_none());
        drop(guard);
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn get_mut_and_into_inner() {
        let mut lock: Lock<u32, TtasLock> = Lock::new(3);
        *lock.get_mut() += 1;
        assert_eq!(lock.into_inner(), 4);
    }

    #[test]
    fn default_algorithm_is_mutex() {
        let lock: Lock<u32> = Lock::new(0);
        assert!(!lock.is_locked());
        let _g = lock.lock();
        assert!(lock.is_locked());
    }

    #[test]
    fn debug_mentions_algorithm() {
        let lock: Lock<u32, ClhLock> = Lock::new(0);
        let s = format!("{lock:?}");
        assert!(s.contains("CLH"));
    }

    fn hammer<R: RawLock + 'static>() {
        let lock: Arc<Lock<u64, R>> = Arc::new(Lock::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        *lock.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), 80_000);
    }

    #[test]
    fn data_lock_mutual_exclusion_all_algorithms() {
        hammer::<crate::TasLock>();
        hammer::<crate::TtasLock>();
        hammer::<crate::TicketLock>();
        hammer::<crate::McsLock>();
        hammer::<crate::ClhLock>();
        hammer::<crate::FutexLock>();
    }
}
