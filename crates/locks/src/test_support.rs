//! Shared helpers for the lock tests: a generic mutual-exclusion checker.

use std::cell::UnsafeCell;
use std::sync::Arc;

use crate::raw::RawLock;

/// A counter protected by a raw lock; incremented non-atomically so that any
/// mutual-exclusion violation shows up as a lost update.
struct RawProtected<R: RawLock> {
    lock: R,
    value: UnsafeCell<u64>,
}

// SAFETY: access to `value` is guarded by `lock` in `check_mutual_exclusion`.
unsafe impl<R: RawLock> Sync for RawProtected<R> {}

/// Spawns `threads` threads, each performing `iters` lock-protected
/// non-atomic increments, and asserts that no update was lost.
pub fn check_mutual_exclusion<R: RawLock + 'static>(threads: usize, iters: u64) {
    let shared = Arc::new(RawProtected {
        lock: R::default(),
        value: UnsafeCell::new(0),
    });
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for _ in 0..iters {
                    shared.lock.lock();
                    // SAFETY: we hold the lock, so we have exclusive access.
                    unsafe {
                        let v = shared.value.get();
                        *v += 1;
                    }
                    shared.lock.unlock();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // SAFETY: all worker threads are joined; nothing races this read.
    let total = unsafe { *shared.value.get() };
    assert_eq!(
        total,
        threads as u64 * iters,
        "{} lost updates: mutual exclusion violated by {}",
        threads as u64 * iters - total,
        std::any::type_name::<R>()
    );
}
