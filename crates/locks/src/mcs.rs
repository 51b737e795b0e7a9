//! MCS queue lock.
//!
//! The MCS lock (Mellor-Crummey & Scott) builds a queue of waiting nodes so
//! that each waiter spins on its *own* cache line, removing the
//! single-location bottleneck of simple spinlocks. The paper uses MCS as
//! GLK's high-contention mode (§3).
//!
//! # Implementation notes
//!
//! The classic MCS interface threads a per-acquisition queue node through
//! `lock`/`unlock`. GLK and GLS hand out plain `lock()`/`unlock()` calls
//! ([`RawLock`]), so this is the K42 variant, whose nodes live only while
//! their threads wait:
//!
//! - A waiter's node is a local of its `lock` call. Once it holds the lock,
//!   the waiter moves its successor (if any) into the lock's `next` slot and
//!   takes its node out of `tail`, so nothing points at the node when `lock`
//!   returns.
//! - The holder owns no node: `tail` is null when the lock is free and
//!   `HELD` when it is held with nobody queued, and a waiter that finds
//!   `HELD` links itself into `next`.
//! - `unlock` clears `next` before it admits the successor found there,
//!   which from then on owns `next`. It needs nothing from the thread that
//!   locked, so a lock may be released on another thread.
//!
//! Instead of walking the queue to count waiters (which the paper does only
//! at a low sampling rate because it violates the "one thread per node"
//! design goal), the lock maintains an exact holder+waiter counter updated at
//! enqueue/release.

use gls_sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::ptr::{self, NonNull};

use crate::cache_padded::CachePadded;
use crate::raw::{QueueInformed, RawLock, RawTryLock};
use crate::spin_wait::SpinWait;

/// One waiter's queue node, on the waiter's stack.
#[derive(Debug, Default)]
struct McsNode {
    /// True while the owning waiter must keep spinning.
    locked: AtomicBool,
    /// Next waiter in the queue, if any.
    next: AtomicPtr<McsNode>,
}

/// The `tail` of a lock held with nobody queued. Never dereferenced; not
/// `&self` either, since a held lock may be moved before it is released.
const HELD: *mut McsNode = NonNull::dangling().as_ptr();

/// An MCS queue spinlock, padded to one cache line.
///
/// # Example
///
/// ```
/// use gls_locks::{McsLock, RawLock};
///
/// let lock = McsLock::new();
/// lock.lock();
/// lock.unlock();
/// ```
#[derive(Debug, Default)]
pub struct McsLock {
    state: CachePadded<McsState>,
}

#[derive(Debug, Default)]
struct McsState {
    /// Last waiter's node; null when free, [`HELD`] when held with nobody
    /// queued.
    tail: AtomicPtr<McsNode>,
    /// The holder's successor, once known; `unlock` admits it.
    next: AtomicPtr<McsNode>,
    /// Exact holder+waiter count for [`QueueInformed`].
    queued: AtomicU64,
    /// Model-only seeded bug (a raw std atomic, so it adds no scheduling
    /// point): `unlock` wakes the successor before clearing `next`.
    #[cfg(gls_model)]
    wake_before_clear: std::sync::atomic::AtomicBool,
}

/// Spins until the waiter that swapped itself into `tail` behind the
/// owner of `slot` has linked itself there, and returns it.
fn wait_for_link(slot: &AtomicPtr<McsNode>) -> *mut McsNode {
    let mut wait = SpinWait::new();
    loop {
        let next = slot.load(Ordering::Acquire);
        if !next.is_null() {
            return next;
        }
        wait.spin();
    }
}

impl McsLock {
    /// Creates an unlocked MCS lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues on a stack node behind the holder; returns holding the lock,
    /// with the node unlinked.
    fn lock_queued(&self) {
        let node = McsNode::default();
        // Explicit stores: the model explorer keys happens-before messages
        // by address, and this stack slot may have held an earlier node.
        node.locked.store(true, Ordering::Relaxed);
        node.next.store(ptr::null_mut(), Ordering::Relaxed);
        let me = ptr::from_ref(&node).cast_mut();
        let prev = self.state.tail.swap(me, Ordering::AcqRel);
        if !prev.is_null() {
            let link = if prev == HELD {
                &self.state.next
            } else {
                // SAFETY: `prev` is the node of the waiter queued directly
                // before us. Its `lock` cannot return (ending the node's
                // life) before it has read this link or moved `tail` off
                // `prev`, and `tail` still named `prev` at our swap.
                unsafe { &(*prev).next }
            };
            link.store(me, Ordering::Release);
            let mut wait = SpinWait::new();
            while node.locked.load(Ordering::Acquire) {
                wait.spin();
            }
        }
        // We hold the lock: hand the successor to `next` and unlink.
        let mut succ = node.next.load(Ordering::Acquire);
        if succ.is_null() {
            if self
                .state
                .tail
                .compare_exchange(me, HELD, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
            succ = wait_for_link(&node.next);
        }
        self.state.next.store(succ, Ordering::Relaxed);
    }
}

impl RawLock for McsLock {
    #[inline]
    fn lock(&self) {
        self.state.queued.fetch_add(1, Ordering::Relaxed);
        if self
            .state
            .tail
            .compare_exchange(ptr::null_mut(), HELD, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.lock_queued();
        }
    }

    #[inline]
    fn unlock(&self) {
        let mut succ = self.state.next.load(Ordering::Acquire);
        if succ.is_null() {
            let tail = self.state.tail.compare_exchange(
                HELD,
                ptr::null_mut(),
                Ordering::Release,
                Ordering::Relaxed,
            );
            match tail {
                Ok(_) => {
                    self.state.queued.fetch_sub(1, Ordering::Relaxed);
                    return;
                }
                // Releasing a free lock: tolerated here; GLS debug mode
                // reports it.
                Err(tail) if tail.is_null() => return,
                Err(_) => succ = wait_for_link(&self.state.next),
            }
        }
        #[cfg(gls_model)]
        if self
            .state
            .wake_before_clear
            .load(std::sync::atomic::Ordering::Relaxed)
        {
            // SAFETY: as below, but the admitted successor may now store its
            // own successor into `next` before the clear wipes it out.
            unsafe { (*succ).locked.store(false, Ordering::Release) };
            self.state.next.store(ptr::null_mut(), Ordering::Relaxed);
            self.state.queued.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        // Clear before the wake: once admitted, the successor owns `next`.
        self.state.next.store(ptr::null_mut(), Ordering::Relaxed);
        // SAFETY: `succ` spins in `lock_queued` until this store, so its
        // node is alive; we do not touch it after.
        unsafe { (*succ).locked.store(false, Ordering::Release) };
        self.state.queued.fetch_sub(1, Ordering::Relaxed);
    }

    fn is_locked(&self) -> bool {
        !self.state.tail.load(Ordering::Relaxed).is_null()
    }
}

impl RawTryLock for McsLock {
    #[inline]
    fn try_lock(&self) -> bool {
        let acquired = self
            .state
            .tail
            .compare_exchange(ptr::null_mut(), HELD, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        if acquired {
            self.state.queued.fetch_add(1, Ordering::Relaxed);
        }
        acquired
    }
}

impl QueueInformed for McsLock {
    fn queue_length(&self) -> u64 {
        self.state.queued.load(Ordering::Relaxed)
    }
}

/// Model-build-only seeded bug for the explorer.
#[cfg(gls_model)]
impl McsLock {
    /// Makes this lock's `unlock` wake the successor *before* clearing
    /// `next`, so a late clear can wipe out the successor's own successor.
    pub fn model_wake_before_clear(&self) {
        self.state
            .wake_before_clear
            .store(true, std::sync::atomic::Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_unlock_single_thread() {
        let lock = McsLock::new();
        assert!(!lock.is_locked());
        lock.lock();
        assert!(lock.is_locked());
        assert_eq!(lock.queue_length(), 1);
        lock.unlock();
        assert!(!lock.is_locked());
        assert_eq!(lock.queue_length(), 0);
    }

    #[test]
    fn is_one_cache_line() {
        assert_eq!(std::mem::size_of::<McsLock>(), 64);
    }

    #[test]
    fn repeated_acquisition_leaves_the_lock_free() {
        let lock = McsLock::new();
        for _ in 0..10_000 {
            lock.lock();
            lock.unlock();
        }
        assert!(!lock.is_locked());
        assert_eq!(lock.queue_length(), 0);
    }

    #[test]
    fn try_lock_semantics() {
        let lock = McsLock::new();
        assert!(lock.try_lock());
        assert!(!lock.try_lock());
        lock.unlock();
        assert!(lock.try_lock());
        lock.unlock();
    }

    #[test]
    fn unlock_when_free_is_tolerated() {
        let lock = McsLock::new();
        lock.unlock();
        lock.lock();
        lock.unlock();
    }

    #[test]
    fn provides_mutual_exclusion() {
        crate::test_support::check_mutual_exclusion::<McsLock>(8, 20_000);
    }

    #[test]
    fn queue_length_counts_waiters() {
        let lock = Arc::new(McsLock::new());
        lock.lock();
        let mut handles = Vec::new();
        for _ in 0..3 {
            let l = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                l.lock();
                l.unlock();
            }));
        }
        while lock.queue_length() < 4 {
            std::hint::spin_loop();
        }
        assert_eq!(lock.queue_length(), 4);
        lock.unlock();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lock.queue_length(), 0);
    }

    /// Taken on thread A, released on thread C while thread B waits: the
    /// holder owns no node, so any thread's `unlock` admits B.
    #[test]
    fn release_on_a_third_thread_admits_the_queued_waiter() {
        let lock = Arc::new(McsLock::new());
        let l = Arc::clone(&lock);
        std::thread::spawn(move || l.lock()).join().unwrap();
        let l = Arc::clone(&lock);
        let waiter = std::thread::spawn(move || {
            l.lock();
            l.unlock();
        });
        // B has found the lock held with nobody queued and linked itself
        // into `next`.
        while lock.state.next.load(Ordering::Relaxed).is_null() {
            std::thread::yield_now();
        }
        let l = Arc::clone(&lock);
        std::thread::spawn(move || l.unlock()).join().unwrap();
        waiter.join().unwrap();
        assert!(!lock.is_locked());
        assert_eq!(lock.queue_length(), 0);
    }

    #[test]
    fn many_threads_with_nontrivial_critical_sections() {
        let lock = Arc::new(McsLock::new());
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        lock.lock();
                        counter.fetch_add(1, Ordering::Relaxed);
                        gls_runtime::spin_cycles(50);
                        lock.unlock();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 16_000);
    }
}
