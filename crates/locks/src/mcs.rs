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
//! `lock`/`unlock`. To fit the node-less [`RawLock`] interface (which GLK and
//! GLS need — they hand out plain `lock()`/`unlock()` calls), nodes are drawn
//! from a per-thread pool and the lock records the owner's node in an
//! `owner_node` field that `unlock` consults, the same technique used by the
//! paper's C library. Nodes are recycled through the pool and spilled to a
//! process-wide free list when a thread exits, so node memory is never
//! returned to the allocator while the process runs; this keeps all queue
//! traversals free of use-after-free hazards.
//!
//! Instead of walking the queue to count waiters (which the paper does only
//! at a low sampling rate because it violates the "one thread per node"
//! design goal), the lock maintains an exact holder+waiter counter updated at
//! enqueue/release.

// The process-wide node spill list is init-once bookkeeping on the cold
// thread-exit path, deliberately invisible to the model explorer
// (see clippy.toml).
#![allow(clippy::disallowed_types)]

use gls_sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::ptr;
use std::sync::Mutex;

use crate::cache_padded::CachePadded;
use crate::raw::{QueueInformed, RawLock, RawTryLock};
use crate::spin_wait::SpinWait;

/// One queue node; padded so that waiters spinning on `locked` do not share a
/// cache line.
#[derive(Debug)]
struct McsNode {
    /// True while the owning waiter must keep spinning.
    locked: AtomicBool,
    /// Next waiter in the queue, if any.
    next: AtomicPtr<McsNode>,
    _pad: [u8; 48],
}

impl McsNode {
    fn new() -> *mut McsNode {
        Box::into_raw(Box::new(McsNode {
            locked: AtomicBool::new(false),
            next: AtomicPtr::new(ptr::null_mut()),
            _pad: [0; 48],
        }))
    }
}

/// Process-wide spill list: nodes from exiting threads end up here instead of
/// being deallocated, so raw node pointers stay valid for the process
/// lifetime.
static SPILL: Mutex<Vec<usize>> = Mutex::new(Vec::new());

struct NodePool {
    nodes: Vec<*mut McsNode>,
}

impl NodePool {
    fn acquire(&mut self) -> *mut McsNode {
        if let Some(node) = self.nodes.pop() {
            return node;
        }
        if let Ok(mut spill) = SPILL.lock() {
            if let Some(addr) = spill.pop() {
                return addr as *mut McsNode;
            }
        }
        McsNode::new()
    }

    fn release(&mut self, node: *mut McsNode) {
        self.nodes.push(node);
    }
}

impl Drop for NodePool {
    fn drop(&mut self) {
        if let Ok(mut spill) = SPILL.lock() {
            spill.extend(self.nodes.drain(..).map(|p| p as usize));
        }
        // If the spill lock is poisoned the nodes leak, which is benign.
    }
}

thread_local! {
    static POOL: std::cell::RefCell<NodePool> =
        const { std::cell::RefCell::new(NodePool { nodes: Vec::new() }) };
}

fn pool_acquire() -> *mut McsNode {
    POOL.with(|p| p.borrow_mut().acquire())
}

fn pool_release(node: *mut McsNode) {
    POOL.with(|p| p.borrow_mut().release(node));
}

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

#[derive(Debug)]
struct McsState {
    /// Last node in the queue (null when free and uncontended).
    tail: AtomicPtr<McsNode>,
    /// Node of the current holder; consulted by `unlock`.
    owner_node: AtomicPtr<McsNode>,
    /// Exact holder+waiter count for [`QueueInformed`].
    queued: AtomicU64,
}

impl Default for McsState {
    fn default() -> Self {
        Self {
            tail: AtomicPtr::new(ptr::null_mut()),
            owner_node: AtomicPtr::new(ptr::null_mut()),
            queued: AtomicU64::new(0),
        }
    }
}

impl McsLock {
    /// Creates an unlocked MCS lock.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RawLock for McsLock {
    #[inline]
    fn lock(&self) {
        self.state.queued.fetch_add(1, Ordering::Relaxed);
        let node = pool_acquire();
        // SAFETY: `node` came from the pool and is exclusively ours until we
        // publish it via the tail swap below.
        unsafe {
            (*node).locked.store(true, Ordering::Relaxed);
            (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
        }
        let prev = self.state.tail.swap(node, Ordering::AcqRel);
        if !prev.is_null() {
            // SAFETY: `prev` is the node of the thread queued directly before
            // us; it cannot be recycled until it has observed our link and
            // handed the lock over, and node memory is never deallocated.
            unsafe {
                (*prev).next.store(node, Ordering::Release);
                let mut wait = SpinWait::new();
                while (*node).locked.load(Ordering::Acquire) {
                    wait.spin();
                }
            }
        }
        self.state.owner_node.store(node, Ordering::Relaxed);
    }

    #[inline]
    fn unlock(&self) {
        let node = self
            .state
            .owner_node
            .swap(ptr::null_mut(), Ordering::Relaxed);
        if node.is_null() {
            // Releasing a free lock: tolerated here; GLS debug mode reports it.
            return;
        }
        // SAFETY: `node` is the holder's node; only the holder (us) touches it
        // until we hand over or detach it, and node memory is never freed.
        unsafe {
            let mut next = (*node).next.load(Ordering::Acquire);
            if next.is_null() {
                // No known successor: try to detach the queue entirely.
                if self
                    .state
                    .tail
                    .compare_exchange(node, ptr::null_mut(), Ordering::Release, Ordering::Relaxed)
                    .is_ok()
                {
                    pool_release(node);
                    self.state.queued.fetch_sub(1, Ordering::Relaxed);
                    return;
                }
                // A successor is in the middle of linking itself; wait for it.
                let mut wait = SpinWait::new();
                loop {
                    next = (*node).next.load(Ordering::Acquire);
                    if !next.is_null() {
                        break;
                    }
                    wait.spin();
                }
            }
            (*next).locked.store(false, Ordering::Release);
            pool_release(node);
        }
        self.state.queued.fetch_sub(1, Ordering::Relaxed);
    }

    fn is_locked(&self) -> bool {
        !self.state.tail.load(Ordering::Relaxed).is_null()
    }
}

impl RawTryLock for McsLock {
    #[inline]
    fn try_lock(&self) -> bool {
        if !self.state.tail.load(Ordering::Relaxed).is_null() {
            return false;
        }
        let node = pool_acquire();
        // SAFETY: the node is exclusively ours until published.
        unsafe {
            (*node).locked.store(true, Ordering::Relaxed);
            (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
        }
        match self.state.tail.compare_exchange(
            ptr::null_mut(),
            node,
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => {
                self.state.owner_node.store(node, Ordering::Relaxed);
                self.state.queued.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                pool_release(node);
                false
            }
        }
    }
}

impl QueueInformed for McsLock {
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
    fn repeated_acquisition_reuses_nodes() {
        let lock = McsLock::new();
        for _ in 0..10_000 {
            lock.lock();
            lock.unlock();
        }
        assert!(!lock.is_locked());
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
