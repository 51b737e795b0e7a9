//! CLH queue lock.
//!
//! The CLH lock (Craig, Landin & Hagersten) is the second queue-based
//! algorithm exposed by GLS (Table 1). Unlike MCS, each waiter spins on its
//! *predecessor's* node, and nodes are handed down the queue: when a thread
//! releases the lock its node becomes the successor's predecessor and the
//! releaser recycles the node it had been spinning on.
//!
//! As with [`McsLock`](crate::McsLock), nodes are pooled per thread and
//! spilled to a process-wide list on thread exit so that node memory is never
//! returned to the allocator while the process runs; stale reads during racy
//! inspection are therefore always reads of valid memory.

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

/// One CLH queue node.
#[derive(Debug)]
struct ClhNode {
    /// True while the thread that published this node holds or waits for the
    /// lock; successors spin on it.
    locked: AtomicBool,
    _pad: [u8; 56],
}

impl ClhNode {
    fn new(locked: bool) -> *mut ClhNode {
        Box::into_raw(Box::new(ClhNode {
            locked: AtomicBool::new(locked),
            _pad: [0; 56],
        }))
    }
}

static SPILL: Mutex<Vec<usize>> = Mutex::new(Vec::new());

struct NodePool {
    nodes: Vec<*mut ClhNode>,
}

impl NodePool {
    fn acquire(&mut self) -> *mut ClhNode {
        if let Some(node) = self.nodes.pop() {
            return node;
        }
        if let Ok(mut spill) = SPILL.lock() {
            if let Some(addr) = spill.pop() {
                return addr as *mut ClhNode;
            }
        }
        ClhNode::new(false)
    }

    fn release(&mut self, node: *mut ClhNode) {
        self.nodes.push(node);
    }
}

impl Drop for NodePool {
    fn drop(&mut self) {
        if let Ok(mut spill) = SPILL.lock() {
            spill.extend(self.nodes.drain(..).map(|p| p as usize));
        }
    }
}

thread_local! {
    static POOL: std::cell::RefCell<NodePool> =
        const { std::cell::RefCell::new(NodePool { nodes: Vec::new() }) };
}

fn pool_acquire() -> *mut ClhNode {
    POOL.with(|p| p.borrow_mut().acquire())
}

fn pool_release(node: *mut ClhNode) {
    POOL.with(|p| p.borrow_mut().release(node));
}

/// A CLH queue spinlock, padded to one cache line.
///
/// # Example
///
/// ```
/// use gls_locks::{ClhLock, RawLock};
///
/// let lock = ClhLock::new();
/// lock.lock();
/// lock.unlock();
/// ```
#[derive(Debug)]
pub struct ClhLock {
    state: CachePadded<ClhState>,
}

#[derive(Debug)]
struct ClhState {
    /// Most recently enqueued node; never null (starts as an unlocked dummy).
    tail: AtomicPtr<ClhNode>,
    /// Node published by the current holder.
    owner_node: AtomicPtr<ClhNode>,
    /// Predecessor node the current holder spun on (recycled at unlock).
    owner_pred: AtomicPtr<ClhNode>,
    /// Holder + waiters, for [`QueueInformed`].
    queued: AtomicU64,
}

impl Default for ClhLock {
    fn default() -> Self {
        Self::new()
    }
}

impl ClhLock {
    /// Creates an unlocked CLH lock.
    pub fn new() -> Self {
        Self {
            state: CachePadded::new(ClhState {
                tail: AtomicPtr::new(ClhNode::new(false)),
                owner_node: AtomicPtr::new(ptr::null_mut()),
                owner_pred: AtomicPtr::new(ptr::null_mut()),
                queued: AtomicU64::new(0),
            }),
        }
    }
}

impl Drop for ClhLock {
    fn drop(&mut self) {
        // When the lock is free and uncontended, the only live node is the
        // one `tail` points to; reclaim it. If the lock is dropped while held
        // (a usage error), the node is intentionally leaked rather than risk
        // a double free.
        if self.state.queued.load(Ordering::Relaxed) == 0 {
            let tail = self.state.tail.load(Ordering::Relaxed);
            if !tail.is_null() {
                // SAFETY: no thread holds or waits for this lock (queued == 0
                // and we have `&mut self`), so the tail node is unreachable
                // by anyone else and was allocated by `ClhNode::new`.
                unsafe { drop(Box::from_raw(tail)) };
            }
        }
    }
}

impl RawLock for ClhLock {
    #[inline]
    fn lock(&self) {
        self.state.queued.fetch_add(1, Ordering::Relaxed);
        let node = pool_acquire();
        // SAFETY: the node is exclusively ours until published by the swap.
        unsafe {
            (*node).locked.store(true, Ordering::Relaxed);
        }
        let pred = self.state.tail.swap(node, Ordering::AcqRel);
        // SAFETY: `pred` stays allocated for the process lifetime (pool /
        // spill discipline) and only we spin on it; it is recycled only by us
        // at unlock time.
        unsafe {
            let mut wait = SpinWait::new();
            while (*pred).locked.load(Ordering::Acquire) {
                wait.spin();
            }
        }
        self.state.owner_node.store(node, Ordering::Relaxed);
        self.state.owner_pred.store(pred, Ordering::Relaxed);
    }

    #[inline]
    fn unlock(&self) {
        let node = self
            .state
            .owner_node
            .swap(ptr::null_mut(), Ordering::Relaxed);
        if node.is_null() {
            // Releasing a free lock: tolerated; GLS debug mode reports it.
            return;
        }
        let pred = self
            .state
            .owner_pred
            .swap(ptr::null_mut(), Ordering::Relaxed);
        if !pred.is_null() {
            // Our predecessor's node is no longer referenced by anyone.
            pool_release(pred);
        }
        // SAFETY: `node` was published by us and is still allocated; clearing
        // `locked` hands the lock to our successor (or marks the queue idle).
        unsafe {
            (*node).locked.store(false, Ordering::Release);
        }
        self.state.queued.fetch_sub(1, Ordering::Relaxed);
    }

    fn is_locked(&self) -> bool {
        let tail = self.state.tail.load(Ordering::Relaxed);
        // SAFETY: nodes are never deallocated while the process runs.
        unsafe { !tail.is_null() && (*tail).locked.load(Ordering::Relaxed) }
    }
}

impl RawTryLock for ClhLock {
    #[inline]
    fn try_lock(&self) -> bool {
        let tail = self.state.tail.load(Ordering::Acquire);
        // SAFETY: node memory is never freed, so this read is always of valid
        // memory; at worst it is stale, in which case the CAS below fails.
        if unsafe { (*tail).locked.load(Ordering::Relaxed) } {
            return false;
        }
        let node = pool_acquire();
        // SAFETY: exclusively ours until published.
        unsafe {
            (*node).locked.store(true, Ordering::Relaxed);
        }
        match self
            .state
            .tail
            .compare_exchange(tail, node, Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(pred) => {
                // The predecessor was observed unlocked before the CAS. In the
                // (pathological, ABA-style) case where the same node pointer
                // was recycled and re-armed in between, we are already linked
                // into the queue and cannot back out; wait for the
                // predecessor, which is bounded by one critical section.
                // SAFETY: `pred` stays allocated for the process lifetime.
                unsafe {
                    let mut wait = SpinWait::new();
                    while (*pred).locked.load(Ordering::Acquire) {
                        wait.spin();
                    }
                }
                self.state.owner_node.store(node, Ordering::Relaxed);
                self.state.owner_pred.store(pred, Ordering::Relaxed);
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

impl QueueInformed for ClhLock {
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
        let lock = ClhLock::new();
        assert!(!lock.is_locked());
        lock.lock();
        assert!(lock.is_locked());
        lock.unlock();
        assert!(!lock.is_locked());
    }

    #[test]
    fn repeated_acquisition_recycles_nodes() {
        let lock = ClhLock::new();
        for _ in 0..10_000 {
            lock.lock();
            lock.unlock();
        }
        assert!(!lock.is_locked());
        assert_eq!(lock.queue_length(), 0);
    }

    #[test]
    fn try_lock_semantics() {
        let lock = ClhLock::new();
        assert!(lock.try_lock());
        assert!(!lock.try_lock());
        lock.unlock();
        assert!(lock.try_lock());
        lock.unlock();
    }

    #[test]
    fn unlock_when_free_is_tolerated() {
        let lock = ClhLock::new();
        lock.unlock();
        lock.lock();
        lock.unlock();
    }

    #[test]
    fn provides_mutual_exclusion() {
        crate::test_support::check_mutual_exclusion::<ClhLock>(8, 20_000);
    }

    #[test]
    fn queue_length_counts_waiters() {
        let lock = Arc::new(ClhLock::new());
        lock.lock();
        let l = Arc::clone(&lock);
        let waiter = std::thread::spawn(move || {
            l.lock();
            l.unlock();
        });
        while lock.queue_length() < 2 {
            std::hint::spin_loop();
        }
        assert_eq!(lock.queue_length(), 2);
        lock.unlock();
        waiter.join().unwrap();
        assert_eq!(lock.queue_length(), 0);
    }

    #[test]
    fn drop_while_free_does_not_crash() {
        let lock = ClhLock::new();
        lock.lock();
        lock.unlock();
        drop(lock);
    }

    #[test]
    fn mixed_try_and_blocking_acquisitions() {
        let lock = Arc::new(ClhLock::new());
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let lock = Arc::clone(&lock);
                let hits = Arc::clone(&hits);
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        if i % 2 == 0 {
                            lock.lock();
                            hits.fetch_add(1, Ordering::Relaxed);
                            lock.unlock();
                        } else if lock.try_lock() {
                            hits.fetch_add(1, Ordering::Relaxed);
                            lock.unlock();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(hits.load(Ordering::Relaxed) >= 8_000);
        assert!(!lock.is_locked());
    }
}
