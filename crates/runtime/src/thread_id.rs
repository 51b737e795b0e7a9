//! Small, dense, reusable thread identifiers.
//!
//! The GLS debug mode records "which thread owns this lock" and "which lock
//! this thread is waiting on" in fixed-size arrays indexed by thread id, so
//! ids must be small integers rather than the opaque [`std::thread::ThreadId`].
//! Ids are assigned on first use, cached in a thread-local, and recycled when
//! the thread exits so that long-running processes with thread churn do not
//! exhaust the id space.

// Deadlock-detector bookkeeping stays off the gls_sync facade so the
// model explorer never schedules around it (see clippy.toml).
#![allow(clippy::disallowed_types)]

use std::cell::Cell;
use std::collections::BinaryHeap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Maximum number of concurrently-live thread ids supported by the debug and
/// deadlock-detection machinery.
///
/// The paper's platforms have at most 48 hardware contexts; 4096 leaves ample
/// room for heavily oversubscribed configurations.
pub const MAX_THREADS: usize = 4096;

/// A dense per-thread identifier in `0..MAX_THREADS`.
///
/// # Example
///
/// ```
/// use gls_runtime::ThreadId;
///
/// let me = ThreadId::current();
/// assert_eq!(me, ThreadId::current());
/// assert!(me.as_usize() < gls_runtime::thread_id::MAX_THREADS);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(u32);

impl ThreadId {
    /// Returns the identifier of the calling thread, assigning one if needed.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_THREADS`] threads are alive simultaneously.
    pub fn current() -> Self {
        CURRENT.with(|slot| {
            if let Some(id) = slot.id.get() {
                return id;
            }
            let id = allocate();
            slot.id.set(Some(id));
            id
        })
    }

    /// The id as an array index.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// The id as a raw `u32`.
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// Builds a `ThreadId` from a raw index.
    ///
    /// Intended for tests and for decoding ids stored in atomics; no liveness
    /// check is performed.
    pub fn from_raw(raw: u32) -> Self {
        ThreadId(raw)
    }
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

struct Registry {
    /// Min-heap of recycled ids (stored negated via `Reverse` would be nicer,
    /// but a plain max-heap of negatives keeps it dependency-free).
    free: BinaryHeap<std::cmp::Reverse<u32>>,
    next: u32,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    free: BinaryHeap::new(),
    next: 0,
});

/// Locks the registry. Every update is a single push, pop or increment, so
/// a panic while it was held (the thread-limit assertion below) left nothing
/// half-done: a poisoned registry keeps handing out and taking back ids.
fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

fn allocate() -> ThreadId {
    let mut reg = registry();
    if let Some(std::cmp::Reverse(id)) = reg.free.pop() {
        return ThreadId(id);
    }
    let id = reg.next;
    assert!(
        (id as usize) < MAX_THREADS,
        "too many concurrently live threads for the GLS debug machinery \
         (limit: {MAX_THREADS})"
    );
    reg.next += 1;
    ThreadId(id)
}

fn release(id: ThreadId) {
    registry().free.push(std::cmp::Reverse(id.0));
}

struct Slot {
    id: Cell<Option<ThreadId>>,
}

impl Drop for Slot {
    fn drop(&mut self) {
        if let Some(id) = self.id.get() {
            release(id);
        }
    }
}

thread_local! {
    static CURRENT: Slot = const { Slot { id: Cell::new(None) } };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_is_stable_within_a_thread() {
        let a = ThreadId::current();
        let b = ThreadId::current();
        assert_eq!(a, b);
    }

    #[test]
    fn different_threads_get_different_ids() {
        let mine = ThreadId::current();
        let theirs = std::thread::spawn(ThreadId::current).join().unwrap();
        assert_ne!(mine, theirs);
    }

    #[test]
    fn ids_are_recycled_after_thread_exit() {
        // Spawn sequentially many more threads than MAX_THREADS; without
        // recycling this would panic.
        for _ in 0..MAX_THREADS + 64 {
            std::thread::spawn(|| {
                let _ = ThreadId::current();
            })
            .join()
            .unwrap();
        }
    }

    #[test]
    fn ids_stay_dense_under_concurrency() {
        let handles: Vec<_> = (0..32)
            .map(|_| std::thread::spawn(|| ThreadId::current().as_usize()))
            .collect();
        for h in handles {
            let id = h.join().unwrap();
            assert!(id < MAX_THREADS);
        }
    }

    #[test]
    fn poisoned_registry_keeps_recycling_ids() {
        let poisoner = std::thread::spawn(|| {
            let _registry = REGISTRY.lock().unwrap();
            panic!("poison the thread-id registry");
        });
        assert!(poisoner.join().is_err());
        assert!(REGISTRY.is_poisoned());
        // More sequential threads than there are ids: each must still be
        // handed one, which only works if each exit still returns its own.
        for _ in 0..MAX_THREADS + 64 {
            std::thread::spawn(ThreadId::current).join().unwrap();
        }
    }

    #[test]
    fn display_is_compact() {
        let id = ThreadId::from_raw(7);
        assert_eq!(id.to_string(), "T7");
    }
}
