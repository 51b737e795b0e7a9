//! A TTAS-based reader-writer lock.
//!
//! Several of the evaluated systems (Kyoto Cabinet, SQLite) protect their
//! main data structure with reader-writer locks. The paper overloads the
//! `pthread` reader-writer locks "with our custom TTAS-based implementation"
//! (§5.2, footnote 7); this module is that implementation, in two forms:
//!
//! * [`RwTtasRaw`] — the raw lock (no data), implementing [`RawRwLock`] so
//!   the GLS middleware can manage it like any other algorithm;
//! * [`RwTtasLock<T>`] — the lock carrying the data it protects, like
//!   [`std::sync::RwLock`], built on top of the raw lock.
//!
//! # Writer intent
//!
//! A naive TTAS rwlock admits any arriving reader while the reader count is
//! non-zero, so a continuous stream of readers starves writers indefinitely.
//! Both locks here keep a **writer-intent bit**: the first waiting writer
//! raises it, newly arriving readers back off while it is set, the current
//! readers drain, and the writer gets in. The bit is cleared on write
//! acquisition; further waiting writers re-raise it. This makes the lock
//! writer-preferring under contention — the usual choice for the structure
//! locks of the evaluated systems, where writes are rare but must not be
//! delayed unboundedly.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::cache_padded::CachePadded;
use crate::raw::{QueueInformed, RawLock, RawRwLock, RawTryLock};
use crate::spin_wait::SpinWait;

/// Writer-held flag (high bit).
const WRITER: u32 = 1 << 31;
/// Writer-intent flag: a writer is waiting; new readers back off.
const INTENT: u32 = 1 << 30;
/// The remaining bits count active readers.
const READERS: u32 = INTENT - 1;

/// The raw (data-less) TTAS reader-writer spinlock.
///
/// Waiting is TTAS-style busy waiting with exponential backoff
/// ([`SpinWait`]). Writers announce themselves through the intent bit, so a
/// stream of readers cannot starve them (see the module docs).
///
/// # Example
///
/// ```
/// use gls_locks::{RawRwLock, RwTtasRaw};
///
/// let lock = RwTtasRaw::new();
/// lock.read_lock();
/// assert!(!lock.try_write_lock());
/// lock.read_unlock();
/// lock.write_lock();
/// lock.write_unlock();
/// ```
#[derive(Debug, Default)]
pub struct RwTtasRaw {
    state: CachePadded<RwTtasState>,
}

#[derive(Debug, Default)]
struct RwTtasState {
    /// `WRITER | INTENT | reader count`.
    word: AtomicU32,
    /// Holders + waiters, for [`QueueInformed`].
    queued: AtomicU64,
}

impl RwTtasRaw {
    /// Creates an unlocked rwlock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a writer currently holds the lock.
    pub fn is_write_locked(&self) -> bool {
        self.state.word.load(Ordering::Relaxed) & WRITER != 0
    }

    /// Number of readers currently holding the lock.
    pub fn reader_count(&self) -> u32 {
        self.state.word.load(Ordering::Relaxed) & READERS
    }

    /// Whether a writer has announced intent (is waiting to acquire).
    pub fn writer_pending(&self) -> bool {
        self.state.word.load(Ordering::Relaxed) & INTENT != 0
    }
}

impl RawRwLock for RwTtasRaw {
    fn read_lock(&self) {
        self.state.queued.fetch_add(1, Ordering::Relaxed);
        let mut wait = SpinWait::new();
        loop {
            let current = self.state.word.load(Ordering::Relaxed);
            // Back off while a writer holds the lock *or* waits for it: the
            // intent bit is what lets writers through a reader stream.
            if current & (WRITER | INTENT) == 0
                && self
                    .state
                    .word
                    .compare_exchange_weak(
                        current,
                        current + 1,
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    )
                    .is_ok()
            {
                return;
            }
            wait.spin();
        }
    }

    fn try_read_lock(&self) -> bool {
        let current = self.state.word.load(Ordering::Relaxed);
        if current & (WRITER | INTENT) != 0 {
            return false;
        }
        let acquired = self
            .state
            .word
            .compare_exchange(current, current + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        if acquired {
            self.state.queued.fetch_add(1, Ordering::Relaxed);
        }
        acquired
    }

    fn read_unlock(&self) {
        self.state.word.fetch_sub(1, Ordering::Release);
        self.state.queued.fetch_sub(1, Ordering::Relaxed);
    }
}

impl RawLock for RwTtasRaw {
    /// Acquires exclusive (write) access.
    fn lock(&self) {
        self.state.queued.fetch_add(1, Ordering::Relaxed);
        let mut wait = SpinWait::new();
        loop {
            let current = self.state.word.load(Ordering::Relaxed);
            if current & (WRITER | READERS) == 0 {
                // Free (possibly intent-marked): claim it, consuming the
                // intent bit. Other waiting writers re-raise it below.
                if self
                    .state
                    .word
                    .compare_exchange_weak(current, WRITER, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return;
                }
            } else if current & INTENT == 0 {
                // Announce before waiting so arriving readers back off and
                // the current readers can drain.
                self.state.word.fetch_or(INTENT, Ordering::Relaxed);
            }
            wait.spin();
        }
    }

    /// Releases exclusive access, preserving any other writer's intent bit.
    fn unlock(&self) {
        self.state.word.fetch_and(!WRITER, Ordering::Release);
        self.state.queued.fetch_sub(1, Ordering::Relaxed);
    }

    fn is_locked(&self) -> bool {
        self.state.word.load(Ordering::Relaxed) & (WRITER | READERS) != 0
    }
}

impl RawTryLock for RwTtasRaw {
    fn try_lock(&self) -> bool {
        let current = self.state.word.load(Ordering::Relaxed);
        if current & (WRITER | READERS) != 0 {
            return false;
        }
        let acquired = self
            .state
            .word
            .compare_exchange(current, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        if acquired {
            self.state.queued.fetch_add(1, Ordering::Relaxed);
        }
        acquired
    }
}

impl QueueInformed for RwTtasRaw {
    fn queue_length(&self) -> u64 {
        self.state.queued.load(Ordering::Relaxed)
    }
}

/// A spinning reader-writer lock protecting a value of type `T`.
///
/// Readers share access; a writer excludes everyone. Built on [`RwTtasRaw`],
/// so it inherits the writer-intent fairness described in the module docs.
///
/// # Example
///
/// ```
/// use gls_locks::RwTtasLock;
///
/// let lock = RwTtasLock::new(vec![1, 2, 3]);
/// assert_eq!(lock.read().len(), 3);
/// lock.write().push(4);
/// assert_eq!(lock.read().len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct RwTtasLock<T> {
    raw: RwTtasRaw,
    data: UnsafeCell<T>,
}

// SAFETY: access to `data` is mediated by the reader/writer protocol of the
// raw lock.
unsafe impl<T: Send> Send for RwTtasLock<T> {}
unsafe impl<T: Send + Sync> Sync for RwTtasLock<T> {}

impl<T> RwTtasLock<T> {
    /// Creates a new lock protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            raw: RwTtasRaw {
                state: CachePadded::new(RwTtasState {
                    word: AtomicU32::new(0),
                    queued: AtomicU64::new(0),
                }),
            },
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the lock and returns the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    /// Acquires shared (read) access, spinning while a writer holds — or
    /// waits for — the lock.
    pub fn read(&self) -> RwTtasReadGuard<'_, T> {
        self.raw.read_lock();
        RwTtasReadGuard { lock: self }
    }

    /// Acquires exclusive (write) access, spinning until all readers and any
    /// writer have left.
    pub fn write(&self) -> RwTtasWriteGuard<'_, T> {
        self.raw.lock();
        RwTtasWriteGuard { lock: self }
    }

    /// Whether a writer currently holds the lock.
    pub fn is_write_locked(&self) -> bool {
        self.raw.is_write_locked()
    }

    /// Number of readers currently holding the lock.
    pub fn reader_count(&self) -> u32 {
        self.raw.reader_count()
    }

    /// Holder + waiter count of the underlying raw lock.
    pub fn queue_length(&self) -> u64 {
        self.raw.queue_length()
    }

    /// Mutable access without locking; requires `&mut self`, so it is
    /// statically race-free.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

/// Shared-access guard returned by [`RwTtasLock::read`].
#[derive(Debug)]
pub struct RwTtasReadGuard<'a, T> {
    lock: &'a RwTtasLock<T>,
}

impl<T> std::ops::Deref for RwTtasReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: readers have shared access while the reader count is held.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> Drop for RwTtasReadGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.raw.read_unlock();
    }
}

/// Exclusive-access guard returned by [`RwTtasLock::write`].
#[derive(Debug)]
pub struct RwTtasWriteGuard<'a, T> {
    lock: &'a RwTtasLock<T>,
}

impl<T> std::ops::Deref for RwTtasWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the writer flag grants exclusive access.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> std::ops::DerefMut for RwTtasWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the writer flag grants exclusive access.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for RwTtasWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.raw.unlock();
    }
}

#[cfg(test)]
// Raw std sync and wall-clock sleeps are fine in stress tests: they pace
// real threads, not modeled ones (see clippy.toml).
#[allow(clippy::disallowed_types, clippy::disallowed_methods)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn read_write_roundtrip() {
        let lock = RwTtasLock::new(10u64);
        assert_eq!(*lock.read(), 10);
        *lock.write() += 5;
        assert_eq!(*lock.read(), 15);
        assert_eq!(lock.into_inner(), 15);
    }

    #[test]
    fn multiple_concurrent_readers() {
        let lock = RwTtasLock::new(0u64);
        let r1 = lock.read();
        let r2 = lock.read();
        assert_eq!(lock.reader_count(), 2);
        assert!(!lock.raw.try_lock());
        drop(r1);
        drop(r2);
        assert!(lock.raw.try_lock());
    }

    #[test]
    fn writer_excludes_readers() {
        let lock = RwTtasLock::new(0u64);
        let w = lock.write();
        assert!(lock.is_write_locked());
        assert!(!lock.raw.try_read_lock());
        drop(w);
        assert!(lock.raw.try_read_lock());
    }

    #[test]
    fn get_mut_bypasses_locking() {
        let mut lock = RwTtasLock::new(1u64);
        *lock.get_mut() = 9;
        assert_eq!(*lock.read(), 9);
    }

    #[test]
    fn raw_lock_roundtrip_and_queue() {
        let lock = RwTtasRaw::new();
        assert_eq!(lock.queue_length(), 0);
        lock.read_lock();
        lock.read_lock();
        assert_eq!(lock.queue_length(), 2);
        assert_eq!(lock.reader_count(), 2);
        assert!(!lock.try_lock());
        lock.read_unlock();
        lock.read_unlock();
        lock.lock();
        assert!(lock.is_write_locked());
        assert_eq!(lock.queue_length(), 1);
        assert!(!lock.try_read_lock());
        lock.unlock();
        assert_eq!(lock.queue_length(), 0);
    }

    #[test]
    fn write_unlock_preserves_other_writers_intent() {
        let lock = RwTtasRaw::new();
        lock.lock();
        // Another writer announces while the first holds the lock.
        lock.state.word.fetch_or(INTENT, Ordering::Relaxed);
        lock.unlock();
        assert!(lock.writer_pending(), "intent must survive a write unlock");
        // Readers honor the surviving intent bit.
        assert!(!lock.try_read_lock());
    }

    #[test]
    fn pending_writer_blocks_new_readers() {
        let lock = Arc::new(RwTtasLock::new(0u64));
        let r = lock.read();
        let writer = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                *lock.write() += 1;
            })
        };
        // Wait for the writer to announce intent, then verify that a new
        // reader backs off even though only readers hold the lock.
        while !lock.raw.writer_pending() {
            std::hint::spin_loop();
        }
        assert!(!lock.raw.try_read_lock(), "intent bit must repel readers");
        drop(r);
        writer.join().unwrap();
        assert_eq!(*lock.read(), 1);
    }

    /// Regression test for the writer-starvation bug: the old `write` path
    /// required `state == 0` with no intent bit, so 8 readers re-acquiring in
    /// a tight loop kept the reader count non-zero essentially forever and a
    /// writer never got in. With the intent bit it must acquire quickly.
    #[test]
    fn writer_completes_under_continuous_reader_churn() {
        let lock = Arc::new(RwTtasLock::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..8)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        sum = sum.wrapping_add(*lock.read());
                    }
                    sum
                })
            })
            .collect();
        // Let the reader storm establish itself.
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        *lock.write() += 1;
        let waited = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*lock.read(), 1);
        assert!(
            waited < Duration::from_secs(10),
            "writer starved for {waited:?} under reader churn"
        );
    }

    #[test]
    fn concurrent_writers_do_not_lose_updates() {
        let lock = Arc::new(RwTtasLock::new(0u64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        *lock.write() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.read(), 80_000);
    }

    #[test]
    fn readers_and_writers_interleave_consistently() {
        let lock = Arc::new(RwTtasLock::new((0u64, 0u64)));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        let mut g = lock.write();
                        g.0 += 1;
                        g.1 += 1;
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        let g = lock.read();
                        // Both halves must always agree: a torn view would
                        // mean a reader overlapped a writer.
                        assert_eq!(g.0, g.1);
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        assert_eq!(lock.read().0, 20_000);
    }
}
