//! A TTAS-based reader-writer lock.
//!
//! Several of the evaluated systems (Kyoto Cabinet, SQLite) protect their
//! main data structure with reader-writer locks. The paper overloads the
//! `pthread` reader-writer locks "with our custom TTAS-based implementation"
//! (§5.2, footnote 7); [`RwTtasRaw`] is that implementation, a raw lock (no
//! data) implementing [`RawRwLock`].
//!
//! # Writer intent
//!
//! A naive TTAS rwlock admits any arriving reader while the reader count is
//! non-zero, so a continuous stream of readers starves writers indefinitely.
//! The lock keeps a **writer-intent bit**: the first waiting writer
//! raises it, newly arriving readers back off while it is set, the current
//! readers drain, and the writer gets in. The bit is cleared on write
//! acquisition; further waiting writers re-raise it. This makes the lock
//! writer-preferring under contention — the usual choice for the structure
//! locks of the evaluated systems, where writes are rare but must not be
//! delayed unboundedly.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::cache_padded::CachePadded;
use crate::raw::{RawLock, RawRwLock, RawTryLock};
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
    /// `WRITER | INTENT | reader count`.
    word: CachePadded<AtomicU32>,
}

impl RwTtasRaw {
    /// Creates an unlocked rwlock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a writer currently holds the lock.
    pub fn is_write_locked(&self) -> bool {
        self.word.load(Ordering::Relaxed) & WRITER != 0
    }

    /// Number of readers currently holding the lock.
    pub fn reader_count(&self) -> u32 {
        self.word.load(Ordering::Relaxed) & READERS
    }

    /// Whether a writer has announced intent (is waiting to acquire).
    pub fn writer_pending(&self) -> bool {
        self.word.load(Ordering::Relaxed) & INTENT != 0
    }
}

impl RawRwLock for RwTtasRaw {
    fn read_lock(&self) {
        let mut wait = SpinWait::new();
        loop {
            let current = self.word.load(Ordering::Relaxed);
            // Back off while a writer holds the lock *or* waits for it: the
            // intent bit is what lets writers through a reader stream.
            if current & (WRITER | INTENT) == 0
                && self
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
        let current = self.word.load(Ordering::Relaxed);
        if current & (WRITER | INTENT) != 0 {
            return false;
        }
        self.word
            .compare_exchange(current, current + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    fn read_unlock(&self) {
        self.word.fetch_sub(1, Ordering::Release);
    }
}

impl RawLock for RwTtasRaw {
    /// Acquires exclusive (write) access.
    fn lock(&self) {
        let mut wait = SpinWait::new();
        loop {
            let current = self.word.load(Ordering::Relaxed);
            if current & (WRITER | READERS) == 0 {
                // Free (possibly intent-marked): claim it, consuming the
                // intent bit. Other waiting writers re-raise it below.
                if self
                    .word
                    .compare_exchange_weak(current, WRITER, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return;
                }
            } else if current & INTENT == 0 {
                // Announce before waiting so arriving readers back off and
                // the current readers can drain.
                self.word.fetch_or(INTENT, Ordering::Relaxed);
            }
            wait.spin();
        }
    }

    /// Releases exclusive access, preserving any other writer's intent bit.
    fn unlock(&self) {
        self.word.fetch_and(!WRITER, Ordering::Release);
    }

    fn is_locked(&self) -> bool {
        self.word.load(Ordering::Relaxed) & (WRITER | READERS) != 0
    }
}

impl RawTryLock for RwTtasRaw {
    fn try_lock(&self) -> bool {
        let current = self.word.load(Ordering::Relaxed);
        if current & (WRITER | READERS) != 0 {
            return false;
        }
        self.word
            .compare_exchange(current, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }
}

#[cfg(test)]
// Raw std sync and wall-clock sleeps are fine in stress tests: they pace
// real threads, not modeled ones (see clippy.toml).
#[allow(clippy::disallowed_types, clippy::disallowed_methods)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Increments `value` with a plain load and store, under write access:
    /// two writers inside at once would lose an update.
    fn write_increment(lock: &RwTtasRaw, value: &AtomicU64) {
        lock.write_lock();
        value.store(value.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        lock.write_unlock();
    }

    #[test]
    fn multiple_concurrent_readers() {
        let lock = RwTtasRaw::new();
        lock.read_lock();
        lock.read_lock();
        assert_eq!(lock.reader_count(), 2);
        assert!(!lock.try_lock());
        lock.read_unlock();
        lock.read_unlock();
        assert!(lock.try_lock());
        lock.unlock();
    }

    #[test]
    fn writer_excludes_readers() {
        let lock = RwTtasRaw::new();
        lock.write_lock();
        assert!(lock.is_write_locked());
        assert!(!lock.try_read_lock());
        lock.write_unlock();
        assert!(lock.try_read_lock());
        lock.read_unlock();
    }

    #[test]
    fn raw_lock_roundtrip() {
        let lock = RwTtasRaw::new();
        lock.read_lock();
        lock.read_lock();
        assert_eq!(lock.reader_count(), 2);
        assert!(!lock.try_lock());
        lock.read_unlock();
        lock.read_unlock();
        lock.lock();
        assert!(lock.is_write_locked());
        assert!(!lock.try_read_lock());
        lock.unlock();
        assert!(!lock.is_locked());
    }

    #[test]
    fn write_unlock_preserves_other_writers_intent() {
        let lock = RwTtasRaw::new();
        lock.lock();
        // Another writer announces while the first holds the lock.
        lock.word.fetch_or(INTENT, Ordering::Relaxed);
        lock.unlock();
        assert!(lock.writer_pending(), "intent must survive a write unlock");
        // Readers honor the surviving intent bit.
        assert!(!lock.try_read_lock());
    }

    #[test]
    fn pending_writer_blocks_new_readers() {
        let lock = Arc::new(RwTtasRaw::new());
        let value = Arc::new(AtomicU64::new(0));
        lock.read_lock();
        let writer = {
            let (lock, value) = (Arc::clone(&lock), Arc::clone(&value));
            std::thread::spawn(move || write_increment(&lock, &value))
        };
        // Wait for the writer to announce intent, then verify that a new
        // reader backs off even though only readers hold the lock.
        while !lock.writer_pending() {
            std::hint::spin_loop();
        }
        assert!(!lock.try_read_lock(), "intent bit must repel readers");
        lock.read_unlock();
        writer.join().unwrap();
        assert_eq!(value.load(Ordering::Relaxed), 1);
        assert!(!lock.is_locked());
    }

    /// Regression test for the writer-starvation bug: the old `write` path
    /// required `state == 0` with no intent bit, so 8 readers re-acquiring in
    /// a tight loop kept the reader count non-zero essentially forever and a
    /// writer never got in. With the intent bit it must acquire quickly.
    #[test]
    fn writer_completes_under_continuous_reader_churn() {
        let lock = Arc::new(RwTtasRaw::new());
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..8)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        lock.read_lock();
                        lock.read_unlock();
                    }
                })
            })
            .collect();
        // Let the reader storm establish itself.
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        lock.write_lock();
        let waited = start.elapsed();
        lock.write_unlock();
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert!(
            waited < Duration::from_secs(10),
            "writer starved for {waited:?} under reader churn"
        );
    }

    #[test]
    fn concurrent_writers_do_not_lose_updates() {
        let lock = Arc::new(RwTtasRaw::new());
        let value = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (lock, value) = (Arc::clone(&lock), Arc::clone(&value));
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        write_increment(&lock, &value);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(value.load(Ordering::Relaxed), 80_000);
    }

    #[test]
    fn readers_and_writers_interleave_consistently() {
        let lock = Arc::new(RwTtasRaw::new());
        let pair = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let (lock, pair) = (Arc::clone(&lock), Arc::clone(&pair));
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        lock.write_lock();
                        pair.0
                            .store(pair.0.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                        pair.1
                            .store(pair.1.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                        lock.write_unlock();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let (lock, pair) = (Arc::clone(&lock), Arc::clone(&pair));
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        lock.read_lock();
                        // Both halves must always agree: a torn view would
                        // mean a reader overlapped a writer.
                        let (a, b) = (
                            pair.0.load(Ordering::Relaxed),
                            pair.1.load(Ordering::Relaxed),
                        );
                        lock.read_unlock();
                        assert_eq!(a, b);
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        assert_eq!(pair.0.load(Ordering::Relaxed), 20_000);
    }
}
