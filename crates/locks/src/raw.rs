//! The raw lock traits shared by every algorithm in this crate.

/// A raw mutual-exclusion lock: no data, just `lock` / `unlock`.
///
/// This mirrors the classic lock interface of §2 of the paper. All
/// implementations in this crate are [`Send`] + [`Sync`] and constructible
/// with [`Default`] so that higher layers (GLK, GLS) can create them lazily.
///
/// # Contract
///
/// `unlock` must only be called by the thread that currently holds the lock.
/// Violations cannot cause memory unsafety with the implementations in this
/// crate (they are checked or tolerated), but they break mutual exclusion —
/// exactly the class of bug the GLS debug mode (§4.2) exists to detect.
pub trait RawLock: Send + Sync + Default {
    /// Human-readable algorithm name (e.g. `"TICKET"`), used in reports.
    const NAME: &'static str;

    /// Acquires the lock, blocking (spinning or sleeping) until it is held.
    fn lock(&self);

    /// Releases the lock.
    fn unlock(&self);

    /// Whether the lock is currently held by some thread.
    ///
    /// This is inherently racy and intended for diagnostics and tests only.
    fn is_locked(&self) -> bool;
}

/// A lock that also supports a non-blocking acquisition attempt.
pub trait RawTryLock: RawLock {
    /// Attempts to acquire the lock without waiting; returns `true` on
    /// success.
    fn try_lock(&self) -> bool;
}

/// A raw reader-writer lock: shared (read) and exclusive (write) access
/// with no data attached.
///
/// The exclusive side *is* the [`RawLock`]/[`RawTryLock`] interface —
/// `lock`/`unlock`/`try_lock` acquire and release write access — so every
/// reader-writer lock can be used wherever a plain mutual-exclusion lock is
/// expected (GLK, GLS entries, the benchmark harness). The `write_*` aliases
/// below exist so call sites pairing with `read_*` read symmetrically.
///
/// # Contract
///
/// `read_unlock` must only be called by a thread holding shared access, and
/// `write_unlock` by the thread holding exclusive access. Implementations in
/// this crate are writer-preferring: a waiting writer blocks newly arriving
/// readers (see [`RwTtasRaw`](crate::RwTtasRaw)), so a continuous reader
/// stream cannot starve writers. The flip side is that a continuous stream
/// of *writers* delays readers unboundedly — the right trade-off for the
/// evaluated systems' structure locks (reads dominate, writes must land),
/// but not a general fairness guarantee for read-mostly users.
pub trait RawRwLock: RawTryLock {
    /// Acquires shared (read) access, blocking until no writer holds or
    /// awaits the lock.
    fn read_lock(&self);

    /// Attempts to acquire shared access without waiting; returns `true` on
    /// success.
    fn try_read_lock(&self) -> bool;

    /// Releases shared access.
    fn read_unlock(&self);

    /// Acquires exclusive (write) access; equivalent to [`RawLock::lock`].
    fn write_lock(&self) {
        self.lock();
    }

    /// Attempts to acquire exclusive access without waiting; equivalent to
    /// [`RawTryLock::try_lock`].
    fn try_write_lock(&self) -> bool {
        self.try_lock()
    }

    /// Releases exclusive access; equivalent to [`RawLock::unlock`].
    fn write_unlock(&self) {
        self.unlock();
    }
}

/// A lock able to report how many threads are currently involved with it
/// (the holder plus any waiters).
///
/// GLK's contention metric is "the amount of queuing behind the lock" (§3):
/// for a ticket lock this is `ticket - owner`, for MCS the paper counts queue
/// nodes. Every lock used inside GLK implements this trait.
pub trait QueueInformed: RawLock {
    /// Number of threads holding or waiting for the lock right now.
    ///
    /// `0` means free and uncontended; `1` means held with no waiter.
    fn queue_length(&self) -> u64;
}

/// Asserts at compile time that `T` is `Send` and `Sync`; used in tests.
#[cfg(test)]
pub(crate) fn assert_send_sync<T: Send + Sync>() {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ClhLock, FutexLock, FutexRwLock, McsLock, MutexLock, RwTtasRaw, TasLock, TicketLock,
        TtasLock,
    };

    #[test]
    fn all_locks_are_send_sync() {
        assert_send_sync::<TasLock>();
        assert_send_sync::<TtasLock>();
        assert_send_sync::<TicketLock>();
        assert_send_sync::<McsLock>();
        assert_send_sync::<ClhLock>();
        assert_send_sync::<MutexLock>();
        assert_send_sync::<FutexLock>();
        assert_send_sync::<FutexRwLock>();
        assert_send_sync::<RwTtasRaw>();
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            TasLock::NAME,
            TtasLock::NAME,
            TicketLock::NAME,
            McsLock::NAME,
            ClhLock::NAME,
            MutexLock::NAME,
            FutexLock::NAME,
            FutexRwLock::NAME,
            RwTtasRaw::NAME,
        ];
        for (i, a) in names.iter().enumerate() {
            for b in names.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}
