//! Word-sized blocking reader-writer lock parked on the shared parking lot.
//!
//! The rw counterpart of [`FutexLock`](crate::FutexLock): the whole lock is
//! **one `AtomicU32`** (writer bit, writer-intent bit, parked bit, reader
//! count), with all wait queues held centrally in the [`ParkingLot`]. Like
//! the crate's other rw locks it is writer-preferring via the intent bit —
//! a stream of readers cannot starve a writer — and like
//! [`FutexLock`](crate::FutexLock) it is deliberately not cache-padded:
//! density is the point.
//!
//! Readers and writers park on the same address with distinct park tokens;
//! release uses [`ParkingLot::unpark_select`] to wake **the first
//! parked writer if one exists, else every parked reader** — decided under
//! the bucket lock, atomically with the parked-bit update, so the decision
//! cannot race with newly parking waiters. Waking readers past a parked
//! writer would be futile anyway (the writer's intent bit blocks them) and
//! waking them *instead of* the writer would strand it forever.
//!
//! Like [`FutexLock`](crate::FutexLock), woken waiters normally re-contend
//! with arriving threads (barging), but the bypass is **bounded**: the word
//! counts consecutive contended wakeups and once the streak reaches
//! [`HANDOFF_WAKEUPS`] the release *hands over* instead — a parked writer
//! receives the word with `WRITER` pre-set (bargers cannot steal the slot),
//! or, when no writer is parked, the whole parked reader batch is woken
//! with their read slots pre-charged into the reader count. Without this, a
//! parked writer can be bypassed indefinitely by barging writers (readers
//! are already fenced off by the intent bit), and a parked reader batch
//! can starve under writer churn: each wake loses the race to the next
//! writer's intent bit and re-parks, forever.

use gls_sync::atomic::{AtomicU32, Ordering};

use crate::futex_mutex::HANDOFF_WAKEUPS;
use crate::park::{ParkingLot, DEFAULT_UNPARK_TOKEN};
use crate::raw::{QueueInformed, RawLock, RawRwLock, RawTryLock};
use crate::spin_wait::SpinWait;

/// Writer-held flag (high bit).
const WRITER: u32 = 1 << 31;
/// Writer-intent flag: a writer is waiting; new readers back off.
const INTENT: u32 = 1 << 30;
/// Set while at least one waiter is (or is about to be) parked.
const PARKED: u32 = 1 << 29;
/// Bits counting consecutive contended wakeups (the handoff streak).
/// Written only under the parking-lot bucket lock of this word's address
/// (the release-wake path), and nonzero only while `PARKED` is set;
/// acquisition CASes preserve it.
const STREAK_SHIFT: u32 = 26;
const STREAK_MASK: u32 = 0b111 << STREAK_SHIFT;
/// The remaining bits count active readers (~67M, far beyond plausible).
const READERS: u32 = (1 << STREAK_SHIFT) - 1;

/// Park token tagging a parked reader.
const TOKEN_READER: usize = 0;
/// Park token tagging a parked writer.
const TOKEN_WRITER: usize = 1;

/// Unpark token meaning "the lock is yours": for a writer, `WRITER` was
/// pre-set on its behalf; for a reader, its read slot was pre-charged into
/// the reader count. No re-contention on wake.
const HANDOFF_UNPARK_TOKEN: usize = 1;

/// Number of bounded-spin rounds before a waiter parks. A single model
/// round covers the spin-vs-park split without exploding the state space.
#[cfg(not(gls_model))]
const SPIN_ATTEMPTS: u32 = 32;
#[cfg(gls_model)]
const SPIN_ATTEMPTS: u32 = 1;

/// A word-sized blocking (spin-then-park) reader-writer lock.
///
/// # Example
///
/// ```
/// use gls_locks::{FutexRwLock, RawRwLock};
///
/// let lock = FutexRwLock::new();
/// lock.read_lock();
/// assert!(!lock.try_write_lock());
/// lock.read_unlock();
/// lock.write_lock();
/// lock.write_unlock();
/// assert_eq!(std::mem::size_of::<FutexRwLock>(), 4);
/// ```
#[derive(Debug, Default)]
pub struct FutexRwLock {
    state: AtomicU32,
    /// Model-only observables (raw std atomics so they add no scheduling
    /// points; both only written under the bucket lock): the current and
    /// the maximum run of *consecutive* ordinary (non-handoff) writer
    /// wakeups, where any handoff or queue drain ends the run. The streak
    /// protocol bounds the maximum at `HANDOFF_WAKEUPS - 1` on every
    /// schedule; the pre-streak policy does not. Production stays one word.
    #[cfg(gls_model)]
    consec_writer_bypasses: std::sync::atomic::AtomicU32,
    #[cfg(gls_model)]
    max_writer_bypasses: std::sync::atomic::AtomicU32,
}

impl FutexRwLock {
    /// Creates an unlocked futex rwlock.
    pub const fn new() -> Self {
        Self {
            state: AtomicU32::new(0),
            #[cfg(gls_model)]
            consec_writer_bypasses: std::sync::atomic::AtomicU32::new(0),
            #[cfg(gls_model)]
            max_writer_bypasses: std::sync::atomic::AtomicU32::new(0),
        }
    }

    /// Whether a writer currently holds the lock.
    pub fn is_write_locked(&self) -> bool {
        self.state.load(Ordering::Relaxed) & WRITER != 0
    }

    /// Number of readers currently holding the lock.
    pub fn reader_count(&self) -> u32 {
        self.state.load(Ordering::Relaxed) & READERS
    }

    /// The parking-lot key: the address of the lock word.
    #[inline]
    fn addr(&self) -> usize {
        &self.state as *const AtomicU32 as usize
    }

    #[cold]
    fn read_lock_slow(&self) {
        let lot = ParkingLot::global();
        let mut wait = SpinWait::new();
        let mut spins = 0u32;
        loop {
            let state = self.state.load(Ordering::Relaxed);
            if state & (WRITER | INTENT) == 0 {
                assert!(state & READERS != READERS, "reader count overflow");
                if self
                    .state
                    .compare_exchange_weak(state, state + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return;
                }
                continue;
            }
            if state & PARKED == 0 {
                if spins < SPIN_ATTEMPTS {
                    spins += 1;
                    wait.spin_bounded();
                    continue;
                }
                if self
                    .state
                    .compare_exchange_weak(
                        state,
                        state | PARKED,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
                    .is_err()
                {
                    continue;
                }
            }
            let result = lot.park(
                self.addr(),
                TOKEN_READER,
                || {
                    let s = self.state.load(Ordering::Relaxed);
                    s & (WRITER | INTENT) != 0 && s & PARKED != 0
                },
                || {},
                None,
            );
            // A handoff wake means the releaser pre-charged our read slot
            // into the reader count: the read lock is ours, no
            // re-contention (and no chance to lose to a writer's intent).
            if result == crate::park::ParkResult::Unparked(HANDOFF_UNPARK_TOKEN) {
                return;
            }
            wait.reset();
            spins = 0;
        }
    }

    #[cold]
    fn write_lock_slow(&self) {
        let lot = ParkingLot::global();
        let mut wait = SpinWait::new();
        let mut spins = 0u32;
        loop {
            let state = self.state.load(Ordering::Relaxed);
            if state & (WRITER | READERS) == 0 {
                // Free: claim it, consuming the intent bit (other waiting
                // writers re-raise it) and preserving the parked bit and
                // the handoff streak (a barger must not erase the parked
                // waiters' progress towards a handoff).
                if self
                    .state
                    .compare_exchange_weak(
                        state,
                        (state & (PARKED | STREAK_MASK)) | WRITER,
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    return;
                }
                continue;
            }
            // Announce intent so the reader stream pauses for us.
            if state & INTENT == 0 {
                let _ = self.state.compare_exchange_weak(
                    state,
                    state | INTENT,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                continue;
            }
            if state & PARKED == 0 {
                if spins < SPIN_ATTEMPTS {
                    spins += 1;
                    wait.spin_bounded();
                    continue;
                }
                if self
                    .state
                    .compare_exchange_weak(
                        state,
                        state | PARKED,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
                    .is_err()
                {
                    continue;
                }
            }
            let result = lot.park(
                self.addr(),
                TOKEN_WRITER,
                || {
                    let s = self.state.load(Ordering::Relaxed);
                    s & (WRITER | READERS) != 0 && s & PARKED != 0
                },
                || {},
                None,
            );
            // A handoff wake means the releaser set WRITER on our behalf:
            // the write lock is ours, bargers could not steal the slot.
            if result == crate::park::ParkResult::Unparked(HANDOFF_UNPARK_TOKEN) {
                return;
            }
            wait.reset();
            spins = 0;
        }
    }

    /// Wakes the first parked writer, or — if no writer is parked — every
    /// parked reader; clears the parked bit when the queue drains. All of it
    /// is decided under one bucket lock, atomic with park validation.
    ///
    /// The handoff streak lives here too: every contended wakeup advances
    /// the streak bits, and once the streak reaches [`HANDOFF_WAKEUPS`] the
    /// wake becomes a *handoff* — the word is updated on the wakee's behalf
    /// (WRITER pre-set for a writer; read slots pre-charged for the reader
    /// batch) before the wake, under the bucket lock, so bargers cannot
    /// steal the slot. The commit must CAS-verify the word is actually
    /// grantable *now*: this path is reached from `read_unlock` after the
    /// count already dropped, so a barger may have acquired in between — in
    /// that case nobody is woken (the parked bit stays set; the barger's own
    /// release re-enters here).
    #[cold]
    fn unpark_waiters(&self) {
        let lot = ParkingLot::global();
        lot.unpark_select(
            self.addr(),
            |tokens| {
                // Everything below runs under the bucket lock: the streak
                // bits are only written here (acquisition CASes preserve
                // them), so read-modify-write on them is race-free.
                let word = self.state.load(Ordering::Relaxed);
                let streak = (word & STREAK_MASK) >> STREAK_SHIFT;
                let handoff_due = streak + 1 >= HANDOFF_WAKEUPS;
                let writer = tokens.iter().position(|&t| t == TOKEN_WRITER);
                let advance_streak = || {
                    let next = (streak + 1).min(STREAK_MASK >> STREAK_SHIFT);
                    let mut cur = self.state.load(Ordering::Relaxed);
                    loop {
                        let new = (cur & !STREAK_MASK) | (next << STREAK_SHIFT);
                        match self.state.compare_exchange_weak(
                            cur,
                            new,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => return,
                            Err(actual) => cur = actual,
                        }
                    }
                };
                if let Some(index) = writer {
                    if !handoff_due {
                        advance_streak();
                        #[cfg(gls_model)]
                        self.note_writer_bypass();
                        return vec![(index, DEFAULT_UNPARK_TOKEN)];
                    }
                    // Writer handoff: set WRITER on the wakee's behalf,
                    // provided the word is still free of holders. Intent
                    // stays as-is (other writers may maintain it).
                    let mut cur = self.state.load(Ordering::Relaxed);
                    loop {
                        if cur & (WRITER | READERS) != 0 {
                            return Vec::new(); // barged; holder re-wakes
                        }
                        let new = (cur & (INTENT | PARKED)) | WRITER;
                        match self.state.compare_exchange_weak(
                            cur,
                            new,
                            Ordering::Acquire,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => {
                                #[cfg(gls_model)]
                                self.reset_writer_bypasses();
                                return vec![(index, HANDOFF_UNPARK_TOKEN)];
                            }
                            Err(actual) => cur = actual,
                        }
                    }
                }
                let readers: Vec<usize> = tokens
                    .iter()
                    .enumerate()
                    .filter(|&(_, &t)| t == TOKEN_READER)
                    .map(|(i, _)| i)
                    .collect();
                if readers.is_empty() {
                    return Vec::new();
                }
                if !handoff_due {
                    advance_streak();
                    return readers
                        .into_iter()
                        .map(|i| (i, DEFAULT_UNPARK_TOKEN))
                        .collect();
                }
                // Reader-batch handoff: pre-charge every woken reader's
                // slot into the count, provided no writer holds or wants
                // the lock (admitting readers past an intent bit would
                // starve the spinning writer that raised it).
                let n = readers.len() as u32;
                let mut cur = self.state.load(Ordering::Relaxed);
                loop {
                    if cur & (WRITER | INTENT) != 0 {
                        return Vec::new(); // the writer's release re-wakes
                    }
                    // n read slots pre-charged; streak resets to zero.
                    let new = (cur & !STREAK_MASK) + n;
                    match self.state.compare_exchange_weak(
                        cur,
                        new,
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            #[cfg(gls_model)]
                            self.reset_writer_bypasses();
                            return readers
                                .into_iter()
                                .map(|i| (i, HANDOFF_UNPARK_TOKEN))
                                .collect();
                        }
                        Err(actual) => cur = actual,
                    }
                }
            },
            |result| {
                if !result.have_more {
                    // Queue drained: the parked bit goes, and the streak
                    // with it (streak bits are only meaningful while
                    // waiters exist; leaving them would dirty the word).
                    #[cfg(gls_model)]
                    self.reset_writer_bypasses();
                    self.state
                        .fetch_and(!(PARKED | STREAK_MASK), Ordering::Relaxed);
                }
            },
        );
    }
}

/// Model-build-only support for the protocol model tests: an observable
/// for the bounded-bypass property, and a faithful re-introduction of the
/// pre-streak release policy so the explorer can rediscover the writer
/// starvation it allowed.
#[cfg(gls_model)]
impl FutexRwLock {
    fn note_writer_bypass(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        let run = self.consec_writer_bypasses.fetch_add(1, Relaxed) + 1;
        self.max_writer_bypasses.fetch_max(run, Relaxed);
    }

    fn reset_writer_bypasses(&self) {
        self.consec_writer_bypasses
            .store(0, std::sync::atomic::Ordering::Relaxed);
    }

    /// Longest run of consecutive ordinary (non-handoff) writer wakeups
    /// observed so far, where any handoff or queue drain ends a run. The
    /// streak protocol keeps this at `HANDOFF_WAKEUPS - 1` or below on
    /// every schedule: an ordinary writer wake needs the streak at zero,
    /// leaves it at one, and the streak only returns to zero through a
    /// handoff or a drain — both of which end the run.
    pub fn model_max_consecutive_writer_bypasses(&self) -> u32 {
        self.max_writer_bypasses
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The release policy this lock shipped with *before* the handoff
    /// streak existed: always wake the first parked writer (else the
    /// reader batch) with an ordinary token and let it re-contend. The
    /// regression model test drives this to show the explorer finds the
    /// unbounded-bypass schedule the streak was added to kill.
    pub fn model_write_unlock_pre_handoff(&self) {
        if self
            .state
            .compare_exchange(WRITER, 0, Ordering::Release, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
        let prev = self.state.fetch_and(!WRITER, Ordering::Release);
        if prev & PARKED == 0 {
            return;
        }
        ParkingLot::global().unpark_select(
            self.addr(),
            |tokens| {
                if let Some(index) = tokens.iter().position(|&t| t == TOKEN_WRITER) {
                    self.note_writer_bypass();
                    return vec![(index, DEFAULT_UNPARK_TOKEN)];
                }
                tokens
                    .iter()
                    .enumerate()
                    .filter(|&(_, &t)| t == TOKEN_READER)
                    .map(|(i, _)| (i, DEFAULT_UNPARK_TOKEN))
                    .collect()
            },
            |result| {
                if !result.have_more {
                    self.reset_writer_bypasses();
                    self.state
                        .fetch_and(!(PARKED | STREAK_MASK), Ordering::Relaxed);
                }
            },
        );
    }
}

impl RawRwLock for FutexRwLock {
    #[inline]
    fn read_lock(&self) {
        let state = self.state.load(Ordering::Relaxed);
        if state & (WRITER | INTENT) != 0
            || self
                .state
                .compare_exchange_weak(state, state + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.read_lock_slow();
        }
    }

    #[inline]
    fn try_read_lock(&self) -> bool {
        let mut state = self.state.load(Ordering::Relaxed);
        loop {
            if state & (WRITER | INTENT) != 0 {
                return false;
            }
            match self.state.compare_exchange_weak(
                state,
                state + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => state = actual,
            }
        }
    }

    #[inline]
    fn read_unlock(&self) {
        let prev = self.state.fetch_sub(1, Ordering::Release);
        debug_assert!(prev & READERS > 0, "read_unlock without a reader");
        // The last reader leaving wakes any parked waiters (a writer first).
        if prev & READERS == 1 && prev & PARKED != 0 {
            self.unpark_waiters();
        }
    }
}

impl RawLock for FutexRwLock {
    /// Acquires exclusive (write) access.
    #[inline]
    fn lock(&self) {
        if self
            .state
            .compare_exchange_weak(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.write_lock_slow();
        }
    }

    #[inline]
    fn unlock(&self) {
        if self
            .state
            .compare_exchange(WRITER, 0, Ordering::Release, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
        // Intent and/or parked bits present: clear the writer bit, then wake.
        let prev = self.state.fetch_and(!WRITER, Ordering::Release);
        debug_assert!(prev & WRITER != 0, "write unlock without a writer");
        if prev & PARKED != 0 {
            self.unpark_waiters();
        }
    }

    fn is_locked(&self) -> bool {
        self.state.load(Ordering::Relaxed) & (WRITER | READERS) != 0
    }
}

impl RawTryLock for FutexRwLock {
    #[inline]
    fn try_lock(&self) -> bool {
        let mut state = self.state.load(Ordering::Relaxed);
        loop {
            if state & (WRITER | READERS) != 0 {
                return false;
            }
            match self.state.compare_exchange_weak(
                state,
                (state & (PARKED | STREAK_MASK)) | WRITER,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => state = actual,
            }
        }
    }
}

impl QueueInformed for FutexRwLock {
    /// Holders (readers or the writer) plus parked waiters; spinning waiters
    /// are invisible, as for [`FutexLock`](crate::FutexLock).
    fn queue_length(&self) -> u64 {
        let state = self.state.load(Ordering::Relaxed);
        let holders = u64::from(state & READERS) + u64::from(state & WRITER != 0);
        holders + ParkingLot::global().parked_count(self.addr()) as u64
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
    use std::time::Duration;

    #[test]
    fn raw_state_is_one_word() {
        assert_eq!(std::mem::size_of::<FutexRwLock>(), 4);
    }

    #[test]
    fn read_write_roundtrip() {
        let lock = FutexRwLock::new();
        lock.read_lock();
        lock.read_lock();
        assert_eq!(lock.reader_count(), 2);
        assert!(!lock.try_write_lock());
        lock.read_unlock();
        lock.read_unlock();
        lock.write_lock();
        assert!(lock.is_write_locked());
        assert!(!lock.try_read_lock());
        lock.write_unlock();
        assert!(!lock.is_locked());
        assert_eq!(lock.queue_length(), 0);
    }

    #[test]
    fn parked_writer_is_woken_by_last_reader() {
        let lock = Arc::new(FutexRwLock::new());
        lock.read_lock();
        let writer = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                lock.write_lock();
                lock.write_unlock();
            })
        };
        // Give the writer time to exhaust its spin budget and park.
        std::thread::sleep(Duration::from_millis(50));
        lock.read_unlock();
        writer.join().unwrap();
        assert!(!lock.is_locked());
        assert_eq!(lock.state.load(Ordering::Relaxed), 0, "all bits cleared");
    }

    #[test]
    fn parked_readers_are_woken_by_writer() {
        let lock = Arc::new(FutexRwLock::new());
        lock.write_lock();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    lock.read_lock();
                    lock.read_unlock();
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        lock.write_unlock();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(lock.queue_length(), 0);
        assert_eq!(lock.state.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn writer_completes_under_continuous_reader_churn() {
        let lock = Arc::new(FutexRwLock::new());
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
        std::thread::sleep(Duration::from_millis(50));
        lock.write_lock();
        lock.write_unlock();
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn readers_and_writers_interleave_consistently() {
        struct Shared(std::cell::UnsafeCell<(u64, u64)>);
        // SAFETY: the cell is only touched while holding the lock under
        // test; that exclusion is exactly what the test verifies.
        unsafe impl Sync for Shared {}
        let lock = Arc::new(FutexRwLock::new());
        let shared = Arc::new(Shared(std::cell::UnsafeCell::new((0, 0))));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        lock.write_lock();
                        // SAFETY: written while holding the write lock under test.
                        unsafe {
                            (*shared.0.get()).0 += 1;
                            (*shared.0.get()).1 += 1;
                        }
                        lock.write_unlock();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        lock.read_lock();
                        // SAFETY: read under the read lock; writers are excluded.
                        let (a, b) = unsafe { *shared.0.get() };
                        assert_eq!(a, b, "reader overlapped a writer");
                        lock.read_unlock();
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        // SAFETY: all worker threads are joined; nothing races this read.
        assert_eq!(unsafe { (*shared.0.get()).0 }, 8_000);
        assert_eq!(lock.state.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn parked_writer_bypass_is_bounded_under_barging_writers() {
        // Regression test mirroring futex_mutex's parked-victim test: a
        // parked writer must acquire within a bounded number of contended
        // wakeups even while other writers barge on every release. The
        // handoff streak guarantees every HANDOFF_WAKEUPS-th wake pre-sets
        // WRITER on the victim's behalf; without it the woken victim loses
        // the re-contention race to the bargers for unbounded stretches.
        let lock = Arc::new(FutexRwLock::new());
        let victim_done = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        lock.write_lock();
        let victim = {
            let lock = Arc::clone(&lock);
            let done = Arc::clone(&victim_done);
            std::thread::spawn(move || {
                lock.write_lock();
                done.store(true, Ordering::Release);
                lock.write_unlock();
            })
        };
        // Wait until the victim is parked (holder + parked waiter >= 2).
        while lock.queue_length() < 2 {
            std::thread::yield_now();
        }
        let bargers: Vec<_> = (0..8)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut ops = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        lock.write_lock();
                        std::hint::spin_loop();
                        lock.write_unlock();
                        ops += 1;
                    }
                    ops
                })
            })
            .collect();
        lock.write_unlock();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !victim_done.load(Ordering::Acquire) {
            assert!(
                std::time::Instant::now() < deadline,
                "parked writer starved behind barging writers"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = bargers.into_iter().map(|h| h.join().unwrap()).sum();
        victim.join().unwrap();
        assert!(total > 0, "bargers must have run");
        assert_eq!(lock.state.load(Ordering::Relaxed), 0, "word fully clears");
    }

    #[test]
    fn parked_reader_batch_is_admitted_under_writer_churn() {
        // The reader-side fairness bound: a batch of parked readers under
        // continuous writer churn must all be admitted within a bounded
        // number of wakeups. The batch handoff pre-charges their read
        // slots into the count, so a woken reader cannot lose the race to
        // the next writer's intent bit and re-park forever.
        use std::sync::atomic::AtomicUsize;
        let lock = Arc::new(FutexRwLock::new());
        let readers_done = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        lock.write_lock();
        let victims: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let done = Arc::clone(&readers_done);
                std::thread::spawn(move || {
                    lock.read_lock();
                    done.fetch_add(1, Ordering::Release);
                    lock.read_unlock();
                })
            })
            .collect();
        // Wait until all four readers are parked behind the held write lock.
        while lock.queue_length() < 5 {
            std::thread::yield_now();
        }
        let churners: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut ops = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        lock.write_lock();
                        std::hint::spin_loop();
                        lock.write_unlock();
                        ops += 1;
                    }
                    ops
                })
            })
            .collect();
        lock.write_unlock();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while readers_done.load(Ordering::Acquire) < 4 {
            assert!(
                std::time::Instant::now() < deadline,
                "parked readers starved under writer churn ({} of 4 ran)",
                readers_done.load(Ordering::Acquire)
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = churners.into_iter().map(|h| h.join().unwrap()).sum();
        for v in victims {
            v.join().unwrap();
        }
        assert!(total > 0, "writer churn must have run");
        assert_eq!(lock.state.load(Ordering::Relaxed), 0, "word fully clears");
    }

    #[test]
    fn mixed_churn_leaves_no_residue() {
        // Heavy mixed traffic with forced parking (writers hold long enough
        // for readers to park and vice versa); afterwards the word must be
        // exactly zero and the lot free of this lock's waiters.
        let lock = Arc::new(FutexRwLock::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for i in 0..3_000u64 {
                        if (t + i as usize).is_multiple_of(3) {
                            lock.write_lock();
                            std::hint::spin_loop();
                            lock.write_unlock();
                        } else {
                            lock.read_lock();
                            std::hint::spin_loop();
                            lock.read_unlock();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lock.state.load(Ordering::Relaxed), 0);
        assert_eq!(lock.queue_length(), 0);
    }
}
