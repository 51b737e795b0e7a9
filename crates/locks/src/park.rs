//! The address-keyed parking lot: central wait queues for word-sized locks.
//!
//! The paper's blocking locks need a way to put waiters to sleep and wake
//! them on release. Embedding a `Mutex + Condvar` pair in every lock would
//! make each lock ~2 cache lines — fine for a handful of hot locks,
//! prohibitive for the address-keyed middleware whose whole point is that
//! *any* of millions of addresses can be a lock. The parking lot inverts
//! the layout, futex-style: lock state
//! shrinks to a single word, and all wait-queue state lives centrally in a
//! fixed table of buckets keyed by the lock's address. Threads that
//! must block **park** themselves in the bucket for their lock's address;
//! releasing threads **unpark** them from the same bucket.
//!
//! # Memory layout
//!
//! * One global table ([`ParkingLot::global`]) of [`BUCKETS`] cache-padded
//!   buckets, allocated once and never resized, each a mutex-protected FIFO
//!   queue of waiters. Lock addresses hash onto buckets; distinct locks may
//!   share a bucket (waiters carry their address, so sharing only contends
//!   the bucket mutex).
//! * One parker (a `Mutex<bool>` + `Condvar` signal cell) per **thread**,
//!   lazily created and reused for every park on any address. Space is
//!   therefore O(threads + buckets), independent of the number of locks —
//!   which is what lets [`FutexLock`](crate::FutexLock) be one `AtomicU32`.
//!
//! # Fairness and ordering guarantees
//!
//! * Waiters are queued and woken in **FIFO order per address**:
//!   [`ParkingLot::unpark_one`] always wakes the longest-parked waiter, and
//!   [`ParkingLot::unpark_all`] wakes in arrival order.
//! * Parking is **not** admission order for the lock built on top: a woken
//!   waiter re-contends with arriving threads (barging), exactly like a
//!   futex-based mutex. Locks that need FIFO admission keep using the queue
//!   locks (ticket, MCS).
//! * The `validate` closure passed to [`ParkingLot::park`] runs under the
//!   bucket lock, and so do the callbacks of the unpark primitives: a lock
//!   implementation can therefore re-check its atomic word and update
//!   wake-related bits (e.g. clear a "has parked waiters" flag) atomically
//!   with respect to enqueueing, which is what closes the classic
//!   lost-wakeup races without a per-lock mutex.
//!
//! There is one wake function per verb: [`unpark_one`](ParkingLot::unpark_one)
//! (the queue head), [`unpark_all`](ParkingLot::unpark_all) and
//! [`unpark_select`](ParkingLot::unpark_select) (a caller-chosen subset,
//! e.g. "first writer or else all readers"). A waiter stays on the address
//! it parked on until it is woken or times out. With
//! [`park`](ParkingLot::park)'s optional timeout they are the primitive set
//! the futex mutex, the futex reader-writer lock and the condition
//! variables are built from.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use gls_sync::atomic::{AtomicUsize, Ordering};
use gls_sync::sync::{Condvar, Mutex, MutexGuard};

use crate::cache_padded::CachePadded;

/// Number of buckets in the global parking lot (a power of two). 64
/// buckets of one cache line each keep the table at 4 kB. Model builds use
/// one bucket, as CLHT does, so an exploration's schedule space does not
/// depend on which buckets the heap addresses happen to hash to.
pub const BUCKETS: usize = if cfg!(gls_model) { 1 } else { 64 };

/// Park token used by callers that do not need to distinguish waiters.
pub const DEFAULT_PARK_TOKEN: usize = 0;

/// Unpark token used by wakers that do not need to pass information.
pub const DEFAULT_UNPARK_TOKEN: usize = 0;

/// Outcome of a [`ParkingLot::park`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkResult {
    /// The thread was woken by an unpark primitive; carries the waker's
    /// unpark token.
    Unparked(usize),
    /// The `validate` closure returned `false`; the thread never slept.
    Invalid,
    /// The timeout elapsed before any wake arrived.
    TimedOut,
}

/// What an unpark primitive did, observed by its callback while the bucket
/// is still locked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnparkResult {
    /// Number of waiters woken by this call.
    pub unparked: usize,
    /// Whether waiters for the same address remain parked after this call.
    pub have_more: bool,
}

/// A cheap point-in-time view of a [`ParkingLot`]'s internals, for
/// telemetry snapshots: no bucket lock is taken, every field is a relaxed
/// counter read (plus the table's length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParkingLotStats {
    /// Buckets in the table.
    pub buckets: usize,
    /// Waiters currently parked, over all addresses.
    pub parked: usize,
    /// Always 0: the table never grows. Kept only because the benchmark
    /// reads it as `park.growth_events` and snapshot schema v3 lists it.
    pub growth_events: u64,
    /// Always 0: waiters are never moved between addresses. Kept only
    /// because the benchmark reads it as `park.requeued_waiters` and
    /// snapshot schema v3 lists it.
    pub requeued_waiters: u64,
}

/// The per-thread signal cell every park sleeps on. One exists per thread
/// (lazily, in a thread-local) and is reused across parks on any address.
#[derive(Debug, Default)]
struct Parker {
    state: Mutex<ParkerState>,
    condvar: Condvar,
}

#[derive(Debug, Default)]
struct ParkerState {
    signaled: bool,
    unpark_token: usize,
}

impl Parker {
    /// Resets the signal before enqueueing. The park/unpark protocol pairs
    /// every enqueue with exactly one consumed signal, so none can be
    /// pending here.
    fn prepare(&self) {
        let state = self.state.lock().expect("parker poisoned");
        debug_assert!(!state.signaled, "unconsumed unpark signal");
    }

    /// Blocks until signaled; returns the unpark token.
    fn park(&self) -> usize {
        let mut state = self.state.lock().expect("parker poisoned");
        while !state.signaled {
            state = self.condvar.wait(state).expect("parker poisoned");
        }
        state.signaled = false;
        state.unpark_token
    }

    /// Blocks until signaled or until `timeout` elapses; `None` on timeout.
    fn park_timeout(&self, timeout: Duration) -> Option<usize> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("parker poisoned");
        while !state.signaled {
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .filter(|r| !r.is_zero())?;
            let (guard, timeout_result) = self
                .condvar
                .wait_timeout(state, remaining)
                .expect("parker poisoned");
            state = guard;
            // Inside a model execution a reported timeout is the driver
            // *choosing* the timeout path, not wall-clock expiry; honor it
            // immediately or the schedule would depend on real time.
            if gls_sync::in_model_execution() && timeout_result.timed_out() && !state.signaled {
                return None;
            }
        }
        state.signaled = false;
        Some(state.unpark_token)
    }

    /// Signals the parked thread. Called after the bucket lock is released.
    fn unpark(&self, unpark_token: usize) {
        let mut state = self.state.lock().expect("parker poisoned");
        state.signaled = true;
        state.unpark_token = unpark_token;
        drop(state);
        self.condvar.notify_one();
    }
}

thread_local! {
    static PARKER: Arc<Parker> = Arc::new(Parker::default());
}

/// One parked thread: its lock address, the token it parked with, and the
/// signal cell to wake it through.
#[derive(Debug)]
struct Waiter {
    addr: usize,
    park_token: usize,
    parker: Arc<Parker>,
}

/// A wait bucket: a FIFO queue of parked threads whose lock addresses hash
/// here.
#[derive(Debug, Default)]
struct Bucket {
    queue: Mutex<Vec<Waiter>>,
}

/// The table of wait buckets. Use [`ParkingLot::global`] in production;
/// dedicated instances exist for tests.
#[derive(Debug)]
pub struct ParkingLot {
    buckets: Box<[CachePadded<Bucket>]>,
    /// Number of waiters currently parked, maintained under bucket locks.
    parked: AtomicUsize,
}

impl Default for ParkingLot {
    fn default() -> Self {
        Self::with_buckets(BUCKETS)
    }
}

impl ParkingLot {
    /// Creates a lot with `buckets` wait buckets. Tests use small dedicated
    /// lots to force distinct addresses to collide on one bucket.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is not a power of two.
    pub fn with_buckets(buckets: usize) -> Self {
        assert!(
            buckets.is_power_of_two(),
            "bucket count must be a power of two"
        );
        Self {
            buckets: (0..buckets).map(|_| CachePadded::default()).collect(),
            parked: AtomicUsize::new(0),
        }
    }

    /// The process-wide parking lot shared by every futex-style lock.
    pub fn global() -> &'static ParkingLot {
        static GLOBAL: OnceLock<ParkingLot> = OnceLock::new();
        GLOBAL.get_or_init(ParkingLot::default)
    }

    /// Number of buckets in the table (diagnostics and tests).
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    fn bucket_of(&self, addr: usize) -> &Bucket {
        // Fibonacci hashing spreads the (cache-line-aligned, low-entropy)
        // lock addresses over the buckets via the product's high bits.
        let bits = self.buckets.len().trailing_zeros();
        let index = if bits == 0 {
            0
        } else {
            addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (usize::BITS - bits)
        };
        &self.buckets[index]
    }

    fn queue_of(&self, addr: usize) -> MutexGuard<'_, Vec<Waiter>> {
        lock(self.bucket_of(addr))
    }

    /// Parks the calling thread on `addr` until an unpark primitive wakes it
    /// or `timeout` (if any) elapses.
    ///
    /// `validate` runs under the bucket lock *before* enqueueing: return
    /// `false` to abort the park (the lock state changed and blocking is no
    /// longer appropriate); no sleep happens and [`ParkResult::Invalid`] is
    /// returned. `before_sleep` runs after the thread is enqueued and the
    /// bucket lock is released, but before the thread blocks — this is where
    /// a condition variable releases its mutex, guaranteeing any notifier
    /// that acquires that mutex afterwards finds the waiter already queued.
    ///
    /// `park_token` is visible to [`ParkingLot::unpark_select`] (e.g. to
    /// distinguish reader from writer waiters).
    pub fn park(
        &self,
        addr: usize,
        park_token: usize,
        validate: impl FnOnce() -> bool,
        before_sleep: impl FnOnce(),
        timeout: Option<Duration>,
    ) -> ParkResult {
        let parker = PARKER.with(Arc::clone);
        {
            let mut queue = self.queue_of(addr);
            if !validate() {
                return ParkResult::Invalid;
            }
            parker.prepare();
            queue.push(Waiter {
                addr,
                park_token,
                parker: Arc::clone(&parker),
            });
            self.parked.fetch_add(1, Ordering::Relaxed);
        }
        before_sleep();
        // The thread is committed to sleeping: note it in the flight
        // recorder (a couple of thread-local stores, nothing shared).
        gls_runtime::flight::record(
            gls_runtime::flight::FlightEventKind::Park,
            addr,
            park_token as u64,
        );
        let result = match timeout {
            None => ParkResult::Unparked(parker.park()),
            Some(timeout) => match parker.park_timeout(timeout) {
                Some(token) => ParkResult::Unparked(token),
                None => self.cancel_park(&parker, addr),
            },
        };
        if let ParkResult::Unparked(token) = result {
            gls_runtime::flight::record(
                gls_runtime::flight::FlightEventKind::Unpark,
                addr,
                token as u64,
            );
        }
        result
    }

    /// Removes a timed-out waiter from the bucket of the address it parked
    /// on, or consumes the in-flight wake if an unparker dequeued it first.
    fn cancel_park(&self, parker: &Arc<Parker>, addr: usize) -> ParkResult {
        let mut queue = self.queue_of(addr);
        if let Some(index) = queue.iter().position(|w| Arc::ptr_eq(&w.parker, parker)) {
            queue.remove(index);
            self.parked.fetch_sub(1, Ordering::Relaxed);
            return ParkResult::TimedOut;
        }
        drop(queue);
        #[cfg(gls_model)]
        if model::cancel_ignores_inflight_wake() {
            return ParkResult::TimedOut;
        }
        // An unparker already dequeued us: its wake is in flight.
        ParkResult::Unparked(parker.park())
    }

    /// Wakes the longest-parked waiter on `addr`, if any, with
    /// `unpark_token`. `callback` runs after it while the bucket is still
    /// locked — update the lock word there (e.g. clear a parked bit when
    /// [`UnparkResult::have_more`] is `false`) to stay atomic with respect
    /// to concurrent `park` validation.
    pub fn unpark_one(
        &self,
        addr: usize,
        unpark_token: usize,
        callback: impl FnOnce(&UnparkResult),
    ) -> UnparkResult {
        // Allocation-free: this runs on every contended unlock, while
        // holding a bucket lock other colliding locks contend on.
        let woken: Option<Arc<Parker>>;
        let result;
        {
            let mut queue = self.queue_of(addr);
            woken = queue
                .iter()
                .position(|w| w.addr == addr)
                .map(|index| queue.remove(index).parker);
            if woken.is_some() {
                self.parked.fetch_sub(1, Ordering::Relaxed);
            }
            result = UnparkResult {
                unparked: usize::from(woken.is_some()),
                have_more: queue.iter().any(|w| w.addr == addr),
            };
            callback(&result);
        }
        if let Some(parker) = woken {
            parker.unpark(unpark_token);
        }
        result
    }

    /// Wakes every waiter parked on `addr`, in FIFO order. Returns how many
    /// were woken.
    pub fn unpark_all(&self, addr: usize, unpark_token: usize) -> usize {
        let mut woken: Vec<Arc<Parker>> = Vec::new();
        {
            let mut queue = self.queue_of(addr);
            queue.retain(|w| {
                if w.addr == addr {
                    woken.push(Arc::clone(&w.parker));
                    false
                } else {
                    true
                }
            });
            self.parked.fetch_sub(woken.len(), Ordering::Relaxed);
        }
        for parker in &woken {
            parker.unpark(unpark_token);
        }
        woken.len()
    }

    /// Wakes a caller-selected subset of the waiters parked on `addr`, each
    /// with its own unpark token.
    ///
    /// `select` receives the park tokens of every waiter on `addr` in FIFO
    /// order and returns `(index, unpark_token)` pairs to wake
    /// (out-of-range indices are ignored; wakeups preserve FIFO order
    /// regardless of the order of the returned pairs). Both `select` and
    /// `callback` run under the bucket lock; the actual wakeups happen after
    /// it is released.
    ///
    /// This is the primitive behind writer-preferring rw wakeup ("wake the
    /// first parked writer, else all readers") where the decision must be
    /// atomic with parked-bit maintenance — two separate `unpark_one` /
    /// `unpark_all` calls would race with new waiters parking in between.
    /// Per-waiter tokens let one release wake a parked writer with "the
    /// write lock is yours" while a later one wakes a batch of readers with
    /// "a read slot is pre-charged for you".
    pub fn unpark_select(
        &self,
        addr: usize,
        select: impl FnOnce(&[usize]) -> Vec<(usize, usize)>,
        callback: impl FnOnce(&UnparkResult),
    ) -> UnparkResult {
        let mut woken: Vec<(Arc<Parker>, usize)> = Vec::new();
        let result;
        {
            let mut queue = self.queue_of(addr);
            let tokens: Vec<usize> = queue
                .iter()
                .filter(|w| w.addr == addr)
                .map(|w| w.park_token)
                .collect();
            let mut chosen = select(&tokens);
            chosen.sort_unstable_by_key(|&(i, _)| i);
            chosen.dedup_by_key(|&mut (i, _)| i);
            // Walk the queue once, mapping per-address positions back to
            // queue positions; remove back-to-front to keep indices stable.
            let mut matching = 0usize;
            let mut remove: Vec<(usize, usize)> = Vec::with_capacity(chosen.len());
            for (queue_index, waiter) in queue.iter().enumerate() {
                if waiter.addr != addr {
                    continue;
                }
                if let Ok(pos) = chosen.binary_search_by_key(&matching, |&(i, _)| i) {
                    remove.push((queue_index, chosen[pos].1));
                }
                matching += 1;
            }
            for &(queue_index, unpark_token) in remove.iter().rev() {
                woken.push((queue.remove(queue_index).parker, unpark_token));
            }
            woken.reverse(); // back-to-front removal reversed FIFO order
            result = UnparkResult {
                unparked: woken.len(),
                have_more: queue.iter().any(|w| w.addr == addr),
            };
            self.parked.fetch_sub(result.unparked, Ordering::Relaxed);
            callback(&result);
        }
        for (parker, unpark_token) in woken {
            parker.unpark(unpark_token);
        }
        result
    }

    /// Number of threads currently parked on `addr` (racy; diagnostics and
    /// queue-length reporting).
    pub fn parked_count(&self, addr: usize) -> usize {
        self.queue_of(addr)
            .iter()
            .filter(|w| w.addr == addr)
            .count()
    }

    /// Total number of threads parked in this lot, over all addresses
    /// (racy; tests and diagnostics).
    pub fn total_parked(&self) -> usize {
        self.parked.load(Ordering::Relaxed)
    }

    /// A point-in-time [`ParkingLotStats`] view: bucket count and parked
    /// population. Racy by design — the parked count is a relaxed counter
    /// read, so snapshotting never touches a bucket lock.
    pub fn stats(&self) -> ParkingLotStats {
        ParkingLotStats {
            buckets: self.buckets(),
            parked: self.total_parked(),
            growth_events: 0,
            requeued_waiters: 0,
        }
    }

    /// Discards every parked waiter without waking anyone. Model builds
    /// only: an *expected-failure* exploration aborts its virtual threads
    /// wherever they stand, which can leave their (now dead) waiter entries
    /// in the global lot; a later exploration reusing the same addresses
    /// would let those stale entries absorb wakeups meant for live waiters.
    /// Regression tests call this between explorations, when no virtual
    /// thread is alive.
    #[cfg(gls_model)]
    pub fn model_purge(&self) {
        let mut removed = 0usize;
        for bucket in self.buckets.iter() {
            let mut queue = lock(bucket);
            removed += queue.len();
            queue.clear();
        }
        self.parked.fetch_sub(removed, Ordering::Relaxed);
    }
}

fn lock(bucket: &Bucket) -> MutexGuard<'_, Vec<Waiter>> {
    bucket.queue.lock().expect("parking-lot bucket poisoned")
}

/// Seeded bugs for the model explorer. Compiled only under
/// `--cfg gls_model`.
#[cfg(gls_model)]
pub mod model {
    use std::cell::Cell;

    // Per thread: a vthread is an OS thread, and an exploration's threads
    // must not see another test's settings.
    thread_local! {
        static IGNORE_INFLIGHT_WAKE: Cell<bool> = const { Cell::new(false) };
    }

    /// Seeds, on the calling thread, a timed-out park that reports
    /// `TimedOut` when it does not find itself in its bucket, without
    /// waiting for the wake the unparker that dequeued it already sent.
    /// That unparker then counts a waiter that believes it timed out.
    pub fn model_cancel_ignores_inflight_wake(seeded: bool) {
        IGNORE_INFLIGHT_WAKE.set(seeded);
    }

    pub(super) fn cancel_ignores_inflight_wake() -> bool {
        IGNORE_INFLIGHT_WAKE.get()
    }
}

#[cfg(test)]
// Raw std sync and wall-clock sleeps are fine in stress tests: they pace
// real threads, not modeled ones (see clippy.toml).
#[allow(clippy::disallowed_types, clippy::disallowed_methods)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// Spawns `n` threads that park on `addr` and records the order in which
    /// they wake. Returns once all are enqueued.
    fn park_squad(
        lot: &Arc<ParkingLot>,
        addr: usize,
        n: usize,
        wake_order: &Arc<Mutex<Vec<usize>>>,
    ) -> Vec<std::thread::JoinHandle<ParkResult>> {
        let enqueue_barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let lot = Arc::clone(lot);
                let order = Arc::clone(wake_order);
                let barrier = Arc::clone(&enqueue_barrier);
                std::thread::spawn(move || {
                    // Serialize enqueue order by index so FIFO is testable.
                    loop {
                        if lot.parked_count(addr) == i {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    let result = lot.park(
                        addr,
                        i, // park token = arrival index
                        || true,
                        || {
                            barrier.wait();
                        },
                        None,
                    );
                    order.lock().unwrap().push(i);
                    result
                })
            })
            .collect();
        while lot.parked_count(addr) < n {
            std::thread::yield_now();
        }
        handles
    }

    #[test]
    fn unpark_one_wakes_in_fifo_order() {
        let lot = Arc::new(ParkingLot::with_buckets(4));
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles = park_squad(&lot, 0x100, 3, &order);
        for _ in 0..3 {
            let before = order.lock().unwrap().len();
            let result = lot.unpark_one(0x100, DEFAULT_UNPARK_TOKEN, |_| {});
            assert_eq!(result.unparked, 1);
            while order.lock().unwrap().len() == before {
                std::thread::yield_now();
            }
        }
        for h in handles {
            assert!(matches!(h.join().unwrap(), ParkResult::Unparked(_)));
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2], "FIFO wake order");
        assert_eq!(lot.total_parked(), 0);
    }

    #[test]
    fn unpark_all_wakes_everyone_and_reports_counts() {
        let lot = Arc::new(ParkingLot::with_buckets(4));
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles = park_squad(&lot, 0x200, 4, &order);
        assert_eq!(lot.parked_count(0x200), 4);
        assert_eq!(lot.unpark_all(0x200, 7), 4);
        for h in handles {
            assert_eq!(h.join().unwrap(), ParkResult::Unparked(7));
        }
        assert_eq!(lot.parked_count(0x200), 0);
    }

    #[test]
    fn stats_count_parked_waiters() {
        let lot = Arc::new(ParkingLot::with_buckets(1));
        let fresh = lot.stats();
        assert_eq!(fresh.buckets, 1);
        assert_eq!(fresh.parked, 0);
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles = park_squad(&lot, 0x500, 3, &order);
        let stats = lot.stats();
        assert_eq!(stats.parked, 3);
        assert_eq!(
            (stats.buckets, stats.growth_events, stats.requeued_waiters),
            (1, 0, 0),
            "the table is fixed and never moves a waiter"
        );
        lot.unpark_one(0x500, DEFAULT_UNPARK_TOKEN, |_| {});
        lot.unpark_all(0x500, DEFAULT_UNPARK_TOKEN);
        for h in handles {
            assert!(matches!(h.join().unwrap(), ParkResult::Unparked(_)));
        }
        assert_eq!(lot.stats().parked, 0);
    }

    #[test]
    fn validate_failure_aborts_the_park() {
        let lot = ParkingLot::with_buckets(4);
        let result = lot.park(0x300, DEFAULT_PARK_TOKEN, || false, || {}, None);
        assert_eq!(result, ParkResult::Invalid);
        assert_eq!(lot.total_parked(), 0);
    }

    #[test]
    fn park_timeout_expires_and_cleans_the_bucket() {
        let lot = ParkingLot::with_buckets(4);
        let start = Instant::now();
        let result = lot.park(
            0x400,
            DEFAULT_PARK_TOKEN,
            || true,
            || {},
            Some(Duration::from_millis(40)),
        );
        assert_eq!(result, ParkResult::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(40));
        assert_eq!(lot.total_parked(), 0, "timed-out waiter must dequeue");
    }

    #[test]
    fn unpark_token_reaches_the_parked_thread() {
        let lot = Arc::new(ParkingLot::with_buckets(4));
        let handle = {
            let lot = Arc::clone(&lot);
            std::thread::spawn(move || lot.park(0x500, DEFAULT_PARK_TOKEN, || true, || {}, None))
        };
        while lot.parked_count(0x500) == 0 {
            std::thread::yield_now();
        }
        lot.unpark_one(0x500, 42, |result| {
            assert_eq!(result.unparked, 1);
            assert!(!result.have_more);
        });
        assert_eq!(handle.join().unwrap(), ParkResult::Unparked(42));
    }

    #[test]
    fn select_can_prefer_a_tagged_waiter() {
        // Three waiters with tokens [0, 1, 0]; the selector picks the first
        // waiter with token 1 — the rw "first parked writer" policy.
        let lot = Arc::new(ParkingLot::with_buckets(4));
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles = park_squad(&lot, 0xA00, 3, &order);
        let result = lot.unpark_select(
            0xA00,
            |tokens| {
                assert_eq!(tokens, &[0, 1, 2]);
                vec![(1, DEFAULT_UNPARK_TOKEN)]
            },
            |r| {
                assert_eq!(r.unparked, 1);
                assert!(r.have_more);
            },
        );
        assert_eq!(result.unparked, 1);
        while order.lock().unwrap().is_empty() {
            std::thread::yield_now();
        }
        assert_eq!(*order.lock().unwrap(), vec![1], "the tagged waiter woke");
        assert_eq!(lot.unpark_all(0xA00, DEFAULT_UNPARK_TOKEN), 2);
        for h in handles {
            assert!(matches!(h.join().unwrap(), ParkResult::Unparked(_)));
        }
    }

    #[test]
    fn distinct_addresses_sharing_a_bucket_stay_separate() {
        // With a single bucket every address collides; unparks must still
        // only wake waiters of the matching address.
        let lot = Arc::new(ParkingLot::with_buckets(1));
        let woken_a = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = [(0x10usize, &woken_a), (0x20usize, &woken_a)]
            .into_iter()
            .enumerate()
            .map(|(i, (addr, counter))| {
                let lot = Arc::clone(&lot);
                let counter = Arc::clone(counter);
                std::thread::spawn(move || {
                    let r = lot.park(addr, DEFAULT_PARK_TOKEN, || true, || {}, None);
                    if i == 0 {
                        counter.fetch_add(1, Ordering::Release);
                    }
                    r
                })
            })
            .collect();
        while lot.total_parked() < 2 {
            std::thread::yield_now();
        }
        assert_eq!(lot.parked_count(0x10), 1);
        assert_eq!(lot.parked_count(0x20), 1);
        assert_eq!(lot.unpark_all(0x10, DEFAULT_UNPARK_TOKEN), 1);
        while woken_a.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        assert_eq!(lot.parked_count(0x20), 1, "other address undisturbed");
        assert_eq!(lot.unpark_all(0x20, DEFAULT_UNPARK_TOKEN), 1);
        for h in handles {
            assert!(matches!(h.join().unwrap(), ParkResult::Unparked(_)));
        }
    }

    #[test]
    fn shared_bucket_preserves_fifo_order_per_address() {
        // One bucket: three FIFO waiters on one address are queued among
        // waiters on other addresses, which parked before and after them.
        let lot = Arc::new(ParkingLot::with_buckets(1));
        let order = Arc::new(Mutex::new(Vec::new()));
        let park_filler = |i: usize| {
            let lot = Arc::clone(&lot);
            std::thread::spawn(move || {
                lot.park(0x2000 + i * 64, DEFAULT_PARK_TOKEN, || true, || {}, None)
            })
        };
        let mut filler: Vec<_> = (0..4).map(park_filler).collect();
        while lot.total_parked() < 4 {
            std::thread::yield_now();
        }
        let fifo = park_squad(&lot, 0xF1F0, 3, &order);
        filler.extend((4..8).map(park_filler));
        while lot.total_parked() < 11 {
            std::thread::yield_now();
        }
        for _ in 0..3 {
            let before = order.lock().unwrap().len();
            let result = lot.unpark_one(0xF1F0, DEFAULT_UNPARK_TOKEN, |_| {});
            assert_eq!(result.unparked, 1);
            while order.lock().unwrap().len() == before {
                std::thread::yield_now();
            }
        }
        assert_eq!(
            *order.lock().unwrap(),
            vec![0, 1, 2],
            "FIFO order per address in a shared bucket"
        );
        for i in 0..8 {
            assert_eq!(lot.unpark_all(0x2000 + i * 64, DEFAULT_UNPARK_TOKEN), 1);
        }
        for h in fifo.into_iter().chain(filler) {
            assert!(matches!(h.join().unwrap(), ParkResult::Unparked(_)));
        }
        assert_eq!(lot.total_parked(), 0);
    }

    #[test]
    fn global_lot_is_a_singleton() {
        assert!(std::ptr::eq(ParkingLot::global(), ParkingLot::global()));
        assert_eq!(ParkingLot::global().buckets(), BUCKETS);
    }
}
