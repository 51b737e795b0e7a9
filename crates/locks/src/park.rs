//! The address-keyed parking lot: central wait queues for word-sized locks.
//!
//! The paper's blocking locks need a way to put waiters to sleep and wake
//! them on release. Embedding a `Mutex + Condvar` pair in every lock would
//! make each lock ~2 cache lines — fine for a handful of hot locks,
//! prohibitive for the address-keyed middleware whose whole point is that
//! *any* of millions of addresses can be a lock. The parking lot inverts
//! the layout, futex-style: lock state
//! shrinks to a single word, and all wait-queue state lives centrally in a
//! sharded hash table of buckets keyed by the lock's address. Threads that
//! must block **park** themselves in the bucket for their lock's address;
//! releasing threads **unpark** them from the same bucket.
//!
//! # Memory layout
//!
//! * One global table ([`ParkingLot::global`]) of [`BUCKETS`] cache-padded
//!   buckets, each a mutex-protected FIFO queue of waiters. Lock addresses
//!   hash onto buckets; distinct locks may share a bucket (waiters carry
//!   their address, so sharing only contends the bucket mutex).
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
//!   locks (ticket/MCS/CLH).
//! * The `validate` closure passed to [`ParkingLot::park`] runs under the
//!   bucket lock, and so do the callbacks of the unpark primitives: a lock
//!   implementation can therefore re-check its atomic word and update
//!   wake-related bits (e.g. clear a "has parked waiters" flag) atomically
//!   with respect to enqueueing, which is what closes the classic
//!   lost-wakeup races without a per-lock mutex.
//!
//! [`park_timeout`](ParkingLot::park) (via the `timeout` parameter),
//! [`unpark_requeue`](ParkingLot::unpark_requeue) (move waiters to another
//! address without waking them) and [`unpark_select`](ParkingLot::unpark_select)
//! (wake a caller-chosen subset, e.g. "first writer or else all readers")
//! round out the primitive set condition variables and reader-writer locks
//! are built from.
//!
//! # Growth
//!
//! The bucket table **grows** — CLHT-style, off the hot path — when the
//! number of parked waiters crosses [`GROW_LOAD_FACTOR`] per bucket: a
//! parking (already-slow) thread builds a doubled table, locks every old
//! bucket, moves the waiters over (per-address FIFO order is preserved:
//! all waiters of one address live in one bucket and are appended in
//! order), publishes the new table and retires the old one. Every bucket
//! acquisition re-checks the published table pointer after locking, so an
//! operation that raced the swap simply retries against the new table.
//! Old tables are retained until the lot is dropped (doubling keeps the
//! total retained memory below one current-table size), so references to
//! buckets never dangle. Unpark and timeout paths never grow.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use gls_sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use gls_sync::sync::{Condvar, Mutex, MutexGuard};

use crate::cache_padded::CachePadded;

/// Initial number of buckets in the global parking lot (a power of two).
/// 64 buckets of one cache line each keep the starting table at 4 kB; the
/// table grows when the parked population outgrows it (see module docs).
pub const BUCKETS: usize = 64;

/// The table grows when more than this many waiters are parked per bucket.
pub const GROW_LOAD_FACTOR: usize = 3;

/// Upper bound on the bucket count (64k cache-padded buckets ≈ 4 MB): far
/// beyond any realistic simultaneously-parked population, and a hard stop
/// for pathological growth.
const MAX_BUCKETS: usize = 1 << 16;

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

impl ParkResult {
    /// Whether the thread was woken by an unpark (as opposed to timing out
    /// or failing validation).
    pub fn is_unparked(self) -> bool {
        matches!(self, ParkResult::Unparked(_))
    }
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

/// What a requeue primitive did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequeueResult {
    /// Number of waiters woken (up to `max_unpark`).
    pub unparked: usize,
    /// Number of waiters moved to the target address without waking.
    pub requeued: usize,
}

/// A cheap point-in-time view of a [`ParkingLot`]'s internals, for
/// telemetry snapshots: no bucket lock is taken, every field is a relaxed
/// counter read (plus the published table's length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParkingLotStats {
    /// Buckets in the currently published table.
    pub buckets: usize,
    /// Waiters currently parked, over all addresses.
    pub parked: usize,
    /// Times the bucket table grew (doubled) since the lot was created.
    pub growth_events: u64,
    /// Waiters moved between addresses without waking (condvar
    /// requeue-on-notify traffic) since the lot was created.
    pub requeued_waiters: u64,
}

/// The per-thread signal cell every park sleeps on. One exists per thread
/// (lazily, in a thread-local) and is reused across parks on any address.
#[derive(Debug, Default)]
struct Parker {
    state: Mutex<ParkerState>,
    condvar: Condvar,
    /// The address this parker is currently enqueued under; maintained under
    /// the owning bucket's lock (updated by requeue) so a timed-out thread
    /// can find the bucket it lives in *now*.
    addr: AtomicUsize,
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
    fn prepare(&self, addr: usize) {
        let state = self.state.lock().expect("parker poisoned");
        debug_assert!(!state.signaled, "unconsumed unpark signal");
        drop(state);
        self.addr.store(addr, Ordering::Release);
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

/// One published generation of the bucket table.
#[derive(Debug)]
struct BucketTable {
    buckets: Box<[CachePadded<Bucket>]>,
}

impl BucketTable {
    fn new(buckets: usize) -> Box<Self> {
        assert!(
            buckets.is_power_of_two(),
            "bucket count must be a power of two"
        );
        Box::new(Self {
            buckets: (0..buckets).map(|_| CachePadded::default()).collect(),
        })
    }

    fn bucket_index(&self, addr: usize) -> usize {
        // Fibonacci hashing spreads the (cache-line-aligned, low-entropy)
        // lock addresses over the buckets via the product's high bits.
        let hash = addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let bits = self.buckets.len().trailing_zeros();
        if bits == 0 {
            0
        } else {
            hash >> (usize::BITS - bits)
        }
    }

    fn bucket_of(&self, addr: usize) -> &Bucket {
        &self.buckets[self.bucket_index(addr)]
    }
}

/// A table retired by growth. Kept as a raw pointer (not a `Box`) because
/// threads that raced the swap may still hold references into it until
/// their retry; the allocation is freed only when the lot drops.
#[derive(Debug)]
struct RetiredTable(*mut BucketTable);

// SAFETY: the pointer is only dereferenced (to free it) from the lot's
// Drop, which holds `&mut self`.
unsafe impl Send for RetiredTable {}

/// The sharded table of wait buckets. Use [`ParkingLot::global`] in
/// production; dedicated instances exist for tests.
#[derive(Debug)]
pub struct ParkingLot {
    /// The current bucket table, swapped atomically on growth.
    table: AtomicPtr<BucketTable>,
    /// Tables replaced by growth, retained until the lot drops so bucket
    /// references held across a swap never dangle. Doubling growth keeps
    /// the total retained memory below one current-table size.
    old_tables: Mutex<Vec<RetiredTable>>,
    /// Number of waiters currently parked, maintained under bucket locks.
    /// Drives the growth trigger and `total_parked`.
    parked: AtomicUsize,
    /// Serializes growth; `try_lock` keeps concurrent parkers from piling
    /// up behind one grower.
    grow_lock: Mutex<()>,
    /// Completed table growths (raw std atomics: pure telemetry, kept
    /// invisible to the model explorer's scheduling points).
    growth_events: std::sync::atomic::AtomicU64,
    /// Waiters moved by requeue primitives without being woken.
    requeues: std::sync::atomic::AtomicU64,
}

impl Default for ParkingLot {
    fn default() -> Self {
        Self::with_buckets(BUCKETS)
    }
}

impl Drop for ParkingLot {
    fn drop(&mut self) {
        // SAFETY: `&mut self` guarantees no thread holds bucket references;
        // every pointer (current + retired) came from Box::into_raw and
        // appears exactly once.
        unsafe {
            drop(Box::from_raw(self.table.load(Ordering::Acquire)));
            for table in self.take_old_tables() {
                drop(Box::from_raw(table.0));
            }
        }
    }
}

impl ParkingLot {
    /// Hands over every table a growth retired. The list is append-only, so
    /// a panic while it was locked left nothing half-done: a poisoned list
    /// is drained like any other instead of leaking its tables.
    fn take_old_tables(&mut self) -> Vec<RetiredTable> {
        let retired = self.old_tables.get_mut();
        std::mem::take(retired.unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Creates a lot with `buckets` initial wait buckets (the table grows
    /// on demand, see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is not a power of two.
    pub fn with_buckets(buckets: usize) -> Self {
        Self {
            table: AtomicPtr::new(Box::into_raw(BucketTable::new(buckets))),
            old_tables: Mutex::new(Vec::new()),
            parked: AtomicUsize::new(0),
            grow_lock: Mutex::new(()),
            growth_events: std::sync::atomic::AtomicU64::new(0),
            requeues: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The process-wide parking lot shared by every futex-style lock.
    pub fn global() -> &'static ParkingLot {
        static GLOBAL: OnceLock<ParkingLot> = OnceLock::new();
        GLOBAL.get_or_init(ParkingLot::default)
    }

    /// The currently published table. The reference stays valid for the
    /// lot's lifetime: replaced tables are retained in `old_tables`, never
    /// freed while the lot lives.
    fn current(&self) -> (&BucketTable, *mut BucketTable) {
        let ptr = self.table.load(Ordering::Acquire);
        // SAFETY: tables are only freed when the lot is dropped.
        (unsafe { &*ptr }, ptr)
    }

    /// Number of buckets in the current table (diagnostics and tests).
    pub fn buckets(&self) -> usize {
        self.current().0.buckets.len()
    }

    /// Locks the bucket of `addr` in the current table. Re-checks the
    /// published table pointer after acquiring: a growth that swapped the
    /// table mid-acquisition would otherwise leave this operation mutating
    /// a drained bucket.
    fn queue_of(&self, addr: usize) -> MutexGuard<'_, Vec<Waiter>> {
        loop {
            let (table, ptr) = self.current();
            let guard = table
                .bucket_of(addr)
                .queue
                .lock()
                .expect("parking-lot bucket poisoned");
            if self.table.load(Ordering::Acquire) == ptr {
                return guard;
            }
        }
    }

    /// Grows the bucket table when the parked population exceeds
    /// [`GROW_LOAD_FACTOR`] waiters per bucket. Called from the park path
    /// only — a thread about to sleep is off the hot path by definition;
    /// unpark and timeout paths never grow.
    fn maybe_grow(&self) {
        if self.parked.load(Ordering::Relaxed) <= self.buckets() * GROW_LOAD_FACTOR
            || self.buckets() >= MAX_BUCKETS
        {
            return;
        }
        // One grower at a time; concurrent parkers skip rather than queue.
        let Ok(_grow) = self.grow_lock.try_lock() else {
            return;
        };
        let (old_table, old_ptr) = self.current();
        // Re-check under the grow lock (another grower may have finished).
        let parked = self.parked.load(Ordering::Relaxed);
        let mut target = old_table.buckets.len();
        while parked > target * GROW_LOAD_FACTOR && target < MAX_BUCKETS {
            target *= 2;
        }
        if target == old_table.buckets.len() {
            return;
        }
        let mut new_table = BucketTable::new(target);
        // Lock every old bucket (in index order: the only multi-bucket
        // acquirers are this loop and `lock_pair`, which orders by address,
        // so there is no lock-order cycle — `lock_pair` holds at most two
        // and both orders are consistent per table generation). Holding all
        // of them freezes the old table: every other operation either
        // finished before we got its bucket or blocks until the swap below
        // and then retries against the new table.
        let mut guards: Vec<MutexGuard<'_, Vec<Waiter>>> = old_table
            .buckets
            .iter()
            .map(|b| b.queue.lock().expect("parking-lot bucket poisoned"))
            .collect();
        for old_queue in guards.iter_mut() {
            // Per-address FIFO order is preserved: all waiters of one
            // address share an old bucket and are appended in order to one
            // new bucket. The new table is private until published (we own
            // the box), so its queues are reached through `get_mut` with
            // no locking — this loop runs while every old bucket lock is
            // held, stalling all parking traffic, so it must be as short
            // as possible.
            for waiter in old_queue.drain(..) {
                let index = new_table.bucket_index(waiter.addr);
                new_table.buckets[index]
                    .queue
                    .get_mut()
                    .expect("parking-lot bucket poisoned")
                    .push(waiter);
            }
        }
        // Publish while still holding every old bucket guard: a thread
        // blocked on an old bucket mutex wakes only after the drop below,
        // re-checks the pointer, and retries against the new table.
        self.table
            .store(Box::into_raw(new_table), Ordering::Release);
        drop(guards);
        // Retain the old table: threads may still hold references into it
        // (blocked on a bucket mutex, mid-retry). Freed on lot drop.
        self.old_tables
            .lock()
            .expect("parking-lot retired list poisoned")
            .push(RetiredTable(old_ptr));
        self.growth_events
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
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
    /// `park_token` is visible to [`ParkingLot::unpark_select`] filters
    /// (e.g. to distinguish reader from writer waiters).
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
            parker.prepare(addr);
            queue.push(Waiter {
                addr,
                park_token,
                parker: Arc::clone(&parker),
            });
            self.parked.fetch_add(1, Ordering::Relaxed);
        }
        before_sleep();
        // Grow the bucket table here if the parked population outgrew it:
        // this thread is about to sleep, so it is off the hot path by
        // definition, and the user-visible release (`before_sleep`) already
        // ran, so notifiers are not delayed by a growth.
        self.maybe_grow();
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
                None => self.cancel_park(&parker),
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

    /// Removes a timed-out waiter from whichever bucket it lives in now
    /// (requeues may have moved it), or consumes the in-flight wake if an
    /// unparker got to it first.
    fn cancel_park(&self, parker: &Arc<Parker>) -> ParkResult {
        loop {
            let addr = parker.addr.load(Ordering::Acquire);
            let mut queue = self.queue_of(addr);
            if let Some(index) = queue
                .iter()
                .position(|w| Arc::ptr_eq(&w.parker, parker) && w.addr == addr)
            {
                queue.remove(index);
                self.parked.fetch_sub(1, Ordering::Relaxed);
                return ParkResult::TimedOut;
            }
            // Not in the bucket we expected. Either a requeue moved us (the
            // recorded address changed: retry against the new bucket) or an
            // unparker already dequeued us (the address is unchanged: the
            // wake signal is in flight, wait for it).
            if parker.addr.load(Ordering::Acquire) == addr {
                drop(queue);
                return ParkResult::Unparked(parker.park());
            }
        }
    }

    /// Wakes the longest-parked waiter on `addr`, if any. `callback` runs
    /// while the bucket is still locked, after the waiter was dequeued —
    /// update the lock word there (e.g. clear a parked bit when
    /// [`UnparkResult::have_more`] is `false`) to stay atomic with respect
    /// to concurrent `park` validation.
    pub fn unpark_one(
        &self,
        addr: usize,
        unpark_token: usize,
        callback: impl FnOnce(&UnparkResult),
    ) -> UnparkResult {
        self.unpark_one_with(addr, |_| unpark_token, callback)
    }

    /// Like [`ParkingLot::unpark_one`], but the unpark token is computed
    /// from the woken waiter's **park token**, under the bucket lock.
    ///
    /// This is the handoff primitive: a releasing holder passes ownership
    /// directly to the queue head (a handoff unpark token) when the head is
    /// one of its own waiters, while waiters of a different kind that were
    /// requeued onto the same address (e.g. condvar waiters moved onto a
    /// mutex by requeue-on-notify) are recognizable by their park token and
    /// woken with ordinary release semantics instead — a handoff token
    /// delivered to a thread that does not understand it would strand the
    /// lock in a held-by-nobody state. `token_for` runs only when a waiter
    /// is dequeued, before `callback`.
    pub fn unpark_one_with(
        &self,
        addr: usize,
        token_for: impl FnOnce(usize) -> usize,
        callback: impl FnOnce(&UnparkResult),
    ) -> UnparkResult {
        // Allocation-free: this runs on every contended unlock, while
        // holding a bucket lock other colliding locks contend on.
        let woken: Option<(Arc<Parker>, usize)>;
        let result;
        {
            let mut queue = self.queue_of(addr);
            woken = queue.iter().position(|w| w.addr == addr).map(|index| {
                let waiter = queue.remove(index);
                let token = token_for(waiter.park_token);
                (waiter.parker, token)
            });
            if woken.is_some() {
                self.parked.fetch_sub(1, Ordering::Relaxed);
            }
            result = UnparkResult {
                unparked: usize::from(woken.is_some()),
                have_more: queue.iter().any(|w| w.addr == addr),
            };
            callback(&result);
        }
        if let Some((parker, token)) = woken {
            parker.unpark(token);
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

    /// Wakes the longest-parked waiter that parked with `preferred_token`,
    /// or — when none did — every waiter on `addr`, in FIFO order.
    ///
    /// This is the writer-preferring rw release policy ("first parked
    /// writer, else all readers") as a single primitive: the decision, the
    /// dequeues and the `callback` all happen under one bucket lock, atomic
    /// with park validation, and the bucket critical section allocates at
    /// most the woken list (nothing at all on the single-waiter path).
    pub fn unpark_preferred(
        &self,
        addr: usize,
        preferred_token: usize,
        unpark_token: usize,
        callback: impl FnOnce(&UnparkResult),
    ) -> UnparkResult {
        let mut woken: Vec<Arc<Parker>> = Vec::new();
        let mut preferred: Option<Arc<Parker>> = None;
        let result;
        {
            let mut queue = self.queue_of(addr);
            if let Some(index) = queue
                .iter()
                .position(|w| w.addr == addr && w.park_token == preferred_token)
            {
                preferred = Some(queue.remove(index).parker);
            } else {
                queue.retain(|w| {
                    if w.addr == addr {
                        woken.push(Arc::clone(&w.parker));
                        false
                    } else {
                        true
                    }
                });
            }
            result = UnparkResult {
                unparked: usize::from(preferred.is_some()) + woken.len(),
                have_more: queue.iter().any(|w| w.addr == addr),
            };
            self.parked.fetch_sub(result.unparked, Ordering::Relaxed);
            callback(&result);
        }
        if let Some(parker) = preferred {
            parker.unpark(unpark_token);
        }
        for parker in &woken {
            parker.unpark(unpark_token);
        }
        result
    }

    /// Wakes a caller-selected subset of the waiters parked on `addr`.
    ///
    /// `select` receives the park tokens of every waiter on `addr` in FIFO
    /// order and returns the indices to wake (out-of-range indices are
    /// ignored; wakeups preserve FIFO order regardless of the order of the
    /// returned indices). Both `select` and `callback` run under the bucket
    /// lock; the actual wakeups happen after it is released.
    ///
    /// This is the primitive behind writer-preferring rw wakeup ("wake the
    /// first parked writer, else all readers") where the decision must be
    /// atomic with parked-bit maintenance — two separate `unpark_one` /
    /// `unpark_all` calls would race with new waiters parking in between.
    pub fn unpark_select(
        &self,
        addr: usize,
        select: impl FnOnce(&[usize]) -> Vec<usize>,
        unpark_token: usize,
        callback: impl FnOnce(&UnparkResult),
    ) -> UnparkResult {
        self.unpark_select_with(
            addr,
            |tokens| {
                select(tokens)
                    .into_iter()
                    .map(|i| (i, unpark_token))
                    .collect()
            },
            callback,
        )
    }

    /// Like [`ParkingLot::unpark_select`], but each selected waiter gets its
    /// own unpark token: `select` returns `(index, unpark_token)` pairs.
    ///
    /// Reader-writer handoff needs this: one release may wake a parked
    /// writer with a "the write lock is yours" token while a later release
    /// wakes a batch of readers with "a read slot is pre-charged for you" —
    /// and requeued condvar waiters sharing the address must still receive
    /// a token they understand.
    pub fn unpark_select_with(
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

    /// Wakes up to `max_unpark` waiters of `from` and moves up to
    /// `max_requeue` of the remaining ones onto `to` without waking them
    /// (they wake on a future unpark of `to`, FIFO behind its existing
    /// waiters). `callback` runs while both buckets are locked.
    pub fn unpark_requeue(
        &self,
        from: usize,
        to: usize,
        max_unpark: usize,
        max_requeue: usize,
        unpark_token: usize,
        callback: impl FnOnce(&RequeueResult),
    ) -> RequeueResult {
        self.unpark_requeue_with(
            from,
            to,
            || (max_unpark, max_requeue),
            unpark_token,
            callback,
        )
    }

    /// Like [`ParkingLot::unpark_requeue`], but the `(max_unpark,
    /// max_requeue)` split is decided by `decide`, which runs **under both
    /// bucket locks** — atomically with park validation on either address.
    ///
    /// This is the primitive behind condvar requeue-on-notify: the decision
    /// "requeue onto the mutex vs wake now" must inspect (and update) the
    /// mutex word with no window for the mutex to be released in between,
    /// or a requeued waiter could sleep on a mutex nobody holds.
    pub fn unpark_requeue_with(
        &self,
        from: usize,
        to: usize,
        decide: impl FnOnce() -> (usize, usize),
        unpark_token: usize,
        callback: impl FnOnce(&RequeueResult),
    ) -> RequeueResult {
        let mut woken: Vec<Arc<Parker>> = Vec::new();
        let result;
        {
            let (mut from_queue, mut to_queue) = self.lock_pair(from, to);
            // Nothing to move: skip `decide` entirely, so a notify with no
            // waiters does not disturb the target lock's state (e.g.
            // spuriously raise a futex's parked bit, forcing its next
            // release through the slow path).
            let (max_unpark, max_requeue) = if from_queue.iter().any(|w| w.addr == from) {
                decide()
            } else {
                (0, 0)
            };
            let mut moved: Vec<Waiter> = Vec::new();
            let mut unparked = 0usize;
            let mut requeued = 0usize;
            let mut index = 0;
            while index < from_queue.len() {
                if from_queue[index].addr != from {
                    index += 1;
                    continue;
                }
                if unparked < max_unpark {
                    woken.push(from_queue.remove(index).parker);
                    unparked += 1;
                } else if requeued < max_requeue {
                    let mut waiter = from_queue.remove(index);
                    waiter.addr = to;
                    // Keep the parker's recorded address in sync so a timed
                    // -out waiter searches the right bucket (both buckets
                    // are locked here, so the update is atomic to it).
                    waiter.parker.addr.store(to, Ordering::Release);
                    moved.push(waiter);
                    requeued += 1;
                } else {
                    break;
                }
            }
            match &mut to_queue {
                Some(queue) => queue.extend(moved),
                None => from_queue.extend(moved),
            }
            result = RequeueResult { unparked, requeued };
            self.parked.fetch_sub(result.unparked, Ordering::Relaxed);
            if result.requeued > 0 {
                self.requeues
                    .fetch_add(result.requeued as u64, std::sync::atomic::Ordering::Relaxed);
            }
            callback(&result);
        }
        for parker in woken {
            parker.unpark(unpark_token);
        }
        result
    }

    /// Locks the buckets of `from` and `to` in a deadlock-free order within
    /// one table generation, retrying if a growth swapped the table while
    /// acquiring. Returns `(from_queue, Some(to_queue))`, or `(queue, None)`
    /// when both addresses share a bucket.
    #[allow(clippy::type_complexity)]
    fn lock_pair(
        &self,
        from: usize,
        to: usize,
    ) -> (
        MutexGuard<'_, Vec<Waiter>>,
        Option<MutexGuard<'_, Vec<Waiter>>>,
    ) {
        loop {
            let (table, ptr) = self.current();
            let from_bucket = table.bucket_of(from);
            let to_bucket = table.bucket_of(to);
            fn lock(b: &Bucket) -> MutexGuard<'_, Vec<Waiter>> {
                b.queue.lock().expect("parking-lot bucket poisoned")
            }
            let (first, second) = if std::ptr::eq(from_bucket, to_bucket) {
                (lock(from_bucket), None)
            } else if (from_bucket as *const Bucket as usize)
                < (to_bucket as *const Bucket as usize)
            {
                let first = lock(from_bucket);
                let second = lock(to_bucket);
                (first, Some(second))
            } else {
                let second = lock(to_bucket);
                let first = lock(from_bucket);
                (first, Some(second))
            };
            if self.table.load(Ordering::Acquire) == ptr {
                return (first, second);
            }
        }
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

    /// A point-in-time [`ParkingLotStats`] view: bucket count, parked
    /// population, completed growths and requeued waiters. Racy by design —
    /// every field is a relaxed counter read, so snapshotting never touches
    /// a bucket lock.
    pub fn stats(&self) -> ParkingLotStats {
        use std::sync::atomic::Ordering::Relaxed;
        ParkingLotStats {
            buckets: self.buckets(),
            parked: self.total_parked(),
            growth_events: self.growth_events.load(Relaxed),
            requeued_waiters: self.requeues.load(Relaxed),
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
        let (table, _) = self.current();
        let mut removed = 0usize;
        for bucket in table.buckets.iter() {
            let mut queue = bucket.queue.lock().expect("parking-lot bucket poisoned");
            removed += queue.len();
            queue.clear();
        }
        self.parked.fetch_sub(removed, Ordering::Relaxed);
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
            assert!(h.join().unwrap().is_unparked());
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
    fn stats_track_growth_and_requeues() {
        let lot = Arc::new(ParkingLot::with_buckets(1));
        let fresh = lot.stats();
        assert_eq!(fresh.buckets, 1);
        assert_eq!(fresh.parked, 0);
        assert_eq!(fresh.growth_events, 0);
        assert_eq!(fresh.requeued_waiters, 0);
        // Park enough waiters to cross GROW_LOAD_FACTOR on the 1-bucket
        // table: the table must double and the growth must be counted.
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles = park_squad(&lot, 0x500, GROW_LOAD_FACTOR + 2, &order);
        assert_eq!(lot.stats().parked, GROW_LOAD_FACTOR + 2);
        // `park_squad` returns once the last waiter is enqueued, but the
        // growth runs after that, on a parker thread: poll for it.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let grown = lot.stats();
            if grown.growth_events >= 1 && grown.buckets > 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "table must have grown and counted it: {grown:?}"
            );
            std::thread::yield_now();
        }
        // Requeue one waiter onto another address without waking it.
        let moved = lot.unpark_requeue(0x500, 0x600, 0, 1, DEFAULT_UNPARK_TOKEN, |_| {});
        assert_eq!(moved.requeued, 1);
        assert_eq!(lot.stats().requeued_waiters, 1);
        // Drain everyone.
        lot.unpark_all(0x500, DEFAULT_UNPARK_TOKEN);
        lot.unpark_all(0x600, DEFAULT_UNPARK_TOKEN);
        for h in handles {
            assert!(h.join().unwrap().is_unparked());
        }
        assert_eq!(lot.stats().parked, 0);
    }

    #[test]
    fn poisoned_retired_list_still_gives_up_its_tables() {
        let lot = Arc::new(ParkingLot::with_buckets(1));
        let retired = RetiredTable(Box::into_raw(BucketTable::new(1)));
        lot.old_tables.lock().unwrap().push(retired);
        let poisoner = {
            let lot = Arc::clone(&lot);
            std::thread::spawn(move || {
                let _retired = lot.old_tables.lock().unwrap();
                panic!("poison the retired-table list");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(lot.old_tables.lock().is_err(), "the list is poisoned");
        // What `Drop` reclaims: the table the "growth" above retired.
        let mut lot = Arc::try_unwrap(lot).expect("sole owner");
        let retired = lot.take_old_tables();
        assert_eq!(retired.len(), 1);
        for table in retired {
            // SAFETY: handed over exactly once; nobody references the table.
            unsafe { drop(Box::from_raw(table.0)) };
        }
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
    fn requeue_moves_waiters_to_the_target_address() {
        let lot = Arc::new(ParkingLot::with_buckets(4));
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles = park_squad(&lot, 0x600, 3, &order);
        // Wake one, requeue the other two onto 0x700.
        let result = lot.unpark_requeue(0x600, 0x700, 1, usize::MAX, DEFAULT_UNPARK_TOKEN, |r| {
            assert_eq!(r.unparked, 1);
            assert_eq!(r.requeued, 2);
        });
        assert_eq!(result.unparked, 1);
        assert_eq!(result.requeued, 2);
        assert_eq!(lot.parked_count(0x600), 0);
        assert_eq!(lot.parked_count(0x700), 2);
        // The waiter woken by the requeue was the longest-parked one.
        while order.lock().unwrap().is_empty() {
            std::thread::yield_now();
        }
        assert_eq!(*order.lock().unwrap(), vec![0]);
        // Unparks on the original address find nobody.
        assert_eq!(lot.unpark_all(0x600, DEFAULT_UNPARK_TOKEN), 0);
        // The requeued waiters wake on the target address.
        assert_eq!(lot.unpark_all(0x700, DEFAULT_UNPARK_TOKEN), 2);
        for h in handles {
            assert!(h.join().unwrap().is_unparked());
        }
        let mut woken = order.lock().unwrap().clone();
        woken.sort_unstable();
        assert_eq!(woken, vec![0, 1, 2]);
    }

    #[test]
    fn timed_park_survives_a_requeue() {
        // A waiter parked with a timeout is requeued to another address and
        // then times out there: it must remove itself from the bucket it
        // lives in *now*, not the one it parked on.
        let lot = Arc::new(ParkingLot::with_buckets(4));
        let handle = {
            let lot = Arc::clone(&lot);
            std::thread::spawn(move || {
                lot.park(
                    0x800,
                    DEFAULT_PARK_TOKEN,
                    || true,
                    || {},
                    Some(Duration::from_millis(80)),
                )
            })
        };
        while lot.parked_count(0x800) == 0 {
            std::thread::yield_now();
        }
        lot.unpark_requeue(0x800, 0x900, 0, usize::MAX, DEFAULT_UNPARK_TOKEN, |_| {});
        assert_eq!(lot.parked_count(0x900), 1);
        assert_eq!(handle.join().unwrap(), ParkResult::TimedOut);
        assert_eq!(lot.total_parked(), 0);
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
                vec![1]
            },
            DEFAULT_UNPARK_TOKEN,
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
            assert!(h.join().unwrap().is_unparked());
        }
    }

    #[test]
    fn unpark_preferred_wakes_tagged_waiter_else_everyone() {
        // Tokens [0, 1, 0]: preferring token 1 wakes only the middle
        // waiter; a second call (no tagged waiter left) wakes the rest.
        let lot = Arc::new(ParkingLot::with_buckets(4));
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles = park_squad(&lot, 0xB00, 3, &order);
        let result = lot.unpark_preferred(0xB00, 1, DEFAULT_UNPARK_TOKEN, |r| {
            assert_eq!(r.unparked, 1);
            assert!(r.have_more);
        });
        assert_eq!(result.unparked, 1);
        while order.lock().unwrap().is_empty() {
            std::thread::yield_now();
        }
        assert_eq!(*order.lock().unwrap(), vec![1], "the tagged waiter woke");
        let rest = lot.unpark_preferred(0xB00, 1, DEFAULT_UNPARK_TOKEN, |r| {
            assert_eq!(r.unparked, 2);
            assert!(!r.have_more);
        });
        assert_eq!(rest.unparked, 2);
        for h in handles {
            assert!(h.join().unwrap().is_unparked());
        }
        assert_eq!(lot.total_parked(), 0);
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
            assert!(h.join().unwrap().is_unparked());
        }
    }

    #[test]
    fn global_lot_is_a_singleton() {
        assert!(std::ptr::eq(ParkingLot::global(), ParkingLot::global()));
    }

    #[test]
    fn table_grows_under_parked_load_and_waiters_survive() {
        // 2 initial buckets, GROW_LOAD_FACTOR waiters per bucket: parking 24
        // threads on 24 distinct addresses must grow the table, and every
        // waiter must remain reachable (unparkable) afterwards.
        let lot = Arc::new(ParkingLot::with_buckets(2));
        let n = 24usize;
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let lot = Arc::clone(&lot);
                std::thread::spawn(move || {
                    lot.park(0x1000 + i * 64, DEFAULT_PARK_TOKEN, || true, || {}, None)
                })
            })
            .collect();
        while lot.total_parked() < n {
            std::thread::yield_now();
        }
        // Growth triggers on the next park once the load threshold is
        // crossed; at 24 parked the 2-bucket table must have grown.
        assert!(
            lot.buckets() > 2,
            "table should have grown (buckets = {})",
            lot.buckets()
        );
        for i in 0..n {
            assert_eq!(lot.parked_count(0x1000 + i * 64), 1, "waiter {i} survives");
            assert_eq!(lot.unpark_all(0x1000 + i * 64, 9), 1);
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), ParkResult::Unparked(9));
        }
        assert_eq!(lot.total_parked(), 0);
    }

    #[test]
    fn growth_preserves_fifo_order_per_address() {
        let lot = Arc::new(ParkingLot::with_buckets(1));
        let order = Arc::new(Mutex::new(Vec::new()));
        // Three FIFO waiters on one address...
        let fifo = park_squad(&lot, 0xF1F0, 3, &order);
        // ...then enough waiters elsewhere to force a growth past them.
        let filler: Vec<_> = (0..8)
            .map(|i| {
                let lot = Arc::clone(&lot);
                std::thread::spawn(move || {
                    lot.park(0x2000 + i * 64, DEFAULT_PARK_TOKEN, || true, || {}, None)
                })
            })
            .collect();
        while lot.total_parked() < 11 {
            std::thread::yield_now();
        }
        assert!(lot.buckets() > 1, "growth should have happened");
        for _ in 0..3 {
            let before = order.lock().unwrap().len();
            assert_eq!(
                lot.unpark_one(0xF1F0, DEFAULT_UNPARK_TOKEN, |_| {})
                    .unparked,
                1
            );
            while order.lock().unwrap().len() == before {
                std::thread::yield_now();
            }
        }
        assert_eq!(
            *order.lock().unwrap(),
            vec![0, 1, 2],
            "FIFO order survives the table growth"
        );
        for i in 0..8 {
            lot.unpark_all(0x2000 + i * 64, DEFAULT_UNPARK_TOKEN);
        }
        for h in fifo.into_iter().chain(filler) {
            assert!(h.join().unwrap().is_unparked());
        }
        assert_eq!(lot.total_parked(), 0);
    }

    #[test]
    fn requeue_with_decides_under_the_bucket_locks() {
        // The decide closure sees a consistent world: a waiter parked on
        // `from` cannot be concurrently unparked while decide runs.
        let lot = Arc::new(ParkingLot::with_buckets(4));
        let handle = {
            let lot = Arc::clone(&lot);
            std::thread::spawn(move || lot.park(0x10, DEFAULT_PARK_TOKEN, || true, || {}, None))
        };
        while lot.parked_count(0x10) == 0 {
            std::thread::yield_now();
        }
        // Decide to requeue instead of waking.
        let result =
            lot.unpark_requeue_with(0x10, 0x20, || (0, usize::MAX), DEFAULT_UNPARK_TOKEN, |_| {});
        assert_eq!(result.unparked, 0);
        assert_eq!(result.requeued, 1);
        assert_eq!(lot.parked_count(0x20), 1);
        assert_eq!(lot.unpark_all(0x20, DEFAULT_UNPARK_TOKEN), 1);
        assert!(handle.join().unwrap().is_unparked());
    }
}
