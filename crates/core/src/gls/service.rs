//! The GLS service: mapping arbitrary addresses to lock objects.

use gls_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use gls_sync::sync::{Mutex as StdMutex, MutexGuard};
use std::sync::PoisonError;
use std::time::Duration;

use gls_clht::{Clht, ClhtStats};
use gls_locks::{CachePadded, LockKind, SpinWait};
use gls_runtime::flight::{self, FlightEventKind};
use gls_runtime::{cycles, ThreadId};

use crate::error::GlsError;

use super::addr::LockAddr;
use super::cache;
use super::condvar::{GlsCondvar, WaitOutcome};
use super::config::{GlsConfig, GlsMode};
use super::debug::DebugState;
use super::entry::{AlgorithmLock, Hold, Liveness, LockEntry, Wait};
use super::sampler;
use super::telemetry::{DeadlockTelemetry, HistogramSummary, LockTelemetry, TelemetrySnapshot};

/// Monotonic id generator so per-thread lock caches can tell services apart.
static NEXT_SERVICE_ID: AtomicU64 = AtomicU64::new(1);

/// The generic locking service (GLS).
///
/// GLS provides the classic lock interface but accepts **any address** (any
/// value, except 0/NULL) as the lock identifier; the service transparently
/// maps the address to a lock object through a CLHT hash table and a
/// per-thread lock cache. The default interface uses the adaptive GLK
/// algorithm; explicit per-algorithm interfaces are available through
/// [`GlsService::lock_with`] (paper Table 1).
///
/// # Interface summary (paper Table 1, extended with reader-writer locking)
///
/// Every method names its lock by one parameter, `impl Into<`[`LockAddr`]`>`:
/// `gls.lock(&x)` for the address of an object, `gls.lock(17usize)` for a
/// plain value.
///
/// | Interface | Methods | Entry algorithm |
/// |---|---|---|
/// | Default | [`lock`](Self::lock), [`try_lock`](Self::try_lock), [`unlock`](Self::unlock), [`guard`](Self::guard) | GLK (adaptive) |
/// | Explicit | [`lock_with`](Self::lock_with), [`try_lock_with`](Self::try_lock_with), [`unlock_with`](Self::unlock_with), [`guard_with`](Self::guard_with) | caller-chosen [`LockKind`] |
/// | Reader-writer | [`read_lock`](Self::read_lock), [`write_lock`](Self::write_lock), [`try_read_lock`](Self::try_read_lock), [`try_write_lock`](Self::try_write_lock), [`read_unlock`](Self::read_unlock), [`write_unlock`](Self::write_unlock), [`read_guard`](Self::read_guard), [`write_guard`](Self::write_guard) | [`FutexRwLock`](gls_locks::FutexRwLock) (spin, then park) |
/// | Condition variables | [`wait`](Self::wait), [`wait_timeout`](Self::wait_timeout) with a [`GlsCondvar`] | any mutex entry |
/// | Management | [`free`](Self::free), [`lock_count`](Self::lock_count), [`issues`](Self::issues), [`telemetry_snapshot`](Self::telemetry_snapshot) | — |
///
/// The rw interface shares everything the mutex interface has: address-based
/// mapping, the per-thread lock cache, profiling (queue/latency statistics)
/// and the debug mode — including the lock-order check, in which a read hold
/// orders locks like a write hold (the rw entries are writer-preferring).
/// Mixing the rw and mutex interfaces on one address degrades shared
/// acquisitions of non-rw entries to exclusive ones (safe, merely
/// pessimistic); the debug mode flags the mismatch.
///
/// # Example
///
/// ```
/// use gls::GlsService;
///
/// let service = GlsService::new();
/// let account_balance = 100u64; // any object can act as the lock identity
///
/// service.lock(&account_balance).unwrap();
/// // ... critical section protecting the balance ...
/// service.unlock(&account_balance).unwrap();
///
/// // Or, RAII style (the same guard type serves `read_guard` and
/// // `write_guard`):
/// {
///     let _guard = service.guard(&account_balance).unwrap();
///     // critical section
/// }
///
/// // Any value except 0 names a lock, like the paper's `gls_lock(17)`.
/// service.lock(17usize).unwrap();
/// service.unlock(17usize).unwrap();
/// ```
#[derive(Debug)]
pub struct GlsService {
    id: u64,
    table: Clht,
    config: GlsConfig,
    debug: DebugState,
    /// What reclaims freed entries. `free` itself only retires an entry
    /// *in place* — one CAS on its epoch word, no table update, no shared
    /// counter — so a racing holder's release and a re-creating `lock`
    /// reach the same allocation through the ordinary table lookup. On a
    /// line of its own: creates write it, while everything above is read
    /// by every lock and unlock.
    reclaim: CachePadded<Reclaim>,
}

/// The state of the sweep that unmaps freed entries and of the pool it
/// fills (see [`GlsService::sweep_slice`]).
#[derive(Debug)]
struct Reclaim {
    /// Number of mapped entries (live and freed) at which the next sweep
    /// pass starts; 0 while one runs, and then every create sweeps a slice
    /// of the table. Set at the end of each pass to the count that pass
    /// left plus an eighth of the table's buckets, so reclamation costs
    /// O(1) per create and resident entries stay O(live + recently freed).
    sweep_at: AtomicUsize,
    /// First table bucket the running pass has not handed out yet.
    sweep_cursor: AtomicUsize,
    /// Entries the sweep unmapped, by [`LockKind`], reused by the next
    /// create of that kind. Entry memory is type-stable — it goes back to
    /// the allocator only when the service drops — because thread-cache
    /// slots outlive any quiescent point and are validated by dereference.
    pool: StdMutex<Pool>,
    /// Number of entries in `pool`, so a create skips the mutex while the
    /// pool is empty.
    pooled: AtomicUsize,
}

/// Pooled entry pointers, indexed by `LockKind as usize`.
type Pool = [Vec<usize>; LockKind::ALL.len()];

/// Entries a service may map before its first sweep pass, and the least
/// growth between two passes. A freed entry survives one to two periods
/// untouched, so this is also the size of the set of freed-and-re-created
/// addresses the service is sure to keep resurrecting in place (one CAS)
/// instead of re-creating, and a third of the freed entries a program that
/// never repeats an address keeps resident (tombstones of two periods
/// plus the pool of one).
const MIN_SWEEP_PERIOD: usize = 4096;

/// Table buckets one create sweeps while a pass is running. A pass starts
/// every `max(MIN_SWEEP_PERIOD, buckets / 8)` entries of growth, so at 16
/// buckets per create it is over within half of that: the sweeping is done
/// by the creates themselves and keeps up with them whatever their rate.
const SWEEP_SLICE: usize = 16;

impl Default for GlsService {
    fn default() -> Self {
        Self::new()
    }
}

impl GlsService {
    /// Creates a service with the default configuration (GLK locks, normal
    /// mode). This is the Rust equivalent of `gls_init()`.
    pub fn new() -> Self {
        Self::with_config(GlsConfig::default())
    }

    /// Creates a service with a custom configuration.
    pub fn with_config(config: GlsConfig) -> Self {
        Self {
            id: NEXT_SERVICE_ID.fetch_add(1, Ordering::Relaxed),
            table: Clht::with_capacity(config.initial_capacity),
            debug: DebugState::new(config.mode == GlsMode::Debug),
            config,
            reclaim: CachePadded::new(Reclaim {
                sweep_at: AtomicUsize::new(MIN_SWEEP_PERIOD),
                sweep_cursor: AtomicUsize::new(0),
                pool: StdMutex::default(),
                pooled: AtomicUsize::new(0),
            }),
        }
    }

    /// The configuration this service runs with.
    pub fn config(&self) -> &GlsConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Default interface (gls_lock / gls_trylock / gls_unlock)
    // ------------------------------------------------------------------

    /// Acquires the lock associated with `m` — the address of an object
    /// (`gls.lock(&x)`) or any non-zero value (`gls.lock(17usize)`) —
    /// creating it on first use as a GLK lock (paper Table 1's default
    /// interface).
    ///
    /// # Errors
    ///
    /// In debug mode, returns the detected issue (double locking, or a
    /// lock-order cycle this attempt would close) without acquiring. In
    /// normal and profile mode this never fails.
    #[inline]
    pub fn lock(&self, m: impl Into<LockAddr>) -> Result<(), GlsError> {
        self.lock_with(LockKind::Glk, m)
    }

    /// Attempts to acquire the lock associated with `m` without waiting.
    ///
    /// # Errors
    ///
    /// In debug mode, returns the detected issue (e.g. double locking).
    #[inline]
    pub fn try_lock(&self, m: impl Into<LockAddr>) -> Result<bool, GlsError> {
        self.try_lock_with(LockKind::Glk, m)
    }

    /// Releases the lock associated with `m`.
    ///
    /// # Errors
    ///
    /// Returns [`GlsError::UninitializedLock`] if the address was never
    /// locked; in debug mode additionally detects releasing a free lock and
    /// releasing a lock owned by another thread.
    #[inline]
    pub fn unlock(&self, m: impl Into<LockAddr>) -> Result<(), GlsError> {
        self.release_mapped(m.into().0, Hold::Exclusive, None)
    }

    // ------------------------------------------------------------------
    // Explicit per-algorithm interface (gls_A_lock / gls_A_unlock)
    // ------------------------------------------------------------------

    /// Acquires the lock for `addr`, creating it with algorithm `kind` if it
    /// does not exist yet.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::lock`].
    #[inline]
    pub fn lock_with(&self, kind: LockKind, addr: impl Into<LockAddr>) -> Result<(), GlsError> {
        self.acquire(addr.into().0, kind, Hold::Exclusive, Wait::Block)
            .map(drop)
    }

    /// Attempts to acquire the lock for `addr` using algorithm `kind`.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::try_lock`].
    #[inline]
    pub fn try_lock_with(
        &self,
        kind: LockKind,
        addr: impl Into<LockAddr>,
    ) -> Result<bool, GlsError> {
        self.acquire(addr.into().0, kind, Hold::Exclusive, Wait::Try)
            .map(|held| held.is_some())
    }

    /// Releases the lock for `addr`, checking (in debug mode) that it was
    /// created with algorithm `kind`.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::unlock`].
    #[inline]
    pub fn unlock_with(&self, kind: LockKind, addr: impl Into<LockAddr>) -> Result<(), GlsError> {
        self.release_mapped(addr.into().0, Hold::Exclusive, Some(kind))
    }

    // ------------------------------------------------------------------
    // RAII interface
    // ------------------------------------------------------------------

    /// Acquires the lock for `m` and returns a guard that releases it when
    /// dropped.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::lock`].
    #[inline]
    pub fn guard(&self, m: impl Into<LockAddr>) -> Result<GlsGuard<'_>, GlsError> {
        self.guard_with(LockKind::Glk, m)
    }

    /// [`GlsService::guard`] through the explicit interface: the lock is
    /// created with algorithm `kind` if it does not exist yet.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::lock`].
    #[inline]
    pub fn guard_with(
        &self,
        kind: LockKind,
        addr: impl Into<LockAddr>,
    ) -> Result<GlsGuard<'_>, GlsError> {
        self.hold(addr.into().0, kind, Hold::Exclusive)
    }

    // ------------------------------------------------------------------
    // Reader-writer interface (gls_read_lock / gls_write_lock / ...)
    // ------------------------------------------------------------------

    /// Acquires shared (read) access to the lock associated with `m`,
    /// creating a reader-writer entry on first use.
    ///
    /// # Errors
    ///
    /// In debug mode, returns the detected issue (double locking, or a
    /// lock-order cycle this attempt would close) without acquiring. In
    /// normal and profile mode this never fails.
    #[inline]
    pub fn read_lock(&self, m: impl Into<LockAddr>) -> Result<(), GlsError> {
        self.acquire(m.into().0, LockKind::FutexRw, Hold::Shared, Wait::Block)
            .map(drop)
    }

    /// Acquires exclusive (write) access to the lock associated with `m`,
    /// creating a reader-writer entry on first use. Exclusive
    /// access on an rw entry *is* the classic lock operation, so the write
    /// side is the explicit interface at [`LockKind::FutexRw`].
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::read_lock`].
    #[inline]
    pub fn write_lock(&self, m: impl Into<LockAddr>) -> Result<(), GlsError> {
        self.lock_with(LockKind::FutexRw, m)
    }

    /// Attempts to acquire shared access without waiting.
    ///
    /// # Errors
    ///
    /// In debug mode, returns the detected issue (e.g. double locking).
    #[inline]
    pub fn try_read_lock(&self, m: impl Into<LockAddr>) -> Result<bool, GlsError> {
        self.acquire(m.into().0, LockKind::FutexRw, Hold::Shared, Wait::Try)
            .map(|held| held.is_some())
    }

    /// Attempts to acquire exclusive access without waiting.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::try_read_lock`].
    #[inline]
    pub fn try_write_lock(&self, m: impl Into<LockAddr>) -> Result<bool, GlsError> {
        self.try_lock_with(LockKind::FutexRw, m)
    }

    /// Releases shared access to the lock associated with `m`.
    ///
    /// # Errors
    ///
    /// Returns [`GlsError::UninitializedLock`] if the address was never
    /// locked; in debug mode additionally detects releasing shared access
    /// the calling thread does not hold.
    #[inline]
    pub fn read_unlock(&self, m: impl Into<LockAddr>) -> Result<(), GlsError> {
        self.release_mapped(m.into().0, Hold::Shared, None)
    }

    /// Releases exclusive access to the lock associated with `m`.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::unlock`].
    #[inline]
    pub fn write_unlock(&self, m: impl Into<LockAddr>) -> Result<(), GlsError> {
        self.unlock(m)
    }

    /// Acquires shared access to `m` and returns a guard releasing it on
    /// drop.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::read_lock`].
    #[inline]
    pub fn read_guard(&self, m: impl Into<LockAddr>) -> Result<GlsGuard<'_>, GlsError> {
        self.hold(m.into().0, LockKind::FutexRw, Hold::Shared)
    }

    /// Acquires exclusive access to `m` and returns a guard releasing it on
    /// drop.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::write_lock`].
    #[inline]
    pub fn write_guard(&self, m: impl Into<LockAddr>) -> Result<GlsGuard<'_>, GlsError> {
        self.guard_with(LockKind::FutexRw, m)
    }

    // ------------------------------------------------------------------
    // Condition variables (gls_wait / gls_wait_timeout)
    // ------------------------------------------------------------------

    /// Atomically releases the GLS mutex associated with `m` and parks the
    /// calling thread on `cv` until notified, then re-acquires the mutex
    /// before returning. The caller must hold the mutex; always re-check
    /// the waited-on predicate in a loop (spurious wakeups are possible).
    ///
    /// In debug mode the sleeper holds nothing while parked and the park adds
    /// no lock-order edge; only the re-acquisition runs the ordinary
    /// order-checked lock path. In profile mode the re-acquisition is
    /// profiled like any lock call.
    ///
    /// # Errors
    ///
    /// In debug mode, returns [`GlsError::WrongOwner`] or
    /// [`GlsError::ReleaseFreeLock`] (recorded in the issue log) when the
    /// calling thread does not hold the mutex — waiting with a lock you do
    /// not own is the same class of bug as releasing one. Errors from the
    /// re-acquisition are propagated.
    pub fn wait(&self, cv: &GlsCondvar, m: impl Into<LockAddr>) -> Result<(), GlsError> {
        self.wait_on(cv, m.into().0, None).map(drop)
    }

    /// Like [`GlsService::wait`], but gives up after `timeout` and reports
    /// which way the wait ended. The mutex is re-acquired either way.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::wait`].
    pub fn wait_timeout(
        &self,
        cv: &GlsCondvar,
        m: impl Into<LockAddr>,
        timeout: Duration,
    ) -> Result<WaitOutcome, GlsError> {
        self.wait_on(cv, m.into().0, Some(timeout))
    }

    fn wait_on(
        &self,
        cv: &GlsCondvar,
        addr: usize,
        timeout: Option<Duration>,
    ) -> Result<WaitOutcome, GlsError> {
        // Debug mode checks ownership *before* parking: once enqueued the
        // unlock must not fail, or the thread would sleep still holding the
        // mutex it promised to release.
        if self.config.mode == GlsMode::Debug {
            let me = ThreadId::current();
            if !self.debug.holds(me, addr, Hold::Exclusive) {
                return Err(self.not_held(addr, self.debug.holder_of(me, addr)));
            }
        }
        let mut relock_result = Ok(());
        // The mutex is released in `before_sleep`, i.e. *after* the waiter
        // is enqueued under the condvar's address: a notifier that acquires
        // the mutex after this release is guaranteed to see the waiter.
        let outcome = cv.wait_with(
            || {
                let _ = self.unlock(addr);
            },
            || relock_result = self.lock(addr),
            timeout,
        );
        relock_result.map(|()| outcome)
    }

    /// Notifies one waiter of `cv`, requeueing it directly onto the mutex
    /// associated with `m` when that mutex currently blocks through the
    /// shared parking lot and is held: the waiter then skips the
    /// wake-then-block hop and is woken straight by the mutex's release.
    /// Falls back to a plain [`GlsCondvar::notify_one`] for mutexes that do
    /// not sleep on a futex word (nothing to requeue onto) or a free mutex
    /// (the waiter can take it immediately). Returns whether a waiter was
    /// notified.
    ///
    /// With no waiter on `cv` it returns `false` at once, before any entry
    /// lookup or parking-lot access (see [`GlsCondvar::waiters`]).
    pub fn notify_one(&self, cv: &GlsCondvar, m: impl Into<LockAddr>) -> bool {
        if !cv.has_waiters() {
            return false;
        }
        let addr = m.into().0;
        match self.park_target(addr) {
            // SAFETY: the park address belongs to this entry's futex word;
            // entry memory is type-stable while the service lives (see
            // `entry_ref`), so the word outlives the call. The
            // revalidation (under the bucket locks) re-resolves the park
            // address so a waiter is never requeued onto a word the mutex
            // stopped parking under (GLK left mutex mode).
            Some(target) => unsafe {
                cv.notify_one_requeue(target, || self.park_target(addr) == Some(target))
            },
            None => cv.notify_one(),
        }
    }

    /// The parking-lot address the mutex of `addr` parks its waiters under
    /// right now, if it parks them there at all.
    fn park_target(&self, addr: usize) -> Option<usize> {
        self.mapped_entry(addr).and_then(|e| e.park_addr())
    }

    /// Notifies every waiter of `cv`, requeueing them onto the mutex
    /// associated with `m` when it is futex-backed (wait-morphing
    /// broadcast: the mutex's successive releases wake them one at a time,
    /// with no thundering herd re-contending the mutex). Returns how many
    /// waiters were notified (0 at once when `cv` has none).
    pub fn notify_all(&self, cv: &GlsCondvar, m: impl Into<LockAddr>) -> usize {
        if !cv.has_waiters() {
            return 0;
        }
        let addr = m.into().0;
        match self.park_target(addr) {
            // SAFETY: as in `notify_one` — the futex word lives as long as
            // the service, and the revalidation closes the stale-address
            // race.
            Some(target) => unsafe {
                cv.notify_all_requeue(target, || self.park_target(addr) == Some(target))
            },
            None => cv.notify_all(),
        }
    }

    // ------------------------------------------------------------------
    // Management, debugging, profiling
    // ------------------------------------------------------------------

    /// Removes the lock object for `m` from the service (`gls_free`).
    /// Returns `true` if a lock object existed.
    ///
    /// The entry is retired **in place**: one CAS on its epoch word turns
    /// it into a tombstone that stays mapped in the table, and the CAS
    /// winner is the unique claimant of this live cycle (a concurrent free
    /// of the same address reports `false`). Because nothing is unmapped, a
    /// holder caught by the racing free still finds the entry for its
    /// `unlock`, and a re-creating `lock` resurrects the same allocation
    /// with one CAS — a release is never stranded and mutual exclusion
    /// survives the free by construction. A tombstone fails the validation
    /// of every per-thread cache slot holding this mapping; every other
    /// address's cached mapping stays hot. Tombstones are reclaimed by the
    /// sweep that later creates run between them (see `sweep_slice`).
    ///
    /// In debug mode the freed address's lock-order edges are forgotten: a
    /// lock re-created at the same address starts with no order.
    pub fn free(&self, m: impl Into<LockAddr>) -> bool {
        let addr = m.into().0;
        let Some(entry) = self.table.get(addr).map(Self::entry_ref) else {
            return false;
        };
        let retired = entry.retire(addr);
        if retired && self.config.mode == GlsMode::Debug {
            self.debug.forget(addr);
        }
        retired
    }

    /// Called by a create that mapped a new entry: starts a sweep pass
    /// when the table has grown by a period since the last one, and does
    /// this create's share of the running pass — the next [`SWEEP_SLICE`]
    /// buckets. No thread, timer or lock: passes are made of the creates
    /// that need the entries back, and a create that stalls mid-slice
    /// holds nobody up. (A slice finished late, or handed out across a
    /// table resize, can age a tombstone twice in a row; that costs a
    /// re-create its resurrection, never correctness.)
    fn sweep_slice(&self) {
        let reclaim = &*self.reclaim;
        let due = reclaim.sweep_at.load(Ordering::Relaxed);
        if self.table.len() < due {
            return;
        }
        if due != 0 {
            // Latch the pass: it runs to its end even though it shrinks
            // the very count that started it. (A CAS, so that a thread
            // arriving late cannot latch the pass after this one.)
            let _ = reclaim
                .sweep_at
                .compare_exchange(due, 0, Ordering::Relaxed, Ordering::Relaxed);
        }
        let first = reclaim
            .sweep_cursor
            .fetch_add(SWEEP_SLICE, Ordering::Relaxed);
        let buckets = self.sweep(first, SWEEP_SLICE, true);
        if first + SWEEP_SLICE >= buckets {
            // Every bucket of this pass has been handed out, to this create
            // or to earlier ones: whoever notices ends the pass, without
            // waiting for the slices still being swept.
            let period = (buckets / 8).max(MIN_SWEEP_PERIOD);
            reclaim
                .sweep_at
                .store(self.table.len() + period, Ordering::Relaxed);
            reclaim.sweep_cursor.store(0, Ordering::Relaxed);
        }
    }

    /// The second-chance sweep over `count` table buckets from `first`
    /// (returns the table's bucket count). A tombstone not resurrected
    /// since the previous visit is claimed through its epoch word, proven
    /// idle, unmapped, wiped and pooled for the next create of its kind;
    /// one touched since then only ages. Slices may run concurrently, and
    /// nothing here blocks on a lock a user may hold.
    fn sweep(&self, first: usize, count: usize, prove_idle: bool) -> usize {
        let mut reclaimed = Vec::new();
        let buckets = self.table.for_each_in_buckets(first, count, |_, ptr| {
            let entry = Self::entry_ref(ptr);
            if !entry.age() {
                return;
            }
            // Claimed: the epoch word keeps lockers, freers and other
            // sweepers off the entry; only a holder that arrived earlier
            // (or through a stale pointer) can still be on its lock. The
            // exclusive try-lock with nobody queued proves there is none,
            // and whoever acquires after the release below finds the
            // address gone and retries (`acquired_for`).
            let idle = !prove_idle || (entry.lock.queue_length() == 0 && entry.lock.try_lock());
            if !idle {
                entry.unclaim();
                return;
            }
            let removed = self.table.remove(entry.addr());
            debug_assert_eq!(removed, Some(ptr), "a claimed tombstone is mapped");
            entry.recycle();
            if prove_idle {
                entry.lock.unlock();
            }
            reclaimed.push(ptr);
        });
        if !reclaimed.is_empty() {
            let mut pool = self.pool();
            self.reclaim
                .pooled
                .fetch_add(reclaimed.len(), Ordering::Relaxed);
            for ptr in reclaimed {
                pool[Self::entry_ref(ptr).lock.kind() as usize].push(ptr);
            }
        }
        buckets
    }

    /// Number of freed lock entries still resident in the service:
    /// tombstones (freed, not yet re-created or swept) plus the pool of
    /// swept entries awaiting reuse. Bounded by the recently freed
    /// addresses, not by the addresses ever locked. Walks the table.
    pub fn retired_count(&self) -> usize {
        self.census().1 + self.reclaim.pooled.load(Ordering::Relaxed)
    }

    /// Number of lock objects currently managed by the service. Walks the
    /// table: `free` keeps no shared count, so that frees of different
    /// addresses share no cache line.
    pub fn lock_count(&self) -> usize {
        self.census().0
    }

    /// `(live entries, tombstones)` in the table (racy snapshot).
    fn census(&self) -> (usize, usize) {
        let (mut live, mut tombstones) = (0, 0);
        self.table.for_each(|_, ptr| {
            if LockEntry::epoch_is_live(Self::entry_ref(ptr).epoch()) {
                live += 1;
            } else {
                tombstones += 1;
            }
        });
        (live, tombstones)
    }

    /// Issues detected so far (debug mode).
    pub fn issues(&self) -> Vec<GlsError> {
        self.debug.issues()
    }

    /// Clears the recorded issues.
    pub fn clear_issues(&self) {
        self.debug.clear_issues();
    }

    /// Statistics of the underlying address → lock table. `elements`
    /// counts live locks; `occupancy` is physical, so freed entries that
    /// are still mapped occupy their slots.
    pub fn table_stats(&self) -> ClhtStats {
        ClhtStats {
            elements: self.lock_count(),
            ..self.table.stats()
        }
    }

    /// Calls `f` for every live entry (racy snapshot, like the table walk
    /// underneath; tombstones are skipped).
    fn for_each_live(&self, mut f: impl FnMut(&LockEntry)) {
        self.table.for_each(|addr, ptr| {
            let entry = Self::entry_ref(ptr);
            if entry.is_live_for(addr) {
                f(entry);
            }
        });
    }

    /// Captures a [`TelemetrySnapshot`]: per-lock profiles with latency
    /// distributions (most contended first; meaningful when the service
    /// runs in [`GlsMode::Profile`]), cache/parking/mode-transition counters
    /// and the size of the debug mode's lock-order graph. Cheap enough to
    /// call periodically — one table walk plus relaxed counter reads;
    /// concurrent updates may or may not be included (the same
    /// racy-snapshot semantics every report here has).
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut locks = Vec::new();
        let mut glk_transitions = 0;
        self.for_each_live(|entry| {
            let totals = entry.profile_totals();
            let transitions = entry.lock.transition_count();
            glk_transitions += transitions;
            let lock_latency = HistogramSummary::of(&entry.lock_latency_histogram());
            let cs_latency = HistogramSummary::of(&entry.cs_latency_histogram());
            locks.push(LockTelemetry {
                addr: entry.addr(),
                algorithm: entry.lock.kind(),
                acquisitions: totals.acquisitions,
                avg_queue: totals.avg_queue(),
                lock_latency,
                cs_latency,
                transitions,
            });
        });
        locks.sort_by(|a, b| {
            b.avg_queue
                .partial_cmp(&a.avg_queue)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let confirmed = self
            .debug
            .issues()
            .iter()
            .filter(|i| matches!(i, GlsError::Deadlock { .. }))
            .count() as u64;
        let (live, tombstones) = self.census();
        TelemetrySnapshot {
            mode: self.config.mode,
            sampling_budget: self.config.sampling_budget,
            lock_count: live,
            retired_count: tombstones + self.reclaim.pooled.load(Ordering::Relaxed),
            locks,
            cache: cache::aggregated_cache_stats(),
            parking_lot: gls_locks::ParkingLot::global().stats(),
            glk_transitions,
            deadlock: DeadlockTelemetry {
                edges: self.debug.edge_count(),
                confirmed,
            },
        }
    }

    /// The lock algorithm currently associated with `addr`, if any.
    pub fn algorithm_of(&self, addr: impl Into<LockAddr>) -> Option<LockKind> {
        self.find_entry(addr.into().0).map(|e| e.lock.kind())
    }

    /// Holders plus waiters of the lock associated with `addr`, as its
    /// algorithm counts them (the number GLK's adaptation samples), or
    /// `None` if there is no lock. A blocking lock counts its parked
    /// waiters, not the ones still spinning. Racy: for diagnostics.
    pub fn queue_length(&self, addr: impl Into<LockAddr>) -> Option<u64> {
        self.find_entry(addr.into().0)
            .map(|e| e.lock.queue_length())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn entry_ref<'a>(ptr: usize) -> &'a LockEntry {
        // Entry memory is type-stable: an allocation is created by
        // `spare_entry`, moves between the table and the pool — free()
        // retires it in place, the sweep recycles it for another address,
        // neither deallocates — and is freed only when the service drops.
        // Whether it is still the entry *of the address it was looked up
        // for* is checked separately: by liveness and `addr()` on a cache
        // hit, by `addr()` after acquiring.
        // SAFETY: by the above, any pointer obtained from the table, the
        // pool or a thread cache is a valid `LockEntry` for the service
        // lifetime, which outlives every `&self` borrow handing it out.
        unsafe { &*(ptr as *const LockEntry) }
    }

    /// Probes the calling thread's lock cache for `addr`. A matching slot
    /// is accepted only if its entry is live for `addr` right now — the
    /// entry's own state, read at hit time: a tombstone misses (the table
    /// path resurrects it), an entry recycled for another address misses,
    /// and an entry freed and resurrected since the slot was stored is
    /// still the address's mapping and hits. The whole hit path is load →
    /// compare → deref → load → load — no atomic read-modify-write, no
    /// shared store. (A recycling that slips in after the validation is
    /// caught by the check after the acquisition.)
    #[inline]
    fn cache_probe(&self, addr: usize) -> Option<&LockEntry> {
        if !self.config.lock_cache {
            return None;
        }
        cache::lookup(self.id, addr, |ptr| {
            let entry = Self::entry_ref(ptr);
            #[cfg(gls_model)]
            if model::hit_checks_addr_only() {
                return entry.addr() == addr;
            }
            entry.is_live_for(addr)
        })
        .map(Self::entry_ref)
    }

    /// Caches `addr → entry`. A mapping that is stale by the time it is
    /// stored is harmless: every hit is validated again.
    #[inline]
    fn cache_insert(&self, addr: usize, entry: &LockEntry) {
        if self.config.lock_cache {
            cache::store(self.id, addr, entry as *const LockEntry as usize);
        }
    }

    /// Finds the entry mapped for `addr` — live or a tombstone — without
    /// creating or resurrecting it. This is what a release resolves
    /// through: a `free` racing with a lock holder leaves the entry mapped
    /// (and the sweep never unmaps a held one), so the holder's release
    /// lands on the entry it acquired.
    #[inline]
    fn mapped_entry(&self, addr: usize) -> Option<&LockEntry> {
        if let Some(entry) = self.cache_probe(addr) {
            return Some(entry);
        }
        let entry = Self::entry_ref(self.table.get(addr)?);
        if entry.addr() != addr {
            // Recycled between the table read and here: nothing the caller
            // could hold is mapped for `addr`.
            return None;
        }
        self.cache_insert(addr, entry);
        Some(entry)
    }

    /// Finds the live entry for `addr` without creating it.
    #[inline]
    fn find_entry(&self, addr: usize) -> Option<&LockEntry> {
        self.mapped_entry(addr).filter(|e| e.is_live_for(addr))
    }

    /// Finds or creates the entry for `addr` using algorithm `kind`; a
    /// tombstone of the address is resurrected as it is (the algorithm
    /// chosen at first creation survives, as with `put_if_absent`
    /// generally; debug mode flags kind mismatches).
    #[inline(always)]
    fn entry_for(&self, addr: usize, kind: LockKind) -> &LockEntry {
        assert_ne!(addr, 0, "GLS does not accept NULL (address 0) as a lock");
        if let Some(entry) = self.cache_probe(addr) {
            return entry;
        }
        let mut wait = SpinWait::new();
        loop {
            let ptr = match self.table.get(addr) {
                Some(ptr) => ptr,
                None => self.create_entry(addr, kind),
            };
            let entry = Self::entry_ref(ptr);
            match entry.make_live(addr) {
                Liveness::Live => {}
                // The table read raced a recycling: look again.
                Liveness::Recycled => continue,
                // A sweep pass is deciding this tombstone's fate; either
                // outcome (tombstone again, or unmapped) is a few
                // instructions away on the sweeping thread.
                Liveness::Claimed => {
                    wait.spin();
                    continue;
                }
            }
            self.cache_insert(addr, entry);
            return entry;
        }
    }

    /// Maps a fresh or pooled entry of algorithm `kind` for `addr`, unless
    /// another thread maps one first; returns whatever the table holds.
    #[cold]
    fn create_entry(&self, addr: usize, kind: LockKind) -> usize {
        let (spare, pooled) = self.spare_entry(kind);
        let mut used = false;
        let ptr = self.table.put_if_absent(addr, || {
            // Under the bucket lock, with `addr` unmapped: from here on
            // the entry is reachable, so it is made live first.
            let entry = Self::entry_ref(spare);
            entry.revive(addr);
            used = true;
            spare
        });
        if used {
            self.sweep_slice();
        } else if pooled {
            self.pool()[kind as usize].push(spare);
            self.reclaim.pooled.fetch_add(1, Ordering::Relaxed);
        } else {
            // SAFETY: allocated by `spare_entry` just now with
            // Box::into_raw and never published: nothing else can hold
            // the pointer.
            unsafe { drop(Box::from_raw(spare as *mut LockEntry)) };
        }
        ptr
    }

    /// An entry of algorithm `kind` nothing maps, and whether it came from
    /// the pool (never one of another kind) or was freshly allocated.
    fn spare_entry(&self, kind: LockKind) -> (usize, bool) {
        if self.reclaim.pooled.load(Ordering::Relaxed) != 0 {
            let mut pool = self.pool();
            if let Some(ptr) = pool[kind as usize].pop() {
                self.reclaim.pooled.fetch_sub(1, Ordering::Relaxed);
                return (ptr, true);
            }
        }
        let lock = AlgorithmLock::new(kind, &self.config.glk, &self.config.monitor);
        (
            Box::into_raw(Box::new(LockEntry::new(lock))) as usize,
            false,
        )
    }

    /// The pool, whatever a thread that panicked while holding it left:
    /// every push and pop leaves it valid.
    fn pool(&self) -> MutexGuard<'_, Pool> {
        self.reclaim
            .pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The recorded issue for releasing, or waiting with, a lock the caller
    /// does not hold: `holder` does, or nobody.
    #[cold]
    fn not_held(&self, addr: usize, holder: Option<ThreadId>) -> GlsError {
        self.debug.flag(match holder {
            Some(owner) => GlsError::WrongOwner {
                addr,
                owner,
                caller: ThreadId::current(),
            },
            None => GlsError::ReleaseFreeLock { addr },
        })
    }

    /// Gives back a hold of `addr` on an entry that turned out to be
    /// recycled.
    #[cold]
    fn undo_acquire(&self, entry: &LockEntry, addr: usize, hold: Hold) {
        if self.config.mode == GlsMode::Debug {
            let undone =
                self.debug
                    .release_hold(ThreadId::current(), addr, hold, entry.lock.is_rw());
            debug_assert!(undone.is_ok(), "the hold was recorded as taken");
        }
        // Whatever stamp is there is this acquisition's, or an orphan.
        entry.take_acquired();
        entry.lock.release(hold);
    }

    /// The one acquisition path, behind every `lock`, `try_lock`,
    /// `read_lock`, `try_read_lock` and guard: look the entry up (creating
    /// or resurrecting it with algorithm `kind`), acquire it the way the
    /// service's mode asks, and look again if the entry turned out to be
    /// recycled meanwhile. Returns the entry now held, or `None` for a
    /// [`Wait::Try`] that found it taken. Always inlined, so that `hold` and
    /// `wait` are constants in each public method (see the verify notes).
    #[inline(always)]
    fn acquire(
        &self,
        addr: usize,
        kind: LockKind,
        hold: Hold,
        wait: Wait,
    ) -> Result<Option<&LockEntry>, GlsError> {
        loop {
            let entry = self.entry_for(addr, kind);
            let acquired = match self.config.mode {
                GlsMode::Normal => entry.lock.acquire(hold, wait),
                GlsMode::Profile => {
                    // All statistics go to the calling thread's cache-padded
                    // shard: contended acquirers do not serialize on a
                    // shared stat cacheline before even reaching the lock
                    // word.
                    let shards = entry.profile_shards();
                    let slot = shards.slot();
                    let acquired = if sampler::should_sample(self.config.sampling_budget) {
                        slot.record_queue_sample(entry.lock.queue_length());
                        let start = cycles::now();
                        let acquired = entry.lock.acquire(hold, wait);
                        if acquired {
                            let waited = cycles::now().wrapping_sub(start);
                            shards.record_lock_latency_hist(waited);
                            // Fresh stamp *after* the latency bookkeeping:
                            // the critical-section measurement must not
                            // include the recording work above, which is
                            // warm when every acquisition is measured but
                            // cold (and several times slower) at 1-in-N
                            // sampling — a systematic bias the
                            // sampling-fidelity test catches. Shared holds
                            // get no stamp: they overlap, and two readers
                            // may share a stat shard, so their sections are
                            // not individually timed.
                            if hold == Hold::Exclusive {
                                entry.stamp_acquired(cycles::now());
                            }
                        }
                        acquired
                    } else {
                        // Unmeasured acquisition: no cycle reads, no queue
                        // probe, no stamp (so the matching release also
                        // skips its cycle read) — but the count stays exact.
                        entry.lock.acquire(hold, wait)
                    };
                    if acquired {
                        slot.record_acquisition();
                    }
                    acquired
                }
                GlsMode::Debug => self.debug_acquire(entry, addr, kind, hold, wait)?,
            };
            // The identity check: `entry` is the entry of `addr` unless
            // the sweep recycled it between the lookup and the acquisition;
            // then the hold is undone and `addr` looked up again. One load
            // on the line the lock word already pulled in.
            if entry.addr() == addr {
                return Ok(acquired.then_some(entry));
            }
            if acquired {
                self.undo_acquire(entry, addr, hold);
            }
        }
    }

    /// A blocking acquisition wrapped in the guard that releases it.
    #[inline]
    fn hold(&self, addr: usize, kind: LockKind, hold: Hold) -> Result<GlsGuard<'_>, GlsError> {
        let entry = self
            .acquire(addr, kind, hold, Wait::Block)?
            .expect("a blocking acquisition returns holding");
        Ok(GlsGuard {
            service: self,
            entry,
            hold,
        })
    }

    /// A release by address. A `free` racing with a lock holder never
    /// strands the holder: the freed entry stays mapped as a tombstone (and
    /// the sweep leaves a held one alone), so the release lands on it.
    #[inline(always)]
    fn release_mapped(
        &self,
        addr: usize,
        hold: Hold,
        expected_kind: Option<LockKind>,
    ) -> Result<(), GlsError> {
        let Some(entry) = self.mapped_entry(addr) else {
            let issue = GlsError::UninitializedLock { addr };
            return Err(match self.config.mode {
                GlsMode::Debug => self.debug.flag(issue),
                _ => issue,
            });
        };
        self.release(entry, hold, expected_kind)
    }

    /// The one release path, behind every `unlock`, `read_unlock` and guard
    /// drop: `entry` is what the caller's acquisition returned (or what its
    /// address maps to), `hold` how it was acquired.
    #[inline(always)]
    fn release(
        &self,
        entry: &LockEntry,
        hold: Hold,
        expected_kind: Option<LockKind>,
    ) -> Result<(), GlsError> {
        match self.config.mode {
            GlsMode::Debug => self.debug_release(entry, hold, expected_kind)?,
            GlsMode::Profile if hold == Hold::Exclusive => {
                // The stamp (exclusive holds only) is consumed from the entry,
                // so cross-thread releases are timed correctly; the sample
                // itself goes to the releasing thread's shard.
                let acquired_at = entry.take_acquired();
                if acquired_at != 0 {
                    let held = cycles::now().wrapping_sub(acquired_at);
                    entry.profile_shards().record_cs_latency_hist(held);
                }
            }
            _ => {}
        }
        entry.lock.release(hold);
        Ok(())
    }

    /// Debug mode's ownership check on a release: gives back the caller's
    /// hold, or reports that it has none.
    #[cold]
    fn debug_release(
        &self,
        entry: &LockEntry,
        hold: Hold,
        expected_kind: Option<LockKind>,
    ) -> Result<(), GlsError> {
        let addr = entry.addr();
        let released = self
            .debug
            .release_hold(ThreadId::current(), addr, hold, entry.lock.is_rw());
        if let Err(holder) = released {
            return Err(self.not_held(addr, holder));
        }
        if let Some(requested) = expected_kind.filter(|&kind| kind != entry.lock.kind()) {
            self.debug.flag(GlsError::AlgorithmMismatch {
                addr,
                created: entry.lock.kind(),
                requested,
            });
        }
        Ok(())
    }

    /// The debug-mode acquisition path, for exclusive and shared requests
    /// alike; returns whether the lock was acquired (always, unless `wait`
    /// is [`Wait::Try`]). Re-entry and, for a blocking request, the lock
    /// order are checked before the lock is touched
    /// ([`DebugState::check_acquire`]); a [`Wait::Try`] adds no order edge
    /// and checks no algorithm. A hold taken either way is recorded.
    #[cold]
    fn debug_acquire(
        &self,
        entry: &LockEntry,
        addr: usize,
        kind: LockKind,
        hold: Hold,
        wait: Wait,
    ) -> Result<bool, GlsError> {
        let me = ThreadId::current();
        self.debug.check_acquire(me, addr, hold, wait)?;
        let acquired = match wait {
            Wait::Try => entry.lock.acquire(hold, Wait::Try),
            Wait::Block => {
                if kind != entry.lock.kind() {
                    self.debug.flag(GlsError::AlgorithmMismatch {
                        addr,
                        created: entry.lock.kind(),
                        requested: kind,
                    });
                }
                if !entry.lock.acquire(hold, Wait::Try) {
                    // Leave a trail for the flight recorder before
                    // blocking: a later report shows which contended
                    // acquisitions led up to it.
                    flight::record(FlightEventKind::SlowPathAcquire, addr, 0);
                    entry.lock.acquire(hold, Wait::Block);
                }
                true
            }
        };
        if acquired {
            self.debug.record_hold(me, addr, hold);
            entry.record_debug_acquisition();
        }
        Ok(acquired)
    }
}

/// Model-checker entry points: the explorer cannot free its way to the
/// sweep threshold, so these run a pass on demand. Compiled only under
/// `--cfg gls_model`.
#[cfg(gls_model)]
impl GlsService {
    /// Runs one whole sweep pass now, as the creates of a service with
    /// enough freed entries would between them. `prove_idle: false`
    /// re-seeds the bug the idle proof exists for — a pass that unmaps and
    /// recycles claimed tombstones without checking that nobody holds them
    /// — so the model suite can prove the explorer finds it.
    pub fn model_force_sweep(&self, prove_idle: bool) {
        self.sweep(0, usize::MAX, prove_idle);
    }
}

/// Model-checker hooks for the cached hit path and the condvar's waiter
/// count: seeded bugs. Compiled only under `--cfg gls_model`.
#[cfg(gls_model)]
pub(crate) mod model {
    use std::cell::Cell;

    // Per thread: a vthread is an OS thread, and an exploration's threads
    // must not see another test's settings.
    thread_local! {
        static ADDR_ONLY: Cell<bool> = const { Cell::new(false) };
        static COUNT_LATE: Cell<bool> = const { Cell::new(false) };
    }

    /// Seeds, on the calling thread, a cache hit validated by `addr()`
    /// alone: a slot whose entry was freed still hits, so a `lock` takes
    /// the tombstone without resurrecting it, and the sweep later recycles
    /// an address that was locked after its free.
    pub fn model_hit_checks_addr_only(seeded: bool) {
        ADDR_ONLY.with(|c| c.set(seeded));
    }

    pub(super) fn hit_checks_addr_only() -> bool {
        ADDR_ONLY.with(Cell::get)
    }

    /// Seeds, on the calling thread, a condvar waiter that counts itself
    /// only after it released the mutex: a notifier that takes the mutex in
    /// between reads no waiter and leaves this one asleep.
    pub fn model_count_waiter_after_release(seeded: bool) {
        COUNT_LATE.with(|c| c.set(seeded));
    }

    pub(in crate::gls) fn count_waiter_after_release() -> bool {
        COUNT_LATE.with(Cell::get)
    }
}

impl Drop for GlsService {
    fn drop(&mut self) {
        // Return every entry to the allocator: live ones and tombstones
        // are mapped in the table, recycled ones sit in the pool, and no
        // entry is in both. `&mut self` guarantees no concurrent access.
        let mut pointers = Vec::new();
        self.table.for_each(|_, ptr| pointers.push(ptr));
        let pool = self
            .reclaim
            .pool
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        pointers.extend(pool.iter_mut().flat_map(|kind| kind.drain(..)));
        for ptr in pointers {
            // SAFETY: entries were allocated with Box::into_raw, and each
            // is reachable from exactly one place (see above).
            unsafe { drop(Box::from_raw(ptr as *mut LockEntry)) };
        }
    }
}

/// RAII guard returned by [`GlsService::guard`], [`read_guard`] and
/// [`write_guard`]; releases the hold on drop. It carries the entry it
/// acquired: entry memory is type-stable and the sweep never recycles a
/// held entry, so the drop needs no lookup and cannot miss.
///
/// [`read_guard`]: GlsService::read_guard
/// [`write_guard`]: GlsService::write_guard
#[must_use = "the lock is released when the guard drops"]
#[derive(Debug)]
pub struct GlsGuard<'a> {
    service: &'a GlsService,
    entry: &'a LockEntry,
    hold: Hold,
}

impl GlsGuard<'_> {
    /// The address this guard protects.
    pub fn addr(&self) -> usize {
        self.entry.addr()
    }
}

impl Drop for GlsGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        // Releasing a lock we acquired cannot fail in normal mode; in debug
        // mode a failure would itself be recorded in the issue log.
        let _ = self.service.release(self.entry, self.hold, None);
    }
}

#[cfg(test)]
// Raw std sync and wall-clock sleeps are fine in stress tests: they pace
// real threads, not modeled ones (see clippy.toml).
#[allow(clippy::disallowed_types, clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::glk::GlkConfig;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn lock_unlock_arbitrary_values() {
        let svc = GlsService::new();
        // Any non-zero value works as a lock identity, like gls_lock(17).
        svc.lock(17).unwrap();
        svc.unlock(17).unwrap();
        assert_eq!(svc.lock_count(), 1);
    }

    #[test]
    fn unlock_of_unknown_address_reports_uninitialized() {
        let svc = GlsService::new();
        let err = svc.unlock(0x1234).unwrap_err();
        assert_eq!(err.category(), "uninitialized-lock");
    }

    #[test]
    #[should_panic(expected = "NULL")]
    fn null_address_is_rejected() {
        GlsService::new().lock(0).unwrap();
    }

    #[test]
    fn guard_releases_on_drop() {
        let svc = GlsService::new();
        let data = 5u32;
        {
            let _g = svc.guard(&data).unwrap();
            assert!(!svc.try_lock(&data).unwrap());
        }
        assert!(svc.try_lock(&data).unwrap());
        svc.unlock(&data).unwrap();
    }

    const MODES: [GlsMode; 3] = [GlsMode::Normal, GlsMode::Profile, GlsMode::Debug];

    /// What the one acquire path and the one release path must keep
    /// different per (hold × wait × mode): the four acquisition functions
    /// and two release functions they replaced differed in exactly this.
    #[test]
    fn acquire_and_release_keep_the_per_path_differences() {
        for mode in MODES {
            for hold in [Hold::Exclusive, Hold::Shared] {
                for wait in [Wait::Block, Wait::Try] {
                    let case = format!("{mode:?}/{hold:?}/{wait:?}");
                    // Full measurement: every profiled acquisition is sampled.
                    let svc = GlsService::with_config(GlsConfig::default().with_mode(mode));
                    let addr = 0x7AB1E;
                    let entry = svc
                        .acquire(addr, LockKind::FutexRw, hold, wait)
                        .unwrap()
                        .expect("a free lock is acquired whichever way");
                    // A failed try records neither a latency nor an
                    // acquisition; in debug mode it reports no issue and
                    // records no hold.
                    std::thread::scope(|s| {
                        s.spawn(|| {
                            assert_eq!(svc.try_write_lock(addr), Ok(false), "{case}");
                            if mode == GlsMode::Debug {
                                let me = ThreadId::current();
                                assert!(!svc.debug.holds(me, addr, Hold::Exclusive), "{case}");
                            }
                        });
                    });
                    assert!(svc.issues().is_empty(), "{case}: {:?}", svc.issues());
                    let totals = entry.profile_totals();
                    let profiled = u64::from(mode == GlsMode::Profile);
                    assert_eq!(
                        totals.acquisitions,
                        u64::from(mode != GlsMode::Normal),
                        "{case}"
                    );
                    assert_eq!(entry.lock_latency_histogram().count(), profiled, "{case}");
                    // Debug mode reports re-entry through a try as well.
                    if mode == GlsMode::Debug {
                        let err = svc.try_read_lock(addr).unwrap_err();
                        assert_eq!(err.category(), "double-lock", "{case}");
                        svc.clear_issues();
                    }
                    // Shared acquisitions are never stamped, so only an
                    // exclusive profiled section is timed.
                    svc.release(entry, hold, None).unwrap();
                    assert_eq!(
                        entry.cs_latency_histogram().count(),
                        if hold == Hold::Exclusive { profiled } else { 0 },
                        "{case}"
                    );
                    assert_eq!(svc.try_write_lock(addr), Ok(true), "{case}: released");
                    svc.write_unlock(addr).unwrap();
                }
            }
        }
    }

    #[test]
    fn read_unlock_of_a_non_rw_entry_releases_the_degraded_hold() {
        for mode in MODES {
            let svc = GlsService::with_config(GlsConfig::default().with_mode(mode));
            svc.lock_with(LockKind::Ticket, 0x71C0).unwrap();
            // Taken through the exclusive interface, released as shared.
            svc.read_unlock(0x71C0).unwrap();
            // Taken as shared, which a ticket lock serves exclusively.
            svc.read_lock(0x71C0).unwrap();
            assert_eq!(svc.algorithm_of(0x71C0), Some(LockKind::Ticket));
            std::thread::scope(|s| {
                s.spawn(|| assert_eq!(svc.try_read_lock(0x71C0), Ok(false), "{mode:?}"));
            });
            svc.read_unlock(0x71C0).unwrap();
            assert_eq!(svc.try_lock(0x71C0), Ok(true), "{mode:?}");
            svc.unlock(0x71C0).unwrap();
            // Debug mode flags the mixed interfaces and nothing else.
            assert!(
                svc.issues()
                    .iter()
                    .all(|i| i.category() == "algorithm-mismatch"),
                "{:?}",
                svc.issues()
            );
        }
    }

    #[test]
    fn unlock_with_records_the_algorithm_mismatch_and_releases() {
        let svc = GlsService::with_config(GlsConfig::debug());
        svc.lock_with(LockKind::Ticket, 0x77).unwrap();
        svc.unlock_with(LockKind::Mcs, 0x77).unwrap();
        match svc.issues().as_slice() {
            [GlsError::AlgorithmMismatch {
                addr: 0x77,
                created: LockKind::Ticket,
                requested: LockKind::Mcs,
            }] => {}
            issues => panic!("expected one algorithm mismatch, got {issues:?}"),
        }
        // A try checks no algorithm.
        assert_eq!(svc.try_lock_with(LockKind::Mcs, 0x77), Ok(true));
        svc.unlock(0x77).unwrap();
        assert_eq!(svc.issues().len(), 1);
    }

    /// Acquires a guard through `acquire` and panics with it alive; returns
    /// once the panic has unwound (`resume_unwind` skips the panic hook's
    /// noise).
    fn panic_while_holding<G>(acquire: impl FnOnce() -> G) {
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = acquire();
            std::panic::resume_unwind(Box::new("inside the critical section"));
        }));
        assert!(unwound.is_err());
    }

    #[test]
    fn a_panic_in_a_guarded_section_releases_the_lock() {
        for mode in MODES {
            let svc = GlsService::with_config(GlsConfig::default().with_mode(mode));
            for (i, kind) in LockKind::ALL.into_iter().enumerate() {
                let addr = 0x9A00 + i * 8;
                // Created through the explicit interface and held by the
                // default guard; then the explicit guard itself.
                svc.lock_with(kind, addr).unwrap();
                svc.unlock_with(kind, addr).unwrap();
                assert_eq!(svc.algorithm_of(addr), Some(kind));
                for explicit in [false, true] {
                    panic_while_holding(|| match explicit {
                        false => svc.guard(addr).unwrap(),
                        true => svc.guard_with(kind, addr).unwrap(),
                    });
                    assert_eq!(svc.try_lock(addr), Ok(true), "{mode:?}/{kind}: released");
                    svc.unlock(addr).unwrap();
                }
            }
            let table = [0u64; 2];
            panic_while_holding(|| svc.read_guard(&table).unwrap());
            assert_eq!(
                svc.try_write_lock(&table),
                Ok(true),
                "{mode:?}: read released"
            );
            svc.write_unlock(&table).unwrap();
            panic_while_holding(|| svc.write_guard(&table).unwrap());
            assert_eq!(
                svc.try_read_lock(&table),
                Ok(true),
                "{mode:?}: write released"
            );
            svc.read_unlock(&table).unwrap();
        }
    }

    #[test]
    fn guard_reports_the_address_it_holds() {
        let svc = GlsService::new();
        let data = [0u8; 3];
        let held = svc.read_guard(&data).unwrap();
        assert_eq!(held.addr(), data.as_ptr() as usize);
        assert_eq!(svc.guard(17usize).unwrap().addr(), 17);
        // Carrying the entry must not cost the guard its thread-safety.
        fn sendable<T: Send + Sync>(_: &T) {}
        sendable(&held);
    }

    #[test]
    fn explicit_interface_creates_requested_algorithm() {
        let svc = GlsService::new();
        svc.lock_with(LockKind::Mcs, 0x10).unwrap();
        svc.unlock_with(LockKind::Mcs, 0x10).unwrap();
        assert_eq!(svc.algorithm_of(0x10), Some(LockKind::Mcs));
        svc.lock_with(LockKind::Ticket, 0x20).unwrap();
        svc.unlock_with(LockKind::Ticket, 0x20).unwrap();
        assert_eq!(svc.algorithm_of(0x20), Some(LockKind::Ticket));
        // The default interface creates GLK entries.
        svc.lock(0x30).unwrap();
        svc.unlock(0x30).unwrap();
        assert_eq!(svc.algorithm_of(0x30), Some(LockKind::Glk));
    }

    #[test]
    fn free_removes_lock_object() {
        let svc = GlsService::new();
        svc.lock(0x40).unwrap();
        svc.unlock(0x40).unwrap();
        assert_eq!(svc.lock_count(), 1);
        assert!(svc.free(0x40));
        assert!(!svc.free(0x40));
        assert_eq!(svc.lock_count(), 0);
        // The address can be re-created afterwards.
        svc.lock(0x40).unwrap();
        svc.unlock(0x40).unwrap();
        assert_eq!(svc.lock_count(), 1);
    }

    #[test]
    fn many_threads_many_locks_mutual_exclusion() {
        let svc = Arc::new(GlsService::new());
        let slots: Arc<Vec<std::sync::atomic::AtomicU64>> = Arc::new(
            (0..16)
                .map(|_| std::sync::atomic::AtomicU64::new(0))
                .collect(),
        );
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let svc = Arc::clone(&svc);
                let slots = Arc::clone(&slots);
                std::thread::spawn(move || {
                    for i in 0..5_000usize {
                        let slot = (t * 31 + i) % slots.len();
                        let addr = 0x1000 + slot;
                        svc.lock(addr).unwrap();
                        // Read-modify-write that would lose updates without
                        // mutual exclusion per address.
                        let v = slots[slot].load(Ordering::Relaxed);
                        slots[slot].store(v + 1, Ordering::Relaxed);
                        svc.unlock(addr).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = slots.iter().map(|s| s.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 8 * 5_000);
        assert_eq!(svc.lock_count(), 16);
    }

    #[test]
    fn debug_mode_detects_double_lock_and_release_free() {
        let svc = GlsService::with_config(GlsConfig::debug());
        let obj = 1u8;
        svc.lock(&obj).unwrap();
        let err = svc.lock(&obj).unwrap_err();
        assert_eq!(err.category(), "double-lock");
        svc.unlock(&obj).unwrap();
        let err = svc.unlock(&obj).unwrap_err();
        assert_eq!(err.category(), "release-free-lock");
        let categories: Vec<_> = svc.issues().iter().map(|i| i.category()).collect();
        assert!(categories.contains(&"double-lock"));
        assert!(categories.contains(&"release-free-lock"));
    }

    #[test]
    fn debug_mode_detects_wrong_owner() {
        let svc = Arc::new(GlsService::with_config(GlsConfig::debug()));
        svc.lock(0x99).unwrap();
        let svc2 = Arc::clone(&svc);
        let err = std::thread::spawn(move || svc2.unlock(0x99).unwrap_err())
            .join()
            .unwrap();
        assert_eq!(err.category(), "wrong-owner");
        // The holder is named, found in its own thread's record.
        match err {
            GlsError::WrongOwner { owner, .. } => assert_eq!(owner, ThreadId::current()),
            other => panic!("expected a wrong-owner report, got {other:?}"),
        }
        svc.unlock(0x99).unwrap();
    }

    #[test]
    fn debug_mode_records_algorithm_mismatch() {
        let svc = GlsService::with_config(GlsConfig::debug());
        svc.lock_with(LockKind::Ticket, 0x77).unwrap();
        svc.unlock_with(LockKind::Ticket, 0x77).unwrap();
        svc.lock_with(LockKind::Mcs, 0x77).unwrap();
        svc.unlock_with(LockKind::Mcs, 0x77).unwrap();
        assert!(svc
            .issues()
            .iter()
            .any(|i| i.category() == "algorithm-mismatch"));
    }

    #[test]
    fn profile_mode_collects_latencies() {
        let svc = GlsService::with_config(GlsConfig::profile());
        for i in 0..100 {
            svc.lock(0x200 + (i % 4)).unwrap();
            gls_runtime::spin_cycles(200);
            svc.unlock(0x200 + (i % 4)).unwrap();
        }
        let locks = svc.telemetry_snapshot().locks;
        assert_eq!(locks.len(), 4);
        for lock in &locks {
            assert!(lock.acquisitions >= 25);
            assert!(lock.cs_latency.mean > 0.0, "cs latency should be recorded");
        }
        assert!(
            locks.windows(2).all(|w| w[0].avg_queue >= w[1].avg_queue),
            "most contended first"
        );
    }

    #[test]
    fn glk_transitions_surface_through_service() {
        let config = GlsConfig::default().with_glk(
            GlkConfig::default()
                .with_adaptation_period(128)
                .with_sampling_period(8),
        );
        let svc = Arc::new(GlsService::with_config(config));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        svc.lock(0xabc).unwrap();
                        gls_runtime::spin_cycles(400);
                        svc.unlock(0xabc).unwrap();
                    }
                })
            })
            .collect();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while svc.telemetry_snapshot().glk_transitions == 0 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        let snapshot = svc.telemetry_snapshot();
        assert!(
            snapshot.glk_transitions > 0,
            "contended GLK lock should have adapted at least once"
        );
        // The total is the sum of the one lock's own count.
        assert_eq!(snapshot.locks[0].transitions, snapshot.glk_transitions);
    }

    #[test]
    fn rw_interface_roundtrip_and_sharing() {
        let svc = GlsService::new();
        let data = [0u64; 4];
        svc.read_lock(&data).unwrap();
        svc.read_lock(&data).unwrap();
        assert!(
            !svc.try_write_lock(&data).unwrap(),
            "readers exclude writers"
        );
        assert!(svc.try_read_lock(&data).unwrap(), "readers share");
        svc.read_unlock(&data).unwrap();
        svc.read_unlock(&data).unwrap();
        svc.read_unlock(&data).unwrap();
        svc.write_lock(&data).unwrap();
        assert!(
            !svc.try_read_lock(&data).unwrap(),
            "writer excludes readers"
        );
        svc.write_unlock(&data).unwrap();
        assert_eq!(svc.algorithm_of(&data), Some(LockKind::FutexRw));
    }

    #[test]
    fn rw_guards_release_on_drop() {
        let svc = GlsService::new();
        {
            let _r1 = svc.read_guard(0x500).unwrap();
            let _r2 = svc.read_guard(0x500).unwrap();
            assert!(!svc.try_write_lock(0x500).unwrap());
        }
        {
            let _w = svc.write_guard(0x500).unwrap();
            assert!(!svc.try_read_lock(0x500).unwrap());
        }
        assert!(svc.try_write_lock(0x500).unwrap());
        svc.write_unlock(0x500).unwrap();
    }

    #[test]
    fn rw_read_unlock_of_unknown_address_reports_uninitialized() {
        let svc = GlsService::new();
        let err = svc.read_unlock(0x7777).unwrap_err();
        assert_eq!(err.category(), "uninitialized-lock");
    }

    #[test]
    fn profile_mode_reports_rw_entries() {
        let svc = GlsService::with_config(GlsConfig::profile());
        for _ in 0..50 {
            svc.read_lock(0x600).unwrap();
            svc.read_unlock(0x600).unwrap();
        }
        for _ in 0..10 {
            svc.write_lock(0x600).unwrap();
            gls_runtime::spin_cycles(200);
            svc.write_unlock(0x600).unwrap();
        }
        let snapshot = svc.telemetry_snapshot();
        let rw = snapshot
            .locks
            .iter()
            .find(|l| l.addr == 0x600)
            .expect("rw entry must appear in the snapshot");
        assert_eq!(rw.algorithm, LockKind::FutexRw);
        assert_eq!(rw.acquisitions, 60);
        assert!(rw.cs_latency.mean > 0.0, "write sections are timed");
    }

    #[test]
    fn debug_mode_detects_rw_misuse() {
        let svc = GlsService::with_config(GlsConfig::debug());
        svc.read_lock(0x700).unwrap();
        // Recursive read is flagged: rw entries are writer-preferring, so a
        // second read hold can self-deadlock behind a waiting writer.
        let err = svc.read_lock(0x700).unwrap_err();
        assert_eq!(err.category(), "double-lock");
        svc.read_unlock(0x700).unwrap();
        // Releasing shared access nobody holds.
        let err = svc.read_unlock(0x700).unwrap_err();
        assert_eq!(err.category(), "release-free-lock");
        // A thread that holds nothing cannot release another's read hold.
        let svc = Arc::new(svc);
        svc.read_lock(0x700).unwrap();
        let svc2 = Arc::clone(&svc);
        let err = std::thread::spawn(move || svc2.read_unlock(0x700).unwrap_err())
            .join()
            .unwrap();
        assert_eq!(err.category(), "wrong-owner");
        svc.read_unlock(0x700).unwrap();
    }

    #[test]
    fn debug_mode_tracks_shared_holders_concurrently() {
        let svc = Arc::new(GlsService::with_config(GlsConfig::debug()));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        svc.read_lock(0x800).unwrap();
                        svc.read_unlock(0x800).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            svc.issues().is_empty(),
            "well-formed shared locking must record no issues: {:?}",
            svc.issues()
        );
    }

    #[test]
    fn repeated_lock_free_cycles_keep_retired_list_bounded() {
        let svc = GlsService::new();
        // Churn over a 7-address working set: every free leaves its entry
        // resident as a tombstone and every re-create resurrects that
        // tombstone, so at most one freed entry per address is resident,
        // never one per free.
        for round in 0..1_000usize {
            let addr = 0x9000 + (round % 7) * 8;
            svc.lock(addr).unwrap();
            svc.unlock(addr).unwrap();
            assert!(svc.free(addr));
            assert!(
                svc.retired_count() <= 7,
                "lock/free churn must resurrect entries, found {} retired after round {round}",
                svc.retired_count()
            );
        }
        assert_eq!(svc.lock_count(), 0);
        // Re-creating the working set resurrects every tombstone.
        for slot in 0..7usize {
            svc.lock(0x9000 + slot * 8).unwrap();
            svc.unlock(0x9000 + slot * 8).unwrap();
        }
        assert_eq!(svc.retired_count(), 0, "all freed entries resurrected");
        assert_eq!(svc.lock_count(), 7);
    }

    #[test]
    fn racing_free_never_strands_a_release() {
        // Stress of the free path: lockers hammer one address while a freer
        // continuously free()s it. Every release must land — a freed entry
        // stays mapped, so there is no window in which a holder's release
        // can miss it — and the address keeps one allocation, so mutual
        // exclusion holds across free/resurrect cycles (asserted by the
        // non-atomic counter). No sleeps anywhere on the release path.
        struct Shared(std::cell::UnsafeCell<u64>);
        // SAFETY: the cell is only touched while holding the lock under
        // test; that exclusion is exactly what the test verifies.
        unsafe impl Sync for Shared {}
        let svc = Arc::new(GlsService::new());
        let shared = Arc::new(Shared(std::cell::UnsafeCell::new(0)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // The lockers alone are done within a few scheduler ticks: halfway
        // through they wait until the freer has got a free in.
        let freed_once = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let freer = {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            let freed_once = Arc::clone(&freed_once);
            std::thread::spawn(move || {
                let mut frees = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if svc.free(0xF5EE) {
                        frees += 1;
                        freed_once.store(true, Ordering::Relaxed);
                    }
                    // Four threads spin here on what may be two contexts:
                    // give the lockers the turn the ticket order needs.
                    std::thread::yield_now();
                }
                frees
            })
        };
        let lockers: Vec<_> = (0..3)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let shared = Arc::clone(&shared);
                let freed_once = Arc::clone(&freed_once);
                std::thread::spawn(move || {
                    for i in 0..20_000 {
                        while i == 10_000 && !freed_once.load(Ordering::Relaxed) {
                            std::thread::yield_now();
                        }
                        svc.lock(0xF5EE).unwrap();
                        // SAFETY: written while holding the lock under test.
                        unsafe { *shared.0.get() += 1 };
                        svc.unlock(0xF5EE)
                            .expect("a racing free must never strand a holder's release");
                    }
                })
            })
            .collect();
        for h in lockers {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let frees = freer.join().unwrap();
        assert!(frees > 0, "the freer must have raced at least once");
        // SAFETY: all worker threads are joined; nothing races this read.
        assert_eq!(unsafe { *shared.0.get() }, 60_000);
        assert!(
            svc.retired_count() <= 1,
            "churn on one address keeps at most its one allocation resident \
             (found {})",
            svc.retired_count()
        );
    }

    /// Two whole sweep passes: every untouched idle tombstone is reclaimed.
    fn sweep_twice(svc: &GlsService) {
        for _ in 0..2 {
            svc.sweep(0, usize::MAX, true);
        }
    }

    #[test]
    fn freed_entry_stays_mapped_until_swept() {
        // White-box: after free() returns, the address reads as gone but
        // its entry is still mapped, so a release reaches it; a re-create
        // resurrects that allocation; the sweep is what unmaps it.
        let svc = GlsService::new();
        svc.lock(0xAB1E).unwrap();
        svc.unlock(0xAB1E).unwrap();
        let live = svc.find_entry(0xAB1E).unwrap() as *const LockEntry;
        assert!(svc.free(0xAB1E));
        assert!(svc.find_entry(0xAB1E).is_none(), "reads as freed");
        assert_eq!((svc.lock_count(), svc.retired_count()), (0, 1));
        let tombstone = svc.mapped_entry(0xAB1E).expect("still mapped") as *const LockEntry;
        assert_eq!(live, tombstone, "the tombstone is the same allocation");
        svc.lock(0xAB1E).unwrap(); // resurrects
        assert_eq!(
            svc.find_entry(0xAB1E).map(|e| e as *const LockEntry),
            Some(live),
            "resurrection reuses the allocation"
        );
        assert_eq!((svc.lock_count(), svc.retired_count()), (1, 0));
        // Freed while held: the release still lands, and the sweep leaves
        // the held tombstone alone however often it passes.
        assert!(svc.free(0xAB1E));
        sweep_twice(&svc);
        sweep_twice(&svc);
        assert_eq!(
            svc.mapped_entry(0xAB1E).map(|e| e as *const LockEntry),
            Some(live)
        );
        svc.unlock(0xAB1E).unwrap();
        // Idle now: two passes unmap it and pool the allocation.
        sweep_twice(&svc);
        assert!(svc.mapped_entry(0xAB1E).is_none());
        assert_eq!((svc.lock_count(), svc.retired_count()), (0, 1));
        assert_eq!(
            svc.unlock(0xAB1E).unwrap_err().category(),
            "uninitialized-lock"
        );
        // The next create of that kind takes it from the pool.
        svc.lock(0xCAFE).unwrap();
        svc.unlock(0xCAFE).unwrap();
        assert_eq!(
            svc.find_entry(0xCAFE).map(|e| e as *const LockEntry),
            Some(live)
        );
        assert_eq!(svc.retired_count(), 0);
    }

    #[test]
    fn freed_address_resurrects_with_its_original_algorithm() {
        // Until the sweep reclaims it, a freed address keeps its entry, so
        // the algorithm chosen at first creation survives a free/re-create
        // cycle (first creation wins, as with put_if_absent generally).
        let svc = GlsService::new();
        svc.lock_with(LockKind::Mcs, 0xA000).unwrap();
        svc.unlock_with(LockKind::Mcs, 0xA000).unwrap();
        assert!(svc.free(0xA000));
        assert_eq!(svc.retired_count(), 1);
        assert_eq!(
            svc.algorithm_of(0xA000),
            None,
            "freed addresses read as gone"
        );
        svc.lock(0xA000).unwrap();
        svc.unlock(0xA000).unwrap();
        assert_eq!(svc.algorithm_of(0xA000), Some(LockKind::Mcs));
        assert_eq!(svc.retired_count(), 0, "the tombstone was resurrected");
        // Once swept, the address is created afresh with the kind asked
        // for, and never from a pooled entry of another kind.
        assert!(svc.free(0xA000));
        sweep_twice(&svc);
        assert_eq!(svc.retired_count(), 1, "the MCS entry is pooled");
        svc.lock(0xA000).unwrap();
        svc.unlock(0xA000).unwrap();
        assert_eq!(svc.algorithm_of(0xA000), Some(LockKind::Glk));
        svc.lock_with(LockKind::Ticket, 0xA008).unwrap();
        svc.unlock_with(LockKind::Ticket, 0xA008).unwrap();
        assert_eq!(svc.algorithm_of(0xA008), Some(LockKind::Ticket));
        assert_eq!(svc.retired_count(), 1, "the pooled MCS entry was not taken");
        svc.lock_with(LockKind::Mcs, 0xA010).unwrap();
        svc.unlock_with(LockKind::Mcs, 0xA010).unwrap();
        assert_eq!(svc.retired_count(), 0, "an MCS create takes it");
    }

    #[test]
    fn recycled_entry_starts_with_clean_telemetry() {
        let svc = GlsService::with_config(GlsConfig::profile());
        for _ in 0..10 {
            svc.lock(0xB000).unwrap();
            gls_runtime::spin_cycles(200);
            svc.unlock(0xB000).unwrap();
        }
        let old = svc.find_entry(0xB000).unwrap() as *const LockEntry;
        assert!(svc.free(0xB000));
        // A freed address is absent from every report.
        assert!(svc.telemetry_snapshot().locks.is_empty());
        assert_eq!(svc.telemetry_snapshot().glk_transitions, 0);
        assert_eq!(svc.table_stats().elements, 0);
        sweep_twice(&svc);
        svc.lock(0xB100).unwrap();
        assert_eq!(
            svc.find_entry(0xB100).map(|e| e as *const LockEntry),
            Some(old),
            "the new address got the recycled entry"
        );
        let snapshot = svc.telemetry_snapshot();
        let [lock] = snapshot.locks.as_slice() else {
            panic!("one live lock, got {:?}", snapshot.locks);
        };
        assert_eq!((lock.addr, lock.acquisitions), (0xB100, 1));
        assert_eq!(lock.cs_latency.mean, 0.0, "no section of 0xB000 leaks in");
        assert_eq!(lock.cs_latency.count, 0);
        assert_eq!(lock.transitions, 0);
        svc.unlock(0xB100).unwrap();
        // GLK's own count, read off the ticket word, was rebased too: the
        // ten holds of 0xB000 and the sweep's idle proof are gone.
        let glk = svc
            .find_entry(0xB100)
            .and_then(|e| e.lock.as_glk())
            .unwrap();
        assert_eq!(glk.acquisitions(), 1);
        for _ in 0..4 {
            svc.lock(0xB100).unwrap();
            svc.unlock(0xB100).unwrap();
        }
        assert_eq!(glk.acquisitions(), 5);
    }

    #[test]
    fn free_of_a_held_lock_keeps_excluding() {
        // free() while another thread holds the lock: the holder's unlock
        // is Ok, a concurrent lock() of the same address waits for it, and
        // the sweep never recycles the entry from under the holder.
        let svc = Arc::new(GlsService::new());
        let addr = 0xD00D;
        // Relaxed is enough: the lock under test orders the accesses, and
        // that is the claim.
        let in_section = Arc::new(std::sync::atomic::AtomicBool::new(false));
        svc.lock(addr).unwrap();
        in_section.store(true, Ordering::Relaxed);
        assert!(svc.free(addr));
        let contender = {
            let (svc, in_section) = (Arc::clone(&svc), Arc::clone(&in_section));
            std::thread::spawn(move || {
                svc.lock(addr).unwrap();
                let overlapped = in_section.load(Ordering::Relaxed);
                svc.unlock(addr).unwrap();
                overlapped
            })
        };
        // Let the contender resurrect the entry and queue behind us, then
        // free again and sweep while it waits.
        while svc.lock_count() == 0 {
            std::thread::yield_now();
        }
        assert!(svc.free(addr));
        sweep_twice(&svc);
        sweep_twice(&svc);
        assert!(svc.mapped_entry(addr).is_some(), "held: never recycled");
        in_section.store(false, Ordering::Relaxed);
        svc.unlock(addr).expect("the holder's release lands");
        assert!(!contender.join().unwrap(), "the contender overlapped us");
    }

    #[test]
    fn notify_one_requeues_onto_a_held_futex_mutex() {
        use gls_locks::ParkingLot;
        let svc = Arc::new(GlsService::new());
        let cv = Arc::new(GlsCondvar::new());
        let addr = 0xC0DE;
        // Create a MUTEX entry (always exposes a park address).
        svc.lock_with(LockKind::Mutex, addr).unwrap();
        svc.unlock_with(LockKind::Mutex, addr).unwrap();
        let waiter = {
            let (svc, cv) = (Arc::clone(&svc), Arc::clone(&cv));
            std::thread::spawn(move || {
                svc.lock(addr).unwrap();
                svc.wait(&cv, addr).unwrap();
                svc.unlock(addr).unwrap();
            })
        };
        while cv.waiters() == 0 {
            std::thread::yield_now();
        }
        // Hold the mutex, then notify: the waiter must be requeued onto
        // the mutex's park address instead of waking into a block.
        svc.lock(addr).unwrap();
        let mutex_park = svc
            .find_entry(addr)
            .unwrap()
            .park_addr()
            .expect("MUTEX entries expose a park address");
        assert!(svc.notify_one(&cv, addr));
        assert_eq!(
            ParkingLot::global().parked_count(mutex_park),
            1,
            "the waiter sleeps under the mutex address now"
        );
        assert_eq!(cv.waiters(), 1, "requeued, still inside its wait");
        // The mutex release is what wakes it.
        svc.unlock(addr).unwrap();
        waiter.join().unwrap();
        assert_eq!(cv.waiters(), 0);
        assert_eq!(ParkingLot::global().parked_count(mutex_park), 0);
    }

    #[test]
    fn notify_falls_back_to_plain_wake_without_a_park_address() {
        // A fresh GLK entry spins (ticket mode): no park address, so the
        // service notify degrades to the ordinary wake path.
        let svc = Arc::new(GlsService::new());
        let cv = Arc::new(GlsCondvar::new());
        let addr = 0xFA11;
        svc.lock(addr).unwrap();
        svc.unlock(addr).unwrap();
        assert_eq!(svc.find_entry(addr).unwrap().park_addr(), None);
        let waiter = {
            let (svc, cv) = (Arc::clone(&svc), Arc::clone(&cv));
            std::thread::spawn(move || {
                svc.lock(addr).unwrap();
                svc.wait(&cv, addr).unwrap();
                svc.unlock(addr).unwrap();
            })
        };
        while cv.waiters() == 0 {
            std::thread::yield_now();
        }
        assert!(svc.notify_one(&cv, addr));
        waiter.join().unwrap();
        assert_eq!(cv.waiters(), 0);
        // Notifying with nobody waiting reports so.
        assert!(!svc.notify_one(&cv, addr));
        assert_eq!(svc.notify_all(&cv, addr), 0);
    }

    #[test]
    fn notify_all_morphs_the_broadcast_onto_the_mutex() {
        use crate::glk::GlkMode;
        use gls_locks::ParkingLot;
        // A MUTEX entry, and a default-kind GLK entry held in mutex mode:
        // both sleep on a futex word, so both take the broadcast onto it.
        let mutex = GlsService::new();
        mutex.lock_with(LockKind::Mutex, 0xB0CA).unwrap();
        mutex.unlock_with(LockKind::Mutex, 0xB0CA).unwrap();
        let glk = GlsService::with_config(
            GlsConfig::default().with_glk(
                GlkConfig::default()
                    .with_initial_mode(GlkMode::Mutex)
                    .without_adaptation(),
            ),
        );
        for (svc, addr) in [(mutex, 0xB0CA), (glk, 0xB0CB)] {
            let svc = Arc::new(svc);
            let cv = Arc::new(GlsCondvar::new());
            let waiters: Vec<_> = (0..4)
                .map(|_| {
                    let (svc, cv) = (Arc::clone(&svc), Arc::clone(&cv));
                    std::thread::spawn(move || {
                        svc.lock(addr).unwrap();
                        svc.wait(&cv, addr).unwrap();
                        svc.unlock(addr).unwrap();
                    })
                })
                .collect();
            while cv.waiters() < 4 {
                std::thread::yield_now();
            }
            svc.lock(addr).unwrap();
            let entry = svc.find_entry(addr).unwrap();
            let mutex_park = entry.park_addr().expect("the entry sleeps on a word");
            assert_eq!(svc.notify_all(&cv, addr), 4, "{:?}", entry.lock.kind());
            // Held mutex: the whole broadcast morphs onto the mutex queue;
            // no thundering herd re-contends while we still hold it.
            assert_eq!(ParkingLot::global().parked_count(mutex_park), 4);
            svc.unlock(addr).unwrap();
            for w in waiters {
                w.join().unwrap();
            }
            assert_eq!(cv.waiters(), 0);
            assert_eq!(ParkingLot::global().parked_count(mutex_park), 0);
        }
    }

    #[test]
    fn table_stats_reflect_lock_count() {
        let svc = GlsService::new();
        for i in 1..=50 {
            svc.lock(i * 8).unwrap();
            svc.unlock(i * 8).unwrap();
        }
        let stats = svc.table_stats();
        assert_eq!(stats.elements, 50);
        assert_eq!(svc.lock_count(), 50);
    }
}
