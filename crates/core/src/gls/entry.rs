//! The per-address lock object stored in the GLS hash table.

use gls_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use gls_locks::{
    FutexLock, FutexRwLock, LockKind, McsLock, QueueInformed, RawLock, RawRwLock, RawTryLock,
    TicketLock,
};

use super::shards::{ProfileShards, ProfileTotals};
use crate::glk::{GlkConfig, GlkLock, MonitorHandle};

/// How an acquisition holds its entry. Entries that are not reader-writer
/// locks serve [`Hold::Shared`] as an exclusive hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hold {
    /// `lock` / `write_lock`.
    Exclusive,
    /// `read_lock`.
    Shared,
}

/// Whether an acquisition waits for a taken lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    /// `lock`: returns holding.
    Block,
    /// `try_lock`: gives up at once.
    Try,
}

/// The concrete lock implementation behind a GLS entry.
///
/// `gls_lock` (the default interface) creates [`AlgorithmLock::Glk`] entries,
/// the reader-writer interface [`AlgorithmLock::FutexRw`] entries; the
/// explicit `gls_A_lock` interfaces (`lock_with`) create TICKET, MCS or
/// MUTEX entries, the three strategies the paper's figures compare.
// One entry exists per distinct lock address and lives for the lock's whole
// lifetime, so the GLK variant's size is not worth an extra indirection on
// the acquisition fast path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum AlgorithmLock {
    /// Adaptive GLK lock (default).
    Glk(GlkLock),
    /// Ticket spinlock.
    Ticket(TicketLock),
    /// MCS queue lock.
    Mcs(McsLock),
    /// Word-sized blocking mutex parked on the shared parking lot.
    Mutex(FutexLock),
    /// Word-sized blocking reader-writer lock parked on the shared parking
    /// lot (the entry kind behind the rw interface; exclusive
    /// `lock`/`unlock` calls acquire write access).
    FutexRw(FutexRwLock),
}

impl AlgorithmLock {
    pub(crate) fn new(kind: LockKind, glk_config: &GlkConfig, monitor: &MonitorHandle) -> Self {
        match kind {
            LockKind::Glk => AlgorithmLock::Glk(GlkLock::with_config_and_monitor(
                glk_config.clone(),
                monitor.clone(),
            )),
            LockKind::Ticket => AlgorithmLock::Ticket(TicketLock::new()),
            LockKind::Mcs => AlgorithmLock::Mcs(McsLock::new()),
            LockKind::Mutex => AlgorithmLock::Mutex(FutexLock::new()),
            LockKind::FutexRw => AlgorithmLock::FutexRw(FutexRwLock::new()),
        }
    }

    pub(crate) fn kind(&self) -> LockKind {
        match self {
            AlgorithmLock::Glk(_) => LockKind::Glk,
            AlgorithmLock::Ticket(_) => LockKind::Ticket,
            AlgorithmLock::Mcs(_) => LockKind::Mcs,
            AlgorithmLock::Mutex(_) => LockKind::Mutex,
            AlgorithmLock::FutexRw(_) => LockKind::FutexRw,
        }
    }

    pub(crate) fn lock(&self) {
        match self {
            AlgorithmLock::Glk(l) => l.lock(),
            AlgorithmLock::Ticket(l) => l.lock(),
            AlgorithmLock::Mcs(l) => l.lock(),
            AlgorithmLock::Mutex(l) => l.lock(),
            AlgorithmLock::FutexRw(l) => l.lock(),
        }
    }

    pub(crate) fn try_lock(&self) -> bool {
        match self {
            AlgorithmLock::Glk(l) => l.try_lock(),
            AlgorithmLock::Ticket(l) => l.try_lock(),
            AlgorithmLock::Mcs(l) => l.try_lock(),
            AlgorithmLock::Mutex(l) => l.try_lock(),
            AlgorithmLock::FutexRw(l) => l.try_lock(),
        }
    }

    pub(crate) fn unlock(&self) {
        match self {
            AlgorithmLock::Glk(l) => l.unlock(),
            AlgorithmLock::Ticket(l) => l.unlock(),
            AlgorithmLock::Mcs(l) => l.unlock(),
            AlgorithmLock::Mutex(l) => l.unlock(),
            AlgorithmLock::FutexRw(l) => l.unlock(),
        }
    }

    /// The one acquisition call the service makes; `false` only for a
    /// [`Wait::Try`] that found the lock taken. Entries that are not
    /// reader-writer locks degrade a shared hold to an exclusive one —
    /// safe, merely pessimistic.
    #[inline]
    pub(crate) fn acquire(&self, hold: Hold, wait: Wait) -> bool {
        match (self, hold, wait) {
            (AlgorithmLock::FutexRw(l), Hold::Shared, Wait::Block) => l.read_lock(),
            (AlgorithmLock::FutexRw(l), Hold::Shared, Wait::Try) => return l.try_read_lock(),
            (_, _, Wait::Block) => self.lock(),
            (_, _, Wait::Try) => return self.try_lock(),
        }
        true
    }

    /// Releases what [`Self::acquire`] took.
    #[inline]
    pub(crate) fn release(&self, hold: Hold) {
        match (self, hold) {
            (AlgorithmLock::FutexRw(l), Hold::Shared) => l.read_unlock(),
            _ => self.unlock(),
        }
    }

    /// Whether this entry is a reader-writer lock (shared holders possible).
    pub(crate) fn is_rw(&self) -> bool {
        matches!(self, AlgorithmLock::FutexRw(_))
    }

    pub(crate) fn queue_length(&self) -> u64 {
        match self {
            AlgorithmLock::Glk(l) => l.queue_length(),
            AlgorithmLock::Ticket(l) => l.queue_length(),
            AlgorithmLock::Mcs(l) => l.queue_length(),
            AlgorithmLock::Mutex(l) => l.queue_length(),
            AlgorithmLock::FutexRw(l) => l.queue_length(),
        }
    }

    /// Number of mode transitions this entry's adaptive lock performed
    /// (0 for non-adaptive algorithms, which never transition).
    pub(crate) fn transition_count(&self) -> u64 {
        self.as_glk().map_or(0, |l| l.stats().transitions())
    }

    /// Access to the underlying GLK lock for entries created by the default
    /// interface (used by the transition count and tests).
    pub(crate) fn as_glk(&self) -> Option<&GlkLock> {
        match self {
            AlgorithmLock::Glk(l) => Some(l),
            _ => None,
        }
    }

    /// The parking-lot address this lock's blocking waiters sleep under,
    /// when the lock currently blocks through the shared parking lot:
    /// always for MUTEX entries, for GLK entries while they are in mutex
    /// mode, `None` otherwise (spinning GLK, the other algorithms, and the
    /// rw entries, whose words take no requeued waiters). Condvar
    /// requeue-on-notify moves waiters onto this address instead of waking
    /// them into a block on the mutex; a `None` falls back to plain wakeup.
    pub(crate) fn park_addr(&self) -> Option<usize> {
        match self {
            AlgorithmLock::Mutex(l) => Some(l.park_addr()),
            AlgorithmLock::Glk(l) => l.blocking_park_addr(),
            _ => None,
        }
    }

    /// Forgets what a GLK lock recorded for the address it served
    /// (its statistics) before the entry is recycled. The mode
    /// itself is kept: the next address re-adapts it like any other lock.
    fn reset_telemetry(&self) {
        if let Some(l) = self.as_glk() {
            l.reset_telemetry();
        }
    }
}

/// Lifecycle state of a [`LockEntry`], kept in the low bits of its epoch
/// word; the bits above count transitions, so **every** transition makes
/// the word strictly larger and a value a thread once read can never come
/// back. `free` takes LIVE to RETIRED; a sweep pass takes
/// RETIRED to AGED and AGED to CLAIMED; a `lock` takes either kind of
/// tombstone back to LIVE; a claimed entry goes back to RETIRED (somebody
/// holds it) or into the pool, and from there to LIVE for its next address.
mod state {
    pub(super) const MASK: u64 = 3;
    /// Mapped in the table and serving its address.
    pub(super) const LIVE: u64 = 0;
    /// Freed, still mapped (a tombstone), touched since the last sweep pass.
    pub(super) const RETIRED: u64 = 1;
    /// A tombstone one sweep pass found untouched; the next pass claims it.
    pub(super) const AGED: u64 = 2;
    /// Owned by the sweeper (being proven idle) or parked in the pool.
    pub(super) const CLAIMED: u64 = 3;
}

/// What [`LockEntry::make_live`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Liveness {
    /// The entry is live for the address (possibly resurrected by this
    /// call from a tombstone of it).
    Live,
    /// The sweeper holds the entry; it will either put it back as a
    /// tombstone or unmap it, shortly.
    Claimed,
    /// The entry no longer belongs to the address (it was recycled).
    Recycled,
}

/// A lock object plus the metadata GLS keeps about it (latency/queuing
/// statistics for the profiler, an acquisition count for the debug mode).
// repr(C): the declaration order is the layout. `addr`, `epoch` and
// `acquired_at` share the entry's first cacheline; `lock` starts on the
// second (GLK's lines are 64-byte aligned), so a cached hit's liveness
// validation and the identity check after an acquisition read a line of
// their own. Every arrival shares that line read-only; only free, sweep,
// recycle and profile-mode stamps write it.
#[repr(C)]
#[derive(Debug)]
pub(crate) struct LockEntry {
    /// The address this entry currently serves; 0 while it sits in the
    /// pool. Entry memory is type-stable (recycled for other addresses,
    /// returned to the allocator only when the service drops), so a thread
    /// that reached the entry through a stale pointer re-checks this after
    /// acquiring the lock. Written only while the entry is `CLAIMED`.
    addr: AtomicUsize,
    /// Lifecycle word: [`state`] in the low two bits, a transition count
    /// above. A per-thread cache slot mapping this entry hits only while
    /// the state is live (and `addr` is the slot's), so a free, a sweep
    /// step or a reuse invalidates the mappings of this one address, and no
    /// other address is touched.
    epoch: AtomicU64,
    /// Cycle stamp of the in-flight acquisition (0 = none; profile mode).
    /// Deliberately *not* sharded: it is written once per acquisition by
    /// the holder — whose thread owns the entry's lines exclusively at that
    /// point — and keeping it on the entry times cross-thread releases
    /// correctly, where a per-thread slot would let an orphaned stamp be
    /// consumed by an unrelated release that happens to share a shard.
    acquired_at: AtomicU64,
    /// The lock implementation.
    pub(crate) lock: AlgorithmLock,
    /// Sharded profile-mode statistics (queue/latency/critical-section),
    /// allocated lazily on the first profiled call so the ~1 KiB footprint
    /// is only paid by entries a profiling service actually touches.
    profile: OnceLock<Box<ProfileShards>>,
    /// Acquisitions counted by debug mode (profile mode counts in the
    /// sharded slots instead; reports fold both).
    debug_acquisitions: AtomicU64,
}

impl LockEntry {
    /// A fresh entry, not yet serving an address (see [`Self::revive`]).
    pub(crate) fn new(lock: AlgorithmLock) -> Self {
        Self {
            addr: AtomicUsize::new(0),
            lock,
            epoch: AtomicU64::new(state::CLAIMED),
            acquired_at: AtomicU64::new(0),
            profile: OnceLock::new(),
            debug_acquisitions: AtomicU64::new(0),
        }
    }

    /// Stamps the in-flight acquisition time (profile mode; holder only).
    #[inline]
    pub(crate) fn stamp_acquired(&self, cycles: u64) {
        self.acquired_at.store(cycles, Ordering::Relaxed);
    }

    /// Consumes the in-flight acquisition stamp (0 if none was set), so a
    /// release without a matching stamped acquisition records no sample.
    #[inline]
    pub(crate) fn take_acquired(&self) -> u64 {
        let stamp = self.acquired_at.load(Ordering::Relaxed);
        if stamp != 0 {
            self.acquired_at.store(0, Ordering::Relaxed);
        }
        stamp
    }

    /// The address this entry serves right now (0 while pooled). While a
    /// thread holds the entry's lock and reads its own address here, the
    /// entry is mapped for that address and stays so until the release:
    /// the sweeper unmaps only entries whose lock it holds exclusively.
    #[inline]
    pub(crate) fn addr(&self) -> usize {
        self.addr.load(Ordering::Relaxed)
    }

    /// The entry's current lifecycle word (see the field docs).
    #[inline]
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Whether an epoch value denotes a live (not freed) entry.
    #[inline]
    pub(crate) fn epoch_is_live(epoch: u64) -> bool {
        epoch & state::MASK == state::LIVE
    }

    /// Whether the entry is live for `addr` right now.
    #[inline]
    pub(crate) fn is_live_for(&self, addr: usize) -> bool {
        Self::epoch_is_live(self.epoch()) && self.addr() == addr
    }

    /// `free`: turns the live entry of `addr` into a tombstone, in place.
    /// The CAS winner is the unique claimant of this live cycle; a racing
    /// free (or a stale pointer to a recycled entry) reports `false`.
    pub(crate) fn retire(&self, addr: usize) -> bool {
        let epoch = self.epoch();
        // The epoch load is an acquire of the store that made the entry
        // live, so the address read is that generation's or newer; if it is
        // newer, the epoch moved on as well and the CAS fails.
        Self::epoch_is_live(epoch)
            && self.addr() == addr
            && self
                .epoch
                .compare_exchange(epoch, epoch + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
    }

    /// Makes sure the entry serves `addr`: a live entry is left alone, a
    /// tombstone is resurrected with one CAS. The first creation's
    /// algorithm survives the cycle, as with `put_if_absent` generally.
    #[inline]
    pub(crate) fn make_live(&self, addr: usize) -> Liveness {
        loop {
            let epoch = self.epoch();
            if self.addr() != addr {
                return Liveness::Recycled;
            }
            match epoch & state::MASK {
                state::LIVE => return Liveness::Live,
                state::CLAIMED => return Liveness::Claimed,
                // Next multiple of four: live again, and larger than any
                // value this entry's word ever held.
                _ => {
                    let live = (epoch | state::MASK) + 1;
                    if self
                        .epoch
                        .compare_exchange(epoch, live, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                    {
                        return Liveness::Live;
                    }
                }
            }
        }
    }

    /// One sweep step on this entry: a fresh tombstone ages, an aged one is
    /// claimed (returns `true`; the caller now owns the entry and must
    /// [`recycle`](Self::recycle) or [`unclaim`](Self::unclaim) it).
    /// Anything else — live, claimed, resurrected meanwhile — is left alone.
    pub(crate) fn age(&self) -> bool {
        let epoch = self.epoch();
        let tombstone = matches!(epoch & state::MASK, state::RETIRED | state::AGED);
        tombstone
            && self
                .epoch
                .compare_exchange(epoch, epoch + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            && epoch & state::MASK == state::AGED
    }

    /// Puts a claimed entry back as a fresh tombstone (the idle proof
    /// failed: somebody holds or waits for the lock).
    pub(crate) fn unclaim(&self) {
        debug_assert_eq!(self.epoch() & state::MASK, state::CLAIMED);
        self.epoch.fetch_add(2, Ordering::AcqRel);
    }

    /// Wipes everything the entry recorded for the address it served and
    /// detaches it from that address. Called by the sweeper on a claimed
    /// entry while it holds the entry's lock exclusively, so a thread that
    /// still reaches the entry through a stale pointer acquires after this
    /// and sees the address gone.
    pub(crate) fn recycle(&self) {
        debug_assert_eq!(self.epoch() & state::MASK, state::CLAIMED);
        self.addr.store(0, Ordering::Relaxed);
        self.acquired_at.store(0, Ordering::Relaxed);
        if let Some(profile) = self.profile.get() {
            profile.reset();
        }
        self.debug_acquisitions.store(0, Ordering::Relaxed);
        self.lock.reset_telemetry();
    }

    /// Puts a fresh or pooled entry to work for `addr`. The caller owns
    /// the entry (nothing maps it) and publishes it in the table next.
    pub(crate) fn revive(&self, addr: usize) {
        debug_assert_eq!(self.epoch() & state::MASK, state::CLAIMED);
        self.addr.store(addr, Ordering::Relaxed);
        // Release: whoever observes the live epoch observes the address.
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The entry's sharded profile statistics, allocating them on first use.
    #[inline]
    pub(crate) fn profile_shards(&self) -> &ProfileShards {
        self.profile.get_or_init(|| Box::new(ProfileShards::new()))
    }

    /// Merged acquisition-latency distribution of measured acquisitions
    /// (empty if the entry never saw profiled traffic).
    pub(crate) fn lock_latency_histogram(&self) -> gls_runtime::LatencyHistogram {
        self.profile
            .get()
            .map(|shards| shards.lock_latency_histogram())
            .unwrap_or_default()
    }

    /// Merged critical-section-latency distribution of measured releases.
    pub(crate) fn cs_latency_histogram(&self) -> gls_runtime::LatencyHistogram {
        self.profile
            .get()
            .map(|shards| shards.cs_latency_histogram())
            .unwrap_or_default()
    }

    /// The address a condvar waiter can be requeued onto so the mutex's own
    /// release wakes it (see [`AlgorithmLock::park_addr`]).
    pub(crate) fn park_addr(&self) -> Option<usize> {
        self.lock.park_addr()
    }

    /// Counts one acquisition made in debug mode.
    pub(crate) fn record_debug_acquisition(&self) {
        self.debug_acquisitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds the sharded profile statistics and the debug-mode acquisition
    /// count into one set of totals for reporting.
    pub(crate) fn profile_totals(&self) -> ProfileTotals {
        let mut totals = self
            .profile
            .get()
            .map(|shards| shards.totals())
            .unwrap_or_default();
        totals.acquisitions += self.debug_acquisitions.load(Ordering::Relaxed);
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(kind: LockKind) -> AlgorithmLock {
        AlgorithmLock::new(kind, &GlkConfig::default(), &MonitorHandle::Global)
    }

    fn live_entry(addr: usize, kind: LockKind) -> LockEntry {
        let entry = LockEntry::new(make(kind));
        entry.revive(addr);
        entry
    }

    #[test]
    fn every_kind_constructs_and_locks() {
        for kind in LockKind::ALL {
            let lock = make(kind);
            assert_eq!(lock.kind(), kind);
            lock.lock();
            assert_eq!(lock.queue_length(), 1);
            lock.unlock();
            assert_eq!(lock.queue_length(), 0);
        }
    }

    #[test]
    fn try_lock_works_for_every_kind() {
        for kind in LockKind::ALL {
            let lock = make(kind);
            assert!(lock.try_lock(), "{kind} try_lock on free lock");
            assert!(!lock.try_lock(), "{kind} try_lock on held lock");
            lock.unlock();
        }
    }

    #[test]
    fn header_and_lock_sit_on_separate_cachelines() {
        use std::mem::{offset_of, size_of};
        assert_eq!(offset_of!(LockEntry, addr), 0);
        assert_eq!(offset_of!(LockEntry, epoch), 8);
        assert_eq!(offset_of!(LockEntry, acquired_at), 16);
        assert_eq!(offset_of!(LockEntry, lock), 64, "a line of its own");
        assert_eq!(size_of::<LockEntry>(), 448);
    }

    #[test]
    fn as_glk_only_for_glk_entries() {
        assert!(make(LockKind::Glk).as_glk().is_some());
        assert!(make(LockKind::Mcs).as_glk().is_none());
    }

    #[test]
    fn futex_rw_entry_supports_shared_access() {
        let lock = make(LockKind::FutexRw);
        assert!(lock.is_rw());
        lock.acquire(Hold::Shared, Wait::Block);
        lock.acquire(Hold::Shared, Wait::Block);
        assert_eq!(lock.queue_length(), 2);
        assert!(!lock.try_lock(), "readers must exclude writers");
        lock.release(Hold::Shared);
        lock.release(Hold::Shared);
        assert!(lock.try_lock());
        assert!(
            !lock.acquire(Hold::Shared, Wait::Try),
            "writer must exclude readers"
        );
        lock.unlock();
    }

    #[test]
    fn non_rw_entries_degrade_shared_to_exclusive() {
        let lock = make(LockKind::Ticket);
        assert!(!lock.is_rw());
        lock.acquire(Hold::Shared, Wait::Block);
        assert!(
            !lock.acquire(Hold::Shared, Wait::Try),
            "fallback shared access is exclusive"
        );
        lock.release(Hold::Shared);
    }

    #[test]
    fn entry_epoch_tracks_retire_and_resurrect() {
        let entry = live_entry(0x2000, LockKind::Mutex);
        let born = entry.epoch();
        assert!(LockEntry::epoch_is_live(born));
        assert!(entry.retire(0x2000));
        assert!(!entry.retire(0x2000), "one free claims a live cycle");
        let retired = entry.epoch();
        assert!(!LockEntry::epoch_is_live(retired));
        assert_eq!(entry.make_live(0x2000), Liveness::Live);
        let resurrected = entry.epoch();
        assert!(LockEntry::epoch_is_live(resurrected), "resurrected");
        assert!(resurrected > retired);
        assert_eq!(entry.make_live(0x2000), Liveness::Live);
        assert_eq!(entry.epoch(), resurrected, "a live entry is left alone");
        assert_eq!(entry.make_live(0x2008), Liveness::Recycled);
        assert!(
            resurrected > born,
            "a free/recreate cycle must move the epoch strictly forward"
        );
    }

    #[test]
    fn sweep_steps_give_a_tombstone_a_second_chance() {
        let entry = live_entry(0x2000, LockKind::Ticket);
        assert!(!entry.age(), "live entries are not swept");
        assert!(entry.retire(0x2000));
        assert!(!entry.age(), "the first pass only ages a tombstone");
        // Touched between two passes: the tombstone is fresh again.
        let retired = entry.epoch();
        assert_eq!(entry.make_live(0x2000), Liveness::Live);
        assert!(LockEntry::epoch_is_live(entry.epoch()) && entry.epoch() > retired);
        assert!(entry.retire(0x2000));
        assert!(!entry.age());
        assert!(entry.age(), "the second untouched pass claims it");
        assert_eq!(entry.make_live(0x2000), Liveness::Claimed);
        assert!(!entry.retire(0x2000));
        // A failed idle proof puts it back with both chances restored.
        entry.unclaim();
        assert!(!entry.age());
        assert!(entry.age());
        let claimed = entry.epoch();
        entry.record_debug_acquisition();
        entry.recycle();
        assert_eq!(entry.addr(), 0);
        assert_eq!(entry.profile_totals().acquisitions, 0);
        entry.revive(0x3000);
        assert!(entry.is_live_for(0x3000));
        assert!(
            entry.epoch() > claimed,
            "epochs stay monotonic across reuse"
        );
    }

    #[test]
    fn entry_profile_totals_merge_shards_and_base_stats() {
        let entry = live_entry(0x2000, LockKind::Mutex);
        assert_eq!(entry.profile_totals().acquisitions, 0);
        let slot = entry.profile_shards().slot();
        slot.record_acquisition();
        slot.record_queue_sample(3);
        // Debug mode counts on the entry; reports must fold both.
        entry.record_debug_acquisition();
        let totals = entry.profile_totals();
        assert_eq!(totals.acquisitions, 2);
        assert!((totals.avg_queue() - 3.0).abs() < 1e-9);
    }
}
