//! The per-thread lock cache (§4.1, "Lock-cache Optimization").
//!
//! The most common locking pattern acquires and then releases the *same*
//! lock, and locks show strong temporal locality per thread. The cache is a
//! per-thread, **direct-mapped** table of [`CACHE_SLOTS`] slots, indexed by
//! a hash of the address: a lookup compares one slot, a store overwrites
//! one slot. Two addresses that hash to the same slot evict each other.
//!
//! A slot holds no token. Entry memory is type-stable, so the service
//! re-validates every hit against the entry's **own** state — live, and
//! still serving this address — which a free, a sweep or a reuse for
//! another address all change. Freeing lock A therefore never evicts the
//! cached mapping of lock B, on any thread, and a stale slot costs one
//! failed validation on the thread that holds it.
//!
//! Hit/miss/invalidation counters are kept per thread (plain `Cell`s, so
//! they cost nothing on the hot path) and exposed through
//! [`thread_cache_stats`] for tests, benchmarks and profiling.

use std::cell::Cell;
// Raw std atomics: the retired-stats accumulator is pure telemetry, updated
// once per thread exit, and stays invisible to the model explorer's
// scheduling points.
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of slots in the per-thread cache (a power of two: slot selection
/// is a multiply and a shift).
pub const CACHE_SLOTS: usize = 256;

/// One cached `addr → entry` mapping.
struct Slot {
    /// The cached address; 0 marks an empty slot (GLS rejects address 0).
    addr: Cell<usize>,
    /// Id of the service the mapping belongs to. Service ids are never
    /// reused, so a dropped service's slots never match a live one.
    service: Cell<u64>,
    /// The cached entry pointer.
    entry: Cell<usize>,
}

impl Slot {
    // A template for initializing the (thread-local, never shared) slot
    // array — each use site gets its own fresh cells.
    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY: Slot = Slot {
        addr: Cell::new(0),
        service: Cell::new(0),
        entry: Cell::new(0),
    };
}

struct ThreadCache {
    slots: [Slot; CACHE_SLOTS],
    hits: Cell<u64>,
    misses: Cell<u64>,
    invalidations: Cell<u64>,
}

/// Process-wide accumulator of the counters of *exited* threads: the
/// thread-local counters are plain `Cell`s (free on the hot path) and
/// therefore unreadable from other threads, so each cache folds its totals
/// in here when its thread exits. [`aggregated_cache_stats`] = this
/// accumulator + the calling thread's own live counters.
static RETIRED_HITS: AtomicU64 = AtomicU64::new(0);
static RETIRED_MISSES: AtomicU64 = AtomicU64::new(0);
static RETIRED_INVALIDATIONS: AtomicU64 = AtomicU64::new(0);

impl Drop for ThreadCache {
    fn drop(&mut self) {
        RETIRED_HITS.fetch_add(self.hits.get(), Ordering::Relaxed);
        RETIRED_MISSES.fetch_add(self.misses.get(), Ordering::Relaxed);
        RETIRED_INVALIDATIONS.fetch_add(self.invalidations.get(), Ordering::Relaxed);
    }
}

thread_local! {
    static CACHE: ThreadCache = const {
        ThreadCache {
            slots: [Slot::EMPTY; CACHE_SLOTS],
            hits: Cell::new(0),
            misses: Cell::new(0),
            invalidations: Cell::new(0),
        }
    };
}

/// Fibonacci-hash slot selection: addresses are pointers (aligned, shared
/// low bits), so mix before taking the top bits.
#[inline]
fn slot_index(addr: usize) -> usize {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    ((addr as u64).wrapping_mul(GOLDEN) >> (64 - CACHE_SLOTS.trailing_zeros())) as usize
}

/// Looks up `addr` in the calling thread's cache.
///
/// `validate(entry)` is called on a matching slot and must return whether
/// the cached entry still serves `addr`. A slot that fails validation is
/// cleared and counted as an invalidation; a validated hit returns the
/// entry pointer.
#[inline]
pub(crate) fn lookup(
    service_id: u64,
    addr: usize,
    validate: impl FnOnce(usize) -> bool,
) -> Option<usize> {
    CACHE.with(|cache| {
        let slot = &cache.slots[slot_index(addr)];
        if slot.addr.get() == addr && slot.service.get() == service_id {
            let entry = slot.entry.get();
            if validate(entry) {
                cache.hits.set(cache.hits.get() + 1);
                return Some(entry);
            }
            // The entry was freed or serves another address now: drop the
            // stale mapping, so it is counted once.
            slot.addr.set(0);
            cache.invalidations.set(cache.invalidations.get() + 1);
        }
        cache.misses.set(cache.misses.get() + 1);
        None
    })
}

/// Stores an `(addr → entry)` association, overwriting whatever the slot
/// of `addr` held.
#[inline]
pub(crate) fn store(service_id: u64, addr: usize, entry: usize) {
    CACHE.with(|cache| {
        let slot = &cache.slots[slot_index(addr)];
        slot.addr.set(addr);
        slot.service.set(service_id);
        slot.entry.set(entry);
    });
}

/// Hit/miss counters of the calling thread's lock cache.
///
/// The counters are thread-local and span every [`GlsService`] the thread
/// talks to. A failed validation (the cached entry was freed, or serves
/// another address) counts as both an invalidation and a miss.
///
/// [`GlsService`]: crate::GlsService
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Validated cache hits.
    pub hits: u64,
    /// Lookups that fell through to the hash table.
    pub misses: u64,
    /// Matching slots discarded because their entry was no longer live for
    /// the address (freed, or recycled for another address).
    pub invalidations: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (`0.0` if none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    fn add(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            invalidations: self.invalidations + other.invalidations,
        }
    }
}

/// Returns the calling thread's lock-cache counters. They only grow: take
/// the difference of two readings to count what happened in between.
pub fn thread_cache_stats() -> CacheStats {
    CACHE.with(|cache| CacheStats {
        hits: cache.hits.get(),
        misses: cache.misses.get(),
        invalidations: cache.invalidations.get(),
    })
}

/// Lock-cache counters aggregated across threads: the counters of threads
/// that exited plus the calling thread's live counters. Live counters of
/// *other* running threads are not included — they are plain `Cell`s and
/// unreadable across threads by design; workers fold theirs in on exit, so
/// the aggregate converges as they finish.
pub(crate) fn aggregated_cache_stats() -> CacheStats {
    let retired = CacheStats {
        hits: RETIRED_HITS.load(Ordering::Relaxed),
        misses: RETIRED_MISSES.load(Ordering::Relaxed),
        invalidations: RETIRED_INVALIDATIONS.load(Ordering::Relaxed),
    };
    retired + thread_cache_stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(service: u64, addr: usize) -> Option<usize> {
        lookup(service, addr, |_| true)
    }

    /// Counter changes since `before`.
    fn since(before: CacheStats) -> CacheStats {
        let now = thread_cache_stats();
        CacheStats {
            hits: now.hits - before.hits,
            misses: now.misses - before.misses,
            invalidations: now.invalidations - before.invalidations,
        }
    }

    /// `n` distinct addresses in distinct slots.
    fn spread_addrs(n: usize) -> Vec<usize> {
        let mut taken = [false; CACHE_SLOTS];
        let mut addrs = Vec::new();
        let mut addr = 0x40;
        while addrs.len() < n {
            if !std::mem::replace(&mut taken[slot_index(addr)], true) {
                addrs.push(addr);
            }
            addr += 0x40;
        }
        addrs
    }

    /// Two distinct addresses sharing one slot.
    fn colliding_pair() -> (usize, usize) {
        let first = 0x40;
        let second = (2..)
            .map(|i| i * 0x40)
            .find(|&a| slot_index(a) == slot_index(first))
            .unwrap();
        (first, second)
    }

    #[test]
    fn miss_on_empty_cache() {
        assert_eq!(probe(1, 0x100), None);
    }

    #[test]
    fn hit_after_store() {
        store(1, 0x100, 0xdead);
        assert_eq!(probe(1, 0x100), Some(0xdead));
    }

    #[test]
    fn miss_on_other_address_or_service() {
        store(1, 0x100, 0xdead);
        assert_eq!(probe(1, 0x200), None, "different address");
        assert_eq!(probe(2, 0x100), None, "different service");
    }

    #[test]
    fn failed_validation_clears_the_slot_and_counts() {
        store(1, 0x100, 0xdead);
        let before = thread_cache_stats();
        // The validator sees exactly what was stored.
        let seen = Cell::new(0usize);
        let got = lookup(1, 0x100, |entry| {
            seen.set(entry);
            false
        });
        assert_eq!(got, None);
        assert_eq!(seen.get(), 0xdead);
        // The slot is gone: the next lookup is a plain miss, not another
        // invalidation.
        assert_eq!(probe(1, 0x100), None);
        let stats = since(before);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn working_set_up_to_capacity_all_hits() {
        // One address per slot fills the cache exactly.
        let addrs = spread_addrs(CACHE_SLOTS);
        for &a in &addrs {
            store(7, a, a + 1);
        }
        let before = thread_cache_stats();
        for _ in 0..3 {
            for &a in &addrs {
                assert_eq!(probe(7, a), Some(a + 1));
            }
        }
        let stats = since(before);
        assert_eq!(stats.misses, 0, "a full working set must never miss");
        assert_eq!(stats.hits, 3 * addrs.len() as u64);
        assert!((stats.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn store_replaces_existing_mapping_for_same_address() {
        store(1, 0x100, 0xaaaa);
        store(1, 0x100, 0xbbbb);
        assert_eq!(probe(1, 0x100), Some(0xbbbb), "re-store updates in place");
    }

    #[test]
    fn colliding_store_evicts_the_previous_mapping() {
        let (a, b) = colliding_pair();
        store(1, a, 0xaaaa);
        store(1, b, 0xbbbb);
        assert_eq!(probe(1, b), Some(0xbbbb));
        assert_eq!(probe(1, a), None, "one slot holds one mapping");
    }

    #[test]
    fn cache_is_thread_local() {
        store(1, 0x100, 0xcccc);
        let other = std::thread::spawn(|| probe(1, 0x100)).join().unwrap();
        assert_eq!(other, None);
        assert_eq!(probe(1, 0x100), Some(0xcccc));
    }

    #[test]
    fn exited_threads_fold_into_the_aggregate() {
        let before = aggregated_cache_stats();
        std::thread::spawn(|| {
            store(7, 0x700, 0x7007);
            assert!(probe(7, 0x700).is_some()); // 1 hit
            assert!(probe(7, 0x704).is_none()); // 1 miss
        })
        .join()
        .unwrap();
        let after = aggregated_cache_stats();
        // Concurrent tests also touch the cache, so lower-bound the deltas.
        assert!(after.hits > before.hits);
        assert!(after.misses > before.misses);
    }
}
