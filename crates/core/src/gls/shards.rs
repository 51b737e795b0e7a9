//! Sharded per-entry profiling statistics.
//!
//! Profile mode counts *every* acquisition and, on every measured one,
//! records a queue sample and the acquisition and critical-section
//! latencies. With one shared set of counters per entry those are
//! read-modify-writes on one cacheline — contended acquirers of the same
//! lock serialize on the stat line before they even reach the lock word,
//! which is precisely the overhead a profiler must not add.
//! [`ProfileShards`] splits the counters into [`PROFILE_SHARDS`]
//! cache-padded slots selected by thread id: a thread only ever touches its
//! own slot (collisions are possible beyond `PROFILE_SHARDS` concurrent
//! threads, but remain correct — the slots are atomics), and
//! [`ProfileShards::totals`] folds the slots into one [`ProfileTotals`] when
//! a report is built. Each latency has one home, a
//! sharded histogram: its count and exact sum are the sample count and the
//! total an average needs.
//!
//! The critical-section *stamp* is not sharded: it is written exactly once
//! per acquisition by the lock holder (whose thread already owns the
//! entry's lines exclusively) and lives on the entry itself, which also
//! keeps cross-thread releases correctly timed — sharding it would let an
//! orphaned stamp be consumed by an unrelated release on a colliding shard.

use std::sync::atomic::{AtomicU64, Ordering};

use gls_locks::CachePadded;
use gls_runtime::{AtomicLatencyHistogram, LatencyHistogram, ThreadId};

/// Number of stat shards per profiled entry; a power of two so shard
/// selection is a mask. Matches the sharding of debug-mode holder sets.
pub(crate) const PROFILE_SHARDS: usize = 16;

/// Number of histogram shards per profiled entry. Histograms are ~0.5 KiB
/// each (64 atomic buckets plus extrema), so they get fewer shards than the
/// one-cacheline counter slots: four shards already keep concurrent
/// recorders off each other's lines most of the time, at ~4 KiB per
/// profiled entry instead of the ~17 KiB full sharding would cost.
pub(crate) const HISTOGRAM_SHARDS: usize = 4;

/// One thread-private slice of an entry's profiling counters. At most one
/// cacheline, padded so neighboring shards never share.
#[derive(Debug, Default)]
pub(crate) struct ShardSlot {
    acquisitions: AtomicU64,
    queue_total: AtomicU64,
    queue_samples: AtomicU64,
}

const _: () = assert!(
    std::mem::size_of::<CachePadded<ShardSlot>>() == 64,
    "a shard slot must occupy exactly one cache line"
);

impl ShardSlot {
    #[inline]
    pub(crate) fn record_acquisition(&self) {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_queue_sample(&self, queued: u64) {
        self.queue_total.fetch_add(queued, Ordering::Relaxed);
        self.queue_samples.fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        for counter in [&self.acquisitions, &self.queue_total, &self.queue_samples] {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

/// One histogram shard: the latency distributions of an entry, recorded on
/// measured acquisitions/releases only.
#[derive(Debug, Default)]
struct HistogramShard {
    lock_latency: AtomicLatencyHistogram,
    cs_latency: AtomicLatencyHistogram,
}

/// The full sharded statistics of one profiled entry (~5 KiB; allocated
/// lazily, only for entries that see profile-mode traffic).
#[derive(Debug, Default)]
pub(crate) struct ProfileShards {
    slots: [CachePadded<ShardSlot>; PROFILE_SHARDS],
    hists: [HistogramShard; HISTOGRAM_SHARDS],
}

impl ProfileShards {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The calling thread's slot.
    #[inline]
    pub(crate) fn slot(&self) -> &ShardSlot {
        &self.slots[ThreadId::current().as_usize() & (PROFILE_SHARDS - 1)]
    }

    /// The calling thread's histogram shard.
    #[inline]
    fn hist(&self) -> &HistogramShard {
        &self.hists[ThreadId::current().as_usize() & (HISTOGRAM_SHARDS - 1)]
    }

    /// Records a measured acquisition latency into the distribution.
    #[inline]
    pub(crate) fn record_lock_latency_hist(&self, cycles: u64) {
        self.hist().lock_latency.record(cycles);
    }

    /// Records a measured critical-section latency into the distribution.
    #[inline]
    pub(crate) fn record_cs_latency_hist(&self, cycles: u64) {
        self.hist().cs_latency.record(cycles);
    }

    /// Folds the sharded acquisition-latency histograms into one merged
    /// distribution (same racy-snapshot semantics as [`Self::totals`]).
    pub(crate) fn lock_latency_histogram(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for shard in &self.hists {
            shard.lock_latency.fold_into(&mut merged);
        }
        merged
    }

    /// Folds the sharded critical-section-latency histograms into one
    /// merged distribution.
    pub(crate) fn cs_latency_histogram(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for shard in &self.hists {
            shard.cs_latency.fold_into(&mut merged);
        }
        merged
    }

    /// Zeroes every counter and distribution in place (the entry is being
    /// recycled for another address; the allocation is kept because stale
    /// pointers to the entry may still reach it).
    pub(crate) fn reset(&self) {
        for slot in &self.slots {
            slot.reset();
        }
        for shard in &self.hists {
            shard.lock_latency.reset();
            shard.cs_latency.reset();
        }
    }

    /// Folds every shard into plain totals. Concurrent updates may or may
    /// not be included — the same snapshot semantics the unsharded counters
    /// had.
    pub(crate) fn totals(&self) -> ProfileTotals {
        let mut totals = ProfileTotals::default();
        for slot in &self.slots {
            totals.acquisitions += slot.acquisitions.load(Ordering::Relaxed);
            totals.queue_total += slot.queue_total.load(Ordering::Relaxed);
            totals.queue_samples += slot.queue_samples.load(Ordering::Relaxed);
        }
        totals
    }
}

/// Folded profiling counters of one entry (shards + the entry's debug-mode
/// acquisition count).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ProfileTotals {
    pub(crate) acquisitions: u64,
    pub(crate) queue_total: u64,
    pub(crate) queue_samples: u64,
}

impl ProfileTotals {
    pub(crate) fn avg_queue(&self) -> f64 {
        if self.queue_samples == 0 {
            0.0
        } else {
            self.queue_total as f64 / self.queue_samples as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn totals_fold_across_threads_without_losing_counts() {
        let shards = Arc::new(ProfileShards::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let shards = Arc::clone(&shards);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        let slot = shards.slot();
                        slot.record_acquisition();
                        slot.record_queue_sample(2);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let totals = shards.totals();
        assert_eq!(totals.acquisitions, 80_000);
        assert_eq!(totals.queue_samples, 80_000);
        assert!((totals.avg_queue() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn latency_histograms_merge_across_shards() {
        let shards = Arc::new(ProfileShards::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let shards = Arc::clone(&shards);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        shards.record_lock_latency_hist(100 << i);
                        shards.record_cs_latency_hist(10);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let lock = shards.lock_latency_histogram();
        assert_eq!(lock.count(), 4_000);
        assert_eq!(lock.min(), 100);
        assert_eq!(lock.max(), 800);
        let cs = shards.cs_latency_histogram();
        assert_eq!(cs.count(), 4_000);
        assert!(cs.p999() >= 10);
    }

    #[test]
    fn empty_histograms_merge_empty() {
        let shards = ProfileShards::new();
        assert!(shards.lock_latency_histogram().is_empty());
        assert!(shards.cs_latency_histogram().is_empty());
    }

    #[test]
    fn empty_totals_average_to_zero() {
        let totals = ProfileShards::new().totals();
        assert_eq!(totals.avg_queue(), 0.0);
    }
}
