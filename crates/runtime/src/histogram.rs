//! A small log-scaled latency histogram used by the GLS profiler.
//!
//! The profiler (§4.3) reports per-lock acquisition latency and
//! critical-section duration. A fixed-size power-of-two-bucketed histogram
//! gives percentiles with constant memory and no allocation on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: bucket `i` holds samples in `[2^i, 2^(i+1))` cycles,
/// with bucket 0 holding `[0, 2)` and the last bucket holding everything
/// larger.
const BUCKETS: usize = 64;

/// A log₂-bucketed histogram of cycle counts.
///
/// # Example
///
/// ```
/// use gls_runtime::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for v in [10, 20, 30, 40, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.mean() > 0.0);
/// assert!(h.percentile(0.5) <= h.percentile(0.99));
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < 2 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize - 1).min(BUCKETS - 1)
        }
    }

    /// Records one sample (in cycles).
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples (`0.0` if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (`0` if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (`0` if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate percentile (`q` in `[0, 1]`), reported as the upper bound
    /// of the bucket containing the q-th sample. Returns `0` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0.0, 1.0]`.
    pub fn percentile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "percentile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Upper bound of bucket i.
                return if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        self.max
    }

    /// Median (the 50th percentile); see [`LatencyHistogram::percentile`]
    /// for the bucket-upper-bound semantics.
    pub fn p50(&self) -> u64 {
        self.percentile(0.5)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// The 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A concurrently recordable [`LatencyHistogram`]: same log₂ buckets, but
/// every field is a relaxed atomic so lock holders on different threads can
/// record into one shared instance without synchronization. The profiler
/// keeps one per profile shard, so recording stays uncontended on the hot
/// path; [`AtomicLatencyHistogram::fold_into`] merges shards into a plain
/// [`LatencyHistogram`] at snapshot time.
///
/// `min`/`max`/`count`/`sum` are each individually exact, but a reader
/// racing recorders can observe them at slightly different instants; the
/// telemetry consumer tolerates that (the counters feed reports, not
/// correctness decisions).
#[derive(Debug)]
pub struct AtomicLatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` while empty, so `fetch_min` needs no empty special case.
    min: AtomicU64,
    max: AtomicU64,
}

impl AtomicLatencyHistogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample (in cycles).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[LatencyHistogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Clears all samples in place. A recorder racing the reset may leave
    /// a partial sample behind (same tolerance as racing readers).
    pub fn reset(&self) {
        if self.is_empty() {
            return;
        }
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Merges this histogram's current contents into `target`.
    pub fn fold_into(&self, target: &mut LatencyHistogram) {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return;
        }
        for (t, b) in target.buckets.iter_mut().zip(self.buckets.iter()) {
            *t += b.load(Ordering::Relaxed);
        }
        target.count += count;
        target.sum += self.sum.load(Ordering::Relaxed) as u128;
        target.min = target.min.min(self.min.load(Ordering::Relaxed));
        target.max = target.max.max(self.max.load(Ordering::Relaxed));
    }
}

impl Default for AtomicLatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.5), 0);
    }

    #[test]
    fn single_sample_statistics() {
        let mut h = LatencyHistogram::new();
        h.record(100);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 100.0);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 100);
        assert!(h.percentile(1.0) >= 100);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        assert_eq!(LatencyHistogram::bucket_index(2), 1);
        assert_eq!(LatencyHistogram::bucket_index(3), 1);
        assert_eq!(LatencyHistogram::bucket_index(4), 2);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_validates_range() {
        LatencyHistogram::new().percentile(1.5);
    }

    #[test]
    fn quantile_shorthands_match_percentile() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.p50(), h.percentile(0.5));
        assert_eq!(h.p99(), h.percentile(0.99));
        assert_eq!(h.p999(), h.percentile(0.999));
        assert!(h.p50() <= h.p99() && h.p99() <= h.p999());
    }

    #[test]
    fn atomic_histogram_matches_plain_recording() {
        let atomic = AtomicLatencyHistogram::new();
        let mut plain = LatencyHistogram::new();
        for v in [3u64, 17, 17, 900, 65_000] {
            atomic.record(v);
            plain.record(v);
        }
        let mut snap = LatencyHistogram::new();
        atomic.fold_into(&mut snap);
        assert_eq!(snap.count(), plain.count());
        assert_eq!(snap.min(), plain.min());
        assert_eq!(snap.max(), plain.max());
        assert_eq!(snap.mean(), plain.mean());
        assert_eq!(snap.p50(), plain.p50());
        assert_eq!(snap.p999(), plain.p999());
    }

    #[test]
    fn atomic_histogram_folds_across_shards() {
        let a = AtomicLatencyHistogram::new();
        let b = AtomicLatencyHistogram::new();
        a.record(10);
        b.record(1000);
        let mut merged = LatencyHistogram::new();
        a.fold_into(&mut merged);
        b.fold_into(&mut merged);
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.min(), 10);
        assert_eq!(merged.max(), 1000);
        // Folding an empty histogram changes nothing.
        AtomicLatencyHistogram::new().fold_into(&mut merged);
        assert_eq!(merged.count(), 2);
    }

    #[test]
    fn atomic_histogram_concurrent_records_are_all_counted() {
        use std::sync::Arc;
        let h = Arc::new(AtomicLatencyHistogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(i % (100 * (t + 1)));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        let mut folded = LatencyHistogram::new();
        h.fold_into(&mut folded);
        assert_eq!(folded.count(), 40_000);
    }

    #[test]
    fn reset_empties() {
        let mut h = LatencyHistogram::new();
        h.record(5);
        h.reset();
        assert!(h.is_empty());
    }

    proptest! {
        /// Percentiles are monotone in q and bounded by min/max buckets.
        #[test]
        fn percentiles_are_monotone(samples in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut h = LatencyHistogram::new();
            for &s in &samples {
                h.record(s);
            }
            let p50 = h.percentile(0.5);
            let p90 = h.percentile(0.9);
            let p99 = h.percentile(0.99);
            prop_assert!(p50 <= p90);
            prop_assert!(p90 <= p99);
            prop_assert!(h.mean() >= h.min() as f64);
            prop_assert!(h.mean() <= h.max() as f64);
        }

        /// Mean equals the true arithmetic mean (exact sums are kept).
        #[test]
        fn mean_is_exact(samples in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut h = LatencyHistogram::new();
            for &s in &samples {
                h.record(s);
            }
            let expect = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
            prop_assert!((h.mean() - expect).abs() < 1e-6);
        }
    }
}
