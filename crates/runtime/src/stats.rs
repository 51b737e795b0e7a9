//! GLK's per-lock counters.
//!
//! The GLK structure (paper Fig. 3) carries two counters — `num_acquired`
//! (completed critical sections) and `queue_total` (accumulated queuing behind
//! the lock) — which together yield the average queuing used by the
//! adaptation policy, plus the count of mode transitions it performed.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-local statistics, updated by lock holders and read by the adaptation
/// logic.
///
/// All fields are plain atomics with relaxed ordering: the values feed
/// heuristics, not correctness-critical decisions, exactly as in the paper.
#[derive(Debug, Default)]
pub struct LockStats {
    /// Number of completed critical sections (paper: `num_acquired`).
    acquisitions: AtomicU64,
    /// Sum of queue-length samples (paper: `queue_total`).
    queue_total: AtomicU64,
    /// Number of queue-length samples contributing to `queue_total`.
    queue_samples: AtomicU64,
    /// Number of mode transitions performed (GLK diagnostics).
    transitions: AtomicU64,
}

impl LockStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed acquisition and returns the *new* total. The
    /// caller is the counter's only writer at the time — the exclusive
    /// holder of a lock only whose holders count — so this is a load and a
    /// store, no RMW.
    #[inline]
    pub fn record_exclusive_acquisition(&self) -> u64 {
        let acquisitions = self.acquisitions.load(Ordering::Relaxed) + 1;
        self.acquisitions.store(acquisitions, Ordering::Relaxed);
        acquisitions
    }

    /// Total completed acquisitions.
    #[inline]
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Records one sample of the queue length behind the lock.
    #[inline]
    pub fn record_queue_sample(&self, queued: u64) {
        self.queue_total.fetch_add(queued, Ordering::Relaxed);
        self.queue_samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Average queue length over the samples recorded so far (`0.0` if none).
    pub fn average_queue(&self) -> f64 {
        let samples = self.queue_samples.load(Ordering::Relaxed);
        if samples == 0 {
            0.0
        } else {
            self.queue_total.load(Ordering::Relaxed) as f64 / samples as f64
        }
    }

    /// Number of queue samples recorded.
    pub fn queue_samples(&self) -> u64 {
        self.queue_samples.load(Ordering::Relaxed)
    }

    /// Resets the queue statistics (done after each adaptation decision so
    /// the next decision sees a fresh window).
    pub fn reset_queue_window(&self) {
        self.queue_total.store(0, Ordering::Relaxed);
        self.queue_samples.store(0, Ordering::Relaxed);
    }

    /// Records one GLK mode transition.
    #[inline]
    pub fn record_transition(&self) {
        self.transitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of GLK mode transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.acquisitions.store(0, Ordering::Relaxed);
        self.queue_total.store(0, Ordering::Relaxed);
        self.queue_samples.store(0, Ordering::Relaxed);
        self.transitions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquisitions_count_up() {
        let s = LockStats::new();
        assert_eq!(s.record_exclusive_acquisition(), 1);
        assert_eq!(s.record_exclusive_acquisition(), 2);
        assert_eq!(s.acquisitions(), 2);
    }

    #[test]
    fn average_queue_over_samples() {
        let s = LockStats::new();
        assert_eq!(s.average_queue(), 0.0);
        s.record_queue_sample(2);
        s.record_queue_sample(4);
        assert_eq!(s.queue_samples(), 2);
        assert!((s.average_queue() - 3.0).abs() < 1e-9);
        s.reset_queue_window();
        assert_eq!(s.average_queue(), 0.0);
        assert_eq!(s.queue_samples(), 0);
    }

    #[test]
    fn transitions_and_reset() {
        let s = LockStats::new();
        s.record_transition();
        s.record_transition();
        s.record_exclusive_acquisition();
        assert_eq!(s.transitions(), 2);
        s.reset();
        assert_eq!(s.transitions(), 0);
        assert_eq!(s.acquisitions(), 0);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let s = std::sync::Arc::new(LockStats::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        s.record_queue_sample(1);
                        s.record_transition();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.queue_samples(), 80_000);
        assert_eq!(s.average_queue(), 1.0);
        assert_eq!(s.transitions(), 80_000);
    }
}
