//! Zipfian selection of lock objects / keys.
//!
//! Figure 9 of the paper drives eight locks with a zipfian skew of α = 0.9,
//! so that "the two most busy locks serve 34% and 18% of the requests". This
//! module implements the classic CDF-inversion zipfian sampler used by that
//! experiment (and by the simulated systems' key popularity).

use rand::Rng;

/// A zipfian distribution over `0..n` with exponent `alpha`.
///
/// Rank 0 is the most popular element. Sampling is O(log n) via binary search
/// on the precomputed CDF.
///
/// # Example
///
/// ```
/// use gls_workloads::Zipfian;
/// use rand::SeedableRng;
///
/// let zipf = Zipfian::new(8, 0.9);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
/// let sample = zipf.sample(&mut rng);
/// assert!(sample < 8);
/// ```
#[derive(Debug, Clone)]
pub struct Zipfian {
    cdf: Vec<f64>,
}

impl Zipfian {
    /// Builds a zipfian distribution over `n` elements with skew `alpha`.
    ///
    /// `alpha = 0.0` degenerates to the uniform distribution.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `alpha` is negative/non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "zipfian distribution needs at least one element");
        assert!(
            alpha >= 0.0 && alpha.is_finite(),
            "zipfian alpha must be a non-negative finite number"
        );
        let weights: Vec<f64> = (1..=n)
            .map(|rank| 1.0 / (rank as f64).powf(alpha))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for w in weights {
            acc += w / total;
            cdf.push(acc);
        }
        // Guard against floating-point drift on the last bucket.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }

    /// Draws one element.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("CDF contains NaN"))
        {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    impl Zipfian {
        /// Probability mass of element `rank`: the step of the CDF there.
        fn probability(&self, rank: usize) -> f64 {
            let lower = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
            self.cdf[rank] - lower
        }
    }

    #[test]
    fn uniform_when_alpha_zero() {
        let z = Zipfian::new(4, 0.0);
        for rank in 0..4 {
            assert!((z.probability(rank) - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn zero_elements_rejected() {
        Zipfian::new(0, 0.9);
    }

    #[test]
    fn paper_figure9_skew_matches_reported_shares() {
        // "The two most busy locks serve 34% and 18% of the requests" for
        // 8 locks with alpha = 0.9.
        let z = Zipfian::new(8, 0.9);
        assert!(
            (z.probability(0) - 0.34).abs() < 0.02,
            "{}",
            z.probability(0)
        );
        assert!(
            (z.probability(1) - 0.18).abs() < 0.02,
            "{}",
            z.probability(1)
        );
    }

    #[test]
    fn empirical_frequencies_match_probabilities() {
        let z = Zipfian::new(8, 0.9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut counts = [0u64; 8];
        let samples = 200_000;
        for _ in 0..samples {
            counts[z.sample(&mut rng)] += 1;
        }
        for (rank, &count) in counts.iter().enumerate() {
            let freq = count as f64 / samples as f64;
            assert!(
                (freq - z.probability(rank)).abs() < 0.01,
                "rank {rank}: freq {freq} vs p {}",
                z.probability(rank)
            );
        }
    }

    proptest! {
        /// Probabilities sum to 1 and are monotonically non-increasing in rank.
        #[test]
        fn probabilities_are_a_decreasing_distribution(n in 1usize..128, alpha in 0.0f64..2.0) {
            let z = Zipfian::new(n, alpha);
            let total: f64 = (0..n).map(|r| z.probability(r)).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            for r in 1..n {
                prop_assert!(z.probability(r) <= z.probability(r - 1) + 1e-12);
            }
        }

        /// Samples are always in range.
        #[test]
        fn samples_in_range(n in 1usize..64, alpha in 0.0f64..2.0, seed in 0u64..1000) {
            let z = Zipfian::new(n, alpha);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for _ in 0..100 {
                prop_assert!(z.sample(&mut rng) < n);
            }
        }
    }
}
