//! Seeded inputs. Everything a workload feeds the program — keys, op mix,
//! address choices, payloads — is derived here from `--seed` and nothing
//! else, before the clock starts.

use gls_workloads::Zipfian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ops per worker ring. Workers cycle through their ring; the length is a
/// prime so neither the 1-in-64 latency sampling nor a power-of-two window
/// ever lands on the same ring positions twice in a row.
pub const RING_LEN: usize = 524_287;

/// How keys are drawn.
pub enum Keys<'a> {
    /// Uniform over `0..n`.
    Uniform(u32),
    /// Zipfian rank (0 = most popular).
    Zipf(&'a Zipfian),
    /// The op carries no key.
    None,
}

/// One op: `key << 2 | kind`, `kind < 4`.
pub type Op = u32;

/// The kind of an op (index into the workload's `mix`).
#[inline]
pub fn kind(op: Op) -> usize {
    (op & 3) as usize
}

/// The key of an op.
#[inline]
pub fn key(op: Op) -> u64 {
    u64::from(op >> 2)
}

/// SplitMix64 step: the one mixing function used to derive sub-seeds and
/// payloads.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of one worker of one workload.
pub fn worker_seed(seed: u64, workload: &str, worker: usize) -> u64 {
    let tag = workload.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    mix64(mix64(seed ^ tag) ^ worker as u64)
}

/// Generates one worker's op ring: `mix[k]` is the share of kind `k` in
/// parts per 1 000 (they sum to 1 000).
pub fn ring(seed: u64, len: usize, keys: &Keys<'_>, mix: &[u32]) -> Vec<Op> {
    assert!(mix.len() <= 4 && mix.iter().sum::<u32>() == 1000);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let key = match keys {
                Keys::Uniform(n) => rng.gen_range(0..*n),
                Keys::Zipf(z) => z.sample(&mut rng) as u32,
                Keys::None => 0,
            };
            let dice = rng.gen_range(0u32..1000);
            let mut acc = 0;
            let kind = mix
                .iter()
                .position(|share| {
                    acc += share;
                    dice < acc
                })
                .expect("shares sum to 1000");
            key << 2 | kind as u32
        })
        .collect()
}

/// One ring of [`RING_LEN`] ops per worker of `workload`.
pub fn rings(
    seed: u64,
    workload: &str,
    workers: usize,
    keys: &Keys<'_>,
    mix: &[u32],
) -> Vec<Vec<Op>> {
    (0..workers)
        .map(|w| ring(worker_seed(seed, workload, w), RING_LEN, keys, mix))
        .collect()
}

/// FNV-1a over the rings: the identity of a workload's input.
pub fn hash(rings: &[Vec<Op>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for ring in rings {
        for op in ring {
            for b in op.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_shares_are_respected() {
        let ops = ring(7, 100_000, &Keys::Uniform(1000), &[798, 200, 2]);
        let count = |k| ops.iter().filter(|&&op| kind(op) == k).count() as f64 / 1000.0;
        assert!((count(0) - 79.8).abs() < 1.0, "{}", count(0));
        assert!((count(1) - 20.0).abs() < 1.0, "{}", count(1));
        assert!(count(2) > 0.05 && count(2) < 0.5, "{}", count(2));
        assert!(ops.iter().all(|&op| key(op) < 1000));
    }

    #[test]
    fn worker_seeds_differ_by_every_input() {
        let base = worker_seed(1, "memcached_get", 0);
        assert_eq!(base, worker_seed(1, "memcached_get", 0));
        assert_ne!(base, worker_seed(2, "memcached_get", 0));
        assert_ne!(base, worker_seed(1, "memcached_set", 0));
        assert_ne!(base, worker_seed(1, "memcached_get", 1));
    }
}
