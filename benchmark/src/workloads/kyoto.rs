//! `kyoto_cache`: the Kyoto Cabinet CACHE model. The only workload on the
//! reader-writer path and on deep nesting: every get/put holds 7 GLS locks
//! at once (global read + bucket + 5 nested) and the rare `maintain` takes
//! the global lock for writing, which sets the tail.

use std::time::{Duration, Instant};

use gls_systems::kyoto::{KyotoFlavor, KyotoHashDb};

use crate::harness::{run_workers, Env, Recorder, Rep, WorkerOutcome};
use crate::layers;
use crate::streams::{self, Keys, Op};

const KEYS: u32 = 100_000;
const GET: usize = 0;
const PUT: usize = 1;
const MAINTAIN: usize = 2;
/// Parts per 1 000: 79.8 % get, 20 % put, 0.2 % maintain.
const MIX: [u32; 3] = [798, 200, 2];

pub struct KyotoCache {
    rings: Vec<Vec<Op>>,
}

impl KyotoCache {
    pub fn new(env: &Env, seed: u64) -> Self {
        Self {
            rings: streams::rings(seed, "kyoto_cache", env.workers, &Keys::Uniform(KEYS), &MIX),
        }
    }
}

/// The key of worker `w`'s private stripe nearest to `key`: keys congruent
/// to `w` modulo the worker count. Only `w` writes them, so `w` knows what
/// each must read back.
fn stripe_key(key: u64, w: usize, workers: usize) -> u64 {
    let (w, n) = (w as u64, workers as u64);
    let k = key - key % n + w;
    if k < u64::from(KEYS) {
        k
    } else {
        k - n
    }
}

impl super::Workload for KyotoCache {
    fn input_hash(&self) -> u64 {
        streams::hash(&self.rings)
    }

    fn live_locks(&self) -> usize {
        // The global rwlock, 16 bucket locks and 6 nested locks.
        23
    }

    fn rep(&self, env: &Env, length: Duration, traced: bool) -> Rep {
        let t0 = Instant::now();
        let (provider, service) = super::provider(traced);
        let db = KyotoHashDb::new(&provider, KyotoFlavor::Cache);
        for key in 0..u64::from(KEYS) {
            db.put(key, key);
        }
        let before = service.as_ref().map(|s| s.telemetry_snapshot());
        let workers = env.workers;

        let mut rep = run_workers(workers, Some(length), t0, |w, ctx| {
            let mut rec = Recorder::new(traced);
            // Last value written per stripe key (0 = still the preload).
            let mut last = vec![0u64; KEYS as usize / workers + 1];
            let (mut ops, mut failed) = (0u64, 0u64);
            for op in self.rings[w].iter().copied().cycle() {
                if ctx.stopped() {
                    break;
                }
                let key = streams::key(op);
                match streams::kind(op) {
                    GET => {
                        if rec.op(GET, || db.get(key)).is_none() {
                            failed += 1;
                        }
                    }
                    PUT => {
                        let key = stripe_key(key, w, workers);
                        let value = (w as u64) << 48 | (ops + 1);
                        rec.op(PUT, || db.put(key, value));
                        last[key as usize / workers] = value;
                    }
                    _ => rec.op(MAINTAIN, || db.maintain()),
                }
                ops += 1;
            }
            WorkerOutcome {
                ops,
                failed,
                rec,
                extra: last,
            }
        });
        let after = service.as_ref().map(|s| s.telemetry_snapshot());

        let mut check_failed = 0;
        if db.len() != KEYS as usize {
            check_failed += 1;
        }
        for (w, worker) in rep.workers.iter().enumerate() {
            for (slot, &written) in worker.out.extra.iter().enumerate() {
                let key = (slot * workers + w) as u64;
                if key >= u64::from(KEYS) {
                    break;
                }
                let expected = if written == 0 { key } else { written };
                if db.get(key) != Some(expected) {
                    check_failed += 1;
                }
            }
        }

        rep.check_failed = check_failed;
        if let (Some(before), Some(after)) = (before, after) {
            layers::from_snapshots(&before, &after, rep.attempted(), &mut rep.layers);
            rep.push_kind_percentile("systems.get_ns_p50", GET, 0.5);
            rep.push_kind_percentile("systems.put_ns_p50", PUT, 0.5);
            rep.push_kind_percentile("systems.maintain_ns_p50", MAINTAIN, 0.5);
            rep.push_kind_percentile("glk_rw.writer_wait_ns_p99", MAINTAIN, 0.99);
            super::push_common_layers(&mut rep);
        }
        rep
    }
}
