//! `memcached_get` / `memcached_set`: the Memcached model under a zipfian
//! get/set mix. The two share everything but the mix, so they use the same
//! layers the other way round: gets take 2 locks (item + the hot stats lock)
//! and lean on the address→entry mapping, sets take 4 (three of them global)
//! and lean on contended handover.

use std::time::{Duration, Instant};

use gls_systems::memcached::{Memcached as Server, MemcachedConfig};
use gls_workloads::Zipfian;

use crate::harness::{run_workers, Env, Recorder, Rep, WorkerOutcome};
use crate::layers;
use crate::streams::{self, Keys, Op};

const KEYS: u32 = 100_000;
const ZIPF_ALPHA: f64 = 0.9;
const VALUE_LEN: usize = 64;
const GET: usize = 0;
const SET: usize = 1;

pub struct Memcached {
    rings: Vec<Vec<Op>>,
}

impl Memcached {
    /// `get_share` in parts per 1 000.
    pub fn new(name: &str, get_share: u32, env: &Env, seed: u64) -> Self {
        let zipf = Zipfian::new(KEYS as usize, ZIPF_ALPHA);
        let mix = [get_share, 1000 - get_share];
        Self {
            rings: streams::rings(seed, name, env.workers, &Keys::Zipf(&zipf), &mix),
        }
    }
}

impl super::Workload for Memcached {
    fn input_hash(&self) -> u64 {
        streams::hash(&self.rings)
    }

    fn live_locks(&self) -> usize {
        // 64 item locks, stats, slabs, LRU and the rebalance lock.
        68
    }

    fn rep(&self, env: &Env, length: Duration, traced: bool) -> Rep {
        let t0 = Instant::now();
        let (provider, service) = super::provider(traced);
        let server = Server::new(&provider, &MemcachedConfig::default());
        for key in 0..u64::from(KEYS) {
            server.set(key, vec![0u8; VALUE_LEN]);
        }
        let before = service.as_ref().map(|s| s.telemetry_snapshot());

        let mut rep = run_workers(env.workers, Some(length), t0, |w, ctx| {
            let mut rec = Recorder::new(traced);
            let (mut ops, mut failed) = (0u64, 0u64);
            for op in self.rings[w].iter().copied().cycle() {
                if ctx.stopped() {
                    break;
                }
                let key = streams::key(op);
                if streams::kind(op) == GET {
                    let value = rec.op(GET, || server.get(key));
                    // Every key is preloaded and every set stores 64 bytes.
                    if value.map(|v| v.len()) != Some(VALUE_LEN) {
                        failed += 1;
                    }
                } else {
                    rec.op(SET, || server.set(key, vec![w as u8; VALUE_LEN]));
                }
                ops += 1;
            }
            WorkerOutcome {
                ops,
                failed,
                rec,
                extra: Vec::new(),
            }
        });
        let after = service.as_ref().map(|s| s.telemetry_snapshot());

        // The server's own counters must account for every op issued.
        let stats = server.stats();
        if stats.gets + stats.sets != rep.attempted() + u64::from(KEYS) {
            rep.check_failed += 1;
        }
        if stats.hits != stats.gets {
            rep.check_failed += 1;
        }
        if let (Some(before), Some(after)) = (before, after) {
            layers::from_snapshots(&before, &after, rep.attempted(), &mut rep.layers);
            rep.push_kind_percentile("systems.get_ns_p50", GET, 0.5);
            rep.push_kind_percentile("systems.set_ns_p50", SET, 0.5);
            super::push_common_layers(&mut rep);
        }
        rep
    }
}
