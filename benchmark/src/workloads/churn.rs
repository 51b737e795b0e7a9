//! `lock_churn`: lock-object lifecycle on a raw `GlsService`. Each worker
//! walks a private sliding window of addresses; an op is first-touch
//! `lock`/`unlock`, one more `lock`/`unlock`, then `free`. 31 ops in 32
//! re-use the address this slot freed one window ago (a resurrection), 1 in
//! 32 brings an address the service has never seen. Entry create/free/retire
//! and table insert/remove do the work; the cached hit path does little.
//!
//! The work per repetition is fixed (sized to the requested length at
//! [`OPS_PER_WORKER_SECOND`]), not the time: freed entries are retained
//! until the service drops, so peak memory counts never-seen addresses, and
//! a fixed count keeps `rss_peak_mb` independent of how fast the run went.

use std::time::{Duration, Instant};

use gls::GlsService;

use crate::harness::{proc_status_kb, run_workers, Env, Recorder, Rep, WorkerOutcome};
use crate::layers;
use crate::streams::{self, Keys, Op};

/// Addresses in one worker's window.
const WINDOW: usize = 4096;
/// Ops per worker per requested second; about what this code base sustains,
/// so a repetition takes about its requested length.
pub const OPS_PER_WORKER_SECOND: u64 = 500_000;
/// Lock identities are this many `u64`s (one cache line) apart.
const STRIDE: usize = 8;
/// Parts per 1 000 (1 in 32 ≈ 31 in 1 000).
const MIX: [u32; 2] = [969, 31];
const FRESH: usize = 1;
/// Traced kinds: the first `lock` of an op by what it found, and the `free`.
const CREATE: usize = 0;
const RECREATE: usize = 1;
const FREE: usize = 2;
const WHOLE: usize = 3;

pub struct LockChurn {
    rings: Vec<Vec<Op>>,
}

impl LockChurn {
    pub fn new(env: &Env, seed: u64) -> Self {
        Self {
            rings: streams::rings(seed, "lock_churn", env.workers, &Keys::None, &MIX),
        }
    }
}

impl super::Workload for LockChurn {
    fn input_hash(&self) -> u64 {
        streams::hash(&self.rings)
    }

    fn live_locks(&self) -> usize {
        // One per worker, for the length of an op.
        self.rings.len()
    }

    fn rep(&self, env: &Env, length: Duration, traced: bool) -> Rep {
        let ops_per_worker = (OPS_PER_WORKER_SECOND as f64 * length.as_secs_f64()) as u64;
        // Twice the expected number of never-seen addresses; the pages are
        // never touched, only their addresses are used.
        let slots = WINDOW + ops_per_worker as usize / 16 + 1;

        let t0 = Instant::now();
        let service = GlsService::with_config(super::config(traced));
        let arenas: Vec<Vec<u64>> = (0..env.workers)
            .map(|_| vec![0u64; slots * STRIDE])
            .collect();
        // Create every window address once, so the measured part starts in
        // the steady state where a slot's address was freed a window ago.
        let mut setup_failed = 0u64;
        for arena in &arenas {
            for slot in 0..WINDOW {
                let m = &arena[slot * STRIDE];
                let ok = service.lock(m).is_ok() && service.unlock(m).is_ok() && service.free(m);
                setup_failed += u64::from(!ok);
            }
        }
        let before = traced.then(|| service.telemetry_snapshot());
        let rss_before = proc_status_kb("VmRSS");

        let mut rep = run_workers(env.workers, None, t0, |w, _ctx| {
            let arena = &arenas[w];
            let mut rec = Recorder::new(traced);
            let mut window: Vec<usize> = (0..WINDOW).collect();
            let (mut next_fresh, mut failed) = (WINDOW, 0u64);
            let ops = self.rings[w].iter().copied().cycle();
            for (op_index, op) in ops.take(ops_per_worker as usize).enumerate() {
                let slot = op_index % WINDOW;
                let fresh = streams::kind(op) == FRESH && next_fresh < slots;
                if fresh {
                    window[slot] = next_fresh;
                    next_fresh += 1;
                }
                let m = &arena[window[slot] * STRIDE];
                let start = rec.due().then(Instant::now);
                let first = if fresh { CREATE } else { RECREATE };
                let ok = rec.part(first, || service.lock(m)).is_ok()
                    & service.unlock(m).is_ok()
                    & service.lock(m).is_ok()
                    & service.unlock(m).is_ok()
                    & rec.part(FREE, || service.free(m));
                if let Some(start) = start {
                    rec.push(WHOLE, start.elapsed());
                }
                failed += u64::from(!ok);
            }
            WorkerOutcome {
                ops: ops_per_worker,
                failed,
                rec,
                extra: Vec::new(),
            }
        });
        let retained_kb = rep
            .rss_kb
            .zip(rss_before)
            .map(|(after, before)| after.saturating_sub(before));
        let after = traced.then(|| service.telemetry_snapshot());

        rep.check_failed = setup_failed;
        // Everything was freed: the table must be empty.
        if service.lock_count() != 0 {
            rep.check_failed += 1;
        }
        let call_errors: u64 = rep.workers.iter().map(|w| w.out.failed).sum();
        rep.layers.push(("service.errors", call_errors as f64));
        rep.layers.push(("systems.acquisitions_per_op", 2.0));
        if let (Some(before), Some(after)) = (before, after) {
            layers::from_snapshots(&before, &after, rep.attempted(), &mut rep.layers);
            rep.push_kind_percentile("entry.create_ns_p50", CREATE, 0.5);
            rep.push_kind_percentile("entry.recreate_ns_p50", RECREATE, 0.5);
            rep.push_kind_percentile("entry.free_ns_p50", FREE, 0.5);
            super::push_common_layers(&mut rep);
        } else if let Some(kb) = retained_kb {
            // Only untraced repetitions: a traced one also grows by its own
            // latency samples.
            let freed = service.retired_count().max(1);
            rep.layers.push((
                "entry.bytes_per_freed_lock",
                kb as f64 * 1024.0 / freed as f64,
            ));
        }
        rep
    }
}
