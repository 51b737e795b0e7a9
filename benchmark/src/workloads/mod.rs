//! The five workloads. Each builds its system from the layers' public
//! functions, owns its worker loop and checks its own outputs.

use std::sync::Arc;
use std::time::Duration;

use gls::{GlsConfig, GlsService};
use gls_systems::LockProvider;

use crate::harness::{Env, Rep};

mod churn;
mod kyoto;
mod memcached;
mod pipeline;

/// Workload names, in reporting order. Later issues cite them.
pub const NAMES: [&str; 5] = [
    "memcached_get",
    "memcached_set",
    "kyoto_cache",
    "lock_churn",
    "condvar_pipeline",
];

/// Samples per second per thread the traced runs' profiler times.
pub const SAMPLING_BUDGET: u64 = 10_000;

pub trait Workload {
    /// Identity of the seeded input: one seed, one hash.
    fn input_hash(&self) -> u64;

    /// Lock objects the service's table holds while this workload runs; the
    /// ladder's direct `Clht` rungs use a table of this size.
    fn live_locks(&self) -> usize;

    /// One repetition on a fresh service and a fresh system. `length` is the
    /// measured time (a work amount sized to it for the fixed-work
    /// workloads). Traced repetitions time every op, run the service in
    /// sampled profile mode and fill `Rep::layers`.
    fn rep(&self, env: &Env, length: Duration, traced: bool) -> Rep;
}

/// Builds the inputs of the workload called `name` (one of [`NAMES`]) from
/// `seed`.
pub fn build(name: &str, env: &Env, seed: u64) -> Box<dyn Workload> {
    match name {
        "memcached_get" => Box::new(memcached::Memcached::new("memcached_get", 900, env, seed)),
        "memcached_set" => Box::new(memcached::Memcached::new("memcached_set", 100, env, seed)),
        "kyoto_cache" => Box::new(kyoto::KyotoCache::new(env, seed)),
        "lock_churn" => Box::new(churn::LockChurn::new(env, seed)),
        "condvar_pipeline" => Box::new(pipeline::CondvarPipeline::new(env, seed)),
        other => panic!("{other} is not one of {NAMES:?}"),
    }
}

/// The service configuration under test: what the paper ships (normal mode,
/// GLK entries, thread cache on) for end-to-end repetitions, the sampled
/// profiler for traced ones.
fn config(traced: bool) -> GlsConfig {
    if traced {
        GlsConfig::profile().with_sampling(SAMPLING_BUDGET)
    } else {
        GlsConfig::default()
    }
}

/// The lock provider for the `gls_systems` models, plus the service behind
/// it when the repetition is traced and will read its telemetry.
fn provider(traced: bool) -> (LockProvider, Option<Arc<GlsService>>) {
    if traced {
        let service = Arc::new(GlsService::with_config(config(true)));
        (LockProvider::Gls(Arc::clone(&service)), Some(service))
    } else {
        (LockProvider::gls(), None)
    }
}

/// Share of all operations done by the slowest of the workers that do
/// operations, times their number: 1.0 is perfectly even.
fn worker_min_share(rep: &Rep) -> f64 {
    let counts: Vec<u64> = rep
        .workers
        .iter()
        .map(|w| w.out.ops)
        .filter(|&n| n > 0)
        .collect();
    match counts.iter().min() {
        Some(&min) => min as f64 * counts.len() as f64 / counts.iter().sum::<u64>() as f64,
        None => 0.0,
    }
}

/// The numbers every traced repetition derives from its own samples.
fn push_common_layers(rep: &mut Rep) {
    let all = rep.sorted_samples();
    if !all.is_empty() {
        let p999 = crate::stats::percentile(&all, 0.999);
        rep.layers.push(("systems.op_ns_p999", f64::from(p999)));
    }
    let share = worker_min_share(rep);
    rep.layers.push(("systems.worker_min_share", share));
}
