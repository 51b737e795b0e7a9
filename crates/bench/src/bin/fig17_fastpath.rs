//! Figure 17 (extension): what the GLS fast path costs next to a raw lock.
//!
//! The paper calls GLS "essentially a cache for locating the lock object
//! that corresponds to an address" (§4.1); this harness measures exactly
//! that claim. Every worker thread owns a **private** set of lock
//! addresses (so the locks themselves are uncontended and the numbers
//! isolate the address → entry mapping, not lock handover) and round-robins
//! lock/unlock over them. Sweeping the per-thread working set across
//! {1, 2, 8, 64} addresses exposes the cache geometry: a single-entry cache
//! thrashes from 2 locks on, the set-associative cache holds up to
//! `CACHE_SETS × CACHE_WAYS` mappings per thread.
//!
//! Five flavors per working-set size:
//!
//! * `raw_ttas`    — a plain [`TtasLock`] per address: the floor.
//! * `gls_cached`  — GLS with TTAS entries, per-thread lock cache on.
//! * `gls_uncached`— the same service with the cache disabled: every
//!   operation pays the CLHT lookup. The gap to `gls_cached` is what the
//!   cache buys; the gap to `raw_ttas` is the total service overhead.
//! * `gls_profiled`— profile mode, measuring what enabling the profiler
//!   costs on the fast path now that its stats are sharded per thread.
//! * `gls_sampled` — profile mode with the adaptive sampling gate
//!   (`GlsConfig::with_sampling`): the cycle counter is read on every Nth
//!   acquisition only, with N adapted per thread toward the samples/sec
//!   budget. Acquisition *counts* stay exact either way.
//!
//! A second, contended section compares normal vs profile mode (full
//! measurement and sampled) on **one shared** lock across threads:
//! pre-sharding, the profiler serialized contended acquirers on a shared
//! stat cacheline before they even reached the lock word; sampling removes
//! most of the remaining timestamp cost.
//!
//! Worker threads are pinned round-robin over the hardware contexts; the
//! thread sweep runs up to one worker per context (the multi-core headline)
//! plus an oversubscribed point (`contexts + 2`).
//!
//! Besides the human-readable tables, the harness writes machine-readable
//! `BENCH_fastpath.json` (override with `--out PATH`) so the repository
//! accumulates a fast-path perf trajectory PR over PR; every point carries
//! the host topology (`hardware_contexts`, `cache_domains`) and pinning
//! layout so runs from different machines stay comparable. `--smoke`
//! shrinks the sweep for CI.

// Benchmarks measure against raw std primitives as the baseline and pace
// phases with wall-clock sleeps; both are deliberate (see clippy.toml).
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use gls::{
    reset_thread_cache_stats, thread_cache_stats, CacheStats, GlsConfig, GlsMode, GlsService,
    CACHE_SETS, CACHE_WAYS,
};
use gls_bench::{banner, point_duration};
use gls_locks::{LockKind, RawLock, TtasLock};
use gls_runtime::spin_cycles;
use gls_workloads::report::SeriesTable;

/// Sampling budget used by the `gls_sampled` flavors: plenty of fidelity
/// (10k measured acquisitions per second per thread) while keeping the two
/// `rdtsc` reads off virtually every fast-path acquisition.
const SAMPLING_BUDGET: u64 = 10_000;

/// GLS service flavors measured against the raw lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flavor {
    RawTtas,
    GlsCached,
    GlsUncached,
    GlsProfiled,
    GlsSampled,
}

impl Flavor {
    const ALL: [Flavor; 5] = [
        Flavor::RawTtas,
        Flavor::GlsCached,
        Flavor::GlsUncached,
        Flavor::GlsProfiled,
        Flavor::GlsSampled,
    ];

    fn name(self) -> &'static str {
        match self {
            Flavor::RawTtas => "raw_ttas",
            Flavor::GlsCached => "gls_cached",
            Flavor::GlsUncached => "gls_uncached",
            Flavor::GlsProfiled => "gls_profiled",
            Flavor::GlsSampled => "gls_sampled",
        }
    }

    fn service(self) -> Option<GlsService> {
        // TTAS entries everywhere so every flavor pays the same lock
        // algorithm and the delta is purely the service layer.
        let base = GlsConfig::default().with_default_kind(LockKind::Ttas);
        match self {
            Flavor::RawTtas => None,
            Flavor::GlsCached => Some(GlsService::with_config(base)),
            Flavor::GlsUncached => Some(GlsService::with_config(base.with_lock_cache(false))),
            Flavor::GlsProfiled => Some(GlsService::with_config(base.with_mode(GlsMode::Profile))),
            Flavor::GlsSampled => Some(GlsService::with_config(
                base.with_mode(GlsMode::Profile)
                    .with_sampling(SAMPLING_BUDGET),
            )),
        }
    }
}

/// One measured point of the private-locks matrix.
struct Point {
    flavor: &'static str,
    threads: usize,
    locks_per_thread: usize,
    ns_per_op: f64,
    ops: u64,
    cache: CacheStats,
}

/// Runs [`run_private_point_once`] `GLS_BENCH_REPS` times and keeps the
/// repetition with the median ns/op (latency floors are what the fast-path
/// comparison is about; the median rejects runs polluted by background
/// load).
fn run_private_point(flavor: Flavor, threads: usize, locks_per_thread: usize) -> Point {
    let mut runs: Vec<Point> = (0..gls_bench::repetitions())
        .map(|_| run_private_point_once(flavor, threads, locks_per_thread))
        .collect();
    runs.sort_by(|a, b| a.ns_per_op.total_cmp(&b.ns_per_op));
    runs.swap_remove(runs.len() / 2)
}

/// Runs `threads` workers, each round-robining lock/unlock over its own
/// `locks_per_thread` private addresses. Returns ns/op plus the summed
/// per-thread cache counters.
fn run_private_point_once(flavor: Flavor, threads: usize, locks_per_thread: usize) -> Point {
    let service = flavor.service().map(Arc::new);
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let service = service.clone();
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Measure from a known placement: worker t on context
                // t % hardware_contexts().
                gls_bench::pin_worker(t);
                // Private, well-spread addresses: thread t uses the block
                // [(t+1) << 24, ...) in cacheline steps.
                let addrs: Vec<usize> = (0..locks_per_thread)
                    .map(|i| ((t + 1) << 24) + i * 64)
                    .collect();
                let raw: Vec<TtasLock> = (0..locks_per_thread).map(|_| TtasLock::new()).collect();
                // Warm the table and the cache out of the measurement.
                if let Some(svc) = &service {
                    for &a in &addrs {
                        svc.lock(a).unwrap();
                        svc.unlock(a).unwrap();
                    }
                }
                reset_thread_cache_stats();
                barrier.wait();
                let mut ops = 0u64;
                let mut i = 0usize;
                match &service {
                    None => {
                        while !stop.load(Ordering::Relaxed) {
                            raw[i].lock();
                            raw[i].unlock();
                            i += 1;
                            if i == locks_per_thread {
                                i = 0;
                            }
                            ops += 1;
                        }
                    }
                    Some(svc) => {
                        while !stop.load(Ordering::Relaxed) {
                            svc.lock(addrs[i]).unwrap();
                            svc.unlock(addrs[i]).unwrap();
                            i += 1;
                            if i == locks_per_thread {
                                i = 0;
                            }
                            ops += 1;
                        }
                    }
                }
                (ops, thread_cache_stats())
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(point_duration());
    stop.store(true, Ordering::Relaxed);
    let elapsed = start.elapsed();
    let mut ops = 0u64;
    let mut cache = CacheStats::default();
    for h in handles {
        let (thread_ops, thread_cache) = h.join().unwrap();
        ops += thread_ops;
        cache = cache + thread_cache;
    }
    Point {
        flavor: flavor.name(),
        threads,
        locks_per_thread,
        ns_per_op: elapsed.as_nanos() as f64 * threads as f64 / ops.max(1) as f64,
        ops,
        cache,
    }
}

/// One measured point of the shared-lock (contended) matrix.
struct SharedPoint {
    mode: &'static str,
    threads: usize,
    mops_per_sec: f64,
}

/// Profiler configuration of a shared-lock point: off, on with full
/// measurement (every acquisition timed), or on with adaptive sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SharedMode {
    Normal,
    ProfiledFull,
    ProfiledSampled,
}

impl SharedMode {
    const ALL: [SharedMode; 3] = [
        SharedMode::Normal,
        SharedMode::ProfiledFull,
        SharedMode::ProfiledSampled,
    ];

    fn name(self) -> &'static str {
        match self {
            SharedMode::Normal => "gls_normal",
            SharedMode::ProfiledFull => "gls_profiled",
            SharedMode::ProfiledSampled => "gls_sampled",
        }
    }
}

/// All threads hammer **one** shared GLS lock; compares normal mode against
/// profile mode (full measurement and adaptive sampling), i.e. what turning
/// the profiler on costs under contention.
fn run_shared_point(mode: SharedMode, threads: usize) -> SharedPoint {
    let config = GlsConfig::default().with_default_kind(LockKind::Ttas);
    let config = match mode {
        SharedMode::Normal => config,
        SharedMode::ProfiledFull => config.with_mode(GlsMode::Profile),
        SharedMode::ProfiledSampled => config
            .with_mode(GlsMode::Profile)
            .with_sampling(SAMPLING_BUDGET),
    };
    let service = Arc::new(GlsService::with_config(config));
    const SHARED_ADDR: usize = 0x5EED_0000;
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                gls_bench::pin_worker(t);
                barrier.wait();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    service.lock(SHARED_ADDR).unwrap();
                    spin_cycles(100);
                    service.unlock(SHARED_ADDR).unwrap();
                    ops += 1;
                }
                ops
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(point_duration());
    stop.store(true, Ordering::Relaxed);
    let elapsed = start.elapsed();
    let ops: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    SharedPoint {
        mode: mode.name(),
        threads,
        mops_per_sec: ops as f64 / elapsed.as_secs_f64() / 1e6,
    }
}

fn thread_counts(smoke: bool) -> Vec<usize> {
    let max = gls_runtime::hardware_contexts();
    let mut counts = if smoke {
        vec![1, 2]
    } else {
        // The multi-core points (up to one worker per context) are the
        // headline; `max + 2` keeps an oversubscription point in the
        // trajectory, where workers fight for contexts.
        vec![1, max.div_ceil(2), max, max + 2]
    };
    counts.dedup();
    counts
}

fn json_escape_free(s: &str) -> &str {
    debug_assert!(!s.contains(['"', '\\']));
    s
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_fastpath.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out requires a path"),
            other => {
                eprintln!("unknown argument: {other} (supported: --smoke, --out PATH)");
                std::process::exit(2);
            }
        }
    }
    if smoke {
        // Tiny points: prove the harness end to end, not a measurement.
        std::env::set_var(gls_bench::BENCH_MS_ENV, "20");
    }

    banner(
        "Figure 17 (fast path)",
        "GLS address->entry mapping cost vs a raw TTAS lock",
    );
    println!(
        "# per-thread lock cache: {CACHE_SETS} sets x {CACHE_WAYS} ways ({} entries)",
        CACHE_SETS * CACHE_WAYS
    );

    let lpt_sweep: &[usize] = if smoke { &[1, 8] } else { &[1, 2, 8, 64] };
    let threads = thread_counts(smoke);

    let mut points = Vec::new();
    for &n in &threads {
        let mut table = SeriesTable::new(
            format!("Figure 17: uncontended lock+unlock latency, {n} thread(s) (ns/op)"),
            "locks/thread",
            Flavor::ALL.iter().map(|f| f.name().to_string()).collect(),
        );
        for &lpt in lpt_sweep {
            let row: Vec<Point> = Flavor::ALL
                .iter()
                .map(|&f| run_private_point(f, n, lpt))
                .collect();
            table.push_row(lpt.to_string(), row.iter().map(|p| p.ns_per_op).collect());
            points.extend(row);
        }
        table.print();
        println!();
    }

    let mut shared_points = Vec::new();
    let mut shared_table = SeriesTable::new(
        "Figure 17b: one shared lock, profiler off vs full vs sampled (Mops/s)",
        "threads",
        SharedMode::ALL
            .iter()
            .map(|m| m.name().to_string())
            .collect(),
    );
    for &n in &threads {
        let row: Vec<SharedPoint> = SharedMode::ALL
            .iter()
            .map(|&m| run_shared_point(m, n))
            .collect();
        shared_table.push_row(n.to_string(), row.iter().map(|p| p.mops_per_sec).collect());
        shared_points.extend(row);
    }
    shared_table.print();

    // ------------------------------------------------------------------
    // Machine-readable artifact.
    // ------------------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"figure\": \"fig17_fastpath\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  {},", gls_bench::topology_json_fields());
    let _ = writeln!(
        json,
        "  \"cache_geometry\": {{\"sets\": {CACHE_SETS}, \"ways\": {CACHE_WAYS}}},"
    );
    let _ = writeln!(
        json,
        "  \"point_duration_ms\": {},",
        point_duration().as_millis()
    );
    json.push_str("  \"private_locks_ns_per_op\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"flavor\": \"{}\", \"threads\": {}, \"locks_per_thread\": {}, \
             \"ns_per_op\": {:.2}, \"ops\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"cache_hit_rate\": {:.4}, {}}}",
            json_escape_free(p.flavor),
            p.threads,
            p.locks_per_thread,
            p.ns_per_op,
            p.ops,
            p.cache.hits,
            p.cache.misses,
            p.cache.hit_rate(),
            gls_bench::topology_json_fields(),
        );
        json.push_str(if i + 1 == points.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"shared_lock_mops\": [\n");
    for (i, p) in shared_points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"mode\": \"{}\", \"threads\": {}, \"mops_per_sec\": {:.4}, {}}}",
            json_escape_free(p.mode),
            p.threads,
            p.mops_per_sec,
            gls_bench::topology_json_fields(),
        );
        json.push_str(if i + 1 == shared_points.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("writing the JSON artifact");
    println!("\n# wrote {out_path}");
}
