//! Figure 16 (extension): parking-lot scalability over many live locks.
//!
//! The space argument for the parking subsystem, measured: sweep the number
//! of **live blocking locks** and compare
//!
//! * `MUTEX` — per-lock parking state ([`MutexLock`]: a cache-padded
//!   `Mutex + Condvar` pair in every lock),
//! * `FUTEX` — the word-sized [`FutexLock`] whose waiters park in the
//!   shared, sharded parking lot, and
//! * `STD` — `std::sync::Mutex<()>` as the system baseline.
//!
//! Worker threads are **pinned round-robin** over the hardware contexts and
//! pick locks zipfian-popular (α = 0.9: a hot head sees real contention and
//! parking while the long tail stresses the footprint), running a short
//! critical section. Two series per flavor:
//!
//! * `multicore` (headline) — one worker per hardware context, so lock
//!   handoffs actually cross cores (and cache domains, where the host has
//!   more than one);
//! * `oversubscribed` — hardware contexts + 2 workers, so blocked waiters
//!   must really release their contexts to make progress.
//!
//! Reported: throughput per working-set size plus the wait-state footprint
//! of each flavor. Every emitted point records the host topology
//! (`hardware_contexts`) and the pinning layout, so a
//! trajectory mixing single-context CI runs and dedicated multi-core runs
//! stays interpretable.
//!
//! Emits `BENCH_parking.json` (override with `--out PATH`); `--smoke`
//! shrinks the sweep and point duration so CI can validate the artifact
//! end to end.

// Benchmarks measure against raw std primitives as the baseline and pace
// phases with wall-clock sleeps; both are deliberate (see clippy.toml).
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gls_bench::{banner, point_duration};
use gls_locks::{FutexLock, MutexLock, RawLock};
use gls_runtime::spin_cycles;
use gls_workloads::report::SeriesTable;
use gls_workloads::Zipfian;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One lock flavor under test.
trait ParkBenchLock: Send + Sync + 'static {
    fn section(&self, cs_cycles: u64);
}

impl ParkBenchLock for MutexLock {
    fn section(&self, cs_cycles: u64) {
        self.lock();
        spin_cycles(cs_cycles);
        self.unlock();
    }
}

impl ParkBenchLock for FutexLock {
    fn section(&self, cs_cycles: u64) {
        self.lock();
        spin_cycles(cs_cycles);
        self.unlock();
    }
}

impl ParkBenchLock for std::sync::Mutex<()> {
    fn section(&self, cs_cycles: u64) {
        let _g = self.lock().expect("bench mutex poisoned");
        spin_cycles(cs_cycles);
    }
}

/// Measurements of one (series, flavor, live-lock-count) point.
struct Point {
    series: &'static str,
    flavor: &'static str,
    live_locks: usize,
    threads: usize,
    mops: f64,
}

/// Runs one (series, flavor, live-lock-count) point.
fn run_point<L: ParkBenchLock>(
    series: &'static str,
    flavor: &'static str,
    make: impl Fn() -> L,
    live_locks: usize,
    threads: usize,
) -> Point {
    let locks: Arc<Vec<L>> = Arc::new((0..live_locks).map(|_| make()).collect());
    let zipf = Arc::new(Zipfian::new(live_locks, 0.9));
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let locks = Arc::clone(&locks);
            let zipf = Arc::clone(&zipf);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Measure from a known placement, not wherever the
                // scheduler dropped the worker.
                gls_bench::pin_worker(t);
                // Register with the load monitor like every oversubscribed
                // workload in the harness.
                let _runnable = gls_runtime::SystemLoadMonitor::global().runnable_guard();
                let mut rng = StdRng::seed_from_u64(0xF16 + t as u64);
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let index = zipf.sample(&mut rng);
                    locks[index].section(150);
                    spin_cycles(50);
                    ops += 1;
                }
                ops
            })
        })
        .collect();
    std::thread::sleep(point_duration());
    stop.store(true, Ordering::Relaxed);
    let ops: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    Point {
        series,
        flavor,
        live_locks,
        threads,
        mops: ops as f64 / start.elapsed().as_secs_f64() / 1e6,
    }
}

fn json_escape_free(s: &str) -> &str {
    debug_assert!(!s.contains(['"', '\\']));
    s
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_parking.json");
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
        "Figure 16 (parking)",
        "per-lock-condvar parking vs the shared parking lot vs std",
    );
    let contexts = gls_runtime::hardware_contexts();

    println!(
        "# per-lock state: MUTEX {} B | FUTEX {} B | STD {} B",
        std::mem::size_of::<MutexLock>(),
        std::mem::size_of::<FutexLock>(),
        std::mem::size_of::<std::sync::Mutex<()>>(),
    );

    let flavors = ["MUTEX", "FUTEX", "STD"];
    let sweep: &[usize] = if smoke {
        &[16, 1_000]
    } else {
        &[16, 1_000, 10_000, 100_000]
    };
    // The headline series fills the machine (one pinned worker per
    // context: real cross-core handoffs); the oversubscription series adds
    // two more workers so blocked waiters must actually release their
    // contexts. On a single-context host the two differ only in degree —
    // the per-point topology fields keep that honest.
    let series: [(&'static str, usize); 2] =
        [("multicore", contexts), ("oversubscribed", contexts + 2)];
    let mut points: Vec<Point> = Vec::new();
    for (series_name, threads) in series {
        let mut table = SeriesTable::new(
            format!(
                "Figure 16 [{series_name}]: zipfian traffic over N live blocking locks, \
                 {threads} threads (Mops/s)"
            ),
            "locks",
            flavors.iter().map(|f| f.to_string()).collect(),
        );
        for &live_locks in sweep {
            let row = [
                run_point(series_name, "MUTEX", MutexLock::new, live_locks, threads),
                run_point(series_name, "FUTEX", FutexLock::new, live_locks, threads),
                run_point(
                    series_name,
                    "STD",
                    std::sync::Mutex::default,
                    live_locks,
                    threads,
                ),
            ];
            let label = if live_locks >= 1_000 {
                format!("{}k", live_locks / 1_000)
            } else {
                live_locks.to_string()
            };
            table.push_row(label, row.iter().map(|p| p.mops).collect());
            println!(
                "# [{series_name}] {live_locks} locks -> footprint: MUTEX {} kB | FUTEX {} kB",
                live_locks * std::mem::size_of::<MutexLock>() / 1024,
                live_locks * std::mem::size_of::<FutexLock>() / 1024,
            );
            points.extend(row);
        }
        table.print();
        println!();
    }
    println!(
        "# FUTEX keeps per-lock wait state at one word (queues live in the shared \
         parking lot)"
    );

    // ------------------------------------------------------------------
    // Machine-readable artifact.
    // ------------------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"figure\": \"fig16_parking\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  {},", gls_bench::topology_json_fields());
    let _ = writeln!(
        json,
        "  \"point_duration_ms\": {},",
        point_duration().as_millis()
    );
    let _ = writeln!(
        json,
        "  \"per_lock_state_bytes\": {{\"MUTEX\": {}, \"FUTEX\": {}, \"STD\": {}}},",
        std::mem::size_of::<MutexLock>(),
        std::mem::size_of::<FutexLock>(),
        std::mem::size_of::<std::sync::Mutex<()>>(),
    );
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"series\": \"{}\", \"flavor\": \"{}\", \"live_locks\": {}, \
             \"threads\": {}, \"mops_per_sec\": {:.4}, {}}}",
            json_escape_free(p.series),
            json_escape_free(p.flavor),
            p.live_locks,
            p.threads,
            p.mops,
            gls_bench::topology_json_fields(),
        );
        json.push_str(if i + 1 == points.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("writing the JSON artifact");
    println!("\n# wrote {out_path}");
}
