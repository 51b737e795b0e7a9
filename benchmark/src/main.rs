//! `gls_benchmark`: the repo benchmark. See `README.md` in this directory for
//! the metric and workload catalogue and how to read the output.
//!
//! ```text
//! gls_benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! gls_benchmark                    every workload, end to end then traced
//! gls_benchmark --ladder           the cost ladder alone
//! gls_benchmark --repeat-check     the end-to-end set twice, medians compared
//! ```
//!
//! A `--workload` run ends with one JSON line: `correct`, `attempted`,
//! `failed` and the end-to-end (`--trace 0`) or per-layer (`--trace 1`)
//! metrics.

// The benchmark's job is wall-clock pacing and comparing against std
// primitives, which the root workspace's clippy.toml reserves for code like
// this.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

mod catalogue;
mod harness;
mod json;
mod ladder;
mod layers;
mod stats;
mod streams;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use catalogue::{Metric, END_TO_END, OP_P99_NS, PER_LAYER};
use harness::{proc_status_kb, Env, Rep, REPS, WARMUP};
use json::Json;
use stats::{median, percentile, quartiles, spread};
use workloads::{build, Workload};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    ladder: bool,
    repeat_check: bool,
}

const USAGE: &str = "usage: gls_benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--ladder] [--repeat-check]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        ladder: false,
        repeat_check: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name}; one of {:?}",
                        workloads::NAMES
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--ladder" => args.ladder = true,
            "--repeat-check" => args.repeat_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One metric's values over the repetitions of a run.
struct Series {
    metric: &'static Metric,
    values: Vec<f64>,
    /// Individual measurements behind each value (latency samples for the
    /// percentiles, 1 otherwise).
    samples: usize,
}

/// The end-to-end result of one run of one workload.
struct EndToEnd {
    /// One series per [`END_TO_END`] entry, in catalogue order.
    series: Vec<Series>,
    /// The latency tail: printed, not held to a bound.
    p99: Series,
    attempted: u64,
    failed: u64,
    pinned: bool,
    /// `VmHWM` of the process when the run ended, in MB.
    rss_peak_mb: f64,
}

fn rep_length(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds / REPS as f64)
}

fn kb_to_mb(kb: Option<u64>) -> f64 {
    kb.map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Warm-up, then [`REPS`] untraced repetitions on the shipped configuration.
fn end_to_end(workload: &dyn Workload, env: &Env, seconds: f64) -> EndToEnd {
    let length = rep_length(seconds);
    workload.rep(env, length.min(WARMUP), false);
    let reps: Vec<Rep> = (0..REPS)
        .map(|_| workload.rep(env, length, false))
        .collect();

    let samples: Vec<Vec<u32>> = reps.iter().map(Rep::sorted_samples).collect();
    let sample_count = samples.iter().map(Vec::len).min().unwrap_or(0);
    let quantile = |q: f64| {
        samples
            .iter()
            .map(|s| f64::from(percentile(s, q)))
            .collect()
    };
    let series = |metric: &'static Metric| {
        let (values, samples) = match metric.name {
            "ops_per_s" => (reps.iter().map(Rep::ops_per_s).collect(), 1),
            "op_p50_ns" => (quantile(0.5), sample_count),
            "op_p99_ns" => (quantile(0.99), sample_count),
            "rss_mb" => (reps.iter().map(|r| kb_to_mb(r.rss_kb)).collect(), 1),
            "setup_s" => (reps.iter().map(|r| r.setup_s).collect(), 1),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        };
        Series {
            metric,
            values,
            samples,
        }
    };
    EndToEnd {
        series: END_TO_END.iter().map(series).collect(),
        p99: series(&OP_P99_NS),
        attempted: reps.iter().map(Rep::attempted).sum(),
        failed: reps.iter().map(Rep::failed).sum(),
        pinned: reps.iter().all(Rep::pinned),
        rss_peak_mb: kb_to_mb(proc_status_kb("VmHWM")),
    }
}

/// The per-layer result of one traced run: one untraced repetition (the base
/// of `trace.overhead_ratio`), two traced ones, then the ladder.
struct Traced {
    /// One value per catalogue entry, in catalogue order; 0 where the
    /// workload does not exercise the layer.
    values: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn traced(workload: &dyn Workload, env: &Env, seconds: f64) -> Traced {
    let length = rep_length(seconds);
    workload.rep(env, length.min(WARMUP), false);
    let plain = workload.rep(env, length, false);
    let reps: Vec<Rep> = (0..2).map(|_| workload.rep(env, length, true)).collect();

    let traced_rate = median(&reps.iter().map(Rep::ops_per_s).collect::<Vec<_>>());
    let mut measured = vec![("trace.overhead_ratio", plain.ops_per_s() / traced_rate)];
    let plain_samples = plain.sorted_samples();
    if !plain_samples.is_empty() {
        let p99 = percentile(&plain_samples, 0.99);
        measured.push(("systems.op_ns_p99", f64::from(p99)));
    }
    measured.extend(ladder::run(env, length, workload.live_locks()));
    let all: Vec<&Rep> = reps.iter().chain([&plain]).collect();
    for rep in &all {
        measured.extend(rep.layers.iter().copied());
    }
    let values = PER_LAYER
        .iter()
        .map(|metric| {
            let seen: Vec<f64> = measured
                .iter()
                .filter(|(name, _)| *name == metric.name)
                .map(|(_, v)| *v)
                .collect();
            if seen.is_empty() {
                0.0
            } else {
                median(&seen)
            }
        })
        .collect();
    assert!(
        measured
            .iter()
            .all(|(n, _)| PER_LAYER.iter().any(|m| m.name == *n)),
        "a measured layer metric is missing from the catalogue"
    );
    Traced {
        values,
        attempted: all.iter().map(|r| r.attempted()).sum(),
        failed: all.iter().map(|r| r.failed()).sum(),
    }
}

fn print_stamp(env: &Env, what: &str, seed: u64, seconds: f64) {
    println!(
        "# {what} seed={seed} nproc={} workers={} reps={REPS} rep_seconds={:.3} warmup_seconds<={} \
         git={} rustc=\"{}\"",
        env.nproc,
        env.workers,
        rep_length(seconds).as_secs_f64(),
        WARMUP.as_secs(),
        env.git_rev,
        env.rustc,
    );
}

/// Prints one workload's end-to-end table. A metric is `unresolved` — no
/// number is printed — when pinning failed or its spread over the
/// repetitions exceeds its own bound.
fn print_end_to_end(name: &str, result: &EndToEnd) {
    println!(
        "## {name}: attempted={} failed={} failed_ops_share={} pinned={} rss_peak_mb={:.3}",
        result.attempted,
        result.failed,
        result.failed as f64 / result.attempted.max(1) as f64,
        result.pinned,
        result.rss_peak_mb
    );
    for s in result.series.iter().chain([&result.p99]) {
        let (q1, q3) = quartiles(&s.values);
        let spread = spread(&s.values);
        let gated = s.metric.bound > 0.0;
        let label = format!(
            "{name} {} [{}, {} is better]",
            s.metric.name, s.metric.unit, s.metric.better
        );
        if !result.pinned {
            println!("{label:<58} unresolved (pinning failed)");
        } else if gated && spread > s.metric.bound {
            println!(
                "{label:<58} unresolved (spread {spread:.4} over the repetitions exceeds bound {})",
                s.metric.bound
            );
        } else {
            println!(
                "{label:<58} median={:.6} q1={q1:.6} q3={q3:.6} spread={spread:.4} reps={} \
                 samples/rep>={}{}",
                median(&s.values),
                s.values.len(),
                s.samples,
                if gated { "" } else { " (no bound)" }
            );
        }
        println!("    per repetition: {:?}", s.values);
    }
}

fn print_traced(name: &str, result: &Traced) {
    println!(
        "## {name} traced: attempted={} failed={}",
        result.attempted, result.failed
    );
    for (metric, value) in PER_LAYER.iter().zip(&result.values) {
        println!(
            "{name} {} [{}, {} is better] {value}",
            metric.name, metric.unit, metric.better
        );
    }
}

/// The contract line: the last line of a `--workload` run.
fn json_line<'a>(
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'a Metric, f64)>,
) -> String {
    let metrics: Vec<String> = metrics
        .map(|(m, v)| {
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// Runs one workload the way the driver does — in a process of its own, so
/// that its memory numbers owe nothing to the workload before it — relays its
/// report, and returns its result line if it exited cleanly.
fn run_child(name: &str, args: &Args, trace: bool) -> Option<Json> {
    let exe = std::env::current_exe().expect("the benchmark's own path");
    let output = std::process::Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("the benchmark can start itself");
    let report = String::from_utf8_lossy(&output.stdout);
    print!("{report}");
    let result = Json::parse(report.lines().last()?).ok()?;
    output.status.success().then_some(result)
}

/// Runs every workload end to end, then traced. Returns whether all output
/// checks passed.
fn run_everything(args: &Args) -> bool {
    let mut ok = true;
    for trace in [false, true] {
        for name in workloads::NAMES {
            ok &= run_child(name, args, trace).is_some();
        }
    }
    ok
}

/// Runs the end-to-end set twice back to back and compares the medians of
/// every (metric, workload) pair against the metric's bound.
fn repeat_check(args: &Args) -> bool {
    let set = || {
        workloads::NAMES
            .iter()
            .map(|name| run_child(name, args, false))
            .collect::<Vec<_>>()
    };
    let (first, second) = (set(), set());
    let mut ok = true;
    println!("# repeat-check: medians of two back-to-back sets");
    for (name, pair) in workloads::NAMES.iter().zip(first.iter().zip(&second)) {
        let (Some(one), Some(other)) = pair else {
            println!("{name}: unresolved (a run failed its output checks)");
            ok = false;
            continue;
        };
        for metric in END_TO_END {
            let value = |result: &Json| {
                let entry = result.get("metrics")?.get(metric.name)?;
                entry.get("value")?.num()
            };
            let (Some(a), Some(b)) = (value(one), value(other)) else {
                println!("{name} {}: missing from a result line", metric.name);
                ok = false;
                continue;
            };
            let differ = (a - b).abs() / a.abs().min(b.abs());
            let verdict = if differ <= metric.bound { "ok" } else { "FAIL" };
            println!(
                "{name} {} [{}] first={a:.6} second={b:.6} differ={differ:.4} bound={} {verdict}",
                metric.name, metric.unit, metric.bound
            );
            ok &= differ <= metric.bound;
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = Env::detect();

    let ok = if args.repeat_check {
        repeat_check(&args)
    } else if args.ladder {
        print_stamp(&env, "ladder", args.seed, args.seconds);
        for (name, value) in ladder::run(&env, rep_length(args.seconds), 68) {
            println!("{name} {value}");
        }
        true
    } else if let Some(name) = &args.workload {
        let workload = build(name, &env, args.seed);
        let what = if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        };
        print_stamp(&env, what, args.seed, args.seconds);
        println!("# input_hash={:016x}", workload.input_hash());
        if args.trace {
            let result = traced(&*workload, &env, args.seconds);
            print_traced(name, &result);
            let metrics = PER_LAYER.iter().zip(result.values.iter().copied());
            println!("{}", json_line(result.attempted, result.failed, metrics));
            result.failed == 0
        } else {
            let result = end_to_end(&*workload, &env, args.seconds);
            print_end_to_end(name, &result);
            let metrics = result.series.iter().map(|s| (s.metric, median(&s.values)));
            println!("{}", json_line(result.attempted, result.failed, metrics));
            result.failed == 0
        }
    } else {
        run_everything(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("a check failed; see the report above");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_env() -> Env {
        Env {
            nproc: 2,
            workers: 2,
            git_rev: "test".into(),
            rustc: "test".into(),
        }
    }

    #[test]
    fn inputs_come_from_the_seed_alone() {
        let env = test_env();
        for name in workloads::NAMES {
            let hash = |seed| build(name, &env, seed).input_hash();
            assert_eq!(hash(7), hash(7), "{name}: one seed, one input");
            assert_ne!(hash(7), hash(8), "{name}: another seed, another input");
        }
    }

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_and_counts_fit_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(["lower", "higher"].contains(&m.better));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(workloads::NAMES
            .iter()
            .all(|n| valid_name(n) && seen.insert(n)));
    }

    /// `BENCHMARK.json` at the repo root and the catalogue say the same.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let listed: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").unwrap().str().unwrap())
            .collect();
        assert_eq!(listed, workloads::NAMES);

        let check = |key: &str, catalogue: &[Metric], keys: &[&str]| {
            let items = doc.get(key).unwrap().items();
            assert_eq!(items.len(), catalogue.len(), "{key}");
            for (item, m) in items.iter().zip(catalogue) {
                assert_eq!(item.keys(), keys, "{}", m.name);
                assert_eq!(item.get("name").unwrap().str(), Some(m.name));
                assert_eq!(item.get("unit").unwrap().str(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    item.get("better").unwrap().str(),
                    Some(m.better),
                    "{}",
                    m.name
                );
                if let Some(bound) = item.get("bound") {
                    assert_eq!(bound.num(), Some(m.bound), "{}", m.name);
                }
            }
        };
        check(
            "end_to_end",
            END_TO_END,
            &["name", "unit", "better", "bound"],
        );
        check("per_layer", PER_LAYER, &["name", "unit", "better"]);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
    }

    #[test]
    fn the_result_line_is_the_contract_object() {
        let line = json_line(10, 0, END_TO_END.iter().map(|m| (m, 1.5)));
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").unwrap().num(), Some(10.0));
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.keys().len(), END_TO_END.len());
        for m in END_TO_END {
            let entry = metrics.get(m.name).unwrap();
            assert_eq!(entry.keys(), ["value", "unit"]);
            assert_eq!(entry.get("unit").unwrap().str(), Some(m.unit));
        }
        let failed = json_line(10, 1, std::iter::empty());
        assert_eq!(
            Json::parse(&failed).unwrap().get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
