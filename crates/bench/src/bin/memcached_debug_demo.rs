//! §5.1 debugging demo: GLS finds the two latent Memcached locking bugs.
//!
//! Builds the simulated Memcached with its two legacy bugs enabled, on top of
//! a GLS service running in debug mode, runs a short workload, and prints the
//! issue log — which must contain exactly the two warnings the paper shows
//! (an uninitialized `stats_lock` and an already-free
//! `slabs_rebalance_lock`), and nothing else.
//!
//! While the workload runs, a thread of the demo's own prints a
//! [`gls::TelemetrySnapshot`] every 100 ms — the always-on observability
//! view of the same run. `--snapshot-json PATH` additionally writes the
//! final snapshot as JSON so CI can validate it against the snapshot schema.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gls::{GlsConfig, GlsService};
use gls_bench::banner;
use gls_systems::memcached::{self, MemcachedConfig};
use gls_systems::LockProvider;

/// Prints a telemetry snapshot every 100 ms until `done` is set.
// A wall-clock period is the point of a periodic report.
#[allow(clippy::disallowed_methods)]
fn print_snapshots(service: &GlsService, done: &AtomicBool) {
    loop {
        std::thread::sleep(Duration::from_millis(100));
        if done.load(Ordering::Acquire) {
            return;
        }
        println!("{}", service.telemetry_snapshot());
    }
}

fn main() {
    let mut snapshot_json: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--snapshot-json" => {
                snapshot_json = Some(args.next().expect("--snapshot-json needs a path"));
            }
            other => panic!("unknown argument: {other}"),
        }
    }

    banner(
        "§5.1 debug demo",
        "detecting the two latent Memcached locking bugs with GLS debug mode",
    );
    let service = Arc::new(GlsService::with_config(GlsConfig::debug()));
    let provider = LockProvider::Gls(Arc::clone(&service));
    let config = MemcachedConfig {
        threads: 4,
        keys: 10_000,
        duration: Duration::from_millis(200),
        ..Default::default()
    }
    .with_legacy_bugs(true);

    // Periodic observability: print a telemetry snapshot while the workload
    // runs, exactly as a long-lived server would.
    let done = AtomicBool::new(false);
    let result = std::thread::scope(|s| {
        s.spawn(|| print_snapshots(&service, &done));
        let result = memcached::run(&provider, &config);
        done.store(true, Ordering::Release);
        result
    });
    println!(
        "# workload finished: {} operations in {:?}",
        result.operations, result.elapsed
    );

    let snapshot = service.telemetry_snapshot();
    println!("# final telemetry snapshot:");
    println!("{snapshot}");
    if let Some(path) = snapshot_json {
        std::fs::write(&path, snapshot.to_json()).expect("writing the snapshot JSON");
        println!("# wrote {path}");
    }

    println!("# issues reported by GLS:");
    let issues = service.issues();
    for issue in &issues {
        println!("{issue}");
    }
    let uninitialized = issues
        .iter()
        .filter(|i| i.category() == "uninitialized-lock")
        .count();
    let already_free = issues
        .iter()
        .filter(|i| i.category() == "release-free-lock")
        .count();
    println!("# uninitialized-lock warnings: {uninitialized}");
    println!("# release-free-lock warnings:  {already_free}");
    assert!(uninitialized >= 1, "the stats_lock bug must be detected");
    assert!(
        already_free >= 1,
        "the slabs_rebalance_lock bug must be detected"
    );
    println!("# both §5.1 issues detected, as in the paper");
}
