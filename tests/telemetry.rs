//! Always-on observability: sampling fidelity, flight-recorder wraparound,
//! and the telemetry snapshot's JSON export.

// Integration tests drive real threads on wall-clock time; raw std sync
// and sleeps are the point here (see clippy.toml).
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gls::{GlsConfig, GlsMode, GlsService};
use gls_runtime::flight::{self, FlightEventKind, RING_CAPACITY};

/// Cycles spun inside the measured critical section. Large enough that the
/// CS dominates the (debug-build, unoptimized) lock/unlock bookkeeping whose
/// run-to-run drift would otherwise swamp a 10% fidelity comparison.
const CS_CYCLES: u64 = 2_000;

/// Profiles `iterations` lock/unlock pairs of one address on one thread and
/// returns `(acquisitions, avg_cs_latency)` for that lock.
fn profile_one_lock(service: &GlsService, iterations: u64) -> (u64, f64) {
    const ADDR: usize = 0xF1DE_1000;
    for _ in 0..iterations {
        service.lock(ADDR).unwrap();
        gls_runtime::spin_cycles(CS_CYCLES);
        service.unlock(ADDR).unwrap();
    }
    let report = service.profile_report();
    let profile = report
        .locks
        .iter()
        .find(|l| l.addr == ADDR)
        .expect("the profiled lock must appear in the report");
    (profile.acquisitions, profile.avg_cs_latency)
}

#[test]
fn sampled_averages_track_full_measurement() {
    // Enough iterations for the sampler to pass dozens of adaptation
    // windows (4096 acquisitions each) and settle on a stride.
    const ITERATIONS: u64 = 150_000;

    // Throwaway warmup so both measured runs see a warm code path and a
    // steady clock, not a cold-start first run vs a warm second.
    let warmup = GlsService::with_config(GlsConfig::default().with_mode(GlsMode::Profile));
    let _ = profile_one_lock(&warmup, 20_000);

    let full = GlsService::with_config(GlsConfig::default().with_mode(GlsMode::Profile));
    let (full_count, full_avg) = profile_one_lock(&full, ITERATIONS);

    let sampled = GlsService::with_config(
        GlsConfig::default()
            .with_mode(GlsMode::Profile)
            .with_sampling(20_000),
    );
    let (sampled_count, sampled_avg) = profile_one_lock(&sampled, ITERATIONS);

    // Acquisition counts are exact in both modes: sampling thins the
    // measurement, never the counting.
    assert_eq!(full_count, ITERATIONS);
    assert_eq!(sampled_count, ITERATIONS);

    // The sampled average critical-section latency must track the full
    // measurement within 10%, plus a small absolute floor so cycle-counter
    // jitter cannot fail the test spuriously.
    assert!(full_avg > 0.0, "full measurement must observe the CS");
    assert!(sampled_avg > 0.0, "sampling must still observe the CS");
    let tolerance = full_avg * 0.10 + 100.0;
    assert!(
        (sampled_avg - full_avg).abs() <= tolerance,
        "sampled avg cs latency {sampled_avg:.1} deviates from full measurement \
         {full_avg:.1} by more than {tolerance:.1} cycles"
    );
}

#[test]
fn sampling_measures_fewer_acquisitions_than_full_mode() {
    // With a deliberately tiny budget the stride must rise above 1, so the
    // latency histogram records far fewer samples than acquisitions while
    // the acquisition count stays exact.
    const ITERATIONS: u64 = 100_000;
    let service = GlsService::with_config(
        GlsConfig::default()
            .with_mode(GlsMode::Profile)
            .with_sampling(1_000),
    );
    let (count, _) = profile_one_lock(&service, ITERATIONS);
    assert_eq!(count, ITERATIONS);

    let snapshot = service.telemetry_snapshot();
    let lock = snapshot
        .locks
        .iter()
        .find(|l| l.acquisitions == ITERATIONS)
        .expect("the hammered lock must appear in the snapshot");
    assert!(
        lock.cs_latency.count < ITERATIONS / 2,
        "a 1k/s budget must thin measurement well below half ({} of {})",
        lock.cs_latency.count,
        ITERATIONS
    );
    assert!(
        lock.cs_latency.count > 0,
        "sampling must never silence the profiler entirely"
    );
}

#[test]
fn flight_ring_wraps_at_capacity() {
    let _ = flight::drain();
    for i in 0..(RING_CAPACITY as u64 + 25) {
        flight::record(FlightEventKind::Park, 0xABC, i);
    }
    let events = flight::drain();
    assert_eq!(events.len(), RING_CAPACITY);
    // Oldest retained is the first event of this batch not yet overwritten.
    assert_eq!(events[0].info, 25);
    assert_eq!(events[RING_CAPACITY - 1].info, RING_CAPACITY as u64 + 24);
    assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
}

/// Pulls `"key":<digits>` out of a flat JSON string (no spaces in our
/// exporter's output).
fn json_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} missing"));
    json[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not a number"))
}

#[test]
fn snapshot_json_round_trips_counts() {
    let service = GlsService::with_config(GlsConfig::default().with_mode(GlsMode::Profile));
    for addr in [0x1000usize, 0x2000, 0x3000] {
        for _ in 0..10 {
            service.lock(addr).unwrap();
            service.unlock(addr).unwrap();
        }
    }
    let snapshot = service.telemetry_snapshot();
    let json = snapshot.to_json();

    // Structural sanity: braces and brackets balance outside strings.
    let (mut depth, mut in_string, mut escaped) = (0i64, false, false);
    for c in json.chars() {
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
        } else {
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced JSON");
        }
    }
    assert_eq!(depth, 0, "unbalanced JSON");
    assert!(!in_string, "unterminated string");

    // The counters written into the JSON match the snapshot struct.
    assert_eq!(json_u64(&json, "version"), 2);
    assert_eq!(json_u64(&json, "lock_count"), snapshot.lock_count as u64);
    assert_eq!(json_u64(&json, "lock_count"), 3);
    assert_eq!(json_u64(&json, "glk_transitions"), snapshot.glk_transitions);
    assert!(json.contains("\"mode\":\"profile\""));
    assert!(json.contains("\"sampling_budget\":null"));
    assert_eq!(
        json.matches("\"acquisitions\":").count(),
        3,
        "every lock appears once"
    );
    // Every per-lock acquisition count is exactly the 10 we performed.
    assert_eq!(json.matches("\"acquisitions\":10,").count(), 3);
}

#[test]
fn publisher_delivers_snapshots_until_stopped() {
    let service = Arc::new(GlsService::new());
    service.lock(0x77).unwrap();
    service.unlock(0x77).unwrap();

    let seen = Arc::new(AtomicBool::new(false));
    let seen2 = Arc::clone(&seen);
    let publisher = service.spawn_telemetry_publisher(Duration::from_millis(10), move |snap| {
        assert!(snap.lock_count >= 1);
        seen2.store(true, Ordering::Release);
    });
    // The publisher emits at least one snapshot within a generous window.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !seen.load(Ordering::Acquire) {
        assert!(
            std::time::Instant::now() < deadline,
            "publisher never delivered a snapshot"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    publisher.stop();
}
