//! Always-on observability: sampling fidelity, flight-recorder wraparound,
//! and the telemetry snapshot's JSON export.

// Integration tests drive real threads on wall-clock time; raw std sync
// and sleeps are the point here (see clippy.toml).
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use gls::{GlsConfig, GlsMode, GlsService, LockTelemetry};
use gls_runtime::flight::{self, FlightEventKind, RING_CAPACITY};

/// Cycles spun inside the measured critical section. Large enough that the
/// CS dominates the (debug-build, unoptimized) lock/unlock bookkeeping whose
/// run-to-run drift would otherwise swamp a 10% fidelity comparison.
const CS_CYCLES: u64 = 2_000;

/// The one address the profiling tests hammer.
const ADDR: usize = 0xF1DE_1000;

/// Held by each test that hammers [`ADDR`], so they take turns on the CPUs:
/// a preemption inside a measured critical section adds a whole timeslice
/// (millions of cycles) to one sample, which swamps a 1-in-N average.
static HAMMERING: Mutex<()> = Mutex::new(());

/// Runs `iterations` lock/unlock pairs of [`ADDR`] on the calling thread.
fn hammer(service: &GlsService, iterations: u64) {
    for _ in 0..iterations {
        service.lock(ADDR).unwrap();
        gls_runtime::spin_cycles(CS_CYCLES);
        service.unlock(ADDR).unwrap();
    }
}

/// [`ADDR`]'s entry in the service's telemetry snapshot, once it exists.
fn telemetry_of(service: &GlsService) -> Option<LockTelemetry> {
    service
        .telemetry_snapshot()
        .locks
        .into_iter()
        .find(|l| l.addr == ADDR)
}

/// `(measured sections, their total cycles)` of [`ADDR`]; zeros before the
/// first acquisition.
fn cs_totals(service: &GlsService) -> (u64, f64) {
    telemetry_of(service).map_or((0, 0.0), |l| {
        let cs = l.cs_latency;
        (cs.count, cs.mean * cs.count as f64)
    })
}

/// Runs one chunk of `iterations` pairs and returns the average measured
/// critical section of that chunk alone.
fn chunk_avg_cs(service: &GlsService, iterations: u64) -> f64 {
    let (count_before, total_before) = cs_totals(service);
    hammer(service, iterations);
    let (count, total) = cs_totals(service);
    (total - total_before) / (count - count_before) as f64
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

#[test]
fn sampled_averages_track_full_measurement() {
    // Enough iterations for the sampler to pass dozens of adaptation
    // windows (4096 acquisitions each) and settle on a stride.
    const ITERATIONS: u64 = 150_000;
    // The two services run in alternating chunks on this one thread, so
    // load and clock drift hit both measurements alike instead of only
    // whichever runs first. Each side is judged by its median chunk: a
    // preemption inside one measured section inflates only its chunk.
    const CHUNKS: u64 = 10;
    let _turn = HAMMERING.lock().unwrap_or_else(PoisonError::into_inner);

    // Throwaway warmup so both measured services see a warm code path and
    // a steady clock.
    let warmup = GlsService::with_config(GlsConfig::default().with_mode(GlsMode::Profile));
    hammer(&warmup, 20_000);

    let full = GlsService::with_config(GlsConfig::default().with_mode(GlsMode::Profile));
    let sampled = GlsService::with_config(
        GlsConfig::default()
            .with_mode(GlsMode::Profile)
            .with_sampling(20_000),
    );
    let (mut full_chunks, mut sampled_chunks) = (Vec::new(), Vec::new());
    for _ in 0..CHUNKS {
        full_chunks.push(chunk_avg_cs(&full, ITERATIONS / CHUNKS));
        sampled_chunks.push(chunk_avg_cs(&sampled, ITERATIONS / CHUNKS));
    }

    // Acquisition counts are exact in both modes: sampling thins the
    // measurement, never the counting.
    for service in [&full, &sampled] {
        let lock = telemetry_of(service).expect("the profiled lock must appear");
        assert_eq!(lock.acquisitions, ITERATIONS);
    }
    // The 1-in-N path, whose bias this test exists for, must actually run.
    let (measured, _) = cs_totals(&sampled);
    assert!(
        measured < ITERATIONS / 2,
        "the sampler measured {measured} of {ITERATIONS} sections: it never thinned"
    );

    // The sampled average critical-section latency must track the full
    // measurement within 10%, plus a small absolute floor so cycle-counter
    // jitter cannot fail the test spuriously.
    let (full_avg, sampled_avg) = (median(full_chunks), median(sampled_chunks));
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
    let _turn = HAMMERING.lock().unwrap_or_else(PoisonError::into_inner);
    let service = GlsService::with_config(
        GlsConfig::default()
            .with_mode(GlsMode::Profile)
            .with_sampling(1_000),
    );
    hammer(&service, ITERATIONS);
    let lock = telemetry_of(&service).expect("the hammered lock must appear in the snapshot");
    assert_eq!(lock.acquisitions, ITERATIONS);
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
    assert_eq!(json_u64(&json, "version"), 3);
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
