//! Runtime telemetry snapshots (ROADMAP item 5, observability half).
//!
//! A [`TelemetrySnapshot`] captures, at one moment, everything the locking
//! middleware knows about itself: per-lock profiles with full latency
//! *distributions* (p50/p99/p999, not just averages), lock-cache hit rates,
//! parking-lot occupancy and requeues, GLK mode transitions and the debug
//! mode's lock-order graph. Snapshots are cheap (relaxed reads plus one
//! table walk), export themselves as JSON ([`TelemetrySnapshot::to_json`])
//! or human text (`Display`). The library starts no thread: a caller that
//! wants periodic snapshots calls [`GlsService::telemetry_snapshot`] from a
//! loop of its own.
//!
//! Scope: the per-lock profiles, mode-transition totals and deadlock
//! counters are **service-scoped** (they come from this service's entries
//! and debug state); the lock-cache aggregate and parking-lot counters are
//! **process-wide** (those subsystems are shared by every service in the
//! process). A snapshot labels itself accordingly rather than pretending
//! one service owns the whole process.
//!
//! [`GlsService::telemetry_snapshot`]: crate::GlsService::telemetry_snapshot

use std::fmt;

use gls_locks::{LockKind, ParkingLotStats};
use gls_runtime::LatencyHistogram;

use super::cache::CacheStats;
use super::config::GlsMode;

/// Summary of one latency distribution, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Number of measured samples.
    pub count: u64,
    /// Exact mean of the samples.
    pub mean: f64,
    /// Smallest sample (0 if empty).
    pub min: u64,
    /// Largest sample (0 if empty).
    pub max: u64,
    /// Median (upper bucket bound).
    pub p50: u64,
    /// 99th percentile (upper bucket bound).
    pub p99: u64,
    /// 99.9th percentile (upper bucket bound).
    pub p999: u64,
}

impl HistogramSummary {
    /// Summarizes a histogram.
    pub fn of(hist: &LatencyHistogram) -> Self {
        Self {
            count: hist.count(),
            mean: hist.mean(),
            min: hist.min(),
            max: hist.max(),
            p50: hist.p50(),
            p99: hist.p99(),
            p999: hist.p999(),
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"count\":{},\"mean\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{},\"p999\":{}}}",
            self.count,
            json_f64(self.mean),
            self.min,
            self.max,
            self.p50,
            self.p99,
            self.p999
        )
    }
}

/// Telemetry for one lock object: the profiler's queue average, the latency
/// distributions and the adaptive-mode transition count. Its `Display` is
/// the paper's §4.3 profiler line, whose latencies are the distributions'
/// means:
///
/// ```text
/// [GLS] queue: 4.50 | l-lat: 13963 | cs-lat: 2848 @ (0x7fe6318eb4e0:GLK)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LockTelemetry {
    /// The address this lock was created for.
    pub addr: usize,
    /// Lock algorithm behind this address.
    pub algorithm: LockKind,
    /// Completed acquisitions (exact — sampling never thins this).
    pub acquisitions: u64,
    /// Average queuing behind the lock at (measured) acquisition time.
    pub avg_queue: f64,
    /// Acquisition-latency distribution of measured acquisitions.
    pub lock_latency: HistogramSummary,
    /// Critical-section-latency distribution of measured sections.
    pub cs_latency: HistogramSummary,
    /// Mode transitions this lock performed (adaptive entries only).
    pub transitions: u64,
}

impl fmt::Display for LockTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[GLS] queue: {:.2} | l-lat: {:.0} | cs-lat: {:.0} @ ({:#x}:{})",
            self.avg_queue, self.lock_latency.mean, self.cs_latency.mean, self.addr, self.algorithm
        )
    }
}

impl LockTelemetry {
    fn to_json(&self) -> String {
        format!(
            "{{\"addr\":{},\"algorithm\":\"{}\",\"acquisitions\":{},\"avg_queue\":{},\
             \"lock_latency\":{},\"cs_latency\":{},\"transitions\":{}}}",
            self.addr,
            self.algorithm,
            self.acquisitions,
            json_f64(self.avg_queue),
            self.lock_latency.to_json(),
            self.cs_latency.to_json(),
            self.transitions
        )
    }
}

/// The debug mode's lock-order checking (zeros in the other modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeadlockTelemetry {
    /// Distinct edges in the lock-order graph: the detector's size.
    pub edges: u64,
    /// Reported lock-order cycles (each dumped a flight-recorder trail).
    pub confirmed: u64,
}

/// A point-in-time view of the middleware's internal state. Build one with
/// [`GlsService::telemetry_snapshot`](crate::GlsService::telemetry_snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Operating mode of the service the snapshot was taken from.
    pub mode: GlsMode,
    /// Profile-mode sampling budget (samples/sec/thread), `None` = full
    /// measurement.
    pub sampling_budget: Option<u64>,
    /// Live lock objects in the service's table.
    pub lock_count: usize,
    /// Freed lock objects still resident: tombstones (resurrectable) plus
    /// the pool of swept entries awaiting reuse.
    pub retired_count: usize,
    /// Per-lock telemetry, most contended first (service-scoped).
    pub locks: Vec<LockTelemetry>,
    /// Lock-cache counters aggregated across threads (process-wide; exited
    /// threads plus the calling thread).
    pub cache: CacheStats,
    /// Shared parking-lot occupancy and requeues (process-wide).
    pub parking_lot: ParkingLotStats,
    /// Total GLK mode transitions across this service's entries.
    pub glk_transitions: u64,
    /// Lock-order checking (service-scoped, debug mode).
    pub deadlock: DeadlockTelemetry,
}

impl TelemetrySnapshot {
    /// Serializes the snapshot as a single JSON object (schema version 3;
    /// validated in CI by `scripts/validate_snapshot_schema.py`).
    pub fn to_json(&self) -> String {
        let locks: Vec<String> = self.locks.iter().map(LockTelemetry::to_json).collect();
        format!(
            "{{\"version\":3,\"mode\":\"{}\",\"sampling_budget\":{},\"lock_count\":{},\
             \"retired_count\":{},\"locks\":[{}],\
             \"cache\":{{\"hits\":{},\"misses\":{},\"invalidations\":{},\"hit_rate\":{}}},\
             \"parking_lot\":{{\"buckets\":{},\"parked\":{},\"growth_events\":{},\
             \"requeued_waiters\":{}}},\
             \"glk_transitions\":{},\
             \"deadlock\":{{\"edges\":{},\"confirmed\":{}}}}}",
            mode_str(self.mode),
            match self.sampling_budget {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            },
            self.lock_count,
            self.retired_count,
            locks.join(","),
            self.cache.hits,
            self.cache.misses,
            self.cache.invalidations,
            json_f64(self.cache.hit_rate()),
            self.parking_lot.buckets,
            self.parking_lot.parked,
            self.parking_lot.growth_events,
            self.parking_lot.requeued_waiters,
            self.glk_transitions,
            self.deadlock.edges,
            self.deadlock.confirmed
        )
    }
}

fn mode_str(mode: GlsMode) -> &'static str {
    match mode {
        GlsMode::Normal => "normal",
        GlsMode::Debug => "debug",
        GlsMode::Profile => "profile",
    }
}

/// JSON-safe float: `NaN`/`Inf` have no JSON representation, and a
/// telemetry exporter must never emit an unparseable document because one
/// average divided by zero.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl fmt::Display for TelemetrySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[GLS telemetry] mode={} sampling={} locks={} (+{} retired) \
             cache: {} hits / {} misses ({:.1}% hit rate, {} invalidations)",
            mode_str(self.mode),
            match self.sampling_budget {
                Some(b) => format!("{b}/s"),
                None => "full".to_string(),
            },
            self.lock_count,
            self.retired_count,
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
            self.cache.invalidations,
        )?;
        writeln!(
            f,
            "[GLS telemetry] parking lot: {} buckets, {} parked, {} requeues \
             | glk transitions: {} | deadlock: {} order edges, {} cycles",
            self.parking_lot.buckets,
            self.parking_lot.parked,
            self.parking_lot.requeued_waiters,
            self.glk_transitions,
            self.deadlock.edges,
            self.deadlock.confirmed,
        )?;
        for lock in &self.locks {
            writeln!(
                f,
                "{lock} | acq: {} | l-lat p50/p99/p999: {}/{}/{} | cs-lat p50/p99/p999: {}/{}/{}",
                lock.acquisitions,
                lock.lock_latency.p50,
                lock.lock_latency.p99,
                lock.lock_latency.p999,
                lock.cs_latency.p50,
                lock.cs_latency.p99,
                lock.cs_latency.p999,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            mode: GlsMode::Profile,
            sampling_budget: Some(5_000),
            lock_count: 1,
            retired_count: 0,
            locks: vec![LockTelemetry {
                addr: 0x1000,
                algorithm: LockKind::Glk,
                acquisitions: 42,
                avg_queue: 1.5,
                lock_latency: HistogramSummary {
                    count: 42,
                    mean: 100.0,
                    min: 50,
                    max: 400,
                    p50: 127,
                    p99: 511,
                    p999: 511,
                },
                cs_latency: HistogramSummary::default(),
                transitions: 2,
            }],
            cache: CacheStats {
                hits: 90,
                misses: 10,
                invalidations: 1,
            },
            parking_lot: ParkingLotStats {
                buckets: 32,
                parked: 3,
                growth_events: 0,
                requeued_waiters: 4,
            },
            glk_transitions: 2,
            deadlock: DeadlockTelemetry {
                edges: 0,
                confirmed: 0,
            },
        }
    }

    #[test]
    fn json_has_every_section() {
        let json = sample_snapshot().to_json();
        for key in [
            "\"version\":3",
            "\"mode\":\"profile\"",
            "\"sampling_budget\":5000",
            "\"locks\":[{",
            "\"lock_latency\":{",
            "\"p999\":",
            "\"cache\":{",
            "\"parking_lot\":{",
            "\"glk_transitions\":2",
            "\"deadlock\":{",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn json_null_budget_for_full_measurement() {
        let mut snap = sample_snapshot();
        snap.sampling_budget = None;
        assert!(snap.to_json().contains("\"sampling_budget\":null"));
    }

    #[test]
    fn json_guards_non_finite_floats() {
        let mut snap = sample_snapshot();
        snap.locks[0].avg_queue = f64::NAN;
        snap.locks[0].lock_latency.mean = f64::INFINITY;
        let json = snap.to_json();
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    #[test]
    fn display_matches_paper_shape() {
        let mut lock = sample_snapshot().locks.remove(0);
        lock.addr = 0x7fe6318eb660;
        lock.avg_queue = 0.03;
        lock.lock_latency.mean = 96.0;
        lock.cs_latency.mean = 194.0;
        assert_eq!(
            lock.to_string(),
            "[GLS] queue: 0.03 | l-lat: 96 | cs-lat: 194 @ (0x7fe6318eb660:GLK)"
        );
    }

    #[test]
    fn display_is_human_readable() {
        let text = sample_snapshot().to_string();
        assert!(text.contains("mode=profile"));
        assert!(text.contains("sampling=5000/s"));
        assert!(text.contains("p99"));
        assert!(text.contains("0x1000"));
        // Two header lines, then one paper-shaped line per lock.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].starts_with("[GLS] queue: 1.50 |"), "{}", lines[2]);
    }
}
