//! The core microbenchmark driver (§3.2, "Experimental Methodology").
//!
//! Threads execute in a loop, performing lock and unlock operations on lock
//! objects. Each run configures (i) the number of threads, (ii) the number of
//! lock objects, (iii) the duration of the critical section in CPU cycles.
//! After every iteration threads wait a short duration outside the critical
//! section to avoid long runs. On every iteration each thread selects a lock
//! at random (uniformly or zipfian-skewed). Worker threads are pinned
//! round-robin over the hardware contexts
//! ([`gls_runtime::topology::pin_worker`]) so measurements come from a known
//! placement; on platforms without affinity support the pin is a no-op and
//! the scheduler places them, as before.

// Workload think-time is modeled as real wall-clock sleeps by design
// (see clippy.toml).
#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gls_runtime::{spin_cycles, SystemLoadMonitor};

use crate::bench_lock::BenchLock;
use crate::multiprog::BackgroundSpinners;
use crate::zipf::Zipfian;

/// How threads pick the next lock to acquire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LockSelection {
    /// Uniformly at random among all lock objects.
    Uniform,
    /// Zipfian-skewed with the given α (Figure 9 uses 0.9).
    Zipfian(f64),
}

/// Configuration of one microbenchmark run.
#[derive(Debug, Clone)]
pub struct MicrobenchConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Critical-section length in CPU cycles (0 = empty critical section).
    pub cs_cycles: u64,
    /// Delay outside the critical section, in cycles, "to avoid long runs".
    pub delay_cycles: u64,
    /// Wall-clock duration of the measurement.
    pub duration: Duration,
    /// Lock-selection policy.
    pub selection: LockSelection,
    /// Number of additional background spinner threads (multiprogramming).
    pub background_spinners: usize,
    /// Optional system-load monitor with which workers and spinners register
    /// as runnable (so GLK's multiprogramming detection sees them).
    pub monitor: Option<Arc<SystemLoadMonitor>>,
    /// RNG seed so runs are reproducible.
    pub seed: u64,
}

impl Default for MicrobenchConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            cs_cycles: 0,
            delay_cycles: 100,
            duration: Duration::from_millis(200),
            selection: LockSelection::Uniform,
            background_spinners: 0,
            monitor: None,
            seed: 0x5EED,
        }
    }
}

/// Result of one microbenchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct MicrobenchResult {
    /// Total completed critical sections across all threads.
    pub total_ops: u64,
    /// Completed critical sections per worker thread.
    pub per_thread_ops: Vec<u64>,
    /// Measured wall-clock duration.
    pub elapsed: Duration,
}

impl MicrobenchResult {
    /// Throughput in million operations per second (the paper's Mops/s axis).
    pub fn mops(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }
}

/// Runs one microbenchmark over the given lock objects.
///
/// # Panics
///
/// Panics if `locks` is empty or `config.threads` is zero.
pub fn run(locks: &[Arc<dyn BenchLock>], config: &MicrobenchConfig) -> MicrobenchResult {
    assert!(!locks.is_empty(), "microbenchmark needs at least one lock");
    assert!(
        config.threads > 0,
        "microbenchmark needs at least one thread"
    );

    let stop = Arc::new(AtomicBool::new(false));
    let _spinners = BackgroundSpinners::start(config.background_spinners, config.monitor.clone());

    let zipf = match config.selection {
        LockSelection::Uniform => None,
        LockSelection::Zipfian(alpha) => Some(Arc::new(Zipfian::new(locks.len(), alpha))),
    };

    let start = Instant::now();
    let handles: Vec<_> = (0..config.threads)
        .map(|t| {
            let locks: Vec<Arc<dyn BenchLock>> = locks.to_vec();
            let stop = Arc::clone(&stop);
            let zipf = zipf.clone();
            let monitor = config.monitor.clone();
            let cs_cycles = config.cs_cycles;
            let delay_cycles = config.delay_cycles;
            let seed = config.seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            std::thread::spawn(move || {
                // Workers measure from a known placement (round-robin over
                // the hardware contexts); background spinners stay unpinned
                // on purpose — they model other applications floating under
                // the OS scheduler.
                gls_runtime::topology::pin_worker(t);
                let _runnable = monitor.as_ref().map(|m| m.runnable_guard());
                let mut rng = StdRng::seed_from_u64(seed);
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let index = match &zipf {
                        Some(z) => z.sample(&mut rng),
                        None => {
                            if locks.len() == 1 {
                                0
                            } else {
                                rng.gen_range(0..locks.len())
                            }
                        }
                    };
                    let lock = &locks[index];
                    lock.acquire();
                    spin_cycles(cs_cycles);
                    lock.release();
                    spin_cycles(delay_cycles);
                    ops += 1;
                }
                ops
            })
        })
        .collect();

    std::thread::sleep(config.duration);
    stop.store(true, Ordering::Relaxed);
    let per_thread_ops: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let elapsed = start.elapsed();

    MicrobenchResult {
        total_ops: per_thread_ops.iter().sum(),
        per_thread_ops,
        elapsed,
    }
}

/// Runs `repetitions` copies of the benchmark and returns the run with the
/// median throughput (the paper reports "the median value of 11 repetitions").
pub fn run_median(
    locks: &[Arc<dyn BenchLock>],
    config: &MicrobenchConfig,
    repetitions: usize,
) -> MicrobenchResult {
    assert!(repetitions > 0, "need at least one repetition");
    let mut results: Vec<MicrobenchResult> = (0..repetitions).map(|_| run(locks, config)).collect();
    results.sort_by(|a, b| {
        a.mops()
            .partial_cmp(&b.mops())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    results.swap_remove(results.len() / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_lock::{make_locks, LockSetup};
    use gls_locks::LockKind;
    use std::sync::atomic::AtomicU64;

    fn quick(threads: usize, locks: usize, kind: LockKind) -> MicrobenchResult {
        let locks = make_locks(&LockSetup::Direct(kind), locks);
        run(
            &locks,
            &MicrobenchConfig {
                threads,
                cs_cycles: 100,
                delay_cycles: 50,
                duration: Duration::from_millis(80),
                ..Default::default()
            },
        )
    }

    #[test]
    fn single_thread_single_lock_makes_progress() {
        let r = quick(1, 1, LockKind::Ticket);
        assert!(r.total_ops > 1_000, "got only {} ops", r.total_ops);
        assert_eq!(r.per_thread_ops.len(), 1);
        assert!(r.mops() > 0.0);
    }

    #[test]
    fn all_threads_make_progress_under_contention() {
        let r = quick(4, 1, LockKind::Mcs);
        assert_eq!(r.per_thread_ops.len(), 4);
        for (i, ops) in r.per_thread_ops.iter().enumerate() {
            assert!(*ops > 0, "thread {i} starved");
        }
    }

    /// A ticket lock that counts its own acquisitions.
    #[derive(Default)]
    struct CountingLock {
        lock: gls_locks::TicketLock,
        acquisitions: AtomicU64,
    }

    impl BenchLock for CountingLock {
        fn acquire(&self) {
            gls_locks::RawLock::lock(&self.lock);
            self.acquisitions.fetch_add(1, Ordering::Relaxed);
        }
        fn release(&self) {
            gls_locks::RawLock::unlock(&self.lock)
        }
    }

    #[test]
    fn uniform_selection_spreads_every_op_over_every_lock() {
        // What the harness guarantees, counted rather than timed: every
        // reported op is one acquisition of one of the locks, and uniform
        // selection reaches all of them.
        let counting: Vec<Arc<CountingLock>> = (0..64).map(|_| Arc::default()).collect();
        let locks: Vec<Arc<dyn BenchLock>> = counting
            .iter()
            .map(|l| Arc::clone(l) as Arc<dyn BenchLock>)
            .collect();
        let r = run(
            &locks,
            &MicrobenchConfig {
                threads: 4,
                duration: Duration::from_millis(80),
                ..Default::default()
            },
        );
        let counts: Vec<u64> = counting
            .iter()
            .map(|l| l.acquisitions.load(Ordering::Relaxed))
            .collect();
        assert!(
            counts.iter().all(|&c| c > 0),
            "a lock was never picked: {counts:?}"
        );
        assert_eq!(counts.iter().sum::<u64>(), r.total_ops);
    }

    #[test]
    fn zipfian_selection_runs() {
        let locks = make_locks(&LockSetup::Direct(LockKind::Glk), 8);
        let r = run(
            &locks,
            &MicrobenchConfig {
                threads: 4,
                cs_cycles: 200,
                selection: LockSelection::Zipfian(0.9),
                duration: Duration::from_millis(80),
                ..Default::default()
            },
        );
        assert!(r.total_ops > 0);
    }

    #[test]
    fn median_selection_returns_a_plausible_run() {
        let locks = make_locks(&LockSetup::Direct(LockKind::Ticket), 1);
        let config = MicrobenchConfig {
            threads: 2,
            duration: Duration::from_millis(40),
            ..Default::default()
        };
        let median = run_median(&locks, &config, 3);
        assert!(median.total_ops > 0);
    }

    #[test]
    #[should_panic(expected = "at least one lock")]
    fn empty_lock_set_rejected() {
        run(&[], &MicrobenchConfig::default());
    }

    #[test]
    fn gls_backed_benchmark_runs() {
        let locks = make_locks(
            &LockSetup::Gls {
                config: gls::GlsConfig::default(),
                kind: LockKind::Glk,
            },
            4,
        );
        let r = run(
            &locks,
            &MicrobenchConfig {
                threads: 4,
                cs_cycles: 100,
                duration: Duration::from_millis(80),
                ..Default::default()
            },
        );
        assert!(r.total_ops > 0);
    }
}
