//! The parts every workload shares: the environment stamp, pinned closed-loop
//! workers, the latency recorder and the per-repetition result.

use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use gls_runtime::topology;

use crate::stats::percentile;

/// Repetitions per run; every reported number is the median over these.
pub const REPS: usize = 5;
/// Upper bound on the discarded warm-up repetition.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Untraced runs time one op in this many.
pub const SAMPLE_EVERY: u32 = 64;

/// Where and how this run executes; printed with every output.
pub struct Env {
    pub nproc: usize,
    /// Closed-loop workers, one per context: `min(nproc, 4)`. The main
    /// thread only sleeps, so no run has more runnable threads than contexts.
    pub workers: usize,
    pub git_rev: String,
    pub rustc: String,
}

impl Env {
    pub fn detect() -> Self {
        let nproc = topology::hardware_contexts();
        Self {
            nproc,
            workers: nproc.min(4),
            git_rev: tool_line("git", &["rev-parse", "--short", "HEAD"]),
            rustc: tool_line("rustc", &["-V"]),
        }
    }
}

/// First output line of a helper tool, or `unknown` (the driver's checkout
/// is not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// A duration in ns as a sample; anything over 4.29 s reads as `u32::MAX`.
fn sample(elapsed: Duration) -> u32 {
    u32::try_from(elapsed.as_nanos()).unwrap_or(u32::MAX)
}

/// Latency samples of one worker, in nanoseconds.
pub struct Recorder {
    traced: bool,
    tick: u32,
    /// Whole-op latencies: one op in [`SAMPLE_EVERY`], or every op when
    /// traced.
    pub ops: Vec<u32>,
    /// Traced runs only: latencies split by the workload's own kinds (op
    /// types, or the inner calls of an op).
    pub kinds: [Vec<u32>; 4],
}

impl Recorder {
    pub fn new(traced: bool) -> Self {
        Self {
            traced,
            tick: 0,
            ops: Vec::with_capacity(1 << 20),
            kinds: Default::default(),
        }
    }

    /// Whether the next op is one to time.
    #[inline]
    pub fn due(&mut self) -> bool {
        if self.traced {
            return true;
        }
        self.tick += 1;
        if self.tick == SAMPLE_EVERY {
            self.tick = 0;
            true
        } else {
            false
        }
    }

    /// Files one measured whole-op latency (and, traced, under its kind).
    #[inline]
    pub fn push(&mut self, kind: usize, elapsed: Duration) {
        let ns = sample(elapsed);
        self.ops.push(ns);
        if self.traced {
            self.kinds[kind].push(ns);
        }
    }

    /// Runs one whole op, timing it when due.
    #[inline]
    pub fn op<R>(&mut self, kind: usize, f: impl FnOnce() -> R) -> R {
        if self.due() {
            let start = Instant::now();
            let out = f();
            self.push(kind, start.elapsed());
            out
        } else {
            f()
        }
    }

    /// Traced runs only: times one inner call of an op under `kind`.
    #[inline]
    pub fn part<R>(&mut self, kind: usize, f: impl FnOnce() -> R) -> R {
        if self.traced {
            let start = Instant::now();
            let out = f();
            self.kinds[kind].push(sample(start.elapsed()));
            out
        } else {
            f()
        }
    }
}

/// What a worker body hands back.
pub struct WorkerOutcome {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that returned an error or a wrong value.
    pub failed: u64,
    pub rec: Recorder,
    /// Workload-specific values for the output check that follows the run
    /// (what the worker last wrote, how much it produced, ...).
    pub extra: Vec<u64>,
}

/// One finished worker.
pub struct Worker {
    pub out: WorkerOutcome,
    /// From leaving the start barrier to the end of the body.
    pub elapsed: Duration,
    pub pinned: bool,
}

/// Handed to worker bodies: the stop flag of a timed repetition.
pub struct Ctx {
    stop: AtomicBool,
}

impl Ctx {
    #[inline]
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// One repetition of one workload.
pub struct Rep {
    /// From `t0` (taken by the workload before it built anything) to the
    /// release of the start barrier.
    pub setup_s: f64,
    pub workers: Vec<Worker>,
    /// Resident set in kB when the workers finished, the system still alive.
    pub rss_kb: Option<u64>,
    /// Output checks that failed after the workers finished.
    pub check_failed: u64,
    /// Per-layer numbers this repetition measured, by catalogue name.
    pub layers: Vec<(&'static str, f64)>,
}

/// Spawns `n` workers pinned one per context, releases them together and
/// joins them. With `length` the main thread sleeps that long and raises the
/// stop flag; without it the bodies run a fixed amount of work.
pub fn run_workers<F>(n: usize, length: Option<Duration>, t0: Instant, body: F) -> Rep
where
    F: Fn(usize, &Ctx) -> WorkerOutcome + Sync,
{
    let ctx = Ctx {
        stop: AtomicBool::new(false),
    };
    let barrier = Barrier::new(n + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|index| {
                let (ctx, barrier, body) = (&ctx, &barrier, &body);
                scope.spawn(move || {
                    let pinned = topology::pin_worker(index);
                    barrier.wait();
                    let start = Instant::now();
                    let out = body(index, ctx);
                    Worker {
                        out,
                        elapsed: start.elapsed(),
                        pinned,
                    }
                })
            })
            .collect();
        barrier.wait();
        let setup_s = t0.elapsed().as_secs_f64();
        if let Some(length) = length {
            std::thread::sleep(length);
            ctx.stop.store(true, Ordering::Relaxed);
        }
        // Joining each handle (not just leaving the scope) also waits for
        // the workers' thread-local destructors, which publish their lock
        // cache counters to the telemetry snapshot.
        let workers = handles
            .into_iter()
            .map(|h| h.join().expect("a benchmark worker panicked"))
            .collect();
        Rep {
            setup_s,
            workers,
            rss_kb: proc_status_kb("VmRSS"),
            check_failed: 0,
            layers: Vec::new(),
        }
    })
}

impl Rep {
    pub fn attempted(&self) -> u64 {
        self.workers.iter().map(|w| w.out.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.check_failed + self.workers.iter().map(|w| w.out.failed).sum::<u64>()
    }

    pub fn pinned(&self) -> bool {
        self.workers.iter().all(|w| w.pinned)
    }

    /// Operations completed per second, summed over the workers' own clocks.
    pub fn ops_per_s(&self) -> f64 {
        self.workers
            .iter()
            .map(|w| w.out.ops as f64 / w.elapsed.as_secs_f64())
            .sum()
    }

    /// All whole-op latency samples, ascending.
    pub fn sorted_samples(&self) -> Vec<u32> {
        let mut all: Vec<u32> = self
            .workers
            .iter()
            .flat_map(|w| w.out.rec.ops.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    /// The traced samples of one kind over all workers, ascending.
    pub fn sorted_kind(&self, kind: usize) -> Vec<u32> {
        let mut all: Vec<u32> = self
            .workers
            .iter()
            .flat_map(|w| w.out.rec.kinds[kind].iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    /// Pushes `name` = the `q` percentile of kind `kind`, if it was seen.
    pub fn push_kind_percentile(&mut self, name: &'static str, kind: usize, q: f64) {
        let samples = self.sorted_kind(kind);
        if !samples.is_empty() {
            self.layers.push((name, f64::from(percentile(&samples, q))));
        }
    }
}

/// A field of `/proc/self/status` in kB (`VmHWM`, `VmRSS`).
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse().ok())
}
