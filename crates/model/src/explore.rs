//! Schedule exploration: the driver loop, the exhaustive DFS policy with
//! preemption bounding, and the seeded random policy.

use std::fmt;
use std::panic;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sched::{Scheduler, StepStatus};
use crate::thread::run_vthread;

/// Serializes explorations process-wide. Model executions route *all*
/// virtual-thread blocking through one scheduler; two concurrent
/// explorations in the same test binary would still be correct per
/// execution but would interleave their panic-hook handling and their
/// traffic on process-global state (the parking lot), so we keep them
/// strictly one at a time.
static EXPLORE_LOCK: Mutex<()> = Mutex::new(());

/// What went wrong in a failing schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// A virtual thread panicked (an assertion in the model fired).
    Panic,
    /// No thread was runnable while some were unfinished: a lost wakeup,
    /// a stranded waiter, or a lock cycle.
    Deadlock,
    /// The execution exceeded the step limit: livelock suspicion.
    StepLimit,
    /// The happens-before race detector flagged two unordered accesses to
    /// a [`crate::cell::ModelCell`].
    Race,
}

/// Race reports are ordinary panics under the hood (they unwind the
/// accessing virtual thread); this prefix, set by the scheduler's cell
/// check, is what distinguishes them from assertion failures.
const RACE_PREFIX: &str = "data race";

/// A failing schedule, with everything needed to replay it.
#[derive(Debug)]
pub struct Failure {
    pub kind: FailureKind,
    pub description: String,
    /// The decision sequence: which thread id was granted at each step.
    pub schedule: Vec<usize>,
    /// Random mode only: the per-iteration seed. Replay the exact
    /// interleaving with `Explorer::random(1, seed)`.
    pub seed: Option<u64>,
    /// How many executions ran before this one failed.
    pub executions: usize,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "model-check failure ({:?}): {}",
            self.kind, self.description
        )?;
        let shown = self.schedule.len().min(256);
        writeln!(
            f,
            "schedule ({} decisions{}): {:?}",
            self.schedule.len(),
            if shown < self.schedule.len() {
                ", first 256 shown"
            } else {
                ""
            },
            &self.schedule[..shown]
        )?;
        match self.seed {
            Some(seed) => writeln!(
                f,
                "replay seed: {seed} (re-run with Explorer::random(1, {seed}) or GLS_MODEL_SEED={seed})"
            )?,
            None => writeln!(f, "replay: exhaustive mode is deterministic; re-running rediscovers this schedule")?,
        }
        write!(f, "found after {} execution(s)", self.executions)
    }
}

enum Mode {
    Exhaustive,
    Random { iterations: usize, seed: u64 },
}

/// Configures and runs an exploration. See the crate docs for the model.
pub struct Explorer {
    mode: Mode,
    preemption_bound: usize,
    step_limit: usize,
    max_executions: usize,
    cleanup: Option<Box<dyn Fn() + Send + Sync>>,
    budget: Option<Duration>,
}

impl Explorer {
    /// Exhaustive DFS with the default preemption bound of 2. Suitable for
    /// small models (2–4 threads, tens of scheduling points).
    pub fn exhaustive() -> Self {
        Explorer {
            mode: Mode::Exhaustive,
            preemption_bound: 2,
            step_limit: 20_000,
            max_executions: 500_000,
            cleanup: None,
            budget: None,
        }
    }

    /// Seeded random scheduling: `iterations` executions, iteration `i`
    /// seeded with `seed + i` so any failing iteration's seed replays with
    /// `Explorer::random(1, failing_seed)`.
    pub fn random(iterations: usize, seed: u64) -> Self {
        Explorer {
            mode: Mode::Random { iterations, seed },
            preemption_bound: usize::MAX,
            step_limit: 20_000,
            max_executions: usize::MAX,
            cleanup: None,
            budget: None,
        }
    }

    /// Random mode honoring the environment: `GLS_MODEL_SEED` replays a
    /// single failing seed, `GLS_MODEL_ITERS` overrides the iteration
    /// count. Defaults to `iterations` runs from seed 0.
    pub fn random_from_env(iterations: usize) -> Self {
        if let Some(seed) = env_u64("GLS_MODEL_SEED") {
            return Explorer::random(1, seed);
        }
        let iterations = env_u64("GLS_MODEL_ITERS")
            .map(|n| n as usize)
            .unwrap_or(iterations);
        Explorer::random(iterations, 0)
    }

    /// Sets the preemption bound for exhaustive mode (≥ 2 covers every
    /// bug class the acceptance suite targets; higher is exponentially
    /// more expensive).
    pub fn preemption_bound(mut self, bound: usize) -> Self {
        self.preemption_bound = bound;
        self
    }

    /// Per-execution step limit before declaring livelock suspicion.
    pub fn step_limit(mut self, limit: usize) -> Self {
        self.step_limit = limit;
        self
    }

    /// Registers a hook that runs right after a *failed* execution was
    /// torn down, still under the process-wide exploration lock. A failed
    /// execution is aborted mid-flight, which can strand state in process
    /// globals the model does not own — e.g. a waiter node left in the
    /// global parking lot by a panicked-out parked thread. Tests that
    /// expect failures use this to purge such state before any other
    /// exploration can observe it.
    pub fn cleanup(mut self, f: impl Fn() + Send + Sync + 'static) -> Self {
        self.cleanup = Some(Box::new(f));
        self
    }

    /// Safety valve for exhaustive mode: exceeding this many executions
    /// without exhausting the tree panics, surfacing state-space blowups
    /// as a test-design bug instead of an open-ended hang.
    pub fn max_executions(mut self, max: usize) -> Self {
        self.max_executions = max;
        self
    }

    /// Wall-clock budget for the whole exploration: the deadline is
    /// checked between executions, and the first execution to finish past
    /// it panics, surfacing state-space growth as a prompt test failure
    /// instead of a CI hang. CI sets a 60 s default for every model test
    /// via `GLS_MODEL_BUDGET_SECS`; this builder overrides it per
    /// exploration.
    pub fn budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Runs the model and panics (with the full replay report) on the
    /// first failing schedule.
    pub fn check<F>(&self, name: &str, body: F)
    where
        F: Fn() + Send + Sync + 'static,
    {
        if let Some(failure) = self.find_failure(name, body) {
            panic!("{failure}");
        }
    }

    /// Runs the model and returns the first failing schedule, if any.
    /// This is the entry point for regression tests that *expect* a bug.
    pub fn find_failure<F>(&self, name: &str, body: F) -> Option<Failure>
    where
        F: Fn() + Send + Sync + 'static,
    {
        // Overruns are reported by return value and only turned into a
        // panic *here*, after the exploration scope (the process-wide lock
        // and the quiet panic hook) has been torn down normally: a panic
        // inside that scope would reach `QuietPanics::drop` mid-unwind,
        // whose `panic::set_hook` panics on a panicking thread — and a
        // panic from a drop during unwind aborts the whole test binary.
        match self.find_failure_inner(name, body) {
            Ok(result) => result,
            Err(overrun) => panic!("{overrun}"),
        }
    }

    fn find_failure_inner<F>(&self, name: &str, body: F) -> Result<Option<Failure>, String>
    where
        F: Fn() + Send + Sync + 'static,
    {
        // Serialize before starting the budget clock: with parallel test
        // threads an exploration can sit behind this lock for longer than
        // its own runtime, and queueing must not count against the budget.
        let _serial = EXPLORE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let budget = self
            .budget
            .or_else(|| env_u64("GLS_MODEL_BUDGET_SECS").map(Duration::from_secs));
        // The guard rides between executions (run_one is uninterruptible),
        // so a state-space blowup fails one execution past the deadline
        // instead of stalling CI until max_executions trips.
        let deadline = budget.map(|b| (Instant::now(), b));
        let check_budget = move |name: &str, executions: usize| -> Result<(), String> {
            if let Some((started, budget)) = deadline {
                let elapsed = started.elapsed();
                if elapsed > budget {
                    return Err(format!(
                        "model '{name}': {executions} execution(s) in \
                         {elapsed:.1?}, over the {budget:?} runtime budget — \
                         shrink the model or raise the budget deliberately",
                    ));
                }
            }
            Ok(())
        };
        let _quiet = QuietPanics::install();
        let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
        match self.mode {
            Mode::Exhaustive => {
                let mut dfs = DfsPolicy::default();
                let mut executions = 0usize;
                loop {
                    executions += 1;
                    dfs.depth = 0;
                    match self.run_one(&body, &mut dfs) {
                        Outcome::Complete => {}
                        Outcome::Failed(kind, desc, schedule) => {
                            return Ok(Some(Failure {
                                kind,
                                description: format!("model '{name}': {desc}"),
                                schedule,
                                seed: None,
                                executions,
                            }));
                        }
                    }
                    check_budget(name, executions)?;
                    if !dfs.backtrack() {
                        return Ok(None);
                    }
                    if executions >= self.max_executions {
                        return Err(format!(
                            "model '{name}': exploration hit {} executions \
                             without exhausting the schedule tree — shrink the \
                             model or raise max_executions",
                            self.max_executions
                        ));
                    }
                }
            }
            Mode::Random { iterations, seed } => {
                for i in 0..iterations {
                    let iter_seed = seed.wrapping_add(i as u64);
                    let mut policy = RandomPolicy {
                        rng: StdRng::seed_from_u64(iter_seed),
                    };
                    match self.run_one(&body, &mut policy) {
                        Outcome::Complete => {}
                        Outcome::Failed(kind, desc, schedule) => {
                            return Ok(Some(Failure {
                                kind,
                                description: format!("model '{name}': {desc}"),
                                schedule,
                                seed: Some(iter_seed),
                                executions: i + 1,
                            }));
                        }
                    }
                    check_budget(name, i + 1)?;
                }
                Ok(None)
            }
        }
    }

    /// Drives a single execution to completion or failure.
    fn run_one(&self, body: &Arc<dyn Fn() + Send + Sync>, policy: &mut dyn Policy) -> Outcome {
        let sched = Scheduler::new();
        let root = sched.register_thread();
        let body = Arc::clone(body);
        let sched2 = Arc::clone(&sched);
        let os_root = std::thread::Builder::new()
            .name("gls-model-root".into())
            .spawn(move || run_vthread(sched2, root, move || body()))
            .expect("spawn model root thread");

        let mut prev: Option<usize> = None;
        let mut preemptions = 0usize;
        let mut steps = 0usize;
        let outcome = loop {
            match sched.wait_quiescent() {
                StepStatus::Complete => break Outcome::Complete,
                StepStatus::Deadlock { blocked, schedule } => {
                    break Outcome::Failed(
                        FailureKind::Deadlock,
                        format!("deadlock — {blocked}"),
                        schedule,
                    )
                }
                StepStatus::Panicked { tid, message } => {
                    let kind = if message.starts_with(RACE_PREFIX) {
                        FailureKind::Race
                    } else {
                        FailureKind::Panic
                    };
                    break Outcome::Failed(
                        kind,
                        format!("thread {tid} panicked: {message}"),
                        sched.schedule_so_far(),
                    );
                }
                StepStatus::Choose {
                    eligible,
                    spin_fallback,
                } => {
                    steps += 1;
                    if steps > self.step_limit {
                        break Outcome::Failed(
                            FailureKind::StepLimit,
                            format!("exceeded {} steps (livelock?)", self.step_limit),
                            sched.schedule_so_far(),
                        );
                    }
                    // A spin-fallback set contains only threads that parked
                    // voluntarily; switching between them is free and the
                    // previous thread must not be forced to continue.
                    let prev_runnable =
                        !spin_fallback && prev.is_some_and(|p| eligible.contains(&p));
                    let choices = if prev_runnable && preemptions >= self.preemption_bound {
                        // Budget spent: the only legal move is to keep
                        // running the current thread.
                        vec![prev.expect("prev_runnable implies prev")]
                    } else {
                        eligible
                    };
                    let pick = policy.choose(&choices);
                    if prev_runnable && Some(pick) != prev {
                        preemptions += 1;
                    }
                    sched.grant(pick);
                    prev = Some(pick);
                }
            }
        };

        match &outcome {
            Outcome::Complete => {
                let _ = os_root.join();
            }
            Outcome::Failed(..) => {
                sched.abort();
                sched.wait_all_finished();
                let _ = os_root.join();
                if let Some(cleanup) = &self.cleanup {
                    cleanup();
                }
            }
        }
        outcome
    }
}

enum Outcome {
    Complete,
    Failed(FailureKind, String, Vec<usize>),
}

trait Policy {
    fn choose(&mut self, choices: &[usize]) -> usize;
}

/// One node of the DFS schedule tree: the choice set observed at this
/// depth and the index of the branch currently being explored.
struct DfsNode {
    choices: Vec<usize>,
    next: usize,
}

#[derive(Default)]
struct DfsPolicy {
    tree: Vec<DfsNode>,
    depth: usize,
}

impl Policy for DfsPolicy {
    fn choose(&mut self, choices: &[usize]) -> usize {
        if let Some(node) = self.tree.get(self.depth) {
            if node.choices != choices {
                // Replay divergence: the schedule prefix produced a
                // different choice set than last time (cross-execution
                // global state can do this).
                // Truncate the recorded subtree and restart it rather than
                // failing the whole exploration; the worst case is some
                // schedules being revisited.
                self.tree.truncate(self.depth);
            }
        }
        if self.tree.len() == self.depth {
            self.tree.push(DfsNode {
                choices: choices.to_vec(),
                next: 0,
            });
        }
        let node = &self.tree[self.depth];
        let pick = node.choices[node.next];
        self.depth += 1;
        pick
    }
}

impl DfsPolicy {
    /// Advances to the next unexplored branch; false when the tree is
    /// exhausted.
    fn backtrack(&mut self) -> bool {
        while let Some(node) = self.tree.last_mut() {
            if node.next + 1 < node.choices.len() {
                node.next += 1;
                return true;
            }
            self.tree.pop();
        }
        false
    }
}

struct RandomPolicy {
    rng: StdRng,
}

impl Policy for RandomPolicy {
    fn choose(&mut self, choices: &[usize]) -> usize {
        choices[self.rng.gen_range(0..choices.len())]
    }
}

/// Silences the default panic hook for the duration of an exploration:
/// expected-failure runs would otherwise spray backtraces for schedules
/// the explorer is deliberately hunting. The failure report carries the
/// panic message instead. Restored on drop (including on unwind, so a
/// failing `check` still reports through the normal hook).
struct QuietPanics {
    prev: Option<PanicHook>,
}

/// The boxed hook type `std::panic::set_hook` takes.
type PanicHook = Box<dyn Fn(&panic::PanicHookInfo<'_>) + Sync + Send>;

impl QuietPanics {
    fn install() -> Self {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        QuietPanics { prev: Some(prev) }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        // `set_hook` itself panics on a panicking thread, and a panic out
        // of a drop during unwind aborts the process. No panic should
        // unwind through this guard (overruns travel by return value; see
        // `find_failure`), but if one ever does, losing hook restoration
        // beats taking down the whole test binary.
        if std::thread::panicking() {
            return;
        }
        if let Some(prev) = self.prev.take() {
            panic::set_hook(prev);
        }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}
