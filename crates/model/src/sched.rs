//! The execution scheduler: virtual-thread state, the baton handshake, and
//! the driver-side stepping interface used by [`crate::explore`].
//!
//! Virtual threads are real OS threads, but exactly one is ever runnable:
//! every instrumented operation funnels through [`yield_point`] (or one of
//! the blocking entry points), which parks the calling thread and hands the
//! baton to the driver. The driver inspects the thread states, asks the
//! scheduling policy for the next thread, and grants it the baton. All
//! coordination happens under one `Mutex<Inner>` + `Condvar` pair; with the
//! handful of threads a model uses, `notify_all` broadcast wakeups are
//! cheaper than per-thread parking machinery and trivially correct.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::clock::VClock;

/// Panic payload used to unwind virtual threads out of an aborted
/// execution (after another thread already failed). The per-thread
/// catch-unwind recognises it and does not report it as a failure.
pub(crate) struct ModelAborted;

/// Why a virtual thread is not runnable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockKind {
    /// Waiting for `lock_released(addr)` on a model mutex.
    Lock(usize),
    /// Waiting on a model condvar. `timeout_eligible` waits may be woken
    /// spuriously by the driver "firing the timeout" as a scheduling choice.
    Condvar { timeout_eligible: bool },
    /// Waiting for thread `tid` to finish.
    Join(usize),
    /// Spent its spin budget: a spinning thread that re-running without
    /// letting anyone else make progress would only stutter. Readied when
    /// any *other* thread is granted; eligible as a fallback when nothing
    /// else is runnable (a pure spin livelock then hits the step limit
    /// instead of being misreported as a deadlock).
    Spin,
}

/// Consecutive spin hints a virtual thread may issue before it parks and
/// yields the baton to the explorer (the bounded-spin-then-yield shim that
/// makes busy-wait loops finite in the schedule tree).
const SPIN_BUDGET: u32 = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Runnable: will proceed when granted the baton.
    Ready,
    /// Holds the baton and is executing user code.
    Running,
    Blocked(BlockKind),
    Finished,
}

struct ThreadRecord {
    state: State,
    /// Set when a condvar notify targeted this thread before it actually
    /// blocked (the enqueue→block window); consumed by `condvar_block`.
    cv_woken: bool,
    /// Set when the driver fired this thread's condvar timeout.
    cv_timed_out: bool,
    /// Happens-before clock of this thread's events so far. Survives
    /// `Finished` so joiners can inherit it.
    clock: VClock,
    /// Clock snapshot at the last release fence (C11: a relaxed store after
    /// a release fence releases this clock).
    fence_rel: VClock,
    /// Accumulated message clocks of relaxed loads since the last acquire
    /// fence (C11: an acquire fence turns those reads into acquires).
    fence_acq: VClock,
    /// Consecutive spin hints since the thread last parked as `Spin`.
    spin_streak: u32,
}

impl ThreadRecord {
    fn new(clock: VClock) -> Self {
        ThreadRecord {
            state: State::Ready,
            cv_woken: false,
            cv_timed_out: false,
            clock,
            fence_rel: VClock::default(),
            fence_acq: VClock::default(),
            spin_streak: 0,
        }
    }
}

/// Read/write history of one [`crate::cell::ModelCell`], FastTrack-style:
/// the last write as an epoch, reads since that write as a clock.
#[derive(Default)]
struct CellState {
    /// Last write: (writer tid, the writer's own clock component then).
    write: Option<(usize, u32)>,
    /// Clock of reads since the last write.
    reads: VClock,
}

struct Inner {
    threads: Vec<ThreadRecord>,
    /// Thread currently holding the baton (none while the driver decides).
    running: Option<usize>,
    /// Baton grant: the thread with this id may transition to Running.
    granted: Option<usize>,
    /// FIFO wait queues per condvar address.
    cv_queues: HashMap<usize, VecDeque<usize>>,
    /// First panic payload rendered to a string, plus the panicking tid.
    panic: Option<(usize, String)>,
    abort: bool,
    /// Chosen tid per step, for failure reports.
    schedule: Vec<usize>,
    /// Per-atomic-location message clocks — the "synchronizes-with" payload
    /// left by release operations, keyed by address. (Address reuse within
    /// one execution aliases entries; extra hb edges can only hide races,
    /// never fabricate one.)
    atomic_msgs: HashMap<usize, VClock>,
    /// Per-model-mutex release clocks, keyed by mutex address.
    sync_msgs: HashMap<usize, VClock>,
    /// Per-`ModelCell` access histories, keyed by cell address.
    cells: HashMap<usize, CellState>,
}

fn is_release(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
    )
}

fn is_acquire(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
    )
}

pub(crate) struct Scheduler {
    inner: Mutex<Inner>,
    cond: Condvar,
}

thread_local! {
    /// Handle installed on every virtual thread for the duration of its
    /// body: (scheduler, my thread id).
    static CURRENT: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

fn lock(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    // A virtual thread never panics while holding this mutex, but the
    // driver-side abort path may unwind user code that re-enters here;
    // recovering poison keeps later executions in the same process usable.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// True when the calling thread is a virtual thread of an active execution.
/// The instrumented types use this to fall back to plain `std` behaviour in
/// ordinary (non-model) code.
#[inline]
pub fn in_execution() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

fn with_current<R>(f: impl FnOnce(&Arc<Scheduler>, usize) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(|(s, t)| f(s, *t)))
}

pub(crate) fn install(sched: Arc<Scheduler>, tid: usize) {
    CURRENT.with(|c| *c.borrow_mut() = Some((sched, tid)));
}

pub(crate) fn uninstall() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

pub(crate) fn current_scheduler() -> Option<(Arc<Scheduler>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Progress a spin loop could observe just happened: a write (atomic store
/// or RMW, a lock release, a thread finishing). Spin-parked threads
/// re-enter the schedulable set — their next probe may read the new state.
/// Loads and bare scheduling decisions deliberately do NOT re-ready
/// spinners: they change nothing a spinner can see, and re-readying on
/// every grant would let two spinners keep each other schedulable forever,
/// starving every other thread on the DFS's first-choice path.
fn wake_spinners(g: &mut Inner) {
    for t in g.threads.iter_mut() {
        if t.state == State::Blocked(BlockKind::Spin) {
            t.state = State::Ready;
        }
    }
}

impl Scheduler {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Scheduler {
            inner: Mutex::new(Inner {
                threads: Vec::new(),
                running: None,
                granted: None,
                cv_queues: HashMap::new(),
                panic: None,
                abort: false,
                schedule: Vec::new(),
                atomic_msgs: HashMap::new(),
                sync_msgs: HashMap::new(),
                cells: HashMap::new(),
            }),
            cond: Condvar::new(),
        })
    }

    // ------------------------------------------------------------------
    // Virtual-thread side
    // ------------------------------------------------------------------

    /// Registers a new virtual thread (state Ready) and returns its id.
    /// Called by the *spawner* before the OS thread exists so the driver
    /// sees the thread immediately. Spawn is a happens-before edge: the
    /// child inherits the spawner's clock, and both sides then tick so
    /// later events are distinguishable from the spawn.
    pub(crate) fn register_thread(&self) -> usize {
        let mut g = lock(&self.inner);
        let child = g.threads.len();
        let mut clock = match g.running {
            Some(parent) => {
                let inherited = g.threads[parent].clock.clone();
                g.threads[parent].clock.bump(parent);
                inherited
            }
            // The root thread, registered by the driver before the
            // execution starts.
            None => VClock::default(),
        };
        clock.bump(child);
        g.threads.push(ThreadRecord::new(clock));
        child
    }

    /// Parks the calling virtual thread until the driver grants it the
    /// baton. The caller must already have set its state/`running` fields
    /// appropriately under `g`. Panics with [`ModelAborted`] if the
    /// execution is aborted while waiting.
    fn wait_for_grant<'a>(
        &self,
        mut g: MutexGuard<'a, Inner>,
        tid: usize,
    ) -> MutexGuard<'a, Inner> {
        loop {
            if g.abort {
                drop(g);
                std::panic::panic_any(ModelAborted);
            }
            if g.granted == Some(tid) {
                g.granted = None;
                g.running = Some(tid);
                g.threads[tid].state = State::Running;
                return g;
            }
            g = self.cond.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// First parking of a freshly spawned virtual thread: its record is
    /// already Ready (set by `register_thread`), so it only waits for the
    /// baton without touching any scheduler state.
    pub(crate) fn wait_initial(&self, tid: usize) {
        let g = lock(&self.inner);
        drop(self.wait_for_grant(g, tid));
    }

    /// Yields the baton back to the driver and waits to be rescheduled.
    pub(crate) fn yield_here(&self, tid: usize) {
        let mut g = lock(&self.inner);
        g.threads[tid].state = State::Ready;
        g.running = None;
        self.cond.notify_all();
        drop(self.wait_for_grant(g, tid));
    }

    /// Blocks the calling thread until `lock_released(addr)` readies it and
    /// the driver grants it.
    pub(crate) fn block_on_lock(&self, tid: usize, addr: usize) {
        let mut g = lock(&self.inner);
        g.threads[tid].state = State::Blocked(BlockKind::Lock(addr));
        g.running = None;
        self.cond.notify_all();
        drop(self.wait_for_grant(g, tid));
    }

    /// A model mutex was released: every thread blocked on it becomes
    /// runnable again (they re-race via `try_lock`, which models the
    /// non-FIFO std mutex faithfully), and the releaser's clock is
    /// published so the next holder inherits it. Never blocks and never
    /// panics, so it is safe to call from guard drops, including during
    /// unwinding.
    pub(crate) fn lock_released(&self, tid: usize, addr: usize) {
        let mut g = lock(&self.inner);
        let clock = g.threads[tid].clock.clone();
        g.sync_msgs.insert(addr, clock);
        g.threads[tid].clock.bump(tid);
        for t in g.threads.iter_mut() {
            if t.state == State::Blocked(BlockKind::Lock(addr)) {
                t.state = State::Ready;
            }
        }
        wake_spinners(&mut g);
        self.cond.notify_all();
    }

    /// A model mutex was acquired: join the clock the previous holder
    /// published at release (the mutex happens-before edge).
    pub(crate) fn sync_acquired(&self, tid: usize, addr: usize) {
        let mut g = lock(&self.inner);
        if let Some(msg) = g.sync_msgs.get(&addr).cloned() {
            g.threads[tid].clock.join(&msg);
        }
    }

    /// Enqueues the calling thread on condvar `cv`. Must be called while
    /// the associated mutex is still held (before the guard drops) so no
    /// notify can be missed.
    pub(crate) fn condvar_enqueue(&self, tid: usize, cv: usize) {
        let mut g = lock(&self.inner);
        g.cv_queues.entry(cv).or_default().push_back(tid);
    }

    /// Completes a condvar wait begun with `condvar_enqueue`: blocks until
    /// notified (or, when `timeout_eligible`, until the driver fires the
    /// timeout). Returns true if the wakeup was a timeout.
    pub(crate) fn condvar_block(&self, tid: usize, _cv: usize, timeout_eligible: bool) -> bool {
        let mut g = lock(&self.inner);
        if !g.threads[tid].cv_woken {
            g.threads[tid].state = State::Blocked(BlockKind::Condvar { timeout_eligible });
            g.running = None;
            self.cond.notify_all();
            g = self.wait_for_grant(g, tid);
        }
        let rec = &mut g.threads[tid];
        rec.cv_woken = false;
        let timed_out = rec.cv_timed_out;
        rec.cv_timed_out = false;
        // A timed-out waiter was removed from the queue by the driver; a
        // notified waiter (including one caught in the enqueue→block
        // window) was removed by the notifier. Nothing to dequeue here.
        timed_out
    }

    /// Wakes one (or all) waiters of condvar `cv`. Readying only — the
    /// woken thread still competes for the baton like everyone else.
    pub(crate) fn condvar_notify(&self, cv: usize, all: bool) {
        let mut g = lock(&self.inner);
        while let Some(tid) = g.cv_queues.get_mut(&cv).and_then(VecDeque::pop_front) {
            let rec = &mut g.threads[tid];
            rec.cv_woken = true;
            if matches!(rec.state, State::Blocked(BlockKind::Condvar { .. })) {
                rec.state = State::Ready;
            }
            if !all {
                break;
            }
        }
        self.cond.notify_all();
    }

    /// Blocks the calling thread until thread `target` finishes, then
    /// joins the target's final clock (join is a happens-before edge).
    pub(crate) fn block_on_join(&self, tid: usize, target: usize) {
        let mut g = lock(&self.inner);
        if g.threads[target].state != State::Finished {
            g.threads[tid].state = State::Blocked(BlockKind::Join(target));
            g.running = None;
            self.cond.notify_all();
            g = self.wait_for_grant(g, tid);
        }
        let target_clock = g.threads[target].clock.clone();
        g.threads[tid].clock.join(&target_clock);
    }

    /// Marks the calling thread finished; wakes joiners.
    pub(crate) fn finish_thread(&self, tid: usize, panic_msg: Option<String>) {
        let mut g = lock(&self.inner);
        g.threads[tid].state = State::Finished;
        if let Some(msg) = panic_msg {
            if g.panic.is_none() {
                g.panic = Some((tid, msg));
            }
        }
        for t in g.threads.iter_mut() {
            if t.state == State::Blocked(BlockKind::Join(tid)) {
                t.state = State::Ready;
            }
        }
        wake_spinners(&mut g);
        if g.running == Some(tid) {
            g.running = None;
        }
        self.cond.notify_all();
    }

    // ------------------------------------------------------------------
    // Happens-before recording (called while Running, never yields)
    // ------------------------------------------------------------------

    /// Records an atomic store at `addr`. A release store *replaces* the
    /// location's message with the thread clock; a relaxed store releases
    /// the clock of the last release fence (empty if none), breaking the
    /// release sequence per C11.
    pub(crate) fn atomic_store(&self, tid: usize, addr: usize, order: Ordering) {
        let mut g = lock(&self.inner);
        let msg = if is_release(order) {
            g.threads[tid].clock.clone()
        } else {
            g.threads[tid].fence_rel.clone()
        };
        g.atomic_msgs.insert(addr, msg);
        if is_release(order) {
            g.threads[tid].clock.bump(tid);
        }
        wake_spinners(&mut g);
    }

    /// Records an atomic load at `addr`: an acquire load joins the
    /// location's message into the thread clock; a relaxed load only
    /// accumulates it for a later acquire fence.
    pub(crate) fn atomic_load(&self, tid: usize, addr: usize, order: Ordering) {
        let mut g = lock(&self.inner);
        if let Some(msg) = g.atomic_msgs.get(&addr).cloned() {
            if is_acquire(order) {
                g.threads[tid].clock.join(&msg);
            } else {
                g.threads[tid].fence_acq.join(&msg);
            }
        }
    }

    /// Records an atomic read-modify-write at `addr`: the load half as in
    /// [`Self::atomic_load`]; the store half *joins* into the message (an
    /// RMW continues the release sequence rather than replacing it).
    pub(crate) fn atomic_rmw(&self, tid: usize, addr: usize, order: Ordering) {
        let mut g = lock(&self.inner);
        if let Some(msg) = g.atomic_msgs.get(&addr).cloned() {
            if is_acquire(order) {
                g.threads[tid].clock.join(&msg);
            } else {
                g.threads[tid].fence_acq.join(&msg);
            }
        }
        let published = if is_release(order) {
            g.threads[tid].clock.clone()
        } else {
            g.threads[tid].fence_rel.clone()
        };
        if !published.is_empty() {
            g.atomic_msgs.entry(addr).or_default().join(&published);
        }
        if is_release(order) {
            g.threads[tid].clock.bump(tid);
        }
        wake_spinners(&mut g);
    }

    /// Records a memory fence per the C11 fence rules.
    pub(crate) fn fence(&self, tid: usize, order: Ordering) {
        let mut g = lock(&self.inner);
        if is_acquire(order) {
            let pending = std::mem::take(&mut g.threads[tid].fence_acq);
            g.threads[tid].clock.join(&pending);
        }
        if is_release(order) {
            g.threads[tid].fence_rel = g.threads[tid].clock.clone();
        }
    }

    /// Checks a `ModelCell` access against the recorded read/write epochs
    /// and updates them. Returns a race report when the access is not
    /// ordered (by the clocks) after every conflicting prior access.
    pub(crate) fn cell_access(
        &self,
        tid: usize,
        addr: usize,
        is_write: bool,
    ) -> Result<(), String> {
        let mut g = lock(&self.inner);
        let clock = g.threads[tid].clock.clone();
        let cell = g.cells.entry(addr).or_default();
        if let Some((writer, epoch)) = cell.write {
            if writer != tid && clock.get(writer) < epoch {
                return Err(format!(
                    "data race on cell {addr:#x}: {} by thread {tid} is not \
                     ordered after the write by thread {writer}",
                    if is_write { "write" } else { "read" },
                ));
            }
        }
        if is_write {
            if let Some(reader) = cell.reads.first_exceeding(&clock) {
                if reader != tid {
                    return Err(format!(
                        "data race on cell {addr:#x}: write by thread {tid} is \
                         not ordered after the read by thread {reader}",
                    ));
                }
            }
            cell.write = Some((tid, clock.get(tid)));
            cell.reads = VClock::default();
        } else {
            cell.reads.record(tid, clock.get(tid));
        }
        Ok(())
    }

    /// Bounded-spin-then-yield shim: counts consecutive spin hints and,
    /// once the budget is spent, parks the thread as [`BlockKind::Spin`]
    /// (re-running it before anyone else makes progress would only repeat
    /// the same loads). Under budget it is an ordinary yield.
    pub(crate) fn spin_hint(&self, tid: usize) {
        let mut g = lock(&self.inner);
        let rec = &mut g.threads[tid];
        rec.spin_streak += 1;
        if rec.spin_streak >= SPIN_BUDGET {
            rec.spin_streak = 0;
            rec.state = State::Blocked(BlockKind::Spin);
        } else {
            rec.state = State::Ready;
        }
        g.running = None;
        self.cond.notify_all();
        drop(self.wait_for_grant(g, tid));
    }

    // ------------------------------------------------------------------
    // Driver side
    // ------------------------------------------------------------------

    /// Waits until no virtual thread holds the baton, then reports the
    /// execution status: the set of grantable thread ids (sorted), whether
    /// all threads finished, and any recorded panic.
    pub(crate) fn wait_quiescent(&self) -> StepStatus {
        let mut g = lock(&self.inner);
        // A pending grant counts as "someone is running": the granted
        // thread just has not woken yet. Treating it as quiescent would
        // double-grant.
        while (g.running.is_some() || g.granted.is_some()) && g.panic.is_none() {
            g = self.cond.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        if let Some((tid, msg)) = g.panic.clone() {
            return StepStatus::Panicked { tid, message: msg };
        }
        let mut eligible = Vec::new();
        let mut spinning = Vec::new();
        let mut unfinished = Vec::new();
        for (tid, t) in g.threads.iter().enumerate() {
            match t.state {
                State::Ready => eligible.push(tid),
                State::Blocked(BlockKind::Condvar {
                    timeout_eligible: true,
                }) => eligible.push(tid),
                State::Blocked(BlockKind::Spin) => spinning.push(tid),
                State::Finished => continue,
                _ => {}
            }
            if t.state != State::Finished {
                unfinished.push((tid, t.state));
            }
        }
        if unfinished.is_empty() {
            return StepStatus::Complete;
        }
        let mut spin_fallback = false;
        if eligible.is_empty() {
            // Spin-parked threads are schedulable again only once someone
            // writes (see `wake_spinners`) — unless they are all that's
            // left. A spin loop may itself write on its next probe (CAS
            // retries, statistics), so this is not provably a deadlock;
            // granting a spinner keeps a true livelock marching toward the
            // step limit instead of misreporting it.
            eligible = spinning;
            spin_fallback = true;
        }
        if eligible.is_empty() {
            let blocked = unfinished
                .iter()
                .map(|(tid, st)| format!("thread {tid}: {}", describe(*st)))
                .collect::<Vec<_>>()
                .join("; ");
            return StepStatus::Deadlock {
                blocked,
                schedule: g.schedule.clone(),
            };
        }
        StepStatus::Choose {
            eligible,
            spin_fallback,
        }
    }

    /// Grants the baton to `tid`. Granting a condvar waiter that is only
    /// eligible through its timeout fires the timeout: the waiter leaves
    /// the queue and wakes with `timed_out = true`.
    pub(crate) fn grant(&self, tid: usize) {
        let mut g = lock(&self.inner);
        if let State::Blocked(BlockKind::Condvar { .. }) = g.threads[tid].state {
            for q in g.cv_queues.values_mut() {
                if let Some(pos) = q.iter().position(|&t| t == tid) {
                    q.remove(pos);
                }
            }
            let rec = &mut g.threads[tid];
            rec.cv_timed_out = true;
            rec.state = State::Ready;
        }
        g.schedule.push(tid);
        g.granted = Some(tid);
        self.cond.notify_all();
    }

    /// Aborts the execution: every parked virtual thread unwinds with
    /// [`ModelAborted`] the next time it checks in.
    pub(crate) fn abort(&self) {
        let mut g = lock(&self.inner);
        g.abort = true;
        self.cond.notify_all();
    }

    /// Blocks the driver until every virtual thread has reported finished.
    /// Called after an abort so no unwinding thread leaks into the next
    /// execution (stale threads could still touch process-global state such
    /// as the parking lot while tearing down).
    pub(crate) fn wait_all_finished(&self) {
        let mut g = lock(&self.inner);
        while g.threads.iter().any(|t| t.state != State::Finished) {
            g = self.cond.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    pub(crate) fn schedule_so_far(&self) -> Vec<usize> {
        lock(&self.inner).schedule.clone()
    }
}

fn describe(state: State) -> String {
    match state {
        State::Blocked(BlockKind::Lock(addr)) => format!("blocked on mutex {addr:#x}"),
        State::Blocked(BlockKind::Condvar { timeout_eligible }) => {
            if timeout_eligible {
                "waiting on condvar (timeout-eligible)".into()
            } else {
                "waiting on condvar".into()
            }
        }
        State::Blocked(BlockKind::Join(t)) => format!("joining thread {t}"),
        State::Blocked(BlockKind::Spin) => "spin-yielded".into(),
        State::Ready => "ready".into(),
        State::Running => "running".into(),
        State::Finished => "finished".into(),
    }
}

/// Driver-visible execution status after quiescence.
pub(crate) enum StepStatus {
    /// Pick one of `eligible` and call [`Scheduler::grant`].
    /// `spin_fallback` marks a choice set of spin-parked threads offered
    /// only because nothing else is runnable: every thread in it yielded
    /// voluntarily, so granting any of them is not a preemption and the
    /// previous thread must not be forced to continue (forcing a
    /// budget-exhausted spinner would re-grant it forever).
    Choose {
        eligible: Vec<usize>,
        spin_fallback: bool,
    },
    /// All threads finished cleanly.
    Complete,
    /// No runnable thread but some unfinished: lost wakeup / lock cycle.
    Deadlock {
        blocked: String,
        schedule: Vec<usize>,
    },
    /// A virtual thread panicked (assertion failure in the model).
    Panicked { tid: usize, message: String },
}

// ----------------------------------------------------------------------
// Free-function façade used by the instrumented types. All of these are
// no-ops (or plain fallbacks) when the calling thread is not a virtual
// thread of an active execution.
// ----------------------------------------------------------------------

/// The universal scheduling point: called before every instrumented
/// shared-memory operation.
///
/// Not while the thread unwinds, though: destructors run then (a service
/// dropping walks its table), and an aborted execution answers a yield
/// with the [`ModelAborted`] panic — a second panic, which aborts the
/// process. An unwinding thread just runs its cleanup to the end.
#[inline]
pub fn yield_point() {
    if !std::thread::panicking() {
        with_current(|s, tid| s.yield_here(tid));
    }
}

/// Spin-hint scheduling point: yields like [`yield_point`] but draws on
/// the spin budget, parking the thread once the budget is spent.
#[inline]
pub(crate) fn spin_hint() {
    if !std::thread::panicking() {
        with_current(|s, tid| s.spin_hint(tid));
    }
}

pub(crate) fn block_on_lock(addr: usize) {
    with_current(|s, tid| s.block_on_lock(tid, addr));
}

pub(crate) fn lock_released(addr: usize) {
    with_current(|s, tid| s.lock_released(tid, addr));
}

pub(crate) fn sync_acquired(addr: usize) {
    with_current(|s, tid| s.sync_acquired(tid, addr));
}

pub(crate) fn atomic_store(addr: usize, order: Ordering) {
    with_current(|s, tid| s.atomic_store(tid, addr, order));
}

pub(crate) fn atomic_load(addr: usize, order: Ordering) {
    with_current(|s, tid| s.atomic_load(tid, addr, order));
}

pub(crate) fn atomic_rmw(addr: usize, order: Ordering) {
    with_current(|s, tid| s.atomic_rmw(tid, addr, order));
}

pub(crate) fn fence(order: Ordering) {
    with_current(|s, tid| s.fence(tid, order));
}

/// Race-checks a `ModelCell` access; panics with a `data race …` message
/// (classified as [`crate::FailureKind::Race`] by the explorer) when the
/// access conflicts with an unordered prior access.
pub(crate) fn cell_access(addr: usize, is_write: bool) {
    if let Some(Err(report)) = with_current(|s, tid| s.cell_access(tid, addr, is_write)) {
        panic!("{report}");
    }
}

pub(crate) fn condvar_enqueue(cv: usize) {
    with_current(|s, tid| s.condvar_enqueue(tid, cv));
}

pub(crate) fn condvar_block(cv: usize, timeout_eligible: bool) -> bool {
    with_current(|s, tid| s.condvar_block(tid, cv, timeout_eligible)).unwrap_or(false)
}

pub(crate) fn condvar_notify(cv: usize, all: bool) {
    with_current(|s, _| s.condvar_notify(cv, all));
}
