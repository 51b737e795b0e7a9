//! Debug-mode state: each thread's held locks, the lock-order graph and the
//! issue log.
//!
//! The paper's debug mode (§4.2) finds the classic locking bugs with no
//! work from the programmer. Every check here is answered by the calling
//! thread's own record of what it holds — re-entry, releasing a lock it
//! does not hold — except the name of the thread that *does* hold it, which
//! a cold scan of the other records finds only when a misuse is reported.
//!
//! Deadlocks are found the way the Linux kernel's lockdep finds them: by
//! the order in which locks are taken, not by waiting for threads to hang.
//! A blocking attempt on `to` by a thread that holds `from` is an edge
//! `from → to` of one per-service order graph. An edge that would close a
//! cycle is refused: the attempt returns [`GlsError::Deadlock`] before it
//! blocks, and the lock is not taken. A deadlock among blocking
//! acquisitions closes such a cycle at its last attempt, so every one is
//! reported — and so is an inverted order that did not hang on this run,
//! which is the bug a debug mode exists to find. A try-lock adds no edge
//! (it cannot wait), and neither does a condvar park (it holds nothing).
//!
//! The cycle check and the insertion run in one critical section of the
//! graph mutex, so two threads that close a cycle concurrently are
//! serialized and exactly one of them reports; the graph never holds a
//! cycle. Each thread remembers the edges it has already recorded, so the
//! steady state takes no shared lock. `free` removes an address's edges and
//! bumps the graph generation, which empties those per-thread sets.
//!
//! Every edge counts whatever the hold mode: the rw entries are
//! writer-preferring, so two readers that take two rw locks in opposite
//! orders deadlock as soon as a writer queues on each lock.

// The per-thread records and the issue log are reporting bookkeeping,
// kept on raw std sync (see clippy.toml): only their owner writes them. The
// order graph is the protocol — check and insert in one critical section —
// and goes through the gls_sync facade so the model explorer schedules
// around it.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::collections::{HashMap, HashSet};
use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock, PoisonError};

use gls_sync::atomic::{AtomicU64, Ordering};
use gls_sync::sync::{Mutex, MutexGuard};

use gls_runtime::flight::{self, FlightEventKind};
use gls_runtime::thread_id::MAX_THREADS;
use gls_runtime::ThreadId;

use super::entry::{Hold, Wait};
use super::relock;
use crate::error::GlsError;

/// What one thread holds, and the order edges it knows the graph has.
#[derive(Debug, Default)]
struct ThreadRecord {
    /// `(address, how it is held)`, one per hold.
    held: Vec<(usize, Hold)>,
    /// Edges `(from, to)` this thread has seen in the graph.
    seen: HashSet<(usize, usize)>,
    /// The graph generation `seen` was collected in.
    generation: u64,
}

/// The lock-order graph: an edge `from → to` says that some thread took
/// `to` while it held `from`. Acyclic at all times.
#[derive(Debug, Default)]
struct OrderGraph {
    /// `from → (to → thread that recorded the edge)`.
    edges: HashMap<usize, HashMap<usize, ThreadId>>,
    /// Number of distinct edges.
    count: u64,
}

impl OrderGraph {
    fn contains(&self, from: usize, to: usize) -> bool {
        self.edges
            .get(&from)
            .is_some_and(|out| out.contains_key(&to))
    }

    fn insert(&mut self, from: usize, to: usize, by: ThreadId) {
        if self.edges.entry(from).or_default().insert(to, by).is_none() {
            self.count += 1;
        }
    }

    /// A path of edges from `start` to `goal` (depth-first), each as
    /// `(thread that recorded it, address it leads to)`.
    fn path(&self, start: usize, goal: usize) -> Option<Vec<(ThreadId, usize)>> {
        // node → (the node it was reached from, who recorded that edge)
        let mut reached: HashMap<usize, (usize, ThreadId)> = HashMap::new();
        let mut stack = vec![start];
        while let Some(node) = stack.pop() {
            for (&next, &by) in self.edges.get(&node).into_iter().flatten() {
                if next == start || reached.contains_key(&next) {
                    continue;
                }
                reached.insert(next, (node, by));
                if next == goal {
                    let mut path = Vec::new();
                    let mut at = goal;
                    while at != start {
                        let (prev, by) = reached[&at];
                        path.push((by, at));
                        at = prev;
                    }
                    path.reverse();
                    return Some(path);
                }
                stack.push(next);
            }
        }
        None
    }

    /// Removes every edge from or to `addr`; returns how many there were.
    fn remove(&mut self, addr: usize) -> u64 {
        let mut removed = self.edges.remove(&addr).map_or(0, |out| out.len() as u64);
        self.edges.retain(|_, out| {
            removed += u64::from(out.remove(&addr).is_some());
            !out.is_empty()
        });
        self.count -= removed;
        removed
    }
}

/// Debug bookkeeping shared by all operations of one service instance.
#[derive(Debug)]
pub(crate) struct DebugState {
    /// One record per thread id, written only by its thread; allocated
    /// only for a debug-mode service, each on the thread's first use.
    threads: Box<[OnceLock<Box<StdMutex<ThreadRecord>>>]>,
    graph: Mutex<OrderGraph>,
    /// Bumped by every `free` that removed edges, under the graph mutex
    /// (Release); an attempt that reads a newer value than its `seen` was
    /// collected in (Acquire) empties `seen`, so it re-checks its edges
    /// under the mutex instead of trusting edges the free removed.
    generation: AtomicU64,
    /// Detected issues, in detection order.
    issues: StdMutex<Vec<GlsError>>,
}

impl DebugState {
    /// Debug state for a service; `enabled` is whether it runs in debug
    /// mode (otherwise no per-thread record is ever allocated).
    pub(crate) fn new(enabled: bool) -> Self {
        let slots = if enabled { MAX_THREADS } else { 0 };
        Self {
            threads: (0..slots).map(|_| OnceLock::new()).collect(),
            graph: Mutex::default(),
            generation: AtomicU64::new(0),
            issues: StdMutex::new(Vec::new()),
        }
    }

    /// The calling thread's record (debug mode only).
    fn record(&self, me: ThreadId) -> StdMutexGuard<'_, ThreadRecord> {
        relock(&**self.threads[me.as_usize()].get_or_init(Box::default))
    }

    /// The graph, whatever a thread that panicked while holding it left:
    /// every update is one insert or one removal, so it is valid at every
    /// step.
    fn graph(&self) -> MutexGuard<'_, OrderGraph> {
        self.graph.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of distinct edges in the lock-order graph.
    pub(crate) fn edge_count(&self) -> u64 {
        self.graph().count
    }

    /// Appends an issue to the log and hands it back to return.
    #[cold]
    pub(crate) fn flag(&self, issue: GlsError) -> GlsError {
        relock(&self.issues).push(issue.clone());
        issue
    }

    /// A snapshot of the issues detected so far.
    pub(crate) fn issues(&self) -> Vec<GlsError> {
        relock(&self.issues).clone()
    }

    /// Clears the issue log (tests and long-running services).
    pub(crate) fn clear_issues(&self) {
        relock(&self.issues).clear();
    }

    /// The checks an acquisition makes before it touches the lock.
    ///
    /// Re-entry in any holder role is flagged: rw entries are
    /// writer-preferring, so even a recursive read can self-deadlock
    /// behind a writer that waits on the first read hold. Only a reader's
    /// `try_write_lock` is let through, to fail: it probes for an upgrade
    /// and cannot wait.
    ///
    /// A blocking attempt then records the edge from every lock `me` holds
    /// to `addr`, and returns the deadlock if one of them would close a
    /// cycle (see the module docs).
    pub(crate) fn check_acquire(
        &self,
        me: ThreadId,
        addr: usize,
        hold: Hold,
        wait: Wait,
    ) -> Result<(), GlsError> {
        let upgrade_probe = hold == Hold::Exclusive && wait == Wait::Try;
        let new: Vec<usize> = {
            let mut record = self.record(me);
            if record
                .held
                .iter()
                .any(|&(a, h)| a == addr && (h == Hold::Exclusive || !upgrade_probe))
            {
                drop(record);
                return Err(self.flag(GlsError::DoubleLock { addr, thread: me }));
            }
            if wait == Wait::Try || record.held.is_empty() {
                return Ok(());
            }
            let generation = self.generation.load(Ordering::Acquire);
            if record.generation != generation {
                record.seen.clear();
                record.generation = generation;
            }
            let record = &*record;
            record
                .held
                .iter()
                .map(|&(from, _)| from)
                .filter(|&from| !record.seen.contains(&(from, addr)))
                .collect()
        };
        if new.is_empty() {
            return Ok(());
        }
        for &from in &new {
            self.add_edge(me, from, addr)?;
        }
        self.record(me)
            .seen
            .extend(new.iter().map(|&from| (from, addr)));
        Ok(())
    }

    /// Records the edge `from → to` for `me`, unless the graph already
    /// leads from `to` back to `from`: then the edge would close a cycle,
    /// is not inserted, and the deadlock is reported.
    fn add_edge(&self, me: ThreadId, from: usize, to: usize) -> Result<(), GlsError> {
        #[cfg(gls_model)]
        if model::check_then_insert() {
            let closing = self.graph().path(to, from);
            if let Some(path) = closing {
                return Err(self.report_deadlock(me, to, path));
            }
            self.graph().insert(from, to, me);
            return Ok(());
        }
        let mut graph = self.graph();
        // The graph is acyclic, so an edge it has closes nothing.
        if graph.contains(from, to) {
            return Ok(());
        }
        if let Some(path) = graph.path(to, from) {
            drop(graph);
            return Err(self.report_deadlock(me, to, path));
        }
        graph.insert(from, to, me);
        Ok(())
    }

    /// Forgets every order edge from or to `addr` (its lock was freed).
    pub(crate) fn forget(&self, addr: usize) {
        let mut graph = self.graph();
        if graph.remove(addr) != 0 {
            self.generation.fetch_add(1, Ordering::Release);
        }
    }

    /// Records that `me` now holds `addr`.
    pub(crate) fn record_hold(&self, me: ThreadId, addr: usize, hold: Hold) {
        self.record(me).held.push((addr, hold));
    }

    /// Whether `me` holds `addr` the way `hold` says.
    pub(crate) fn holds(&self, me: ThreadId, addr: usize, hold: Hold) -> bool {
        self.record(me).held.contains(&(addr, hold))
    }

    /// Gives back `me`'s hold of `addr` that a release of kind `hold`
    /// ends: a shared release also ends the exclusive hold of an entry that
    /// is not an rw lock (a shared request degraded to it). When `me` holds
    /// no such thing, returns the thread that holds `addr`, if any.
    pub(crate) fn release_hold(
        &self,
        me: ThreadId,
        addr: usize,
        hold: Hold,
        is_rw: bool,
    ) -> Result<(), Option<ThreadId>> {
        {
            let mut record = self.record(me);
            let ends = |&(a, h): &(usize, Hold)| {
                a == addr && (h == hold || (hold == Hold::Shared && !is_rw))
            };
            if let Some(index) = record.held.iter().position(ends) {
                record.held.swap_remove(index);
                return Ok(());
            }
        }
        Err(self.holder_of(me, addr))
    }

    /// A thread other than `me` that holds `addr`: a scan of every other
    /// record, made only to name the holder in a misuse report.
    #[cold]
    pub(crate) fn holder_of(&self, me: ThreadId, addr: usize) -> Option<ThreadId> {
        self.threads
            .iter()
            .enumerate()
            .filter(|&(id, _)| id != me.as_usize())
            .find_map(|(id, slot)| {
                let holds = relock(&**slot.get()?).held.iter().any(|&(a, _)| a == addr);
                holds.then(|| ThreadId::from_raw(id as u32))
            })
    }

    /// Reports the cycle that the edge into `to` would have closed: `path`
    /// leads from `to` back to the lock `me` holds. The issue carries
    /// `me`'s flight-recorder trail — the events leading up to the attempt
    /// — and is dumped to stderr, logged and returned.
    #[cold]
    fn report_deadlock(&self, me: ThreadId, to: usize, path: Vec<(ThreadId, usize)>) -> GlsError {
        let mut cycle = Vec::with_capacity(path.len() + 2);
        cycle.push((me, to));
        cycle.extend(path);
        cycle.push((me, to));
        flight::record(FlightEventKind::LockOrderCycle, to, cycle.len() as u64);
        let trail = flight::drain();
        eprintln!(
            "[GLS] lock-order cycle over {} locks; dumping {} flight events of thread {}",
            cycle.len() - 1,
            trail.len(),
            me.as_u32(),
        );
        for event in &trail {
            eprintln!(
                "[GLS]   {} addr={:#x} info={} at={}",
                event.kind.as_str(),
                event.addr,
                event.info,
                event.at,
            );
        }
        self.flag(GlsError::Deadlock { cycle, trail })
    }
}

/// Model-checker surface for the order check. `DebugState` is
/// crate-private (the service drives it); the model tests in
/// `crates/model/tests` drive the same code from virtual threads through
/// [`model::ModelOrder`], and seed the split check with
/// [`model::model_check_then_insert`]. Compiled only under `--cfg
/// gls_model`.
#[cfg(gls_model)]
pub mod model {
    use std::cell::Cell;

    use gls_runtime::ThreadId;

    use super::DebugState;
    use crate::gls::entry::{Hold, Wait};
    use crate::GlsError;

    // Per thread: a vthread is an OS thread, and an exploration's threads
    // must not see another test's settings.
    thread_local! {
        static SPLIT: Cell<bool> = const { Cell::new(false) };
    }

    /// Seeds, on the calling thread, an order check that runs the cycle
    /// search and the edge insertion in two critical sections: two threads
    /// that close a cycle concurrently can each search before the other
    /// inserts, so neither reports.
    pub fn model_check_then_insert(seeded: bool) {
        SPLIT.with(|c| c.set(seeded));
    }

    pub(super) fn check_then_insert() -> bool {
        SPLIT.with(Cell::get)
    }

    /// A debug-mode service's per-thread records and order graph, scoped
    /// to one model execution; threads are named by plain `u32` ids.
    #[derive(Debug)]
    pub struct ModelOrder(DebugState);

    impl Default for ModelOrder {
        fn default() -> Self {
            Self(DebugState::new(true))
        }
    }

    impl ModelOrder {
        /// Records that thread `me` holds `addr` exclusively.
        pub fn hold(&self, me: u32, addr: usize) {
            self.0
                .record_hold(ThreadId::from_raw(me), addr, Hold::Exclusive);
        }

        /// Thread `me`'s blocking exclusive attempt on `addr`, up to the
        /// point where it would touch the lock: `Err` is the reported
        /// deadlock.
        pub fn attempt(&self, me: u32, addr: usize) -> Result<(), GlsError> {
            self.0
                .check_acquire(ThreadId::from_raw(me), addr, Hold::Exclusive, Wait::Block)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(n: u32) -> ThreadId {
        ThreadId::from_raw(n)
    }

    /// Thread `me` holds `held` and attempts a blocking exclusive `to`;
    /// the holds are given back afterwards.
    fn attempt(d: &DebugState, me: u32, held: &[usize], to: usize) -> Result<(), GlsError> {
        for &addr in held {
            d.record_hold(tid(me), addr, Hold::Exclusive);
        }
        let result = d.check_acquire(tid(me), to, Hold::Exclusive, Wait::Block);
        for &addr in held {
            d.release_hold(tid(me), addr, Hold::Exclusive, false)
                .unwrap();
        }
        result
    }

    fn cycle_of(result: Result<(), GlsError>) -> Vec<(ThreadId, usize)> {
        match result {
            Err(GlsError::Deadlock { cycle, .. }) => cycle,
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    #[test]
    fn per_thread_records_exist_only_in_debug_mode() {
        assert!(DebugState::new(false).threads.is_empty());
        let d = DebugState::new(true);
        assert_eq!(d.threads.len(), MAX_THREADS);
        assert!(d.threads.iter().all(|slot| slot.get().is_none()), "lazy");
    }

    #[test]
    fn held_record_roundtrip() {
        let d = DebugState::new(true);
        d.record_hold(tid(3), 0x500, Hold::Exclusive);
        assert!(d.holds(tid(3), 0x500, Hold::Exclusive));
        assert_eq!(d.holder_of(tid(4), 0x500), Some(tid(3)));
        assert_eq!(
            d.holder_of(tid(3), 0x500),
            None,
            "the scan skips the caller"
        );
        // Another thread gives back nothing it does not hold, and learns who does.
        assert_eq!(
            d.release_hold(tid(4), 0x500, Hold::Exclusive, false),
            Err(Some(tid(3)))
        );
        // A shared release ends the degraded hold of a non-rw entry only.
        assert_eq!(d.release_hold(tid(3), 0x500, Hold::Shared, true), Err(None));
        assert_eq!(d.release_hold(tid(3), 0x500, Hold::Shared, false), Ok(()));
        assert!(!d.holds(tid(3), 0x500, Hold::Exclusive));
        assert_eq!(
            d.release_hold(tid(3), 0x500, Hold::Exclusive, false),
            Err(None)
        );
    }

    #[test]
    fn reentry_is_flagged_except_an_upgrade_probe() {
        let d = DebugState::new(true);
        d.record_hold(tid(1), 0x10, Hold::Shared);
        for (hold, wait) in [
            (Hold::Shared, Wait::Block),
            (Hold::Shared, Wait::Try),
            (Hold::Exclusive, Wait::Block),
        ] {
            let err = d.check_acquire(tid(1), 0x10, hold, wait).unwrap_err();
            assert_eq!(err.category(), "double-lock", "{hold:?}/{wait:?}");
        }
        assert_eq!(
            d.check_acquire(tid(1), 0x10, Hold::Exclusive, Wait::Try),
            Ok(())
        );
        assert_eq!(d.issues().len(), 3);
    }

    #[test]
    fn issue_log_accumulates_and_clears() {
        let d = DebugState::new(true);
        d.flag(GlsError::ReleaseFreeLock { addr: 0x1 });
        d.flag(GlsError::UninitializedLock { addr: 0x2 });
        assert_eq!(d.issues().len(), 2);
        d.clear_issues();
        assert!(d.issues().is_empty());
    }

    #[test]
    fn poisoned_bookkeeping_still_records() {
        fn poison(hold_and_panic: impl Fn() + Sync) {
            std::thread::scope(|s| {
                assert!(s.spawn(&hold_and_panic).join().is_err());
            });
        }
        let d = DebugState::new(true);
        d.record_hold(tid(0), 0xa, Hold::Exclusive);
        poison(|| {
            let _held = d.issues.lock();
            std::panic::resume_unwind(Box::new("poison"));
        });
        poison(|| {
            let _held = d.graph.lock();
            std::panic::resume_unwind(Box::new("poison"));
        });
        poison(|| {
            let _held = d.threads[0].get().unwrap().lock();
            std::panic::resume_unwind(Box::new("poison"));
        });
        d.flag(GlsError::ReleaseFreeLock { addr: 0x1 });
        assert_eq!(d.issues().len(), 1);
        d.clear_issues();
        assert!(d.issues().is_empty());
        // The graph and the held record survive too: the edge is recorded
        // and the inversion reported.
        assert_eq!(attempt(&d, 0, &[0xb], 0xc), Ok(()));
        assert_eq!(cycle_of(attempt(&d, 1, &[0xc], 0xb)).len(), 3);
        assert_eq!(d.release_hold(tid(0), 0xa, Hold::Exclusive, false), Ok(()));
    }

    #[test]
    fn no_deadlock_when_chain_terminates() {
        let d = DebugState::new(true);
        // a → b → c, then a → c: a diamond, not a cycle.
        assert_eq!(attempt(&d, 0, &[0xa], 0xb), Ok(()));
        assert_eq!(attempt(&d, 0, &[0xb], 0xc), Ok(()));
        assert_eq!(attempt(&d, 1, &[0xa], 0xc), Ok(()));
        assert!(d.issues().is_empty());
    }

    #[test]
    fn detects_two_thread_cycle() {
        let d = DebugState::new(true);
        // T0 took B while holding A; T1, holding B, attempts A.
        assert_eq!(attempt(&d, 0, &[0xa], 0xb), Ok(()));
        let cycle = cycle_of(attempt(&d, 1, &[0xb], 0xa));
        assert_eq!(cycle, vec![(tid(1), 0xa), (tid(0), 0xb), (tid(1), 0xa)]);
        assert_eq!(d.edge_count(), 1, "the closing edge is not inserted");
        assert_eq!(d.issues().len(), 1, "the report is logged");
    }

    #[test]
    fn detects_three_thread_cycle() {
        let d = DebugState::new(true);
        assert_eq!(attempt(&d, 0, &[0xa], 0xb), Ok(()));
        assert_eq!(attempt(&d, 1, &[0xb], 0xc), Ok(()));
        let cycle = cycle_of(attempt(&d, 2, &[0xc], 0xa));
        assert_eq!(
            cycle,
            vec![(tid(2), 0xa), (tid(0), 0xb), (tid(1), 0xc), (tid(2), 0xa)]
        );
    }

    #[test]
    fn unrelated_cycle_is_not_attributed_to_me() {
        let d = DebugState::new(true);
        // T1 closes a → b → a and is told; its refused edge never enters
        // the graph, so T2's later c → a finds no cycle.
        assert_eq!(attempt(&d, 0, &[0xa], 0xb), Ok(()));
        cycle_of(attempt(&d, 1, &[0xb], 0xa));
        assert_eq!(attempt(&d, 2, &[0xc], 0xa), Ok(()));
        assert_eq!(d.issues().len(), 1);
    }

    #[test]
    fn writer_waits_on_every_shared_holder() {
        let d = DebugState::new(true);
        // T1 and T2 read-hold A; only T2 takes B meanwhile. T0, holding B,
        // attempts to write A: the cycle runs through the *second* reader.
        d.record_hold(tid(1), 0xa, Hold::Shared);
        d.record_hold(tid(2), 0xa, Hold::Shared);
        assert_eq!(
            d.check_acquire(tid(2), 0xb, Hold::Shared, Wait::Block),
            Ok(())
        );
        let cycle = cycle_of(attempt(&d, 0, &[0xb], 0xa));
        assert!(cycle.contains(&(tid(2), 0xb)), "{cycle:?}");
    }

    #[test]
    fn a_try_adds_no_edge_but_its_hold_counts() {
        let d = DebugState::new(true);
        d.record_hold(tid(0), 0xa, Hold::Exclusive);
        assert_eq!(
            d.check_acquire(tid(0), 0xb, Hold::Exclusive, Wait::Try),
            Ok(())
        );
        assert_eq!(d.edge_count(), 0);
        // Taken by a try, B is held like any lock: a blocking C adds B → C.
        d.record_hold(tid(0), 0xb, Hold::Exclusive);
        assert_eq!(
            d.check_acquire(tid(0), 0xc, Hold::Exclusive, Wait::Block),
            Ok(())
        );
        assert_eq!(d.edge_count(), 2);
    }

    #[test]
    fn edge_counter_counts_distinct_edges() {
        let d = DebugState::new(true);
        assert_eq!(d.edge_count(), 0);
        // The same edge recorded by two threads, and twice by one.
        for me in [0, 1, 1] {
            assert_eq!(attempt(&d, me, &[0xa], 0xb), Ok(()));
        }
        assert_eq!(d.edge_count(), 1);
        assert_eq!(attempt(&d, 0, &[0xa, 0xb], 0xc), Ok(()));
        assert_eq!(d.edge_count(), 3);
    }

    #[test]
    fn forget_removes_an_address_edges_and_what_threads_saw() {
        let d = DebugState::new(true);
        assert_eq!(attempt(&d, 0, &[0xa], 0xb), Ok(()));
        assert_eq!(attempt(&d, 0, &[0xc], 0xa), Ok(()));
        assert_eq!(attempt(&d, 0, &[0xc], 0xd), Ok(()));
        d.forget(0xa);
        assert_eq!(d.edge_count(), 1, "both of a's edges go, c → d stays");
        // A re-created A in the opposite order is no inversion.
        assert_eq!(attempt(&d, 1, &[0xb], 0xa), Ok(()));
        // T0 had seen a → b, but not in this generation: it records the
        // edge again, and the graph sees the inversion it now makes.
        cycle_of(attempt(&d, 0, &[0xa], 0xb));
    }
}
