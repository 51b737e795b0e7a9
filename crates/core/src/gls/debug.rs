//! Debug-mode state: waits-for tracking, issue log and deadlock detection.
//!
//! GLS implements deadlock detection by augmenting the hash table "with a
//! waiting array that indicates which lock each thread is waiting on" (§4.2).
//! A thread about to block behind a lock first walks owner → waits-for →
//! owner relationships; a cycle that returns to the invoking thread is a
//! candidate deadlock, confirmed by re-validating every edge after the
//! configured threshold (a real deadlock is frozen; phantom cycles assembled
//! from a non-atomic walk dissolve).
//!
//! Reader-writer locks make the waits-for graph a multigraph: a lock can
//! have several shared holders, and a waiting writer waits on *all* of them,
//! so the walk is a depth-first search over every holder rather than a
//! single owner chain.
//!
//! All bookkeeping uses `SeqCst`: when two threads close a cycle
//! simultaneously, each publishes its waits-for edge before walking, and the
//! total order guarantees at least one of them observes the other's edge —
//! with weaker orderings both could miss and the deadlock would go
//! unreported.

// The issue log and confirmation deadlines are cold reporting
// bookkeeping, kept on raw std sync (see clippy.toml). The
// protocol state itself — waiting records and epochs — goes through the
// gls_sync facade so the model explorer can schedule around every
// publish/walk/confirm step.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::collections::HashMap;
use std::sync::Mutex as StdMutex;
use std::time::{Duration, Instant};

use gls_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use gls_runtime::flight::{self, FlightEventKind};
use gls_runtime::thread_id::MAX_THREADS;
use gls_runtime::ThreadId;

use super::entry::Wait;
use super::relock;
use crate::error::GlsError;

/// A candidate deadlock: the waits-for cycle plus the epoch at which every
/// participating thread's waiting record was observed. Confirmation requires
/// the records to still carry the same epochs — i.e. every thread has been
/// waiting continuously since the walk.
#[derive(Debug, Clone)]
pub(crate) struct CycleCandidate {
    /// `(thread, address the thread waits on)`, starting and ending with the
    /// detecting thread.
    pub(crate) cycle: Vec<(ThreadId, usize)>,
    /// The waiting epoch observed for each entry of `cycle`.
    epochs: Vec<u64>,
}

impl CycleCandidate {
    /// A rotation-invariant identity for the cycle, so the same deadlock
    /// detected by different participating threads (each starting the walk
    /// at itself) coalesces onto one confirmation deadline. Hashes the
    /// `(thread, addr)` edges rotated to start at the minimum element,
    /// dropping the duplicated closing entry.
    pub(crate) fn key(&self) -> u64 {
        let edges = &self.cycle[..self.cycle.len().saturating_sub(1)];
        if edges.is_empty() {
            return 0;
        }
        let start = edges
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, a))| (t.as_u32(), a))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for i in 0..edges.len() {
            let (thread, addr) = edges[(start + i) % edges.len()];
            for word in [thread.as_u32() as u64, addr as u64] {
                hash ^= word;
                hash = hash.wrapping_mul(0x1000_0000_01b3); // FNV prime
            }
        }
        hash
    }
}

/// Debug bookkeeping shared by all operations of one service instance.
#[derive(Debug)]
pub(crate) struct DebugState {
    /// `waiting[tid]` = address the thread is currently waiting on (0: none).
    waiting: Box<[AtomicUsize]>,
    /// Bumped on every `set_waiting`/`clear_waiting` of the thread, so a
    /// cycle candidate can later prove the thread never stopped waiting.
    epochs: Box<[AtomicU64]>,
    /// Detected issues, in detection order.
    issues: StdMutex<Vec<GlsError>>,
    /// Total candidate cycles produced by detection walks (confirmed or
    /// phantom). Exported so operators can see adversarial churn: a high
    /// candidate rate with no confirmed deadlock means the workload keeps
    /// assembling phantom cycles and paying confirmation waits.
    candidates: AtomicU64,
    /// In-flight confirmations keyed by cycle identity: every thread that
    /// detects the same cycle shares one deadline instead of each starting
    /// its own full grace period, so N participants (or repeated
    /// re-detections under churn) confirm in one period of wall time
    /// instead of stacking them.
    confirmations: StdMutex<HashMap<u64, Instant>>,
}

impl DebugState {
    pub(crate) fn new() -> Self {
        Self {
            waiting: (0..MAX_THREADS).map(|_| AtomicUsize::new(0)).collect(),
            epochs: (0..MAX_THREADS).map(|_| AtomicU64::new(0)).collect(),
            issues: StdMutex::new(Vec::new()),
            candidates: AtomicU64::new(0),
            confirmations: StdMutex::new(HashMap::new()),
        }
    }

    /// Total candidate cycles produced so far (the candidate-rate counter).
    pub(crate) fn candidate_count(&self) -> u64 {
        self.candidates.load(Ordering::Relaxed)
    }

    /// Registers `candidate` for confirmation and returns how long the
    /// caller should wait before re-validating: the full grace period for
    /// the first detector of this cycle, the *remainder* of the shared
    /// deadline for every other thread that detects the same cycle while a
    /// confirmation is in flight (possibly zero). This coalescing bounds
    /// total confirmation latency per cycle at one grace period no matter
    /// how many threads participate or how often churn re-detects it.
    pub(crate) fn confirmation_wait(
        &self,
        candidate: &CycleCandidate,
        grace: Duration,
    ) -> Duration {
        let key = candidate.key();
        let now = Instant::now();
        let deadline = *relock(&self.confirmations)
            .entry(key)
            .or_insert_with(|| now + grace);
        deadline.saturating_duration_since(now)
    }

    /// Ends the in-flight confirmation of `candidate` (verdict reached:
    /// reported as a real deadlock, dissolved as a phantom, or the lock was
    /// acquired meanwhile). A later re-detection of the same cycle starts a
    /// fresh grace period.
    pub(crate) fn finish_confirmation(&self, candidate: &CycleCandidate) {
        relock(&self.confirmations).remove(&candidate.key());
    }

    /// Records that `thread` is waiting on `addr`.
    pub(crate) fn set_waiting(&self, thread: ThreadId, addr: usize) {
        self.epochs[thread.as_usize()].fetch_add(1, Ordering::SeqCst);
        self.waiting[thread.as_usize()].store(addr, Ordering::SeqCst);
    }

    /// Clears the waits-for record of `thread`.
    pub(crate) fn clear_waiting(&self, thread: ThreadId) {
        self.waiting[thread.as_usize()].store(0, Ordering::SeqCst);
        self.epochs[thread.as_usize()].fetch_add(1, Ordering::SeqCst);
    }

    /// The address `thread` is waiting on, if any.
    pub(crate) fn waiting_on(&self, thread: ThreadId) -> Option<usize> {
        match self.waiting[thread.as_usize()].load(Ordering::SeqCst) {
            0 => None,
            addr => Some(addr),
        }
    }

    pub(crate) fn epoch_of(&self, thread: ThreadId) -> u64 {
        self.epochs[thread.as_usize()].load(Ordering::SeqCst)
    }

    /// Appends an issue to the log.
    pub(crate) fn record(&self, issue: GlsError) {
        relock(&self.issues).push(issue);
    }

    /// A snapshot of the issues detected so far.
    pub(crate) fn issues(&self) -> Vec<GlsError> {
        relock(&self.issues).clone()
    }

    /// Clears the issue log (tests and long-running services).
    pub(crate) fn clear_issues(&self) {
        relock(&self.issues).clear();
    }

    /// The contended half of a debug-mode acquisition. The caller has
    /// published `me`'s waits-for edge on `addr` and failed one try;
    /// `lock` tries or blocks on the underlying lock, `holders_of` resolves
    /// a lock address to its current holders. Returns holding the lock, or
    /// with a confirmed deadlock (recorded, `me`'s edge retracted).
    ///
    /// Deadlock detection piggybacks on the real blocking acquire instead of
    /// polling `try_lock`, which would both destroy the FIFO admission order
    /// of ticket/MCS/CLH entries and burn a hardware context:
    ///
    /// 1. walk the owner/waits-for graph. A candidate cycle is re-validated
    ///    after `grace` ([`GlsConfig::deadlock_check_after`]) — real
    ///    deadlocks are frozen, phantom cycles assembled from a non-atomic
    ///    walk dissolve — and only a confirmed cycle is reported;
    /// 2. with no cycle in sight, commit to the lock's own blocking acquire
    ///    (queue entry, spin-then-yield or parking — whatever the algorithm
    ///    does). A deadlock formed *later* must be closed by another thread
    ///    publishing its own waits-for edge, and that thread's walk — every
    ///    edge store and load is SeqCst — sees this thread's edge and
    ///    reports the cycle, breaking it by not blocking.
    ///
    /// [`GlsConfig::deadlock_check_after`]: crate::GlsConfig::deadlock_check_after
    pub(crate) fn acquire_contended(
        &self,
        me: ThreadId,
        addr: usize,
        grace: Duration,
        lock: impl Fn(Wait) -> bool,
        holders_of: impl Fn(usize) -> Vec<ThreadId>,
    ) -> Result<(), GlsError> {
        // Leave a trail for the flight recorder before (possibly) blocking,
        // so a later confirmed deadlock can show which contended
        // acquisitions led up to it.
        flight::record(FlightEventKind::SlowPathAcquire, addr, 0);
        loop {
            let Some(candidate) = self.detect_deadlock(me, addr, &holders_of) else {
                // No cycle in sight: hand over to the real blocking acquire
                // of the underlying algorithm.
                lock(Wait::Block);
                return Ok(());
            };
            // Confirmations of the same cycle are coalesced onto one shared
            // deadline: every participant (and every re-detection under
            // adversarial churn) waits out at most the *remainder* of one
            // grace period instead of stacking a fresh full period per
            // candidate.
            let wait = self.confirmation_wait(&candidate, grace);
            if !wait.is_zero() {
                // A wall-clock grace period is the detector's contract;
                // nothing can signal it early.
                std::thread::sleep(wait);
            }
            // The lock may have been released while we slept.
            let acquired = lock(Wait::Try);
            let deadlocked = !acquired && self.still_deadlocked(&candidate, &holders_of);
            self.finish_confirmation(&candidate);
            if acquired {
                return Ok(());
            }
            if deadlocked {
                self.clear_waiting(me);
                return Err(self.report_deadlock(me, addr, candidate.cycle));
            }
            // Phantom cycle: something moved in the meantime; re-walk.
        }
    }

    /// Records a confirmed deadlock: the issue carries `me`'s
    /// flight-recorder trail — the events leading up to a confirmed
    /// deadlock are exactly what an operator needs to replay how it formed
    /// — and is dumped to stderr, logged and returned.
    fn report_deadlock(
        &self,
        me: ThreadId,
        addr: usize,
        cycle: Vec<(ThreadId, usize)>,
    ) -> GlsError {
        flight::record(FlightEventKind::DeadlockCandidate, addr, cycle.len() as u64);
        let trail = flight::drain();
        eprintln!(
            "[GLS] confirmed deadlock ({} threads); dumping {} flight events of thread {}",
            cycle.len().saturating_sub(1),
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
        let issue = GlsError::Deadlock { cycle, trail };
        self.record(issue.clone());
        issue
    }

    /// Runs the deadlock-detection walk on behalf of `me`, which is about to
    /// wait on `wait_addr`. `holders_of` resolves every current holder of a
    /// lock address — the exclusive owner, or all shared readers of an rw
    /// entry (a waiting writer waits on all of them).
    ///
    /// Returns a candidate cycle that includes `me`, if one is found. The
    /// walk is not an atomic snapshot, so the candidate must be confirmed
    /// with [`DebugState::still_deadlocked`] after a grace period.
    pub(crate) fn detect_deadlock(
        &self,
        me: ThreadId,
        wait_addr: usize,
        holders_of: impl Fn(usize) -> Vec<ThreadId>,
    ) -> Option<CycleCandidate> {
        let mut path: Vec<(ThreadId, usize)> = vec![(me, wait_addr)];
        let mut epochs: Vec<u64> = vec![self.epoch_of(me)];
        let mut visited: Vec<ThreadId> = vec![me];
        if self.dfs(
            me,
            wait_addr,
            &holders_of,
            &mut path,
            &mut epochs,
            &mut visited,
        ) {
            path.push((me, wait_addr));
            epochs.push(epochs[0]);
            self.candidates.fetch_add(1, Ordering::Relaxed);
            return Some(CycleCandidate {
                cycle: path,
                epochs,
            });
        }
        None
    }

    /// Depth-first search for a holder chain from `addr` back to `me`.
    /// Appends the discovered waits-for edges to `path`/`epochs` and returns
    /// `true` when the cycle closes.
    fn dfs(
        &self,
        me: ThreadId,
        addr: usize,
        holders_of: &impl Fn(usize) -> Vec<ThreadId>,
        path: &mut Vec<(ThreadId, usize)>,
        epochs: &mut Vec<u64>,
        visited: &mut Vec<ThreadId>,
    ) -> bool {
        if path.len() > MAX_THREADS {
            return false;
        }
        for holder in holders_of(addr) {
            if holder == me {
                // Cycle closed: a holder of the last lock is the invoking
                // thread itself.
                return true;
            }
            if visited.contains(&holder) {
                continue;
            }
            visited.push(holder);
            let Some(next) = self.waiting_on(holder) else {
                continue;
            };
            // Capture the epoch *after* the address: if the record churns in
            // between, confirmation later fails — erring towards silence.
            let epoch = self.epoch_of(holder);
            path.push((holder, next));
            epochs.push(epoch);
            if self.dfs(me, next, holders_of, path, epochs, visited) {
                return true;
            }
            path.pop();
            epochs.pop();
        }
        false
    }

    /// Confirms a candidate cycle: every waits-for edge must still be in
    /// place and every participant must have been waiting *continuously*
    /// since the walk (same epoch). Threads frozen in a real deadlock pass
    /// this; phantom cycles assembled from stale reads do not, because any
    /// progress bumps an epoch.
    pub(crate) fn still_deadlocked(
        &self,
        candidate: &CycleCandidate,
        holders_of: impl Fn(usize) -> Vec<ThreadId>,
    ) -> bool {
        // Ownership edges first: each waited-on lock is still held by the
        // next thread in the cycle.
        for window in candidate.cycle.windows(2) {
            let (_, awaited) = window[0];
            let (holder, _) = window[1];
            if !holders_of(awaited).contains(&holder) {
                return false;
            }
        }
        // Waiting edges and epochs last: with every participant provably
        // parked since before the ownership reads above, those reads form a
        // consistent snapshot.
        for (&(thread, addr), &epoch) in candidate.cycle.iter().zip(&candidate.epochs) {
            if self.waiting_on(thread) != Some(addr) || self.epoch_of(thread) != epoch {
                return false;
            }
        }
        true
    }

    /// The historical bug [`DebugState::still_deadlocked`] fixed, re-seeded
    /// for the model suite: confirmation that checks ownership and waiting
    /// *addresses* but not epochs, so a thread that made progress and then
    /// re-waited on the same lock looks frozen and a phantom cycle gets
    /// confirmed. Only compiled for the model tests that prove the explorer
    /// catches it.
    #[cfg(gls_model)]
    pub(crate) fn still_deadlocked_no_epochs(
        &self,
        candidate: &CycleCandidate,
        holders_of: impl Fn(usize) -> Vec<ThreadId>,
    ) -> bool {
        for window in candidate.cycle.windows(2) {
            let (_, awaited) = window[0];
            let (holder, _) = window[1];
            if !holders_of(awaited).contains(&holder) {
                return false;
            }
        }
        for &(thread, addr) in candidate.cycle.iter() {
            if self.waiting_on(thread) != Some(addr) {
                return false;
            }
        }
        true
    }
}

/// Model-checker surface for the detector's publish-edge → walk → confirm
/// protocol. `DebugState` and `CycleCandidate` are crate-private (the
/// service drives them); the model tests in `crates/model/tests` need to
/// drive the same code from virtual threads, so this wrapper re-exposes
/// exactly the protocol steps, taking plain `u32` thread ids. Compiled only
/// under `--cfg gls_model`.
#[cfg(gls_model)]
pub mod model {
    use super::{CycleCandidate, DebugState};
    use gls_runtime::ThreadId;

    /// A [`DebugState`] scoped to one model execution.
    #[derive(Debug)]
    pub struct ModelDetector {
        state: DebugState,
    }

    impl Default for ModelDetector {
        fn default() -> Self {
            Self::new()
        }
    }

    /// An opaque candidate cycle produced by [`ModelDetector::detect`].
    #[derive(Debug, Clone)]
    pub struct ModelCandidate(CycleCandidate);

    impl ModelCandidate {
        /// Whether `thread` participates in the candidate cycle.
        pub fn involves(&self, thread: u32) -> bool {
            let id = ThreadId::from_raw(thread);
            self.0.cycle.iter().any(|&(t, _)| t == id)
        }
    }

    fn to_ids(raw: Vec<u32>) -> Vec<ThreadId> {
        raw.into_iter().map(ThreadId::from_raw).collect()
    }

    impl ModelDetector {
        /// A fresh detector with no waits-for edges published.
        pub fn new() -> Self {
            Self {
                state: DebugState::new(),
            }
        }

        /// Publishes the waits-for edge `thread → addr`.
        pub fn set_waiting(&self, thread: u32, addr: usize) {
            self.state.set_waiting(ThreadId::from_raw(thread), addr);
        }

        /// Retracts `thread`'s waits-for edge (it acquired, or gave up).
        pub fn clear_waiting(&self, thread: u32) {
            self.state.clear_waiting(ThreadId::from_raw(thread));
        }

        /// The detection walk on behalf of `me`, about to wait on
        /// `wait_addr`; `holders` resolves each lock to its current holders.
        pub fn detect(
            &self,
            me: u32,
            wait_addr: usize,
            holders: impl Fn(usize) -> Vec<u32>,
        ) -> Option<ModelCandidate> {
            self.state
                .detect_deadlock(ThreadId::from_raw(me), wait_addr, |addr| {
                    to_ids(holders(addr))
                })
                .map(ModelCandidate)
        }

        /// Epoch-validated confirmation (the shipped protocol).
        pub fn still_deadlocked(
            &self,
            candidate: &ModelCandidate,
            holders: impl Fn(usize) -> Vec<u32>,
        ) -> bool {
            self.state
                .still_deadlocked(&candidate.0, |addr| to_ids(holders(addr)))
        }

        /// The seeded epoch-skipping confirmation bug (see
        /// [`DebugState::still_deadlocked_no_epochs`]).
        pub fn still_deadlocked_no_epochs(
            &self,
            candidate: &ModelCandidate,
            holders: impl Fn(usize) -> Vec<u32>,
        ) -> bool {
            self.state
                .still_deadlocked_no_epochs(&candidate.0, |addr| to_ids(holders(addr)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn tid(n: u32) -> ThreadId {
        ThreadId::from_raw(n)
    }

    fn owners(pairs: &[(usize, u32)]) -> HashMap<usize, Vec<ThreadId>> {
        pairs.iter().map(|&(a, t)| (a, vec![tid(t)])).collect()
    }

    fn lookup(map: &HashMap<usize, Vec<ThreadId>>) -> impl Fn(usize) -> Vec<ThreadId> + '_ {
        move |addr| map.get(&addr).cloned().unwrap_or_default()
    }

    #[test]
    fn waiting_roundtrip() {
        let d = DebugState::new();
        assert_eq!(d.waiting_on(tid(3)), None);
        d.set_waiting(tid(3), 0x500);
        assert_eq!(d.waiting_on(tid(3)), Some(0x500));
        d.clear_waiting(tid(3));
        assert_eq!(d.waiting_on(tid(3)), None);
    }

    #[test]
    fn issue_log_accumulates_and_clears() {
        let d = DebugState::new();
        d.record(GlsError::ReleaseFreeLock { addr: 0x1 });
        d.record(GlsError::UninitializedLock { addr: 0x2 });
        assert_eq!(d.issues().len(), 2);
        d.clear_issues();
        assert!(d.issues().is_empty());
    }

    #[test]
    fn poisoned_bookkeeping_still_records() {
        fn poison<T: Send>(mutex: &StdMutex<T>) {
            std::thread::scope(|s| {
                let poisoner = s.spawn(|| {
                    let _held = mutex.lock().unwrap();
                    std::panic::resume_unwind(Box::new("poison"));
                });
                assert!(poisoner.join().is_err());
            });
            assert!(mutex.is_poisoned());
        }
        let d = DebugState::new();
        poison(&d.issues);
        poison(&d.confirmations);
        d.record(GlsError::ReleaseFreeLock { addr: 0x1 });
        assert_eq!(d.issues().len(), 1);
        d.clear_issues();
        assert!(d.issues().is_empty());
        // The shared confirmation deadline survives too: the second
        // detector of a cycle waits out the remainder, not a fresh period.
        let map = owners(&[(0xa, 1), (0xb, 0)]);
        d.set_waiting(tid(0), 0xa);
        d.set_waiting(tid(1), 0xb);
        let candidate = d.detect_deadlock(tid(0), 0xa, lookup(&map)).unwrap();
        let grace = Duration::from_secs(3600);
        assert!(d.confirmation_wait(&candidate, grace) <= grace);
        assert_eq!(relock(&d.confirmations).len(), 1);
        d.finish_confirmation(&candidate);
        assert!(relock(&d.confirmations).is_empty());
    }

    #[test]
    fn no_deadlock_when_chain_terminates() {
        let d = DebugState::new();
        // T0 waits on lock A owned by T1, which waits on nothing.
        let map = owners(&[(0xa, 1)]);
        assert!(d.detect_deadlock(tid(0), 0xa, lookup(&map)).is_none());
    }

    #[test]
    fn detects_two_thread_cycle() {
        let d = DebugState::new();
        // T0 holds B and waits on A; T1 holds A and waits on B.
        let map = owners(&[(0xa, 1), (0xb, 0)]);
        d.set_waiting(tid(0), 0xa);
        d.set_waiting(tid(1), 0xb);
        let candidate = d
            .detect_deadlock(tid(0), 0xa, lookup(&map))
            .expect("cycle should be detected");
        assert_eq!(candidate.cycle.first().unwrap().0, tid(0));
        assert_eq!(candidate.cycle.last().unwrap().0, tid(0));
        assert!(candidate
            .cycle
            .iter()
            .any(|&(t, a)| t == tid(1) && a == 0xb));
    }

    #[test]
    fn detects_three_thread_cycle() {
        let d = DebugState::new();
        // T0 waits A (owned by T1), T1 waits B (owned by T2), T2 waits C
        // (owned by T0).
        let map = owners(&[(0xa, 1), (0xb, 2), (0xc, 0)]);
        d.set_waiting(tid(1), 0xb);
        d.set_waiting(tid(2), 0xc);
        let candidate = d
            .detect_deadlock(tid(0), 0xa, lookup(&map))
            .expect("three-way cycle should be detected");
        assert!(candidate.cycle.len() >= 4);
    }

    #[test]
    fn unrelated_cycle_is_not_attributed_to_me() {
        let d = DebugState::new();
        // T1 and T2 deadlock with each other; T0 waits on a lock owned by T1
        // but is not part of the cycle, so detection from T0 reports nothing
        // (T0 cannot be the one to break it).
        let map = owners(&[(0xa, 1), (0xb, 2), (0xc, 1)]);
        d.set_waiting(tid(1), 0xb);
        d.set_waiting(tid(2), 0xc);
        assert!(d.detect_deadlock(tid(0), 0xa, lookup(&map)).is_none());
    }

    #[test]
    fn writer_waits_on_every_shared_holder() {
        let d = DebugState::new();
        // T0 (a writer) waits on rw lock A held by readers T1 and T2; only
        // T2 waits on B, which T0 owns — the cycle runs through the *second*
        // shared holder, so a single-owner walk would miss it.
        let mut map: HashMap<usize, Vec<ThreadId>> = HashMap::new();
        map.insert(0xa, vec![tid(1), tid(2)]);
        map.insert(0xb, vec![tid(0)]);
        d.set_waiting(tid(2), 0xb);
        let candidate = d
            .detect_deadlock(tid(0), 0xa, lookup(&map))
            .expect("cycle through a shared holder must be found");
        assert!(candidate
            .cycle
            .iter()
            .any(|&(t, a)| t == tid(2) && a == 0xb));
    }

    #[test]
    fn confirmation_requires_frozen_waiters() {
        let d = DebugState::new();
        let map = owners(&[(0xa, 1), (0xb, 0)]);
        d.set_waiting(tid(0), 0xa);
        d.set_waiting(tid(1), 0xb);
        let candidate = d.detect_deadlock(tid(0), 0xa, lookup(&map)).unwrap();
        // Nothing moved: the candidate is confirmed.
        assert!(d.still_deadlocked(&candidate, lookup(&map)));
        // T1 made progress (cleared and re-registered the same wait): the
        // epoch changed, so the candidate is a phantom and must be dropped.
        d.clear_waiting(tid(1));
        d.set_waiting(tid(1), 0xb);
        assert!(!d.still_deadlocked(&candidate, lookup(&map)));
    }

    #[test]
    fn cycle_key_is_rotation_invariant() {
        // The same two-thread deadlock, detected once from T0 and once
        // from T1, must coalesce onto one confirmation key.
        let d = DebugState::new();
        let map = owners(&[(0xa, 1), (0xb, 0)]);
        d.set_waiting(tid(0), 0xa);
        d.set_waiting(tid(1), 0xb);
        let from_t0 = d.detect_deadlock(tid(0), 0xa, lookup(&map)).unwrap();
        let from_t1 = d.detect_deadlock(tid(1), 0xb, lookup(&map)).unwrap();
        assert_ne!(
            from_t0.cycle, from_t1.cycle,
            "walks start at different threads"
        );
        assert_eq!(from_t0.key(), from_t1.key(), "identity coalesces");
        // A different cycle gets a different key.
        let map2 = owners(&[(0xc, 3), (0xd, 2)]);
        d.set_waiting(tid(2), 0xc);
        d.set_waiting(tid(3), 0xd);
        let other = d.detect_deadlock(tid(2), 0xc, lookup(&map2)).unwrap();
        assert_ne!(from_t0.key(), other.key());
    }

    #[test]
    fn candidate_counter_tracks_detections() {
        let d = DebugState::new();
        let map = owners(&[(0xa, 1), (0xb, 0)]);
        assert_eq!(d.candidate_count(), 0);
        // A terminating chain produces no candidate.
        assert!(d.detect_deadlock(tid(5), 0xa, lookup(&map)).is_none());
        assert_eq!(d.candidate_count(), 0);
        d.set_waiting(tid(0), 0xa);
        d.set_waiting(tid(1), 0xb);
        let _ = d.detect_deadlock(tid(0), 0xa, lookup(&map)).unwrap();
        let _ = d.detect_deadlock(tid(0), 0xa, lookup(&map)).unwrap();
        assert_eq!(d.candidate_count(), 2);
    }

    #[test]
    fn same_cycle_confirmations_share_one_deadline() {
        let d = DebugState::new();
        let map = owners(&[(0xa, 1), (0xb, 0)]);
        d.set_waiting(tid(0), 0xa);
        d.set_waiting(tid(1), 0xb);
        let c0 = d.detect_deadlock(tid(0), 0xa, lookup(&map)).unwrap();
        let c1 = d.detect_deadlock(tid(1), 0xb, lookup(&map)).unwrap();
        let grace = Duration::from_millis(200);
        let first = d.confirmation_wait(&c0, grace);
        assert!(
            first <= grace && first >= grace / 2,
            "first pays ~full grace"
        );
        // The other participant joins the in-flight confirmation: it waits
        // out the *remainder*, never a fresh full period.
        std::thread::sleep(Duration::from_millis(50));
        let second = d.confirmation_wait(&c1, grace);
        assert!(
            second <= grace - Duration::from_millis(40),
            "coalesced wait must be the remainder (got {second:?})"
        );
        // After the verdict the slate is clean: a re-detection starts a
        // fresh grace period.
        d.finish_confirmation(&c0);
        let fresh = d.confirmation_wait(&c1, grace);
        assert!(fresh >= grace / 2);
        d.finish_confirmation(&c1);
    }

    #[test]
    fn confirmation_requires_intact_ownership() {
        let d = DebugState::new();
        let map = owners(&[(0xa, 1), (0xb, 0)]);
        d.set_waiting(tid(0), 0xa);
        d.set_waiting(tid(1), 0xb);
        let candidate = d.detect_deadlock(tid(0), 0xa, lookup(&map)).unwrap();
        // The lock changed hands: the ownership edge is gone.
        let map_after = owners(&[(0xa, 7), (0xb, 0)]);
        assert!(!d.still_deadlocked(&candidate, lookup(&map_after)));
    }
}
