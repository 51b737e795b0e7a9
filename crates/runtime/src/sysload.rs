//! System-load monitoring: the multiprogramming detector.
//!
//! The paper's GLK spawns one background thread that polls, every ~100 µs,
//! whether the system has more runnable tasks than hardware contexts (§3).
//! This reproduction has **no such thread**: workers register as *runnable*
//! through [`SystemLoadMonitor::runnable_guard`], and a GLK lock compares that
//! count with [`topology::hardware_contexts`] at its adaptation tick. The
//! registry is the only load source any experiment here uses (deterministic,
//! blind to unrelated activity on a shared machine) and changes only when a
//! guard is taken or dropped, so a poller recomputed a constant 10 000 times a
//! second beside the pinned workers, yet missed any shorter oversubscription.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::topology;

/// Nanoseconds on one process-wide monotonic clock: stamps from any thread compare.
fn clock_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The multiprogramming detector shared by every GLK lock in the process.
///
/// # Example
///
/// ```
/// use gls_runtime::SystemLoadMonitor;
///
/// let monitor = SystemLoadMonitor::global();
/// let _guard = monitor.runnable_guard(); // this thread counts as runnable
/// assert!(monitor.registered_runnable() >= 1);
/// ```
#[derive(Debug, Default)]
pub struct SystemLoadMonitor {
    /// Threads currently registered as runnable.
    runnable: AtomicUsize,
    /// [`clock_nanos`] when the current calm period began: 0, the clock's epoch,
    /// until an oversubscription has ended, then the last drop back within the
    /// hardware contexts. Only raised (`fetch_max`): racing drops cannot rewind it.
    calm_since: AtomicU64,
}

impl SystemLoadMonitor {
    /// An empty registry: tests and the figure harness use their own to isolate their signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the process-wide monitor every GLK lock consults by default.
    pub fn global() -> &'static SystemLoadMonitor {
        static GLOBAL: OnceLock<SystemLoadMonitor> = OnceLock::new();
        GLOBAL.get_or_init(SystemLoadMonitor::new)
    }

    /// Registers the calling thread as runnable until the returned guard is
    /// dropped; benchmark workers and background spinners do, so GLK sees them.
    pub fn runnable_guard(&self) -> RunnableGuard<'_> {
        self.runnable.fetch_add(1, Ordering::Relaxed);
        RunnableGuard { monitor: self }
    }

    /// Number of currently registered runnable threads.
    pub fn registered_runnable(&self) -> usize {
        self.runnable.load(Ordering::Relaxed)
    }

    /// Whether more threads are registered runnable than there are hardware contexts.
    pub fn is_multiprogrammed(&self) -> bool {
        self.registered_runnable() > topology::hardware_contexts()
    }

    /// Whole 100 µs periods of uninterrupted calm so far: 0 while multiprogrammed,
    /// non-decreasing until the next oversubscription. The unit is the paper's poll
    /// period, so GLK's hold-off before leaving mutex mode keeps its meaning.
    pub fn calm_ticks(&self) -> u64 {
        if self.is_multiprogrammed() {
            return 0;
        }
        // A read between the un-crossing drop's decrement and its stamp sees
        // the previous calm period's start for those few nanoseconds; it can
        // only end a hold-off early, so the window is accepted, not locked.
        let since = self.calm_since.load(Ordering::Relaxed);
        clock_nanos().saturating_sub(since) / 100_000
    }
}

/// Unregisters the thread from its [`SystemLoadMonitor`] when dropped.
#[derive(Debug)]
pub struct RunnableGuard<'a> {
    monitor: &'a SystemLoadMonitor,
}

impl Drop for RunnableGuard<'_> {
    fn drop(&mut self) {
        let before = self.monitor.runnable.fetch_sub(1, Ordering::Relaxed);
        // This drop un-crossed the hardware contexts: calm starts now.
        if before == topology::hardware_contexts() + 1 {
            let now = clock_nanos();
            self.monitor.calm_since.fetch_max(now, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
// Wall-clock sleeps are the point here: calm is measured in elapsed time,
// and sleeping *at least* the required span can only make a test pass later.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Guards that put `m` one past the hardware contexts.
    fn oversubscribe(m: &SystemLoadMonitor) -> Vec<RunnableGuard<'_>> {
        (0..=topology::hardware_contexts())
            .map(|_| m.runnable_guard())
            .collect()
    }

    #[test]
    fn registry_counts_guards() {
        let m = SystemLoadMonitor::new();
        assert_eq!(m.registered_runnable(), 0);
        let g1 = m.runnable_guard();
        let g2 = m.runnable_guard();
        assert_eq!(m.registered_runnable(), 2);
        drop(g1);
        assert_eq!(m.registered_runnable(), 1);
        drop(g2);
        assert_eq!(m.registered_runnable(), 0);
    }

    #[test]
    fn no_multiprogramming_without_oversubscription() {
        let m = SystemLoadMonitor::new();
        let _fits: Vec<_> = (0..topology::hardware_contexts())
            .map(|_| m.runnable_guard())
            .collect();
        assert!(!m.is_multiprogrammed());
    }

    #[test]
    fn detects_oversubscription_and_recovers() {
        // The signal flips on the very guard that crosses the hardware
        // contexts and back on the drop that un-crosses them, with no call
        // in between: nothing samples, so nothing can lag.
        let m = SystemLoadMonitor::new();
        let mut guards: Vec<_> = (0..topology::hardware_contexts())
            .map(|_| m.runnable_guard())
            .collect();
        assert!(!m.is_multiprogrammed(), "exactly `contexts` threads fit");
        guards.push(m.runnable_guard());
        assert!(m.is_multiprogrammed());
        assert_eq!(m.calm_ticks(), 0);
        guards.pop();
        assert!(!m.is_multiprogrammed());
    }

    #[test]
    fn calm_ticks_accumulate() {
        let m = SystemLoadMonitor::new();
        let guards = oversubscribe(&m);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(m.calm_ticks(), 0, "no calm accrues while oversubscribed");
        drop(guards);
        let just_after = m.calm_ticks();
        std::thread::sleep(Duration::from_micros(500));
        let later = m.calm_ticks();
        assert!(
            later >= 5,
            "500 us of calm is at least 5 ticks, got {later}"
        );
        assert!(later >= just_after);
        assert!(m.calm_ticks() >= later, "non-decreasing while calm lasts");
        // The next oversubscription starts the count over, from a later stamp.
        let first_stamp = m.calm_since.load(Ordering::Relaxed);
        let guards = oversubscribe(&m);
        assert_eq!(m.calm_ticks(), 0);
        drop(guards);
        assert!(m.calm_since.load(Ordering::Relaxed) > first_stamp);
    }

    #[test]
    fn global_monitor_is_a_singleton() {
        let a = SystemLoadMonitor::global() as *const _;
        let b = SystemLoadMonitor::global() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn racing_guards_balance_and_never_stamp_the_future() {
        // Four threads cross and un-cross the threshold concurrently (the
        // main thread parks the count just below it): every interleaving of
        // increments, decrements and stamps must leave the registry empty
        // and `calm_since` at a time that has already happened.
        let m = SystemLoadMonitor::new();
        let base: Vec<_> = (0..topology::hardware_contexts().saturating_sub(1))
            .map(|_| m.runnable_guard())
            .collect();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..20_000 {
                        let a = m.runnable_guard();
                        let b = m.runnable_guard();
                        drop(a);
                        drop(b);
                        assert!(m.calm_since.load(Ordering::Relaxed) <= clock_nanos());
                    }
                });
            }
        });
        drop(base);
        assert_eq!(m.registered_runnable(), 0);
        assert!(!m.is_multiprogrammed());
        let since = m.calm_since.load(Ordering::Relaxed);
        assert!(since > 0, "some drop un-crossed the threshold and stamped");
        assert!(since <= clock_nanos());
    }
}
