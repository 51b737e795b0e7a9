//! Spin-then-yield waiting for unbounded busy-wait loops.
//!
//! A waiter that spins with [`std::hint::spin_loop`] alone burns its entire
//! scheduler timeslice when the thread it waits for is preempted — on a
//! machine with fewer free hardware contexts than waiters (CI runners, the
//! paper's multiprogrammed scenarios) lock handover then crawls at the rate
//! of involuntary context switches. [`SpinWait`] keeps the cheap spin phase
//! for the common short wait and degrades to [`std::thread::yield_now`] once
//! the wait is clearly long, so progress is never bound to timeslice expiry.
//!
//! The spin phase grows exponentially (1, 2, 4, … pause instructions, ~1000
//! total) before the first yield, mirroring the adaptive scheme used by
//! production lock libraries.

/// Escalating waiter for spin loops: exponential spinning, then yielding.
///
/// # Example
///
/// ```
/// use gls_locks::SpinWait;
///
/// let mut wait = SpinWait::new();
/// for _ in 0..3 {
///     wait.spin(); // cheap pause-based spinning at first
/// }
/// wait.reset(); // after a successful acquisition
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpinWait {
    round: u32,
}

impl SpinWait {
    /// Number of exponential spin rounds before the waiter starts yielding
    /// its timeslice (total ≈ `2^SPIN_ROUNDS` pause instructions).
    pub const SPIN_ROUNDS: u32 = 10;

    /// Creates a waiter at the start of its spin phase.
    pub const fn new() -> Self {
        Self { round: 0 }
    }

    /// How many pause instructions round `round` issues. Under the model
    /// every pause is a scheduling point, so one per round is enough to
    /// expose the interleavings — 2^round of them would only multiply the
    /// state space without adding behaviors.
    #[inline]
    fn pauses(round: u32) -> u32 {
        #[cfg(gls_model)]
        {
            let _ = round;
            1
        }
        #[cfg(not(gls_model))]
        {
            1u32 << round
        }
    }

    /// Waits one round: a short exponentially growing spin early on, a
    /// scheduler yield once the spin budget is exhausted.
    #[inline]
    pub fn spin(&mut self) {
        if self.round < Self::SPIN_ROUNDS {
            for _ in 0..Self::pauses(self.round) {
                gls_sync::hint::spin_loop();
            }
            self.round += 1;
        } else {
            gls_sync::thread::yield_now();
        }
    }

    /// Waits one round without ever yielding: the delay grows exponentially
    /// and then stays at the `2^SPIN_ROUNDS`-pause cap. For spin-then-park
    /// locks ([`FutexLock`](crate::FutexLock)) whose bounded spin phase must
    /// not donate its timeslice — the fallback there is sleeping, not
    /// yielding.
    #[inline]
    pub fn spin_bounded(&mut self) {
        for _ in 0..Self::pauses(self.round.min(Self::SPIN_ROUNDS)) {
            gls_sync::hint::spin_loop();
        }
        if self.round < Self::SPIN_ROUNDS {
            self.round += 1;
        }
    }

    /// Restarts the spin phase (call after a successful acquisition).
    pub fn reset(&mut self) {
        self.round = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the spin budget is exhausted and further waits yield.
    fn is_yielding(w: &SpinWait) -> bool {
        w.round >= SpinWait::SPIN_ROUNDS
    }

    #[test]
    fn spins_before_yielding() {
        let mut w = SpinWait::new();
        for _ in 0..SpinWait::SPIN_ROUNDS {
            assert!(!is_yielding(&w));
            w.spin();
        }
        assert!(is_yielding(&w));
        // Further rounds stay in the yielding regime without panicking.
        w.spin();
        w.spin();
        assert!(is_yielding(&w));
    }

    #[test]
    fn reset_restores_spin_phase() {
        let mut w = SpinWait::new();
        for _ in 0..=SpinWait::SPIN_ROUNDS {
            w.spin();
        }
        w.reset();
        assert!(!is_yielding(&w));
    }

    #[test]
    fn bounded_spin_never_enters_yield_regime_prematurely() {
        let mut w = SpinWait::new();
        for _ in 0..3 * SpinWait::SPIN_ROUNDS {
            w.spin_bounded();
        }
        // The counter saturates at the cap; subsequent rounds keep spinning
        // at the maximum delay (no panic, no overflow).
        assert!(is_yielding(&w));
        w.spin_bounded();
    }
}
