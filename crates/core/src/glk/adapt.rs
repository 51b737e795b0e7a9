//! The adaptation machine GLK and GLK-RW share (§3, "Selecting the GLK
//! Mode"): the mode flag, the queue counters, the pacing of samples and
//! ticks, the smoothed queue, the load side of the policy and the
//! publication of a transition. What differs between the two flavours —
//! which low-level locks a mode stands for, which spin mode a queue length
//! asks for, who is exclusive enough to run a tick, and where the number of
//! an acquisition comes from — stays with the locks.
//!
//! The machine does not count acquisitions; it paces off a sequence number
//! the caller hands it. GLK in ticket mode hands it the ticket the holder
//! was served: the ticket lock already counts its acquisitions (§3,
//! "Measuring Contention", is the same argument for its queue length), and
//! a counter of GLK's own would be one more cache line every holder pulls
//! over from the previous one. Between two queue samples, a ticket-mode
//! acquisition therefore writes nothing but the ticket lock's line. In MCS
//! and mutex mode the exclusive holder counts with a plain load and store;
//! GLK-RW's readers are concurrent and count with an RMW.

use gls_sync::atomic::{AtomicU64, AtomicU8, Ordering};

use gls_locks::CachePadded;
use gls_runtime::flight::{self, FlightEventKind};
use gls_runtime::LockStats;

use super::config::{
    GlkConfig, MonitorHandle, EMA_ALPHA, INITIAL_CALM_ROUNDS, MAX_CALM_ROUNDS, MIN_QUEUE_FOR_MUTEX,
};

/// What the system load asks of a lock at one adaptation tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Load {
    /// More threads are runnable than there are hardware contexts.
    pub(crate) multiprogrammed: bool,
    /// The lock must be in its blocking mode: enter it, or stay in it.
    pub(crate) block: bool,
}

/// The adaptive state of one lock; each flavour gives the raw mode values
/// their meaning.
#[derive(Debug)]
pub(crate) struct Adaptive {
    /// Current mode (the paper's `lock_type`).
    mode: AtomicU8,
    /// `num_acquired` / `queue_total` and friends, on a line of their own:
    /// holders write it (at every acquisition outside GLK's ticket mode, at
    /// samples in it), while every arrival reads the mode and the periods
    /// beside it.
    stats: CachePadded<LockStats>,
    /// Exponential moving average of per-window queue lengths (f64 bits).
    ema_bits: AtomicU64,
    /// Calm ticks (100 µs of uninterrupted calm each) required to leave the
    /// blocking mode; doubles after every departure.
    required_calm: AtomicU64,
    config: GlkConfig,
    /// Every adaptation boundary is a sampling boundary too (the adaptation
    /// period is a multiple of the sampling period, as the paper's 4096 and
    /// 128 are), so pacing off a sampling boundary needs no second division.
    ticks_on_samples: bool,
    monitor: MonitorHandle,
}

impl Adaptive {
    pub(crate) fn new(initial_mode: u8, config: GlkConfig, monitor: MonitorHandle) -> Self {
        Self {
            mode: AtomicU8::new(initial_mode),
            stats: CachePadded::new(LockStats::new()),
            ema_bits: AtomicU64::new(0f64.to_bits()),
            required_calm: AtomicU64::new(INITIAL_CALM_ROUNDS),
            ticks_on_samples: config
                .adaptation_period
                .is_multiple_of(config.sampling_period),
            config,
            monitor,
        }
    }

    #[inline]
    pub(crate) fn mode(&self) -> u8 {
        self.mode.load(Ordering::Acquire)
    }

    pub(crate) fn config(&self) -> &GlkConfig {
        &self.config
    }

    pub(crate) fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Forgets the counters and the smoothed queue (entry recycle); the
    /// mode stays, and the first window folded after this starts the EMA.
    pub(crate) fn reset(&self) {
        self.stats.reset();
        self.ema_bits.store(0f64.to_bits(), Ordering::Relaxed);
    }

    /// Smoothed queue length currently driving adaptation decisions.
    pub(crate) fn smoothed_queue(&self) -> f64 {
        f64::from_bits(self.ema_bits.load(Ordering::Relaxed))
    }

    /// Paces the completed acquisition numbered `seq`: every
    /// [`GlkConfig::sampling_period`] numbers (paper: 128) it samples
    /// `queue_length`. Returns whether `seq` lands on an adaptation boundary
    /// (paper: every 4096), which some exclusive holder must answer with a
    /// tick: [`Self::fold_window`], [`Self::load`] and, if the mode moves,
    /// [`Self::publish`].
    ///
    /// The numbers need not start at the lock's first acquisition nor run
    /// on across mode changes; a wrap of the counter they come from, at
    /// any period that does not divide its range, makes one window
    /// irregular.
    #[inline]
    pub(crate) fn pace(&self, seq: u64, queue_length: impl FnOnce() -> u64) -> bool {
        if self.config.adaptation_disabled() {
            return false;
        }
        if seq.is_multiple_of(self.config.sampling_period) {
            self.stats.record_queue_sample(queue_length());
        } else if self.ticks_on_samples {
            return false;
        }
        seq.is_multiple_of(self.config.adaptation_period)
    }

    /// Folds this window's average queuing into the EMA, resets the window
    /// and returns the smoothed queue. Only an exclusive holder calls this,
    /// so plain read-modify-write on the atomic bits is race-free.
    pub(crate) fn fold_window(&self) -> f64 {
        let window_avg = self.stats.average_queue();
        let previous = self.smoothed_queue();
        let smoothed = if self.stats.queue_samples() == 0 {
            previous
        } else if previous == 0.0 {
            // Nothing folded yet (a holder's sample counts the holder, so a
            // folded window never averages 0): the EMA starts at the
            // window's average rather than halfway up from zero.
            window_avg
        } else {
            EMA_ALPHA * window_avg + (1.0 - EMA_ALPHA) * previous
        };
        self.ema_bits.store(smoothed.to_bits(), Ordering::Relaxed);
        self.stats.reset_queue_window();
        smoothed
    }

    /// The load side of the policy, for a lock whose blocking mode is
    /// (`blocking`) or is not the current one.
    pub(crate) fn load(&self, blocking: bool, smoothed: f64) -> Load {
        let monitor = self.monitor.monitor();
        // Multiprogramming forces the blocking mode — but only for locks
        // that see real contention; lightly contended locks should finish
        // their critical sections as fast as possible and keep spinning.
        if monitor.is_multiprogrammed() {
            return Load {
                multiprogrammed: true,
                block: smoothed >= MIN_QUEUE_FOR_MUTEX,
            };
        }
        let mut block = false;
        if blocking {
            // Leaving the blocking mode requires an exponentially growing
            // stretch of uninterrupted calm, to avoid bouncing: blocking
            // reduces the system load, which would immediately re-enable
            // spinning, which would re-trigger multiprogramming, and so on.
            let required = self.required_calm.load(Ordering::Relaxed);
            block = monitor.calm_ticks() < required;
            if !block {
                let next = required.saturating_mul(2).min(MAX_CALM_ROUNDS);
                self.required_calm.store(next, Ordering::Relaxed);
            }
        }
        Load {
            multiprogrammed: false,
            block,
        }
    }

    /// Publishes the transition `from` → `to` of the lock at address `lock`.
    /// Only the exclusive holder calls this, *before* releasing the
    /// low-level lock of `from`, so every later acquirer sees the new mode.
    pub(crate) fn publish(&self, lock: usize, from: u8, to: u8) {
        self.stats.record_transition();
        flight::record(
            FlightEventKind::ModeTransition,
            lock,
            (u64::from(from) << 8) | u64::from(to),
        );
        self.mode.store(to, Ordering::Release);
    }

    /// Where the mode flag sits: every arrival reads its line.
    #[cfg(test)]
    pub(crate) const MODE_OFFSET: usize = std::mem::offset_of!(Adaptive, mode);

    #[cfg(test)]
    pub(crate) fn required_calm(&self) -> &AtomicU64 {
        &self.required_calm
    }
}
