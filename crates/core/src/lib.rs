//! # GLS & GLK — Locking Made Easy
//!
//! A Rust reproduction of the Middleware'16 paper *"Locking Made Easy"*
//! (Antić, Chatzopoulos, Guerraoui, Trigonakis — EPFL): a locking middleware
//! that removes the chores of lock-based programming and a generic lock that
//! adapts to the workload.
//!
//! The crate has two layers:
//!
//! * [`glk`] — **GLK**, the *generic lock*: a single lock object that
//!   operates as a ticket spinlock under low contention, as an MCS queue
//!   lock under high contention, and as a blocking mutex when the machine is
//!   multiprogrammed, adapting per lock and at runtime based on observed
//!   queuing and a process-wide system-load monitor.
//! * [`gls`] — **GLS**, the *generic locking service*: a middleware that maps
//!   any address (in fact any non-zero value) to a lock object, so
//!   programmers never declare, allocate, initialize or destroy locks. The
//!   default interface uses GLK; explicit interfaces expose TAS, TTAS,
//!   ticket, MCS, CLH and mutex locks, and a reader-writer interface
//!   (`read_lock`/`write_lock` + guards) backed by the adaptive
//!   [`GlkRwLock`]. A debug mode detects the classic locking bugs (including
//!   runtime deadlock detection that understands shared holders) and a
//!   profiler mode reports per-lock contention and latencies.
//!
//! ## Quick start
//!
//! ```
//! use gls::GlsService;
//!
//! // One service for the whole application (or use GlsService::global()).
//! let gls = GlsService::new();
//!
//! // Any object can be used as a lock, with no declaration or initialization.
//! let shared_config = String::from("...");
//!
//! gls.lock(&shared_config).unwrap();
//! // ... critical section ...
//! gls.unlock(&shared_config).unwrap();
//!
//! // Every method takes `impl Into<LockAddr>`: the address of an object, or
//! // any non-zero value, as in the paper's `gls_lock(17)`.
//! gls.lock(17usize).unwrap();
//! gls.unlock(17usize).unwrap();
//! ```
//!
//! ## Choosing algorithms explicitly
//!
//! ```
//! use gls::GlsService;
//! use gls_locks::LockKind;
//!
//! let gls = GlsService::new();
//! // A highly contended global lock: pick MCS explicitly (paper §5.1).
//! let stats = [0u64; 8];
//! gls.lock_with(LockKind::Mcs, &stats).unwrap();
//! gls.unlock_with(LockKind::Mcs, &stats).unwrap();
//! ```
//!
//! ## Using GLK directly (no service)
//!
//! In a system that already has locking in place, GLK can be used on its own
//! "to minimize the overhead" (§1):
//!
//! ```
//! use gls::glk::GlkLock;
//!
//! let lock = GlkLock::new();
//! lock.lock();
//! lock.unlock();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod glk;
pub mod gls;

pub use error::GlsError;
pub use glk::{GlkConfig, GlkLock, GlkMode, GlkRwLock, GlkRwMode, ModeTransition};
pub use gls::{
    thread_cache_stats, CacheStats, DeadlockTelemetry, DeadlockTrail, GlsCondvar, GlsConfig,
    GlsGuard, GlsMode, GlsService, HistogramSummary, LockAddr, LockTelemetry, TelemetryPublisher,
    TelemetrySnapshot, WaitOutcome, CACHE_SLOTS,
};

// Re-export the substrate types that appear in this crate's public API so
// downstream users need only one dependency.
pub use gls_locks::LockKind;

// The deadlock detector's protocol steps and the seeded cache-hit bug,
// re-exposed for the model tests in `crates/model/tests`.
#[cfg(gls_model)]
pub use gls::{debug_model, model_hit_checks_addr_only};

/// Convenience free functions mirroring the C interface of Table 1
/// (`gls_lock`, `gls_trylock`, `gls_unlock`, `gls_free`), all operating on
/// the process-wide default service ([`GlsService::global`]).
pub mod api {
    use super::{GlsError, GlsService, LockAddr};

    /// Acquires the lock associated with `m` on the global service.
    ///
    /// # Errors
    ///
    /// See [`GlsService::lock`].
    pub fn lock(m: impl Into<LockAddr>) -> Result<(), GlsError> {
        GlsService::global().lock(m)
    }

    /// Attempts to acquire the lock associated with `m` on the global service.
    ///
    /// # Errors
    ///
    /// See [`GlsService::try_lock`].
    pub fn try_lock(m: impl Into<LockAddr>) -> Result<bool, GlsError> {
        GlsService::global().try_lock(m)
    }

    /// Releases the lock associated with `m` on the global service.
    ///
    /// # Errors
    ///
    /// See [`GlsService::unlock`].
    pub fn unlock(m: impl Into<LockAddr>) -> Result<(), GlsError> {
        GlsService::global().unlock(m)
    }

    /// Removes the lock object associated with `m` from the global service.
    pub fn free(m: impl Into<LockAddr>) -> bool {
        GlsService::global().free(m)
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn global_api_roundtrip() {
            let data = vec![1, 2, 3];
            super::lock(&data).unwrap();
            assert!(!super::try_lock(&data).unwrap());
            super::unlock(&data).unwrap();
            assert!(super::try_lock(&data).unwrap());
            super::unlock(&data).unwrap();
            assert!(super::free(&data));
            // The value form of Table 1: `gls_lock(17)`.
            super::lock(17usize).unwrap();
            super::unlock(17usize).unwrap();
            assert!(super::free(17usize));
        }
    }
}
