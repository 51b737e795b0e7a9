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
//!   default interface uses GLK; explicit interfaces expose the ticket,
//!   MCS and mutex locks the paper's figures compare, and a reader-writer
//!   interface (`read_lock`/`write_lock` + guards) backed by the word-sized
//!   [`FutexRwLock`](gls_locks::FutexRwLock), which spins and then parks.
//!   A debug mode detects the classic locking bugs (including
//!   lock-order inversions, reported before they can deadlock) and a
//!   profiler mode reports per-lock contention and latencies.
//!
//! ## Quick start
//!
//! ```
//! use gls::GlsService;
//!
//! // One service for the whole application.
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
pub use glk::{GlkConfig, GlkLock, GlkMode};
pub use gls::{
    thread_cache_stats, CacheStats, DeadlockTelemetry, GlsCondvar, GlsConfig, GlsGuard, GlsMode,
    GlsService, HistogramSummary, LockAddr, LockTelemetry, TelemetrySnapshot, WaitOutcome,
    CACHE_SLOTS,
};

// Re-export the substrate types that appear in this crate's public API so
// downstream users need only one dependency.
pub use gls_locks::LockKind;

// The lock-order check's protocol steps and the seeded lock-order,
// cache-hit and condvar-count bugs, re-exposed for the model tests in
// `crates/model/tests`.
#[cfg(gls_model)]
pub use gls::{
    model_check_then_insert, model_count_waiter_after_release, model_hit_checks_addr_only,
    ModelOrder,
};
