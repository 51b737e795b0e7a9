//! GLS — the generic locking service (§4 of the paper).
//!
//! GLS hides lock declaration, allocation, initialization and algorithm
//! selection behind a classic lock/unlock interface keyed by **any address**:
//! the service maps the address to a lock object through a CLHT hash table,
//! accelerated by a per-thread direct-mapped lock cache whose hits are
//! checked against the entry itself (live, and still serving the address).
//! On top of that mapping, GLS provides a debug mode that detects the common
//! locking bugs (uninitialized locks, double locking, releasing a free lock,
//! releasing another thread's lock, lock-order inversions that can deadlock)
//! and a profiler mode that
//! reports per-lock contention and latency through per-thread stat shards.

mod addr;
mod cache;
mod condvar;
mod config;
mod debug;
mod entry;
mod sampler;
mod service;
mod shards;
mod telemetry;

/// Locks debug-mode bookkeeping whatever a thread that panicked while
/// holding it left: every update under these mutexes is one push, insert,
/// remove or clear, so the data is valid at every step. (A skipped update
/// would be worse: a holder record that is not written makes the matching
/// `read_unlock` report a spurious `WrongOwner`.)
// Raw std on purpose, like the bookkeeping it guards (see clippy.toml).
#[allow(clippy::disallowed_types)]
fn relock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use addr::LockAddr;
pub use cache::{thread_cache_stats, CacheStats, CACHE_SLOTS};
pub use condvar::{GlsCondvar, WaitOutcome};
pub use config::{GlsConfig, GlsMode};
#[cfg(gls_model)]
pub use debug::model::{model_check_then_insert, ModelOrder};
#[cfg(gls_model)]
pub use service::model::{model_count_waiter_after_release, model_hit_checks_addr_only};
pub use service::{GlsGuard, GlsService};
pub use telemetry::{DeadlockTelemetry, HistogramSummary, LockTelemetry, TelemetrySnapshot};
