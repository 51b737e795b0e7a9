//! Shared runtime substrate for the GLS locking-middleware reproduction.
//!
//! The paper "Locking Made Easy" (Middleware'16) builds its adaptive lock
//! (GLK) and locking service (GLS) on top of a handful of small runtime
//! facilities that are not themselves lock algorithms:
//!
//! * a cheap way to measure short durations in **CPU cycles** and to busy-wait
//!   for a given number of cycles (critical-section simulation, latency
//!   measurements) — [`cycles`];
//! * small, dense, reusable **thread identifiers** used by the debug and
//!   deadlock-detection machinery — [`thread_id`];
//! * knowledge of how many **hardware contexts** the machine offers —
//!   [`topology`];
//! * the **system-load monitor** that tells every GLK lock in the process
//!   whether the machine is multiprogrammed (more runnable threads than
//!   hardware contexts) and should switch to its blocking mutex mode. The
//!   paper polls system-wide load from a background thread; here it is a
//!   registry of runnable threads read at the adaptation tick, with no
//!   thread of its own — [`sysload`];
//! * per-lock **statistics counters** and a tiny log-scaled **histogram**
//!   used by the GLS profiler — [`stats`] and [`histogram`];
//! * a per-thread **flight recorder** ring of recent lock events, drained
//!   into telemetry snapshots and deadlock reports — [`flight`].
//!
//! Everything in this crate is dependency-free and usable from both the core
//! `gls` crate and the benchmark harness.
//!
//! # Example
//!
//! ```
//! use gls_runtime::cycles;
//!
//! let start = cycles::now();
//! cycles::spin_for(1_000); // simulate a 1000-cycle critical section
//! assert!(cycles::now() >= start);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cycles;
pub mod flight;
pub mod histogram;
pub mod stats;
pub mod sysload;
pub mod thread_id;
pub mod topology;

pub use cycles::{now as cycles_now, spin_for as spin_cycles};
pub use flight::{FlightEvent, FlightEventKind};
pub use histogram::{AtomicLatencyHistogram, LatencyHistogram};
pub use stats::LockStats;
pub use sysload::SystemLoadMonitor;
pub use thread_id::ThreadId;
pub use topology::{hardware_contexts, pin_to};
