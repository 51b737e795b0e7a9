//! Microbenchmark harness for the GLS/GLK reproduction.
//!
//! The paper evaluates its locks with a family of microbenchmarks (§3.2,
//! §4.1): threads run in a loop, each iteration picking a lock object at
//! random (uniformly or with a zipfian skew), holding it for a critical
//! section of a configurable number of CPU cycles, and then waiting briefly
//! outside the critical section "to avoid long runs". Throughput is the
//! number of completed critical sections per second, and each data point is
//! the median of several repetitions. Multiprogramming is created by
//! spawning additional threads that only spin.
//!
//! This crate packages that methodology so every figure of the paper can be
//! regenerated from the same building blocks:
//!
//! * [`bench_lock`] — a uniform facade over every lock algorithm (and over
//!   GLS-mediated locking) so the same driver measures them all;
//! * [`microbench`] — the threads-loop-over-locks driver;
//! * [`zipf`] — the zipfian lock/key selector (α = 0.9 in Figure 9);
//! * [`phases`] — the time-varying workload of Figure 10;
//! * [`multiprog`] — background spinner threads for oversubscription;
//! * [`crosspoint`] — the ticket-vs-MCS crossover search of Figure 5;
//! * [`latency`] — single-thread lock/unlock latency probes for Figure 11;
//! * [`report`] — plain-text tables/series printed by the harness binaries;
//! * [`rw_bench`] — the read-ratio sweep over reader-writer locks
//!   (raw TTAS-rw vs GLS-rw vs `std::sync::RwLock`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bench_lock;
pub mod crosspoint;
pub mod latency;
pub mod microbench;
pub mod multiprog;
pub mod phases;
pub mod report;
pub mod rw_bench;
pub mod zipf;

pub use bench_lock::{make_locks, BenchLock, LockSetup};
pub use microbench::{LockSelection, MicrobenchConfig, MicrobenchResult};
pub use phases::{Phase, PhaseResult};
pub use rw_bench::{RwBenchLock, RwLockSetup, RwSweepConfig, RwSweepResult};
pub use zipf::Zipfian;
