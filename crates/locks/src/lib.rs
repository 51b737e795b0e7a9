//! Lock-algorithm substrate for the "Locking Made Easy" reproduction.
//!
//! The paper's middleware (GLS) and adaptive lock (GLK) are built from the
//! three lock strategies its figures compare (§2): a spinlock
//! ([`TicketLock`]), a queue lock ([`McsLock`]) and a blocking mutex with a
//! bounded busy-wait phase ([`FutexLock`], the paper's MUTEX). This crate
//! implements them behind two small traits, [`RawLock`] and [`RawTryLock`],
//! plus a [`QueueInformed`] extension that exposes the queue length needed
//! by GLK's contention statistics. [`TtasLock`] is the bucket lock of the
//! GLS hash table (CLHT) and implements [`RawLock`] only.
//! Reader-writer locking (Kyoto Cabinet, SQLite — §5.2) is covered by the
//! [`RawRwLock`] trait with a spinning ([`RwTtasRaw`]) and a
//! blocking/parking ([`FutexRwLock`]) implementation, both
//! writer-preferring via a writer-intent bit so reader streams cannot
//! starve writers.
//!
//! Blocking at scale is served by the address-keyed **parking lot** ([`park`]):
//! a global fixed table of FIFO wait buckets that holds all wait-queue
//! state centrally, so the word-sized [`FutexLock`] and [`FutexRwLock`]
//! need only a single `AtomicU32` of per-lock state — the layout that lets
//! a production system keep hundreds of thousands of live blocking locks.
//!
//! The spin and queue locks are padded to a cache line ([`CachePadded`])
//! exactly as the paper's methodology pads every lock to 64 bytes to avoid
//! false sharing — except the futex locks, whose entire point is density
//! (wrap them in [`CachePadded`] explicitly where padding matters more than
//! space), and [`TtasLock`], which lives inside a cache-line-sized CLHT
//! bucket beside the keys it guards.
//!
//! # Quick start
//!
//! ```
//! use gls_locks::{RawLock, TicketLock};
//!
//! let lock = TicketLock::new();
//! lock.lock();
//! // ... critical section ...
//! lock.unlock();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache_padded;
pub mod futex_mutex;
pub mod futex_rwlock;
pub mod kind;
pub mod mcs;
pub mod park;
#[cfg(test)]
mod proptests;
pub mod raw;
pub mod rwlock;
pub mod spin_wait;
#[cfg(test)]
pub(crate) mod test_support;
pub mod ticket;
pub mod ttas;

pub use cache_padded::CachePadded;
pub use futex_mutex::FutexLock;
pub use futex_rwlock::FutexRwLock;
pub use kind::LockKind;
pub use mcs::McsLock;
pub use park::{ParkResult, ParkingLot, ParkingLotStats, UnparkResult};
pub use raw::{QueueInformed, RawLock, RawRwLock, RawTryLock};
pub use rwlock::RwTtasRaw;
pub use spin_wait::SpinWait;
pub use ticket::TicketLock;
pub use ttas::TtasLock;
