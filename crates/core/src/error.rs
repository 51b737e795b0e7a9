//! Error and issue types reported by the GLS service.

use std::fmt;

use gls_locks::LockKind;
use gls_runtime::{FlightEvent, ThreadId};

/// A lock-related correctness issue detected by GLS (§4.2 of the paper).
///
/// In normal mode the service never returns these; in debug mode each
/// detected issue is both returned to the caller and appended to the
/// service's issue log ([`crate::GlsService::issues`]). A
/// [`GlsError::Deadlock`] carries the reporting thread's flight-recorder
/// trail, so the `Err` and the logged issue are the one record of it.
#[derive(Debug, Clone, PartialEq)]
pub enum GlsError {
    /// An unlock was attempted on an address that was never locked
    /// ("accessing uninitialized locks").
    UninitializedLock {
        /// The address passed to the unlock call.
        addr: usize,
    },
    /// The current owner tried to acquire the same lock again.
    DoubleLock {
        /// The lock's address.
        addr: usize,
        /// The offending thread.
        thread: ThreadId,
    },
    /// An unlock was attempted on a lock that is already free.
    ReleaseFreeLock {
        /// The lock's address.
        addr: usize,
    },
    /// A thread other than the owner attempted to release the lock.
    WrongOwner {
        /// The lock's address.
        addr: usize,
        /// The thread currently holding the lock.
        owner: ThreadId,
        /// The thread that attempted the release.
        caller: ThreadId,
    },
    /// A blocking acquisition would have closed a cycle in the order in
    /// which locks are taken, so it was reported instead of attempted (the
    /// lock is not taken). Such a cycle can deadlock whether or not this
    /// run hung.
    Deadlock {
        /// The cycle, as `(thread, address)` pairs: each thread took (or,
        /// for the reporting thread, attempted) the address while holding
        /// the address of the pair before it. It starts and ends with the
        /// reporting thread's attempt; the pairs between are the recorded
        /// order edges that lead from that address back to a lock the
        /// reporting thread holds.
        cycle: Vec<(ThreadId, usize)>,
        /// The reporting thread's flight-recorder events leading up to the
        /// attempt (slow-path acquisitions, parks, handoffs, mode
        /// transitions …), oldest first.
        trail: Vec<FlightEvent>,
    },
    /// An address created through one explicit algorithm interface was later
    /// used through a different one.
    AlgorithmMismatch {
        /// The lock's address.
        addr: usize,
        /// Algorithm the lock was created with.
        created: LockKind,
        /// Algorithm requested by the offending call.
        requested: LockKind,
    },
}

impl GlsError {
    /// The address this issue refers to (the first lock of the cycle for
    /// deadlocks).
    pub fn addr(&self) -> usize {
        match self {
            GlsError::UninitializedLock { addr }
            | GlsError::DoubleLock { addr, .. }
            | GlsError::ReleaseFreeLock { addr }
            | GlsError::WrongOwner { addr, .. }
            | GlsError::AlgorithmMismatch { addr, .. } => *addr,
            GlsError::Deadlock { cycle, .. } => cycle.first().map(|(_, a)| *a).unwrap_or(0),
        }
    }

    /// Short machine-readable category name (used in reports and tests).
    pub fn category(&self) -> &'static str {
        match self {
            GlsError::UninitializedLock { .. } => "uninitialized-lock",
            GlsError::DoubleLock { .. } => "double-lock",
            GlsError::ReleaseFreeLock { .. } => "release-free-lock",
            GlsError::WrongOwner { .. } => "wrong-owner",
            GlsError::Deadlock { .. } => "deadlock",
            GlsError::AlgorithmMismatch { .. } => "algorithm-mismatch",
        }
    }
}

impl fmt::Display for GlsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlsError::UninitializedLock { addr } => {
                write!(f, "[GLS]WARNING> LOCK {addr:#x} - Uninitialized lock")
            }
            GlsError::DoubleLock { addr, thread } => {
                write!(
                    f,
                    "[GLS]WARNING> LOCK {addr:#x} - Double locking by {thread}"
                )
            }
            GlsError::ReleaseFreeLock { addr } => {
                write!(f, "[GLS]WARNING> UNLOCK {addr:#x} - Already free")
            }
            GlsError::WrongOwner {
                addr,
                owner,
                caller,
            } => write!(
                f,
                "[GLS]WARNING> UNLOCK {addr:#x} - Owned by {owner}, released by {caller}"
            ),
            GlsError::Deadlock { cycle, .. } => {
                write!(f, "[GLS]WARNING> DEADLOCK ")?;
                if let Some((_, first)) = cycle.first() {
                    write!(f, "{first:#x} ")?;
                }
                write!(f, "- cycle detected")?;
                for (thread, addr) in cycle {
                    write!(f, " -> [{thread} waits for {addr:#x}]")?;
                }
                Ok(())
            }
            GlsError::AlgorithmMismatch {
                addr,
                created,
                requested,
            } => write!(
                f,
                "[GLS]WARNING> LOCK {addr:#x} - Created as {created}, used as {requested}"
            ),
        }
    }
}

impl std::error::Error for GlsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_style() {
        let e = GlsError::UninitializedLock { addr: 0x6344e0 };
        assert!(e.to_string().contains("Uninitialized lock"));
        assert!(e.to_string().contains("0x6344e0"));

        let e = GlsError::ReleaseFreeLock { addr: 0x62a494 };
        assert!(e.to_string().contains("Already free"));
    }

    #[test]
    fn deadlock_display_lists_cycle() {
        let e = GlsError::Deadlock {
            cycle: vec![
                (ThreadId::from_raw(2), 0x1ad0010),
                (ThreadId::from_raw(9), 0x1acfff4),
                (ThreadId::from_raw(2), 0x1ad0010),
            ],
            trail: vec![],
        };
        let s = e.to_string();
        assert!(s.contains("DEADLOCK"));
        assert!(s.contains("T2 waits for 0x1ad0010"));
        assert!(s.contains("T9 waits for 0x1acfff4"));
    }

    #[test]
    fn categories_are_distinct() {
        let errors = [
            GlsError::UninitializedLock { addr: 1 },
            GlsError::DoubleLock {
                addr: 1,
                thread: ThreadId::from_raw(0),
            },
            GlsError::ReleaseFreeLock { addr: 1 },
            GlsError::WrongOwner {
                addr: 1,
                owner: ThreadId::from_raw(0),
                caller: ThreadId::from_raw(1),
            },
            GlsError::Deadlock {
                cycle: vec![],
                trail: vec![],
            },
            GlsError::AlgorithmMismatch {
                addr: 1,
                created: LockKind::Glk,
                requested: LockKind::Mcs,
            },
        ];
        let mut cats: Vec<_> = errors.iter().map(|e| e.category()).collect();
        cats.sort();
        cats.dedup();
        assert_eq!(cats.len(), errors.len());
    }

    #[test]
    fn addr_accessor() {
        assert_eq!(GlsError::ReleaseFreeLock { addr: 7 }.addr(), 7);
        assert_eq!(
            GlsError::Deadlock {
                cycle: vec![],
                trail: vec![],
            }
            .addr(),
            0
        );
    }
}
