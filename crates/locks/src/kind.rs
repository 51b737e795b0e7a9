//! Enumeration of the lock algorithms known to the middleware.

use std::fmt;

/// The lock strategies exposed by GLS: the three the paper's figures
/// compare (TICKET, MCS, MUTEX), the futex reader-writer word behind the rw
/// interface, and the adaptive GLK.
///
/// # Example
///
/// ```
/// use gls_locks::LockKind;
///
/// assert_eq!(LockKind::Ticket.to_string(), "TICKET");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockKind {
    /// Ticket spinlock (fair).
    Ticket,
    /// MCS queue lock.
    Mcs,
    /// Blocking mutex: a word-sized spin-then-park lock
    /// ([`FutexLock`](crate::FutexLock), one `AtomicU32` of per-lock state)
    /// whose waiters sleep in the shared parking lot.
    Mutex,
    /// Word-sized reader-writer lock ([`FutexRwLock`](crate::FutexRwLock))
    /// that spins, then parks on the shared parking lot: the entry kind
    /// behind GLS's reader-writer interface. Exclusive (`lock`) calls on
    /// such an entry acquire write access.
    FutexRw,
    /// The adaptive generic lock (GLK).
    Glk,
}

impl LockKind {
    /// All algorithms, including the adaptive GLK.
    pub const ALL: [LockKind; 5] = [
        LockKind::Ticket,
        LockKind::Mcs,
        LockKind::Mutex,
        LockKind::FutexRw,
        LockKind::Glk,
    ];

    /// Upper-case display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            LockKind::Ticket => "TICKET",
            LockKind::Mcs => "MCS",
            LockKind::Mutex => "MUTEX",
            LockKind::FutexRw => "FUTEX-RW",
            LockKind::Glk => "GLK",
        }
    }
}

impl fmt::Display for LockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}
