//! Enumeration of the lock algorithms known to the middleware.

use std::fmt;
use std::str::FromStr;

/// The lock algorithms exposed by GLS (paper Table 1) plus the adaptive GLK.
///
/// # Example
///
/// ```
/// use gls_locks::LockKind;
///
/// assert_eq!("mcs".parse::<LockKind>().unwrap(), LockKind::Mcs);
/// assert_eq!(LockKind::Ticket.to_string(), "TICKET");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockKind {
    /// Test-and-set spinlock.
    Tas,
    /// Test-and-test-and-set spinlock.
    Ttas,
    /// Ticket spinlock (fair).
    Ticket,
    /// MCS queue lock.
    Mcs,
    /// CLH queue lock.
    Clh,
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
    pub const ALL: [LockKind; 8] = [
        LockKind::Tas,
        LockKind::Ttas,
        LockKind::Ticket,
        LockKind::Mcs,
        LockKind::Clh,
        LockKind::Mutex,
        LockKind::FutexRw,
        LockKind::Glk,
    ];

    /// Upper-case display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            LockKind::Tas => "TAS",
            LockKind::Ttas => "TTAS",
            LockKind::Ticket => "TICKET",
            LockKind::Mcs => "MCS",
            LockKind::Clh => "CLH",
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

/// Error returned when parsing an unknown lock-kind name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLockKindError {
    input: String,
}

impl fmt::Display for ParseLockKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown lock kind: {:?}", self.input)
    }
}

impl std::error::Error for ParseLockKindError {}

impl FromStr for LockKind {
    type Err = ParseLockKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "tas" => Ok(LockKind::Tas),
            "ttas" => Ok(LockKind::Ttas),
            "ticket" => Ok(LockKind::Ticket),
            "mcs" => Ok(LockKind::Mcs),
            "clh" => Ok(LockKind::Clh),
            "mutex" | "pthread" => Ok(LockKind::Mutex),
            "futex-rw" | "futex_rw" | "futexrw" => Ok(LockKind::FutexRw),
            "glk" | "adaptive" => Ok(LockKind::Glk),
            _ => Err(ParseLockKindError { input: s.into() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for kind in LockKind::ALL {
            let parsed: LockKind = kind.name().to_lowercase().parse().unwrap();
            assert_eq!(parsed, kind);
        }
    }

    #[test]
    fn parse_rejects_unknown() {
        let err = "spinny".parse::<LockKind>().unwrap_err();
        assert!(err.to_string().contains("spinny"));
    }
}
