//! The three operating modes of GLK (paper Figure 2).

use std::fmt;

/// The mode a GLK lock currently operates in.
///
/// * [`GlkMode::Ticket`] — low contention: behave as a simple, fair spinlock.
/// * [`GlkMode::Mcs`] — high contention: behave as a queue-based spinlock so
///   each waiter spins on its own cache line.
/// * [`GlkMode::Mutex`] — multiprogramming: behave as a blocking lock so
///   waiters release their hardware contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum GlkMode {
    /// Ticket-spinlock mode (low contention).
    Ticket = 0,
    /// MCS queue-lock mode (high contention).
    Mcs = 1,
    /// Blocking-mutex mode (multiprogramming).
    Mutex = 2,
}

impl GlkMode {
    /// All modes, in escalation order.
    pub const ALL: [GlkMode; 3] = [GlkMode::Ticket, GlkMode::Mcs, GlkMode::Mutex];

    /// Decodes a mode from its `u8` representation.
    ///
    /// # Panics
    ///
    /// Panics if `raw` is not a valid mode discriminant (internal invariant).
    pub(crate) fn from_raw(raw: u8) -> GlkMode {
        match raw {
            0 => GlkMode::Ticket,
            1 => GlkMode::Mcs,
            2 => GlkMode::Mutex,
            other => unreachable!("invalid GLK mode discriminant: {other}"),
        }
    }

    /// The `u8` representation stored in the lock's `lock_type` field.
    pub(crate) fn as_raw(self) -> u8 {
        self as u8
    }

    /// Display name (matches the paper's figures).
    pub fn name(self) -> &'static str {
        match self {
            GlkMode::Ticket => "ticket",
            GlkMode::Mcs => "mcs",
            GlkMode::Mutex => "mutex",
        }
    }
}

impl fmt::Display for GlkMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_roundtrip() {
        for mode in GlkMode::ALL {
            assert_eq!(GlkMode::from_raw(mode.as_raw()), mode);
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(GlkMode::Ticket.to_string(), "ticket");
        assert_eq!(GlkMode::Mcs.to_string(), "mcs");
        assert_eq!(GlkMode::Mutex.to_string(), "mutex");
    }
}
