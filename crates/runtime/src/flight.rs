//! Per-thread lock-event flight recorder.
//!
//! A fixed-size ring buffer of the most recent lock events on each thread:
//! slow-path acquisitions, park/unpark, handoffs, GLK mode transitions and
//! lock-order cycles. Recording is a few
//! plain stores into thread-local memory (no atomics, no allocation, no
//! branches beyond the ring index mask), so the recorder can stay on in
//! production builds; the cost is only paid on paths that are already slow
//! (a thread about to park, a mode transition, a debug-mode report).
//!
//! The ring is drained on demand ([`drain`]) by the owning thread — most
//! importantly by the debug mode's lock-order check, which dumps the
//! reporting thread's trail the moment an attempt would close a cycle,
//! turning "this order can deadlock" into a replayable event sequence.

use std::cell::Cell;

use crate::cycles;

/// Number of events each thread's ring retains (a power of two so the
/// monotonic write index can be masked instead of wrapped by division).
pub const RING_CAPACITY: usize = 128;

/// What happened. The discriminants are stable (they appear in telemetry
/// dumps and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightEventKind {
    /// A lock acquisition left the fast path (parked or blocked in debug
    /// mode). `info` is unused.
    SlowPathAcquire = 1,
    /// The thread parked on an address. `info` is the park token.
    Park = 2,
    /// The thread was unparked. `info` is the unpark token it woke with.
    Unpark = 3,
    /// A release handed the lock directly to the queue head. `info` is 1
    /// when other waiters stay parked behind the new holder, else 0.
    Handoff = 4,
    /// A GLK lock changed modes, and why (the paper's §4.3 transition
    /// report). `info` packs, from the lowest bit up:
    ///
    /// * bits 0–7: the new mode, and bits 8–15: the old one (GLK's mode
    ///   discriminants: 0 ticket, 1 mcs, 2 mutex);
    /// * bit 16: whether more threads were runnable than hardware contexts;
    /// * bits 32–63: the smoothed queue length that decided the move, in
    ///   fixed point with 8 fractional bits (1/256ths of a waiter),
    ///   saturating at the field's maximum.
    ModeTransition = 5,
    /// An attempt on the address would have closed a cycle in the debug
    /// mode's lock-order graph, and was reported instead. `info` is the
    /// length of the reported cycle.
    LockOrderCycle = 7,
}

impl FlightEventKind {
    /// Stable lower-case name (used by the human/JSON exporters).
    pub fn as_str(self) -> &'static str {
        match self {
            FlightEventKind::SlowPathAcquire => "slow_path_acquire",
            FlightEventKind::Park => "park",
            FlightEventKind::Unpark => "unpark",
            FlightEventKind::Handoff => "handoff",
            FlightEventKind::ModeTransition => "mode_transition",
            FlightEventKind::LockOrderCycle => "lock_order_cycle",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// What happened.
    pub kind: FlightEventKind,
    /// The lock (or parking) address the event concerns; 0 when unknown.
    pub addr: usize,
    /// Kind-specific payload (see [`FlightEventKind`]).
    pub info: u64,
    /// [`cycles::now`] at recording time.
    pub at: u64,
}

/// The per-thread ring. `head` counts every event ever recorded on this
/// thread; the slot for event `n` is `n % RING_CAPACITY`.
struct Ring {
    events: [Cell<Option<FlightEvent>>; RING_CAPACITY],
    head: Cell<u64>,
}

impl Ring {
    fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const EMPTY: Cell<Option<FlightEvent>> = Cell::new(None);
        Self {
            events: [EMPTY; RING_CAPACITY],
            head: Cell::new(0),
        }
    }
}

thread_local! {
    static RING: Ring = Ring::new();
}

/// Records one event into the calling thread's ring, overwriting the oldest
/// entry once the ring is full.
#[inline]
pub fn record(kind: FlightEventKind, addr: usize, info: u64) {
    RING.with(|ring| {
        let head = ring.head.get();
        ring.events[(head as usize) & (RING_CAPACITY - 1)].set(Some(FlightEvent {
            kind,
            addr,
            info,
            at: cycles::now(),
        }));
        ring.head.set(head + 1);
    });
}

/// Removes and returns the calling thread's retained events, oldest first
/// (at most [`RING_CAPACITY`] of them).
pub fn drain() -> Vec<FlightEvent> {
    RING.with(|ring| {
        let head = ring.head.get();
        let retained = (head as usize).min(RING_CAPACITY);
        let mut out = Vec::with_capacity(retained);
        for n in (head - retained as u64)..head {
            if let Some(event) = ring.events[(n as usize) & (RING_CAPACITY - 1)].take() {
                out.push(event);
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test runs on its own thread in `cargo test`, but be defensive:
    // start from a drained ring so leftover events from a shared thread
    // cannot skew counts.

    #[test]
    fn records_and_drains_in_order() {
        let _ = drain();
        record(FlightEventKind::Park, 0x10, 7);
        record(FlightEventKind::Unpark, 0x10, 0);
        let events = drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, FlightEventKind::Park);
        assert_eq!(events[0].addr, 0x10);
        assert_eq!(events[0].info, 7);
        assert_eq!(events[1].kind, FlightEventKind::Unpark);
        assert!(events[0].at <= events[1].at);
        // Drained: nothing left.
        assert!(drain().is_empty());
    }

    #[test]
    fn ring_wraps_and_keeps_the_most_recent_events() {
        let _ = drain();
        let recorded = || RING.with(|ring| ring.head.get());
        let before = recorded();
        let extra = 10u64;
        for i in 0..(RING_CAPACITY as u64 + extra) {
            record(FlightEventKind::SlowPathAcquire, 0x20, i);
        }
        assert_eq!(recorded(), before + RING_CAPACITY as u64 + extra);
        let events = drain();
        assert_eq!(
            events.len(),
            RING_CAPACITY,
            "ring retains exactly its capacity"
        );
        // The oldest retained event is the first one that was not
        // overwritten: number `extra` of this batch.
        assert_eq!(events[0].info, extra);
        assert_eq!(
            events[RING_CAPACITY - 1].info,
            RING_CAPACITY as u64 + extra - 1
        );
    }

    #[test]
    fn rings_are_per_thread() {
        let _ = drain();
        record(FlightEventKind::Park, 0x40, 0);
        let other = std::thread::spawn(|| drain().len()).join().unwrap();
        assert_eq!(other, 0, "a fresh thread has an empty ring");
        assert_eq!(drain().len(), 1);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(FlightEventKind::Park.as_str(), "park");
        assert_eq!(FlightEventKind::ModeTransition.as_str(), "mode_transition");
        assert_eq!(FlightEventKind::LockOrderCycle.as_str(), "lock_order_cycle");
    }
}
