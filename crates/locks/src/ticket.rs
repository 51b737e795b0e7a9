//! Ticket spinlock.
//!
//! The paper picks the ticket lock as GLK's low-contention mode because it is
//! fair and more scalable than TAS/TTAS (§3). A ticket lock keeps two
//! counters: `ticket` (next ticket to hand out) and `owner` (ticket currently
//! being served). The difference between them is exactly the amount of
//! queuing behind the lock — the statistic GLK's adaptation feeds on — so the
//! lock provides it "by design", for free. The ticket a holder was served
//! numbers its acquisition, so the lock counts its acquisitions for free as
//! well ([`TicketLock::acquire`]).

use gls_sync::atomic::{AtomicU32, Ordering};

use crate::cache_padded::CachePadded;
use crate::raw::{QueueInformed, RawLock, RawTryLock};
use crate::spin_wait::SpinWait;

/// A fair ticket spinlock, padded to one cache line.
///
/// # Example
///
/// ```
/// use gls_locks::{QueueInformed, RawLock, TicketLock};
///
/// let lock = TicketLock::new();
/// lock.lock();
/// assert_eq!(lock.queue_length(), 1); // holder, no waiters
/// lock.unlock();
/// assert_eq!(lock.queue_length(), 0);
/// ```
#[derive(Debug, Default)]
pub struct TicketLock {
    state: CachePadded<TicketState>,
}

#[derive(Debug, Default)]
struct TicketState {
    /// Next ticket to be handed out.
    ticket: AtomicU32,
    /// Ticket currently allowed to enter the critical section.
    owner: AtomicU32,
}

impl TicketLock {
    /// Creates an unlocked ticket lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an unlocked ticket lock whose next ticket is `first`, as if
    /// `first` acquisitions had come and gone (tests reach the counters'
    /// wrap with it).
    pub fn starting_at(first: u32) -> Self {
        let lock = Self::new();
        lock.state.ticket.store(first, Ordering::Relaxed);
        lock.state.owner.store(first, Ordering::Relaxed);
        lock
    }

    /// Acquires the lock and returns the ticket it was served: the count,
    /// modulo 2³², of the acquisitions that drew a ticket before this one.
    /// GLK paces its adaptation with it instead of counting on a line of
    /// its own.
    #[inline]
    pub fn acquire(&self) -> u32 {
        let my_ticket = self.state.ticket.fetch_add(1, Ordering::Relaxed);
        // Spin until it is our turn. Acquire on the load that observes our
        // ticket so the critical section cannot float above it.
        let mut wait = SpinWait::new();
        while self.state.owner.load(Ordering::Acquire) != my_ticket {
            wait.spin();
        }
        my_ticket
    }

    /// Acquires the lock if nobody holds or waits for it, returning the
    /// ticket served (see [`Self::acquire`]).
    #[inline]
    pub fn try_acquire(&self) -> Option<u32> {
        let owner = self.state.owner.load(Ordering::Relaxed);
        // Succeed only if no one holds or waits: ticket == owner, and we can
        // atomically grab that ticket.
        self.state
            .ticket
            .compare_exchange(
                owner,
                owner.wrapping_add(1),
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .ok()
    }

    /// Returns `(ticket, owner)` as they stood at one instant; used by
    /// tests and by GLK's statistics. `owner` is read before and after
    /// `ticket` and the pair is kept only if it did not move: a release
    /// between two plain loads made `ticket - owner` wrap to 2³² − 1 (ticket
    /// first) or count every ticket drawn while the sampler was descheduled
    /// (owner first).
    pub fn counters(&self) -> (u32, u32) {
        // Acquire: keeps the three loads in program order.
        let mut owner = self.state.owner.load(Ordering::Acquire);
        loop {
            let ticket = self.state.ticket.load(Ordering::Acquire);
            let again = self.state.owner.load(Ordering::Acquire);
            if again == owner {
                return (ticket, owner);
            }
            owner = again;
        }
    }
}

impl RawLock for TicketLock {
    #[inline]
    fn lock(&self) {
        self.acquire();
    }

    #[inline]
    fn unlock(&self) {
        // Only the holder increments `owner`, so a plain add is fine.
        let owner = self.state.owner.load(Ordering::Relaxed);
        self.state
            .owner
            .store(owner.wrapping_add(1), Ordering::Release);
    }

    fn is_locked(&self) -> bool {
        let (ticket, owner) = self.counters();
        ticket != owner
    }
}

impl RawTryLock for TicketLock {
    #[inline]
    fn try_lock(&self) -> bool {
        self.try_acquire().is_some()
    }
}

impl QueueInformed for TicketLock {
    /// `ticket - owner`: the holder plus all waiters (paper §3, "Measuring
    /// Contention").
    fn queue_length(&self) -> u64 {
        let (ticket, owner) = self.counters();
        u64::from(ticket.wrapping_sub(owner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_unlock_cycle() {
        let lock = TicketLock::new();
        assert!(!lock.is_locked());
        lock.lock();
        assert!(lock.is_locked());
        lock.unlock();
        assert!(!lock.is_locked());
    }

    #[test]
    fn try_lock_only_succeeds_when_free() {
        let lock = TicketLock::new();
        assert!(lock.try_lock());
        assert!(!lock.try_lock());
        lock.unlock();
        assert!(lock.try_lock());
        lock.unlock();
    }

    #[test]
    fn queue_length_reflects_waiters() {
        let lock = Arc::new(TicketLock::new());
        lock.lock();
        let mut handles = Vec::new();
        for _ in 0..3 {
            let l = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                l.lock();
                l.unlock();
            }));
        }
        while lock.queue_length() < 4 {
            std::hint::spin_loop();
        }
        assert_eq!(lock.queue_length(), 4); // holder + 3 waiters
        lock.unlock();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lock.queue_length(), 0);
    }

    #[test]
    fn provides_mutual_exclusion() {
        crate::test_support::check_mutual_exclusion::<TicketLock>(8, 20_000);
    }

    #[test]
    fn queue_length_never_exceeds_the_thread_count() {
        // A sampler racing two lockers: a release between the sampler's
        // two counter loads must not make `ticket - owner` wrap.
        use std::sync::atomic::{AtomicBool, Ordering};
        const LOCKERS: u64 = 2;
        let lock = Arc::new(TicketLock::new());
        let stop = Arc::new(AtomicBool::new(false));
        let lockers: Vec<_> = (0..LOCKERS)
            .map(|_| {
                let (lock, stop) = (Arc::clone(&lock), Arc::clone(&stop));
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        lock.lock();
                        lock.unlock();
                    }
                })
            })
            .collect();
        let worst = (0..2_000_000).map(|_| lock.queue_length()).max();
        stop.store(true, Ordering::Relaxed);
        for h in lockers {
            h.join().unwrap();
        }
        assert!(worst <= Some(LOCKERS), "sampled a queue of {worst:?}");
    }

    #[test]
    fn fifo_ordering_of_grants() {
        // With a ticket lock, acquisition order must match ticket order.
        use std::sync::atomic::{AtomicU32, Ordering};
        let lock = Arc::new(TicketLock::new());
        let order = Arc::new(AtomicU32::new(0));
        lock.lock();
        let mut handles = Vec::new();
        let mut expected = Vec::new();
        for i in 0..4u32 {
            let l = Arc::clone(&lock);
            let o = Arc::clone(&order);
            // Serialize enqueueing so ticket order is deterministic.
            while lock.queue_length() < u64::from(i) + 1 {
                std::hint::spin_loop();
            }
            handles.push(std::thread::spawn(move || {
                l.lock();
                let pos = o.fetch_add(1, Ordering::Relaxed);
                l.unlock();
                (i, pos)
            }));
            expected.push(i);
            while lock.queue_length() < u64::from(i) + 2 {
                std::hint::spin_loop();
            }
        }
        lock.unlock();
        let mut results: Vec<(u32, u32)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        results.sort_by_key(|&(_, pos)| pos);
        let served: Vec<u32> = results.iter().map(|&(i, _)| i).collect();
        assert_eq!(served, expected, "ticket lock should serve FIFO");
    }

    #[test]
    fn counters_wrap_safely() {
        let lock = TicketLock::starting_at(u32::MAX);
        lock.lock();
        assert_eq!(lock.queue_length(), 1);
        lock.unlock();
        assert_eq!(lock.queue_length(), 0);
        assert!(!lock.is_locked());
    }

    #[test]
    fn acquisitions_return_the_ticket_served() {
        let lock = TicketLock::starting_at(u32::MAX - 1);
        assert_eq!(lock.acquire(), u32::MAX - 1);
        assert_eq!(lock.try_acquire(), None, "held");
        lock.unlock();
        assert_eq!(lock.try_acquire(), Some(u32::MAX));
        lock.unlock();
        assert_eq!(lock.acquire(), 0, "the ticket wraps");
        lock.unlock();
        assert_eq!(lock.counters(), (1, 1));
    }
}
