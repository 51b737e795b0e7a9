//! Producer/consumer workload driving the GLS condition variables.
//!
//! A bounded queue guarded by one GLS mutex and two [`GlsCondvar`]s
//! (`not_empty` for consumers, `not_full` for producers) — the canonical
//! condvar workload, and the shape of the memcached maintenance path
//! (workers signal, a background thread waits). Every wait goes through
//! [`GlsService::wait`] / [`GlsService::wait_timeout`], so the full service
//! stack is exercised: address mapping, the per-thread lock cache, and in
//! debug mode the ownership checks and deadlock detection the sleeping
//! waiters must stay invisible to.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gls::{GlsCondvar, GlsService};

/// Configuration of one producer/consumer run.
#[derive(Debug, Clone)]
pub struct PcConfig {
    /// Producer threads.
    pub producers: usize,
    /// Consumer threads.
    pub consumers: usize,
    /// Queue capacity; producers block on `not_full` when it is reached.
    pub capacity: usize,
    /// Items each producer pushes before retiring.
    pub items_per_producer: u64,
    /// Timeout used by consumer waits, so a missed shutdown signal can
    /// never hang the run (timeouts count as spurious wakeups: the
    /// predicate loop re-checks and re-waits).
    pub wait_timeout: Duration,
}

impl Default for PcConfig {
    fn default() -> Self {
        Self {
            producers: 2,
            consumers: 2,
            capacity: 16,
            items_per_producer: 5_000,
            wait_timeout: Duration::from_millis(50),
        }
    }
}

/// Result of one producer/consumer run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcResult {
    /// Items pushed by all producers.
    pub produced: u64,
    /// Items popped by all consumers.
    pub consumed: u64,
    /// Checksum of consumed items (sum), for loss/duplication detection.
    pub checksum: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl PcResult {
    /// Throughput in million items per second.
    pub fn mops(&self) -> f64 {
        self.consumed as f64 / self.elapsed.as_secs_f64() / 1e6
    }
}

/// The queue state, protected by the GLS mutex keyed at its address.
struct Shared {
    state: UnsafeCell<State>,
}

struct State {
    queue: VecDeque<u64>,
    producers_live: usize,
}

// SAFETY: `state` is only touched while holding the GLS mutex keyed by the
// `Shared` allocation's address.
unsafe impl Sync for Shared {}
unsafe impl Send for Shared {}

/// Runs the producer/consumer pipeline on `service` and returns the counts.
///
/// # Panics
///
/// Panics if the configuration has zero producers, consumers or capacity,
/// or if the service reports a locking error (which a correct run never
/// produces, in any service mode).
pub fn run(service: &Arc<GlsService>, config: &PcConfig) -> PcResult {
    assert!(config.producers > 0, "need at least one producer");
    assert!(config.consumers > 0, "need at least one consumer");
    assert!(config.capacity > 0, "need a non-zero queue capacity");

    let shared = Arc::new(Shared {
        state: UnsafeCell::new(State {
            queue: VecDeque::with_capacity(config.capacity),
            producers_live: config.producers,
        }),
    });
    let not_empty = Arc::new(GlsCondvar::new());
    let not_full = Arc::new(GlsCondvar::new());
    let start = Instant::now();

    let producers: Vec<_> = (0..config.producers)
        .map(|p| {
            let service = Arc::clone(service);
            let shared = Arc::clone(&shared);
            let not_empty = Arc::clone(&not_empty);
            let not_full = Arc::clone(&not_full);
            let items = config.items_per_producer;
            let capacity = config.capacity;
            std::thread::spawn(move || {
                gls_runtime::topology::pin_worker(p);
                let addr = GlsService::address_of(shared.as_ref());
                for i in 0..items {
                    let value = (p as u64) << 32 | i;
                    service.lock(addr).expect("producer lock");
                    // SAFETY: the GLS mutex for `addr` is held.
                    while unsafe { (*shared.state.get()).queue.len() } >= capacity {
                        service.wait(&not_full, addr).expect("not_full wait");
                    }
                    unsafe { (*shared.state.get()).queue.push_back(value) };
                    service.unlock(addr).expect("producer unlock");
                    not_empty.notify_one();
                }
                // Retire: the last producer out wakes every consumer so the
                // "no more items coming" predicate is re-checked everywhere.
                service.lock(addr).expect("producer retire lock");
                let last = {
                    // SAFETY: the GLS mutex for `addr` is held.
                    let state = unsafe { &mut *shared.state.get() };
                    state.producers_live -= 1;
                    state.producers_live == 0
                };
                service.unlock(addr).expect("producer retire unlock");
                if last {
                    not_empty.notify_all();
                }
                items
            })
        })
        .collect();

    let consumers: Vec<_> = (0..config.consumers)
        .map(|c| {
            let service = Arc::clone(service);
            let shared = Arc::clone(&shared);
            let not_empty = Arc::clone(&not_empty);
            let not_full = Arc::clone(&not_full);
            let timeout = config.wait_timeout;
            let producers = config.producers;
            std::thread::spawn(move || {
                // Consumers continue the producers' round-robin placement.
                gls_runtime::topology::pin_worker(producers + c);
                let addr = GlsService::address_of(shared.as_ref());
                let mut consumed = 0u64;
                let mut checksum = 0u64;
                loop {
                    service.lock(addr).expect("consumer lock");
                    let item = loop {
                        // SAFETY: the GLS mutex for `addr` is held.
                        let state = unsafe { &mut *shared.state.get() };
                        if let Some(value) = state.queue.pop_front() {
                            break Some(value);
                        }
                        if state.producers_live == 0 {
                            break None;
                        }
                        // Timed wait: a lost shutdown race degrades to one
                        // timeout tick instead of a hang; the loop re-checks
                        // the predicate either way (spurious-wakeup safe).
                        service
                            .wait_timeout(&not_empty, addr, timeout)
                            .expect("not_empty wait");
                    };
                    service.unlock(addr).expect("consumer unlock");
                    match item {
                        Some(value) => {
                            consumed += 1;
                            checksum = checksum.wrapping_add(value);
                            not_full.notify_one();
                        }
                        None => return (consumed, checksum),
                    }
                }
            })
        })
        .collect();

    let produced: u64 = producers.into_iter().map(|h| h.join().unwrap()).sum();
    let (consumed, checksum) = consumers
        .into_iter()
        .map(|h| h.join().unwrap())
        .fold((0u64, 0u64), |(c, s), (dc, ds)| {
            (c + dc, s.wrapping_add(ds))
        });
    PcResult {
        produced,
        consumed,
        checksum,
        elapsed: start.elapsed(),
    }
}

/// The checksum a complete, loss-free run must produce.
pub fn expected_checksum(config: &PcConfig) -> u64 {
    let mut sum = 0u64;
    for p in 0..config.producers as u64 {
        for i in 0..config.items_per_producer {
            sum = sum.wrapping_add(p << 32 | i);
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use gls::{GlsConfig, GlsMode};

    fn quick() -> PcConfig {
        PcConfig {
            producers: 2,
            consumers: 2,
            capacity: 8,
            items_per_producer: 2_000,
            ..Default::default()
        }
    }

    #[test]
    fn pipeline_delivers_every_item_exactly_once() {
        let service = Arc::new(GlsService::new());
        let config = quick();
        let result = run(&service, &config);
        assert_eq!(result.produced, 4_000);
        assert_eq!(result.consumed, 4_000);
        assert_eq!(result.checksum, expected_checksum(&config));
        assert!(result.mops() > 0.0);
    }

    #[test]
    fn single_producer_many_consumers_drains() {
        let service = Arc::new(GlsService::new());
        let config = PcConfig {
            producers: 1,
            consumers: 4,
            capacity: 2,
            items_per_producer: 3_000,
            ..Default::default()
        };
        let result = run(&service, &config);
        assert_eq!(result.consumed, 3_000);
        assert_eq!(result.checksum, expected_checksum(&config));
    }

    #[test]
    fn debug_mode_run_reports_no_issues() {
        // The acceptance-critical property: a multi-producer/multi-consumer
        // condvar pipeline under the debug mode completes with an empty
        // issue log — sleeping waiters are invisible to the deadlock
        // detector, so no phantom cycles appear.
        let service = Arc::new(GlsService::with_config(
            GlsConfig::default()
                .with_mode(GlsMode::Debug)
                .with_deadlock_check_after(Duration::from_millis(50)),
        ));
        let config = quick();
        let result = run(&service, &config);
        assert_eq!(result.consumed, 4_000);
        assert!(
            service.issues().is_empty(),
            "condvar waits must not trip the debug mode: {:?}",
            service.issues()
        );
    }

    #[test]
    fn profile_mode_sees_the_queue_mutex() {
        let service = Arc::new(GlsService::with_config(GlsConfig::profile()));
        let result = run(&service, &quick());
        assert_eq!(result.consumed, 4_000);
        let locks = service.telemetry_snapshot().locks;
        assert_eq!(locks.len(), 1, "one mutex entry behind the queue");
        assert!(locks[0].acquisitions > 0);
    }
}
