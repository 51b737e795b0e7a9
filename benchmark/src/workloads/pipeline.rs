//! `condvar_pipeline`: a bounded queue guarded by one GLS mutex and two
//! `GlsCondvar`s, half the workers producing and half consuming. An op is one
//! item consumed; its latency is enqueue→dequeue. The only workload in which
//! threads sleep: condvar requeue, the parking lot and the futex word do the
//! work and the spin layers almost none.
//!
//! The capacity decides what is measured. At 1 it is the scheduler (≈30 k
//! items/s, ±13 %); at 16 the queue still drains faster than a sleeper on
//! the other context wakes up, so throughput followed the VM's wake-up
//! latency (630–780 k items/s over six alternating runs). At 64 the
//! consumer rarely starves, a thread still sleeps once per ≈30 items, and
//! the same six runs stayed within 1.13–1.23 M items/s.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

use gls::{GlsCondvar, GlsService};

use crate::harness::{run_workers, Ctx, Env, Recorder, Rep, WorkerOutcome};
use crate::layers;
use crate::streams::{mix64, worker_seed};

const CAPACITY: usize = 64;
/// A wait that lasts this long is counted in `condvar.timeouts`; none is
/// expected, the timeout only bounds a lost wake-up.
const WAIT_TIMEOUT: Duration = Duration::from_millis(50);
/// `mix64` rounds a consumer spends on each item after it left the queue.
/// They make consuming the slower side by a clear margin: with even sides
/// the queue flips between mostly empty and mostly full from run to run, and
/// the enqueue→dequeue latency with it.
const CONSUMER_WORK: u32 = 64;

/// The queue. Its fields are only touched while the GLS mutex keyed by the
/// queue's own address is held, so relaxed atomics are plain cells here and
/// the mutex supplies the ordering.
struct Queue {
    payloads: [AtomicU64; CAPACITY],
    /// Enqueue time of a sampled item in ns since the repetition's base
    /// instant (made odd, so never 0); 0 for items not sampled.
    stamps: [AtomicU64; CAPACITY],
    head: AtomicUsize,
    len: AtomicUsize,
    producers_left: AtomicUsize,
    not_empty: GlsCondvar,
    not_full: GlsCondvar,
}

/// What one side of the pipeline counted.
#[derive(Default)]
struct Tally {
    items: u64,
    checksum: u64,
    waits: u64,
    timeouts: u64,
    errors: u64,
}

/// Positions of a [`Tally`] in `WorkerOutcome::extra`.
const ITEMS: usize = 0;
const CHECKSUM: usize = 1;
const WAITS: usize = 2;
const TIMEOUTS: usize = 3;

impl Tally {
    fn into_extra(self) -> Vec<u64> {
        vec![self.items, self.checksum, self.waits, self.timeouts]
    }
}

pub struct CondvarPipeline {
    /// One payload seed per producer.
    seeds: Vec<u64>,
    consumers: usize,
}

impl CondvarPipeline {
    pub fn new(env: &Env, seed: u64) -> Self {
        let producers = (env.workers / 2).max(1);
        Self {
            seeds: (0..producers)
                .map(|p| worker_seed(seed, "condvar_pipeline", p))
                .collect(),
            consumers: env.workers.saturating_sub(producers),
        }
    }

    /// Waits on `cv` until `ready` holds; the mutex is held on entry and exit.
    fn wait_until(
        service: &GlsService,
        queue: &Queue,
        cv: &GlsCondvar,
        tally: &mut Tally,
        ready: impl Fn() -> bool,
    ) {
        while !ready() {
            tally.waits += 1;
            match service.wait_timeout(cv, queue, WAIT_TIMEOUT) {
                Ok(outcome) => tally.timeouts += u64::from(outcome.timed_out()),
                Err(_) => tally.errors += 1,
            }
        }
    }

    fn produce(
        &self,
        p: usize,
        service: &GlsService,
        queue: &Queue,
        base: Instant,
        ctx: &Ctx,
        rec: &mut Recorder,
    ) -> Tally {
        let mut tally = Tally::default();
        while !ctx.stopped() {
            let payload = mix64(self.seeds[p] ^ tally.items);
            let stamp = if rec.due() {
                base.elapsed().as_nanos() as u64 | 1
            } else {
                0
            };
            tally.errors += u64::from(service.lock(queue).is_err());
            Self::wait_until(service, queue, &queue.not_full, &mut tally, || {
                queue.len.load(Relaxed) < CAPACITY
            });
            let len = queue.len.load(Relaxed);
            let tail = (queue.head.load(Relaxed) + len) % CAPACITY;
            queue.payloads[tail].store(payload, Relaxed);
            queue.stamps[tail].store(stamp, Relaxed);
            queue.len.store(len + 1, Relaxed);
            service.notify_one(&queue.not_empty, queue);
            tally.errors += u64::from(service.unlock(queue).is_err());
            tally.items += 1;
            tally.checksum = tally.checksum.wrapping_add(payload);
        }
        // The last producer out tells every consumer to drain and leave.
        tally.errors += u64::from(service.lock(queue).is_err());
        if queue.producers_left.fetch_sub(1, Relaxed) == 1 {
            for _ in 0..self.consumers {
                service.notify_one(&queue.not_empty, queue);
            }
        }
        tally.errors += u64::from(service.unlock(queue).is_err());
        tally
    }

    fn consume(service: &GlsService, queue: &Queue, base: Instant, rec: &mut Recorder) -> Tally {
        let mut tally = Tally::default();
        loop {
            tally.errors += u64::from(service.lock(queue).is_err());
            Self::wait_until(service, queue, &queue.not_empty, &mut tally, || {
                queue.len.load(Relaxed) > 0 || queue.producers_left.load(Relaxed) == 0
            });
            let len = queue.len.load(Relaxed);
            if len == 0 {
                tally.errors += u64::from(service.unlock(queue).is_err());
                return tally;
            }
            let head = queue.head.load(Relaxed);
            let payload = queue.payloads[head].load(Relaxed);
            let stamp = queue.stamps[head].load(Relaxed);
            queue.head.store((head + 1) % CAPACITY, Relaxed);
            queue.len.store(len - 1, Relaxed);
            service.notify_one(&queue.not_full, queue);
            tally.errors += u64::from(service.unlock(queue).is_err());
            if stamp != 0 {
                let now = base.elapsed().as_nanos() as u64;
                rec.push(0, Duration::from_nanos(now.saturating_sub(stamp)));
            }
            tally.items += 1;
            tally.checksum = tally.checksum.wrapping_add(payload);
            black_box((0..CONSUMER_WORK).fold(payload, |x, _| mix64(x)));
        }
    }
}

impl super::Workload for CondvarPipeline {
    fn input_hash(&self) -> u64 {
        self.seeds.iter().fold(0, |h, &s| mix64(h ^ s))
    }

    fn live_locks(&self) -> usize {
        1
    }

    fn rep(&self, _env: &Env, length: Duration, traced: bool) -> Rep {
        let producers = self.seeds.len();
        assert!(
            self.consumers > 0,
            "condvar_pipeline needs two hardware contexts: it never runs more threads than contexts"
        );
        let t0 = Instant::now();
        let service = GlsService::with_config(super::config(traced));
        let queue = Queue {
            payloads: std::array::from_fn(|_| AtomicU64::new(0)),
            stamps: std::array::from_fn(|_| AtomicU64::new(0)),
            head: AtomicUsize::new(0),
            len: AtomicUsize::new(0),
            producers_left: AtomicUsize::new(producers),
            not_empty: GlsCondvar::new(),
            not_full: GlsCondvar::new(),
        };
        // Create the mutex before the clock starts.
        let created = service.lock(&queue).is_ok() && service.unlock(&queue).is_ok();
        let before = traced.then(|| service.telemetry_snapshot());
        let base = Instant::now();

        let mut rep = run_workers(producers + self.consumers, Some(length), t0, |w, ctx| {
            let mut rec = Recorder::new(traced);
            let tally = if w < producers {
                self.produce(w, &service, &queue, base, ctx, &mut rec)
            } else {
                Self::consume(&service, &queue, base, &mut rec)
            };
            WorkerOutcome {
                // An op is an item consumed; producers count none.
                ops: if w < producers { 0 } else { tally.items },
                failed: tally.errors,
                rec,
                extra: tally.into_extra(),
            }
        });
        let after = traced.then(|| service.telemetry_snapshot());

        let side = |range: std::ops::Range<usize>, field: usize| {
            rep.workers[range]
                .iter()
                .fold(0u64, |sum, w| sum.wrapping_add(w.out.extra[field]))
        };
        let all = 0..rep.workers.len();
        let (produced, consumed) = (side(0..producers, ITEMS), side(producers..all.end, ITEMS));
        let sums_match = side(0..producers, CHECKSUM) == side(producers..all.end, CHECKSUM);
        let (waits, timeouts) = (side(all.clone(), WAITS), side(all, TIMEOUTS));

        rep.check_failed =
            u64::from(!created) + u64::from(produced != consumed) + u64::from(!sums_match);
        let call_errors: u64 = rep.workers.iter().map(|w| w.out.failed).sum();
        rep.layers.push(("service.errors", call_errors as f64));
        rep.layers.push((
            "condvar.waits_per_item",
            waits as f64 / consumed.max(1) as f64,
        ));
        rep.layers.push(("condvar.timeouts", timeouts as f64));
        if let (Some(before), Some(after)) = (before, after) {
            layers::from_snapshots(&before, &after, rep.attempted(), &mut rep.layers);
            super::push_common_layers(&mut rep);
        }
        rep
    }
}
