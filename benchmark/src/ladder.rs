//! The cost ladder: what one uncontended `lock`+`unlock` pair costs at each
//! layer, from a raw lock up to the fully profiled service, measured from
//! outside through public functions only. One pinned thread round-robins
//! over [`ADDRS`] private locks; the rungs are interleaved A-B-C-A-B-C so
//! drift hits them alike, and each reports the median round. Handoff rungs
//! put every worker on one lock; a ping-pong prices a condvar round trip.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

use gls::{GlkLock, GlsCondvar, GlsConfig, GlsService};
use gls_clht::Clht;
use gls_locks::{FutexLock, McsLock, RawLock, TicketLock};
use gls_runtime::topology;

use crate::harness::{run_workers, Env, Recorder, WorkerOutcome};
use crate::stats::{median, percentile};
use crate::workloads::SAMPLING_BUDGET;

/// Private locks the single-thread rungs rotate over.
const ADDRS: usize = 8;
/// The larger working set of the `cache.saving_ns.ws128` rungs: twice the
/// thread cache's 64 entries.
const WIDE: usize = 128;
/// Pairs per rung per round.
const PAIRS: u64 = 20_000;
/// Lock identities are one cache line apart.
const STRIDE: usize = 8;

type Rung<'a> = (&'static str, Box<dyn FnMut() + Send + 'a>);

/// Runs `pair` on each of `items` in rotation, [`PAIRS`] times in all.
fn rotate<T>(items: &[T], mut pair: impl FnMut(&T)) {
    let mut i = 0;
    for _ in 0..PAIRS {
        pair(black_box(&items[i]));
        i = if i + 1 == items.len() { 0 } else { i + 1 };
    }
}

fn raw_rung<'a, L: RawLock + 'a>(name: &'static str) -> Rung<'a> {
    let locks: Vec<L> = (0..ADDRS).map(|_| L::default()).collect();
    (
        name,
        Box::new(move || {
            rotate(&locks, |l| {
                l.lock();
                l.unlock();
            })
        }),
    )
}

/// A service rung over `width` addresses of `cells`.
fn service_rung<'a>(
    name: &'static str,
    config: GlsConfig,
    cells: &'a [u64],
    width: usize,
    pair: impl Fn(&GlsService, &u64) + Send + 'a,
) -> Rung<'a> {
    let service = GlsService::with_config(config);
    let ids: Vec<&u64> = cells.iter().step_by(STRIDE).take(width).collect();
    (name, Box::new(move || rotate(&ids, |m| pair(&service, m))))
}

const NEVER_FAILS: &str = "the service fails only in debug mode";

fn lock_pair(service: &GlsService, m: &u64) {
    service.lock(m).expect(NEVER_FAILS);
    service.unlock(m).expect(NEVER_FAILS);
}

/// The single-thread rungs, measured on a thread pinned to context 0 until
/// `budget` is spent (at least five rounds). Returns ns per pair by rung.
fn single_thread(budget: Duration, table_locks: usize) -> Vec<(&'static str, f64)> {
    let cells = vec![0u64; WIDE * STRIDE];
    let cached = GlsConfig::default;
    let uncached = || GlsConfig::default().with_lock_cache(false);
    let profile = GlsConfig::profile;

    let std_mutexes: Vec<std::sync::Mutex<()>> = (0..ADDRS).map(|_| Default::default()).collect();
    let glks: Vec<GlkLock> = (0..ADDRS).map(|_| GlkLock::new()).collect();

    // The table rungs call `Clht` directly on a table holding as many keys
    // as the workload keeps locks (the service's own initial capacity).
    let table = Clht::with_capacity(GlsConfig::default().initial_capacity);
    let keys: Vec<usize> = (1..=table_locks.max(1))
        .map(|i| 0x4000_0000 + i * 64)
        .collect();
    for &key in &keys {
        table.put_if_absent(key, || key);
    }
    let spare = 0x4000_0000 + (keys.len() + 1) * 64;

    let mut rungs: Vec<Rung<'_>> = vec![
        (
            "locks.std_mutex_pair_ns",
            Box::new(|| {
                rotate(&std_mutexes, |m| {
                    drop(black_box(m.lock().expect("never poisoned")))
                })
            }),
        ),
        raw_rung::<TicketLock>("locks.ticket_pair_ns"),
        raw_rung::<McsLock>("locks.mcs_pair_ns"),
        raw_rung::<FutexLock>("locks.futex_pair_ns"),
        (
            "glk.pair_ns",
            Box::new(|| {
                rotate(&glks, |l| {
                    l.lock();
                    l.unlock();
                })
            }),
        ),
        service_rung("glk_rw.read_pair_ns", cached(), &cells, ADDRS, |s, m| {
            s.read_lock(m).expect(NEVER_FAILS);
            s.read_unlock(m).expect(NEVER_FAILS);
        }),
        service_rung("glk_rw.write_pair_ns", cached(), &cells, ADDRS, |s, m| {
            s.write_lock(m).expect(NEVER_FAILS);
            s.write_unlock(m).expect(NEVER_FAILS);
        }),
        service_rung("service.pair_ns", cached(), &cells, ADDRS, lock_pair),
        service_rung("service.guard_pair_ns", cached(), &cells, ADDRS, |s, m| {
            drop(black_box(s.guard(m).expect(NEVER_FAILS)))
        }),
        service_rung(
            "service.uncached_pair_ns",
            uncached(),
            &cells,
            ADDRS,
            lock_pair,
        ),
        service_rung("cached.ws128", cached(), &cells, WIDE, lock_pair),
        service_rung("uncached.ws128", uncached(), &cells, WIDE, lock_pair),
        service_rung(
            "profiler.sampled_pair_ns",
            profile().with_sampling(SAMPLING_BUDGET),
            &cells,
            ADDRS,
            lock_pair,
        ),
        service_rung("profiler.full_pair_ns", profile(), &cells, ADDRS, lock_pair),
        (
            "clht.get_ns",
            Box::new(|| {
                rotate(&keys, |&key| {
                    black_box(table.get(key));
                })
            }),
        ),
        (
            "clht.put_remove_ns",
            Box::new(|| {
                for _ in 0..PAIRS {
                    black_box(table.put_if_absent(black_box(spare), || spare));
                    black_box(table.remove(spare));
                }
            }),
        ),
    ];

    let mut rounds: Vec<Vec<f64>> = vec![Vec::new(); rungs.len()];
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                topology::pin_worker(0);
                // Round 0 creates the lock objects and warms up; discarded.
                let deadline = Instant::now() + budget;
                let mut round = 0;
                while round <= 5 || Instant::now() < deadline {
                    for ((_, run), samples) in rungs.iter_mut().zip(&mut rounds) {
                        let start = Instant::now();
                        run();
                        let ns = start.elapsed().as_nanos() as f64 / PAIRS as f64;
                        if round > 0 {
                            samples.push(ns);
                        }
                    }
                    round += 1;
                }
            })
            .join()
            .expect("the ladder thread panicked");
    });

    let mut out: Vec<(&'static str, f64)> = rungs
        .iter()
        .zip(&rounds)
        .map(|((name, _), samples)| (*name, median(samples)))
        .collect();
    out.push(("clht.expansions", table.stats().expansions as f64));
    out
}

/// Every worker hammering one lock for `slice`: wall time per acquisition,
/// which under constant contention is the handover cost.
fn handoff_ns(env: &Env, slice: Duration, pair: impl Fn() + Sync) -> f64 {
    let rep = run_workers(env.workers, Some(slice), Instant::now(), |_, ctx| {
        let mut ops = 0u64;
        while !ctx.stopped() {
            pair();
            ops += 1;
        }
        WorkerOutcome {
            ops,
            failed: 0,
            rec: Recorder::new(false),
            extra: Vec::new(),
        }
    });
    1e9 / rep.ops_per_s()
}

fn handoffs(env: &Env, budget: Duration) -> Vec<(&'static str, f64)> {
    const ROUNDS: u32 = 3;
    let (ticket, mcs, futex, glk) = (
        TicketLock::default(),
        McsLock::default(),
        FutexLock::default(),
        GlkLock::new(),
    );
    fn raw(lock: &impl RawLock) {
        lock.lock();
        lock.unlock();
    }
    let rungs: [(&'static str, &(dyn Fn() + Sync)); 4] = [
        ("locks.ticket_handoff_ns", &|| raw(&ticket)),
        ("locks.mcs_handoff_ns", &|| raw(&mcs)),
        ("locks.futex_handoff_ns", &|| raw(&futex)),
        ("glk.handoff_ns", &|| {
            glk.lock();
            glk.unlock();
        }),
    ];
    let slice = budget / (ROUNDS * rungs.len() as u32);
    let mut samples = vec![Vec::new(); rungs.len()];
    for _ in 0..ROUNDS {
        for ((_, pair), samples) in rungs.iter().zip(&mut samples) {
            samples.push(handoff_ns(env, slice, pair));
        }
    }
    rungs
        .iter()
        .zip(&samples)
        .map(|((name, _), s)| (*name, median(s)))
        .collect()
}

/// Two pinned threads pass a turn back and forth through one GLS mutex and
/// two condvars; the median notify→woken→notify→woken round trip in µs.
fn condvar_roundtrip_us(env: &Env, slice: Duration) -> Option<f64> {
    if env.workers < 2 {
        return None;
    }
    let service = GlsService::with_config(GlsConfig::default());
    let (ping, pong) = (GlsCondvar::new(), GlsCondvar::new());
    let (turn, done) = (AtomicUsize::new(0), AtomicBool::new(false));
    let mutex = 0u64;
    let timeout = Duration::from_millis(50);
    let wait = |cv: &GlsCondvar| {
        service
            .wait_timeout(cv, &mutex, timeout)
            .expect(NEVER_FAILS);
    };
    let rep = run_workers(2, Some(slice), Instant::now(), |w, ctx| {
        let mut rec = Recorder::new(true);
        if w == 0 {
            while !ctx.stopped() {
                let start = Instant::now();
                service.lock(&mutex).expect(NEVER_FAILS);
                turn.store(1, Relaxed);
                service.notify_one(&pong, &mutex);
                while turn.load(Relaxed) == 1 {
                    wait(&ping);
                }
                service.unlock(&mutex).expect(NEVER_FAILS);
                rec.push(0, start.elapsed());
            }
            service.lock(&mutex).expect(NEVER_FAILS);
            done.store(true, Relaxed);
            service.notify_one(&pong, &mutex);
            service.unlock(&mutex).expect(NEVER_FAILS);
        } else {
            loop {
                service.lock(&mutex).expect(NEVER_FAILS);
                while turn.load(Relaxed) == 0 && !done.load(Relaxed) {
                    wait(&pong);
                }
                let leave = turn.load(Relaxed) == 0;
                turn.store(0, Relaxed);
                service.notify_one(&ping, &mutex);
                service.unlock(&mutex).expect(NEVER_FAILS);
                if leave {
                    break;
                }
            }
        }
        WorkerOutcome {
            ops: rec.ops.len() as u64,
            failed: 0,
            rec,
            extra: Vec::new(),
        }
    });
    let mut trips = rep.workers.into_iter().next()?.out.rec.ops;
    trips.sort_unstable();
    (!trips.is_empty()).then(|| f64::from(percentile(&trips, 0.5)) / 1000.0)
}

/// Runs the whole ladder within about `budget`; `table_locks` sizes the
/// direct `Clht` rungs. Returns per-layer metrics by catalogue name.
pub fn run(env: &Env, budget: Duration, table_locks: usize) -> Vec<(&'static str, f64)> {
    let rungs = single_thread(budget * 2 / 5, table_locks);
    let get = |name: &str| {
        rungs
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .expect("rung measured")
    };
    let derived = [
        (
            "service.self_ns",
            get("service.pair_ns") - get("glk.pair_ns"),
        ),
        (
            "glk.self_ns",
            get("glk.pair_ns") - get("locks.ticket_pair_ns"),
        ),
        (
            "cache.saving_ns.ws8",
            get("service.uncached_pair_ns") - get("service.pair_ns"),
        ),
        (
            "cache.saving_ns.ws128",
            get("uncached.ws128") - get("cached.ws128"),
        ),
    ];
    let mut out: Vec<(&'static str, f64)> = rungs
        .iter()
        .copied()
        .filter(|(name, _)| !name.ends_with(".ws128"))
        .chain(derived)
        .collect();
    out.extend(handoffs(env, budget * 2 / 5));
    if let Some(us) = condvar_roundtrip_us(env, budget / 5) {
        out.push(("condvar.roundtrip_us_p50", us));
    }
    out
}
