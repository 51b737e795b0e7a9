//! Model checks for the GLS lock protocols.
//!
//! These tests only exist in model builds: run them with
//!
//! ```sh
//! RUSTFLAGS="--cfg gls_model" cargo test -p gls_model --test protocols
//! ```
//!
//! Every test drives *real* protocol code — `FutexLock`, `FutexRwLock`,
//! `GlsService`, `GlsCondvar` — through the deterministic explorer:
//! exhaustive DFS over thread interleavings with a preemption bound, plus
//! one seeded-random sweep. A "lost wakeup" or "stranded waiter" surfaces
//! as a deadlock the driver detects (no runnable thread, unfinished
//! threads); safety violations surface as assertion panics inside the
//! model. The two `rediscovers_*` tests re-introduce bugs this repository
//! actually shipped and fixed, and check the explorer finds them.
//!
//! Test-design rules (the explorer makes these hard requirements):
//! * orchestration prefers blocking primitives (park, condvar, join);
//!   poll loops are tolerable only through `gls_sync::hint::spin_loop`,
//!   whose model-mode budget parks the spinner after a few iterations —
//!   the shim that also lets the pure spin algorithms run under the
//!   explorer (see the `spinlocks` suite);
//! * GLS service models pin entries to `LockKind::Futex` (or `Mutex`) so
//!   each test exercises one protocol, except the GLK scenario, whose
//!   protocol *is* the mode switch;
//! * shared mutable state lives in a [`ModelCell`], so every admission
//!   bug is caught twice: as a lost update by the final assertion, and as
//!   a data race by the happens-before detector, on the exact schedule
//!   that produced it.

#![cfg(gls_model)]

use std::sync::atomic::{AtomicBool, Ordering as StdOrdering};
use std::sync::Arc;

use gls::{GlsCondvar, GlsConfig, GlsService, LockKind};
use gls_locks::park::DEFAULT_PARK_TOKEN;
use gls_locks::{
    FutexLock, FutexRwLock, ParkResult, ParkingLot, QueueInformed, RawLock, RawRwLock, RawTryLock,
};
use gls_model::{Explorer, FailureKind};
use gls_sync::cell::ModelCell;
use gls_sync::thread;

/// A counter the model threads mutate through raw, unsynchronized writes.
/// The [`ModelCell`] reports every access to the race detector: if the
/// lock under test ever admits two holders, the explorer flags the data
/// race on the exact interleaving — and, should the accesses merely
/// overlap without racing, the final assertion still catches the lost
/// increment.
struct RacyCounter(ModelCell<u64>);

impl RacyCounter {
    fn new() -> Self {
        RacyCounter(ModelCell::new(0))
    }

    /// A deliberately non-atomic read-modify-write.
    fn bump(&self) {
        // SAFETY: serialized by the lock under test — the claim the race
        // detector verifies on every schedule.
        self.0.with_mut(|p| unsafe { *p += 1 });
    }

    fn get(&self) -> u64 {
        // SAFETY: called after every writer joined.
        self.0.with(|p| unsafe { *p })
    }
}

/// A condvar predicate: a plain bool whose every access must happen under
/// the service lock of the test's address — which is the claim the model
/// (and now the race detector) checks.
struct SharedFlag(ModelCell<bool>);

impl SharedFlag {
    fn new() -> Self {
        SharedFlag(ModelCell::new(false))
    }

    fn read(&self) -> bool {
        // SAFETY: caller holds the service lock.
        self.0.with(|p| unsafe { *p })
    }

    fn set(&self) {
        // SAFETY: caller holds the service lock.
        self.0.with_mut(|p| unsafe { *p = true })
    }
}

/// Property 1 — `FutexLock` provides mutual exclusion and loses no
/// wakeups. Three threads contend for one lock (model spin budget is a
/// single attempt, so park/unpark and the handoff streak — model bound 2 —
/// are all reachable). A lost wakeup is a deadlock; a broken handoff
/// leaves the word dirty.
#[test]
fn futex_lock_mutual_exclusion_and_no_lost_wakeups() {
    Explorer::exhaustive().check("futex-mutex", || {
        let lock = Arc::new(FutexLock::new());
        let counter = Arc::new(RacyCounter::new());
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    lock.lock();
                    counter.bump();
                    lock.unlock();
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("model worker panicked");
        }
        assert_eq!(counter.get(), 3, "an increment was lost under the lock");
        assert!(!lock.is_locked(), "lock word left locked after drain");
        assert_eq!(lock.queue_length(), 0, "waiters left parked after drain");
    });
}

/// What the freeing thread of [`entry_lifecycle`] does while the locker
/// runs; the rest of free → sweep (age) → sweep (claim) happens before or
/// after the race, on the root thread.
#[derive(Clone, Copy, PartialEq)]
enum Racing {
    /// `free` and both sweeps.
    FreeAndSweeps,
    /// Only `free`.
    Free,
    /// Only the claiming sweep, of an address freed and aged beforehand.
    Claim,
}

/// The entry-lifecycle scenario: everything that can happen to one
/// address at once. A locker acquires (creating, resurrecting or waiting
/// out a sweep, depending on where the freer stands), bumps a counter and
/// releases; a freer frees the address and sweeps twice (age, then claim,
/// prove idle, unmap, recycle — or, with `prove_idle` off, the seeded bug:
/// recycle without looking). Every call must return `Ok`, the counter must
/// see no race, and whatever entry ends up serving the address — or,
/// recycled, the next address — must be left unlocked: a release that
/// landed on another entry than the one acquired leaves that one held
/// forever.
fn entry_lifecycle(racing: Racing, prove_idle: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        // The smallest table: the sweeps walk all of it, and every slot
        // they read is a scheduling point.
        let service = Arc::new(GlsService::with_config(GlsConfig {
            initial_capacity: 1,
            ..GlsConfig::default()
        }));
        let sweep = move |service: &GlsService| service.model_force_sweep(prove_idle);
        let counter = Arc::new(RacyCounter::new());
        // Whether the locker is inside its critical section. A plain std
        // atomic: bookkeeping for the coverage assertion, invisible to the
        // explorer.
        let holding = Arc::new(AtomicBool::new(false));
        let slot = Arc::new([0u8; 2]);
        let addr = Arc::as_ptr(&slot) as usize;
        // Materialize the entry with an explicitly blocking algorithm:
        // GLS service models pin entries to one protocol.
        service
            .lock_with(LockKind::Futex, addr)
            .expect("create entry");
        service.unlock(addr).expect("release fresh entry");
        if racing == Racing::Claim {
            assert!(service.free(addr));
            sweep(&service);
        }
        let locker = {
            let service = Arc::clone(&service);
            let counter = Arc::clone(&counter);
            let holding = Arc::clone(&holding);
            thread::spawn(move || {
                service
                    .lock_with(LockKind::Futex, addr)
                    .expect("racing lock");
                holding.store(true, StdOrdering::Relaxed);
                counter.bump();
                holding.store(false, StdOrdering::Relaxed);
                service.unlock(addr).expect("racing unlock");
            })
        };
        let freer = {
            let service = Arc::clone(&service);
            thread::spawn(move || {
                // Finds the entry live (or resurrected by the locker);
                // either way the sweeps must not take it from under the
                // locker, whose unlock must still reach it.
                if racing != Racing::Claim
                    && service.free(addr)
                    && holding.load(StdOrdering::Relaxed)
                {
                    SAW_RELEASE_AFTER_FREE.store(true, StdOrdering::Relaxed);
                }
                if racing != Racing::Free {
                    sweep(&service);
                }
                if racing == Racing::FreeAndSweeps {
                    sweep(&service);
                }
            })
        };
        locker.join().expect("locker panicked");
        freer.join().expect("freer panicked");
        if service.lock_count() == 0 && service.retired_count() == 1 {
            SAW_RECYCLE.store(true, StdOrdering::Relaxed);
        }
        if racing == Racing::Free {
            sweep(&service);
            sweep(&service);
        }
        // Re-create (or keep using) the address, then the next one, which
        // takes the recycled entry if the sweeps got that far.
        for addr in [addr, addr + 1] {
            assert_eq!(
                service.try_lock_with(LockKind::Futex, addr),
                Ok(true),
                "a release landed on another entry than the one acquired"
            );
            counter.bump();
            service.unlock(addr).expect("final unlock");
        }
        assert_eq!(counter.get(), 3, "an increment was lost");
        drop(slot);
    }
}

static SAW_RELEASE_AFTER_FREE: AtomicBool = AtomicBool::new(false);
static SAW_RECYCLE: AtomicBool = AtomicBool::new(false);

/// Property 3 — the entry lifecycle (free in place, resurrect, sweep,
/// recycle) never strands a release and never lets two threads hold one
/// address, on any interleaving of free, lock, unlock, re-create and
/// sweep. The whole sequence racing the locker is explored with one
/// preemption — a locker stalled anywhere while the entry is freed, aged,
/// claimed and recycled under it, and every other way of pausing one side
/// once — and each half of it (the free; the claiming sweep) with two,
/// which is what fits the runtime budget.
#[test]
fn entry_lifecycle_keeps_exclusion_across_free_and_sweep() {
    Explorer::exhaustive().preemption_bound(1).check(
        "entry-lifecycle",
        entry_lifecycle(Racing::FreeAndSweeps, true),
    );
    Explorer::exhaustive().check("entry-lifecycle-free", entry_lifecycle(Racing::Free, true));
    Explorer::exhaustive().check(
        "entry-lifecycle-claim",
        entry_lifecycle(Racing::Claim, true),
    );
    assert!(
        SAW_RELEASE_AFTER_FREE.load(StdOrdering::Relaxed),
        "no execution released a lock that was freed while held — the \
         scenario no longer exercises the racing free"
    );
    assert!(
        SAW_RECYCLE.load(StdOrdering::Relaxed),
        "no execution swept the freed entry into the pool — the scenario \
         no longer exercises reclamation"
    );
}

/// Seeded bug — a sweeper that skips the idle proof recycles an entry
/// somebody still holds: the holder's release then finds nothing mapped
/// (or another entry), or the holder and a re-creating thread are both
/// inside the critical section. The explorer must find it.
#[test]
fn rediscovers_the_sweep_without_idle_proof_bug() {
    let failure = Explorer::exhaustive()
        .find_failure(
            "entry-lifecycle-no-idle-proof",
            entry_lifecycle(Racing::FreeAndSweeps, false),
        )
        .expect("the explorer must catch a sweep that recycles a held entry");
    assert!(
        matches!(
            failure.kind,
            FailureKind::Race | FailureKind::Panic | FailureKind::Deadlock
        ),
        "expected lost mutual exclusion or a misdirected release, got: {failure}"
    );
}

/// The guard scenario: a holder keeps its address in a [`gls::GlsGuard`]
/// — which carries the entry it acquired and drops through it, with no
/// lookup — while another thread frees the address, runs both sweep steps
/// and then takes the address itself. The contender asks for another
/// algorithm, so a sweep that (wrongly) recycled the held entry cannot hand
/// it the same allocation back out of the pool: it maps a fresh entry and
/// walks into the holder's critical section. With the idle proof the held
/// tombstone stays mapped, the contender resurrects it (first creation's
/// algorithm wins) and waits for the guard to drop.
fn guard_across_free_and_sweep(prove_idle: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let service = Arc::new(GlsService::with_config(GlsConfig {
            initial_capacity: 1,
            ..GlsConfig::default()
        }));
        let counter = Arc::new(RacyCounter::new());
        let holding = Arc::new(AtomicBool::new(false));
        let slot = Arc::new([0u8; 2]);
        let addr = Arc::as_ptr(&slot) as usize;
        let holder = {
            let service = Arc::clone(&service);
            let counter = Arc::clone(&counter);
            let holding = Arc::clone(&holding);
            thread::spawn(move || {
                let held = service
                    .guard_with(LockKind::Futex, addr)
                    .expect("holder guard");
                holding.store(true, StdOrdering::Relaxed);
                counter.bump();
                holding.store(false, StdOrdering::Relaxed);
                drop(held);
            })
        };
        let freer = {
            let service = Arc::clone(&service);
            let counter = Arc::clone(&counter);
            thread::spawn(move || {
                let freed = service.free(addr);
                service.model_force_sweep(prove_idle);
                service.model_force_sweep(prove_idle);
                if freed && holding.load(StdOrdering::Relaxed) {
                    SAW_SWEEP_UNDER_GUARD.store(true, StdOrdering::Relaxed);
                }
                let held = service
                    .guard_with(LockKind::Mutex, addr)
                    .expect("contender guard");
                counter.bump();
                drop(held);
            })
        };
        holder.join().expect("holder panicked");
        freer.join().expect("freer panicked");
        // Whatever entries now serve the address and its neighbour (the
        // pool's next customer) were left unlocked by the guards.
        for addr in [addr, addr + 1] {
            assert_eq!(
                service.try_lock_with(LockKind::Futex, addr),
                Ok(true),
                "a guard's drop left an entry locked"
            );
            counter.bump();
            service.unlock(addr).expect("final unlock");
        }
        assert_eq!(counter.get(), 4, "an increment was lost");
        drop(slot);
    }
}

static SAW_SWEEP_UNDER_GUARD: AtomicBool = AtomicBool::new(false);

/// Property 3b — a guard's lookup-free drop is safe against the entry
/// lifecycle: the sweep's idle proof never recycles the entry a live guard
/// points at, so the drop releases the lock that still serves the address
/// and nobody else gets into the critical section meanwhile. One preemption,
/// like the whole-sequence lifecycle check above: two do not fit the budget.
#[test]
fn guard_survives_free_and_sweep_of_its_address() {
    Explorer::exhaustive().preemption_bound(1).check(
        "guard-across-free-and-sweep",
        guard_across_free_and_sweep(true),
    );
    assert!(
        SAW_SWEEP_UNDER_GUARD.load(StdOrdering::Relaxed),
        "no execution freed and swept the address while the guard was held — \
         the scenario no longer exercises the race"
    );
}

/// Seeded bug, through the guard — without the idle proof the sweep
/// recycles the entry under the live guard: the address is unmapped while
/// held, the contender creates it afresh and both are inside the critical
/// section (the guard's drop then lands on a recycled entry). The explorer
/// must find it.
#[test]
fn rediscovers_the_sweep_without_idle_proof_bug_through_a_guard() {
    let failure = Explorer::exhaustive()
        .find_failure(
            "guard-across-sweep-no-idle-proof",
            guard_across_free_and_sweep(false),
        )
        .expect("the explorer must catch a sweep that recycles a guarded entry");
    assert!(
        matches!(failure.kind, FailureKind::Race | FailureKind::Panic),
        "expected lost mutual exclusion under the guard, got: {failure}"
    );
}

/// Property 4 — condvar requeue-on-notify never strands a waiter behind a
/// free mutex. The waiter blocks on the service condvar under a futex
/// entry; the notifier flips the predicate and notifies *while holding the
/// mutex*, so the waiter is requeued onto the mutex word and must be woken
/// by the notifier's unlock on every schedule. A requeue onto a word
/// nobody releases again would deadlock.
#[test]
fn condvar_requeue_strands_no_waiter() {
    Explorer::exhaustive().check("condvar-requeue", || {
        let service = Arc::new(GlsService::new());
        let cv = Arc::new(GlsCondvar::new());
        let flag = Arc::new(SharedFlag::new());
        let slot = Arc::new(0u8);
        let addr = Arc::as_ptr(&slot) as usize;
        service
            .lock_with(LockKind::Futex, addr)
            .expect("create entry");
        service.unlock(addr).expect("release fresh entry");
        let waiter = {
            let service = Arc::clone(&service);
            let cv = Arc::clone(&cv);
            let flag = Arc::clone(&flag);
            thread::spawn(move || {
                service.lock_with(LockKind::Futex, addr).expect("lock");
                while !flag.read() {
                    service.wait(&cv, addr).expect("wait");
                }
                service.unlock(addr).expect("unlock");
            })
        };
        let notifier = {
            let service = Arc::clone(&service);
            let cv = Arc::clone(&cv);
            let flag = Arc::clone(&flag);
            thread::spawn(move || {
                service.lock_with(LockKind::Futex, addr).expect("lock");
                flag.set();
                // Notify while holding the mutex: the waiter (if already
                // asleep) is requeued onto the mutex word and must ride
                // the unlock below.
                service.notify_one(&cv, addr);
                service.unlock(addr).expect("unlock");
            })
        };
        waiter.join().expect("waiter panicked");
        notifier.join().expect("notifier panicked");
        drop(slot);
    });
}

/// Regression (PR 5) — a release that abandons a futex word must
/// *broadcast*. The one-wake variant this repository originally shipped
/// relied on each woken waiter re-acquiring and re-releasing the word, but
/// a requeued condvar waiter re-acquires through whatever now serves the
/// lock and never touches the abandoned word again — stranding everyone
/// queued behind it. The explorer must rediscover that stranding as a
/// deadlock; the shipped broadcast must pass the same model clean.
#[test]
fn rediscovers_the_abandoned_word_single_wake_bug() {
    // Two parked waiters shaped like requeued condvar waiters: kind-0
    // tokens, and — crucially — no re-release of the word when woken.
    let scenario = |wake_all: bool| {
        move || {
            let lock = Arc::new(FutexLock::new());
            let holder = {
                let lock = Arc::clone(&lock);
                thread::spawn(move || {
                    lock.lock();
                    if wake_all {
                        lock.unlock_and_wake_all();
                    } else {
                        lock.model_unlock_and_wake_one();
                    }
                })
            };
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let lock = Arc::clone(&lock);
                    thread::spawn(move || {
                        let result = ParkingLot::global().park(
                            lock.park_addr(),
                            DEFAULT_PARK_TOKEN,
                            || lock.is_locked(),
                            || {},
                            None,
                        );
                        // Invalid means the word was already free when we
                        // tried to park — a schedule with nothing to check.
                        assert!(matches!(
                            result,
                            ParkResult::Unparked(_) | ParkResult::Invalid
                        ));
                    })
                })
                .collect();
            holder.join().expect("holder panicked");
            for waiter in waiters {
                waiter.join().expect("waiter panicked");
            }
        }
    };

    let failure = Explorer::exhaustive()
        .cleanup(|| ParkingLot::global().model_purge())
        .find_failure("abandoned-word-single-wake", scenario(false))
        .expect("the explorer must find the stranded waiter the single-wake release leaves");
    assert_eq!(
        failure.kind,
        FailureKind::Deadlock,
        "expected a stranded-waiter deadlock, got: {failure}"
    );

    // The shipped fix — broadcast on abandonment — passes the same model.
    Explorer::exhaustive()
        .cleanup(|| ParkingLot::global().model_purge())
        .check("abandoned-word-broadcast", scenario(true));
}

/// Regression (PR 6) — `FutexRwLock` releases must run the handoff
/// streak. The pre-streak policy woke the first parked writer with an
/// ordinary token every time and let it re-contend; a barger could steal
/// the word in the wake window again and again, bypassing parked writers
/// without bound. With the streak, an ordinary writer wake needs the
/// streak at zero and leaves it at one, and only a handoff or a queue
/// drain returns it to zero — so ordinary-wake runs are bounded at one.
/// The explorer must find a two-in-a-row run under the old policy and
/// verify the bound under the shipped one.
#[test]
fn rediscovers_the_writer_wake_streak_bug() {
    let scenario = |pre_handoff: bool| {
        move || {
            let rw = Arc::new(FutexRwLock::new());
            let unlock = move |rw: &FutexRwLock| {
                if pre_handoff {
                    rw.model_write_unlock_pre_handoff();
                } else {
                    rw.write_unlock();
                }
            };
            // The root holds the lock while two victim writers park: two
            // victims keep the queue non-empty across a wake, which is
            // what lets an unbounded policy string ordinary wakes together
            // without an intervening drain.
            rw.write_lock();
            let victims: Vec<_> = (0..2)
                .map(|_| {
                    let rw = Arc::clone(&rw);
                    thread::spawn(move || {
                        rw.write_lock();
                        unlock(&rw);
                    })
                })
                .collect();
            // The barger: one try-lock (never parks), stealing the word
            // inside a wake-to-reacquire window on some schedules.
            let barger = {
                let rw = Arc::clone(&rw);
                thread::spawn(move || {
                    if rw.try_write_lock() {
                        unlock(&rw);
                    }
                })
            };
            unlock(&rw);
            for victim in victims {
                victim.join().expect("victim panicked");
            }
            barger.join().expect("barger panicked");
            assert!(!rw.is_write_locked(), "word left write-locked");
            let run = rw.model_max_consecutive_writer_bypasses();
            assert!(
                run <= 1,
                "{run} consecutive ordinary writer wakes — parked writers \
                 can be bypassed without bound"
            );
        }
    };

    let failure = Explorer::exhaustive()
        .cleanup(|| ParkingLot::global().model_purge())
        .find_failure("rw-pre-streak-release", scenario(true))
        .expect("the explorer must find an unbounded ordinary-wake run under the old policy");
    assert_eq!(
        failure.kind,
        FailureKind::Panic,
        "expected the bypass-bound assertion to fire, got: {failure}"
    );

    // The shipped streak policy holds the bound on every schedule.
    Explorer::exhaustive()
        .cleanup(|| ParkingLot::global().model_purge())
        .check("rw-streak-release", scenario(false));
}

/// The GLK scenario (paper Figure 4): the service's default GLK lock starts
/// in MCS mode with a tick every second acquisition and a queue sample at
/// every one. The root's acquisition creates the entry (the first); the
/// first of two workers to acquire runs the tick, which finds a queue of
/// at most 1.5 and flips MCS → ticket — while the other worker may already
/// be queued on the MCS lock, or holding it the moment it is released.
/// That worker must find the mode changed, release and retry in ticket
/// mode. `late` seeds the bug on both workers: the tick publishes the new
/// mode only after releasing the MCS lock.
fn glk_mode_switch(late: bool) -> impl Fn() + Send + Sync + 'static {
    use gls::glk::{model_publish_after_release, model_stale_retries, GlkConfig, GlkMode};
    move || {
        let service = Arc::new(GlsService::with_config(
            GlsConfig {
                initial_capacity: 1,
                ..GlsConfig::default()
            }
            .with_glk(
                GlkConfig::default()
                    .with_adaptation_period(2)
                    .with_sampling_period(1)
                    .with_initial_mode(GlkMode::Mcs),
            ),
        ));
        let counter = Arc::new(RacyCounter::new());
        let slot = Arc::new(0u8);
        let addr = Arc::as_ptr(&slot) as usize;
        service
            .lock_with(LockKind::Glk, addr)
            .expect("create entry");
        service.unlock(addr).expect("release fresh entry");
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let service = Arc::clone(&service);
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    model_publish_after_release(late);
                    let retries = model_stale_retries();
                    service.lock_with(LockKind::Glk, addr).expect("lock");
                    if !late && model_stale_retries() > retries {
                        SAW_STALE_RETRY.store(true, StdOrdering::Relaxed);
                    }
                    counter.bump();
                    service.unlock(addr).expect("unlock");
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("model worker panicked");
        }
        assert_eq!(counter.get(), 2, "an increment was lost under the lock");
        assert_eq!(
            service.try_lock_with(LockKind::Glk, addr),
            Ok(true),
            "a release landed on another mode's lock than the one held"
        );
        service.unlock(addr).expect("final unlock");
        drop(slot);
    }
}

static SAW_STALE_RETRY: AtomicBool = AtomicBool::new(false);

/// Property 5 — GLK's mode switch keeps mutual exclusion: the adapter
/// publishes the new mode before releasing the old mode's lock, so a thread
/// that acquires the old lock after the release re-checks, sees the change
/// and retries (the coverage flag proves some schedule did), and nobody
/// holds the old and the new lock at once.
#[test]
fn glk_mode_switch_keeps_exclusion() {
    Explorer::exhaustive().check("glk-mode-switch", glk_mode_switch(false));
    assert!(
        SAW_STALE_RETRY.load(StdOrdering::Relaxed),
        "no execution had a thread find the mode changed under it — the \
         scenario no longer exercises the stale-mode retry"
    );
}

/// Seeded bug — publishing the new mode after releasing the old mode's
/// lock lets a queued thread take the old lock, re-check against the old
/// mode and enter beside the adapter, which re-acquires in the new mode.
/// The explorer must find the two holders.
#[test]
fn rediscovers_the_publish_after_release_bug() {
    let failure = Explorer::exhaustive()
        .find_failure("glk-publish-after-release", glk_mode_switch(true))
        .expect("the explorer must catch a mode published after the release");
    assert!(
        matches!(failure.kind, FailureKind::Race | FailureKind::Panic),
        "expected lost mutual exclusion, got: {failure}"
    );
}

/// Seeded random sweep — long, non-exhaustive schedules over the futex
/// mutex model. A fourth thread makes one `try_lock` attempt, so a barging
/// `try_lock` races the wake and handoff paths (a handoff keeps `LOCKED`
/// set, so it must fail there). `GLS_MODEL_ITERS` scales the iteration count
/// (CI's release lane runs 10 000); `GLS_MODEL_SEED` replays one failing
/// seed printed by a previous run.
#[test]
fn random_sweep_futex_mutex() {
    Explorer::random_from_env(2_000).check("futex-mutex-random", || {
        let lock = Arc::new(FutexLock::new());
        let counter = Arc::new(RacyCounter::new());
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    for _ in 0..2 {
                        lock.lock();
                        counter.bump();
                        lock.unlock();
                    }
                })
            })
            .collect();
        let barger = {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            thread::spawn(move || {
                let acquired = lock.try_lock();
                if acquired {
                    counter.bump();
                    lock.unlock();
                }
                acquired
            })
        };
        for worker in workers {
            worker.join().expect("model worker panicked");
        }
        let barged = barger.join().expect("model barger panicked");
        assert_eq!(
            counter.get(),
            6 + u64::from(barged),
            "an increment was lost under the lock"
        );
        assert!(!lock.is_locked(), "lock word left locked after drain");
        assert_eq!(lock.queue_length(), 0, "waiters left parked after drain");
    });
}
