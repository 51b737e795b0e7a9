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
//! model. The `rediscovers_*` tests re-seed protocol bugs (most of them
//! shipped here once and fixed) and check the explorer finds them.
//!
//! Test-design rules (the explorer makes these hard requirements):
//! * orchestration prefers blocking primitives (park, condvar, join);
//!   poll loops are tolerable only through `gls_sync::hint::spin_loop`,
//!   whose model-mode budget parks the spinner after a few iterations —
//!   the shim that also lets the pure spin algorithms run under the
//!   explorer (see the `spinlocks` suite);
//! * GLS service models pin entries to `LockKind::Mutex` (the futex word)
//!   so each test exercises one protocol, except two GLK scenarios: the
//!   mode switch, whose protocol *is* GLK, and the condvar fast path,
//!   which wants a mutex with no park address;
//! * shared mutable state lives in a [`ModelCell`], so every admission
//!   bug is caught twice: as a lost update by the final assertion, and as
//!   a data race by the happens-before detector, on the exact schedule
//!   that produced it.

#![cfg(gls_model)]

use std::sync::atomic::{AtomicBool, Ordering as StdOrdering};
use std::sync::Arc;

use gls::{
    model_count_waiter_after_release, model_hit_checks_addr_only, thread_cache_stats, GlsCondvar,
    GlsConfig, GlsService, LockKind,
};
use gls_locks::park::DEFAULT_PARK_TOKEN;
use gls_locks::{
    FutexLock, FutexRwLock, ParkResult, ParkingLot, QueueInformed, RawLock, RawRwLock, RawTryLock,
};
use gls_model::{Explorer, FailureKind};
use gls_sync::cell::ModelCell;
use gls_sync::sync::{Condvar, Mutex};
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

/// How a warm locker of [`entry_lifecycle`] hands the start of the race
/// to the root, on one model mutex and condvar: the locker reports its
/// cache warm and waits, inside one critical section, until the root has
/// spawned the freer and lets it go. Each side waits blocked, not
/// runnable, so the handshake leaves the race the preemptions a cold
/// locker has.
#[derive(Default)]
struct Handshake {
    phase: Mutex<u8>,
    changed: Condvar,
}

impl Handshake {
    const WARM: u8 = 1;
    const GO: u8 = 2;

    /// The locker's side: reports warm, then waits for the go.
    fn warm_then_wait(&self) {
        let mut phase = self.phase.lock().unwrap();
        *phase = Self::WARM;
        self.changed.notify_all();
        while *phase != Self::GO {
            phase = self.changed.wait(phase).unwrap();
        }
    }

    /// The root's side: waits for warm, runs `spawn`, then gives the go.
    fn go_once_warm<T>(&self, spawn: impl FnOnce() -> T) -> T {
        let mut phase = self.phase.lock().unwrap();
        while *phase != Self::WARM {
            phase = self.changed.wait(phase).unwrap();
        }
        let spawned = spawn();
        *phase = Self::GO;
        self.changed.notify_all();
        spawned
    }
}

/// What the freeing thread of [`entry_lifecycle`] does while the locker
/// runs; the rest of free → sweep (age) → sweep (claim) happens before or
/// after the race.
#[derive(Clone, Copy, PartialEq)]
enum Racing {
    /// `free` and both sweeps.
    FreeAndSweeps,
    /// Only `free`.
    Free,
    /// Only the claiming sweep, of an address freed and aged beforehand;
    /// with a warm locker, then a create of the next address, which takes
    /// the recycled entry if the sweep got that far.
    Claim,
}

/// A bug [`entry_lifecycle`] re-seeds, so the explorer can prove it finds
/// it.
#[derive(Clone, Copy, PartialEq)]
enum Seeded {
    /// The protocol as shipped.
    Nothing,
    /// The sweep recycles claimed tombstones without proving them idle.
    SweepWithoutIdleProof,
    /// The locker's cache hits are checked by `addr()` alone, so a stale
    /// slot hands it a tombstone it locks without resurrecting.
    HitCheckedByAddrOnly,
}

/// The entry-lifecycle scenario: everything that can happen to one
/// address at once. A locker acquires (creating, resurrecting or waiting
/// out a sweep, depending on where the freer stands), bumps a counter and
/// releases; a freer frees the address and sweeps twice (age, then claim,
/// prove idle, unmap, recycle). With `warm`, the locker creates the entry
/// itself, so its racing `lock` starts from its own cache slot — hitting,
/// or finding the slot stale and falling back to the table — instead of
/// from an empty cache. Every call must return `Ok`, the counter must see
/// no race, a lock that follows the free must leave the address live, and
/// whatever entry ends up serving the address — or, recycled, the next
/// address — must be left unlocked: a release that landed on another entry
/// than the one acquired leaves that one held forever.
fn entry_lifecycle(
    racing: Racing,
    warm: bool,
    seeded: Seeded,
) -> impl Fn() + Send + Sync + 'static {
    move || {
        // The smallest table: the sweeps walk all of it, and every slot
        // they read is a scheduling point.
        let service = Arc::new(GlsService::with_config(GlsConfig {
            initial_capacity: 1,
            ..GlsConfig::default()
        }));
        let prove_idle = seeded != Seeded::SweepWithoutIdleProof;
        let sweep = move |service: &GlsService| service.model_force_sweep(prove_idle);
        let counter = Arc::new(RacyCounter::new());
        // Whether the locker is inside its critical section, and whether
        // the address was freed. Plain std atomics: bookkeeping for the
        // assertions, invisible to the explorer.
        let holding = Arc::new(AtomicBool::new(false));
        let freed = Arc::new(AtomicBool::new(false));
        let slot = Arc::new([0u8; 2]);
        let addr = Arc::as_ptr(&slot) as usize;
        // Everything before the race. The entry gets an explicitly blocking
        // algorithm: GLS service models pin entries to one protocol.
        let prepare = move |service: &GlsService, freed: &AtomicBool| {
            service
                .lock_with(LockKind::Mutex, addr)
                .expect("create entry");
            service.unlock(addr).expect("release fresh entry");
            if racing == Racing::Claim {
                assert!(service.free(addr));
                freed.store(true, StdOrdering::Relaxed);
                sweep(service);
            }
        };
        if !warm {
            prepare(&service, &freed);
        }
        // A warm locker prepares on its own thread, so the slot is its own.
        // The root spawns the freer only once the locker is warm, and lets
        // the locker go right before blocking on the join: as in the cold
        // runs, both sides start the race with the root blocked, so which
        // one runs first costs no preemption.
        let handshake = Arc::new(Handshake::default());
        let locker = {
            let service = Arc::clone(&service);
            let counter = Arc::clone(&counter);
            let holding = Arc::clone(&holding);
            let freed = Arc::clone(&freed);
            let handshake = Arc::clone(&handshake);
            thread::spawn(move || {
                model_hit_checks_addr_only(seeded == Seeded::HitCheckedByAddrOnly);
                if warm {
                    prepare(&service, &freed);
                    handshake.warm_then_wait();
                }
                let freed_before_lock = freed.load(StdOrdering::Relaxed);
                let invalidations = thread_cache_stats().invalidations;
                service
                    .lock_with(LockKind::Mutex, addr)
                    .expect("racing lock");
                if thread_cache_stats().invalidations > invalidations {
                    SAW_STALE_SLOT.store(true, StdOrdering::Relaxed);
                }
                holding.store(true, StdOrdering::Relaxed);
                counter.bump();
                holding.store(false, StdOrdering::Relaxed);
                service.unlock(addr).expect("racing unlock");
                freed_before_lock
            })
        };
        let spawn_freer = {
            let service = Arc::clone(&service);
            let freed = Arc::clone(&freed);
            move || {
                thread::spawn(move || {
                    // Finds the entry live (or resurrected by the locker);
                    // either way the sweeps must not take it from under the
                    // locker, whose unlock must still reach it.
                    if racing != Racing::Claim && service.free(addr) {
                        freed.store(true, StdOrdering::Relaxed);
                        if holding.load(StdOrdering::Relaxed) {
                            SAW_RELEASE_AFTER_FREE.store(true, StdOrdering::Relaxed);
                        }
                    }
                    if racing != Racing::Free {
                        sweep(&service);
                    }
                    if racing == Racing::FreeAndSweeps {
                        sweep(&service);
                    }
                    // Only a warm locker's slot can still name the entry once
                    // it serves the next address.
                    if racing == Racing::Claim && warm {
                        service
                            .lock_with(LockKind::Mutex, addr + 1)
                            .expect("next address");
                        service.unlock(addr + 1).expect("next address unlock");
                    }
                })
            }
        };
        let freer = if warm {
            handshake.go_once_warm(spawn_freer)
        } else {
            spawn_freer()
        };
        let freed_before_lock = locker.join().expect("locker panicked");
        freer.join().expect("freer panicked");
        if freed_before_lock {
            // Nothing frees the address again: the lock re-created it.
            assert_eq!(
                service.lock_count(),
                1 + usize::from(racing == Racing::Claim && warm),
                "a lock after the free left the address freed"
            );
        }
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
                service.try_lock_with(LockKind::Mutex, addr),
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
static SAW_STALE_SLOT: AtomicBool = AtomicBool::new(false);

/// Property 3 — the entry lifecycle (free in place, resurrect, sweep,
/// recycle) never strands a release and never lets two threads hold one
/// address, on any interleaving of free, lock, unlock, re-create and
/// sweep, and a lock that starts from a warm cached slot never takes a
/// freed entry for a live one. Each scenario runs with a cold and a warm
/// locker cache. The whole sequence racing the locker is explored with one
/// preemption — a locker stalled anywhere while the entry is
/// freed, aged, claimed and recycled under it, and every other way of
/// pausing one side once — and each half of it (the free; the claiming
/// sweep) with two, which is what fits the runtime budget; the warm claim,
/// which adds the next address's create, with one.
#[test]
fn entry_lifecycle_keeps_exclusion_across_free_and_sweep() {
    for (warm, cache) in [(false, ""), (true, "-warm")] {
        Explorer::exhaustive().preemption_bound(1).check(
            &format!("entry-lifecycle{cache}"),
            entry_lifecycle(Racing::FreeAndSweeps, warm, Seeded::Nothing),
        );
        Explorer::exhaustive().check(
            &format!("entry-lifecycle-free{cache}"),
            entry_lifecycle(Racing::Free, warm, Seeded::Nothing),
        );
        // A warm claim also races the next address's create, which with
        // two preemptions outgrows the budget.
        Explorer::exhaustive()
            .preemption_bound(if warm { 1 } else { 2 })
            .check(
                &format!("entry-lifecycle-claim{cache}"),
                entry_lifecycle(Racing::Claim, warm, Seeded::Nothing),
            );
    }
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
    assert!(
        SAW_STALE_SLOT.load(StdOrdering::Relaxed),
        "no execution had the locker's cached slot fail validation — the \
         scenario no longer exercises the cached hit path"
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
            entry_lifecycle(Racing::FreeAndSweeps, false, Seeded::SweepWithoutIdleProof),
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

/// Seeded bug — a cache hit checked by `addr()` alone accepts the
/// tombstone a `free` left in the slot: the locker takes it without
/// resurrecting it, so a lock that came after the free leaves the address
/// freed (and the sweep free to recycle it). The explorer must find it.
#[test]
fn rediscovers_the_addr_only_cache_hit_bug() {
    let failure = Explorer::exhaustive()
        .find_failure(
            "entry-lifecycle-addr-only-hit",
            entry_lifecycle(Racing::Free, true, Seeded::HitCheckedByAddrOnly),
        )
        .expect("the explorer must catch a cache hit on a tombstone");
    assert!(
        matches!(failure.kind, FailureKind::Panic),
        "expected a lock that left its address freed, got: {failure}"
    );
}

/// The guard scenario: a holder keeps its address in a [`gls::GlsGuard`]
/// — which carries the entry it acquired and drops through it, with no
/// lookup — while another thread frees the address, runs both sweep steps
/// and then takes the address itself. The contender asks for another
/// algorithm (FUTEX-RW, which blocks like the holder's MUTEX, so it has no
/// spin budget), so a sweep that (wrongly) recycled the held entry cannot
/// hand it the same allocation back out of the pool: it maps a fresh entry
/// and walks into the holder's critical section. With the idle proof the held
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
                    .guard_with(LockKind::Mutex, addr)
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
                    .guard_with(LockKind::FutexRw, addr)
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
                service.try_lock_with(LockKind::Mutex, addr),
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

/// The condvar scenario: a waiter waits on the service condvar in a
/// predicate loop under a `kind` entry; the notifier flips the predicate
/// and notifies *while holding the mutex*. Every schedule must end with
/// both threads joined: a waiter nobody wakes is a deadlock. `seeded` makes
/// the waiter count itself only after it released the mutex.
fn condvar_notify_under_the_mutex(
    kind: LockKind,
    seeded: bool,
) -> impl Fn() + Send + Sync + 'static {
    move || {
        let service = Arc::new(GlsService::new());
        let cv = Arc::new(GlsCondvar::new());
        let flag = Arc::new(SharedFlag::new());
        let slot = Arc::new(0u8);
        let addr = Arc::as_ptr(&slot) as usize;
        service.lock_with(kind, addr).expect("create entry");
        service.unlock(addr).expect("release fresh entry");
        let waiter = {
            let service = Arc::clone(&service);
            let cv = Arc::clone(&cv);
            let flag = Arc::clone(&flag);
            thread::spawn(move || {
                model_count_waiter_after_release(seeded);
                service.lock_with(kind, addr).expect("lock");
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
                service.lock_with(kind, addr).expect("lock");
                flag.set();
                let woke = service.notify_one(&cv, addr);
                if kind == LockKind::Glk && !seeded {
                    SAW_NOTIFY[usize::from(woke)].store(true, StdOrdering::Relaxed);
                }
                service.unlock(addr).expect("unlock");
            })
        };
        waiter.join().expect("waiter panicked");
        notifier.join().expect("notifier panicked");
        drop(slot);
    }
}

/// Whether some GLK schedule's notify found nobody (`[0]`) and some woke
/// the waiter (`[1]`).
static SAW_NOTIFY: [AtomicBool; 2] = [AtomicBool::new(false), AtomicBool::new(false)];

/// Property 4 — condvar requeue-on-notify never strands a waiter behind a
/// free mutex. Under a MUTEX entry a waiter already asleep when the
/// notifier (holding the mutex) notifies is requeued onto the mutex word
/// and must be woken by the notifier's unlock on every schedule. A requeue
/// onto a word nobody releases again would deadlock.
#[test]
fn condvar_requeue_strands_no_waiter() {
    Explorer::exhaustive().check(
        "condvar-requeue",
        condvar_notify_under_the_mutex(LockKind::Mutex, false),
    );
}

/// Property 4b — a notify that reads no waiter loses no wakeup. Under a
/// default GLK entry (ticket mode: no park address, so a notify that finds
/// a waiter takes the plain wake) the notifier's `notify_one` skips the
/// lot whenever the condvar's count is 0; the waiter counts itself before
/// it releases the mutex, so on every schedule it is either counted (and
/// woken) or has not yet read the predicate.
#[test]
fn condvar_no_waiter_fast_path_loses_no_wakeup() {
    Explorer::exhaustive().check(
        "condvar-no-waiter-fast-path",
        condvar_notify_under_the_mutex(LockKind::Glk, false),
    );
    assert!(
        SAW_NOTIFY.iter().all(|saw| saw.load(StdOrdering::Relaxed)),
        "no execution had the notify both find nobody and wake the waiter — \
         the scenario no longer exercises both paths"
    );
}

/// Seeded bug — a waiter that counts itself only after releasing the mutex
/// leaves a window in which it is queued but not counted: a notifier that
/// takes the mutex there reads 0, skips the lot, and the waiter sleeps
/// forever. The explorer must find that lost wakeup.
#[test]
fn rediscovers_the_waiter_counted_after_release_bug() {
    let failure = Explorer::exhaustive()
        .cleanup(|| ParkingLot::global().model_purge())
        .find_failure(
            "condvar-count-after-release",
            condvar_notify_under_the_mutex(LockKind::Glk, true),
        )
        .expect("the explorer must catch a notify that skips an uncounted waiter");
    assert_eq!(
        failure.kind,
        FailureKind::Deadlock,
        "expected a lost-wakeup deadlock, got: {failure}"
    );
}

/// A timed park racing a requeue (the condvar `wait_timeout` path): W
/// parks on `A` with a timeout; R requeues `A` → `B`, then wakes the head
/// of `B`. The explorer decides whether and when W's timeout fires, so W
/// may time out before the requeue, between the requeue and the wake, or
/// not at all. On every schedule W is woken iff R's wake counted it, the
/// lot drains, and neither queue keeps W. `dedicated` runs it on a
/// two-bucket lot where `A` and `B` hash to different buckets, so the
/// requeue takes two bucket locks (the global lot has one bucket in model
/// builds). `seeded` makes W's cancel search the address it parked on
/// instead of the one its parker records.
fn timed_park_vs_requeue(dedicated: bool, seeded: bool) -> impl Fn() + Send + Sync + 'static {
    use gls_locks::park::model::model_cancel_trusts_park_addr;
    use gls_locks::park::DEFAULT_UNPARK_TOKEN;
    // Buckets 0 and 1 of a two-bucket lot (the top bit of the Fibonacci
    // hash).
    const A: usize = 0x1000;
    const B: usize = 0x2000;
    const WAKE: usize = 7;
    fn lot(own: &Option<Arc<ParkingLot>>) -> &ParkingLot {
        match own {
            Some(lot) => lot,
            None => ParkingLot::global(),
        }
    }
    move || {
        let own = dedicated.then(|| Arc::new(ParkingLot::with_buckets(2)));
        let waiter = {
            let own = own.clone();
            thread::spawn(move || {
                model_cancel_trusts_park_addr(seeded);
                lot(&own).park(
                    A,
                    DEFAULT_PARK_TOKEN,
                    || true,
                    || {},
                    Some(std::time::Duration::from_secs(1)),
                )
            })
        };
        let requeuer = {
            let own = own.clone();
            thread::spawn(move || {
                let lot = lot(&own);
                lot.unpark_requeue(A, B, || (0, usize::MAX), DEFAULT_UNPARK_TOKEN, |_| {});
                lot.unpark_one(B, |_| WAKE, |_| {}).unparked
            })
        };
        let parked = waiter.join().expect("waiter panicked");
        let woken = requeuer.join().expect("requeuer panicked");
        match parked {
            ParkResult::Unparked(token) => {
                assert_eq!((woken, token), (1, WAKE), "W woke without R's wake")
            }
            ParkResult::TimedOut => assert_eq!(woken, 0, "R's wake counted a timed-out W"),
            ParkResult::Invalid => unreachable!("validation always passes"),
        }
        let lot = lot(&own);
        assert_eq!(lot.total_parked(), 0, "the lot did not drain");
        assert_eq!(
            lot.parked_count(A) + lot.parked_count(B),
            0,
            "a queue kept W"
        );
    }
}

#[test]
fn timed_park_racing_a_requeue_is_woken_or_times_out_cleanly() {
    Explorer::exhaustive()
        .cleanup(|| ParkingLot::global().model_purge())
        .check("timed-park-requeue", timed_park_vs_requeue(false, false));
    Explorer::exhaustive().check(
        "timed-park-requeue-2-buckets",
        timed_park_vs_requeue(true, false),
    );
}

/// Seeded bug — a timed-out waiter that searches the address it parked on
/// never finds itself once a requeue moved it, and never leaves its
/// cancel loop. The explorer must find that on both lots.
#[test]
fn rediscovers_the_cancel_trusting_its_park_address_bug() {
    for (dedicated, lot) in [(false, "global"), (true, "2-bucket")] {
        let failure = Explorer::exhaustive()
            .cleanup(|| ParkingLot::global().model_purge())
            .find_failure(
                &format!("timed-park-requeue-trusting-cancel-{lot}"),
                timed_park_vs_requeue(dedicated, true),
            )
            .expect("the explorer must catch the cancel that searches the wrong address");
        assert_eq!(
            failure.kind,
            FailureKind::StepLimit,
            "expected the cancel loop to spin forever, got: {failure}"
        );
    }
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
