//! Model checks for the debug mode's lock-order check.
//!
//! A blocking acquisition in debug mode records the edge `held → wanted` in
//! the service's lock-order graph and refuses an edge that would close a
//! cycle: the attempt returns `GlsError::Deadlock` instead of blocking. The
//! cycle search and the insertion run in one critical section of the graph
//! mutex, so threads that close a cycle concurrently are serialized. Here
//! the service's own check (`DebugState`, through `gls::ModelOrder`) runs
//! the lock-inversion scenario under the exhaustive explorer: every vthread
//! holds one lock and attempts the next one's, and on *every* schedule
//! exactly one of them must report — the order cycle exists whatever the
//! timing, and one report is what lets the others finish.
//!
//! The split protocol — search in one critical section, insert in another
//! — is re-seeded behind `--cfg gls_model` (`gls::model_check_then_insert`)
//! and the explorer must find the schedule in which both threads search
//! before either inserts, so that neither reports.
//!
//! Run with `RUSTFLAGS="--cfg gls_model" cargo test -p gls_model --test
//! detector`.

#![cfg(gls_model)]

use std::sync::Arc;

use gls::{model_check_then_insert, GlsError, ModelOrder};
use gls_model::{Explorer, FailureKind};
use gls_sync::thread;

/// `locks` vthreads; vthread `i` holds lock `i` and attempts lock `i + 1`
/// (mod `locks`). `seeded` splits the order check in two.
fn inversion(locks: usize, seeded: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let order = Arc::new(ModelOrder::default());
        let threads: Vec<_> = (0..locks)
            .map(|i| {
                let order = Arc::clone(&order);
                let (mine, wanted) = (0x100 * (i + 1), 0x100 * ((i + 1) % locks + 1));
                thread::spawn(move || {
                    model_check_then_insert(seeded);
                    order.hold(i as u32, mine);
                    order.attempt(i as u32, wanted)
                })
            })
            .collect();
        let results: Vec<_> = threads
            .into_iter()
            .map(|t| t.join().expect("model locker panicked"))
            .collect();
        let reports = results
            .iter()
            .filter(|r| matches!(r, Err(GlsError::Deadlock { .. })))
            .count();
        assert_eq!(reports, 1, "exactly one attempt must report: {results:?}");
        assert!(
            results
                .iter()
                .all(|r| matches!(r, Ok(()) | Err(GlsError::Deadlock { .. }))),
            "only the cycle may be reported: {results:?}"
        );
    }
}

/// AB-BA: two threads, each holding one lock and attempting the other's.
/// Whichever inserts its edge first goes on; the other's search finds the
/// path back, and it reports.
#[test]
fn abba_is_reported_exactly_once() {
    Explorer::exhaustive().check("order-abba", inversion(2, false));
}

/// The same over three locks: A → B, B → C, C → A. The last of the three
/// to insert finds the path through the other two edges.
#[test]
fn three_lock_cycle_is_reported_exactly_once() {
    Explorer::exhaustive().check("order-three-locks", inversion(3, false));
}

/// Seeded bug — the search and the insertion in two critical sections.
/// Both threads can search before either inserts: neither sees the other's
/// edge, both insert, and both would block on each other's lock.
#[test]
fn rediscovers_the_check_then_insert_bug() {
    let failure = Explorer::exhaustive()
        .find_failure("order-check-then-insert", inversion(2, true))
        .expect("the explorer must find the schedule in which neither thread reports");
    assert_eq!(
        failure.kind,
        FailureKind::Panic,
        "expected the missed report, got: {failure}"
    );
}
