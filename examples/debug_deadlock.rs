//! Detecting a deadlock at runtime with the GLS debug mode (§4.2).
//!
//! Two worker threads acquire the same two resources in opposite order — the
//! textbook lock-ordering bug. With GLS in debug mode, every blocking
//! acquisition records the order in which it takes locks; the second thread
//! to attempt its lock would close a cycle in that order, so it gets the
//! report instead of blocking, backs off, and the other thread finishes.
//! Exactly one thread reports, on every run, with no timeout involved.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example debug_deadlock
//! ```

use std::sync::{Arc, Barrier};
use std::thread;

use gls::{GlsConfig, GlsService};

fn main() {
    let service = Arc::new(GlsService::with_config(GlsConfig::debug()));

    // Two shared resources; as usual with GLS, no lock objects in sight.
    let accounts_table = 0xA000_usize;
    let audit_log = 0xB000_usize;

    let barrier = Arc::new(Barrier::new(2));

    let t1 = {
        let service = Arc::clone(&service);
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            service.lock(accounts_table).unwrap();
            barrier.wait(); // make sure both threads hold their first lock
            match service.lock(audit_log) {
                Ok(()) => {
                    service.unlock(audit_log).unwrap();
                    service.unlock(accounts_table).unwrap();
                    None
                }
                Err(issue) => {
                    service.unlock(accounts_table).unwrap();
                    Some(issue)
                }
            }
        })
    };

    let t2 = {
        let service = Arc::clone(&service);
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            service.lock(audit_log).unwrap();
            barrier.wait();
            match service.lock(accounts_table) {
                Ok(()) => {
                    service.unlock(accounts_table).unwrap();
                    service.unlock(audit_log).unwrap();
                    None
                }
                Err(issue) => {
                    service.unlock(audit_log).unwrap();
                    Some(issue)
                }
            }
        })
    };

    let reports: Vec<_> = [t1.join().unwrap(), t2.join().unwrap()]
        .into_iter()
        .flatten()
        .collect();

    println!(
        "debug_deadlock: {} thread(s) reported a deadlock",
        reports.len()
    );
    for report in &reports {
        println!("  {report}");
    }
    println!("issues recorded by the service:");
    for issue in service.issues() {
        println!("  [{}] {}", issue.category(), issue);
    }
    assert_eq!(
        reports.len(),
        1,
        "the inversion must be reported to exactly one thread"
    );
}
