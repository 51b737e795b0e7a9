//! Linking GLS starts no thread: the multiprogramming signal GLK adapts on
//! is derived from the runnable registry when a lock reads it, not sampled
//! by a background monitor (see `gls_runtime::sysload`).
//!
//! A test binary of its own on purpose: the check reads the thread list of
//! the whole process, and other suites start threads of their own.

#![cfg(target_os = "linux")]

use gls::glk::{GlkConfig, GlkLock};
use gls::GlsService;

/// Names (`comm`) of every thread of this process.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists the threads of a Linux process")
        .map(|task| {
            let comm = task.expect("readable task entry").path().join("comm");
            // A thread may exit between the listing and the read.
            std::fs::read_to_string(comm).unwrap_or_default()
        })
        .collect()
}

#[test]
fn adapting_locks_leave_no_library_thread_behind() {
    const WORKERS: u64 = 2;
    // Two adaptation periods on each lock, shared between the workers, so
    // GLK's adaptation tick (where the paper's monitor is first consulted,
    // and where this repo once spawned its own) has run on both.
    let per_worker = 2 * GlkConfig::default().adaptation_period;
    let service = GlsService::new();
    let lock = GlkLock::new();
    let address = 0x5157_10AD_usize;
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| {
                for _ in 0..per_worker {
                    service.lock(address).unwrap();
                    service.unlock(address).unwrap();
                    lock.lock();
                    lock.unlock();
                }
            });
        }
    });
    assert!(lock.acquisitions() >= WORKERS * per_worker);

    let names = thread_names();
    assert!(!names.is_empty());
    let ours: Vec<_> = names.iter().filter(|n| n.starts_with("gls-")).collect();
    assert!(ours.is_empty(), "library threads still running: {ours:?}");
}
