//! Finding contended locks with the GLS profiler mode (§4.3).
//!
//! A skewed workload hammers one of eight locks far more than the others
//! (like a global stats lock in a real system). The profiler report makes the
//! bottleneck obvious: it shows per-lock queuing, lock-acquisition latency
//! and critical-section latency, sorted by contention — exactly the output
//! the paper uses to re-engineer Memcached's locking.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example profile_contention
//! ```

use std::sync::Arc;
use std::thread;

use gls::{GlsConfig, GlsService};

const LOCKS: usize = 8;
const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 50_000;

fn main() {
    let service = Arc::new(GlsService::with_config(GlsConfig::profile()));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            thread::spawn(move || {
                let mut x = (t as u64 + 1) * 0x2545F491;
                for _ in 0..OPS_PER_THREAD {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    // 60% of operations hit lock 0, the rest spread out: the
                    // same shape as a system with one hot global lock.
                    let which = if x % 10 < 6 { 0 } else { (x as usize) % LOCKS };
                    let addr = 0x5000 + which * 64;
                    service.lock(addr).unwrap();
                    gls_runtime::spin_cycles(if which == 0 { 800 } else { 200 });
                    service.unlock(addr).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let report = service.profile_report();
    println!("profile_contention: per-lock report (most contended first)\n");
    print!("{report}");

    let hot: Vec<_> = report.contended(1.0).collect();
    println!("\nlikely bottlenecks (avg queue > 1.0): {}", hot.len());
    for lock in hot {
        println!(
            "  {:#x} — avg queue {:.2}, suggest a queue-based lock or finer granularity",
            lock.addr, lock.avg_queue
        );
    }
}
