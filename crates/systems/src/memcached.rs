//! Memcached-like in-memory cache, including the two latent locking bugs and
//! the GLS re-implementations of §5.1.
//!
//! The locking architecture kept from Memcached 1.4.x:
//!
//! * a hash table of items protected by an array of **item locks** (one per
//!   group of buckets) — individually lightly contended;
//! * a global **stats lock** touched by every request — the contended one;
//! * a global **slabs lock** (allocation) and **LRU lock** taken on stores;
//! * a **slabs-rebalance lock** used by a background maintenance path;
//! * a configurable number of worker threads serving a Twitter-like
//!   geT/set mix over zipfian-popular keys.
//!
//! With `legacy_bugs` enabled the constructor reproduces the two §5.1 issues:
//! (1) the statistics path touches the `stats_lock` before it is ever
//! initialized (here: an unlock of a never-locked address), and (2) the slab
//! maintenance path releases the `slabs_rebalance_lock` without having
//! acquired it. Both are invisible with plain mutexes but are flagged by the
//! GLS debug mode.

// The simulated system busy-loops and sleeps stand in for real I/O and
// compute latencies; wall-clock pacing is the point (see clippy.toml).
#![allow(clippy::disallowed_methods)]

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gls_workloads::Zipfian;

use crate::lock_provider::{AppCondvar, AppMutex, LockProvider};
use crate::result::SystemResult;

/// Number of item-lock groups (Memcached uses a power of two depending on
/// thread count; 64 keeps per-lock contention low like the real system).
const ITEM_LOCKS: usize = 64;
/// Number of hash-table buckets.
const BUCKETS: usize = 4096;

/// Configuration of the Memcached workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemcachedConfig {
    /// Worker threads (the paper uses 8).
    pub threads: usize,
    /// Percentage of GET operations (10 = "SET", 50 = "SET/GET", 90 = "GET").
    pub get_percent: u32,
    /// Number of distinct keys.
    pub keys: u64,
    /// Zipfian skew of key popularity (Twitter-like traffic is skewed).
    pub zipf_alpha: f64,
    /// Measurement duration.
    pub duration: Duration,
    /// Whether to reproduce the two latent locking bugs of §5.1.
    pub legacy_bugs: bool,
}

impl Default for MemcachedConfig {
    fn default() -> Self {
        Self {
            threads: 8,
            get_percent: 90,
            keys: 100_000,
            zipf_alpha: 0.9,
            duration: Duration::from_millis(300),
            legacy_bugs: false,
        }
    }
}

impl MemcachedConfig {
    /// The paper's three workload mixes: (label, GET percentage).
    pub fn paper_configs() -> [(&'static str, u32); 3] {
        [("SET", 10), ("SET/GET", 50), ("GET", 90)]
    }

    /// Enables or disables the two seeded legacy bugs.
    pub fn with_legacy_bugs(mut self, enabled: bool) -> Self {
        self.legacy_bugs = enabled;
        self
    }
}

/// Aggregate server statistics (protected by the global stats lock).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Completed GET requests.
    pub gets: u64,
    /// GETs that found the key.
    pub hits: u64,
    /// Completed SET requests.
    pub sets: u64,
    /// Bytes currently stored (approximate).
    pub bytes: u64,
}

/// The simulated Memcached server.
pub struct Memcached {
    item_locks: Vec<AppMutex>,
    buckets: Vec<UnsafeCell<HashMap<u64, Vec<u8>>>>,
    stats_lock: AppMutex,
    stats: UnsafeCell<Stats>,
    slabs_lock: AppMutex,
    lru_lock: AppMutex,
    slabs_rebalance_lock: AppMutex,
    /// Signal flag for the background rebalancer, protected by
    /// `slabs_rebalance_lock` (memcached's `slab_rebalance_signal`).
    rebalance_requested: UnsafeCell<bool>,
    /// The rebalancer's condition variable (memcached's
    /// `slab_rebalance_cond`), paired with `slabs_rebalance_lock`.
    rebalance_cond: AppCondvar,
    /// Completed background rebalance steps.
    rebalances: AtomicU64,
    allocated: AtomicU64,
}

// SAFETY: buckets are only accessed under their item lock; `stats` only under
// the stats lock.
unsafe impl Sync for Memcached {}
unsafe impl Send for Memcached {}

impl std::fmt::Debug for Memcached {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memcached")
            .field("item_locks", &self.item_locks.len())
            .field("buckets", &self.buckets.len())
            .finish_non_exhaustive()
    }
}

impl Memcached {
    /// Creates a server whose locks come from `provider`.
    pub fn new(provider: &LockProvider, config: &MemcachedConfig) -> Self {
        let server = Self {
            item_locks: (0..ITEM_LOCKS).map(|_| provider.new_mutex()).collect(),
            buckets: (0..BUCKETS)
                .map(|_| UnsafeCell::new(HashMap::new()))
                .collect(),
            // Every request touches the stats lock: the known-hot one.
            stats_lock: provider.new_contended_mutex(),
            stats: UnsafeCell::new(Stats::default()),
            slabs_lock: provider.new_mutex(),
            lru_lock: provider.new_mutex(),
            slabs_rebalance_lock: provider.new_mutex(),
            rebalance_requested: UnsafeCell::new(false),
            rebalance_cond: provider.new_condvar(),
            rebalances: AtomicU64::new(0),
            allocated: AtomicU64::new(0),
        };
        if config.legacy_bugs {
            server.startup_with_legacy_bugs();
        } else {
            server.startup();
        }
        server
    }

    /// Correct startup: initialize the rebalance path by taking and releasing
    /// its lock once.
    fn startup(&self) {
        self.slabs_rebalance_lock.lock();
        self.slabs_rebalance_lock.unlock();
    }

    /// Startup reproducing the two §5.1 issues. They are only *observable*
    /// when the locks are GLS-backed (the debug mode reports them); with
    /// plain mutexes they are silently tolerated, exactly as in the paper.
    fn startup_with_legacy_bugs(&self) {
        // Bug 1: the stats path releases `stats_lock` before the lock was
        // ever initialized/acquired (memcached/thread.c:662 + assoc.c:72).
        self.stats_lock.unlock();
        // Legitimate use of the rebalance lock first...
        self.slabs_rebalance_lock.lock();
        self.slabs_rebalance_lock.unlock();
        // Bug 2: ...and then the slab maintenance path unlocks
        // `slabs_rebalance_lock` without having acquired it
        // (memcached/slabs.c:836 + assoc.c:249).
        self.slabs_rebalance_lock.unlock();
    }

    fn bucket_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16) as usize % BUCKETS
    }

    fn item_lock_of(&self, bucket: usize) -> &AppMutex {
        &self.item_locks[bucket % ITEM_LOCKS]
    }

    /// GET: item lock for the bucket, then global stats update.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let bucket = self.bucket_of(key);
        let value = self.item_lock_of(bucket).with(|| {
            // SAFETY: the bucket's item lock is held.
            unsafe { (*self.buckets[bucket].get()).get(&key).cloned() }
        });
        self.stats_lock.with(|| {
            // SAFETY: stats lock held.
            let stats = unsafe { &mut *self.stats.get() };
            stats.gets += 1;
            if value.is_some() {
                stats.hits += 1;
            }
        });
        value
    }

    /// SET: slab allocation, item-lock insert, LRU update, stats update.
    pub fn set(&self, key: u64, value: Vec<u8>) {
        let len = value.len() as u64;
        // Slab allocation under the global slabs lock.
        self.slabs_lock.with(|| {
            self.allocated.fetch_add(len, Ordering::Relaxed);
        });
        let bucket = self.bucket_of(key);
        self.item_lock_of(bucket).with(|| {
            // SAFETY: the bucket's item lock is held.
            unsafe {
                (*self.buckets[bucket].get()).insert(key, value);
            }
        });
        // LRU bookkeeping under the global LRU lock.
        self.lru_lock.with(|| {
            gls_runtime::spin_cycles(50);
        });
        self.stats_lock.with(|| {
            // SAFETY: stats lock held.
            let stats = unsafe { &mut *self.stats.get() };
            stats.sets += 1;
            stats.bytes += len;
        });
    }

    /// Background slab-rebalance step (the foreground variant used before
    /// the condvar-driven maintenance thread existed; kept for direct
    /// benchmarking of the rebalance lock).
    pub fn rebalance(&self) {
        self.slabs_rebalance_lock.with(|| {
            gls_runtime::spin_cycles(200);
        });
    }

    /// Asks the background maintenance thread to run a rebalance step:
    /// raise the signal flag under the rebalance lock, then notify its
    /// condvar — the shape of memcached's `slabs_reassign` →
    /// `slab_rebalance_cond` handoff.
    pub fn request_rebalance(&self) {
        self.slabs_rebalance_lock.with(|| {
            // SAFETY: the rebalance lock is held.
            unsafe { *self.rebalance_requested.get() = true };
        });
        self.rebalance_cond.notify_one();
    }

    /// The background maintenance loop: wait (with a timeout, so a stop
    /// request can never be missed) for a rebalance signal, consume it,
    /// and run the step. Runs until `stop` is raised; workers drive it
    /// through [`Memcached::request_rebalance`].
    pub fn rebalance_worker(&self, stop: &AtomicBool) {
        while !stop.load(Ordering::Relaxed) {
            self.slabs_rebalance_lock.lock();
            // SAFETY (here and below): the rebalance lock is held.
            while !unsafe { *self.rebalance_requested.get() } && !stop.load(Ordering::Relaxed) {
                self.rebalance_cond
                    .wait_timeout(&self.slabs_rebalance_lock, Duration::from_millis(20));
            }
            let signaled = unsafe {
                let requested = &mut *self.rebalance_requested.get();
                std::mem::take(requested)
            };
            if signaled {
                // The actual rebalance work, still under the rebalance lock
                // like `slab_rebalance_move`.
                gls_runtime::spin_cycles(200);
            }
            self.slabs_rebalance_lock.unlock();
            if signaled {
                self.rebalances.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Completed background rebalance steps.
    pub fn rebalances(&self) -> u64 {
        self.rebalances.load(Ordering::Relaxed)
    }

    /// A snapshot of the server statistics.
    pub fn stats(&self) -> Stats {
        self.stats_lock.with(|| {
            // SAFETY: stats lock held.
            unsafe { *self.stats.get() }
        })
    }

    #[cfg(test)]
    /// Bytes handed out by the slab allocator.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }
}

/// Runs the Twitter-like workload against a fresh server and reports
/// throughput (Figure 13 / the Memcached columns of Figures 14–15).
pub fn run(provider: &LockProvider, config: &MemcachedConfig) -> SystemResult {
    let server = Arc::new(Memcached::new(provider, config));
    // Warm the cache with every key so GET hit rates are realistic.
    for key in 0..config.keys.min(20_000) {
        server.set(key, vec![0u8; 64]);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let zipf = Arc::new(Zipfian::new(config.keys as usize, config.zipf_alpha));
    let start = Instant::now();
    // Background maintenance: a dedicated thread sleeps on the rebalance
    // condvar and runs the steps the workers request (memcached's
    // slab-rebalance thread).
    let rebalancer = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || server.rebalance_worker(&stop))
    };
    let handles: Vec<_> = (0..config.threads)
        .map(|t| {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let zipf = Arc::clone(&zipf);
            let get_percent = config.get_percent;
            std::thread::spawn(move || {
                // Count this worker towards the process-wide runnable-task
                // count so GLK's multiprogramming detector can see it.
                let _runnable = gls_runtime::SystemLoadMonitor::global().runnable_guard();
                let mut rng = StdRng::seed_from_u64(0x3C + t as u64);
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = zipf.sample(&mut rng) as u64;
                    if rng.gen_range(0u32..100) < get_percent {
                        let _ = server.get(key);
                    } else {
                        server.set(key, vec![0u8; 64]);
                    }
                    if ops.is_multiple_of(1024) {
                        server.request_rebalance();
                    }
                    ops += 1;
                }
                ops
            })
        })
        .collect();
    std::thread::sleep(config.duration);
    stop.store(true, Ordering::Relaxed);
    let operations = handles.into_iter().map(|h| h.join().unwrap()).sum();
    // The rebalancer re-checks `stop` at least every wait-timeout tick.
    rebalancer.join().unwrap();

    let label = match config.get_percent {
        p if p <= 25 => "SET",
        p if p <= 75 => "SET/GET",
        _ => "GET",
    };
    SystemResult {
        system: "Memcached",
        config: label.to_string(),
        lock: provider.label(),
        operations,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gls::{GlsConfig, GlsService};
    use gls_locks::LockKind;

    #[test]
    fn get_set_roundtrip_and_stats() {
        let server = Memcached::new(&LockProvider::mutex(), &MemcachedConfig::default());
        assert_eq!(server.get(1), None);
        server.set(1, vec![1, 2, 3]);
        assert_eq!(server.get(1), Some(vec![1, 2, 3]));
        let stats = server.stats();
        assert_eq!(stats.gets, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.sets, 1);
        assert_eq!(stats.bytes, 3);
        assert_eq!(server.allocated_bytes(), 3);
    }

    #[test]
    fn concurrent_workers_never_lose_their_own_keys() {
        let server = Arc::new(Memcached::new(
            &LockProvider::Direct(LockKind::Ticket),
            &MemcachedConfig::default(),
        ));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let key = t as u64 * 1_000_000 + i;
                        server.set(key, key.to_le_bytes().to_vec());
                        assert_eq!(server.get(key), Some(key.to_le_bytes().to_vec()));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = server.stats();
        assert_eq!(stats.sets, 8_000);
        assert_eq!(stats.hits, 8_000);
    }

    #[test]
    fn workload_runs_for_all_figure13_providers() {
        let config = MemcachedConfig {
            threads: 4,
            keys: 5_000,
            duration: Duration::from_millis(60),
            ..Default::default()
        };
        for provider in [
            LockProvider::mutex(),
            LockProvider::glk(),
            LockProvider::gls(),
            LockProvider::gls_specialized(),
        ] {
            let result = run(&provider, &config);
            assert!(result.operations > 0, "{}", provider.label());
            assert_eq!(result.system, "Memcached");
            assert_eq!(result.config, "GET");
        }
    }

    #[test]
    fn legacy_bugs_are_detected_by_gls_debug_mode() {
        // Build the server on a GLS service in debug mode; the two seeded
        // §5.1 bugs must show up in the issue log with the same categories
        // the paper reports (uninitialized lock, unlocking an already free
        // lock).
        let service = Arc::new(GlsService::with_config(GlsConfig::debug()));
        let provider = LockProvider::Gls(Arc::clone(&service));
        let _server = Memcached::new(
            &provider,
            &MemcachedConfig::default().with_legacy_bugs(true),
        );
        let categories: Vec<_> = service.issues().iter().map(|i| i.category()).collect();
        assert!(
            categories.contains(&"uninitialized-lock"),
            "expected the stats_lock bug, got {categories:?}"
        );
        assert!(
            categories.contains(&"release-free-lock"),
            "expected the slabs_rebalance_lock bug, got {categories:?}"
        );
    }

    #[test]
    fn correct_startup_reports_no_issues() {
        let service = Arc::new(GlsService::with_config(GlsConfig::debug()));
        let provider = LockProvider::Gls(Arc::clone(&service));
        let server = Memcached::new(&provider, &MemcachedConfig::default());
        server.set(1, vec![9]);
        assert_eq!(server.get(1), Some(vec![9]));
        assert!(
            service.issues().is_empty(),
            "bug-free startup must not trigger the debug mode: {:?}",
            service.issues()
        );
    }

    #[test]
    fn background_rebalancer_serves_requests() {
        let server = Arc::new(Memcached::new(
            &LockProvider::mutex(),
            &MemcachedConfig::default(),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let worker = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || server.rebalance_worker(&stop))
        };
        for _ in 0..10 {
            server.request_rebalance();
            std::thread::sleep(Duration::from_millis(5));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.rebalances() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
        worker.join().unwrap();
        assert!(
            server.rebalances() > 0,
            "the condvar-driven maintenance thread must have run"
        );
    }

    #[test]
    fn condvar_maintenance_is_clean_under_debug_mode() {
        // The rebalancer sleeps on a condvar while workers hammer GLS
        // locks in debug mode: the sleeping waiter must not surface as a
        // deadlock (phantom or otherwise), and the ownership churn of
        // wait's unlock/relock must be bug-free.
        let service = Arc::new(GlsService::with_config(
            gls::GlsConfig::default().with_mode(gls::GlsMode::Debug),
        ));
        let provider = LockProvider::Gls(Arc::clone(&service));
        let config = MemcachedConfig {
            threads: 4,
            keys: 2_000,
            duration: Duration::from_millis(150),
            ..Default::default()
        };
        let result = run(&provider, &config);
        assert!(result.operations > 0);
        assert!(
            service.issues().is_empty(),
            "condvar-driven maintenance must not trip the debug mode: {:?}",
            service.issues()
        );
    }

    #[test]
    fn paper_configs_cover_three_mixes() {
        let configs = MemcachedConfig::paper_configs();
        assert_eq!(configs, [("SET", 10), ("SET/GET", 50), ("GET", 90)]);
    }
}
