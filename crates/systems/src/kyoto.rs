//! Kyoto-Cabinet-like NoSQL store: CACHE, HT DB and B+-TREE flavors.
//!
//! The paper evaluates Kyoto Cabinet's three database flavors (§5.2):
//!
//! * the **hash-table** versions (a cache and a persistent store) protect the
//!   main structure with a highly contended global reader-writer lock and
//!   additionally use 16 mutexes, each protecting a group of buckets, with
//!   very low per-lock contention but — for the cache — up to ~10 levels of
//!   lock nesting (which is what makes MCS expensive there);
//! * the **B+-tree** version uses reader-writer locks on tree nodes plus
//!   mutexes for a node cache, and those cache mutexes are highly contended.
//!
//! The miniatures below keep exactly those lock populations and access
//! skews; the data plane is a set of in-memory hash maps / a B-tree.

// The simulated system busy-loops and sleeps stand in for real I/O and
// compute latencies; wall-clock pacing is the point (see clippy.toml).
#![allow(clippy::disallowed_methods)]

use std::cell::UnsafeCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::lock_provider::{AppMutex, AppRwLock, LockProvider};
use crate::result::SystemResult;

/// Which Kyoto flavor to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KyotoFlavor {
    /// In-memory cache hash DB: high lock traffic, deep nesting.
    Cache,
    /// Persistent hash DB: same locking, roughly 10× less lock traffic
    /// (each operation does more non-locking work).
    HashDb,
    /// B+-tree DB: node rwlocks plus contended node-cache mutexes.
    BTree,
}

impl KyotoFlavor {
    /// Paper label for this flavor.
    pub fn label(self) -> &'static str {
        match self {
            KyotoFlavor::Cache => "CACHE",
            KyotoFlavor::HashDb => "HT DB",
            KyotoFlavor::BTree => "B+-TREE",
        }
    }

    /// All three flavors in the paper's order.
    pub const ALL: [KyotoFlavor; 3] = [KyotoFlavor::Cache, KyotoFlavor::HashDb, KyotoFlavor::BTree];
}

/// Number of bucket-group mutexes in the hash flavors (as in Kyoto Cabinet).
const BUCKET_GROUPS: usize = 16;
/// Nesting depth of the cache flavor's per-operation lock chain.
const CACHE_NESTING: usize = 6;
/// Number of node-cache mutexes in the B+-tree flavor.
const TREE_CACHE_LOCKS: usize = 4;

/// Workload configuration for the Kyoto experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KyotoConfig {
    /// Worker threads (the paper uses 4).
    pub threads: usize,
    /// Flavor under test.
    pub flavor: KyotoFlavor,
    /// Pre-loaded keys.
    pub keys: u64,
    /// Measurement duration.
    pub duration: Duration,
}

impl Default for KyotoConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            flavor: KyotoFlavor::Cache,
            keys: 100_000,
            duration: Duration::from_millis(300),
        }
    }
}

/// The hash-table flavors (CACHE and HT DB).
#[derive(Debug)]
pub struct KyotoHashDb {
    /// Highly contended global reader-writer lock over the whole structure.
    global: AppRwLock,
    /// 16 bucket-group mutexes, each lightly contended.
    bucket_locks: Vec<AppMutex>,
    /// Extra nested locks taken by the cache flavor (LRU segments etc.).
    nested_locks: Vec<AppMutex>,
    buckets: Vec<UnsafeCell<HashMap<u64, u64>>>,
    /// Non-locking work performed per operation, in cycles (models the
    /// heavier data plane of the persistent HT DB).
    work_cycles: u64,
    nesting: usize,
}

// SAFETY: each bucket is only touched while its bucket-group mutex is held
// (and the global rwlock is held in the corresponding mode).
unsafe impl Sync for KyotoHashDb {}
unsafe impl Send for KyotoHashDb {}

impl KyotoHashDb {
    /// Creates a hash store of the given flavor.
    pub fn new(provider: &LockProvider, flavor: KyotoFlavor) -> Self {
        assert!(
            flavor != KyotoFlavor::BTree,
            "use KyotoBTree for the tree flavor"
        );
        let (work_cycles, nesting) = match flavor {
            KyotoFlavor::Cache => (0, CACHE_NESTING),
            KyotoFlavor::HashDb => (2_000, 1),
            KyotoFlavor::BTree => unreachable!(),
        };
        Self {
            global: provider.new_rwlock(),
            bucket_locks: (0..BUCKET_GROUPS).map(|_| provider.new_mutex()).collect(),
            nested_locks: (0..CACHE_NESTING).map(|_| provider.new_mutex()).collect(),
            buckets: (0..BUCKET_GROUPS)
                .map(|_| UnsafeCell::new(HashMap::new()))
                .collect(),
            work_cycles,
            nesting,
        }
    }

    fn group(&self, key: u64) -> usize {
        (key as usize) % BUCKET_GROUPS
    }

    /// Acquires the nested lock chain (cache flavor), runs `f`, releases in
    /// reverse order.
    fn with_nested<R>(&self, depth: usize, f: impl FnOnce() -> R) -> R {
        for lock in &self.nested_locks[..depth.saturating_sub(1)] {
            lock.lock();
        }
        let out = f();
        for lock in self.nested_locks[..depth.saturating_sub(1)].iter().rev() {
            lock.unlock();
        }
        out
    }

    /// Reads one key.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.global.with_read(|| {
            let group = self.group(key);
            self.bucket_locks[group].with(|| {
                self.with_nested(self.nesting, || {
                    gls_runtime::spin_cycles(self.work_cycles);
                    // SAFETY: bucket-group lock held.
                    unsafe { (*self.buckets[group].get()).get(&key).copied() }
                })
            })
        })
    }

    /// Writes one key.
    pub fn put(&self, key: u64, value: u64) {
        self.global.with_read(|| {
            let group = self.group(key);
            self.bucket_locks[group].with(|| {
                self.with_nested(self.nesting, || {
                    gls_runtime::spin_cycles(self.work_cycles);
                    // SAFETY: bucket-group lock held.
                    unsafe {
                        (*self.buckets[group].get()).insert(key, value);
                    }
                })
            })
        });
    }

    /// Structural maintenance (resize/defrag): takes the global lock in write
    /// mode, excluding every reader.
    pub fn maintain(&self) {
        self.global.with_write(|| {
            gls_runtime::spin_cycles(500);
        });
    }

    /// Total number of stored keys.
    pub fn len(&self) -> usize {
        self.global.with_write(|| {
            self.buckets
                .iter()
                .map(|b| {
                    // SAFETY: global write lock excludes all other users.
                    unsafe { (*b.get()).len() }
                })
                .sum()
        })
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The B+-tree flavor.
#[derive(Debug)]
pub struct KyotoBTree {
    /// Tree structure lock (read for lookups, write for updates) — stands in
    /// for the per-node reader-writer locks.
    tree_lock: AppRwLock,
    /// Node-cache mutexes: few and hot, the bottleneck the paper observes.
    cache_locks: Vec<AppMutex>,
    tree: UnsafeCell<BTreeMap<u64, u64>>,
}

// SAFETY: tree access is guarded by `tree_lock` in the appropriate mode.
unsafe impl Sync for KyotoBTree {}
unsafe impl Send for KyotoBTree {}

impl KyotoBTree {
    /// Creates an empty B+-tree store.
    pub fn new(provider: &LockProvider) -> Self {
        Self {
            tree_lock: provider.new_rwlock(),
            cache_locks: (0..TREE_CACHE_LOCKS)
                .map(|_| provider.new_contended_mutex())
                .collect(),
            tree: UnsafeCell::new(BTreeMap::new()),
        }
    }

    fn with_cache_lock<R>(&self, key: u64, f: impl FnOnce() -> R) -> R {
        self.cache_locks[(key as usize) % TREE_CACHE_LOCKS].with(f)
    }

    /// Reads one key.
    pub fn get(&self, key: u64) -> Option<u64> {
        // Every operation first pins tree pages through the node cache
        // (contended), then traverses the tree under a read lock.
        self.with_cache_lock(key, || {
            self.tree_lock.with_read(|| {
                // SAFETY: read lock held; lookups do not mutate the tree.
                unsafe { (*self.tree.get()).get(&key).copied() }
            })
        })
    }

    /// Writes one key.
    pub fn put(&self, key: u64, value: u64) {
        self.with_cache_lock(key, || {
            self.tree_lock.with_write(|| {
                // SAFETY: write lock held.
                unsafe {
                    (*self.tree.get()).insert(key, value);
                }
            })
        });
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.tree_lock.with_read(|| {
            // SAFETY: read lock held.
            unsafe { (*self.tree.get()).len() }
        })
    }

    /// Whether the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

enum AnyDb {
    Hash(KyotoHashDb),
    Tree(KyotoBTree),
}

impl AnyDb {
    fn get(&self, key: u64) -> Option<u64> {
        match self {
            AnyDb::Hash(db) => db.get(key),
            AnyDb::Tree(db) => db.get(key),
        }
    }

    fn put(&self, key: u64, value: u64) {
        match self {
            AnyDb::Hash(db) => db.put(key, value),
            AnyDb::Tree(db) => db.put(key, value),
        }
    }
}

/// Runs the Kyoto workload: a mix of 70% reads, 25% writes and 5% structural
/// maintenance (hash flavors only), from `threads` workers.
pub fn run(provider: &LockProvider, config: &KyotoConfig) -> SystemResult {
    let db = Arc::new(match config.flavor {
        KyotoFlavor::BTree => AnyDb::Tree(KyotoBTree::new(provider)),
        flavor => AnyDb::Hash(KyotoHashDb::new(provider, flavor)),
    });
    // Pre-load.
    for k in 0..config.keys {
        db.put(k, k);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let handles: Vec<_> = (0..config.threads)
        .map(|t| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let keys = config.keys;
            std::thread::spawn(move || {
                // Count this worker towards the process-wide runnable-task
                // count so GLK's multiprogramming detector can see it.
                let _runnable = gls_runtime::SystemLoadMonitor::global().runnable_guard();
                let mut rng = StdRng::seed_from_u64(0x4B_59 + t as u64);
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = rng.gen_range(0..keys);
                    let dice = rng.gen_range(0..100);
                    if dice < 70 {
                        let _ = db.get(key);
                    } else if dice < 95 {
                        db.put(key, ops);
                    } else if let AnyDb::Hash(hash) = &*db {
                        hash.maintain();
                    } else {
                        db.put(key, ops);
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

    SystemResult {
        system: "Kyoto",
        config: config.flavor.label().to_string(),
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
    fn hash_db_roundtrip_and_len() {
        let db = KyotoHashDb::new(&LockProvider::mutex(), KyotoFlavor::Cache);
        assert!(db.is_empty());
        db.put(1, 10);
        db.put(17, 170); // same bucket group as 1 (17 % 16 == 1)
        assert_eq!(db.get(1), Some(10));
        assert_eq!(db.get(17), Some(170));
        assert_eq!(db.get(2), None);
        assert_eq!(db.len(), 2);
        db.maintain();
    }

    #[test]
    #[should_panic(expected = "KyotoBTree")]
    fn hash_constructor_rejects_tree_flavor() {
        KyotoHashDb::new(&LockProvider::mutex(), KyotoFlavor::BTree);
    }

    #[test]
    fn btree_roundtrip() {
        let db = KyotoBTree::new(&LockProvider::Direct(LockKind::Ticket));
        assert!(db.is_empty());
        for k in 0..100 {
            db.put(k, k * 2);
        }
        assert_eq!(db.len(), 100);
        assert_eq!(db.get(40), Some(80));
        assert_eq!(db.get(200), None);
    }

    #[test]
    fn concurrent_hash_access_keeps_structure_consistent() {
        let db = Arc::new(KyotoHashDb::new(
            &LockProvider::Direct(LockKind::Mcs),
            KyotoFlavor::Cache,
        ));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let key = t as u64 * 10_000 + i;
                        db.put(key, key + 1);
                        assert_eq!(db.get(key), Some(key + 1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.len(), 8_000);
    }

    #[test]
    fn workload_runs_for_all_flavors() {
        for flavor in KyotoFlavor::ALL {
            let result = run(
                &LockProvider::glk(),
                &KyotoConfig {
                    threads: 4,
                    flavor,
                    keys: 5_000,
                    duration: Duration::from_millis(60),
                },
            );
            assert!(result.operations > 0, "flavor {}", flavor.label());
            assert_eq!(result.config, flavor.label());
        }
    }

    #[test]
    fn gls_provider_profiles_kyoto_rw_traffic() {
        let provider = LockProvider::Gls(Arc::new(GlsService::with_config(GlsConfig::profile())));
        let result = run(
            &provider,
            &KyotoConfig {
                threads: 2,
                flavor: KyotoFlavor::Cache,
                keys: 1_000,
                duration: Duration::from_millis(60),
            },
        );
        assert!(result.operations > 0);
        let locks = provider.service().unwrap().telemetry_snapshot().locks;
        let rw_entries: Vec<_> = locks
            .iter()
            .filter(|l| l.algorithm == LockKind::FutexRw)
            .collect();
        assert!(
            !rw_entries.is_empty(),
            "the global rwlock must be profiled through GLS: {locks:?}"
        );
        assert!(
            rw_entries.iter().any(|l| l.acquisitions > 0),
            "rw entries must record acquisitions"
        );
    }

    #[test]
    fn flavor_labels_match_the_paper() {
        assert_eq!(KyotoFlavor::Cache.label(), "CACHE");
        assert_eq!(KyotoFlavor::HashDb.label(), "HT DB");
        assert_eq!(KyotoFlavor::BTree.label(), "B+-TREE");
    }
}
