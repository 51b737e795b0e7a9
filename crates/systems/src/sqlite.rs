//! SQLite/TPC-C-like relational engine.
//!
//! SQLite's locking architecture as described in §5.2: "SQLite uses a MUTEX
//! for each database (e.g., each new connection), another for memory
//! allocation, and a last one for protecting the database cache. However, the
//! nodes of the B-tree are protected by custom reader-writer locks. The
//! mutexes of SQLite become contended as we increase the number of
//! connections." The paper drives it with TPC-C at 8–64 concurrent
//! connections; 64 connections oversubscribe the machine.
//!
//! The miniature keeps: one mutex per connection, one global allocator mutex,
//! one global page-cache mutex, reader-writer locks over B-tree "pages", and
//! a TPC-C-flavoured transaction mix (new-order / payment / stock-level) over
//! a warehouse/district/stock schema stored in B-trees.

// The simulated system busy-loops and sleeps stand in for real I/O and
// compute latencies; wall-clock pacing is the point (see clippy.toml).
#![allow(clippy::disallowed_methods)]

use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::lock_provider::{AppMutex, AppRwLock, LockProvider};
use crate::result::SystemResult;

/// Number of B-tree page groups, each with its own reader-writer lock.
const PAGE_GROUPS: usize = 32;
/// Number of warehouses (TPC-C scale factor; the paper uses 100).
const WAREHOUSES: u64 = 100;
/// Districts per warehouse (TPC-C constant).
const DISTRICTS: u64 = 10;
/// Stock items per warehouse kept in the miniature.
const ITEMS: u64 = 1_000;

/// Configuration of the SQLite/TPC-C experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SqliteConfig {
    /// Number of concurrent connections (each served by one thread). The
    /// paper sweeps 8, 16, 32, 64.
    pub connections: usize,
    /// Measurement duration.
    pub duration: Duration,
}

impl Default for SqliteConfig {
    fn default() -> Self {
        Self {
            connections: 8,
            duration: Duration::from_millis(300),
        }
    }
}

impl SqliteConfig {
    /// The paper's connection sweep.
    pub fn paper_connection_counts() -> [usize; 4] {
        [8, 16, 32, 64]
    }
}

#[derive(Debug, Default)]
struct Tables {
    /// `(warehouse, district) -> next order id`.
    districts: BTreeMap<(u64, u64), u64>,
    /// `(warehouse, item) -> stock quantity`.
    stock: BTreeMap<(u64, u64), i64>,
    /// `(warehouse, district) -> year-to-date payment amount (cents)`.
    ytd: BTreeMap<(u64, u64), u64>,
}

/// The simulated SQLite database.
pub struct SqliteDb {
    /// One mutex per connection.
    connection_locks: Vec<AppMutex>,
    /// Global memory-allocator mutex.
    alloc_lock: AppMutex,
    /// Global page-cache mutex (the contended one as connections grow).
    cache_lock: AppMutex,
    /// Reader-writer locks over groups of B-tree pages.
    page_locks: Vec<AppRwLock>,
    /// Table rows, partitioned by page group: group `g` holds the rows of
    /// every warehouse with `warehouse % PAGE_GROUPS == g`, and is only
    /// accessed under `page_locks[g]`.
    tables: Vec<UnsafeCell<Tables>>,
}

// SAFETY: each table partition is only touched under the page-group rwlock
// covering it (writers take write access).
unsafe impl Sync for SqliteDb {}
unsafe impl Send for SqliteDb {}

impl std::fmt::Debug for SqliteDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SqliteDb")
            .field("connections", &self.connection_locks.len())
            .finish_non_exhaustive()
    }
}

impl SqliteDb {
    /// Creates a database with `connections` connection mutexes and loads the
    /// TPC-C-lite schema.
    pub fn new(provider: &LockProvider, connections: usize) -> Self {
        let db = Self {
            connection_locks: (0..connections.max(1))
                .map(|_| provider.new_mutex())
                .collect(),
            alloc_lock: provider.new_mutex(),
            // The page cache is the mutex that becomes contended as the
            // number of connections grows.
            cache_lock: provider.new_contended_mutex(),
            page_locks: (0..PAGE_GROUPS).map(|_| provider.new_rwlock()).collect(),
            tables: (0..PAGE_GROUPS)
                .map(|_| UnsafeCell::new(Tables::default()))
                .collect(),
        };
        db.load();
        db
    }

    fn load(&self) {
        for w in 0..WAREHOUSES {
            let group = Self::group_of(w);
            self.page_locks[group].with_write(|| {
                // SAFETY: write lock on this partition's page group.
                let tables = unsafe { &mut *self.tables[group].get() };
                for d in 0..DISTRICTS {
                    tables.districts.insert((w, d), 1);
                    tables.ytd.insert((w, d), 0);
                }
                for i in 0..ITEMS {
                    tables.stock.insert((w, i), 100);
                }
            });
        }
    }

    fn group_of(warehouse: u64) -> usize {
        (warehouse as usize) % PAGE_GROUPS
    }

    fn page_lock_for(&self, warehouse: u64) -> &AppRwLock {
        &self.page_locks[Self::group_of(warehouse)]
    }

    /// TPC-C new-order transaction (simplified): allocates memory, pins cache
    /// pages, increments the district order counter and decrements stock for
    /// a handful of items.
    pub fn new_order(&self, connection: usize, warehouse: u64, district: u64, rng: &mut StdRng) {
        let conn_lock = &self.connection_locks[connection % self.connection_locks.len()];
        conn_lock.lock();
        self.alloc_lock.with(|| gls_runtime::spin_cycles(40));
        self.cache_lock.with(|| gls_runtime::spin_cycles(80));
        self.page_lock_for(warehouse).with_write(|| {
            // SAFETY: write lock on this warehouse's page group.
            let tables = unsafe { &mut *self.tables[Self::group_of(warehouse)].get() };
            let order_id = tables.districts.entry((warehouse, district)).or_insert(1);
            *order_id += 1;
            for _ in 0..5 {
                let item = rng.gen_range(0..ITEMS);
                let stock = tables.stock.entry((warehouse, item)).or_insert(100);
                *stock -= 1;
                if *stock < 10 {
                    *stock += 91; // restock, as TPC-C does
                }
            }
        });
        conn_lock.unlock();
    }

    /// TPC-C payment transaction (simplified).
    pub fn payment(&self, connection: usize, warehouse: u64, district: u64, amount: u64) {
        let conn_lock = &self.connection_locks[connection % self.connection_locks.len()];
        conn_lock.lock();
        self.cache_lock.with(|| gls_runtime::spin_cycles(60));
        self.page_lock_for(warehouse).with_write(|| {
            // SAFETY: write lock on this warehouse's page group.
            let tables = unsafe { &mut *self.tables[Self::group_of(warehouse)].get() };
            *tables.ytd.entry((warehouse, district)).or_insert(0) += amount;
        });
        conn_lock.unlock();
    }

    /// TPC-C stock-level transaction (read-only, simplified).
    pub fn stock_level(&self, connection: usize, warehouse: u64) -> usize {
        let conn_lock = &self.connection_locks[connection % self.connection_locks.len()];
        conn_lock.lock();
        self.cache_lock.with(|| gls_runtime::spin_cycles(60));
        let low = self.page_lock_for(warehouse).with_read(|| {
            // SAFETY: read lock on this warehouse's page group; read-only.
            let tables = unsafe { &*self.tables[Self::group_of(warehouse)].get() };
            tables
                .stock
                .range((warehouse, 0)..(warehouse, ITEMS))
                .filter(|(_, &qty)| qty < 50)
                .count()
        });
        conn_lock.unlock();
        low
    }

    #[cfg(test)]
    /// Sum of all district order counters (test helper).
    pub fn total_orders(&self) -> u64 {
        (0..PAGE_GROUPS)
            .map(|group| {
                self.page_locks[group].with_read(|| {
                    // SAFETY: read lock on this partition's page group.
                    let tables = unsafe { &*self.tables[group].get() };
                    tables.districts.values().map(|&v| v - 1).sum::<u64>()
                })
            })
            .sum()
    }

    #[cfg(test)]
    /// Total year-to-date payments across all districts (test helper).
    pub fn total_ytd(&self) -> u64 {
        (0..PAGE_GROUPS)
            .map(|group| {
                self.page_locks[group].with_read(|| {
                    // SAFETY: read lock on this partition's page group.
                    let tables = unsafe { &*self.tables[group].get() };
                    tables.ytd.values().sum::<u64>()
                })
            })
            .sum()
    }
}

/// Runs the TPC-C-lite mix with one thread per connection.
pub fn run(provider: &LockProvider, config: &SqliteConfig) -> SystemResult {
    let db = Arc::new(SqliteDb::new(provider, config.connections));
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let handles: Vec<_> = (0..config.connections)
        .map(|conn| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let committed = Arc::clone(&committed);
            std::thread::spawn(move || {
                // Count this worker towards the process-wide runnable-task
                // count so GLK's multiprogramming detector can see it.
                let _runnable = gls_runtime::SystemLoadMonitor::global().runnable_guard();
                let mut rng = StdRng::seed_from_u64(0x59_1173 + conn as u64);
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let warehouse = rng.gen_range(0..WAREHOUSES);
                    let district = rng.gen_range(0..DISTRICTS);
                    match rng.gen_range(0..100) {
                        0..=44 => db.new_order(conn, warehouse, district, &mut rng),
                        45..=87 => db.payment(conn, warehouse, district, 500),
                        _ => {
                            let _ = db.stock_level(conn, warehouse);
                        }
                    }
                    local += 1;
                }
                committed.fetch_add(local, Ordering::Relaxed);
            })
        })
        .collect();
    std::thread::sleep(config.duration);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    SystemResult {
        system: "SQLite",
        config: format!("{} CON", config.connections),
        lock: provider.label(),
        operations: committed.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gls::{GlsConfig, GlsService};
    use gls_locks::LockKind;

    #[test]
    fn schema_is_loaded() {
        let db = SqliteDb::new(&LockProvider::mutex(), 4);
        assert_eq!(db.total_orders(), 0);
        assert_eq!(db.total_ytd(), 0);
        assert_eq!(
            db.stock_level(0, 0),
            0,
            "fresh stock is all above the threshold"
        );
    }

    #[test]
    fn transactions_update_the_tables() {
        let db = SqliteDb::new(&LockProvider::mutex(), 2);
        let mut rng = StdRng::seed_from_u64(1);
        db.new_order(0, 3, 2, &mut rng);
        db.new_order(1, 3, 2, &mut rng);
        db.payment(0, 3, 2, 1_000);
        assert_eq!(db.total_orders(), 2);
        assert_eq!(db.total_ytd(), 1_000);
    }

    #[test]
    fn concurrent_connections_do_not_lose_payments() {
        let db = Arc::new(SqliteDb::new(&LockProvider::Direct(LockKind::Mcs), 8));
        let handles: Vec<_> = (0..8)
            .map(|conn| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        db.payment(conn, (conn % 4) as u64, 0, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.total_ytd(), 8 * 500);
    }

    #[test]
    fn workload_runs_for_every_provider_at_8_connections() {
        let config = SqliteConfig {
            connections: 8,
            duration: Duration::from_millis(60),
        };
        for provider in [
            LockProvider::mutex(),
            LockProvider::Direct(LockKind::Ticket),
            LockProvider::Direct(LockKind::Mcs),
            LockProvider::glk(),
        ] {
            let result = run(&provider, &config);
            assert!(result.operations > 0, "{}", provider.label());
            assert_eq!(result.config, "8 CON");
        }
    }

    #[test]
    fn gls_provider_profiles_sqlite_page_rwlocks() {
        let provider = LockProvider::Gls(Arc::new(GlsService::with_config(GlsConfig::profile())));
        let result = run(
            &provider,
            &SqliteConfig {
                connections: 4,
                duration: Duration::from_millis(60),
            },
        );
        assert!(result.operations > 0);
        let locks = provider.service().unwrap().telemetry_snapshot().locks;
        let rw_acquisitions: u64 = locks
            .iter()
            .filter(|l| l.algorithm == gls_locks::LockKind::FutexRw)
            .map(|l| l.acquisitions)
            .sum();
        assert!(
            rw_acquisitions > 0,
            "page-group rwlocks must be profiled through GLS: {locks:?}"
        );
    }

    #[test]
    fn paper_connection_sweep_is_8_to_64() {
        assert_eq!(SqliteConfig::paper_connection_counts(), [8, 16, 32, 64]);
    }
}
