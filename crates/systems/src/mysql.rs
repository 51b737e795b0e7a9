//! MySQL/LinkBench-like engine: custom buffer-pool "semaphore" locks and
//! oversubscribed worker threads.
//!
//! The paper's MySQL experiments (Facebook LinkBench, MEM and SSD
//! configurations) are the case where fair spinlocks fall over: "In both
//! workloads, MySQL oversubscribes threads to hardware contexts. The result
//! is a livelock for both MCS and TICKET that deliver less than 100
//! operations per second" (§5.2). Blocking (or GLK switching its contended
//! locks to mutex mode) is required; at the same time many of the engine's
//! locks are lightly contended, which is where GLK's ticket mode gains over
//! MUTEX on the SSD workload.
//!
//! The miniature keeps: a graph store (nodes + typed edges, LinkBench's data
//! model) partitioned over buffer-pool pages, each page protected by one of a
//! fixed array of page latches; a small set of hot index latches taken by
//! every transaction; and a worker pool that deliberately oversubscribes the
//! machine. The SSD configuration adds per-transaction "I/O" time spent
//! outside any lock, which lowers lock traffic exactly like a disk-bound
//! LinkBench run.

// The simulated system busy-loops and sleeps stand in for real I/O and
// compute latencies; wall-clock pacing is the point (see clippy.toml).
#![allow(clippy::disallowed_methods)]

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::lock_provider::{AppMutex, LockProvider};
use crate::result::SystemResult;

/// Number of buffer-pool pages (and page latches).
const PAGES: usize = 128;
/// Number of hot index latches taken by every transaction.
const INDEX_LATCHES: usize = 2;

/// MEM vs SSD configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MysqlWorkload {
    /// In-memory LinkBench: no I/O time, lock-dominated.
    Mem,
    /// SSD LinkBench: every transaction pays an out-of-lock "I/O" cost, so
    /// individual locks are lightly contended.
    Ssd,
}

impl MysqlWorkload {
    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            MysqlWorkload::Mem => "MEM",
            MysqlWorkload::Ssd => "SSD",
        }
    }

    /// Simulated out-of-lock I/O time per transaction, in cycles.
    fn io_cycles(self) -> u64 {
        match self {
            MysqlWorkload::Mem => 0,
            MysqlWorkload::Ssd => 20_000,
        }
    }
}

/// Configuration of the MySQL/LinkBench experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MysqlConfig {
    /// Worker threads. The paper oversubscribes; use
    /// [`MysqlConfig::oversubscribed`] to derive a value from the host.
    pub threads: usize,
    /// MEM or SSD workload.
    pub workload: MysqlWorkload,
    /// Number of graph nodes pre-loaded.
    pub nodes: u64,
    /// Measurement duration.
    pub duration: Duration,
}

impl MysqlConfig {
    /// A configuration that oversubscribes the current machine by 50%, the
    /// regime the paper's MySQL runs operate in.
    pub fn oversubscribed(workload: MysqlWorkload) -> Self {
        Self {
            threads: gls_runtime::hardware_contexts() * 3 / 2 + 2,
            workload,
            nodes: 50_000,
            duration: Duration::from_millis(300),
        }
    }
}

impl Default for MysqlConfig {
    fn default() -> Self {
        Self::oversubscribed(MysqlWorkload::Mem)
    }
}

/// A LinkBench-style edge: `(source node, edge type) -> targets`.
type EdgeKey = (u64, u8);

/// The simulated storage engine.
pub struct MysqlEngine {
    /// One latch per buffer-pool page.
    page_latches: Vec<AppMutex>,
    /// Hot index latches taken by every transaction (these are the ones GLK
    /// keeps in — or moves to — mutex mode under oversubscription).
    index_latches: Vec<AppMutex>,
    nodes: Vec<UnsafeCell<HashMap<u64, u64>>>,
    edges: Vec<UnsafeCell<HashMap<EdgeKey, Vec<u64>>>>,
}

// SAFETY: page data is only accessed while holding the page's latch.
unsafe impl Sync for MysqlEngine {}
unsafe impl Send for MysqlEngine {}

impl std::fmt::Debug for MysqlEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MysqlEngine")
            .field("pages", &PAGES)
            .finish_non_exhaustive()
    }
}

impl MysqlEngine {
    /// Creates an engine whose latches come from `provider`.
    pub fn new(provider: &LockProvider) -> Self {
        Self {
            page_latches: (0..PAGES).map(|_| provider.new_mutex()).collect(),
            index_latches: (0..INDEX_LATCHES)
                .map(|_| provider.new_contended_mutex())
                .collect(),
            nodes: (0..PAGES)
                .map(|_| UnsafeCell::new(HashMap::new()))
                .collect(),
            edges: (0..PAGES)
                .map(|_| UnsafeCell::new(HashMap::new()))
                .collect(),
        }
    }

    fn page_of(&self, node: u64) -> usize {
        (node as usize) % PAGES
    }

    /// Runs `f` with the page latch of `node` held.
    fn with_page<R>(&self, node: u64, f: impl FnOnce(usize) -> R) -> R {
        let page = self.page_of(node);
        self.page_latches[page].lock();
        let out = f(page);
        self.page_latches[page].unlock();
        out
    }

    /// Inserts or updates a node.
    pub fn add_node(&self, id: u64, version: u64) {
        self.index_latches[0].with(|| gls_runtime::spin_cycles(30));
        self.with_page(id, |page| {
            // SAFETY: page latch held.
            unsafe {
                (*self.nodes[page].get()).insert(id, version);
            }
        });
    }

    /// Reads a node.
    pub fn get_node(&self, id: u64) -> Option<u64> {
        self.index_latches[0].with(|| gls_runtime::spin_cycles(30));
        self.with_page(id, |page| {
            // SAFETY: page latch held.
            unsafe { (*self.nodes[page].get()).get(&id).copied() }
        })
    }

    /// Adds a directed edge of `edge_type` from `src` to `dst`.
    pub fn add_edge(&self, src: u64, edge_type: u8, dst: u64) {
        self.index_latches[1].with(|| gls_runtime::spin_cycles(30));
        self.with_page(src, |page| {
            // SAFETY: page latch held.
            unsafe {
                (*self.edges[page].get())
                    .entry((src, edge_type))
                    .or_default()
                    .push(dst);
            }
        });
    }

    /// Lists the out-edges of `src` with the given type.
    pub fn get_edges(&self, src: u64, edge_type: u8) -> Vec<u64> {
        self.index_latches[1].with(|| gls_runtime::spin_cycles(30));
        self.with_page(src, |page| {
            // SAFETY: page latch held.
            unsafe {
                (*self.edges[page].get())
                    .get(&(src, edge_type))
                    .cloned()
                    .unwrap_or_default()
            }
        })
    }

    #[cfg(test)]
    /// Total node count (test helper; takes every page latch in order).
    pub fn node_count(&self) -> usize {
        let mut total = 0;
        for page in 0..PAGES {
            self.page_latches[page].lock();
            // SAFETY: page latch held.
            total += unsafe { (*self.nodes[page].get()).len() };
            self.page_latches[page].unlock();
        }
        total
    }
}

/// Runs the LinkBench-like transaction mix and reports throughput.
pub fn run(provider: &LockProvider, config: &MysqlConfig) -> SystemResult {
    let engine = Arc::new(MysqlEngine::new(provider));
    for id in 0..config.nodes {
        engine.add_node(id, 1);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let io_cycles = config.workload.io_cycles();
    let start = Instant::now();
    let handles: Vec<_> = (0..config.threads)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let nodes = config.nodes;
            std::thread::spawn(move || {
                // Count this worker towards the process-wide runnable-task
                // count so GLK's multiprogramming detector can see it.
                let _runnable = gls_runtime::SystemLoadMonitor::global().runnable_guard();
                let mut rng = StdRng::seed_from_u64(0x5A1 + t as u64);
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // LinkBench mix: ~70% reads, ~30% writes.
                    let src = rng.gen_range(0..nodes);
                    let dice = rng.gen_range(0..100);
                    if dice < 50 {
                        let _ = engine.get_node(src);
                    } else if dice < 70 {
                        let _ = engine.get_edges(src, 1);
                    } else if dice < 85 {
                        engine.add_node(src, ops);
                    } else {
                        engine.add_edge(src, 1, rng.gen_range(0..nodes));
                    }
                    // Out-of-lock I/O time (SSD configuration only).
                    gls_runtime::spin_cycles(io_cycles);
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
        system: "MySQL",
        config: config.workload.label().to_string(),
        lock: provider.label(),
        operations,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gls_locks::LockKind;

    #[test]
    fn graph_roundtrip() {
        let engine = MysqlEngine::new(&LockProvider::mutex());
        engine.add_node(1, 7);
        engine.add_node(2, 9);
        engine.add_edge(1, 3, 2);
        assert_eq!(engine.get_node(1), Some(7));
        assert_eq!(engine.get_node(99), None);
        assert_eq!(engine.get_edges(1, 3), vec![2]);
        assert!(engine.get_edges(2, 3).is_empty());
        assert_eq!(engine.node_count(), 2);
    }

    #[test]
    fn concurrent_transactions_keep_their_writes() {
        let engine = Arc::new(MysqlEngine::new(&LockProvider::glk()));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        let id = t as u64 * 100_000 + i;
                        engine.add_node(id, i);
                        engine.add_edge(id, 1, id + 1);
                        assert_eq!(engine.get_node(id), Some(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(engine.node_count(), 4_000);
    }

    #[test]
    fn workload_labels_match_the_paper() {
        assert_eq!(MysqlWorkload::Mem.label(), "MEM");
        assert_eq!(MysqlWorkload::Ssd.label(), "SSD");
        assert!(MysqlWorkload::Ssd.io_cycles() > MysqlWorkload::Mem.io_cycles());
    }

    #[test]
    fn oversubscribed_config_exceeds_hardware_contexts() {
        let config = MysqlConfig::oversubscribed(MysqlWorkload::Mem);
        assert!(config.threads > gls_runtime::hardware_contexts());
    }

    #[test]
    fn short_run_produces_results_for_mutex_and_glk() {
        // Only the blocking-capable providers are exercised here: a fully
        // oversubscribed fair-spinlock run is exactly the pathological case
        // the paper reports as a livelock and would make the test too slow.
        let config = MysqlConfig {
            threads: 4,
            workload: MysqlWorkload::Ssd,
            nodes: 2_000,
            duration: Duration::from_millis(60),
        };
        for provider in [
            LockProvider::mutex(),
            LockProvider::glk(),
            LockProvider::Direct(LockKind::Ticket),
        ] {
            let result = run(&provider, &config);
            assert!(result.operations > 0, "{}", provider.label());
            assert_eq!(result.config, "SSD");
        }
    }
}
