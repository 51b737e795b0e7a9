//! The resizable CLHT table built from cache-line buckets.

// The retired-table list is cold resize-path bookkeeping; the table is
// not a modeled protocol, so raw std sync stays (see clippy.toml).
#![allow(clippy::disallowed_types)]

use std::ptr;
use std::sync::{Mutex, PoisonError};

use gls_sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};

use gls_locks::{FutexLock, RawLock};

use crate::bucket::{Bucket, EMPTY_KEY, ENTRIES_PER_BUCKET};

/// Default number of buckets in a fresh table (a power of two), and the
/// least a capacity request gets. Model builds have no floor: every slot
/// read is a scheduling point there, and a model that walks a whole table
/// (the GLS sweep) asks for the smallest one.
const DEFAULT_BUCKETS: usize = if cfg!(gls_model) { 1 } else { 64 };

/// Maximum number of overflow buckets chained to one primary bucket before an
/// insert forces a resize instead.
const MAX_CHAIN: usize = 2;

/// Resize when the element count exceeds this fraction of slot capacity.
const RESIZE_OCCUPANCY: f64 = 0.66;

/// Fibonacci multiplicative hash of an address, with the high half folded
/// down: the low bits of the product depend on nothing but the low bits of
/// the key, which aligned addresses do not have, and the table masks the
/// low bits. (Folding spreads runs of equally spaced addresses — heap
/// objects, array elements — more evenly than the top bits alone do for
/// some spacings, 64 bytes among them.)
#[inline]
fn hash(key: usize) -> usize {
    let product = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (product ^ (product >> 33)) as usize
}

struct Table {
    buckets: Box<[Bucket]>,
    mask: usize,
    /// Set (while holding the resize lock) before this table's contents are
    /// migrated; writers that observe it back off and retry on the new table.
    resizing: AtomicBool,
    /// Number of elements currently stored (maintained under bucket locks).
    elements: AtomicUsize,
}

impl Table {
    fn with_buckets(n: usize) -> Box<Table> {
        debug_assert!(n.is_power_of_two());
        let buckets: Vec<Bucket> = (0..n).map(|_| Bucket::new()).collect();
        Box::new(Table {
            buckets: buckets.into_boxed_slice(),
            mask: n - 1,
            resizing: AtomicBool::new(false),
            elements: AtomicUsize::new(0),
        })
    }

    fn bucket_for(&self, key: usize) -> &Bucket {
        &self.buckets[hash(key) & self.mask]
    }

    /// Walks a bucket chain looking for `key` (wait-free).
    fn find(&self, key: usize) -> Option<usize> {
        let mut bucket = self.bucket_for(key);
        loop {
            if let Some(v) = bucket.find(key) {
                return Some(v);
            }
            let next = bucket.next.load(Ordering::Acquire);
            if next.is_null() {
                return None;
            }
            // SAFETY: overflow buckets are only freed when the table is
            // dropped, and the table outlives every reference handed out.
            bucket = unsafe { &*next };
        }
    }

    /// Slot capacity of this table including overflow buckets is not tracked;
    /// the resize policy uses primary-slot capacity, which is what the paper's
    /// occupancy numbers refer to.
    fn slot_capacity(&self) -> usize {
        self.buckets.len() * ENTRIES_PER_BUCKET
    }
}

impl Drop for Table {
    fn drop(&mut self) {
        // Free the overflow chains.
        for bucket in self.buckets.iter() {
            let mut next = bucket.next.swap(ptr::null_mut(), Ordering::Relaxed);
            while !next.is_null() {
                // SAFETY: overflow buckets were allocated with Box::into_raw
                // and are only reachable from this chain.
                let boxed = unsafe { Box::from_raw(next) };
                next = boxed.next.swap(ptr::null_mut(), Ordering::Relaxed);
            }
        }
    }
}

/// Point-in-time statistics about a [`Clht`] instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClhtStats {
    /// Number of primary buckets.
    pub buckets: usize,
    /// Number of stored key/value pairs.
    pub elements: usize,
    /// Fraction of primary slots in use (the paper reports 60–70% typical).
    pub occupancy: f64,
    /// Number of times the table has grown.
    pub expansions: usize,
}

/// A concurrent `usize → usize` hash table with wait-free lookups.
///
/// See the [crate-level documentation](crate) for the design and an example.
pub struct Clht {
    table: AtomicPtr<Table>,
    resize_lock: FutexLock,
    /// Tables replaced by resizes; kept alive so concurrent wait-free readers
    /// never observe freed memory, reclaimed on drop.
    retired: Mutex<Vec<*mut Table>>,
    expansions: AtomicUsize,
}

// SAFETY: all shared state is accessed through atomics, bucket locks, or the
// retired-list mutex.
unsafe impl Send for Clht {}
unsafe impl Sync for Clht {}

impl Clht {
    /// Creates a table with the default initial capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_BUCKETS * ENTRIES_PER_BUCKET)
    }

    /// Creates a table able to hold roughly `capacity` elements before its
    /// first resize.
    pub fn with_capacity(capacity: usize) -> Self {
        let buckets = (capacity / ENTRIES_PER_BUCKET)
            .next_power_of_two()
            .max(DEFAULT_BUCKETS);
        Self {
            table: AtomicPtr::new(Box::into_raw(Table::with_buckets(buckets))),
            resize_lock: FutexLock::new(),
            retired: Mutex::new(Vec::new()),
            expansions: AtomicUsize::new(0),
        }
    }

    fn current(&self) -> &Table {
        // SAFETY: the current table is only retired (never freed) while the
        // Clht is alive.
        unsafe { &*self.table.load(Ordering::Acquire) }
    }

    /// Wait-free lookup.
    pub fn get(&self, key: usize) -> Option<usize> {
        assert_ne!(key, EMPTY_KEY, "key 0 (NULL) is reserved");
        self.current().find(key)
    }

    /// Returns the value for `key`, inserting `make()` if the key is absent.
    ///
    /// This mirrors the modified `clht_put` used by `gls_lock`: "create and
    /// initialize a new lock object for addr if addr is not found; if addr
    /// already exists, the corresponding lock object is returned" (§4.1).
    /// `make` is called at most once, and only if the key is actually
    /// inserted.
    pub fn put_if_absent(&self, key: usize, make: impl FnOnce() -> usize) -> usize {
        assert_ne!(key, EMPTY_KEY, "key 0 (NULL) is reserved");
        let mut make = Some(make);
        loop {
            let table_ptr = self.table.load(Ordering::Acquire);
            // SAFETY: tables are never freed while the Clht is alive.
            let table = unsafe { &*table_ptr };

            // Fast path: wait-free read-only probe.
            if let Some(existing) = table.find(key) {
                return existing;
            }

            let bucket = table.bucket_for(key);
            bucket.lock();
            // A resize may have started (or finished) while we were
            // acquiring the bucket lock; in either case our update could be
            // lost, so back off and retry on the new table.
            if table.resizing.load(Ordering::SeqCst)
                || self.table.load(Ordering::Acquire) != table_ptr
            {
                bucket.unlock();
                self.wait_for_table_change(table_ptr);
                continue;
            }

            // Re-probe under the lock (another thread may have inserted).
            if let Some(existing) = table.find(key) {
                bucket.unlock();
                return existing;
            }

            // Find a slot in the chain, extending the chain if every existing
            // bucket is full. Insertion always succeeds once `make` has been
            // called (so lazily-created lock objects are never orphaned); a
            // long chain merely schedules a resize afterwards.
            let value = (make.take().expect("make() already consumed"))();
            let mut current = bucket;
            let mut chain_len = 0usize;
            loop {
                if current.insert(key, value) {
                    break;
                }
                let next = current.next.load(Ordering::Acquire);
                if next.is_null() {
                    let fresh = Box::into_raw(Box::new(Bucket::new()));
                    // SAFETY: freshly allocated, exclusively ours until
                    // published on the chain below.
                    unsafe {
                        (*fresh).insert(key, value);
                    }
                    current.next.store(fresh, Ordering::Release);
                    chain_len += 1;
                    break;
                }
                chain_len += 1;
                // SAFETY: overflow buckets live as long as the table.
                current = unsafe { &*next };
            }

            table.elements.fetch_add(1, Ordering::Relaxed);
            bucket.unlock();
            if chain_len >= MAX_CHAIN {
                self.resize(table_ptr);
            } else {
                self.maybe_resize(table_ptr);
            }
            return value;
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&self, key: usize) -> Option<usize> {
        assert_ne!(key, EMPTY_KEY, "key 0 (NULL) is reserved");
        loop {
            let table_ptr = self.table.load(Ordering::Acquire);
            // SAFETY: tables are never freed while the Clht is alive.
            let table = unsafe { &*table_ptr };
            let bucket = table.bucket_for(key);
            bucket.lock();
            if table.resizing.load(Ordering::SeqCst)
                || self.table.load(Ordering::Acquire) != table_ptr
            {
                bucket.unlock();
                self.wait_for_table_change(table_ptr);
                continue;
            }
            let mut current = bucket;
            let removed = loop {
                if let Some(v) = current.remove(key) {
                    break Some(v);
                }
                let next = current.next.load(Ordering::Acquire);
                if next.is_null() {
                    break None;
                }
                // SAFETY: overflow buckets live as long as the table.
                current = unsafe { &*next };
            };
            if removed.is_some() {
                table.elements.fetch_sub(1, Ordering::Relaxed);
            }
            bucket.unlock();
            return removed;
        }
    }

    /// Whether `key` is present (wait-free).
    pub fn contains(&self, key: usize) -> bool {
        self.get(key).is_some()
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.current().elements.load(Ordering::Relaxed)
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `f` for every key/value pair (racy snapshot; concurrent updates
    /// may or may not be observed).
    pub fn for_each(&self, f: impl FnMut(usize, usize)) {
        self.for_each_in_buckets(0, usize::MAX, f);
    }

    /// [`for_each`](Self::for_each) restricted to the chains of up to
    /// `count` primary buckets starting at index `first`, so a caller can
    /// walk the table a slice at a time. Returns the number of primary
    /// buckets of the table walked; a range past it visits nothing. A
    /// resize between two calls moves keys to other indices, so a sliced
    /// walk across one may see a key twice or not at all.
    pub fn for_each_in_buckets(
        &self,
        first: usize,
        count: usize,
        mut f: impl FnMut(usize, usize),
    ) -> usize {
        let table = self.current();
        for bucket in table.buckets.iter().skip(first).take(count) {
            let mut current: &Bucket = bucket;
            loop {
                current.for_each(&mut f);
                let next = current.next.load(Ordering::Acquire);
                if next.is_null() {
                    break;
                }
                // SAFETY: overflow buckets live as long as the table.
                current = unsafe { &*next };
            }
        }
        table.buckets.len()
    }

    /// Current table statistics.
    pub fn stats(&self) -> ClhtStats {
        let table = self.current();
        let elements = table.elements.load(Ordering::Relaxed);
        ClhtStats {
            buckets: table.buckets.len(),
            elements,
            occupancy: elements as f64 / table.slot_capacity() as f64,
            expansions: self.expansions.load(Ordering::Relaxed),
        }
    }

    fn wait_for_table_change(&self, old: *mut Table) {
        let mut wait = gls_locks::SpinWait::new();
        while self.table.load(Ordering::Acquire) == old {
            wait.spin();
        }
    }

    fn maybe_resize(&self, table_ptr: *mut Table) {
        // SAFETY: tables are never freed while the Clht is alive.
        let table = unsafe { &*table_ptr };
        let elements = table.elements.load(Ordering::Relaxed);
        if (elements as f64) > RESIZE_OCCUPANCY * table.slot_capacity() as f64 {
            self.resize(table_ptr);
        }
    }

    /// Doubles the table size, migrating all entries. No-op if `old_ptr` is no
    /// longer the current table (someone else already resized).
    fn resize(&self, old_ptr: *mut Table) {
        self.resize_with(old_ptr, true);
    }

    fn resize_with(&self, old_ptr: *mut Table, set_resizing_flag: bool) {
        self.resize_lock.lock();
        if self.table.load(Ordering::Acquire) != old_ptr {
            self.resize_lock.unlock();
            return;
        }
        // SAFETY: `old_ptr` is the current table and cannot be freed.
        let old = unsafe { &*old_ptr };
        // The flag must go up before any bucket is migrated: a writer that
        // takes its bucket lock after migration but before the new table is
        // published would otherwise insert into the old table and lose the
        // update. (`set_resizing_flag = false` exists only for the model
        // regression test that re-seeds exactly that bug.)
        if set_resizing_flag {
            old.resizing.store(true, Ordering::SeqCst);
        }

        let new_table = Table::with_buckets(old.buckets.len() * 2);
        let mut migrated = 0usize;
        for bucket in old.buckets.iter() {
            // Taking each bucket lock fences out any writer that sneaked in
            // before it observed the `resizing` flag.
            bucket.lock();
            let mut current: &Bucket = bucket;
            loop {
                current.for_each(&mut |k, v| {
                    let target = new_table.bucket_for(k);
                    let mut t: &Bucket = target;
                    loop {
                        if t.insert(k, v) {
                            migrated += 1;
                            return;
                        }
                        let next = t.next.load(Ordering::Relaxed);
                        if next.is_null() {
                            let fresh = Box::into_raw(Box::new(Bucket::new()));
                            // SAFETY: freshly allocated and unpublished.
                            unsafe {
                                (*fresh).insert(k, v);
                            }
                            t.next.store(fresh, Ordering::Relaxed);
                            migrated += 1;
                            return;
                        }
                        // SAFETY: chain buckets of the (unpublished) new table.
                        t = unsafe { &*next };
                    }
                });
                let next = current.next.load(Ordering::Acquire);
                if next.is_null() {
                    break;
                }
                // SAFETY: overflow buckets live as long as the table.
                current = unsafe { &*next };
            }
            bucket.unlock();
        }
        new_table.elements.store(migrated, Ordering::Relaxed);
        let new_ptr = Box::into_raw(new_table);
        self.table.store(new_ptr, Ordering::Release);
        self.expansions.fetch_add(1, Ordering::Relaxed);
        self.retired
            .lock()
            .expect("retired-table list poisoned")
            .push(old_ptr);
        self.resize_lock.unlock();
    }
}

/// Model-checker entry points. The exhaustive explorer needs a table tiny
/// enough that a handful of inserts reaches a resize, and direct control
/// over *when* the resize runs (instead of waiting for the occupancy
/// trigger), so these bypass the production sizing policy. Compiled only
/// under `--cfg gls_model`.
#[cfg(gls_model)]
impl Clht {
    /// Creates a table with exactly `buckets` primary buckets (power of
    /// two), skipping the `DEFAULT_BUCKETS` floor production tables get.
    pub fn model_small(buckets: usize) -> Self {
        assert!(buckets.is_power_of_two());
        Self {
            table: AtomicPtr::new(Box::into_raw(Table::with_buckets(buckets))),
            resize_lock: FutexLock::new(),
            retired: Mutex::new(Vec::new()),
            expansions: AtomicUsize::new(0),
        }
    }

    /// Runs one resize of the current table, exactly as the occupancy
    /// trigger would.
    pub fn model_force_resize(&self) {
        self.resize(self.table.load(Ordering::Acquire));
    }

    /// Re-seeds the historical lost-insert bug: a resize that migrates and
    /// publishes without ever raising the `resizing` flag, so a writer that
    /// grabs its bucket lock mid-migration inserts into the doomed table.
    /// Exists so the model suite can prove the explorer finds that bug.
    pub fn model_resize_without_flag(&self) {
        self.resize_with(self.table.load(Ordering::Acquire), false);
    }
}

impl Default for Clht {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Clht {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Clht")
            .field("buckets", &stats.buckets)
            .field("elements", &stats.elements)
            .field("expansions", &stats.expansions)
            .finish()
    }
}

impl Clht {
    /// Hands over every retired table. The list is append-only, so a panic
    /// while it was locked left nothing half-done: a poisoned list is
    /// drained like any other instead of leaking its tables.
    fn take_retired(&mut self) -> Vec<*mut Table> {
        let retired = self.retired.get_mut();
        std::mem::take(retired.unwrap_or_else(PoisonError::into_inner))
    }
}

impl Drop for Clht {
    fn drop(&mut self) {
        // SAFETY: we have exclusive access; reclaim the live table and every
        // retired table.
        unsafe {
            drop(Box::from_raw(self.table.load(Ordering::Relaxed)));
            for t in self.take_retired() {
                drop(Box::from_raw(t));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    #[test]
    fn get_on_empty_table() {
        let t = Clht::new();
        assert_eq!(t.get(1), None);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn zero_key_is_rejected() {
        Clht::new().get(0);
    }

    #[test]
    fn put_if_absent_inserts_once() {
        let t = Clht::new();
        let mut calls = 0;
        assert_eq!(
            t.put_if_absent(5, || {
                calls += 1;
                500
            }),
            500
        );
        assert_eq!(
            t.put_if_absent(5, || {
                calls += 1;
                999
            }),
            500
        );
        assert_eq!(calls, 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_returns_value_and_clears() {
        let t = Clht::new();
        t.put_if_absent(8, || 80);
        assert_eq!(t.remove(8), Some(80));
        assert_eq!(t.remove(8), None);
        assert_eq!(t.get(8), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn many_inserts_trigger_resize_and_keep_all_entries() {
        let t = Clht::with_capacity(64);
        let n = 20_000usize;
        for k in 1..=n {
            t.put_if_absent(k, || k * 10);
        }
        assert_eq!(t.len(), n);
        assert!(t.stats().expansions > 0, "expected at least one expansion");
        for k in 1..=n {
            assert_eq!(t.get(k), Some(k * 10), "lost key {k}");
        }
    }

    #[test]
    fn poisoned_retired_list_still_gives_up_its_tables() {
        let t = Arc::new(Clht::with_capacity(64));
        for k in 1..=20_000usize {
            t.put_if_absent(k, || k);
        }
        let expansions = t.stats().expansions;
        assert!(expansions > 0, "expected at least one expansion");
        let poisoner = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                let _retired = t.retired.lock().unwrap();
                panic!("poison the retired-table list");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(t.retired.is_poisoned());
        // What `Drop` reclaims: every table an expansion retired.
        let mut t = Arc::try_unwrap(t).unwrap();
        let retired = t.take_retired();
        assert_eq!(retired.len(), expansions);
        for table in retired {
            // SAFETY: handed over exactly once, and `t` is exclusively ours.
            unsafe { drop(Box::from_raw(table)) };
        }
    }

    /// Lock addresses are aligned, so their low bits carry no entropy; the
    /// bucket index must not be taken from the low bits of the hash.
    #[test]
    fn strided_keys_fill_the_table_instead_of_growing_it() {
        for stride in [64usize, 4096] {
            let t = Clht::new();
            for i in 1..=10_000usize {
                t.put_if_absent(i * stride, || i);
            }
            let stats = t.stats();
            assert_eq!(stats.elements, 10_000);
            assert!(
                stats.occupancy >= 0.15,
                "stride {stride}: occupancy {} in {} buckets",
                stats.occupancy,
                stats.buckets
            );
            // 64 → 8 192 buckets is 7 doublings; a chain-triggered
            // doubling or two on top is the hash's normal variance.
            assert!(
                stats.expansions <= 9,
                "stride {stride}: {} expansions",
                stats.expansions
            );
        }
    }

    #[test]
    fn for_each_sees_every_entry() {
        let t = Clht::new();
        for k in 1..=100 {
            t.put_if_absent(k, || k + 1000);
        }
        let mut seen = HashMap::new();
        t.for_each(|k, v| {
            seen.insert(k, v);
        });
        assert_eq!(seen.len(), 100);
        for k in 1..=100 {
            assert_eq!(seen[&k], k + 1000);
        }
    }

    #[test]
    fn bucket_slices_cover_the_table_exactly_once() {
        let t = Clht::new();
        for k in 1..=300 {
            t.put_if_absent(k * 64, || k);
        }
        let mut seen = Vec::new();
        let mut first = 0;
        loop {
            let buckets = t.for_each_in_buckets(first, 7, |k, _| seen.push(k));
            first += 7;
            if first >= buckets {
                break;
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (1..=300).map(|k| k * 64).collect::<Vec<_>>());
        assert_eq!(
            t.for_each_in_buckets(first, 7, |_, _| panic!("past the end")),
            t.stats().buckets
        );
    }

    #[test]
    fn stats_report_reasonable_occupancy() {
        let t = Clht::with_capacity(256);
        for k in 1..=100 {
            t.put_if_absent(k, || k);
        }
        let s = t.stats();
        assert_eq!(s.elements, 100);
        assert!(s.occupancy > 0.0 && s.occupancy <= 1.0);
    }

    #[test]
    fn concurrent_put_if_absent_agrees_on_one_value() {
        // All threads race to insert the same keys; every thread must observe
        // the same winning value per key.
        let t = Arc::new(Clht::new());
        let handles: Vec<_> = (0..8)
            .map(|tid| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    for k in 1..=1_000usize {
                        let v = t.put_if_absent(k, || tid * 1_000_000 + k);
                        mine.push((k, v));
                    }
                    mine
                })
            })
            .collect();
        let all: Vec<Vec<(usize, usize)>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for k in 1..=1_000usize {
            let winner = t.get(k).unwrap();
            for per_thread in &all {
                assert_eq!(per_thread[k - 1].1, winner, "divergent value for key {k}");
            }
        }
        assert_eq!(t.len(), 1_000);
    }

    #[test]
    fn concurrent_inserts_of_disjoint_keys() {
        let t = Arc::new(Clht::with_capacity(64));
        let handles: Vec<_> = (0..8usize)
            .map(|tid| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..2_000usize {
                        let k = tid * 10_000 + i + 1;
                        t.put_if_absent(k, || k * 2);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 16_000);
        for tid in 0..8usize {
            for i in 0..2_000usize {
                let k = tid * 10_000 + i + 1;
                assert_eq!(t.get(k), Some(k * 2));
            }
        }
    }

    #[test]
    fn concurrent_readers_during_resize_never_miss_existing_keys() {
        let t = Arc::new(Clht::with_capacity(64));
        for k in 1..=500usize {
            t.put_if_absent(k, || k);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        for k in 1..=500usize {
                            assert_eq!(t.get(k), Some(k), "pre-existing key {k} went missing");
                        }
                    }
                })
            })
            .collect();
        // Writers push the table through several resizes.
        for k in 501..=20_000usize {
            t.put_if_absent(k, || k);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert!(t.stats().expansions >= 1);
    }

    #[test]
    fn mixed_insert_remove_workload() {
        let t = Arc::new(Clht::new());
        let handles: Vec<_> = (0..6usize)
            .map(|tid| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for round in 0..200usize {
                        for i in 0..50usize {
                            let k = tid * 1_000 + i + 1;
                            t.put_if_absent(k, || k);
                            if round % 2 == 0 {
                                t.remove(k);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Table must still be internally consistent: every present key maps to
        // itself.
        t.for_each(|k, v| assert_eq!(k, v));
    }
}
