//! Cache-line-sized hash-table buckets.

use std::ptr;

use gls_sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use gls_locks::{RawLock, TtasLock};

/// Number of key/value slots per bucket. With 8-byte keys and values, three
/// pairs plus the bucket lock and the overflow pointer fill one cache line,
/// matching the paper's "up to three key-value pairs per cache line".
pub const ENTRIES_PER_BUCKET: usize = 3;

/// Reserved key meaning "empty slot". GLS never maps the NULL address, so
/// zero is safe to reserve (the paper likewise rejects NULL).
pub const EMPTY_KEY: usize = 0;

/// One hash-table bucket: a small spinlock for updates, three key/value
/// slots readable without the lock, and an overflow chain pointer.
#[repr(align(64))]
#[derive(Debug)]
pub struct Bucket {
    /// Serializes updates to this bucket (readers never take it).
    pub lock: TtasLock,
    keys: [AtomicUsize; ENTRIES_PER_BUCKET],
    values: [AtomicUsize; ENTRIES_PER_BUCKET],
    /// Overflow bucket chain (rarely used before a resize is triggered).
    pub next: AtomicPtr<Bucket>,
}

impl Default for Bucket {
    fn default() -> Self {
        Self::new()
    }
}

impl Bucket {
    /// Creates an empty bucket.
    pub fn new() -> Self {
        Self {
            lock: TtasLock::new(),
            keys: Default::default(),
            values: Default::default(),
            next: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Wait-free lookup of `key` within this bucket only (no chain walk).
    pub fn find(&self, key: usize) -> Option<usize> {
        for i in 0..ENTRIES_PER_BUCKET {
            // Publication order is value-then-key with release on the key, so
            // observing the key (acquire) guarantees the value is visible.
            if self.keys[i].load(Ordering::Acquire) == key {
                let value = self.values[i].load(Ordering::Acquire);
                // Re-check the key: a concurrent remove+reinsert of a
                // different key into the same slot would otherwise let us
                // return another key's value.
                if self.keys[i].load(Ordering::Acquire) == key {
                    return Some(value);
                }
            }
        }
        None
    }

    /// Inserts `key → value` into a free slot. Must be called with the bucket
    /// lock held. Returns `false` if the bucket is full.
    pub fn insert(&self, key: usize, value: usize) -> bool {
        for i in 0..ENTRIES_PER_BUCKET {
            if self.keys[i].load(Ordering::Relaxed) == EMPTY_KEY {
                self.values[i].store(value, Ordering::Release);
                self.keys[i].store(key, Ordering::Release);
                return true;
            }
        }
        false
    }

    /// Removes `key` from this bucket. Must be called with the bucket lock
    /// held. Returns the removed value, if the key was present.
    pub fn remove(&self, key: usize) -> Option<usize> {
        for i in 0..ENTRIES_PER_BUCKET {
            if self.keys[i].load(Ordering::Relaxed) == key {
                let value = self.values[i].load(Ordering::Relaxed);
                self.keys[i].store(EMPTY_KEY, Ordering::Release);
                return Some(value);
            }
        }
        None
    }

    /// Number of occupied slots (racy; statistics only).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn occupancy(&self) -> usize {
        (0..ENTRIES_PER_BUCKET)
            .filter(|&i| self.keys[i].load(Ordering::Relaxed) != EMPTY_KEY)
            .count()
    }

    /// Calls `f` for every occupied slot in this bucket (racy snapshot).
    pub fn for_each(&self, f: &mut impl FnMut(usize, usize)) {
        for i in 0..ENTRIES_PER_BUCKET {
            let key = self.keys[i].load(Ordering::Acquire);
            if key != EMPTY_KEY {
                let value = self.values[i].load(Ordering::Acquire);
                if self.keys[i].load(Ordering::Acquire) == key {
                    f(key, value);
                }
            }
        }
    }

    /// Locks this bucket's update lock.
    pub fn lock(&self) {
        self.lock.lock();
    }

    /// Unlocks this bucket's update lock.
    pub fn unlock(&self) {
        self.lock.unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_is_cache_line_sized() {
        assert_eq!(std::mem::align_of::<Bucket>(), 64);
        // Model builds instrument the atomics, which grows them.
        #[cfg(not(gls_model))]
        assert_eq!(std::mem::size_of::<Bucket>(), 64);
    }

    #[test]
    fn insert_find_remove_roundtrip() {
        let b = Bucket::new();
        assert_eq!(b.find(7), None);
        assert!(b.insert(7, 70));
        assert_eq!(b.find(7), Some(70));
        assert_eq!(b.occupancy(), 1);
        assert_eq!(b.remove(7), Some(70));
        assert_eq!(b.find(7), None);
        assert_eq!(b.occupancy(), 0);
    }

    #[test]
    fn bucket_fills_up_after_three_entries() {
        let b = Bucket::new();
        assert!(b.insert(1, 10));
        assert!(b.insert(2, 20));
        assert!(b.insert(3, 30));
        assert!(!b.insert(4, 40));
        assert_eq!(b.occupancy(), ENTRIES_PER_BUCKET);
    }

    #[test]
    fn removal_frees_a_slot_for_reuse() {
        let b = Bucket::new();
        for k in 1..=3 {
            assert!(b.insert(k, k * 10));
        }
        assert_eq!(b.remove(2), Some(20));
        assert!(b.insert(9, 90));
        assert_eq!(b.find(9), Some(90));
        assert_eq!(b.find(1), Some(10));
        assert_eq!(b.find(3), Some(30));
    }

    #[test]
    fn for_each_visits_all_entries() {
        let b = Bucket::new();
        b.insert(1, 10);
        b.insert(2, 20);
        let mut seen = Vec::new();
        b.for_each(&mut |k, v| seen.push((k, v)));
        seen.sort();
        assert_eq!(seen, vec![(1, 10), (2, 20)]);
    }
}
