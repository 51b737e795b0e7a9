//! Sharded shared-holder tracking for debug mode.
//!
//! Debug mode records every thread holding shared (read) access to an rw
//! entry so the deadlock detector can make a waiting writer wait on *all*
//! readers. A single `Mutex<Vec<ThreadId>>` serializes every read
//! acquisition and release of the entry — under heavy read concurrency the
//! debug mode's whole point (observing realistic interleavings) drowns in
//! that one mutex. [`HolderSet`] shards the records by thread id: a reader
//! only ever touches its own shard, so concurrent readers of one lock no
//! longer contend with each other, only the rare full-set snapshot (the
//! deadlock walk) visits every shard.

// Deadlock-detector bookkeeping stays off the gls_sync facade so the
// model explorer never schedules around it (see clippy.toml).
#![allow(clippy::disallowed_types)]

use std::sync::Mutex;

use gls_runtime::ThreadId;

use super::relock;

/// Number of shards; a power of two so shard selection is a mask. Sixteen
/// shards cover the hardware concurrency of the paper's platforms. The set
/// costs ~0.5 kB when empty (16 mutex-wrapped Vecs), which is why entries
/// allocate it lazily — only on the first debug-mode shared hold.
const SHARDS: usize = 16;

/// A sharded multiset of thread ids (one entry per shared hold).
///
/// `add`/`remove`/`contains` touch exactly one shard — the one owning the
/// thread's id — so concurrent readers of the same lock proceed in
/// parallel. `snapshot` (used by the deadlock detector's owner walks)
/// visits all shards, shard by shard; it is racy by design, like every
/// holder observation the detector makes, and candidate cycles are
/// confirmed later anyway.
#[derive(Debug, Default)]
pub(crate) struct HolderSet {
    shards: [Mutex<Vec<ThreadId>>; SHARDS],
}

impl HolderSet {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn shard(&self, thread: ThreadId) -> &Mutex<Vec<ThreadId>> {
        &self.shards[thread.as_usize() & (SHARDS - 1)]
    }

    /// Records one shared hold by `thread`.
    pub(crate) fn add(&self, thread: ThreadId) {
        relock(self.shard(thread)).push(thread);
    }

    /// Removes one shared-hold record for `thread`; returns whether one
    /// existed.
    pub(crate) fn remove(&self, thread: ThreadId) -> bool {
        let mut shard = relock(self.shard(thread));
        let found = shard.iter().position(|&t| t == thread);
        if let Some(index) = found {
            shard.swap_remove(index);
        }
        found.is_some()
    }

    /// Whether `thread` currently has at least one recorded hold.
    pub(crate) fn contains(&self, thread: ThreadId) -> bool {
        relock(self.shard(thread)).contains(&thread)
    }

    /// Forgets every recorded hold (the entry is being recycled).
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            relock(shard).clear();
        }
    }

    /// All recorded holds, one entry per hold (racy; the deadlock walk
    /// tolerates and re-validates stale observations).
    pub(crate) fn snapshot(&self) -> Vec<ThreadId> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend_from_slice(&relock(shard));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn add_remove_contains_roundtrip() {
        let set = HolderSet::new();
        let me = ThreadId::current();
        assert!(!set.contains(me));
        set.add(me);
        set.add(me);
        assert!(set.contains(me));
        assert_eq!(set.snapshot().len(), 2);
        assert!(set.remove(me));
        assert!(set.remove(me));
        assert!(!set.remove(me), "no hold left to remove");
        assert!(!set.contains(me));
        assert!(set.snapshot().is_empty());
    }

    #[test]
    fn concurrent_readers_balance_and_drain() {
        let set = Arc::new(HolderSet::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let set = Arc::clone(&set);
                std::thread::spawn(move || {
                    let me = ThreadId::current();
                    for _ in 0..10_000 {
                        set.add(me);
                        assert!(set.contains(me));
                        assert!(set.remove(me));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(set.snapshot().is_empty());
    }

    #[test]
    fn a_poisoned_shard_still_records_holders() {
        let set = HolderSet::new();
        let me = ThreadId::current();
        // Poison the shard `me` hashes to: panic while holding it.
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _shard = set.shard(me).lock().unwrap();
                std::panic::resume_unwind(Box::new("poison"));
            });
            assert!(poisoner.join().is_err());
        });
        assert!(set.shard(me).is_poisoned());
        // A dropped record here is a holder the deadlock detector misses
        // and a spurious `WrongOwner` on the matching `read_unlock`.
        set.add(me);
        assert!(set.contains(me));
        assert_eq!(set.snapshot(), vec![me]);
        assert!(set.remove(me));
        assert!(!set.contains(me));
    }

    #[test]
    fn snapshot_sees_holds_of_other_threads() {
        let set = Arc::new(HolderSet::new());
        let ids: Vec<ThreadId> = (0..4)
            .map(|_| {
                let set = Arc::clone(&set);
                std::thread::spawn(move || {
                    let me = ThreadId::current();
                    set.add(me);
                    me
                })
                .join()
                .unwrap()
            })
            .collect();
        let mut snapshot = set.snapshot();
        let mut expected = ids.clone();
        snapshot.sort();
        expected.sort();
        assert_eq!(snapshot, expected);
    }
}
