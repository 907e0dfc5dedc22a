//! The shared [`SortedIndex`] abstraction every index family in this
//! workspace implements: the single-writer [`BpTree`] here in `quit-core`,
//! `quit-concurrent::ConcurrentTree`, and `sware::SaBpTree`.
//!
//! The trait exists so benchmark harnesses, experiments, and applications
//! can be written once against point/batch inserts, lookups, deletes, and
//! lazy range scans, then instantiated per family — no per-family
//! special-casing.
//!
//! Receivers are `&mut self` across the board: the buffered `SaBpTree`
//! flushes on reads, so even `get` needs exclusive access there; the other
//! families simply don't mind. (`ConcurrentTree` additionally offers its
//! inherent `&self` API for genuinely concurrent use.)
//!
//! ```
//! use quit_core::{BpTree, SortedIndex};
//!
//! fn load_and_sum<T: SortedIndex<u64, u64>>(index: &mut T) -> u64 {
//!     index.insert_batch(&[(1, 10), (2, 20), (3, 30)]);
//!     index.range(1..=2).map(|(_, v)| v).sum()
//! }
//!
//! let mut quit = BpTree::quit();
//! assert_eq!(load_and_sum(&mut quit), 30);
//! ```

use crate::iter::RangeScan;
use crate::key::Key;
use crate::stats::StatsSnapshot;
use crate::tree::BpTree;
use std::ops::RangeBounds;

/// A sorted key–value index: point/batch inserts, lookups, deletes, and
/// ordered range scans.
///
/// Keys follow `quit-core`'s [`Key`] contract (`Copy + Ord`); values are
/// `Clone` because implementations differ in whether a scan can borrow
/// (arena trees) or must copy out from under a lock (concurrent trees) —
/// the trait yields owned `(K, V)` pairs so both fit.
pub trait SortedIndex<K: Key, V: Clone> {
    /// Inserts one entry. Duplicate keys are allowed and retained.
    fn insert(&mut self, key: K, value: V);

    /// Inserts a batch of entries, exploiting sorted runs where the
    /// implementation can (§4.2's fast path amortized over whole runs).
    ///
    /// Equivalent to a per-key [`insert`](Self::insert) loop: same final
    /// contents, and at least as many fast-path inserts. Returns the number
    /// of entries inserted (always `entries.len()`).
    fn insert_batch(&mut self, entries: &[(K, V)]) -> usize {
        for &(k, ref v) in entries {
            self.insert(k, v.clone());
        }
        entries.len()
    }

    /// Looks up `key`, returning one matching value if present.
    fn get(&mut self, key: K) -> Option<V>;

    /// Removes one entry matching `key`, returning its value.
    fn delete(&mut self, key: K) -> Option<V>;

    /// Lazy ordered scan over every entry whose key lies within `bounds`
    /// (`a..b`, `a..=b`, `..b`, `a..`, `..`, or explicit `Bound` pairs).
    fn range<R: RangeBounds<K>>(&mut self, bounds: R) -> impl Iterator<Item = (K, V)> + '_;

    /// Materialized range scan that also reports how many leaf nodes the
    /// scan touched — the metric behind the paper's Fig 10c. Families that
    /// don't track leaf accesses report 0.
    fn range_with_stats<R: RangeBounds<K>>(&mut self, bounds: R) -> RangeScan<K, V> {
        RangeScan {
            entries: self.range(bounds).collect(),
            leaf_accesses: 0,
        }
    }

    /// Number of entries currently stored (buffered entries included).
    fn len(&self) -> usize;

    /// True when the index holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time snapshot of everything the family's metrics registry
    /// records — operation counters, latency histograms (when the family
    /// runs at [`crate::MetricsLevel::Histograms`]), and the fast-path
    /// window — in `quit-core`'s [`StatsSnapshot`] vocabulary. Families
    /// track the subset that applies to them and leave the rest 0.
    ///
    /// This is the one observability surface of the trait; export with
    /// [`StatsSnapshot::to_json`].
    fn metrics(&self) -> StatsSnapshot;

    /// Zeroes every counter, histogram, and the fast-path window (e.g.
    /// between the ingest and query phases of an experiment). Contents are
    /// untouched.
    fn reset_metrics(&self);
}

impl<K: Key, V: Clone> SortedIndex<K, V> for BpTree<K, V> {
    fn insert(&mut self, key: K, value: V) {
        BpTree::insert(self, key, value);
    }

    fn insert_batch(&mut self, entries: &[(K, V)]) -> usize {
        BpTree::insert_batch(self, entries)
    }

    fn get(&mut self, key: K) -> Option<V> {
        // Operation boundary: trim paged residency before the read (the
        // `&self` read path itself faults but never evicts).
        self.arena.begin_op();
        self.get_cloned(key)
    }

    fn delete(&mut self, key: K) -> Option<V> {
        BpTree::delete(self, key)
    }

    fn range<R: RangeBounds<K>>(&mut self, bounds: R) -> impl Iterator<Item = (K, V)> + '_ {
        self.arena.begin_op();
        self.range_owned(bounds)
    }

    fn range_with_stats<R: RangeBounds<K>>(&mut self, bounds: R) -> RangeScan<K, V> {
        self.arena.begin_op();
        BpTree::range_with_stats(self, bounds)
    }

    fn len(&self) -> usize {
        BpTree::len(self)
    }

    fn metrics(&self) -> StatsSnapshot {
        self.sync_pool_counters();
        self.metrics_registry().snapshot()
    }

    fn reset_metrics(&self) {
        self.metrics_registry().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::SortedIndex;
    use crate::tree::BpTree;

    fn drive<T: SortedIndex<u64, u64>>(index: &mut T) {
        assert!(index.is_empty());
        index.insert(5, 50);
        assert_eq!(index.insert_batch(&[(1, 10), (2, 20), (3, 30)]), 3);
        assert_eq!(index.len(), 4);
        assert_eq!(index.get(2), Some(20));
        assert_eq!(index.delete(2), Some(20));
        assert_eq!(index.get(2), None);
        let got: Vec<(u64, u64)> = index.range(1..=5).collect();
        assert_eq!(got, vec![(1, 10), (3, 30), (5, 50)]);
        let scan = index.range_with_stats(..);
        assert_eq!(scan.entries.len(), 3);
    }

    #[test]
    fn bptree_satisfies_the_contract() {
        drive(&mut BpTree::<u64, u64>::quit());
        drive(&mut BpTree::<u64, u64>::classic());
    }

    #[test]
    fn trait_metrics_matches_inherent() {
        let mut t = BpTree::<u64, u64>::quit();
        for k in 0..100u64 {
            SortedIndex::insert(&mut t, k, k);
        }
        let snap = SortedIndex::<u64, u64>::metrics(&t);
        assert_eq!(snap.fast_inserts + snap.top_inserts, 100);
        assert_eq!(snap.window_len, 100, "window sees every insert");
        SortedIndex::<u64, u64>::reset_metrics(&t);
        assert_eq!(
            SortedIndex::<u64, u64>::metrics(&t),
            crate::stats::StatsSnapshot::default()
        );
        assert_eq!(t.len(), 100, "reset_metrics leaves contents alone");
    }
}
