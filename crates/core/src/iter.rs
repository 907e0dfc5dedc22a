//! Range lookups and full scans (§4.4): a point lookup locates the first
//! entry admitted by the start bound, then the interlinked leaf pointers
//! drive the scan until the end bound rejects an entry.
//!
//! The primary API is the lazy [`BpTree::range`], which accepts any
//! `impl RangeBounds<K>` (`a..b`, `a..=b`, `..b`, `a..`, `..`) and borrows
//! values instead of cloning them. [`BpTree::range_with_stats`] materializes
//! the same scan and reports the leaf-access count the paper's Fig 10c
//! measures. Scans that hand out owned values (`range_with_stats`, the
//! `SortedIndex` surface) run on [`OwnedRange`], which on the paged backend
//! reads leaves that are not resident out of their pages in place.

use crate::arena::NodeId;
use crate::key::Key;

use crate::tree::BpTree;
use std::ops::{Bound, RangeBounds};

/// Eagerly materialized range scan, including the leaf-access count the
/// paper's Fig 10c reports. Produced by [`BpTree::range_with_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeScan<K, V> {
    /// Matching `(key, value)` pairs in key order.
    pub entries: Vec<(K, V)>,
    /// Leaf nodes touched by the scan.
    pub leaf_accesses: u64,
}

fn copy_bound<K: Copy>(b: Bound<&K>) -> Bound<K> {
    match b {
        Bound::Included(&k) => Bound::Included(k),
        Bound::Excluded(&k) => Bound::Excluded(k),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// True when no key can satisfy both bounds.
fn bounds_empty<K: Ord>(start: Bound<&K>, end: Bound<&K>) -> bool {
    match (start, end) {
        (Bound::Included(s), Bound::Included(e)) => s > e,
        (Bound::Included(s), Bound::Excluded(e))
        | (Bound::Excluded(s), Bound::Included(e))
        | (Bound::Excluded(s), Bound::Excluded(e)) => s >= e,
        _ => false,
    }
}

fn end_admits<K: Ord>(key: &K, end: &Bound<K>) -> bool {
    match end {
        Bound::Included(e) => key <= e,
        Bound::Excluded(e) => key < e,
        Bound::Unbounded => true,
    }
}

impl<K: Key, V> BpTree<K, V> {
    /// Lazy iterator over the entries within `bounds`, in key order,
    /// yielding `(key, &value)`.
    ///
    /// Accepts every range shape: `index.range(3..7)`, `range(3..=7)`,
    /// `range(..7)`, `range(3..)`, `range(..)`. The scan descends once,
    /// walks the leaf chain, and stops at the first key past the end bound;
    /// nothing is allocated and values are borrowed.
    ///
    /// Leaf accesses are tracked on the iterator ([`RangeIter::leaf_accesses`])
    /// but only [`BpTree::range_with_stats`] folds them into [`crate::Stats`],
    /// since a partially consumed lazy scan would under-report.
    pub fn range<R: RangeBounds<K>>(&self, bounds: R) -> RangeIter<'_, K, V> {
        self.metrics.counters.range_scans.bump_shared();
        let end = copy_bound(bounds.end_bound());
        if self.is_empty() || bounds_empty(bounds.start_bound(), bounds.end_bound()) {
            return RangeIter {
                tree: self,
                leaf: None,
                pos: 0,
                end,
                leaf_accesses: 0,
            };
        }
        let (leaf, pos, leaf_accesses) = self.seek_start(bounds.start_bound());
        RangeIter {
            tree: self,
            leaf: Some(leaf),
            pos,
            end,
            leaf_accesses,
        }
    }

    /// Locates the first leaf/slot admitted by `start`; returns the leaf,
    /// the slot, and the number of leaves touched getting there.
    fn seek_start(&self, start: Bound<&K>) -> (NodeId, usize, u64) {
        match start {
            Bound::Unbounded => (self.head, 0, 1),
            Bound::Included(&s) => {
                let (mut leaf_id, _, _, node_accesses) = self.descend(s);
                self.metrics
                    .counters
                    .lookup_node_accesses
                    .add_shared(node_accesses);
                let mut leaf_accesses = 1u64;
                // A duplicate run equal to `s` may extend into earlier leaves.
                loop {
                    let leaf = self.arena.get(leaf_id).as_leaf();
                    let back = leaf.keys.first().is_some_and(|&k| k >= s)
                        && leaf.prev.is_some_and(|p| {
                            self.arena
                                .get(p)
                                .as_leaf()
                                .keys
                                .last()
                                .is_some_and(|&k| k >= s)
                        });
                    if !back {
                        break;
                    }
                    leaf_id = leaf.prev.expect("checked above");
                    leaf_accesses += 1;
                }
                let leaf = self.arena.get(leaf_id).as_leaf();
                let pos = crate::layout::guided_lower_bound(&leaf.keys, s);
                (leaf_id, pos, leaf_accesses)
            }
            Bound::Excluded(&s) => {
                // First entry strictly greater than `s`: right-biased descent
                // lands on the last leaf that can hold `s`, so no duplicate
                // back-walk is needed; if the whole leaf is `<= s` the scan
                // naturally rolls into the next leaf.
                let (leaf_id, _, _, node_accesses) = self.descend(s);
                self.metrics
                    .counters
                    .lookup_node_accesses
                    .add_shared(node_accesses);
                let leaf = self.arena.get(leaf_id).as_leaf();
                let keys = &leaf.keys;
                let pos = crate::layout::guided_partition_point_by(
                    keys.len(),
                    |i| keys[i],
                    s,
                    |k| k <= s,
                );
                (leaf_id, pos, 1)
            }
        }
    }

    /// Number of entries within `bounds` without materializing values.
    pub fn range_count<R: RangeBounds<K>>(&self, bounds: R) -> usize {
        self.range(bounds).count()
    }

    /// Iterates every `(key, &value)` entry in key order via the leaf chain.
    pub fn iter(&self) -> TreeIter<'_, K, V> {
        TreeIter {
            tree: self,
            leaf: Some(self.head),
            pos: 0,
        }
    }

    /// All keys in order (mainly for tests and examples).
    pub fn keys(&self) -> Vec<K> {
        self.iter().map(|(k, _)| k).collect()
    }
}

impl<K: Key, V: Clone> BpTree<K, V> {
    /// Materialized range scan with the leaf-access count the paper's
    /// Fig 10c reports. Also accumulates `range_leaf_accesses` in [`crate::Stats`].
    pub fn range_with_stats<R: RangeBounds<K>>(&self, bounds: R) -> RangeScan<K, V> {
        let t0 = self.metrics.op_timer();
        let mut iter = self.range_owned(bounds);
        let entries = iter.by_ref().collect();
        let leaf_accesses = iter.leaf_accesses();
        self.metrics
            .counters
            .range_leaf_accesses
            .add_shared(leaf_accesses);
        self.metrics.record_range_latency(t0);
        RangeScan {
            entries,
            leaf_accesses,
        }
    }

    /// [`range`](Self::range) yielding owned `(key, value)` pairs: the
    /// scan behind `range_with_stats` and the `SortedIndex` surface. The
    /// backend is observed once, here: the arena keeps [`RangeIter`]; a
    /// paged tree walks the chain one leaf at a time into a reused buffer
    /// ([`PagedRangeIter`]), so residency stays where the seek left it.
    pub(crate) fn range_owned<R: RangeBounds<K>>(&self, bounds: R) -> OwnedRange<'_, K, V> {
        if !self.arena.is_paged() {
            return OwnedRange::Arena(self.range(bounds));
        }
        self.metrics.counters.range_scans.bump_shared();
        let mut iter = PagedRangeIter {
            tree: self,
            keys: Vec::new(),
            vals: Vec::new(),
            at: 0,
            next: None,
            end: copy_bound(bounds.end_bound()),
            leaf_accesses: 0,
        };
        if !(self.is_empty() || bounds_empty(bounds.start_bound(), bounds.end_bound())) {
            let (leaf, pos, leaf_accesses) = self.seek_start(bounds.start_bound());
            iter.leaf_accesses = leaf_accesses;
            iter.fill(leaf, pos);
        }
        OwnedRange::Paged(iter)
    }
}

/// Owned-item range scan: [`RangeIter`] plus a clone on the arena, the
/// leaf-at-a-time [`PagedRangeIter`] on a paged tree. See
/// [`BpTree::range_owned`].
pub(crate) enum OwnedRange<'a, K, V> {
    Arena(RangeIter<'a, K, V>),
    Paged(PagedRangeIter<'a, K, V>),
}

impl<K: Key, V: Clone> OwnedRange<'_, K, V> {
    /// Leaf nodes touched so far (including the seek to the start bound).
    pub(crate) fn leaf_accesses(&self) -> u64 {
        match self {
            OwnedRange::Arena(it) => it.leaf_accesses(),
            OwnedRange::Paged(it) => it.leaf_accesses,
        }
    }
}

impl<K: Key, V: Clone> Iterator for OwnedRange<'_, K, V> {
    type Item = (K, V);

    #[inline]
    fn next(&mut self) -> Option<(K, V)> {
        match self {
            OwnedRange::Arena(it) => it.next().map(|(k, v)| (k, v.clone())),
            OwnedRange::Paged(it) => it.next(),
        }
    }
}

/// Range scan over a paged tree, one leaf at a time: the live entries of
/// the current leaf sit in a buffer reused from leaf to leaf, copied out of
/// the decoded node when the leaf is resident and straight out of its page
/// ([`crate::paged::LeafPage`]) when it is not. No leaf is faulted in past
/// the seek, so a scan of any length leaves residency within the pool
/// budget. `leaf_accesses` counts what [`RangeIter`] counts.
pub(crate) struct PagedRangeIter<'a, K, V> {
    tree: &'a BpTree<K, V>,
    /// Live entries of the current leaf that the end bound admits.
    keys: Vec<K>,
    vals: Vec<V>,
    /// Next buffered entry to yield.
    at: usize,
    /// Leaf to load when the buffer runs out; `None` once the end bound
    /// or the chain's end is reached.
    next: Option<NodeId>,
    end: Bound<K>,
    leaf_accesses: u64,
}

impl<K: Key, V: Clone> PagedRangeIter<'_, K, V> {
    /// Buffers the entries of leaf `id` from slot `from` on,
    /// cut at the end bound.
    fn fill(&mut self, id: NodeId, from: usize) {
        let arena = &self.tree.arena;
        self.keys.clear();
        self.vals.clear();
        self.at = 0;
        let cold = arena.read_cold_leaf(id, |page| {
            page.copy_from(from, &mut self.keys, &mut self.vals);
            Some(page.next())
        });
        self.next = cold.unwrap_or_else(|| {
            let leaf = arena.get(id).as_leaf();
            self.keys.extend_from_slice(&leaf.keys[from..]);
            self.vals.extend_from_slice(&leaf.vals[from..]);
            leaf.next
        });
        if self.keys.last().is_some_and(|k| !end_admits(k, &self.end)) {
            let admitted = self.keys.partition_point(|k| end_admits(k, &self.end));
            self.keys.truncate(admitted);
            self.vals.truncate(admitted);
            self.next = None;
        }
    }
}

impl<K: Key, V: Clone> Iterator for PagedRangeIter<'_, K, V> {
    type Item = (K, V);

    #[inline]
    fn next(&mut self) -> Option<(K, V)> {
        loop {
            if let Some(&k) = self.keys.get(self.at) {
                let item = (k, self.vals[self.at].clone());
                self.at += 1;
                return Some(item);
            }
            let id = self.next?;
            self.leaf_accesses += 1;
            self.fill(id, 0);
        }
    }
}

/// Lazy iterator over a key range. See [`BpTree::range`].
pub struct RangeIter<'a, K, V> {
    tree: &'a BpTree<K, V>,
    leaf: Option<NodeId>,
    pos: usize,
    end: Bound<K>,
    leaf_accesses: u64,
}

impl<K: Key, V> RangeIter<'_, K, V> {
    /// Leaf nodes touched so far (including the seek to the start bound).
    pub fn leaf_accesses(&self) -> u64 {
        self.leaf_accesses
    }
}

impl<'a, K: Key, V> Iterator for RangeIter<'a, K, V> {
    type Item = (K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let id = self.leaf?;
            let leaf = self.tree.arena.get(id).as_leaf();
            if let Some(&k) = leaf.keys.get(self.pos) {
                if !end_admits(&k, &self.end) {
                    self.leaf = None;
                    return None;
                }
                let item = (k, &leaf.vals[self.pos]);
                self.pos += 1;
                return Some(item);
            }
            self.leaf = leaf.next;
            if self.leaf.is_some() {
                self.leaf_accesses += 1;
            }
            self.pos = 0;
        }
    }
}

/// Ordered iterator over the whole index. See [`BpTree::iter`].
pub struct TreeIter<'a, K, V> {
    tree: &'a BpTree<K, V>,
    leaf: Option<NodeId>,
    pos: usize,
}

impl<'a, K: Key, V> Iterator for TreeIter<'a, K, V> {
    type Item = (K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let id = self.leaf?;
            let leaf = self.tree.arena.get(id).as_leaf();
            if let Some(&k) = leaf.keys.get(self.pos) {
                let item = (k, &leaf.vals[self.pos]);
                self.pos += 1;
                return Some(item);
            }
            self.leaf = leaf.next;
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::TreeConfig;
    use crate::fastpath::FastPathMode;
    use crate::tree::BpTree;

    fn filled(mode: FastPathMode, n: u64) -> BpTree<u64, u64> {
        let mut t = BpTree::with_config(mode, TreeConfig::small(8));
        for k in 0..n {
            t.insert(k, k * 10);
        }
        t
    }

    #[test]
    fn range_middle() {
        let t = filled(FastPathMode::None, 100);
        let r = t.range_with_stats(10..20);
        assert_eq!(r.entries.len(), 10);
        assert_eq!(r.entries[0], (10, 100));
        assert_eq!(r.entries[9], (19, 190));
        assert!(r.leaf_accesses >= 2);
    }

    #[test]
    fn range_empty_and_degenerate() {
        let t = filled(FastPathMode::None, 100);
        use std::ops::Bound;
        let reversed = (Bound::Included(20u64), Bound::Excluded(10u64));
        assert_eq!(t.range(reversed).count(), 0);
        assert_eq!(t.range(15..15).count(), 0);
        assert_eq!(t.range(1000..2000).count(), 0);
        let empty: BpTree<u64, u64> = BpTree::with_config(FastPathMode::None, TreeConfig::small(8));
        assert_eq!(empty.range(0..10).count(), 0);
        assert_eq!(empty.range(..).count(), 0);
    }

    #[test]
    fn range_full_span() {
        let t = filled(FastPathMode::Pole, 500);
        let r = t.range_with_stats(0..500);
        assert_eq!(r.entries.len(), 500);
        for (i, (k, v)) in r.entries.iter().enumerate() {
            assert_eq!(*k, i as u64);
            assert_eq!(*v, i as u64 * 10);
        }
        assert_eq!(t.range(..).count(), 500);
    }

    #[test]
    fn all_six_bound_shapes() {
        let t = filled(FastPathMode::Pole, 100);
        let keys =
            |it: crate::iter::RangeIter<'_, u64, u64>| -> Vec<u64> { it.map(|(k, _)| k).collect() };
        assert_eq!(keys(t.range(10..13)), vec![10, 11, 12]);
        assert_eq!(keys(t.range(10..=13)), vec![10, 11, 12, 13]);
        assert_eq!(keys(t.range(..3)), vec![0, 1, 2]);
        assert_eq!(keys(t.range(..=3)), vec![0, 1, 2, 3]);
        assert_eq!(keys(t.range(97..)), vec![97, 98, 99]);
        assert_eq!(t.range(..).count(), 100);
        use std::ops::Bound;
        // Excluded start via explicit bounds.
        let got: Vec<u64> = t
            .range((Bound::Excluded(10u64), Bound::Included(13u64)))
            .map(|(k, _)| k)
            .collect();
        assert_eq!(got, vec![11, 12, 13]);
    }

    #[test]
    fn range_spanning_duplicates() {
        let mut t: BpTree<u64, u64> = BpTree::with_config(FastPathMode::None, TreeConfig::small(4));
        for i in 0..20u64 {
            t.insert(5, i);
        }
        t.insert(1, 0);
        t.insert(9, 0);
        assert_eq!(t.range(5..6).count(), 20, "all duplicates must be returned");
        assert_eq!(t.range(0..10).count(), 22);
        // Excluded start skips the entire duplicate run, across leaves.
        use std::ops::Bound;
        let past: Vec<u64> = t
            .range((Bound::Excluded(5u64), Bound::Unbounded))
            .map(|(k, _)| k)
            .collect();
        assert_eq!(past, vec![9]);
    }

    #[test]
    fn quit_range_touches_fewer_leaves_than_classic() {
        // Fig 10c's mechanism: QuIT packs sorted data tighter, so a fixed
        // selectivity touches fewer leaves.
        let quit = filled(FastPathMode::Pole, 4000);
        let classic = filled(FastPathMode::None, 4000);
        let rq = quit.range_with_stats(1000..2000);
        let rc = classic.range_with_stats(1000..2000);
        assert_eq!(rq.entries, rc.entries);
        assert!(
            rq.leaf_accesses < rc.leaf_accesses,
            "QuIT {} vs classic {}",
            rq.leaf_accesses,
            rc.leaf_accesses
        );
    }

    #[test]
    fn iter_visits_everything_in_order() {
        let t = filled(FastPathMode::Lil, 300);
        let keys = t.keys();
        assert_eq!(keys.len(), 300);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(t.iter().count(), 300);
    }

    #[test]
    fn lazy_range_matches_eager() {
        let t = filled(FastPathMode::Pole, 1000);
        let lazy: Vec<(u64, u64)> = t.range(100..500).map(|(k, v)| (k, *v)).collect();
        let eager = t.range_with_stats(100..500).entries;
        assert_eq!(lazy, eager);
        assert_eq!(t.range(5..5).count(), 0);
        assert_eq!(t.range(2000..3000).count(), 0);
    }

    #[test]
    fn range_is_lazy_over_duplicates() {
        let mut t: BpTree<u64, u64> = BpTree::with_config(FastPathMode::None, TreeConfig::small(4));
        for i in 0..30u64 {
            t.insert(7, i);
        }
        t.insert(1, 0);
        assert_eq!(t.range(7..8).count(), 30);
        // take() stops early without scanning the rest.
        assert_eq!(t.range(0..100).take(3).count(), 3);
    }

    #[test]
    fn range_stats_accumulate() {
        let t = filled(FastPathMode::None, 100);
        t.stats().reset();
        let _ = t.range_with_stats(0..50);
        let _ = t.range_with_stats(50..100);
        assert_eq!(t.stats().range_scans.get(), 2);
        assert!(t.stats().range_leaf_accesses.get() > 0);
    }

    #[test]
    fn range_count_bound_shapes() {
        let t = filled(FastPathMode::None, 50);
        assert_eq!(t.range_count(0..50), 50);
        assert_eq!(t.range_count(0..=49), 50);
        assert_eq!(t.range_count(10..20), 10);
        assert_eq!(t.range_count(..), 50);
    }
}
