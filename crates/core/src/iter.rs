//! Range lookups and full scans (§4.4): a point lookup locates the first
//! entry admitted by the start bound, then the interlinked leaf pointers
//! drive the scan until the end bound rejects an entry.
//!
//! A scan works a leaf at a time: it touches the arena once per leaf,
//! cuts that leaf's keys at the end bound once — and only when its last
//! key is past the end, which also ends the walk — and then yields from
//! the two slices it kept.
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

/// Where the scan ends in `keys`, a leaf's sorted keys from the slot it is
/// read from: `Some(n)` when its last key is past `end`, `n` being the
/// keys `end` admits, and `None` when the walk goes on to the next leaf.
fn end_cut<K: Ord>(keys: &[K], end: &Bound<K>) -> Option<usize> {
    keys.last()
        .is_some_and(|k| !end_admits(k, end))
        .then(|| keys.partition_point(|k| end_admits(k, end)))
}

impl<K: Key, V> BpTree<K, V> {
    /// Lazy iterator over the entries within `bounds`, in key order,
    /// yielding `(key, &value)`.
    ///
    /// Accepts every range shape: `index.range(3..7)`, `range(3..=7)`,
    /// `range(..7)`, `range(3..)`, `range(..)`. The scan descends once,
    /// then walks the leaf chain a leaf at a time: one arena access per
    /// leaf, the end bound cut into the leaf where the scan ends, and the
    /// entries yielded from slices of each leaf. Nothing is allocated and
    /// values are borrowed.
    ///
    /// Leaf accesses are tracked on the iterator ([`RangeIter::leaf_accesses`])
    /// but only [`BpTree::range_with_stats`] folds them into [`crate::Stats`],
    /// since a partially consumed lazy scan would under-report.
    pub fn range<R: RangeBounds<K>>(&self, bounds: R) -> RangeIter<'_, K, V> {
        self.metrics.counters.range_scans.bump_shared();
        self.scan(bounds)
    }

    /// [`range`](Self::range) without counting a range scan.
    fn scan<R: RangeBounds<K>>(&self, bounds: R) -> RangeIter<'_, K, V> {
        let mut iter = RangeIter {
            tree: self,
            keys: [].iter(),
            vals: [].iter(),
            next: None,
            end: copy_bound(bounds.end_bound()),
            leaf_accesses: 0,
        };
        if !(self.is_empty() || bounds_empty(bounds.start_bound(), bounds.end_bound())) {
            let (leaf, pos, leaf_accesses) = self.seek_start(bounds.start_bound());
            iter.leaf_accesses = leaf_accesses;
            iter.load(leaf, pos);
        }
        iter
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

    /// Iterates every `(key, &value)` entry in key order via the leaf
    /// chain: a [`range`](Self::range) over `..` that is not counted as a
    /// range scan.
    pub fn iter(&self) -> RangeIter<'_, K, V> {
        self.scan(..)
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
        if let Some(admitted) = end_cut(&self.keys, &self.end) {
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

/// Lazy iterator over a key range, a leaf at a time. See [`BpTree::range`].
pub struct RangeIter<'a, K, V> {
    tree: &'a BpTree<K, V>,
    /// The current leaf's entries still to yield, cut at the end bound.
    keys: std::slice::Iter<'a, K>,
    vals: std::slice::Iter<'a, V>,
    /// Leaf to load when the slices run out; `None` once the end bound
    /// or the chain's end is reached.
    next: Option<NodeId>,
    end: Bound<K>,
    leaf_accesses: u64,
}

impl<'a, K: Key, V> RangeIter<'a, K, V> {
    /// Leaf nodes touched so far (including the seek to the start bound).
    pub fn leaf_accesses(&self) -> u64 {
        self.leaf_accesses
    }

    /// Takes the entries of leaf `id` from slot `from` on, cut at the end
    /// bound.
    fn load(&mut self, id: NodeId, from: usize) {
        let tree: &'a BpTree<K, V> = self.tree;
        let leaf = tree.arena.get(id).as_leaf();
        let (mut keys, mut vals) = (&leaf.keys[from..], &leaf.vals[from..]);
        self.next = leaf.next;
        if let Some(admitted) = end_cut(keys, &self.end) {
            (keys, vals) = (&keys[..admitted], &vals[..admitted]);
            self.next = None;
        }
        self.keys = keys.iter();
        self.vals = vals.iter();
    }
}

impl<'a, K: Key, V> Iterator for RangeIter<'a, K, V> {
    type Item = (K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let (Some(&k), Some(v)) = (self.keys.next(), self.vals.next()) {
                return Some((k, v));
            }
            let id = self.next?;
            self.leaf_accesses += 1;
            self.load(id, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{bounds_empty, copy_bound, end_admits};
    use crate::arena::NodeId;
    use crate::config::TreeConfig;
    use crate::fastpath::FastPathMode;
    use crate::key::Key;
    use crate::tree::BpTree;
    use std::ops::{Bound, RangeBounds};

    /// The per-entry walk [`super::RangeIter`] replaced, kept as the
    /// reference its leaf-at-a-time walk must match entry for entry and
    /// leaf access for leaf access.
    struct ReferenceIter<'a, K, V> {
        tree: &'a BpTree<K, V>,
        leaf: Option<NodeId>,
        pos: usize,
        end: Bound<K>,
        leaf_accesses: u64,
    }

    impl<'a, K: Key, V> ReferenceIter<'a, K, V> {
        fn new<R: RangeBounds<K>>(tree: &'a BpTree<K, V>, bounds: R) -> Self {
            let end = copy_bound(bounds.end_bound());
            if tree.is_empty() || bounds_empty(bounds.start_bound(), bounds.end_bound()) {
                return ReferenceIter {
                    tree,
                    leaf: None,
                    pos: 0,
                    end,
                    leaf_accesses: 0,
                };
            }
            let (leaf, pos, leaf_accesses) = tree.seek_start(bounds.start_bound());
            ReferenceIter {
                tree,
                leaf: Some(leaf),
                pos,
                end,
                leaf_accesses,
            }
        }
    }

    impl<'a, K: Key, V> Iterator for ReferenceIter<'a, K, V> {
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
        t.stats().reset();
        let keys = t.keys();
        assert_eq!(keys.len(), 300);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(t.iter().count(), 300);
        assert_eq!(t.stats().range_scans.get(), 0, "iter() is not a range scan");
    }

    /// A tree of `leaf_capacity` built by inserts, with short duplicate
    /// runs everywhere and two long ones that span leaves, and its entries
    /// as a sorted model (duplicates in insertion order, as inserts place
    /// them).
    fn duplicate_runs(
        mode: FastPathMode,
        leaf_capacity: usize,
    ) -> (BpTree<u64, u64>, Vec<(u64, u64)>) {
        let mut t = BpTree::with_config(mode, TreeConfig::small(leaf_capacity));
        let mut model = Vec::new();
        for i in 0..90u64 {
            let k = if i % 6 == 0 {
                40
            } else if i % 7 == 0 {
                71
            } else {
                i * 37 % 30 * 3
            };
            t.insert(k, i);
            model.push((k, i));
        }
        model.sort_by_key(|&(k, _)| k);
        (t, model)
    }

    /// Every leaf's first and last key, and one either side of each.
    fn leaf_edges(t: &BpTree<u64, u64>) -> Vec<u64> {
        let mut edges = Vec::new();
        let mut leaf = Some(t.head);
        while let Some(id) = leaf {
            let node = t.arena.get(id).as_leaf();
            for &k in [node.keys.first(), node.keys.last()].into_iter().flatten() {
                edges.extend([k.saturating_sub(1), k, k + 1]);
            }
            leaf = node.next;
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Walks `bounds` with [`BpTree::range`] and with the reference walk
    /// side by side: the same entries, the model's, and after every step
    /// the same leaf-access count.
    fn walk_matches(t: &BpTree<u64, u64>, model: &[(u64, u64)], bounds: (Bound<u64>, Bound<u64>)) {
        let want: Vec<(u64, u64)> = model
            .iter()
            .copied()
            .filter(|(k, _)| bounds.contains(k))
            .collect();
        let mut got = Vec::new();
        let mut iter = t.range(bounds);
        let mut reference = ReferenceIter::new(t, bounds);
        loop {
            let (entry, expected) = (iter.next(), reference.next());
            assert_eq!(entry, expected, "{bounds:?}");
            assert_eq!(
                iter.leaf_accesses(),
                reference.leaf_accesses,
                "{bounds:?} after {} entries",
                got.len()
            );
            let Some((k, &v)) = entry else { break };
            got.push((k, v));
        }
        assert_eq!(got, want, "{bounds:?}");
    }

    #[test]
    fn every_bound_shape_cut_at_every_leaf_edge_matches_the_model() {
        use Bound::{Excluded, Included, Unbounded};
        for leaf_capacity in [4, 8] {
            for mode in [FastPathMode::None, FastPathMode::Pole] {
                let (t, model) = duplicate_runs(mode, leaf_capacity);
                assert!(t.height() > 1, "the runs must span leaves");
                let edges = leaf_edges(&t);
                for &b in &edges {
                    walk_matches(&t, &model, (Unbounded, Excluded(b)));
                    walk_matches(&t, &model, (Unbounded, Included(b)));
                    walk_matches(&t, &model, (Included(b), Unbounded));
                    for &a in edges.iter().filter(|&&a| a <= b + 1) {
                        walk_matches(&t, &model, (Included(a), Excluded(b)));
                        walk_matches(&t, &model, (Included(a), Included(b)));
                        walk_matches(&t, &model, (Excluded(a), Included(b)));
                    }
                }
                let all: Vec<(u64, u64)> = t.iter().map(|(k, &v)| (k, v)).collect();
                assert_eq!(all, model);
            }
        }
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
