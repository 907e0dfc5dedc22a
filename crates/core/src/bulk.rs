//! Bulk loading (§5 extends the tree API "to support bulk loading" for the
//! SWARE comparison): build a tree from sorted data, and append a sorted run
//! past the current maximum without per-entry traversals.

use crate::arena::NodeId;
use crate::fastpath::FastPathMode;
use crate::key::Key;
use crate::node::{LeafNode, Node};
use crate::tree::BpTree;

impl<K: Key, V> BpTree<K, V> {
    /// Builds a tree from entries already sorted by key, packing leaves to
    /// `fill` of capacity (`0 < fill <= 1`; classical bulk loads use 1.0,
    /// leave headroom with e.g. 0.9 when trickle inserts will follow).
    pub fn bulk_load(
        mode: FastPathMode,
        config: crate::config::TreeConfig,
        entries: impl IntoIterator<Item = (K, V)>,
        fill: f64,
    ) -> Self
    where
        V: 'static,
    {
        assert!(fill > 0.0 && fill <= 1.0, "fill factor must be in (0, 1]");
        let mut tree = Self::with_config(mode, config);
        let per_leaf = ((tree.config.leaf_capacity as f64 * fill).floor() as usize).max(1);
        let mut prev_key: Option<K> = None;
        for (k, v) in entries {
            assert!(
                prev_key.is_none_or(|p| p <= k),
                "bulk_load requires sorted input"
            );
            prev_key = Some(k);
            tree.append_one(k, v, per_leaf);
        }
        if tree.mode.has_fast_path() {
            tree.arm_fast_path_at_tail();
        }
        tree
    }

    /// Appends a sorted run whose smallest key is `>=` the tree's current
    /// maximum, filling the tail leaf and creating packed leaves after it.
    /// This is the "opportunistic bulk load" primitive SWARE flushes into.
    ///
    /// Returns the number of entries appended. Panics if the run is not
    /// sorted or underruns the current maximum.
    pub fn append_sorted(&mut self, entries: impl IntoIterator<Item = (K, V)>) -> usize {
        let mut appended = 0usize;
        let mut prev = self.max_key();
        let per_leaf = self.config.leaf_capacity;
        for (k, v) in entries {
            assert!(
                prev.is_none_or(|p| p <= k),
                "append_sorted requires keys >= current max, in order"
            );
            prev = Some(k);
            self.append_one(k, v, per_leaf);
            appended += 1;
        }
        if self.mode.has_fast_path() {
            self.arm_fast_path_at_tail();
        }
        appended
    }

    /// Appends one entry at the very end of the index, splitting the tail
    /// "all-left" (the old tail keeps everything; the new tail starts with
    /// this entry) once it reaches `per_leaf` entries.
    fn append_one(&mut self, k: K, v: V, per_leaf: usize) {
        let tail = self.tail;
        // Physical occupancy, not live: appending past trailing slots must
        // never push a gapped leaf beyond its physical capacity.
        let tail_len = self.arena.get(tail).as_leaf().physical_len();
        let target = if tail_len >= per_leaf.min(self.config.leaf_capacity) {
            self.push_new_tail_leaf(k)
        } else {
            tail
        };
        let leaf = self.arena.get_mut(target).as_leaf_mut();
        leaf.keys.push(k);
        leaf.vals.push(v);
        self.len += 1;
    }

    /// Creates an empty leaf after the current tail, registered in the
    /// parent with separator `sep` (the first key it will hold).
    fn push_new_tail_leaf(&mut self, sep: K) -> NodeId {
        let old_tail = self.tail;
        let leaf = LeafNode {
            keys: Vec::with_capacity(self.config.leaf_capacity.min(1024)),
            vals: Vec::with_capacity(self.config.leaf_capacity.min(1024)),
            gaps: crate::layout::GapMap::new(),
            next: None,
            prev: Some(old_tail),
            parent: self.arena.get(old_tail).parent(),
        };
        let new_id = self.arena.alloc(Node::Leaf(leaf));
        self.arena.get_mut(old_tail).as_leaf_mut().next = Some(new_id);
        self.tail = new_id;
        self.insert_into_parent(old_tail, sep, new_id);
        new_id
    }

    /// Inserts a sorted run of entries anywhere in the key space with
    /// amortized traversals: one descent locates the leaf for the run head,
    /// then consecutive entries stream into that leaf (splitting as needed)
    /// until the run crosses the leaf's separator bound, where a new descent
    /// starts. This is the "opportunistic bulk load" SWARE flushes with —
    /// for a near-sorted stream almost every entry lands without its own
    /// root-to-leaf traversal.
    ///
    /// Returns the number of descents performed (the amortized traversal
    /// count). Panics if `run` is not sorted by key.
    pub fn bulk_insert_run(&mut self, run: &[(K, V)]) -> usize
    where
        V: Clone,
    {
        debug_assert!(
            run.windows(2).all(|w| w[0].0 <= w[1].0),
            "run must be sorted"
        );
        let mut descents = 0usize;
        let mut i = 0usize;
        while i < run.len() {
            let (mut leaf_id, _, mut high, _) = self.descend(run[i].0);
            descents += 1;
            // Stream entries into this leaf while they stay under its bound.
            while i < run.len() && high.is_none_or(|h| run[i].0 < h) {
                if self.leaf_len(leaf_id) >= self.config.leaf_capacity {
                    let (right, sep) = self.split_leaf_default(leaf_id);
                    if run[i].0 >= sep {
                        leaf_id = right;
                    } else {
                        high = Some(sep);
                    }
                }
                let (k, v) = &run[i];
                self.insert_entry(leaf_id, *k, v.clone());
                self.len += 1;
                i += 1;
            }
        }
        if self.mode.has_fast_path() {
            self.repair_fast_path_after_bulk();
        }
        descents
    }

    /// Inserts a batch of entries, amortizing the fast path (§4.2) over
    /// whole sorted runs instead of key-by-key.
    ///
    /// The batch is scanned for maximal non-decreasing runs. For each run,
    /// the prefix admitted by the fast-path window `[min, max)` is validated
    /// against the window **once** and appended to the poℓe/tail leaf in a
    /// single `extend`, with one stats update for the whole chunk. When the
    /// leaf overflows, exactly one entry is delegated to the mode's own
    /// [`BpTree::insert`], so its split choreography — IKR-guided variable
    /// split for poℓe, tail advance, etc. — runs at most once per overflow.
    /// Out-of-order residue and entries outside the window fall back to the
    /// ordinary per-key insert.
    ///
    /// Equivalent to a per-key insert loop: identical final contents and
    /// splits, and the same `fast_inserts` count. Returns `entries.len()`.
    pub fn insert_batch(&mut self, entries: &[(K, V)]) -> usize
    where
        V: Clone,
    {
        // Operation boundary (see `insert`): trim paged residency once per
        // batch; per-entry inserts below re-trim as they go.
        self.arena.begin_op();
        let mut i = 0usize;
        while i < entries.len() {
            let mut j = i + 1;
            while j < entries.len() && entries[j].0 >= entries[j - 1].0 {
                j += 1;
            }
            self.insert_sorted_run(&entries[i..j]);
            i = j;
        }
        entries.len()
    }

    /// Inserts one sorted run: covered prefixes go through
    /// [`BpTree::fast_append_run`], everything else per key.
    fn insert_sorted_run(&mut self, run: &[(K, V)])
    where
        V: Clone,
    {
        debug_assert!(run.windows(2).all(|w| w[0].0 <= w[1].0));
        let mut i = 0usize;
        while i < run.len() {
            if self.mode.has_fast_path() && self.fp.covers(run[i].0) {
                i += self.fast_append_run(&run[i..]);
            } else {
                let (k, v) = &run[i];
                self.insert(*k, v.clone());
                i += 1;
            }
        }
    }

    /// Appends as much of `run` as fits the fast-path leaf in one shot.
    /// Caller guarantees `run` is sorted and `fp.covers(run[0].0)`.
    /// Returns how many entries were consumed (always `>= 1`).
    fn fast_append_run(&mut self, run: &[(K, V)]) -> usize
    where
        V: Clone,
    {
        let leaf_id = self.fp_leaf().expect("covers() implies an armed fast path");
        // Validate the run against the window once: everything before the
        // first key `>= max` is admissible.
        let chunk = match self.fp.bounds().1 {
            Some(max) => run.partition_point(|e| e.0 < max),
            None => run.len(),
        };
        debug_assert!(chunk >= 1, "covers(run[0]) implies a non-empty chunk");
        let space = self
            .config
            .leaf_capacity
            .saturating_sub(self.leaf_len(leaf_id));
        if space == 0 {
            // Full leaf: route one entry through the mode's own insert so
            // its split logic runs exactly once for this overflow.
            let (k, v) = &run[0];
            self.insert(*k, v.clone());
            return 1;
        }
        let take = space.min(chunk);
        let in_order = {
            let leaf = self.arena.get(leaf_id).as_leaf();
            // The one-shot `extend` below grows the physical array by `take`;
            // a gapped leaf may lack that physical headroom (its live space
            // partly sits in interior gaps), so it uses the per-entry merge.
            leaf.gaps.is_dense() && leaf.keys.last().is_none_or(|&last| last <= run[0].0)
        };
        if in_order {
            // The whole chunk lands past the leaf's current maximum: one
            // bulk append, no per-entry search.
            let leaf = self.arena.get_mut(leaf_id).as_leaf_mut();
            leaf.keys.extend(run[..take].iter().map(|e| e.0));
            leaf.vals.extend(run[..take].iter().map(|e| e.1.clone()));
        } else {
            // The run interleaves with resident keys: in-leaf merge,
            // still without a root-to-leaf descent.
            for (k, v) in &run[..take] {
                self.insert_entry(leaf_id, *k, v.clone());
            }
        }
        self.len += take;
        self.fp.on_covered_insert();
        crate::stats::Stats::add(&self.metrics.counters.fast_inserts, take as u64);
        // One word-granular window update per leaf chunk keeps the batch
        // path's per-entry cost amortized.
        self.metrics.record_insert_run(true, take as u64);
        take
    }

    /// Recomputes fast-path metadata after a bulk operation may have split
    /// or shifted the nodes it referenced.
    fn repair_fast_path_after_bulk(&mut self) {
        if !self.mode.has_fast_path() {
            return;
        }
        // Conservatively re-arm at the leaf the pointer referenced if it is
        // still a leaf; otherwise at the tail.
        let target = self
            .fp_leaf()
            .filter(|&l| matches!(self.arena.get(l), crate::node::Node::Leaf(_)))
            .unwrap_or(self.tail);
        self.repoint_fast_path_auto(target);
    }

    /// Points the fast path at the tail leaf (used after bulk operations so
    /// subsequent incremental inserts resume fast-path behaviour).
    pub(crate) fn arm_fast_path_at_tail(&mut self) {
        if self.mode.has_fast_path() {
            self.repoint_fast_path_auto(self.tail);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::TreeConfig;
    use crate::fastpath::FastPathMode;
    use crate::tree::BpTree;

    #[test]
    fn bulk_load_roundtrip() {
        let entries = (0..1000u64).map(|k| (k, k * 3));
        let t = BpTree::bulk_load(FastPathMode::None, TreeConfig::small(8), entries, 1.0);
        assert_eq!(t.len(), 1000);
        for k in (0..1000).step_by(31) {
            assert_eq!(t.get(k), Some(&(k * 3)));
        }
        t.check_invariants().unwrap();
        // Fully packed leaves.
        let m = t.memory_report();
        assert!(m.avg_leaf_occupancy > 0.95, "occ {}", m.avg_leaf_occupancy);
    }

    #[test]
    fn bulk_load_partial_fill() {
        let entries = (0..1000u64).map(|k| (k, k));
        let t = BpTree::bulk_load(FastPathMode::None, TreeConfig::small(8), entries, 0.5);
        let m = t.memory_report();
        assert!(m.avg_leaf_occupancy < 0.6);
        t.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn bulk_load_rejects_unsorted() {
        let _ = BpTree::bulk_load(
            FastPathMode::None,
            TreeConfig::small(8),
            vec![(3u64, 0u64), (1, 0)],
            1.0,
        );
    }

    #[test]
    fn append_sorted_extends_tree() {
        let mut t = BpTree::bulk_load(
            FastPathMode::Pole,
            TreeConfig::small(8),
            (0..100u64).map(|k| (k, k)),
            1.0,
        );
        let n = t.append_sorted((100..300u64).map(|k| (k, k)));
        assert_eq!(n, 200);
        assert_eq!(t.len(), 300);
        for k in 0..300 {
            assert!(t.contains_key(k), "key {k}");
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn append_sorted_allows_duplicate_of_max() {
        let mut t = BpTree::bulk_load(
            FastPathMode::None,
            TreeConfig::small(4),
            vec![(5u64, 1u64)],
            1.0,
        );
        t.append_sorted(vec![(5u64, 2u64), (6, 3)]);
        assert_eq!(t.get_all(5).len(), 2);
    }

    #[test]
    #[should_panic(expected = "current max")]
    fn append_sorted_rejects_underrun() {
        let mut t = BpTree::bulk_load(
            FastPathMode::None,
            TreeConfig::small(4),
            vec![(10u64, 0u64)],
            1.0,
        );
        t.append_sorted(vec![(5u64, 0u64)]);
    }

    #[test]
    fn incremental_inserts_after_bulk_load_use_fast_path() {
        let mut t = BpTree::bulk_load(
            FastPathMode::Pole,
            TreeConfig::small(8),
            (0..200u64).map(|k| (k, k)),
            1.0,
        );
        t.stats().reset();
        for k in 200..400u64 {
            t.insert(k, k);
        }
        assert_eq!(t.stats().top_inserts.get(), 0);
        assert_eq!(t.stats().fast_inserts.get(), 200);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_batch_unsorted() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        let mut t: BpTree<u64, u64> =
            BpTree::with_config(crate::fastpath::FastPathMode::Pole, TreeConfig::small(8));
        for k in 0..500u64 {
            t.insert(k * 4, k);
        }
        let mut batch: Vec<(u64, u64)> = (0..500u64).map(|k| (k * 4 + 1, k)).collect();
        batch.shuffle(&mut rng);
        assert_eq!(t.insert_batch(&batch), 500);
        assert_eq!(t.len(), 1000);
        t.check_invariants().unwrap();
        for k in 0..500u64 {
            assert!(t.contains_key(k * 4 + 1));
        }
    }

    #[test]
    fn insert_batch_sorted_is_all_fast() {
        let mut t: BpTree<u64, u64> = BpTree::with_config(FastPathMode::Pole, TreeConfig::small(8));
        t.insert(0, 0);
        t.stats().reset();
        let batch: Vec<(u64, u64)> = (1..=4000u64).map(|k| (k, k * 2)).collect();
        assert_eq!(t.insert_batch(&batch), 4000);
        assert_eq!(t.len(), 4001);
        assert_eq!(
            t.stats().top_inserts.get(),
            0,
            "sorted batch never descends"
        );
        assert_eq!(t.stats().fast_inserts.get(), 4000);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_batch_matches_per_key_loop() {
        // Same final contents AND same fast-insert count as the per-key
        // baseline, on a stream with out-of-order residue.
        let entries: Vec<(u64, u64)> = (0..2000u64)
            .map(|i| if i % 50 == 17 { (i / 2, i) } else { (i * 3, i) })
            .collect();
        let mut batched: BpTree<u64, u64> =
            BpTree::with_config(FastPathMode::Pole, TreeConfig::small(16));
        batched.insert_batch(&entries);
        let mut per_key: BpTree<u64, u64> =
            BpTree::with_config(FastPathMode::Pole, TreeConfig::small(16));
        for &(k, v) in &entries {
            per_key.insert(k, v);
        }
        assert_eq!(batched.len(), per_key.len());
        let a: Vec<(u64, u64)> = batched.iter().map(|(k, v)| (k, *v)).collect();
        let b: Vec<(u64, u64)> = per_key.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(a, b);
        assert!(
            batched.stats().fast_inserts.get() >= per_key.stats().fast_inserts.get(),
            "batched {} < per-key {}",
            batched.stats().fast_inserts.get(),
            per_key.stats().fast_inserts.get()
        );
        batched.check_invariants().unwrap();
    }

    #[test]
    fn insert_batch_empty_and_single() {
        let mut t: BpTree<u64, u64> = BpTree::quit();
        assert_eq!(t.insert_batch(&[]), 0);
        assert_eq!(t.insert_batch(&[(7, 70)]), 1);
        assert_eq!(t.get(7), Some(&70));
    }

    #[test]
    fn bulk_load_empty_input() {
        let t: BpTree<u64, u64> = BpTree::bulk_load(
            FastPathMode::Pole,
            TreeConfig::small(8),
            std::iter::empty(),
            1.0,
        );
        assert!(t.is_empty());
        t.check_invariants().unwrap();
    }
}
