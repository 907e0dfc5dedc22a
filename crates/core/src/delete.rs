//! Deletes (§4.4): point-lookup the key, remove one entry, and rebalance
//! with classical borrow-then-merge — except on the poℓe node, which is
//! rebalanced lazily (it is about to receive fast inserts anyway). Deleting
//! the last entry of poℓe resets the fast path to `poℓe_prev`.

use crate::arena::NodeId;
use crate::fastpath::FastPathMode;
use crate::key::Key;
use crate::node::Node;
use crate::stats::Stats;
use crate::tree::BpTree;

// Removal requires `V: Clone` under the gapped layout: freed slots become
// gap fillers that copy their live right neighbour (see `crate::layout`).
impl<K: Key, V: Clone> BpTree<K, V> {
    /// Removes one entry with key `key` (the left-most when duplicates
    /// exist) and returns its value, or `None` when absent.
    pub fn delete(&mut self, key: K) -> Option<V> {
        // Operation boundary (see `insert`): trim paged residency.
        self.arena.begin_op();
        let (leaf_id, pos) = self.locate(key)?;
        // `locate` stops in the routed leaf, which for a duplicate run
        // spanning several leaves is a split-position-dependent instance.
        // Step to the run head so the removed entry (and its value) depends
        // only on the tree's contents, never on node boundaries.
        let (leaf_id, pos) = self.run_head(leaf_id, pos, key);
        Stats::bump(&self.metrics.counters.deletes);
        let layout = self.config.node_layout;
        let (value, now_len) = {
            let leaf = self.arena.get_mut(leaf_id).as_leaf_mut();
            let v = crate::layout::remove_at(
                layout,
                &mut leaf.keys,
                &mut leaf.vals,
                &mut leaf.gaps,
                pos,
                usize::MAX,
            );
            (v, leaf.len())
        };
        self.len -= 1;

        let is_pole_leaf = self.mode.is_pole() && self.fp_leaf() == Some(leaf_id);
        if is_pole_leaf {
            if now_len == 0 {
                // §4.4: the only key of poℓe was deleted — reset to poℓe_prev.
                self.remove_empty_leaf(leaf_id);
                match self.fp.prev().copied() {
                    Some(prev) if self.node_is_live_leaf(prev) => {
                        self.repoint_fast_path_auto(prev);
                    }
                    _ => self.repoint_fast_path_auto(self.head),
                }
            }
            // Otherwise: no eager rebalance of the poℓe node.
            return Some(value);
        }

        if now_len == 0 && self.height == 1 {
            // Empty root leaf: nothing to rebalance.
            return Some(value);
        }
        if now_len < self.leaf_min_occupancy() && leaf_id != self.root {
            self.rebalance_leaf(leaf_id);
        }
        Some(value)
    }

    /// Removes every entry with a key in `[start, end)`; returns how many
    /// were removed. Rebalancing runs per removal, so the index remains
    /// query-ready throughout (retention workloads interleave scans).
    pub fn delete_range(&mut self, start: K, end: K) -> usize {
        let mut removed = 0usize;
        if start >= end {
            return 0;
        }
        // Re-locate after each removal: node boundaries shift under
        // rebalancing, so cached positions would dangle.
        loop {
            let Some((k, _)) = self.ceiling_key_below(start, end) else {
                return removed;
            };
            let took = self.delete(k).is_some();
            debug_assert!(took, "ceiling reported a key that delete missed");
            removed += 1;
        }
    }
}

impl<K: Key, V> BpTree<K, V> {
    /// Smallest key in `[start, end)`, if any (helper for `delete_range`).
    fn ceiling_key_below(&self, start: K, end: K) -> Option<(K, ())> {
        let (k, _) = self.ceiling(start)?;
        (k < end).then_some((k, ()))
    }

    #[inline]
    fn leaf_min_occupancy(&self) -> usize {
        self.config.leaf_capacity / 2
    }

    #[inline]
    fn internal_min_keys(&self) -> usize {
        self.config.internal_capacity / 2
    }

    fn node_is_live_leaf(&self, id: NodeId) -> bool {
        // The arena recycles slots; a stale id could point at anything, but
        // within one delete operation prev_id is only invalidated by the
        // merges we perform ourselves, which clear it. This check is a
        // last-resort guard.
        matches!(self.arena.get(id), Node::Leaf(_))
    }

    /// Separator bounds `[low, high)` the tree guarantees for `leaf_id`,
    /// derived from ancestor separators.
    pub(crate) fn leaf_bounds(&self, leaf_id: NodeId) -> (Option<K>, Option<K>) {
        let mut low = None;
        let mut high = None;
        let mut child = leaf_id;
        while let Some(pid) = self.arena.get(child).parent() {
            let p = self.arena.get(pid).as_internal();
            let idx = p.child_index(child);
            if low.is_none() && idx > 0 {
                low = Some(p.keys[idx - 1]);
            }
            if high.is_none() && idx < p.keys.len() {
                high = Some(p.keys[idx]);
            }
            if low.is_some() && high.is_some() {
                break;
            }
            child = pid;
        }
        (low, high)
    }

    /// Re-points the fast path at `leaf`, computing bounds from the tree
    /// itself.
    pub(crate) fn repoint_fast_path_auto(&mut self, leaf: NodeId) {
        let (low, high) = self.leaf_bounds(leaf);
        self.repoint_fast_path(leaf, low, high);
    }

    /// Repairs whatever fast-path metadata referenced nodes touched by a
    /// structural delete (`survivor` absorbs `removed` on merges; on borrows
    /// `removed` is `None` and both siblings survive with new bounds).
    fn repair_fast_path(&mut self, survivor: NodeId, removed: Option<NodeId>) {
        let affected =
            |id: Option<NodeId>| id == Some(survivor) || (removed.is_some() && id == removed);
        match self.mode {
            FastPathMode::None => {}
            FastPathMode::Tail => {
                if affected(self.fp_leaf()) || self.fp_leaf().is_none() {
                    self.repoint_fast_path_auto(self.tail);
                }
            }
            FastPathMode::Lil => {
                if affected(self.fp_leaf()) {
                    self.repoint_fast_path_auto(survivor);
                }
            }
            FastPathMode::Pole => {
                if affected(self.fp_leaf()) {
                    self.repoint_fast_path_auto(survivor);
                } else if affected(self.fp.prev().copied()) {
                    // Recompute prev from the poℓe's live chain predecessor.
                    let prev = self.fp_leaf().and_then(|pole| self.chain_prev(pole));
                    self.fp.set_prev(prev);
                }
            }
        }
    }

    /// Unlinks an empty leaf from the chain and its parent, then fixes the
    /// parent chain. Never called on the root.
    fn remove_empty_leaf(&mut self, leaf_id: NodeId) {
        if leaf_id == self.root {
            return; // single empty root leaf stays
        }
        let (prev, next, parent) = {
            let l = self.arena.get(leaf_id).as_leaf();
            (l.prev, l.next, l.parent)
        };
        if let Some(p) = prev {
            self.arena.get_mut(p).as_leaf_mut().next = next;
        }
        if let Some(n) = next {
            self.arena.get_mut(n).as_leaf_mut().prev = prev;
        }
        if self.head == leaf_id {
            self.head = next.expect("non-root leaf must have a neighbour");
        }
        if self.tail == leaf_id {
            self.tail = prev.expect("non-root leaf must have a neighbour");
        }
        self.fp.forget(&leaf_id);
        let pid = parent.expect("non-root leaf has a parent");
        self.remove_child(pid, leaf_id);
        self.arena.free(leaf_id);
    }

    /// Removes `child` (and its adjoining separator) from internal node
    /// `pid`, rebalancing upward as needed.
    fn remove_child(&mut self, pid: NodeId, child: NodeId) {
        {
            let p = self.arena.get_mut(pid).as_internal_mut();
            let idx = p.child_index(child);
            p.children.remove(idx);
            if idx > 0 {
                p.keys.remove(idx - 1);
            } else if !p.keys.is_empty() {
                p.keys.remove(0);
            }
        }
        self.shrink_or_rebalance_internal(pid);
    }

    fn shrink_or_rebalance_internal(&mut self, pid: NodeId) {
        if pid == self.root {
            let root = self.arena.get(pid).as_internal();
            if root.children.len() == 1 {
                let only = root.children[0];
                self.arena.get_mut(only).set_parent(None);
                self.arena.free(pid);
                self.root = only;
                self.height -= 1;
            }
            return;
        }
        if self.arena.get(pid).as_internal().len() < self.internal_min_keys() {
            self.rebalance_internal(pid);
        }
    }

    // ------------------------------------------------------------------
    // Leaf rebalancing: borrow from a sibling, else merge.
    // ------------------------------------------------------------------

    /// Drops a leaf's gap fillers in place (no-op for dense leaves), so the
    /// classical borrow/merge choreography can move physical slots freely.
    pub(crate) fn compact_leaf(&mut self, id: NodeId) {
        let leaf = self.arena.get_mut(id).as_leaf_mut();
        crate::layout::compact(&mut leaf.keys, &mut leaf.vals, &mut leaf.gaps);
    }

    fn rebalance_leaf(&mut self, leaf_id: NodeId) {
        let parent = match self.arena.get(leaf_id).parent() {
            Some(p) => p,
            None => return, // root leaf: no invariant to restore
        };
        // Borrow/merge reason about physical slots; compacting first makes
        // live == physical for every leaf involved (cheap no-op when dense).
        self.compact_leaf(leaf_id);
        let idx = self.arena.get(parent).as_internal().child_index(leaf_id);
        let siblings = self.arena.get(parent).as_internal().children.clone();

        // Never disturb the poℓe node by borrowing *from* it if another
        // sibling can help; it is being packed by the fast path.
        let left = (idx > 0).then(|| siblings[idx - 1]);
        let right = (idx + 1 < siblings.len()).then(|| siblings[idx + 1]);

        let can_donate = |id: Option<NodeId>| -> bool {
            id.is_some_and(|s| self.arena.get(s).as_leaf().len() > self.leaf_min_occupancy())
        };
        let prefer_non_pole =
            |a: Option<NodeId>, b: Option<NodeId>| -> (Option<NodeId>, Option<NodeId>) {
                if self.mode.is_pole() && a == self.fp_leaf() {
                    (b, a)
                } else {
                    (a, b)
                }
            };

        let (first, second) = prefer_non_pole(left, right);
        for donor in [first, second].into_iter().flatten() {
            if can_donate(Some(donor)) {
                self.compact_leaf(donor);
                self.borrow_leaf(parent, leaf_id, donor);
                return;
            }
        }
        // No donor: merge with a sibling (prefer non-poℓe partner).
        let (first, second) = prefer_non_pole(left, right);
        let partner = first.or(second).expect("non-root node has a sibling");
        self.compact_leaf(partner);
        if Some(partner) == left {
            self.merge_leaves(parent, partner, leaf_id);
        } else {
            self.merge_leaves(parent, leaf_id, partner);
        }
    }

    /// Moves one entry from `donor` into `leaf` and refreshes the separator.
    fn borrow_leaf(&mut self, parent: NodeId, leaf: NodeId, donor: NodeId) {
        Stats::bump(&self.metrics.counters.leaf_borrows);
        let donor_is_left = {
            let p = self.arena.get(parent).as_internal();
            p.child_index(donor) < p.child_index(leaf)
        };
        if donor_is_left {
            // donor's last entry becomes leaf's first; separator = that key.
            let (d, l) = self.arena.get2_mut(donor, leaf);
            let d = d.as_leaf_mut();
            let l = l.as_leaf_mut();
            let k = d.keys.pop().expect("donor non-empty");
            let v = d.vals.pop().expect("donor non-empty");
            l.keys.insert(0, k);
            l.vals.insert(0, v);
            self.update_lower_separator(leaf, k);
            self.fp.on_separator_moved(&donor, &leaf, k);
        } else {
            // donor's first entry becomes leaf's last; donor's bound rises.
            let (d, l) = self.arena.get2_mut(donor, leaf);
            let d = d.as_leaf_mut();
            let l = l.as_leaf_mut();
            let k = d.keys.remove(0);
            let v = d.vals.remove(0);
            let new_donor_min = d.keys[0];
            l.keys.push(k);
            l.vals.push(v);
            self.update_lower_separator(donor, new_donor_min);
            self.fp.on_separator_moved(&leaf, &donor, new_donor_min);
        }
    }

    /// Merges `right` into `left` (chain-adjacent, same parent), freeing
    /// `right` and removing its separator from the parent.
    fn merge_leaves(&mut self, parent: NodeId, left: NodeId, right: NodeId) {
        Stats::bump(&self.metrics.counters.leaf_merges);
        let next = {
            let (l, r) = self.arena.get2_mut(left, right);
            let l = l.as_leaf_mut();
            let r = r.as_leaf_mut();
            l.keys.append(&mut r.keys);
            l.vals.append(&mut r.vals);
            let next = r.next;
            l.next = next;
            next
        };
        if let Some(n) = next {
            self.arena.get_mut(n).as_leaf_mut().prev = Some(left);
        }
        if self.tail == right {
            self.tail = left;
        }
        self.repair_fast_path(left, Some(right));
        {
            let p = self.arena.get_mut(parent).as_internal_mut();
            let ridx = p.child_index(right);
            p.children.remove(ridx);
            p.keys.remove(ridx - 1);
        }
        self.arena.free(right);
        self.shrink_or_rebalance_internal(parent);
    }

    // ------------------------------------------------------------------
    // Internal rebalancing.
    // ------------------------------------------------------------------

    fn rebalance_internal(&mut self, node: NodeId) {
        let parent = match self.arena.get(node).parent() {
            Some(p) => p,
            None => return,
        };
        let idx = self.arena.get(parent).as_internal().child_index(node);
        let children = self.arena.get(parent).as_internal().children.clone();
        let left = (idx > 0).then(|| children[idx - 1]);
        let right = (idx + 1 < children.len()).then(|| children[idx + 1]);

        let donates =
            |id: NodeId| self.arena.get(id).as_internal().len() > self.internal_min_keys();
        if let Some(l) = left {
            if donates(l) {
                self.rotate_internal_from_left(parent, l, node);
                return;
            }
        }
        if let Some(r) = right {
            if donates(r) {
                self.rotate_internal_from_right(parent, node, r);
                return;
            }
        }
        if let Some(l) = left {
            self.merge_internals(parent, l, node);
        } else if let Some(r) = right {
            self.merge_internals(parent, node, r);
        }
    }

    fn rotate_internal_from_left(&mut self, parent: NodeId, left: NodeId, node: NodeId) {
        let sep_idx = self.arena.get(parent).as_internal().child_index(node) - 1;
        let sep = self.arena.get(parent).as_internal().keys[sep_idx];
        let (up_key, child) = {
            let l = self.arena.get_mut(left).as_internal_mut();
            let k = l.keys.pop().expect("donor non-empty");
            let c = l.children.pop().expect("donor non-empty");
            (k, c)
        };
        {
            let n = self.arena.get_mut(node).as_internal_mut();
            n.keys.insert(0, sep);
            n.children.insert(0, child);
        }
        self.arena.get_mut(child).set_parent(Some(node));
        self.arena.get_mut(parent).as_internal_mut().keys[sep_idx] = up_key;
    }

    fn rotate_internal_from_right(&mut self, parent: NodeId, node: NodeId, right: NodeId) {
        let sep_idx = self.arena.get(parent).as_internal().child_index(node);
        let sep = self.arena.get(parent).as_internal().keys[sep_idx];
        let (up_key, child) = {
            let r = self.arena.get_mut(right).as_internal_mut();
            let k = r.keys.remove(0);
            let c = r.children.remove(0);
            (k, c)
        };
        {
            let n = self.arena.get_mut(node).as_internal_mut();
            n.keys.push(sep);
            n.children.push(child);
        }
        self.arena.get_mut(child).set_parent(Some(node));
        self.arena.get_mut(parent).as_internal_mut().keys[sep_idx] = up_key;
    }

    fn merge_internals(&mut self, parent: NodeId, left: NodeId, right: NodeId) {
        let sep_idx = self.arena.get(parent).as_internal().child_index(right) - 1;
        let sep = self.arena.get(parent).as_internal().keys[sep_idx];
        let moved_children = {
            let (l, r) = self.arena.get2_mut(left, right);
            let l = l.as_internal_mut();
            let r = r.as_internal_mut();
            l.keys.push(sep);
            l.keys.append(&mut r.keys);
            let moved: Vec<NodeId> = r.children.drain(..).collect();
            l.children.extend_from_slice(&moved);
            moved
        };
        for c in moved_children {
            self.arena.get_mut(c).set_parent(Some(left));
        }
        {
            let p = self.arena.get_mut(parent).as_internal_mut();
            p.children.remove(sep_idx + 1);
            p.keys.remove(sep_idx);
        }
        self.arena.free(right);
        self.shrink_or_rebalance_internal(parent);
    }
}

#[cfg(test)]
mod tests {
    use crate::config::TreeConfig;
    use crate::fastpath::FastPathMode;
    use crate::tree::BpTree;

    fn tree(mode: FastPathMode, cap: usize) -> BpTree<u64, u64> {
        BpTree::with_config(mode, TreeConfig::small(cap))
    }

    #[test]
    fn delete_missing_returns_none() {
        let mut t = tree(FastPathMode::None, 4);
        t.insert(1, 1);
        assert_eq!(t.delete(9), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_single_leaf() {
        let mut t = tree(FastPathMode::None, 4);
        t.insert(1, 10);
        t.insert(2, 20);
        assert_eq!(t.delete(1), Some(10));
        assert_eq!(t.get(1), None);
        assert_eq!(t.get(2), Some(&20));
        assert_eq!(t.len(), 1);
        assert_eq!(t.delete(2), Some(20));
        assert!(t.is_empty());
        // Tree stays usable after full drain.
        t.insert(5, 50);
        assert_eq!(t.get(5), Some(&50));
    }

    #[test]
    fn delete_everything_in_order() {
        let mut t = tree(FastPathMode::None, 4);
        for k in 0..500u64 {
            t.insert(k, k);
        }
        for k in 0..500u64 {
            assert_eq!(t.delete(k), Some(k), "key {k}");
            t.check_invariants()
                .unwrap_or_else(|e| panic!("after {k}: {e}"));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn delete_everything_in_reverse() {
        let mut t = tree(FastPathMode::None, 4);
        for k in 0..500u64 {
            t.insert(k, k);
        }
        for k in (0..500u64).rev() {
            assert_eq!(t.delete(k), Some(k), "key {k}");
        }
        assert!(t.is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn random_interleaved_insert_delete() {
        use rand::prelude::*;
        use std::collections::BTreeMap;
        let mut rng = StdRng::seed_from_u64(42);
        let mut t = tree(FastPathMode::None, 6);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in 0..5000 {
            let k = rng.gen_range(0..500u64);
            if rng.gen_bool(0.6) {
                // keep keys unique in the model for comparability
                model.entry(k).or_insert_with(|| {
                    t.insert(k, op);
                    op
                });
            } else if model.remove(&k).is_some() {
                assert!(t.delete(k).is_some(), "op {op} key {k}");
            } else {
                assert_eq!(t.delete(k), None);
            }
        }
        for (&k, &v) in &model {
            assert_eq!(t.get(k), Some(&v));
        }
        assert_eq!(t.len(), model.len());
        t.check_invariants().unwrap();
    }

    #[test]
    fn quit_delete_with_active_pole() {
        let mut t = tree(FastPathMode::Pole, 8);
        for k in 0..2000u64 {
            t.insert(k, k);
        }
        // Delete a swath from the middle, including regions around the pole.
        for k in 500..1500u64 {
            assert_eq!(t.delete(k), Some(k));
        }
        t.check_invariants().unwrap();
        for k in 0..500u64 {
            assert!(t.contains_key(k), "key {k}");
        }
        for k in 1500..2000u64 {
            assert!(t.contains_key(k), "key {k}");
        }
        // Fast path keeps working after heavy deletion.
        let fast_before = t.stats().fast_inserts.get();
        for k in 2000..2500u64 {
            t.insert(k, k);
        }
        assert!(t.stats().fast_inserts.get() > fast_before);
        t.check_invariants().unwrap();
    }

    #[test]
    fn deleting_pole_to_empty_resets_to_prev() {
        let mut t = tree(FastPathMode::Pole, 4);
        for k in 0..32u64 {
            t.insert(k, k);
        }
        // Drain the current pole leaf completely.
        let pole = t.fp_leaf().expect("pole exists");
        let keys: Vec<u64> = t.arena.get(pole).as_leaf().keys.clone();
        for k in keys {
            t.delete(k);
        }
        assert!(t.fp_leaf().is_some(), "pole must be re-pointed");
        t.check_invariants().unwrap();
        // And ingestion continues.
        for k in 100..164u64 {
            t.insert(k, k);
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn delete_range_middle_swath() {
        let mut t = tree(FastPathMode::Pole, 8);
        for k in 0..2_000u64 {
            t.insert(k, k);
        }
        assert_eq!(t.delete_range(500, 1500), 1000);
        assert_eq!(t.len(), 1000);
        assert_eq!(t.range_count(0..2_000), 1000);
        assert_eq!(t.delete_range(500, 1500), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn delete_range_with_duplicates_and_bounds() {
        let mut t = tree(FastPathMode::None, 4);
        for i in 0..50u64 {
            t.insert(10, i);
            t.insert(20, i);
            t.insert(30, i);
        }
        assert_eq!(t.delete_range(20, 21), 50, "all duplicates of 20");
        assert_eq!(t.delete_range(31, 40), 0, "empty range");
        assert_eq!(t.delete_range(5, 5), 0, "degenerate range");
        assert_eq!(t.len(), 100);
        t.check_invariants().unwrap();
    }

    #[test]
    fn delete_range_everything() {
        let mut t = tree(FastPathMode::Pole, 6);
        for k in 0..700u64 {
            t.insert(k, k);
        }
        assert_eq!(t.delete_range(0, u64::MAX), 700);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.check_invariants().unwrap();
        // Still usable.
        t.insert(1, 1);
        assert_eq!(t.get(1), Some(&1));
    }

    #[test]
    fn delete_duplicates_one_at_a_time() {
        let mut t = tree(FastPathMode::None, 4);
        for i in 0..10u64 {
            t.insert(7, i);
        }
        for _ in 0..10 {
            assert!(t.delete(7).is_some());
        }
        assert_eq!(t.delete(7), None);
        assert!(t.is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn delete_in_every_mode_keeps_reads_correct() {
        for mode in [
            FastPathMode::None,
            FastPathMode::Tail,
            FastPathMode::Lil,
            FastPathMode::Pole,
        ] {
            let mut t = tree(mode, 6);
            for k in 0..600u64 {
                t.insert(k, k);
            }
            for k in (0..600u64).step_by(2) {
                assert_eq!(t.delete(k), Some(k), "{mode:?} key {k}");
            }
            for k in 0..600u64 {
                assert_eq!(t.contains_key(k), k % 2 == 1, "{mode:?} key {k}");
            }
            t.check_invariants()
                .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }
}
