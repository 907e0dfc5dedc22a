//! Structure-modification operations: leaf and internal splits, separator
//! maintenance, and QuIT's redistribution into `poℓe_prev`.

use crate::arena::NodeId;
use crate::key::Key;
use crate::node::{InternalNode, LeafNode, Node};
use crate::stats::Stats;
use crate::tree::BpTree;

impl<K: Key, V> BpTree<K, V> {
    /// Splits `leaf_id` at entry index `pos` (entries `[pos..]` move to a new
    /// right sibling) and wires the new node into the leaf chain and the
    /// parent. Returns `(right_id, separator)` where `separator` is the new
    /// node's smallest key.
    ///
    /// `1 <= pos <= len-1` so both halves are non-empty.
    pub(crate) fn split_leaf_at(&mut self, leaf_id: NodeId, pos: usize) -> (NodeId, K) {
        Stats::bump(&self.metrics.counters.leaf_splits);
        let (right_keys, right_vals, old_next, parent) = {
            let leaf = self.arena.get_mut(leaf_id).as_leaf_mut();
            debug_assert!(pos >= 1 && pos < leaf.len(), "bad split pos {pos}");
            let rk = leaf.keys.split_off(pos);
            let rv = leaf.vals.split_off(pos);
            (rk, rv, leaf.next, leaf.parent)
        };
        let separator = right_keys[0];
        let right = LeafNode {
            keys: right_keys,
            vals: right_vals,
            next: old_next,
            prev: Some(leaf_id),
            parent,
        };
        let right_id = self.arena.alloc(Node::Leaf(right));
        self.arena.get_mut(leaf_id).as_leaf_mut().next = Some(right_id);
        if let Some(next) = old_next {
            self.arena.get_mut(next).as_leaf_mut().prev = Some(right_id);
        }
        if self.tail == leaf_id {
            self.tail = right_id;
        }
        // `poℓe_prev_{min,size}` are memoized at poℓe-split time and NOT
        // refreshed when the physical predecessor splits: the stale values
        // keep Eq. 2's density basis stable (redistribution re-checks chain
        // adjacency itself). Only the node id needs care, and the left half
        // keeps it.
        self.insert_into_parent(leaf_id, separator, right_id);
        (right_id, separator)
    }

    /// 50/50 split (`def_split_pos`), the classical strategy used by every
    /// non-QuIT variant and by QuIT on non-poℓe leaves.
    pub(crate) fn split_leaf_default(&mut self, leaf_id: NodeId) -> (NodeId, K) {
        let len = self.arena.get(leaf_id).as_leaf().len();
        self.split_leaf_at(leaf_id, len / 2)
    }

    /// Links `right_id` (with lower bound `separator`) as the sibling
    /// immediately right of `left_id`, creating a new root or splitting
    /// ancestors as required.
    pub(crate) fn insert_into_parent(&mut self, left_id: NodeId, separator: K, right_id: NodeId) {
        let parent = self.arena.get(left_id).parent();
        match parent {
            None => {
                // left was the root: grow the tree by one level.
                let mut root = InternalNode::new();
                root.keys.push(separator);
                root.children.push(left_id);
                root.children.push(right_id);
                let root_id = self.arena.alloc(Node::Internal(root));
                self.arena.get_mut(left_id).set_parent(Some(root_id));
                self.arena.get_mut(right_id).set_parent(Some(root_id));
                self.root = root_id;
                self.height += 1;
            }
            Some(pid) => {
                {
                    let p = self.arena.get_mut(pid).as_internal_mut();
                    let idx = p.child_index(left_id);
                    p.keys.insert(idx, separator);
                    p.children.insert(idx + 1, right_id);
                }
                self.arena.get_mut(right_id).set_parent(Some(pid));
                if self.arena.get(pid).as_internal().len() > self.config.internal_capacity {
                    self.split_internal(pid);
                }
            }
        }
    }

    /// Splits an over-full internal node at its midpoint; the middle key
    /// moves up to the parent (it separates the two halves and is not
    /// retained in either).
    pub(crate) fn split_internal(&mut self, node_id: NodeId) {
        Stats::bump(&self.metrics.counters.internal_splits);
        let (up_key, right_keys, right_children) = {
            let n = self.arena.get_mut(node_id).as_internal_mut();
            let mid = n.keys.len() / 2;
            let up = n.keys[mid];
            let rk = n.keys.split_off(mid + 1);
            n.keys.pop(); // drop the promoted key
            let rc = n.children.split_off(mid + 1);
            (up, rk, rc)
        };
        let right = InternalNode {
            keys: right_keys,
            children: right_children.clone(),
            parent: self.arena.get(node_id).parent(),
        };
        let right_id = self.arena.alloc(Node::Internal(right));
        for child in right_children {
            self.arena.get_mut(child).set_parent(Some(right_id));
        }
        self.insert_into_parent(node_id, up_key, right_id);
    }

    /// Replaces the separator that lower-bounds `node_id`'s subtree with
    /// `new_key`. Walks up until the subtree stops being a left-most child;
    /// no-op for the globally left-most node (which has no lower separator).
    pub(crate) fn update_lower_separator(&mut self, node_id: NodeId, new_key: K) {
        let mut child = node_id;
        while let Some(pid) = self.arena.get(child).parent() {
            let p = self.arena.get_mut(pid).as_internal_mut();
            let idx = p.child_index(child);
            if idx > 0 {
                p.keys[idx - 1] = new_key;
                return;
            }
            child = pid;
        }
    }

    /// QuIT redistribution (Algorithm 2 line 10 / Fig 7c): moves the
    /// `move_count` smallest entries of `pole_id` into the tail of its
    /// chain-adjacent left sibling `prev_id`, then repairs the separator.
    ///
    /// Caller must have verified adjacency (`prev.next == pole`) and that
    /// `move_count < pole.len()`.
    pub(crate) fn redistribute_to_prev(
        &mut self,
        pole_id: NodeId,
        prev_id: NodeId,
        move_count: usize,
    ) {
        Stats::bump(&self.metrics.counters.redistributions);
        {
            let (pole, prev) = self.arena.get2_mut(pole_id, prev_id);
            let pole = pole.as_leaf_mut();
            let prev = prev.as_leaf_mut();
            debug_assert_eq!(prev.next, Some(pole_id), "redistribute requires adjacency");
            debug_assert!(move_count >= 1 && move_count < pole.len());
            prev.keys.extend(pole.keys.drain(..move_count));
            prev.vals.extend(pole.vals.drain(..move_count));
        }
        let new_min = self.arena.get(pole_id).as_leaf().keys[0];
        self.update_lower_separator(pole_id, new_min);
    }
}

#[cfg(test)]
mod tests {
    use crate::config::TreeConfig;
    use crate::fastpath::FastPathMode;
    use crate::tree::BpTree;

    fn classic(cap: usize) -> BpTree<u64, u64> {
        BpTree::with_config(FastPathMode::None, TreeConfig::small(cap))
    }

    #[test]
    fn split_grows_height() {
        let mut t = classic(4);
        for k in 0..5 {
            t.insert(k, k);
        }
        assert_eq!(t.height(), 2);
        assert!(t.stats().leaf_splits.get() >= 1);
        for k in 0..5 {
            assert_eq!(t.get(k), Some(&k));
        }
    }

    #[test]
    fn cascading_splits_build_multilevel_tree() {
        let mut t = classic(4);
        for k in 0..1000u64 {
            t.insert(k, k * 2);
        }
        assert!(t.height() >= 4, "height {}", t.height());
        assert!(t.stats().internal_splits.get() > 0);
        for k in (0..1000).step_by(37) {
            assert_eq!(t.get(k), Some(&(k * 2)));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn reverse_insert_order_splits_left() {
        let mut t = classic(4);
        for k in (0..500u64).rev() {
            t.insert(k, k);
        }
        for k in 0..500 {
            assert_eq!(t.get(k), Some(&k), "key {k}");
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn random_inserts_stay_consistent() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        let mut keys: Vec<u64> = (0..2000).collect();
        keys.shuffle(&mut rng);
        let mut t = classic(8);
        for &k in &keys {
            t.insert(k, k + 1);
        }
        assert_eq!(t.len(), 2000);
        for &k in &keys {
            assert_eq!(t.get(k), Some(&(k + 1)));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn tail_pointer_follows_rightmost_leaf() {
        let mut t = classic(4);
        for k in 0..100u64 {
            t.insert(k, k);
        }
        assert_eq!(t.max_key(), Some(99));
        // tail leaf must contain the max key
        let tail = t.arena.get(t.tail).as_leaf();
        assert_eq!(tail.keys.last(), Some(&99));
        assert_eq!(tail.next, None);
    }

    #[test]
    fn head_pointer_stays_leftmost() {
        let mut t = classic(4);
        for k in (0..100u64).rev() {
            t.insert(k, k);
        }
        let head = t.arena.get(t.head).as_leaf();
        assert_eq!(head.keys.first(), Some(&0));
        assert_eq!(head.prev, None);
    }
}
