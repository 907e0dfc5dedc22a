//! Structural invariant checker used throughout the test suite (and usable
//! by downstream users in debug builds). Not called on hot paths.

use crate::arena::NodeId;
use crate::key::Key;
use crate::node::Node;
use crate::tree::BpTree;

/// A violated invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation(pub String);

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invariant violation: {}", self.0)
    }
}

impl std::error::Error for InvariantViolation {}

impl<K: Key, V> BpTree<K, V> {
    /// Verifies the full set of structural invariants:
    ///
    /// 1. every node's keys are sorted; leaf keys respect ancestor
    ///    separators;
    /// 2. internal fanout (`children = keys + 1`) and capacity limits;
    /// 3. parent pointers are consistent with child lists;
    /// 4. the leaf chain is doubly linked, ordered, and reaches every leaf;
    /// 5. `head`/`tail` point at the chain ends; `len` equals total entries;
    /// 6. fast-path metadata (when armed) points at a live leaf whose
    ///    separator bounds match `fp_min`/`fp_max`.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let err = |msg: String| Err(InvariantViolation(msg));

        // --- recursive structural check ---
        let mut leaf_order: Vec<NodeId> = Vec::new();
        let mut entries = 0usize;
        self.check_subtree(self.root, None, None, &mut leaf_order, &mut entries)?;

        if entries != self.len {
            return err(format!("len says {} but leaves hold {}", self.len, entries));
        }

        // --- leaf chain ---
        if leaf_order.is_empty() {
            return err("tree has no leaves".into());
        }
        if self.head != leaf_order[0] {
            return err(format!(
                "head is {:?} but left-most leaf is {:?}",
                self.head, leaf_order[0]
            ));
        }
        if self.tail != *leaf_order.last().expect("non-empty") {
            return err(format!(
                "tail is {:?} but right-most leaf is {:?}",
                self.tail,
                leaf_order.last()
            ));
        }
        let mut walked = Vec::with_capacity(leaf_order.len());
        let mut cur = Some(self.head);
        let mut prev: Option<NodeId> = None;
        while let Some(id) = cur {
            let leaf = match self.arena.get(id) {
                Node::Leaf(l) => l,
                _ => return err(format!("chain node {id:?} is not a leaf")),
            };
            if leaf.prev != prev {
                return err(format!(
                    "leaf {id:?} prev is {:?}, expected {:?}",
                    leaf.prev, prev
                ));
            }
            walked.push(id);
            prev = Some(id);
            cur = leaf.next;
            if walked.len() > leaf_order.len() {
                return err("leaf chain longer than tree (cycle?)".into());
            }
        }
        if walked != leaf_order {
            return err("leaf chain order disagrees with tree order".into());
        }
        // Chain-wide key order.
        let mut last_key: Option<K> = None;
        for &id in &walked {
            for &k in &self.arena.get(id).as_leaf().keys {
                if last_key.is_some_and(|p| p > k) {
                    return err(format!("keys out of order at leaf {id:?}: {k:?}"));
                }
                last_key = Some(k);
            }
        }

        // --- height ---
        let mut depth = 1usize;
        let mut id = self.root;
        while let Node::Internal(n) = self.arena.get(id) {
            id = n.children[0];
            depth += 1;
        }
        if depth != self.height {
            return err(format!(
                "height says {} but depth is {}",
                self.height, depth
            ));
        }

        // --- fast-path metadata ---
        // A *narrower* fast-path range than the leaf's true separator bounds
        // only costs missed fast-inserts; a *wider* one would route keys into
        // the wrong leaf, so that direction is what we verify.
        if self.mode.has_fast_path() && self.fp_leaf().is_none() {
            return err("fast-path mode armed but fp_id is unset".into());
        }
        if let Some(fp_leaf) = self.fp_leaf().filter(|_| self.mode.has_fast_path()) {
            if !matches!(self.arena.get(fp_leaf), Node::Leaf(_)) {
                return err(format!("fast-path leaf {fp_leaf:?} is not a live leaf"));
            }
            let (low, high) = self.leaf_bounds(fp_leaf);
            let (fp_min, fp_max) = self.fp.bounds();
            if let Some(b) = low {
                if fp_min.is_none_or(|m| m < b) {
                    return err(format!(
                        "fp_min {fp_min:?} wider than separator bound {b:?} for {fp_leaf:?}"
                    ));
                }
            }
            if let Some(b) = high {
                if fp_max.is_none_or(|m| m > b) {
                    return err(format!(
                        "fp_max {fp_max:?} wider than separator bound {b:?} for {fp_leaf:?}"
                    ));
                }
            }
            // `poℓe_prev_{min,size}` are memoized at poℓe-split time and
            // may lag the node's live state (Table 1 metadata semantics);
            // only the id's structural validity is an invariant.
            if let Some(&prev_id) = self.fp.prev() {
                if !matches!(self.arena.get(prev_id), Node::Leaf(_)) {
                    return err(format!("poℓe_prev {prev_id:?} is not a live leaf"));
                }
            }
        }
        Ok(())
    }

    fn check_subtree(
        &self,
        id: NodeId,
        low: Option<K>,
        high: Option<K>,
        leaf_order: &mut Vec<NodeId>,
        entries: &mut usize,
    ) -> Result<(), InvariantViolation> {
        let err = |msg: String| Err(InvariantViolation(msg));
        match self.arena.get(id) {
            Node::Free => err(format!("reached freed node {id:?}")),
            Node::Leaf(l) => {
                if l.keys.len() != l.vals.len() {
                    return err(format!("leaf {id:?} keys/vals length mismatch"));
                }
                if l.keys.len() > self.config.leaf_capacity {
                    return err(format!(
                        "leaf {id:?} holds {} entries > capacity {}",
                        l.keys.len(),
                        self.config.leaf_capacity
                    ));
                }
                if !l.keys.windows(2).all(|w| w[0] <= w[1]) {
                    return err(format!("leaf {id:?} keys unsorted"));
                }
                for &k in &l.keys {
                    if low.is_some_and(|b| k < b) {
                        return err(format!("leaf {id:?} key {k:?} below bound {low:?}"));
                    }
                    // Duplicate runs may straddle a separator: the invariant
                    // is left ≤ s ≤ right, so equality with the upper bound
                    // is legal.
                    if high.is_some_and(|b| k > b) {
                        return err(format!("leaf {id:?} key {k:?} above bound {high:?}"));
                    }
                }
                *entries += l.len();
                leaf_order.push(id);
                Ok(())
            }
            Node::Internal(n) => {
                if n.children.len() != n.keys.len() + 1 {
                    return err(format!(
                        "internal {id:?} has {} children for {} keys",
                        n.children.len(),
                        n.keys.len()
                    ));
                }
                if n.keys.len() > self.config.internal_capacity {
                    return err(format!(
                        "internal {id:?} holds {} > capacity {}",
                        n.keys.len(),
                        self.config.internal_capacity
                    ));
                }
                if !n.keys.windows(2).all(|w| w[0] <= w[1]) {
                    return err(format!("internal {id:?} keys unsorted"));
                }
                for &k in &n.keys {
                    if low.is_some_and(|b| k < b) || high.is_some_and(|b| k > b) {
                        return err(format!(
                            "internal {id:?} separator {k:?} outside ({low:?}, {high:?})"
                        ));
                    }
                }
                for (i, &child) in n.children.iter().enumerate() {
                    if self.arena.get(child).parent() != Some(id) {
                        return err(format!(
                            "child {child:?} of {id:?} has parent {:?}",
                            self.arena.get(child).parent()
                        ));
                    }
                    let clow = if i == 0 { low } else { Some(n.keys[i - 1]) };
                    let chigh = if i == n.keys.len() {
                        high
                    } else {
                        Some(n.keys[i])
                    };
                    self.check_subtree(child, clow, chigh, leaf_order, entries)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::TreeConfig;
    use crate::fastpath::FastPathMode;
    use crate::tree::BpTree;

    #[test]
    fn fresh_tree_is_valid() {
        let t: BpTree<u64, u64> = BpTree::with_config(FastPathMode::Pole, TreeConfig::small(4));
        t.check_invariants().unwrap();
    }

    #[test]
    fn detects_corrupted_len() {
        let mut t: BpTree<u64, u64> = BpTree::with_config(FastPathMode::None, TreeConfig::small(4));
        t.insert(1, 1);
        t.len = 5; // corrupt deliberately
        let e = t.check_invariants().unwrap_err();
        assert!(e.0.contains("len"), "{e}");
    }

    #[test]
    fn detects_unsorted_leaf() {
        let mut t: BpTree<u64, u64> = BpTree::with_config(FastPathMode::None, TreeConfig::small(4));
        t.insert(1, 1);
        t.insert(2, 2);
        let root = t.root;
        t.arena.get_mut(root).as_leaf_mut().keys.swap(0, 1);
        assert!(t.check_invariants().is_err());
    }

    #[test]
    fn detects_bad_fp_bounds() {
        let mut t: BpTree<u64, u64> = BpTree::with_config(FastPathMode::Pole, TreeConfig::small(4));
        for k in 0..64u64 {
            t.insert(k, k);
        }
        // Corrupt deliberately: a lower bound wider than the true one.
        let (leaf, (_, max)) = (t.fp_leaf().unwrap(), t.fp.bounds());
        t.fp.repoint(leaf, Some(0), max, None);
        let e = t.check_invariants().unwrap_err();
        assert!(e.0.contains("fp_min"), "{e}");
    }

    #[test]
    fn big_trees_validate_in_every_mode() {
        for mode in [
            FastPathMode::None,
            FastPathMode::Tail,
            FastPathMode::Lil,
            FastPathMode::Pole,
        ] {
            let mut t: BpTree<u64, u64> = BpTree::with_config(mode, TreeConfig::small(8));
            for k in 0..5000u64 {
                t.insert(k % 1000 * 7 + k / 1000, k);
            }
            t.check_invariants()
                .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }
}
