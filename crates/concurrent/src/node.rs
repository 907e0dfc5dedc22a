//! Lock-per-node tree nodes for the concurrent QuIT (§4.5).
//!
//! Every node sits behind its own [`crate::sync::RwLock`]; links are `Arc`s
//! so guards can outlive the reference that produced them. Leaves
//! carry their own separator bounds (`low`/`high`), maintained under the
//! leaf's write lock at split time — this lets the fast path validate an
//! insert against the leaf itself, immune to staleness of the shared
//! fast-path metadata.
//!
//! # Buffer-pinning invariant (OLC)
//!
//! Optimistic readers ([`crate::ConcurrentTree`] with OLC enabled) read node
//! contents *without* holding the node's lock and only validate afterwards.
//! For those raw reads to never fault, a node's `Vec` buffers must never be
//! reallocated while the tree is alive: a concurrent reader may still be
//! dereferencing the old allocation. The constructors here therefore
//! reserve the maximum size a buffer can ever reach up front:
//!
//! * leaf `keys`/`vals`: `leaf_capacity + 1` (a full leaf accepts one
//!   overflow entry before/while it splits);
//! * internal `keys`: `internal_capacity + 1`, `children`:
//!   `internal_capacity + 2` (one separator/child of overshoot before the
//!   node splits).
//!
//! All in-place mutation stays within these reservations; the single
//! exception (a uniform-key leaf absorbing overflow past its capacity,
//! which cannot split) swaps in larger buffers and retires the old ones to
//! a tree-level keep-alive list instead of freeing them.

use crate::sync::RwLock;
use quit_core::GapMap;
use std::sync::Arc;

/// Shared handle to a locked node.
pub type NodeRef<K, V> = Arc<RwLock<CNode<K, V>>>;

/// A node of the concurrent tree.
#[derive(Debug)]
pub enum CNode<K, V> {
    /// Routing node: `children.len() == keys.len() + 1`.
    Internal {
        /// Separator keys, ascending.
        keys: Vec<K>,
        /// Child handles.
        children: Vec<NodeRef<K, V>>,
    },
    /// Data node.
    Leaf {
        /// Entry keys, ascending (duplicates allowed). Under the gapped
        /// layout some slots are *fillers* — each holds a copy of the
        /// key/value pair of its nearest live slot to the right — so the
        /// physical array stays fully sorted and value-correct for every
        /// point read, including the latch-free OLC `leaf_get`.
        keys: Vec<K>,
        /// Values parallel to `keys`.
        vals: Vec<V>,
        /// Which physical slots are gap fillers (empty ⇒ dense). Only read
        /// and written under the leaf's latch: optimistic raw readers never
        /// consult it (the filler rule keeps raw reads value-correct), so
        /// the buffer-pinning invariant does not extend to this bitmap.
        gaps: GapMap,
        /// Next leaf in key order.
        next: Option<NodeRef<K, V>>,
        /// Inclusive lower separator bound (`None` = unbounded).
        low: Option<K>,
        /// Exclusive upper separator bound (`None` = right-most leaf).
        high: Option<K>,
    },
}

impl<K, V> CNode<K, V> {
    /// A fresh empty leaf with unbounded range (tests build nodes by hand;
    /// trees start from `ConcurrentTree::bulk_load`). Reserves
    /// `capacity + 1` slots so in-capacity inserts (plus the transient
    /// overflow entry around a split) never reallocate — see the
    /// buffer-pinning invariant in the module docs.
    #[cfg(test)]
    pub fn empty_leaf(capacity: usize) -> Self {
        CNode::Leaf {
            keys: Vec::with_capacity(capacity + 1),
            vals: Vec::with_capacity(capacity + 1),
            gaps: GapMap::new(),
            next: None,
            low: None,
            high: None,
        }
    }

    /// Pre-sized buffers for a new leaf (`capacity + 1` slots each), for
    /// the bulk load and for split code that fills them by draining the
    /// overfull left sibling.
    pub fn leaf_buffers(capacity: usize) -> (Vec<K>, Vec<V>) {
        (
            Vec::with_capacity(capacity + 1),
            Vec::with_capacity(capacity + 1),
        )
    }

    /// Pre-sized buffers for a new internal node: `capacity + 1` separator
    /// slots and `capacity + 2` child slots, the maximum an internal node
    /// reaches in the instant before it splits.
    pub fn internal_buffers(capacity: usize) -> (Vec<K>, Vec<NodeRef<K, V>>) {
        (
            Vec::with_capacity(capacity + 1),
            Vec::with_capacity(capacity + 2),
        )
    }

    /// Wraps a node in its lock + handle.
    pub fn into_ref(self) -> NodeRef<K, V> {
        Arc::new(RwLock::new(self))
    }

    /// True for leaves.
    pub fn is_leaf(&self) -> bool {
        matches!(self, CNode::Leaf { .. })
    }

    /// Live entry count (leaves, gap fillers excluded) or separator count
    /// (internal nodes).
    pub fn len(&self) -> usize {
        match self {
            CNode::Internal { keys, .. } => keys.len(),
            CNode::Leaf { keys, gaps, .. } => keys.len() - gaps.count(),
        }
    }

    /// True when the node holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Copy + Ord, V> CNode<K, V> {
    /// A leaf's own separator bounds `(low, high)`.
    pub(crate) fn bounds(&self) -> (Option<K>, Option<K>) {
        match self {
            CNode::Leaf { low, high, .. } => (*low, *high),
            CNode::Internal { .. } => unreachable!("only leaves carry bounds"),
        }
    }

    /// True when `key` lies within this leaf's own bounds (`low`
    /// inclusive, `high` exclusive). The bounds of all leaves partition the
    /// key space, so covering `key` proves a latched leaf is *the* leaf for
    /// it, however it was reached.
    pub(crate) fn covers(&self, key: K) -> bool {
        let (low, high) = self.bounds();
        low.is_none_or(|b| key >= b) && high.is_none_or(|b| key < b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_construction() {
        let n: CNode<u64, u64> = CNode::empty_leaf(16);
        assert!(n.is_leaf());
        assert!(n.is_empty());
        assert_eq!(n.len(), 0);
        let r = n.into_ref();
        assert!(r.read().is_leaf());
    }

    #[test]
    fn guards_are_arc_detached() {
        let r: NodeRef<u64, u64> = CNode::empty_leaf(4).into_ref();
        let guard = crate::sync::RwLock::write_arc(&r);
        // The guard owns an Arc clone: dropping `r` is fine.
        drop(r);
        assert!(guard.is_leaf());
    }

    #[test]
    fn buffers_reserve_overflow_slack() {
        let n: CNode<u64, u64> = CNode::empty_leaf(8);
        let CNode::Leaf { keys, vals, .. } = &n else {
            unreachable!();
        };
        assert!(keys.capacity() >= 9, "leaf keys pin capacity + 1");
        assert!(vals.capacity() >= 9, "leaf vals pin capacity + 1");
        let (ik, ic) = CNode::<u64, u64>::internal_buffers(8);
        assert!(ik.capacity() >= 9, "internal keys pin capacity + 1");
        assert!(ic.capacity() >= 10, "internal children pin capacity + 2");
        let (lk, lv) = CNode::<u64, u64>::leaf_buffers(8);
        assert!(lk.capacity() >= 9 && lv.capacity() >= 9);
    }
}
