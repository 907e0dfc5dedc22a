//! Tree node representations.
//!
//! A leaf stores entries (sorted keys plus parallel values) and is doubly
//! linked with its chain neighbours for range scans (§4.4). An internal node
//! stores `keys.len() + 1` children; child `i` covers keys `< keys[i]`, child
//! `i+1` covers keys `>= keys[i]`. All nodes carry a parent link so splits,
//! merges, redistribution, and separator updates walk up without a re-descent.

use crate::arena::NodeId;

/// A node slot in the arena.
#[derive(Debug)]
pub enum Node<K, V> {
    /// Routing node.
    Internal(InternalNode<K>),
    /// Data node.
    Leaf(LeafNode<K, V>),
    /// Recycled slot (only ever observed by the arena itself).
    Free,
}

/// Routing node: `children.len() == keys.len() + 1`.
#[derive(Debug)]
pub struct InternalNode<K> {
    /// Separator keys, sorted ascending.
    pub keys: Vec<K>,
    /// Child node ids; child `i` holds keys in `[keys[i-1], keys[i])`.
    pub children: Vec<NodeId>,
    /// Parent internal node, `None` at the root.
    pub parent: Option<NodeId>,
}

/// Data node: `keys` sorted ascending, `vals[i]` belongs to `keys[i]`.
#[derive(Debug)]
pub struct LeafNode<K, V> {
    /// Entry keys, sorted ascending (duplicates allowed).
    pub keys: Vec<K>,
    /// Entry values, parallel to `keys`.
    pub vals: Vec<V>,
    /// Next leaf in key order (interlinked pointers, §4.4).
    pub next: Option<NodeId>,
    /// Previous leaf in key order.
    pub prev: Option<NodeId>,
    /// Parent internal node, `None` when the leaf is the root.
    pub parent: Option<NodeId>,
}

impl<K> InternalNode<K> {
    /// An empty internal node (caller fills keys/children).
    pub fn new() -> Self {
        InternalNode {
            keys: Vec::new(),
            children: Vec::new(),
            parent: None,
        }
    }

    /// Number of separator keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the node routes nothing (transient state only).
    #[inline]
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Index of `child` in `children`. Panics if absent.
    pub fn child_index(&self, child: NodeId) -> usize {
        self.children
            .iter()
            .position(|&c| c == child)
            .expect("child not found in parent")
    }
}

impl<K> Default for InternalNode<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> LeafNode<K, V> {
    /// An empty, unlinked leaf.
    pub fn new() -> Self {
        LeafNode {
            keys: Vec::new(),
            vals: Vec::new(),
            next: None,
            prev: None,
            parent: None,
        }
    }

    /// An empty leaf with entry storage preallocated for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        LeafNode {
            keys: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
            next: None,
            prev: None,
            parent: None,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the leaf holds no entries.
    #[inline]
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

impl<K, V> Default for LeafNode<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Node<K, V> {
    /// True for leaf slots.
    #[inline]
    #[allow(dead_code)]
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf(_))
    }

    /// Leaf view; panics on internal/free slots.
    #[inline]
    pub fn as_leaf(&self) -> &LeafNode<K, V> {
        match self {
            Node::Leaf(l) => l,
            _ => panic!("expected leaf node"),
        }
    }

    /// Mutable leaf view; panics on internal/free slots.
    #[inline]
    pub fn as_leaf_mut(&mut self) -> &mut LeafNode<K, V> {
        match self {
            Node::Leaf(l) => l,
            _ => panic!("expected leaf node"),
        }
    }

    /// Internal view; panics on leaf/free slots.
    #[inline]
    pub fn as_internal(&self) -> &InternalNode<K> {
        match self {
            Node::Internal(n) => n,
            _ => panic!("expected internal node"),
        }
    }

    /// Mutable internal view; panics on leaf/free slots.
    #[inline]
    pub fn as_internal_mut(&mut self) -> &mut InternalNode<K> {
        match self {
            Node::Internal(n) => n,
            _ => panic!("expected internal node"),
        }
    }

    /// Parent link regardless of node kind.
    #[inline]
    pub fn parent(&self) -> Option<NodeId> {
        match self {
            Node::Internal(n) => n.parent,
            Node::Leaf(l) => l.parent,
            Node::Free => None,
        }
    }

    /// Sets the parent link regardless of node kind.
    #[inline]
    pub fn set_parent(&mut self, p: Option<NodeId>) {
        match self {
            Node::Internal(n) => n.parent = p,
            Node::Leaf(l) => l.parent = p,
            Node::Free => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_basics() {
        let mut l: LeafNode<u64, u64> = LeafNode::with_capacity(8);
        assert!(l.is_empty());
        l.keys.push(1);
        l.vals.push(10);
        assert_eq!(l.len(), 1);
        assert!(l.keys.capacity() >= 8);
    }

    #[test]
    fn internal_child_index() {
        let mut n: InternalNode<u64> = InternalNode::new();
        n.keys = vec![10, 20];
        n.children = vec![NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(n.child_index(NodeId(1)), 1);
        assert_eq!(n.len(), 2);
        assert!(!n.is_empty());
    }

    #[test]
    #[should_panic(expected = "child not found")]
    fn missing_child_panics() {
        let n: InternalNode<u64> = InternalNode::new();
        n.child_index(NodeId(9));
    }

    #[test]
    fn node_views_and_parent() {
        let mut n: Node<u64, u64> = Node::Leaf(LeafNode::new());
        assert!(n.is_leaf());
        assert!(n.parent().is_none());
        n.set_parent(Some(NodeId(3)));
        assert_eq!(n.parent(), Some(NodeId(3)));
        let _ = n.as_leaf();
        let _ = n.as_leaf_mut();
    }

    #[test]
    #[should_panic(expected = "expected internal")]
    fn wrong_view_panics() {
        let n: Node<u64, u64> = Node::Leaf(LeafNode::new());
        let _ = n.as_internal();
    }
}
