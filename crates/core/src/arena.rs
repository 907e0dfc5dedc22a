//! Node storage for trees: a slab arena, or paged frames behind a pool.
//!
//! Nodes are addressed by [`NodeId`] indices instead of by references or
//! `Rc<RefCell<…>>`. This sidesteps the borrow-checker friction of linked
//! tree structures entirely: parent/child/sibling links are plain
//! integers, mutation never aliases, and a node id stays valid for the
//! node's whole lifetime (splits create *new* nodes; they never move
//! existing ones).
//!
//! Since 0.10 the arena has two backends behind one API:
//!
//! * **Direct** (default, [`Arena::new`]) — the original slab: every
//!   node lives in a `Vec`, freed slots are recycled through a free
//!   list. This is the bit-for-bit paper-reproduction path.
//! * **Paged** ([`Arena::paged`], selected by
//!   `TreeConfig::with_storage`) — nodes live in fixed-size pages
//!   behind the buffer pool machinery of [`crate::paged`]: a bounded
//!   frame table of decoded nodes over a [`PageStore`], CLOCK eviction
//!   at operation boundaries ([`Arena::begin_op`]), and a page-file
//!   snapshot image for partly-lazy recovery. Id assignment (free-list
//!   reuse included) matches the slab exactly, so tree structure is
//!   identical across backends.

use crate::error::Error;
use crate::node::Node;
use crate::paged::{LeafPage, PagedNodes};
use crate::pool::{PageStore, PoolCounters};

/// Identifier of a node inside the tree's node arena. 4 bytes, `Copy`,
/// never invalidated while the node is live.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Index into the arena's backing vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The original slab: a `Vec` of nodes with a free list. Freed slots are
/// recycled so long delete workloads do not grow the arena unboundedly.
#[derive(Debug)]
struct Slab<K, V> {
    slots: Vec<Node<K, V>>,
    free: Vec<u32>,
    live: usize,
}

/// Which storage backs this arena.
#[derive(Debug)]
enum Backend<K, V> {
    Direct(Slab<K, V>),
    Paged(PagedNodes<K, V>),
}

/// Node storage with a slab (default) or paged backend; see the module
/// docs. The API is identical across backends — paged adds only
/// [`begin_op`](Self::begin_op) (a no-op for the slab) and the
/// image/counters accessors.
#[derive(Debug)]
pub struct Arena<K, V> {
    backend: Backend<K, V>,
}

impl<K, V> Arena<K, V> {
    /// An empty slab-backed arena.
    pub fn new() -> Self {
        Arena {
            backend: Backend::Direct(Slab {
                slots: Vec::new(),
                free: Vec::new(),
                live: 0,
            }),
        }
    }

    /// An empty slab-backed arena with room for `cap` nodes before
    /// reallocating.
    #[allow(dead_code)]
    pub fn with_capacity(cap: usize) -> Self {
        Arena {
            backend: Backend::Direct(Slab {
                slots: Vec::with_capacity(cap),
                free: Vec::new(),
                live: 0,
            }),
        }
    }

    /// Stores `node` and returns its id.
    pub fn alloc(&mut self, node: Node<K, V>) -> NodeId {
        match &mut self.backend {
            Backend::Direct(s) => {
                s.live += 1;
                if let Some(idx) = s.free.pop() {
                    s.slots[idx as usize] = node;
                    NodeId(idx)
                } else {
                    let idx = u32::try_from(s.slots.len()).expect("arena overflow: > 2^32 nodes");
                    s.slots.push(node);
                    NodeId(idx)
                }
            }
            Backend::Paged(p) => p.alloc(node),
        }
    }

    /// Releases `id`'s slot for reuse. The node's storage is dropped.
    pub fn free(&mut self, id: NodeId) {
        match &mut self.backend {
            Backend::Direct(s) => {
                debug_assert!(!matches!(s.slots[id.index()], Node::Free));
                s.slots[id.index()] = Node::Free;
                s.free.push(id.0);
                s.live -= 1;
            }
            Backend::Paged(p) => p.free(id),
        }
    }

    /// Immutable access. Panics on a freed or out-of-range id. On the
    /// paged backend this may fault the node in (never evicting — see
    /// [`begin_op`](Self::begin_op)).
    #[inline]
    pub fn get(&self, id: NodeId) -> &Node<K, V> {
        match &self.backend {
            Backend::Direct(s) => {
                let n = &s.slots[id.index()];
                debug_assert!(!matches!(n, Node::Free), "access to freed node {id:?}");
                n
            }
            Backend::Paged(p) => p.get(id),
        }
    }

    /// Reads a leaf that is not resident out of its page, in place — see
    /// [`PagedNodes::read_cold_leaf`]. Always `None` on the slab, where
    /// every node is resident.
    #[inline]
    pub(crate) fn read_cold_leaf<R>(
        &self,
        id: NodeId,
        read: impl FnMut(&LeafPage<'_, K, V>) -> Option<R>,
    ) -> Option<R> {
        match &self.backend {
            Backend::Direct(_) => None,
            Backend::Paged(p) => p.read_cold_leaf(id, read),
        }
    }

    /// Mutable access. Panics on a freed or out-of-range id.
    #[inline]
    pub fn get_mut(&mut self, id: NodeId) -> &mut Node<K, V> {
        match &mut self.backend {
            Backend::Direct(s) => {
                let n = &mut s.slots[id.index()];
                debug_assert!(!matches!(n, Node::Free), "access to freed node {id:?}");
                n
            }
            Backend::Paged(p) => p.get_mut(id),
        }
    }

    /// Simultaneous mutable access to two distinct nodes (used by
    /// redistribution and merge, which move entries between siblings).
    pub fn get2_mut(&mut self, a: NodeId, b: NodeId) -> (&mut Node<K, V>, &mut Node<K, V>) {
        match &mut self.backend {
            Backend::Direct(s) => {
                assert_ne!(a, b, "get2_mut requires distinct ids");
                let (lo, hi, swap) = if a.0 < b.0 {
                    (a, b, false)
                } else {
                    (b, a, true)
                };
                let (left, right) = s.slots.split_at_mut(hi.index());
                let lo_ref = &mut left[lo.index()];
                let hi_ref = &mut right[0];
                if swap {
                    (hi_ref, lo_ref)
                } else {
                    (lo_ref, hi_ref)
                }
            }
            Backend::Paged(p) => p.get2_mut(a, b),
        }
    }

    /// Number of live (non-freed) nodes.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Direct(s) => s.live,
            Backend::Paged(p) => p.len(),
        }
    }

    /// True when no nodes are live.
    #[inline]
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots ever allocated (live + freed), i.e. high-water mark.
    #[inline]
    #[allow(dead_code)]
    pub fn slot_count(&self) -> usize {
        match &self.backend {
            Backend::Direct(s) => s.slots.len(),
            Backend::Paged(p) => p.slot_count(),
        }
    }

    /// Iterates `(id, node)` over live nodes. On the paged backend this
    /// faults every live node in (debug/validation path; residency is
    /// trimmed back at the next operation boundary).
    pub fn iter(&self) -> Box<dyn Iterator<Item = (NodeId, &Node<K, V>)> + '_> {
        match &self.backend {
            Backend::Direct(s) => Box::new(
                s.slots
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| !matches!(n, Node::Free))
                    .map(|(i, n)| (NodeId(i as u32), n)),
            ),
            Backend::Paged(p) => Box::new(p.iter()),
        }
    }

    /// Operation boundary hook: the tree calls this at the top of every
    /// `&mut self` operation. The slab ignores it; the paged backend
    /// releases the previous operation's implicit pins and runs CLOCK
    /// eviction down to its pool budget.
    #[inline]
    pub fn begin_op(&mut self) {
        if let Backend::Paged(p) = &mut self.backend {
            p.begin_op();
        }
    }

    /// Pool hit/fault/eviction counters — `None` on the slab backend.
    pub fn pool_counters(&self) -> Option<&PoolCounters> {
        match &self.backend {
            Backend::Direct(_) => None,
            Backend::Paged(p) => Some(p.counters()),
        }
    }

    /// True when nodes live in pages behind the buffer pool.
    pub fn is_paged(&self) -> bool {
        matches!(self.backend, Backend::Paged(_))
    }

    /// Decoded nodes currently resident (equals [`len`](Self::len) on the
    /// slab backend, where everything is always resident).
    pub fn resident(&self) -> usize {
        match &self.backend {
            Backend::Direct(s) => s.live,
            Backend::Paged(p) => p.resident(),
        }
    }

    /// Length of the paged backend's frame table, holes included.
    #[cfg(test)]
    pub(crate) fn frame_slots(&self) -> usize {
        match &self.backend {
            Backend::Direct(s) => s.slots.len(),
            Backend::Paged(p) => p.frame_slots(),
        }
    }

    /// Appends a paged arena's page-file snapshot image to `out` and
    /// returns `true`; appends nothing and returns `false` on the slab
    /// backend (use entry snapshots there).
    pub fn to_image(&self, out: &mut Vec<u8>) -> bool {
        match &self.backend {
            Backend::Direct(_) => false,
            Backend::Paged(p) => {
                p.to_image(out);
                true
            }
        }
    }
}

impl<K: 'static, V: 'static> Arena<K, V> {
    /// An empty paged arena over `store`: at most `pool_pages` decoded
    /// nodes stay resident between operations, one node per
    /// `page_size`-byte page. Panics if `K`/`V` are not plain-old-data
    /// or the geometry cannot fit a page (see [`crate::paged`]).
    pub fn paged(
        store: Box<dyn PageStore>,
        pool_pages: usize,
        page_size: usize,
        leaf_capacity: usize,
        internal_capacity: usize,
    ) -> Self {
        Arena {
            backend: Backend::Paged(PagedNodes::new(
                store,
                pool_pages,
                page_size,
                leaf_capacity,
                internal_capacity,
            )),
        }
    }

    /// Opens a paged arena from the page-file image that
    /// [`to_image`](Self::to_image) appended at byte `at` of `buf`:
    /// integrity is validated eagerly (every page CRC), node decoding is
    /// lazy (pages fault on demand, straight out of `buf`).
    pub fn from_image(
        buf: Vec<u8>,
        at: usize,
        pool_pages: usize,
        leaf_capacity: usize,
        internal_capacity: usize,
    ) -> Result<Self, Error> {
        Ok(Arena {
            backend: Backend::Paged(PagedNodes::from_image(
                buf,
                at,
                pool_pages,
                leaf_capacity,
                internal_capacity,
            )?),
        })
    }
}

impl<K, V> Default for Arena<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LeafNode;
    use crate::pool::MemPageStore;

    fn leaf(k: u64) -> Node<u64, u64> {
        let mut l = LeafNode::new();
        l.keys.push(k);
        l.vals.push(k);
        Node::Leaf(l)
    }

    fn both_backends() -> Vec<Arena<u64, u64>> {
        vec![
            Arena::new(),
            Arena::paged(Box::new(MemPageStore::new()), 4, 4096, 16, 16),
        ]
    }

    #[test]
    fn alloc_get_roundtrip() {
        for mut a in both_backends() {
            let id = a.alloc(leaf(7));
            match a.get(id) {
                Node::Leaf(l) => assert_eq!(l.keys, vec![7]),
                _ => panic!("expected leaf"),
            }
            assert_eq!(a.len(), 1);
        }
    }

    #[test]
    fn free_slots_are_recycled() {
        for mut a in both_backends() {
            let id0 = a.alloc(leaf(1));
            let _id1 = a.alloc(leaf(2));
            a.free(id0);
            assert_eq!(a.len(), 1);
            let id2 = a.alloc(leaf(3));
            assert_eq!(id2, id0, "freed slot must be reused");
            assert_eq!(a.len(), 2);
            assert_eq!(a.slot_count(), 2);
        }
    }

    #[test]
    fn get2_mut_both_orders() {
        for mut a in both_backends() {
            let x = a.alloc(leaf(1));
            let y = a.alloc(leaf(2));
            {
                let (nx, ny) = a.get2_mut(x, y);
                nx.as_leaf_mut().keys[0] = 10;
                ny.as_leaf_mut().keys[0] = 20;
            }
            {
                let (ny, nx) = a.get2_mut(y, x);
                assert_eq!(ny.as_leaf().keys[0], 20);
                assert_eq!(nx.as_leaf().keys[0], 10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn get2_mut_same_id_panics() {
        let mut a: Arena<u64, u64> = Arena::new();
        let x = a.alloc(leaf(1));
        let _ = a.get2_mut(x, x);
    }

    #[test]
    fn iter_skips_freed() {
        for mut a in both_backends() {
            let x = a.alloc(leaf(1));
            let y = a.alloc(leaf(2));
            let z = a.alloc(leaf(3));
            a.free(y);
            let ids: Vec<NodeId> = a.iter().map(|(id, _)| id).collect();
            assert_eq!(ids, vec![x, z]);
        }
    }

    #[test]
    fn begin_op_is_noop_on_slab_and_trims_paged() {
        let mut a: Arena<u64, u64> = Arena::new();
        a.alloc(leaf(1));
        a.begin_op();
        assert_eq!(a.len(), 1);
        assert!(a.pool_counters().is_none());
        assert!(!a.is_paged());
        assert!(!a.to_image(&mut Vec::new()));

        let mut p: Arena<u64, u64> = Arena::paged(Box::new(MemPageStore::new()), 2, 4096, 16, 16);
        let ids: Vec<NodeId> = (0..5).map(|i| p.alloc(leaf(i))).collect();
        assert!(p.is_paged());
        p.begin_op();
        assert!(p.resident() <= 2);
        assert!(p.pool_counters().unwrap().evictions.get() >= 3);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(p.get(*id).as_leaf().keys[0], i as u64);
        }
        let mut image = Vec::new();
        assert!(p.to_image(&mut image));
        let q: Arena<u64, u64> = Arena::from_image(image, 0, 2, 16, 16).unwrap();
        assert_eq!(q.len(), 5);
        assert_eq!(q.get(ids[3]).as_leaf().keys[0], 3);
    }
}
