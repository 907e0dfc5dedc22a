//! Node-granular paged storage: decoded tree nodes cached in a bounded
//! frame table over a [`PageStore`], with CLOCK eviction at operation
//! boundaries.
//!
//! This is the `StorageKind::Paged` backend behind [`crate::Arena`]. It
//! keeps the arena's reference-returning API (`get(&self) -> &Node`)
//! intact across ~135 call sites by adapting the buffer-pool pin
//! discipline to Rust's borrow checker:
//!
//! * **Reads fault, but never evict.** `get`/`get_mut` fault missing
//!   nodes in from the store. Faulting only *inserts* frames (each node
//!   is boxed, so its address never moves when the frame table grows),
//!   which keeps previously returned `&Node` references valid.
//! * **Cold leaves are read where they lie.** A reader that hands out
//!   owned values — the `SortedIndex` `get`, `range` and
//!   `range_with_stats` of [`crate::BpTree`] — needs no frame to point
//!   into. When the leaf it is about to visit is *not resident* (observed
//!   in the page table; the tag byte says whether the page is a leaf), it
//!   reads the page through [`PagedNodes::read_cold_leaf`]: a
//!   [`LeafPage`] view over the bytes the store lends. No frame is
//!   installed, nothing is allocated, nothing is evicted, the reference
//!   bits and the hot-node memo are untouched. Internal nodes — the
//!   reused part of every descent — and resident leaves go through `get`
//!   as before; so does everything reached through the inherent `&self`
//!   API, which lends `&V`.
//!
//!   Two cases fall back to the faulting path, from the leaf in question:
//!   a point read whose match or insertion point is slot 0 of a leaf with
//!   a `prev` link — a duplicate run, or after deletes the only instance,
//!   may sit in the previous leaf, so the chain walk has to run — and a
//!   scan's seek to its start bound, which faults the start leaf (and the
//!   `prev` it inspects).
//!
//!   Counter convention: a read answered in place counts one `faults` (a
//!   page was read from the store) and no `hits`; the tree counts the
//!   same `lookups` / `lookup_node_accesses` / `range_leaf_accesses` as
//!   on the faulting path. A page that declines to answer counts nothing
//!   — the fault that follows does.
//! * **Eviction happens only at operation boundaries.** The tree calls
//!   [`PagedNodes::begin_op`] (via `Arena::begin_op`) at the top of each
//!   `&mut self` operation — insert, delete, batch, and the trait-level
//!   get/range. `&mut self` is the proof that no node reference is
//!   outstanding, so dropping frames is sound. Every frame touched since
//!   the previous boundary carries an implicit *operation pin*; CLOCK
//!   (second-chance over reference bits) then evicts down to
//!   `pool_pages`, writing dirty victims through the store.
//!
//! The pool can therefore overshoot `pool_pages` *within* one operation
//! by the number of distinct nodes that operation faults in: ≈ tree height
//! for writes and for trait-level reads of any length (a scan faults only
//! its seek), plus scanned leaves for ranges through the inherent `&self`
//! API, plus everything for a full validation walk — bounded, and trimmed
//! at the next boundary.
//!
//! A one-entry *hot-node memo* names the most recently touched node and
//! holds it under a standing pin across the operation boundary, so the
//! tail leaf the sorted fast path keeps returning to is never the CLOCK
//! victim. The `inject-pin-bug` feature releases the pin one boundary
//! early with broken accounting: the hot frame becomes an eviction victim
//! whose dirty write-back is skipped (eviction believes the phantom pin
//! holder will flush it), so the next fault resurrects the node's
//! previous on-store version — updates lost to an unpinned eviction,
//! which `quit-testkit`'s pool mutation smoke must catch under pressure.
//!
//! # The byte path
//!
//! A page's bytes move at most once. A fault borrows the page where the
//! store keeps it ([`PageStore::read`] hands out a slice, not a copy) and
//! decodes each key/value/child array with one bulk copy — the leaf
//! layout is read back in one place, [`LeafPage`], which the cold reads
//! above use without decoding at all; an eviction
//! encodes into a reused buffer; a recovered arena keeps the verified
//! image as one buffer and decodes straight out of it. Residency
//! bookkeeping takes no hash probe and no scan: node ids are slab-dense,
//! so the page table is a vector indexed by id, and free frame slots sit
//! in a min-heap so a new frame takes the *lowest* free slot — the rule
//! that fixes the order CLOCK's hand meets frames in, and with it every
//! hit/fault/eviction count.
//!
//! # Values must be plain-old-data
//!
//! Pages are byte images, so evicting a node serializes its keys and
//! values. Keys already promise this ([`Key`] requires the crate's
//! `AnyBitPattern`). Values are checked at construction:
//! [`value_is_pod`] accepts exactly the fixed-width types the crate
//! implements `Key`'s byte-view contract for, and paged construction
//! panics for anything else (`String` values etc. need the in-memory
//! arena). The encode/decode functions and the [`LeafPage`] view below
//! compile for every `V` but are only ever *called* once that gate has
//! passed, which is what makes their unsafe byte copies and unaligned
//! entry reads sound.

use crate::arena::NodeId;
use crate::crc::{crc32, Crc32};
use crate::error::Error;
use crate::node::{InternalNode, LeafNode, Node};
use crate::pool::{MemPageStore, PageId, PageStore, PoolCounters};
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The sentinel encoding of `Option<NodeId>::None` in page images, and of
/// "not resident" in the page table.
const NIL: u32 = u32::MAX;

// ---------------------------------------------------------------------
// Pod gate for values
// ---------------------------------------------------------------------

/// Whether `V` is one of the fixed-width plain-old-data types paged
/// storage can serialize: the exact set this crate implements [`crate::Key`]'s
/// byte-pattern contract for. `TypeId` equality of `'static` types is
/// type equality, so a `true` here licenses the byte-copy codec below.
pub fn value_is_pod<V: 'static>() -> bool {
    use std::any::TypeId;
    let t = TypeId::of::<V>();
    t == TypeId::of::<u8>()
        || t == TypeId::of::<u16>()
        || t == TypeId::of::<u32>()
        || t == TypeId::of::<u64>()
        || t == TypeId::of::<usize>()
        || t == TypeId::of::<i8>()
        || t == TypeId::of::<i16>()
        || t == TypeId::of::<i32>()
        || t == TypeId::of::<i64>()
        || t == TypeId::of::<isize>()
        || t == TypeId::of::<crate::key::OrderedF64>()
}

/// Appends the raw bytes of `items` in one copy. Sound only for types
/// with no padding and no invalid bit patterns — the caller gates on
/// [`value_is_pod`] / `K: Key` before ever reaching this.
fn push_pods<T>(out: &mut Vec<u8>, items: &[T]) {
    // SAFETY: `items` is a live slice, so its `size_of_val` bytes are
    // readable; the pod gate rules out padding (uninitialized bytes).
    let bytes = unsafe {
        std::slice::from_raw_parts(items.as_ptr().cast::<u8>(), std::mem::size_of_val(items))
    };
    out.extend_from_slice(bytes);
}

/// Appends every `T` packed in `src` to `out` in one copy. Same gating
/// contract as [`push_pods`].
fn extend_pods<T>(out: &mut Vec<T>, src: &[u8]) {
    let n = src.len() / std::mem::size_of::<T>();
    assert_eq!(src.len(), n * std::mem::size_of::<T>(), "ragged pod array");
    out.reserve(n);
    // SAFETY: `out` has room for `n` more elements past `len()` and `src`
    // holds exactly `n * size_of::<T>()` readable bytes; a byte copy needs
    // no source alignment, and the pod gate makes every bit pattern a
    // valid `T`.
    unsafe {
        let dst = out.as_mut_ptr().add(out.len()).cast::<u8>();
        std::ptr::copy_nonoverlapping(src.as_ptr(), dst, src.len());
        out.set_len(out.len() + n);
    }
}

/// The `i`-th `T` of the packed array `bytes`, wherever it sits. Same
/// gating contract as [`push_pods`].
#[inline]
fn pod_at<T>(bytes: &[u8], i: usize) -> T {
    let size = std::mem::size_of::<T>();
    let src = &bytes[i * size..(i + 1) * size];
    // SAFETY: `src` is exactly `size_of::<T>()` readable bytes (the slice
    // bounds check above); `read_unaligned` needs no alignment — pages sit
    // at arbitrary offsets of the recovered image — and the pod gate makes
    // every bit pattern a valid `T`.
    unsafe { src.as_ptr().cast::<T>().read_unaligned() }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(bytes: &[u8], off: &mut usize) -> u32 {
    let v = u32::from_le_bytes(bytes[*off..*off + 4].try_into().expect("page underflow"));
    *off += 4;
    v
}

fn opt_id(v: u32) -> Option<NodeId> {
    (v != NIL).then_some(NodeId(v))
}

fn id_or_nil(v: Option<NodeId>) -> u32 {
    v.map_or(NIL, |id| id.0)
}

// ---------------------------------------------------------------------
// Node codec
// ---------------------------------------------------------------------

const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;

/// Byte offset, in a leaf page, of its gap-word count: after the tag and
/// the entry count and parent/next/prev `u32`s. Leaves hold no gap slots,
/// so the count is always written 0; an image whose leaf page says
/// otherwise is rejected at open ([`PagedNodes::from_image`]).
const LEAF_GAP_WORDS_AT: usize = 1 + 4 * 4;

/// Exact byte length [`encode_node`] appends for `node`.
fn encoded_len<K, V>(node: &Node<K, V>) -> usize {
    let (sk, sv) = (std::mem::size_of::<K>(), std::mem::size_of::<V>());
    match node {
        Node::Leaf(l) => 1 + 4 * 5 + l.keys.len() * (sk + sv),
        Node::Internal(n) => 1 + 4 * 3 + n.keys.len() * sk + n.children.len() * 4,
        Node::Free => unreachable!("free slots are never paged out"),
    }
}

/// Appends a node's page payload to `out` (not padded; the page image
/// layer pads and checksums), reserving its exact length first. Compiles
/// for every `K`/`V`; only ever called once construction has pod-gated
/// both.
fn encode_node<K, V>(node: &Node<K, V>, out: &mut Vec<u8>) {
    out.reserve(encoded_len(node));
    match node {
        Node::Leaf(l) => {
            out.push(TAG_LEAF);
            push_u32(out, l.keys.len() as u32);
            push_u32(out, id_or_nil(l.parent));
            push_u32(out, id_or_nil(l.next));
            push_u32(out, id_or_nil(l.prev));
            push_u32(out, 0); // gap-word count (`LEAF_GAP_WORDS_AT`)
            push_pods(out, &l.keys);
            push_pods(out, &l.vals);
        }
        Node::Internal(n) => {
            out.push(TAG_INTERNAL);
            push_u32(out, n.keys.len() as u32);
            push_u32(out, n.children.len() as u32);
            push_u32(out, id_or_nil(n.parent));
            push_pods(out, &n.keys);
            for c in &n.children {
                push_u32(out, c.0);
            }
        }
        Node::Free => unreachable!("free slots are never paged out"),
    }
}

/// Decodes a page payload back into a node: each array is one bulk copy
/// out of `bytes`. Trailing padding is ignored (the layout is
/// self-describing). Same gating contract as [`encode_node`].
fn decode_node<K, V>(bytes: &[u8]) -> Node<K, V> {
    if let Some(page) = LeafPage::<K, V>::parse(bytes) {
        return Node::Leaf(page.decode());
    }
    let mut off = 1usize;
    let n_keys = read_u32(bytes, &mut off) as usize;
    let n_children = read_u32(bytes, &mut off) as usize;
    let parent = opt_id(read_u32(bytes, &mut off));
    let mut keys = Vec::new();
    let keys_len = n_keys * std::mem::size_of::<K>();
    extend_pods(&mut keys, &bytes[off..off + keys_len]);
    off += keys_len;
    let children = bytes[off..off + n_children * 4]
        .chunks_exact(4)
        .map(|c| NodeId(u32::from_le_bytes(c.try_into().expect("4-byte chunk"))))
        .collect();
    Node::Internal(InternalNode {
        keys,
        children,
        parent,
    })
}

// ---------------------------------------------------------------------
// The typed leaf view
// ---------------------------------------------------------------------

/// A read-only typed view of a leaf page over the bytes [`PageStore::read`]
/// lends: the header is parsed once, entries are read where they lie.
/// This is the one place the leaf layout [`encode_node`] writes is read
/// back — [`decode_node`] builds its `LeafNode` from the same parse.
///
/// Only ever built once construction has pod-gated `K` and `V`
/// ([`value_is_pod`]), which is what makes the unaligned entry reads
/// sound; the two array slices are bounds-checked against the page when
/// the view is built.
pub(crate) struct LeafPage<'a, K, V> {
    len: usize,
    parent: Option<NodeId>,
    next: Option<NodeId>,
    prev: Option<NodeId>,
    keys: &'a [u8],
    vals: &'a [u8],
    _entries: std::marker::PhantomData<(K, V)>,
}

impl<'a, K, V> LeafPage<'a, K, V> {
    /// The view of page payload `bytes`, or `None` when the tag byte says
    /// the page holds an internal node. Trailing padding is ignored.
    pub(crate) fn parse(bytes: &'a [u8]) -> Option<Self> {
        match bytes[0] {
            TAG_LEAF => {}
            TAG_INTERNAL => return None,
            t => panic!("corrupt page: unknown node tag {t}"),
        }
        let mut off = 1usize;
        let len = read_u32(bytes, &mut off) as usize;
        let parent = opt_id(read_u32(bytes, &mut off));
        let next = opt_id(read_u32(bytes, &mut off));
        let prev = opt_id(read_u32(bytes, &mut off));
        let gap_words = read_u32(bytes, &mut off);
        debug_assert_eq!(gap_words, 0, "rejected at open");
        let keys_len = len * std::mem::size_of::<K>();
        let keys = &bytes[off..off + keys_len];
        let vals = &bytes[off + keys_len..off + keys_len + len * std::mem::size_of::<V>()];
        Some(LeafPage {
            len,
            parent,
            next,
            prev,
            keys,
            vals,
            _entries: std::marker::PhantomData,
        })
    }

    /// Number of entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Parent internal node.
    #[cfg(test)]
    pub(crate) fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Next leaf in key order.
    #[inline]
    pub(crate) fn next(&self) -> Option<NodeId> {
        self.next
    }

    /// Previous leaf in key order.
    #[inline]
    pub(crate) fn prev(&self) -> Option<NodeId> {
        self.prev
    }

    /// Key of slot `i`.
    #[inline]
    pub(crate) fn key(&self, i: usize) -> K {
        pod_at(self.keys, i)
    }

    /// Value of slot `i`.
    #[inline]
    pub(crate) fn val(&self, i: usize) -> V {
        pod_at(self.vals, i)
    }

    /// Appends the entries of slots `from..` to `keys` and `vals`: two
    /// bulk copies.
    pub(crate) fn copy_from(&self, from: usize, keys: &mut Vec<K>, vals: &mut Vec<V>) {
        extend_pods(keys, &self.keys[from * std::mem::size_of::<K>()..]);
        extend_pods(vals, &self.vals[from * std::mem::size_of::<V>()..]);
    }

    /// The decoded node: each array is one bulk copy out of the page.
    fn decode(&self) -> LeafNode<K, V> {
        let mut keys = Vec::new();
        let mut vals = Vec::new();
        extend_pods(&mut keys, self.keys);
        extend_pods(&mut vals, self.vals);
        LeafNode {
            keys,
            vals,
            next: self.next,
            prev: self.prev,
            parent: self.parent,
        }
    }
}

impl<K: Ord, V> LeafPage<'_, K, V> {
    /// First slot whose key is at or above `key` — the lookup convention
    /// of [`crate::layout::guided_lower_bound`].
    ///
    /// The page is cold, so what the search costs is the cache misses it
    /// chains. A bisection's probes each wait for the one before; here the
    /// first stage reads the last key of every cache line's worth of keys —
    /// independent loads, whose misses overlap — and counts the lines that
    /// lie wholly below `key`, and the second counts within the one line
    /// left, which the first stage already pulled in.
    #[inline]
    pub(crate) fn lower_bound(&self, key: K) -> usize {
        let stride = (64 / std::mem::size_of::<K>()).max(1);
        let mut lines_below = 0usize;
        let mut tail = stride - 1;
        while tail < self.len {
            lines_below += usize::from(self.key(tail) < key);
            tail += stride;
        }
        let lo = lines_below * stride;
        let hi = (lo + stride).min(self.len);
        lo + (lo..hi).filter(|&i| self.key(i) < key).count()
    }
}

/// Worst-case encoded node size for the given geometry — what paged
/// construction validates against the page size. The `+1` margins cover
/// the transient over-full states a node passes through on its way into
/// a split (splits finish within the operation, but a conservative bound
/// is free).
pub fn max_encoded_node_size<K, V>(leaf_capacity: usize, internal_capacity: usize) -> usize {
    let (sk, sv) = (std::mem::size_of::<K>(), std::mem::size_of::<V>());
    let lc = leaf_capacity + 1;
    let ic = internal_capacity + 1;
    let leaf = 1 + 4 * 5 + lc * (sk + sv);
    let internal = 1 + 4 * 3 + ic * sk + (ic + 1) * 4;
    leaf.max(internal)
}

// ---------------------------------------------------------------------
// The paged arena backend
// ---------------------------------------------------------------------

/// One resident (decoded) node. Boxing gives the node a stable heap
/// address: growing or shuffling the frame vector never moves it, which
/// is load-bearing for the `&self` fault path.
struct FrameEntry<K, V> {
    id: u32,
    node: Box<Node<K, V>>,
    ref_bit: Cell<bool>,
    dirty: Cell<bool>,
}

/// The parts `get(&self)` must mutate to fault nodes in: the frame table,
/// the page table over it, and the free-slot bookkeeping.
struct Resident<K, V> {
    frames: Vec<Option<FrameEntry<K, V>>>,
    /// Page table: frame index by node id, [`NIL`] (or past the end)
    /// when not resident. Node ids are slab-dense, so a direct-indexed
    /// vector replaces a hash probe.
    table: Vec<u32>,
    /// Every `None` slot of `frames`, lowest on top. A new frame always
    /// takes the lowest free slot (growing the table only when there is
    /// none), which fixes the order CLOCK's hand meets frames in.
    holes: BinaryHeap<Reverse<u32>>,
    /// Occupied slots of `frames`.
    count: usize,
    hand: usize,
}

impl<K, V> Resident<K, V> {
    fn new() -> Self {
        Resident {
            frames: Vec::new(),
            table: Vec::new(),
            holes: BinaryHeap::new(),
            count: 0,
            hand: 0,
        }
    }

    /// The frame slot holding node `id`, if resident.
    fn slot_of(&self, id: u32) -> Option<usize> {
        match self.table.get(id as usize) {
            Some(&idx) if idx != NIL => Some(idx as usize),
            _ => None,
        }
    }

    /// Puts `entry` in the lowest free slot and maps its id there.
    fn install(&mut self, entry: FrameEntry<K, V>) -> usize {
        let id = entry.id as usize;
        let idx = match self.holes.pop() {
            Some(Reverse(idx)) => idx as usize,
            None => {
                self.frames.push(None);
                self.frames.len() - 1
            }
        };
        if id >= self.table.len() {
            self.table.resize(id + 1, NIL);
        }
        self.table[id] = idx as u32;
        self.frames[idx] = Some(entry);
        self.count += 1;
        idx
    }

    /// Empties slot `idx` and unmaps its node.
    fn remove(&mut self, idx: usize) -> FrameEntry<K, V> {
        let entry = self.frames[idx].take().expect("removed frame is resident");
        self.table[entry.id as usize] = NIL;
        self.holes.push(Reverse(idx as u32));
        self.count -= 1;
        entry
    }
}

/// Paged node storage: a bounded cache of decoded nodes over a byte
/// [`PageStore`], one node per page, addressed by `PageId(node id)`.
/// See the module docs for the pin/eviction discipline.
pub struct PagedNodes<K, V> {
    resident: RefCell<Resident<K, V>>,
    store: RefCell<Box<dyn PageStore>>,
    /// Hot-node memo: the most recently touched node's id, held under a
    /// standing pin across operation boundaries. The `inject-pin-bug`
    /// feature drops that pin one boundary early and loses the victim's
    /// dirty write-back — see module docs.
    memo: Cell<Option<u32>>,
    /// Encode buffer reused by every eviction write-back.
    scratch: Vec<u8>,
    free: Vec<u32>,
    next_id: u32,
    live: usize,
    pool_pages: usize,
    page_size: usize,
    counters: PoolCounters,
}

impl<K, V> std::fmt::Debug for PagedNodes<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedNodes")
            .field("live", &self.live)
            .field("pool_pages", &self.pool_pages)
            .field("resident", &self.resident.borrow().count)
            .finish()
    }
}

impl<K: 'static, V: 'static> PagedNodes<K, V> {
    /// A paged arena over `store` holding at most `pool_pages` decoded
    /// nodes between operations. Panics if `K` or `V` is not
    /// plain-old-data or the geometry's worst-case node cannot fit one
    /// `page_size` page.
    pub fn new(
        store: Box<dyn PageStore>,
        pool_pages: usize,
        page_size: usize,
        leaf_capacity: usize,
        internal_capacity: usize,
    ) -> Self {
        assert!(
            value_is_pod::<K>(),
            "StorageKind::Paged requires plain-old-data keys; got {}",
            std::any::type_name::<K>()
        );
        assert!(
            value_is_pod::<V>(),
            "StorageKind::Paged requires plain-old-data values \
             (u8..u64, i8..i64, usize/isize, OrderedF64); got {} — \
             use the in-memory arena for heap-owning value types",
            std::any::type_name::<V>()
        );
        let need = max_encoded_node_size::<K, V>(leaf_capacity, internal_capacity);
        assert!(
            need <= page_size,
            "StorageKind::Paged: a {leaf_capacity}-entry leaf / \
             {internal_capacity}-key internal node needs up to {need} bytes \
             but pages are {page_size}; lower the capacities or raise page_size"
        );
        assert!(pool_pages >= 2, "paged storage needs pool_pages >= 2");
        PagedNodes {
            resident: RefCell::new(Resident::new()),
            store: RefCell::new(store),
            memo: Cell::new(None),
            scratch: Vec::new(),
            free: Vec::new(),
            next_id: 0,
            live: 0,
            pool_pages,
            page_size,
            counters: PoolCounters::default(),
        }
    }
}

impl<K, V> PagedNodes<K, V> {
    /// Hit/fault/eviction counters.
    pub fn counters(&self) -> &PoolCounters {
        &self.counters
    }

    /// Decoded nodes currently resident.
    pub fn resident(&self) -> usize {
        self.resident.borrow().count
    }

    /// The pool's between-operations frame budget.
    pub fn pool_pages(&self) -> usize {
        self.pool_pages
    }

    /// Length of the frame table, holes included.
    #[cfg(test)]
    pub(crate) fn frame_slots(&self) -> usize {
        self.resident.borrow().frames.len()
    }

    // -- arena API ----------------------------------------------------

    /// Stores `node` in a fresh frame and returns its id. Ids are
    /// assigned exactly like the slab backend (free-list pop, else
    /// next sequential), so tree structure is backend-independent.
    pub fn alloc(&mut self, node: Node<K, V>) -> NodeId {
        self.live += 1;
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                let id = self.next_id;
                self.next_id = self
                    .next_id
                    .checked_add(1)
                    .expect("arena overflow: > 2^32 nodes");
                id
            }
        };
        self.resident.get_mut().install(FrameEntry {
            id,
            node: Box::new(node),
            ref_bit: Cell::new(true),
            dirty: Cell::new(true),
        });
        NodeId(id)
    }

    /// Releases `id` for reuse, dropping its resident frame if any.
    pub fn free(&mut self, id: NodeId) {
        let r = self.resident.get_mut();
        if let Some(idx) = r.slot_of(id.0) {
            r.remove(idx);
        }
        // The store may keep stale bytes for this id; they are
        // unreachable (the id is on the free list) and get overwritten
        // when the id is recycled and its new node is first evicted.
        if self.memo.get() == Some(id.0) {
            self.memo.set(None);
        }
        self.free.push(id.0);
        self.live -= 1;
    }

    /// Shared access to a node, faulting it in from the store if not
    /// resident. Never evicts (see the module docs for why).
    pub fn get(&self, id: NodeId) -> &Node<K, V> {
        let ptr = self.frame_ptr(id);
        // SAFETY: the pointee is heap-boxed, so it never moves while the
        // frame table changes under later `&self` faults (which only
        // insert frames). Frames are only *dropped* by eviction in
        // `begin_op`/`free` — both `&mut self` — at which point the
        // borrow checker guarantees this `&'self`-tied reference is
        // gone. Aliasing: `&self` methods only hand out shared refs;
        // `&mut` refs come from `&mut self` methods.
        unsafe { &*ptr }
    }

    /// Exclusive access to a node, faulting it in and marking it dirty.
    pub fn get_mut(&mut self, id: NodeId) -> &mut Node<K, V> {
        let ptr = self.frame_ptr(id).cast_mut();
        self.mark_dirty(id);
        // SAFETY: stability as in `get`; exclusivity holds because this
        // borrows `self` mutably for the reference's whole lifetime.
        unsafe { &mut *ptr }
    }

    /// Exclusive access to two distinct nodes at once (split/merge paths).
    pub fn get2_mut(&mut self, a: NodeId, b: NodeId) -> (&mut Node<K, V>, &mut Node<K, V>) {
        assert_ne!(a, b, "get2_mut requires distinct ids");
        let pa = self.frame_ptr(a).cast_mut();
        // Faulting `b` may grow the frame table but cannot move or drop
        // `a`'s boxed node.
        let pb = self.frame_ptr(b).cast_mut();
        self.mark_dirty(a);
        self.mark_dirty(b);
        // SAFETY: distinct ids map to distinct boxes; stability and
        // exclusivity as in `get_mut`.
        unsafe { (&mut *pa, &mut *pb) }
    }

    /// Reads node `id` where it lies: when the node is **not resident**
    /// and its page is a leaf, runs `read` over the [`LeafPage`] view of
    /// the store's bytes and returns what it returns. `None` — and nothing
    /// counted — when the node is resident, its page is internal, or
    /// `read` itself declines; the caller then goes through
    /// [`get`](Self::get). A read that answers counts one fault (a page
    /// was read from the store) but installs no frame, allocates nothing,
    /// and leaves the reference bits and the hot-node memo alone.
    pub(crate) fn read_cold_leaf<R>(
        &self,
        id: NodeId,
        mut read: impl FnMut(&LeafPage<'_, K, V>) -> Option<R>,
    ) -> Option<R> {
        if self.resident.borrow().slot_of(id.0).is_some() {
            return None;
        }
        let mut answer = None;
        let stored = self
            .store
            .borrow()
            .read(PageId(id.0 as u64), &mut |bytes| {
                if let Some(page) = LeafPage::parse(bytes) {
                    answer = read(&page);
                }
            })
            .expect("page store read failed");
        assert!(stored, "access to freed or never-written node n{}", id.0);
        if answer.is_some() {
            self.counters.faults.set(self.counters.faults.get() + 1);
        }
        answer
    }

    /// Number of live nodes (resident or evicted).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no node is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total id slots ever allocated (live + free-listed).
    pub fn slot_count(&self) -> usize {
        self.next_id as usize
    }

    /// Ids of live nodes, ascending.
    fn live_ids(&self) -> impl Iterator<Item = u32> {
        let mut live = vec![true; self.next_id as usize];
        for &id in &self.free {
            live[id as usize] = false;
        }
        (0..self.next_id).filter(move |&id| live[id as usize])
    }

    /// Iterates `(id, node)` over live nodes, faulting each in. This is
    /// the debug/validation path: residency can overshoot the budget by
    /// the whole tree until the next operation boundary trims it.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node<K, V>)> {
        self.live_ids()
            .map(move |i| (NodeId(i), self.get(NodeId(i))))
    }

    // -- pin discipline ----------------------------------------------

    /// Operation boundary: every implicit operation pin from the
    /// previous operation is released, and CLOCK evicts unpinned frames
    /// (dirty ones written through the store) until at most `pool_pages`
    /// remain. The hot-node memo keeps its standing pin — unless the
    /// `inject-pin-bug` mutation releases it here, one boundary early.
    pub fn begin_op(&mut self) {
        #[cfg(not(feature = "inject-pin-bug"))]
        let standing_pin: Option<u32> = self.memo.get();
        // Planted bug: the memo's standing pin is dropped one boundary
        // early, so the hot frame becomes an eviction victim — and the
        // broken pin accounting also makes eviction believe someone else
        // still pins the frame and will flush it, so its dirty write-back
        // is skipped. The store keeps the node's *previous* page (or none
        // at all), and the next fault resurrects that stale version:
        // updates lost to an unpinned eviction, which the pool mutation
        // smoke must catch under pressure.
        #[cfg(feature = "inject-pin-bug")]
        let standing_pin: Option<u32> = None;
        #[cfg(feature = "inject-pin-bug")]
        let unflushed_hot: Option<u32> = self.memo.get();

        let r = self.resident.get_mut();
        let over = r.count.saturating_sub(self.pool_pages);
        if over == 0 {
            return;
        }
        let n = r.frames.len();
        let mut evicted = 0usize;
        let mut sweeps = 0usize;
        while evicted < over && sweeps < 2 * n + 2 {
            let here = r.hand;
            r.hand = (r.hand + 1) % n;
            sweeps += 1;
            let Some(entry) = r.frames[here].as_ref() else {
                continue;
            };
            if standing_pin == Some(entry.id) {
                continue;
            }
            if entry.ref_bit.get() {
                entry.ref_bit.set(false); // second chance
                continue;
            }
            let victim = r.remove(here);
            #[cfg(feature = "inject-pin-bug")]
            let skip_writeback = unflushed_hot == Some(victim.id);
            #[cfg(not(feature = "inject-pin-bug"))]
            let skip_writeback = false;
            if victim.dirty.get() && !skip_writeback {
                self.scratch.clear();
                encode_node(&victim.node, &mut self.scratch);
                debug_assert!(self.scratch.len() <= self.page_size);
                self.store
                    .get_mut()
                    .write(PageId(victim.id as u64), &self.scratch)
                    .expect("page store write failed during eviction");
            }
            self.counters
                .evictions
                .set(self.counters.evictions.get() + 1);
            evicted += 1;
        }
    }

    /// Resolves `id` to a stable node pointer, faulting from the store on
    /// a miss. Shared by `get`/`get_mut` (`&self` is enough: faulting
    /// only inserts frames).
    fn frame_ptr(&self, id: NodeId) -> *const Node<K, V> {
        let mut r = self.resident.borrow_mut();
        self.memo.set(Some(id.0));
        if let Some(idx) = r.slot_of(id.0) {
            let entry = r.frames[idx].as_ref().expect("mapped frame resident");
            entry.ref_bit.set(true);
            self.counters.hits.set(self.counters.hits.get() + 1);
            return &*entry.node as *const Node<K, V>;
        }
        // Fault: decode straight out of the store's bytes into a fresh
        // frame. Never evicts.
        let mut node = None;
        self.store
            .borrow()
            .read(PageId(id.0 as u64), &mut |bytes| {
                node = Some(Box::new(decode_node::<K, V>(bytes)))
            })
            .expect("page store read failed");
        let node =
            node.unwrap_or_else(|| panic!("access to freed or never-written node n{}", id.0));
        self.counters.faults.set(self.counters.faults.get() + 1);
        let idx = r.install(FrameEntry {
            id: id.0,
            node,
            ref_bit: Cell::new(true),
            dirty: Cell::new(false),
        });
        let entry = r.frames[idx].as_ref().expect("just inserted");
        &*entry.node as *const Node<K, V>
    }

    fn mark_dirty(&mut self, id: NodeId) {
        let r = self.resident.get_mut();
        if let Some(e) = r.slot_of(id.0).and_then(|idx| r.frames[idx].as_ref()) {
            e.dirty.set(true);
        }
    }

    // -- page-file image ----------------------------------------------

    /// Appends the whole arena (metadata, free list, and every live
    /// node's page) to `out` as a page-file image: the snapshot format.
    /// Each page goes straight into `out` — a dirty resident frame is
    /// encoded there, any other page is copied out of the store, which
    /// holds its current version — after one sizing pass that reserves
    /// the image's exact length. Nothing is flushed or evicted.
    pub fn to_image(&self, out: &mut Vec<u8>) {
        let live_ids: Vec<u32> = self.live_ids().collect();
        let r = self.resident.borrow();
        let store = self.store.borrow();
        let dirty_frame = |id: u32| {
            r.slot_of(id)
                .and_then(|idx| r.frames[idx].as_ref())
                .filter(|e| e.dirty.get())
        };
        let stored = |id: u32, sink: &mut dyn FnMut(&[u8])| {
            let found = store
                .read(PageId(id as u64), sink)
                .expect("page store read failed during snapshot");
            assert!(found, "live node n{id} missing from store");
        };

        let mut total = IMAGE_MAGIC.len() + 4 * (5 + self.free.len());
        for &id in &live_ids {
            total += RECORD_PREFIX_LEN;
            match dirty_frame(id) {
                Some(e) => total += encoded_len(&e.node),
                None => stored(id, &mut |bytes| total += bytes.len()),
            }
        }
        out.reserve_exact(total);

        let start = out.len();
        out.extend_from_slice(IMAGE_MAGIC);
        push_u32(out, self.page_size as u32);
        push_u32(out, self.next_id);
        push_u32(out, self.free.len() as u32);
        for f in &self.free {
            push_u32(out, *f);
        }
        push_u32(out, live_ids.len() as u32);
        let hdr_crc = crc32(&out[start..]);
        push_u32(out, hdr_crc);
        for id in live_ids {
            let at = out.len();
            push_u32(out, id);
            out.extend_from_slice(&[0u8; 8]); // len + crc, patched below
            match dirty_frame(id) {
                Some(e) => encode_node(&e.node, out),
                None => stored(id, &mut |bytes| out.extend_from_slice(bytes)),
            }
            let payload_at = at + RECORD_PREFIX_LEN;
            let len = (out.len() - payload_at) as u32;
            out[at + 4..at + 8].copy_from_slice(&len.to_le_bytes());
            let crc = record_crc(&out[at..at + 8], &out[payload_at..]);
            out[at + 8..payload_at].copy_from_slice(&crc.to_le_bytes());
        }
        debug_assert_eq!(out.len() - start, total);
    }
}

impl<K: 'static, V: 'static> PagedNodes<K, V> {
    /// Opens the page-file image that [`Self::to_image`] wrote at byte `at`
    /// of `buf` (whatever precedes it — a snapshot header — is the
    /// caller's). Validation is eager — header CRC, record framing, and
    /// every page's CRC are checked in one byte sweep, so a torn or
    /// truncated image is rejected as a whole — but *decoding* is lazy:
    /// the verified buffer is kept whole, not copied, under an
    /// `id → (offset, len)` index, and nodes decode straight out of it on
    /// demand, so recovery touches only the root and spine until reads
    /// spread out. New writes land in an in-memory overlay on top of the
    /// read-only image.
    pub fn from_image(
        buf: Vec<u8>,
        at: usize,
        pool_pages: usize,
        leaf_capacity: usize,
        internal_capacity: usize,
    ) -> Result<Self, Error> {
        let corrupt = |msg: &str| Error::corruption(format!("page image: {msg}"));
        let image = &buf[..];
        if !image.get(at..).is_some_and(|i| i.starts_with(IMAGE_MAGIC)) {
            return Err(corrupt("bad magic"));
        }
        let mut off = at + IMAGE_MAGIC.len();
        let need = |off: usize, n: usize| -> Result<(), Error> {
            if off + n > image.len() {
                Err(corrupt("truncated"))
            } else {
                Ok(())
            }
        };
        need(off, 12)?;
        let page_size = read_u32(image, &mut off) as usize;
        let next_id = read_u32(image, &mut off);
        let n_free = read_u32(image, &mut off) as usize;
        need(off, n_free * 4 + 8)?;
        let mut free = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            free.push(read_u32(image, &mut off));
        }
        let n_pages = read_u32(image, &mut off) as usize;
        let hdr_crc = crc32(&image[at..off]);
        if read_u32(image, &mut off) != hdr_crc {
            return Err(corrupt("header checksum mismatch"));
        }
        if free.len() + n_pages != next_id as usize {
            return Err(corrupt("inconsistent id accounting"));
        }
        need(off, n_pages * RECORD_PREFIX_LEN)?;
        // Eager integrity sweep over every record; decode stays lazy.
        let mut index = vec![(0usize, 0usize); next_id as usize];
        for _ in 0..n_pages {
            need(off, RECORD_PREFIX_LEN)?;
            let record = off;
            let id = read_u32(image, &mut off);
            let len = read_u32(image, &mut off) as usize;
            let crc = read_u32(image, &mut off);
            need(off, len)?;
            // The record CRC covers id and length too, so a flipped id
            // byte cannot silently remap a page to another node.
            if record_crc(&image[record..record + 8], &image[off..off + len]) != crc {
                return Err(corrupt(&format!(
                    "page n{id} checksum mismatch (torn page)"
                )));
            }
            if len == 0 {
                return Err(corrupt(&format!("page n{id} is empty")));
            }
            let payload = &image[off..off + len];
            if payload[0] == TAG_LEAF
                && payload
                    .get(LEAF_GAP_WORDS_AT..LEAF_GAP_WORDS_AT + 4)
                    .is_some_and(|w| w != [0; 4])
            {
                return Err(corrupt(&format!(
                    "leaf page n{id} carries a gap bitmap, which leaves no longer hold"
                )));
            }
            let Some(slot) = index.get_mut(id as usize) else {
                return Err(corrupt(&format!("page n{id} is not a live node id")));
            };
            if slot.1 != 0 {
                return Err(corrupt(&format!("duplicate page n{id}")));
            }
            *slot = (off, len);
            off += len;
        }
        if off != image.len() {
            return Err(corrupt("trailing bytes after last page"));
        }
        if let Some(id) = free
            .iter()
            .find(|&&id| index.get(id as usize).is_some_and(|slot| slot.1 != 0))
        {
            return Err(corrupt(&format!("page n{id} is not a live node id")));
        }
        let store = OverlayPageStore {
            image: buf,
            index,
            delta: MemPageStore::new(),
        };
        let mut arena = PagedNodes::new(
            Box::new(store),
            pool_pages,
            page_size,
            leaf_capacity,
            internal_capacity,
        );
        arena.free = free;
        arena.next_id = next_id;
        arena.live = n_pages;
        Ok(arena)
    }
}

/// Magic line opening an arena page image (the paged snapshot payload).
pub const IMAGE_MAGIC: &[u8; 6] = b"QPGA1\n";

/// Byte length of an image record's prefix: node id, payload length, CRC.
const RECORD_PREFIX_LEN: usize = 4 + 4 + 4;

/// Per-record image CRC: streams over the record's `id ‖ len` words and
/// then the page payload where they sit, so no byte of a record can flip
/// undetected and nothing is copied to checksum it.
fn record_crc(id_and_len: &[u8], payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(id_and_len);
    crc.update(payload);
    crc.finish()
}

/// A read-only page image with an in-memory write overlay: what a
/// lazily-recovered arena runs on. Reads prefer the overlay (newest
/// version wins); the base image is never modified.
#[derive(Debug)]
struct OverlayPageStore {
    /// The verified buffer the image arrived in, whole.
    image: Vec<u8>,
    /// `(offset, len)` of each node id's payload in `image`; `len == 0`
    /// where the image holds no page for the id (payloads are never
    /// empty).
    index: Vec<(usize, usize)>,
    delta: MemPageStore,
}

impl PageStore for OverlayPageStore {
    fn read(&self, id: PageId, sink: &mut dyn FnMut(&[u8])) -> std::io::Result<bool> {
        if self.delta.read(id, sink)? {
            return Ok(true);
        }
        match self.index.get(id.0 as usize) {
            Some(&(off, len)) if len != 0 => {
                sink(&self.image[off..off + len]);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn write(&mut self, id: PageId, bytes: &[u8]) -> std::io::Result<()> {
        self.delta.write(id, bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.delta.sync()
    }

    fn page_count(&self) -> usize {
        // Upper bound (overlayed pages counted once is not worth a scan).
        self.index.len() + self.delta.page_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(k: u64, v: u64) -> Node<u64, u64> {
        let mut l = LeafNode::new();
        l.keys.push(k);
        l.vals.push(v);
        Node::Leaf(l)
    }

    fn paged(pool_pages: usize) -> PagedNodes<u64, u64> {
        PagedNodes::new(Box::new(MemPageStore::new()), pool_pages, 4096, 64, 64)
    }

    fn encoded(node: &Node<u64, u64>) -> Vec<u8> {
        let mut out = Vec::new();
        encode_node(node, &mut out);
        assert_eq!(out.len(), encoded_len(node));
        assert_eq!(out.capacity(), out.len(), "exact reservation");
        out
    }

    fn image_of(a: &PagedNodes<u64, u64>) -> Vec<u8> {
        let mut image = Vec::new();
        a.to_image(&mut image);
        assert_eq!(image.capacity(), image.len(), "exact reservation");
        image
    }

    #[test]
    fn codec_roundtrips_leaf_with_links() {
        let mut l: LeafNode<u64, u64> = LeafNode::new();
        for i in 0..70u64 {
            l.keys.push(i);
            l.vals.push(i * 10);
        }
        l.parent = Some(NodeId(5));
        l.next = Some(NodeId(9));
        let node = Node::Leaf(l);
        let bytes = encoded(&node);
        let back: Node<u64, u64> = decode_node(&bytes);
        let b = back.as_leaf();
        assert_eq!(b.keys.len(), 70);
        assert_eq!(b.vals[69], 690);
        assert_eq!(b.parent, Some(NodeId(5)));
        assert_eq!(b.next, Some(NodeId(9)));
        assert_eq!(b.prev, None);
    }

    #[test]
    fn codec_roundtrips_internal() {
        let mut n: InternalNode<u64> = InternalNode::new();
        n.keys = vec![10, 20];
        n.children = vec![NodeId(1), NodeId(2), NodeId(3)];
        let node: Node<u64, u64> = Node::Internal(n);
        let back: Node<u64, u64> = decode_node(&encoded(&node));
        let b = back.as_internal();
        assert_eq!(b.keys, vec![10, 20]);
        assert_eq!(b.children, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(b.parent, None);
    }

    /// A leaf over `ranks` (ascending, duplicates allowed).
    fn view_leaf<K: crate::Key, V: Copy>(
        ranks: &[u64],
        key: fn(u64) -> K,
        val: fn(u64) -> V,
    ) -> LeafNode<K, V> {
        let mut l = LeafNode::new();
        for (i, &r) in ranks.iter().enumerate() {
            l.keys.push(key(r));
            l.vals.push(val(r * 7 + i as u64));
        }
        l.parent = Some(NodeId(ranks.len() as u32));
        l.next = (!ranks.len().is_multiple_of(3)).then_some(NodeId(77));
        l.prev = (!ranks.len().is_multiple_of(2)).then_some(NodeId(9));
        l
    }

    /// `LeafPage` over `encode_node`'s bytes agrees with `decode_node`'s
    /// `LeafNode` on everything it offers, wherever the payload sits.
    fn assert_view_matches_codec<K, V>(leaf: LeafNode<K, V>, probes: &[K])
    where
        K: crate::Key,
        V: Copy + PartialEq + std::fmt::Debug,
    {
        let mut payload = Vec::new();
        encode_node(&Node::Leaf(leaf), &mut payload);
        let Node::Leaf(want) = decode_node::<K, V>(&payload) else {
            panic!("leaf page decoded to a non-leaf");
        };
        let n = want.len();
        // Offsets 1, 3 and 13 are what the recovered image hands out:
        // payloads packed back to back behind 12-byte record prefixes.
        for offset in [0usize, 1, 3, 13] {
            let mut buf = vec![0xA5u8; offset];
            buf.extend_from_slice(&payload);
            buf.extend_from_slice(&[0x5A; 5]); // page padding is ignored
            let page = LeafPage::<K, V>::parse(&buf[offset..]).expect("a leaf page");
            assert_eq!(page.len(), n);
            assert_eq!(
                (page.parent(), page.next(), page.prev()),
                (want.parent, want.next, want.prev)
            );
            for i in 0..n {
                assert_eq!(page.key(i), want.keys[i], "key({i}) at offset {offset}");
                assert_eq!(page.val(i), want.vals[i], "val({i}) at offset {offset}");
            }
            for from in 0..=n {
                let (mut keys, mut vals) = (Vec::new(), Vec::new());
                page.copy_from(from, &mut keys, &mut vals);
                assert_eq!(keys, want.keys[from..]);
                assert_eq!(vals, want.vals[from..]);
            }
            for &probe in probes {
                assert_eq!(
                    page.lower_bound(probe),
                    want.keys.partition_point(|k| *k < probe),
                    "lower_bound({probe:?}) at offset {offset}"
                );
            }
        }
    }

    #[test]
    fn leaf_view_agrees_with_the_codec() {
        use crate::key::OrderedF64;
        const CAPACITY: usize = 120;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut sizes = vec![0, 1, 2, 63, 64, 65, CAPACITY];
        sizes.extend((0..12).map(|_| rand() as usize % CAPACITY));
        for &n in &sizes {
            // Even ranks, so every rank ± 1 is an absent probe; a third of
            // the steps repeat the rank (duplicate runs).
            let mut ranks = Vec::with_capacity(n);
            let mut r = 2 + 2 * (rand() % 5);
            for _ in 0..n {
                ranks.push(r);
                r += 2 * (rand() % 3);
            }
            let probes: Vec<u64> = ranks.iter().flat_map(|&r| [r - 1, r, r + 1]).collect();
            assert_view_matches_codec(view_leaf(&ranks, |r| r, |v| v), &probes);
            assert_view_matches_codec(
                view_leaf(&ranks, |r| r as u32, |v| OrderedF64::new(v as f64)),
                &probes.iter().map(|&p| p as u32).collect::<Vec<_>>(),
            );
            assert_view_matches_codec(
                view_leaf(&ranks, |r| OrderedF64::new(r as f64 / 2.0), |v| v as u32),
                &probes
                    .iter()
                    .map(|&p| OrderedF64::new(p as f64 / 2.0))
                    .collect::<Vec<_>>(),
            );
        }

        let mut internal: InternalNode<u64> = InternalNode::new();
        internal.keys = vec![10];
        internal.children = vec![NodeId(1), NodeId(2)];
        let bytes = encoded(&Node::Internal(internal));
        assert!(LeafPage::<u64, u64>::parse(&bytes).is_none());
    }

    #[test]
    fn pod_gate() {
        assert!(value_is_pod::<u64>());
        assert!(value_is_pod::<i32>());
        assert!(value_is_pod::<crate::key::OrderedF64>());
        assert!(!value_is_pod::<String>());
        assert!(!value_is_pod::<Vec<u8>>());
    }

    #[test]
    #[should_panic(expected = "plain-old-data")]
    fn non_pod_values_rejected_at_construction() {
        let _: PagedNodes<u64, String> =
            PagedNodes::new(Box::new(MemPageStore::new()), 8, 4096, 8, 8);
    }

    #[test]
    #[should_panic(expected = "lower the capacities")]
    fn oversized_geometry_rejected() {
        // 510 × 16 B far exceeds one 4 KiB page.
        let _: PagedNodes<u64, u64> =
            PagedNodes::new(Box::new(MemPageStore::new()), 8, 4096, 510, 510);
    }

    #[test]
    fn alloc_ids_match_direct_arena_semantics() {
        let mut a = paged(4);
        let id0 = a.alloc(leaf(1, 1));
        let _id1 = a.alloc(leaf(2, 2));
        a.free(id0);
        assert_eq!(a.len(), 1);
        let id2 = a.alloc(leaf(3, 3));
        assert_eq!(id2, id0, "freed slot must be reused, like the slab arena");
        assert_eq!(a.len(), 2);
        assert_eq!(a.slot_count(), 2);
    }

    #[test]
    fn eviction_at_op_boundary_and_fault_back() {
        let mut a = paged(2);
        let ids: Vec<NodeId> = (0..6u64).map(|i| a.alloc(leaf(i, i * 7))).collect();
        assert_eq!(a.resident(), 6, "no eviction mid-operation");
        a.begin_op();
        assert!(a.resident() <= 2, "boundary trims to the pool budget");
        assert!(a.counters().evictions.get() >= 4);
        // Every node still reads back correctly (faulting as needed).
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(a.get(*id).as_leaf().vals[0], i as u64 * 7);
        }
        assert!(a.counters().faults.get() >= 4);
        // Mutate one, force it out, fault it back: the write survived.
        a.get_mut(ids[0]).as_leaf_mut().vals[0] = 999;
        a.begin_op();
        a.begin_op();
        assert_eq!(a.get(ids[0]).as_leaf().vals[0], 999);
    }

    #[test]
    fn get2_mut_and_iter() {
        let mut a = paged(2);
        let x = a.alloc(leaf(1, 1));
        let y = a.alloc(leaf(2, 2));
        let z = a.alloc(leaf(3, 3));
        a.begin_op();
        let (nx, ny) = a.get2_mut(x, y);
        nx.as_leaf_mut().vals[0] = 11;
        ny.as_leaf_mut().vals[0] = 22;
        a.free(z);
        let got: Vec<(NodeId, u64)> = a.iter().map(|(id, n)| (id, n.as_leaf().vals[0])).collect();
        assert_eq!(got, vec![(x, 11), (y, 22)]);
    }

    #[test]
    fn image_roundtrip_is_lazy_and_validated() {
        let mut a = paged(3);
        let ids: Vec<NodeId> = (0..10u64).map(|i| a.alloc(leaf(i, i + 100))).collect();
        a.free(ids[4]);
        a.begin_op();
        // One node dirty and resident, the rest clean or evicted: the image
        // takes the frame's version of the first and the store's of the rest.
        a.get_mut(ids[2]).as_leaf_mut().vals[0] = 777;
        let image = image_of(&a);
        let b: PagedNodes<u64, u64> = PagedNodes::from_image(image.clone(), 0, 3, 64, 64).unwrap();
        assert_eq!(b.len(), 9);
        assert_eq!(b.slot_count(), 10);
        assert_eq!(b.resident(), 0, "recovery decodes nothing up front");
        assert_eq!(b.get(ids[7]).as_leaf().vals[0], 107);
        assert_eq!(b.get(ids[2]).as_leaf().vals[0], 777);
        assert_eq!(b.resident(), 2, "only the faulted nodes decoded");
        assert_eq!(b.counters().faults.get(), 2);
        // Freed id is re-allocatable in the recovered arena.
        let mut b = b;
        let re = b.alloc(leaf(50, 50));
        assert_eq!(re, ids[4]);
        // Overlay writes win over the base image after eviction.
        b.get_mut(ids[7]).as_leaf_mut().vals[0] = 1;
        b.begin_op();
        b.begin_op();
        assert_eq!(b.get(ids[7]).as_leaf().vals[0], 1);

        // The image may sit anywhere in the buffer it arrives in.
        let mut framed = vec![0xEE; 21];
        framed.extend_from_slice(&image);
        let c: PagedNodes<u64, u64> = PagedNodes::from_image(framed, 21, 3, 64, 64).unwrap();
        assert_eq!(c.get(ids[9]).as_leaf().vals[0], 109);
        assert!(PagedNodes::<u64, u64>::from_image(image.clone(), 1, 3, 64, 64).is_err());
        assert!(
            PagedNodes::<u64, u64>::from_image(image.clone(), image.len() + 1, 3, 64, 64).is_err()
        );

        // Truncation at any point must reject, not partially apply.
        for cut in [3usize, 20, image.len() / 2, image.len() - 2] {
            assert!(
                PagedNodes::<u64, u64>::from_image(image[..cut].to_vec(), 0, 3, 64, 64).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn one_flipped_bit_anywhere_in_a_record_rejects_the_image() {
        let mut a = paged(3);
        for i in 0..6u64 {
            a.alloc(leaf(i, i));
        }
        a.begin_op();
        let image = image_of(&a);
        // Walk the records: id, len, crc, then the first and last payload
        // byte of each. The streaming record CRC covers the id/len prefix,
        // so none of these can flip undetected.
        let mut at = IMAGE_MAGIC.len() + 4 * 5;
        let mut records = 0;
        while at < image.len() {
            let len = u32::from_le_bytes(image[at + 4..at + 8].try_into().unwrap()) as usize;
            let payload = at + RECORD_PREFIX_LEN;
            for byte in [at, at + 4, at + 8, payload, payload + len - 1] {
                for bit in [0, 7] {
                    let mut bad = image.clone();
                    bad[byte] ^= 1 << bit;
                    assert!(
                        PagedNodes::<u64, u64>::from_image(bad, 0, 3, 64, 64).is_err(),
                        "flip of bit {bit} at byte {byte} (record at {at}) accepted"
                    );
                }
            }
            at = payload + len;
            records += 1;
        }
        assert_eq!(records, 6);
        assert!(PagedNodes::<u64, u64>::from_image(image, 0, 3, 64, 64).is_ok());
    }

    #[test]
    fn a_leaf_page_with_gap_words_is_rejected_at_open() {
        let mut a = paged(3);
        let mut internal: InternalNode<u64> = InternalNode::new();
        internal.keys = vec![3];
        internal.children = vec![NodeId(1), NodeId(2)];
        a.alloc(Node::Internal(internal));
        for i in 0..4u64 {
            a.alloc(leaf(i, i));
        }
        a.begin_op();
        let image = image_of(&a);
        assert!(PagedNodes::<u64, u64>::from_image(image.clone(), 0, 3, 64, 64).is_ok());
        // The first leaf record: claim one gap word, re-seal its CRC.
        let mut at = IMAGE_MAGIC.len() + 4 * 5;
        let (id, payload) = loop {
            let len = u32::from_le_bytes(image[at + 4..at + 8].try_into().unwrap()) as usize;
            let payload = at + RECORD_PREFIX_LEN;
            if image[payload] == TAG_LEAF {
                break (
                    u32::from_le_bytes(image[at..at + 4].try_into().unwrap()),
                    payload,
                );
            }
            at = payload + len;
        };
        let len = u32::from_le_bytes(image[at + 4..at + 8].try_into().unwrap()) as usize;
        let mut bad = image;
        let count = payload + LEAF_GAP_WORDS_AT;
        bad[count..count + 4].copy_from_slice(&1u32.to_le_bytes());
        let crc = record_crc(&bad[at..at + 8], &bad[payload..payload + len]);
        bad[at + 8..payload].copy_from_slice(&crc.to_le_bytes());
        match PagedNodes::<u64, u64>::from_image(bad, 0, 3, 64, 64) {
            Err(Error::Corruption(msg)) => {
                assert!(msg.contains(&format!("leaf page n{id} ")), "{msg}")
            }
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a leaf page with a gap bitmap was accepted"),
        }
    }

    #[test]
    fn new_frames_take_the_lowest_free_slot() {
        // Reference: the linear scan the tracked free-slot heap replaced.
        fn lowest_hole(a: &PagedNodes<u64, u64>) -> usize {
            let r = a.resident.borrow();
            r.frames
                .iter()
                .position(Option::is_none)
                .unwrap_or(r.frames.len())
        }
        fn slot(a: &PagedNodes<u64, u64>, id: NodeId) -> usize {
            a.resident.borrow().slot_of(id.0).expect("resident")
        }
        let mut a = paged(4);
        let mut live: Vec<NodeId> = Vec::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut installs = 0;
        for step in 0..4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 8 {
                0..=2 => {
                    let want = lowest_hole(&a);
                    let id = a.alloc(leaf(step, step));
                    assert_eq!(slot(&a, id), want, "alloc at step {step}");
                    live.push(id);
                    installs += 1;
                }
                3 if !live.is_empty() => {
                    let id = live.swap_remove((x >> 8) as usize % live.len());
                    a.free(id);
                }
                4 => a.begin_op(),
                _ if !live.is_empty() => {
                    let id = live[(x >> 8) as usize % live.len()];
                    let resident = a.resident.borrow().slot_of(id.0);
                    let want = resident.unwrap_or_else(|| lowest_hole(&a));
                    a.get(id);
                    assert_eq!(slot(&a, id), want, "get at step {step}");
                    installs += resident.is_none() as usize;
                }
                _ => {}
            }
            let r = a.resident.borrow();
            assert_eq!(r.count, r.frames.iter().flatten().count());
            assert_eq!(r.holes.len(), r.frames.len() - r.count);
        }
        assert!(installs > 1000 && a.counters().evictions.get() > 500);
    }

    #[test]
    fn full_scan_keeps_the_frame_table_at_peak_residency() {
        use crate::config::{StorageKind, TreeConfig};
        use crate::variants::Variant;
        let pool = 8;
        let config = TreeConfig::small(8).with_storage(StorageKind::paged(pool));
        let mut t: crate::BpTree<u64, u64> = Variant::Quit.build(config);
        for k in 0..2000u64 {
            t.insert(k, k);
        }
        assert!(t.node_count() >= 8 * pool);
        // Sorted ingest keeps returning to the pinned tail spine, so a
        // pool an eighth of the tree evicts but still hits.
        let m = t.metrics();
        assert!(m.page_evictions > 0);
        assert!(m.pool_hit_rate() >= 0.90, "hit rate {}", m.pool_hit_rate());
        let mut peak = 0;
        for _ in 0..3 {
            t.trim_residency();
            assert!(t.resident_nodes() <= pool);
            assert_eq!(t.range(..).count(), 2000);
            // One operation, so nothing was evicted: residency now is the
            // scan's peak, and every scan after the first refills the
            // holes the trim left instead of growing the table.
            peak = peak.max(t.resident_nodes());
            assert!(peak > t.node_count() / 2);
            assert!(
                t.arena.frame_slots() <= peak,
                "{} frame slots for a peak of {peak} resident nodes",
                t.arena.frame_slots()
            );
        }
    }

    /// A paged QuIT tree over `n` keys inserted in a scattered order;
    /// value = key × 3.
    fn scattered_tree(n: u64, pool: usize) -> crate::BpTree<u64, u64> {
        use crate::config::{StorageKind, TreeConfig};
        let config = TreeConfig::small(8).with_storage(StorageKind::paged(pool));
        let mut t = crate::variants::Variant::Quit.build(config);
        for i in 0..n {
            let k = i * 7919 % n; // 7919 is prime: a permutation of 0..n
            t.insert(k, k * 3);
        }
        assert!(t.node_count() >= 8 * pool);
        t
    }

    #[test]
    fn full_scan_holds_the_pool_budget() {
        use crate::SortedIndex;
        for pool in [8, 16] {
            let mut t = scattered_tree(4000, pool);
            // Before anything trims the pool: the seek may fault one
            // root-to-leaf path and the start leaf's `prev`, the walk
            // faults nothing.
            let bar = pool + t.height() + 2;
            assert_eq!(SortedIndex::range(&mut t, ..).count(), 4000);
            assert!(t.resident_nodes() <= bar, "{} > {bar}", t.resident_nodes());
            let got: Vec<(u64, u64)> = SortedIndex::range(&mut t, 1500..2500).collect();
            assert!(t.resident_nodes() <= bar, "{} > {bar}", t.resident_nodes());
            assert_eq!(got, (1500..2500).map(|k| (k, k * 3)).collect::<Vec<_>>());
            let scan = SortedIndex::range_with_stats(&mut t, 1500..=2499);
            assert!(t.resident_nodes() <= bar, "{} > {bar}", t.resident_nodes());
            assert_eq!(scan.entries, got);
            // Fig 10c's count is the faulting scan's.
            let mut faulting = t.range(1500..=2499);
            assert_eq!(faulting.by_ref().count(), 1000);
            assert_eq!(scan.leaf_accesses, faulting.leaf_accesses());
            t.trim_residency();
            assert!(t.resident_nodes() <= pool);
        }
    }

    #[test]
    fn cold_leaf_read_installs_no_frame() {
        let mut a = paged(2);
        let mut internal: InternalNode<u64> = InternalNode::new();
        internal.keys = vec![3];
        internal.children = vec![NodeId(1), NodeId(2)];
        let inner = a.alloc(Node::Internal(internal));
        let ids: Vec<NodeId> = (0..6u64).map(|i| a.alloc(leaf(i, i * 7))).collect();
        a.begin_op();
        a.begin_op();
        let state = |a: &PagedNodes<u64, u64>| {
            let c = a.counters();
            (
                (a.resident(), a.frame_slots(), a.memo.get()),
                (c.hits.get(), c.faults.get(), c.evictions.get()),
            )
        };
        let is_resident =
            |a: &PagedNodes<u64, u64>, id: NodeId| a.resident.borrow().slot_of(id.0).is_some();
        let (frames, (hits, faults, evictions)) = state(&a);
        let mut cold_reads = 0;
        for (i, &id) in ids.iter().enumerate() {
            let resident = is_resident(&a, id);
            let got = a.read_cold_leaf(id, |page| Some((page.key(0), page.val(0))));
            assert_eq!(got, (!resident).then_some((i as u64, i as u64 * 7)));
            cold_reads += got.is_some() as u64;
            // A page that declines, and a page that is not a leaf, count
            // nothing.
            assert_eq!(a.read_cold_leaf(id, |_| None::<()>), None);
        }
        assert!(!is_resident(&a, inner));
        assert_eq!(a.read_cold_leaf(inner, |_| Some(())), None);
        assert!(cold_reads >= 4);
        assert_eq!(
            state(&a),
            (frames, (hits, faults + cold_reads, evictions)),
            "one fault per answered read; no frame, no hit, memo untouched"
        );
    }

    #[test]
    fn cold_get_answers_and_counts_like_the_faulting_path() {
        use crate::SortedIndex;
        let pool = 8;
        let build = || {
            let mut t = scattered_tree(3000, pool);
            // Duplicate runs that span leaves, and leaves whose slot 0
            // is deleted (their separator outlives it).
            for i in 0..40u64 {
                t.insert(1000, 5000 + i);
            }
            for k in (0..3000u64).step_by(8) {
                t.delete(k);
            }
            t.stats().reset();
            t
        };
        let (mut cold, mut faulting) = (build(), build());
        let height = cold.height();
        for i in 0..4000u64 {
            let k = i * 2731 % 3100;
            let got = SortedIndex::get(&mut cold, k);
            faulting.trim_residency();
            assert_eq!(got, faulting.get(k).copied(), "get({k})");
            // No leaf is installed past the budget unless the page
            // could not decide; the chain walk then faults it and its
            // `prev` (and all of a longer run: key 1000).
            assert!(k == 1000 || cold.resident_nodes() <= pool + height + 1);
        }
        let (c, f) = (cold.metrics(), faulting.metrics());
        assert_eq!(c.lookups, f.lookups);
        assert_eq!(c.lookup_node_accesses, f.lookup_node_accesses);
        assert!(
            c.page_faults > 0 && c.page_evictions < f.page_evictions,
            "cold {}/{} faulting {}/{}",
            c.page_faults,
            c.page_evictions,
            f.page_faults,
            f.page_evictions
        );
    }

    #[test]
    fn hot_node_survives_eviction_and_refill() {
        // The healthy path: hammer one node (making it the hot node),
        // evict it, refill its frame with another node, then access the
        // first node again — the fault must return the right node. Under
        // `inject-pin-bug` this exact shape goes wrong, which the testkit
        // mutation smoke asserts from the outside.
        let mut a = paged(2);
        let ids: Vec<NodeId> = (0..8u64).map(|i| a.alloc(leaf(i, i))).collect();
        for round in 0..8 {
            a.begin_op();
            let hot = ids[round % ids.len()];
            for _ in 0..3 {
                assert_eq!(a.get(hot).as_leaf().keys[0], (round % ids.len()) as u64);
            }
        }
    }
}
