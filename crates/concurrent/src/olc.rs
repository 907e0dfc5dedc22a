//! Raw node reads for optimistic lock coupling (OLC).
//!
//! With OLC enabled, traversal reads node contents **without holding the
//! node's lock**: take the node's version ([`RwLock::optimistic_version`]),
//! copy the interesting bytes, then [`RwLock::validate`]. When validation
//! fails the copied bytes are discarded unread; when it succeeds, no write
//! section overlapped the reads, so the copy is a consistent snapshot.
//!
//! # Safety argument
//!
//! Raw reads race with writers by design, so everything here is built on
//! three structural invariants of [`crate::ConcurrentTree`]:
//!
//! 1. **Nodes are immortal while the tree lives.** Splits only add nodes,
//!    deletes are lazy (no merges), and a replaced root stays linked as a
//!    child — so a node pointer obtained from the tree at any time remains
//!    dereferenceable until the tree is dropped (which requires `&mut`, i.e.
//!    no concurrent readers).
//! 2. **Node buffers are pinned** (see the `node` module docs): a node's
//!    `Vec` allocations are created with their maximum-ever capacity and
//!    never reallocated in place; the one growth case swaps buffers and
//!    retires the old allocation to a tree-level keep-alive list. Every
//!    leaf buffer therefore holds at least `leaf_capacity + 1` slots and
//!    every internal buffer at least its pinned reservation, alive for the
//!    tree's lifetime.
//! 3. **A node's discriminant (leaf vs internal) never changes** after
//!    construction, so matching on the enum without a lock is stable.
//!
//! Under those invariants every raw access below stays within a live
//! allocation even when it races a writer. The racing loads themselves go
//! through [`atomic_read`], a word-wise `Relaxed` atomic copy (the
//! "atomic memcpy" idiom), so the read side contains no plain or volatile
//! load that races a store — each word observed is a value some writer
//! actually published. What the memory model still does not fully bless is
//! the *write* side (writers mutate through `&mut` with plain stores); that
//! residual gray area is the same one production OLC trees (LeanStore,
//! Umbra, crossbeam's `SeqLock`) live with, and it is confined to this
//! module.
//!
//! Two typed gates make the copied bytes safe to *use*:
//!
//! * **Keys** may be torn across words, so materializing one as a `K`
//!   requires every bit pattern to be valid — exactly the contract of the
//!   [`quit_core::AnyBitPattern`] supertrait of [`Key`]. A torn key can
//!   still compare arbitrarily (or panic, e.g. NaN inside `OrderedF64`);
//!   both are safe, and the result is discarded once validation fails.
//! * **Values** are copied as `MaybeUninit` bytes and only interpreted
//!   after validation — and only when `V` has **no drop glue**
//!   (`!needs_drop::<V>()`). Validation proves the snapshot is consistent,
//!   but it does not keep the original value alive: a concurrent delete
//!   may drop it right after `validate`. With no drop glue that destruction
//!   releases nothing, so the snapshot aliases no freeable heap; for
//!   heap-owning values ([`LeafRead::NeedsLatch`]) the caller re-reads
//!   under the leaf's shared latch instead.

use crate::node::{CNode, NodeRef};
use crate::sync::RwLock;
use quit_core::Key;
use std::mem::{align_of, size_of, MaybeUninit};
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// A validation failure: the bracket raced a write section; restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Conflict;

/// Outcome of one optimistic routing step at `node`.
pub(crate) enum Routed<H> {
    /// Descend into this child, whose optimistic version is the `u64`.
    Child(H, u64),
    /// The node is a leaf; the caller handles it (raw read or latch).
    Leaf,
}

/// Routing target of a descent: a concrete key, or the leftmost child
/// (unbounded range start).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Target<K> {
    /// Right-biased routing to `key` (`partition_point(sep <= key)`),
    /// matching the pessimistic descent.
    Key(K),
    /// Always take child 0.
    Leftmost,
}

/// Copies `*src` with word-wise `Relaxed` atomic loads ("atomic memcpy").
///
/// This is the one primitive every racing read in this module goes
/// through. Unlike `ptr::read_volatile`, each chunk is a real atomic load,
/// so a load racing an (atomic) store is defined behavior and yields a
/// value that was actually stored; the copy as a whole may still be torn
/// *across* chunks, which is why callers only trust it after
/// [`RwLock::validate`] (or via a typed gate such as `AnyBitPattern`).
/// `Relaxed` suffices: the `Acquire` fence inside `validate` orders every
/// one of these loads before the version re-load (seqlock recipe).
///
/// # Safety
///
/// `src` must be non-null, aligned for `T`, and point into a live
/// allocation with `size_of::<T>()` readable bytes for the duration of the
/// call (the module invariants provide this). The result is a bitwise
/// snapshot: do not `assume_init` it unless torn/stale bytes are valid for
/// `T`, and never drop it.
unsafe fn atomic_read<T>(src: *const T) -> MaybeUninit<T> {
    let mut out = MaybeUninit::<T>::uninit();
    let size = size_of::<T>();
    let align = align_of::<T>();
    let dst = out.as_mut_ptr().cast::<u8>();
    let src = src.cast::<u8>();
    // Chunk at the widest atomic granule `T`'s layout guarantees: every
    // chunk offset is a multiple of the granule, so each load is aligned.
    macro_rules! chunks {
        ($atom:ty, $prim:ty) => {{
            let step = size_of::<$prim>();
            let mut off = 0;
            while off < size {
                let word = (*src.add(off).cast::<$atom>()).load(Ordering::Relaxed);
                dst.add(off).cast::<$prim>().write(word);
                off += step;
            }
        }};
    }
    if align >= align_of::<AtomicUsize>() && size.is_multiple_of(size_of::<usize>()) {
        chunks!(AtomicUsize, usize)
    } else if align >= 4 && size.is_multiple_of(4) {
        chunks!(AtomicU32, u32)
    } else if align >= 2 && size.is_multiple_of(2) {
        chunks!(AtomicU16, u16)
    } else {
        chunks!(AtomicU8, u8)
    }
    out
}

/// Copies a `Vec`'s header (data pointer + length) without locking.
///
/// # Safety
///
/// `vec` must point into a node covered by the module invariants: each
/// header word read is one a writer actually published (a racing buffer
/// swap yields old or new words, each field of which belongs to a live
/// pinned allocation's header — in particular the data pointer is always
/// one of the two valid non-null pointers, satisfying `NonNull`). The
/// returned length is *untrusted* — callers must clamp it to the pinned
/// minimum capacity before indexing.
unsafe fn vec_header<T>(vec: *const Vec<T>) -> (*const T, usize) {
    let copy = atomic_read(vec);
    // Never dropped (MaybeUninit): this is a bitwise alias of the real Vec.
    let alias = copy.assume_init_ref();
    (alias.as_ptr(), alias.len())
}

/// `partition_point` over a raw key slice with racing atomic element loads:
/// the internal-node routing step.
///
/// Probes follow the branchless fixed-trip schedule from
/// [`quit_core::branchless_partition_point_by`] — the scalar data-parallel
/// search, never the SIMD one: each element must go through
/// [`atomic_read`], so wide vector loads on this racing memory are off the
/// table regardless of the tree's configured [`quit_core::SearchKind`].
/// Leaf lookups ([`leaf_get`]) run the key-guided
/// [`quit_core::guided_partition_point_by`] over the same atomic loads
/// instead; routing keeps this ladder, because guiding it measured slower.
///
/// # Safety
///
/// `ptr..ptr+len` must stay within one live allocation (caller clamps
/// `len`). Keys may be torn mid-write — materializing them is sound
/// because [`Key`]'s `AnyBitPattern` supertrait guarantees every bit
/// pattern is a valid `K` — and the result is only meaningful once the
/// caller validates the node version.
unsafe fn raw_partition_point<K: Key>(
    ptr: *const K,
    len: usize,
    pred: impl Fn(&K) -> bool,
) -> usize {
    quit_core::branchless_partition_point_by(len, |i| {
        let k = atomic_read(ptr.add(i)).assume_init();
        pred(&k)
    })
}

/// Starts loading the cache line at `p` without reading it, so a
/// lookup's miss on the value slot its key search predicts overlaps the
/// key probes. A hint only: it reads no memory the model can see, and is
/// a no-op off x86-64.
#[inline]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch never faults and performs no architectural load.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Copies the `Arc` in `slot` without touching its refcount, returning the
/// raw pointer to its `RwLock`.
///
/// # Safety
///
/// `slot` must be in-capacity of a live children buffer. The word read may
/// be stale or a mid-`memmove` duplicate of a neighbour, but it is always
/// *some* node handle that was linked into the tree, hence live (invariant
/// 1); misrouting is caught by version validation. The `MaybeUninit` copy
/// is never dropped, so the refcount is untouched.
unsafe fn child_ptr_at<K, V>(slot: *const NodeRef<K, V>) -> *const RwLock<CNode<K, V>> {
    let copy = atomic_read(slot);
    Arc::as_ptr(copy.assume_init_ref())
}

/// Like [`child_ptr_at`] but returns an owned handle (refcount bumped).
///
/// # Safety
///
/// Same as [`child_ptr_at`]; cloning is sound because the aliased `Arc` is
/// live with strong count ≥ 1 (the tree links it).
unsafe fn child_arc_at<K, V>(slot: *const NodeRef<K, V>) -> NodeRef<K, V> {
    let copy = atomic_read(slot);
    NodeRef::clone(copy.assume_init_ref())
}

/// Reads the root pointer optimistically, returning a borrowed node handle
/// with no refcount traffic. `None` = the root cell is write-locked or was
/// swapped mid-read; restart.
///
/// The returned borrow is tied to the root cell's borrow, i.e. to the tree
/// borrow — exactly the span for which invariant 1 keeps every node alive.
pub(crate) fn root_ref<K: Key, V>(cell: &RwLock<NodeRef<K, V>>) -> Option<&RwLock<CNode<K, V>>> {
    let v = cell.optimistic_version()?;
    // SAFETY: the cell always holds a live NodeRef; a racing root swap is
    // caught by the validate below and the word itself is a valid handle
    // either way (invariant 1), live for the tree borrow. The copy is
    // never dropped (no refcount traffic).
    let node = unsafe {
        let copy = atomic_read(cell.data_ptr());
        &*Arc::as_ptr(copy.assume_init_ref())
    };
    cell.validate(v).then_some(node)
}

/// Owned-handle flavour of [`root_ref`] for descents that need `Arc`s
/// (insert needs the leaf handle for poℓe maintenance, range for its
/// iterator guards).
pub(crate) fn root_arc<K: Key, V>(cell: &RwLock<NodeRef<K, V>>) -> Option<NodeRef<K, V>> {
    let v = cell.optimistic_version()?;
    // SAFETY: as in `root_ref`; cloning a live Arc is sound.
    let arc = unsafe {
        let copy = atomic_read(cell.data_ptr());
        NodeRef::clone(copy.assume_init_ref())
    };
    cell.validate(v).then_some(arc)
}

/// One optimistic routing step: if `node` (read under version `v`) is
/// internal, pick the child for `target`, read the **child's** version,
/// then validate the **parent** — the OLC hand-over-hand order that makes
/// the child version meaningful before the parent is released.
///
/// Generic over how the child handle is materialized so the hot `get` path
/// can stay refcount-free (raw pointers) while insert/range clone `Arc`s.
fn route_step<K: Key, V, H>(
    node: &RwLock<CNode<K, V>>,
    v: u64,
    target: Target<K>,
    materialize: impl Fn(*const NodeRef<K, V>) -> (H, *const RwLock<CNode<K, V>>),
) -> Result<Routed<H>, Conflict> {
    // SAFETY: discriminant is stable (invariant 3); field reads below are
    // atomic copies within pinned live buffers (invariants 1–2), and the
    // result is discarded unless `validate` succeeds.
    unsafe {
        let (keys, children) = match &*node.data_ptr() {
            CNode::Leaf { .. } => {
                // Leaf-ness is stable; no validation needed to report it.
                return Ok(Routed::Leaf);
            }
            CNode::Internal { keys, children } => (keys as *const Vec<K>, children as *const _),
        };
        let (kptr, klen) = vec_header(keys);
        let (cptr, clen) = vec_header::<NodeRef<K, V>>(children);
        if clen == 0 {
            return Err(Conflict); // torn header; cannot happen at rest
        }
        // Internal buffers are pinned at `internal_capacity + 1` keys and
        // `internal_capacity + 2` children; torn lengths are old-or-new
        // values and thus already in-capacity, but clamp the routing index
        // to the children length actually read so the slot access stays
        // in-bounds even if the two headers disagree.
        let i = match target {
            Target::Leftmost => 0,
            Target::Key(key) => raw_partition_point(kptr, klen.min(clen - 1), |k| *k <= key),
        };
        let (handle, child_ptr) = materialize(cptr.add(i.min(clen - 1)));
        let child = &*child_ptr;
        let Some(cv) = child.optimistic_version() else {
            return Err(Conflict);
        };
        if !node.validate(v) {
            return Err(Conflict);
        }
        Ok(Routed::Child(handle, cv))
    }
}

/// [`route_step`] returning a borrowed child handle (no refcount traffic)
/// — the point-lookup hot path. The child borrow inherits the parent's
/// lifetime, which is bounded by the tree borrow (invariant 1).
pub(crate) fn route_step_ref<K: Key, V>(
    node: &RwLock<CNode<K, V>>,
    v: u64,
    target: Target<K>,
) -> Result<Routed<&RwLock<CNode<K, V>>>, Conflict> {
    route_step(node, v, target, |slot| {
        // SAFETY: `slot` is in-capacity per route_step's clamping, and the
        // node behind it is live for the tree borrow (invariant 1).
        let p = unsafe { child_ptr_at(slot) };
        (unsafe { &*p }, p)
    })
}

/// [`route_step`] returning an owned child handle.
pub(crate) fn route_step_arc<K: Key, V>(
    node: &RwLock<CNode<K, V>>,
    v: u64,
    target: Target<K>,
) -> Result<Routed<NodeRef<K, V>>, Conflict> {
    route_step(node, v, target, |slot| {
        // SAFETY: `slot` is in-capacity per route_step's clamping.
        let arc = unsafe { child_arc_at(slot) };
        let p = Arc::as_ptr(&arc);
        (arc, p)
    })
}

/// Outcome of a latch-free leaf point lookup.
pub(crate) enum LeafRead<V> {
    /// Key present; the value was copied and validated.
    Hit(V),
    /// Key absent (validated).
    Miss,
    /// The leaf cannot be read latch-free; re-read it under a shared
    /// latch. Two triggers: the value type owns heap (`needs_drop::<V>()`
    /// — a post-validate clone of a raw snapshot could chase pointers a
    /// concurrent delete already freed), or the leaf has absorbed overflow
    /// past its pinned reservation (the uniform-key case), so the
    /// pinned-minimum index clamp no longer covers it.
    NeedsLatch,
    /// A write section raced the read; restart.
    Conflict,
}

/// Latch-free point lookup in the leaf behind `node`, read under version
/// `v`. `leaf_capacity` is the tree's configured leaf capacity — the pinned
/// buffer reservation is `leaf_capacity + 1`, so any in-range index below
/// that is in-capacity of **every** leaf buffer, past or present.
///
/// The key search is [`quit_core::guided_partition_point_by`]'s (every
/// index it reads is below the clamped length, and torn keys only make it
/// return a wrong slot, which validation discards), and the value slot it
/// guesses is prefetched as soon as the guess is made, so that miss
/// overlaps the key probes.
pub(crate) fn leaf_get<K: Key, V: Clone>(
    node: &RwLock<CNode<K, V>>,
    v: u64,
    key: K,
    leaf_capacity: usize,
) -> LeafRead<V> {
    if std::mem::needs_drop::<V>() {
        // Validation proves the byte snapshot is consistent, but it does
        // not keep the *original* value alive: a concurrent delete
        // (`vals.remove`) may drop it between `validate` and the clone of
        // the snapshot. For a heap-owning V that drop frees memory the
        // snapshot's internal pointers still reference — use-after-free —
        // so such values must be read under the leaf's shared latch. The
        // branch is monomorphized away for plain-data values (u64 etc.).
        return LeafRead::NeedsLatch;
    }
    // SAFETY: invariants 1–3 as in `route_step`; the value copy is held as
    // `MaybeUninit` and only interpreted after validation proves no write
    // section overlapped the reads, and `V` has no drop glue (gate above),
    // so no concurrent destruction of the original can free anything the
    // snapshot aliases.
    unsafe {
        let (keys, vals) = match &*node.data_ptr() {
            CNode::Internal { .. } => return LeafRead::Conflict,
            CNode::Leaf { keys, vals, .. } => (keys as *const Vec<K>, vals as *const Vec<V>),
        };
        let (kptr, klen) = vec_header(keys);
        if klen > leaf_capacity + 1 {
            // Absorbed-overflow leaf (or a torn length): the pinned-minimum
            // clamp no longer covers it; fall back to a latched read.
            return LeafRead::NeedsLatch;
        }
        let (vptr, _) = vec_header(vals);
        // Every slot below `klen <= leaf_capacity + 1` is in-capacity of
        // every pinned keys and vals buffer, even if the headers raced.
        let pos = quit_core::guided_partition_point_hinted(
            klen,
            |i| atomic_read(kptr.add(i)).assume_init(),
            key,
            |k| k < key,
            |guess| prefetch(vptr.add(guess)),
        );
        if pos < klen && atomic_read(kptr.add(pos)).assume_init() == key {
            let copy = atomic_read(vptr.add(pos));
            if node.validate(v) {
                // Validated: `copy` is a bitwise alias of a live value that
                // was not touched during our reads. Clone it; never drop
                // the alias itself (MaybeUninit never drops), and the
                // `needs_drop` gate above guarantees nothing the alias
                // points at can have been freed since.
                LeafRead::Hit(copy.assume_init_ref().clone())
            } else {
                LeafRead::Conflict
            }
        } else if node.validate(v) {
            LeafRead::Miss
        } else {
            LeafRead::Conflict
        }
    }
}
