//! The shared B+-tree platform.
//!
//! One tree implementation backs every index variant of the paper's
//! evaluation (§5: "all experiments use the same underlying B+-tree
//! implementation"); variants differ only in [`FastPathMode`] and the QuIT
//! feature toggles in [`TreeConfig`]. This module holds the tree struct,
//! descent routines, and read operations; ingestion lives in
//! [`crate::insert`], structure modification in [`crate::split`] and
//! [`crate::delete`], scans in [`crate::iter`].

use crate::arena::{Arena, NodeId};
use crate::config::{StorageKind, TreeConfig};
use crate::fastpath::{FastPathMode, FastPathState};
use crate::key::Key;
use crate::metrics::MetricsRegistry;
use crate::node::{LeafNode, Node};
use crate::paged::LeafPage;
use crate::pool::DEFAULT_PAGE_SIZE;
use crate::stats::{MemoryReport, Stats};

/// A sortedness-aware B+-tree. See the crate docs for the variant map
/// (classical / tail / ℓiℓ / poℓe / QuIT).
#[derive(Debug)]
pub struct BpTree<K, V> {
    pub(crate) arena: Arena<K, V>,
    pub(crate) root: NodeId,
    /// Left-most leaf (`head_id`).
    pub(crate) head: NodeId,
    /// Right-most leaf (`tail_id`).
    pub(crate) tail: NodeId,
    pub(crate) height: usize,
    pub(crate) len: usize,
    pub(crate) config: TreeConfig,
    pub(crate) mode: FastPathMode,
    pub(crate) fp: FastPathState<K>,
    pub(crate) metrics: MetricsRegistry,
    /// `top_inserts` snapshot taken at the previous leaf split — the
    /// disorder signal for split-time gap seeding: any top-insert between
    /// two splits means the stream is taking out-of-order traffic, so
    /// freshly frozen nodes should be seeded with gaps (see
    /// `split_leaf_at`). Purely sorted ingest never advances it, and
    /// never pays for a single gap.
    pub(crate) tops_at_last_split: u64,
}

impl<K: Key, V> BpTree<K, V> {
    /// Creates an empty tree with the given fast-path mode and configuration.
    ///
    /// With `TreeConfig::storage` set to [`crate::StorageKind::Paged`],
    /// nodes live in fixed-size pages behind the buffer pool: at most
    /// `pool_pages` decoded nodes stay resident between operations. That
    /// backend requires plain-old-data keys *and* values and a geometry
    /// whose largest node fits one page — both are checked here with an
    /// explicit panic message. The default [`crate::StorageKind::Arena`]
    /// accepts any `V` and is bit-for-bit the paper path.
    pub fn with_config(mode: FastPathMode, config: TreeConfig) -> Self
    where
        V: 'static,
    {
        config.assert_valid();
        let mut arena = match config.storage {
            StorageKind::Arena => Arena::new(),
            StorageKind::Paged {
                pool_pages,
                page_size,
            } => Arena::paged(
                Box::new(crate::pool::MemPageStore::new()),
                pool_pages,
                page_size,
                config.leaf_capacity,
                config.internal_capacity,
            ),
        };
        let root = arena.alloc(Node::Leaf(LeafNode::with_capacity(config.leaf_capacity)));
        let fp = FastPathState::new(mode.has_fast_path().then_some(root));
        let metrics = MetricsRegistry::new(config.metrics_level);
        BpTree {
            arena,
            root,
            head: root,
            tail: root,
            height: 1,
            len: 0,
            config,
            mode,
            fp,
            metrics,
            tops_at_last_split: 0,
        }
    }

    /// Creates an empty tree with paper-default geometry.
    pub fn new(mode: FastPathMode) -> Self
    where
        V: 'static,
    {
        Self::with_config(mode, TreeConfig::paper_default())
    }

    /// Number of entries in the index.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the index holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 for a single root leaf).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The active fast-path mode.
    #[inline]
    pub fn mode(&self) -> FastPathMode {
        self.mode
    }

    /// The tree configuration.
    #[inline]
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// Operation counters (the registry's counter block).
    #[inline]
    pub fn stats(&self) -> &Stats {
        &self.metrics.counters
    }

    /// The full metrics registry: counters, latency histograms, and the
    /// fast-path window.
    #[inline]
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Point-in-time snapshot of everything the registry records. On the
    /// paged backend the pool's hit/fault/eviction counters are folded in
    /// first, so `page_faults`/`page_evictions`/`pool_hits` are current.
    #[inline]
    pub fn metrics(&self) -> crate::stats::StatsSnapshot {
        self.sync_pool_counters();
        self.metrics.snapshot()
    }

    /// True when nodes live in fixed-size pages behind the buffer pool
    /// ([`crate::StorageKind::Paged`]).
    #[inline]
    pub fn is_paged(&self) -> bool {
        self.arena.is_paged()
    }

    /// Decoded nodes currently resident in memory. Equals the live node
    /// count on the in-memory arena; on the paged backend it is bounded
    /// by the pool budget at operation boundaries (mid-operation it can
    /// overshoot by the nodes the operation faulted in: a descent for a
    /// write or a `SortedIndex` read, every scanned leaf for the inherent
    /// `&self` scans).
    #[inline]
    pub fn resident_nodes(&self) -> usize {
        self.arena.resident()
    }

    /// Releases read-overshoot back to the pool budget. On the paged
    /// backend, `&self` reads fault pages in but never evict (eviction
    /// needs `&mut`); mutations trim at their own operation boundaries.
    /// After a long read burst, call this to drop residency back to the
    /// configured pool size. No-op on the in-memory arena.
    pub fn trim_residency(&mut self) {
        self.arena.begin_op();
    }

    /// Copies the arena's pool counters (if paged) into the registry's
    /// counter block, where snapshots and JSON export read them.
    pub(crate) fn sync_pool_counters(&self) {
        if let Some(pc) = self.arena.pool_counters() {
            self.metrics.counters.pool_hits.set(pc.hits.get());
            self.metrics.counters.page_faults.set(pc.faults.get());
            self.metrics.counters.page_evictions.set(pc.evictions.get());
        }
    }

    /// The current root-to-leaf path of the fast-path node (`fp_path`,
    /// Table 1), recomputed from parent links. Empty when the mode keeps no
    /// fast path.
    pub fn fp_path(&self) -> Vec<NodeId> {
        let Some(mut id) = self.fp_leaf() else {
            return Vec::new();
        };
        let mut path = vec![id];
        while let Some(p) = self.arena.get(id).parent() {
            path.push(p);
            id = p;
        }
        path.reverse();
        path
    }

    /// Smallest key in the index.
    pub fn min_key(&self) -> Option<K> {
        let leaf = self.arena.get(self.head).as_leaf();
        leaf.keys.first().copied()
    }

    /// Largest key in the index.
    pub fn max_key(&self) -> Option<K> {
        let leaf = self.arena.get(self.tail).as_leaf();
        leaf.keys.last().copied()
    }

    // ------------------------------------------------------------------
    // Descent
    // ------------------------------------------------------------------

    /// Right-biased descent: finds the leaf where `key` would be inserted
    /// (duplicates go right). Returns the leaf and the separator bounds
    /// `[low, high)` that the tree guarantees for it; `None` bounds are
    /// unbounded. Increments `accesses` by the number of nodes touched.
    pub(crate) fn descend(&self, key: K) -> (NodeId, Option<K>, Option<K>, u64) {
        let mut id = self.root;
        let mut low: Option<K> = None;
        let mut high: Option<K> = None;
        let mut accesses = 1u64;
        loop {
            match self.arena.get(id) {
                Node::Leaf(_) => return (id, low, high, accesses),
                Node::Free => unreachable!("descent reached a freed node"),
                Node::Internal(n) => {
                    // child i covers [keys[i-1], keys[i])
                    let i = crate::layout::search_internal(self.config.search_kind, &n.keys, key);
                    if i > 0 {
                        low = Some(n.keys[i - 1]);
                    }
                    if i < n.keys.len() {
                        high = Some(n.keys[i]);
                    }
                    id = n.children[i];
                    accesses += 1;
                }
            }
        }
    }

    /// Locates an entry with key exactly `key`, walking back through the
    /// leaf chain when a duplicate run spans leaves. Returns `(leaf, slot)`.
    pub(crate) fn locate(&self, key: K) -> Option<(NodeId, usize)> {
        let (leaf_id, _, _, accesses) = self.descend(key);
        self.locate_from(leaf_id, accesses, key)
    }

    /// [`locate`](Self::locate) from the leaf a descent of `accesses` nodes
    /// ended on.
    #[inline]
    fn locate_from(&self, mut leaf_id: NodeId, accesses: u64, key: K) -> Option<(NodeId, usize)> {
        self.metrics
            .counters
            .lookup_node_accesses
            .add_shared(accesses);
        loop {
            let leaf = self.arena.get(leaf_id).as_leaf();
            let pos = crate::layout::search_leaf(self.config.search_kind, &leaf.keys, key);
            if pos < leaf.keys.len() && leaf.keys[pos] == key {
                // `pos` may be a gap slot whose filler copies a live `key`
                // instance to its right; step to the live slot (the filler
                // rule guarantees it carries the same key).
                let live = leaf
                    .gaps
                    .next_live(pos, leaf.keys.len())
                    .expect("last physical slot is always live");
                debug_assert_eq!(leaf.keys[live], key);
                return Some((leaf_id, live));
            }
            // The first entry >= key may live in an earlier leaf when a
            // duplicate run was split across nodes.
            if pos == 0 {
                if let Some(prev) = leaf.prev {
                    let pl = self.arena.get(prev).as_leaf();
                    if pl.keys.last().is_some_and(|&k| k >= key) {
                        self.metrics.counters.lookup_node_accesses.bump_shared();
                        leaf_id = prev;
                        continue;
                    }
                }
            }
            return None;
        }
    }

    // ------------------------------------------------------------------
    // Point reads
    // ------------------------------------------------------------------

    /// Point lookup: a reference to *a* value stored under `key`
    /// (the left-most match when duplicates exist).
    pub fn get(&self, key: K) -> Option<&V> {
        let t0 = self.metrics.op_timer();
        self.metrics.counters.lookups.bump_shared();
        let (leaf_id, _, _, accesses) = self.descend(key);
        let found = self.value_from(leaf_id, accesses, key);
        self.metrics.record_get_latency(t0);
        found
    }

    /// The left-most value under `key`, searching from the leaf a descent
    /// of `accesses` nodes ended on.
    #[inline]
    fn value_from(&self, leaf_id: NodeId, accesses: u64, key: K) -> Option<&V> {
        self.locate_from(leaf_id, accesses, key)
            .map(|(leaf_id, pos)| {
                // locate returns the right-most reachable match leaf; step left
                // to the run head so `get` is deterministic under duplicates.
                let (leaf_id, pos) = self.run_head(leaf_id, pos, key);
                &self.arena.get(leaf_id).as_leaf().vals[pos]
            })
    }

    /// [`get`](Self::get) returning an owned value — the `SortedIndex`
    /// point read, which needs no frame to point into. Internal nodes are
    /// visited (and, on the paged backend, fault and install) as in `get`;
    /// a leaf that is *not resident* is answered from its page where the
    /// store keeps it ([`LeafPage`]), with the same answer and the same
    /// `lookups` / `lookup_node_accesses` as the faulting path. When the
    /// page alone cannot decide ([`Self::get_in_page`]) the leaf faults in
    /// and the chain walk of `get` runs from it.
    pub(crate) fn get_cloned(&self, key: K) -> Option<V>
    where
        V: Clone,
    {
        let t0 = self.metrics.op_timer();
        self.metrics.counters.lookups.bump_shared();
        let mut id = self.root;
        let mut accesses = 1u64;
        let found = loop {
            let Node::Internal(n) = self.arena.get(id) else {
                break self.value_from(id, accesses, key).cloned();
            };
            id = n.children[crate::layout::search_internal(self.config.search_kind, &n.keys, key)];
            accesses += 1;
            let cold = self
                .arena
                .read_cold_leaf(id, |page| Self::get_in_page(page, key));
            if let Some(answer) = cold {
                self.metrics
                    .counters
                    .lookup_node_accesses
                    .add_shared(accesses);
                break answer;
            }
        };
        self.metrics.record_get_latency(t0);
        found
    }

    /// What a leaf page alone says about `key`: `Some` of the left-most
    /// live match or of its absence, or `None` when it cannot decide — the
    /// match or the insertion point is physical slot 0 and the leaf has a
    /// `prev` link, so a duplicate run (or, after deletes, the only
    /// instance) may sit in the previous leaf.
    fn get_in_page(page: &LeafPage<'_, K, V>, key: K) -> Option<Option<V>> {
        let pos = page.lower_bound(key);
        if pos == 0 && page.prev().is_some() {
            return None;
        }
        let hit = pos < page.physical_len() && page.key(pos) == key;
        Some(hit.then(|| {
            // A gap slot's filler copies the live `key` instance to its
            // right (see `locate_from`).
            let live = page
                .next_live(pos)
                .expect("last physical slot is always live");
            page.val(live)
        }))
    }

    /// True when at least one entry with `key` exists.
    pub fn contains_key(&self, key: K) -> bool {
        self.metrics.counters.lookups.bump_shared();
        self.locate(key).is_some()
    }

    /// All values stored under `key`, in insertion-order position.
    pub fn get_all(&self, key: K) -> Vec<&V> {
        self.metrics.counters.lookups.bump_shared();
        let mut out = Vec::new();
        let Some((leaf_id, pos)) = self.locate(key) else {
            return out;
        };
        let (mut leaf_id, mut pos) = self.run_head(leaf_id, pos, key);
        loop {
            let leaf = self.arena.get(leaf_id).as_leaf();
            while pos < leaf.keys.len() && leaf.keys[pos] == key {
                if !leaf.gaps.is_gap(pos) {
                    out.push(&leaf.vals[pos]);
                }
                pos += 1;
            }
            if pos < leaf.keys.len() {
                break;
            }
            match leaf.next {
                Some(next) if self.arena.get(next).as_leaf().keys.first() == Some(&key) => {
                    leaf_id = next;
                    pos = 0;
                }
                _ => break,
            }
        }
        out
    }

    /// Walks to the first *live* slot of the duplicate run containing
    /// `(leaf, pos)` for `key`.
    pub(crate) fn run_head(&self, mut leaf_id: NodeId, mut pos: usize, key: K) -> (NodeId, usize) {
        loop {
            let leaf = self.arena.get(leaf_id).as_leaf();
            while pos > 0 && leaf.keys[pos - 1] == key {
                pos -= 1;
            }
            if pos == 0 {
                if let Some(prev) = leaf.prev {
                    let pl = self.arena.get(prev).as_leaf();
                    // The last physical slot is always live, so equality here
                    // means a genuine entry of the run.
                    if pl.keys.last() == Some(&key) {
                        pos = pl.keys.len() - 1;
                        leaf_id = prev;
                        continue;
                    }
                }
            }
            // The back-walk may land on a gap filler copying `key`; the
            // first live slot at or after it is the true run head.
            let live = leaf
                .gaps
                .next_live(pos, leaf.keys.len())
                .expect("last physical slot is always live");
            debug_assert_eq!(leaf.keys[live], key);
            return (leaf_id, live);
        }
    }

    // ------------------------------------------------------------------
    // Memory accounting
    // ------------------------------------------------------------------

    /// Memory footprint the paged equivalent of this tree would use
    /// (Table 2 / Fig 10a): every node is charged one 4 KiB page.
    pub fn memory_report(&self) -> MemoryReport {
        let mut leaf_nodes = 0usize;
        let mut internal_nodes = 0usize;
        let mut occupied = 0usize;
        for (_, node) in self.arena.iter() {
            match node {
                Node::Leaf(l) => {
                    leaf_nodes += 1;
                    occupied += l.len();
                }
                Node::Internal(_) => internal_nodes += 1,
                Node::Free => {}
            }
        }
        let metadata_bytes = FastPathState::<K>::metadata_bytes(self.mode);
        let paged_bytes = (leaf_nodes + internal_nodes) * DEFAULT_PAGE_SIZE + metadata_bytes;
        let avg_leaf_occupancy = if leaf_nodes == 0 {
            0.0
        } else {
            occupied as f64 / (leaf_nodes * self.config.leaf_capacity) as f64
        };
        MemoryReport {
            leaf_nodes,
            internal_nodes,
            paged_bytes,
            metadata_bytes,
            avg_leaf_occupancy,
        }
    }

    /// Number of live nodes (leaves + internals).
    pub fn node_count(&self) -> usize {
        self.arena.len()
    }

    /// Drops every entry, resetting the tree to a single empty root leaf.
    /// Metrics (counters, histograms, window) are preserved; the fast path
    /// re-arms on the fresh root.
    pub fn clear(&mut self)
    where
        V: 'static,
    {
        let config = self.config.clone();
        let mode = self.mode;
        let metrics = std::mem::replace(
            &mut self.metrics,
            MetricsRegistry::new(config.metrics_level),
        );
        *self = Self::with_config(mode, config);
        self.metrics = metrics;
    }

    /// Renders the tree structure as an indented outline (diagnostics; not
    /// for large trees). Keys are elided to first/last per node.
    pub fn dump_structure(&self) -> String {
        let mut out = String::new();
        self.dump_node(self.root, 0, &mut out);
        out
    }

    fn dump_node(&self, id: NodeId, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        match self.arena.get(id) {
            Node::Internal(n) => {
                let _ = writeln!(
                    out,
                    "{pad}internal {id:?}: {} keys [{:?} .. {:?}]",
                    n.keys.len(),
                    n.keys.first(),
                    n.keys.last()
                );
                for &c in &n.children {
                    self.dump_node(c, depth + 1, out);
                }
            }
            Node::Leaf(l) => {
                let marker = if self.fp.leaf() == Some(&id) {
                    " <- fast path"
                } else if self.fp.prev() == Some(&id) {
                    " <- pole_prev"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "{pad}leaf {id:?}: {}/{} entries [{:?} .. {:?}]{marker}",
                    l.len(),
                    self.config.leaf_capacity,
                    l.keys.first(),
                    l.keys.last()
                );
            }
            Node::Free => {
                let _ = writeln!(out, "{pad}FREED {id:?} (corruption)");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(mode: FastPathMode) -> BpTree<u64, u64> {
        BpTree::with_config(mode, TreeConfig::small(4))
    }

    #[test]
    fn empty_tree_reads() {
        let t = tiny(FastPathMode::None);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 1);
        assert_eq!(t.get(42), None);
        assert!(!t.contains_key(42));
        assert_eq!(t.min_key(), None);
        assert_eq!(t.max_key(), None);
        assert!(t.get_all(1).is_empty());
    }

    #[test]
    fn single_leaf_roundtrip() {
        let mut t = tiny(FastPathMode::None);
        t.insert(2, 20);
        t.insert(1, 10);
        t.insert(3, 30);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(1), Some(&10));
        assert_eq!(t.get(2), Some(&20));
        assert_eq!(t.get(3), Some(&30));
        assert_eq!(t.get(4), None);
        assert_eq!(t.min_key(), Some(1));
        assert_eq!(t.max_key(), Some(3));
    }

    #[test]
    fn duplicates_collect_all() {
        let mut t = tiny(FastPathMode::None);
        for (i, k) in [5u64, 5, 5, 5, 5, 5, 5, 5, 5].iter().enumerate() {
            t.insert(*k, i as u64);
        }
        t.insert(1, 100);
        t.insert(9, 900);
        let vals = t.get_all(5);
        assert_eq!(vals.len(), 9);
        assert!(t.contains_key(5));
        assert_eq!(t.get_all(2).len(), 0);
    }

    #[test]
    fn fp_path_reaches_root() {
        let mut t: BpTree<u64, u64> = BpTree::with_config(FastPathMode::Pole, TreeConfig::small(4));
        for k in 0..100 {
            t.insert(k, k);
        }
        let path = t.fp_path();
        assert_eq!(path.first().copied(), Some(t.root));
        assert_eq!(path.last().copied(), t.fp_leaf());
        assert_eq!(path.len(), t.height());
    }

    #[test]
    fn clear_resets_but_keeps_stats() {
        let mut t: BpTree<u64, u64> = BpTree::with_config(FastPathMode::Pole, TreeConfig::small(4));
        for k in 0..100 {
            t.insert(k, k);
        }
        let fast = t.stats().fast_inserts.get();
        assert!(fast > 0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert_eq!(t.stats().fast_inserts.get(), fast);
        t.check_invariants().unwrap();
        // Reusable after clear.
        t.insert(5, 50);
        assert_eq!(t.get(5), Some(&50));
    }

    #[test]
    fn dump_structure_mentions_fast_path() {
        let mut t: BpTree<u64, u64> = BpTree::with_config(FastPathMode::Pole, TreeConfig::small(4));
        for k in 0..64 {
            t.insert(k, k);
        }
        let dump = t.dump_structure();
        assert!(dump.contains("internal"));
        assert!(dump.contains("leaf"));
        assert!(dump.contains("fast path"));
        assert!(!dump.contains("FREED"));
    }

    #[test]
    fn memory_report_counts_nodes() {
        let mut t = tiny(FastPathMode::None);
        for k in 0..64 {
            t.insert(k, k);
        }
        let m = t.memory_report();
        assert!(m.leaf_nodes >= 16, "leaves: {}", m.leaf_nodes);
        assert!(m.internal_nodes >= 1);
        assert!(m.avg_leaf_occupancy > 0.0 && m.avg_leaf_occupancy <= 1.0);
        assert_eq!(
            m.paged_bytes,
            (m.leaf_nodes + m.internal_nodes) * 4096 + m.metadata_bytes
        );
        assert_eq!(t.node_count(), m.leaf_nodes + m.internal_nodes);
    }
}
