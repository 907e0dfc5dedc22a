//! The concurrent QuIT / B+-tree (§4.5) with optimistic lock coupling.
//!
//! * **Reads and insert descents** are optimistic by default (OLC): every
//!   node lock carries a seqlock version word; the descent reads node
//!   contents without latching, validating child-then-parent versions
//!   hand-over-hand. For plain-data values (no drop glue) `get` is fully
//!   latch-free (the leaf value is copied and validated, never locked);
//!   heap-owning values descend latch-free but re-read the leaf under its
//!   shared latch, because a validated byte snapshot must not be cloned
//!   once a concurrent delete may have dropped the original (see
//!   `olc::leaf_get`). Inserts latch only the target leaf and
//!   re-validate via the leaf's own separator bounds. A conflicting writer
//!   triggers a restart with bounded exponential backoff; when the budget
//!   ([`OLC_MAX_RESTARTS`]) is exhausted the operation falls back
//!   to the pessimistic paths below. Restarts and fallbacks are counted in
//!   [`quit_core::Stats::olc_restarts`] / `olc_fallbacks`.
//! * **Structural writes** (splits) use classical pessimistic lock-crabbing:
//!   descend with write locks, releasing all ancestors as soon as the
//!   current node is *safe* (cannot split). Only the ancestors that may be
//!   modified stay locked. Write unlocks bump the version word, which is
//!   what invalidates overlapping optimistic brackets.
//! * **Pessimistic reads and deletes** (OLC off, or fallback) use one
//!   shared-lock crabbing descent: lock child, release parent.
//! * **Fast path**: a dedicated mutex guards the poℓe metadata. Every insert
//!   is a sorted run — a single `insert` or `upsert` is a run of one, a
//!   batch ([`ConcurrentTree::insert_batch`], `upsert_batch`) is split
//!   into its maximal non-decreasing runs — and each run goes to the poℓe
//!   a leaf chunk at a time: one metadata-mutex hold and one `try_lock` on
//!   that single leaf replace the whole descent for every entry of the
//!   chunk — the short critical section behind Fig 13's scaling advantage.
//!   The chunk's head is validated against the leaf's own separator bounds
//!   (stored in the leaf, maintained at split time) and the chunk is cut at
//!   the leaf's `high`, so stale metadata can only cost a missed
//!   fast-insert, never a misplaced key. A covered head that finds the poℓe
//!   full goes straight to the crabbing split and still counts as a fast
//!   insert (the paper's accounting); any other head the poℓe cannot take
//!   descends the tree alone, and those two paths alone split and move the
//!   poℓe. The poℓe `try_lock` composes with OLC unchanged: it is a real
//!   write lock, so it bumps the version like any other write section.
//!   [`ConcurrentTree::bulk_load`] builds a tree bottom-up from sorted
//!   input (recovery's snapshot path).
//!
//! poℓe maintenance follows Algorithm 1 (IKR-guided promotion on split) plus
//! the §4.3 reset strategy, and every such decision is made by the same
//! [`quit_core::FastPathState`] the single-threaded trees use, held under
//! the metadata mutex with `Arc` node references as its leaf handle. The
//! single-threaded-only refinements (variable split, redistribution,
//! catch-up) are intentionally not executed here: they require multi-node
//! lock choreography that the paper does not specify, and they affect
//! space, not the concurrency behaviour Fig 13 measures. [`ConcConfig`]
//! says so in the `TreeConfig` it embeds (both flags are off).

use crate::node::{CNode, NodeRef};
use crate::olc::{self, LeafRead, Routed, Target};
use crate::sync::{ArcRwLockReadGuard, ArcRwLockWriteGuard, Mutex, RwLock};
use quit_core::{
    FastPathState, FullPolePlan, Key, MetricsRegistry, NodeLayoutKind, PoleSplit, PrevLeaf,
    SlotInsert, Stats, StatsSnapshot, StorageKind, TopInsert, TreeConfig,
};
use std::ops::{Bound, ControlFlow, RangeBounds};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

type ReadGuard<K, V> = ArcRwLockReadGuard<CNode<K, V>>;
type WriteGuard<K, V> = ArcRwLockWriteGuard<CNode<K, V>>;
/// A leaf split: the node that split (its left half now) and the split in
/// the policy's terms.
type LeafSplit<K, V> = (NodeRef<K, V>, PoleSplit<K, NodeRef<K, V>>);

/// Configuration of the concurrent tree: one [`TreeConfig`] for every knob
/// it shares with the single-threaded trees (geometry, IKR scale, reset
/// threshold, metrics level, leaf layout, search kind, storage) plus the
/// three only a latched tree has. Geometry or layout overrides go through
/// the embedded value:
/// `ConcConfig::from_tree(TreeConfig::small(16).with_node_layout(..))`.
#[derive(Debug, Clone)]
pub struct ConcConfig {
    /// Private so it always describes what actually runs: `from_tree`
    /// switches off the two plans this tree never executes.
    tree: TreeConfig,
    /// Enable the poℓe fast path (off ⇒ plain concurrent B+-tree).
    pub pole_enabled: bool,
    /// Enable optimistic lock coupling for `get`/`range`/insert descents
    /// (off ⇒ pessimistic lock-crabbing everywhere, the pre-OLC behaviour).
    pub olc_enabled: bool,
}

/// Restarts an optimistic operation tolerates before falling back to the
/// pessimistic path. Backoff doubles per restart, so the budget bounds the
/// worst-case optimistic latency at well under a millisecond before the
/// operation falls back to pessimistic crabbing.
pub const OLC_MAX_RESTARTS: u32 = 12;

impl ConcConfig {
    /// The concurrent tree over `tree`'s shared knobs, poℓe and OLC on.
    ///
    /// `variable_split` and `redistribute` are switched off in the embedded
    /// value — the concurrent tree always splits 50/50 (see the module
    /// docs). `search_kind` governs latched reads and writes only (the
    /// latch-free OLC descent always uses the branchless scalar search —
    /// SIMD loads must not race writers). [`StorageKind::Paged`] is
    /// representable so one config type can describe a whole deployment,
    /// but [`ConcurrentTree::new`] rejects it: optimistic readers hold raw
    /// node pointers that a buffer pool could evict from under them. For
    /// paged storage, use the single-writer `BpTree` via
    /// `quit_durability::Durable::open_paged`.
    pub fn from_tree(tree: TreeConfig) -> Self {
        ConcConfig {
            tree: tree.with_variable_split(false).with_redistribute(false),
            pole_enabled: true,
            olc_enabled: true,
        }
    }

    /// Paper-default geometry: 510-entry nodes, IKR scale 1.5, poℓe fast
    /// path on, `T_R = ⌊√510⌋ = 22`.
    pub fn paper_default() -> Self {
        Self::from_tree(TreeConfig::paper_default())
    }

    /// A small geometry that forces frequent splits; used heavily in tests.
    pub fn small(leaf_capacity: usize) -> Self {
        Self::from_tree(TreeConfig::small(leaf_capacity))
    }

    /// The knobs shared with the single-threaded trees.
    pub fn tree_config(&self) -> &TreeConfig {
        &self.tree
    }

    /// Builder-style toggle of the poℓe fast path.
    pub fn with_pole(mut self, enabled: bool) -> Self {
        self.pole_enabled = enabled;
        self
    }

    /// Builder-style toggle of optimistic lock coupling.
    pub fn with_olc(mut self, enabled: bool) -> Self {
        self.olc_enabled = enabled;
        self
    }
}

impl Default for ConcConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A thread-safe sortedness-aware B+-tree.
pub struct ConcurrentTree<K, V> {
    /// poℓe metadata and policy, guarded by one mutex (the "lock on the
    /// fast-path metadata" of §4.5). Declared before `root` so it drops
    /// first: a leaf it still held would outlive its parent, and its
    /// successors — then owned only through `next` — would drop one
    /// nested call per leaf, overflowing the stack on a long chain.
    fp: Mutex<FastPathState<K, NodeRef<K, V>>>,
    root: RwLock<NodeRef<K, V>>,
    config: ConcConfig,
    /// Shared observability substrate — the same [`MetricsRegistry`] type
    /// `quit-core`'s trees use; every update here takes the `_shared`
    /// (`fetch_add`) flavour so counters are exact under concurrency.
    metrics: MetricsRegistry,
    len: AtomicUsize,
    /// Buffers swapped out when a uniform-key leaf outgrows its pinned
    /// reservation (the absorb-overflow case). Optimistic readers may still
    /// hold raw pointers into the old allocations, so they are kept alive
    /// here until the tree drops (geometric growth bounds the waste; the
    /// case itself needs a leaf full of one repeated key).
    retired: Mutex<Vec<(Vec<K>, Vec<V>)>>,
}

impl<K: Key, V: Clone> ConcurrentTree<K, V> {
    /// An empty tree. Panics on a [`StorageKind::Paged`] config: the
    /// optimistic readers hold raw node pointers a buffer pool could evict
    /// from under them (fallible openers like
    /// `quit_durability::TxnStore::open` surface the same restriction as a
    /// `config` error instead).
    pub fn new(config: ConcConfig) -> Self {
        Self::bulk_load(config, Vec::new())
    }

    /// Builds a tree from `entries` sorted by key (duplicates allowed),
    /// bottom-up (§5's bulk load): leaves packed full and chained in order,
    /// then each internal level over the one below, also full — no insert,
    /// latch or split. A leaf is cut only where the key strictly changes,
    /// so a duplicate run never straddles a separator; a run longer than a
    /// leaf stays whole in one dense, oversize leaf, the shape the
    /// absorb-overflow path produces. The poℓe is armed at the tail leaf,
    /// with its chain predecessor as `poℓe_prev`, so an in-order stream
    /// resumes on the fast path. Panics on unsorted input and where
    /// [`new`](Self::new) does.
    pub fn bulk_load(config: ConcConfig, mut entries: Vec<(K, V)>) -> Self {
        config.tree.assert_valid();
        assert!(
            matches!(config.tree.storage, StorageKind::Arena),
            "ConcurrentTree supports only StorageKind::Arena; for paged \
             storage use the single-writer BpTree (Durable::open_paged)"
        );
        assert!(
            entries.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk_load requires sorted input"
        );
        let cfg = &config.tree;
        let len = entries.len();
        let starts = leaf_starts(&entries, cfg.leaf_capacity);
        // The tail's predecessor, as poℓe_prev: its smallest key and size.
        let prev = match starts[..] {
            [.., a, b] => Some((entries[a].0, b - a)),
            _ => None,
        };
        // Leaves right to left, so each is built with its `next` link.
        let mut level: Vec<(Option<K>, NodeRef<K, V>)> = Vec::with_capacity(starts.len());
        let mut high = None;
        for &start in starts.iter().rev() {
            let (mut keys, mut vals) =
                CNode::leaf_buffers(cfg.leaf_capacity.max(entries.len() - start));
            for (k, v) in entries.drain(start..) {
                keys.push(k);
                vals.push(v);
            }
            let low = (start > 0).then(|| keys[0]);
            let leaf = CNode::Leaf {
                keys,
                vals,
                gaps: quit_core::GapMap::new(),
                next: level.last().map(|(_, next)| next.clone()),
                low,
                high,
            };
            level.push((low, leaf.into_ref()));
            high = low;
        }
        level.reverse();
        let mut fp = FastPathState::new(None);
        if config.pole_enabled {
            let (low, tail) = level.last().cloned().expect("at least one leaf");
            let prev = prev.map(|(min, len)| PrevLeaf {
                leaf: level[level.len() - 2].1.clone(),
                min: Some(min),
                len,
            });
            fp.repoint(tail, low, None, prev);
        }
        // Each internal node routes by the low bounds of its children after
        // the first; sizes are spread evenly so none is left with one child.
        let fanout = cfg.internal_capacity + 1;
        while level.len() > 1 {
            let nodes = level.len().div_ceil(fanout);
            let (size, extra) = (level.len() / nodes, level.len() % nodes);
            let mut below = level.into_iter();
            level = (0..nodes)
                .map(|i| {
                    let (mut keys, mut children) = CNode::internal_buffers(cfg.internal_capacity);
                    let mut low = None;
                    for (j, (child_low, child)) in below
                        .by_ref()
                        .take(size + usize::from(i < extra))
                        .enumerate()
                    {
                        if j == 0 {
                            low = child_low;
                        } else {
                            keys.push(child_low.expect("only the leftmost subtree is unbounded"));
                        }
                        children.push(child);
                    }
                    (low, CNode::Internal { keys, children }.into_ref())
                })
                .collect();
        }
        let (_, root) = level.pop().expect("one root");
        let metrics = MetricsRegistry::new(config.tree.metrics_level);
        ConcurrentTree {
            root: RwLock::new(root),
            config,
            fp: Mutex::new(fp),
            metrics,
            len: AtomicUsize::new(len),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// The configuration this tree runs.
    pub fn config(&self) -> &ConcConfig {
        &self.config
    }

    /// Entries in the tree.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Operation counters — the same [`Stats`] block `quit-core` trees
    /// expose, so harness code reads one vocabulary across families.
    pub fn stats(&self) -> &Stats {
        &self.metrics.counters
    }

    /// The full metrics registry: counters, latency histograms, and the
    /// fast-path window.
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Point-in-time snapshot of everything the registry records.
    pub fn metrics(&self) -> StatsSnapshot {
        self.metrics.snapshot()
    }

    /// Fraction of the most recent inserts that took the fast path — the
    /// live sortedness signal (approximate under concurrent writers; the
    /// counter totals are exact).
    pub fn recent_fastpath_rate(&self) -> f64 {
        self.metrics.recent_fastpath_rate()
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    /// Inserts an entry (thread-safe). Duplicate keys are kept: this never
    /// looks for an entry that is already there.
    pub fn insert(&self, key: K, value: V) {
        self.insert_one(key, value, &mut ());
    }

    /// Inserts `(key, value)` unless a live entry for `key` exists, in which
    /// case `merge(existing, value)` updates that entry in place under its
    /// leaf's write latch. Returns whether the entry existed.
    ///
    /// One descent, in `insert`'s path order (poℓe fast path → optimistic
    /// descent → crabbing), and on each path the existence check and the
    /// insert share one hold of the owning leaf's latch — so upserts of one
    /// key are atomic against each other, the check precedes any split, and
    /// `merge` runs at most once. An in-place update is not an insert: it
    /// leaves `len`, the insert counters and the poℓe/IKR state alone.
    pub fn upsert(&self, key: K, value: V, merge: impl FnOnce(&mut V, V)) -> bool {
        let mut merge = Some(merge);
        let mut once = MergeEach(|_, existing: &mut V, new| {
            (merge.take().expect("merge runs at most once"))(existing, new)
        });
        self.insert_one(key, value, &mut once);
        merge.is_none()
    }

    /// A run of one through [`batch_or`](Self::batch_or), its value moved
    /// in rather than cloned.
    fn insert_one<M: OnExisting<K, V>>(&self, key: K, value: V, existing: &mut M) {
        let mut value = Some(value);
        let take = |_: &K| value.take().expect("a run of one is placed once");
        self.batch_or(&[key], |&k| k, take, existing);
    }

    /// Inserts a batch (thread-safe), paying for sortedness once per run
    /// instead of once per key (§4.2's fast path over whole runs). Each
    /// maximal non-decreasing run goes to the poℓe leaf a chunk at a time
    /// (module docs, "Fast path"), and an entry the poℓe cannot take
    /// descends the tree alone — exactly what a per-key
    /// [`insert`](Self::insert), a run of one, does. Returns
    /// `entries.len()`.
    pub fn insert_batch(&self, entries: &[(K, V)]) -> usize {
        self.batch_or(entries, |e| e.0, |e| e.1.clone(), &mut ());
        entries.len()
    }

    /// [`insert_batch`](Self::insert_batch) with [`upsert`](Self::upsert)'s
    /// treatment of a key that already has a live entry:
    /// `merge(key, existing, value)` updates that entry in place under its
    /// leaf's write latch instead of inserting. Equivalent to a per-key
    /// `upsert` loop.
    pub fn upsert_batch(&self, entries: &[(K, V)], merge: impl FnMut(K, &mut V, V)) {
        self.upsert_batch_by(entries, |e| e.0, |e| e.1.clone(), merge);
    }

    /// [`upsert_batch`](Self::upsert_batch) over entries of another shape,
    /// read through `key` and `value`: a caller holding its batch in that
    /// shape (the MVCC write set) builds no `(K, V)` copy of it.
    pub(crate) fn upsert_batch_by<E>(
        &self,
        entries: &[E],
        key: impl Fn(&E) -> K,
        value: impl Fn(&E) -> V,
        merge: impl FnMut(K, &mut V, V),
    ) {
        self.batch_or(entries, key, value, &mut MergeEach(merge));
    }

    /// Every insert path, parameterized by what to do about an entry that
    /// already holds its key (`()` = nothing, `insert`'s behaviour): per
    /// maximal non-decreasing run, poℓe chunks while the poℓe takes the
    /// head; a head it cannot take goes down the tree alone. Each entry's
    /// value is read exactly once.
    fn batch_or<E, M: OnExisting<K, V>>(
        &self,
        entries: &[E],
        key: impl Fn(&E) -> K,
        mut value: impl FnMut(&E) -> V,
        existing: &mut M,
    ) {
        for run in entries.chunk_by(|a, b| key(a) <= key(b)) {
            let mut rest = run;
            while let Some(head) = rest.first() {
                let t0 = self.metrics.op_timer();
                let taken = match self.append_chunk(rest, &key, &mut value, existing) {
                    Chunk::Took(n) => n,
                    Chunk::PoleFull(v) => {
                        self.top_insert(key(head), v, true, existing);
                        1
                    }
                    Chunk::Missed => {
                        if let Err(v) = self.insert_olc(key(head), value(head), existing) {
                            self.top_insert(key(head), v, false, existing);
                        }
                        1
                    }
                };
                self.metrics.record_insert_latency_run(t0, taken as u64);
                rest = &rest[taken..];
            }
        }
    }

    /// The fast path: places the longest prefix of the sorted `run` that
    /// the poℓe leaf takes under one metadata-mutex hold and one
    /// `try_lock` of that leaf — the keys below the poℓe's upper bound and
    /// the leaf's own `high`, no more than the leaf's live space (one, the
    /// head, when it has none: an existing entry may still merge).
    fn append_chunk<E, M: OnExisting<K, V>>(
        &self,
        run: &[E],
        key: impl Fn(&E) -> K,
        mut value: impl FnMut(&E) -> V,
        existing: &mut M,
    ) -> Chunk<V> {
        if !self.config.pole_enabled {
            return Chunk::Missed;
        }
        let head = key(&run[0]);
        let mut fp = self.fp.lock();
        if !fp.covers(head) {
            return Chunk::Missed;
        }
        let leaf = fp.leaf().cloned().expect("covered implies leaf");
        let Some(mut g) = RwLock::try_write_arc(&leaf) else {
            return Chunk::Missed;
        };
        // Authoritative validation against the leaf's own bounds.
        if !g.covers(head) {
            return Chunk::Missed;
        }
        let space = self.config.tree.leaf_capacity.saturating_sub(g.len());
        let below =
            |bound: Option<K>| bound.map_or(run.len(), |b| run.partition_point(|e| key(e) < b));
        let n = below(fp.bounds().1)
            .min(below(g.bounds().1))
            .min(space.max(1));
        let mut inserted = 0;
        for entry in &run[..n] {
            match self.place(&mut g, key(entry), value(entry), existing) {
                Placed::Inserted => inserted += 1,
                Placed::Merged => {}
                // Only with no space, so `entry` is the head.
                Placed::Full(v) => return Chunk::PoleFull(v),
            }
        }
        if inserted > 0 {
            fp.on_covered_insert();
        }
        drop(g);
        drop(fp);
        self.count_inserts(true, inserted);
        Chunk::Took(n)
    }

    /// Places `(key, value)` in a write-latched leaf whose bounds cover
    /// `key`: merged into the live entry for `key` if `existing` looks for
    /// one and there is one, else inserted if the leaf has live space,
    /// else handed back. `insert_at` appends a key at or past the leaf's
    /// last one with one compare and a `push`, and never grows the
    /// physical array past `leaf_capacity` (at physical capacity it reuses
    /// a gap), so optimistic readers never see a reallocation of the
    /// pinned `capacity + 1` reservation.
    fn place<M: OnExisting<K, V>>(
        &self,
        leaf: &mut CNode<K, V>,
        key: K,
        value: V,
        existing: &mut M,
    ) -> Placed<V> {
        let CNode::Leaf {
            keys, vals, gaps, ..
        } = leaf
        else {
            unreachable!("entries are placed in leaves");
        };
        let kind = self.config.tree.search_kind;
        // Past the last key (the append frontier) no entry can hold `key`.
        if M::LOOKS && keys.last().is_some_and(|&last| last >= key) {
            let pos = quit_core::lower_bound(kind, keys, key);
            if pos < keys.len() && keys[pos] == key {
                let live = gaps
                    .next_live(pos, keys.len())
                    .expect("last physical slot is always live");
                existing.merge(key, &mut vals[live], value);
                // `pos..live` is the entry's filler run: gap slots copy
                // their nearest live right neighbour and a lookup's lower
                // bound lands on the first of them, so they must carry the
                // update too.
                let (fillers, rest) = vals.split_at_mut(live);
                for filler in &mut fillers[pos..] {
                    *filler = rest[0].clone();
                }
                return Placed::Merged;
            }
        }
        let cap = self.config.tree.leaf_capacity;
        if keys.len() - gaps.count() >= cap {
            return Placed::Full(value);
        }
        match quit_core::insert_at(kind, keys, vals, gaps, key, value, cap) {
            SlotInsert::Done(_) => Placed::Inserted,
            SlotInsert::Full => unreachable!("live space checked above"),
        }
    }

    /// Counts `n` inserts placed through the fast path or the tree.
    fn count_inserts(&self, fast: bool, n: usize) {
        self.len.fetch_add(n, Ordering::Relaxed);
        let counters = &self.metrics.counters;
        let counter = if fast {
            &counters.fast_inserts
        } else {
            &counters.top_inserts
        };
        counter.add_shared(n as u64);
        self.metrics.record_insert_run_shared(fast, n as u64);
    }

    /// Optimistic insert: latch-free descent, then a write lock on the
    /// target leaf only, re-validated through the leaf's own separator
    /// bounds (which partition the key space, so covering the key proves
    /// this is *the* leaf regardless of what happened during the descent).
    ///
    /// `Err(value)` returns ownership when the pessimistic path must take
    /// over: OLC is off, the leaf is full (split required) or the restart
    /// budget is exhausted.
    fn insert_olc<M: OnExisting<K, V>>(&self, key: K, value: V, existing: &mut M) -> Result<(), V> {
        if !self.config.olc_enabled {
            return Err(value);
        }
        let mut restarts = 0u32;
        loop {
            if restarts > 0 {
                self.metrics.counters.olc_restarts.bump_shared();
                if restarts > OLC_MAX_RESTARTS {
                    self.metrics.counters.olc_fallbacks.bump_shared();
                    return Err(value);
                }
                olc_backoff(restarts);
            }
            let Some(leaf) = self.descend_olc(Target::Key(key)) else {
                restarts += 1;
                continue;
            };
            let mut g = RwLock::write_arc(&leaf);
            if !g.covers(key) {
                // The leaf split (or we were misrouted) between the
                // optimistic read and the latch: restart from the root.
                drop(g);
                restarts += 1;
                continue;
            }
            match self.place(&mut g, key, value, existing) {
                Placed::Merged => return Ok(()),
                Placed::Full(value) => return Err(value),
                Placed::Inserted => {}
            }
            let bounds = g.bounds();
            drop(g);
            self.count_inserts(false, 1);
            self.settle_pole(key, false, None, leaf, bounds);
            return Ok(());
        }
    }

    /// One optimistic descent to the leaf responsible for `target`,
    /// cloning `Arc` handles level by level (used by insert and range,
    /// which need an owned leaf handle). `None` = a conflict; the caller
    /// counts the restart and retries or falls back.
    fn descend_olc(&self, target: Target<K>) -> Option<NodeRef<K, V>> {
        let mut node = olc::root_arc(&self.root)?;
        let mut v = node.optimistic_version()?;
        loop {
            match olc::route_step_arc(&node, v, target) {
                Ok(Routed::Child(child, cv)) => {
                    node = child;
                    v = cv;
                }
                Ok(Routed::Leaf) => {
                    // Between here and the caller's latch the leaf may split.
                    #[cfg(feature = "olc-test-hooks")]
                    crate::test_hooks::leaf_pause();
                    return Some(node);
                }
                Err(_) => return None,
            }
        }
    }

    /// Shared-latch crabbing from the root pointer to the leaf responsible
    /// for `target`: each node is latched before its parent is released,
    /// so the leaf returned is the right one while its latch is held. The
    /// pessimistic `get` and `range` and every `delete` descend this way.
    /// Kept out of line: inlined into `get`'s optimistic path as its
    /// fallback, it cost `txn-durable` `get_mops` 5 % (ten benchmark
    /// pairs on a 2-core x86-64 Xeon).
    #[inline(never)]
    fn descend_shared(&self, target: Target<K>) -> ReadGuard<K, V> {
        let root = self.root.read();
        let mut guard = RwLock::read_arc(&root);
        drop(root);
        loop {
            let child = match &*guard {
                CNode::Leaf { .. } => return guard,
                CNode::Internal { keys, children } => {
                    let i = match target {
                        Target::Leftmost => 0,
                        Target::Key(key) => {
                            quit_core::search_internal(self.config.tree.search_kind, keys, key)
                        }
                    };
                    children[i].clone()
                }
            };
            guard = RwLock::read_arc(&child);
        }
    }

    fn node_unsafe_for_insert(&self, n: &CNode<K, V>) -> bool {
        // Live occupancy: a gapped leaf with free fillers can still absorb
        // the insert without splitting.
        let cfg = &self.config.tree;
        let cap = if n.is_leaf() {
            cfg.leaf_capacity
        } else {
            cfg.internal_capacity
        };
        n.len() >= cap
    }

    /// Full crabbing insert. `covered` marks the covered-but-full poℓe
    /// insert, which keeps the paper's accounting as a fast insert.
    fn top_insert<M: OnExisting<K, V>>(&self, key: K, value: V, covered: bool, existing: &mut M) {
        // Lock the root pointer; it plays the role of the root's parent and
        // is released as soon as any node on the path is safe.
        let mut root_guard = Some(self.root.write());
        let mut current: NodeRef<K, V> = (**root_guard.as_ref().expect("held")).clone();
        let mut guard: WriteGuard<K, V> = RwLock::write_arc(&current);
        if !self.node_unsafe_for_insert(&guard) {
            root_guard = None;
        }
        let mut path: Vec<(NodeRef<K, V>, WriteGuard<K, V>)> = Vec::new();
        loop {
            let child = match &*guard {
                CNode::Leaf { .. } => break,
                CNode::Internal { keys, children } => {
                    let i = quit_core::search_internal(self.config.tree.search_kind, keys, key);
                    children[i].clone()
                }
            };
            let child_guard = RwLock::write_arc(&child);
            let safe = !self.node_unsafe_for_insert(&child_guard);
            path.push((current, guard));
            current = child;
            guard = child_guard;
            if safe {
                path.clear();
                root_guard = None;
            }
        }

        // `guard` is the leaf; `path` holds exactly the ancestors that may
        // change; `root_guard` is held iff the whole path may split — so
        // neither holds anything unless the leaf is full.
        let mut split = None;
        match self.place(&mut guard, key, value, existing) {
            Placed::Merged => return,
            Placed::Inserted => {}
            Placed::Full(value) => {
                match self.split_leaf(&mut guard) {
                    Some(s) => {
                        self.metrics.counters.leaf_splits.bump_shared();
                        let (right, sep) = (s.right.clone(), s.sep);
                        split = Some((current.clone(), s));
                        if key >= sep {
                            // Move to the new right node: lock it (nobody
                            // else can reach it yet through the tree, but
                            // scans via `next` can).
                            guard = RwLock::write_arc(&right);
                            current = right.clone();
                        }
                        self.propagate_split(
                            std::mem::take(&mut path),
                            root_guard.take(),
                            sep,
                            right,
                        );
                    }
                    None => {
                        // Uniform-key leaf: no legal separator exists, so
                        // the leaf absorbs the overflow. A later differing
                        // key re-opens a boundary and the next insert splits.
                        path.clear();
                        drop(root_guard.take());
                    }
                }
                // Placement just found no entry for `key`: nothing to merge.
                if let Placed::Full(value) = self.place(&mut guard, key, value, &mut ()) {
                    self.absorb_overflow(&mut guard, key, value);
                }
            }
        }
        let bounds = guard.bounds();
        drop(guard);
        self.count_inserts(covered, 1);
        self.settle_pole(key, covered, split, current, bounds);
    }

    /// Inserts into a leaf still full after its split was tried: a
    /// uniform-key leaf that cannot split, or the overfull half of one.
    /// Such a leaf is dense — gaps only exist below live capacity — and
    /// grows physically past the configured capacity.
    fn absorb_overflow(&self, leaf: &mut CNode<K, V>, key: K, value: V) {
        let CNode::Leaf {
            keys, vals, gaps, ..
        } = leaf
        else {
            unreachable!("only leaves overflow");
        };
        debug_assert!(gaps.is_dense(), "overfull leaves are dense");
        if keys.len() == keys.capacity() {
            // Growth past the pinned reservation: optimistic readers may
            // hold raw pointers into the current buffers, so swap in
            // doubled buffers and retire the old allocations instead of
            // reallocating.
            let mut new_keys = Vec::with_capacity(keys.capacity() * 2);
            let mut new_vals = Vec::with_capacity(vals.capacity().max(1) * 2);
            new_keys.append(keys);
            new_vals.append(vals);
            let old_keys = std::mem::replace(keys, new_keys);
            let old_vals = std::mem::replace(vals, new_vals);
            self.retired.lock().push((old_keys, old_vals));
        }
        let pos = quit_core::upper_bound(self.config.tree.search_kind, keys, key);
        keys.insert(pos, key);
        vals.insert(pos, value);
    }

    /// Splits the write-locked leaf near the midpoint and reports the split
    /// in the policy's terms.
    ///
    /// The cut is placed at the strict key boundary nearest the midpoint so
    /// a duplicate run never straddles the separator: routing sends
    /// `key == sep` right, so every instance of a key must live right of any
    /// separator equal to it, and separators stay strictly ascending in the
    /// parents. A leaf holding a single repeated key has no legal cut and
    /// returns `None` — the caller lets it absorb the overflow (the lazy
    /// trade-off for duplicate-heavy runs, mirroring lazy deletes).
    fn split_leaf(&self, guard: &mut WriteGuard<K, V>) -> Option<PoleSplit<K, NodeRef<K, V>>> {
        let CNode::Leaf {
            keys,
            vals,
            gaps,
            next,
            high,
            ..
        } = &mut **guard
        else {
            unreachable!("split_leaf on a leaf");
        };
        // Splits only run at live == capacity, which forces zero gaps, so
        // physical slot indices below are live indices.
        debug_assert!(gaps.is_dense(), "split target must be dense (full)");
        let pole_len = keys.len();
        let mid = pole_len / 2;
        let cut = (mid..keys.len())
            .find(|&m| keys[m - 1] < keys[m])
            .or_else(|| (1..mid).rev().find(|&m| keys[m - 1] < keys[m]))?;
        // Drain into pre-pinned buffers (no `split_off`: the left node's
        // buffers must never reallocate under optimistic readers, and the
        // right node's must start at their pinned reservation). A leaf that
        // absorbed uniform-key overflow can carry more than the pinned
        // reservation into the split; size for that plus one insert.
        let pinned = self
            .config
            .tree
            .leaf_capacity
            .max(keys.len().saturating_sub(cut) + 1);
        let (mut right_keys, mut right_vals) = CNode::leaf_buffers(pinned);
        right_keys.extend(keys.drain(cut..));
        right_vals.extend(vals.drain(cut..));
        let mut right_gaps = quit_core::GapMap::new();
        let sep = right_keys[0];
        let q = keys[0];
        if self.config.tree.node_layout == NodeLayoutKind::Gapped {
            // Gap placement from the IKR prediction (mirrors the core
            // tree): the left node's prefix is frozen in-order history;
            // stragglers of a near-sorted stream land just below the
            // separator, so spread `⌊√cap⌋` fillers over its upper half.
            // `regap` caps the physical length at `leaf_capacity`, within
            // the pinned `capacity + 1` reservation — no reallocation
            // under optimistic readers. The right (poℓe) node grows by
            // appends and needs no gaps.
            let cap = self.config.tree.leaf_capacity;
            let want = (cap as f64).sqrt().floor() as usize;
            let region = keys.len() / 2;
            quit_core::regap(keys, vals, gaps, region, want, cap);
            // Interior right nodes take straggler traffic too; the
            // rightmost leaf (`high == None`) is the append frontier and
            // must stay dense so the in-order stream keeps its push fast
            // path. Seeding happens before publication, so the buffers
            // settle within their pinned reservation (`regap` never grows
            // past `leaf_capacity`) before any reader can see them.
            if high.is_some() {
                quit_core::regap(
                    &mut right_keys,
                    &mut right_vals,
                    &mut right_gaps,
                    0,
                    want,
                    cap,
                );
            }
        }
        let right = CNode::Leaf {
            keys: right_keys,
            vals: right_vals,
            gaps: right_gaps,
            next: next.take(),
            low: Some(sep),
            high: *high,
        }
        .into_ref();
        *next = Some(right.clone());
        *high = Some(sep);
        Some(PoleSplit {
            q,
            sep,
            pole_len,
            left_len: cut,
            right,
        })
    }

    /// Installs `(sep, right)` into the locked ancestors, splitting upward
    /// as needed; swaps the root pointer when the root itself splits.
    fn propagate_split(
        &self,
        mut path: Vec<(NodeRef<K, V>, WriteGuard<K, V>)>,
        mut root_guard: Option<crate::sync::RwLockWriteGuard<'_, NodeRef<K, V>>>,
        mut sep: K,
        mut right: NodeRef<K, V>,
    ) {
        let mut child_of_root: Option<NodeRef<K, V>> = None;
        loop {
            match path.pop() {
                Some((parent_arc, mut parent_guard)) => {
                    let CNode::Internal { keys, children } = &mut *parent_guard else {
                        unreachable!("ancestors are internal");
                    };
                    let idx = quit_core::upper_bound(self.config.tree.search_kind, keys, sep);
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                    if keys.len() <= self.config.tree.internal_capacity {
                        return; // absorbed; all remaining guards drop
                    }
                    // Split this internal node and keep climbing. Drain
                    // into pre-pinned buffers: the left node's allocations
                    // must never move under optimistic readers.
                    let mid = keys.len() / 2;
                    let up = keys[mid];
                    let (mut right_keys, mut right_children) =
                        CNode::internal_buffers(self.config.tree.internal_capacity);
                    right_keys.extend(keys.drain(mid + 1..));
                    keys.pop();
                    right_children.extend(children.drain(mid + 1..));
                    let new_right = CNode::Internal {
                        keys: right_keys,
                        children: right_children,
                    }
                    .into_ref();
                    sep = up;
                    right = new_right;
                    child_of_root = Some(parent_arc);
                    drop(parent_guard);
                }
                None => {
                    // The root itself split (leaf root or cascaded): swap the
                    // pointer under the root-pointer lock we kept for this.
                    // The new root gets pinned buffers like every internal.
                    let rg = root_guard
                        .as_mut()
                        .expect("root pointer lock retained when the whole path splits");
                    let old_root = child_of_root.unwrap_or_else(|| (**rg).clone());
                    let (mut root_keys, mut root_children) =
                        CNode::internal_buffers(self.config.tree.internal_capacity);
                    root_keys.push(sep);
                    root_children.push(old_root);
                    root_children.push(right);
                    let new_root = CNode::Internal {
                        keys: root_keys,
                        children: root_children,
                    }
                    .into_ref();
                    **rg = new_root;
                    return;
                }
            }
        }
    }

    /// Algorithm 1 poℓe maintenance after an insert that went through the
    /// tree, done after all node locks are released (metadata staleness is
    /// tolerated; leaf-local bounds keep the fast path safe). `covered`
    /// marks the insert that found the poℓe full: it counts as a
    /// fast-insert, so it ends the miss streak like any other. `split` is
    /// the leaf this insert split, if any, with its left half; `landed` is
    /// the leaf that took the key, with its `(low, high)` bounds.
    fn settle_pole(
        &self,
        key: K,
        covered: bool,
        split: Option<LeafSplit<K, V>>,
        landed: NodeRef<K, V>,
        (low, high): (Option<K>, Option<K>),
    ) {
        if !self.config.pole_enabled {
            return;
        }
        let cfg = &self.config.tree;
        let mut fp = self.fp.lock();
        if covered {
            fp.on_covered_insert();
        }
        if let Some((left, split)) = split {
            if fp.leaf().is_some_and(|pole| Arc::ptr_eq(pole, &left)) {
                // This tree only ever splits near the midpoint — the one
                // plan `full_pole_plan` has for a config with the variable
                // split off — so the policy just judges the separator.
                let plan = FullPolePlan::Default {
                    pos: split.left_len,
                };
                fp.on_pole_split(plan, cfg, split, key);
                return;
            }
        }
        if covered {
            return;
        }
        // No chain-successor test: catch-up is not executed here.
        if fp.on_top_insert(key, None, cfg) == TopInsert::Reset {
            self.metrics.counters.fp_resets.bump_shared();
            fp.repoint(landed, low, high, None);
        }
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    /// Removes one entry with key `key` and returns its value.
    ///
    /// Deletion is *lazy* (Bw-tree style): the entry is removed under the
    /// leaf's write lock, but under-full leaves are not merged — a common
    /// production trade-off that avoids multi-node lock choreography on the
    /// delete path. Space is reclaimed when neighbouring inserts split or
    /// when the index is rebuilt.
    pub fn delete(&self, key: K) -> Option<V> {
        // Shared-crab down to the leaf, then upgrade by re-locking just the
        // leaf exclusively. Deletes never modify internal nodes, and taking
        // only read locks on the way down keeps their version words
        // untouched — a write-crab would spuriously restart every
        // optimistic reader passing the root. Between dropping the leaf's
        // read lock and taking its write lock the leaf may split, so the
        // write-locked leaf is re-validated against its own separator
        // bounds and the descent retried on failure (same protocol as the
        // optimistic insert).
        loop {
            let leaf = ArcRwLockReadGuard::rwlock(&self.descend_shared(Target::Key(key))).clone();
            let mut guard = RwLock::write_arc(&leaf);
            if !guard.covers(key) {
                continue; // raced a split of this leaf; re-descend
            }
            let CNode::Leaf {
                keys, vals, gaps, ..
            } = &mut *guard
            else {
                unreachable!("descent ends at a leaf");
            };
            let pos = quit_core::lower_bound(self.config.tree.search_kind, keys, key);
            return if pos < keys.len() && keys[pos] == key {
                // The lower bound may land on a gap filler; the filler rule
                // (a gap copies its nearest live right neighbour) puts the
                // matching live slot at the next live position.
                let live = gaps
                    .next_live(pos, keys.len())
                    .expect("last physical slot is always live");
                debug_assert_eq!(keys[live], key);
                // A leaf that absorbed uniform-key overflow (physical length
                // past `leaf_capacity`) must stay dense — the split and
                // absorb paths assert so — hence `pinned = 0` makes
                // `remove_at` shift instead of gap-ify there. Regular
                // leaves never exceed the pinned reservation, so every
                // slot sits below `capacity + 1` and gap-ifies in place.
                let pinned = if keys.len() > self.config.tree.leaf_capacity {
                    0
                } else {
                    self.config.tree.leaf_capacity + 1
                };
                let v = quit_core::remove_at(
                    self.config.tree.node_layout,
                    keys,
                    vals,
                    gaps,
                    live,
                    pinned,
                );
                drop(guard);
                self.len.fetch_sub(1, Ordering::Relaxed);
                self.metrics.counters.deletes.bump_shared();
                Some(v)
            } else {
                None
            };
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Point lookup: latch-free optimistic descent when OLC is enabled,
    /// shared-lock crabbing otherwise (and as the fallback).
    pub fn get(&self, key: K) -> Option<V> {
        let t0 = self.metrics.op_timer();
        self.metrics.counters.lookups.bump_shared();
        let found = if self.config.olc_enabled {
            self.get_olc(key)
        } else {
            self.get_pessimistic(key)
        };
        self.metrics.record_get_latency(t0);
        found
    }

    /// Optimistic point lookup: the root-to-leaf descent takes **no
    /// locks** — node versions are validated hand-over-hand — and for
    /// plain-data values the leaf read is latch-free too: the copied value
    /// is only returned when the leaf validation proves no writer
    /// overlapped the reads. Heap-owning values (and oversize
    /// absorbed-overflow leaves) re-read the leaf under its shared latch,
    /// validated by the leaf's own separator bounds.
    fn get_olc(&self, key: K) -> Option<V> {
        let mut restarts = 0u32;
        'restart: loop {
            if restarts > 0 {
                self.metrics.counters.olc_restarts.bump_shared();
                if restarts > OLC_MAX_RESTARTS {
                    self.metrics.counters.olc_fallbacks.bump_shared();
                    return self.get_pessimistic(key);
                }
                olc_backoff(restarts);
            }
            let Some(mut node) = olc::root_ref(&self.root) else {
                restarts += 1;
                continue;
            };
            let Some(mut v) = node.optimistic_version() else {
                restarts += 1;
                continue;
            };
            loop {
                match olc::route_step_ref(node, v, Target::Key(key)) {
                    Ok(Routed::Child(child, cv)) => {
                        node = child;
                        v = cv;
                    }
                    Ok(Routed::Leaf) => {
                        #[cfg(feature = "olc-test-hooks")]
                        crate::test_hooks::leaf_pause();
                        match olc::leaf_get(node, v, key, self.config.tree.leaf_capacity) {
                            LeafRead::Hit(val) => return Some(val),
                            LeafRead::Miss => return None,
                            LeafRead::NeedsLatch => {
                                // Heap-owning value type or absorbed-
                                // overflow leaf: re-read under a shared
                                // latch; the leaf's own bounds prove it is
                                // the right one.
                                let g = node.read();
                                if g.covers(key) {
                                    return self.leaf_lookup(&g, key);
                                }
                                drop(g);
                                restarts += 1;
                                continue 'restart;
                            }
                            LeafRead::Conflict => {
                                restarts += 1;
                                continue 'restart;
                            }
                        }
                    }
                    Err(_) => {
                        restarts += 1;
                        continue 'restart;
                    }
                }
            }
        }
    }

    /// Shared-lock-crabbing point lookup (OLC off, or optimistic fallback).
    fn get_pessimistic(&self, key: K) -> Option<V> {
        self.leaf_lookup(&self.descend_shared(Target::Key(key)), key)
    }

    /// Point read in a latched leaf responsible for `key`. Gap fillers are
    /// value-correct copies of their nearest live right slot, so no bitmap
    /// consultation is needed; boundary-respecting splits keep every
    /// instance of a key in the one leaf right-biased routing reaches, so a
    /// miss here is a genuine miss.
    fn leaf_lookup(&self, leaf: &CNode<K, V>, key: K) -> Option<V> {
        let CNode::Leaf { keys, vals, .. } = leaf else {
            unreachable!("lookups end at a leaf");
        };
        let pos = quit_core::search_leaf(self.config.tree.search_kind, keys, key);
        (pos < keys.len() && keys[pos] == key).then(|| vals[pos].clone())
    }

    /// Looks up each of `keys` in turn, passing `f` the key and its entry
    /// (`None` when absent), and stops at the first `Break`, whose value
    /// it returns. For ascending `keys` this costs one shared-latch
    /// descent per leaf, not one per key: the keys that the latched leaf's
    /// own bounds cover are searched there, each forward from the slot of
    /// the one before. Each leaf is read atomically under its latch;
    /// different leaves may be read at different moments.
    pub fn get_sorted<B>(
        &self,
        keys: impl IntoIterator<Item = K>,
        mut f: impl FnMut(K, Option<&V>) -> ControlFlow<B>,
    ) -> Option<B> {
        let mut leaf: Option<ReadGuard<K, V>> = None;
        let mut from = 0;
        let mut prev = None;
        for key in keys {
            if !leaf.as_ref().is_some_and(|g| g.covers(key)) {
                // Release before descending: a latch held across the
                // descent could deadlock against a splitting writer.
                drop(leaf.take());
                leaf = Some(self.descend_shared(Target::Key(key)));
                from = 0;
            } else if prev.is_some_and(|p| key < p) {
                from = 0;
            }
            prev = Some(key);
            let CNode::Leaf {
                keys: slots, vals, ..
            } = &**leaf.as_ref().expect("latched above")
            else {
                unreachable!("descent ends at a leaf");
            };
            let rest = &slots[from..];
            from += quit_core::search_leaf(self.config.tree.search_kind, rest, key);
            let entry = (from < slots.len() && slots[from] == key).then(|| &vals[from]);
            if let ControlFlow::Break(out) = f(key, entry) {
                return Some(out);
            }
        }
        None
    }

    /// True when the key exists.
    pub fn contains_key(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Lazy range scan over the entries within `bounds` (`a..b`, `a..=b`,
    /// `..b`, `a..`, `..`), with shared lock coupling along the leaf chain
    /// (§4.5 "Locking Protocol for Lookups").
    ///
    /// The iterator holds a read lock on the leaf it is positioned in and
    /// acquires the next leaf's lock before releasing the current one, so a
    /// scan observes each leaf atomically. Writers block on the locked leaf
    /// only — drop (or finish) the iterator promptly, and never insert into
    /// the same tree from the thread that holds an open scan.
    pub fn range<R: RangeBounds<K>>(&self, bounds: R) -> ConcRangeIter<K, V> {
        self.metrics.counters.range_scans.bump_shared();
        let end = copy_bound(bounds.end_bound());
        if bounds_empty(bounds.start_bound(), bounds.end_bound()) {
            return ConcRangeIter {
                leaf: None,
                pos: 0,
                end,
                leaf_accesses: 0,
            };
        }
        // Descend to the first leaf that can hold an admitted key. Routing
        // is right-biased on equality, matching inserts: splits respect key
        // boundaries, so every instance of the start key lives in the one
        // leaf this descent reaches; the in-leaf `pos` scan then admits or
        // skips the run.
        let start = copy_bound(bounds.start_bound());
        let target = match start {
            Bound::Unbounded => Target::Leftmost,
            Bound::Included(s) | Bound::Excluded(s) => Target::Key(s),
        };
        let olc = if self.config.olc_enabled {
            self.range_olc(target)
        } else {
            None
        };
        let leaf = olc.unwrap_or_else(|| self.descend_shared(target));
        let CNode::Leaf { keys, .. } = &*leaf else {
            unreachable!("descent ends at a leaf");
        };
        let pos = match start {
            Bound::Unbounded => 0,
            Bound::Included(s) => quit_core::search_leaf(self.config.tree.search_kind, keys, s),
            Bound::Excluded(s) => {
                quit_core::guided_partition_point_by(keys.len(), |i| keys[i], s, |k| k <= s)
            }
        };
        ConcRangeIter {
            leaf: Some(leaf),
            pos,
            end,
            leaf_accesses: 1,
        }
    }

    /// Optimistic descent to the scan's start leaf: no internal node is
    /// latched; only the start leaf takes a shared lock, re-validated via
    /// its separator bounds. Iteration itself then lock-couples along the
    /// leaf chain exactly like the pessimistic scan. `None` = restart
    /// budget exhausted; the caller crabs pessimistically.
    fn range_olc(&self, target: Target<K>) -> Option<ReadGuard<K, V>> {
        let mut restarts = 0u32;
        loop {
            if restarts > 0 {
                self.metrics.counters.olc_restarts.bump_shared();
                if restarts > OLC_MAX_RESTARTS {
                    self.metrics.counters.olc_fallbacks.bump_shared();
                    return None;
                }
                olc_backoff(restarts);
            }
            let Some(leaf) = self.descend_olc(target) else {
                restarts += 1;
                continue;
            };
            let guard = RwLock::read_arc(&leaf);
            // The leaf's own bounds partition the key space: covering the
            // start position proves this is the scan's first leaf even if
            // the optimistic routing raced a split.
            let covered = match target {
                Target::Leftmost => guard.bounds().0.is_none(),
                Target::Key(s) => guard.covers(s),
            };
            if covered {
                return Some(guard);
            }
            drop(guard);
            restarts += 1;
        }
    }

    /// All entries in key order (test/diagnostic helper; locks one leaf at
    /// a time).
    pub fn collect_all(&self) -> Vec<(K, V)> {
        self.range(..).collect()
    }

    /// Structural self-check for tests and the differential testkit.
    ///
    /// Verifies under read locks (call on a quiesced tree — concurrent
    /// writers would race the walk, not corrupt it):
    ///
    /// - internal nodes: ascending separator keys, `children == keys + 1`,
    ///   every subtree within its routing window;
    /// - leaves: ascending keys that respect the leaf's own `low`/`high`
    ///   separator bounds (the metadata the lock-free-adjacent fast path
    ///   relies on);
    /// - the leaf chain: non-decreasing keys across consecutive leaves;
    /// - total entries along the chain equal to [`ConcurrentTree::len`].
    pub fn check_consistency(&self) -> Result<(), String> {
        self.check_consistency_inner(true)
    }

    /// [`ConcurrentTree::check_consistency`] minus the exact
    /// chain-total-vs-[`ConcurrentTree::len`] comparison, which is the one
    /// check that cannot hold mid-flight: the chain walk and the length
    /// counter are read at different instants, so live writers make them
    /// disagree transiently without any corruption. Every per-node and
    /// chain-ordering invariant is still verified, so the concurrent
    /// testkit calls this while writer threads are still running.
    pub fn check_consistency_concurrent(&self) -> Result<(), String> {
        self.check_consistency_inner(false)
    }

    fn check_consistency_inner(&self, exact_len: bool) -> Result<(), String> {
        let root = self.root.read().clone();
        check_node(&root, None, None)?;
        // Descend to the leftmost leaf, then walk the chain.
        let mut node = root;
        loop {
            let first_child = {
                let guard = node.read();
                match &*guard {
                    CNode::Internal { children, .. } => children
                        .first()
                        .cloned()
                        .ok_or_else(|| "internal node with no children".to_string())?,
                    CNode::Leaf { .. } => break,
                }
            };
            node = first_child;
        }
        let mut total = 0usize;
        let mut prev_last: Option<K> = None;
        let mut leaf = Some(node);
        while let Some(l) = leaf {
            let guard = l.read();
            let CNode::Leaf {
                keys,
                vals,
                gaps,
                next,
                ..
            } = &*guard
            else {
                return Err("leaf chain reached an internal node".to_string());
            };
            if keys.len() != vals.len() {
                return Err(format!(
                    "leaf holds {} keys but {} values",
                    keys.len(),
                    vals.len()
                ));
            }
            if self.config.tree.node_layout == NodeLayoutKind::Dense && !gaps.is_dense() {
                return Err("leaf holds gaps under the dense layout".to_string());
            }
            if !keys.is_empty() && gaps.is_gap(keys.len() - 1) {
                return Err("leaf ends in a gap (trailing gaps must trim)".to_string());
            }
            let mut in_range_gaps = 0usize;
            for i in 0..keys.len() {
                if gaps.is_gap(i) {
                    in_range_gaps += 1;
                    // Strict filler rule: every gap slot copies its nearest
                    // live right neighbour, so its key equals the next
                    // slot's key (gap or live).
                    if keys[i] != keys[i + 1] {
                        return Err(format!(
                            "gap slot {i} filler key {:?} != next slot key {:?}",
                            keys[i],
                            keys[i + 1]
                        ));
                    }
                }
            }
            if in_range_gaps != gaps.count() {
                return Err(format!(
                    "gap bitmap counts {} but {in_range_gaps} gaps lie in range",
                    gaps.count()
                ));
            }
            if let (Some(prev), Some(first)) = (prev_last, keys.first()) {
                if *first < prev {
                    return Err(format!("leaf chain regresses: {first:?} follows {prev:?}"));
                }
            }
            prev_last = keys.last().copied().or(prev_last);
            total += keys.len() - gaps.count();
            leaf = next.clone();
        }
        if exact_len && total != self.len() {
            return Err(format!(
                "leaf chain holds {total} entries but len() reports {}",
                self.len()
            ));
        }
        Ok(())
    }
}

/// Recursive helper for [`ConcurrentTree::check_consistency`]: validates a
/// subtree against its routing window `[low, high)`.
fn check_node<K: Key, V>(
    node: &NodeRef<K, V>,
    low: Option<K>,
    high: Option<K>,
) -> Result<(), String> {
    let guard = node.read();
    match &*guard {
        CNode::Internal { keys, children } => {
            if children.len() != keys.len() + 1 {
                return Err(format!(
                    "internal node with {} separators but {} children",
                    keys.len(),
                    children.len()
                ));
            }
            for pair in keys.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(format!(
                        "internal separators not ascending: {:?} >= {:?}",
                        pair[0], pair[1]
                    ));
                }
            }
            if let (Some(lo), Some(first)) = (low, keys.first()) {
                if *first < lo {
                    return Err(format!("separator {first:?} below window low {lo:?}"));
                }
            }
            if let (Some(hi), Some(last)) = (high, keys.last()) {
                if *last > hi {
                    return Err(format!("separator {last:?} above window high {hi:?}"));
                }
            }
            for (i, child) in children.iter().enumerate() {
                let lo = if i == 0 { low } else { Some(keys[i - 1]) };
                let hi = if i == keys.len() { high } else { Some(keys[i]) };
                check_node(child, lo, hi)?;
            }
            Ok(())
        }
        CNode::Leaf {
            keys,
            low: leaf_low,
            high: leaf_high,
            ..
        } => {
            for pair in keys.windows(2) {
                if pair[0] > pair[1] {
                    return Err(format!(
                        "leaf keys out of order: {:?} > {:?}",
                        pair[0], pair[1]
                    ));
                }
            }
            // The leaf's own recorded bounds gate fast-path inserts; every
            // key must satisfy them (`low` inclusive, `high` exclusive —
            // boundary-respecting splits guarantee no key ever equals the
            // high bound), and they must not be wider than the routing
            // window that reaches this leaf.
            if let (Some(lo), Some(first)) = (leaf_low, keys.first()) {
                if first < lo {
                    return Err(format!("leaf key {first:?} below its low bound {lo:?}"));
                }
            }
            if let (Some(hi), Some(last)) = (leaf_high, keys.last()) {
                if last >= hi {
                    return Err(format!(
                        "leaf key {last:?} at or above its high bound {hi:?}"
                    ));
                }
            }
            if let (Some(win), Some(first)) = (low, keys.first()) {
                if *first < win {
                    return Err(format!(
                        "leaf key {first:?} below routing window low {win:?}"
                    ));
                }
            }
            if let (Some(win), Some(last)) = (high, keys.last()) {
                if *last >= win {
                    return Err(format!(
                        "leaf key {last:?} at or above routing window high {win:?}"
                    ));
                }
            }
            Ok(())
        }
    }
}

/// Where each bulk-loaded leaf starts in the sorted `entries`: every
/// `per_leaf` entries, except that a cut inside a duplicate run moves back
/// to the run's start — or, when the run began the leaf, forward past its
/// end, leaving the whole run in one leaf.
fn leaf_starts<K: Key, V>(entries: &[(K, V)], per_leaf: usize) -> Vec<usize> {
    let mut starts = vec![0];
    let mut start = 0;
    while start + per_leaf < entries.len() {
        let cut = start + per_leaf;
        let key = entries[cut].0;
        let run = start + entries[start..cut].partition_point(|e| e.0 < key);
        start = if run > start {
            run
        } else {
            cut + entries[cut..].partition_point(|e| e.0 <= key)
        };
        if start == entries.len() {
            break;
        }
        starts.push(start);
    }
    starts
}

/// Bounded exponential backoff between optimistic restarts: brief
/// exponential spinning for the first few conflicts (writers' critical
/// sections are sub-microsecond), then a yield so a preempted writer — the
/// usual cause of repeated conflicts on loaded or single-core machines —
/// can finish its section.
fn olc_backoff(restart: u32) {
    if restart <= 3 {
        for _ in 0..(1u32 << restart.min(6)) {
            std::hint::spin_loop();
        }
    } else {
        std::thread::yield_now();
    }
}

fn copy_bound<K: Copy>(b: Bound<&K>) -> Bound<K> {
    match b {
        Bound::Included(&k) => Bound::Included(k),
        Bound::Excluded(&k) => Bound::Excluded(k),
        Bound::Unbounded => Bound::Unbounded,
    }
}

fn bounds_empty<K: Ord>(start: Bound<&K>, end: Bound<&K>) -> bool {
    match (start, end) {
        (Bound::Included(s), Bound::Included(e)) => s > e,
        (Bound::Included(s), Bound::Excluded(e))
        | (Bound::Excluded(s), Bound::Included(e))
        | (Bound::Excluded(s), Bound::Excluded(e)) => s >= e,
        _ => false,
    }
}

/// Lazy, lock-coupled range iterator. See [`ConcurrentTree::range`].
pub struct ConcRangeIter<K, V> {
    leaf: Option<ArcRwLockReadGuard<CNode<K, V>>>,
    pos: usize,
    end: Bound<K>,
    leaf_accesses: u64,
}

impl<K: Key, V: Clone> ConcRangeIter<K, V> {
    /// Leaf nodes this scan has locked so far.
    pub fn leaf_accesses(&self) -> u64 {
        self.leaf_accesses
    }
}

impl<K: Key, V: Clone> Iterator for ConcRangeIter<K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let guard = self.leaf.as_ref()?;
            let CNode::Leaf {
                keys,
                vals,
                gaps,
                next,
                ..
            } = &**guard
            else {
                unreachable!("chain holds leaves");
            };
            if self.pos < keys.len() {
                // Yield live slots only: a gap filler duplicates the entry
                // of its nearest live right neighbour.
                if gaps.is_gap(self.pos) {
                    self.pos += 1;
                    continue;
                }
                let k = keys[self.pos];
                let admitted = match self.end {
                    Bound::Included(e) => k <= e,
                    Bound::Excluded(e) => k < e,
                    Bound::Unbounded => true,
                };
                if !admitted {
                    self.leaf = None;
                    return None;
                }
                let v = vals[self.pos].clone();
                self.pos += 1;
                return Some((k, v));
            }
            // Acquire the next leaf before releasing this one (coupling).
            match next.clone() {
                Some(n) => {
                    let g = RwLock::read_arc(&n);
                    self.leaf = Some(g);
                    self.pos = 0;
                    self.leaf_accesses += 1;
                }
                None => {
                    self.leaf = None;
                    return None;
                }
            }
        }
    }
}

impl<K: Key, V: Clone> quit_core::SortedIndex<K, V> for ConcurrentTree<K, V> {
    fn insert(&mut self, key: K, value: V) {
        ConcurrentTree::insert(self, key, value);
    }

    fn insert_batch(&mut self, entries: &[(K, V)]) -> usize {
        ConcurrentTree::insert_batch(self, entries)
    }

    fn get(&mut self, key: K) -> Option<V> {
        ConcurrentTree::get(self, key)
    }

    fn delete(&mut self, key: K) -> Option<V> {
        ConcurrentTree::delete(self, key)
    }

    fn range<R: RangeBounds<K>>(&mut self, bounds: R) -> impl Iterator<Item = (K, V)> + '_ {
        ConcurrentTree::range(self, bounds)
    }

    fn range_with_stats<R: RangeBounds<K>>(&mut self, bounds: R) -> quit_core::RangeScan<K, V> {
        let t0 = self.metrics.op_timer();
        let mut iter = ConcurrentTree::range(self, bounds);
        let entries: Vec<(K, V)> = iter.by_ref().collect();
        let leaf_accesses = iter.leaf_accesses();
        drop(iter);
        self.metrics
            .counters
            .range_leaf_accesses
            .add_shared(leaf_accesses);
        self.metrics.record_range_latency(t0);
        quit_core::RangeScan {
            entries,
            leaf_accesses,
        }
    }

    fn len(&self) -> usize {
        ConcurrentTree::len(self)
    }

    fn metrics(&self) -> StatsSnapshot {
        ConcurrentTree::metrics(self)
    }

    fn reset_metrics(&self) {
        self.metrics.reset();
    }
}

/// What an insert does about a live entry that already holds its key.
trait OnExisting<K, V> {
    /// Whether the insert looks for such an entry at all.
    const LOOKS: bool;
    /// Folds `new` into the entry found for `key`; called at most once per
    /// inserted entry.
    fn merge(&mut self, key: K, existing: &mut V, new: V);
}

/// [`ConcurrentTree::insert`]: duplicates are kept, nothing is looked up.
impl<K, V> OnExisting<K, V> for () {
    const LOOKS: bool = false;
    fn merge(&mut self, _: K, _: &mut V, _: V) {}
}

/// [`ConcurrentTree::upsert`] and `upsert_batch`: the caller's merge, run
/// for every entry that meets a live one.
struct MergeEach<F>(F);

impl<K, V, F: FnMut(K, &mut V, V)> OnExisting<K, V> for MergeEach<F> {
    const LOOKS: bool = true;
    fn merge(&mut self, key: K, existing: &mut V, new: V) {
        (self.0)(key, existing, new);
    }
}

/// What the fast path did with the head of a run.
enum Chunk<V> {
    /// Placed (inserted or merged) this many entries, the head first.
    Took(usize),
    /// The head is the poℓe's but the poℓe is full: the crabbing split
    /// takes it (value handed back), counted as a fast insert.
    PoleFull(V),
    /// Poℓe off, head not covered (stale metadata included) or latch busy:
    /// the head descends the tree.
    Missed,
}

/// Where [`ConcurrentTree::place`] put an entry.
enum Placed<V> {
    Inserted,
    /// Folded into the live entry for its key.
    Merged,
    /// The leaf is full (value handed back).
    Full(V),
}

#[cfg(test)]
mod tests {
    use super::*;
    use quit_core::SearchKind;
    use std::sync::Arc as StdArc;

    #[test]
    fn embedded_tree_config_describes_what_runs() {
        // Shared knobs pass through `from_tree` untouched …
        let tree = TreeConfig::small(16)
            .with_node_layout(NodeLayoutKind::Gapped)
            .with_search_kind(SearchKind::Simd)
            .with_reset_threshold(Some(3));
        let c = ConcConfig::from_tree(tree.clone());
        assert_eq!(
            c.tree_config(),
            &tree.with_variable_split(false).with_redistribute(false)
        );
        // … and the two plans this tree never executes are off in every
        // constructor, on top of the bit-for-bit paper defaults.
        for c in [ConcConfig::paper_default(), ConcConfig::small(8)] {
            let t = c.tree_config();
            assert!(!t.variable_split && !t.redistribute);
            assert_eq!(t.node_layout, NodeLayoutKind::Dense);
            assert_eq!(t.search_kind, SearchKind::Binary);
            assert!(c.pole_enabled && c.olc_enabled);
        }
        assert_eq!(
            ConcConfig::paper_default().tree_config().reset_threshold,
            Some(22)
        );
    }

    #[test]
    fn covered_insert_into_a_full_pole_clears_the_miss_streak() {
        // T_R − 1 misses, one covered insert that finds the poℓe full, one
        // more miss: no reset — exactly as the single-threaded tree, which
        // runs the same policy. (`small(8)` ⇒ T_R = 2.) The keys arrive one
        // `insert` at a time, as `insert_batch` runs and as `upsert`s of
        // absent keys — one code path since a key is a run of one — and
        // every way the fast-insert and reset counts are `BpTree`'s, fed
        // the same keys one insert at a time.
        for way in ["insert", "insert_batch", "upsert"] {
            let conc: ConcurrentTree<u64, u64> = ConcurrentTree::new(ConcConfig::small(8));
            let mut core: quit_core::BpTree<u64, u64> =
                quit_core::BpTree::with_config(quit_core::FastPathMode::Pole, TreeConfig::small(8));
            let mut resets_after = |keys: &[u64]| {
                match way {
                    "insert_batch" => {
                        let run: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
                        conc.insert_batch(&run);
                    }
                    "upsert" => {
                        for &k in keys {
                            assert!(!conc.upsert(k, k, |_, _| unreachable!("{k} is new")));
                        }
                    }
                    _ => keys.iter().for_each(|&k| conc.insert(k, k)),
                }
                keys.iter().for_each(|&k| core.insert(k, k));
                let (c, b) = (conc.stats(), core.stats());
                let what = format!("{way}: trees disagree after {keys:?}");
                assert_eq!(c.fast_inserts.get(), b.fast_inserts.get(), "{what}");
                assert_eq!(c.fp_resets.get(), b.fp_resets.get(), "{what}");
                c.fp_resets.get()
            };
            // Two leaves, the poℓe [108, ∞) full at 8 entries.
            let evens: Vec<u64> = (0..12).map(|i| 100 + 2 * i).collect();
            assert_eq!(resets_after(&evens), 0);
            let fast = conc.stats().fast_inserts.get();
            assert_eq!(resets_after(&[101]), 0, "{way}: miss 1 of 2");
            assert_eq!(resets_after(&[124]), 0, "{way}: covered, poℓe full");
            assert_eq!(conc.stats().fast_inserts.get(), fast + 1, "counted as fast");
            assert_eq!(resets_after(&[103]), 0, "{way}: the streak restarted");
            assert_eq!(resets_after(&[105]), 1, "{way}: miss 2 of 2");
            // The poℓe is now the left leaf [.., 108), one entry short of
            // full. One sorted run: a fast chunk of one, a covered head
            // that finds the poℓe full, and a miss.
            let fast = conc.stats().fast_inserts.get();
            assert_eq!(resets_after(&[50, 107, 500]), 1, "{way}");
            assert_eq!(conc.stats().fast_inserts.get(), fast + 2, "{way}");
            conc.check_consistency().unwrap();
        }
    }

    #[test]
    fn batch_chunks_stop_at_the_leaf_bound_when_metadata_is_stale() {
        // The poℓe metadata is read under its mutex but updated only after
        // a split releases its latches, so a chunk may meet metadata that
        // still calls a just-split leaf unbounded above. The leaf's own
        // `high` must cut the chunk, as it rejects a per-key fast insert.
        let t: ConcurrentTree<u64, u64> = ConcurrentTree::new(ConcConfig::small(8));
        for k in (0..40).step_by(2) {
            t.insert(k, k);
        }
        let first = first_leaf(&t);
        let high = match &*first.read() {
            CNode::Leaf { keys, high, .. } => {
                assert!(keys.len() < 8, "room for a chunk");
                high.expect("not the only leaf")
            }
            CNode::Internal { .. } => unreachable!(),
        };
        t.fp.lock().repoint(first, None, None, None);
        let fast = t.stats().fast_inserts.get();
        t.insert_batch(&[(1, 1), (3, 3), (high + 1, 0), (high + 3, 0)]);
        t.check_consistency().unwrap();
        assert_eq!(t.stats().fast_inserts.get(), fast + 2, "only the two below");
        assert_eq!(t.get(high + 1), Some(0));
        assert_eq!(t.len(), 24);
    }

    fn first_leaf(t: &ConcurrentTree<u64, u64>) -> NodeRef<u64, u64> {
        let mut node = t.root.read().clone();
        loop {
            let child = match &*node.read() {
                CNode::Internal { children, .. } => children[0].clone(),
                CNode::Leaf { .. } => return node.clone(),
            };
            node = child;
        }
    }

    #[test]
    fn dropping_a_tree_whose_pole_heads_a_long_chain_does_not_recurse() {
        // 100 000 leaves behind a poℓe on the first one, dropped on a small
        // stack: were the poℓe still held when the parents go, the leaves
        // after it would be freed one nested drop per leaf.
        std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(|| {
                let entries: Vec<(u64, u64)> = (0..300_000).map(|k| (k, k)).collect();
                let t = ConcurrentTree::bulk_load(ConcConfig::small(3), entries);
                let first = first_leaf(&t);
                t.fp.lock().repoint(first, None, Some(3), None);
                drop(t);
            })
            .expect("spawn")
            .join()
            .expect("the drop finished");
    }

    /// Every gap slot holds a copy of the slot to its right (transitively,
    /// of its nearest live right neighbour) — values included. Returns the
    /// number of gap slots seen.
    fn assert_fillers_copy_their_source(t: &ConcurrentTree<u64, u64>) -> usize {
        let mut node = t.root.read().clone();
        let mut fillers = 0;
        loop {
            let next = match &*node.read() {
                CNode::Internal { children, .. } => children[0].clone(),
                CNode::Leaf {
                    vals, gaps, next, ..
                } => {
                    for i in (0..vals.len()).filter(|&i| gaps.is_gap(i)) {
                        assert_eq!(vals[i], vals[i + 1], "stale filler at slot {i}");
                        fillers += 1;
                    }
                    match next {
                        Some(next) => next.clone(),
                        None => return fillers,
                    }
                }
            };
            node = next;
        }
    }

    #[test]
    fn upsert_inserts_like_insert_and_updates_in_place_on_every_path() {
        let counters = |t: &ConcurrentTree<u64, u64>| {
            let s = t.stats();
            [
                t.len() as u64,
                s.fast_inserts.get(),
                s.top_inserts.get(),
                s.leaf_splits.get(),
                s.fp_resets.get(),
            ]
        };
        // A scrambled permutation: poℓe hits, optimistic descents and
        // crabbing splits all occur.
        let keys: Vec<u64> = (0..307u64).map(|i| (i * 37) % 307).collect();
        for (pole, olc) in [(true, true), (false, true), (true, false), (false, false)] {
            for layout in [NodeLayoutKind::Dense, NodeLayoutKind::Gapped] {
                let config = ConcConfig::from_tree(TreeConfig::small(8).with_node_layout(layout))
                    .with_pole(pole)
                    .with_olc(olc);
                let t: ConcurrentTree<u64, u64> = ConcurrentTree::new(config.clone());
                let plain: ConcurrentTree<u64, u64> = ConcurrentTree::new(config);
                for &k in &keys {
                    assert!(!t.upsert(k, k, |_, _| unreachable!("key {k} is new")));
                    plain.insert(k, k);
                }
                assert_eq!(
                    counters(&t),
                    counters(&plain),
                    "absent keys insert as insert does"
                );
                // Now every key exists, full leaves included: each upsert
                // merges exactly once, splits nothing and counts nothing.
                let before = counters(&t);
                for &k in &keys {
                    let mut ran = 0;
                    assert!(t.upsert(k, 1_000, |existing, new| {
                        ran += 1;
                        *existing += new;
                    }));
                    assert_eq!(ran, 1);
                    assert_eq!(t.get(k), Some(k + 1_000), "through any filler alias");
                }
                assert_eq!(counters(&t), before, "pole {pole} olc {olc} {layout:?}");
                let fillers = assert_fillers_copy_their_source(&t);
                assert_eq!(fillers > 0, layout == NodeLayoutKind::Gapped);
                t.check_consistency().unwrap();
                assert_eq!(t.collect_all().len(), keys.len());
            }
        }
    }

    #[test]
    fn single_threaded_roundtrip() {
        let t: ConcurrentTree<u64, u64> = ConcurrentTree::new(ConcConfig::small(8));
        for k in 0..2000u64 {
            t.insert(k, k * 2);
        }
        assert_eq!(t.len(), 2000);
        for k in (0..2000).step_by(61) {
            assert_eq!(t.get(k), Some(k * 2));
        }
        assert_eq!(t.get(5000), None);
        let all = t.collect_all();
        assert_eq!(all.len(), 2000);
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn sorted_ingest_uses_fast_path() {
        let t: ConcurrentTree<u64, u64> = ConcurrentTree::new(ConcConfig::small(8));
        for k in 0..1000u64 {
            t.insert(k, k);
        }
        let fast = t.stats().fast_inserts.get();
        let top = t.stats().top_inserts.get();
        assert!(fast > top * 5, "fast {fast}, top {top}");
    }

    #[test]
    fn classic_mode_never_fast_inserts() {
        let t: ConcurrentTree<u64, u64> =
            ConcurrentTree::new(ConcConfig::small(8).with_pole(false));
        for k in 0..500u64 {
            t.insert(k, k);
        }
        assert_eq!(t.stats().fast_inserts.get(), 0);
    }

    #[test]
    fn range_scan_matches() {
        let t: ConcurrentTree<u64, u64> = ConcurrentTree::new(ConcConfig::small(8));
        for k in 0..500u64 {
            t.insert(k, k);
        }
        let r: Vec<_> = t.range(100..200).collect();
        assert_eq!(r.len(), 100);
        assert_eq!(r[0], (100, 100));
        assert_eq!(r[99], (199, 199));
        assert!(t.range(9_999..10_000).next().is_none());
        assert!(t.range(10..10).next().is_none());
        let inclusive: Vec<_> = t.range(100..=102).map(|e| e.0).collect();
        assert_eq!(inclusive, vec![100, 101, 102]);
        assert_eq!(t.range(..).count(), 500);
        assert_eq!(t.range(495..).count(), 5);
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let t: StdArc<ConcurrentTree<u64, u64>> =
            StdArc::new(ConcurrentTree::new(ConcConfig::small(16)));
        let threads = 8;
        let per = 2_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let t = t.clone();
                std::thread::spawn(move || {
                    let base = tid as u64 * 1_000_000;
                    for k in 0..per {
                        t.insert(base + k, k);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), threads * per as usize);
        let all = t.collect_all();
        assert_eq!(all.len(), threads * per as usize);
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0), "global order");
        for tid in 0..threads as u64 {
            assert_eq!(t.get(tid * 1_000_000 + 17), Some(17));
        }
    }

    #[test]
    fn concurrent_interleaved_inserts_same_range() {
        use rand::prelude::*;
        let t: StdArc<ConcurrentTree<u64, u64>> =
            StdArc::new(ConcurrentTree::new(ConcConfig::small(8)));
        let threads = 8;
        let per = 1500usize;
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let t = t.clone();
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(tid as u64);
                    for _ in 0..per {
                        let k = rng.gen_range(0..10_000u64);
                        t.insert(k, k);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), threads * per);
        let all = t.collect_all();
        assert_eq!(all.len(), threads * per);
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let t: StdArc<ConcurrentTree<u64, u64>> =
            StdArc::new(ConcurrentTree::new(ConcConfig::small(8)));
        for k in 0..1000u64 {
            t.insert(k, k);
        }
        let stop = StdArc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for tid in 0..4u64 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for k in 0..2000u64 {
                    t.insert(1_000 + tid * 10_000 + k, k);
                }
            }));
        }
        for _ in 0..4 {
            let t = t.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut hits = 0u64;
                // do-while: on a single-core box the writers can finish
                // before this thread's first quantum, so always complete
                // at least one sweep before honouring `stop`.
                loop {
                    for k in (0..1000u64).step_by(101) {
                        if t.get(k).is_some() {
                            hits += 1;
                        }
                    }
                    let n = t.range(0..500).count();
                    assert!(n >= 500, "pre-loaded keys must stay visible");
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                assert!(hits > 0);
            }));
        }
        // Let writers finish, then stop readers.
        for h in handles.drain(..4) {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 1000 + 4 * 2000);
    }

    #[test]
    fn delete_roundtrip_single_threaded() {
        let t: ConcurrentTree<u64, u64> = ConcurrentTree::new(ConcConfig::small(8));
        for k in 0..1000u64 {
            t.insert(k, k * 3);
        }
        for k in (0..1000u64).step_by(2) {
            assert_eq!(t.delete(k), Some(k * 3));
        }
        assert_eq!(t.delete(0), None);
        assert_eq!(t.len(), 500);
        for k in 0..1000u64 {
            assert_eq!(t.get(k).is_some(), k % 2 == 1, "key {k}");
        }
        let all = t.collect_all();
        assert_eq!(all.len(), 500);
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn concurrent_deletes_and_inserts() {
        let t: StdArc<ConcurrentTree<u64, u64>> =
            StdArc::new(ConcurrentTree::new(ConcConfig::small(8)));
        for k in 0..10_000u64 {
            t.insert(k, k);
        }
        std::thread::scope(|s| {
            // Deleters drain even keys; an inserter extends the key space.
            for part in 0..4u64 {
                let t = t.clone();
                s.spawn(move || {
                    for k in (0..10_000u64).step_by(2) {
                        if k % 8 == part * 2 {
                            assert_eq!(t.delete(k), Some(k), "key {k}");
                        }
                    }
                });
            }
            let t2 = t.clone();
            s.spawn(move || {
                for k in 10_000..14_000u64 {
                    t2.insert(k, k);
                }
            });
        });
        assert_eq!(t.len(), 10_000 - 5_000 + 4_000);
        for k in 0..10_000u64 {
            assert_eq!(t.get(k).is_some(), k % 2 == 1, "key {k}");
        }
        for k in 10_000..14_000u64 {
            assert_eq!(t.get(k), Some(k));
        }
    }

    #[test]
    fn fast_path_keeps_working_after_deletes() {
        let t: ConcurrentTree<u64, u64> = ConcurrentTree::new(ConcConfig::small(8));
        for k in 0..2_000u64 {
            t.insert(k, k);
        }
        for k in 500..1500u64 {
            t.delete(k);
        }
        let fast_before = t.stats().fast_inserts.get();
        for k in 2_000..3_000u64 {
            t.insert(k, k);
        }
        assert!(
            t.stats().fast_inserts.get() > fast_before + 800,
            "fast path must survive deletions"
        );
    }

    #[test]
    fn olc_and_pessimistic_modes_agree() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x01C0_FFEE);
        let ops: Vec<(u64, u64)> = (0..4000)
            .map(|_| (rng.gen_range(0..2_000u64), rng.next_u64()))
            .collect();
        let results: Vec<_> = [true, false]
            .into_iter()
            .map(|olc| {
                let t: ConcurrentTree<u64, u64> =
                    ConcurrentTree::new(ConcConfig::small(8).with_olc(olc));
                for &(k, v) in &ops {
                    t.insert(k, v);
                    if k % 3 == 0 {
                        t.delete(k / 2);
                    }
                }
                for k in (0..2_000).step_by(17) {
                    let _ = t.get(k);
                }
                (t.len(), t.collect_all(), t.range(100..900).count())
            })
            .collect();
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn gapped_layout_matches_dense_in_both_latch_modes() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x6A99_ED01);
        let ops: Vec<(u64, u64)> = (0..6000)
            .map(|_| (rng.gen_range(0..2_500u64), rng.next_u64()))
            .collect();
        for olc in [true, false] {
            let results: Vec<_> = [
                (NodeLayoutKind::Dense, SearchKind::Binary),
                (NodeLayoutKind::Gapped, SearchKind::Branchless),
                (NodeLayoutKind::Gapped, SearchKind::Simd),
            ]
            .into_iter()
            .map(|(layout, kind)| {
                let tree = TreeConfig::small(8)
                    .with_node_layout(layout)
                    .with_search_kind(kind);
                let t: ConcurrentTree<u64, u64> =
                    ConcurrentTree::new(ConcConfig::from_tree(tree).with_olc(olc));
                for &(k, v) in &ops {
                    t.insert(k, v);
                    if k % 3 == 0 {
                        t.delete(k / 2);
                    }
                }
                t.check_consistency().unwrap();
                let gets: Vec<_> = (0..2_500).step_by(13).map(|k| t.get(k)).collect();
                (t.len(), t.collect_all(), t.range(100..900).count(), gets)
            })
            .collect();
            assert_eq!(results[0], results[1], "branchless diverged (olc={olc})");
            assert_eq!(results[0], results[2], "simd diverged (olc={olc})");
        }
    }

    #[test]
    fn gapped_layout_survives_concurrent_churn() {
        use rand::prelude::*;
        for olc in [true, false] {
            let tree = TreeConfig::small(16)
                .with_node_layout(NodeLayoutKind::Gapped)
                .with_search_kind(SearchKind::Branchless);
            let t: StdArc<ConcurrentTree<u64, u64>> = StdArc::new(ConcurrentTree::new(
                ConcConfig::from_tree(tree).with_olc(olc),
            ));
            let threads = 4;
            std::thread::scope(|s| {
                for tid in 0..threads {
                    let t = t.clone();
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(0x6A99_ED02 + tid as u64);
                        // Near-sorted per-thread stream with stragglers and
                        // deletes: exactly the workload gaps absorb.
                        for i in 0..4_000u64 {
                            let k = tid as u64 * 1_000_000
                                + if rng.gen_bool(0.1) && i > 50 {
                                    i * 4 - rng.gen_range(1..200u64)
                                } else {
                                    i * 4
                                };
                            t.insert(k, k);
                            if i % 5 == 0 {
                                t.delete(tid as u64 * 1_000_000 + i * 2);
                            }
                            if i % 7 == 0 {
                                let _ = t.get(tid as u64 * 1_000_000 + i);
                            }
                        }
                    });
                }
            });
            t.check_consistency().unwrap();
            let all = t.collect_all();
            assert_eq!(all.len(), t.len());
            assert!(
                all.windows(2).all(|w| w[0].0 <= w[1].0),
                "global order (olc={olc})"
            );
        }
    }

    #[test]
    fn olc_counters_stay_zero_when_disabled() {
        let t: ConcurrentTree<u64, u64> = ConcurrentTree::new(ConcConfig::small(8).with_olc(false));
        for k in 0..2_000u64 {
            t.insert(k, k);
            let _ = t.get(k / 2);
        }
        let _ = t.range(..).count();
        assert_eq!(t.stats().olc_restarts.get(), 0);
        assert_eq!(t.stats().olc_fallbacks.get(), 0);
    }

    #[test]
    fn olc_restarts_then_falls_back_under_forced_contention() {
        // Hold the root *node* write-locked: every optimistic descent fails
        // at its first version read, so one get must count exactly
        // budget + 1 restarts, then one fallback, then complete on the
        // pessimistic path once the lock is released.
        let budget = OLC_MAX_RESTARTS;
        let t: ConcurrentTree<u64, u64> = ConcurrentTree::new(ConcConfig::small(8));
        for k in 0..100u64 {
            t.insert(k, k * 2);
        }
        let root = t.root.read().clone();
        let g = RwLock::write_arc(&root);
        std::thread::scope(|s| {
            let h = s.spawn(|| t.get(42));
            // Deterministic rendezvous: wait until the reader has burned
            // its whole budget and fallen back (it then blocks on the
            // pessimistic read lock), then release the writer.
            while t.stats().olc_fallbacks.get() == 0 {
                std::thread::yield_now();
            }
            drop(g);
            assert_eq!(h.join().unwrap(), Some(84));
        });
        assert_eq!(t.stats().olc_fallbacks.get(), 1);
        assert_eq!(t.stats().olc_restarts.get(), u64::from(budget) + 1);
    }

    #[test]
    fn olc_insert_falls_back_and_key_lands_once() {
        // Same forced-contention scheme for the insert descent: the
        // optimistic insert exhausts its budget, hands the value back, and
        // the pessimistic crabbing path inserts it exactly once.
        let budget = OLC_MAX_RESTARTS;
        let t: ConcurrentTree<u64, u64> =
            ConcurrentTree::new(ConcConfig::small(8).with_pole(false));
        for k in 0..100u64 {
            t.insert(k, k);
        }
        let before = t.stats().olc_restarts.get();
        let root = t.root.read().clone();
        let g = RwLock::write_arc(&root);
        std::thread::scope(|s| {
            let h = s.spawn(|| t.insert(1_000, 7));
            while t.stats().olc_fallbacks.get() == 0 {
                std::thread::yield_now();
            }
            drop(g);
            h.join().unwrap();
        });
        assert_eq!(t.stats().olc_fallbacks.get(), 1);
        assert_eq!(t.stats().olc_restarts.get() - before, u64::from(budget) + 1);
        assert_eq!(t.get(1_000), Some(7));
        assert_eq!(t.len(), 101);
        assert_eq!(t.collect_all().iter().filter(|e| e.0 == 1_000).count(), 1);
    }

    #[test]
    fn absorbed_uniform_key_leaf_reads_through_latched_fallback() {
        // A leaf full of one repeated key cannot split and absorbs the
        // overflow past its pinned buffer reservation; optimistic gets
        // must detect the oversize leaf and fall back to a latched read.
        let t: ConcurrentTree<u64, u64> = ConcurrentTree::new(ConcConfig::small(4));
        for i in 0..12u64 {
            t.insert(7, i);
        }
        assert_eq!(t.len(), 12);
        assert!(t.get(7).is_some());
        assert_eq!(t.get(3), None);
        assert_eq!(t.collect_all().len(), 12);
        assert!(t.check_consistency().is_ok());
        // The retired-buffer keep-alive list took the outgrown allocations.
        assert!(!t.retired.lock().is_empty());
    }

    #[test]
    fn heap_owning_values_route_through_latched_leaf_read() {
        // A validated latch-free snapshot must never be cloned for a V
        // with drop glue: a racing delete could drop the original between
        // validate and clone, leaving the snapshot's heap pointers
        // dangling. `leaf_get` must refuse such V outright…
        let node: NodeRef<u64, String> = CNode::empty_leaf(8).into_ref();
        {
            let mut g = RwLock::write_arc(&node);
            let CNode::Leaf { keys, vals, .. } = &mut *g else {
                unreachable!();
            };
            keys.push(1);
            vals.push("one".to_owned());
        }
        let v = node.optimistic_version().unwrap();
        assert!(matches!(
            olc::leaf_get(&node, v, 1, 8),
            LeafRead::NeedsLatch
        ));
        // …while plain-data values stay on the latch-free path.
        let plain: NodeRef<u64, u64> = CNode::empty_leaf(8).into_ref();
        {
            let mut g = RwLock::write_arc(&plain);
            let CNode::Leaf { keys, vals, .. } = &mut *g else {
                unreachable!();
            };
            keys.push(1);
            vals.push(10);
        }
        let v = plain.optimistic_version().unwrap();
        assert!(matches!(olc::leaf_get(&plain, v, 1, 8), LeafRead::Hit(10)));
        // The tree-level API serves heap-owning values correctly through
        // the latched fallback.
        let t: ConcurrentTree<u64, String> = ConcurrentTree::new(ConcConfig::small(8));
        for k in 0..500u64 {
            t.insert(k, format!("value-{k}"));
        }
        assert_eq!(t.get(123).as_deref(), Some("value-123"));
        assert_eq!(t.get(9_999), None);
    }

    #[test]
    fn heap_values_survive_concurrent_deletes_and_gets() {
        // Regression for the OLC use-after-free: readers hammer `get` on
        // String values while deleters drop them. Before the `needs_drop`
        // gate, a get could clone a validated byte snapshot whose backing
        // String a delete had just freed.
        let t: StdArc<ConcurrentTree<u64, String>> =
            StdArc::new(ConcurrentTree::new(ConcConfig::small(8)));
        let n = 4_000u64;
        for k in 0..n {
            t.insert(k, format!("value-{k}"));
        }
        std::thread::scope(|s| {
            for part in 0..2u64 {
                let t = t.clone();
                s.spawn(move || {
                    for k in (0..n).filter(|k| k % 2 == part) {
                        assert_eq!(t.delete(k), Some(format!("value-{k}")));
                    }
                });
            }
            for _ in 0..2 {
                let t = t.clone();
                s.spawn(move || {
                    for round in 0..4 {
                        for k in (0..n).skip(round).step_by(3) {
                            if let Some(v) = t.get(k) {
                                assert_eq!(v, format!("value-{k}"));
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(t.len(), 0);
        assert!(t.check_consistency().is_ok());
    }

    #[test]
    fn near_sorted_concurrent_stream() {
        let keys = bods::BodsSpec::new(20_000, 0.05, 1.0).generate();
        let t: StdArc<ConcurrentTree<u64, u64>> =
            StdArc::new(ConcurrentTree::new(ConcConfig::paper_default()));
        let chunk = keys.len() / 4;
        let handles: Vec<_> = keys
            .chunks(chunk)
            .map(|c| {
                let c = c.to_vec();
                let t = t.clone();
                std::thread::spawn(move || {
                    for k in c {
                        t.insert(k, k);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 20_000);
        let all = t.collect_all();
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
