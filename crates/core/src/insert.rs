//! Ingestion: top-inserts and the three fast paths.
//!
//! * `insert_tail` — PostgreSQL-style tail-leaf fast path (§2).
//! * `insert_lil` — last-insertion-leaf (§3, Fig 4).
//! * `insert_pole` — predicted-ordered-leaf, Algorithm 1, with the QuIT
//!   extensions of Algorithm 2 (variable split / redistribute) and the §4.3
//!   reset strategy.
//!
//! Every decision — coverage, promote-or-tighten, split position,
//! redistribute, catch-up, reset — is made by [`crate::FastPathState`]; this
//! module executes the plans it returns with the tree's node operations.

use crate::arena::NodeId;
use crate::fastpath::{FastPathMode, FullPolePlan, PoleSplit, PrevLeaf, TopInsert};
use crate::key::Key;
use crate::stats::Stats;
use crate::tree::BpTree;

impl<K: Key, V> BpTree<K, V> {
    #[inline]
    pub(crate) fn leaf_len(&self, id: NodeId) -> usize {
        self.arena.get(id).as_leaf().len()
    }

    /// The fast-path leaf (`fp_id`).
    #[inline]
    pub(crate) fn fp_leaf(&self) -> Option<NodeId> {
        self.fp.leaf().copied()
    }

    /// `leaf`'s chain predecessor as a poℓe pointed at `leaf` adopts it.
    pub(crate) fn chain_prev(&self, leaf: NodeId) -> Option<PrevLeaf<K, NodeId>> {
        let prev = self.arena.get(leaf).as_leaf().prev?;
        let pl = self.arena.get(prev).as_leaf();
        Some(PrevLeaf {
            leaf: prev,
            min: pl.keys.first().copied(),
            len: pl.len(),
        })
    }

    /// Re-points the fast path at `leaf` with separator bounds
    /// `[low, high)`; poℓe adopts the chain predecessor as `poℓe_prev`.
    pub(crate) fn repoint_fast_path(&mut self, leaf: NodeId, low: Option<K>, high: Option<K>) {
        let prev = self.mode.is_pole().then(|| self.chain_prev(leaf)).flatten();
        self.fp.repoint(leaf, low, high, prev);
    }
}

// Ingestion requires `V: Clone` because gapped leaves materialize filler
// copies (split-time regap, gap-ifying removals); the dense paper path
// never clones, but the bound is uniform so layouts stay swappable.
impl<K: Key, V: Clone> BpTree<K, V> {
    /// Inserts an entry. Duplicate keys are allowed (this is an index, not a
    /// map); the new entry lands after existing equal keys.
    pub fn insert(&mut self, key: K, value: V) {
        // Operation boundary: under paged storage, release the previous
        // operation's implicit pins and trim residency to the pool budget.
        self.arena.begin_op();
        let t0 = self.metrics.op_timer();
        match self.mode {
            FastPathMode::None => {
                self.top_insert(key, value);
            }
            FastPathMode::Tail => self.insert_tail(key, value),
            FastPathMode::Lil => self.insert_lil(key, value),
            FastPathMode::Pole => self.insert_pole(key, value),
        }
        self.len += 1;
        self.metrics.record_insert_latency(t0);
    }

    /// Places the entry in `leaf_id` at its sorted slot (after duplicates).
    /// The leaf must have room.
    pub(crate) fn insert_entry(&mut self, leaf_id: NodeId, key: K, value: V) {
        let kind = self.config.search_kind;
        let cap = self.config.leaf_capacity;
        let leaf = self.arena.get_mut(leaf_id).as_leaf_mut();
        debug_assert!(leaf.len() < cap);
        match crate::layout::insert_at(
            kind,
            &mut leaf.keys,
            &mut leaf.vals,
            &mut leaf.gaps,
            key,
            value,
            cap,
        ) {
            crate::layout::SlotInsert::Done(_) => {}
            crate::layout::SlotInsert::Full => unreachable!("caller ensures room"),
        }
    }

    /// Classical root-to-leaf insert. Returns the accepting leaf and its
    /// separator bounds after any split, so fast-path callers can adopt it.
    pub(crate) fn top_insert(&mut self, key: K, value: V) -> (NodeId, Option<K>, Option<K>) {
        let (mut leaf_id, mut low, mut high, _) = self.descend(key);
        if self.leaf_len(leaf_id) >= self.config.leaf_capacity {
            let (right, sep) = self.split_leaf_default(leaf_id);
            if key >= sep {
                leaf_id = right;
                low = Some(sep);
            } else {
                high = Some(sep);
            }
        }
        self.insert_entry(leaf_id, key, value);
        Stats::bump(&self.metrics.counters.top_inserts);
        self.metrics.record_insert_outcome(false);
        (leaf_id, low, high)
    }

    fn count_fast_insert(&mut self) {
        Stats::bump(&self.metrics.counters.fast_inserts);
        self.metrics.record_insert_outcome(true);
    }

    // ------------------------------------------------------------------
    // tail
    // ------------------------------------------------------------------

    fn insert_tail(&mut self, key: K, value: V) {
        // The tail has no upper bound, so coverage is `key >= fp_min`.
        if !self.fp.covers(key) {
            self.top_insert(key, value);
            return;
        }
        let mut target = self.tail;
        if self.leaf_len(target) >= self.config.leaf_capacity {
            let (right, sep) = self.split_leaf_default(target);
            self.fp.follow_split(right, sep);
            if key >= sep {
                target = right;
            }
        }
        self.insert_entry(target, key, value);
        self.count_fast_insert();
    }

    // ------------------------------------------------------------------
    // ℓiℓ
    // ------------------------------------------------------------------

    fn insert_lil(&mut self, key: K, value: V) {
        if self.fp.covers(key) {
            let mut target = self.fp_leaf().expect("covers implies a leaf");
            if self.leaf_len(target) >= self.config.leaf_capacity {
                let (right, sep) = self.split_leaf_default(target);
                if key >= sep {
                    // Fig 4d: the key lands in the new node — ℓiℓ follows it.
                    target = right;
                    self.fp.follow_split(right, sep);
                } else {
                    // Fig 4e: ℓiℓ stays; only its upper bound tightens.
                    self.fp.stay_after_split(sep);
                }
            }
            self.insert_entry(target, key, value);
            self.count_fast_insert();
        } else {
            // Fig 4b: top-insert, then re-point ℓiℓ at the accepting leaf.
            let (leaf, low, high) = self.top_insert(key, value);
            self.fp.repoint(leaf, low, high, None);
        }
    }

    // ------------------------------------------------------------------
    // poℓe / QuIT (Algorithm 1)
    // ------------------------------------------------------------------

    fn insert_pole(&mut self, key: K, value: V) {
        if self.fp.covers(key) {
            // Algorithm 1 lines 1–9: fast-insert, making room first if full.
            let pole = self.fp_leaf().expect("covers implies a leaf");
            let target = if self.leaf_len(pole) >= self.config.leaf_capacity {
                self.make_room_in_pole(pole, key)
            } else {
                pole
            };
            self.insert_entry(target, key, value);
            self.fp.on_covered_insert();
            self.count_fast_insert();
        } else {
            // Algorithm 1 lines 10–14: top-insert, then catch up or count
            // the miss. Catch-up needs the poℓe's key span, read only when
            // the insert landed in its chain successor.
            let (landed, low, high) = self.top_insert(key, value);
            let successor_of = self.fp_leaf().and_then(|pole| {
                let pl = self.arena.get(pole).as_leaf();
                if pl.next != Some(landed) {
                    return None;
                }
                Some((*pl.keys.first()?, *pl.keys.last()?))
            });
            let counter = match self.fp.on_top_insert(key, successor_of, &self.config) {
                TopInsert::Miss => return,
                TopInsert::CaughtUp => &self.metrics.counters.pole_catch_ups,
                TopInsert::Reset => &self.metrics.counters.fp_resets,
            };
            Stats::bump(counter);
            self.repoint_fast_path(landed, low, high);
        }
    }

    /// A fast-insert of `key` arrived at the full poℓe node: executes the
    /// policy's [`FullPolePlan`] (variable split, 50/50 split, or
    /// redistribution into `poℓe_prev`) and returns the leaf that must
    /// receive `key` (guaranteed non-full).
    fn make_room_in_pole(&mut self, pole: NodeId, key: K) -> NodeId {
        let (actual_prev_len, adjacent) = match self.fp.redistribute_candidate(&self.config) {
            Some(&prev) => {
                let pl = self.arena.get(prev).as_leaf();
                (pl.len(), pl.next == Some(pole))
            }
            None => (0, false),
        };
        let keys = &self.arena.get(pole).as_leaf().keys;
        let (q, pole_len) = (keys[0], keys.len());
        let plan = self
            .fp
            .full_pole_plan(&self.config, keys, actual_prev_len, adjacent);
        let pos = match plan {
            FullPolePlan::Redistribute { move_count } => {
                let prev = *self.fp.prev().expect("redistribution names a poℓe_prev");
                self.redistribute_to_prev(pole, prev, move_count);
                let new_min = self.arena.get(pole).as_leaf().keys[0];
                self.fp.on_redistribute(&self.config, new_min);
                return if key >= new_min { pole } else { prev };
            }
            FullPolePlan::Variable { pos, .. } => {
                Stats::bump(&self.metrics.counters.variable_splits);
                pos
            }
            FullPolePlan::Default { pos } => pos,
        };
        let (right, sep) = self.split_leaf_at(pole, pos);
        let split = PoleSplit {
            q,
            sep,
            pole_len,
            left_len: pos,
            right,
        };
        self.fp.on_pole_split(plan, &self.config, split, key);
        if key >= sep {
            right
        } else {
            pole
        }
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
    fn sorted_ingest_is_all_fast_for_every_fast_mode() {
        for mode in [FastPathMode::Tail, FastPathMode::Lil, FastPathMode::Pole] {
            let mut t = tree(mode, 8);
            for k in 0..1000u64 {
                t.insert(k, k);
            }
            assert_eq!(t.stats().top_inserts.get(), 0, "{mode:?}");
            assert_eq!(t.stats().fast_inserts.get(), 1000, "{mode:?}");
            for k in (0..1000).step_by(97) {
                assert_eq!(t.get(k), Some(&k));
            }
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn classic_mode_never_fast_inserts() {
        let mut t = tree(FastPathMode::None, 8);
        for k in 0..100u64 {
            t.insert(k, k);
        }
        assert_eq!(t.stats().fast_inserts.get(), 0);
        assert_eq!(t.stats().top_inserts.get(), 100);
    }

    #[test]
    fn tail_goes_stale_after_outliers() {
        // Fig 3's phenomenon: once outliers fill the tail leaf, near-sorted
        // keys can no longer use the tail fast path.
        let cap = 8;
        let mut t = tree(FastPathMode::Tail, cap);
        for k in 0..100u64 {
            t.insert(k, k);
        }
        // One leaf's worth of far-future outliers strands the tail.
        for k in 0..cap as u64 {
            t.insert(1_000_000 + k, 0);
        }
        let top_before = t.stats().top_inserts.get();
        for k in 100..200u64 {
            t.insert(k, k);
        }
        let top_after = t.stats().top_inserts.get();
        assert_eq!(top_after - top_before, 100, "tail must be stale");
        t.check_invariants().unwrap();
    }

    #[test]
    fn lil_recovers_after_an_outlier() {
        let mut t = tree(FastPathMode::Lil, 8);
        for k in 0..100u64 {
            t.insert(k, k);
        }
        t.insert(5, 5); // outlier: top-insert, ℓiℓ moves to the wrong leaf
        let top1 = t.stats().top_inserts.get();
        t.insert(100, 100); // next in-order entry: one more top-insert…
        let top2 = t.stats().top_inserts.get();
        assert_eq!(top2 - top1, 1, "ℓiℓ pays one extra top-insert");
        t.insert(101, 101); // …after which the fast path works again
        assert_eq!(t.stats().top_inserts.get(), top2);
        t.check_invariants().unwrap();
    }

    #[test]
    fn pole_absorbs_outliers_with_one_top_insert_each() {
        // The §3 headroom argument: poℓe should pay exactly one top-insert
        // per out-of-order entry, where ℓiℓ pays two.
        let mut t = tree(FastPathMode::Pole, 8);
        for k in 0..1000u64 {
            t.insert(k, k);
            if k % 100 == 50 {
                t.insert(k / 2, 0); // out-of-order entry
            }
        }
        let tops = t.stats().top_inserts.get();
        assert_eq!(tops, 10, "one top-insert per outlier, got {tops}");
        t.check_invariants().unwrap();
    }

    #[test]
    fn pole_catch_up_promotes_pole_next() {
        // §4.2's catch-up scenario: outliers split off into poℓe_next, the
        // in-order stream keeps filling poℓe, and when it finally reaches
        // the outlier range a top-insert lands in poℓe_next and promotes it.
        let mut t: BpTree<u64, u64> = BpTree::with_config(
            FastPathMode::Pole,
            TreeConfig::small(8)
                .with_variable_split(false)
                .with_reset_threshold(None),
        );
        // Dense run establishes density 1 and a tail poℓe.
        for k in 0..12u64 {
            t.insert(k, k);
        }
        // Outliers land in the tail poℓe (no upper bound), force a split,
        // and IKR marks the new node an outlier node: poℓe stays put.
        for k in [300u64, 301, 302, 303] {
            t.insert(k, k);
        }
        // The in-order stream continues and eventually reaches 300: that
        // insert is beyond fp_max, top-inserts into poℓe_next, passes IKR,
        // and poℓe catches up.
        for k in 12..320u64 {
            t.insert(k, k);
        }
        assert!(
            t.stats().pole_catch_ups.get() >= 1,
            "expected a catch-up promotion"
        );
        // After catching up the fast path serves the stream again.
        t.stats().reset();
        for k in 320..360u64 {
            t.insert(k, k);
        }
        assert!(t.stats().fast_inserts.get() >= 30);
        t.check_invariants().unwrap();
    }

    #[test]
    fn quit_reset_recovers_from_scrambled_segment() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = tree(FastPathMode::Pole, 8); // full QuIT config
                                                 // Sorted segment.
        for k in 0..500u64 {
            t.insert(k, k);
        }
        // Scrambled segment in a disjoint key range.
        let mut scram: Vec<u64> = (10_000..10_500).collect();
        scram.shuffle(&mut rng);
        for k in scram {
            t.insert(k, k);
        }
        // New sorted segment beyond everything: reset must re-arm the pole.
        let fast_before = t.stats().fast_inserts.get();
        for k in 20_000..20_500u64 {
            t.insert(k, k);
        }
        let gained = t.stats().fast_inserts.get() - fast_before;
        assert!(
            gained > 400,
            "reset should restore fast path; only {gained} fast inserts"
        );
        assert!(t.stats().fp_resets.get() >= 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn pole_without_reset_stays_stale() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        let mut t: BpTree<u64, u64> = BpTree::with_config(
            FastPathMode::Pole,
            TreeConfig::small(8).with_reset_threshold(None),
        );
        for k in 0..500u64 {
            t.insert(k, k);
        }
        let mut scram: Vec<u64> = (10_000..10_500).collect();
        scram.shuffle(&mut rng);
        for k in scram {
            t.insert(k, k);
        }
        let fast_before = t.stats().fast_inserts.get();
        for k in 20_000..20_500u64 {
            t.insert(k, k);
        }
        let gained = t.stats().fast_inserts.get() - fast_before;
        // Fig 12: the poℓe-B+-tree (no reset) gets trapped in a stale state.
        assert!(
            gained < 50,
            "expected stale poℓe, got {gained} fast inserts"
        );
        assert_eq!(t.stats().fp_resets.get(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn variable_split_packs_sorted_leaves_tight() {
        let mut quit = tree(FastPathMode::Pole, 8);
        let mut classic = tree(FastPathMode::None, 8);
        for k in 0..4096u64 {
            quit.insert(k, k);
            classic.insert(k, k);
        }
        let mq = quit.memory_report();
        let mc = classic.memory_report();
        // Steady-state occupancy under the variable split is (cap−1)/cap:
        // 7/8 here, 509/510 ≈ 100% at paper geometry.
        assert!(
            mq.avg_leaf_occupancy > 0.85,
            "QuIT sorted occupancy {}",
            mq.avg_leaf_occupancy
        );
        assert!(
            mc.avg_leaf_occupancy < 0.6,
            "classic sorted occupancy {}",
            mc.avg_leaf_occupancy
        );
        assert!(mq.paged_bytes < mc.paged_bytes);
        quit.check_invariants().unwrap();
    }

    #[test]
    fn redistribute_fires_after_reset_onto_underfull_prev() {
        // Build a tree where a reset adopts an under-half-full predecessor,
        // then fill the pole until it must redistribute.
        let mut t = tree(FastPathMode::Pole, 8);
        for k in (0..800u64).step_by(2) {
            t.insert(k, k);
        }
        // Scramble far away to trigger resets onto arbitrary leaves.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        let mut keys: Vec<u64> = (100_000..100_400).collect();
        keys.shuffle(&mut rng);
        for k in keys {
            t.insert(k, k);
        }
        // Sorted tail drives pole splits; some poles will sit right of
        // underfull leaves.
        for k in 200_000..201_000u64 {
            t.insert(k, k);
        }
        t.check_invariants().unwrap();
        for k in (0..800).step_by(2) {
            assert!(t.contains_key(k));
        }
        for k in 200_000..201_000u64 {
            assert!(t.contains_key(k));
        }
    }

    #[test]
    fn duplicates_flow_through_every_mode() {
        for mode in [
            FastPathMode::None,
            FastPathMode::Tail,
            FastPathMode::Lil,
            FastPathMode::Pole,
        ] {
            let mut t = tree(mode, 4);
            for rep in 0..10u64 {
                for k in 0..20u64 {
                    t.insert(k, rep);
                }
            }
            for k in 0..20u64 {
                assert_eq!(t.get_all(k).len(), 10, "{mode:?} key {k}");
            }
            assert_eq!(t.len(), 200);
            t.check_invariants().unwrap();
        }
    }
}
