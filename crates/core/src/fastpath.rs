//! Fast-path modes and the QuIT policy over their metadata (paper Table 1).
//!
//! All four index variants of the evaluation share one tree; they differ only
//! in this module's [`FastPathMode`] and in which [`FastPathState`] fields
//! they maintain:
//!
//! | field                     | tail | ℓiℓ | poℓe/QuIT |
//! |---------------------------|------|-----|-----------|
//! | `leaf` (fp_id)            |  ✓¹  |  ✓  |  ✓        |
//! | `min`  (fp_min)           |  ✓   |  ✓  |  ✓        |
//! | `max`  (fp_max)           |      |  ✓  |  ✓        |
//! | fp_size²                  |  ✓   |  ✓  |  ✓        |
//! | `prev`, `prev_{min,size}` |      |     |  ✓        |
//! | `fails`                   |      |     |  ✓        |
//!
//! ¹ tail mode reuses the tree's `tail_id`.
//! ² every tree in this workspace dereferences the fast-path leaf on the way
//!   to inserting into it, so the occupancy is read off the node instead of
//!   being cached; [`FastPathState::metadata_bytes`] still charges it.
//!
//! [`FastPathState`] is the one place the poℓe / IKR / reset decisions are
//! made. It is generic over the leaf handle `L` (`NodeId` for the arena and
//! paged trees, an `Arc` node reference for the concurrent tree), its fields
//! are private, and every method takes scalars and key slices and either
//! updates the metadata or returns a plan that the owning tree executes with
//! its own node operations. No method allocates.

use crate::arena::NodeId;
use crate::config::TreeConfig;
use crate::ikr::is_outlier;
use crate::key::Key;

/// Which fast-path optimization the tree runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FastPathMode {
    /// Classical B+-tree: every insert is a top-insert.
    None,
    /// Tail-leaf fast path (PostgreSQL-style): fast-insert keys that fall
    /// into the right-most leaf.
    Tail,
    /// Last-insertion-leaf (§3): the fast-path pointer follows the most
    /// recent insert, sorted or not.
    Lil,
    /// Predicted-ordered-leaf (§4): the pointer moves only on splits, under
    /// IKR guidance. With `TreeConfig::{variable_split, redistribute,
    /// reset_threshold}` enabled this is the full QuIT design; with them
    /// disabled it is the paper's "poℓe-B+-tree" ablation.
    Pole,
}

impl FastPathMode {
    /// True when the mode maintains any fast-path state at all.
    #[inline]
    pub fn has_fast_path(self) -> bool {
        !matches!(self, FastPathMode::None)
    }

    /// True for the poℓe-based modes (poℓe-B+-tree and QuIT).
    #[inline]
    pub fn is_pole(self) -> bool {
        matches!(self, FastPathMode::Pole)
    }
}

/// What to do with a covered insert that found the poℓe full
/// ([`FastPathState::full_pole_plan`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FullPolePlan {
    /// Algorithm 1: split 50/50 at `pos`; whether poℓe moves is decided from
    /// the separator the split produces ([`FastPathState::on_pole_split`]).
    Default {
        /// Entries the left node keeps.
        pos: usize,
    },
    /// Algorithm 2 lines 3–8: split at the IKR-located `pos`.
    Variable {
        /// Entries the left node keeps.
        pos: usize,
        /// Fig 7a (`true`): few outliers, the new right node becomes poℓe.
        /// Fig 7b (`false`): the outliers move out and poℓe keeps its
        /// in-order prefix.
        promote: bool,
    },
    /// Algorithm 2 line 10 / Fig 7c: move the `move_count` smallest poℓe
    /// entries into the under-half-full `poℓe_prev` instead of splitting.
    Redistribute {
        /// Entries to move (`1 ≤ move_count < poℓe_size`).
        move_count: usize,
    },
}

/// A poℓe split as the tree executed it, reported to
/// [`FastPathState::on_pole_split`].
#[derive(Clone, Copy, Debug)]
pub struct PoleSplit<K, L> {
    /// Smallest key of the poℓe node (`q` in Eq. 2).
    pub q: K,
    /// Separator: smallest key of the new right node (`r` in Fig 6).
    pub sep: K,
    /// Entries the poℓe node held before the split (`poℓe_size` in Eq. 2).
    pub pole_len: usize,
    /// Entries the left node kept.
    pub left_len: usize,
    /// The new right node.
    pub right: L,
}

/// The chain predecessor a re-pointed poℓe adopts as `poℓe_prev`.
#[derive(Clone, Copy, Debug)]
pub struct PrevLeaf<K, L> {
    /// The predecessor node.
    pub leaf: L,
    /// Its smallest key (`p` in Eq. 2).
    pub min: Option<K>,
    /// Its occupancy (`poℓe_prev_size`).
    pub len: usize,
}

/// Verdict on a top-insert under poℓe ([`FastPathState::on_top_insert`]).
/// After `CaughtUp` or `Reset` the tree re-points the fast path at the leaf
/// that accepted the insert ([`FastPathState::repoint`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopInsert {
    /// §4.2: the insert landed in poℓe's chain successor and is no longer
    /// an IKR outlier — that node becomes poℓe.
    CaughtUp,
    /// §4.3: the `T_R`-th consecutive miss — adopt the accepting leaf.
    Reset,
    /// One more miss; poℓe stays.
    Miss,
}

/// Fast-path metadata (Table 1) and the policy over it. Less than 20 bytes
/// beyond ℓiℓ's needs for the poℓe fields.
#[derive(Clone, Debug)]
pub struct FastPathState<K, L = NodeId> {
    /// The fast-path leaf (`fp_id`): tail leaf, ℓiℓ, or poℓe by mode.
    leaf: Option<L>,
    /// Smallest key the fast-path leaf accepts (`fp_min`); `None` means
    /// unbounded below (left-most leaf).
    min: Option<K>,
    /// Exclusive upper bound (`fp_max`); `None` means unbounded above
    /// (the fast-path leaf is the tail, §4.2 omits the check).
    max: Option<K>,
    /// `poℓe_prev` (poℓe modes only).
    prev: Option<L>,
    /// Smallest key of `poℓe_prev` (`p` in Eq. 2). Memoized when poℓe moves,
    /// not live-synced: the density basis Eq. 2 extrapolates from must stay
    /// the one observed between two known non-outliers, or oscillating
    /// workloads collapse it.
    prev_min: Option<K>,
    /// Occupancy of `poℓe_prev` (`poℓe_prev_size` in Eq. 2), memoized with
    /// `prev_min`.
    prev_size: usize,
    /// Consecutive top-inserts since the last fast-insert (`poℓe_fails`);
    /// reaching `T_R` triggers the reset strategy (§4.3).
    fails: usize,
}

impl<K: Key, L> FastPathState<K, L> {
    /// State with the fast path at `leaf` (accepting everything), or
    /// disarmed when `None`.
    pub fn new(leaf: Option<L>) -> Self {
        FastPathState {
            leaf,
            min: None,
            max: None,
            prev: None,
            prev_min: None,
            prev_size: 0,
            fails: 0,
        }
    }

    /// State for a brand-new single-leaf tree: the root leaf is the fast
    /// path and accepts everything.
    pub fn initial(root_leaf: L) -> Self {
        Self::new(Some(root_leaf))
    }

    /// The fast-path leaf.
    #[inline]
    pub fn leaf(&self) -> Option<&L> {
        self.leaf.as_ref()
    }

    /// The acceptance range `[fp_min, fp_max)`; `None` is unbounded.
    #[inline]
    pub fn bounds(&self) -> (Option<K>, Option<K>) {
        (self.min, self.max)
    }

    /// `poℓe_prev`.
    #[inline]
    pub fn prev(&self) -> Option<&L> {
        self.prev.as_ref()
    }

    /// True when `key` falls inside the fast-path acceptance range
    /// `[fp_min, fp_max)`; missing bounds are unbounded.
    #[inline]
    pub fn covers(&self, key: K) -> bool {
        if self.leaf.is_none() {
            return false;
        }
        if let Some(min) = self.min {
            if key < min {
                return false;
            }
        }
        if let Some(max) = self.max {
            if key >= max {
                return false;
            }
        }
        true
    }

    /// A covered key was fast-inserted (Algorithm 1 lines 1–9), through a
    /// split or not: the miss streak ends.
    #[inline]
    pub fn on_covered_insert(&mut self) {
        self.fails = 0;
    }

    // ------------------------------------------------------------------
    // Full poℓe: Algorithm 2 (QuIT) or the default split of Algorithm 1
    // ------------------------------------------------------------------

    /// The `poℓe_prev` node whose occupancy and chain adjacency
    /// [`FastPathState::full_pole_plan`] needs probed, i.e. `Some` exactly
    /// when redistribution is on the table. Lets the tree skip the node
    /// access (a possible page fault) in the common case.
    #[inline]
    pub fn redistribute_candidate(&self, cfg: &TreeConfig) -> Option<&L> {
        let wanted = cfg.variable_split
            && cfg.redistribute
            && self.prev_min.is_some()
            && self.prev_size < cfg.def_split_pos();
        self.prev.as_ref().filter(|_| wanted)
    }

    /// Decides how to make room in a full poℓe whose keys are `keys`.
    /// `actual_prev_len` / `adjacent` describe the node
    /// [`FastPathState::redistribute_candidate`] named (ignored when it
    /// named none): the physical move is sized from the node's *actual*
    /// occupancy because the `prev_size` memo may lag, and chain adjacency
    /// is required so order holds. A lagging memo is refreshed here.
    #[inline]
    pub fn full_pole_plan(
        &mut self,
        cfg: &TreeConfig,
        keys: &[K],
        actual_prev_len: usize,
        adjacent: bool,
    ) -> FullPolePlan {
        let def = cfg.def_split_pos();
        if cfg.variable_split && self.prev.is_some() {
            if let Some(p) = self.prev_min {
                if self.prev_size >= def {
                    return self.variable_plan(cfg, keys, p);
                }
                if cfg.redistribute && adjacent {
                    // Fig 7c: refill poℓe_prev to exactly half before
                    // using IKR again.
                    let move_count = def.saturating_sub(actual_prev_len);
                    if move_count >= 1 && move_count < keys.len() {
                        return FullPolePlan::Redistribute { move_count };
                    }
                    if move_count == 0 {
                        // The predecessor is already at least half full
                        // (the memo lagged): refresh it and use IKR.
                        self.prev_size = actual_prev_len;
                        return self.variable_plan(cfg, keys, p);
                    }
                }
            }
        }
        FullPolePlan::Default {
            pos: keys.len() / 2,
        }
    }

    /// Algorithm 2 lines 3–8: the IKR-guided variable-split position.
    #[inline]
    fn variable_plan(&self, cfg: &TreeConfig, keys: &[K], p: K) -> FullPolePlan {
        let plen = keys.len();
        let q = keys[0];
        let def = cfg.def_split_pos();
        // Position of the first predicted outlier (`l`). l >= 1 since the
        // envelope always admits q itself.
        // Eq. 2 applied per position: the key in slot i must lie within
        // the density envelope extrapolated i+1 entries past q
        // (`poℓe_size` = the prefix length it closes). This reads "the
        // first key greater than the estimated acceptable value lower
        // bound" cumulatively, so an out-of-order entry that merely
        // *rides* close ahead of the in-order frontier is cut off exactly
        // at the frontier.
        let density = (q.to_ikr() - p.to_ikr()) / self.prev_size as f64;
        let step = density * cfg.ikr_scale;
        let base = q.to_ikr();
        let mut l = 1usize;
        while l < plen && keys[l].to_ikr() <= base + step * (l + 1) as f64 {
            l += 1;
        }
        if l <= def {
            // Mostly outliers (Fig 7b): split at l, moving every outlier to
            // the new node; poℓe keeps its in-order prefix and its pointer.
            return FullPolePlan::Variable {
                pos: l,
                promote: false,
            };
        }
        // Few outliers (Fig 7a): split at l−1, carrying one in-order
        // entry into the new node, which becomes poℓe.
        FullPolePlan::Variable {
            pos: l - 1,
            promote: true,
        }
    }

    /// The tree split the poℓe node per `plan` while inserting `key`:
    /// promote the new right node or tighten poℓe's upper bound (Fig 6).
    /// A [`FullPolePlan::Default`] split promotes iff the separator is not
    /// an IKR outlier; without a `poℓe_prev` yet (§4.2 initialisation) poℓe
    /// follows the leaf that receives the latest insert.
    #[inline]
    pub fn on_pole_split(
        &mut self,
        plan: FullPolePlan,
        cfg: &TreeConfig,
        split: PoleSplit<K, L>,
        key: K,
    ) {
        let promote = match plan {
            FullPolePlan::Variable { promote, .. } => promote,
            FullPolePlan::Default { .. } => match self.prev_min {
                Some(p) if self.prev_size > 0 => !is_outlier(
                    split.sep,
                    p,
                    split.q,
                    self.prev_size,
                    split.pole_len,
                    cfg.ikr_scale,
                ),
                _ => key >= split.sep,
            },
            FullPolePlan::Redistribute { .. } => unreachable!("redistribution does not split"),
        };
        if !promote {
            // The split-off node holds predicted outliers; it stays poℓe's
            // chain successor, where a later top-insert can catch up.
            self.stay_after_split(split.sep);
            return;
        }
        self.prev = self.leaf.replace(split.right);
        self.prev_min = Some(split.q);
        self.prev_size = split.left_len;
        // `inject-split-bug` (testkit mutation smoke check only) leaves the
        // stale pre-split lower bound in place after a variable split, so a
        // later key in `[old_min, sep)` fast-inserts into the right node
        // below its separator — exactly the class of bound bug the
        // differential oracle must catch and shrink.
        if !(cfg!(feature = "inject-split-bug") && matches!(plan, FullPolePlan::Variable { .. })) {
            self.min = Some(split.sep);
        }
    }

    /// The tree executed a [`FullPolePlan::Redistribute`]: `poℓe_prev` is
    /// now exactly half full and poℓe starts at `new_min`.
    #[inline]
    pub fn on_redistribute(&mut self, cfg: &TreeConfig, new_min: K) {
        self.prev_size = cfg.def_split_pos();
        self.min = Some(new_min);
    }

    // ------------------------------------------------------------------
    // Top-inserts: §4.2 catch-up and §4.3 reset
    // ------------------------------------------------------------------

    /// An uncovered `key` was top-inserted (Algorithm 1 lines 10–14).
    ///
    /// `successor_of` is `Some((q, m))` — poℓe's smallest and largest keys —
    /// exactly when the insert landed in poℓe's chain successor: when a
    /// split predicted outliers that node holds them, and after a reset
    /// onto an interior leaf it is where the in-order stream lands when it
    /// crosses poℓe's upper bound. The catch-up test is Eq. 2 instantiated
    /// over the poℓe's *own* span, `x = q + (m − q) · scale`: both ends are
    /// known non-outliers (every entry was accepted in order), and unlike
    /// the split-time estimate the span tracks density regime changes —
    /// crucial for real-world keys whose density varies by orders of
    /// magnitude (e.g. volume-at-price in stock streams).
    #[inline]
    pub fn on_top_insert(
        &mut self,
        key: K,
        successor_of: Option<(K, K)>,
        cfg: &TreeConfig,
    ) -> TopInsert {
        if let Some((q, m)) = successor_of {
            let span = (m.to_ikr() - q.to_ikr()).max(0.0);
            if key.to_ikr() <= q.to_ikr() + span * cfg.ikr_scale {
                return TopInsert::CaughtUp;
            }
        }
        self.fails += 1;
        match cfg.reset_threshold {
            Some(t_r) if self.fails >= t_r => TopInsert::Reset,
            _ => TopInsert::Miss,
        }
    }

    // ------------------------------------------------------------------
    // Pointer moves and repairs
    // ------------------------------------------------------------------

    /// Re-points the fast path at `leaf` with separator bounds
    /// `[low, high)`, adopting `prev` as `poℓe_prev` and clearing the miss
    /// streak: catch-up, reset, ℓiℓ following a top-insert, and the delete /
    /// bulk / recovery repairs.
    #[inline]
    pub fn repoint(
        &mut self,
        leaf: L,
        low: Option<K>,
        high: Option<K>,
        prev: Option<PrevLeaf<K, L>>,
    ) {
        self.leaf = Some(leaf);
        self.min = low;
        self.max = high;
        self.set_prev(prev);
        self.fails = 0;
    }

    /// Replaces `poℓe_prev` (a structural delete changed poℓe's chain
    /// predecessor).
    pub fn set_prev(&mut self, prev: Option<PrevLeaf<K, L>>) {
        let (leaf, min, len) = match prev {
            Some(p) => (Some(p.leaf), p.min, p.len),
            None => (None, None, 0),
        };
        self.prev = leaf;
        self.prev_min = min;
        self.prev_size = len;
    }

    /// The fast-path leaf split at `sep` and the pointer follows the new
    /// right node (tail advance; ℓiℓ Fig 4d).
    #[inline]
    pub fn follow_split(&mut self, right: L, sep: K) {
        self.leaf = Some(right);
        self.min = Some(sep);
    }

    /// The fast-path leaf split at `sep` and the pointer stays (ℓiℓ
    /// Fig 4e): only the upper bound tightens.
    #[inline]
    pub fn stay_after_split(&mut self, sep: K) {
        self.max = Some(sep);
    }

    /// Byte size of the metadata this variant keeps *beyond* a classical
    /// B+-tree's `root/head/tail` ids (Table 1 accounting; excludes the
    /// `fp_path` the trees recompute from parent links).
    pub fn metadata_bytes(mode: FastPathMode) -> usize {
        use std::mem::size_of;
        let id = size_of::<NodeId>();
        let key = size_of::<K>();
        let sz = size_of::<u32>(); // sizes fit u32 for any realistic fanout
        match mode {
            FastPathMode::None => 0,
            // fp_size + fp_min (tail reuses tail_id)
            FastPathMode::Tail => sz + key,
            // + fp_max + fp_id
            FastPathMode::Lil => sz + key + key + id,
            // + poℓe_prev_{size,min,id} + poℓe_fails
            FastPathMode::Pole => sz + key + key + id + sz + key + id + sz,
        }
    }
}

impl<K: Key, L: PartialEq> FastPathState<K, L> {
    /// `leaf` was unlinked from the chain: drop it as `poℓe_prev`.
    pub fn forget(&mut self, leaf: &L) {
        if self.prev.as_ref() == Some(leaf) {
            self.set_prev(None);
        }
    }

    /// A borrow moved the separator between chain neighbours `left` and
    /// `right` to `sep`: if either is the fast-path leaf its bound follows.
    pub fn on_separator_moved(&mut self, left: &L, right: &L, sep: K) {
        if self.leaf.as_ref() == Some(right) {
            self.min = Some(sep);
        }
        if self.leaf.as_ref() == Some(left) {
            self.max = Some(sep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_unbounded() {
        let fp: FastPathState<u64> = FastPathState::initial(NodeId(0));
        assert!(fp.covers(0));
        assert!(fp.covers(u64::MAX));
    }

    #[test]
    fn covers_half_open_range() {
        let mut fp: FastPathState<u64> = FastPathState::initial(NodeId(0));
        fp.min = Some(10);
        fp.max = Some(20);
        assert!(!fp.covers(9));
        assert!(fp.covers(10));
        assert!(fp.covers(19));
        assert!(!fp.covers(20));
    }

    #[test]
    fn covers_tail_has_no_upper_bound() {
        let mut fp: FastPathState<u64> = FastPathState::initial(NodeId(0));
        fp.min = Some(10);
        fp.max = None;
        assert!(fp.covers(u64::MAX));
        assert!(!fp.covers(9));
    }

    #[test]
    fn no_leaf_covers_nothing() {
        let mut fp: FastPathState<u64> = FastPathState::initial(NodeId(0));
        fp.leaf = None;
        assert!(!fp.covers(5));
    }

    #[test]
    fn metadata_fits_table_1_budget() {
        // Paper §4.3: "QuIT needs less than 20 bytes of additional metadata"
        // relative to the ℓiℓ variant, for 4-byte keys.
        let lil = FastPathState::<u32>::metadata_bytes(FastPathMode::Lil);
        let pole = FastPathState::<u32>::metadata_bytes(FastPathMode::Pole);
        assert!(pole - lil < 20, "poℓe adds {} bytes", pole - lil);
        assert_eq!(FastPathState::<u32>::metadata_bytes(FastPathMode::None), 0);
        let tail = FastPathState::<u32>::metadata_bytes(FastPathMode::Tail);
        assert!(tail < lil);
    }

    #[test]
    fn mode_predicates() {
        assert!(!FastPathMode::None.has_fast_path());
        assert!(FastPathMode::Tail.has_fast_path());
        assert!(FastPathMode::Pole.is_pole());
        assert!(!FastPathMode::Lil.is_pole());
    }

    // ------------------------------------------------------------------
    // Transition tables, one per policy method (`covers` is the four tests
    // above)
    // ------------------------------------------------------------------

    /// A poℓe at leaf 1 over `[min, max)` whose `poℓe_prev` (leaf 0)
    /// starts at key `p` and was memoized at `prev_size` entries.
    fn pole(min: u64, max: Option<u64>, p: u64, prev_size: usize) -> FastPathState<u64> {
        let prev = PrevLeaf {
            leaf: NodeId(0),
            min: Some(p),
            len: prev_size,
        };
        let mut fp = FastPathState::new(None);
        fp.repoint(NodeId(1), Some(min), max, Some(prev));
        fp
    }

    fn split(q: u64, sep: u64, pole_len: usize) -> PoleSplit<u64, NodeId> {
        PoleSplit {
            q,
            sep,
            pole_len,
            left_len: pole_len / 2,
            right: NodeId(2),
        }
    }

    fn var(pos: usize, promote: bool) -> FullPolePlan {
        FullPolePlan::Variable { pos, promote }
    }

    fn half(pos: usize) -> FullPolePlan {
        FullPolePlan::Default { pos }
    }

    #[test]
    fn default_split_promotes_iff_separator_inside_eq2_envelope() {
        let cfg = TreeConfig::small(100);
        // poℓe_prev = 100 entries from 0, poℓe = 100 entries from 100:
        // x = 100 + 1 · 100 · 1.5 = 250 (see ikr.rs).
        for (sep, promoted) in [(150u64, true), (250, true), (251, false), (9_000, false)] {
            let mut fp = pole(100, None, 0, 100);
            // The latest key lands left of the separator: with a poℓe_prev
            // it is IKR, not the key, that decides.
            fp.on_pole_split(half(50), &cfg, split(100, sep, 100), 120);
            let (leaf, prev, bounds, memo) = if promoted {
                (2, 1, (Some(sep), None), (Some(100), 50))
            } else {
                (1, 0, (Some(100), Some(sep)), (Some(0), 100))
            };
            assert_eq!(fp.leaf(), Some(&NodeId(leaf)), "sep {sep}");
            assert_eq!(fp.prev(), Some(&NodeId(prev)));
            assert_eq!(fp.bounds(), bounds);
            assert_eq!((fp.prev_min, fp.prev_size), memo);
        }
    }

    #[test]
    fn default_split_without_a_prev_follows_the_latest_insert() {
        let cfg = TreeConfig::small(8);
        // §4.2 initialisation: the separator 1_000 would be an outlier under
        // any density, but there is no poℓe_prev to judge it by.
        for (key, leaf) in [(1_000u64, 2), (2_000, 2), (999, 1), (0, 1)] {
            let mut fp: FastPathState<u64> = FastPathState::initial(NodeId(1));
            fp.on_pole_split(half(4), &cfg, split(0, 1_000, 8), key);
            assert_eq!(fp.leaf(), Some(&NodeId(leaf)), "key {key}");
        }
        // A poℓe_prev memoized empty counts as no poℓe_prev.
        let mut fp = pole(0, None, 0, 0);
        fp.on_pole_split(half(4), &cfg, split(0, 1_000, 8), 1_000);
        assert_eq!(fp.leaf(), Some(&NodeId(2)));
    }

    #[test]
    fn variable_split_cuts_at_l_minus_one_or_l_around_def_split_pos() {
        // cap 8 ⇒ def_split_pos 4. poℓe_prev: 4 entries from 0, poℓe from 8
        // ⇒ density 2 per entry, step 3: slot i admits keys ≤ 8 + 3·(i+1).
        let cfg = TreeConfig::small(8);
        let rows: [([u64; 8], FullPolePlan); 5] = [
            // No outlier: l = 8, cut at l−1.
            ([8, 10, 12, 14, 16, 18, 20, 22], var(7, true)),
            // l = 6 > def: cut at l−1 = 5, the right node becomes poℓe.
            ([8, 10, 12, 14, 16, 18, 900, 901], var(5, true)),
            // l = 5 > def: cut at l−1 = def.
            ([8, 10, 12, 14, 16, 900, 901, 902], var(4, true)),
            // l = 4 = def: cut at l, poℓe keeps its prefix.
            ([8, 10, 12, 14, 900, 901, 902, 903], var(4, false)),
            // Only q is in order: l = 1.
            ([8, 900, 901, 902, 903, 904, 905, 906], var(1, false)),
        ];
        for (keys, want) in rows {
            let mut fp = pole(8, None, 0, 4);
            assert_eq!(fp.full_pole_plan(&cfg, &keys, 0, false), want, "{keys:?}");
        }
    }

    #[test]
    fn variable_split_clamps() {
        let sorted: Vec<u64> = (16..32).collect();
        let plan = |cfg: &TreeConfig, keys: &[u64]| {
            pole(16, None, 0, 16).full_pole_plan(cfg, keys, 0, false)
        };
        let cfg = TreeConfig::small(16);
        assert_eq!(plan(&cfg, &sorted), var(15, true), "packed");
        // An outlier in slot 10 cuts at l − 1 = 9.
        let mut outlier = sorted.clone();
        outlier[10..].iter_mut().for_each(|k| *k += 1_000);
        assert_eq!(plan(&cfg, &outlier), var(9, true));
    }

    #[test]
    fn full_pole_plan_falls_back_to_the_default_split() {
        let keys: Vec<u64> = (8..16).collect();
        // No poℓe_prev yet.
        let mut fp: FastPathState<u64> = FastPathState::initial(NodeId(1));
        let cfg = TreeConfig::small(8);
        assert_eq!(fp.full_pole_plan(&cfg, &keys, 0, false), half(4));
        // Variable split disabled (the poℓe-B+-tree ablation, and every
        // concurrent tree).
        let off = cfg.with_variable_split(false);
        let plan = pole(8, None, 0, 4).full_pole_plan(&off, &keys, 4, true);
        assert_eq!(plan, half(4));
    }

    #[test]
    fn redistribute_needs_adjacency_and_a_legal_move() {
        let cfg = TreeConfig::small(8); // def_split_pos 4
        let keys: Vec<u64> = (8..16).collect();
        let moves = |move_count| FullPolePlan::Redistribute { move_count };
        // (memoized prev_size, actual_prev_len, adjacent, plan)
        let rows = [
            (1, 1, true, moves(3)),
            (1, 3, true, moves(1)),
            (3, 1, true, moves(3)),
            (1, 1, false, half(4)),
        ];
        for (memo, actual, adjacent, want) in rows {
            let mut fp = pole(8, None, 0, memo);
            assert_eq!(fp.redistribute_candidate(&cfg), Some(&NodeId(0)));
            assert_eq!(fp.full_pole_plan(&cfg, &keys, actual, adjacent), want);
            assert_eq!(fp.prev_size, memo, "planning alone moves nothing");
        }
        // The memo lagged — the node is already half full: refresh, use IKR.
        for actual in [4, 6] {
            let mut fp = pole(8, None, 0, 1);
            let plan = fp.full_pole_plan(&cfg, &keys, actual, true);
            assert!(matches!(plan, FullPolePlan::Variable { .. }), "{plan:?}");
            assert_eq!(fp.prev_size, actual);
        }
        // A move that would empty the poℓe is not legal.
        let plan = pole(8, None, 0, 1).full_pole_plan(&cfg, &keys[..2], 1, true);
        assert_eq!(plan, half(1));
        // Not a candidate: half-full memo, either knob off, no poℓe_prev.
        assert_eq!(pole(8, None, 0, 4).redistribute_candidate(&cfg), None);
        for off in [
            cfg.clone().with_redistribute(false),
            cfg.clone().with_variable_split(false),
        ] {
            assert_eq!(pole(8, None, 0, 1).redistribute_candidate(&off), None);
        }
        let fresh: FastPathState<u64> = FastPathState::initial(NodeId(1));
        assert_eq!(fresh.redistribute_candidate(&cfg), None);
        // Executing the plan leaves poℓe_prev exactly half full.
        let mut fp = pole(8, None, 0, 1);
        fp.on_redistribute(&cfg, 11);
        assert_eq!((fp.prev_size, fp.bounds()), (4, (Some(11), None)));
    }

    #[test]
    fn reset_fires_at_exactly_t_r_consecutive_misses() {
        use TopInsert::{Miss, Reset};
        let cfg = TreeConfig::small(8).with_reset_threshold(Some(3));
        let mut fp = pole(100, Some(200), 0, 4);
        assert_eq!(fp.on_top_insert(5, None, &cfg), Miss);
        assert_eq!(fp.on_top_insert(5, None, &cfg), Miss);
        // A covered insert — through a full-poℓe split or not — ends the
        // streak, so the third miss overall is only the first of a new one.
        fp.on_covered_insert();
        assert_eq!(fp.on_top_insert(5, None, &cfg), Miss);
        assert_eq!(fp.on_top_insert(5, None, &cfg), Miss);
        assert_eq!(fp.on_top_insert(5, None, &cfg), Reset);
        // The tree answers a reset by re-pointing, which re-arms the count.
        fp.repoint(NodeId(7), Some(0), Some(10), None);
        assert_eq!(fp.on_top_insert(50, None, &cfg), Miss);
        // T_R disabled (the poℓe-B+-tree ablation): never.
        let never = cfg.with_reset_threshold(None);
        let mut fp = pole(100, Some(200), 0, 4);
        for _ in 0..1_000 {
            assert_eq!(fp.on_top_insert(5, None, &never), Miss);
        }
    }

    #[test]
    fn catch_up_only_for_the_chain_successor_inside_the_pole_span() {
        use TopInsert::{CaughtUp, Miss};
        let cfg = TreeConfig::small(8).with_reset_threshold(None);
        // poℓe spans [100, 140]: x = 100 + 40 · 1.5 = 160.
        let rows = [
            (Some((100u64, 140u64)), 150u64, CaughtUp),
            (Some((100, 140)), 160, CaughtUp),
            (Some((100, 140)), 161, Miss),
            // Same key, but the insert landed somewhere else.
            (None, 150, Miss),
            // A single-key poℓe has no span to extrapolate.
            (Some((100, 100)), 101, Miss),
        ];
        for (successor_of, key, want) in rows {
            let mut fp = pole(100, Some(145), 0, 4);
            assert_eq!(fp.on_top_insert(key, successor_of, &cfg), want, "key {key}");
            assert_eq!(fp.fails, usize::from(want == Miss));
        }
    }

    #[test]
    fn pointer_moves_and_repairs() {
        let mut fp = pole(100, Some(200), 0, 4);
        fp.fails = 2;
        // ℓiℓ / tail split transitions touch only the pointer and one bound.
        fp.stay_after_split(150);
        assert_eq!(fp.bounds(), (Some(100), Some(150)));
        fp.follow_split(NodeId(3), 150);
        assert_eq!(fp.leaf(), Some(&NodeId(3)));
        assert_eq!((fp.min, fp.fails), (Some(150), 2));
        // A borrow moves the separator on whichever side the leaf sits.
        fp.on_separator_moved(&NodeId(3), &NodeId(4), 140);
        assert_eq!(fp.bounds(), (Some(150), Some(140)));
        fp.on_separator_moved(&NodeId(2), &NodeId(3), 120);
        assert_eq!(fp.bounds(), (Some(120), Some(140)));
        fp.on_separator_moved(&NodeId(8), &NodeId(9), 1);
        assert_eq!(fp.bounds(), (Some(120), Some(140)));
        // Unlinking poℓe_prev forgets it; any other leaf is ignored.
        fp.forget(&NodeId(9));
        assert_eq!(fp.prev(), Some(&NodeId(0)));
        fp.forget(&NodeId(0));
        assert_eq!((fp.prev(), fp.prev_min, fp.prev_size), (None, None, 0));
        // repoint replaces everything and clears the streak.
        fp.repoint(NodeId(5), None, Some(9), None);
        assert_eq!(fp.leaf(), Some(&NodeId(5)));
        assert_eq!((fp.bounds(), fp.fails), ((None, Some(9)), 0));
    }
}
