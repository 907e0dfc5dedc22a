//! Node layout & intra-node search — the one home for every
//! partition-point and slot-movement decision in the workspace.
//!
//! Leaves in both trees are packed, sorted key/value arrays: the paper's
//! layout. Two searches run over them:
//!
//! * [`guided_partition_point_by`] — where a lookup starts in a leaf: an
//!   interpolation search that probes the slot the key's
//!   [`Key::to_ikr`] projection predicts, then finishes inside a
//!   one-cache-line bracket. Point reads, cursors and range starts in
//!   both trees (the OLC raw read included) all go through it, most via
//!   [`guided_lower_bound`]. It returns the same partition point as
//!   libcore's binary search, so it moves no count and no figure; it saves
//!   cache misses on cold leaves.
//! * libcore `partition_point` — insert positioning ([`upper_bound`],
//!   through [`insert_dense`]), deletes ([`lower_bound`]) and internal
//!   routing ([`search_internal`]). Guiding those measured slower: an
//!   insert's hottest leaf is the append frontier, where a far outlier
//!   skews the guess.
//!
//! # The duplicate-run boundary contract
//!
//! Three key-comparison conventions exist in this codebase and they are
//! easy to mix up, so the API hard-codes them (pinned by unit tests
//! below):
//!
//! 1. **Inserts** use the *upper bound* — [`upper_bound`], the partition
//!    point of `k <= key` — so a new duplicate lands **after** every
//!    existing instance of its key (stable insertion order).
//! 2. **Lookups** use the *lower bound* — [`guided_lower_bound`], the
//!    partition point of `k < key` — the **first** instance of a duplicate
//!    run.
//! 3. **Internal routing** is right-biased — [`search_internal`] is the
//!    upper bound over separators — so a key equal to a separator routes
//!    **right**, matching the strict-boundary split rule (a separator is
//!    the first key of the right node; splits never cut a duplicate run
//!    in the concurrent tree, and the core tree's lookups compensate by
//!    back-walking the leaf chain).
//!
//! # Gapped-leaf primitives
//!
//! [`SearchKind`], [`GapMap`], [`SlotInsert`], [`insert_at`] and [`regap`]
//! are the gapped-leaf primitives the benchmark's `layout.*` probes time,
//! and [`search_leaf`] the name they time the lookup under. No tree calls
//! them. A gapped leaf keeps its physical key array sorted by storing, in
//! each gap slot, a **filler**: a copy of the key/value pair of the nearest
//! live slot to its right. [`GapMap`] marks which slots are fillers; the
//! last physical slot is always live.

use crate::key::Key;
use crate::mutation::{self, Mutation};

/// Names an intra-node search algorithm. No code reads it: every search
/// runs libcore's binary search or the key-guided one.
///
/// Kept because `benchmark/src/probes.rs` names it; goes with the
/// `layout.*` probes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SearchKind {
    /// Libcore `slice::partition_point` (branching binary search).
    #[default]
    Binary,
    /// Branch-free binary search.
    Branchless,
    /// Vector compare+popcount search.
    Simd,
}

// ---------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------

/// Branch-free partition point over `0..n` of a monotone predicate,
/// expressed on indices so callers that cannot form a slice (the OLC
/// raw-read path, which must load each probed key atomically) share the
/// exact algorithm with the safe slice flavour.
///
/// The shape is the classical "base += half if predicate" ladder: the
/// probe sequence depends only on `n`, and the conditional advance
/// compiles to a conditional move rather than a branch.
#[inline]
pub fn branchless_partition_point_by(n: usize, mut pred: impl FnMut(usize) -> bool) -> usize {
    let mut base = 0usize;
    let mut len = n;
    while len > 1 {
        let half = len / 2;
        base += usize::from(pred(base + half - 1)) * half;
        len -= half;
    }
    // Final single-element step. The planted `Mutation::SearchLadder`
    // drops it, misplacing keys by one slot — the differential harness
    // must catch and shrink that.
    if mutation::armed(Mutation::SearchLadder) {
        return base;
    }
    base + usize::from(len == 1 && pred(base))
}

/// Branch-free partition point over a sorted slice.
#[inline]
pub fn branchless_partition_point<K>(s: &[K], mut pred: impl FnMut(&K) -> bool) -> usize {
    branchless_partition_point_by(s.len(), |i| pred(&s[i]))
}

/// First index whose key is **greater than** `key` — the insert
/// convention (a duplicate lands after every existing instance).
#[inline]
pub fn upper_bound<K: Key>(keys: &[K], key: K) -> usize {
    keys.partition_point(|k| *k <= key)
}

/// First index whose key is **at or above** `key` — the lookup
/// convention (the first instance of a duplicate run).
#[inline]
pub fn lower_bound<K: Key>(keys: &[K], key: K) -> usize {
    keys.partition_point(|k| *k < key)
}

/// Child index for routing `key` through an internal node: right-biased
/// (`key == separator` descends right), matching the strict-boundary
/// split rule. Identical to [`upper_bound`]; named separately so call
/// sites say what they mean.
#[inline]
pub fn search_internal<K: Key>(separators: &[K], key: K) -> usize {
    upper_bound(separators, key)
}

/// Leaf slot where a lookup for `key` starts: the [`lower_bound`],
/// found by [`guided_partition_point_by`].
#[inline]
pub fn guided_lower_bound<K: Key>(keys: &[K], key: K) -> usize {
    guided_partition_point_by(keys.len(), |i| keys[i], key, |k| k < key)
}

/// [`guided_lower_bound`] under its older name. `_kind` is not consulted.
///
/// Kept because `benchmark/src/probes.rs` names it; goes with the
/// `layout.*` probes.
#[inline]
pub fn search_leaf<K: Key>(_kind: SearchKind, keys: &[K], key: K) -> usize {
    guided_lower_bound(keys, key)
}

/// Arrays of at most this many keys skip the guess: a plain branchless
/// ladder over them is no more than five probes into one or two cache
/// lines.
const GUIDE_MIN_LEN: usize = 16;

/// How far past the guessed slot the bracket probe of
/// [`guided_partition_point_by`] looks: one cache line of 8-byte keys.
const GUIDE_BRACKET: usize = 8;

/// Partition point over `0..n` of a predicate monotone in the sorted keys
/// `at(0..n)`, starting where `key`'s [`Key::to_ikr`] projection predicts
/// — interpolation search, the same projection the IKR estimator (paper
/// Eq. 2) uses to predict where keys land.
///
/// Arrays of at most 16 keys take [`branchless_partition_point_by`]
/// directly. Otherwise the first and last keys settle the answer at once
/// when `pred` holds for neither or both; failing that the guess is
/// `g = (key − first) / (last − first) · (n − 1)` (the middle when that is
/// not finite). The search probes `g` and its neighbour on the side
/// `pred` points to, which settles an exact guess; failing that it probes
/// the slot one cache line beyond `g` on that side. When the answer lies
/// between the two it finishes with the branchless ladder inside that
/// bracket; otherwise it halves the whole side the probes left open — at
/// most five probes more than halving alone (the two ends, the guess, its
/// neighbour and the bracket), and about two rounds of cache misses
/// instead of five on a cold 255-key leaf.
///
/// Every index read is in `0..n` and no loop depends on the order of the
/// keys read, so on keys torn by a racing writer (the OLC raw read) the
/// search still ends, with an answer in `0..=n` that the caller's version
/// validation then discards.
#[inline]
pub fn guided_partition_point_by<K: Key>(
    n: usize,
    at: impl Fn(usize) -> K,
    key: K,
    pred: impl Fn(K) -> bool,
) -> usize {
    guided_partition_point_hinted(n, at, key, pred, |_| {})
}

/// [`guided_partition_point_by`] that also hands the guessed slot to
/// `hint` before probing it, so a caller can start loading what lives at
/// that slot (the OLC leaf read prefetches the value there) while the key
/// probes are in flight.
#[doc(hidden)]
#[inline]
pub fn guided_partition_point_hinted<K: Key>(
    n: usize,
    at: impl Fn(usize) -> K,
    key: K,
    pred: impl Fn(K) -> bool,
    hint: impl FnOnce(usize),
) -> usize {
    if n <= GUIDE_MIN_LEN {
        return branchless_partition_point_by(n, |i| pred(at(i)));
    }
    let first = at(0);
    if !pred(first) {
        return 0;
    }
    let last = at(n - 1);
    if pred(last) {
        return n;
    }
    let (lo, hi) = (first.to_ikr(), last.to_ikr());
    let frac = (key.to_ikr() - lo) / (hi - lo);
    let g = if frac.is_finite() {
        // `as` saturates: a negative product becomes 0.
        (frac * (n - 1) as f64) as usize
    } else {
        n / 2
    }
    .clamp(1, n - 2);
    hint(g);
    // `pred` holds at `lo` and fails at `hi`: the answer is in `lo+1..=hi`.
    // The guess's neighbour settles an exact guess — near-linear keys, the
    // common case — without leaving the guess's cache line.
    let (lo, hi) = if pred(at(g)) {
        if !pred(at(g + 1)) {
            return g + 1;
        }
        let h = (g + GUIDE_BRACKET).min(n - 1);
        if pred(at(h)) {
            (h, n - 1)
        } else {
            (g + 1, h)
        }
    } else {
        if pred(at(g - 1)) {
            return g;
        }
        let h = g.saturating_sub(GUIDE_BRACKET);
        if pred(at(h)) {
            (h, g - 1)
        } else {
            (0, h)
        }
    };
    // Saturating: torn keys can leave `hi == lo`.
    let len = (hi - lo).saturating_sub(1);
    lo + 1 + branchless_partition_point_by(len, |i| pred(at(lo + 1 + i)))
}

// ---------------------------------------------------------------------
// Leaf inserts
// ---------------------------------------------------------------------

/// Inserts `(key, value)` into a packed leaf's arrays at the upper-bound
/// position and returns its slot. The caller ensures room.
///
/// Append fast path: in-order streams insert at the tail, where one key
/// compare replaces the whole intra-node search, and the position it
/// takes is exactly the upper bound.
#[inline]
pub fn insert_dense<K: Key, V>(keys: &mut Vec<K>, vals: &mut Vec<V>, key: K, value: V) -> usize {
    let len = keys.len();
    if keys.last().is_none_or(|l| *l <= key) {
        keys.push(key);
        vals.push(value);
        return len;
    }
    let p = upper_bound(keys, key);
    keys.insert(p, key);
    vals.insert(p, value);
    p
}

// ---------------------------------------------------------------------
// Gapped leaves: the bitmap and its slot movement
// ---------------------------------------------------------------------

/// Per-leaf bitmap marking which physical slots are gap fillers (bit set
/// ⇒ the slot is a filler, not a live entry).
///
/// Kept because `benchmark/src/probes.rs` names it; goes with the
/// `layout.*` probes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GapMap {
    bits: Vec<u64>,
    count: usize,
}

impl GapMap {
    /// An empty map that allocates words on first use.
    pub fn new() -> Self {
        GapMap::default()
    }

    /// Number of gap slots.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// True when no slot is a gap (every physical slot is live).
    #[inline]
    pub fn is_dense(&self) -> bool {
        self.count == 0
    }

    /// Whether physical slot `i` is a gap. Out-of-range slots are live.
    #[inline]
    pub fn is_gap(&self, i: usize) -> bool {
        self.bits
            .get(i / 64)
            .is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// Marks slot `i` as a gap.
    pub fn set(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        let mask = 1u64 << (i % 64);
        if self.bits[w] & mask == 0 {
            self.bits[w] |= mask;
            self.count += 1;
        }
    }

    /// Marks slot `i` as live.
    pub fn clear(&mut self, i: usize) {
        if let Some(w) = self.bits.get_mut(i / 64) {
            let mask = 1u64 << (i % 64);
            if *w & mask != 0 {
                *w &= !mask;
                self.count -= 1;
            }
        }
    }

    /// First gap slot at or after `p`, strictly below `len`, scanning
    /// whole bitmap words (trailing-zeros) rather than slot-by-slot.
    fn first_gap_at_or_after(&self, p: usize, len: usize) -> Option<usize> {
        let mut w = p / 64;
        let mut word = *self.bits.get(w)? & (!0u64 << (p % 64));
        loop {
            if word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                return (i < len).then_some(i);
            }
            w += 1;
            word = *self.bits.get(w)?;
        }
    }

    /// Last gap slot strictly before `p`, scanning whole bitmap words
    /// (leading-zeros) rather than slot-by-slot.
    fn last_gap_before(&self, p: usize) -> Option<usize> {
        if p == 0 || self.bits.is_empty() {
            return None;
        }
        let top = (p - 1) / 64;
        let mut w = top.min(self.bits.len() - 1);
        let mut word = self.bits[w];
        if w == top {
            word &= !0u64 >> (63 - (p - 1) % 64);
        }
        loop {
            if word != 0 {
                return Some(w * 64 + 63 - word.leading_zeros() as usize);
            }
            if w == 0 {
                return None;
            }
            w -= 1;
            word = self.bits[w];
        }
    }

    /// Nearest gap slot to position `p` within `0..len`: the closer of
    /// the first gap at/after `p` and the last gap before `p`. No live
    /// slot lies between `p` and the returned gap on its side.
    fn nearest_gap(&self, p: usize, len: usize) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let right = self.first_gap_at_or_after(p, len);
        let left = self.last_gap_before(p.min(len));
        match (left, right) {
            (Some(l), Some(r)) => Some(if p - l <= r - p { l } else { r }),
            (Some(l), None) => Some(l),
            (None, Some(r)) => Some(r),
            (None, None) => None,
        }
    }
}

/// Outcome of a gap-aware leaf insert.
///
/// Kept because `benchmark/src/probes.rs` names it; goes with the
/// `layout.*` probes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotInsert {
    /// Inserted; the physical slot that received the entry.
    Done(usize),
    /// The leaf is full (live == capacity, hence dense): split first.
    Full,
}

/// Inserts `(key, value)` into a gapped leaf's raw parts at the
/// upper-bound position, reusing the nearest gap slot when one exists
/// (bounded shift), growing physically otherwise, and reporting
/// [`SlotInsert::Full`] when live occupancy has reached `capacity`. With
/// an empty [`GapMap`] it is [`insert_dense`]. `_kind` is not consulted.
///
/// Kept because `benchmark/src/probes.rs` names it; goes with the
/// `layout.*` probes.
pub fn insert_at<K: Key, V>(
    _kind: SearchKind,
    keys: &mut Vec<K>,
    vals: &mut Vec<V>,
    gaps: &mut GapMap,
    key: K,
    value: V,
    capacity: usize,
) -> SlotInsert {
    let len = keys.len();
    if len - gaps.count() >= capacity {
        return SlotInsert::Full;
    }
    // The last slot is always live, so appending at the physical tail
    // needs no gap bookkeeping while the leaf has physical room.
    if gaps.is_dense() || (len < capacity && keys.last().is_none_or(|l| *l <= key)) {
        return SlotInsert::Done(insert_dense(keys, vals, key, value));
    }
    let p = upper_bound(keys, key);
    // Adjacent gap on the left: `keys[p-1] <= key`, so overwriting keeps
    // the physical array sorted with zero movement.
    if p > 0 && gaps.is_gap(p - 1) {
        keys[p - 1] = key;
        vals[p - 1] = value;
        gaps.clear(p - 1);
        return SlotInsert::Done(p - 1);
    }
    // Adjacent gap at the insertion point: `keys[p] > key` strictly, so
    // overwriting keeps order too.
    if p < len && gaps.is_gap(p) {
        keys[p] = key;
        vals[p] = value;
        gaps.clear(p);
        return SlotInsert::Done(p);
    }
    match gaps.nearest_gap(p, len) {
        // Rotate the (gap-free) span between the insertion point and the
        // nearest gap by one — the bounded shift that replaces the whole
        // tail memmove. Prefer the physical tail when it is closer and
        // available.
        Some(g) if len >= capacity || shift_to_gap_cheaper(p, g, len) => {
            if g >= p {
                keys[p..=g].rotate_right(1);
                vals[p..=g].rotate_right(1);
                gaps.clear(g);
                keys[p] = key;
                vals[p] = value;
                SlotInsert::Done(p)
            } else {
                keys[g..p].rotate_left(1);
                vals[g..p].rotate_left(1);
                gaps.clear(g);
                keys[p - 1] = key;
                vals[p - 1] = value;
                SlotInsert::Done(p - 1)
            }
        }
        _ => {
            keys.insert(p, key);
            vals.insert(p, value);
            SlotInsert::Done(p)
        }
    }
}

/// Whether rotating into the gap at `g` moves fewer slots than shifting
/// the tail `p..len` right by one.
#[inline]
fn shift_to_gap_cheaper(p: usize, g: usize, len: usize) -> bool {
    let gap_dist = g.abs_diff(p);
    gap_dist <= len - p
}

/// Seeds a freshly split (dense) leaf with `want` gap fillers spread over
/// `[region_start, len)` — the region the IKR prediction marks as the
/// landing zone for future near-sorted inserts. Each filler is a clone of
/// its right neighbour's entry, so the physical array stays sorted and
/// every filler duplicates a live entry (reads that land on one see the
/// correct pair). Never creates trailing gaps and never pushes the
/// physical length past `capacity`.
///
/// Kept because `benchmark/src/probes.rs` names it; goes with the
/// `layout.*` probes.
pub fn regap<K: Key, V: Clone>(
    keys: &mut Vec<K>,
    vals: &mut Vec<V>,
    gaps: &mut GapMap,
    region_start: usize,
    want: usize,
    capacity: usize,
) {
    debug_assert!(gaps.is_dense(), "regap expects a dense (just-split) leaf");
    let len = keys.len();
    if region_start >= len || len >= capacity {
        return;
    }
    let span = len - region_start;
    let m = want.min(capacity - len).min(span);
    if m == 0 {
        return;
    }
    // Insertion points in the original array, ascending and distinct: a
    // filler is placed before original element p_j, so element i moves to
    // i + #{points <= i} and the j-th filler lands at p_j + j. One
    // backward pass moves every element to its final slot exactly once
    // (vs. m tail memmoves for repeated `Vec::insert`).
    let points: Vec<usize> = (0..m).map(|i| region_start + (i * span) / m).collect();
    let last_k = keys[len - 1];
    let last_v = vals[len - 1].clone();
    keys.resize(len + m, last_k);
    vals.resize(len + m, last_v);
    let mut i = len; // original elements `i..len` are already placed
    let mut dst = len + m;
    for j in (0..m).rev() {
        let p = points[j];
        while i > p {
            i -= 1;
            dst -= 1;
            keys[dst] = keys[i];
            vals.swap(dst, i);
        }
        // Element p now sits at `dst`; its filler duplicates it just below.
        dst -= 1;
        keys[dst] = keys[dst + 1];
        vals[dst] = vals[dst + 1].clone();
        gaps.set(dst);
        debug_assert_eq!(dst, p + j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_conventions_are_pinned() {
        // The duplicate-run contract from the module docs, in one place.
        let keys = [1u64, 3, 3, 3, 5];
        // Insert lands AFTER the duplicate run.
        assert_eq!(upper_bound(&keys, 3), 4);
        // Lookup finds the FIRST instance.
        assert_eq!(lower_bound(&keys, 3), 1);
        // Routing on a separator hit goes RIGHT.
        assert_eq!(search_internal(&keys, 3), 4);
        assert_eq!(guided_lower_bound(&keys, 3), 1);
        assert_eq!(search_leaf(SearchKind::Binary, &keys, 3), 1);
        // Extremes.
        assert_eq!(upper_bound(&keys, 0), 0);
        assert_eq!(upper_bound(&keys, 9), 5);
        assert_eq!(lower_bound::<u64>(&[], 7), 0);
    }

    #[test]
    fn branchless_matches_std_partition_point() {
        let mut keys: Vec<u64> = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for n in 0..200usize {
            keys.clear();
            let mut k = 0u64;
            for _ in 0..n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                k += state % 3; // runs of duplicates included
                keys.push(k);
            }
            for probe in 0..=(k + 2) {
                assert_eq!(
                    branchless_partition_point(&keys, |e| *e <= probe),
                    keys.partition_point(|e| *e <= probe),
                    "n={n} probe={probe} (upper)"
                );
                assert_eq!(
                    branchless_partition_point(&keys, |e| *e < probe),
                    keys.partition_point(|e| *e < probe),
                    "n={n} probe={probe} (lower)"
                );
            }
        }
    }

    #[test]
    fn gap_map_basics() {
        let mut g = GapMap::new();
        assert!(g.is_dense());
        assert!(!g.is_gap(130));
        g.set(3);
        g.set(130);
        g.set(3); // idempotent
        assert_eq!(g.count(), 2);
        assert!(g.is_gap(3) && g.is_gap(130));
        g.clear(3);
        assert_eq!(g.count(), 1);
        assert!(!g.is_gap(3));
        g.clear(130);
        assert!(g.is_dense());
    }

    #[test]
    fn nearest_gap_prefers_the_closer_side() {
        let mut g = GapMap::new();
        g.set(1);
        g.set(9);
        assert_eq!(g.nearest_gap(3, 12), Some(1));
        assert_eq!(g.nearest_gap(8, 12), Some(9));
        assert_eq!(g.nearest_gap(1, 12), Some(1));
        assert_eq!(GapMap::new().nearest_gap(3, 12), None);
    }

    fn live<K: Key, V: Clone>(keys: &[K], vals: &[V], gaps: &GapMap) -> Vec<(K, V)> {
        (0..keys.len())
            .filter(|&i| !gaps.is_gap(i))
            .map(|i| (keys[i], vals[i].clone()))
            .collect()
    }

    /// The live slot a filler at `i` copies: the first live slot after it.
    fn source_of(gaps: &GapMap, i: usize) -> usize {
        (i + 1..).find(|&j| !gaps.is_gap(j)).expect("unbounded")
    }

    #[test]
    fn insert_dense_matches_classic_vec_insert() {
        let kind = SearchKind::Binary;
        let mut keys: Vec<u64> = vec![];
        let mut vals: Vec<u64> = vec![];
        let mut gaps = GapMap::new();
        for k in [5u64, 1, 9, 5, 3] {
            assert!(matches!(
                insert_at(kind, &mut keys, &mut vals, &mut gaps, k, k * 10, 8),
                SlotInsert::Done(_)
            ));
        }
        assert_eq!(keys, vec![1, 3, 5, 5, 9]);
        assert!(gaps.is_dense());
        // Full leaf reports Full without touching the arrays.
        for k in [2u64, 4, 6] {
            insert_at(kind, &mut keys, &mut vals, &mut gaps, k, 0, 8);
        }
        assert_eq!(
            insert_at(kind, &mut keys, &mut vals, &mut gaps, 7, 0, 8),
            SlotInsert::Full
        );
        assert_eq!(keys.len(), 8);
        // The dense insert the trees call lands on the same slots.
        let (mut dk, mut dv) = (vec![], vec![]);
        for k in [5u64, 1, 9, 5, 3] {
            insert_dense(&mut dk, &mut dv, k, k * 10);
        }
        assert_eq!(dk, vec![1, 3, 5, 5, 9]);
        assert_eq!(dv, vec![10, 30, 50, 50, 90]);
        assert_eq!(insert_dense(&mut dk, &mut dv, 5, 0), 4, "after the run");
        assert_eq!(insert_dense(&mut dk, &mut dv, 9, 0), 6, "append");
    }

    #[test]
    fn insert_reuses_adjacent_and_rotated_gaps() {
        let kind = SearchKind::Binary;
        // Physical [1, (3), 5, 7] with slot 1 a filler for key 3.
        let mut keys: Vec<u64> = vec![1, 3, 5, 7];
        let mut vals: Vec<u64> = vec![10, 0, 50, 70];
        let mut gaps = GapMap::new();
        gaps.set(1);
        // Upper bound of 2 is slot 1, which is a gap: overwrite in place.
        assert_eq!(
            insert_at(kind, &mut keys, &mut vals, &mut gaps, 2, 20, 4),
            SlotInsert::Done(1)
        );
        assert_eq!(keys, vec![1, 2, 5, 7]);
        assert!(gaps.is_dense());
        // Now live == capacity: full.
        assert_eq!(
            insert_at(kind, &mut keys, &mut vals, &mut gaps, 6, 60, 4),
            SlotInsert::Full
        );
        // Rotate case: gap at far left, insert lands right of it.
        let mut keys: Vec<u64> = vec![1, 3, 5, 7];
        let mut vals: Vec<u64> = vec![0, 30, 50, 70];
        let mut gaps = GapMap::new();
        gaps.set(0);
        assert_eq!(
            insert_at(kind, &mut keys, &mut vals, &mut gaps, 6, 60, 4),
            SlotInsert::Done(2)
        );
        assert_eq!(keys, vec![3, 5, 6, 7]);
        assert_eq!(vals, vec![30, 50, 60, 70]);
        assert!(gaps.is_dense());
    }

    #[test]
    fn regap_spreads_fillers_and_keeps_order() {
        let mut keys: Vec<u64> = (0..8u64).collect();
        let mut vals: Vec<u64> = (0..8u64).map(|k| k * 10).collect();
        let mut gaps = GapMap::new();
        let before = live(&keys, &vals, &gaps);
        regap(&mut keys, &mut vals, &mut gaps, 4, 3, 16);
        assert_eq!(gaps.count(), 3);
        assert_eq!(keys.len(), 11);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "physical sorted");
        assert!(!gaps.is_gap(keys.len() - 1), "no trailing gap");
        assert_eq!(live(&keys, &vals, &gaps), before, "live content unchanged");
        // Every filler duplicates its right live neighbour's pair.
        for i in 0..keys.len() {
            if gaps.is_gap(i) {
                let j = source_of(&gaps, i);
                assert_eq!((keys[i], vals[i]), (keys[j], vals[j]), "slot {i}");
            }
        }
        // Respects capacity and the region.
        let mut gaps2 = GapMap::new();
        regap(&mut keys, &mut vals, &mut gaps2, 0, 100, 12);
        assert!(keys.len() <= 12);
    }

    /// Randomized round-trip: a gapped leaf fed random inserts (with a
    /// simulated split on `Full` and periodic regaps of dense leaves)
    /// must always report the same live content as a sorted reference
    /// vector, and must uphold the filler invariants from the module docs.
    #[test]
    fn gapped_inserts_match_reference_model() {
        let cap = 16usize;
        let mut state = 0xdead_beef_cafe_f00du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200u32 {
            let mut keys: Vec<u64> = vec![];
            let mut vals: Vec<u64> = vec![];
            let mut gaps = GapMap::new();
            let mut model: Vec<(u64, u64)> = vec![];
            for step in 0..200u32 {
                let k = next() % 32;
                let v = u64::from(step);
                match insert_at(
                    SearchKind::Binary,
                    &mut keys,
                    &mut vals,
                    &mut gaps,
                    k,
                    v,
                    cap,
                ) {
                    SlotInsert::Done(slot) => {
                        assert!(!gaps.is_gap(slot));
                        assert_eq!((keys[slot], vals[slot]), (k, v));
                        let at = model.partition_point(|e| e.0 <= k);
                        model.insert(at, (k, v));
                    }
                    SlotInsert::Full => {
                        assert_eq!(model.len(), cap, "Full only when live == cap");
                        assert!(gaps.is_dense(), "full leaves are dense");
                        // Make room like a split would: keep the lower half.
                        model.truncate(cap / 2);
                        keys.truncate(cap / 2);
                        vals.truncate(cap / 2);
                    }
                }
                if step % 37 == 0 && gaps.is_dense() {
                    let mid = keys.len() / 2;
                    regap(&mut keys, &mut vals, &mut gaps, mid, 4, cap);
                }
                // Invariants after every op.
                assert!(keys.len() <= cap, "physical length bounded by capacity");
                assert!(keys.len() == vals.len());
                assert!(keys.windows(2).all(|w| w[0] <= w[1]), "physical sorted");
                if let Some(last) = keys.len().checked_sub(1) {
                    assert!(!gaps.is_gap(last), "last physical slot live");
                }
                assert_eq!(keys.len() - gaps.count(), model.len(), "live length");
                for i in 0..keys.len() {
                    if gaps.is_gap(i) {
                        let j = source_of(&gaps, i);
                        assert_eq!(keys[i], keys[j], "filler copies its live neighbour");
                    }
                }
                assert_eq!(live(&keys, &vals, &gaps), model, "live pairs match model");
            }
        }
    }
}
