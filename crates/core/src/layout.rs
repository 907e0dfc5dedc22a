//! Node layout & intra-node search policy — the one home for every
//! partition-point and slot-movement decision in the workspace.
//!
//! Before this module, intra-node binary search and leaf slot shifting
//! were open-coded at each call site (insert, delete, cursor, bulk, the
//! concurrent tree, the OLC raw-read path). They are now expressed once:
//! one key-guided search for every point lookup, and two small policy
//! enums for everything else:
//!
//! * [`guided_partition_point_by`] — where a lookup starts in a leaf: an
//!   interpolation search that probes the slot the key's
//!   [`Key::to_ikr`] projection predicts, then finishes inside a
//!   one-cache-line bracket. Point reads, cursors and range starts in
//!   both trees (the OLC raw read included) all go through it, most via
//!   [`search_leaf`]. It returns the same partition point as every
//!   [`SearchKind`], so it moves no count and no figure; it saves cache
//!   misses on cold leaves.
//! * [`SearchKind`] — *how* insert positioning, deletes and internal
//!   routing search a sorted key array (guiding those measured slower:
//!   an insert's hottest leaf is the append frontier, where a far
//!   outlier skews the guess): `Binary`
//!   (libcore `partition_point`, the bit-for-bit paper-reproduction
//!   baseline), `Branchless` (fixed-shape branch-free binary search), or
//!   `Simd` (runtime-detected SSE2/AVX2 compare+popcount over a narrowed
//!   window, falling back to `Branchless` for unsupported key types or
//!   architectures). Every kind computes the **same unique partition
//!   point**, so tree shape and figure outputs are identical across kinds
//!   — only the nanoseconds differ.
//! * [`NodeLayoutKind`] — *how* leaf slots are arranged: `Dense` (packed
//!   arrays, the paper's layout) or `Gapped` (leaves keep interleaved gap
//!   slots so in-order and near-sorted inserts land without shifting the
//!   whole tail, in the spirit of the BS-tree / FB+-tree data-parallel
//!   designs).
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
//! 2. **Lookups** use the *lower bound* — [`search_leaf`], the partition
//!    point of `k < key` — the **first** instance of a duplicate run.
//! 3. **Internal routing** is right-biased — [`search_internal`] is the
//!    upper bound over separators — so a key equal to a separator routes
//!    **right**, matching the strict-boundary split rule (a separator is
//!    the first key of the right node; splits never cut a duplicate run
//!    in the concurrent tree, and the core tree's lookups compensate by
//!    back-walking the leaf chain).
//!
//! # Gapped leaves
//!
//! The gapped layout keeps the *physical* key array fully sorted by
//! storing, in each gap slot, a **filler**: a copy of its right
//! neighbour's key/value pair (transitively, of the nearest live slot to
//! its right). A per-leaf [`GapMap`] bitmap marks which physical slots
//! are fillers. Because the physical array stays sorted, *every*
//! [`SearchKind`] — including the SIMD kernels — works on gapped leaves
//! unchanged; readers step from the computed partition point to the next
//! live slot. And because a filler's key always equals a live key to its
//! right, value-level reads of the key array (`keys.first()`, separator
//! checks, boundary walks) stay correct without consulting the bitmap —
//! only value access and entry counting are gap-aware.
//!
//! Invariants (checked by `BpTree::check_invariants` and exercised by the
//! proptests below):
//!
//! * physical length never exceeds the leaf capacity, so a leaf is full
//!   (live == capacity) **iff** it has zero gaps — splits only ever see
//!   dense leaves and need no pre-compaction;
//! * the last physical slot is always live (trailing gaps are trimmed on
//!   removal), so `keys.last()` remains the leaf's true maximum;
//! * `gap count == popcount(bitmap)` and every gap bit is below the
//!   physical length.

use crate::key::Key;

/// How sorted key arrays are searched inside a node.
///
/// All kinds return the same (unique) partition point; selecting one is
/// purely a performance decision. `Binary` is the default and the
/// bit-for-bit paper-reproduction path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SearchKind {
    /// Libcore `slice::partition_point` (branching binary search).
    #[default]
    Binary,
    /// Branch-free binary search with a data-independent access shape.
    Branchless,
    /// Branchless narrowing plus an SSE2/AVX2 compare+popcount over the
    /// final window. Runtime-detected; unsupported key types or
    /// architectures (and `QUIT_FORCE_SCALAR=1`) fall back to
    /// [`SearchKind::Branchless`].
    Simd,
}

/// How leaf slots are arranged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NodeLayoutKind {
    /// Packed arrays — the paper's layout and the default.
    #[default]
    Dense,
    /// Leaves carry interleaved gap slots (see the module docs) so
    /// in-order and near-sorted inserts avoid tail shifts.
    Gapped,
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
    // Final single-element step. The mutation smoke check (feature
    // `inject-search-bug`) drops it, misplacing keys by one slot — the
    // differential harness must catch and shrink that.
    #[cfg(not(feature = "inject-search-bug"))]
    {
        base + usize::from(len == 1 && pred(base))
    }
    #[cfg(feature = "inject-search-bug")]
    {
        base
    }
}

/// Branch-free partition point over a sorted slice.
#[inline]
pub fn branchless_partition_point<K>(s: &[K], mut pred: impl FnMut(&K) -> bool) -> usize {
    branchless_partition_point_by(s.len(), |i| pred(&s[i]))
}

/// First index whose key is **greater than** `key` — the insert
/// convention (a duplicate lands after every existing instance).
#[inline]
pub fn upper_bound<K: Key>(kind: SearchKind, keys: &[K], key: K) -> usize {
    match kind {
        SearchKind::Binary => keys.partition_point(|k| *k <= key),
        SearchKind::Branchless => branchless_partition_point(keys, |k| *k <= key),
        SearchKind::Simd => K::simd_upper_bound(keys, key)
            .unwrap_or_else(|| branchless_partition_point(keys, |k| *k <= key)),
    }
}

/// First index whose key is **at or above** `key` — the lookup
/// convention (the first instance of a duplicate run).
#[inline]
pub fn lower_bound<K: Key>(kind: SearchKind, keys: &[K], key: K) -> usize {
    match kind {
        SearchKind::Binary => keys.partition_point(|k| *k < key),
        SearchKind::Branchless => branchless_partition_point(keys, |k| *k < key),
        SearchKind::Simd => K::simd_lower_bound(keys, key)
            .unwrap_or_else(|| branchless_partition_point(keys, |k| *k < key)),
    }
}

/// Child index for routing `key` through an internal node: right-biased
/// (`key == separator` descends right), matching the strict-boundary
/// split rule. Identical to [`upper_bound`]; named separately so call
/// sites say what they mean.
#[inline]
pub fn search_internal<K: Key>(kind: SearchKind, separators: &[K], key: K) -> usize {
    upper_bound(kind, separators, key)
}

/// Leaf slot where a lookup for `key` starts: the [`lower_bound`],
/// found by [`guided_partition_point_by`].
///
/// Every [`SearchKind`] computes the same partition point, and lookups no
/// longer choose between them, so `_kind` is not consulted; it stays in
/// the signature for callers that still name a kind.
#[inline]
pub fn search_leaf<K: Key>(_kind: SearchKind, keys: &[K], key: K) -> usize {
    guided_partition_point_by(keys.len(), |i| keys[i], key, |k| k < key)
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
// SIMD kernels (x86_64; every entry point degrades to None elsewhere)
// ---------------------------------------------------------------------

/// Force-disable switch for the SIMD kernels, read once per process:
/// `QUIT_FORCE_SCALAR=1` makes every `simd_*` hook return `None`, so
/// [`SearchKind::Simd`] exercises the portable branchless fallback — the
/// cross-arch CI guard runs the layout differential suites this way.
pub fn simd_force_disabled() -> bool {
    static FORCE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var("QUIT_FORCE_SCALAR").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
    })
}

/// Width of the window the branchless ladder narrows to before handing
/// over to a vector compare+popcount sweep.
#[cfg(target_arch = "x86_64")]
const SIMD_WINDOW: usize = 32;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod simd {
    //! Vector count kernels. Each computes, over a **sorted** window, the
    //! number of elements satisfying `elem <= key` (upper bound) or
    //! `elem < key` (lower bound) — which over a sorted slice *is* the
    //! partition point. Unsigned orderings ride the signed compare
    //! instructions via the usual sign-bias XOR. Loads are explicitly
    //! unaligned (`loadu`): `Vec` buffers give no 32-byte guarantee, and
    //! the pinned-buffer invariant of the concurrent tree rules out
    //! re-homing them into aligned allocations.
    #[cfg(test)]
    use super::branchless_partition_point_by;
    use super::SIMD_WINDOW;
    use core::arch::x86_64::*;

    #[inline]
    fn avx2() -> bool {
        // `is_x86_feature_detected!` caches after the first probe.
        !super::simd_force_disabled() && is_x86_feature_detected!("avx2")
    }

    #[inline]
    fn sse2() -> bool {
        // SSE2 is baseline on x86_64; only the force switch disables it.
        !super::simd_force_disabled()
    }

    /// Binary narrowing down to a `SIMD_WINDOW`-sized window, then the
    /// vector counter over that window.
    ///
    /// The narrowing deliberately *branches* instead of using a cmov
    /// ladder: a cmov chain serializes every probe behind the previous
    /// load, while a predicted branch lets the core speculate the next
    /// probe and overlap cache misses. The window count then replaces
    /// the worst-predicted final levels with branch-free vector work —
    /// each side plays to its strength. Expanded inside the per-type
    /// `target_feature` hybrids below so the window kernel inlines into
    /// the narrowing loop (a `target_feature` fn never inlines into a
    /// plain caller, and a per-search call would cost more than the
    /// vector work saves).
    macro_rules! hybrid_body {
        ($keys:expr, $key:expr, $strict:expr, $count:ident) => {{
            let mut base = 0usize;
            let mut len = $keys.len();
            while len > SIMD_WINDOW {
                let half = len / 2;
                let probe = $keys[base + half - 1];
                let go = if $strict { probe < $key } else { probe <= $key };
                if go {
                    base += half;
                }
                len -= half;
            }
            base + $count(&$keys[base..base + len], $key, $strict)
        }};
    }

    macro_rules! kernels_32 {
        ($ty:ty, $bias:expr, $avx:ident, $sse:ident) => {
            /// AVX2: 8 lanes of 32-bit compare, mask via `movemask_ps`.
            #[target_feature(enable = "avx2")]
            unsafe fn $avx(window: &[$ty], key: $ty, strict: bool) -> usize {
                let bias = _mm256_set1_epi32($bias);
                // `elem <= key` counts non-(elem > key); `elem < key`
                // counts (key > elem).
                let kv = _mm256_xor_si256(_mm256_set1_epi32(key as i32), bias);
                let mut n = 0usize;
                let mut chunks = window.chunks_exact(8);
                for c in &mut chunks {
                    let v =
                        _mm256_xor_si256(_mm256_loadu_si256(c.as_ptr() as *const __m256i), bias);
                    let m = if strict {
                        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(kv, v))) as u32
                    } else {
                        !(_mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(v, kv))) as u32)
                            & 0xff
                    };
                    n += m.count_ones() as usize;
                }
                n + scalar_count(chunks.remainder(), key, strict)
            }

            /// SSE2: 4 lanes of 32-bit compare.
            #[target_feature(enable = "sse2")]
            unsafe fn $sse(window: &[$ty], key: $ty, strict: bool) -> usize {
                let bias = _mm_set1_epi32($bias);
                let kv = _mm_xor_si128(_mm_set1_epi32(key as i32), bias);
                let mut n = 0usize;
                let mut chunks = window.chunks_exact(4);
                for c in &mut chunks {
                    let v = _mm_xor_si128(_mm_loadu_si128(c.as_ptr() as *const __m128i), bias);
                    let m = if strict {
                        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmplt_epi32(v, kv))) as u32
                    } else {
                        !(_mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(v, kv))) as u32) & 0xf
                    };
                    n += m.count_ones() as usize;
                }
                n + scalar_count(chunks.remainder(), key, strict)
            }
        };
    }

    macro_rules! kernels_64 {
        ($ty:ty, $bias:expr, $avx:ident) => {
            /// AVX2: 4 lanes of 64-bit compare, mask via `movemask_pd`.
            /// (SSE2 has no 64-bit compare; pre-AVX2 parts use the
            /// branchless fallback for 8-byte keys.)
            #[target_feature(enable = "avx2")]
            unsafe fn $avx(window: &[$ty], key: $ty, strict: bool) -> usize {
                let bias = _mm256_set1_epi64x($bias);
                let kv = _mm256_xor_si256(_mm256_set1_epi64x(key as i64), bias);
                let mut n = 0usize;
                let mut chunks = window.chunks_exact(4);
                for c in &mut chunks {
                    let v =
                        _mm256_xor_si256(_mm256_loadu_si256(c.as_ptr() as *const __m256i), bias);
                    let m = if strict {
                        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(kv, v))) as u32
                    } else {
                        !(_mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(v, kv))) as u32)
                            & 0xf
                    };
                    n += m.count_ones() as usize;
                }
                n + scalar_count(chunks.remainder(), key, strict)
            }
        };
    }

    #[inline]
    fn scalar_count<K: Copy + Ord>(rem: &[K], key: K, strict: bool) -> usize {
        rem.iter()
            .filter(|&&e| if strict { e < key } else { e <= key })
            .count()
    }

    kernels_32!(u32, i32::MIN, count_u32_avx2, count_u32_sse2);
    kernels_32!(i32, 0, count_i32_avx2, count_i32_sse2);
    kernels_64!(u64, i64::MIN, count_u64_avx2);
    kernels_64!(i64, 0, count_i64_avx2);

    macro_rules! entry_32 {
        ($name:ident, $ty:ty, $avx:ident, $sse:ident, $havx:ident, $hsse:ident) => {
            #[target_feature(enable = "avx2")]
            unsafe fn $havx(keys: &[$ty], key: $ty, strict: bool) -> usize {
                hybrid_body!(keys, key, strict, $avx)
            }

            #[target_feature(enable = "sse2")]
            unsafe fn $hsse(keys: &[$ty], key: $ty, strict: bool) -> usize {
                hybrid_body!(keys, key, strict, $sse)
            }

            pub(crate) fn $name(keys: &[$ty], key: $ty, strict: bool) -> Option<usize> {
                if avx2() {
                    // SAFETY: gated on runtime AVX2 detection.
                    Some(unsafe { $havx(keys, key, strict) })
                } else if sse2() {
                    // SAFETY: SSE2 is unconditionally present on x86_64.
                    Some(unsafe { $hsse(keys, key, strict) })
                } else {
                    None
                }
            }
        };
    }

    macro_rules! entry_64 {
        ($name:ident, $ty:ty, $avx:ident, $havx:ident) => {
            #[target_feature(enable = "avx2")]
            unsafe fn $havx(keys: &[$ty], key: $ty, strict: bool) -> usize {
                hybrid_body!(keys, key, strict, $avx)
            }

            pub(crate) fn $name(keys: &[$ty], key: $ty, strict: bool) -> Option<usize> {
                if avx2() {
                    // SAFETY: gated on runtime AVX2 detection.
                    Some(unsafe { $havx(keys, key, strict) })
                } else {
                    None
                }
            }
        };
    }

    entry_32!(
        partition_u32,
        u32,
        count_u32_avx2,
        count_u32_sse2,
        hybrid_u32_avx2,
        hybrid_u32_sse2
    );
    entry_32!(
        partition_i32,
        i32,
        count_i32_avx2,
        count_i32_sse2,
        hybrid_i32_avx2,
        hybrid_i32_sse2
    );
    entry_64!(partition_u64, u64, count_u64_avx2, hybrid_u64_avx2);
    entry_64!(partition_i64, i64, count_i64_avx2, hybrid_i64_avx2);

    /// Exhaustive-ish agreement check used by tests: every kernel entry
    /// must match the branchless reference on the given slice.
    #[cfg(test)]
    pub(crate) fn reference<K: Copy + Ord>(keys: &[K], key: K, strict: bool) -> usize {
        branchless_partition_point_by(keys.len(), |i| {
            if strict {
                keys[i] < key
            } else {
                keys[i] <= key
            }
        })
    }
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) mod simd {
    //! Non-x86_64 stub: every kernel declines, so [`super::SearchKind::Simd`]
    //! always takes the portable branchless fallback.
    pub(crate) fn partition_u32(_: &[u32], _: u32, _: bool) -> Option<usize> {
        None
    }
    pub(crate) fn partition_i32(_: &[i32], _: i32, _: bool) -> Option<usize> {
        None
    }
    pub(crate) fn partition_u64(_: &[u64], _: u64, _: bool) -> Option<usize> {
        None
    }
    pub(crate) fn partition_i64(_: &[i64], _: i64, _: bool) -> Option<usize> {
        None
    }
}

// ---------------------------------------------------------------------
// Gap bitmap
// ---------------------------------------------------------------------

/// Per-leaf bitmap marking which physical slots are gap fillers (bit set
/// ⇒ the slot is a filler, not a live entry).
///
/// Two construction modes: [`GapMap::new`] grows its word vector lazily
/// (the single-threaded core tree), while [`GapMap::pinned`] materializes
/// every word up front and never reallocates — required by the concurrent
/// tree's buffer-pinning invariant, whose optimistic readers load words
/// from this vector without locks.
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

    /// A map whose word vector is fully materialized for `slots` slots
    /// and never grows (the concurrent tree's pinned flavour).
    pub fn pinned(slots: usize) -> Self {
        GapMap {
            bits: vec![0; slots.div_ceil(64)],
            count: 0,
        }
    }

    /// Rebuilds a map from its bitmap words (the page codec's decode).
    /// Trailing all-zero words are dropped, so the result is exactly the
    /// map that [`set`](Self::set)ting each gap in turn would build.
    pub(crate) fn from_words(mut bits: Vec<u64>) -> Self {
        while bits.last() == Some(&0) {
            bits.pop();
        }
        let count = bits.iter().map(|w| w.count_ones() as usize).sum();
        GapMap { bits, count }
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

    /// Clears every gap bit, keeping the word allocation (pinning).
    pub fn reset(&mut self) {
        for w in &mut self.bits {
            *w = 0;
        }
        self.count = 0;
    }

    /// Slots the existing word vector can mark without growing.
    #[inline]
    pub fn pinned_slots(&self) -> usize {
        self.bits.len() * 64
    }

    /// First live slot at or after `from`, if any, scanning no further
    /// than `len` (the physical length).
    #[inline]
    pub fn next_live(&self, mut from: usize, len: usize) -> Option<usize> {
        while from < len {
            if !self.is_gap(from) {
                return Some(from);
            }
            from += 1;
        }
        None
    }

    /// Last live slot at or before `from`, if any.
    #[inline]
    pub fn prev_live(&self, from: usize) -> Option<usize> {
        let mut i = from;
        loop {
            if !self.is_gap(i) {
                return Some(i);
            }
            if i == 0 {
                return None;
            }
            i -= 1;
        }
    }

    /// Number of gap slots strictly below `i`.
    pub fn gaps_below(&self, i: usize) -> usize {
        let full = i / 64;
        let mut n = 0usize;
        for w in self.bits.iter().take(full) {
            n += w.count_ones() as usize;
        }
        if let Some(w) = self.bits.get(full) {
            n += (w & ((1u64 << (i % 64)) - 1)).count_ones() as usize;
        }
        n
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

    /// The raw bitmap words — consumed by the validator and (as a raw
    /// pointer) by the concurrent tree's OLC leaf reads.
    #[doc(hidden)]
    pub fn raw_words(&self) -> &Vec<u64> {
        &self.bits
    }
}

// ---------------------------------------------------------------------
// Slot movement over (keys, vals, gaps)
// ---------------------------------------------------------------------

/// Outcome of a gap-aware leaf insert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotInsert {
    /// Inserted; the physical slot that received the entry.
    Done(usize),
    /// The leaf is full (live == capacity, hence dense): split first.
    Full,
}

/// Inserts `(key, value)` into a leaf's raw parts at the upper-bound
/// position, reusing the nearest gap slot when one exists (bounded
/// shift), growing physically otherwise, and reporting [`SlotInsert::Full`]
/// when live occupancy has reached `capacity`.
///
/// Works for both layouts: with an empty [`GapMap`] (dense) it degrades
/// to exactly the classical `Vec::insert` at the upper bound.
pub fn insert_at<K: Key, V>(
    kind: SearchKind,
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
    // Append fast path: in-order streams insert at the physical tail (the
    // last slot is always live, so no gap bookkeeping applies). One key
    // compare replaces the whole intra-node search; the computed position
    // is exactly the upper bound, so tree shape is unchanged.
    if len < capacity && keys.last().is_none_or(|l| *l <= key) {
        keys.push(key);
        vals.push(value);
        return SlotInsert::Done(len);
    }
    let p = upper_bound(kind, keys, key);
    if gaps.is_dense() {
        // No gaps to reuse (every dense-layout leaf, and gapped leaves
        // that have consumed theirs): the classical shifting insert.
        keys.insert(p, key);
        vals.insert(p, value);
        return SlotInsert::Done(p);
    }
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

/// Removes the live entry at physical slot `pos`.
///
/// `Dense` removals are the classical shifting `Vec::remove` — the
/// bit-for-bit paper path. `Gapped` interior removals gap-ify the slot
/// instead: the slot is overwritten with a copy of its right neighbour's
/// key/value pair (upholding the filler rule from the module docs, which
/// keeps `keys` value-correct for min/boundary reads) and its bit is set.
/// Removing the last physical slot pops it and trims any gap run that
/// becomes trailing, keeping the "last physical slot is live" invariant
/// (and, transitively, "live == 0 ⇒ physical == 0").
///
/// `pinned_slots` bounds which slots the bitmap may mark without growing
/// its word vector (`usize::MAX` for the growable core flavour); beyond
/// it a gapped removal falls back to a dense `Vec::remove` (only
/// reachable in the concurrent tree's absorbed-overflow corner, where
/// every gap bit sits below the pinned region and is unaffected by the
/// shift).
pub fn remove_at<K: Key, V: Clone>(
    layout: NodeLayoutKind,
    keys: &mut Vec<K>,
    vals: &mut Vec<V>,
    gaps: &mut GapMap,
    pos: usize,
    pinned_slots: usize,
) -> V {
    debug_assert!(!gaps.is_gap(pos), "remove_at requires a live slot");
    if layout == NodeLayoutKind::Dense {
        debug_assert!(gaps.is_dense(), "dense leaves never hold gaps");
        keys.remove(pos);
        return vals.remove(pos);
    }
    if pos + 1 == keys.len() {
        keys.pop();
        let v = vals.pop().expect("parallel arrays");
        while let Some(last) = keys.len().checked_sub(1) {
            if !gaps.is_gap(last) {
                break;
            }
            gaps.clear(last);
            keys.pop();
            vals.pop();
        }
        v
    } else if pos < pinned_slots {
        // Not the last slot, so `pos + 1` exists. Copying that neighbour
        // (itself a filler of *its* right live neighbour, or live) keeps
        // the physical array sorted and the filler rule intact.
        let fk = keys[pos + 1];
        let fv = vals[pos + 1].clone();
        keys[pos] = fk;
        gaps.set(pos);
        let out = std::mem::replace(&mut vals[pos], fv);
        // Fillers in the gap run ending at `pos` copied the just-removed
        // entry; re-point them at the new source so the rule stays exact.
        let mut i = pos;
        while i > 0 && gaps.is_gap(i - 1) {
            i -= 1;
            keys[i] = fk;
            vals[i] = vals[pos].clone();
        }
        out
    } else {
        keys.remove(pos);
        vals.remove(pos)
    }
}

/// Compacts a leaf's raw parts: drops every gap slot, leaving packed
/// live entries and an empty bitmap (allocation retained for pinning).
pub fn compact<K: Key, V>(keys: &mut Vec<K>, vals: &mut Vec<V>, gaps: &mut GapMap) {
    if gaps.is_dense() {
        return;
    }
    let mut i = 0usize;
    keys.retain(|_| {
        let keep = !gaps.is_gap(i);
        i += 1;
        keep
    });
    let mut j = 0usize;
    vals.retain(|_| {
        let keep = !gaps.is_gap(j);
        j += 1;
        keep
    });
    gaps.reset();
}

/// Seeds a freshly split (dense) leaf with `want` gap fillers spread over
/// `[region_start, len)` — the region the IKR prediction marks as the
/// landing zone for future near-sorted inserts. Each filler is a clone of
/// its right neighbour's entry, so the physical array stays sorted and
/// every filler duplicates a live entry (reads that land on one see the
/// correct pair). Never creates trailing gaps and never pushes the
/// physical length past `capacity`.
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
        for kind in [SearchKind::Binary, SearchKind::Branchless, SearchKind::Simd] {
            // Insert lands AFTER the duplicate run.
            assert_eq!(upper_bound(kind, &keys, 3), 4, "{kind:?}");
            // Lookup finds the FIRST instance.
            assert_eq!(lower_bound(kind, &keys, 3), 1, "{kind:?}");
            // Routing on a separator hit goes RIGHT.
            assert_eq!(search_internal(kind, &keys, 3), 4, "{kind:?}");
            assert_eq!(search_leaf(kind, &keys, 3), 1, "{kind:?}");
            // Extremes.
            assert_eq!(upper_bound(kind, &keys, 0), 0, "{kind:?}");
            assert_eq!(upper_bound(kind, &keys, 9), 5, "{kind:?}");
            assert_eq!(lower_bound::<u64>(kind, &[], 7), 0, "{kind:?}");
        }
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_kernels_match_reference() {
        let mut state = 0x9e37_79b9_97f4_a7c1u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [0usize, 1, 3, 7, 8, 15, 31, 32, 33, 64, 127, 510] {
            let mut k64: Vec<u64> = (0..n).map(|_| next() % 1000).collect();
            k64.sort_unstable();
            let mut k32: Vec<u32> = k64.iter().map(|&k| k as u32).collect();
            k32.sort_unstable();
            let mut ki32: Vec<i32> = k64.iter().map(|&k| k as i32 - 500).collect();
            ki32.sort_unstable();
            let mut ki64: Vec<i64> = k64.iter().map(|&k| k as i64 - 500).collect();
            ki64.sort_unstable();
            for _ in 0..64 {
                let p = next() % 1100;
                for strict in [false, true] {
                    if let Some(got) = simd::partition_u64(&k64, p, strict) {
                        assert_eq!(got, simd::reference(&k64, p, strict), "u64 n={n} p={p}");
                    }
                    if let Some(got) = simd::partition_u32(&k32, p as u32, strict) {
                        assert_eq!(
                            got,
                            simd::reference(&k32, p as u32, strict),
                            "u32 n={n} p={p}"
                        );
                    }
                    let pi = p as i32 - 550;
                    if let Some(got) = simd::partition_i32(&ki32, pi, strict) {
                        assert_eq!(got, simd::reference(&ki32, pi, strict), "i32 n={n} p={pi}");
                    }
                    let pl = p as i64 - 550;
                    if let Some(got) = simd::partition_i64(&ki64, pl, strict) {
                        assert_eq!(got, simd::reference(&ki64, pl, strict), "i64 n={n} p={pl}");
                    }
                }
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
        assert_eq!(g.gaps_below(3), 0);
        assert_eq!(g.gaps_below(4), 1);
        assert_eq!(g.gaps_below(131), 2);
        assert_eq!(g.next_live(3, 200), Some(4));
        assert_eq!(g.prev_live(3), Some(2));
        g.clear(3);
        assert_eq!(g.count(), 1);
        g.reset();
        assert!(g.is_dense());
        let p = GapMap::pinned(9);
        assert_eq!(p.pinned_slots(), 64);
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

    #[test]
    fn insert_dense_matches_classic_vec_insert() {
        let kind = SearchKind::Branchless;
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
    fn remove_gapifies_interior_and_trims_tail() {
        let mut keys: Vec<u64> = vec![1, 3, 5, 7];
        let mut vals: Vec<u64> = vec![10, 30, 50, 70];
        let mut gaps = GapMap::new();
        // Interior removal overwrites the slot with its right neighbour.
        let g = NodeLayoutKind::Gapped;
        assert_eq!(
            remove_at(g, &mut keys, &mut vals, &mut gaps, 1, usize::MAX),
            30
        );
        assert_eq!(keys, vec![1, 5, 5, 7], "filler copies the neighbour");
        assert_eq!(vals, vec![10, 50, 50, 70]);
        assert_eq!(gaps.count(), 1);
        assert!(gaps.is_gap(1));
        // Removing the last physical slot trims nothing here...
        assert_eq!(
            remove_at(g, &mut keys, &mut vals, &mut gaps, 3, usize::MAX),
            70
        );
        assert_eq!(keys, vec![1, 5, 5]);
        // ...but removing slot 2 pops it AND the now-trailing gap at 1.
        assert_eq!(
            remove_at(g, &mut keys, &mut vals, &mut gaps, 2, usize::MAX),
            50
        );
        assert_eq!(keys, vec![1]);
        assert!(gaps.is_dense());
        assert_eq!(
            remove_at(g, &mut keys, &mut vals, &mut gaps, 0, usize::MAX),
            10
        );
        assert!(keys.is_empty() && vals.is_empty() && gaps.is_dense());
    }

    #[test]
    fn remove_dense_matches_classic_vec_remove() {
        let mut keys: Vec<u64> = vec![1, 3, 5, 7];
        let mut vals: Vec<u64> = vec![10, 30, 50, 70];
        let mut gaps = GapMap::new();
        let d = NodeLayoutKind::Dense;
        assert_eq!(
            remove_at(d, &mut keys, &mut vals, &mut gaps, 1, usize::MAX),
            30
        );
        assert_eq!(keys, vec![1, 5, 7], "dense removal shifts, never gap-ifies");
        assert_eq!(vals, vec![10, 50, 70]);
        assert!(gaps.is_dense());
    }

    #[test]
    fn compact_drops_fillers_only() {
        let mut keys: Vec<u64> = vec![1, 3, 3, 5, 7];
        let mut vals: Vec<u64> = vec![10, 0, 30, 50, 70];
        let mut gaps = GapMap::new();
        gaps.set(1);
        compact(&mut keys, &mut vals, &mut gaps);
        assert_eq!(keys, vec![1, 3, 5, 7]);
        assert_eq!(vals, vec![10, 30, 50, 70]);
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
                let j = gaps.next_live(i, keys.len()).unwrap();
                assert_eq!((keys[i], vals[i]), (keys[j], vals[j]), "slot {i}");
            }
        }
        // Respects capacity and the region.
        let mut gaps2 = GapMap::new();
        regap(&mut keys, &mut vals, &mut gaps2, 0, 100, 12);
        assert!(keys.len() <= 12);
    }

    /// Randomized round-trip: a gapped leaf fed random insert/remove
    /// traffic (with periodic regap/compact) must always report the same
    /// live content as a sorted reference vector, and must uphold the
    /// structural invariants from the module docs.
    #[test]
    fn gapped_ops_match_reference_model() {
        let cap = 16usize;
        let mut state = 0xdead_beef_cafe_f00du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..200u32 {
            let kind = match case % 3 {
                0 => SearchKind::Binary,
                1 => SearchKind::Branchless,
                _ => SearchKind::Simd,
            };
            let mut keys: Vec<u64> = vec![];
            let mut vals: Vec<u64> = vec![];
            let mut gaps = GapMap::new();
            let mut model: Vec<(u64, u64)> = vec![];
            for step in 0..200u32 {
                let r = next();
                let k = r % 32;
                if r % 100 < 60 {
                    let v = u64::from(step);
                    match insert_at(kind, &mut keys, &mut vals, &mut gaps, k, v, cap) {
                        SlotInsert::Done(slot) => {
                            assert!(!gaps.is_gap(slot));
                            assert_eq!((keys[slot], vals[slot]), (k, v));
                            let at = model.partition_point(|e| e.0 <= k);
                            model.insert(at, (k, v));
                        }
                        SlotInsert::Full => {
                            assert_eq!(model.len(), cap, "Full only when live == cap");
                            assert!(gaps.is_dense(), "full leaves are dense");
                            // Make room like a split would: compact + drop max.
                            model.pop();
                            keys.pop();
                            vals.pop();
                        }
                    }
                } else if !model.is_empty() {
                    // Remove a uniformly chosen live entry.
                    let mi = (r >> 8) as usize % model.len();
                    let (k, _) = model.remove(mi);
                    // Its physical slot: lower bound, skip gaps and
                    // earlier duplicates until values match the model's
                    // ordering (first live instance + offset).
                    let mut slot = lower_bound(kind, &keys, k);
                    slot = gaps.next_live(slot, keys.len()).expect("present");
                    // How many earlier live duplicates of k to pass: both
                    // sides insert duplicates at the upper bound, so live
                    // physical order matches model order instance-for-instance
                    // (entries before `mi` are unchanged by the removal).
                    let skip = model.iter().take(mi).filter(|e| e.0 == k).count();
                    for _ in 0..skip {
                        slot = gaps
                            .next_live(slot + 1, keys.len())
                            .expect("duplicate instance");
                    }
                    remove_at(
                        NodeLayoutKind::Gapped,
                        &mut keys,
                        &mut vals,
                        &mut gaps,
                        slot,
                        usize::MAX,
                    );
                }
                if step % 37 == 0 {
                    compact(&mut keys, &mut vals, &mut gaps);
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
                        let j = gaps.next_live(i, keys.len()).expect("last slot is live");
                        assert_eq!(keys[i], keys[j], "filler copies its live neighbour");
                    }
                }
                let got: Vec<u64> = (0..keys.len())
                    .filter(|&i| !gaps.is_gap(i))
                    .map(|i| keys[i])
                    .collect();
                let want: Vec<u64> = model.iter().map(|e| e.0).collect();
                assert_eq!(got, want, "live keys match model");
            }
        }
    }
}
