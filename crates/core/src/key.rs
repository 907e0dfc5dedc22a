//! Key trait for QuIT indexes.
//!
//! The In-order Key estimatoR (IKR, paper Eq. 2) needs light arithmetic on
//! keys: a density `(q − p) / poℓe_prev_size` and a scaled extrapolation.
//! Rather than demanding numeric traits, keys project into `f64`; every
//! provided key type round-trips the magnitudes the estimator cares about.

use std::fmt::Debug;

/// Marker asserting that **every** bit pattern is a valid value of `Self`.
///
/// The concurrent tree's optimistic readers (`quit-concurrent`'s OLC
/// paths) copy key bytes while a writer may be mid-update. Each word of
/// such a copy is some value that was actually stored, but the
/// *combination* of words can be torn, and even a single word may mix
/// old/new state from an in-progress `memmove`. Materializing that
/// patchwork as a `Self` is only sound when the type has no invalid bit
/// patterns — no niches, so no `bool`/`char`/enum/`NonZero`/reference
/// fields and no padding.
///
/// A torn value may still violate *library* invariants (e.g. a NaN inside
/// [`OrderedF64`]). Comparing it must be memory-safe — wrong orderings or
/// a panic are acceptable, because the optimistic bracket discards the
/// result (or unwinds with no locks held) — and every safe `Ord` impl on
/// valid values satisfies that automatically.
///
/// # Safety
///
/// Implementors guarantee that any `size_of::<Self>()` bytes, however
/// produced, form a valid, fully initialized `Self`.
pub unsafe trait AnyBitPattern: Copy {}

/// A key type usable by [`crate::BpTree`].
///
/// Keys must be totally ordered, cheap to copy, and projectable to `f64`
/// so that the IKR outlier bound (paper Eq. 2) can be evaluated. The
/// projection only needs to be monotonic: `a < b ⇒ a.to_ikr() <= b.to_ikr()`.
///
/// The [`AnyBitPattern`] supertrait is what lets the concurrent tree read
/// keys without a latch: implementing `Key` for a type with invalid bit
/// patterns requires (unsoundly) writing the `unsafe impl`, rather than
/// being an accident a safe `impl Key` could commit.
pub trait Key: Copy + Ord + Debug + AnyBitPattern + 'static {
    /// Monotonic projection into `f64` used by the IKR estimator.
    fn to_ikr(self) -> f64;

    /// Vectorized upper bound (`partition_point(|k| *k <= key)`) over a
    /// sorted slice, or `None` when no vector kernel applies (non-x86_64,
    /// SIMD force-disabled, or a key width without a kernel). Callers in
    /// [`crate::layout`] fall back to the portable branchless search.
    ///
    /// Not part of the public contract — an internal dispatch point so
    /// [`crate::layout::SearchKind::Simd`] needs no extra trait bounds.
    #[doc(hidden)]
    #[inline]
    fn simd_upper_bound(_keys: &[Self], _key: Self) -> Option<usize> {
        None
    }

    /// Vectorized lower bound (`partition_point(|k| *k < key)`); see
    /// [`Key::simd_upper_bound`].
    #[doc(hidden)]
    #[inline]
    fn simd_lower_bound(_keys: &[Self], _key: Self) -> Option<usize> {
        None
    }
}

macro_rules! impl_key_int {
    ($($t:ty),*) => {
        $(
            // SAFETY: primitive integers have no padding and no invalid
            // bit patterns.
            unsafe impl AnyBitPattern for $t {}
            impl Key for $t {
                #[inline]
                fn to_ikr(self) -> f64 {
                    self as f64
                }
            }
        )*
    };
}

// Key widths with vector kernels get their own expansion wiring the
// dispatch hooks to `layout::simd`; `strict = true` is the lower bound.
macro_rules! impl_key_int_simd {
    ($($t:ty => $kernel:ident),*) => {
        $(
            // SAFETY: primitive integers have no padding and no invalid
            // bit patterns.
            unsafe impl AnyBitPattern for $t {}
            impl Key for $t {
                #[inline]
                fn to_ikr(self) -> f64 {
                    self as f64
                }

                #[inline]
                fn simd_upper_bound(keys: &[Self], key: Self) -> Option<usize> {
                    crate::layout::simd::$kernel(keys, key, false)
                }

                #[inline]
                fn simd_lower_bound(keys: &[Self], key: Self) -> Option<usize> {
                    crate::layout::simd::$kernel(keys, key, true)
                }
            }
        )*
    };
}

impl_key_int!(u8, u16, usize, i8, i16, isize);
impl_key_int_simd!(u32 => partition_u32, i32 => partition_i32, u64 => partition_u64, i64 => partition_i64);

/// A totally ordered `f64` wrapper (NaN is not permitted) so floating-point
/// attributes — e.g. the stock closing prices of the paper's Fig. 15 — can be
/// indexed directly.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(transparent)]
pub struct OrderedF64(pub f64);

impl OrderedF64 {
    /// Wraps a float, panicking on NaN (NaN has no place in an ordered index).
    #[inline]
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "OrderedF64 cannot hold NaN");
        OrderedF64(v)
    }

    /// The wrapped value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Safe: NaN is rejected at construction.
        self.0.partial_cmp(&other.0).expect("NaN in OrderedF64")
    }
}

// SAFETY: `OrderedF64` is a transparent `f64`; all 2^64 bit patterns are
// valid `f64` values. A torn read can surface a NaN, which violates only
// the no-NaN *library* invariant: `cmp` then panics (memory-safely) instead
// of exhibiting UB, which the `AnyBitPattern` contract permits.
unsafe impl AnyBitPattern for OrderedF64 {}

impl Key for OrderedF64 {
    #[inline]
    fn to_ikr(self) -> f64 {
        self.0
    }
}

impl From<f64> for OrderedF64 {
    #[inline]
    fn from(v: f64) -> Self {
        OrderedF64::new(v)
    }
}

/// Which of `stripes` per-key locks guards `key`: a SplitMix64 finalizer
/// over the key's IKR projection. `to_ikr` is a pure function of the key,
/// so equal keys always share a stripe — once `f64`'s two zeros, which
/// compare equal with different bits, are normalized.
pub fn stripe_of<K: Key>(key: K, stripes: usize) -> usize {
    let ikr = key.to_ikr();
    let mut h = (if ikr == 0.0 { 0.0 } else { ikr }).to_bits();
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    (h % stripes as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_projection_is_monotonic() {
        let samples: [u64; 5] = [0, 1, 42, 1 << 32, u64::MAX >> 12];
        for w in samples.windows(2) {
            assert!(w[0].to_ikr() <= w[1].to_ikr());
        }
    }

    #[test]
    fn signed_projection_handles_negatives() {
        assert!((-5i64).to_ikr() < 0.0);
        assert!((-5i64).to_ikr() < (-4i64).to_ikr());
    }

    #[test]
    fn ordered_f64_total_order() {
        let mut v = [
            OrderedF64::new(3.5),
            OrderedF64::new(-1.0),
            OrderedF64::new(0.0),
        ];
        v.sort();
        assert_eq!(v[0].get(), -1.0);
        assert_eq!(v[2].get(), 3.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn ordered_f64_rejects_nan() {
        OrderedF64::new(f64::NAN);
    }

    #[test]
    fn equal_keys_share_a_stripe() {
        let zeros = [OrderedF64::new(0.0), OrderedF64::new(-0.0)];
        assert_eq!(stripe_of(zeros[0], 64), stripe_of(zeros[1], 64));
        let spread: std::collections::HashSet<usize> =
            (0..1_000u64).map(|k| stripe_of(k, 64)).collect();
        assert_eq!(spread.len(), 64, "a thousand keys reach every stripe");
    }

    #[test]
    fn ordered_f64_from_f64() {
        let x: OrderedF64 = 2.25.into();
        assert_eq!(x.get(), 2.25);
        assert_eq!(x.to_ikr(), 2.25);
    }
}
