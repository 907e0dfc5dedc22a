//! In-order Key estimatoR (IKR) — the paper's lightweight outlier predictor
//! (§4.1, Eq. 2), inspired by inter-quartile-range outlier detection.
//!
//! Given `p` (smallest key of `poℓe_prev`), `q` (smallest key of `poℓe`),
//! the two node sizes, and a scale, the estimator extrapolates the key
//! density observed between two known non-outliers across the poℓe node:
//!
//! ```text
//! x = q + ((q − p) / poℓe_prev_size) · poℓe_size · scale
//! ```
//!
//! Any key greater than `x` is predicted to be an outlier.

use crate::key::Key;

/// Computes the IKR acceptance bound `x` of Eq. (2).
///
/// `prev_size` must be at least 1; the paper guarantees
/// `poℓe_prev_size ≥ 50%` at use sites, "which is always true in
/// traditional B+-tree-node-splitting".
#[inline]
pub fn ikr_bound<K: Key>(p: K, q: K, prev_size: usize, pole_size: usize, scale: f64) -> f64 {
    debug_assert!(prev_size >= 1, "IKR needs a non-empty poℓe_prev");
    let pf = p.to_ikr();
    let qf = q.to_ikr();
    let density = (qf - pf) / prev_size as f64;
    qf + density * pole_size as f64 * scale
}

/// True when `key` lies beyond the IKR bound, i.e. is predicted to be an
/// outlier with respect to the observed in-order density.
#[inline]
pub fn is_outlier<K: Key>(
    key: K,
    p: K,
    q: K,
    prev_size: usize,
    pole_size: usize,
    scale: f64,
) -> bool {
    key.to_ikr() > ikr_bound(p, q, prev_size, pole_size, scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_sequential_keys() {
        // poℓe_prev holds keys 0..100 (p = 0), poℓe holds 100..200 (q = 100).
        // Density is 1 key per unit; with poℓe full at 100 entries and
        // scale 1.5 the acceptance bound is 100 + 1·100·1.5 = 250.
        let x = ikr_bound(0u64, 100u64, 100, 100, 1.5);
        assert_eq!(x, 250.0);
        assert!(!is_outlier(250u64, 0, 100, 100, 100, 1.5));
        assert!(is_outlier(251u64, 0, 100, 100, 100, 1.5));
    }

    #[test]
    fn sparse_keys_widen_the_bound() {
        // Keys spaced 1000 apart widen the acceptable domain accordingly.
        let x = ikr_bound(0u64, 100_000u64, 100, 100, 1.5);
        assert_eq!(x, 100_000.0 + 1000.0 * 100.0 * 1.5);
    }

    #[test]
    fn q_is_never_an_outlier() {
        // x >= q always (density >= 0 for monotone p <= q), so the smallest
        // key of poℓe itself always passes the test.
        for (p, q) in [(0u64, 0u64), (5, 9), (100, 100)] {
            assert!(!is_outlier(q, p, q, 10, 20, 1.5));
        }
    }

    #[test]
    fn scale_expands_acceptance() {
        let tight = ikr_bound(0u64, 100u64, 100, 100, 1.0);
        let loose = ikr_bound(0u64, 100u64, 100, 100, 2.0);
        assert!(loose > tight);
    }

    #[test]
    fn works_for_float_keys() {
        use crate::key::OrderedF64;
        let p = OrderedF64::new(1.0);
        let q = OrderedF64::new(2.0);
        let x = ikr_bound(p, q, 4, 8, 1.5);
        // density = 0.25; x = 2 + 0.25 * 8 * 1.5 = 5.0
        assert!((x - 5.0).abs() < 1e-12);
    }

    proptest::proptest! {
        /// The acceptance bound never rejects q itself and grows
        /// monotonically with the scale.
        #[test]
        fn bound_admits_q_and_grows_with_scale(
            p in 0..1_000_000u64,
            gap in 0..1_000_000u64,
            prev_size in 1..1024usize,
            pole_size in 0..1024usize,
        ) {
            let q = p + gap;
            let tight = ikr_bound(p, q, prev_size, pole_size, 1.0);
            let loose = ikr_bound(p, q, prev_size, pole_size, 2.0);
            proptest::prop_assert!(tight >= q as f64);
            proptest::prop_assert!(loose >= tight);
        }

        /// A denser poℓe_prev (more entries over the same span) narrows
        /// the acceptable domain.
        #[test]
        fn denser_prev_narrows_bound(
            p in 0..1_000_000u64,
            gap in 1..1_000_000u64,
            prev_size in 1..512usize,
            pole_size in 1..512usize,
        ) {
            let q = p + gap;
            let sparse = ikr_bound(p, q, prev_size, pole_size, 1.5);
            let dense = ikr_bound(p, q, prev_size * 2, pole_size, 1.5);
            proptest::prop_assert!(dense <= sparse);
        }
    }
}
