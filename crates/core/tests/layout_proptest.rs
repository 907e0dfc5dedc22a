//! Property tests for the gapped slot primitives: random op sequences
//! through `insert_at`/`remove_at`, with `compact` + `regap` driven at
//! every simulated split, must preserve the layout contract exactly —
//! sorted physical keys, the strict filler rule, no trailing gaps, a
//! bitmap that matches reality, and live contents identical to a plain
//! sorted-vector model.

use proptest::prelude::*;
use quit_core::{GapMap, SearchKind, SlotInsert};

const CAPACITY: usize = 8;

/// One generated step against the leaf under test.
#[derive(Clone, Debug)]
enum Step {
    /// Insert key `k` (value = op ordinal, assigned at replay).
    Insert(u64),
    /// Remove the `sel % live`-th live entry (ignored while empty).
    Remove(usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0..60u64).prop_map(Step::Insert),
        1 => (0..usize::MAX).prop_map(Step::Remove),
    ]
}

/// Everything the layout module promises about one gapped leaf.
fn assert_layout_contract(keys: &[u64], vals: &[u64], gaps: &GapMap, model: &[(u64, u64)]) {
    assert_eq!(keys.len(), vals.len());
    assert!(
        keys.len() <= CAPACITY,
        "physical length stays within capacity"
    );
    assert!(
        keys.windows(2).all(|w| w[0] <= w[1]),
        "physical keys sorted"
    );
    if !keys.is_empty() {
        assert!(!gaps.is_gap(keys.len() - 1), "no trailing gap");
    }
    let mut gap_count = 0usize;
    for i in 0..keys.len() {
        if gaps.is_gap(i) {
            gap_count += 1;
            // Strict filler rule: a gap copies its right neighbour's pair.
            assert_eq!(keys[i], keys[i + 1], "filler key at {i}");
            assert_eq!(vals[i], vals[i + 1], "filler value at {i}");
        }
    }
    assert_eq!(gap_count, gaps.count(), "bitmap count matches reality");
    let live: Vec<(u64, u64)> = (0..keys.len())
        .filter(|&i| !gaps.is_gap(i))
        .map(|i| (keys[i], vals[i]))
        .collect();
    assert_eq!(live, model, "live contents match the model");
    // Every search kind agrees with std's partition_point on the physical
    // array (the fillers keep it sorted, so the contract is well-defined).
    for probe in [0, 1, 29, 30, 31, 59, 60] {
        let ub = keys.partition_point(|k| *k <= probe);
        let lb = keys.partition_point(|k| *k < probe);
        for kind in [SearchKind::Binary, SearchKind::Branchless, SearchKind::Simd] {
            assert_eq!(
                quit_core::upper_bound(kind, keys, probe),
                ub,
                "{kind:?} ub({probe})"
            );
            assert_eq!(
                quit_core::lower_bound(kind, keys, probe),
                lb,
                "{kind:?} lb({probe})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random insert/remove churn with a simulated split on every `Full`:
    /// compact, drain the upper half (the would-be right node), then
    /// `regap` the survivor exactly as the split paths do.
    #[test]
    fn gapped_leaf_round_trips(steps in prop::collection::vec(step_strategy(), 1..250)) {
        let mut keys: Vec<u64> = Vec::new();
        let mut vals: Vec<u64> = Vec::new();
        let mut gaps = GapMap::new();
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut splits = 0usize;

        for (ordinal, step) in steps.into_iter().enumerate() {
            let v = ordinal as u64;
            match step {
                Step::Insert(k) => {
                    match quit_core::insert_at(
                        SearchKind::Branchless,
                        &mut keys,
                        &mut vals,
                        &mut gaps,
                        k,
                        v,
                        CAPACITY,
                    ) {
                        SlotInsert::Done(pos) => {
                            assert!(!gaps.is_gap(pos), "inserted slot is live");
                            assert_eq!((keys[pos], vals[pos]), (k, v));
                            let at = model.partition_point(|&(mk, _)| mk <= k);
                            model.insert(at, (k, v));
                        }
                        SlotInsert::Full => {
                            // The caller's split protocol: compact to dense,
                            // give the upper half away, regap the survivor.
                            assert_eq!(
                                keys.len() - gaps.count(),
                                CAPACITY,
                                "Full only at live == capacity"
                            );
                            quit_core::compact(&mut keys, &mut vals, &mut gaps);
                            assert!(gaps.is_dense());
                            assert_eq!(keys.len(), CAPACITY, "compact keeps every live pair");
                            let mid = keys.len() / 2;
                            let right_keys = keys.split_off(mid);
                            let right_vals = vals.split_off(mid);
                            let right_model = model.split_off(mid);
                            let moved: Vec<(u64, u64)> = right_keys
                                .into_iter()
                                .zip(right_vals)
                                .collect();
                            assert_eq!(moved, right_model, "split moves exact pairs");
                            let want = (CAPACITY as f64).sqrt().floor() as usize;
                            let region_start = keys.len() / 2;
                            quit_core::regap(
                                &mut keys,
                                &mut vals,
                                &mut gaps,
                                region_start,
                                want,
                                CAPACITY,
                            );
                            splits += 1;
                            // Retry must now succeed: gaps were opened.
                            match quit_core::insert_at(
                                SearchKind::Branchless,
                                &mut keys,
                                &mut vals,
                                &mut gaps,
                                k,
                                v,
                                CAPACITY,
                            ) {
                                SlotInsert::Done(_) => {
                                    let at = model.partition_point(|&(mk, _)| mk <= k);
                                    model.insert(at, (k, v));
                                }
                                SlotInsert::Full => {
                                    panic!("insert after split must succeed")
                                }
                            }
                        }
                    }
                }
                Step::Remove(sel) => {
                    if model.is_empty() {
                        continue;
                    }
                    let j = sel % model.len();
                    // Map the j-th live entry to its physical slot.
                    let pos = (0..keys.len())
                        .filter(|&i| !gaps.is_gap(i))
                        .nth(j)
                        .expect("live slot exists");
                    let got = quit_core::remove_at(
                        quit_core::NodeLayoutKind::Gapped,
                        &mut keys,
                        &mut vals,
                        &mut gaps,
                        pos,
                        usize::MAX,
                    );
                    let (_, want) = model.remove(j);
                    assert_eq!(got, want, "remove_at returns the removed value");
                }
            }
            assert_layout_contract(&keys, &vals, &gaps, &model);
        }

        // Final compaction round-trip: contents unchanged, layout dense.
        quit_core::compact(&mut keys, &mut vals, &mut gaps);
        assert!(gaps.is_dense());
        let dense: Vec<(u64, u64)> = keys.iter().copied().zip(vals.iter().copied()).collect();
        assert_eq!(dense, model, "compact preserves live contents");
        // Workloads long enough to overflow must actually have split.
        if model.len() > CAPACITY {
            assert!(splits > 0, "overflowing workloads exercise the split path");
        }
    }
}

// ---------------------------------------------------------------------
// The key-guided lookup kernel
// ---------------------------------------------------------------------

/// Distributions the guided search must be exact on. The outlier shapes
/// are the ones that skew its guess the most: every other key crowds
/// into one end of the `to_ikr` span.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Uniform,
    Clustered,
    Exponential,
    DuplicateHeavy,
    AllEqual,
    OutlierAtEnd,
    OutlierAtStart,
    /// Not sorted at all: only termination and the `0..=n` range are owed.
    Unsorted,
}

const SHAPES: [Shape; 8] = [
    Shape::Uniform,
    Shape::Clustered,
    Shape::Exponential,
    Shape::DuplicateHeavy,
    Shape::AllEqual,
    Shape::OutlierAtEnd,
    Shape::OutlierAtStart,
    Shape::Unsorted,
];

/// `n` values in `0..=max` of `shape`, sorted unless the shape is
/// [`Shape::Unsorted`]; drawn from a xorshift stream seeded by `seed`.
fn shaped(shape: Shape, n: usize, max: u64, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let below = |r: u64, bound: u64| {
        if bound == u64::MAX {
            r
        } else {
            r % (bound + 1)
        }
    };
    let mut v: Vec<u64> = match shape {
        Shape::Uniform | Shape::Unsorted => (0..n).map(|_| below(next(), max)).collect(),
        Shape::Clustered => {
            let centres: Vec<u64> = (0..1 + next() % 4).map(|_| below(next(), max)).collect();
            (0..n)
                .map(|_| {
                    let c = centres[(next() % centres.len() as u64) as usize];
                    c.saturating_add(next() % 64).min(max)
                })
                .collect()
        }
        Shape::Exponential => (0..n)
            .map(|_| (1u64 << (next() % 64)).min(max) - 1 + next() % 2)
            .collect(),
        Shape::DuplicateHeavy => {
            let distinct = 1 + n as u64 / 8;
            let base = below(next(), max.saturating_sub(distinct));
            (0..n).map(|_| base + next() % distinct).collect()
        }
        Shape::AllEqual => vec![below(next(), max); n],
        Shape::OutlierAtEnd => {
            let mut v: Vec<u64> = (0..n).map(|_| next() % (4 * n as u64 + 1)).collect();
            if let Some(last) = v.last_mut() {
                *last = max;
            }
            v
        }
        Shape::OutlierAtStart => {
            let mut v: Vec<u64> = (0..n)
                .map(|_| max - next() % (4 * n as u64 + 1).min(max))
                .collect();
            if let Some(first) = v.first_mut() {
                *first = 0;
            }
            v
        }
    };
    if !matches!(shape, Shape::Unsorted) {
        v.sort_unstable();
    }
    v
}

/// The guided search under both lookup predicates against libcore's
/// `partition_point` on sorted `keys`; on unsorted ones only the range.
fn check_guided<K: quit_core::Key>(keys: &[K], probes: &[K], sorted: bool) {
    let n = keys.len();
    for &p in probes {
        let lower = quit_core::guided_partition_point_by(n, |i| keys[i], p, |k| k < p);
        let upper = quit_core::guided_partition_point_by(n, |i| keys[i], p, |k| k <= p);
        if sorted {
            assert_eq!(
                lower,
                keys.partition_point(|k| *k < p),
                "< {p:?} in {keys:?}"
            );
            assert_eq!(
                upper,
                keys.partition_point(|k| *k <= p),
                "<= {p:?} in {keys:?}"
            );
        } else {
            assert!(lower <= n && upper <= n, "{p:?} in {keys:?}");
        }
    }
}

/// Every key, its neighbours and the type's extremes, plus a few strays.
fn probes_for<K: Copy>(keys: &[K], around: impl Fn(K) -> [K; 3], extremes: [K; 2]) -> Vec<K> {
    let mut probes: Vec<K> = keys.iter().flat_map(|&k| around(k)).collect();
    probes.extend(extremes);
    probes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// `guided_partition_point_by` is exactly `partition_point` for `<`
    /// and `<=` on every shape, length 0..=600 and key type — `u64` and
    /// `i64` over their full ranges (where `to_ikr` rounds), `u32`, and
    /// `OrderedF64` with infinities at either end — and on unsorted input
    /// it still ends with an answer in `0..=n`.
    #[test]
    fn guided_search_is_the_partition_point(
        shape in 0..SHAPES.len(),
        n in 0..=600usize,
        seed in any::<u64>(),
    ) {
        use quit_core::OrderedF64;
        let shape = SHAPES[shape];
        let sorted = !matches!(shape, Shape::Unsorted);

        let k64 = shaped(shape, n, u64::MAX, seed);
        let probes = probes_for(&k64, |k| [k, k.wrapping_sub(1), k.wrapping_add(1)], [0, u64::MAX]);
        check_guided(&k64, &probes, sorted);

        let ki64: Vec<i64> = k64.iter().map(|&k| (k ^ (1 << 63)) as i64).collect();
        let probes = probes_for(&ki64, |k| [k, k.wrapping_sub(1), k.wrapping_add(1)], [i64::MIN, i64::MAX]);
        check_guided(&ki64, &probes, sorted);

        let k32: Vec<u32> = shaped(shape, n, u64::from(u32::MAX), seed)
            .into_iter()
            .map(|k| k as u32)
            .collect();
        let probes = probes_for(&k32, |k| [k, k.wrapping_sub(1), k.wrapping_add(1)], [0, u32::MAX]);
        check_guided(&k32, &probes, sorted);

        // Doubles over ±2^49 so neighbours at ±0.5 stay distinct, with
        // the infinities swapped in at either end on some cases.
        let mut kf: Vec<OrderedF64> = shaped(shape, n, 1 << 50, seed)
            .into_iter()
            .map(|k| OrderedF64(k as f64 - (1u64 << 49) as f64))
            .collect();
        if sorted && seed & 1 == 1 {
            if let Some(first) = kf.first_mut() {
                *first = OrderedF64(f64::NEG_INFINITY);
            }
        }
        if sorted && seed & 2 == 2 {
            if let Some(last) = kf.last_mut() {
                *last = OrderedF64(f64::INFINITY);
            }
        }
        let probes = probes_for(
            &kf,
            |k| [k, OrderedF64(k.0 - 0.5), OrderedF64(k.0 + 0.5)],
            [OrderedF64(f64::NEG_INFINITY), OrderedF64(f64::INFINITY)],
        );
        check_guided(&kf, &probes, sorted);
    }
}
