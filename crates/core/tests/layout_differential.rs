//! Slice-level coverage of the intra-node search contract: the key-guided
//! leaf search must return exactly the lower bound, and the bounds must be
//! libcore's partition points, on every boundary shape.

use rand::prelude::*;

#[test]
fn search_kinds_agree_on_every_boundary_shape() {
    // Runs, empties, singletons and random sorted arrays.
    let mut rng = StdRng::seed_from_u64(0x1a_0004);
    let mut cases: Vec<Vec<u64>> = vec![
        vec![],
        vec![5],
        vec![5, 5, 5, 5],
        (0..510).map(|i| i / 3).collect(),
    ];
    for _ in 0..50 {
        let n = rng.gen_range(0..600);
        let mut v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..200)).collect();
        v.sort_unstable();
        cases.push(v);
    }
    for keys in &cases {
        for probe in 0..205u64 {
            let ub = quit_core::upper_bound(keys, probe);
            let lb = quit_core::lower_bound(keys, probe);
            assert_eq!(ub, keys.partition_point(|k| *k <= probe), "upper_bound");
            assert_eq!(lb, keys.partition_point(|k| *k < probe), "lower_bound");
            assert_eq!(
                quit_core::search_leaf(quit_core::SearchKind::Binary, keys, probe),
                lb,
                "guided search_leaf len={} probe={probe}",
                keys.len()
            );
            assert_eq!(
                quit_core::guided_lower_bound(keys, probe),
                lb,
                "guided_lower_bound len={} probe={probe}",
                keys.len()
            );
        }
    }
}
