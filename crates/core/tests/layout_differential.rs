//! Differential coverage for the node-layout/search redesign: the gapped
//! layout and every `SearchKind` must be observationally identical to the
//! dense + binary paper path on the full `BpTree` API surface.

use quit_core::{BpTree, FastPathMode, NodeLayoutKind, SearchKind, TreeConfig};
use rand::prelude::*;

const MODES: [FastPathMode; 4] = [
    FastPathMode::None,
    FastPathMode::Tail,
    FastPathMode::Lil,
    FastPathMode::Pole,
];

fn pair(mode: FastPathMode, cap: usize, kind: SearchKind) -> (BpTree<u64, u64>, BpTree<u64, u64>) {
    let dense = BpTree::with_config(mode, TreeConfig::small(cap));
    let gapped = BpTree::with_config(
        mode,
        TreeConfig::small(cap)
            .with_node_layout(NodeLayoutKind::Gapped)
            .with_search_kind(kind),
    );
    (dense, gapped)
}

/// Asserts the two trees agree on every read surface.
fn assert_equivalent(dense: &BpTree<u64, u64>, gapped: &BpTree<u64, u64>, probe_keys: &[u64]) {
    dense.check_invariants().unwrap();
    gapped.check_invariants().unwrap();
    assert_eq!(dense.len(), gapped.len());
    assert_eq!(dense.min_key(), gapped.min_key());
    assert_eq!(dense.max_key(), gapped.max_key());
    let di: Vec<(u64, u64)> = dense.iter().map(|(k, v)| (k, *v)).collect();
    let gi: Vec<(u64, u64)> = gapped.iter().map(|(k, v)| (k, *v)).collect();
    assert_eq!(di, gi, "full iteration diverged");
    for &k in probe_keys {
        assert_eq!(dense.get(k), gapped.get(k), "get({k})");
        assert_eq!(dense.get_all(k), gapped.get_all(k), "get_all({k})");
        assert_eq!(
            dense.floor(k).map(|(k, v)| (k, *v)),
            gapped.floor(k).map(|(k, v)| (k, *v)),
            "floor({k})"
        );
        assert_eq!(
            dense.ceiling(k).map(|(k, v)| (k, *v)),
            gapped.ceiling(k).map(|(k, v)| (k, *v)),
            "ceiling({k})"
        );
        let dr: Vec<(u64, u64)> = dense.range(k..k + 64).map(|(k, v)| (k, *v)).collect();
        let gr: Vec<(u64, u64)> = gapped.range(k..k + 64).map(|(k, v)| (k, *v)).collect();
        assert_eq!(dr, gr, "range({k}..{})", k + 64);
        let mut dc = dense.cursor_at(k);
        let mut gc = gapped.cursor_at(k);
        for _ in 0..8 {
            assert_eq!(
                dc.next().map(|(k, v)| (k, *v)),
                gc.next().map(|(k, v)| (k, *v)),
                "cursor walk from {k}"
            );
        }
    }
    // Backward cursor over the whole tree.
    let mut dc = dense.cursor_last();
    let mut gc = gapped.cursor_last();
    loop {
        let d = dc.prev().map(|(k, v)| (k, *v));
        let g = gc.prev().map(|(k, v)| (k, *v));
        assert_eq!(d, g, "backward cursor diverged");
        if d.is_none() {
            break;
        }
    }
}

#[test]
fn near_sorted_ingest_matches_dense_in_every_mode() {
    let mut rng = StdRng::seed_from_u64(0x1a_0001);
    for mode in MODES {
        let (mut dense, mut gapped) = pair(mode, 16, SearchKind::Branchless);
        // Near-sorted stream with stragglers — the workload gapped leaves
        // exist for: most keys ascend, a few arrive late.
        let mut keys: Vec<u64> = Vec::new();
        for i in 0..6000u64 {
            if rng.gen_bool(0.1) && i > 50 {
                keys.push(i * 10 - rng.gen_range(1..400u64));
            } else {
                keys.push(i * 10);
            }
        }
        for &k in &keys {
            dense.insert(k, k ^ 1);
            gapped.insert(k, k ^ 1);
        }
        let probes: Vec<u64> = keys.iter().step_by(97).copied().collect();
        assert_equivalent(&dense, &gapped, &probes);
    }
}

#[test]
fn random_churn_with_deletes_matches_dense() {
    let mut rng = StdRng::seed_from_u64(0x1a_0002);
    for mode in [FastPathMode::None, FastPathMode::Pole] {
        let (mut dense, mut gapped) = pair(mode, 8, SearchKind::Simd);
        let mut live: Vec<u64> = Vec::new();
        for step in 0..12_000u32 {
            if !live.is_empty() && rng.gen_bool(0.35) {
                let k = live.swap_remove(rng.gen_range(0..live.len()));
                assert_eq!(dense.delete(k), gapped.delete(k), "delete({k}) step {step}");
            } else {
                let k = rng.gen_range(0..4000u64);
                dense.insert(k, u64::from(step));
                gapped.insert(k, u64::from(step));
                live.push(k);
            }
        }
        let probes: Vec<u64> = (0..4000u64).step_by(53).collect();
        assert_equivalent(&dense, &gapped, &probes);
    }
}

#[test]
fn duplicate_runs_match_across_layouts() {
    for kind in [SearchKind::Binary, SearchKind::Branchless, SearchKind::Simd] {
        let (mut dense, mut gapped) = pair(FastPathMode::Pole, 8, kind);
        // Heavy duplicate runs straddling many leaves, interleaved with
        // deletes that punch gaps into the runs.
        for i in 0..40u64 {
            for _ in 0..30 {
                dense.insert(i * 5, i);
                gapped.insert(i * 5, i);
            }
        }
        for i in (0..40u64).step_by(3) {
            for _ in 0..7 {
                assert_eq!(dense.delete(i * 5), gapped.delete(i * 5));
            }
        }
        let probes: Vec<u64> = (0..210u64).collect();
        assert_equivalent(&dense, &gapped, &probes);
    }
}

#[test]
fn range_delete_and_pops_match() {
    let (mut dense, mut gapped) = pair(FastPathMode::Pole, 12, SearchKind::Branchless);
    for k in 0..3000u64 {
        dense.insert(k * 3 % 2048, k);
        gapped.insert(k * 3 % 2048, k);
    }
    assert_eq!(dense.delete_range(100, 900), gapped.delete_range(100, 900));
    for _ in 0..50 {
        assert_eq!(dense.pop_first(), gapped.pop_first());
        assert_eq!(dense.pop_last(), gapped.pop_last());
    }
    let probes: Vec<u64> = (0..2048u64).step_by(31).collect();
    assert_equivalent(&dense, &gapped, &probes);
}

#[test]
fn bulk_paths_match_across_layouts() {
    let entries: Vec<(u64, u64)> = (0..5000u64).map(|k| (k * 2, k)).collect();
    let dense_cfg = TreeConfig::small(16);
    let gapped_cfg = TreeConfig::small(16)
        .with_node_layout(NodeLayoutKind::Gapped)
        .with_search_kind(SearchKind::Simd);
    let mut dense: BpTree<u64, u64> =
        BpTree::bulk_load(FastPathMode::Pole, dense_cfg, entries.clone(), 0.9);
    let mut gapped: BpTree<u64, u64> =
        BpTree::bulk_load(FastPathMode::Pole, gapped_cfg, entries, 0.9);
    // Continue with batch inserts whose runs hit the fast-append path on
    // dense tails and the per-entry merge path on gapped ones.
    let batch: Vec<(u64, u64)> = (4000..7000u64).map(|k| (k * 2 + 1, k)).collect();
    assert_eq!(dense.insert_batch(&batch), gapped.insert_batch(&batch));
    let probes: Vec<u64> = (0..14_000u64).step_by(101).collect();
    assert_equivalent(&dense, &gapped, &probes);
}

#[test]
fn snapshot_roundtrip_under_gapped_layout() {
    let (_, mut gapped) = pair(FastPathMode::Pole, 8, SearchKind::Branchless);
    let mut rng = StdRng::seed_from_u64(0x1a_0003);
    for _ in 0..4000 {
        gapped.insert(rng.gen_range(0..1500u64), 7);
    }
    for _ in 0..800 {
        gapped.delete(rng.gen_range(0..1500u64));
    }
    let snap = gapped.to_snapshot();
    assert_eq!(snap.config.node_layout, NodeLayoutKind::Gapped);
    let restored = BpTree::from_snapshot(snap);
    restored.check_invariants().unwrap();
    assert_eq!(restored.len(), gapped.len());
    let a: Vec<(u64, u64)> = gapped.iter().map(|(k, v)| (k, *v)).collect();
    let b: Vec<(u64, u64)> = restored.iter().map(|(k, v)| (k, *v)).collect();
    assert_eq!(a, b);
}

#[test]
fn search_kinds_agree_on_every_boundary_shape() {
    // Direct slice-level equivalence: all kinds must implement the same
    // upper/lower bound contract on runs, empties, and singletons.
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
            let ub = quit_core::upper_bound(SearchKind::Binary, keys, probe);
            let lb = quit_core::lower_bound(SearchKind::Binary, keys, probe);
            assert_eq!(
                quit_core::search_leaf(SearchKind::Binary, keys, probe),
                lb,
                "guided search_leaf len={} probe={probe}",
                keys.len()
            );
            for kind in [SearchKind::Branchless, SearchKind::Simd] {
                assert_eq!(
                    quit_core::upper_bound(kind, keys, probe),
                    ub,
                    "{kind:?} upper_bound len={} probe={probe}",
                    keys.len()
                );
                assert_eq!(
                    quit_core::lower_bound(kind, keys, probe),
                    lb,
                    "{kind:?} lower_bound len={} probe={probe}",
                    keys.len()
                );
            }
        }
    }
}

#[test]
fn gapped_layout_preserves_paper_fast_path_accounting() {
    // The fast-path state machine is layout-independent: a sorted stream
    // must produce identical fast/top-insert counts under both layouts.
    let counts: Vec<(u64, u64)> = [NodeLayoutKind::Dense, NodeLayoutKind::Gapped]
        .into_iter()
        .map(|layout| {
            let cfg = TreeConfig::small(16).with_node_layout(layout);
            let mut t: BpTree<u64, u64> = BpTree::with_config(FastPathMode::Pole, cfg);
            for k in 0..5000u64 {
                t.insert(k, k);
            }
            t.check_invariants().unwrap();
            (t.stats().fast_inserts.get(), t.stats().top_inserts.get())
        })
        .collect();
    assert_eq!(counts[0], counts[1], "fast-path accounting diverged");
    assert!(
        counts[0].0 > 4900,
        "sorted stream should nearly always fast-insert, got {counts:?}"
    );
}
