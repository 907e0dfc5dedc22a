//! Property test for the fast-path policy as the tree runs it: a random
//! near-sorted key stream (an advancing frontier, stragglers behind it,
//! outliers ahead of it, deletes) replayed through a poℓe `BpTree` under
//! every combination of the QuIT knobs must keep the structural invariants
//! — including the fast-path bounds `check_invariants` verifies against
//! the separators — hold the exact contents of a sorted-vector model, and
//! keep the counters exact: every insert is a fast- or a top-insert, every
//! leaf beyond the first came from one counted split, and each catch-up or
//! reset answers one top-insert.

use proptest::prelude::*;
use quit_core::{BpTree, FastPathMode, NodeLayoutKind, TreeConfig};

/// One generated step; keys are positioned relative to the stream frontier.
#[derive(Clone, Debug)]
enum Step {
    /// The in-order stream: the frontier advances by `1 + gap`.
    Next(u64),
    /// A straggler `back` keys behind the frontier.
    Late(u64),
    /// An outlier `ahead` keys past the frontier.
    Early(u64),
    /// Delete the `sel % len`-th live key (ignored while empty).
    Delete(usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        12 => (0..4u64).prop_map(Step::Next),
        3 => (1..400u64).prop_map(Step::Late),
        2 => (50..5_000u64).prop_map(Step::Early),
        1 => (0..usize::MAX).prop_map(Step::Delete),
    ]
}

/// Knob combination `i` of 16: variable split, redistribute, reset, then
/// Gapped leaves on the upper half — with the variable split on, that is
/// the only way a real tree reaches the split's Gapped headroom clamp.
fn config(i: usize) -> TreeConfig {
    let c = TreeConfig::small(8)
        .with_variable_split(i & 1 != 0)
        .with_redistribute(i & 2 != 0);
    let c = if i & 4 != 0 {
        c
    } else {
        c.with_reset_threshold(None)
    };
    if i & 8 != 0 {
        c.with_node_layout(NodeLayoutKind::Gapped)
    } else {
        c
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pole_tree_stays_valid_and_counts_exactly(
        knobs in 0..16usize,
        steps in prop::collection::vec(step_strategy(), 1..600),
    ) {
        let mut t: BpTree<u64, u64> = BpTree::with_config(FastPathMode::Pole, config(knobs));
        let mut model: Vec<u64> = Vec::new();
        let mut frontier = 10_000u64;
        let (mut inserts, mut deletes) = (0u64, 0u64);
        for (i, step) in steps.into_iter().enumerate() {
            let key = match step {
                Step::Next(gap) => {
                    frontier += 1 + gap;
                    frontier
                }
                Step::Late(back) => frontier - back,
                Step::Early(ahead) => frontier + ahead,
                Step::Delete(sel) => {
                    if !model.is_empty() {
                        let k = model.remove(sel % model.len());
                        assert_eq!(t.delete(k), Some(k));
                        deletes += 1;
                    }
                    continue;
                }
            };
            t.insert(key, key);
            inserts += 1;
            let at = model.partition_point(|&m| m <= key);
            model.insert(at, key);
            if i % 64 == 0 {
                t.check_invariants().unwrap();
            }
        }
        t.check_invariants().unwrap();
        assert_eq!(t.keys(), model);
        assert_eq!(t.len(), model.len());

        let s = t.stats();
        assert_eq!(s.fast_inserts.get() + s.top_inserts.get(), inserts);
        assert_eq!(s.deletes.get(), deletes);
        assert!(s.pole_catch_ups.get() + s.fp_resets.get() <= s.top_inserts.get());
        assert!(s.variable_splits.get() <= s.leaf_splits.get());
        // Every leaf beyond the first came from one counted split; merges
        // (counted) and emptied poℓe leaves (not counted) take leaves away.
        let leaves = t.memory_report().leaf_nodes as u64;
        assert!(leaves + s.leaf_merges.get() <= 1 + s.leaf_splits.get());
        if deletes == 0 {
            assert_eq!(leaves, 1 + s.leaf_splits.get());
        }
        let cfg = t.config();
        if !cfg.variable_split {
            assert_eq!(s.variable_splits.get() + s.redistributions.get(), 0);
        }
        if !cfg.redistribute {
            assert_eq!(s.redistributions.get(), 0);
        }
        if cfg.reset_threshold.is_none() {
            assert_eq!(s.fp_resets.get(), 0);
        }
    }
}
