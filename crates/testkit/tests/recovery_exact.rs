//! Exact-equality recovery: a `Durable<BpTree>` reopened from its log
//! holds what it held live, entry for entry — keys, values and the order
//! of duplicates (see `quit_testkit::replay_recovery_exact`).

use proptest::prelude::*;
use quit_core::TreeConfig;
use quit_testkit::{replay_recovery_exact, ExactRecoverySpec, RecoveryStreamStrategy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Near-sorted, scrambled, duplicate-heavy and delete-heavy streams,
    /// each without and with a checkpoint mid-stream, on a paper-default
    /// tree and on 16-entry leaves. On failure this shrinks to a minimal
    /// op list and persists the seed next to this file.
    #[test]
    fn recovery_equals_the_live_tree_exactly(ops in RecoveryStreamStrategy { max_ops: 240 }) {
        for tree in [TreeConfig::paper_default(), TreeConfig::small(16)] {
            for checkpoint_at in [None, Some(ops.len() / 2)] {
                let spec = ExactRecoverySpec { tree: tree.clone(), checkpoint_at };
                replay_recovery_exact(&ops, &spec)
                    .unwrap_or_else(|d| panic!("checkpoint at {checkpoint_at:?}: {d}"));
            }
        }
    }
}
