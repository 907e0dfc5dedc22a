//! Snapshot-isolation history checks against the real `TxnStore`:
//! fixed-seed multi-writer soaks (≥50k events, both descent modes),
//! deterministic interleaved-transaction workloads, and proptest-driven
//! sampled histories with shrinking.

use proptest::prelude::*;
use quit_testkit::{
    replay_txn_concurrent, replay_txn_history, SiSoakSpec, TxnWorkloadSpec, TxnWorkloadStrategy,
};

/// The headline soak: six writers race 2 000 transactions each over a
/// 384-key space while the version GC runs, and the merged ≥50 000-event
/// history must satisfy every SI axiom. One run per descent mode.
fn soak(olc: bool) {
    let spec = SiSoakSpec {
        threads: 6,
        txns_per_thread: 2_000,
        max_ops_per_txn: 6,
        keys: 384,
        abort_percent: 10,
        conflict_rounds: 8,
        olc,
        leaf_capacity: 32,
        gc_every: 64,
        seed: 0x51_50AC ^ u64::from(olc),
    };
    let report = replay_txn_concurrent(&spec).unwrap_or_else(|v| panic!("olc {olc}: {v}"));
    assert!(
        report.events >= 50_000,
        "soak too small to be meaningful: {} events",
        report.events
    );
    assert_eq!(report.summary.txns, 12_000);
    // Each barrier-aligned round yields exactly threads-1 conflicts
    // deterministically; organic races can only add to that.
    assert!(
        report.stats.conflicts >= 8 * 5,
        "expected at least the {} round conflicts, got {}",
        8 * 5,
        report.stats.conflicts
    );
    assert!(report.summary.committed_writers > 1_000);
    assert!(report.summary.reads_checked > 1_000);
}

#[test]
fn fifty_k_event_soak_holds_si_under_olc() {
    soak(true);
}

#[test]
fn fifty_k_event_soak_holds_si_under_pessimistic_locking() {
    soak(false);
}

#[test]
fn interleaved_fixed_workloads_hold_si_in_both_modes() {
    for seed in [1u64, 0xDEAD, 0x5EED_5EED] {
        let ops = TxnWorkloadSpec {
            ops: 2_000,
            slots: 6,
            keys: 48,
            seed,
        }
        .generate();
        for olc in [false, true] {
            let report = replay_txn_history(&ops, olc)
                .unwrap_or_else(|v| panic!("seed {seed:#x} olc {olc}: {v}"));
            assert!(report.summary.committed > 50, "seed {seed:#x}");
            assert!(report.summary.reads_checked > 50, "seed {seed:#x}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sampled contended histories: any SI violation shrinks to a small
    /// op sequence via the strategy's delta-debugging shrinker.
    #[test]
    fn sampled_histories_hold_si(ops in TxnWorkloadStrategy::contended(300)) {
        replay_txn_history(&ops, true).unwrap_or_else(|v| panic!("{v}"));
    }

    /// The same histories through pessimistic descents.
    #[test]
    fn sampled_histories_hold_si_pessimistic(ops in TxnWorkloadStrategy::contended(300)) {
        replay_txn_history(&ops, false).unwrap_or_else(|v| panic!("{v}"));
    }
}
