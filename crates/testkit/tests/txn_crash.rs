//! Transactional crash differential: commit groups cut mid-WAL at
//! fuzzed byte offsets must recover to an exact committed prefix —
//! recovery may lose un-fsynced tail commits, but it must never surface
//! part of a transaction's write set.

use proptest::prelude::*;
use quit_testkit::{replay_txn_crash, TxnCrashSpec, TxnWorkloadSpec, TxnWorkloadStrategy};

/// The headline run: ≥50 distinct crash points (56 random cuts plus the
/// empty and full images) over a multi-transaction history with fsync
/// barriers raising the durability floor mid-stream.
#[test]
fn fifty_plus_cut_points_never_expose_a_partial_txn() {
    let ops = TxnWorkloadSpec {
        ops: 3_000,
        slots: 6,
        keys: 64,
        seed: 0xC4A5_0113,
    }
    .generate();
    let spec = TxnCrashSpec::default();
    let report = replay_txn_crash(&ops, &spec).unwrap_or_else(|d| panic!("{d}"));
    assert!(report.cuts_tested >= 50, "only {} cuts", report.cuts_tested);
    assert_eq!(report.cuts_tested, 2 + spec.cuts);
    assert!(report.commits > 100, "only {} commits", report.commits);
    assert_eq!(
        report.max_prefix, report.commits,
        "the full image must recover every commit"
    );
    assert!(
        report.torn_cuts > 0,
        "no cut tore the tail — the cut distribution is not exercising \
         mid-commit-group crashes"
    );
    assert!(report.floor_commits > 0, "fsync barriers never ran");
    assert!(report.min_prefix >= report.floor_commits);
}

/// Crash points landing in the snapshot-plus-tail regime: a checkpoint
/// mid-history compacts the WAL, and cuts before/after it must still
/// recover committed prefixes only.
#[test]
fn checkpointed_txn_history_recovers_prefixes() {
    let ops = TxnWorkloadSpec {
        ops: 1_500,
        slots: 4,
        keys: 48,
        seed: 0xC4A5_C217,
    }
    .generate();
    let spec = TxnCrashSpec {
        cuts: 24,
        checkpoint_at: Some(800),
        ..TxnCrashSpec::default()
    };
    let report = replay_txn_crash(&ops, &spec).unwrap_or_else(|d| panic!("{d}"));
    assert!(
        report.floor_commits > 0,
        "checkpoint never raised the floor"
    );
    assert_eq!(report.max_prefix, report.commits);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sampled transactional workloads through the crash fuzzer (a
    /// cheaper cut budget per case; any atomicity violation shrinks).
    #[test]
    fn sampled_txn_histories_recover_atomically(ops in TxnWorkloadStrategy::contended(250)) {
        let spec = TxnCrashSpec { cuts: 10, commit_every: 24, ..TxnCrashSpec::default() };
        replay_txn_crash(&ops, &spec).unwrap_or_else(|d| panic!("{d}"));
    }
}
