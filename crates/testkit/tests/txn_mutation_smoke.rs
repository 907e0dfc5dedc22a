//! Transaction mutation smoke check: the SI history checker must catch
//! the isolation bug we planted.
//!
//! With `Mutation::SkipConflictCheck` armed, `quit-durability` skips the
//! commit path's first-committer-wins validation, so two overlapping
//! transactions that wrote the same key both commit — the canonical
//! snapshot-isolation lost update. This suite asserts the history
//! checker (1) detects that from the recorded timestamps alone,
//! (2) shrinks the trigger to a tiny interleaved op sequence (≤ 25 ops)
//! still containing two commits, and (3) round-trips the failing seed
//! through a persisted `.proptest-regressions` file.
//!
//! Each test arms the bug on its own test thread, so the clean suites
//! that share the test binary's process never see it.

use proptest::test_runner::{Config, Runner};
use quit_core::mutation::{arm, Mutation};
use quit_testkit::{replay_txn_history, TxnOp, TxnWorkloadStrategy};

fn run_harness(
    label: &str,
    cases: u32,
    regressions: &std::path::Path,
) -> proptest::test_runner::Failure<(Vec<TxnOp>,)> {
    let strategy = (TxnWorkloadStrategy::contended(160),);
    Runner::new(label, Config::with_cases(cases))
        .with_regressions_file(regressions)
        .run(&strategy, |(ops,)| {
            replay_txn_history(ops)
                .map(|_| ())
                .map_err(|v| v.to_string())
        })
        .expect_err("the injected conflict-check bug must be caught")
}

#[test]
fn injected_txn_bug_is_caught_shrunk_and_persisted() {
    let _bug = arm(Mutation::SkipConflictCheck);
    let path = std::env::temp_dir().join(format!(
        "quit-testkit-txn-mutation-{}.proptest-regressions",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // Fresh hunt: detect and shrink.
    let failure = run_harness("txn_mutation_smoke", 64, &path);
    assert!(!failure.replayed, "first run must find the bug itself");
    let minimal = &failure.minimal.0;
    assert!(
        minimal.len() <= 25,
        "counterexample must shrink to ≤ 25 ops, got {}: {minimal:?}",
        minimal.len()
    );
    let commits = minimal
        .iter()
        .filter(|op| matches!(op, TxnOp::Commit(_)))
        .count();
    assert!(
        commits >= 2,
        "a lost update needs two committing transactions: {minimal:?}"
    );
    let text = std::fs::read_to_string(&path).expect("regressions file written");
    assert!(
        text.contains(&format!("cc {:016x}", failure.seed)),
        "seed persisted: {text}"
    );

    // Round trip: a replay-only runner (zero fresh cases) must reproduce
    // the same failure from the persisted seed and re-shrink to the same
    // minimal counterexample.
    let replayed = run_harness("txn_mutation_smoke_replay", 0, &path);
    assert!(
        replayed.replayed,
        "failure must come from the persisted seed"
    );
    assert_eq!(replayed.seed, failure.seed);
    assert_eq!(
        replayed.minimal.0, failure.minimal.0,
        "shrinking is deterministic given the seed"
    );

    let _ = std::fs::remove_file(&path);
}

/// The minimal counterexample is a genuine standalone reproducer, and
/// the violation it reports is the lost update itself.
#[test]
fn shrunk_txn_counterexample_is_a_standalone_reproducer() {
    let _bug = arm(Mutation::SkipConflictCheck);
    let path = std::env::temp_dir().join(format!(
        "quit-testkit-txn-standalone-{}.proptest-regressions",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let failure = run_harness("txn_mutation_standalone", 64, &path);
    let minimal = failure.minimal.0.clone();
    let violation =
        replay_txn_history(&minimal).expect_err("minimal counterexample must fail on its own");
    assert_eq!(
        violation.axiom, "first-committer-wins",
        "disabling conflict detection manifests as a lost update: {violation}"
    );
    let _ = std::fs::remove_file(&path);
}

/// The hand-written four-op lost-update trigger fails directly — the
/// shrinker has a floor to converge to.
#[test]
fn four_op_lost_update_fails_under_the_bug() {
    let _bug = arm(Mutation::SkipConflictCheck);
    let ops = [
        TxnOp::Write(0, 1, 1),
        TxnOp::Write(1, 1, 2),
        TxnOp::Commit(0),
        TxnOp::Commit(1),
    ];
    let violation = replay_txn_history(&ops).expect_err("both writers commit under the bug");
    assert_eq!(violation.axiom, "first-committer-wins", "{violation}");
}
