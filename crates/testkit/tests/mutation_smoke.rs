//! Mutation smoke check: the harness must catch the bug we planted.
//!
//! With `Mutation::SplitBound` armed, `quit-core` leaves a stale
//! poℓe lower bound after a Fig 7a variable split, so a later key below
//! the new separator fast-inserts into the wrong leaf. This suite asserts
//! the differential oracle (1) detects that, (2) shrinks the trigger to a
//! ≤ 25-op counterexample, and (3) round-trips the failing seed through a
//! persisted `.proptest-regressions` file.
//!
//! Each test arms the bug on its own test thread, so the clean suites
//! that share the test binary's process never see it.

use proptest::test_runner::{Config, Runner};
use quit_core::mutation::{arm, Mutation};
use quit_testkit::{replay_guarded, Op, OracleConfig, WorkloadStrategy};

/// Tiny leaves + tight invariant cadence: the regime where the planted
/// bound bug both fires quickly and gets detected close to its cause,
/// which is what lets shrinking reach a handful of ops.
fn oracle_config() -> OracleConfig {
    OracleConfig {
        leaf_capacity: 4,
        buffer_capacity: 8,
        check_every: 4,
        ..OracleConfig::default()
    }
}

fn run_harness(
    label: &str,
    cases: u32,
    regressions: &std::path::Path,
) -> proptest::test_runner::Failure<(Vec<Op>,)> {
    let strategy = (WorkloadStrategy::ingest_heavy(160),);
    Runner::new(label, Config::with_cases(cases))
        .with_regressions_file(regressions)
        .run(&strategy, |(ops,)| {
            replay_guarded(ops, &oracle_config())
                .map(|_| ())
                .map_err(|d| d.to_string())
        })
        .expect_err("the injected split-bound bug must be caught")
}

#[test]
fn injected_split_bug_is_caught_shrunk_and_persisted() {
    let _bug = arm(Mutation::SplitBound);
    let path = std::env::temp_dir().join(format!(
        "quit-testkit-mutation-{}.proptest-regressions",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // Fresh hunt: detect and shrink.
    let failure = run_harness("mutation_smoke", 64, &path);
    assert!(!failure.replayed, "first run must find the bug itself");
    let minimal = &failure.minimal.0;
    assert!(
        minimal.len() <= 25,
        "counterexample must shrink to ≤ 25 ops, got {}: {minimal:?}",
        minimal.len()
    );
    assert!(
        minimal.len() < failure.original.0.len(),
        "shrinking must make progress ({} -> {})",
        failure.original.0.len(),
        minimal.len()
    );
    let text = std::fs::read_to_string(&path).expect("regressions file written");
    assert!(
        text.contains(&format!("cc {:016x}", failure.seed)),
        "seed persisted: {text}"
    );

    // Round trip: a replay-only runner (zero fresh cases) must reproduce
    // the same failure from the persisted seed and re-shrink to the same
    // minimal counterexample.
    let replayed = run_harness("mutation_smoke_replay", 0, &path);
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

/// The minimal counterexample from the planted bug still fails when
/// replayed directly — i.e. what the shrinker reports is a genuine,
/// standalone reproducer, not an artifact of runner state.
#[test]
fn shrunk_counterexample_is_a_standalone_reproducer() {
    let _bug = arm(Mutation::SplitBound);
    let path = std::env::temp_dir().join(format!(
        "quit-testkit-mutation-standalone-{}.proptest-regressions",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let failure = run_harness("mutation_standalone", 64, &path);
    let minimal = failure.minimal.0.clone();
    assert!(
        replay_guarded(&minimal, &oracle_config()).is_err(),
        "minimal counterexample must fail on its own: {minimal:?}"
    );
    // And it is insert-dominated: the bug lives in the split path.
    assert!(
        minimal
            .iter()
            .any(|op| matches!(op, Op::Insert(..) | Op::InsertBatch(_) | Op::BulkLoad(_))),
        "reproducer must contain inserts: {minimal:?}"
    );
    let _ = std::fs::remove_file(&path);
}
