//! Recovery-fold mutation smoke check: the exact recovery oracle must
//! catch the tie-order bug we planted.
//!
//! With `Mutation::FoldTieOrder` armed, `Durable::open`'s tail fold merges
//! a key's out-of-order residue ops before its in-order ones, whatever
//! their log order, so a duplicate logged late comes back ahead of an
//! older one and a late delete can run before the insert it removes. This
//! suite asserts that the exact-equality recovery oracle (1) detects that,
//! (2) shrinks the trigger to a ≤ 25-op sequence, and (3) round-trips the
//! failing seed through a persisted `.proptest-regressions` file.
//!
//! Each test arms the bug on its own test thread, so the clean suites
//! that share the test binary's process never see it.

use proptest::test_runner::{Config, Runner};
use quit_core::mutation::{arm, Mutation};
use quit_core::TreeConfig;
use quit_testkit::{replay_recovery_exact, ExactRecoverySpec, Op, RecoveryStreamStrategy};

fn spec() -> ExactRecoverySpec {
    ExactRecoverySpec {
        tree: TreeConfig::small(16),
        checkpoint_at: None,
    }
}

fn run_harness(
    label: &str,
    cases: u32,
    regressions: &std::path::Path,
) -> proptest::test_runner::Failure<(Vec<Op>,)> {
    let strategy = (RecoveryStreamStrategy { max_ops: 160 },);
    Runner::new(label, Config::with_cases(cases))
        .with_regressions_file(regressions)
        .run(&strategy, |(ops,)| {
            replay_recovery_exact(ops, &spec())
                .map(|_| ())
                .map_err(|d| d.to_string())
        })
        .expect_err("the injected fold tie-order bug must be caught")
}

#[test]
fn injected_fold_bug_is_caught_shrunk_and_persisted() {
    let _bug = arm(Mutation::FoldTieOrder);
    let path = std::env::temp_dir().join(format!(
        "quit-testkit-fold-mutation-{}.proptest-regressions",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // Fresh hunt: detect and shrink.
    let failure = run_harness("fold_mutation_smoke", 64, &path);
    assert!(!failure.replayed, "first run must find the bug itself");
    let minimal = &failure.minimal.0;
    assert!(
        minimal.len() <= 25,
        "counterexample must shrink to ≤ 25 ops, got {}: {minimal:?}",
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
    let replayed = run_harness("fold_mutation_smoke_replay", 0, &path);
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
/// only while the bug is armed.
#[test]
fn shrunk_fold_counterexample_is_a_standalone_reproducer() {
    let path = std::env::temp_dir().join(format!(
        "quit-testkit-fold-standalone-{}.proptest-regressions",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let minimal = {
        let _bug = arm(Mutation::FoldTieOrder);
        let minimal = run_harness("fold_mutation_standalone", 64, &path).minimal.0;
        assert!(
            replay_recovery_exact(&minimal, &spec()).is_err(),
            "minimal counterexample must fail on its own: {minimal:?}"
        );
        minimal
    };
    replay_recovery_exact(&minimal, &spec())
        .unwrap_or_else(|d| panic!("disarmed, the counterexample must recover exactly: {d}"));
    let _ = std::fs::remove_file(&path);
}
