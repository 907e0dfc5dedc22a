//! WAL mutation smoke check: the crash fuzzer must catch the framing bug
//! we planted.
//!
//! With `Mutation::DeleteFrameCrc` armed, `quit-durability` computes the
//! CRC of Delete frames over one byte too few at encode time, so recovery
//! rejects every delete record as torn and silently stops replay early.
//! This suite asserts the crash-recovery differential (1) detects that —
//! a fully intact WAL image that does not recover every logged record is
//! a prefix-consistency violation — (2) shrinks the trigger to a tiny op
//! sequence containing a delete, and (3) round-trips the failing seed
//! through a persisted `.proptest-regressions` file.
//!
//! Each test arms the bug on its own test thread, so the clean suites
//! that share the test binary's process never see it.

use proptest::test_runner::{Config, Runner};
use quit_core::mutation::{arm, Mutation};
use quit_testkit::{replay_crash_ops, CrashSpec, Op, WorkloadStrategy};

/// No random commits: detection rests purely on the deterministic
/// full-image check (an un-torn WAL must recover every record), so every
/// shrunk candidate either fails or passes on the ops alone.
fn crash_spec() -> CrashSpec {
    CrashSpec {
        cuts: 4,
        leaf_capacity: 8,
        commit_every: 0,
        checkpoint_at: None,
        seed: 0xB16_B00B5,
    }
}

fn run_harness(
    label: &str,
    cases: u32,
    regressions: &std::path::Path,
) -> proptest::test_runner::Failure<(Vec<Op>,)> {
    let strategy = (WorkloadStrategy::mixed(160),);
    Runner::new(label, Config::with_cases(cases))
        .with_regressions_file(regressions)
        .run(&strategy, |(ops,)| {
            replay_crash_ops(ops, &crash_spec())
                .map(|_| ())
                .map_err(|d| d.to_string())
        })
        .expect_err("the injected WAL framing bug must be caught")
}

#[test]
fn injected_wal_bug_is_caught_shrunk_and_persisted() {
    let _bug = arm(Mutation::DeleteFrameCrc);
    let path = std::env::temp_dir().join(format!(
        "quit-testkit-wal-mutation-{}.proptest-regressions",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // Fresh hunt: detect and shrink.
    let failure = run_harness("wal_mutation_smoke", 64, &path);
    assert!(!failure.replayed, "first run must find the bug itself");
    let minimal = &failure.minimal.0;
    assert!(
        minimal.len() <= 10,
        "counterexample must shrink to ≤ 10 ops, got {}: {minimal:?}",
        minimal.len()
    );
    assert!(
        minimal.iter().any(|op| matches!(op, Op::Delete(_))),
        "the bug corrupts delete frames; the reproducer must delete: {minimal:?}"
    );
    let text = std::fs::read_to_string(&path).expect("regressions file written");
    assert!(
        text.contains(&format!("cc {:016x}", failure.seed)),
        "seed persisted: {text}"
    );

    // Round trip: a replay-only runner (zero fresh cases) must reproduce
    // the same failure from the persisted seed and re-shrink to the same
    // minimal counterexample.
    let replayed = run_harness("wal_mutation_smoke_replay", 0, &path);
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

/// The minimal counterexample is a genuine standalone reproducer.
#[test]
fn shrunk_wal_counterexample_is_a_standalone_reproducer() {
    let _bug = arm(Mutation::DeleteFrameCrc);
    let path = std::env::temp_dir().join(format!(
        "quit-testkit-wal-standalone-{}.proptest-regressions",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let failure = run_harness("wal_mutation_standalone", 64, &path);
    let minimal = failure.minimal.0.clone();
    assert!(
        replay_crash_ops(&minimal, &crash_spec()).is_err(),
        "minimal counterexample must fail on its own: {minimal:?}"
    );
    let _ = std::fs::remove_file(&path);
}
