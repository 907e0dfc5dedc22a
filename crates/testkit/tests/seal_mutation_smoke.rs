//! WAL seal mutation smoke check: the crash fuzzer must catch the
//! open-run bug we planted.
//!
//! With `Mutation::StaleRunCount` armed, an append that joins the WAL
//! buffer's open run leaves the run's count as it was, so the frame that
//! is sealed checks out by its CRC but holds more entries than it counts,
//! and opening the log fails as corruption. The crash-recovery
//! differential logs at `Buffered` through a 256-byte buffer, so
//! consecutive inserts share open runs. This suite asserts it (1) detects
//! that, (2) shrinks the trigger to a ≤ 25-op sequence, (3) round-trips
//! the failing seed through a persisted `.proptest-regressions` file, and
//! (4) that the shrunk case recovers cleanly once the bug is disarmed.
//!
//! Each test arms the bug on its own test thread, so the clean suites
//! that share the test binary's process never see it.

use proptest::test_runner::{Config, Runner};
use quit_core::mutation::{arm, Mutation};
use quit_testkit::{replay_crash_ops, CrashSpec, Op, WorkloadStrategy};

/// No random commits: detection rests on the deterministic full-image
/// check, so every shrunk candidate fails or passes on the ops alone.
fn crash_spec() -> CrashSpec {
    CrashSpec {
        cuts: 4,
        leaf_capacity: 8,
        commit_every: 0,
        checkpoint_at: None,
        seed: 0x5EA1_0FF1,
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
        .expect_err("the injected open-run seal bug must be caught")
}

#[test]
fn injected_seal_bug_is_caught_shrunk_and_persisted() {
    let _bug = arm(Mutation::StaleRunCount);
    let path = std::env::temp_dir().join(format!(
        "quit-testkit-seal-mutation-{}.proptest-regressions",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // Fresh hunt: detect and shrink.
    let failure = run_harness("seal_mutation_smoke", 64, &path);
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
    let replayed = run_harness("seal_mutation_smoke_replay", 0, &path);
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
fn shrunk_seal_counterexample_is_a_standalone_reproducer() {
    let path = std::env::temp_dir().join(format!(
        "quit-testkit-seal-standalone-{}.proptest-regressions",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let minimal = {
        let _bug = arm(Mutation::StaleRunCount);
        let minimal = run_harness("seal_mutation_standalone", 64, &path).minimal.0;
        assert!(
            replay_crash_ops(&minimal, &crash_spec()).is_err(),
            "minimal counterexample must fail on its own: {minimal:?}"
        );
        minimal
    };
    replay_crash_ops(&minimal, &crash_spec())
        .unwrap_or_else(|d| panic!("disarmed, the counterexample must recover: {d}"));
    let _ = std::fs::remove_file(&path);
}
