//! Pool mutation smoke check: the harness must catch the pin bug we
//! planted.
//!
//! With `Mutation::PinRelease` armed, `quit-core`'s paged backend
//! releases the hot-node memo's standing pin one operation boundary early
//! with broken accounting: the hot frame becomes an eviction victim whose
//! dirty write-back is skipped, so the next fault resurrects the node's
//! previous on-store version — updates silently lost to an unpinned
//! eviction. This suite asserts the differential oracle, run on the paged
//! backend with a pool far smaller than the working set, (1) detects
//! that, (2) shrinks the trigger to a ≤ 25-op counterexample, and (3)
//! round-trips the failing seed through a persisted
//! `.proptest-regressions` file.
//!
//! Each test arms the bug on its own test thread, so the clean suites
//! that share the test binary's process never see it.

use proptest::test_runner::{Config, Runner};
use quit_core::mutation::{arm, Mutation};
use quit_testkit::{replay_guarded, Op, OracleBackend, OracleConfig, WorkloadStrategy};

/// Tiny leaves, a 2-page pool, and a tight invariant cadence: with the
/// pool this far under the working set, nearly every op evicts, so the
/// hot leaf's lost write-back surfaces within a handful of inserts —
/// close enough to its cause for shrinking to reach a few ops.
fn oracle_config() -> OracleConfig {
    OracleConfig {
        leaf_capacity: 4,
        buffer_capacity: 8,
        check_every: 4,
        ..OracleConfig::default()
    }
    .with_backend(OracleBackend::Paged { pool_pages: 2 })
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
        .expect_err("the injected pin-discipline bug must be caught")
}

#[test]
fn injected_pin_bug_is_caught_shrunk_and_persisted() {
    let _bug = arm(Mutation::PinRelease);
    let path = std::env::temp_dir().join(format!(
        "quit-testkit-pool-mutation-{}.proptest-regressions",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // Fresh hunt: detect and shrink.
    let failure = run_harness("pool_mutation_smoke", 64, &path);
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
    let replayed = run_harness("pool_mutation_smoke_replay", 0, &path);
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

/// The minimal counterexample still fails when replayed directly — a
/// genuine standalone reproducer — and only under pressure: the same ops
/// on the arena backend (no pool, no evictions) replay clean, pinning the
/// failure on the eviction path rather than the paged codec.
#[test]
fn shrunk_counterexample_requires_eviction_pressure() {
    let _bug = arm(Mutation::PinRelease);
    let path = std::env::temp_dir().join(format!(
        "quit-testkit-pool-mutation-standalone-{}.proptest-regressions",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let failure = run_harness("pool_mutation_standalone", 64, &path);
    let minimal = failure.minimal.0.clone();
    assert!(
        replay_guarded(&minimal, &oracle_config()).is_err(),
        "minimal counterexample must fail on its own: {minimal:?}"
    );
    let arena = OracleConfig {
        backend: OracleBackend::Arena,
        ..oracle_config()
    };
    assert!(
        replay_guarded(&minimal, &arena).is_ok(),
        "the same ops must replay clean without the buffer pool: {minimal:?}"
    );
    let _ = std::fs::remove_file(&path);
}
