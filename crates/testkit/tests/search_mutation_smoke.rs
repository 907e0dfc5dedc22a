//! Mutation smoke check for the intra-node search: the harness must
//! catch the off-by-one we planted.
//!
//! With `Mutation::SearchLadder` armed, `quit-core` drops the final
//! single-element step of `branchless_partition_point_by`, so every
//! search that finishes on the branchless ladder lands one slot short of
//! the true partition point. Point lookups reach the ladder through the
//! key-guided leaf search. This suite asserts the differential oracle
//! (1) detects that under the default configuration, (2) shrinks the
//! trigger to a tiny counterexample, and (3) the minimal counterexample
//! reproduces standalone.
//!
//! Each test arms the bug on its own test thread, so the clean suites
//! that share the test binary's process never see it.

use proptest::test_runner::{Config, Runner};
use quit_core::mutation::{arm, Mutation};
use quit_testkit::{replay_guarded, Op, OracleConfig, WorkloadStrategy};

/// The default paper path, whose insert positioning stays on libcore's
/// binary search, with leaves wide enough (32 entries) that point lookups
/// run the key-guided search past its 16-key cut-off too: its bracket,
/// like its short-leaf case, finishes on the planted ladder.
fn default_lookup_config() -> OracleConfig {
    OracleConfig {
        leaf_capacity: 32,
        check_every: 4,
        ..OracleConfig::default()
    }
}

fn run_harness(
    label: &str,
    cases: u32,
    config: &OracleConfig,
) -> proptest::test_runner::Failure<(Vec<Op>,)> {
    let strategy = (WorkloadStrategy::ingest_heavy(160),);
    Runner::new(label, Config::with_cases(cases))
        .run(&strategy, |(ops,)| {
            replay_guarded(ops, config)
                .map(|_| ())
                .map_err(|d| d.to_string())
        })
        .expect_err("the injected branchless-search off-by-one must be caught")
}

/// Caught, shrunk to ≤ 25 ops, and reproducible on its own.
fn assert_caught_and_shrunk(label: &str, config: &OracleConfig) {
    let failure = run_harness(label, 64, config);
    let minimal = &failure.minimal.0;
    assert!(
        minimal.len() <= 25,
        "counterexample must shrink to ≤ 25 ops, got {}: {minimal:?}",
        minimal.len()
    );
    assert!(
        replay_guarded(minimal, config).is_err(),
        "minimal counterexample must fail on its own: {minimal:?}"
    );
}

#[test]
fn injected_search_bug_reaches_default_config_lookups() {
    let _bug = arm(Mutation::SearchLadder);
    assert_caught_and_shrunk("search_mutation_smoke_lookups", &default_lookup_config());
}

/// The planted bug is localized to the branchless ladder: the binary
/// search keeps implementing the exact boundary contract, and the
/// branchless flavour visibly violates it — i.e. the smoke check above
/// fails for the right reason, not through some harness artifact.
#[test]
fn planted_bug_lives_only_in_the_branchless_ladder() {
    let _bug = arm(Mutation::SearchLadder);
    let keys: Vec<u64> = vec![1, 3, 3, 7, 9];
    let mut binary_diverged = false;
    let mut branchless_diverged = false;
    for probe in 0..11u64 {
        let want = keys.partition_point(|k| *k <= probe);
        if quit_core::upper_bound(&keys, probe) != want {
            binary_diverged = true;
        }
        if quit_core::branchless_partition_point(&keys, |k| *k <= probe) != want {
            branchless_diverged = true;
        }
    }
    assert!(!binary_diverged, "binary search must stay correct");
    assert!(
        branchless_diverged,
        "the injected off-by-one must actually break the branchless search"
    );
}
