//! Façade-level smoke test for the differential testkit: the oracle is
//! reachable through `quick_insertion_tree::quit_testkit` and replays a
//! small fixed-seed workload grid cleanly. The heavyweight soaks live in
//! `crates/testkit/tests/differential.rs`.
//!
//! No planted bug reaches this test: mutations are armed per thread, and
//! only by the testkit's mutation smokes.

use quick_insertion_tree::quit_testkit::{replay, OpMix, OracleConfig, WorkloadSpec};

#[test]
fn oracle_replays_clean_through_the_facade() {
    for (seed, k) in [(1u64, 0.0), (2, 0.1), (3, 0.6)] {
        let ops = WorkloadSpec {
            ops: 600,
            k_fraction: k,
            l_fraction: 0.5,
            seed,
            mix: OpMix::mixed(),
            dup_fraction: 0.1,
        }
        .generate();
        replay(&ops, &OracleConfig::default()).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
    }
}
