//! Multi-threaded differential soak for the concurrent tree, driven by
//! [`quit_testkit::replay_concurrent`].
//!
//! The base seed is fixed (CI determinism) but overridable through
//! `QUIT_STRESS_SEED`, and is printed so any failure is replayable
//! bit-for-bit. Op volume scales with `QUIT_FUZZ_CASES` like the other
//! soaks: the default run already clears the 50k-op / 4-thread bar the
//! roadmap sets for this harness.

use quit_testkit::{conc_base_seed, fuzz_cases, replay_concurrent, ConcSpec};

const SOAK_SEED: u64 = 0x511D_2025;

/// ≥50k mutating ops across 4 writers with 2 validating readers (6
/// threads).
#[test]
fn olc_soak_is_divergence_free() {
    let ops_per_writer = 15_000 * fuzz_cases(1);
    let report = replay_concurrent(&ConcSpec {
        writers: 4,
        readers: 2,
        ops_per_writer,
        key_space: 4_000,
        seed: conc_base_seed(SOAK_SEED),
        leaf_capacity: 8,
    })
    .unwrap_or_else(|d| panic!("olc soak diverged: {d}"));
    assert_eq!(report.writer_ops, 4 * ops_per_writer);
    assert!(report.reader_ops >= 2);
    assert!(report.final_len > 0);
    println!(
        "olc soak: {} writer ops, {} reader ops, final len {}, {} restarts, {} fallbacks",
        report.writer_ops,
        report.reader_ops,
        report.final_len,
        report.olc_restarts,
        report.olc_fallbacks
    );
}

/// Tiny-leaf geometry maximizes splits per op — the window where torn
/// optimistic reads would live.
#[test]
fn tiny_leaf_soak_is_divergence_free() {
    let report = replay_concurrent(&ConcSpec {
        writers: 3,
        readers: 3,
        ops_per_writer: 4_000 * fuzz_cases(1),
        key_space: 500,
        seed: conc_base_seed(SOAK_SEED ^ 0xF00D),
        leaf_capacity: 4,
    })
    .unwrap_or_else(|d| panic!("tiny-leaf soak diverged: {d}"));
    assert!(report.final_len > 0);
}
