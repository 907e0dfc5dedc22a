//! Crash-recovery differential suite: fuzzed crash points over durable
//! workloads, asserting exact prefix consistency at every recovery (see
//! `quit_testkit::replay_crash`).
//!
//! The headline soak covers the acceptance bar for the durability
//! subsystem: ≥ 50 random crash points over a ≥ 50k-op mixed workload,
//! each recovered image compared for exact equality against the model
//! replayed to the recovered LSN. Scale it up locally with
//! `QUIT_FUZZ_CASES`.

use proptest::prelude::*;
use quit_testkit::{
    fuzz_cases, replay_crash, replay_crash_concurrent, replay_crash_ops, replay_crash_paged,
    replay_crash_paged_ops, ConcCrashSpec, CrashSpec, OpMix, PagedCrashSpec, WorkloadSpec,
    WorkloadStrategy,
};

/// ≥ 50 crash points over a ≥ 50k-op mixed workload at a fixed seed:
/// every recovered image must exactly equal the model replayed to its
/// recovered LSN, and every recovery must reach the last durable group.
#[test]
fn fixed_seed_crash_soak() {
    let cases = fuzz_cases(1);
    for case in 0..cases {
        let workload = WorkloadSpec {
            ops: 50_000,
            seed: 0xC4A5_40DE ^ (case as u64) << 8,
            mix: OpMix::mixed(),
            ..WorkloadSpec::default()
        };
        let spec = CrashSpec {
            cuts: 50,
            leaf_capacity: 32,
            commit_every: 96,
            checkpoint_at: None,
            seed: 0x50AC ^ case as u64,
        };
        let report = replay_crash(&workload, &spec).unwrap_or_else(|d| panic!("case {case}: {d}"));
        assert!(
            report.records >= 50_000,
            "mixed 50k-op workload logs ≥ 50k records"
        );
        assert_eq!(report.cuts_tested, 52);
        assert!(report.torn_cuts > 0, "random byte cuts must tear frames");
        assert_eq!(report.max_recovered, report.records as u64);
        eprintln!(
            "crash soak case {case}: {} records, {} cuts ({} torn), floor {}, recovered {}..={}",
            report.records,
            report.cuts_tested,
            report.torn_cuts,
            report.floor_lsn,
            report.min_recovered,
            report.max_recovered
        );
    }
}

/// Crash points over a checkpointed run: recovery goes through
/// `bulk_load(snapshot) + replay(tail)` and must be just as exact.
#[test]
fn crash_soak_across_a_checkpoint() {
    let workload = WorkloadSpec {
        ops: 6_000,
        seed: 0xC4A5_CCCC,
        ..WorkloadSpec::default()
    };
    let spec = CrashSpec {
        cuts: 24,
        leaf_capacity: 8,
        commit_every: 64,
        checkpoint_at: Some(3_000),
        seed: 0x50AD,
    };
    let report = replay_crash(&workload, &spec).unwrap_or_else(|d| panic!("{d}"));
    assert_eq!(report.max_recovered, report.records as u64);
}

/// The page-file variant: a durable **paged** tree (8-page pool, so the
/// working set never fits) checkpoints its page file mid-run, then the
/// combined page-file + WAL byte stream is cut at ≥ 50 offsets. Every
/// recovered image must lazily fault to *exactly* the model replayed to
/// its recovered LSN, and every torn-page trial (a byte flipped inside
/// the published snapshot) must reject the snapshot — never silently
/// apply the flipped page — yet still recover the full committed prefix
/// through the fallback chain.
#[test]
fn fixed_seed_paged_crash_soak() {
    let cases = fuzz_cases(1);
    for case in 0..cases {
        let workload = WorkloadSpec {
            ops: 6_000,
            seed: 0x9A6E_40DE ^ (case as u64) << 8,
            mix: OpMix::mixed(),
            ..WorkloadSpec::default()
        };
        let spec = PagedCrashSpec {
            cuts: 50,
            leaf_capacity: 8,
            pool_pages: 8,
            commit_every: 96,
            checkpoint_at: Some(3_000),
            torn_pages: 12,
            seed: 0x50AE ^ case as u64,
        };
        let report =
            replay_crash_paged(&workload, &spec).unwrap_or_else(|d| panic!("case {case}: {d}"));
        assert_eq!(report.cuts_tested, 52);
        assert!(report.torn_cuts > 0, "random byte cuts must tear frames");
        assert_eq!(report.max_recovered, report.records as u64);
        assert_eq!(
            report.torn_pages_tested, 12,
            "every torn-page trial must plant a flip and verify rejection"
        );
        eprintln!(
            "paged crash soak case {case}: {} records, {} cuts ({} torn, {} rejected a snapshot), \
             {} torn pages, recovered {}..={}",
            report.records,
            report.cuts_tested,
            report.torn_cuts,
            report.rejected_recoveries,
            report.torn_pages_tested,
            report.min_recovered,
            report.max_recovered
        );
    }
}

/// N writers through group commit, a live mid-run crash, per-writer
/// contiguous-prefix recovery at fuzzed cuts (fixed seed, CI soak).
#[test]
fn concurrent_group_commit_crash_soak() {
    let spec = ConcCrashSpec {
        writers: 4,
        ops_per_writer: 500,
        leaf_capacity: 16,
        cuts: 16,
        seed: 0xC4A5_C0C0,
    };
    let report = replay_crash_concurrent(&spec).unwrap_or_else(|d| panic!("{d}"));
    assert_eq!(report.writer_ops, 2_000);
    assert!(
        report.captured_floor >= 1_000,
        "capture waits for half the volume"
    );
    assert_eq!(report.cuts_tested, 18);
    eprintln!(
        "concurrent crash soak: floor {} of {}, {} cuts, final len {}",
        report.captured_floor, report.writer_ops, report.cuts_tested, report.final_len
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Freshly sampled workloads survive crash fuzzing at every cut. On
    /// failure this shrinks to a minimal op list and persists the seed
    /// next to this file.
    #[test]
    fn sampled_workloads_crash_consistently(ops in WorkloadStrategy::mixed(250)) {
        let spec = CrashSpec { cuts: 6, ..CrashSpec::default() };
        replay_crash_ops(&ops, &spec).unwrap_or_else(|d| panic!("{d}"));
    }

    /// Same, on the paged backend: freshly sampled workloads survive
    /// page-file + WAL crash fuzzing and torn-page injection at every cut.
    #[test]
    fn sampled_workloads_crash_consistently_paged(ops in WorkloadStrategy::ingest_heavy(160)) {
        let spec = PagedCrashSpec { cuts: 4, torn_pages: 2, ..PagedCrashSpec::default() };
        replay_crash_paged_ops(&ops, &spec).unwrap_or_else(|d| panic!("{d}"));
    }
}
