//! Differential fuzzing and shrinking testkit for the Quick Insertion
//! Tree workspace.
//!
//! One oracle harness for every index family: a structure-aware
//! [`WorkloadSpec`] generates op sequences (insert / batched insert / get /
//! delete / range / bulk load / metrics reset) with the paper's BoDS
//! sortedness knobs, and [`replay`] executes each sequence against a
//! `BTreeMap` model and against `BpTree`, `SaBpTree`, and `ConcurrentTree`
//! simultaneously, re-checking every family's structural invariants as it
//! goes. [`WorkloadStrategy`] plugs the generator into the vendored
//! `proptest` engine, whose delta-debugging shrinker and
//! `.proptest-regressions` persistence turn any divergence into a small,
//! replayable counterexample.
//!
//! For the concurrent tree the single-threaded oracle is not enough:
//! optimistic lock coupling only does interesting work when versions
//! actually conflict. [`replay_concurrent`] runs a true multi-threaded
//! differential — N writers over disjoint key partitions (each checked
//! op-by-op against a private model), M readers validating value tags and
//! scan ordering, structural re-checks after every join, and a final
//! merged-model comparison (see [`ConcSpec`]).
//!
//! Durability gets the same treatment: the crash-recovery differential
//! mode ([`replay_crash`], [`replay_crash_concurrent`],
//! [`replay_crash_contended`]) drives workloads
//! through `quit-durability`'s `Durable` wrapper on an in-memory storage
//! whose crash model is an arbitrary byte prefix of the append order, then
//! recovers at fuzzed crash points and asserts prefix consistency against
//! the model replayed to the recovered LSN (see [`CrashSpec`]).
//!
//! Transactions get a history checker ([`replay_txn_history`],
//! [`replay_txn_concurrent`]): drivers record every begin / read / write /
//! commit / abort against a real `TxnStore` as a flat [`TxnEvent`] log,
//! and [`check_history`] re-derives the committed multi-version state
//! from the log alone to verify the snapshot-isolation axioms — snapshot
//! reads, first-committer-wins (no lost updates), and unique monotonic
//! commit timestamps — plus final-state equivalence and the version
//! tree's structural invariants. [`TxnCrashSpec`] extends the crash
//! differential to commit frames: the WAL is cut mid-frame at fuzzed
//! byte offsets and recovery must equal some committed prefix — never a
//! partially applied transaction.
//!
//! Recovery also has an exact-equality oracle ([`replay_recovery_exact`]):
//! a durable tree reopened from its full log must equal the live one entry
//! for entry, duplicates' order included, on the streams
//! [`RecoveryStreamStrategy`] samples.
//!
//! The harness proves it can catch real bugs via six mutation smokes.
//! Each arms one planted bug through `quit_core::mutation::arm` on its own
//! test thread (this crate's dev-dependencies compile the switch in) and
//! asserts the matching oracle detects it, shrinks the trigger to a tiny op
//! sequence and round-trips the seed: a stale Fig 7a split bound
//! (`tests/mutation_smoke.rs`), an off-by-one in the branchless search
//! ladder (`tests/search_mutation_smoke.rs`), a pin released one boundary
//! early in the paged backend (`tests/pool_mutation_smoke.rs`), a wrong
//! Delete-frame CRC in the WAL (`tests/wal_mutation_smoke.rs`), a
//! skipped first-committer-wins check (`tests/txn_mutation_smoke.rs`) and
//! a recovery fold that reorders a key's ops
//! (`tests/fold_mutation_smoke.rs`).
//!
//! Longer soaks scale with the `QUIT_FUZZ_CASES` environment variable (see
//! [`fuzz_cases`]).

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod concurrent;
mod crash;
mod oracle;
mod si_checker;
mod workload;

pub use concurrent::{conc_base_seed, replay_concurrent, ConcReport, ConcSpec};
pub use crash::{
    replay_crash, replay_crash_concurrent, replay_crash_contended, replay_crash_ops,
    replay_crash_paged, replay_crash_paged_ops, replay_recovery_exact, replay_txn_crash,
    ConcCrashReport, ConcCrashSpec, ContendedSpec, CrashReport, CrashSpec, ExactRecoverySpec,
    PagedCrashReport, PagedCrashSpec, TxnCrashReport, TxnCrashSpec,
};
pub use oracle::{replay, replay_guarded, Divergence, OracleBackend, OracleConfig, ReplayReport};
pub use si_checker::{
    check_history, committed_state, replay_txn_concurrent, replay_txn_history, SiReport,
    SiSoakSpec, SiSummary, SiViolation, TxnEvent, TxnOp, TxnWorkloadSpec, TxnWorkloadStrategy,
    MAX_SLOTS,
};
pub use workload::{
    Op, OpMix, RecoveryStreamStrategy, WorkloadSpec, WorkloadStrategy, MAX_BATCH, MAX_BULK,
};

/// Number of fuzz cases to run: `QUIT_FUZZ_CASES` when set and parseable,
/// else `default_cases`. CI pins the default (~30 s budget); local soaks
/// export `QUIT_FUZZ_CASES=500` for an overnight run.
pub fn fuzz_cases(default_cases: usize) -> usize {
    std::env::var("QUIT_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default_cases)
}
