//! Snapshot-isolation history checking for `TxnStore`.
//!
//! The drivers here record every transaction's lifecycle against a real
//! [`TxnStore`] as a flat [`TxnEvent`] history — begin (with the engine's
//! snapshot timestamp), each read with the value it observed, each
//! buffered write, and the outcome (commit with the engine's commit
//! timestamp, or abort). [`check_history`] then re-derives the committed
//! multi-version state *from the history alone* and verifies the
//! snapshot-isolation axioms:
//!
//! * **snapshot reads** — every read observes exactly the newest
//!   committed version at or below its transaction's snapshot timestamp
//!   (overlaid with the transaction's own earlier writes). Because the
//!   expected value is reconstructed purely from *committed*
//!   transactions, this axiom also catches dirty reads and any
//!   half-visible (non-atomic) commit;
//! * **first-committer-wins** — no two committed transactions that wrote
//!   a common key overlapped: on every key, each committed version's
//!   writer must have had the previous version inside its snapshot.
//!   A violation here is precisely a lost update;
//! * **unique, monotonic commit timestamps** — writer commits carry
//!   globally unique timestamps strictly above their snapshots.
//!
//! Two drivers produce histories: [`replay_txn_history`] runs a
//! deterministic single-threaded interleaving of up to [`MAX_SLOTS`]
//! open transactions (proptest-shrinkable via [`TxnWorkloadStrategy`] —
//! this is the driver the `Mutation::SkipConflictCheck` smoke leans
//! on), and [`replay_txn_concurrent`] runs a true multi-writer soak over
//! one contended key space, merging per-thread event logs and checking
//! them against the engine-assigned timestamps. Both finish by comparing
//! the store's final visible state against the history's committed state
//! and re-running the tree's structural consistency check.

use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use quit_core::{Error, TreeConfig};
use quit_durability::{DurabilityConfig, MemStorage, Storage, Txn, TxnConfig, TxnStats, TxnStore};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Deterministic stream for workload generation and the concurrent
/// driver's per-thread op choices (splitmix64, as in the crash module).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One recorded fact about a transaction's execution. `txn` is the
/// engine-assigned transaction id; timestamps are the engine's own, so
/// the checker verifies the engine against its published ordering rather
/// than against a parallel clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnEvent {
    /// The transaction began and was handed `snapshot_ts`.
    Begin {
        /// Engine transaction id.
        txn: u64,
        /// The snapshot timestamp all its reads resolve against.
        snapshot_ts: u64,
    },
    /// A read observed `value` (`None` = key absent or deleted).
    Read {
        /// Engine transaction id.
        txn: u64,
        /// Key read.
        key: u64,
        /// Value the engine returned.
        value: Option<u64>,
    },
    /// A write intent was buffered (`None` = delete).
    Write {
        /// Engine transaction id.
        txn: u64,
        /// Key written.
        key: u64,
        /// New value, or `None` for a delete.
        value: Option<u64>,
    },
    /// The transaction committed at `commit_ts` (for a read-only
    /// transaction this is its snapshot timestamp).
    Commit {
        /// Engine transaction id.
        txn: u64,
        /// Engine-assigned commit timestamp.
        commit_ts: u64,
    },
    /// The transaction aborted — explicitly, by drop, or as a
    /// first-committer-wins conflict loser.
    Abort {
        /// Engine transaction id.
        txn: u64,
    },
}

/// A snapshot-isolation axiom violation: which axiom, the transaction at
/// fault, and a human-readable reconstruction of the contradiction.
#[derive(Clone, Debug)]
pub struct SiViolation {
    /// Axiom that failed (`"snapshot-read"`, `"first-committer-wins"`,
    /// `"unique-commit-ts"`, `"monotonic-commit"`, `"final-state"`,
    /// `"tree-consistency"`, `"well-formed"`, or `"io"`).
    pub axiom: &'static str,
    /// Transaction id the violation is attributed to (0 when none).
    pub txn: u64,
    /// What the history says versus what was observed.
    pub detail: String,
}

impl fmt::Display for SiViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SI violation [{}] txn {}: {}",
            self.axiom, self.txn, self.detail
        )
    }
}

/// Totals from a verified (violation-free) history.
#[derive(Clone, Copy, Debug, Default)]
pub struct SiSummary {
    /// Transactions in the history.
    pub txns: usize,
    /// Committed transactions (read-only commits included).
    pub committed: usize,
    /// Committed transactions that wrote at least one key.
    pub committed_writers: usize,
    /// Aborted (or never-closed, which the checker treats as aborted)
    /// transactions.
    pub aborted: usize,
    /// Reads individually verified against the reconstructed state.
    pub reads_checked: usize,
    /// Committed versions across all keys.
    pub versions: usize,
}

/// Per-transaction record assembled from the flat event stream.
struct TxnRec {
    snapshot_ts: u64,
    /// `(is_read, key, value)` in program order.
    ops: Vec<(bool, u64, Option<u64>)>,
    commit_ts: Option<u64>,
    closed: bool,
}

fn assemble(events: &[TxnEvent]) -> Result<BTreeMap<u64, TxnRec>, SiViolation> {
    let malformed = |txn: u64, detail: String| SiViolation {
        axiom: "well-formed",
        txn,
        detail,
    };
    let mut txns: BTreeMap<u64, TxnRec> = BTreeMap::new();
    for ev in events {
        match *ev {
            TxnEvent::Begin { txn, snapshot_ts } => {
                let rec = TxnRec {
                    snapshot_ts,
                    ops: Vec::new(),
                    commit_ts: None,
                    closed: false,
                };
                if txns.insert(txn, rec).is_some() {
                    return Err(malformed(txn, "transaction id began twice".into()));
                }
            }
            TxnEvent::Read { txn, key, value } | TxnEvent::Write { txn, key, value } => {
                let is_read = matches!(ev, TxnEvent::Read { .. });
                let rec = txns
                    .get_mut(&txn)
                    .ok_or_else(|| malformed(txn, "op before begin".into()))?;
                if rec.closed {
                    return Err(malformed(txn, "op after commit/abort".into()));
                }
                rec.ops.push((is_read, key, value));
            }
            TxnEvent::Commit { txn, commit_ts } => {
                let rec = txns
                    .get_mut(&txn)
                    .ok_or_else(|| malformed(txn, "commit before begin".into()))?;
                if rec.closed {
                    return Err(malformed(txn, "closed twice".into()));
                }
                rec.closed = true;
                rec.commit_ts = Some(commit_ts);
            }
            TxnEvent::Abort { txn } => {
                let rec = txns
                    .get_mut(&txn)
                    .ok_or_else(|| malformed(txn, "abort before begin".into()))?;
                if rec.closed {
                    return Err(malformed(txn, "closed twice".into()));
                }
                rec.closed = true;
            }
        }
    }
    Ok(txns)
}

/// Verifies the snapshot-isolation axioms over a recorded history. See
/// the module docs for the axioms; returns the first violation found.
pub fn check_history(events: &[TxnEvent]) -> Result<SiSummary, SiViolation> {
    let txns = assemble(events)?;

    // Committed write sets -> per-key version lists, with commit-ts
    // uniqueness and snapshot-monotonicity along the way. Read-only
    // commits reuse their snapshot timestamp by design and create no
    // version, so they are excluded from both checks.
    let mut versions: BTreeMap<u64, Vec<(u64, u64, Option<u64>)>> = BTreeMap::new();
    let mut seen_ts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut summary = SiSummary {
        txns: txns.len(),
        ..SiSummary::default()
    };
    for (&tid, rec) in &txns {
        let Some(cts) = rec.commit_ts else {
            summary.aborted += 1;
            continue;
        };
        summary.committed += 1;
        let mut wset: BTreeMap<u64, Option<u64>> = BTreeMap::new();
        for &(is_read, key, value) in &rec.ops {
            if !is_read {
                wset.insert(key, value);
            }
        }
        if wset.is_empty() {
            continue;
        }
        summary.committed_writers += 1;
        if cts <= rec.snapshot_ts {
            return Err(SiViolation {
                axiom: "monotonic-commit",
                txn: tid,
                detail: format!("commit ts {cts} not above snapshot {}", rec.snapshot_ts),
            });
        }
        if let Some(&other) = seen_ts.get(&cts) {
            return Err(SiViolation {
                axiom: "unique-commit-ts",
                txn: tid,
                detail: format!("commit ts {cts} already used by txn {other}"),
            });
        }
        seen_ts.insert(cts, tid);
        for (key, value) in wset {
            versions.entry(key).or_default().push((cts, tid, value));
        }
    }
    for list in versions.values_mut() {
        list.sort_unstable_by_key(|&(ts, _, _)| ts);
        summary.versions += list.len();
    }

    // First-committer-wins: along each key's version list, every writer
    // must have begun at or after the previous version committed —
    // overlapping committed writers on a shared key are a lost update.
    // (Consecutive pairs suffice: snapshots at or above the previous
    // commit are transitively above all earlier ones.)
    for (&key, list) in &versions {
        for w in list.windows(2) {
            let (c_prev, t_prev, _) = w[0];
            let (c_next, t_next, _) = w[1];
            let snap_next = txns[&t_next].snapshot_ts;
            if snap_next < c_prev {
                return Err(SiViolation {
                    axiom: "first-committer-wins",
                    txn: t_next,
                    detail: format!(
                        "lost update on key {key}: txn {t_next} (snapshot {snap_next}, \
                         commit {c_next}) overlapped txn {t_prev} (commit {c_prev}) \
                         yet both committed"
                    ),
                });
            }
        }
    }

    // Snapshot reads: replay each transaction's ops in program order
    // with a read-your-writes overlay; every read must equal the newest
    // committed version at or below the snapshot.
    for (&tid, rec) in &txns {
        let mut overlay: BTreeMap<u64, Option<u64>> = BTreeMap::new();
        for &(is_read, key, value) in &rec.ops {
            if !is_read {
                overlay.insert(key, value);
                continue;
            }
            let expect = match overlay.get(&key) {
                Some(&intent) => intent,
                None => versions.get(&key).and_then(|list| {
                    list.iter()
                        .rev()
                        .find(|&&(ts, _, _)| ts <= rec.snapshot_ts)
                        .and_then(|&(_, _, v)| v)
                }),
            };
            if value != expect {
                return Err(SiViolation {
                    axiom: "snapshot-read",
                    txn: tid,
                    detail: format!(
                        "read of key {key} at snapshot {} observed {value:?}; \
                         the committed history says {expect:?}",
                        rec.snapshot_ts
                    ),
                });
            }
            summary.reads_checked += 1;
        }
    }
    Ok(summary)
}

/// The final committed state a history implies: every committed write
/// set applied in commit-timestamp order. Drivers compare this against
/// the store's final visible scan.
pub fn committed_state(events: &[TxnEvent]) -> BTreeMap<u64, u64> {
    let Ok(txns) = assemble(events) else {
        return BTreeMap::new();
    };
    let mut writes: Vec<(u64, u64, Option<u64>)> = Vec::new();
    for rec in txns.values() {
        let Some(cts) = rec.commit_ts else { continue };
        let mut wset: BTreeMap<u64, Option<u64>> = BTreeMap::new();
        for &(is_read, key, value) in &rec.ops {
            if !is_read {
                wset.insert(key, value);
            }
        }
        for (key, value) in wset {
            writes.push((cts, key, value));
        }
    }
    writes.sort_unstable_by_key(|&(ts, key, _)| (ts, key));
    let mut state = BTreeMap::new();
    for (_, key, value) in writes {
        match value {
            Some(v) => {
                state.insert(key, v);
            }
            None => {
                state.remove(&key);
            }
        }
    }
    state
}

/// Open-transaction slots the single-threaded driver multiplexes over.
pub const MAX_SLOTS: usize = 8;

/// One step of the deterministic interleaved-transaction driver. The
/// slot selects which of the [`MAX_SLOTS`] open transactions the step
/// applies to; reads/writes on an empty slot implicitly begin one, so
/// shrunk sequences stay meaningful without their `Begin` steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnOp {
    /// Open a fresh transaction in the slot (aborting any occupant).
    Begin(u8),
    /// Read a key in the slot's transaction.
    Read(u8, u64),
    /// Buffer a write in the slot's transaction.
    Write(u8, u64, u64),
    /// Buffer a delete in the slot's transaction.
    Delete(u8, u64),
    /// Commit the slot's transaction (no-op on an empty slot).
    Commit(u8),
    /// Abort the slot's transaction (no-op on an empty slot).
    Abort(u8),
}

impl TxnOp {
    /// Which transaction slot the step applies to.
    pub fn slot(&self) -> u8 {
        match *self {
            TxnOp::Begin(s) | TxnOp::Commit(s) | TxnOp::Abort(s) => s,
            TxnOp::Read(s, _) | TxnOp::Delete(s, _) => s,
            TxnOp::Write(s, _, _) => s,
        }
    }
}

/// Deterministic recipe for an interleaved-transaction workload.
#[derive(Clone, Copy, Debug)]
pub struct TxnWorkloadSpec {
    /// Steps to generate.
    pub ops: usize,
    /// Transaction slots in play (clamped to [`MAX_SLOTS`]).
    pub slots: u8,
    /// Key-space size — small spaces force write-write conflicts.
    pub keys: u64,
    /// Seed for step choices.
    pub seed: u64,
}

impl Default for TxnWorkloadSpec {
    fn default() -> Self {
        TxnWorkloadSpec {
            ops: 1000,
            slots: 4,
            keys: 24,
            seed: 0,
        }
    }
}

impl TxnWorkloadSpec {
    /// Generates the step sequence. Deterministic in the spec; values
    /// tag arrival order so lost updates are visible as exact values.
    pub fn generate(&self) -> Vec<TxnOp> {
        let mut rng = self.seed ^ 0x51C4_EC4E_D00D_F00D;
        let slots = u64::from(self.slots.clamp(1, MAX_SLOTS as u8));
        let keys = self.keys.max(1);
        let mut next_value = 0u64;
        (0..self.ops)
            .map(|_| {
                let r = splitmix(&mut rng);
                let slot = (r % slots) as u8;
                let key = (r >> 8) % keys;
                match (r >> 56) % 100 {
                    0..=7 => TxnOp::Begin(slot),
                    8..=27 => TxnOp::Read(slot, key),
                    28..=67 => {
                        next_value += 1;
                        TxnOp::Write(slot, key, next_value)
                    }
                    68..=77 => TxnOp::Delete(slot, key),
                    78..=94 => TxnOp::Commit(slot),
                    _ => TxnOp::Abort(slot),
                }
            })
            .collect()
    }
}

/// A proptest [`Strategy`] over interleaved-transaction workloads with
/// the same delta-debugging shrinker shape as `WorkloadStrategy`:
/// aligned chunk removal, then per-step key/value minimization.
#[derive(Clone, Debug)]
pub struct TxnWorkloadStrategy {
    /// Minimum generated sequence length.
    pub min_ops: usize,
    /// Maximum generated sequence length.
    pub max_ops: usize,
    /// Upper bound for the sampled key-space size.
    pub max_keys: u64,
    /// Upper bound for the sampled slot count.
    pub slots: u8,
}

impl TxnWorkloadStrategy {
    /// Heavily contended workloads: few keys, several interleaved
    /// transactions — the regime where first-committer-wins does
    /// constant work (and where disabling it is caught immediately).
    pub fn contended(max_ops: usize) -> Self {
        TxnWorkloadStrategy {
            min_ops: 4,
            max_ops,
            max_keys: 16,
            slots: 4,
        }
    }
}

impl Strategy for TxnWorkloadStrategy {
    type Value = Vec<TxnOp>;

    fn sample(&self, rng: &mut TestRng) -> Vec<TxnOp> {
        let span = (self.max_ops.saturating_sub(self.min_ops)).max(1) as u64;
        TxnWorkloadSpec {
            ops: self.min_ops + rng.below(span) as usize,
            slots: (2 + rng.below(u64::from(self.slots.max(2)) - 1)) as u8,
            keys: 1 + rng.below(self.max_keys.max(1)),
            seed: rng.next_u64(),
        }
        .generate()
    }

    fn shrink(&self, value: &Vec<TxnOp>) -> Vec<Vec<TxnOp>> {
        let n = value.len();
        let mut out: Vec<Vec<TxnOp>> = Vec::new();
        let mut chunk = n / 2;
        while chunk >= 1 {
            let mut start = 0;
            while start < n {
                let end = (start + chunk).min(n);
                if end > start {
                    let mut cand = Vec::with_capacity(n - (end - start));
                    cand.extend_from_slice(&value[..start]);
                    cand.extend_from_slice(&value[end..]);
                    out.push(cand);
                }
                start += chunk;
            }
            chunk /= 2;
        }
        for (i, op) in value.iter().enumerate() {
            for cand in shrink_txn_op(op) {
                let mut next = value.clone();
                next[i] = cand;
                out.push(next);
            }
        }
        out
    }
}

/// One round of strictly simpler variants of a single step.
fn shrink_txn_op(op: &TxnOp) -> Vec<TxnOp> {
    match *op {
        TxnOp::Write(s, k, v) => {
            let mut out = Vec::new();
            if k > 0 {
                out.push(TxnOp::Write(s, k / 2, v));
                out.push(TxnOp::Write(s, k - 1, v));
            }
            if v > 1 {
                out.push(TxnOp::Write(s, k, 1));
            }
            out
        }
        TxnOp::Read(s, k) if k > 0 => vec![TxnOp::Read(s, k / 2), TxnOp::Read(s, k - 1)],
        TxnOp::Delete(s, k) if k > 0 => vec![TxnOp::Delete(s, k / 2), TxnOp::Delete(s, k - 1)],
        _ => Vec::new(),
    }
}

/// Everything a driver learned from one verified run.
#[derive(Clone, Copy, Debug)]
pub struct SiReport {
    /// Events recorded (the history length).
    pub events: usize,
    /// Axiom-check totals.
    pub summary: SiSummary,
    /// The engine's own transaction counters for the run.
    pub stats: TxnStats,
}

fn io_violation(stage: &'static str, e: impl fmt::Display) -> SiViolation {
    SiViolation {
        axiom: "io",
        txn: 0,
        detail: format!("{stage}: {e}"),
    }
}

/// Gets (beginning if needed) the slot's transaction, recording events.
fn ensure_open<'a, 'b>(
    store: &'a TxnStore<u64, u64>,
    slot: &'b mut Option<Txn<'a, u64, u64>>,
    events: &mut Vec<TxnEvent>,
) -> &'b mut Txn<'a, u64, u64> {
    if slot.is_none() {
        let txn = store.begin();
        events.push(TxnEvent::Begin {
            txn: txn.tid(),
            snapshot_ts: txn.snapshot_ts(),
        });
        *slot = Some(txn);
    }
    slot.as_mut().expect("just filled")
}

/// Shared tail of both drivers: structural consistency, final-state
/// equivalence, then the axiom check over the recorded history.
fn verify_run(store: &TxnStore<u64, u64>, events: &[TxnEvent]) -> Result<SiReport, SiViolation> {
    store.mvcc().check_consistency().map_err(|e| SiViolation {
        axiom: "tree-consistency",
        txn: 0,
        detail: e,
    })?;
    let got = store.scan(..);
    let want: Vec<(u64, u64)> = committed_state(events).into_iter().collect();
    if got != want {
        let at = got
            .iter()
            .zip(&want)
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(want.len()));
        return Err(SiViolation {
            axiom: "final-state",
            txn: 0,
            detail: format!(
                "final visible state diverges from the committed history: \
                 {} vs {} keys, first mismatch at #{at} (engine {:?} vs history {:?})",
                got.len(),
                want.len(),
                got.get(at),
                want.get(at),
            ),
        });
    }
    let summary = check_history(events)?;
    Ok(SiReport {
        events: events.len(),
        summary,
        stats: store.txn_stats(),
    })
}

/// Runs a deterministic interleaved-transaction workload against a
/// fresh in-memory [`TxnStore`], records
/// the full history, and verifies the snapshot-isolation axioms plus
/// final-state equivalence. Returns the first violation — directly
/// shrinkable by proptest over [`TxnWorkloadStrategy`].
pub fn replay_txn_history(ops: &[TxnOp]) -> Result<SiReport, SiViolation> {
    let storage = Arc::new(MemStorage::new()) as Arc<dyn Storage>;
    let config = TxnConfig::default()
        .with_tree(TreeConfig::small(8))
        .with_durability(DurabilityConfig::buffered())
        .with_gc_every(16);
    let (store, _) = TxnStore::open(storage, config).map_err(|e| io_violation("open", e))?;
    let mut events: Vec<TxnEvent> = Vec::new();
    {
        let mut slots: Vec<Option<Txn<'_, u64, u64>>> = (0..MAX_SLOTS).map(|_| None).collect();
        for op in ops {
            let s = usize::from(op.slot()) % MAX_SLOTS;
            match *op {
                TxnOp::Begin(_) => {
                    if let Some(old) = slots[s].take() {
                        events.push(TxnEvent::Abort { txn: old.tid() });
                        old.abort();
                    }
                    ensure_open(&store, &mut slots[s], &mut events);
                }
                TxnOp::Read(_, key) => {
                    let txn = ensure_open(&store, &mut slots[s], &mut events);
                    let value = txn.get(key);
                    events.push(TxnEvent::Read {
                        txn: txn.tid(),
                        key,
                        value,
                    });
                }
                TxnOp::Write(_, key, value) => {
                    let txn = ensure_open(&store, &mut slots[s], &mut events);
                    txn.insert(key, value);
                    events.push(TxnEvent::Write {
                        txn: txn.tid(),
                        key,
                        value: Some(value),
                    });
                }
                TxnOp::Delete(_, key) => {
                    let txn = ensure_open(&store, &mut slots[s], &mut events);
                    txn.delete(key);
                    events.push(TxnEvent::Write {
                        txn: txn.tid(),
                        key,
                        value: None,
                    });
                }
                TxnOp::Commit(_) => {
                    if let Some(txn) = slots[s].take() {
                        let tid = txn.tid();
                        match txn.commit() {
                            Ok(commit_ts) => {
                                events.push(TxnEvent::Commit {
                                    txn: tid,
                                    commit_ts,
                                });
                            }
                            Err(Error::Conflict(_)) => events.push(TxnEvent::Abort { txn: tid }),
                            Err(e) => return Err(io_violation("commit", e)),
                        }
                    }
                }
                TxnOp::Abort(_) => {
                    if let Some(txn) = slots[s].take() {
                        events.push(TxnEvent::Abort { txn: txn.tid() });
                        txn.abort();
                    }
                }
            }
        }
        for slot in &mut slots {
            if let Some(txn) = slot.take() {
                events.push(TxnEvent::Abort { txn: txn.tid() });
            }
        }
    }
    verify_run(&store, &events)
}

/// Knobs for the multi-writer SI soak: N threads race transactions over
/// one shared key space while the version GC runs on its commit cadence,
/// and the merged history must satisfy every axiom.
#[derive(Clone, Copy, Debug)]
pub struct SiSoakSpec {
    /// Writer threads.
    pub threads: usize,
    /// Transactions per thread.
    pub txns_per_thread: usize,
    /// Maximum reads+writes per transaction (≥ 1 drawn uniformly).
    pub max_ops_per_txn: usize,
    /// Shared key-space size (small = constant conflicts).
    pub keys: u64,
    /// Percentage of decided transactions that abort instead of
    /// committing.
    pub abort_percent: u64,
    /// Barrier-aligned contention rounds per thread: all threads begin,
    /// write the same hot key, re-align, then race to commit — every
    /// round deterministically produces `threads - 1` first-committer
    /// conflicts regardless of scheduling (`0` disables).
    pub conflict_rounds: usize,
    /// Leaf capacity for the version tree.
    pub leaf_capacity: usize,
    /// Version-GC cadence while the soak runs (0 disables).
    pub gc_every: u64,
    /// Seed for every thread's op stream.
    pub seed: u64,
}

impl Default for SiSoakSpec {
    fn default() -> Self {
        SiSoakSpec {
            threads: 4,
            txns_per_thread: 500,
            max_ops_per_txn: 6,
            keys: 128,
            abort_percent: 10,
            conflict_rounds: 8,
            leaf_capacity: 32,
            gc_every: 64,
            seed: 0x51_C4A5,
        }
    }
}

/// Runs the multi-writer soak: each thread loops begin → mixed
/// reads/writes/deletes over the shared key space → commit (or abort),
/// recording its own event log; conflict losers record aborts. The
/// merged history is then checked against the SI axioms using only the
/// engine's timestamps (no cross-thread ordering is assumed), plus the
/// final-state and structural checks.
pub fn replay_txn_concurrent(spec: &SiSoakSpec) -> Result<SiReport, SiViolation> {
    let storage = Arc::new(MemStorage::new()) as Arc<dyn Storage>;
    let config = TxnConfig::default()
        .with_tree(TreeConfig::small(spec.leaf_capacity.max(4)))
        .with_durability(DurabilityConfig::group_commit())
        .with_gc_every(spec.gc_every);
    let (store, _) = TxnStore::open(storage, config).map_err(|e| io_violation("open", e))?;

    // Guaranteed-overlap cadence: on round steps every thread begins,
    // writes key 0, then re-aligns before anyone commits — all commits
    // land after every snapshot, so first-committer-wins must reject
    // exactly `threads - 1` of them, whatever the scheduler does.
    let round_every = if spec.conflict_rounds > 0 && spec.threads > 1 {
        (spec.txns_per_thread / spec.conflict_rounds).max(1)
    } else {
        0
    };
    let barrier = std::sync::Barrier::new(spec.threads);

    let logs: Vec<Result<Vec<TxnEvent>, SiViolation>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.threads)
            .map(|w| {
                let store = &store;
                let barrier = &barrier;
                let spec = *spec;
                scope.spawn(move || -> Result<Vec<TxnEvent>, SiViolation> {
                    let mut rng = spec.seed ^ (w as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut events: Vec<TxnEvent> = Vec::new();
                    let mut vseq = 0u64;
                    for t in 0..spec.txns_per_thread {
                        if round_every > 0 && t.is_multiple_of(round_every) {
                            barrier.wait();
                            let mut txn = store.begin();
                            let tid = txn.tid();
                            events.push(TxnEvent::Begin {
                                txn: tid,
                                snapshot_ts: txn.snapshot_ts(),
                            });
                            vseq += 1;
                            let value = ((w as u64) << 40) | vseq;
                            txn.insert(0, value);
                            events.push(TxnEvent::Write {
                                txn: tid,
                                key: 0,
                                value: Some(value),
                            });
                            barrier.wait();
                            match txn.commit() {
                                Ok(commit_ts) => events.push(TxnEvent::Commit {
                                    txn: tid,
                                    commit_ts,
                                }),
                                Err(Error::Conflict(_)) => {
                                    events.push(TxnEvent::Abort { txn: tid });
                                }
                                Err(e) => return Err(io_violation("round commit", e)),
                            }
                            continue;
                        }
                        let mut txn = store.begin();
                        let tid = txn.tid();
                        events.push(TxnEvent::Begin {
                            txn: tid,
                            snapshot_ts: txn.snapshot_ts(),
                        });
                        let n = 1 + splitmix(&mut rng) % spec.max_ops_per_txn.max(1) as u64;
                        for _ in 0..n {
                            let r = splitmix(&mut rng);
                            let key = r % spec.keys.max(1);
                            match (r >> 32) % 100 {
                                0..=49 => {
                                    vseq += 1;
                                    let value = ((w as u64) << 40) | vseq;
                                    txn.insert(key, value);
                                    events.push(TxnEvent::Write {
                                        txn: tid,
                                        key,
                                        value: Some(value),
                                    });
                                }
                                50..=64 => {
                                    txn.delete(key);
                                    events.push(TxnEvent::Write {
                                        txn: tid,
                                        key,
                                        value: None,
                                    });
                                }
                                _ => {
                                    let value = txn.get(key);
                                    events.push(TxnEvent::Read {
                                        txn: tid,
                                        key,
                                        value,
                                    });
                                }
                            }
                        }
                        if splitmix(&mut rng) % 100 < spec.abort_percent {
                            events.push(TxnEvent::Abort { txn: tid });
                            txn.abort();
                        } else {
                            match txn.commit() {
                                Ok(commit_ts) => events.push(TxnEvent::Commit {
                                    txn: tid,
                                    commit_ts,
                                }),
                                Err(Error::Conflict(_)) => {
                                    events.push(TxnEvent::Abort { txn: tid });
                                }
                                Err(e) => return Err(io_violation("commit", e)),
                            }
                        }
                    }
                    Ok(events)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("soak writer panicked"))
            .collect()
    });

    let mut events: Vec<TxnEvent> = Vec::new();
    for log in logs {
        events.extend(log?);
    }
    verify_run(&store, &events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_legal_history_passes() {
        let events = vec![
            TxnEvent::Begin {
                txn: 1,
                snapshot_ts: 0,
            },
            TxnEvent::Write {
                txn: 1,
                key: 7,
                value: Some(70),
            },
            TxnEvent::Commit {
                txn: 1,
                commit_ts: 1,
            },
            TxnEvent::Begin {
                txn: 2,
                snapshot_ts: 1,
            },
            TxnEvent::Read {
                txn: 2,
                key: 7,
                value: Some(70),
            },
            TxnEvent::Write {
                txn: 2,
                key: 7,
                value: None,
            },
            TxnEvent::Read {
                txn: 2,
                key: 7,
                value: None,
            },
            TxnEvent::Commit {
                txn: 2,
                commit_ts: 2,
            },
        ];
        let summary = check_history(&events).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(summary.committed_writers, 2);
        assert_eq!(summary.reads_checked, 2);
        assert!(committed_state(&events).is_empty());
    }

    #[test]
    fn the_checker_catches_a_lost_update() {
        // Two writers of key 5 overlap (both snapshots predate the other's
        // commit) yet both commit: the canonical SI lost update.
        let events = vec![
            TxnEvent::Begin {
                txn: 1,
                snapshot_ts: 0,
            },
            TxnEvent::Begin {
                txn: 2,
                snapshot_ts: 0,
            },
            TxnEvent::Write {
                txn: 1,
                key: 5,
                value: Some(1),
            },
            TxnEvent::Write {
                txn: 2,
                key: 5,
                value: Some(2),
            },
            TxnEvent::Commit {
                txn: 1,
                commit_ts: 1,
            },
            TxnEvent::Commit {
                txn: 2,
                commit_ts: 2,
            },
        ];
        let v = check_history(&events).expect_err("overlapping writers must fail");
        assert_eq!(v.axiom, "first-committer-wins", "{v}");
    }

    #[test]
    fn the_checker_catches_a_stale_read() {
        let events = vec![
            TxnEvent::Begin {
                txn: 1,
                snapshot_ts: 0,
            },
            TxnEvent::Write {
                txn: 1,
                key: 3,
                value: Some(30),
            },
            TxnEvent::Commit {
                txn: 1,
                commit_ts: 1,
            },
            TxnEvent::Begin {
                txn: 2,
                snapshot_ts: 1,
            },
            // Snapshot 1 covers commit 1; observing the pre-image is wrong.
            TxnEvent::Read {
                txn: 2,
                key: 3,
                value: None,
            },
            TxnEvent::Abort { txn: 2 },
        ];
        let v = check_history(&events).expect_err("stale read must fail");
        assert_eq!(v.axiom, "snapshot-read", "{v}");
    }

    #[test]
    fn the_checker_catches_duplicate_commit_timestamps() {
        let events = vec![
            TxnEvent::Begin {
                txn: 1,
                snapshot_ts: 0,
            },
            TxnEvent::Write {
                txn: 1,
                key: 1,
                value: Some(1),
            },
            TxnEvent::Commit {
                txn: 1,
                commit_ts: 3,
            },
            TxnEvent::Begin {
                txn: 2,
                snapshot_ts: 1,
            },
            TxnEvent::Write {
                txn: 2,
                key: 9,
                value: Some(2),
            },
            TxnEvent::Commit {
                txn: 2,
                commit_ts: 3,
            },
        ];
        let v = check_history(&events).expect_err("duplicate commit ts must fail");
        assert_eq!(v.axiom, "unique-commit-ts", "{v}");
    }

    #[test]
    fn fixed_workloads_replay_cleanly_in_both_descent_modes() {
        let ops = TxnWorkloadSpec {
            ops: 800,
            seed: 42,
            ..TxnWorkloadSpec::default()
        }
        .generate();
        assert_eq!(
            ops,
            TxnWorkloadSpec {
                ops: 800,
                seed: 42,
                ..TxnWorkloadSpec::default()
            }
            .generate(),
            "generation is deterministic"
        );
        let report = replay_txn_history(&ops).unwrap_or_else(|v| panic!("{v}"));
        assert!(report.summary.committed > 10);
        assert!(report.summary.reads_checked > 10);
    }

    #[test]
    fn a_tiny_concurrent_soak_passes() {
        let spec = SiSoakSpec {
            threads: 3,
            txns_per_thread: 120,
            keys: 32,
            ..SiSoakSpec::default()
        };
        let report = replay_txn_concurrent(&spec).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(report.summary.txns, 360);
        assert!(report.summary.committed > 100);
        // 8 barrier rounds × (3 - 1) losers, deterministically.
        assert!(report.stats.conflicts >= 16, "{:?}", report.stats);
    }

    #[test]
    fn shrink_candidates_never_grow() {
        let strategy = TxnWorkloadStrategy::contended(120);
        let ops = TxnWorkloadSpec {
            ops: 90,
            seed: 11,
            ..TxnWorkloadSpec::default()
        }
        .generate();
        for cand in strategy.shrink(&ops) {
            assert!(cand.len() <= ops.len(), "candidate grew");
            assert_ne!(cand, ops, "candidate identical to input");
        }
    }
}
