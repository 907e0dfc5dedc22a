//! Crash-recovery differential mode.
//!
//! The single-threaded driver ([`replay_crash_ops`]) runs a generated
//! workload through `Durable<BpTree>` on a [`MemStorage`] whose crash
//! model is an arbitrary byte prefix of the global append order (never
//! less than what fsync promised). It mirrors every logged mutation into a
//! shadow log, then "crashes" at a set of byte cuts, recovers each crash
//! image, and asserts **prefix consistency**: the recovered tree must
//! exactly equal the model replayed to the recovered LSN, the recovered
//! LSN must cover the last explicit durability point (fsync promises
//! survive any cut), and the full, un-torn image must recover *every*
//! logged record — the check that catches framing bugs like the planted
//! `Mutation::DeleteFrameCrc`.
//!
//! The concurrent driver ([`replay_crash_concurrent`]) puts N writers
//! through `Durable<ConcurrentTree>` group commit, captures a live crash
//! image mid-run (after recording each writer's acked floor), and asserts
//! per-writer prefix consistency: every recovered partition is a
//! contiguous prefix of that writer's insertion order, at least as long as
//! its acked floor, with exact value tags.
//!
//! The contended driver ([`replay_crash_contended`]) is the complement:
//! writers race inserts and deletes over one *shared* key set, and the
//! oracle is that replaying the complete WAL reconstructs exactly the
//! live tree — the direct check that the wrapper logs conflicting ops in
//! the order it applies them (partition-based checks can never see this).

use crate::oracle::{Divergence, Model};
use crate::si_checker::{TxnOp, MAX_SLOTS};
use crate::workload::Op;
use quit_core::{Error, FastPathMode, SortedIndex, StorageKind, TreeConfig};
use quit_durability::{
    bptree_builder, concurrent_builder, DurabilityConfig, Durable, MemStorage, Storage, TxnConfig,
    TxnStore,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Deterministic stream for crash-point and commit-point selection
/// (splitmix64; the workload itself has its own seeded generator).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The crash cuts over an image of `total` bytes whose first `durable` an
/// fsync covers: the empty and the full image, then `n` draws from `rng`,
/// every odd one biased past the durable floor. Only that suffix can tear
/// (rotation fsyncs every completed segment), and a uniform draw over
/// megabytes of fsynced history would almost never land there.
fn crash_cuts(total: usize, durable: usize, n: usize, rng: &mut u64) -> Vec<usize> {
    let mut cuts = vec![0, total];
    for i in 0..n {
        let (floor, span) = if i % 2 == 0 {
            (0, total)
        } else {
            (durable, total - durable)
        };
        cuts.push(floor + (splitmix(rng) % (span as u64 + 1)) as usize);
    }
    cuts
}

/// One logged mutation in the shadow log (the model-side mirror of the
/// WAL record stream, in LSN order).
#[derive(Clone, Copy)]
enum Logged {
    Insert(u64, u64),
    Delete(u64),
}

/// Knobs for one crash-recovery differential run.
#[derive(Clone, Debug)]
pub struct CrashSpec {
    /// Random crash points per run (cuts at 0 and at the full image are
    /// always tested in addition).
    pub cuts: usize,
    /// Leaf capacity of the durable tree (small forces splits).
    pub leaf_capacity: usize,
    /// An explicit `commit_all` durability point fires at roughly one in
    /// this many ops (0 disables them; the final-image check still runs).
    pub commit_every: usize,
    /// Checkpoint (sorted snapshot + WAL rotation) after this op index,
    /// exercising `bulk_load(snapshot) + replay(tail)` recovery.
    pub checkpoint_at: Option<usize>,
    /// Seed for crash-point/commit-point selection.
    pub seed: u64,
}

impl Default for CrashSpec {
    fn default() -> Self {
        CrashSpec {
            cuts: 16,
            leaf_capacity: 8,
            commit_every: 48,
            checkpoint_at: None,
            seed: 0xC4A5_4000,
        }
    }
}

/// Totals from a completed (divergence-free) crash fuzz.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrashReport {
    /// Workload ops driven through the durable tree.
    pub ops: usize,
    /// Mutation records written to the WAL (the shadow-log length).
    pub records: usize,
    /// Crash points recovered and verified (including 0 and full).
    pub cuts_tested: usize,
    /// Crash points whose image ended in a torn frame.
    pub torn_cuts: usize,
    /// LSN covered by the last explicit durability point.
    pub floor_lsn: u64,
    /// Smallest / largest LSN any crash point recovered to.
    pub min_recovered: u64,
    /// See [`min_recovered`](Self::min_recovered).
    pub max_recovered: u64,
}

fn io_div(stage: &'static str, e: quit_core::Error) -> Divergence {
    Divergence {
        family: "Durable<BpTree>",
        op_index: usize::MAX,
        detail: format!("{stage}: {} error: {e}", e.kind()),
    }
}

fn crash_config() -> DurabilityConfig {
    // Tiny buffer and segments: flushes and rotations every few records,
    // so crash points land in every structurally interesting place.
    DurabilityConfig::buffered()
        .with_wal_buffer_bytes(256)
        .with_segment_bytes(4 << 10)
        .with_snapshot_chunk(64)
}

/// Runs `ops` through `Durable<BpTree>`, then crash-fuzzes the resulting
/// storage image at `spec.cuts` random byte cuts (plus the empty and full
/// images). Returns the first prefix-consistency violation as a
/// [`Divergence`], which makes this directly shrinkable by proptest.
pub fn replay_crash_ops(ops: &[Op], spec: &CrashSpec) -> Result<CrashReport, Divergence> {
    let storage = Arc::new(MemStorage::new());
    let tree_config = TreeConfig::small(spec.leaf_capacity);
    let (mut durable, _) = Durable::open(
        storage.clone() as Arc<dyn Storage>,
        crash_config(),
        bptree_builder::<u64, u64>(FastPathMode::Pole, tree_config.clone()),
    )
    .map_err(|e| io_div("open", e))?;

    let mut shadow: Vec<Logged> = Vec::new();
    let mut rng = spec.seed ^ 0xD15C_0000;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Insert(k, v) => {
                durable.insert(*k, *v);
                shadow.push(Logged::Insert(*k, *v));
            }
            Op::InsertBatch(entries) | Op::BulkLoad(entries) => {
                durable.insert_batch(entries);
                shadow.extend(entries.iter().map(|&(k, v)| Logged::Insert(k, v)));
            }
            Op::Delete(k) => {
                // The wrapper logs every delete, hit or miss.
                durable.delete(*k);
                shadow.push(Logged::Delete(*k));
            }
            Op::Get(k) => {
                let _ = durable.get(*k);
            }
            Op::Range(s, e) => {
                let _ = SortedIndex::range(&mut durable, *s..*e).count();
            }
            Op::ResetMetrics => SortedIndex::<u64, u64>::reset_metrics(&durable),
        }
        if spec.checkpoint_at == Some(i) {
            durable
                .checkpoint::<u64, u64>()
                .map_err(|e| io_div("checkpoint", e))?;
        }
        if spec.commit_every > 0 && splitmix(&mut rng).is_multiple_of(spec.commit_every as u64) {
            durable.commit_all().map_err(|e| io_div("commit_all", e))?;
        }
    }
    // Push everything still buffered to storage *without* an fsync: the
    // full image must then recover every logged record, while arbitrary
    // cuts may still tear mid-frame.
    durable.flush().map_err(|e| io_div("flush", e))?;
    let floor_lsn = durable.wal().durable_lsn();
    drop(durable);

    let total = storage.total_appended();
    let mut report = CrashReport {
        ops: ops.len(),
        records: shadow.len(),
        floor_lsn,
        min_recovered: u64::MAX,
        ..CrashReport::default()
    };

    for cut in crash_cuts(total, storage.durable_bytes(), spec.cuts, &mut rng) {
        verify_cut(&storage, cut, total, &shadow, floor_lsn, spec, &mut report)?;
    }
    Ok(report)
}

/// Recovers the crash image at byte `cut` and asserts prefix consistency.
fn verify_cut(
    storage: &MemStorage,
    cut: usize,
    total: usize,
    shadow: &[Logged],
    floor_lsn: u64,
    spec: &CrashSpec,
    report: &mut CrashReport,
) -> Result<(), Divergence> {
    let diverge = |detail: String| Divergence {
        family: "Durable<BpTree>",
        op_index: cut,
        detail,
    };
    let crashed = Arc::new(storage.crash(cut));
    let (mut recovered, rec) = Durable::open(
        crashed as Arc<dyn Storage>,
        crash_config(),
        bptree_builder::<u64, u64>(FastPathMode::Pole, TreeConfig::small(spec.leaf_capacity)),
    )
    .map_err(|e| io_div("recover", e))?;

    let r = rec.recovered_lsn;
    if r < floor_lsn {
        return Err(diverge(format!(
            "durability violation: recovered LSN {r} < fsync floor {floor_lsn}"
        )));
    }
    if r as usize > shadow.len() {
        return Err(diverge(format!(
            "recovered LSN {r} beyond the {} records ever logged",
            shadow.len()
        )));
    }
    if cut == total {
        if r as usize != shadow.len() {
            return Err(diverge(format!(
                "full image must recover all {} records, got LSN {r} (torn={})",
                shadow.len(),
                rec.torn_tail,
            )));
        }
        if rec.torn_tail {
            return Err(diverge("full image reported a torn tail".to_string()));
        }
    }

    check_prefix_equality(&mut recovered, shadow, r, &diverge)?;

    report.cuts_tested += 1;
    report.torn_cuts += rec.torn_tail as usize;
    report.min_recovered = report.min_recovered.min(r);
    report.max_recovered = report.max_recovered.max(r);
    Ok(())
}

/// Replays the shadow log to LSN `r` and demands exact equality with the
/// recovered tree: length, the full key sequence (multiplicity included),
/// values wherever a single untainted instance makes them well-defined,
/// and the structural invariant suite.
fn check_prefix_equality(
    recovered: &mut Durable<quit_core::BpTree<u64, u64>>,
    shadow: &[Logged],
    r: u64,
    diverge: &dyn Fn(String) -> Divergence,
) -> Result<(), Divergence> {
    let mut model = Model::default();
    for logged in &shadow[..r as usize] {
        match *logged {
            Logged::Insert(k, v) => model.insert(k, v),
            Logged::Delete(k) => {
                model.delete(k);
            }
        }
    }
    if recovered.len() != model.len {
        return Err(diverge(format!(
            "recovered len {} vs model {} at LSN {r}",
            recovered.len(),
            model.len
        )));
    }
    let want: Vec<u64> = model.range_keys(0, u64::MAX);
    let got: Vec<u64> = SortedIndex::range(recovered, ..).map(|(k, _)| k).collect();
    if got != want {
        let at = got.iter().zip(&want).position(|(a, b)| a != b);
        return Err(diverge(format!(
            "recovered keys diverge at LSN {r}: {} keys vs model {} (first mismatch {at:?})",
            got.len(),
            want.len()
        )));
    }
    for (k, values) in &model.map {
        if values.len() == 1 && !model.tainted.contains(k) {
            let have = recovered.get(*k);
            if have != Some(values[0]) {
                return Err(diverge(format!(
                    "recovered value for key {k}: {have:?} vs model {} at LSN {r}",
                    values[0]
                )));
            }
        }
    }
    recovered
        .inner()
        .check_invariants()
        .map_err(|e| diverge(format!("recovered tree invariants: {e}")))?;
    Ok(())
}

/// [`replay_crash_ops`] with the workload generated from `workload`
/// (convenience for fixed-seed soaks).
pub fn replay_crash(
    workload: &crate::workload::WorkloadSpec,
    spec: &CrashSpec,
) -> Result<CrashReport, Divergence> {
    replay_crash_ops(&workload.generate(), spec)
}

/// Knobs for the exact-equality recovery oracle ([`replay_recovery_exact`]).
#[derive(Clone, Debug)]
pub struct ExactRecoverySpec {
    /// Configuration of the durable poℓe `BpTree`, live and recovered.
    pub tree: TreeConfig,
    /// Checkpoint after this op index, so recovery folds a WAL tail into a
    /// snapshot.
    pub checkpoint_at: Option<usize>,
}

/// The exact-equality recovery oracle. Runs `ops` through a
/// `Durable<BpTree>` (poℓe, `spec.tree`), recovers the full storage
/// image, and demands that the recovered tree's `range(..)` equal the live
/// tree's entry for entry — keys, values and the order of duplicates — at
/// the same `len`, with sound invariants. Then it checkpoints the
/// recovered tree, reopens it, and demands the same again. Returns the
/// first recovery's report.
///
/// [`replay_crash_ops`] checks every crash cut but, where a key is
/// duplicated, its multiplicity only; this oracle is the one that catches
/// a recovery which reorders duplicates.
pub fn replay_recovery_exact(
    ops: &[Op],
    spec: &ExactRecoverySpec,
) -> Result<quit_durability::RecoveryReport, Divergence> {
    let open = |storage: &Arc<MemStorage>, stage| {
        Durable::open(
            storage.clone() as Arc<dyn Storage>,
            crash_config(),
            bptree_builder::<u64, u64>(FastPathMode::Pole, spec.tree.clone()),
        )
        .map_err(|e| io_div(stage, e))
    };
    let storage = Arc::new(MemStorage::new());
    let (mut live, _) = open(&storage, "open")?;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Insert(k, v) => live.insert(*k, *v),
            Op::InsertBatch(entries) | Op::BulkLoad(entries) => {
                live.insert_batch(entries);
            }
            Op::Delete(k) => {
                live.delete(*k);
            }
            Op::Get(_) | Op::Range(..) | Op::ResetMetrics => {}
        }
        if spec.checkpoint_at == Some(i) {
            live.checkpoint::<u64, u64>()
                .map_err(|e| io_div("checkpoint", e))?;
        }
    }
    live.flush().map_err(|e| io_div("flush", e))?;
    let want: Vec<(u64, u64)> = live.inner().range(..).map(|(k, v)| (k, *v)).collect();
    drop(live);

    let image = Arc::new(storage.crash(storage.total_appended()));
    let (mut recovered, report) = open(&image, "recover")?;
    check_exact(recovered.inner(), &want, ops.len(), "full image")?;
    recovered
        .checkpoint::<u64, u64>()
        .map_err(|e| io_div("checkpoint recovered", e))?;
    drop(recovered);
    let (reopened, _) = open(&image, "reopen")?;
    check_exact(
        reopened.inner(),
        &want,
        ops.len(),
        "reopened after a checkpoint",
    )?;
    Ok(report)
}

/// `tree` holds exactly `want`, in order, and passes its invariant suite;
/// a divergence is reported at `op_index`, the op count of the workload.
fn check_exact(
    tree: &quit_core::BpTree<u64, u64>,
    want: &[(u64, u64)],
    op_index: usize,
    stage: &str,
) -> Result<(), Divergence> {
    let diverge = |detail: String| Divergence {
        family: "Durable<BpTree>",
        op_index,
        detail: format!("{stage}: {detail}"),
    };
    let got: Vec<(u64, u64)> = tree.range(..).map(|(k, v)| (k, *v)).collect();
    if got != want || tree.len() != want.len() {
        let at = (0..).find(|&i| got.get(i) != want.get(i));
        let at = at.expect("two unequal vectors differ somewhere");
        return Err(diverge(format!(
            "recovered {} entries (len {}) vs live {}; entry {at} is {:?} vs live {:?}",
            got.len(),
            tree.len(),
            want.len(),
            got.get(at),
            want.get(at)
        )));
    }
    tree.check_invariants()
        .map_err(|e| diverge(format!("recovered tree invariants: {e}")))
}

/// Knobs for the **paged** crash differential: the page-file variant of
/// [`CrashSpec`]. The durable tree runs the paged backend, checkpoints
/// publish the page file itself (`psnap-….qpsf`), and the crash fuzz cuts
/// the combined page-file + WAL byte stream — so cuts land inside psnap
/// writes (a torn, unpublished snapshot the recovery must ignore) as well
/// as inside WAL frames. Checkpoint pruning is disabled so that every
/// crash image retains a full fallback chain (older snapshots + unpruned
/// segments): recovery after *any* rejection must still reach the exact
/// committed prefix, never a partially applied page.
#[derive(Clone, Debug)]
pub struct PagedCrashSpec {
    /// Random crash points per run (0 and the full image always added).
    pub cuts: usize,
    /// Leaf capacity of the durable paged tree.
    pub leaf_capacity: usize,
    /// Buffer-pool budget in pages (small forces constant eviction).
    pub pool_pages: usize,
    /// Explicit `commit_all` durability point roughly every this many
    /// ops (0 disables).
    pub commit_every: usize,
    /// `checkpoint_paged` (page-file snapshot + WAL rotation) after this
    /// op index.
    pub checkpoint_at: Option<usize>,
    /// Torn-page trials: single-byte flips planted inside the *published*
    /// newest psnap of the full image; recovery must reject the snapshot
    /// (never silently apply the flipped page) and still recover the
    /// exact committed prefix through the fallback chain.
    pub torn_pages: usize,
    /// Seed for crash-point/flip selection.
    pub seed: u64,
}

impl Default for PagedCrashSpec {
    fn default() -> Self {
        PagedCrashSpec {
            cuts: 24,
            leaf_capacity: 8,
            pool_pages: 8,
            commit_every: 48,
            checkpoint_at: Some(40),
            torn_pages: 12,
            seed: 0x9A6E_C4A5,
        }
    }
}

/// Totals from a completed (divergence-free) paged crash fuzz.
#[derive(Clone, Copy, Debug, Default)]
pub struct PagedCrashReport {
    /// Workload ops driven through the durable paged tree.
    pub ops: usize,
    /// Mutation records written to the WAL (the shadow-log length).
    pub records: usize,
    /// Crash points recovered and verified (including 0 and full).
    pub cuts_tested: usize,
    /// Crash points whose WAL image ended in a torn frame.
    pub torn_cuts: usize,
    /// Recoveries that rejected at least one snapshot candidate (torn or
    /// truncated psnap/qsnp files) and fell back.
    pub rejected_recoveries: usize,
    /// Torn-page trials that planted a byte flip and verified rejection.
    pub torn_pages_tested: usize,
    /// LSN covered by the last explicit durability point.
    pub floor_lsn: u64,
    /// Smallest / largest LSN any crash point recovered to.
    pub min_recovered: u64,
    /// See [`min_recovered`](Self::min_recovered).
    pub max_recovered: u64,
}

fn paged_crash_tree_config(spec: &PagedCrashSpec) -> TreeConfig {
    TreeConfig::small(spec.leaf_capacity).with_storage(StorageKind::paged(spec.pool_pages))
}

fn open_paged_crashed(
    storage: Arc<MemStorage>,
    spec: &PagedCrashSpec,
) -> quit_core::Result<(
    Durable<quit_core::BpTree<u64, u64>>,
    quit_durability::RecoveryReport,
)> {
    Durable::open_paged(
        storage as Arc<dyn Storage>,
        crash_config().with_prune_on_checkpoint(false),
        FastPathMode::Pole,
        paged_crash_tree_config(spec),
    )
}

/// The page-file variant of [`replay_crash_ops`]: runs `ops` through a
/// durable **paged** tree (checkpointing the page file mid-run), then
/// crash-fuzzes the byte stream at `spec.cuts` offsets and plants
/// `spec.torn_pages` single-byte flips inside the published snapshot.
/// Every recovery must lazily fault to exactly the committed prefix; a
/// torn page must be rejected, never silently applied.
pub fn replay_crash_paged_ops(
    ops: &[Op],
    spec: &PagedCrashSpec,
) -> Result<PagedCrashReport, Divergence> {
    let storage = Arc::new(MemStorage::new());
    let (mut durable, _) =
        open_paged_crashed(storage.clone(), spec).map_err(|e| io_div("open", e))?;

    let mut shadow: Vec<Logged> = Vec::new();
    let mut rng = spec.seed ^ 0xD15C_0000;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Insert(k, v) => {
                durable.insert(*k, *v);
                shadow.push(Logged::Insert(*k, *v));
            }
            Op::InsertBatch(entries) | Op::BulkLoad(entries) => {
                durable.insert_batch(entries);
                shadow.extend(entries.iter().map(|&(k, v)| Logged::Insert(k, v)));
            }
            Op::Delete(k) => {
                durable.delete(*k);
                shadow.push(Logged::Delete(*k));
            }
            Op::Get(k) => {
                let _ = durable.get(*k);
            }
            Op::Range(s, e) => {
                let _ = SortedIndex::range(&mut durable, *s..*e).count();
            }
            Op::ResetMetrics => SortedIndex::<u64, u64>::reset_metrics(&durable),
        }
        if spec.checkpoint_at == Some(i) {
            durable
                .checkpoint_paged()
                .map_err(|e| io_div("checkpoint_paged", e))?;
        }
        if spec.commit_every > 0 && splitmix(&mut rng).is_multiple_of(spec.commit_every as u64) {
            durable.commit_all().map_err(|e| io_div("commit_all", e))?;
        }
    }
    durable.flush().map_err(|e| io_div("flush", e))?;
    let floor_lsn = durable.wal().durable_lsn();
    drop(durable);

    let total = storage.total_appended();
    let mut report = PagedCrashReport {
        ops: ops.len(),
        records: shadow.len(),
        floor_lsn,
        min_recovered: u64::MAX,
        ..PagedCrashReport::default()
    };

    for cut in crash_cuts(total, storage.durable_bytes(), spec.cuts, &mut rng) {
        verify_paged_cut(&storage, cut, total, &shadow, floor_lsn, spec, &mut report)?;
    }

    // Torn-page trials: flip one byte inside the newest *published* psnap
    // of the full image. The per-page CRC sweep must reject the whole
    // candidate and recovery must fall back to the exact committed
    // prefix — a flipped page must never be served.
    for _ in 0..spec.torn_pages {
        verify_torn_page(&storage, total, &shadow, &mut rng, spec, &mut report)?;
    }
    Ok(report)
}

/// Recovers the paged crash image at byte `cut` and asserts lazy
/// prefix-consistent recovery.
fn verify_paged_cut(
    storage: &MemStorage,
    cut: usize,
    total: usize,
    shadow: &[Logged],
    floor_lsn: u64,
    spec: &PagedCrashSpec,
    report: &mut PagedCrashReport,
) -> Result<(), Divergence> {
    let diverge = |detail: String| Divergence {
        family: "Durable<BpTree[paged]>",
        op_index: cut,
        detail,
    };
    let crashed = Arc::new(storage.crash(cut));
    let (mut recovered, rec) =
        open_paged_crashed(crashed, spec).map_err(|e| io_div("recover", e))?;

    let r = rec.recovered_lsn;
    if r < floor_lsn {
        return Err(diverge(format!(
            "durability violation: recovered LSN {r} < fsync floor {floor_lsn}"
        )));
    }
    if r as usize > shadow.len() {
        return Err(diverge(format!(
            "recovered LSN {r} beyond the {} records ever logged",
            shadow.len()
        )));
    }
    if cut == total {
        if r as usize != shadow.len() {
            return Err(diverge(format!(
                "full image must recover all {} records, got LSN {r} (torn={})",
                shadow.len(),
                rec.torn_tail,
            )));
        }
        if rec.torn_tail {
            return Err(diverge("full image reported a torn tail".to_string()));
        }
        if rec.rejected_snapshots != 0 {
            return Err(diverge(format!(
                "full image rejected {} snapshot candidates",
                rec.rejected_snapshots
            )));
        }
    }

    // Lazy recovery: before any reads spread out, residency must stay
    // near the pool budget — the pool plus the last replayed op's pin set
    // (its spine and any split chain, trimmed at the next op boundary) —
    // never anywhere near the snapshot's full node count.
    let resident = recovered.inner().resident_nodes();
    let bound = spec.pool_pages + 2 * (recovered.inner().height() + 2);
    if rec.snapshot_entries > 0 && resident > bound {
        return Err(diverge(format!(
            "recovery faulted {resident} nodes (pool {} + pin-set bound {bound})",
            spec.pool_pages
        )));
    }

    check_prefix_equality(&mut recovered, shadow, r, &diverge)?;

    report.cuts_tested += 1;
    report.torn_cuts += rec.torn_tail as usize;
    report.rejected_recoveries += (rec.rejected_snapshots > 0) as usize;
    report.min_recovered = report.min_recovered.min(r);
    report.max_recovered = report.max_recovered.max(r);
    Ok(())
}

/// Plants a single-byte flip inside the newest published psnap of the
/// full image and asserts recovery rejects the snapshot yet still reaches
/// the exact committed prefix through the fallback chain.
fn verify_torn_page(
    storage: &MemStorage,
    total: usize,
    shadow: &[Logged],
    rng: &mut u64,
    spec: &PagedCrashSpec,
    report: &mut PagedCrashReport,
) -> Result<(), Divergence> {
    let crashed = storage.crash(total);
    let psnap = {
        let mut names: Vec<String> = crashed
            .list()
            .map_err(|e| io_div("list", Error::from(e)))?
            .into_iter()
            .filter(|n| n.starts_with("psnap-") && n.ends_with(".qpsf"))
            .collect();
        names.sort();
        match names.pop() {
            Some(name) => name,
            // No checkpoint in this run (e.g. a shrunk op list shorter
            // than `checkpoint_at`): nothing to tear.
            None => return Ok(()),
        }
    };
    let mut bytes = crashed
        .read(&psnap)
        .map_err(|e| io_div("read psnap", Error::from(e)))?;
    let at = (splitmix(rng) % bytes.len() as u64) as usize;
    let bit = 1u8 << (splitmix(rng) % 8);
    bytes[at] ^= bit;
    crashed
        .remove(&psnap)
        .map_err(|e| io_div("remove psnap", Error::from(e)))?;
    crashed.install(&psnap, bytes);

    let diverge = |detail: String| Divergence {
        family: "Durable<BpTree[paged]>",
        op_index: at,
        detail: format!("torn page (flip bit {bit:#04x} at byte {at} of {psnap}): {detail}"),
    };
    let (mut recovered, rec) =
        open_paged_crashed(Arc::new(crashed), spec).map_err(|e| io_div("recover torn", e))?;
    if rec.rejected_snapshots == 0 {
        return Err(diverge(
            "flipped snapshot was not rejected — a torn page may have been served".to_string(),
        ));
    }
    let r = rec.recovered_lsn;
    if r as usize != shadow.len() {
        return Err(diverge(format!(
            "fallback recovery reached LSN {r}, wanted all {} records",
            shadow.len()
        )));
    }
    check_prefix_equality(&mut recovered, shadow, r, &diverge)?;
    report.torn_pages_tested += 1;
    Ok(())
}

/// [`replay_crash_paged_ops`] with the workload generated from `workload`
/// (convenience for fixed-seed soaks).
pub fn replay_crash_paged(
    workload: &crate::workload::WorkloadSpec,
    spec: &PagedCrashSpec,
) -> Result<PagedCrashReport, Divergence> {
    replay_crash_paged_ops(&workload.generate(), spec)
}

/// Knobs for the concurrent crash differential: N writers through group
/// commit, a live mid-run crash image, per-writer prefix consistency.
#[derive(Clone, Debug)]
pub struct ConcCrashSpec {
    /// Writer threads (each owns the key partition `w << 32 ..`).
    pub writers: usize,
    /// Inserts per writer.
    pub ops_per_writer: usize,
    /// Leaf capacity for the concurrent tree.
    pub leaf_capacity: usize,
    /// Random crash cuts fuzzed over the captured mid-run image.
    pub cuts: usize,
    /// Seed for cut selection.
    pub seed: u64,
}

impl Default for ConcCrashSpec {
    fn default() -> Self {
        ConcCrashSpec {
            writers: 4,
            ops_per_writer: 400,
            leaf_capacity: 16,
            cuts: 12,
            seed: 0xC4A5_4C0C,
        }
    }
}

/// Totals from a divergence-free concurrent crash differential.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConcCrashReport {
    /// Total acked inserts across writers.
    pub writer_ops: usize,
    /// Sum of the per-writer acked floors at capture time.
    pub captured_floor: usize,
    /// Crash cuts recovered and verified over the mid-run image.
    pub cuts_tested: usize,
    /// Entries in the tree recovered from the final (post-delete) image.
    pub final_len: usize,
}

/// Runs N writers through `Durable<ConcurrentTree>` group commit,
/// captures a crash image mid-run, and asserts per-writer prefix
/// consistency at `spec.cuts` random cuts (plus the durable-only and full
/// images); then deletes a slice through the shared API, crashes at the
/// durable floor, and asserts the deletes survived recovery.
pub fn replay_crash_concurrent(spec: &ConcCrashSpec) -> Result<ConcCrashReport, Divergence> {
    let diverge = |detail: String| Divergence {
        family: "Durable<ConcurrentTree>",
        op_index: usize::MAX,
        detail,
    };
    let storage = Arc::new(MemStorage::new());
    let (durable, _) = Durable::open(
        storage.clone() as Arc<dyn Storage>,
        DurabilityConfig::group_commit().with_segment_bytes(16 << 10),
        concurrent_builder::<u64, u64>(TreeConfig::small(spec.leaf_capacity)),
    )
    .map_err(|e| io_div("open", e))?;
    let durable = Arc::new(durable);

    let acked: Vec<AtomicU64> = (0..spec.writers).map(|_| AtomicU64::new(0)).collect();
    let acked = Arc::new(acked);
    let half = (spec.writers * spec.ops_per_writer / 2) as u64;
    let mut captured: Option<(Vec<u64>, MemStorage)> = None;

    std::thread::scope(|scope| {
        for w in 0..spec.writers {
            let durable = durable.clone();
            let acked = acked.clone();
            scope.spawn(move || {
                let base = (w as u64) << 32;
                for i in 0..spec.ops_per_writer as u64 {
                    // Group commit: this returns only once the record's
                    // group fsync completed — the insert is *acked*.
                    durable.insert_shared(base + i, ((w as u64) << 48) | i);
                    acked[w].store(i + 1, Ordering::Release);
                }
            });
        }
        // Capture thread (the main thread): once half the target volume
        // is acked, record each writer's floor *first*, then snapshot the
        // storage. Every op acked before its floor read is durable in the
        // snapshot; later ops may or may not appear — exactly a crash.
        loop {
            let total: u64 = acked.iter().map(|a| a.load(Ordering::Acquire)).sum();
            if total >= half {
                let floors: Vec<u64> = acked.iter().map(|a| a.load(Ordering::Acquire)).collect();
                captured = Some((floors, storage.crash(usize::MAX)));
                break;
            }
            std::thread::yield_now();
        }
    });

    let (floors, base) = captured.expect("capture loop always runs");
    let mut report = ConcCrashReport {
        writer_ops: spec.writers * spec.ops_per_writer,
        captured_floor: floors.iter().sum::<u64>() as usize,
        ..ConcCrashReport::default()
    };

    // Fuzz cuts over the mid-run image.
    let mut rng = spec.seed;
    let (total, synced) = (base.total_appended(), base.durable_bytes());
    for cut in crash_cuts(total, synced, spec.cuts, &mut rng) {
        let crashed = Arc::new(base.crash(cut));
        let (recovered, _) = Durable::open(
            crashed as Arc<dyn Storage>,
            DurabilityConfig::group_commit(),
            concurrent_builder::<u64, u64>(TreeConfig::small(spec.leaf_capacity)),
        )
        .map_err(|e| io_div("recover", e))?;
        let mut per_writer: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spec.writers];
        for (k, v) in recovered.tree().range(..) {
            let w = (k >> 32) as usize;
            if w >= spec.writers {
                return Err(diverge(format!("cut {cut}: alien key {k} recovered")));
            }
            per_writer[w].push((k & 0xFFFF_FFFF, v));
        }
        for (w, entries) in per_writer.iter().enumerate() {
            let n = entries.len() as u64;
            if n < floors[w] {
                return Err(diverge(format!(
                    "cut {cut}: writer {w} recovered {n} inserts, acked floor {}",
                    floors[w]
                )));
            }
            for (i, &(seq, v)) in entries.iter().enumerate() {
                let want = ((w as u64) << 48) | i as u64;
                if seq != i as u64 || v != want {
                    return Err(diverge(format!(
                        "cut {cut}: writer {w} not a contiguous prefix at #{i}: \
                         key seq {seq}, value {v:#x} (want {want:#x})"
                    )));
                }
            }
        }
        recovered
            .tree()
            .check_consistency()
            .map_err(|e| diverge(format!("cut {cut}: recovered consistency: {e}")))?;
        report.cuts_tested += 1;
    }

    // Deletes through the shared API, then the harshest legal crash: the
    // acked deletes must survive recovery.
    let victims: Vec<u64> = (0..spec.writers as u64)
        .flat_map(|w| (0..8.min(spec.ops_per_writer as u64)).map(move |i| (w << 32) + i))
        .collect();
    for &k in &victims {
        durable.delete_shared(k);
    }
    let expected_len = durable.tree().len();
    let crashed = Arc::new(storage.crash_durable_only());
    drop(durable);
    let (recovered, _) = Durable::open(
        crashed as Arc<dyn Storage>,
        DurabilityConfig::group_commit(),
        concurrent_builder::<u64, u64>(TreeConfig::small(spec.leaf_capacity)),
    )
    .map_err(|e| io_div("final recover", e))?;
    if recovered.tree().len() != expected_len {
        return Err(diverge(format!(
            "final image: recovered len {} vs live len {expected_len}",
            recovered.tree().len()
        )));
    }
    for &k in &victims {
        if recovered.tree().get(k).is_some() {
            return Err(diverge(format!("final image: deleted key {k} came back")));
        }
    }
    report.final_len = recovered.tree().len();
    Ok(report)
}

/// Knobs for the contended-key concurrent differential: N writers racing
/// inserts *and deletes over one small shared key set* through the shared
/// API — exactly the conflicting-key traffic the partitioned drivers
/// above never generate, and the traffic that exposes any gap between
/// WAL log order and tree apply order.
#[derive(Clone, Debug)]
pub struct ContendedSpec {
    /// Writer threads, all hammering the same keys.
    pub writers: usize,
    /// Ops per writer (~1 in 4 is a delete).
    pub ops_per_writer: usize,
    /// Size of the shared key space (small = constant conflicts).
    pub keys: u64,
    /// Leaf capacity for the concurrent tree.
    pub leaf_capacity: usize,
    /// Seed for each writer's op stream.
    pub seed: u64,
}

impl Default for ContendedSpec {
    fn default() -> Self {
        ContendedSpec {
            writers: 4,
            ops_per_writer: 600,
            keys: 24,
            leaf_capacity: 16,
            seed: 0xC0_47E4D,
        }
    }
}

/// Runs the contended workload and checks `Durable`'s ordering invariant
/// directly: once every writer has joined, **replaying the complete WAL
/// must reconstruct exactly the live tree**. If the wrapper ever logged
/// two conflicting ops in the opposite order to how they applied (e.g.
/// insert(k) at LSN n applied after delete(k) at LSN n+1), the replayed
/// state differs from the observed state on that key. Returns the final
/// entry count on success.
pub fn replay_crash_contended(spec: &ContendedSpec) -> Result<usize, Divergence> {
    let diverge = |detail: String| Divergence {
        family: "Durable<ConcurrentTree> (contended)",
        op_index: usize::MAX,
        detail,
    };
    let storage = Arc::new(MemStorage::new());
    let (durable, _) = Durable::open(
        storage.clone() as Arc<dyn Storage>,
        DurabilityConfig::group_commit().with_segment_bytes(16 << 10),
        concurrent_builder::<u64, u64>(TreeConfig::small(spec.leaf_capacity)),
    )
    .map_err(|e| io_div("open", e))?;
    let durable = Arc::new(durable);

    std::thread::scope(|scope| {
        for w in 0..spec.writers {
            let durable = durable.clone();
            let mut rng = spec.seed ^ ((w as u64 + 1) << 17);
            scope.spawn(move || {
                for i in 0..spec.ops_per_writer as u64 {
                    let r = splitmix(&mut rng);
                    let k = r % spec.keys;
                    if r >> 62 == 3 {
                        durable.delete_shared(k);
                    } else {
                        durable.insert_shared(k, ((w as u64) << 48) | i);
                    }
                }
            });
        }
    });

    let live: Vec<(u64, u64)> = durable.tree().range(..).collect();
    drop(durable);

    // Full image: every logged record (all ops were acked, so everything
    // is flushed). Recovery replays the WAL in LSN order — the oracle.
    let full = Arc::new(storage.crash(usize::MAX));
    let (replayed, rec) = Durable::open(
        full as Arc<dyn Storage>,
        DurabilityConfig::group_commit(),
        concurrent_builder::<u64, u64>(TreeConfig::small(spec.leaf_capacity)),
    )
    .map_err(|e| io_div("contended recover", e))?;
    if rec.torn_tail {
        return Err(diverge("full image reported a torn tail".to_string()));
    }
    let got: Vec<(u64, u64)> = replayed.tree().range(..).collect();
    if got != live {
        let at = got
            .iter()
            .zip(&live)
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(live.len()));
        return Err(diverge(format!(
            "replaying the full WAL (LSN {}) diverges from the live tree: \
             {} vs {} entries, first mismatch at #{at} \
             (replayed {:?} vs live {:?}) — log order broke apply order on a contended key",
            rec.recovered_lsn,
            got.len(),
            live.len(),
            got.get(at),
            live.get(at),
        )));
    }
    replayed
        .tree()
        .check_consistency()
        .map_err(|e| diverge(format!("replayed tree consistency: {e}")))?;
    Ok(live.len())
}

/// Crash differential for transactional commit frames: how many cuts to
/// fuzz and where the fsync floor comes from. The workload itself is a
/// [`TxnOp`] sequence (see [`crate::TxnWorkloadSpec`]).
#[derive(Clone, Copy, Debug)]
pub struct TxnCrashSpec {
    /// Random WAL byte-prefix cuts to test (plus the empty and full
    /// images, always).
    pub cuts: usize,
    /// Leaf capacity for the version tree (small = interesting
    /// structure early).
    pub leaf_capacity: usize,
    /// `commit_all` (fsync barrier) after every N executed ops
    /// (`0` = never) — raises the durability floor mid-history.
    pub commit_every: usize,
    /// Run a checkpoint after this many executed ops, so cuts also land
    /// in the snapshot-plus-tail regime.
    pub checkpoint_at: Option<usize>,
    /// Seed for cut selection.
    pub seed: u64,
}

impl Default for TxnCrashSpec {
    fn default() -> Self {
        TxnCrashSpec {
            cuts: 56,
            leaf_capacity: 8,
            commit_every: 32,
            checkpoint_at: None,
            seed: 0x7C5_CA57,
        }
    }
}

/// What the transactional crash fuzzer observed on success.
#[derive(Clone, Copy, Debug)]
pub struct TxnCrashReport {
    /// Ops executed.
    pub ops: usize,
    /// Transactions that committed (each = one WAL commit frame).
    pub commits: usize,
    /// Crash points recovered from (`spec.cuts` + empty + full image).
    pub cuts_tested: usize,
    /// Cuts where recovery reported a torn tail (mid-frame or
    /// mid-commit-frame cut).
    pub torn_cuts: usize,
    /// Commits guaranteed durable by the last fsync barrier.
    pub floor_commits: usize,
    /// Smallest commit prefix any cut recovered to.
    pub min_prefix: usize,
    /// Largest commit prefix any cut recovered to (the full image must
    /// reach `commits`).
    pub max_prefix: usize,
}

/// Runs a deterministic interleaved-transaction workload against a
/// durable [`TxnStore`] with a tiny WAL buffer, then re-opens the store
/// from arbitrary byte prefixes of the append stream and asserts
/// **commit atomicity across crashes**: every recovered state must equal
/// the committed state after some prefix of the commit order — a
/// recovered state containing part of a transaction's write set matches
/// no prefix and fails. Cuts at or above the durability floor must
/// recover at least every fsynced commit, and the full image must
/// recover all of them with no torn tail.
pub fn replay_txn_crash(ops: &[TxnOp], spec: &TxnCrashSpec) -> Result<TxnCrashReport, Divergence> {
    let diverge = |detail: String| Divergence {
        family: "TxnStore (crash)",
        op_index: usize::MAX,
        detail,
    };
    let io = |stage: &'static str, e: Error| Divergence {
        family: "TxnStore (crash)",
        op_index: usize::MAX,
        detail: format!("{stage}: {e}"),
    };
    let config = TxnConfig::default()
        .with_tree(TreeConfig::small(spec.leaf_capacity))
        .with_durability(crash_config())
        .with_gc_every(0);
    let storage = Arc::new(MemStorage::new());
    let (store, _) = TxnStore::open(storage.clone() as Arc<dyn Storage>, config.clone())
        .map_err(|e| io("open", e))?;

    // Execute the workload, recording the committed state after every
    // successful commit: `states[j]` is the visible state once the first
    // j commits (in commit order) have applied, `states[0]` is empty.
    let mut states: Vec<Vec<(u64, u64)>> = vec![Vec::new()];
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut floor_commits = 0usize;
    {
        let mut slots: Vec<Option<quit_durability::Txn<'_, u64, u64>>> =
            (0..MAX_SLOTS).map(|_| None).collect();
        let mut shadows: Vec<BTreeMap<u64, Option<u64>>> =
            (0..MAX_SLOTS).map(|_| BTreeMap::new()).collect();
        for (i, op) in ops.iter().enumerate() {
            let s = usize::from(op.slot()) % MAX_SLOTS;
            // Begin restarts the slot (dropping any occupant aborts it);
            // every other op implicitly begins on an empty slot.
            if matches!(*op, TxnOp::Begin(_)) || slots[s].is_none() {
                slots[s] = Some(store.begin());
                shadows[s].clear();
            }
            match *op {
                TxnOp::Begin(_) => {}
                TxnOp::Read(_, key) => {
                    let _ = slots[s].as_ref().expect("ensured open").get(key);
                }
                TxnOp::Write(_, key, value) => {
                    slots[s].as_mut().expect("ensured open").insert(key, value);
                    shadows[s].insert(key, Some(value));
                }
                TxnOp::Delete(_, key) => {
                    slots[s].as_mut().expect("ensured open").delete(key);
                    shadows[s].insert(key, None);
                }
                TxnOp::Commit(_) => match slots[s].take().expect("ensured open").commit() {
                    // Read-only commits write no commit frame and change
                    // no state, so they add no prefix entry.
                    Ok(_) if shadows[s].is_empty() => {}
                    Ok(_) => {
                        for (&key, &value) in &shadows[s] {
                            match value {
                                Some(v) => {
                                    model.insert(key, v);
                                }
                                None => {
                                    model.remove(&key);
                                }
                            }
                        }
                        shadows[s].clear();
                        states.push(model.iter().map(|(&k, &v)| (k, v)).collect());
                    }
                    Err(Error::Conflict(_)) => shadows[s].clear(),
                    Err(e) => return Err(io("commit", e)),
                },
                TxnOp::Abort(_) => {
                    slots[s].take().expect("ensured open").abort();
                    shadows[s].clear();
                }
            }
            if spec.commit_every > 0 && (i + 1).is_multiple_of(spec.commit_every) {
                store.commit_all().map_err(|e| io("commit_all", e))?;
                floor_commits = states.len() - 1;
            }
            if spec.checkpoint_at == Some(i) {
                // Checkpoint quiesces committers, so the open slots must
                // not hold the stripe locks — they don't (locks are only
                // taken inside commit), but they do pin snapshots; that
                // is fine, checkpoints only need the commit gate.
                store.checkpoint().map_err(|e| io("checkpoint", e))?;
                floor_commits = states.len() - 1;
            }
        }
        // Leftover open transactions die with the process — their
        // intents must never surface after recovery.
    }
    let commits = states.len() - 1;
    // Push all buffered WAL bytes to storage *without* fsync, so the
    // full image contains every commit frame while cuts can still tear.
    store.flush().map_err(|e| io("flush", e))?;
    drop(store);

    let total = storage.total_appended();
    let mut rng = spec.seed ^ 0x7C5_CA57_F00D;
    let mut report = TxnCrashReport {
        ops: ops.len(),
        commits,
        cuts_tested: 0,
        torn_cuts: 0,
        floor_commits,
        min_prefix: usize::MAX,
        max_prefix: 0,
    };
    for cut in crash_cuts(total, storage.durable_bytes(), spec.cuts, &mut rng) {
        let img = Arc::new(storage.crash(cut)) as Arc<dyn Storage>;
        let (recovered, rec) = TxnStore::open(img, config.clone()).map_err(|e| io("recover", e))?;
        recovered
            .mvcc()
            .check_consistency()
            .map_err(|e| diverge(format!("cut {cut}: recovered tree consistency: {e}")))?;
        let got: Vec<(u64, u64)> = recovered.scan(..);
        let Some(j) = (0..states.len()).rev().find(|&j| states[j] == got) else {
            return Err(diverge(format!(
                "cut {cut}: recovered state ({} keys) matches no committed prefix \
                 (0..={commits} commits) — a partial transaction is visible",
                got.len(),
            )));
        };
        if j < floor_commits {
            return Err(diverge(format!(
                "cut {cut}: recovered only {j} commits but {floor_commits} were \
                 fsync-durable before the crash",
            )));
        }
        if cut == total {
            if j != commits {
                return Err(diverge(format!(
                    "full image recovered {j} of {commits} commits",
                )));
            }
            if rec.torn_tail {
                return Err(diverge("full image reported a torn tail".to_string()));
            }
        }
        report.cuts_tested += 1;
        report.torn_cuts += usize::from(rec.torn_tail);
        report.min_prefix = report.min_prefix.min(j);
        report.max_prefix = report.max_prefix.max(j);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::si_checker::TxnWorkloadSpec;
    use crate::workload::{OpMix, WorkloadSpec};

    #[test]
    fn tiny_workload_crash_fuzz_is_consistent() {
        let workload = WorkloadSpec {
            ops: 300,
            seed: 0xFEED,
            mix: OpMix::mixed(),
            ..WorkloadSpec::default()
        };
        let report =
            replay_crash(&workload, &CrashSpec::default()).unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(report.ops, 300);
        assert!(report.records > 0);
        assert_eq!(report.cuts_tested, 2 + CrashSpec::default().cuts);
        assert_eq!(report.max_recovered, report.records as u64);
        // Rotation fsyncs can make more durable than the promised floor,
        // never less.
        assert!(report.min_recovered >= report.floor_lsn);
    }

    #[test]
    fn checkpointed_workload_recovers_snapshot_plus_tail() {
        let workload = WorkloadSpec {
            ops: 400,
            seed: 0xFACE,
            ..WorkloadSpec::default()
        };
        let spec = CrashSpec {
            checkpoint_at: Some(200),
            ..CrashSpec::default()
        };
        replay_crash(&workload, &spec).unwrap_or_else(|d| panic!("{d}"));
    }

    #[test]
    fn concurrent_crash_prefix_consistency() {
        let report =
            replay_crash_concurrent(&ConcCrashSpec::default()).unwrap_or_else(|d| panic!("{d}"));
        assert!(report.captured_floor > 0);
        assert!(report.cuts_tested >= 2);
        assert!(report.final_len > 0);
    }

    #[test]
    fn txn_crash_fuzz_is_prefix_consistent() {
        let ops = TxnWorkloadSpec {
            ops: 400,
            seed: 0xBEEF,
            ..TxnWorkloadSpec::default()
        }
        .generate();
        let spec = TxnCrashSpec {
            cuts: 12,
            ..TxnCrashSpec::default()
        };
        let report = replay_txn_crash(&ops, &spec).unwrap_or_else(|d| panic!("{d}"));
        assert!(report.commits > 0);
        assert_eq!(report.cuts_tested, 2 + spec.cuts);
        assert_eq!(report.max_prefix, report.commits, "full image recovers all");
        assert!(report.min_prefix >= report.floor_commits);
    }

    #[test]
    fn contended_keys_full_replay_matches_live_tree() {
        let spec = ContendedSpec::default();
        let len = replay_crash_contended(&spec).unwrap_or_else(|d| panic!("{d}"));
        // Duplicate keys are preserved, so the ceiling is total inserts.
        assert!(len <= spec.writers * spec.ops_per_writer);
    }
}
