//! The differential oracle: one op sequence, four executions.
//!
//! Every [`Op`] is applied simultaneously to a `BTreeMap`-backed model and
//! to each index family — [`quit_core::BpTree`] (full QuIT), the buffered
//! [`sware::SaBpTree`], and [`quit_concurrent::ConcurrentTree`] — through
//! their common [`quit_core::SortedIndex`] surface. Observable results
//! (presence, values where well-defined, range key sequences, lengths) are
//! compared after every op, and structural invariants (key ordering,
//! separator/occupancy bounds, leaf-chain integrity, poℓe/tail pointer
//! validity) are re-checked after every batch op and on a configurable
//! cadence.
//!
//! Duplicate keys need care: all families retain duplicates, but deleting
//! one instance of a duplicated key may remove *different* instances in
//! different families. The model therefore taints such keys and stops
//! comparing their values (presence and multiplicity stay exact); a key
//! un-taints once every instance is gone.

use crate::workload::Op;
use quit_concurrent::ConcurrentTree;
use quit_core::{BpTree, SortedIndex, StorageKind, TreeConfig, Variant};
use std::collections::{BTreeMap, BTreeSet};
use sware::{SaBpTree, SwareConfig};

/// Which node-storage backend the single-writer families run on.
///
/// `Paged` puts `BpTree` and `SaBpTree` nodes behind the buffer pool with
/// `pool_pages` resident pages — capping the pool well below the working
/// set makes every replayed op contend with faults and evictions, which is
/// exactly where a pin-discipline bug shows up as a model divergence.
/// `ConcurrentTree` always runs the arena (it rejects paged storage).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OracleBackend {
    /// The in-memory arena (the paper's configuration).
    #[default]
    Arena,
    /// Fixed-size pages behind a buffer pool capped at `pool_pages`.
    Paged {
        /// Maximum resident pages in the pool.
        pool_pages: usize,
    },
}

/// Geometry and cadence knobs for one oracle run.
///
/// Small capacities are the default: they force splits, merges, and
/// buffer flushes to happen every few ops, which is where the bugs live.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Leaf capacity for every family.
    pub leaf_capacity: usize,
    /// SWARE buffer capacity.
    pub buffer_capacity: usize,
    /// Run the structural invariant suites every this many ops (besides
    /// after every batch op and at the end).
    pub check_every: usize,
    /// Node storage for `BpTree` and `SaBpTree` (the concurrent family
    /// always runs the arena).
    pub backend: OracleBackend,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            leaf_capacity: 8,
            buffer_capacity: 32,
            check_every: 256,
            backend: OracleBackend::Arena,
        }
    }
}

impl OracleConfig {
    /// Same geometry, different storage backend.
    pub fn with_backend(mut self, backend: OracleBackend) -> Self {
        self.backend = backend;
        self
    }
}

/// A disagreement between a family and the model (or a structural
/// invariant violation, or a panic inside an index).
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Which family diverged.
    pub family: &'static str,
    /// Index of the op being applied (or just applied) when detected.
    pub op_index: usize,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "divergence in {} at op {}: {}",
            self.family, self.op_index, self.detail
        )
    }
}

/// Totals from a completed (non-diverging) replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayReport {
    /// Ops replayed per family.
    pub ops: usize,
    /// Structural invariant suite executions (per family).
    pub structural_checks: usize,
}

/// The `BTreeMap` reference model with duplicate-taint tracking.
///
/// Shared with the concurrent differential mode (`crate::concurrent`),
/// where each writer thread keeps a private `Model` for its own key
/// partition and the partitions are merged after the threads join.
#[derive(Default)]
pub(crate) struct Model {
    pub(crate) map: BTreeMap<u64, Vec<u64>>,
    pub(crate) tainted: BTreeSet<u64>,
    pub(crate) len: usize,
}

impl Model {
    pub(crate) fn insert(&mut self, k: u64, v: u64) {
        let values = self.map.entry(k).or_default();
        values.push(v);
        if values.len() > 1 {
            // Families may store duplicates in different orders; values
            // for this key are no longer comparable.
            self.tainted.insert(k);
        }
        self.len += 1;
    }

    pub(crate) fn delete(&mut self, k: u64) -> bool {
        if let Some(values) = self.map.get_mut(&k) {
            values.pop();
            if values.is_empty() {
                self.map.remove(&k);
                // Fully gone everywhere: a later re-insert is fresh.
                self.tainted.remove(&k);
            }
            self.len -= 1;
            true
        } else {
            false
        }
    }

    pub(crate) fn contains(&self, k: u64) -> bool {
        self.map.contains_key(&k)
    }

    /// The value of `k` when it is exactly one, untainted instance —
    /// the only case where all families must agree on the value.
    pub(crate) fn single_value(&self, k: u64) -> Option<u64> {
        if self.tainted.contains(&k) {
            return None;
        }
        match self.map.get(&k).map(Vec::as_slice) {
            Some([v]) => Some(*v),
            _ => None,
        }
    }

    pub(crate) fn range_keys(&self, s: u64, e: u64) -> Vec<u64> {
        self.map
            .range(s..e)
            .flat_map(|(k, vs)| std::iter::repeat_n(*k, vs.len()))
            .collect()
    }
}

/// One index family under test.
// Exactly three long-lived instances exist per replay, so the size skew
// between variants costs nothing; boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
enum Family {
    Quit(BpTree<u64, u64>),
    Sware(SaBpTree<u64, u64>),
    Concurrent(ConcurrentTree<u64, u64>),
}

impl Family {
    fn name(&self) -> &'static str {
        match self {
            Family::Quit(_) => "BpTree(Quit)",
            Family::Sware(_) => "SaBpTree",
            Family::Concurrent(_) => "ConcurrentTree",
        }
    }

    fn insert(&mut self, k: u64, v: u64) {
        match self {
            Family::Quit(t) => SortedIndex::insert(t, k, v),
            Family::Sware(t) => SortedIndex::insert(t, k, v),
            Family::Concurrent(t) => SortedIndex::insert(t, k, v),
        }
    }

    fn insert_batch(&mut self, entries: &[(u64, u64)]) {
        match self {
            Family::Quit(t) => {
                SortedIndex::insert_batch(t, entries);
            }
            Family::Sware(t) => {
                SortedIndex::insert_batch(t, entries);
            }
            Family::Concurrent(t) => {
                SortedIndex::insert_batch(t, entries);
            }
        }
    }

    /// Applies a sorted run. `BpTree` takes its dedicated append path when
    /// the run still sits above the current max key (shrinking can remove
    /// the ops that established the watermark, so this must stay total);
    /// an empty `ConcurrentTree` is rebuilt by its bottom-up `bulk_load`,
    /// so the rest of the sequence mutates a bulk-loaded tree; otherwise
    /// the families batch-insert.
    fn bulk_load(&mut self, entries: &[(u64, u64)]) {
        match self {
            Family::Quit(t) => {
                let appendable = entries.windows(2).all(|w| w[0].0 < w[1].0)
                    && t.max_key().is_none_or(|m| entries[0].0 >= m);
                if appendable {
                    t.append_sorted(entries.iter().copied());
                } else {
                    t.insert_batch(entries);
                }
            }
            Family::Concurrent(t)
                if t.is_empty() && entries.windows(2).all(|w| w[0].0 <= w[1].0) =>
            {
                *t = ConcurrentTree::bulk_load(t.config().clone(), entries.to_vec());
            }
            _ => self.insert_batch(entries),
        }
    }

    fn get(&mut self, k: u64) -> Option<u64> {
        match self {
            Family::Quit(t) => SortedIndex::get(t, k),
            Family::Sware(t) => SortedIndex::get(t, k),
            Family::Concurrent(t) => SortedIndex::get(t, k),
        }
    }

    fn delete(&mut self, k: u64) -> Option<u64> {
        match self {
            Family::Quit(t) => SortedIndex::delete(t, k),
            Family::Sware(t) => SortedIndex::delete(t, k),
            Family::Concurrent(t) => SortedIndex::delete(t, k),
        }
    }

    fn range(&mut self, s: u64, e: u64) -> Vec<(u64, u64)> {
        match self {
            Family::Quit(t) => SortedIndex::range(t, s..e).collect(),
            Family::Sware(t) => SortedIndex::range(t, s..e).collect(),
            Family::Concurrent(t) => SortedIndex::range(t, s..e).collect(),
        }
    }

    fn reset_metrics(&self) {
        match self {
            Family::Quit(t) => SortedIndex::<u64, u64>::reset_metrics(t),
            Family::Sware(t) => SortedIndex::<u64, u64>::reset_metrics(t),
            Family::Concurrent(t) => SortedIndex::<u64, u64>::reset_metrics(t),
        }
    }

    fn len(&self) -> usize {
        match self {
            Family::Quit(t) => t.len(),
            Family::Sware(t) => t.len(),
            Family::Concurrent(t) => t.len(),
        }
    }

    /// The family's full structural invariant suite.
    fn check_structure(&self) -> Result<(), String> {
        match self {
            Family::Quit(t) => t.check_invariants().map_err(|e| e.to_string()),
            Family::Sware(t) => t.check_invariants(),
            Family::Concurrent(t) => t.check_consistency(),
        }
    }
}

/// Replays `ops` against the model and every family, comparing observable
/// behaviour op-by-op. Returns the first [`Divergence`], if any.
pub fn replay(ops: &[Op], config: &OracleConfig) -> Result<ReplayReport, Divergence> {
    let storage = match config.backend {
        OracleBackend::Arena => StorageKind::Arena,
        OracleBackend::Paged { pool_pages } => StorageKind::paged(pool_pages),
    };
    let tree_config = TreeConfig::small(config.leaf_capacity).with_storage(storage);
    let mut sware_config = SwareConfig::small(config.buffer_capacity, config.leaf_capacity);
    sware_config.tree_config = sware_config.tree_config.with_storage(storage);
    // The concurrent tree has no paged backend: same knobs, on the arena.
    let conc_config = tree_config.clone().with_storage(StorageKind::Arena);
    let mut families = vec![
        Family::Quit(Variant::Quit.build(tree_config)),
        Family::Sware(SaBpTree::new(sware_config)),
        Family::Concurrent(ConcurrentTree::new(conc_config)),
    ];
    let mut model = Model::default();
    let mut report = ReplayReport::default();
    let check_every = config.check_every.max(1);

    for (i, op) in ops.iter().enumerate() {
        let structural_due = match op {
            Op::Insert(k, v) => {
                model.insert(*k, *v);
                for f in &mut families {
                    f.insert(*k, *v);
                }
                false
            }
            Op::InsertBatch(entries) => {
                for &(k, v) in entries {
                    model.insert(k, v);
                }
                for f in &mut families {
                    f.insert_batch(entries);
                }
                true
            }
            Op::BulkLoad(entries) => {
                for &(k, v) in entries {
                    model.insert(k, v);
                }
                for f in &mut families {
                    f.bulk_load(entries);
                }
                true
            }
            Op::Get(k) => {
                let expect = model.contains(*k);
                let single = model.single_value(*k);
                for f in &mut families {
                    let got = f.get(*k);
                    if got.is_some() != expect {
                        return Err(diverge(
                            f,
                            i,
                            format!("get({k}) presence {} vs model {expect}", got.is_some()),
                        ));
                    }
                    if let (Some(want), Some(have)) = (single, got) {
                        if want != have {
                            return Err(diverge(
                                f,
                                i,
                                format!("get({k}) = {have} vs model {want}"),
                            ));
                        }
                    }
                }
                false
            }
            Op::Delete(k) => {
                let expect = model.contains(*k);
                let single = model.single_value(*k);
                for f in &mut families {
                    let got = f.delete(*k);
                    if got.is_some() != expect {
                        return Err(diverge(
                            f,
                            i,
                            format!("delete({k}) presence {} vs model {expect}", got.is_some()),
                        ));
                    }
                    if let (Some(want), Some(have)) = (single, got) {
                        if want != have {
                            return Err(diverge(
                                f,
                                i,
                                format!("delete({k}) = {have} vs model {want}"),
                            ));
                        }
                    }
                }
                model.delete(*k);
                false
            }
            Op::Range(s, e) => {
                let want_keys = model.range_keys(*s, *e);
                for f in &mut families {
                    let got = f.range(*s, *e);
                    let got_keys: Vec<u64> = got.iter().map(|&(k, _)| k).collect();
                    if got_keys != want_keys {
                        return Err(diverge(
                            f,
                            i,
                            format!("range({s},{e}) keys {got_keys:?} vs model {want_keys:?}"),
                        ));
                    }
                    for &(k, v) in &got {
                        if let Some(want) = model.single_value(k) {
                            if v != want {
                                return Err(diverge(
                                    f,
                                    i,
                                    format!("range({s},{e}) value at key {k}: {v} vs model {want}"),
                                ));
                            }
                        }
                    }
                }
                false
            }
            Op::ResetMetrics => {
                for f in &families {
                    f.reset_metrics();
                }
                false
            }
        };
        report.ops += 1;

        for f in &families {
            if f.len() != model.len {
                return Err(diverge(
                    f,
                    i,
                    format!("len {} vs model {}", f.len(), model.len),
                ));
            }
        }
        if structural_due || (i + 1) % check_every == 0 {
            check_all(&families, i, &mut report)?;
        }
    }

    // Final sweep: structure plus full contents.
    check_all(&families, ops.len().saturating_sub(1), &mut report)?;
    let want_all = model.range_keys(0, u64::MAX);
    for f in &mut families {
        let got: Vec<u64> = f.range(0, u64::MAX).iter().map(|&(k, _)| k).collect();
        if got != want_all {
            return Err(diverge(
                f,
                ops.len().saturating_sub(1),
                format!(
                    "final contents: {} keys vs model {} (first mismatch at {:?})",
                    got.len(),
                    want_all.len(),
                    got.iter().zip(&want_all).position(|(a, b)| a != b)
                ),
            ));
        }
    }
    Ok(report)
}

/// [`replay`], but converting panics inside an index into a [`Divergence`]
/// so the shrinker can minimize panicking sequences too.
pub fn replay_guarded(ops: &[Op], config: &OracleConfig) -> Result<ReplayReport, Divergence> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| replay(ops, config))) {
        Ok(result) => result,
        Err(payload) => Err(Divergence {
            family: "(panic)",
            op_index: usize::MAX,
            detail: proptest::test_runner::panic_message(payload),
        }),
    }
}

fn diverge(family: &Family, op_index: usize, detail: String) -> Divergence {
    Divergence {
        family: family.name(),
        op_index,
        detail,
    }
}

fn check_all(
    families: &[Family],
    op_index: usize,
    report: &mut ReplayReport,
) -> Result<(), Divergence> {
    for f in families {
        f.check_structure()
            .map_err(|detail| diverge(f, op_index, detail))?;
    }
    report.structural_checks += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{OpMix, WorkloadSpec};

    #[test]
    fn empty_and_tiny_sequences_replay() {
        let cfg = OracleConfig::default();
        assert!(replay(&[], &cfg).is_ok());
        let ops = vec![
            Op::Insert(5, 1),
            Op::Get(5),
            Op::Delete(5),
            Op::Get(5),
            Op::ResetMetrics,
            Op::Range(0, 10),
        ];
        let report = replay(&ops, &cfg).unwrap();
        assert_eq!(report.ops, 6);
        assert!(report.structural_checks >= 1);
    }

    #[test]
    fn duplicate_deletes_do_not_false_positive() {
        // Two instances of key 3 with different values: families may
        // remove either instance; the taint logic must absorb that.
        let ops = vec![
            Op::Insert(3, 1),
            Op::Insert(3, 2),
            Op::Delete(3),
            Op::Get(3),
            Op::Range(0, 10),
            Op::Delete(3),
            Op::Get(3),
        ];
        replay(&ops, &OracleConfig::default()).unwrap();
    }

    #[test]
    fn bulk_load_fallback_survives_out_of_order_runs() {
        // A shrunk-looking sequence where the bulk run is *not* above the
        // current max: the oracle must fall back, not panic.
        let ops = vec![
            Op::Insert(100, 1),
            Op::BulkLoad(vec![(10, 2), (11, 3)]),
            Op::Range(0, 200),
        ];
        replay(&ops, &OracleConfig::default()).unwrap();
    }

    #[test]
    fn generated_workloads_replay_clean() {
        for seed in 0..4u64 {
            let ops = WorkloadSpec {
                ops: 800,
                seed,
                k_fraction: 0.1 * seed as f64,
                mix: if seed % 2 == 0 {
                    OpMix::mixed()
                } else {
                    OpMix::ingest_heavy()
                },
                ..WorkloadSpec::default()
            }
            .generate();
            replay(&ops, &OracleConfig::default()).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        }
    }
}
