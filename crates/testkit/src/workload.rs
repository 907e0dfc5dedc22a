//! Structure-aware workload generation.
//!
//! A [`WorkloadSpec`] turns a seed plus the paper's BoDS sortedness knobs
//! (K% of keys out of place, L% displacement distance — the same
//! [`bods::BodsSpec`] distributions `quit-bench` drives its ingest
//! experiments with) into a sequence of [`Op`]s, and [`WorkloadStrategy`]
//! wraps that in a `proptest` [`Strategy`] whose `shrink` does real delta
//! debugging: aligned chunk removal over the op sequence, then per-op
//! minimization.

use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

/// Largest `InsertBatch` a generated workload emits.
pub const MAX_BATCH: usize = 16;
/// Largest `BulkLoad` run a generated workload emits.
pub const MAX_BULK: usize = 32;

/// One operation against every index family and the model at once.
///
/// Keys are `u64` (the paper's experiments index integer and integer-coded
/// attributes); values tag arrival order so the oracle can compare values,
/// not just key multiplicity, wherever that is well-defined.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Point insert (duplicates allowed and retained).
    Insert(u64, u64),
    /// Batched insert, exploiting sorted runs where the family can.
    InsertBatch(Vec<(u64, u64)>),
    /// Point lookup.
    Get(u64),
    /// Point delete of one instance.
    Delete(u64),
    /// Ordered scan of `[start, end)`.
    Range(u64, u64),
    /// A sorted run above every previously generated key — eligible for
    /// `BpTree::append_sorted` in the original sequence (shrinking may
    /// break the watermark ordering; the oracle falls back to a batched
    /// insert in that case, so every shrunk sequence stays valid).
    BulkLoad(Vec<(u64, u64)>),
    /// Zeroes every family's metrics registry; contents must be untouched.
    ResetMetrics,
}

/// Relative weights for each op kind in a generated workload.
#[derive(Clone, Copy, Debug)]
pub struct OpMix {
    /// Weight of [`Op::Insert`].
    pub insert: u32,
    /// Weight of [`Op::InsertBatch`].
    pub insert_batch: u32,
    /// Weight of [`Op::Get`].
    pub get: u32,
    /// Weight of [`Op::Delete`].
    pub delete: u32,
    /// Weight of [`Op::Range`].
    pub range: u32,
    /// Weight of [`Op::BulkLoad`].
    pub bulk_load: u32,
    /// Weight of [`Op::ResetMetrics`].
    pub reset_metrics: u32,
}

impl OpMix {
    /// The default mixed read/write workload.
    pub fn mixed() -> Self {
        OpMix {
            insert: 52,
            insert_batch: 8,
            get: 16,
            delete: 10,
            range: 9,
            bulk_load: 3,
            reset_metrics: 2,
        }
    }

    /// Ingest-dominated: the regime where the QuIT fast paths (and their
    /// split/reset edge cases) fire constantly.
    pub fn ingest_heavy() -> Self {
        OpMix {
            insert: 72,
            insert_batch: 10,
            get: 6,
            delete: 2,
            range: 8,
            bulk_load: 1,
            reset_metrics: 1,
        }
    }

    fn total(&self) -> u64 {
        [
            self.insert,
            self.insert_batch,
            self.get,
            self.delete,
            self.range,
            self.bulk_load,
            self.reset_metrics,
        ]
        .iter()
        .map(|&w| w as u64)
        .sum()
    }
}

impl Default for OpMix {
    fn default() -> Self {
        OpMix::mixed()
    }
}

/// Deterministic recipe for one workload: seed, length, sortedness knobs,
/// and op mix.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Number of operations to generate.
    pub ops: usize,
    /// BoDS K: fraction of insert keys displaced out of sorted order.
    pub k_fraction: f64,
    /// BoDS L: displacement distance as a fraction of the stream length.
    pub l_fraction: f64,
    /// Seed for both the key stream and the op-kind choices.
    pub seed: u64,
    /// Relative op-kind weights.
    pub mix: OpMix,
    /// Probability that a point insert re-uses an already-inserted key
    /// (exercises duplicate handling).
    pub dup_fraction: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            ops: 1000,
            k_fraction: 0.05,
            l_fraction: 1.0,
            seed: 0,
            mix: OpMix::mixed(),
            dup_fraction: 0.05,
        }
    }
}

/// Internal op-kind tags for the two-pass generator.
#[derive(Clone, Copy)]
enum Kind {
    Insert,
    Batch(usize),
    Get,
    Delete,
    Range,
    Bulk(usize),
    Reset,
}

/// Walks the weight table with a uniform draw in `[0, mix.total())`.
/// Batch/bulk lengths are drawn here so the RNG consumption per op is
/// fixed by the kind alone.
fn choose_kind(mix: &OpMix, mut pick: u32, rng: &mut TestRng) -> Kind {
    if pick < mix.insert {
        return Kind::Insert;
    }
    pick -= mix.insert;
    if pick < mix.insert_batch {
        return Kind::Batch(2 + rng.below((MAX_BATCH - 1) as u64) as usize);
    }
    pick -= mix.insert_batch;
    if pick < mix.get {
        return Kind::Get;
    }
    pick -= mix.get;
    if pick < mix.delete {
        return Kind::Delete;
    }
    pick -= mix.delete;
    if pick < mix.range {
        return Kind::Range;
    }
    pick -= mix.range;
    if pick < mix.bulk_load {
        return Kind::Bulk(2 + rng.below((MAX_BULK - 1) as u64) as usize);
    }
    Kind::Reset
}

impl WorkloadSpec {
    /// Generates the op sequence. Deterministic in the spec.
    ///
    /// Insert keys are drawn, in order, from a [`bods::BodsSpec`] stream
    /// with this spec's K/L knobs, so a `k_fraction` of 0 replays the
    /// paper's fully sorted ingest and higher values inject bounded
    /// disorder — the exact regimes that steer the poℓe fast path between
    /// its catch-up, variable-split, and reset behaviours. `BulkLoad` runs
    /// are placed above a high watermark so the original sequence is
    /// `append_sorted`-eligible.
    pub fn generate(&self) -> Vec<Op> {
        let mut rng = TestRng::from_seed(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        let mix_total = self.mix.total().max(1);

        // Pass 1: choose op kinds (and batch lengths), counting how many
        // stream keys the inserts will consume.
        let mut kinds = Vec::with_capacity(self.ops);
        let mut stream_demand = 0usize;
        for _ in 0..self.ops {
            let pick = rng.below(mix_total) as u32;
            let kind = choose_kind(&self.mix, pick, &mut rng);
            match kind {
                Kind::Insert => stream_demand += 1,
                Kind::Batch(len) => stream_demand += len,
                _ => {}
            }
            kinds.push(kind);
        }

        // Pass 2: materialize keys. The insert stream is a K/L-perturbed
        // permutation prefix of `0..stream_demand`; bulk runs live above it.
        let stream = bods::BodsSpec::new(
            stream_demand.max(1),
            self.k_fraction.clamp(0.0, 1.0),
            self.l_fraction.clamp(0.0, 1.0),
        )
        .with_seed(self.seed)
        .generate();
        let mut stream = stream.into_iter();
        let key_space = stream_demand.max(1) as u64;
        let mut watermark = key_space;
        let mut next_value = 0u64;
        let mut value = || {
            next_value += 1;
            next_value
        };
        let mut inserted: Vec<u64> = Vec::new();
        let dup_milli = (self.dup_fraction.clamp(0.0, 1.0) * 1000.0) as u64;

        let mut ops = Vec::with_capacity(self.ops);
        for kind in kinds {
            let op = match kind {
                Kind::Insert => {
                    let k = if !inserted.is_empty() && rng.below(1000) < dup_milli {
                        inserted[rng.below(inserted.len() as u64) as usize]
                    } else {
                        stream.next().unwrap_or_else(|| rng.below(key_space))
                    };
                    inserted.push(k);
                    Op::Insert(k, value())
                }
                Kind::Batch(len) => {
                    let mut entries = Vec::with_capacity(len);
                    for _ in 0..len {
                        let k = stream.next().unwrap_or_else(|| rng.below(key_space));
                        inserted.push(k);
                        entries.push((k, value()));
                    }
                    Op::InsertBatch(entries)
                }
                Kind::Get => Op::Get(self.point_key(&mut rng, &inserted, key_space)),
                Kind::Delete => Op::Delete(self.point_key(&mut rng, &inserted, key_space)),
                Kind::Range => {
                    let start = self.point_key(&mut rng, &inserted, key_space);
                    let width = rng.below(200);
                    Op::Range(start, start.saturating_add(width))
                }
                Kind::Bulk(len) => {
                    let entries: Vec<(u64, u64)> =
                        (0..len as u64).map(|i| (watermark + i, value())).collect();
                    watermark += len as u64;
                    for &(k, _) in &entries {
                        inserted.push(k);
                    }
                    Op::BulkLoad(entries)
                }
                Kind::Reset => Op::ResetMetrics,
            };
            ops.push(op);
        }
        ops
    }

    /// A key for point reads/deletes/scan starts: biased toward keys that
    /// exist (70%), with misses from the full key space otherwise.
    fn point_key(&self, rng: &mut TestRng, inserted: &[u64], key_space: u64) -> u64 {
        if !inserted.is_empty() && rng.below(10) < 7 {
            inserted[rng.below(inserted.len() as u64) as usize]
        } else {
            rng.below(key_space + 8)
        }
    }
}

/// A proptest [`Strategy`] over op sequences with real shrinking.
///
/// `sample` draws a fresh [`WorkloadSpec`] (length, K/L knobs, mix) and
/// generates it; `shrink` performs delta debugging directly on the op
/// sequence — aligned chunk removal, largest chunks first, then per-op
/// minimization (batch halving, range narrowing, key/value bisection) —
/// so counterexamples arrive as short, concrete op lists rather than as an
/// opaque seed.
#[derive(Clone, Debug)]
pub struct WorkloadStrategy {
    /// Minimum generated sequence length (before shrinking).
    pub min_ops: usize,
    /// Maximum generated sequence length.
    pub max_ops: usize,
    /// Upper bound (in thousandths) for the sampled K knob.
    pub k_milli_max: u64,
    /// Candidate op mixes; each sample picks one.
    pub mixes: Vec<OpMix>,
}

impl WorkloadStrategy {
    /// Mixed read/write workloads up to `max_ops` operations.
    pub fn mixed(max_ops: usize) -> Self {
        WorkloadStrategy {
            min_ops: 1,
            max_ops,
            k_milli_max: 500,
            mixes: vec![OpMix::mixed(), OpMix::ingest_heavy()],
        }
    }

    /// Ingest-dominated, near-sorted workloads — the regime that drives
    /// the poℓe split machinery hardest (used by the mutation smoke
    /// check).
    pub fn ingest_heavy(max_ops: usize) -> Self {
        WorkloadStrategy {
            min_ops: 16,
            max_ops,
            k_milli_max: 300,
            mixes: vec![OpMix::ingest_heavy()],
        }
    }
}

impl Strategy for WorkloadStrategy {
    type Value = Vec<Op>;

    fn sample(&self, rng: &mut TestRng) -> Vec<Op> {
        let span = (self.max_ops - self.min_ops).max(1) as u64;
        let spec = WorkloadSpec {
            ops: self.min_ops + rng.below(span) as usize,
            k_fraction: rng.below(self.k_milli_max + 1) as f64 / 1000.0,
            l_fraction: (1 + rng.below(1000)) as f64 / 1000.0,
            seed: rng.next_u64(),
            mix: self.mixes[rng.below(self.mixes.len() as u64) as usize],
            dup_fraction: rng.below(200) as f64 / 1000.0,
        };
        spec.generate()
    }

    fn shrink(&self, value: &Vec<Op>) -> Vec<Vec<Op>> {
        shrink_ops(value)
    }
}

/// The streams the exact recovery oracle ([`crate::replay_recovery_exact`])
/// runs. Each sample is, with equal odds, near-sorted (K ≤ 5 %), scrambled
/// (K = L = 100 %), duplicate-heavy (half the point inserts repeat an
/// earlier key) or delete-heavy (about a third of the ops delete, some of
/// them keys that are not there). Shrinks as [`WorkloadStrategy`] does.
#[derive(Clone, Debug)]
pub struct RecoveryStreamStrategy {
    /// Maximum generated sequence length.
    pub max_ops: usize,
}

impl Strategy for RecoveryStreamStrategy {
    type Value = Vec<Op>;

    fn sample(&self, rng: &mut TestRng) -> Vec<Op> {
        let k = rng.below(51) as f64 / 1000.0;
        let l = (1 + rng.below(1000)) as f64 / 1000.0;
        let ingest = OpMix::ingest_heavy();
        let (k_fraction, l_fraction, dup_fraction, mix) = match rng.below(4) {
            0 => (k, l, 0.02, ingest),
            1 => (1.0, 1.0, 0.02, ingest),
            2 => (k, l, 0.5, ingest),
            _ => (
                k,
                l,
                0.1,
                OpMix {
                    delete: 45,
                    ..ingest
                },
            ),
        };
        WorkloadSpec {
            ops: 1 + rng.below(self.max_ops.max(1) as u64) as usize,
            k_fraction,
            l_fraction,
            seed: rng.next_u64(),
            mix,
            dup_fraction,
        }
        .generate()
    }

    fn shrink(&self, value: &Vec<Op>) -> Vec<Vec<Op>> {
        shrink_ops(value)
    }
}

/// One round of delta debugging over an op sequence: aligned chunk
/// removal, largest chunks first, then per-op minimization.
fn shrink_ops(value: &[Op]) -> Vec<Vec<Op>> {
    let n = value.len();
    let mut out: Vec<Vec<Op>> = Vec::new();
    // Phase 1: aligned chunk removal, largest chunks first.
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
    // Phase 2: per-op minimization.
    for (i, op) in value.iter().enumerate() {
        for cand in shrink_op(op) {
            let mut next = value.to_vec();
            next[i] = cand;
            out.push(next);
        }
    }
    out
}

/// One round of strictly simpler variants of a single op.
fn shrink_op(op: &Op) -> Vec<Op> {
    match op {
        Op::Insert(k, v) => {
            let mut out = Vec::new();
            if *k > 0 {
                out.push(Op::Insert(k / 2, *v));
                out.push(Op::Insert(k - 1, *v));
            }
            if *v > 1 {
                out.push(Op::Insert(*k, 1));
            }
            out
        }
        Op::InsertBatch(entries) => shrink_run(entries, Op::InsertBatch),
        Op::BulkLoad(entries) => shrink_run(entries, Op::BulkLoad),
        Op::Get(k) if *k > 0 => vec![Op::Get(k / 2), Op::Get(k - 1)],
        Op::Delete(k) if *k > 0 => vec![Op::Delete(k / 2), Op::Delete(k - 1)],
        Op::Range(s, e) if e > s => {
            let mut out = vec![Op::Range(*s, s + (e - s) / 2)];
            if *s > 0 {
                out.push(Op::Range(s / 2, e - (s - s / 2)));
            }
            out
        }
        _ => Vec::new(),
    }
}

/// Halves a multi-entry run; a single-entry run decays to a point insert.
fn shrink_run(entries: &[(u64, u64)], wrap: fn(Vec<(u64, u64)>) -> Op) -> Vec<Op> {
    match entries.len() {
        0 => Vec::new(),
        1 => vec![Op::Insert(entries[0].0, entries[0].1)],
        n => {
            let mid = n / 2;
            vec![wrap(entries[..mid].to_vec()), wrap(entries[mid..].to_vec())]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec {
            ops: 500,
            seed: 42,
            ..WorkloadSpec::default()
        };
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn bulk_runs_respect_the_watermark() {
        let spec = WorkloadSpec {
            ops: 2000,
            mix: OpMix {
                bulk_load: 20,
                ..OpMix::mixed()
            },
            seed: 7,
            ..WorkloadSpec::default()
        };
        let ops = spec.generate();
        // The real eligibility invariant: every bulk run is sorted and
        // starts at or above every key inserted before it, so the original
        // sequence is `append_sorted`-eligible end to end.
        let mut max_seen = 0u64;
        let mut bulk_seen = 0;
        for op in &ops {
            match op {
                Op::Insert(k, _) => max_seen = max_seen.max(*k),
                Op::InsertBatch(entries) => {
                    for &(k, _) in entries {
                        max_seen = max_seen.max(k);
                    }
                }
                Op::BulkLoad(entries) => {
                    bulk_seen += 1;
                    assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "run sorted");
                    let first = entries.first().unwrap().0;
                    assert!(first >= max_seen, "run starts at or above every prior key");
                    max_seen = max_seen.max(entries.last().unwrap().0);
                }
                _ => {}
            }
        }
        assert!(bulk_seen > 0, "mix with weight 20 must emit bulk loads");
    }

    #[test]
    fn sortedness_knob_changes_the_stream() {
        let sorted = WorkloadSpec {
            ops: 400,
            k_fraction: 0.0,
            seed: 3,
            mix: OpMix::ingest_heavy(),
            dup_fraction: 0.0,
            ..WorkloadSpec::default()
        };
        let keys: Vec<u64> = sorted
            .generate()
            .iter()
            .filter_map(|op| match op {
                Op::Insert(k, _) => Some(*k),
                _ => None,
            })
            .collect();
        // K = 0: the point-insert stream is ascending (bulk keys above).
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "K=0 stream sorted");
    }

    /// Chunk removal only ever removes ops — no candidate grows the
    /// sequence — and per-op shrinking preserves the sequence length.
    #[test]
    fn shrink_candidates_never_grow() {
        let strategy = WorkloadStrategy::mixed(200);
        let ops = WorkloadSpec {
            ops: 120,
            seed: 11,
            ..WorkloadSpec::default()
        }
        .generate();
        for cand in strategy.shrink(&ops) {
            assert!(cand.len() <= ops.len(), "candidate grew");
            assert_ne!(cand, ops, "candidate identical to input");
        }
    }

    /// End-to-end shrinking through the proptest runner: a property that
    /// rejects any sequence containing a delete must minimize to exactly
    /// `[Delete(0)]`.
    #[test]
    fn shrinks_to_single_minimal_op() {
        use proptest::test_runner::{Config, Runner};
        let strategy = (WorkloadStrategy::mixed(300),);
        let failure = Runner::new("testkit_shrink_delete", Config::with_cases(64))
            .run(&strategy, |(ops,)| {
                if ops.iter().any(|op| matches!(op, Op::Delete(_))) {
                    Err("sequence contains a delete".to_string())
                } else {
                    Ok(())
                }
            })
            .expect_err("mixed workloads contain deletes");
        let minimal = &failure.minimal.0;
        assert_eq!(minimal.len(), 1, "minimal: {minimal:?}");
        assert_eq!(minimal[0], Op::Delete(0), "minimal: {minimal:?}");
    }
}
