//! Property tests for the shard router — the three claims ISSUE 6 makes
//! about it:
//!
//! 1. every key routes to exactly one shard, and shard ranges tile the
//!    keyspace;
//! 2. splitting a batch at range boundaries preserves per-shard sorted
//!    runs (a sorted batch splits into sorted contiguous slices, and a
//!    BoDS near-sorted stream's per-shard subsequences keep its
//!    sortedness);
//! 3. a merged per-shard differential model equals a single-tree model
//!    after replaying a generated workload through the router.

use proptest::prelude::*;
use quit_concurrent::{ConcurrentTree, TreeConfig};
use quit_core::SortedIndex;
use quit_service::{shard_of, shard_range, shards_overlapping, split_batch};
use quit_testkit::{Op, OpMix, WorkloadSpec};

// ---- 1. routing is a partition ----------------------------------------

proptest! {
    #[test]
    fn every_key_routes_to_exactly_one_shard(key in any::<u64>(), shards in 1usize..64) {
        let s = shard_of(key, shards);
        prop_assert!(s < shards);
        prop_assert!(shard_range(s, shards).contains(&key));
        // No other shard's range claims the key (ranges are disjoint).
        for other in 0..shards {
            if other != s {
                prop_assert!(!shard_range(other, shards).contains(&key));
            }
        }
    }

    #[test]
    fn ranges_tile_with_no_gap_or_overlap(shards in 1usize..64) {
        prop_assert_eq!(*shard_range(0, shards).start(), 0);
        prop_assert_eq!(*shard_range(shards - 1, shards).end(), u64::MAX);
        for s in 0..shards - 1 {
            let hi = *shard_range(s, shards).end();
            prop_assert_eq!(hi.wrapping_add(1), *shard_range(s + 1, shards).start());
        }
    }

    #[test]
    fn overlap_matches_membership(start in any::<u64>(), len in 0u64..1_000_000, shards in 1usize..32) {
        let end = start.saturating_add(len);
        let span = shards_overlapping(start, end, shards);
        for s in 0..shards {
            let r = shard_range(s, shards);
            let intersects = *r.start() <= end && start <= *r.end();
            prop_assert_eq!(span.contains(&s), intersects, "shard {} of {}", s, shards);
        }
    }
}

// ---- 2. splitting preserves sorted runs --------------------------------

proptest! {
    #[test]
    fn sorted_batches_split_into_sorted_contiguous_slices(
        mut keys in proptest::collection::vec(any::<u64>(), 0..500),
        shards in 1usize..16,
    ) {
        keys.sort_unstable();
        let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k ^ 1)).collect();
        let split = split_batch(&entries, shards);
        let mut rebuilt = Vec::new();
        for (shard, run) in &split {
            // Each per-shard run is itself sorted…
            prop_assert!(run.windows(2).all(|w| w[0].0 <= w[1].0));
            // …and every key belongs to the shard that got it.
            prop_assert!(run.iter().all(|(k, _)| shard_of(*k, shards) == *shard));
            rebuilt.extend_from_slice(run);
        }
        // Runs concatenated in shard order are exactly the sorted input:
        // the split cut the batch at range boundaries, nothing more.
        prop_assert_eq!(rebuilt, entries);
    }
}

/// Fraction of adjacent non-descending pairs — 1.0 for a sorted stream.
fn sortedness(keys: &[u64]) -> f64 {
    if keys.len() < 2 {
        return 1.0;
    }
    let ascents = keys.windows(2).filter(|w| w[0] <= w[1]).count();
    ascents as f64 / (keys.len() - 1) as f64
}

/// Range partitioning keeps each shard's subsequence of a BoDS K/L
/// near-sorted stream about as sorted as the whole stream — the property
/// the service's fast-path-rate acceptance criterion rests on. Fixed
/// seeds: this is a statistical claim, not a per-sample invariant.
#[test]
fn near_sorted_streams_stay_near_sorted_per_shard() {
    for (k, l) in [(0.0, 1.0), (0.05, 1.0), (0.2, 0.25)] {
        for seed in [7u64, 99, 12345] {
            let stream = bods_stream(200_000, k, l, seed);
            let global = sortedness(&stream);
            for shards in [2usize, 4, 8] {
                let mut per: Vec<Vec<u64>> = vec![Vec::new(); shards];
                for &key in &stream {
                    per[shard_of(key, shards)].push(key);
                }
                for (shard, keys) in per.iter().enumerate() {
                    assert!(keys.len() > 1000, "stream covers shard {shard}");
                    let local = sortedness(keys);
                    assert!(
                        local >= global - 0.02,
                        "K={k} L={l} seed={seed} shards={shards}: shard {shard} \
                         sortedness {local:.4} fell below global {global:.4}"
                    );
                }
            }
        }
    }
}

/// A BoDS stream scaled up from its dense `0..n` domain to spread across
/// the whole `u64` keyspace (the service partitions `u64`, and dense
/// small keys would all land in shard 0).
fn bods_stream(n: usize, k: f64, l: f64, seed: u64) -> Vec<u64> {
    bods::BodsSpec::new(n, k, l)
        .with_seed(seed)
        .generate()
        .into_iter()
        .map(|key| key.wrapping_mul(u64::MAX / n as u64))
        .collect()
}

// ---- 3. sharded replay ≡ single-tree replay ----------------------------

struct ShardedModel {
    shards: Vec<ConcurrentTree<u64, u64>>,
}

impl ShardedModel {
    fn new(n: usize) -> Self {
        ShardedModel {
            shards: (0..n)
                .map(|_| ConcurrentTree::new(TreeConfig::small(16)))
                .collect(),
        }
    }

    fn apply(&mut self, op: &Op) {
        let n = self.shards.len();
        match op {
            Op::Insert(k, v) => {
                self.shards[shard_of(*k, n)].insert(*k, *v);
            }
            Op::InsertBatch(entries) | Op::BulkLoad(entries) => {
                for (shard, run) in split_batch(entries, n) {
                    SortedIndex::insert_batch(&mut self.shards[shard], &run);
                }
            }
            Op::Get(k) => {
                self.shards[shard_of(*k, n)].get(*k);
            }
            Op::Delete(k) => {
                self.shards[shard_of(*k, n)].delete(*k);
            }
            Op::Range(start, end) => {
                if start < end {
                    for s in shards_overlapping(*start, end - 1, n) {
                        let _ = self.shards[s].range(*start..*end).count();
                    }
                }
            }
            Op::ResetMetrics => {}
        }
    }

    /// Per-shard contents concatenated in shard order — shard ranges are
    /// disjoint and ascending, so this must be globally sorted.
    fn merged(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for t in &self.shards {
            out.extend(t.collect_all());
        }
        out
    }
}

fn replay_sharded_vs_single(spec: &WorkloadSpec, shards: usize) {
    let ops = spec.generate();
    let mut single: ConcurrentTree<u64, u64> = ConcurrentTree::new(TreeConfig::small(16));
    let mut sharded = ShardedModel::new(shards);
    for (i, op) in ops.iter().enumerate() {
        // Reads must agree at every step, not just at the end.
        if let Op::Get(k) = op {
            let a = single.get(*k);
            let b = sharded.shards[shard_of(*k, shards)].get(*k);
            assert_eq!(a, b, "op {i}: get({k}) diverged");
        }
        if let Op::Delete(k) = op {
            let a = single.delete(*k);
            let b = sharded.shards[shard_of(*k, shards)].delete(*k);
            assert_eq!(a, b, "op {i}: delete({k}) diverged");
            continue;
        }
        match op {
            Op::Insert(k, v) => single.insert(*k, *v),
            Op::InsertBatch(e) | Op::BulkLoad(e) => {
                SortedIndex::insert_batch(&mut single, e);
            }
            _ => {}
        }
        sharded.apply(op);
    }
    let merged = sharded.merged();
    assert!(
        merged.windows(2).all(|w| w[0].0 <= w[1].0),
        "merged per-shard contents must be globally sorted"
    );
    assert_eq!(merged, single.collect_all(), "final contents diverged");
    for t in &sharded.shards {
        t.check_consistency().unwrap();
    }
}

#[test]
fn sharded_replay_matches_single_tree_fixed_seeds() {
    for (g, (k, l)) in [(0usize, (0.0, 1.0)), (1, (0.05, 1.0)), (2, (0.5, 1.0))].into_iter() {
        for shards in [1usize, 3, 4] {
            let spec = WorkloadSpec {
                ops: 1200,
                k_fraction: k,
                l_fraction: l,
                seed: 0x5E8A_0000 ^ ((g as u64) << 8) ^ shards as u64,
                mix: OpMix::mixed(),
                dup_fraction: 0.08,
            };
            replay_sharded_vs_single(&spec, shards);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]
    #[test]
    fn sharded_replay_matches_single_tree_sampled(
        seed in any::<u64>(),
        shards in 1usize..6,
        k_pct in 0u32..100,
    ) {
        let k = f64::from(k_pct) / 100.0;
        let spec = WorkloadSpec {
            ops: 400,
            k_fraction: k,
            l_fraction: 0.5,
            seed,
            mix: OpMix::ingest_heavy(),
            dup_fraction: 0.05,
        };
        replay_sharded_vs_single(&spec, shards);
    }
}
