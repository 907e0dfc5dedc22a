//! The differential fuzz suite CI runs: fixed-seed soaks replaying ≥ 50k
//! mixed ops per index family against the `BTreeMap` model, plus a
//! proptest-driven run that exercises the shrinking/persistence path on
//! freshly sampled workloads.
//!
//! Scale it up locally with `QUIT_FUZZ_CASES` (each case adds one
//! seed × knob grid sweep, ~5.5k ops).

// The injected split/search bugs (mutation smoke checks) intentionally
// break these properties; cargo's feature unification applies them to the
// whole test run, so the clean differential suite steps aside. See
// tests/mutation_smoke.rs and tests/search_mutation_smoke.rs.
#![cfg(not(any(
    feature = "inject-split-bug",
    feature = "inject-search-bug",
    feature = "inject-pin-bug"
)))]

use proptest::prelude::*;
use quit_testkit::{
    fuzz_cases, replay, OpMix, OracleBackend, OracleConfig, WorkloadSpec, WorkloadStrategy,
};

/// Knob grid: (K fraction, L fraction) pairs covering sorted, near-sorted,
/// locally scrambled, and fully random ingest — the BoDS regimes of §5.
const KL_GRID: [(f64, f64); 5] = [(0.0, 1.0), (0.05, 1.0), (0.2, 0.25), (0.5, 1.0), (1.0, 0.1)];

/// ≥ 50k mixed ops per family at fixed seeds, across the K/L grid, two op
/// mixes and two tree geometries.
#[test]
fn fixed_seed_soak() {
    let cases = fuzz_cases(10);
    let geometries = [
        OracleConfig::default(),
        OracleConfig {
            leaf_capacity: 4,
            buffer_capacity: 8,
            check_every: 128,
            ..OracleConfig::default()
        },
    ];
    let mut total_ops = 0usize;
    for case in 0..cases {
        for (g, (k, l)) in KL_GRID.iter().enumerate() {
            let spec = WorkloadSpec {
                ops: 560,
                k_fraction: *k,
                l_fraction: *l,
                seed: 0xD1FF_0000 ^ ((case as u64) << 8) ^ g as u64,
                mix: if (case + g).is_multiple_of(2) {
                    OpMix::mixed()
                } else {
                    OpMix::ingest_heavy()
                },
                dup_fraction: 0.08,
            };
            let ops = spec.generate();
            for cfg in &geometries {
                let report =
                    replay(&ops, cfg).unwrap_or_else(|d| panic!("case {case} K={k} L={l}: {d}"));
                total_ops += report.ops;
            }
        }
    }
    // 10 cases × 5 grid points × 2 geometries × 560 ops = 56k per family.
    assert!(
        total_ops >= 50_000 || cases < 10,
        "soak must replay ≥ 50k ops per family, got {total_ops}"
    );
    eprintln!("differential soak: {total_ops} ops per family, no divergence");
}

/// The same fixed-seed soak on the **paged** backend, with the buffer
/// pool capped at roughly 1/8 of the working set so nearly every op
/// contends with faults and evictions. The oracle demands *exact* model
/// equality op-by-op, so a page served stale (a pin dropped early, a torn
/// eviction, a miscoded node) surfaces as a divergence, not a perf blip.
#[test]
fn fixed_seed_soak_paged_under_pressure() {
    let cases = fuzz_cases(10);
    // ~560 ops at leaf capacity 8 settle around 60–120 live nodes; an
    // 8–16 page pool keeps residency near 1/8 of that working set.
    let geometries = [
        OracleConfig::default().with_backend(OracleBackend::Paged { pool_pages: 16 }),
        OracleConfig {
            leaf_capacity: 4,
            buffer_capacity: 8,
            check_every: 128,
            ..OracleConfig::default()
        }
        .with_backend(OracleBackend::Paged { pool_pages: 8 }),
    ];
    let mut total_ops = 0usize;
    for case in 0..cases {
        for (g, (k, l)) in KL_GRID.iter().enumerate() {
            let spec = WorkloadSpec {
                ops: 560,
                k_fraction: *k,
                l_fraction: *l,
                seed: 0x9A6E_D000 ^ ((case as u64) << 8) ^ g as u64,
                mix: if (case + g).is_multiple_of(2) {
                    OpMix::mixed()
                } else {
                    OpMix::ingest_heavy()
                },
                dup_fraction: 0.08,
            };
            let ops = spec.generate();
            for cfg in &geometries {
                let report = replay(&ops, cfg).unwrap_or_else(|d| {
                    panic!("paged case {case} K={k} L={l} {:?}: {d}", cfg.backend)
                });
                total_ops += report.ops;
            }
        }
    }
    assert!(
        total_ops >= 50_000 || cases < 10,
        "paged soak must replay ≥ 50k ops per family, got {total_ops}"
    );
    eprintln!("paged differential soak: {total_ops} ops per family, no divergence");
}

/// The cold-read differential. It reopens a durable store from its WAL
/// tail, so it steps aside under the planted WAL bug as well.
#[cfg(not(feature = "inject-wal-bug"))]
mod cold_reads {
    use quit_core::{BpTree, FastPathMode, SortedIndex, StorageKind, TreeConfig};
    use quit_durability::{DurabilityConfig, Durable, MemStorage, Storage};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// A paged tree behind `Durable`, its arena twin fed the same operations,
    /// and a multiplicity model — all driven through `SortedIndex` only, the
    /// surface whose reads answer out of cold leaves' pages in place.
    struct ColdReadRig {
        paged: Durable<BpTree<u64, u64>>,
        arena: BpTree<u64, u64>,
        model: BTreeMap<u64, usize>,
        disk: Arc<MemStorage>,
        config: TreeConfig,
        pool: usize,
    }

    /// Leaf capacity of the cold-read rig: internal nodes are then ≈ 1/16 of
    /// the tree, so the n/8 pool holds them all with room to spare.
    const COLD_LEAF_CAPACITY: usize = 32;
    /// Keys with a duplicate run long enough to span several leaves. Never
    /// deleted, so both trees agree on every instance's value.
    const COLD_DUP_KEYS: [u64; 5] = [1000, 1001, 7776, 12_500, 14_444];

    impl ColdReadRig {
        fn open_store(
            disk: &Arc<MemStorage>,
            config: &TreeConfig,
            pool: usize,
        ) -> Durable<BpTree<u64, u64>> {
            Durable::open_paged(
                disk.clone() as Arc<dyn Storage>,
                DurabilityConfig::buffered(),
                FastPathMode::Pole,
                config.clone().with_storage(StorageKind::paged(pool)),
            )
            .expect("open paged store")
            .0
        }

        /// An empty paged store on a fresh disk, and its empty arena twin.
        fn new(config: &TreeConfig, pool: usize) -> Self {
            let disk = Arc::new(MemStorage::new());
            ColdReadRig {
                paged: Self::open_store(&disk, config, pool),
                arena: BpTree::with_config(FastPathMode::Pole, config.clone()),
                model: BTreeMap::new(),
                disk,
                config: config.clone(),
                pool,
            }
        }

        /// Drops the paged store and recovers it from what its disk holds.
        fn reopen(self) -> Self {
            let ColdReadRig {
                paged,
                arena,
                model,
                disk,
                config,
                pool,
            } = self;
            drop(paged);
            ColdReadRig {
                paged: Self::open_store(&disk, &config, pool),
                arena,
                model,
                disk,
                config,
                pool,
            }
        }

        fn insert_batch(&mut self, entries: &[(u64, u64)]) {
            self.paged.insert_batch(entries);
            SortedIndex::insert_batch(&mut self.arena, entries);
            for &(k, _) in entries {
                *self.model.entry(k).or_default() += 1;
            }
        }

        fn delete(&mut self, k: u64) {
            let got = self.paged.delete(k);
            assert_eq!(got, SortedIndex::delete(&mut self.arena, k), "delete({k})");
            assert_eq!(got.is_some(), self.model.contains_key(&k), "delete({k})");
            if let Some(n) = self.model.get_mut(&k) {
                *n -= 1;
                if *n == 0 {
                    self.model.remove(&k);
                }
            }
        }

        /// Sorted ingest of the even keys with every fourth batch scattered,
        /// duplicate runs that span leaves,
        /// odd keys landing mid-tree, and deleted stretches that take slot 0
        /// (and its separator's key) out of the leaf the stretch ends in.
        fn load(&mut self, from: u64, to: u64) {
            let keys: Vec<u64> = (from..to).step_by(2).collect();
            for (b, batch) in keys.chunks(256).enumerate() {
                let mut entries: Vec<(u64, u64)> = batch.iter().map(|&k| (k, k ^ 0xC01D)).collect();
                if b % 4 == 3 {
                    let n = entries.len();
                    entries = (0..n).map(|i| entries[i * 131 % n]).collect();
                }
                self.insert_batch(&entries);
            }
            for &d in COLD_DUP_KEYS.iter().filter(|d| (from..to).contains(d)) {
                let run: Vec<(u64, u64)> = (0..100).map(|i| (d, d * 1000 + i)).collect();
                self.insert_batch(&run);
            }
            let odd: Vec<(u64, u64)> = (from..to).filter(|k| k % 10 == 7).map(|k| (k, k)).collect();
            self.insert_batch(&odd);
            let stretch = 3 * COLD_LEAF_CAPACITY as u64;
            for start in (from + 300..to).step_by(1500) {
                for k in start..start + stretch {
                    if !COLD_DUP_KEYS.contains(&k) {
                        self.delete(k);
                    }
                }
            }
        }

        /// Every key of `lo..hi` — present, absent between two entries,
        /// deleted below a leaf's first key, duplicated across leaves — and a
        /// set of scans: the paged tree, its twin and the model agree, and no
        /// read leaves residency further above the budget than the nodes its
        /// faulting part may touch.
        fn check_reads(&mut self, lo: u64, hi: u64, ctx: &str) {
            let height = self.paged.inner().height();
            let budget = self.pool + height + 2;
            for k in lo..hi {
                let got = self.paged.get(k);
                assert_eq!(got, SortedIndex::get(&mut self.arena, k), "{ctx}: get({k})");
                assert_eq!(
                    got.is_some(),
                    self.model.contains_key(&k),
                    "{ctx}: get({k})"
                );
                let resident = self.paged.inner().resident_nodes();
                // A run of 100 duplicates walks back through its leaves.
                let walk = if COLD_DUP_KEYS.contains(&k) { 100 } else { 0 };
                assert!(
                    resident <= budget + walk,
                    "{ctx}: get({k}) left {resident} resident"
                );
            }
            let windows = (lo..hi).step_by(997).map(|a| (a, a + 1000));
            for (a, b) in windows.chain([(lo, hi), (0, u64::MAX)]) {
                let got: Vec<(u64, u64)> = self.paged.range(a..b).collect();
                let resident = self.paged.inner().resident_nodes();
                assert!(
                    resident <= budget,
                    "{ctx}: range({a}..{b}) left {resident} resident"
                );
                let twin: Vec<(u64, u64)> = SortedIndex::range(&mut self.arena, a..b).collect();
                assert_eq!(got, twin, "{ctx}: range({a}..{b})");
                let keys = self
                    .model
                    .range(a..b)
                    .flat_map(|(&k, &n)| std::iter::repeat_n(k, n));
                assert!(
                    got.iter().map(|e| e.0).eq(keys),
                    "{ctx}: range({a}..{b}) keys"
                );
                let stats = self.paged.range_with_stats(a..b);
                let twin_stats = SortedIndex::range_with_stats(&mut self.arena, a..b);
                assert_eq!(stats.entries, got, "{ctx}: range_with_stats({a}..{b})");
                assert_eq!(
                    stats.leaf_accesses, twin_stats.leaf_accesses,
                    "{ctx}: Fig 10c count"
                );
            }
        }

        /// Gets whose leaf is cold install nothing: once the internal nodes
        /// they descend through are resident, a whole pass over them moves
        /// neither `resident_nodes()` nor the eviction count — while still
        /// reading pages (faults rise). Only meaningful when the pool can hold
        /// every internal node; a faulting read path never settles, because
        /// each pass installs more leaves than the pool has frames.
        fn assert_cold_gets_install_nothing(&mut self, lo: u64, hi: u64, ctx: &str) {
            let pool_state = |rig: &Self| {
                let m = rig.paged.metrics();
                (
                    rig.paged.inner().resident_nodes(),
                    m.page_evictions,
                    m.page_faults,
                )
            };
            // Probes a cold leaf answered by itself the first time round.
            let mut cold = Vec::new();
            for k in (lo..hi).map(|i| lo + (i - lo) * 7919 % (hi - lo)) {
                let (resident, _, faults) = pool_state(self);
                self.paged.get(k);
                let (now_resident, _, now_faults) = pool_state(self);
                if now_resident == resident && now_faults == faults + 1 {
                    cold.push(k);
                }
            }
            let share = cold.len() as f64 / (hi - lo) as f64;
            assert!(
                share > 0.5 && cold.len() > 4 * self.pool,
                "{ctx}: cold share {share:.2}"
            );
            let settled = (0..6).any(|_| {
                let (resident, evictions, faults) = pool_state(self);
                for &k in &cold {
                    self.paged.get(k);
                }
                let (now_resident, now_evictions, now_faults) = pool_state(self);
                now_resident == resident && now_evictions == evictions && now_faults > faults
            });
            assert!(settled, "{ctx}: cold gets kept installing frames");
        }
    }

    /// The cold-read differential: trait-level gets and scans on a paged tree
    /// answer out of pages in place, under pools of 2, 8 and n/8 frames,
    /// against an arena twin and a model — first on the live
    /// `MemPageStore`, then again after `checkpoint_paged`, a WAL tail and a
    /// reopen, where the same reads run over the recovered image and its
    /// delta overlay.
    #[test]
    fn cold_reads_match_twin_and_model() {
        const KEYS: u64 = 12_000;
        const TAIL: u64 = 2_000;
        let config = TreeConfig::small(COLD_LEAF_CAPACITY);
        // Size the n/8 pool off the tree the script builds.
        let mut sizing = ColdReadRig::new(&config, 1 << 20);
        sizing.load(0, KEYS);
        let nodes = sizing.arena.node_count();
        assert!(nodes >= 256, "{nodes} nodes");

        for pool in [2, 8, nodes / 8] {
            let ctx = format!("pool {pool}");
            let mut rig = ColdReadRig::new(&config, pool);
            rig.load(0, KEYS);
            rig.check_reads(0, KEYS + 2, &ctx);
            if pool > 8 {
                rig.assert_cold_gets_install_nothing(0, KEYS, &ctx);
            }

            rig.paged.checkpoint_paged().expect("checkpoint");
            rig.load(KEYS, KEYS + TAIL);
            rig.paged.flush().expect("flush the tail");
            let mut rig = rig.reopen();
            let ctx = format!("{ctx}, reopened");
            assert_eq!(rig.paged.len(), SortedIndex::len(&rig.arena), "{ctx}");
            rig.check_reads(0, KEYS + TAIL + 2, &ctx);
            if pool > 8 {
                rig.assert_cold_gets_install_nothing(0, KEYS + TAIL, &ctx);
            }
            // Writes after recovery land in the delta over the image; the
            // reads must see them there.
            rig.load(KEYS + TAIL, KEYS + 2 * TAIL);
            rig.check_reads(KEYS, KEYS + 2 * TAIL + 2, &ctx);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Freshly sampled workloads (random length, K/L knobs, mix) replay
    /// clean through the full oracle. On failure
    /// this shrinks to a minimal op list and persists the seed next to
    /// this file.
    #[test]
    fn sampled_workloads_replay_clean(ops in WorkloadStrategy::mixed(400)) {
        let report = replay(&ops, &OracleConfig::default()).unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(report.ops, ops.len());
    }

    /// Same, at the smallest legal geometry where structural edge cases
    /// (splits, merges, root collapse, buffer flushes) fire constantly.
    #[test]
    fn sampled_workloads_replay_clean_tiny_nodes(ops in WorkloadStrategy::ingest_heavy(250)) {
        let tiny = OracleConfig {
            leaf_capacity: 4,
            buffer_capacity: 8,
            check_every: 32,
            ..OracleConfig::default()
        };
        replay(&ops, &tiny).unwrap_or_else(|d| panic!("{d}"));
    }
}
