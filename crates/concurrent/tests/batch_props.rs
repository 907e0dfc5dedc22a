//! Properties of the concurrent tree's three batch primitives, each
//! against the per-key path it replaces:
//!
//! - `insert_batch` against a twin tree fed the same entries one `insert`
//!   at a time, over every geometry × layout × OLC × poℓe combination;
//! - `bulk_load` of sorted input with long duplicate runs, then mixed
//!   inserts and deletes, against a multiset model;
//! - `MvccTree::apply_batch` against per-key `MvccTree::apply`;
//! - `get_sorted`, the commit check's leaf-at-a-time read, against
//!   per-key `get` while another thread splits the leaves it visits.
//!
//! Every case derives from a printed seed, so a failure replays exactly.

use quit_concurrent::{ConcConfig, ConcurrentTree, MvccTree};
use quit_core::{MetricsLevel, NodeLayoutKind, TreeConfig};
use rand::prelude::*;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};

fn geometries() -> Vec<TreeConfig> {
    let mut out = Vec::new();
    for tree in [
        TreeConfig::small(3),
        TreeConfig::small(8),
        TreeConfig::paper_default(),
    ] {
        for layout in [NodeLayoutKind::Dense, NodeLayoutKind::Gapped] {
            out.push(tree.clone().with_node_layout(layout));
        }
    }
    out
}

/// One batch: sorted runs, reversed runs, a duplicate run longer than a
/// leaf, and keys below and above whatever the poℓe covers, in random
/// order. Values are unique, so duplicate order is observable.
fn batch(rng: &mut StdRng, cap: usize, next_value: &mut u64) -> Vec<(u64, u64)> {
    let mut keys = Vec::new();
    for _ in 0..rng.gen_range(1..6) {
        let len = rng.gen_range(1..=2 * cap.min(64) + 3);
        let base = match rng.gen_range(0..4) {
            // Far above everything inserted so far: the append frontier.
            0 => 1_000_000 + rng.gen_range(0..1_000_000u64),
            // Low in the key space: below the poℓe.
            1 => rng.gen_range(0..1_000u64),
            _ => rng.gen_range(0..1_000_000u64),
        };
        let run: Vec<u64> = match rng.gen_range(0..5) {
            0 => (0..len as u64).map(|i| base + i).collect(),
            1 => (0..len as u64).rev().map(|i| base + 3 * i).collect(),
            2 => vec![base; cap + 1 + rng.gen_range(0..2 * cap)],
            3 => {
                let mut run: Vec<u64> = (0..len).map(|_| base + rng.gen_range(0..64u64)).collect();
                run.sort_unstable();
                run
            }
            _ => (0..len).map(|_| rng.gen_range(0..2_000_000u64)).collect(),
        };
        keys.extend(run);
    }
    keys.into_iter()
        .map(|k| {
            *next_value += 1;
            (k, *next_value)
        })
        .collect()
}

#[test]
fn insert_batch_matches_a_per_key_twin() {
    let base_seed: u64 = 0xBA7C_4000;
    println!("seed {base_seed:#x}");
    for (g, tree) in geometries().into_iter().enumerate() {
        for (pole, olc) in [(true, true), (true, false), (false, true), (false, false)] {
            let seed = base_seed ^ (g as u64) << 8 ^ u64::from(pole) << 4 ^ u64::from(olc);
            let mut rng = StdRng::seed_from_u64(seed);
            let timed = tree.clone().with_metrics_level(MetricsLevel::Histograms);
            let config = ConcConfig::from_tree(timed).with_pole(pole).with_olc(olc);
            let batched: ConcurrentTree<u64, u64> = ConcurrentTree::new(config.clone());
            let per_key: ConcurrentTree<u64, u64> = ConcurrentTree::new(config);
            let mut value = 0;
            let mut n = 0;
            for round in 0..12 {
                let entries = batch(&mut rng, tree.leaf_capacity, &mut value);
                n += entries.len();
                assert_eq!(batched.insert_batch(&entries), entries.len());
                for &(k, v) in &entries {
                    per_key.insert(k, v);
                }
                let what = format!(
                    "seed {seed:#x} round {round} cap {} {:?} pole {pole} olc {olc}",
                    tree.leaf_capacity, tree.node_layout
                );
                batched
                    .check_consistency()
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                per_key
                    .check_consistency()
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(batched.len(), n, "{what}");
                assert_eq!(per_key.len(), n, "{what}");
                assert!(
                    batched.collect_all() == per_key.collect_all(),
                    "{what}: contents or duplicate order differ"
                );
                assert!(
                    leaves(&batched) == leaves(&per_key),
                    "{what}: leaf boundaries"
                );
                let (b, p) = (batched.stats(), per_key.stats());
                assert_eq!(
                    b.fast_inserts.get() + b.top_inserts.get(),
                    n as u64,
                    "{what}"
                );
                assert!(
                    b.fast_inserts.get() >= p.fast_inserts.get(),
                    "{what}: batch {} fast inserts, per-key {}",
                    b.fast_inserts.get(),
                    p.fast_inserts.get()
                );
                // Chunked entries are timed too: one sample per insert.
                let (bm, pm) = (batched.metrics(), per_key.metrics());
                assert_eq!(bm.insert_latency.count(), n as u64, "{what}");
                assert_eq!(pm.insert_latency.count(), n as u64, "{what}");
            }
        }
    }
}

#[test]
fn upsert_batch_merges_like_per_key_upserts() {
    let seed = 0x0B5E_4700_u64;
    let mut rng = StdRng::seed_from_u64(seed);
    for tree in geometries() {
        let config =
            ConcConfig::from_tree(tree.clone().with_metrics_level(MetricsLevel::Histograms));
        let batched: ConcurrentTree<u64, u64> = ConcurrentTree::new(config.clone());
        let per_key: ConcurrentTree<u64, u64> = ConcurrentTree::new(config);
        let mut value = 0;
        for round in 0..10 {
            // Equal keys inside a batch merge into the first one's entry.
            let entries = batch(&mut rng, tree.leaf_capacity, &mut value);
            let (mut merged_b, mut merged_p) = (Vec::new(), Vec::new());
            batched.upsert_batch(&entries, |key, old, new| {
                merged_b.push((key, *old, new));
                *old += new;
            });
            for &(k, v) in &entries {
                per_key.upsert(k, v, |old, new| {
                    merged_p.push((k, *old, new));
                    *old += new;
                });
            }
            let what = format!("seed {seed:#x} round {round} {tree:?}");
            assert_eq!(merged_b, merged_p, "{what}");
            assert!(batched.collect_all() == per_key.collect_all(), "{what}");
            assert!(
                leaves(&batched) == leaves(&per_key),
                "{what}: leaf boundaries"
            );
            assert_eq!(batched.len(), per_key.len(), "{what}");
            assert_eq!(
                batched.metrics().insert_latency.count(),
                per_key.metrics().insert_latency.count(),
                "{what}: a merge is timed like an insert"
            );
            batched
                .check_consistency()
                .unwrap_or_else(|e| panic!("{what}: {e}"));
        }
    }
}

/// Entries of each leaf, left to right, read off one full scan: the
/// iterator counts a leaf access each time it moves along the chain.
fn leaves(t: &ConcurrentTree<u64, u64>) -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = Vec::new();
    let mut scan = t.range(..);
    while let Some((k, _)) = scan.next() {
        let leaf = scan.leaf_accesses() as usize;
        out.resize_with(out.len().max(leaf), Vec::new);
        out[leaf - 1].push(k);
    }
    out.retain(|leaf| !leaf.is_empty());
    out
}

#[test]
fn bulk_load_packs_leaves_and_keeps_working() {
    let base_seed = 0xB01C_10ADu64;
    println!("seed {base_seed:#x}");
    // Leaves are packed full, so the capacities also cover the leaf sizes
    // a partial fill would give (2 of 3, 5 and 4 of 8, 44 and 32 of 64).
    for cap in [2usize, 3, 4, 5, 8, 32, 44, 64] {
        for layout in [NodeLayoutKind::Dense, NodeLayoutKind::Gapped] {
            let seed = base_seed ^ (cap as u64) << 16 ^ layout as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let what = format!("seed {seed:#x} cap {cap} {layout:?}");
            // Sorted input with duplicate runs of up to 3 × capacity.
            let mut entries = Vec::new();
            let mut key = 0u64;
            while entries.len() < 40 * cap {
                key += rng.gen_range(1..5u64);
                let copies = if rng.gen_bool(0.1) {
                    rng.gen_range(2..=3 * cap)
                } else {
                    1
                };
                for _ in 0..copies {
                    entries.push((key, entries.len() as u64));
                }
            }
            let mut model: BTreeMap<u64, usize> = BTreeMap::new();
            for &(k, _) in &entries {
                *model.entry(k).or_default() += 1;
            }
            let tree = TreeConfig::small(cap).with_node_layout(layout);
            let t = ConcurrentTree::bulk_load(ConcConfig::from_tree(tree), entries.clone());
            t.check_consistency()
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(t.collect_all() == entries, "{what}: contents");

            let per_leaf = cap;
            let leaves = leaves(&t);
            for (i, pair) in leaves.windows(2).enumerate() {
                let (leaf, next) = (&pair[0], &pair[1]);
                assert!(
                    leaf.last() < next.first(),
                    "{what}: a duplicate run straddles leaves {i} and {}",
                    i + 1
                );
                let one_run = leaf.first() == leaf.last();
                let before_a_run = model[&next[0]] > 1;
                assert!(
                    leaf.len() == per_leaf || one_run || before_a_run,
                    "{what}: leaf {i} holds {} entries, not {per_leaf}",
                    leaf.len()
                );
            }

            // The bulk-loaded tree keeps working under mixed traffic.
            let max = key;
            for step in 0..10_000 {
                let k = rng.gen_range(0..max + 100);
                if rng.gen_bool(0.6) {
                    t.insert(k, step);
                    *model.entry(k).or_default() += 1;
                } else {
                    let present = model.get(&k).is_some_and(|&c| c > 0);
                    assert_eq!(t.delete(k).is_some(), present, "{what} step {step}");
                    if present {
                        *model.get_mut(&k).unwrap() -= 1;
                    }
                }
            }
            t.check_consistency()
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let want: Vec<u64> = model
                .iter()
                .flat_map(|(&k, &c)| std::iter::repeat_n(k, c))
                .collect();
            let got: Vec<u64> = t.collect_all().into_iter().map(|(k, _)| k).collect();
            assert!(got == want, "{what}: contents after mixed traffic");
            assert_eq!(t.len(), want.len(), "{what}");
        }
    }
}

#[test]
fn apply_batch_matches_per_key_apply() {
    let base_seed = 0xA991_7B47u64;
    println!("seed {base_seed:#x}");
    for cap in [3usize, 8] {
        for layout in [NodeLayoutKind::Dense, NodeLayoutKind::Gapped] {
            let seed = base_seed ^ (cap as u64) << 8 ^ layout as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let config = ConcConfig::from_tree(TreeConfig::small(cap).with_node_layout(layout));
            let batched: MvccTree<u64, u64> = MvccTree::new(config.clone());
            let per_key: MvccTree<u64, u64> = MvccTree::new(config);
            // Keys at or past `written` are only ever deleted: tombstones of
            // keys that never held a value.
            let (written, keys) = (96u64, 128u64);
            let mut ts = 0u64;
            for commit in 0..400 {
                // A commit's write set: distinct keys in key order, writes
                // and deletes (of live keys and of absent ones) mixed.
                let mut writes: BTreeMap<u64, Option<u64>> = BTreeMap::new();
                for _ in 0..rng.gen_range(1..=24) {
                    match rng.gen_range(0..keys) {
                        k if k < written && rng.gen_bool(0.75) => {
                            writes.insert(k, Some(rng.next_u64()))
                        }
                        k => writes.insert(k, None),
                    };
                }
                let writes: Vec<(u64, Option<u64>)> = writes.into_iter().collect();
                ts += 1;
                let got = {
                    let _held = batched.lock_keys(writes.iter().map(|(k, _)| k));
                    batched.apply_batch(ts, &writes)
                };
                let want = {
                    let _held = per_key.lock_keys(writes.iter().map(|(k, _)| k));
                    writes
                        .iter()
                        .fold((0i64, 0u64), |(live, superseded), (k, v)| {
                            let prev_live = per_key.apply(*k, ts, *v);
                            (
                                live + i64::from(v.is_some()) - i64::from(prev_live),
                                superseded + u64::from(prev_live) + u64::from(v.is_none()),
                            )
                        })
                };
                let what = format!("seed {seed:#x} commit {commit}");
                assert_eq!(got, want, "{what}");
                batched
                    .check_consistency()
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                if commit % 50 == 49 {
                    let watermark = ts - 20;
                    assert_eq!(batched.gc(watermark), per_key.gc(watermark), "{what}");
                }
            }
            let what = format!("seed {seed:#x} cap {cap} {layout:?}");
            batched
                .check_consistency()
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            per_key
                .check_consistency()
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(batched.keys_ever(), per_key.keys_ever(), "{what}");
            for at in 0..=ts {
                for k in 0..keys {
                    assert_eq!(
                        batched.read_at(k, at),
                        per_key.read_at(k, at),
                        "{what}: key {k} at {at}"
                    );
                }
            }
        }
    }
}

#[test]
fn get_sorted_matches_per_key_get_under_concurrent_inserts() {
    let base_seed = 0x5047_ED00u64;
    println!("seed {base_seed:#x}");
    for (g, tree) in geometries().into_iter().enumerate() {
        for olc in [true, false] {
            let seed = base_seed ^ (g as u64) << 8 ^ u64::from(olc);
            let mut rng = StdRng::seed_from_u64(seed);
            let t: ConcurrentTree<u64, u64> =
                ConcurrentTree::new(ConcConfig::from_tree(tree.clone()).with_olc(olc));
            // The probes read even keys, about half of them present; the
            // second thread inserts odd keys only, so every probe's answer
            // is fixed while the leaves holding it split and move.
            for k in (0..4_000u64).step_by(2) {
                if rng.gen_bool(0.5) {
                    t.insert(k, k + 1);
                }
            }
            let done = AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut rng = StdRng::seed_from_u64(seed ^ 1);
                    for _ in 0..20_000 {
                        if done.load(Ordering::Relaxed) {
                            break;
                        }
                        t.insert(2 * rng.gen_range(0..2_100u64) + 1, 0);
                    }
                });
                for round in 0..150 {
                    let len = rng.gen_range(1..300);
                    let mut probe: Vec<u64> =
                        (0..len).map(|_| 2 * rng.gen_range(0..2_100u64)).collect();
                    // Mostly ascending, as a commit's write set is; every
                    // fourth round out of order, which must still answer.
                    if round % 4 != 3 {
                        probe.sort_unstable();
                    }
                    let mut seen = Vec::new();
                    let stopped = t.get_sorted(probe.iter().copied(), |k, v| {
                        seen.push((k, v.copied()));
                        ControlFlow::<()>::Continue(())
                    });
                    let want: Vec<(u64, Option<u64>)> =
                        probe.iter().map(|&k| (k, t.get(k))).collect();
                    let what = format!("seed {seed:#x} round {round}");
                    assert!(stopped.is_none(), "{what}");
                    assert_eq!(seen, want, "{what}");
                    // A `Break` ends the visit with its value.
                    let first_present = want.iter().find_map(|&(k, v)| v.map(|_| k));
                    let found = t.get_sorted(probe.iter().copied(), |k, v| match v {
                        Some(_) => ControlFlow::Break(k),
                        None => ControlFlow::Continue(()),
                    });
                    assert_eq!(found, first_present, "{what}");
                }
                done.store(true, Ordering::Relaxed);
            });
            t.check_consistency()
                .unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
        }
    }
}
