//! Concurrency stress tests for `quit-concurrent`: mixed reader/writer
//! loads, fast-path contention, and final-state verification against a
//! single-threaded reference.

use quick_insertion_tree::bods::BodsSpec;
use quick_insertion_tree::quit_concurrent::{ConcurrentTree, TreeConfig, OLC_MAX_RESTARTS};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One base seed for the whole stress run, printed so any failure is
/// reproducible: rerun with `QUIT_STRESS_SEED=<seed>`. When the variable is
/// unset, the seed varies per run (wall-clock derived) so repeated CI runs
/// explore different streams and interleavings.
fn base_seed() -> u64 {
    let seed = std::env::var("QUIT_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x5EED)
        });
    eprintln!("concurrent_stress base seed: {seed} (rerun with QUIT_STRESS_SEED={seed})");
    seed
}

/// Derives an independent per-thread seed from the base (SplitMix64 mix).
fn thread_seed(base: u64, thread: u64) -> u64 {
    let mut z = base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(thread.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn heavy_mixed_load_ends_consistent() {
    let stress_seed = base_seed();
    let tree: Arc<ConcurrentTree<u64, u64>> = Arc::new(ConcurrentTree::new(TreeConfig::small(16)));
    let writers = 6;
    let per = 5_000u64;
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for w in 0..writers {
        let tree = tree.clone();
        handles.push(std::thread::spawn(move || {
            // Each writer ingests a near-sorted stream over its own range.
            let keys = BodsSpec::new(per as usize, 0.05, 1.0)
                .with_seed(thread_seed(stress_seed, w))
                .generate();
            let base = w * 10_000_000;
            for k in keys {
                tree.insert(base + k, w);
            }
        }));
    }
    let mut readers = Vec::new();
    for _ in 0..3 {
        let tree = tree.clone();
        let stop = stop.clone();
        readers.push(std::thread::spawn(move || {
            let mut observed_max = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let r: Vec<(u64, u64)> = tree.range(..).collect();
                // Snapshot must always be sorted even mid-ingest.
                assert!(r.windows(2).all(|a| a[0].0 <= a[1].0), "unsorted scan");
                assert!(r.len() >= observed_max, "scan shrank");
                observed_max = r.len();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    assert_eq!(tree.len(), (writers * per) as usize);
    let all = tree.collect_all();
    assert_eq!(all.len(), tree.len());
    // Every writer's keys are present exactly once.
    let uniq: BTreeSet<u64> = all.iter().map(|e| e.0).collect();
    assert_eq!(uniq.len(), all.len(), "no duplicates were inserted");
    for w in 0..writers {
        let base = w * 10_000_000;
        let count = all.iter().filter(|e| e.0 / 10_000_000 == w).count();
        assert_eq!(count, per as usize, "writer {w} keys");
        assert!(tree.contains_key(base)); // key 0 of each writer's stream
    }
}

#[test]
fn contended_tail_inserts_keep_every_entry() {
    // All threads append to the same hot tail — the worst case §5.3 calls
    // out. Correctness must hold even when the fast path constantly
    // collides.
    let tree: Arc<ConcurrentTree<u64, u64>> = Arc::new(ConcurrentTree::new(TreeConfig::small(8)));
    let threads = 8u64;
    let per = 4_000u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let tree = tree.clone();
            s.spawn(move || {
                for i in 0..per {
                    // Interleaved, globally near-sorted keys.
                    tree.insert(i * threads + t, t);
                }
            });
        }
    });
    assert_eq!(tree.len(), (threads * per) as usize);
    let all = tree.collect_all();
    assert!(all.windows(2).all(|a| a[0].0 <= a[1].0));
    assert_eq!(all.len(), (threads * per) as usize);
    // Every key in 0..threads*per is present exactly once.
    for (i, (k, _)) in all.iter().enumerate() {
        assert_eq!(*k, i as u64, "dense key space must be complete");
    }
}

#[test]
fn classic_and_quit_modes_agree_under_concurrency() {
    let stress_seed = base_seed();
    let keys = BodsSpec::new(30_000, 0.25, 1.0)
        .with_seed(thread_seed(stress_seed, 0))
        .generate();
    let results: Vec<Vec<(u64, u64)>> = [true, false]
        .into_iter()
        .map(|pole| {
            let config = TreeConfig::small(32);
            let tree: Arc<ConcurrentTree<u64, u64>> = Arc::new(if pole {
                ConcurrentTree::new(config)
            } else {
                ConcurrentTree::classic(config)
            });
            std::thread::scope(|s| {
                for t in 0..4 {
                    let tree = tree.clone();
                    let mine: Vec<u64> = keys.iter().skip(t).step_by(4).copied().collect();
                    s.spawn(move || {
                        for k in mine {
                            tree.insert(k, k * 2);
                        }
                    });
                }
            });
            tree.collect_all()
        })
        .collect();
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0].len(), keys.len());
}

/// SplitMix64 stepper for in-thread op streams (same constants as
/// [`thread_seed`], but advancing a mutable state).
fn splitmix_step(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn read_heavy_90_10_profile_is_exact() {
    // Fig-13-style read-mostly profile: 4 threads, 90% point lookups /
    // 10% inserts, partitioned key space so every observable is exact
    // even under full concurrency — final length, per-key presence, the
    // lookup counter, and the OLC restart-accounting invariant.
    let stress_seed = base_seed();
    let threads = 4u64;
    let per = 8_000u64; // ops per thread; per/10 of them insert
    let config = TreeConfig::small(16);
    let budget = u64::from(OLC_MAX_RESTARTS);
    let tree: Arc<ConcurrentTree<u64, u64>> = Arc::new(ConcurrentTree::new(config));
    std::thread::scope(|s| {
        for t in 0..threads {
            let tree = tree.clone();
            s.spawn(move || {
                let mut st = thread_seed(stress_seed, t);
                let mut inserted = 0u64;
                for i in 0..per {
                    if i % 10 == 0 {
                        let k = inserted * threads + t;
                        tree.insert(k, k ^ t);
                        inserted += 1;
                    } else {
                        // Our partition is sequential to us: a key we
                        // inserted must be visible with its exact
                        // value, the next (unwritten) key must not.
                        let j = splitmix_step(&mut st) % (inserted + 1);
                        if j < inserted {
                            let k = j * threads + t;
                            assert_eq!(tree.get(k), Some(k ^ t), "lost key {k}");
                        } else {
                            let k = inserted * threads + t;
                            assert_eq!(tree.get(k), None, "phantom key {k}");
                        }
                    }
                }
            });
        }
    });

    // Counters are sampled before any further reads touch them.
    let stats = tree.stats();
    let lookups = stats.lookups.get();
    let restarts = stats.olc_restarts.get();
    let fallbacks = stats.olc_fallbacks.get();
    assert_eq!(
        lookups,
        threads * (per - per / 10),
        "every get bumps lookups exactly once"
    );
    // Each budget exhaustion records exactly budget+1 restarts before
    // the single fallback; successful retries only add.
    assert!(
        restarts >= fallbacks * (budget + 1),
        "restart accounting violated: {restarts} restarts, {fallbacks} fallbacks"
    );

    assert_eq!(tree.len(), (threads * (per / 10)) as usize);
    let all = tree.collect_all();
    assert_eq!(all.len(), tree.len(), "scan and len agree");
    let uniq: BTreeSet<u64> = all.iter().map(|e| e.0).collect();
    assert_eq!(uniq.len(), all.len(), "no duplicate keys");
    for t in 0..threads {
        for j in 0..per / 10 {
            let k = j * threads + t;
            assert!(tree.contains_key(k), "key {k} lost after join");
        }
    }
    assert!(tree.check_consistency().is_ok());
}

#[test]
fn point_reads_never_miss_committed_keys() {
    let tree: Arc<ConcurrentTree<u64, u64>> =
        Arc::new(ConcurrentTree::new(TreeConfig::paper_default()));
    for k in 0..5_000u64 {
        tree.insert(k * 2, k);
    }
    std::thread::scope(|s| {
        // A writer extends the key space while readers hammer the stable
        // prefix.
        let t = tree.clone();
        s.spawn(move || {
            for k in 5_000..20_000u64 {
                t.insert(k * 2, k);
            }
        });
        for _ in 0..4 {
            let t = tree.clone();
            s.spawn(move || {
                for _ in 0..20 {
                    for k in (0..5_000u64).step_by(37) {
                        assert_eq!(t.get(k * 2), Some(k));
                        assert_eq!(t.get(k * 2 + 1), None);
                    }
                }
            });
        }
    });
    assert_eq!(tree.len(), 20_000);
}
