//! True multi-threaded differential mode for [`ConcurrentTree`].
//!
//! The single-threaded oracle ([`crate::replay`]) cannot exercise the
//! optimistic-lock-coupling machinery: versions never conflict without a
//! concurrent writer. [`replay_concurrent`] closes that gap with a
//! *partitioned* differential design that stays exact under real
//! concurrency:
//!
//! - **N writer threads** own disjoint key partitions (writer `w` only
//!   touches keys with `key % writers == w`), so each writer's view of its
//!   own partition is sequential and can be checked op-by-op against a
//!   private [`Model`] — presence and (for untainted single-instance keys)
//!   values are compared on every delete and periodic self-get. Writers
//!   mix single inserts, sorted-run `insert_batch` calls and deletes.
//! - **M reader threads** roam the whole key space while writers run.
//!   They cannot know whether a racing key is present, but every observed
//!   value must carry the tag of the partition's writer, and every range
//!   scan must come back sorted — torn optimistic reads violate one of
//!   the two.
//! - After each thread joins, the tree's full structural invariant suite
//!   ([`ConcurrentTree::check_consistency`]) runs again, and the final
//!   tree contents are compared against the *merged* per-writer models:
//!   exact length, exact key multiset, exact values for untainted keys.
//!
//! Every thread derives its RNG stream from one base seed (SplitMix64,
//! same scheme as `tests/concurrent_stress.rs`), so a failing run is
//! replayed bit-for-bit by exporting `QUIT_STRESS_SEED`.

use crate::oracle::{Divergence, Model};
use quit_concurrent::{ConcConfig, ConcurrentTree};
use std::sync::atomic::{AtomicBool, Ordering};

/// Values are tagged with the owning writer in the top bits so readers
/// can validate any observed value against its key's partition.
const WRITER_TAG_SHIFT: u32 = 48;

/// Shape of one concurrent differential run.
#[derive(Clone, Debug)]
pub struct ConcSpec {
    /// Writer threads; each owns the key partition `key % writers == w`.
    pub writers: usize,
    /// Reader threads roaming the whole key space while writers run.
    pub readers: usize,
    /// Mutating ops per writer: ~10% sorted `insert_batch` runs of 2–64
    /// keys, ~73% single inserts, ~17% deletes.
    pub ops_per_writer: usize,
    /// Per-writer key-stream width: writer `w` draws raw keys from
    /// `0..key_space` and maps them to `raw * writers + w`.
    pub key_space: u64,
    /// Base seed; every thread's stream is derived from it.
    pub seed: u64,
    /// Leaf capacity (small values force constant splits).
    pub leaf_capacity: usize,
    /// Whether optimistic lock coupling is enabled on the tree.
    pub olc: bool,
}

impl Default for ConcSpec {
    fn default() -> Self {
        ConcSpec {
            writers: 2,
            readers: 2,
            ops_per_writer: 4_000,
            key_space: 1_000,
            seed: 0xC0FF_EE00,
            leaf_capacity: 8,
            olc: true,
        }
    }
}

/// Totals from a completed (divergence-free) concurrent replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConcReport {
    /// Mutating ops executed across all writers.
    pub writer_ops: usize,
    /// Lookups/scans executed across all readers.
    pub reader_ops: usize,
    /// Final tree length (equals the merged model's).
    pub final_len: usize,
    /// Optimistic restarts observed by the tree's metrics.
    pub olc_restarts: u64,
    /// Optimistic-to-pessimistic fallbacks observed.
    pub olc_fallbacks: u64,
}

/// SplitMix64 step — the same generator `tests/concurrent_stress.rs`
/// uses, so seeds reported by either harness mean the same streams.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-thread stream seed derived from the base seed.
fn thread_seed(base: u64, salt: u64) -> u64 {
    let mut s = base ^ salt.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix(&mut s)
}

/// Base seed for concurrent differential runs: `QUIT_STRESS_SEED` when
/// set and parseable, else `default_seed`. The chosen seed is printed so
/// a failure in CI logs is reproducible locally.
pub fn conc_base_seed(default_seed: u64) -> u64 {
    let seed = std::env::var("QUIT_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default_seed);
    println!("QUIT_STRESS_SEED={seed}");
    seed
}

fn diverge(detail: String) -> Divergence {
    Divergence {
        family: "ConcurrentTree",
        op_index: usize::MAX,
        detail,
    }
}

/// Runs `spec.writers` writer threads and `spec.readers` reader threads
/// against one [`ConcurrentTree`], checking per-partition behaviour
/// op-by-op, reader-observed tags and ordering continuously, structural
/// invariants after every join, and the merged model differentially at
/// the end. Returns the first [`Divergence`] found, if any.
pub fn replay_concurrent(spec: &ConcSpec) -> Result<ConcReport, Divergence> {
    assert!(spec.writers > 0, "need at least one writer");
    let tree: ConcurrentTree<u64, u64> =
        ConcurrentTree::new(ConcConfig::small(spec.leaf_capacity).with_olc(spec.olc));
    let stop = AtomicBool::new(false);

    let (models, reader_ops, join_checks) = std::thread::scope(|s| {
        let writer_handles: Vec<_> = (0..spec.writers)
            .map(|w| {
                let tree = &tree;
                s.spawn(move || writer_thread(tree, spec, w))
            })
            .collect();
        let reader_handles: Vec<_> = (0..spec.readers)
            .map(|r| {
                let tree = &tree;
                let stop = &stop;
                s.spawn(move || reader_thread(tree, spec, r, stop))
            })
            .collect();

        // Join writers one at a time, re-running the structural suite
        // after every join: a writer that corrupted the tree is caught
        // while the other threads are still live. The concurrent variant
        // skips only the chain-total-vs-len comparison, which cannot be
        // exact while the remaining writers keep mutating.
        let mut models = Vec::with_capacity(spec.writers);
        let mut join_checks = Vec::new();
        for h in writer_handles {
            let outcome = h.join().map_err(|_| diverge("writer panicked".into()));
            models.push(outcome.and_then(|r| r));
            join_checks.push(tree.check_consistency_concurrent());
        }
        stop.store(true, Ordering::Relaxed);
        // Writers are done: from here the tree is mutation-quiescent and
        // the exact check applies after every reader join.
        let mut reader_ops = Vec::with_capacity(spec.readers);
        for h in reader_handles {
            let outcome = h.join().map_err(|_| diverge("reader panicked".into()));
            reader_ops.push(outcome.and_then(|r| r));
            join_checks.push(tree.check_consistency());
        }
        (models, reader_ops, join_checks)
    });

    // Surface the first thread-local divergence (threads already joined).
    let mut merged = Model::default();
    let mut writer_ops = 0usize;
    for outcome in models {
        let (model, ops) = outcome?;
        writer_ops += ops;
        // Partitions are disjoint, so merging never collides on a key.
        merged.len += model.len;
        merged.tainted.extend(model.tainted);
        for (k, vs) in model.map {
            merged.map.insert(k, vs);
        }
    }
    let mut total_reader_ops = 0usize;
    for outcome in reader_ops {
        total_reader_ops += outcome?;
    }
    for (j, check) in join_checks.into_iter().enumerate() {
        check.map_err(|e| diverge(format!("consistency after join #{j}: {e}")))?;
    }

    // All threads joined: the structural suite and the merged-model
    // differential must now hold exactly.
    tree.check_consistency()
        .map_err(|e| diverge(format!("post-join consistency: {e}")))?;
    if tree.len() != merged.len {
        return Err(diverge(format!(
            "final len {} vs merged model {}",
            tree.len(),
            merged.len
        )));
    }
    let got: Vec<(u64, u64)> = tree.collect_all();
    let want_keys = merged.range_keys(0, u64::MAX);
    let got_keys: Vec<u64> = got.iter().map(|&(k, _)| k).collect();
    if got_keys != want_keys {
        let first = got_keys
            .iter()
            .zip(&want_keys)
            .position(|(a, b)| a != b)
            .unwrap_or(got_keys.len().min(want_keys.len()));
        return Err(diverge(format!(
            "final key multiset mismatch: {} vs model {} keys, first at {first}",
            got_keys.len(),
            want_keys.len()
        )));
    }
    for &(k, v) in &got {
        if let Some(want) = merged.single_value(k) {
            if v != want {
                return Err(diverge(format!("final value at key {k}: {v} vs {want}")));
            }
        }
    }

    let stats = tree.stats();
    Ok(ConcReport {
        writer_ops,
        reader_ops: total_reader_ops,
        final_len: tree.len(),
        olc_restarts: stats.olc_restarts.get(),
        olc_fallbacks: stats.olc_fallbacks.get(),
    })
}

/// One writer: mutates only its own partition, checking each op against
/// its private model (sequential within the partition, so exact).
fn writer_thread(
    tree: &ConcurrentTree<u64, u64>,
    spec: &ConcSpec,
    w: usize,
) -> Result<(Model, usize), Divergence> {
    let writers = spec.writers as u64;
    let mut st = thread_seed(spec.seed, w as u64);
    let mut model = Model::default();
    let mut seq: u64 = 0;
    for i in 0..spec.ops_per_writer {
        let r = splitmix(&mut st);
        let k = (r % spec.key_space) * writers + w as u64;
        if (r >> 32).is_multiple_of(10) {
            // ~10%: a sorted run of 2–64 of our keys in one `insert_batch`,
            // whose leaf chunks race readers, other writers' splits and
            // poℓe hand-offs.
            let mut raw = r % spec.key_space;
            let mut batch: Vec<(u64, u64)> = (0..2 + (r >> 40) % 63)
                .map(|_| {
                    raw = (raw + 1 + splitmix(&mut st) % 4) % spec.key_space;
                    seq += 1;
                    (
                        raw * writers + w as u64,
                        ((w as u64) << WRITER_TAG_SHIFT) | seq,
                    )
                })
                .collect();
            batch.sort_by_key(|&(key, _)| key);
            tree.insert_batch(&batch);
            for (key, v) in batch {
                model.insert(key, v);
            }
        } else if r >> 60 < 13 {
            // ~80%: insert a tagged value.
            let v = ((w as u64) << WRITER_TAG_SHIFT) | seq;
            seq += 1;
            tree.insert(k, v);
            model.insert(k, v);
        } else {
            // ~20%: delete; presence is exact within our own partition.
            let expect = model.contains(k);
            let single = model.single_value(k);
            let got = tree.delete(k);
            if got.is_some() != expect {
                return Err(diverge(format!(
                    "writer {w} op {i}: delete({k}) presence {} vs model {expect}",
                    got.is_some()
                )));
            }
            if let (Some(want), Some(have)) = (single, got) {
                if want != have {
                    return Err(diverge(format!(
                        "writer {w} op {i}: delete({k}) = {have} vs model {want}"
                    )));
                }
            }
            model.delete(k);
        }
        // Periodic self-lookup: our own partition is sequential to us, so
        // presence and single-instance values must match exactly even
        // while other threads hammer the rest of the tree.
        if i % 64 == 0 {
            let got = tree.get(k);
            if got.is_some() != model.contains(k) {
                return Err(diverge(format!(
                    "writer {w} op {i}: get({k}) presence {} vs model {}",
                    got.is_some(),
                    model.contains(k)
                )));
            }
            if let (Some(want), Some(have)) = (model.single_value(k), got) {
                if want != have {
                    return Err(diverge(format!(
                        "writer {w} op {i}: get({k}) = {have} vs model {want}"
                    )));
                }
            }
        }
    }
    Ok((model, spec.ops_per_writer))
}

/// One reader: point lookups and range scans over the whole key space.
/// Presence is racy by construction; tag integrity and ordering are not.
fn reader_thread(
    tree: &ConcurrentTree<u64, u64>,
    spec: &ConcSpec,
    r: usize,
    stop: &AtomicBool,
) -> Result<usize, Divergence> {
    let writers = spec.writers as u64;
    let full_span = spec.key_space * writers;
    let mut st = thread_seed(spec.seed, 0xDEAD_BEEF ^ r as u64);
    let mut ops = 0usize;
    loop {
        let rnd = splitmix(&mut st);
        if rnd & 7 != 0 {
            let k = rnd % full_span;
            if let Some(v) = tree.get(k) {
                if v >> WRITER_TAG_SHIFT != k % writers {
                    return Err(diverge(format!(
                        "reader {r}: get({k}) saw tag {} from partition {}",
                        v >> WRITER_TAG_SHIFT,
                        k % writers
                    )));
                }
            }
        } else {
            let s = rnd % full_span;
            let e = s.saturating_add(splitmix(&mut st) % 128);
            let mut last: Option<u64> = None;
            for (k, v) in tree.range(s..e) {
                if !(s..e).contains(&k) {
                    return Err(diverge(format!(
                        "reader {r}: range({s},{e}) yielded out-of-bounds key {k}"
                    )));
                }
                if last.is_some_and(|p| k < p) {
                    return Err(diverge(format!(
                        "reader {r}: range({s},{e}) out of order at key {k}"
                    )));
                }
                if v >> WRITER_TAG_SHIFT != k % writers {
                    return Err(diverge(format!(
                        "reader {r}: range({s},{e}) key {k} saw tag {} from partition {}",
                        v >> WRITER_TAG_SHIFT,
                        k % writers
                    )));
                }
                last = Some(k);
            }
        }
        ops += 1;
        // Guarantee at least one op even when the writers beat us to the
        // finish line (single-core runners schedule coarsely).
        if stop.load(Ordering::Relaxed) {
            return Ok(ops);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_concurrent_replay_is_divergence_free() {
        let report = replay_concurrent(&ConcSpec {
            writers: 2,
            readers: 1,
            ops_per_writer: 1_500,
            ..ConcSpec::default()
        })
        .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(report.writer_ops, 3_000);
        assert!(report.reader_ops >= 1);
        assert!(report.final_len > 0);
    }

    #[test]
    fn olc_disabled_replay_is_divergence_free() {
        let report = replay_concurrent(&ConcSpec {
            writers: 2,
            readers: 1,
            ops_per_writer: 1_000,
            olc: false,
            ..ConcSpec::default()
        })
        .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(report.olc_restarts, 0);
        assert_eq!(report.olc_fallbacks, 0);
    }

    #[test]
    fn single_writer_degenerates_to_sequential_differential() {
        let report = replay_concurrent(&ConcSpec {
            writers: 1,
            readers: 0,
            ops_per_writer: 2_000,
            ..ConcSpec::default()
        })
        .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(report.writer_ops, 2_000);
        assert_eq!(report.reader_ops, 0);
    }
}
