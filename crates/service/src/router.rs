//! Range partitioning of the `u64` keyspace and order-preserving batch
//! splitting — the part of the router the sortedness argument depends on.
//!
//! The keyspace is cut into `n` contiguous, near-equal ranges with the
//! multiply-shift rule `shard = (key · n) >> 64`. The rule is monotone in
//! the key, which is the property everything downstream leans on: a shard
//! owns one contiguous key range, so the *subsequence* of a globally
//! near-sorted stream that routes to it is itself near-sorted — each
//! shard's QuIT fast path sees the same sortedness the whole stream had.
//! (A hash partitioner would destroy exactly that.)

use std::ops::RangeInclusive;

/// The shard owning `key` under `shards`-way range partitioning.
#[inline]
pub fn shard_of(key: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    ((key as u128 * shards as u128) >> 64) as usize
}

/// The inclusive key range shard `shard` owns (the preimage of
/// [`shard_of`]). Ranges tile the keyspace: shard 0 starts at 0, shard
/// `n-1` ends at `u64::MAX`, and consecutive shards meet with no gap.
pub fn shard_range(shard: usize, shards: usize) -> RangeInclusive<u64> {
    assert!(shard < shards, "shard {shard} out of {shards}");
    let n = shards as u128;
    let lo = ((shard as u128) << 64).div_ceil(n) as u64;
    let hi = if shard + 1 == shards {
        u64::MAX
    } else {
        ((((shard as u128) + 1) << 64).div_ceil(n) - 1) as u64
    };
    lo..=hi
}

/// The shards whose ranges intersect the inclusive query `[start, end]`.
/// Empty iff `start > end`.
pub fn shards_overlapping(start: u64, end: u64, shards: usize) -> RangeInclusive<usize> {
    if start > end {
        #[allow(clippy::reversed_empty_ranges)]
        return 1..=0;
    }
    shard_of(start, shards)..=shard_of(end, shards)
}

/// Splits `entries` into per-shard runs, preserving submission order
/// within each shard (a stable partition). Returns `(shard, run)` pairs
/// for the non-empty shards only, ordered by shard id.
pub fn split_batch(entries: &[(u64, u64)], shards: usize) -> Vec<(usize, Vec<(u64, u64)>)> {
    let mut runs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); shards];
    for &(k, v) in entries {
        runs[shard_of(k, shards)].push((k, v));
    }
    runs.into_iter()
        .enumerate()
        .filter(|(_, run)| !run.is_empty())
        .collect()
}

/// One buffered run for a shard: the `(key, value)` entries plus the
/// request id of each, in submission order.
type Run = (Vec<(u64, u64)>, Vec<u64>);

/// Insert accumulator: buffers single inserts per shard so a pipelined
/// stream of point inserts reaches a shard's tree as one contiguous run
/// through `insert_batch`'s sorted-run detection, instead of one tree call
/// (and one WAL append) per key.
///
/// Each shard worker keeps a one-lane batcher: a run grows while a burst's
/// ops are inserts and is closed when it hits `batch_max`, before any other
/// op (so a `get` observes every insert the same connection submitted
/// before it), and at the end of the burst.
pub struct InsertBatcher {
    runs: Vec<Run>,
    batch_max: usize,
    buffered: usize,
}

impl InsertBatcher {
    /// An empty batcher for `shards` shards flushing runs at `batch_max`
    /// entries.
    pub fn new(shards: usize, batch_max: usize) -> Self {
        assert!(batch_max > 0);
        InsertBatcher {
            runs: (0..shards).map(|_| (Vec::new(), Vec::new())).collect(),
            batch_max,
            buffered: 0,
        }
    }

    /// Buffers one insert under `req_id`; returns the shard's run if this
    /// push filled it to `batch_max` (the caller must submit it).
    #[allow(clippy::type_complexity)]
    pub fn push(
        &mut self,
        req_id: u64,
        key: u64,
        value: u64,
    ) -> Option<(usize, Vec<(u64, u64)>, Vec<u64>)> {
        let shard = shard_of(key, self.runs.len());
        let (run, ids) = &mut self.runs[shard];
        run.push((key, value));
        ids.push(req_id);
        self.buffered += 1;
        if run.len() >= self.batch_max {
            self.buffered -= run.len();
            Some((shard, std::mem::take(run), std::mem::take(ids)))
        } else {
            None
        }
    }

    /// True if any insert is buffered.
    pub fn is_empty(&self) -> bool {
        self.buffered == 0
    }

    /// Drains every non-empty run, ordered by shard id.
    #[allow(clippy::type_complexity)]
    pub fn drain(&mut self) -> Vec<(usize, Vec<(u64, u64)>, Vec<u64>)> {
        self.buffered = 0;
        self.runs
            .iter_mut()
            .enumerate()
            .filter(|(_, (run, _))| !run.is_empty())
            .map(|(shard, (run, ids))| (shard, std::mem::take(run), std::mem::take(ids)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_the_keyspace() {
        for shards in [1usize, 2, 3, 4, 7, 16, 64] {
            assert_eq!(*shard_range(0, shards).start(), 0);
            assert_eq!(*shard_range(shards - 1, shards).end(), u64::MAX);
            for s in 0..shards - 1 {
                let hi = *shard_range(s, shards).end();
                let next_lo = *shard_range(s + 1, shards).start();
                assert_eq!(hi.wrapping_add(1), next_lo, "no gap, no overlap");
            }
        }
    }

    #[test]
    fn shard_of_agrees_with_ranges() {
        for shards in [1usize, 3, 4, 16] {
            for s in 0..shards {
                let r = shard_range(s, shards);
                assert_eq!(shard_of(*r.start(), shards), s);
                assert_eq!(shard_of(*r.end(), shards), s);
                let mid = r.start() + (r.end() - r.start()) / 2;
                assert_eq!(shard_of(mid, shards), s);
            }
        }
    }

    #[test]
    fn split_preserves_order_and_totals() {
        let entries: Vec<(u64, u64)> = (0..1000u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i))
            .collect();
        let split = split_batch(&entries, 4);
        let total: usize = split.iter().map(|(_, run)| run.len()).sum();
        assert_eq!(total, entries.len());
        for (shard, run) in &split {
            let range = shard_range(*shard, 4);
            assert!(run.iter().all(|(k, _)| range.contains(k)));
            // Submission order within the shard is preserved: values are
            // the original indices, so they must be increasing.
            assert!(run.windows(2).all(|w| w[0].1 < w[1].1));
        }
    }

    #[test]
    fn batcher_flushes_at_batch_max_and_on_drain() {
        let mut b = InsertBatcher::new(2, 3);
        assert!(b.is_empty());
        // Keys in shard 0 (low half) fill to batch_max.
        assert!(b.push(1, 0, 10).is_none());
        assert!(b.push(2, 1, 11).is_none());
        let (shard, run, ids) = b.push(3, 2, 12).expect("third push hits batch_max");
        assert_eq!(shard, 0);
        assert_eq!(run, vec![(0, 10), (1, 11), (2, 12)]);
        assert_eq!(ids, vec![1, 2, 3]);
        // One key in the high half stays buffered until drained.
        assert!(b.push(4, u64::MAX, 13).is_none());
        assert!(!b.is_empty());
        let drained = b.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, 1);
        assert!(b.is_empty());
    }
}
