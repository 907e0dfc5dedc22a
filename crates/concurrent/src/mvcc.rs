//! Multi-version concurrency control over [`ConcurrentTree`]: the newest
//! version of a key lives in its leaf slot, older ones in a striped side
//! store, snapshot reads ride the OLC read path, and a watermark garbage
//! collector visits only keys that have garbage.
//!
//! # Shape
//!
//! The tree's value is a `Slot`: `(commit_ts, Option<V>)`, the key's
//! newest version (`None` is a delete tombstone). It is plain data whenever
//! `V` is, so a point read is the tree's latch-free `get` and a scan is a
//! filter over its `range`; a key written once — the paper's regime —
//! costs no allocation, lock or pointer beyond the tree's own. Versions an
//! overwrite or delete supersedes are *spilled* to the side store: one
//! `BTreeMap<K, Vec<(commit_ts, Option<V>)>>` (newest first) per stripe,
//! which holds an entry exactly for the keys that have older versions or
//! whose slot is a tombstone.
//!
//! # Visibility rule
//!
//! A reader at snapshot `s` sees the newest version with `commit_ts <= s`
//! — a live value or nothing (tombstone / no such version). It takes the
//! slot if `slot.ts <= s`; otherwise it locks the key's side stripe and
//! takes the newest spilled version at or below `s`.
//!
//! # Write rule
//!
//! Every write — a commit's whole write set, or one version through
//! [`MvccTree::apply`] — goes through [`MvccTree::apply_batch`], one
//! `upsert_batch` of the tree: one leaf latch per sorted chunk. Writers
//! append strictly increasing `commit_ts` per key (enforced by the caller
//! holding the keys' write stripes across allocation and apply). An
//! overwrite runs under the leaf's write latch and spills the prior
//! version *before* it overwrites the slot, so the side store already
//! holds a version's predecessor by the time any reader can see that
//! version: a reader sent past the slot always finds what it was sent
//! for. Lock order is poℓe metadata → leaf latch → side stripe (writers
//! take the metadata mutex only on the tree's fast path; scans start at
//! the leaf); nothing is acquired under a side stripe.
//!
//! # Garbage
//!
//! [`MvccTree::gc`] walks the side store, not the tree. Per key it drops
//! the versions no snapshot at or above the watermark can reach, forgets
//! the entry once the slot is all that is left, and physically deletes a
//! tombstone slot at or below the watermark — a deleted key leaves nothing
//! behind. It holds each write stripe while it works through that
//! stripe's keys, so a slot it read cannot be superseded before its side
//! list is pruned.
//!
//! Under the Gapped layout a leaf's gap slots hold *copies* of their
//! nearest live right neighbour's slot, and a lookup may land on one;
//! `ConcurrentTree::upsert` rewrites that filler run with every in-place
//! update (pinned by `overwrite_reaches_every_gapped_filler` below).

use crate::sync::Mutex;
use crate::{ConcConfig, ConcurrentTree};
use quit_core::{stripe_of, Key};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::ops::{ControlFlow, RangeBounds};
use std::sync::MutexGuard;

/// Stripe count for the per-key write locks and the side store — same
/// 64-way sizing as `quit-durability`'s shared-path ordering stripes
/// (PR 5), which this lock manager is seeded from. A stripe set is a
/// `u64` mask.
const STRIPES: usize = 64;
const _: () = assert!(STRIPES <= u64::BITS as usize);

/// A key's newest version — the tree's value. `None` is a tombstone.
#[derive(Clone)]
struct Slot<V> {
    ts: u64,
    value: Option<V>,
}

/// A key's versions older than its slot, strictly decreasing in
/// `commit_ts`.
type Older<V> = Vec<(u64, Option<V>)>;

struct Stripe<K, V> {
    /// Serializes the writers (and the collector) of this stripe's keys.
    write: Mutex<()>,
    side: Mutex<BTreeMap<K, Older<V>>>,
}

/// Drops from `older` every version a reader at or above `watermark` can
/// no longer reach, given the slot above them: all of them when the slot
/// itself is at or below the watermark, else everything strictly older
/// than the newest one with `commit_ts <= watermark` — and that one too
/// when it is a tombstone (a reader that would have found it now finds
/// nothing, which reads identically). Returns how many were dropped.
fn prune<V>(slot_ts: u64, older: &mut Older<V>, watermark: u64) -> usize {
    let keep = if slot_ts <= watermark {
        0
    } else {
        match older.iter().position(|(ts, _)| *ts <= watermark) {
            Some(split) => split + usize::from(older[split].1.is_some()),
            None => return 0,
        }
    };
    let dropped = older.len() - keep;
    older.truncate(keep);
    dropped
}

/// The write stripes covering one transaction's keys, acquired in stripe
/// order (deadlock-free) by [`MvccTree::lock_keys`]. Dropping it releases
/// every stripe.
pub struct StripeGuards<'a>(#[allow(dead_code)] Held<'a>);

#[allow(dead_code)] // held for their drop side effect
enum Held<'a> {
    /// One stripe — every single-key commit — needs no allocation.
    One(MutexGuard<'a, ()>),
    Many(Vec<MutexGuard<'a, ()>>),
}

/// A multi-version [`ConcurrentTree`]: reads are snapshot reads, writes
/// are timestamped versions. See the module docs for the visibility rule
/// and locking contract.
///
/// This type is mechanism, not policy: it does not allocate timestamps,
/// detect conflicts, or log. `quit-durability`'s `TxnStore` layers the
/// transaction protocol (snapshot/commit timestamps, first-committer-wins
/// validation, one WAL frame per commit, GC scheduling) on top of exactly
/// this API.
pub struct MvccTree<K: Key, V: Clone> {
    tree: ConcurrentTree<K, Slot<V>>,
    stripes: Box<[Stripe<K, V>]>,
}

impl<K: Key, V: Clone> MvccTree<K, V> {
    /// An empty multi-version tree with the given inner-tree
    /// configuration (layout, search kind, OLC on/off all apply).
    pub fn new(config: ConcConfig) -> Self {
        Self::bulk_load(config, std::iter::empty())
    }

    /// Bulk-builds from `(key, commit_ts, value)` entries in key order —
    /// the recovery path: every key is a slot and nothing else, and the
    /// inner tree is built bottom-up by [`ConcurrentTree::bulk_load`].
    pub fn bulk_load(config: ConcConfig, entries: impl IntoIterator<Item = (K, u64, V)>) -> Self {
        let slots = entries
            .into_iter()
            .map(|(key, ts, v)| (key, Slot { ts, value: Some(v) }))
            .collect();
        MvccTree {
            tree: ConcurrentTree::bulk_load(config, slots),
            stripes: (0..STRIPES)
                .map(|_| Stripe {
                    write: Mutex::new(()),
                    side: Mutex::new(BTreeMap::new()),
                })
                .collect(),
        }
    }

    /// The stripe covering `key` ([`stripe_of`], the hash
    /// `quit-durability`'s shared-path ordering locks use too).
    fn stripe(&self, key: K) -> &Stripe<K, V> {
        &self.stripes[stripe_of(key, STRIPES)]
    }

    /// Locks the write stripes covering `keys` — deduplicated and
    /// acquired in ascending stripe order, so any two transactions
    /// acquire their overlapping stripes in the same order and cannot
    /// deadlock. Hold the returned guards across conflict validation,
    /// logging, and [`apply_batch`](Self::apply_batch) of the set.
    pub fn lock_keys<B: Borrow<K>>(&self, keys: impl IntoIterator<Item = B>) -> StripeGuards<'_> {
        let mask = keys
            .into_iter()
            .fold(0u64, |mask, k| mask | 1 << stripe_of(*k.borrow(), STRIPES));
        let mut rest = mask;
        let mut next = || {
            let stripe = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            self.stripes[stripe].write.lock()
        };
        StripeGuards(match mask.count_ones() {
            1 => Held::One(next()),
            n => Held::Many((0..n).map(|_| next()).collect()),
        })
    }

    /// Resolves `key` at `snapshot_ts` when the snapshot may not be
    /// registered with whoever schedules [`gc`](Self::gc): `None` means
    /// the slot is newer than the snapshot and the side store holds
    /// nothing at or below it. For a snapshot the watermark respects that
    /// is "absent"; for one it may have passed, the version this reader
    /// was sent for may have been pruned, and the caller should resolve
    /// again at a fresher snapshot. Any version that *is* found is the
    /// right one either way: pruning only ever removes a suffix.
    pub fn try_read_at(&self, key: K, snapshot_ts: u64) -> Option<Option<V>> {
        match self.tree.get(key) {
            Some(slot) if slot.ts > snapshot_ts => self.older_at(key, snapshot_ts),
            newest => Some(newest.and_then(|slot| slot.value)),
        }
    }

    /// The newest version of `key` at or below `snapshot_ts` among those
    /// spilled out of its slot.
    fn older_at(&self, key: K, snapshot_ts: u64) -> Option<Option<V>> {
        let side = self.stripe(key).side.lock();
        let (_, value) = side.get(&key)?.iter().find(|(ts, _)| *ts <= snapshot_ts)?;
        Some(value.clone())
    }

    /// Snapshot read: the newest live value with `commit_ts <=
    /// snapshot_ts`. For a plain-data `V` at a snapshot no older than the
    /// key's slot this is the tree's latch-free `get` and nothing more.
    pub fn read_at(&self, key: K, snapshot_ts: u64) -> Option<V> {
        self.try_read_at(key, snapshot_ts).flatten()
    }

    /// The commit timestamp of the first of `keys` whose newest version
    /// (live or tombstone) is younger than `snapshot_ts`, or `None` when
    /// no key has one — a key never written, or whose tombstone was
    /// reclaimed, has none. This is the first-committer-wins check: a
    /// transaction at snapshot `s` writing `keys` conflicts iff
    /// `newest_after(keys, s)` is `Some`. Ascending `keys` cost one leaf
    /// descent per leaf ([`ConcurrentTree::get_sorted`]). A caller holding
    /// the keys' write stripes ([`lock_keys`](Self::lock_keys)) reads slots
    /// that no writer can change until it lets go.
    pub fn newest_after(&self, keys: impl IntoIterator<Item = K>, snapshot_ts: u64) -> Option<u64> {
        self.tree.get_sorted(keys, |_, slot| match slot {
            Some(slot) if slot.ts > snapshot_ts => ControlFlow::Break(slot.ts),
            _ => ControlFlow::Continue(()),
        })
    }

    /// Writes one version — `Some(v)` writes, `None` deletes (tombstone) —
    /// as a one-write [`apply_batch`](Self::apply_batch), under its
    /// contract. Returns whether the previous newest version was a live
    /// value (the caller's live-key accounting).
    pub fn apply(&self, key: K, commit_ts: u64, value: Option<V>) -> bool {
        let tombstone = value.is_none();
        let (_, superseded) = self.apply_batch(commit_ts, &[(key, value)]);
        superseded > u64::from(tombstone)
    }

    /// Writes one commit's versions, all at `commit_ts`, as one
    /// [`ConcurrentTree::upsert_batch`] over the write set read where it
    /// lies (no allocation), so a sorted commit pays one poℓe latch per
    /// leaf chunk rather than one insert per key. Returns how far the
    /// commit moves the live-key count and how many versions it superseded
    /// (overwrites and tombstones: what [`gc`](Self::gc) can later
    /// reclaim).
    ///
    /// # Contract
    ///
    /// The caller must hold the write set's stripes (via
    /// [`lock_keys`](Self::lock_keys)) and must allocate `commit_ts`
    /// *while holding them*, so per-key timestamps are strictly increasing
    /// — debug-asserted here. Keys are distinct.
    pub fn apply_batch(&self, commit_ts: u64, writes: &[(K, Option<V>)]) -> (i64, u64) {
        let mut prev_live = 0;
        let newest = |(_, value): &(K, Option<V>)| Slot {
            ts: commit_ts,
            value: value.clone(),
        };
        self.tree.upsert_batch_by(
            writes,
            |e| e.0,
            newest,
            |key, slot, new| {
                debug_assert!(
                    slot.ts < new.ts,
                    "per-key commit timestamps must be strictly increasing"
                );
                prev_live += u64::from(slot.value.is_some());
                // Spill, then overwrite (module docs, "Write rule").
                let prior = (slot.ts, slot.value.take());
                self.stripe(key)
                    .side
                    .lock()
                    .entry(key)
                    .or_default()
                    .insert(0, prior);
                *slot = new;
            },
        );
        // A tombstone slot with no history still needs collecting; one that
        // superseded a version already has its entry.
        let mut deletes = 0;
        for (key, _) in writes.iter().filter(|(_, value)| value.is_none()) {
            self.stripe(*key).side.lock().entry(*key).or_default();
            deletes += 1;
        }
        let writing = writes.len() as u64 - deletes;
        (writing as i64 - prev_live as i64, prev_live + deletes)
    }

    /// Reclaims what no snapshot at or above `watermark` can reach: every
    /// side version older than the newest one at or below the watermark
    /// (and that one too if it is a tombstone), and tombstone slots at or
    /// below it, which are deleted from the tree outright. The caller
    /// guarantees no reader holds a snapshot below `watermark` and must
    /// not hold any [`StripeGuards`]. Returns the number of versions
    /// reclaimed. Costs one lock pair per stripe plus work per key that
    /// has garbage; keys written once are never visited.
    pub fn gc(&self, watermark: u64) -> usize {
        let mut reclaimed = 0;
        for stripe in self.stripes.iter() {
            let _writers = stripe.write.lock();
            // Candidates first: `get` and `delete` latch leaves, and no
            // leaf latch may be taken under a side stripe.
            let keys: Vec<K> = stripe.side.lock().keys().copied().collect();
            for key in keys {
                let slot = self
                    .tree
                    .get(key)
                    .expect("side entries are for keys in the tree");
                let dead = slot.value.is_none() && slot.ts <= watermark;
                let mut side = stripe.side.lock();
                let older = side.get_mut(&key).expect("only the collector removes");
                reclaimed += prune(slot.ts, older, watermark) + usize::from(dead);
                if dead || (older.is_empty() && slot.value.is_some()) {
                    side.remove(&key);
                }
                drop(side);
                if dead {
                    self.tree.delete(key);
                }
            }
        }
        reclaimed
    }

    /// Materialized snapshot scan: every `(key, value)` live at
    /// `snapshot_ts` within `bounds`, in key order. Materialized rather
    /// than lazy so the whole scan observes one snapshot regardless of
    /// how long the caller iterates.
    pub fn scan_at<R: RangeBounds<K>>(&self, bounds: R, snapshot_ts: u64) -> Vec<(K, V)> {
        self.tree
            .range(bounds)
            .filter_map(|(k, slot)| {
                let value = if slot.ts <= snapshot_ts {
                    slot.value
                } else {
                    self.older_at(k, snapshot_ts).flatten()
                };
                value.map(|v| (k, v))
            })
            .collect()
    }

    /// Every key whose newest version is a live value, as `(key,
    /// commit_ts, value)` in key order — the checkpoint image. Tombstoned
    /// keys are omitted: after the WAL rotates, no post-restart snapshot
    /// can predate the checkpoint, so their history is unreachable by
    /// construction.
    pub fn latest_live(&self) -> Vec<(K, u64, V)> {
        self.tree
            .range(..)
            .filter_map(|(k, slot)| slot.value.map(|v| (k, slot.ts, v)))
            .collect()
    }

    /// Number of keys in the tree: live ones plus tombstones the
    /// collector has not yet reclaimed — a capacity statistic, not a
    /// live-key count; the transaction layer tracks live keys exactly.
    pub fn keys_ever(&self) -> usize {
        self.tree.len()
    }

    /// Metrics of the underlying tree (fast-path counters, OLC restart
    /// counts, latency histograms per the configured `MetricsLevel`).
    pub fn metrics(&self) -> quit_core::StatsSnapshot {
        self.tree.metrics()
    }

    /// Structural consistency check of the underlying tree plus the MVCC
    /// invariants: each side list strictly decreasing and strictly below
    /// its slot's timestamp, a side entry for every tombstone slot, no
    /// empty side list under a live slot, and no side entry for a key the
    /// tree does not hold. Call on a quiesced tree.
    pub fn check_consistency(&self) -> Result<(), String> {
        self.tree.check_consistency()?;
        let mut matched = 0;
        for (k, slot) in self.tree.range(..) {
            let side = self.stripe(k).side.lock();
            let Some(older) = side.get(&k) else {
                if slot.value.is_none() {
                    return Err(format!("tombstone slot without a side entry (key {k:?})"));
                }
                continue;
            };
            matched += 1;
            if older.is_empty() && slot.value.is_some() {
                return Err(format!("empty side list under a live slot (key {k:?})"));
            }
            let mut above = slot.ts;
            for &(ts, _) in older {
                if ts >= above {
                    return Err(format!(
                        "version timestamps do not decrease: {ts} under {above} (key {k:?})"
                    ));
                }
                above = ts;
            }
        }
        let entries: usize = self.stripes.iter().map(|s| s.side.lock().len()).sum();
        if entries != matched {
            return Err(format!(
                "{} side entries for keys absent from the tree",
                entries - matched
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quit_core::{NodeLayoutKind, TreeConfig};
    use std::sync::Arc;

    fn tiny<V: Clone>(layout: NodeLayoutKind) -> MvccTree<u64, V> {
        // Tiny leaves force splits (and, for Gapped, filler seeding) with
        // few keys.
        MvccTree::new(ConcConfig::from_tree(
            TreeConfig::small(8).with_node_layout(layout),
        ))
    }

    fn write<V: Clone>(t: &MvccTree<u64, V>, key: u64, ts: u64, v: Option<V>) -> bool {
        let _g = t.lock_keys([key]);
        t.apply(key, ts, v)
    }

    #[test]
    fn slot_is_plain_data_and_small() {
        assert!(std::mem::size_of::<Slot<u64>>() <= 24);
        assert!(!std::mem::needs_drop::<Slot<u64>>());
        assert!(std::mem::needs_drop::<Slot<String>>());
    }

    #[test]
    fn visibility_picks_newest_at_or_below_snapshot() {
        let t = tiny(NodeLayoutKind::Dense);
        write(&t, 5, 10, Some(100));
        write(&t, 5, 20, Some(200));
        write(&t, 5, 30, None); // delete
        assert_eq!(t.read_at(5, 9), None);
        assert_eq!(t.read_at(5, 10), Some(100));
        assert_eq!(t.read_at(5, 19), Some(100));
        assert_eq!(t.read_at(5, 20), Some(200));
        assert_eq!(t.read_at(5, 29), Some(200));
        assert_eq!(t.read_at(5, 30), None);
        assert_eq!(t.read_at(5, u64::MAX), None);
        assert_eq!(t.newest_after([5], 29), Some(30));
        assert_eq!(t.newest_after([5], 30), None);
        assert_eq!(t.newest_after([6], 0), None);
        assert_eq!(t.newest_after([4, 5, 6], 9), Some(30));
        t.check_consistency().unwrap();
    }

    #[test]
    fn try_read_at_tells_pruned_from_absent() {
        let t = tiny(NodeLayoutKind::Dense);
        write(&t, 1, 10, Some(1));
        write(&t, 1, 20, Some(2));
        write(&t, 2, 15, None);
        assert_eq!(t.try_read_at(1, 15), Some(Some(1)));
        assert_eq!(t.try_read_at(2, 15), Some(None), "a tombstone resolves");
        assert_eq!(t.try_read_at(3, 15), Some(None), "never written resolves");
        // The collector passes the reader's (unregistered) snapshot.
        assert_eq!(t.gc(20), 2, "key 1's version 10 and key 2's tombstone");
        assert_eq!(t.try_read_at(1, 15), None, "pruned: resolve again");
        assert_eq!(t.try_read_at(1, 20), Some(Some(2)));
    }

    #[test]
    fn apply_reports_previous_liveness() {
        let t = tiny(NodeLayoutKind::Dense);
        assert!(!write(&t, 1, 1, Some(10))); // absent -> live
        assert!(write(&t, 1, 2, Some(11))); // live -> live
        assert!(write(&t, 1, 3, None)); // live -> tombstone
        assert!(!write(&t, 1, 4, Some(12))); // tombstone -> live
        assert!(!write(&t, 2, 5, None)); // absent -> tombstone
        t.check_consistency().unwrap();
    }

    #[test]
    fn gc_prunes_exactly_the_unreachable_suffix() {
        let t = tiny(NodeLayoutKind::Dense);
        for ts in 1..=5u64 {
            write(&t, 7, ts * 10, Some(ts));
        }
        // watermark 35: versions 10,20,30 collapse to just 30.
        assert_eq!(t.gc(35), 2);
        assert_eq!(t.read_at(7, 35), Some(3));
        assert_eq!(t.read_at(7, 40), Some(4));
        assert_eq!(t.read_at(7, u64::MAX), Some(5));
        // A tombstone at or below the watermark goes, and its key with it.
        write(&t, 8, 10, Some(1));
        write(&t, 8, 20, None);
        assert_eq!(t.keys_ever(), 2);
        assert_eq!(t.gc(25), 2);
        assert_eq!(t.read_at(8, 25), None);
        assert_eq!(t.newest_after([8], 0), None);
        assert_eq!(t.keys_ever(), 1, "the tombstone slot was deleted");
        // A tombstone above the watermark stays until the watermark passes.
        write(&t, 9, 60, None);
        assert_eq!(t.gc(59), 2, "key 7's versions 30 and 40, under slot 50");
        assert_eq!(t.newest_after([9], 59), Some(60));
        assert_eq!(t.gc(60), 1, "key 9's tombstone");
        assert_eq!(t.keys_ever(), 1);
        t.check_consistency().unwrap();
    }

    #[test]
    fn scan_at_is_a_point_in_time_image() {
        let t = tiny(NodeLayoutKind::Dense);
        for k in 0..20u64 {
            write(&t, k, 10, Some(k * 100));
        }
        write(&t, 3, 20, None);
        write(&t, 4, 20, Some(999));
        write(&t, 21, 20, Some(1));
        let old = t.scan_at(.., 10);
        assert_eq!(old.len(), 20);
        assert_eq!(old[3], (3, 300));
        assert_eq!(old[4], (4, 400));
        let new = t.scan_at(.., 20);
        assert_eq!(new.len(), 20); // -3, +21
        assert!(!new.iter().any(|&(k, _)| k == 3));
        assert!(new.contains(&(4, 999)));
        assert!(new.contains(&(21, 1)));
        assert_eq!(t.scan_at(5..10, 20).len(), 5);
    }

    /// Gapped-layout filler slots hold *copies* of the neighbouring slot,
    /// and a lookup's lower bound lands on the first filler of a run, not
    /// on the live slot. An overwrite must therefore reach every filler:
    /// each read below goes through whatever alias the leaf has for its
    /// key, at the new snapshot, the old one, and after the old one is
    /// collected. Both layouts, so a layout change fails loudly.
    #[test]
    fn overwrite_reaches_every_gapped_filler() {
        for layout in [NodeLayoutKind::Dense, NodeLayoutKind::Gapped] {
            let t = tiny(layout);
            // Random-ish insertion order and enough keys to split leaves
            // repeatedly, seeding gaps (filler copies) under Gapped.
            let mut keys: Vec<u64> = (0..200).map(|i| (i * 37) % 211).collect();
            keys.dedup();
            for (i, &k) in keys.iter().enumerate() {
                write(&t, k, 10 + i as u64, Some(k * 2));
            }
            let base = 10_000u64;
            for (i, &k) in keys.iter().enumerate() {
                write(&t, k, base + i as u64, Some(k * 3));
                // Visible at once, before any later overwrite touches the leaf.
                assert_eq!(t.read_at(k, u64::MAX), Some(k * 3), "layout {layout:?}");
            }
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(t.read_at(k, u64::MAX), Some(k * 3), "layout {layout:?}");
                assert_eq!(
                    t.newest_after([k], base + i as u64 - 1),
                    Some(base + i as u64)
                );
                assert_eq!(t.newest_after([k], base + i as u64), None);
                assert_eq!(t.read_at(k, base - 1), Some(k * 2), "layout {layout:?}");
            }
            t.check_consistency().unwrap();
            assert_eq!(t.gc(u64::MAX - 1), keys.len(), "layout {layout:?}");
            for &k in &keys {
                assert_eq!(t.read_at(k, u64::MAX), Some(k * 3), "layout {layout:?}");
                assert_eq!(
                    t.read_at(k, base - 1),
                    None,
                    "layout {layout:?}: collected version resurrected"
                );
            }
            t.check_consistency().unwrap();
        }
    }

    /// Model differential: random `apply` / `read_at` / `scan_at` /
    /// `newest_after` / `gc` against a `BTreeMap` of full version
    /// lists pruned by the textbook rule.
    fn differential<V: Clone + PartialEq + std::fmt::Debug>(
        layout: NodeLayoutKind,
        make: impl Fn(u64) -> V,
    ) {
        use rand::prelude::*;
        let t: MvccTree<u64, V> = tiny(layout);
        // Oldest first.
        let mut model: BTreeMap<u64, Vec<(u64, Option<V>)>> = BTreeMap::new();
        let at = |model: &BTreeMap<u64, Vec<(u64, Option<V>)>>, k: u64, s: u64| {
            let versions = model.get(&k)?;
            versions.iter().rev().find(|(ts, _)| *ts <= s)?.1.clone()
        };
        let mut rng = StdRng::seed_from_u64(0x3C_C0DE ^ layout as u64);
        let (mut now, mut watermark) = (0u64, 0u64);
        for step in 0..6_000 {
            let k = rng.gen_range(0..96u64);
            let s = rng.gen_range(watermark..=now);
            match rng.gen_range(0..10) {
                0..=4 => {
                    now += 1;
                    let v = (rng.gen_range(0..4) > 0).then(|| make(now));
                    let versions = model.entry(k).or_default();
                    let prev_live = versions.last().is_some_and(|(_, v)| v.is_some());
                    versions.push((now, v.clone()));
                    assert_eq!(write(&t, k, now, v), prev_live, "step {step}");
                }
                5 | 6 => assert_eq!(t.read_at(k, s), at(&model, k, s), "step {step}"),
                7 => {
                    let want = model
                        .range(k..k + 8)
                        .map(|(_, v)| v.last().expect("non-empty").0)
                        .find(|&ts| ts > s);
                    assert_eq!(t.newest_after(k..k + 8, s), want, "step {step}");
                }
                8 => {
                    let want: Vec<(u64, V)> = model
                        .range(k..k + 24)
                        .filter_map(|(&k, _)| at(&model, k, s).map(|v| (k, v)))
                        .collect();
                    assert_eq!(t.scan_at(k..k + 24, s), want, "step {step}");
                }
                _ => {
                    watermark = s;
                    let mut dropped = 0;
                    model.retain(|_, versions| {
                        if let Some(i) = versions.iter().rposition(|(ts, _)| *ts <= watermark) {
                            let cut = i + usize::from(versions[i].1.is_none());
                            dropped += versions.drain(..cut).len();
                        }
                        !versions.is_empty()
                    });
                    assert_eq!(t.gc(watermark), dropped, "step {step}");
                    t.check_consistency().unwrap();
                    let newest = model.values().map(|v| v.last().expect("non-empty"));
                    let kept = newest
                        .filter(|(ts, v)| v.is_some() || *ts > watermark)
                        .count();
                    assert_eq!(kept, model.len());
                    assert_eq!(t.keys_ever(), kept, "live + tombstones above the watermark");
                }
            }
        }
        t.check_consistency().unwrap();
        assert!(
            now > 2_000 && watermark > 0,
            "the run must overwrite and collect"
        );
    }

    #[test]
    fn model_differential_plain_and_heap_values_both_layouts() {
        for layout in [NodeLayoutKind::Dense, NodeLayoutKind::Gapped] {
            differential(layout, |ts| ts * 7); // latch-free slot reads
            differential(layout, |ts| format!("v{ts}")); // latched slot reads
        }
    }

    #[test]
    fn lock_keys_is_deadlock_free_across_threads() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let t = Arc::new(tiny(NodeLayoutKind::Dense));
        let ts = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|tid| {
                let t = Arc::clone(&t);
                let ts = Arc::clone(&ts);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        // Overlapping shared keys lock in clashing
                        // orders; each thread writes only its own key.
                        let keys = [i % 7, (i + tid) % 7, 1000 + tid];
                        let _g = t.lock_keys(keys);
                        let now = ts.fetch_add(1, Ordering::Relaxed) + 1;
                        t.apply(1000 + tid, now, Some(i));
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        t.check_consistency().unwrap();
    }
}
