//! Multi-version concurrency control over [`ConcurrentTree`]: version
//! chains keyed by commit timestamp, snapshot reads riding the OLC
//! descent, and a watermark garbage collector.
//!
//! # Shape
//!
//! The tree maps each key to one [`VersionCell`] — an `Arc`-shared,
//! mutex-guarded [`VersionChain`] holding `(commit_ts, Option<V>)`
//! versions newest-first (`None` is a delete tombstone). The cell is the
//! tree's *value*, so reads reach it through the existing descent
//! machinery unchanged: the descent to the leaf is latch-free under OLC,
//! and because `Arc` has drop glue the leaf-level read takes the
//! shared-latch materialization path that PR 4 added for heap-owning
//! values (an `Arc` clone must never race a writer's drop). Version
//! visibility is then resolved under the cell's own mutex, off the tree's
//! lock protocol entirely.
//!
//! # Visibility rule
//!
//! A reader at snapshot `s` sees the newest version with `commit_ts <= s`
//! — a live value or nothing (tombstone / no such version). Writers
//! append strictly increasing `commit_ts` per chain (enforced by the
//! caller holding the key's stripe across allocation and apply; see
//! [`MvccTree::apply`]).
//!
//! # Cells are immortal, chains are not
//!
//! A key's cell is inserted once and never removed from the tree —
//! deletes append tombstones. This sidesteps every cell-identity race
//! (two writers racing get-or-insert would duplicate chains; the
//! [`ConcurrentTree`] keeps duplicate keys) at the cost of a husk per
//! ever-written key, reclaimed only by a checkpoint+reopen cycle in the
//! durable wrapper.
//!
//! This is also what makes the Gapped layout's filler copies safe: a
//! gapped leaf fills its gap slots with *clones* of the nearest live
//! right neighbour's value — for an MVCC tree that is an `Arc` clone
//! aliasing the same chain, never a deep copy of the versions. GC
//! through any alias prunes the one shared chain, so a filler can never
//! resurrect a version the collector reclaimed (pinned by
//! `gc_vs_gapped_fillers` below against both layouts).

use crate::sync::Mutex;
use crate::{ConcConfig, ConcurrentTree};
use quit_core::Key;
use std::ops::RangeBounds;
use std::sync::Arc;
use std::sync::MutexGuard;

/// Stripe count for the per-key write locks — same 64-way sizing as
/// `quit-durability`'s shared-path ordering stripes (PR 5), which this
/// lock manager is seeded from.
const STRIPES: usize = 64;

/// One key's version history, newest-first. `None` values are delete
/// tombstones.
#[derive(Debug, Default)]
pub struct VersionChain<V> {
    /// `(commit_ts, value)` pairs, strictly decreasing in `commit_ts`.
    versions: Vec<(u64, Option<V>)>,
}

impl<V: Clone> VersionChain<V> {
    /// The newest version visible at snapshot `s`, if it is a live value.
    fn read_at(&self, s: u64) -> Option<V> {
        self.versions
            .iter()
            .find(|(ts, _)| *ts <= s)
            .and_then(|(_, v)| v.clone())
    }

    /// Commit timestamp of the newest version, GC'd or not.
    fn latest_ts(&self) -> Option<u64> {
        self.versions.first().map(|(ts, _)| *ts)
    }

    /// Drops every version a reader at or above `watermark` can no longer
    /// reach: all versions strictly older than the newest one with
    /// `commit_ts <= watermark` — and that newest one too when it is a
    /// tombstone (a reader that would have found it now finds nothing,
    /// which reads identically). Returns how many versions were dropped.
    fn prune(&mut self, watermark: u64) -> usize {
        let Some(split) = self.versions.iter().position(|(ts, _)| *ts <= watermark) else {
            return 0;
        };
        let keep = if self.versions[split].1.is_some() {
            split + 1
        } else {
            split
        };
        let dropped = self.versions.len() - keep;
        self.versions.truncate(keep);
        dropped
    }
}

/// A shared handle to one key's [`VersionChain`] — the value type
/// [`MvccTree`] stores in its [`ConcurrentTree`]. Cloning is an `Arc`
/// clone: every alias (including Gapped-layout filler copies) sees the
/// same chain.
pub struct VersionCell<V>(Arc<Mutex<VersionChain<V>>>);

impl<V> Clone for VersionCell<V> {
    fn clone(&self) -> Self {
        VersionCell(Arc::clone(&self.0))
    }
}

impl<V> VersionCell<V> {
    fn new() -> Self {
        VersionCell(Arc::new(Mutex::new(VersionChain {
            versions: Vec::new(),
        })))
    }
}

/// A guard set over the write stripes covering one transaction's keys,
/// acquired in stripe order (deadlock-free) by [`MvccTree::lock_keys`].
/// Dropping it releases every stripe.
pub struct StripeGuards<'a> {
    #[allow(dead_code)] // held for its drop side effect
    guards: Vec<MutexGuard<'a, ()>>,
}

/// A multi-version [`ConcurrentTree`]: keys map to version chains, reads
/// are snapshot reads, writes are timestamped appends. See the module
/// docs for the visibility rule and locking contract.
///
/// This type is mechanism, not policy: it does not allocate timestamps,
/// detect conflicts, or log. `quit-durability`'s `TxnStore` layers the
/// transaction protocol (snapshot/commit timestamps, first-committer-wins
/// validation, WAL commit groups, GC scheduling) on top of exactly this
/// API.
pub struct MvccTree<K: Key, V: Clone> {
    tree: ConcurrentTree<K, VersionCell<V>>,
    stripes: Box<[Mutex<()>]>,
}

impl<K: Key, V: Clone> MvccTree<K, V> {
    /// An empty multi-version tree with the given inner-tree
    /// configuration (layout, search kind, OLC on/off all apply).
    pub fn new(config: ConcConfig) -> Self {
        MvccTree {
            tree: ConcurrentTree::new(config),
            stripes: (0..STRIPES).map(|_| Mutex::new(())).collect(),
        }
    }

    /// Bulk-builds from `(key, commit_ts, value)` entries in key order —
    /// the recovery path: each key gets a single-version chain. Rides the
    /// inner tree's sorted-run batch fast path.
    pub fn bulk_load(config: ConcConfig, entries: Vec<(K, u64, V)>) -> Self {
        use quit_core::SortedIndex;
        let mut this = Self::new(config);
        let cells: Vec<(K, VersionCell<V>)> = entries
            .into_iter()
            .map(|(k, ts, v)| {
                let cell = VersionCell::new();
                cell.0.lock().versions.push((ts, Some(v)));
                (k, cell)
            })
            .collect();
        this.tree.insert_batch(&cells);
        this
    }

    /// The stripe index covering `key` — `to_ikr`-based, identical in
    /// shape to `quit-durability`'s shared-path stripe hash so equal keys
    /// always collide and `f64`'s two zeros normalize alike.
    fn stripe_of(&self, key: K) -> usize {
        let ikr = key.to_ikr();
        let mut h = (if ikr == 0.0 { 0.0 } else { ikr }).to_bits();
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        (h % self.stripes.len() as u64) as usize
    }

    /// Locks the write stripes covering `keys` — deduplicated and
    /// acquired in ascending stripe order, so any two transactions
    /// acquire their overlapping stripes in the same order and cannot
    /// deadlock. Hold the returned guards across conflict validation,
    /// logging, and [`apply`](Self::apply) of every key in the set.
    pub fn lock_keys(&self, keys: &[K]) -> StripeGuards<'_> {
        let mut idx: Vec<usize> = keys.iter().map(|&k| self.stripe_of(k)).collect();
        idx.sort_unstable();
        idx.dedup();
        StripeGuards {
            guards: idx.into_iter().map(|i| self.stripes[i].lock()).collect(),
        }
    }

    /// Snapshot read: the newest live value with `commit_ts <=
    /// snapshot_ts`. The descent is the tree's ordinary read path (OLC
    /// latch-free when enabled); version resolution happens under the
    /// cell's mutex.
    pub fn read_at(&self, key: K, snapshot_ts: u64) -> Option<V> {
        let cell = self.tree.get(key)?;
        let chain = cell.0.lock();
        chain.read_at(snapshot_ts)
    }

    /// Commit timestamp of the newest version of `key` (live or
    /// tombstone), or `None` if the key was never written or its chain
    /// was fully GC'd. This is the first-committer-wins witness: a
    /// transaction at snapshot `s` writing `key` conflicts iff
    /// `latest_commit_ts(key) > s`.
    pub fn latest_commit_ts(&self, key: K) -> Option<u64> {
        let cell = self.tree.get(key)?;
        let chain = cell.0.lock();
        chain.latest_ts()
    }

    /// Appends a version: `Some(v)` writes, `None` deletes (tombstone).
    /// Returns whether the previous newest version was a live value (the
    /// caller's live-key accounting).
    ///
    /// # Contract
    ///
    /// The caller must hold `key`'s stripe (via
    /// [`lock_keys`](Self::lock_keys)) and must allocate `commit_ts`
    /// *while holding it*, so per-chain timestamps are strictly
    /// increasing — debug-asserted here.
    pub fn apply(&self, key: K, commit_ts: u64, value: Option<V>) -> bool {
        let cell = match self.tree.get(key) {
            Some(c) => c,
            None => {
                // First write to this key. Safe without a get-or-insert
                // CAS: the stripe serializes all writers of this key, so
                // no other thread can be inserting the same key's cell.
                let c = VersionCell::new();
                self.tree.insert(key, c.clone());
                c
            }
        };
        let mut chain = cell.0.lock();
        debug_assert!(
            chain.latest_ts().is_none_or(|ts| ts < commit_ts),
            "per-chain commit timestamps must be strictly increasing"
        );
        let prev_live = chain.versions.first().is_some_and(|(_, v)| v.is_some());
        chain.versions.insert(0, (commit_ts, value));
        prev_live
    }

    /// Reclaims versions no live snapshot can reach: for every chain,
    /// drops everything older than the newest version with `commit_ts <=
    /// watermark` (and that version too if it is a tombstone). The caller
    /// guarantees no reader holds a snapshot below `watermark`. Returns
    /// the number of versions reclaimed.
    pub fn gc(&self, watermark: u64) -> usize {
        let mut reclaimed = 0;
        for (_, cell) in self.tree.range(..) {
            reclaimed += cell.0.lock().prune(watermark);
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
            .filter_map(|(k, cell)| cell.0.lock().read_at(snapshot_ts).map(|v| (k, v)))
            .collect()
    }

    /// Every key whose newest version is a live value, as `(key,
    /// commit_ts, value)` in key order — the checkpoint image. Tombstoned
    /// and fully-GC'd keys are omitted: after the WAL rotates, no
    /// post-restart snapshot can predate the checkpoint, so their
    /// history is unreachable by construction.
    pub fn latest_live(&self) -> Vec<(K, u64, V)> {
        self.tree
            .range(..)
            .filter_map(|(k, cell)| {
                let chain = cell.0.lock();
                match chain.versions.first() {
                    Some((ts, Some(v))) => Some((k, *ts, v.clone())),
                    _ => None,
                }
            })
            .collect()
    }

    /// Number of keys ever written (live, tombstoned, and GC-husk cells
    /// alike) — a capacity statistic, not a live-key count; the
    /// transaction layer tracks live keys exactly.
    pub fn keys_ever(&self) -> usize {
        self.tree.len()
    }

    /// Metrics of the underlying tree (fast-path counters, OLC restart
    /// counts, latency histograms per the configured `MetricsLevel`).
    pub fn metrics(&self) -> quit_core::StatsSnapshot {
        self.tree.metrics()
    }

    /// Structural consistency check of the underlying tree plus the MVCC
    /// invariant that every chain's timestamps strictly decrease.
    pub fn check_consistency(&self) -> Result<(), String> {
        self.tree.check_consistency()?;
        for (k, cell) in self.tree.range(..) {
            let chain = cell.0.lock();
            for w in chain.versions.windows(2) {
                if w[0].0 <= w[1].0 {
                    return Err(format!(
                        "non-decreasing version timestamps {} -> {} in a chain (key ikr {})",
                        w[1].0,
                        w[0].0,
                        k.to_ikr()
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quit_core::{NodeLayoutKind, TreeConfig};

    fn tiny(layout: NodeLayoutKind) -> MvccTree<u64, u64> {
        // Tiny leaves force splits (and, for Gapped, filler seeding) with
        // few keys.
        MvccTree::new(ConcConfig::from_tree(
            TreeConfig::small(8).with_node_layout(layout),
        ))
    }

    fn write(t: &MvccTree<u64, u64>, key: u64, ts: u64, v: Option<u64>) -> bool {
        let _g = t.lock_keys(&[key]);
        t.apply(key, ts, v)
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
        assert_eq!(t.latest_commit_ts(5), Some(30));
        assert_eq!(t.latest_commit_ts(6), None);
        t.check_consistency().unwrap();
    }

    #[test]
    fn apply_reports_previous_liveness() {
        let t = tiny(NodeLayoutKind::Dense);
        assert!(!write(&t, 1, 1, Some(10))); // absent -> live
        assert!(write(&t, 1, 2, Some(11))); // live -> live
        assert!(write(&t, 1, 3, None)); // live -> tombstone
        assert!(!write(&t, 1, 4, Some(12))); // tombstone -> live
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
        // Tombstone at the watermark boundary is dropped entirely.
        write(&t, 8, 10, Some(1));
        write(&t, 8, 20, None);
        assert_eq!(t.gc(25), 2);
        assert_eq!(t.read_at(8, 25), None);
        assert_eq!(t.latest_commit_ts(8), None);
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

    /// Satellite: Gapped-layout filler slots clone the neighbouring
    /// cell — an `Arc` alias of the same chain, not a snapshot of its
    /// versions. GC must therefore be visible through every alias, and a
    /// filler must never resurrect a reclaimed version. Pinned against
    /// both layouts so a future deep-copying layout change fails loudly.
    #[test]
    fn gc_vs_gapped_fillers_never_resurrects() {
        for layout in [NodeLayoutKind::Dense, NodeLayoutKind::Gapped] {
            let t = tiny(layout);
            // Random-ish insertion order and enough keys to split leaves
            // repeatedly, seeding gaps (filler clones) under Gapped.
            let mut keys: Vec<u64> = (0..200).map(|i| (i * 37) % 211).collect();
            keys.dedup();
            for (i, &k) in keys.iter().enumerate() {
                write(&t, k, 10 + i as u64, Some(k * 2));
            }
            // Overwrite every key, then GC below the overwrite ts.
            let base = 10_000u64;
            for (i, &k) in keys.iter().enumerate() {
                write(&t, k, base + i as u64, Some(k * 3));
            }
            let reclaimed = t.gc(u64::MAX - 1);
            assert_eq!(reclaimed, keys.len(), "layout {layout:?}");
            // Every read — including ones that land on filler slots
            // inside gapped leaves — must see only the surviving version,
            // at every snapshot.
            for &k in &keys {
                assert_eq!(t.read_at(k, u64::MAX), Some(k * 3), "layout {layout:?}");
                assert_eq!(
                    t.read_at(k, base.saturating_sub(1)),
                    None,
                    "layout {layout:?}: GC'd version resurrected"
                );
            }
            t.check_consistency().unwrap();
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
                    // Overlapping multi-key sets in clashing orders.
                    for i in 0..200u64 {
                        // Overlapping shared keys lock in clashing
                        // orders; each thread writes only its own key.
                        let keys = [i % 7, (i + tid) % 7, 1000 + tid];
                        let _g = t.lock_keys(&keys);
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
