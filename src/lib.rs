//! # quick-insertion-tree — workspace façade
//!
//! Re-exports the reproduction's crates under one roof so the examples and
//! cross-crate integration tests have a single dependency:
//!
//! * [`quit_core`] — the Quick Insertion Tree and its B+-tree platform
//!   (classical / tail / ℓiℓ / poℓe variants, Table 1 metadata, IKR).
//! * [`quit_concurrent`] — the lock-crabbing concurrent tree (§4.5) and
//!   the multi-version [`MvccTree`](quit_concurrent::MvccTree) over it.
//! * [`quit_durability`] — segmented WAL with group commit, sorted
//!   snapshots, and crash recovery for any `SortedIndex`; since 0.9.0
//!   also [`quit_durability::TxnStore`], snapshot-isolation
//!   transactions, one atomically recovered WAL frame per commit.
//! * [`quit_service`] — the sharded, pipelined TCP key-value service
//!   over `Durable<BpTree>`.
//! * [`sware`] — the SWARE SA-B+-tree baseline.
//! * [`bods`] — K–L-sortedness workload generation and measurement.
//! * [`quit_testkit`] — the differential fuzzing & shrinking oracle
//!   (workload generation + model replay across all families, the
//!   crash-recovery differential mode, and the SI history checker).
//!
//! All fallible façade APIs return [`Result`] with the unified
//! [`Error`] taxonomy from `quit_core` — the only error type this crate
//! exports.
//!
//! ## The [`Quit`] handle
//!
//! For embedding without picking crates apart, [`Quit`] bundles the
//! common deployment — a durable, transactional concurrent tree on a
//! directory — behind one `open()`:
//!
//! ```
//! use quick_insertion_tree::Quit;
//!
//! let dir = std::env::temp_dir().join(format!("quit-doc-{}", std::process::id()));
//! let db = Quit::open(&dir)?;
//! db.insert(7, 700);
//! assert_eq!(db.get(7), Some(700));
//! assert_eq!(db.delete(7), Some(700));
//!
//! // Multi-key snapshot-isolation transactions (0.9.0):
//! let mut txn = db.begin_txn();
//! txn.insert(1, 10);
//! txn.insert(2, 20);
//! txn.commit()?;
//! assert_eq!(db.get(1), Some(10));
//! # drop(db);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), quick_insertion_tree::Error>(())
//! ```

#![warn(missing_docs)]

pub use bods;
pub use quit_concurrent;
pub use quit_core;
pub use quit_durability;
pub use quit_service;
pub use quit_testkit;
pub use sware;

pub use quit_core::{Error, Result};

use quit_core::{BpTree, FastPathMode, SortedIndex, StatsSnapshot, StorageKind, TreeConfig};
use quit_durability::{
    DurabilityConfig, Durable, FsStorage, MemStorage, RecoveryReport, Storage, Txn, TxnConfig,
    TxnStats, TxnStore,
};
use std::ops::RangeBounds;
use std::path::Path;
use std::sync::Arc;

/// The batteries-included handle: a [`TxnStore`] over `u64` keys and
/// values, opened on a directory with paper-default tree geometry and
/// group-commit durability.
///
/// Every mutation is a transaction: the single-op methods
/// ([`insert`](Self::insert), [`delete`](Self::delete)) auto-commit, and
/// [`begin_txn`](Self::begin_txn) opens a multi-key snapshot-isolation
/// transaction. Everything goes through `&self` — share a `Quit` across
/// threads with an [`Arc`]. For other key/value types, tree configs, or
/// storage backends, drop down to [`TxnStore::open`] (or the
/// non-transactional [`quit_durability::Durable`]); this handle is the
/// common case, not the whole API. For serving over TCP, see
/// [`quit_service::Server`].
pub struct Quit {
    inner: TxnStore<u64, u64>,
}

impl Quit {
    /// Opens (or creates) a durable transactional tree in `dir` with
    /// paper-default geometry and group-commit durability, discarding the
    /// recovery report. See [`open_with`](Self::open_with) to keep it.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let (db, _) = Self::open_with(
            dir,
            TreeConfig::paper_default(),
            DurabilityConfig::group_commit(),
        )?;
        Ok(db)
    }

    /// Opens (or creates) a durable transactional tree in `dir` with
    /// explicit tree and durability configuration, returning the
    /// [`RecoveryReport`] describing what was replayed. A directory whose
    /// log holds non-transactional records (one written through
    /// [`quit_durability::Durable`]) is rejected with a `wal` error naming
    /// the first such record's LSN.
    pub fn open_with(
        dir: impl AsRef<Path>,
        tree: TreeConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport)> {
        let storage = Arc::new(FsStorage::open(dir.as_ref())?) as Arc<dyn Storage>;
        let config = TxnConfig::default()
            .with_tree(tree)
            .with_durability(durability);
        let (inner, report) = TxnStore::open(storage, config)?;
        Ok((Quit { inner }, report))
    }

    /// An in-memory handle (WAL records go to a heap buffer; nothing
    /// survives the process) — tests and scratch work.
    pub fn in_memory() -> Self {
        let storage = Arc::new(MemStorage::new()) as Arc<dyn Storage>;
        let (inner, _) =
            TxnStore::open(storage, TxnConfig::default()).expect("in-memory open cannot fail");
        Quit { inner }
    }

    /// Begins a multi-key snapshot-isolation transaction: reads resolve
    /// against a stable snapshot, writes buffer until
    /// [`commit`](Txn::commit), and first-committer-wins validation
    /// rejects lost updates with [`Error::Conflict`].
    pub fn begin_txn(&self) -> Txn<'_, u64, u64> {
        self.inner.begin()
    }

    /// Auto-commit single-key insert (retried internally on conflict);
    /// at group-commit durability, returns once the commit is
    /// fsync-durable. Panics if the WAL can no longer accept writes
    /// (poisoned after an I/O failure).
    pub fn insert(&self, key: u64, value: u64) {
        self.inner.insert(key, value).expect("WAL append failed");
    }

    /// Batch insert as one transaction — one WAL frame and one group
    /// commit for the whole batch. Returns how many entries were
    /// new keys.
    pub fn insert_batch(&self, entries: &[(u64, u64)]) -> usize {
        loop {
            let mut txn = self.inner.begin();
            // Counted against the transaction's own snapshot (its buffered
            // writes included, so a key repeated in the batch counts once):
            // first-committer-wins validation makes the count exact for
            // the attempt that commits, whatever other threads do.
            let mut new_keys = 0;
            for &(k, v) in entries {
                new_keys += usize::from(txn.get(k).is_none());
                txn.insert(k, v);
            }
            match txn.commit() {
                Err(Error::Conflict(_)) => continue,
                Err(e) => panic!("WAL append failed: {e}"),
                Ok(_) => return new_keys,
            }
        }
    }

    /// Point lookup at the current visible snapshot.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.inner.get(key)
    }

    /// Auto-commit single-key delete, returning the previous value if
    /// the key was live.
    pub fn delete(&self, key: u64) -> Option<u64> {
        self.inner.delete(key).expect("WAL append failed")
    }

    /// Ordered iteration over `bounds` — a materialized snapshot scan,
    /// so the whole result observes one consistent point in time.
    pub fn range(&self, bounds: impl RangeBounds<u64>) -> impl Iterator<Item = (u64, u64)> {
        self.inner.scan(bounds).into_iter()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tree + WAL metrics (fast-path counters, WAL appends/fsyncs,
    /// group-commit and recovery histograms).
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.metrics()
    }

    /// Transaction counters: commits, conflicts, aborts, GC activity.
    pub fn txn_stats(&self) -> TxnStats {
        self.inner.txn_stats()
    }

    /// Runs a version-GC pass now (one also runs automatically every
    /// `TxnConfig::gc_every` commits). Returns versions reclaimed.
    pub fn gc(&self) -> usize {
        self.inner.gc()
    }

    /// Writes a sorted snapshot and rotates the WAL, so the next open
    /// recovers from `bulk_load + tiny tail` instead of a long replay.
    /// Quiesces concurrent committers for the duration.
    pub fn checkpoint(&self) -> Result<()> {
        self.inner.checkpoint()
    }

    /// Blocks until everything logged so far is fsync-durable (the
    /// explicit durability point for `Buffered`-level configs).
    pub fn commit_all(&self) -> Result<()> {
        self.inner.commit_all()
    }

    /// The underlying [`TxnStore`], for APIs the handle doesn't surface
    /// (snapshot scans at explicit timestamps, consistency checks,
    /// configuration).
    pub fn store(&self) -> &TxnStore<u64, u64> {
        &self.inner
    }

    /// Opens (or creates) a durable **paged** tree in `dir`: nodes live in
    /// fixed-size pages behind a buffer pool capped at `pool_pages`
    /// resident pages, checkpoints publish the page file itself
    /// (`psnap-….qpsf`), and recovery is partly lazy — integrity is
    /// verified eagerly but nodes fault in on first use. What the pool
    /// bounds is *decoded-node* residency: evicted pages stay on the heap
    /// in their encoded form (over the page image as read), so the dataset
    /// must still fit in RAM.
    ///
    /// The trade is concurrency: the paged backend is single-writer, so
    /// this returns a [`QuitPaged`] handle (`&mut self` mutations, no
    /// transactions) instead of a [`Quit`]. Directories written by the
    /// non-paged [`Quit::open`] are **not** interchangeable with paged
    /// ones — pick one flavour per directory; opening the other flavour's
    /// directory is rejected with a typed error naming the offending file
    /// or log record.
    pub fn open_paged(
        dir: impl AsRef<Path>,
        pool_pages: usize,
    ) -> Result<(QuitPaged, RecoveryReport)> {
        QuitPaged::open(dir, pool_pages)
    }
}

/// The paged sibling of [`Quit`]: a durable single-writer [`BpTree`] whose
/// nodes live in 4 KiB pages behind a buffer pool ([`Quit::open_paged`]).
///
/// Mutations take `&mut self` — wrap in a `Mutex` to share across threads.
/// Reads (`get`, `range`) also take `&mut self`, because even a lookup may
/// fault pages in. Geometry is fixed at a page-friendly leaf capacity
/// rather than the paper's 510-entry nodes (which assume the in-memory
/// arena); for the bit-for-bit paper configuration use [`Quit::open`] or
/// `quit_core` directly.
pub struct QuitPaged {
    inner: Durable<BpTree<u64, u64>>,
}

/// Leaf/internal capacity for the facade's paged trees: 120 entries of
/// `(u64, u64)` plus node metadata fits comfortably in one 4 KiB page.
const PAGED_LEAF_CAPACITY: usize = 120;

impl QuitPaged {
    /// See [`Quit::open_paged`].
    pub fn open(dir: impl AsRef<Path>, pool_pages: usize) -> Result<(Self, RecoveryReport)> {
        let storage = Arc::new(FsStorage::open(dir.as_ref())?) as Arc<dyn Storage>;
        let tree_config =
            TreeConfig::small(PAGED_LEAF_CAPACITY).with_storage(StorageKind::paged(pool_pages));
        let (inner, report) = Durable::open_paged(
            storage,
            DurabilityConfig::group_commit(),
            FastPathMode::Pole,
            tree_config,
        )?;
        Ok((QuitPaged { inner }, report))
    }

    /// Logged insert; at group-commit durability, returns once the commit
    /// group is fsync-durable.
    pub fn insert(&mut self, key: u64, value: u64) {
        SortedIndex::insert(&mut self.inner, key, value);
    }

    /// Batch insert — one WAL append (and one group commit) for the whole
    /// batch. Returns how many entries were new keys.
    pub fn insert_batch(&mut self, entries: &[(u64, u64)]) -> usize {
        SortedIndex::insert_batch(&mut self.inner, entries)
    }

    /// Point lookup. Internal nodes on the way down may fault into the
    /// pool; a leaf that is not resident is read out of its page in place.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        SortedIndex::get(&mut self.inner, key)
    }

    /// Logged delete, returning the previous value if the key was live.
    pub fn delete(&mut self, key: u64) -> Option<u64> {
        SortedIndex::delete(&mut self.inner, key)
    }

    /// Ordered iteration over `bounds`. Only the seek faults pages in:
    /// the walk reads cold leaves out of their pages in place, so a scan
    /// of any length stays within the pool budget.
    pub fn range(
        &mut self,
        bounds: impl RangeBounds<u64>,
    ) -> impl Iterator<Item = (u64, u64)> + '_ {
        SortedIndex::range(&mut self.inner, bounds)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        SortedIndex::len(&self.inner)
    }

    /// Whether the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Nodes currently resident in the buffer pool (decoded and pinned or
    /// cached) — bounded by the pool budget between operations.
    pub fn resident_nodes(&self) -> usize {
        self.inner.inner().resident_nodes()
    }

    /// Tree + pool + WAL metrics; the pool counters (`page_faults`,
    /// `page_evictions`, `pool_hits`, `pool_hit_rate`) are live here.
    pub fn stats(&self) -> StatsSnapshot {
        SortedIndex::metrics(&self.inner)
    }

    /// Flushes every dirty page, publishes the page file as a paged
    /// snapshot (`psnap-….qpsf`), rotates the WAL, and prunes superseded
    /// files, so the next open recovers lazily from the page image plus a
    /// tiny tail.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.inner.checkpoint_paged()
    }

    /// Blocks until everything logged so far is fsync-durable.
    pub fn commit_all(&mut self) -> Result<()> {
        self.inner.commit_all()
    }

    /// The underlying durable tree, for APIs the handle doesn't surface.
    pub fn store(&mut self) -> &mut Durable<BpTree<u64, u64>> {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_roundtrip_in_memory() {
        let db = Quit::in_memory();
        db.insert(1, 10);
        db.insert_batch(&[(2, 20), (3, 30)]);
        assert_eq!(db.get(2), Some(20));
        assert_eq!(db.len(), 3);
        assert_eq!(db.delete(1), Some(10));
        let all: Vec<(u64, u64)> = db.range(..).collect();
        assert_eq!(all, vec![(2, 20), (3, 30)]);
        assert!(!db.is_empty());
        // One WAL frame per commit, whatever its size.
        assert_eq!(db.stats().wal_appends, 3);
        assert_eq!(db.txn_stats().commits, 3);
        db.commit_all().unwrap();
    }

    #[test]
    fn insert_batch_count_survives_concurrent_deletes() {
        // One thread re-inserts the same batch while another deletes its
        // keys: whatever interleaving the scheduler picks, a batch can
        // never report more new keys than it holds (the old
        // `len() - before` arithmetic underflowed here).
        let db = Quit::in_memory();
        let batch: Vec<(u64, u64)> = (0..8u64).map(|k| (k, k)).chain([(0, 9)]).collect();
        let distinct = batch.len() - 1;
        assert_eq!(
            db.insert_batch(&batch),
            distinct,
            "repeated key counts once"
        );
        assert_eq!(db.insert_batch(&batch), 0);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    for &(k, _) in &batch {
                        db.delete(k);
                    }
                }
            });
            for _ in 0..300 {
                let new_keys = db.insert_batch(&batch);
                assert!(new_keys <= distinct, "{new_keys} new keys in {distinct}");
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    }

    #[test]
    fn handle_transactions_conflict_and_isolate() {
        let db = Quit::in_memory();
        db.insert(1, 10);
        let reader = db.begin_txn();
        let mut a = db.begin_txn();
        let mut b = db.begin_txn();
        a.insert(1, 11);
        b.insert(1, 12);
        a.commit().unwrap();
        assert!(matches!(b.commit(), Err(Error::Conflict(_))));
        // The reader's snapshot predates both.
        assert_eq!(reader.get(1), Some(10));
        drop(reader);
        assert_eq!(db.get(1), Some(11));
        assert_eq!(db.txn_stats().conflicts, 1);
    }

    #[test]
    fn handle_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "quit-facade-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Quit::open(&dir).unwrap();
            db.insert_batch(&(0..500u64).map(|k| (k, k * 2)).collect::<Vec<_>>());
            db.delete(3);
            db.checkpoint().unwrap();
            db.insert(1000, 1);
        }
        let (db, report) = Quit::open_with(
            &dir,
            TreeConfig::paper_default(),
            DurabilityConfig::group_commit(),
        )
        .unwrap();
        assert_eq!(report.snapshot_entries, 499);
        assert_eq!(report.tail_records, 1);
        assert_eq!(db.len(), 500);
        assert_eq!(db.get(3), None);
        assert_eq!(db.get(1000), Some(1));
        // An uncommitted transaction at crash time must leave no trace.
        let mut orphan = db.begin_txn();
        orphan.insert(2000, 2);
        drop(orphan);
        drop(db);
        let (db, _) = Quit::open_with(
            &dir,
            TreeConfig::paper_default(),
            DurabilityConfig::group_commit(),
        )
        .unwrap();
        assert_eq!(db.get(2000), None);
        assert_eq!(db.len(), 500);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn paged_handle_survives_reopen_lazily() {
        let dir = std::env::temp_dir().join(format!(
            "quit-paged-facade-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        const POOL: usize = 16;
        {
            let (mut db, _) = Quit::open_paged(&dir, POOL).unwrap();
            db.insert_batch(&(0..5000u64).map(|k| (k, k * 2)).collect::<Vec<_>>());
            db.delete(3);
            db.checkpoint().unwrap();
            db.insert(10_000, 1);
        }
        let (mut db, report) = Quit::open_paged(&dir, POOL).unwrap();
        assert_eq!(report.snapshot_entries, 4999);
        assert_eq!(report.tail_records, 1);
        // Lazy recovery: far fewer nodes resident than the tree holds.
        assert!(
            db.resident_nodes() <= POOL,
            "resident {} after open",
            db.resident_nodes()
        );
        assert_eq!(db.get(3), None);
        assert_eq!(db.get(10_000), Some(1));
        assert_eq!(db.len(), 5000);
        let spot: Vec<(u64, u64)> = db.range(100..104).collect();
        assert_eq!(spot, vec![(100, 200), (101, 202), (102, 204), (103, 206)]);
        let stats = db.stats();
        assert!(stats.page_faults > 0, "reads faulted pages in");
        // A full scan faults every leaf in (reads never evict); the next
        // operation boundary trims residency back to the pool budget plus
        // one operation's pin set.
        assert_eq!(db.range(..).count(), 5000);
        assert_eq!(db.get(0), Some(0));
        let tree = db.store().inner();
        let bound = POOL + 2 * (tree.height() + 2);
        assert!(tree.node_count() > bound, "the tree must outgrow the pool");
        assert!(
            db.resident_nodes() <= bound,
            "resident {} after a full scan, bound {bound}",
            db.resident_nodes()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn txn_store_rejects_paged_conc_config() {
        let dir = std::env::temp_dir().join(format!(
            "quit-paged-reject-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let tree = TreeConfig::paper_default().with_storage(StorageKind::paged(64));
        let err = match Quit::open_with(&dir, tree, DurabilityConfig::group_commit()) {
            Err(err) => err,
            Ok(_) => panic!("a paged tree config must be rejected"),
        };
        assert_eq!(err.kind(), "config");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
