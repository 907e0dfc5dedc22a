//! [`Durable<T>`]: write-ahead logging and crash recovery wrapped around
//! any [`SortedIndex`].
//!
//! The wrapper is log-then-apply: every mutation is framed into the WAL
//! before it touches the wrapped index, so at any instant the durable WAL
//! prefix describes a state the index has already reached or will reach —
//! recovery replays that prefix and lands on exactly the state covered by
//! the last durable group. Lookups and scans pass straight through.
//!
//! For the `&mut self` [`SortedIndex`] path that invariant is free; it is
//! the path a service shard (a `Durable<BpTree>` owned by one worker
//! thread) and every embedded single-writer caller take. The shared
//! (`&self`) path on [`Durable<ConcurrentTree>`] serves only the
//! benchmark's `durable.*` rungs and the crash harness. There, two
//! concurrent writers hitting the *same key* could otherwise log in one
//! order and apply in the other, making the pre-crash state and the
//! replayed state disagree on that key. The wrapper therefore holds a
//! per-key **stripe lock** across LSN assignment *and* tree application:
//! log order equals apply order for every conflicting key (ops on
//! distinct keys commute, so their relative order is irrelevant). The
//! group fsync is awaited *after* the stripe is released, so same-stripe
//! writers never serialize on the device — only on the (cheap) in-memory
//! append+apply. Consequence: at `GroupCommit`, a mutation becomes
//! visible to concurrent readers when it is applied, slightly before its
//! group fsync completes; durability is only promised once the call
//! returns.
//!
//! Recovery rests on the sortedness this workspace is built around: the
//! snapshot is key-ordered and the WAL tail is append-mostly. So
//! [`Durable::open`] never re-ingests the tail: [`fold_tail`] keeps the
//! tail's in-order part where it is (a run frame's ascending entries move
//! in one piece), sorts only its out-of-order residue and its deletes,
//! and merges them into the snapshot's entries, and the index is then
//! built once, bottom-up by `bulk_load` at the configured leaf fill, for
//! `BpTree` and `ConcurrentTree` alike. Only the paged backend, whose tree
//! comes from a page image rather than from entries, replays the tail into
//! it ([`apply_tail`], which retires with that backend).

use crate::files::{self, Kind};
use crate::frame::{Logged, WalCodec};
use crate::snapshot::read_entries;
use crate::storage::Storage;
use crate::wal::{scan_wal, Lsn, Wal};
use crate::WalOp;
use quit_concurrent::ConcurrentTree;
use quit_core::mutation::{self, Mutation};
use quit_core::{
    stripe_of, BpTree, Error, FastPathMode, Key, Result, SortedIndex, StatsSnapshot, StorageKind,
    TreeConfig,
};
use std::ops::RangeBounds;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Stripe count for the shared-path per-key ordering locks. Collisions
/// between distinct keys only cost contention, never correctness, so a
/// modest power of two suffices.
const WRITE_STRIPES: usize = 64;

/// How much durability each mutation buys before it returns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DurabilityLevel {
    /// No logging at all — the wrapper is a transparent shim (for
    /// apples-to-apples overhead measurement).
    Off,
    /// Mutations are framed into the WAL buffer and flushed to the OS as
    /// the buffer fills, but never fsynced on the hot path. A crash loses
    /// at most the unflushed/unsynced suffix; recovery still lands on a
    /// consistent prefix.
    Buffered,
    /// Every mutation (or batch) waits for an fsync covering its LSN
    /// before returning — batched by the group-commit leader, so
    /// concurrent writers share one fsync per group (default).
    #[default]
    GroupCommit,
}

/// Configuration for [`Durable`], following the workspace's config-knob
/// idiom (`TreeConfig`): constructors for the common cases, `with_*`
/// builders for the rest. The two sizes are the WAL's own: segment
/// rotation and append buffering.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityConfig {
    /// Durability bought per mutation.
    pub level: DurabilityLevel,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: usize,
    /// WAL append-buffer size in bytes (0 = write-through).
    pub wal_buffer_bytes: usize,
    /// Entries per CRC-framed snapshot chunk.
    pub snapshot_chunk: usize,
    /// Remove superseded segments and snapshots after a checkpoint.
    pub prune_on_checkpoint: bool,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            level: DurabilityLevel::GroupCommit,
            segment_bytes: 8 << 20,
            wal_buffer_bytes: 64 << 10,
            snapshot_chunk: 1024,
            prune_on_checkpoint: true,
        }
    }
}

impl DurabilityConfig {
    /// Group-commit durability (the default).
    pub fn group_commit() -> Self {
        Self::default()
    }

    /// Buffered logging: WAL written, fsync off the hot path.
    pub fn buffered() -> Self {
        Self::default().with_level(DurabilityLevel::Buffered)
    }

    /// Logging disabled (overhead baseline).
    pub fn off() -> Self {
        Self::default().with_level(DurabilityLevel::Off)
    }

    /// Builder-style override of the durability level.
    pub fn with_level(mut self, level: DurabilityLevel) -> Self {
        self.level = level;
        self
    }

    /// Builder-style override of the segment rotation threshold.
    pub fn with_segment_bytes(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "segment size must be positive");
        self.segment_bytes = bytes;
        self
    }

    /// Builder-style override of the WAL buffer size (0 = write-through).
    pub fn with_wal_buffer_bytes(mut self, bytes: usize) -> Self {
        self.wal_buffer_bytes = bytes;
        self
    }

    /// Builder-style override of the snapshot chunk size (entries).
    pub fn with_snapshot_chunk(mut self, entries: usize) -> Self {
        assert!(entries > 0, "snapshot chunk must be positive");
        self.snapshot_chunk = entries;
        self
    }

    /// Builder-style toggle of checkpoint pruning.
    pub fn with_prune_on_checkpoint(mut self, prune: bool) -> Self {
        self.prune_on_checkpoint = prune;
        self
    }
}

/// What [`Durable::open`] recovered, for logging and test assertions.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Entries bulk-loaded from the newest valid snapshot.
    pub snapshot_entries: usize,
    /// LSN the snapshot covered (0 = no snapshot).
    pub snapshot_lsn: Lsn,
    /// Mutations replayed from the WAL past the snapshot: one per plain
    /// record, one per entry of a logged batch, one per *write* of a
    /// transactional `Commit` record.
    pub tail_records: usize,
    /// Last LSN recovered; the next append gets `recovered_lsn + 1`.
    pub recovered_lsn: Lsn,
    /// True if the WAL ended in a torn/corrupt frame (expected after a
    /// mid-write crash; everything up to it is recovered).
    pub torn_tail: bool,
    /// Segments that contributed no records (stale generations, corrupt
    /// headers).
    pub stale_segments: usize,
    /// Snapshot files rejected as corrupt before one validated.
    pub rejected_snapshots: usize,
    /// Wall-clock recovery time (also recorded in the `recovery_latency`
    /// histogram).
    pub elapsed: Duration,
}

/// The recovery every opener shares: take the newest snapshot of `kind`
/// that `decode` accepts — handed the file and its header's length word,
/// it returns the opener's state and the entries that state holds — scan
/// the WAL past it, `replay` the tail (each frame with its first LSN) into
/// that state (`None` without a snapshot) to make the recovered one
/// (returned with the mutations it applied), resume the log after the last
/// recovered LSN, and time the whole thing into the `recovery_latency`
/// histogram and the report.
pub(crate) fn recover<K, V, S, T>(
    storage: Arc<dyn Storage>,
    config: &DurabilityConfig,
    kind: Kind,
    decode: impl FnMut(Vec<u8>, u64) -> Option<(S, usize)>,
    replay: impl FnOnce(Option<S>, Vec<(Lsn, Logged<K, V>)>) -> Result<(T, usize)>,
) -> Result<(T, Wal, RecoveryReport)>
where
    K: WalCodec,
    V: WalCodec,
{
    let t0 = Instant::now();
    let (found, rejected) = files::newest_snapshot(&*storage, kind, decode)?;
    let (generation, lsn, state, entries) = match found {
        Some((generation, lsn, (state, entries))) => (generation, lsn, Some(state), entries),
        None => (0, 0, None, 0),
    };
    let scan = scan_wal::<K, V>(&*storage, lsn, generation)?;
    let (state, tail_records) = replay(state, scan.tail)?;
    let wal = Wal::resume(
        storage,
        config,
        scan.resume_generation,
        scan.resume_seq,
        scan.last_lsn + 1,
    );
    let elapsed = t0.elapsed();
    wal.metrics()
        .recovery_latency
        .record_ns(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    let report = RecoveryReport {
        snapshot_entries: entries,
        snapshot_lsn: lsn,
        tail_records,
        recovered_lsn: scan.last_lsn,
        torn_tail: scan.torn,
        stale_segments: scan.stale_segments,
        rejected_snapshots: rejected,
        elapsed,
    };
    Ok((state, wal, report))
}

/// `index` metrics with `wal`'s four fields laid over them.
pub(crate) fn with_wal_metrics(mut index: StatsSnapshot, wal: &Wal) -> StatsSnapshot {
    let wal = wal.metrics().snapshot();
    index.wal_appends = wal.wal_appends;
    index.wal_fsyncs = wal.wal_fsyncs;
    index.group_commit_size = wal.group_commit_size;
    index.recovery_latency = wal.recovery_latency;
    index
}

/// Writes that are logged and applied but not yet known durable: what
/// [`Durable::insert_batch_unacked`] and [`Durable::delete_unacked`] return
/// and [`Durable::ack`] waits on (the default stands for no write at all).
/// Dropping one waits for nothing, so the writes it stands for must not be
/// reported durable.
#[must_use = "the writes are not durable until this is passed to `Durable::ack`"]
#[derive(Debug, Default)]
pub struct Unacked(Option<Lsn>);

impl Unacked {
    /// One token for both: LSNs only grow, so waiting on the later covers
    /// the earlier.
    pub fn merge(self, other: Unacked) -> Unacked {
        Unacked(self.0.max(other.0))
    }
}

/// A [`SortedIndex`] with a write-ahead log in front of it.
///
/// Mutations through the [`SortedIndex`] impl (and the `&self` shared API
/// of [`Durable<ConcurrentTree>`], which serves only the benchmark's
/// `durable.*` rungs and the crash harness) are logged first, then
/// applied. I/O errors on the log path panic — the trait has no error
/// channel, and a WAL that can no longer write must not let callers
/// believe their writes are durable. The WAL also *poisons* itself on any
/// append/fsync failure, so concurrent writer threads that did not observe
/// the original error fail (and panic) on their next mutation instead of
/// acking records through a broken log. Use
/// [`Durable::flush`]/[`Durable::commit_all`] for explicit durability
/// points at the `Buffered` level.
pub struct Durable<T> {
    inner: T,
    wal: Wal,
    config: DurabilityConfig,
    /// Per-key ordering locks for the shared (`&self`) write path: a
    /// key's stripe is held across LSN assignment and tree application,
    /// so the WAL orders conflicting ops exactly as they applied (see
    /// the module docs).
    stripes: Box<[Mutex<()>]>,
}

impl<T> Durable<T> {
    /// Opens (or creates) a durable index on `storage`: loads the newest
    /// valid snapshot's entries, folds the WAL tail into them (the tail's
    /// in-order part stays where it is, only its out-of-order residue is
    /// sorted, and both merge into the entries), builds the inner index
    /// once from the result via `build`, and positions the WAL to append
    /// after the last recovered LSN. The index holds what replaying the tail into one
    /// built from the snapshot would: duplicates in log order, each delete
    /// removing the oldest instance of its key.
    ///
    /// `build` receives the recovered entries in key order; use
    /// [`bptree_builder`]/[`concurrent_builder`] for the in-workspace
    /// families (they pack leaves full). Its time counts in
    /// [`RecoveryReport::elapsed`].
    pub fn open<K, V, F>(
        storage: Arc<dyn Storage>,
        config: DurabilityConfig,
        build: F,
    ) -> Result<(Self, RecoveryReport)>
    where
        K: Key + WalCodec,
        V: Clone + WalCodec,
        T: SortedIndex<K, V>,
        F: FnOnce(Vec<(K, V)>) -> T,
    {
        let decode = |bytes: Vec<u8>, count| Some((read_entries(&bytes, count)?, count as usize));
        let replay = |entries: Option<_>, tail| {
            let (entries, applied) = fold_tail(entries.unwrap_or_default(), tail)?;
            Ok((build(entries), applied))
        };
        let (inner, wal, report) = recover(storage, &config, Kind::Sorted, decode, replay)?;
        Ok((Self::assemble(inner, wal, config), report))
    }

    fn assemble(inner: T, wal: Wal, config: DurabilityConfig) -> Self {
        Durable {
            inner,
            wal,
            config,
            stripes: (0..WRITE_STRIPES).map(|_| Mutex::new(())).collect(),
        }
    }

    /// The wrapped index, for reads that need no WAL: a `BpTree`'s `get`
    /// and `range` (how a service shard answers them), or a
    /// `ConcurrentTree`'s `&self` API.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Unwraps the index, dropping the WAL handle.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// The active configuration.
    pub fn config(&self) -> &DurabilityConfig {
        &self.config
    }

    /// The wrapped WAL (metrics, LSN watermarks).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Pushes any buffered WAL bytes to the OS (no fsync).
    pub fn flush(&self) -> Result<()> {
        self.wal.flush()
    }

    /// Blocks until everything logged so far is fsync-durable (explicit
    /// durability point for the `Buffered` level; a no-op at `Off`).
    pub fn commit_all(&self) -> Result<()> {
        self.wal.commit_all()
    }

    /// Appends through `append` as the configured level prescribes, without
    /// waiting for durability. Panics on I/O error (see the type-level
    /// docs).
    fn log_nowait(&self, append: impl FnOnce(&Wal) -> Result<Lsn>) -> Unacked {
        Unacked(
            self.wal
                .log(self.config.level, append)
                .expect("WAL append failed"),
        )
    }

    /// Blocks until the writes `unacked` stands for are fsync-durable (at
    /// once below `GroupCommit`, where no write waits). Panics if the
    /// fsync fails (see the type-level docs).
    pub fn ack(&self, unacked: Unacked) {
        self.wal.ack(unacked.0).expect("WAL fsync failed");
    }

    /// [`SortedIndex::insert_batch`] without the durability wait: the batch
    /// is logged — from `entries` as they lie, in one append that joins the
    /// WAL's open run (a run frame holds up to 65 536 entries), one LSN per
    /// entry — and applied when this returns, and durable once the returned
    /// token (or a later one it was [`merge`](Unacked::merge)d into) is
    /// [`ack`](Self::ack)ed. A caller with many writes in hand pays one
    /// group commit for all of them this way, and the batches it logs in
    /// between share one run frame. Also returns the count `insert_batch`
    /// does.
    pub fn insert_batch_unacked<K, V>(&mut self, entries: &[(K, V)]) -> (usize, Unacked)
    where
        K: Key + WalCodec,
        V: Clone + WalCodec,
        T: SortedIndex<K, V>,
    {
        let unacked = if entries.is_empty() {
            Unacked::default()
        } else {
            self.log_nowait(|wal| wal.append_inserts(entries))
        };
        (self.inner.insert_batch(entries), unacked)
    }

    /// [`SortedIndex::delete`] without the durability wait (see
    /// [`insert_batch_unacked`](Self::insert_batch_unacked)). Logged hit or
    /// miss: a miss-delete replays as a no-op, so skipping the
    /// read-before-write keeps the hot path cheap and replay deterministic.
    pub fn delete_unacked<K, V>(&mut self, key: K) -> (Option<V>, Unacked)
    where
        K: Key + WalCodec,
        V: Clone + WalCodec,
        T: SortedIndex<K, V>,
    {
        let unacked = self.log_nowait(|wal| wal.append(&[WalOp::<K, V>::Delete(key)]));
        (self.inner.delete(key), unacked)
    }

    /// Checkpoint: writes the index's full contents as a sorted snapshot,
    /// rotates the WAL to a fresh generation, and prunes superseded files
    /// (if configured). After this, recovery is `bulk_load + (tiny) tail`.
    pub fn checkpoint<K, V>(&mut self) -> Result<()>
    where
        K: Key + WalCodec,
        V: Clone + WalCodec,
        T: SortedIndex<K, V>,
    {
        let entries: Vec<(K, V)> = self.inner.range(..).collect();
        self.wal.checkpoint(
            &entries,
            self.config.snapshot_chunk,
            self.config.prune_on_checkpoint,
        )
    }
}

/// Paged-tree durability: checkpoints that write the tree's *pages*
/// (`psnap-….qpsf`) instead of its entries, and an open path whose
/// recovery is partly lazy — integrity is validated eagerly, but nodes
/// fault in from the buffer pool on demand instead of being rebuilt by
/// `bulk_load`.
impl<K, V> Durable<BpTree<K, V>>
where
    K: Key + WalCodec,
    V: Clone + WalCodec + 'static,
{
    /// Opens (or creates) a durable *paged* [`BpTree`]:
    /// `tree_config.storage` must be [`StorageKind::Paged`].
    ///
    /// Recovery prefers the newest fully-valid paged snapshot — each
    /// candidate's header, metadata, and every page CRC are verified in
    /// one byte sweep, and any malformation rejects the whole candidate —
    /// falling back to older generations, then to an empty tree; the WAL
    /// tail replays on top as usual. Opening from a page image decodes no
    /// nodes beyond the fast-path spine, so recovery cost stops scaling
    /// with tree size.
    ///
    /// Paged and sorted-snapshot directories are not interchangeable: a
    /// sorted (`.qsnp`) snapshot newer than every paged one means the
    /// directory was last checkpointed by [`Durable::open`]'s family, and
    /// is rejected with a `config` error naming the file.
    pub fn open_paged(
        storage: Arc<dyn Storage>,
        config: DurabilityConfig,
        mode: FastPathMode,
        tree_config: TreeConfig,
    ) -> Result<(Self, RecoveryReport)> {
        if !matches!(tree_config.storage, StorageKind::Paged { .. }) {
            return Err(Error::config(
                "open_paged requires TreeConfig::with_storage(StorageKind::Paged { .. })",
            ));
        }
        let newest = |kind| files::list(&*storage, kind).map(|files| files.last().cloned());
        if let Some((generation, _, name)) = newest(Kind::Sorted)? {
            if newest(Kind::Paged)?.is_none_or(|(paged, ..)| generation > paged) {
                return Err(Error::config(format!(
                    "{name} is a sorted snapshot newer than every paged snapshot: \
                     this is not a paged directory (open it with Durable::open)"
                )));
            }
        }
        // The file as read becomes the tree's page image: verified where it
        // is, never copied.
        let decode = |bytes: Vec<u8>, image_len| {
            if !image_fits(&bytes, image_len) {
                return None;
            }
            let tree = BpTree::from_page_image(bytes, files::HEADER, tree_config.clone()).ok()?;
            let entries = tree.len();
            Some((tree, entries))
        };
        let replay = |tree: Option<_>, tail| {
            apply_tail(
                tree.unwrap_or_else(|| BpTree::with_config(mode, tree_config.clone())),
                tail,
            )
        };
        let (inner, wal, report) = recover(storage, &config, Kind::Paged, decode, replay)?;
        Ok((Self::assemble(inner, wal, config), report))
    }

    /// Checkpoint for a paged tree: serializes every live page and publishes
    /// the page file itself as the generation-`g+1` snapshot
    /// (`psnap-….qpsf`, atomic tmp + sync + rename), rotates the WAL, and
    /// prunes superseded files of *both* snapshot flavours. Errors with
    /// `config` if the tree runs the in-memory arena backend — use
    /// [`Durable::checkpoint`] there.
    pub fn checkpoint_paged(&mut self) -> Result<()> {
        let image = self
            .inner
            .to_page_image()
            .ok_or_else(|| Error::config("checkpoint_paged requires the paged storage backend"))?;
        self.wal.checkpoint_with(
            self.config.prune_on_checkpoint,
            |storage, generation, lsn| {
                let words = [generation, lsn, image.len() as u64];
                files::publish(storage, Kind::Paged, words, |tmp| {
                    storage.append(tmp, &image)
                })
                .map_err(Into::into)
            },
        )
    }
}

impl<K, V, T> SortedIndex<K, V> for Durable<T>
where
    K: Key + WalCodec,
    V: Clone + WalCodec,
    T: SortedIndex<K, V>,
{
    fn insert(&mut self, key: K, value: V) {
        let entry = [(key, value)];
        self.ack(self.log_nowait(|wal| wal.append_inserts(&entry)));
        let [(key, value)] = entry;
        self.inner.insert(key, value);
    }

    fn insert_batch(&mut self, entries: &[(K, V)]) -> usize {
        // One append + (at GroupCommit) one commit for the whole batch: the
        // WAL amortizes exactly like the tree's sorted-run fast path does.
        let (fast, unacked) = self.insert_batch_unacked(entries);
        self.ack(unacked);
        fast
    }

    fn get(&mut self, key: K) -> Option<V> {
        self.inner.get(key)
    }

    fn delete(&mut self, key: K) -> Option<V> {
        let (prev, unacked) = self.delete_unacked(key);
        self.ack(unacked);
        prev
    }

    fn range<R: RangeBounds<K>>(&mut self, bounds: R) -> impl Iterator<Item = (K, V)> + '_ {
        self.inner.range(bounds)
    }

    fn range_with_stats<R: RangeBounds<K>>(&mut self, bounds: R) -> quit_core::RangeScan<K, V> {
        self.inner.range_with_stats(bounds)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn metrics(&self) -> StatsSnapshot {
        with_wal_metrics(self.inner.metrics(), &self.wal)
    }

    fn reset_metrics(&self) {
        self.inner.reset_metrics();
        self.wal.metrics().reset();
    }
}

impl<K, V> Durable<ConcurrentTree<K, V>>
where
    K: Key + WalCodec,
    V: Clone + WalCodec,
{
    /// Takes the stripe ordering writes to `key`. Distinct keys may share
    /// a stripe (harmless contention); equal keys always map to the same
    /// stripe ([`stripe_of`]), which is all the ordering argument needs.
    /// The stripe guards no data, so a holder that panicked — a failed WAL
    /// append does, by design — leaves nothing torn: its poison is
    /// ignored, and the next writer meets the WAL's own error instead.
    fn order(&self, key: K) -> MutexGuard<'_, ()> {
        let stripe = &self.stripes[stripe_of(key, self.stripes.len())];
        stripe.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Logged insert through `&self` — N threads call this concurrently;
    /// at `GroupCommit` their fsyncs batch through the group-commit
    /// leader while the tree insert itself rides the OLC write path.
    ///
    /// The key's stripe lock is held across LSN assignment and the tree
    /// insert (log order ≡ apply order for conflicting keys) and released
    /// before the group fsync is awaited.
    pub fn insert_shared(&self, key: K, value: V) {
        let unacked = {
            let _order = self.order(key);
            let unacked = self.log_nowait(|wal| wal.append(&[WalOp::Insert(key, value.clone())]));
            self.inner.insert(key, value);
            unacked
        };
        self.ack(unacked);
    }

    /// Logged delete through `&self` (miss-deletes log a no-op record),
    /// with the same stripe-ordered log+apply as
    /// [`insert_shared`](Self::insert_shared).
    pub fn delete_shared(&self, key: K) -> Option<V> {
        let (prev, unacked) = {
            let _order = self.order(key);
            let unacked = self.log_nowait(|wal| wal.append(&[WalOp::<K, V>::Delete(key)]));
            (self.inner.delete(key), unacked)
        };
        self.ack(unacked);
        prev
    }

    /// The underlying concurrent tree, for `&self` reads (`get`, `range`).
    pub fn tree(&self) -> &ConcurrentTree<K, V> {
        &self.inner
    }
}

/// Most trailing entries of [`fold_tail`]'s main sequence that one
/// out-of-order insert may move to the residue to join the main sequence
/// itself. An early outlier (a big key logged too soon) then costs the
/// residue these few entries, not every insert logged after it.
const FOLD_EVICT_MAX: usize = 8;

/// [`fold_tail`]'s ascending main sequence: inserts in key order, equal
/// keys in log order, and where their LSNs are kept as stretches — each
/// `(index, lsn)` says the entries from `index` on, up to the next
/// stretch, were logged at `lsn`, `lsn + 1`, … — so that a run frame moved
/// in whole is one stretch, not one LSN per entry.
struct Main<K, V> {
    entries: Vec<(K, V)>,
    stretches: Vec<(usize, Lsn)>,
}

impl<K: Key, V> Main<K, V> {
    /// Notes that the next entry pushed was logged at `lsn`.
    fn at(&mut self, lsn: Lsn) {
        let len = self.entries.len();
        let continues = self
            .stretches
            .last()
            .is_some_and(|&(from, first)| first + (len - from) as u64 == lsn);
        if !continues {
            self.stretches.push((len, lsn));
        }
    }

    /// The LSN entry `i` was logged at.
    fn lsn(stretches: &[(usize, Lsn)], i: usize) -> Lsn {
        let (from, first) = stretches[stretches.partition_point(|&(from, _)| from <= i) - 1];
        first + (i - from) as u64
    }

    fn push(&mut self, lsn: Lsn, key: K, value: V) {
        self.at(lsn);
        self.entries.push((key, value));
    }

    /// Moves the entries from `cut` on to `residue`, each with its LSN.
    fn evict(&mut self, cut: usize, residue: &mut Vec<(K, Lsn, V)>) {
        let stretches = &self.stretches;
        let evicted = self.entries.drain(cut..).zip(cut..);
        residue.extend(evicted.map(|((k, v), i)| (k, Self::lsn(stretches, i), v)));
        while self.stretches.last().is_some_and(|&(from, _)| from >= cut) {
            self.stretches.pop();
        }
    }
}

/// A recovered tail staged for [`fold_tail`]'s merge: the inserts split
/// into an ascending main sequence and an out-of-order residue (each entry
/// with its LSN), and the deletes apart from both.
struct Staged<K, V> {
    main: Main<K, V>,
    residue: Vec<(K, Lsn, V)>,
    deletes: Vec<(K, Lsn)>,
}

impl<K: Key, V> Staged<K, V> {
    /// Joins main if `key` is at least main's last key, or if at most
    /// [`FOLD_EVICT_MAX`] of main's trailing entries exceed it (those move
    /// to the residue); goes to the residue otherwise.
    fn insert(&mut self, lsn: Lsn, key: K, value: V) {
        let main = &mut self.main.entries;
        if main.last().is_none_or(|(last, _)| *last <= key) {
            return self.main.push(lsn, key, value);
        }
        let trailing = main.len().saturating_sub(FOLD_EVICT_MAX);
        if trailing > 0 && main[trailing - 1].0 > key {
            return self.residue.push((key, lsn, value));
        }
        let cut = trailing + main[trailing..].partition_point(|(k, _)| *k <= key);
        self.main.evict(cut, &mut self.residue);
        self.main.push(lsn, key, value);
    }

    /// A run frame's entries from `lsn` on: each ascending stretch that
    /// starts at or above main's last key moves into main in one piece,
    /// one comparison per entry; an entry that starts none goes alone.
    fn run(&mut self, lsn: Lsn, run: Vec<(K, V)>) {
        let (mut lsn, mut run) = (lsn, run.into_iter());
        while let Some((first, _)) = run.as_slice().first() {
            if self
                .main
                .entries
                .last()
                .is_none_or(|(last, _)| last <= first)
            {
                let rest = run.as_slice();
                let n = 1 + rest.windows(2).take_while(|w| w[0].0 <= w[1].0).count();
                self.main.at(lsn);
                self.main.entries.extend(run.by_ref().take(n));
                lsn += n as u64;
            } else if let Some((key, value)) = run.next() {
                self.insert(lsn, key, value);
                lsn += 1;
            }
        }
    }
}

/// Folds a recovered WAL tail (each frame with its first LSN) into the
/// snapshot's key-ordered `entries`. Returns, in key order, what replaying
/// the tail into an index built from `entries` leaves, and the number of
/// mutations folded, one per entry of a run.
///
/// The tail is nearly sorted, so only its disorder is sorted:
/// 1. *Stage.* Walked once in LSN order, each insert joins an ascending
///    *main* sequence if its key is at least main's last key, and the
///    *residue* otherwise — unless at most [`FOLD_EVICT_MAX`] of main's
///    trailing entries exceed it: those move to the residue, and the
///    insert joins main. A run frame's ascending stretches move into main
///    whole. Deletes are staged apart.
/// 2. *Sort.* The residue alone is sorted by `(key, LSN)`, and so are the
///    deletes.
/// 3. *Merge.* Snapshot, main and residue merge in `(key, LSN)` order, the
///    snapshot first for each key, into the one vector returned, in
///    stretches that run up to the next other head. Each deleted key's
///    entries are merged alone, where its deletes remove the oldest entry
///    logged before them, or nothing, as both trees apply them.
///
/// A scrambled tail costs one `O(n log n)` sort. A [`WalOp::Commit`] record
/// is refused as [`apply_tail`] refuses it.
fn fold_tail<K: Key, V>(
    entries: Vec<(K, V)>,
    tail: Vec<(Lsn, Logged<K, V>)>,
) -> Result<(Vec<(K, V)>, usize)> {
    if tail.is_empty() {
        return Ok((entries, 0));
    }
    let ops = tail.iter().map(|(_, logged)| logged.lsns() as usize).sum();
    let mut staged = Staged {
        main: Main {
            entries: Vec::with_capacity(ops),
            stretches: Vec::new(),
        },
        residue: Vec::new(),
        deletes: Vec::new(),
    };
    for (lsn, logged) in tail {
        match logged {
            Logged::Run(run) => staged.run(lsn, run),
            Logged::Op(WalOp::Insert(key, value)) => staged.insert(lsn, key, value),
            Logged::Op(WalOp::Delete(key)) => staged.deletes.push((key, lsn)),
            Logged::Op(WalOp::Commit(..)) => return Err(commit_in_plain_log(lsn)),
        }
    }
    staged
        .residue
        .sort_unstable_by_key(|&(key, lsn, _)| (key, lsn));
    staged.deletes.sort_unstable();
    Ok((merge(entries, staged), ops))
}

/// The first key of `stream`, if it is below `barrier` (`None` bars
/// nothing).
fn head<T, K: Key>(stream: &[T], key: impl Fn(&T) -> K, barrier: Option<K>) -> Option<K> {
    let head = key(stream.first()?);
    barrier.is_none_or(|barrier| head < barrier).then_some(head)
}

/// How many leading entries of `stream` come before `limit`: those with
/// keys below it, or at most it when `or_equal`; all of them without one.
fn stretch<T, K: Key>(
    stream: &[T],
    key: impl Fn(&T) -> K,
    limit: Option<K>,
    or_equal: bool,
) -> usize {
    match limit {
        None => stream.len(),
        Some(limit) => stream
            .iter()
            .take_while(|e| key(e) < limit || (or_equal && key(e) == limit))
            .count(),
    }
}

/// [`fold_tail`]'s merge: snapshot, main and residue in `(key, LSN)` order,
/// the snapshot first for each key, with every deleted key's deletes
/// applied, into one vector.
fn merge<K: Key, V>(snapshot: Vec<(K, V)>, staged: Staged<K, V>) -> Vec<(K, V)> {
    let Staged {
        main,
        residue,
        deletes,
    } = staged;
    // Planted fold bug (`Mutation::FoldTieOrder`): a key's residue entries
    // go before its main ones, whatever their LSNs.
    let residue_first = mutation::armed(Mutation::FoldTieOrder);
    let mut out = Vec::with_capacity(snapshot.len() + main.entries.len() + residue.len());
    let (main_len, stretches) = (main.entries.len(), main.stretches);
    let main_lsn =
        |m: &std::vec::IntoIter<(K, V)>| Main::<K, V>::lsn(&stretches, main_len - m.len());
    let (mut s, mut m, mut r) = (
        snapshot.into_iter(),
        main.entries.into_iter(),
        residue.into_iter(),
    );
    let mut deletes = deletes.into_iter().peekable();
    let mut key_entries: Vec<(Lsn, V)> = Vec::new();
    loop {
        // Everything below the next deleted key, a stretch at a time.
        let barrier = deletes.peek().map(|&(key, _)| key);
        loop {
            let sh = head(s.as_slice(), |e| e.0, barrier);
            let mh = head(m.as_slice(), |e| e.0, barrier);
            let rh = head(r.as_slice(), |e| e.0, barrier);
            let Some(low) = [sh, mh, rh].into_iter().flatten().min() else {
                break;
            };
            if sh == Some(low) {
                let (limit, or_equal) = match mh.into_iter().chain(rh).min() {
                    Some(limit) => (Some(limit), true),
                    None => (barrier, false),
                };
                let n = stretch(s.as_slice(), |e| e.0, limit, or_equal);
                out.extend(s.by_ref().take(n));
            } else if mh == rh {
                // A key in both: one entry, the earlier logged.
                if residue_first || r.as_slice()[0].1 < main_lsn(&m) {
                    out.extend(r.next().map(|(k, _, v)| (k, v)));
                } else {
                    out.extend(m.next());
                }
            } else if mh == Some(low) {
                let limit = sh.into_iter().chain(rh).chain(barrier).min();
                let n = stretch(m.as_slice(), |e| e.0, limit, false);
                out.extend(m.by_ref().take(n));
            } else {
                let limit = sh.into_iter().chain(mh).chain(barrier).min();
                let n = stretch(r.as_slice(), |e| e.0, limit, false);
                out.extend(r.by_ref().take(n).map(|(k, _, v)| (k, v)));
            }
        }
        let Some(key) = barrier else {
            break;
        };
        // The deleted key: its entries in log order, the snapshot's first.
        while s.as_slice().first().is_some_and(|e| e.0 == key) {
            key_entries.extend(s.next().map(|(_, v)| (0, v)));
        }
        loop {
            let in_main = m.as_slice().first().is_some_and(|e| e.0 == key);
            let in_residue = r.as_slice().first().is_some_and(|e| e.0 == key);
            let from_residue = match (in_main, in_residue) {
                (false, false) => break,
                (true, true) => residue_first || r.as_slice()[0].1 < main_lsn(&m),
                (_, in_residue) => in_residue,
            };
            if from_residue {
                key_entries.extend(r.next().map(|(_, lsn, v)| (lsn, v)));
            } else {
                let lsn = main_lsn(&m);
                key_entries.extend(m.next().map(|(_, v)| (lsn, v)));
            }
        }
        // Each delete removes the oldest entry logged before it, if any.
        let mut gone = 0;
        while let Some((_, lsn)) = deletes.next_if(|&(k, _)| k == key) {
            if key_entries.get(gone).is_some_and(|&(at, _)| at < lsn) {
                gone += 1;
            }
        }
        out.extend(key_entries.drain(..).skip(gone).map(|(_, v)| (key, v)));
    }
    out
}

/// Replays a recovered WAL tail (each frame with its first LSN) into
/// `index` through [`SortedIndex::insert_batch`]: the paged backend's
/// recovery, whose index comes from a page image rather than from entries
/// [`fold_tail`] could merge into. A run frame's entries go to
/// `insert_batch` as decoded; consecutive single inserts are gathered into
/// one batch. Returns the index and the number of mutations applied, one
/// per entry of a run.
///
/// A [`WalOp::Commit`] record means the log was written by a `TxnStore`: a
/// plain index has no version dimension to replay it into, and appending
/// plain records behind it would leave a log neither opener accepts — so
/// it is refused with a `wal` error naming the record's LSN.
pub(crate) fn apply_tail<K, V, T>(
    mut index: T,
    tail: Vec<(Lsn, Logged<K, V>)>,
) -> Result<(T, usize)>
where
    K: Key,
    V: Clone,
    T: SortedIndex<K, V>,
{
    let mut applied = 0;
    let mut singles: Vec<(K, V)> = Vec::new();
    let flush = |index: &mut T, singles: &mut Vec<(K, V)>| {
        if !singles.is_empty() {
            index.insert_batch(singles);
            singles.clear();
        }
    };
    for (lsn, logged) in tail {
        applied += logged.lsns() as usize;
        match logged {
            Logged::Op(WalOp::Insert(k, v)) => singles.push((k, v)),
            Logged::Run(run) => {
                flush(&mut index, &mut singles);
                index.insert_batch(&run);
            }
            Logged::Op(WalOp::Delete(k)) => {
                flush(&mut index, &mut singles);
                index.delete(k);
            }
            Logged::Op(WalOp::Commit(..)) => return Err(commit_in_plain_log(lsn)),
        }
    }
    flush(&mut index, &mut singles);
    Ok((index, applied))
}

/// Whether a paged snapshot holds exactly the `image_len` image bytes its
/// header promised: the image's own integrity (metadata CRC, per-page
/// CRCs) is `BpTree::from_page_image`'s to check.
fn image_fits(bytes: &[u8], image_len: u64) -> bool {
    (bytes.len() - files::HEADER) as u64 == image_len
}

/// The error for a transactional commit record met at `lsn` in a plain log.
fn commit_in_plain_log(lsn: Lsn) -> Error {
    Error::wal(format!(
        "transactional commit record at LSN {lsn}: this log was written by a \
         TxnStore (open it with TxnStore::open)"
    ))
}

// A service shard moves into its worker thread: the tree, and the WAL
// around it, must stay `Send`.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<BpTree<u64, u64>>();
    send::<Durable<BpTree<u64, u64>>>();
};

/// A [`Durable::open`] builder for [`BpTree`]: bulk-loads the snapshot with
/// its leaves packed full.
pub fn bptree_builder<K: Key, V: Clone + 'static>(
    mode: FastPathMode,
    config: TreeConfig,
) -> impl FnOnce(Vec<(K, V)>) -> BpTree<K, V> {
    move |entries| BpTree::bulk_load(mode, config, entries, 1.0)
}

/// A [`Durable::open`] builder for [`ConcurrentTree`]: builds the tree
/// bottom-up from the key-ordered snapshot with
/// [`ConcurrentTree::bulk_load`], its leaves packed full like
/// [`bptree_builder`]'s.
pub fn concurrent_builder<K: Key, V: Clone>(
    config: TreeConfig,
) -> impl FnOnce(Vec<(K, V)>) -> ConcurrentTree<K, V> {
    move |entries| ConcurrentTree::bulk_load(config, entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use quit_core::Variant;

    fn quit_builder() -> impl FnOnce(Vec<(u64, u64)>) -> BpTree<u64, u64> {
        bptree_builder(FastPathMode::Pole, TreeConfig::small(16))
    }

    fn open(
        storage: &Arc<MemStorage>,
        config: DurabilityConfig,
    ) -> (Durable<BpTree<u64, u64>>, RecoveryReport) {
        Durable::open(storage.clone() as Arc<dyn Storage>, config, quit_builder()).unwrap()
    }

    #[test]
    fn fresh_open_is_empty() {
        let storage = Arc::new(MemStorage::new());
        let (d, report) = open(&storage, DurabilityConfig::group_commit());
        assert!(d.inner().is_empty());
        assert_eq!(report.recovered_lsn, 0);
        assert_eq!(report.snapshot_entries, 0);
        assert!(!report.torn_tail);
    }

    #[test]
    fn committed_writes_survive_the_harshest_crash() {
        let storage = Arc::new(MemStorage::new());
        let (mut d, _) = open(&storage, DurabilityConfig::group_commit());
        for k in 0..100u64 {
            d.insert(k, k * 2);
        }
        d.delete(50);
        assert_eq!(d.len(), 99);

        let crashed = Arc::new(storage.crash_durable_only());
        let (mut d2, report) = open(&crashed, DurabilityConfig::group_commit());
        assert_eq!(report.recovered_lsn, 101);
        assert_eq!(report.tail_records, 101);
        assert_eq!(d2.len(), 99);
        assert_eq!(d2.get(50), None);
        assert_eq!(d2.get(99), Some(198));
        d2.inner().check_invariants().unwrap();
    }

    #[test]
    fn buffered_level_loses_at_most_the_unsynced_suffix() {
        let storage = Arc::new(MemStorage::new());
        let (mut d, _) = open(&storage, DurabilityConfig::buffered());
        for k in 0..1000u64 {
            d.insert(k, k);
        }
        d.commit_all().unwrap();
        for k in 1000..2000u64 {
            d.insert(k, k);
        }
        // No commit for the second thousand.
        let crashed = Arc::new(storage.crash_durable_only());
        let (d2, report) = open(&crashed, DurabilityConfig::buffered());
        assert!(
            report.recovered_lsn >= 1000,
            "committed prefix must survive"
        );
        assert_eq!(d2.inner().len() as u64, report.recovered_lsn);
    }

    #[test]
    fn off_level_logs_nothing() {
        let storage = Arc::new(MemStorage::new());
        let (mut d, _) = open(&storage, DurabilityConfig::off());
        for k in 0..100u64 {
            d.insert(k, k);
        }
        assert_eq!(storage.total_appended(), 0);
        assert_eq!(SortedIndex::<u64, u64>::metrics(&d).wal_appends, 0);
    }

    #[test]
    fn checkpoint_then_tail_recovers_and_prunes() {
        let storage = Arc::new(MemStorage::new());
        let (mut d, _) = open(&storage, DurabilityConfig::group_commit());
        let batch: Vec<(u64, u64)> = (0..500u64).map(|k| (k, k)).collect();
        d.insert_batch(&batch);
        // Group commit forms groups: the sorted run is one append and one
        // commit wait, not a sync per record.
        let m = SortedIndex::<u64, u64>::metrics(&d);
        assert_eq!(m.wal_appends, 500);
        assert!(
            (1..=m.wal_appends).contains(&m.wal_fsyncs),
            "{} fsyncs for {} records",
            m.wal_fsyncs,
            m.wal_appends
        );
        d.checkpoint::<u64, u64>().unwrap();
        // Post-checkpoint tail.
        for k in 500..600u64 {
            d.insert(k, k);
        }
        d.delete(0);

        let files = storage.list().unwrap();
        assert!(
            files.iter().any(|f| f.starts_with("snap-")),
            "snapshot written: {files:?}"
        );
        assert!(
            !files.iter().any(|f| f.contains("wal-00000000")),
            "generation-0 segments pruned: {files:?}"
        );

        let crashed = Arc::new(storage.crash_durable_only());
        let (mut d2, report) = open(&crashed, DurabilityConfig::group_commit());
        assert_eq!(report.snapshot_entries, 500);
        assert_eq!(report.snapshot_lsn, 500);
        assert_eq!(report.tail_records, 101);
        assert_eq!(d2.len(), 599);
        assert_eq!(d2.get(0), None);
        assert_eq!(d2.get(599), Some(599));
    }

    fn paged_tree_config() -> TreeConfig {
        TreeConfig::small(16).with_storage(quit_core::StorageKind::paged(8))
    }

    fn open_paged(storage: &Arc<MemStorage>) -> (Durable<BpTree<u64, u64>>, RecoveryReport) {
        Durable::open_paged(
            storage.clone() as Arc<dyn Storage>,
            DurabilityConfig::group_commit(),
            FastPathMode::Pole,
            paged_tree_config(),
        )
        .unwrap()
    }

    #[test]
    fn paged_snapshot_image_roundtrip_and_truncations_rejected() {
        let s = MemStorage::new();
        let image = vec![0xA5u8; 300];
        let words = [4, 999, image.len() as u64];
        files::publish(&s, Kind::Paged, words, |tmp| s.append(tmp, &image)).unwrap();
        let bytes = s.read(&files::name(Kind::Paged, 4, 0)).unwrap();
        // What `open_paged` checks before the image's own CRCs.
        let read = |bytes: &[u8]| {
            files::read_header(Kind::Paged, bytes).filter(|&[_, _, len]| image_fits(bytes, len))
        };
        assert_eq!(read(&bytes), Some([4, 999, 300]));
        assert_eq!(&bytes[files::HEADER..], &image[..]);
        for cut in (0..bytes.len()).step_by(33) {
            assert_eq!(read(&bytes[..cut]), None, "cut {cut}");
        }
    }

    #[test]
    fn paged_checkpoint_recovers_lazily_with_tail() {
        let storage = Arc::new(MemStorage::new());
        let (mut d, report) = open_paged(&storage);
        assert_eq!(report.snapshot_entries, 0);
        let batch: Vec<(u64, u64)> = (0..500u64).map(|k| (k, k * 3)).collect();
        d.insert_batch(&batch);
        d.checkpoint_paged().unwrap();

        // With no tail to replay, opening decodes only what the fast path
        // re-arms on: the tail spine and the poℓe's predecessor leaf.
        let (lazy, report) = open_paged(&Arc::new(storage.crash_durable_only()));
        assert_eq!((report.snapshot_entries, report.tail_records), (500, 0));
        let (faults, height) = (lazy.inner().metrics().page_faults, lazy.inner().height());
        assert!(
            faults as usize <= height + 1,
            "reopen decoded {faults} nodes of a height-{height} tree"
        );
        drop(lazy);

        for k in 500..600u64 {
            d.insert(k, k * 3);
        }
        d.delete(7);

        let files = storage.list().unwrap();
        assert!(
            files.iter().any(|f| f.starts_with("psnap-")),
            "paged snapshot written: {files:?}"
        );
        assert!(
            !files.iter().any(|f| f.starts_with("snap-")),
            "no sorted snapshot dual-written: {files:?}"
        );
        assert!(
            !files.iter().any(|f| f.contains("wal-00000000")),
            "generation-0 segments pruned: {files:?}"
        );

        let crashed = Arc::new(storage.crash_durable_only());
        let (mut d2, report) = open_paged(&crashed);
        assert_eq!(report.snapshot_entries, 500);
        assert_eq!(report.snapshot_lsn, 500);
        assert_eq!(report.tail_records, 101);
        assert_eq!(d2.len(), 599);
        assert_eq!(d2.get(7), None);
        assert_eq!(d2.get(599), Some(1797));
        assert!(d2.inner().is_paged());
        d2.inner().check_invariants().unwrap();
    }

    #[test]
    fn corrupt_psnap_falls_back_to_previous_generation() {
        let storage = Arc::new(MemStorage::new());
        let (mut d, _) = open_paged(&storage);
        d.insert_batch(&(0..200u64).map(|k| (k, k)).collect::<Vec<_>>());
        d.checkpoint_paged().unwrap();
        d.insert_batch(&(200..400u64).map(|k| (k, k)).collect::<Vec<_>>());
        // Keep generation 1 around so recovery has somewhere to fall.
        d.config.prune_on_checkpoint = false;
        d.checkpoint_paged().unwrap();

        // Flip one byte deep inside the newest psnap's page area: the
        // per-page CRC sweep must reject the whole candidate, never
        // silently apply a torn page.
        let name = "psnap-00000002.qpsf";
        let mut bytes = storage.read(name).unwrap();
        let at = bytes.len() - 40;
        bytes[at] ^= 0x01;
        storage.remove(name).unwrap();
        storage.install(name, bytes);

        let crashed = Arc::new(storage.crash_durable_only());
        let (mut d2, report) = open_paged(&crashed);
        assert_eq!(report.rejected_snapshots, 1);
        assert_eq!(report.snapshot_entries, 200, "fell back to generation 1");
        // Generation 2's WAL segments replay nothing (they start past the
        // rejected snapshot), but generation 1's tail still covers the
        // second batch.
        assert_eq!(d2.len(), 400);
        assert_eq!(d2.get(399), Some(399));
    }

    #[test]
    fn open_paged_rejects_a_sorted_snapshot_directory() {
        let storage = Arc::new(MemStorage::new());
        // A non-paged deployment: sorted snapshot + WAL tail.
        let (mut d, _) = open(&storage, DurabilityConfig::group_commit());
        d.insert_batch(&(0..300u64).map(|k| (k, k + 1)).collect::<Vec<_>>());
        d.checkpoint::<u64, u64>().unwrap();
        d.insert(300, 301);

        // The same directory reopened paged is refused, naming the file —
        // not silently bulk-loaded, not silently skipped.
        let crashed = Arc::new(storage.crash_durable_only());
        let err = match Durable::<BpTree<u64, u64>>::open_paged(
            crashed.clone() as Arc<dyn Storage>,
            DurabilityConfig::group_commit(),
            FastPathMode::Pole,
            paged_tree_config(),
        ) {
            Err(err) => err,
            Ok(_) => panic!("a sorted-snapshot directory must be rejected"),
        };
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("snap-00000001.qsnp"), "{err}");
        // The refusal touched nothing: the directory still opens as what it
        // is.
        let (d2, report) = open(&crashed, DurabilityConfig::group_commit());
        assert_eq!(report.snapshot_entries, 300);
        assert_eq!(report.tail_records, 1);
        assert_eq!(d2.inner().len(), 301);
    }

    #[test]
    fn open_paged_rejects_arena_config() {
        let storage = Arc::new(MemStorage::new());
        let err = match Durable::<BpTree<u64, u64>>::open_paged(
            storage as Arc<dyn Storage>,
            DurabilityConfig::group_commit(),
            FastPathMode::Pole,
            TreeConfig::small(16),
        ) {
            Err(err) => err,
            Ok(_) => panic!("arena config must be rejected"),
        };
        assert_eq!(err.kind(), "config");
    }

    #[test]
    fn checkpoint_paged_rejects_arena_tree() {
        let storage = Arc::new(MemStorage::new());
        let (mut d, _) = open(&storage, DurabilityConfig::group_commit());
        d.insert(1, 1);
        let err = d.checkpoint_paged().unwrap_err();
        assert_eq!(err.kind(), "config");
    }

    #[test]
    fn durable_concurrent_tree_shared_writers() {
        let storage = Arc::new(MemStorage::new());
        let (d, _) = Durable::open(
            storage.clone() as Arc<dyn Storage>,
            DurabilityConfig::group_commit(),
            concurrent_builder::<u64, u64>(TreeConfig::small(32)),
        )
        .unwrap();
        let d = Arc::new(d);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let d = d.clone();
                scope.spawn(move || {
                    for i in 0..200u64 {
                        d.insert_shared(t * 10_000 + i, i);
                    }
                });
            }
        });
        assert_eq!(d.tree().len(), 800);

        let crashed = Arc::new(storage.crash_durable_only());
        let (d2, report) = Durable::open(
            crashed as Arc<dyn Storage>,
            DurabilityConfig::group_commit(),
            concurrent_builder::<u64, u64>(TreeConfig::small(32)),
        )
        .unwrap();
        assert_eq!(report.recovered_lsn, 800, "every acked insert is durable");
        assert_eq!(d2.tree().len(), 800);
        d2.tree().check_consistency().unwrap();
    }

    /// A [`MemStorage`] whose appends fail once `failing` is set.
    struct FailingAppends {
        inner: MemStorage,
        failing: std::sync::atomic::AtomicBool,
    }

    impl Storage for FailingAppends {
        fn append(&self, file: &str, bytes: &[u8]) -> std::io::Result<()> {
            if self.failing.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(std::io::Error::other("injected append failure"));
            }
            self.inner.append(file, bytes)
        }

        fn sync(&self, file: &str) -> std::io::Result<()> {
            self.inner.sync(file)
        }

        fn read(&self, file: &str) -> std::io::Result<Vec<u8>> {
            self.inner.read(file)
        }

        fn list(&self) -> std::io::Result<Vec<String>> {
            self.inner.list()
        }

        fn remove(&self, file: &str) -> std::io::Result<()> {
            self.inner.remove(file)
        }

        fn rename(&self, from: &str, to: &str) -> std::io::Result<()> {
            self.inner.rename(from, to)
        }
    }

    #[test]
    fn a_failed_wal_append_panics_with_the_wal_error_every_time() {
        // The first failing insert panics while it holds the key's stripe.
        // The next writer of that key takes the same stripe and must still
        // fail on the (now poisoned) WAL, not on a poisoned stripe lock.
        let storage = Arc::new(FailingAppends {
            inner: MemStorage::new(),
            failing: Default::default(),
        });
        let (d, _) = Durable::open(
            storage.clone() as Arc<dyn Storage>,
            DurabilityConfig::group_commit().with_wal_buffer_bytes(0),
            concurrent_builder::<u64, u64>(TreeConfig::small(8)),
        )
        .unwrap();
        d.insert_shared(1, 1);
        storage
            .failing
            .store(true, std::sync::atomic::Ordering::SeqCst);
        for attempt in 0..2 {
            let insert = std::panic::AssertUnwindSafe(|| d.insert_shared(7, 7));
            let panic = std::panic::catch_unwind(insert).expect_err("a failed append panics");
            let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(message.contains("WAL"), "attempt {attempt}: {message:?}");
        }
        assert_eq!(d.tree().get(1), Some(1));
    }

    #[test]
    fn apply_tail_batches_insert_runs() {
        let t = Variant::Quit.build::<u64, u64>(TreeConfig::small(16));
        let tail: Vec<(Lsn, Logged<u64, u64>)> = (0..100u64)
            .map(|k| (k + 1, Logged::Op(WalOp::Insert(k, k))))
            .chain([
                (101, Logged::Op(WalOp::Delete(5))),
                (102, Logged::Run((100..200u64).map(|k| (k, k)).collect())),
                (202, Logged::Op(WalOp::Insert(200, 200))),
            ])
            .collect();
        let (t, applied) = apply_tail(t, tail).unwrap();
        assert_eq!(applied, 202);
        assert_eq!(t.len(), 200);
        let m = t.metrics_registry().snapshot();
        assert!(
            m.fast_inserts > m.top_inserts,
            "sorted tail must ride the fast path: {} fast vs {} top",
            m.fast_inserts,
            m.top_inserts
        );
    }

    /// The fold leaves exactly what replaying the tail into a tree
    /// bulk-loaded from the snapshot leaves: duplicates in log order,
    /// deletes taking the oldest instance, misses doing nothing, an early
    /// outlier and a scrambled stretch included.
    #[test]
    fn fold_tail_matches_a_replay_into_the_snapshot() {
        let snapshot: Vec<(u64, u64)> = [(10, 1), (20, 2), (20, 3), (30, 4)].to_vec();
        let mut ops: Vec<Logged<u64, u64>> = vec![
            Logged::Op(WalOp::Insert(20, 5)),
            Logged::Op(WalOp::Delete(20)),
            Logged::Op(WalOp::Insert(1_000, 6)), // early outlier
            Logged::Run((21..60u64).map(|k| (k, k)).collect()),
            Logged::Op(WalOp::Delete(25)),
            Logged::Op(WalOp::Delete(7)), // miss
            Logged::Op(WalOp::Insert(10, 7)),
            Logged::Run([(5u64, 8u64), (3, 9), (25, 10), (25, 11)].to_vec()),
            Logged::Op(WalOp::Delete(10)),
            Logged::Op(WalOp::Delete(25)),
        ];
        ops.extend((0..50u64).map(|i| Logged::Op(WalOp::Insert((i * 37) % 101, 100 + i))));
        ops.push(Logged::Op(WalOp::Delete(1_000)));
        ops.push(Logged::Op(WalOp::Delete(1_000)));
        let mut lsn = 1;
        let tail: Vec<(Lsn, Logged<u64, u64>)> = ops
            .into_iter()
            .map(|logged| {
                let at = lsn;
                lsn += logged.lsns();
                (at, logged)
            })
            .collect();

        let replayed = bptree_builder(FastPathMode::Pole, TreeConfig::small(4))(snapshot.clone());
        let (replayed, applied) = apply_tail(replayed, tail.clone()).unwrap();
        let (folded, folded_ops) = fold_tail(snapshot, tail).unwrap();
        assert_eq!(folded_ops, applied);
        let want: Vec<(u64, u64)> = replayed.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(folded, want);
    }

    /// The same, over random tails on a random snapshot, both drawn from a
    /// few dozen keys so duplicates and deletes meet: ascending runs that
    /// move into main whole, runs that turn back part way, runs below
    /// main's last key, single inserts and deletes, hit and miss.
    #[test]
    fn fold_tail_matches_a_replay_on_random_tails() {
        let mut state = 0x5EED_F01Du64;
        let mut next = |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        for case in 0..400 {
            let mut snapshot: Vec<(u64, u64)> =
                (0..next(40)).map(|i| (next(48), 1_000 + i)).collect();
            snapshot.sort_by_key(|&(k, _)| k);
            let (mut tail, mut lsn) = (Vec::new(), 1);
            for _ in 0..next(24) {
                let logged = match next(4) {
                    0 => Logged::Op(WalOp::Delete(next(56))),
                    1 => Logged::Op(WalOp::Insert(next(56), lsn)),
                    _ => {
                        let (mut key, len) = (next(56), 2 + next(12));
                        let turn = next(len + 1);
                        let run = (0..len)
                            .map(|i| {
                                key = if i == turn { next(56) } else { key + next(3) };
                                (key, lsn + i)
                            })
                            .collect();
                        Logged::Run(run)
                    }
                };
                let at = lsn;
                lsn += logged.lsns();
                tail.push((at, logged));
            }
            let replayed =
                bptree_builder(FastPathMode::Pole, TreeConfig::small(4))(snapshot.clone());
            let (replayed, applied) = apply_tail(replayed, tail.clone()).unwrap();
            let (folded, folded_ops) = fold_tail(snapshot, tail).unwrap();
            assert_eq!(folded_ops, applied, "case {case}");
            let want: Vec<(u64, u64)> = replayed.iter().map(|(k, v)| (k, *v)).collect();
            assert_eq!(folded, want, "case {case}");
        }
    }

    /// `snapshot_entries` and `tail_records` count what they counted when
    /// the tail was replayed, and `elapsed` (like the `recovery_latency`
    /// histogram) times the whole open, the one build included.
    #[test]
    fn the_report_counts_the_snapshot_and_tail_and_times_the_build() {
        let storage = Arc::new(MemStorage::new());
        let (mut d, _) = open(&storage, DurabilityConfig::group_commit());
        d.insert_batch(&(0..300u64).map(|k| (k, k)).collect::<Vec<_>>());
        d.delete(7);
        d.checkpoint::<u64, u64>().unwrap();
        d.insert_batch(&(300..340u64).map(|k| (k, k)).collect::<Vec<_>>());
        d.insert(5, 55);
        d.delete(5);
        d.delete(7); // miss: deleted before the checkpoint
        d.delete(330);
        drop(d);

        let build_time = Duration::from_millis(30);
        let (d2, report) = Durable::open(
            Arc::new(storage.crash_durable_only()) as Arc<dyn Storage>,
            DurabilityConfig::group_commit(),
            |entries| {
                std::thread::sleep(build_time);
                quit_builder()(entries)
            },
        )
        .unwrap();
        assert_eq!(report.snapshot_entries, 299);
        assert_eq!(report.tail_records, 44);
        assert_eq!(d2.inner().len(), 338);
        assert_eq!(d2.inner().get(5), Some(&55), "the snapshot's 5 was deleted");
        assert!(report.elapsed >= build_time, "{:?}", report.elapsed);
        let histogram = d2.wal().metrics().snapshot().recovery_latency;
        assert_eq!(histogram.count(), 1);
        assert!(histogram.sum_ns >= build_time.as_nanos() as u64);
    }

    #[test]
    fn a_commit_record_after_a_run_is_refused_at_its_own_lsn() {
        let storage = Arc::new(MemStorage::new());
        let (mut d, _) = open(&storage, DurabilityConfig::group_commit());
        d.insert(0, 0);
        d.insert_batch(&(10..20u64).map(|k| (k, k)).collect::<Vec<_>>());
        // LSN 1 is the insert, 2..=11 the run, so the commit is LSN 12.
        let lsn = d
            .wal()
            .append(&[WalOp::Commit(7, vec![(30u64, Some(30u64))])])
            .unwrap();
        assert_eq!(lsn, 12);
        d.commit_all().unwrap();

        let crashed = Arc::new(storage.crash_durable_only());
        let err = Durable::open(
            crashed as Arc<dyn Storage>,
            DurabilityConfig::group_commit(),
            quit_builder(),
        )
        .err()
        .expect("a commit record in a plain log is refused");
        assert_eq!(err.kind(), "wal", "{err}");
        assert!(err.to_string().contains("at LSN 12:"), "{err}");
    }

    #[test]
    fn a_txn_store_refuses_a_plain_log_at_its_first_run() {
        let storage = Arc::new(MemStorage::new());
        let (mut d, _) = open(&storage, DurabilityConfig::group_commit());
        d.insert_batch(&[(1u64, 1u64), (2, 2), (3, 3)]);
        drop(d);

        let crashed = Arc::new(storage.crash_durable_only());
        let err = crate::TxnStore::<u64, u64>::open(
            crashed as Arc<dyn Storage>,
            crate::TxnConfig::default(),
        )
        .err()
        .expect("a run frame in a transactional log is refused");
        assert_eq!(err.kind(), "wal", "{err}");
        assert!(err.to_string().contains("at LSN 1:"), "{err}");
    }
}
