//! [`TxnStore`]: snapshot-isolation transactions over an
//! [`MvccTree`], committed through the group-commit WAL.
//!
//! [`TxnConfig`] carries the tree's [`TreeConfig`] (the same type every
//! tree in the workspace takes; the version tree always runs the poℓe
//! fast path) and the WAL's sizes in its [`DurabilityConfig`].
//! [`TxnStore::open`] returns a `config` error for a tree config the
//! concurrent tree cannot run, before it reads anything.
//!
//! # Protocol
//!
//! *Begin* takes a snapshot timestamp from the [oracle](TsOracle
//! docs below): the highest commit timestamp whose writes are guaranteed
//! applied. Reads resolve against that snapshot; writes buffer in the
//! transaction until commit — nothing touches the tree early, so abort
//! is free and readers never see uncommitted intents.
//!
//! *Commit* is first-committer-wins snapshot isolation:
//!
//! 1. lock the write-set's stripes (deduplicated, stripe-ordered —
//!    deadlock-free; the 64-way stripe manager is `MvccTree`'s, seeded
//!    from PR 5's shared-path ordering stripes);
//! 2. validate: any write key whose newest version committed after our
//!    snapshot is a lost-update hazard → [`Error::Conflict`], abort;
//! 3. allocate the commit timestamp (registered in-flight);
//! 4. append the commit — timestamp and whole write set — as **one**
//!    `WalOp::Commit` frame: one LSN, one CRC, encoded straight from the
//!    transaction's own buffer;
//! 5. apply the versions to the tree as one batch
//!    ([`MvccTree::apply_batch`]: the key-ordered write set rides the
//!    tree's fast path a leaf chunk at a time), still under the stripes,
//!    so WAL order ≡ apply order per key;
//! 6. release the stripes, publish the timestamp (readers may now get
//!    snapshots covering it), and only then await the group fsync.
//!
//! # Recovery
//!
//! The checkpoint image is bulk-built bottom-up ([`MvccTree::bulk_load`]).
//! Only decided commits reach the WAL, one self-contained frame each, so
//! replay applies every `Commit` record as it is read, at its recorded
//! timestamp, through the same `apply_batch` as the live commit path. A
//! crash anywhere inside a frame fails its length or CRC
//! check and the frame is a torn tail: the transaction replays whole or
//! not at all, whatever its size.
//!
//! # Why readers can trust their snapshot
//!
//! Commit timestamps are allocated *before* the writes are applied, and
//! two commits on disjoint stripes race freely — so "the clock says 7"
//! does not mean commit 7's writes are readable. The oracle therefore
//! tracks in-flight commits and publishes a separate *visible*
//! watermark: the largest timestamp `t` such that every commit `<= t`
//! has finished applying. Snapshots come from the visible watermark, so
//! a reader's snapshot never covers a half-applied commit, and version
//! visibility (`newest commit_ts <= snapshot`) is exact.
//!
//! # GC
//!
//! Once commits have superseded `gc_every` existing versions (and on
//! [`TxnStore::gc`]) versions unreachable by the oldest live snapshot
//! are pruned and dead tombstones deleted — a pass over the keys that
//! have garbage, not over the tree; insert-only ingest accumulates none
//! and triggers no passes.
//! The watermark is `min(oldest registered snapshot, visible)`, and
//! snapshot registration is atomic with watermark computation (both
//! hold the registry lock), so a just-beginning reader can never slip
//! under a concurrent collector. Transactions and auto-commit scans
//! register; an auto-commit `get` does not, and re-resolves in the one
//! case where that could show (see [`TxnStore::get`]).

use crate::durable::{recover, with_wal_metrics, DurabilityConfig, RecoveryReport};
use crate::files::Kind;
use crate::frame::{Logged, WalCodec};
use crate::snapshot::read_entries;
use crate::storage::Storage;
use crate::wal::{Lsn, Wal};
use crate::WalOp;
use quit_concurrent::MvccTree;
use quit_core::mutation::{self, Mutation};
use quit_core::{Error, Key, Result, StatsSnapshot, TreeConfig};
use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Timestamp oracle: allocates commit timestamps and publishes the
/// *visible* watermark reader snapshots are taken from (see the module
/// docs for why the two are distinct).
struct TsOracle {
    /// Last allocated commit timestamp.
    clock: AtomicU64,
    /// Every commit `<= visible` has finished applying.
    visible: AtomicU64,
    /// Allocated-but-not-yet-applied commit timestamps.
    inflight: Mutex<std::collections::BTreeSet<u64>>,
}

impl TsOracle {
    fn new(start: u64) -> Self {
        TsOracle {
            clock: AtomicU64::new(start),
            visible: AtomicU64::new(start),
            inflight: Mutex::new(std::collections::BTreeSet::new()),
        }
    }

    /// The snapshot timestamp a beginning reader should use.
    fn snapshot(&self) -> u64 {
        self.visible.load(Ordering::Acquire)
    }

    /// Allocates the next commit timestamp and marks it in-flight.
    fn begin_commit(&self) -> u64 {
        let mut inflight = self.inflight.lock().unwrap();
        let ts = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        inflight.insert(ts);
        ts
    }

    /// Marks `ts` applied (or abandoned) and advances the visible
    /// watermark as far as the remaining in-flight set allows.
    fn finish_commit(&self, ts: u64) {
        let mut inflight = self.inflight.lock().unwrap();
        inflight.remove(&ts);
        let frontier = match inflight.first() {
            Some(&oldest) => oldest - 1,
            None => self.clock.load(Ordering::Relaxed),
        };
        // Monotonic publish: a stale frontier from a racing finisher
        // must never move `visible` backwards.
        let mut cur = self.visible.load(Ordering::Relaxed);
        while frontier > cur {
            match self.visible.compare_exchange_weak(
                cur,
                frontier,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Snapshots an auto-commit [`TxnStore::get`] tries unregistered before it
/// pays for a registration.
const UNREGISTERED_READS: usize = 3;

/// A commit-timestamped snapshot value: `(commit_ts, value)`, the value
/// type of `TxnStore` checkpoint snapshots — per-key commit timestamps
/// must survive a restart or post-recovery conflict detection would
/// forget history.
struct Stamped<V>(u64, V);

impl<V: WalCodec> WalCodec for Stamped<V> {
    const WIDTH: usize = 8 + V::WIDTH;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }

    fn decode_from(bytes: &[u8]) -> Self {
        Stamped(u64::decode_from(&bytes[..8]), V::decode_from(&bytes[8..]))
    }
}

/// Configuration for [`TxnStore`]: inner-tree geometry, durability
/// knobs, and the GC cadence.
#[derive(Clone, Debug)]
pub struct TxnConfig {
    /// Inner [`MvccTree`] configuration: geometry, IKR scale, reset
    /// threshold and metrics level. Storage must be
    /// [`StorageKind::Arena`](quit_core::StorageKind::Arena).
    pub tree: TreeConfig,
    /// WAL / snapshot / group-commit knobs.
    pub durability: DurabilityConfig,
    /// Run the version GC once commits have superseded this many
    /// existing versions (`0` = only on explicit [`TxnStore::gc`]
    /// calls). Counting garbage rather than commits keeps insert-only
    /// ingest free of pointless passes.
    pub gc_every: u64,
}

impl Default for TxnConfig {
    fn default() -> Self {
        TxnConfig {
            tree: TreeConfig::paper_default(),
            durability: DurabilityConfig::group_commit(),
            gc_every: 256,
        }
    }
}

impl TxnConfig {
    /// Builder-style override of the tree configuration.
    pub fn with_tree(mut self, tree: TreeConfig) -> Self {
        self.tree = tree;
        self
    }

    /// Builder-style override of the durability configuration.
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = durability;
        self
    }

    /// Builder-style override of the GC cadence.
    pub fn with_gc_every(mut self, every: u64) -> Self {
        self.gc_every = every;
        self
    }
}

/// Counters describing a [`TxnStore`]'s transactional history.
#[derive(Clone, Copy, Debug, Default)]
pub struct TxnStats {
    /// Committed transactions (auto-commit single ops included).
    pub commits: u64,
    /// Commits refused by first-committer-wins validation.
    pub conflicts: u64,
    /// Transactions that ended without committing (explicit aborts,
    /// conflict losers, and dropped handles).
    pub aborts: u64,
    /// Versions reclaimed by the GC so far.
    pub gc_reclaimed: u64,
    /// Keys whose newest version is a live value.
    pub live_keys: u64,
}

/// A multi-version, transactional, durable key-value store: snapshot
/// isolation over [`MvccTree`], first-committer-wins conflict
/// detection, one WAL frame per commit with atomic recovery. See the module
/// docs for the protocol.
///
/// All transaction traffic goes through `&self` — share a `TxnStore`
/// across threads with an [`Arc`]. [`checkpoint`](Self::checkpoint)
/// also takes `&self`: it quiesces committers through an internal gate
/// instead of demanding exclusivity.
pub struct TxnStore<K, V>
where
    K: Key + WalCodec,
    V: Clone + WalCodec,
{
    mvcc: MvccTree<K, V>,
    wal: Wal,
    config: TxnConfig,
    oracle: TsOracle,
    /// Active snapshot registry: `snapshot_ts -> reader count`. Guards
    /// the GC watermark (see module docs).
    snapshots: Mutex<BTreeMap<u64, usize>>,
    /// Commits hold `read`; checkpoint holds `write` to quiesce the WAL.
    commit_gate: RwLock<()>,
    next_tid: AtomicU64,
    live: AtomicU64,
    commits: AtomicU64,
    conflicts: AtomicU64,
    aborts: AtomicU64,
    gc_reclaimed: AtomicU64,
    garbage_since_gc: AtomicU64,
}

impl<K, V> TxnStore<K, V>
where
    K: Key + WalCodec,
    V: Clone + WalCodec,
{
    /// Opens (or creates) a transactional store on `storage`: loads the
    /// newest valid timestamped snapshot, bulk-builds the version tree,
    /// replays the WAL tail (one `Commit` frame per transaction, so each
    /// replays whole or — torn — not at all), and resumes the timestamp
    /// clock past everything recovered.
    ///
    /// A transactional directory holds only `Commit` records: a plain
    /// `Insert`/`Delete` record or a logged batch in the tail means the log
    /// was written by a non-transactional [`crate::Durable`], and the open
    /// is rejected with a `wal` error naming the record's (first) LSN. A
    /// tree config the concurrent tree cannot run (see
    /// [`quit_concurrent::validate_config`]) is rejected with a `config`
    /// error before anything is read.
    pub fn open(storage: Arc<dyn Storage>, config: TxnConfig) -> Result<(Self, RecoveryReport)> {
        quit_concurrent::validate_config(&config.tree)?;
        let decode = |bytes: Vec<u8>, count| Some((read_entries(&bytes, count)?, count as usize));
        let replay = |entries: Option<Vec<(K, Stamped<V>)>>, tail: Vec<(Lsn, Logged<K, V>)>| {
            let entries = entries.unwrap_or_default();
            let mut live = entries.len() as u64;
            let mut max_ts = entries.iter().map(|(_, s)| s.0).max().unwrap_or(0);
            let mvcc = MvccTree::bulk_load(
                config.tree.clone(),
                entries.into_iter().map(|(k, Stamped(ts, v))| (k, ts, v)),
            );
            let mut applied = 0usize;
            for (lsn, logged) in tail {
                let Logged::Op(WalOp::Commit(commit_ts, writes)) = logged else {
                    return Err(Error::wal(format!(
                        "non-transactional record at LSN {lsn}: this log was not \
                         written by a TxnStore (open it with Durable::open)"
                    )));
                };
                applied += writes.len();
                let (delta, _) = mvcc.apply_batch(commit_ts, &writes);
                live = live.wrapping_add_signed(delta);
                max_ts = max_ts.max(commit_ts);
            }
            Ok(((mvcc, live, max_ts), applied))
        };
        let ((mvcc, live, max_ts), wal, report) =
            recover(storage, &config.durability, Kind::Sorted, decode, replay)?;
        Ok((
            TxnStore {
                mvcc,
                wal,
                config,
                oracle: TsOracle::new(max_ts),
                snapshots: Mutex::new(BTreeMap::new()),
                commit_gate: RwLock::new(()),
                next_tid: AtomicU64::new(0),
                live: AtomicU64::new(live),
                commits: AtomicU64::new(0),
                conflicts: AtomicU64::new(0),
                aborts: AtomicU64::new(0),
                gc_reclaimed: AtomicU64::new(0),
                garbage_since_gc: AtomicU64::new(0),
            },
            report,
        ))
    }

    /// Begins a transaction at the current visible snapshot.
    pub fn begin(&self) -> Txn<'_, K, V> {
        Txn {
            store: self,
            tid: self.next_tid.fetch_add(1, Ordering::Relaxed) + 1,
            snapshot_ts: self.register(),
            writes: BTreeMap::new(),
            committed: false,
        }
    }

    /// Takes the current visible snapshot and registers it until the
    /// matching [`unregister`](Self::unregister). Choice and registration
    /// are atomic under the registry lock, so a concurrent GC watermark
    /// can never exceed a snapshot that is about to register (module docs,
    /// "GC").
    fn register(&self) -> u64 {
        let mut snapshots = self.snapshots.lock().unwrap();
        let ts = self.oracle.snapshot();
        *snapshots.entry(ts).or_insert(0) += 1;
        ts
    }

    fn unregister(&self, snapshot_ts: u64) {
        let mut snapshots = self.snapshots.lock().unwrap();
        if let Some(count) = snapshots.get_mut(&snapshot_ts) {
            *count -= 1;
            if *count == 0 {
                snapshots.remove(&snapshot_ts);
            }
        }
    }

    /// Runs `read` at a snapshot registered for exactly that long.
    fn at_registered<T>(&self, read: impl FnOnce(u64) -> T) -> T {
        let snapshot_ts = self.register();
        let out = read(snapshot_ts);
        self.unregister(snapshot_ts);
        out
    }

    /// Auto-commit point read at a visible snapshot taken during the call.
    ///
    /// The snapshot is not registered, so a GC pass may overtake it. That
    /// only matters when the key's newest version is younger than the
    /// snapshot and nothing older is left: the version this read wanted
    /// may have been collected. It then resolves again at a fresh snapshot
    /// — any snapshot between call and return is a valid linearization
    /// point for a single-key read — and after a few rounds at a
    /// registered one, which no collector can pass.
    pub fn get(&self, key: K) -> Option<V> {
        for _ in 0..UNREGISTERED_READS {
            if let Some(resolved) = self.mvcc.try_read_at(key, self.oracle.snapshot()) {
                return resolved;
            }
        }
        self.at_registered(|snapshot_ts| self.mvcc.read_at(key, snapshot_ts))
    }

    /// Auto-commit snapshot scan at the current visible snapshot, which it
    /// registers for its duration exactly as [`begin`](Self::begin) does:
    /// a scan resolves many keys against one snapshot, so the collector
    /// must not pass it midway.
    pub fn scan<R: RangeBounds<K>>(&self, bounds: R) -> Vec<(K, V)> {
        self.at_registered(|snapshot_ts| self.mvcc.scan_at(bounds, snapshot_ts))
    }

    /// Auto-commit single-key insert: a blind one-write transaction.
    /// Blind single-key writes always win — retrying a one-write
    /// transaction until its snapshot catches up converges to exactly
    /// this — so the fast path commits directly (one WAL frame, no
    /// conflict check, no snapshot registration, no allocation) and never
    /// returns [`Error::Conflict`]. Returns its commit timestamp.
    pub fn insert(&self, key: K, value: V) -> Result<u64> {
        let (commit_ts, lsn) = self.log_and_apply(&[(key, Some(value))], None)?;
        self.wal.ack(lsn)?;
        Ok(commit_ts)
    }

    /// Protocol steps 1–6 for one write set (distinct keys): lock the
    /// stripes, validate against `snapshot_ts` if one is given (`None` is
    /// a blind commit), timestamp, log as one `Commit` frame, apply,
    /// publish. Returns the commit timestamp and what
    /// [`Wal::ack`] must wait on; an error means nothing was applied.
    fn log_and_apply(
        &self,
        writes: &[(K, Option<V>)],
        snapshot_ts: Option<u64>,
    ) -> Result<(u64, Option<Lsn>)> {
        let _gate = self.commit_gate.read().unwrap();
        let guards = self.mvcc.lock_keys(writes.iter().map(|(key, _)| key));

        // First-committer-wins validation: a newer committed version of
        // any write key means a concurrent transaction won. The planted
        // `Mutation::SkipConflictCheck` skips it entirely, silently losing
        // updates between concurrent writers — the SI history checker must
        // detect this and shrink the offending history.
        let validate_at = snapshot_ts.filter(|_| !mutation::armed(Mutation::SkipConflictCheck));
        if let Some(snapshot_ts) = validate_at {
            let newer = self
                .mvcc
                .newest_after(writes.iter().map(|&(key, _)| key), snapshot_ts);
            if let Some(latest) = newer {
                self.conflicts.fetch_add(1, Ordering::Relaxed);
                return Err(Error::conflict(format!(
                    "key committed at ts {latest} after snapshot {snapshot_ts}"
                )));
            }
        }

        let commit_ts = self.oracle.begin_commit();
        // On an error nothing is applied: the frame may or may not have
        // reached the (now poisoned) WAL, and nobody was told it committed.
        let lsn = self
            .wal
            .log(self.config.durability.level, |wal| {
                wal.append_commit(commit_ts, writes)
            })
            .inspect_err(|_| self.oracle.finish_commit(commit_ts))?;
        let (live, superseded) = self.mvcc.apply_batch(commit_ts, writes);
        // Two's-complement add: a negative change wraps to a subtraction.
        self.live.fetch_add(live as u64, Ordering::Relaxed);
        drop(guards);
        self.oracle.finish_commit(commit_ts);
        self.commits.fetch_add(1, Ordering::Relaxed);
        drop(_gate);
        self.maybe_gc(superseded);
        Ok((commit_ts, lsn))
    }

    /// Auto-commit single-key delete, returning the deleted value (as of
    /// the winning attempt's snapshot) if the key was live.
    pub fn delete(&self, key: K) -> Result<Option<V>> {
        loop {
            let mut txn = self.begin();
            let prev = txn.get(key);
            txn.delete(key);
            match txn.commit() {
                Err(Error::Conflict(_)) => continue,
                Err(e) => return Err(e),
                Ok(_) => return Ok(prev),
            }
        }
    }

    /// Number of keys whose newest committed version is a live value.
    pub fn len(&self) -> usize {
        self.live.load(Ordering::Relaxed) as usize
    }

    /// Whether no keys are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs a GC pass now: prunes every version unreachable from the
    /// oldest live snapshot (or the visible watermark when no reader is
    /// active), tombstones included. Returns the number of versions
    /// reclaimed.
    pub fn gc(&self) -> usize {
        let watermark = {
            let snapshots = self.snapshots.lock().unwrap();
            let visible = self.oracle.snapshot();
            snapshots
                .keys()
                .next()
                .map_or(visible, |&oldest| oldest.min(visible))
        };
        let reclaimed = self.mvcc.gc(watermark);
        self.gc_reclaimed
            .fetch_add(reclaimed as u64, Ordering::Relaxed);
        reclaimed
    }

    /// Threshold-driven GC: accumulates the number of versions this
    /// commit superseded (overwrites and tombstones — the only ops that
    /// create reclaimable garbage) and runs a pass once `gc_every` have
    /// piled up. Fresh-key inserts never trigger a sweep.
    fn maybe_gc(&self, superseded: u64) {
        if self.config.gc_every > 0
            && superseded > 0
            && self
                .garbage_since_gc
                .fetch_add(superseded, Ordering::Relaxed)
                + superseded
                >= self.config.gc_every
        {
            self.garbage_since_gc.store(0, Ordering::Relaxed);
            self.gc();
        }
    }

    /// Checkpoint: quiesces committers, writes every live key's newest
    /// version (commit-timestamped) as a sorted snapshot, rotates the
    /// WAL generation, and prunes superseded files per the durability
    /// config. After this, recovery is `bulk_load + (tiny) tail`.
    ///
    /// Version history below the newest live version is *not*
    /// checkpointed: no post-restart snapshot can predate the
    /// checkpoint, so that history is unreachable after a reopen.
    pub fn checkpoint(&self) -> Result<()> {
        let _quiesce = self.commit_gate.write().unwrap();
        let entries: Vec<(K, Stamped<V>)> = self
            .mvcc
            .latest_live()
            .into_iter()
            .map(|(k, ts, v)| (k, Stamped(ts, v)))
            .collect();
        self.wal.checkpoint(
            &entries,
            self.config.durability.snapshot_chunk,
            self.config.durability.prune_on_checkpoint,
        )
    }

    /// Blocks until everything logged so far is fsync-durable (the
    /// explicit durability point for `Buffered`-level configs).
    pub fn commit_all(&self) -> Result<()> {
        self.wal.commit_all()
    }

    /// Pushes any buffered WAL bytes to the OS (no fsync) — the
    /// crash-fuzzing hook, mirroring [`crate::Durable::flush`]: the full
    /// byte image must then recover every committed transaction, while
    /// arbitrary byte cuts may still tear mid-frame.
    pub fn flush(&self) -> Result<()> {
        self.wal.flush()
    }

    /// Transactional counters: commits, conflicts, aborts, GC activity.
    pub fn txn_stats(&self) -> TxnStats {
        TxnStats {
            commits: self.commits.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            gc_reclaimed: self.gc_reclaimed.load(Ordering::Relaxed),
            live_keys: self.live.load(Ordering::Relaxed),
        }
    }

    /// Tree + WAL metrics (fast-path counters, WAL appends/fsyncs,
    /// group-commit and recovery histograms).
    pub fn metrics(&self) -> StatsSnapshot {
        with_wal_metrics(self.mvcc.metrics(), &self.wal)
    }

    /// The underlying multi-version tree (snapshot reads, consistency
    /// checks) — reads only; all writes must go through transactions.
    pub fn mvcc(&self) -> &MvccTree<K, V> {
        &self.mvcc
    }

    /// The active configuration.
    pub fn config(&self) -> &TxnConfig {
        &self.config
    }
}

/// One transaction over a [`TxnStore`]: snapshot reads, buffered
/// writes, first-committer-wins commit. Created by [`TxnStore::begin`];
/// dropping an uncommitted handle aborts it (free — no intent ever
/// touched the tree or the WAL).
pub struct Txn<'a, K, V>
where
    K: Key + WalCodec,
    V: Clone + WalCodec,
{
    store: &'a TxnStore<K, V>,
    tid: u64,
    snapshot_ts: u64,
    /// Buffered write intents: `Some` = write, `None` = delete. A
    /// `BTreeMap` so the commit record and overlayed scans are in key
    /// order deterministically.
    writes: BTreeMap<K, Option<V>>,
    committed: bool,
}

impl<K, V> Txn<'_, K, V>
where
    K: Key + WalCodec,
    V: Clone + WalCodec,
{
    /// This handle's id: unique among the transactions this open of the
    /// store has begun (history checkers key on it), never logged, and
    /// counted from 1 again after a reopen.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// The snapshot timestamp all reads resolve against.
    pub fn snapshot_ts(&self) -> u64 {
        self.snapshot_ts
    }

    /// Snapshot read with read-your-writes: buffered intents win over
    /// the snapshot.
    pub fn get(&self, key: K) -> Option<V> {
        if let Some(intent) = self.writes.get(&key) {
            return intent.clone();
        }
        self.store.mvcc.read_at(key, self.snapshot_ts)
    }

    /// Buffers a write of `key = value`.
    pub fn insert(&mut self, key: K, value: V) {
        self.writes.insert(key, Some(value));
    }

    /// Buffers a delete of `key`.
    pub fn delete(&mut self, key: K) {
        self.writes.insert(key, None);
    }

    /// Snapshot range scan with read-your-writes overlay, in key order.
    pub fn range<R: RangeBounds<K>>(&self, bounds: R) -> Vec<(K, V)> {
        let start = bounds.start_bound().cloned();
        let end = bounds.end_bound().cloned();
        let mut image: BTreeMap<K, V> = self
            .store
            .mvcc
            .scan_at((start, end), self.snapshot_ts)
            .into_iter()
            .collect();
        for (&k, intent) in self.writes.range::<K, (Bound<K>, Bound<K>)>((start, end)) {
            match intent {
                Some(v) => {
                    image.insert(k, v.clone());
                }
                None => {
                    image.remove(&k);
                }
            }
        }
        image.into_iter().collect()
    }

    /// Commits: validates first-committer-wins, logs the commit record,
    /// applies the versions, returns the commit timestamp.
    /// A read-only transaction commits trivially at its snapshot.
    ///
    /// On [`Error::Conflict`] the transaction is rolled back (nothing
    /// was applied or logged); retry on a fresh snapshot. Any other
    /// error before the apply step likewise leaves no trace. An fsync
    /// failure *after* apply poisons the WAL and surfaces here, but the
    /// commit is already visible in memory — the standard group-commit
    /// contract (durability is only promised when `Ok` returns).
    pub fn commit(mut self) -> Result<u64> {
        if self.writes.is_empty() {
            self.committed = true;
            self.store.commits.fetch_add(1, Ordering::Relaxed);
            return Ok(self.snapshot_ts);
        }
        let writes: Vec<(K, Option<V>)> = std::mem::take(&mut self.writes).into_iter().collect();
        let (commit_ts, lsn) = self.store.log_and_apply(&writes, Some(self.snapshot_ts))?;
        self.committed = true;
        self.store.wal.ack(lsn)?;
        Ok(commit_ts)
    }

    /// Explicitly aborts. Equivalent to dropping the handle: buffered
    /// intents are discarded; nothing was logged or applied.
    pub fn abort(self) {
        // Drop does the bookkeeping.
    }
}

impl<K, V> Drop for Txn<'_, K, V>
where
    K: Key + WalCodec,
    V: Clone + WalCodec,
{
    fn drop(&mut self) {
        self.store.unregister(self.snapshot_ts);
        if !self.committed {
            self.store.aborts.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn mem_store(gc_every: u64) -> TxnStore<u64, u64> {
        let storage = Arc::new(MemStorage::new()) as Arc<dyn Storage>;
        let (store, _) = TxnStore::open(
            storage,
            TxnConfig::default()
                .with_durability(DurabilityConfig::buffered())
                .with_gc_every(gc_every),
        )
        .unwrap();
        store
    }

    #[test]
    fn txn_reads_its_snapshot_not_later_commits() {
        let store = mem_store(0);
        store.insert(1, 10).unwrap();
        let reader = store.begin();
        assert_eq!(reader.get(1), Some(10));
        store.insert(1, 11).unwrap();
        store.insert(2, 20).unwrap();
        // Snapshot: still the old world.
        assert_eq!(reader.get(1), Some(10));
        assert_eq!(reader.get(2), None);
        assert_eq!(reader.range(..), vec![(1, 10)]);
        drop(reader);
        assert_eq!(store.get(1), Some(11));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn read_your_writes_and_overlayed_range() {
        let store = mem_store(0);
        store.insert(1, 10).unwrap();
        store.insert(2, 20).unwrap();
        let mut txn = store.begin();
        txn.insert(3, 30);
        txn.delete(1);
        txn.insert(2, 21);
        assert_eq!(txn.get(1), None);
        assert_eq!(txn.get(2), Some(21));
        assert_eq!(txn.get(3), Some(30));
        assert_eq!(txn.range(..), vec![(2, 21), (3, 30)]);
        // Nothing visible outside until commit.
        assert_eq!(store.scan(..), vec![(1, 10), (2, 20)]);
        txn.commit().unwrap();
        assert_eq!(store.scan(..), vec![(2, 21), (3, 30)]);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn first_committer_wins() {
        let store = mem_store(0);
        store.insert(7, 70).unwrap();
        let mut a = store.begin();
        let mut b = store.begin();
        a.insert(7, 71);
        b.insert(7, 72);
        assert!(a.commit().is_ok());
        let err = b.commit().unwrap_err();
        assert!(matches!(err, Error::Conflict(_)), "got {err:?}");
        assert_eq!(store.get(7), Some(71));
        let stats = store.txn_stats();
        assert_eq!(stats.conflicts, 1);
        assert_eq!(stats.aborts, 1);
    }

    /// A store over leaves of 8 entries, so the 200-key write sets below
    /// span at least 25 leaves of the commit check's leaf-at-a-time read.
    fn small_leaf_store() -> TxnStore<u64, u64> {
        let storage = Arc::new(MemStorage::new()) as Arc<dyn Storage>;
        let (store, _) = TxnStore::open(
            storage,
            TxnConfig::default()
                .with_tree(TreeConfig::small(8))
                .with_durability(DurabilityConfig::buffered()),
        )
        .unwrap();
        store
    }

    fn open_with_tree(tree: TreeConfig) -> Result<(TxnStore<u64, u64>, RecoveryReport)> {
        let storage = Arc::new(MemStorage::new()) as Arc<dyn Storage>;
        TxnStore::open(storage, TxnConfig::default().with_tree(tree))
    }

    #[test]
    fn open_rejects_a_paged_tree_config() {
        let paged = TreeConfig::small(8).with_storage(quit_core::StorageKind::paged(64));
        let err = open_with_tree(paged).err().expect("paged storage rejected");
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("StorageKind::Arena"), "{err}");
    }

    #[test]
    fn open_rejects_a_zero_ikr_scale() {
        let tree = TreeConfig {
            ikr_scale: 0.0,
            ..TreeConfig::small(8)
        };
        let err = open_with_tree(tree).err().expect("ikr_scale 0 rejected");
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("ikr_scale"), "{err}");
    }

    #[test]
    fn a_newer_commit_anywhere_in_a_multi_leaf_write_set_conflicts() {
        let keys: Vec<u64> = (0..200).map(|i| i * 3).collect();
        for victim in [keys[0], keys[100], keys[199]] {
            let store = small_leaf_store();
            let mut seed = store.begin();
            for &k in &keys {
                seed.insert(k, k);
            }
            seed.commit().unwrap();
            let mut txn = store.begin();
            for &k in &keys {
                txn.insert(k, k + 1);
            }
            store.insert(victim, 0).unwrap();
            let err = txn.commit().unwrap_err();
            assert!(
                matches!(err, Error::Conflict(_)),
                "victim {victim}: {err:?}"
            );
            assert_eq!(store.get(victim), Some(0));
            assert!(
                keys.iter().all(|&k| k == victim || store.get(k) == Some(k)),
                "victim {victim}: the conflicting commit applied something"
            );
        }
    }

    #[test]
    fn a_write_set_of_never_written_keys_commits() {
        let store = small_leaf_store();
        // Every write-set key's neighbours exist, and one of them commits
        // after the snapshot: neither is a conflict.
        for k in (0..600).step_by(3) {
            store.insert(k, k).unwrap();
        }
        let mut txn = store.begin();
        let keys: Vec<u64> = (1..600).step_by(3).collect();
        assert_eq!(keys.len(), 200);
        for &k in &keys {
            txn.insert(k, 7);
        }
        store.insert(0, 99).unwrap();
        txn.commit().unwrap();
        assert!(keys.iter().all(|&k| store.get(k) == Some(7)));
        assert_eq!(store.len(), 400);
    }

    #[test]
    fn disjoint_writers_both_commit() {
        let store = mem_store(0);
        let mut a = store.begin();
        let mut b = store.begin();
        a.insert(1, 100);
        b.insert(2, 200);
        a.commit().unwrap();
        b.commit().unwrap();
        assert_eq!(store.scan(..), vec![(1, 100), (2, 200)]);
    }

    #[test]
    fn blind_write_conflicts_too() {
        // FCW is about write sets, not read-modify-write: two blind
        // writers of the same key still conflict.
        let store = mem_store(0);
        let mut a = store.begin();
        let mut b = store.begin();
        a.insert(9, 1);
        b.insert(9, 2);
        b.commit().unwrap();
        assert!(matches!(a.commit(), Err(Error::Conflict(_))));
        assert_eq!(store.get(9), Some(2));
    }

    #[test]
    fn abort_leaves_no_trace() {
        let store = mem_store(0);
        store.insert(5, 50).unwrap();
        let mut txn = store.begin();
        txn.insert(5, 51);
        txn.insert(6, 60);
        txn.abort();
        assert_eq!(store.get(5), Some(50));
        assert_eq!(store.get(6), None);
        // And the next writer sees no conflict from the aborted intents.
        let mut txn = store.begin();
        txn.insert(5, 52);
        txn.commit().unwrap();
        assert_eq!(store.get(5), Some(52));
    }

    #[test]
    fn commit_groups_recover_atomically() {
        let storage = Arc::new(MemStorage::new());
        let dynstorage = Arc::clone(&storage) as Arc<dyn Storage>;
        let (store, _) = TxnStore::<u64, u64>::open(
            dynstorage,
            TxnConfig::default().with_durability(DurabilityConfig::buffered()),
        )
        .unwrap();
        let mut txn = store.begin();
        txn.insert(1, 10);
        txn.insert(2, 20);
        txn.insert(3, 30);
        txn.commit().unwrap();
        store.commit_all().unwrap();
        drop(store);
        let (again, report) = TxnStore::<u64, u64>::open(
            Arc::new(storage.crash_durable_only()) as Arc<dyn Storage>,
            TxnConfig::default(),
        )
        .unwrap();
        assert_eq!(report.tail_records, 3);
        assert_eq!(again.scan(..), vec![(1, 10), (2, 20), (3, 30)]);
        assert_eq!(again.len(), 3);
    }

    #[test]
    fn torn_commit_group_replays_nothing() {
        let storage = Arc::new(MemStorage::new());
        let dynstorage = Arc::clone(&storage) as Arc<dyn Storage>;
        let (store, _) = TxnStore::<u64, u64>::open(
            dynstorage,
            TxnConfig::default().with_durability(DurabilityConfig::buffered()),
        )
        .unwrap();
        store.insert(1, 10).unwrap();
        store.commit_all().unwrap();
        let durable_after_first = storage.total_appended();
        let mut txn = store.begin();
        txn.insert(2, 20);
        txn.insert(3, 30);
        txn.commit().unwrap();
        store.commit_all().unwrap();
        let full = storage.total_appended();
        // Cut at every byte boundary inside the second commit's frame: it
        // must be all (only at the very end) or nothing.
        for keep in durable_after_first..full {
            let (again, _) = TxnStore::<u64, u64>::open(
                Arc::new(storage.crash(keep)) as Arc<dyn Storage>,
                TxnConfig::default(),
            )
            .unwrap();
            let got = again.scan(..);
            assert!(
                got == vec![(1, 10)] || got == vec![(1, 10), (2, 20), (3, 30)],
                "cut at {keep}: partial transaction surfaced: {got:?}"
            );
        }
    }

    #[test]
    fn checkpoint_then_reopen_preserves_timestamps_for_fcw() {
        let storage = Arc::new(MemStorage::new());
        let dynstorage = Arc::clone(&storage) as Arc<dyn Storage>;
        let (store, _) = TxnStore::<u64, u64>::open(
            dynstorage,
            TxnConfig::default().with_durability(DurabilityConfig::buffered()),
        )
        .unwrap();
        for k in 0..100u64 {
            store.insert(k, k * 2).unwrap();
        }
        store.delete(50).unwrap();
        store.checkpoint().unwrap();
        store.insert(200, 1).unwrap();
        store.commit_all().unwrap();
        drop(store);
        let (again, report) = TxnStore::<u64, u64>::open(
            Arc::new(storage.crash_durable_only()) as Arc<dyn Storage>,
            TxnConfig::default(),
        )
        .unwrap();
        assert_eq!(report.snapshot_entries, 99);
        assert_eq!(report.tail_records, 1);
        assert_eq!(again.len(), 100);
        assert_eq!(again.get(50), None);
        assert_eq!(again.get(200), Some(1));
        // The clock resumed past every recovered timestamp: a fresh
        // write must get a strictly newer commit ts than anything
        // recovered (checked by MvccTree's timestamp-order debug assert
        // and the consistency check).
        again.insert(0, 999).unwrap();
        again.mvcc().check_consistency().unwrap();
    }

    #[test]
    fn gc_respects_oldest_live_snapshot() {
        let store = mem_store(0);
        store.insert(1, 10).unwrap();
        let old_reader = store.begin();
        store.insert(1, 11).unwrap();
        store.insert(1, 12).unwrap();
        // The old reader pins the watermark at its snapshot: the single
        // watermark is conservative, so everything the old reader can
        // (or later versions any reader could) reach survives.
        let reclaimed = store.gc();
        assert_eq!(reclaimed, 0);
        assert_eq!(old_reader.get(1), Some(10));
        drop(old_reader);
        // Watermark now advances to the visible frontier: versions 10
        // and 11 are unreachable by any future snapshot.
        let reclaimed = store.gc();
        assert_eq!(reclaimed, 2);
        assert_eq!(store.get(1), Some(12));
    }

    #[test]
    fn threshold_gc_fires_on_cadence() {
        let store = mem_store(4);
        for i in 0..20u64 {
            store.insert(1, i).unwrap();
        }
        assert!(
            store.txn_stats().gc_reclaimed >= 12,
            "periodic GC should have pruned most of the 20-version chain, got {}",
            store.txn_stats().gc_reclaimed
        );
    }

    #[test]
    fn plain_durable_wal_is_rejected() {
        use crate::durable::{concurrent_builder, Durable};
        let storage = Arc::new(MemStorage::new());
        {
            let dynstorage = Arc::clone(&storage) as Arc<dyn Storage>;
            let (durable, _) = Durable::open(
                dynstorage,
                DurabilityConfig::buffered(),
                concurrent_builder::<u64, u64>(TreeConfig::paper_default()),
            )
            .unwrap();
            durable.insert_shared(1, 10);
            durable.insert_shared(2, 20);
            durable.delete_shared(1);
            durable.commit_all().unwrap();
        }
        // A non-transactional log under a transactional open is refused at
        // its first record — not replayed, not silently skipped.
        let err = match TxnStore::<u64, u64>::open(
            Arc::new(storage.crash_durable_only()) as Arc<dyn Storage>,
            TxnConfig::default(),
        ) {
            Err(err) => err,
            Ok(_) => panic!("a plain Durable log must be rejected"),
        };
        assert_eq!(err.kind(), "wal");
        assert!(err.to_string().contains("LSN 1"), "{err}");
    }

    #[test]
    fn transactional_wal_is_rejected_by_plain_open() {
        use crate::durable::{concurrent_builder, Durable};
        use quit_core::{BpTree, FastPathMode, StorageKind, TreeConfig};
        let storage = Arc::new(MemStorage::new());
        {
            let (store, _) = TxnStore::<u64, u64>::open(
                storage.clone() as Arc<dyn Storage>,
                TxnConfig::default(),
            )
            .unwrap();
            store.insert(1, 10).unwrap();
            store.insert(2, 20).unwrap();
        }
        // The mirror of the case above: a plain open of a transactional log
        // is refused at its first record — not recovered empty, and never
        // appended to.
        let crashed = Arc::new(storage.crash_durable_only());
        let before = crashed.total_appended();
        let plain = Durable::open(
            crashed.clone() as Arc<dyn Storage>,
            DurabilityConfig::group_commit(),
            concurrent_builder::<u64, u64>(TreeConfig::paper_default()),
        )
        .map(drop);
        let paged = Durable::<BpTree<u64, u64>>::open_paged(
            crashed.clone() as Arc<dyn Storage>,
            DurabilityConfig::group_commit(),
            FastPathMode::Pole,
            TreeConfig::small(16).with_storage(StorageKind::paged(8)),
        )
        .map(drop);
        for err in [plain.unwrap_err(), paged.unwrap_err()] {
            assert_eq!(err.kind(), "wal");
            assert!(err.to_string().contains("LSN 1"), "{err}");
        }
        assert_eq!(crashed.total_appended(), before);
    }

    #[test]
    fn a_commit_larger_than_one_mib_is_whole_or_absent() {
        // What `Quit::insert_batch` issues for a 200 000-entry batch: one
        // transaction, one ~3.4 MB frame (the old payload bound was 1 MiB).
        const N: u64 = 200_000;
        let storage = Arc::new(MemStorage::new());
        let (store, _) = TxnStore::<u64, u64>::open(
            storage.clone() as Arc<dyn Storage>,
            TxnConfig::default().with_durability(DurabilityConfig::buffered()),
        )
        .unwrap();
        let mut txn = store.begin();
        for k in 0..N {
            txn.insert(k, k + 1);
        }
        txn.commit().unwrap();
        store.flush().unwrap();
        let frame = 29 + 17 * N as usize;
        let total = storage.total_appended();
        assert_eq!(total, 34 + frame, "segment header + one commit frame");

        let reopen = |image: MemStorage| {
            let (store, report) = TxnStore::<u64, u64>::open(
                Arc::new(image) as Arc<dyn Storage>,
                TxnConfig::default(),
            )
            .unwrap();
            (store.len() as u64, report.tail_records as u64)
        };
        // Written but not yet fsynced: a crash may cut anywhere inside it.
        for keep in [total - frame + 1, total - frame / 2, total - 1] {
            assert_eq!(reopen(storage.crash(keep)), (0, 0), "cut at byte {keep}");
        }
        store.commit_all().unwrap();
        assert_eq!(reopen(storage.crash_durable_only()), (N, N));
    }
}
