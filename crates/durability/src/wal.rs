//! The segmented write-ahead log: LSN assignment, buffered appends,
//! group-commit fsync batching, segment rotation, and the recovery scan.
//!
//! ## Segment layout
//!
//! Segments are `wal-….log` files (DESIGN.md, "Directory layout"): a
//! header with the words `(generation, seq, start_lsn)`, then CRC32 frames
//! (see [`crate::frame`]). `generation` bumps on every checkpoint, so
//! stale segments from before a snapshot are recognizable by name *and*
//! by header even if pruning was interrupted.
//! `start_lsn` is the LSN of the segment's first record; recovery uses it
//! to decide whether a later segment legitimately continues the log after
//! a torn tail (a fresh segment opened by a recovered process) or is
//! unreachable garbage.
//!
//! ## Group commit
//!
//! Writers append under one mutex (LSN assignment + frame encoding +
//! buffered write), then [`Wal::commit`] waits until their LSN is durable.
//! The first committer to find no leader running becomes the leader: it
//! flushes the buffer, *releases the lock*, issues one fsync for everything
//! flushed so far, then advances the durable watermark and wakes the group.
//! Writers that arrive mid-fsync enqueue and are picked up by the next
//! leader — one fsync per group, not per record, which is what lets the
//! durable ingest path keep up with `ConcurrentTree`'s OLC write path.
//!
//! On a fast device the leader's own bookkeeping is most of a commit, so
//! it does none it need not: a lone committer wakes nobody (the leader
//! notifies only when a follower is counted as parked), the active
//! segment's name is formatted once per segment, and the append buffer
//! keeps its capacity from one flush to the next.
//!
//! ## Open runs
//!
//! Inserts are logged as runs, not records. The last frame in the append
//! buffer stays *open* while it is an insert frame, and every
//! `append_inserts` extends it instead of starting a frame, so the inserts
//! appended between two flushes share one run frame however many calls
//! brought them (see [`crate::frame`]). The run is sealed — its count,
//! `len` and CRC final — in `flush_locked`, so at every flush: the buffer
//! filling, a group-commit leader, a segment rotation and a checkpoint;
//! and before any other frame is appended (a delete, a commit, anything
//! [`Wal::append`] writes). An acknowledged entry never sits in an open
//! run: an ack is a commit, a commit flushes, and a flush seals before it
//! fsyncs. A caller that commits after every append therefore writes the
//! same frames as one that had no open run: one insert record, or one run
//! frame per batch.
//!
//! ## Failure poisoning
//!
//! A storage `append` that fails may have landed a partial copy of its
//! frames; a storage `fsync` that fails may have silently dropped dirty
//! pages (retrying an fsync after a failure can succeed without the data
//! being durable). Either way the segment can no longer be trusted to
//! carry a contiguous, durable LSN chain, so the WAL **poisons** itself:
//! the pending frames stay in the buffer (a failed flush consumes nothing,
//! so the LSN sequence never gains a gap), and every subsequent `append`,
//! `flush` or `commit` — from *any* thread — fails with an error instead
//! of acking records that recovery could never replay.

use crate::durable::{DurabilityConfig, DurabilityLevel};
use crate::files::{self, Kind};
use crate::frame::{decode_frame, FrameBuffer, FrameStep, Logged, WalCodec};
use crate::storage::Storage;
use crate::WalOp;
use quit_core::{Error, MetricsRegistry, Result};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};

/// Log sequence number: 1-based, dense, strictly increasing. 0 means
/// "nothing logged yet".
pub type Lsn = u64;

struct WalState {
    /// Encoded frames not yet handed to storage, the last of them perhaps
    /// an open run.
    pending: FrameBuffer,
    /// Records inside `pending`.
    pending_records: u64,
    /// Next LSN to assign.
    next_lsn: Lsn,
    /// Highest LSN whose frame reached storage (flushed, maybe unsynced).
    written_lsn: Lsn,
    /// Highest LSN guaranteed durable (covered by an fsync).
    durable_lsn: Lsn,
    /// Records flushed to storage but not yet covered by an fsync.
    unsynced_records: u64,
    /// True while some thread is the group-commit leader (fsyncing outside
    /// the lock).
    leader_active: bool,
    /// Committers parked on `durable_cv`. A leader wakes the group only
    /// when this is non-zero: a futex wake with nobody parked still costs
    /// a syscall, which a lone committer would otherwise pay every time.
    waiters: usize,
    generation: u64,
    seg_seq: u64,
    /// Segment `(generation, seg_seq)`'s name, formatted once per segment;
    /// the leader clones it for its unlocked fsync.
    seg_name: Arc<str>,
    /// Whether the current `(generation, seg_seq)` segment has its header
    /// written.
    seg_open: bool,
    /// Bytes written to the current segment.
    seg_bytes: usize,
    /// Set after a storage append/fsync failure: the log can no longer
    /// prove a contiguous durable LSN chain, so every further operation
    /// fails (see the module docs).
    poisoned: bool,
}

impl WalState {
    /// Makes `(generation, seq)` the active segment, its header not yet
    /// written.
    fn switch_segment(&mut self, generation: u64, seq: u64) {
        self.generation = generation;
        self.seg_seq = seq;
        self.seg_name = files::name(Kind::Wal, generation, seq).into();
        self.seg_open = false;
        self.seg_bytes = 0;
    }
}

fn poison_err() -> Error {
    Error::Poisoned
}

/// The segmented, group-committing write-ahead log.
///
/// All methods take `&self`; internal state lives behind one mutex, and
/// fsyncs happen outside it (group commit). Construction goes through
/// [`crate::Durable::open`], which recovers existing state first.
pub struct Wal {
    storage: Arc<dyn Storage>,
    /// Rotate to a new segment once the current one exceeds this many
    /// bytes ([`DurabilityConfig::segment_bytes`]).
    segment_bytes: usize,
    /// Flush the append buffer to storage once it exceeds this many bytes
    /// (0 = write-through; [`DurabilityConfig::wal_buffer_bytes`]).
    /// Buffered bytes are lost on crash until a flush; flushed-but-unsynced
    /// bytes are lost until an fsync.
    buffer_bytes: usize,
    state: Mutex<WalState>,
    durable_cv: Condvar,
    metrics: MetricsRegistry,
}

impl Wal {
    /// A WAL resuming at `next_lsn` on `generation`, writing its next
    /// segment as `seq` (no segment is opened until the first append),
    /// sized by `config`'s segment and buffer bytes.
    pub(crate) fn resume(
        storage: Arc<dyn Storage>,
        config: &DurabilityConfig,
        generation: u64,
        seq: u64,
        next_lsn: Lsn,
    ) -> Self {
        Wal {
            storage,
            segment_bytes: config.segment_bytes,
            buffer_bytes: config.wal_buffer_bytes,
            state: Mutex::new(WalState {
                pending: FrameBuffer::default(),
                pending_records: 0,
                next_lsn,
                written_lsn: next_lsn - 1,
                durable_lsn: next_lsn - 1,
                unsynced_records: 0,
                leader_active: false,
                waiters: 0,
                generation,
                seg_seq: seq,
                seg_name: files::name(Kind::Wal, generation, seq).into(),
                seg_open: false,
                seg_bytes: 0,
                poisoned: false,
            }),
            durable_cv: Condvar::new(),
            metrics: MetricsRegistry::default(),
        }
    }

    /// WAL-side metrics (`wal_appends`, `wal_fsyncs`, group-size and
    /// recovery histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Highest LSN assigned so far (0 before the first append).
    pub fn last_lsn(&self) -> Lsn {
        self.state.lock().unwrap().next_lsn - 1
    }

    /// Highest LSN guaranteed durable.
    pub fn durable_lsn(&self) -> Lsn {
        self.state.lock().unwrap().durable_lsn
    }

    /// Appends `ops` as consecutive LSNs into the buffer, returning the
    /// last LSN assigned. Does *not* make them durable — pair with
    /// [`commit`](Self::commit) (group commit) or rely on buffer flushes
    /// (`Buffered` level). Empty `ops` returns the current last LSN.
    pub fn append<K: WalCodec, V: WalCodec>(&self, ops: &[WalOp<K, V>]) -> Result<Lsn> {
        self.append_frames(ops.len() as u64, |first, out| {
            for (op, lsn) in ops.iter().zip(first..) {
                out.push_op(lsn, op);
            }
        })
    }

    /// Appends frames for `records` consecutive LSNs under one hold of the
    /// state lock: `encode` is handed the first LSN and the buffer and must
    /// frame exactly that many LSNs (a run frame takes one per entry).
    fn append_frames(
        &self,
        records: u64,
        encode: impl FnOnce(Lsn, &mut FrameBuffer),
    ) -> Result<Lsn> {
        let mut st = self.state.lock().unwrap();
        if st.poisoned {
            return Err(poison_err());
        }
        encode(st.next_lsn, &mut st.pending);
        st.next_lsn += records;
        st.pending_records += records;
        self.metrics.counters.wal_appends.add_shared(records);
        if st.pending.len() >= self.buffer_bytes.max(1) {
            self.flush_locked(&mut st)?;
        }
        Ok(st.next_lsn - 1)
    }

    /// Appends the borrowed pairs as inserts at consecutive LSNs, in slice
    /// order, into the open run (see the module docs): sealed, it is one
    /// run frame for two or more entries (see [`crate::frame`]) and a plain
    /// `Insert` record for one. The by-reference twin of
    /// [`append`](Self::append) for a batch, which would otherwise be
    /// copied into `WalOp`s — and framed and checksummed once per entry —
    /// just to be logged.
    pub(crate) fn append_inserts<K: WalCodec, V: WalCodec>(
        &self,
        entries: &[(K, V)],
    ) -> Result<Lsn> {
        self.append_frames(entries.len() as u64, |first, out| {
            out.push_inserts(first, entries)
        })
    }

    /// Appends one transaction's borrowed write set as a single
    /// [`WalOp::Commit`] frame.
    pub(crate) fn append_commit<K: WalCodec, V: WalCodec>(
        &self,
        commit_ts: u64,
        writes: &[(K, Option<V>)],
    ) -> Result<Lsn> {
        self.append_frames(1, |lsn, out| out.push_commit(lsn, commit_ts, writes))
    }

    /// Runs `append` as `level` prescribes, without waiting for durability:
    /// not at all at `Off`, and only `GroupCommit` hands its LSN on for
    /// [`ack`](Self::ack) to wait on.
    pub(crate) fn log(
        &self,
        level: DurabilityLevel,
        append: impl FnOnce(&Self) -> Result<Lsn>,
    ) -> Result<Option<Lsn>> {
        match level {
            DurabilityLevel::Off => Ok(None),
            DurabilityLevel::Buffered => append(self).map(|_| None),
            DurabilityLevel::GroupCommit => append(self).map(Some),
        }
    }

    /// Blocks until what [`log`](Self::log) returned is fsync-durable (a
    /// no-op for `None`).
    pub(crate) fn ack(&self, lsn: Option<Lsn>) -> Result<()> {
        lsn.map_or(Ok(()), |lsn| self.commit(lsn))
    }

    /// Blocks until everything logged so far is fsync-durable — the
    /// explicit durability point for the `Buffered` level, and a no-op at
    /// `Off`, where nothing is ever logged.
    pub(crate) fn commit_all(&self) -> Result<()> {
        self.commit(self.last_lsn())
    }

    /// Seals the open run and pushes buffered frames to storage (still not
    /// fsynced).
    pub fn flush(&self) -> Result<()> {
        let mut st = self.state.lock().unwrap();
        self.flush_locked(&mut st)
    }

    /// Blocks until `lsn` is durable, becoming the group-commit leader if
    /// none is running: flush, one fsync for the whole group, wake whoever
    /// parked. An `lsn` past [`last_lsn`](Self::last_lsn) is an error: no
    /// fsync could ever make it durable.
    pub fn commit(&self, lsn: Lsn) -> Result<()> {
        let mut st = self.state.lock().unwrap();
        if lsn >= st.next_lsn {
            return Err(Error::wal(format!(
                "commit of LSN {lsn}, but the last LSN assigned is {}",
                st.next_lsn - 1
            )));
        }
        while st.durable_lsn < lsn {
            if st.poisoned {
                // Without this, waiters would park forever: a poisoned
                // log's durable watermark never advances again.
                return Err(poison_err());
            }
            if st.leader_active {
                // A leader's fsync is in flight; it (or the next leader)
                // will cover us. Wait for the watermark to move.
                st.waiters += 1;
                st = self.durable_cv.wait(st).unwrap();
                st.waiters -= 1;
                continue;
            }
            st.leader_active = true;
            let flushed = self.flush_locked(&mut st);
            let target = st.written_lsn;
            let group = st.unsynced_records;
            let seg = st.seg_open.then(|| st.seg_name.clone());
            drop(st);

            // One fsync for every record flushed so far — the group.
            let synced = flushed.and_then(|()| match &seg {
                Some(seg) => self.storage.sync(seg).map_err(Error::from),
                None => Ok(()),
            });

            let mut st2 = self.state.lock().unwrap();
            st2.leader_active = false;
            if synced.is_ok() {
                if target > st2.durable_lsn {
                    st2.durable_lsn = target;
                }
                st2.unsynced_records = st2.unsynced_records.saturating_sub(group);
                self.metrics.counters.wal_fsyncs.bump_shared();
                if group > 0 {
                    // Log2 histogram of records per fsync (not a latency).
                    self.metrics.group_commit_size.record_ns(group);
                }
            } else {
                // A failed fsync may have dropped dirty pages without
                // making them durable; retrying can "succeed" while the
                // data is gone. Poison so no writer ever acks past this.
                st2.poisoned = true;
            }
            // Every waiter counted here parked under this lock, so none
            // can miss the wake; a committer that arrives later finds no
            // leader and leads itself.
            if st2.waiters > 0 {
                self.durable_cv.notify_all();
            }
            synced?;
            st = st2;
        }
        Ok(())
    }

    /// Seals the open run and flushes pending frames into the active
    /// segment, opening/rotating segments as needed. Frames never span
    /// segments: rotation happens between flushes, and one flush lands in
    /// one segment.
    fn flush_locked(&self, st: &mut WalState) -> Result<()> {
        if st.poisoned {
            return Err(poison_err());
        }
        if st.pending.is_empty() {
            return Ok(());
        }
        // Rotate a full segment before this batch (sync it first so the
        // durable watermark can never point past an unsynced old segment).
        if st.seg_open && st.seg_bytes >= self.segment_bytes {
            if let Err(e) = self.storage.sync(&st.seg_name) {
                st.poisoned = true;
                return Err(e.into());
            }
            st.switch_segment(st.generation, st.seg_seq + 1);
        }
        if !st.seg_open {
            let words = [st.generation, st.seg_seq, st.written_lsn + 1];
            let header = files::header(Kind::Wal, words);
            if let Err(e) = self.storage.append(&st.seg_name, &header) {
                // The segment may hold a partial header; nothing from
                // `pending` was consumed, but the file is no longer
                // trustworthy — poison rather than write frames behind a
                // torn header that recovery would discard.
                st.poisoned = true;
                return Err(e.into());
            }
            st.seg_open = true;
            st.seg_bytes = header.len();
        }
        if let Err(e) = self.storage.append(&st.seg_name, st.pending.sealed()) {
            // The segment may now hold a partial copy of these frames.
            // They stay in `pending`, so the assigned LSNs are never
            // dropped (no gap); poison, because re-appending after partial
            // garbage would put the frames behind a torn tail where
            // recovery's same-segment scan can never reach them.
            st.poisoned = true;
            return Err(e.into());
        }
        st.seg_bytes += st.pending.len();
        st.pending.clear();
        st.written_lsn = st.next_lsn - 1;
        st.unsynced_records += st.pending_records;
        st.pending_records = 0;
        Ok(())
    }

    /// Checkpoint: makes the log durable, streams `entries` (sorted, `len`
    /// of them) into the generation-`g+1` snapshot at the current last
    /// LSN, switches segment writing to generation `g+1`, and (optionally)
    /// prunes everything the snapshot supersedes. Caller must pass the
    /// tree's full contents in key order and must be externally
    /// synchronized (no concurrent appends) — `Durable::checkpoint` takes
    /// `&mut self` for exactly this.
    pub(crate) fn checkpoint<K: WalCodec, V: WalCodec>(
        &self,
        entries: impl IntoIterator<Item = (K, V)>,
        len: usize,
        chunk_entries: usize,
        prune: bool,
    ) -> Result<()> {
        self.checkpoint_with(prune, |storage, generation, lsn| {
            crate::snapshot::write_snapshot(storage, generation, lsn, entries, len, chunk_entries)
                .map_err(Into::into)
        })
    }

    /// The checkpoint protocol with the snapshot format abstracted out:
    /// makes the log durable, calls `write_snapshot(storage, g+1, lsn)` to
    /// publish the new generation's snapshot in whatever format the caller
    /// uses (sorted entries or a paged image), switches segment writing to
    /// generation `g+1`, and optionally prunes every file
    /// [`files::superseded`] names.
    pub(crate) fn checkpoint_with(
        &self,
        prune: bool,
        write_snapshot: impl FnOnce(&dyn Storage, u64, Lsn) -> Result<()>,
    ) -> Result<()> {
        let mut st = self.state.lock().unwrap();
        self.flush_locked(&mut st)?;
        if st.seg_open {
            if let Err(e) = self.storage.sync(&st.seg_name) {
                st.poisoned = true;
                return Err(e.into());
            }
        }
        st.durable_lsn = st.written_lsn;
        st.unsynced_records = 0;
        let snapshot_lsn = st.next_lsn - 1;
        let new_generation = st.generation + 1;
        write_snapshot(&*self.storage, new_generation, snapshot_lsn)?;
        st.switch_segment(new_generation, 0);
        if prune {
            for name in self.storage.list()? {
                if files::superseded(&name, new_generation) {
                    self.storage.remove(&name)?;
                }
            }
        }
        Ok(())
    }
}

/// What the recovery scan found in the WAL segments.
pub(crate) struct WalScan<K, V> {
    /// Every segment that holds tail frames, as read, with where those
    /// frames lie in it; [`tail`](Self::tail) reads them there.
    segments: Vec<(Vec<u8>, Range<usize>)>,
    /// The snapshot's LSN: frames at or below it are not tail.
    snapshot_lsn: Lsn,
    /// Last LSN recovered (== snapshot LSN if the tail is empty).
    pub last_lsn: Lsn,
    /// True if a torn/corrupt frame or segment cut the scan short.
    pub torn: bool,
    /// Segments that contributed nothing (fully covered by the snapshot,
    /// or unreadable).
    pub stale_segments: usize,
    /// Generation to resume on (max seen anywhere, snapshot included).
    pub resume_generation: u64,
    /// Next segment seq to write on `resume_generation`.
    pub resume_seq: u64,
    kv: PhantomData<fn() -> (K, V)>,
}

impl<K: WalCodec, V: WalCodec> WalScan<K, V> {
    /// The replayable tail: each frame past the snapshot with its (first)
    /// LSN, the LSNs contiguous from `snapshot_lsn + 1`, read where it lies
    /// in the segment's bytes.
    pub(crate) fn tail(&self) -> Tail<'_, K, V> {
        Tail {
            segments: self.segments.iter(),
            frames: &[],
            snapshot_lsn: self.snapshot_lsn,
            kv: PhantomData,
        }
    }
}

/// [`WalScan::tail`]: the frames the scan checked, read again by
/// [`decode_frame`] with its checks off.
pub(crate) struct Tail<'a, K, V> {
    segments: std::slice::Iter<'a, (Vec<u8>, Range<usize>)>,
    /// The current segment's tail frames not yet walked.
    frames: &'a [u8],
    snapshot_lsn: Lsn,
    kv: PhantomData<fn() -> (K, V)>,
}

impl<'a, K: WalCodec, V: WalCodec> Iterator for Tail<'a, K, V> {
    type Item = (Lsn, Logged<'a, K, V>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.frames.is_empty() {
                let (bytes, frames) = self.segments.next()?;
                self.frames = &bytes[frames.clone()];
                continue;
            }
            let FrameStep::Record { lsn, logged, next } = decode_frame(self.frames, 0, false)
            else {
                unreachable!("the scan accepted every tail frame");
            };
            self.frames = &self.frames[next..];
            if lsn.saturating_add(logged.lsns() - 1) > self.snapshot_lsn {
                return Some((lsn, logged));
            }
        }
    }
}

/// Scans every WAL segment in `(generation, seq)` order, replay-validating
/// LSN continuity from `snapshot_lsn` (a run frame advances it by its entry
/// count) and checking every frame's CRC. Torn tails stop the scan — except
/// that a *later* segment whose header says it starts at exactly the next
/// expected LSN resumes it (that is what a recovered process's fresh
/// segment looks like when the pre-crash segment kept a torn tail). The
/// segments that hold tail frames are kept as read, so that
/// [`WalScan::tail`] can hand each frame out where it lies.
pub(crate) fn scan_wal<K: WalCodec, V: WalCodec>(
    storage: &dyn Storage,
    snapshot_lsn: Lsn,
    snapshot_generation: u64,
) -> Result<WalScan<K, V>> {
    let segments = files::list(storage, Kind::Wal)?;
    let mut scan = WalScan {
        segments: Vec::new(),
        snapshot_lsn,
        last_lsn: snapshot_lsn,
        torn: false,
        stale_segments: 0,
        resume_generation: snapshot_generation,
        resume_seq: 0,
        kv: PhantomData,
    };

    for &(generation, seq, ref name) in &segments {
        // Track where fresh segments should resume regardless of validity.
        match generation.cmp(&scan.resume_generation) {
            std::cmp::Ordering::Greater => {
                scan.resume_generation = generation;
                scan.resume_seq = seq + 1;
            }
            std::cmp::Ordering::Equal => scan.resume_seq = scan.resume_seq.max(seq + 1),
            std::cmp::Ordering::Less => {}
        }

        let bytes = storage.read(name)?;
        let Some([h_generation, h_seq, start_lsn]) = files::read_header(Kind::Wal, &bytes) else {
            // Unreadable header: nothing in this segment is trustworthy.
            scan.torn = true;
            scan.stale_segments += 1;
            continue;
        };
        if (h_generation, h_seq) != (generation, seq) {
            scan.torn = true;
            scan.stale_segments += 1;
            continue;
        }
        if scan.torn && start_lsn != scan.last_lsn + 1 {
            // Past a torn tail, only a segment that explicitly continues
            // the recovered LSN chain may extend the log.
            scan.stale_segments += 1;
            continue;
        }
        if start_lsn > scan.last_lsn + 1 {
            // A gap means a whole segment vanished: stop here.
            scan.torn = true;
            scan.stale_segments += 1;
            continue;
        }
        let mut pos = files::HEADER;
        // Where this segment's tail frames start and end.
        let mut tail: Option<Range<usize>> = None;
        loop {
            match decode_frame::<K, V>(&bytes, pos, true) {
                FrameStep::End => break,
                FrameStep::Torn => {
                    scan.torn = true;
                    break;
                }
                FrameStep::Invalid { lsn, kind } => {
                    return Err(Error::corruption(format!(
                        "{name}: the record at LSN {lsn} has a valid CRC but kind {kind} is \
                         unknown or its body does not fit — the log was written in another \
                         format or with other key/value widths"
                    )));
                }
                FrameStep::Record { lsn, logged, next } => {
                    let at = std::mem::replace(&mut pos, next);
                    let last = lsn.saturating_add(logged.lsns() - 1);
                    if last <= snapshot_lsn {
                        // Covered by the snapshot (stale segment surviving
                        // an interrupted prune).
                        continue;
                    }
                    if lsn <= snapshot_lsn {
                        // A checkpoint cuts the log between frames, so no
                        // intact frame can hold LSNs on both sides of it.
                        return Err(Error::corruption(format!(
                            "{name}: the run at LSN {lsn} covers LSNs {lsn}..={last}, across \
                             the snapshot's LSN {snapshot_lsn}"
                        )));
                    }
                    if lsn != scan.last_lsn + 1 {
                        scan.torn = true;
                        break;
                    }
                    scan.last_lsn = last;
                    tail.get_or_insert(at..next).end = next;
                }
            }
        }
        match tail {
            Some(frames) => scan.segments.push((bytes, frames)),
            None => scan.stale_segments += 1,
        }
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Owned;
    use crate::storage::MemStorage;
    use std::io;

    fn mem() -> Arc<MemStorage> {
        Arc::new(MemStorage::new())
    }

    fn wal(storage: Arc<MemStorage>, config: &DurabilityConfig) -> Wal {
        Wal::resume(storage, config, 0, 0, 1)
    }

    /// Write-through appends into `segment_bytes`-byte segments.
    fn unbuffered(segment_bytes: usize) -> DurabilityConfig {
        DurabilityConfig::default()
            .with_segment_bytes(segment_bytes)
            .with_wal_buffer_bytes(0)
    }

    /// The scanned tail as the ops it replays, a run spelled out as its
    /// inserts.
    fn ops(scan: &WalScan<u64, u64>) -> Vec<WalOp<u64, u64>> {
        let mut ops = Vec::new();
        for (_, logged) in scan.tail() {
            match logged.owned() {
                Owned::Op(op) => ops.push(op),
                Owned::Run(run) => ops.extend(run.into_iter().map(|(k, v)| WalOp::Insert(k, v))),
            }
        }
        ops
    }

    /// The scanned tail's frames, copied out, each with its (first) LSN.
    fn frames(scan: &WalScan<u64, u64>) -> Vec<(Lsn, Owned<u64, u64>)> {
        scan.tail()
            .map(|(lsn, logged)| (lsn, logged.owned()))
            .collect()
    }

    #[test]
    fn append_commit_recover() {
        let storage = mem();
        let w = wal(storage.clone(), &DurabilityConfig::default());
        let lsn = w
            .append::<u64, u64>(&[WalOp::Insert(1, 10), WalOp::Insert(2, 20), WalOp::Delete(1)])
            .unwrap();
        assert_eq!(lsn, 3);
        assert_eq!(w.durable_lsn(), 0);
        w.commit(lsn).unwrap();
        assert_eq!(w.durable_lsn(), 3);

        let crashed = storage.crash_durable_only();
        let scan = scan_wal::<u64, u64>(&crashed, 0, 0).unwrap();
        assert_eq!(scan.last_lsn, 3);
        assert!(!scan.torn);
        assert_eq!(
            ops(&scan),
            vec![WalOp::Insert(1, 10), WalOp::Insert(2, 20), WalOp::Delete(1)]
        );
        let m = w.metrics().snapshot();
        assert_eq!(m.wal_appends, 3);
        assert_eq!(m.wal_fsyncs, 1);
        assert_eq!(m.group_commit_size.count(), 1);
    }

    #[test]
    fn a_run_frame_takes_one_lsn_per_entry() {
        let storage = mem();
        let w = wal(storage.clone(), &DurabilityConfig::default());
        w.append::<u64, u64>(&[WalOp::Insert(1, 10)]).unwrap();
        let run: Vec<(u64, u64)> = (2..=6).map(|k| (k, k * 10)).collect();
        assert_eq!(w.append_inserts(&run).unwrap(), 6);
        assert_eq!(w.append::<u64, u64>(&[WalOp::Delete(3)]).unwrap(), 7);
        w.commit(7).unwrap();
        assert_eq!(w.metrics().snapshot().wal_appends, 7);
        assert_eq!(w.metrics().snapshot().group_commit_size.sum_ns, 7);

        let crashed = storage.crash_durable_only();
        let scan = scan_wal::<u64, u64>(&crashed, 0, 0).unwrap();
        assert_eq!((scan.last_lsn, scan.torn), (7, false));
        assert_eq!(
            frames(&scan),
            vec![
                (1, Owned::Op(WalOp::Insert(1, 10))),
                (2, Owned::Run(run)),
                (7, Owned::Op(WalOp::Delete(3))),
            ]
        );
        // A snapshot at the run's last LSN covers it; one inside it cannot
        // exist, so a frame across it is corruption naming the frame.
        let scan = scan_wal::<u64, u64>(&crashed, 6, 0).unwrap();
        assert_eq!(frames(&scan), vec![(7, Owned::Op(WalOp::Delete(3)))]);
        for inside in 2..6 {
            let err = scan_wal::<u64, u64>(&crashed, inside, 0).err().unwrap();
            assert_eq!(err.kind(), "corruption", "{err}");
            assert!(err.to_string().contains("LSN 2"), "{err}");
        }
    }

    #[test]
    fn uncommitted_tail_is_lost_but_prefix_survives() {
        let storage = mem();
        let w = wal(storage.clone(), &unbuffered(1 << 20));
        w.append::<u64, u64>(&[WalOp::Insert(1, 10)]).unwrap();
        w.commit(1).unwrap();
        w.append::<u64, u64>(&[WalOp::Insert(2, 20)]).unwrap(); // flushed, not synced

        let crashed = storage.crash_durable_only();
        let scan = scan_wal::<u64, u64>(&crashed, 0, 0).unwrap();
        assert_eq!(
            scan.last_lsn, 1,
            "unsynced record must not survive the harshest crash"
        );

        // A mid-frame crash point leaves a torn tail that parses cleanly
        // up to the last intact record.
        let total = storage.total_appended();
        let torn = storage.crash(total - 3);
        let scan = scan_wal::<u64, u64>(&torn, 0, 0).unwrap();
        assert_eq!(scan.last_lsn, 1);
        assert!(scan.torn);
    }

    #[test]
    fn segments_rotate_and_scan_in_order() {
        let storage = mem();
        // Tiny segments force rotation every record or two.
        let w = wal(storage.clone(), &unbuffered(64));
        for k in 0..50u64 {
            let lsn = w.append::<u64, u64>(&[WalOp::Insert(k, k)]).unwrap();
            w.commit(lsn).unwrap();
        }
        let names = storage.list().unwrap();
        assert!(names.len() > 5, "expected many segments, got {names:?}");
        let scan = scan_wal::<u64, u64>(&storage.crash_durable_only(), 0, 0).unwrap();
        assert_eq!(scan.last_lsn, 50);
        assert_eq!(scan.tail().count(), 50);
        assert!(!scan.torn);
        assert_eq!(scan.resume_seq as usize, names.len());
    }

    #[test]
    fn post_crash_segment_resumes_after_torn_tail() {
        // Crash leaves segment 0 with a torn final frame; a recovered
        // process opens segment 1 starting at the next LSN. The second
        // recovery must replay both.
        let storage = mem();
        let w = wal(storage.clone(), &unbuffered(1 << 20));
        w.append::<u64, u64>(&[WalOp::Insert(1, 10)]).unwrap();
        w.commit(1).unwrap();
        w.append::<u64, u64>(&[WalOp::Insert(2, 20)]).unwrap();

        let crashed = Arc::new(storage.crash(storage.total_appended() - 2)); // torn frame
        let scan = scan_wal::<u64, u64>(&*crashed, 0, 0).unwrap();
        assert_eq!(scan.last_lsn, 1);
        assert!(scan.torn);

        // Resume exactly as Durable::open would.
        let w2 = Wal::resume(
            crashed.clone(),
            &unbuffered(1 << 20),
            scan.resume_generation,
            scan.resume_seq,
            scan.last_lsn + 1,
        );
        w2.append::<u64, u64>(&[WalOp::Insert(3, 30)]).unwrap();
        w2.commit(2).unwrap();

        // Second recovery: torn segment 0 plus the fresh segment that
        // continues at LSN 2 — both must replay.
        let scan = scan_wal::<u64, u64>(&crashed.crash_durable_only(), 0, 0).unwrap();
        assert_eq!(scan.last_lsn, 2);
        assert_eq!(ops(&scan), vec![WalOp::Insert(1, 10), WalOp::Insert(3, 30)]);
    }

    /// Delegates to a [`MemStorage`] but fails appends while armed, after
    /// landing *half* the bytes — the partial-write worst case a real
    /// device error produces.
    struct FailingStorage {
        inner: MemStorage,
        fail_appends: std::sync::atomic::AtomicBool,
    }

    impl FailingStorage {
        fn new() -> Self {
            FailingStorage {
                inner: MemStorage::new(),
                fail_appends: std::sync::atomic::AtomicBool::new(false),
            }
        }

        fn arm(&self, on: bool) {
            self.fail_appends
                .store(on, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl Storage for FailingStorage {
        fn append(&self, file: &str, bytes: &[u8]) -> io::Result<()> {
            if self.fail_appends.load(std::sync::atomic::Ordering::SeqCst) {
                let _ = self.inner.append(file, &bytes[..bytes.len() / 2]);
                return Err(io::Error::other("injected append failure"));
            }
            self.inner.append(file, bytes)
        }

        fn sync(&self, file: &str) -> io::Result<()> {
            self.inner.sync(file)
        }

        fn read(&self, file: &str) -> io::Result<Vec<u8>> {
            self.inner.read(file)
        }

        fn list(&self) -> io::Result<Vec<String>> {
            self.inner.list()
        }

        fn remove(&self, file: &str) -> io::Result<()> {
            self.inner.remove(file)
        }

        fn rename(&self, from: &str, to: &str) -> io::Result<()> {
            self.inner.rename(from, to)
        }
    }

    #[test]
    fn failed_append_poisons_instead_of_acking_an_lsn_gap() {
        let storage = Arc::new(FailingStorage::new());
        let w = Wal::resume(
            storage.clone(),
            &unbuffered(1 << 20), // write-through: every append flushes
            0,
            0,
            1,
        );
        w.append::<u64, u64>(&[WalOp::Insert(1, 10)]).unwrap();
        w.commit(1).unwrap();

        // The failing append lands a partial frame, then errors. The WAL
        // must refuse all further work rather than drop the frame's LSN
        // and later ack records recovery can never reach past the gap.
        storage.arm(true);
        assert!(w.append::<u64, u64>(&[WalOp::Insert(2, 20)]).is_err());
        storage.arm(false);
        assert!(
            w.append::<u64, u64>(&[WalOp::Insert(3, 30)]).is_err(),
            "poisoned WAL must reject appends even after the device heals"
        );
        assert!(w.flush().is_err());
        assert!(
            w.commit(2).is_err(),
            "poisoned WAL must never ack LSNs past the failure"
        );
        assert_eq!(w.durable_lsn(), 1, "watermark frozen at the failure");

        // Whatever reached storage recovers to a contiguous prefix: LSN 1
        // plus a torn tail, never a gap.
        let image = storage.inner.crash(usize::MAX);
        let scan = scan_wal::<u64, u64>(&image, 0, 0).unwrap();
        assert_eq!(scan.last_lsn, 1);
        assert_eq!(ops(&scan), vec![WalOp::Insert(1, 10)]);
        assert!(scan.torn, "the partial frame reads as a torn tail");
    }

    #[test]
    fn committing_an_unassigned_lsn_is_an_error_not_an_endless_leader() {
        let w = wal(mem(), &DurabilityConfig::default());
        let last = w.append::<u64, u64>(&[WalOp::Insert(1, 10)]).unwrap();
        let err = w.commit(last + 5).unwrap_err();
        assert_eq!(err.kind(), "wal", "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("LSN 6") && msg.contains("assigned is 1"),
            "{msg}"
        );
        assert_eq!(w.metrics().snapshot().wal_fsyncs, 0, "no leader ran");
        assert_eq!(w.durable_lsn(), 0);
        // The refusal poisons nothing: the assigned LSN still commits.
        w.commit(last).unwrap();
        assert_eq!(w.durable_lsn(), last);
    }

    /// Delegates to a [`MemStorage`], but every `sync` blocks until the test
    /// sends the outcome it should report — a device that holds the leader
    /// mid-fsync for as long as the test needs.
    struct GatedSyncStorage {
        inner: MemStorage,
        outcomes: Mutex<std::sync::mpsc::Receiver<io::Result<()>>>,
    }

    impl Storage for GatedSyncStorage {
        fn append(&self, file: &str, bytes: &[u8]) -> io::Result<()> {
            self.inner.append(file, bytes)
        }

        fn sync(&self, file: &str) -> io::Result<()> {
            let outcome = self.outcomes.lock().unwrap().recv().unwrap();
            outcome.and_then(|()| self.inner.sync(file))
        }

        fn read(&self, file: &str) -> io::Result<Vec<u8>> {
            self.inner.read(file)
        }

        fn list(&self) -> io::Result<Vec<String>> {
            self.inner.list()
        }

        fn remove(&self, file: &str) -> io::Result<()> {
            self.inner.remove(file)
        }

        fn rename(&self, from: &str, to: &str) -> io::Result<()> {
            self.inner.rename(from, to)
        }
    }

    /// Parks a follower behind a leader held mid-fsync, releases the fsync
    /// with `outcome`, and returns `(leader, follower)` results. LSNs 1 and
    /// 2 are appended first, so the leader (committing 1) flushes both and
    /// its fsync covers the follower (committing 2). A follower that is
    /// never woken fails the test instead of hanging it.
    fn park_a_follower_then_sync(
        outcome: io::Result<()>,
    ) -> (Arc<Wal>, Arc<GatedSyncStorage>, Result<()>, Result<()>) {
        let (release, outcomes) = std::sync::mpsc::channel();
        let storage = Arc::new(GatedSyncStorage {
            inner: MemStorage::new(),
            outcomes: Mutex::new(outcomes),
        });
        let w = Arc::new(Wal::resume(
            storage.clone(),
            &DurabilityConfig::default(),
            0,
            0,
            1,
        ));
        w.append::<u64, u64>(&[WalOp::Insert(1, 10), WalOp::Insert(2, 20)])
            .unwrap();
        let poll = |what: &str, done: &dyn Fn(&WalState) -> bool| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while !done(&w.state.lock().unwrap()) {
                assert!(std::time::Instant::now() < deadline, "{what}");
                std::thread::yield_now();
            }
        };
        // Spawned rather than scoped, so that a committer parked for good
        // fails the receive below instead of hanging the test; each is
        // joined once it has reported.
        let (done, results) = std::sync::mpsc::channel();
        let mut committers = Vec::new();
        for (role, lsn) in [("leader", 1), ("follower", 2)] {
            let (w, done) = (w.clone(), done.clone());
            committers.push(std::thread::spawn(move || {
                done.send((role, w.commit(lsn))).unwrap()
            }));
            if role == "leader" {
                poll("the leader never reached its fsync", &|st| st.leader_active);
            }
        }
        poll("the follower never parked", &|st| st.waiters == 1);
        release.send(outcome).unwrap();
        let (mut leader, mut follower) = (None, None);
        for _ in 0..2 {
            let (role, result) = results
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("a parked committer was never woken");
            match role {
                "leader" => leader = Some(result),
                _ => follower = Some(result),
            }
        }
        for committer in committers {
            committer.join().unwrap();
        }
        assert_eq!(w.state.lock().unwrap().waiters, 0);
        (w, storage, leader.unwrap(), follower.unwrap())
    }

    #[test]
    fn a_parked_follower_is_woken_by_the_leader_s_fsync() {
        let (w, storage, leader, follower) = park_a_follower_then_sync(Ok(()));
        leader.unwrap();
        follower.unwrap();
        assert_eq!(w.durable_lsn(), 2, "the follower's LSN is durable");
        assert_eq!(
            w.metrics().snapshot().wal_fsyncs,
            1,
            "one fsync covered both committers"
        );
        let scan = scan_wal::<u64, u64>(&storage.inner.crash_durable_only(), 0, 0).unwrap();
        assert_eq!(scan.last_lsn, 2);
    }

    #[test]
    fn a_parked_follower_is_woken_by_a_failed_fsync_and_poisoned() {
        let (w, _storage, leader, follower) =
            park_a_follower_then_sync(Err(io::Error::other("injected fsync failure")));
        assert_eq!(leader.unwrap_err().kind(), "io");
        assert!(matches!(follower, Err(Error::Poisoned)), "{follower:?}");
        assert_eq!(w.durable_lsn(), 0);
    }

    #[test]
    fn segment_names_follow_rotations_and_checkpoints() {
        let storage = mem();
        // One record per segment: a 34-byte header plus one 33-byte insert
        // frame already exceeds 64 bytes, so every flush rotates.
        let w = wal(storage.clone(), &unbuffered(64));
        let commit_one = |k: u64| {
            let lsn = w.append::<u64, u64>(&[WalOp::Insert(k, k * 10)]).unwrap();
            w.commit(lsn).unwrap();
            lsn
        };
        let before: Vec<u64> = (0..5).collect();
        for &k in &before {
            commit_one(k);
        }
        let entries: Vec<(u64, u64)> = before.iter().map(|&k| (k, k * 10)).collect();
        w.checkpoint(entries.iter().copied(), entries.len(), 2, false)
            .unwrap();
        for k in 5..12 {
            commit_one(k);
        }

        let seg_name = |generation, seq| files::name(Kind::Wal, generation, seq);
        let mut expected: Vec<String> = (0..5).map(|s| seg_name(0, s)).collect();
        expected.extend((0..7).map(|s| seg_name(1, s)));
        expected.push(files::name(Kind::Sorted, 1, 0));
        expected.sort();
        let mut names = storage.list().unwrap();
        names.sort();
        assert_eq!(names, expected);
        assert_eq!(names[0], "snap-00000001.qsnp");
        assert_eq!(names[1], "wal-00000000-00000000.log");

        // Every committed LSN survives the harshest crash: the snapshot
        // covers 1..=5, the generation-1 segments continue at 6.
        let crashed = storage.crash_durable_only();
        let snap = crate::snapshot::tests::read_snapshot::<u64, u64>(
            &crashed.read(&files::name(Kind::Sorted, 1, 0)).unwrap(),
        )
        .unwrap();
        assert_eq!(snap, (1, 5, entries));
        let scan = scan_wal::<u64, u64>(&crashed, 5, 1).unwrap();
        assert_eq!((scan.last_lsn, scan.torn), (12, false));
        assert_eq!(
            ops(&scan),
            (5..12)
                .map(|k| WalOp::Insert(k, k * 10))
                .collect::<Vec<_>>()
        );
        assert_eq!((scan.resume_generation, scan.resume_seq), (1, 7));
        let scan = scan_wal::<u64, u64>(&crashed, 0, 0).unwrap();
        assert_eq!((scan.last_lsn, scan.tail().count()), (12, 12));
    }

    #[test]
    fn group_commit_batches_concurrent_writers() {
        let storage = mem();
        let w = Arc::new(wal(storage, &DurabilityConfig::default()));
        let threads = 8;
        let per = 50u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let w = &w;
                scope.spawn(move || {
                    for i in 0..per {
                        let lsn = w
                            .append::<u64, u64>(&[WalOp::Insert(t * 1000 + i, i)])
                            .unwrap();
                        w.commit(lsn).unwrap();
                    }
                });
            }
        });
        let m = w.metrics().snapshot();
        assert_eq!(m.wal_appends, threads * per);
        assert!(
            m.wal_fsyncs <= threads * per,
            "never more fsyncs than commits"
        );
        assert_eq!(
            m.group_commit_size.sum_ns,
            threads * per,
            "every record is covered by exactly one group"
        );
        assert_eq!(w.durable_lsn(), threads * per);
    }
}
