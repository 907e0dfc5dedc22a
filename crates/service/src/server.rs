//! The sharded TCP server: one `Durable<BpTree>` (and one WAL directory)
//! per shard, one worker thread per shard, and per-connection reader/writer
//! threads gluing the wire protocol to the shard channels.
//!
//! ## Threading model
//!
//! The unit of work between the three kinds of thread is a **burst**, not
//! a request.
//!
//! * **Connection reader** — decodes every whole frame already in its read
//!   buffer, where it lies, and appends each request to the queue of the
//!   shard it belongs to, in submission order. When the buffer holds no
//!   whole frame any more — so the next read may block — it sends each
//!   non-empty queue to its shard as *one* message: everything a client
//!   pipelined in one read costs one channel hop per shard.
//! * **Shard worker** — owns its `Durable<BpTree<u64, u64>>` outright: no
//!   other thread touches the tree, so it is the single-writer QuIT tree,
//!   with the paper's variable split and redistribute, and mutations go
//!   through the `&mut self` [`SortedIndex`] path. It takes a burst, and
//!   whatever other bursts are queued behind it across connections (up to
//!   a bound), and runs their ops in order: consecutive single inserts of
//!   a burst form a run in an [`InsertBatcher`] and reach
//!   `BpTree::insert_batch`, which appends each sorted run to the poℓe
//!   leaf a chunk at a time, exactly as for an embedded caller's batch (an
//!   `InsertBatch` request takes the same path), so a read breaks only its
//!   own shard's run. Every write is logged and applied *without*
//!   waiting; every reply is encoded into its burst's one buffer. Then the
//!   worker waits **once** for the log — one group commit per drain — and
//!   only then hands the buffers to the writers. No reply leaves before
//!   the commit covering it returns: not a write's, and not a read's that
//!   may have seen a write of the same drain. Within a shard, operations
//!   apply in channel order (which is submission order per connection), so
//!   a connection always reads its own writes.
//! * **Connection writer** — drains reply buffers from an mpsc channel
//!   into a `BufWriter`, flushing whenever the channel goes momentarily
//!   empty. Replies to different shards' requests may interleave out of
//!   submission order; the client matches them by id.
//!
//! A request inside one shard — every `Insert`, `Get` and `Delete`, and
//! almost every `Range` — is answered by that shard's worker directly. One
//! that spans shards (`InsertBatch` or `Range` across a boundary, `Stats`)
//! rides the same queues as one op per shard; the parts meet in a small
//! shared aggregate and the last worker to hand its part in sends the
//! merged reply.
//!
//! A WAL failure poisons the shard's log and panics its worker (the same
//! contract as embedded `Durable` use). Every burst the worker held or had
//! queued, and every burst sent to it from then on, answers each of its
//! requests with status `Shutdown` as it is dropped, so no client waits
//! for a reply that will never come; healthy shards keep serving, and
//! [`Server::shutdown`] reports the dead worker as [`Error::Wal`].

use crate::config::ServiceConfig;
use crate::router::{shard_of, shards_overlapping, split_batch, InsertBatcher};
use crate::wire::{
    decode_request, encode_reply, encode_reply_into, read_request, Reply, Request, ServiceStats,
    MAX_RANGE_RESULTS,
};
use quit_core::{BpTree, Error, FastPathMode, Result, SortedIndex};
use quit_durability::{
    bptree_builder, Durable, FsStorage, MemStorage, RecoveryReport, Storage, Unacked,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

type Shard = Durable<BpTree<u64, u64>>;

/// A connection's read buffer, and so the most one burst carries (about
/// 140 `Insert` frames): half of `BufReader`'s default, because a burst is
/// also the least a pipelining client's replies are held back by, and
/// 140 requests already share one channel hop, one commit and one reply
/// write.
const READ_BUF: usize = 4 << 10;

/// A drain stops taking queued bursts once it holds this many bytes of
/// replies. Sharing a drain saves wake-ups, a commit and a write to the
/// socket; past a couple of socket writes' worth of replies (about 1 200
/// `Inserted`s, or one burst's worth of `Range` results) there is little
/// left to share, and every reply in the drain is waiting for its last op.
const DRAIN_REPLY_BYTES: usize = 16 << 10;

/// A range's result vector is allocated for its limit up front, up to this
/// many entries (64 KiB). Grown by doubling instead, a 100-entry result is
/// six reallocations, and what those cost depends on the state of the heap
/// the server's earlier traffic left behind: the same 20 000 ranges took one
/// server 30 ms of worker time and the next one 90.
const RANGE_PRESIZE: usize = 4096;

/// A request that spans shards: every shard's worker hands in its part,
/// and the last one in sends the merged reply.
struct Agg {
    req_id: u64,
    /// A range's result cap (`usize::MAX` for the other requests).
    limit: usize,
    reply: Sender<Vec<u8>>,
    /// Parts still owed, and the reply merged so far — an error from the
    /// first part that failed.
    state: Mutex<(usize, Result<Reply>)>,
}

impl Agg {
    fn done(&self, part: Result<Reply>) {
        // A count and a partial reply, each valid after every statement
        // below: safe to keep using behind a poisoned lock (and this runs
        // in `Burst::drop`, which must not panic).
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (owed, merged) = &mut *state;
        match (&mut *merged, part) {
            (Ok(Reply::BatchInserted { fast }), Ok(Reply::BatchInserted { fast: part })) => {
                *fast += part
            }
            (Ok(Reply::Entries(all)), Ok(Reply::Entries(part))) => all.extend(part),
            (Ok(Reply::Stats(all)), Ok(Reply::Stats(part))) => {
                all.len += part.len;
                all.fast_inserts += part.fast_inserts;
                all.top_inserts += part.top_inserts;
                all.wal_appends += part.wal_appends;
                all.wal_fsyncs += part.wal_fsyncs;
                all.shards += part.shards;
            }
            (Ok(_), Err(e)) => *merged = Err(e),
            // Already failed; and a part is always of its request's kind.
            _ => {}
        }
        *owed -= 1;
        if *owed == 0 {
            if let Ok(Reply::Entries(all)) = merged {
                // Shards own disjoint key ranges, so a stable sort by key
                // is the concatenation in shard order, whichever order the
                // parts arrived in.
                all.sort_by_key(|&(key, _)| key);
                all.truncate(self.limit);
            }
            let _ = self.reply.send(encode_reply(self.req_id, merged));
        }
    }
}

/// One request as one shard sees it. A request that spans shards becomes
/// one op per shard — the same kind of request, cut down to that shard —
/// whose answer is a part of the merged reply.
struct Op {
    req_id: u64,
    req: Request,
    part_of: Option<Arc<Agg>>,
}

/// The one message a shard worker receives: everything one connection read
/// for this shard in one pass over its read buffer, in submission order.
///
/// A burst is answered all at once — [`release`](Self::release) — or, if
/// it is dropped before that (its worker died, or was already gone when it
/// was sent), every op it holds is answered `Shutdown`: each request id
/// gets exactly one reply either way.
struct Burst {
    ops: Vec<Op>,
    reply: Sender<Vec<u8>>,
    /// Reply frames of the ops executed so far, held back until the commit
    /// covering their writes returns.
    held: Vec<u8>,
    /// Parts of requests that span shards, held back likewise.
    parts: Vec<(Arc<Agg>, Reply)>,
}

impl Burst {
    fn new(reply: Sender<Vec<u8>>) -> Self {
        Burst {
            ops: Vec::new(),
            reply,
            held: Vec::new(),
            parts: Vec::new(),
        }
    }

    /// Runs every op in order: consecutive `Insert`s gather in `run` and
    /// reach the tree as one `insert_batch` (any other op, `batch_max` or
    /// the end of the burst closes the run); writes are logged and applied
    /// but not waited for — the caller acks what this returns before it
    /// releases the burst.
    fn execute(&mut self, shard: &mut Shard, run: &mut InsertBatcher) -> Unacked {
        let Burst {
            ops, held, parts, ..
        } = self;
        let mut unacked = Unacked::default();
        for op in ops.iter() {
            if !matches!(op.req, Request::Insert { .. }) {
                unacked = unacked.merge(insert_runs(shard, held, run.drain()));
            }
            let reply = match &op.req {
                Request::Insert { key, value } => {
                    let full = run.push(op.req_id, *key, *value);
                    unacked = unacked.merge(insert_runs(shard, held, full));
                    continue;
                }
                Request::InsertBatch { entries } => {
                    let (fast, logged) = shard.insert_batch_unacked(entries);
                    unacked = unacked.merge(logged);
                    Reply::BatchInserted { fast: fast as u64 }
                }
                Request::Get { key } => Reply::Got(shard.inner().get(*key).copied()),
                Request::Delete { key } => {
                    let (prev, logged) = shard.delete_unacked(*key);
                    unacked = unacked.merge(logged);
                    Reply::Deleted(prev)
                }
                Request::Range { start, end, limit } => {
                    let limit = *limit as usize;
                    let mut entries = Vec::with_capacity(limit.min(RANGE_PRESIZE));
                    let scan = shard.inner().range(*start..=*end).take(limit);
                    entries.extend(scan.map(|(key, value)| (key, *value)));
                    Reply::Entries(entries)
                }
                Request::Stats => {
                    let snap = shard.metrics();
                    Reply::Stats(ServiceStats {
                        len: shard.len() as u64,
                        fast_inserts: snap.fast_inserts,
                        top_inserts: snap.top_inserts,
                        wal_appends: snap.wal_appends,
                        wal_fsyncs: snap.wal_fsyncs,
                        shards: 1,
                    })
                }
            };
            match &op.part_of {
                None => encode_reply_into(held, op.req_id, &Ok(reply)),
                Some(agg) => parts.push((agg.clone(), reply)),
            }
        }
        unacked.merge(insert_runs(shard, held, run.drain()))
    }

    /// Sends everything held back; nothing is left for `drop` to answer.
    fn release(mut self) {
        self.ops.clear();
        if !self.held.is_empty() {
            let _ = self.reply.send(std::mem::take(&mut self.held));
        }
        for (agg, part) in self.parts.drain(..) {
            agg.done(Ok(part));
        }
    }
}

impl Drop for Burst {
    fn drop(&mut self) {
        let mut refused = Vec::new();
        for op in self.ops.drain(..) {
            match op.part_of {
                None => encode_reply_into(&mut refused, op.req_id, &Err(Error::Shutdown)),
                Some(agg) => agg.done(Err(Error::Shutdown)),
            }
        }
        if !refused.is_empty() {
            let _ = self.reply.send(refused);
        }
    }
}

/// Logs and applies each closed run of single inserts (what
/// [`InsertBatcher::push`] or [`InsertBatcher::drain`] handed back) as one
/// `insert_batch`, and queues an `Inserted` per request id.
fn insert_runs(
    shard: &mut Shard,
    held: &mut Vec<u8>,
    runs: impl IntoIterator<Item = (usize, Vec<(u64, u64)>, Vec<u64>)>,
) -> Unacked {
    let mut unacked = Unacked::default();
    for (_, entries, req_ids) in runs {
        unacked = unacked.merge(shard.insert_batch_unacked(&entries).1);
        for req_id in req_ids {
            encode_reply_into(held, req_id, &Ok(Reply::Inserted));
        }
    }
    unacked
}

/// Recovers one shard from `storage`: a QuIT `BpTree` (poℓe with variable
/// split and redistribute, as `config.tree` sets them) bulk-built once
/// from the newest snapshot with the WAL tail folded in.
fn open_shard(
    storage: Arc<dyn Storage>,
    config: &ServiceConfig,
) -> Result<(Shard, RecoveryReport)> {
    Durable::open(
        storage,
        config.durability,
        bptree_builder(FastPathMode::Pole, config.tree.clone()),
    )
}

fn shard_worker(mut shard: Shard, rx: Receiver<Burst>, batch_max: usize) {
    let mut run = InsertBatcher::new(1, batch_max);
    let mut drain: Vec<Burst> = Vec::new();
    while let Ok(first) = rx.recv() {
        let (mut held, mut unacked) = (0, Unacked::default());
        let mut next = Some(first);
        while let Some(mut burst) = next {
            unacked = unacked.merge(burst.execute(&mut shard, &mut run));
            held += burst.held.len();
            drain.push(burst);
            next = (held < DRAIN_REPLY_BYTES)
                .then(|| rx.try_recv().ok())
                .flatten();
        }
        // One group commit for the whole drain. No reply leaves before it:
        // not a write's, and not a read's that may have seen that write.
        shard.ack(unacked);
        drain.drain(..).for_each(Burst::release);
    }
    // Every connection and the acceptor dropped their senders: final
    // durability point before the thread exits (the log may hold
    // buffered bytes at the `Buffered` level).
    let _ = shard.commit_all();
}

/// Every live connection's socket, by connection id, so
/// [`Server::shutdown`] can close them; a connection removes its own entry
/// when it ends.
type Conns = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// The registry of `conns`. A panic cannot leave it half-updated (every
/// change is one map insert or removal), so a poisoned lock is taken over.
fn registry(conns: &Conns) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
    conns.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long the acceptor waits after a failed accept before the next.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// The sharded TCP server. Construction recovers every shard (each from
/// its own storage directory) and starts serving; [`Server::shutdown`]
/// (Self::shutdown) stops accepting, closes live connections, and drains
/// the shard workers to a durable stop.
pub struct Server {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    conns: Conns,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts a server on `addr` (use port 0 for an ephemeral port; read
    /// it back via [`local_addr`](Self::local_addr)) with one storage
    /// backend per shard — `storages.len()` must equal `config.shards`.
    /// Returns the per-shard recovery reports alongside the handle.
    pub fn start(
        storages: Vec<Arc<dyn Storage>>,
        config: ServiceConfig,
        addr: impl ToSocketAddrs,
    ) -> Result<(Server, Vec<RecoveryReport>)> {
        config.validate()?;
        if storages.len() != config.shards {
            return Err(Error::config(format!(
                "{} storage backends for {} shards",
                storages.len(),
                config.shards
            )));
        }
        let mut workers = Vec::with_capacity(config.shards);
        let mut txs = Vec::with_capacity(config.shards);
        let mut reports = Vec::with_capacity(config.shards);
        for storage in storages {
            let (shard, report) = open_shard(storage, &config)?;
            reports.push(report);
            let (tx, rx) = channel();
            txs.push(tx);
            let batch_max = config.batch_max;
            workers.push(std::thread::spawn(move || {
                shard_worker(shard, rx, batch_max)
            }));
        }

        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stopping = Arc::new(AtomicBool::new(false));
        let conns = Conns::default();
        let accept = {
            let stopping = stopping.clone();
            let conns = conns.clone();
            std::thread::spawn(move || {
                for (id, stream) in (0u64..).zip(listener.incoming()) {
                    if stopping.load(Ordering::Acquire) {
                        break;
                    }
                    let stream = match stream {
                        Ok(stream) => stream,
                        Err(_) => {
                            // Out of descriptors (EMFILE) fails every
                            // accept until a connection closes: wait for
                            // one instead of spinning.
                            std::thread::sleep(ACCEPT_BACKOFF);
                            continue;
                        }
                    };
                    let _ = stream.set_nodelay(true);
                    if let Ok(clone) = stream.try_clone() {
                        registry(&conns).insert(id, clone);
                    }
                    let txs = txs.clone();
                    let conns = conns.clone();
                    std::thread::spawn(move || {
                        connection(stream, txs);
                        // The registry's clone is the last handle on the
                        // socket: dropping it closes the connection.
                        registry(&conns).remove(&id);
                    });
                }
                // `txs` drops here; workers exit once every live
                // connection's clones drop too.
            })
        };

        Ok((
            Server {
                addr,
                stopping,
                conns,
                accept: Some(accept),
                workers,
            },
            reports,
        ))
    }

    /// [`start`](Self::start) on one in-memory backend per shard (tests
    /// and benches; nothing survives the process).
    pub fn start_in_memory(
        config: ServiceConfig,
        addr: impl ToSocketAddrs,
    ) -> Result<(Server, Vec<RecoveryReport>)> {
        let storages = (0..config.shards)
            .map(|_| Arc::new(MemStorage::new()) as Arc<dyn Storage>)
            .collect();
        Self::start(storages, config, addr)
    }

    /// [`start`](Self::start) on `root/shard-NNNN/` file-backed WAL
    /// directories (created as needed) — the durable deployment shape.
    pub fn start_dir(
        root: impl AsRef<Path>,
        config: ServiceConfig,
        addr: impl ToSocketAddrs,
    ) -> Result<(Server, Vec<RecoveryReport>)> {
        let storages = FsStorage::open_sharded(root.as_ref(), config.shards)?
            .into_iter()
            .map(|s| s as Arc<dyn Storage>)
            .collect();
        Self::start(storages, config, addr)
    }

    /// The bound address (the ephemeral port, if 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server: no new connections, live connections closed,
    /// shard workers drained to a durable stop. Blocks until every
    /// worker has exited.
    pub fn shutdown(mut self) -> Result<()> {
        self.stopping.store(true, Ordering::Release);
        // Wake the acceptor so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Close live connections; their readers see EOF/reset, flush
        // nothing further, and drop their shard senders.
        for (_, conn) in registry(&self.conns).drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let mut poisoned = 0usize;
        for h in self.workers.drain(..) {
            if h.join().is_err() {
                poisoned += 1;
            }
        }
        if poisoned > 0 {
            return Err(Error::wal(format!(
                "{poisoned} shard worker(s) died on a poisoned WAL"
            )));
        }
        Ok(())
    }
}

/// Appends `req` to the queue of every shard it touches.
fn route(req_id: u64, req: Request, bursts: &mut [Burst]) {
    let shards = bursts.len();
    match req {
        Request::Insert { key, .. } | Request::Get { key } | Request::Delete { key } => {
            bursts[shard_of(key, shards)].ops.push(Op {
                req_id,
                req,
                part_of: None,
            });
        }
        Request::InsertBatch { entries } => {
            let runs = split_batch(&entries, shards);
            let empty = Reply::BatchInserted { fast: 0 };
            let cuts = runs
                .into_iter()
                .map(|(shard, entries)| (shard, Request::InsertBatch { entries }));
            fan_out(bursts, req_id, empty, usize::MAX, cuts.len(), cuts);
        }
        Request::Range { start, end, limit } => {
            let limit = if limit == 0 || limit > MAX_RANGE_RESULTS {
                MAX_RANGE_RESULTS
            } else {
                limit
            };
            let empty = Reply::Entries(Vec::new());
            let span = shards_overlapping(start, end, shards);
            let cuts = span
                .clone()
                .map(|shard| (shard, Request::Range { start, end, limit }));
            fan_out(bursts, req_id, empty, limit as usize, span.count(), cuts);
        }
        Request::Stats => {
            let empty = Reply::Stats(ServiceStats::default());
            let cuts = (0..shards).map(|shard| (shard, Request::Stats));
            fan_out(bursts, req_id, empty, usize::MAX, shards, cuts);
        }
    }
}

/// Queues the `n` per-shard `cuts` of one request. A request inside one
/// shard is answered by that shard's worker like any other op; only one
/// that really spans shards pays for an [`Agg`], which merges the parts
/// into `empty` (also the whole answer when the request touches no shard
/// at all) and caps a range at `limit`.
fn fan_out(
    bursts: &mut [Burst],
    req_id: u64,
    empty: Reply,
    limit: usize,
    n: usize,
    cuts: impl Iterator<Item = (usize, Request)>,
) {
    let reply = &bursts[0].reply;
    let part_of = match n {
        0 => {
            let _ = reply.send(encode_reply(req_id, &Ok(empty)));
            return;
        }
        1 => None,
        _ => Some(Arc::new(Agg {
            req_id,
            limit,
            reply: reply.clone(),
            state: Mutex::new((n, Ok(empty))),
        })),
    };
    for (shard, req) in cuts {
        bursts[shard].ops.push(Op {
            req_id,
            req,
            part_of: part_of.clone(),
        });
    }
}

/// Hands every non-empty burst to its shard's worker. One sent to a worker
/// that is gone comes back in the error and is dropped there, which
/// answers its ops `Shutdown`.
fn submit(bursts: &mut [Burst], shard_txs: &[Sender<Burst>]) {
    for (burst, tx) in bursts.iter_mut().zip(shard_txs) {
        if !burst.ops.is_empty() {
            let next = Burst::new(burst.reply.clone());
            let _ = tx.send(std::mem::replace(burst, next));
        }
    }
}

fn connection(stream: TcpStream, shard_txs: Vec<Sender<Burst>>) {
    let (reply_tx, reply_rx) = channel::<Vec<u8>>();
    let writer = match stream.try_clone() {
        Ok(w) => std::thread::spawn(move || writer_loop(w, reply_rx)),
        Err(_) => return,
    };
    let mut reader = BufReader::with_capacity(READ_BUF, stream);
    let mut bursts: Vec<Burst> = shard_txs
        .iter()
        .map(|_| Burst::new(reply_tx.clone()))
        .collect();

    loop {
        // Frames already in the read buffer are decoded where they lie.
        // Once it holds no whole frame the next read may block, so what
        // this pass queued goes to the workers first; the blocking decoder
        // then takes over for one frame (it also reads a frame longer than
        // the buffer) and leaves the buffer refilled behind it.
        let next = match decode_request(reader.buffer()) {
            Ok(Some((used, req_id, req))) => {
                reader.consume(used);
                Ok(Some((req_id, req)))
            }
            Ok(None) => {
                submit(&mut bursts, &shard_txs);
                read_request(&mut reader)
            }
            Err(e) => Err(e),
        };
        match next {
            Ok(Some((req_id, req))) => route(req_id, req, &mut bursts),
            // Clean disconnect at a frame boundary.
            Ok(None) => break,
            Err(e) => {
                // The stream is desynchronized; report on id 0 (never
                // issued by well-formed clients) and hang up.
                let _ = reply_tx.send(encode_reply(0, &Err(e)));
                break;
            }
        }
    }

    submit(&mut bursts, &shard_txs);
    // Dropping every reply sender held here lets the writer drain
    // outstanding worker replies and exit once the last burst is answered.
    drop(bursts);
    drop(reply_tx);
    let _ = writer.join();
}

fn writer_loop(stream: TcpStream, rx: Receiver<Vec<u8>>) {
    let mut w = BufWriter::new(stream);
    loop {
        match rx.try_recv() {
            Ok(frame) => {
                if w.write_all(&frame).is_err() {
                    return;
                }
            }
            Err(TryRecvError::Empty) => {
                // Momentarily idle: push replies to the wire, then block.
                if w.flush().is_err() {
                    return;
                }
                match rx.recv() {
                    Ok(frame) => {
                        if w.write_all(&frame).is_err() {
                            return;
                        }
                    }
                    Err(_) => return,
                }
            }
            Err(TryRecvError::Disconnected) => {
                let _ = w.flush();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quit_core::{TreeConfig, Variant};

    /// A served shard runs the paper's split policy: a near-sorted stream
    /// fed through the worker's burst path leaves the shard's tree exactly
    /// where the same runs leave an embedded QuIT tree.
    #[test]
    fn a_shard_runs_the_full_quit_split_policy() {
        const BURST: usize = 140; // `Insert` frames in one `READ_BUF` burst
        let stream = bods::BodsSpec::new(60_000, 0.05, 0.05)
            .with_seed(7)
            .generate_entries();
        let config = ServiceConfig::paper_default().with_shards(1);
        let (mut shard, _) = open_shard(Arc::new(MemStorage::new()), &config).unwrap();
        let mut embedded: BpTree<u64, u64> = Variant::Quit.build(TreeConfig::paper_default());
        let mut run = InsertBatcher::new(1, config.batch_max);
        let (reply, replies) = channel();
        for (id, chunk) in (0u64..).step_by(BURST).zip(stream.chunks(BURST)) {
            let mut burst = Burst::new(reply.clone());
            burst.ops = (id..)
                .zip(chunk)
                .map(|(req_id, &(key, value))| Op {
                    req_id,
                    req: Request::Insert { key, value },
                    part_of: None,
                })
                .collect();
            let unacked = burst.execute(&mut shard, &mut run);
            shard.ack(unacked);
            burst.release();
            embedded.insert_batch(chunk);
        }
        drop(reply);
        assert_eq!(replies.iter().count(), stream.len().div_ceil(BURST));

        let (served, local) = (shard.inner().metrics(), embedded.metrics());
        assert!(served.variable_splits > 0, "{served:?}");
        assert_eq!(served.variable_splits, local.variable_splits);
        assert_eq!(served.redistributions, local.redistributions);
        assert_eq!(served.leaf_splits, local.leaf_splits);
        assert_eq!(
            shard.inner().memory_report().avg_leaf_occupancy,
            embedded.memory_report().avg_leaf_occupancy
        );
        assert_eq!(shard.len(), embedded.len());
    }

    /// A burst of n × (`Insert`, `Get`) is logged as one run frame: each
    /// `Get` closes the shard's insert run and sends one entry to the log,
    /// but those entries share the WAL's open run until the drain's one
    /// commit seals it. The replies and the tree are what they are when
    /// each insert is a frame of its own.
    #[test]
    fn a_burst_of_inserts_and_gets_logs_one_run_frame() {
        const N: u64 = 100;
        let config = ServiceConfig::paper_default().with_shards(1);
        let storage = Arc::new(MemStorage::new());
        let (mut shard, _) = open_shard(storage.clone(), &config).unwrap();
        let mut run = InsertBatcher::new(1, config.batch_max);
        let (reply, replies) = channel();
        let mut burst = Burst::new(reply);
        // Distinct keys, out of order: 37 is coprime to 101.
        let key = |i: u64| (i * 37) % 101;
        burst.ops = (0..N)
            .flat_map(|i| {
                let (key, value) = (key(i), i);
                [
                    (2 * i, Request::Insert { key, value }),
                    (2 * i + 1, Request::Get { key }),
                ]
            })
            .map(|(req_id, req)| Op {
                req_id,
                req,
                part_of: None,
            })
            .collect();
        let unacked = burst.execute(&mut shard, &mut run);
        shard.ack(unacked);
        burst.release();

        // The segment header and one frame: 8 header + 8 LSN + 1 kind + 4
        // count, then 16 per entry.
        assert_eq!(storage.total_appended(), 34 + 21 + 16 * N as usize);
        let mut want = Vec::new();
        for i in 0..N {
            encode_reply_into(&mut want, 2 * i, &Ok(Reply::Inserted));
            encode_reply_into(&mut want, 2 * i + 1, &Ok(Reply::Got(Some(i))));
        }
        assert_eq!(replies.try_iter().collect::<Vec<_>>(), [want]);
        let mut entries: Vec<(u64, u64)> = (0..N).map(|i| (key(i), i)).collect();
        entries.sort_unstable();
        let held = |shard: &Shard| {
            shard
                .inner()
                .range(..)
                .map(|(k, v)| (k, *v))
                .collect::<Vec<_>>()
        };
        assert_eq!(held(&shard), entries);
        let (reopened, report) =
            open_shard(Arc::new(storage.crash_durable_only()), &config).unwrap();
        assert_eq!(report.tail_records, N as usize);
        assert_eq!(held(&reopened), entries);
    }

    /// A restarted shard keeps its fast path: a K = L = 5 % stream logged
    /// in 70-entry runs, reopened, and continued on the reopened shard and
    /// on the one that never stopped, leaves both with the same contents,
    /// and the continuation fast-inserts about as often on both.
    #[test]
    fn a_restarted_shard_keeps_its_fast_path() {
        const RUN: usize = 70;
        let stream = bods::BodsSpec::new(180_000, 0.05, 0.05)
            .with_seed(9)
            .generate_entries();
        let (logged, continued) = stream.split_at(126_000);
        let config = ServiceConfig::paper_default().with_shards(1);
        let storage = Arc::new(MemStorage::new());
        let (mut live, _) = open_shard(storage.clone(), &config).unwrap();
        for run in logged.chunks(RUN) {
            let (_, unacked) = live.insert_batch_unacked(run);
            live.ack(unacked);
        }
        let (mut reopened, report) =
            open_shard(Arc::new(storage.crash_durable_only()), &config).unwrap();
        assert_eq!(report.tail_records, logged.len());

        let continue_stream = |shard: &mut Shard| {
            shard.inner().reset_metrics();
            for run in continued.chunks(RUN) {
                let (_, unacked) = shard.insert_batch_unacked(run);
                shard.ack(unacked);
            }
            shard.inner().metrics().fast_insert_fraction()
        };
        let (live_fast, reopened_fast) =
            (continue_stream(&mut live), continue_stream(&mut reopened));
        assert_eq!(reopened.len(), stream.len());
        assert!(
            reopened.inner().range(..).eq(live.inner().range(..)),
            "the reopened shard's contents differ from the live one's"
        );
        assert!(
            (reopened_fast - live_fast).abs() <= 0.03,
            "fast-insert fraction after the restart {reopened_fast:.3}, live {live_fast:.3}"
        );
    }
}
