//! `svc-ingest` and `svc-mixed`: an in-process `Server` (2 shards,
//! GroupCommit, default `batch_max`, each shard's log on `MemStorage` —
//! see `txn.rs` for why not a directory) driven over loopback by one
//! connection built on `quit_service::wire`. Closed-loop phases give the
//! end-to-end throughputs and the synchronous commit latency; an open-loop
//! sweep at four fixed rates gives latency from due time and the highest
//! rate inside the latency limit; restarts on a copy of what each
//! repetition persisted give the recovery time.

use crate::model::{
    generate_timed, ratio, stored_bytes, stream, sub_seed, value_of, Ctx, Model, ScanDigest,
};
use crate::openloop::{self, Completion, Link};
use crate::report::{Outcome, Reps, Tally};
use crate::spec::{self, Sizes, LATENCY_LIMIT_US, RATES, RATE_NAMES};
use crate::stats;
use crate::trace::{Tracer, NO_PARENT};
use quit_durability::{MemStorage, Storage};
use quit_service::wire::{read_reply, write_request};
use quit_service::{Reply, ReplyShape, Request, Server, ServiceConfig, ServiceStats};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// 100 % single-key `Insert` frames from a K = L = 5 % stream.
    Ingest,
    /// 50 % `Get` / 30 % `Insert` (near-sorted frontier) / 15 % `Range`
    /// limit 100 / 5 % `Delete`, on a preloaded server.
    Mixed,
}

pub const SHARDS: usize = 2;
/// The pipelined closed-loop phases send a whole phase's requests, then
/// drain its replies. Client and server then both have work from the first
/// byte to the last, so the phase measures the pipeline's saturated
/// throughput; with a window (256, then 4 096, were tried) every burst
/// boundary is four thread wake-ups, and on a shared two-core box the
/// wake-ups, not the work, decided the number (spread 20-35 % against
/// 6-11 %). Nothing can deadlock: the server's reader never waits for its
/// writer, so the client's sends always drain.
const WINDOW: usize = usize::MAX;
/// Entries per `InsertBatch` frame of the preload.
const PRELOAD_BATCH: usize = 8192;
/// One open-loop request in this many becomes a span.
const SPAN_EVERY: usize = 64;

pub fn config() -> ServiceConfig {
    ServiceConfig::paper_default().with_shards(SHARDS)
}

/// What the model says a request's reply must be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expect {
    Inserted,
    Got(Option<u64>),
    Deleted(Option<u64>),
    Entries(ScanDigest),
}

fn reply_matches(reply: &quit_core::Result<Reply>, expect: &Expect) -> bool {
    match (reply, expect) {
        (Ok(Reply::Inserted), Expect::Inserted) => true,
        (Ok(Reply::Got(v)), Expect::Got(e)) => v == e,
        (Ok(Reply::Deleted(v)), Expect::Deleted(e)) => v == e,
        (Ok(Reply::Entries(entries)), Expect::Entries(e)) => {
            ScanDigest::of(entries.iter().copied()).matches(e)
        }
        _ => false,
    }
}

/// Every request of a run in the order the one connection sends it, with
/// the reply sequential semantics demand: a connection's requests apply in
/// order on each shard, and a read flushes the inserts buffered before it.
struct Script {
    reqs: Vec<Request>,
    expect: Vec<Expect>,
}

/// Builds the script against the model, phase by phase.
struct Scripter {
    script: Script,
    model: Model,
    seed: u64,
    /// Key of index `i` is `i * stride`: indices spread over the whole
    /// `u64` space so range partitioning splits them between the shards.
    stride: u64,
    /// Indices below this are inserted.
    frontier: u64,
    rng: StdRng,
}

impl Scripter {
    fn key(&self, idx: u64) -> u64 {
        idx * self.stride
    }

    fn push(&mut self, req: Request, expect: Expect) {
        self.script.reqs.push(req);
        self.script.expect.push(expect);
    }

    fn mark(&self) -> usize {
        self.script.reqs.len()
    }

    /// `n` single inserts continuing the near-sorted stream at the frontier.
    fn inserts(&mut self, n: usize) -> Range<usize> {
        let from = self.mark();
        let lane = self.frontier;
        for idx in stream(
            n,
            0.05,
            0.05,
            self.frontier,
            sub_seed(self.seed, 100 + lane),
        ) {
            self.insert(idx);
        }
        self.frontier += n as u64;
        from..self.mark()
    }

    fn insert(&mut self, idx: u64) {
        let key = self.key(idx);
        let value = value_of(key, self.seed);
        self.model.insert(key, value);
        self.push(Request::Insert { key, value }, Expect::Inserted);
    }

    fn get(&mut self, idx: u64) {
        let key = self.key(idx);
        let expect = Expect::Got(self.model.get(&key).copied());
        self.push(Request::Get { key }, expect);
    }

    fn range(&mut self, idx: u64, len: usize) {
        let (start, end) = (self.key(idx), self.key(idx + len as u64 - 1));
        let digest = ScanDigest::of(
            self.model
                .range(start..=end)
                .take(len)
                .map(|(&k, &v)| (k, v)),
        );
        self.push(
            Request::Range {
                start,
                end,
                limit: len as u32,
            },
            Expect::Entries(digest),
        );
    }

    fn delete(&mut self, idx: u64) {
        let key = self.key(idx);
        let expect = Expect::Deleted(self.model.remove(&key));
        self.push(Request::Delete { key }, expect);
    }

    fn gets(&mut self, n: usize) -> Range<usize> {
        let from = self.mark();
        for _ in 0..n {
            let idx = self.rng.gen_range(0..self.frontier);
            self.get(idx);
        }
        from..self.mark()
    }

    fn ranges(&mut self, n: usize, len: usize) -> Range<usize> {
        let from = self.mark();
        for _ in 0..n {
            let idx = self.rng.gen_range(0..self.frontier - len as u64);
            self.range(idx, len);
        }
        from..self.mark()
    }

    /// `n` requests of the workload's traffic mix. Reads and deletes aim
    /// below the frontier as it stood when the phase began.
    fn traffic(&mut self, mix: Mix, n: usize) -> Range<usize> {
        #[derive(Clone, Copy, PartialEq)]
        enum Op {
            Insert,
            Get,
            Range,
            Delete,
        }
        let from = self.mark();
        let settled = self.frontier;
        let ops: Vec<Op> = (0..n)
            .map(|i| match mix {
                Mix::Ingest if i % 2 == 0 => Op::Insert,
                Mix::Ingest => Op::Get,
                Mix::Mixed => match self.rng.gen_range(0..100u32) {
                    0..=49 => Op::Get,
                    50..=79 => Op::Insert,
                    80..=94 => Op::Range,
                    _ => Op::Delete,
                },
            })
            .collect();
        let inserts = ops.iter().filter(|&&op| op == Op::Insert).count();
        let fresh = stream(
            inserts,
            0.05,
            0.05,
            settled,
            sub_seed(self.seed, 100 + settled),
        );
        let mut fresh = fresh.into_iter();
        for op in ops {
            match op {
                Op::Insert => {
                    let idx = fresh.next().expect("one index per insert");
                    self.insert(idx);
                }
                Op::Get => {
                    let idx = self.rng.gen_range(0..settled);
                    self.get(idx);
                }
                Op::Range => {
                    let idx = self.rng.gen_range(0..settled - 100);
                    self.range(idx, 100);
                }
                Op::Delete => {
                    let idx = self.rng.gen_range(0..settled);
                    self.delete(idx);
                }
            }
        }
        self.frontier += inserts as u64;
        from..self.mark()
    }
}

/// The phases of one run as index ranges into the script.
struct Plan {
    script: Script,
    preload: Vec<(u64, u64)>,
    final_model: Model,
    /// Live entries once a repetition's phases have run.
    rep_len: u64,
    rep: RepPlan,
    rates: Vec<Range<usize>>,
}

struct RepPlan {
    inserts: Range<usize>,
    gets: Range<usize>,
    ranges: Range<usize>,
    mixed: Range<usize>,
    sync: Range<usize>,
}

fn plan(seed: u64, s: &Sizes, mix: Mix) -> Plan {
    let per_rep = s.n + s.mixed + s.sync_inserts;
    let open_loop: usize = RATES.iter().map(|r| (r * s.rate_seconds) as usize).sum();
    let keyspace = (s.preload + per_rep + open_loop + 1) as u64;
    let mut sc = Scripter {
        script: Script {
            reqs: Vec::new(),
            expect: Vec::new(),
        },
        model: Model::new(),
        seed,
        stride: u64::MAX / keyspace,
        frontier: 0,
        rng: StdRng::seed_from_u64(sub_seed(seed, 7)),
    };
    // The preload is sorted: it is set-up, not a measured ingest.
    let preload: Vec<(u64, u64)> = (0..s.preload as u64)
        .map(|idx| {
            let key = sc.key(idx);
            (key, value_of(key, seed))
        })
        .collect();
    sc.model.extend(preload.iter().copied());
    sc.frontier = s.preload as u64;

    // One repetition's phases. Every repetition replays them on a fresh,
    // freshly preloaded server, so repetitions measure the same thing.
    let rep = RepPlan {
        inserts: sc.inserts(s.n),
        gets: sc.gets(s.gets),
        ranges: sc.ranges(s.scans, s.scan_len),
        mixed: sc.traffic(mix, s.mixed),
        sync: sc.inserts(s.sync_inserts),
    };
    let rep_len = sc.model.len() as u64;
    // The sweep follows the last repetition on the same server.
    let rates = RATES
        .iter()
        .map(|r| sc.traffic(mix, (r * s.rate_seconds) as usize))
        .collect();
    Plan {
        script: sc.script,
        preload,
        final_model: sc.model,
        rep_len,
        rep,
        rates,
    }
}

/// Both halves of the one connection.
struct Conn {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A reply that takes this long is a failure, not a latency.
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn {
            r: BufReader::new(stream.try_clone()?),
            w: BufWriter::new(stream),
        })
    }

    /// One synchronous request outside the script (`Stats`, preload).
    fn call(&mut self, req: &Request) -> Option<Reply> {
        const ID: u64 = u64::MAX;
        let shape = req.reply_shape();
        write_request(&mut self.w, ID, req).ok()?;
        self.w.flush().ok()?;
        match read_reply(&mut self.r, |_| Ok(shape)) {
            Ok((ID, Ok(reply))) => Some(reply),
            _ => None,
        }
    }

    fn stats(&mut self) -> ServiceStats {
        match self.call(&Request::Stats) {
            Some(Reply::Stats(s)) => s,
            _ => ServiceStats::default(),
        }
    }
}

fn next_reply(r: &mut BufReader<TcpStream>, script: &Script) -> Option<Completion> {
    let shape = |id: u64| -> quit_core::Result<ReplyShape> {
        script
            .reqs
            .get(id.wrapping_sub(1) as usize)
            .map(Request::reply_shape)
            .ok_or_else(|| quit_core::Error::corruption(format!("reply for unknown id {id}")))
    };
    let (id, reply) = read_reply(r, shape).ok()?;
    // Id 0 is the server reporting a stream it could not decode.
    let idx = id
        .checked_sub(1)
        .filter(|&i| i < script.reqs.len() as u64)? as usize;
    Some(Completion {
        idx,
        ok: reply_matches(&reply, &script.expect[idx]),
    })
}

struct ClosedLoop {
    wall: Duration,
    tally: Tally,
    /// Per-request round trips, only when `window == 1`.
    rtt_ns: Vec<u64>,
}

/// Burst-drain pipelining: a full window goes out before any reply is
/// read (`window == 1` is the synchronous round trip).
fn closed_loop(
    conn: &mut Conn,
    script: &Script,
    phase: Range<usize>,
    window: usize,
    tracer: &mut Tracer,
    name: &'static str,
) -> ClosedLoop {
    let mut tally = Tally::default();
    let mut rtt_ns = Vec::new();
    let indices: Vec<usize> = phase.collect();
    let start = Instant::now();
    for burst in indices.chunks(window) {
        let t0 = Instant::now();
        let mut sent = 0;
        for &idx in burst {
            if write_request(&mut conn.w, idx as u64 + 1, &script.reqs[idx]).is_err() {
                break;
            }
            sent += 1;
        }
        if conn.w.flush().is_err() {
            sent = 0;
        }
        let mut ok = 0;
        for _ in 0..sent {
            match next_reply(&mut conn.r, script) {
                Some(done) => ok += u64::from(done.ok),
                None => break,
            }
        }
        let t1 = Instant::now();
        tally.add(burst.len() as u64, burst.len() as u64 - ok);
        if window == 1 {
            rtt_ns.push((t1 - t0).as_nanos() as u64);
        }
        tracer.record(name, t0, t1, NO_PARENT, burst[0] as u64);
    }
    ClosedLoop {
        wall: start.elapsed(),
        tally,
        rtt_ns,
    }
}

struct Sender<'a> {
    w: &'a mut BufWriter<TcpStream>,
    script: &'a Script,
    base: usize,
}

impl Link for Sender<'_> {
    fn send(&mut self, idx: usize) -> bool {
        let at = self.base + idx;
        write_request(self.w, at as u64 + 1, &self.script.reqs[at]).is_ok()
    }
    fn flush(&mut self) -> bool {
        self.w.flush().is_ok()
    }
}

/// One fixed rate of the open-loop sweep, boiled down.
pub struct RateResult {
    pub rate: f64,
    pub requests: usize,
    pub failed: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub late_p99_us: f64,
}

impl RateResult {
    /// Counts toward `max_ok_kops`: inside the limit at p99, no failure,
    /// and a generator that itself kept inside the limit.
    pub fn ok(&self) -> bool {
        self.failed == 0 && self.p99_us <= LATENCY_LIMIT_US && self.late_p99_us <= LATENCY_LIMIT_US
    }
}

fn open_loop_rate(
    conn: &mut Conn,
    script: &Script,
    phase: Range<usize>,
    rate: f64,
    tracer: &mut Tracer,
) -> RateResult {
    let n = phase.len();
    let origin = Instant::now();
    let run = {
        let Conn { r, w } = conn;
        let mut sender = Sender {
            w,
            script,
            base: phase.start,
        };
        let base = phase.start;
        openloop::run(n, rate, &mut sender, move || {
            next_reply(r, script).map(|done| Completion {
                idx: done.idx.wrapping_sub(base),
                ok: done.ok,
            })
        })
    };
    if tracer.on() {
        // The timestamps were taken anyway; spans are cut from them.
        for idx in (0..n).step_by(SPAN_EVERY) {
            if run.latency_ns[idx] == u64::MAX {
                continue;
            }
            let due = origin + Duration::from_nanos(openloop::due_ns(idx, rate));
            let sent = due + Duration::from_nanos(run.late_ns[idx]);
            let done = due + Duration::from_nanos(run.latency_ns[idx]);
            let op = (phase.start + idx) as u64;
            let parent = tracer.record("svc.request", due, done, NO_PARENT, op);
            tracer.record("svc.generator_late", due, sent, parent, op);
            tracer.record("svc.wire_and_server", sent, done, parent, op);
        }
    }
    let mut latency: Vec<u64> = run
        .latency_ns
        .iter()
        .copied()
        .filter(|&l| l != u64::MAX)
        .collect();
    latency.sort_unstable();
    let mut late = run.late_ns.clone();
    late.sort_unstable();
    let us = |sorted: &[u64], p: f64| {
        if sorted.is_empty() {
            f64::INFINITY
        } else {
            stats::percentile(sorted, p) as f64 / 1e3
        }
    };
    RateResult {
        rate,
        requests: n,
        failed: run.failed,
        p50_us: us(&latency, 50.0),
        p99_us: us(&latency, 99.0),
        p999_us: us(&latency, 99.9),
        late_p99_us: us(&late, 99.0),
    }
}

/// The sweep's per-layer metrics (they are end-to-end in kind; see the
/// spec for why they are listed with the layers).
pub fn sweep_metrics(out: &mut Outcome, sweep: &[RateResult]) {
    let at = |name: &str| {
        RATE_NAMES
            .iter()
            .position(|&n| n == name)
            .and_then(|i| sweep.get(i))
    };
    // A rate with no answered request has no percentile; report the limit
    // exceeded by a wide margin rather than a non-number.
    let finite = |v: f64| if v.is_finite() { v } else { 1e9 };
    if let Some(mid) = at("mid") {
        out.set("lat_p50_us.mid", finite(mid.p50_us));
        out.set("lat_p99_us.mid", finite(mid.p99_us));
        out.set("svc.lat_p999_us.mid", finite(mid.p999_us));
    }
    if let Some(low) = at("low") {
        out.set("lat_p99_us.low", finite(low.p99_us));
    }
    if let Some(high) = at("high") {
        out.set("lat_p99_us.high", finite(high.p99_us));
    }
    let best = sweep
        .iter()
        .filter(|r| r.ok())
        .map(|r| r.rate)
        .fold(0.0, f64::max);
    out.set("max_ok_kops", best / 1e3);
    let counted: Vec<&RateResult> = sweep.iter().filter(|r| r.ok()).collect();
    let lateness = if counted.is_empty() {
        sweep.iter().map(|r| r.late_p99_us).fold(0.0, f64::max)
    } else {
        counted.iter().map(|r| r.late_p99_us).fold(0.0, f64::max)
    };
    out.set("svc.gen_late_p99_us", finite(lateness));
    out.predict(
        format!(
            "generator lateness p99 ({lateness:.0} us) stays below the {LATENCY_LIMIT_US} us limit at every rate counted toward max_ok_kops"
        ),
        counted.iter().all(|r| r.late_p99_us < LATENCY_LIMIT_US),
    );
    for r in sweep {
        out.notes.push(format!(
            "open loop {:.0} req/s: {} requests, {} failed, p50 {:.1} us, p99 {:.1} us, p99.9 {:.1} us, generator late p99 {:.1} us{}",
            r.rate,
            r.requests,
            r.failed,
            r.p50_us,
            r.p99_us,
            r.p999_us,
            r.late_p99_us,
            if r.ok() { "" } else { " (outside the limit)" }
        ));
    }
}

/// One storage backend per shard.
pub type Disks = Vec<Arc<dyn Storage>>;

pub fn memory_disks() -> Disks {
    (0..SHARDS)
        .map(|_| Arc::new(MemStorage::new()) as Arc<dyn Storage>)
        .collect()
}

/// Starts a server on `disks` (recovering whatever they hold) and loads
/// `preload` into it.
fn start(disks: &Disks, preload: &[(u64, u64)], tally: &mut Tally) -> Option<(Server, Conn)> {
    let (server, _) = Server::start(disks.clone(), config(), "127.0.0.1:0").ok()?;
    let mut conn = Conn::open(server.local_addr()).ok()?;
    for batch in preload.chunks(PRELOAD_BATCH) {
        let req = Request::InsertBatch {
            entries: batch.to_vec(),
        };
        let ok = matches!(conn.call(&req), Some(Reply::BatchInserted { .. }));
        tally.add(batch.len() as u64, if ok { 0 } else { batch.len() as u64 });
    }
    Some((server, conn))
}

/// A second set of backends holding what `disks` hold now, every byte of
/// it synced. A server can start on it while the one on `disks` stays up.
fn copy_of(disks: &Disks) -> Option<Disks> {
    let copy = memory_disks();
    for (from, to) in disks.iter().zip(&copy) {
        for file in from.list().ok()? {
            to.append(&file, &from.read(&file).ok()?).ok()?;
            to.sync(&file).ok()?;
        }
    }
    Some(copy)
}

/// One timed server start on `disks`: every shard replays its log. The
/// server must then hold `len` entries.
fn restart(
    disks: &Disks,
    len: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Option<(Duration, Server, Conn)> {
    let (t, restarted) = tracer.call("svc.restart", || {
        Server::start(disks.clone(), config(), "127.0.0.1:0")
    });
    let opened = restarted
        .ok()
        .and_then(|(server, _)| Some((Conn::open(server.local_addr()).ok()?, server)));
    let Some((mut conn, server)) = opened else {
        tally.check(false);
        return None;
    };
    tally.check(conn.stats().len == len);
    Some((t, server, conn))
}

fn mops(ops: usize, wall: Duration) -> f64 {
    ops as f64 / wall.as_secs_f64() / 1e6
}

pub fn run(ctx: &mut Ctx, name: &'static str, mix: Mix) -> Outcome {
    let mut out = Outcome::new(name);
    let mut reps = Reps::default();
    let mut tally = Tally::default();
    let s = ctx.sizes;

    let (plan, gen_s) = generate_timed(|| plan(ctx.seed, &s, mix));
    let script = &plan.script;

    // Every repetition sets up afresh: new storage, a server start, the
    // preload. The last repetition's server stays up for the sweep.
    let rep = &plan.rep;
    let mut live: Option<(Server, Conn, Disks, ServiceStats)> = None;
    let mut measured = Vec::new();
    // Inserts and fsyncs of the workload's own pipelined traffic phase:
    // the insert phase for svc-ingest, the mix for svc-mixed.
    let mut traffic = (0u64, 0u64);
    for _ in 0..s.reps {
        if let Some((server, conn, ..)) = live.take() {
            drop(conn);
            tally.check(server.shutdown().is_ok());
        }
        let t = Instant::now();
        let disks = memory_disks();
        let Some((server, mut conn)) = start(&disks, &plan.preload, &mut tally) else {
            tally.check(false);
            break;
        };
        reps.push("setup_s", gen_s + t.elapsed().as_secs_f64());

        let at_start = conn.stats();
        let a = closed_loop(
            &mut conn,
            script,
            rep.inserts.clone(),
            WINDOW,
            ctx.tracer,
            "svc.insert_burst",
        );
        let after_a = conn.stats();
        reps.push("insert_mops", mops(rep.inserts.len(), a.wall));
        let b = closed_loop(
            &mut conn,
            script,
            rep.gets.clone(),
            WINDOW,
            ctx.tracer,
            "svc.get_burst",
        );
        reps.push("get_mops", mops(rep.gets.len(), b.wall));
        let c = closed_loop(
            &mut conn,
            script,
            rep.ranges.clone(),
            WINDOW,
            ctx.tracer,
            "svc.range_burst",
        );
        let returned: u64 = script.expect[rep.ranges.clone()]
            .iter()
            .map(|e| match e {
                Expect::Entries(d) => d.count,
                _ => 0,
            })
            .sum();
        reps.push("scan_mkeys", returned as f64 / c.wall.as_secs_f64() / 1e6);
        let before_d = conn.stats();
        let d = closed_loop(
            &mut conn,
            script,
            rep.mixed.clone(),
            WINDOW,
            ctx.tracer,
            "svc.mixed_burst",
        );
        let after_d = conn.stats();
        reps.push("mixed_mops", mops(rep.mixed.len(), d.wall));
        let mut e = closed_loop(
            &mut conn,
            script,
            rep.sync.clone(),
            1,
            ctx.tracer,
            "svc.sync_insert",
        );
        reps.push_commit_latency(&mut e.rtt_ns, 1);
        let mut rep_s = 0.0;
        for phase in [&a, &b, &c, &d, &e] {
            tally.merge(phase.tally);
            rep_s += phase.wall.as_secs_f64();
        }
        measured.push(rep_s);
        let own = match mix {
            Mix::Ingest => delta(&after_a, &at_start),
            Mix::Mixed => delta(&after_d, &before_d),
        };
        traffic = (inserts_of(&own), own.wal_fsyncs);

        // Restarts on a copy of what the repetition persisted, while its
        // own server idles: `recovery_s` is then sampled all along the run
        // like every other metric, not in one burst at its end, where one
        // busy second of the host's decided the whole number.
        let image = copy_of(&disks);
        tally.check(image.is_some());
        for _ in 0..s.recoveries {
            let Some(image) = &image else { break };
            let Some((t, restarted, probe)) = restart(image, plan.rep_len, ctx.tracer, &mut tally)
            else {
                break;
            };
            reps.push("recovery_s", t.as_secs_f64());
            drop(probe);
            tally.check(restarted.shutdown().is_ok());
        }
        live = Some((server, conn, disks, at_start));
    }
    let Some((server, mut conn, disks, at_start)) = live else {
        out.notes.push("server did not start".into());
        out.tally = Tally {
            attempted: tally.attempted.max(1),
            failed: tally.failed.max(1),
        };
        return out;
    };

    let before_sweep = conn.stats();
    let sweep: Vec<RateResult> = plan
        .rates
        .iter()
        .zip(RATES)
        .map(|(phase, rate)| {
            let r = open_loop_rate(&mut conn, script, phase.clone(), rate, ctx.tracer);
            tally.add(r.requests as u64, r.failed);
            r
        })
        .collect();
    let at_end = conn.stats();

    tally.check(at_end.len == plan.final_model.len() as u64);
    let disk_bytes: u64 = disks.iter().map(|d| stored_bytes(&**d)).sum();
    reps.push(
        "bytes_per_entry",
        disk_bytes as f64 / at_end.len.max(1) as f64,
    );

    // Once a run, on the last server's own storage: everything the model
    // holds, the sweep's writes too, must be there after a restart.
    drop(conn);
    tally.check(server.shutdown().is_ok());
    let final_len = plan.final_model.len() as u64;
    if let Some((_, restarted, mut conn)) = restart(&disks, final_len, ctx.tracer, &mut tally) {
        for (&key, &value) in plan.final_model.iter().step_by(997) {
            let got = conn.call(&Request::Get { key });
            tally.check(got == Some(Reply::Got(Some(value))));
        }
        drop(conn);
        tally.check(restarted.shutdown().is_ok());
    }

    out.tally = tally;
    out.measured_s = stats::median(&measured);
    reps.finish(&mut out.metrics);

    // Per-layer numbers of this workload's own stack. The Stats opcode
    // exposes insert and WAL counters only, so the OLC counters stay 0.
    let total = delta(&at_end, &at_start);
    out.set("svc.fast_insert_frac", total.fastpath_rate());
    out.set("conc.fast_insert_frac", total.fastpath_rate());
    out.set("wal.appends", total.wal_appends as f64);
    out.set("wal.fsyncs", total.wal_fsyncs as f64);
    out.set(
        "wal.records_per_fsync",
        ratio(total.wal_appends, total.wal_fsyncs),
    );
    out.set(
        "wal.bytes_per_user_byte",
        ratio(disk_bytes, 16 * at_end.wal_appends),
    );
    // Batching where the client decides it (the pipelined traffic phase)
    // and where arrivals do (the open-loop sweep).
    out.set("router.entries_per_batch", ratio(traffic.0, traffic.1));
    let swept = delta(&at_end, &before_sweep);
    out.set(
        "svc.inserts_per_fsync",
        ratio(inserts_of(&swept), swept.wal_fsyncs),
    );
    sweep_metrics(&mut out, &sweep);
    if ctx.tracer.on() {
        out.set("bods.gen_s", gen_s);
        let first: Vec<u64> = script.reqs[plan.rep.inserts.clone()]
            .iter()
            .filter_map(|r| match r {
                Request::Insert { key, .. } => Some(*key),
                _ => None,
            })
            .collect();
        let sortedness = bods::measure(&first);
        out.set("bods.k_measured", sortedness.k_fraction);
        out.set("bods.l_measured", sortedness.l_fraction);
    }
    out
}

fn inserts_of(s: &ServiceStats) -> u64 {
    s.fast_inserts + s.top_inserts
}

fn delta(now: &ServiceStats, then: &ServiceStats) -> ServiceStats {
    ServiceStats {
        len: now.len,
        fast_inserts: now.fast_inserts - then.fast_inserts,
        top_inserts: now.top_inserts - then.top_inserts,
        wal_appends: now.wal_appends - then.wal_appends,
        wal_fsyncs: now.wal_fsyncs - then.wal_fsyncs,
        shards: now.shards,
    }
}

/// The layer probes' share of the service. On `disks` (real files there:
/// the ladder's top rung): the window-1 round trip and the pipelined
/// closed-loop throughput. On a second, in-memory server like the
/// workloads': a brief sweep, so that every workload's traced run has the
/// open-loop numbers measured rather than assumed.
pub fn probe(seed: u64, disks: &Disks, sizes: &Sizes, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new(spec::SVC_INGEST);
    let plan = plan(seed, sizes, Mix::Ingest);
    let script = &plan.script;
    let rep = &plan.rep;
    if let Some((server, mut conn)) = start(disks, &[], &mut out.tally) {
        let a = closed_loop(
            &mut conn,
            script,
            rep.inserts.clone(),
            WINDOW,
            tracer,
            "svc.insert_burst",
        );
        out.set(
            "svc.closed_loop_kops",
            mops(rep.inserts.len(), a.wall) * 1e3,
        );
        let e = closed_loop(
            &mut conn,
            script,
            rep.sync.clone(),
            1,
            tracer,
            "svc.sync_insert",
        );
        out.set(
            "svc.rtt_us",
            e.wall.as_secs_f64() * 1e6 / rep.sync.len() as f64,
        );
        out.tally.merge(a.tally);
        out.tally.merge(e.tally);
        drop(conn);
        out.tally.check(server.shutdown().is_ok());
    } else {
        out.tally.check(false);
    }

    let Some((server, mut conn)) = start(&memory_disks(), &[], &mut out.tally) else {
        out.tally.check(false);
        return out;
    };
    // The sweep's expected replies assume the repetition ran before it.
    for phase in [&rep.inserts, &rep.sync] {
        let warm = closed_loop(
            &mut conn,
            script,
            phase.clone(),
            WINDOW,
            tracer,
            "svc.insert_burst",
        );
        out.tally.merge(warm.tally);
    }
    let sweep: Vec<RateResult> = plan
        .rates
        .iter()
        .zip(RATES)
        .map(|(phase, rate)| {
            let r = open_loop_rate(&mut conn, script, phase.clone(), rate, tracer);
            out.tally.add(r.requests as u64, r.failed);
            r
        })
        .collect();
    sweep_metrics(&mut out, &sweep);
    // The probes' sweep is a default, not a prediction about a workload.
    out.predictions.clear();
    drop(conn);
    out.tally.check(server.shutdown().is_ok());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(preload: usize) -> Sizes {
        Sizes {
            reps: 1,
            n: 3_000,
            preload,
            gets: 500,
            scans: 50,
            scan_len: 100,
            mixed: 1_000,
            sync_inserts: 1_000,
            recoveries: 1,
            rate_seconds: 0.02,
        }
    }

    #[test]
    fn the_script_is_a_pure_function_of_the_seed() {
        let a = plan(5, &tiny(2_000), Mix::Mixed);
        let b = plan(5, &tiny(2_000), Mix::Mixed);
        let c = plan(6, &tiny(2_000), Mix::Mixed);
        assert_eq!(a.script.reqs, b.script.reqs);
        assert_eq!(a.script.expect, b.script.expect);
        assert_ne!(a.script.reqs, c.script.reqs);
        assert_eq!(a.final_model, b.final_model);
        // The mix really is four-way, and the ingest script only inserts.
        let kinds = |p: &Plan, phase: &Range<usize>| {
            let mut seen = [0usize; 4];
            for r in &p.script.reqs[phase.clone()] {
                match r {
                    Request::Insert { .. } => seen[0] += 1,
                    Request::Get { .. } => seen[1] += 1,
                    Request::Range { .. } => seen[2] += 1,
                    Request::Delete { .. } => seen[3] += 1,
                    _ => unreachable!("the script never sends {r:?}"),
                }
            }
            seen
        };
        assert!(kinds(&a, &a.rates[3]).iter().all(|&n| n > 0));
        let ingest = plan(5, &tiny(0), Mix::Ingest);
        let [ins, gets, ..] = kinds(&ingest, &ingest.rep.inserts);
        assert_eq!((ins, gets), (3_000, 0));
    }

    #[test]
    fn a_served_run_matches_the_model_reply_for_reply() {
        let mut tracer = Tracer::new(true);
        let mut ctx = Ctx {
            seed: 9,
            sizes: tiny(2_000),
            tracer: &mut tracer,
        };
        let out = run(&mut ctx, spec::SVC_MIXED, Mix::Mixed);
        assert_eq!(out.tally.failed, 0, "{:?}", out.notes);
        assert!(out.tally.attempted > 8_000);
        assert!(out.value("router.entries_per_batch").unwrap() < 64.0);
        assert!(out.value("max_ok_kops").is_some());
        assert!(tracer.spans().iter().any(|s| s.name == "svc.request"));
    }
}
