//! What the benchmark is: the six workloads with their frozen sizes, the
//! end-to-end metrics with their regression bounds, and the per-layer
//! metrics with the end-to-end metric each is expected to move. The root
//! `BENCHMARK.json` is the projection of these tables onto the keys the
//! driver reads (`tests::benchmark_json_matches_the_tables`); `--describe`
//! prints all of it, sizes and expectations included, as JSON.

use crate::json::Value;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` (at most 200 characters).
    pub why: &'static str,
    /// Which layers do the work and which are bypassed.
    pub layers: &'static str,
}

pub const EMBED_NEARSORTED: &str = "embed-nearsorted";
pub const EMBED_SCRAMBLED: &str = "embed-scrambled";
pub const TXN_DURABLE: &str = "txn-durable";
pub const PAGED_PRESSURE: &str = "paged-pressure";
pub const SVC_INGEST: &str = "svc-ingest";
pub const SVC_MIXED: &str = "svc-mixed";

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: EMBED_NEARSORTED,
        why: "BpTree QuIT on a K=L=5% stream, 1 thread: the paper's headline regime, the core fast path does almost all the work; WAL, pool and service are idle",
        layers: "works: core (fastpath, ikr, split); bypassed: layout search/shift (mostly), concurrent, durability, pool, service",
    },
    Workload {
        name: EMBED_SCRAMBLED,
        why: "same stack and phases on a fully scrambled stream: the fast path is bypassed, descents and layout search/shift dominate, the tree outgrows the L2 cache",
        layers: "works: core descents, core::layout; bypassed: fast path (fast_insert_frac ~ 0), concurrent, durability, pool, service",
    },
    Workload {
        name: TXN_DURABLE,
        why: "Quit stack (TxnStore over MvccTree over ConcurrentTree) at GroupCommit: auto-commit and batch transactions, snapshot reads, checkpoint, reopen, crash; WAL, group commit and MVCC carry the cost",
        layers: "works: durability (wal, txn, snapshot), concurrent::mvcc, concurrent; bypassed: pool, service",
    },
    Workload {
        name: PAGED_PRESSURE,
        why: "Quit::open_paged with the pool at 1/8 of the working-set pages: the only workload larger than the program's own cache, so pool fault, decode and evict do the work",
        layers: "works: core::pool, core::paged, durability (wal, psnap); bypassed: concurrent, mvcc, service",
    },
    Workload {
        name: SVC_INGEST,
        why: "Server::start_dir (2 shards, GroupCommit) over loopback, 1 connection, single-key Insert frames from a K=L=5% stream: per-connection sorted-run batching riding the fast path",
        layers: "works: service (wire, router, batcher), shard WALs, concurrent; bypassed: mvcc, txn, pool",
    },
    Workload {
        name: SVC_MIXED,
        why: "same server preloaded, mix 50% Get / 30% Insert / 15% Range / 5% Delete: reads break the insert batches, so a batching gain that costs mixed traffic shows here",
        layers: "works: service with short batches, shard WALs (one fsync per delete), concurrent reads; bypassed: mvcc, txn, pool",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A metric a user of the system sees. Every workload reports every one
/// of these through its own front door (README, "What each metric means at
/// each front door"), because the driver requires each end-to-end metric
/// from each workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub what: &'static str,
}

/// The bound of every timed metric. ISSUE 11 aimed at a tenth; ten runs
/// per workload on this shared two-core box repeat within 2 to 18 % (the
/// quartile distance over the median), so a tenth would reject the
/// benchmark against itself. A quarter is the widest the driver allows.
const TIMED: f64 = 0.25;

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMED,
        what: "median time of one set-up: input generation and the model's expected replies, store or server start, preload, pool sizing",
    },
    EndToEnd {
        name: "insert_mops",
        unit: "Mops/s",
        better: Better::Higher,
        bound: TIMED,
        what: "million acknowledged inserts per second in the ingest phase (txn-durable: keys in 64-key batch transactions; paged: 4096-key batches; svc: pipelined Insert frames, the whole phase in flight)",
    },
    EndToEnd {
        name: "get_mops",
        unit: "Mops/s",
        better: Better::Higher,
        bound: TIMED,
        what: "million point lookups per second (embed: of the newest 5% of keys; txn-durable: snapshot gets; paged: uniform, through the 1/8 pool; svc: pipelined Get frames)",
    },
    EndToEnd {
        name: "scan_mkeys",
        unit: "Mkeys/s",
        better: Better::Higher,
        bound: TIMED,
        what: "million entries returned per second by range scans (paged: one full scan; txn-durable: snapshot scans; svc: Range frames, limit 100)",
    },
    EndToEnd {
        name: "mixed_mops",
        unit: "Mops/s",
        better: Better::Higher,
        bound: TIMED,
        what: "million ops per second of interleaved single inserts and gets (svc-mixed: its four-way mix)",
    },
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMED,
        what: "time to get a queryable handle back from what was persisted (embed: rebuild from a TreeSnapshot; txn, paged: reopen after checkpoint + 10% tail; svc: restart on the same storage)",
    },
    EndToEnd {
        name: "bytes_per_entry",
        unit: "B/entry",
        better: Better::Lower,
        bound: 0.05,
        what: "MemoryReport bytes (embed) or stored bytes (txn and paged after the checkpoint, svc at the end) per live entry; an exact count",
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Where a per-layer number comes from in a traced run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Counter deltas and timings around the workload's own phases; reads
    /// 0 on a workload that bypasses the layer.
    Workload,
    /// The layer probes (ladder and direct timed calls), which run the same
    /// inputs whatever the workload.
    Probe,
    /// The probes give a value on every workload; a workload that drives
    /// the layer itself overrides it with its own.
    Either,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn pl(name: &'static str, unit: &'static str, better: Better, source: Source) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

/// One layer of the repository, the metrics measured on it, and the
/// end-to-end metric × workload pairs they are expected to move.
pub struct Layer {
    pub layer: &'static str,
    pub modules: &'static str,
    pub metrics: &'static [PerLayer],
    /// `(end-to-end metric or demoted metric, workload)`.
    pub moves: &'static [(&'static str, &'static str)],
    pub prediction: &'static str,
}

use Better::{Higher, Lower};
use Source::{Either, Probe, Workload as FromWorkload};

pub const LAYERS: [Layer; 10] = [
    Layer {
        layer: "core",
        modules: "quit_core::{tree, insert, fastpath, split, ikr}",
        metrics: &[
            pl("core.fast_insert_frac", "frac", Higher, FromWorkload),
            pl("core.insert_ns", "ns", Lower, Probe),
            pl("core.insert_chunk_p99_ns", "ns", Lower, Either),
            pl("core.get_ns", "ns", Lower, Probe),
            pl("core.nodes_per_get", "nodes", Lower, FromWorkload),
            pl("core.leaves_per_scan", "leaves", Lower, FromWorkload),
            pl("core.delete_ns", "ns", Lower, Probe),
            pl("core.leaf_splits", "count", Lower, FromWorkload),
            pl("core.variable_splits", "count", Higher, FromWorkload),
            pl("core.redistributions", "count", Higher, FromWorkload),
            pl("core.fp_resets", "count", Lower, FromWorkload),
            pl("core.pole_catch_ups", "count", Higher, FromWorkload),
            pl("core.leaf_fill", "frac", Higher, FromWorkload),
        ],
        moves: &[
            ("insert_mops", EMBED_NEARSORTED),
            ("mixed_mops", EMBED_NEARSORTED),
            ("get_mops", EMBED_NEARSORTED),
            ("get_mops", EMBED_SCRAMBLED),
            ("scan_mkeys", EMBED_NEARSORTED),
            ("scan_mkeys", EMBED_SCRAMBLED),
            ("bytes_per_entry", EMBED_NEARSORTED),
        ],
        prediction: "fast-path metrics stay flat on embed-scrambled; core.leaf_fill moves bytes_per_entry",
    },
    Layer {
        layer: "core::layout",
        modules: "quit_core::layout",
        metrics: &[
            pl("layout.search_ns.binary", "ns", Lower, Probe),
            pl("layout.search_ns.branchless", "ns", Lower, Probe),
            pl("layout.search_ns.simd", "ns", Lower, Probe),
            pl("layout.insert_at_ns.dense", "ns", Lower, Probe),
            pl("layout.insert_at_ns.gapped", "ns", Lower, Probe),
        ],
        moves: &[
            ("insert_mops", EMBED_SCRAMBLED),
            ("get_mops", EMBED_SCRAMBLED),
        ],
        prediction: "little effect on embed-nearsorted, where the append path skips the intra-node search",
    },
    Layer {
        layer: "core::metrics",
        modules: "quit_core::metrics",
        metrics: &[pl("metrics.histograms_overhead_ns", "ns", Lower, Probe)],
        moves: &[("insert_mops", EMBED_NEARSORTED)],
        prediction: "moves insert_mops only once timing is left on by default (ROADMAP item 4b)",
    },
    Layer {
        layer: "core::pool / core::paged",
        modules: "quit_core::{pool, paged}",
        metrics: &[
            pl("pool.hit_rate", "frac", Higher, FromWorkload),
            pl("pool.page_faults", "count", Lower, FromWorkload),
            pl("pool.evictions", "count", Lower, FromWorkload),
            pl("pool.hit_ns", "ns", Lower, Probe),
            pl("pool.fault_ns", "ns", Lower, Probe),
            pl("paged.insert_ns", "ns", Lower, Either),
            pl("paged.get_ns", "ns", Lower, Either),
            pl("paged.vs_arena", "x", Lower, Probe),
            pl("paged.resident_bytes", "B", Lower, FromWorkload),
        ],
        moves: &[
            ("insert_mops", PAGED_PRESSURE),
            ("get_mops", PAGED_PRESSURE),
            ("scan_mkeys", PAGED_PRESSURE),
            ("recovery_s", PAGED_PRESSURE),
        ],
        prediction: "nothing moves on the five workloads that fit in memory",
    },
    Layer {
        layer: "concurrent",
        modules: "quit_concurrent::{tree, olc, sync}",
        metrics: &[
            pl("conc.insert_ns", "ns", Lower, Probe),
            pl("conc.get_ns", "ns", Lower, Probe),
            pl("conc.fast_insert_frac", "frac", Higher, FromWorkload),
            pl("conc.olc_restarts", "count", Lower, FromWorkload),
            pl("conc.olc_fallbacks", "count", Lower, FromWorkload),
        ],
        moves: &[
            ("insert_mops", TXN_DURABLE),
            ("get_mops", TXN_DURABLE),
            ("commit_p50_us", SVC_INGEST),
            ("lat_p50_us.mid", SVC_INGEST),
        ],
        prediction: "small next to an fsync: visible on get_mops, within noise on commit latencies",
    },
    Layer {
        layer: "concurrent::mvcc",
        modules: "quit_concurrent::mvcc",
        metrics: &[
            pl("mvcc.insert_ns", "ns", Lower, Probe),
            pl("mvcc.get_ns", "ns", Lower, Probe),
            pl("mvcc.gc_reclaimed", "count", Higher, FromWorkload),
        ],
        moves: &[("get_mops", TXN_DURABLE), ("commit_p50_us", TXN_DURABLE)],
        prediction: "flat on every workload but txn-durable",
    },
    Layer {
        layer: "durability",
        modules: "quit_durability::{wal, durable, txn, snapshot, psnap}",
        metrics: &[
            pl("wal.append_ns", "ns", Lower, Probe),
            pl("wal.commit_ns", "ns", Lower, Probe),
            pl("wal.appends", "count", Lower, FromWorkload),
            pl("wal.fsyncs", "count", Lower, FromWorkload),
            pl("wal.records_per_fsync", "records", Higher, FromWorkload),
            pl("wal.bytes_per_user_byte", "x", Lower, FromWorkload),
            pl("durable.insert_ns.buffered", "ns", Lower, Probe),
            pl("durable.insert_ns.group", "ns", Lower, Probe),
            pl("txn.insert_ns", "ns", Lower, Probe),
            pl("txn.batch_key_ns", "ns", Lower, Probe),
            pl("txn.commits", "count", Higher, FromWorkload),
            pl("txn.conflicts", "count", Lower, FromWorkload),
            pl("txn.aborts", "count", Lower, FromWorkload),
            pl("ckpt.s", "s", Lower, Either),
            pl("ckpt.bytes", "B", Lower, FromWorkload),
            pl("recovery.snapshot_entries", "entries", Higher, FromWorkload),
            pl("recovery.tail_records", "records", Lower, FromWorkload),
        ],
        moves: &[
            ("commit_p50_us", TXN_DURABLE),
            ("commit_p99_us", TXN_DURABLE),
            ("insert_mops", TXN_DURABLE),
            ("recovery_s", TXN_DURABLE),
            ("bytes_per_entry", TXN_DURABLE),
            ("commit_p50_us", SVC_INGEST),
            ("lat_p99_us.high", SVC_INGEST),
            ("max_ok_kops", SVC_INGEST),
        ],
        prediction: "wal.fsyncs is 0 on embed-*; ckpt.* and recovery.* move recovery_s and bytes_per_entry",
    },
    Layer {
        layer: "service",
        modules: "quit_service::{wire, router, server}",
        metrics: &[
            pl("wire.encode_ns", "ns", Lower, Probe),
            pl("wire.decode_ns", "ns", Lower, Probe),
            pl("router.push_drain_ns", "ns", Lower, Probe),
            pl("router.entries_per_batch", "entries", Higher, FromWorkload),
            pl("svc.rtt_us", "us", Lower, Probe),
            pl("svc.fast_insert_frac", "frac", Higher, FromWorkload),
            pl("svc.inserts_per_fsync", "inserts", Higher, FromWorkload),
            pl("svc.closed_loop_kops", "kops/s", Higher, Probe),
            pl("svc.lat_p999_us.mid", "us", Lower, Either),
            pl("svc.gen_late_p99_us", "us", Lower, Either),
        ],
        moves: &[
            ("insert_mops", SVC_INGEST),
            ("commit_p50_us", SVC_INGEST),
            ("lat_p50_us.mid", SVC_INGEST),
            ("lat_p99_us.high", SVC_INGEST),
            ("max_ok_kops", SVC_INGEST),
        ],
        prediction: "much shorter batches on svc-mixed, hence little effect there",
    },
    Layer {
        layer: "demoted end-to-end",
        modules: "the front door of each workload; quit_service over loopback at the four fixed rates",
        // End-to-end in kind, listed here because they cannot be gated
        // (README, "Demoted metrics"): the commit latencies do not repeat
        // within a quarter on the service workloads, and an arrival-rate
        // sweep has no meaning on the four embedded workloads, while the
        // driver wants every end-to-end metric from every workload.
        metrics: &[
            pl("commit_p50_us", "us", Lower, FromWorkload),
            pl("commit_p99_us", "us", Lower, FromWorkload),
            pl("lat_p50_us.mid", "us", Lower, Either),
            pl("lat_p99_us.low", "us", Lower, Either),
            pl("lat_p99_us.mid", "us", Lower, Either),
            pl("lat_p99_us.high", "us", Lower, Either),
            pl("max_ok_kops", "kops/s", Higher, Either),
        ],
        moves: &[],
        prediction: "commit_*: time for one synchronous single-key insert to be acknowledged; lat_* and max_ok_kops: latency from due time at each rate and the highest rate inside the limit, user-visible on svc-*",
    },
    Layer {
        layer: "bods / benchmark",
        modules: "bods, this package",
        metrics: &[
            pl("bods.gen_s", "s", Lower, FromWorkload),
            pl("bods.k_measured", "frac", Lower, FromWorkload),
            pl("bods.l_measured", "frac", Lower, FromWorkload),
            pl("trace.overhead_frac", "frac", Lower, FromWorkload),
        ],
        moves: &[("setup_s", EMBED_NEARSORTED), ("setup_s", EMBED_SCRAMBLED)],
        prediction: "input sanity and the cost of the traced pass",
    },
];

pub fn per_layer() -> impl Iterator<Item = &'static PerLayer> {
    LAYERS.iter().flat_map(|l| l.metrics.iter())
}

/// Direction of any metric either table names.
pub fn better_of(name: &str) -> Option<Better> {
    end_to_end(name)
        .map(|m| m.better)
        .or_else(|| per_layer().find(|m| m.name == name).map(|m| m.better))
}

/// Unit of any metric either table names.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| per_layer().find(|m| m.name == name).map(|m| m.unit))
}

/// Seconds the frozen sizes below are calibrated for; `--seconds` scales
/// the repetition count (and, below one repetition, the sizes) from here.
pub const RUN_SECONDS: u64 = 20;

/// Open-loop arrival rates in requests per second, and the latency limit
/// a rate must meet at p99 to count toward `max_ok_kops`.
pub const RATE_NAMES: [&str; 4] = ["low", "mid", "high", "top"];
pub const RATES: [f64; 4] = [50_000.0, 100_000.0, 200_000.0, 400_000.0];
pub const LATENCY_LIMIT_US: f64 = 5_000.0;

/// Frozen op counts of one repetition, per workload, at `RUN_SECONDS`.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub reps: usize,
    /// Keys ingested in the ingest phase.
    pub n: usize,
    /// Keys loaded during set-up, before anything is timed (svc-mixed).
    pub preload: usize,
    pub gets: usize,
    pub scans: usize,
    pub scan_len: usize,
    /// Insert/read pairs (svc-mixed: requests) in the mixed phase.
    pub mixed: usize,
    /// Individually timed synchronous inserts.
    pub sync_inserts: usize,
    /// Reopens (or rebuilds, or restarts) timed for `recovery_s`, per
    /// repetition.
    pub recoveries: usize,
    /// Seconds at each open-loop rate (svc only).
    pub rate_seconds: f64,
}

pub fn sizes(workload: &str) -> Sizes {
    match workload {
        EMBED_NEARSORTED => Sizes {
            reps: 90,
            n: 500_000,
            preload: 0,
            gets: 200_000,
            scans: 5_000,
            scan_len: 1_000,
            mixed: 100_000,
            sync_inserts: 64_000,
            recoveries: 1,
            rate_seconds: 0.0,
        },
        EMBED_SCRAMBLED => Sizes {
            reps: 60,
            n: 500_000,
            preload: 0,
            gets: 200_000,
            scans: 5_000,
            scan_len: 1_000,
            mixed: 100_000,
            sync_inserts: 64_000,
            recoveries: 1,
            rate_seconds: 0.0,
        },
        TXN_DURABLE => Sizes {
            reps: 20,
            // `sync_inserts` auto-commit inserts, `n` keys in batch
            // transactions, `mixed` insert/get pairs; `preload` is what the
            // second thread commits while a quarter of the reads repeat.
            n: 128_000,
            preload: 100_000,
            gets: 300_000,
            scans: 1_500,
            scan_len: 1_000,
            mixed: 40_000,
            sync_inserts: 40_000,
            recoveries: 2,
            rate_seconds: 0.0,
        },
        PAGED_PRESSURE => Sizes {
            reps: 20,
            n: 1_000_000,
            preload: 0,
            gets: 100_000,
            scans: 1,
            scan_len: 0,
            // Each pair's insert is timed: these are the commit latencies.
            mixed: 50_000,
            sync_inserts: 0,
            recoveries: 3,
            rate_seconds: 0.0,
        },
        SVC_INGEST => Sizes {
            reps: 24,
            n: 100_000,
            preload: 0,
            gets: 100_000,
            scans: 20_000,
            scan_len: 100,
            mixed: 50_000,
            sync_inserts: 1_000,
            recoveries: 2,
            rate_seconds: 0.5,
        },
        SVC_MIXED => Sizes {
            reps: 22,
            n: 100_000,
            preload: 200_000,
            gets: 100_000,
            scans: 20_000,
            scan_len: 100,
            mixed: 50_000,
            sync_inserts: 1_000,
            recoveries: 2,
            rate_seconds: 0.5,
        },
        other => panic!("no sizes for workload {other}"),
    }
}

/// How `--seconds` and `--quick` turn the frozen sizes into this run's.
/// Repetitions go first ("cut repetitions before N"); only a budget below
/// one repetition shrinks the op counts, and `--quick` shrinks them tenfold
/// on top so all six workloads smoke-test in half a minute.
pub fn scaled(workload: &str, seconds: f64, quick: bool) -> Sizes {
    let base = sizes(workload);
    let work = (seconds / RUN_SECONDS as f64).max(0.01);
    let reps = ((base.reps as f64 * work).round() as usize).max(1);
    let mut shrink = (work * base.reps as f64 / reps as f64).min(1.0);
    let reps = if quick { 1 } else { reps };
    if quick {
        shrink *= 0.1;
    }
    let cut = |x: usize, floor: usize| ((x as f64 * shrink).round() as usize).max(floor.min(x));
    Sizes {
        reps,
        n: cut(base.n, 20_000),
        preload: cut(base.preload, 20_000),
        gets: cut(base.gets, 2_000),
        scans: cut(base.scans, 20),
        scan_len: base.scan_len,
        mixed: cut(base.mixed, 1_000),
        // Never below what a p99 needs: ten samples beyond it.
        sync_inserts: cut(base.sync_inserts, 1_000),
        recoveries: if quick { 2 } else { base.recoveries },
        rate_seconds: (base.rate_seconds * shrink).max(if base.rate_seconds > 0.0 {
            0.2
        } else {
            0.0
        }),
    }
}

fn sizes_json(s: &Sizes) -> Value {
    Value::obj(vec![
        ("reps", (s.reps as u64).into()),
        ("n", (s.n as u64).into()),
        ("preload", (s.preload as u64).into()),
        ("gets", (s.gets as u64).into()),
        ("scans", (s.scans as u64).into()),
        ("scan_len", (s.scan_len as u64).into()),
        ("mixed", (s.mixed as u64).into()),
        ("sync_inserts", (s.sync_inserts as u64).into()),
        ("recoveries", (s.recoveries as u64).into()),
        ("rate_seconds", s.rate_seconds.into()),
    ])
}

/// Everything above as one JSON document (`--describe`).
pub fn describe() -> Value {
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            Value::obj(vec![
                ("name", Value::str(w.name)),
                ("why", Value::str(w.why)),
                ("layers", Value::str(w.layers)),
                ("sizes", sizes_json(&sizes(w.name))),
            ])
        })
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            Value::obj(vec![
                ("name", Value::str(m.name)),
                ("unit", Value::str(m.unit)),
                ("better", Value::str(m.better.as_str())),
                ("bound", m.bound.into()),
                ("what", Value::str(m.what)),
            ])
        })
        .collect();
    let layers = LAYERS
        .iter()
        .map(|l| {
            Value::obj(vec![
                ("layer", Value::str(l.layer)),
                ("modules", Value::str(l.modules)),
                (
                    "metrics",
                    Value::Arr(
                        l.metrics
                            .iter()
                            .map(|m| {
                                Value::obj(vec![
                                    ("name", Value::str(m.name)),
                                    ("unit", Value::str(m.unit)),
                                    ("better", Value::str(m.better.as_str())),
                                    ("source", Value::str(format!("{:?}", m.source))),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "moves",
                    Value::Arr(
                        l.moves
                            .iter()
                            .map(|&(metric, workload)| {
                                Value::obj(vec![
                                    ("metric", Value::str(metric)),
                                    ("workload", Value::str(workload)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("prediction", Value::str(l.prediction)),
            ])
        })
        .collect();
    Value::obj(vec![
        ("run_seconds", RUN_SECONDS.into()),
        (
            "open_loop",
            Value::obj(vec![
                (
                    "rates_per_s",
                    Value::Arr(RATES.iter().map(|&r| r.into()).collect()),
                ),
                (
                    "rate_names",
                    Value::Arr(RATE_NAMES.iter().map(|&n| Value::str(n)).collect()),
                ),
                ("latency_limit_us", LATENCY_LIMIT_US.into()),
            ]),
        ),
        ("workloads", Value::Arr(workloads)),
        ("end_to_end", Value::Arr(e2e)),
        ("per_layer", Value::Arr(layers)),
    ])
}

/// The root `BENCHMARK.json`: the projection of the tables onto exactly
/// the keys the driver reads (`--benchmark-json` prints it).
pub fn benchmark_json() -> Value {
    Value::obj(vec![
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|&s| Value::str(s))
                .collect(),
            ),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj(vec![
                            ("name", Value::str(w.name)),
                            ("why", Value::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("bound", m.bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                per_layer()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_limits_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&per_layer().count()));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(
                w.why.chars().count() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in per_layer() {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    #[test]
    fn the_issue_s_67_per_layer_names_are_all_here() {
        // The 67 of ISSUE 11 plus the seven metrics demoted from its
        // end-to-end list.
        assert_eq!(per_layer().count(), 67 + 7);
        for name in [
            "core.fast_insert_frac",
            "layout.search_ns.simd",
            "metrics.histograms_overhead_ns",
            "paged.vs_arena",
            "conc.olc_fallbacks",
            "mvcc.gc_reclaimed",
            "wal.bytes_per_user_byte",
            "durable.insert_ns.group",
            "recovery.tail_records",
            "svc.gen_late_p99_us",
            "trace.overhead_frac",
            "lat_p99_us.high",
            "max_ok_kops",
        ] {
            assert!(unit_of(name).is_some(), "{name}");
        }
    }

    #[test]
    fn moves_point_at_known_metrics_and_workloads() {
        for layer in &LAYERS {
            for &(metric, wl) in layer.moves {
                assert!(unit_of(metric).is_some(), "{metric}");
                assert!(workload(wl).is_some(), "{wl}");
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 << 10);
        let on_disk = crate::json::parse(&text).expect("valid JSON");
        // Not `assert_eq!`: a mismatch would print both documents in full.
        assert!(
            on_disk == benchmark_json(),
            "BENCHMARK.json is stale: regenerate with `--benchmark-json > BENCHMARK.json`"
        );
        let keys: Vec<&str> = on_disk.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for part in on_disk.get("command").unwrap().as_arr() {
            let part = part.as_str().unwrap();
            assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
        }
    }

    #[test]
    fn seconds_cut_repetitions_before_sizes() {
        let base = sizes(EMBED_SCRAMBLED);
        let run = RUN_SECONDS as f64;
        let full = scaled(EMBED_SCRAMBLED, run, false);
        assert_eq!((full.reps, full.n), (base.reps, base.n));
        let half = scaled(EMBED_SCRAMBLED, run / 2.0, false);
        assert_eq!((half.reps, half.n), (base.reps / 2, base.n));
        let tiny = scaled(EMBED_SCRAMBLED, run / 100.0, false);
        assert_eq!(tiny.reps, 1);
        assert_eq!(tiny.n, base.n * base.reps / 100);
        let quick = scaled(SVC_MIXED, run, true);
        assert_eq!(quick.reps, 1);
        assert_eq!((quick.n, quick.preload), (20_000, 20_000));
        assert!(
            quick.sync_inserts >= 1_000,
            "a p99 still has ten samples beyond it"
        );
    }
}
