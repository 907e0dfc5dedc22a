//! `paged-pressure`: the `Quit::open_paged` stack (a durable single-writer
//! `BpTree` on 4 KiB pages) with the buffer pool at one eighth of the
//! working-set pages — the one workload larger than the program's own
//! cache. Sorted ingest, uniform random gets, one full scan, an
//! interleaved phase, `checkpoint`, a 10 % tail, lazy reopen.
//!
//! Like `txn-durable` it runs on `MemStorage` (see there for why), opened
//! exactly as `QuitPaged::open` opens a directory. Keys are the dense
//! integers `0..`, so the model is a rule rather than a map: key `k` is
//! present iff it was inserted, with `value_of(k)`.

use crate::model::{
    entries, generate_timed, ratio, stored_bytes, stream, sub_seed, uniform_keys, value_of, Ctx,
    ScanDigest,
};
use crate::report::{Outcome, Reps, Tally};
use crate::stats;
use quit_core::{BpTree, FastPathMode, SortedIndex, StatsSnapshot, StorageKind, TreeConfig};
use quit_durability::{DurabilityConfig, Durable, MemStorage, RecoveryReport, Storage};
use std::sync::Arc;
use std::time::Instant;

type Store = Durable<BpTree<u64, u64>>;

/// Keys per `insert_batch`: one WAL append and one group commit each. (A
/// per-key insert is an fsync; those are timed in the interleaved phase.)
const BATCH: usize = 4096;
/// The façade's paged geometry: 120 entries of `(u64, u64)` plus node
/// metadata fit one 4 KiB page.
const PAGED_LEAF_CAPACITY: usize = 120;
const PAGE_BYTES: usize = 4096;

struct Inputs {
    ingest: Vec<u64>,
    gets: Vec<u64>,
    mixed: Vec<u64>,
    mixed_gets: Vec<u64>,
    tail: Vec<u64>,
}

fn inputs(ctx: &Ctx) -> Inputs {
    let s = &ctx.sizes;
    let n = s.n as u64;
    let sorted = |count: usize, base: u64, lane: u64| {
        stream(count, 0.0, 1.0, base, sub_seed(ctx.seed, lane))
    };
    let before_tail = s.n + s.mixed;
    Inputs {
        ingest: sorted(s.n, 0, 1),
        gets: uniform_keys(0, n, s.gets, sub_seed(ctx.seed, 2)),
        mixed: sorted(s.mixed, n, 3),
        mixed_gets: uniform_keys(0, n, s.mixed, sub_seed(ctx.seed, 4)),
        tail: sorted(before_tail / 9, n + s.mixed as u64, 5),
    }
}

/// Opens (or reopens) the paged store on `disk` as `Quit::open_paged` does
/// on a directory: page-friendly geometry, group commit, poℓe fast path.
fn open(disk: &Arc<MemStorage>, pool_pages: usize) -> quit_core::Result<(Store, RecoveryReport)> {
    Durable::open_paged(
        disk.clone() as Arc<dyn Storage>,
        DurabilityConfig::group_commit(),
        FastPathMode::Pole,
        TreeConfig::small(PAGED_LEAF_CAPACITY).with_storage(StorageKind::paged(pool_pages)),
    )
}

/// Pages the ingest stream settles into, measured on an arena tree of the
/// same geometry.
fn working_set_pages(ingest: &[u64]) -> usize {
    let mut sizing: BpTree<u64, u64> =
        BpTree::with_config(FastPathMode::Pole, TreeConfig::small(PAGED_LEAF_CAPACITY));
    for &key in ingest {
        sizing.insert(key, key);
    }
    sizing.node_count()
}

#[derive(Default)]
struct Counters {
    working_set: usize,
    pool_pages: usize,
    after_ingest: StatsSnapshot,
    after_gets: StatsSnapshot,
    after_scan: StatsSnapshot,
    at_ckpt: StatsSnapshot,
    leaf_fill: f64,
    resident_nodes: usize,
    insert_ns: f64,
    get_ns: f64,
    wal_bytes: u64,
    ckpt_s: f64,
    ckpt_bytes: u64,
    snapshot_entries: usize,
    tail_records: usize,
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::new(crate::spec::PAGED_PRESSURE);
    let mut reps = Reps::default();
    let mut tally = Tally::default();
    let seed = ctx.seed;
    let s = ctx.sizes;

    let (inp, gen_s) = generate_timed(|| inputs(ctx));
    let ingest_entries = entries(&inp.ingest, seed);
    let tail_entries = entries(&inp.tail, seed);
    let expect_scan = ScanDigest::of(ingest_entries.iter().copied());

    let mut measured = Vec::new();
    let mut c = Counters::default();

    for rep in 0..s.reps {
        // Set-up: size the pool off the real working set, open the store.
        let t = Instant::now();
        c.working_set = working_set_pages(&inp.ingest);
        c.pool_pages = (c.working_set / 8).max(8);
        let disk = Arc::new(MemStorage::new());
        let Ok((mut db, _)) = open(&disk, c.pool_pages) else {
            tally.check(false);
            break;
        };
        reps.push("setup_s", gen_s + t.elapsed().as_secs_f64());
        let mut rep_s = 0.0;

        let batches: Vec<&[(u64, u64)]> = ingest_entries.chunks(BATCH).collect();
        let mut added = 0;
        let (t, _) = ctx.tracer.phase("paged.ingest", &batches, |_, batch| {
            added += db.insert_batch(batch);
        });
        rep_s += t.as_secs_f64();
        tally.add(s.n as u64, s.n.saturating_sub(added) as u64);
        reps.push("insert_mops", s.n as f64 / t.as_secs_f64() / 1e6);
        c.insert_ns = t.as_secs_f64() * 1e9 / s.n as f64;
        c.after_ingest = db.metrics();
        c.resident_nodes = db.inner().resident_nodes();
        c.leaf_fill = db.inner().memory_report().avg_leaf_occupancy;

        let mut got: Vec<Option<u64>> = Vec::with_capacity(inp.gets.len());
        let (t, _) = ctx.tracer.phase("paged.get", &inp.gets, |_, &key| {
            got.push(db.get(key));
        });
        rep_s += t.as_secs_f64();
        reps.push("get_mops", inp.gets.len() as f64 / t.as_secs_f64() / 1e6);
        c.get_ns = t.as_secs_f64() * 1e9 / inp.gets.len() as f64;
        for (g, &key) in got.iter().zip(&inp.gets) {
            tally.check(*g == Some(value_of(key, seed)));
        }
        c.after_gets = db.metrics();

        let (t, digest) = ctx
            .tracer
            .call("paged.scan", || ScanDigest::of(db.range(..)));
        rep_s += t.as_secs_f64();
        reps.push("scan_mkeys", digest.count as f64 / t.as_secs_f64() / 1e6);
        tally.check(digest.matches(&expect_scan));
        c.after_scan = db.metrics();

        // Interleaved single insert (each one an fsync, timed) and get.
        let mut lat = Vec::with_capacity(inp.mixed.len());
        let mut mixed_tally = Tally::default();
        let (t, _) = ctx.tracer.phase("paged.mixed", &inp.mixed, |i, &key| {
            let t0 = Instant::now();
            db.insert(key, value_of(key, seed));
            lat.push(t0.elapsed().as_nanos() as u64);
            let read = inp.mixed_gets[i];
            mixed_tally.add(1, 0);
            mixed_tally.check(db.get(read) == Some(value_of(read, seed)));
        });
        rep_s += t.as_secs_f64();
        tally.merge(mixed_tally);
        reps.push(
            "mixed_mops",
            (2 * inp.mixed.len()) as f64 / t.as_secs_f64() / 1e6,
        );
        reps.push_commit_latency(&mut lat, 1);

        c.at_ckpt = db.metrics();
        c.wal_bytes = stored_bytes(&*disk);
        let (t, checkpointed) = ctx
            .tracer
            .call("paged.checkpoint", || db.checkpoint_paged());
        tally.check(checkpointed.is_ok());
        c.ckpt_s = t.as_secs_f64();
        c.ckpt_bytes = stored_bytes(&*disk);
        reps.push(
            "bytes_per_entry",
            c.ckpt_bytes as f64 / db.len().max(1) as f64,
        );
        let mut added = 0;
        for batch in tail_entries.chunks(BATCH) {
            added += db.insert_batch(batch);
        }
        tally.add(
            inp.tail.len() as u64,
            inp.tail.len().saturating_sub(added) as u64,
        );
        let expected_len = s.n + inp.mixed.len() + inp.tail.len();
        tally.check(db.len() == expected_len);
        drop(db);
        measured.push(rep_s);

        // Lazy reopen: the page image is verified, nodes fault in on use,
        // the tail replays.
        for i in 0..s.recoveries {
            let (t, reopened) = ctx
                .tracer
                .call("paged.reopen", || open(&disk, c.pool_pages));
            let Ok((mut db, report)) = reopened else {
                tally.check(false);
                break;
            };
            reps.push("recovery_s", t.as_secs_f64());
            c.snapshot_entries = report.snapshot_entries;
            c.tail_records = report.tail_records;
            tally.check(db.len() == expected_len);
            if rep + 1 == s.reps && i + 1 == s.recoveries {
                verify_after_restart(&mut db, expected_len as u64, seed, &mut tally);
            }
        }
    }

    out.tally = tally;
    if !measured.is_empty() {
        out.measured_s = stats::median(&measured);
    }
    reps.finish(&mut out.metrics);
    per_layer(&mut out, &c, s.n);
    if ctx.tracer.on() {
        out.set("bods.gen_s", gen_s);
        let sortedness = bods::measure(&inp.ingest);
        out.set("bods.k_measured", sortedness.k_fraction);
        out.set("bods.l_measured", sortedness.l_fraction);
    }
    out
}

/// A key missing after the restart is a failed op: every 97th key and the
/// whole tail are read back.
fn verify_after_restart(db: &mut Store, len: u64, seed: u64, tally: &mut Tally) {
    let tail_from = len - len / 10;
    for key in (0..tail_from).step_by(97).chain(tail_from..len) {
        tally.check(db.get(key) == Some(value_of(key, seed)));
    }
}

fn per_layer(out: &mut Outcome, c: &Counters, n: usize) {
    let i = &c.after_ingest;
    out.set("core.fast_insert_frac", i.fast_insert_fraction());
    out.set("core.leaf_splits", i.leaf_splits as f64);
    out.set("core.variable_splits", i.variable_splits as f64);
    out.set("core.redistributions", i.redistributions as f64);
    out.set("core.fp_resets", i.fp_resets as f64);
    out.set("core.pole_catch_ups", i.pole_catch_ups as f64);
    out.set("core.leaf_fill", c.leaf_fill);
    out.set(
        "core.nodes_per_get",
        ratio(
            c.after_gets.lookup_node_accesses - i.lookup_node_accesses,
            c.after_gets.lookups - i.lookups,
        ),
    );
    out.set(
        "core.leaves_per_scan",
        ratio(
            c.after_scan.range_leaf_accesses - c.after_gets.range_leaf_accesses,
            c.after_scan.range_scans - c.after_gets.range_scans,
        ),
    );

    // Pool behaviour of the random-read phase, and totals up to the
    // checkpoint.
    let read_hits = c.after_gets.pool_hits - i.pool_hits;
    let read_faults = c.after_gets.page_faults - i.page_faults;
    let hit_rate = ratio(read_hits, read_hits + read_faults);
    out.set("pool.hit_rate", hit_rate);
    out.set("pool.page_faults", c.at_ckpt.page_faults as f64);
    out.set("pool.evictions", c.at_ckpt.page_evictions as f64);
    out.set("paged.insert_ns", c.insert_ns);
    out.set("paged.get_ns", c.get_ns);
    out.set(
        "paged.resident_bytes",
        (c.resident_nodes * PAGE_BYTES) as f64,
    );

    out.set("wal.appends", c.at_ckpt.wal_appends as f64);
    out.set("wal.fsyncs", c.at_ckpt.wal_fsyncs as f64);
    out.set(
        "wal.records_per_fsync",
        ratio(c.at_ckpt.wal_appends, c.at_ckpt.wal_fsyncs),
    );
    out.set(
        "wal.bytes_per_user_byte",
        ratio(c.wal_bytes, 16 * c.at_ckpt.wal_appends),
    );
    out.set("ckpt.s", c.ckpt_s);
    out.set("ckpt.bytes", c.ckpt_bytes as f64);
    out.set("recovery.snapshot_entries", c.snapshot_entries as f64);
    out.set("recovery.tail_records", c.tail_records as f64);

    out.predict(
        format!(
            "working set ({} pages for {n} keys) is at least 8x the pool ({} pages)",
            c.working_set, c.pool_pages
        ),
        c.working_set >= 8 * c.pool_pages,
    );
    out.predict(
        format!("the pool evicted ({} evictions)", c.at_ckpt.page_evictions),
        c.at_ckpt.page_evictions > 0,
    );
    out.predict(
        format!("random reads miss the pool (hit rate {hit_rate:.3} < 0.95)"),
        hit_rate < 0.95,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Sizes;
    use crate::trace::Tracer;

    fn exact_counters(seed: u64) -> (Outcome, Vec<(&'static str, f64)>) {
        let mut tracer = Tracer::new(false);
        let mut ctx = Ctx {
            seed,
            sizes: Sizes {
                reps: 1,
                n: 40_000,
                preload: 0,
                gets: 4_000,
                scans: 1,
                scan_len: 0,
                mixed: 1_000,
                sync_inserts: 0,
                recoveries: 2,
                rate_seconds: 0.0,
            },
            tracer: &mut tracer,
        };
        let out = run(&mut ctx);
        let exact = out
            .metrics
            .iter()
            .filter(|(name, _)| {
                ["pool.", "core.", "wal.", "recovery."]
                    .iter()
                    .any(|p| name.starts_with(p))
            })
            .map(|(&name, m)| (name, m.value))
            .collect();
        (out, exact)
    }

    #[test]
    fn pool_pressure_is_real_exact_and_loses_nothing() {
        let (out, a) = exact_counters(5);
        assert_eq!(out.tally.failed, 0);
        assert!(out.predictions.len() == 3 && out.predictions.iter().all(|p| p.holds));
        assert!(out.value("pool.evictions").unwrap() > 0.0);
        assert!(out.value("recovery.tail_records").unwrap() > 0.0);
        let (_, b) = exact_counters(5);
        assert_eq!(a, b, "one thread, no timers: the counters repeat exactly");
    }
}
