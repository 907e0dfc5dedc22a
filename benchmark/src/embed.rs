//! `embed-nearsorted` and `embed-scrambled`: the QuIT `BpTree` driven
//! directly, one thread, paper-default arena / Dense / Binary. The two
//! differ only in the sortedness of the stream, which decides whether the
//! fast path or the descents and intra-node shifts do the work.

use crate::model::{
    model_of, ratio, stream, sub_seed, uniform_keys, value_of, Ctx, Model, ScanDigest, GENERATIONS,
};
use crate::report::{Outcome, Reps, Tally};
use crate::stats;
use quit_core::{BpTree, StatsSnapshot, TreeConfig, Variant};
use std::time::Instant;

/// Inserts timed together for the commit latency: one 40 ns insert is
/// below what two clock reads resolve, sixteen are not.
const SYNC_GROUP: usize = 16;

/// Share of the key space, at its newest end, that point reads aim at.
/// Uniform reads over the whole 12 MB tree measure the host's shared L3
/// and memory more than the read path (ten runs spread by 7 to 24 %);
/// reads that favour recent keys keep their leaves in the private L2 and
/// still pay the full descent and leaf search.
const RECENT: u64 = 20;

/// Seeded inputs of one run. Keys `0..n` are the ingest stream; the mixed
/// and synchronous phases continue above it with the same sortedness.
struct Inputs {
    ingest: Vec<u64>,
    gets: Vec<u64>,
    scans: Vec<(u64, u64)>,
    mixed_inserts: Vec<u64>,
    mixed_gets: Vec<u64>,
    sync: Vec<u64>,
}

fn inputs(ctx: &Ctx, k: f64, l: f64) -> Inputs {
    let s = &ctx.sizes;
    let n = s.n as u64;
    let span = s.scan_len as u64;
    Inputs {
        ingest: stream(s.n, k, l, 0, sub_seed(ctx.seed, 1)),
        gets: uniform_keys(n - n / RECENT, n, s.gets, sub_seed(ctx.seed, 2)),
        scans: uniform_keys(
            0,
            n.saturating_sub(span).max(1),
            s.scans,
            sub_seed(ctx.seed, 3),
        )
        .into_iter()
        .map(|a| (a, a + span))
        .collect(),
        mixed_inserts: stream(s.mixed, k, l, n, sub_seed(ctx.seed, 4)),
        mixed_gets: uniform_keys(n - n / RECENT, n, s.mixed, sub_seed(ctx.seed, 5)),
        sync: stream(
            s.sync_inserts,
            k,
            l,
            n + s.mixed as u64,
            sub_seed(ctx.seed, 6),
        ),
    }
}

/// What the model says each read must return.
struct Expected {
    gets: Vec<Option<u64>>,
    scans: Vec<ScanDigest>,
    mixed_gets: Vec<Option<u64>>,
    final_len: usize,
    final_digest: ScanDigest,
}

fn expected(inp: &Inputs, seed: u64) -> Expected {
    let mut model: Model = model_of(&inp.ingest, seed);
    let gets = inp.gets.iter().map(|k| model.get(k).copied()).collect();
    let scans = inp
        .scans
        .iter()
        .map(|&(a, b)| ScanDigest::of(model.range(a..b).map(|(&k, &v)| (k, v))))
        .collect();
    // The mixed phase reads only keys of the ingest stream, so its replies
    // do not depend on how far its own inserts have got.
    let mixed_gets = inp
        .mixed_gets
        .iter()
        .map(|k| model.get(k).copied())
        .collect();
    for &k in inp.mixed_inserts.iter().chain(&inp.sync) {
        model.insert(k, value_of(k, seed));
    }
    Expected {
        gets,
        scans,
        mixed_gets,
        final_len: model.len(),
        final_digest: ScanDigest::of(model.iter().map(|(&k, &v)| (k, v))),
    }
}

fn mops(ops: usize, secs: f64) -> f64 {
    ops as f64 / secs / 1e6
}

pub fn run(ctx: &mut Ctx, name: &'static str, k: f64, l: f64) -> Outcome {
    let mut out = Outcome::new(name);
    let mut reps = Reps::default();
    let seed = ctx.seed;

    // Set-up is generating the inputs and deriving from the model what
    // every read must return; done several times, the last kept.
    let mut set_up = None;
    let mut gen_s = 0.0;
    for _ in 0..GENERATIONS {
        let t = Instant::now();
        let inp = inputs(ctx, k, l);
        gen_s = t.elapsed().as_secs_f64();
        let exp = expected(&inp, seed);
        reps.push("setup_s", t.elapsed().as_secs_f64());
        set_up = Some((inp, exp));
    }
    let (inp, exp) = set_up.expect("the set-ups ran");

    let mut tally = Tally::default();
    let mut got: Vec<Option<u64>> = Vec::with_capacity(inp.gets.len().max(inp.mixed_gets.len()));
    let mut digests: Vec<ScanDigest> = Vec::with_capacity(inp.scans.len());
    let mut chunk_ns: Vec<u64> = Vec::new();
    let mut measured = Vec::new();
    let mut counters = Counters::default();

    for _ in 0..ctx.sizes.reps {
        let mut tree: BpTree<u64, u64> = Variant::Quit.build(TreeConfig::paper_default());
        let mut rep_s = 0.0;

        let (t, chunks) = ctx.tracer.phase("embed.ingest", &inp.ingest, |_, &key| {
            tree.insert(key, value_of(key, seed));
        });
        chunk_ns.extend(chunks);
        rep_s += t.as_secs_f64();
        reps.push("insert_mops", mops(inp.ingest.len(), t.as_secs_f64()));
        tally.add(inp.ingest.len() as u64, 0);
        let after_ingest = tree.metrics();
        let memory = tree.memory_report();
        reps.push(
            "bytes_per_entry",
            (memory.paged_bytes + memory.metadata_bytes) as f64 / tree.len() as f64,
        );

        got.clear();
        let (t, _) = ctx.tracer.phase("embed.get", &inp.gets, |_, &key| {
            got.push(tree.get(key).copied());
        });
        rep_s += t.as_secs_f64();
        reps.push("get_mops", mops(inp.gets.len(), t.as_secs_f64()));
        for (g, e) in got.iter().zip(&exp.gets) {
            tally.check(g == e);
        }
        let after_gets = tree.metrics();

        digests.clear();
        let mut leaves = 0u64;
        let (t, _) = ctx.tracer.phase("embed.scan", &inp.scans, |_, &(a, b)| {
            let mut d = ScanDigest::default();
            let mut scan = tree.range(a..b);
            for (key, &value) in scan.by_ref() {
                d.push(key, value);
            }
            leaves += scan.leaf_accesses();
            digests.push(d);
        });
        rep_s += t.as_secs_f64();
        let returned: u64 = digests.iter().map(|d| d.count).sum();
        reps.push("scan_mkeys", returned as f64 / t.as_secs_f64() / 1e6);
        for (d, e) in digests.iter().zip(&exp.scans) {
            tally.check(d.matches(e));
        }
        let leaves_per_scan = leaves as f64 / inp.scans.len().max(1) as f64;

        got.clear();
        let (t, _) = ctx
            .tracer
            .phase("embed.mixed", &inp.mixed_inserts, |i, &key| {
                tree.insert(key, value_of(key, seed));
                got.push(tree.get(inp.mixed_gets[i]).copied());
            });
        rep_s += t.as_secs_f64();
        reps.push(
            "mixed_mops",
            mops(2 * inp.mixed_inserts.len(), t.as_secs_f64()),
        );
        tally.add(inp.mixed_inserts.len() as u64, 0);
        for (g, e) in got.iter().zip(&exp.mixed_gets) {
            tally.check(g == e);
        }

        let mut group_ns: Vec<u64> = Vec::with_capacity(inp.sync.len() / SYNC_GROUP + 1);
        let t_sync = Instant::now();
        for group in inp.sync.chunks(SYNC_GROUP) {
            let t0 = Instant::now();
            for &key in group {
                tree.insert(key, value_of(key, seed));
            }
            // Scaled to a full group so a short last group compares.
            group_ns.push(t0.elapsed().as_nanos() as u64 * SYNC_GROUP as u64 / group.len() as u64);
        }
        rep_s += t_sync.elapsed().as_secs_f64();
        tally.add(inp.sync.len() as u64, 0);
        reps.push_commit_latency(&mut group_ns, SYNC_GROUP);

        tally.check(tree.len() == exp.final_len);
        for _ in 0..ctx.sizes.recoveries {
            let snapshot = tree.to_snapshot();
            let (t, rebuilt) = ctx
                .tracer
                .call("embed.rebuild", || BpTree::from_snapshot(snapshot));
            rep_s += t.as_secs_f64();
            reps.push("recovery_s", t.as_secs_f64());
            let digest = ScanDigest::of(rebuilt.iter().map(|(key, &value)| (key, value)));
            tally.check(rebuilt.len() == exp.final_len && digest.matches(&exp.final_digest));
        }

        measured.push(rep_s);
        counters = Counters {
            after_ingest,
            after_gets,
            leaves_per_scan,
            leaf_fill: memory.avg_leaf_occupancy,
        };
    }

    out.tally = tally;
    out.measured_s = stats::median(&measured);
    reps.finish(&mut out.metrics);

    per_layer(&mut out, &counters, &mut chunk_ns);
    if ctx.tracer.on() {
        let sortedness = bods::measure(&inp.ingest);
        out.set("bods.gen_s", gen_s);
        out.set("bods.k_measured", sortedness.k_fraction);
        out.set("bods.l_measured", sortedness.l_fraction);
    }
    out
}

/// Counter snapshots of the last repetition; exact, so identical between
/// two runs with the same seed.
#[derive(Default)]
struct Counters {
    after_ingest: StatsSnapshot,
    after_gets: StatsSnapshot,
    leaves_per_scan: f64,
    leaf_fill: f64,
}

fn per_layer(out: &mut Outcome, c: &Counters, chunk_ns: &mut [u64]) {
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
    out.set("core.leaves_per_scan", c.leaves_per_scan);
    out.set("wal.appends", i.wal_appends as f64);
    out.set("wal.fsyncs", i.wal_fsyncs as f64);
    let fast = i.fast_insert_fraction();
    if out.workload == crate::spec::EMBED_NEARSORTED {
        out.predict(
            format!("the fast path does the work: core.fast_insert_frac {fast:.3} >= 0.85"),
            fast >= 0.85,
        );
    } else {
        out.predict(
            format!("the fast path is bypassed: core.fast_insert_frac {fast:.3} <= 0.05"),
            fast <= 0.05,
        );
    }
    out.predict(
        format!("the WAL is idle: wal.fsyncs = {}", i.wal_fsyncs),
        i.wal_fsyncs == 0,
    );
    if !chunk_ns.is_empty() {
        chunk_ns.sort_unstable();
        out.set(
            "core.insert_chunk_p99_ns",
            stats::percentile(chunk_ns, 99.0) as f64 / crate::trace::CHUNK as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Sizes;
    use crate::trace::Tracer;

    fn tiny() -> Sizes {
        Sizes {
            reps: 2,
            n: 30_000,
            preload: 0,
            gets: 2_000,
            scans: 50,
            scan_len: 100,
            mixed: 2_000,
            sync_inserts: 1_600,
            recoveries: 1,
            rate_seconds: 0.0,
        }
    }

    fn counters(seed: u64, name: &'static str, k: f64) -> (Outcome, Vec<(&'static str, f64)>) {
        let mut tracer = Tracer::new(true);
        let mut ctx = Ctx {
            seed,
            sizes: tiny(),
            tracer: &mut tracer,
        };
        let out = run(&mut ctx, name, k, k);
        let exact = out
            .metrics
            .iter()
            .filter(|(name, _)| name.starts_with("core.") && !name.ends_with("_ns"))
            .map(|(&name, m)| (name, m.value))
            .collect();
        (out, exact)
    }

    #[test]
    fn same_seed_gives_identical_exact_counters_and_no_failed_op() {
        let (first, a) = counters(7, crate::spec::EMBED_NEARSORTED, 0.05);
        let (_, b) = counters(7, crate::spec::EMBED_NEARSORTED, 0.05);
        assert_eq!(first.tally.failed, 0);
        assert!(first.tally.attempted > 60_000);
        assert!(a.len() >= 9, "{a:?}");
        assert_eq!(a, b);
        assert_eq!(
            first.metrics["bytes_per_entry"].reps[0],
            first.metrics["bytes_per_entry"].reps[1]
        );
        let (_, other_seed) = counters(8, crate::spec::EMBED_NEARSORTED, 0.05);
        assert_ne!(a, other_seed, "another seed is another stream");
    }

    #[test]
    fn the_two_streams_land_on_opposite_sides_of_the_fast_path() {
        let (near, _) = counters(3, crate::spec::EMBED_NEARSORTED, 0.05);
        let (scrambled, _) = counters(3, crate::spec::EMBED_SCRAMBLED, 1.0);
        assert!(near.value("core.fast_insert_frac").unwrap() > 0.8);
        assert!(scrambled.value("core.fast_insert_frac").unwrap() < 0.1);
        assert_eq!(scrambled.tally.failed, 0);
        assert!(near
            .predictions
            .iter()
            .chain(&scrambled.predictions)
            .any(|p| p.holds));
        assert_eq!(near.value("wal.fsyncs"), Some(0.0));
    }
}
