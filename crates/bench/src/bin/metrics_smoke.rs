//! Observability smoke test: ingest K%-sorted streams at
//! `MetricsLevel::Histograms`, snapshot the registry after every phase, and
//! dump all snapshots (counters, latency percentiles, fast-path window) to
//! `results/metrics_smoke.json`.
//!
//! Self-checking: the emitted document must pass a minimal hand-rolled JSON
//! validator, the fully sorted phase must report `fast_inserts > 0`, and
//! every phase's insert-latency histogram must have recorded exactly one
//! sample per insert.

use bods::BodsSpec;
use quit_bench::{json_is_valid, pct, Opts};
use quit_concurrent::{ConcConfig, ConcurrentTree};
use quit_core::{MetricsLevel, StatsSnapshot, TreeConfig, Variant};
use std::sync::Arc;

fn push_phase(out: &mut String, name: &str, snap: &StatsSnapshot) {
    if !out.ends_with('[') {
        out.push(',');
    }
    out.push_str(&format!("{{\"phase\":\"{name}\",\"metrics\":"));
    out.push_str(&snap.to_json());
    out.push('}');
}

fn main() {
    let opts = Opts::from_args();
    let n = opts.n;

    // Overhead sweep: identical sorted ingest at each MetricsLevel. The
    // Off→Counters delta prices the always-on counters + window; the
    // Counters→Histograms delta prices the two clock reads per operation.
    println!(
        "metrics-level overhead (sorted ingest, N={n}, best of {} reps):",
        opts.reps
    );
    let keys = BodsSpec::new(n, 0.0, 1.0).with_seed(opts.seed).generate();
    for level in [
        MetricsLevel::Off,
        MetricsLevel::Counters,
        MetricsLevel::Histograms,
    ] {
        let config = opts.tree_config().with_metrics_level(level);
        let mut best = f64::INFINITY;
        for _ in 0..opts.reps.max(1) {
            let mut tree = Variant::Quit.build::<u64, u64>(config.clone());
            let start = std::time::Instant::now();
            for (i, &key) in keys.iter().enumerate() {
                tree.insert(key, i as u64);
            }
            best = best.min(start.elapsed().as_nanos() as f64 / n as f64);
            std::hint::black_box(&tree);
        }
        println!("  {:<12} {best:>6.1} ns/insert", format!("{level:?}"));
    }

    let mut out = format!("{{\"n\":{n},\"phases\":[");

    // Single-threaded QuIT across the sortedness grid.
    for k in [0.0, 0.05, 1.0] {
        let keys = BodsSpec::new(n, k, 1.0).with_seed(opts.seed).generate();
        let config = opts
            .tree_config()
            .with_metrics_level(MetricsLevel::Histograms);
        let mut tree = Variant::Quit.build::<u64, u64>(config);
        for (i, &key) in keys.iter().enumerate() {
            tree.insert(key, i as u64);
        }
        for &key in keys.iter().step_by(101) {
            std::hint::black_box(tree.get(key));
        }
        std::hint::black_box(tree.range(..).count());
        let snap = tree.metrics();
        assert_eq!(
            snap.total_inserts(),
            n as u64,
            "K={k}: every insert must be counted"
        );
        assert_eq!(
            snap.insert_latency.count(),
            n as u64,
            "K={k}: one histogram sample per insert"
        );
        if k == 0.0 {
            assert!(
                snap.fast_inserts > 0,
                "sorted stream must hit the fast path"
            );
        }
        push_phase(&mut out, &format!("quit_k{}", pct(k)), &snap);
    }

    // Concurrent phase: 4 producers into one ConcurrentTree; counters must
    // stay exact (fetch_add write path), histogram count must match.
    let threads = 4.min(opts.max_threads.max(1));
    let keys = BodsSpec::new(n, 0.05, 1.0).with_seed(opts.seed).generate();
    let conc: Arc<ConcurrentTree<u64, u64>> = Arc::new(ConcurrentTree::new(ConcConfig::from_tree(
        TreeConfig::paper_default().with_metrics_level(MetricsLevel::Histograms),
    )));
    std::thread::scope(|s| {
        for t in 0..threads {
            let conc = conc.clone();
            let mine: Vec<u64> = keys.iter().skip(t).step_by(threads).copied().collect();
            s.spawn(move || {
                for k in mine {
                    conc.insert(k, k);
                }
            });
        }
    });
    let snap = conc.metrics();
    assert_eq!(
        snap.total_inserts(),
        n as u64,
        "concurrent counters must be exact"
    );
    assert_eq!(snap.insert_latency.count(), n as u64);
    push_phase(&mut out, &format!("concurrent_t{threads}"), &snap);

    out.push_str("]}");
    assert!(json_is_valid(&out), "emitted document must be valid JSON");
    assert!(out.contains("\"p99_ns\":"), "percentiles must be exported");

    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/metrics_smoke.json", &out).expect("write results/metrics_smoke.json");
    println!(
        "wrote results/metrics_smoke.json ({} bytes, {n} keys/phase)",
        out.len()
    );
    println!("all phase assertions passed (exact counters, histogram coverage, JSON validity)");
}
