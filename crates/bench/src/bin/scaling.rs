//! Fig-13-style thread-scaling matrix for the concurrent tree, comparing
//! optimistic lock coupling (OLC) against the pessimistic lock-crabbing
//! baseline, with machine-readable output.
//!
//! Grid: threads {1, 2, 4, 8} (∩ `--threads`) × workloads {read-only
//! point lookups, mixed 50/50 read-insert, sorted ingest with readers} ×
//! {OLC on, OLC off}. Every cell reports ops/sec plus the tree's OLC
//! restart/fallback counters, and the whole matrix is written as
//! hand-rolled JSON to `results/scaling.json`.
//!
//! `--check` turns the run into a self-asserting smoke test for CI: the
//! emitted document must pass the shared mini JSON validator, every cell
//! must have made progress, and read-only throughput at the highest
//! measured thread count must not collapse below the single-thread run
//! (with a documented tolerance for single-core runners, where extra
//! threads add scheduling overhead but no parallelism).

use bods::{point_lookup_keys, BodsSpec};
use quit_bench::{json_is_valid, print_table, Opts};
use quit_concurrent::{ConcConfig, ConcurrentTree};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Single-core runners (the CI container has one physical core) make
/// "4 threads ≥ 1 thread" unachievable in the strict sense: the work is
/// serialized either way and context switches only subtract. The check
/// therefore allows this fraction of regression before failing.
const SCALING_TOLERANCE: f64 = 0.85;

struct Cell {
    workload: &'static str,
    threads: usize,
    olc: bool,
    ops: u64,
    secs: f64,
    restarts: u64,
    fallbacks: u64,
}

impl Cell {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.secs.max(1e-9)
    }
}

fn build(opts: &Opts, olc: bool) -> Arc<ConcurrentTree<u64, u64>> {
    Arc::new(ConcurrentTree::new(
        ConcConfig::from_tree(opts.tree_config()).with_olc(olc),
    ))
}

fn prefill(tree: &ConcurrentTree<u64, u64>, keys: &[u64]) {
    for &k in keys {
        tree.insert(k, k);
    }
}

/// T threads over disjoint slices of the probe set; zero mutations.
fn run_read_only(opts: &Opts, keys: &[u64], probes: &[u64], threads: usize, olc: bool) -> Cell {
    let mut best: Option<Cell> = None;
    for _ in 0..opts.reps.max(1) {
        let tree = build(opts, olc);
        prefill(&tree, keys);
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let tree = tree.clone();
                let mine: Vec<u64> = probes.iter().skip(t).step_by(threads).copied().collect();
                s.spawn(move || {
                    let mut hits = 0usize;
                    for k in mine {
                        if tree.get(k).is_some() {
                            hits += 1;
                        }
                    }
                    std::hint::black_box(hits);
                });
            }
        });
        let secs = start.elapsed().as_secs_f64();
        let stats = tree.stats();
        let cell = Cell {
            workload: "read_only",
            threads,
            olc,
            ops: probes.len() as u64,
            secs,
            restarts: stats.olc_restarts.get(),
            fallbacks: stats.olc_fallbacks.get(),
        };
        if best.as_ref().is_none_or(|b| cell.secs < b.secs) {
            best = Some(cell);
        }
    }
    best.expect("at least one repetition")
}

/// Every thread alternates a lookup into the prefilled range with an
/// insert into its own fresh partition — 50/50 at any instant.
fn run_mixed(opts: &Opts, keys: &[u64], probes: &[u64], threads: usize, olc: bool) -> Cell {
    let per = (probes.len() / threads.max(1)).max(1);
    let fresh_base = keys.iter().copied().max().unwrap_or(0) + 1;
    let mut best: Option<Cell> = None;
    for _ in 0..opts.reps.max(1) {
        let tree = build(opts, olc);
        prefill(&tree, keys);
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let tree = tree.clone();
                let mine: Vec<u64> = probes
                    .iter()
                    .skip(t)
                    .step_by(threads)
                    .take(per)
                    .copied()
                    .collect();
                s.spawn(move || {
                    let mut hits = 0usize;
                    for (i, k) in mine.into_iter().enumerate() {
                        if tree.get(k).is_some() {
                            hits += 1;
                        }
                        let fresh = fresh_base + (i * threads + t) as u64;
                        tree.insert(fresh, fresh);
                    }
                    std::hint::black_box(hits);
                });
            }
        });
        let secs = start.elapsed().as_secs_f64();
        let stats = tree.stats();
        let cell = Cell {
            workload: "mixed_50_50",
            threads,
            olc,
            ops: 2 * (per * threads) as u64,
            secs,
            restarts: stats.olc_restarts.get(),
            fallbacks: stats.olc_fallbacks.get(),
        };
        if best.as_ref().is_none_or(|b| cell.secs < b.secs) {
            best = Some(cell);
        }
    }
    best.expect("at least one repetition")
}

/// One writer appends a fully sorted stream (the poℓe fast-path regime)
/// while the remaining threads read the stable prefix until it finishes.
fn run_sorted_ingest(opts: &Opts, keys: &[u64], probes: &[u64], threads: usize, olc: bool) -> Cell {
    let ingest = (keys.len() / 2).max(1);
    let fresh_base = keys.iter().copied().max().unwrap_or(0) + 1;
    let mut best: Option<Cell> = None;
    for _ in 0..opts.reps.max(1) {
        let tree = build(opts, olc);
        prefill(&tree, keys);
        let done = AtomicBool::new(false);
        let reads = AtomicU64::new(0);
        let start = Instant::now();
        std::thread::scope(|s| {
            {
                let tree = tree.clone();
                let done = &done;
                s.spawn(move || {
                    for i in 0..ingest as u64 {
                        tree.insert(fresh_base + i, i);
                    }
                    done.store(true, Ordering::Relaxed);
                });
            }
            for t in 1..threads {
                let tree = tree.clone();
                let (done, reads) = (&done, &reads);
                s.spawn(move || {
                    let mut hits = 0usize;
                    let mut local = 0u64;
                    let mut i = t;
                    while !done.load(Ordering::Relaxed) {
                        let k = probes[i % probes.len()];
                        if tree.get(k).is_some() {
                            hits += 1;
                        }
                        local += 1;
                        i += threads;
                    }
                    reads.fetch_add(local, Ordering::Relaxed);
                    std::hint::black_box(hits);
                });
            }
        });
        let secs = start.elapsed().as_secs_f64();
        let stats = tree.stats();
        let cell = Cell {
            workload: "sorted_ingest_readers",
            threads,
            olc,
            ops: ingest as u64 + reads.load(Ordering::Relaxed),
            secs,
            restarts: stats.olc_restarts.get(),
            fallbacks: stats.olc_fallbacks.get(),
        };
        // Reader counts vary between reps; highest throughput wins.
        if best
            .as_ref()
            .is_none_or(|b| cell.ops_per_sec() > b.ops_per_sec())
        {
            best = Some(cell);
        }
    }
    best.expect("at least one repetition")
}

fn main() {
    let opts = Opts::from_args();
    let check = std::env::args().any(|a| a == "--check");
    let n = opts.n;
    let thread_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= opts.max_threads)
        .collect();

    let keys = BodsSpec::new(n, 0.05, 1.0).with_seed(opts.seed).generate();
    let probes = point_lookup_keys(n, (n / 2).max(10_000), opts.seed ^ 3);

    let mut cells: Vec<Cell> = Vec::new();
    for &threads in &thread_counts {
        for olc in [true, false] {
            cells.push(run_read_only(&opts, &keys, &probes, threads, olc));
            cells.push(run_mixed(&opts, &keys, &probes, threads, olc));
            cells.push(run_sorted_ingest(&opts, &keys, &probes, threads, olc));
        }
    }

    // Human-readable matrix.
    let mut rows = Vec::new();
    for c in &cells {
        rows.push(vec![
            c.workload.to_string(),
            c.threads.to_string(),
            if c.olc { "olc" } else { "pess" }.to_string(),
            format!("{:.2}M", c.ops_per_sec() / 1e6),
            c.restarts.to_string(),
            c.fallbacks.to_string(),
        ]);
    }
    print_table(
        &format!(
            "Thread scaling, OLC vs pessimistic (N={n}, best of {})",
            opts.reps
        ),
        &[
            "workload",
            "threads",
            "mode",
            "ops/sec",
            "restarts",
            "fallbacks",
        ],
        &rows,
    );
    let speedup = |workload: &str, threads: usize| -> Option<f64> {
        let find = |olc| {
            cells
                .iter()
                .find(|c| c.workload == workload && c.threads == threads && c.olc == olc)
                .map(Cell::ops_per_sec)
        };
        Some(find(true)? / find(false)?)
    };
    for &t in &thread_counts {
        if let Some(s) = speedup("read_only", t) {
            println!("read-only OLC/pessimistic at {t} threads: {s:.2}x");
        }
    }

    // Machine-readable matrix.
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut out = format!(
        "{{\"n\":{n},\"reps\":{},\"available_parallelism\":{parallelism},\"rows\":[",
        opts.reps
    );
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"workload\":\"{}\",\"threads\":{},\"olc\":{},\"ops\":{},\"secs\":{:.6},\
             \"ops_per_sec\":{:.1},\"olc_restarts\":{},\"olc_fallbacks\":{}}}",
            c.workload,
            c.threads,
            c.olc,
            c.ops,
            c.secs,
            c.ops_per_sec(),
            c.restarts,
            c.fallbacks
        ));
    }
    out.push_str("]}");
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/scaling.json", &out).expect("write results/scaling.json");
    println!("wrote results/scaling.json ({} bytes)", out.len());

    if check {
        assert!(json_is_valid(&out), "emitted document must be valid JSON");
        for c in &cells {
            assert!(
                c.ops > 0 && c.ops_per_sec() > 0.0,
                "cell {}/{}threads/olc={} made no progress",
                c.workload,
                c.threads,
                c.olc
            );
            if !c.olc {
                assert_eq!(c.restarts, 0, "pessimistic cells must not restart");
                assert_eq!(c.fallbacks, 0, "pessimistic cells must not fall back");
            }
        }
        let top = *thread_counts.iter().max().unwrap();
        let tput = |threads| {
            cells
                .iter()
                .find(|c| c.workload == "read_only" && c.threads == threads && c.olc)
                .map(Cell::ops_per_sec)
                .expect("read_only cell present")
        };
        let (one, many) = (tput(1), tput(top));
        assert!(
            many >= SCALING_TOLERANCE * one,
            "read-only throughput collapsed: {many:.0} ops/s at {top} threads \
             vs {one:.0} at 1 (tolerance {SCALING_TOLERANCE})"
        );
        println!(
            "check passed: JSON valid, all cells progressed, \
             read-only {top}-thread/1-thread ratio {:.2}",
            many / one
        );
    }
}
