//! Fig 13: concurrent throughput of QuIT vs the classical B+-tree as the
//! thread count grows, for (a) inserts at three sortedness levels and
//! (b) point lookups.

use bods::{point_lookup_keys, BodsSpec};
use quit_bench::{print_table, Opts};
use quit_concurrent::{ConcurrentTree, TreeConfig};
use std::sync::Arc;
use std::time::Instant;

/// A paper-default tree, QuIT's (`pole`) or the classical B+-tree.
fn build(pole: bool) -> Arc<ConcurrentTree<u64, u64>> {
    let config = TreeConfig::paper_default();
    Arc::new(if pole {
        ConcurrentTree::new(config)
    } else {
        ConcurrentTree::classic(config)
    })
}

fn run_inserts(keys: &[u64], threads: usize, pole: bool) -> f64 {
    let tree = build(pole);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let tree = tree.clone();
            let slice: Vec<u64> = keys.iter().skip(t).step_by(threads).copied().collect();
            s.spawn(move || {
                for k in slice {
                    tree.insert(k, k);
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(tree.len(), keys.len());
    keys.len() as f64 / secs
}

fn run_lookups(tree: &Arc<ConcurrentTree<u64, u64>>, probes: &[u64], threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let tree = tree.clone();
            let slice: Vec<u64> = probes.iter().skip(t).step_by(threads).copied().collect();
            s.spawn(move || {
                let mut hits = 0usize;
                for k in slice {
                    if tree.get(k).is_some() {
                        hits += 1;
                    }
                }
                std::hint::black_box(hits);
            });
        }
    });
    probes.len() as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let opts = Opts::from_args();
    let n = opts.n;
    let thread_counts: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&t| t <= opts.max_threads)
        .collect();
    let sortedness = [
        ("fully sorted", 0.0),
        ("near-sorted", 0.05),
        ("less sorted", 0.25),
    ];

    // (a) inserts
    let mut rows = Vec::new();
    for (label, k) in sortedness {
        let keys = BodsSpec::new(n, k, 1.0).with_seed(opts.seed).generate();
        for &t in &thread_counts {
            let quit = (0..opts.reps)
                .map(|_| run_inserts(&keys, t, true))
                .fold(f64::MIN, f64::max);
            let classic = (0..opts.reps)
                .map(|_| run_inserts(&keys, t, false))
                .fold(f64::MIN, f64::max);
            rows.push(vec![
                label.to_string(),
                t.to_string(),
                format!("{:.2}M", quit / 1e6),
                format!("{:.2}M", classic / 1e6),
                format!("{:.2}", quit / classic),
            ]);
        }
    }
    print_table(
        &format!("Fig 13a — concurrent insert throughput, op/sec (N={n})"),
        &["workload", "threads", "QuIT", "B+-tree", "QuIT/B+"],
        &rows,
    );
    println!("paper: QuIT 1.5-2x higher insert throughput, gap widens with threads");

    // (b) lookups
    let keys = BodsSpec::new(n, 0.05, 1.0).with_seed(opts.seed).generate();
    let (quit_tree, classic_tree) = (build(true), build(false));
    for &k in &keys {
        quit_tree.insert(k, k);
        classic_tree.insert(k, k);
    }
    let probes = point_lookup_keys(n, (n / 2).max(100_000), opts.seed ^ 3);
    let mut rows = Vec::new();
    for &t in &thread_counts {
        let q = (0..opts.reps)
            .map(|_| run_lookups(&quit_tree, &probes, t))
            .fold(f64::MIN, f64::max);
        let c = (0..opts.reps)
            .map(|_| run_lookups(&classic_tree, &probes, t))
            .fold(f64::MIN, f64::max);
        rows.push(vec![
            t.to_string(),
            format!("{:.2}M", q / 1e6),
            format!("{:.2}M", c / 1e6),
        ]);
    }
    print_table(
        "Fig 13b — concurrent lookup throughput, op/sec",
        &["threads", "QuIT", "B+-tree"],
        &rows,
    );
    println!("paper: both scale near-linearly to 8 threads, flattening at 16");
}
