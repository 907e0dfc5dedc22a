//! Multi-threaded ingestion (paper §4.5 / Fig 13): several producer threads
//! feed one concurrent QuIT; the poℓe fast path keeps the critical section
//! to a single leaf lock, so near-sorted streams scale better than the
//! crabbing B+-tree.
//!
//! ```sh
//! cargo run --release --example concurrent_ingest
//! ```

use quick_insertion_tree::bods::BodsSpec;
use quick_insertion_tree::quit_concurrent::{ConcurrentTree, TreeConfig};
use std::sync::Arc;
use std::time::Instant;

fn ingest(
    keys: &[u64],
    threads: usize,
    tree: ConcurrentTree<u64, u64>,
) -> (f64, Arc<ConcurrentTree<u64, u64>>) {
    let tree = Arc::new(tree);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let tree = tree.clone();
            let mine: Vec<u64> = keys.iter().skip(t).step_by(threads).copied().collect();
            s.spawn(move || {
                for k in mine {
                    tree.insert(k, k);
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    (keys.len() as f64 / secs, tree)
}

fn main() {
    let n = 1_000_000;
    let keys = BodsSpec::new(n, 0.05, 1.0).generate(); // near-sorted feed
    println!("ingesting {n} near-sorted keys (K=5%)\n");
    println!(
        "{:>8} {:>14} {:>14} {:>8}",
        "threads", "QuIT op/s", "B+-tree op/s", "ratio"
    );
    for threads in [1, 2, 4, 8] {
        let config = TreeConfig::paper_default();
        let (quit_tput, quit_tree) = ingest(&keys, threads, ConcurrentTree::new(config.clone()));
        let (classic_tput, _) = ingest(&keys, threads, ConcurrentTree::classic(config));
        println!(
            "{threads:>8} {:>13.2}M {:>13.2}M {:>7.2}x",
            quit_tput / 1e6,
            classic_tput / 1e6,
            quit_tput / classic_tput
        );
        if threads == 8 {
            let m = quit_tree.metrics();
            println!(
                "\nat 8 threads QuIT served {:.1}% of inserts through the single-leaf fast path",
                100.0 * m.fast_insert_fraction()
            );
            println!(
                "fast-path rate over the last {} inserts: {:.1}%",
                m.window_len,
                100.0 * m.recent_fastpath_rate()
            );
            // Readers run concurrently with no coordination beyond the
            // shared locks.
            let sample = quit_tree.range(1000..1100).count();
            println!("range [1000, 1100) sees {sample} entries");
        }
    }
}
