//! # quit-bench — the experiment harness
//!
//! One runnable binary per table and figure of the paper's evaluation (§5)
//! and nothing else: every number that is ours rather than the paper's comes
//! from the `benchmark/` package. Every binary prints the same rows or
//! series the paper reports, at a container-friendly default scale that the
//! `--n` flag (or `QUIT_BENCH_N`) raises to paper scale.
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `fig1a`  | Fig 1a — insert/lookup latency teaser (tail vs SWARE vs QuIT) |
//! | `fig3`   | Fig 3 — tail-B+-tree fast-insert fraction vs K |
//! | `fig5`   | Fig 5a/5b — ℓiℓ vs tail, plus the analytic model |
//! | `fig8`   | Fig 8 — ingestion speedup vs classical B+-tree |
//! | `fig9`   | Fig 9 — fast- vs top-insert fractions |
//! | `fig10`  | Fig 10a/b/c — occupancy, point lookups, range accesses |
//! | `fig11`  | Fig 11 — K×L heatmaps (fast inserts, occupancy) |
//! | `fig12`  | Fig 12 — alternating-sortedness stress test |
//! | `fig13`  | Fig 13 — concurrent scaling |
//! | `fig14`  | Fig 14 — SWARE vs QuIT latencies |
//! | `fig15`  | Fig 15 — real-world (synthetic stock) ingestion |
//! | `table2` | Table 2 — space reduction |
//! | `table3` | Table 3 — scalability with data size |
//! | `sensitivity` | IKR-scale and `T_R` tuning sweeps (§4.4's "little to no tuning") |

#![warn(missing_docs)]

use quit_core::{BpTree, SortedIndex, TreeConfig, Variant};
use std::time::{Duration, Instant};

/// Common command-line options shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Base dataset size (entries). Paper default is 500M; harness default
    /// is 2M.
    pub n: usize,
    /// Workload seed.
    pub seed: u64,
    /// Leaf/internal capacity (510 = paper's 4 KB pages).
    pub leaf_capacity: usize,
    /// Max threads for concurrency experiments.
    pub max_threads: usize,
    /// Repetitions for wall-clock measurements; the best run is kept
    /// (noisy-neighbour mitigation on shared CPUs).
    pub reps: usize,
    /// Quick mode: shrink everything ~10× (CI smoke runs).
    pub quick: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            n: 2_000_000,
            seed: 0xB0D5,
            leaf_capacity: 510,
            max_threads: 16,
            reps: 3,
            quick: false,
        }
    }
}

/// The line `--help` and every argument error print.
const USAGE: &str =
    "options: --n <entries> --seed <u64> --leaf-capacity <n> --threads <n> --reps <n> --quick";

/// Why [`Opts::parse`] produced no options.
#[derive(Debug, PartialEq)]
enum ArgsError {
    /// `--help` / `-h`.
    Help,
    /// A flag whose value is missing or not an unsigned integer.
    Invalid(String),
}

impl Opts {
    /// Parses `--n`, `--seed`, `--leaf-capacity`, `--threads`, `--reps`,
    /// `--quick` from the process arguments (and `QUIT_BENCH_N` from the
    /// environment). A flag whose value is missing or unparsable prints the
    /// usage line and exits with status 2; unknown flags warn and continue.
    pub fn from_args() -> Self {
        let mut base = Opts::default();
        if let Some(n) = std::env::var("QUIT_BENCH_N")
            .ok()
            .and_then(|n| n.parse().ok())
        {
            base.n = n;
        }
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Opts::parse(base, &args) {
            Ok(o) => o,
            Err(ArgsError::Help) => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            Err(ArgsError::Invalid(why)) => {
                eprintln!("{why}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Applies `args` (without the program name) on top of `base`.
    fn parse<S: AsRef<str>>(base: Opts, args: &[S]) -> Result<Opts, ArgsError> {
        let mut o = base;
        let mut args = args.iter().map(AsRef::as_ref);
        while let Some(flag) = args.next() {
            let mut value = || -> Result<u64, ArgsError> {
                let v = args
                    .next()
                    .ok_or_else(|| ArgsError::Invalid(format!("{flag}: missing value")))?;
                v.parse().map_err(|_| {
                    ArgsError::Invalid(format!("{flag}: '{v}' is not an unsigned integer"))
                })
            };
            match flag {
                "--n" => o.n = value()? as usize,
                "--seed" => o.seed = value()?,
                "--leaf-capacity" => o.leaf_capacity = value()? as usize,
                "--threads" => o.max_threads = value()? as usize,
                "--reps" => o.reps = (value()? as usize).max(1),
                "--quick" => o.quick = true,
                "--help" | "-h" => return Err(ArgsError::Help),
                other => eprintln!("ignoring unknown option {other}"),
            }
        }
        if o.quick {
            o.n = (o.n / 10).max(10_000);
        }
        Ok(o)
    }

    /// Tree geometry derived from the options.
    pub fn tree_config(&self) -> TreeConfig {
        TreeConfig::paper_default().with_leaf_capacity(self.leaf_capacity)
    }
}

/// Result of ingesting a workload into one index.
///
/// Generic over the index family: the driver functions below go through
/// [`SortedIndex`], so every family (QuIT/B+-tree variants, the concurrent
/// tree, SWARE's SA-B+-tree) is measured by identical code.
pub struct IngestRun<T> {
    /// The populated index.
    pub tree: T,
    /// Wall-clock ingest time.
    pub elapsed: Duration,
    /// Nanoseconds per insert.
    pub ns_per_insert: f64,
}

/// Ingests `keys` per key (values = arrival positions) into a fresh index
/// from `build`, repeated `reps` times keeping the fastest wall clock
/// (noisy-neighbour mitigation; the returned index is from the final
/// repetition — contents and counters are identical across repetitions).
pub fn ingest_index<T, F>(mut build: F, keys: &[u64], reps: usize) -> IngestRun<T>
where
    T: SortedIndex<u64, u64>,
    F: FnMut() -> T,
{
    let mut best: Option<Duration> = None;
    let mut tree = build();
    for rep in 0..reps.max(1) {
        if rep > 0 {
            tree = build();
        }
        let start = Instant::now();
        for (i, &k) in keys.iter().enumerate() {
            tree.insert(k, i as u64);
        }
        let elapsed = start.elapsed();
        best = Some(best.map_or(elapsed, |b| b.min(elapsed)));
    }
    let elapsed = best.expect("at least one repetition");
    IngestRun {
        ns_per_insert: elapsed.as_nanos() as f64 / keys.len().max(1) as f64,
        tree,
        elapsed,
    }
}

/// Builds `variant` and ingests `keys` (values = arrival positions).
pub fn ingest(variant: Variant, config: TreeConfig, keys: &[u64]) -> IngestRun<BpTree<u64, u64>> {
    ingest_reps(variant, config, keys, 1)
}

/// Like [`ingest`], repeated `reps` times keeping the fastest wall clock.
pub fn ingest_reps(
    variant: Variant,
    config: TreeConfig,
    keys: &[u64],
    reps: usize,
) -> IngestRun<BpTree<u64, u64>> {
    ingest_index(|| variant.build::<u64, u64>(config.clone()), keys, reps)
}

/// Runs `f` `reps` times and returns the fastest wall clock.
pub fn time_best<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    let mut best: Option<Duration> = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        let elapsed = start.elapsed();
        best = Some(best.map_or(elapsed, |b| b.min(elapsed)));
    }
    best.expect("at least one repetition")
}

/// Times point lookups for every probe key; returns nanoseconds per lookup.
/// (`&mut` because [`SortedIndex::get`] is `&mut self`: SWARE's buffered
/// tree cracks pages on reads.)
pub fn time_point_lookups<T: SortedIndex<u64, u64>>(tree: &mut T, probes: &[u64]) -> f64 {
    let start = Instant::now();
    let mut hits = 0usize;
    for &k in probes {
        if tree.get(k).is_some() {
            hits += 1;
        }
    }
    let elapsed = start.elapsed();
    std::hint::black_box(hits);
    elapsed.as_nanos() as f64 / probes.len().max(1) as f64
}

/// Pretty-prints a table with a header row.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// The K values (percent out-of-order) of Figs 8, 9, 10, 14 and Table 2.
pub const K_GRID: [f64; 8] = [0.0, 0.01, 0.03, 0.05, 0.10, 0.25, 0.50, 1.00];

/// Formats a fraction as a percent label like the paper axes.
pub fn pct(f: f64) -> String {
    if f == 0.0 {
        "0".into()
    } else if f < 0.01 {
        format!("{:.2}", f * 100.0)
    } else {
        format!("{:.0}", f * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_runs_and_counts() {
        let keys = bods::BodsSpec::new(20_000, 0.05, 1.0).generate();
        let run = ingest(Variant::Quit, TreeConfig::small(64), &keys);
        assert_eq!(run.tree.len(), 20_000);
        assert!(run.ns_per_insert > 0.0);
        run.tree.check_invariants().unwrap();
    }

    #[test]
    fn lookup_timer_finds_keys() {
        let keys: Vec<u64> = (0..10_000).collect();
        let mut run = ingest(Variant::Classic, TreeConfig::small(64), &keys);
        let probes = bods::point_lookup_keys(10_000, 1000, 7);
        let ns = time_point_lookups(&mut run.tree, &probes);
        assert!(ns > 0.0);
    }

    #[test]
    fn batch_ingest_matches_per_key() {
        let keys: Vec<u64> = (0..30_000).collect();
        let config = TreeConfig::small(64);
        let per_key = ingest(Variant::Quit, config.clone(), &keys);
        // Sorted keys: the arrival position `ingest` stores is the key.
        let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
        let mut batched = Variant::Quit.build::<u64, u64>(config);
        batched.insert_batch(&entries);
        assert!(
            per_key.tree.iter().eq(batched.iter()),
            "batch ingest must produce identical contents"
        );
        batched.check_invariants().unwrap();
    }

    #[test]
    fn ingest_index_drives_every_family() {
        // No per-family special-casing: the same generic driver handles
        // core, concurrent, and SWARE indexes.
        let keys = bods::BodsSpec::new(5_000, 0.05, 1.0).generate();
        let core = ingest_index(
            || Variant::Quit.build::<u64, u64>(TreeConfig::small(64)),
            &keys,
            1,
        );
        let conc = ingest_index(
            || {
                quit_concurrent::ConcurrentTree::<u64, u64>::new(
                    quit_concurrent::ConcConfig::paper_default(),
                )
            },
            &keys,
            1,
        );
        let mut sware = ingest_index(
            || sware::SaBpTree::<u64, u64>::new(sware::SwareConfig::small(256, 64)),
            &keys,
            1,
        );
        sware.tree.flush_all();
        assert_eq!(core.tree.len(), keys.len());
        assert_eq!(quit_concurrent::ConcurrentTree::len(&conc.tree), keys.len());
        assert_eq!(sware.tree.len(), keys.len());
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.0), "0");
        assert_eq!(pct(0.05), "5");
        assert_eq!(pct(0.001), "0.10");
        assert_eq!(pct(1.0), "100");
    }

    #[test]
    fn default_opts() {
        let o = Opts::default();
        assert_eq!(o.n, 2_000_000);
        assert_eq!(o.tree_config().leaf_capacity, 510);
    }

    #[test]
    fn parse_reads_every_flag_and_quick_scales_n() {
        let args = "--n 500000 --seed 7 --leaf-capacity 64 --threads 2 --reps 0 --quick";
        let args: Vec<&str> = args.split(' ').collect();
        let o = Opts::parse(Opts::default(), &args).unwrap();
        assert_eq!(
            (o.n, o.seed, o.leaf_capacity, o.max_threads, o.reps, o.quick),
            (50_000, 7, 64, 2, 1, true)
        );
    }

    #[test]
    fn parse_rejects_missing_and_unparsable_values() {
        for flag in ["--n", "--seed", "--leaf-capacity", "--threads", "--reps"] {
            assert!(USAGE.contains(flag), "--help must list {flag}");
            for args in [vec![flag], vec![flag, "2e6"], vec![flag, "--quick"]] {
                match Opts::parse(Opts::default(), &args) {
                    Err(ArgsError::Invalid(why)) => assert!(why.starts_with(flag), "{why}"),
                    other => panic!("{args:?} must be rejected, got {other:?}"),
                }
            }
        }
        assert_eq!(
            Opts::parse(Opts::default(), &["--n", "5", "--help"]).unwrap_err(),
            ArgsError::Help
        );
    }
}
