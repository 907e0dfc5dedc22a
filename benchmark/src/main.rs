//! The one benchmark of this repository. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <u64> [--seconds <s>] [--trace [0|1]] \
//!     [--quick] [--check] [--out report.json]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare a.json b.json
//! ```

mod compare;
mod embed;
mod env;
mod json;
mod model;
mod openloop;
mod paged;
mod probes;
mod report;
mod spec;
mod stats;
mod svc;
mod trace;
mod txn;

use json::Value;
use model::Ctx;
use report::Outcome;
use spec::{Sizes, Source};
use std::path::{Path, PathBuf};
use trace::Tracer;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "\
quit-benchmark: six workloads, seven end-to-end metrics, a per-layer ladder

  --workload <name|all>   embed-nearsorted embed-scrambled txn-durable
                          paged-pressure svc-ingest svc-mixed (default all)
  --seed <u64>            seeds every input (default 1)
  --seconds <s>           measured time per workload (default 20)
  --trace [0|1]           also run the traced pass and the layer probes
  --quick                 all code paths at a tenth of the size, one repetition
  --check                 exit non-zero on a failed op or a violated prediction
  --out <file>            write the full report as JSON
  --compare <a> <b>       compare two reports metric by metric
  --describe              print workloads, sizes, metrics and predictions as JSON
  --benchmark-json        print the root BENCHMARK.json

One workload prints one JSON line (correct, attempted, failed, metrics);
`all` prints the full report. Progress goes to standard error.";

fn fail(msg: &str) -> ! {
    eprintln!("quit-benchmark: {msg}");
    std::process::exit(2)
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        workload: "all".into(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        check: false,
        out: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i)
            .cloned()
            .unwrap_or_else(|| fail(&format!("{} needs a value", args[*i - 1])))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => opts.workload = value(&mut i),
            "--seed" => {
                opts.seed = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| fail("--seed takes a u64"))
            }
            "--seconds" => {
                opts.seconds = value(&mut i)
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| fail("--seconds takes a positive number"))
            }
            "--trace" => {
                // A bare flag, or the driver's `--trace 0|1`.
                opts.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => opts.quick = true,
            "--check" => opts.check = true,
            "--out" => opts.out = Some(PathBuf::from(value(&mut i))),
            "--compare" => {
                let (a, b) = (value(&mut i), value(&mut i));
                std::process::exit(compare::main(Path::new(&a), Path::new(&b)));
            }
            "--describe" => {
                print!("{}", spec::describe().to_pretty());
                std::process::exit(0);
            }
            "--benchmark-json" => {
                print!("{}", spec::benchmark_json().to_pretty());
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => fail(&format!("unknown option {other}\n\n{USAGE}")),
        }
        i += 1;
    }
    if opts.workload != "all" && spec::workload(&opts.workload).is_none() {
        fail(&format!("unknown workload {}", opts.workload));
    }
    opts
}

/// The repository root: where the driver runs the command from, or — when
/// started from elsewhere — the parent of this package at build time.
fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("benchmark/Cargo.toml").is_file() {
        cwd
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .map_or(cwd, Path::to_path_buf)
    }
}

fn run_pass(name: &'static str, seed: u64, sizes: Sizes, tracer: &mut Tracer) -> Outcome {
    let mut ctx = Ctx {
        seed,
        sizes,
        tracer,
    };
    match name {
        spec::EMBED_NEARSORTED => embed::run(&mut ctx, name, 0.05, 0.05),
        spec::EMBED_SCRAMBLED => embed::run(&mut ctx, name, 1.0, 1.0),
        spec::TXN_DURABLE => txn::run(&mut ctx),
        spec::PAGED_PRESSURE => paged::run(&mut ctx),
        spec::SVC_INGEST => svc::run(&mut ctx, name, svc::Mix::Ingest),
        spec::SVC_MIXED => svc::run(&mut ctx, name, svc::Mix::Mixed),
        other => unreachable!("workload {other} was validated"),
    }
}

/// One workload: the untraced pass gives the end-to-end numbers; with
/// `--trace` a second, traced pass and the layer probes give the per-layer
/// ones, and the two passes' timed phases give the tracing overhead.
fn run_workload(name: &'static str, opts: &Opts, contract: bool, out_dir: &Path) -> Outcome {
    let sizes = spec::scaled(name, opts.seconds, opts.quick);
    // The traced pass repeats less: its numbers carry no bound. When only
    // the per-layer metrics will be printed, so does the untraced reference.
    let short = Sizes {
        reps: sizes.reps.min(2),
        ..sizes
    };
    let untraced_sizes = if opts.trace && contract { short } else { sizes };
    eprintln!("[{name}] untraced pass: {untraced_sizes:?}");
    let mut off = Tracer::new(false);
    let mut out = run_pass(name, opts.seed, untraced_sizes, &mut off);
    if !opts.trace {
        return out;
    }

    eprintln!("[{name}] traced pass");
    let mut on = Tracer::new(true);
    let traced = run_pass(name, opts.seed, short, &mut on);
    let trace_file = out_dir.join(format!("trace-{name}-{}.jsonl", opts.seed));
    if let Err(e) = on.write_to(&trace_file) {
        out.notes
            .push(format!("could not write {}: {e}", trace_file.display()));
    } else {
        out.notes.push(format!(
            "{} spans in {}",
            on.spans().len(),
            trace_file.display()
        ));
    }
    let selfs: Vec<String> = trace::self_seconds_by_name(on.spans())
        .iter()
        .map(|(name, s)| format!("{name} {s:.3}"))
        .collect();
    out.notes.push(format!(
        "traced pass self time by span, s: {}",
        selfs.join(", ")
    ));

    eprintln!("[{name}] layer probes");
    let probed = probes::run(opts.seed, out_dir, opts.quick);

    // What the workload measured on its own stack comes first (the
    // untraced pass's numbers, then what only the traced pass produces),
    // the probes fill in the rest, and a count nobody produced is a layer
    // the workload bypassed.
    out.tally.merge(traced.tally);
    out.tally.merge(probed.tally);
    for (name, m) in traced.metrics.into_iter().chain(probed.metrics) {
        if spec::end_to_end(name).is_none() {
            out.metrics.entry(name).or_insert(m);
        }
    }
    for m in spec::per_layer() {
        if m.source == Source::Workload {
            out.metrics
                .entry(m.name)
                .or_insert_with(|| report::Measure::single(0.0));
        }
    }
    let overhead = traced.measured_s / out.measured_s - 1.0;
    out.set("trace.overhead_frac", overhead);
    // The traced pass repeats the untraced one's predictions; the probes
    // make none.
    out.notes.extend(traced.notes);
    out.notes.extend(probed.notes);
    out
}

fn print_table(out: &Outcome) {
    eprintln!(
        "[{}] ops attempted {} failed {}",
        out.workload, out.tally.attempted, out.tally.failed
    );
    for (name, m) in &out.metrics {
        let unit = spec::unit_of(name).unwrap_or("?");
        let kind = if spec::end_to_end(name).is_some() {
            "e2e  "
        } else {
            "layer"
        };
        let mut line = format!("  {kind} {name:<32} {:>16.6} {unit}", m.value);
        if m.reps.len() > 1 {
            let reps: Vec<String> = m.reps.iter().map(|v| format!("{v:.4}")).collect();
            line.push_str(&format!(
                "  (median {:.4}, spread {:.1}%, better half within {:.1}% of [{}])",
                m.median,
                m.spread * 100.0,
                m.half_width * 100.0,
                reps.join(" ")
            ));
        }
        if m.samples > 0 {
            line.push_str(&format!("  [{} samples]", m.samples));
        }
        if let Some((p, v)) = m.tail {
            line.push_str(&format!("  p{p} = {v:.3}"));
        }
        eprintln!("{line}");
    }
    for p in &out.predictions {
        eprintln!(
            "  {} {}",
            if p.holds { "holds   " } else { "VIOLATED" },
            p.claim
        );
    }
    for n in &out.notes {
        eprintln!("  note: {n}");
    }
}

fn main() {
    let opts = parse_args();
    let root = repo_root();
    let out_dir = root.join("benchmark/out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        fail(&format!("cannot create {}: {e}", out_dir.display()));
    }

    let names: Vec<&'static str> = spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|&n| opts.workload == "all" || opts.workload == n)
        .collect();
    let contract = names.len() == 1;

    let mut outcomes = Vec::new();
    for name in names {
        let out = run_workload(name, &opts, contract, &out_dir);
        print_table(&out);
        outcomes.push(out);
    }

    let mut cross = Vec::new();
    if opts.trace {
        cross = probes::cross_workload_predictions(&outcomes);
        for p in &cross {
            eprintln!(
                "  {} {}",
                if p.holds { "holds   " } else { "VIOLATED" },
                p.claim
            );
        }
    }

    let report = Value::obj(vec![
        (
            "header",
            env::header(&root, &out_dir, opts.seed, opts.seconds, opts.quick),
        ),
        (
            "workloads",
            Value::Arr(outcomes.iter().map(Outcome::to_json).collect()),
        ),
        (
            "cross_workload_predictions",
            Value::Arr(cross.iter().map(report::Prediction::to_json).collect()),
        ),
    ]);
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, report.to_pretty()) {
            fail(&format!("cannot write {}: {e}", path.display()));
        }
    }

    if contract {
        match outcomes[0].contract_line(opts.trace) {
            Ok(line) => println!("{line}"),
            Err(e) => fail(&e),
        }
    } else {
        print!("{}", report.to_pretty());
    }

    if opts.check {
        let failed: u64 = outcomes.iter().map(|o| o.tally.failed).sum();
        let violated = outcomes
            .iter()
            .flat_map(|o| &o.predictions)
            .chain(&cross)
            .filter(|p| !p.holds)
            .count();
        if failed > 0 || violated > 0 {
            eprintln!("check failed: {failed} failed ops, {violated} violated predictions");
            std::process::exit(1);
        }
        eprintln!("check passed: no failed op, every prediction holds");
    }
}
