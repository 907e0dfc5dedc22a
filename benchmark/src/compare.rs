//! `--compare a.json b.json`: two reports of this benchmark, side by side.
//! For every workload × end-to-end metric it prints both medians, the
//! ratio with its base, the metric's bound, and a verdict; for the
//! single-threaded workloads it also says whether the exact counters agree.

use crate::json::{self, Value};
use crate::spec::{self, Better};
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// On either side the repetitions that made up the value (the better
    /// half) lay further apart than the bound, so a difference of the
    /// bound's size could not be seen.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn verdict(better: Better, bound: f64, a: f64, b: f64, spread: f64) -> Verdict {
    let worse_by = match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Workloads whose counters are exact: one thread, no timers.
const EXACT_WORKLOADS: [&str; 3] = [
    spec::EMBED_NEARSORTED,
    spec::EMBED_SCRAMBLED,
    spec::PAGED_PRESSURE,
];

fn is_exact_counter(name: &str) -> bool {
    spec::per_layer().any(|m| {
        m.name == name
            && m.source == spec::Source::Workload
            && !matches!(m.unit, "us" | "s" | "ns")
            && name != "trace.overhead_frac"
    })
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workload<'a>(report: &'a Value, name: &str) -> Option<&'a Value> {
    report
        .get("workloads")?
        .as_arr()
        .iter()
        .find(|w| w.get("workload").and_then(Value::as_str) == Some(name))
}

fn field(section: Option<&Value>, metric: &str, key: &str) -> Option<f64> {
    section?.get(metric)?.get(key)?.as_f64()
}

/// Returns the process exit code: 0 when nothing is worse or unresolved.
pub fn main(a_path: &Path, b_path: &Path) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("quit-benchmark: {e}");
            return 2;
        }
    };
    for (label, report) in [("a", &a), ("b", &b)] {
        let header = report.get("header");
        let text = |key: &str| {
            header
                .and_then(|h| h.get(key))
                .map(|v| v.as_str().map_or_else(|| v.to_line(), str::to_string))
                .unwrap_or_else(|| "?".into())
        };
        println!(
            "{label}: git {} seed {} seconds {} rustc {} simd {} fs {}",
            text("git_rev"),
            text("seed"),
            text("seconds"),
            text("rustc"),
            text("simd"),
            text("scratch_filesystem")
        );
    }
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>22} {:>6}  verdict",
        "workload", "metric", "a", "b", "ratio b/a (base a)", "bound"
    );
    let (mut worse, mut unresolved, mut counters_differ) = (0, 0, 0);
    for w in &spec::WORKLOADS {
        let (Some(wa), Some(wb)) = (workload(&a, w.name), workload(&b, w.name)) else {
            continue;
        };
        for m in &spec::END_TO_END {
            let (ea, eb) = (wa.get("end_to_end"), wb.get("end_to_end"));
            let (Some(va), Some(vb)) = (field(ea, m.name, "value"), field(eb, m.name, "value"))
            else {
                continue;
            };
            let spread = field(ea, m.name, "better_half_width")
                .unwrap_or(0.0)
                .max(field(eb, m.name, "better_half_width").unwrap_or(0.0));
            let v = verdict(m.better, m.bound, va, vb, spread);
            worse += i32::from(v == Verdict::Worse);
            unresolved += i32::from(v == Verdict::Unresolved);
            println!(
                "{:<18} {:<16} {:>14.6} {:>14.6} {:>8.4} ({:>9.4} {}) {:>6.2}  {}{}",
                w.name,
                m.name,
                va,
                vb,
                vb / va,
                va,
                m.unit,
                m.bound,
                v.as_str(),
                if v == Verdict::Unresolved {
                    format!(" (better half width {spread:.3})")
                } else {
                    String::new()
                }
            );
        }
        if EXACT_WORKLOADS.contains(&w.name) {
            let (la, lb) = (wa.get("per_layer"), wb.get("per_layer"));
            let names: Vec<&str> = la
                .map(|l| l.entries().iter().map(|(k, _)| k.as_str()).collect())
                .unwrap_or_default();
            let exact: Vec<&str> = names.into_iter().filter(|n| is_exact_counter(n)).collect();
            let differing: Vec<&str> = exact
                .iter()
                .copied()
                .filter(|n| field(la, n, "value") != field(lb, n, "value"))
                .collect();
            if !exact.is_empty() {
                counters_differ += differing.len();
                println!(
                    "{:<18} exact counters: {} compared, {}",
                    w.name,
                    exact.len(),
                    if differing.is_empty() {
                        "identical".to_string()
                    } else {
                        format!("DIFFER: {}", differing.join(", "))
                    }
                );
            }
        }
    }
    println!("{worse} worse, {unresolved} unresolved, {counters_differ} exact counters differ");
    i32::from(worse > 0 || unresolved > 0 || counters_differ > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_respects_direction_bound_and_spread() {
        // Throughput: lower is worse.
        assert_eq!(
            verdict(Better::Higher, 0.10, 100.0, 95.0, 0.02),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, 100.0, 85.0, 0.02),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, 100.0, 130.0, 0.02),
            Verdict::Ok
        );
        // Latency: higher is worse.
        assert_eq!(
            verdict(Better::Lower, 0.10, 100.0, 115.0, 0.02),
            Verdict::Worse
        );
        assert_eq!(verdict(Better::Lower, 0.10, 100.0, 60.0, 0.02), Verdict::Ok);
        // A spread wider than the bound hides a bound-sized change.
        assert_eq!(
            verdict(Better::Lower, 0.10, 100.0, 104.0, 0.15),
            Verdict::Unresolved
        );
        // ... but a regression beyond the bound is still called one.
        assert_eq!(
            verdict(Better::Lower, 0.10, 100.0, 150.0, 0.15),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_counters_are_the_workload_sourced_counts() {
        assert!(is_exact_counter("core.leaf_splits"));
        assert!(is_exact_counter("pool.evictions"));
        assert!(!is_exact_counter("core.insert_ns"));
        assert!(!is_exact_counter("trace.overhead_frac"));
        assert!(!is_exact_counter("commit_p50_us"));
        assert!(!is_exact_counter("bods.gen_s"));
        assert!(!is_exact_counter("insert_mops"));
    }
}
