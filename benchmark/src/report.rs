//! What one workload hands back, and how the numbers of its in-process
//! repetitions become one reported value with its spread.

use crate::json::Value;
use crate::spec;
use crate::stats;
use std::collections::BTreeMap;

/// One reported number.
///
/// Over in-process repetitions the value is the **mean of the better half**
/// of them (the higher throughputs, the lower times), not the median of
/// all: on a shared box other tenants only ever slow a repetition down, so
/// the slower half says more about the neighbours than about the code,
/// while averaging what is left does not bet on one lucky repetition. It
/// repeats between runs better than either the median or the single best
/// does here (README, "Noise model"). The median and the quartile spread
/// of all repetitions are reported beside it.
#[derive(Clone, Debug, PartialEq)]
pub struct Measure {
    pub value: f64,
    /// Median over the repetitions (equal to `value` for a single one).
    pub median: f64,
    /// Quartile distance over the median, across the repetitions.
    pub spread: f64,
    /// Distance between the best repetition and the worst one of the
    /// better half, as a share of the value: how far apart the
    /// repetitions that made up the value were.
    pub half_width: f64,
    /// The repetitions' values in the order they ran (empty for a single
    /// measurement): a warm-up effect or a drift shows here.
    pub reps: Vec<f64>,
    /// Latency samples behind a percentile; 0 for everything else.
    pub samples: u64,
    /// Highest percentile the sample count supports, with its value, in
    /// the metric's unit.
    pub tail: Option<(f64, f64)>,
}

/// Which of the repetitions' values make up the reported one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pick {
    /// Mean of the higher half.
    Higher,
    /// Mean of the lower half.
    Lower,
    /// Median of all.
    Median,
}

impl Measure {
    pub fn single(value: f64) -> Self {
        Measure {
            value,
            median: value,
            spread: 0.0,
            half_width: 0.0,
            reps: Vec::new(),
            samples: 0,
            tail: None,
        }
    }

    pub fn of_reps(values: &[f64], pick: Pick) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        if pick == Pick::Higher {
            sorted.reverse();
        }
        // `sorted` now runs from the best repetition to the worst.
        let median = stats::median(values);
        let (value, half_width) = if pick == Pick::Median {
            (median, 0.0)
        } else {
            let half = &sorted[..sorted.len().div_ceil(2)];
            let mean = half.iter().sum::<f64>() / half.len() as f64;
            (mean, ((half[0] - half[half.len() - 1]) / mean).abs())
        };
        Measure {
            value,
            median,
            spread: stats::spread(values),
            half_width,
            reps: values.to_vec(),
            samples: 0,
            tail: None,
        }
    }

    fn to_json(&self, name: &str) -> Value {
        let mut pairs = vec![
            ("value", Value::Num(self.value)),
            ("unit", Value::str(spec::unit_of(name).unwrap_or("?"))),
        ];
        if self.reps.len() > 1 {
            pairs.push(("median", self.median.into()));
            pairs.push(("spread", self.spread.into()));
            pairs.push(("better_half_width", self.half_width.into()));
            pairs.push((
                "reps",
                Value::Arr(self.reps.iter().map(|&v| v.into()).collect()),
            ));
        }
        if self.samples > 0 {
            pairs.push(("samples", self.samples.into()));
        }
        if let Some((p, v)) = self.tail {
            pairs.push((
                "tail",
                Value::obj(vec![("percentile", p.into()), ("value", v.into())]),
            ));
        }
        Value::obj(pairs)
    }
}

/// Ops attempted and failed: an error or refused reply, a value that
/// differs from the model's, a key missing after a restart.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn merge(&mut self, other: Tally) {
        self.add(other.attempted, other.failed);
    }
}

/// Per-repetition values by metric name, reduced to medians at the end.
#[derive(Default)]
pub struct Reps {
    values: BTreeMap<&'static str, Vec<f64>>,
    /// Sample count and supported tail of the last repetition's commit
    /// latencies, in microseconds.
    commit: Option<stats::LatencySummary>,
    commit_ops_per_sample: f64,
}

impl Reps {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    /// One repetition's commit latencies: an exact sample vector, reduced
    /// to its median and 99th percentile. `ops_per_sample` is how many
    /// inserts one sample timed together (1 unless a single insert is
    /// below what the clock resolves).
    pub fn push_commit_latency(&mut self, samples_ns: &mut [u64], ops_per_sample: usize) {
        let summary = stats::summarize(samples_ns);
        let us = |ns: u64| ns as f64 / ops_per_sample as f64 / 1e3;
        self.push("commit_p50_us", us(summary.p50_ns));
        self.push("commit_p99_us", us(stats::percentile(samples_ns, 99.0)));
        self.commit = Some(summary);
        self.commit_ops_per_sample = ops_per_sample as f64;
    }

    pub fn finish(self, into: &mut BTreeMap<&'static str, Measure>) {
        for (name, values) in self.values {
            // Set-up is reported as the median of the set-ups (the driver
            // asks for that); everything else as the better half's mean.
            let pick = match spec::better_of(name) {
                _ if name == "setup_s" => Pick::Median,
                Some(spec::Better::Higher) => Pick::Higher,
                Some(spec::Better::Lower) => Pick::Lower,
                None => Pick::Median,
            };
            into.insert(name, Measure::of_reps(&values, pick));
        }
        if let Some(summary) = self.commit {
            for name in ["commit_p50_us", "commit_p99_us"] {
                if let Some(m) = into.get_mut(name) {
                    m.samples = summary.samples as u64;
                    m.tail = summary
                        .tail
                        .map(|(p, ns)| (p, ns as f64 / self.commit_ops_per_sample / 1e3));
                }
            }
        }
    }
}

/// A separation prediction (`--check`): the workloads are only useful if
/// they stress the layers they claim to.
#[derive(Clone, Debug)]
pub struct Prediction {
    pub claim: String,
    pub holds: bool,
}

impl Prediction {
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("claim", Value::str(self.claim.clone())),
            ("holds", Value::Bool(self.holds)),
        ])
    }
}

/// The result of one workload: both passes' metrics in one map (the spec
/// tables say which names are end-to-end and which per-layer).
#[derive(Default)]
pub struct Outcome {
    pub workload: &'static str,
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, Measure>,
    pub predictions: Vec<Prediction>,
    pub notes: Vec<String>,
    /// Median over the repetitions of the time spent in timed phases; the
    /// traced pass over the untraced one gives `trace.overhead_frac`.
    pub measured_s: f64,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            ..Default::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, Measure::single(value));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    pub fn predict(&mut self, claim: impl Into<String>, holds: bool) {
        self.predictions.push(Prediction {
            claim: claim.into(),
            holds,
        });
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The last line of standard output the driver reads: exactly
    /// `correct`, `attempted`, `failed`, `metrics`, the metrics being every
    /// end-to-end one (`traced` false) or every per-layer one (`traced`
    /// true). A missing metric is a bug in the workload, not a zero.
    pub fn contract_line(&self, traced: bool) -> Result<String, String> {
        let names: Vec<&'static str> = if traced {
            spec::per_layer().map(|m| m.name).collect()
        } else {
            spec::END_TO_END.iter().map(|m| m.name).collect()
        };
        let mut metrics = Vec::with_capacity(names.len());
        for name in names {
            let m = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("{}: metric {name} was not measured", self.workload))?;
            if !m.value.is_finite() {
                return Err(format!("{}: metric {name} is not a number", self.workload));
            }
            metrics.push((
                name.to_string(),
                Value::obj(vec![
                    ("value", m.value.into()),
                    ("unit", Value::str(spec::unit_of(name).unwrap_or("?"))),
                ]),
            ));
        }
        Ok(Value::obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", self.tally.attempted.into()),
            ("failed", self.tally.failed.into()),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_line())
    }

    /// The workload's section of the full report.
    pub fn to_json(&self) -> Value {
        let section = |keep: &dyn Fn(&str) -> bool| {
            Value::Obj(
                self.metrics
                    .iter()
                    .filter(|(name, _)| keep(name))
                    .map(|(name, m)| (name.to_string(), m.to_json(name)))
                    .collect(),
            )
        };
        Value::obj(vec![
            ("workload", Value::str(self.workload)),
            ("correct", Value::Bool(self.correct())),
            ("ops_attempted", self.tally.attempted.into()),
            ("ops_failed", self.tally.failed.into()),
            ("end_to_end", section(&|n| spec::end_to_end(n).is_some())),
            ("per_layer", section(&|n| spec::end_to_end(n).is_none())),
            (
                "predictions",
                Value::Arr(self.predictions.iter().map(Prediction::to_json).collect()),
            ),
            (
                "notes",
                Value::Arr(self.notes.iter().map(|n| Value::str(n.clone())).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_better_half_s_mean_is_reported_with_median_and_spread_beside_it() {
        let m = Measure::of_reps(&[9.0, 10.0, 7.0, 9.8, 6.0], Pick::Higher);
        assert!((m.value - (10.0 + 9.8 + 9.0) / 3.0).abs() < 1e-12);
        assert_eq!(m.median, 9.0);
        assert!((m.half_width - 1.0 / m.value).abs() < 1e-12);
        let m = Measure::of_reps(&[5.0, 4.0, 8.0, 6.0], Pick::Lower);
        assert_eq!((m.value, m.median), (4.5, 5.5));
        let m = Measure::of_reps(&[5.0, 4.0, 8.0], Pick::Median);
        assert_eq!((m.value, m.half_width), (5.0, 0.0));
        let m = Measure::of_reps(&[3.0], Pick::Higher);
        assert_eq!((m.value, m.half_width), (3.0, 0.0));
    }

    #[test]
    fn setup_is_a_median_and_throughput_a_better_half() {
        let mut reps = Reps::default();
        for v in [1.0, 3.0, 2.0] {
            reps.push("setup_s", v);
            reps.push("insert_mops", v);
            reps.push("recovery_s", v);
        }
        let mut out = BTreeMap::new();
        reps.finish(&mut out);
        assert_eq!(out["setup_s"].value, 2.0);
        assert_eq!(out["insert_mops"].value, 2.5);
        assert_eq!(out["recovery_s"].value, 1.5);
    }

    #[test]
    fn contract_line_has_exactly_the_driver_s_keys_and_every_metric() {
        let mut out = Outcome::new(spec::EMBED_NEARSORTED);
        out.tally.add(10, 0);
        assert!(
            out.contract_line(false).is_err(),
            "a missing metric is an error"
        );
        for m in &spec::END_TO_END {
            out.set(m.name, 1.5);
        }
        let line = out.contract_line(false).unwrap();
        let v = crate::json::parse(&line).unwrap();
        let keys: Vec<&str> = v.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("metrics").unwrap().entries().len(),
            spec::END_TO_END.len()
        );
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        out.tally.add(1, 1);
        let v = crate::json::parse(&out.contract_line(false).unwrap()).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("failed").unwrap().as_f64(), Some(1.0));
    }
}
