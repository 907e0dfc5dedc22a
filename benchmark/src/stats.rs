//! Medians, quartile spread and percentile selection over exact sample
//! vectors. Nothing here buckets: every latency the benchmark reports is
//! read off a sorted vector of the samples it took.

/// Median of `values` (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), which is what the driver applies to the runs it makes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        // Position q*(n+1)/4 in 1-based ranks, clamped into the data.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median; 0 for a
/// single value.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / m.abs()
    }
}

/// Nearest-rank percentile of an ascending vector: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples. The
/// small epsilon keeps `99.9 % of 10 000` at 9 990 rather than letting
/// the product's last bit round it up to 9 991.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `p`-th percentile position.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// The percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 5] = [90.0, 99.0, 99.9, 99.99, 99.999];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it — a tail read off fewer is one or two outliers, not
/// a percentile. `None` when even p90 is unsupported (n < 100).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| samples_beyond(n, p) >= 10)
}

/// A latency vector boiled down to what a report states: the count, the
/// median, and the highest tail the count supports.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencySummary {
    pub samples: usize,
    pub p50_ns: u64,
    /// `(percentile, value)`; `None` below 100 samples.
    pub tail: Option<(f64, u64)>,
}

pub fn summarize(samples_ns: &mut [u64]) -> LatencySummary {
    samples_ns.sort_unstable();
    LatencySummary {
        samples: samples_ns.len(),
        p50_ns: percentile(samples_ns, 50.0),
        tail: highest_supported_percentile(samples_ns.len())
            .map(|p| (p, percentile(samples_ns, p))),
    }
}

/// One rung's self time per op: its own cost minus the rung below. A
/// rung that measures faster than the one below it (noise, or a layer
/// that batches) is reported as negative rather than clipped, so an
/// inversion stays visible.
pub fn ladder_self_times(rungs: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    rungs
        .iter()
        .enumerate()
        .map(|(i, &(name, total))| {
            let below = if i == 0 { 0.0 } else { rungs[i - 1].1 };
            (name, total - below)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(spread(&[5.0]), 0.0);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(percentile(&v, 100.0), 1000);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(1_000_000), Some(99.999));
        assert_eq!(highest_supported_percentile(50_000_000), Some(99.999));
    }

    #[test]
    fn summary_reads_off_the_sorted_vector() {
        let mut v: Vec<u64> = (1..=2000).rev().collect();
        let s = summarize(&mut v);
        assert_eq!(s.samples, 2000);
        assert_eq!(s.p50_ns, 1000);
        assert_eq!(s.tail, Some((99.0, 1980)));
        let mut few = vec![5, 1, 3];
        assert_eq!(summarize(&mut few).tail, None);
    }

    #[test]
    fn ladder_subtracts_the_rung_below() {
        let rungs = [
            ("core", 40.0),
            ("conc", 95.0),
            ("mvcc", 90.0),
            ("wal", 400.0),
        ];
        let selfs = ladder_self_times(&rungs);
        assert_eq!(
            selfs,
            vec![
                ("core", 40.0),
                ("conc", 55.0),
                ("mvcc", -5.0),
                ("wal", 310.0)
            ]
        );
        let total: f64 = selfs.iter().map(|r| r.1).sum();
        assert_eq!(total, 400.0, "self times sum to the top rung");
    }
}
