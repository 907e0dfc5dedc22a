//! The unified metrics registry shared by every index family.
//!
//! The paper's entire evaluation is read off operation counters (Figs 3,
//! 5a, 9–12, Table 2), and tuning a production deployment additionally
//! needs *latency* and *windowed* views: fast-path behaviour only makes
//! sense observed as a function of incoming sortedness over time, not as an
//! end-of-run total. This module provides the three pieces:
//!
//! * [`Counter`] / [`crate::Stats`] — atomic operation counters (relaxed
//!   ordering) usable through `&self`, so one counter type serves the
//!   single-writer [`crate::BpTree`], the buffered `sware::SaBpTree`, and
//!   `quit_concurrent::ConcurrentTree` alike.
//! * [`LatencyHistogram`] — fixed-bucket log2 latency histograms for
//!   insert/get/range (buckets span ~1 ns to >1 s), recorded only at
//!   [`MetricsLevel::Histograms`] so the default level never pays for a
//!   clock read.
//! * [`FastPathWindow`] — a ring buffer over the outcome (fast vs. top) of
//!   the last `W` inserts, exposing
//!   [`recent_fastpath_rate`](MetricsRegistry::recent_fastpath_rate) so
//!   harnesses can plot hit rate against stream sortedness over time.
//!
//! [`MetricsRegistry`] bundles the three; [`MetricsRegistry::snapshot`]
//! produces the plain-integer [`crate::StatsSnapshot`] read-side view,
//! which exports to JSON via [`crate::StatsSnapshot::to_json`].

use crate::stats::{Stats, StatsSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How much telemetry an index records.
///
/// Operation counters are recorded at every level: they are single relaxed
/// atomic updates on paths that already touch the node, and they are the
/// paper's measurement substrate. Levels are ordered: each level records
/// everything the previous one does.
///
/// * [`Counters`](MetricsLevel::Counters) *(default)* — counters plus the
///   windowed fast-path hit-rate tracker (two relaxed atomic updates per
///   insert).
/// * [`Histograms`](MetricsLevel::Histograms) — everything above plus log2
///   latency histograms for insert/get/range. This is the only level that
///   reads the clock (two `Instant::now()` calls per timed operation);
///   lower levels skip it behind one predictable branch, so histograms are
///   zero-cost when disabled. `quit_concurrent::ConcurrentTree` times a
///   batch chunk it places under one latch once and records one sample per
///   entry at the chunk's mean, so its insert count still matches
///   `fast_inserts + top_inserts`; `BpTree`'s batch appends
///   (`insert_batch`'s leaf chunks) are not timed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricsLevel {
    /// Counters + windowed fast-path hit rate (default).
    #[default]
    Counters,
    /// Counters + window + latency histograms.
    Histograms,
}

/// A `u64` event counter readable and writable through `&self`.
///
/// Two write flavours:
///
/// * [`bump`](Counter::bump) / [`add`](Counter::add) — a relaxed
///   load-then-store. Exact when writers are externally synchronized (the
///   `&mut self` write paths of [`crate::BpTree`]), and as cheap as the
///   `Cell` counters they replaced.
/// * [`bump_shared`](Counter::bump_shared) / [`add_shared`](Counter::add_shared)
///   — a relaxed `fetch_add`, exact under concurrent writers. Used by every
///   `&self` path that can race (lookups, scans, and the whole concurrent
///   tree).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value (used by `reset`).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// `+= 1` for externally-synchronized writers (load + store).
    #[inline]
    pub fn bump(&self) {
        self.add(1);
    }

    /// `+= n` for externally-synchronized writers (load + store).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0
            .store(self.0.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    /// `+= 1`, exact under concurrent writers (`fetch_add`).
    #[inline]
    pub fn bump_shared(&self) {
        self.add_shared(1);
    }

    /// `+= n`, exact under concurrent writers (`fetch_add`).
    #[inline]
    pub fn add_shared(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
}

/// Number of log2 latency buckets: bucket `i` counts operations whose
/// duration `d` satisfies `2^i ns <= d < 2^(i+1) ns` (bucket 0 also takes
/// sub-nanosecond readings, bucket 31 everything from `~2.1 s` up).
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-bucket log2 latency histogram (~1 ns to >1 s span).
///
/// Recording is one relaxed atomic add into the bucket selected by
/// `ilog2(ns)` plus one into the running nanosecond sum; reading never
/// blocks writers. Percentiles come from the read-side
/// [`HistogramSnapshot`].
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [Counter; HISTOGRAM_BUCKETS],
    /// Total recorded nanoseconds (for mean latency).
    sum_ns: Counter,
}

#[inline]
fn bucket_index(ns: u64) -> usize {
    (ns.max(1).ilog2() as usize).min(HISTOGRAM_BUCKETS - 1)
}

impl LatencyHistogram {
    /// Records one operation of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].add_shared(1);
        self.sum_ns.add_shared(ns);
    }

    /// Records the time elapsed since `start`.
    #[inline]
    pub fn record_since(&self, start: Instant) {
        self.record_ns(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records `n` operations that together took the time elapsed since
    /// `start`, each at their mean: the count and the sum stay exact.
    #[inline]
    pub fn record_run_since(&self, start: Instant, n: u64) {
        if n == 0 {
            return;
        }
        let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[bucket_index(ns / n)].add_shared(n);
        self.sum_ns.add_shared(ns);
    }

    /// Operations recorded so far.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(Counter::get).sum()
    }

    /// Plain-integer copy of the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (b, c) in buckets.iter_mut().zip(&self.buckets) {
            *b = c.get();
        }
        HistogramSnapshot {
            buckets,
            sum_ns: self.sum_ns.get(),
        }
    }

    /// Zeroes every bucket.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.set(0);
        }
        self.sum_ns.set(0);
    }
}

/// Read-side view of a [`LatencyHistogram`]: plain integers, so it stays
/// `Eq`/`Default` and diffs cleanly. Percentiles are computed on demand and
/// carry log2 resolution (the reported value is the lower bound of the
/// bucket containing the requested quantile, i.e. within 2× of the true
/// latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket operation counts; bucket `i` covers `[2^i, 2^(i+1))` ns.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total recorded nanoseconds.
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// Operations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count()).unwrap_or(0)
    }

    /// The latency (ns, bucket lower bound) at quantile `q` in `[0, 1]`.
    /// Returns 0 when the histogram is empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // Rank of the target operation, 1-based, clamped to the population.
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << (HISTOGRAM_BUCKETS - 1)
    }

    /// Median latency (ns, log2 resolution).
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 99th-percentile latency (ns, log2 resolution).
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// 99.9th-percentile latency (ns, log2 resolution).
    pub fn p999_ns(&self) -> u64 {
        self.quantile_ns(0.999)
    }
}

/// Size (in inserts) of the fast-path outcome window.
pub const FASTPATH_WINDOW: usize = 1024;
const WINDOW_WORDS: usize = FASTPATH_WINDOW / 64;

/// A ring buffer over the outcome (fast vs. top) of the last
/// [`FASTPATH_WINDOW`] inserts.
///
/// One bit per insert, packed into atomic words. Under a single writer the
/// window is exact; under concurrent writers (the concurrent tree) two
/// racing inserts may claim the same slot, so the *rate* is approximate —
/// the authoritative totals are always the `fast_inserts`/`top_inserts`
/// counters. Batched ingestion records whole runs at word granularity
/// ([`record_run`](FastPathWindow::record_run), or
/// [`record_run_shared`](FastPathWindow::record_run_shared) under concurrent
/// writers), keeping the per-entry cost of `insert_batch` amortized.
#[derive(Debug, Default)]
pub struct FastPathWindow {
    bits: [AtomicU64; WINDOW_WORDS],
    /// Total inserts ever recorded (ring position = `pos % FASTPATH_WINDOW`).
    pos: AtomicU64,
}

impl FastPathWindow {
    /// Records one insert outcome (externally-synchronized writers).
    ///
    /// Like [`Counter::bump`], this is the load+store flavour: plain moves
    /// instead of locked read-modify-writes, so the hot `&mut self` insert
    /// path pays roughly what the old `Cell` counters cost.
    #[inline]
    pub fn record(&self, fast: bool) {
        let p = self.pos.load(Ordering::Relaxed);
        self.pos.store(p + 1, Ordering::Relaxed);
        let slot = (p % FASTPATH_WINDOW as u64) as usize;
        let mask = 1u64 << (slot % 64);
        let word = &self.bits[slot / 64];
        let w = word.load(Ordering::Relaxed);
        let w = if fast { w | mask } else { w & !mask };
        word.store(w, Ordering::Relaxed);
    }

    /// Records a run of `n` same-outcome inserts at word granularity (the
    /// batched-ingestion path: one update per leaf append, not per key).
    /// Up to 63 neighbouring slots may be overwritten with the run's
    /// outcome; the window is a windowed *estimate* by design.
    pub fn record_run(&self, fast: bool, n: u64) {
        if n == 0 {
            return;
        }
        let start = self.pos.load(Ordering::Relaxed);
        self.pos.store(start + n, Ordering::Relaxed);
        let fill = if fast { u64::MAX } else { 0 };
        if n >= FASTPATH_WINDOW as u64 {
            for w in &self.bits {
                w.store(fill, Ordering::Relaxed);
            }
            return;
        }
        let first = (start / 64) as usize;
        let last = ((start + n - 1) / 64) as usize;
        for w in first..=last {
            self.bits[w % WINDOW_WORDS].store(fill, Ordering::Relaxed);
        }
    }

    /// Records a run of `n` same-outcome inserts, exact under concurrent
    /// writers: the run claims its `n` slots with one `fetch_add` on the
    /// position and sets exactly those bits, one read-modify-write per
    /// word it covers (the concurrent tree's batched path).
    pub fn record_run_shared(&self, fast: bool, n: u64) {
        if n == 0 {
            return;
        }
        // Only the run's last `FASTPATH_WINDOW` slots can still be seen.
        let skip = n.saturating_sub(FASTPATH_WINDOW as u64);
        let start = self.pos.fetch_add(n, Ordering::Relaxed) + skip;
        let n = n - skip;
        let mut p = start;
        while p < start + n {
            let bit = p % 64;
            let width = (64 - bit).min(start + n - p);
            let mask = (u64::MAX >> (64 - width)) << bit;
            let word = &self.bits[(p % FASTPATH_WINDOW as u64 / 64) as usize];
            if fast {
                word.fetch_or(mask, Ordering::Relaxed);
            } else {
                word.fetch_and(!mask, Ordering::Relaxed);
            }
            p += width;
        }
    }

    /// Inserts currently represented in the window
    /// (`min(total inserts, FASTPATH_WINDOW)`).
    pub fn len(&self) -> u64 {
        self.pos.load(Ordering::Relaxed).min(FASTPATH_WINDOW as u64)
    }

    /// True when no insert has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fast-path hits among the inserts currently in the window.
    pub fn fast_hits(&self) -> u64 {
        let len = self.len();
        if len == 0 {
            return 0;
        }
        let full_words = (len / 64) as usize;
        let mut hits: u64 = self.bits[..full_words]
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as u64)
            .sum();
        let rem = len % 64;
        if rem > 0 {
            let tail = self.bits[full_words].load(Ordering::Relaxed);
            hits += (tail & ((1u64 << rem) - 1)).count_ones() as u64;
        }
        hits.min(len)
    }

    /// Fraction of the last [`FASTPATH_WINDOW`] inserts (or all inserts, if
    /// fewer) that took the fast path. 0 before the first insert.
    pub fn rate(&self) -> f64 {
        let len = self.len();
        if len == 0 {
            0.0
        } else {
            self.fast_hits() as f64 / len as f64
        }
    }

    /// Zeroes the window.
    pub fn reset(&self) {
        for w in &self.bits {
            w.store(0, Ordering::Relaxed);
        }
        self.pos.store(0, Ordering::Relaxed);
    }
}

/// The per-index metrics registry: operation counters, latency histograms,
/// and the windowed fast-path tracker, gated by a [`MetricsLevel`].
///
/// All mutation goes through `&self` with relaxed atomics, so the same
/// registry type serves the single-writer `BpTree`, the buffered
/// `SaBpTree`, and the `ConcurrentTree`.
#[derive(Debug)]
pub struct MetricsRegistry {
    level: MetricsLevel,
    /// Operation counters (the paper's measurement substrate).
    pub counters: Stats,
    /// Insert latency (recorded at [`MetricsLevel::Histograms`]).
    pub insert_latency: LatencyHistogram,
    /// Point-lookup latency (recorded at [`MetricsLevel::Histograms`]).
    pub get_latency: LatencyHistogram,
    /// Range-scan latency (recorded at [`MetricsLevel::Histograms`]).
    pub range_latency: LatencyHistogram,
    /// Commit-group sizes under group commit. The log2 buckets hold
    /// *records per fsync*, not nanoseconds — [`LatencyHistogram`] is
    /// reused here as a generic log2 value histogram. Recorded by
    /// `quit-durability` regardless of level (no clock read involved).
    pub group_commit_size: LatencyHistogram,
    /// Crash-recovery wall-clock latency (one recording per recovery, so
    /// the clock read is off every hot path).
    pub recovery_latency: LatencyHistogram,
    /// Outcome window over the most recent inserts.
    pub fastpath_window: FastPathWindow,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new(MetricsLevel::default())
    }
}

impl MetricsRegistry {
    /// A fresh registry recording at `level`.
    pub fn new(level: MetricsLevel) -> Self {
        MetricsRegistry {
            level,
            counters: Stats::new(),
            insert_latency: LatencyHistogram::default(),
            get_latency: LatencyHistogram::default(),
            range_latency: LatencyHistogram::default(),
            group_commit_size: LatencyHistogram::default(),
            recovery_latency: LatencyHistogram::default(),
            fastpath_window: FastPathWindow::default(),
        }
    }

    /// The active recording level.
    #[inline]
    pub fn level(&self) -> MetricsLevel {
        self.level
    }

    /// Starts a latency measurement — `Some` only at
    /// [`MetricsLevel::Histograms`], so lower levels never read the clock.
    #[inline]
    pub fn op_timer(&self) -> Option<Instant> {
        if self.level >= MetricsLevel::Histograms {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finishes an insert measurement started by
    /// [`op_timer`](Self::op_timer).
    #[inline]
    pub fn record_insert_latency(&self, start: Option<Instant>) {
        if let Some(t0) = start {
            self.insert_latency.record_since(t0);
        }
    }

    /// Finishes a measurement of `n` inserts placed together (one batch
    /// chunk), started by [`op_timer`](Self::op_timer): `n` samples at the
    /// chunk's mean, so the histogram counts every insert.
    #[inline]
    pub fn record_insert_latency_run(&self, start: Option<Instant>, n: u64) {
        if let Some(t0) = start {
            self.insert_latency.record_run_since(t0, n);
        }
    }

    /// Finishes a lookup measurement started by [`op_timer`](Self::op_timer).
    #[inline]
    pub fn record_get_latency(&self, start: Option<Instant>) {
        if let Some(t0) = start {
            self.get_latency.record_since(t0);
        }
    }

    /// Finishes a range measurement started by [`op_timer`](Self::op_timer).
    #[inline]
    pub fn record_range_latency(&self, start: Option<Instant>) {
        if let Some(t0) = start {
            self.range_latency.record_since(t0);
        }
    }

    /// Feeds one insert outcome to the window (externally-synchronized
    /// writers).
    #[inline]
    pub fn record_insert_outcome(&self, fast: bool) {
        self.fastpath_window.record(fast);
    }

    /// Feeds a same-outcome run to the window at word granularity (the
    /// batched-ingestion path).
    #[inline]
    pub fn record_insert_run(&self, fast: bool, n: u64) {
        self.fastpath_window.record_run(fast, n);
    }

    /// Feeds a same-outcome run to the window, slot-exact under concurrent
    /// writers.
    #[inline]
    pub fn record_insert_run_shared(&self, fast: bool, n: u64) {
        self.fastpath_window.record_run_shared(fast, n);
    }

    /// Fraction of the most recent inserts (up to [`FASTPATH_WINDOW`]) that
    /// took the fast path.
    pub fn recent_fastpath_rate(&self) -> f64 {
        self.fastpath_window.rate()
    }

    /// Point-in-time snapshot of everything: counters, histograms, window.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut snap = self.counters.snapshot();
        snap.insert_latency = self.insert_latency.snapshot();
        snap.get_latency = self.get_latency.snapshot();
        snap.range_latency = self.range_latency.snapshot();
        snap.group_commit_size = self.group_commit_size.snapshot();
        snap.recovery_latency = self.recovery_latency.snapshot();
        snap.window_fast = self.fastpath_window.fast_hits();
        snap.window_len = self.fastpath_window.len();
        snap
    }

    /// Zeroes every counter, histogram, and the window (e.g. between the
    /// ingest and query phases of an experiment).
    pub fn reset(&self) {
        self.counters.reset();
        self.insert_latency.reset();
        self.get_latency.reset();
        self.range_latency.reset();
        self.group_commit_size.reset();
        self.recovery_latency.reset();
        self.fastpath_window.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_both_flavours() {
        let c = Counter::default();
        c.bump();
        c.add(4);
        c.bump_shared();
        c.add_shared(4);
        assert_eq!(c.get(), 10);
        c.set(0);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn bucket_index_spans_1ns_to_1s() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        // 1 s lands inside the range, not in the overflow bucket.
        assert_eq!(bucket_index(1_000_000_000), 29);
        // Everything beyond ~2.1 s clamps to the last bucket.
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles() {
        let h = LatencyHistogram::default();
        // 99 ops at ~16 ns, one at ~1 ms.
        for _ in 0..99 {
            h.record_ns(16);
        }
        h.record_ns(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.p50_ns(), 16);
        assert_eq!(s.p99_ns(), 16);
        assert_eq!(s.p999_ns(), 1 << 19); // bucket lower bound of 1 ms
        assert!(s.mean_ns() >= 10_000);
        h.reset();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        assert_eq!(HistogramSnapshot::default().quantile_ns(0.5), 0);
    }

    #[test]
    fn window_tracks_recent_rate() {
        let w = FastPathWindow::default();
        assert_eq!(w.rate(), 0.0);
        assert!(w.is_empty());
        for _ in 0..512 {
            w.record(true);
        }
        assert_eq!(w.rate(), 1.0);
        for _ in 0..512 {
            w.record(false);
        }
        assert!((w.rate() - 0.5).abs() < 1e-9);
        // Another full window of misses evicts every hit.
        for _ in 0..FASTPATH_WINDOW {
            w.record(false);
        }
        assert_eq!(w.rate(), 0.0);
        assert_eq!(w.len(), FASTPATH_WINDOW as u64);
    }

    #[test]
    fn window_run_granularity() {
        let w = FastPathWindow::default();
        w.record_run(true, 5000);
        assert_eq!(w.rate(), 1.0);
        w.record_run(false, 64);
        // A 64-slot run can overwrite up to two words (127 extra slots).
        let rate = w.rate();
        assert!((0.8..1.0).contains(&rate), "rate {rate}");
        w.reset();
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn shared_runs_claim_exact_slots_under_concurrent_writers() {
        // The load + store of `record_run` lets racing runs overwrite each
        // other's position; the shared flavour must advance it by exactly
        // the sum of the runs.
        let r = MetricsRegistry::new(MetricsLevel::Counters);
        let total: u64 = std::thread::scope(|s| {
            let writers: Vec<_> = (0..4u64)
                .map(|t| {
                    let r = &r;
                    s.spawn(move || {
                        let mut state = 0x9E37_79B9 ^ t;
                        let mut sum = 0;
                        for i in 0..1_000u64 {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                            let n = 1 + (state >> 33) % 200;
                            r.record_insert_run_shared(i % 2 == 0, n);
                            sum += n;
                        }
                        sum
                    })
                })
                .collect();
            writers.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(r.fastpath_window.pos.load(Ordering::Relaxed), total);

        // Single-threaded, the bits are exact too: no neighbouring slot is
        // overwritten, and a run longer than the window fills it.
        let w = FastPathWindow::default();
        w.record_run_shared(false, 5);
        w.record_run_shared(true, 70);
        w.record_run_shared(false, 3);
        assert_eq!((w.len(), w.fast_hits()), (78, 70));
        w.record_run_shared(true, 3 * FASTPATH_WINDOW as u64 + 7);
        assert_eq!(w.rate(), 1.0);
        w.record_run_shared(false, 64);
        assert_eq!(w.fast_hits(), FASTPATH_WINDOW as u64 - 64);
    }

    #[test]
    fn registry_level_gates_clock_and_window() {
        let counters = MetricsRegistry::new(MetricsLevel::Counters);
        assert!(counters.op_timer().is_none());
        counters.record_insert_outcome(true);
        assert_eq!(counters.fastpath_window.len(), 1);

        let hist = MetricsRegistry::new(MetricsLevel::Histograms);
        let t0 = hist.op_timer();
        assert!(t0.is_some());
        hist.record_insert_latency(t0);
        assert_eq!(hist.insert_latency.count(), 1);
        // A chunk of 5 counts as 5 inserts; an empty one records nothing.
        hist.record_insert_latency_run(hist.op_timer(), 5);
        hist.record_insert_latency_run(hist.op_timer(), 0);
        assert_eq!(hist.insert_latency.count(), 6);
        counters.record_insert_latency_run(counters.op_timer(), 5);
        assert_eq!(counters.insert_latency.count(), 0);
    }

    #[test]
    fn registry_snapshot_and_reset() {
        let r = MetricsRegistry::new(MetricsLevel::Histograms);
        r.counters.fast_inserts.bump();
        r.record_insert_outcome(true);
        r.insert_latency.record_ns(100);
        let snap = r.snapshot();
        assert_eq!(snap.fast_inserts, 1);
        assert_eq!(snap.window_fast, 1);
        assert_eq!(snap.window_len, 1);
        assert_eq!(snap.insert_latency.count(), 1);
        assert!((r.recent_fastpath_rate() - 1.0).abs() < 1e-12);
        r.reset();
        assert_eq!(r.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn level_ordering() {
        assert!(MetricsLevel::Counters < MetricsLevel::Histograms);
        assert_eq!(MetricsLevel::default(), MetricsLevel::Counters);
    }
}
