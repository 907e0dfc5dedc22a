//! Cross-crate observability tests: counter exactness under concurrent
//! writers, histogram coverage, window semantics, and a `to_json()`
//! round-trip checked with a minimal hand-rolled extractor (the workspace
//! vendors no JSON parser, so the exporter is validated the same way it is
//! written — by hand).

use quick_insertion_tree::quit_concurrent::{ConcConfig, ConcurrentTree};
use quick_insertion_tree::quit_core::{MetricsLevel, SortedIndex, TreeConfig, Variant};
use std::sync::Arc;

/// Extracts the integer value following `"key":` in a flat JSON document.
/// Good enough for the exporter's output, where every counter appears
/// exactly once at some nesting depth.
fn json_u64(doc: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let digits: String = doc[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[test]
fn concurrent_counters_are_exact_under_stress() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 5_000;
    let tree: Arc<ConcurrentTree<u64, u64>> = Arc::new(ConcurrentTree::new(ConcConfig::from_tree(
        TreeConfig::paper_default().with_metrics_level(MetricsLevel::Histograms),
    )));
    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let tree = tree.clone();
            s.spawn(move || {
                // Interleaved ascending runs: every thread fights for the
                // same poℓe leaf, exercising both insert outcomes.
                for i in 0..PER_THREAD {
                    tree.insert(i * THREADS as u64 + t, i);
                }
            });
        }
    });
    let total = THREADS as u64 * PER_THREAD;
    let m = tree.metrics();
    assert_eq!(
        m.fast_inserts + m.top_inserts,
        total,
        "counters must be exact, not sampled, under concurrent writers"
    );
    assert_eq!(
        m.insert_latency.count(),
        total,
        "one latency sample per insert"
    );
    assert!(m.insert_latency.p50_ns() <= m.insert_latency.p99_ns());
    assert!(m.insert_latency.p99_ns() <= m.insert_latency.p999_ns());
    assert_eq!(ConcurrentTree::len(&tree), total as usize);
    let rate = m.recent_fastpath_rate();
    assert!(
        (0.0..=1.0).contains(&rate),
        "window rate {rate} out of range"
    );
}

#[test]
fn every_family_reports_the_same_counter_groups() {
    let keys: Vec<u64> = (0..20_000).collect();
    let mut core = Variant::Quit
        .build::<u64, u64>(TreeConfig::small(64).with_metrics_level(MetricsLevel::Histograms));
    let conc: ConcurrentTree<u64, u64> = ConcurrentTree::new(ConcConfig::from_tree(
        TreeConfig::paper_default().with_metrics_level(MetricsLevel::Histograms),
    ));
    let mut sa = quick_insertion_tree::sware::SaBpTree::new(
        quick_insertion_tree::sware::SwareConfig::small(256, 64),
    );
    for &k in &keys {
        SortedIndex::insert(&mut core, k, k);
        conc.insert(k, k);
        SortedIndex::insert(&mut sa, k, k);
    }
    // SWARE counts entries as they flush out of the sortedness-aware
    // buffer, so drain it before comparing totals.
    sa.flush_all();
    for (name, m) in [
        ("core", SortedIndex::metrics(&core)),
        ("concurrent", SortedIndex::metrics(&conc)),
        ("sware", SortedIndex::metrics(&sa)),
    ] {
        // Identical counter families through one trait surface: a sorted
        // stream must be served mostly by each family's fast/bulk path.
        assert_eq!(m.total_inserts(), keys.len() as u64, "{name}");
        assert!(m.fast_insert_fraction() > 0.9, "{name}");
        let json = m.to_json();
        assert_eq!(
            json_u64(&json, "fast_inserts"),
            Some(m.fast_inserts),
            "{name}"
        );
    }
}

#[test]
fn json_round_trips_through_hand_parser() {
    // Scrambled, near-sorted and sorted: every insert is counted and
    // timed exactly once whichever path serves it.
    let ingest = |k_fraction: f64| {
        let mut tree = Variant::Quit
            .build::<u64, u64>(TreeConfig::small(64).with_metrics_level(MetricsLevel::Histograms));
        for k in quick_insertion_tree::bods::BodsSpec::new(10_000, k_fraction, 1.0).generate() {
            tree.insert(k, k);
        }
        let m = tree.metrics();
        assert_eq!(m.total_inserts(), 10_000, "K={k_fraction}");
        assert_eq!(m.insert_latency.count(), 10_000, "K={k_fraction}");
        tree
    };
    ingest(1.0);
    ingest(0.05);
    let tree = ingest(0.0);
    assert!(
        tree.metrics().fast_inserts > 0,
        "sorted rides the fast path"
    );
    for k in (0..10_000u64).step_by(7) {
        tree.get(k);
    }
    let _ = tree.range(100..500).count();
    let m = tree.metrics();
    let json = m.to_json();
    for (key, want) in [
        ("fast_inserts", m.fast_inserts),
        ("top_inserts", m.top_inserts),
        ("leaf_splits", m.leaf_splits),
        ("lookups", m.lookups),
        ("range_scans", m.range_scans),
        ("deletes", m.deletes),
    ] {
        assert_eq!(json_u64(&json, key), Some(want), "field {key}");
    }
    assert_eq!(
        json_u64(&json, "count"),
        Some(m.insert_latency.count()),
        "insert histogram count is the first \"count\" in the document"
    );
    assert!(json.contains("\"p99_ns\":"));
    assert!(json.contains("\"fastpath_window\":"));
    // Balanced braces/brackets — cheap structural sanity on top of the
    // field-level checks.
    let opens = json.matches(['{', '[']).count();
    let closes = json.matches(['}', ']']).count();
    assert_eq!(opens, closes);
}

#[test]
fn metrics_level_off_records_nothing_but_stays_correct() {
    let mut tree = Variant::Quit
        .build::<u64, u64>(TreeConfig::small(64).with_metrics_level(MetricsLevel::Counters));
    for k in 0..5_000u64 {
        tree.insert(k, k);
    }
    let m = tree.metrics();
    // Counters tick at the lowest level (they are the paper's figures);
    // only the clock-reading histograms stay silent.
    assert_eq!(m.total_inserts(), 5_000);
    assert_eq!(m.insert_latency.count(), 0, "no clock reads at Counters");
    assert_eq!(tree.len(), 5_000);
}

#[test]
fn reset_metrics_clears_counters_and_histograms() {
    let mut tree = Variant::Quit
        .build::<u64, u64>(TreeConfig::small(64).with_metrics_level(MetricsLevel::Histograms));
    for k in 0..2_000u64 {
        tree.insert(k, k);
    }
    assert!(SortedIndex::metrics(&tree).total_inserts() > 0);
    tree.reset_metrics();
    let m = SortedIndex::metrics(&tree);
    assert_eq!(m.total_inserts(), 0);
    assert_eq!(m.insert_latency.count(), 0);
    assert_eq!(m.window_len, 0);
    assert_eq!(tree.len(), 2_000, "reset touches metrics only, not data");
}
