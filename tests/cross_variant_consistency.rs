//! Differential tests across every index implementation in the workspace:
//! all five single-threaded variants, the SWARE SA-B+-tree, and the
//! concurrent tree must agree on query results for identical workloads,
//! because they only differ in *how* they ingest.

use quick_insertion_tree::bods::BodsSpec;
use quick_insertion_tree::quit_concurrent::ConcurrentTree;
use quick_insertion_tree::quit_core::{BpTree, TreeConfig, Variant};
use quick_insertion_tree::sware::{SaBpTree, SwareConfig};

fn workloads() -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("sorted", BodsSpec::new(30_000, 0.0, 1.0).generate()),
        ("near-sorted", BodsSpec::new(30_000, 0.05, 1.0).generate()),
        ("less-sorted", BodsSpec::new(30_000, 0.25, 1.0).generate()),
        ("scrambled", BodsSpec::new(30_000, 1.0, 1.0).generate()),
        ("small-L", BodsSpec::new(30_000, 0.10, 0.01).generate()),
        ("reversed", (0..30_000u64).rev().collect()),
    ]
}

#[test]
fn all_variants_agree_on_reads() {
    for (name, keys) in workloads() {
        let config = TreeConfig::small(32);
        let trees: Vec<(Variant, BpTree<u64, u64>)> = Variant::ALL
            .iter()
            .map(|&v| {
                let mut t = v.build::<u64, u64>(config.clone());
                for (i, &k) in keys.iter().enumerate() {
                    t.insert(k, i as u64);
                }
                (v, t)
            })
            .collect();

        for (v, t) in &trees {
            t.check_invariants()
                .unwrap_or_else(|e| panic!("{name}/{v:?}: {e}"));
            assert_eq!(t.len(), keys.len(), "{name}/{v:?} len");
        }

        // Point reads and ranges agree with the classic tree.
        let (_, reference) = &trees[0];
        let probes: Vec<u64> = (0..30_000u64).step_by(97).collect();
        let ranges = [(0u64, 100u64), (500, 1500), (29_000, 30_000), (0, 30_000)];
        for (v, t) in &trees[1..] {
            for &p in &probes {
                assert_eq!(
                    t.get(p).is_some(),
                    reference.get(p).is_some(),
                    "{name}/{v:?} get({p})"
                );
            }
            for &(s, e) in &ranges {
                let got: Vec<u64> = t.range(s..e).map(|(k, _)| k).collect();
                let want: Vec<u64> = reference.range(s..e).map(|(k, _)| k).collect();
                assert_eq!(got, want, "{name}/{v:?} range({s},{e})");
            }
        }
    }
}

#[test]
fn sware_agrees_with_classic_tree() {
    for (name, keys) in workloads() {
        let mut sa: SaBpTree<u64, u64> = SaBpTree::new(SwareConfig::small(512, 32));
        let mut classic = Variant::Classic.build::<u64, u64>(TreeConfig::small(32));
        for (i, &k) in keys.iter().enumerate() {
            sa.insert(k, i as u64);
            classic.insert(k, i as u64);
        }
        assert_eq!(sa.len(), classic.len(), "{name} len");
        for p in (0..30_000u64).step_by(61) {
            assert_eq!(
                sa.get(p).is_some(),
                classic.get(p).is_some(),
                "{name} get({p})"
            );
        }
        for (s, e) in [(100u64, 400u64), (10_000, 12_000)] {
            let got: Vec<u64> = sa.range(s..e).iter().map(|x| x.0).collect();
            let want: Vec<u64> = classic.range(s..e).map(|(k, _)| k).collect();
            assert_eq!(got, want, "{name} range({s},{e})");
        }
        sa.tree().check_invariants().unwrap();
    }
}

#[test]
fn concurrent_tree_agrees_with_classic_tree() {
    for (name, keys) in workloads() {
        let conc: ConcurrentTree<u64, u64> = ConcurrentTree::new(TreeConfig::paper_default());
        let mut classic = Variant::Classic.build::<u64, u64>(TreeConfig::paper_default());
        for (i, &k) in keys.iter().enumerate() {
            conc.insert(k, i as u64);
            classic.insert(k, i as u64);
        }
        assert_eq!(conc.len(), classic.len(), "{name} len");
        for p in (0..30_000u64).step_by(61) {
            assert_eq!(
                conc.get(p).is_some(),
                classic.get(p).is_some(),
                "{name} get({p})"
            );
        }
        let got: Vec<u64> = conc.range(5_000..6_000).map(|(k, _)| k).collect();
        let want: Vec<u64> = classic.range(5_000..6_000).map(|(k, _)| k).collect();
        assert_eq!(got, want, "{name} range");
    }
}

#[test]
fn deletes_agree_across_variants() {
    let keys = BodsSpec::new(10_000, 0.10, 1.0).generate();
    let mut trees: Vec<(Variant, BpTree<u64, u64>)> = Variant::ALL
        .iter()
        .map(|&v| {
            let mut t = v.build::<u64, u64>(TreeConfig::small(16));
            for (i, &k) in keys.iter().enumerate() {
                t.insert(k, i as u64);
            }
            (v, t)
        })
        .collect();
    // Delete every third key, in the arrival order.
    for &k in keys.iter().step_by(3) {
        for (v, t) in &mut trees {
            assert!(t.delete(k).is_some(), "{v:?} delete({k})");
        }
    }
    for (v, t) in &trees {
        t.check_invariants()
            .unwrap_or_else(|e| panic!("{v:?}: {e}"));
    }
    for p in (0..10_000u64).step_by(41) {
        let expected = trees[0].1.contains_key(p);
        for (v, t) in &trees[1..] {
            assert_eq!(t.contains_key(p), expected, "{v:?} contains({p})");
        }
    }
}
