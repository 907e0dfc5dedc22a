//! Golden on-disk formats: a WAL segment, a sorted snapshot (`.qsnp`) and a
//! paged snapshot (`.qpsf`) exactly as the commit *before* the shared
//! slicing CRC-32 kernel wrote them (`tests/fixtures/`, produced by the op
//! sequences below). Every stored checksum came from the old bitwise and
//! one-table loops, so these files opening proves the new kernel computes
//! the same function; the same ops writing the same bytes proves no format
//! moved.

#![cfg(not(feature = "inject-wal-bug"))]

use quit_core::{BpTree, FastPathMode, SortedIndex, StorageKind, TreeConfig};
use quit_durability::{
    bptree_builder, DurabilityConfig, Durable, MemStorage, RecoveryReport, Storage,
};
use std::sync::Arc;

type Store = Durable<BpTree<u64, u64>>;

const SORTED: [(&str, &[u8]); 2] = [
    (
        "snap-00000001.qsnp",
        include_bytes!("fixtures/sorted/snap-00000001.qsnp"),
    ),
    (
        "wal-00000001-00000000.log",
        include_bytes!("fixtures/sorted/wal-00000001-00000000.log"),
    ),
];

const PAGED: [(&str, &[u8]); 2] = [
    (
        "psnap-00000001.qpsf",
        include_bytes!("fixtures/paged/psnap-00000001.qpsf"),
    ),
    (
        "wal-00000001-00000000.log",
        include_bytes!("fixtures/paged/wal-00000001-00000000.log"),
    ),
];

fn open_sorted(storage: &Arc<MemStorage>) -> (Store, RecoveryReport) {
    Durable::open(
        storage.clone() as Arc<dyn Storage>,
        DurabilityConfig::group_commit(),
        bptree_builder(FastPathMode::Pole, TreeConfig::small(8)),
    )
    .expect("open sorted directory")
}

fn open_paged(storage: &Arc<MemStorage>) -> (Store, RecoveryReport) {
    Durable::open_paged(
        storage.clone() as Arc<dyn Storage>,
        DurabilityConfig::group_commit(),
        FastPathMode::Pole,
        TreeConfig::small(8).with_storage(StorageKind::paged(4)),
    )
    .expect("open paged directory")
}

/// The ops behind `fixtures/sorted`: 0..40 minus {5, 17} checkpointed,
/// then a tail of inserts, a delete and one batch.
fn write_sorted(d: &mut Store) {
    for k in 0..40u64 {
        d.insert(k, k * 10);
    }
    d.delete(5);
    d.delete(17);
    d.checkpoint().unwrap();
    for k in 40..50u64 {
        d.insert(k, k * 10);
    }
    d.delete(3);
    d.insert_batch(&[(100, 1), (101, 2), (102, 3)]);
}

/// The ops behind `fixtures/paged`: 0..60 minus {7} checkpointed as a page
/// image, then a tail of inserts and a delete.
fn write_paged(d: &mut Store) {
    for k in 0..60u64 {
        d.insert(k, k + 1000);
    }
    d.delete(7);
    d.checkpoint_paged().unwrap();
    for k in 60..70u64 {
        d.insert(k, k + 1000);
    }
    d.delete(8);
}

fn installed(files: &[(&str, &[u8])]) -> Arc<MemStorage> {
    let storage = Arc::new(MemStorage::new());
    for (name, bytes) in files {
        storage.install(name, bytes.to_vec());
    }
    storage
}

fn assert_same_files(storage: &MemStorage, golden: &[(&str, &[u8])]) {
    let mut names = storage.list().unwrap();
    names.sort();
    let want: Vec<&str> = golden.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, want);
    for (name, bytes) in golden {
        assert!(
            storage.read(name).unwrap() == *bytes,
            "{name} differs from the golden file"
        );
    }
}

#[test]
fn golden_sorted_snapshot_and_wal_open() {
    let (mut d, report) = open_sorted(&installed(&SORTED));
    assert_eq!(report.snapshot_entries, 38);
    assert_eq!(report.tail_records, 14);
    assert!(!report.torn_tail && report.rejected_snapshots == 0);
    let want: Vec<(u64, u64)> = (0..50u64)
        .filter(|k| ![3, 5, 17].contains(k))
        .map(|k| (k, k * 10))
        .chain([(100, 1), (101, 2), (102, 3)])
        .collect();
    assert_eq!(d.range(..).collect::<Vec<_>>(), want);
}

#[test]
fn golden_paged_snapshot_and_wal_open() {
    let (mut d, report) = open_paged(&installed(&PAGED));
    assert_eq!(report.snapshot_entries, 59);
    assert_eq!(report.tail_records, 11);
    assert!(!report.torn_tail && report.rejected_snapshots == 0);
    assert!(d.inner().is_paged());
    let want: Vec<(u64, u64)> = (0..70u64)
        .filter(|k| ![7, 8].contains(k))
        .map(|k| (k, k + 1000))
        .collect();
    assert_eq!(d.range(..).collect::<Vec<_>>(), want);
    d.inner().check_invariants().unwrap();
}

#[test]
fn the_same_ops_still_write_the_golden_bytes() {
    let storage = Arc::new(MemStorage::new());
    let (mut d, _) = open_sorted(&storage);
    write_sorted(&mut d);
    drop(d);
    assert_same_files(&storage, &SORTED);

    let storage = Arc::new(MemStorage::new());
    let (mut d, _) = open_paged(&storage);
    write_paged(&mut d);
    drop(d);
    assert_same_files(&storage, &PAGED);
}
