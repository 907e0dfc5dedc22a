//! Golden on-disk formats: a WAL segment, a sorted snapshot (`.qsnp`) and a
//! paged snapshot (`.qpsf`) exactly as the commit *before* the shared
//! slicing CRC-32 kernel wrote them (`tests/fixtures/`, produced by the op
//! sequences below). Every stored checksum came from the old bitwise and
//! one-table loops, so these files opening proves the kernels since — the
//! slicing table and, on a snapshot chunk or a page, the carry-less
//! multiply — compute the same function; the same ops writing the same
//! bytes proves no format moved.
//!
//! `fixtures/txn` is a `TxnStore` directory (a commit-timestamped snapshot
//! and a log of `Commit` frames), written when the transactional log became
//! one frame per commit; two exact frame sizes are pinned beside it.
//!
//! `fixtures/sorted` logs its 3-entry batch as three insert frames, as
//! every version before run frames did, and must keep opening.
//! `fixtures/sorted-runs` is what the same ops write now: the same
//! `.qsnp`, and a log whose only difference is that batch, one run frame.
//!
//! The last six tests pin the open run at the byte: at `Buffered`, the
//! inserts appended between two flushes share one run frame, and a flush,
//! a commit, a delete, a checkpoint or a full run seals it.

use quit_core::{BpTree, FastPathMode, SortedIndex, StorageKind, TreeConfig};
use quit_durability::{
    bptree_builder, DurabilityConfig, Durable, MemStorage, RecoveryReport, Storage, TxnConfig,
    TxnStore,
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

const SORTED_RUNS: [(&str, &[u8]); 2] = [
    (
        "snap-00000001.qsnp",
        include_bytes!("fixtures/sorted-runs/snap-00000001.qsnp"),
    ),
    (
        "wal-00000001-00000000.log",
        include_bytes!("fixtures/sorted-runs/wal-00000001-00000000.log"),
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

const TXN: [(&str, &[u8]); 2] = [
    (
        "snap-00000001.qsnp",
        include_bytes!("fixtures/txn/snap-00000001.qsnp"),
    ),
    (
        "wal-00000001-00000000.log",
        include_bytes!("fixtures/txn/wal-00000001-00000000.log"),
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

fn open_txn(storage: &Arc<MemStorage>) -> (TxnStore<u64, u64>, RecoveryReport) {
    TxnStore::open(storage.clone() as Arc<dyn Storage>, TxnConfig::default())
        .expect("open transactional directory")
}

/// The ops behind `fixtures/txn`: auto-commit inserts of 0..20, an
/// auto-commit delete and a 3-write transaction (one of them a delete)
/// checkpointed, then a tail of one auto-commit and one more transaction.
fn write_txn(store: &TxnStore<u64, u64>) {
    for k in 0..20u64 {
        store.insert(k, k * 10).unwrap();
    }
    store.delete(4).unwrap();
    let mut txn = store.begin();
    txn.insert(100, 1);
    txn.delete(9);
    txn.insert(3, 33);
    txn.commit().unwrap();
    store.checkpoint().unwrap();
    store.insert(20, 200).unwrap();
    let mut txn = store.begin();
    txn.insert(101, 2);
    txn.delete(0);
    txn.commit().unwrap();
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
fn golden_sorted_runs_open_to_the_same_state() {
    let (mut old, old_report) = open_sorted(&installed(&SORTED));
    let (mut new, new_report) = open_sorted(&installed(&SORTED_RUNS));
    // The batch's three LSNs are one frame now, and still three LSNs.
    let report = |r: &RecoveryReport| {
        (
            r.snapshot_entries,
            r.snapshot_lsn,
            r.tail_records,
            r.recovered_lsn,
            r.torn_tail,
        )
    };
    assert_eq!(report(&new_report), report(&old_report));
    assert_eq!(report(&new_report), (38, 42, 14, 56, false));
    assert_eq!(
        new.range(..).collect::<Vec<_>>(),
        old.range(..).collect::<Vec<_>>()
    );
    assert_eq!(SORTED_RUNS[0].1, SORTED[0].1, "the snapshot is unchanged");
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
fn golden_txn_snapshot_and_wal_open() {
    let (store, report) = open_txn(&installed(&TXN));
    // 0..20 minus {4, 9} plus 100; the tail counts writes applied, not
    // frames: one auto-commit and a 2-write transaction.
    assert_eq!(report.snapshot_entries, 19);
    assert_eq!(report.tail_records, 3);
    assert_eq!(report.recovered_lsn, 24);
    assert!(!report.torn_tail && report.rejected_snapshots == 0);
    let want: Vec<(u64, u64)> = (1..=20u64)
        .filter(|k| ![4, 9].contains(k))
        .map(|k| (k, if k == 3 { 33 } else { k * 10 }))
        .chain([(100, 1), (101, 2)])
        .collect();
    assert_eq!(store.scan(..), want);
    assert_eq!(store.len(), want.len());
    store.mvcc().check_consistency().unwrap();
}

#[test]
fn commit_frames_have_these_exact_sizes() {
    let storage = Arc::new(MemStorage::new());
    let (store, _) = open_txn(&storage);
    store.insert(0, 0).unwrap();
    // 8 frame header + 8 LSN + 1 kind + 8 commit_ts + 4 count + 17 per
    // (u64, u64) write — against 33 for a plain insert record.
    let before = storage.total_appended();
    store.insert(1, 10).unwrap();
    assert_eq!(storage.total_appended() - before, 46);

    let before = storage.total_appended();
    let mut txn = store.begin();
    for k in 100..164u64 {
        txn.insert(k, k);
    }
    txn.commit().unwrap();
    assert_eq!(storage.total_appended() - before, 29 + 64 * 17);
    assert_eq!(29 + 64 * 17, 1117);
}

#[test]
fn run_frames_have_these_exact_sizes() {
    let storage = Arc::new(MemStorage::new());
    let (mut d, _) = open_sorted(&storage);
    d.insert(0, 0);
    // A 1-entry batch is a plain insert record: 8 frame header + 8 LSN +
    // 1 kind + 16 for the (u64, u64) entry.
    let before = storage.total_appended();
    d.insert_batch(&[(1, 10)]);
    assert_eq!(storage.total_appended() - before, 33);

    // A longer batch is one run frame: 8 + 8 + 1 kind + 4 count, then 16
    // per entry.
    let before = storage.total_appended();
    d.insert_batch(&(100..164u64).map(|k| (k, k)).collect::<Vec<_>>());
    assert_eq!(storage.total_appended() - before, 21 + 64 * 16);
    assert_eq!(21 + 64 * 16, 1045);
    assert_eq!(d.wal().last_lsn(), 2 + 64);
}

#[test]
fn the_same_ops_still_write_the_golden_bytes() {
    let storage = Arc::new(MemStorage::new());
    let (mut d, _) = open_sorted(&storage);
    write_sorted(&mut d);
    drop(d);
    assert_same_files(&storage, &SORTED_RUNS);

    let storage = Arc::new(MemStorage::new());
    let (mut d, _) = open_paged(&storage);
    write_paged(&mut d);
    drop(d);
    assert_same_files(&storage, &PAGED);

    let storage = Arc::new(MemStorage::new());
    let (store, _) = open_txn(&storage);
    write_txn(&store);
    drop(store);
    assert_same_files(&storage, &TXN);
}

/// A `Buffered` store whose 4 MiB WAL buffer never fills in these tests,
/// with its segment opened by one flushed insert, so every later flush's
/// bytes are frames alone.
fn open_run_store() -> (Arc<MemStorage>, Store) {
    let storage = Arc::new(MemStorage::new());
    let (mut d, _) = Durable::open(
        storage.clone() as Arc<dyn Storage>,
        DurabilityConfig::buffered()
            .with_wal_buffer_bytes(4 << 20)
            .with_prune_on_checkpoint(false),
        bptree_builder(FastPathMode::Pole, TreeConfig::small(8)),
    )
    .expect("open buffered directory");
    d.insert(0, 0);
    d.flush().unwrap();
    // The 34-byte segment header and one 33-byte insert record.
    assert_eq!(storage.total_appended(), 34 + 33);
    (storage, d)
}

/// The bytes `write` and a final commit make the store append. A reopen of
/// the harshest crash image must then hold what the store holds.
fn appended(storage: &MemStorage, d: &mut Store, write: impl FnOnce(&mut Store)) -> usize {
    let before = storage.total_appended();
    write(d);
    d.commit_all().unwrap();
    let (mut reopened, report) = open_sorted(&Arc::new(storage.crash_durable_only()));
    assert!(!report.torn_tail);
    assert_eq!(
        reopened.range(..).collect::<Vec<_>>(),
        d.range(..).collect::<Vec<_>>()
    );
    storage.total_appended() - before
}

#[test]
fn single_inserts_between_flushes_share_one_run_frame() {
    for n in [2u64, 3, 100] {
        let (storage, mut d) = open_run_store();
        let bytes = appended(&storage, &mut d, |d| {
            for k in 1..=n {
                d.insert(k, k * 10);
            }
            d.flush().unwrap();
        });
        // 8 frame header + 8 LSN + 1 kind + 4 count, then 16 per entry.
        assert_eq!(bytes as u64, 21 + 16 * n, "{n} inserts");
        assert_eq!(d.wal().last_lsn(), 1 + n);
    }
}

#[test]
fn a_lone_insert_is_still_a_plain_insert_record() {
    let (storage, mut d) = open_run_store();
    let bytes = appended(&storage, &mut d, |d| {
        d.insert(5, 50);
        d.flush().unwrap();
    });
    assert_eq!(bytes, 33);
}

#[test]
fn a_delete_seals_the_run_before_it() {
    let (storage, mut d) = open_run_store();
    let bytes = appended(&storage, &mut d, |d| {
        for k in 1..=3 {
            d.insert(k, k);
        }
        d.delete(2);
        for k in 4..=5 {
            d.insert(k, k);
        }
        d.flush().unwrap();
    });
    // A 3-entry run, a 25-byte delete record (8 + 8 + 1 kind + 8 key) and
    // a 2-entry run.
    assert_eq!(bytes, (21 + 3 * 16) + 25 + (21 + 2 * 16));
    assert_eq!(
        d.range(..).map(|(k, _)| k).collect::<Vec<_>>(),
        [0, 1, 3, 4, 5]
    );
}

#[test]
fn a_commit_seals_the_run_it_makes_durable() {
    let (storage, mut d) = open_run_store();
    let before = storage.total_appended();
    for k in 1..=3 {
        d.insert(k, k);
    }
    d.commit_all().unwrap();
    assert_eq!(storage.total_appended() - before, 21 + 3 * 16);
    assert_eq!(storage.durable_bytes(), storage.total_appended());
    let bytes = appended(&storage, &mut d, |d| {
        for k in 4..=5 {
            d.insert(k, k);
        }
    });
    assert_eq!(bytes, 21 + 2 * 16);
}

#[test]
fn a_run_holds_at_most_max_run_entries_inserts() {
    // `MAX_RUN_ENTRIES`: the 65 537th insert starts a frame of its own.
    const MAX_RUN_ENTRIES: usize = 1 << 16;
    let (storage, mut d) = open_run_store();
    let bytes = appended(&storage, &mut d, |d| {
        for k in 1..=MAX_RUN_ENTRIES as u64 + 1 {
            d.insert(k, k);
        }
        d.flush().unwrap();
    });
    assert_eq!(bytes, (21 + 16 * MAX_RUN_ENTRIES) + 33);
}

#[test]
fn a_checkpoint_seals_the_open_run() {
    let (storage, mut d) = open_run_store();
    for k in 1..=3 {
        d.insert(k, k);
    }
    d.checkpoint().unwrap();
    // Generation 0's segment ends in the sealed run; the snapshot holds
    // all four entries.
    let segment = storage.read("wal-00000000-00000000.log").unwrap();
    assert_eq!(segment.len(), 34 + 33 + (21 + 3 * 16));
    let (mut reopened, report) = open_sorted(&Arc::new(storage.crash_durable_only()));
    assert_eq!((report.snapshot_entries, report.tail_records), (4, 0));
    assert_eq!(reopened.range(..).count(), 4);
}
