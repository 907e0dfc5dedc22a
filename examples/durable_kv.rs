//! A durable key-value store in one file: open a write-ahead-logged QuIT
//! index, ingest a near-sorted stream, crash at the worst possible moment,
//! and recover — then checkpoint so the next recovery is a bulk load.
//!
//! ```sh
//! cargo run --release --example durable_kv
//! ```
//!
//! The crash here is simulated by `MemStorage`, whose model is exactly a
//! journaling filesystem's: an fsynced byte survives, anything later may
//! vanish. Swap in `FsStorage::open(path)` for a real on-disk store — the
//! rest of the code is identical.

use quick_insertion_tree::bods::BodsSpec;
use quick_insertion_tree::quit_core::{FastPathMode, SortedIndex, TreeConfig};
use quick_insertion_tree::quit_durability::{
    bptree_builder, DurabilityConfig, Durable, MemStorage, Storage,
};
use std::sync::Arc;

fn main() {
    let storage = Arc::new(MemStorage::new());
    let config = DurabilityConfig::group_commit();
    let build = || bptree_builder::<u64, u64>(FastPathMode::Pole, TreeConfig::paper_default());

    // Open: on an empty store this is a fresh index.
    let (mut kv, report) =
        Durable::open(storage.clone() as Arc<dyn Storage>, config, build()).unwrap();
    println!(
        "opened fresh store: {} entries recovered in {:?}",
        report.snapshot_entries + report.tail_records,
        report.elapsed
    );

    // Ingest a near-sorted event stream (3% disorder). Every insert is
    // WAL-framed and group-committed before it returns; the tree insert
    // itself still rides the poℓe fast path.
    let keys = BodsSpec::new(200_000, 0.03, 1.0).with_seed(7).generate();
    for (seq, &k) in keys.iter().enumerate() {
        kv.insert(k, seq as u64);
    }
    kv.delete(keys[0]);
    let live_len = kv.len();
    let m = SortedIndex::<u64, u64>::metrics(&kv);
    println!(
        "ingested {} events: {:.1}% fast-path, {} WAL appends, {} fsyncs",
        keys.len(),
        m.fast_insert_fraction() * 100.0,
        m.wal_appends,
        m.wal_fsyncs
    );

    // Crash. Only fsync-guaranteed bytes survive — the harshest cut the
    // storage contract allows. (With group commit every acked write is
    // covered; at `DurabilityLevel::Buffered` this would lose the
    // unsynced suffix, and recovery would land on an earlier consistent
    // prefix.)
    drop(kv);
    let after_crash = Arc::new(storage.crash_durable_only());

    // Recover: fold the WAL tail into the (here empty) snapshot, build
    // the tree once bottom-up, and verify nothing acked was lost.
    let (mut kv, report) =
        Durable::open(after_crash.clone() as Arc<dyn Storage>, config, build()).unwrap();
    println!(
        "recovered {} records to LSN {} in {:?} (torn tail: {})",
        report.tail_records, report.recovered_lsn, report.elapsed, report.torn_tail
    );
    assert_eq!(kv.len(), live_len, "every acked write must survive");
    assert_eq!(kv.get(keys[0]), None, "the delete survived too");
    assert_eq!(kv.get(keys[1]), Some(1));

    // Checkpoint: write a sorted snapshot and rotate the WAL. Recovery
    // after this folds a tiny tail into the snapshot, not the whole log.
    kv.checkpoint::<u64, u64>().unwrap();
    for k in 1_000_000..1_000_100u64 {
        kv.insert(k, k);
    }
    drop(kv);
    let after_second_crash = Arc::new(after_crash.crash_durable_only());
    let (kv, report) =
        Durable::open(after_second_crash as Arc<dyn Storage>, config, build()).unwrap();
    println!(
        "post-checkpoint recovery: {} snapshot entries + {} tail records in {:?}",
        report.snapshot_entries, report.tail_records, report.elapsed
    );
    assert_eq!(kv.len(), live_len + 100);
    println!("durable_kv: all checks passed");
}
