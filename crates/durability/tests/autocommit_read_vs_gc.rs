//! Auto-commit reads against a collector that runs after every overwrite.
//!
//! `TxnStore::get` and `TxnStore::scan` pick a snapshot of their own. If
//! nothing holds the GC watermark at or below that snapshot, a pass
//! between choosing it and resolving a key can collect the very version
//! the read needs, and a key that is *always* present reads as absent.
//! One thread overwrites 2 000 preloaded keys in a loop with
//! `gc_every = 1`; the other reads. Every scan must return all 2 000 keys
//! and every get must hit.

use quit_durability::{DurabilityConfig, MemStorage, Storage, TxnConfig, TxnStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const KEYS: u64 = 2_000;

#[test]
fn autocommit_reads_never_lose_a_key_to_a_concurrent_gc() {
    let (store, _) = TxnStore::<u64, u64>::open(
        Arc::new(MemStorage::new()) as Arc<dyn Storage>,
        TxnConfig::default()
            .with_durability(DurabilityConfig::off())
            .with_gc_every(1),
    )
    .unwrap();
    for k in 0..KEYS {
        store.insert(k, 0).unwrap();
    }
    let reads_done = AtomicBool::new(false);
    // Failures are counted, not asserted, inside the scope: a panicking
    // reader would leave the writer spinning on `reads_done` forever.
    let (mut scans, mut short_scans, mut gets, mut missed_gets) = (0u64, 0u64, 0u64, 0u64);
    let passes = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut pass = 0u64;
            while !reads_done.load(Ordering::Relaxed) {
                pass += 1;
                for k in 0..KEYS {
                    store.insert(k, pass).unwrap();
                }
            }
            pass
        });
        let until = Instant::now() + Duration::from_millis(1_500);
        while Instant::now() < until {
            scans += 1;
            short_scans += u64::from(store.scan(..).len() as u64 != KEYS);
            for k in (0..KEYS).step_by(7) {
                gets += 1;
                missed_gets += u64::from(store.get(k).is_none());
            }
        }
        reads_done.store(true, Ordering::Relaxed);
        writer.join().unwrap()
    });
    assert!(scans > 0 && gets > 0 && passes > 0);
    assert_eq!(short_scans, 0, "of {scans} scans, some lost keys");
    assert_eq!(missed_gets, 0, "of {gets} gets, some missed a present key");
    assert!(store.txn_stats().gc_reclaimed > 0, "the collector must run");
    assert_eq!(store.len() as u64, KEYS);
    store.mvcc().check_consistency().unwrap();
}
