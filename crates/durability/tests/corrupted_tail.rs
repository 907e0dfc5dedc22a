//! Corrupted-tail recovery: every malformed WAL ending a crash can
//! plausibly leave behind must recover the clean prefix — and never panic.
//!
//! Each case fabricates a storage image (valid segments produced by the
//! real WAL, then surgically damaged and re-installed byte-for-byte) and
//! asserts recovery lands on exactly the records before the damage.
//!
//! The opposite case is pinned too: a frame whose CRC *verifies* but which
//! this open cannot read (a retired kind, other key/value widths, a run of
//! the wrong shape or across the snapshot's LSN) is a completed write, not
//! damage — the open fails instead of dropping it and everything after it
//! as a "torn tail".

use quit_core::{FastPathMode, SortedIndex, TreeConfig};
use quit_durability::{
    bptree_builder, crc32, DurabilityConfig, Durable, MemStorage, Recovered, RecoveryReport,
    Storage, TxnConfig, TxnStore,
};
use std::sync::Arc;

fn builder() -> impl FnOnce(Recovered<'_, u64, u64>) -> quit_core::BpTree<u64, u64> {
    bptree_builder(FastPathMode::Pole, TreeConfig::small(16))
}

fn open(storage: Arc<MemStorage>) -> (Durable<quit_core::BpTree<u64, u64>>, RecoveryReport) {
    Durable::open(
        storage as Arc<dyn Storage>,
        DurabilityConfig::group_commit(),
        builder(),
    )
    .expect("recovery must not fail on corrupt tails")
}

/// A storage image holding `n` committed inserts `(k, k * 10)` in a single
/// segment, returned with that segment's name and raw bytes.
fn one_segment_image(n: u64) -> (Arc<MemStorage>, String, Vec<u8>) {
    let storage = Arc::new(MemStorage::new());
    let (mut d, _) = open(storage.clone());
    for k in 0..n {
        d.insert(k, k * 10);
    }
    drop(d);
    let (name, bytes) = only_segment(&storage);
    (storage, name, bytes)
}

/// The name and bytes of the one WAL segment on `storage`.
fn only_segment(storage: &MemStorage) -> (String, Vec<u8>) {
    let mut segments: Vec<String> = storage
        .list()
        .unwrap()
        .into_iter()
        .filter(|f| f.starts_with("wal-"))
        .collect();
    assert_eq!(segments.len(), 1, "fits one segment: {segments:?}");
    let name = segments.pop().unwrap();
    let bytes = storage.read(&name).unwrap();
    (name, bytes)
}

/// Re-installs `bytes` as the only copy of `name` on a fresh store.
fn image_with(name: &str, bytes: Vec<u8>) -> Arc<MemStorage> {
    let storage = Arc::new(MemStorage::new());
    storage.install(name, bytes);
    storage
}

/// Recovery with assertions shared by every damaged-tail case: the first
/// `intact` records survive, nothing else appears, and the report admits
/// the tear.
fn assert_recovers_prefix(storage: Arc<MemStorage>, intact: u64, torn: bool) {
    let (mut d, report) = open(storage);
    assert_eq!(report.recovered_lsn, intact);
    assert_eq!(report.torn_tail, torn);
    assert_eq!(d.len() as u64, intact);
    for k in 0..intact {
        assert_eq!(d.get(k), Some(k * 10), "record {k} must survive");
    }
    d.inner().check_invariants().unwrap();
}

#[test]
fn truncated_length_word_recovers_prefix() {
    let (_, name, bytes) = one_segment_image(20);
    // Chop the last frame down to 3 bytes: not even a complete length
    // word. The 19 whole frames before it must replay. (All 20 frames are
    // u64/u64 inserts, so the per-frame size falls out of the division.)
    let frame = (bytes.len() - 34) / 20;
    let cut = 34 + 19 * frame + 3;
    assert_recovers_prefix(image_with(&name, bytes[..cut].to_vec()), 19, true);
}

#[test]
fn bad_crc_stops_replay_cleanly() {
    let (_, name, mut bytes) = one_segment_image(20);
    // Flip one payload bit in the 16th frame: frames 1..=15 replay, the
    // corrupt one and everything after it do not.
    let frame = (bytes.len() - 34) / 20;
    bytes[34 + 15 * frame + 12] ^= 0x40;
    assert_recovers_prefix(image_with(&name, bytes), 15, true);
}

#[test]
fn torn_final_record_recovers_prefix() {
    let (_, name, bytes) = one_segment_image(20);
    // Keep the final frame's header and half its payload — the torn-write
    // shape an 8-frame-aligned disk leaves behind.
    let cut = bytes.len() - 9;
    assert_recovers_prefix(image_with(&name, bytes[..cut].to_vec()), 19, true);
}

#[test]
fn empty_and_header_only_segments_recover_empty() {
    // A zero-byte segment file (crash between create and header write).
    let (d, report) = open(image_with("wal-00000000-00000000.log", Vec::new()));
    assert_eq!(report.recovered_lsn, 0);
    assert!(d.is_empty());
    drop(d);

    // A header-only segment (crash right after rotation) is valid and
    // holds zero records — not a tear.
    let (_, name, bytes) = one_segment_image(5);
    let storage = image_with(&name, bytes[..34].to_vec());
    let (d, report) = open(storage);
    assert_eq!(report.recovered_lsn, 0);
    assert!(!report.torn_tail);
    assert!(d.is_empty());
}

#[test]
fn garbage_header_is_skipped_not_fatal() {
    let storage = image_with("wal-00000000-00000000.log", b"not a wal segment".to_vec());
    let (d, report) = open(storage);
    assert_eq!(report.recovered_lsn, 0);
    assert!(d.is_empty());
}

#[test]
fn stale_previous_generation_segment_is_skipped() {
    // Build a store where a checkpoint advanced the generation but pruning
    // is off, leaving the superseded generation-0 segments in place.
    let storage = Arc::new(MemStorage::new());
    let config = DurabilityConfig::group_commit().with_prune_on_checkpoint(false);
    let (mut d, _) = Durable::open(storage.clone() as Arc<dyn Storage>, config, builder()).unwrap();
    for k in 0..50u64 {
        d.insert(k, k * 10);
    }
    d.checkpoint::<u64, u64>().unwrap();
    for k in 50..60u64 {
        d.insert(k, k * 10);
    }
    drop(d);
    let files = storage.list().unwrap();
    assert!(
        files.iter().any(|f| f.starts_with("wal-00000000")),
        "stale generation-0 segment retained: {files:?}"
    );

    let crashed = Arc::new(storage.crash_durable_only());
    let (mut d, report) = open(crashed);
    assert_eq!(report.snapshot_entries, 50);
    assert!(report.stale_segments > 0, "{report:?}");
    assert_eq!(report.recovered_lsn, 60);
    assert_eq!(d.len(), 60, "stale records must not double-apply");
    for k in 0..60u64 {
        assert_eq!(d.get(k), Some(k * 10));
    }
}

/// A frame as the WAL lays it out — `len | crc | lsn | kind | body`, the
/// CRC over everything after itself — built by hand so it can carry a kind
/// the encoder no longer writes.
fn raw_frame(lsn: u64, kind: u8, body: &[u8]) -> Vec<u8> {
    let mut payload = lsn.to_le_bytes().to_vec();
    payload.push(kind);
    payload.extend_from_slice(body);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

#[test]
fn a_retired_kind_with_a_valid_crc_fails_the_open() {
    // Kind 4 was the per-key write record of the retired multi-record
    // transaction log: `tid | key | value`. Three good records, then one.
    let (_, name, mut bytes) = one_segment_image(3);
    let body: Vec<u8> = [42u64, 7, 70]
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    bytes.extend(raw_frame(4, 4, &body));

    let plain = Durable::open(
        image_with(&name, bytes.clone()) as Arc<dyn Storage>,
        DurabilityConfig::group_commit(),
        builder(),
    )
    .map(drop);
    let txn = TxnStore::<u64, u64>::open(
        image_with(
            &name,
            bytes[..34]
                .iter()
                .copied()
                .chain(raw_frame(1, 4, &body))
                .collect(),
        ) as Arc<dyn Storage>,
        TxnConfig::default(),
    )
    .map(drop);
    for (err, lsn) in [(plain.unwrap_err(), "LSN 4"), (txn.unwrap_err(), "LSN 1")] {
        assert_eq!(err.kind(), "corruption", "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains(lsn) && msg.contains("kind 4") && msg.contains(&name),
            "{msg}"
        );
    }
}

/// A run frame's body: `count`, then `(k, k * 10)` for each key.
fn run_body(count: u32, keys: &[u64]) -> Vec<u8> {
    let mut body = count.to_le_bytes().to_vec();
    for k in keys {
        body.extend(k.to_le_bytes());
        body.extend((k * 10).to_le_bytes());
    }
    body
}

const KIND_RUN: u8 = 9;

#[test]
fn a_log_cut_inside_its_final_run_frame_recovers_none_of_the_run() {
    // Five single inserts, then a batch of eight: one 149-byte run frame.
    let storage = Arc::new(MemStorage::new());
    let (mut d, _) = open(storage.clone());
    for k in 0..5 {
        d.insert(k, k * 10);
    }
    let boundary = storage.total_appended();
    d.insert_batch(&(5..13u64).map(|k| (k, k * 10)).collect::<Vec<_>>());
    drop(d);
    let (name, bytes) = only_segment(&storage);
    assert_eq!(bytes.len(), boundary + 21 + 8 * 16);

    // The batch was acknowledged as a whole, so it recovers as a whole:
    // every cut inside its frame keeps the five records before it and
    // none of its eight.
    assert_recovers_prefix(image_with(&name, bytes[..boundary].to_vec()), 5, false);
    for cut in boundary + 1..bytes.len() {
        assert_recovers_prefix(image_with(&name, bytes[..cut].to_vec()), 5, true);
    }
    assert_recovers_prefix(image_with(&name, bytes), 13, false);
}

#[test]
fn a_run_frame_that_checks_out_but_cannot_be_read_fails_the_open() {
    let (_, name, bytes) = one_segment_image(3);
    let mut ragged = run_body(2, &[3, 4]);
    ragged.push(0);
    let unreadable = [
        run_body(1, &[3]),       // a run of one
        run_body(0, &[]),        // a run of none
        run_body(3, &[3, 4]),    // fewer entries than counted
        run_body(2, &[3, 4, 5]), // more entries than counted
        ragged,                  // not a whole number of entries
    ];
    for body in unreadable {
        let mut log = bytes.clone();
        log.extend(raw_frame(4, KIND_RUN, &body));
        let err = Durable::open(
            image_with(&name, log) as Arc<dyn Storage>,
            DurabilityConfig::group_commit(),
            builder(),
        )
        .map(drop)
        .unwrap_err();
        assert_eq!(err.kind(), "corruption", "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("LSN 4") && msg.contains("kind 9") && msg.contains(&name),
            "{msg}"
        );
    }
}

#[test]
fn a_run_frame_across_the_snapshot_lsn_fails_the_open() {
    // A snapshot at LSN 5, and after it a CRC-valid run claiming LSNs
    // 4..=6 where the log's own insert at LSN 6 was.
    let storage = Arc::new(MemStorage::new());
    let (mut d, _) = open(storage.clone());
    for k in 0..5 {
        d.insert(k, k * 10);
    }
    d.checkpoint::<u64, u64>().unwrap();
    d.insert(5, 50);
    drop(d);
    let (name, bytes) = only_segment(&storage);
    let mut log = bytes[..34].to_vec();
    log.extend(raw_frame(4, KIND_RUN, &run_body(3, &[5, 6, 7])));
    storage.remove(&name).unwrap();
    storage.install(&name, log);

    let err = Durable::open(
        storage as Arc<dyn Storage>,
        DurabilityConfig::group_commit(),
        builder(),
    )
    .map(drop)
    .unwrap_err();
    assert_eq!(err.kind(), "corruption", "{err}");
    let msg = err.to_string();
    assert!(msg.contains("LSN 4") && msg.contains(&name), "{msg}");
}

#[test]
fn a_log_of_other_key_widths_fails_the_open_instead_of_recovering_empty() {
    let (_, name, bytes) = one_segment_image(20);
    let err = Durable::open(
        image_with(&name, bytes) as Arc<dyn Storage>,
        DurabilityConfig::group_commit(),
        bptree_builder::<u32, u32>(FastPathMode::Pole, TreeConfig::small(16)),
    )
    .map(drop)
    .unwrap_err();
    assert_eq!(err.kind(), "corruption", "{err}");
    assert!(err.to_string().contains("LSN 1"), "{err}");
}
