//! Sorted snapshot (checkpoint) files.
//!
//! A snapshot is the tree's full contents *in key order*, written as
//! `snap-{generation:08}.qsnp`:
//!
//! ```text
//! ┌──────────────┬─────────┬─────────┬───────────┬───────────┐
//! │ "QSNP1\n"    │ gen u64 │ lsn u64 │ count u64 │ crc u32   │  header
//! ├──────────────┴─────────┴─────────┴───────────┴───────────┤
//! │ [len u32][crc u32][ n × (key ‖ value) ]                  │  chunk …
//! └──────────────────────────────────────────────────────────┘
//! ```
//!
//! Key order is the point: recovery hands the entries straight to
//! `bulk_load`, which packs leaves bottom-up in O(n) instead of n root-to-
//! leaf inserts — the same sortedness payoff the paper exploits at ingest
//! (§4.2), applied at the recovery boundary. Chunks are CRC-framed like WAL
//! records, so a torn snapshot write is detected and the *whole file* is
//! rejected (snapshots are all-or-nothing; the previous generation plus the
//! un-pruned WAL still recovers everything). On top of the CRC defence,
//! snapshots are *published atomically*: written to `….qsnp.tmp`, synced,
//! then durably renamed into place — so the final name only ever denotes a
//! complete file, and pruning the old generation can never outrun the new
//! snapshot's durability.

use crate::frame::WalCodec;
use crate::storage::Storage;
use crate::wal::Lsn;
use quit_core::crc32;
use std::io;

pub(crate) const SNAP_MAGIC: &[u8; 6] = b"QSNP1\n";
pub(crate) const SNAP_HEADER: usize = 6 + 8 + 8 + 8 + 4;

pub(crate) fn snap_name(generation: u64) -> String {
    format!("snap-{generation:08}.qsnp")
}

pub(crate) fn parse_snap_name(name: &str) -> Option<u64> {
    let generation = name.strip_prefix("snap-")?.strip_suffix(".qsnp")?;
    if generation.len() != 8 {
        return None;
    }
    generation.parse().ok()
}

/// Writes and fsyncs the generation-`generation` snapshot: `entries` (key
/// order, duplicates adjacent) as of `lsn`, chunked `chunk_entries` at a
/// time so torn writes are detected at chunk granularity.
///
/// The file is written under `snap-….qsnp.tmp`, synced, and only then
/// renamed to its final name (a durable, atomic publish): a crash during
/// the write leaves at worst a `.tmp` that recovery never reads and the
/// next checkpoint prunes, and the prune that follows a checkpoint can
/// never become durable ahead of the snapshot it relies on.
pub(crate) fn write_snapshot<K: WalCodec, V: WalCodec>(
    storage: &dyn Storage,
    generation: u64,
    lsn: Lsn,
    entries: &[(K, V)],
    chunk_entries: usize,
) -> io::Result<()> {
    let file = snap_name(generation);
    let tmp = format!("{file}.tmp");
    // A leftover tmp from an interrupted checkpoint must not be appended
    // onto.
    storage.remove(&tmp)?;
    let mut header = Vec::with_capacity(SNAP_HEADER);
    header.extend_from_slice(SNAP_MAGIC);
    header.extend_from_slice(&generation.to_le_bytes());
    header.extend_from_slice(&lsn.to_le_bytes());
    header.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    let crc = crc32(&header);
    header.extend_from_slice(&crc.to_le_bytes());
    storage.append(&tmp, &header)?;

    let chunk_entries = chunk_entries.max(1);
    let mut buf = Vec::with_capacity(8 + chunk_entries * (K::WIDTH + V::WIDTH));
    for chunk in entries.chunks(chunk_entries) {
        buf.clear();
        buf.extend_from_slice(&[0u8; 8]); // len + crc, patched below
        for (k, v) in chunk {
            k.encode_into(&mut buf);
            v.encode_into(&mut buf);
        }
        let len = (buf.len() - 8) as u32;
        let crc = crc32(&buf[8..]);
        buf[..4].copy_from_slice(&len.to_le_bytes());
        buf[4..8].copy_from_slice(&crc.to_le_bytes());
        storage.append(&tmp, &buf)?;
    }
    storage.sync(&tmp)?;
    storage.rename(&tmp, &file)
}

/// A decoded snapshot: `(generation, lsn, entries)`.
pub(crate) type SnapshotContents<K, V> = (u64, Lsn, Vec<(K, V)>);

/// Decodes a snapshot file. `None` on *any* malformation — short header,
/// bad magic or CRC, torn chunk, or an entry count that doesn't match —
/// because a snapshot is only usable if complete.
pub(crate) fn read_snapshot<K: WalCodec, V: WalCodec>(
    bytes: &[u8],
) -> Option<SnapshotContents<K, V>> {
    if bytes.len() < SNAP_HEADER || &bytes[..6] != SNAP_MAGIC {
        return None;
    }
    let stored = u32::from_le_bytes(bytes[SNAP_HEADER - 4..SNAP_HEADER].try_into().unwrap());
    if crc32(&bytes[..SNAP_HEADER - 4]) != stored {
        return None;
    }
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let (generation, lsn, count) = (word(6), word(14), word(22));

    let pair = K::WIDTH + V::WIDTH;
    let mut entries = Vec::with_capacity(count.min(1 << 24) as usize);
    let mut pos = SNAP_HEADER;
    while pos < bytes.len() {
        if bytes.len() - pos < 8 {
            return None;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len == 0 || !len.is_multiple_of(pair) || bytes.len() - pos - 8 < len {
            return None;
        }
        let chunk = &bytes[pos + 8..pos + 8 + len];
        if crc32(chunk) != crc {
            return None;
        }
        for entry in chunk.chunks_exact(pair) {
            entries.push((
                K::decode_from(&entry[..K::WIDTH]),
                V::decode_from(&entry[K::WIDTH..]),
            ));
        }
        pos += 8 + len;
    }
    if entries.len() as u64 != count {
        return None;
    }
    Some((generation, lsn, entries))
}

/// Sorted-snapshot files present on `storage`, oldest generation first
/// (`.tmp` leftovers are never candidates).
pub(crate) fn snapshot_candidates(storage: &dyn Storage) -> io::Result<Vec<(u64, String)>> {
    let mut generations: Vec<(u64, String)> = storage
        .list()?
        .into_iter()
        .filter_map(|name| parse_snap_name(&name).map(|g| (g, name)))
        .collect();
    generations.sort();
    Ok(generations)
}

/// Finds the newest fully-valid snapshot. Returns
/// `((generation, lsn, entries), rejected)` — `((0, 0, []), n)` when no valid
/// snapshot exists (`rejected` counts corrupt candidates skipped).
pub(crate) fn load_best_snapshot<K: WalCodec, V: WalCodec>(
    storage: &dyn Storage,
) -> io::Result<(SnapshotContents<K, V>, usize)> {
    let generations = snapshot_candidates(storage)?;
    let mut rejected = 0;
    for (_, name) in generations.iter().rev() {
        let bytes = storage.read(name)?;
        match read_snapshot::<K, V>(&bytes) {
            Some(contents) => return Ok((contents, rejected)),
            None => rejected += 1,
        }
    }
    Ok(((0, 0, Vec::new()), rejected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn entries(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|k| (k, k * 10)).collect()
    }

    #[test]
    fn snap_names_roundtrip() {
        assert_eq!(snap_name(7), "snap-00000007.qsnp");
        assert_eq!(parse_snap_name("snap-00000007.qsnp"), Some(7));
        assert_eq!(parse_snap_name("wal-00000001-00000001.log"), None);
    }

    #[test]
    fn snapshot_roundtrip_and_every_truncation_rejected() {
        let s = MemStorage::new();
        write_snapshot(&s, 3, 500, &entries(1000), 64).unwrap();
        let bytes = s.read(&snap_name(3)).unwrap();
        let (generation, lsn, got) = read_snapshot::<u64, u64>(&bytes).unwrap();
        assert_eq!((generation, lsn), (3, 500));
        assert_eq!(got, entries(1000));

        for cut in (0..bytes.len()).step_by(97) {
            assert!(
                read_snapshot::<u64, u64>(&bytes[..cut]).is_none(),
                "truncation at {cut} must reject the snapshot"
            );
        }
    }

    #[test]
    fn best_snapshot_skips_corrupt_newest() {
        let s = MemStorage::new();
        write_snapshot(&s, 1, 100, &entries(10), 4).unwrap();
        write_snapshot(&s, 2, 200, &entries(20), 4).unwrap();
        // Corrupt generation 2 (flip a byte mid-chunk).
        let name = snap_name(2);
        let mut bytes = s.read(&name).unwrap();
        let at = bytes.len() - 5;
        bytes[at] ^= 1;
        s.remove(&name).unwrap();
        s.install(&name, bytes);

        let ((generation, lsn, got), rejected) = load_best_snapshot::<u64, u64>(&s).unwrap();
        assert_eq!((generation, lsn), (1, 100));
        assert_eq!(got, entries(10));
        assert_eq!(rejected, 1);
    }

    #[test]
    fn interrupted_snapshot_leaves_only_tmp_and_is_ignored() {
        let s = MemStorage::new();
        write_snapshot(&s, 1, 100, &entries(10), 4).unwrap();
        // An interrupted generation-2 write: the tmp file exists (even
        // with a fully valid payload) but was never renamed into place.
        let bytes = s.read(&snap_name(1)).unwrap();
        s.install("snap-00000002.qsnp.tmp", bytes);

        let ((generation, lsn, got), rejected) = load_best_snapshot::<u64, u64>(&s).unwrap();
        assert_eq!((generation, lsn), (1, 100));
        assert_eq!(got, entries(10));
        assert_eq!(rejected, 0, "a tmp file is not even a candidate");

        // The next checkpoint's write of generation 2 must replace the
        // leftover tmp, not append onto it.
        write_snapshot(&s, 2, 200, &entries(20), 4).unwrap();
        let ((generation, _, got), _) = load_best_snapshot::<u64, u64>(&s).unwrap();
        assert_eq!(generation, 2);
        assert_eq!(got, entries(20));
    }

    #[test]
    fn empty_store_has_no_snapshot() {
        let s = MemStorage::new();
        let ((generation, lsn, got), rejected) = load_best_snapshot::<u64, u64>(&s).unwrap();
        assert_eq!((generation, lsn, rejected), (0, 0, 0));
        assert!(got.is_empty());
    }

    #[test]
    fn empty_tree_snapshot_is_valid() {
        let s = MemStorage::new();
        write_snapshot::<u64, u64>(&s, 1, 42, &[], 64).unwrap();
        let ((generation, lsn, got), _) = load_best_snapshot::<u64, u64>(&s).unwrap();
        assert_eq!((generation, lsn), (1, 42));
        assert!(got.is_empty());
    }
}
