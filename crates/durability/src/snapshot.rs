//! Sorted snapshot (checkpoint) files: the tree's full contents *in key
//! order*, as `snap-….qsnp` (DESIGN.md, "Directory layout"). After the
//! header come the entries, in checksummed chunks of `n × (key ‖ value)`.
//!
//! Key order is the point: recovery hands the entries straight to
//! `bulk_load`, which packs leaves bottom-up in O(n) instead of n root-to-
//! leaf inserts — the same sortedness payoff the paper exploits at ingest
//! (§4.2), applied at the recovery boundary. Chunks are CRC-framed like WAL
//! records, so a torn snapshot write is detected and the *whole file* is
//! rejected (snapshots are all-or-nothing; the previous generation plus the
//! un-pruned WAL still recovers everything), on top of the atomic publish
//! [`crate::files::publish`] gives every snapshot.

use crate::files::{self, Kind};
use crate::frame::{Entries, WalCodec};
use crate::storage::Storage;
use crate::wal::Lsn;
use quit_core::crc32;
use std::io;
use std::marker::PhantomData;

/// Publishes the generation-`generation` snapshot: `entries` (key order,
/// duplicates adjacent, `count` of them) as of `lsn`, streamed into chunks
/// of `chunk_entries` so torn writes are detected at chunk granularity.
/// One chunk's buffer is all it holds. An iterator that yields other than
/// `count` entries fails the write before anything is published.
pub(crate) fn write_snapshot<K: WalCodec, V: WalCodec>(
    storage: &dyn Storage,
    generation: u64,
    lsn: Lsn,
    entries: impl IntoIterator<Item = (K, V)>,
    count: usize,
    chunk_entries: usize,
) -> io::Result<()> {
    let words = [generation, lsn, count as u64];
    files::publish(storage, Kind::Sorted, words, |tmp| {
        let chunk_entries = chunk_entries.max(1);
        let mut buf =
            Vec::with_capacity(files::BLOCK_HEADER + chunk_entries * (K::WIDTH + V::WIDTH));
        let (mut entries, mut written) = (entries.into_iter(), 0);
        loop {
            buf.clear();
            let start = files::open_block(&mut buf);
            for (k, v) in entries.by_ref().take(chunk_entries) {
                k.encode_into(&mut buf);
                v.encode_into(&mut buf);
                written += 1;
            }
            if buf.len() == start + files::BLOCK_HEADER {
                break;
            }
            files::seal_block(start, &mut buf, crc32);
            storage.append(tmp, &buf)?;
        }
        if written != count {
            return Err(io::Error::other(format!(
                "a snapshot of {count} entries was handed {written}"
            )));
        }
        Ok(())
    })
}

/// `file`, a whole sorted snapshot, if every chunk after its header checks
/// out and together they hold exactly the `count` entries the header
/// promised; `None` on *any* malformation — a torn or empty chunk, or
/// another count — because a snapshot is only usable if complete.
pub(crate) fn check<K: WalCodec, V: WalCodec>(file: Vec<u8>, count: u64) -> Option<Vec<u8>> {
    let pair = K::WIDTH + V::WIDTH;
    let (mut pos, mut entries) = (files::HEADER, 0u64);
    while pos < file.len() {
        let (chunk, next) = files::read_block(&file, pos, true)?;
        if chunk.is_empty() || !chunk.len().is_multiple_of(pair) {
            return None;
        }
        entries += (chunk.len() / pair) as u64;
        pos = next;
    }
    (entries == count).then_some(file)
}

/// The entries of a snapshot file [`check`] accepted (or of none, for
/// an empty one), a chunk at a time, where they lie.
pub(crate) fn chunks<K: WalCodec, V: WalCodec>(file: &[u8]) -> Chunks<'_, K, V> {
    Chunks {
        rest: file.get(files::HEADER..).unwrap_or_default(),
        pair: PhantomData,
    }
}

/// [`chunks`]: each chunk's entries, their CRC not checked again.
pub(crate) struct Chunks<'a, K, V> {
    rest: &'a [u8],
    pair: PhantomData<fn() -> (K, V)>,
}

impl<K, V> Clone for Chunks<'_, K, V> {
    fn clone(&self) -> Self {
        Chunks {
            rest: self.rest,
            pair: PhantomData,
        }
    }
}

impl<'a, K: WalCodec, V: WalCodec> Iterator for Chunks<'a, K, V> {
    type Item = Entries<'a, K, V>;

    fn next(&mut self) -> Option<Entries<'a, K, V>> {
        if self.rest.is_empty() {
            return None;
        }
        let (chunk, next) = files::read_block(self.rest, 0, false).expect("a chunk `check` read");
        self.rest = &self.rest[next..];
        Some(Entries::new(chunk).expect("a chunk `check` accepted"))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::storage::MemStorage;

    type Contents<K, V> = files::Snapshot<Vec<(K, V)>>;

    /// A whole snapshot file decoded.
    pub(crate) fn read_snapshot<K: WalCodec, V: WalCodec>(bytes: &[u8]) -> Option<Contents<K, V>> {
        let [generation, lsn, count] = files::read_header(Kind::Sorted, bytes)?;
        let file = check::<K, V>(bytes.to_vec(), count)?;
        Some((generation, lsn, chunks(&file).flatten().collect()))
    }

    /// Publishes `entries` as the generation-`generation` snapshot.
    pub(crate) fn write<K: WalCodec + Clone, V: WalCodec + Clone>(
        storage: &dyn Storage,
        generation: u64,
        lsn: Lsn,
        entries: &[(K, V)],
        chunk_entries: usize,
    ) -> io::Result<()> {
        let all = entries.iter().cloned();
        write_snapshot(storage, generation, lsn, all, entries.len(), chunk_entries)
    }

    /// The newest valid snapshot, `(0, 0, [])` if none, and the candidates
    /// rejected on the way.
    fn load_best_snapshot<K: WalCodec, V: WalCodec>(
        storage: &dyn Storage,
    ) -> io::Result<(Contents<K, V>, usize)> {
        let (found, rejected) = files::newest_snapshot(storage, Kind::Sorted, |bytes, count| {
            let file = check::<K, V>(bytes, count)?;
            Some(chunks(&file).flatten().collect())
        })?;
        Ok((found.unwrap_or_default(), rejected))
    }

    fn entries(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|k| (k, k * 10)).collect()
    }

    #[test]
    fn snapshot_roundtrip_and_every_truncation_rejected() {
        let s = MemStorage::new();
        write(&s, 3, 500, &entries(1000), 64).unwrap();
        let bytes = s.read(&files::name(Kind::Sorted, 3, 0)).unwrap();
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
        write(&s, 1, 100, &entries(10), 4).unwrap();
        write(&s, 2, 200, &entries(20), 4).unwrap();
        // Corrupt generation 2 (flip a byte mid-chunk).
        let name = files::name(Kind::Sorted, 2, 0);
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
        write(&s, 1, 100, &entries(10), 4).unwrap();
        // An interrupted generation-2 write: the tmp file exists (even
        // with a fully valid payload) but was never renamed into place.
        let bytes = s.read(&files::name(Kind::Sorted, 1, 0)).unwrap();
        s.install("snap-00000002.qsnp.tmp", bytes);

        let ((generation, lsn, got), rejected) = load_best_snapshot::<u64, u64>(&s).unwrap();
        assert_eq!((generation, lsn), (1, 100));
        assert_eq!(got, entries(10));
        assert_eq!(rejected, 0, "a tmp file is not even a candidate");

        // The next checkpoint's write of generation 2 must replace the
        // leftover tmp, not append onto it.
        write(&s, 2, 200, &entries(20), 4).unwrap();
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
    fn a_miscounted_snapshot_is_never_published() {
        let s = MemStorage::new();
        for count in [2, 4] {
            let err = write_snapshot(&s, 1, 10, entries(3), count, 2).unwrap_err();
            assert!(err.to_string().contains("handed 3"), "{err}");
            assert!(s.read(&files::name(Kind::Sorted, 1, 0)).is_err());
        }
    }

    #[test]
    fn empty_tree_snapshot_is_valid() {
        let s = MemStorage::new();
        write::<u64, u64>(&s, 1, 42, &[], 64).unwrap();
        let ((generation, lsn, got), _) = load_best_snapshot::<u64, u64>(&s).unwrap();
        assert_eq!((generation, lsn), (1, 42));
        assert!(got.is_empty());
    }
}
