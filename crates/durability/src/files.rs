//! The store's directory: what a durable file is.
//!
//! Three kinds of file live in a store's [`Storage`], and this module is
//! the one place that knows how each is named, how each begins, how its
//! checksummed blocks are laid out, how a snapshot is published, which
//! snapshot recovery trusts, and which files a checkpoint supersedes.
//! DESIGN.md ("Directory layout") tabulates the kinds.
//!
//! * **Names.** `wal-{generation:08}-{seq:08}.log`,
//!   `snap-{generation:08}.qsnp` and `psnap-{generation:08}.qpsf`: every
//!   number ASCII digits, zero-padded to eight and longer from 10⁸ on.
//!   [`parse`] accepts exactly the names [`name`] writes, so a foreign
//!   file is never read as a candidate or pruned as superseded, and no
//!   file written is ever missed.
//! * **Header.** Every file opens with the same 34 bytes: a 6-byte magic
//!   naming its kind, three little-endian `u64` words and a CRC-32 of the
//!   30 bytes before it. The words are `(generation, seq, start_lsn)` for
//!   a segment and `(generation, lsn, length)` for a snapshot, the length
//!   being a sorted snapshot's entry count or a paged one's image bytes.
//! * **Block.** `len u32 ‖ crc u32 ‖ len bytes`, the CRC over the bytes.
//!   Every WAL frame and every sorted-snapshot chunk is one.
//! * **Publish.** A snapshot is written under `….tmp`, synced, then
//!   durably renamed, so its final name only ever denotes a complete file
//!   and the prune that follows can never become durable ahead of it.

use crate::storage::Storage;
use quit_core::crc32;
use std::io;

/// The three kinds of durable file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A WAL segment.
    Wal,
    /// A sorted snapshot: the entries in key order, in checksummed chunks.
    Sorted,
    /// A paged snapshot: the tree's page image.
    Paged,
}

impl Kind {
    /// Name prefix, name suffix and header magic.
    fn spelling(self) -> (&'static str, &'static str, &'static [u8; 6]) {
        match self {
            Kind::Wal => ("wal-", ".log", b"QWAL1\n"),
            Kind::Sorted => ("snap-", ".qsnp", b"QSNP1\n"),
            Kind::Paged => ("psnap-", ".qpsf", b"QPSN1\n"),
        }
    }
}

const KINDS: [Kind; 3] = [Kind::Wal, Kind::Sorted, Kind::Paged];

/// The file name of `kind`'s `(generation, seq)`; a snapshot has no `seq`
/// and its name ignores it.
pub(crate) fn name(kind: Kind, generation: u64, seq: u64) -> String {
    let (prefix, suffix, _) = kind.spelling();
    match kind {
        Kind::Wal => format!("{prefix}{generation:08}-{seq:08}{suffix}"),
        _ => format!("{prefix}{generation:08}{suffix}"),
    }
}

/// [`name`]'s inverse: the kind, generation and seq (0 for a snapshot) of
/// a name `name` writes, and `None` for any other string.
pub(crate) fn parse(file: &str) -> Option<(Kind, u64, u64)> {
    // What `{:08}` writes: eight digits, or more with no leading zero.
    // `u64::from_str` alone would also take a sign.
    let number = |digits: &str| {
        let padded = digits.len() == 8 || (digits.len() > 8 && !digits.starts_with('0'));
        (padded && digits.bytes().all(|b| b.is_ascii_digit()))
            .then(|| digits.parse().ok())
            .flatten()
    };
    KINDS.into_iter().find_map(|kind| {
        let (prefix, suffix, _) = kind.spelling();
        let rest = file.strip_prefix(prefix)?.strip_suffix(suffix)?;
        let (generation, seq) = match kind {
            Kind::Wal => rest.split_once('-')?,
            _ => (rest, "00000000"),
        };
        Some((kind, number(generation)?, number(seq)?))
    })
}

/// `kind`'s files on `storage` as `(generation, seq, name)`, oldest first
/// (`.tmp` leftovers are never among them).
pub(crate) fn list(storage: &dyn Storage, kind: Kind) -> io::Result<Vec<(u64, u64, String)>> {
    let mut files: Vec<_> = storage
        .list()?
        .into_iter()
        .filter_map(|file| match parse(&file) {
            Some((k, generation, seq)) if k == kind => Some((generation, seq, file)),
            _ => None,
        })
        .collect();
    files.sort();
    Ok(files)
}

/// Bytes in every file's header.
pub(crate) const HEADER: usize = 6 + 3 * 8 + 4;

/// `kind`'s header carrying `words`.
pub(crate) fn header(kind: Kind, words: [u64; 3]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER);
    out.extend_from_slice(kind.spelling().2);
    for word in words {
        out.extend_from_slice(&word.to_le_bytes());
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The words of the `kind` header `bytes` begin with; `None` if they are
/// too short, another kind's, or fail the header's CRC.
pub(crate) fn read_header(kind: Kind, bytes: &[u8]) -> Option<[u64; 3]> {
    let (head, crc) = bytes.get(..HEADER)?.split_at(HEADER - 4);
    if &head[..6] != kind.spelling().2 || crc32(head).to_le_bytes() != crc {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(head[6 + 8 * i..][..8].try_into().expect("8 bytes"));
    Some(std::array::from_fn(word))
}

/// The `len` and `crc` words in front of every block's bytes.
pub(crate) const BLOCK_HEADER: usize = 8;

/// Opens a block at the end of `out`, its words zero until [`seal_block`]
/// writes them, and returns where it starts.
pub(crate) fn open_block(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; BLOCK_HEADER]);
    start
}

/// Writes the words of the block at `start`, whose bytes run to the end of
/// `out`: their length, and their `checksum` — `crc32` everywhere but in a
/// planted bug.
pub(crate) fn seal_block(start: usize, out: &mut [u8], checksum: impl FnOnce(&[u8]) -> u32) {
    let bytes = &out[start + BLOCK_HEADER..];
    let len = u32::try_from(bytes.len()).expect("block exceeds its u32 length word");
    let crc = checksum(bytes);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// The bytes of the block at `pos` and the offset just past it; `None`
/// (a torn or corrupt block) if its words or bytes are cut short or, when
/// `check_crc`, its CRC does not verify. Bytes this has already accepted
/// are read again without `check_crc`.
pub(crate) fn read_block(bytes: &[u8], pos: usize, check_crc: bool) -> Option<(&[u8], usize)> {
    let words = bytes.get(pos..)?.get(..BLOCK_HEADER)?;
    let word = |at: usize| u32::from_le_bytes(words[at..at + 4].try_into().expect("4 bytes"));
    let (len, crc) = (word(0) as usize, word(4));
    let block = bytes[pos + BLOCK_HEADER..].get(..len)?;
    (!check_crc || crc32(block) == crc).then_some((block, pos + BLOCK_HEADER + len))
}

/// Publishes `kind`'s snapshot of generation `words[0]` atomically: its
/// header, then whatever `body` appends to the file named, under
/// `….tmp`, synced, then durably renamed into place. A crash leaves at
/// worst a `.tmp` that recovery never reads and the next checkpoint
/// prunes.
pub(crate) fn publish(
    storage: &dyn Storage,
    kind: Kind,
    words: [u64; 3],
    body: impl FnOnce(&str) -> io::Result<()>,
) -> io::Result<()> {
    let file = name(kind, words[0], 0);
    let tmp = format!("{file}.tmp");
    // A leftover tmp from an interrupted checkpoint must not be appended
    // onto.
    storage.remove(&tmp)?;
    storage.append(&tmp, &header(kind, words))?;
    body(&tmp)?;
    storage.sync(&tmp)?;
    storage.rename(&tmp, &file)
}

/// A snapshot found: `(generation, lsn, decoded)`.
pub(crate) type Snapshot<T> = (u64, u64, T);

/// The newest snapshot of `kind` that verifies as a whole: its header
/// intact and naming the file's own generation, and `decode(bytes, len)`,
/// handed the file and its header's length word, accepting the rest.
/// Returns it, or `None` when no candidate verifies, with the number of
/// candidates rejected before it.
pub(crate) fn newest_snapshot<T>(
    storage: &dyn Storage,
    kind: Kind,
    mut decode: impl FnMut(Vec<u8>, u64) -> Option<T>,
) -> io::Result<(Option<Snapshot<T>>, usize)> {
    let mut rejected = 0;
    for (generation, _, file) in list(storage, kind)?.into_iter().rev() {
        let bytes = storage.read(&file)?;
        let found = match read_header(kind, &bytes) {
            Some([g, lsn, len]) if g == generation => decode(bytes, len).map(|d| (lsn, d)),
            _ => None,
        };
        if let Some((lsn, decoded)) = found {
            return Ok((Some((generation, lsn, decoded)), rejected));
        }
        rejected += 1;
    }
    Ok((None, rejected))
}

/// Whether a checkpoint that published generation `generation` supersedes
/// `file`: a segment or a snapshot of an older generation, or a `.tmp` left
/// by an interrupted publish (the one just written is already renamed).
pub(crate) fn superseded(file: &str, generation: u64) -> bool {
    parse(file).map_or(file.ends_with(".tmp"), |(_, g, _)| g < generation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    /// `file` parsed as `kind` only.
    fn parse_as(kind: Kind, file: &str) -> Option<(u64, u64)> {
        parse(file).and_then(|(k, g, s)| (k == kind).then_some((g, s)))
    }

    #[test]
    fn names_roundtrip() {
        // Once per kind: its name, what parses back, what does not.
        let table: [(Kind, u64, u64, &str, &[&str]); 3] = [
            (
                Kind::Wal,
                3,
                12,
                "wal-00000003-00000012.log",
                &["wal-3-12.log", "snap-00000001.qsnp"],
            ),
            (
                Kind::Sorted,
                7,
                0,
                "snap-00000007.qsnp",
                &["wal-00000001-00000001.log"],
            ),
            (
                Kind::Paged,
                7,
                0,
                "psnap-00000007.qpsf",
                &["snap-00000007.qsnp", "psnap-00000007.qpsf.tmp"],
            ),
        ];
        for (kind, generation, seq, file, refused) in table {
            assert_eq!(name(kind, generation, seq), file);
            assert_eq!(parse_as(kind, file), Some((generation, seq)));
            for other in refused {
                assert_eq!(parse_as(kind, other), None, "{other} read as {kind:?}");
            }
        }
    }

    #[test]
    fn only_the_names_written_parse_and_each_to_what_named_it() {
        let mut written = Vec::new();
        for kind in KINDS {
            for (generation, seq) in [
                (0, 0),
                (7, 12),
                (99_999_999, 99_999_999),
                (100_000_000, 100_000_000),
                (99_999_999, 100_000_000),
                (u64::MAX, u64::MAX),
            ] {
                let seq = if kind == Kind::Wal { seq } else { 0 };
                let file = name(kind, generation, seq);
                assert_eq!(parse(&file), Some((kind, generation, seq)), "{file}");
                written.push(file);
            }
        }
        let foreign = [
            // A sign, which `u64::from_str` takes.
            "snap-+0000007.qsnp",
            "psnap-+0000007.qpsf",
            "wal-+0000003-00000012.log",
            "wal-00000003-+0000012.log",
            "snap--0000007.qsnp",
            // Seven and nine digits.
            "snap-0000007.qsnp",
            "snap-000000007.qsnp",
            "psnap-0000007.qpsf",
            "psnap-000000007.qpsf",
            "wal-0000003-00000012.log",
            "wal-00000003-000000012.log",
            "wal-000000003-0000012.log",
            // Past eight digits: a leading zero, and more than `u64` holds.
            "snap-0100000000.qsnp",
            "psnap-0100000000.qpsf",
            "wal-0100000000-00000012.log",
            "wal-00000003-0100000000.log",
            "snap-100000000000000000000.qsnp",
            "wal-00000003-100000000000000000000.log",
            // Interrupted publishes.
            "snap-00000007.qsnp.tmp",
            "psnap-00000007.qpsf.tmp",
            "wal-00000003-00000012.log.tmp",
            // One kind's name in another's shape.
            "snap-00000007.qpsf",
            "psnap-00000007.qsnp",
            "wal-00000007.log",
            "snap-00000003-00000012.qsnp",
            "psnap-00000003-00000012.qpsf",
            "wal-00000003-00000012.qsnp",
            "wal-00000003.00000012.log",
            // Other non-digits.
            "snap- 0000007.qsnp",
            "snap-0000007a.qsnp",
            "snap-０000007.qsnp",
            "",
        ];
        for file in foreign {
            assert_eq!(parse(file), None, "{file}");
        }
        for file in written.iter().map(String::as_str).chain(foreign) {
            if let Some((kind, generation, seq)) = parse(file) {
                assert_eq!(name(kind, generation, seq), file);
            }
        }
    }

    #[test]
    fn header_roundtrip_and_corruption() {
        for kind in KINDS {
            let h = header(kind, [2, 5, 101]);
            assert_eq!(h.len(), HEADER);
            assert_eq!(read_header(kind, &h), Some([2, 5, 101]));
            let mut bad = h.clone();
            bad[10] ^= 1;
            assert_eq!(read_header(kind, &bad), None);
            // Every truncation and any byte flip is refused.
            for cut in 0..HEADER {
                assert_eq!(read_header(kind, &h[..cut]), None, "{kind:?} cut {cut}");
            }
            for off in 0..HEADER {
                let mut bad = h.clone();
                bad[off] ^= 0x40;
                assert_eq!(read_header(kind, &bad), None, "{kind:?} flip at {off}");
            }
        }
    }

    #[test]
    fn a_header_read_as_another_kind_is_refused() {
        for kind in KINDS {
            let h = header(kind, [2, 5, 101]);
            for other in KINDS.into_iter().filter(|&other| other != kind) {
                assert_eq!(read_header(other, &h), None, "{kind:?} read as {other:?}");
            }
        }
    }

    #[test]
    fn candidates_sorted_newest_first_and_ignore_tmp() {
        for kind in KINDS {
            let s = MemStorage::new();
            for generation in [1, 3, 2] {
                let file = name(kind, generation, 0);
                let words = [generation, generation * 10, 1];
                s.install(
                    &file,
                    [header(kind, words), vec![generation as u8]].concat(),
                );
            }
            s.install(&format!("{}.tmp", name(kind, 9, 0)), vec![9]);
            let listed: Vec<u64> = list(&s, kind).unwrap().iter().map(|f| f.0).collect();
            assert_eq!(listed, [1, 2, 3], "{kind:?}");
            // The search offers them newest first, and counts each refusal.
            let mut offered = Vec::new();
            let (found, rejected) = newest_snapshot(&s, kind, |bytes, _| {
                offered.push(bytes[HEADER] as u64);
                None::<()>
            })
            .unwrap();
            assert_eq!((offered, found, rejected), (vec![3, 2, 1], None, 3));
            let (found, rejected) =
                newest_snapshot(&s, kind, |bytes, len| (bytes[HEADER] != 3).then_some(len))
                    .unwrap();
            assert_eq!((found, rejected), (Some((2, 20, 1)), 1), "{kind:?}");
        }
    }

    #[test]
    fn a_snapshot_whose_header_names_another_generation_is_rejected() {
        let s = MemStorage::new();
        s.install(&name(Kind::Sorted, 4, 0), header(Kind::Sorted, [3, 30, 0]));
        let (found, rejected) = newest_snapshot(&s, Kind::Sorted, |_, _| Some(())).unwrap();
        assert_eq!((found, rejected), (None, 1));
    }

    #[test]
    fn a_checkpoint_supersedes_older_generations_and_tmps_only() {
        for kind in KINDS {
            assert!(superseded(&name(kind, 1, 5), 2));
            assert!(!superseded(&name(kind, 2, 0), 2));
        }
        assert!(superseded("snap-00000009.qsnp.tmp", 2));
        for foreign in ["snap-+0000001.qsnp", "wal-1.log", "notes.txt"] {
            assert!(!superseded(foreign, 2), "{foreign}");
        }
    }
}
