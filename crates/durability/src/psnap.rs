//! Paged snapshot (checkpoint) files: the page-file flavour of
//! `crate::snapshot`.
//!
//! Where a sorted snapshot (`snap-….qsnp`) stores *entries* and recovery
//! rebuilds the tree with `bulk_load`, a paged snapshot
//! (`psnap-{generation:08}.qpsf`) stores the tree's *pages* — the
//! `quit_core::BpTree::to_page_image` format wrapped in a small
//! generation/LSN header:
//!
//! ```text
//! ┌──────────────┬─────────┬─────────┬─────────────┬─────────┐
//! │ "QPSN1\n"    │ gen u64 │ lsn u64 │ img_len u64 │ crc u32 │  header
//! ├──────────────┴─────────┴─────────┴─────────────┴─────────┤
//! │ tree page image ("QPTB1\n" meta + "QPGA1\n" page file)   │
//! └──────────────────────────────────────────────────────────┘
//! ```
//!
//! The payoff is *lazy recovery*: reopening validates integrity eagerly
//! (this header's CRC, the image's metadata CRC, and every page CRC, in
//! one byte sweep) but decodes no nodes — the root and spine fault in
//! from the buffer pool on first use, so recovery cost stops scaling with
//! tree size. The publish discipline is identical to sorted snapshots:
//! written to `….tmp`, synced, then durably renamed, so the final name
//! only ever denotes a complete file, and any malformation — torn page,
//! flipped byte, truncation — rejects the whole candidate and recovery
//! falls back to the previous generation plus the un-pruned WAL.

use crate::storage::Storage;
use crate::wal::Lsn;
use quit_core::crc32;
use std::io;

pub(crate) const PSNAP_MAGIC: &[u8; 6] = b"QPSN1\n";
pub(crate) const PSNAP_HEADER: usize = 6 + 8 + 8 + 8 + 4;

pub(crate) fn psnap_name(generation: u64) -> String {
    format!("psnap-{generation:08}.qpsf")
}

pub(crate) fn parse_psnap_name(name: &str) -> Option<u64> {
    let generation = name.strip_prefix("psnap-")?.strip_suffix(".qpsf")?;
    if generation.len() != 8 {
        return None;
    }
    generation.parse().ok()
}

/// Writes and fsyncs the generation-`generation` paged snapshot: `image`
/// (a [`quit_core::BpTree::to_page_image`] byte image) as of `lsn`,
/// published atomically via tmp + sync + rename like its sorted sibling.
pub(crate) fn write_paged_snapshot(
    storage: &dyn Storage,
    generation: u64,
    lsn: Lsn,
    image: &[u8],
) -> io::Result<()> {
    let file = psnap_name(generation);
    let tmp = format!("{file}.tmp");
    // A leftover tmp from an interrupted checkpoint must not be appended
    // onto.
    storage.remove(&tmp)?;
    let mut header = Vec::with_capacity(PSNAP_HEADER);
    header.extend_from_slice(PSNAP_MAGIC);
    header.extend_from_slice(&generation.to_le_bytes());
    header.extend_from_slice(&lsn.to_le_bytes());
    header.extend_from_slice(&(image.len() as u64).to_le_bytes());
    let crc = crc32(&header);
    header.extend_from_slice(&crc.to_le_bytes());
    storage.append(&tmp, &header)?;
    storage.append(&tmp, image)?;
    storage.sync(&tmp)?;
    storage.rename(&tmp, &file)
}

/// Splits a paged snapshot file into `(generation, lsn, image)`. `None`
/// on any header malformation or an image length that doesn't match the
/// file — the image's *own* integrity (metadata CRC, per-page CRCs) is
/// the caller's next validation step via `BpTree::from_page_image`.
pub(crate) fn read_paged_snapshot(bytes: &[u8]) -> Option<(u64, Lsn, &[u8])> {
    if bytes.len() < PSNAP_HEADER || &bytes[..6] != PSNAP_MAGIC {
        return None;
    }
    let stored = u32::from_le_bytes(bytes[PSNAP_HEADER - 4..PSNAP_HEADER].try_into().unwrap());
    if crc32(&bytes[..PSNAP_HEADER - 4]) != stored {
        return None;
    }
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let (generation, lsn, img_len) = (word(6), word(14), word(22));
    let image = &bytes[PSNAP_HEADER..];
    if image.len() as u64 != img_len {
        return None;
    }
    Some((generation, lsn, image))
}

/// Paged-snapshot candidates present on `storage`, newest generation
/// first (`.tmp` leftovers are never candidates).
pub(crate) fn paged_snapshot_candidates(storage: &dyn Storage) -> io::Result<Vec<(u64, String)>> {
    let mut generations: Vec<(u64, String)> = storage
        .list()?
        .into_iter()
        .filter_map(|name| parse_psnap_name(&name).map(|g| (g, name)))
        .collect();
    generations.sort();
    generations.reverse();
    Ok(generations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    #[test]
    fn psnap_names_roundtrip() {
        assert_eq!(psnap_name(7), "psnap-00000007.qpsf");
        assert_eq!(parse_psnap_name("psnap-00000007.qpsf"), Some(7));
        assert_eq!(parse_psnap_name("snap-00000007.qsnp"), None);
        assert_eq!(parse_psnap_name("psnap-00000007.qpsf.tmp"), None);
    }

    #[test]
    fn header_roundtrip_and_malformations_rejected() {
        let s = MemStorage::new();
        let image = vec![0xA5u8; 300];
        write_paged_snapshot(&s, 4, 999, &image).unwrap();
        let bytes = s.read(&psnap_name(4)).unwrap();
        let (generation, lsn, got) = read_paged_snapshot(&bytes).unwrap();
        assert_eq!((generation, lsn), (4, 999));
        assert_eq!(got, &image[..]);

        // Every truncation and any header byte flip rejects the file.
        for cut in (0..bytes.len()).step_by(33) {
            assert!(read_paged_snapshot(&bytes[..cut]).is_none(), "cut {cut}");
        }
        for off in 0..PSNAP_HEADER {
            let mut bad = bytes.clone();
            bad[off] ^= 0x40;
            assert!(read_paged_snapshot(&bad).is_none(), "flip at {off}");
        }
    }

    #[test]
    fn candidates_sorted_newest_first_and_ignore_tmp() {
        let s = MemStorage::new();
        write_paged_snapshot(&s, 1, 10, &[1]).unwrap();
        write_paged_snapshot(&s, 3, 30, &[3]).unwrap();
        write_paged_snapshot(&s, 2, 20, &[2]).unwrap();
        s.install("psnap-00000009.qpsf.tmp", vec![9]);
        let got = paged_snapshot_candidates(&s).unwrap();
        let gens: Vec<u64> = got.iter().map(|(g, _)| *g).collect();
        assert_eq!(gens, [3, 2, 1]);
    }
}
