//! WAL record framing: CRC32-protected, LSN-stamped, fixed-width encoded.
//!
//! Every record in a segment is one *frame*:
//!
//! ```text
//! ┌────────────┬────────────┬───────────────────────────────┐
//! │ len  (u32) │ crc  (u32) │ payload (len bytes)           │
//! │ LE         │ LE         │ ┌─────────┬──────┬──────────┐ │
//! │            │            │ │ lsn u64 │ kind │ body     │ │
//! │            │            │ │ LE      │ u8   │ K [+ V]  │ │
//! │            │            │ └─────────┴──────┴──────────┘ │
//! └────────────┴────────────┴───────────────────────────────┘
//! ```
//!
//! `crc` covers exactly the payload, so a torn append (partial frame at the
//! end of a segment) is detected by either a short length word, a short
//! payload, or a CRC mismatch — recovery stops at the last intact frame.
//! Widths come from [`WalCodec`], so decoding never guesses. `kind` is
//!
//! * **1** insert — `body = key ‖ value`;
//! * **2** delete — `body = key`;
//! * **8** commit — one whole transaction, the only record `TxnStore`
//!   writes; its body is as long as its write set:
//!
//! ```text
//! ┌───────────────┬───────┬─────────────────────────────────────────┐
//! │ commit_ts u64 │ n u32 │ n × ( tag u8 │ key │ value if tag = 1 ) │
//! └───────────────┴───────┴─────────────────────────────────────────┘
//! ```
//!
//! `tag` is 1 for a write and 2 for a delete (an entry is a plain record's
//! kind and body), and the body must be exactly as long as its tags imply.
//! One commit is one frame, so its atomicity is the frame's CRC: it replays
//! whole or, torn, not at all.
//!
//! Kinds 3–7 belonged to an earlier multi-record transaction log and are
//! retired: never written, never reused. A frame whose CRC verifies but
//! whose kind is retired or unknown, or whose body does not fit its kind
//! (a log of other `K`/`V` widths), is a completed write this open cannot
//! read: opening fails with a `corruption` error naming it, where a torn
//! tail would silently drop it and everything after it.

use quit_core::{crc32, OrderedF64};

/// Fixed-width, byte-order-independent encoding for WAL keys and values.
///
/// The WAL stores keys and values inline in frames, so both must encode to
/// a fixed number of little-endian bytes. Implementations exist for the
/// primitive integers and [`OrderedF64`] — exactly the types that satisfy
/// `quit-core`'s `Key` contract — plus anything a deployment adds.
pub trait WalCodec: Sized {
    /// Encoded width in bytes. Frames embed no per-record type info, so the
    /// width must be a compile-time constant.
    const WIDTH: usize;

    /// Appends exactly [`WIDTH`](Self::WIDTH) little-endian bytes to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decodes from exactly [`WIDTH`](Self::WIDTH) bytes (the slice is
    /// guaranteed to be that long and CRC-validated by the framing layer).
    fn decode_from(bytes: &[u8]) -> Self;
}

macro_rules! int_codec {
    ($($t:ty),* $(,)?) => {$(
        impl WalCodec for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();

            #[inline]
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn decode_from(bytes: &[u8]) -> Self {
                let mut buf = [0u8; std::mem::size_of::<$t>()];
                buf.copy_from_slice(bytes);
                <$t>::from_le_bytes(buf)
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl WalCodec for OrderedF64 {
    const WIDTH: usize = 8;

    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }

    #[inline]
    fn decode_from(bytes: &[u8]) -> Self {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(bytes);
        // CRC-validated bytes can only hold what was encoded, and an
        // `OrderedF64` cannot be constructed around NaN — so this cannot
        // panic on data the framing layer accepted.
        OrderedF64::new(f64::from_le_bytes(buf))
    }
}

/// One logged record. The WAL records the two `SortedIndex` mutations
/// and the transactional commit; lookups and scans are never logged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalOp<K, V> {
    /// `insert(key, value)` — duplicates allowed and preserved in order.
    Insert(K, V),
    /// `delete(key)` — replays as a no-op if the key is absent, so logging
    /// a miss-delete is harmless (and the `Durable` wrapper always logs
    /// deletes without a read-before-write).
    Delete(K),
    /// One whole transaction, written only by `TxnStore`: every write
    /// (`Some` = value, `None` = MVCC tombstone) becomes visible at
    /// `commit_ts` on replay. The frame's CRC is the atomicity boundary.
    Commit(u64, Vec<(K, Option<V>)>),
}

pub(crate) const KIND_INSERT: u8 = 1;
pub(crate) const KIND_DELETE: u8 = 2;
const KIND_COMMIT: u8 = 8;

/// `len` + `crc` words preceding every payload.
pub(crate) const FRAME_HEADER: usize = 8;

/// Appends one frame at `lsn` to `out`: header, LSN, whatever `body`
/// writes (kind byte first), then the length and CRC patched in.
fn frame(lsn: u64, out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]); // len + crc, patched below
    lsn.encode_into(out);
    body(out);
    let payload_at = start + FRAME_HEADER;
    let len = u32::try_from(out.len() - payload_at).expect("WAL frame exceeds its u32 length word");

    #[cfg(not(feature = "inject-wal-bug"))]
    let crc = crc32(&out[payload_at..]);
    // Injected framing bug: Delete records are checksummed over one byte
    // too few, so their stored CRC never matches the decoder's — recovery
    // silently drops every delete at the torn-tail check, which the
    // crash-recovery differential fuzzer must detect and shrink.
    #[cfg(feature = "inject-wal-bug")]
    let crc = {
        let payload = &out[payload_at..];
        if payload.get(8) == Some(&KIND_DELETE) {
            crc32(&payload[..payload.len() - 1])
        } else {
            crc32(payload)
        }
    };

    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Appends one write: `tag ‖ key ‖ value`, or `tag ‖ key` for a delete. A
/// plain record's kind byte and body are exactly this, and so is each
/// entry of a commit.
fn put_write<K: WalCodec, V: WalCodec>(key: &K, value: Option<&V>, out: &mut Vec<u8>) {
    out.push(if value.is_some() {
        KIND_INSERT
    } else {
        KIND_DELETE
    });
    key.encode_into(out);
    if let Some(value) = value {
        value.encode_into(out);
    }
}

/// Appends one `Insert` frame for a borrowed pair — what logging a batch
/// calls per entry, so the log is written from the caller's slice.
pub(crate) fn encode_insert_frame<K: WalCodec, V: WalCodec>(
    lsn: u64,
    key: &K,
    value: &V,
    out: &mut Vec<u8>,
) {
    frame(lsn, out, |out| put_write(key, Some(value), out));
}

/// Appends one encoded frame for `op` at `lsn` to `out`.
pub(crate) fn encode_frame<K: WalCodec, V: WalCodec>(
    lsn: u64,
    op: &WalOp<K, V>,
    out: &mut Vec<u8>,
) {
    match op {
        WalOp::Insert(k, v) => encode_insert_frame(lsn, k, v, out),
        WalOp::Delete(k) => frame(lsn, out, |out| put_write(k, None::<&V>, out)),
        WalOp::Commit(commit_ts, writes) => encode_commit_frame(lsn, *commit_ts, writes, out),
    }
}

/// Appends one `Commit` frame for a borrowed write set — what `TxnStore`'s
/// commit path calls, so logging a commit clones and allocates nothing.
pub(crate) fn encode_commit_frame<K: WalCodec, V: WalCodec>(
    lsn: u64,
    commit_ts: u64,
    writes: &[(K, Option<V>)],
    out: &mut Vec<u8>,
) {
    let n = u32::try_from(writes.len()).expect("commit exceeds its u32 write count");
    frame(lsn, out, |out| {
        out.push(KIND_COMMIT);
        commit_ts.encode_into(out);
        n.encode_into(out);
        for (key, write) in writes {
            put_write(key, write.as_ref(), out);
        }
    });
}

/// Outcome of decoding the frame starting at one byte offset.
pub(crate) enum FrameStep<K, V> {
    /// An intact frame; `next` is the offset of the following frame.
    Record {
        /// The record's log sequence number.
        lsn: u64,
        /// The decoded mutation.
        op: WalOp<K, V>,
        /// Byte offset just past this frame.
        next: usize,
    },
    /// Clean end: `pos` was exactly the end of the bytes.
    End,
    /// The bytes from `pos` on are not an intact frame (torn/corrupt tail).
    Torn(&'static str),
    /// The frame's CRC verifies but its kind is unknown or retired, or its
    /// body is not what the kind and the `K`/`V` widths imply: a write
    /// that completed, in a format this open cannot read — never a tear.
    Invalid {
        /// The record's log sequence number.
        lsn: u64,
        /// The kind byte found.
        kind: u8,
    },
}

/// Takes one write ([`put_write`]'s inverse) off the front of `bytes`.
fn take_write<K: WalCodec, V: WalCodec>(bytes: &mut &[u8]) -> Option<(K, Option<V>)> {
    let (&tag, rest) = bytes.split_first()?;
    let (key, rest) = rest.split_at_checked(K::WIDTH)?;
    let (value, rest) = match tag {
        KIND_INSERT => {
            let (value, rest) = rest.split_at_checked(V::WIDTH)?;
            (Some(V::decode_from(value)), rest)
        }
        KIND_DELETE => (None, rest),
        _ => return None,
    };
    *bytes = rest;
    Some((K::decode_from(key), value))
}

/// Decodes a payload from its kind byte on; `None` unless the kind is known
/// and the bytes are exactly one record of it.
fn decode_op<K: WalCodec, V: WalCodec>(record: &[u8]) -> Option<WalOp<K, V>> {
    let (op, rest) = if let Some(body) = record.strip_prefix(&[KIND_COMMIT]) {
        let (head, mut rest) = body.split_at_checked(12)?;
        let n = u32::decode_from(&head[8..]) as usize;
        // Sized by what the bytes can hold, not by what the count claims.
        let mut writes = Vec::with_capacity(n.min(rest.len() / (1 + K::WIDTH)));
        for _ in 0..n {
            writes.push(take_write(&mut rest)?);
        }
        (WalOp::Commit(u64::decode_from(&head[..8]), writes), rest)
    } else {
        let mut rest = record;
        match take_write(&mut rest)? {
            (key, Some(value)) => (WalOp::Insert(key, value), rest),
            (key, None) => (WalOp::Delete(key), rest),
        }
    };
    rest.is_empty().then_some(op)
}

/// Decodes the frame starting at `pos`, never panicking: a short header,
/// short payload or CRC mismatch is [`FrameStep::Torn`]; a frame that
/// checks out but cannot be read is [`FrameStep::Invalid`].
pub(crate) fn decode_frame<K: WalCodec, V: WalCodec>(bytes: &[u8], pos: usize) -> FrameStep<K, V> {
    if pos == bytes.len() {
        return FrameStep::End;
    }
    if bytes.len() - pos < FRAME_HEADER {
        return FrameStep::Torn("truncated frame header");
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
    // Any longer length may be real (a commit frame grows with its write
    // set); a garbage one fails one of the two checks below.
    if len < 9 {
        return FrameStep::Torn("implausible frame length");
    }
    if bytes.len() - pos - FRAME_HEADER < len {
        return FrameStep::Torn("truncated frame payload");
    }
    let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
    if crc32(payload) != crc {
        return FrameStep::Torn("payload CRC mismatch");
    }
    let lsn = u64::decode_from(&payload[..8]);
    match decode_op(&payload[8..]) {
        Some(op) => FrameStep::Record {
            lsn,
            op,
            next: pos + FRAME_HEADER + len,
        },
        None => FrameStep::Invalid {
            lsn,
            kind: payload[8],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_float_codecs_roundtrip() {
        let mut buf = Vec::new();
        0xDEAD_BEEF_u64.encode_into(&mut buf);
        assert_eq!(buf.len(), u64::WIDTH);
        assert_eq!(u64::decode_from(&buf), 0xDEAD_BEEF);

        let mut buf = Vec::new();
        (-42i32).encode_into(&mut buf);
        assert_eq!(i32::decode_from(&buf), -42);

        let mut buf = Vec::new();
        OrderedF64::new(-1.5).encode_into(&mut buf);
        assert_eq!(OrderedF64::decode_from(&buf), OrderedF64::new(-1.5));
    }

    #[cfg_attr(feature = "inject-wal-bug", ignore = "framing bug injected")]
    #[test]
    fn frame_roundtrip_insert_and_delete() {
        let mut buf = Vec::new();
        encode_frame::<u64, u64>(7, &WalOp::Insert(3, 30), &mut buf);
        encode_frame::<u64, u64>(8, &WalOp::Delete(3), &mut buf);
        let FrameStep::Record { lsn, op, next } = decode_frame::<u64, u64>(&buf, 0) else {
            panic!("first frame should decode");
        };
        assert_eq!((lsn, op), (7, WalOp::Insert(3, 30)));
        let FrameStep::Record { lsn, op, next } = decode_frame::<u64, u64>(&buf, next) else {
            panic!("second frame should decode");
        };
        assert_eq!((lsn, op), (8, WalOp::Delete(3)));
        assert!(matches!(
            decode_frame::<u64, u64>(&buf, next),
            FrameStep::End
        ));
    }

    fn roundtrip<K, V>(op: WalOp<K, V>) -> usize
    where
        K: WalCodec + PartialEq + std::fmt::Debug,
        V: WalCodec + PartialEq + std::fmt::Debug,
    {
        let mut buf = Vec::new();
        encode_frame(5, &op, &mut buf);
        let FrameStep::Record { lsn, op: got, next } = decode_frame::<K, V>(&buf, 0) else {
            panic!("{op:?} should decode");
        };
        assert_eq!((lsn, &got, next), (5, &op, buf.len()));
        buf.len()
    }

    #[test]
    fn commit_frames_roundtrip() {
        // 8 header + 8 lsn + 1 kind + 8 commit_ts + 4 count, then 17 per
        // (u64, u64) write and 9 per delete.
        assert_eq!(roundtrip(WalOp::<u64, u64>::Commit(1001, vec![])), 29);
        assert_eq!(
            roundtrip(WalOp::Commit(1002, vec![(7u64, Some(700u64))])),
            46
        );
        let mixed = vec![
            (7u64, Some(700u64)),
            (9, None),
            (11, Some(1100)),
            (12, None),
        ];
        assert_eq!(roundtrip(WalOp::Commit(1003, mixed)), 29 + 2 * 17 + 2 * 9);
        let floats = vec![
            (OrderedF64::new(-1.5), Some(3u32)),
            (OrderedF64::new(0.0), None),
            (OrderedF64::new(2.25), Some(4)),
        ];
        assert_eq!(roundtrip(WalOp::Commit(u64::MAX, floats)), 29 + 2 * 13 + 9);
    }

    #[test]
    fn a_frame_that_checks_out_but_cannot_be_read_is_invalid_not_torn() {
        let invalid = |buf: &[u8]| match decode_frame::<u64, u64>(buf, 0) {
            FrameStep::Invalid { lsn, kind } => (lsn, kind),
            _ => panic!("a CRC-valid unreadable frame must be Invalid"),
        };
        // A commit whose count disagrees with its body, either way.
        for claimed in [1u32, 3] {
            let mut buf = Vec::new();
            frame(3, &mut buf, |out| {
                out.push(KIND_COMMIT);
                1001u64.encode_into(out);
                claimed.encode_into(out);
                for k in [7u64, 9] {
                    out.push(KIND_INSERT);
                    k.encode_into(out);
                    (k * 100).encode_into(out);
                }
            });
            assert_eq!(invalid(&buf), (3, KIND_COMMIT));
        }
        // A commit entry with a tag that is neither write nor delete.
        let mut buf = Vec::new();
        frame(4, &mut buf, |out| {
            out.push(KIND_COMMIT);
            1001u64.encode_into(out);
            1u32.encode_into(out);
            out.push(3);
            7u64.encode_into(out);
        });
        assert_eq!(invalid(&buf), (4, KIND_COMMIT));
        // A retired kind (4 was the per-key transaction write).
        let mut buf = Vec::new();
        frame(5, &mut buf, |out| {
            out.push(4);
            [42u64, 7, 700].iter().for_each(|w| w.encode_into(out));
        });
        assert_eq!(invalid(&buf), (5, 4));
        // Another width's insert: (u32, u32) read as (u64, u64).
        let mut buf = Vec::new();
        encode_frame::<u32, u32>(6, &WalOp::Insert(1, 10), &mut buf);
        assert_eq!(invalid(&buf), (6, KIND_INSERT));
    }

    #[test]
    fn every_truncation_is_torn_never_panics() {
        let mut buf = Vec::new();
        encode_frame::<u64, u64>(1, &WalOp::Insert(10, 100), &mut buf);
        for cut in 1..buf.len() {
            assert!(
                matches!(decode_frame::<u64, u64>(&buf[..cut], 0), FrameStep::Torn(_)),
                "cut at {cut} must read as torn"
            );
        }
    }

    #[test]
    fn bitflips_are_torn() {
        let mut clean = Vec::new();
        encode_frame::<u64, u64>(1, &WalOp::Insert(10, 100), &mut clean);
        for bit in 0..clean.len() * 8 {
            let mut buf = clean.clone();
            buf[bit / 8] ^= 1 << (bit % 8);
            // A flipped frame either fails to decode or (flips confined to
            // the length word that still parse) never decodes to the
            // original record *with a valid CRC*.
            if let FrameStep::Record { lsn, op, .. } = decode_frame::<u64, u64>(&buf, 0) {
                panic!("bit {bit}: corrupt frame decoded as lsn={lsn} op={op:?}");
            }
        }
    }

    #[cfg(feature = "inject-wal-bug")]
    #[test]
    fn injected_bug_breaks_delete_frames_only() {
        let mut buf = Vec::new();
        encode_frame::<u64, u64>(1, &WalOp::Insert(1, 10), &mut buf);
        let FrameStep::Record { next, .. } = decode_frame::<u64, u64>(&buf, 0) else {
            panic!("insert frames stay intact under the injected bug");
        };
        let mut buf2 = Vec::new();
        encode_frame::<u64, u64>(2, &WalOp::Delete(1), &mut buf2);
        assert!(matches!(
            decode_frame::<u64, u64>(&buf2, 0),
            FrameStep::Torn(_)
        ));
        let _ = next;
    }
}
