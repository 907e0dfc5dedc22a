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
//! * **9** run — `n ≥ 2` inserts logged together: `body = n u32 ‖ n ×
//!   (key ‖ value)`, so `21 + n × (K + V)` bytes for the frame where
//!   per-entry frames take `n × (17 + K + V)`. A batch of two or more
//!   entries is written as one, and so are consecutive inserts appended
//!   between two flushes of the log, whatever batches they came in: the
//!   last frame of the WAL buffer stays an *open run* ([`FrameBuffer`])
//!   that each insert append extends, until a flush, another kind of frame
//!   or [`MAX_RUN_ENTRIES`] seals it. The frame takes `n` consecutive LSNs,
//!   the first in its header, so LSNs still count entries. Like a commit,
//!   it replays whole or, torn, not at all. A run that reaches
//!   [`MAX_RUN_ENTRIES`] is sealed and the next entry starts another;
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
//! (a log of other `K`/`V` widths, a run of fewer than two entries or of
//! another length than its count), is a completed write this open cannot
//! read: opening fails with a `corruption` error naming it, where a torn
//! tail would silently drop it and everything after it.

use crate::files;
use quit_core::mutation::{self, Mutation};
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

/// What one frame logged: a single-LSN [`WalOp`], or a run frame's inserts
/// (`n ≥ 2` of them, at `n` consecutive LSNs), kept as the pairs
/// `insert_batch` takes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Logged<K, V> {
    Op(WalOp<K, V>),
    Run(Vec<(K, V)>),
}

impl<K, V> Logged<K, V> {
    /// LSNs the frame took: one per entry of a run, one for anything else.
    pub(crate) fn lsns(&self) -> u64 {
        match self {
            Logged::Op(_) => 1,
            Logged::Run(entries) => entries.len() as u64,
        }
    }
}

pub(crate) const KIND_INSERT: u8 = 1;
pub(crate) const KIND_DELETE: u8 = 2;
const KIND_COMMIT: u8 = 8;
const KIND_RUN: u8 = 9;

/// Most entries one run frame carries. A longer batch is logged as several
/// frames, so no run of entries narrower than 64 KiB can overflow the
/// frame's `u32` length word.
pub(crate) const MAX_RUN_ENTRIES: usize = 1 << 16;

/// Opens a frame at `lsn` at the end of `out`: a block (see
/// [`crate::files`]) whose payload begins with the LSN. Returns where the
/// frame starts.
fn open_frame(lsn: u64, out: &mut Vec<u8>) -> usize {
    let start = files::open_block(out);
    lsn.encode_into(out);
    start
}

/// Seals the frame at `start`, whose payload runs to the end of `out`.
fn close_frame(start: usize, out: &mut [u8]) {
    files::seal_block(start, out, |payload| {
        // Planted framing bug (`Mutation::DeleteFrameCrc`): Delete records
        // are checksummed over one byte too few, so their stored CRC never
        // matches the decoder's — recovery silently drops every delete at
        // the torn-tail check, which the crash-recovery differential fuzzer
        // must detect and shrink.
        if mutation::armed(Mutation::DeleteFrameCrc) && payload.get(8) == Some(&KIND_DELETE) {
            crc32(&payload[..payload.len() - 1])
        } else {
            crc32(payload)
        }
    });
}

/// Appends one frame at `lsn` to `out`: header, LSN, whatever `body`
/// writes (kind byte first), then the length and CRC patched in.
fn frame(lsn: u64, out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = open_frame(lsn, out);
    body(out);
    close_frame(start, out);
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

/// Appends one encoded frame for `op` at `lsn` to `out`.
fn encode_frame<K: WalCodec, V: WalCodec>(lsn: u64, op: &WalOp<K, V>, out: &mut Vec<u8>) {
    match op {
        WalOp::Insert(k, v) => frame(lsn, out, |out| put_write(k, Some(v), out)),
        WalOp::Delete(k) => frame(lsn, out, |out| put_write(k, None::<&V>, out)),
        WalOp::Commit(commit_ts, writes) => encode_commit_frame(lsn, *commit_ts, writes, out),
    }
}

/// Appends one `Commit` frame for a borrowed write set — what `TxnStore`'s
/// commit path calls, so logging a commit clones and allocates nothing.
fn encode_commit_frame<K: WalCodec, V: WalCodec>(
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

/// Byte offset of a run frame's count word from the frame's start: after
/// the header, the LSN and the kind byte.
const RUN_COUNT_AT: usize = files::BLOCK_HEADER + 8 + 1;

/// Frames on their way to a WAL segment. The last of them may be an *open
/// run*: an insert frame that later [`push_inserts`](Self::push_inserts)
/// calls extend, so the inserts logged between two flushes share one frame
/// however many appends they came in. An open run of one entry is laid out
/// as a plain insert record and becomes a run frame when a second joins
/// it; its count word is kept current as entries join. It is *sealed* —
/// its `len` and `crc` words written — by [`sealed`](Self::sealed), which
/// every flush calls, before any other frame is pushed, and once it holds
/// [`MAX_RUN_ENTRIES`], so no frame that reaches storage is open.
#[derive(Default)]
pub(crate) struct FrameBuffer {
    bytes: Vec<u8>,
    /// The open run's start in `bytes` and its entry count.
    open: Option<(usize, usize)>,
}

impl FrameBuffer {
    /// Bytes buffered, the open run's included.
    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Seals the open run, if any, and returns every buffered frame.
    pub(crate) fn sealed(&mut self) -> &[u8] {
        self.seal();
        &self.bytes
    }

    /// Drops the buffered frames, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.open = None;
        self.bytes.clear();
    }

    fn seal(&mut self) {
        if let Some((start, _)) = self.open.take() {
            close_frame(start, &mut self.bytes);
        }
    }

    /// Appends `op` as one frame at `lsn`, after sealing the open run.
    pub(crate) fn push_op<K: WalCodec, V: WalCodec>(&mut self, lsn: u64, op: &WalOp<K, V>) {
        self.seal();
        encode_frame(lsn, op, &mut self.bytes);
    }

    /// Appends one `Commit` frame at `lsn` for a borrowed write set, after
    /// sealing the open run.
    pub(crate) fn push_commit<K: WalCodec, V: WalCodec>(
        &mut self,
        lsn: u64,
        commit_ts: u64,
        writes: &[(K, Option<V>)],
    ) {
        self.seal();
        encode_commit_frame(lsn, commit_ts, writes, &mut self.bytes);
    }

    /// Appends `entries` as inserts at consecutive LSNs from `lsn` on,
    /// written from the caller's slice into the open run, and into new
    /// runs, left open, once a run holds [`MAX_RUN_ENTRIES`]. Sealed, a run
    /// of one entry is exactly a [`WalOp::Insert`] frame.
    pub(crate) fn push_inserts<K: WalCodec, V: WalCodec>(&mut self, lsn: u64, entries: &[(K, V)]) {
        let (mut lsn, mut rest) = (lsn, entries);
        while !rest.is_empty() {
            let (start, held) = match self.open {
                Some(open @ (_, held)) if held < MAX_RUN_ENTRIES => open,
                _ => {
                    self.seal();
                    (open_frame(lsn, &mut self.bytes), 0)
                }
            };
            let (now, later) = rest.split_at(rest.len().min(MAX_RUN_ENTRIES - held));
            let total = held + now.len();
            let out = &mut self.bytes;
            match held {
                0 if total == 1 => out.push(KIND_INSERT),
                0 => out.extend_from_slice(&[KIND_RUN, 0, 0, 0, 0]),
                // A lone insert becomes a run: the count word goes in
                // between its kind byte and its entry.
                1 => {
                    out[start + RUN_COUNT_AT - 1] = KIND_RUN;
                    out.splice(start + RUN_COUNT_AT..start + RUN_COUNT_AT, [0; 4]);
                }
                _ => {}
            }
            out.reserve(now.len() * (K::WIDTH + V::WIDTH));
            for (key, value) in now {
                key.encode_into(out);
                value.encode_into(out);
            }
            if total >= 2 {
                // Planted seal bug (`Mutation::StaleRunCount`): an append
                // that joins an open run leaves its count as it was, so the
                // sealed frame counts fewer entries than its body holds.
                let count = if held > 0 && mutation::armed(Mutation::StaleRunCount) {
                    held
                } else {
                    total
                };
                out[start + RUN_COUNT_AT..start + RUN_COUNT_AT + 4]
                    .copy_from_slice(&(count as u32).to_le_bytes());
            }
            self.open = Some((start, total));
            lsn += now.len() as u64;
            rest = later;
        }
    }
}

/// Outcome of decoding the frame starting at one byte offset.
pub(crate) enum FrameStep<K, V> {
    /// An intact frame; `next` is the offset of the following frame.
    Record {
        /// The record's (a run's first) log sequence number.
        lsn: u64,
        /// What the frame logged.
        logged: Logged<K, V>,
        /// Byte offset just past this frame.
        next: usize,
    },
    /// Clean end: `pos` was exactly the end of the bytes.
    End,
    /// The bytes from `pos` on are not an intact frame (torn/corrupt tail).
    Torn,
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

/// Decodes a run frame's body (after its kind byte): `None` unless it
/// counts at least two entries and holds exactly that many.
fn decode_run<K: WalCodec, V: WalCodec>(body: &[u8]) -> Option<Vec<(K, V)>> {
    let (n, entries) = body.split_at_checked(4)?;
    let n = u32::decode_from(n) as usize;
    let width = K::WIDTH + V::WIDTH;
    if n < 2 || n.checked_mul(width) != Some(entries.len()) {
        return None;
    }
    let run = entries
        .chunks_exact(width)
        .map(|entry| {
            let (key, value) = entry.split_at(K::WIDTH);
            (K::decode_from(key), V::decode_from(value))
        })
        .collect();
    Some(run)
}

/// Decodes a payload from its kind byte on; `None` unless the kind is known
/// and the bytes are exactly one record of it.
fn decode_logged<K: WalCodec, V: WalCodec>(record: &[u8]) -> Option<Logged<K, V>> {
    if let Some(body) = record.strip_prefix(&[KIND_RUN]) {
        return decode_run(body).map(Logged::Run);
    }
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
    rest.is_empty().then_some(Logged::Op(op))
}

/// Decodes the frame starting at `pos`, never panicking: a torn block or
/// one too short for an LSN and a kind is [`FrameStep::Torn`]; a frame
/// that checks out but cannot be read is [`FrameStep::Invalid`].
pub(crate) fn decode_frame<K: WalCodec, V: WalCodec>(bytes: &[u8], pos: usize) -> FrameStep<K, V> {
    if pos == bytes.len() {
        return FrameStep::End;
    }
    // Any longer payload may be real (commit and run frames grow with
    // their entries).
    let Some((payload, next)) = files::read_block(bytes, pos).filter(|(p, _)| p.len() >= 9) else {
        return FrameStep::Torn;
    };
    let lsn = u64::decode_from(&payload[..8]);
    match decode_logged(&payload[8..]) {
        Some(logged) => FrameStep::Record { lsn, logged, next },
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

    #[test]
    fn frame_roundtrip_insert_and_delete() {
        let mut buf = Vec::new();
        encode_frame::<u64, u64>(7, &WalOp::Insert(3, 30), &mut buf);
        encode_frame::<u64, u64>(8, &WalOp::Delete(3), &mut buf);
        let FrameStep::Record { lsn, logged, next } = decode_frame::<u64, u64>(&buf, 0) else {
            panic!("first frame should decode");
        };
        assert_eq!((lsn, logged), (7, Logged::Op(WalOp::Insert(3, 30))));
        let FrameStep::Record { lsn, logged, next } = decode_frame::<u64, u64>(&buf, next) else {
            panic!("second frame should decode");
        };
        assert_eq!((lsn, logged), (8, Logged::Op(WalOp::Delete(3))));
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
        let FrameStep::Record { lsn, logged, next } = decode_frame::<K, V>(&buf, 0) else {
            panic!("{op:?} should decode");
        };
        assert_eq!((lsn, logged, next), (5, Logged::Op(op), buf.len()));
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

    /// What `push_inserts` buffers for `entries` at `lsn`, sealed.
    fn encode_inserts<K: WalCodec, V: WalCodec>(lsn: u64, entries: &[(K, V)], out: &mut Vec<u8>) {
        let mut buffer = FrameBuffer::default();
        buffer.push_inserts(lsn, entries);
        out.extend_from_slice(buffer.sealed());
    }

    /// Decoded frames, each with its (first) LSN.
    type Frames<K, V> = Vec<(u64, Logged<K, V>)>;

    /// Every frame `encode_inserts` wrote for `entries` at LSN 5, decoded,
    /// and the bytes they took.
    fn inserts_roundtrip<K, V>(entries: &[(K, V)]) -> (Frames<K, V>, usize)
    where
        K: WalCodec + Clone + PartialEq + std::fmt::Debug,
        V: WalCodec + Clone + PartialEq + std::fmt::Debug,
    {
        let mut buf = Vec::new();
        encode_inserts(5, entries, &mut buf);
        let (mut frames, mut pos) = (Vec::new(), 0);
        loop {
            match decode_frame::<K, V>(&buf, pos) {
                FrameStep::Record { lsn, logged, next } => {
                    frames.push((lsn, logged));
                    pos = next;
                }
                FrameStep::End => break,
                _ => panic!("encode_inserts wrote an unreadable frame at {pos}"),
            }
        }
        (frames, buf.len())
    }

    #[test]
    fn a_batch_is_one_run_frame_taking_one_lsn_per_entry() {
        assert_eq!(inserts_roundtrip::<u64, u64>(&[]), (vec![], 0));
        // A lone entry is a plain insert frame, byte for byte.
        let mut single = Vec::new();
        encode_frame::<u64, u64>(5, &WalOp::Insert(3, 30), &mut single);
        let mut batch = Vec::new();
        encode_inserts::<u64, u64>(5, &[(3, 30)], &mut batch);
        assert_eq!((batch.len(), &batch), (33, &single));
        // 8 header + 8 lsn + 1 kind + 4 count, then 16 per (u64, u64).
        for n in [2u64, 3, 64] {
            let entries: Vec<(u64, u64)> = (0..n).map(|k| (k, k * 10)).collect();
            let (frames, bytes) = inserts_roundtrip(&entries);
            assert_eq!(frames, vec![(5, Logged::Run(entries))]);
            assert_eq!(bytes as u64, 21 + 16 * n);
            assert_eq!(frames[0].1.lsns(), n);
        }
        let floats = vec![(OrderedF64::new(-1.5), 3u32), (OrderedF64::new(2.25), 4)];
        let (frames, bytes) = inserts_roundtrip(&floats);
        assert_eq!(
            (frames, bytes),
            (vec![(5, Logged::Run(floats))], 21 + 2 * 12)
        );
    }

    /// Decodes every frame of `buf`, each with its (first) LSN.
    fn decode_all(buf: &[u8]) -> Frames<u64, u64> {
        let (mut frames, mut pos) = (Vec::new(), 0);
        loop {
            match decode_frame::<u64, u64>(buf, pos) {
                FrameStep::Record { lsn, logged, next } => {
                    frames.push((lsn, logged));
                    pos = next;
                }
                FrameStep::End => return frames,
                _ => panic!("unreadable frame at {pos}"),
            }
        }
    }

    #[test]
    fn consecutive_insert_pushes_share_the_open_run_until_another_frame() {
        let mut buffer = FrameBuffer::default();
        buffer.push_inserts::<u64, u64>(1, &[(1, 10)]);
        buffer.push_inserts::<u64, u64>(2, &[(2, 20), (3, 30)]);
        buffer.push_inserts::<u64, u64>(4, &[(4, 40)]);
        buffer.push_op::<u64, u64>(5, &WalOp::Delete(2));
        buffer.push_inserts::<u64, u64>(6, &[(6, 60)]);
        buffer.push_commit::<u64, u64>(7, 99, &[]);
        buffer.push_inserts::<u64, u64>(8, &[(8, 80)]);
        let bytes = buffer.sealed().to_vec();
        assert_eq!(bytes.len(), (21 + 4 * 16) + 25 + 33 + 29 + 33);
        assert_eq!(
            decode_all(&bytes),
            vec![
                (1, Logged::Run(vec![(1, 10), (2, 20), (3, 30), (4, 40)])),
                (5, Logged::Op(WalOp::Delete(2))),
                (6, Logged::Op(WalOp::Insert(6, 60))),
                (7, Logged::Op(WalOp::Commit(99, vec![]))),
                (8, Logged::Op(WalOp::Insert(8, 80))),
            ]
        );
        // Sealing twice writes nothing new; after a clear the next push
        // opens a fresh run.
        assert_eq!(buffer.sealed(), &bytes[..]);
        buffer.clear();
        buffer.push_inserts::<u64, u64>(9, &[(9, 90), (10, 100)]);
        assert_eq!(
            decode_all(buffer.sealed()),
            vec![(9, Logged::Run(vec![(9, 90), (10, 100)]))]
        );
    }

    #[test]
    fn injected_bug_leaves_a_joined_run_s_count_stale() {
        let _bug = mutation::arm(Mutation::StaleRunCount);
        // One push: the count is right.
        let mut buffer = FrameBuffer::default();
        buffer.push_inserts::<u64, u64>(1, &[(1, 10), (2, 20)]);
        assert_eq!(decode_all(buffer.sealed()).len(), 1);
        // A second push joins the run and leaves its count at two.
        let mut buffer = FrameBuffer::default();
        buffer.push_inserts::<u64, u64>(1, &[(1, 10), (2, 20)]);
        buffer.push_inserts::<u64, u64>(3, &[(3, 30)]);
        assert!(matches!(
            decode_frame::<u64, u64>(buffer.sealed(), 0),
            FrameStep::Invalid {
                lsn: 1,
                kind: KIND_RUN
            }
        ));
    }

    #[test]
    fn a_long_batch_splits_into_frames_of_at_most_max_run_entries() {
        let lsns = |frames: &[(u64, Logged<u32, u8>)]| -> Vec<(u64, u64)> {
            frames.iter().map(|(lsn, l)| (*lsn, l.lsns())).collect()
        };
        let max = MAX_RUN_ENTRIES as u64;
        let entries: Vec<(u32, u8)> = (0..2 * MAX_RUN_ENTRIES as u32 + 3)
            .map(|k| (k, k as u8))
            .collect();
        // One over the bound: a full run, then a lone plain insert.
        let (frames, _) = inserts_roundtrip(&entries[..MAX_RUN_ENTRIES + 1]);
        assert_eq!(lsns(&frames), vec![(5, max), (5 + max, 1)]);
        let last = (MAX_RUN_ENTRIES as u32, MAX_RUN_ENTRIES as u8);
        assert_eq!(frames[1].1, Logged::Op(WalOp::Insert(last.0, last.1)));
        // Two full runs and a short one, in order and at dense LSNs.
        let (frames, _) = inserts_roundtrip(&entries);
        assert_eq!(
            lsns(&frames),
            vec![(5, max), (5 + max, max), (5 + 2 * max, 3)]
        );
        let replayed: Vec<(u32, u8)> = frames
            .into_iter()
            .flat_map(|(_, logged)| match logged {
                Logged::Run(run) => run,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(replayed, entries);
    }

    #[test]
    fn a_run_frame_that_checks_out_but_cannot_be_read_is_invalid_not_torn() {
        let run_frame = |claimed: u32, keys: &[u64]| {
            let mut buf = Vec::new();
            frame(7, &mut buf, |out| {
                out.push(KIND_RUN);
                claimed.encode_into(out);
                for &k in keys {
                    k.encode_into(out);
                    (k * 10).encode_into(out);
                }
            });
            buf
        };
        let invalid = |buf: &[u8]| {
            assert!(
                matches!(
                    decode_frame::<u64, u64>(buf, 0),
                    FrameStep::Invalid {
                        lsn: 7,
                        kind: KIND_RUN
                    }
                ),
                "a CRC-valid unreadable run frame must be Invalid"
            )
        };
        // Fewer than two entries, honestly counted.
        invalid(&run_frame(0, &[]));
        invalid(&run_frame(1, &[1]));
        // A count that disagrees with the body, either way.
        invalid(&run_frame(3, &[1, 2]));
        invalid(&run_frame(2, &[1, 2, 3]));
        // A body that is not a whole number of entries.
        let mut ragged = Vec::new();
        frame(7, &mut ragged, |out| {
            out.push(KIND_RUN);
            2u32.encode_into(out);
            out.extend_from_slice(&[0; 33]);
        });
        invalid(&ragged);
        // Another width's run: (u32, u32) read as (u64, u64).
        let mut buf = Vec::new();
        encode_inserts::<u32, u32>(7, &[(1, 10), (2, 20)], &mut buf);
        invalid(&buf);
        // No count at all.
        let mut buf = Vec::new();
        frame(7, &mut buf, |out| out.extend_from_slice(&[KIND_RUN, 2, 0]));
        invalid(&buf);
    }

    #[test]
    fn every_truncation_is_torn_never_panics() {
        let mut buf = Vec::new();
        encode_frame::<u64, u64>(1, &WalOp::Insert(10, 100), &mut buf);
        let mut run = Vec::new();
        encode_inserts::<u64, u64>(1, &[(10, 100), (11, 110), (12, 120)], &mut run);
        for buf in [buf, run] {
            for cut in 1..buf.len() {
                assert!(
                    matches!(decode_frame::<u64, u64>(&buf[..cut], 0), FrameStep::Torn),
                    "cut at {cut} must read as torn"
                );
            }
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
            if let FrameStep::Record { lsn, logged, .. } = decode_frame::<u64, u64>(&buf, 0) {
                panic!("bit {bit}: corrupt frame decoded as lsn={lsn} {logged:?}");
            }
        }
    }

    #[test]
    fn injected_bug_breaks_delete_frames_only() {
        let _bug = mutation::arm(Mutation::DeleteFrameCrc);
        let mut buf = Vec::new();
        encode_frame::<u64, u64>(1, &WalOp::Insert(1, 10), &mut buf);
        let FrameStep::Record { next, .. } = decode_frame::<u64, u64>(&buf, 0) else {
            panic!("insert frames stay intact under the injected bug");
        };
        let mut buf2 = Vec::new();
        encode_frame::<u64, u64>(2, &WalOp::Delete(1), &mut buf2);
        assert!(matches!(
            decode_frame::<u64, u64>(&buf2, 0),
            FrameStep::Torn
        ));
        let _ = next;
    }
}
