//! The length-prefixed binary wire protocol.
//!
//! Every frame — request or reply — is `[body_len: u32 LE][body]`, where
//! the body starts with an 8-byte request id. Requests follow the id with
//! a one-byte opcode; replies follow it with a one-byte status. Ids are
//! chosen by the client and echoed back verbatim, which is what makes the
//! protocol *pipelined*: a client may have any number of requests in
//! flight and match replies by id (per-shard replies may arrive out of
//! submission order across shards; within one shard they are ordered).
//!
//! ## Request bodies
//!
//! | opcode | name          | payload                                      |
//! |--------|---------------|----------------------------------------------|
//! | 1      | `Insert`      | `key u64, value u64`                         |
//! | 2      | `InsertBatch` | `count u32, count × (key u64, value u64)`    |
//! | 3      | `Get`         | `key u64`                                    |
//! | 4      | `Delete`      | `key u64`                                    |
//! | 5      | `Range`       | `start u64, end u64 (inclusive), limit u32`  |
//! | 6      | `Stats`       | —                                            |
//!
//! ## Reply bodies
//!
//! Status `0` is success; the payload depends on the request (empty for
//! `Insert`; `fast u64` — entries ingested through the sorted-run fast
//! path — for `InsertBatch`; `present u8 [, value u64]` for `Get`/
//! `Delete`; `count u32, pairs` for `Range`; a fixed stats block for
//! `Stats`). Non-zero statuses map **one-to-one from the
//! [`quit_core::Error`] variants** (the whole point of the 0.7.0 error
//! unification — a networked caller sees the same taxonomy an in-process
//! caller does), and the payload is a UTF-8 message:
//!
//! | status | error variant          |
//! |--------|------------------------|
//! | 1      | [`Error::Wal`]         |
//! | 2      | [`Error::Corruption`]  |
//! | 3      | [`Error::Poisoned`]    |
//! | 4      | [`Error::Io`]          |
//! | 5      | [`Error::Config`]      |
//! | 6      | [`Error::Shutdown`]    |

use quit_core::{Error, Result};
use std::io::{Read, Write};

/// Upper bound on a frame body; anything larger is rejected as
/// [`Error::Corruption`] before allocation (a garbage length prefix must
/// not OOM the peer).
pub const MAX_FRAME: usize = 64 << 20;

/// Hard cap a server applies to [`Request::Range`] results, so one request
/// cannot materialize the whole keyspace (clients requesting `limit = 0`
/// or anything larger get this many entries at most).
pub const MAX_RANGE_RESULTS: u32 = 1 << 20;

/// A decoded client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Insert one pair.
    Insert {
        /// Key to insert.
        key: u64,
        /// Value to store.
        value: u64,
    },
    /// Insert many pairs in submission order (the server splits the batch
    /// at shard boundaries, preserving each shard's subsequence order so
    /// sorted runs survive the split).
    InsertBatch {
        /// Pairs in submission order.
        entries: Vec<(u64, u64)>,
    },
    /// Point lookup.
    Get {
        /// Key to look up.
        key: u64,
    },
    /// Delete one key.
    Delete {
        /// Key to delete.
        key: u64,
    },
    /// Inclusive range scan, capped at `limit` entries
    /// (`0` means [`MAX_RANGE_RESULTS`]).
    Range {
        /// First key of the scan (inclusive).
        start: u64,
        /// Last key of the scan (inclusive).
        end: u64,
        /// Result cap (`0` = server maximum).
        limit: u32,
    },
    /// Service-wide counters, aggregated across every shard.
    Stats,
}

/// The stats block a [`Request::Stats`] reply carries: the counters the
/// sortedness argument is *about*, summed across shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Entries resident across all shards.
    pub len: u64,
    /// Inserts that rode the poℓe fast path.
    pub fast_inserts: u64,
    /// Inserts that paid a full top-down descent.
    pub top_inserts: u64,
    /// WAL append calls across all shard logs.
    pub wal_appends: u64,
    /// WAL fsyncs across all shard logs (group commit batches these).
    pub wal_fsyncs: u64,
    /// Number of shards serving.
    pub shards: u32,
}

impl ServiceStats {
    /// Fraction of inserts that avoided a top-down descent.
    pub fn fastpath_rate(&self) -> f64 {
        let total = self.fast_inserts + self.top_inserts;
        if total == 0 {
            return 0.0;
        }
        self.fast_inserts as f64 / total as f64
    }
}

/// A decoded server reply (the success payloads; failures travel as
/// [`Error`] through [`read_reply`]'s `Result`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `Insert` acknowledged (durable per the server's configured level).
    Inserted,
    /// `InsertBatch` acknowledged; `fast` entries rode the sorted-run
    /// fast path across all shards the batch touched.
    BatchInserted {
        /// Fast-path entry count for the batch.
        fast: u64,
    },
    /// `Get` result.
    Got(Option<u64>),
    /// `Delete` result (previous value, if the key existed).
    Deleted(Option<u64>),
    /// `Range` result in global key order.
    Entries(Vec<(u64, u64)>),
    /// `Stats` result.
    Stats(ServiceStats),
}

/// Wire status for an [`Error`] (`0` is reserved for success).
pub fn status_code(e: &Error) -> u8 {
    match e {
        Error::Wal(_) => 1,
        Error::Corruption(_) => 2,
        Error::Poisoned => 3,
        Error::Io(_) => 4,
        Error::Config(_) => 5,
        Error::Shutdown => 6,
        Error::Conflict(_) => 7,
        Error::TxnAborted(_) => 8,
        // `Error` is #[non_exhaustive]; future variants travel as 255 and
        // decode to a Corruption-kind error naming the unknown code.
        _ => 255,
    }
}

fn status_error(code: u8, msg: String) -> Error {
    match code {
        1 => Error::Wal(msg),
        2 => Error::Corruption(msg),
        3 => Error::Poisoned,
        4 => Error::Io(std::io::Error::other(msg)),
        5 => Error::Config(msg),
        6 => Error::Shutdown,
        7 => Error::Conflict(msg),
        8 => Error::TxnAborted(msg),
        other => Error::corruption(format!("unknown wire status {other}: {msg}")),
    }
}

// ---- little-endian cursor helpers --------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| Error::corruption("truncated frame body"))?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn done(&self) -> Result<()> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(Error::corruption("trailing bytes in frame body"))
        }
    }
}

fn pairs(c: &mut Cursor<'_>) -> Result<Vec<(u64, u64)>> {
    let count = c.u32()? as usize;
    // The count must be consistent with the frame length before we trust
    // it for an allocation.
    let bytes = count
        .checked_mul(16)
        .filter(|&b| b <= c.buf.len() - c.at)
        .ok_or_else(|| Error::corruption("pair count exceeds frame body"))?;
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
    Ok(c.take(bytes)?
        .chunks_exact(16)
        .map(|pair| (word(&pair[..8]), word(&pair[8..])))
        .collect())
}

fn put_pairs(out: &mut Vec<u8>, entries: &[(u64, u64)]) {
    put_u32(out, entries.len() as u32);
    out.reserve(entries.len() * 16);
    for &(k, v) in entries {
        let mut pair = [0u8; 16];
        pair[..8].copy_from_slice(&k.to_le_bytes());
        pair[8..].copy_from_slice(&v.to_le_bytes());
        out.extend_from_slice(&pair);
    }
}

// ---- frame I/O ---------------------------------------------------------

/// Bodies up to this long — every `Insert`, `Get` and `Delete` and their
/// replies — are read into a stack array, not a heap allocation.
const SMALL_BODY: usize = 64;

fn body_len(prefix: [u8; 4]) -> Result<usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    if !(8..=MAX_FRAME).contains(&len) {
        return Err(Error::corruption(format!(
            "frame length {len} out of range"
        )));
    }
    Ok(len)
}

/// Reads one frame and hands its body to `parse`; `Ok(None)` on clean EOF
/// at a frame boundary.
fn read_frame<T>(r: &mut impl Read, parse: impl FnOnce(&[u8]) -> Result<T>) -> Result<Option<T>> {
    let mut prefix = [0u8; 4];
    match r.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = body_len(prefix)?;
    if len <= SMALL_BODY {
        let mut body = [0u8; SMALL_BODY];
        r.read_exact(&mut body[..len])?;
        parse(&body[..len]).map(Some)
    } else {
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        parse(&body).map(Some)
    }
}

/// Appends one frame to `out`: the body `body` writes, behind its length
/// (patched in once the body is there to measure).
fn frame(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    put_u32(out, 0);
    body(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Encodes a request frame (length prefix included).
pub fn encode_request(req_id: u64, req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(40);
    frame(&mut out, |body| {
        put_u64(body, req_id);
        match req {
            Request::Insert { key, value } => {
                body.push(1);
                put_u64(body, *key);
                put_u64(body, *value);
            }
            Request::InsertBatch { entries } => {
                body.push(2);
                put_pairs(body, entries);
            }
            Request::Get { key } => {
                body.push(3);
                put_u64(body, *key);
            }
            Request::Delete { key } => {
                body.push(4);
                put_u64(body, *key);
            }
            Request::Range { start, end, limit } => {
                body.push(5);
                put_u64(body, *start);
                put_u64(body, *end);
                put_u32(body, *limit);
            }
            Request::Stats => body.push(6),
        }
    });
    out
}

/// Writes a request frame to `w` (no flush — pipelining batches flushes).
pub fn write_request(w: &mut impl Write, req_id: u64, req: &Request) -> Result<()> {
    let frame = encode_request(req_id, req);
    w.write_all(&frame)?;
    Ok(())
}

fn parse_request(body: &[u8]) -> Result<(u64, Request)> {
    let mut c = Cursor::new(body);
    let req_id = c.u64()?;
    let req = match c.u8()? {
        1 => Request::Insert {
            key: c.u64()?,
            value: c.u64()?,
        },
        2 => Request::InsertBatch {
            entries: pairs(&mut c)?,
        },
        3 => Request::Get { key: c.u64()? },
        4 => Request::Delete { key: c.u64()? },
        5 => Request::Range {
            start: c.u64()?,
            end: c.u64()?,
            limit: c.u32()?,
        },
        6 => Request::Stats,
        op => return Err(Error::corruption(format!("unknown opcode {op}"))),
    };
    c.done()?;
    Ok((req_id, req))
}

/// Reads the next request; `Ok(None)` on clean client disconnect.
pub fn read_request(r: &mut impl Read) -> Result<Option<(u64, Request)>> {
    read_frame(r, parse_request)
}

/// Decodes the request frame at the front of `buf` where it lies:
/// `(bytes consumed, request id, request)`, or `Ok(None)` while `buf` holds
/// only a prefix of a frame. Rejects what [`read_request`] rejects — a
/// garbage length as soon as its four bytes are there.
pub fn decode_request(buf: &[u8]) -> Result<Option<(usize, u64, Request)>> {
    let Some((prefix, rest)) = buf.split_first_chunk() else {
        return Ok(None);
    };
    let len = body_len(*prefix)?;
    let Some(body) = rest.get(..len) else {
        return Ok(None);
    };
    let (req_id, req) = parse_request(body)?;
    Ok(Some((4 + len, req_id, req)))
}

/// Encodes a reply frame (length prefix included).
pub fn encode_reply(req_id: u64, reply: &Result<Reply>) -> Vec<u8> {
    let mut out = Vec::with_capacity(40);
    encode_reply_into(&mut out, req_id, reply);
    out
}

/// Appends a reply frame (length prefix included) to `out`, so one buffer
/// can carry a whole burst of replies.
pub fn encode_reply_into(out: &mut Vec<u8>, req_id: u64, reply: &Result<Reply>) {
    frame(out, |body| {
        put_u64(body, req_id);
        match reply {
            Ok(ok) => {
                body.push(0);
                match ok {
                    Reply::Inserted => {}
                    Reply::BatchInserted { fast } => put_u64(body, *fast),
                    Reply::Got(v) | Reply::Deleted(v) => {
                        // Got and Deleted share an encoding; the client knows
                        // which it asked for. A discriminating byte keeps the
                        // decode unambiguous anyway.
                        match v {
                            Some(v) => {
                                body.push(1);
                                put_u64(body, *v);
                            }
                            None => body.push(0),
                        }
                    }
                    Reply::Entries(entries) => put_pairs(body, entries),
                    Reply::Stats(s) => {
                        put_u64(body, s.len);
                        put_u64(body, s.fast_inserts);
                        put_u64(body, s.top_inserts);
                        put_u64(body, s.wal_appends);
                        put_u64(body, s.wal_fsyncs);
                        put_u32(body, s.shards);
                    }
                }
            }
            Err(e) => {
                body.push(status_code(e));
                body.extend_from_slice(e.to_string().as_bytes());
            }
        }
    });
}

/// What the client expects a reply to decode as (replies are not
/// self-describing beyond the status byte).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyShape {
    /// Expect [`Reply::Inserted`].
    Inserted,
    /// Expect [`Reply::BatchInserted`].
    BatchInserted,
    /// Expect [`Reply::Got`].
    Got,
    /// Expect [`Reply::Deleted`].
    Deleted,
    /// Expect [`Reply::Entries`].
    Entries,
    /// Expect [`Reply::Stats`].
    Stats,
}

impl Request {
    /// The reply shape this request produces.
    pub fn reply_shape(&self) -> ReplyShape {
        match self {
            Request::Insert { .. } => ReplyShape::Inserted,
            Request::InsertBatch { .. } => ReplyShape::BatchInserted,
            Request::Get { .. } => ReplyShape::Got,
            Request::Delete { .. } => ReplyShape::Deleted,
            Request::Range { .. } => ReplyShape::Entries,
            Request::Stats => ReplyShape::Stats,
        }
    }
}

/// Reads the next reply. The outer `Result` is transport/decode failure;
/// the inner one is the server-reported status (an [`Error`] rebuilt from
/// the wire status code). `shape` tells the decoder what success payload
/// to expect for this `req_id`.
pub fn read_reply(
    r: &mut impl Read,
    shape: impl FnOnce(u64) -> Result<ReplyShape>,
) -> Result<(u64, Result<Reply>)> {
    read_frame(r, |body| parse_reply(body, shape))?.ok_or(Error::Shutdown)
}

fn parse_reply(
    body: &[u8],
    shape: impl FnOnce(u64) -> Result<ReplyShape>,
) -> Result<(u64, Result<Reply>)> {
    let mut c = Cursor::new(body);
    let req_id = c.u64()?;
    let status = c.u8()?;
    if status != 0 {
        let msg = String::from_utf8_lossy(c.take(body.len() - c.at)?).into_owned();
        return Ok((req_id, Err(status_error(status, msg))));
    }
    let reply = match shape(req_id)? {
        ReplyShape::Inserted => Reply::Inserted,
        ReplyShape::BatchInserted => Reply::BatchInserted { fast: c.u64()? },
        shape @ (ReplyShape::Got | ReplyShape::Deleted) => {
            let v = match c.u8()? {
                0 => None,
                1 => Some(c.u64()?),
                other => {
                    return Err(Error::corruption(format!("bad presence byte {other}")));
                }
            };
            if shape == ReplyShape::Got {
                Reply::Got(v)
            } else {
                Reply::Deleted(v)
            }
        }
        ReplyShape::Entries => Reply::Entries(pairs(&mut c)?),
        ReplyShape::Stats => Reply::Stats(ServiceStats {
            len: c.u64()?,
            fast_inserts: c.u64()?,
            top_inserts: c.u64()?,
            wal_appends: c.u64()?,
            wal_fsyncs: c.u64()?,
            shards: c.u32()?,
        }),
    };
    c.done()?;
    Ok((req_id, Ok(reply)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let frame = encode_request(42, &req);
        let mut r = &frame[..];
        let (id, back) = read_request(&mut r).unwrap().unwrap();
        assert_eq!(id, 42);
        assert_eq!(back, req);
        assert!(r.is_empty());
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Insert { key: 7, value: 9 });
        roundtrip_request(Request::InsertBatch {
            entries: vec![(1, 2), (3, 4), (u64::MAX, 0)],
        });
        roundtrip_request(Request::Get { key: u64::MAX });
        roundtrip_request(Request::Delete { key: 0 });
        roundtrip_request(Request::Range {
            start: 5,
            end: 500,
            limit: 128,
        });
        roundtrip_request(Request::Stats);
    }

    fn roundtrip_reply(reply: Reply, shape: ReplyShape) -> Reply {
        let frame = encode_reply(9, &Ok(reply));
        let mut r = &frame[..];
        let (id, back) = read_reply(&mut r, |_| Ok(shape)).unwrap();
        assert_eq!(id, 9);
        back.unwrap()
    }

    #[test]
    fn replies_roundtrip() {
        assert_eq!(
            roundtrip_reply(Reply::Inserted, ReplyShape::Inserted),
            Reply::Inserted
        );
        assert_eq!(
            roundtrip_reply(Reply::BatchInserted { fast: 77 }, ReplyShape::BatchInserted),
            Reply::BatchInserted { fast: 77 }
        );
        assert_eq!(
            roundtrip_reply(Reply::Got(Some(5)), ReplyShape::Got),
            Reply::Got(Some(5))
        );
        assert_eq!(
            roundtrip_reply(Reply::Got(None), ReplyShape::Got),
            Reply::Got(None)
        );
        let entries = vec![(1, 10), (2, 20)];
        assert_eq!(
            roundtrip_reply(Reply::Entries(entries.clone()), ReplyShape::Entries),
            Reply::Entries(entries)
        );
        let s = ServiceStats {
            len: 1,
            fast_inserts: 2,
            top_inserts: 3,
            wal_appends: 4,
            wal_fsyncs: 5,
            shards: 6,
        };
        assert_eq!(
            roundtrip_reply(Reply::Stats(s), ReplyShape::Stats),
            Reply::Stats(s)
        );
    }

    #[test]
    fn every_error_variant_survives_the_wire() {
        let errs = vec![
            Error::wal("segment gone"),
            Error::corruption("bad crc"),
            Error::Poisoned,
            Error::Io(std::io::Error::other("disk on fire")),
            Error::config("zero shards"),
            Error::Shutdown,
            Error::conflict("key 7 committed past our snapshot"),
            Error::txn_aborted("explicit rollback"),
        ];
        for e in errs {
            let kind = e.kind();
            let frame = encode_reply(3, &Err(e));
            let mut r = &frame[..];
            let (id, back) = read_reply(&mut r, |_| Ok(ReplyShape::Inserted)).unwrap();
            assert_eq!(id, 3);
            assert_eq!(back.unwrap_err().kind(), kind, "status code must map 1:1");
        }
    }

    #[test]
    fn garbage_length_prefix_is_rejected_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(u32::MAX).to_le_bytes());
        frame.extend_from_slice(&[0u8; 16]);
        let mut r = &frame[..];
        let err = read_request(&mut r).unwrap_err();
        assert_eq!(err.kind(), "corruption");
    }

    #[test]
    fn lying_pair_count_is_rejected() {
        // An InsertBatch body claiming 1M pairs but carrying none.
        let mut body = Vec::new();
        body.extend_from_slice(&1u64.to_le_bytes());
        body.push(2);
        body.extend_from_slice(&1_000_000u32.to_le_bytes());
        let mut frame = Vec::new();
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        let mut r = &frame[..];
        assert_eq!(read_request(&mut r).unwrap_err().kind(), "corruption");
    }

    fn one_of_each_request() -> Vec<Request> {
        vec![
            Request::Insert { key: 1, value: 2 },
            Request::InsertBatch {
                entries: vec![(3, 4), (5, 6)],
            },
            Request::Get { key: 7 },
            Request::Delete { key: 8 },
            Request::Range {
                start: 9,
                end: 10,
                limit: 11,
            },
            Request::Stats,
        ]
    }

    #[test]
    fn slice_decoder_equals_stream_decoder() {
        for req in one_of_each_request() {
            let mut bytes = encode_request(42, &req);
            let frame_len = bytes.len();
            for cut in 0..frame_len {
                assert_eq!(
                    decode_request(&bytes[..cut]).unwrap(),
                    None,
                    "{req:?}: a strict prefix is not a frame yet"
                );
            }
            // The frame with another frame's first bytes behind it.
            bytes.extend_from_slice(&[0xAB; 5]);
            let (used, id, sliced) = decode_request(&bytes).unwrap().unwrap();
            let mut stream = &bytes[..];
            let (stream_id, streamed) = read_request(&mut stream).unwrap().unwrap();
            assert_eq!((used, id, &sliced), (frame_len, stream_id, &streamed));
            assert_eq!((id, sliced), (42, req));
            assert_eq!(stream.len(), 5, "both stop at the frame's end");
        }
    }

    #[test]
    fn slice_decoder_rejects_what_the_stream_decoder_rejects() {
        let framed = |body: &[u8]| {
            let mut frame = (body.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(body);
            frame
        };
        let mut lying_count = 1u64.to_le_bytes().to_vec();
        lying_count.push(2);
        lying_count.extend_from_slice(&1_000_000u32.to_le_bytes());
        let mut trailing = encode_request(1, &Request::Get { key: 7 })[4..].to_vec();
        trailing.push(0);
        let mut garbage_length = u32::MAX.to_le_bytes().to_vec();
        garbage_length.extend_from_slice(&[0u8; 16]);
        let mut short_length = 7u32.to_le_bytes().to_vec();
        short_length.extend_from_slice(&[0u8; 7]);
        let mut bad_opcode = 1u64.to_le_bytes().to_vec();
        bad_opcode.push(200);
        for bad in [
            garbage_length,
            short_length,
            framed(&lying_count),
            framed(&trailing),
            framed(&bad_opcode),
        ] {
            let sliced = decode_request(&bad).unwrap_err();
            let streamed = read_request(&mut &bad[..]).unwrap_err();
            assert_eq!(sliced.kind(), "corruption");
            assert_eq!(sliced.to_string(), streamed.to_string());
        }
        // A garbage length is refused on its four bytes alone, not waited
        // on as a frame that might still arrive.
        assert!(decode_request(&u32::MAX.to_le_bytes()).is_err());
    }

    fn hex(s: &str) -> Vec<u8> {
        let digits: String = s.split_whitespace().collect();
        (0..digits.len())
            .step_by(2)
            .map(|at| u8::from_str_radix(&digits[at..at + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn wire_frames_are_these_exact_bytes() {
        let id = 0x0807_0605_0403_0201u64;
        let requests = [
            "19000000 0102030405060708 01 0100000000000000 0200000000000000",
            "2d000000 0102030405060708 02 02000000 \
             0300000000000000 0400000000000000 0500000000000000 0600000000000000",
            "11000000 0102030405060708 03 0700000000000000",
            "11000000 0102030405060708 04 0800000000000000",
            "1d000000 0102030405060708 05 0900000000000000 0a00000000000000 0b000000",
            "09000000 0102030405060708 06",
        ];
        for (req, bytes) in one_of_each_request().iter().zip(requests) {
            assert_eq!(encode_request(id, req), hex(bytes), "{req:?}");
        }

        let stats = ServiceStats {
            len: 1,
            fast_inserts: 2,
            top_inserts: 3,
            wal_appends: 4,
            wal_fsyncs: 5,
            shards: 6,
        };
        let replies: [(Result<Reply>, &str); 9] = [
            (Ok(Reply::Inserted), "09000000 0102030405060708 00"),
            (
                Ok(Reply::BatchInserted { fast: 0x0c }),
                "11000000 0102030405060708 00 0c00000000000000",
            ),
            (
                Ok(Reply::Got(Some(0x0d))),
                "12000000 0102030405060708 00 01 0d00000000000000",
            ),
            (Ok(Reply::Got(None)), "0a000000 0102030405060708 00 00"),
            (
                Ok(Reply::Deleted(Some(0x0e))),
                "12000000 0102030405060708 00 01 0e00000000000000",
            ),
            (Ok(Reply::Deleted(None)), "0a000000 0102030405060708 00 00"),
            (
                Ok(Reply::Entries(vec![(0x0f, 0x10)])),
                "1d000000 0102030405060708 00 01000000 0f00000000000000 1000000000000000",
            ),
            (
                Ok(Reply::Stats(stats)),
                "35000000 0102030405060708 00 0100000000000000 0200000000000000 \
                 0300000000000000 0400000000000000 0500000000000000 06000000",
            ),
            // Status 6, then the error's `Display` text.
            (
                Err(Error::Shutdown),
                "16000000 0102030405060708 06 7368757474696e6720646f776e",
            ),
        ];
        for (reply, bytes) in &replies {
            let frame = encode_reply(id, reply);
            assert_eq!(frame, hex(bytes), "{reply:?}");
            // Appending to a buffer that already holds a frame writes the
            // same bytes behind it.
            let mut both = frame.clone();
            encode_reply_into(&mut both, id, reply);
            assert_eq!(both, [frame.clone(), frame].concat());
        }
    }

    #[test]
    fn clean_eof_is_none_mid_frame_eof_is_error() {
        let mut empty: &[u8] = &[];
        assert!(read_request(&mut empty).unwrap().is_none());
        let frame = encode_request(1, &Request::Stats);
        let mut torn = &frame[..frame.len() - 1];
        assert_eq!(read_request(&mut torn).unwrap_err().kind(), "io");
    }
}
