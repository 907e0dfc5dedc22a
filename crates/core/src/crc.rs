//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`): the one
//! checksum behind every persisted byte in the workspace — page-file
//! headers and records, arena page images, WAL frames and segment
//! headers, and both snapshot flavours (`quit-durability` re-exports
//! [`crc32`]).
//!
//! The kernel is slicing-by-16: sixteen const-built 256-entry tables let
//! one loop iteration fold sixteen input bytes with independent lookups,
//! instead of one table lookup (or eight shift/xor rounds) per byte. What
//! is left after the last full block narrows through an 8-byte, a 4-byte
//! and finally the classic one-table bytewise step, so the result is the
//! standard CRC-32 for every length and alignment.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Advances `crc` over one block of `WORDS` little-endian `u32`s: every
/// byte indexes the table for its distance from the block's end, and the
/// lookups are independent of each other.
#[inline(always)]
fn fold<const WORDS: usize>(crc: u32, block: &[u8]) -> u32 {
    let mut out = 0;
    let mut i = 0;
    while i < WORDS {
        let at = 4 * i;
        let mut w = u32::from_le_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]]);
        if i == 0 {
            w ^= crc;
        }
        let t = 4 * (WORDS - 1 - i);
        out ^= TABLES[t + 3][(w & 0xFF) as usize]
            ^ TABLES[t + 2][((w >> 8) & 0xFF) as usize]
            ^ TABLES[t + 1][((w >> 16) & 0xFF) as usize]
            ^ TABLES[t][(w >> 24) as usize];
        i += 1;
    }
    out
}

/// Streaming CRC-32: feed any split of the input through
/// [`update`](Self::update) and [`finish`](Self::finish) returns what
/// [`crc32`] would over the concatenation — so a record can be checksummed
/// field by field, in place, without first being copied into one buffer.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// The checksum of the empty input.
    pub const fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(16);
        for block in &mut blocks {
            crc = fold::<4>(crc, block);
        }
        // The tail narrows 8 → 4 → 1 bytes per step, so a short record
        // (a 25-byte WAL payload is 16 + 8 + 1) takes three dependent
        // steps rather than one per byte.
        let mut rest = blocks.remainder();
        if rest.len() >= 8 {
            crc = fold::<2>(crc, &rest[..8]);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            crc = fold::<1>(crc, &rest[..4]);
            rest = &rest[4..];
        }
        for &b in rest {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The CRC-32 of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC-32 over `bytes` in one shot.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference: the definition the kernel must match.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check values for CRC-32/ISO-HDLC (zlib-compatible).
        assert_eq!(crc32(b""), 0);
        assert_eq!(Crc32::new().finish(), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn matches_bitwise_reference_at_every_length_and_offset() {
        let data = noise(16 + 300);
        for start in 0..16 {
            for len in 0..=300 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), bitwise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn streaming_split_at_every_cut_equals_one_shot() {
        let data = noise(300);
        let whole = crc32(&data);
        assert_eq!(whole, bitwise(&data));
        for cut in 0..=data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..cut]);
            crc.update(&data[cut..]);
            assert_eq!(crc.finish(), whole, "cut {cut}");
        }
        // Three pieces, the middle one empty or tiny.
        for cut in (0..data.len() - 3).step_by(7) {
            let mut crc = Crc32::new();
            crc.update(&data[..cut]);
            crc.update(&[]);
            crc.update(&data[cut..cut + 3]);
            crc.update(&data[cut + 3..]);
            assert_eq!(crc.finish(), whole, "cut {cut}");
        }
    }
}
