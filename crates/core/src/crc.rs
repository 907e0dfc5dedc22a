//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`): the one
//! checksum behind every persisted byte in the workspace — page-file
//! headers and records, arena page images, WAL frames and segment
//! headers, and both snapshot flavours (`quit-durability` re-exports
//! [`crc32`]).
//!
//! Two kernels compute the same function, chosen per call:
//!
//! * **Carry-less multiply** (x86_64 with PCLMULQDQ, inputs of at least
//!   [`CLMUL_MIN`] bytes): the fold-by-4 and Barrett reduction of Gopal et
//!   al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ"
//!   (Intel, 2009). Four 128-bit lanes each absorb 16 bytes per step, a
//!   multiply by `x^(512±32) mod P` carrying them forward; the lanes then
//!   fold into one, the remaining whole 16-byte blocks fold into that, and
//!   the 128-bit remainder reduces to 32 bits. Bytes past the last whole
//!   block go through the table kernel. About 25 GB/s against 2.2 GB/s
//!   on a 4 KiB or larger buffer, and ahead from 64 bytes on.
//! * **Slicing-by-16**: sixteen const-built 256-entry tables let one loop
//!   iteration fold sixteen input bytes with independent lookups, instead
//!   of one table lookup (or eight shift/xor rounds) per byte. What is left
//!   after the last full block narrows through an 8-byte, a 4-byte and
//!   finally the classic one-table bytewise step. This kernel serves every
//!   input shorter than [`CLMUL_MIN`] (a single WAL record pays one length
//!   compare for the choice, nothing else), every other target, and every
//!   process run with `QUIT_FORCE_SCALAR=1`
//!   ([`simd_force_disabled`]).

/// Force-disable switch for the vector kernel, read once per process:
/// `QUIT_FORCE_SCALAR=1` makes the CRC-32 take its portable table kernel
/// instead of the carry-less-multiply one, the path non-x86 targets run.
pub fn simd_force_disabled() -> bool {
    static FORCE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var("QUIT_FORCE_SCALAR").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
    })
}

const POLY: u32 = 0xEDB8_8320;

/// Shortest input handed to the carry-less kernel: one fold block, the
/// least it can take. It already wins there, reduction included (on a
/// 2-core x86-64 Xeon: 6.8 against 19.8 ns at 64 bytes, 9.1 against
/// 44 ns at 128, 167 against 2 015 ns for a 4 KiB page).
const CLMUL_MIN: usize = 64;

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

/// The slicing-by-16 kernel: advances the raw register `crc` over `bytes`.
fn table_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        crc = fold::<4>(crc, block);
    }
    // The tail narrows 8 → 4 → 1 bytes per step, so a short record (a
    // 25-byte WAL payload is 16 + 8 + 1) takes three dependent steps
    // rather than one per byte.
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
    crc
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    //! The carry-less-multiply kernel (module docs of [`super`]). The
    //! constants are those of the Intel paper for the reflected IEEE
    //! polynomial, each a power of `x` reduced modulo `P` and bit-reflected;
    //! the Barrett pair is `P` itself and `⌊x^64 / P⌋`. Loads are unaligned
    //! (`loadu`): callers hand in arbitrary sub-slices.
    use core::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Folds a lane 512 bits ahead: `x^(512+32)` (low) and `x^(512−32)`
    /// (high), mod `P`.
    const K1K2: (i64, i64) = (0x1_5444_2BD4, 0x1_C6E4_1596);
    /// Folds a lane 128 bits ahead: `x^(128+32)` (low) and `x^(128−32)`
    /// (high), mod `P`; the high half also folds 128 → 64 bits.
    const K3K4: (i64, i64) = (0x1_7519_97D0, 0x0_CCAA_009E);
    /// Folds 64 → 32 bits: `x^64 mod P`.
    const K5: i64 = 0x1_63CD_6124;
    /// Barrett reduction: `P` (low) and `μ = ⌊x^64 / P⌋` (high), both
    /// reflected.
    const P_MU: (i64, i64) = (0x1_DB71_0641, 0x1_F701_1641);

    /// Whether the kernel may run: PCLMULQDQ present and
    /// `QUIT_FORCE_SCALAR` unset, decided once per process.
    fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE
            .get_or_init(|| !super::simd_force_disabled() && is_x86_feature_detected!("pclmulqdq"))
    }

    /// Advances the raw register `crc` over the whole 16-byte blocks of
    /// `bytes` (at least 64 bytes), returning it with the bytes after the
    /// last block, or `None` if the kernel is unavailable.
    pub(super) fn update(crc: u32, bytes: &[u8]) -> Option<(u32, &[u8])> {
        let (blocks, rest) = bytes.split_at(bytes.len() & !15);
        // SAFETY: `available` checked at runtime that the CPU has
        // PCLMULQDQ, the one feature `fold` enables.
        available().then(|| (unsafe { fold(crc, blocks) }, rest))
    }

    /// Reads one 16-byte block from the front of `bytes`.
    #[inline(always)]
    fn load(bytes: &[u8]) -> __m128i {
        let block = &bytes[..16];
        // SAFETY: `block` is 16 readable bytes, and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `x · k` advanced one fold distance: its low qword times `k`'s low,
    /// xor its high qword times `k`'s high.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold16(x: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(x, k),
            _mm_clmulepi64_si128::<0x11>(x, k),
        )
    }

    /// Advances `crc` over `blocks`: four or more whole 16-byte blocks
    /// (fewer panics; a partial block would be left out).
    ///
    /// # Safety
    ///
    /// Only callable where the CPU has PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(crc: u32, blocks: &[u8]) -> u32 {
        let k1k2 = _mm_set_epi64x(K1K2.1, K1K2.0);
        let k3k4 = _mm_set_epi64x(K3K4.1, K3K4.0);
        let mut lanes = [0, 1, 2, 3].map(|i| load(&blocks[16 * i..]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let mut rest = &blocks[64..];
        while rest.len() >= 64 {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = _mm_xor_si128(fold16(*lane, k1k2), load(&rest[16 * i..]));
            }
            rest = &rest[64..];
        }
        let mut x = lanes[0];
        for lane in &lanes[1..] {
            x = _mm_xor_si128(fold16(x, k3k4), *lane);
        }
        for block in rest.chunks_exact(16) {
            x = _mm_xor_si128(fold16(x, k3k4), load(block));
        }
        // 128 → 64 bits: the low qword times x^(128−32) onto the high
        // qword (which appends the 32 zero bits the reduction expects).
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        // 64 → 32 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: q = (x mod x^32) · μ, then x ⊕ (q mod x^32) · P leaves
        // the remainder in the second dword.
        let p_mu = _mm_set_epi64x(P_MU.1, P_MU.0);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
        let r = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), p_mu);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, r))) as u32
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod clmul {
    //! Non-x86_64 stub: the kernel always declines, so every input takes
    //! the table path.
    pub(super) fn update(_: u32, _: &[u8]) -> Option<(u32, &[u8])> {
        None
    }
}

/// Advances the raw register `crc` over an input of at least [`CLMUL_MIN`]
/// bytes: carry-less where the kernel runs, then the table for the rest.
/// Out of line, so that a short input's path is the table kernel alone.
#[inline(never)]
fn long_update(crc: u32, bytes: &[u8]) -> u32 {
    match clmul::update(crc, bytes) {
        Some((crc, rest)) => table_update(crc, rest),
        None => table_update(crc, bytes),
    }
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
        self.state = if bytes.len() < CLMUL_MIN {
            table_update(self.state, bytes)
        } else {
            long_update(self.state, bytes)
        };
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
        let data = noise(16 + 1024);
        for start in 0..16 {
            for len in 0..=1024 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), bitwise(s), "start {start} len {len}");
            }
        }
    }

    /// Each kernel on its own — whichever one `crc32` would pick — against
    /// the reference, so neither can hide behind the other.
    #[test]
    fn both_kernels_match_the_reference_at_every_length_and_offset() {
        let data = noise(16 + 1024);
        let mut clmul_checked = 0;
        for start in 0..16 {
            for len in 0..=1024 {
                let s = &data[start..start + len];
                let want = bitwise(s);
                assert_eq!(!table_update(!0, s), want, "table: start {start} len {len}");
                if len >= CLMUL_MIN {
                    if let Some((crc, tail)) = clmul::update(!0, s) {
                        let got = !table_update(crc, tail);
                        assert_eq!(got, want, "clmul: start {start} len {len}");
                        clmul_checked += 1;
                    }
                }
            }
        }
        // Where the kernel can run, it ran at every length from the
        // threshold on; elsewhere it never did.
        #[cfg(target_arch = "x86_64")]
        if !super::simd_force_disabled() && is_x86_feature_detected!("pclmulqdq") {
            assert_eq!(clmul_checked, 16 * (1024 - CLMUL_MIN + 1));
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(clmul_checked, 0);
    }

    #[test]
    fn streaming_split_at_every_cut_equals_one_shot() {
        // Long enough that both pieces cross the dispatch threshold at
        // some cuts and fall under it at others.
        let data = noise(300);
        assert!(data.len() > 2 * CLMUL_MIN);
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
