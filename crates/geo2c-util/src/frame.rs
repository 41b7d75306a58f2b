//! Length-prefixed, CRC-guarded binary framing for durable on-disk logs.
//!
//! The serving engine's checkpoint/journal files (see `geo2c-serve`'s
//! `journal` module) are sequences of *frames* appended to a fixed-size
//! file header. A frame is
//!
//! ```text
//! [len: u32 LE][crc: u32 LE][payload: len bytes]
//! ```
//!
//! where `crc` is the CRC-32 (IEEE, reflected) of the payload. The
//! format is designed around one question a crash-recovery scan must
//! answer: *is a bad frame a crash artifact or real corruption?* An
//! append interrupted by a crash can only leave a short or garbled
//! **tail** — nothing ever writes beyond it — so [`scan_frames`]
//! classifies a bad frame whose extent reaches (or overruns) end-of-file
//! as [`Tail::Torn`], safe to truncate and resume past, while a bad
//! frame *followed by more bytes* is reported as a loud
//! [`FrameError`]: no crash writes valid data after a hole, so
//! silently truncating there would discard durable history.
//!
//! [`Header`] is the companion file preamble (magic, format version, and
//! two caller-chosen binding words) that lets a reader reject files of
//! the wrong kind, version, or provenance before trusting any frame.
//!
//! ```
//! use geo2c_util::frame::{append_frame, scan_frames, Tail};
//!
//! let mut buf = Vec::new();
//! append_frame(&mut buf, b"alpha");
//! append_frame(&mut buf, b"beta");
//! let whole = scan_frames(&buf).unwrap();
//! assert_eq!(whole.payloads, [&b"alpha"[..], b"beta"]);
//! assert!(matches!(whole.tail, Tail::Clean));
//!
//! // A crash mid-append tears the tail; the scan survives it.
//! let torn = scan_frames(&buf[..buf.len() - 2]).unwrap();
//! assert_eq!(torn.payloads, [b"alpha"]);
//! assert!(matches!(torn.tail, Tail::Torn { .. }));
//! ```

use std::fmt;

/// Bytes of framing (`len` + `crc`) preceding each payload.
pub const FRAME_OVERHEAD: usize = 8;

/// The CRC-32 polynomial (IEEE), reflected: bit 31 holds `x^0`.
const POLY: u32 = 0xEDB8_8320;

/// The slicing-by-8 CRC-32 tables (IEEE polynomial, reflected), computed
/// at compile time so the crate stays dependency-free. `CRC_TABLES[0]` is
/// the classic bytewise table; `CRC_TABLES[k][b]` is the register after
/// byte `b` is followed by `k` zero bytes, so one lookup per table
/// advances the CRC over eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// `a · b` modulo the CRC polynomial, both in the register's reflected
/// form. Advancing a register over zero bytes is a multiply by a power
/// of `x`, so this is what joins CRCs computed side by side.
const fn gf2_mul(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 0;
    while bit < 32 {
        // Bit 31 - `bit` of `a` is the coefficient of `x^bit`, and `b`
        // holds `b · x^bit`.
        product ^= b & 0u32.wrapping_sub((a >> (31 - bit)) & 1);
        b = (b >> 1) ^ (POLY & 0u32.wrapping_sub(b & 1));
        bit += 1;
    }
    product
}

/// `X_POW_2K[k]` is `x^(2^k)` modulo the polynomial: the table of
/// squarings any power of `x` is a product of. The polynomial is
/// primitive, so `x^(2^32) = x` and the table repeats with period 32.
const X_POW_2K: [u32; 32] = {
    let mut table = [0u32; 32];
    table[0] = 1 << 30; // x^1
    let mut k = 1;
    while k < 32 {
        table[k] = gf2_mul(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
};

/// `x^(8·len)` modulo the polynomial: the multiplier that advances a
/// register over `len` zero bytes.
fn zero_bytes_shift(len: usize) -> u32 {
    let mut shift = 1 << 31; // x^0
    let mut rest = len;
    // 8·len = len · 2^3: bit j of `len` is the squaring x^(2^(j + 3)).
    let mut k = 3;
    while rest != 0 {
        if rest & 1 != 0 {
            shift = gf2_mul(X_POW_2K[k % 32], shift);
        }
        rest >>= 1;
        k += 1;
    }
    shift
}

/// Inputs of at least this many bytes run [`Crc32::update`]'s four
/// lanes: 1.8× as fast as one lane here and 2.1× on a 324 KB image (a
/// shared 2-vCPU Xeon). The journal's progress frames stay on one.
const LANES_FROM: usize = 1 << 12;

/// One slicing-by-8 step: the register advanced over eight input bytes.
#[inline(always)]
fn crc_word(crc: u32, word: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
    let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// The register advanced over `bytes`: slicing-by-8 over the whole
/// words, then the bytewise step for the tail.
fn crc_lane(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        crc = crc_word(crc, word);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE, reflected — the zlib/PNG polynomial) of `bytes`: the
/// one-shot form of [`Crc32`].
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// A streaming CRC-32: [`Crc32::update`] over consecutive pieces of a
/// buffer, in order, then [`Crc32::finish`], gives [`crc32`] of the whole
/// buffer however it was split. A writer that builds a frame's payload in
/// stages checksums each piece as it goes.
///
/// ```
/// use geo2c_util::frame::{crc32, Crc32};
///
/// let mut crc = Crc32::new();
/// crc.update(b"1234");
/// crc.update(b"56789");
/// assert_eq!(crc.finish(), crc32(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    /// The CRC register, pre-inverted.
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The CRC of the empty buffer so far.
    #[must_use]
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Extends the checksum over `bytes`.
    ///
    /// Slicing-by-8: eight independent table lookups per 8-byte word
    /// instead of a serial dependency chain of eight, then the bytewise
    /// step for the tail.
    ///
    /// An input of at least 4 KiB is cut into four equal quarters of
    /// whole words, and four slicing-by-8 lanes run over them side by
    /// side — the first from the register, the others from zero — so
    /// four dependency chains overlap instead of one. The register is
    /// linear over GF(2): running a quarter from register `r` gives `r`
    /// run over as many zero bytes, XOR the quarter run from zero. And
    /// running `r` over `len` zero bytes is a multiply by `x^(8·len)`
    /// modulo the polynomial, a product of entries of a const table of
    /// squarings (`x^(2^k)`). So the lanes fold in order, each step a
    /// multiply and an XOR, and the bytes past the quarters (fewer than
    /// 32) take the one-lane step.
    ///
    /// The register carries across calls, so a split anywhere — mid-word
    /// or on a lane seam included — changes nothing.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut rest = bytes;
        if bytes.len() >= LANES_FROM {
            let lane = bytes.len() / 32 * 8;
            let (a, b) = bytes.split_at(lane);
            let (b, c) = b.split_at(lane);
            let (c, d) = c.split_at(lane);
            let (d, tail) = d.split_at(lane);
            let mut lanes = [crc, 0, 0, 0];
            let words = a.chunks_exact(8).zip(b.chunks_exact(8));
            let words = words.zip(c.chunks_exact(8).zip(d.chunks_exact(8)));
            for ((a, b), (c, d)) in words {
                lanes = [
                    crc_word(lanes[0], a),
                    crc_word(lanes[1], b),
                    crc_word(lanes[2], c),
                    crc_word(lanes[3], d),
                ];
            }
            let shift = zero_bytes_shift(lane);
            crc = lanes[1..]
                .iter()
                .fold(lanes[0], |crc, &next| gf2_mul(shift, crc) ^ next);
            rest = tail;
        }
        self.state = crc_lane(crc, rest);
    }

    /// The CRC-32 of everything passed to [`Crc32::update`].
    #[must_use]
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// Appends `[len][crc][payload]` to `out`.
///
/// # Panics
/// Panics if the payload exceeds `u32::MAX` bytes.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let at = out.len();
    out.resize(at + FRAME_OVERHEAD, 0);
    out.extend_from_slice(payload);
    seal_frame(&mut out[at..]);
}

/// Seals a frame whose payload was written in place: `frame` is
/// [`FRAME_OVERHEAD`] placeholder bytes followed by the payload, and the
/// placeholder becomes its `[len][crc]`. The in-place form of
/// [`append_frame`], for writers that encode straight into the buffer.
///
/// # Panics
/// Panics if `frame` is shorter than [`FRAME_OVERHEAD`] or the payload
/// exceeds `u32::MAX` bytes.
pub fn seal_frame(frame: &mut [u8]) {
    let crc = crc32(&frame[FRAME_OVERHEAD..]);
    seal_frame_with(frame, crc);
}

/// [`seal_frame`] with the payload's CRC already computed — by a
/// [`Crc32`] that streamed over the payload as it was written.
///
/// # Panics
/// As [`seal_frame`].
pub fn seal_frame_with(frame: &mut [u8], crc: u32) {
    let (prefix, payload) = frame.split_at_mut(FRAME_OVERHEAD);
    let len = u32::try_from(payload.len()).expect("frame payload over 4 GiB");
    prefix[..4].copy_from_slice(&len.to_le_bytes());
    prefix[4..].copy_from_slice(&crc.to_le_bytes());
}

/// How a frame scan reached the end of its buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// The final frame ended exactly at end-of-buffer.
    Clean,
    /// The bytes from offset `at` to the end are a torn append — a short
    /// header, a frame extending past end-of-buffer, or a final frame
    /// failing its CRC. Truncating the file to `at` removes the artifact;
    /// every payload before `at` is intact.
    Torn {
        /// Byte offset (from the start of the scanned buffer) of the
        /// torn frame's header.
        at: usize,
    },
}

/// Every intact payload in a scanned buffer, in append order, plus how
/// the scan ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frames<'a> {
    /// The payloads of the frames that passed their CRC.
    pub payloads: Vec<&'a [u8]>,
    /// Whether the buffer ended cleanly or in a torn append.
    pub tail: Tail,
}

/// A frame failed its CRC with durable frames *after* it — real
/// corruption, never a crash artifact (appends only ever garble the
/// tail). Callers must fail loudly rather than truncate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameError {
    /// Byte offset (from the start of the scanned buffer) of the corrupt
    /// frame's header.
    pub at: usize,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "corrupt non-tail frame at byte {}: CRC mismatch with durable frames after it",
            self.at
        )
    }
}

impl std::error::Error for FrameError {}

/// Scans `buf` as a frame sequence.
///
/// Returns the intact payloads and the tail classification; a torn tail
/// ([`Tail::Torn`]) is *not* an error — it is the expected residue of a
/// crash mid-append, and the caller truncates past it.
///
/// # Errors
/// [`FrameError`] when a frame fails its CRC but is *followed by more
/// bytes*: that cannot be a torn append, so the file has real corruption
/// and silently truncating would discard durable frames.
pub fn scan_frames(buf: &[u8]) -> Result<Frames<'_>, FrameError> {
    let mut payloads = Vec::new();
    let mut at = 0usize;
    while at < buf.len() {
        let remaining = buf.len() - at;
        if remaining < FRAME_OVERHEAD {
            return Ok(Frames {
                payloads,
                tail: Tail::Torn { at },
            });
        }
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
        let want = u32::from_le_bytes(buf[at + 4..at + 8].try_into().unwrap());
        let end = at + FRAME_OVERHEAD + len;
        if end > buf.len() {
            return Ok(Frames {
                payloads,
                tail: Tail::Torn { at },
            });
        }
        let payload = &buf[at + FRAME_OVERHEAD..end];
        if crc32(payload) != want {
            if end == buf.len() {
                return Ok(Frames {
                    payloads,
                    tail: Tail::Torn { at },
                });
            }
            return Err(FrameError { at });
        }
        payloads.push(payload);
        at = end;
    }
    Ok(Frames {
        payloads,
        tail: Tail::Clean,
    })
}

/// Why a [`Header`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// Fewer than [`Header::LEN`] bytes.
    Short,
    /// The magic does not match — a file of a different kind.
    BadMagic,
    /// The magic matches but the format version does not.
    BadVersion {
        /// The version the file declares.
        found: u32,
    },
}

impl fmt::Display for HeaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Short => write!(f, "file shorter than its header"),
            Self::BadMagic => write!(f, "magic mismatch: not a file of this kind"),
            Self::BadVersion { found } => write!(f, "unsupported format version {found}"),
        }
    }
}

impl std::error::Error for HeaderError {}

/// A fixed-size file preamble: 8 magic bytes, a `u32` format version,
/// and two caller-chosen `u64` *binding words* (the serving journal
/// binds its lane root and a configuration fingerprint, so a checkpoint
/// can never be restored into an engine it was not taken from).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// File-kind magic.
    pub magic: [u8; 8],
    /// Format version.
    pub version: u32,
    /// Caller-chosen provenance words, checked by the caller.
    pub binds: [u64; 2],
}

impl Header {
    /// Encoded size in bytes.
    pub const LEN: usize = 8 + 4 + 16;

    /// The header's on-disk encoding (magic, then LE version, then the
    /// LE binding words).
    #[must_use]
    pub fn encode(&self) -> [u8; Self::LEN] {
        let mut out = [0u8; Self::LEN];
        out[..8].copy_from_slice(&self.magic);
        out[8..12].copy_from_slice(&self.version.to_le_bytes());
        out[12..20].copy_from_slice(&self.binds[0].to_le_bytes());
        out[20..28].copy_from_slice(&self.binds[1].to_le_bytes());
        out
    }

    /// Decodes and checks a header from the start of `buf`, returning it
    /// (binding words are the caller's to verify).
    ///
    /// # Errors
    /// [`HeaderError`] when `buf` is short, the magic differs, or the
    /// version differs.
    pub fn decode(buf: &[u8], magic: [u8; 8], version: u32) -> Result<Self, HeaderError> {
        if buf.len() < Self::LEN {
            return Err(HeaderError::Short);
        }
        if buf[..8] != magic {
            return Err(HeaderError::BadMagic);
        }
        let found = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if found != version {
            return Err(HeaderError::BadVersion { found });
        }
        Ok(Self {
            magic,
            version,
            binds: [
                u64::from_le_bytes(buf[12..20].try_into().unwrap()),
                u64::from_le_bytes(buf[20..28].try_into().unwrap()),
            ],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise table-driven CRC that slicing-by-8 replaced, kept as
    /// the reference it is checked against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_ieee_check_vectors() {
        // The standard check value for "123456789", and zlib's for empty.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"geo2c"), crc32(b"geo2c"));
        assert_ne!(crc32(b"geo2c"), crc32(b"geo2d"));
    }

    /// `len` bytes from a generator seeded with `seed`.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(0x5851_F42D_4C95_7F2D)
                    .wrapping_add(0x1405_7B7E_F767_814F);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn the_lane_shift_is_a_run_over_zero_bytes() {
        // The multiply that folds the lanes equals carrying a register
        // over that many zero bytes through the bytewise loop.
        let mut reg = 0x1234_5678u32;
        for len in [0, 1, 7, 8, 9, 1000, LANES_FROM, 65_537, 100_003] {
            reg = reg.wrapping_mul(0x9E37_79B9).rotate_left(7) ^ 0xDEAD_BEEF;
            let mut zeros = reg;
            for _ in 0..len {
                zeros = (zeros >> 8) ^ CRC_TABLES[0][(zeros & 0xFF) as usize];
            }
            assert_eq!(gf2_mul(zero_bytes_shift(len), reg), zeros, "len {len}");
        }
        // The table of squarings repeats with period 32: x^(2^32) = x.
        assert_eq!(gf2_mul(X_POW_2K[31], X_POW_2K[31]), X_POW_2K[0]);
    }

    proptest! {
        /// Slicing-by-8 equals the bytewise reference at every length up
        /// to 4 KiB, whatever the alignment of the slice start.
        #[test]
        fn crc32_matches_the_bytewise_reference(
            len in 0usize..4097,
            offset in 0usize..8,
            seed in any::<u64>(),
        ) {
            let buf = noise(offset + len, seed);
            let slice = &buf[offset..];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }

        /// The four-lane path equals the bytewise reference from the lane
        /// threshold to past 256 KiB, whatever the start offset, one-shot
        /// and streamed across a split on one of the lane seams (the
        /// three quarter boundaries and the tail's start) or a byte
        /// beside it.
        #[test]
        fn crc32_lanes_match_the_bytewise_reference(
            len in LANES_FROM - 8..(256 << 10) + 64,
            offset in 0usize..8,
            seed in any::<u64>(),
            seam in 1usize..5,
            beside in 0usize..3,
        ) {
            let buf = noise(offset + len, seed);
            let slice = &buf[offset..];
            let want = crc32_bytewise(slice);
            prop_assert_eq!(crc32(slice), want);
            let cut = (seam * (len / 32 * 8) + beside).saturating_sub(1).min(len);
            let mut crc = Crc32::new();
            crc.update(&slice[..cut]);
            crc.update(&slice[cut..]);
            prop_assert_eq!(crc.finish(), want, "cut at {}", cut);
        }

        /// Streaming over any split of a buffer — each single cut, and a
        /// generated run of pieces — gives the one-shot CRC and the
        /// bytewise reference.
        #[test]
        fn streaming_crc32_is_split_invariant(
            len in 0usize..300,
            seed in any::<u64>(),
            pieces in proptest::collection::vec(0usize..40, 0..12),
        ) {
            let buf = noise(len, seed);
            let whole = crc32(&buf);
            prop_assert_eq!(whole, crc32_bytewise(&buf));
            for cut in 0..=len {
                let mut crc = Crc32::new();
                crc.update(&buf[..cut]);
                crc.update(&buf[cut..]);
                prop_assert_eq!(crc.finish(), whole, "cut at {}", cut);
            }
            let mut crc = Crc32::new();
            let mut at = 0;
            for piece in pieces {
                let end = (at + piece).min(len);
                crc.update(&buf[at..end]);
                at = end;
            }
            crc.update(&buf[at..]);
            prop_assert_eq!(crc.finish(), whole);
        }
    }

    #[test]
    fn frames_round_trip_including_empty_payloads() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"");
        append_frame(&mut buf, b"payload");
        append_frame(&mut buf, &[0xFF; 300]);
        let frames = scan_frames(&buf).unwrap();
        assert_eq!(frames.payloads.len(), 3);
        assert_eq!(frames.payloads[0], b"");
        assert_eq!(frames.payloads[1], b"payload");
        assert_eq!(frames.payloads[2], &[0xFF; 300][..]);
        assert_eq!(frames.tail, Tail::Clean);
        assert_eq!(scan_frames(&[]).unwrap().tail, Tail::Clean);
    }

    #[test]
    fn every_truncation_point_is_a_torn_tail_never_an_error() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"first");
        append_frame(&mut buf, b"second");
        for cut in 0..buf.len() {
            let frames = scan_frames(&buf[..cut]).unwrap();
            // Intact prefix frames all survive; the cut is torn unless it
            // lands exactly on a frame boundary.
            let first_len = FRAME_OVERHEAD + 5;
            if cut == 0 {
                assert_eq!(frames.tail, Tail::Clean);
            } else if cut < first_len {
                assert_eq!(frames.payloads.len(), 0);
                assert_eq!(frames.tail, Tail::Torn { at: 0 });
            } else if cut == first_len {
                assert_eq!(frames.payloads, [b"first"]);
                assert_eq!(frames.tail, Tail::Clean);
            } else {
                assert_eq!(frames.payloads, [b"first"]);
                assert_eq!(frames.tail, Tail::Torn { at: first_len });
            }
        }
    }

    #[test]
    fn bit_flips_in_the_final_frame_are_torn_but_earlier_flips_are_loud() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"first");
        append_frame(&mut buf, b"second");
        let first_len = FRAME_OVERHEAD + 5;

        // Flip a payload bit in the *final* frame: torn tail at its header.
        let mut tail_flip = buf.clone();
        let last = tail_flip.len() - 1;
        tail_flip[last] ^= 0x10;
        let frames = scan_frames(&tail_flip).unwrap();
        assert_eq!(frames.payloads, [b"first"]);
        assert_eq!(frames.tail, Tail::Torn { at: first_len });

        // Flip a payload bit in the *first* frame: corruption, loud.
        let mut mid_flip = buf.clone();
        mid_flip[FRAME_OVERHEAD] ^= 0x10;
        assert_eq!(scan_frames(&mid_flip), Err(FrameError { at: 0 }));
        assert!(FrameError { at: 0 }.to_string().contains("corrupt"));
    }

    #[test]
    fn a_garbled_length_field_cannot_overrun_the_buffer() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"data");
        buf[0] = 0xFF;
        buf[1] = 0xFF; // length now absurd
        let frames = scan_frames(&buf).unwrap();
        assert_eq!(frames.payloads.len(), 0);
        assert_eq!(frames.tail, Tail::Torn { at: 0 });
    }

    #[test]
    fn headers_round_trip_and_reject_the_wrong_kind() {
        let header = Header {
            magic: *b"G2CTEST\0",
            version: 3,
            binds: [0xDEAD_BEEF, 42],
        };
        let mut bytes = header.encode().to_vec();
        bytes.extend_from_slice(b"frames follow");
        assert_eq!(
            Header::decode(&bytes, *b"G2CTEST\0", 3).unwrap(),
            header,
            "trailing bytes are ignored"
        );
        assert_eq!(
            Header::decode(&bytes[..10], *b"G2CTEST\0", 3),
            Err(HeaderError::Short)
        );
        assert_eq!(
            Header::decode(&bytes, *b"G2COTHER", 3),
            Err(HeaderError::BadMagic)
        );
        assert_eq!(
            Header::decode(&bytes, *b"G2CTEST\0", 4),
            Err(HeaderError::BadVersion { found: 3 })
        );
        assert!(HeaderError::Short.to_string().contains("shorter"));
    }
}
