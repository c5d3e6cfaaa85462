//! Zero-dependency `gzip` content-coding (RFC 1952 over RFC 1951).
//!
//! The compressor emits one fixed-Huffman DEFLATE block driven by a
//! greedy hash-chain LZ77 matcher — small and predictable rather than
//! optimal, which is all a content-coding needs (the negotiation layer
//! keeps the original body whenever the encoding does not shrink it).
//! The decompressor is complete: stored, fixed *and* dynamic blocks,
//! so it can read any conforming gzip stream, not just our own, and it
//! verifies both CRC32 and ISIZE so corruption (e.g. a fault-injecting
//! proxy flipping bytes) surfaces as an error instead of silent garbage.
//!
//! Bodies are encoded/decoded *before* wire serialisation, so
//! `Content-Length` always frames the encoded byte count exactly — the
//! property that keeps keep-alive framing identical in both server
//! cores.

use std::fmt;

/// Decompression failure: corrupt stream, bad checksum, or an output
/// larger than the caller's cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GzipError {
    /// Not a gzip stream, or the DEFLATE payload is malformed/truncated.
    Corrupt(&'static str),
    /// CRC32 or ISIZE trailer mismatch: the payload was damaged in
    /// transit.
    ChecksumMismatch,
    /// Decompressed size would exceed the configured cap.
    TooLarge {
        /// The configured output cap in bytes.
        limit: usize,
    },
}

impl fmt::Display for GzipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GzipError::Corrupt(what) => write!(f, "corrupt gzip stream: {what}"),
            GzipError::ChecksumMismatch => write!(f, "gzip checksum mismatch"),
            GzipError::TooLarge { limit } => {
                write!(f, "decompressed entity exceeds {limit} bytes")
            }
        }
    }
}

impl std::error::Error for GzipError {}

// ---- CRC32 (IEEE, reflected, as gzip requires) ----

fn crc_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (n, slot) in t.iter_mut().enumerate() {
            let mut c = n as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    })
}

/// CRC32 of `data` (the gzip trailer checksum).
pub fn crc32(data: &[u8]) -> u32 {
    let table = crc_table();
    let mut c = !0u32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---- DEFLATE fixed-Huffman compressor ----

/// LSB-first bit accumulator (DEFLATE's bit order).
struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    fn new() -> BitWriter {
        BitWriter {
            out: Vec::new(),
            acc: 0,
            nbits: 0,
        }
    }

    /// Write `bits` bits of `value`, LSB first (extra-bits fields).
    fn put(&mut self, value: u32, bits: u32) {
        self.acc |= (value as u64) << self.nbits;
        self.nbits += bits;
        while self.nbits >= 8 {
            self.out.push((self.acc & 0xFF) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Write a Huffman code: DEFLATE packs codes starting from their
    /// most-significant bit, so the code is bit-reversed before `put`.
    fn put_code(&mut self, code: u32, bits: u32) {
        let mut rev = 0u32;
        for i in 0..bits {
            rev |= ((code >> i) & 1) << (bits - 1 - i);
        }
        self.put(rev, bits);
    }

    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xFF) as u8);
        }
        self.out
    }
}

/// Fixed literal/length code for symbol `sym` (RFC 1951 §3.2.6).
fn fixed_lit_code(sym: u16) -> (u32, u32) {
    match sym {
        0..=143 => (0x30 + sym as u32, 8),
        144..=255 => (0x190 + (sym as u32 - 144), 9),
        256..=279 => (sym as u32 - 256, 7),
        _ => (0xC0 + (sym as u32 - 280), 8),
    }
}

/// Length code table: (base length, extra bits) for codes 257..=285.
const LENGTH_CODES: [(u16, u32); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// Distance code table: (base distance, extra bits) for codes 0..=29.
const DIST_CODES: [(u16, u32); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const WINDOW: usize = 32 * 1024;
const HASH_BITS: u32 = 15;
/// Bound on hash-chain walking per position — compression speed over
/// the last fraction of ratio.
const MAX_CHAIN: usize = 48;

fn hash3(data: &[u8], i: usize) -> usize {
    let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

fn emit_length(w: &mut BitWriter, len: usize) {
    let idx = LENGTH_CODES
        .iter()
        .rposition(|&(base, _)| base as usize <= len)
        .expect("len >= 3");
    let (base, extra) = LENGTH_CODES[idx];
    let (code, bits) = fixed_lit_code(257 + idx as u16);
    w.put_code(code, bits);
    if extra > 0 {
        w.put((len - base as usize) as u32, extra);
    }
}

fn emit_distance(w: &mut BitWriter, dist: usize) {
    let idx = DIST_CODES
        .iter()
        .rposition(|&(base, _)| base as usize <= dist)
        .expect("dist >= 1");
    let (base, extra) = DIST_CODES[idx];
    // Fixed distance codes are plain 5-bit numbers.
    w.put_code(idx as u32, 5);
    if extra > 0 {
        w.put((dist - base as usize) as u32, extra);
    }
}

/// DEFLATE `data` as a single final fixed-Huffman block.
fn deflate_fixed(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.put(1, 1); // BFINAL
    w.put(1, 2); // BTYPE = fixed Huffman

    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; data.len().max(1)];
    let mut i = 0;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash3(data, i);
            let mut cand = head[h];
            let limit = i.saturating_sub(WINDOW);
            let max_len = MAX_MATCH.min(data.len() - i);
            let mut chain = 0;
            while cand != usize::MAX && cand >= limit && chain < MAX_CHAIN {
                let mut l = 0;
                while l < max_len && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l >= max_len {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
            prev[i] = head[h];
            head[h] = i;
        }
        if best_len >= MIN_MATCH {
            emit_length(&mut w, best_len);
            emit_distance(&mut w, best_dist);
            // Insert hash entries for the matched span so later matches
            // can reference into it.
            let end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
            for (j, slot) in prev.iter_mut().enumerate().take(end).skip(i + 1) {
                let h = hash3(data, j);
                *slot = head[h];
                head[h] = j;
            }
            i += best_len;
        } else {
            let (code, bits) = fixed_lit_code(data[i] as u16);
            w.put_code(code, bits);
            i += 1;
        }
    }
    let (code, bits) = fixed_lit_code(256); // end of block
    w.put_code(code, bits);
    w.finish()
}

/// Compress `data` into a gzip member (header + DEFLATE + CRC32/ISIZE
/// trailer).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let deflated = deflate_fixed(data);
    let mut out = Vec::with_capacity(deflated.len() + 18);
    // Header: magic, CM=deflate, no flags, no mtime, XFL=0, OS=unknown.
    out.extend_from_slice(&[0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 0xFF]);
    out.extend_from_slice(&deflated);
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

// ---- Inflate (stored + fixed + dynamic blocks) ----

struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u32,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> BitReader<'a> {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn bits(&mut self, n: u32) -> Result<u32, GzipError> {
        while self.nbits < n {
            let b = *self
                .data
                .get(self.pos)
                .ok_or(GzipError::Corrupt("truncated deflate stream"))?;
            self.acc |= (b as u32) << self.nbits;
            self.nbits += 8;
            self.pos += 1;
        }
        let v = self.acc & ((1u32 << n) - 1);
        self.acc >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Discard partial-byte state (stored-block alignment).
    fn align(&mut self) {
        self.acc = 0;
        self.nbits = 0;
    }
}

/// Canonical Huffman decoder built from code lengths (the classic
/// count/offset walk from RFC 1951 §3.2.2).
struct Huffman {
    counts: [u16; 16],
    symbols: Vec<u16>,
}

impl Huffman {
    fn new(lengths: &[u8]) -> Result<Huffman, GzipError> {
        let mut counts = [0u16; 16];
        for &l in lengths {
            counts[l as usize] += 1;
        }
        counts[0] = 0;
        // Over-subscribed code sets are invalid.
        let mut left = 1i32;
        for &count in &counts[1..] {
            left <<= 1;
            left -= count as i32;
            if left < 0 {
                return Err(GzipError::Corrupt("over-subscribed huffman code"));
            }
        }
        let mut offsets = [0u16; 16];
        for len in 1..15 {
            offsets[len + 1] = offsets[len] + counts[len];
        }
        let mut symbols = vec![0u16; lengths.len()];
        for (sym, &l) in lengths.iter().enumerate() {
            if l != 0 {
                symbols[offsets[l as usize] as usize] = sym as u16;
                offsets[l as usize] += 1;
            }
        }
        Ok(Huffman { counts, symbols })
    }

    fn decode(&self, r: &mut BitReader) -> Result<u16, GzipError> {
        let mut code = 0i32;
        let mut first = 0i32;
        let mut index = 0i32;
        for len in 1..16 {
            code |= r.bits(1)? as i32;
            let count = self.counts[len] as i32;
            if code - first < count {
                return Ok(self.symbols[(index + (code - first)) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(GzipError::Corrupt("invalid huffman code"))
    }
}

fn fixed_literal_huffman() -> Result<Huffman, GzipError> {
    let mut lengths = [0u8; 288];
    for (i, l) in lengths.iter_mut().enumerate() {
        *l = match i {
            0..=143 => 8,
            144..=255 => 9,
            256..=279 => 7,
            _ => 8,
        };
    }
    Huffman::new(&lengths)
}

fn inflate_block(
    r: &mut BitReader,
    out: &mut Vec<u8>,
    lit: &Huffman,
    dist: &Huffman,
    max_size: usize,
) -> Result<(), GzipError> {
    loop {
        let sym = lit.decode(r)?;
        match sym {
            0..=255 => {
                if out.len() >= max_size {
                    return Err(GzipError::TooLarge { limit: max_size });
                }
                out.push(sym as u8);
            }
            256 => return Ok(()),
            257..=285 => {
                let (base, extra) = LENGTH_CODES[sym as usize - 257];
                let len = base as usize + r.bits(extra)? as usize;
                let dsym = dist.decode(r)? as usize;
                if dsym >= DIST_CODES.len() {
                    return Err(GzipError::Corrupt("invalid distance code"));
                }
                let (dbase, dextra) = DIST_CODES[dsym];
                let d = dbase as usize + r.bits(dextra)? as usize;
                if d == 0 || d > out.len() {
                    return Err(GzipError::Corrupt("distance before stream start"));
                }
                if out.len() + len > max_size {
                    return Err(GzipError::TooLarge { limit: max_size });
                }
                let start = out.len() - d;
                // Byte-by-byte: overlapping copies (d < len) are the
                // RLE idiom and must see freshly-written bytes.
                for j in 0..len {
                    let b = out[start + j];
                    out.push(b);
                }
            }
            _ => return Err(GzipError::Corrupt("invalid literal/length symbol")),
        }
    }
}

/// Read the dynamic-block code-length preamble (RFC 1951 §3.2.7).
fn dynamic_huffmans(r: &mut BitReader) -> Result<(Huffman, Huffman), GzipError> {
    const ORDER: [usize; 19] = [
        16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
    ];
    let hlit = r.bits(5)? as usize + 257;
    let hdist = r.bits(5)? as usize + 1;
    let hclen = r.bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(GzipError::Corrupt("bad dynamic header counts"));
    }
    let mut cl_lengths = [0u8; 19];
    for &idx in ORDER.iter().take(hclen) {
        cl_lengths[idx] = r.bits(3)? as u8;
    }
    let cl = Huffman::new(&cl_lengths)?;
    let mut lengths = vec![0u8; hlit + hdist];
    let mut i = 0;
    while i < lengths.len() {
        let sym = cl.decode(r)?;
        match sym {
            0..=15 => {
                lengths[i] = sym as u8;
                i += 1;
            }
            16 => {
                if i == 0 {
                    return Err(GzipError::Corrupt("repeat with no previous length"));
                }
                let prev = lengths[i - 1];
                let rep = 3 + r.bits(2)? as usize;
                for _ in 0..rep {
                    if i >= lengths.len() {
                        return Err(GzipError::Corrupt("length repeat overflows"));
                    }
                    lengths[i] = prev;
                    i += 1;
                }
            }
            17 | 18 => {
                let rep = if sym == 17 {
                    3 + r.bits(3)? as usize
                } else {
                    11 + r.bits(7)? as usize
                };
                if i + rep > lengths.len() {
                    return Err(GzipError::Corrupt("length repeat overflows"));
                }
                i += rep; // already zero
            }
            _ => return Err(GzipError::Corrupt("invalid code-length symbol")),
        }
    }
    let lit = Huffman::new(&lengths[..hlit])?;
    let dist = Huffman::new(&lengths[hlit..])?;
    Ok((lit, dist))
}

fn inflate(data: &[u8], max_size: usize) -> Result<Vec<u8>, GzipError> {
    let mut r = BitReader::new(data);
    let mut out = Vec::new();
    loop {
        let bfinal = r.bits(1)?;
        match r.bits(2)? {
            0 => {
                // Stored block: LEN/NLEN after byte alignment.
                r.align();
                let pos = r.pos;
                if pos + 4 > data.len() {
                    return Err(GzipError::Corrupt("truncated stored header"));
                }
                let len = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
                let nlen = u16::from_le_bytes([data[pos + 2], data[pos + 3]]);
                if nlen != !(len as u16) {
                    return Err(GzipError::Corrupt("stored LEN/NLEN mismatch"));
                }
                let start = pos + 4;
                if start + len > data.len() {
                    return Err(GzipError::Corrupt("truncated stored block"));
                }
                if out.len() + len > max_size {
                    return Err(GzipError::TooLarge { limit: max_size });
                }
                out.extend_from_slice(&data[start..start + len]);
                r.pos = start + len;
            }
            1 => {
                let lit = fixed_literal_huffman()?;
                let dist = Huffman::new(&[5u8; 30])?;
                inflate_block(&mut r, &mut out, &lit, &dist, max_size)?;
            }
            2 => {
                let (lit, dist) = dynamic_huffmans(&mut r)?;
                inflate_block(&mut r, &mut out, &lit, &dist, max_size)?;
            }
            _ => return Err(GzipError::Corrupt("reserved block type")),
        }
        if bfinal == 1 {
            return Ok(out);
        }
    }
}

/// Decompress a gzip member, verifying the CRC32/ISIZE trailer. Output
/// larger than `max_size` is refused (the decompression-bomb guard —
/// callers pass their wire body cap).
pub fn decompress(data: &[u8], max_size: usize) -> Result<Vec<u8>, GzipError> {
    if data.len() < 18 {
        return Err(GzipError::Corrupt("shorter than the minimal gzip member"));
    }
    if data[0] != 0x1F || data[1] != 0x8B {
        return Err(GzipError::Corrupt("bad magic"));
    }
    if data[2] != 8 {
        return Err(GzipError::Corrupt("unknown compression method"));
    }
    let flg = data[3];
    let mut pos = 10;
    if flg & 0x04 != 0 {
        // FEXTRA
        if pos + 2 > data.len() {
            return Err(GzipError::Corrupt("truncated FEXTRA"));
        }
        let xlen = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2 + xlen;
    }
    for flag in [0x08, 0x10] {
        // FNAME, FCOMMENT: zero-terminated strings.
        if flg & flag != 0 {
            match data[pos.min(data.len())..].iter().position(|&b| b == 0) {
                Some(i) => pos += i + 1,
                None => return Err(GzipError::Corrupt("unterminated header string")),
            }
        }
    }
    if flg & 0x02 != 0 {
        pos += 2; // FHCRC
    }
    if pos + 8 > data.len() {
        return Err(GzipError::Corrupt("truncated header"));
    }
    let body = &data[pos..data.len() - 8];
    let out = inflate(body, max_size)?;
    let trailer = &data[data.len() - 8..];
    let want_crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let want_len = u32::from_le_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);
    if want_len != out.len() as u32 || want_crc != crc32(&out) {
        return Err(GzipError::ChecksumMismatch);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: usize = 64 * 1024 * 1024;

    fn roundtrip(data: &[u8]) {
        let z = compress(data);
        let back = decompress(&z, CAP).unwrap();
        assert_eq!(back, data, "roundtrip failed for {} bytes", data.len());
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn roundtrip_edge_cases() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(&[0u8; 100_000]); // maximal RLE
        let text = "the quick brown fox jumps over the lazy dog. ".repeat(2000);
        roundtrip(text.as_bytes());
    }

    #[test]
    fn roundtrip_binary_noise() {
        // Deterministic pseudo-random bytes: incompressible path.
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..200_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn text_compresses() {
        let text = "<result><energy>-75.913</energy><basis>6-31G*</basis></result>\n".repeat(4096);
        let z = compress(text.as_bytes());
        assert!(
            z.len() * 4 < text.len(),
            "only {} -> {} bytes",
            text.len(),
            z.len()
        );
    }

    #[test]
    fn corruption_is_detected() {
        let data = b"payload payload payload payload";
        let z = compress(data);
        for i in 0..z.len() {
            if (3..10).contains(&i) {
                // FLG/MTIME/XFL/OS header bytes are metadata no checksum
                // covers; corruption there cannot change the payload.
                continue;
            }
            let mut bad = z.clone();
            bad[i] ^= 0x5A;
            // Whatever the failure mode (parse error or checksum), a
            // flipped byte must never yield a silently *wrong* answer.
            // (Padding bits after the final block are legitimately
            // don't-care, so an identical correct decode is allowed.)
            if let Ok(out) = decompress(&bad, CAP) {
                assert_eq!(
                    out, data,
                    "byte {i} corrupted but decode succeeded with wrong data"
                );
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let z = compress("resumable upload data ".repeat(100).as_bytes());
        for cut in [0, 5, z.len() / 2, z.len() - 1] {
            assert!(decompress(&z[..cut], CAP).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn output_cap_is_enforced() {
        let z = compress(&vec![7u8; 100_000]);
        match decompress(&z, 1024) {
            Err(GzipError::TooLarge { limit }) => assert_eq!(limit, 1024),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decodes_foreign_fixed_block_streams() {
        // zlib level-9 output for b"hello hello hello hello" (raw
        // deflate wrapped in a minimal gzip header): a BTYPE=1 stream
        // produced by a different compressor than ours.
        let foreign: &[u8] = &[
            0x1F, 0x8B, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0xFF, 0xCB, 0x48, 0xCD, 0xC9,
            0xC9, 0x57, 0xC8, 0x40, 0x27, 0x01, 0xE3, 0x51, 0x3D, 0x8D, 0x17, 0x00, 0x00, 0x00,
        ];
        let out = decompress(foreign, CAP).unwrap();
        assert_eq!(out, b"hello hello hello hello");
    }

    #[test]
    fn decodes_foreign_dynamic_block_streams() {
        // zlib level-9 output for 2778 bytes of mixed chemistry words —
        // big and varied enough that zlib chose a dynamic-Huffman
        // (BTYPE=2) block, the shape our compressor never emits. The
        // embedded CRC32/ISIZE trailer double-checks the decode.
        let foreign: &[u8] = &[
            0x1F, 0x8B, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0xFF, 0x85, 0x56, 0x5B, 0x8E,
            0xC2, 0x30, 0x0C, 0xBC, 0x4A, 0xCF, 0xC0, 0x8D, 0x0A, 0x9B, 0x85, 0x4A, 0xDB, 0x76,
            0xD5, 0x56, 0x42, 0xEC, 0xE9, 0x51, 0xA8, 0xE3, 0x78, 0xC6, 0xB6, 0xF6, 0x03, 0x68,
            0x13, 0xC7, 0x8F, 0xF1, 0x8C, 0xC3, 0xF2, 0xBC, 0x3D, 0xCA, 0x3C, 0xDC, 0xCB, 0x3A,
            0x97, 0x63, 0x7B, 0x0D, 0xCF, 0xF1, 0x28, 0xDB, 0x50, 0x96, 0xB2, 0xDD, 0x5F, 0xC3,
            0x75, 0xDC, 0xA7, 0x7D, 0x78, 0x5C, 0x56, 0x79, 0x5A, 0xC4, 0x78, 0x1B, 0xBF, 0xA6,
            0xB2, 0x1C, 0xCD, 0xAC, 0x1A, 0xAC, 0xBF, 0xC7, 0x34, 0x4F, 0x7F, 0x05, 0x8F, 0x9E,
            0xDE, 0xCE, 0xEF, 0x73, 0x45, 0xED, 0xBA, 0x6F, 0x08, 0xA9, 0xBE, 0xC9, 0x9C, 0x63,
            0xEA, 0xBB, 0x3E, 0x80, 0x1B, 0x4E, 0xA7, 0xC6, 0xD1, 0x1A, 0xF7, 0xDB, 0xB7, 0x58,
            0xEB, 0x52, 0xAF, 0x51, 0xFD, 0x55, 0x2B, 0x38, 0x46, 0xFB, 0xFA, 0xA0, 0xB1, 0x04,
            0x1E, 0x46, 0x2D, 0x4D, 0x5D, 0x0F, 0xAE, 0xDB, 0x75, 0x3A, 0xC6, 0x1F, 0x83, 0x86,
            0xB8, 0x6A, 0x1B, 0xFD, 0x88, 0x2C, 0xC8, 0x7E, 0xCD, 0xB1, 0x43, 0xD4, 0x12, 0x25,
            0x8C, 0x5D, 0x45, 0xE4, 0xA4, 0xBD, 0xD6, 0x6D, 0x82, 0x9F, 0x9B, 0xA4, 0x21, 0x16,
            0xA2, 0x4D, 0xF3, 0x91, 0xD0, 0x47, 0xDD, 0xCA, 0x39, 0xFC, 0x71, 0xD5, 0xB9, 0x05,
            0x9B, 0xCD, 0xA7, 0x66, 0x58, 0x97, 0x70, 0x90, 0xBF, 0x2D, 0x0A, 0x20, 0x6D, 0x04,
            0x41, 0x0C, 0xB4, 0x10, 0xE6, 0x9F, 0x98, 0x31, 0xAD, 0x3E, 0xB1, 0x1C, 0xDE, 0x96,
            0xEE, 0x98, 0x62, 0x02, 0x54, 0xC5, 0x06, 0x5C, 0xE1, 0x32, 0x24, 0x2E, 0x6E, 0x5D,
            0xB7, 0x29, 0x80, 0xCF, 0x8A, 0xB5, 0xE0, 0x50, 0x06, 0x61, 0xD4, 0x4F, 0x23, 0xAA,
            0xCF, 0x8A, 0x3B, 0xC6, 0x8D, 0x05, 0x41, 0x31, 0xF1, 0x3D, 0xCD, 0xFD, 0x37, 0xC2,
            0x1E, 0x6B, 0x9A, 0x46, 0x83, 0xD6, 0x83, 0x88, 0x24, 0xC3, 0x0A, 0x28, 0xE3, 0x21,
            0xF8, 0x77, 0xD8, 0x65, 0x73, 0x89, 0x04, 0x52, 0x61, 0x64, 0x0F, 0xA4, 0x37, 0x4B,
            0xEA, 0xB6, 0x96, 0xFD, 0x56, 0x77, 0xD4, 0x68, 0xC8, 0xD2, 0x8A, 0x02, 0x6A, 0x61,
            0xEC, 0x6C, 0x13, 0x03, 0xBB, 0xC6, 0xBC, 0x2E, 0xB5, 0xE8, 0x40, 0x2B, 0xC4, 0x3A,
            0x6D, 0x1F, 0xDE, 0x0B, 0xA6, 0x1D, 0xCA, 0xC5, 0xAF, 0x07, 0x33, 0x4A, 0xD2, 0x33,
            0x4A, 0xB7, 0xC8, 0xF8, 0x60, 0x04, 0x35, 0xCE, 0x9B, 0xF0, 0x26, 0x72, 0x74, 0xE2,
            0xB1, 0xEE, 0xF9, 0xE6, 0x44, 0x10, 0xCF, 0x16, 0xDB, 0x67, 0x2E, 0x99, 0x5B, 0x06,
            0x8A, 0x87, 0x23, 0xA0, 0x88, 0x4C, 0xF3, 0xFA, 0xC0, 0x0A, 0xF6, 0x23, 0xD6, 0xED,
            0x64, 0x77, 0x0C, 0xD0, 0x04, 0x2E, 0x44, 0x6C, 0x8A, 0x99, 0xF6, 0x58, 0x4D, 0x3A,
            0x88, 0xA0, 0x75, 0x7A, 0x39, 0x65, 0xBD, 0x6C, 0x06, 0x24, 0x34, 0xF1, 0x95, 0x5D,
            0x98, 0xFD, 0x04, 0x64, 0xE6, 0x5E, 0xAC, 0x56, 0x52, 0x88, 0x1C, 0xAA, 0x7E, 0xE8,
            0x72, 0xFC, 0x8E, 0x0A, 0x26, 0x6A, 0x25, 0x83, 0x03, 0x21, 0x52, 0x2D, 0xA0, 0xE4,
            0xF0, 0xB6, 0x73, 0x15, 0xA7, 0x14, 0x75, 0xD2, 0x82, 0x02, 0x2F, 0xE0, 0xDF, 0xBA,
            0x63, 0xF7, 0xA0, 0x51, 0xD7, 0xB2, 0x84, 0xCE, 0x11, 0x8F, 0x63, 0x29, 0x86, 0xFF,
            0x14, 0x83, 0xD9, 0xC7, 0xD4, 0xC4, 0xEB, 0xF8, 0x0C, 0xF1, 0x06, 0x0F, 0x06, 0x76,
            0xDD, 0xDA, 0x0A, 0x00, 0x00,
        ];
        // BTYPE of the first deflate block really is 2 (dynamic).
        assert_eq!((foreign[10] >> 1) & 3, 2);
        let out = decompress(foreign, CAP).unwrap();
        assert_eq!(out.len(), 2778);
        assert!(out.starts_with(b"nwchem geometry water energy basis"));
        assert!(out.ends_with(b"geometry scf geometry orbital"));
        // And our own coder agrees byte-for-byte on the content.
        let back = decompress(&compress(&out), CAP).unwrap();
        assert_eq!(back, out);
    }

    #[test]
    fn header_magic_and_method_checked() {
        assert!(matches!(
            decompress(&[0u8; 32], CAP),
            Err(GzipError::Corrupt(_))
        ));
        let mut z = compress(b"x");
        z[2] = 9; // unknown CM
        assert!(matches!(decompress(&z, CAP), Err(GzipError::Corrupt(_))));
    }
}
