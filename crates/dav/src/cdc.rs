//! Content-defined chunking (Gear rolling hash) for client-side delta
//! sync.
//!
//! The paper's motivating workload re-PUTs multi-hundred-megabyte
//! trajectory files after small edits. Fixed-size blocks would shift
//! every boundary after a single insertion; Gear chunking cuts where the
//! *content* says to, so an edit disturbs only the chunks it touches and
//! [`crate::client::DavClient::put_delta`] can re-use everything else via
//! `X-Copy-From`.
//!
//! The chunker is the classic Gear construction: a 256-entry table of
//! pseudo-random 64-bit values, rolled as `h = (h << 1) + GEAR[byte]`,
//! with a boundary declared when the top `avg_bits` bits of `h` are all
//! zero. The shift gives the hash an effective 64-byte window, so
//! boundaries depend only on local content.

/// Chunking parameters. `avg_bits` sets the expected chunk size to
/// roughly `2^avg_bits` bytes; `min`/`max` clamp the extremes.
#[derive(Debug, Clone, Copy)]
pub struct ChunkParams {
    /// No boundary is declared before this many bytes.
    pub min: usize,
    /// A boundary is forced at this many bytes.
    pub max: usize,
    /// Number of leading hash bits that must be zero to cut.
    pub avg_bits: u32,
}

impl Default for ChunkParams {
    fn default() -> Self {
        // ~8 KiB average, bounded to [2 KiB, 64 KiB] — small enough that
        // a 1% edit of a 20 MB file dirties ~1% of chunks, large enough
        // that per-chunk request overhead stays negligible.
        ChunkParams {
            min: 2 * 1024,
            max: 64 * 1024,
            avg_bits: 13,
        }
    }
}

/// One content-defined chunk of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Byte offset of the chunk within the buffer.
    pub offset: usize,
    /// Chunk length in bytes.
    pub len: usize,
    /// FNV-1a hash of the chunk bytes (used as a match key; callers must
    /// still byte-compare to rule out collisions).
    pub hash: u64,
}

/// The 256-entry Gear table, generated deterministically with
/// splitmix64 so chunk boundaries are stable across runs and builds.
fn gear_table() -> &'static [u64; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u64; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut t = [0u64; 256];
        for slot in t.iter_mut() {
            // splitmix64 step
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *slot = z ^ (z >> 31);
        }
        t
    })
}

/// Split `data` into content-defined chunks. Every byte belongs to
/// exactly one chunk; chunks are returned in order.
pub fn chunk(data: &[u8], params: ChunkParams) -> Vec<Chunk> {
    let table = gear_table();
    let mask: u64 = if params.avg_bits >= 64 {
        u64::MAX
    } else {
        !0u64 << (64 - params.avg_bits)
    };
    let mut chunks = Vec::new();
    let mut start = 0usize;
    while start < data.len() {
        let mut h: u64 = 0;
        let hard_end = (start + params.max).min(data.len());
        let mut end = hard_end;
        for (i, &b) in data[start..hard_end].iter().enumerate() {
            h = (h << 1).wrapping_add(table[b as usize]);
            if i + 1 >= params.min && h & mask == 0 {
                end = start + i + 1;
                break;
            }
        }
        chunks.push(Chunk {
            offset: start,
            len: end - start,
            hash: pse_cache::fnv1a_64(&data[start..end]),
        });
        start = end;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn chunks_tile_the_input_exactly() {
        let data = pseudo_random(300_000, 7);
        let params = ChunkParams::default();
        let chunks = chunk(&data, params);
        let mut pos = 0;
        for c in &chunks {
            assert_eq!(c.offset, pos);
            assert!(c.len >= 1);
            assert!(c.len <= params.max);
            pos += c.len;
        }
        assert_eq!(pos, data.len());
        // Average should land in the same decade as 2^13.
        let avg = data.len() / chunks.len();
        assert!((1_000..64_000).contains(&avg), "average chunk {avg}");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(chunk(&[], ChunkParams::default()).is_empty());
        let one = chunk(b"x", ChunkParams::default());
        assert_eq!(one.len(), 1);
        assert_eq!((one[0].offset, one[0].len), (0, 1));
    }

    #[test]
    fn local_edit_disturbs_few_chunks() {
        let base = pseudo_random(500_000, 42);
        let mut edited = base.clone();
        // Overwrite 1% of the file in the middle (no size change).
        let at = 250_000;
        let patch = pseudo_random(5_000, 99);
        edited[at..at + patch.len()].copy_from_slice(&patch);

        let params = ChunkParams::default();
        let old: std::collections::HashSet<u64> =
            chunk(&base, params).iter().map(|c| c.hash).collect();
        let new_chunks = chunk(&edited, params);
        let changed: usize = new_chunks
            .iter()
            .filter(|c| !old.contains(&c.hash))
            .map(|c| c.len)
            .sum();
        // The edit is 1% of the file; changed chunks should stay well
        // under 10% (boundary resync costs at most a couple of chunks).
        assert!(
            changed < edited.len() / 10,
            "changed {changed} of {} bytes",
            edited.len()
        );
    }

    #[test]
    fn insertion_resynchronises_boundaries() {
        let base = pseudo_random(400_000, 3);
        let mut edited = Vec::with_capacity(base.len() + 64);
        edited.extend_from_slice(&base[..100_000]);
        edited.extend_from_slice(b"INSERTED-SEQUENCE-THAT-SHIFTS-EVERYTHING-AFTER-IT");
        edited.extend_from_slice(&base[100_000..]);

        let params = ChunkParams::default();
        let old: std::collections::HashSet<u64> =
            chunk(&base, params).iter().map(|c| c.hash).collect();
        let new_chunks = chunk(&edited, params);
        let reused: usize = new_chunks
            .iter()
            .filter(|c| old.contains(&c.hash))
            .map(|c| c.len)
            .sum();
        // With fixed-size blocks reuse after the insertion point would be
        // ~0; content-defined boundaries must recover most of the tail.
        assert!(
            reused > edited.len() * 8 / 10,
            "reused only {reused} of {} bytes",
            edited.len()
        );
    }

    #[test]
    fn chunking_is_deterministic() {
        let data = pseudo_random(100_000, 11);
        assert_eq!(
            chunk(&data, ChunkParams::default()),
            chunk(&data, ChunkParams::default())
        );
    }
}
