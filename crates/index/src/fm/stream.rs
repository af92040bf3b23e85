//! The `RPFM` stream: [`FmIndex`] on disk, inside the CLI's prebuilt
//! index and `--index-cache` files.
//!
//! ```text
//! "RPFM" | u16 version = 3 | u32 sa_sample
//!        | u64 text_len | u64 rows | u64 sentinel_row | u64 samples
//! rows.div_ceil(32) x u64   BWT, 2 bits a row, sentinel and padding as A
//! rows.div_ceil(64) x u64   bit r set iff row r carries an SA sample
//! samples x u32             text positions of the marked rows, in row order
//! u64                       wire::WordHash of every byte above
//! ```
//!
//! All little-endian, read through `repute_genome::wire`. Version 3 is
//! version 2's payload under a word-parallel trailer instead of
//! byte-serial FNV-1a (which cost half a load). Rank counts are not
//! stored: they are recomputed from the symbols on load, never trusted
//! from a file. A load reads the payload in bounded pieces straight into
//! the index's arrays — the BWT words into their rank blocks — through a
//! [`Hashed`] reader that checksums the same bytes as they pass, so
//! nothing is held twice and nothing is sized from the header before its
//! bytes arrive. A write streams the arrays out in pieces the same way.
//!
//! In memory the samples are packed quotients (positions divided by
//! `sa_sample`, a few bits each); on disk they stay `u32` positions, so
//! the format is unchanged. A write expands each field back, and a load
//! packs each piece as it arrives, refusing any sample that is not a
//! multiple of the rate or not inside the text.

use std::io::{Error, ErrorKind, Read, Write};

use repute_genome::wire::{
    le_u32s, le_u64s, put_u32, put_u64, read_pieces, read_run, reserve_within, stale_index,
    write_pieces, Hashed, Reader,
};

use super::{block_count, sample_width, Block, FmIndex, PackedFields, BLOCK_ROWS, WORD_ROWS};
use crate::bitvec::RankBitVec;

/// Version of the stream [`FmIndex::write_to`] writes.
const STREAM_VERSION: u16 = 3;
/// Bytes before the BWT words.
const HEADER_LEN: usize = 42;
/// BWT words in one rank block.
const BLOCK_WORDS: usize = BLOCK_ROWS / WORD_ROWS;

impl FmIndex {
    /// Serialises the index to a binary stream (the `repute` CLI's
    /// prebuilt-index format).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out` (a `&mut` writer is accepted).
    pub fn write_to<W: Write>(&self, out: W) -> std::io::Result<()> {
        let n_rows = self.text_len + 1;
        let mut out = Hashed::new(out);
        let mut head = Vec::with_capacity(HEADER_LEN);
        head.extend_from_slice(b"RPFM");
        head.extend_from_slice(&STREAM_VERSION.to_le_bytes());
        put_u32(&mut head, self.sa_sample as u32);
        let sentinel_row = self.sentinel_row as usize;
        for field in [self.text_len, n_rows, sentinel_row, self.sa_samples.len()] {
            put_u64(&mut head, field as u64);
        }
        out.write_all(&head)?;
        let symbols = self.blocks.iter().flat_map(|b| b.words);
        write_pieces(
            &mut out,
            symbols
                .take(n_rows.div_ceil(WORD_ROWS))
                .map(u64::to_le_bytes),
        )?;
        write_pieces(
            &mut out,
            self.sampled_rows.words().iter().map(|w| w.to_le_bytes()),
        )?;
        let positions = self
            .sa_samples
            .iter()
            .map(|quotient| ((quotient as usize * self.sa_sample) as u32).to_le_bytes());
        write_pieces(&mut out, positions)?;
        out.put_trailer().map(drop)
    }

    /// Deserialises an index written by [`FmIndex::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidData`] on a bad magic,
    /// version, checksum or inconsistent payload, and propagates I/O
    /// errors from `input` (a `&mut` reader is accepted).
    pub fn read_from<R: Read>(input: R) -> std::io::Result<FmIndex> {
        FmIndex::read_stream(input, None)
    }

    /// [`FmIndex::read_from`] for the index of a text whose `text_len`
    /// bases were read already — the packed sequence an `RPIX` stream
    /// stores before its FM-Index. A stream over another length is
    /// refused before its payload is read. With the length known, the
    /// rank blocks are allocated once, at their final size (a third of a
    /// byte a base, beside the quarter byte a base that arrived): grown
    /// instead, the cache-line-aligned blocks would be copied at every
    /// step, and the freed copies would leave the allocator's heap
    /// holding a second BWT's worth of pages.
    ///
    /// # Errors
    ///
    /// As [`FmIndex::read_from`].
    pub fn read_for_text<R: Read>(input: R, text_len: usize) -> std::io::Result<FmIndex> {
        FmIndex::read_stream(input, Some(text_len))
    }

    fn read_stream<R: Read>(input: R, known_len: Option<usize>) -> std::io::Result<FmIndex> {
        fn bad(msg: impl Into<String>) -> Error {
            Error::new(ErrorKind::InvalidData, msg.into())
        }
        let mut input = Hashed::new(input);
        let head = read_run(&mut input, HEADER_LEN as u64)?;
        let mut r = Reader::new(&head);
        if r.bytes(4)? != b"RPFM" {
            return Err(bad("not an FM-Index stream (bad magic)"));
        }
        let version = r.u16()?;
        if version != STREAM_VERSION {
            return Err(stale_index("FM-Index stream", version, STREAM_VERSION));
        }
        let sa_sample = r.u32()? as usize;
        let [text_len, n_rows, sentinel_row, sample_count] =
            [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        if sa_sample == 0 {
            return Err(bad("zero sampling rate"));
        }
        if n_rows != text_len.wrapping_add(1) || n_rows > u64::from(u32::MAX) {
            return Err(bad(format!(
                "BWT length {n_rows} does not match text length {text_len}"
            )));
        }
        if sentinel_row >= n_rows {
            return Err(bad("BWT sentinel row out of range"));
        }
        if sample_count > n_rows {
            return Err(bad("more SA samples than BWT rows"));
        }
        let n_rows = n_rows as usize;
        let sample_count = sample_count as usize;
        // In pieces, straight into the final arrays, each growing only as
        // its bytes arrive; the BWT words go into their rank blocks.
        let symbol_words = n_rows.div_ceil(WORD_ROWS);
        let mark_words = n_rows.div_ceil(64);
        let blocks_needed = block_count(n_rows);
        let mut blocks: Vec<Block> = Vec::new();
        if let Some(len) = known_len {
            if len != n_rows - 1 {
                return Err(bad("FM-Index does not match the stored sequence"));
            }
            blocks.reserve_exact(blocks_needed);
        }
        let mut placed = 0usize;
        read_pieces(&mut input, 8 * symbol_words as u64, |piece| {
            let words = piece.len() / 8;
            let more = (placed + words).div_ceil(BLOCK_WORDS) - blocks.len();
            reserve_within(&mut blocks, more, blocks_needed);
            for word in le_u64s(piece) {
                if placed.is_multiple_of(BLOCK_WORDS) {
                    blocks.push(Block::EMPTY);
                }
                blocks[placed / BLOCK_WORDS].words[placed % BLOCK_WORDS] = word;
                placed += 1;
            }
        })?;
        let mut marks = Vec::new();
        read_pieces(&mut input, 8 * mark_words as u64, |piece| {
            reserve_within(&mut marks, piece.len() / 8, mark_words);
            marks.extend(le_u64s(piece));
        })?;
        // Checked and packed piece by piece as they arrive; a piece with
        // a sample outside the text or off the rate is packed masked to
        // the field width, nothing more is packed, and the stream is
        // refused once the trailer holds.
        let text_len = n_rows - 1;
        let width = sample_width(text_len, sa_sample);
        let mut sa_samples = PackedFields::with_capacity(width, 0);
        let mut stray = false;
        // `sa_sample` came from a `u32`.
        let (rate, end) = (ExactDivisor::new(sa_sample as u32), text_len as u32);
        let field = u32::MAX >> (32 - width);
        read_pieces(&mut input, 4 * sample_count as u64, |piece| {
            if stray {
                return;
            }
            sa_samples.reserve_within(piece.len() / 4, sample_count);
            let mut off = false;
            sa_samples.extend(le_u32s(piece).map(|p| {
                let q = rate.quotient(p);
                off |= (q > rate.max) | (p >= end);
                q & field
            }));
            stray = off;
        })?;
        input.check_trailer("FM-Index stream checksum mismatch")?;
        blocks.resize(blocks_needed, Block::EMPTY);

        // The sentinel and the padding after the last row are stored as A.
        let stored = |row: usize| {
            let block = &blocks[row / BLOCK_ROWS];
            let offset = row % BLOCK_ROWS;
            block.words[offset / WORD_ROWS] >> (2 * (offset % WORD_ROWS))
        };
        if stored(sentinel_row as usize) & 3 != 0
            || (!n_rows.is_multiple_of(WORD_ROWS) && stored(n_rows) != 0)
        {
            return Err(bad("BWT must contain exactly one sentinel, stored as A"));
        }
        if !n_rows.is_multiple_of(64) && marks[n_rows / 64] >> (n_rows % 64) != 0 {
            return Err(bad("sampled rows must be strictly increasing and in range"));
        }
        let marked: u64 = marks.iter().map(|w| u64::from(w.count_ones())).sum();
        if marked != sample_count as u64 || stray {
            return Err(bad(
                "SA samples do not match the sampled rows, the text or the sampling rate",
            ));
        }
        Ok(FmIndex::from_parts(
            text_len,
            sentinel_row as u32,
            blocks,
            RankBitVec::from_words(marks, n_rows),
            sa_samples,
            sa_sample,
        ))
    }
}

/// Exact division by a fixed rate: a multiply and a rotate a value,
/// where a hardware division a sample cost the 8 Mbp load about 1.2 ms.
///
/// With `rate = odd · 2^k`, `p ↦ (p · odd⁻¹ mod 2^32) rotated right by k`
/// is a bijection of `u32` that sends each multiple `q · rate` to `q`.
/// The multiples are the `max + 1` values with `q ≤ max = u32::MAX /
/// rate`, so they fill `0..=max` and every other value lands above it.
struct ExactDivisor {
    odd_inverse: u32,
    shift: u32,
    /// The largest quotient of a `u32` by the rate.
    max: u32,
}

impl ExactDivisor {
    /// The divisor for `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is 0.
    fn new(rate: u32) -> ExactDivisor {
        let shift = rate.trailing_zeros();
        let odd = rate >> shift;
        // `odd · odd ≡ 1 (mod 8)`; each Newton step doubles the bits
        // that are right: 3 → 6 → 12 → 24 → 48.
        let mut odd_inverse = odd;
        for _ in 0..4 {
            odd_inverse =
                odd_inverse.wrapping_mul(2u32.wrapping_sub(odd.wrapping_mul(odd_inverse)));
        }
        ExactDivisor {
            odd_inverse,
            shift,
            max: u32::MAX / rate,
        }
    }

    /// `p / rate` when `rate` divides `p`, otherwise a value above `max`.
    #[inline]
    fn quotient(&self, p: u32) -> u32 {
        p.wrapping_mul(self.odd_inverse).rotate_right(self.shift)
    }
}

#[cfg(test)]
mod tests {
    use super::ExactDivisor;

    #[test]
    fn exact_division_finds_every_multiple_and_only_those() {
        let rates = (1..=64).chain([96, 100, 1_000, 65_536, 3 << 20, u32::MAX - 1, u32::MAX]);
        for rate in rates {
            let div = ExactDivisor::new(rate);
            assert_eq!(div.max, u32::MAX / rate);
            // Either side of 0, of the rate and of the last multiple,
            // wrapping past both ends of `u32`, and a spread of the rest.
            let last = div.max * rate;
            let near = |m: u32| {
                (0..=2 * rate.min(40)).map(move |d| m.wrapping_sub(rate.min(40)).wrapping_add(d))
            };
            let probes = near(0)
                .chain(near(last))
                .chain(near(rate))
                .chain((0..2_000u32).map(|i| i.wrapping_mul(0x9E37_79B9)));
            for p in probes {
                let q = div.quotient(p);
                if p % rate == 0 {
                    assert_eq!(q, p / rate, "rate {rate} p {p}");
                } else {
                    assert!(q > div.max, "rate {rate} p {p} gave {q}");
                }
            }
        }
    }
}
