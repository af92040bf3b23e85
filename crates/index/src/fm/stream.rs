//! The `RPFM` stream: [`FmIndex`] on disk, inside the CLI's prebuilt
//! index and `--index-cache` files.
//!
//! ```text
//! "RPFM" | u16 version = 2 | u32 sa_sample
//!        | u64 text_len | u64 rows | u64 sentinel_row | u64 samples
//! rows.div_ceil(32) x u64   BWT, 2 bits a row, sentinel and padding as A
//! rows.div_ceil(64) x u64   bit r set iff row r carries an SA sample
//! samples x u32             text positions of the marked rows, in row order
//! u64                       standard FNV-1a 64 of every byte above
//! ```
//!
//! All little-endian, read through `repute_genome::wire`. Rank counts
//! are not stored: they are recomputed from the symbols on load, never
//! trusted from a file. A load reads the payload in bounded pieces
//! straight into the index's arrays — the BWT words into their rank
//! blocks — checksumming the same bytes as they pass, so nothing is held
//! twice and nothing is sized from the header before its bytes arrive.

use std::io::{Error, ErrorKind, Read, Write};

use repute_genome::wire::{
    le_u32s, le_u64s, put_u32, put_u64, read_pieces, read_run, reserve_within, Fnv64, Reader,
};

use super::{block_count, Block, FmIndex, BLOCK_ROWS, WORD_ROWS};
use crate::bitvec::RankBitVec;

/// Version of the stream [`FmIndex::write_to`] writes.
const STREAM_VERSION: u16 = 2;
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
    pub fn write_to<W: Write>(&self, mut out: W) -> std::io::Result<()> {
        let n_rows = self.text_len + 1;
        let symbols = self.blocks.iter().flat_map(|b| b.words);
        let mut bytes = Vec::with_capacity(HEADER_LEN + n_rows / 2 + self.sa_samples.len() * 4);
        bytes.extend_from_slice(b"RPFM");
        bytes.extend_from_slice(&STREAM_VERSION.to_le_bytes());
        put_u32(&mut bytes, self.sa_sample as u32);
        let sentinel_row = self.sentinel_row as usize;
        for field in [self.text_len, n_rows, sentinel_row, self.sa_samples.len()] {
            put_u64(&mut bytes, field as u64);
        }
        bytes.extend(
            symbols
                .take(n_rows.div_ceil(WORD_ROWS))
                .flat_map(u64::to_le_bytes),
        );
        bytes.extend(
            self.sampled_rows
                .words()
                .iter()
                .flat_map(|w| w.to_le_bytes()),
        );
        bytes.extend(self.sa_samples.iter().flat_map(|p| p.to_le_bytes()));
        let mut trailer = Fnv64::standard();
        trailer.write(&bytes);
        put_u64(&mut bytes, trailer.finish());
        out.write_all(&bytes)
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

    fn read_stream<R: Read>(mut input: R, known_len: Option<usize>) -> std::io::Result<FmIndex> {
        fn bad(msg: impl Into<String>) -> Error {
            Error::new(ErrorKind::InvalidData, msg.into())
        }
        let mut trailer = Fnv64::standard();
        let head = read_run(&mut input, HEADER_LEN as u64)?;
        trailer.write(&head);
        let mut r = Reader::new(&head);
        if r.bytes(4)? != b"RPFM" {
            return Err(bad("not an FM-Index stream (bad magic)"));
        }
        let version = r.u16()?;
        if version != STREAM_VERSION {
            return Err(bad(format!(
                "FM-Index stream version {version} is not supported (this build reads \
                 version {STREAM_VERSION}); rebuild the index with `repute index`"
            )));
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
            trailer.write(piece);
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
            trailer.write(piece);
            reserve_within(&mut marks, piece.len() / 8, mark_words);
            marks.extend(le_u64s(piece));
        })?;
        let mut sa_samples = Vec::new();
        read_pieces(&mut input, 4 * sample_count as u64, |piece| {
            trailer.write(piece);
            reserve_within(&mut sa_samples, piece.len() / 4, sample_count);
            sa_samples.extend(le_u32s(piece));
        })?;
        if Reader::new(&read_run(&mut input, 8)?).u64()? != trailer.finish() {
            return Err(bad("FM-Index stream checksum mismatch"));
        }
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
        if marked != sample_count as u64 || sa_samples.iter().any(|&p| p as usize >= n_rows - 1) {
            return Err(bad("SA samples do not match the sampled rows or the text"));
        }
        Ok(FmIndex::from_parts(
            n_rows - 1,
            sentinel_row as u32,
            blocks,
            RankBitVec::from_words(marks, n_rows),
            sa_samples,
            sa_sample,
        ))
    }
}
