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
//! trusted from a file.

use std::io::{Error, ErrorKind, Read, Write};

use repute_genome::wire::{put_u32, put_u64, read_run, Fnv64, Reader};

use super::{FmIndex, WORD_ROWS};
use crate::bitvec::RankBitVec;

/// Version of the stream [`FmIndex::write_to`] writes.
const STREAM_VERSION: u16 = 2;
/// Bytes before the BWT words.
const HEADER_LEN: usize = 42;

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
    pub fn read_from<R: Read>(mut input: R) -> std::io::Result<FmIndex> {
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
        // Payload and trailer in one read, freed before the index is
        // laid out.
        let symbol_words = n_rows.div_ceil(WORD_ROWS);
        let mark_words = n_rows.div_ceil(64);
        let payload_len = 8 * (symbol_words + mark_words) + 4 * sample_count;
        let body = read_run(&mut input, payload_len as u64 + 8)?;
        trailer.write(&body[..payload_len]);
        let mut r = Reader::new(&body);
        let symbols = r.u64s(symbol_words)?;
        let marks = r.u64s(mark_words)?;
        let sa_samples = r.u32s(sample_count)?;
        if r.u64()? != trailer.finish() {
            return Err(bad("FM-Index stream checksum mismatch"));
        }
        drop(body);

        // The sentinel and the padding after the last row are stored as A.
        let stored = |row: usize| symbols[row / WORD_ROWS] >> (2 * (row % WORD_ROWS));
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
            &symbols,
            RankBitVec::from_words(marks, n_rows),
            sa_samples,
            sa_sample,
        ))
    }
}
