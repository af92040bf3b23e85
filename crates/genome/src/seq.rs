//! 2-bit packed DNA sequences.

use std::fmt;
use std::iter::FromIterator;
use std::ops::Range;
use std::str::FromStr;

use crate::alphabet::Base;
use crate::error::GenomeError;
use crate::wire::{le_u64s, read_pieces, read_run, reserve_within, write_pieces, Reader};

const BASES_PER_WORD: usize = 32;

/// A growable DNA sequence packed at 2 bits per base.
///
/// `DnaSeq` is the common currency of the whole mapper stack: references,
/// reads and seeds are all `DnaSeq` values or views into them. Packing
/// keeps an 8 Mbp synthetic chromosome at ~2 MiB, matching the paper's
/// concern for memory footprint on embedded devices.
///
/// # Example
///
/// ```
/// use repute_genome::{Base, DnaSeq};
///
/// # fn main() -> Result<(), repute_genome::GenomeError> {
/// let mut seq: DnaSeq = "ACGT".parse()?;
/// seq.push(Base::A);
/// assert_eq!(seq.to_string(), "ACGTA");
/// assert_eq!(seq.code(1), 1); // C
/// assert_eq!(seq.subseq(1..4).to_string(), "CGT");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct DnaSeq {
    words: Vec<u64>,
    len: usize,
}

impl DnaSeq {
    /// Creates an empty sequence.
    pub fn new() -> DnaSeq {
        DnaSeq::default()
    }

    /// Creates an empty sequence with room for `capacity` bases.
    pub fn with_capacity(capacity: usize) -> DnaSeq {
        DnaSeq {
            words: Vec::with_capacity(capacity.div_ceil(BASES_PER_WORD)),
            len: 0,
        }
    }

    /// Builds a sequence from raw 2-bit codes.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::InvalidBaseCode`] if any code exceeds 3.
    pub fn from_codes(codes: &[u8]) -> Result<DnaSeq, GenomeError> {
        let mut seq = DnaSeq::with_capacity(codes.len());
        for &code in codes {
            seq.push(Base::try_from_code(code)?);
        }
        Ok(seq)
    }

    /// Number of bases in the sequence.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the sequence contains no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a base.
    #[inline]
    pub fn push(&mut self, base: Base) {
        let (word, shift) = (self.len / BASES_PER_WORD, (self.len % BASES_PER_WORD) * 2);
        if word == self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= u64::from(base.code()) << shift;
        self.len += 1;
    }

    /// Returns the base at `index`, or `None` when out of bounds.
    #[inline]
    pub fn get(&self, index: usize) -> Option<Base> {
        (index < self.len).then(|| self.base(index))
    }

    /// Returns the base at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn base(&self, index: usize) -> Base {
        assert!(
            index < self.len,
            "base index {index} out of range {}",
            self.len
        );
        Base::from_code(self.code(index))
    }

    /// Returns the 2-bit code of the base at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn code(&self, index: usize) -> u8 {
        assert!(
            index < self.len,
            "code index {index} out of range {}",
            self.len
        );
        let (word, shift) = (index / BASES_PER_WORD, (index % BASES_PER_WORD) * 2);
        ((self.words[word] >> shift) & 0b11) as u8
    }

    /// Iterates over the bases.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            seq: self,
            index: 0,
        }
    }

    /// Unpacks the sequence into a vector of 2-bit codes.
    ///
    /// The flat `Vec<u8>` form is what the index and alignment kernels
    /// consume; it trades 4× memory for O(1) unchecked-free access.
    pub fn to_codes(&self) -> Vec<u8> {
        let mut codes = Vec::new();
        self.unpack_into(0..self.len, &mut codes);
        codes
    }

    /// Appends the 2-bit codes of the bases in `range` to `out`.
    ///
    /// From any start, the next 32 bases are read as one word (across a
    /// word edge where they straddle one) and go out eight at a time:
    /// their 16 bits spread into eight bytes by three shift-and-mask
    /// rounds. The last word's bases past the range are cut off again,
    /// so no base goes on its own.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or decreasing.
    pub fn unpack_into(&self, range: Range<usize>, out: &mut Vec<u8>) {
        self.spread_into(range, out, |codes| codes);
    }

    /// Appends the sequence's text (`A`, `C`, `G`, `T`) to `out`: the
    /// bytes [`Display`](fmt::Display) writes, eight bases a step as in
    /// [`DnaSeq::unpack_into`], each code turned into its letter by
    /// arithmetic on the whole eight-byte word.
    pub fn ascii_into(&self, out: &mut Vec<u8>) {
        self.spread_into(0..self.len, out, ascii_eight);
    }

    /// The loop of [`DnaSeq::unpack_into`], with `map` applied to each
    /// eight-byte group of codes before it goes out.
    fn spread_into(&self, range: Range<usize>, out: &mut Vec<u8>, map: impl Fn(u64) -> u64) {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "unpack range {range:?} out of bounds for length {}",
            self.len
        );
        let end = out.len() + range.len();
        out.reserve(range.len().next_multiple_of(BASES_PER_WORD));
        for start in range.step_by(BASES_PER_WORD) {
            let fields = self.word_from(start);
            let mut bytes = [0u8; BASES_PER_WORD];
            for (step, eight) in bytes.chunks_exact_mut(8).enumerate() {
                let codes = spread_eight((fields >> (16 * step)) as u16);
                eight.copy_from_slice(&map(codes).to_le_bytes());
            }
            out.extend_from_slice(&bytes);
        }
        out.truncate(end);
    }

    /// The 64 bits of the 32 bases from `index` on (those past the last
    /// word read as `A`).
    #[inline]
    fn word_from(&self, index: usize) -> u64 {
        let (word, shift) = (index / BASES_PER_WORD, (index % BASES_PER_WORD) * 2);
        let next = self.words.get(word + 1).map_or(0, |&w| u128::from(w) << 64);
        ((next | u128::from(self.words[word])) >> shift) as u64
    }

    /// The 2-bit codes of the whole sequence, in order, without
    /// unpacking it into memory.
    pub fn codes(&self) -> impl ExactSizeIterator<Item = u8> + '_ {
        (0..self.len).map(|i| {
            let (word, shift) = (i / BASES_PER_WORD, (i % BASES_PER_WORD) * 2);
            ((self.words[word] >> shift) & 0b11) as u8
        })
    }

    /// Copies the half-open range `range` into a new sequence.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or decreasing.
    pub fn subseq(&self, range: Range<usize>) -> DnaSeq {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "subseq range {range:?} out of bounds for length {}",
            self.len
        );
        let mut out = DnaSeq::with_capacity(range.len());
        for i in range {
            out.push(self.base(i));
        }
        out
    }

    /// Returns the reverse complement of the sequence.
    pub fn reverse_complement(&self) -> DnaSeq {
        let mut out = DnaSeq::with_capacity(self.len);
        for i in (0..self.len).rev() {
            out.push(self.base(i).complement());
        }
        out
    }

    /// Fraction of G/C bases, in `[0, 1]`; `0` for an empty sequence.
    pub fn gc_content(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let gc = self
            .iter()
            .filter(|b| matches!(b, Base::C | Base::G))
            .count();
        gc as f64 / self.len as f64
    }

    /// Writes the sequence in its packed 2-bit form (length header plus
    /// little-endian words) — the on-disk format of the `repute` CLI's
    /// prebuilt indexes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out` (a `&mut` writer is accepted).
    pub fn write_packed<W: std::io::Write>(&self, mut out: W) -> std::io::Result<()> {
        out.write_all(&(self.len as u64).to_le_bytes())?;
        write_pieces(out, self.words.iter().map(|w| w.to_le_bytes()))
    }

    /// Reads a sequence previously written by [`DnaSeq::write_packed`].
    ///
    /// # Errors
    ///
    /// Returns an error of kind [`std::io::ErrorKind::InvalidData`] when
    /// the stream is truncated or the header is implausible, and
    /// propagates I/O errors from `input` (a `&mut` reader is accepted).
    pub fn read_packed<R: std::io::Read>(mut input: R) -> std::io::Result<DnaSeq> {
        let len = Reader::new(&read_run(&mut input, 8)?).u64()?;
        if len > u64::from(u32::MAX) * 4 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("implausible packed sequence length {len}"),
            ));
        }
        // In pieces, straight into the words: the reference is never held
        // a second time as bytes, and the words grow as they arrive.
        let len = len as usize;
        let count = len.div_ceil(BASES_PER_WORD);
        let mut words = Vec::new();
        read_pieces(&mut input, 8 * count as u64, |piece| {
            reserve_within(&mut words, piece.len() / 8, count);
            words.extend(le_u64s(piece));
        })?;
        Ok(DnaSeq { words, len })
    }
}

/// Eight 2-bit fields (field `i` at bits `2i..2i + 2`) spread one to a
/// byte: field `i` lands at bits `8i..8i + 2`.
#[inline]
fn spread_eight(fields: u16) -> u64 {
    let x = u64::from(fields);
    let x = (x | x << 24) & 0x0000_00FF_0000_00FF;
    let x = (x | x << 12) & 0x000F_000F_000F_000F;
    (x | x << 6) & 0x0303_0303_0303_0303
}

/// Eight codes, one to a byte as [`spread_eight`] leaves them, turned
/// into their letters. With `lo` and `hi` a code's two bits, `A` 65,
/// `C` 67, `G` 71 and `T` 84 are `65 + 2·lo + 6·hi + 11·lo·hi`; no byte
/// exceeds 84, so none carries into the next.
#[inline]
fn ascii_eight(codes: u64) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let lo = codes & ONES;
    let hi = (codes >> 1) & ONES;
    ONES * u64::from(b'A') + 2 * lo + 6 * hi + 11 * (lo & hi)
}

/// The 2-bit code of each byte `A`, `C`, `G`, `T` in either case, and
/// [`NOT_A_BASE`] for every other byte.
const CODE_OF_BYTE: [u8; 256] = {
    let mut table = [NOT_A_BASE; 256];
    let mut code = 0;
    while code < 4 {
        let upper = b"ACGT"[code];
        table[upper as usize] = code as u8;
        table[upper.to_ascii_lowercase() as usize] = code as u8;
        code += 1;
    }
    table
};

/// [`CODE_OF_BYTE`]'s mark for a byte that is no base: any bit above
/// the two of a code.
const NOT_A_BASE: u8 = 4;

impl fmt::Debug for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 48;
        write!(f, "DnaSeq(len={}, \"", self.len)?;
        for i in 0..self.len.min(PREVIEW) {
            write!(f, "{}", self.base(i))?;
        }
        if self.len > PREVIEW {
            write!(f, "…")?;
        }
        write!(f, "\")")
    }
}

impl fmt::Display for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = Vec::new();
        self.ascii_into(&mut text);
        f.write_str(std::str::from_utf8(&text).expect("bases are ASCII letters"))
    }
}

impl FromStr for DnaSeq {
    type Err = GenomeError;

    /// Packs 32 bases per word: each byte is looked up in a 256-entry
    /// table and shifted into place, and a word whose bytes are all
    /// bases is pushed whole. On the first word holding any other byte,
    /// the error is [`Base::from_char`]'s for the first character it
    /// rejects.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bytes = s.as_bytes();
        let mut words = Vec::with_capacity(bytes.len().div_ceil(BASES_PER_WORD));
        for chunk in bytes.chunks(BASES_PER_WORD) {
            let (mut word, mut marks) = (0u64, 0u8);
            for (i, &byte) in chunk.iter().enumerate() {
                let code = CODE_OF_BYTE[usize::from(byte)];
                marks |= code;
                word |= u64::from(code & 0b11) << (2 * i);
            }
            if marks & NOT_A_BASE != 0 {
                let first_bad = s.chars().map(Base::from_char).find_map(Result::err);
                return Err(first_bad.expect("a byte that is no base is in no base's character"));
            }
            words.push(word);
        }
        Ok(DnaSeq {
            words,
            len: bytes.len(),
        })
    }
}

impl FromIterator<Base> for DnaSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> Self {
        let mut seq = DnaSeq::new();
        seq.extend(iter);
        seq
    }
}

impl Extend<Base> for DnaSeq {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

/// Iterator over the bases of a [`DnaSeq`], produced by [`DnaSeq::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    seq: &'a DnaSeq,
    index: usize,
}

impl Iterator for Iter<'_> {
    type Item = Base;

    fn next(&mut self) -> Option<Base> {
        let b = self.seq.get(self.index)?;
        self.index += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.seq.len - self.index;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a DnaSeq {
    type Item = Base;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_index_across_word_boundaries() {
        let mut seq = DnaSeq::new();
        let pattern = [Base::A, Base::C, Base::G, Base::T];
        for i in 0..133 {
            seq.push(pattern[i % 4]);
        }
        assert_eq!(seq.len(), 133);
        for i in 0..133 {
            assert_eq!(seq.base(i), pattern[i % 4], "mismatch at {i}");
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        let s = "ACGTTGCAACGTTGCAACGTTGCAACGTTGCAACG";
        let seq: DnaSeq = s.parse().unwrap();
        assert_eq!(seq.to_string(), s);
    }

    #[test]
    fn parse_rejects_ambiguity() {
        assert!("ACGN".parse::<DnaSeq>().is_err());
    }

    #[test]
    fn get_is_none_out_of_bounds() {
        let seq: DnaSeq = "ACG".parse().unwrap();
        assert_eq!(seq.get(2), Some(Base::G));
        assert_eq!(seq.get(3), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn base_panics_out_of_bounds() {
        let seq: DnaSeq = "A".parse().unwrap();
        let _ = seq.base(1);
    }

    #[test]
    fn subseq_extracts_range() {
        let seq: DnaSeq = "ACGTACGT".parse().unwrap();
        assert_eq!(seq.subseq(2..6).to_string(), "GTAC");
        assert_eq!(seq.subseq(0..0).len(), 0);
        assert_eq!(seq.subseq(0..8), seq);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn subseq_panics_past_end() {
        let seq: DnaSeq = "ACGT".parse().unwrap();
        let _ = seq.subseq(2..5);
    }

    #[test]
    fn reverse_complement_involution() {
        let seq: DnaSeq = "AACCGGTTACGT".parse().unwrap();
        assert_eq!(seq.reverse_complement().reverse_complement(), seq);
        assert_eq!(seq.reverse_complement().to_string(), "ACGTAACCGGTT");
    }

    #[test]
    fn codes_round_trip() {
        let seq: DnaSeq = "TGCA".parse().unwrap();
        let codes = seq.to_codes();
        assert_eq!(codes, vec![3, 2, 1, 0]);
        assert_eq!(DnaSeq::from_codes(&codes).unwrap(), seq);
        assert!(DnaSeq::from_codes(&[0, 4]).is_err());
    }

    #[test]
    fn unpack_into_matches_base_by_base_at_every_edge() {
        // Starts 0..70 and lengths 0..200 cross every 8-base step edge
        // and every 32-base word edge, from each phase of both.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let seq: DnaSeq = (0..300)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                Base::from_code((state >> 11) as u8 & 3)
            })
            .collect();
        let oracle: Vec<u8> = (0..seq.len()).map(|i| seq.code(i)).collect();
        assert_eq!(seq.to_codes(), oracle);
        assert!(seq.codes().eq(oracle.iter().copied()));
        let mut out = vec![9];
        for start in 0..70 {
            for len in 0..200 {
                out.truncate(1);
                seq.unpack_into(start..start + len, &mut out);
                assert_eq!(out[0], 9, "unpack_into appends");
                assert_eq!(&out[1..], &oracle[start..start + len], "{start}..+{len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn unpack_into_panics_past_end() {
        let seq: DnaSeq = "ACGT".parse().unwrap();
        seq.unpack_into(2..5, &mut Vec::new());
    }

    #[test]
    fn gc_content_counts_strong_bases() {
        let seq: DnaSeq = "GGCC".parse().unwrap();
        assert_eq!(seq.gc_content(), 1.0);
        let seq: DnaSeq = "ATGC".parse().unwrap();
        assert_eq!(seq.gc_content(), 0.5);
        assert_eq!(DnaSeq::new().gc_content(), 0.0);
    }

    #[test]
    fn iterators_and_collect() {
        let seq: DnaSeq = "ACGT".parse().unwrap();
        let collected: DnaSeq = seq.iter().collect();
        assert_eq!(collected, seq);
        assert_eq!(seq.iter().len(), 4);
        let mut ext = DnaSeq::new();
        ext.extend(seq.iter());
        assert_eq!(ext, seq);
    }

    #[test]
    fn packed_io_round_trips() {
        for len in [0usize, 1, 31, 32, 33, 100, 1000] {
            let seq: DnaSeq = (0..len).map(|i| Base::from_code((i % 4) as u8)).collect();
            let mut buf = Vec::new();
            seq.write_packed(&mut buf).unwrap();
            let back = DnaSeq::read_packed(buf.as_slice()).unwrap();
            assert_eq!(back, seq, "len {len}");
        }
    }

    #[test]
    fn packed_io_rejects_truncation() {
        let seq: DnaSeq = "ACGTACGTACGT".parse().unwrap();
        let mut buf = Vec::new();
        seq.write_packed(&mut buf).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(DnaSeq::read_packed(buf.as_slice()).is_err());
        assert!(DnaSeq::read_packed(&[1, 2][..]).is_err());
    }

    #[test]
    fn debug_preview_truncates() {
        let seq: DnaSeq = std::iter::repeat_n(Base::A, 100).collect();
        let dbg = format!("{seq:?}");
        assert!(dbg.contains("len=100"));
        assert!(dbg.contains('…'));
    }
}
