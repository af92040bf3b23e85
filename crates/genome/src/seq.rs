//! 2-bit packed DNA sequences.

use std::fmt;
use std::iter::FromIterator;
use std::ops::Range;
use std::str::FromStr;

use crate::alphabet::Base;
use crate::error::GenomeError;
use crate::wire::{read_run, Reader};

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
        (0..self.len).map(|i| self.code(i)).collect()
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
        for word in &self.words {
            out.write_all(&word.to_le_bytes())?;
        }
        Ok(())
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
        // In pieces: the reference is never held a second time as bytes.
        let mut words = Vec::new();
        let len = len as usize;
        let mut left = len.div_ceil(BASES_PER_WORD);
        while left > 0 {
            let piece = left.min(1 << 13);
            words.extend(Reader::new(&read_run(&mut input, 8 * piece as u64)?).u64s(piece)?);
            left -= piece;
        }
        Ok(DnaSeq { words, len })
    }
}

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
        for b in self.iter() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl FromStr for DnaSeq {
    type Err = GenomeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut seq = DnaSeq::with_capacity(s.len());
        for c in s.chars() {
            seq.push(Base::from_char(c)?);
        }
        Ok(seq)
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
