//! A direct-addressed q-gram (k-mer hash) index.
//!
//! RazerS3 and Hobbes3 — two of the paper's baselines — retrieve candidate
//! locations from hash-based indexes rather than an FM-Index (§II-B:
//! "RazerS3 and Hobbes3 use hashing based method to store and retrieve
//! reference genome"). This index gives those baseline re-implementations
//! the same machinery: all positions of every fixed-length q-gram, in a
//! flat two-level layout (offset table + position array).

use repute_genome::DnaSeq;

/// Maximum supported q (keeps the direct-address table ≤ 4 MiB of offsets).
pub const MAX_Q: usize = 11;

/// A direct-addressed index of all q-gram positions in a reference.
///
/// # Example
///
/// ```
/// use repute_genome::DnaSeq;
/// use repute_index::QGramIndex;
///
/// # fn main() -> Result<(), repute_genome::GenomeError> {
/// let reference: DnaSeq = "ACGTACGT".parse()?;
/// let index = QGramIndex::build(&reference, 4);
/// let gram: DnaSeq = "ACGT".parse()?;
/// assert_eq!(index.positions(&gram.to_codes()), &[0, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QGramIndex {
    q: usize,
    /// `offsets[h]..offsets[h+1]` indexes `positions` for gram hash `h`.
    offsets: Vec<u32>,
    positions: Vec<u32>,
}

impl QGramIndex {
    /// Largest `q` [`QGramIndex::build`] accepts.
    pub const MAX_Q: usize = MAX_Q;

    /// Builds the index of all `q`-grams of `reference`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0` or `q > MAX_Q`.
    pub fn build(reference: &DnaSeq, q: usize) -> QGramIndex {
        assert!(q > 0 && q <= MAX_Q, "q {q} out of 1..={MAX_Q}");
        let codes = reference.to_codes();
        let buckets = 1usize << (2 * q);
        let mut counts = vec![0u32; buckets + 1];
        if codes.len() >= q {
            let mut hash = 0usize;
            let mask = buckets - 1;
            for (i, &c) in codes.iter().enumerate() {
                hash = ((hash << 2) | c as usize) & mask;
                if i + 1 >= q {
                    counts[hash + 1] += 1;
                }
            }
        }
        for h in 0..buckets {
            counts[h + 1] += counts[h];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut positions = vec![0u32; *offsets.last().unwrap() as usize];
        if codes.len() >= q {
            let mask = buckets - 1;
            let mut hash = 0usize;
            for (i, &c) in codes.iter().enumerate() {
                hash = ((hash << 2) | c as usize) & mask;
                if i + 1 >= q {
                    let start = i + 1 - q;
                    positions[cursor[hash] as usize] = start as u32;
                    cursor[hash] += 1;
                }
            }
        }
        QGramIndex {
            q,
            offsets,
            positions,
        }
    }

    /// The gram length this index was built with.
    pub fn q(&self) -> usize {
        self.q
    }

    fn hash(&self, gram: &[u8]) -> usize {
        assert_eq!(
            gram.len(),
            self.q,
            "gram length {} != q {}",
            gram.len(),
            self.q
        );
        let mut h = 0usize;
        for &c in gram {
            assert!(c <= 3, "base code {c} out of range");
            h = (h << 2) | c as usize;
        }
        h
    }

    /// All start positions of `gram` (2-bit codes, length exactly `q`),
    /// sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `gram.len() != q` or any code exceeds 3.
    pub fn positions(&self, gram: &[u8]) -> &[u32] {
        let h = self.hash(gram);
        &self.positions[self.offsets[h] as usize..self.offsets[h + 1] as usize]
    }

    /// Occurrence count of `gram`.
    ///
    /// # Panics
    ///
    /// Panics if `gram.len() != q` or any code exceeds 3.
    pub fn count(&self, gram: &[u8]) -> u32 {
        let h = self.hash(gram);
        self.offsets[h + 1] - self.offsets[h]
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        (self.offsets.len() + self.positions.len()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repute_genome::rng::StdRng;

    #[test]
    fn finds_all_positions() {
        let seq: DnaSeq = "ACGTACGTAC".parse().unwrap();
        let index = QGramIndex::build(&seq, 2);
        assert_eq!(index.positions(&[0, 1]), &[0, 4, 8]); // AC
        assert_eq!(index.positions(&[3, 0]), &[3, 7]); // TA
        assert_eq!(index.count(&[2, 2]), 0); // GG absent
    }

    #[test]
    fn matches_naive_on_random_text() {
        let mut rng = StdRng::seed_from_u64(31);
        let codes: Vec<u8> = (0..3000).map(|_| rng.gen_range(0..4)).collect();
        let seq = DnaSeq::from_codes(&codes).unwrap();
        for q in [1usize, 3, 6, 10] {
            let index = QGramIndex::build(&seq, q);
            for _ in 0..25 {
                let start = rng.gen_range(0..codes.len() - q);
                let gram = &codes[start..start + q];
                let naive: Vec<u32> = codes
                    .windows(q)
                    .enumerate()
                    .filter(|(_, w)| *w == gram)
                    .map(|(i, _)| i as u32)
                    .collect();
                assert_eq!(index.positions(gram), naive.as_slice(), "q {q}");
            }
        }
    }

    #[test]
    fn text_shorter_than_q() {
        let seq: DnaSeq = "AC".parse().unwrap();
        let index = QGramIndex::build(&seq, 5);
        assert_eq!(index.count(&[0, 1, 0, 1, 0]), 0);
    }

    #[test]
    #[should_panic(expected = "out of 1..=")]
    fn q_zero_rejected() {
        let seq: DnaSeq = "ACGT".parse().unwrap();
        let _ = QGramIndex::build(&seq, 0);
    }

    #[test]
    #[should_panic(expected = "!= q")]
    fn wrong_gram_length_rejected() {
        let seq: DnaSeq = "ACGT".parse().unwrap();
        let index = QGramIndex::build(&seq, 3);
        let _ = index.positions(&[0, 1]);
    }

    #[test]
    fn footprint_is_positive() {
        let seq: DnaSeq = "ACGTACGT".parse().unwrap();
        let index = QGramIndex::build(&seq, 4);
        assert!(index.heap_bytes() > 0);
        assert_eq!(index.q(), 4);
    }
}
