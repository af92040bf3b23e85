//! A plain bit vector with constant-time rank support.

/// Bits per storage word.
const WORD_BITS: usize = 64;
/// Words per rank superblock.
const WORDS_PER_BLOCK: usize = 8;

/// An immutable bit vector supporting O(1) `rank1` queries.
///
/// Used by [`crate::FmIndex`] to mark which Burrows–Wheeler rows carry a
/// suffix-array sample, the classic technique for trading locate speed
/// against memory footprint (the paper's §IV points at exactly this
/// trade-off, citing Bowtie 2).
///
/// # Example
///
/// ```
/// use repute_index::RankBitVec;
///
/// let bv = RankBitVec::from_bits((0..10).map(|i| i % 3 == 0));
/// assert!(bv.get(0));
/// assert!(!bv.get(1));
/// assert_eq!(bv.rank1(10), 4); // bits 0, 3, 6, 9
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankBitVec {
    words: Vec<u64>,
    /// Cumulative count of ones before each superblock.
    block_ranks: Vec<u32>,
    len: usize,
    ones: usize,
}

impl RankBitVec {
    /// Builds a bit vector from an iterator of bits.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> RankBitVec {
        let mut words: Vec<u64> = Vec::new();
        let mut len = 0usize;
        for bit in bits {
            if len.is_multiple_of(WORD_BITS) {
                words.push(0);
            }
            if bit {
                let w = len / WORD_BITS;
                words[w] |= 1u64 << (len % WORD_BITS);
            }
            len += 1;
        }
        RankBitVec::from_words(words, len)
    }

    /// Builds a bit vector of `len` bits from its storage words (bit `i`
    /// is bit `i % 64` of word `i / 64`).
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly `len.div_ceil(64)` words or a bit
    /// at or past `len` is set.
    pub fn from_words(words: Vec<u64>, len: usize) -> RankBitVec {
        assert_eq!(words.len(), len.div_ceil(WORD_BITS), "word count");
        assert!(
            len.is_multiple_of(WORD_BITS) || words[len / WORD_BITS] >> (len % WORD_BITS) == 0,
            "bit set past the end"
        );
        let mut block_ranks = Vec::with_capacity(words.len() / WORDS_PER_BLOCK + 1);
        let mut running = 0u32;
        for (i, w) in words.iter().enumerate() {
            if i % WORDS_PER_BLOCK == 0 {
                block_ranks.push(running);
            }
            running += w.count_ones();
        }
        RankBitVec {
            words,
            block_ranks,
            len,
            ones: running as usize,
        }
    }

    /// The storage words, as [`RankBitVec::from_words`] takes them.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Returns bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Number of set bits strictly before position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos > self.len()`.
    #[inline]
    pub fn rank1(&self, pos: usize) -> usize {
        assert!(
            pos <= self.len,
            "rank position {pos} out of range {}",
            self.len
        );
        let word = pos / WORD_BITS;
        // `pos == len` on a word boundary lands one past the last block;
        // clamp to the final checkpoint and scan the remaining words.
        let block = (word / WORDS_PER_BLOCK).min(self.block_ranks.len().saturating_sub(1));
        let mut rank = self.block_ranks.get(block).copied().unwrap_or(0) as usize;
        for w in (block * WORDS_PER_BLOCK)..word {
            rank += self.words[w].count_ones() as usize;
        }
        let rem = pos % WORD_BITS;
        if rem > 0 {
            let mask = (1u64 << rem) - 1;
            rank += (self.words[word] & mask).count_ones() as usize;
        }
        rank
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * 8 + self.block_ranks.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_rank(bits: &[bool], pos: usize) -> usize {
        bits[..pos].iter().filter(|&&b| b).count()
    }

    #[test]
    fn empty_vector() {
        let bv = RankBitVec::from_bits(std::iter::empty());
        assert!(bv.is_empty());
        assert_eq!(bv.rank1(0), 0);
        assert_eq!(bv.count_ones(), 0);
    }

    #[test]
    fn rank_matches_naive_on_patterned_input() {
        let bits: Vec<bool> = (0..1000).map(|i| (i * 7 + 3) % 5 == 0).collect();
        let bv = RankBitVec::from_bits(bits.iter().copied());
        assert_eq!(bv.len(), 1000);
        for pos in 0..=1000 {
            assert_eq!(bv.rank1(pos), naive_rank(&bits, pos), "pos {pos}");
        }
    }

    #[test]
    fn rank_across_superblock_boundaries() {
        // 8 words per block = 512 bits; test around multiples of 512.
        let bits: Vec<bool> = (0..2048).map(|i| i % 2 == 0).collect();
        let bv = RankBitVec::from_bits(bits.iter().copied());
        for pos in [511, 512, 513, 1023, 1024, 1536, 2048] {
            assert_eq!(bv.rank1(pos), naive_rank(&bits, pos), "pos {pos}");
        }
    }

    #[test]
    fn get_reads_bits_back() {
        let bits: Vec<bool> = (0..130).map(|i| i % 3 == 1).collect();
        let bv = RankBitVec::from_bits(bits.iter().copied());
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(bv.get(i), b);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let bv = RankBitVec::from_bits([true, false]);
        let _ = bv.get(2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_out_of_range_panics() {
        let bv = RankBitVec::from_bits([true]);
        let _ = bv.rank1(2);
    }

    #[test]
    fn all_ones_and_all_zeros() {
        let ones = RankBitVec::from_bits(std::iter::repeat_n(true, 300));
        assert_eq!(ones.rank1(300), 300);
        assert_eq!(ones.count_ones(), 300);
        let zeros = RankBitVec::from_bits(std::iter::repeat_n(false, 300));
        assert_eq!(zeros.rank1(300), 0);
    }
}
