//! The FM-Index: backward search, left extension and sampled locate.
//!
//! This is the data structure at the heart of the paper's preprocessing
//! stage (§II-A): seeds chosen by the filtration stage are counted with
//! backward search, and their candidate locations are recovered from the
//! sampled suffix array. Left extension ([`FmIndex::extend_left`]) is the
//! primitive the DP filtration reuses incrementally ("used FM-Index
//! backward search in an efficient way to reduce memory accesses", §II-B).
//!
//! The BWT is held as 2-bit symbols in cache-line blocks, each carrying
//! its own rank counts, so one rank reads one line (DESIGN.md §8). The
//! first bases of every search come from a k-mer interval table derived
//! from those blocks ([`FmIndex::search_start`]): one lookup instead of
//! `k` dependent extensions.

use repute_genome::DnaSeq;

use crate::bitvec::RankBitVec;
use crate::suffix_array::SuffixArray;

mod stream;

/// A half-open range of rows in the Burrows–Wheeler matrix.
///
/// Every suffix of the reference that starts with the searched pattern
/// corresponds to exactly one row in `lo..hi`; the interval width is the
/// pattern's occurrence count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// First matching row.
    pub lo: u32,
    /// One past the last matching row.
    pub hi: u32,
}

impl Interval {
    /// Number of matching rows (pattern occurrences).
    #[inline]
    pub fn width(self) -> u32 {
        self.hi.saturating_sub(self.lo)
    }

    /// Returns `true` when no row matches.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.hi <= self.lo
    }
}

/// Configures the suffix-array sampling rate; see [`FmIndex::builder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FmBuilder {
    sa_sample: usize,
}

impl Default for FmBuilder {
    fn default() -> Self {
        FmBuilder { sa_sample: 32 }
    }
}

impl FmBuilder {
    /// Sets the suffix-array sampling rate (text positions between samples).
    ///
    /// Larger rates shrink the index (the footprint reduction the paper's
    /// §IV points at, citing Bowtie 2) at the cost of slower locates.
    ///
    /// # Panics
    ///
    /// Panics if `positions == 0`.
    pub fn sa_sample(mut self, positions: usize) -> FmBuilder {
        assert!(positions > 0, "sa sample rate must be positive");
        self.sa_sample = positions;
        self
    }

    /// Builds the index over `reference`.
    pub fn build(self, reference: &DnaSeq) -> FmIndex {
        FmIndex::build_with(reference, self)
    }
}

/// Memory footprint of an [`FmIndex`], in bytes per component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FmFootprint {
    /// BWT symbol storage (48 bytes of every rank block).
    pub bwt_bytes: usize,
    /// Occ rank counts (16 bytes of every rank block).
    pub occ_bytes: usize,
    /// Sampled suffix-array entries.
    pub sa_bytes: usize,
    /// Sample-marking bit vector.
    pub mark_bytes: usize,
    /// The k-mer interval table (8 bytes for each of its `4^k` entries).
    pub kmer_bytes: usize,
}

impl FmFootprint {
    /// Total bytes across all components.
    pub fn total(&self) -> usize {
        self.bwt_bytes + self.occ_bytes + self.sa_bytes + self.mark_bytes + self.kmer_bytes
    }
}

/// BWT rows per 64-bit word of 2-bit symbols.
const WORD_ROWS: usize = 32;
/// Words per half block; the rank counts are anchored between the halves.
const HALF_WORDS: usize = 3;
/// BWT rows per rank block.
const BLOCK_ROWS: usize = 2 * HALF_WORDS * WORD_ROWS;
/// The low bit of every 2-bit field.
const FIELD_LOW: u64 = 0x5555_5555_5555_5555;

/// Bases one lookup of the k-mer interval table resolves in an index
/// over `text_len` bases: `⌊log₄ text_len⌋`, at most 8.
///
/// Eight is where the table stops paying (EXPERIMENTS.md, "Host clock —
/// the k-mer interval table"): `4^8` intervals are 512 KiB and stay in
/// L2, `4^10` are 8 MB and every lookup misses it. Below `4^8` bases the
/// table holds no more entries than the text has bases: at 8 bytes an
/// entry that is at most 8 bytes a base and at most 512 KiB — many times
/// the rest of a small index (512 KiB beside 38 KiB at 65 536 bases and
/// the default sampling), a fifth of a 4 Mbp one.
fn kmer_len_for(text_len: usize) -> usize {
    const MAX_KMER_LEN: usize = 8;
    (text_len.max(1).ilog2() as usize / 2).min(MAX_KMER_LEN)
}

/// Bit `i` of the field-low bits set iff symbol `i` of `word` is `code`.
#[inline(always)]
fn matches(word: u64, code: u8) -> u64 {
    let diff = word ^ (u64::from(code) * FIELD_LOW);
    !(diff | diff >> 1) & FIELD_LOW
}

/// Sums the 2-bit fields of `fields`; the total must stay below 256.
#[inline(always)]
fn sum_fields(fields: u64) -> u32 {
    const NIBBLES: u64 = 0x3333_3333_3333_3333;
    let nibbles = (fields & NIBBLES) + ((fields >> 2) & NIBBLES);
    let bytes = (nibbles + (nibbles >> 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    (bytes.wrapping_mul(0x0101_0101_0101_0101) >> 56) as u32
}

/// One cache line of the BWT: 192 two-bit symbols and the number of
/// times each base occurs before the block's *middle* row, so a rank
/// scans at most the three words between the middle and the queried row.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Block {
    counts: [u32; 4],
    words: [u64; 2 * HALF_WORDS],
}

impl Block {
    /// Stored symbols equal to `code` before row `offset` of this block,
    /// counted from the start of the BWT. Branch-free: the word masks
    /// come from `offset` by arithmetic, so no trip count depends on it.
    #[inline(always)]
    fn rank(&self, code: u8, offset: usize) -> u32 {
        let (lower, upper) = self.words.split_at(HALF_WORDS);
        let above = offset >= BLOCK_ROWS / 2;
        // Above the middle the rows `middle..offset` are added; below it
        // the rows `offset..middle` (the complement mask) are taken off.
        let (half, rows, complement) = if above {
            (upper, offset - BLOCK_ROWS / 2, 0)
        } else {
            (lower, offset, u64::MAX)
        };
        let mut fields = 0u64;
        for (j, &word) in half.iter().enumerate() {
            let k = rows.saturating_sub(j * WORD_ROWS).min(WORD_ROWS);
            // The low `2k` bits; the double shift keeps `k = 32` in range.
            let prefix = ((1u64 << k) << k).wrapping_sub(1);
            fields += matches(word, code) & (prefix ^ complement);
        }
        let middle = self.counts[usize::from(code)];
        let scanned = sum_fields(fields);
        if above {
            middle + scanned
        } else {
            middle - scanned
        }
    }

    /// The 2-bit symbol stored at row `offset` of this block.
    #[inline(always)]
    fn symbol(&self, offset: usize) -> u8 {
        ((self.words[offset / WORD_ROWS] >> (2 * (offset % WORD_ROWS))) & 3) as u8
    }
}

/// An FM-Index over a DNA reference.
///
/// # Example
///
/// ```
/// use repute_genome::DnaSeq;
/// use repute_index::FmIndex;
///
/// # fn main() -> Result<(), repute_genome::GenomeError> {
/// let reference: DnaSeq = "ACGTACGTACGA".parse()?;
/// let fm = FmIndex::build(&reference);
///
/// let pattern: DnaSeq = "CGT".parse()?;
/// let interval = fm.interval(&pattern.to_codes()).expect("pattern occurs");
/// assert_eq!(interval.width(), 2);
///
/// let mut positions = fm.locate(interval, usize::MAX);
/// positions.sort_unstable();
/// assert_eq!(positions, vec![1, 5]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FmIndex {
    /// The BWT, `text_len + 1` rows, with one block more than full ones
    /// so that the row one past the end has a block too. The sentinel is
    /// stored as `A` (as is the padding after the last row, which no
    /// rank reaches past the counts that already include it).
    blocks: Vec<Block>,
    /// The row holding the sentinel, taken back out of every `A` rank.
    sentinel_row: u32,
    /// `first[c]` = number of BWT symbols (sentinel included)
    /// lexicographically smaller than base `c`.
    first: [u32; 4],
    /// Marks BWT rows whose suffix position is sampled.
    sampled_rows: RankBitVec,
    /// Suffix positions for marked rows, in row order.
    sa_samples: Vec<u32>,
    sa_sample: usize,
    text_len: usize,
    /// Entry `x` is the interval [`FmIndex::kmer_len`] extensions over the
    /// k-mer `x` (2 bits a base, first base most significant) end in —
    /// empty where the k-mer does not occur. `4^kmer_len` entries.
    kmers: Vec<Interval>,
}

impl FmIndex {
    /// Builds an index with default sampling (SA every 32 positions).
    pub fn build(reference: &DnaSeq) -> FmIndex {
        FmBuilder::default().build(reference)
    }

    /// Starts a builder to customise the sampling rate.
    pub fn builder() -> FmBuilder {
        FmBuilder::default()
    }

    fn build_with(reference: &DnaSeq, config: FmBuilder) -> FmIndex {
        let codes = reference.to_codes();
        let sa = SuffixArray::from_codes(&codes);
        let n_rows = codes.len() + 1;
        let mut symbols = vec![0u64; n_rows.div_ceil(WORD_ROWS)];
        let mut marks = vec![0u64; n_rows.div_ceil(64)];
        let mut sa_samples = Vec::with_capacity(codes.len() / config.sa_sample + 1);
        let mut put = |row: usize, code: u8| {
            symbols[row / WORD_ROWS] |= u64::from(code) << (2 * (row % WORD_ROWS));
        };
        // Row 0 is the sentinel suffix: its BWT symbol is the last text
        // base (the sentinel itself for the empty text) and it is never
        // sampled. A text position p is sampled iff p % sa_sample == 0,
        // which always includes p = 0 so every LF walk terminates.
        let mut sentinel_row = 0;
        if let Some(&last) = codes.last() {
            put(0, last);
        }
        for (i, &p) in sa.positions().iter().enumerate() {
            let row = i + 1;
            match p.checked_sub(1) {
                Some(before) => put(row, codes[before as usize]),
                None => sentinel_row = row,
            }
            if (p as usize).is_multiple_of(config.sa_sample) {
                marks[row / 64] |= 1 << (row % 64);
                sa_samples.push(p);
            }
        }
        let sampled_rows = RankBitVec::from_words(marks, n_rows);
        FmIndex::from_parts(
            codes.len(),
            sentinel_row as u32,
            &symbols,
            sampled_rows,
            sa_samples,
            config.sa_sample,
        )
    }

    /// Lays `symbols` (2-bit codes, 32 per word, the sentinel as `A`)
    /// out in blocks, counts them and derives the k-mer interval table
    /// from the counts — the one place either comes from, for a fresh
    /// build and a loaded stream alike.
    fn from_parts(
        text_len: usize,
        sentinel_row: u32,
        symbols: &[u64],
        sampled_rows: RankBitVec,
        sa_samples: Vec<u32>,
        sa_sample: usize,
    ) -> FmIndex {
        let n_rows = text_len + 1;
        let mut blocks = vec![
            Block {
                counts: [0; 4],
                words: [0; 2 * HALF_WORDS],
            };
            n_rows / BLOCK_ROWS + 1
        ];
        let mut running = [0u32; 4];
        let mut words = symbols.iter().copied();
        for block in &mut blocks {
            for j in 0..2 * HALF_WORDS {
                if j == HALF_WORDS {
                    block.counts = running;
                }
                let word = words.next().unwrap_or(0);
                block.words[j] = word;
                for (code, count) in running.iter_mut().enumerate() {
                    *count += matches(word, code as u8).count_ones();
                }
            }
        }
        // Not bases: the sentinel and the padding of the last block.
        running[0] -= (blocks.len() * BLOCK_ROWS - text_len) as u32;
        let mut first = [1u32; 4];
        for code in 1..4 {
            first[code] = first[code - 1] + running[code - 1];
        }
        let mut fm = FmIndex {
            blocks,
            sentinel_row,
            first,
            sampled_rows,
            sa_samples,
            sa_sample,
            text_len,
            kmers: Vec::new(),
        };
        fm.kmers = fm.derive_kmers();
        fm
    }

    /// The k-mer interval table, level by level: the intervals of the
    /// `(i + 1)`-mers `c·P` are one extension by `c` of the `i`-mers `P`.
    /// A row's block is read once for all four `c`, and within a level
    /// the `P` come in row order and mostly abut, so the ranks at one
    /// interval's end are reused as the next one's start.
    fn derive_kmers(&self) -> Vec<Interval> {
        let mut table = vec![self.full_interval(); 1 << (2 * self.kmer_len())];
        // The last row ranks were taken at, and where an extension by
        // each base lands from there.
        let mut last = None;
        let mut extended = |row: u32| match last {
            Some((at, landing)) if at == row => landing,
            _ => {
                let block = &self.blocks[row as usize / BLOCK_ROWS];
                let landing = [0, 1, 2, 3]
                    .map(|code| self.first[usize::from(code)] + self.occ_in(block, code, row));
                last = Some((row, landing));
                landing
            }
        };
        for level in 0..self.kmer_len() {
            // `table[..known]` holds the level; `c·P` lands at
            // `c * known + P`, which for base 0 is the entry just read.
            let known = 1usize << (2 * level);
            for p in 0..known {
                let (lo, hi) = (extended(table[p].lo), extended(table[p].hi));
                for code in 0..4 {
                    table[code * known + p] = Interval {
                        lo: lo[code],
                        hi: hi[code],
                    };
                }
            }
        }
        table
    }

    /// Length of the indexed reference in bases.
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// The interval covering every suffix: the state a backward search
    /// stepped by hand with [`FmIndex::extend_left`] starts from. Searches
    /// start at [`FmIndex::search_start`]; this one stays as the plain
    /// oracle it is held against.
    pub fn full_interval(&self) -> Interval {
        Interval {
            lo: 0,
            hi: self.text_len as u32 + 1,
        }
    }

    /// Bases one lookup of the k-mer interval table resolves:
    /// `⌊log₄ text_len⌋`, at most 8.
    pub fn kmer_len(&self) -> usize {
        kmer_len_for(self.text_len)
    }

    /// Starts a backward search for `pattern` with one table lookup.
    ///
    /// Returns the interval of the pattern's last [`FmIndex::kmer_len`]
    /// bases — exactly what that many [`FmIndex::extend_left`] steps over
    /// them from [`FmIndex::full_interval`] end in, empty when the k-mer
    /// does not occur — and the number of bases it covers; the caller
    /// extends by the rest of the pattern. A pattern shorter than the
    /// table's k-mers starts at the full interval with no base covered.
    ///
    /// A simulated device is charged one extension for the lookup: one
    /// dependent index access, where an extension is two rank reads.
    ///
    /// # Panics
    ///
    /// Panics if any of the covered codes exceeds 3.
    #[inline]
    pub fn search_start(&self, pattern: &[u8]) -> (Interval, usize) {
        let covered = self.kmer_len();
        let Some(at) = pattern.len().checked_sub(covered) else {
            return (self.full_interval(), 0);
        };
        let (kmer, seen) = pattern[at..].iter().fold((0, 0), |(kmer, seen), &code| {
            (kmer << 2 | usize::from(code), seen | code)
        });
        assert!(seen <= 3, "base code out of range in {:?}", &pattern[at..]);
        (self.kmers[kmer], covered)
    }

    /// Rank of base `code` among the BWT rows strictly before `row`, read
    /// from `block`, which must be the block of `row`.
    #[inline(always)]
    fn occ_in(&self, block: &Block, code: u8, row: u32) -> u32 {
        let stored = block.rank(code, row as usize % BLOCK_ROWS);
        stored - u32::from(code == 0 && row > self.sentinel_row)
    }

    /// Extends a match interval one base to the left.
    ///
    /// If `interval` matches pattern `P`, the result matches `base·P`.
    /// Returns an empty interval when no occurrence survives.
    ///
    /// # Panics
    ///
    /// Panics if `code > 3` or the interval is out of range.
    #[inline]
    pub fn extend_left(&self, interval: Interval, code: u8) -> Interval {
        assert!(code <= 3, "base code {code} out of range");
        assert!(
            interval.hi as usize <= self.text_len + 1 && interval.lo <= interval.hi,
            "interval {interval:?} out of range"
        );
        let base = self.first[usize::from(code)];
        let (lo_at, hi_at) = (
            interval.lo as usize / BLOCK_ROWS,
            interval.hi as usize / BLOCK_ROWS,
        );
        let lo_block = &self.blocks[lo_at];
        // A narrow interval — every one past the first few extensions of
        // a seed — has both ends in one block: one line, one lookup.
        let hi_block = if hi_at == lo_at {
            lo_block
        } else {
            &self.blocks[hi_at]
        };
        Interval {
            lo: base + self.occ_in(lo_block, code, interval.lo),
            hi: base + self.occ_in(hi_block, code, interval.hi),
        }
    }

    /// Backward-searches a pattern of 2-bit base codes.
    ///
    /// Returns `None` when the pattern does not occur. The empty pattern
    /// yields the full interval.
    ///
    /// # Panics
    ///
    /// Panics if any code exceeds 3.
    pub fn interval(&self, pattern: &[u8]) -> Option<Interval> {
        let (mut interval, covered) = self.search_start(pattern);
        for &code in pattern[..pattern.len() - covered].iter().rev() {
            if interval.is_empty() {
                return None;
            }
            interval = self.extend_left(interval, code);
        }
        (!interval.is_empty()).then_some(interval)
    }

    /// Number of occurrences of a pattern in the reference.
    ///
    /// # Panics
    ///
    /// Panics if any code exceeds 3.
    pub fn count(&self, pattern: &[u8]) -> u32 {
        self.interval(pattern).map_or(0, Interval::width)
    }

    /// One LF-mapping step: the row of the suffix one position to the
    /// left, its symbol and its rank read from the same block.
    #[inline]
    fn lf(&self, row: u32) -> u32 {
        if row == self.sentinel_row {
            return 0;
        }
        let block = &self.blocks[row as usize / BLOCK_ROWS];
        let code = block.symbol(row as usize % BLOCK_ROWS);
        self.first[usize::from(code)] + self.occ_in(block, code, row)
    }

    /// Recovers the text position of a single BWT row via the sampled SA.
    ///
    /// # Panics
    ///
    /// Panics if `row` is the sentinel row 0 (which has no text position)
    /// or out of range.
    pub fn position_of_row(&self, row: u32) -> u32 {
        assert!(
            row > 0 && row as usize <= self.text_len,
            "row {row} has no text position"
        );
        let mut row = row;
        let mut steps = 0u32;
        loop {
            if self.sampled_rows.get(row as usize) {
                let idx = self.sampled_rows.rank1(row as usize);
                return self.sa_samples[idx] + steps;
            }
            row = self.lf(row);
            steps += 1;
            debug_assert!(steps as usize <= self.sa_sample + 1, "LF walk too long");
        }
    }

    /// Recovers up to `limit` text positions for an interval.
    ///
    /// Positions are returned in row order (not sorted). This mirrors the
    /// paper's *first-n* output restriction: OpenCL 1.2 forbids dynamic
    /// allocation, so REPUTE reports only the first `n` locations per read.
    pub fn locate(&self, interval: Interval, limit: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(interval.width().min(limit as u32) as usize);
        for row in interval.lo..interval.hi {
            if out.len() >= limit {
                break;
            }
            if row == 0 {
                continue; // sentinel row: matches nothing real
            }
            out.push(self.position_of_row(row));
        }
        out
    }

    /// Reports the index's memory footprint per component.
    pub fn footprint(&self) -> FmFootprint {
        FmFootprint {
            bwt_bytes: self.blocks.len() * std::mem::size_of::<[u64; 2 * HALF_WORDS]>(),
            occ_bytes: self.blocks.len() * std::mem::size_of::<[u32; 4]>(),
            sa_bytes: self.sa_samples.len() * 4,
            mark_bytes: self.sampled_rows.heap_bytes(),
            kmer_bytes: self.kmers.len() * std::mem::size_of::<Interval>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repute_genome::rng::StdRng;
    use repute_genome::synth::ReferenceBuilder;

    fn naive_count(text: &[u8], pattern: &[u8]) -> u32 {
        if pattern.is_empty() || pattern.len() > text.len() {
            return if pattern.is_empty() {
                text.len() as u32 + 1
            } else {
                0
            };
        }
        text.windows(pattern.len())
            .filter(|w| *w == pattern)
            .count() as u32
    }

    fn naive_positions(text: &[u8], pattern: &[u8]) -> Vec<u32> {
        text.windows(pattern.len())
            .enumerate()
            .filter(|(_, w)| *w == pattern)
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn counts_match_naive_on_random_text() {
        let mut rng = StdRng::seed_from_u64(17);
        let codes: Vec<u8> = (0..2000).map(|_| rng.gen_range(0..4)).collect();
        let seq = DnaSeq::from_codes(&codes).unwrap();
        let fm = FmIndex::build(&seq);
        for plen in [1usize, 2, 4, 8, 16] {
            for _ in 0..20 {
                let start = rng.gen_range(0..codes.len() - plen);
                let pattern = &codes[start..start + plen];
                assert_eq!(
                    fm.count(pattern),
                    naive_count(&codes, pattern),
                    "pattern at {start} len {plen}"
                );
            }
        }
    }

    #[test]
    fn absent_pattern_counts_zero() {
        let seq: DnaSeq = "AAAAAAAA".parse().unwrap();
        let fm = FmIndex::build(&seq);
        assert_eq!(fm.count(&[1]), 0); // no C
        assert!(fm.interval(&[1, 1]).is_none());
        assert_eq!(fm.count(&[0]), 8);
    }

    #[test]
    fn empty_pattern_yields_full_interval() {
        let seq: DnaSeq = "ACGT".parse().unwrap();
        let fm = FmIndex::build(&seq);
        assert_eq!(fm.interval(&[]), Some(fm.full_interval()));
    }

    #[test]
    fn locate_matches_naive() {
        let mut rng = StdRng::seed_from_u64(23);
        let codes: Vec<u8> = (0..1500).map(|_| rng.gen_range(0..4)).collect();
        let seq = DnaSeq::from_codes(&codes).unwrap();
        for sa_sample in [1usize, 4, 32, 64] {
            let fm = FmIndex::builder().sa_sample(sa_sample).build(&seq);
            for plen in [3usize, 6, 12] {
                for _ in 0..10 {
                    let start = rng.gen_range(0..codes.len() - plen);
                    let pattern = &codes[start..start + plen];
                    let interval = fm.interval(pattern).expect("pattern occurs");
                    let mut got = fm.locate(interval, usize::MAX);
                    got.sort_unstable();
                    assert_eq!(
                        got,
                        naive_positions(&codes, pattern),
                        "sa_sample {sa_sample}"
                    );
                }
            }
        }
    }

    #[test]
    fn locate_respects_limit() {
        let seq: DnaSeq = "ACACACACACACACAC".parse().unwrap();
        let fm = FmIndex::build(&seq);
        let interval = fm.interval(&[0, 1]).unwrap(); // "AC"
        assert_eq!(interval.width(), 8);
        assert_eq!(fm.locate(interval, 3).len(), 3);
        assert_eq!(fm.locate(interval, 0).len(), 0);
    }

    #[test]
    fn extend_left_composes_like_interval() {
        let reference = ReferenceBuilder::new(5000).seed(9).build();
        let codes = reference.to_codes();
        let fm = FmIndex::build(&reference);
        let pattern = &codes[100..116];
        // Manual right-to-left extension equals one-shot search.
        let mut interval = fm.full_interval();
        for &c in pattern.iter().rev() {
            interval = fm.extend_left(interval, c);
        }
        assert_eq!(Some(interval), fm.interval(pattern));
    }

    #[test]
    fn footprint_shrinks_with_sparser_sa_sampling() {
        let reference = ReferenceBuilder::new(20_000).seed(11).build();
        let dense = FmIndex::builder().sa_sample(1).build(&reference);
        let sparse = FmIndex::builder().sa_sample(64).build(&reference);
        assert!(sparse.footprint().sa_bytes < dense.footprint().sa_bytes / 32);
        assert!(sparse.footprint().total() < dense.footprint().total());
        assert!(dense.footprint().total() > 0);
    }

    #[test]
    fn full_genome_scale_smoke() {
        let reference = ReferenceBuilder::new(100_000).seed(12).build();
        let codes = reference.to_codes();
        let fm = FmIndex::build(&reference);
        // Every sampled 20-mer of the reference must be found at its origin.
        for start in (0..codes.len() - 20).step_by(9973) {
            let pattern = &codes[start..start + 20];
            let interval = fm.interval(pattern).expect("present");
            let positions = fm.locate(interval, usize::MAX);
            assert!(
                positions.contains(&(start as u32)),
                "missing origin {start}"
            );
        }
    }

    #[test]
    fn serialisation_round_trips_and_answers_identically() {
        let reference = ReferenceBuilder::new(30_000).seed(88).build();
        let codes = reference.to_codes();
        let fm = FmIndex::builder().sa_sample(8).build(&reference);
        let mut buf = Vec::new();
        fm.write_to(&mut buf).unwrap();
        let back = FmIndex::read_from(buf.as_slice()).unwrap();
        assert_eq!(back.text_len(), fm.text_len());
        for start in (0..29_900).step_by(977) {
            let pattern = &codes[start..start + 18];
            assert_eq!(back.count(pattern), fm.count(pattern));
            if let Some(iv) = fm.interval(pattern) {
                let mut a = fm.locate(iv, usize::MAX);
                let mut b = back.locate(back.interval(pattern).unwrap(), usize::MAX);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn serialisation_rejects_corruption() {
        let reference = ReferenceBuilder::new(2_000).seed(89).build();
        let fm = FmIndex::build(&reference);
        let mut buf = Vec::new();
        fm.write_to(&mut buf).unwrap();
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(FmIndex::read_from(bad.as_slice()).is_err());
        // Truncation.
        let short = &buf[..buf.len() - 4];
        assert!(FmIndex::read_from(short).is_err());
        // Corrupted BWT symbol.
        let mut bad = buf.clone();
        bad[30] = 9;
        assert!(FmIndex::read_from(bad.as_slice()).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_code_rejected() {
        let seq: DnaSeq = "ACGT".parse().unwrap();
        let fm = FmIndex::build(&seq);
        let _ = fm.count(&[4]);
    }

    #[test]
    #[should_panic(expected = "no text position")]
    fn sentinel_row_has_no_position() {
        let seq: DnaSeq = "ACGT".parse().unwrap();
        let fm = FmIndex::build(&seq);
        let _ = fm.position_of_row(0);
    }
}
