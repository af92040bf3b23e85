//! Q-gram bin existence filter (GRIM-Filter-style).
//!
//! GRIM-Filter (Kim et al.) divides the reference into fixed-width
//! *bins* and keeps, for each bin, one bitvector with a bit per
//! possible q-gram: bit `h` is set when the q-gram with 2-bit encoding
//! `h` starts inside the bin. The structure is built once at index
//! time (one linear pass) and answers "could this read possibly align
//! in this region?" with a handful of bit probes — in the paper the
//! probes run inside 3D-stacked memory; here they are plain `u64`
//! reads.
//!
//! # Acceptance threshold — deviation from the issue sketch
//!
//! The issue proposes accepting when at least `L − (q−1)(δ+1)` of the
//! read's `L = m − q + 1` q-grams exist in the window's bins. That
//! bound is *stricter than sound* whenever `q < δ + 1`: the q-gram
//! lemma (Jokinen–Ukkonen) only guarantees that an alignment with
//! `e ≤ δ` edits leaves `L − q·e` read q-grams intact, because each
//! edit can destroy up to `q` overlapping grams. We therefore accept
//! when the existence count reaches `L − q·δ` — the exact lemma bound
//! — and reject below it. Every intact read q-gram occurs contiguously
//! somewhere in the window, so its start position falls in one of the
//! window's bins and its existence bit is set: zero false negatives by
//! construction.

use std::borrow::Borrow;

use crate::{Candidate, PreFilter, Verdict};

/// Default q-gram length. 4^5 = 1024 bits (16 words) per bin keeps the
/// whole structure cache-resident for multi-megabase references while
/// q·δ stays below typical gram counts (`L − 5δ > 0` for 100-base
/// reads at δ ≤ 7).
pub const DEFAULT_Q: usize = 5;

/// Default bin width in bases. Bins much wider than a candidate window
/// blur the existence signal; 512 keeps 1–2 bins per window at typical
/// read lengths while bounding the bin count on large references.
pub const DEFAULT_BIN_WIDTH: usize = 512;

/// Largest supported q: 4^8 bits = 8 KiB per bin.
pub const MAX_Q: usize = 8;

/// Per-bin q-gram existence bitvectors over one reference.
///
/// Build once (at index time) from the reference's 2-bit codes and
/// share read-only across mapper threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QgramBins {
    q: usize,
    /// log₂ of the bin width: a position's bin is a shift away.
    bin_shift: u32,
    ref_len: usize,
    words_per_bin: usize,
    bits: Vec<u64>,
}

impl QgramBins {
    /// Builds the bins with the default q and bin width.
    pub fn build_default<C: Borrow<u8>>(
        codes: impl IntoIterator<Item = C, IntoIter: ExactSizeIterator>,
    ) -> QgramBins {
        QgramBins::build(codes, DEFAULT_Q, DEFAULT_BIN_WIDTH)
    }

    /// Builds the bins in one pass over the reference's 2-bit codes — a
    /// flat slice, or the codes of a packed sequence as they are read:
    /// bit `h` of bin `b` is set iff the q-gram with 2-bit code `h`
    /// *starts* at some reference position in `[b·width, (b+1)·width)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is 0 or exceeds [`MAX_Q`], or if `bin_width` is not
    /// a power of two.
    pub fn build<C: Borrow<u8>>(
        codes: impl IntoIterator<Item = C, IntoIter: ExactSizeIterator>,
        q: usize,
        bin_width: usize,
    ) -> QgramBins {
        assert!((1..=MAX_Q).contains(&q), "q must be in 1..={MAX_Q}");
        assert!(
            bin_width.is_power_of_two(),
            "bin width must be a power of two"
        );
        let bin_shift = bin_width.trailing_zeros();
        let codes = codes.into_iter();
        let ref_len = codes.len();
        let words_per_bin = (1usize << (2 * q)).div_ceil(64);
        let bins = ref_len.div_ceil(bin_width).max(1);
        let mut bits = vec![0u64; bins * words_per_bin];
        let mask = (1u64 << (2 * q)) - 1;
        let mut hash = 0u64;
        for (i, code) in codes.enumerate() {
            hash = ((hash << 2) | u64::from(code.borrow() & 3)) & mask;
            if i + 1 >= q {
                let start = i + 1 - q;
                let bin = start >> bin_shift;
                let word = bin * words_per_bin + (hash / 64) as usize;
                bits[word] |= 1 << (hash % 64);
            }
        }
        QgramBins {
            q,
            bin_shift,
            ref_len,
            words_per_bin,
            bits,
        }
    }

    /// The q-gram length.
    pub fn q(&self) -> usize {
        self.q
    }

    /// The bin width in bases.
    pub fn bin_width(&self) -> usize {
        1 << self.bin_shift
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        // A bin is a power of two of words: a shift, not a division.
        self.bits.len() >> self.words_per_bin.trailing_zeros()
    }

    /// Heap bytes held by the bitvectors (an index-size statistic).
    pub fn heap_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// The inclusive bin range containing every q-gram start of the
    /// window `[start, start + len)`, clamped to the reference.
    fn bin_range(&self, start: usize, len: usize) -> (usize, usize) {
        let last_bin = self.bins() - 1;
        let lo = (start >> self.bin_shift).min(last_bin);
        let last_start = (start + len.saturating_sub(self.q)).min(self.ref_len);
        let hi = (last_start >> self.bin_shift).min(last_bin);
        (lo, hi.max(lo))
    }
}

/// The GRIM-style candidate filter over prebuilt [`QgramBins`].
///
/// The candidate's `window_start` must be a position in the same
/// reference the bins were built over — the filter never looks at the
/// window's bases, only at its coordinates.
#[derive(Debug, Clone, Copy)]
pub struct QgramFilter<'a> {
    bins: &'a QgramBins,
}

impl<'a> QgramFilter<'a> {
    /// Creates the filter over shared bins.
    pub fn new(bins: &'a QgramBins) -> QgramFilter<'a> {
        QgramFilter { bins }
    }
}

impl PreFilter for QgramFilter<'_> {
    fn examine(&self, candidate: &Candidate<'_>) -> Verdict {
        crate::examine_one(self, candidate)
    }

    /// Hashes each read's grams once, then per candidate gathers the
    /// found bits of 16 probes at a time without a branch and finds the
    /// probe the filter stops at — the first that reaches the threshold
    /// or exceeds the miss budget — from prefix counts of those bits.
    fn examine_batch(&self, candidates: &[Candidate<'_>], verdicts: &mut Vec<Verdict>) {
        let q = self.bins.q;
        let mut grams = Vec::new();
        for run in crate::read_runs(candidates) {
            let read = candidates[run.start].read;
            grams.clear();
            if read.len() >= q {
                let mask = (1u64 << (2 * q)) - 1;
                let (head, probed) = read.split_at(q - 1);
                let mut hash = head
                    .iter()
                    .fold(0u64, |hash, &code| (hash << 2) | u64::from(code & 3));
                grams.extend(probed.iter().map(|&code| {
                    hash = ((hash << 2) | u64::from(code & 3)) & mask;
                    Gram {
                        word: (hash / 64) as usize,
                        bit: 1 << (hash % 64),
                    }
                }));
            }
            for candidate in &candidates[run] {
                verdicts.push(self.probe(&grams, candidate));
            }
        }
    }

    fn name(&self) -> &'static str {
        "qgram"
    }
}

/// One gram of a read: where its existence bit sits in a bin.
#[derive(Debug, Clone, Copy)]
struct Gram {
    /// The bin word holding the bit.
    word: usize,
    /// The bit, as a mask.
    bit: u64,
}

impl QgramFilter<'_> {
    /// The verdict on one candidate whose read has the `grams` (none
    /// when it is shorter than q).
    fn probe(&self, grams: &[Gram], candidate: &Candidate<'_>) -> Verdict {
        let q = self.bins.q;
        if grams.is_empty() {
            // No gram to test; the lemma gives no rejection power.
            return Verdict::accept(1);
        }
        let count = grams.len() as i64;
        let needed = count - q as i64 * i64::from(candidate.delta);
        if needed <= 0 {
            // Lemma threshold degenerate: every candidate passes.
            return Verdict::accept(1);
        }
        let (lo, hi) = self
            .bins
            .bin_range(candidate.window_start, candidate.window.len());
        let spans = (hi - lo + 1) as u64;
        let per_bin = self.bins.words_per_bin;
        let spanned = &self.bins.bits[lo * per_bin..(hi + 1) * per_bin];
        let budget = count - needed; // misses allowed before rejection
        let (mut found, mut probes) = (0i64, 0i64);
        for block in grams.chunks(BLOCK) {
            // Bit j: the block's gram j starts in one of the spanned bins.
            let bits = match spans {
                1 => match <&[u64; DEFAULT_WORDS]>::try_from(spanned) {
                    // The default bin: its words indexed without a bounds check.
                    Ok(bin) => gather(block, |word| bin[word % DEFAULT_WORDS]),
                    Err(_) => gather(block, |word| spanned[word]),
                },
                2 => {
                    let (first, second) = spanned.split_at(per_bin);
                    gather(block, |word| first[word] | second[word])
                }
                _ => gather(block, |word| {
                    spanned
                        .chunks_exact(per_bin)
                        .fold(0, |seen, bin| seen | bin[word])
                }),
            };
            let len = block.len() as i64;
            let hits = i64::from(bits.count_ones());
            if found + hits < needed && probes - found + len - hits <= budget {
                found += hits;
                probes += len;
                continue;
            }
            // The filter stops inside this block, at the earlier of the
            // found bit that reaches the threshold (a sound early accept)
            // and the missing one that puts it out of reach.
            let missing = !bits & (u64::MAX >> (64 - len));
            let reach = nth_set_bit(bits, (needed - found) as u32);
            let out = nth_set_bit(missing, (budget + 1 - (probes - found)) as u32);
            let stop = reach.min(out);
            found += i64::from((bits & (u64::MAX >> (63 - stop))).count_ones());
            probes += i64::from(stop) + 1;
            break;
        }
        // Cost calibration: one existence probe is a rolling-hash
        // update plus `spans` masked word reads — charge 8 probes per
        // word-unit of the Myers currency (a word update is itself a
        // dozen-op bundle).
        let cost = (probes as u64 * spans).div_ceil(8).max(1);
        if found >= needed {
            Verdict::accept(cost)
        } else {
            Verdict::reject(cost)
        }
    }
}

/// Words of a bin at the default q.
const DEFAULT_WORDS: usize = (1 << (2 * DEFAULT_Q)) / 64;

/// Probes gathered before the filter checks whether it stops: a sixth
/// of a 100-base read's grams, so that a candidate rejected early is not
/// probed far past its stop.
const BLOCK: usize = 16;

/// Bit `j` set when gram `j` of `block` is in the spanned bins, whose
/// merged word `word` `seen` returns.
#[inline(always)]
fn gather(block: &[Gram], seen: impl Fn(usize) -> u64) -> u64 {
    block.iter().rev().fold(0, |bits, gram| {
        bits << 1 | u64::from(seen(gram.word) & gram.bit != 0)
    })
}

/// The position of the `n`-th (from 1) set bit of a block's `word` (16
/// bits at most), or 64 when it has fewer than `n`: a table lookup in
/// each byte, so that where a candidate stops costs no mispredicted
/// branch.
fn nth_set_bit(word: u64, n: u32) -> u32 {
    debug_assert!(word < 1 << BLOCK && n >= 1);
    let (low, high) = ((word & 0xFF) as usize, (word >> 8) as usize);
    let k = (n - 1) as usize;
    let in_low = low.count_ones() as usize;
    let from_low = u32::from(NTH_IN_BYTE[low][k.min(8)]);
    let from_high = u32::from(NTH_IN_BYTE[high][k.saturating_sub(in_low).min(8)]) + 8;
    if k < in_low {
        from_low
    } else {
        from_high.min(64)
    }
}

/// `NTH_IN_BYTE[b][k]`: the position of set bit `k` (from 0) of byte `b`,
/// or 64 when `b` has `k` set bits or fewer.
const NTH_IN_BYTE: [[u8; 9]; 256] = {
    let mut table = [[64u8; 9]; 256];
    let mut byte = 0;
    while byte < 256 {
        let (mut bit, mut k) = (0, 0);
        while bit < 8 {
            if byte >> bit & 1 != 0 {
                table[byte][k] = bit as u8;
                k += 1;
            }
            bit += 1;
        }
        byte += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Vec<u8> {
        (0..4096u64)
            .map(|i| {
                let mut x = i.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17);
                x ^= x >> 31;
                (x & 3) as u8
            })
            .collect()
    }

    fn candidate<'a>(read: &'a [u8], window: &'a [u8], start: usize, delta: u32) -> Candidate<'a> {
        Candidate {
            read,
            window,
            window_start: start,
            delta,
        }
    }

    #[test]
    fn nth_set_bit_matches_a_bit_scan_on_every_block_word() {
        for word in 0..1u64 << BLOCK {
            let mut set = (0..BLOCK as u32).filter(|&bit| word >> bit & 1 != 0);
            for n in 1..=BLOCK as u32 + 1 {
                let expected = set.next().unwrap_or(64);
                assert_eq!(nth_set_bit(word, n), expected, "word {word:#x}, n {n}");
            }
        }
    }

    #[test]
    fn build_rejects_bad_params() {
        let r = reference();
        assert!(std::panic::catch_unwind(|| QgramBins::build(&r, 0, 512)).is_err());
        assert!(std::panic::catch_unwind(|| QgramBins::build(&r, MAX_Q + 1, 512)).is_err());
        for width in [0, 3, 100, 513] {
            assert!(std::panic::catch_unwind(|| QgramBins::build(&r, 5, width)).is_err());
        }
    }

    #[test]
    fn accessors_and_sizing() {
        let r = reference();
        let bins = QgramBins::build(&r, 5, 512);
        assert_eq!(bins.q(), 5);
        assert_eq!(bins.bin_width(), 512);
        assert_eq!(bins.bins(), 8);
        assert_eq!(bins.heap_bytes(), 8 * 16 * 8);
    }

    #[test]
    fn planted_read_is_accepted() {
        let r = reference();
        let bins = QgramBins::build_default(&r);
        let filter = QgramFilter::new(&bins);
        let delta = 5u32;
        let start = 1000 - delta as usize;
        let window = &r[start..1100 + delta as usize];
        let read = r[1000..1100].to_vec();
        let v = filter.examine(&candidate(&read, window, start, delta));
        assert!(v.accept);
        assert!(v.cost_words > 0);
    }

    #[test]
    fn planted_read_with_substitutions_is_accepted() {
        let r = reference();
        let bins = QgramBins::build_default(&r);
        let filter = QgramFilter::new(&bins);
        let mut read = r[2000..2100].to_vec();
        for pos in [5usize, 30, 55, 80, 95] {
            read[pos] = (read[pos] + 1) % 4;
        }
        let window = &r[1995..2105];
        assert!(filter.examine(&candidate(&read, window, 1995, 5)).accept);
    }

    #[test]
    fn foreign_read_is_rejected() {
        let r = reference();
        let bins = QgramBins::build_default(&r);
        let filter = QgramFilter::new(&bins);
        // A read of grams the reference bins almost surely lack: a
        // de-Bruijn-ish alternation absent from the hashed reference.
        let read: Vec<u8> = (0..100).map(|i| [0u8, 0, 1, 0, 0, 2][i % 6]).collect();
        let window = &r[500..610];
        let v = filter.examine(&candidate(&read, window, 500, 3));
        assert!(!v.accept, "foreign read passed the bin filter");
    }

    #[test]
    fn window_spanning_bins_is_covered() {
        let r = reference();
        let bins = QgramBins::build(&r, 5, 64); // narrow bins: windows span several
        let filter = QgramFilter::new(&bins);
        let read = r[300..400].to_vec(); // crosses bins 4..=6
        let window = &r[295..405];
        assert!(filter.examine(&candidate(&read, window, 295, 5)).accept);
    }

    #[test]
    fn window_at_reference_end_is_clamped() {
        let r = reference();
        let bins = QgramBins::build_default(&r);
        let filter = QgramFilter::new(&bins);
        let read = r[4000..4090].to_vec();
        let window = &r[3995..4096];
        assert!(filter.examine(&candidate(&read, window, 3995, 5)).accept);
    }

    #[test]
    fn short_read_and_degenerate_threshold_accept() {
        let r = reference();
        let bins = QgramBins::build_default(&r);
        let filter = QgramFilter::new(&bins);
        let read = r[10..13].to_vec(); // shorter than q
        assert!(filter.examine(&candidate(&read, &r[5..20], 5, 2)).accept);
        // 20-base read at δ=5: L = 16 ≤ qδ = 25 → lemma says nothing.
        let read = r[60..80].to_vec();
        assert!(filter.examine(&candidate(&read, &r[55..85], 55, 5)).accept);
    }
}
