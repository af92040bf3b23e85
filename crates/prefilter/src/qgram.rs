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
    bin_width: usize,
    ref_len: usize,
    words_per_bin: usize,
    bits: Vec<u64>,
}

impl QgramBins {
    /// Builds the bins with the default q and bin width.
    pub fn build_default(codes: &[u8]) -> QgramBins {
        QgramBins::build(codes, DEFAULT_Q, DEFAULT_BIN_WIDTH)
    }

    /// Builds the bins: bit `h` of bin `b` is set iff the q-gram with
    /// 2-bit code `h` *starts* at some reference position in
    /// `[b·width, (b+1)·width)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is 0 or exceeds [`MAX_Q`], or if `bin_width` is 0.
    pub fn build(codes: &[u8], q: usize, bin_width: usize) -> QgramBins {
        assert!((1..=MAX_Q).contains(&q), "q must be in 1..={MAX_Q}");
        assert!(bin_width > 0, "bin width must be positive");
        let words_per_bin = (1usize << (2 * q)).div_ceil(64);
        let bins = codes.len().div_ceil(bin_width).max(1);
        let mut bits = vec![0u64; bins * words_per_bin];
        let mask = (1u64 << (2 * q)) - 1;
        let mut hash = 0u64;
        for (i, &code) in codes.iter().enumerate() {
            hash = ((hash << 2) | u64::from(code & 3)) & mask;
            if i + 1 >= q {
                let start = i + 1 - q;
                let bin = start / bin_width;
                let word = bin * words_per_bin + (hash / 64) as usize;
                bits[word] |= 1 << (hash % 64);
            }
        }
        QgramBins {
            q,
            bin_width,
            ref_len: codes.len(),
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
        self.bin_width
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.bits.len() / self.words_per_bin
    }

    /// Heap bytes held by the bitvectors (an index-size statistic).
    pub fn heap_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// The inclusive bin range containing every q-gram start of the
    /// window `[start, start + len)`, clamped to the reference.
    fn bin_range(&self, start: usize, len: usize) -> (usize, usize) {
        let last_bin = self.bins() - 1;
        let lo = (start / self.bin_width).min(last_bin);
        let last_start = (start + len.saturating_sub(self.q)).min(self.ref_len);
        let hi = (last_start / self.bin_width).min(last_bin);
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
        let q = self.bins.q;
        let m = candidate.read.len();
        if m < q {
            // No gram to test; the lemma gives no rejection power.
            return Verdict::accept(1);
        }
        let grams = (m - q + 1) as i64;
        let needed = grams - q as i64 * i64::from(candidate.delta);
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
        let mask = (1u64 << (2 * q)) - 1;
        let (head, probed) = candidate.read.split_at(q - 1);
        let mut hash = head
            .iter()
            .fold(0u64, |hash, &code| (hash << 2) | u64::from(code & 3));
        let mut found = 0i64;
        let mut missing = 0i64;
        let mut probes = 0u64;
        let budget = grams - needed; // misses allowed before rejection
        for &code in probed {
            hash = ((hash << 2) | u64::from(code & 3)) & mask;
            // Found or missing is a coin flip on exactly the candidates
            // the filter exists to reject: count both without a branch,
            // and leave one that is not taken until the last probe.
            let seen = spanned
                .chunks_exact(per_bin)
                .fold(0u64, |seen, bin| seen | bin[(hash / 64) as usize]);
            let bit = (seen >> (hash % 64) & 1) as i64;
            probes += 1;
            found += bit;
            missing += 1 - bit;
            // A sound early accept, or the threshold out of reach.
            if (found >= needed) | (missing > budget) {
                break;
            }
        }
        // Cost calibration: one existence probe is a rolling-hash
        // update plus `spans` masked word reads — charge 8 probes per
        // word-unit of the Myers currency (a word update is itself a
        // dozen-op bundle).
        let cost = (probes * spans).div_ceil(8).max(1);
        if found >= needed {
            Verdict::accept(cost)
        } else {
            Verdict::reject(cost)
        }
    }

    fn name(&self) -> &'static str {
        "qgram"
    }
}

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
    fn build_rejects_bad_params() {
        let r = reference();
        assert!(std::panic::catch_unwind(|| QgramBins::build(&r, 0, 512)).is_err());
        assert!(std::panic::catch_unwind(|| QgramBins::build(&r, MAX_Q + 1, 512)).is_err());
        assert!(std::panic::catch_unwind(|| QgramBins::build(&r, 5, 0)).is_err());
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
