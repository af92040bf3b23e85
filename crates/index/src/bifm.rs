//! Bidirectional FM-Index (2BWT) and super-maximal exact matches.
//!
//! A single FM-Index only extends patterns leftward. Pairing it with an
//! index of the *reversed* text (Lam et al. 2009) keeps two synchronised
//! intervals — one per direction — so a match can grow either way in
//! O(σ) rank queries. This is the machinery behind BWA-MEM's SMEM seeding
//! (Li 2012) and the seed extension of GEM/Yara; the BWA-MEM baseline of
//! this reproduction uses [`BiFmIndex::smems`] for its seeds.

use repute_genome::{Base, DnaSeq};

use crate::fm::{FmIndex, Interval};

/// A pair of synchronised intervals: `fwd` in the index of the text,
/// `rev` in the index of the reversed text. Both always have the same
/// width (the occurrence count of the current pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BiInterval {
    /// Interval of the pattern in the forward index.
    pub fwd: Interval,
    /// Interval of the reversed pattern in the reverse index.
    pub rev: Interval,
}

impl BiInterval {
    /// Occurrence count of the pattern.
    pub fn width(self) -> u32 {
        self.fwd.width()
    }

    /// Returns `true` when the pattern no longer occurs.
    pub fn is_empty(self) -> bool {
        self.fwd.is_empty()
    }
}

/// A maximal exact match of a read against the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Smem {
    /// Start offset in the read (inclusive).
    pub start: usize,
    /// End offset in the read (exclusive).
    pub end: usize,
    /// Match interval (forward index), ready for locating.
    pub interval: Interval,
}

impl Smem {
    /// Match length in bases.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `false` always (SMEMs are at least one base long).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The bidirectional index.
///
/// # Example
///
/// ```
/// use repute_genome::DnaSeq;
/// use repute_index::BiFmIndex;
///
/// # fn main() -> Result<(), repute_genome::GenomeError> {
/// let reference: DnaSeq = "ACGTACGTTTACGT".parse()?;
/// let bi = BiFmIndex::build(&reference);
/// // Grow "CG" rightwards into "CGT": both directions stay in sync.
/// let mut iv = bi.init();
/// iv = bi.extend_left(iv, 2); // G
/// iv = bi.extend_left(iv, 1); // C → "CG"
/// let cgt = bi.extend_right(iv, 3); // → "CGT"
/// assert_eq!(cgt.width(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BiFmIndex {
    fwd: FmIndex,
    rev: FmIndex,
}

impl BiFmIndex {
    /// Builds both directions' indexes.
    pub fn build(reference: &DnaSeq) -> BiFmIndex {
        let reversed: DnaSeq = (0..reference.len())
            .rev()
            .map(|i| reference.base(i))
            .collect();
        BiFmIndex {
            fwd: FmIndex::build(reference),
            rev: FmIndex::build(&reversed),
        }
    }

    /// The forward index (for locating matches).
    pub fn forward(&self) -> &FmIndex {
        &self.fwd
    }

    /// The interval pair of the empty pattern.
    pub fn init(&self) -> BiInterval {
        BiInterval {
            fwd: self.fwd.full_interval(),
            rev: self.rev.full_interval(),
        }
    }

    /// Widths of all four left extensions of the pattern plus the count
    /// of occurrences at the very start of the text (preceded by the
    /// conceptual sentinel).
    fn left_extension_widths(&self, iv: BiInterval) -> ([u32; 4], [Interval; 4], u32) {
        let mut widths = [0u32; 4];
        let mut intervals = [iv.fwd; 4];
        let mut covered = 0u32;
        for b in Base::ALL {
            let ext = self.fwd.extend_left(iv.fwd, b.code());
            widths[b.code() as usize] = ext.width();
            intervals[b.code() as usize] = ext;
            covered += ext.width();
        }
        (widths, intervals, iv.width() - covered)
    }

    /// Extends the pattern one base to the left (`code·P`).
    ///
    /// # Panics
    ///
    /// Panics if `code > 3`.
    pub fn extend_left(&self, iv: BiInterval, code: u8) -> BiInterval {
        assert!(code <= 3, "base code {code} out of range");
        let (widths, intervals, sentinel) = self.left_extension_widths(iv);
        // Occurrences of rev(P)·x sort by x inside the rev interval, with
        // the text-start occurrences (sentinel-followed) first.
        let mut lo = iv.rev.lo + sentinel;
        for b in 0..code {
            lo += widths[b as usize];
        }
        let w = widths[code as usize];
        BiInterval {
            fwd: intervals[code as usize],
            rev: Interval { lo, hi: lo + w },
        }
    }

    /// Extends the pattern one base to the right (`P·code`).
    ///
    /// # Panics
    ///
    /// Panics if `code > 3`.
    pub fn extend_right(&self, iv: BiInterval, code: u8) -> BiInterval {
        assert!(code <= 3, "base code {code} out of range");
        // Mirror image: extend the reversed pattern leftward in the
        // reverse index.
        let mirrored = BiInterval {
            fwd: iv.rev,
            rev: iv.fwd,
        };
        let mut widths = [0u32; 4];
        let mut intervals = [mirrored.fwd; 4];
        let mut covered = 0u32;
        for b in Base::ALL {
            let ext = self.rev.extend_left(mirrored.fwd, b.code());
            widths[b.code() as usize] = ext.width();
            intervals[b.code() as usize] = ext;
            covered += ext.width();
        }
        let sentinel = mirrored.width() - covered;
        let mut lo = mirrored.rev.lo + sentinel;
        for b in 0..code {
            lo += widths[b as usize];
        }
        let w = widths[code as usize];
        BiInterval {
            fwd: Interval { lo, hi: lo + w },
            rev: intervals[code as usize],
        }
    }

    /// Backward-searches a whole pattern (left extensions only).
    ///
    /// Returns `None` when the pattern does not occur.
    pub fn search(&self, pattern: &[u8]) -> Option<BiInterval> {
        let mut iv = self.init();
        for &c in pattern.iter().rev() {
            iv = self.extend_left(iv, c);
            if iv.is_empty() {
                return None;
            }
        }
        Some(iv)
    }

    /// Computes the super-maximal exact matches of `read` (Li 2012,
    /// Algorithm 2 shape): exact matches that cannot be extended in
    /// either direction and are not contained in any other maximal match.
    /// Matches shorter than `min_len` are dropped. Returns the SMEMs in
    /// read order, plus the number of bidirectional extension steps spent
    /// (each costs ~4 rank-query pairs).
    pub fn smems(&self, read: &[u8], min_len: usize) -> (Vec<Smem>, u64) {
        let n = read.len();
        let mut out = Vec::new();
        let mut steps = 0u64;
        let mut x = 0usize;
        while x < n {
            // Forward pass: grow [x, e) rightward, recording the interval
            // at every width change.
            let mut curr: Vec<(usize, BiInterval)> = Vec::new(); // (end, interval)
            let mut iv = self.init();
            let mut e = x;
            while e < n {
                let next = self.extend_right(iv, read[e]);
                steps += 1;
                if next.is_empty() {
                    break;
                }
                if curr
                    .last()
                    .is_none_or(|&(_, last)| next.width() != last.width())
                {
                    curr.push((e + 1, next));
                } else {
                    curr.last_mut().expect("non-empty").0 = e + 1;
                }
                iv = next;
                e += 1;
            }
            if curr.is_empty() {
                // read[x] does not occur at all.
                x += 1;
                continue;
            }
            // Backward pass: for matches ending at each recorded end,
            // grow leftward from x−1; the longest left-extension wins and
            // supermaximality drops dominated candidates.
            let next_x = curr.last().expect("non-empty").0;
            // Candidates in decreasing end order.
            let mut best_start_emitted = usize::MAX;
            for &(end, end_iv) in curr.iter().rev() {
                let mut iv = end_iv;
                let mut s = x;
                while s > 0 {
                    let ext = self.extend_left(iv, read[s - 1]);
                    steps += 1;
                    if ext.is_empty() {
                        break;
                    }
                    iv = ext;
                    s -= 1;
                }
                // A candidate is supermaximal only if its left end is
                // strictly left of every already-emitted match's start
                // (longer ends were processed first).
                if s < best_start_emitted {
                    best_start_emitted = s;
                    if end - s >= min_len {
                        out.push(Smem {
                            start: s,
                            end,
                            interval: iv.fwd,
                        });
                    }
                }
            }
            x = next_x.max(x + 1);
        }
        out.sort_by_key(|m| (m.start, m.end));
        out.dedup();
        (out, steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repute_genome::rng::StdRng;
    use repute_genome::synth::ReferenceBuilder;

    fn naive_count(text: &[u8], pattern: &[u8]) -> u32 {
        if pattern.is_empty() {
            return text.len() as u32 + 1;
        }
        if pattern.len() > text.len() {
            return 0;
        }
        text.windows(pattern.len())
            .filter(|w| *w == pattern)
            .count() as u32
    }

    #[test]
    fn left_and_right_extensions_agree_with_naive_counts() {
        let mut rng = StdRng::seed_from_u64(501);
        let codes: Vec<u8> = (0..1500).map(|_| rng.gen_range(0..4)).collect();
        let seq = DnaSeq::from_codes(&codes).unwrap();
        let bi = BiFmIndex::build(&seq);
        for _ in 0..60 {
            let len = rng.gen_range(1..12usize);
            let start = rng.gen_range(0..codes.len() - len);
            let pattern = &codes[start..start + len];
            // Build the pattern by a random mix of left/right extensions.
            let mut lo = rng.gen_range(0..len);
            let mut hi = lo;
            let mut iv = bi.init();
            while hi - lo < len {
                if (lo > 0 && rng.gen::<bool>()) || hi == len {
                    lo -= 1;
                    iv = bi.extend_left(iv, pattern[lo]);
                } else {
                    iv = bi.extend_right(iv, pattern[hi]);
                    hi += 1;
                }
            }
            assert_eq!(
                iv.width(),
                naive_count(&codes, pattern),
                "pattern {pattern:?}"
            );
            // Both directions stay in sync.
            assert_eq!(iv.fwd.width(), iv.rev.width());
            // And the forward interval matches a plain backward search.
            assert_eq!(Some(iv.fwd), bi.forward().interval(pattern));
        }
    }

    #[test]
    fn search_matches_fm_interval() {
        let reference = ReferenceBuilder::new(5_000).seed(502).build();
        let codes = reference.to_codes();
        let bi = BiFmIndex::build(&reference);
        for start in (0..4_900).step_by(173) {
            let pattern = &codes[start..start + 16];
            let via_bi = bi.search(pattern).map(|iv| iv.fwd);
            assert_eq!(via_bi, bi.forward().interval(pattern));
        }
    }

    fn naive_smems(text: &[u8], read: &[u8], min_len: usize) -> Vec<(usize, usize)> {
        // All maximal exact matches by brute force, then drop contained
        // ones.
        let n = read.len();
        let occurs = |s: usize, e: usize| naive_count(text, &read[s..e]) > 0;
        let mut mems = Vec::new();
        for s in 0..n {
            if !occurs(s, s + 1) {
                continue;
            }
            let mut e = s + 1;
            while e < n && occurs(s, e + 1) {
                e += 1;
            }
            // Maximal to the right from s; check left-maximality.
            let left_extendable = s > 0 && occurs(s - 1, e);
            if !left_extendable && e - s >= min_len {
                mems.push((s, e));
            }
        }
        // Supermaximal: not contained in another.
        mems.iter()
            .copied()
            .filter(|&(s, e)| {
                !mems
                    .iter()
                    .any(|&(s2, e2)| (s2, e2) != (s, e) && s2 <= s && e <= e2)
            })
            .collect()
    }

    #[test]
    fn smems_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(503);
        for trial in 0..40 {
            let text_codes: Vec<u8> = (0..400).map(|_| rng.gen_range(0..4)).collect();
            let seq = DnaSeq::from_codes(&text_codes).unwrap();
            let bi = BiFmIndex::build(&seq);
            // Reads stitched from reference pieces + noise, so MEM
            // structure is non-trivial.
            let mut read = Vec::new();
            for _ in 0..3 {
                let s = rng.gen_range(0..text_codes.len() - 20);
                read.extend_from_slice(&text_codes[s..s + rng.gen_range(5..20)]);
                read.push(rng.gen_range(0..4));
            }
            let (got, steps) = bi.smems(&read, 1);
            let got_spans: Vec<(usize, usize)> = got.iter().map(|m| (m.start, m.end)).collect();
            let expected = naive_smems(&text_codes, &read, 1);
            assert_eq!(got_spans, expected, "trial {trial} read {read:?}");
            assert!(steps > 0);
            // Interval counts are correct.
            for m in &got {
                assert_eq!(
                    m.interval.width(),
                    naive_count(&text_codes, &read[m.start..m.end])
                );
            }
        }
    }

    #[test]
    fn smems_respect_min_len() {
        let reference = ReferenceBuilder::new(20_000).seed(504).build();
        let read = reference.subseq(500..600).to_codes();
        let bi = BiFmIndex::build(&reference);
        let (all, _) = bi.smems(&read, 1);
        let (long, _) = bi.smems(&read, 25);
        assert!(long.len() <= all.len());
        assert!(long.iter().all(|m| m.len() >= 25));
        // An exact read produces one SMEM covering everything.
        let whole = all.iter().find(|m| m.start == 0 && m.end == 100);
        assert!(whole.is_some(), "full-read SMEM missing: {all:?}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_code_rejected() {
        let seq: DnaSeq = "ACGT".parse().unwrap();
        let bi = BiFmIndex::build(&seq);
        let _ = bi.extend_left(bi.init(), 4);
    }
}
