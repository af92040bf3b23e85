//! Shifted Hamming Distance pre-alignment filter (GateKeeper-style).
//!
//! GateKeeper (Alser et al.) rejects candidate windows in FPGA logic by
//! building Hamming masks of the read against the window at every
//! diagonal shift a ≤ δ-edit alignment could use, *amending* short
//! match runs (which are overwhelmingly coincidental), ANDing the
//! masks, and thresholding what survives. This module is the portable
//! bit-parallel reformulation: masks are `u64` words, one bit per read
//! base, and all mask arithmetic runs through [`crate::bits`].
//!
//! # The kernel
//!
//! A base is two bits, so a sequence is two *bit-planes*. The candidate
//! window is packed once into its two planes plus a third marking the
//! positions that lie inside it, and the read into its two; the match
//! mask of one shift is then `!(r_lo ^ w_lo≫t) & !(r_hi ^ w_hi≫t) &
//! inside≫t`, a few word operations where the hardware has a few gates.
//! Amendment, the AND into the running mask and the popcount behind the
//! early accept work on those words as well; only the final streak
//! bound looks at runs, and takes them off a word whole.
//! `tests/kernel_oracle.rs` holds verdict and cost equal to the
//! base-by-base formulation this replaced.
//!
//! # Deviations from the hardware formulation — and why
//!
//! The issue sketch (and GateKeeper itself, which assumes an
//! equal-length window) prescribes **2δ+1** shifts and rejection when
//! the surviving **mismatch count** exceeds δ. Both parts are unsound
//! against this pipeline's verifier and are adjusted here:
//!
//! * **Shift range.** `VerifyEngine` windows carry δ bases of slack on
//!   *both* sides (`window = read + 2δ`), and `repute_align::verify` is
//!   semi-global over that window. A read base `i` may therefore align
//!   at window offset `i + s` for any `s ∈ [−δ, wlen − m + δ]` — that
//!   is **4δ+1** shifts for the standard window, collapsing to
//!   GateKeeper's 2δ+1 exactly when `wlen == m`. Using fewer shifts
//!   rejects genuinely verifiable alignments near the window edges.
//! * **Acceptance rule.** Counting surviving 1s and comparing against δ
//!   admits false negatives: δ clustered substitutions spaced two apart
//!   leave length-1 match runs between them, amendment flips those to
//!   mismatches, and the count lands near 2δ > δ. Instead we convert
//!   the surviving 1-bits into a provable *lower bound on the edits any
//!   alignment must spend* and reject only when that bound exceeds δ.
//!   In a true ≤ δ-edit alignment every surviving 1 is an edit position
//!   (substitution/insertion) or part of an amended match segment of at
//!   most 2 bases (longer segments survive amendment); one edit can
//!   therefore extend a maximal 1-streak by at most 3 bits, so a streak
//!   of length ℓ witnesses `max(1, ⌈(ℓ−2)/3⌉)` edits, streaks claim
//!   disjoint edits (two segments split only by a deletion stay
//!   adjacent, hence in one streak), and the per-streak sum
//!   ([`crate::bits::streak_edit_bound`]) never exceeds the alignment's
//!   true edit count. The randomized and corpus tests in `tests/`
//!   check this against the verifier oracle.
//!
//! A cheap sound shortcut runs first: if the surviving mismatch
//! *popcount* is already ≤ δ the candidate is accepted without the
//! streak scan (the bound charges at most 1 per surviving bit).

use crate::bits::{and_shl1, or_shr1, pack_planes, set_range, streak_edit_bound, word_at};
use crate::{Candidate, PreFilter, Verdict};

/// Mask words kept on the stack: reads up to `8 × 64 = 512` bases (far
/// beyond the paper's 100–150bp) run with zero heap allocation.
const STACK_WORDS: usize = 8;

/// Words per window plane kept on the stack: a 512-base read's
/// `read + 2δ` window up to δ = 31, laid out δ bits up, with the spare
/// word [`word_at`] reads past the last shift.
const STACK_PLANE_WORDS: usize = STACK_WORDS + 2;

/// The SHD filter. Stateless aside from its amendment knob; build once
/// and share freely across threads.
#[derive(Debug, Clone, Copy)]
pub struct ShdFilter {
    amend_below: usize,
}

impl Default for ShdFilter {
    fn default() -> ShdFilter {
        ShdFilter::new()
    }
}

impl ShdFilter {
    /// Match runs shorter than this many bases are amended to
    /// mismatches before the AND — GateKeeper's "short streak" cutoff.
    /// Runs of 1–2 matching bases between random sequences occur with
    /// probability ~1/4 per base and carry almost no alignment signal.
    pub const DEFAULT_AMEND_BELOW: usize = 3;

    /// Creates the filter with the default amendment cutoff.
    pub fn new() -> ShdFilter {
        ShdFilter {
            amend_below: Self::DEFAULT_AMEND_BELOW,
        }
    }

    /// Overrides the amendment cutoff: match runs shorter than `below`
    /// bases are treated as mismatches. `below ≤ 1` disables amendment
    /// (maximum safety margin, minimal rejection power).
    ///
    /// # Panics
    ///
    /// Panics if `below == 0` (a zero-length run cannot exist; use 1 to
    /// disable amendment).
    pub fn with_amend_below(mut self, below: usize) -> ShdFilter {
        assert!(below > 0, "amendment cutoff must be at least 1");
        self.amend_below = below;
        self
    }

    /// Examines raw code slices (the [`PreFilter`] impl delegates
    /// here). `window` is the exact slice the verifier would align
    /// against; `delta` its error budget. Codes are 2-bit (`0..=3`).
    pub fn examine_codes(&self, read: &[u8], window: &[u8], delta: u32) -> Verdict {
        let m = read.len();
        let wlen = window.len();
        if m < self.amend_below {
            // Degenerate: amendment could erase a 0-edit whole-read
            // match run, so the streak bound is not sound here. Reads
            // this short carry no signal anyway — accept.
            return Verdict::accept(u64::from(m > 0));
        }
        // A semi-global alignment consumes the whole read, so a read
        // overhanging the window by more than δ needs > δ deletions:
        // provably unverifiable, reject at unit cost.
        if m > wlen + delta as usize {
            return Verdict::reject(1);
        }
        let words = m.div_ceil(64);
        if delta as usize >= m {
            // Whatever the bases, the first mask leaves ≤ m ≤ δ
            // mismatches and the early accept below fires on it. Said
            // here, so that δ < m bounds the planes by the inputs.
            return Verdict::accept(2 * words as u64);
        }
        let slack = delta as usize;
        // Window offsets a read base can occupy across all ≤ δ-edit
        // semi-global alignments (see module docs): s ∈ [−δ, wlen − m + δ].
        // The window is laid out δ bits up, so that shift s reads it
        // `t = s + δ ≥ 0` bits down and no shift is negative.
        let shifts = wlen + 2 * slack - m + 1;
        let plane_words = words + (shifts - 1) / 64 + 1;
        // The window, packed once: its two code bit-planes and the plane
        // of positions inside it. Stack-backed for realistic lengths, as
        // the masks are; one heap allocation each beyond.
        let mut stack = [0u64; 3 * STACK_PLANE_WORDS];
        let mut heap = Vec::new();
        let planes = if plane_words <= STACK_PLANE_WORDS {
            &mut stack[..3 * plane_words]
        } else {
            heap.resize(3 * plane_words, 0u64);
            &mut heap[..]
        };
        let (lo, rest) = planes.split_at_mut(plane_words);
        let (hi, inside) = rest.split_at_mut(plane_words);
        pack_planes(window, slack, lo, hi);
        set_range(inside, slack..slack + wlen);
        let window = [&*lo, &*hi, &*inside];
        // One kernel for every length; up to the stack limit the compiler
        // is told the mask width, and keeps the masks in registers.
        match words {
            1 => self.sweep_on_stack::<1>(read, window, shifts, delta),
            2 => self.sweep_on_stack::<2>(read, window, shifts, delta),
            3 => self.sweep_on_stack::<3>(read, window, shifts, delta),
            4 => self.sweep_on_stack::<4>(read, window, shifts, delta),
            5 => self.sweep_on_stack::<5>(read, window, shifts, delta),
            6 => self.sweep_on_stack::<6>(read, window, shifts, delta),
            7 => self.sweep_on_stack::<7>(read, window, shifts, delta),
            STACK_WORDS => self.sweep_on_stack::<STACK_WORDS>(read, window, shifts, delta),
            _ => self.sweep(read, window, shifts, delta, &mut vec![0u64; 4 * words]),
        }
    }

    fn sweep_on_stack<const W: usize>(
        &self,
        read: &[u8],
        window: [&[u64]; 3],
        shifts: usize,
        delta: u32,
    ) -> Verdict {
        self.sweep(
            read,
            window,
            shifts,
            delta,
            [[0u64; W]; 4].as_flattened_mut(),
        )
    }

    /// Builds, amends and ANDs the masks of shifts `0..shifts` of `read`
    /// against the packed `window` planes until the early accept fires,
    /// in four zeroed mask-width buffers cut from `scratch`.
    ///
    /// Inlined into each `sweep_on_stack::<W>` on purpose: only there is
    /// the mask width a constant (1.8× on a 100-base read).
    #[inline(always)]
    fn sweep(
        &self,
        read: &[u8],
        window: [&[u64]; 3],
        shifts: usize,
        delta: u32,
        scratch: &mut [u64],
    ) -> Verdict {
        let [w_lo, w_hi, inside] = window;
        let words = scratch.len() / 4;
        let (r_lo, rest) = scratch.split_at_mut(words);
        let (r_hi, rest) = rest.split_at_mut(words);
        let (acc, matches) = rest.split_at_mut(words);
        pack_planes(read, 0, r_lo, r_hi);
        acc.fill(u64::MAX);
        // Padding above the read never matches, so it never masquerades
        // as a match run; `live` is the read's share of the last word.
        let pad = (words * 64 - read.len()) as u32;
        let live = u64::MAX >> pad;

        let mut masks_built = 0u64;
        let mut accepted_early = false;
        for t in 0..shifts {
            // Match mask of shift t: bit i set when read[i] equals
            // window[i + t − δ] and that position is inside the window.
            for (k, word) in matches.iter_mut().enumerate() {
                let at = 64 * k + t;
                *word = !(r_lo[k] ^ word_at(w_lo, at))
                    & !(r_hi[k] ^ word_at(w_hi, at))
                    & word_at(inside, at);
            }
            matches[words - 1] &= live;
            // Amendment: a match survives only in a run of ≥ amend_below
            // matches. The classic two-shift trick, generalised — each
            // `and_shl1` strips the bottom match off every run, leaving
            // only the tops of the long ones, and each `or_shr1` grows
            // those back down by the one match the run had lost.
            for _ in 1..self.amend_below {
                and_shl1(matches);
            }
            for _ in 1..self.amend_below {
                or_shr1(matches);
            }
            // Everything else is a mismatch; AND it into the running mask.
            let mut mismatches = 0u32;
            for (a, &kept) in acc.iter_mut().zip(matches.iter()) {
                *a &= !kept;
                mismatches += a.count_ones();
            }
            masks_built += 1;
            // Sound early accept: popcount only ever shrinks under AND.
            if mismatches - pad <= delta {
                accepted_early = true;
                break;
            }
        }
        // One pipelined pass (XOR-build, amend, AND, count) per mask
        // word is charged one unit of the Myers word-update currency —
        // both are short fixed bundles of 64-lane bitwise ops — plus
        // one final counting pass.
        let cost = (masks_built + 1) * words as u64;
        if accepted_early || streak_edit_bound(acc, read.len()) <= u64::from(delta) {
            Verdict::accept(cost)
        } else {
            Verdict::reject(cost)
        }
    }
}

impl PreFilter for ShdFilter {
    fn examine(&self, candidate: &Candidate<'_>) -> Verdict {
        self.examine_codes(candidate.read, candidate.window, candidate.delta)
    }

    fn name(&self) -> &'static str {
        "shd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(read: &[u8], window: &[u8], delta: u32) -> Verdict {
        ShdFilter::new().examine_codes(read, window, delta)
    }

    #[test]
    fn exact_match_is_accepted() {
        let window: Vec<u8> = (0..110)
            .map(|i| (i % 4) as u8 ^ (i / 7 % 4) as u8)
            .collect();
        let read = window[5..105].to_vec();
        let v = verdict(&read, &window, 5);
        assert!(v.accept);
        assert!(v.cost_words > 0);
    }

    #[test]
    fn shifted_exact_match_is_accepted_at_every_offset() {
        // The read sits at every possible offset of the padded window —
        // all 4δ+1 diagonals must be covered.
        let delta = 4u32;
        let window: Vec<u8> = (0..48).map(|i| ((i * 7 + i / 3) % 4) as u8).collect();
        let m = window.len() - 2 * delta as usize;
        for offset in 0..=(2 * delta as usize) {
            let read = window[offset..offset + m].to_vec();
            assert!(
                verdict(&read, &window, delta).accept,
                "offset {offset} rejected"
            );
        }
    }

    #[test]
    fn scattered_substitutions_within_delta_are_accepted() {
        let window: Vec<u8> = (0..140).map(|i| ((i * 5 + 1) % 4) as u8).collect();
        let mut read = window[5..135].to_vec();
        for (k, pos) in [10usize, 40, 70, 100, 125].iter().enumerate() {
            read[*pos] = (read[*pos] + 1 + k as u8 % 3) % 4;
        }
        assert!(verdict(&read, &window, 5).accept);
    }

    #[test]
    fn clustered_substitutions_within_delta_are_accepted() {
        // The case that breaks naive popcount-vs-δ thresholds: edits
        // two apart amend every run between them.
        let window: Vec<u8> = (0..120).map(|i| ((i * 3 + i / 5) % 4) as u8).collect();
        let mut read = window[5..115].to_vec();
        for pos in [50usize, 52, 54, 56, 58] {
            read[pos] = (read[pos] + 2) % 4;
        }
        assert!(verdict(&read, &window, 5).accept);
    }

    #[test]
    fn random_junk_is_rejected() {
        // Deterministic pseudo-random read vs an unrelated window.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let read: Vec<u8> = (0..100).map(|_| (next() & 3) as u8).collect();
        let window: Vec<u8> = (0..110).map(|_| (next() & 3) as u8).collect();
        let v = verdict(&read, &window, 5);
        assert!(!v.accept, "random junk survived SHD");
    }

    #[test]
    fn read_overhanging_window_beyond_delta_is_rejected() {
        let read = vec![0u8; 50];
        assert!(!verdict(&read, &[0u8; 40], 5).accept);
        // ...but within δ deletions it must stay (poly-A aligns).
        assert!(verdict(&read, &[0u8; 46], 5).accept);
    }

    #[test]
    fn empty_read_accepted_at_zero_cost() {
        assert_eq!(verdict(&[], &[0, 1, 2], 3), Verdict::accept(0));
    }

    #[test]
    fn delta_zero_accepts_exact_and_rejects_noise() {
        let window: Vec<u8> = (0..64).map(|i| ((i * 11 + i / 2) % 4) as u8).collect();
        let read = window.clone();
        assert!(verdict(&read, &window, 0).accept);
        let mut noise = read.clone();
        for i in (0..64).step_by(4) {
            noise[i] = (noise[i] + 1) % 4;
        }
        assert!(!verdict(&noise, &window, 0).accept);
    }

    #[test]
    fn amendment_knob_validates() {
        let f = ShdFilter::new().with_amend_below(1); // amendment off
        let window: Vec<u8> = (0..80).map(|i| ((i * 13) % 4) as u8).collect();
        let read = window[2..78].to_vec();
        assert!(f.examine_codes(&read, &window, 2).accept);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_amendment_cutoff_panics() {
        let _ = ShdFilter::new().with_amend_below(0);
    }

    #[test]
    fn multiword_reads_work() {
        let window: Vec<u8> = (0..170).map(|i| ((i * 7 + i / 9) % 4) as u8).collect();
        let mut read = window[10..160].to_vec(); // 150 bases: 3 words
        read[75] = (read[75] + 1) % 4;
        assert!(verdict(&read, &window, 5).accept);
    }
}
