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

use crate::bits::{
    and_shl1, or_shr1, pack_lane_planes, pack_planes, set_range, streak_edit_bound, word_at,
    LaneWord, LANES,
};
use crate::{Candidate, PreFilter, Verdict};

/// Mask words kept on the stack: reads up to `8 × 64 = 512` bases (far
/// beyond the paper's 100–150bp) run with zero heap allocation.
const STACK_WORDS: usize = 8;

/// Words per window plane kept on the stack: a 512-base read's
/// `read + 2δ` window up to δ = 31, laid out δ bits up, with the spare
/// word a shifted read takes past the last shift.
const STACK_PLANE_WORDS: usize = STACK_WORDS + 2;

/// Match runs shorter than this many bases are amended to mismatches
/// before the AND — GateKeeper's "short streak" cutoff. Runs of 1–2
/// matching bases between random sequences occur with probability ~1/4
/// per base and carry almost no alignment signal. A constant, not a
/// knob: [`crate::bits::streak_edit_bound`] counts an amended segment as
/// at most 2 bases, which holds only at a cutoff of 3 or below — at 4,
/// eight substitutions four bases apart in a 100 bp read at δ 8 (an
/// 8-edit alignment) lose to a bound above δ.
const AMEND_BELOW: usize = 3;

/// The SHD filter. Stateless; build once and share freely across
/// threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShdFilter;

impl ShdFilter {
    /// Creates the filter.
    pub fn new() -> ShdFilter {
        ShdFilter
    }

    /// Examines raw code slices: a batch of one. `window` is the exact
    /// slice the verifier would align against; `delta` its error budget.
    /// Codes are 2-bit (`0..=3`).
    pub fn examine_codes(&self, read: &[u8], window: &[u8], delta: u32) -> Verdict {
        self.examine(&Candidate {
            read,
            window,
            window_start: 0,
            delta,
        })
    }

    /// The verdicts on `candidates`, which share `read`, into `out`: the
    /// ones decided by their lengths at once, the rest [`LANES`] at a
    /// time through [`ShdFilter::sweep`].
    fn examine_read(&self, read: &[u8], candidates: &[Candidate<'_>], out: &mut [Verdict]) {
        let m = read.len();
        if m < AMEND_BELOW {
            // Degenerate: amendment could erase a 0-edit whole-read
            // match run, so the streak bound is not sound here. Reads
            // this short carry no signal anyway — accept.
            out.fill(Verdict::accept(u64::from(m > 0)));
            return;
        }
        let words = m.div_ceil(64);
        // The read, packed once into its two bit-planes, then shifted up
        // by every bit offset a sweep of its windows uses.
        let (mut stack, mut heap) = ([0u64; 2 * STACK_WORDS], Vec::new());
        let planes = scratch(&mut stack, &mut heap, 2 * words);
        let (r_lo, r_hi) = planes.split_at_mut(words);
        pack_planes(read, 0, r_lo, r_hi);
        let offsets = candidates
            .iter()
            .map(|c| shifts(m, c))
            .max()
            .unwrap_or(0)
            .min(64);
        let shifted = shift_read([r_lo, r_hi], offsets);
        // One kernel for every length; up to the stack limit the compiler
        // is told the mask width, and keeps the masks in registers.
        match words {
            1 => self.lanes::<[LaneWord; 1]>(&shifted, m, candidates, out),
            2 => self.lanes::<[LaneWord; 2]>(&shifted, m, candidates, out),
            3 => self.lanes::<[LaneWord; 3]>(&shifted, m, candidates, out),
            4 => self.lanes::<[LaneWord; 4]>(&shifted, m, candidates, out),
            5 => self.lanes::<[LaneWord; 5]>(&shifted, m, candidates, out),
            6 => self.lanes::<[LaneWord; 6]>(&shifted, m, candidates, out),
            7 => self.lanes::<[LaneWord; 7]>(&shifted, m, candidates, out),
            STACK_WORDS => self.lanes::<[LaneWord; STACK_WORDS]>(&shifted, m, candidates, out),
            _ => self.lanes::<Vec<LaneWord>>(&shifted, m, candidates, out),
        }
    }

    /// Decides what the lengths decide, and gathers the other candidates
    /// into lanes of [`LANES`] for [`ShdFilter::sweep`], whose masks are
    /// `M`s.
    fn lanes<M: Masks>(
        &self,
        shifted: &[[LaneWord; 2]],
        m: usize,
        candidates: &[Candidate<'_>],
        out: &mut [Verdict],
    ) {
        let words = m.div_ceil(64);
        let mut stack = [[0u64; LANES]; 3 * STACK_PLANE_WORDS];
        let mut heap = Vec::new();
        let mut lanes = [0usize; LANES];
        let mut used = 0;
        for (i, candidate) in candidates.iter().enumerate() {
            let (wlen, delta) = (candidate.window.len(), candidate.delta as usize);
            if m > wlen + delta {
                // A semi-global alignment consumes the whole read, so a
                // read overhanging the window by more than δ needs > δ
                // deletions: provably unverifiable, reject at unit cost.
                out[i] = Verdict::reject(1);
            } else if delta >= m {
                // Whatever the bases, the first mask leaves ≤ m ≤ δ
                // mismatches and the early accept fires on it. Said here,
                // so that δ < m bounds the planes by the inputs.
                out[i] = Verdict::accept(2 * words as u64);
            } else {
                lanes[used] = i;
                used += 1;
            }
            if used == LANES || (used > 0 && i + 1 == candidates.len()) {
                let group = &lanes[..std::mem::take(&mut used)];
                let planes = pack_windows(m, candidates, group, &mut stack, &mut heap);
                self.sweep::<M>(shifted, m, candidates, group, planes, out);
            }
        }
    }

    /// Builds, amends and ANDs the masks of shifts `0..shifts` of the
    /// read (`shifted`, see [`shift_read`]) against the packed window
    /// planes of the `group` lanes, all lanes in lockstep, and writes a
    /// lane's verdict into `out` at the shift that decides it: the first
    /// whose running mask passes the early accept, or its last. The sweep
    /// stops when every lane is decided, and each lane's verdict and cost
    /// are what it would have had alone.
    #[inline(always)]
    fn sweep<'p, M: Masks>(
        &self,
        shifted: &[[LaneWord; 2]],
        m: usize,
        candidates: &[Candidate<'_>],
        group: &[usize],
        planes: &'p [LaneWord],
        out: &mut [Verdict],
    ) {
        let mut acc = M::filled(m.div_ceil(64), u64::MAX);
        let mut matches = M::filled(m.div_ceil(64), 0);
        // The mask width, as the compiler sees it: a constant for arrays.
        let words = acc.words_mut().len();
        let p = planes.len() / 3;
        let (w_lo, rest) = planes.split_at(p);
        let (w_hi, inside) = rest.split_at(p);
        // Padding above the read never matches, so it never masquerades
        // as a match run; `live` is the read's share of the last word.
        let pad = (words * 64 - m) as u64;
        let live = u64::MAX >> pad;
        // Per lane: its shifts and the most mismatches its early accept
        // allows, padding included. A lane is done once decided; a lane
        // not in use is done from the start.
        let mut count = [0; LANES];
        let mut limit = [0; LANES];
        for (lane, &i) in group.iter().enumerate() {
            count[lane] = shifts(m, &candidates[i]);
            limit[lane] = pad + u64::from(candidates[i].delta);
        }
        let mut done = [true; LANES];
        done[..group.len()].fill(false);
        let last = count.iter().copied().max().unwrap_or(0);
        let (mut stack, mut heap) = ([0u64; STACK_WORDS], Vec::new());
        let lane_acc = scratch(&mut stack, &mut heap, words);
        'sweep: for row in 0..last.div_ceil(64) {
            // Shifts go 64 to a row of the planes: within one, every lane
            // reads the same plane words.
            let rows = |plane: &'p [LaneWord]| &plane[row..row + words + 1];
            let (w_lo, w_hi, inside) = (rows(w_lo), rows(w_hi), rows(inside));
            for t in 64 * row..last.min(64 * row + 64) {
                // Match mask of shift t: bit i set when read[i] equals
                // window[i + t − δ] and that position is inside the window.
                // Window bit i + t is bit `bit` on of the row's words: the
                // read, shifted up by `bit`, meets the planes where they lie,
                // and only the match is shifted down.
                let bit = t % 64;
                let read = &shifted[bit * (words + 1)..][..words + 1];
                let mut below = plane_match(read[0], w_lo[0], w_hi[0], inside[0]);
                for (k, kept) in matches.words_mut().iter_mut().enumerate() {
                    let above = plane_match(read[k + 1], w_lo[k + 1], w_hi[k + 1], inside[k + 1]);
                    *kept = std::array::from_fn(|l| word_at(below[l], above[l], bit as u32));
                    below = above;
                }
                let matches = matches.words_mut();
                for kept in &mut matches[words - 1] {
                    *kept &= live;
                }
                // Amendment: a match survives only in a run of ≥
                // AMEND_BELOW matches. The classic two-shift trick,
                // generalised — each `and_shl1` strips the bottom match
                // off every run, leaving only the tops of the long ones,
                // and each `or_shr1` grows those back down by the one
                // match the run had lost.
                for _ in 1..AMEND_BELOW {
                    and_shl1(matches);
                }
                for _ in 1..AMEND_BELOW {
                    or_shr1(matches);
                }
                // Everything else is a mismatch; AND it into the running
                // masks.
                for (a, kept) in acc.words_mut().iter_mut().zip(&*matches) {
                    let word = *a;
                    *a = std::array::from_fn(|l| word[l] & !kept[l]);
                }
                // One pipelined pass (XOR-build, amend, AND, count) per
                // mask word is charged one unit of the Myers word-update
                // currency — both are short fixed bundles of 64-lane
                // bitwise ops — plus one final counting pass: a lane
                // decided at shift t built t + 1 masks.
                let cost = (t as u64 + 2) * words as u64;
                let counts = mask_counts(acc.words());
                for (lane, &i) in group.iter().enumerate() {
                    if done[lane] {
                        continue;
                    }
                    if counts[lane] <= limit[lane] {
                        out[i] = Verdict::accept(cost);
                    } else if t + 1 == count[lane] {
                        for (word, a) in lane_acc.iter_mut().zip(acc.words()) {
                            *word = a[lane];
                        }
                        out[i] = if streak_edit_bound(lane_acc, m) <= limit[lane] - pad {
                            Verdict::accept(cost)
                        } else {
                            Verdict::reject(cost)
                        };
                    } else {
                        continue;
                    }
                    done[lane] = true;
                }
                if done.iter().all(|&d| d) {
                    break 'sweep;
                }
            }
        }
    }
}

/// Match bits of one word of the planes: inside the window, and where
/// the shifted read's planes `read` equal the window's.
#[inline(always)]
fn plane_match(read: [LaneWord; 2], lo: LaneWord, hi: LaneWord, inside: LaneWord) -> LaneWord {
    let [r_lo, r_hi] = read;
    std::array::from_fn(|l| inside[l] & !((r_lo[l] ^ lo[l]) | (r_hi[l] ^ hi[l])))
}

/// The mismatch count of every lane of `mask`.
#[inline(always)]
fn mask_counts(mask: &[LaneWord]) -> LaneWord {
    mask.iter().fold([0; LANES], |counts, word| {
        std::array::from_fn(|l| counts[l] + u64::from(word[l].count_ones()))
    })
}

/// The read's planes `[lo, hi]`, shifted up by each bit offset in
/// `0..offsets`, every word in every lane: entry `bit · (words + 1) + j`
/// holds word `j` of both planes shifted up by `bit` (bits shifted out
/// of the last word land in word `words`).
fn shift_read(planes: [&[u64]; 2], offsets: usize) -> Vec<[LaneWord; 2]> {
    let words = planes[0].len();
    let word = |plane: &[u64], j: usize, bit: u32| {
        let below = j.checked_sub(1).map_or(0, |j| plane[j]);
        let here = plane.get(j).copied().unwrap_or(0);
        here << bit | (below >> 1) >> (63 - bit)
    };
    let mut shifted = Vec::with_capacity(offsets * (words + 1));
    for bit in 0..offsets as u32 {
        shifted.extend((0..=words).map(|j| planes.map(|plane| [word(plane, j, bit); LANES])));
    }
    shifted
}

/// Mask storage of one sweep: a mask word of every lane for each word of
/// the read — a fixed array the compiler can keep in registers up to the
/// stack limit, a vector beyond.
trait Masks {
    /// `words` lane words, every lane set to `value`.
    fn filled(words: usize, value: u64) -> Self;
    /// The lane words.
    fn words(&self) -> &[LaneWord];
    /// The lane words, to write.
    fn words_mut(&mut self) -> &mut [LaneWord];
}

impl<const W: usize> Masks for [LaneWord; W] {
    fn filled(_: usize, value: u64) -> Self {
        [[value; LANES]; W]
    }

    fn words(&self) -> &[LaneWord] {
        self
    }

    fn words_mut(&mut self) -> &mut [LaneWord] {
        self
    }
}

impl Masks for Vec<LaneWord> {
    fn filled(words: usize, value: u64) -> Self {
        vec![[value; LANES]; words]
    }

    fn words(&self) -> &[LaneWord] {
        self
    }

    fn words_mut(&mut self) -> &mut [LaneWord] {
        self
    }
}

/// The first `len` items of `stack`, or `heap` grown to `len` when the
/// stack is too short: scratch that allocates only past the stack limit.
fn scratch<'s, T: Copy + Default>(
    stack: &'s mut [T],
    heap: &'s mut Vec<T>,
    len: usize,
) -> &'s mut [T] {
    if len <= stack.len() {
        &mut stack[..len]
    } else {
        heap.resize(len, T::default());
        heap
    }
}

/// Window offsets a read base can occupy across all ≤ δ-edit
/// semi-global alignments of `candidate` (see module docs): the shifts
/// `s ∈ [−δ, wlen − m + δ]`, at least one when `m ≤ wlen + δ` (and
/// none for a read overhanging its window further still).
fn shifts(m: usize, candidate: &Candidate<'_>) -> usize {
    (candidate.window.len() + 2 * candidate.delta as usize + 1).saturating_sub(m)
}

/// The windows of the `group` lanes, packed into lane words: the two
/// code bit-planes and the plane of positions inside the window, each
/// laid out δ bits up, so that shift `s` of the module docs reads it
/// `t = s + δ ≥ 0` bits down. Stack-backed for realistic lengths; one
/// heap allocation beyond. Rows `0..p`, `p..2p` and `2p..3p` of the
/// result are the three planes.
fn pack_windows<'s>(
    m: usize,
    candidates: &[Candidate<'_>],
    group: &[usize],
    stack: &'s mut [LaneWord],
    heap: &'s mut Vec<LaneWord>,
) -> &'s [LaneWord] {
    let words = m.div_ceil(64);
    let plane_words = |c: &Candidate<'_>| words + (shifts(m, c) - 1) / 64 + 1;
    let p = group
        .iter()
        .map(|&i| plane_words(&candidates[i]))
        .max()
        .unwrap_or(0);
    let rows = scratch(stack, heap, 3 * p);
    rows.fill([0; LANES]);
    let (lo, rest) = rows.split_at_mut(p);
    let (hi, inside) = rest.split_at_mut(p);
    for (lane, &i) in group.iter().enumerate() {
        let candidate = &candidates[i];
        let slack = candidate.delta as usize;
        pack_lane_planes(candidate.window, slack, lo, hi, lane);
        set_range(inside, lane, slack..slack + candidate.window.len());
    }
    rows
}

impl PreFilter for ShdFilter {
    fn examine(&self, candidate: &Candidate<'_>) -> Verdict {
        crate::examine_one(self, candidate)
    }

    /// Packs each read's planes once and sweeps its windows [`LANES`] at
    /// a time.
    fn examine_batch(&self, candidates: &[Candidate<'_>], verdicts: &mut Vec<Verdict>) {
        let first = verdicts.len();
        verdicts.resize(first + candidates.len(), Verdict::reject(0));
        for run in crate::read_runs(candidates) {
            let read = candidates[run.start].read;
            self.examine_read(
                read,
                &candidates[run.clone()],
                &mut verdicts[first + run.start..first + run.end],
            );
        }
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
    fn multiword_reads_work() {
        let window: Vec<u8> = (0..170).map(|i| ((i * 7 + i / 9) % 4) as u8).collect();
        let mut read = window[10..160].to_vec(); // 150 bases: 3 words
        read[75] = (read[75] + 1) % 4;
        assert!(verdict(&read, &window, 5).accept);
    }
}
