//! Blocked Myers bit-vector algorithm for patterns of any length.
//!
//! Reads in the paper are 100–150 bases, which does not fit the single
//! 64-bit word of [`crate::myers`]; the blocked extension (Hyyrö 2003)
//! chains the carry between ⌈m/64⌉ words per text column. The paper's
//! hardware/software co-design keeps exactly this kernel small enough for
//! GPU private memory; here the same structure keeps the inner loop
//! allocation-free.

const WORD: usize = 64;

/// Per-base match masks for a pattern of arbitrary length, split into
/// 64-base blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMasks {
    /// `peq[base][block]`.
    peq: [Vec<u64>; 4],
    len: usize,
    blocks: usize,
    /// Bit position of the last pattern row within the final block.
    last_bit: u32,
}

impl BlockMasks {
    /// Builds blocked match masks.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is empty or contains a code above 3.
    pub fn new(pattern: &[u8]) -> BlockMasks {
        assert!(!pattern.is_empty(), "pattern must not be empty");
        let blocks = pattern.len().div_ceil(WORD);
        let mut peq = [
            vec![0u64; blocks],
            vec![0u64; blocks],
            vec![0u64; blocks],
            vec![0u64; blocks],
        ];
        for (i, &c) in pattern.iter().enumerate() {
            assert!(c <= 3, "base code {c} out of range");
            peq[c as usize][i / WORD] |= 1u64 << (i % WORD);
        }
        // Rows past the pattern end in the final block never match; the
        // Myers recurrence only propagates information toward higher bits
        // (carries and shifts move upward), so those junk rows cannot
        // contaminate the tracked pattern rows below them.
        BlockMasks {
            peq,
            len: pattern.len(),
            blocks,
            last_bit: ((pattern.len() - 1) % WORD) as u32,
        }
    }

    /// Pattern length in bases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `false` always (patterns cannot be empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of 64-base blocks.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// The per-base blocked match masks, for the batch kernel.
    pub(crate) fn peq(&self) -> &[Vec<u64>; 4] {
        &self.peq
    }

    /// Bit position of the last pattern row within the final block.
    pub(crate) fn last_bit(&self) -> u32 {
        self.last_bit
    }
}

/// Result of a blocked semi-global scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHit {
    /// Best edit distance over all end positions.
    pub distance: u32,
    /// Leftmost end position (exclusive) achieving that distance.
    pub end: usize,
}

/// Reusable working memory for [`search_with`]; one instance per thread
/// avoids reallocation across the millions of verifications a mapping run
/// performs (the "low memory footprint kernel" concern of the paper).
///
/// Each call also records the number of `advance_block` steps it actually
/// executed (readable via [`BlockWork::word_updates`]), which is what the
/// verification stage charges to the platform simulator — with the
/// Ukkonen band of [`search_with`] this is generally *less* than the
/// naive `columns × blocks` product.
#[derive(Debug, Clone, Default)]
pub struct BlockWork {
    pv: Vec<u64>,
    mv: Vec<u64>,
    updates: u64,
}

impl BlockWork {
    /// Number of 64-cell word updates (`advance_block` steps) executed by
    /// the most recent [`search_with`] call using this scratch. Reset at
    /// the start of every call.
    pub fn word_updates(&self) -> u64 {
        self.updates
    }
}

/// One column step for a single block (Hyyrö's `advance_block`).
///
/// `hin` is the horizontal delta entering the block top (−1, 0, +1).
/// Returns `(hout, ph, mh)` where `hout` is the delta leaving the block
/// bottom and `ph`/`mh` are the *pre-shift* horizontal delta vectors (bit
/// `i` is the delta entering column-cell of pattern row `i`).
#[inline]
pub(crate) fn advance_block(pv: &mut u64, mv: &mut u64, eq: u64, hin: i32) -> (i32, u64, u64) {
    let mut eq = eq;
    if hin < 0 {
        eq |= 1;
    }
    let xv = eq | *mv;
    let xh = (((eq & *pv).wrapping_add(*pv)) ^ *pv) | eq;
    let ph = *mv | !(xh | *pv);
    let mh = *pv & xh;
    let mut hout = 0i32;
    if ph & (1 << (WORD - 1)) != 0 {
        hout += 1;
    }
    if mh & (1 << (WORD - 1)) != 0 {
        hout -= 1;
    }
    let mut ph_shift = ph << 1;
    let mut mh_shift = mh << 1;
    if hin < 0 {
        mh_shift |= 1;
    } else if hin > 0 {
        ph_shift |= 1;
    }
    *pv = mh_shift | !(xv | ph_shift);
    *mv = ph_shift & xv;
    (hout, ph, mh)
}

/// Number of leading blocks the Ukkonen band computes for DP column
/// `column` (the number of text characters consumed so far) at error
/// budget `k`: every block whose first pattern row `64·b` satisfies
/// `64·b ≤ column + k`, capped at `blocks`.
///
/// Soundness of skipping the rest: `cell(i, c) ≥ i − c` (aligning `i`
/// pattern bases against at most `c` text bases needs ≥ `i − c` edits),
/// so every cell with true value ≤ `k` has `i ≤ c + k` and lies inside
/// the band. Skipped blocks keep their virgin `pv = !0, mv = 0` state —
/// a per-row `+1` delta, which *over*-estimates their true values — and
/// since the DP recurrence is monotone in its inputs, overestimates can
/// never pull an in-band cell below its true value, while the optimal
/// path of any cell with true value ≤ `k` runs entirely through in-band
/// (hence exactly computed) cells. Reported hits are therefore
/// bit-identical to the full computation.
#[inline]
pub(crate) fn band_blocks(blocks: usize, k: usize, column: usize) -> usize {
    ((column + k) / WORD + 1).min(blocks)
}

/// Semi-global scan with caller-provided working memory.
///
/// Returns the minimum distance ≤ `max_distance` over all text end
/// positions, with the leftmost end achieving it, or `None`. The scan is
/// banded (Ukkonen cutoff, see `band_blocks`): at column `c` only
/// blocks covering pattern rows ≤ `c + max_distance` are advanced, which
/// skips most of the early columns' lower blocks for realistic
/// `read ≫ 64, δ ≪ 64` verification calls without changing any result.
/// The number of block updates actually executed is recorded in
/// `work` ([`BlockWork::word_updates`]).
#[allow(clippy::needless_range_loop)] // per-block state is indexed in lockstep
pub fn search_with(
    masks: &BlockMasks,
    text: &[u8],
    max_distance: u32,
    work: &mut BlockWork,
) -> Option<BlockHit> {
    let blocks = masks.blocks;
    let m = masks.len;
    let k = max_distance as usize;
    work.pv.clear();
    work.pv.resize(blocks, !0u64);
    work.mv.clear();
    work.mv.resize(blocks, 0u64);
    work.updates = 0;
    let last_mask = 1u64 << masks.last_bit;
    // Initially active band at column 0 (cell(i, 0) = i + 1, the virgin
    // state, is exact everywhere, so the initial cut is free).
    let mut active = band_blocks(blocks, k, 0);
    // When `active < blocks`: represented value at the bottom row of the
    // last active block (row `64·active − 1`), i.e. `64·active` at column
    // 0. When `active == blocks`: `score` is the represented value of the
    // bottom *pattern* row (bit `last_bit` of the last block).
    let mut border = (active * WORD) as u32;
    let mut score = m as u32;
    let mut best: Option<BlockHit> = if (m as u32) <= max_distance {
        // m ≤ k forces active == blocks, so `score` is live here.
        Some(BlockHit {
            distance: m as u32,
            end: 0,
        })
    } else {
        None
    };
    for (j, &c) in text.iter().enumerate() {
        debug_assert!(c <= 3, "base code out of range");
        // Grow the band before producing column j + 1: newly activated
        // blocks start from their virgin state, whose represented values
        // continue the border with +1 per row.
        let needed = band_blocks(blocks, k, j + 1);
        while active < needed {
            active += 1;
            if active == blocks {
                score = border + (m - (active - 1) * WORD) as u32;
            } else {
                border += WORD as u32;
            }
        }
        let peq = &masks.peq[(c & 3) as usize];
        let mut hin = 0i32; // free start: top row is all zeros
        let mut last_ph = 0u64;
        let mut last_mh = 0u64;
        for b in 0..active {
            let (hout, ph, mh) = advance_block(&mut work.pv[b], &mut work.mv[b], peq[b], hin);
            hin = hout;
            if b + 1 == active {
                last_ph = ph;
                last_mh = mh;
            }
        }
        work.updates += active as u64;
        if active == blocks {
            if last_ph & last_mask != 0 {
                score += 1;
            } else if last_mh & last_mask != 0 {
                score -= 1;
            }
            if score <= max_distance && best.is_none_or(|b| score < b.distance) {
                best = Some(BlockHit {
                    distance: score,
                    end: j + 1,
                });
            }
        } else {
            // Track the border down the last active block's bottom row.
            border = border.wrapping_add_signed(hin);
        }
    }
    best
}

/// Semi-global scan allocating its own working memory.
///
/// See [`search_with`] for reuse across calls.
pub fn search(masks: &BlockMasks, text: &[u8], max_distance: u32) -> Option<BlockHit> {
    let mut work = BlockWork::default();
    search_with(masks, text, max_distance, &mut work)
}

/// The unbanded kernel: every block advanced on every column, exactly
/// the verification stage before the Ukkonen band landed. Retained as
/// the differential oracle for [`search_with`]'s band (same results,
/// strictly more work) and as the benchmark baseline the batch SWAR
/// path is measured against. `work` records the full
/// `columns × blocks` update count.
#[allow(clippy::needless_range_loop)] // per-block state is indexed in lockstep
pub fn search_full(
    masks: &BlockMasks,
    text: &[u8],
    max_distance: u32,
    work: &mut BlockWork,
) -> Option<BlockHit> {
    let blocks = masks.blocks;
    let m = masks.len;
    work.pv.clear();
    work.pv.resize(blocks, !0u64);
    work.mv.clear();
    work.mv.resize(blocks, 0u64);
    work.updates = 0;
    let last_mask = 1u64 << masks.last_bit;
    let mut score = m as u32;
    let mut best: Option<BlockHit> = if score <= max_distance {
        Some(BlockHit {
            distance: score,
            end: 0,
        })
    } else {
        None
    };
    for (j, &c) in text.iter().enumerate() {
        debug_assert!(c <= 3, "base code out of range");
        let peq = &masks.peq[(c & 3) as usize];
        let mut hin = 0i32; // free start: top row is all zeros
        let mut last_ph = 0u64;
        let mut last_mh = 0u64;
        for b in 0..blocks {
            let (hout, ph, mh) = advance_block(&mut work.pv[b], &mut work.mv[b], peq[b], hin);
            hin = hout;
            if b + 1 == blocks {
                last_ph = ph;
                last_mh = mh;
            }
        }
        work.updates += blocks as u64;
        if last_ph & last_mask != 0 {
            score += 1;
        } else if last_mh & last_mask != 0 {
            score -= 1;
        }
        if score <= max_distance && best.is_none_or(|b| score < b.distance) {
            best = Some(BlockHit {
                distance: score,
                end: j + 1,
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp;
    use repute_genome::rng::StdRng;

    #[test]
    fn matches_single_word_behaviour_for_short_patterns() {
        let pattern = [0u8, 1, 2, 3];
        let text = [3u8, 3, 0, 1, 2, 3, 3];
        let masks = BlockMasks::new(&pattern);
        let hit = search(&masks, &text, 1).unwrap();
        assert_eq!(hit.distance, 0);
        assert_eq!(hit.end, 6);
    }

    #[test]
    fn agrees_with_dp_across_block_boundaries() {
        let mut rng = StdRng::seed_from_u64(53);
        for m in [1usize, 63, 64, 65, 100, 127, 128, 129, 150, 200] {
            for _ in 0..8 {
                let n = rng.gen_range(0..=(m * 2 + 20));
                let pattern: Vec<u8> = (0..m).map(|_| rng.gen_range(0..4)).collect();
                let text: Vec<u8> = (0..n).map(|_| rng.gen_range(0..4)).collect();
                let expected = dp::semi_global(&pattern, &text).unwrap();
                let masks = BlockMasks::new(&pattern);
                let got = search(&masks, &text, m as u32).expect("within m errors");
                assert_eq!(got.distance, expected.distance, "m={m} n={n}");
                assert_eq!(got.end, expected.end, "m={m} n={n}");
            }
        }
    }

    #[test]
    fn read_length_150_with_errors() {
        let mut rng = StdRng::seed_from_u64(54);
        let read: Vec<u8> = (0..150).map(|_| rng.gen_range(0..4)).collect();
        // Embed the read with 3 substitutions.
        let mut window = vec![2u8; 10];
        let mut mutated = read.clone();
        for pos in [10usize, 80, 140] {
            mutated[pos] ^= 1;
        }
        window.extend_from_slice(&mutated);
        window.extend_from_slice(&[1u8; 10]);
        let masks = BlockMasks::new(&read);
        let hit = search(&masks, &window, 5).unwrap();
        assert_eq!(hit.distance, 3);
        assert!(search(&masks, &window, 2).is_none());
    }

    #[test]
    fn max_distance_zero_finds_exact_only() {
        let pattern: Vec<u8> = (0..100).map(|i| (i % 4) as u8).collect();
        let mut text = vec![3u8; 5];
        text.extend_from_slice(&pattern);
        let masks = BlockMasks::new(&pattern);
        let hit = search(&masks, &text, 0).unwrap();
        assert_eq!(hit.distance, 0);
        assert_eq!(hit.end, 105);
    }

    #[test]
    fn work_reuse_is_equivalent() {
        let mut rng = StdRng::seed_from_u64(55);
        let mut work = BlockWork::default();
        for _ in 0..20 {
            let m = rng.gen_range(60..=140usize);
            let pattern: Vec<u8> = (0..m).map(|_| rng.gen_range(0..4)).collect();
            let text: Vec<u8> = (0..200).map(|_| rng.gen_range(0..4)).collect();
            let masks = BlockMasks::new(&pattern);
            let fresh = search(&masks, &text, m as u32);
            let reused = search_with(&masks, &text, m as u32, &mut work);
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn banded_small_k_agrees_with_dp() {
        // The Ukkonen band must not change any reported (distance, end),
        // including rejections, at realistic small error budgets.
        let mut rng = StdRng::seed_from_u64(56);
        for m in [65usize, 100, 128, 150, 200, 300] {
            for k in [0u32, 1, 3, 7, 15] {
                for _ in 0..6 {
                    let n = rng.gen_range(0..=(m + 40));
                    let pattern: Vec<u8> = (0..m).map(|_| rng.gen_range(0..4)).collect();
                    let mut text: Vec<u8> = (0..n).map(|_| rng.gen_range(0..4)).collect();
                    // Half the cases embed a mutated copy so accepts occur.
                    if n >= m && rng.gen_range(0..2) == 0 {
                        let at = rng.gen_range(0..=(n - m));
                        text[at..at + m].copy_from_slice(&pattern);
                        for _ in 0..rng.gen_range(0..=k) {
                            let p = at + rng.gen_range(0..m);
                            text[p] = (text[p] + rng.gen_range(1..4u8)) % 4;
                        }
                    }
                    let expected = dp::semi_global(&pattern, &text).unwrap();
                    let masks = BlockMasks::new(&pattern);
                    let got = search(&masks, &text, k);
                    if expected.distance <= k {
                        let got = got.expect("within budget must be found");
                        assert_eq!(got.distance, expected.distance, "m={m} n={n} k={k}");
                        assert_eq!(got.end, expected.end, "m={m} n={n} k={k}");
                    } else {
                        assert!(got.is_none(), "m={m} n={n} k={k}: {got:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn banded_agrees_with_unbanded_oracle() {
        let mut rng = StdRng::seed_from_u64(57);
        let mut banded_work = BlockWork::default();
        let mut full_work = BlockWork::default();
        for _ in 0..40 {
            let m = rng.gen_range(65..=220usize);
            let n = rng.gen_range(0..=(m + 60));
            let k = rng.gen_range(0..=16u32);
            let pattern: Vec<u8> = (0..m).map(|_| rng.gen_range(0..4)).collect();
            let mut text: Vec<u8> = (0..n).map(|_| rng.gen_range(0..4)).collect();
            if n >= m && rng.gen_range(0..2) == 0 {
                let at = rng.gen_range(0..=(n - m));
                text[at..at + m].copy_from_slice(&pattern);
                for _ in 0..rng.gen_range(0..=k) {
                    let p = at + rng.gen_range(0..m);
                    text[p] = (text[p] + rng.gen_range(1..4u8)) % 4;
                }
            }
            let masks = BlockMasks::new(&pattern);
            let banded = search_with(&masks, &text, k, &mut banded_work);
            let full = search_full(&masks, &text, k, &mut full_work);
            assert_eq!(banded, full, "m={m} n={n} k={k}");
            assert!(banded_work.word_updates() <= full_work.word_updates());
            assert_eq!(full_work.word_updates(), (n * masks.blocks()) as u64);
        }
    }

    #[test]
    fn band_records_and_reduces_work() {
        let pattern: Vec<u8> = (0..150).map(|i| (i % 4) as u8).collect();
        let text: Vec<u8> = (0..200).map(|i| ((i * 3) % 4) as u8).collect();
        let masks = BlockMasks::new(&pattern);
        let mut work = BlockWork::default();
        // Wide budget: band covers all 3 blocks from column 0.
        let _ = search_with(&masks, &text, 150, &mut work);
        assert_eq!(work.word_updates(), 200 * 3);
        // Narrow budget: block b only activates at column 64·b − k, so
        // the recorded work is the banded sum, not columns × blocks.
        let _ = search_with(&masks, &text, 7, &mut work);
        let expected: u64 = (1..=200u64).map(|col| ((col + 7) / 64 + 1).min(3)).sum();
        assert_eq!(work.word_updates(), expected);
        assert!(work.word_updates() < 200 * 3);
    }

    #[test]
    fn block_count() {
        assert_eq!(BlockMasks::new(&[0; 64]).blocks(), 1);
        assert_eq!(BlockMasks::new(&[0; 65]).blocks(), 2);
        assert_eq!(BlockMasks::new(&[0; 150]).blocks(), 3);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_pattern_rejected() {
        let _ = BlockMasks::new(&[]);
    }
}
