//! Batch SWAR verification: several candidate windows per kernel pass.
//!
//! The scalar kernel of [`crate::block`] is a single serial dependency
//! chain: each column's `pv`/`mv` update waits on the previous column's.
//! A read's candidate windows, however, are completely independent of
//! each other, so this module advances
//! [`LANES`] of them in lockstep — the software analogue of the
//! work-item batching the paper's OpenCL kernels get from the GPU for
//! free. The blocked kernel's block step is written lane-wise over
//! fixed-size arrays (`advance_lanes`), so each statement is one
//! operation on every lane's `u64` and compiles to packed SSE2 / NEON
//! instructions, two lanes per instruction, with no `unsafe` and no
//! target-specific code.
//!
//! Layout follows the structure-of-arrays discipline throughout:
//!
//! * [`CandidateBatch`] stores the per-candidate `(diagonal, start,
//!   end)` triples in three parallel vectors — no per-candidate heap
//!   objects — and materialises windows as borrows of the reference.
//! * [`BatchVerifier`] keeps the blocked kernels' `pv`/`mv` state in
//!   lane-interleaved [`WordArena`] slabs (`slab[b * L + l]` is block
//!   `b` of lane `l` for an `L`-lane call), so the words the lanes
//!   touch in one block step are adjacent in memory.
//!
//! A read of one block takes `short_lanes`, the recurrence with no
//! carry and no band; a longer read takes `blocked_lanes`. Both replicate
//! the scalar kernel bit for bit — the same column order, the same
//! Ukkonen band (shared across lanes, since the band of
//! `block::band_blocks` depends only on the column and the error budget),
//! the same work accounting — so every lane's
//! `(Option<Verification>, VerifyCost)` is identical to what
//! [`crate::verify_with`] returns for that window alone. The scalar
//! kernel stays the differential oracle. `short_lanes` is kept beside
//! `blocked_lanes` for speed alone: sending one-block reads through the
//! blocked form made `repute map` slower on 36–64 bp reads.
//!
//! Before the blocked kernel, an exact prefix screen (`prefix_screen`)
//! runs block 0 alone over each window's first `len − (m − 64)` columns
//! and rejects every window whose row 64 never comes within budget —
//! most of them, since most candidates miss. A rejected window costs the
//! host one word per column instead of the whole band, but is charged
//! the band all the same (`block::band_updates`): the charge is the work
//! of the modelled kernel, not of the host.

use crate::arena::WordArena;
use crate::block::{band_blocks, band_updates, screen_columns, BlockMasks};
use crate::verify::{Verification, VerifyCost};

const WORD: usize = 64;

/// Number of candidate windows a batch kernel pass advances in lockstep.
pub const LANES: usize = 8;

/// Sentinel distance meaning "no end position within budget found yet";
/// real scores never exceed the read length, far below this.
const NO_HIT: u32 = u32::MAX;

/// One column step of one block for every lane: Hyyrö's
/// [`crate::block::advance_block`], statement by statement across a
/// fixed-size array of lanes, so that each statement is one operation on
/// `L` independent `u64` words — the shape the compiler turns into packed
/// SSE2 / NEON instructions.
///
/// The horizontal delta entering and leaving the block is carried as two
/// one-bit words, `hp` for +1 and `hn` for −1 (never both, since
/// `ph & mh == 0`), which fold into the recurrence as plain ors instead
/// of data-dependent branches. On return they hold the delta leaving the
/// block bottom; the pre-shift `(ph, mh)` vectors are returned for the
/// score step of the last active block.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // every statement is one op over the lanes
fn advance_lanes<const L: usize>(
    pv: &mut [u64; L],
    mv: &mut [u64; L],
    eq: &[u64; L],
    hp: &mut [u64; L],
    hn: &mut [u64; L],
) -> ([u64; L], [u64; L]) {
    let mut ph = [0u64; L];
    let mut mh = [0u64; L];
    for l in 0..L {
        let eq = eq[l] | hn[l];
        let xv = eq | mv[l];
        let xh = (((eq & pv[l]).wrapping_add(pv[l])) ^ pv[l]) | eq;
        ph[l] = mv[l] | !(xh | pv[l]);
        mh[l] = pv[l] & xh;
        let ph_shift = (ph[l] << 1) | hp[l];
        let mh_shift = (mh[l] << 1) | hn[l];
        pv[l] = mh_shift | !(xv | ph_shift);
        mv[l] = ph_shift & xv;
        hp[l] = ph[l] >> (WORD - 1);
        hn[l] = mh[l] >> (WORD - 1);
    }
    (ph, mh)
}

/// Calls `$body` with `$w` bound to `$windows` as a fixed-size array
/// reference: one const-lane-count instantiation per lane count, so the
/// per-lane loops fully unroll and the lane state lives in registers.
macro_rules! with_lanes {
    ($windows:expr, |$w:ident| $body:expr) => {
        match *$windows {
            [a] => {
                let $w = &[a];
                $body
            }
            [a, b] => {
                let $w = &[a, b];
                $body
            }
            [a, b, c] => {
                let $w = &[a, b, c];
                $body
            }
            [a, b, c, d] => {
                let $w = &[a, b, c, d];
                $body
            }
            [a, b, c, d, e] => {
                let $w = &[a, b, c, d, e];
                $body
            }
            [a, b, c, d, e, f] => {
                let $w = &[a, b, c, d, e, f];
                $body
            }
            [a, b, c, d, e, f, g] => {
                let $w = &[a, b, c, d, e, f, g];
                $body
            }
            [a, b, c, d, e, f, g, h] => {
                let $w = &[a, b, c, d, e, f, g, h];
                $body
            }
            _ => unreachable!("the lane kernels admit 1..={LANES} windows"),
        }
    };
}

/// A structure-of-arrays buffer of candidate locations for one read.
///
/// Mappers accumulate the candidates a read's seeds vote for as three
/// parallel lanes of plain integers (diagonal, window start, window
/// end); the buffer is reused across reads via [`CandidateBatch::clear`]
/// and never allocates per candidate.
#[derive(Debug, Clone, Default)]
pub struct CandidateBatch {
    diags: Vec<usize>,
    starts: Vec<usize>,
    ends: Vec<usize>,
}

impl CandidateBatch {
    /// An empty batch.
    pub fn new() -> CandidateBatch {
        CandidateBatch::default()
    }

    /// Removes all candidates, keeping the allocation.
    pub fn clear(&mut self) {
        self.diags.clear();
        self.starts.clear();
        self.ends.clear();
    }

    /// Appends a candidate: the diagonal it was voted on and the
    /// half-open reference window `[start, end)` to verify.
    pub fn push(&mut self, diag: usize, start: usize, end: usize) {
        self.diags.push(diag);
        self.starts.push(start);
        self.ends.push(end);
    }

    /// Number of buffered candidates.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// Whether the batch holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Diagonal of candidate `i`.
    pub fn diag(&self, i: usize) -> usize {
        self.diags[i]
    }

    /// Window start of candidate `i`.
    pub fn start(&self, i: usize) -> usize {
        self.starts[i]
    }

    /// Window end (exclusive) of candidate `i`.
    pub fn end(&self, i: usize) -> usize {
        self.ends[i]
    }

    /// The reference window of candidate `i`, borrowed from `reference`.
    pub fn window<'r>(&self, reference: &'r [u8], i: usize) -> &'r [u8] {
        &reference[self.starts[i]..self.ends[i]]
    }
}

/// The batch verification kernel with its arena-backed lane state.
///
/// One instance per worker thread; the slabs grow to the largest
/// `blocks × LANES` a read needs and are reused allocation-free after
/// that. Feed it 1..=[`LANES`] windows of the **same** read per
/// [`BatchVerifier::verify_lanes`] call.
#[derive(Debug, Clone, Default)]
pub struct BatchVerifier {
    pv: WordArena,
    mv: WordArena,
}

impl BatchVerifier {
    /// A verifier with empty arenas.
    pub fn new() -> BatchVerifier {
        BatchVerifier::default()
    }

    /// Verifies up to [`LANES`] windows of the read whose [`BlockMasks`]
    /// are given, pushing one `(hit, cost)` pair per window onto `out`
    /// in input order.
    ///
    /// Each pair is bit-identical to what [`crate::verify_with`] returns
    /// for that window alone — same `(distance, end)`, same
    /// `word_updates` charge (the shared Ukkonen band is a function of
    /// the column and `max_distance` only, so lockstep execution changes
    /// no lane's banded work, and a window the prefix screen rejects is
    /// charged that band in closed form).
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty or holds more than [`LANES`] entries.
    pub fn verify_lanes(
        &mut self,
        masks: &BlockMasks,
        windows: &[&[u8]],
        max_distance: u32,
        out: &mut Vec<(Option<Verification>, VerifyCost)>,
    ) {
        assert!(
            !windows.is_empty() && windows.len() <= LANES,
            "lane count {} outside 1..={LANES}",
            windows.len()
        );
        if masks.blocks() == 1 {
            return with_lanes!(windows, |w| short_lanes(masks, w, max_distance, out));
        }
        let k = max_distance as usize;
        // Row 64 never scores above 64, so from δ = 64 on the screen
        // could reject nothing: every lane goes on.
        let pass = if k >= WORD {
            !0
        } else {
            with_lanes!(windows, |w| prefix_screen(masks, w, max_distance))
        };
        // Every lane is entered as a miss charged the band the blocked
        // kernel would sweep; the lanes that passed go through the kernel
        // in one call, and their results overwrite their entries.
        let first = out.len();
        let mut passed: [&[u8]; LANES] = [&[]; LANES];
        let mut count = 0;
        for (l, w) in windows.iter().enumerate() {
            let word_updates = band_updates(masks.blocks(), k, w.len());
            out.push((None, VerifyCost { word_updates }));
            if pass & (1 << l) != 0 {
                passed[count] = w;
                count += 1;
            }
        }
        if count == 0 {
            return;
        }
        with_lanes!(&passed[..count], |w| blocked_lanes(
            &mut self.pv,
            &mut self.mv,
            masks,
            w,
            max_distance,
            out
        ));
        let mut next = first + windows.len();
        for l in 0..windows.len() {
            if pass & (1 << l) != 0 {
                out[first + l] = out[next];
                next += 1;
            }
        }
        out.truncate(first + windows.len());
    }
}

/// The prefix screen: block 0 of the blocked recurrence alone, one
/// [`advance_lanes`] step per column over each lane's first
/// [`screen_columns`] columns, keeping each lane's minimum row-64 score.
/// Returns a mask with bit `l` set when lane `l`'s minimum is within
/// `max_distance` — the only lanes that can hold a hit (the soundness
/// argument is at [`screen_columns`]). The lanes screen in lockstep over
/// their shortest span, then each lane's tail alone.
#[allow(clippy::needless_range_loop)] // lanes and columns advance in lockstep
fn prefix_screen<const L: usize>(
    masks: &BlockMasks,
    windows: &[&[u8]; L],
    max_distance: u32,
) -> u32 {
    let peq0 = masks.block0();
    let columns = windows.map(|w| screen_columns(masks.len(), w.len()));
    let mut pv = [!0u64; L];
    let mut mv = [0u64; L];
    let mut score = [WORD as u32; L];
    let mut best = [WORD as u32; L];
    let shared = columns.iter().copied().min().unwrap_or(0);
    for j in 0..shared {
        let mut eq = [0u64; L];
        for l in 0..L {
            let c = windows[l][j];
            debug_assert!(c <= 3, "base code out of range");
            eq[l] = peq0[(c & 3) as usize];
        }
        let (mut hp, mut hn) = ([0u64; L], [0u64; L]);
        advance_lanes(&mut pv, &mut mv, &eq, &mut hp, &mut hn);
        for l in 0..L {
            score[l] = score[l]
                .wrapping_add(hp[l] as u32)
                .wrapping_sub(hn[l] as u32);
            best[l] = best[l].min(score[l]);
        }
    }
    let mut pass = 0;
    for l in 0..L {
        let (mut pv, mut mv) = ([pv[l]], [mv[l]]);
        for j in shared..columns[l] {
            let c = windows[l][j];
            debug_assert!(c <= 3, "base code out of range");
            let (mut hp, mut hn) = ([0u64], [0u64]);
            advance_lanes(
                &mut pv,
                &mut mv,
                &[peq0[(c & 3) as usize]],
                &mut hp,
                &mut hn,
            );
            score[l] = score[l]
                .wrapping_add(hp[0] as u32)
                .wrapping_sub(hn[0] as u32);
            best[l] = best[l].min(score[l]);
        }
        if best[l] <= max_distance {
            pass |= 1 << l;
        }
    }
    pass
}

/// The bottom row's score step at the end of DP column `j` (`ph`/`mh`
/// the last block's pre-shift delta vectors, `last_mask` its bottom
/// row), and the leftmost best end within budget so far. `ph & mh == 0`
/// keeps the two cases exclusive, exactly as the scalar if/else chain.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn score_step(
    score: &mut u32,
    best_d: &mut u32,
    best_e: &mut usize,
    ph: u64,
    mh: u64,
    last_mask: u64,
    max_distance: u32,
    j: usize,
) {
    *score = score
        .wrapping_add(u32::from(ph & last_mask != 0))
        .wrapping_sub(u32::from(mh & last_mask != 0));
    if *score <= max_distance && *score < *best_d {
        *best_d = *score;
        *best_e = j + 1;
    }
}

/// One lane's `(hit, cost)`, as [`crate::verify_with`] reports it.
fn lane_result(
    best_d: u32,
    best_e: usize,
    word_updates: u64,
) -> (Option<Verification>, VerifyCost) {
    let hit = (best_d != NO_HIT).then_some(Verification {
        distance: best_d,
        end: best_e,
    });
    (hit, VerifyCost { word_updates })
}

/// Multi-lane kernel for a read of one block: the
/// [`crate::block::search_with`] recurrence with the lanes' words in
/// fixed arrays. One block has no carry entering it and no band to grow,
/// so each column step is one [`advance_lanes`] with `hp = hn = 0` on
/// block 0 of the masks; each lane's tail takes the rest of its columns
/// alone.
#[allow(clippy::needless_range_loop)] // lanes and columns advance in lockstep
fn short_lanes<const L: usize>(
    masks: &BlockMasks,
    windows: &[&[u8]; L],
    max_distance: u32,
    out: &mut Vec<(Option<Verification>, VerifyCost)>,
) {
    let m = masks.len();
    let last_mask = 1u64 << masks.last_bit();
    let peq = masks.block0();
    let mut pv = [!0u64; L];
    let mut mv = [0u64; L];
    let mut score = [m as u32; L];
    let mut best_d = [if m as u32 <= max_distance {
        m as u32
    } else {
        NO_HIT
    }; L];
    let mut best_e = [0usize; L];
    let min_len = windows.iter().map(|w| w.len()).min().unwrap_or(0);
    for j in 0..min_len {
        let mut eq = [0u64; L];
        for l in 0..L {
            let c = windows[l][j];
            debug_assert!(c <= 3, "base code out of range");
            eq[l] = peq[(c & 3) as usize];
        }
        let (ph, mh) = advance_lanes(&mut pv, &mut mv, &eq, &mut [0; L], &mut [0; L]);
        for l in 0..L {
            score_step(
                &mut score[l],
                &mut best_d[l],
                &mut best_e[l],
                ph[l],
                mh[l],
                last_mask,
                max_distance,
                j,
            );
        }
    }
    for l in 0..L {
        let (mut pv, mut mv) = ([pv[l]], [mv[l]]);
        for j in min_len..windows[l].len() {
            let c = windows[l][j];
            debug_assert!(c <= 3, "base code out of range");
            let eq = [peq[(c & 3) as usize]];
            let (ph, mh) = advance_lanes(&mut pv, &mut mv, &eq, &mut [0], &mut [0]);
            score_step(
                &mut score[l],
                &mut best_d[l],
                &mut best_e[l],
                ph[0],
                mh[0],
                last_mask,
                max_distance,
                j,
            );
        }
        out.push(lane_result(best_d[l], best_e[l], windows[l].len() as u64));
    }
}

/// Multi-lane blocked kernel: the banded [`crate::block::search_with`]
/// recurrence over lane-interleaved slabs (`slab[b * L + l]` is block
/// `b` of lane `l`). The band width `active` is shared by all lanes
/// over the lockstep prefix (it depends only on the column index and
/// `max_distance`), so each block step there is one [`advance_lanes`]
/// over all `L` lanes; each lane's tail continues the band formula alone
/// on its strided slab words, one lane at a time.
#[allow(clippy::needless_range_loop)] // lanes, blocks and columns advance in lockstep
fn blocked_lanes<const L: usize>(
    pv_arena: &mut WordArena,
    mv_arena: &mut WordArena,
    masks: &BlockMasks,
    windows: &[&[u8]; L],
    max_distance: u32,
    out: &mut Vec<(Option<Verification>, VerifyCost)>,
) {
    let blocks = masks.blocks();
    let m = masks.len();
    let k = max_distance as usize;
    let last_mask = 1u64 << masks.last_bit();
    let peq = masks.peq();
    let pv = pv_arena.slab(blocks * L, !0u64);
    let mv = mv_arena.slab(blocks * L, 0u64);
    let mut active = band_blocks(blocks, k, 0);
    let mut border = [(active * WORD) as u32; L];
    let mut score = [m as u32; L];
    let mut best_d = [NO_HIT; L];
    let mut best_e = [0usize; L];
    let mut updates = [0u64; L];
    if (m as u32) <= max_distance {
        best_d = [m as u32; L];
    }
    // The end of column `j` for lane `l`: charge the band, then either
    // the score step of the bottom row (last block active) or the border
    // step of the last active block's bottom row (`hp`/`hn` its carry).
    macro_rules! end_column {
        ($l:expr, $j:expr, $active:expr, $ph:expr, $mh:expr, $hp:expr, $hn:expr) => {{
            let l = $l;
            updates[l] += $active as u64;
            if $active == blocks {
                score_step(
                    &mut score[l],
                    &mut best_d[l],
                    &mut best_e[l],
                    $ph,
                    $mh,
                    last_mask,
                    max_distance,
                    $j,
                );
            } else {
                border[l] = border[l].wrapping_add($hp as u32).wrapping_sub($hn as u32);
            }
        }};
    }
    // Growing lane `l`'s band to `active` blocks: the new last block's
    // bottom row starts from its virgin `+1` per row.
    macro_rules! grow {
        ($l:expr, $active:expr) => {{
            let l = $l;
            if $active == blocks {
                score[l] = border[l] + (m - ($active - 1) * WORD) as u32;
            } else {
                border[l] += WORD as u32;
            }
        }};
    }
    let min_len = windows.iter().map(|w| w.len()).min().unwrap_or(0);
    // Lockstep over the shared prefix.
    for j in 0..min_len {
        let needed = band_blocks(blocks, k, j + 1);
        while active < needed {
            active += 1;
            for l in 0..L {
                grow!(l, active);
            }
        }
        // Hoist each lane's eq row once per column: one slice borrow per
        // lane instead of a Vec indirection per (block, lane) step.
        let mut eqs: [&[u64]; L] = [&[]; L];
        for l in 0..L {
            let c = windows[l][j];
            debug_assert!(c <= 3, "base code out of range");
            eqs[l] = &peq[(c & 3) as usize][..active];
        }
        let mut hp = [0u64; L];
        let mut hn = [0u64; L];
        let mut ph = [0u64; L];
        let mut mh = [0u64; L];
        for b in 0..active {
            let words = b * L..(b + 1) * L;
            let mut pvb = [0u64; L];
            let mut mvb = [0u64; L];
            pvb.copy_from_slice(&pv[words.clone()]);
            mvb.copy_from_slice(&mv[words.clone()]);
            let mut eq = [0u64; L];
            for l in 0..L {
                eq[l] = eqs[l][b];
            }
            (ph, mh) = advance_lanes(&mut pvb, &mut mvb, &eq, &mut hp, &mut hn);
            pv[words.clone()].copy_from_slice(&pvb);
            mv[words].copy_from_slice(&mvb);
        }
        for l in 0..L {
            end_column!(l, j, active, ph[l], mh[l], hp[l], hn[l]);
        }
    }
    // Per-lane tails: each lane keeps advancing its own slab stripe,
    // continuing the band formula from the shared `active`.
    for l in 0..L {
        let mut lane_active = active;
        for j in min_len..windows[l].len() {
            let needed = band_blocks(blocks, k, j + 1);
            while lane_active < needed {
                lane_active += 1;
                grow!(l, lane_active);
            }
            let c = windows[l][j];
            debug_assert!(c <= 3, "base code out of range");
            let eq_row = &peq[(c & 3) as usize][..lane_active];
            let mut hp = [0u64];
            let mut hn = [0u64];
            let mut ph = [0u64];
            let mut mh = [0u64];
            for (b, &eq) in eq_row.iter().enumerate() {
                let idx = b * L + l;
                let mut pvb = [pv[idx]];
                let mut mvb = [mv[idx]];
                (ph, mh) = advance_lanes(&mut pvb, &mut mvb, &[eq], &mut hp, &mut hn);
                [pv[idx]] = pvb;
                [mv[idx]] = mvb;
            }
            end_column!(l, j, lane_active, ph[0], mh[0], hp[0], hn[0]);
        }
        out.push(lane_result(best_d[l], best_e[l], updates[l]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockWork;
    use crate::verify::verify_with;
    use repute_genome::rng::StdRng;

    fn random_seq(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.gen_range(0..4)).collect()
    }

    /// Windows for one read: a mix of random noise and embedded mutated
    /// copies, with varying lengths so the tails are exercised.
    fn random_windows(rng: &mut StdRng, read: &[u8], lanes: usize) -> Vec<Vec<u8>> {
        (0..lanes)
            .map(|_| {
                let n = rng.gen_range(0..=(read.len() + 40));
                let mut w = random_seq(rng, n);
                if n >= read.len() && rng.gen_range(0..2) == 0 {
                    let at = rng.gen_range(0..=(n - read.len()));
                    w[at..at + read.len()].copy_from_slice(read);
                    for _ in 0..rng.gen_range(0..4) {
                        let p = at + rng.gen_range(0..read.len());
                        w[p] = (w[p] + rng.gen_range(1..4u8)) % 4;
                    }
                }
                w
            })
            .collect()
    }

    #[test]
    fn lanes_match_scalar_oracle() {
        let mut rng = StdRng::seed_from_u64(71);
        let mut verifier = BatchVerifier::new();
        for m in [1usize, 12, 63, 64, 65, 100, 150, 200] {
            for lanes in 1..=LANES {
                for k in [2u32, 7, 20, m as u32] {
                    let read = random_seq(&mut rng, m);
                    let masks = BlockMasks::new(&read);
                    let windows = random_windows(&mut rng, &read, lanes);
                    let refs: Vec<&[u8]> = windows.iter().map(|w| w.as_slice()).collect();
                    let mut got = Vec::new();
                    verifier.verify_lanes(&masks, &refs, k, &mut got);
                    assert_eq!(got.len(), lanes);
                    let mut work = BlockWork::default();
                    for (l, w) in refs.iter().enumerate() {
                        let expected = verify_with(&masks, w, k, &mut work);
                        assert_eq!(got[l], expected, "m={m} lanes={lanes} k={k} lane={l}");
                    }
                }
            }
        }
    }

    #[test]
    fn unequal_window_lengths_run_their_tails_exactly() {
        // One call's windows end at different columns, so every lane but
        // the shortest finishes in its own tail; the lengths straddle the
        // band's growth points (columns 59 and 123 for m = 150, k = 5)
        // and the tails must grow the band on their own.
        let mut rng = StdRng::seed_from_u64(73);
        let lengths = [0usize, 10, 58, 60, 124, 131, 160, 200];
        let mut verifier = BatchVerifier::new();
        let mut work = BlockWork::default();
        for m in [40usize, 100, 150] {
            let read = random_seq(&mut rng, m);
            let masks = BlockMasks::new(&read);
            for lanes in 1..=LANES {
                for reversed in [false, true] {
                    let windows: Vec<Vec<u8>> = (0..lanes)
                        .map(|l| {
                            let len =
                                lengths[if reversed { lanes - 1 - l } else { l } % lengths.len()];
                            let mut w = random_seq(&mut rng, len);
                            // Plant the read, lightly mutated, where it fits.
                            if len >= m + 2 {
                                w[2..2 + m].copy_from_slice(&read);
                                w[2 + m / 2] = (w[2 + m / 2] + 1) % 4;
                            }
                            w
                        })
                        .collect();
                    let refs: Vec<&[u8]> = windows.iter().map(|w| w.as_slice()).collect();
                    let mut got = Vec::new();
                    verifier.verify_lanes(&masks, &refs, 5, &mut got);
                    assert_eq!(got.len(), lanes);
                    for (l, w) in refs.iter().enumerate() {
                        assert_eq!(
                            got[l],
                            verify_with(&masks, w, 5, &mut work),
                            "m={m} lanes={lanes} reversed={reversed} lane={l}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_screen_passes_a_planted_prefix_and_rejects_a_planted_suffix() {
        let mut rng = StdRng::seed_from_u64(74);
        let read = random_seq(&mut rng, 150);
        let masks = BlockMasks::new(&read);
        let mut noise = |n| random_seq(&mut rng, n);
        let prefix_only = [noise(20), read[..64].to_vec(), noise(86), noise(20)].concat();
        let suffix_only = [noise(20), noise(64), read[64..].to_vec(), noise(20)].concat();
        let (p, s): (&[u8], &[u8]) = (&prefix_only, &suffix_only);
        assert_eq!(prefix_only.len(), suffix_only.len());
        // In lockstep, and in the tails an empty lane leaves them.
        assert_eq!(prefix_screen(&masks, &[p, s], 5), 0b01);
        assert_eq!(prefix_screen(&masks, &[&[], s, p], 5), 0b100);
    }

    #[test]
    fn verifier_reuse_across_reads_is_equivalent() {
        let mut rng = StdRng::seed_from_u64(72);
        let mut verifier = BatchVerifier::new();
        // Alternate big and small reads so slab reuse crosses sizes.
        for m in [150usize, 30, 200, 65, 100] {
            let read = random_seq(&mut rng, m);
            let masks = BlockMasks::new(&read);
            let windows = random_windows(&mut rng, &read, LANES);
            let refs: Vec<&[u8]> = windows.iter().map(|w| w.as_slice()).collect();
            let mut got = Vec::new();
            verifier.verify_lanes(&masks, &refs, 5, &mut got);
            let mut work = BlockWork::default();
            for (l, w) in refs.iter().enumerate() {
                assert_eq!(got[l], verify_with(&masks, w, 5, &mut work), "m={m} l={l}");
            }
        }
    }

    #[test]
    fn empty_windows_cost_nothing_and_miss() {
        let read = vec![0u8; 100];
        let masks = BlockMasks::new(&read);
        let mut verifier = BatchVerifier::new();
        let mut got = Vec::new();
        let empty: &[u8] = &[];
        verifier.verify_lanes(&masks, &[empty, empty], 5, &mut got);
        for (hit, cost) in got {
            assert!(hit.is_none());
            assert_eq!(cost.word_updates, 0);
        }
    }

    #[test]
    fn candidate_batch_is_plain_lanes() {
        let reference: Vec<u8> = (0..40).map(|i| (i % 4) as u8).collect();
        let mut batch = CandidateBatch::new();
        assert!(batch.is_empty());
        batch.push(10, 5, 25);
        batch.push(30, 20, 40);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.diag(1), 30);
        assert_eq!(batch.start(0), 5);
        assert_eq!(batch.end(0), 25);
        assert_eq!(batch.window(&reference, 0), &reference[5..25]);
        batch.clear();
        assert!(batch.is_empty());
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn too_many_lanes_rejected() {
        let read = vec![0u8; 10];
        let masks = BlockMasks::new(&read);
        let w: &[u8] = &[0, 1, 2];
        let mut out = Vec::new();
        BatchVerifier::new().verify_lanes(&masks, &[w; LANES + 1], 1, &mut out);
    }
}
