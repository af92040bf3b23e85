//! Batch SWAR verification: several candidate windows per kernel pass.
//!
//! The scalar kernels in [`crate::myers`] and [`crate::block`] are a
//! single serial dependency chain: each column's `pv`/`mv` update waits
//! on the previous column's. A read's candidate windows, however, are
//! completely independent of each other, so this module advances
//! [`LANES`] of them in lockstep inside one loop body — four independent
//! dependency chains that a superscalar core can overlap, the software
//! analogue of the work-item batching the paper's OpenCL kernels get
//! from the GPU for free.
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
//! Both kernels replicate the scalar recurrences bit for bit — the same
//! column order, the same Ukkonen band (shared across lanes, since the
//! band of `block::band_blocks` depends only on the column and
//! the error budget), the same work accounting — so every lane's
//! `(Option<Verification>, VerifyCost)` is identical to what
//! [`crate::verify_with`] returns for that window alone. The scalar
//! path stays in the tree as the differential oracle.

use crate::arena::WordArena;
use crate::block::{band_blocks, BlockMasks};
use crate::myers::PatternMasks;
use crate::verify::{ReadMasks, Verification, VerifyCost};

const WORD: usize = 64;

/// Number of candidate windows a batch kernel pass advances in lockstep.
pub const LANES: usize = 4;

/// Sentinel distance meaning "no end position within budget found yet";
/// real scores never exceed the read length, far below this.
const NO_HIT: u32 = u32::MAX;

/// Branchless [`crate::block::advance_block`]: bit-identical outputs,
/// with the horizontal deltas folded in arithmetically instead of via
/// data-dependent branches. The scalar kernel's `hin`/top-bit branches
/// follow the window content, so on the batch kernels' mix of accepting
/// and rejecting windows they mispredict constantly; here every delta is
/// a mask-and-or. Equality holds because `ph & mh == 0` (the `pv`/`mv`
/// disjointness invariant makes the two top-bit cases exclusive) and
/// `hin ∈ {−1, 0, +1}` makes the two low-bit injections exclusive.
#[inline]
fn advance_block_branchless(pv: &mut u64, mv: &mut u64, eq: u64, hin: i32) -> (i32, u64, u64) {
    debug_assert!((-1..=1).contains(&hin), "hin out of range");
    let hin_neg = ((hin >> 31) & 1) as u64; // 1 iff hin < 0
    let hin_pos = ((-hin >> 31) & 1) as u64; // 1 iff hin > 0
    let eq = eq | hin_neg;
    let xv = eq | *mv;
    let xh = (((eq & *pv).wrapping_add(*pv)) ^ *pv) | eq;
    let ph = *mv | !(xh | *pv);
    let mh = *pv & xh;
    let hout = ((ph >> (WORD - 1)) & 1) as i32 - ((mh >> (WORD - 1)) & 1) as i32;
    let ph_shift = (ph << 1) | hin_pos;
    let mh_shift = (mh << 1) | hin_neg;
    *pv = mh_shift | !(xv | ph_shift);
    *mv = ph_shift & xv;
    (hout, ph, mh)
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

    /// Verifies up to [`LANES`] windows of the read whose [`ReadMasks`]
    /// are given, pushing one `(hit, cost)` pair per window onto `out`
    /// in input order.
    ///
    /// Each pair is bit-identical to what [`crate::verify_with`] returns
    /// for that window alone — same `(distance, end)`, same
    /// `word_updates` charge (the shared Ukkonen band is a function of
    /// the column and `max_distance` only, so lockstep execution changes
    /// no lane's banded work).
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty or holds more than [`LANES`] entries.
    pub fn verify_lanes(
        &mut self,
        masks: &ReadMasks,
        windows: &[&[u8]],
        max_distance: u32,
        out: &mut Vec<(Option<Verification>, VerifyCost)>,
    ) {
        assert!(
            !windows.is_empty() && windows.len() <= LANES,
            "lane count {} outside 1..={LANES}",
            windows.len()
        );
        match masks {
            ReadMasks::Short(m) => short_lanes(m, windows, max_distance, out),
            ReadMasks::Blocked(m) => {
                blocked_lanes(&mut self.pv, &mut self.mv, m, windows, max_distance, out);
            }
        }
    }
}

/// Multi-lane single-word kernel: the [`crate::myers::search`] recurrence
/// with the per-lane state held in fixed arrays. Unused lanes idle on
/// zeroed state and are never emitted.
#[allow(clippy::needless_range_loop)] // lanes and columns advance in lockstep
fn short_lanes(
    masks: &PatternMasks,
    windows: &[&[u8]],
    max_distance: u32,
    out: &mut Vec<(Option<Verification>, VerifyCost)>,
) {
    let lanes = windows.len();
    let m = masks.len();
    let high = 1u64 << (m - 1);
    let peq = masks.peq();
    let mut pv = [!0u64; LANES];
    let mut mv = [0u64; LANES];
    let mut score = [m as u32; LANES];
    let mut best_d = [NO_HIT; LANES];
    let mut best_e = [0usize; LANES];
    if (m as u32) <= max_distance {
        best_d = [m as u32; LANES];
    }
    let min_len = windows.iter().map(|w| w.len()).min().unwrap_or(0);
    macro_rules! step {
        ($l:expr, $j:expr) => {{
            let l = $l;
            let c = windows[l][$j];
            debug_assert!(c <= 3, "base code out of range");
            let eq = peq[(c & 3) as usize];
            let xv = eq | mv[l];
            let xh = (((eq & pv[l]).wrapping_add(pv[l])) ^ pv[l]) | eq;
            let ph = mv[l] | !(xh | pv[l]);
            let mh = pv[l] & xh;
            score[l] = score[l]
                .wrapping_add(u32::from(ph & high != 0))
                .wrapping_sub(u32::from(mh & high != 0));
            let ph = ph << 1;
            let mh = mh << 1;
            pv[l] = mh | !(xv | ph);
            mv[l] = ph & xv;
            if score[l] <= max_distance && score[l] < best_d[l] {
                best_d[l] = score[l];
                best_e[l] = $j + 1;
            }
        }};
    }
    // Lockstep over the shared prefix: four independent chains per body.
    for j in 0..min_len {
        for l in 0..lanes {
            step!(l, j);
        }
    }
    // Per-lane scalar tails for the remaining columns.
    for l in 0..lanes {
        for j in min_len..windows[l].len() {
            step!(l, j);
        }
    }
    for l in 0..lanes {
        let hit = (best_d[l] != NO_HIT).then_some(Verification {
            distance: best_d[l],
            end: best_e[l],
        });
        let cost = VerifyCost {
            word_updates: windows[l].len() as u64,
        };
        out.push((hit, cost));
    }
}

/// Dispatches the blocked kernel to a const-lane-count instantiation so
/// the per-lane loops fully unroll and the lane state lives in
/// registers. `verify_lanes` guarantees 1..=[`LANES`] windows.
fn blocked_lanes(
    pv_arena: &mut WordArena,
    mv_arena: &mut WordArena,
    masks: &BlockMasks,
    windows: &[&[u8]],
    max_distance: u32,
    out: &mut Vec<(Option<Verification>, VerifyCost)>,
) {
    match *windows {
        [a] => blocked_lanes_n::<1>(pv_arena, mv_arena, masks, &[a], max_distance, out),
        [a, b] => blocked_lanes_n::<2>(pv_arena, mv_arena, masks, &[a, b], max_distance, out),
        [a, b, c] => blocked_lanes_n::<3>(pv_arena, mv_arena, masks, &[a, b, c], max_distance, out),
        [a, b, c, d] => {
            blocked_lanes_n::<4>(pv_arena, mv_arena, masks, &[a, b, c, d], max_distance, out);
        }
        _ => unreachable!("verify_lanes admits 1..={LANES} windows"),
    }
}

/// Multi-lane blocked kernel: the banded [`crate::block::search_with`]
/// recurrence over lane-interleaved slabs (`slab[b * L + l]` is block
/// `b` of lane `l`). The band width `active` is shared by all lanes
/// over the lockstep prefix (it depends only on the column index and
/// `max_distance`); each lane's tail continues the band formula alone
/// on its strided slab words.
#[allow(clippy::needless_range_loop)] // lanes, blocks and columns advance in lockstep
fn blocked_lanes_n<const L: usize>(
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
    let min_len = windows.iter().map(|w| w.len()).min().unwrap_or(0);
    // Lockstep over the shared prefix.
    for j in 0..min_len {
        let needed = band_blocks(blocks, k, j + 1);
        while active < needed {
            active += 1;
            for l in 0..L {
                if active == blocks {
                    score[l] = border[l] + (m - (active - 1) * WORD) as u32;
                } else {
                    border[l] += WORD as u32;
                }
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
        let mut hin = [0i32; L];
        let mut last_ph = [0u64; L];
        let mut last_mh = [0u64; L];
        // All blocks but the last, then the last one peeled so only it
        // pays for capturing the bottom-row delta vectors.
        for b in 0..active - 1 {
            let row = b * L;
            for l in 0..L {
                let (hout, _, _) =
                    advance_block_branchless(&mut pv[row + l], &mut mv[row + l], eqs[l][b], hin[l]);
                hin[l] = hout;
            }
        }
        let row = (active - 1) * L;
        for l in 0..L {
            let (hout, ph, mh) = advance_block_branchless(
                &mut pv[row + l],
                &mut mv[row + l],
                eqs[l][active - 1],
                hin[l],
            );
            hin[l] = hout;
            last_ph[l] = ph;
            last_mh[l] = mh;
        }
        for l in 0..L {
            updates[l] += active as u64;
            if active == blocks {
                // Branchless score step; `ph & mh == 0` keeps the two
                // cases exclusive, exactly as the scalar if/else chain.
                score[l] = score[l]
                    .wrapping_add(u32::from(last_ph[l] & last_mask != 0))
                    .wrapping_sub(u32::from(last_mh[l] & last_mask != 0));
                if score[l] <= max_distance && score[l] < best_d[l] {
                    best_d[l] = score[l];
                    best_e[l] = j + 1;
                }
            } else {
                border[l] = border[l].wrapping_add_signed(hin[l]);
            }
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
                if lane_active == blocks {
                    score[l] = border[l] + (m - (lane_active - 1) * WORD) as u32;
                } else {
                    border[l] += WORD as u32;
                }
            }
            let c = windows[l][j];
            debug_assert!(c <= 3, "base code out of range");
            let eq_row = &peq[(c & 3) as usize][..lane_active];
            let mut hin = 0i32;
            for (b, &eq) in eq_row[..lane_active - 1].iter().enumerate() {
                let idx = b * L + l;
                let (hout, _, _) = advance_block_branchless(&mut pv[idx], &mut mv[idx], eq, hin);
                hin = hout;
            }
            let idx = (lane_active - 1) * L + l;
            let (hout, last_ph, last_mh) =
                advance_block_branchless(&mut pv[idx], &mut mv[idx], eq_row[lane_active - 1], hin);
            let hin = hout;
            updates[l] += lane_active as u64;
            if lane_active == blocks {
                score[l] = score[l]
                    .wrapping_add(u32::from(last_ph & last_mask != 0))
                    .wrapping_sub(u32::from(last_mh & last_mask != 0));
                if score[l] <= max_distance && score[l] < best_d[l] {
                    best_d[l] = score[l];
                    best_e[l] = j + 1;
                }
            } else {
                border[l] = border[l].wrapping_add_signed(hin);
            }
        }
        let hit = (best_d[l] != NO_HIT).then_some(Verification {
            distance: best_d[l],
            end: best_e[l],
        });
        let cost = VerifyCost {
            word_updates: updates[l],
        };
        out.push((hit, cost));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_with, VerifyScratch};
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
        for m in [12usize, 64, 65, 100, 150, 200] {
            for lanes in 1..=LANES {
                for k in [2u32, 7, 20, m as u32] {
                    let read = random_seq(&mut rng, m);
                    let masks = ReadMasks::new(&read);
                    let windows = random_windows(&mut rng, &read, lanes);
                    let refs: Vec<&[u8]> = windows.iter().map(|w| w.as_slice()).collect();
                    let mut got = Vec::new();
                    verifier.verify_lanes(&masks, &refs, k, &mut got);
                    assert_eq!(got.len(), lanes);
                    let mut scratch = VerifyScratch::new();
                    for (l, w) in refs.iter().enumerate() {
                        let expected = verify_with(&masks, w, k, &mut scratch);
                        assert_eq!(got[l], expected, "m={m} lanes={lanes} k={k} lane={l}");
                    }
                }
            }
        }
    }

    #[test]
    fn verifier_reuse_across_reads_is_equivalent() {
        let mut rng = StdRng::seed_from_u64(72);
        let mut verifier = BatchVerifier::new();
        // Alternate big and small reads so slab reuse crosses sizes.
        for m in [150usize, 30, 200, 65, 100] {
            let read = random_seq(&mut rng, m);
            let masks = ReadMasks::new(&read);
            let windows = random_windows(&mut rng, &read, LANES);
            let refs: Vec<&[u8]> = windows.iter().map(|w| w.as_slice()).collect();
            let mut got = Vec::new();
            verifier.verify_lanes(&masks, &refs, 5, &mut got);
            let mut scratch = VerifyScratch::new();
            for (l, w) in refs.iter().enumerate() {
                assert_eq!(
                    got[l],
                    verify_with(&masks, w, 5, &mut scratch),
                    "m={m} l={l}"
                );
            }
        }
    }

    #[test]
    fn empty_windows_cost_nothing_and_miss() {
        let read = vec![0u8; 100];
        let masks = ReadMasks::new(&read);
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
        let masks = ReadMasks::new(&read);
        let w: &[u8] = &[0, 1, 2];
        let mut out = Vec::new();
        BatchVerifier::new().verify_lanes(&masks, &[w; 5], 1, &mut out);
    }
}
