//! The verification entry point shared by every mapper.
//!
//! Runs the blocked Myers kernel ([`crate::block::search_with`]) for
//! reads of every length, and reports the bit-vector work performed so
//! the heterogeneous platform simulator can convert algorithmic work into
//! device time.

use crate::block::{self, BlockMasks, BlockWork};

/// A successful verification of a read against a candidate window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verification {
    /// Edit distance of the best alignment (≤ the `max_distance` asked for).
    pub distance: u32,
    /// Leftmost end position (exclusive) in the window achieving it.
    pub end: usize,
}

/// Work performed by a verification call, in bit-vector word-updates.
///
/// One unit is one `advance_block` step (64 DP cells). The device profiles
/// in the platform simulator are calibrated in these units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerifyCost {
    /// Number of 64-cell word updates executed.
    pub word_updates: u64,
}

/// Verifies `read` against `window` within `max_distance` edits
/// (semi-global: the read may start and end anywhere in the window).
///
/// Returns `None` when no alignment within `max_distance` exists.
///
/// # Panics
///
/// Panics if `read` is empty or contains codes above 3.
///
/// # Example
///
/// ```
/// use repute_align::verify;
///
/// let read = [0u8, 1, 2, 3];
/// assert!(verify(&read, &[3, 0, 1, 2, 3, 3], 0).is_some());
/// assert!(verify(&read, &[3, 3, 3, 3, 3, 3], 1).is_none());
/// ```
pub fn verify(read: &[u8], window: &[u8], max_distance: u32) -> Option<Verification> {
    verify_counting(read, window, max_distance).0
}

/// Like [`verify`], additionally reporting the bit-vector work done.
///
/// Thin wrapper over [`verify_with`] that rebuilds the pattern masks on
/// every call; hot paths verifying many windows of the same read should
/// build the read's [`BlockMasks`] once and call [`verify_with`]
/// directly.
pub fn verify_counting(
    read: &[u8],
    window: &[u8],
    max_distance: u32,
) -> (Option<Verification>, VerifyCost) {
    verify_with(
        &BlockMasks::new(read),
        window,
        max_distance,
        &mut BlockWork::default(),
    )
}

/// The masks-accepting verification entry point: verifies the read whose
/// precomputed [`BlockMasks`] are given against `window`, reusing
/// `work` across calls.
///
/// The reported [`VerifyCost`] is the work the kernel *actually*
/// executed: one unit per `advance_block` step — one a column for a read
/// of one block, and fewer than `window × blocks` for a longer one,
/// whose Ukkonen band skips out-of-band blocks. Metered device time and
/// simulated kernel time therefore agree by construction.
pub fn verify_with(
    masks: &BlockMasks,
    window: &[u8],
    max_distance: u32,
    work: &mut BlockWork,
) -> (Option<Verification>, VerifyCost) {
    let hit = block::search_with(masks, window, max_distance, work);
    let cost = VerifyCost {
        word_updates: work.word_updates(),
    };
    (hit, cost)
}

/// Like [`verify`], recording the call into a [`repute_obs::MapMetrics`]
/// record: one verification, the bit-vector word updates performed, and a
/// hit when the window passes. This is the instrumented entry point the
/// mapping pipeline threads its per-read telemetry through; the counts it
/// adds are exactly what [`verify_counting`] reports, so metered and
/// unmetered callers see identical work accounting.
pub fn verify_metered(
    read: &[u8],
    window: &[u8],
    max_distance: u32,
    metrics: &mut repute_obs::MapMetrics,
) -> Option<Verification> {
    let (hit, cost) = verify_counting(read, window, max_distance);
    metrics.verifications += 1;
    metrics.word_updates += cost.word_updates;
    metrics.hits += u64::from(hit.is_some());
    hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp;
    use repute_genome::rng::StdRng;

    #[test]
    fn agrees_with_dp_at_one_two_and_three_blocks() {
        let mut rng = StdRng::seed_from_u64(61);
        for m in [10usize, 64, 65, 100, 150] {
            let read: Vec<u8> = (0..m).map(|_| rng.gen_range(0..4)).collect();
            let window: Vec<u8> = (0..m + 30).map(|_| rng.gen_range(0..4)).collect();
            let expected = dp::semi_global(&read, &window).unwrap();
            let got = verify(&read, &window, m as u32).unwrap();
            assert_eq!(got.distance, expected.distance, "m={m}");
            assert_eq!(got.end, expected.end, "m={m}");
        }
    }

    #[test]
    fn cost_scales_with_blocks() {
        let short = vec![0u8; 60];
        let long = vec![0u8; 150];
        let window = vec![0u8; 100];
        let (_, c1) = verify_counting(&short, &window, 60);
        let (_, c2) = verify_counting(&long, &window, 150);
        assert_eq!(c1.word_updates, 100);
        assert_eq!(c2.word_updates, 300); // 3 blocks × 100 columns, band wide open
                                          // Banded case: at δ = 7 the blocked kernel only advances blocks
                                          // covering pattern rows ≤ column + δ, and the charged cost must
                                          // equal that actual work, not the naive 300.
        let (_, c3) = verify_counting(&long, &window, 7);
        let banded: u64 = (1..=100u64).map(|col| ((col + 7) / 64 + 1).min(3)).sum();
        assert_eq!(c3.word_updates, banded);
        assert!(c3.word_updates < 300);
    }

    #[test]
    fn masks_reuse_matches_per_call_rebuild() {
        let mut rng = StdRng::seed_from_u64(63);
        for m in [30usize, 64, 100, 150] {
            let read: Vec<u8> = (0..m).map(|_| rng.gen_range(0..4)).collect();
            let masks = BlockMasks::new(&read);
            assert_eq!(masks.len(), m);
            assert_eq!(masks.blocks(), m.div_ceil(64));
            assert!(!masks.is_empty());
            let mut work = BlockWork::default();
            for _ in 0..4 {
                let n = rng.gen_range(0..=(m + 30));
                let window: Vec<u8> = (0..n).map(|_| rng.gen_range(0..4)).collect();
                for k in [3u32, m as u32] {
                    let fresh = verify_counting(&read, &window, k);
                    let reused = verify_with(&masks, &window, k, &mut work);
                    assert_eq!(fresh, reused, "m={m} n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn rejection_within_budget() {
        let read = vec![0u8; 100];
        let window = vec![3u8; 120];
        assert!(verify(&read, &window, 5).is_none());
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_read_rejected() {
        let _ = verify(&[], &[0, 1], 1);
    }

    #[test]
    fn metered_agrees_with_counting() {
        let mut rng = StdRng::seed_from_u64(62);
        let mut metrics = repute_obs::MapMetrics::new();
        let mut expected_words = 0u64;
        let mut expected_hits = 0u64;
        for m in [40usize, 100] {
            let read: Vec<u8> = (0..m).map(|_| rng.gen_range(0..4)).collect();
            let window: Vec<u8> = (0..m + 20).map(|_| rng.gen_range(0..4)).collect();
            let (hit, cost) = verify_counting(&read, &window, 8);
            expected_words += cost.word_updates;
            expected_hits += u64::from(hit.is_some());
            assert_eq!(verify_metered(&read, &window, 8, &mut metrics), hit);
        }
        assert_eq!(metrics.verifications, 2);
        assert_eq!(metrics.word_updates, expected_words);
        assert_eq!(metrics.hits, expected_hits);
    }
}
