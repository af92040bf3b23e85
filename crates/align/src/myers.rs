//! Myers' bit-vector algorithm for patterns up to 64 bases.
//!
//! This is "Myer's bit vector algorithm" from the paper's §II-A: a
//! semi-global edit-distance scan that processes one text character per
//! iteration using word-parallel bit operations — the reason verification
//! is cheap enough to run on every candidate location.

/// Maximum pattern length for the single-word kernel.
pub const MAX_PATTERN: usize = 64;

/// Per-base pattern match masks (`Peq`).
///
/// Precomputing the masks once per read amortises setup across the many
/// candidate windows a read is verified against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternMasks {
    peq: [u64; 4],
    len: usize,
}

impl PatternMasks {
    /// Builds match masks for a pattern of 2-bit base codes.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is empty, longer than [`MAX_PATTERN`], or
    /// contains a code above 3.
    pub fn new(pattern: &[u8]) -> PatternMasks {
        assert!(
            !pattern.is_empty() && pattern.len() <= MAX_PATTERN,
            "pattern length {} outside 1..={MAX_PATTERN}",
            pattern.len()
        );
        let mut peq = [0u64; 4];
        for (i, &c) in pattern.iter().enumerate() {
            assert!(c <= 3, "base code {c} out of range");
            peq[c as usize] |= 1u64 << i;
        }
        PatternMasks {
            peq,
            len: pattern.len(),
        }
    }

    /// Pattern length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `false` always (patterns cannot be empty), provided for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The per-base match masks, for the batch kernel's lane gather.
    pub(crate) fn peq(&self) -> &[u64; 4] {
        &self.peq
    }
}

/// Result of a semi-global Myers scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MyersHit {
    /// Best edit distance over all text end positions.
    pub distance: u32,
    /// Leftmost end position (exclusive) achieving that distance.
    pub end: usize,
}

/// Scans `text` for the best semi-global occurrence of the pattern.
///
/// Equivalent to [`crate::dp::semi_global`] but word-parallel. Returns the
/// minimum edit distance over all end positions and the leftmost position
/// achieving it; `max_distance` allows early rejection — if no end position
/// achieves a distance ≤ `max_distance`, `None` is returned.
///
/// # Example
///
/// ```
/// use repute_align::myers::{PatternMasks, search};
///
/// let masks = PatternMasks::new(&[0, 1, 2, 3]); // ACGT
/// let hit = search(&masks, &[3, 3, 0, 1, 2, 3, 3], 1).expect("found");
/// assert_eq!(hit.distance, 0);
/// assert_eq!(hit.end, 6);
/// ```
pub fn search(masks: &PatternMasks, text: &[u8], max_distance: u32) -> Option<MyersHit> {
    let m = masks.len;
    let high = 1u64 << (m - 1);
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = m as u32;
    let mut best: Option<MyersHit> = if score <= max_distance {
        Some(MyersHit {
            distance: score,
            end: 0,
        })
    } else {
        None
    };
    for (j, &c) in text.iter().enumerate() {
        debug_assert!(c <= 3, "base code out of range");
        let eq = masks.peq[(c & 3) as usize];
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & high != 0 {
            score += 1;
        } else if mh & high != 0 {
            score -= 1;
        }
        // Free start in the text: the top row stays zero, so no carry is
        // injected into the shifted horizontal deltas.
        let ph = ph << 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
        if score <= max_distance && best.is_none_or(|b| score < b.distance) {
            best = Some(MyersHit {
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
    fn exact_match_inside_text() {
        let masks = PatternMasks::new(&[0, 1, 2]);
        let hit = search(&masks, &[3, 0, 1, 2, 3], 0).unwrap();
        assert_eq!(hit.distance, 0);
        assert_eq!(hit.end, 4);
    }

    #[test]
    fn rejects_beyond_max_distance() {
        let masks = PatternMasks::new(&[0, 0, 0, 0]);
        assert!(search(&masks, &[3, 3, 3, 3], 2).is_none());
        assert!(search(&masks, &[3, 3, 3, 3], 4).is_some());
    }

    #[test]
    fn empty_text_costs_full_pattern() {
        let masks = PatternMasks::new(&[0, 1]);
        let hit = search(&masks, &[], 2).unwrap();
        assert_eq!(hit.distance, 2);
        assert!(search(&masks, &[], 1).is_none());
    }

    #[test]
    fn agrees_with_dp_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..300 {
            let m = rng.gen_range(1..=64usize);
            let n = rng.gen_range(0..=120usize);
            let pattern: Vec<u8> = (0..m).map(|_| rng.gen_range(0..4)).collect();
            let text: Vec<u8> = (0..n).map(|_| rng.gen_range(0..4)).collect();
            let expected = dp::semi_global(&pattern, &text).unwrap();
            let masks = PatternMasks::new(&pattern);
            let got = search(&masks, &text, m as u32).expect("within m errors always");
            assert_eq!(got.distance, expected.distance, "m={m} n={n}");
            assert_eq!(got.end, expected.end, "m={m} n={n} leftmost end");
        }
    }

    #[test]
    fn boundary_pattern_length_64() {
        let pattern: Vec<u8> = (0..64).map(|i| (i % 4) as u8).collect();
        let mut text = vec![3u8, 3];
        text.extend_from_slice(&pattern);
        text.push(0);
        let masks = PatternMasks::new(&pattern);
        let hit = search(&masks, &text, 0).unwrap();
        assert_eq!(hit.distance, 0);
        assert_eq!(hit.end, 66);
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn oversized_pattern_rejected() {
        let _ = PatternMasks::new(&[0u8; 65]);
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn empty_pattern_rejected() {
        let _ = PatternMasks::new(&[]);
    }
}
