//! Fixed-width bit-mask arithmetic over `&mut [u64]` scratch words.
//!
//! The SHD filter manipulates masks of one bit per read base. Reads are
//! a few hundred bases, so masks span a handful of words; every helper
//! here is a straight-line loop over whole words — no allocation, no
//! per-bit work. Bit `i` of a mask lives in word `i / 64`, position
//! `i % 64` (LSB-first, matching the Myers verifier's convention).

use std::ops::Range;

/// Packs 2-bit base codes into two bit-planes: bit `at + i` of `lo` is
/// bit 0 of `codes[i]`, the same bit of `hi` its bit 1 (higher bits of
/// a code are ignored). The planes must be zero where the codes land.
///
/// Eight bases go in per step: the eight code bytes are read as one
/// word and a multiply gathers one bit of each into a byte (the
/// products' bit positions `8i + 7j` never collide, so no carry
/// disturbs the top byte, where `j = 8 − i` lands byte `i` on bit `i`).
pub fn pack_planes(codes: &[u8], at: usize, lo: &mut [u64], hi: &mut [u64]) {
    fn gather(bytes: u64) -> u64 {
        (bytes & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56
    }
    let (chunks, rest) = codes.as_chunks::<8>();
    let mut last = [0u8; 8];
    last[..rest.len()].copy_from_slice(rest);
    let whole = chunks.iter().map(|chunk| (chunk, 8));
    let mut pos = at;
    for (chunk, len) in whole.chain((!rest.is_empty()).then_some((&last, rest.len()))) {
        let bytes = u64::from_le_bytes(*chunk);
        let (word, bit) = (pos / 64, pos % 64);
        for (plane, bits) in [(&mut *lo, gather(bytes)), (&mut *hi, gather(bytes >> 1))] {
            plane[word] |= bits << bit;
            if bit + len > 64 {
                plane[word + 1] |= bits >> (64 - bit);
            }
        }
        pos += 8;
    }
}

/// Sets the bits of `mask` at the positions in `range`.
pub fn set_range(mask: &mut [u64], range: Range<usize>) {
    for (k, word) in mask.iter_mut().enumerate() {
        let lo = range.start.max(64 * k);
        let hi = range.end.min(64 * k + 64);
        if lo < hi {
            *word |= (u64::MAX >> (64 - (hi - lo))) << (lo - 64 * k);
        }
    }
}

/// Bits `at..at + 64` of `plane` as one word — the plane shifted down
/// by `at`. `plane` must extend one word past the one holding bit `at`.
pub fn word_at(plane: &[u64], at: usize) -> u64 {
    let (word, bit) = (at / 64, at % 64);
    let pair = u128::from(plane[word + 1]) << 64 | u128::from(plane[word]);
    (pair >> bit) as u64
}

/// `mask &= mask << 1`, in place: a bit survives only above another set
/// bit (a 0 enters at bit 0). Applied `n` times, what survives is the
/// top of every run of more than `n` set bits.
pub fn and_shl1(mask: &mut [u64]) {
    let mut carry = 0u64;
    for w in mask {
        let shifted = (*w << 1) | carry;
        carry = *w >> 63;
        *w &= shifted;
    }
}

/// `mask |= mask >> 1`, in place: every set bit also sets the one below
/// it (a 0 enters at the top).
pub fn or_shr1(mask: &mut [u64]) {
    let mut carry = 0u64;
    for w in mask.iter_mut().rev() {
        let shifted = (*w >> 1) | carry;
        carry = *w << 63;
        *w |= shifted;
    }
}

/// Sound lower bound on the edits a ≤ δ alignment needs to explain the
/// surviving 1-bits of an amended-AND mask: each maximal 1-run of
/// length `ℓ` contributes `max(1, ⌈(ℓ−2)/3⌉)`.
///
/// Why: every surviving 1 is an edit position or part of an amended
/// match segment of ≤ 2 bases (longer segments survive amendment as
/// 0s). An edit therefore extends a run by at most 3 bits — itself
/// plus one adjacent short segment — so `ℓ ≤ 2 + 3e`; and a run with
/// no edit at all can only be a lone boundary segment of ≤ 2 bits,
/// which still claims the adjacent (read-position-free) deletion
/// uniquely, hence the floor of 1. Callers must special-case reads
/// shorter than the amendment cutoff, where a 0-edit whole-read run
/// can be amended.
pub fn streak_edit_bound(mask: &[u64], len: usize) -> u64 {
    let mut bound = 0u64;
    let mut run = 0u32; // the 1-run that reaches the current position
    for (k, &word) in mask.iter().enumerate().take(len.div_ceil(64)) {
        // `w` holds the bits not yet consumed at its bottom, 0s above.
        let mut left = (len - 64 * k).min(64) as u32;
        let mut w = word & (u64::MAX >> (64 - left));
        // Runs come off the bottom whole, a 1-run and a 0-run in turn.
        loop {
            let ones = w.trailing_ones();
            run += ones;
            if ones == left {
                break; // reached the top: the run carries into the next word
            }
            w >>= ones;
            left -= ones;
            if run > 0 {
                bound += run_cost(run);
                run = 0;
            }
            if w == 0 {
                break;
            }
            let zeros = w.trailing_zeros();
            w >>= zeros;
            left -= zeros;
        }
    }
    if run > 0 {
        bound += run_cost(run);
    }
    bound
}

fn run_cost(len: u32) -> u64 {
    if len <= 2 {
        1
    } else {
        u64::from(len - 2).div_ceil(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_to_words(bits: &[u8]) -> Vec<u64> {
        let mut words = vec![0u64; bits.len().div_ceil(64).max(1)];
        for (i, &b) in bits.iter().enumerate() {
            if b != 0 {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        words
    }

    #[test]
    fn pack_planes_splits_codes_at_any_offset() {
        let codes: Vec<u8> = (0..75).map(|i| ((i * 7 + i / 5) % 4) as u8).collect();
        for at in [0usize, 5, 59, 64] {
            let (mut lo, mut hi) = (vec![0u64; 3], vec![0u64; 3]);
            pack_planes(&codes, at, &mut lo, &mut hi);
            let bit = |plane: &[u64], p: usize| (plane[p / 64] >> (p % 64) & 1) as u8;
            for p in 0..192usize {
                let code = p.checked_sub(at).and_then(|i| codes.get(i)).copied();
                assert_eq!(bit(&lo, p), code.map_or(0, |c| c & 1), "lo {p} at {at}");
                assert_eq!(bit(&hi, p), code.map_or(0, |c| c >> 1), "hi {p} at {at}");
            }
        }
    }

    #[test]
    fn set_range_and_word_at_cross_words() {
        let mut mask = vec![0u64; 3];
        set_range(&mut mask, 60..70);
        assert_eq!(mask, vec![0xF << 60, 0x3F, 0]);
        assert_eq!(word_at(&mask, 58), 0x3FF << 2);
        assert_eq!(word_at(&mask, 64), 0x3F);
        set_range(&mut mask, 0..128);
        assert_eq!(mask, vec![u64::MAX, u64::MAX, 0]);
        assert_eq!(word_at(&mask, 127), 1);
    }

    #[test]
    fn shl1_carries_across_words() {
        // Bits 62..=64: a run of three across the word boundary.
        let mut mask = vec![0b11 << 62, 1];
        and_shl1(&mut mask);
        assert_eq!(mask, vec![1 << 63, 1]);
        and_shl1(&mut mask);
        assert_eq!(mask, vec![0, 1]);
    }

    #[test]
    fn shr1_carries_across_words() {
        let mut mask = vec![0, 1];
        or_shr1(&mut mask);
        assert_eq!(mask, vec![1 << 63, 1]);
        or_shr1(&mut mask);
        assert_eq!(mask, vec![0b11 << 62, 1]);
    }

    #[test]
    fn streak_edit_bound_charges_per_run() {
        // Runs: {0,1} (len 2 → 1), {5..=12} (len 8 → 2)
        let bits: Vec<u8> = (0..20)
            .map(|i| u8::from(i < 2 || (5..=12).contains(&i)))
            .collect();
        let words = bits_to_words(&bits);
        assert_eq!(streak_edit_bound(&words, 20), 3);
        assert_eq!(streak_edit_bound(&words, 1), 1);
        assert_eq!(streak_edit_bound(&[0u64], 20), 0);
        // len-5 run → 1 edit, len-6 → 2: the 2+3e breakpoints.
        let five = bits_to_words(&[1, 1, 1, 1, 1, 0]);
        assert_eq!(streak_edit_bound(&five, 6), 1);
        let six = bits_to_words(&[1, 1, 1, 1, 1, 1, 0]);
        assert_eq!(streak_edit_bound(&six, 7), 2);
    }
}
