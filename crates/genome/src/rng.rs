//! Self-contained pseudo-random number generation.
//!
//! The workspace builds in hermetic environments with no registry access,
//! so it cannot depend on the `rand` crate. This module provides the tiny
//! slice of `rand`'s API the reproduction actually uses — seeding from a
//! `u64`, uniform integers over (inclusive) ranges, `f64` in `[0, 1)` and
//! fair booleans — as *inherent* methods on a type named [`StdRng`], so
//! call sites are source-compatible modulo the `use` line.
//!
//! The generator is xoshiro256++ (Blackman & Vigna), seeded through
//! SplitMix64 exactly as `rand` seeds its small RNGs: fast, 256 bits of
//! state, and more than adequate for synthetic-genome generation and
//! randomised tests. It is **not** cryptographically secure.

use std::ops::{Range, RangeInclusive};

/// SplitMix64 step: the recommended seeder for xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator with a `rand`-compatible
/// surface.
///
/// # Example
///
/// ```
/// use repute_genome::rng::StdRng;
///
/// let mut rng = StdRng::seed_from_u64(42);
/// let die: u8 = rng.gen_range(1..=6);
/// assert!((1..=6).contains(&die));
/// let p = rng.gen::<f64>();
/// assert!((0.0..1.0).contains(&p));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> StdRng {
        let mut sm = seed;
        StdRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next 64 raw bits of the stream.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The next 32 raw bits (the upper half of the next 64).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Samples a value of `T` from its standard distribution (`f64` in
    /// `[0, 1)`, fair `bool`, full-range integers).
    pub fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Returns `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// Samples uniformly from `range` (`lo..hi` or `lo..=hi`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }
}

/// Types with a standard distribution for [`StdRng::gen`].
pub trait Standard: Sized {
    /// Draws one value.
    fn sample(rng: &mut StdRng) -> Self;
}

impl Standard for f64 {
    fn sample(rng: &mut StdRng) -> f64 {
        // 53 high-quality mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample(rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn sample(rng: &mut StdRng) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample(rng: &mut StdRng) -> u32 {
        rng.next_u32()
    }
}

impl Standard for u8 {
    fn sample(rng: &mut StdRng) -> u8 {
        (rng.next_u64() >> 56) as u8
    }
}

/// Integer types [`StdRng::gen_range`] can sample uniformly.
pub trait SampleUniform: Copy {
    /// Uniform draw from `lo..hi`.
    fn sample_exclusive(rng: &mut StdRng, lo: Self, hi: Self) -> Self;
    /// Uniform draw from `lo..=hi`.
    fn sample_inclusive(rng: &mut StdRng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            fn sample_exclusive(rng: &mut StdRng, lo: $t, hi: $t) -> $t {
                assert!(lo < hi, "cannot sample from empty range {lo}..{hi}");
                let span = (hi as i128 - lo as i128) as u128;
                // Lemire multiply-shift: bias < 2⁻⁶⁴, irrelevant here.
                let off = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (lo as i128 + off) as $t
            }
            fn sample_inclusive(rng: &mut StdRng, lo: $t, hi: $t) -> $t {
                assert!(lo <= hi, "cannot sample from empty range {lo}..={hi}");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Range shapes accepted by [`StdRng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from(self, rng: &mut StdRng) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from(self, rng: &mut StdRng) -> T {
        T::sample_exclusive(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from(self, rng: &mut StdRng) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_inclusive(rng, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let v: u8 = rng.gen_range(0..4);
            assert!(v < 4);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reached");
        for _ in 0..200 {
            let v = rng.gen_range(-2i16..=2);
            assert!((-2..=2).contains(&v));
            let w = rng.gen_range(10usize..=10);
            assert_eq!(w, 10);
        }
    }

    #[test]
    fn f64_uniform_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn bools_are_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(5);
        let trues = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((4_500..5_500).contains(&trues), "{trues} heads of 10000");
        let biased = (0..10_000).filter(|_| rng.gen_bool(0.9)).count();
        assert!(biased > 8_500, "{biased} of 10000 at p=0.9");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        let _ = StdRng::seed_from_u64(0).gen_range(5..5usize);
    }
}
