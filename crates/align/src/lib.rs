//! Alignment and verification substrate for the REPUTE reproduction.
//!
//! The paper's verification stage (§II-A) aligns each read against the
//! reference window around a candidate location with a semi-global variant
//! of Myers' bit-vector algorithm, "one of the fastest and widely used"
//! methods. This crate provides:
//!
//! * [`dp`] — a full dynamic-programming reference implementation with
//!   traceback (the ground truth the bit-vector kernels are tested
//!   against, and the source of CIGAR strings),
//! * [`block`] — Myers' algorithm, blocked to any pattern length: one
//!   scalar kernel whether a read fills one 64-bit word or the two or
//!   three that 100–150 bases need,
//! * [`batch`] — the same kernel over up to [`LANES`] windows at once,
//! * [`Cigar`] — alignment descriptions (a paper §IV future-work item),
//! * [`verify`] — the verification entry point used by every mapper.
//!
//! # Example
//!
//! ```
//! use repute_align::verify;
//!
//! // read: ACGT, window: TTACGTTT, allow 1 error.
//! let read = [0u8, 1, 2, 3];
//! let window = [3u8, 3, 0, 1, 2, 3, 3, 3];
//! let hit = verify(&read, &window, 1).expect("read occurs");
//! assert_eq!(hit.distance, 0);
//! assert_eq!(hit.end, 6); // match ends before window index 6
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod batch;
pub mod block;
mod cigar;
pub mod dp;
mod verify;

pub use batch::{BatchVerifier, CandidateBatch, LANES};
pub use cigar::{Cigar, CigarOp};
pub use verify::{verify, verify_counting, verify_metered, verify_with, Verification, VerifyCost};

// Myers' single-word case: a read of at most 64 bases fills one word,
// and `block::search` runs the original one-word recurrence for it.
// These tests hold that case to the contract the paper's verification
// stage relies on, through the same entry points the mappers call.
#[cfg(test)]
mod myers {
    mod tests {
        use crate::block::{self, BlockMasks};
        use crate::{dp, verify};
        use repute_genome::rng::StdRng;

        #[test]
        fn exact_match_inside_text() {
            let masks = BlockMasks::new(&[0, 1, 2]);
            let hit = block::search(&masks, &[3, 0, 1, 2, 3], 0).unwrap();
            assert_eq!(hit.distance, 0);
            assert_eq!(hit.end, 4);
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
                let masks = BlockMasks::new(&pattern);
                assert_eq!(masks.blocks(), 1, "m={m}");
                let got = block::search(&masks, &text, m as u32).expect("within m errors always");
                assert_eq!(got.distance, expected.distance, "m={m} n={n}");
                assert_eq!(got.end, expected.end, "m={m} n={n} leftmost end");
            }
        }

        #[test]
        #[should_panic(expected = "must not be empty")]
        fn empty_pattern_rejected() {
            let _ = verify(&[], &[0, 1, 2, 3], 1);
        }
    }
}
