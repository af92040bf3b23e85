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
//! * [`myers`] — Myers' algorithm for patterns up to 64 bases,
//! * [`block`] — the blocked (multi-word) extension for arbitrary pattern
//!   lengths (reads of 100–150 bases need two or three words),
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
pub mod myers;
mod verify;

pub use batch::{BatchVerifier, CandidateBatch, LANES};
pub use cigar::{Cigar, CigarOp};
pub use verify::{
    verify, verify_counting, verify_metered, verify_with, ReadMasks, Verification, VerifyCost,
    VerifyScratch,
};
