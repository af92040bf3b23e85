//! Genomic sequence substrate for the REPUTE reproduction.
//!
//! This crate provides everything the mapper stack needs to talk about DNA:
//!
//! * [`Base`] — the four-letter nucleotide alphabet with 2-bit codes,
//! * [`DnaSeq`] — a 2-bit packed, growable DNA sequence,
//! * [`fasta`] / [`fastq`] — line-oriented readers and writers,
//! * [`synth`] — a synthetic reference generator (Markov composition plus
//!   tandem and interspersed repeat families), the stand-in for human
//!   chromosome 21 used throughout the evaluation,
//! * [`reads`] — a read simulator with per-platform error profiles, the
//!   stand-in for the NCBI read sets (`ERR012100_1`, `SRR826460_1`) used in
//!   the paper,
//! * [`wire`] — how every on-disk format of the workspace is framed,
//!   checksummed and bounded.
//!
//! # Example
//!
//! ```
//! use repute_genome::{DnaSeq, Base};
//!
//! # fn main() -> Result<(), repute_genome::GenomeError> {
//! let seq: DnaSeq = "ACGTACGT".parse()?;
//! assert_eq!(seq.len(), 8);
//! assert_eq!(seq.base(0), Base::A);
//! assert_eq!(seq.reverse_complement().to_string(), "ACGTACGT");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alphabet;
mod error;
mod seq;

pub mod fasta;
pub mod fastq;
pub mod reads;
pub mod rng;
pub mod synth;
pub mod wire;

pub use alphabet::{Base, Strand};
pub use error::GenomeError;
pub use seq::DnaSeq;
