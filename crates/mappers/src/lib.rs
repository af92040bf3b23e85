//! Baseline read mappers for the REPUTE reproduction.
//!
//! The paper compares REPUTE against six published mappers (§III): RazerS3,
//! Hobbes3, Yara, BWA-MEM, GEM and CORAL. Running the original binaries is
//! not possible here, so this crate re-implements each tool's *mapping
//! strategy* — the part that determines its candidate counts, work profile
//! and sensitivity — on the shared substrates (`repute-index`,
//! `repute-align`, `repute-filter`):
//!
//! | Module | Tool | Strategy reproduced |
//! |---|---|---|
//! | [`razers3`] | RazerS3 | uniform pigeonhole partition, full-sensitivity all-mapper (the gold standard of §III-A) |
//! | [`hobbes3`] | Hobbes3 | optimally-placed fixed-length q-gram signatures from a hash index, all-mapper |
//! | [`yara`] | Yara | FM-index all-mapper reporting only the best stratum (best-mapper semantics) |
//! | [`bwamem`] | BWA-MEM | super-maximal exact match seeding, best-mapper |
//! | [`gem`] | GEM | adaptive progressive filtration with candidate caps, best-strata reporting |
//! | [`coral`] | CORAL | serial heuristic variable-length k-mer selection (the OpenCL predecessor of REPUTE) |
//!
//! All mappers implement the common [`Mapper`] trait, map both strands,
//! and report the substrate work they performed so the platform simulator
//! can convert algorithm runs into device seconds. All but RazerS3 — and
//! REPUTE itself, in `repute-core` — are [`map_read_with`], the per-read
//! pipeline, instantiated with their seeding step.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
mod engine;

pub mod brute;
pub mod bwamem;
pub mod coral;
pub mod gem;
pub mod hobbes3;
pub mod multiref;
pub mod razers3;
pub mod yara;

pub use common::{IndexedReference, MapOutput, Mapper, Mapping};
pub use engine::{map_read_with, select_and_locate, CandidateSet, Report, VerifyEngine};

/// Work-unit cost constants shared by every mapper implementation (and by
/// `repute-core`'s REPUTE kernel), in the platform simulator's currency.
pub mod engine_costs {
    pub use crate::engine::{DP_CELL_COST, EXTEND_COST, LOCATE_COST};
}
