//! Umbrella crate for the REPUTE reproduction.
//!
//! Re-exports every workspace crate under one roof and offers a
//! [`prelude`] with the handful of types most programs need. Depend on
//! the individual crates (`repute-core`, `repute-genome`, …) when you
//! want a narrow dependency; depend on this crate when you want the whole
//! system (as the examples and integration tests in this repository do).
//!
//! # Example
//!
//! ```
//! use repute_suite::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let reference = ReferenceBuilder::new(100_000).seed(1).build();
//! let read = reference.subseq(500..600);
//! let indexed = std::sync::Arc::new(IndexedReference::build(reference));
//! let mapper = ReputeMapper::new(indexed, ReputeConfig::new(4, 13)?);
//! assert!(mapper.map_read(&read).mappings.iter().any(|m| m.position == 500));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use repute_align as align;
pub use repute_core as core;
pub use repute_eval as eval;
pub use repute_filter as filter;
pub use repute_genome as genome;
pub use repute_hetsim as hetsim;
pub use repute_index as index;
pub use repute_mappers as mappers;

/// The types most mapping programs start with.
pub mod prelude {
    pub use repute_core::{ReputeConfig, ReputeMapper};
    pub use repute_genome::fasta::{read_fasta, AmbiguityPolicy};
    pub use repute_genome::fastq::read_fastq;
    pub use repute_genome::reads::{ErrorProfile, ReadSimulator};
    pub use repute_genome::synth::ReferenceBuilder;
    pub use repute_genome::{Base, DnaSeq, Strand};
    pub use repute_hetsim::{profiles, Platform, Share};
    pub use repute_mappers::multiref::ReferenceSet;
    pub use repute_mappers::{IndexedReference, Mapper, Mapping};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_covers_the_quickstart_flow() {
        use crate::prelude::*;
        let reference = ReferenceBuilder::new(60_000).seed(2).build();
        let read = reference.subseq(1_000..1_100);
        let indexed = std::sync::Arc::new(IndexedReference::build(reference));
        let mapper = ReputeMapper::new(indexed, ReputeConfig::new(3, 15).expect("valid"));
        let out = mapper.map_read(&read);
        assert!(out.mappings.iter().any(|m| m.position == 1_000));
    }

    #[test]
    fn crate_aliases_resolve() {
        // One symbol per re-exported crate, so a rename breaks loudly.
        let _ = crate::genome::Base::A;
        let _ = crate::index::FmIndex::builder();
        let _: u32 = crate::align::dp::edit_distance(&[0], &[1]);
        let _ = crate::filter::pigeonhole::uniform_partition(10, 2);
        let _ = crate::hetsim::profiles::system1();
        let _ = crate::eval::stats::MappingStats::default();
        let _ = crate::mappers::IndexedReference::DEFAULT_Q;
        let _ = crate::core::ReputeConfig::new(3, 12).expect("valid");
    }
}
