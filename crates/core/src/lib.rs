//! REPUTE — an OpenCL-style REad maPper for heterogeneoUs sysTEms.
//!
//! This crate is the reproduction's primary deliverable: the mapper the
//! DATE 2020 paper proposes. Mapping proceeds in the paper's three stages:
//!
//! 1. **Preprocessing** — the reference is indexed once
//!    ([`repute_mappers::IndexedReference`]: FM-Index + sampled suffix
//!    array);
//! 2. **Filtration** — each read is partitioned into δ+1 k-mers by the
//!    memory-optimised DP of [`repute_filter::oss`], minimising the total
//!    candidate count (the paper's contribution, inspired by the Optimal
//!    Seed Solver);
//! 3. **Verification** — every candidate window is checked with the Myers
//!    bit-vector kernel of [`repute_align`], reporting the *first-n*
//!    locations per read (the OpenCL 1.2 fixed-output restriction, §III).
//!
//! An [`Executor`] launches the mapping kernel task-parallel across the
//! devices of a simulated platform ([`repute_hetsim::Platform`]), with
//! the workload distribution under user control — the experiment behind
//! the paper's Fig. 3 — and batches chunked so no device buffer exceeds a
//! quarter of device RAM. The same executor injects device faults and,
//! through [`Executor::run_journaled`], survives host crashes; see the
//! [`executor`] module for its three stages.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use repute_genome::synth::ReferenceBuilder;
//! use repute_mappers::{IndexedReference, Mapper};
//! use repute_core::{ReputeConfig, ReputeMapper};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let reference = ReferenceBuilder::new(30_000).seed(1).build();
//! let read = reference.subseq(1234..1334);
//! let indexed = Arc::new(IndexedReference::build(reference));
//!
//! let config = ReputeConfig::new(5, 12)?; // δ = 5, S_min = 12
//! let mapper = ReputeMapper::new(indexed, config);
//! let out = mapper.map_read(&read);
//! assert!(out.mappings.iter().any(|m| m.position == 1234));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
pub mod executor;
pub mod journal;
mod mapper;
mod mapping_run;

pub use config::{output_slot_bytes, ReputeConfig, ScheduleMode, DEFAULT_MAX_RETRIES};
pub use error::ReputeError;
pub use executor::{
    balanced_shares, map_on_platform_with_metrics, Executor, ResumableRun, Schedule,
    AUTO_HOST_THREADS,
};
pub use journal::{write_atomic, RunFingerprint, RunJournal};
pub use mapper::{CigarMapping, ReputeMapper};
pub use mapping_run::MappingRun;
