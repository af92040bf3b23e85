//! Evaluation substrate: accuracy measurement, output formats and the
//! experiment harness behind every table and figure of the paper.
//!
//! * [`accuracy`] — the two accuracy methodologies of §III: the
//!   *all-locations* comparison against a gold standard (§III-A) and the
//!   Rabema-style *any-best* comparison (§III-B/C);
//! * [`sam`] — SAM-format output (a §IV future-work item of the paper,
//!   implemented here as an extension);
//! * [`experiment`] — result records and the plain-text table renderer
//!   used by the bench binaries;
//! * [`stats`] — the end-of-run summary the `repute` CLI prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod experiment;
pub mod sam;
pub mod stats;

pub use accuracy::{all_locations_accuracy, any_best_accuracy, GoldStandard};
pub use experiment::{CellResult, Table, TableRow};
