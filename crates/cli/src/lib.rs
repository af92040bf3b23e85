//! The `repute` command-line mapper.
//!
//! ```text
//! repute map --reference ref.fa --reads reads.fq --delta 5 [options] > out.sam
//! ```
//!
//! Reads a FASTA reference and a FASTQ read set, maps every read with the
//! REPUTE pipeline of [`repute_core`], and writes SAM (with CIGAR — the
//! §IV extension). The logic lives in this library so it can be tested;
//! `main.rs` is a thin wrapper. One module per subcommand family, all
//! parsing through the argument cursor of `args`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod index;
mod map;
mod serve;
mod stats;

pub use args::{ParseArgsError, USAGE};
pub use index::{
    parse_index_args, parse_simulate_args, run_index, run_simulate, IndexOptions, SimulateOptions,
};
pub use map::{parse_map_args, run_map, MapOptions, MapperChoice};
pub use repute_core::ReputeError;
pub use serve::{
    parse_serve_args, parse_submit_args, run_serve, run_submit, ServeCliOptions, SubmitOptions,
};
pub use stats::{
    parse_stats_args, parse_trace_args, render_stats, render_stats_strict, render_trace_summary,
    run_stats, run_trace, StatsOptions, TraceOptions,
};
