//! Benchmark harness for the REPUTE reproduction.
//!
//! One binary per paper table/figure (see `src/bin/`), plus Criterion
//! microbenches (`benches/micro.rs`). This library holds the shared
//! pieces: the scaled workload (synthetic chr21 stand-in + simulated read
//! sets) and the cell runner that maps a read set with one mapper on one
//! platform and scores it against the gold standard.
//!
//! # Scale
//!
//! The paper maps 1M+1M real reads to the ~40 Mbp chromosome 21. The
//! default harness scale is a 4 Mbp reference and 1 500 reads per set —
//! every binary prints the active scale — and can be adjusted via the
//! `REPUTE_REF_LEN` and `REPUTE_READS` environment variables. Times are
//! *simulated device seconds* derived from real executed work; shapes
//! (who wins, ratios, crossovers), not absolute values, are the
//! reproduction target.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod harness;
pub mod paper;
pub mod scenario;
pub mod workload;
