//! Benchmark harness for the REPUTE reproduction.
//!
//! Two binaries (see `src/bin/`):
//!
//! * `paper` prints every table and figure of the paper and checks each
//!   artefact's shape claims against its own data ([`paper`]);
//! * `verify_kernel` times the batch verification kernel against the
//!   unbanded one, and the engine's prefilter lane pipeline against its
//!   scalar path, and gates both with the committed `BENCH_pr8.json`,
//!   the one host-clock baseline; its `--write` / `--check` plumbing
//!   lives in the binary.
//!
//! This library holds what they share: the scaled workload (synthetic
//! chr21 stand-in + simulated read sets) and the cell runner that maps a
//! read set with one mapper on one platform and scores it against the
//! gold standard.
//!
//! # Scale
//!
//! The paper maps 1M+1M real reads to the ~40 Mbp chromosome 21. The
//! default harness scale is a 4 Mbp reference and 1 500 reads per set —
//! `paper all` prints the active scale — and can be adjusted via the
//! `REPUTE_REF_LEN` and `REPUTE_READS` environment variables. Times are
//! *simulated device seconds* derived from real executed work; shapes
//! (who wins, ratios, crossovers), not absolute values, are the
//! reproduction target.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod paper;
pub mod workload;
