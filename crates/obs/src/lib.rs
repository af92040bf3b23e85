//! Observability substrate for the REPUTE reproduction.
//!
//! The paper's evaluation is built from per-stage measurements: candidate
//! location counts out of the DP filtration (§III-B), verification work
//! (§III-C), per-device kernel times, and power-meter energy readings
//! (§III-D). OpenCL exposes the device side of this through event
//! profiling (`clGetEventProfilingInfo` with `CL_PROFILING_COMMAND_QUEUED`
//! / `SUBMIT` / `START` / `END`); this crate is the software analogue for
//! the whole pipeline:
//!
//! * [`Record`] — the telemetry schema: every JSON-lines record kind
//!   (`read`, `cell`, `run`, `stage`, `latency`, `device`, `event`,
//!   `energy`, `job`, `serve`, `slo`) with its one encoder and one
//!   decoder, and [`Summary`] — the one merge-and-render every reader
//!   of those records shares (`repute stats`, the `-v` report, the
//!   daemon's shutdown summary),
//! * [`MapMetrics`] — the per-read record (seeds, FM occ/locate ops,
//!   candidates pre/post merge, DP cells, verifications, hits) threaded
//!   through filtration, verification, and the mapper core,
//! * [`RunReport`] — a run-level roll-up folding in per-device kernel
//!   timelines and the energy summary, exported as [`Record`]s,
//! * [`StageTimer`] (nestable wall-clock stages), [`Samples`]
//!   (retained-sample exact p50/p90/p99), [`Gauge`] (a level with its
//!   high-water mark) and [`SloTracker`] — the primitives the records
//!   are filled from,
//! * [`json`] — the minimal JSON writer/scanner the exports are built on,
//! * [`trace`] — span tracing over simulated time, exported as
//!   Chrome-tracing (`chrome://tracing`) JSON with byte-identical
//!   output for identical runs.
//!
//! Everything here is std-only by design: the build environment has no
//! registry access. The per-read hot path touches nothing but the
//! stack-only [`MapMetrics`] (`tests/no_alloc.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod map_metrics;
mod metrics;
mod record;
mod report;
mod slo;
mod summary;
pub mod trace;

pub use map_metrics::MapMetrics;
pub use metrics::{Gauge, Samples, StageTimer};
pub use record::{DeviceRecord, JobRecord, Record, RunRecord, ServeCounters, ServeSnapshot};
pub use report::{DeviceTimeline, EnergySummary, KernelEvent, RunReport, StageLatency};
pub use slo::{SloReport, SloTracker};
pub use summary::Summary;
pub use trace::Span;
