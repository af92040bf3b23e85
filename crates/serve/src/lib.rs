//! Mapping-as-a-service for the REPUTE reproduction: a long-lived
//! daemon that loads the reference and FM-index once, accepts mapping
//! jobs over a Unix-domain socket or a spool directory, coalesces small
//! jobs into quarter-RAM-capped scheduler batches on the simulated
//! heterogeneous fleet, and journals every accepted job so a crash and
//! restart (`--resume`) lose at most one in-flight batch.
//!
//! The paper's deployment target is an embedded genomics appliance
//! (§I, §III-D): a small always-on board mapping read sets as they
//! arrive from a sequencer, where re-building the FM-index per request
//! would dwarf the mapping itself. This crate is the service layer over
//! the existing pipeline:
//!
//! * [`envelope`] — the newline-delimited JSON wire format (job
//!   envelopes with optional deadlines/priorities in, typed
//!   `OK`/`REJECTED`/`RETRY_LATER`/`QUOTA_EXCEEDED` responses out),
//! * [`admission`] — the bounded job queue with an earliest-deadline-
//!   first lane over per-tenant weighted fair dequeue, plus sliding-
//!   window tenant quotas and backpressure,
//! * [`journal`] — the crash-safe job journal (CRC-framed acceptance
//!   and atomic per-batch commit records, compactable down to live
//!   records plus a state snapshot),
//! * [`server`] — [`ServeCore`]: validation, coalescing, execution on
//!   the simulated platform, resume, and observability,
//! * [`harness`] — [`ServeHarness`]: the deterministic in-process
//!   driver tests and benches use (including `crash_mid_batch`),
//! * [`transport`] — the multi-client Unix-socket listener (a
//!   connection-reader layer feeding the single-threaded core), submit
//!   client, and spool-directory scanner (Unix only).
//!
//! Determinism contract: for a fixed job set, server configuration,
//! and `--host-threads`, the daemon's per-job SAM output is
//! byte-identical to batch `repute map` over the same reads — including
//! after a crash and resume, which re-executes at most one batch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod envelope;
pub mod harness;
pub mod journal;
pub mod server;
#[cfg(unix)]
pub mod transport;

pub use admission::{AdmissionQueue, ConfigKey, JobSpec, TenantQuota, DEFAULT_QUEUE_CAPACITY};
pub use envelope::{
    parse_request, resolve_reads, JobEnvelope, JobResponse, JobStatus, MapperKind, Request,
    DEFAULT_TENANT,
};
pub use harness::ServeHarness;
pub use journal::{BatchRecord, JobJournal, JobResult, Recovered, StateRecord};
pub use server::{ServeCore, ServeCounters, ServeLimits, ServeOptions, COMPACT_FLOOR};
