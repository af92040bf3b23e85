//! Deterministic in-process harness: drives the full
//! submit → schedule → journal → respond loop without sockets, spool
//! directories, or wall-clock sleeps, so tests (and the bench smoke
//! ablation) exercise exactly the code the daemon runs.
//!
//! The harness speaks the wire format — requests go in as JSON lines,
//! responses come back as [`JobResponse`] values — and adds the one
//! thing a live daemon cannot offer a test: [`ServeHarness::crash_mid_batch`],
//! which executes the next scheduler batch but "loses power" before the
//! batch commit, leaving the journal exactly as a real crash would.

use std::path::Path;

use repute_core::ReputeError;
use repute_hetsim::Platform;
use repute_mappers::multiref::ReferenceSet;

use crate::envelope::{parse_request, JobEnvelope, JobResponse, Request};
use crate::server::{ServeCore, ServeCounters, ServeOptions};

/// An in-process daemon for tests and benches (see the module docs).
pub struct ServeHarness {
    core: ServeCore,
}

impl ServeHarness {
    /// Builds a harness around a fresh [`ServeCore`] with no journal.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeCore::new`] configuration errors.
    pub fn new(
        set: ReferenceSet,
        platform: Platform,
        options: ServeOptions,
    ) -> Result<ServeHarness, ReputeError> {
        Ok(ServeHarness {
            core: ServeCore::new(set, platform, options)?,
        })
    }

    /// Builds a harness whose core journals through `path`. With
    /// `resume = true` the journal is replayed first and the responses
    /// of already-committed jobs are returned alongside the harness
    /// (byte-identical to the ones the crashed daemon produced).
    ///
    /// # Errors
    ///
    /// Propagates construction and journal-replay errors
    /// ([`ReputeError::ResumeMismatch`], [`ReputeError::JournalCorrupt`],
    /// I/O).
    pub fn with_journal(
        set: ReferenceSet,
        platform: Platform,
        options: ServeOptions,
        path: &Path,
        resume: bool,
    ) -> Result<(ServeHarness, Vec<JobResponse>), ReputeError> {
        let mut core = ServeCore::new(set, platform, options)?;
        let replayed = core.attach_journal(path, resume)?;
        Ok((ServeHarness { core }, replayed))
    }

    /// Submits one job envelope. `None` means accepted (the response
    /// comes from [`ServeHarness::drain`]); `Some` is an immediate
    /// `REJECTED`/`RETRY_LATER`/`QUOTA_EXCEEDED` refusal.
    ///
    /// # Errors
    ///
    /// Propagates journal I/O failures.
    pub fn submit(&mut self, envelope: JobEnvelope) -> Result<Option<JobResponse>, ReputeError> {
        self.core.submit(envelope)
    }

    /// Submits one request *line* exactly as the socket transport
    /// would: parse, then admit. A parse failure is returned as an
    /// error (the transport answers it with a `REJECTED` line).
    ///
    /// # Errors
    ///
    /// [`ReputeError::InputParse`] for a malformed line; journal I/O
    /// failures from admission.
    pub fn submit_line(&mut self, line: &str) -> Result<Option<JobResponse>, ReputeError> {
        match parse_request(line)? {
            Request::Job(envelope) => self.core.submit(envelope),
            Request::Shutdown => Ok(None),
        }
    }

    /// Executes one scheduler batch (no-op on an empty queue).
    ///
    /// # Errors
    ///
    /// Propagates executor and journal failures.
    pub fn run_batch(&mut self) -> Result<Vec<JobResponse>, ReputeError> {
        self.core.run_batch()
    }

    /// Graceful drain: runs batches until the queue is empty.
    ///
    /// # Errors
    ///
    /// Propagates executor and journal failures.
    pub fn drain(&mut self) -> Result<Vec<JobResponse>, ReputeError> {
        self.core.drain()
    }

    /// Executes the next batch but crashes before the commit: no
    /// journal record, no clock advance, no telemetry — exactly the
    /// window a real power loss could hit. The harness is consumed
    /// (the daemon is dead); build a new one with
    /// [`ServeHarness::with_journal`] and `resume = true` to restart.
    /// Returns the job ids the lost batch contained.
    ///
    /// # Errors
    ///
    /// Propagates executor failures from the doomed batch.
    pub fn crash_mid_batch(mut self) -> Result<Vec<String>, ReputeError> {
        let responses = self.core.run_batch_impl(false)?;
        Ok(responses.into_iter().map(|r| r.id).collect())
    }

    /// Read access to the core for counters, telemetry, and traces.
    pub fn core(&self) -> &ServeCore {
        &self.core
    }

    /// Mutable access to the core, so tests can drive the transport
    /// layers ([`crate::transport::MuxServer`], the spool scanner)
    /// against a harness-built daemon.
    pub fn core_mut(&mut self) -> &mut ServeCore {
        &mut self.core
    }

    /// Monotone service counters (convenience for assertions).
    pub fn counters(&self) -> ServeCounters {
        self.core.counters()
    }
}
