//! The daemon core: admission, batch coalescing, execution, journaling,
//! and observability — everything except the transport.
//!
//! [`ServeCore`] is single-threaded and fully deterministic. The
//! reference and FM-index are loaded once (shared behind the
//! [`ReferenceSet`]'s internal `Arc`); each submitted job is validated
//! against the server's pinned limits, journaled, and queued; each
//! [`ServeCore::run_batch`] call fair-dequeues up to one run of
//! same-configuration jobs *per live device*, partitions the live
//! devices round-robin into disjoint subsets, and executes the groups
//! as independent scheduler batches whose simulated timelines overlap
//! (the clock advances by the slowest group's makespan, not the sum).
//! `--serial-batches` restores the one-batch-per-call behaviour.
//!
//! Per-job output is byte-identical to `repute map` on the same reads
//! and configuration by construction: mapping happens in the executor's
//! deterministic host phase (independent of batching, scheduling, and
//! faults), and the SAM assembly uses the same resolve-and-write path
//! as the batch CLI.
//!
//! # Fault tolerance
//!
//! The execution path is the fault-aware executor, armed with the
//! daemon's `--fault-plan` re-based onto each batch window
//! ([`FaultPlan::rebased`]). A [`DeviceHealth`] registry tracks every
//! device down the healthy → degraded → quarantined → lost ladder:
//! plan losses and retry-budget kill-escalations retire devices from
//! future scheduling, admission recomputes the queue bound and the
//! quarter-RAM batch cap from the survivors, and when the last device
//! dies the daemon turns `SERVICE_UNAVAILABLE`: queued jobs are
//! answered with a typed refusal and the transport drains and exits
//! instead of panicking. With `--shed-overdue`, a job whose deadline
//! expires while still queued is shed with a typed `DEADLINE_EXCEEDED`
//! (journaled, so a crash-resume replays the same refusals). Batch
//! records carry per-device fault/retry/migration provenance, so a
//! resume during a fault episode reconstructs health — and therefore
//! scheduling — bit-identically.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use repute_core::journal::Fnv64;
use repute_core::{
    output_slot_bytes, write_atomic, Executor, MappingRun, ReputeConfig, ReputeError,
    RunFingerprint, Schedule, ScheduleMode, DEFAULT_MAX_RETRIES,
};
use repute_eval::sam::SamAssembly;
use repute_genome::DnaSeq;
use repute_hetsim::{DeviceHealth, FaultKind, FaultPlan, HealthState, LaunchErrorKind, Platform};
use repute_mappers::multiref::ReferenceSet;
use repute_mappers::Mapping;
use repute_obs::trace::{write_chrome_trace, SCHEDULER_PID};
pub use repute_obs::ServeCounters;
use repute_obs::{
    JobRecord, Record, Samples, ServeSnapshot, SloReport, SloTracker, Span, StageLatency,
};
use repute_prefilter::{qgram, PrefilterMode};

use crate::admission::{AdmissionQueue, ConfigKey, JobSpec, TenantQuota, DEFAULT_QUEUE_CAPACITY};
use crate::envelope::{prefilter_code, resolve_reads, JobEnvelope, JobResponse, JobStatus};
use crate::journal::{
    BatchRecord, DeviceProvenance, JobJournal, JobResult, Recovered, ShedRecord, StateRecord,
};

/// Admission limits the server pins; per-job overrides must stay inside
/// them.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeLimits {
    /// Largest read count a single job may carry; bigger jobs are
    /// `REJECTED` (they would not fit one scheduler batch). Clamped to
    /// the platform's quarter-RAM batch cap at server construction, and
    /// re-clamped to the *surviving* devices' cap as losses accrue.
    pub max_reads_per_job: usize,
    /// Largest per-job δ override accepted.
    pub max_delta: u32,
    /// Admission-queue capacity; a full queue answers `RETRY_LATER`.
    /// Scaled down proportionally as devices are lost.
    pub queue_capacity: usize,
}

impl Default for ServeLimits {
    fn default() -> ServeLimits {
        ServeLimits {
            max_reads_per_job: usize::MAX,
            max_delta: 16,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
        }
    }
}

/// Server configuration: mapping defaults, pinned limits, fairness
/// weights, fault injection, and observability switches.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Default error budget δ for jobs without an override.
    pub delta: u32,
    /// Minimum k-mer length `S_min` (server-pinned, not overridable).
    pub s_min: usize,
    /// Output-slot limit per read (server-pinned; also sets the batch
    /// cap via the executor's bytes-per-read convention).
    pub max_locations: usize,
    /// Default prefilter mode for jobs without an override.
    pub prefilter: PrefilterMode,
    /// Q-gram length of the bin prefilter.
    pub prefilter_q: usize,
    /// Reference bin width (bases) of the bin prefilter.
    pub prefilter_bin: usize,
    /// Multi-device scheduling policy of every batch.
    pub schedule: ScheduleMode,
    /// Host-thread cap of the executor (`0` = automatic).
    pub host_threads: usize,
    /// Transient-fault retry budget of every batch execution.
    pub max_retries: usize,
    /// Simulated device faults, in daemon simulated time (re-based onto
    /// each batch window). Host-crash events are refused at
    /// construction — crashes are the harness's job, not the plan's.
    pub fault_plan: FaultPlan,
    /// Shed queued jobs whose deadline has already passed with a typed
    /// `DEADLINE_EXCEEDED` instead of mapping them late.
    pub shed_overdue: bool,
    /// Execute independent same-configuration batches concurrently on
    /// disjoint device subsets (`false` = one batch at a time).
    pub concurrent_batches: bool,
    /// Collect per-batch and per-job trace spans.
    pub tracing: bool,
    /// Pinned admission limits.
    pub limits: ServeLimits,
    /// Weighted-fair tenant weights (unlisted tenants get 1.0).
    pub tenant_weights: Vec<(String, f64)>,
    /// Sliding-window read budgets per tenant (unlisted tenants are
    /// unbudgeted); an exceeded budget answers `QUOTA_EXCEEDED`.
    pub tenant_quotas: Vec<(String, u64)>,
    /// Length of the quota sliding window, in simulated seconds (also
    /// the SLO hit-rate window).
    pub quota_window_s: f64,
    /// Compact the journal once this many dead records accumulate
    /// (committed batches, shed commits, and their acceptance records);
    /// `0` disables compaction. Not part of the resume fingerprint — it
    /// is safe to change across restarts.
    pub journal_compact_threshold: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            delta: 5,
            s_min: 12,
            max_locations: 100,
            prefilter: PrefilterMode::None,
            prefilter_q: qgram::DEFAULT_Q,
            prefilter_bin: qgram::DEFAULT_BIN_WIDTH,
            schedule: ScheduleMode::Dynamic,
            host_threads: 0,
            max_retries: DEFAULT_MAX_RETRIES,
            fault_plan: FaultPlan::new(),
            shed_overdue: false,
            concurrent_batches: true,
            tracing: false,
            limits: ServeLimits::default(),
            tenant_weights: Vec::new(),
            tenant_quotas: Vec::new(),
            quota_window_s: 60.0,
            journal_compact_threshold: 0,
        }
    }
}

/// The refusal text of every `SERVICE_UNAVAILABLE` response — one
/// constant so live refusals and resume-era refusals stay
/// byte-identical.
const UNAVAILABLE_REASON: &str = "every simulated device has been lost; the daemon is draining";

/// The refusal text of a shed job (also used by resume replay — the
/// strings must match byte-for-byte for response-union identity).
fn shed_reason(deadline_s: f64, at_s: f64) -> String {
    format!("deadline {deadline_s:.3}s passed at {at_s:.3}s while the job was queued")
}

/// The mapping-as-a-service core (see the module docs).
pub struct ServeCore {
    set: ReferenceSet,
    platform: Platform,
    options: ServeOptions,
    /// Configured per-job read cap (full platform; journal identity).
    max_reads_per_job: usize,
    /// Live per-job read cap, re-clamped as devices are lost.
    live_max_reads: usize,
    health: DeviceHealth,
    unavailable: bool,
    queue: AdmissionQueue,
    quota: TenantQuota,
    slo: SloTracker,
    journal: Option<JobJournal>,
    next_seq: u64,
    sim_clock: f64,
    dead_records: usize,
    counters: ServeCounters,
    latency: Samples,
    jobs: Vec<JobRecord>,
    spans: Vec<Span>,
}

impl ServeCore {
    /// Builds the core: validates the default configuration and the
    /// fault plan, computes the platform batch cap, and sets up the
    /// admission queue. No journal is attached yet (see
    /// [`ServeCore::attach_journal`]).
    ///
    /// # Errors
    ///
    /// [`ReputeError::Config`] when the default δ/`S_min` combination is
    /// invalid, when the fault plan names a device the platform does not
    /// have or carries a host-crash event, or when the plan loses every
    /// device at time zero (nothing could ever be served).
    pub fn new(
        set: ReferenceSet,
        platform: Platform,
        options: ServeOptions,
    ) -> Result<ServeCore, ReputeError> {
        // Fail fast: the default config must be constructible, or every
        // default-config job would die at batch time.
        ReputeConfig::new(options.delta, options.s_min)
            .map_err(|e| ReputeError::Config(e.to_string()))?;
        if options.delta > options.limits.max_delta {
            return Err(ReputeError::Config(format!(
                "default delta {} exceeds --max-delta {}",
                options.delta, options.limits.max_delta
            )));
        }
        let n_dev = platform.devices().len();
        if let Some(max_dev) = options.fault_plan.max_device() {
            if max_dev >= n_dev {
                return Err(ReputeError::Config(format!(
                    "fault plan names device {max_dev} but the platform has {n_dev} devices"
                )));
            }
        }
        if options.fault_plan.host_crash_at().is_some() {
            return Err(ReputeError::Config(
                "host-crash fault events are not supported by serve (the journal models \
                 crashes; use --resume); use loss/degrade/transient device faults"
                    .to_string(),
            ));
        }
        let cap = platform
            .max_batch_items(output_slot_bytes(options.max_locations))
            .max(1);
        let max_reads_per_job = options.limits.max_reads_per_job.min(cap);
        let queue = AdmissionQueue::new(options.limits.queue_capacity, &options.tenant_weights);
        let quota = TenantQuota::new(options.quota_window_s, &options.tenant_quotas);
        let slo = SloTracker::new(options.quota_window_s);
        let health = DeviceHealth::new(n_dev);
        let mut core = ServeCore {
            set,
            platform,
            options,
            max_reads_per_job,
            live_max_reads: max_reads_per_job,
            health,
            unavailable: false,
            queue,
            quota,
            slo,
            journal: None,
            next_seq: 0,
            sim_clock: 0.0,
            dead_records: 0,
            counters: ServeCounters::default(),
            latency: Samples::new(),
            jobs: Vec::new(),
            spans: Vec::new(),
        };
        // Losses the plan schedules at t = 0 shrink admission before the
        // first job ever arrives; a plan that leaves nothing alive is a
        // configuration error, not a serving state.
        core.observe_plan_faults(0.0);
        if core.health.none_live() {
            return Err(ReputeError::Config(
                "the fault plan loses every device at time zero; nothing could be served"
                    .to_string(),
            ));
        }
        Ok(core)
    }

    /// The config/limits identity of this server. A journal written
    /// under a different reference, platform, limit set, fairness
    /// table, or fault plan is refused on resume.
    pub fn fingerprint(&self) -> RunFingerprint {
        let mut cfg = Fnv64::new();
        cfg.write(self.platform.name().as_bytes());
        cfg.write_u64(u64::from(self.options.delta));
        cfg.write_u64(self.options.s_min as u64);
        cfg.write_u64(self.options.max_locations as u64);
        cfg.write_u64(u64::from(prefilter_code(self.options.prefilter)));
        cfg.write_u64(self.options.prefilter_q as u64);
        cfg.write_u64(self.options.prefilter_bin as u64);
        cfg.write_u64(match self.options.schedule {
            ScheduleMode::Static => 0,
            ScheduleMode::Dynamic => 1,
        });
        cfg.write_u64(self.options.host_threads as u64);
        cfg.write_u64(self.options.max_retries as u64);
        cfg.write_u64(u64::from(self.options.limits.max_delta));
        cfg.write_u64(self.max_reads_per_job as u64);
        // The fault plan and the degradation switches change batch
        // composition and responses, so they are journal identity.
        cfg.write_u64(self.options.fault_plan.events().len() as u64);
        for event in self.options.fault_plan.events() {
            cfg.write_u64(event.device as u64);
            cfg.write_u64(event.at_seconds.to_bits());
            match event.kind {
                FaultKind::Transient => cfg.write_u64(1),
                FaultKind::Loss => cfg.write_u64(2),
                FaultKind::HostCrash => cfg.write_u64(3),
                FaultKind::Degrade { factor } => {
                    cfg.write_u64(4);
                    cfg.write_u64(factor.to_bits());
                }
            }
        }
        cfg.write_u64(u64::from(self.options.shed_overdue));
        cfg.write_u64(u64::from(self.options.concurrent_batches));
        for (name, weight) in &self.options.tenant_weights {
            cfg.write(name.as_bytes());
            cfg.write_u64(weight.to_bits());
        }
        // Quota budgets change which jobs get admitted, so they are part
        // of the journal identity (the compaction threshold is not: it
        // only changes *when* dead bytes are dropped, never a response).
        cfg.write_u64(self.options.quota_window_s.to_bits());
        for (name, budget) in &self.options.tenant_quotas {
            cfg.write(name.as_bytes());
            cfg.write_u64(*budget);
        }
        let mut wl = Fnv64::new();
        for (name, len) in self.set.records() {
            wl.write(name.as_bytes());
            wl.write_u64(*len as u64);
        }
        RunFingerprint::new(cfg.finish(), wl.finish())
    }

    /// Attaches the crash-safe job journal. With `resume = false` a
    /// fresh journal is created (truncating any existing file). With
    /// `resume = true` the existing journal is replayed: committed jobs
    /// get their responses reconstructed from stored mappings
    /// (byte-identical, no re-execution — returned here), shed jobs get
    /// their typed `DEADLINE_EXCEEDED` refusals replayed, jobs accepted
    /// but not committed are re-queued in arrival order, and the
    /// simulated clock, batch counter, device health, and per-tenant
    /// fairness state continue exactly where the crashed daemon left
    /// them — so a resume during a fault episode schedules (and
    /// answers) bit-identically to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`ReputeError::ResumeMismatch`] for a journal written by a
    /// different server configuration, [`ReputeError::JournalCorrupt`]
    /// for interior corruption, [`ReputeError::Io`] on filesystem
    /// failures.
    pub fn attach_journal(
        &mut self,
        path: &Path,
        resume: bool,
    ) -> Result<Vec<JobResponse>, ReputeError> {
        let fingerprint = self.fingerprint();
        let (journal, recovered) = if resume {
            JobJournal::open(path, &fingerprint)?
        } else {
            (
                JobJournal::create(path, &fingerprint)?,
                Recovered::default(),
            )
        };
        // A compacted journal opens with a state snapshot standing in
        // for the dead records it dropped: restore the clock, counters,
        // fairness service, device health, and quota window before
        // replaying frames.
        let state_next_seq = recovered.state.as_ref().map_or(0, |s| s.next_seq);
        if let Some(state) = &recovered.state {
            self.next_seq = state.next_seq;
            self.sim_clock = state.sim_clock;
            self.counters.accepted = state.accepted;
            self.counters.completed = state.completed;
            self.counters.replayed = state.replayed;
            self.counters.shed = state.shed;
            for (tenant, served) in &state.served {
                self.queue.set_served(tenant, *served);
            }
            for (seq, tenant, at, reads) in &state.quota {
                self.quota.restore(*seq, tenant, *at, *reads);
            }
            for &(device, code, faults) in &state.health {
                if let Some(hs) = HealthState::from_code(code) {
                    self.health.restore(device as usize, hs, faults);
                }
            }
            // Transient-fault totals are recoverable from the health
            // snapshot (both accumulate the same per-device counts);
            // retry/migration totals restart at the snapshot.
            self.counters.faults = state.health.iter().map(|&(_, _, f)| f).sum();
        }
        let mut by_seq: HashMap<u64, (u64, f64, &JobResult)> = HashMap::new();
        for batch in &recovered.batches {
            for job in &batch.jobs {
                by_seq.insert(job.seq, (batch.batch, batch.completion_s, job));
            }
        }
        // Shed commits name seqs that were refused, not completed.
        let mut shed_at: HashMap<u64, f64> = HashMap::new();
        for record in &recovered.shed {
            for seq in &record.seqs {
                shed_at.insert(*seq, record.at_s);
            }
        }
        let mut replayed = Vec::new();
        for job in &recovered.accepted {
            self.next_seq = self.next_seq.max(job.seq + 1);
            // Records below the snapshot's next_seq are live jobs the
            // compaction rewrote — the snapshot counters and quota
            // window already cover them (restore dedups by seq).
            if job.seq >= state_next_seq {
                self.counters.accepted += 1;
            }
            self.quota
                .restore(job.seq, &job.tenant, job.arrival_s, job.reads.len() as u64);
            if let Some(&at) = shed_at.get(&job.seq) {
                // Shed before the crash: replay the typed refusal
                // byte-for-byte (no re-queue, no fairness charge).
                self.counters.shed += 1;
                if let Some(deadline) = job.deadline_s {
                    self.slo.record(&job.tenant, at, false);
                    replayed.push(JobResponse::shed(
                        job.id.clone(),
                        job.seq,
                        job.reads.len() as u64,
                        JobStatus::DeadlineExceeded,
                        shed_reason(deadline, at),
                    ));
                }
                continue;
            }
            match by_seq.get(&job.seq) {
                Some((batch, completion, result)) => {
                    // Dispatched and committed before the crash: restore
                    // the fairness charge and replay the response.
                    self.queue.restore_served(&job.tenant, job.cost());
                    let response = self.job_response(job, &result.mappings, *batch, *completion)?;
                    self.finish_job(job, response.mappings, *batch, *completion, true);
                    replayed.push(response);
                }
                None => {
                    // Accepted but never committed: back in the queue.
                    // A resumed push bypasses the capacity gate, so a
                    // restart can never bounce already-accepted work.
                    let _ = self.queue.push(job.clone(), true);
                }
            }
        }
        let state_batches = recovered.state.as_ref().map_or(0, |s| s.batches);
        self.counters.batches = state_batches + recovered.batches.len() as u64;
        // Concurrent groups commit in group order, not completion order,
        // and shed commits carry their own timestamps: the resumed clock
        // is the max over everything durable, not the last frame.
        for batch in &recovered.batches {
            self.sim_clock = self.sim_clock.max(batch.completion_s);
        }
        for record in &recovered.shed {
            self.sim_clock = self.sim_clock.max(record.at_s);
        }
        // Re-observe fault provenance so device health — and therefore
        // capacity and scheduling — continues exactly as before the
        // crash (the ladder is monotone, so re-observation after a
        // snapshot restore is order-insensitive).
        for batch in &recovered.batches {
            for p in &batch.provenance {
                self.health.observe_faults(p.device as usize, p.faults);
                self.counters.faults += p.faults;
                self.counters.retries += p.retries;
                self.counters.migrated += p.migrated;
            }
            for &device in &batch.lost {
                self.health.observe_loss(device as usize);
            }
        }
        self.observe_plan_faults(self.sim_clock);
        // Replayed responses, their batch/shed frames, and their
        // acceptance records are dead the moment this returns; the
        // rewritten state frame stays live.
        self.dead_records = replayed.len() + recovered.batches.len() + recovered.shed.len();
        self.journal = Some(journal);
        Ok(replayed)
    }

    /// Submits one job. Returns `Ok(None)` when the job was accepted
    /// (its `OK` response comes from a later [`ServeCore::run_batch`] /
    /// [`ServeCore::drain`]) or `Ok(Some(refusal))` with a `REJECTED`,
    /// `RETRY_LATER`, `QUOTA_EXCEEDED`, or `SERVICE_UNAVAILABLE`
    /// response the transport should answer immediately.
    ///
    /// # Errors
    ///
    /// [`ReputeError::Io`] when journaling the acceptance fails — the
    /// daemon must not acknowledge work it cannot make durable.
    pub fn submit(
        &mut self,
        mut envelope: JobEnvelope,
    ) -> Result<Option<JobResponse>, ReputeError> {
        if self.unavailable || self.health.none_live() {
            self.unavailable = true;
            self.counters.unavailable += 1;
            return Ok(Some(JobResponse::refusal(
                envelope.id,
                JobStatus::ServiceUnavailable,
                UNAVAILABLE_REASON,
            )));
        }
        if let Err(e) = resolve_reads(&mut envelope) {
            self.counters.rejected += 1;
            return Ok(Some(JobResponse::refusal(
                envelope.id,
                JobStatus::Rejected,
                e.to_string(),
            )));
        }
        let delta = envelope.delta.unwrap_or(self.options.delta);
        if delta > self.options.limits.max_delta {
            self.counters.rejected += 1;
            return Ok(Some(JobResponse::refusal(
                envelope.id,
                JobStatus::Rejected,
                format!(
                    "delta {delta} exceeds the server limit {}",
                    self.options.limits.max_delta
                ),
            )));
        }
        if envelope.reads.len() > self.live_max_reads {
            self.counters.rejected += 1;
            return Ok(Some(JobResponse::refusal(
                envelope.id,
                JobStatus::Rejected,
                format!(
                    "job carries {} reads but the server accepts at most {} per job \
                     ({} of {} devices live)",
                    envelope.reads.len(),
                    self.live_max_reads,
                    self.health.live_count(),
                    self.health.len()
                ),
            )));
        }
        if let Err((used, budget)) = self.quota.check(
            &envelope.tenant,
            envelope.reads.len() as u64,
            self.sim_clock,
        ) {
            self.counters.quota_exceeded += 1;
            return Ok(Some(JobResponse::refusal(
                envelope.id,
                JobStatus::QuotaExceeded,
                format!(
                    "tenant '{}' has used {used} of {budget} reads in the current \
                     {:.0}s window; resubmit after the window slides",
                    envelope.tenant, self.options.quota_window_s
                ),
            )));
        }
        if self.queue.is_full() {
            self.counters.retry_later += 1;
            return Ok(Some(JobResponse::refusal(
                envelope.id,
                JobStatus::RetryLater,
                format!(
                    "admission queue is full ({} jobs); resubmit after the backlog drains",
                    self.queue.len()
                ),
            )));
        }
        let (read_ids, reads): (Vec<String>, Vec<DnaSeq>) = envelope.reads.into_iter().unzip();
        let job = JobSpec {
            seq: self.next_seq,
            id: envelope.id,
            tenant: envelope.tenant,
            key: ConfigKey {
                delta,
                prefilter: envelope.prefilter.unwrap_or(self.options.prefilter),
                mapper: envelope.mapper.unwrap_or_default(),
            },
            arrival_s: self.sim_clock,
            // The envelope's deadline is relative to admission; the
            // scheduler works in absolute simulated time.
            deadline_s: envelope.deadline_s.map(|d| self.sim_clock + d),
            priority: envelope.priority,
            read_ids,
            reads,
        };
        if let Some(journal) = &mut self.journal {
            journal.record_accepted(&job)?;
        }
        self.quota
            .book(job.seq, &job.tenant, job.reads.len() as u64, self.sim_clock);
        if let Err(job) = self.queue.push(job, false) {
            // Unreachable after the capacity check above; refuse rather
            // than panic if the invariant ever breaks.
            self.counters.retry_later += 1;
            return Ok(Some(JobResponse::refusal(
                job.id,
                JobStatus::RetryLater,
                "admission queue refused the job",
            )));
        }
        self.next_seq += 1;
        self.counters.accepted += 1;
        Ok(None)
    }

    /// Executes (and commits) the next round of scheduler batches — up
    /// to one per live device in concurrent mode, exactly one in serial
    /// mode; no-op on an empty queue. Returns the responses of the
    /// round's jobs, including any typed `DEADLINE_EXCEEDED` /
    /// `SERVICE_UNAVAILABLE` refusals.
    ///
    /// # Errors
    ///
    /// Propagates executor launch failures and journal I/O errors.
    pub fn run_batch(&mut self) -> Result<Vec<JobResponse>, ReputeError> {
        self.run_batch_impl(true)
    }

    /// Runs batches until the queue is empty (graceful drain). Returns
    /// every produced response in completion order.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ServeCore::run_batch`] failure.
    pub fn drain(&mut self) -> Result<Vec<JobResponse>, ReputeError> {
        let mut responses = Vec::new();
        while !self.queue.is_empty() {
            responses.extend(self.run_batch()?);
        }
        Ok(responses)
    }

    /// Fair-dequeues up to one maximal run of same-configuration jobs
    /// per live device (one in serial mode), partitions the live
    /// devices round-robin into disjoint subsets, executes the groups
    /// as independent scheduler batches sharing one start time, and —
    /// when `commit` is true — journals them in group order, advances
    /// the clock by the slowest group's makespan, and records
    /// telemetry. `commit = false` models a crash after the work
    /// started but before the commit: the jobs have left the queue and
    /// nothing is durable, so a resume re-executes exactly this round
    /// (the harness's `crash_mid_batch`).
    pub(crate) fn run_batch_impl(&mut self, commit: bool) -> Result<Vec<JobResponse>, ReputeError> {
        let now = self.sim_clock;
        // Plan faults that have already struck retire their devices
        // before dequeue — a lost device must not shape the partition.
        self.observe_plan_faults(now);
        if self.unavailable || self.health.none_live() {
            return self.go_unavailable(Vec::new());
        }
        let mut responses = Vec::new();
        if self.options.shed_overdue {
            responses.extend(self.shed_overdue_queued(now, commit)?);
        }

        // Group formation: each group is one maximal same-key run under
        // the surviving devices' quarter-RAM cap, fair-dequeued at the
        // shared start time.
        let live = self.health.live();
        let max_groups = if self.options.concurrent_batches {
            live.len()
        } else {
            1
        };
        let cap = self.live_max_reads.max(1);
        let mut groups: Vec<Vec<JobSpec>> = Vec::new();
        while groups.len() < max_groups {
            let Some(first) = self.queue.pop_fair(now) else {
                break;
            };
            let key = first.key;
            let mut total_reads = first.reads.len();
            let mut jobs = vec![first];
            while let Some(next) = self.queue.peek_fair(now) {
                if next.key != key || total_reads + next.reads.len() > cap {
                    break;
                }
                let Some(job) = self.queue.pop_fair(now) else {
                    break;
                };
                total_reads += job.reads.len();
                jobs.push(job);
            }
            groups.push(jobs);
        }
        if groups.is_empty() {
            return Ok(responses);
        }

        // Round-robin partition: group g owns the live devices at
        // positions ≡ g (mod k). Disjoint subsets, every group served.
        let k = groups.len();
        let subsets: Vec<Vec<usize>> = (0..k)
            .map(|g| {
                live.iter()
                    .copied()
                    .enumerate()
                    .filter_map(|(p, d)| (p % k == g).then_some(d))
                    .collect()
            })
            .collect();

        // Execute the groups host-sequentially (phase-1 mapping inside
        // each is host-parallel); their simulated timelines all start at
        // `now` and overlap. Device health evolves as each group's run
        // reports faults, so a loss in group g is visible to group g+1's
        // retry path but never re-partitions its planned subset.
        let start = now;
        let tracing = self.options.tracing;
        let mut group_runs: Vec<(Vec<JobSpec>, MappingRun)> = Vec::new();
        let mut doomed: Vec<JobSpec> = Vec::new();
        for (g, jobs) in groups.into_iter().enumerate() {
            if self.health.none_live() {
                doomed.extend(jobs);
                continue;
            }
            let key = jobs[0].key;
            let reads: Vec<DnaSeq> = jobs.iter().flat_map(|j| j.reads.iter().cloned()).collect();
            let config = self.batch_config(key)?;
            let threads = config.host_threads();
            let mapper = key.mapper.build(Arc::clone(self.set.indexed()), config);
            let mapper = mapper.as_ref();
            let plan = self.options.fault_plan.rebased(start);
            // The planned subset, pruned of devices an earlier group's
            // retry lost; a fully-dead subset falls back to whatever
            // still lives (documented timeline overlap).
            let mut subset: Vec<usize> = subsets[g]
                .iter()
                .copied()
                .filter(|&d| self.health.state(d).is_live())
                .collect();
            if subset.is_empty() {
                subset = self.health.live();
            }
            let run = loop {
                let schedule =
                    Schedule::for_config(&config, &self.platform.subset(&subset), reads.len());
                let executor = Executor {
                    host_threads: threads,
                    faults: plan.clone(),
                    max_retries: self.options.max_retries,
                    subset: Some(subset.clone()),
                    tracing,
                    ..Executor::new(schedule)
                };
                match executor.run(&mapper, &self.platform, &reads) {
                    Ok((run, _metrics)) => break Some(run),
                    Err(e) if matches!(e.kind(), LaunchErrorKind::AllDevicesLost { .. }) => {
                        // The whole subset died mid-run: retire it and
                        // retry the group from the same start time on
                        // the remaining fleet.
                        for &d in &subset {
                            self.health.observe_loss(d);
                        }
                        self.recompute_live_caps();
                        let survivors = self.health.live();
                        if survivors.is_empty() {
                            break None;
                        }
                        subset = survivors;
                    }
                    Err(e) => return Err(e.into()),
                }
            };
            match run {
                Some(run) => {
                    for (dr, fc) in run.device_runs.iter().zip(&run.fault_counters) {
                        if fc.faults > 0 {
                            self.health.observe_faults(dr.device, fc.faults);
                        }
                        self.counters.faults += fc.faults;
                        self.counters.retries += fc.retries;
                        self.counters.migrated += fc.migrated_batches;
                    }
                    for &d in &run.lost_devices {
                        self.health.observe_loss(d);
                    }
                    self.recompute_live_caps();
                    group_runs.push((jobs, run));
                }
                None => doomed.extend(jobs),
            }
        }

        // Commit phase, in group order (deterministic for any
        // --host-threads): journal frame, responses, telemetry.
        let base = self.counters.batches;
        let mut max_makespan = 0.0f64;
        let mut committed_jobs = 0usize;
        for (ordinal, (jobs, run)) in group_runs.iter().enumerate() {
            let batch_index = base + ordinal as u64;
            let completion = start + run.simulated_seconds;
            max_makespan = max_makespan.max(run.simulated_seconds);
            // One entry per device, ascending: provenance is the faulted ones.
            let provenance = run
                .device_runs
                .iter()
                .zip(&run.fault_counters)
                .filter(|(_, fc)| !fc.is_zero())
                .map(|(dr, fc)| DeviceProvenance {
                    device: dr.device as u32,
                    faults: fc.faults,
                    retries: fc.retries,
                    migrated: fc.migrated_batches,
                });
            let mut record = BatchRecord {
                batch: batch_index,
                completion_s: completion,
                jobs: Vec::with_capacity(jobs.len()),
                lost: run.lost_devices.iter().map(|&d| d as u32).collect(),
                provenance: provenance.collect(),
            };
            let mut offset = 0usize;
            for job in jobs {
                let n = job.reads.len();
                let mappings: Vec<Vec<Mapping>> = run.outputs[offset..offset + n]
                    .iter()
                    .map(|o| o.mappings.clone())
                    .collect();
                offset += n;
                record.jobs.push(JobResult {
                    seq: job.seq,
                    mappings,
                });
            }
            if commit {
                if let Some(journal) = &mut self.journal {
                    journal.record_batch(&record)?;
                }
            }
            for (job, result) in jobs.iter().zip(&record.jobs) {
                let response = self.job_response(job, &result.mappings, batch_index, completion)?;
                if commit {
                    self.finish_job(job, response.mappings, batch_index, completion, false);
                }
                responses.push(response);
            }
            if commit && tracing {
                // Batch spans come out of the executor on a zero-based
                // clock; shift them onto the daemon's continuous one.
                for span in &run.trace {
                    let mut span = span.clone();
                    span.begin_seconds += start;
                    span.end_seconds += start;
                    self.spans.push(span);
                }
            }
            committed_jobs += jobs.len();
        }
        if commit && !group_runs.is_empty() {
            self.sim_clock = start + max_makespan;
            self.counters.batches += group_runs.len() as u64;
            // The round's acceptance records and batch frames are now
            // dead weight in the journal.
            self.dead_records += committed_jobs + group_runs.len();
            if self.options.journal_compact_threshold > 0
                && self.dead_records >= self.options.journal_compact_threshold
            {
                self.compact_journal()?;
            }
        }
        if !doomed.is_empty() || self.health.none_live() {
            responses.extend(self.go_unavailable(doomed)?);
        }
        Ok(responses)
    }

    /// Sheds every queued job whose deadline has passed at `now` with a
    /// typed `DEADLINE_EXCEEDED`, journaling the shed commit first so a
    /// crash-resume replays the same refusals.
    fn shed_overdue_queued(
        &mut self,
        now: f64,
        commit: bool,
    ) -> Result<Vec<JobResponse>, ReputeError> {
        let overdue = self.queue.take_overdue(now);
        if overdue.is_empty() {
            return Ok(Vec::new());
        }
        if commit {
            if let Some(journal) = &mut self.journal {
                journal.record_shed(&ShedRecord {
                    at_s: now,
                    seqs: overdue.iter().map(|j| j.seq).collect(),
                })?;
            }
            // The shed frame and the jobs' acceptance records are dead.
            self.dead_records += overdue.len() + 1;
        }
        let mut responses = Vec::with_capacity(overdue.len());
        for job in &overdue {
            let deadline = job.deadline_s.unwrap_or(now);
            if commit {
                self.counters.shed += 1;
                self.slo.record(&job.tenant, now, false);
            }
            responses.push(JobResponse::shed(
                job.id.clone(),
                job.seq,
                job.reads.len() as u64,
                JobStatus::DeadlineExceeded,
                shed_reason(deadline, now),
            ));
        }
        Ok(responses)
    }

    /// Enters (or continues) the unavailable state: `doomed` jobs and
    /// everything still queued are answered with a typed
    /// `SERVICE_UNAVAILABLE`; the transport sees
    /// [`ServeCore::is_unavailable`] and drains instead of panicking.
    fn go_unavailable(&mut self, doomed: Vec<JobSpec>) -> Result<Vec<JobResponse>, ReputeError> {
        self.unavailable = true;
        let mut refused = doomed;
        while let Some(job) = self.queue.pop_fair(self.sim_clock) {
            refused.push(job);
        }
        refused.sort_by_key(|j| j.seq);
        let mut responses = Vec::with_capacity(refused.len());
        for job in &refused {
            self.counters.unavailable += 1;
            if job.deadline_s.is_some() {
                self.slo.record(&job.tenant, self.sim_clock, false);
            }
            responses.push(JobResponse::shed(
                job.id.clone(),
                job.seq,
                job.reads.len() as u64,
                JobStatus::ServiceUnavailable,
                UNAVAILABLE_REASON,
            ));
        }
        Ok(responses)
    }

    /// Folds the fault plan's already-struck persistent faults into the
    /// health registry and recomputes the live capacity bounds.
    fn observe_plan_faults(&mut self, up_to_seconds: f64) {
        if !self.options.fault_plan.has_device_events() {
            return;
        }
        self.health
            .apply_plan(&self.options.fault_plan, up_to_seconds);
        self.recompute_live_caps();
    }

    /// Recomputes the per-job read cap (quarter-RAM cap of the smallest
    /// *surviving* device) and the admission-queue bound (scaled by the
    /// live-device fraction) after any health change.
    fn recompute_live_caps(&mut self) {
        let live = self.health.live();
        if live.is_empty() {
            self.unavailable = true;
            return;
        }
        let cap = self
            .platform
            .subset(&live)
            .max_batch_items(output_slot_bytes(self.options.max_locations))
            .max(1);
        self.live_max_reads = self.options.limits.max_reads_per_job.min(cap);
        let total = self.health.len();
        let scaled = (self.options.limits.queue_capacity * live.len()).div_ceil(total);
        self.queue.set_capacity(scaled);
    }

    /// Compacts the journal down to a state snapshot plus the still-
    /// queued jobs' acceptance records (see [`JobJournal::compact`]).
    /// No-op without a journal. Returns whether a compaction ran.
    ///
    /// # Errors
    ///
    /// [`ReputeError::Io`] on filesystem failures.
    pub fn compact_journal(&mut self) -> Result<bool, ReputeError> {
        let fingerprint = self.fingerprint();
        let state = StateRecord {
            sim_clock: self.sim_clock,
            next_seq: self.next_seq,
            batches: self.counters.batches,
            accepted: self.counters.accepted,
            completed: self.counters.completed,
            replayed: self.counters.replayed,
            shed: self.counters.shed,
            served: self.queue.served_snapshot(),
            quota: self.quota.snapshot(self.sim_clock),
            health: self
                .health
                .snapshot()
                .iter()
                .enumerate()
                .map(|(device, &(state, faults))| (device as u32, state.code(), faults))
                .collect(),
        };
        let Some(journal) = &mut self.journal else {
            return Ok(false);
        };
        let live = self.queue.queued_snapshot();
        journal.compact(&fingerprint, &state, &live)?;
        self.dead_records = 0;
        self.counters.compactions += 1;
        Ok(true)
    }

    /// Current journal file size in bytes, when a journal is attached
    /// (compaction ablations assert the post-compaction bound).
    ///
    /// # Errors
    ///
    /// [`ReputeError::Io`] when the metadata read fails.
    pub fn journal_size_bytes(&self) -> Result<Option<u64>, ReputeError> {
        self.journal
            .as_ref()
            .map(JobJournal::size_bytes)
            .transpose()
    }

    /// Books one dropped client connection (transport layer).
    pub fn note_connection_error(&mut self) {
        self.counters.connection_errors += 1;
    }

    /// Books one spool input skipped for an already-present response
    /// (crash-window idempotence, transport layer).
    pub fn note_spool_skipped(&mut self) {
        self.counters.spool_skipped += 1;
    }

    /// Books a rejection issued by a transport before the envelope ever
    /// reached [`ServeCore::submit`] — an unparseable request line, a
    /// malformed spool file, or an unreadable one — so telemetry counts
    /// every refusal the daemon sent, not just validation failures.
    pub fn note_rejected(&mut self) {
        self.counters.rejected += 1;
    }

    /// Books a completed (or replayed) job into counters, latency
    /// samples, SLO outcomes, telemetry records, and the trace.
    fn finish_job(
        &mut self,
        job: &JobSpec,
        mappings: u64,
        batch: u64,
        completion: f64,
        replayed: bool,
    ) {
        let latency = completion - job.arrival_s;
        self.latency.record(latency);
        self.counters.completed += 1;
        if replayed {
            self.counters.replayed += 1;
        }
        if let Some(deadline) = job.deadline_s {
            self.slo
                .record(&job.tenant, completion, completion <= deadline);
        }
        self.jobs.push(JobRecord {
            seq: job.seq,
            id: job.id.clone(),
            tenant: job.tenant.clone(),
            reads: job.reads.len() as u64,
            mappings,
            batch,
            latency_s: latency,
            replayed,
        });
        if self.options.tracing {
            self.spans.push(
                Span::new(
                    format!("job {}", job.id),
                    "job",
                    SCHEDULER_PID,
                    job.arrival_s,
                    completion,
                )
                .on_tid(1)
                .arg_str("tenant", job.tenant.clone())
                .arg_u64("reads", job.reads.len() as u64)
                .arg_u64("batch", batch),
            );
        }
    }

    /// Assembles a job's `OK` response — the SAM block is a
    /// [`SamAssembly`], as `repute map`'s output is, so the bytes match
    /// the batch CLI on the same reads and configuration.
    fn job_response(
        &self,
        job: &JobSpec,
        raw: &[Vec<Mapping>],
        batch: u64,
        completion: f64,
    ) -> Result<JobResponse, ReputeError> {
        let mut sam = SamAssembly::new(&self.set)?;
        let mut total_mappings = 0u64;
        for ((read_id, seq), mappings) in job.read_ids.iter().zip(&job.reads).zip(raw) {
            total_mappings += sam.push(read_id, seq, mappings, None)?.len() as u64;
        }
        Ok(JobResponse {
            id: job.id.clone(),
            seq: Some(job.seq),
            status: JobStatus::Ok,
            reason: None,
            reads: job.reads.len() as u64,
            mappings: total_mappings,
            batch: Some(batch),
            latency_s: Some(completion - job.arrival_s),
            sam: Some(String::from_utf8_lossy(&sam.out).into_owned()),
        })
    }

    fn batch_config(&self, key: ConfigKey) -> Result<ReputeConfig, ReputeError> {
        Ok(ReputeConfig::new(key.delta, self.options.s_min)
            .map_err(|e| ReputeError::Config(e.to_string()))?
            .with_max_locations(self.options.max_locations)
            .with_prefilter(key.prefilter)
            .with_prefilter_qgram(self.options.prefilter_q, self.options.prefilter_bin)
            .with_schedule(self.options.schedule)
            .with_host_threads(self.options.host_threads)
            .with_max_retries(self.options.max_retries))
    }

    /// Monotone service counters.
    pub fn counters(&self) -> ServeCounters {
        self.counters
    }

    /// The device-health registry (read-only).
    pub fn health(&self) -> &DeviceHealth {
        &self.health
    }

    /// True once every simulated device has been permanently lost: the
    /// daemon answers `SERVICE_UNAVAILABLE` and the transport should
    /// drain and exit.
    pub fn is_unavailable(&self) -> bool {
        self.unavailable
    }

    /// Per-tenant deadline SLO reports over the sliding quota window
    /// ending now, tenant name-sorted.
    pub fn slo_reports(&self) -> Vec<SloReport> {
        self.slo.clone().snapshot(self.sim_clock)
    }

    /// The acceptance seq assigned to the most recently accepted job
    /// (meaningful right after a [`ServeCore::submit`] that returned
    /// `Ok(None)`; transports use it to route the eventual response
    /// back to the submitting connection).
    pub fn last_accepted_seq(&self) -> u64 {
        self.next_seq.saturating_sub(1)
    }

    /// Jobs currently queued (the depth gauge's live value).
    pub fn queue_depth(&self) -> u64 {
        self.queue.len() as u64
    }

    /// Deepest the admission queue ever got.
    pub fn queue_depth_high_water(&self) -> u64 {
        self.queue.depth().high_water()
    }

    /// The simulated clock: every committed round advances it by its
    /// slowest group's makespan.
    pub fn simulated_seconds(&self) -> f64 {
        self.sim_clock
    }

    /// `(count, p50, p90, p99)` of per-job admission-to-completion
    /// latency, in simulated seconds.
    pub fn latency_percentiles(&self) -> (u64, f64, f64, f64) {
        let (p50, p90, p99) = self.latency.p50_p90_p99();
        (self.latency.count(), p50, p90, p99)
    }

    /// The service telemetry as records: one `job` record per
    /// completed job, the `serve` counter summary, a `latency` record
    /// (`stage: "job"`), and one `slo` record per tenant with deadline
    /// outcomes in the window.
    pub fn telemetry_records(&self) -> Vec<Record> {
        let mut records: Vec<Record> = self.jobs.iter().cloned().map(Record::Job).collect();
        records.push(Record::Serve(ServeSnapshot {
            counters: self.counters,
            devices: Some((
                self.health.live_count() as u64,
                self.health.lost_count() as u64,
            )),
            queue_depth: self.queue_depth(),
            queue_depth_max: self.queue_depth_high_water(),
            simulated_seconds: self.sim_clock,
        }));
        if !self.latency.is_empty() {
            let (p50_seconds, p90_seconds, p99_seconds) = self.latency.p50_p90_p99();
            records.push(Record::Latency(StageLatency {
                stage: "job".to_string(),
                count: self.latency.count(),
                p50_seconds,
                p90_seconds,
                p99_seconds,
            }));
        }
        let window_s = self.options.quota_window_s;
        let slo = self.slo_reports().into_iter();
        records.extend(slo.map(|report| Record::Slo(report, window_s)));
        records
    }

    /// [`ServeCore::telemetry_records`] as JSON lines — what
    /// `--metrics-out` holds and `repute stats` renders.
    pub fn telemetry_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for record in self.telemetry_records() {
            out.extend_from_slice(record.encode().as_bytes());
            out.push(b'\n');
        }
        out
    }

    /// Writes the service telemetry to `path` (atomic rename).
    ///
    /// # Errors
    ///
    /// [`ReputeError::Io`] on filesystem failures.
    pub fn write_telemetry(&self, path: &Path) -> Result<(), ReputeError> {
        write_atomic(path, &self.telemetry_bytes())
    }

    /// Writes one `job-<seq>.jsonl` file per completed job into `dir`
    /// (creating it), the spool shape `repute stats --dir` merges.
    ///
    /// # Errors
    ///
    /// [`ReputeError::Io`] on filesystem failures.
    pub fn write_job_telemetry_dir(&self, dir: &Path) -> Result<(), ReputeError> {
        std::fs::create_dir_all(dir).map_err(|e| ReputeError::io_at(dir, e))?;
        for job in &self.jobs {
            let path = dir.join(format!("job-{:06}.jsonl", job.seq));
            let mut line = Record::Job(job.clone()).encode().into_bytes();
            line.push(b'\n');
            write_atomic(&path, &line)?;
        }
        Ok(())
    }

    /// Writes the collected spans as Chrome-tracing JSON (atomic
    /// rename), under the platform's process table
    /// ([`Platform::trace_processes`]), as the batch CLI does.
    ///
    /// # Errors
    ///
    /// [`ReputeError::Io`] on filesystem failures.
    pub fn write_trace(&self, path: &Path) -> Result<(), ReputeError> {
        let processes = self.platform.trace_processes();
        write_atomic(path, write_chrome_trace(&processes, &self.spans).as_bytes())
    }
}
