//! The wire format of the mapping service: newline-delimited JSON job
//! envelopes in, newline-delimited JSON responses out.
//!
//! One request per line. A job envelope names the job, its tenant, and
//! its reads — inline as `{"id","seq"}` pairs or as a FASTQ path the
//! server resolves at admission — plus optional per-job overrides
//! (`delta`, `prefilter`, `mapper`) that must stay within the server's
//! pinned limits, and optional scheduling hints: `deadline_s` (a
//! relative simulated-seconds deadline feeding the earliest-deadline-
//! first lane) and `priority` (intra-tenant ordering, higher first).
//! The only non-job request is the graceful-drain control message
//! `{"op":"shutdown"}`.
//!
//! Responses are flat JSON objects with a typed `status`: `OK` carries
//! the job's SAM bytes and scheduling facts, `REJECTED` is a permanent
//! refusal (over-limit job, malformed reads), `RETRY_LATER` is the
//! admission queue's backpressure signal — the job was *not* accepted
//! and may be resubmitted once the queue drains — and `QUOTA_EXCEEDED`
//! means the tenant spent its sliding-window read budget; resubmit
//! after the window slides, or as a different tenant.

use std::str::FromStr;
use std::sync::Arc;

use repute_core::{ReputeConfig, ReputeError, ReputeMapper};
use repute_genome::DnaSeq;
use repute_mappers::{
    bwamem::BwaMemLike, coral::CoralLike, gem::GemLike, hobbes3::Hobbes3Like, razers3::Razers3Like,
    yara::YaraLike, IndexedReference, Mapper,
};
use repute_obs::json::{field, parse_json, JsonObject, JsonValue};
use repute_prefilter::PrefilterMode;

/// Tenant a job belongs to when the envelope names none.
pub const DEFAULT_TENANT: &str = "default";

/// Which mapping strategy a job requests (the command-line crate
/// re-exports this as its `MapperChoice`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MapperKind {
    /// The REPUTE mapper (default).
    #[default]
    Repute,
    /// The CORAL-style serial-heuristic baseline.
    Coral,
    /// The RazerS3-style SWIFT counting baseline.
    Razers3,
    /// The Hobbes3-style q-gram signature baseline.
    Hobbes3,
    /// The Yara-style best-mapper baseline.
    Yara,
    /// The GEM-style adaptive-filtration baseline.
    Gem,
    /// The BWA-MEM-style SMEM best-mapper baseline (ignores δ).
    BwaMem,
}

impl MapperKind {
    /// Canonical name (the value accepted in envelopes and flags).
    pub fn as_str(self) -> &'static str {
        match self {
            MapperKind::Repute => "repute",
            MapperKind::Coral => "coral",
            MapperKind::Razers3 => "razers3",
            MapperKind::Hobbes3 => "hobbes3",
            MapperKind::Yara => "yara",
            MapperKind::Gem => "gem",
            MapperKind::BwaMem => "bwa-mem",
        }
    }

    /// Stable one-byte code used by the job journal.
    pub fn code(self) -> u8 {
        match self {
            MapperKind::Repute => 0,
            MapperKind::Coral => 1,
            MapperKind::Razers3 => 2,
            MapperKind::Hobbes3 => 3,
            MapperKind::Yara => 4,
            MapperKind::Gem => 5,
            MapperKind::BwaMem => 6,
        }
    }

    /// Inverse of [`MapperKind::code`].
    pub fn from_code(code: u8) -> Option<MapperKind> {
        Some(match code {
            0 => MapperKind::Repute,
            1 => MapperKind::Coral,
            2 => MapperKind::Razers3,
            3 => MapperKind::Hobbes3,
            4 => MapperKind::Yara,
            5 => MapperKind::Gem,
            6 => MapperKind::BwaMem,
            _ => return None,
        })
    }

    /// Instantiates this kind of mapper over a shared FM-index; the
    /// baselines take δ, `S_min` and the location limit from `config`.
    pub fn build(self, indexed: Arc<IndexedReference>, config: ReputeConfig) -> Box<dyn Mapper> {
        let (delta, limit) = (config.delta(), config.max_locations());
        match self {
            MapperKind::Repute => Box::new(ReputeMapper::new(indexed, config)),
            MapperKind::Coral => Box::new(
                CoralLike::new(indexed, delta)
                    .with_s_min(config.s_min())
                    .with_max_locations(limit),
            ),
            MapperKind::Razers3 => {
                Box::new(Razers3Like::new(indexed, delta).with_max_locations(limit))
            }
            MapperKind::Hobbes3 => {
                Box::new(Hobbes3Like::new(indexed, delta).with_max_locations(limit))
            }
            MapperKind::Yara => Box::new(YaraLike::new(indexed, delta).with_max_locations(limit)),
            MapperKind::Gem => Box::new(GemLike::new(indexed, delta).with_max_locations(limit)),
            MapperKind::BwaMem => Box::new(BwaMemLike::new(indexed).with_max_locations(limit)),
        }
    }
}

impl FromStr for MapperKind {
    type Err = String;

    fn from_str(s: &str) -> Result<MapperKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "repute" => Ok(MapperKind::Repute),
            "coral" => Ok(MapperKind::Coral),
            "razers3" => Ok(MapperKind::Razers3),
            "hobbes3" => Ok(MapperKind::Hobbes3),
            "yara" => Ok(MapperKind::Yara),
            "gem" => Ok(MapperKind::Gem),
            "bwa-mem" | "bwamem" => Ok(MapperKind::BwaMem),
            other => Err(format!(
                "unknown mapper {other:?} (repute, coral, razers3, hobbes3, yara, gem, bwa-mem)"
            )),
        }
    }
}

/// Stable one-byte code of a prefilter mode for the job journal.
pub fn prefilter_code(mode: PrefilterMode) -> u8 {
    match mode {
        PrefilterMode::None => 0,
        PrefilterMode::Shd => 1,
        PrefilterMode::Qgram => 2,
        PrefilterMode::Both => 3,
    }
}

/// Inverse of [`prefilter_code`].
pub fn prefilter_from_code(code: u8) -> Option<PrefilterMode> {
    Some(match code {
        0 => PrefilterMode::None,
        1 => PrefilterMode::Shd,
        2 => PrefilterMode::Qgram,
        3 => PrefilterMode::Both,
        _ => return None,
    })
}

/// One parsed job envelope, reads not yet resolved: inline reads are
/// already sequences, a `reads_path` still points at a FASTQ file the
/// transport resolves before admission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobEnvelope {
    /// Client-chosen job id; responses echo it.
    pub id: String,
    /// Tenant of the weighted-fair admission queue.
    pub tenant: String,
    /// Per-job error-budget override (must be ≤ the server's
    /// `--max-delta`).
    pub delta: Option<u32>,
    /// Per-job prefilter override (repute mapper only).
    pub prefilter: Option<PrefilterMode>,
    /// Per-job mapper override.
    pub mapper: Option<MapperKind>,
    /// Relative deadline in simulated seconds from admission; jobs with
    /// a deadline dequeue earliest-deadline-first ahead of the fair
    /// lanes while the deadline has not passed.
    pub deadline_s: Option<f64>,
    /// Intra-tenant ordering hint: higher-priority jobs dequeue before
    /// lower-priority jobs of the same tenant (FIFO within a priority).
    pub priority: u32,
    /// Inline reads as `(id, sequence)` pairs.
    pub reads: Vec<(String, DnaSeq)>,
    /// FASTQ path to load the reads from (exclusive with inline reads).
    pub reads_path: Option<String>,
}

impl JobEnvelope {
    /// An envelope with inline reads and no overrides.
    pub fn new(id: impl Into<String>, reads: Vec<(String, DnaSeq)>) -> JobEnvelope {
        JobEnvelope {
            id: id.into(),
            tenant: DEFAULT_TENANT.to_string(),
            delta: None,
            prefilter: None,
            mapper: None,
            deadline_s: None,
            priority: 0,
            reads,
            reads_path: None,
        }
    }

    /// Sets the tenant.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> JobEnvelope {
        self.tenant = tenant.into();
        self
    }

    /// Sets the per-job δ override.
    pub fn with_delta(mut self, delta: u32) -> JobEnvelope {
        self.delta = Some(delta);
        self
    }

    /// Sets the relative deadline (simulated seconds from admission).
    pub fn with_deadline(mut self, deadline_s: f64) -> JobEnvelope {
        self.deadline_s = Some(deadline_s);
        self
    }

    /// Sets the intra-tenant priority (higher dequeues first).
    pub fn with_priority(mut self, priority: u32) -> JobEnvelope {
        self.priority = priority;
        self
    }

    /// Serializes the envelope as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut obj = JsonObject::new();
        obj.str_field("id", &self.id);
        obj.str_field("tenant", &self.tenant);
        if let Some(delta) = self.delta {
            obj.u64_field("delta", u64::from(delta));
        }
        if let Some(mode) = self.prefilter {
            obj.str_field("prefilter", &mode.to_string());
        }
        if let Some(kind) = self.mapper {
            obj.str_field("mapper", kind.as_str());
        }
        if let Some(deadline) = self.deadline_s {
            obj.f64_field("deadline_s", deadline);
        }
        if self.priority > 0 {
            obj.u64_field("priority", u64::from(self.priority));
        }
        if let Some(path) = &self.reads_path {
            obj.str_field("reads_path", path);
        } else {
            let mut arr = String::from("[");
            for (i, (id, seq)) in self.reads.iter().enumerate() {
                if i > 0 {
                    arr.push(',');
                }
                let mut read = JsonObject::new();
                read.str_field("id", id);
                read.str_field("seq", &seq.to_string());
                arr.push_str(&read.finish());
            }
            arr.push(']');
            obj.raw_field("reads", &arr);
        }
        obj.finish()
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A mapping job.
    Job(JobEnvelope),
    /// Graceful drain: finish every queued job, respond, then exit.
    Shutdown,
}

fn parse_error(message: impl Into<String>) -> ReputeError {
    ReputeError::InputParse(message.into())
}

/// Parses one request line (a job envelope or `{"op":"shutdown"}`).
///
/// # Errors
///
/// Returns [`ReputeError::InputParse`] naming the first problem: bad
/// JSON, a missing `id`, both or neither of `reads`/`reads_path`, a
/// malformed read entry, or an unknown `prefilter`/`mapper` value.
pub fn parse_request(line: &str) -> Result<Request, ReputeError> {
    let value = parse_json(line).ok_or_else(|| parse_error("request is not valid JSON"))?;
    let fields = value
        .as_obj()
        .ok_or_else(|| parse_error("request must be a JSON object"))?;
    if let Some(op) = field(fields, "op").and_then(JsonValue::as_str) {
        return match op {
            "shutdown" => Ok(Request::Shutdown),
            other => Err(parse_error(format!("unknown op {other:?}"))),
        };
    }
    let id = field(fields, "id")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| parse_error("job envelope needs a string \"id\""))?
        .to_string();
    let tenant = field(fields, "tenant")
        .and_then(JsonValue::as_str)
        .unwrap_or(DEFAULT_TENANT)
        .to_string();
    let delta = match field(fields, "delta") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .and_then(|d| u32::try_from(d).ok())
                .ok_or_else(|| parse_error(format!("job {id:?}: \"delta\" must be an integer")))?,
        ),
    };
    let prefilter = match field(fields, "prefilter").and_then(JsonValue::as_str) {
        None => None,
        Some(s) => Some(
            s.parse::<PrefilterMode>()
                .map_err(|e| parse_error(format!("job {id:?}: prefilter: {e}")))?,
        ),
    };
    let mapper = match field(fields, "mapper").and_then(JsonValue::as_str) {
        None => None,
        Some(s) => Some(
            s.parse::<MapperKind>()
                .map_err(|e| parse_error(format!("job {id:?}: {e}")))?,
        ),
    };
    let deadline_s = match field(fields, "deadline_s") {
        None => None,
        Some(v) => {
            let d = v.as_f64().ok_or_else(|| {
                parse_error(format!("job {id:?}: \"deadline_s\" must be a number"))
            })?;
            if !d.is_finite() || d < 0.0 {
                return Err(parse_error(format!(
                    "job {id:?}: \"deadline_s\" must be a finite non-negative number"
                )));
            }
            Some(d)
        }
    };
    let priority = match field(fields, "priority") {
        None => 0,
        Some(v) => v
            .as_u64()
            .and_then(|p| u32::try_from(p).ok())
            .ok_or_else(|| parse_error(format!("job {id:?}: \"priority\" must be an integer")))?,
    };
    let reads_path = field(fields, "reads_path")
        .and_then(JsonValue::as_str)
        .map(str::to_string);
    let mut reads = Vec::new();
    if let Some(items) = field(fields, "reads").and_then(JsonValue::as_arr) {
        if reads_path.is_some() {
            return Err(parse_error(format!(
                "job {id:?}: \"reads\" and \"reads_path\" are mutually exclusive"
            )));
        }
        for (i, item) in items.iter().enumerate() {
            let entry = item
                .as_obj()
                .ok_or_else(|| parse_error(format!("job {id:?}: read {i} is not an object")))?;
            let read_id = field(entry, "id")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| parse_error(format!("job {id:?}: read {i} needs an \"id\"")))?;
            let seq = field(entry, "seq")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| parse_error(format!("job {id:?}: read {i} needs a \"seq\"")))?;
            let seq: DnaSeq = seq
                .parse()
                .map_err(|e| parse_error(format!("job {id:?}: read {read_id:?}: {e}")))?;
            reads.push((read_id.to_string(), seq));
        }
    } else if reads_path.is_none() {
        return Err(parse_error(format!(
            "job {id:?}: needs \"reads\" (inline) or \"reads_path\" (FASTQ)"
        )));
    }
    Ok(Request::Job(JobEnvelope {
        id,
        tenant,
        delta,
        prefilter,
        mapper,
        deadline_s,
        priority,
        reads,
        reads_path,
    }))
}

/// Resolves a `reads_path` envelope by loading its FASTQ file; inline
/// envelopes pass through untouched.
///
/// # Errors
///
/// Returns [`ReputeError::InputParse`] (unreadable or malformed FASTQ)
/// so the server can turn the failure into a per-job rejection instead
/// of dying.
pub fn resolve_reads(envelope: &mut JobEnvelope) -> Result<(), ReputeError> {
    let Some(path) = envelope.reads_path.take() else {
        return Ok(());
    };
    let file = std::fs::File::open(&path)
        .map_err(|e| parse_error(format!("job {:?}: reads_path {path:?}: {e}", envelope.id)))?;
    let records = repute_genome::fastq::read_fastq(std::io::BufReader::new(file))
        .map_err(|e| parse_error(format!("job {:?}: reads_path {path:?}: {e}", envelope.id)))?;
    envelope.reads = records.into_iter().map(|r| (r.id, r.seq)).collect();
    Ok(())
}

/// Typed outcome of a job, carried in the response `status` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The job ran; the response carries its SAM output.
    Ok,
    /// Permanent refusal (over-limit, malformed); do not resubmit as-is.
    Rejected,
    /// Admission backpressure: the queue is full, resubmit later.
    RetryLater,
    /// The tenant exhausted its sliding-window read budget; resubmit
    /// after the window slides (distinct from `RETRY_LATER`: the queue
    /// has room, the *tenant* is over budget).
    QuotaExceeded,
    /// The job's deadline expired before dispatch and the daemon runs
    /// with `--shed-overdue`: the job was accepted but never executed.
    /// Resubmitting with a later (or no) deadline is safe.
    DeadlineExceeded,
    /// No live device remains (every accelerator is lost or
    /// quarantined): the daemon is draining and will exit; the job was
    /// not executed and will not be.
    ServiceUnavailable,
}

impl JobStatus {
    /// Wire value of the status.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Ok => "OK",
            JobStatus::Rejected => "REJECTED",
            JobStatus::RetryLater => "RETRY_LATER",
            JobStatus::QuotaExceeded => "QUOTA_EXCEEDED",
            JobStatus::DeadlineExceeded => "DEADLINE_EXCEEDED",
            JobStatus::ServiceUnavailable => "SERVICE_UNAVAILABLE",
        }
    }

    /// Inverse of [`JobStatus::as_str`].
    pub fn parse(s: &str) -> Option<JobStatus> {
        Some(match s {
            "OK" => JobStatus::Ok,
            "REJECTED" => JobStatus::Rejected,
            "RETRY_LATER" => JobStatus::RetryLater,
            "QUOTA_EXCEEDED" => JobStatus::QuotaExceeded,
            "DEADLINE_EXCEEDED" => JobStatus::DeadlineExceeded,
            "SERVICE_UNAVAILABLE" => JobStatus::ServiceUnavailable,
            _ => return None,
        })
    }
}

/// One response line of the daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResponse {
    /// The job id the response answers.
    pub id: String,
    /// Server-assigned acceptance sequence number — present for every
    /// job that was *accepted*, whatever its final status (`OK`,
    /// `DEADLINE_EXCEEDED`, `SERVICE_UNAVAILABLE`), absent for refusals
    /// at admission. Unique across the daemon's life even when clients
    /// reuse ids — the multi-client socket loop routes responses by it.
    pub seq: Option<u64>,
    /// Typed outcome.
    pub status: JobStatus,
    /// Human-readable refusal reason (every non-`OK` status).
    pub reason: Option<String>,
    /// Reads the job carried.
    pub reads: u64,
    /// Mapping locations reported across the job's reads.
    pub mappings: u64,
    /// Scheduler batch the job ran in.
    pub batch: Option<u64>,
    /// Admission-to-completion latency in simulated seconds.
    pub latency_s: Option<f64>,
    /// The job's SAM output (header + one block per read).
    pub sam: Option<String>,
}

impl JobResponse {
    /// A refusal response (`REJECTED` or `RETRY_LATER`).
    pub fn refusal(id: impl Into<String>, status: JobStatus, reason: impl Into<String>) -> Self {
        JobResponse {
            id: id.into(),
            seq: None,
            status,
            reason: Some(reason.into()),
            reads: 0,
            mappings: 0,
            batch: None,
            latency_s: None,
            sam: None,
        }
    }

    /// A typed failure for an *accepted* job (`DEADLINE_EXCEEDED` /
    /// `SERVICE_UNAVAILABLE`): the job had a sequence number, so the
    /// response carries it for per-client routing, plus the read count
    /// the job was admitted with.
    pub fn shed(
        id: impl Into<String>,
        seq: u64,
        reads: u64,
        status: JobStatus,
        reason: impl Into<String>,
    ) -> Self {
        JobResponse {
            seq: Some(seq),
            reads,
            ..JobResponse::refusal(id, status, reason)
        }
    }

    /// Serializes the response as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut obj = JsonObject::new();
        obj.str_field("type", "response");
        obj.str_field("id", &self.id);
        obj.str_field("status", self.status.as_str());
        if let Some(reason) = &self.reason {
            obj.str_field("reason", reason);
        }
        // Accepted jobs carry their sequence number whatever the final
        // status — transports route shed/unavailable responses by it.
        if let Some(seq) = self.seq {
            obj.u64_field("seq", seq);
        }
        if self.status == JobStatus::Ok {
            obj.u64_field("reads", self.reads);
            obj.u64_field("mappings", self.mappings);
            if let Some(batch) = self.batch {
                obj.u64_field("batch", batch);
            }
            if let Some(latency) = self.latency_s {
                obj.f64_field("latency_s", latency);
            }
            if let Some(sam) = &self.sam {
                obj.str_field("sam", sam);
            }
        } else if self.reads > 0 {
            obj.u64_field("reads", self.reads);
        }
        obj.finish()
    }

    /// Parses a response line written by [`JobResponse::to_json_line`].
    ///
    /// # Errors
    ///
    /// Returns [`ReputeError::InputParse`] when the line is not a
    /// response object with a known status.
    pub fn parse(line: &str) -> Result<JobResponse, ReputeError> {
        let value = parse_json(line).ok_or_else(|| parse_error("response is not valid JSON"))?;
        let fields = value
            .as_obj()
            .ok_or_else(|| parse_error("response must be a JSON object"))?;
        if field(fields, "type").and_then(JsonValue::as_str) != Some("response") {
            return Err(parse_error("not a response record"));
        }
        let id = field(fields, "id")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| parse_error("response needs an \"id\""))?
            .to_string();
        let status = field(fields, "status")
            .and_then(JsonValue::as_str)
            .and_then(JobStatus::parse)
            .ok_or_else(|| parse_error("response needs a known \"status\""))?;
        Ok(JobResponse {
            id,
            seq: field(fields, "seq").and_then(JsonValue::as_u64),
            status,
            reason: field(fields, "reason")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            reads: field(fields, "reads")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
            mappings: field(fields, "mappings")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
            batch: field(fields, "batch").and_then(JsonValue::as_u64),
            latency_s: field(fields, "latency_s").and_then(JsonValue::as_f64),
            sam: field(fields, "sam")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> DnaSeq {
        s.parse().expect("valid sequence")
    }

    #[test]
    fn job_envelope_round_trips() {
        let env = JobEnvelope::new("j1", vec![("r1".into(), seq("ACGT"))])
            .with_tenant("acme")
            .with_delta(3)
            .with_deadline(2.5)
            .with_priority(7);
        let line = env.to_json_line();
        match parse_request(&line).expect("parses") {
            Request::Job(parsed) => assert_eq!(parsed, env),
            other => panic!("unexpected request {other:?}"),
        }
        // A plain envelope (no scheduling hints) also round-trips.
        let plain = JobEnvelope::new("j2", vec![("r1".into(), seq("ACGT"))]);
        match parse_request(&plain.to_json_line()).expect("parses") {
            Request::Job(parsed) => {
                assert_eq!(parsed.deadline_s, None);
                assert_eq!(parsed.priority, 0);
            }
            other => panic!("unexpected request {other:?}"),
        }
    }

    #[test]
    fn shutdown_and_errors_parse() {
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).expect("shutdown"),
            Request::Shutdown
        );
        for bad in [
            "",
            "not json",
            r#"{"tenant":"x"}"#,
            r#"{"id":"a"}"#,
            r#"{"id":"a","reads":[{"id":"r"}]}"#,
            r#"{"id":"a","reads":[],"reads_path":"x.fq"}"#,
            r#"{"id":"a","reads":[],"mapper":"nope"}"#,
            r#"{"id":"a","reads":[],"deadline_s":-1.0}"#,
            r#"{"id":"a","reads":[],"deadline_s":"soon"}"#,
            r#"{"id":"a","reads":[],"priority":-3}"#,
            r#"{"op":"reboot"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn response_round_trips() {
        let ok = JobResponse {
            id: "j1".into(),
            seq: Some(4),
            status: JobStatus::Ok,
            reason: None,
            reads: 2,
            mappings: 3,
            batch: Some(0),
            latency_s: Some(0.25),
            sam: Some("@HD\tVN:1.6\n".into()),
        };
        assert_eq!(JobResponse::parse(&ok.to_json_line()).expect("parses"), ok);
        let retry = JobResponse::refusal("j2", JobStatus::RetryLater, "queue full");
        let line = retry.to_json_line();
        assert!(line.contains("RETRY_LATER"));
        assert_eq!(JobResponse::parse(&line).expect("parses"), retry);
        let quota = JobResponse::refusal("j3", JobStatus::QuotaExceeded, "budget spent");
        let line = quota.to_json_line();
        assert!(line.contains("QUOTA_EXCEEDED"));
        assert_eq!(JobResponse::parse(&line).expect("parses"), quota);
    }

    #[test]
    fn shed_responses_round_trip_with_seq() {
        let shed = JobResponse::shed(
            "j4",
            17,
            8,
            JobStatus::DeadlineExceeded,
            "deadline 2.000000 s expired at 3.500000 s before dispatch",
        );
        let line = shed.to_json_line();
        assert!(line.contains("DEADLINE_EXCEEDED"));
        assert!(line.contains("\"seq\":17"), "{line}");
        assert!(line.contains("\"reads\":8"), "{line}");
        assert_eq!(JobResponse::parse(&line).expect("parses"), shed);

        let gone = JobResponse::shed(
            "j5",
            18,
            4,
            JobStatus::ServiceUnavailable,
            "all devices lost",
        );
        let line = gone.to_json_line();
        assert!(line.contains("SERVICE_UNAVAILABLE"));
        assert!(line.contains("\"seq\":18"), "{line}");
        assert_eq!(JobResponse::parse(&line).expect("parses"), gone);

        for s in [JobStatus::DeadlineExceeded, JobStatus::ServiceUnavailable] {
            assert_eq!(JobStatus::parse(s.as_str()), Some(s));
        }
    }

    #[test]
    fn mapper_and_prefilter_codes_round_trip() {
        for kind in [
            MapperKind::Repute,
            MapperKind::Coral,
            MapperKind::Razers3,
            MapperKind::Hobbes3,
            MapperKind::Yara,
            MapperKind::Gem,
            MapperKind::BwaMem,
        ] {
            assert_eq!(MapperKind::from_code(kind.code()), Some(kind));
            assert_eq!(kind.as_str().parse::<MapperKind>().ok(), Some(kind));
        }
        for mode in [
            PrefilterMode::None,
            PrefilterMode::Shd,
            PrefilterMode::Qgram,
            PrefilterMode::Both,
        ] {
            assert_eq!(prefilter_from_code(prefilter_code(mode)), Some(mode));
        }
        assert_eq!(MapperKind::from_code(200), None);
        assert_eq!(prefilter_from_code(9), None);
    }
}
