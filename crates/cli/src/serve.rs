//! `repute serve` and `repute submit`: the daemon over
//! [`repute_serve::ServeCore`] and its socket client (Unix only; other
//! platforms get stubs that say so).

#[cfg(unix)]
use std::path::Path;

use repute_core::ReputeError;
use repute_hetsim::FaultPlan;
use repute_serve::ServeOptions;

use crate::args::{Cursor, ParseArgsError};
use crate::map::MappingFlags;

/// Parsed command-line options for `repute serve`: where the daemon
/// listens and what it writes, around the [`ServeOptions`] it runs with.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCliOptions {
    /// Path to the FASTA reference (exclusive with `index`).
    pub reference: String,
    /// Path to a prebuilt index from `repute index`.
    pub index: Option<String>,
    /// Fingerprint-validated serialized-index cache (see
    /// [`crate::MapOptions::index_cache`]).
    pub index_cache: Option<String>,
    /// Simulated platform the daemon schedules batches on.
    pub platform: String,
    /// Unix-domain socket path to listen on (exclusive with `spool`).
    pub socket: Option<String>,
    /// Spool directory of `*.json` job files to watch (exclusive with
    /// `socket`).
    pub spool: Option<String>,
    /// Process the spool exactly once and exit (deterministic; for
    /// tests and CI) instead of polling forever.
    pub once: bool,
    /// Crash-safe job-journal path; restart with `resume` to replay
    /// committed responses and requeue uncommitted jobs.
    pub journal: Option<String>,
    /// Resume from an existing journal instead of starting fresh.
    pub resume: bool,
    /// The daemon core's configuration: mapping defaults, admission
    /// limits, fairness, fault injection. `--serial-batches` clears
    /// `concurrent_batches`, an unset `--max-reads-per-job` stays
    /// `usize::MAX` (the platform's quarter-RAM batch cap), and
    /// `tracing` follows `trace_out` when the daemon starts.
    pub serve: ServeOptions,
    /// Merged telemetry JSON-lines export path (written at exit, and
    /// after every spool pass).
    pub metrics_out: Option<String>,
    /// Per-job telemetry spool directory (one `*.jsonl` file per job;
    /// inspect with `repute stats --dir`).
    pub metrics_dir: Option<String>,
    /// Chrome-trace span export path (enables tracing).
    pub trace_out: Option<String>,
}

impl Default for ServeCliOptions {
    fn default() -> ServeCliOptions {
        ServeCliOptions {
            reference: String::new(),
            index: None,
            index_cache: None,
            platform: "system1".to_string(),
            socket: None,
            spool: None,
            once: false,
            journal: None,
            resume: false,
            serve: ServeOptions::default(),
            metrics_out: None,
            metrics_dir: None,
            trace_out: None,
        }
    }
}

/// `name=<value>` with a positive value (`--tenant-weight`,
/// `--tenant-quota`): `shape` and `what` name the value in the messages.
fn tenant_pair<T: std::str::FromStr + PartialOrd + Default>(
    cur: &mut Cursor,
    shape: &str,
    what: &str,
) -> Result<(String, T), ParseArgsError> {
    let spec = cur.value()?;
    let (name, value) = spec
        .split_once('=')
        .ok_or_else(|| cur.fail(format_args!("expects name=<{shape}>")))?;
    let value: T = value
        .parse()
        .map_err(|_| cur.fail(format_args!("expects {what}")))?;
    // Not `<=`: a NaN weight is not positive either.
    if value.partial_cmp(&T::default()) != Some(std::cmp::Ordering::Greater) {
        return Err(cur.fail("must be positive"));
    }
    Ok((name.to_string(), value))
}

/// Parses `repute serve` arguments (everything after the subcommand).
///
/// # Errors
///
/// Returns [`ParseArgsError`] for unknown flags, missing values, or
/// inconsistent combinations.
pub fn parse_serve_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<ServeCliOptions, ParseArgsError> {
    let mut opts = ServeCliOptions::default();
    let mut shared = MappingFlags {
        reference: &mut opts.reference,
        index: &mut opts.index,
        index_cache: &mut opts.index_cache,
        delta: &mut opts.serve.delta,
        s_min: &mut opts.serve.s_min,
        max_locations: &mut opts.serve.max_locations,
        prefilter: &mut opts.serve.prefilter,
        prefilter_q: &mut opts.serve.prefilter_q,
        prefilter_bin: &mut opts.serve.prefilter_bin,
        schedule: &mut opts.serve.schedule,
        host_threads: &mut opts.serve.host_threads,
        max_retries: &mut opts.serve.max_retries,
        metrics_out: &mut opts.metrics_out,
        trace_out: &mut opts.trace_out,
        fault_plan: None,
    };
    let limits = &mut opts.serve.limits;
    let mut cur = Cursor::new(args);
    while cur.advance()? {
        if shared.accept(&mut cur)? {
            let crash = shared
                .fault_plan
                .as_ref()
                .and_then(FaultPlan::host_crash_at);
            if crash.is_some() {
                return Err(ParseArgsError::new(
                    "serve accepts device fault events only (crash-resume \
                     is --journal/--resume territory, not crash:@<t>)",
                ));
            }
            continue;
        }
        match cur.flag() {
            "--platform" => opts.platform = cur.value()?,
            "--socket" => opts.socket = Some(cur.value()?),
            "--spool" => opts.spool = Some(cur.value()?),
            "--once" => opts.once = true,
            "--journal" => opts.journal = Some(cur.value()?),
            "--resume" => opts.resume = true,
            "--shed-overdue" => opts.serve.shed_overdue = true,
            "--serial-batches" => opts.serve.concurrent_batches = false,
            "--queue-capacity" => limits.queue_capacity = cur.positive()?,
            "--max-reads-per-job" => limits.max_reads_per_job = cur.positive()?,
            "--max-delta" => limits.max_delta = cur.integer()?,
            "--tenant-weight" => {
                let pair = tenant_pair(&mut cur, "weight", "a numeric weight")?;
                opts.serve.tenant_weights.push(pair);
            }
            "--tenant-quota" => {
                let pair = tenant_pair(&mut cur, "reads", "an integer read budget")?;
                opts.serve.tenant_quotas.push(pair);
            }
            "--quota-window" => {
                let window: f64 = cur.parsed("seconds")?;
                if !window.is_finite() || window <= 0.0 {
                    return Err(cur.fail("must be positive"));
                }
                opts.serve.quota_window_s = window;
            }
            "--journal-compact-threshold" => {
                opts.serve.journal_compact_threshold = cur.integer()?;
            }
            "--metrics-dir" => opts.metrics_dir = Some(cur.value()?),
            _ => return Err(cur.unknown()),
        }
    }
    let (fault_plan, reference_rules) = shared.finish(&cur);
    reference_rules?;
    opts.serve.fault_plan = fault_plan.unwrap_or_default();
    if opts.socket.is_none() && opts.spool.is_none() {
        return Err(ParseArgsError::new(
            "serve needs a transport: --socket <path> or --spool <dir>",
        ));
    }
    if opts.socket.is_some() && opts.spool.is_some() {
        return Err(ParseArgsError::new(
            "--socket and --spool are mutually exclusive",
        ));
    }
    if opts.once && opts.spool.is_none() {
        return Err(ParseArgsError::new("--once requires --spool"));
    }
    if opts.resume && opts.journal.is_none() {
        return Err(ParseArgsError::new("--resume requires --journal"));
    }
    if opts.serve.journal_compact_threshold > 0 && opts.journal.is_none() {
        return Err(ParseArgsError::new(
            "--journal-compact-threshold requires --journal",
        ));
    }
    Ok(opts)
}

/// Runs `repute serve`: loads the reference once, then serves mapping
/// jobs over the configured transport until shutdown (socket) or until
/// the spool pass completes (`--spool --once`).
///
/// # Errors
///
/// Propagates configuration, journal, transport, and executor errors,
/// each carrying the distinct exit code of its [`ReputeError`] class.
#[cfg(unix)]
pub fn run_serve(opts: &ServeCliOptions) -> Result<(), ReputeError> {
    use repute_serve::transport;

    let platform = crate::map::platform_by_name(&opts.platform)?;
    let load_started = std::time::Instant::now();
    let set = crate::index::load_reference_set(
        &opts.reference,
        opts.index.as_deref(),
        opts.index_cache.as_deref(),
    )?;
    eprintln!(
        "reference ready in {:.3} s (loaded once for the daemon's life)",
        load_started.elapsed().as_secs_f64()
    );
    let options = ServeOptions {
        tracing: opts.trace_out.is_some(),
        ..opts.serve.clone()
    };
    let mut core = repute_serve::ServeCore::new(set, platform, options)?;
    if let Some(journal) = &opts.journal {
        let path = Path::new(journal);
        if path.exists() && !opts.resume {
            return Err(ReputeError::Config(format!(
                "journal {journal:?} already exists; pass --resume to \
                 continue it or remove it to start over"
            )));
        }
        if !path.exists() && opts.resume {
            return Err(ReputeError::Config(format!(
                "--resume needs an existing journal, but {journal:?} does not exist"
            )));
        }
        let replayed = core.attach_journal(path, opts.resume)?;
        if !replayed.is_empty() {
            eprintln!(
                "resume: {} committed job response(s) replayed from the journal",
                replayed.len()
            );
        }
    }
    let export = |core: &repute_serve::ServeCore| -> Result<(), ReputeError> {
        if let Some(path) = &opts.metrics_out {
            core.write_telemetry(Path::new(path))?;
        }
        if let Some(dir) = &opts.metrics_dir {
            core.write_job_telemetry_dir(Path::new(dir))?;
        }
        Ok(())
    };
    if let Some(spool) = &opts.spool {
        let dir = Path::new(spool);
        loop {
            let n = transport::process_spool_once(&mut core, dir)?;
            if n > 0 {
                eprintln!("spool: processed {n} job file(s)");
                export(&core)?;
            }
            if opts.once {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(200));
        }
    } else if let Some(socket) = &opts.socket {
        eprintln!(
            "listening on {socket:?} (stop with `repute submit --socket {socket} --shutdown`)"
        );
        transport::serve_socket(&mut core, Path::new(socket))?;
    }
    export(&core)?;
    if let Some(path) = &opts.trace_out {
        core.write_trace(Path::new(path))?;
    }
    // The closing summary is the telemetry just exported, as `repute
    // stats` would render it.
    eprint!(
        "{}",
        repute_obs::Summary::of(core.telemetry_records()).render()
    );
    if core.is_unavailable() {
        eprintln!("every simulated device was lost: drained as SERVICE_UNAVAILABLE");
    }
    Ok(())
}

/// Non-Unix stub: the daemon's transports need Unix-domain sockets.
///
/// # Errors
///
/// Always returns [`ReputeError::Config`].
#[cfg(not(unix))]
pub fn run_serve(_opts: &ServeCliOptions) -> Result<(), ReputeError> {
    Err(ReputeError::Config(
        "repute serve requires a Unix platform (Unix-domain sockets)".into(),
    ))
}

/// Parsed command-line options for `repute submit`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitOptions {
    /// Unix-domain socket of the running daemon.
    pub socket: String,
    /// FASTQ reads to submit (loaded client-side and inlined).
    pub reads: Option<String>,
    /// Job id (defaults to the reads file name).
    pub id: Option<String>,
    /// Tenant the job is accounted to.
    pub tenant: Option<String>,
    /// Per-job δ override (within the server's `--max-delta`).
    pub delta: Option<u32>,
    /// Per-job prefilter override.
    pub prefilter: Option<String>,
    /// Per-job mapper override.
    pub mapper: Option<String>,
    /// Relative deadline in simulated seconds (EDF lane).
    pub deadline: Option<f64>,
    /// Intra-tenant priority (higher dequeues first).
    pub priority: Option<u32>,
    /// SAM output path; `None` writes to stdout.
    pub output: Option<String>,
    /// Bounded client-side retry budget on `RETRY_LATER` answers.
    pub retry: u32,
    /// Base backoff delay in milliseconds; attempt `k` sleeps
    /// `retry_base_ms << k` before resubmitting.
    pub retry_base_ms: u64,
    /// Ask the daemon to drain and shut down instead of submitting.
    pub shutdown: bool,
}

impl Default for SubmitOptions {
    fn default() -> SubmitOptions {
        SubmitOptions {
            socket: String::new(),
            reads: None,
            id: None,
            tenant: None,
            delta: None,
            prefilter: None,
            mapper: None,
            deadline: None,
            priority: None,
            output: None,
            retry: 0,
            retry_base_ms: 100,
            shutdown: false,
        }
    }
}

/// Parses `repute submit` arguments.
///
/// # Errors
///
/// Returns [`ParseArgsError`] for unknown flags, missing values, or
/// missing required options.
pub fn parse_submit_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<SubmitOptions, ParseArgsError> {
    let mut opts = SubmitOptions::default();
    let mut cur = Cursor::new(args);
    while cur.advance()? {
        match cur.flag() {
            "--socket" => opts.socket = cur.value()?,
            "--reads" => opts.reads = Some(cur.value()?),
            "--id" => opts.id = Some(cur.value()?),
            "--tenant" => opts.tenant = Some(cur.value()?),
            "--delta" => opts.delta = Some(cur.integer()?),
            "--prefilter" => opts.prefilter = Some(cur.value()?),
            "--mapper" => opts.mapper = Some(cur.value()?),
            "--deadline" => {
                let deadline: f64 = cur.parsed("seconds")?;
                if !deadline.is_finite() || deadline < 0.0 {
                    return Err(cur.fail("must be non-negative"));
                }
                opts.deadline = Some(deadline);
            }
            "--priority" => opts.priority = Some(cur.integer()?),
            "--output" => opts.output = Some(cur.value()?),
            "--retry" => opts.retry = cur.integer()?,
            "--retry-base-ms" => opts.retry_base_ms = cur.parsed("milliseconds")?,
            "--shutdown" => opts.shutdown = true,
            _ => return Err(cur.unknown()),
        }
    }
    if !cur.saw("--socket") {
        return Err(ParseArgsError::new("--socket is required"));
    }
    if !opts.shutdown && opts.reads.is_none() {
        return Err(ParseArgsError::new("--reads is required (or --shutdown)"));
    }
    Ok(opts)
}

/// Runs `repute submit`: builds a job envelope from the FASTQ file,
/// sends it to a running daemon, and writes the returned SAM.
///
/// # Errors
///
/// [`ReputeError::Io`] when the daemon is unreachable;
/// [`ReputeError::Config`] (exit 2) when the daemon answers `REJECTED`
/// or `RETRY_LATER`, carrying the server's reason.
#[cfg(unix)]
pub fn run_submit(opts: &SubmitOptions) -> Result<(), ReputeError> {
    use repute_serve::transport;

    let socket = Path::new(&opts.socket);
    if opts.shutdown {
        transport::shutdown_over_socket(socket)?;
        eprintln!("shutdown requested on {:?}", opts.socket);
        return Ok(());
    }
    let reads_path = opts
        .reads
        .as_deref()
        .ok_or_else(|| ReputeError::Config("submit needs --reads (or --shutdown)".into()))?;
    let id = match &opts.id {
        Some(id) => id.clone(),
        None => Path::new(reads_path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("job")
            .to_string(),
    };
    let mut envelope = repute_serve::JobEnvelope::new(id, Vec::new());
    envelope.reads_path = Some(reads_path.to_string());
    if let Some(tenant) = &opts.tenant {
        envelope.tenant = tenant.clone();
    }
    envelope.delta = opts.delta;
    if let Some(prefilter) = &opts.prefilter {
        envelope.prefilter = Some(
            prefilter
                .parse()
                .map_err(|e| ReputeError::Config(format!("--prefilter: {e}")))?,
        );
    }
    if let Some(mapper) = &opts.mapper {
        envelope.mapper = Some(
            mapper
                .parse()
                .map_err(|e| ReputeError::Config(format!("--mapper: {e}")))?,
        );
    }
    envelope.deadline_s = opts.deadline;
    envelope.priority = opts.priority.unwrap_or(0);
    // Load the reads client-side so the daemon never depends on the
    // client's filesystem.
    repute_serve::resolve_reads(&mut envelope)?;
    let line = envelope.to_json_line();
    let mut attempt = 0u32;
    let response = loop {
        let responses = transport::submit_over_socket(socket, std::slice::from_ref(&line))?;
        let response = responses.into_iter().next().ok_or_else(|| {
            ReputeError::InputParse("server closed the connection without a response".into())
        })?;
        // RETRY_LATER is the daemon's back-pressure answer: the queue
        // was full at admission time. Bounded exponential backoff gives
        // the queue time to drain without hammering the socket.
        if response.status != repute_serve::JobStatus::RetryLater || attempt >= opts.retry {
            break response;
        }
        let delay_ms = opts.retry_base_ms.saturating_mul(1u64 << attempt.min(16));
        attempt += 1;
        eprintln!(
            "job {:?}: RETRY_LATER — retrying in {delay_ms} ms (attempt {attempt}/{})",
            response.id, opts.retry,
        );
        std::thread::sleep(std::time::Duration::from_millis(delay_ms));
    };
    match response.status {
        repute_serve::JobStatus::Ok => {
            eprintln!(
                "job {:?}: OK | {} read(s) | {} mapping(s) | batch {} | latency {:.6} s",
                response.id,
                response.reads,
                response.mappings,
                response.batch.unwrap_or(0),
                response.latency_s.unwrap_or(0.0),
            );
            let sam = response.sam.unwrap_or_default();
            crate::map::write_sam_output(opts.output.as_deref(), sam.as_bytes())
        }
        status => Err(ReputeError::Config(format!(
            "job {:?} answered {}: {}",
            response.id,
            status.as_str(),
            response.reason.unwrap_or_else(|| "no reason given".into()),
        ))),
    }
}

/// Non-Unix stub: the submit client needs Unix-domain sockets.
///
/// # Errors
///
/// Always returns [`ReputeError::Config`].
#[cfg(not(unix))]
pub fn run_submit(_opts: &SubmitOptions) -> Result<(), ReputeError> {
    Err(ReputeError::Config(
        "repute submit requires a Unix platform (Unix-domain sockets)".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use repute_core::ScheduleMode;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn serve_and_submit_args_validation() {
        let opts =
            parse_serve_args(args("--reference r.fa --socket s.sock --queue-capacity 8")).unwrap();
        assert_eq!(opts.serve.limits.queue_capacity, 8);
        assert_eq!(opts.serve.schedule, ScheduleMode::Dynamic);
        let opts = parse_serve_args(args(
            "--reference r.fa --spool jobs --once --tenant-weight acme=3 --tenant-weight lab=0.5",
        ))
        .unwrap();
        assert!(opts.once);
        assert_eq!(
            opts.serve.tenant_weights,
            vec![("acme".to_string(), 3.0), ("lab".to_string(), 0.5)]
        );
        // Transport is required, --once needs --spool, --resume needs
        // --journal, weights must be positive.
        assert!(parse_serve_args(args("--reference r.fa")).is_err());
        assert!(parse_serve_args(args("--reference r.fa --socket s --spool d")).is_err());
        assert!(parse_serve_args(args("--reference r.fa --socket s --once")).is_err());
        assert!(parse_serve_args(args("--reference r.fa --socket s --resume")).is_err());
        assert!(parse_serve_args(args("--reference r.fa --socket s --tenant-weight a=0")).is_err());
        assert!(parse_serve_args(args("--index i.rpx --index-cache c --socket s")).is_err());

        // Quota and compaction flags.
        let opts = parse_serve_args(args(
            "--reference r.fa --socket s.sock --tenant-quota acme=500 \
             --quota-window 30 --journal j.jnl --journal-compact-threshold 16",
        ))
        .unwrap();
        assert_eq!(opts.serve.tenant_quotas, vec![("acme".to_string(), 500)]);
        assert!((opts.serve.quota_window_s - 30.0).abs() < f64::EPSILON);
        assert_eq!(opts.serve.journal_compact_threshold, 16);
        assert!(parse_serve_args(args("--reference r.fa --socket s --tenant-quota a=0")).is_err());
        assert!(parse_serve_args(args("--reference r.fa --socket s --tenant-quota a")).is_err());
        assert!(parse_serve_args(args("--reference r.fa --socket s --quota-window -1")).is_err());
        // The compaction threshold is meaningless without a journal.
        assert!(parse_serve_args(args(
            "--reference r.fa --socket s --journal-compact-threshold 8"
        ))
        .is_err());

        let opts = parse_submit_args(args("--socket s.sock --reads r.fq --tenant acme")).unwrap();
        assert_eq!(opts.tenant.as_deref(), Some("acme"));
        let opts = parse_submit_args(args(
            "--socket s.sock --reads r.fq --deadline 2.5 --priority 7",
        ))
        .unwrap();
        assert_eq!(opts.deadline, Some(2.5));
        assert_eq!(opts.priority, Some(7));
        assert!(parse_submit_args(args("--socket s --reads r.fq --deadline -1")).is_err());
        assert!(parse_submit_args(args("--socket s --reads r.fq --priority x")).is_err());
        let opts = parse_submit_args(args("--socket s.sock --shutdown")).unwrap();
        assert!(opts.shutdown);
        assert!(parse_submit_args(args("--reads r.fq")).is_err());
        assert!(parse_submit_args(args("--socket s.sock")).is_err());
    }
}
