//! The `repute` command-line mapper.
//!
//! ```text
//! repute map --reference ref.fa --reads reads.fq --delta 5 [options] > out.sam
//! ```
//!
//! Reads a FASTA reference and a FASTQ read set, maps every read with the
//! REPUTE pipeline of [`repute_core`], and writes SAM (with CIGAR — the
//! §IV extension). The logic lives in this library so it can be tested;
//! `main.rs` is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

use repute_core::journal::Fnv64;
use repute_core::{
    write_atomic, Executor, MappingRun, ReputeConfig, ReputeMapper, RunFingerprint, Schedule,
    ScheduleMode, DEFAULT_MAX_RETRIES,
};
use repute_genome::DnaSeq;

pub use repute_core::ReputeError;
use repute_eval::sam;
use repute_genome::fasta::{read_fasta, AmbiguityPolicy};
use repute_genome::fastq::FastqReader;
use repute_mappers::multiref::ReferenceSet;
use repute_mappers::{
    bwamem::BwaMemLike, coral::CoralLike, gem::GemLike, hobbes3::Hobbes3Like, razers3::Razers3Like,
    yara::YaraLike, Mapper,
};
use repute_obs::{MapMetrics, RunReport, StageTimer};
use repute_prefilter::{qgram, PrefilterMode};

/// Which mapping strategy `repute map` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MapperChoice {
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

impl std::str::FromStr for MapperChoice {
    type Err = ParseArgsError;

    fn from_str(s: &str) -> Result<MapperChoice, ParseArgsError> {
        match s.to_ascii_lowercase().as_str() {
            "repute" => Ok(MapperChoice::Repute),
            "coral" => Ok(MapperChoice::Coral),
            "razers3" => Ok(MapperChoice::Razers3),
            "hobbes3" => Ok(MapperChoice::Hobbes3),
            "yara" => Ok(MapperChoice::Yara),
            "gem" => Ok(MapperChoice::Gem),
            "bwa-mem" | "bwamem" => Ok(MapperChoice::BwaMem),
            other => Err(ParseArgsError::new(format!(
                "unknown mapper {other:?} (repute, coral, razers3, hobbes3, yara, gem, bwa-mem)"
            ))),
        }
    }
}

/// Parsed command-line options for `repute map`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapOptions {
    /// Path to the FASTA reference (exclusive with `index`).
    pub reference: String,
    /// Path to a prebuilt index from `repute index` (exclusive with
    /// `reference`).
    pub index: Option<String>,
    /// Path of a fingerprint-validated serialized-index cache: load the
    /// FM-index from here when the stored fingerprint matches the
    /// reference FASTA bytes, else build it and save it back (requires
    /// `reference`; meaningless with `index`).
    pub index_cache: Option<String>,
    /// Path to the FASTQ reads.
    pub reads: String,
    /// Error budget δ.
    pub delta: u32,
    /// Minimum k-mer length `S_min`.
    pub s_min: usize,
    /// Output-slot limit per read.
    pub max_locations: usize,
    /// Output path; `None` writes to stdout.
    pub output: Option<String>,
    /// Emit CIGAR strings (slower; full DP traceback per mapping).
    pub cigar: bool,
    /// Which mapping strategy to run.
    pub mapper: MapperChoice,
    /// Pre-alignment filter stage of the repute mapper (sound: changes
    /// cost only, never output).
    pub prefilter: PrefilterMode,
    /// Q-gram length of the bin prefilter.
    pub prefilter_q: usize,
    /// Reference bin width (bases) of the bin prefilter.
    pub prefilter_bin: usize,
    /// Simulated platform to report time/energy for (`system1`,
    /// `system1-cpu`, `hikey970`); `None` skips the simulation report.
    pub platform: Option<String>,
    /// Multi-device scheduling policy of the platform simulation.
    pub schedule: ScheduleMode,
    /// Host-thread cap of the task-parallel executor (`0` = automatic).
    pub host_threads: usize,
    /// Fault-injection plan for the platform simulation (the
    /// [`repute_hetsim::FaultPlan`] spec syntax, e.g.
    /// `"transient:d0@0.1,loss:d2@0.5"`); requires `--platform`.
    pub fault_plan: Option<String>,
    /// Transient-fault retry budget per launch of the simulation.
    pub max_retries: usize,
    /// Path the telemetry JSON-lines are written to; `None` disables the
    /// export.
    pub metrics_out: Option<String>,
    /// Path the Chrome-tracing JSON (`chrome://tracing` /
    /// <https://ui.perfetto.dev>) span file is written to; requires
    /// `--platform` (spans live on the simulated timeline). `None`
    /// disables tracing entirely — the executor allocates nothing.
    pub trace_out: Option<String>,
    /// Per-read trace lines and the full run report on stderr.
    pub verbose: bool,
    /// Path of the crash-safe checkpoint journal (requires
    /// `--platform`); the run commits every finished batch durably and
    /// can be continued with `--resume` after an interruption.
    pub checkpoint: Option<String>,
    /// Replay the completed batches of an existing checkpoint journal
    /// instead of starting over.
    pub resume: bool,
    /// Manifest commit cadence of the checkpointed run, in batches.
    pub checkpoint_every: usize,
}

impl Default for MapOptions {
    fn default() -> Self {
        MapOptions {
            reference: String::new(),
            index: None,
            index_cache: None,
            reads: String::new(),
            delta: 5,
            s_min: 12,
            max_locations: 100,
            output: None,
            cigar: false,
            mapper: MapperChoice::default(),
            prefilter: PrefilterMode::None,
            prefilter_q: qgram::DEFAULT_Q,
            prefilter_bin: qgram::DEFAULT_BIN_WIDTH,
            platform: None,
            schedule: ScheduleMode::Static,
            host_threads: 0,
            fault_plan: None,
            max_retries: DEFAULT_MAX_RETRIES,
            metrics_out: None,
            trace_out: None,
            verbose: false,
            checkpoint: None,
            resume: false,
            checkpoint_every: 1,
        }
    }
}

/// Error for malformed command lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError {
    message: String,
}

impl ParseArgsError {
    fn new(message: impl Into<String>) -> ParseArgsError {
        ParseArgsError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n\n{}", self.message, USAGE)
    }
}

impl Error for ParseArgsError {}

/// Usage text shown on `--help` and argument errors.
pub const USAGE: &str = "\
repute — OpenCL-style heterogeneous short-read mapper (DATE 2020 reproduction)

USAGE:
    repute map      --reference <ref.fa> --reads <reads.fq> [OPTIONS]
    repute map      --index <ref.rpx>    --reads <reads.fq> [OPTIONS]
    repute index    --reference <ref.fa> --output <ref.rpx>
    repute simulate --out-dir <dir> [--length N] [--reads N] [--read-len N]
                    [--seed N] [--profile err012100|srr826460|perfect]
    repute serve    --reference <ref.fa> --socket <sock> [OPTIONS]
    repute serve    --reference <ref.fa> --spool <dir> --once [OPTIONS]
    repute submit   --socket <sock> --reads <reads.fq> [OPTIONS]
    repute stats    <metrics.jsonl> [more.jsonl ...] [--dir <dir>]
    repute trace    <trace.json>

MAP OPTIONS:
    --reference <path>       FASTA reference (multi-record supported)
    --index <path>           prebuilt index from `repute index`
    --index-cache <path>     fingerprint-validated serialized-index
                             cache: load the FM-index from here when it
                             matches the reference, else build and save
                             it back (requires --reference)
    --reads <path>           FASTQ reads (required)
    --delta <n>              error budget δ [default: 5]
    --s-min <n>              minimum k-mer length S_min [default: 12]
    --max-locations <n>      first-n output slots per read [default: 100]
    --output <path>          SAM output path [default: stdout]
    --cigar                  compute CIGAR strings (repute mapper only)
    --mapper <name>          repute | coral | razers3 | hobbes3 | yara |
                             gem | bwa-mem [default: repute]
    --prefilter <mode>       pre-alignment filtration before Myers
                             verification (repute mapper only):
                             none | shd | qgram | both [default: none]
    --prefilter-q <n>        q-gram length of the bin prefilter
                             [default: 5, max 8]
    --prefilter-bin <n>      reference bin width (bases) of the bin
                             prefilter [default: 512]
    --platform <name>        also report simulated time/energy on
                             system1 | system1-cpu | hikey970
    --schedule <mode>        multi-device scheduling of the platform
                             simulation: static (fixed per-device shares)
                             | dynamic (devices greedily pull batches)
                             [default: static]
    --host-threads <n>       cap the executor's host threads (1 = the
                             sequential host of earlier releases)
                             [default: automatic]
    --fault-plan <spec>      inject faults into the platform simulation
                             (requires --platform); comma-separated
                             events: loss:d<dev>@<t> |
                             transient:d<dev>@<t>[x<count>] |
                             slow:d<dev>@<t>x<factor> |
                             correlated:d<a>+d<b>+...@<t> |
                             crash:@<t> (host crash; requires
                             --checkpoint)  (times are simulated seconds)
    --max-retries <n>        transient-fault retry budget per launch of
                             the simulation [default: 2]
    --checkpoint <path>      crash-safe run journal (requires
                             --platform): every finished batch is
                             committed durably; an interrupted run is
                             continued with --resume, bit-identical to an
                             uninterrupted one
    --resume                 replay the completed batches of an existing
                             checkpoint journal and finish the rest
    --checkpoint-every <n>   manifest commit cadence of the checkpointed
                             run, in batches [default: 1]
    --metrics-out <path>     write per-read and run-level telemetry as
                             JSON-lines (inspect with `repute stats`)
    --trace-out <path>       write the simulated run's spans as Chrome
                             trace JSON (requires --platform); open in
                             chrome://tracing / ui.perfetto.dev or
                             summarize with `repute trace`
    -v, --verbose, --trace   per-read trace lines and the full run report
                             on stderr
    --help                   print this text

SERVE OPTIONS:
    --socket <path>          listen on a Unix-domain socket (newline-
                             delimited JSON job envelopes in, typed
                             responses out)
    --spool <dir>            watch a directory of *.json job files
                             instead; --once processes one pass and
                             exits (deterministic, for tests/CI)
    --journal <path>         crash-safe job journal: every accepted job
                             and every finished batch is committed
                             durably; restart with --resume to lose at
                             most one in-flight batch
    --resume                 replay a daemon journal: committed job
                             responses are served from the journal,
                             uncommitted jobs are requeued
    --queue-capacity <n>     admission-queue bound; a full queue answers
                             RETRY_LATER [default: 64]
    --max-reads-per-job <n>  reject jobs above this read count [default:
                             the platform's quarter-RAM batch cap]
    --max-delta <n>          reject per-job delta overrides above this
                             [default: 16]
    --tenant-weight <n=w>    weighted-fair dequeue weight of tenant n
                             (repeatable; unlisted tenants weigh 1.0)
    --tenant-quota <n=r>     sliding-window read budget of tenant n; an
                             exceeded budget answers QUOTA_EXCEEDED
                             (repeatable; unlisted tenants unbudgeted)
    --quota-window <s>       quota window length in simulated seconds
                             [default: 60]
    --journal-compact-threshold <n>
                             rewrite the journal down to live records
                             once n dead records accumulate (requires
                             --journal; 0 disables) [default: 0]
    --fault-plan <spec>      inject device faults into the daemon's
                             simulated platform (loss: | transient: |
                             slow: | correlated: events; crash:@<t> is
                             rejected — use --journal/--resume); lost
                             devices shrink the queue bound and read
                             cap, all-lost drains SERVICE_UNAVAILABLE
    --max-retries <n>        transient-fault retry budget of every
                             batch execution [default: 2]
    --shed-overdue           shed queued jobs whose deadline already
                             passed with DEADLINE_EXCEEDED instead of
                             running them late
    --serial-batches         run one batch at a time (disable the
                             concurrent same-config batch groups)
    --metrics-dir <dir>      per-job telemetry spool (one *.jsonl per
                             job; inspect with `repute stats --dir`)
    plus the map options: --index-cache, --delta, --s-min,
    --max-locations, --prefilter[-q|-bin], --schedule [default:
    dynamic], --host-threads, --metrics-out, --trace-out

SUBMIT OPTIONS:
    --socket <path>          the daemon's socket (required)
    --reads <path>           FASTQ reads, loaded client-side
    --id <name> / --tenant <name> / --delta <n> / --prefilter <mode> /
    --mapper <name>          job envelope fields
    --deadline <s>           relative deadline in simulated seconds;
                             deadline jobs dequeue earliest-first
    --priority <n>           intra-tenant priority (higher first)
    --output <path>          SAM output path [default: stdout]
    --retry <n>              resubmit up to n times on RETRY_LATER with
                             exponential backoff [default: 0]
    --retry-base-ms <ms>     base backoff delay, doubled per attempt
                             [default: 100]
    --shutdown               drain the daemon and stop it

STATS OPTIONS:
    --dir <dir>              also read every *.jsonl file in <dir>
                             (name-sorted); counters merge and latency
                             samples pool across all inputs
    --strict                 error on the first malformed JSON line
                             instead of skipping it with a warning

TRACE OPTIONS:
    (none)                   `repute trace <trace.json>` summarizes a
                             --trace-out file: events, per-process span
                             totals, per-category latency percentiles

EXIT CODES:
    0 success | 2 configuration | 3 input parse | 4 i/o
    5 journal corrupt | 6 resume mismatch | 7 device loss
    8 interrupted by a simulated host crash (continue with --resume)";

/// Parses `repute map` arguments (everything after the subcommand).
///
/// # Errors
///
/// Returns [`ParseArgsError`] for unknown flags, missing values, or
/// missing required options.
pub fn parse_map_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<MapOptions, ParseArgsError> {
    let mut opts = MapOptions::default();
    let mut args = args.into_iter();
    let mut have_reference = false;
    let mut have_reads = false;
    let mut have_checkpoint_every = false;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| ParseArgsError::new(format!("{name} expects a value")))
        };
        match arg.as_str() {
            "--reference" => {
                opts.reference = value("--reference")?;
                have_reference = true;
            }
            "--index" => {
                opts.index = Some(value("--index")?);
                have_reference = true;
            }
            "--index-cache" => opts.index_cache = Some(value("--index-cache")?),
            "--reads" => {
                opts.reads = value("--reads")?;
                have_reads = true;
            }
            "--delta" => {
                opts.delta = value("--delta")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--delta expects an integer"))?;
            }
            "--s-min" => {
                opts.s_min = value("--s-min")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--s-min expects an integer"))?;
            }
            "--max-locations" => {
                opts.max_locations = value("--max-locations")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--max-locations expects an integer"))?;
                if opts.max_locations == 0 {
                    return Err(ParseArgsError::new("--max-locations must be positive"));
                }
            }
            "--output" => opts.output = Some(value("--output")?),
            "--cigar" => opts.cigar = true,
            "--mapper" => opts.mapper = value("--mapper")?.parse()?,
            "--prefilter" => {
                opts.prefilter = value("--prefilter")?
                    .parse()
                    .map_err(|e| ParseArgsError::new(format!("--prefilter: {e}")))?;
            }
            "--prefilter-q" => {
                opts.prefilter_q = value("--prefilter-q")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--prefilter-q expects an integer"))?;
                if opts.prefilter_q == 0 || opts.prefilter_q > qgram::MAX_Q {
                    return Err(ParseArgsError::new(format!(
                        "--prefilter-q must be in 1..={}",
                        qgram::MAX_Q
                    )));
                }
            }
            "--prefilter-bin" => {
                opts.prefilter_bin = value("--prefilter-bin")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--prefilter-bin expects an integer"))?;
                if opts.prefilter_bin == 0 {
                    return Err(ParseArgsError::new("--prefilter-bin must be positive"));
                }
            }
            "--platform" => opts.platform = Some(value("--platform")?),
            "--schedule" => {
                let mode = value("--schedule")?;
                opts.schedule = ScheduleMode::parse(&mode).ok_or_else(|| {
                    ParseArgsError::new(format!("unknown schedule {mode:?} (static, dynamic)"))
                })?;
            }
            "--host-threads" => {
                opts.host_threads = value("--host-threads")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--host-threads expects an integer"))?;
                if opts.host_threads == 0 {
                    return Err(ParseArgsError::new(
                        "--host-threads must be positive (omit the flag for automatic)",
                    ));
                }
            }
            "--fault-plan" => {
                let spec = value("--fault-plan")?;
                repute_hetsim::FaultPlan::parse(&spec)
                    .map_err(|e| ParseArgsError::new(format!("--fault-plan: {e}")))?;
                opts.fault_plan = Some(spec);
            }
            "--max-retries" => {
                opts.max_retries = value("--max-retries")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--max-retries expects an integer"))?;
            }
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")?),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--checkpoint" => opts.checkpoint = Some(value("--checkpoint")?),
            "--resume" => opts.resume = true,
            "--checkpoint-every" => {
                opts.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--checkpoint-every expects an integer"))?;
                if opts.checkpoint_every == 0 {
                    return Err(ParseArgsError::new("--checkpoint-every must be positive"));
                }
                have_checkpoint_every = true;
            }
            "-v" | "--verbose" | "--trace" => opts.verbose = true,
            "--help" | "-h" => return Err(ParseArgsError::new("help requested")),
            other => return Err(ParseArgsError::new(format!("unknown option {other:?}"))),
        }
    }
    if opts.fault_plan.is_some() && opts.platform.is_none() {
        return Err(ParseArgsError::new(
            "--fault-plan requires --platform (faults live in the simulation)",
        ));
    }
    if opts.trace_out.is_some() && opts.platform.is_none() {
        return Err(ParseArgsError::new(
            "--trace-out requires --platform (spans live on the simulated timeline)",
        ));
    }
    if opts.checkpoint.is_some() && opts.platform.is_none() {
        return Err(ParseArgsError::new(
            "--checkpoint requires --platform (the journal is batch-granular \
             over the simulated schedule)",
        ));
    }
    if opts.resume && opts.checkpoint.is_none() {
        return Err(ParseArgsError::new("--resume requires --checkpoint"));
    }
    if have_checkpoint_every && opts.checkpoint.is_none() {
        return Err(ParseArgsError::new(
            "--checkpoint-every requires --checkpoint",
        ));
    }
    if opts.checkpoint.is_some() && opts.cigar {
        return Err(ParseArgsError::new(
            "--cigar is incompatible with --checkpoint (CIGAR traceback is \
             per-read, the journal is per-batch)",
        ));
    }
    if let Some(spec) = &opts.fault_plan {
        // The spec already parsed above; re-parse to classify its events.
        if let Ok(plan) = repute_hetsim::FaultPlan::parse(spec) {
            if plan.host_crash_at().is_some() && opts.checkpoint.is_none() {
                return Err(ParseArgsError::new(
                    "crash:@<t> events require --checkpoint (only a journaled \
                     run can survive a host crash)",
                ));
            }
            if opts.checkpoint.is_some() && plan.has_device_events() {
                return Err(ParseArgsError::new(
                    "checkpointed runs accept crash:@<t> fault events only \
                     (device faults would make the journaled timeline \
                     irreproducible)",
                ));
            }
        }
    }
    if opts.cigar && opts.mapper != MapperChoice::Repute {
        return Err(ParseArgsError::new("--cigar requires the repute mapper"));
    }
    if opts.prefilter != PrefilterMode::None && opts.mapper != MapperChoice::Repute {
        return Err(ParseArgsError::new(
            "--prefilter requires the repute mapper",
        ));
    }
    if !have_reference {
        return Err(ParseArgsError::new("--reference or --index is required"));
    }
    if opts.index.is_some() && !opts.reference.is_empty() {
        return Err(ParseArgsError::new(
            "--reference and --index are mutually exclusive",
        ));
    }
    if opts.index_cache.is_some() && opts.index.is_some() {
        return Err(ParseArgsError::new(
            "--index-cache requires --reference (a prebuilt --index is \
             already the cache)",
        ));
    }
    if !have_reads {
        return Err(ParseArgsError::new("--reads is required"));
    }
    Ok(opts)
}

/// Parsed command-line options for `repute index`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IndexOptions {
    /// Path to the FASTA reference.
    pub reference: String,
    /// Output path for the binary index.
    pub output: String,
}

/// Parses `repute index` arguments.
///
/// # Errors
///
/// Returns [`ParseArgsError`] for unknown flags or missing options.
pub fn parse_index_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<IndexOptions, ParseArgsError> {
    let mut opts = IndexOptions::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| ParseArgsError::new(format!("{name} expects a value")))
        };
        match arg.as_str() {
            "--reference" => opts.reference = value("--reference")?,
            "--output" => opts.output = value("--output")?,
            "--help" | "-h" => return Err(ParseArgsError::new("help requested")),
            other => return Err(ParseArgsError::new(format!("unknown option {other:?}"))),
        }
    }
    if opts.reference.is_empty() {
        return Err(ParseArgsError::new("--reference is required"));
    }
    if opts.output.is_empty() {
        return Err(ParseArgsError::new("--output is required"));
    }
    Ok(opts)
}

/// Parsed command-line options for `repute simulate`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulateOptions {
    /// Directory the FASTA/FASTQ/truth files are written into.
    pub out_dir: String,
    /// Reference length in bases.
    pub length: usize,
    /// Number of reads.
    pub reads: usize,
    /// Read length in bases.
    pub read_len: usize,
    /// RNG seed.
    pub seed: u64,
    /// Error profile name.
    pub profile: String,
}

impl Default for SimulateOptions {
    fn default() -> Self {
        SimulateOptions {
            out_dir: String::new(),
            length: 1_000_000,
            reads: 10_000,
            read_len: 100,
            seed: 42,
            profile: "err012100".into(),
        }
    }
}

/// Parses `repute simulate` arguments.
///
/// # Errors
///
/// Returns [`ParseArgsError`] for unknown flags or missing options.
pub fn parse_simulate_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<SimulateOptions, ParseArgsError> {
    let mut opts = SimulateOptions::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| ParseArgsError::new(format!("{name} expects a value")))
        };
        let int = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| ParseArgsError::new(format!("{name} expects an integer")))
        };
        match arg.as_str() {
            "--out-dir" => opts.out_dir = value("--out-dir")?,
            "--length" => opts.length = int("--length", value("--length")?)? as usize,
            "--reads" => opts.reads = int("--reads", value("--reads")?)? as usize,
            "--read-len" => opts.read_len = int("--read-len", value("--read-len")?)? as usize,
            "--seed" => opts.seed = int("--seed", value("--seed")?)?,
            "--profile" => opts.profile = value("--profile")?,
            "--help" | "-h" => return Err(ParseArgsError::new("help requested")),
            other => return Err(ParseArgsError::new(format!("unknown option {other:?}"))),
        }
    }
    if opts.out_dir.is_empty() {
        return Err(ParseArgsError::new("--out-dir is required"));
    }
    if !matches!(opts.profile.as_str(), "err012100" | "srr826460" | "perfect") {
        return Err(ParseArgsError::new(format!(
            "unknown profile {:?} (err012100, srr826460, perfect)",
            opts.profile
        )));
    }
    Ok(opts)
}

/// Runs `repute simulate`: writes `reference.fa`, `reads.fq` and
/// `truth.tsv` into the output directory.
///
/// # Errors
///
/// Propagates I/O and generation errors.
pub fn run_simulate(opts: &SimulateOptions) -> Result<(), ReputeError> {
    use repute_genome::fasta::{write_fasta, FastaRecord};
    use repute_genome::fastq::write_fastq;
    use repute_genome::reads::{ErrorProfile, ReadSimulator};
    use repute_genome::synth::ReferenceBuilder;

    let dir = std::path::Path::new(&opts.out_dir);
    std::fs::create_dir_all(dir).map_err(|e| ReputeError::io_at(dir, e))?;
    eprintln!("generating a {} bp reference…", opts.length);
    let reference = ReferenceBuilder::new(opts.length).seed(opts.seed).build();
    let profile = match opts.profile.as_str() {
        "err012100" => ErrorProfile::err012100(),
        "srr826460" => ErrorProfile::srr826460(),
        _ => ErrorProfile::perfect(),
    };
    let sim = ReadSimulator::new(opts.read_len, opts.reads)
        .profile(profile)
        .seed(opts.seed ^ 0x5EED);
    let records = sim.simulate_fastq(&reference);

    let fa = File::create(dir.join("reference.fa"))?;
    write_fasta(
        BufWriter::new(fa),
        &[FastaRecord::new("chrSim", reference)],
        70,
    )?;
    let fq = File::create(dir.join("reads.fq"))?;
    write_fastq(
        BufWriter::new(fq),
        &records.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>(),
    )?;
    let mut truth = BufWriter::new(File::create(dir.join("truth.tsv"))?);
    writeln!(truth, "read	strand	position	edits")?;
    for (record, origin) in &records {
        match origin {
            Some(o) => writeln!(
                truth,
                "{}	{}	{}	{}",
                record.id,
                o.strand.symbol(),
                o.position,
                o.edits
            )?,
            None => writeln!(truth, "{}	*	*	*", record.id)?,
        }
    }
    truth.flush()?;
    eprintln!(
        "wrote reference.fa ({} bp), reads.fq ({} reads), truth.tsv into {:?}",
        opts.length, opts.reads, opts.out_dir
    );
    Ok(())
}

fn load_reference_set(opts: &MapOptions) -> Result<ReferenceSet, ReputeError> {
    if let Some(index_path) = &opts.index {
        let path = Path::new(index_path);
        let file = File::open(path).map_err(|e| ReputeError::io_at(path, e))?;
        eprintln!("loading prebuilt index {index_path:?}…");
        return ReferenceSet::read_from(BufReader::new(file)).map_err(|e| {
            if e.kind() == std::io::ErrorKind::InvalidData {
                ReputeError::InputParse(format!("index {index_path:?}: {e}"))
            } else {
                ReputeError::io_at(path, e)
            }
        });
    }
    let path = Path::new(&opts.reference);
    let source = std::fs::read(path).map_err(|e| ReputeError::io_at(path, e))?;
    if let Some(cache) = &opts.index_cache {
        if let Some(set) = try_load_index_cache(cache, &source) {
            eprintln!("index cache hit: loaded {cache:?} (fingerprint matches the reference)");
            return Ok(set);
        }
    }
    let records = read_fasta(source.as_slice(), AmbiguityPolicy::Randomize(0))?;
    if records.is_empty() {
        return Err(ReputeError::InputParse(
            "reference FASTA contains no sequence".into(),
        ));
    }
    let total: usize = records.iter().map(|r| r.seq.len()).sum();
    eprintln!("indexing {} record(s), {total} bp…", records.len());
    let set = ReferenceSet::build(records.into_iter().map(|r| (r.id, r.seq)).collect());
    if let Some(cache) = &opts.index_cache {
        save_index_cache(cache, &source, &set)?;
        eprintln!("index cache miss: rebuilt the index and saved it to {cache:?}");
    }
    Ok(set)
}

/// Magic prefix of an `--index-cache` file; followed by the FNV-64
/// fingerprint of the reference FASTA bytes (little-endian) and the
/// serialized [`ReferenceSet`].
const INDEX_CACHE_MAGIC: &[u8; 4] = b"RPXC";

/// FNV-64 over the raw reference FASTA bytes — the validity condition of
/// a cached index.
fn index_cache_fingerprint(source: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(source);
    h.finish()
}

/// Loads a cached index when the magic and fingerprint match `source`.
/// Any mismatch, corruption, or absence returns `None`: a stale cache is
/// never an error, just a rebuild.
fn try_load_index_cache(cache: &str, source: &[u8]) -> Option<ReferenceSet> {
    let bytes = std::fs::read(cache).ok()?;
    if bytes.len() < 12 || &bytes[..4] != INDEX_CACHE_MAGIC {
        return None;
    }
    let stored = u64::from_le_bytes(bytes[4..12].try_into().ok()?);
    if stored != index_cache_fingerprint(source) {
        return None;
    }
    ReferenceSet::read_from(&bytes[12..]).ok()
}

/// Atomically writes `set` to the cache path, stamped with the
/// fingerprint of the reference bytes it was built from.
fn save_index_cache(cache: &str, source: &[u8], set: &ReferenceSet) -> Result<(), ReputeError> {
    let cache_path = Path::new(cache);
    let mut bytes = Vec::new();
    bytes.extend_from_slice(INDEX_CACHE_MAGIC);
    bytes.extend_from_slice(&index_cache_fingerprint(source).to_le_bytes());
    set.write_to(&mut bytes)
        .map_err(|e| ReputeError::io_at(cache_path, e))?;
    write_atomic(cache_path, &bytes)
}

/// Runs `repute index`: builds the reference set and writes the binary
/// index.
///
/// # Errors
///
/// Propagates I/O, format and construction errors.
pub fn run_index(opts: &IndexOptions) -> Result<(), ReputeError> {
    let set = load_reference_set(&MapOptions {
        reference: opts.reference.clone(),
        ..MapOptions::default()
    })?;
    let out_path = Path::new(&opts.output);
    let out = File::create(out_path).map_err(|e| ReputeError::io_at(out_path, e))?;
    set.write_to(BufWriter::new(out))
        .map_err(|e| ReputeError::io_at(out_path, e))?;
    eprintln!(
        "wrote index for {} record(s) to {:?}",
        set.records().len(),
        opts.output
    );
    Ok(())
}

/// The mapping configuration an option set selects.
fn build_config(opts: &MapOptions) -> Result<ReputeConfig, ReputeError> {
    Ok(ReputeConfig::new(opts.delta, opts.s_min)
        .map_err(|e| ReputeError::Config(e.to_string()))?
        .with_max_locations(opts.max_locations)
        .with_prefilter(opts.prefilter)
        .with_prefilter_qgram(opts.prefilter_q, opts.prefilter_bin)
        .with_schedule(opts.schedule)
        .with_host_threads(opts.host_threads)
        .with_max_retries(opts.max_retries))
}

/// The baseline mapper an option set selects (`None` = repute itself).
fn build_baseline(opts: &MapOptions, set: &ReferenceSet) -> Option<Box<dyn Mapper>> {
    match opts.mapper {
        MapperChoice::Repute => None,
        MapperChoice::Coral => Some(Box::new(
            CoralLike::new(Arc::clone(set.indexed()), opts.delta)
                .with_s_min(opts.s_min)
                .with_max_locations(opts.max_locations),
        )),
        MapperChoice::Razers3 => Some(Box::new(
            Razers3Like::new(Arc::clone(set.indexed()), opts.delta)
                .with_max_locations(opts.max_locations),
        )),
        MapperChoice::Hobbes3 => Some(Box::new(
            Hobbes3Like::new(Arc::clone(set.indexed()), opts.delta)
                .with_max_locations(opts.max_locations),
        )),
        MapperChoice::Yara => Some(Box::new(
            YaraLike::new(Arc::clone(set.indexed()), opts.delta)
                .with_max_locations(opts.max_locations),
        )),
        MapperChoice::Gem => Some(Box::new(
            GemLike::new(Arc::clone(set.indexed()), opts.delta)
                .with_max_locations(opts.max_locations),
        )),
        MapperChoice::BwaMem => Some(Box::new(
            BwaMemLike::new(Arc::clone(set.indexed())).with_max_locations(opts.max_locations),
        )),
    }
}

/// Routes assembled SAM bytes to their destination: an atomic
/// write-then-rename for a file path, a plain stream for stdout.
fn write_sam_output(path: Option<&str>, sam: &[u8]) -> Result<(), ReputeError> {
    match path {
        Some(p) => write_atomic(Path::new(p), sam),
        None => {
            let mut out = std::io::stdout().lock();
            out.write_all(sam)?;
            out.flush()?;
            Ok(())
        }
    }
}

/// A run's SAM, assembled in memory and committed in one atomic rename
/// so an interrupted run never leaves a torn output file behind, with
/// the counts `repute map` reports.
struct SamAssembly<'a> {
    set: &'a ReferenceSet,
    names: Vec<&'a str>,
    out: Vec<u8>,
    reads_mapped: usize,
    total_mappings: usize,
    per_read: Vec<Vec<repute_mappers::Mapping>>,
}

impl<'a> SamAssembly<'a> {
    /// Starts the SAM with the header of `set`'s records.
    fn new(set: &'a ReferenceSet) -> Result<SamAssembly<'a>, ReputeError> {
        let header: Vec<(&str, usize)> = set
            .records()
            .iter()
            .map(|(n, l)| (n.as_str(), *l))
            .collect();
        let mut out: Vec<u8> = Vec::new();
        sam::write_header_multi(&mut out, &header)?;
        Ok(SamAssembly {
            set,
            names: header.iter().map(|(n, _)| *n).collect(),
            out,
            reads_mapped: 0,
            total_mappings: 0,
            per_read: Vec::new(),
        })
    }

    /// Appends one read's record(s): `raw` mappings on the concatenated
    /// index are resolved to the named records first; `first` carries
    /// the CIGAR of the first of them under `--cigar`.
    fn push(
        &mut self,
        id: &str,
        seq: &DnaSeq,
        raw: &[repute_mappers::Mapping],
        first: Option<&repute_core::CigarMapping>,
    ) -> Result<(), ReputeError> {
        let resolved = self.set.resolve_mappings(seq.len(), raw);
        if !resolved.is_empty() {
            self.reads_mapped += 1;
            self.total_mappings += resolved.len();
        }
        self.per_read.push(
            resolved
                .iter()
                .map(|r| repute_mappers::Mapping {
                    position: r.position,
                    strand: r.strand,
                    distance: r.distance,
                })
                .collect(),
        );
        let cigar = first.map(|d| &d.cigar);
        sam::write_resolved_record(&mut self.out, &self.names, id, seq, &resolved, cigar)?;
        Ok(())
    }

    /// Prints the mapping statistics; returns
    /// `(reads_mapped, mappings_reported)`.
    fn print_stats(&self) -> (usize, usize) {
        let stats =
            repute_eval::stats::MappingStats::collect(self.per_read.iter().map(|v| v.as_slice()));
        eprint!("{stats}");
        (self.reads_mapped, self.total_mappings)
    }
}

/// Loads a FASTQ file whole: read ids and sequences, in file order.
fn load_reads(path: &str) -> Result<(Vec<String>, Vec<DnaSeq>), ReputeError> {
    let path = Path::new(path);
    let file = File::open(path).map_err(|e| ReputeError::io_at(path, e))?;
    let mut ids = Vec::new();
    let mut reads = Vec::new();
    for record in FastqReader::new(BufReader::new(file)) {
        let record = record?;
        ids.push(record.id);
        reads.push(record.seq);
    }
    Ok((ids, reads))
}

/// Prints the §III-D style time/energy summary of a simulated run.
fn print_simulated_summary(
    platform: &repute_hetsim::Platform,
    config: &ReputeConfig,
    run: &MappingRun,
) {
    eprintln!(
        "simulated on {} ({} schedule): {:.3} s | {:.1} W avg | {:.3} J above idle",
        platform.name(),
        config.schedule(),
        run.simulated_seconds,
        run.energy.average_power_w,
        run.energy.energy_j
    );
}

/// Runs `repute map`, writing SAM to the configured output.
///
/// Returns `(reads_mapped, mappings_reported)`.
///
/// # Errors
///
/// Propagates I/O, format and configuration errors, each carrying the
/// distinct exit code of its [`ReputeError`] class.
pub fn run_map(opts: &MapOptions) -> Result<(usize, usize), ReputeError> {
    if opts.checkpoint.is_some() {
        return run_map_checkpointed(opts);
    }
    // Fail fast on an unknown platform: the simulated replay only runs
    // after mapping, and a late configuration error must not come after
    // SAM has already been emitted.
    if let Some(name) = opts.platform.as_deref() {
        platform_by_name(name)?;
    }
    let run_started = std::time::Instant::now();
    let mut timer = StageTimer::new();
    timer.start("load");
    let set = load_reference_set(opts)?;
    timer.stop();
    let config = build_config(opts)?;
    let repute = ReputeMapper::new(Arc::clone(set.indexed()), config);
    let baseline = build_baseline(opts, &set);

    let reads_path = Path::new(&opts.reads);
    let reads_file = File::open(reads_path).map_err(|e| ReputeError::io_at(reads_path, e))?;
    let mut sam = SamAssembly::new(&set)?;
    let mut per_read_metrics: Vec<MapMetrics> = Vec::new();
    timer.start("map");
    for record in FastqReader::new(BufReader::new(reads_file)) {
        let record = record?;
        let mut read_metrics = MapMetrics::new();
        let (raw, first) = if opts.cigar {
            // The CIGAR path only backfills the coarse counters
            // observable from its output (the traceback re-runs the
            // kernel internally, so full metering would double-count).
            let (out, detailed) = repute.map_read_with_cigars(&record.seq);
            read_metrics.candidates_merged += out.candidates;
            read_metrics.hits += out.mappings.len() as u64;
            let raw: Vec<_> = detailed.iter().map(|d| d.mapping).collect();
            (raw, detailed.into_iter().next())
        } else {
            let mappings = match &baseline {
                Some(mapper) => {
                    mapper
                        .map_read_metered(&record.seq, &mut read_metrics)
                        .mappings
                }
                None => {
                    repute
                        .map_read_metered(&record.seq, &mut read_metrics)
                        .mappings
                }
            };
            (mappings, None)
        };
        if opts.verbose {
            eprintln!(
                "trace {}: {} mappings | {} seeds | {} candidates ({} raw) | {} DP cells | {} word updates",
                record.id,
                raw.len(),
                read_metrics.seeds_selected,
                read_metrics.candidates_merged,
                read_metrics.candidates_raw,
                read_metrics.dp_cells,
                read_metrics.word_updates,
            );
        }
        per_read_metrics.push(read_metrics);
        sam.push(&record.id, &record.seq, &raw, first.as_ref())?;
    }
    write_sam_output(opts.output.as_deref(), &sam.out)?;
    timer.stop();
    let counts = sam.print_stats();

    let sim = match &opts.platform {
        Some(platform_name) => {
            timer.start("simulate");
            let sim = simulate_platform(platform_name, opts, &repute, baseline.as_deref());
            timer.stop();
            Some(sim?)
        }
        None => None,
    };
    if opts.verbose {
        if let Some((report, _)) = &sim {
            eprint!("{}", report.render());
        }
    }
    if let Some(path) = &opts.metrics_out {
        write_metrics_file(
            path,
            timer.stages(),
            run_started.elapsed().as_secs_f64(),
            &per_read_metrics,
            sim,
        )?;
        eprintln!("wrote telemetry to {path:?} (inspect with `repute stats`)");
    }
    Ok(counts)
}

/// Resolves a `--platform` name to its simulated device profile.
fn platform_by_name(name: &str) -> Result<repute_hetsim::Platform, ReputeError> {
    use repute_hetsim::profiles;
    match name {
        "system1" => Ok(profiles::system1()),
        "system1-cpu" => Ok(profiles::system1_cpu_only()),
        "hikey970" => Ok(profiles::system2_hikey970()),
        other => Err(ReputeError::Config(format!("unknown platform {other:?}"))),
    }
}

/// Parses the `--fault-plan` spec (empty plan when absent).
fn parse_fault_plan(opts: &MapOptions) -> Result<repute_hetsim::FaultPlan, ReputeError> {
    match &opts.fault_plan {
        Some(spec) => repute_hetsim::FaultPlan::parse(spec)
            .map_err(|e| ReputeError::Config(format!("--fault-plan: {e}"))),
        None => Ok(repute_hetsim::FaultPlan::new()),
    }
}

/// The config/workload identity of a checkpointed run.
///
/// The config half folds every option that can change mapping output or
/// batch shape; the workload half folds the reference source bytes, the
/// indexed record table, and every read id and sequence. A `--resume`
/// under any difference is refused with [`ReputeError::ResumeMismatch`]
/// before any mapping work happens (the batch *shape* is fingerprinted
/// separately by the resumable executor itself).
fn run_fingerprint(
    opts: &MapOptions,
    platform_name: &str,
    set: &ReferenceSet,
    ids: &[String],
    reads: &[DnaSeq],
) -> Result<RunFingerprint, ReputeError> {
    let mut cfg = Fnv64::new();
    cfg.write_u64(u64::from(opts.delta));
    cfg.write_u64(opts.s_min as u64);
    cfg.write_u64(opts.max_locations as u64);
    cfg.write_u64(match opts.prefilter {
        PrefilterMode::None => 0,
        PrefilterMode::Shd => 1,
        PrefilterMode::Qgram => 2,
        PrefilterMode::Both => 3,
    });
    cfg.write_u64(opts.prefilter_q as u64);
    cfg.write_u64(opts.prefilter_bin as u64);
    cfg.write_u64(match opts.schedule {
        ScheduleMode::Static => 0,
        ScheduleMode::Dynamic => 1,
    });
    cfg.write_u64(opts.mapper as u64);
    cfg.write(platform_name.as_bytes());

    let mut wl = Fnv64::new();
    let ref_source = opts.index.as_ref().unwrap_or(&opts.reference);
    let source_path = Path::new(ref_source.as_str());
    let source_bytes =
        std::fs::read(source_path).map_err(|e| ReputeError::io_at(source_path, e))?;
    wl.write(&source_bytes);
    for (name, len) in set.records() {
        wl.write(name.as_bytes());
        wl.write_u64(*len as u64);
    }
    wl.write_u64(reads.len() as u64);
    for (id, seq) in ids.iter().zip(reads) {
        wl.write(id.as_bytes());
        wl.write(seq.to_string().as_bytes());
    }
    Ok(RunFingerprint::new(cfg.finish(), wl.finish()))
}

/// Runs `repute map --checkpoint`: the platform simulation goes through
/// the crash-safe resumable executor, which commits every finished batch
/// to the journal; SAM and telemetry are then assembled from the
/// (possibly partially replayed) run, bit-identical to an uninterrupted
/// `--platform` run.
fn run_map_checkpointed(opts: &MapOptions) -> Result<(usize, usize), ReputeError> {
    let journal = opts.checkpoint.as_deref().ok_or_else(|| {
        ReputeError::Config("checkpointed mapping requires a journal path".into())
    })?;
    let platform_name = opts
        .platform
        .as_deref()
        .ok_or_else(|| ReputeError::Config("--checkpoint requires --platform".into()))?;
    if opts.cigar {
        return Err(ReputeError::Config(
            "--cigar is incompatible with --checkpoint (CIGAR traceback is \
             per-read, the journal is per-batch)"
                .into(),
        ));
    }
    let platform = platform_by_name(platform_name)?;
    let run_started = std::time::Instant::now();
    let mut timer = StageTimer::new();
    timer.start("load");
    let set = load_reference_set(opts)?;
    let (ids, reads) = load_reads(&opts.reads)?;
    timer.stop();

    let config = build_config(opts)?;
    let repute = ReputeMapper::new(Arc::clone(set.indexed()), config);
    let baseline = build_baseline(opts, &set);
    let config = repute.config();
    let schedule = Schedule::for_config(config, &platform, reads.len());
    let plan = parse_fault_plan(opts)?;
    if plan.has_device_events() {
        return Err(ReputeError::Config(
            "checkpointed runs accept crash:@<t> fault events only (device \
             faults would make the journaled timeline irreproducible)"
                .into(),
        ));
    }

    let fingerprint = run_fingerprint(opts, platform_name, &set, &ids, &reads)?;
    let journal_path = Path::new(journal);
    if journal_path.exists() && !opts.resume {
        return Err(ReputeError::Config(format!(
            "checkpoint journal {journal:?} already exists; pass --resume to \
             continue it, or delete it to start over"
        )));
    }
    if !journal_path.exists() && opts.resume {
        return Err(ReputeError::Config(format!(
            "cannot resume: checkpoint journal {journal:?} does not exist"
        )));
    }

    timer.start("map");
    let mapper: &dyn Mapper = baseline.as_deref().unwrap_or(&repute);
    let executor = Executor {
        host_threads: config.host_threads(),
        faults: plan,
        tracing: opts.trace_out.is_some(),
        ..Executor::new(schedule)
    };
    let outcome = executor.run_journaled(
        &mapper,
        &platform,
        &reads,
        journal_path,
        fingerprint,
        opts.checkpoint_every,
    )?;
    timer.stop();
    if let Some(path) = &opts.trace_out {
        write_trace_file(path, &platform, &outcome.run.trace)?;
        eprintln!("wrote span trace to {path:?} (open in chrome://tracing, or `repute trace`)");
    }
    print_simulated_summary(&platform, config, &outcome.run);
    if outcome.resumed_batches > 0 {
        eprintln!(
            "resumed from checkpoint: {}/{} batch(es) replayed from the journal",
            outcome.resumed_batches, outcome.total_batches
        );
    }

    // Assemble the SAM exactly as the streaming path would have: the
    // executor returns outputs in read order.
    let mut sam = SamAssembly::new(&set)?;
    for ((id, seq), mapped) in ids.iter().zip(&reads).zip(&outcome.run.outputs) {
        sam.push(id, seq, &mapped.mappings, None)?;
    }
    write_sam_output(opts.output.as_deref(), &sam.out)?;
    let counts = sam.print_stats();

    let mut report = outcome.run.report(&platform, &outcome.metrics);
    report.resumed_batches = outcome.resumed_batches as u64;
    if opts.verbose {
        eprint!("{}", report.render());
    }
    if let Some(path) = &opts.metrics_out {
        write_metrics_file(
            path,
            timer.stages(),
            run_started.elapsed().as_secs_f64(),
            &outcome.metrics,
            Some((report, outcome.metrics.clone())),
        )?;
        eprintln!("wrote telemetry to {path:?} (inspect with `repute stats`)");
    }
    Ok(counts)
}

/// Re-runs the mapping through the heterogeneous platform simulator,
/// prints the §III-D style time/energy summary, and returns the run-level
/// report with the per-read records of the simulated run.
fn simulate_platform(
    platform_name: &str,
    opts: &MapOptions,
    repute: &ReputeMapper,
    baseline: Option<&dyn Mapper>,
) -> Result<(RunReport, Vec<MapMetrics>), ReputeError> {
    let platform = platform_by_name(platform_name)?;
    // Reload the reads (the SAM pass consumed the reader).
    let (_, reads) = load_reads(&opts.reads)?;
    // The schedule and host-thread cap travel in the mapper's config
    // (`--schedule` / `--host-threads`); output is identical across
    // schedules, only the simulated timeline differs. A `--fault-plan`
    // routes through the fault-aware executor: whenever at least one
    // device survives, the mapping output is still bit-identical.
    let config = repute.config();
    let mapper: &dyn Mapper = baseline.unwrap_or(repute);
    let executor = Executor {
        host_threads: config.host_threads(),
        faults: parse_fault_plan(opts)?,
        max_retries: config.max_retries(),
        tracing: opts.trace_out.is_some(),
        ..Executor::new(Schedule::for_config(config, &platform, reads.len()))
    };
    let (run, metrics) = executor.run(&mapper, &platform, &reads)?;
    if let Some(path) = &opts.trace_out {
        write_trace_file(path, &platform, &run.trace)?;
        eprintln!("wrote span trace to {path:?} (open in chrome://tracing, or `repute trace`)");
    }
    print_simulated_summary(&platform, config, &run);
    if !executor.faults.is_empty() {
        let faults: u64 = run.fault_counters.iter().map(|c| c.faults).sum();
        let retries: u64 = run.fault_counters.iter().map(|c| c.retries).sum();
        let migrated: u64 = run.fault_counters.iter().map(|c| c.migrated_batches).sum();
        eprintln!(
            "fault injection: {faults} fault(s) struck | {retries} retried launch(es) | \
             {migrated} migrated batch(es) (output unaffected)"
        );
    }
    Ok((run.report(&platform, &metrics), metrics))
}

/// Writes the telemetry JSON-lines file: one `read` record per read, then
/// the [`RunReport`] records. With a platform simulation the report and
/// per-read records come from the simulated run (which carries device
/// timelines and energy); otherwise they are rolled up from the host
/// mapping pass.
fn write_metrics_file(
    path: &str,
    stages: &[(String, f64, u64)],
    wall_seconds: f64,
    host_metrics: &[MapMetrics],
    sim: Option<(RunReport, Vec<MapMetrics>)>,
) -> Result<(), ReputeError> {
    let (mut report, per_read) = match sim {
        Some((report, metrics)) => (report, metrics),
        None => {
            let mut report = RunReport {
                reads: host_metrics.len() as u64,
                ..RunReport::default()
            };
            for m in host_metrics {
                report.totals.merge(m);
            }
            (report, host_metrics.to_vec())
        }
    };
    // Host stage clocks first (load/map/simulate), then whatever stage
    // breakdown the run report derived from the merged metrics.
    let mut all_stages = stages.to_vec();
    all_stages.append(&mut report.stages);
    report.stages = all_stages;
    report.wall_seconds = wall_seconds;
    // Assembled in memory, committed by atomic rename: a crash mid-write
    // never leaves a half-written telemetry file for `repute stats`.
    let mut out: Vec<u8> = Vec::new();
    for (id, m) in per_read.iter().enumerate() {
        writeln!(out, "{}", m.to_json_line(id as u64))?;
    }
    report.write_json_lines(&mut out)?;
    write_atomic(Path::new(path), &out)
}

/// Writes a run's spans as Chrome trace JSON (atomic rename): pid 0 is
/// the scheduler, each device gets its own pid named after its profile.
/// The writer sorts spans into a canonical order, so identical runs
/// produce byte-identical files regardless of host-thread interleaving.
fn write_trace_file(
    path: &str,
    platform: &repute_hetsim::Platform,
    trace: &[repute_obs::Span],
) -> Result<(), ReputeError> {
    use repute_obs::trace::{device_pid, write_chrome_trace, SCHEDULER_PID};
    let mut processes = vec![(SCHEDULER_PID, "scheduler".to_string())];
    for (i, device) in platform.devices().iter().enumerate() {
        processes.push((
            device_pid(i),
            format!("{} [{}]", device.name(), device.kind().as_str()),
        ));
    }
    write_atomic(
        Path::new(path),
        write_chrome_trace(&processes, trace).as_bytes(),
    )
}

/// Parsed command-line options for `repute stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsOptions {
    /// Telemetry JSON-lines files written by `--metrics-out` (or the
    /// bench harness's `REPUTE_METRICS_OUT`, or a daemon's
    /// `--metrics-out`). Several files are merged: counters are summed
    /// and latency samples pooled before percentiles are taken.
    pub inputs: Vec<String>,
    /// A spool of per-job JSON-lines files (a daemon's `--metrics-dir`):
    /// every `*.jsonl` file in the directory is read, name-sorted, as if
    /// appended to `inputs`.
    pub dir: Option<String>,
    /// Error on the first malformed line instead of skipping it with a
    /// warning (the lenient default tolerates truncated or mixed files).
    pub strict: bool,
}

/// Parses `repute stats` arguments: one or more file paths and/or
/// `--dir`, plus flags.
///
/// # Errors
///
/// Returns [`ParseArgsError`] for unknown flags or when neither a path
/// nor `--dir` is given.
pub fn parse_stats_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<StatsOptions, ParseArgsError> {
    let mut inputs: Vec<String> = Vec::new();
    let mut dir: Option<String> = None;
    let mut strict = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--strict" => strict = true,
            "--dir" => {
                let value = args
                    .next()
                    .ok_or_else(|| ParseArgsError::new("--dir expects a value"))?;
                if dir.is_some() {
                    return Err(ParseArgsError::new("--dir given twice"));
                }
                dir = Some(value);
            }
            "--help" | "-h" => return Err(ParseArgsError::new("help requested")),
            other if other.starts_with('-') => {
                return Err(ParseArgsError::new(format!("unknown option {other:?}")))
            }
            path => inputs.push(path.to_string()),
        }
    }
    if inputs.is_empty() && dir.is_none() {
        return Err(ParseArgsError::new(
            "stats expects at least one metrics JSON-lines file (or --dir)",
        ));
    }
    Ok(StatsOptions {
        inputs,
        dir,
        strict,
    })
}

/// Pretty-prints a telemetry JSON-lines stream (the inverse of
/// `--metrics-out`): per-read records are rolled up into totals, run /
/// stage / device / event / energy records are rendered in file order.
///
/// Lenient: malformed lines are skipped and counted, with a trailing
/// `warning: skipped N malformed line(s)` note — telemetry files are
/// often truncated by interrupted runs or concatenated from several
/// sources, and the intact records are still worth rendering. Use
/// [`render_stats_strict`] (CLI: `--strict`) to fail on the first bad
/// line instead.
///
/// # Errors
///
/// This lenient form only errors via future I/O-style extensions; today
/// it always succeeds.
pub fn render_stats(text: &str) -> Result<String, ReputeError> {
    render_stats_inner(text, false)
}

/// Strict variant of [`render_stats`]: any malformed line is an error.
///
/// # Errors
///
/// Returns [`ReputeError::InputParse`] naming the first line that fails
/// to parse.
pub fn render_stats_strict(text: &str) -> Result<String, ReputeError> {
    render_stats_inner(text, true)
}

fn render_stats_inner(text: &str, strict: bool) -> Result<String, ReputeError> {
    use repute_obs::json::{field, parse_flat_object, JsonValue};
    use std::fmt::Write as _;

    let get_str = |fields: &[(String, JsonValue)], key: &str| -> String {
        field(fields, key)
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let get_f64 =
        |fields: &[(String, JsonValue)], key: &str| field(fields, key).and_then(JsonValue::as_f64);
    let get_u64 =
        |fields: &[(String, JsonValue)], key: &str| field(fields, key).and_then(JsonValue::as_u64);

    let mut reads = 0u64;
    let mut sums: Vec<(String, u64)> = Vec::new();
    let mut body = String::new();
    let mut skipped = 0u64;
    let mut latency_header = false;
    // Service telemetry merges across every input file: per-job records
    // pool their latency samples, `serve` snapshot counters sum.
    let mut jobs = 0u64;
    let mut jobs_replayed = 0u64;
    let mut job_reads = 0u64;
    let mut job_mappings = 0u64;
    let mut job_latency: Vec<f64> = Vec::new();
    let mut tenants: Vec<(String, u64)> = Vec::new();
    let mut serve_records = 0u64;
    let mut serve_sums = [0u64; 15];
    const SERVE_COUNTERS: [&str; 15] = [
        "accepted",
        "rejected",
        "retry_later",
        "quota_exceeded",
        "completed",
        "replayed",
        "batches",
        "compactions",
        "connection_errors",
        "spool_skipped",
        "shed",
        "unavailable",
        "faults",
        "retries",
        "migrated",
    ];
    let mut serve_queue_depth_max = 0u64;
    let mut serve_simulated = 0.0f64;
    let mut serve_devices_live: Option<(u64, u64)> = None;
    // Per-tenant SLO records merge by summation across inputs.
    let mut slo_rows: Vec<(String, u64, u64)> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields = match parse_flat_object(line) {
            Some(fields) => fields,
            None if strict => {
                return Err(ReputeError::InputParse(format!(
                    "line {}: not a flat JSON object",
                    idx + 1
                )))
            }
            None => {
                skipped += 1;
                continue;
            }
        };
        let kind = get_str(&fields, "type");
        match kind.as_str() {
            "read" => {
                reads += 1;
                for (key, value) in &fields {
                    if key == "type" || key == "id" {
                        continue;
                    }
                    if let Some(n) = value.as_u64() {
                        match sums.iter_mut().find(|(name, _)| name == key) {
                            Some((_, sum)) => *sum += n,
                            None => sums.push((key.clone(), n)),
                        }
                    }
                }
            }
            "cell" => {
                let _ = writeln!(body, "cell {}", get_str(&fields, "label"));
            }
            "run" => {
                let _ = writeln!(
                    body,
                    "run: {} reads | simulated {:.6} s | wall {:.3} s",
                    get_u64(&fields, "reads").unwrap_or(0),
                    get_f64(&fields, "simulated_seconds").unwrap_or(0.0),
                    get_f64(&fields, "wall_seconds").unwrap_or(0.0),
                );
                // Resumed runs carry the replayed-batch count as
                // provenance; the per-read totals above already cover the
                // whole run once, so nothing is double-counted here.
                let resumed = get_u64(&fields, "resumed_batches").unwrap_or(0);
                if resumed > 0 {
                    let _ = writeln!(
                        body,
                        "  resumed from checkpoint: {resumed} batch(es) \
                         replayed from the journal (not re-executed)",
                    );
                }
            }
            "stage" => {
                let _ = writeln!(
                    body,
                    "  stage {:<24} {:>10.6} s  x{}",
                    get_str(&fields, "path"),
                    get_f64(&fields, "seconds").unwrap_or(0.0),
                    get_u64(&fields, "count").unwrap_or(0),
                );
            }
            "latency" => {
                // Legacy telemetry files simply have no latency records;
                // the header appears once, before the first row.
                if !latency_header {
                    let _ = writeln!(
                        body,
                        "  latency percentiles (simulated seconds)\n  {:<24} {:>8} {:>12} {:>12} {:>12}",
                        "population", "n", "p50", "p90", "p99",
                    );
                    latency_header = true;
                }
                let _ = writeln!(
                    body,
                    "  {:<24} {:>8} {:>12.9} {:>12.9} {:>12.9}",
                    get_str(&fields, "stage"),
                    get_u64(&fields, "count").unwrap_or(0),
                    get_f64(&fields, "p50_s").unwrap_or(0.0),
                    get_f64(&fields, "p90_s").unwrap_or(0.0),
                    get_f64(&fields, "p99_s").unwrap_or(0.0),
                );
            }
            "device" => {
                let _ = writeln!(
                    body,
                    "  device {:<20} {:>3} launches | busy {:.6} s | util {:>5.1}%",
                    get_str(&fields, "device"),
                    get_u64(&fields, "launches").unwrap_or(0),
                    get_f64(&fields, "busy_seconds").unwrap_or(0.0),
                    get_f64(&fields, "utilization").unwrap_or(0.0) * 100.0,
                );
                let faults = get_u64(&fields, "faults").unwrap_or(0);
                let retries = get_u64(&fields, "retries").unwrap_or(0);
                let migrated = get_u64(&fields, "migrated_batches").unwrap_or(0);
                if faults > 0 || retries > 0 || migrated > 0 {
                    let _ = writeln!(
                        body,
                        "    faults {faults} | retries {retries} | migrated batches {migrated}",
                    );
                }
            }
            "event" => {
                let _ = writeln!(
                    body,
                    "    {:<14} {:>8} items | queued {:.6} start {:.6} end {:.6}",
                    get_str(&fields, "label"),
                    get_u64(&fields, "items").unwrap_or(0),
                    get_f64(&fields, "queued_s").unwrap_or(0.0),
                    get_f64(&fields, "start_s").unwrap_or(0.0),
                    get_f64(&fields, "end_s").unwrap_or(0.0),
                );
            }
            "energy" => {
                let _ = writeln!(
                    body,
                    "  energy: {:.3} J above idle | avg {:.1} W (idle {:.1} W) over {:.6} s",
                    get_f64(&fields, "energy_j").unwrap_or(0.0),
                    get_f64(&fields, "average_power_w").unwrap_or(0.0),
                    get_f64(&fields, "idle_power_w").unwrap_or(0.0),
                    get_f64(&fields, "mapping_seconds").unwrap_or(0.0),
                );
            }
            "job" => {
                jobs += 1;
                job_reads += get_u64(&fields, "reads").unwrap_or(0);
                job_mappings += get_u64(&fields, "mappings").unwrap_or(0);
                if let Some(latency) = get_f64(&fields, "latency_s") {
                    job_latency.push(latency);
                }
                if matches!(field(&fields, "replayed"), Some(JsonValue::Bool(true))) {
                    jobs_replayed += 1;
                }
                let tenant = get_str(&fields, "tenant");
                match tenants.iter_mut().find(|(name, _)| *name == tenant) {
                    Some((_, n)) => *n += 1,
                    None => tenants.push((tenant, 1)),
                }
            }
            "serve" => {
                serve_records += 1;
                for (slot, name) in serve_sums.iter_mut().zip(SERVE_COUNTERS) {
                    *slot += get_u64(&fields, name).unwrap_or(0);
                }
                serve_queue_depth_max =
                    serve_queue_depth_max.max(get_u64(&fields, "queue_depth_max").unwrap_or(0));
                serve_simulated += get_f64(&fields, "simulated_seconds").unwrap_or(0.0);
                // Health is a point-in-time snapshot, not a counter:
                // the latest record wins instead of summing.
                if let (Some(live), Some(lost)) = (
                    get_u64(&fields, "devices_live"),
                    get_u64(&fields, "devices_lost"),
                ) {
                    serve_devices_live = Some((live, lost));
                }
            }
            "slo" => {
                let tenant = get_str(&fields, "tenant");
                let met = get_u64(&fields, "met").unwrap_or(0);
                let missed = get_u64(&fields, "missed").unwrap_or(0);
                match slo_rows.iter_mut().find(|(name, _, _)| *name == tenant) {
                    Some((_, m, x)) => {
                        *m += met;
                        *x += missed;
                    }
                    None => slo_rows.push((tenant, met, missed)),
                }
            }
            other => {
                let _ = writeln!(body, "({other} record)");
            }
        }
    }

    let mut out = String::new();
    if reads > 0 {
        let _ = writeln!(out, "{reads} read records; totals:");
        for (name, sum) in &sums {
            let _ = writeln!(
                out,
                "  {name:<18} {sum:>12}  ({:.1}/read)",
                *sum as f64 / reads as f64
            );
        }
        // Derived prefilter summary. Older telemetry files predate the
        // prefilter counters; their sums simply lack the fields and the
        // summary is skipped.
        let sum_of = |name: &str| sums.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
        let tested = sum_of("prefilter_tested");
        if tested > 0 {
            let rejected = sum_of("prefilter_rejected");
            let accepted = tested.saturating_sub(rejected);
            let false_accepts = sum_of("prefilter_false_accepts");
            let _ = writeln!(
                out,
                "  prefilter: {rejected}/{tested} candidates rejected ({:.1}%), \
                 {false_accepts} false accepts ({:.1}% of accepts)",
                rejected as f64 / tested as f64 * 100.0,
                false_accepts as f64 / (accepted.max(1)) as f64 * 100.0,
            );
        }
    }
    out.push_str(&body);
    if serve_records > 0 {
        let _ = writeln!(
            out,
            "serve ({serve_records} snapshot(s)): accepted {} | rejected {} | \
             retry-later {} | quota-exceeded {} | completed {} ({} replayed) | {} batch(es)",
            serve_sums[0],
            serve_sums[1],
            serve_sums[2],
            serve_sums[3],
            serve_sums[4],
            serve_sums[5],
            serve_sums[6],
        );
        let _ = writeln!(
            out,
            "  compactions {} | connection errors {} | spool skipped {}",
            serve_sums[7], serve_sums[8], serve_sums[9],
        );
        if serve_sums[10..].iter().any(|&n| n > 0) {
            let _ = writeln!(
                out,
                "  shed {} | unavailable {} | faults {} | retries {} | migrated batches {}",
                serve_sums[10], serve_sums[11], serve_sums[12], serve_sums[13], serve_sums[14],
            );
        }
        if let Some((live, lost)) = serve_devices_live {
            if lost > 0 {
                let _ = writeln!(out, "  devices live {live} ({lost} lost)");
            }
        }
        let _ = writeln!(
            out,
            "  queue depth high-water {serve_queue_depth_max} | simulated {serve_simulated:.6} s",
        );
    }
    if !slo_rows.is_empty() {
        let _ = writeln!(
            out,
            "deadline SLO (trailing window):\n  {:<16} {:>6} {:>6} {:>9}",
            "tenant", "met", "missed", "hit-rate",
        );
        slo_rows.sort_by(|a, b| a.0.cmp(&b.0));
        for (tenant, met, missed) in &slo_rows {
            let total = met + missed;
            let rate = if total == 0 {
                1.0
            } else {
                *met as f64 / total as f64
            };
            let _ = writeln!(out, "  {tenant:<16} {met:>6} {missed:>6} {rate:>9.3}");
        }
    }
    if jobs > 0 {
        let _ = writeln!(
            out,
            "jobs: {jobs} completed ({jobs_replayed} replayed) | \
             {job_reads} reads | {job_mappings} mappings",
        );
        for (tenant, n) in &tenants {
            let _ = writeln!(out, "  tenant {tenant:<16} {n:>6} job(s)");
        }
        if !job_latency.is_empty() {
            let samples = repute_obs::Samples::from_values(&job_latency);
            let (p50, p90, p99) = samples.p50_p90_p99();
            let _ = writeln!(
                out,
                "  job latency (merged, simulated seconds): n={} \
                 p50 {p50:.9} p90 {p90:.9} p99 {p99:.9}",
                samples.count(),
            );
        }
    }
    if out.is_empty() && skipped == 0 {
        out.push_str("no telemetry records\n");
    }
    if skipped > 0 {
        let _ = writeln!(out, "warning: skipped {skipped} malformed line(s)");
    }
    Ok(out)
}

/// Runs `repute stats`: reads every input file (and every `*.jsonl`
/// file of `--dir`, name-sorted), concatenates them, and pretty-prints
/// the merged telemetry to stdout. Counters from several files sum and
/// latency samples pool before percentiles are taken, so a spool of
/// per-job files renders one coherent summary.
///
/// # Errors
///
/// Propagates I/O errors and, under `--strict`, malformed-line errors
/// from [`render_stats_strict`].
pub fn run_stats(opts: &StatsOptions) -> Result<(), ReputeError> {
    let mut text = String::new();
    let mut append = |path: &Path| -> Result<(), ReputeError> {
        let chunk = std::fs::read_to_string(path).map_err(|e| ReputeError::io_at(path, e))?;
        text.push_str(&chunk);
        if !chunk.ends_with('\n') {
            text.push('\n');
        }
        Ok(())
    };
    for input in &opts.inputs {
        append(Path::new(input))?;
    }
    if let Some(dir) = &opts.dir {
        let dir_path = Path::new(dir);
        let entries = std::fs::read_dir(dir_path).map_err(|e| ReputeError::io_at(dir_path, e))?;
        let mut files = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| ReputeError::io_at(dir_path, e))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("jsonl") {
                files.push(path);
            }
        }
        files.sort();
        if files.is_empty() {
            return Err(ReputeError::InputParse(format!(
                "--dir {dir:?} contains no *.jsonl telemetry files"
            )));
        }
        for path in &files {
            append(path)?;
        }
    }
    let rendered = if opts.strict {
        render_stats_strict(&text)?
    } else {
        render_stats(&text)?
    };
    print!("{rendered}");
    Ok(())
}

/// Parsed command-line options for `repute trace`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOptions {
    /// Path to a Chrome-tracing JSON file written by `--trace-out`.
    pub input: String,
}

/// Parses `repute trace` arguments: one file path.
///
/// # Errors
///
/// Returns [`ParseArgsError`] for unknown flags or a missing/duplicate
/// path.
pub fn parse_trace_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<TraceOptions, ParseArgsError> {
    let mut input: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => return Err(ParseArgsError::new("help requested")),
            other if other.starts_with('-') => {
                return Err(ParseArgsError::new(format!("unknown option {other:?}")))
            }
            path => {
                if input.is_some() {
                    return Err(ParseArgsError::new("trace expects exactly one file"));
                }
                input = Some(path.to_string());
            }
        }
    }
    input
        .map(|input| TraceOptions { input })
        .ok_or_else(|| ParseArgsError::new("trace expects a Chrome-tracing JSON file"))
}

/// Summarizes a `--trace-out` file: event count, total span time, a
/// per-process (scheduler + devices) span table, and per-category
/// duration percentiles.
///
/// # Errors
///
/// Returns [`ReputeError::InputParse`] when the text is not a Chrome
/// trace event array.
pub fn render_trace_summary(text: &str) -> Result<String, ReputeError> {
    use repute_obs::trace::summarize_chrome_trace;
    use std::fmt::Write as _;

    let summary = summarize_chrome_trace(text).ok_or_else(|| {
        ReputeError::InputParse(
            "not a Chrome trace event array (expected the JSON written by --trace-out)".into(),
        )
    })?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} span event(s) | {:.6} s total span time",
        summary.events, summary.span_seconds
    );
    if !summary.processes.is_empty() {
        let _ = writeln!(out, "processes:");
        for p in &summary.processes {
            let _ = writeln!(
                out,
                "  pid {:<3} {:<28} {:>6} span(s) {:>12.6} s",
                p.pid, p.name, p.count, p.total_seconds
            );
        }
    }
    if !summary.categories.is_empty() {
        let _ = writeln!(
            out,
            "categories (duration percentiles, simulated seconds):\n  {:<12} {:>6} {:>12} {:>12} {:>12} {:>12}",
            "cat", "n", "total", "p50", "p90", "p99",
        );
        for c in &summary.categories {
            let _ = writeln!(
                out,
                "  {:<12} {:>6} {:>12.6} {:>12.9} {:>12.9} {:>12.9}",
                c.cat, c.count, c.total_seconds, c.p50_seconds, c.p90_seconds, c.p99_seconds,
            );
        }
    }
    Ok(out)
}

/// Runs `repute trace`: summarizes a `--trace-out` file to stdout.
///
/// # Errors
///
/// Propagates I/O errors and malformed-input errors from
/// [`render_trace_summary`].
pub fn run_trace(opts: &TraceOptions) -> Result<(), ReputeError> {
    let input_path = Path::new(&opts.input);
    let text =
        std::fs::read_to_string(input_path).map_err(|e| ReputeError::io_at(input_path, e))?;
    print!("{}", render_trace_summary(&text)?);
    Ok(())
}

/// Parsed command-line options for `repute serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCliOptions {
    /// Path to the FASTA reference (exclusive with `index`).
    pub reference: String,
    /// Path to a prebuilt index from `repute index`.
    pub index: Option<String>,
    /// Fingerprint-validated serialized-index cache (see
    /// [`MapOptions::index_cache`]).
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
    /// Default error budget δ for jobs without an override.
    pub delta: u32,
    /// Minimum k-mer length `S_min` (server-pinned).
    pub s_min: usize,
    /// Output-slot limit per read (server-pinned).
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
    /// Fault-plan spec injected into the daemon's simulated platform
    /// (validated at parse time; host-crash events are rejected).
    pub fault_plan: Option<String>,
    /// Transient-fault retry budget of every batch execution.
    pub max_retries: usize,
    /// Shed queued jobs whose deadline has already passed with a typed
    /// `DEADLINE_EXCEEDED` instead of running them late.
    pub shed_overdue: bool,
    /// Serialize batches (disable concurrent same-config batch groups).
    pub serial_batches: bool,
    /// Admission-queue capacity; a full queue answers `RETRY_LATER`.
    pub queue_capacity: usize,
    /// Largest per-job read count accepted (`None` = the platform's
    /// quarter-RAM batch cap).
    pub max_reads_per_job: Option<usize>,
    /// Largest per-job δ override accepted.
    pub max_delta: u32,
    /// Weighted-fair tenant weights (`--tenant-weight name=w`,
    /// repeatable; unlisted tenants weigh 1.0).
    pub tenant_weights: Vec<(String, f64)>,
    /// Sliding-window read budgets (`--tenant-quota name=reads`,
    /// repeatable; unlisted tenants are unbudgeted).
    pub tenant_quotas: Vec<(String, u64)>,
    /// Quota sliding-window length in simulated seconds.
    pub quota_window_s: f64,
    /// Compact the journal after this many dead records (`0` disables).
    pub journal_compact_threshold: usize,
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
        let defaults = repute_serve::ServeOptions::default();
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
            delta: defaults.delta,
            s_min: defaults.s_min,
            max_locations: defaults.max_locations,
            prefilter: defaults.prefilter,
            prefilter_q: defaults.prefilter_q,
            prefilter_bin: defaults.prefilter_bin,
            schedule: defaults.schedule,
            host_threads: defaults.host_threads,
            fault_plan: None,
            max_retries: defaults.max_retries,
            shed_overdue: defaults.shed_overdue,
            serial_batches: !defaults.concurrent_batches,
            queue_capacity: defaults.limits.queue_capacity,
            max_reads_per_job: None,
            max_delta: defaults.limits.max_delta,
            tenant_weights: Vec::new(),
            tenant_quotas: Vec::new(),
            quota_window_s: defaults.quota_window_s,
            journal_compact_threshold: defaults.journal_compact_threshold,
            metrics_out: None,
            metrics_dir: None,
            trace_out: None,
        }
    }
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
    let mut args = args.into_iter();
    let mut have_reference = false;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| ParseArgsError::new(format!("{name} expects a value")))
        };
        match arg.as_str() {
            "--reference" => {
                opts.reference = value("--reference")?;
                have_reference = true;
            }
            "--index" => {
                opts.index = Some(value("--index")?);
                have_reference = true;
            }
            "--index-cache" => opts.index_cache = Some(value("--index-cache")?),
            "--platform" => opts.platform = value("--platform")?,
            "--socket" => opts.socket = Some(value("--socket")?),
            "--spool" => opts.spool = Some(value("--spool")?),
            "--once" => opts.once = true,
            "--journal" => opts.journal = Some(value("--journal")?),
            "--resume" => opts.resume = true,
            "--delta" => {
                opts.delta = value("--delta")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--delta expects an integer"))?;
            }
            "--s-min" => {
                opts.s_min = value("--s-min")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--s-min expects an integer"))?;
            }
            "--max-locations" => {
                opts.max_locations = value("--max-locations")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--max-locations expects an integer"))?;
                if opts.max_locations == 0 {
                    return Err(ParseArgsError::new("--max-locations must be positive"));
                }
            }
            "--prefilter" => {
                opts.prefilter = value("--prefilter")?
                    .parse()
                    .map_err(|e| ParseArgsError::new(format!("--prefilter: {e}")))?;
            }
            "--prefilter-q" => {
                opts.prefilter_q = value("--prefilter-q")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--prefilter-q expects an integer"))?;
                if opts.prefilter_q == 0 || opts.prefilter_q > qgram::MAX_Q {
                    return Err(ParseArgsError::new(format!(
                        "--prefilter-q must be in 1..={}",
                        qgram::MAX_Q
                    )));
                }
            }
            "--prefilter-bin" => {
                opts.prefilter_bin = value("--prefilter-bin")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--prefilter-bin expects an integer"))?;
                if opts.prefilter_bin == 0 {
                    return Err(ParseArgsError::new("--prefilter-bin must be positive"));
                }
            }
            "--schedule" => {
                let mode = value("--schedule")?;
                opts.schedule = ScheduleMode::parse(&mode).ok_or_else(|| {
                    ParseArgsError::new(format!("unknown schedule {mode:?} (static, dynamic)"))
                })?;
            }
            "--host-threads" => {
                opts.host_threads = value("--host-threads")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--host-threads expects an integer"))?;
                if opts.host_threads == 0 {
                    return Err(ParseArgsError::new(
                        "--host-threads must be positive (omit the flag for automatic)",
                    ));
                }
            }
            "--fault-plan" => {
                let spec = value("--fault-plan")?;
                let plan = repute_hetsim::FaultPlan::parse(&spec)
                    .map_err(|e| ParseArgsError::new(format!("--fault-plan: {e}")))?;
                if plan.host_crash_at().is_some() {
                    return Err(ParseArgsError::new(
                        "serve accepts device fault events only (crash-resume \
                         is --journal/--resume territory, not crash:@<t>)",
                    ));
                }
                opts.fault_plan = Some(spec);
            }
            "--max-retries" => {
                opts.max_retries = value("--max-retries")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--max-retries expects an integer"))?;
            }
            "--shed-overdue" => opts.shed_overdue = true,
            "--serial-batches" => opts.serial_batches = true,
            "--queue-capacity" => {
                opts.queue_capacity = value("--queue-capacity")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--queue-capacity expects an integer"))?;
                if opts.queue_capacity == 0 {
                    return Err(ParseArgsError::new("--queue-capacity must be positive"));
                }
            }
            "--max-reads-per-job" => {
                let n: usize = value("--max-reads-per-job")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--max-reads-per-job expects an integer"))?;
                if n == 0 {
                    return Err(ParseArgsError::new("--max-reads-per-job must be positive"));
                }
                opts.max_reads_per_job = Some(n);
            }
            "--max-delta" => {
                opts.max_delta = value("--max-delta")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--max-delta expects an integer"))?;
            }
            "--tenant-weight" => {
                let spec = value("--tenant-weight")?;
                let (name, weight) = spec
                    .split_once('=')
                    .ok_or_else(|| ParseArgsError::new("--tenant-weight expects name=<weight>"))?;
                let weight: f64 = weight
                    .parse()
                    .map_err(|_| ParseArgsError::new("--tenant-weight expects a numeric weight"))?;
                if weight.is_nan() || weight <= 0.0 {
                    return Err(ParseArgsError::new("--tenant-weight must be positive"));
                }
                opts.tenant_weights.push((name.to_string(), weight));
            }
            "--tenant-quota" => {
                let spec = value("--tenant-quota")?;
                let (name, budget) = spec
                    .split_once('=')
                    .ok_or_else(|| ParseArgsError::new("--tenant-quota expects name=<reads>"))?;
                let budget: u64 = budget.parse().map_err(|_| {
                    ParseArgsError::new("--tenant-quota expects an integer read budget")
                })?;
                if budget == 0 {
                    return Err(ParseArgsError::new("--tenant-quota must be positive"));
                }
                opts.tenant_quotas.push((name.to_string(), budget));
            }
            "--quota-window" => {
                opts.quota_window_s = value("--quota-window")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--quota-window expects seconds"))?;
                if !opts.quota_window_s.is_finite() || opts.quota_window_s <= 0.0 {
                    return Err(ParseArgsError::new("--quota-window must be positive"));
                }
            }
            "--journal-compact-threshold" => {
                opts.journal_compact_threshold =
                    value("--journal-compact-threshold")?.parse().map_err(|_| {
                        ParseArgsError::new("--journal-compact-threshold expects an integer")
                    })?;
            }
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")?),
            "--metrics-dir" => opts.metrics_dir = Some(value("--metrics-dir")?),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--help" | "-h" => return Err(ParseArgsError::new("help requested")),
            other => return Err(ParseArgsError::new(format!("unknown option {other:?}"))),
        }
    }
    if !have_reference {
        return Err(ParseArgsError::new("--reference or --index is required"));
    }
    if opts.index.is_some() && !opts.reference.is_empty() {
        return Err(ParseArgsError::new(
            "--reference and --index are mutually exclusive",
        ));
    }
    if opts.index_cache.is_some() && opts.index.is_some() {
        return Err(ParseArgsError::new(
            "--index-cache requires --reference (a prebuilt --index is \
             already the cache)",
        ));
    }
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
    if opts.journal_compact_threshold > 0 && opts.journal.is_none() {
        return Err(ParseArgsError::new(
            "--journal-compact-threshold requires --journal",
        ));
    }
    Ok(opts)
}

/// Builds the daemon-core configuration a CLI option set selects.
fn build_serve_options(opts: &ServeCliOptions) -> Result<repute_serve::ServeOptions, ReputeError> {
    let fault_plan = match &opts.fault_plan {
        Some(spec) => repute_hetsim::FaultPlan::parse(spec)
            .map_err(|e| ReputeError::Config(format!("--fault-plan: {e}")))?,
        None => repute_hetsim::FaultPlan::new(),
    };
    Ok(repute_serve::ServeOptions {
        delta: opts.delta,
        s_min: opts.s_min,
        max_locations: opts.max_locations,
        prefilter: opts.prefilter,
        prefilter_q: opts.prefilter_q,
        prefilter_bin: opts.prefilter_bin,
        schedule: opts.schedule,
        host_threads: opts.host_threads,
        max_retries: opts.max_retries,
        fault_plan,
        shed_overdue: opts.shed_overdue,
        concurrent_batches: !opts.serial_batches,
        tracing: opts.trace_out.is_some(),
        limits: repute_serve::ServeLimits {
            max_reads_per_job: opts.max_reads_per_job.unwrap_or(usize::MAX),
            max_delta: opts.max_delta,
            queue_capacity: opts.queue_capacity,
        },
        tenant_weights: opts.tenant_weights.clone(),
        tenant_quotas: opts.tenant_quotas.clone(),
        quota_window_s: opts.quota_window_s,
        journal_compact_threshold: opts.journal_compact_threshold,
    })
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

    let platform = platform_by_name(&opts.platform)?;
    let load_started = std::time::Instant::now();
    let set = load_reference_set(&MapOptions {
        reference: opts.reference.clone(),
        index: opts.index.clone(),
        index_cache: opts.index_cache.clone(),
        ..MapOptions::default()
    })?;
    eprintln!(
        "reference ready in {:.3} s (loaded once for the daemon's life)",
        load_started.elapsed().as_secs_f64()
    );
    let mut core = repute_serve::ServeCore::new(set, platform, build_serve_options(opts)?)?;
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
    let c = core.counters();
    eprintln!(
        "serve: accepted {} | rejected {} | retry-later {} | quota-exceeded {} | \
         completed {} ({} replayed) in {} batch(es) | queue high-water {} | simulated {:.6} s",
        c.accepted,
        c.rejected,
        c.retry_later,
        c.quota_exceeded,
        c.completed,
        c.replayed,
        c.batches,
        core.queue_depth_high_water(),
        core.simulated_seconds(),
    );
    if c.compactions + c.connection_errors + c.spool_skipped > 0 {
        eprintln!(
            "serve: compactions {} | connection errors {} | spool skipped {}",
            c.compactions, c.connection_errors, c.spool_skipped,
        );
    }
    if c.shed + c.unavailable + c.faults + c.retries + c.migrated > 0 {
        eprintln!(
            "serve: shed {} | unavailable {} | faults {} | retries {} | migrated batches {}",
            c.shed, c.unavailable, c.faults, c.retries, c.migrated,
        );
    }
    let health = core.health();
    if health.lost_count() > 0 || core.is_unavailable() {
        eprintln!(
            "serve: devices live {}/{} ({} lost){}",
            health.live_count(),
            health.len(),
            health.lost_count(),
            if core.is_unavailable() {
                " — drained as SERVICE_UNAVAILABLE"
            } else {
                ""
            },
        );
    }
    for report in core.slo_reports() {
        eprintln!(
            "slo: tenant {:<16} met {:>5} missed {:>5} hit-rate {:.3}",
            report.tenant,
            report.met,
            report.missed,
            report.hit_rate(),
        );
    }
    let (n, p50, p90, p99) = core.latency_percentiles();
    if n > 0 {
        eprintln!("job latency (simulated): n={n} p50 {p50:.6} p90 {p90:.6} p99 {p99:.6}");
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
    let mut have_socket = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| ParseArgsError::new(format!("{name} expects a value")))
        };
        match arg.as_str() {
            "--socket" => {
                opts.socket = value("--socket")?;
                have_socket = true;
            }
            "--reads" => opts.reads = Some(value("--reads")?),
            "--id" => opts.id = Some(value("--id")?),
            "--tenant" => opts.tenant = Some(value("--tenant")?),
            "--delta" => {
                opts.delta = Some(
                    value("--delta")?
                        .parse()
                        .map_err(|_| ParseArgsError::new("--delta expects an integer"))?,
                );
            }
            "--prefilter" => opts.prefilter = Some(value("--prefilter")?),
            "--mapper" => opts.mapper = Some(value("--mapper")?),
            "--deadline" => {
                let deadline: f64 = value("--deadline")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--deadline expects seconds"))?;
                if !deadline.is_finite() || deadline < 0.0 {
                    return Err(ParseArgsError::new("--deadline must be non-negative"));
                }
                opts.deadline = Some(deadline);
            }
            "--priority" => {
                opts.priority = Some(
                    value("--priority")?
                        .parse()
                        .map_err(|_| ParseArgsError::new("--priority expects an integer"))?,
                );
            }
            "--output" => opts.output = Some(value("--output")?),
            "--retry" => {
                opts.retry = value("--retry")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--retry expects an integer"))?;
            }
            "--retry-base-ms" => {
                opts.retry_base_ms = value("--retry-base-ms")?
                    .parse()
                    .map_err(|_| ParseArgsError::new("--retry-base-ms expects milliseconds"))?;
            }
            "--shutdown" => opts.shutdown = true,
            "--help" | "-h" => return Err(ParseArgsError::new("help requested")),
            other => return Err(ParseArgsError::new(format!("unknown option {other:?}"))),
        }
    }
    if !have_socket {
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
            write_sam_output(opts.output.as_deref(), sam.as_bytes())
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

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_full_command_line() {
        let opts = parse_map_args(args(
            "--reference r.fa --reads q.fq --delta 4 --s-min 14 --max-locations 50 --output o.sam --cigar",
        ))
        .unwrap();
        assert_eq!(opts.reference, "r.fa");
        assert_eq!(opts.reads, "q.fq");
        assert_eq!(opts.delta, 4);
        assert_eq!(opts.s_min, 14);
        assert_eq!(opts.max_locations, 50);
        assert_eq!(opts.output.as_deref(), Some("o.sam"));
        assert!(opts.cigar);
    }

    #[test]
    fn defaults_apply() {
        let opts = parse_map_args(args("--reference r.fa --reads q.fq")).unwrap();
        assert_eq!(opts.delta, 5);
        assert_eq!(opts.s_min, 12);
        assert_eq!(opts.max_locations, 100);
        assert_eq!(opts.output, None);
        assert!(!opts.cigar);
    }

    #[test]
    fn missing_required_rejected() {
        assert!(parse_map_args(args("--reads q.fq")).is_err());
        assert!(parse_map_args(args("--reference r.fa")).is_err());
    }

    #[test]
    fn malformed_values_rejected() {
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --delta x")).is_err());
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --max-locations 0")).is_err());
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --bogus")).is_err());
        assert!(parse_map_args(args("--reference")).is_err());
    }

    #[test]
    fn end_to_end_maps_reads_to_sam() {
        use repute_genome::fasta::{write_fasta, FastaRecord};
        use repute_genome::fastq::{write_fastq, FastqRecord};
        use repute_genome::synth::ReferenceBuilder;

        let dir = std::env::temp_dir().join("repute-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let reference = ReferenceBuilder::new(100_000).seed(5).build();
        let ref_path = dir.join("ref.fa");
        let reads_path = dir.join("reads.fq");
        let out_path = dir.join("out.sam");

        let mut f = Vec::new();
        write_fasta(&mut f, &[FastaRecord::new("chrT", reference.clone())], 70).unwrap();
        std::fs::write(&ref_path, f).unwrap();

        let reads: Vec<FastqRecord> = (0..5)
            .map(|i| {
                let start = 10_000 + i * 7_000;
                FastqRecord::with_uniform_quality(
                    format!("r{i}"),
                    reference.subseq(start..start + 100),
                    40,
                )
            })
            .collect();
        let mut f = Vec::new();
        write_fastq(&mut f, &reads).unwrap();
        std::fs::write(&reads_path, f).unwrap();

        let opts = MapOptions {
            reference: ref_path.to_string_lossy().into_owned(),
            index: None,
            index_cache: None,
            reads: reads_path.to_string_lossy().into_owned(),
            delta: 3,
            s_min: 15,
            max_locations: 10,
            output: Some(out_path.to_string_lossy().into_owned()),
            cigar: true,
            mapper: MapperChoice::Repute,
            prefilter: PrefilterMode::None,
            prefilter_q: qgram::DEFAULT_Q,
            prefilter_bin: qgram::DEFAULT_BIN_WIDTH,
            platform: None,
            schedule: ScheduleMode::Static,
            host_threads: 0,
            fault_plan: None,
            max_retries: DEFAULT_MAX_RETRIES,
            metrics_out: None,
            trace_out: None,
            verbose: false,
            checkpoint: None,
            resume: false,
            checkpoint_every: 1,
        };
        let (mapped, mappings) = run_map(&opts).unwrap();
        assert_eq!(mapped, 5);
        assert!(mappings >= 5);
        let sam = std::fs::read_to_string(&out_path).unwrap();
        assert!(sam.starts_with("@HD"));
        assert!(sam.contains("@SQ\tSN:chrT\tLN:100000"));
        // Exact reads: primary lines carry perfect-match CIGARs.
        assert!(sam.contains("100="));
        for i in 0..5 {
            assert!(sam.contains(&format!("r{i}\t")));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_subcommand_round_trips_and_multi_ref_maps() {
        use repute_genome::fasta::{write_fasta, FastaRecord};
        use repute_genome::fastq::{write_fastq, FastqRecord};
        use repute_genome::synth::ReferenceBuilder;

        let dir = std::env::temp_dir().join("repute-cli-index-test");
        std::fs::create_dir_all(&dir).unwrap();
        let chr_a = ReferenceBuilder::new(60_000).seed(15).build();
        let chr_b = ReferenceBuilder::new(40_000).seed(16).build();
        let ref_path = dir.join("ref.fa");
        let index_path = dir.join("ref.rpx");
        let reads_path = dir.join("reads.fq");
        let out_path = dir.join("out.sam");

        let mut f = Vec::new();
        write_fasta(
            &mut f,
            &[
                FastaRecord::new("chrA", chr_a.clone()),
                FastaRecord::new("chrB", chr_b.clone()),
            ],
            70,
        )
        .unwrap();
        std::fs::write(&ref_path, f).unwrap();

        // Build the index once.
        run_index(&IndexOptions {
            reference: ref_path.to_string_lossy().into_owned(),
            output: index_path.to_string_lossy().into_owned(),
        })
        .unwrap();

        // One read from each chromosome.
        let reads = vec![
            FastqRecord::with_uniform_quality("fromA", chr_a.subseq(20_000..20_100), 40),
            FastqRecord::with_uniform_quality("fromB", chr_b.subseq(5_000..5_100), 40),
        ];
        let mut f = Vec::new();
        write_fastq(&mut f, &reads).unwrap();
        std::fs::write(&reads_path, f).unwrap();

        // Map via the prebuilt index.
        let opts = parse_map_args(
            format!(
                "--index {} --reads {} --delta 3 --s-min 15 --output {}",
                index_path.display(),
                reads_path.display(),
                out_path.display()
            )
            .split_whitespace()
            .map(String::from),
        )
        .unwrap();
        let (mapped, _) = run_map(&opts).unwrap();
        assert_eq!(mapped, 2);
        let sam = std::fs::read_to_string(&out_path).unwrap();
        assert!(sam.contains("@SQ\tSN:chrA\tLN:60000"));
        assert!(sam.contains("@SQ\tSN:chrB\tLN:40000"));
        // Each read resolves to its own chromosome with a local position.
        let line_a = sam.lines().find(|l| l.starts_with("fromA\t")).unwrap();
        assert!(line_a.contains("\tchrA\t"), "{line_a}");
        let line_b = sam.lines().find(|l| l.starts_with("fromB\t")).unwrap();
        assert!(
            line_b.contains("\tchrB\t5001\t") || line_b.contains("\tchrB\t"),
            "{line_b}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_cache_hits_validates_and_rebuilds_on_stale() {
        use repute_genome::fasta::{write_fasta, FastaRecord};
        use repute_genome::fastq::{write_fastq, FastqRecord};
        use repute_genome::synth::ReferenceBuilder;

        let dir = std::env::temp_dir().join("repute-cli-index-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let reference = ReferenceBuilder::new(50_000).seed(21).build();
        let ref_path = dir.join("ref.fa");
        let cache_path = dir.join("ref.rpxc");
        let reads_path = dir.join("reads.fq");
        let out_a = dir.join("a.sam");
        let out_b = dir.join("b.sam");

        let mut f = Vec::new();
        write_fasta(&mut f, &[FastaRecord::new("chrC", reference.clone())], 70).unwrap();
        std::fs::write(&ref_path, f).unwrap();
        let reads = vec![FastqRecord::with_uniform_quality(
            "r0",
            reference.subseq(30_000..30_100),
            40,
        )];
        let mut f = Vec::new();
        write_fastq(&mut f, &reads).unwrap();
        std::fs::write(&reads_path, f).unwrap();

        let map_with_cache = |out: &Path| {
            let opts = parse_map_args(
                format!(
                    "--reference {} --index-cache {} --reads {} --delta 3 --s-min 15 --output {}",
                    ref_path.display(),
                    cache_path.display(),
                    reads_path.display(),
                    out.display()
                )
                .split_whitespace()
                .map(String::from),
            )
            .unwrap();
            run_map(&opts).unwrap()
        };

        // First run: cache miss, builds and saves.
        assert!(!cache_path.exists());
        map_with_cache(&out_a);
        assert!(cache_path.exists());
        let cached = std::fs::read(&cache_path).unwrap();
        assert_eq!(&cached[..4], b"RPXC");

        // Second run: cache hit; output is byte-identical.
        map_with_cache(&out_b);
        assert_eq!(
            std::fs::read(&out_a).unwrap(),
            std::fs::read(&out_b).unwrap()
        );

        // A stale cache (reference changed) is rebuilt, not trusted: the
        // run still resolves against the *new* reference.
        let other = ReferenceBuilder::new(50_000).seed(22).build();
        let mut f = Vec::new();
        write_fasta(&mut f, &[FastaRecord::new("chrD", other)], 70).unwrap();
        std::fs::write(&ref_path, f).unwrap();
        map_with_cache(&out_b);
        let sam = std::fs::read_to_string(&out_b).unwrap();
        assert!(sam.contains("SN:chrD"), "{sam}");
        let rebuilt = std::fs::read(&cache_path).unwrap();
        assert_ne!(cached, rebuilt, "stale cache must be replaced");

        // Corruption is also a silent rebuild, never an error.
        std::fs::write(&cache_path, b"RPXCgarbage").unwrap();
        map_with_cache(&out_b);
        assert!(std::fs::read(&cache_path).unwrap().len() > 12);

        // So is a cache from before the FM stream's version 2, while a
        // prebuilt `--index` of that age is a typed error that says so.
        let mut old = rebuilt;
        let fm_at = old.windows(4).position(|w| w == b"RPFM").unwrap();
        old[fm_at + 4] = 1;
        std::fs::write(&cache_path, &old).unwrap();
        map_with_cache(&out_b);
        assert_eq!(std::fs::read(&cache_path).unwrap()[fm_at + 4], 2);
        let index_path = dir.join("old.rpx");
        std::fs::write(&index_path, &old[12..]).unwrap();
        let err = load_reference_set(&MapOptions {
            index: Some(index_path.to_string_lossy().into_owned()),
            ..MapOptions::default()
        })
        .unwrap_err();
        assert!(
            matches!(&err, ReputeError::InputParse(m) if m.contains("version 1") && m.contains("repute index")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_args_validation() {
        let opts = parse_simulate_args(args(
            "--out-dir d --length 5000 --reads 10 --read-len 80 --seed 7 --profile perfect",
        ))
        .unwrap();
        assert_eq!(opts.length, 5000);
        assert_eq!(opts.profile, "perfect");
        assert!(parse_simulate_args(args("--length 100")).is_err());
        assert!(parse_simulate_args(args("--out-dir d --profile nope")).is_err());
    }

    #[test]
    fn simulate_then_map_end_to_end() {
        let dir = std::env::temp_dir().join("repute-cli-simulate-test");
        let dir_s = dir.to_string_lossy().into_owned();
        run_simulate(&SimulateOptions {
            out_dir: dir_s.clone(),
            length: 80_000,
            reads: 25,
            read_len: 100,
            seed: 11,
            profile: "err012100".into(),
        })
        .unwrap();
        assert!(dir.join("reference.fa").exists());
        assert!(dir.join("truth.tsv").exists());
        let truth = std::fs::read_to_string(dir.join("truth.tsv")).unwrap();
        assert_eq!(truth.lines().count(), 26); // header + 25 reads

        let out_path = dir.join("out.sam");
        let opts = parse_map_args(
            format!(
                "--reference {}/reference.fa --reads {}/reads.fq --delta 5 --output {}",
                dir_s,
                dir_s,
                out_path.display()
            )
            .split_whitespace()
            .map(String::from),
        )
        .unwrap();
        let (mapped, _) = run_map(&opts).unwrap();
        assert!(mapped >= 23, "only {mapped}/25 simulated reads mapped");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_args_validation() {
        assert!(parse_index_args(args("--reference r.fa --output o.rpx")).is_ok());
        assert!(parse_index_args(args("--reference r.fa")).is_err());
        assert!(parse_index_args(args("--output o.rpx")).is_err());
        assert!(parse_index_args(args("--wat")).is_err());
    }

    #[test]
    fn mapper_choice_parses() {
        let opts = parse_map_args(args("--reference r.fa --reads q.fq --mapper coral")).unwrap();
        assert_eq!(opts.mapper, MapperChoice::Coral);
        let opts = parse_map_args(args("--reference r.fa --reads q.fq --mapper bwa-mem")).unwrap();
        assert_eq!(opts.mapper, MapperChoice::BwaMem);
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --mapper nope")).is_err());
        // --cigar only works with the repute mapper.
        assert!(
            parse_map_args(args("--reference r.fa --reads q.fq --mapper gem --cigar")).is_err()
        );
    }

    #[test]
    fn prefilter_flags_parse_and_validate() {
        let opts = parse_map_args(args(
            "--reference r.fa --reads q.fq --prefilter both --prefilter-q 4 --prefilter-bin 256",
        ))
        .unwrap();
        assert_eq!(opts.prefilter, PrefilterMode::Both);
        assert_eq!(opts.prefilter_q, 4);
        assert_eq!(opts.prefilter_bin, 256);
        // Defaults: filtration off, crate-default q-gram parameters.
        let opts = parse_map_args(args("--reference r.fa --reads q.fq")).unwrap();
        assert_eq!(opts.prefilter, PrefilterMode::None);
        assert_eq!(opts.prefilter_q, qgram::DEFAULT_Q);
        assert_eq!(opts.prefilter_bin, qgram::DEFAULT_BIN_WIDTH);
        // Bad mode, out-of-range q, zero bin width.
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --prefilter fast")).is_err());
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --prefilter-q 9")).is_err());
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --prefilter-bin 0")).is_err());
        // The prefilter stage lives inside the repute pipeline only.
        assert!(parse_map_args(args(
            "--reference r.fa --reads q.fq --mapper coral --prefilter shd"
        ))
        .is_err());
    }

    #[test]
    fn prefiltered_map_run_matches_plain_and_reports_counters() {
        let dir = std::env::temp_dir().join("repute-cli-prefilter-test");
        let dir_s = dir.to_string_lossy().into_owned();
        run_simulate(&SimulateOptions {
            out_dir: dir_s.clone(),
            length: 60_000,
            reads: 20,
            read_len: 100,
            seed: 23,
            profile: "err012100".into(),
        })
        .unwrap();
        let run = |extra: &str, sam: &str, metrics: &str| {
            let opts = parse_map_args(
                format!(
                    "--reference {dir_s}/reference.fa --reads {dir_s}/reads.fq --delta 5 \
                     --output {dir_s}/{sam} --metrics-out {dir_s}/{metrics} {extra}"
                )
                .split_whitespace()
                .map(String::from),
            )
            .unwrap();
            run_map(&opts).unwrap()
        };
        let plain = run("", "plain.sam", "plain.jsonl");
        let filtered = run("--prefilter both", "filtered.sam", "filtered.jsonl");
        // Sound filtration: identical SAM output, reduced verification.
        assert_eq!(plain, filtered);
        assert_eq!(
            std::fs::read_to_string(dir.join("plain.sam")).unwrap(),
            std::fs::read_to_string(dir.join("filtered.sam")).unwrap()
        );
        let rendered =
            render_stats(&std::fs::read_to_string(dir.join("filtered.jsonl")).unwrap()).unwrap();
        assert!(
            rendered.contains("prefilter:") && rendered.contains("candidates rejected"),
            "missing prefilter summary in:\n{rendered}"
        );
        // The unfiltered run's telemetry renders without the summary —
        // and so do pre-prefilter files, which simply lack the fields.
        let plain_rendered =
            render_stats(&std::fs::read_to_string(dir.join("plain.jsonl")).unwrap()).unwrap();
        assert!(!plain_rendered.contains("prefilter:"));
        let legacy = "{\"type\":\"read\",\"id\":0,\"word_updates\":7,\"hits\":1}\n";
        assert!(render_stats(legacy).unwrap().contains("word_updates"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn platform_flag_parses() {
        let opts =
            parse_map_args(args("--reference r.fa --reads q.fq --platform hikey970")).unwrap();
        assert_eq!(opts.platform.as_deref(), Some("hikey970"));
    }

    #[test]
    fn schedule_flags_parse_and_validate() {
        // Defaults: static schedule, automatic host threads.
        let opts = parse_map_args(args("--reference r.fa --reads q.fq")).unwrap();
        assert_eq!(opts.schedule, ScheduleMode::Static);
        assert_eq!(opts.host_threads, 0);
        let opts = parse_map_args(args(
            "--reference r.fa --reads q.fq --schedule dynamic --host-threads 3",
        ))
        .unwrap();
        assert_eq!(opts.schedule, ScheduleMode::Dynamic);
        assert_eq!(opts.host_threads, 3);
        let opts = parse_map_args(args("--reference r.fa --reads q.fq --schedule static")).unwrap();
        assert_eq!(opts.schedule, ScheduleMode::Static);
        // Bad mode, non-integer and zero thread counts.
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --schedule greedy")).is_err());
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --host-threads x")).is_err());
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --host-threads 0")).is_err());
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --schedule")).is_err());
    }

    #[test]
    fn dynamic_schedule_run_matches_static_sam_output() {
        let dir = std::env::temp_dir().join("repute-cli-schedule-test");
        let dir_s = dir.to_string_lossy().into_owned();
        run_simulate(&SimulateOptions {
            out_dir: dir_s.clone(),
            length: 60_000,
            reads: 16,
            read_len: 100,
            seed: 29,
            profile: "err012100".into(),
        })
        .unwrap();
        let run = |extra: &str, sam: &str| {
            let opts = parse_map_args(
                format!(
                    "--reference {dir_s}/reference.fa --reads {dir_s}/reads.fq --delta 5 \
                     --platform system1 --output {dir_s}/{sam} {extra}"
                )
                .split_whitespace()
                .map(String::from),
            )
            .unwrap();
            run_map(&opts).unwrap()
        };
        let static_counts = run("--schedule static", "static.sam");
        let dynamic_counts = run("--schedule dynamic --host-threads 2", "dynamic.sam");
        let sequential_counts = run("--host-threads 1", "sequential.sam");
        // Schedule and thread count change the simulated timeline only:
        // the SAM output is byte-identical.
        assert_eq!(static_counts, dynamic_counts);
        assert_eq!(static_counts, sequential_counts);
        let static_sam = std::fs::read_to_string(dir.join("static.sam")).unwrap();
        assert_eq!(
            static_sam,
            std::fs::read_to_string(dir.join("dynamic.sam")).unwrap()
        );
        assert_eq!(
            static_sam,
            std::fs::read_to_string(dir.join("sequential.sam")).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_and_verbose_flags_parse() {
        let opts = parse_map_args(args(
            "--reference r.fa --reads q.fq --metrics-out m.jsonl -v",
        ))
        .unwrap();
        assert_eq!(opts.metrics_out.as_deref(), Some("m.jsonl"));
        assert!(opts.verbose);
        for alias in ["--verbose", "--trace"] {
            let opts =
                parse_map_args(args(&format!("--reference r.fa --reads q.fq {alias}"))).unwrap();
            assert!(opts.verbose, "{alias} should enable verbose");
        }
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --metrics-out")).is_err());
    }

    #[test]
    fn stats_args_validation() {
        assert_eq!(
            parse_stats_args(args("m.jsonl")).unwrap(),
            StatsOptions {
                inputs: vec!["m.jsonl".into()],
                dir: None,
                strict: false,
            }
        );
        assert_eq!(
            parse_stats_args(args("--strict m.jsonl")).unwrap(),
            StatsOptions {
                inputs: vec!["m.jsonl".into()],
                dir: None,
                strict: true,
            }
        );
        // Several files merge; --dir alone is enough.
        assert_eq!(
            parse_stats_args(args("a.jsonl b.jsonl")).unwrap().inputs,
            vec!["a.jsonl".to_string(), "b.jsonl".to_string()],
        );
        assert_eq!(
            parse_stats_args(args("--dir spool")).unwrap(),
            StatsOptions {
                inputs: Vec::new(),
                dir: Some("spool".into()),
                strict: false,
            }
        );
        assert!(parse_stats_args(args("")).is_err());
        assert!(parse_stats_args(args("--dir")).is_err());
        assert!(parse_stats_args(args("--dir a --dir b")).is_err());
        assert!(parse_stats_args(args("--wat m.jsonl")).is_err());
    }

    #[test]
    fn serve_and_submit_args_validation() {
        let opts =
            parse_serve_args(args("--reference r.fa --socket s.sock --queue-capacity 8")).unwrap();
        assert_eq!(opts.queue_capacity, 8);
        assert_eq!(opts.schedule, ScheduleMode::Dynamic);
        let opts = parse_serve_args(args(
            "--reference r.fa --spool jobs --once --tenant-weight acme=3 --tenant-weight lab=0.5",
        ))
        .unwrap();
        assert!(opts.once);
        assert_eq!(
            opts.tenant_weights,
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
        assert_eq!(opts.tenant_quotas, vec![("acme".to_string(), 500)]);
        assert!((opts.quota_window_s - 30.0).abs() < f64::EPSILON);
        assert_eq!(opts.journal_compact_threshold, 16);
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

    #[test]
    fn stats_renders_merged_serve_and_job_records() {
        let text = concat!(
            "{\"type\":\"job\",\"seq\":0,\"id\":\"a\",\"tenant\":\"acme\",\"reads\":2,",
            "\"mappings\":3,\"batch\":0,\"latency_s\":0.25,\"replayed\":false}\n",
            "{\"type\":\"job\",\"seq\":1,\"id\":\"b\",\"tenant\":\"lab\",\"reads\":1,",
            "\"mappings\":1,\"batch\":0,\"latency_s\":0.75,\"replayed\":true}\n",
            "{\"type\":\"serve\",\"accepted\":2,\"rejected\":1,\"retry_later\":1,",
            "\"quota_exceeded\":2,\"completed\":2,\"replayed\":1,\"batches\":1,",
            "\"compactions\":1,\"connection_errors\":3,\"spool_skipped\":1,",
            "\"queue_depth\":0,\"queue_depth_max\":2,\"simulated_seconds\":0.75}\n",
            // A second snapshot (another file, concatenated): counters sum.
            "{\"type\":\"serve\",\"accepted\":3,\"rejected\":0,\"retry_later\":0,",
            "\"completed\":3,\"replayed\":0,\"batches\":2,\"queue_depth\":0,",
            "\"queue_depth_max\":3,\"simulated_seconds\":1.25}\n",
        );
        let rendered = render_stats_strict(text).unwrap();
        assert!(rendered.contains("accepted 5"), "{rendered}");
        assert!(rendered.contains("rejected 1"), "{rendered}");
        assert!(rendered.contains("queue depth high-water 3"), "{rendered}");
        assert!(
            rendered.contains("jobs: 2 completed (1 replayed)"),
            "{rendered}"
        );
        assert!(rendered.contains("tenant acme"), "{rendered}");
        // Pooled percentiles over both jobs' latencies.
        assert!(rendered.contains("job latency (merged"), "{rendered}");
        assert!(rendered.contains("n=2"), "{rendered}");
    }

    #[test]
    fn render_stats_is_lenient_by_default_and_strict_on_request() {
        // Lenient: malformed lines are skipped with a count, intact
        // records still render.
        let mixed = "not json\n{\"type\":\"read\",\"id\":0,\"hits\":1}\ngarbage{\n";
        let rendered = render_stats(mixed).unwrap();
        assert!(rendered.contains("1 read records"), "{rendered}");
        assert!(
            rendered.contains("warning: skipped 2 malformed line(s)"),
            "{rendered}"
        );
        // Only-garbage input: the warning alone, not "no records".
        let garbage = render_stats("not json\n").unwrap();
        assert!(garbage.contains("skipped 1 malformed line(s)"), "{garbage}");
        assert!(!garbage.contains("no telemetry records"));
        // Strict: the first malformed line is an error naming its number.
        let err = render_stats_strict(mixed).unwrap_err().to_string();
        assert!(err.contains("line 1"), "{err}");
        assert!(render_stats_strict("{\"type\":\"read\",\"id\":0,\"hits\":1}\n").is_ok());
        assert_eq!(render_stats("").unwrap(), "no telemetry records\n");
    }

    #[test]
    fn fault_flags_parse_and_validate() {
        let opts = parse_map_args(args(
            "--reference r.fa --reads q.fq --platform system1 \
             --fault-plan transient:d0@0.1x2,loss:d1@0.5 --max-retries 4",
        ))
        .unwrap();
        assert_eq!(
            opts.fault_plan.as_deref(),
            Some("transient:d0@0.1x2,loss:d1@0.5")
        );
        assert_eq!(opts.max_retries, 4);
        // Defaults.
        let opts = parse_map_args(args("--reference r.fa --reads q.fq")).unwrap();
        assert_eq!(opts.fault_plan, None);
        assert_eq!(opts.max_retries, DEFAULT_MAX_RETRIES);
        // A fault plan without a platform has nothing to inject into.
        assert!(parse_map_args(args(
            "--reference r.fa --reads q.fq --fault-plan loss:d0@0.1"
        ))
        .is_err());
        // Malformed specs are rejected at parse time, not mid-run.
        assert!(parse_map_args(args(
            "--reference r.fa --reads q.fq --platform system1 --fault-plan loss:x"
        ))
        .is_err());
        assert!(parse_map_args(args(
            "--reference r.fa --reads q.fq --platform system1 --max-retries x"
        ))
        .is_err());
    }

    #[test]
    fn faulted_platform_run_matches_fault_free_sam_output() {
        let dir = std::env::temp_dir().join("repute-cli-fault-test");
        let dir_s = dir.to_string_lossy().into_owned();
        run_simulate(&SimulateOptions {
            out_dir: dir_s.clone(),
            length: 60_000,
            reads: 16,
            read_len: 100,
            seed: 31,
            profile: "err012100".into(),
        })
        .unwrap();
        let run = |extra: &str, sam: &str| {
            let opts = parse_map_args(
                format!(
                    "--reference {dir_s}/reference.fa --reads {dir_s}/reads.fq --delta 5 \
                     --platform system1 --output {dir_s}/{sam} {extra}"
                )
                .split_whitespace()
                .map(String::from),
            )
            .unwrap();
            run_map(&opts).unwrap()
        };
        let clean = run("", "clean.sam");
        let faulted = run(
            "--fault-plan transient:d0@0,slow:d1@0x0.5 --max-retries 3",
            "faulted.sam",
        );
        // Faults change the simulated timeline only: SAM is identical.
        assert_eq!(clean, faulted);
        assert_eq!(
            std::fs::read_to_string(dir.join("clean.sam")).unwrap(),
            std::fs::read_to_string(dir.join("faulted.sam")).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_out_round_trips_through_stats() {
        let dir = std::env::temp_dir().join("repute-cli-metrics-test");
        let dir_s = dir.to_string_lossy().into_owned();
        run_simulate(&SimulateOptions {
            out_dir: dir_s.clone(),
            length: 60_000,
            reads: 15,
            read_len: 100,
            seed: 19,
            profile: "err012100".into(),
        })
        .unwrap();
        let metrics_path = dir.join("metrics.jsonl");
        let opts = parse_map_args(
            format!(
                "--reference {dir_s}/reference.fa --reads {dir_s}/reads.fq --delta 5 \
                 --output {dir_s}/out.sam --platform system1 --metrics-out {}",
                metrics_path.display()
            )
            .split_whitespace()
            .map(String::from),
        )
        .unwrap();
        run_map(&opts).unwrap();

        // Every line parses as a flat JSON object and the record mix is
        // what the acceptance criteria call for: per-read counters,
        // per-device timelines with queued/start/end, and energy.
        use repute_obs::json::{field, parse_flat_object};
        let text = std::fs::read_to_string(&metrics_path).unwrap();
        let mut read_lines = 0;
        let mut kinds = Vec::new();
        for line in text.lines() {
            let fields = parse_flat_object(line).expect("line parses");
            let kind = field(&fields, "type")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            if kind == "read" {
                read_lines += 1;
                assert!(field(&fields, "word_updates").unwrap().as_u64().is_some());
            }
            if kind == "event" {
                let queued = field(&fields, "queued_s").unwrap().as_f64().unwrap();
                let start = field(&fields, "start_s").unwrap().as_f64().unwrap();
                let end = field(&fields, "end_s").unwrap().as_f64().unwrap();
                assert!(queued <= start && start <= end);
            }
            kinds.push(kind);
        }
        assert_eq!(read_lines, 15);
        for expected in ["run", "stage", "device", "event", "energy"] {
            assert!(kinds.iter().any(|k| k == expected), "missing {expected}");
        }

        // `repute stats` renders the same file.
        let rendered = render_stats(&text).unwrap();
        for needle in [
            "15 read records",
            "word_updates",
            "device",
            "energy:",
            "stage",
        ] {
            assert!(
                rendered.contains(needle),
                "missing {needle:?} in:\n{rendered}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reference_and_index_are_exclusive() {
        assert!(parse_map_args(args("--reference r.fa --index i.rpx --reads q.fq")).is_err());
        assert!(parse_map_args(args("--index i.rpx --reads q.fq")).is_ok());
    }

    #[test]
    fn checkpoint_flags_parse_and_validate() {
        let opts = parse_map_args(args(
            "--reference r.fa --reads q.fq --platform system1 \
             --checkpoint j.rpj --checkpoint-every 3",
        ))
        .unwrap();
        assert_eq!(opts.checkpoint.as_deref(), Some("j.rpj"));
        assert_eq!(opts.checkpoint_every, 3);
        assert!(!opts.resume);
        let opts = parse_map_args(args(
            "--reference r.fa --reads q.fq --platform system1 --checkpoint j.rpj --resume",
        ))
        .unwrap();
        assert!(opts.resume);
        // Defaults.
        let opts = parse_map_args(args("--reference r.fa --reads q.fq")).unwrap();
        assert_eq!(opts.checkpoint, None);
        assert_eq!(opts.checkpoint_every, 1);
        // The journal is batch-granular over the simulated schedule.
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --checkpoint j.rpj")).is_err());
        // --resume / --checkpoint-every ride on --checkpoint.
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --resume")).is_err());
        assert!(
            parse_map_args(args("--reference r.fa --reads q.fq --checkpoint-every 2")).is_err()
        );
        assert!(parse_map_args(args(
            "--reference r.fa --reads q.fq --platform system1 --checkpoint j.rpj \
             --checkpoint-every 0"
        ))
        .is_err());
        // CIGAR traceback is per-read; the journal is per-batch.
        assert!(parse_map_args(args(
            "--reference r.fa --reads q.fq --platform system1 --checkpoint j.rpj --cigar"
        ))
        .is_err());
        // Host-crash events require a journal to crash into…
        assert!(parse_map_args(args(
            "--reference r.fa --reads q.fq --platform system1 --fault-plan crash:@0.5"
        ))
        .is_err());
        // …and device faults cannot mix with a checkpointed run.
        assert!(parse_map_args(args(
            "--reference r.fa --reads q.fq --platform system1 --checkpoint j.rpj \
             --fault-plan loss:d0@0.1"
        ))
        .is_err());
        // The valid combination parses.
        assert!(parse_map_args(args(
            "--reference r.fa --reads q.fq --platform system1 --checkpoint j.rpj \
             --fault-plan crash:@0.5"
        ))
        .is_ok());
    }

    #[test]
    fn checkpointed_run_crashes_resumes_and_matches_plain_output() {
        let dir = std::env::temp_dir().join("repute-cli-checkpoint-test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_string_lossy().into_owned();
        run_simulate(&SimulateOptions {
            out_dir: dir_s.clone(),
            length: 60_000,
            reads: 24,
            read_len: 100,
            seed: 37,
            profile: "err012100".into(),
        })
        .unwrap();
        let parse = |extra: &str, sam: &str| {
            parse_map_args(
                format!(
                    "--reference {dir_s}/reference.fa --reads {dir_s}/reads.fq --delta 5 \
                     --platform system1 --schedule dynamic --output {dir_s}/{sam} {extra}"
                )
                .split_whitespace()
                .map(String::from),
            )
            .unwrap()
        };

        // Ground truth: the same run without a checkpoint.
        let plain_counts = run_map(&parse("", "plain.sam")).unwrap();

        // A crash early in the simulated timeline leaves a partial
        // journal and the distinct `Interrupted` failure class.
        let crashed = parse(
            "--checkpoint ckpt.rpj --fault-plan crash:@0.000001",
            "crashed.sam",
        );
        let crashed = MapOptions {
            checkpoint: Some(dir.join("ckpt.rpj").to_string_lossy().into_owned()),
            ..crashed
        };
        let err = run_map(&crashed).unwrap_err();
        assert_eq!(err.exit_code(), 8, "{err}");
        assert!(matches!(err, ReputeError::Interrupted { .. }));
        // The atomic SAM write never ran: no torn output file.
        assert!(!dir.join("crashed.sam").exists());

        // Re-running without --resume refuses the existing journal.
        let mut resumed = parse("", "resumed.sam");
        resumed.checkpoint = Some(dir.join("ckpt.rpj").to_string_lossy().into_owned());
        let err = run_map(&resumed).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");

        // Resuming (without the crash event) finishes the run and the
        // SAM is byte-identical to the uncheckpointed one.
        resumed.resume = true;
        let resumed_counts = run_map(&resumed).unwrap();
        assert_eq!(resumed_counts, plain_counts);
        assert_eq!(
            std::fs::read(dir.join("plain.sam")).unwrap(),
            std::fs::read(dir.join("resumed.sam")).unwrap()
        );

        // A resume under a different configuration is refused with the
        // resume-mismatch class before any mapping work happens.
        let mut mismatched = resumed.clone();
        mismatched.delta = 4;
        let err = run_map(&mismatched).unwrap_err();
        assert_eq!(err.exit_code(), 6, "{err}");
        assert!(matches!(err, ReputeError::ResumeMismatch(_)));

        std::fs::remove_dir_all(&dir).ok();
    }

    /// One read's output (40 M locations × 12 bytes) exceeds the GTX
    /// 590's quarter-RAM cap: a configuration error under every way of
    /// simulating, where the static planner used to panic.
    #[test]
    fn a_read_too_big_for_a_device_exits_with_a_configuration_error() {
        let dir = std::env::temp_dir().join("repute-cli-too-big-test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_string_lossy().into_owned();
        run_simulate(&SimulateOptions {
            out_dir: dir_s.clone(),
            length: 30_000,
            reads: 6,
            read_len: 100,
            seed: 41,
            profile: "err012100".into(),
        })
        .unwrap();
        for (i, extra) in [
            "",
            "--schedule dynamic",
            "--fault-plan transient:d0@0",
            "--schedule dynamic --fault-plan loss:d1@0",
            "--checkpoint CKPT",
            "--checkpoint CKPT --schedule dynamic",
        ]
        .into_iter()
        .enumerate()
        {
            let checkpointed = extra.contains("--checkpoint");
            let extra = extra.replace("CKPT", &format!("{dir_s}/ckpt.rpj"));
            let opts = parse_map_args(
                format!(
                    "--reference {dir_s}/reference.fa --reads {dir_s}/reads.fq \
                     --platform system1 --max-locations 40000000 \
                     --output {dir_s}/out{i}.sam {extra}"
                )
                .split_whitespace()
                .map(String::from),
            )
            .unwrap();
            let err = run_map(&opts).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{extra:?}: {err}");
            assert!(
                err.to_string().contains("invalid launch distribution"),
                "{extra:?}: {err}"
            );
            if checkpointed {
                // Planning fails before anything is written.
                assert!(!dir.join(format!("out{i}.sam")).exists(), "{extra:?}");
                assert!(!dir.join("ckpt.rpj").exists(), "{extra:?}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_out_flag_parses_and_requires_platform() {
        let opts = parse_map_args(args(
            "--reference r.fa --reads q.fq --platform system1 --trace-out t.json",
        ))
        .unwrap();
        assert_eq!(opts.trace_out.as_deref(), Some("t.json"));
        // Default: tracing disabled.
        let opts = parse_map_args(args("--reference r.fa --reads q.fq")).unwrap();
        assert_eq!(opts.trace_out, None);
        // Spans live on the simulated timeline.
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --trace-out t.json")).is_err());
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --trace-out")).is_err());
    }

    #[test]
    fn trace_args_validation() {
        assert_eq!(
            parse_trace_args(args("t.json")).unwrap(),
            TraceOptions {
                input: "t.json".into()
            }
        );
        assert!(parse_trace_args(args("")).is_err());
        assert!(parse_trace_args(args("a.json b.json")).is_err());
        assert!(parse_trace_args(args("--wat t.json")).is_err());
    }

    #[test]
    fn trace_out_is_deterministic_valid_and_summarizable() {
        let dir = std::env::temp_dir().join("repute-cli-trace-test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_string_lossy().into_owned();
        run_simulate(&SimulateOptions {
            out_dir: dir_s.clone(),
            length: 60_000,
            reads: 16,
            read_len: 100,
            seed: 43,
            profile: "err012100".into(),
        })
        .unwrap();
        let run = |extra: &str, trace: &str| {
            let opts = parse_map_args(
                format!(
                    "--reference {dir_s}/reference.fa --reads {dir_s}/reads.fq --delta 5 \
                     --platform system1 --output {dir_s}/out.sam --trace-out {dir_s}/{trace} \
                     {extra}"
                )
                .split_whitespace()
                .map(String::from),
            )
            .unwrap();
            run_map(&opts).unwrap();
            std::fs::read(dir.join(trace)).unwrap()
        };

        // Two identical runs: byte-identical trace files, even with the
        // host-thread count varied (spans are sorted canonically).
        let a = run("--schedule dynamic --host-threads 2", "a.json");
        let b = run("--schedule dynamic --host-threads 4", "b.json");
        assert_eq!(a, b, "identical runs must produce byte-identical traces");

        // The file is a valid Chrome trace event array: every element is
        // an object whose ph is M or X.
        let text = String::from_utf8(a).unwrap();
        let parsed = repute_obs::json::parse_json(&text).unwrap();
        let events = parsed.as_arr().unwrap();
        assert!(!events.is_empty());
        for ev in events {
            let fields = ev.as_obj().unwrap();
            let ph = repute_obs::json::field(fields, "ph")
                .and_then(repute_obs::json::JsonValue::as_str)
                .unwrap();
            assert!(ph == "M" || ph == "X", "unexpected phase {ph:?}");
        }

        // Batch spans carry the read-range args; `repute trace` rolls the
        // file up with per-category percentiles.
        assert!(
            text.contains("\"cat\":\"batch\"") && text.contains("\"lo\":"),
            "{text}"
        );
        let summary = render_trace_summary(&text).unwrap();
        for needle in ["span event(s)", "scheduler", "kernel", "batch", "p99"] {
            assert!(
                summary.contains(needle),
                "missing {needle:?} in:\n{summary}"
            );
        }

        // A faulted static run traces retries and migrations too.
        let faulted = run("--fault-plan transient:d0@0x2 --max-retries 3", "f.json");
        let faulted = String::from_utf8(faulted).unwrap();
        assert!(
            faulted.contains("\"cat\":\"retry\"") && faulted.contains("\"cat\":\"fault\""),
            "{faulted}"
        );

        // A checkpointed run traces the journal commits.
        let ckpt = run(
            &format!("--schedule dynamic --checkpoint {dir_s}/t.rpj"),
            "c.json",
        );
        let ckpt = String::from_utf8(ckpt).unwrap();
        assert!(ckpt.contains("\"cat\":\"checkpoint\""), "{ckpt}");

        // Garbage is rejected with the input-parse class.
        assert!(render_trace_summary("{\"not\":\"an array\"}").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_renders_latency_percentile_table() {
        let dir = std::env::temp_dir().join("repute-cli-latency-test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_string_lossy().into_owned();
        run_simulate(&SimulateOptions {
            out_dir: dir_s.clone(),
            length: 60_000,
            reads: 15,
            read_len: 100,
            seed: 47,
            profile: "err012100".into(),
        })
        .unwrap();
        let metrics_path = dir.join("m.jsonl");
        let opts = parse_map_args(
            format!(
                "--reference {dir_s}/reference.fa --reads {dir_s}/reads.fq --delta 5 \
                 --output {dir_s}/out.sam --platform system1 --metrics-out {}",
                metrics_path.display()
            )
            .split_whitespace()
            .map(String::from),
        )
        .unwrap();
        run_map(&opts).unwrap();

        let text = std::fs::read_to_string(&metrics_path).unwrap();
        // The telemetry carries latency records with the percentile keys…
        assert!(text.contains("\"type\":\"latency\""), "{text}");
        for key in ["\"p50_s\":", "\"p90_s\":", "\"p99_s\":"] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
        // …and `repute stats` renders them as a table with one header.
        let rendered = render_stats(&text).unwrap();
        assert!(
            rendered.contains("latency percentiles (simulated seconds)"),
            "{rendered}"
        );
        assert!(rendered.contains("map/filtration"), "{rendered}");
        assert!(rendered.contains("batch"), "{rendered}");
        assert_eq!(
            rendered.matches("latency percentiles").count(),
            1,
            "{rendered}"
        );
        // Legacy telemetry (no latency records) still renders.
        let legacy =
            "{\"type\":\"run\",\"reads\":1,\"simulated_seconds\":0.5,\"wall_seconds\":1.0}\n";
        let legacy_rendered = render_stats(legacy).unwrap();
        assert!(!legacy_rendered.contains("latency percentiles"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointed_metrics_surface_resumed_batches_in_stats() {
        let dir = std::env::temp_dir().join("repute-cli-checkpoint-stats-test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_string_lossy().into_owned();
        run_simulate(&SimulateOptions {
            out_dir: dir_s.clone(),
            length: 60_000,
            reads: 20,
            read_len: 100,
            seed: 41,
            profile: "err012100".into(),
        })
        .unwrap();
        let parse = |extra: &str| {
            parse_map_args(
                format!(
                    "--reference {dir_s}/reference.fa --reads {dir_s}/reads.fq --delta 5 \
                     --platform system1 --schedule dynamic --output {dir_s}/out.sam \
                     --checkpoint {dir_s}/ckpt.rpj --metrics-out {dir_s}/m.jsonl {extra}"
                )
                .split_whitespace()
                .map(String::from),
            )
            .unwrap()
        };
        // Complete a checkpointed run, then resume its finished journal:
        // every batch replays, so the provenance counter is nonzero.
        run_map(&parse("")).unwrap();
        run_map(&parse("--resume")).unwrap();

        // The run record carries the replayed-batch count; per-read
        // records cover the whole run exactly once (no double-counting).
        let text = std::fs::read_to_string(dir.join("m.jsonl")).unwrap();
        let read_lines = text
            .lines()
            .filter(|l| l.contains("\"type\":\"read\""))
            .count();
        assert_eq!(read_lines, 20);
        assert!(text.contains("\"resumed_batches\":"), "{text}");
        let rendered = render_stats(&text).unwrap();
        assert!(
            rendered.contains("resumed from checkpoint:") && rendered.contains("replayed"),
            "missing resume provenance in:\n{rendered}"
        );
        assert!(rendered.contains("20 read records"), "{rendered}");

        // An unresumed telemetry file renders without the provenance line.
        std::fs::remove_file(dir.join("ckpt.rpj")).unwrap();
        std::fs::remove_file(dir.join("ckpt.rpj.manifest")).unwrap();
        run_map(&parse("")).unwrap();
        let fresh = render_stats(&std::fs::read_to_string(dir.join("m.jsonl")).unwrap()).unwrap();
        assert!(!fresh.contains("resumed from checkpoint:"), "{fresh}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
