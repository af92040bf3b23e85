//! `repute map`: options, the flags it shares with `repute serve`, and
//! the run itself — one path from reads to SAM and report, mapped read
//! by read or, under `--platform`, by the simulated executor.

use std::fs::File;
use std::io::{BufReader, Write};
use std::path::Path;
use std::sync::Arc;

use repute_core::journal::Fnv64;
use repute_core::{
    write_atomic, Executor, MappingRun, ReputeConfig, ReputeError, ReputeMapper, RunFingerprint,
    Schedule, ScheduleMode, DEFAULT_MAX_RETRIES,
};
use repute_eval::sam::SamAssembly;
use repute_genome::fastq::FastqReader;
use repute_genome::DnaSeq;
use repute_hetsim::FaultPlan;
use repute_mappers::multiref::ReferenceSet;
use repute_mappers::{Mapper, Mapping};
use repute_obs::{MapMetrics, Record, RunReport, StageTimer, Summary};
use repute_prefilter::{qgram, PrefilterMode};
/// Which mapping strategy `repute map` runs.
pub use repute_serve::MapperKind as MapperChoice;

use crate::args::{Cursor, ParseArgsError};
use crate::index::load_reference_set;

/// Parsed command-line options for `repute map`.
#[derive(Debug, Clone, PartialEq)]
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
    /// Fault-injection plan for the platform simulation (parsed from
    /// the [`FaultPlan::parse`] spec syntax, e.g.
    /// `"transient:d0@0.1,loss:d2@0.5"`); requires `--platform`.
    pub fault_plan: Option<FaultPlan>,
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

impl MapOptions {
    /// The rules between options that hold however the struct was built:
    /// [`parse_map_args`] applies them to a command line, [`run_map`] to
    /// an options struct assembled in code.
    ///
    /// # Errors
    ///
    /// Returns the [`ParseArgsError`] the equivalent flags would get.
    pub fn validate(&self) -> Result<(), ParseArgsError> {
        if self.checkpoint.is_none() {
            return Ok(());
        }
        if self.platform.is_none() {
            return Err(ParseArgsError::new(
                "--checkpoint requires --platform (the journal is batch-granular \
                 over the simulated schedule)",
            ));
        }
        if self.cigar {
            return Err(ParseArgsError::new(
                "--cigar is incompatible with --checkpoint (CIGAR traceback is \
                 per-read, the journal is per-batch)",
            ));
        }
        if self
            .fault_plan
            .as_ref()
            .is_some_and(FaultPlan::has_device_events)
        {
            return Err(ParseArgsError::new(
                "checkpointed runs accept crash:@<t> fault events only \
                 (device faults would make the journaled timeline \
                 irreproducible)",
            ));
        }
        Ok(())
    }
}

/// The flags `repute map` and `repute serve` share, as the places in
/// either options struct their values go, plus what the rules after the
/// loop need to know about which of them were given.
pub(crate) struct MappingFlags<'a> {
    pub(crate) reference: &'a mut String,
    pub(crate) index: &'a mut Option<String>,
    pub(crate) index_cache: &'a mut Option<String>,
    pub(crate) delta: &'a mut u32,
    pub(crate) s_min: &'a mut usize,
    pub(crate) max_locations: &'a mut usize,
    pub(crate) prefilter: &'a mut PrefilterMode,
    pub(crate) prefilter_q: &'a mut usize,
    pub(crate) prefilter_bin: &'a mut usize,
    pub(crate) schedule: &'a mut ScheduleMode,
    pub(crate) host_threads: &'a mut usize,
    pub(crate) max_retries: &'a mut usize,
    pub(crate) metrics_out: &'a mut Option<String>,
    pub(crate) trace_out: &'a mut Option<String>,
    /// `--fault-plan`, for the subcommand to judge and put in place.
    pub(crate) fault_plan: Option<FaultPlan>,
}

impl MappingFlags<'_> {
    /// Takes the cursor's current flag if it is one of the shared ones;
    /// `false` leaves it to the subcommand.
    pub(crate) fn accept(&mut self, cur: &mut Cursor) -> Result<bool, ParseArgsError> {
        match cur.flag() {
            "--reference" => *self.reference = cur.value()?,
            "--index" => *self.index = Some(cur.value()?),
            "--index-cache" => *self.index_cache = Some(cur.value()?),
            "--delta" => *self.delta = cur.integer()?,
            "--s-min" => *self.s_min = cur.integer()?,
            "--max-locations" => *self.max_locations = cur.positive()?,
            "--prefilter" => *self.prefilter = cur.explained(str::parse)?,
            "--prefilter-q" => {
                *self.prefilter_q = cur.integer()?;
                if !(1..=qgram::MAX_Q).contains(self.prefilter_q) {
                    return Err(cur.fail(format_args!("must be in 1..={}", qgram::MAX_Q)));
                }
            }
            "--prefilter-bin" => *self.prefilter_bin = cur.positive()?,
            "--schedule" => {
                let mode = cur.value()?;
                *self.schedule = ScheduleMode::parse(&mode).ok_or_else(|| {
                    ParseArgsError::new(format!("unknown schedule {mode:?} (static, dynamic)"))
                })?;
            }
            "--host-threads" => {
                *self.host_threads = cur.integer()?;
                if *self.host_threads == 0 {
                    return Err(cur.fail("must be positive (omit the flag for automatic)"));
                }
            }
            "--fault-plan" => self.fault_plan = Some(cur.explained(FaultPlan::parse)?),
            "--max-retries" => *self.max_retries = cur.integer()?,
            "--metrics-out" => *self.metrics_out = Some(cur.value()?),
            "--trace-out" => *self.trace_out = Some(cur.value()?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Ends the loop: hands back the `--fault-plan`, and the verdict of
    /// the rules among `--reference`, `--index` and `--index-cache` for
    /// the subcommand to raise at their place among its own rules.
    pub(crate) fn finish(self, cur: &Cursor) -> (Option<FaultPlan>, Result<(), ParseArgsError>) {
        let verdict = if !(cur.saw("--reference") || cur.saw("--index")) {
            Err("--reference or --index is required")
        } else if self.index.is_some() && !self.reference.is_empty() {
            Err("--reference and --index are mutually exclusive")
        } else if self.index_cache.is_some() && self.index.is_some() {
            Err("--index-cache requires --reference (a prebuilt --index is \
                 already the cache)")
        } else {
            Ok(())
        };
        (self.fault_plan, verdict.map_err(ParseArgsError::new))
    }
}

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
    let mut shared = MappingFlags {
        reference: &mut opts.reference,
        index: &mut opts.index,
        index_cache: &mut opts.index_cache,
        delta: &mut opts.delta,
        s_min: &mut opts.s_min,
        max_locations: &mut opts.max_locations,
        prefilter: &mut opts.prefilter,
        prefilter_q: &mut opts.prefilter_q,
        prefilter_bin: &mut opts.prefilter_bin,
        schedule: &mut opts.schedule,
        host_threads: &mut opts.host_threads,
        max_retries: &mut opts.max_retries,
        metrics_out: &mut opts.metrics_out,
        trace_out: &mut opts.trace_out,
        fault_plan: None,
    };
    let mut cur = Cursor::new(args);
    while cur.advance()? {
        if shared.accept(&mut cur)? {
            continue;
        }
        match cur.flag() {
            "--reads" => opts.reads = cur.value()?,
            "--output" => opts.output = Some(cur.value()?),
            "--cigar" => opts.cigar = true,
            "--mapper" => opts.mapper = cur.value()?.parse().map_err(ParseArgsError::new)?,
            "--platform" => opts.platform = Some(cur.value()?),
            "--checkpoint" => opts.checkpoint = Some(cur.value()?),
            "--resume" => opts.resume = true,
            "--checkpoint-every" => opts.checkpoint_every = cur.positive()?,
            "-v" | "--verbose" | "--trace" => opts.verbose = true,
            _ => return Err(cur.unknown()),
        }
    }
    let (fault_plan, reference_rules) = shared.finish(&cur);
    opts.fault_plan = fault_plan;
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
    opts.validate()?;
    if opts.resume && opts.checkpoint.is_none() {
        return Err(ParseArgsError::new("--resume requires --checkpoint"));
    }
    if cur.saw("--checkpoint-every") && opts.checkpoint.is_none() {
        return Err(ParseArgsError::new(
            "--checkpoint-every requires --checkpoint",
        ));
    }
    let crash = opts.fault_plan.as_ref().and_then(FaultPlan::host_crash_at);
    if crash.is_some() && opts.checkpoint.is_none() {
        return Err(ParseArgsError::new(
            "crash:@<t> events require --checkpoint (only a journaled \
             run can survive a host crash)",
        ));
    }
    if opts.cigar && opts.mapper != MapperChoice::Repute {
        return Err(ParseArgsError::new("--cigar requires the repute mapper"));
    }
    if opts.prefilter != PrefilterMode::None && opts.mapper != MapperChoice::Repute {
        return Err(ParseArgsError::new(
            "--prefilter requires the repute mapper",
        ));
    }
    reference_rules?;
    if !cur.saw("--reads") {
        return Err(ParseArgsError::new("--reads is required"));
    }
    Ok(opts)
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

/// Routes assembled SAM bytes to their destination: an atomic
/// write-then-rename for a file path, a plain stream for stdout.
pub(crate) fn write_sam_output(path: Option<&str>, sam: &[u8]) -> Result<(), ReputeError> {
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

/// Runs `repute map`: load, map, SAM, report — one path, whose only
/// branch is how the reads get mapped. Without `--platform` the FASTQ
/// streams through the mapper read by read. With one, the whole read
/// set goes through one [`Executor`] (journaled under `--checkpoint`),
/// which maps every read once and prices the run on the simulated
/// devices, and the SAM is assembled from its outputs; a run that fails
/// there has written no SAM. The SAM is assembled in memory and
/// committed in one atomic rename either way, so an interrupted run
/// never leaves a torn output file behind.
///
/// Returns `(reads_mapped, mappings_reported)`.
///
/// # Errors
///
/// Propagates I/O, format and configuration errors, each carrying the
/// distinct exit code of its [`ReputeError`] class.
pub fn run_map(opts: &MapOptions) -> Result<(usize, usize), ReputeError> {
    opts.validate()?;
    // Fail fast on an unknown platform, before any file is opened.
    let platform = opts.platform.as_deref().map(platform_by_name).transpose()?;
    let run_started = std::time::Instant::now();
    let mut timer = StageTimer::new();
    timer.start("load");
    let set = load_reference_set(
        &opts.reference,
        opts.index.as_deref(),
        opts.index_cache.as_deref(),
    )?;
    // A simulated run plans its batches over the whole read set.
    let simulated = match platform {
        Some(platform) => {
            let (ids, reads) = load_reads(&opts.reads)?;
            Some((platform, ids, reads))
        }
        None => None,
    };
    timer.stop();
    let config = build_config(opts)?;
    let repute = ReputeMapper::new(Arc::clone(set.indexed()), config);
    let baseline = (opts.mapper != MapperChoice::Repute)
        .then(|| opts.mapper.build(Arc::clone(set.indexed()), config));

    let mut sam = SamAssembly::new(&set)?;
    let mut per_read: Vec<Vec<Mapping>> = Vec::new();
    // Appends one read to the SAM and to the closing statistics. Under
    // `--cigar` its mappings get their traceback first: the positions
    // are refined to the alignments' starts and the first carries its
    // CIGAR.
    let mut emit = |id: &str, seq: &DnaSeq, mappings: &[Mapping]| -> Result<(), ReputeError> {
        let resolved = if opts.cigar {
            let detailed = repute.cigars_for(seq, mappings);
            let refined: Vec<Mapping> = detailed.iter().map(|d| d.mapping).collect();
            sam.push(id, seq, &refined, detailed.first().map(|d| &d.cigar))?
        } else {
            sam.push(id, seq, mappings, None)?
        };
        let mappings = resolved.iter().map(|r| Mapping {
            position: r.position,
            strand: r.strand,
            distance: r.distance,
        });
        per_read.push(mappings.collect());
        Ok(())
    };

    timer.start("map");
    let (per_read_metrics, mut report) = match &simulated {
        None => {
            let reads_path = Path::new(&opts.reads);
            let reads_file =
                File::open(reads_path).map_err(|e| ReputeError::io_at(reads_path, e))?;
            let mut per_read_metrics: Vec<MapMetrics> = Vec::new();
            for record in FastqReader::new(BufReader::new(reads_file)) {
                let record = record?;
                let mut read_metrics = MapMetrics::new();
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
                if opts.verbose {
                    trace_read(&record.id, mappings.len(), &read_metrics);
                }
                per_read_metrics.push(read_metrics);
                emit(&record.id, &record.seq, &mappings)?;
            }
            let mut report = RunReport {
                reads: per_read_metrics.len() as u64,
                ..RunReport::default()
            };
            for m in &per_read_metrics {
                report.totals.merge(m);
            }
            (per_read_metrics, report)
        }
        Some((platform, ids, reads)) => {
            let mapper: &dyn Mapper = baseline.as_deref().unwrap_or(&repute);
            let (run, metrics, resumed_batches) =
                map_on_platform(opts, platform, &set, mapper, repute.config(), ids, reads)?;
            // The executor returns outputs in read order.
            for (((id, seq), mapped), m) in ids.iter().zip(reads).zip(&run.outputs).zip(&metrics) {
                if opts.verbose {
                    trace_read(id, mapped.mappings.len(), m);
                }
                emit(id, seq, &mapped.mappings)?;
            }
            let mut report = run.report(platform, &metrics);
            report.resumed_batches = resumed_batches;
            (metrics, report)
        }
    };
    write_sam_output(opts.output.as_deref(), &sam.out)?;
    timer.stop();
    let stats = repute_eval::stats::MappingStats::collect(per_read.iter().map(|v| v.as_slice()));
    eprint!("{stats}");

    // Host stage clocks first (load, map), then the simulated stage
    // breakdown the run report derived from the merged metrics.
    let mut stages = timer.stages().to_vec();
    stages.append(&mut report.stages);
    report.stages = stages;
    report.wall_seconds = run_started.elapsed().as_secs_f64();
    report_run(opts, &per_read_metrics, &report)?;
    Ok((stats.mapped_reads, stats.total_mappings))
}

/// The per-read line of `--verbose`.
fn trace_read(id: &str, mappings: usize, m: &MapMetrics) {
    eprintln!(
        "trace {id}: {mappings} mappings | {} seeds | {} candidates ({} raw) | {} DP cells | {} word updates",
        m.seeds_selected, m.candidates_merged, m.candidates_raw, m.dp_cells, m.word_updates,
    );
}

/// Resolves a `--platform` name to its simulated device profile.
pub(crate) fn platform_by_name(name: &str) -> Result<repute_hetsim::Platform, ReputeError> {
    use repute_hetsim::profiles;
    match name {
        "system1" => Ok(profiles::system1()),
        "system1-cpu" => Ok(profiles::system1_cpu_only()),
        "hikey970" => Ok(profiles::system2_hikey970()),
        other => Err(ReputeError::Config(format!("unknown platform {other:?}"))),
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
    cfg.write(opts.platform.as_deref().unwrap_or_default().as_bytes());

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

/// Maps `reads` through the heterogeneous platform simulator and prints
/// the §III-D style time/energy summary. The schedule and host-thread
/// cap travel in the mapper's config; output is identical across
/// schedules and — whenever at least one device survives — fault plans,
/// only the simulated timeline differs. Under `--checkpoint` the
/// executor commits every finished batch to the journal and replays the
/// ones a previous, interrupted run committed; the run it returns is
/// bit-identical to an uninterrupted one.
///
/// Returns the run, its per-read records, and the number of batches
/// replayed from the journal.
fn map_on_platform(
    opts: &MapOptions,
    platform: &repute_hetsim::Platform,
    set: &ReferenceSet,
    mapper: &dyn Mapper,
    config: &ReputeConfig,
    ids: &[String],
    reads: &[DnaSeq],
) -> Result<(MappingRun, Vec<MapMetrics>, u64), ReputeError> {
    let executor = Executor {
        host_threads: config.host_threads(),
        faults: opts.fault_plan.clone().unwrap_or_default(),
        max_retries: config.max_retries(),
        tracing: opts.trace_out.is_some(),
        ..Executor::new(Schedule::for_config(config, platform, reads.len()))
    };
    let (run, metrics, resumed) = match &opts.checkpoint {
        None => {
            let (run, metrics) = executor.run(&mapper, platform, reads)?;
            (run, metrics, None)
        }
        Some(journal) => {
            let fingerprint = run_fingerprint(opts, set, ids, reads)?;
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
            let outcome = executor.run_journaled(
                &mapper,
                platform,
                reads,
                journal_path,
                fingerprint,
                opts.checkpoint_every,
            )?;
            let resumed = (outcome.resumed_batches, outcome.total_batches);
            (outcome.run, outcome.metrics, Some(resumed))
        }
    };
    write_trace_file(opts, platform, &run.trace)?;
    eprintln!(
        "simulated on {} ({} schedule): {:.3} s | {:.1} W avg | {:.3} J above idle",
        platform.name(),
        config.schedule(),
        run.simulated_seconds,
        run.energy.average_power_w,
        run.energy.energy_j
    );
    if executor.faults.has_device_events() {
        let faults: u64 = run.fault_counters.iter().map(|c| c.faults).sum();
        let retries: u64 = run.fault_counters.iter().map(|c| c.retries).sum();
        let migrated: u64 = run.fault_counters.iter().map(|c| c.migrated_batches).sum();
        eprintln!(
            "fault injection: {faults} fault(s) struck | {retries} retried launch(es) | \
             {migrated} migrated batch(es) (output unaffected)"
        );
    }
    if let Some((resumed, total)) = resumed.filter(|(resumed, _)| *resumed > 0) {
        eprintln!("resumed from checkpoint: {resumed}/{total} batch(es) replayed from the journal");
    }
    Ok((run, metrics, resumed.map_or(0, |(n, _)| n as u64)))
}

/// What every run ends with: the `--metrics-out` JSON-lines file — one
/// `read` record per read, then the [`RunReport`]'s records — and, under
/// `--verbose`, those same records on stderr as `repute stats` would
/// render the file.
fn report_run(
    opts: &MapOptions,
    per_read: &[MapMetrics],
    report: &RunReport,
) -> Result<(), ReputeError> {
    if let Some(path) = &opts.metrics_out {
        // Assembled in memory, committed by atomic rename: a crash
        // mid-write never leaves a half-written telemetry file for
        // `repute stats`.
        let mut out: Vec<u8> = Vec::new();
        for (id, m) in per_read.iter().enumerate() {
            writeln!(out, "{}", m.to_json_line(id as u64))?;
        }
        report.write_json_lines(&mut out)?;
        write_atomic(Path::new(path), &out)?;
        eprintln!("wrote telemetry to {path:?} (inspect with `repute stats`)");
    }
    if opts.verbose {
        let reads = per_read.iter().enumerate();
        let reads = reads.map(|(id, m)| Record::read(id as u64, m));
        eprint!("{}", Summary::of(reads.chain(report.records())).render());
    }
    Ok(())
}

/// Writes a run's spans to `--trace-out` as Chrome trace JSON (atomic
/// rename) under the platform's process table. The writer sorts spans
/// into a canonical order, so identical runs produce byte-identical
/// files regardless of host-thread interleaving.
fn write_trace_file(
    opts: &MapOptions,
    platform: &repute_hetsim::Platform,
    trace: &[repute_obs::Span],
) -> Result<(), ReputeError> {
    let Some(path) = &opts.trace_out else {
        return Ok(());
    };
    let text = repute_obs::trace::write_chrome_trace(&platform.trace_processes(), trace);
    write_atomic(Path::new(path), text.as_bytes())?;
    eprintln!("wrote span trace to {path:?} (open in chrome://tracing, or `repute trace`)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{render_stats, render_trace_summary, run_simulate, SimulateOptions};

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
    fn fault_flags_parse_and_validate() {
        let opts = parse_map_args(args(
            "--reference r.fa --reads q.fq --platform system1 \
             --fault-plan transient:d0@0.1x2,loss:d1@0.5 --max-retries 4",
        ))
        .unwrap();
        assert_eq!(
            opts.fault_plan,
            Some(FaultPlan::parse("transient:d0@0.1x2,loss:d1@0.5").unwrap())
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
            // Planning fails before anything is written.
            assert!(!dir.join(format!("out{i}.sam")).exists(), "{extra:?}");
            assert!(!dir.join("ckpt.rpj").exists(), "{extra:?}");
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

    /// `run_map` is called with options structs built in code
    /// (`benchmark/`, `serve_smoke`), which no parser has judged:
    /// `validate` gives them the parser's answer to the same flags.
    #[test]
    fn validate_rejects_a_built_struct_exactly_as_the_parser_rejects_the_flags() {
        let base = MapOptions {
            reference: "r.fa".into(),
            reads: "q.fq".into(),
            ..MapOptions::default()
        };
        let checkpointed = MapOptions {
            checkpoint: Some("j.rpj".into()),
            platform: Some("system1".into()),
            ..base.clone()
        };
        let cases = [
            (
                "--checkpoint j.rpj",
                MapOptions {
                    platform: None,
                    ..checkpointed.clone()
                },
            ),
            (
                "--platform system1 --checkpoint j.rpj --cigar",
                MapOptions {
                    cigar: true,
                    ..checkpointed.clone()
                },
            ),
            (
                "--platform system1 --checkpoint j.rpj --fault-plan crash:@1,loss:d0@0.1",
                MapOptions {
                    fault_plan: Some(FaultPlan::new().host_crash(1.0).loss(0, 0.1)),
                    ..checkpointed.clone()
                },
            ),
        ];
        for (flags, built) in cases {
            let line = format!("--reference r.fa --reads q.fq {flags}");
            let parser = parse_map_args(args(&line)).unwrap_err();
            assert_eq!(built.validate().unwrap_err(), parser, "{flags}");
            // …and `run_map` refuses it as a configuration error, with
            // that message, before it opens any file.
            let err = run_map(&built).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{flags}: {err}");
            let message = parser.to_string();
            let message = message.lines().next().unwrap();
            assert!(err.to_string().contains(message), "{flags}: {err}");
        }
        // What the parser accepts, `validate` accepts.
        for built in [
            base,
            checkpointed.clone(),
            MapOptions {
                fault_plan: Some(FaultPlan::new().host_crash(1.0)),
                ..checkpointed
            },
        ] {
            assert_eq!(built.validate(), Ok(()));
        }
    }
}
