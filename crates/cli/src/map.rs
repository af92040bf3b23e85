//! `repute map`: options, the flags it shares with `repute serve`, and
//! the run itself — one streamed loop from reads to SAM and report,
//! mapping a chunk of reads at a time on the host threads, committing a
//! prefix of what it wrote under `--checkpoint` and, under `--platform`,
//! pricing the run on the simulated devices at the end.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use repute_core::executor::execute_batches;
use repute_core::journal::{
    self, decode_work_record, tmp_path, work_record, Fnv64, WORK_RECORD_BYTES,
};
use repute_core::{
    write_atomic, AtomicFile, Checkpoint, Executor, MappingRun, ReadCharge, ReputeConfig,
    ReputeError, ReputeMapper, RunFingerprint, Schedule, ScheduleMode, DEFAULT_MAX_RETRIES,
};
use repute_eval::sam::SamAssembly;
use repute_eval::stats::MappingStats;
use repute_genome::fastq::FastqReader;
use repute_genome::wire::word_hash_of;
use repute_genome::DnaSeq;
use repute_hetsim::FaultPlan;
use repute_mappers::multiref::ReferenceSet;
use repute_mappers::{Mapper, Mapping};
use repute_obs::{MapMetrics, Record, RunReport, StageTimer, Summary};
use repute_prefilter::PrefilterMode;
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
    /// Simulated platform to report time/energy for (`system1`,
    /// `system1-cpu`, `hikey970`); `None` skips the simulation report.
    pub platform: Option<String>,
    /// Multi-device scheduling policy of the platform simulation.
    pub schedule: ScheduleMode,
    /// Host-thread cap of the task-parallel executor (`0` = automatic).
    pub host_threads: usize,
    /// Device-fault plan for the platform simulation (parsed from the
    /// [`FaultPlan::parse`] spec syntax, e.g.
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
    /// Path of the checkpoint manifest (requires `--output`): every
    /// 1 024 reads the run syncs what it has written and records how
    /// much, so `--resume` can continue it after an interruption.
    pub checkpoint: Option<String>,
    /// Continue the run an existing checkpoint describes instead of
    /// starting over.
    pub resume: bool,
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
        let broken = if self.fault_plan.is_some() && self.platform.is_none() {
            "--fault-plan requires --platform (faults live in the simulation)"
        } else if self.trace_out.is_some() && self.platform.is_none() {
            "--trace-out requires --platform (spans live on the simulated timeline)"
        } else if self.resume && self.checkpoint.is_none() {
            "--resume requires --checkpoint"
        } else if self.checkpoint.is_some() && self.output.is_none() {
            "--checkpoint requires --output (stdout cannot be cut back to \
             a committed prefix)"
        } else if self.cigar && self.mapper != MapperChoice::Repute {
            "--cigar requires the repute mapper"
        } else if self.prefilter != PrefilterMode::None && self.mapper != MapperChoice::Repute {
            "--prefilter requires the repute mapper"
        } else {
            return Ok(());
        };
        Err(ParseArgsError::new(broken))
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
            "-v" | "--verbose" | "--trace" => opts.verbose = true,
            _ => return Err(cur.unknown()),
        }
    }
    let (fault_plan, reference_rules) = shared.finish(&cur);
    opts.fault_plan = fault_plan;
    opts.validate()?;
    reference_rules?;
    if !cur.saw("--reads") {
        return Err(ParseArgsError::new("--reads is required"));
    }
    Ok(opts)
}

/// Routes assembled SAM bytes to their destination: an atomic
/// write-then-rename for a file path, a plain stream for stdout.
pub(crate) fn write_sam_output(path: Option<&str>, sam: &[u8]) -> Result<(), ReputeError> {
    let mut out = Output::open(path)?;
    out.write_all(sam)?;
    out.finish()
}

/// Where a text output goes as it is produced: stdout (buffered, flushed
/// at the end), or a file path written through an [`AtomicFile`], which
/// puts it in place only when [`Output::finish`] commits it — a run that
/// fails on the way leaves neither the file nor its `.tmp`.
enum Output {
    Stdout(BufWriter<std::io::StdoutLock<'static>>),
    File(AtomicFile),
}

impl Output {
    fn open(path: Option<&str>) -> Result<Output, ReputeError> {
        Ok(match path {
            Some(p) => Output::File(AtomicFile::create(Path::new(p))?),
            None => Output::Stdout(BufWriter::with_capacity(1 << 16, std::io::stdout().lock())),
        })
    }

    /// A file output flushed, for a checkpoint to sync and record.
    fn flushed(&mut self) -> Result<(File, u64), ReputeError> {
        match self {
            Output::File(file) => file.flushed(),
            Output::Stdout(_) => Err(ReputeError::Config(
                "--checkpoint requires --output".to_string(),
            )),
        }
    }

    fn finish(self) -> Result<(), ReputeError> {
        match self {
            Output::Stdout(mut out) => Ok(out.flush()?),
            Output::File(file) => file.commit(),
        }
    }
}

impl Write for Output {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Output::Stdout(out) => out.write(buf),
            Output::File(file) => file.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Output::Stdout(out) => out.flush(),
            Output::File(file) => file.flush(),
        }
    }
}

/// Everything a run writes for a read, written when the read is emitted,
/// so nothing grows with the read count: the SAM rows, the closing
/// statistics, the run totals, the `--metrics-out` read record and the
/// `-v` trace line and summary.
struct Emitter<'a> {
    opts: &'a MapOptions,
    repute: &'a ReputeMapper,
    sam: SamAssembly<'a, Output>,
    stats: MappingStats,
    totals: MapMetrics,
    reads: u64,
    /// Reads of this process that REPUTE cannot seed: shorter than
    /// (δ+1)·`S_min` bases (or past 65 535).
    infeasible: u64,
    metrics_out: Option<AtomicFile>,
    summary: Option<Summary>,
}

impl<'a> Emitter<'a> {
    /// Opens the outputs and writes the SAM header. Under `--checkpoint`
    /// the files keep their `.tmp` if the run stops.
    fn open(
        opts: &'a MapOptions,
        set: &'a ReferenceSet,
        repute: &'a ReputeMapper,
    ) -> Result<Emitter<'a>, ReputeError> {
        let mut out = Output::open(opts.output.as_deref())?;
        let mut metrics_out = opts
            .metrics_out
            .as_deref()
            .map(|p| AtomicFile::create(Path::new(p)))
            .transpose()?;
        if opts.checkpoint.is_some() {
            if let Output::File(file) = out {
                out = Output::File(file.checkpointed());
            }
            metrics_out = metrics_out.map(AtomicFile::checkpointed);
        }
        let sam = SamAssembly::with_sink(set, out)?;
        Ok(Emitter::over(opts, repute, sam, metrics_out))
    }

    /// Goes on from the outputs a checkpoint committed: `sam` and
    /// `metrics_out` reopened at their committed lengths, and the totals
    /// over the `checkpoint.reads` reads they hold.
    fn resume(
        opts: &'a MapOptions,
        set: &'a ReferenceSet,
        repute: &'a ReputeMapper,
        sam: AtomicFile,
        metrics_out: Option<AtomicFile>,
        checkpoint: &Checkpoint,
    ) -> Result<Emitter<'a>, ReputeError> {
        let sam = SamAssembly::continuing(set, Output::File(sam));
        Ok(Emitter {
            stats: stats_from_words(&checkpoint.counters)?,
            totals: checkpoint.totals,
            reads: checkpoint.reads,
            ..Emitter::over(opts, repute, sam, metrics_out)
        })
    }

    fn over(
        opts: &'a MapOptions,
        repute: &'a ReputeMapper,
        sam: SamAssembly<'a, Output>,
        metrics_out: Option<AtomicFile>,
    ) -> Emitter<'a> {
        Emitter {
            opts,
            repute,
            sam,
            stats: MappingStats::default(),
            totals: MapMetrics::new(),
            reads: 0,
            infeasible: 0,
            metrics_out,
            summary: opts.verbose.then(Summary::default),
        }
    }

    /// Emits one read. Under `--cigar` its mappings get their traceback
    /// first: the positions are refined to the alignments' starts and
    /// the first carries its CIGAR.
    fn read(
        &mut self,
        id: &str,
        seq: &DnaSeq,
        mappings: &[Mapping],
        metrics: &MapMetrics,
    ) -> Result<(), ReputeError> {
        let resolved = if self.opts.cigar {
            let detailed = self.repute.cigars_for(seq, mappings);
            let refined: Vec<Mapping> = detailed.iter().map(|d| d.mapping).collect();
            self.sam
                .push(id, seq, &refined, detailed.first().map(|d| &d.cigar))?
        } else {
            self.sam.push(id, seq, mappings, None)?
        };
        self.stats.add_read(resolved.iter().map(|r| r.distance));
        self.totals.merge(metrics);
        let config = self.repute.config();
        if self.opts.mapper == MapperChoice::Repute && !config.feasible_for(seq.len()) {
            self.infeasible += 1;
        }
        if let Some(out) = &mut self.metrics_out {
            writeln!(out, "{}", metrics.to_json_line(self.reads))?;
        }
        if let Some(summary) = &mut self.summary {
            trace_read(id, mappings.len(), metrics);
            summary.add(Record::read(self.reads, metrics));
        }
        self.reads += 1;
        Ok(())
    }
}

/// Reads per pass of the mapping loop: enough to keep the host threads
/// busy, few enough that a chunk's reads and outputs stay a small part of
/// the run's memory.
const CHUNK_READS: usize = 64;

/// Reads between two checkpoint commits: sixteen chunks. The loop waits
/// only for a commit's flushes, not its syncs (`Checkpointing::commit`):
/// 0.3% of a 1 M-read run's wall time on a VM disk, where waiting for the
/// syncs too cost 3.6% (EXPERIMENTS.md).
const COMMIT_READS: u64 = 1024;

/// Runs `repute map`: load, map, SAM, report. Every run is one streamed
/// loop (`map_stream`): the FASTQ is read a chunk at a time, each chunk is
/// mapped on the host threads, and each read's SAM rows and
/// `--metrics-out` record are written in read order as its chunk is done,
/// so memory does not grow with the read count. Under `--platform` the
/// loop also keeps each read's work count and metrics record, and the run
/// is priced on the simulated devices once the stream ends. The errors
/// that depend only on the options (an unknown platform or fault-plan
/// device, an output slot larger than a device's quarter-RAM cap) fail
/// before any file is opened; a run that loses every device fails after
/// the stream, when the rows on stdout are already written. A file output
/// goes to `<output>.tmp` and is renamed into place when the run succeeds
/// (removed when it fails), so a failed or interrupted run never leaves a
/// torn output file behind. Under `--checkpoint` a failed run keeps its
/// `.tmp` files instead, and every 1 024 reads the loop records
/// how much of them is done (`Checkpointing`), for `--resume` to go on
/// from.
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
    timer.stop();
    let config = ReputeConfig::build(opts.delta, opts.s_min, opts.max_locations, opts.prefilter)?;
    let repute = ReputeMapper::new(Arc::clone(set.indexed()), config);
    let baseline = (opts.mapper != MapperChoice::Repute)
        .then(|| opts.mapper.build(Arc::clone(set.indexed()), config));
    let mapper: &dyn Mapper = baseline.as_deref().unwrap_or(&repute);
    if let Some(platform) = &platform {
        executor(opts, platform, 0).preflight(&mapper, platform)?;
    }
    let mut checkpoint = opts
        .checkpoint
        .as_deref()
        .map(|path| Checkpointing::open(opts, Path::new(path)))
        .transpose()?;
    if let Some(done) = checkpoint.as_ref().and_then(Checkpointing::completed) {
        return finish_completed(opts, done);
    }

    timer.start("map");
    let (mut emitter, mut report) = map_stream(
        opts,
        &set,
        &repute,
        mapper,
        platform.as_ref(),
        checkpoint.as_mut(),
    )?;
    timer.stop();
    eprint!("{}", emitter.stats);
    if emitter.infeasible > 0 {
        eprintln!(
            "warning: {} read(s) left unmapped: repute maps reads of \
             (δ+1)·S_min = {} to 65535 bases at --delta {} and --s-min {}",
            emitter.infeasible,
            (config.delta() as usize + 1) * config.s_min(),
            config.delta(),
            config.s_min()
        );
    }

    // Host stage clocks first (load, map), then the simulated stage
    // breakdown the run report derived from the merged metrics.
    let mut stages = timer.stages().to_vec();
    stages.append(&mut report.stages);
    report.stages = stages;
    report.wall_seconds = run_started.elapsed().as_secs_f64();
    // The run's records close `--metrics-out`, after one `read` record
    // per read, and the `-v` summary renders the same records on stderr
    // as `repute stats` would render the file.
    if let Some(out) = &mut emitter.metrics_out {
        report.write_json_lines(out)?;
    }
    if let Some(checkpoint) = &mut checkpoint {
        checkpoint.commit(&mut emitter, true)?;
    }
    let Emitter {
        sam,
        stats,
        metrics_out,
        summary,
        ..
    } = emitter;
    sam.out.finish()?;
    if let (Some(out), Some(path)) = (metrics_out, &opts.metrics_out) {
        out.commit()?;
        eprintln!("wrote telemetry to {path:?} (inspect with `repute stats`)");
    }
    if let Some(checkpoint) = checkpoint {
        checkpoint.finish()?;
    }
    if let Some(mut summary) = summary {
        for record in report.records() {
            summary.add(record);
        }
        eprint!("{}", summary.render());
    }
    Ok((stats.mapped_reads, stats.total_mappings))
}

/// What a `--platform` run keeps of each read to price the run and
/// split its report by stage once the stream ends: its [`ReadCharge`],
/// and the longest read.
#[derive(Default)]
struct Priced {
    charges: Vec<ReadCharge>,
    max_read_len: usize,
}

/// The one mapping loop: reads the FASTQ [`CHUNK_READS`] records at a
/// time, maps each chunk on the host threads ([`execute_batches`]) and
/// emits its reads in order, committing `checkpoint` every
/// [`COMMIT_READS`] reads and at the end. A resumed run skips the reads
/// its checkpoint holds. Under `--platform` it keeps each read's
/// [`ReadCharge`] and nothing else, and prices the run once the stream
/// ends. A malformed record ends the stream with its error once the
/// reads before it are emitted.
fn map_stream<'a>(
    opts: &'a MapOptions,
    set: &'a ReferenceSet,
    repute: &'a ReputeMapper,
    mapper: &dyn Mapper,
    platform: Option<&repute_hetsim::Platform>,
    mut checkpoint: Option<&mut Checkpointing>,
) -> Result<(Emitter<'a>, RunReport), ReputeError> {
    let reads_path = Path::new(&opts.reads);
    let reads_file = File::open(reads_path).map_err(|e| ReputeError::io_at(reads_path, e))?;
    let mut records = FastqReader::new(BufReader::new(reads_file));
    let mut priced = Priced::default();
    let mut emitter = match checkpoint.as_deref_mut() {
        Some(checkpoint) => checkpoint.start(opts, set, repute, platform.is_some(), &mut priced)?,
        None => Emitter::open(opts, set, repute)?,
    };
    // The reads a resumed checkpoint holds: the fingerprint has the
    // reads file's hash, so only a forged manifest claims more.
    let resumed = emitter.reads;
    let mut skipped = 0;
    for record in records.by_ref().take(resumed as usize) {
        priced.max_read_len = priced.max_read_len.max(record?.seq.len());
        skipped += 1;
    }
    if skipped < resumed {
        return Err(ReputeError::JournalCorrupt(format!(
            "checkpoint records {resumed} reads done, but {} holds {skipped}",
            reads_path.display()
        )));
    }
    let (mut ids, mut seqs) = (Vec::new(), Vec::new());
    let (mut outputs, mut metrics) = (Vec::new(), Vec::new());
    loop {
        ids.clear();
        seqs.clear();
        let mut ended = None;
        while ended.is_none() && seqs.len() < CHUNK_READS {
            match records.next() {
                Some(Ok(record)) => {
                    ids.push(record.id);
                    seqs.push(record.seq);
                }
                Some(Err(e)) => ended = Some(Err(e)),
                None => ended = Some(Ok(())),
            }
        }
        outputs.clear();
        metrics.clear();
        execute_batches(
            &mapper,
            &seqs,
            opts.host_threads,
            &mut outputs,
            &mut metrics,
        );
        for (((id, seq), mapped), m) in ids.iter().zip(&seqs).zip(&outputs).zip(&metrics) {
            emitter.read(id, seq, &mapped.mappings, m)?;
        }
        let kept = priced.charges.len();
        if platform.is_some() {
            priced.charges.extend(
                outputs
                    .iter()
                    .zip(&metrics)
                    .map(|(o, m)| ReadCharge::new(o.work, m)),
            );
            priced.max_read_len = seqs
                .iter()
                .map(DnaSeq::len)
                .fold(priced.max_read_len, usize::max);
        }
        if let Some(checkpoint) = checkpoint.as_deref_mut() {
            checkpoint.keep(&priced.charges[kept..])?;
            if emitter.reads >= checkpoint.committed + COMMIT_READS {
                checkpoint.commit(&mut emitter, false)?;
            }
        }
        if let Some(ended) = ended {
            ended?;
            break;
        }
    }
    if let Some(checkpoint) = checkpoint.filter(|c| c.committed < emitter.reads) {
        checkpoint.commit(&mut emitter, false)?;
    }
    let mut report = match platform {
        None => RunReport {
            reads: emitter.reads,
            totals: emitter.totals,
            ..RunReport::default()
        },
        Some(platform) => {
            let run = executor(opts, platform, priced.charges.len()).price(
                &mapper,
                platform,
                &priced.charges,
                priced.max_read_len,
            )?;
            announce_priced(opts, platform, &run)?;
            run.report_charges(platform, emitter.totals, &priced.charges)
        }
    };
    report.resumed_batches = resumed.div_ceil(CHUNK_READS as u64);
    Ok((emitter, report))
}

/// A `--checkpoint` run's manifest, identity and sidecar.
///
/// A commit syncs the SAM `.tmp`, the `--metrics-out` `.tmp` and, under
/// `--platform`, the sidecar `<checkpoint>.work` (each read's
/// [`ReadCharge`], [`WORK_RECORD_BYTES`] a read, which pricing and the
/// report need for the reads a resume skips), then atomically rewrites
/// the manifest at `<checkpoint>` with their lengths, the reads done and
/// the [`Emitter`]'s totals. A resume cuts each file back to its
/// committed length, reloads the sidecar and the totals, and skips that
/// many FASTQ records; the SAM is a function of read order alone, so the
/// resumed run writes the bytes of one never interrupted.
struct Checkpointing {
    path: PathBuf,
    fingerprint: RunFingerprint,
    /// The manifest `--resume` found, until the stream starts from it.
    resumed: Option<Checkpoint>,
    sidecar: Option<BufWriter<File>>,
    /// Reads the last commit covered.
    committed: u64,
    /// The commit whose syncs and manifest are being written.
    pending: Option<std::thread::JoinHandle<Result<(), ReputeError>>>,
}

impl Checkpointing {
    /// Fingerprints the run and, under `--resume`, loads its checkpoint;
    /// creates nothing.
    fn open(opts: &MapOptions, path: &Path) -> Result<Checkpointing, ReputeError> {
        let fingerprint = run_fingerprint(opts)?;
        let resumed = match (path.exists(), opts.resume) {
            (true, false) => {
                return Err(ReputeError::Config(format!(
                    "checkpoint {path:?} already exists; pass --resume to continue it, or \
                     delete it to start over"
                )))
            }
            (false, true) => {
                return Err(ReputeError::Config(format!(
                    "cannot resume: checkpoint {path:?} does not exist"
                )))
            }
            (true, true) => Some(Checkpoint::load(path, &fingerprint)?),
            (false, false) => None,
        };
        Ok(Checkpointing {
            path: path.to_path_buf(),
            fingerprint,
            resumed,
            sidecar: None,
            committed: 0,
            pending: None,
        })
    }

    /// The checkpoint of a run that had written everything, if that is
    /// what `--resume` found.
    fn completed(&self) -> Option<&Checkpoint> {
        self.resumed.as_ref().filter(|c| c.complete)
    }

    /// Opens the outputs: fresh, with a first commit over the SAM header,
    /// or reopened at the lengths the resumed checkpoint committed, with
    /// `priced` reloaded from the sidecar.
    fn start<'a>(
        &mut self,
        opts: &'a MapOptions,
        set: &'a ReferenceSet,
        repute: &'a ReputeMapper,
        priced_run: bool,
        priced: &mut Priced,
    ) -> Result<Emitter<'a>, ReputeError> {
        let sidecar = priced_run.then(|| sidecar_path(&self.path));
        let Some(resumed) = self.resumed.take() else {
            let mut emitter = Emitter::open(opts, set, repute)?;
            if let Some(path) = &sidecar {
                let file = File::create(path).map_err(|e| ReputeError::io_at(path, e))?;
                self.sidecar = Some(BufWriter::with_capacity(1 << 16, file));
            }
            self.commit(&mut emitter, false)?;
            return Ok(emitter);
        };
        let (Some(output), metrics_out) = (&opts.output, &opts.metrics_out) else {
            return Err(ReputeError::Config(
                "--checkpoint requires --output".to_string(),
            ));
        };
        let files: Vec<PathBuf> = [Some(tmp_path(Path::new(output)))]
            .into_iter()
            .chain([
                metrics_out.as_ref().map(|p| tmp_path(Path::new(p))),
                sidecar.clone(),
            ])
            .flatten()
            .collect();
        let corrupt = |what: String| {
            ReputeError::JournalCorrupt(format!("checkpoint {}: {what}", self.path.display()))
        };
        if resumed.lengths.len() != files.len() {
            return Err(corrupt(format!(
                "it records {} file(s) but this run writes {}",
                resumed.lengths.len(),
                files.len()
            )));
        }
        // Every file is checked before any is cut back.
        for (file, &len) in files.iter().zip(&resumed.lengths) {
            journal::check_prefix(file, len)?;
        }
        // The sidecar, when the run keeps one, is the last file.
        let sidecar_len = resumed.lengths.last().copied().unwrap_or_default();
        if sidecar.is_some()
            && resumed.reads.checked_mul(WORK_RECORD_BYTES as u64) != Some(sidecar_len)
        {
            return Err(corrupt(format!(
                "its sidecar holds {sidecar_len} bytes for {} reads",
                resumed.reads
            )));
        }
        let mut lengths = resumed.lengths.iter().copied();
        let mut next_len = || lengths.next().unwrap_or_default();
        let sam = AtomicFile::reopen(Path::new(output), next_len())?;
        let metrics = match metrics_out {
            Some(path) => Some(AtomicFile::reopen(Path::new(path), next_len())?),
            None => None,
        };
        if let Some(path) = &sidecar {
            let file = File::open(path).map_err(|e| ReputeError::io_at(path, e))?;
            let mut input = BufReader::new(file.take(sidecar_len));
            let mut record = [0; WORK_RECORD_BYTES];
            for _ in 0..resumed.reads {
                input
                    .read_exact(&mut record)
                    .map_err(|e| ReputeError::io_at(path, e))?;
                priced.charges.push(decode_work_record(&record));
            }
            let file = journal::reopen_at(path, sidecar_len)?;
            self.sidecar = Some(BufWriter::with_capacity(1 << 16, file));
        }
        self.committed = resumed.reads;
        eprintln!(
            "resumed from checkpoint: {} read(s) committed, {} chunk(s) skipped",
            resumed.reads,
            resumed.reads.div_ceil(CHUNK_READS as u64)
        );
        Emitter::resume(opts, set, repute, sam, metrics, &resumed)
    }

    /// Appends a chunk's charges to the sidecar.
    fn keep(&mut self, charges: &[ReadCharge]) -> Result<(), ReputeError> {
        let Some(sidecar) = &mut self.sidecar else {
            return Ok(());
        };
        charges
            .iter()
            .try_for_each(|charge| sidecar.write_all(&work_record(charge)))
            .map_err(|e| ReputeError::io_at(&self.path, e))
    }

    /// One commit: flush every file, then sync them and replace the
    /// manifest on a thread of its own, so that the loop maps on
    /// meanwhile (a sync waits on the disk for milliseconds). A commit
    /// waits for the one before it, and a `complete` one is waited for.
    fn commit(&mut self, emitter: &mut Emitter<'_>, complete: bool) -> Result<(), ReputeError> {
        self.wait()?;
        let mut files = vec![emitter.sam.out.flushed()?];
        if let Some(out) = &mut emitter.metrics_out {
            files.push(out.flushed()?);
        }
        if let Some(sidecar) = &mut self.sidecar {
            let path = &self.path;
            files.push(journal::flushed(sidecar).map_err(|e| ReputeError::io_at(path, e))?);
        }
        let checkpoint = Checkpoint {
            fingerprint: self.fingerprint,
            reads: emitter.reads,
            lengths: files.iter().map(|&(_, len)| len).collect(),
            counters: stats_words(&emitter.stats),
            totals: emitter.totals,
            complete,
        };
        let path = self.path.clone();
        self.pending = Some(std::thread::spawn(move || {
            for (file, _) in &files {
                file.sync_data().map_err(|e| ReputeError::io_at(&path, e))?;
            }
            checkpoint.commit(&path)
        }));
        self.committed = emitter.reads;
        if complete {
            self.wait()?;
        }
        Ok(())
    }

    /// Waits for the commit in flight, if there is one.
    fn wait(&mut self) -> Result<(), ReputeError> {
        let Some(commit) = self.pending.take() else {
            return Ok(());
        };
        commit.join().unwrap_or_else(|_| {
            Err(ReputeError::io_at(
                &self.path,
                std::io::Error::other("the commit thread panicked"),
            ))
        })
    }

    /// After the outputs are in place: the sidecar is not needed again.
    fn finish(self) -> Result<(), ReputeError> {
        let path = sidecar_path(&self.path);
        drop(self);
        remove_if_present(&path)
    }
}

impl Drop for Checkpointing {
    /// A commit begun is finished, even by a run that fails meanwhile.
    fn drop(&mut self) {
        let _ = self.wait();
    }
}

/// The sidecar of the checkpoint at `checkpoint`: `<checkpoint>.work`.
fn sidecar_path(checkpoint: &Path) -> PathBuf {
    let mut path = checkpoint.as_os_str().to_os_string();
    path.push(".work");
    PathBuf::from(path)
}

/// A run's mapping statistics as the counters a checkpoint records.
fn stats_words(stats: &MappingStats) -> Vec<u64> {
    let counts = [
        stats.reads,
        stats.mapped_reads,
        stats.multi_mapped_reads,
        stats.total_mappings,
    ];
    counts
        .iter()
        .chain(&stats.distance_histogram)
        .map(|&n| n as u64)
        .collect()
}

/// A run's mapping statistics from the counters its checkpoint recorded.
fn stats_from_words(words: &[u64]) -> Result<MappingStats, ReputeError> {
    let words: Vec<usize> = words.iter().map(|&w| w as usize).collect();
    let [reads, mapped_reads, multi_mapped_reads, total_mappings, ref histogram @ ..] = words[..]
    else {
        return Err(ReputeError::JournalCorrupt(
            "checkpoint holds too few mapping counters".to_string(),
        ));
    };
    Ok(MappingStats {
        reads,
        mapped_reads,
        multi_mapped_reads,
        total_mappings,
        distance_histogram: histogram.to_vec(),
    })
}

/// `--resume` of a run whose checkpoint says it had written everything:
/// only the renames a crash may have cut short are left, so resuming a
/// finished run changes nothing.
fn finish_completed(opts: &MapOptions, done: &Checkpoint) -> Result<(usize, usize), ReputeError> {
    for path in [&opts.output, &opts.metrics_out].into_iter().flatten() {
        let (tmp, path) = (tmp_path(Path::new(path)), Path::new(path));
        if tmp.exists() {
            std::fs::rename(&tmp, path).map_err(|e| ReputeError::io_at(path, e))?;
        }
    }
    if let Some(checkpoint) = &opts.checkpoint {
        remove_if_present(&sidecar_path(Path::new(checkpoint)))?;
        eprintln!("checkpoint {checkpoint:?} is complete: nothing left to map");
    }
    let stats = stats_from_words(&done.counters)?;
    Ok((stats.mapped_reads, stats.total_mappings))
}

fn remove_if_present(path: &Path) -> Result<(), ReputeError> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(ReputeError::io_at(path, e)),
        _ => Ok(()),
    }
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

/// The identity of a checkpointed run, which `--resume` must match.
///
/// The config half folds every option that can change a byte of any
/// output (not `--host-threads`, `-v` or the output paths); the workload
/// half hashes the reference source (the FASTA or `--index` file) and
/// the reads file, streamed through [`word_hash_of`]. A `--resume` under
/// any difference is refused with [`ReputeError::ResumeMismatch`] before
/// any mapping work happens.
fn run_fingerprint(opts: &MapOptions) -> Result<RunFingerprint, ReputeError> {
    let mut cfg = Fnv64::new();
    ReputeConfig::build(opts.delta, opts.s_min, opts.max_locations, opts.prefilter)?
        .fold_identity(&mut cfg);
    cfg.write_u64(opts.schedule as u64);
    cfg.write_u64(opts.mapper as u64);
    cfg.write(opts.platform.as_deref().unwrap_or_default().as_bytes());
    let plan = opts.fault_plan.clone().unwrap_or_default();
    for word in plan.identity_words() {
        cfg.write_u64(word);
    }
    cfg.write_u64(opts.max_retries as u64);
    cfg.write_u64(u64::from(opts.cigar));
    cfg.write_u64(u64::from(opts.metrics_out.is_some()));

    let mut wl = Fnv64::new();
    for source in [opts.index.as_ref().unwrap_or(&opts.reference), &opts.reads] {
        let path = Path::new(source.as_str());
        let hash = File::open(path)
            .and_then(|file| word_hash_of(BufReader::new(file)))
            .map_err(|e| ReputeError::io_at(path, e))?;
        wl.write_u64(hash);
    }
    Ok(RunFingerprint::new(cfg.finish(), wl.finish()))
}

/// The executor `opts` configure for a run of `reads` reads on
/// `platform`: the schedule, host-thread cap, fault plan, retry budget
/// and tracing.
fn executor(opts: &MapOptions, platform: &repute_hetsim::Platform, reads: usize) -> Executor {
    Executor {
        host_threads: opts.host_threads,
        faults: opts.fault_plan.clone().unwrap_or_default(),
        max_retries: opts.max_retries,
        tracing: opts.trace_out.is_some(),
        ..Executor::new(Schedule::for_mode(opts.schedule, platform, reads))
    }
}

/// Writes a priced run's `--trace-out` file and prints the §III-D style
/// time/energy summary, with the fault tally when the plan has device
/// events. Output is identical across schedules and — whenever at least
/// one device survives — fault plans; only the simulated timeline
/// differs.
fn announce_priced(
    opts: &MapOptions,
    platform: &repute_hetsim::Platform,
    run: &MappingRun,
) -> Result<(), ReputeError> {
    write_trace_file(opts, platform, &run.trace)?;
    eprintln!(
        "simulated on {} ({} schedule): {:.3} s | {:.1} W avg | {:.3} J above idle",
        platform.name(),
        opts.schedule,
        run.simulated_seconds,
        run.energy.average_power_w,
        run.energy.energy_j
    );
    if opts.fault_plan.as_ref().is_some_and(|p| !p.is_empty()) {
        let faults: u64 = run.fault_counters.iter().map(|c| c.faults).sum();
        let retries: u64 = run.fault_counters.iter().map(|c| c.retries).sum();
        let migrated: u64 = run.fault_counters.iter().map(|c| c.migrated_batches).sum();
        eprintln!(
            "fault injection: {faults} fault(s) struck | {retries} retried launch(es) | \
             {migrated} migrated batch(es) (output unaffected)"
        );
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

        let dir = std::env::temp_dir().join(format!("repute-cli-test-{}", std::process::id()));
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
        let opts = parse_map_args(args("--reference r.fa --reads q.fq --prefilter both")).unwrap();
        assert_eq!(opts.prefilter, PrefilterMode::Both);
        // Default: filtration off.
        let opts = parse_map_args(args("--reference r.fa --reads q.fq")).unwrap();
        assert_eq!(opts.prefilter, PrefilterMode::None);
        // Bad mode.
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --prefilter fast")).is_err());
        // The prefilter stage lives inside the repute pipeline only.
        assert!(parse_map_args(args(
            "--reference r.fa --reads q.fq --mapper coral --prefilter shd"
        ))
        .is_err());
    }

    #[test]
    fn prefiltered_map_run_matches_plain_and_reports_counters() {
        let dir =
            std::env::temp_dir().join(format!("repute-cli-prefilter-test-{}", std::process::id()));
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
        let dir =
            std::env::temp_dir().join(format!("repute-cli-schedule-test-{}", std::process::id()));
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
        let dir =
            std::env::temp_dir().join(format!("repute-cli-fault-test-{}", std::process::id()));
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
        let dir =
            std::env::temp_dir().join(format!("repute-cli-metrics-test-{}", std::process::id()));
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
            "--reference r.fa --reads q.fq --output o.sam --checkpoint j.ckpt",
        ))
        .unwrap();
        assert_eq!(opts.checkpoint.as_deref(), Some("j.ckpt"));
        assert!(!opts.resume);
        let opts = parse_map_args(args(
            "--reference r.fa --reads q.fq --output o.sam --checkpoint j.ckpt --resume",
        ))
        .unwrap();
        assert!(opts.resume);
        // Defaults.
        let opts = parse_map_args(args("--reference r.fa --reads q.fq")).unwrap();
        assert_eq!(opts.checkpoint, None);
        // A checkpoint commits a prefix of a file, which stdout is not.
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --checkpoint j.ckpt")).is_err());
        // --resume rides on --checkpoint.
        assert!(parse_map_args(args("--reference r.fa --reads q.fq --resume")).is_err());
        // CIGARs, a platform and its device faults all ride along.
        assert!(parse_map_args(args(
            "--reference r.fa --reads q.fq --output o.sam --checkpoint j.ckpt --cigar \
             --platform system1 --fault-plan loss:d0@0.1"
        ))
        .is_ok());
        // The simulated host crash is gone.
        assert!(parse_map_args(args(
            "--reference r.fa --reads q.fq --platform system1 --fault-plan crash:@0.5"
        ))
        .is_err());
    }

    /// The identity a checkpointed run is resumed under, for one fixed
    /// configuration and dataset.
    #[test]
    fn checkpoint_fingerprint_is_pinned() {
        let dir = std::env::temp_dir().join(format!(
            "repute-cli-fingerprint-test-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_string_lossy().into_owned();
        run_simulate(&SimulateOptions {
            out_dir: dir_s.clone(),
            length: 30_000,
            reads: 8,
            read_len: 100,
            seed: 47,
            profile: "err012100".into(),
        })
        .unwrap();
        let opts = parse_map_args(args(&format!(
            "--reference {dir_s}/reference.fa --reads {dir_s}/reads.fq --delta 4 --s-min 14 \
             --max-locations 50 --prefilter both --platform system1 --schedule dynamic \
             --output {dir_s}/out.sam --checkpoint {dir_s}/ckpt"
        )))
        .unwrap();
        let fingerprint = run_fingerprint(&opts).unwrap();
        assert_eq!(
            fingerprint.render(),
            "91453f3f0bbd21c2.ab2882a582501a08.0000000000000000"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Leaves the files a checkpointed run leaves when it dies right
    /// after its commit at `k` reads: the loop's own commit code over the
    /// first `k` reads (the commit at 0 is the one every fresh run makes).
    fn crash_after_commit(opts: &MapOptions, k: usize) {
        let platform = opts.platform.is_some();
        let set = load_reference_set(&opts.reference, None, None).unwrap();
        let config =
            ReputeConfig::build(opts.delta, opts.s_min, opts.max_locations, opts.prefilter)
                .unwrap();
        let repute = ReputeMapper::new(Arc::clone(set.indexed()), config);
        let baseline = (opts.mapper != MapperChoice::Repute)
            .then(|| opts.mapper.build(Arc::clone(set.indexed()), config));
        let mapper: &dyn Mapper = baseline.as_deref().unwrap_or(&repute);
        let path = Path::new(opts.checkpoint.as_deref().unwrap());
        let mut checkpoint = Checkpointing::open(opts, path).unwrap();
        let mut priced = Priced::default();
        let mut emitter = checkpoint
            .start(opts, &set, &repute, platform, &mut priced)
            .unwrap();
        let reads = File::open(&opts.reads).unwrap();
        let records: Vec<_> = FastqReader::new(BufReader::new(reads))
            .take(k)
            .map(Result::unwrap)
            .collect();
        let seqs: Vec<DnaSeq> = records.iter().map(|r| r.seq.clone()).collect();
        let (mut outputs, mut metrics) = (Vec::new(), Vec::new());
        execute_batches(&mapper, &seqs, 1, &mut outputs, &mut metrics);
        for ((record, out), m) in records.iter().zip(&outputs).zip(&metrics) {
            emitter
                .read(&record.id, &record.seq, &out.mappings, m)
                .unwrap();
        }
        let charges: Vec<ReadCharge> = outputs
            .iter()
            .zip(&metrics)
            .map(|(o, m)| ReadCharge::new(o.work, m))
            .collect();
        checkpoint.keep(&charges).unwrap();
        if k > 0 {
            checkpoint.commit(&mut emitter, false).unwrap();
        }
    }

    /// A `--metrics-out` file's `run` record with its wall clock and its
    /// resume count blanked, and that count.
    fn run_record(path: &Path) -> (String, u64) {
        let text = std::fs::read_to_string(path).unwrap();
        let line = text
            .lines()
            .find(|l| l.starts_with("{\"type\":\"run\""))
            .unwrap();
        let mut resumed = 0;
        let fields: Vec<String> = line
            .split(',')
            .map(|field| match field.split_once(':') {
                Some(("\"wall_seconds\"", _)) => "\"wall_seconds\":_".to_string(),
                Some(("\"resumed_batches\"", n)) => {
                    resumed = n.parse().unwrap();
                    "\"resumed_batches\":_".to_string()
                }
                _ => field.to_string(),
            })
            .collect();
        (fields.join(","), resumed)
    }

    /// A run resumed from the state a crash leaves after each commit —
    /// the one before the first read, and two after 1 024-read stretches
    /// — with torn bytes after every committed prefix writes the bytes
    /// of a run never interrupted: SAM, `read` records, the `run` record
    /// but for its wall clock and its resume count, and the trace. Plain,
    /// priced, and priced under Yara, whose work is not the sum of the
    /// three stage terms, so the sidecar must carry it.
    #[test]
    fn resume_after_every_commit_point_matches_the_uninterrupted_run() {
        let dir =
            std::env::temp_dir().join(format!("repute-cli-commit-points-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_string_lossy().into_owned();
        run_simulate(&SimulateOptions {
            out_dir: dir_s.clone(),
            length: 60_000,
            reads: 2_500,
            read_len: 100,
            seed: 89,
            profile: "err012100".into(),
        })
        .unwrap();
        let file = |name: &str| dir.join(name);
        let read_records = |name: &str| {
            let text = std::fs::read_to_string(file(name)).unwrap();
            let reads: Vec<String> = text
                .lines()
                .filter(|l| l.starts_with("{\"type\":\"read\""))
                .map(String::from)
                .collect();
            reads
        };
        let passes = [
            "",
            "--platform system1 --schedule dynamic --trace-out TRACE",
            "--mapper yara --platform system1 --schedule dynamic --trace-out TRACE",
        ];
        for (pass, priced) in passes.into_iter().enumerate() {
            let opts = |tag: &str| {
                let priced = priced.replace("TRACE", &format!("{dir_s}/{tag}.json"));
                parse_map_args(args(&format!(
                    "--reference {dir_s}/reference.fa --reads {dir_s}/reads.fq --delta 5 \
                     --output {dir_s}/{tag}.sam --metrics-out {dir_s}/{tag}.jsonl {priced}"
                )))
                .unwrap()
            };
            let plain = format!("plain{pass}");
            run_map(&opts(&plain)).unwrap();
            let plain_run = run_record(&file(&format!("{plain}.jsonl")));
            assert_eq!(plain_run.1, 0);
            for k in [0, 1_024, 2_048] {
                let tag = format!("{pass}k{k}");
                let checkpointed = MapOptions {
                    checkpoint: Some(format!("{dir_s}/{tag}.ckpt")),
                    ..opts(&tag)
                };
                crash_after_commit(&checkpointed, k);
                let mut torn = vec![format!("{tag}.sam.tmp"), format!("{tag}.jsonl.tmp")];
                if !priced.is_empty() {
                    torn.push(format!("{tag}.ckpt.work"));
                }
                for name in &torn {
                    let mut f = std::fs::OpenOptions::new()
                        .append(true)
                        .open(file(name))
                        .unwrap();
                    f.write_all(b"torn\xff\x00 tail").unwrap();
                }
                run_map(&MapOptions {
                    resume: true,
                    ..checkpointed
                })
                .unwrap();
                let what = format!("{priced:?} resumed at {k}");
                assert!(
                    std::fs::read(file(&format!("{tag}.sam"))).unwrap()
                        == std::fs::read(file(&format!("{plain}.sam"))).unwrap(),
                    "{what}: SAM differs"
                );
                assert!(
                    read_records(&format!("{tag}.jsonl"))
                        == read_records(&format!("{plain}.jsonl")),
                    "{what}: read records differ"
                );
                let (run, resumed) = run_record(&file(&format!("{tag}.jsonl")));
                assert_eq!(run, plain_run.0, "{what}");
                assert_eq!(resumed, k as u64 / 64, "{what}");
                let stats =
                    render_stats(&std::fs::read_to_string(file(&format!("{tag}.jsonl"))).unwrap())
                        .unwrap();
                assert_eq!(stats.contains("resumed from checkpoint:"), k > 0, "{what}");
                if !priced.is_empty() {
                    assert_eq!(
                        std::fs::read(file(&format!("{tag}.json"))).unwrap(),
                        std::fs::read(file(&format!("{plain}.json"))).unwrap(),
                        "{what}: trace differs"
                    );
                }
                for name in &torn {
                    assert!(!file(name).exists(), "{what}: {name} left behind");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One read's output (40 M locations × 12 bytes) exceeds the GTX
    /// 590's quarter-RAM cap: a configuration error under every way of
    /// simulating, where the static planner used to panic.
    #[test]
    fn a_read_too_big_for_a_device_exits_with_a_configuration_error() {
        let dir =
            std::env::temp_dir().join(format!("repute-cli-too-big-test-{}", std::process::id()));
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
            assert!(!dir.join(format!("out{i}.sam.tmp")).exists(), "{extra:?}");
            assert!(!dir.join("ckpt.rpj").exists(), "{extra:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fault plan naming a device the platform lacks fails before a
    /// read is mapped; one that loses every device fails once the stream
    /// has ended, with the device-loss class, and leaves no file.
    #[test]
    fn losing_every_device_fails_after_the_stream_and_leaves_no_file() {
        let dir =
            std::env::temp_dir().join(format!("repute-cli-all-lost-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_string_lossy().into_owned();
        run_simulate(&SimulateOptions {
            out_dir: dir_s.clone(),
            length: 30_000,
            reads: 70,
            read_len: 100,
            seed: 61,
            profile: "err012100".into(),
        })
        .unwrap();
        for (plan, code) in [("loss:d5@0", 2), ("loss:d0@0,loss:d1@0,loss:d2@0", 7)] {
            let opts = parse_map_args(args(&format!(
                "--reference {dir_s}/reference.fa --reads {dir_s}/reads.fq --platform system1 \
                 --fault-plan {plan} --output {dir_s}/out.sam --metrics-out {dir_s}/m.jsonl"
            )))
            .unwrap();
            let err = run_map(&opts).unwrap_err();
            assert_eq!(err.exit_code(), code, "{plan}: {err}");
            for name in ["out.sam", "out.sam.tmp", "m.jsonl", "m.jsonl.tmp"] {
                assert!(!dir.join(name).exists(), "{plan}: {name} left behind");
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
    fn trace_out_is_deterministic_valid_and_summarizable() {
        let dir =
            std::env::temp_dir().join(format!("repute-cli-trace-test-{}", std::process::id()));
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

        // A checkpoint commits on the host, off the simulated timeline.
        let ckpt = run(
            &format!("--schedule dynamic --checkpoint {dir_s}/t.ckpt"),
            "c.json",
        );
        assert_eq!(ckpt, text.as_bytes());

        // Garbage is rejected with the input-parse class.
        assert!(render_trace_summary("{\"not\":\"an array\"}").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `run_map` is called with options structs built in code
    /// (`benchmark/`, the tests), which no parser has judged:
    /// `validate` gives them the parser's answer to the same flags.
    #[test]
    fn validate_rejects_a_built_struct_exactly_as_the_parser_rejects_the_flags() {
        let base = MapOptions {
            reference: "r.fa".into(),
            reads: "q.fq".into(),
            ..MapOptions::default()
        };
        let checkpointed = MapOptions {
            checkpoint: Some("j.ckpt".into()),
            output: Some("o.sam".into()),
            ..base.clone()
        };
        let cases = [
            (
                "--fault-plan loss:d0@0.1",
                MapOptions {
                    fault_plan: Some(FaultPlan::new().loss(0, 0.1)),
                    ..base.clone()
                },
            ),
            (
                "--trace-out t.json",
                MapOptions {
                    trace_out: Some("t.json".into()),
                    ..base.clone()
                },
            ),
            (
                "--resume",
                MapOptions {
                    resume: true,
                    ..base.clone()
                },
            ),
            (
                "--mapper coral --cigar",
                MapOptions {
                    mapper: MapperChoice::Coral,
                    cigar: true,
                    ..base.clone()
                },
            ),
            (
                "--mapper coral --prefilter both",
                MapOptions {
                    mapper: MapperChoice::Coral,
                    prefilter: PrefilterMode::Both,
                    ..base.clone()
                },
            ),
            (
                "--checkpoint j.ckpt",
                MapOptions {
                    output: None,
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
                platform: Some("system1".into()),
                fault_plan: Some(FaultPlan::new().loss(0, 0.1)),
                cigar: true,
                ..checkpointed
            },
        ] {
            assert_eq!(built.validate(), Ok(()));
        }
    }
}
