//! The traced run (`--trace 1`): one single-threaded pass that times
//! every layer from outside, through the crates' public functions.
//!
//! The mapping kernel is replayed stage by stage over chunks of
//! [`CHUNK`] reads — the same calls `ReputeMapper::map_read_metered`
//! makes, in the same order — so each stage is timed once per chunk,
//! never per read. Each chunk also goes through the fused kernel, and
//! the replay is checked against it: same mappings and counters per
//! read, and stage times that add up to the fused kernel's time, or the
//! run fails. Spans are kept in memory and written to
//! `benchmark/out/<workload>.trace.json` at the end.

use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use repute_core::{balanced_shares, map_on_platform_with_metrics, ReputeConfig, ReputeMapper};
use repute_eval::sam;
use repute_filter::freq::FreqTable;
use repute_filter::oss::{OssSolver, SelectionOutcome};
use repute_genome::fasta::{read_fasta, AmbiguityPolicy};
use repute_genome::fastq::{FastqReader, FastqRecord};
use repute_genome::{DnaSeq, Strand};
use repute_hetsim::profiles;
use repute_index::SuffixArray;
use repute_mappers::multiref::ReferenceSet;
use repute_mappers::{CandidateSet, Mapper, Mapping, VerifyEngine};
use repute_obs::json::JsonObject;
use repute_obs::MapMetrics;
use repute_prefilter::{
    Candidate, Chain, PreFilter, PrefilterMode, QgramFilter, ShdFilter, Verdict,
};
use repute_serve::{parse_request, Request, ServeHarness};

use crate::check::{parse_sam, recall};
use crate::child::{self, INDEX_RPX, OUT_SAM, READS_FQ};
use crate::e2e::{out_dir, Metrics, Outcome, WorkDir};
use crate::gen;
use crate::serve::{self, JOBS_JSONL, RESULTS_TSV};
use crate::spec::{Kind, Workload, MAX_LOCATIONS, S_MIN};
use crate::stats::{fnv64, median, percentile};

/// Reads per staged-replay chunk. The staged and the fused path take
/// turns chunk by chunk, so the chunk is also how long a burst of
/// machine noise can hit one path and miss the other: 64 reads are
/// 20–100 ms, and most stages of one chunk are still ≥ 1 ms to time.
const CHUNK: usize = 64;
/// Located occurrences per seed, as `repute-core` caps them.
const PER_SEED_LOCATE_CAP: usize = 20_000;
/// The attribution check needs this many chunk pairs to take a median
/// over (the smoke scale has fewer, and timings too short to compare).
const ATTRIBUTION_MIN_PAIRS: usize = 5;
/// How far the staged replay's time may sit from the fused kernel's.
const ATTRIBUTION_TOLERANCE: f64 = 0.05;
/// Mapping passes tried before the trace is declared invalid.
const ATTRIBUTION_PASSES: usize = 3;

/// One timed interval. `layer` is the part of `name` before the dot.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Times `f` as a span under `parent`.
    fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let value = f();
        self.close(id);
        value
    }

    /// Durations in seconds of the spans called `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.durations_since(0, name)
    }

    /// As [`Tracer::durations`], over the spans from index `first` on.
    fn durations_since(&self, first: usize, name: &str) -> Vec<f64> {
        self.spans[first..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    fn seconds(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |sum, d| sum + d)
    }

    /// For every span called `parent_name` from index `first` on, the
    /// summed seconds of its direct children whose name is in `names`.
    fn stage_sums(&self, first: usize, parent_name: &str, names: &[&str]) -> Vec<f64> {
        let mut sums: Vec<(usize, f64)> = self
            .spans
            .iter()
            .enumerate()
            .skip(first)
            .filter(|(_, s)| s.name == parent_name)
            .map(|(id, _)| (id, 0.0))
            .collect();
        for span in self.spans[first..]
            .iter()
            .filter(|s| names.contains(&s.name))
        {
            if let Some(slot) = sums.iter_mut().find(|(id, _)| Some(*id) == span.parent) {
                slot.1 += (span.end_ns - span.start_ns) as f64 * 1e-9;
            }
        }
        sums.into_iter().map(|(_, sum)| sum).collect()
    }

    fn to_json(&self, workload: &str) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut obj = JsonObject::new();
                obj.u64_field("id", id as u64);
                obj.str_field("name", s.name);
                obj.str_field("layer", s.name.split('.').next().unwrap_or(s.name));
                obj.u64_field("start", s.start_ns);
                obj.u64_field("end", s.end_ns);
                match s.parent {
                    Some(p) => obj.u64_field("parent", p as u64),
                    None => obj.raw_field("parent", "null"),
                };
                obj.finish()
            })
            .collect();
        let mut obj = JsonObject::new();
        obj.str_field("workload", workload);
        obj.str_field("unit", "ns");
        obj.raw_field("spans", &format!("[\n{}\n]", spans.join(",\n")));
        obj.finish()
    }
}

/// A prefilter that times every call into the filter it wraps — how
/// `prefilter.examine_s` is measured inside `VerifyEngine::verify_metered`,
/// which runs the filter and Myers interleaved, four candidates at a time.
#[derive(Debug)]
struct TimedFilter<'a> {
    inner: &'a dyn PreFilter,
    nanos: AtomicU64,
}

impl TimedFilter<'_> {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = f();
        // A statistic read after the threadless pass: Relaxed suffices.
        self.nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        value
    }
}

impl PreFilter for TimedFilter<'_> {
    fn examine(&self, candidate: &Candidate<'_>) -> Verdict {
        self.timed(|| self.inner.examine(candidate))
    }

    fn examine_batch(&self, candidates: &[Candidate<'_>], verdicts: &mut Vec<Verdict>) {
        self.timed(|| self.inner.examine_batch(candidates, verdicts));
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Per-read result of either kernel path.
type ReadResult = (Vec<Mapping>, MapMetrics);

/// Replays the kernel stage by stage over one chunk.
fn staged_chunk(
    tracer: &mut Tracer,
    parent: usize,
    mapper: &ReputeMapper,
    reads: &[DnaSeq],
) -> Vec<ReadResult> {
    let indexed = mapper.indexed();
    let config = mapper.config();
    let fm = indexed.fm();
    let params = config.oss_params();
    let solver = OssSolver::new(*params);
    let limit = config.max_locations();

    // The filter the engine runs before Myers, as the kernel builds it.
    let shd = ShdFilter::new();
    let qgram = QgramFilter::new(indexed.prefilter_bins());
    let chain = Chain::new(vec![&qgram, &shd]);
    let filter: Option<&dyn PreFilter> = match config.prefilter() {
        PrefilterMode::None => None,
        PrefilterMode::Shd => Some(&shd),
        PrefilterMode::Qgram => Some(&qgram),
        PrefilterMode::Both => Some(&chain),
    };
    let timed = filter.map(|inner| TimedFilter {
        inner,
        nanos: AtomicU64::new(0),
    });
    let mut engine = VerifyEngine::new(indexed.codes(), config.delta());
    if let Some(timed) = &timed {
        engine = engine.with_prefilter(timed);
    }

    let chunk = tracer.open("core.staged_chunk", Some(parent));
    let codes: Vec<[Vec<u8>; 2]> = tracer.span("genome.encode", chunk, || {
        reads
            .iter()
            .map(|r| [r.to_codes(), r.reverse_complement().to_codes()])
            .collect()
    });
    let mut results: Vec<ReadResult> = vec![(Vec::new(), MapMetrics::new()); reads.len()];
    for (s, strand) in [Strand::Forward, Strand::Reverse].into_iter().enumerate() {
        // The kernel skips infeasible strands and stops once the output
        // slots are full.
        let active: Vec<usize> = (0..reads.len())
            .filter(|&i| config.feasible_for(codes[i][s].len()) && results[i].0.len() < limit)
            .collect();

        let tables: Vec<FreqTable> = tracer.span("filter.freq_table", chunk, || {
            active
                .iter()
                .map(|&i| FreqTable::build(fm, &codes[i][s], params))
                .collect()
        });
        let outcomes: Vec<SelectionOutcome> = tracer.span("filter.seed_dp", chunk, || {
            active
                .iter()
                .zip(&tables)
                .map(|(&i, table)| solver.select(&codes[i][s], table))
                .collect()
        });
        for ((&i, table), outcome) in active.iter().zip(&tables).zip(&outcomes) {
            table.record_metrics(&mut results[i].1);
            outcome.record_metrics(&mut results[i].1);
        }
        // The kernel frees each table as it goes; that is table cost.
        tracer.span("filter.freq_table", chunk, || drop(tables));

        let located: Vec<Vec<(Vec<u32>, usize)>> = tracer.span("index.locate", chunk, || {
            outcomes
                .iter()
                .map(|outcome| {
                    outcome
                        .selection
                        .seeds
                        .iter()
                        .filter_map(|seed| {
                            let interval = seed.interval?;
                            Some((fm.locate(interval, PER_SEED_LOCATE_CAP), seed.anchor))
                        })
                        .collect()
                })
                .collect()
        });
        for (&i, seeds) in active.iter().zip(&located) {
            let n: u64 = seeds.iter().map(|(p, _)| p.len() as u64).sum();
            results[i].1.fm_locate_ops += n;
            results[i].1.candidates_raw += n;
        }

        let gap = CandidateSet::merge_gap(config.delta());
        let merged: Vec<Vec<u32>> = tracer.span("mappers.merge", chunk, || {
            located
                .into_iter()
                .map(|seeds| {
                    let mut set = CandidateSet::new();
                    for (positions, anchor) in seeds {
                        for pos in positions {
                            set.add(pos, anchor);
                        }
                    }
                    set.into_merged(gap)
                })
                .collect()
        });
        for (&i, diagonals) in active.iter().zip(&merged) {
            results[i].1.candidates_merged += diagonals.len() as u64;
        }

        let verify = tracer.open("align.verify", Some(chunk));
        for (&i, diagonals) in active.iter().zip(&merged) {
            let (mappings, metrics) = &mut results[i];
            engine.verify_metered(&codes[i][s], strand, diagonals, limit, mappings, metrics);
        }
        tracer.close(verify);
        if let Some(timed) = &timed {
            // The filter calls are scattered through the verify span;
            // their summed time is recorded as one child laid at its
            // start, so verify's self time is Myers.
            let busy = timed.nanos.swap(0, Ordering::Relaxed);
            let start_ns = tracer.spans[verify].start_ns;
            tracer.spans.push(Span {
                name: "prefilter.examine",
                start_ns,
                end_ns: start_ns + busy,
                parent: Some(verify),
            });
        }
    }
    tracer.close(chunk);
    results
}

/// The fused kernel over one chunk, one thread.
fn fused_chunk(
    tracer: &mut Tracer,
    parent: usize,
    mapper: &ReputeMapper,
    reads: &[DnaSeq],
) -> Vec<ReadResult> {
    tracer.span("core.map_read", parent, || {
        reads
            .iter()
            .map(|read| {
                let mut metrics = MapMetrics::new();
                let out = mapper.map_read_metered(read, &mut metrics);
                (out.mappings, metrics)
            })
            .collect()
    })
}

/// One pass over the reads: every chunk through the staged replay and
/// through the fused kernel, compared read by read. Returns the fused
/// results and the median relative gap between the two paths' times
/// (`None` with too few chunks to judge).
fn map_pass(
    tracer: &mut Tracer,
    root: usize,
    mapper: &ReputeMapper,
    seqs: &[DnaSeq],
) -> Result<(Vec<ReadResult>, Option<f64>), String> {
    let first_span = tracer.spans.len();
    let mut fused: Vec<ReadResult> = Vec::with_capacity(seqs.len());
    for (n, chunk) in seqs.chunks(CHUNK).enumerate() {
        // The paths swap order from one chunk to the next, so neither
        // always runs on the caches the other warmed.
        let (staged, direct) = if n % 2 == 0 {
            let staged = staged_chunk(tracer, root, mapper, chunk);
            (staged, fused_chunk(tracer, root, mapper, chunk))
        } else {
            let direct = fused_chunk(tracer, root, mapper, chunk);
            (staged_chunk(tracer, root, mapper, chunk), direct)
        };
        for (i, (a, b)) in staged.iter().zip(&direct).enumerate() {
            if a != b {
                return Err(format!(
                    "trace invalid: staged replay of read {} differs from map_read_metered \
                     (mappings {} vs {}, counters {:?} vs {:?})",
                    n * CHUNK + i,
                    a.0.len(),
                    b.0.len(),
                    a.1,
                    b.1
                ));
            }
        }
        fused.extend(direct);
    }
    // Chunks are compared in pairs — one of each order, which cancels
    // steady drift — and the median over pairs is taken, not the sum: a
    // burst of machine noise lands on one path of a few chunks.
    let fused_s = tracer.durations_since(first_span, "core.map_read");
    let staged_s = tracer.stage_sums(first_span, "core.staged_chunk", &KERNEL_STAGES);
    let gaps: Vec<f64> = fused_s
        .chunks_exact(2)
        .zip(staged_s.chunks_exact(2))
        .map(|(fused, staged)| {
            let (fused, staged) = (fused[0] + fused[1], staged[0] + staged[1]);
            (fused - staged) / fused
        })
        .collect();
    let gap = (gaps.len() >= ATTRIBUTION_MIN_PAIRS).then(|| median(&gaps));
    Ok((fused, gap))
}

/// The stages whose times must add up to `core.map_read`.
const KERNEL_STAGES: [&str; 6] = [
    "genome.encode",
    "filter.freq_table",
    "filter.seed_dp",
    "index.locate",
    "mappers.merge",
    "align.verify",
];

pub fn run(workload: &Workload, seed: u64) -> Result<Outcome, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let inputs = gen::generate(workload, seed, gen::read_count(workload, true));
    let fastq = gen::fastq_bytes(&inputs.reads);
    let work = WorkDir::create(&format!("{}-s{seed}-trace", workload.name))?;
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let root = tracer.open("bench.workload", None);

    // --- index layers -------------------------------------------------
    let records = tracer
        .span("genome.fasta_parse", root, || {
            read_fasta(inputs.fasta.as_slice(), AmbiguityPolicy::Randomize(0))
        })
        .map_err(|e| err(&e))?;
    let codes: Vec<u8> = records.iter().flat_map(|r| r.seq.to_codes()).collect();
    tracer.span("index.sa_build", root, || {
        black_box(SuffixArray::from_codes(&codes));
    });
    drop(codes);
    let set = tracer.span("index.build", root, || {
        ReferenceSet::build(records.into_iter().map(|r| (r.id, r.seq)).collect())
    });
    let index_path = work.path().join(INDEX_RPX);
    tracer
        .span("index.write", root, || {
            let mut file = BufWriter::new(std::fs::File::create(&index_path)?);
            set.write_to(&mut file)?;
            file.flush()
        })
        .map_err(|e| format!("writing {index_path:?}: {e}"))?;
    let index_file_bytes = std::fs::metadata(&index_path).map_err(|e| err(&e))?.len();
    tracer
        .span("index.load", root, || {
            let file = std::fs::File::open(&index_path)?;
            ReferenceSet::read_from(BufReader::new(file)).map(|set| {
                black_box(set);
            })
        })
        .map_err(|e| format!("loading {index_path:?}: {e}"))?;

    // --- mapping layers -----------------------------------------------
    let reads: Vec<FastqRecord> = tracer
        .span("genome.fastq_parse", root, || {
            FastqReader::new(fastq.as_slice()).collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| err(&e))?;
    let seqs: Vec<DnaSeq> = reads.iter().map(|r| r.seq.clone()).collect();
    let config = ReputeConfig::new(workload.delta, S_MIN)
        .map_err(|e| err(&e))?
        .with_max_locations(MAX_LOCATIONS)
        .with_prefilter(workload.prefilter);
    let mapper = ReputeMapper::new(std::sync::Arc::clone(set.indexed()), config);

    // A pass whose staged and fused times disagree is measured again:
    // machine noise disturbs a pass now and then, a replay that has
    // drifted from the kernel fails every time.
    let mut passes = 0;
    let (fused, gap) = loop {
        passes += 1;
        let mark = tracer.spans.len();
        let (fused, gap) = map_pass(&mut tracer, root, &mapper, &seqs)?;
        match gap {
            Some(gap) if gap.abs() > ATTRIBUTION_TOLERANCE => {
                if passes == ATTRIBUTION_PASSES {
                    return Err(format!(
                        "trace invalid: in {passes} passes the staged replay stayed beyond \
                         ±{:.0}% of the fused kernel (last median gap {:+.1}%)",
                        ATTRIBUTION_TOLERANCE * 100.0,
                        gap * 100.0
                    ));
                }
                tracer.spans.truncate(mark);
            }
            _ => break (fused, gap),
        }
    };
    let mut totals = MapMetrics::new();
    for (_, m) in &fused {
        totals.merge(m);
    }

    let names: Vec<&str> = set.records().iter().map(|(n, _)| n.as_str()).collect();
    let header: Vec<(&str, usize)> = set
        .records()
        .iter()
        .map(|(n, l)| (n.as_str(), *l))
        .collect();
    let sam_bytes = tracer.span("eval.sam_write", root, || -> Result<Vec<u8>, String> {
        let mut out = Vec::new();
        sam::write_header_multi(&mut out, &header).map_err(|e| err(&e))?;
        for (record, (mappings, _)) in reads.iter().zip(&fused) {
            let resolved = set.resolve_mappings(record.seq.len(), mappings);
            sam::write_resolved_record(&mut out, &names, &record.id, &record.seq, &resolved, None)
                .map_err(|e| err(&e))?;
        }
        work.write("trace.sam", &out)?;
        Ok(out)
    })?;
    let sam_text = std::str::from_utf8(&sam_bytes).map_err(|e| err(&e))?;
    let (_, blocks) = parse_sam(sam_text)?;
    let recalled = recall(&inputs.reads, &inputs.origins, &blocks, workload.delta)?;

    // --- the threaded executor and the simulated clock -----------------
    let platform = profiles::system1();
    let shares = balanced_shares(&mapper, &platform, workload.read_len, seqs.len());
    let (exec, exec_metrics) = tracer
        .span("core.exec", root, || {
            map_on_platform_with_metrics(&mapper, &platform, &shares, &seqs)
        })
        .map_err(|e| err(&e))?;
    if exec
        .outputs
        .iter()
        .zip(&fused)
        .any(|(a, b)| a.mappings != b.0)
    {
        return Err("trace invalid: the executor's mappings differ from map_read_metered".into());
    }
    tracer
        .span("obs.export", root, || -> std::io::Result<()> {
            let mut out = Vec::new();
            for (id, m) in exec_metrics.iter().enumerate() {
                writeln!(out, "{}", m.to_json_line(id as u64))?;
            }
            exec.report(&platform, &exec_metrics)
                .write_json_lines(&mut out)?;
            black_box(out);
            Ok(())
        })
        .map_err(|e| err(&e))?;

    // --- `repute map` itself, in a fresh process ------------------------
    work.write(READS_FQ, &fastq)?;
    let cli = child::spawn(
        work.path(),
        &child::map_args(workload.delta, workload.prefilter),
    )?;
    if work.read(OUT_SAM)? != sam_bytes {
        out.problems
            .push("`repute map` wrote a SAM that differs from the traced pass".into());
    }

    // Operations are in-budget reads, or for the daemon its jobs.
    let serve_metrics = if workload.kind == Kind::Serve {
        let lines = gen::job_lines(&inputs.reads);
        let (metrics, failed) = trace_serve(
            workload.delta,
            &mut tracer,
            root,
            &set,
            &work,
            &lines,
            sam_text,
        )?;
        out.attempted = lines.len() as u64;
        out.failed = failed;
        if recalled.failed > 0 {
            out.problems
                .push(format!("{} read origins not recovered", recalled.failed));
        }
        metrics
    } else {
        out.attempted = recalled.attempted;
        out.failed = recalled.failed;
        Vec::new()
    };
    tracer.close(root);

    let dir = out_dir();
    let trace_path = dir.join(format!("{}.trace.json", workload.name));
    std::fs::write(&trace_path, tracer.to_json(workload.name))
        .map_err(|e| format!("writing {trace_path:?}: {e}"))?;

    // --- metrics --------------------------------------------------------
    let t = |name: &str| tracer.seconds(name);
    let map_read_s = t("core.map_read");
    let attributed: f64 = KERNEL_STAGES.iter().map(|s| t(s)).sum();
    let unattributed_s = map_read_s - attributed;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let cli_wall = cli.get("wall_s")?;
    out.metrics = vec![
        ("genome.fasta_parse_s", t("genome.fasta_parse")),
        ("genome.fastq_parse_s", t("genome.fastq_parse")),
        ("genome.encode_s", t("genome.encode")),
        ("index.sa_build_s", t("index.sa_build")),
        ("index.build_s", t("index.build")),
        ("index.write_s", t("index.write")),
        ("index.file_bytes", index_file_bytes as f64),
        ("index.load_s", t("index.load")),
        (
            "index.fm_bytes",
            set.indexed().fm().footprint().total() as f64,
        ),
        ("index.extend_ops", totals.fm_extend_ops as f64),
        (
            "index.extend_ns_per_op",
            t("filter.freq_table") * 1e9 / (totals.fm_extend_ops.max(1)) as f64,
        ),
        ("index.locate_s", t("index.locate")),
        ("index.locate_ops", totals.fm_locate_ops as f64),
        ("filter.freq_table_s", t("filter.freq_table")),
        ("filter.seed_dp_s", t("filter.seed_dp")),
        ("filter.dp_cells", totals.dp_cells as f64),
        ("filter.candidates_raw", totals.candidates_raw as f64),
        ("mappers.merge_s", t("mappers.merge")),
        ("mappers.candidates_merged", totals.candidates_merged as f64),
        ("prefilter.examine_s", t("prefilter.examine")),
        ("prefilter.tested", totals.prefilter_tested as f64),
        (
            "prefilter.reject_ratio",
            ratio(totals.prefilter_rejected, totals.prefilter_tested),
        ),
        ("align.verify_s", t("align.verify")),
        ("align.myers_s", t("align.verify") - t("prefilter.examine")),
        ("align.word_updates", totals.word_updates as f64),
        ("align.hit_ratio", ratio(totals.hits, totals.verifications)),
        ("eval.sam_write_s", t("eval.sam_write")),
        ("eval.sam_bytes", sam_bytes.len() as f64),
        (
            "eval.recall_pct",
            100.0 * ratio(recalled.attempted - recalled.failed, recalled.attempted),
        ),
        ("eval.capped_reads", recalled.capped as f64),
        ("core.map_read_s", map_read_s),
        ("core.unattributed_s", unattributed_s),
        ("core.exec_wall_s", t("core.exec")),
        ("core.exec_speedup", map_read_s / t("core.exec")),
        ("core.sim_map_s", exec.simulated_seconds),
        ("core.sim_energy_j", exec.energy.energy_j),
        ("obs.export_s", t("obs.export")),
        ("cli.map_wall_s", cli_wall),
        ("cli.map_user_s", cli.get("user_s")?),
        ("cli.map_sys_s", cli.get("sys_s")?),
        (
            "cli.other_s",
            cli_wall
                - (t("index.load") + t("genome.fastq_parse") + map_read_s + t("eval.sam_write")),
        ),
    ];
    out.metrics.extend(serve_metrics);
    out.notes = vec![
        ("sam_fnv64", format!("{:016x}", fnv64(&sam_bytes))),
        ("trace_file", trace_path.display().to_string()),
        ("spans", tracer.spans.len().to_string()),
        (
            "chunk_gap_median_pct",
            format!("{:+.2}", gap.unwrap_or(0.0) * 100.0),
        ),
        ("map_passes", passes.to_string()),
    ];
    Ok(out)
}

/// The daemon's layers: a socket run (in a child, as in the end-to-end
/// run) over the fixed traced job list, then the same jobs replayed
/// through the in-process harness, one job per batch, each call timed.
fn trace_serve(
    delta: u32,
    tracer: &mut Tracer,
    root: usize,
    set: &ReferenceSet,
    work: &WorkDir,
    lines: &[String],
    batch_sam: &str,
) -> Result<(Metrics, u64), String> {
    let err = |e: repute_core::ReputeError| e.to_string();
    work.write(JOBS_JSONL, (lines.join("\n") + "\n").as_bytes())?;
    let socket = child::spawn(work.path(), &serve::child_args(delta, 0.0, lines.len()))?;
    let results = serve::read_results(&work.read(RESULTS_TSV)?)?;
    let expected = serve::expected_job_digests(batch_sam)?;
    if results.len() != lines.len() || expected.len() != lines.len() {
        return Err(format!(
            "{} jobs submitted, {} answered, {} expected",
            lines.len(),
            results.len(),
            expected.len()
        ));
    }

    let journal = work.path().join("replay.journal");
    let (mut harness, _) = ServeHarness::with_journal(
        set.clone(),
        profiles::system1(),
        serve::options(delta),
        &journal,
        false,
    )
    .map_err(err)?;
    let mut response_bytes = 0usize;
    let mut failed = 0u64;
    for (line, (result, digest)) in lines.iter().zip(results.iter().zip(&expected)) {
        let job = tracer.open("serve.job", Some(root));
        let request = tracer
            .span("serve.parse", job, || parse_request(line))
            .map_err(err)?;
        let Request::Job(envelope) = request else {
            return Err("a generated job line parsed as a shutdown".into());
        };
        let refusal = tracer
            .span("serve.submit", job, || harness.submit(envelope))
            .map_err(err)?;
        if let Some(refusal) = refusal {
            return Err(format!("the harness refused a job: {:?}", refusal.reason));
        }
        let responses = tracer
            .span("serve.run_batch", job, || harness.run_batch())
            .map_err(err)?;
        let [response] = responses.as_slice() else {
            return Err(format!(
                "a one-job batch gave {} responses",
                responses.len()
            ));
        };
        let encoded = tracer.span("serve.encode", job, || response.to_json_line());
        tracer.close(job);
        response_bytes += encoded.len();
        let replayed = response.sam.as_deref().map_or(0, |s| fnv64(s.as_bytes()));
        if !result.ok || result.sam_fnv64 != *digest || replayed != *digest {
            failed += 1;
        }
    }

    let jobs = lines.len() as f64;
    let wall_s = socket.get("wall_s")?;
    let latencies_ms: Vec<f64> = results.iter().map(|r| r.latency_s * 1e3).collect();
    let core_s = tracer.durations("serve.job");
    let p = |name: &str, q: f64| percentile(&tracer.durations(name), q);
    let metrics = vec![
        ("serve.parse_p50_s", p("serve.parse", 50.0)),
        ("serve.submit_p50_s", p("serve.submit", 50.0)),
        ("serve.submit_p99_s", p("serve.submit", 99.0)),
        ("serve.run_batch_p50_s", p("serve.run_batch", 50.0)),
        ("serve.run_batch_p99_s", p("serve.run_batch", 99.0)),
        ("serve.encode_p50_s", p("serve.encode", 50.0)),
        (
            "serve.jobs_per_batch",
            socket.get("completed")? / socket.get("batches")?.max(1.0),
        ),
        ("serve.response_bytes", response_bytes as f64 / jobs),
        (
            "serve.journal_bytes_per_job",
            socket.get("journal_bytes")? / jobs,
        ),
        ("serve.core_busy_share", core_s.iter().sum::<f64>() / wall_s),
        (
            "serve.transport_ms",
            median(&latencies_ms) - median(&core_s) * 1e3,
        ),
        ("serve.jobs_per_s", jobs / wall_s),
        ("serve.job_p50_ms", percentile(&latencies_ms, 50.0)),
        ("serve.job_p99_ms", percentile(&latencies_ms, 99.0)),
    ];
    Ok((metrics, failed))
}
