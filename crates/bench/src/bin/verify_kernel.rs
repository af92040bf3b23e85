//! Verification-kernel micro-benchmark and its CI gate (`BENCH_pr8.json`).
//!
//! Measures the batch verification stage (Ukkonen-banded kernels,
//! per-read mask hoisting, [`repute_align::BatchVerifier`] SWAR lanes
//! behind the exact prefix screen)
//! against the stage it replaced — the unbanded
//! [`repute_align::block::search_full`] kernel with masks and scratch
//! rebuilt per candidate — on a pinned synthetic candidate corpus,
//! asserting along the way that both paths report bit-identical hit
//! streams. A second stage checks
//! full-pipeline invariance: the whole mapper grid is digested twice —
//! over the indexed reference as built (batch path) and over a copy
//! marked [`IndexedReference::with_scalar_verify`] (scalar path) — and
//! the digests must agree. The grid has two digests: *mappings* (what
//! was found: every mapping triple and verified-candidate count) and
//! *accounting* (what it was charged: work totals, every metric counter,
//! simulated seconds), so a change that reprices work on purpose can show
//! that it moved the second and not the first. A third stage times the
//! prefilter lane pipeline: the engine's batch path under `--prefilter
//! both` — the filters handed 64 candidates a call, survivors verified
//! in lanes from the same unpacked windows — against its scalar path
//! (per-candidate `examine`, one window at a time), over every merged
//! candidate of a pinned repeat-rich read set. Both paths must report
//! the same mappings and the same accounting, and both digests are
//! pinned too. The seconds the
//! batch path spends inside the filters are also set against the same
//! engine with no filter installed, which runs none of the filter
//! kernels: a filter kernel that turns slower raises that ratio, though
//! it slows the scalar path alike.
//!
//! Modes:
//!
//! * `--write <path>` — run both stages and write the baseline document
//!   (corpus shape, wall seconds per path, speedup, work total, the two
//!   grid digests).
//! * `--check <path>` — re-run fresh and fail (exit 1) when the
//!   committed document is malformed, claims a speedup below
//!   [`MIN_COMMITTED_SPEEDUP`], disagrees with the fresh deterministic
//!   word total or either grid digest (naming which), or the fresh
//!   speedup falls below [`MIN_FRESH_SPEEDUP`] (the looser floor absorbs
//!   CI machine noise); likewise for the prefilter stage, whose digests
//!   must equal the committed ones, whose fresh speedup over the scalar
//!   path must reach [`MIN_PREFILTER_SPEEDUP`] and whose filter seconds
//!   over the unfiltered engine's must stay within [`MAX_PREFILTER_COST`].
//!
//! The corpus scale is pinned and ignores the `REPUTE_*` environment
//! overrides: committed numbers are only comparable when every run
//! verifies the identical candidate stream.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use repute_align::block::{search_full, BlockMasks, BlockWork};
use repute_align::{BatchVerifier, LANES};
use repute_bench::workload::{s_min_for, Scale, Workload};
use repute_core::{Executor, ReputeConfig, ReputeMapper, Schedule};
use repute_filter::oss::OssSolver;
use repute_genome::synth::ReferenceBuilder;
use repute_genome::wire::Fnv64;
use repute_genome::Strand;
use repute_hetsim::profiles;
use repute_mappers::{
    gem::GemLike, hobbes3::Hobbes3Like, razers3::Razers3Like, select_and_locate, CandidateSet,
    IndexedReference, Mapper, VerifyEngine,
};
use repute_obs::json::{field, parse_json, JsonObject, JsonValue};
use repute_obs::MapMetrics;
use repute_prefilter::{Candidate, Chain, PreFilter, QgramFilter, ShdFilter, Verdict};

/// The baseline document's `schema` field.
const SCHEMA: &str = "repute-bench-verify-kernel";
/// The baseline document's `version` field; bump on any key change and
/// regenerate the baseline.
const VERSION: u64 = 3;
/// The committed baseline must record at least this speedup — the
/// acceptance bar of the prefix-screened lane kernel (the lane kernel
/// without the screen committed 3.26×).
const MIN_COMMITTED_SPEEDUP: f64 = 4.5;
/// A fresh `--check` run must reproduce at least this much of it. The
/// slack absorbs noisy shared CI machines (the screened kernel read
/// 4.2–7.4× on a 2-vCPU VM), yet the kernel without the prefix screen
/// (2.7–3.3× in the same sitting) fails it.
const MIN_FRESH_SPEEDUP: f64 = 3.5;
/// Timed repetitions per path; the minimum is reported (noise robust).
const ROUNDS: usize = 7;
/// Timed repetitions per path of the prefilter stage, whose passes are
/// a few hundredths of a second: more of them steady the minimum.
const PREFILTER_ROUNDS: usize = 15;

/// The prefilter stage's floor on a fresh and a committed speedup of the
/// batch path over the scalar one. It read 2.6–2.9× on a 2-vCPU VM;
/// a batch path that hands the filters one candidate at a time runs the
/// scalar path's kernels and reads about 1×. Both paths run the same lane
/// kernels, so this ratio does not see a kernel that is slower on both:
/// [`MAX_PREFILTER_COST`] does.
const MIN_PREFILTER_SPEEDUP: f64 = 1.8;

/// The prefilter stage's ceiling on a fresh and a committed cost: the
/// seconds the batch path spends in the filters under `--prefilter both`
/// over the seconds of the engine with no filter that runs right after
/// it, on the same corpus; the median over the rounds. The unfiltered
/// engine runs no filter kernel, so a slower kernel raises the cost. It
/// read 0.72–0.77× on a 2-vCPU VM, and 1.54–1.60× in a copy that runs
/// every filter kernel twice.
const MAX_PREFILTER_COST: f64 = 1.1;

/// Pinned prefilter corpus: a repeat-rich reference of this length and
/// this many reads of each length, mapped at [`PREFILTER_DELTA`].
const PREFILTER_SCALE: Scale = Scale {
    reference_len: 1_000_000,
    reads_per_set: 300,
};
const PREFILTER_DELTA: u32 = 5;

/// Pinned corpus: reads sliced from a synthetic reference, each
/// verified against `WINDOWS_PER_READ` candidate windows (true site,
/// mutated site, shifted sites, unrelated windows).
const CORPUS_REF_LEN: usize = 300_000;
const READS_PER_LEN: usize = 250;
const READ_LENS: [usize; 2] = [100, 150];
const WINDOWS_PER_READ: usize = 8;
const CORPUS_DELTA: u32 = 5;

/// Parses the process arguments: `--write <path>` (`true`) or `--check
/// <path>` (`false`). Anything else prints the usage line and exits 1.
fn mode() -> (bool, String) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [mode, path] if mode == "--write" => (true, path.clone()),
        [mode, path] if mode == "--check" => (false, path.clone()),
        _ => {
            eprintln!("usage: verify_kernel --write <path> | --check <path>");
            std::process::exit(1);
        }
    }
}

/// Prints `FAIL: <msg>` and exits 1.
fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

/// One read with the byte ranges of its candidate windows.
struct CorpusRead {
    read: Vec<u8>,
    windows: Vec<(usize, usize)>,
}

/// Deterministic candidate corpus (no RNG beyond the seeded reference
/// builder — identical on every machine).
fn build_corpus() -> (Vec<u8>, Vec<CorpusRead>) {
    let reference = ReferenceBuilder::new(CORPUS_REF_LEN).seed(81).build();
    let codes = reference.to_codes();
    let n = codes.len();
    let delta = CORPUS_DELTA as usize;
    let mut reads = Vec::new();
    for (li, &m) in READ_LENS.iter().enumerate() {
        for r in 0..READS_PER_LEN {
            let at = (r * 977 + li * 353 + 64) % (n - m - 400);
            let mut read = codes[at..at + m].to_vec();
            // A third of the reads carry 2 substitutions, so true-site
            // verification is not all exact matches.
            if r % 3 == 0 {
                read[m / 4] = (read[m / 4] + 1) % 4;
                read[(3 * m) / 4] = (read[(3 * m) / 4] + 2) % 4;
            }
            let windows = (0..WINDOWS_PER_READ)
                .map(|c| {
                    let start = match c {
                        0 => at.saturating_sub(delta),                // true site
                        1 => at.saturating_sub(delta) + 3,            // shifted site
                        _ => (at + c * 31_013) % (n - m - 2 * delta), // decoys
                    };
                    (start, (start + m + 2 * delta).min(n))
                })
                .collect();
            reads.push(CorpusRead { read, windows });
        }
    }
    (codes, reads)
}

/// Folds a hit (or miss) into the digest. Only the alignment result is
/// folded — the two stages deliberately report different work totals
/// (that reduction is half the point), which are compared separately.
fn fold_hit(h: &mut Fnv64, hit: Option<(u32, usize)>) {
    match hit {
        Some((distance, end)) => {
            h.write_u64(1);
            h.write_u64(u64::from(distance));
            h.write_u64(end as u64);
        }
        None => h.write_u64(0),
    }
}

/// One full baseline pass: the verification stage as it was before
/// this kernel generation — the unbanded blocked kernel, with pattern
/// masks and working memory rebuilt for every candidate.
fn baseline_pass(codes: &[u8], corpus: &[CorpusRead]) -> (u64, u64) {
    let mut digest = Fnv64::standard();
    let mut words = 0u64;
    for cr in corpus {
        for &(s, e) in &cr.windows {
            let masks = BlockMasks::new(&cr.read);
            let mut work = BlockWork::default();
            let hit = search_full(&masks, &codes[s..e], CORPUS_DELTA, &mut work);
            words += work.word_updates();
            fold_hit(&mut digest, hit.map(|h| (h.distance, h.end)));
        }
    }
    (digest.finish(), words)
}

/// One full batch pass: the current verification stage — banded
/// kernels, masks hoisted per read, windows verified [`LANES`] at a
/// time through the SWAR lanes on reused arenas.
fn batch_pass(codes: &[u8], corpus: &[CorpusRead], verifier: &mut BatchVerifier) -> (u64, u64) {
    let mut digest = Fnv64::standard();
    let mut words = 0u64;
    let mut results = Vec::with_capacity(LANES);
    let mut lanes: Vec<&[u8]> = Vec::with_capacity(LANES);
    for cr in corpus {
        let masks = BlockMasks::new(&cr.read);
        for chunk in cr.windows.chunks(LANES) {
            lanes.clear();
            lanes.extend(chunk.iter().map(|&(s, e)| &codes[s..e]));
            results.clear();
            verifier.verify_lanes(&masks, &lanes, CORPUS_DELTA, &mut results);
            for res in &results {
                words += res.1.word_updates;
                fold_hit(&mut digest, res.0.map(|v| (v.distance, v.end)));
            }
        }
    }
    (digest.finish(), words)
}

/// Kernel-stage measurement: hit-identity assertion plus best-of-ROUNDS
/// wall seconds for each path.
struct KernelMeasurement {
    baseline_seconds: f64,
    batch_seconds: f64,
    speedup: f64,
    baseline_words: u64,
    batch_words: u64,
    candidates: u64,
}

fn measure_kernel() -> KernelMeasurement {
    let (codes, corpus) = build_corpus();
    let candidates: u64 = corpus.iter().map(|c| c.windows.len() as u64).sum();
    let mut verifier = BatchVerifier::new();
    // Differential warmup: the two paths must report identical hits.
    let (baseline_digest, baseline_words) = baseline_pass(&codes, &corpus);
    let (batch_digest, batch_words) = batch_pass(&codes, &corpus, &mut verifier);
    assert_eq!(
        baseline_digest, batch_digest,
        "batch verification diverged from the unbanded baseline"
    );
    assert!(
        batch_words <= baseline_words,
        "banded path charged more word updates ({batch_words}) than the \
         unbanded baseline ({baseline_words})"
    );
    let mut baseline_best = f64::INFINITY;
    let mut batch_best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let (d, _) = baseline_pass(&codes, &corpus);
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(d, baseline_digest);
        baseline_best = baseline_best.min(dt);
        let t = Instant::now();
        let (d, _) = batch_pass(&codes, &corpus, &mut verifier);
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(d, batch_digest);
        batch_best = batch_best.min(dt);
    }
    KernelMeasurement {
        baseline_seconds: baseline_best,
        batch_seconds: batch_best,
        speedup: baseline_best / batch_best,
        baseline_words,
        batch_words,
        candidates,
    }
}

/// The two halves of the grid digest, as 16 hex digits each.
#[derive(Debug, PartialEq, Eq)]
struct GridDigest {
    /// What was found: mapping triples and verified-candidate counts.
    mappings: String,
    /// What it was charged: work totals, metric counters, simulated
    /// seconds.
    accounting: String,
}

/// The hashers behind a [`GridDigest`].
struct GridHashers {
    mappings: Fnv64,
    accounting: Fnv64,
}

impl GridHashers {
    /// Folds a mapping run in read order: the mapping triples and
    /// candidate counts into one half, the work totals and every metric
    /// counter into the other.
    fn fold_outputs(&mut self, outputs: &[repute_mappers::MapOutput], metrics: &[MapMetrics]) {
        for out in outputs {
            self.mappings.write_u64(out.mappings.len() as u64);
            for m in &out.mappings {
                self.mappings.write_u64(u64::from(m.position));
                self.mappings.write_u64(u64::from(m.distance));
                self.mappings
                    .write_u64(u64::from(m.strand == repute_genome::Strand::Reverse));
            }
            self.mappings.write_u64(out.candidates);
            self.accounting.write_u64(out.work);
        }
        for m in metrics {
            for (_, v) in m.fields() {
                self.accounting.write_u64(v);
            }
        }
    }
}

/// The full-pipeline grid digest: REPUTE across schedules and host
/// thread counts, plus the engine-sharing baseline mappers per read.
/// A batch/scalar divergence anywhere in mapping output changes the
/// mappings half, one in work accounting the accounting half. Every
/// mapper takes its verification engine from `indexed`, which stands in
/// for the workload's own index.
fn grid_digest(w: &Workload, indexed: &Arc<IndexedReference>) -> GridDigest {
    let platform = profiles::system1();
    let mut h = GridHashers {
        mappings: Fnv64::standard(),
        accounting: Fnv64::standard(),
    };
    for &(read_len, delta) in &[(100usize, 3u32), (150, 5)] {
        let reads = w.read_seqs(read_len);
        let config = ReputeConfig::new(delta, s_min_for(read_len, delta)).expect("valid config");
        let mapper = ReputeMapper::new(Arc::clone(indexed), config);
        for host_threads in [1usize, 4] {
            for schedule in [
                Schedule::Static(platform.even_shares(reads.len())),
                Schedule::Dynamic { batch: 0 },
            ] {
                let executor = Executor {
                    host_threads,
                    ..Executor::new(schedule)
                };
                let (run, metrics) = executor
                    .run(&mapper, &platform, &reads)
                    .expect("grid cell run failed");
                h.fold_outputs(&run.outputs, &metrics);
                h.accounting.write_u64(run.simulated_seconds.to_bits());
            }
        }
        // Baseline mappers share VerifyEngine; digest their raw
        // per-read outputs and telemetry.
        let gem = GemLike::new(Arc::clone(indexed), delta);
        let razers = Razers3Like::new(Arc::clone(indexed), delta);
        let hobbes = Hobbes3Like::new(Arc::clone(indexed), delta);
        let baselines: [&dyn Mapper; 3] = [&gem, &razers, &hobbes];
        for mapper in baselines {
            for read in &reads {
                let mut metrics = MapMetrics::new();
                let out = mapper.map_read_metered(read, &mut metrics);
                h.fold_outputs(std::slice::from_ref(&out), &[metrics]);
            }
        }
    }
    GridDigest {
        mappings: format!("{:016x}", h.mappings.finish()),
        accounting: format!("{:016x}", h.accounting.finish()),
    }
}

/// One strand of one read of the prefilter corpus: its codes and its
/// merged candidate diagonals.
struct StrandCandidates {
    strand: Strand,
    codes: Vec<u8>,
    diagonals: Vec<u32>,
}

/// The prefilter stage: wall seconds of each path and of the engine with
/// no filter, and the digests both paths agreed on.
struct PrefilterMeasurement {
    scalar_seconds: f64,
    batch_seconds: f64,
    /// Seconds of the batch pass spent in the filters.
    filter_seconds: f64,
    unfiltered_seconds: f64,
    /// Scalar seconds over batch seconds.
    speedup: f64,
    /// Filter seconds over unfiltered seconds: the median of the rounds'
    /// ratios, each of two passes run back to back.
    cost: f64,
    candidates: u64,
    digest: GridDigest,
}

/// Every merged candidate of the pinned repeat-rich read set, seeded as
/// REPUTE seeds them (frequency table + DP partition, located in one
/// lockstep locate).
fn prefilter_corpus(w: &Workload, config: &ReputeConfig) -> Vec<StrandCandidates> {
    let selector = OssSolver::new(*config.oss_params());
    let mut seed = select_and_locate(&selector, w.indexed.fm(), 20_000, |n| {
        config.feasible_for(n)
    });
    let mut corpus = Vec::new();
    for read_len in [100, 150] {
        for read in w.read_seqs(read_len) {
            let strands = [
                (Strand::Forward, read.to_codes()),
                (Strand::Reverse, read.reverse_complement().to_codes()),
            ];
            for (strand, codes) in strands {
                let mut set = CandidateSet::new();
                if seed(&codes, &mut set, &mut MapMetrics::new()).is_some() {
                    let diagonals = set.into_merged(CandidateSet::merge_gap(PREFILTER_DELTA));
                    corpus.push(StrandCandidates {
                        strand,
                        codes,
                        diagonals,
                    });
                }
            }
        }
    }
    corpus
}

/// Verifies every strand of `corpus` through `engine` up to `limit`
/// mappings, digesting the mappings into one half and the work and every
/// metric counter into the other.
fn prefilter_pass(
    engine: &VerifyEngine<'_>,
    corpus: &[StrandCandidates],
    limit: usize,
) -> GridDigest {
    let mut h = GridHashers {
        mappings: Fnv64::standard(),
        accounting: Fnv64::standard(),
    };
    let mut out = Vec::new();
    for s in corpus {
        out.clear();
        let mut metrics = MapMetrics::new();
        let work = engine.verify_metered(
            &s.codes,
            s.strand,
            &s.diagonals,
            limit,
            &mut out,
            &mut metrics,
        );
        h.mappings.write_u64(out.len() as u64);
        for m in &out {
            h.mappings.write_u64(u64::from(m.position));
            h.mappings.write_u64(u64::from(m.distance));
            h.mappings.write_u64(u64::from(m.strand == Strand::Reverse));
        }
        h.accounting.write_u64(work);
        for (_, v) in metrics.fields() {
            h.accounting.write_u64(v);
        }
    }
    GridDigest {
        mappings: format!("{:016x}", h.mappings.finish()),
        accounting: format!("{:016x}", h.accounting.finish()),
    }
}

/// A filter that adds the wall time of every call it hands `inner` to
/// `nanos`: the seconds a pass spends in the filters.
#[derive(Debug)]
struct TimedFilter<'a> {
    inner: &'a dyn PreFilter,
    nanos: AtomicU64,
}

impl TimedFilter<'_> {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = f();
        // Read after the single-threaded pass: Relaxed suffices.
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

/// The prefilter stage: both paths over the pinned corpus, digests
/// compared (a mismatch fails the run), then best-of-PREFILTER_ROUNDS
/// seconds each and of the engine with no filter, which must find the
/// same mappings, and the median cost.
fn measure_prefilter() -> PrefilterMeasurement {
    let w = Workload::generate(PREFILTER_SCALE);
    let config =
        ReputeConfig::new(PREFILTER_DELTA, s_min_for(100, PREFILTER_DELTA)).expect("valid config");
    let corpus = prefilter_corpus(&w, &config);
    let candidates = corpus.iter().map(|s| s.diagonals.len() as u64).sum();
    let scalar_index = IndexedReference::clone(&w.indexed).with_scalar_verify();
    let qgram = QgramFilter::new(w.indexed.prefilter_bins());
    let shd = ShdFilter::new();
    let chain = Chain::new(vec![&qgram, &shd]);
    let timed = TimedFilter {
        inner: &chain,
        nanos: AtomicU64::new(0),
    };
    let batch = w
        .indexed
        .verify_engine(PREFILTER_DELTA)
        .with_prefilter(&timed);
    let scalar = scalar_index
        .verify_engine(PREFILTER_DELTA)
        .with_prefilter(&chain);
    let unfiltered = w.indexed.verify_engine(PREFILTER_DELTA);
    let limit = config.max_locations();
    let digest = prefilter_pass(&batch, &corpus, limit);
    let scalar_digest = prefilter_pass(&scalar, &corpus, limit);
    if digest.mappings != scalar_digest.mappings {
        fail("prefilter stage: batch and scalar paths produced different mappings");
    }
    if digest.accounting != scalar_digest.accounting {
        fail("prefilter stage: batch and scalar paths map alike but account differently");
    }
    let unfiltered_digest = prefilter_pass(&unfiltered, &corpus, limit);
    if unfiltered_digest.mappings != digest.mappings {
        fail("prefilter stage: the filters rejected a candidate the engine with none maps");
    }
    let time = |engine: &VerifyEngine<'_>, expected: &GridDigest| {
        let started = Instant::now();
        let d = prefilter_pass(engine, &corpus, limit);
        assert_eq!(&d, expected, "a timed pass diverged");
        started.elapsed().as_secs_f64()
    };
    let mut best = [f64::INFINITY; 4];
    let mut costs = Vec::with_capacity(PREFILTER_ROUNDS);
    for _ in 0..PREFILTER_ROUNDS {
        best[0] = best[0].min(time(&scalar, &digest));
        timed.nanos.store(0, Ordering::Relaxed);
        best[1] = best[1].min(time(&batch, &digest));
        let filter = timed.nanos.load(Ordering::Relaxed) as f64 * 1e-9;
        best[2] = best[2].min(filter);
        let unfiltered = time(&unfiltered, &unfiltered_digest);
        best[3] = best[3].min(unfiltered);
        costs.push(filter / unfiltered);
    }
    let [scalar_best, batch_best, filter_best, unfiltered_best] = best;
    costs.sort_by(f64::total_cmp);
    PrefilterMeasurement {
        scalar_seconds: scalar_best,
        batch_seconds: batch_best,
        filter_seconds: filter_best,
        unfiltered_seconds: unfiltered_best,
        speedup: scalar_best / batch_best,
        cost: costs[PREFILTER_ROUNDS / 2],
        candidates,
        digest,
    }
}

fn render_document(k: &KernelMeasurement, digest: &GridDigest, p: &PrefilterMeasurement) -> String {
    let mut corpus = JsonObject::new();
    corpus.u64_field("reference_len", CORPUS_REF_LEN as u64);
    corpus.u64_field("reads", (READS_PER_LEN * READ_LENS.len()) as u64);
    corpus.u64_field("windows_per_read", WINDOWS_PER_READ as u64);
    corpus.u64_field("delta", u64::from(CORPUS_DELTA));
    corpus.u64_field("candidates", k.candidates);
    let mut doc = JsonObject::new();
    doc.str_field("schema", SCHEMA);
    doc.u64_field("version", VERSION);
    doc.raw_field("corpus", &corpus.finish());
    doc.f64_field("baseline_seconds", k.baseline_seconds);
    doc.f64_field("batch_seconds", k.batch_seconds);
    doc.f64_field("speedup", k.speedup);
    doc.u64_field("baseline_word_updates", k.baseline_words);
    doc.u64_field("batch_word_updates", k.batch_words);
    doc.str_field("mappings_digest", &digest.mappings);
    doc.str_field("accounting_digest", &digest.accounting);
    doc.u64_field("prefilter_candidates", p.candidates);
    doc.f64_field("prefilter_scalar_seconds", p.scalar_seconds);
    doc.f64_field("prefilter_batch_seconds", p.batch_seconds);
    doc.f64_field("prefilter_speedup", p.speedup);
    doc.f64_field("prefilter_filter_seconds", p.filter_seconds);
    doc.f64_field("prefilter_unfiltered_seconds", p.unfiltered_seconds);
    doc.f64_field("prefilter_cost", p.cost);
    doc.str_field("prefilter_mappings_digest", &p.digest.mappings);
    doc.str_field("prefilter_accounting_digest", &p.digest.accounting);
    let mut text = doc.finish();
    text.push('\n');
    text
}

/// Committed-document fields the check compares against.
struct Committed {
    speedup: f64,
    baseline_words: u64,
    batch_words: u64,
    grid: GridDigest,
    prefilter_speedup: f64,
    prefilter_cost: f64,
    prefilter: GridDigest,
}

/// Checks a baseline document — the `schema`/`version` header, then the
/// fields the check reads — and returns them; `--write` applies it to
/// the fresh document before it lands on disk.
fn validate_document(text: &str) -> Result<Committed, String> {
    let JsonValue::Obj(fields) = parse_json(text).ok_or("not valid JSON")? else {
        return Err("top level is not an object".into());
    };
    let fields = &fields;
    let schema = field(fields, "schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing string field \"schema\"")?;
    if schema != SCHEMA {
        return Err(format!("schema is {schema:?}, expected {SCHEMA:?}"));
    }
    let version = field(fields, "version")
        .and_then(JsonValue::as_u64)
        .ok_or("missing integer field \"version\"")?;
    if version != VERSION {
        return Err(format!("schema version is {version}, expected {VERSION}"));
    }
    field(fields, "corpus")
        .and_then(JsonValue::as_obj)
        .ok_or("missing object field \"corpus\"")?;
    let numbers = [
        "baseline_seconds",
        "batch_seconds",
        "speedup",
        "prefilter_scalar_seconds",
        "prefilter_batch_seconds",
        "prefilter_speedup",
        "prefilter_filter_seconds",
        "prefilter_unfiltered_seconds",
        "prefilter_cost",
    ];
    if let Some(key) = numbers
        .iter()
        .find(|key| field(fields, key).and_then(JsonValue::as_f64).is_none())
    {
        return Err(format!("missing numeric field {key:?}"));
    }
    let speedup = field(fields, "speedup")
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    let baseline_words = field(fields, "baseline_word_updates")
        .and_then(JsonValue::as_u64)
        .ok_or("missing integer field \"baseline_word_updates\"")?;
    let batch_words = field(fields, "batch_word_updates")
        .and_then(JsonValue::as_u64)
        .ok_or("missing integer field \"batch_word_updates\"")?;
    let digest = |key: &str| {
        field(fields, key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or(format!("missing string field {key:?}"))
    };
    Ok(Committed {
        speedup,
        baseline_words,
        batch_words,
        grid: GridDigest {
            mappings: digest("mappings_digest")?,
            accounting: digest("accounting_digest")?,
        },
        prefilter_speedup: field(fields, "prefilter_speedup")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0),
        prefilter_cost: field(fields, "prefilter_cost")
            .and_then(JsonValue::as_f64)
            .unwrap_or(f64::INFINITY),
        prefilter: GridDigest {
            mappings: digest("prefilter_mappings_digest")?,
            accounting: digest("prefilter_accounting_digest")?,
        },
    })
}

fn main() {
    let (write, path) = mode();
    println!("Verification kernel benchmark — schema {SCHEMA} v{VERSION}");
    println!(
        "pinned corpus: {} reads × {} windows, read lens {:?}, δ={}",
        READS_PER_LEN * READ_LENS.len(),
        WINDOWS_PER_READ,
        READ_LENS,
        CORPUS_DELTA
    );
    println!("measuring kernel paths (best of {ROUNDS})…");
    let k = measure_kernel();
    println!(
        "  baseline {:.6} s | batch {:.6} s | speedup {:.2}× | {} candidate(s)",
        k.baseline_seconds, k.batch_seconds, k.speedup, k.candidates
    );
    println!(
        "  word updates: baseline {} → batch {} ({:.1}% of baseline work)",
        k.baseline_words,
        k.batch_words,
        100.0 * k.batch_words as f64 / k.baseline_words as f64
    );
    let w = Workload::generate(Scale::tiny());
    println!("digesting mapper grid (batch path, in process)…");
    let print = |digest: &GridDigest| {
        println!("  mappings-digest:   {}", digest.mappings);
        println!("  accounting-digest: {}", digest.accounting);
    };
    let batch_digest = grid_digest(&w, &w.indexed);
    print(&batch_digest);
    println!("digesting mapper grid (scalar path, in process)…");
    let scalar = IndexedReference::clone(&w.indexed).with_scalar_verify();
    let scalar_digest = grid_digest(&w, &Arc::new(scalar));
    print(&scalar_digest);
    if batch_digest.mappings != scalar_digest.mappings {
        fail("batch and scalar pipelines produced different mappings");
    }
    if batch_digest.accounting != scalar_digest.accounting {
        fail("batch and scalar pipelines map alike but account for their work differently");
    }
    println!("grid invariance OK: batch and scalar pipelines agree bit for bit");
    println!("measuring the prefilter lane pipeline under --prefilter both (best of {PREFILTER_ROUNDS})…");
    let p = measure_prefilter();
    println!(
        "  scalar {:.6} s | batch {:.6} s | speedup {:.2}× | {} candidate(s)",
        p.scalar_seconds, p.batch_seconds, p.speedup, p.candidates
    );
    println!(
        "  batch path in the filters {:.6} s | no filter {:.6} s | cost {:.2}×",
        p.filter_seconds, p.unfiltered_seconds, p.cost
    );
    println!(
        "  mappings-digest:   {}\n  accounting-digest: {}",
        p.digest.mappings, p.digest.accounting
    );

    if write {
        if k.speedup < MIN_COMMITTED_SPEEDUP {
            fail(&format!(
                "measured speedup {:.2}× is below the {MIN_COMMITTED_SPEEDUP:.1}× \
                 bar for a committed baseline",
                k.speedup
            ));
        }
        if p.speedup < MIN_PREFILTER_SPEEDUP {
            fail(&format!(
                "measured prefilter speedup {:.2}× is below the \
                 {MIN_PREFILTER_SPEEDUP:.1}× bar for a committed baseline",
                p.speedup
            ));
        }
        if p.cost > MAX_PREFILTER_COST {
            fail(&format!(
                "measured prefilter cost {:.2}× is above the \
                 {MAX_PREFILTER_COST:.1}× bar for a committed baseline",
                p.cost
            ));
        }
        let text = render_document(&k, &batch_digest, &p);
        if let Err(err) = validate_document(&text) {
            eprintln!("BUG: freshly written document fails its own schema: {err}");
            std::process::exit(1);
        }
        if let Err(err) = std::fs::write(&path, text) {
            eprintln!("cannot write {path}: {err}");
            std::process::exit(1);
        }
        println!("wrote baseline to {path}");
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        eprintln!("cannot read {path}: {err}");
        std::process::exit(1);
    });
    let committed = validate_document(&text)
        .unwrap_or_else(|err| fail(&format!("{path} violates the verify-kernel schema: {err}")));
    // Every failed check is reported before the binary exits.
    let mut failed = 0u32;
    let mut check_failed = |msg: &str| {
        eprintln!("FAIL: {msg}");
        failed += 1;
    };
    if committed.speedup < MIN_COMMITTED_SPEEDUP {
        check_failed(&format!(
            "committed speedup {:.2}× is below the {MIN_COMMITTED_SPEEDUP:.1}× bar",
            committed.speedup
        ));
    }
    if committed.baseline_words != k.baseline_words {
        check_failed(&format!(
            "fresh baseline word total {} != committed {} (corpus or kernel \
             drift — regenerate with --write)",
            k.baseline_words, committed.baseline_words
        ));
    }
    if committed.batch_words != k.batch_words {
        check_failed(&format!(
            "fresh batch word total {} != committed {} (band or accounting \
             drift — regenerate with --write)",
            k.batch_words, committed.batch_words
        ));
    }
    let same_mappings = committed.grid.mappings == batch_digest.mappings;
    if !same_mappings {
        check_failed(&format!(
            "fresh mappings digest {} != committed {} (mapping output changed: a \
             reported location, distance, strand or candidate count)",
            batch_digest.mappings, committed.grid.mappings
        ));
    }
    if committed.grid.accounting != batch_digest.accounting {
        check_failed(&format!(
            "fresh accounting digest {} != committed {} (a work total, metric counter \
             or simulated second changed{} — regenerate with --write if the repricing \
             is meant)",
            batch_digest.accounting,
            committed.grid.accounting,
            if same_mappings {
                "; the mappings did not"
            } else {
                ""
            }
        ));
    }
    if committed.prefilter != p.digest {
        check_failed(&format!(
            "fresh prefilter digests {}/{} != committed {}/{} (mappings/accounting \
             of the prefilter stage changed — regenerate with --write if meant)",
            p.digest.mappings,
            p.digest.accounting,
            committed.prefilter.mappings,
            committed.prefilter.accounting
        ));
    }
    if committed.prefilter_speedup < MIN_PREFILTER_SPEEDUP {
        check_failed(&format!(
            "committed prefilter speedup {:.2}× is below the {MIN_PREFILTER_SPEEDUP:.1}× bar",
            committed.prefilter_speedup
        ));
    }
    if p.speedup < MIN_PREFILTER_SPEEDUP {
        check_failed(&format!(
            "fresh prefilter speedup {:.2}× fell below the {MIN_PREFILTER_SPEEDUP:.1}× floor \
             (committed: {:.2}×)",
            p.speedup, committed.prefilter_speedup
        ));
    }
    if committed.prefilter_cost > MAX_PREFILTER_COST {
        check_failed(&format!(
            "committed prefilter cost {:.2}× is above the {MAX_PREFILTER_COST:.1}× bar",
            committed.prefilter_cost
        ));
    }
    if p.cost > MAX_PREFILTER_COST {
        check_failed(&format!(
            "fresh prefilter cost {:.2}× (filter seconds over the unfiltered engine's) rose above the \
             {MAX_PREFILTER_COST:.1}× ceiling (committed: {:.2}×): a filter kernel is slower",
            p.cost, committed.prefilter_cost
        ));
    }
    if k.speedup < MIN_FRESH_SPEEDUP {
        check_failed(&format!(
            "fresh speedup {:.2}× fell below the {MIN_FRESH_SPEEDUP:.1}× floor \
             (committed: {:.2}×)",
            k.speedup, committed.speedup
        ));
    }
    if failed > 0 {
        eprintln!("\n{failed} verify-kernel check(s) failed");
        std::process::exit(1);
    }
    println!(
        "\nall verify-kernel checks passed (committed {:.2}×, fresh {:.2}×; prefilter \
         committed {:.2}×, fresh {:.2}×; prefilter cost committed {:.2}×, fresh {:.2}×)",
        committed.speedup,
        k.speedup,
        committed.prefilter_speedup,
        p.speedup,
        committed.prefilter_cost,
        p.cost
    );
}
