//! Verification-kernel micro-benchmark and its CI gate (`BENCH_pr8.json`).
//!
//! Measures the batch verification stage (Ukkonen-banded kernels,
//! per-read mask hoisting, [`repute_align::BatchVerifier`] SWAR lanes)
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
//! that it moved the second and not the first.
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
//!   CI machine noise).
//!
//! The corpus scale is pinned and ignores the `REPUTE_*` environment
//! overrides: committed numbers are only comparable when every run
//! verifies the identical candidate stream.

use std::sync::Arc;
use std::time::Instant;

use repute_align::block::{search_full, BlockMasks, BlockWork};
use repute_align::{BatchVerifier, ReadMasks, LANES};
use repute_bench::gate::{self, fail, Checks, Gate, Mode};
use repute_bench::workload::{s_min_for, Scale, Workload};
use repute_core::{Executor, ReputeConfig, ReputeMapper, Schedule};
use repute_genome::synth::ReferenceBuilder;
use repute_genome::wire::Fnv64;
use repute_hetsim::profiles;
use repute_mappers::{
    gem::GemLike, hobbes3::Hobbes3Like, razers3::Razers3Like, IndexedReference, Mapper,
};
use repute_obs::json::{field, JsonObject, JsonValue};
use repute_obs::MapMetrics;

const GATE: Gate = Gate {
    binary: "verify_kernel",
    schema: "repute-bench-verify-kernel",
    version: 2,
    noun: "verify-kernel",
    smoke: None,
};
/// The committed baseline must record at least this speedup — the
/// acceptance bar of the batch-kernel change itself.
const MIN_COMMITTED_SPEEDUP: f64 = 2.0;
/// A fresh `--check` run must reproduce at least this much of it;
/// the slack absorbs noisy shared CI machines.
const MIN_FRESH_SPEEDUP: f64 = 1.3;
/// Timed repetitions per path; the minimum is reported (noise robust).
const ROUNDS: usize = 7;

/// Pinned corpus: reads sliced from a synthetic reference, each
/// verified against `WINDOWS_PER_READ` candidate windows (true site,
/// mutated site, shifted sites, unrelated windows).
const CORPUS_REF_LEN: usize = 300_000;
const READS_PER_LEN: usize = 250;
const READ_LENS: [usize; 2] = [100, 150];
const WINDOWS_PER_READ: usize = 8;
const CORPUS_DELTA: u32 = 5;

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
        let masks = ReadMasks::new(&cr.read);
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

fn render_document(k: &KernelMeasurement, digest: &GridDigest) -> String {
    let mut corpus = JsonObject::new();
    corpus.u64_field("reference_len", CORPUS_REF_LEN as u64);
    corpus.u64_field("reads", (READS_PER_LEN * READ_LENS.len()) as u64);
    corpus.u64_field("windows_per_read", WINDOWS_PER_READ as u64);
    corpus.u64_field("delta", u64::from(CORPUS_DELTA));
    corpus.u64_field("candidates", k.candidates);
    let mut doc = JsonObject::new();
    doc.str_field("schema", GATE.schema);
    doc.u64_field("version", GATE.version);
    doc.raw_field("corpus", &corpus.finish());
    doc.f64_field("baseline_seconds", k.baseline_seconds);
    doc.f64_field("batch_seconds", k.batch_seconds);
    doc.f64_field("speedup", k.speedup);
    doc.u64_field("baseline_word_updates", k.baseline_words);
    doc.u64_field("batch_word_updates", k.batch_words);
    doc.str_field("mappings_digest", &digest.mappings);
    doc.str_field("accounting_digest", &digest.accounting);
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
}

fn validate_document(text: &str) -> Result<Committed, String> {
    let fields = &GATE.header(text)?;
    field(fields, "corpus")
        .and_then(JsonValue::as_obj)
        .ok_or("missing object field \"corpus\"")?;
    gate::require(
        fields,
        &[],
        &["baseline_seconds", "batch_seconds", "speedup"],
    )?;
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
    })
}

fn main() {
    let (mode, path) = GATE.mode().expect("a mode is required");
    println!(
        "Verification kernel benchmark — schema {} v{}",
        GATE.schema, GATE.version
    );
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

    if mode == Mode::Write {
        if k.speedup < MIN_COMMITTED_SPEEDUP {
            fail(&format!(
                "measured speedup {:.2}× is below the {MIN_COMMITTED_SPEEDUP:.1}× \
                 bar for a committed baseline",
                k.speedup
            ));
        }
        GATE.write(
            &path,
            &render_document(&k, &batch_digest),
            validate_document,
        );
        return;
    }

    let committed = GATE.read(&path, validate_document);
    let mut checks = Checks::default();
    if committed.speedup < MIN_COMMITTED_SPEEDUP {
        checks.fail(&format!(
            "committed speedup {:.2}× is below the {MIN_COMMITTED_SPEEDUP:.1}× bar",
            committed.speedup
        ));
    }
    if committed.baseline_words != k.baseline_words {
        checks.fail(&format!(
            "fresh baseline word total {} != committed {} (corpus or kernel \
             drift — regenerate with --write)",
            k.baseline_words, committed.baseline_words
        ));
    }
    if committed.batch_words != k.batch_words {
        checks.fail(&format!(
            "fresh batch word total {} != committed {} (band or accounting \
             drift — regenerate with --write)",
            k.batch_words, committed.batch_words
        ));
    }
    let same_mappings = committed.grid.mappings == batch_digest.mappings;
    if !same_mappings {
        checks.fail(&format!(
            "fresh mappings digest {} != committed {} (mapping output changed: a \
             reported location, distance, strand or candidate count)",
            batch_digest.mappings, committed.grid.mappings
        ));
    }
    if committed.grid.accounting != batch_digest.accounting {
        checks.fail(&format!(
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
    if k.speedup < MIN_FRESH_SPEEDUP {
        checks.fail(&format!(
            "fresh speedup {:.2}× fell below the {MIN_FRESH_SPEEDUP:.1}× floor \
             (committed: {:.2}×)",
            k.speedup, committed.speedup
        ));
    }
    checks.finish("verify-kernel ");
    println!(
        "\nall verify-kernel checks passed (committed {:.2}×, fresh {:.2}×)",
        committed.speedup, k.speedup
    );
}
