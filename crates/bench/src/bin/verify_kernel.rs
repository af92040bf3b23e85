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
//! in-process (batch path) and in a `REPUTE_SCALAR_VERIFY=1` child
//! process (scalar path) — and the digests must agree.
//!
//! Modes:
//!
//! * `--write <path>` — run both stages and write the baseline document
//!   (corpus shape, wall seconds per path, speedup, work total, grid
//!   digest).
//! * `--check <path>` — re-run fresh and fail (exit 1) when the
//!   committed document is malformed, claims a speedup below
//!   [`MIN_COMMITTED_SPEEDUP`], disagrees with the fresh deterministic
//!   word total or grid digest, or the fresh speedup falls below
//!   [`MIN_FRESH_SPEEDUP`] (the looser floor absorbs CI machine noise).
//! * `--grid-digest` — internal: print the grid digest and exit (the
//!   child-process half of the invariance check).
//!
//! The corpus scale is pinned and ignores the `REPUTE_*` environment
//! overrides: committed numbers are only comparable when every run
//! verifies the identical candidate stream.

use std::sync::Arc;
use std::time::Instant;

use repute_align::block::{search_full, BlockMasks, BlockWork};
use repute_align::{BatchVerifier, ReadMasks, LANES};
use repute_bench::gate::{self, Gate, Mode};
use repute_bench::workload::{s_min_for, Scale, Workload};
use repute_core::{Executor, ReputeConfig, ReputeMapper, Schedule};
use repute_genome::synth::ReferenceBuilder;
use repute_hetsim::profiles;
use repute_mappers::{gem::GemLike, hobbes3::Hobbes3Like, razers3::Razers3Like, Mapper};
use repute_obs::json::{field, JsonObject, JsonValue};
use repute_obs::MapMetrics;

const GATE: Gate = Gate {
    binary: "verify_kernel",
    schema: "repute-bench-verify-kernel",
    version: 1,
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

/// FNV-1a fold of one u64 into the running digest.
fn fold(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds a hit (or miss) into the digest. Only the alignment result is
/// folded — the two stages deliberately report different work totals
/// (that reduction is half the point), which are compared separately.
fn fold_hit(h: &mut u64, hit: Option<(u32, usize)>) {
    match hit {
        Some((distance, end)) => {
            fold(h, 1);
            fold(h, u64::from(distance));
            fold(h, end as u64);
        }
        None => fold(h, 0),
    }
}

/// One full baseline pass: the verification stage as it was before
/// this kernel generation — the unbanded blocked kernel, with pattern
/// masks and working memory rebuilt for every candidate.
fn baseline_pass(codes: &[u8], corpus: &[CorpusRead]) -> (u64, u64) {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
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
    (digest, words)
}

/// One full batch pass: the current verification stage — banded
/// kernels, masks hoisted per read, windows verified [`LANES`] at a
/// time through the SWAR lanes on reused arenas.
fn batch_pass(codes: &[u8], corpus: &[CorpusRead], verifier: &mut BatchVerifier) -> (u64, u64) {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
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
    (digest, words)
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

/// Digests a mapping run: every mapping triple, every metric counter,
/// and the work totals, folded in read order.
fn fold_outputs(h: &mut u64, outputs: &[repute_mappers::MapOutput], metrics: &[MapMetrics]) {
    for out in outputs {
        fold(h, out.mappings.len() as u64);
        for m in &out.mappings {
            fold(h, u64::from(m.position));
            fold(h, u64::from(m.distance));
            fold(h, u64::from(m.strand == repute_genome::Strand::Reverse));
        }
        fold(h, out.work);
        fold(h, out.candidates);
    }
    for m in metrics {
        for (_, v) in m.fields() {
            fold(h, v);
        }
    }
}

/// The full-pipeline grid digest: REPUTE across schedules and host
/// thread counts, plus the engine-sharing baseline mappers per read.
/// Any batch/scalar divergence anywhere in mapping output or work
/// accounting changes this value.
fn grid_digest() -> u64 {
    let w = Workload::generate(Scale::tiny());
    let platform = profiles::system1();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(read_len, delta) in &[(100usize, 3u32), (150, 5)] {
        let reads = w.read_seqs(read_len);
        let config = ReputeConfig::new(delta, s_min_for(read_len, delta)).expect("valid config");
        let mapper = ReputeMapper::new(Arc::clone(&w.indexed), config);
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
                fold_outputs(&mut h, &run.outputs, &metrics);
                fold(&mut h, run.simulated_seconds.to_bits());
            }
        }
        // Baseline mappers share VerifyEngine; digest their raw
        // per-read outputs and telemetry.
        let gem = GemLike::new(Arc::clone(&w.indexed), delta);
        let razers = Razers3Like::new(Arc::clone(&w.indexed), delta);
        let hobbes = Hobbes3Like::new(Arc::clone(&w.indexed), delta);
        let baselines: [&dyn Mapper; 3] = [&gem, &razers, &hobbes];
        for mapper in baselines {
            for read in &reads {
                let mut metrics = MapMetrics::new();
                let out = mapper.map_read_metered(read, &mut metrics);
                fold_outputs(&mut h, std::slice::from_ref(&out), &[metrics]);
            }
        }
    }
    h
}

/// Runs the grid in a child process with `REPUTE_SCALAR_VERIFY=1` and
/// returns its digest (the env switch is latched at engine
/// construction, so the scalar pipeline needs its own process).
fn scalar_grid_digest() -> u64 {
    let exe = std::env::current_exe().expect("own executable path");
    let output = std::process::Command::new(exe)
        .arg("--grid-digest")
        .env("REPUTE_SCALAR_VERIFY", "1")
        .output()
        .expect("spawn scalar grid child");
    assert!(
        output.status.success(),
        "scalar grid child failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = String::from_utf8_lossy(&output.stdout);
    text.lines()
        .find_map(|l| l.strip_prefix("grid-digest: "))
        .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())
        .expect("child printed no digest")
}

fn render_document(k: &KernelMeasurement, digest: u64) -> String {
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
    doc.str_field("grid_digest", &format!("{digest:016x}"));
    let mut text = doc.finish();
    text.push('\n');
    text
}

/// Committed-document fields the check compares against.
struct Committed {
    speedup: f64,
    baseline_words: u64,
    batch_words: u64,
    grid_digest: String,
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
    let grid_digest = field(fields, "grid_digest")
        .and_then(JsonValue::as_str)
        .ok_or("missing string field \"grid_digest\"")?
        .to_string();
    Ok(Committed {
        speedup,
        baseline_words,
        batch_words,
        grid_digest,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() == 1 && args[0] == "--grid-digest" {
        println!("grid-digest: {:016x}", grid_digest());
        return;
    }
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
    println!("digesting mapper grid (batch path, in process)…");
    let batch_digest = grid_digest();
    println!("  grid-digest: {batch_digest:016x}");
    println!("digesting mapper grid (scalar path, child process)…");
    let scalar_digest = scalar_grid_digest();
    println!("  grid-digest: {scalar_digest:016x}");
    if batch_digest != scalar_digest {
        eprintln!("FAIL: batch and scalar pipelines produced different grids");
        std::process::exit(1);
    }
    println!("grid invariance OK: batch and scalar pipelines agree bit for bit");

    if mode == Mode::Write {
        if k.speedup < MIN_COMMITTED_SPEEDUP {
            eprintln!(
                "FAIL: measured speedup {:.2}× is below the {MIN_COMMITTED_SPEEDUP:.1}× \
                 bar for a committed baseline",
                k.speedup
            );
            std::process::exit(1);
        }
        GATE.write(&path, &render_document(&k, batch_digest), validate_document);
        return;
    }

    let committed = GATE.read(&path, validate_document);
    let mut failures = 0u32;
    if committed.speedup < MIN_COMMITTED_SPEEDUP {
        eprintln!(
            "FAIL: committed speedup {:.2}× is below the {MIN_COMMITTED_SPEEDUP:.1}× bar",
            committed.speedup
        );
        failures += 1;
    }
    if committed.baseline_words != k.baseline_words {
        eprintln!(
            "FAIL: fresh baseline word total {} != committed {} (corpus or kernel \
             drift — regenerate with --write)",
            k.baseline_words, committed.baseline_words
        );
        failures += 1;
    }
    if committed.batch_words != k.batch_words {
        eprintln!(
            "FAIL: fresh batch word total {} != committed {} (band or accounting \
             drift — regenerate with --write)",
            k.batch_words, committed.batch_words
        );
        failures += 1;
    }
    let fresh_digest = format!("{batch_digest:016x}");
    if committed.grid_digest != fresh_digest {
        eprintln!(
            "FAIL: fresh grid digest {fresh_digest} != committed {} (mapping output \
             changed — regenerate with --write)",
            committed.grid_digest
        );
        failures += 1;
    }
    if k.speedup < MIN_FRESH_SPEEDUP {
        eprintln!(
            "FAIL: fresh speedup {:.2}× fell below the {MIN_FRESH_SPEEDUP:.1}× floor \
             (committed: {:.2}×)",
            k.speedup, committed.speedup
        );
        failures += 1;
    }
    if failures > 0 {
        eprintln!("\n{failures} verify-kernel check(s) failed");
        std::process::exit(1);
    }
    println!(
        "\nall verify-kernel checks passed (committed {:.2}×, fresh {:.2}×)",
        committed.speedup, k.speedup
    );
}
