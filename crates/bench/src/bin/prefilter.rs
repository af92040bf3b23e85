//! Pre-alignment filter ablation: `--prefilter {none,shd,qgram,both}`
//! over the standard workload, plus the adversarial-corpus canary.
//!
//! Three checks, all enforced (nonzero exit on failure, so CI can run
//! this at tiny scale):
//!
//! 1. **Output invariance** — every mode reports exactly the mappings
//!    the unfiltered pipeline reports (the zero-false-negative contract,
//!    end to end).
//! 2. **Verification saving** — `both` reduces the total Myers
//!    `word_updates` of the run, as reported in `CellOutcome` metrics.
//! 3. **Rejection power** — the SHD filter rejects a nonzero fraction
//!    of the checked-in adversarial corpus (shared with the prefilter
//!    crate's regression tests); 0% means the filter silently became a
//!    no-op.
//!
//! Beside the simulated seconds the sweep prints what each mode costs on
//! the host clock, one thread: reads per second, and the mode's time
//! above the unfiltered row per candidate it tested (negative when the
//! filter saves more Myers time than it spends). A read counts with its
//! fastest of three passes — this is a shared machine. Informational,
//! never gated.

use std::sync::Arc;
use std::time::Instant;

use repute_bench::gate::Checks;
use repute_bench::harness::{gold_standard, match_tolerance, run_cell, AccuracyMethod};
use repute_bench::scenario::{Ablation, ABLATION_CELL};
use repute_bench::workload::Scale;
use repute_core::ReputeMapper;
use repute_genome::DnaSeq;
use repute_hetsim::profiles;
use repute_mappers::Mapper;
use repute_obs::MapMetrics;
use repute_prefilter::{PrefilterMode, ShdFilter};

const CORPUS: &str = include_str!("../../../prefilter/tests/corpus/adversarial.txt");

fn corpus_codes(s: &str) -> Vec<u8> {
    s.bytes()
        .map(|b| match b {
            b'A' => 0u8,
            b'C' => 1,
            b'G' => 2,
            b'T' => 3,
            other => panic!("bad corpus base {:?}", other as char),
        })
        .collect()
}

/// SHD rejection rate over the adversarial corpus's unverifiable
/// entries, as `(rejected, negatives)`.
fn corpus_shd_rejections() -> (u32, u32) {
    let shd = ShdFilter::new();
    let mut negatives = 0u32;
    let mut rejected = 0u32;
    for line in CORPUS
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let mut parts = line.split('\t');
        let _name = parts.next().expect("name");
        let delta: u32 = parts.next().expect("delta").parse().expect("delta int");
        let read = corpus_codes(parts.next().expect("read"));
        let window = corpus_codes(parts.next().expect("window"));
        if repute_align::verify(&read, &window, delta).is_some() {
            continue;
        }
        negatives += 1;
        if !shd.examine_codes(&read, &window, delta).accept {
            rejected += 1;
        }
    }
    (rejected, negatives)
}

/// Host seconds of one single-threaded pass over `reads`: the sum over
/// reads of each read's fastest `map_read` in three passes.
fn host_seconds(mapper: &ReputeMapper, reads: &[DnaSeq]) -> f64 {
    let mut fastest = vec![f64::INFINITY; reads.len()];
    for _ in 0..3 {
        for (read, floor) in reads.iter().zip(&mut fastest) {
            let started = Instant::now();
            std::hint::black_box(mapper.map_read(read));
            *floor = floor.min(started.elapsed().as_secs_f64());
        }
    }
    fastest.iter().sum()
}

fn main() {
    let scale = Scale::from_env();
    println!("Pre-alignment filter ablation — SHD + q-gram bins");
    println!("{}", scale.describe());
    println!("generating workload…");
    let Ablation {
        workload: w,
        reads,
        config: base,
        ..
    } = Ablation::generate(scale);
    let (n, delta) = ABLATION_CELL;
    let gold = gold_standard(&w.indexed, delta, &reads);
    let platform = profiles::system1_cpu_only();
    let shares = platform.single_device_share(0, reads.len());

    println!("\n[1] mode sweep (n={n}, δ={delta}, {} reads)", reads.len());
    println!(
        "{:>8} | {:>12} | {:>12} | {:>10} | {:>10} | {:>9} | {:>10} | {:>12} | {:>13}",
        "mode",
        "word upd",
        "filter words",
        "tested",
        "rejected",
        "false acc",
        "sim T(s)",
        "host reads/s",
        "Δhost µs/test"
    );
    println!("{}", "-".repeat(119));
    let mut checks = Checks::default();
    let mut baseline: Option<(Vec<Vec<repute_mappers::Mapping>>, u64)> = None;
    let mut both_word_updates = None;
    let mut none_host_s = 0.0;
    for mode in PrefilterMode::ALL {
        let mapper = ReputeMapper::new(Arc::clone(&w.indexed), base.with_prefilter(mode));
        let outcome = run_cell(
            &mapper,
            &reads,
            &platform,
            &shares,
            &gold,
            AccuracyMethod::AnyBest,
            match_tolerance(delta),
        );
        let mut totals = MapMetrics::new();
        for m in &outcome.metrics {
            totals.merge(m);
        }
        let host_s = host_seconds(&mapper, &reads);
        let above_none = if mode == PrefilterMode::None {
            none_host_s = host_s;
            "-".to_string()
        } else {
            let tested = totals.prefilter_tested.max(1) as f64;
            format!("{:+.3}", (host_s - none_host_s) * 1e6 / tested)
        };
        println!(
            "{:>8} | {:>12} | {:>12} | {:>10} | {:>10} | {:>9} | {:>10.4} | {:>12.0} | {:>13}",
            mode.to_string(),
            totals.word_updates,
            totals.prefilter_words,
            totals.prefilter_tested,
            totals.prefilter_rejected,
            totals.prefilter_false_accepts,
            outcome.result.time_s,
            reads.len() as f64 / host_s,
            above_none,
        );
        outcome.export_if_requested(&format!("prefilter-{mode}"));
        match &baseline {
            None => baseline = Some((outcome.outputs.clone(), totals.word_updates)),
            Some((gold_outputs, _)) => {
                if &outcome.outputs != gold_outputs {
                    checks.fail(&format!(
                        "mode {mode} changed mapping output (false negatives!)"
                    ));
                }
            }
        }
        if mode == PrefilterMode::Both {
            both_word_updates = Some(totals.word_updates);
        }
    }
    let none_words = baseline.expect("mode sweep ran").1;
    let both_words = both_word_updates.expect("mode sweep ran");
    println!("\n[2] verification saving: word_updates {none_words} (none) → {both_words} (both)");
    if both_words >= none_words {
        checks.fail("--prefilter both did not reduce Myers word updates");
    } else {
        println!(
            "saved {:.1}% of Myers word updates",
            (none_words - both_words) as f64 / none_words as f64 * 100.0
        );
    }

    let (rejected, negatives) = corpus_shd_rejections();
    println!("\n[3] adversarial corpus: SHD rejected {rejected}/{negatives} unverifiable entries");
    if rejected == 0 {
        checks.fail("SHD rejection rate on the adversarial corpus is 0 — filter is a no-op");
    }

    checks.finish("");
    println!("\nall prefilter ablation checks passed");
}
