//! Ablations of REPUTE's design choices, and the work-profile diagnostic.
//!
//! 1. **Restricted exploration space** (the paper's memory optimisation
//!    over the original OSS): DP cells, peak DP memory and FM extensions,
//!    restricted vs full, across the grid — and the OSS early divider
//!    termination the paper retains.
//! 2. **Seed-selection strategy**: total candidate locations per read for
//!    the DP optimum vs the serial greedy heuristic (CORAL) vs the uniform
//!    partition (RazerS3) — the quantity that drives verification time.
//! 3. **Index sampling** (§IV future work, after Bowtie 2): FM-Index
//!    footprint vs suffix-array sampling rate.
//! 4. **DVFS on the embedded SoC**: race-to-idle vs slow-and-steady.

use std::sync::Arc;

use repute_core::{map_on_platform_with_metrics, ReputeConfig, ReputeMapper};
use repute_filter::freq::FreqTable;
use repute_filter::greedy::GreedySelector;
use repute_filter::oss::{Exploration, OssParams, OssSolver};
use repute_filter::pigeonhole::UniformSelector;
use repute_filter::sparse::SparseSolver;
use repute_genome::reads::SimRead;
use repute_hetsim::{profiles, Platform};
use repute_index::FmIndex;
use repute_mappers::{coral::CoralLike, razers3::Razers3Like, Mapper};

use std::fmt::Write as _;

use super::{header, minimum, Claim, Report, Written};
use crate::harness::PAPER_GRID;
use crate::workload::{s_min_for, Workload};

/// The reads the selection ablations average over: the first 200 mapped
/// reads of a read set.
fn sample(w: &Workload, read_len: usize) -> Vec<&SimRead> {
    let mapped = w.reads(read_len).iter().filter(|r| r.origin.is_some());
    mapped.take(200).collect()
}

/// The sample sizes, for the header of a section over both read sets.
fn sampled(w: &Workload) -> String {
    match (sample(w, 100).len(), sample(w, 150).len()) {
        (a, b) if a == b => format!("{a} reads"),
        (a, b) => format!("{a} reads at n=100, {b} at n=150"),
    }
}

pub(super) fn ablations(w: &Workload) -> Written<Report> {
    let mut text = header("Ablations — REPUTE design choices", w.scale);
    let mut claims = exploration_space(&mut text, w)?;
    claims.extend(early_termination(&mut text, w)?);
    claims.extend(seed_strategies(&mut text, w)?);
    index_sampling(&mut text, w)?;
    claims.push(dvfs(&mut text, w)?);
    Ok(Report { text, claims })
}

/// [1] The paper's restriction of the OSS exploration space.
fn exploration_space(text: &mut String, w: &Workload) -> Written<Vec<Claim>> {
    writeln!(
        text,
        "\n[1] restricted vs full exploration space (mean per read, {})",
        sampled(w)
    )?;
    writeln!(
        text,
        "{:>12} | {:>22} | {:>22} | {:>15} | {:>6}",
        "(n, δ)", "DP cells (restr/full)", "peak bytes (restr/full)", "extends (r/f)", "≤cost?"
    )?;
    writeln!(text, "{}", "-".repeat(92))?;
    let fm = w.indexed.fm();
    let (mut never_more, mut near_optimal) = (true, true);
    for (n, delta) in PAPER_GRID {
        let params = OssParams::new(delta, s_min_for(n, delta)).expect("valid");
        let full = params.exploration(Exploration::Full);
        let reads = sample(w, n);
        let (mut rc, mut fc, mut rb, mut fb) = (0u64, 0u64, 0usize, 0usize);
        let (mut re, mut fe) = (0u64, 0u64);
        let mut within = true;
        for read in &reads {
            let codes = read.seq.to_codes();
            let rt = FreqTable::build(fm, &codes, &params);
            let ft = FreqTable::build(fm, &codes, &full);
            re += rt.extend_ops();
            fe += ft.extend_ops();
            let r = OssSolver::new(params).select(&codes, &rt);
            let f = OssSolver::new(full).select(&codes, &ft);
            rc += r.stats.dp_cells;
            fc += f.stats.dp_cells;
            rb = rb.max(r.stats.peak_bytes);
            fb = fb.max(f.stats.peak_bytes);
            within &= r.selection.total_candidates() <= f.selection.total_candidates() + 16;
        }
        let reads_n = reads.len() as u64;
        writeln!(
            text,
            "{:>12} | {:>10} / {:>9} | {:>10} / {:>9} | {:>7}/{:>7} | {:>6}",
            format!("({n}, {delta})"),
            rc / reads_n,
            fc / reads_n,
            rb,
            fb,
            re / reads_n,
            fe / reads_n,
            if within { "yes" } else { "NO" }
        )?;
        never_more &= rc <= fc && rb <= fb && re <= fe;
        near_optimal &= within;
    }
    Ok(vec![
        Claim::new(
            "restricted exploration needs no more DP cells, peak bytes or FM extensions than full",
            never_more,
        ),
        Claim::new(
            "restricted selections stay within 16 candidates of the full-exploration optimum",
            near_optimal,
        ),
    ])
}

/// [1b] The OSS divider-scan optimisations (early termination + early
/// leave), which the paper retains from the Optimal Seed Solver.
fn early_termination(text: &mut String, w: &Workload) -> Written<Vec<Claim>> {
    writeln!(
        text,
        "\n[1b] OSS early divider termination (mean DP cells per read, {})",
        sampled(w)
    )?;
    writeln!(
        text,
        "{:>12} | {:>12} | {:>12} | {:>8}",
        "(n, δ)", "with", "without", "saving"
    )?;
    writeln!(text, "{}", "-".repeat(54))?;
    let (mut saves, mut identical) = (true, true);
    for (n, delta) in PAPER_GRID {
        let on = OssParams::new(delta, s_min_for(n, delta)).expect("valid");
        let off = on.early_termination(false);
        let reads = sample(w, n);
        let (mut with, mut without) = (0u64, 0u64);
        for read in &reads {
            let codes = read.seq.to_codes();
            let table = FreqTable::build(w.indexed.fm(), &codes, &on);
            let terminated = OssSolver::new(on).select(&codes, &table);
            let exhaustive = OssSolver::new(off).select(&codes, &table);
            with += terminated.stats.dp_cells;
            without += exhaustive.stats.dp_cells;
            identical &= terminated.selection == exhaustive.selection;
        }
        let reads_n = reads.len() as u64;
        writeln!(
            text,
            "{:>12} | {:>12} | {:>12} | {:>7.1}x",
            format!("({n}, {delta})"),
            with / reads_n,
            without / reads_n,
            without as f64 / with.max(1) as f64
        )?;
        saves &= with < without;
    }
    Ok(vec![Claim::new(
        "early divider termination saves DP cells in every cell at identical selections",
        saves && identical,
    )])
}

/// [2] Seed-selection strategies at n=100. "sparse" is the original OSS
/// semantics (non-overlapping seeds with gaps allowed); the paper's
/// covering partition is the "DP (REPUTE)" column.
fn seed_strategies(text: &mut String, w: &Workload) -> Written<Vec<Claim>> {
    let sample = sample(w, 100);
    writeln!(
        text,
        "\n[2] total candidate locations per read (mean, {} reads, n=100)",
        sample.len()
    )?;
    writeln!(
        text,
        "{:>6} | {:>12} | {:>12} | {:>12} | {:>12}",
        "δ", "sparse OSS", "DP (REPUTE)", "greedy", "uniform"
    )?;
    writeln!(text, "{}", "-".repeat(68))?;
    let fm = w.indexed.fm();
    let (mut dp_between, mut sparse_below_greedy) = (true, true);
    for delta in [3u32, 4, 5, 6, 7] {
        let s_min = s_min_for(100, delta);
        let params = OssParams::new(delta, s_min).expect("valid");
        let full = params.exploration(Exploration::Full);
        let greedy = GreedySelector::new(delta, s_min);
        let uniform = UniformSelector::new(delta);
        let (mut sp, mut dp, mut gr, mut un) = (0u64, 0u64, 0u64, 0u64);
        for read in &sample {
            let codes = read.seq.to_codes();
            let table = FreqTable::build(fm, &codes, &params);
            let full_table = FreqTable::build(fm, &codes, &full);
            let sparse = SparseSolver::new(full).select(&codes, &full_table);
            sp += sparse.selection.total_candidates();
            let covering = OssSolver::new(params).select(&codes, &table);
            dp += covering.selection.total_candidates();
            gr += greedy.select(&codes, fm).0.total_candidates();
            un += uniform.select(&codes, fm).0.total_candidates();
        }
        let n = sample.len() as f64;
        writeln!(
            text,
            "{:>6} | {:>12.1} | {:>12.1} | {:>12.1} | {:>12.1}",
            delta,
            sp as f64 / n,
            dp as f64 / n,
            gr as f64 / n,
            un as f64 / n
        )?;
        dp_between &= sp <= dp && dp <= un;
        sparse_below_greedy &= sp <= gr;
    }
    Ok(vec![
        Claim::new(
            "candidates per read: sparse OSS ≤ DP (REPUTE) ≤ uniform at every δ",
            dp_between,
        ),
        Claim::new(
            "candidates per read: sparse OSS ≤ greedy at every δ",
            sparse_below_greedy,
        ),
    ])
}

/// [3] Index sampling (§IV future work).
fn index_sampling(text: &mut String, w: &Workload) -> Written<()> {
    writeln!(
        text,
        "\n[3] FM-Index footprint vs SA sampling (§IV footprint reduction)"
    )?;
    writeln!(
        text,
        "{:>10} | {:>14} | {:>14} | {:>14}",
        "sa_sample", "index bytes", "sa bytes", "locate steps*"
    )?;
    writeln!(text, "{}", "-".repeat(60))?;
    for sa_sample in [4usize, 16, 32, 64, 128] {
        let index = FmIndex::builder().sa_sample(sa_sample);
        let fp = index.build(w.indexed.seq()).footprint();
        // Expected LF walk length is sa_sample / 2.
        writeln!(
            text,
            "{:>10} | {:>14} | {:>14} | {:>14}",
            sa_sample,
            fp.total(),
            fp.sa_bytes,
            sa_sample / 2
        )?;
    }
    writeln!(text, "*expected LF-mapping steps per located position")
}

/// [4] DVFS on the embedded SoC: active energy falls quadratically with
/// frequency, but idle power burns for the whole (longer) run — the
/// classic embedded trade the HiKey970's "up to 2.36 GHz" clocks exist
/// to navigate.
fn dvfs(text: &mut String, w: &Workload) -> Written<Claim> {
    writeln!(
        text,
        "\n[4] HiKey970 DVFS sweep, (n=100, δ=3), whole-system energy"
    )?;
    writeln!(
        text,
        "{:>10} | {:>10} | {:>12} | {:>12} | {:>12}",
        "frequency", "T(s) sim", "active E(J)", "idle E(J)", "total E(J)"
    )?;
    writeln!(text, "{}", "-".repeat(66))?;
    let reads = w.read_seqs(100);
    let mapper = ReputeMapper::new(
        Arc::clone(&w.indexed),
        ReputeConfig::new(3, s_min_for(100, 3)).expect("valid"),
    );
    let mut totals = Vec::new();
    for percent in [40u32, 60, 80, 100] {
        let f = f64::from(percent) / 100.0;
        let platform = Platform::new(
            format!("HiKey970 @{percent}%"),
            3.5,
            vec![
                profiles::cortex_a73_cluster().scaled(f),
                profiles::cortex_a53_cluster().scaled(f),
            ],
        );
        let shares = platform.even_shares(reads.len());
        let (run, _) = map_on_platform_with_metrics(&mapper, &platform, &shares, &reads)
            .expect("valid shares");
        let idle_energy = 3.5 * run.simulated_seconds;
        writeln!(
            text,
            "{:>9}% | {:>10.3} | {:>12.3} | {:>12.3} | {:>12.3}",
            percent,
            run.simulated_seconds,
            run.energy.energy_j,
            idle_energy,
            run.energy.energy_j + idle_energy
        )?;
        totals.push(run.energy.energy_j + idle_energy);
    }
    writeln!(
        text,
        "active energy falls with f² but idle energy grows with 1/f —\n\
         whole-system energy picks the knee, not the lowest clock."
    )?;
    Ok(Claim::new(
        "whole-system energy is lowest at an interior clock, not the lowest or the highest",
        minimum(&totals).1,
    ))
}

/// Diagnostic, not a paper experiment: where each mapper's simulated
/// work goes per read, plus the candidate volumes that drive
/// verification. Makes no claims.
pub(super) fn work_profile(w: &Workload) -> Written<Report> {
    let mut text = format!("{}\n", w.scale.describe());
    for (n, delta) in [(100usize, 3u32), (100, 5), (150, 7)] {
        let s_min = s_min_for(n, delta);
        let reads = w.read_seqs(n);
        let config = ReputeConfig::new(delta, s_min).expect("valid");
        let mappers: [(&str, Box<dyn Mapper>); 3] = [
            (
                "REPUTE",
                Box::new(ReputeMapper::new(Arc::clone(&w.indexed), config)),
            ),
            (
                "CORAL",
                Box::new(CoralLike::new(Arc::clone(&w.indexed), delta).with_s_min(s_min)),
            ),
            (
                "RazerS3",
                Box::new(Razers3Like::new(Arc::clone(&w.indexed), delta)),
            ),
        ];
        writeln!(
            text,
            "\n(n={n}, δ={delta}, s_min={s_min}) over {} reads:",
            reads.len()
        )?;
        for (name, mapper) in &mappers {
            let outs: Vec<_> = reads.iter().map(|r| mapper.map_read(r)).collect();
            let total_work: u64 = outs.iter().map(|o| o.work).sum();
            let total_cand: u64 = outs.iter().map(|o| o.candidates).sum();
            let total_maps: usize = outs.iter().map(|o| o.mappings.len()).sum();
            let max_work = outs.iter().map(|o| o.work).max().unwrap_or(0);
            writeln!(
                text,
                "  {name:<8} work/read {:>9.0}  candidates/read {:>8.1}  mappings/read {:>7.1}  max work {:>10}",
                total_work as f64 / reads.len() as f64,
                total_cand as f64 / reads.len() as f64,
                total_maps as f64 / reads.len() as f64,
                max_work
            )?;
        }
    }
    Ok(Report {
        text,
        claims: Vec::new(),
    })
}
