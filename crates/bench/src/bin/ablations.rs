//! Ablations of REPUTE's design choices (DESIGN.md §5).
//!
//! 1. **Restricted exploration space** (the paper's memory optimisation
//!    over the original OSS): DP cells, peak DP memory and selection time,
//!    restricted vs full, across the paper's (n, δ) grid.
//! 2. **Seed-selection strategy**: total candidate locations per read for
//!    the DP optimum vs the serial greedy heuristic (CORAL) vs the uniform
//!    partition (RazerS3) — the quantity that drives verification time.
//! 3. **Index sampling** (§IV future work, after Bowtie 2): FM-Index
//!    footprint vs suffix-array sampling rate, with the locate cost that
//!    pays for it.

use repute_bench::harness::PAPER_GRID;
use repute_bench::workload::{s_min_for, Scale, Workload};
use repute_filter::freq::FreqTable;
use repute_filter::greedy::GreedySelector;
use repute_filter::oss::{Exploration, OssParams, OssSolver};
use repute_filter::pigeonhole::UniformSelector;
use repute_filter::sparse::SparseSolver;
use repute_index::FmIndex;

fn main() {
    let scale = Scale::from_env();
    println!("Ablations — REPUTE design choices");
    println!("{}", scale.describe());
    println!("generating workload…");
    let w = Workload::generate(scale);
    let sample: Vec<_> = w
        .reads(100)
        .iter()
        .filter(|r| r.origin.is_some())
        .take(200)
        .collect();
    let sample150: Vec<_> = w
        .reads(150)
        .iter()
        .filter(|r| r.origin.is_some())
        .take(200)
        .collect();

    // 1. Exploration-space restriction.
    println!("\n[1] restricted vs full exploration space (mean per read, 200 reads)");
    println!(
        "{:>12} | {:>22} | {:>22} | {:>15} | {:>6}",
        "(n, δ)", "DP cells (restr/full)", "peak bytes (restr/full)", "extends (r/f)", "≤cost?"
    );
    println!("{}", "-".repeat(92));
    for &(n, delta) in &PAPER_GRID {
        let s_min = s_min_for(n, delta);
        let params = OssParams::new(delta, s_min).expect("valid");
        let full = params.exploration(Exploration::Full);
        let reads = if n == 100 { &sample } else { &sample150 };
        let (mut rc, mut fc, mut rb, mut fb) = (0u64, 0u64, 0usize, 0usize);
        let mut identical = true;
        let (mut re, mut fe) = (0u64, 0u64);
        for read in reads {
            let codes = read.seq.to_codes();
            let rt = FreqTable::build(w.indexed.fm(), &codes, &params);
            let ft = FreqTable::build(w.indexed.fm(), &codes, &full);
            re += rt.extend_ops();
            fe += ft.extend_ops();
            let r = OssSolver::new(params).select(&codes, &rt);
            let f = OssSolver::new(full).select(&codes, &ft);
            rc += r.stats.dp_cells;
            fc += f.stats.dp_cells;
            rb = rb.max(r.stats.peak_bytes);
            fb = fb.max(f.stats.peak_bytes);
            identical &= r.selection.total_candidates() <= f.selection.total_candidates() + 16;
        }
        let reads_n = reads.len() as u64;
        println!(
            "{:>12} | {:>10} / {:>9} | {:>10} / {:>9} | {:>7}/{:>7} | {:>6}",
            format!("({n}, {delta})"),
            rc / reads_n,
            fc / reads_n,
            rb,
            fb,
            re / reads_n,
            fe / reads_n,
            if identical { "yes" } else { "NO" }
        );
    }

    // 1b. OSS divider-scan optimisations (early termination + early
    // leave), which the paper retains from the Optimal Seed Solver.
    println!("\n[1b] OSS early divider termination (mean DP cells per read, 200 reads)");
    println!(
        "{:>12} | {:>12} | {:>12} | {:>8}",
        "(n, δ)", "with", "without", "saving"
    );
    println!("{}", "-".repeat(54));
    for &(n, delta) in &PAPER_GRID {
        let s_min = s_min_for(n, delta);
        let on = OssParams::new(delta, s_min).expect("valid");
        let off = on.early_termination(false);
        let reads = if n == 100 { &sample } else { &sample150 };
        let (mut with, mut without) = (0u64, 0u64);
        for read in reads {
            let codes = read.seq.to_codes();
            let table = FreqTable::build(w.indexed.fm(), &codes, &on);
            with += OssSolver::new(on).select(&codes, &table).stats.dp_cells;
            without += OssSolver::new(off).select(&codes, &table).stats.dp_cells;
        }
        let reads_n = reads.len() as u64;
        println!(
            "{:>12} | {:>12} | {:>12} | {:>7.1}x",
            format!("({n}, {delta})"),
            with / reads_n,
            without / reads_n,
            without as f64 / with.max(1) as f64
        );
    }

    // 2. Seed-selection strategies. "sparse" is the original OSS
    // semantics (non-overlapping seeds with gaps allowed); the paper's
    // covering partition is the "DP (REPUTE)" column.
    println!("\n[2] total candidate locations per read (mean, 200 reads, n=100)");
    println!(
        "{:>6} | {:>12} | {:>12} | {:>12} | {:>12}",
        "δ", "sparse OSS", "DP (REPUTE)", "greedy", "uniform"
    );
    println!("{}", "-".repeat(68));
    for delta in [3u32, 4, 5, 6, 7] {
        let s_min = s_min_for(100, delta);
        let params = OssParams::new(delta, s_min).expect("valid");
        let full = params.exploration(Exploration::Full);
        let greedy = GreedySelector::new(delta, s_min);
        let uniform = UniformSelector::new(delta);
        let (mut sp_total, mut dp_total, mut gr_total, mut un_total) = (0u64, 0u64, 0u64, 0u64);
        for read in &sample {
            let codes = read.seq.to_codes();
            let table = FreqTable::build(w.indexed.fm(), &codes, &params);
            let full_table = FreqTable::build(w.indexed.fm(), &codes, &full);
            sp_total += SparseSolver::new(full)
                .select(&codes, &full_table)
                .selection
                .total_candidates();
            dp_total += OssSolver::new(params)
                .select(&codes, &table)
                .selection
                .total_candidates();
            gr_total += greedy.select(&codes, w.indexed.fm()).0.total_candidates();
            un_total += uniform.select(&codes, w.indexed.fm()).0.total_candidates();
        }
        let n = sample.len() as u64;
        println!(
            "{:>6} | {:>12.1} | {:>12.1} | {:>12.1} | {:>12.1}",
            delta,
            sp_total as f64 / n as f64,
            dp_total as f64 / n as f64,
            gr_total as f64 / n as f64,
            un_total as f64 / n as f64
        );
    }

    // 3. Index sampling.
    println!("\n[3] FM-Index footprint vs SA sampling (§IV footprint reduction)");
    println!(
        "{:>10} | {:>14} | {:>14} | {:>14}",
        "sa_sample", "index bytes", "sa bytes", "locate steps*"
    );
    println!("{}", "-".repeat(60));
    for sa_sample in [4usize, 16, 32, 64, 128] {
        let fm = FmIndex::builder()
            .sa_sample(sa_sample)
            .build(w.indexed.seq());
        let fp = fm.footprint();
        // Expected LF walk length is sa_sample / 2.
        println!(
            "{:>10} | {:>14} | {:>14} | {:>14}",
            sa_sample,
            fp.total(),
            fp.sa_bytes,
            sa_sample / 2
        );
    }
    println!("*expected LF-mapping steps per located position");

    // 4. DVFS on the embedded SoC: race-to-idle vs slow-and-steady.
    // Active energy falls quadratically with frequency, but idle power
    // burns for the whole (longer) run — the classic embedded trade the
    // HiKey970's "up to 2.36 GHz" clocks exist to navigate.
    println!("\n[4] HiKey970 DVFS sweep, (n=100, δ=3), whole-system energy");
    println!(
        "{:>10} | {:>10} | {:>12} | {:>12} | {:>12}",
        "frequency", "T(s) sim", "active E(J)", "idle E(J)", "total E(J)"
    );
    println!("{}", "-".repeat(66));
    {
        use repute_core::{map_on_platform_with_metrics, ReputeConfig, ReputeMapper};
        use repute_hetsim::{profiles, Platform};
        use std::sync::Arc;
        let reads = w.read_seqs(100);
        let mapper = ReputeMapper::new(
            Arc::clone(&w.indexed),
            ReputeConfig::new(3, s_min_for(100, 3)).expect("valid"),
        );
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
            let (run, _) = map_on_platform_with_metrics(
                &mapper,
                &platform,
                &platform.even_shares(reads.len()),
                &reads,
            )
            .expect("valid shares");
            let idle_energy = 3.5 * run.simulated_seconds;
            println!(
                "{:>9}% | {:>10.3} | {:>12.3} | {:>12.3} | {:>12.3}",
                percent,
                run.simulated_seconds,
                run.energy.energy_j,
                idle_energy,
                run.energy.energy_j + idle_energy
            );
        }
        println!(
            "active energy falls with f² but idle energy grows with 1/f —\n\
             whole-system energy picks the knee, not the lowest clock."
        );
    }
}
