//! Figs. 1–4: the pigeonhole picture, the DP walk-through, and the two
//! sweeps (workload distribution, minimum k-mer length).

use std::sync::Arc;

use repute_core::{map_on_platform_with_metrics, ReputeConfig, ReputeMapper};
use repute_filter::freq::FreqTable;
use repute_filter::oss::{Exploration, OssParams, OssSolver};
use repute_filter::pigeonhole::UniformSelector;
use repute_filter::SeedSelection;
use repute_genome::{DnaSeq, Strand};
use repute_hetsim::{profiles, Share};
use repute_mappers::engine_costs::{DP_CELL_COST, EXTEND_COST};

use std::fmt::Write as _;

use super::{header, minimum, Claim, Report, Written};
use crate::workload::Workload;

/// The read Figs. 1 and 2 draw: the first forward-strand n=100 read with
/// a meaningful candidate load (reads from the reverse strand or unique
/// regions make for an empty figure).
fn repeat_touching_read(w: &Workload) -> DnaSeq {
    w.reads(100)
        .iter()
        .filter(|r| r.origin.is_some_and(|o| o.strand == Strand::Forward))
        .map(|r| r.seq.clone())
        .find(|seq| {
            let (sel, _) = UniformSelector::new(5).select(&seq.to_codes(), w.indexed.fm());
            sel.total_candidates() >= 50
        })
        .expect("workload contains repeat-touching forward reads")
}

fn write_partition(out: &mut String, label: &str, selection: &SeedSelection) -> Written<()> {
    writeln!(out, "\n{label}")?;
    let mut ruler = String::new();
    for seed in &selection.seeds {
        ruler.push('|');
        ruler.push_str(&".".repeat(seed.len.saturating_sub(1)));
    }
    ruler.push('|');
    writeln!(out, "  {ruler}")?;
    for (i, seed) in selection.seeds.iter().enumerate() {
        writeln!(
            out,
            "  k-mer {:>2}: read[{:>3}..{:>3}]  len {:>2}  candidates {:>6}",
            i + 1,
            seed.start,
            seed.end(),
            seed.len,
            seed.count
        )?;
    }
    let total = selection.total_candidates();
    writeln!(out, "  total candidate locations: {total}")
}

/// Fig. 1 — the pigeonhole principle and optimal dividers (n=100, δ=5):
/// one read divided into δ+1 k-mers with their candidate counts, the
/// uniform partition against the DP-optimal dividers.
pub(super) fn fig1(w: &Workload) -> Written<Report> {
    let mut text = header("Fig. 1 — pigeonhole principle for (n=100, δ=5)", w.scale);
    let (delta, s_min) = (5u32, 12usize);
    let read = repeat_touching_read(w);
    let codes = read.to_codes();
    writeln!(text, "\nread: {read}")?;

    let (uniform, _) = UniformSelector::new(delta).select(&codes, w.indexed.fm());
    write_partition(
        &mut text,
        "uniform partition (no seed selection):",
        &uniform,
    )?;

    let params = OssParams::new(delta, s_min).expect("valid parameters");
    let table = FreqTable::build(w.indexed.fm(), &codes, &params);
    let optimal = OssSolver::new(params).select(&codes, &table).selection;
    write_partition(
        &mut text,
        "optimal dividers (REPUTE's DP filtration, S_min=12):",
        &optimal,
    )?;

    let (uniform, optimal) = (uniform.total_candidates(), optimal.total_candidates());
    writeln!(
        text,
        "\ncandidate reduction vs uniform: {:.2}× \
         (the quantity the vertical dividers of the paper's Fig. 1 minimise)",
        uniform as f64 / optimal.max(1) as f64
    )?;
    let claims = vec![Claim::new(
        "the optimal dividers total no more candidates than the uniform partition",
        optimal <= uniform,
    )];
    Ok(Report { text, claims })
}

/// Fig. 2 — the memory-optimised DP filtration, step by step (n=100,
/// δ=5): each iteration's exploration space, the optimal divider per
/// prefix, the backtracking, and the contrast with the unrestricted
/// exploration space of the original OSS.
pub(super) fn fig2(w: &Workload) -> Written<Report> {
    let mut text = header(
        "Fig. 2 — DP filtration walk-through for (n=100, δ=5, S_min=12)",
        w.scale,
    );
    let codes = repeat_touching_read(w).to_codes();
    let params = OssParams::new(5, 12).expect("valid parameters");
    let table = FreqTable::build(w.indexed.fm(), &codes, &params);
    let (outcome, trace) = OssSolver::new(params).select_traced(&codes, &table);

    for (t, iteration) in trace.iterations.iter().enumerate() {
        let lo = iteration.first().map(|&(p, _, _)| p).unwrap_or(0);
        let hi = iteration.last().map(|&(p, _, _)| p).unwrap_or(0);
        writeln!(
            text,
            "\niteration {t}: exploration space = prefixes of length {lo}..={hi} \
             ({} prefixes explored)",
            iteration.len()
        )?;
        // A handful of representative prefixes, like the figure.
        for &(prefix, divider, cost) in iteration.iter().step_by(iteration.len().div_ceil(6).max(1))
        {
            if t == 0 {
                writeln!(text, "  prefix {prefix:>3}: 1 k-mer, cost {cost}")?;
            } else {
                writeln!(
                    text,
                    "  prefix {prefix:>3}: 1st section = [0..{divider}), 2nd = [{divider}..{prefix}), cost {cost}"
                )?;
            }
        }
    }
    writeln!(
        text,
        "\nbacktracking: optimal dividers at {:?}",
        trace.dividers
    )?;
    writeln!(text, "final partition:")?;
    for (i, seed) in outcome.selection.seeds.iter().enumerate() {
        writeln!(
            text,
            "  k-mer {:>2}: [{:>3}..{:>3}) candidates {:>6}",
            i + 1,
            seed.start,
            seed.end(),
            seed.count
        )?;
    }
    let restricted = outcome.selection.total_candidates();
    writeln!(
        text,
        "total candidates: {restricted} | DP cells: {} | peak DP memory: {} bytes",
        outcome.stats.dp_cells, outcome.stats.peak_bytes
    )?;

    let full_params = params.exploration(Exploration::Full);
    let full_table = FreqTable::build(w.indexed.fm(), &codes, &full_params);
    let full = OssSolver::new(full_params).select(&codes, &full_table);
    writeln!(
        text,
        "without the restricted exploration space (original OSS behaviour):\n\
         FM extensions: {} (vs {} restricted) | DP cells: {} | peak DP memory: {} bytes\n\
         total candidates: {}",
        full_table.extend_ops(),
        table.extend_ops(),
        full.stats.dp_cells,
        full.stats.peak_bytes,
        full.selection.total_candidates()
    )?;
    let claims = vec![Claim::new(
        "restricted exploration needs no more DP cells or peak bytes than full exploration \
         and reaches the same candidate total",
        outcome.stats.dp_cells <= full.stats.dp_cells
            && outcome.stats.peak_bytes <= full.stats.peak_bytes
            && restricted == full.selection.total_candidates(),
    )];
    Ok(Report { text, claims })
}

/// CPU / GPU / GPU shares of System 1.
fn system1_shares(cpu: usize, per_gpu: usize) -> Vec<Share> {
    [cpu, per_gpu, per_gpu]
        .into_iter()
        .enumerate()
        .map(|(device, items)| Share { device, items })
        .collect()
}

/// Fig. 3 — mapping time vs CPU/GPU workload distribution (n=150, δ=5)
/// at the paper's fixed `S_min` of 22: the number of reads mapped by
/// *each* GPU sweeps from none to half, the CPU taking the rest. The
/// task-parallel launch completes when the slowest device finishes, so
/// the sweet spot sits in between.
pub(super) fn fig3(w: &Workload) -> Written<Report> {
    let mut text = header(
        "Fig. 3 — mapping time vs workload distribution (n=150, δ=5, S_min=22)",
        w.scale,
    );
    let reads = w.read_seqs(150);
    let total = reads.len();
    let platform = profiles::system1();
    let mapper = ReputeMapper::new(
        Arc::clone(&w.indexed),
        ReputeConfig::new(5, 22).expect("valid paper parameters"),
    );
    writeln!(
        text,
        "\n{:>14} | {:>14} | {:>12} | {:>12}",
        "reads per GPU", "reads on CPU", "T(s) sim", "bottleneck"
    )?;
    writeln!(text, "{}", "-".repeat(62))?;
    let steps = 8usize;
    // Per split: reads per GPU, simulated seconds, bottleneck device.
    let mut sweep: Vec<(usize, f64, usize)> = Vec::new();
    for step in 0..=steps {
        let per_gpu = total / 2 * step / steps;
        let cpu = total - 2 * per_gpu;
        let shares = system1_shares(cpu, per_gpu);
        let (run, _) = map_on_platform_with_metrics(&mapper, &platform, &shares, &reads)
            .expect("share arithmetic covers all reads");
        let slowest = run
            .device_runs
            .iter()
            .max_by(|a, b| a.simulated_seconds.total_cmp(&b.simulated_seconds))
            .map_or(0, |r| r.device);
        writeln!(
            text,
            "{:>14} | {:>14} | {:>12.3} | {:>12}",
            per_gpu,
            cpu,
            run.simulated_seconds,
            platform.devices()[slowest].name()
        )?;
        sweep.push((per_gpu, run.simulated_seconds, slowest));
    }
    let seconds: Vec<f64> = sweep.iter().map(|&(_, t, _)| t).collect();
    let (best, interior) = minimum(&seconds);
    let (per_gpu, t, _) = sweep[best];
    writeln!(text, "\nbest split: {per_gpu} reads per GPU ({t:.3}s)")?;
    let cpu_bound = |&(_, _, device): &(usize, f64, usize)| device == 0;
    let flips = sweep[..best].iter().all(cpu_bound) && !sweep[best + 1..].iter().any(cpu_bound);
    let claims = vec![
        Claim::new(
            "mapping time is lowest at an interior split (the U-shape)",
            interior,
        ),
        Claim::new(
            "the bottleneck flips there: the CPU left of the minimum, a GPU right of it",
            interior && flips,
        ),
    ];
    Ok(Report { text, claims })
}

/// Fig. 4 — mapping time vs minimum k-mer length `S_min` (n=100, δ=4) at
/// the paper's fixed distribution (82% of the reads on the CPU, 9% per
/// GPU): small values explore more DP possibilities, large values shrink
/// the exploration space until candidate counts grow.
pub(super) fn fig4(w: &Workload) -> Written<Report> {
    let mut text = header(
        "Fig. 4 — mapping time vs minimum k-mer length (n=100, δ=4)",
        w.scale,
    );
    let (n, delta) = (100usize, 4u32);
    let reads = w.read_seqs(n);
    let per_gpu = reads.len() * 9 / 100;
    let shares = system1_shares(reads.len() - 2 * per_gpu, per_gpu);
    let platform = profiles::system1();
    writeln!(
        text,
        "\n{:>6} | {:>12} | {:>16} | {:>16}",
        "S_min", "T(s) sim", "filter work", "candidates"
    )?;
    writeln!(text, "{}", "-".repeat(60))?;
    // Per S_min: seed-selection work (FM extensions + DP cells), candidates.
    let mut sweep: Vec<(usize, u64, u64)> = Vec::new();
    for s_min in (10..=20).step_by(2) {
        let mapper = ReputeMapper::new(
            Arc::clone(&w.indexed),
            ReputeConfig::new(delta, s_min).expect("valid paper parameters"),
        );
        let (run, metrics) = map_on_platform_with_metrics(&mapper, &platform, &shares, &reads)
            .expect("share arithmetic covers all reads");
        let candidates: u64 = run.outputs.iter().map(|o| o.candidates).sum();
        writeln!(
            text,
            "{:>6} | {:>12.3} | {:>16} | {:>16}",
            s_min,
            run.simulated_seconds,
            run.total_work(),
            candidates
        )?;
        let selection = metrics
            .iter()
            .map(|m| m.fm_extend_ops * EXTEND_COST + m.dp_cells * DP_CELL_COST);
        sweep.push((s_min, selection.sum(), candidates));
    }
    let selection: Vec<String> = sweep.iter().map(|(_, work, _)| work.to_string()).collect();
    writeln!(
        text,
        "\nseed-selection work (FM extensions + DP cells) per S_min: {}",
        selection.join(", ")
    )?;
    let (first, last) = (sweep[0], sweep[sweep.len() - 1]);
    // While S_min ≤ n/(δ+2) every read position is a live column: DP
    // cells fall and the columns' depth cap grows, and the two balance
    // to a fraction of a percent. Past it the restricted space has dead
    // columns, which is the fall the figure shows.
    let step_holds = |pair: &[(usize, u64, u64)]| {
        let ((_, before, _), (s_min, after, _)) = (pair[0], pair[1]);
        if s_min * (delta as usize + 2) > n {
            after < before
        } else {
            after * 100 <= before * 101
        }
    };
    let claims = vec![
        Claim::new(
            "seed-selection work falls from S_min=10 to S_min=20: at every step that \
             ends past n/(δ+2), rising by no more than 1% at any step before",
            last.1 < first.1 && sweep.windows(2).all(step_holds),
        ),
        Claim::new(
            "candidate locations grow from S_min=10 to S_min=20",
            last.2 > first.2,
        ),
    ];
    Ok(Report { text, claims })
}
