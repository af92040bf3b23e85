//! Fig. 3 — mapping time vs CPU/GPU workload distribution (n=150, δ=5).
//!
//! The paper sweeps the number of reads (out of 1M) mapped by *each* GPU,
//! the CPU taking the rest, at a fixed minimum k-mer length of 22. The
//! leftmost point is CPU-only, the rightmost all-GPU; the sweet spot sits
//! in between because the task-parallel launch completes when the slowest
//! device finishes.

use std::sync::Arc;

use repute_bench::workload::{Scale, Workload};
use repute_core::{map_on_platform_with_metrics, ReputeConfig, ReputeMapper};
use repute_hetsim::{profiles, Share};

fn main() {
    let scale = Scale::from_env();
    println!("Fig. 3 — mapping time vs workload distribution (n=150, δ=5, S_min=22)");
    println!("{}", scale.describe());
    println!("generating workload…");
    let w = Workload::generate(scale);
    let reads = w.read_seqs(150);
    let total = reads.len();
    let platform = profiles::system1();
    let mapper = ReputeMapper::new(
        Arc::clone(&w.indexed),
        ReputeConfig::new(5, 22).expect("valid paper parameters"),
    );

    println!(
        "\n{:>14} | {:>14} | {:>12} | {:>12}",
        "reads per GPU", "reads on CPU", "T(s) sim", "bottleneck"
    );
    println!("{}", "-".repeat(62));
    let steps = 8usize;
    let mut best: Option<(usize, f64)> = None;
    for step in 0..=steps {
        let per_gpu = total / 2 * step / steps; // up to all reads on GPUs
        let cpu = total - 2 * per_gpu;
        let shares = vec![
            Share {
                device: 0,
                items: cpu,
            },
            Share {
                device: 1,
                items: per_gpu,
            },
            Share {
                device: 2,
                items: per_gpu,
            },
        ];
        let (run, _) = map_on_platform_with_metrics(&mapper, &platform, &shares, &reads)
            .expect("share arithmetic covers all reads");
        let bottleneck = run
            .device_runs
            .iter()
            .max_by(|a, b| a.simulated_seconds.total_cmp(&b.simulated_seconds))
            .map(|r| platform.devices()[r.device].name().to_string())
            .unwrap_or_default();
        println!(
            "{:>14} | {:>14} | {:>12.3} | {:>12}",
            per_gpu, cpu, run.simulated_seconds, bottleneck
        );
        if best.is_none_or(|(_, t)| run.simulated_seconds < t) {
            best = Some((per_gpu, run.simulated_seconds));
        }
    }
    if let Some((per_gpu, t)) = best {
        println!(
            "\nbest split: {per_gpu} reads per GPU ({t:.3}s) — the U-shape of the paper's Fig. 3:\n\
             CPU-bound on the left, GPU-bound on the right."
        );
    }
}
