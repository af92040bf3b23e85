//! Fig. 4 — mapping time vs minimum k-mer length S_min (n=100, δ=4).
//!
//! The paper fixes the distribution (820k reads on the CPU, 90k per GPU)
//! and sweeps S_min: small values explore more DP possibilities
//! (longer filtration), large values shrink the exploration space until
//! candidate counts grow and verification dominates — a U-shaped curve
//! with the sweet spot in the middle.

use std::sync::Arc;

use repute_bench::workload::{Scale, Workload};
use repute_core::{map_on_platform_with_metrics, ReputeConfig, ReputeMapper};
use repute_hetsim::{profiles, Share};

fn main() {
    let scale = Scale::from_env();
    println!("Fig. 4 — mapping time vs minimum k-mer length (n=100, δ=4)");
    println!("{}", scale.describe());
    println!("generating workload…");
    let w = Workload::generate(scale);
    let reads = w.read_seqs(100);
    let total = reads.len();
    let platform = profiles::system1();
    // The paper's fixed distribution: 82% CPU, 9% per GPU.
    let per_gpu = total * 9 / 100;
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

    println!(
        "\n{:>6} | {:>12} | {:>16} | {:>16}",
        "S_min", "T(s) sim", "filter work", "candidates"
    );
    println!("{}", "-".repeat(60));
    for s_min in (10..=20).step_by(2) {
        let mapper = ReputeMapper::new(
            Arc::clone(&w.indexed),
            ReputeConfig::new(4, s_min).expect("valid paper parameters"),
        );
        let (run, _) = map_on_platform_with_metrics(&mapper, &platform, &shares, &reads)
            .expect("share arithmetic covers all reads");
        let candidates: u64 = run.outputs.iter().map(|o| o.candidates).sum();
        println!(
            "{:>6} | {:>12.3} | {:>16} | {:>16}",
            s_min,
            run.simulated_seconds,
            run.total_work(),
            candidates
        );
    }
    println!(
        "\npaper shape check: small S_min pays in DP exploration, large S_min pays in\n\
         candidate locations — the minimum sits between (Fig. 4 bottoms at S_min≈16-18)."
    );
}
