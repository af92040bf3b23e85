//! Task-parallel mapping across CPU + 2 GPUs (the paper's System 1).
//!
//! Demonstrates the multi-device launch of §III-B: the same read set is
//! mapped with different CPU/GPU distributions, showing the bottleneck
//! moving from one device to another — the experiment behind Fig. 3 —
//! and the §III-D power/energy readings for each split.
//!
//! ```text
//! cargo run --release --example heterogeneous_mapping
//! ```

use std::sync::Arc;

use repute_core::{map_on_platform_with_metrics, ReputeConfig, ReputeMapper};
use repute_genome::reads::{ErrorProfile, ReadSimulator};
use repute_genome::synth::ReferenceBuilder;
use repute_hetsim::{profiles, Share};
use repute_mappers::{IndexedReference, Mapper};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("building workload…");
    let reference = ReferenceBuilder::new(1_000_000).seed(5).build();
    let reads: Vec<_> = ReadSimulator::new(150, 300)
        .profile(ErrorProfile::srr826460())
        .seed(9)
        .simulate(&reference)
        .into_iter()
        .map(|r| r.seq)
        .collect();
    let indexed = Arc::new(IndexedReference::build(reference));
    let mapper = ReputeMapper::new(Arc::clone(&indexed), ReputeConfig::new(5, 15)?);

    let platform = profiles::system1();
    println!(
        "platform: {} ({} devices, {} W idle)\n",
        platform.name(),
        platform.devices().len(),
        platform.idle_power_w()
    );
    println!(
        "{:<28} | {:>10} | {:>8} | {:>10}",
        "distribution (cpu/gpu/gpu)", "T(s) sim", "P(W)", "E(J)"
    );
    println!("{}", "-".repeat(66));
    let total = reads.len();
    for gpu_fraction in [0.0f64, 0.2, 0.35, 0.5] {
        let per_gpu = (total as f64 * gpu_fraction / 2.0) as usize;
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
        let (run, _) = map_on_platform_with_metrics(&mapper, &platform, &shares, &reads)?;
        println!(
            "{:<28} | {:>10.4} | {:>8.1} | {:>10.3}",
            format!("{cpu}/{per_gpu}/{per_gpu}"),
            run.simulated_seconds,
            run.energy.average_power_w,
            run.energy.energy_j
        );
    }
    println!(
        "\nmore GPU share → more power drawn, but (up to the bottleneck flip)\n\
         shorter mapping time and lower energy — §IV's REPUTE-all observation."
    );

    // Per-device utilisation at the balanced split: the task-parallel
    // barrier means non-bottleneck devices idle.
    let (run, _) =
        map_on_platform_with_metrics(&mapper, &platform, &platform.even_shares(total), &reads)?;
    println!("\nutilisation at the throughput-proportional split:");
    let shadow = repute_hetsim::PlatformRun::<()> {
        outputs: vec![],
        device_runs: run.device_runs.clone(),
        simulated_seconds: run.simulated_seconds,
        wall_seconds: run.wall_seconds,
    };
    for (device, utilisation) in shadow.device_utilization() {
        println!(
            "  {:<22} {:>5.1}%",
            platform.devices()[device].name(),
            utilisation * 100.0
        );
    }

    // OpenCL-style command queue: chunk one device's share into batches
    // (the quarter-RAM rule of §III) and show the profiling timeline.
    let gpu = &platform.devices()[1];
    let mut queue = repute_hetsim::CommandQueue::new(gpu);
    for (i, chunk) in reads.chunks(60).take(3).enumerate() {
        let kernel = repute_hetsim::FnKernel::new(|idx: usize| {
            let out = mapper.map_read(&chunk[idx]);
            let work = out.work;
            (out.mappings.len(), work)
        });
        queue.enqueue(format!("batch-{i}"), chunk.len(), &kernel);
    }
    println!("\nGPU command-queue timeline (3 batches of 60 reads):");
    print!("{}", queue.timeline());
    println!("queue finished at {:.4}s simulated", queue.finish_seconds());
    Ok(())
}
