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

use repute_core::{map_on_platform_with_metrics, Executor, ReputeConfig, ReputeMapper, Schedule};
use repute_genome::reads::{ErrorProfile, ReadSimulator};
use repute_genome::synth::ReferenceBuilder;
use repute_hetsim::{profiles, Share};
use repute_mappers::IndexedReference;

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

    // Per-device work and utilisation under the dynamic schedule: batches
    // capped at 30 reads (the quarter-RAM rule of §III makes REPUTE "run
    // the kernel multiple times with smaller read sets"), each pulled by
    // the device that frees earliest. The run ends at the task-parallel
    // barrier, so the devices that finish first idle until it.
    let (run, _) =
        Executor::new(Schedule::Dynamic { batch: 30 }).run(&mapper, &platform, &reads)?;
    println!("\ndynamic schedule, batches of 30 reads:");
    for dr in &run.device_runs {
        println!(
            "  {:<22} {:>4} reads {:>12} work units {:>5.1}% busy",
            platform.devices()[dr.device].name(),
            dr.items,
            dr.work,
            100.0 * dr.simulated_seconds / run.simulated_seconds
        );
    }

    // OpenCL-style profiling events: one command queue per device.
    println!("\nbatch timeline:");
    for event in run.timelines.iter().flatten() {
        println!(
            "  {:<12} {:>3} reads  {:.4}s–{:.4}s",
            event.label, event.items, event.start_seconds, event.end_seconds
        );
    }
    println!("run finished at {:.4}s simulated", run.simulated_seconds);
    Ok(())
}
