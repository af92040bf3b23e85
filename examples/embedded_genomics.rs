//! Embedded genomics on the HiKey970 (the paper's headline).
//!
//! Maps the same read set on a workstation profile and on the embedded
//! big.LITTLE profile, compares time and energy (the paper's ≈20–27×
//! energy saving), and writes the mappings of a few reads as SAM — the
//! output-format extension of §IV.
//!
//! ```text
//! cargo run --release --example embedded_genomics
//! ```

use std::sync::Arc;

use repute_core::{map_on_platform_with_metrics, ReputeConfig, ReputeMapper};
use repute_eval::sam;
use repute_genome::reads::{ErrorProfile, ReadSimulator};
use repute_genome::synth::ReferenceBuilder;
use repute_hetsim::profiles;
use repute_mappers::IndexedReference;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("building workload…");
    let reference = ReferenceBuilder::new(1_000_000).seed(77).build();
    let reference_len = reference.len();
    let sim_reads = ReadSimulator::new(100, 200)
        .profile(ErrorProfile::err012100())
        .seed(11)
        .simulate(&reference);
    let reads: Vec<_> = sim_reads.iter().map(|r| r.seq.clone()).collect();
    let indexed = Arc::new(IndexedReference::build(reference));
    let mapper = ReputeMapper::new(
        Arc::clone(&indexed),
        ReputeConfig::new(3, 15)?.with_max_locations(100),
    );

    let workstation = profiles::system1_cpu_only();
    let hikey = profiles::system2_hikey970();

    let (w_run, _) = map_on_platform_with_metrics(
        &mapper,
        &workstation,
        &workstation.single_device_share(0, reads.len()),
        &reads,
    )?;
    let (h_run, _) =
        map_on_platform_with_metrics(&mapper, &hikey, &hikey.even_shares(reads.len()), &reads)?;

    println!(
        "\n{:<26} | {:>10} | {:>8} | {:>10}",
        "platform", "T(s) sim", "P(W)", "E(J)"
    );
    println!("{}", "-".repeat(64));
    for (name, run) in [
        ("workstation (i7-2600)", &w_run),
        ("HiKey970 (A73+A53)", &h_run),
    ] {
        println!(
            "{:<26} | {:>10.4} | {:>8.1} | {:>10.3}",
            name, run.simulated_seconds, run.energy.average_power_w, run.energy.energy_j
        );
    }
    println!(
        "\nenergy saving on the embedded SoC: {:.1}× (paper: up to 27×)\n\
         at a slowdown of only {:.1}×",
        w_run.energy.energy_j / h_run.energy.energy_j,
        h_run.simulated_seconds / w_run.simulated_seconds
    );

    // SAM output for the first three reads (§IV extension).
    println!("\nSAM output of the first reads:");
    let mut sam_text = Vec::new();
    sam::write_header(&mut sam_text, "chr21sim", reference_len)?;
    for (sim, out) in sim_reads.iter().zip(&h_run.outputs).take(3) {
        let name = format!("read{}", sim.id);
        sam::write_record(
            &mut sam_text,
            "chr21sim",
            &sam::SamRecord {
                name: &name,
                seq: &sim.seq,
                mappings: &out.mappings[..out.mappings.len().min(2)],
                cigar: None,
            },
        )?;
    }
    print!("{}", String::from_utf8(sam_text)?);
    Ok(())
}
