//! Clinical gene-panel scenario: multi-record reference, coverage report.
//!
//! The paper's motivation is P4 medicine (§I): genomics cheap enough for
//! routine diagnostics. A targeted gene panel is the everyday version of
//! that workload — reads from a handful of genes, mapped and summarised
//! per target. This example builds a three-"gene" panel, maps simulated
//! reads with REPUTE on the embedded (HiKey970) profile, resolves
//! mappings per record and reports depth/breadth of coverage per gene.
//!
//! ```text
//! cargo run --release --example gene_panel
//! ```

use std::sync::Arc;

use repute_core::{map_on_platform_with_metrics, ReputeConfig, ReputeMapper};
use repute_eval::coverage::CoverageMap;
use repute_genome::reads::{ErrorProfile, ReadSimulator};
use repute_genome::synth::ReferenceBuilder;
use repute_hetsim::profiles;
use repute_mappers::multiref::ReferenceSet;
use repute_mappers::Mapping;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("building a 3-gene panel…");
    let genes = vec![
        (
            "BRCA1-like".to_string(),
            ReferenceBuilder::new(80_000).seed(31).build(),
        ),
        (
            "TP53-like".to_string(),
            ReferenceBuilder::new(20_000).seed(32).build(),
        ),
        (
            "CFTR-like".to_string(),
            ReferenceBuilder::new(250_000).seed(33).build(),
        ),
    ];
    let set = ReferenceSet::build(genes);

    // Panel sequencing: reads drawn across the whole panel.
    let reads: Vec<_> = ReadSimulator::new(100, 2_000)
        .profile(ErrorProfile::err012100())
        .unmappable_fraction(0.03)
        .seed(34)
        .simulate(set.indexed().seq())
        .into_iter()
        .map(|r| r.seq)
        .collect();

    let mapper = ReputeMapper::new(
        Arc::clone(set.indexed()),
        ReputeConfig::new(4, 15)?.with_max_locations(20),
    );
    let platform = profiles::system2_hikey970();
    println!("mapping {} reads on {}…", reads.len(), platform.name());
    let (run, _) = map_on_platform_with_metrics(
        &mapper,
        &platform,
        &platform.even_shares(reads.len()),
        &reads,
    )?;

    // Per-gene coverage from resolved mappings (primary location only).
    let mut tracks: Vec<CoverageMap> = set
        .records()
        .iter()
        .map(|(_, len)| CoverageMap::new(*len))
        .collect();
    let mut unmapped = 0usize;
    for (read, out) in reads.iter().zip(&run.outputs) {
        let resolved = set.resolve_mappings(read.len(), &out.mappings);
        match resolved.first() {
            Some(primary) => tracks[primary.record].add(
                &Mapping {
                    position: primary.position,
                    strand: primary.strand,
                    distance: primary.distance,
                },
                read.len(),
            ),
            None => unmapped += 1,
        }
    }

    println!(
        "\n{:<12} | {:>9} | {:>11} | {:>13}",
        "gene", "length", "mean depth", "breadth ≥1x"
    );
    println!("{}", "-".repeat(54));
    for ((name, len), track) in set.records().iter().zip(&mut tracks) {
        println!(
            "{:<12} | {:>9} | {:>10.2}x | {:>12.1}%",
            name,
            len,
            track.mean_depth(0..*len),
            track.breadth(0..*len, 1) * 100.0
        );
    }
    println!(
        "\n{unmapped} reads unmapped | {:.3}s simulated on the SoC | {:.2} J",
        run.simulated_seconds, run.energy.energy_j
    );
    println!(
        "the embedded-genomics pitch of §IV: this panel costs millijoules-per-read\n\
         on a battery-powered device instead of a workstation."
    );
    Ok(())
}
