//! End-to-end integration: reference → index → map → evaluate → SAM.

use std::sync::Arc;

use repute_core::{map_on_platform_with_metrics, ReputeConfig, ReputeMapper};
use repute_eval::accuracy::{all_locations_accuracy, any_best_accuracy};
use repute_eval::sam;
use repute_genome::reads::{ErrorProfile, ReadSimulator};
use repute_genome::synth::ReferenceBuilder;
use repute_hetsim::profiles;
use repute_mappers::razers3::Razers3Like;
use repute_mappers::{IndexedReference, Mapper};

fn workload() -> (Arc<IndexedReference>, Vec<repute_genome::reads::SimRead>) {
    let reference = ReferenceBuilder::new(200_000).seed(1001).build();
    let reads = ReadSimulator::new(100, 60)
        .profile(ErrorProfile::err012100())
        .unmappable_fraction(0.05)
        .seed(1002)
        .simulate(&reference);
    (Arc::new(IndexedReference::build(reference)), reads)
}

#[test]
fn repute_recovers_ground_truth_and_matches_gold_standard() {
    let (indexed, sim_reads) = workload();
    let delta = 5u32;
    let mapper = ReputeMapper::new(
        Arc::clone(&indexed),
        ReputeConfig::new(delta, 12).expect("valid config"),
    );

    // Ground-truth sensitivity: every genomic read with ≤ δ injected
    // errors must be found at its origin.
    for read in &sim_reads {
        let Some(origin) = read.origin else { continue };
        if origin.edits > delta {
            continue;
        }
        let out = mapper.map_read(&read.seq);
        assert!(
            out.mappings.iter().any(|m| {
                m.strand == origin.strand
                    && (m.position as i64 - origin.position as i64).abs() <= delta as i64
            }),
            "read {} lost (origin {:?})",
            read.id,
            origin
        );
    }

    // Gold-standard accuracy: ≈100% under both methodologies.
    let gold_mapper = Razers3Like::new(Arc::clone(&indexed), delta);
    let gold = repute_eval::GoldStandard::new(
        sim_reads
            .iter()
            .map(|r| gold_mapper.map_read(&r.seq).mappings)
            .collect(),
    );
    let outputs: Vec<_> = sim_reads
        .iter()
        .map(|r| mapper.map_read(&r.seq).mappings)
        .collect();
    let all = all_locations_accuracy(&gold, &outputs, delta);
    let any = any_best_accuracy(&gold, &outputs, delta);
    assert!(all > 99.0, "all-locations accuracy {all}");
    assert!(any > 99.0, "any-best accuracy {any}");
}

#[test]
fn noise_reads_map_nowhere() {
    let (indexed, _) = workload();
    let mapper = ReputeMapper::new(
        Arc::clone(&indexed),
        ReputeConfig::new(3, 15).expect("valid config"),
    );
    // Pure-noise reads of length 100 almost surely have no alignment
    // within 3 edits of a 200 kbp reference.
    let noise = ReadSimulator::new(100, 20)
        .unmappable_fraction(1.0)
        .seed(555)
        .simulate(indexed.seq());
    let mapped = noise
        .iter()
        .filter(|r| !mapper.map_read(&r.seq).mappings.is_empty())
        .count();
    assert!(mapped <= 1, "{mapped}/20 noise reads mapped");
}

#[test]
fn platform_run_equals_serial_run_and_produces_sam() {
    let (indexed, sim_reads) = workload();
    let mapper = ReputeMapper::new(
        Arc::clone(&indexed),
        ReputeConfig::new(3, 15).expect("valid config"),
    );
    let reads: Vec<_> = sim_reads.iter().map(|r| r.seq.clone()).collect();
    let platform = profiles::system1();
    let (run, _) = map_on_platform_with_metrics(
        &mapper,
        &platform,
        &platform.even_shares(reads.len()),
        &reads,
    )
    .expect("valid shares");
    // Distribution must not change results.
    for (read, out) in reads.iter().zip(&run.outputs) {
        assert_eq!(mapper.map_read(read).mappings, out.mappings);
    }
    // And the whole run serialises to SAM.
    let mut sam_text = Vec::new();
    sam::write_header(&mut sam_text, "ref", indexed.len()).expect("header");
    for (sim, out) in sim_reads.iter().zip(&run.outputs) {
        let name = format!("r{}", sim.id);
        sam::write_record(
            &mut sam_text,
            "ref",
            &sam::SamRecord {
                name: &name,
                seq: &sim.seq,
                mappings: &out.mappings,
                cigar: None,
            },
        )
        .expect("record");
    }
    let text = String::from_utf8(sam_text).expect("utf8");
    assert!(text.starts_with("@HD"));
    // Every read appears exactly once or more (unmapped reads emit a
    // FLAG 4 line).
    for sim in &sim_reads {
        assert!(
            text.contains(&format!("r{}\t", sim.id)),
            "read {} missing",
            sim.id
        );
    }
}
