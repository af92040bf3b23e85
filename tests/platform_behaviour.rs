//! Platform-level integration: the properties behind Tables II–IV and
//! Fig. 3.

use std::sync::Arc;

use repute_core::{map_on_platform_with_metrics, ReputeConfig, ReputeMapper};
use repute_genome::reads::ReadSimulator;
use repute_genome::synth::ReferenceBuilder;
use repute_genome::DnaSeq;
use repute_hetsim::{profiles, Share};
use repute_mappers::{IndexedReference, Mapper};

fn workload() -> (ReputeMapper, Vec<DnaSeq>) {
    let reference = ReferenceBuilder::new(150_000).seed(3001).build();
    let reads: Vec<DnaSeq> = ReadSimulator::new(100, 48)
        .seed(3002)
        .simulate(&reference)
        .into_iter()
        .map(|r| r.seq)
        .collect();
    let indexed = Arc::new(IndexedReference::build(reference));
    (
        ReputeMapper::new(indexed, ReputeConfig::new(3, 15).expect("valid")),
        reads,
    )
}

#[test]
fn results_are_invariant_under_distribution() {
    let (mapper, reads) = workload();
    let platform = profiles::system1();
    let distributions = vec![
        platform.single_device_share(0, reads.len()),
        platform.even_shares(reads.len()),
        vec![
            Share {
                device: 1,
                items: reads.len() / 2,
            },
            Share {
                device: 2,
                items: reads.len() - reads.len() / 2,
            },
        ],
    ];
    let baseline: Vec<_> = reads.iter().map(|r| mapper.map_read(r).mappings).collect();
    for shares in distributions {
        let (run, _) = map_on_platform_with_metrics(&mapper, &platform, &shares, &reads)
            .expect("valid shares");
        let got: Vec<_> = run.outputs.iter().map(|o| o.mappings.clone()).collect();
        assert_eq!(got, baseline, "distribution changed the mapping results");
    }
}

#[test]
fn fig3_shape_cpu_only_and_gpu_only_are_both_slower_than_a_split() {
    let (mapper, reads) = workload();
    let platform = profiles::system1();
    let total = reads.len();
    let time_for = |per_gpu: usize| {
        let shares = vec![
            Share {
                device: 0,
                items: total - 2 * per_gpu,
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
        map_on_platform_with_metrics(&mapper, &platform, &shares, &reads)
            .expect("valid shares")
            .0
            .simulated_seconds
    };
    let cpu_only = time_for(0);
    let all_gpu = time_for(total / 2);
    let split = time_for(total / 4);
    assert!(split < cpu_only, "split {split} !< cpu-only {cpu_only}");
    assert!(split < all_gpu, "split {split} !< all-gpu {all_gpu}");
}

#[test]
fn table4_shape_heterogeneous_draws_more_power_hikey_uses_less_energy() {
    let (mapper, reads) = workload();
    let sys1_cpu = profiles::system1_cpu_only();
    let sys1_all = profiles::system1();
    let sys2 = profiles::system2_hikey970();

    let (cpu, _) = map_on_platform_with_metrics(
        &mapper,
        &sys1_cpu,
        &sys1_cpu.single_device_share(0, reads.len()),
        &reads,
    )
    .expect("valid");
    let (all, _) = map_on_platform_with_metrics(
        &mapper,
        &sys1_all,
        &sys1_all.even_shares(reads.len()),
        &reads,
    )
    .expect("valid");
    let (hikey, _) =
        map_on_platform_with_metrics(&mapper, &sys2, &sys2.even_shares(reads.len()), &reads)
            .expect("valid");

    // §IV: REPUTE-all uses more power but less time than REPUTE-cpu.
    assert!(all.energy.average_power_w > cpu.energy.average_power_w);
    assert!(all.simulated_seconds < cpu.simulated_seconds);
    // Headline: the embedded SoC is slower but saves an order of
    // magnitude or more of energy.
    assert!(hikey.simulated_seconds > cpu.simulated_seconds);
    let saving = cpu.energy.energy_j / hikey.energy.energy_j;
    assert!(saving > 10.0, "energy saving only {saving:.1}×");
}

#[test]
fn work_conservation_across_devices() {
    let (mapper, reads) = workload();
    let platform = profiles::system1();
    let serial: u64 = reads.iter().map(|r| mapper.map_read(r).work).sum();
    let (run, _) = map_on_platform_with_metrics(
        &mapper,
        &platform,
        &platform.even_shares(reads.len()),
        &reads,
    )
    .expect("valid");
    assert_eq!(run.total_work(), serial, "work must be conserved");
    // Per-device work sums to the total.
    let per_device: u64 = run.device_runs.iter().map(|d| d.work).sum();
    assert_eq!(per_device, run.total_work());
}
