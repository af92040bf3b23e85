//! Read-order / metrics-order invariance of the task-parallel executor.
//!
//! A tiny-device platform forces every share into ≥ 3 quarter-RAM batches
//! while shares execute on concurrent host threads; the outputs and
//! per-read metrics must still come back in exact read order, identical
//! to a single-device rerun, for every schedule and host-thread count.

use std::sync::Arc;

use repute_core::{
    map_on_platform_with_metrics, Executor, ReputeConfig, ReputeMapper, Schedule, AUTO_HOST_THREADS,
};
use repute_genome::reads::ReadSimulator;
use repute_genome::synth::ReferenceBuilder;
use repute_genome::DnaSeq;
use repute_hetsim::{profiles, DeviceKind, DeviceProfile, Platform, Share};
use repute_mappers::Mapper;

fn setup() -> (ReputeMapper, Vec<DnaSeq>) {
    let reference = ReferenceBuilder::new(50_000).seed(301).build();
    let reads: Vec<DnaSeq> = ReadSimulator::new(100, 24)
        .seed(302)
        .simulate(&reference)
        .into_iter()
        .map(|r| r.seq)
        .collect();
    let indexed = Arc::new(repute_mappers::IndexedReference::build(reference));
    let mapper = ReputeMapper::new(indexed, ReputeConfig::new(3, 15).unwrap());
    (mapper, reads)
}

/// The executor under test: `schedule` on `host_threads` host threads,
/// everything else at its default.
fn executor(schedule: &Schedule, host_threads: usize) -> Executor {
    Executor {
        host_threads,
        ..Executor::new(schedule.clone())
    }
}

/// Two identical devices whose quarter-RAM output cap is 4 reads: a
/// 12-read share needs 3 sequential batches.
fn tiny_platform(mapper: &ReputeMapper) -> Platform {
    let bytes_per_read = mapper.max_locations() * 12;
    let tiny = |name: &str| {
        DeviceProfile::new(
            name.to_string(),
            DeviceKind::Cpu,
            2,
            1e7,
            bytes_per_read * 4 * 4, // quarter-RAM = 4 reads
            1.0,
        )
    };
    Platform::new("tiny-duo", 1.0, vec![tiny("tiny0"), tiny("tiny1")])
}

#[test]
fn multi_batch_threaded_shares_preserve_read_and_metrics_order() {
    let (mapper, reads) = setup();
    assert_eq!(reads.len(), 24);
    let platform = tiny_platform(&mapper);

    // Single-device reference run (one share, no concurrency between
    // shares) on an ordinary platform.
    let reference = profiles::system1_cpu_only();
    let (ref_run, ref_metrics) = map_on_platform_with_metrics(
        &mapper,
        &reference,
        &reference.single_device_share(0, reads.len()),
        &reads,
    )
    .unwrap();

    let shares = vec![
        Share {
            device: 0,
            items: 12,
        },
        Share {
            device: 1,
            items: 12,
        },
    ];
    for host_threads in [1usize, 2, AUTO_HOST_THREADS] {
        let (run, metrics) = executor(&Schedule::Static(shares.clone()), host_threads)
            .run(&mapper, &platform, &reads)
            .unwrap();
        // Each share was split into ≥ 3 quarter-RAM batches.
        for events in &run.timelines {
            assert!(
                events.len() >= 3,
                "expected ≥3 batches per share, got {}",
                events.len()
            );
        }
        // Outputs and metrics in exact read order, matching the
        // single-device rerun element for element.
        assert_eq!(run.outputs.len(), reads.len());
        for (i, (a, b)) in run.outputs.iter().zip(&ref_run.outputs).enumerate() {
            assert_eq!(
                a.mappings, b.mappings,
                "read {i} (host_threads {host_threads})"
            );
        }
        assert_eq!(metrics, ref_metrics, "host_threads {host_threads}");
    }
}

#[test]
fn dynamic_schedule_on_tiny_devices_matches_single_device_rerun() {
    let (mapper, reads) = setup();
    let platform = tiny_platform(&mapper);
    let reference = profiles::system1_cpu_only();
    let (ref_run, ref_metrics) = map_on_platform_with_metrics(
        &mapper,
        &reference,
        &reference.single_device_share(0, reads.len()),
        &reads,
    )
    .unwrap();
    for (batch, host_threads) in [(0usize, AUTO_HOST_THREADS), (1, 2), (5, 1)] {
        let (run, metrics) = executor(&Schedule::Dynamic { batch }, host_threads)
            .run(&mapper, &platform, &reads)
            .unwrap();
        // The quarter-RAM cap bounds every dynamic batch too.
        for events in &run.timelines {
            for e in events {
                assert!(e.items <= 4, "batch of {} exceeds the 4-read cap", e.items);
            }
        }
        for (a, b) in run.outputs.iter().zip(&ref_run.outputs) {
            assert_eq!(a.mappings, b.mappings);
        }
        assert_eq!(metrics, ref_metrics);
    }
}

/// Dynamic batch pulling finishes strictly before even static shares on
/// a skewed read set — the heaviest read over the first quarter, the
/// lightest over the rest, so even shares pin every heavy read on
/// device 0 — and both schedules report the same mappings.
#[test]
fn dynamic_beats_static_even_shares_on_a_skewed_read_set() {
    let (mapper, reads) = setup();
    let work: Vec<u64> = reads.iter().map(|r| mapper.map_read(r).work).collect();
    let heavy = (0..reads.len()).max_by_key(|&i| work[i]).unwrap();
    let light = (0..reads.len()).min_by_key(|&i| work[i]).unwrap();
    assert!(work[heavy] > work[light], "no per-read work skew");
    let q = reads.len() / 4;
    let skewed: Vec<DnaSeq> = std::iter::repeat_n(&reads[heavy], q)
        .chain(std::iter::repeat_n(&reads[light], 3 * q))
        .cloned()
        .collect();
    let platform = Platform::new("quad", 10.0, vec![profiles::intel_i7_2600(); 4]);
    let run = |schedule: Schedule| {
        executor(&schedule, 1)
            .run(&mapper, &platform, &skewed)
            .unwrap()
            .0
    };
    let even = run(Schedule::Static(platform.even_shares(skewed.len())));
    let dynamic = run(Schedule::Dynamic { batch: 0 });
    assert!(
        dynamic.simulated_seconds < even.simulated_seconds,
        "dynamic {} s vs static even shares {} s",
        dynamic.simulated_seconds,
        even.simulated_seconds
    );
    for (a, b) in dynamic.outputs.iter().zip(&even.outputs) {
        assert_eq!(a.mappings, b.mappings);
    }
}

#[test]
fn empty_read_set_is_a_valid_empty_run_in_both_modes() {
    let (mapper, _) = setup();
    let platform = tiny_platform(&mapper);
    let (static_run, m1) =
        map_on_platform_with_metrics(&mapper, &platform, &[], &[]).expect("empty static run");
    let (dynamic_run, m2) = executor(&Schedule::Dynamic { batch: 0 }, AUTO_HOST_THREADS)
        .run(&mapper, &platform, &[])
        .expect("empty dynamic run");
    for run in [&static_run, &dynamic_run] {
        assert!(run.outputs.is_empty());
        assert_eq!(run.simulated_seconds, 0.0);
        assert_eq!(run.energy.energy_j, 0.0);
        assert_eq!(run.energy.average_power_w, platform.idle_power_w());
    }
    assert!(m1.is_empty() && m2.is_empty());
}
