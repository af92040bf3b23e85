#![cfg(feature = "proptest")]
//! NOTE: gated behind the non-default `proptest` feature because the
//! external `proptest` crate cannot be resolved in the offline build
//! environment. Enabling the feature additionally requires restoring a
//! `proptest` dev-dependency where registry access exists. The
//! always-on seeded suite in `faults.rs` covers the same invariants
//! with the in-repo PRNG.

use std::sync::Arc;

use proptest::prelude::*;

use repute_core::{Executor, ReputeConfig, ReputeMapper, Schedule};
use repute_genome::reads::ReadSimulator;
use repute_genome::synth::ReferenceBuilder;
use repute_genome::DnaSeq;
use repute_hetsim::{profiles, FaultPlan, Platform};

const DEVICES: usize = 4;

/// The executor under test: `schedule` on `host_threads` host threads,
/// everything else at its default.
fn executor(schedule: &Schedule, host_threads: usize) -> Executor {
    Executor {
        host_threads,
        ..Executor::new(schedule.clone())
    }
}

fn setup() -> (ReputeMapper, Vec<DnaSeq>, Platform) {
    let reference = ReferenceBuilder::new(40_000).seed(401).build();
    let reads: Vec<DnaSeq> = ReadSimulator::new(100, 24)
        .seed(402)
        .simulate(&reference)
        .into_iter()
        .map(|r| r.seq)
        .collect();
    let indexed = Arc::new(repute_mappers::IndexedReference::build(reference));
    let mapper = ReputeMapper::new(indexed, ReputeConfig::new(3, 15).unwrap());
    let platform = Platform::new(
        "quad",
        10.0,
        vec![
            profiles::intel_i7_2600(),
            profiles::intel_i7_2600(),
            profiles::intel_i7_2600(),
            profiles::intel_i7_2600(),
        ],
    );
    (mapper, reads, platform)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Output invariance under random fault plans with a guaranteed
    /// survivor: `FaultPlan::random` never kills device 0, so for any
    /// seed, horizon, schedule, and retry budget the faulted run must
    /// produce hits and per-read metrics bit-identical to the fault-free
    /// run — and identical across host-thread counts {1, 4}.
    #[test]
    fn random_plans_with_survivor_preserve_output(
        seed in any::<u64>(),
        horizon in 1e-6f64..1.0,
        dynamic in any::<bool>(),
        max_retries in 0usize..4,
    ) {
        let (mapper, reads, platform) = setup();
        let schedule = if dynamic {
            Schedule::Dynamic { batch: 3 }
        } else {
            Schedule::Static(platform.even_shares(reads.len()))
        };
        let (baseline, baseline_metrics) =
            executor(&schedule, 1).run(&mapper, &platform, &reads).unwrap();
        let plan = FaultPlan::random(seed, DEVICES, horizon);
        let mut runs = Vec::new();
        for host_threads in [1usize, 4] {
            let faulted = Executor {
                faults: plan.clone(),
                max_retries,
                ..executor(&schedule, host_threads)
            };
            let (run, metrics) = faulted.run(&mapper, &platform, &reads).unwrap();
            prop_assert_eq!(run.outputs.len(), baseline.outputs.len());
            for (a, b) in run.outputs.iter().zip(&baseline.outputs) {
                prop_assert_eq!(&a.mappings, &b.mappings);
            }
            prop_assert_eq!(&metrics, &baseline_metrics);
            runs.push(run);
        }
        // Replay is deterministic across host-thread counts.
        prop_assert_eq!(runs[0].simulated_seconds, runs[1].simulated_seconds);
        prop_assert_eq!(&runs[0].timelines, &runs[1].timelines);
        prop_assert_eq!(&runs[0].fault_counters, &runs[1].fault_counters);
    }
}
