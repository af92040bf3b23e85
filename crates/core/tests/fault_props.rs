//! Output invariance under arbitrary fault plans — a plain loop over the
//! vendored PRNG with a fixed seed set (the pattern of
//! `crates/prefilter/tests/props.rs`), so it runs offline and in tier-1.
//! The seeded suite in `faults.rs` covers the same invariant on named
//! plans.

use std::sync::Arc;

use repute_core::{Executor, ReputeConfig, ReputeMapper, Schedule};
use repute_genome::reads::ReadSimulator;
use repute_genome::rng::StdRng;
use repute_genome::synth::ReferenceBuilder;
use repute_genome::DnaSeq;
use repute_hetsim::{profiles, FaultEvent, FaultKind, FaultPlan, LaunchErrorKind, Platform};

const DEVICES: usize = 4;
const SEEDS: [u64; 4] = [0x9E37, 0x79B9, 0x7F4A, 0x7C15];
const CASES_PER_SEED: usize = 8;

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
    let quad = vec![profiles::intel_i7_2600(); DEVICES];
    (mapper, reads, Platform::new("quad", 10.0, quad))
}

/// `FaultPlan::random` never sends device 0 a loss, so for any plan
/// seed, horizon, schedule, and retry budget that covers device 0's own
/// transients, the faulted run must produce hits and per-read metrics
/// bit-identical to the fault-free run — and identical across
/// host-thread counts {1, 4}.
#[test]
fn random_plans_with_survivor_preserve_output() {
    let (mapper, reads, platform) = setup();
    let mut survived = 0;
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..CASES_PER_SEED {
            let plan_seed: u64 = rng.gen();
            // Log-uniform over the six decades of 1e-6..1.
            let horizon = 10f64.powf(-6.0 * rng.gen::<f64>());
            let max_retries = rng.gen_range(0usize..4);
            let schedule = if rng.gen() {
                Schedule::Dynamic { batch: 3 }
            } else {
                Schedule::Static(platform.even_shares(reads.len()))
            };
            let context = format!(
                "seed {seed:#x}, case {case}: plan seed {plan_seed:#x}, horizon {horizon:e}, \
                 {max_retries} retries, {schedule:?}"
            );
            let (baseline, baseline_metrics) = Executor::new(schedule.clone())
                .run(&mapper, &platform, &reads)
                .unwrap();
            let plan = FaultPlan::random(plan_seed, DEVICES, horizon);
            let on_survivor = |e: &&FaultEvent| e.device == 0 && e.kind == FaultKind::Transient;
            let survivor_transients = plan.events().iter().filter(on_survivor).count();
            let mut runs = Vec::new();
            for host_threads in [1usize, 4] {
                let faulted = Executor {
                    host_threads,
                    faults: plan.clone(),
                    max_retries,
                    ..Executor::new(schedule.clone())
                };
                let (run, metrics) = match faulted.run(&mapper, &platform, &reads) {
                    Ok(run) => run,
                    // Device 0 is never sent a loss, but a retry budget
                    // smaller than its own transients can escalate one of
                    // them to its loss: then, and only then, the run may
                    // end in the typed partial failure.
                    Err(e) => {
                        assert!(
                            matches!(e.kind(), LaunchErrorKind::AllDevicesLost { .. })
                                && max_retries < survivor_transients,
                            "{context}: {e}"
                        );
                        continue;
                    }
                };
                assert_eq!(run.outputs.len(), baseline.outputs.len(), "{context}");
                for (a, b) in run.outputs.iter().zip(&baseline.outputs) {
                    assert_eq!(a.mappings, b.mappings, "{context}");
                }
                assert_eq!(metrics, baseline_metrics, "{context}");
                runs.push(run);
            }
            if runs.is_empty() {
                continue;
            }
            survived += 1;
            assert_eq!(runs.len(), 2, "{context}: one host-thread count failed");
            // Replay is deterministic across host-thread counts.
            assert_eq!(
                runs[0].simulated_seconds, runs[1].simulated_seconds,
                "{context}"
            );
            assert_eq!(runs[0].timelines, runs[1].timelines, "{context}");
            assert_eq!(runs[0].fault_counters, runs[1].fault_counters, "{context}");
        }
    }
    assert!(
        survived >= 24,
        "only {survived} of 32 plans left a survivor"
    );
}
