//! Fault-injection recovery: output invariance, failover attribution,
//! retry semantics, and the typed all-devices-dead partial failure.
//!
//! The executor's contract: whenever at least one device survives a
//! [`FaultPlan`], `Executor::run` returns output hits and
//! per-read metrics bit-identical to the fault-free run of the same
//! schedule — faults may change simulated time, timelines and energy,
//! never mapping results. This suite runs named plans; `fault_props.rs`
//! holds the same invariant over arbitrary ones.

use std::sync::Arc;

use repute_core::{Executor, ReputeConfig, ReputeMapper, Schedule, AUTO_HOST_THREADS};
use repute_genome::reads::ReadSimulator;
use repute_genome::synth::ReferenceBuilder;
use repute_genome::DnaSeq;
use repute_hetsim::{profiles, DeviceKind, DeviceProfile, FaultPlan, LaunchErrorKind, Platform};
use repute_mappers::{MapOutput, Mapper};
use repute_obs::MapMetrics;

fn setup() -> (ReputeMapper, Vec<DnaSeq>) {
    let reference = ReferenceBuilder::new(40_000).seed(401).build();
    let reads: Vec<DnaSeq> = ReadSimulator::new(100, 24)
        .seed(402)
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

/// Four identical CPUs: any device can absorb any batch, so failover
/// never changes what is computable.
fn quad_platform() -> Platform {
    Platform::new(
        "quad",
        10.0,
        vec![
            profiles::intel_i7_2600(),
            profiles::intel_i7_2600(),
            profiles::intel_i7_2600(),
            profiles::intel_i7_2600(),
        ],
    )
}

fn schedules(platform: &Platform, items: usize) -> Vec<Schedule> {
    vec![
        Schedule::Static(platform.even_shares(items)),
        Schedule::Dynamic { batch: 3 },
    ]
}

fn assert_same_outputs(
    a: &[MapOutput],
    b: &[MapOutput],
    am: &[MapMetrics],
    bm: &[MapMetrics],
    context: &str,
) {
    assert_eq!(a.len(), b.len(), "{context}: output count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.mappings, y.mappings, "{context}: read {i} hits diverged");
    }
    assert_eq!(am, bm, "{context}: per-read metrics diverged");
}

/// Random fault plans with a guaranteed survivor (device 0 is never
/// lost): hits and metric order identical to the fault-free run, across
/// both schedules and host-thread counts {1, 4}.
#[test]
fn random_fault_plans_preserve_output_with_a_survivor() {
    let (mapper, reads) = setup();
    let platform = quad_platform();
    for schedule in schedules(&platform, reads.len()) {
        let (baseline, baseline_metrics) = executor(&schedule, 1)
            .run(&mapper, &platform, &reads)
            .unwrap();
        for seed in 0..12u64 {
            // Horizon around the fault-free makespan so faults actually
            // land mid-run rather than all before or after it.
            let plan = FaultPlan::random(seed, 4, baseline.simulated_seconds.max(1e-6));
            for host_threads in [1usize, 4] {
                let (run, metrics) = Executor {
                    faults: plan.clone(),
                    max_retries: 2,
                    ..executor(&schedule, host_threads)
                }
                .run(&mapper, &platform, &reads)
                .unwrap_or_else(|e| {
                    panic!("seed {seed} threads {host_threads}: {e} (plan {plan:?})")
                });
                assert_same_outputs(
                    &run.outputs,
                    &baseline.outputs,
                    &metrics,
                    &baseline_metrics,
                    &format!("seed {seed} threads {host_threads} schedule {schedule:?}"),
                );
                // Injected faults must show up in the accounting iff the
                // plan had any strike (losses always count once armed
                // before probing ends; transients only if consumed).
                let total_items: usize = run.device_runs.iter().map(|r| r.items).sum();
                assert_eq!(total_items, reads.len(), "every read charged to a device");
            }
        }
    }
}

/// A single permanent device failure mid-run: mapping completes, output
/// is bit-identical, and the report attributes the migrated batches.
///
/// Tiny devices (quarter-RAM cap of 4 reads) force each 6-read share
/// into two batches, and the loss arms between them: the dead device's
/// first batch completes (fail-stop at launch granularity), its second
/// must migrate.
#[test]
fn single_device_loss_migrates_batches_and_preserves_output() {
    let (mapper, reads) = setup();
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
    let platform = Platform::new(
        "tiny-quad",
        1.0,
        vec![tiny("t0"), tiny("t1"), tiny("t2"), tiny("t3")],
    );
    let schedule = Schedule::Static(platform.even_shares(reads.len()));
    let (baseline, baseline_metrics) = executor(&schedule, 1)
        .run(&mapper, &platform, &reads)
        .unwrap();
    // Kill device 2 just after its first batch starts: the in-flight
    // launch completes, everything after it fails over.
    let plan = FaultPlan::new().loss(2, 1e-9);
    let (run, metrics) = Executor {
        faults: plan.clone(),
        max_retries: 2,
        ..executor(&schedule, 1)
    }
    .run(&mapper, &platform, &reads)
    .unwrap();
    assert_same_outputs(
        &run.outputs,
        &baseline.outputs,
        &metrics,
        &baseline_metrics,
        "single loss",
    );
    // One run entry per device; the dead device counts its loss, and the
    // survivors absorbed its batches.
    assert_eq!(run.device_runs.len(), 4);
    assert_eq!(run.fault_counters[2].faults, 1, "the loss must be counted");
    let migrated: u64 = run.fault_counters.iter().map(|c| c.migrated_batches).sum();
    assert!(migrated > 0, "batches of the dead device must migrate");
    assert_eq!(run.fault_counters[2].migrated_batches, 0);
    // Fault-annotated timeline entries name the origin device.
    let annotated = run
        .timelines
        .iter()
        .flatten()
        .filter(|e| e.label.contains("[migrated from d2]"))
        .count() as u64;
    assert_eq!(annotated, migrated, "annotations must match the counters");
    // The roll-up carries the counters into the report.
    let report = run.report(&platform, &metrics);
    assert_eq!(
        report
            .devices
            .iter()
            .map(|d| d.migrated_batches)
            .sum::<u64>(),
        migrated
    );
    assert_eq!(report.devices[2].faults, 1);
}

/// Transient faults with a retry budget never change output, and the
/// retries are visible in the accounting.
#[test]
fn transient_faults_retry_without_changing_output() {
    let (mapper, reads) = setup();
    let platform = quad_platform();
    for schedule in schedules(&platform, reads.len()) {
        let (baseline, baseline_metrics) = executor(&schedule, 1)
            .run(&mapper, &platform, &reads)
            .unwrap();
        let plan = FaultPlan::parse("transient:d0@0,transient:d1@0x2,transient:d3@0").unwrap();
        let (run, metrics) = Executor {
            faults: plan.clone(),
            max_retries: 3,
            ..executor(&schedule, 1)
        }
        .run(&mapper, &platform, &reads)
        .unwrap();
        assert_same_outputs(
            &run.outputs,
            &baseline.outputs,
            &metrics,
            &baseline_metrics,
            "transient retry",
        );
        let retries: u64 = run.fault_counters.iter().map(|c| c.retries).sum();
        let faults: u64 = run.fault_counters.iter().map(|c| c.faults).sum();
        assert_eq!(faults, 4, "all four armed transients strike");
        assert_eq!(retries, 4, "each strike costs one retry");
        let migrated: u64 = run.fault_counters.iter().map(|c| c.migrated_batches).sum();
        assert_eq!(migrated, 0, "a storm inside the budget migrates nothing");
        assert!(
            run.timelines
                .iter()
                .flatten()
                .any(|e| e.label.contains("[retry x")),
            "retried launches must be annotated"
        );
        // Backoff makes the faulted run at least as slow as fault-free.
        // (Only provable for the static schedule: the dynamic
        // earliest-free rule may route around a delayed device and land
        // on a different — occasionally shorter — assignment.)
        if matches!(schedule, Schedule::Static(_)) {
            assert!(run.simulated_seconds >= baseline.simulated_seconds - 1e-12);
        }
    }
}

/// Graceful degradation: killing the top k of the four devices at t = 0
/// (device 0 always survives) leaves hits and metrics unchanged, and the
/// makespan never shrinks as k grows — under both schedules.
#[test]
fn killing_more_devices_never_shortens_the_makespan() {
    let (mapper, reads) = setup();
    let platform = quad_platform();
    for schedule in schedules(&platform, reads.len()) {
        let (baseline, baseline_metrics) = executor(&schedule, 1)
            .run(&mapper, &platform, &reads)
            .unwrap();
        let mut curve = Vec::new();
        for k in 0..4 {
            let plan = (4 - k..4).fold(FaultPlan::new(), |plan, d| plan.loss(d, 0.0));
            let (run, metrics) = Executor {
                faults: plan,
                max_retries: 2,
                ..executor(&schedule, 1)
            }
            .run(&mapper, &platform, &reads)
            .expect("device 0 survives");
            let context = format!("{k} dead, {schedule:?}");
            assert_same_outputs(
                &run.outputs,
                &baseline.outputs,
                &metrics,
                &baseline_metrics,
                &context,
            );
            assert_eq!(run.lost_devices.len(), k, "{context}");
            curve.push(run.simulated_seconds);
        }
        assert!(
            curve.windows(2).all(|w| w[0] <= w[1]) && curve[0] < curve[3],
            "{schedule:?}: makespan by dead devices {curve:?}"
        );
    }
}

/// `max_retries = 0`: the first transient escalates the device to a
/// permanent loss — but failover still completes the mapping.
#[test]
fn zero_retry_budget_escalates_to_failover() {
    let (mapper, reads) = setup();
    let platform = quad_platform();
    let schedule = Schedule::Static(platform.even_shares(reads.len()));
    let (baseline, baseline_metrics) = executor(&schedule, 1)
        .run(&mapper, &platform, &reads)
        .unwrap();
    let plan = FaultPlan::new().transient(1, 0.0);
    let (run, metrics) = Executor {
        faults: plan.clone(),
        max_retries: 0,
        ..executor(&schedule, 1)
    }
    .run(&mapper, &platform, &reads)
    .unwrap();
    assert_same_outputs(
        &run.outputs,
        &baseline.outputs,
        &metrics,
        &baseline_metrics,
        "escalation",
    );
    assert_eq!(run.fault_counters[1].retries, 0);
    // The transient strike plus the escalated loss.
    assert_eq!(run.fault_counters[1].faults, 2);
    assert!(
        run.fault_counters
            .iter()
            .map(|c| c.migrated_batches)
            .sum::<u64>()
            > 0
    );
}

/// All devices dead: a typed error naming the unmapped read range, not a
/// panic.
#[test]
fn all_devices_lost_returns_typed_partial_failure() {
    let (mapper, reads) = setup();
    let platform = quad_platform();
    let plan = FaultPlan::new()
        .loss(0, 0.0)
        .loss(1, 0.0)
        .loss(2, 0.0)
        .loss(3, 0.0);
    for schedule in schedules(&platform, reads.len()) {
        let err = Executor {
            faults: plan.clone(),
            max_retries: 2,
            ..executor(&schedule, 1)
        }
        .run(&mapper, &platform, &reads)
        .expect_err("no device survives");
        let range = err
            .unmapped_range()
            .unwrap_or_else(|| panic!("expected AllDevicesLost, got {:?}", err.kind()));
        assert_eq!(range, 0..reads.len(), "everything is unmapped");
        assert!(err.to_string().contains("all devices lost"), "{err}");
    }
}

/// A loss arming mid-run leaves only the later reads unmapped when it is
/// the sole device.
#[test]
fn sole_device_loss_names_the_tail_range() {
    let (mapper, reads) = setup();
    let solo = Platform::new("solo", 1.0, vec![profiles::intel_i7_2600()]);
    let schedule = Schedule::Dynamic { batch: 4 };
    let (baseline, _) = executor(&schedule, 1).run(&mapper, &solo, &reads).unwrap();
    let plan = FaultPlan::new().loss(0, baseline.simulated_seconds / 2.0);
    let err = Executor {
        faults: plan.clone(),
        max_retries: 2,
        ..executor(&schedule, 1)
    }
    .run(&mapper, &solo, &reads)
    .expect_err("the only device dies");
    let range = err.unmapped_range().expect("typed partial failure");
    assert!(range.start > 0, "early batches completed before the loss");
    assert_eq!(range.end, reads.len());
}

/// A plan that never fires is no plan: the empty plan, and plans whose
/// one event arms long after the run has ended, report exactly what the
/// default executor does — under both schedules, traced, on the whole
/// platform and on a two-device subset, down to the telemetry bytes.
#[test]
fn empty_plan_is_identity() {
    let (mapper, reads) = setup();
    let platform = quad_platform();
    let report_bytes = |run: &repute_core::MappingRun, metrics: &[MapMetrics]| {
        let mut report = run.report(&platform, metrics);
        report.wall_seconds = 0.0;
        let mut bytes = Vec::new();
        report.write_json_lines(&mut bytes).expect("in-memory");
        bytes
    };
    for devices in [platform.clone(), platform.subset(&[0, 1])] {
        for schedule in schedules(&devices, reads.len()) {
            let plain = Executor {
                tracing: true,
                ..executor(&schedule, 1)
            };
            let (a, am) = plain.run(&mapper, &devices, &reads).unwrap();
            assert!(a.fault_counters.iter().all(|c| c.is_zero()));
            for plan in [
                FaultPlan::new(),
                FaultPlan::new().degrade(0, 1e6, 0.5),
                FaultPlan::new().loss(1, 1e6),
                FaultPlan::new().transient(0, 1e6),
            ] {
                let context = format!("{} devices {schedule:?} {plan:?}", devices.devices().len());
                let armed = Executor {
                    faults: plan,
                    max_retries: 2,
                    ..plain.clone()
                };
                let (b, bm) = armed.run(&mapper, &devices, &reads).unwrap();
                assert_same_outputs(&b.outputs, &a.outputs, &bm, &am, &context);
                assert_eq!(b.simulated_seconds, a.simulated_seconds, "{context}");
                assert_eq!(b.device_runs, a.device_runs, "{context}");
                assert_eq!(b.timelines, a.timelines, "{context}");
                assert_eq!(b.fault_counters, a.fault_counters, "{context}");
                assert_eq!(b.lost_devices, a.lost_devices, "{context}");
                assert_eq!(b.energy, a.energy, "{context}");
                assert_eq!(b.trace, a.trace, "{context}");
                assert_eq!(report_bytes(&b, &bm), report_bytes(&a, &am), "{context}");
            }
        }
    }
}

/// Degradation slows a device without changing output, and shifts load
/// away from it under the dynamic schedule.
#[test]
fn degradation_changes_time_not_output() {
    let (mapper, reads) = setup();
    let platform = quad_platform();
    let schedule = Schedule::Dynamic { batch: 3 };
    let (baseline, baseline_metrics) = executor(&schedule, 1)
        .run(&mapper, &platform, &reads)
        .unwrap();
    let plan = FaultPlan::new().degrade(0, 0.0, 0.25);
    let (run, metrics) = Executor {
        faults: plan.clone(),
        max_retries: 2,
        ..executor(&schedule, 1)
    }
    .run(&mapper, &platform, &reads)
    .unwrap();
    assert_same_outputs(
        &run.outputs,
        &baseline.outputs,
        &metrics,
        &baseline_metrics,
        "degrade",
    );
    // Degradation is silent in the fault counters (it is not a failure).
    assert!(run.fault_counters.iter().all(|c| c.is_zero()));
    // The degraded device processed fewer reads than its healthy peers'
    // average: the earliest-free rule routed work around it.
    let degraded_items = run.device_runs[0].items;
    let peer_avg = (reads.len() - degraded_items) / 3;
    assert!(
        degraded_items < peer_avg,
        "degraded device got {degraded_items}, peers averaged {peer_avg}"
    );
}

/// A plan naming a device the platform lacks is rejected up front.
#[test]
fn plan_with_unknown_device_is_rejected() {
    let (mapper, reads) = setup();
    let platform = quad_platform();
    let plan = FaultPlan::new().loss(9, 0.0);
    let err = Executor {
        faults: plan.clone(),
        max_retries: 2,
        ..executor(&Schedule::Dynamic { batch: 0 }, 1)
    }
    .run(&mapper, &platform, &reads)
    .expect_err("device 9 does not exist");
    assert_eq!(err.kind(), &LaunchErrorKind::InvalidDistribution);
    assert!(err.to_string().contains("device 9"), "{err}");
}

/// The failover replay is deterministic: identical plans and schedules
/// produce bit-identical simulated schedules for any host thread count.
#[test]
fn faulted_replay_is_deterministic_across_host_threads() {
    let (mapper, reads) = setup();
    let platform = quad_platform();
    for schedule in schedules(&platform, reads.len()) {
        let plan = FaultPlan::random(7, 4, 0.5);
        assert!(!plan.events().is_empty(), "seed 7 must produce a plan");
        let (a, _) = Executor {
            faults: plan.clone(),
            max_retries: 2,
            ..executor(&schedule, 1)
        }
        .run(&mapper, &platform, &reads)
        .unwrap();
        for host_threads in [4usize, AUTO_HOST_THREADS] {
            let (b, _) = Executor {
                faults: plan.clone(),
                max_retries: 2,
                ..executor(&schedule, host_threads)
            }
            .run(&mapper, &platform, &reads)
            .unwrap();
            assert_eq!(a.simulated_seconds, b.simulated_seconds);
            assert_eq!(a.timelines, b.timelines);
            assert_eq!(a.fault_counters, b.fault_counters);
        }
    }
}
