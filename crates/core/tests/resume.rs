//! Checkpoint/resume: the crash-safe executor's contract.
//!
//! `Executor::run_journaled` must produce outputs, per-read metrics,
//! timelines and simulated time **bit-identical** to `Executor::run` — on a fresh run,
//! and after any number of simulated host crashes — while corrupted or
//! mismatched journals surface as typed [`ReputeError`] variants, never
//! panics. The process-kill variant (real `SIGKILL` against the CLI)
//! lives in `bench --bin resume`.

use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use repute_core::journal::{self, RunFingerprint};
use repute_core::{Executor, ReputeConfig, ReputeError, ReputeMapper, Schedule, AUTO_HOST_THREADS};
use repute_genome::reads::ReadSimulator;
use repute_genome::synth::ReferenceBuilder;
use repute_genome::DnaSeq;
use repute_hetsim::{profiles, FaultPlan, Platform};
use repute_mappers::engine_costs::{DP_CELL_COST, EXTEND_COST, LOCATE_COST};

fn setup() -> (ReputeMapper, Vec<DnaSeq>) {
    let reference = ReferenceBuilder::new(40_000).seed(501).build();
    let reads: Vec<DnaSeq> = ReadSimulator::new(100, 30)
        .seed(502)
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
        Schedule::Dynamic { batch: 4 },
    ]
}

/// A unique journal path under the system temp dir; any previous file
/// and manifest are removed so every test starts fresh.
fn journal_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "repute-resume-test-{}-{tag}.journal",
        std::process::id()
    ));
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(journal::manifest_path(&path));
    path
}

fn cleanup(path: &PathBuf) {
    let _ = fs::remove_file(path);
    let _ = fs::remove_file(journal::manifest_path(path));
}

fn fp() -> RunFingerprint {
    RunFingerprint::new(0x1234, 0x5678)
}

/// A fresh journaled run is bit-identical to the plain run (wall clock
/// aside) on both schedules, and leaves a complete manifest behind.
#[test]
fn fresh_run_matches_the_plain_run() {
    let (mapper, reads) = setup();
    let platform = quad_platform();
    for (idx, schedule) in schedules(&platform, reads.len()).into_iter().enumerate() {
        let (baseline, baseline_metrics) = executor(&schedule, 1)
            .run(&mapper, &platform, &reads)
            .unwrap();
        let path = journal_path(&format!("fresh-{idx}"));
        let outcome = executor(&schedule, 1)
            .run_journaled(&mapper, &platform, &reads, &path, fp(), 1)
            .unwrap();
        assert_eq!(outcome.resumed_batches, 0);
        assert!(outcome.total_batches > 0);
        assert_eq!(outcome.run.outputs, baseline.outputs);
        assert_eq!(outcome.metrics, baseline_metrics);
        assert_eq!(outcome.run.timelines, baseline.timelines);
        assert_eq!(outcome.run.device_runs, baseline.device_runs);
        assert_eq!(outcome.run.simulated_seconds, baseline.simulated_seconds);
        let manifest = fs::read_to_string(journal::manifest_path(&path)).unwrap();
        assert!(manifest.contains("complete 1"), "{manifest}");
        cleanup(&path);
    }
}

/// Simulated host crashes at five seeded points per schedule: each crash
/// returns the typed `Interrupted` error with a durable prefix, and the
/// resumed run is bit-identical to the uninterrupted one.
#[test]
fn crash_then_resume_is_bit_identical() {
    let (mapper, reads) = setup();
    let platform = quad_platform();
    for (idx, schedule) in schedules(&platform, reads.len()).into_iter().enumerate() {
        let (baseline, baseline_metrics) = executor(&schedule, 1)
            .run(&mapper, &platform, &reads)
            .unwrap();
        let makespan = baseline.simulated_seconds;
        assert!(makespan > 0.0);
        for (k, frac) in [0.1, 0.3, 0.5, 0.7, 0.9].into_iter().enumerate() {
            let path = journal_path(&format!("crash-{idx}-{k}"));
            let crash_plan = FaultPlan::new().host_crash(makespan * frac);
            let err = Executor {
                faults: crash_plan.clone(),
                ..executor(&schedule, 1)
            }
            .run_journaled(&mapper, &platform, &reads, &path, fp(), 1)
            .expect_err("the crash must interrupt the run");
            let ReputeError::Interrupted {
                committed, total, ..
            } = &err
            else {
                panic!("expected Interrupted, got {err:?}");
            };
            assert!(*committed < *total, "crash must leave work undone");
            assert_eq!(err.exit_code(), 8);

            // Resume without the crash event: completes bit-identically.
            let outcome = executor(&schedule, AUTO_HOST_THREADS)
                .run_journaled(&mapper, &platform, &reads, &path, fp(), 1)
                .unwrap();
            assert_eq!(outcome.resumed_batches, *committed);
            assert_eq!(outcome.total_batches, *total);
            assert_eq!(outcome.run.outputs, baseline.outputs, "frac {frac}");
            assert_eq!(outcome.metrics, baseline_metrics, "frac {frac}");
            assert_eq!(outcome.run.timelines, baseline.timelines, "frac {frac}");
            assert_eq!(outcome.run.device_runs, baseline.device_runs);
            assert_eq!(outcome.run.simulated_seconds, baseline.simulated_seconds);
            cleanup(&path);
        }
    }
}

/// Repeated crashes at increasing times make monotone progress and still
/// land on the bit-identical result.
#[test]
fn repeated_crashes_make_monotone_progress() {
    let (mapper, reads) = setup();
    let platform = quad_platform();
    let schedule = Schedule::Dynamic { batch: 4 };
    let (baseline, _) = executor(&schedule, 1)
        .run(&mapper, &platform, &reads)
        .unwrap();
    let path = journal_path("repeated");
    let mut last_committed = 0usize;
    for frac in [0.2, 0.5, 0.8] {
        let plan = FaultPlan::new().host_crash(baseline.simulated_seconds * frac);
        let err = Executor {
            faults: plan.clone(),
            ..executor(&schedule, 1)
        }
        .run_journaled(&mapper, &platform, &reads, &path, fp(), 1)
        .expect_err("crash");
        let ReputeError::Interrupted { committed, .. } = err else {
            panic!("expected Interrupted");
        };
        assert!(
            committed >= last_committed,
            "progress went backwards: {committed} < {last_committed}"
        );
        last_committed = committed;
    }
    assert!(last_committed > 0, "late crashes must have journaled work");
    let outcome = executor(&schedule, 1)
        .run_journaled(&mapper, &platform, &reads, &path, fp(), 1)
        .unwrap();
    assert_eq!(outcome.resumed_batches, last_committed);
    assert_eq!(outcome.run.outputs, baseline.outputs);
    cleanup(&path);
}

/// The work identity (`metrics.work_units == output.work` per read)
/// survives resume: journaled batches replay the same counters they
/// would have computed.
#[test]
fn work_identity_holds_on_resumed_runs() {
    let (mapper, reads) = setup();
    let platform = quad_platform();
    let schedule = Schedule::Dynamic { batch: 4 };
    let (baseline, _) = executor(&schedule, 1)
        .run(&mapper, &platform, &reads)
        .unwrap();
    let path = journal_path("identity");
    let plan = FaultPlan::new().host_crash(baseline.simulated_seconds * 0.5);
    let _ = Executor {
        faults: plan.clone(),
        ..executor(&schedule, 1)
    }
    .run_journaled(&mapper, &platform, &reads, &path, fp(), 1)
    .expect_err("crash");
    let outcome = executor(&schedule, 1)
        .run_journaled(&mapper, &platform, &reads, &path, fp(), 1)
        .unwrap();
    assert!(outcome.resumed_batches > 0, "something must replay");
    for (i, (out, m)) in outcome.run.outputs.iter().zip(&outcome.metrics).enumerate() {
        assert_eq!(
            m.work_units(EXTEND_COST, DP_CELL_COST, LOCATE_COST),
            out.work,
            "work identity broke at read {i} of a resumed run"
        );
    }
    cleanup(&path);
}

/// A journal from a different run (config or workload fingerprint) is
/// refused with the typed mismatch error.
#[test]
fn mismatched_fingerprint_is_refused() {
    let (mapper, reads) = setup();
    let platform = quad_platform();
    let schedule = Schedule::Dynamic { batch: 4 };
    let path = journal_path("mismatch");
    executor(&schedule, 1)
        .run_journaled(&mapper, &platform, &reads, &path, fp(), 1)
        .unwrap();
    for other in [
        RunFingerprint::new(0x9999, 0x5678), // different config
        RunFingerprint::new(0x1234, 0x9999), // different workload
    ] {
        let err = executor(&schedule, 1)
            .run_journaled(&mapper, &platform, &reads, &path, other, 1)
            .expect_err("the journal belongs to a different run");
        assert!(
            matches!(err, ReputeError::ResumeMismatch(_)),
            "expected ResumeMismatch, got {err:?}"
        );
        assert_eq!(err.exit_code(), 6);
    }
    // A schedule change shifts the shape hash — also a mismatch.
    let err = executor(&Schedule::Dynamic { batch: 7 }, 1)
        .run_journaled(&mapper, &platform, &reads, &path, fp(), 1)
        .expect_err("different batch decomposition");
    assert!(matches!(err, ReputeError::ResumeMismatch(_)), "{err:?}");
    cleanup(&path);
}

/// A bit flip below the manifest's durable watermark is detected as
/// journal corruption (typed, not a panic, and never silently resumed).
#[test]
fn corruption_below_watermark_is_refused() {
    let (mapper, reads) = setup();
    let platform = quad_platform();
    let schedule = Schedule::Dynamic { batch: 4 };
    let path = journal_path("corrupt");
    executor(&schedule, 1)
        .run_journaled(&mapper, &platform, &reads, &path, fp(), 1)
        .unwrap();
    let mut bytes = fs::read(&path).unwrap();
    let flip_at = journal::JOURNAL_HEADER_LEN + 10;
    bytes[flip_at] ^= 0x40;
    fs::write(&path, &bytes).unwrap();
    let err = executor(&schedule, 1)
        .run_journaled(&mapper, &platform, &reads, &path, fp(), 1)
        .expect_err("a durable record was corrupted");
    assert!(
        matches!(err, ReputeError::JournalCorrupt(_)),
        "expected JournalCorrupt, got {err:?}"
    );
    assert_eq!(err.exit_code(), 5);
    cleanup(&path);
}

/// A torn tail record — bytes past the manifest watermark — is truncated
/// and the run resumes to the bit-identical result.
#[test]
fn torn_tail_is_truncated_and_resume_completes() {
    let (mapper, reads) = setup();
    let platform = quad_platform();
    let schedule = Schedule::Dynamic { batch: 4 };
    let (baseline, baseline_metrics) = executor(&schedule, 1)
        .run(&mapper, &platform, &reads)
        .unwrap();
    let path = journal_path("torn");
    let plan = FaultPlan::new().host_crash(baseline.simulated_seconds * 0.5);
    let _ = Executor {
        faults: plan.clone(),
        ..executor(&schedule, 1)
    }
    .run_journaled(&mapper, &platform, &reads, &path, fp(), 1)
    .expect_err("crash");
    // Simulate dying mid-append: garbage half-frame at the tail.
    let mut f = OpenOptions::new().append(true).open(&path).unwrap();
    f.write_all(&[0x55; 23]).unwrap();
    drop(f);
    let outcome = executor(&schedule, 1)
        .run_journaled(&mapper, &platform, &reads, &path, fp(), 1)
        .unwrap();
    assert_eq!(outcome.run.outputs, baseline.outputs);
    assert_eq!(outcome.metrics, baseline_metrics);
    cleanup(&path);
}

/// Device fault events are rejected up front: a checkpointed run only
/// accepts the host-crash event.
#[test]
fn device_faults_are_rejected_in_checkpointed_runs() {
    let (mapper, reads) = setup();
    let platform = quad_platform();
    let path = journal_path("devfault");
    let plan = FaultPlan::new().loss(1, 0.5);
    let err = Executor {
        faults: plan.clone(),
        ..executor(&Schedule::Dynamic { batch: 4 }, 1)
    }
    .run_journaled(&mapper, &platform, &reads, &path, fp(), 1)
    .expect_err("device faults are not resumable");
    assert!(matches!(err, ReputeError::Config(_)), "{err:?}");
    assert_eq!(err.exit_code(), 2);
    assert!(!path.exists(), "rejected runs must not create a journal");
    cleanup(&path);
}

/// Resuming a *completed* journal recomputes nothing and returns the
/// identical result (idempotent completion).
#[test]
fn completed_journal_resume_is_idempotent() {
    let (mapper, reads) = setup();
    let platform = quad_platform();
    let schedule = Schedule::Dynamic { batch: 4 };
    let path = journal_path("idempotent");
    let first = executor(&schedule, 1)
        .run_journaled(&mapper, &platform, &reads, &path, fp(), 1)
        .unwrap();
    let second = executor(&schedule, 1)
        .run_journaled(&mapper, &platform, &reads, &path, fp(), 1)
        .unwrap();
    assert_eq!(second.resumed_batches, second.total_batches);
    assert_eq!(second.run.outputs, first.run.outputs);
    assert_eq!(second.metrics, first.metrics);
    assert_eq!(second.run.simulated_seconds, first.run.simulated_seconds);
    cleanup(&path);
}

/// An empty read set is a legal journaled run: no batches, a complete
/// manifest, and a zero-energy report.
#[test]
fn empty_read_set_completes_with_empty_journal() {
    let (mapper, _) = setup();
    let platform = quad_platform();
    let path = journal_path("empty");
    let outcome = executor(&Schedule::Dynamic { batch: 4 }, 1)
        .run_journaled(&mapper, &platform, &[], &path, fp(), 1)
        .unwrap();
    assert_eq!(outcome.total_batches, 0);
    assert!(outcome.run.outputs.is_empty());
    let manifest = fs::read_to_string(journal::manifest_path(&path)).unwrap();
    assert!(manifest.contains("complete 1"), "{manifest}");
    cleanup(&path);
}
