//! Serve fault-tolerance ablation: the degradation curve under device
//! loss, concurrent-batch speedup over the serialized PR 9 execution
//! path, deadline shedding, and the all-devices-lost drain — plus the
//! `BENCH_pr10.json` baseline and its CI regression gate.
//!
//! The smoke section (always runs, nonzero exit on any failure):
//!
//! 1. Concurrency ablation: the pinned 10-job workload under
//!    `--serial-batches` (the PR 9 one-batch-at-a-time path) versus the
//!    default concurrent mode. Per-job SAM must be byte-identical —
//!    batch concurrency is a timing optimisation, never a mapping
//!    change — and the concurrent run must finish in strictly fewer
//!    simulated seconds.
//! 2. Degradation curve: the same workload with `k = 0, 1, 2` devices
//!    lost mid-run via a correlated fault (sparing device 0, the CPU).
//!    Every job must still complete with SAM bytes identical to the
//!    fault-free run — only latency may move — and the deadline job's
//!    SLO hit-rate is recorded per `k`.
//! 3. Deadline shedding: with `--shed-overdue`, a job whose deadline
//!    expires while queued behind an earlier-deadline batch is shed
//!    with a typed `DEADLINE_EXCEEDED` instead of mapped late.
//! 4. All-devices-lost: a correlated loss of the whole fleet answers
//!    still-queued work with a typed `SERVICE_UNAVAILABLE` — no panic,
//!    no silent drop.
//!
//! Baseline modes (mirroring the other trajectory gates):
//!
//! * `--write <path>` — write `BENCH_pr10.json`: serial, concurrent,
//!   and degraded simulated seconds (gated), plus the concurrency
//!   speedup and per-`k` deadline hit-rates (informational).
//! * `--check <path>` — re-run the smoke suite, schema-validate the
//!   committed document, and fail (exit 1) when any gated metric
//!   exceeds its committed value by more than 20%.

use std::collections::HashMap;

use repute_bench::gate::Value::{Gated, Informational, Integer};
use repute_bench::gate::{fail, or_fail, Gate};
use repute_bench::scenario::{
    self, sam_by_id, tenant_jobs, ServeReference, SERVE_REF_LEN as REF_LEN, TENANTS,
};
use repute_genome::DnaSeq;
use repute_hetsim::FaultPlan;
use repute_serve::{JobEnvelope, JobResponse, JobStatus, ServeHarness, ServeOptions};

const GATE: Gate = Gate {
    binary: "serve_faults",
    schema: "repute-bench-serve-faults",
    version: 1,
    noun: "fault",
    smoke: Some("fault-tolerance"),
};

const READS_PER_JOB: usize = 1;
const JOBS_PER_TENANT: usize = 6;
/// `system1` ships one CPU and two GPUs.
const DEVICES: usize = 3;
/// Strikes mid-workload: the pinned workload spans ~1.8e-3 simulated
/// seconds, so a 1e-4 fault lands after the first batches launch.
const LOSS_AT_S: f64 = 1.0e-4;

fn options() -> ServeOptions {
    ServeOptions {
        tenant_weights: vec![("acme".to_string(), 2.0)],
        ..ServeOptions::default()
    }
}

/// A serving-shaped workload: 3 tenants × 6 single-read jobs cycling
/// δ ∈ {3..8} — many distinct configuration groups of batches far too
/// small to fill the fleet, which is exactly where overlapping
/// independent batches on disjoint device subsets beats serializing
/// full-fleet batches.
fn plain_jobs(reference: &DnaSeq) -> Vec<JobEnvelope> {
    tenant_jobs(
        reference,
        JOBS_PER_TENANT,
        READS_PER_JOB,
        |job, read| 1_000 + (job * 3_000 + read * 700) % 50_000,
        |job| [3u32, 4, 5, 6, 7, 8][job % 6],
    )
}

/// The plain workload plus a last-submitted `lab` deadline job — the
/// SLO probe of the degradation curve. Kept out of the concurrency
/// ablation: an EDF dispatch charges fair service, so a deadline job
/// perturbs the whole interleave and the two modes would no longer
/// compare the same batch structure.
fn deadline_jobs(reference: &DnaSeq) -> Vec<JobEnvelope> {
    let mut jobs = plain_jobs(reference);
    jobs.push(
        JobEnvelope::new(
            "lab-urgent",
            vec![("urgent-r".to_string(), reference.subseq(48_000..48_100))],
        )
        .with_tenant("lab")
        .with_delta(4)
        .with_deadline(0.001)
        .with_priority(7),
    );
    jobs
}

/// Submits every job; none may be refused.
fn submit_accepted(harness: &mut ServeHarness, jobs: &[JobEnvelope]) {
    if let Some(refusal) = scenario::submit_all(harness, jobs).0.first() {
        fail(&format!("unexpected refusal: {refusal:?}"));
    }
}

/// Runs `jobs` to completion under `opts`; returns the drained harness
/// and its responses.
fn run_workload(
    reference: &ServeReference,
    jobs: &[JobEnvelope],
    opts: ServeOptions,
) -> (ServeHarness, Vec<JobResponse>) {
    let mut harness = scenario::harness(reference.set(), opts, "harness construction");
    submit_accepted(&mut harness, jobs);
    let responses = or_fail(harness.drain(), "drain");
    (harness, responses)
}

/// Correlated loss of the top `k` devices at `LOSS_AT_S`, always
/// sparing device 0 so the service degrades instead of dying.
fn loss_plan(k: usize) -> FaultPlan {
    let doomed: Vec<usize> = (DEVICES - k..DEVICES).collect();
    if doomed.is_empty() {
        FaultPlan::new()
    } else {
        FaultPlan::new().correlated(&doomed, LOSS_AT_S)
    }
}

struct SmokeResult {
    serial_seconds: f64,
    concurrent_seconds: f64,
    /// Simulated seconds with k = 0, 1, 2 devices lost (concurrent).
    degraded_seconds: [f64; DEVICES],
    /// Deadline hit-rate of tenant `lab` with k devices lost.
    hit_rates: [f64; DEVICES],
}

fn lab_hit_rate(harness: &ServeHarness) -> f64 {
    harness
        .core()
        .slo_reports()
        .iter()
        .find(|r| r.tenant == "lab")
        .map(|r| r.hit_rate())
        .unwrap_or_else(|| fail("no SLO report for tenant lab"))
}

fn run_smoke() -> SmokeResult {
    // --- 1. Concurrency ablation: serialized PR 9 path vs concurrent.
    let served = ServeReference::new("chrH", 9901);
    let reference = &served.seq;
    let plain = plain_jobs(reference);
    let serial_opts = ServeOptions {
        concurrent_batches: false,
        ..options()
    };
    let (serial, serial_responses) = run_workload(&served, &plain, serial_opts);
    let serial_seconds = serial.core().simulated_seconds();
    let (concurrent, concurrent_responses) = run_workload(&served, &plain, options());
    let concurrent_seconds = concurrent.core().simulated_seconds();
    let serial_sam = sam_by_id(&serial_responses);
    let concurrent_sam = sam_by_id(&concurrent_responses);
    if serial_sam != concurrent_sam {
        fail("concurrent batches changed SAM output — concurrency must be timing-only");
    }
    if concurrent_seconds >= serial_seconds {
        fail(&format!(
            "concurrent batches are not faster: {concurrent_seconds:.9} s \
             concurrent vs {serial_seconds:.9} s serialized"
        ));
    }
    println!(
        "  concurrency OK: {serial_seconds:.6} s serialized → {concurrent_seconds:.6} s \
         concurrent ({:.2}x) over {} jobs",
        serial_seconds / concurrent_seconds,
        serial_sam.len()
    );

    // --- 2. Degradation curve: k = 0, 1, 2 devices lost mid-run, on
    // the workload carrying the deadline job (k = 0 is the fault-free
    // SAM baseline the degraded fleets must reproduce byte-for-byte).
    let with_deadline = deadline_jobs(reference);
    let mut degraded_seconds = [0.0; DEVICES];
    let mut hit_rates = [0.0; DEVICES];
    let mut baseline_sam: Option<HashMap<String, String>> = None;
    for k in 0..DEVICES {
        let opts = ServeOptions {
            fault_plan: loss_plan(k),
            ..options()
        };
        let (harness, responses) = run_workload(&served, &with_deadline, opts);
        for r in &responses {
            if r.status != JobStatus::Ok {
                fail(&format!(
                    "k={k}: job {:?} did not complete under degradation: {:?}",
                    r.id, r.status
                ));
            }
        }
        let sam = sam_by_id(&responses);
        match &baseline_sam {
            None => baseline_sam = Some(sam),
            Some(baseline) => {
                if &sam != baseline {
                    fail(&format!(
                        "k={k}: SAM under device loss differs from the fault-free run"
                    ));
                }
            }
        }
        let health = harness.core().health();
        if health.lost_count() != k || harness.core().is_unavailable() {
            fail(&format!(
                "k={k}: expected exactly {k} lost device(s) and a live service, \
                 got {} lost, unavailable={}",
                health.lost_count(),
                harness.core().is_unavailable()
            ));
        }
        degraded_seconds[k] = harness.core().simulated_seconds();
        hit_rates[k] = lab_hit_rate(&harness);
        println!(
            "  degradation k={k}: {:.6} s simulated | lab deadline hit-rate {:.2} | \
             {} survivor(s)",
            degraded_seconds[k],
            hit_rates[k],
            health.live_count()
        );
    }
    if hit_rates[0] < 1.0 {
        fail("the deadline job must meet its SLO on a healthy fleet");
    }

    // --- 3. Deadline shedding: overdue queued work is refused typed. --
    let shed_opts = ServeOptions {
        shed_overdue: true,
        concurrent_batches: false,
        ..options()
    };
    let urgent_reads: Vec<(String, DnaSeq)> =
        vec![("shed-u-r".to_string(), reference.subseq(5_000..5_100))];
    let late_reads: Vec<(String, DnaSeq)> =
        vec![("shed-l-r".to_string(), reference.subseq(9_000..9_100))];
    let shed_jobs = [
        JobEnvelope::new("shed-urgent", urgent_reads)
            .with_tenant("acme")
            .with_deadline(1.0e-12),
        JobEnvelope::new("shed-late", late_reads)
            .with_tenant("lab")
            .with_delta(3)
            .with_deadline(1.0e-9),
    ];
    let (shedding, responses) = run_workload(&served, &shed_jobs, shed_opts);
    let late = responses
        .iter()
        .find(|r| r.id == "shed-late")
        .unwrap_or_else(|| fail("no response for the overdue job"));
    if late.status != JobStatus::DeadlineExceeded || shedding.counters().shed != 1 {
        fail(&format!(
            "expected one typed DEADLINE_EXCEEDED shed, got {:?} (shed counter {})",
            late.status,
            shedding.counters().shed
        ));
    }
    println!(
        "  shedding OK: {:?} shed — {}",
        late.id,
        late.reason.as_deref().unwrap_or("?")
    );

    // --- 4. All devices lost: typed SERVICE_UNAVAILABLE, no panic. ----
    let doomed_opts = ServeOptions {
        fault_plan: FaultPlan::new().correlated(&[0, 1, 2], 1.0e-9),
        ..options()
    };
    // Four distinct configuration groups: the first round launches at
    // most three (one per live device), so at least one job is still
    // queued when the whole fleet dies.
    let doomed_jobs: Vec<JobEnvelope> = [5u32, 3, 4, 6]
        .iter()
        .enumerate()
        .map(|(i, delta)| {
            let start = 12_000 + i * 3_000;
            JobEnvelope::new(
                format!("doomed-{i}"),
                vec![(
                    format!("doomed-{i}-r"),
                    reference.subseq(start..start + 100),
                )],
            )
            .with_tenant("acme")
            .with_delta(*delta)
        })
        .collect();
    let (doomed, responses) = run_workload(&served, &doomed_jobs, doomed_opts);
    let unavailable = responses
        .iter()
        .filter(|r| r.status == JobStatus::ServiceUnavailable)
        .count();
    if unavailable == 0 || !doomed.core().is_unavailable() {
        fail("losing every device must answer queued work SERVICE_UNAVAILABLE");
    }
    println!(
        "  all-lost OK: {} completed before the loss, {unavailable} answered \
         SERVICE_UNAVAILABLE, daemon drained",
        responses.len() - unavailable
    );

    SmokeResult {
        serial_seconds,
        concurrent_seconds,
        degraded_seconds,
        hit_rates,
    }
}

fn main() {
    let mode = GATE.mode();
    println!("Serve fault-tolerance ablation — degradation curve, concurrency, shedding, drain");
    println!(
        "pinned scale: {REF_LEN} bp reference, {} tenants × {JOBS_PER_TENANT} jobs × \
         {READS_PER_JOB} reads (+1 deadline job), {DEVICES} simulated devices",
        TENANTS.len()
    );
    let r = run_smoke();
    println!("smoke OK");

    // Gated: deterministic simulated time on the serialized PR 9 path,
    // the concurrent path, and the degraded fleets. Informational: the
    // fault-free point of the degradation curve (CPU-only can beat the
    // full fleet here — small batches waste the lone-GPU subsets
    // concurrent rounds hand out), the speedup, and the deadline
    // hit-rate curve.
    let speedup = r.serial_seconds / r.concurrent_seconds;
    let fields = [
        (
            "jobs",
            Integer((TENANTS.len() * JOBS_PER_TENANT + 1) as u64),
        ),
        ("devices", Integer(DEVICES as u64)),
        ("simulated_seconds_serial", Gated(r.serial_seconds)),
        ("simulated_seconds_concurrent", Gated(r.concurrent_seconds)),
        ("degraded_seconds_1lost", Gated(r.degraded_seconds[1])),
        ("degraded_seconds_2lost", Gated(r.degraded_seconds[2])),
        (
            "degraded_seconds_0lost",
            Informational(r.degraded_seconds[0]),
        ),
        ("concurrency_speedup", Informational(speedup)),
        ("deadline_hit_rate_0lost", Informational(r.hit_rates[0])),
        ("deadline_hit_rate_1lost", Informational(r.hit_rates[1])),
        ("deadline_hit_rate_2lost", Informational(r.hit_rates[2])),
    ];
    GATE.finish(mode, &fields, "fault-tolerance");
}
