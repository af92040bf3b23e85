//! Fault-tolerant serving: device loss mid-serve keeps the response
//! union bit-identical to a fault-free run (mapping output is
//! device-independent; only timing moves), faulted runs are
//! deterministic across `--host-threads`, crash-resume during a fault
//! episode replays bit-identically, an all-devices-lost daemon drains
//! with typed `SERVICE_UNAVAILABLE` responses and exits, overdue queued
//! jobs are shed with `DEADLINE_EXCEEDED` when `--shed-overdue` is on,
//! and the device-health ladder / shrinking admission bounds hold under
//! seeded random event storms. Beside those, what the service's own
//! policies may and may not move: a concurrent round advances the clock
//! by its slowest group, not their sum, admission refusals are typed
//! and counted, and EDF reorders batches without touching a byte of
//! SAM — each scenario's `--metrics-out` bytes pinned.

#![cfg(unix)]

mod common;

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

use repute_core::journal::Fnv64;
use repute_genome::synth::ReferenceBuilder;
use repute_genome::DnaSeq;
use repute_hetsim::{profiles, DeviceHealth, FaultPlan, HealthState};
use repute_mappers::multiref::ReferenceSet;
use repute_obs::json::{parse_json, JsonValue};
use repute_obs::trace::device_pid;
use repute_prefilter::PrefilterMode;
use repute_serve::transport::{serve_socket, shutdown_over_socket, submit_over_socket};
use repute_serve::{
    AdmissionQueue, ConfigKey, JobEnvelope, JobJournal, JobResponse, JobSpec, JobStatus,
    MapperKind, ServeCore, ServeHarness, ServeLimits, ServeOptions,
};

fn reference_set() -> ReferenceSet {
    let reference = ReferenceBuilder::new(120_000).seed(8801).build();
    ReferenceSet::build(vec![("chrF".to_string(), reference)])
}

/// Six jobs from three tenants across two mapping configurations, so
/// concurrent rounds form several same-key groups.
fn jobs() -> Vec<JobEnvelope> {
    let reference = ReferenceBuilder::new(120_000).seed(8801).build();
    let read = |name: &str, start: usize| -> Vec<(String, DnaSeq)> {
        vec![(name.to_string(), reference.subseq(start..start + 100))]
    };
    vec![
        JobEnvelope::new("acme-1", read("ra1", 10_000)).with_tenant("acme"),
        JobEnvelope::new("acme-2", read("ra2", 20_000))
            .with_tenant("acme")
            .with_delta(3),
        JobEnvelope::new("lab-1", read("rl1", 30_000)).with_tenant("lab"),
        JobEnvelope::new("lab-2", read("rl2", 40_000))
            .with_tenant("lab")
            .with_delta(3),
        JobEnvelope::new("edge-1", read("re1", 50_000)).with_tenant("edge"),
        JobEnvelope::new("edge-2", read("re2", 60_000))
            .with_tenant("edge")
            .with_delta(3),
    ]
}

/// A fault plan that loses two of system1's three devices mid-serve
/// (device 0 survives, so the daemon must keep answering).
fn two_losses() -> FaultPlan {
    FaultPlan::new().loss(1, 1.0e-4).loss(2, 1.2e-4)
}

/// A fresh harness over `set` that accepts every one of `jobs` and
/// drains; returns it with its responses.
fn serve_all(
    set: &ReferenceSet,
    options: ServeOptions,
    jobs: &[JobEnvelope],
) -> (ServeHarness, Vec<JobResponse>) {
    let mut harness = ServeHarness::new(set.clone(), profiles::system1(), options).unwrap();
    for job in jobs {
        let refusal = harness.submit(job.clone()).expect("journal I/O");
        assert!(refusal.is_none(), "{} refused: {refusal:?}", job.id);
    }
    let responses = harness.drain().expect("drain");
    (harness, responses)
}

/// Per-job SAM bytes, by job id.
fn sam_by_id(responses: &[JobResponse]) -> HashMap<String, String> {
    responses
        .iter()
        .map(|r| {
            let sam = r.sam.clone().expect("completed jobs carry SAM");
            (r.id.clone(), sam)
        })
        .collect()
}

/// Per-job SAM bytes of the fault-free single-submitter run.
fn fault_free_sam() -> HashMap<String, String> {
    sam_by_id(&serve_all(&reference_set(), ServeOptions::default(), &jobs()).1)
}

/// Compares the FNV-64 of each harness's `--metrics-out` bytes (job
/// records, counters, queue high-water, simulated clock, job latency
/// percentiles, SLO rows) with `pinned`; a mismatch prints the computed
/// table in source form.
fn assert_telemetry_pinned(name: &str, computed: &[(&str, &ServeHarness)], pinned: &[(&str, u64)]) {
    let computed: Vec<(&str, u64)> = computed
        .iter()
        .map(|&(run, harness)| {
            let mut h = Fnv64::new();
            h.write(&harness.core().telemetry_bytes());
            (run, h.finish())
        })
        .collect();
    if computed != pinned {
        let mut table = format!("const {name}: &[(&str, u64)] = &[\n");
        for (run, digest) in &computed {
            table.push_str(&format!("    (\"{run}\", 0x{digest:016x}),\n"));
        }
        panic!("serve telemetry changed; computed table:\n{table}];");
    }
}

/// Three tenants × six single-read jobs cycling δ ∈ {3..8}: many
/// configuration groups, each far too small to fill the fleet — where
/// concurrent rounds on disjoint device subsets pay.
fn small_jobs() -> Vec<JobEnvelope> {
    let reference = ReferenceBuilder::new(120_000).seed(8801).build();
    let mut jobs = Vec::new();
    for (t, tenant) in ["acme", "lab", "edge"].into_iter().enumerate() {
        for j in 0..6 {
            let n = t * 6 + j;
            let start = 1_000 + n * 3_000;
            let read = vec![(
                format!("{tenant}-{j}-r"),
                reference.subseq(start..start + 100),
            )];
            jobs.push(
                JobEnvelope::new(format!("{tenant}-{j}"), read)
                    .with_tenant(tenant)
                    .with_delta(3 + (n % 6) as u32),
            );
        }
    }
    jobs
}

fn acme_weighted() -> ServeOptions {
    ServeOptions {
        tenant_weights: vec![("acme".to_string(), 2.0)],
        ..ServeOptions::default()
    }
}

const CONCURRENCY: &[(&str, u64)] = &[("concurrent", 0x239807fac76bb1c5)];

/// The groups of a round overlap in simulated time: the first round of
/// `small_jobs` holds several groups, all starting at zero, and moves
/// the clock by the largest latency among them, less than their sum.
#[test]
fn a_concurrent_round_advances_the_clock_by_its_slowest_group() {
    let mut concurrent =
        ServeHarness::new(reference_set(), profiles::system1(), acme_weighted()).unwrap();
    for job in small_jobs() {
        assert!(concurrent.submit(job).expect("journal I/O").is_none());
    }
    let round = concurrent.run_batch().expect("first round");
    let mut group_latency: BTreeMap<u64, f64> = BTreeMap::new();
    for response in &round {
        let batch = response.batch.expect("completed jobs name their batch");
        let latency = response.latency_s.expect("completed jobs carry a latency");
        group_latency.insert(batch, latency);
    }
    assert!(
        group_latency.len() >= 2,
        "the first round holds {} group(s)",
        group_latency.len()
    );
    let slowest = group_latency.values().copied().fold(0.0, f64::max);
    let sum: f64 = group_latency.values().sum();
    assert_eq!(concurrent.core().simulated_seconds(), slowest);
    assert!(slowest < sum, "slowest group {slowest} s, sum {sum} s");
    concurrent.drain().expect("drain");
    assert_telemetry_pinned("CONCURRENCY", &[("concurrent", &concurrent)], CONCURRENCY);
}

const DEGRADATION: &[(&str, u64)] = &[
    ("lost-0", 0xd96124f7eb0f8219),
    ("lost-1", 0x4d79714f6dd450c8),
    ("lost-2", 0x635fa9a8d94cda56),
];

/// The degradation curve: `small_jobs` plus a last-submitted deadline
/// job on a fleet that loses its top k devices at once mid-serve.
/// Every job completes with the SAM of the healthy fleet; the deadline
/// is met on the healthy fleet; only timing moves.
#[test]
fn losing_devices_mid_serve_moves_latency_not_sam() {
    let reference = ReferenceBuilder::new(120_000).seed(8801).build();
    let set = reference_set();
    let mut jobs = small_jobs();
    jobs.push(
        JobEnvelope::new(
            "lab-urgent",
            vec![("urgent-r".to_string(), reference.subseq(58_000..58_100))],
        )
        .with_tenant("lab")
        .with_delta(4)
        .with_deadline(0.001)
        .with_priority(7),
    );
    let mut runs = Vec::new();
    for k in 0..3 {
        let doomed: Vec<usize> = (3 - k..3).collect();
        let options = ServeOptions {
            fault_plan: FaultPlan::new().correlated(&doomed, 1.0e-4),
            ..acme_weighted()
        };
        let (harness, responses) = serve_all(&set, options, &jobs);
        assert!(
            responses.iter().all(|r| r.status == JobStatus::Ok),
            "k={k}: {responses:?}"
        );
        assert_eq!(harness.core().health().lost_count(), k);
        assert!(!harness.core().is_unavailable(), "k={k}");
        let sam = sam_by_id(&responses);
        if let Some((_, healthy)) = runs.first() {
            assert_eq!(&sam, healthy, "{k} device(s) lost changed the SAM");
        }
        runs.push((harness, sam));
    }
    let slo = runs[0].0.core().slo_reports();
    let lab = slo.iter().find(|r| r.tenant == "lab").expect("lab SLO row");
    assert_eq!((lab.met, lab.missed), (1, 0), "a healthy fleet meets it");
    let [lost0, lost1, lost2] = [0, 1, 2].map(|k| &runs[k].0);
    assert_telemetry_pinned(
        "DEGRADATION",
        &[("lost-0", lost0), ("lost-1", lost1), ("lost-2", lost2)],
        DEGRADATION,
    );
}

const ADMISSION: &[(&str, u64)] = &[("admission", 0x0f7b0af225cfaffc)];

/// Admission answers inline and typed: a job over the per-job read
/// limit is `REJECTED`, a tenant past its read quota is told
/// `QUOTA_EXCEEDED`, and every submission lands in exactly one counter.
/// Scheduling policy moves order, not bytes: the tight-deadline job
/// submitted last runs in the first batch (EDF before fair queuing),
/// and every job's SAM equals a default-options run's.
#[test]
fn admission_refuses_typed_and_scheduling_never_reaches_the_sam() {
    let reference = ReferenceBuilder::new(120_000).seed(8801).build();
    let set = reference_set();
    let reads = |name: &str, start: usize, n: usize| -> Vec<(String, DnaSeq)> {
        (0..n)
            .map(|i| {
                let at = start + 700 * i;
                (format!("{name}-r{i}"), reference.subseq(at..at + 100))
            })
            .collect()
    };
    let mut jobs = Vec::new();
    for (t, tenant) in ["acme", "lab", "edge"].into_iter().enumerate() {
        for j in 0..3 {
            let n = t * 3 + j;
            let id = format!("{tenant}-{j}");
            jobs.push(
                JobEnvelope::new(id.clone(), reads(&id, 1_000 + n * 5_000, 4))
                    .with_tenant(tenant)
                    .with_delta(if n % 2 == 0 { 3 } else { 5 }),
            );
        }
    }
    jobs.push(
        JobEnvelope::new("lab-urgent", reads("lab-urgent", 48_000, 4))
            .with_tenant("lab")
            .with_delta(4)
            .with_deadline(0.001)
            .with_priority(7),
    );
    jobs.push(JobEnvelope::new("too-big", reads("too-big", 60_000, 17)).with_tenant("acme"));
    let options = ServeOptions {
        limits: ServeLimits {
            max_reads_per_job: 16,
            ..ServeLimits::default()
        },
        tenant_weights: vec![("acme".to_string(), 2.0), ("lab".to_string(), 1.0)],
        // Two of edge's three 4-read jobs fit the window.
        tenant_quotas: vec![("edge".to_string(), 8)],
        ..ServeOptions::default()
    };
    let mut harness = ServeHarness::new(set.clone(), profiles::system1(), options).unwrap();
    let mut refused = Vec::new();
    for job in &jobs {
        if let Some(refusal) = harness.submit(job.clone()).expect("no journal") {
            refused.push((refusal.id, refusal.status));
        }
    }
    assert_eq!(
        refused,
        [
            ("edge-2".to_string(), JobStatus::QuotaExceeded),
            ("too-big".to_string(), JobStatus::Rejected)
        ]
    );
    let responses = harness.drain().expect("drain");
    assert!(responses.iter().all(|r| r.status == JobStatus::Ok));
    let c = harness.counters();
    assert_eq!(
        c.accepted + c.rejected + c.retry_later + c.quota_exceeded,
        jobs.len() as u64,
        "every submission is counted once"
    );
    assert_eq!((c.accepted, c.completed), (9, 9));
    assert_eq!(responses.len(), 9);
    assert_eq!(harness.core().queue_depth(), 0);
    let first = responses.iter().filter_map(|r| r.batch).min();
    let urgent = responses.iter().find(|r| r.id == "lab-urgent");
    assert_eq!(urgent.and_then(|r| r.batch), first, "EDF runs it first");

    let accepted: Vec<JobEnvelope> = jobs
        .into_iter()
        .filter(|j| !refused.iter().any(|(id, _)| *id == j.id))
        .collect();
    let (_, plain) = serve_all(&set, ServeOptions::default(), &accepted);
    assert_eq!(sam_by_id(&responses), sam_by_id(&plain));
    assert_telemetry_pinned("ADMISSION", &[("admission", &harness)], ADMISSION);
}

#[test]
fn device_loss_mid_serve_keeps_sam_bit_identical_over_a_socket() {
    let dir = std::env::temp_dir().join(format!(
        "repute-serve-faults-socket-test-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).ok();
    let socket: PathBuf = dir.join("serve.sock");
    std::fs::remove_file(&socket).ok();

    let server = {
        let socket = socket.clone();
        std::thread::spawn(
            move || -> (ServeCore, Result<(), repute_core::ReputeError>) {
                let mut core = ServeCore::new(
                    reference_set(),
                    profiles::system1(),
                    ServeOptions {
                        fault_plan: two_losses(),
                        ..ServeOptions::default()
                    },
                )
                .unwrap();
                let result = serve_socket(&mut core, &socket);
                (core, result)
            },
        )
    };
    common::wait_for_daemon(&socket);

    // Three concurrent clients, two jobs each.
    let clients: Vec<_> = jobs()
        .chunks(2)
        .map(|pair| {
            let socket = socket.clone();
            let pair = pair.to_vec();
            std::thread::spawn(move || {
                let lines: Vec<String> = pair.iter().map(JobEnvelope::to_json_line).collect();
                let responses = submit_over_socket(&socket, &lines).expect("client run");
                (pair, responses)
            })
        })
        .collect();
    let expected = fault_free_sam();
    for client in clients {
        let (pair, responses) = client.join().expect("client thread");
        assert_eq!(responses.len(), pair.len());
        for (response, job) in responses.iter().zip(&pair) {
            assert_eq!(response.id, job.id);
            assert_eq!(
                response.status,
                JobStatus::Ok,
                "job {} must complete while a device survives: {:?}",
                job.id,
                response.reason
            );
            assert_eq!(
                response.sam.as_deref(),
                Some(expected[&job.id].as_str()),
                "job {} SAM diverged under device loss",
                job.id
            );
        }
    }

    shutdown_over_socket(&socket).expect("shutdown");
    let (core, result) = server.join().expect("server thread");
    result.expect("serve loop exits cleanly");
    assert_eq!(core.counters().completed, 6);
    assert_eq!(
        core.health().lost_count(),
        2,
        "both planned losses must have been observed"
    );
    assert!(!core.is_unavailable(), "one device still lives");
    std::fs::remove_dir_all(&dir).ok();
}

fn faulted_lines(host_threads: usize) -> Vec<(String, String)> {
    let options = ServeOptions {
        fault_plan: two_losses(),
        host_threads,
        ..ServeOptions::default()
    };
    let mut lines: Vec<(String, String)> = serve_all(&reference_set(), options, &jobs())
        .1
        .iter()
        .map(|r| (r.id.clone(), r.to_json_line()))
        .collect();
    lines.sort();
    lines
}

#[test]
fn faulted_runs_are_deterministic_across_host_threads() {
    // Full response lines — SAM, batch index, simulated latency — must
    // agree between the sequential host and a 4-thread host, losses and
    // migrations included.
    assert_eq!(
        faulted_lines(1),
        faulted_lines(4),
        "fault handling must not depend on --host-threads"
    );
}

/// Concurrent rounds run each configuration group on a sub-platform of
/// the fleet, and a device there keeps its platform index: in the
/// daemon's trace every `kernel` span's `d<i>` label names the device of
/// its own lane, every `batch` span's lane is the device it names, and
/// every batch frame's provenance and lost devices are platform indices.
#[test]
fn concurrent_rounds_name_every_device_by_its_platform_index() {
    let dir = std::env::temp_dir().join(format!(
        "repute-serve-faults-index-test-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).ok();
    let journal = dir.join("serve.journal");
    std::fs::remove_file(&journal).ok();
    let options = ServeOptions {
        tracing: true,
        fault_plan: FaultPlan::new().transient(2, 0.0).loss(1, 1.0e-4),
        ..acme_weighted()
    };
    let platform = profiles::system1();
    let n_dev = platform.devices().len();
    let (mut harness, _) =
        ServeHarness::with_journal(reference_set(), platform, options, &journal, false)
            .expect("fresh journal");
    for job in small_jobs() {
        assert!(harness.submit(job).expect("journal I/O").is_none());
    }
    harness.drain().expect("drain");
    let trace_path = dir.join("serve.trace.json");
    harness.core().write_trace(&trace_path).expect("trace");
    let fingerprint = harness.core().fingerprint();
    drop(harness);

    let text = std::fs::read_to_string(&trace_path).expect("trace file");
    let Some(JsonValue::Arr(events)) = parse_json(&text) else {
        panic!("the trace is a JSON array");
    };
    let (mut kernels, mut batches) = (0, 0);
    for event in &events {
        let JsonValue::Obj(fields) = event else {
            panic!("trace events are objects");
        };
        let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let number = |key: &str| field(key).and_then(JsonValue::as_u64).expect("numeric");
        let name = field("name").and_then(JsonValue::as_str).expect("named");
        match field("cat").and_then(JsonValue::as_str) {
            Some("kernel") => {
                let labelled: u64 = name
                    .strip_prefix('d')
                    .and_then(|rest| rest.split('-').next())
                    .and_then(|i| i.parse().ok())
                    .unwrap_or_else(|| panic!("kernel span {name:?} has no d<i> label"));
                let lane = number("pid") - u64::from(device_pid(0));
                assert_eq!(
                    labelled, lane,
                    "kernel span {name:?} on device {lane}'s lane"
                );
                kernels += 1;
            }
            Some("batch") => {
                let Some(JsonValue::Obj(args)) = field("args") else {
                    panic!("batch spans carry args");
                };
                let device = args.iter().find(|(k, _)| k == "device");
                let device = device.and_then(|(_, v)| v.as_u64()).expect("device arg");
                assert_eq!(device, number("tid"), "batch span {name:?}");
                assert!(
                    device < n_dev as u64,
                    "batch span {name:?} on device {device}"
                );
                batches += 1;
            }
            _ => {}
        }
    }
    assert!(kernels >= small_jobs().len(), "{kernels} kernel spans");
    assert_eq!(batches, kernels, "one batch span per kernel launch");

    let recovered = JobJournal::open(&journal, &fingerprint)
        .expect("intact journal")
        .1;
    let provenance: Vec<u32> = recovered
        .batches
        .iter()
        .flat_map(|b| b.provenance.iter().map(|p| p.device))
        .collect();
    let lost: Vec<u32> = recovered
        .batches
        .iter()
        .flat_map(|b| b.lost.clone())
        .collect();
    assert!(
        provenance.contains(&2),
        "device 2's transient: {provenance:?}"
    );
    assert!(lost.contains(&1), "device 1's loss: {lost:?}");
    for device in provenance.iter().chain(&lost) {
        assert!(
            (*device as usize) < n_dev,
            "device {device} is not on the fleet"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_resume_during_a_fault_episode_is_bit_identical() {
    let dir = std::env::temp_dir().join(format!(
        "repute-serve-faults-resume-test-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).ok();
    let options = || ServeOptions {
        fault_plan: FaultPlan::new().transient(0, 1.0e-5).loss(2, 1.0e-4),
        ..ServeOptions::default()
    };
    let all = jobs();
    let (wave1, wave2) = all.split_at(3);

    // Uninterrupted reference: wave 1 commits, wave 2 arrives, drain.
    let mut clean = ServeHarness::new(reference_set(), profiles::system1(), options()).unwrap();
    for job in wave1.iter().cloned() {
        assert!(clean.submit(job).expect("journal I/O").is_none());
    }
    let mut clean_union = clean.run_batch().expect("wave 1 round");
    for job in wave2.iter().cloned() {
        assert!(clean.submit(job).expect("journal I/O").is_none());
    }
    clean_union.extend(clean.drain().expect("wave 2 drain"));
    assert_eq!(clean_union.len(), 6);

    // Crashed run: same schedule, but power dies inside wave 2's round.
    let journal = dir.join("serve.journal");
    std::fs::remove_file(&journal).ok();
    let (mut doomed, replayed) = ServeHarness::with_journal(
        reference_set(),
        profiles::system1(),
        options(),
        &journal,
        false,
    )
    .unwrap();
    assert!(replayed.is_empty());
    for job in wave1.iter().cloned() {
        assert!(doomed.submit(job).expect("journal I/O").is_none());
    }
    let committed = doomed.run_batch().expect("wave 1 round");
    assert!(!committed.is_empty());
    for job in wave2.iter().cloned() {
        assert!(doomed.submit(job).expect("journal I/O").is_none());
    }
    let lost_ids = doomed.crash_mid_batch().expect("doomed round executes");
    assert!(!lost_ids.is_empty(), "the crash must catch live work");

    // Resume: wave 1 replays from the journal (fault provenance and
    // device health restored), wave 2 re-executes; the union is
    // bit-identical to the uninterrupted faulted run.
    let (mut resumed, replayed) = ServeHarness::with_journal(
        reference_set(),
        profiles::system1(),
        options(),
        &journal,
        true,
    )
    .unwrap();
    let by_id = |rs: &[JobResponse]| -> Vec<(String, String)> {
        let mut lines: Vec<(String, String)> = rs
            .iter()
            .map(|r| (r.id.clone(), r.to_json_line()))
            .collect();
        lines.sort();
        lines
    };
    assert_eq!(by_id(&replayed), by_id(&committed));
    let mut union = replayed;
    union.extend(resumed.drain().expect("resumed drain"));
    assert_eq!(union.len(), 6, "no job lost, none answered twice");
    assert_eq!(
        by_id(&union),
        by_id(&clean_union),
        "crash-resume during a fault episode must be bit-identical"
    );
    assert_eq!(
        resumed.core().health().lost_count(),
        1,
        "the planned loss survives the restart"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_devices_lost_drains_service_unavailable_and_exits() {
    let dir = std::env::temp_dir().join(format!(
        "repute-serve-faults-unavailable-test-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).ok();
    let socket: PathBuf = dir.join("serve.sock");
    std::fs::remove_file(&socket).ok();

    let server = {
        let socket = socket.clone();
        std::thread::spawn(
            move || -> (ServeCore, Result<(), repute_core::ReputeError>) {
                let mut core = ServeCore::new(
                    reference_set(),
                    profiles::system1(),
                    ServeOptions {
                        // Early enough to strike inside even a one-read
                        // batch (but after t = 0, so construction sees a
                        // live fleet).
                        fault_plan: FaultPlan::new().correlated(&[0, 1, 2], 1.0e-9),
                        ..ServeOptions::default()
                    },
                )
                .unwrap();
                let result = serve_socket(&mut core, &socket);
                (core, result)
            },
        )
    };
    common::wait_for_daemon(&socket);

    // Four jobs with four distinct configurations: the first round
    // launches one group per live device (three), and in-flight work is
    // not thrown away even as the whole fleet dies under it. The fourth
    // job is still queued when the last device goes — it gets a typed
    // SERVICE_UNAVAILABLE, not a hang and not a dead socket.
    let reference = ReferenceBuilder::new(120_000).seed(8801).build();
    let read = |name: &str, start: usize| -> Vec<(String, DnaSeq)> {
        vec![(name.to_string(), reference.subseq(start..start + 100))]
    };
    let lines: Vec<String> = [(5u32, 10_000), (3, 20_000), (4, 30_000), (6, 40_000)]
        .iter()
        .enumerate()
        .map(|(i, &(delta, start))| {
            JobEnvelope::new(format!("job-{i}"), read(&format!("r{i}"), start))
                .with_tenant("acme")
                .with_delta(delta)
                .to_json_line()
        })
        .collect();
    let responses = submit_over_socket(&socket, &lines).expect("client run");
    assert_eq!(responses.len(), 4);
    for response in &responses[..3] {
        assert_eq!(
            response.status,
            JobStatus::Ok,
            "work launched before the loss completes: {:?}",
            response.reason
        );
    }
    assert_eq!(responses[3].id, "job-3");
    assert_eq!(responses[3].status, JobStatus::ServiceUnavailable);
    assert!(
        responses[3]
            .reason
            .as_deref()
            .unwrap_or("")
            .contains("every simulated device has been lost"),
        "refusal must name the cause, got {:?}",
        responses[3].reason
    );

    // No shutdown request: the daemon drains and exits on its own.
    let (core, result) = server.join().expect("server thread");
    result.expect("drain-and-exit is a clean exit");
    assert!(core.is_unavailable());
    assert_eq!(core.health().lost_count(), 3);
    assert!(core.counters().unavailable >= 1);
    assert_eq!(core.counters().completed, 3);
    assert!(!socket.exists(), "socket file removed on exit");
    std::fs::remove_dir_all(&dir).ok();
}

/// The daemon checks its fault plan by the plan's own rule: the same
/// message as `FaultPlan::check`, a configuration error (exit 2).
#[test]
fn a_fault_plan_naming_a_device_past_the_platform_is_refused_by_the_plan_rule() {
    let plan = FaultPlan::parse("loss:d3@0").expect("valid spec");
    let rule = plan
        .check(&profiles::system1())
        .expect_err("system1 has devices 0..3");
    let options = ServeOptions {
        fault_plan: plan,
        ..ServeOptions::default()
    };
    let err = ServeCore::new(reference_set(), profiles::system1(), options)
        .err()
        .expect("the plan names device 3");
    assert_eq!(err.exit_code(), 2);
    assert_eq!(err.to_string(), format!("configuration error: {rule}"));
}

#[test]
fn overdue_queued_jobs_are_shed_with_deadline_exceeded() {
    let run = |shed_overdue: bool| -> (Vec<JobResponse>, ServeHarness) {
        let mut harness = ServeHarness::new(
            reference_set(),
            profiles::system1(),
            ServeOptions {
                shed_overdue,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let reference = ReferenceBuilder::new(120_000).seed(8801).build();
        let read = |name: &str, start: usize| -> Vec<(String, DnaSeq)> {
            vec![(name.to_string(), reference.subseq(start..start + 100))]
        };
        // Earliest-deadline-first fills the first round with `urgent` and
        // two jobs of their own δ, one group per device of the three;
        // `late` holds a deadline far tighter than that round's
        // makespan, so by the time the scheduler reaches it the deadline
        // has passed.
        let urgent = JobEnvelope::new("urgent", read("ru", 10_000))
            .with_tenant("acme")
            .with_deadline(1.0e-12);
        let fillers = [(4, 30_000), (6, 40_000)].map(|(delta, start)| {
            JobEnvelope::new(
                format!("urgent-{delta}"),
                read(&format!("rw{delta}"), start),
            )
            .with_tenant("acme")
            .with_delta(delta)
            .with_deadline(1.0e-12)
        });
        let late = JobEnvelope::new("late", read("rv", 20_000))
            .with_tenant("lab")
            .with_delta(3)
            .with_deadline(1.0e-9);
        for job in [urgent].into_iter().chain(fillers).chain([late]) {
            assert!(harness.submit(job).expect("journal I/O").is_none());
        }
        let responses = harness.drain().expect("drain");
        (responses, harness)
    };

    // Shedding on: `late` is refused with a typed DEADLINE_EXCEEDED.
    let (responses, harness) = run(true);
    assert_eq!(responses.len(), 4);
    let late = responses.iter().find(|r| r.id == "late").expect("late");
    assert_eq!(late.status, JobStatus::DeadlineExceeded);
    assert!(
        late.reason
            .as_deref()
            .unwrap_or("")
            .contains("while the job was queued"),
        "shed reason must say when and why, got {:?}",
        late.reason
    );
    assert!(late.sam.is_none(), "shed jobs carry no SAM");
    let urgent = responses.iter().find(|r| r.id == "urgent").expect("urgent");
    assert_eq!(urgent.status, JobStatus::Ok);
    assert_eq!(harness.counters().shed, 1);
    let slo = harness.core().slo_reports();
    let lab = slo.iter().find(|r| r.tenant == "lab").expect("lab SLO row");
    assert_eq!((lab.met, lab.missed), (0, 1));
    assert_eq!(lab.hit_rate(), 0.0);

    // Shedding off (the default): the same job runs late but completes.
    let (responses, harness) = run(false);
    assert!(responses.iter().all(|r| r.status == JobStatus::Ok));
    assert_eq!(harness.counters().shed, 0);
    let slo = harness.core().slo_reports();
    let lab = slo.iter().find(|r| r.tenant == "lab").expect("lab SLO row");
    assert_eq!(
        (lab.met, lab.missed),
        (0, 1),
        "a late completion still misses its SLO"
    );
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn device_health_ladder_is_monotone_under_random_event_storms() {
    let mut state = 0x0DE5_EED5_1234_u64;
    for round in 0..200 {
        let devices = 1 + (splitmix64(&mut state) % 6) as usize;
        let mut health = DeviceHealth::new(devices);
        let mut prev: Vec<u8> = vec![HealthState::Healthy.code(); devices];
        let mut prev_faults: Vec<u64> = vec![0; devices];
        for _ in 0..40 {
            let d = (splitmix64(&mut state) as usize) % devices;
            match splitmix64(&mut state) % 3 {
                0 => health.observe_faults(d, 1 + splitmix64(&mut state) % 3),
                1 => health.observe_degrade(d),
                _ => health.observe_loss(d),
            }
            for i in 0..devices {
                let code = health.state(i).code();
                assert!(
                    code >= prev[i],
                    "round {round}: device {i} walked the ladder backwards \
                     ({} -> {})",
                    prev[i],
                    code
                );
                assert!(health.faults(i) >= prev_faults[i]);
                prev[i] = code;
                prev_faults[i] = health.faults(i);
            }
            // live() is exactly the ascending set of live-state devices.
            let live = health.live();
            let expected: Vec<usize> = (0..devices)
                .filter(|&i| health.state(i).is_live())
                .collect();
            assert_eq!(live, expected);
            assert_eq!(health.live_count(), live.len());
            assert_eq!(health.none_live(), live.is_empty());
            // Snapshot/restore round-trips the whole ladder.
            let snapshot = health.snapshot();
            let mut restored = DeviceHealth::new(devices);
            for (i, &(state, faults)) in snapshot.iter().enumerate() {
                restored.restore(i, state, faults);
            }
            assert_eq!(restored.snapshot(), snapshot);
        }
    }
}

#[test]
fn admission_capacity_shrinks_with_survivors_without_dropping_jobs() {
    let key = ConfigKey {
        delta: 5,
        prefilter: PrefilterMode::None,
        mapper: MapperKind::Repute,
    };
    let spec = |seq: u64, deadline: Option<f64>| JobSpec {
        seq,
        id: format!("j{seq}"),
        tenant: format!("t{}", seq % 3),
        key,
        arrival_s: 0.0,
        deadline_s: deadline,
        priority: 0,
        read_ids: vec![format!("r{seq}")],
        reads: Vec::new(),
    };
    let mut state = 0xFA57_F00D_u64;
    for round in 0..100 {
        let total_devices = 1 + (splitmix64(&mut state) % 4) as usize;
        let base_capacity = 4 + (splitmix64(&mut state) % 12) as usize;
        let mut queue = AdmissionQueue::new(base_capacity, &[]);
        let mut seq = 0u64;
        let mut admitted: Vec<u64> = Vec::new();
        while !queue.is_full() {
            let deadline = splitmix64(&mut state)
                .is_multiple_of(2)
                .then(|| 1.0e-6 * (1 + splitmix64(&mut state) % 100) as f64);
            queue.push(spec(seq, deadline), false).expect("not full");
            admitted.push(seq);
            seq += 1;
        }
        assert_eq!(queue.len(), base_capacity);

        // Device loss shrinks live capacity: the admission bound shrinks
        // proportionally, never below 1, and never drops a queued job.
        let mut live = total_devices;
        let mut drained: Vec<u64> = Vec::new();
        while live > 0 {
            live -= 1;
            let bound = (base_capacity * live.max(1)).div_ceil(total_devices);
            queue.set_capacity(bound);
            assert_eq!(queue.capacity(), bound.max(1));
            assert_eq!(
                queue.len() + drained.len(),
                base_capacity,
                "round {round}: shrinking the bound must not drop queued jobs"
            );
            // Shedding at an advancing clock takes exactly the overdue
            // deadline jobs, in seq order.
            let now = 1.0e-6 * (splitmix64(&mut state) % 120) as f64;
            let shed = queue.take_overdue(now);
            assert!(shed.windows(2).all(|w| w[0].seq < w[1].seq));
            for job in &shed {
                assert!(job.deadline_s.is_some_and(|d| d < now));
            }
            drained.extend(shed.iter().map(|j| j.seq));
            // The queue keeps serving what remains.
            if let Some(job) = queue.pop_fair(now) {
                drained.push(job.seq);
            }
        }
        // Everything admitted comes out exactly once, shed or served.
        while let Some(job) = queue.pop_fair(f64::MAX) {
            drained.push(job.seq);
        }
        drained.sort_unstable();
        assert_eq!(drained, admitted, "round {round}: jobs lost or duplicated");
    }
}
