//! Serve hardening ablation: deadline scheduling, tenant quotas, and
//! journal compaction must behave as specified — and compaction must
//! actually bound the journal — plus the `BENCH_pr9.json` baseline and
//! its CI regression gate.
//!
//! The smoke section (always runs, nonzero exit on any failure):
//!
//! 1. Runs the pinned 9-job workload through a hardened harness
//!    (tenant quota on `edge`, one tight-deadline job submitted last)
//!    and checks: the over-quota job gets a typed `QUOTA_EXCEEDED`
//!    refusal, the deadline job runs in the first scheduler batch
//!    (EDF beats submission and fair-queue order), counters account
//!    every submission, and per-job SAM is byte-identical to a
//!    default-options run of the same jobs (scheduling policy must
//!    never leak into mapping output).
//! 2. Compaction ablation: the same drained workload journaled with
//!    `journal_compact_threshold = 1` versus an append-only control.
//!    The compacted journal (header + state snapshot + zero live
//!    records after a full drain) must be a fraction of the control.
//! 3. Crash/resume from a compacted journal: commit one batch (which
//!    compacts), crash mid-batch, resume — the union of pre-crash and
//!    post-resume responses must be bit-identical to an uninterrupted
//!    run.
//!
//! Baseline modes (mirroring the other trajectory gates):
//!
//! * `--write <path>` — write `BENCH_pr9.json`: deterministic simulated
//!   seconds and journal byte sizes (gated), plus the compaction ratio
//!   (informational).
//! * `--check <path>` — re-run the smoke workload, schema-validate the
//!   committed document, and fail (exit 1) when any gated metric
//!   exceeds its committed value by more than 20%.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use repute_bench::gate::{self, fail, Gate, Mode};
use repute_genome::synth::ReferenceBuilder;
use repute_genome::DnaSeq;
use repute_hetsim::profiles;
use repute_mappers::multiref::ReferenceSet;
use repute_obs::json::JsonObject;
use repute_serve::{JobEnvelope, JobResponse, JobStatus, ServeHarness, ServeOptions};

const GATE: Gate = Gate {
    binary: "serve_hardening",
    schema: "repute-bench-serve-hardening",
    version: 1,
    noun: "hardening",
    smoke: Some("hardening"),
};
/// Fresh gated metrics may exceed the committed baseline by at most
/// this factor before the check fails.
const REGRESSION_FACTOR: f64 = 1.2;

/// Pinned smoke scale (deterministic; environment overrides are
/// ignored so the committed baseline stays comparable).
const REF_LEN: usize = 60_000;
const READS_PER_JOB: usize = 4;
const JOBS_PER_TENANT: usize = 3;
/// Sliding-window read budget pinned on tenant `edge`: two jobs fit,
/// the third must be refused.
const EDGE_BUDGET: u64 = (READS_PER_JOB * 2) as u64;

const TENANTS: [&str; 3] = ["acme", "lab", "edge"];

fn reference() -> DnaSeq {
    ReferenceBuilder::new(REF_LEN).seed(9901).build()
}

fn reference_set() -> ReferenceSet {
    ReferenceSet::build(vec![("chrH".to_string(), reference())])
}

fn hardened_options() -> ServeOptions {
    ServeOptions {
        tenant_weights: vec![("acme".to_string(), 2.0)],
        tenant_quotas: vec![("edge".to_string(), EDGE_BUDGET)],
        ..ServeOptions::default()
    }
}

/// 3 tenants × 3 jobs, alternating δ ∈ {3, 5}; the very last submission
/// is a `lab` job with a unique δ = 4 and a tight deadline — under
/// plain fair queuing it would run late (lab has no weight boost and it
/// arrives last), under EDF it must seed the first batch.
fn smoke_jobs(reference: &DnaSeq) -> Vec<JobEnvelope> {
    let mut jobs = Vec::new();
    for (t, tenant) in TENANTS.iter().enumerate() {
        for j in 0..JOBS_PER_TENANT {
            let reads: Vec<(String, DnaSeq)> = (0..READS_PER_JOB)
                .map(|i| {
                    let start = 1_000 + (t * JOBS_PER_TENANT + j) * 5_000 + i * 700;
                    (
                        format!("{tenant}-{j}-r{i}"),
                        reference.subseq(start..start + 100),
                    )
                })
                .collect();
            let delta = if (t + j) % 2 == 0 { 3 } else { 5 };
            jobs.push(
                JobEnvelope::new(format!("{tenant}-{j}"), reads)
                    .with_tenant(*tenant)
                    .with_delta(delta),
            );
        }
    }
    let urgent_reads: Vec<(String, DnaSeq)> = (0..READS_PER_JOB)
        .map(|i| {
            let start = 48_000 + i * 700;
            (format!("urgent-r{i}"), reference.subseq(start..start + 100))
        })
        .collect();
    jobs.push(
        JobEnvelope::new("lab-urgent", urgent_reads)
            .with_tenant("lab")
            .with_delta(4)
            .with_deadline(0.001)
            .with_priority(7),
    );
    jobs
}

/// Submits every job, recording inline refusals; returns (refusals,
/// accepted ids in submission order).
fn submit_all(harness: &mut ServeHarness, jobs: &[JobEnvelope]) -> (Vec<JobResponse>, Vec<String>) {
    let mut refusals = Vec::new();
    let mut accepted = Vec::new();
    for job in jobs {
        match harness.submit(job.clone()) {
            Ok(None) => accepted.push(job.id.clone()),
            Ok(Some(refusal)) => refusals.push(refusal),
            Err(e) => fail(&format!("submit {:?}: {e}", job.id)),
        }
    }
    (refusals, accepted)
}

fn sam_by_id(responses: &[JobResponse]) -> HashMap<String, String> {
    responses
        .iter()
        .map(|r| {
            (
                r.id.clone(),
                r.sam
                    .clone()
                    .unwrap_or_else(|| fail("completed job without SAM")),
            )
        })
        .collect()
}

struct SmokeResult {
    simulated_seconds: f64,
    batches: u64,
    compactions: u64,
    journal_control_bytes: u64,
    journal_compacted_bytes: u64,
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("repute-serve-hardening");
    std::fs::remove_dir_all(&dir).ok();
    if std::fs::create_dir_all(&dir).is_err() {
        fail("cannot create the hardening scratch directory");
    }
    dir
}

fn journal_size(path: &Path) -> u64 {
    match std::fs::metadata(path) {
        Ok(meta) => meta.len(),
        Err(_) => fail(&format!("cannot stat journal {}", path.display())),
    }
}

fn run_smoke() -> SmokeResult {
    let dir = scratch_dir();
    let jobs = smoke_jobs(&reference());
    let submitted = jobs.len() as u64;

    // --- 1. EDF + quota semantics on the hardened harness. -----------
    let mut hardened =
        match ServeHarness::new(reference_set(), profiles::system1(), hardened_options()) {
            Ok(harness) => harness,
            Err(e) => fail(&format!("harness construction: {e}")),
        };
    let (refusals, accepted) = submit_all(&mut hardened, &jobs);
    if refusals.len() != 1 || refusals[0].status != JobStatus::QuotaExceeded {
        fail(&format!(
            "expected exactly one QUOTA_EXCEEDED refusal for tenant edge, got {refusals:?}"
        ));
    }
    if refusals[0].id != "edge-2" {
        fail(&format!(
            "the third edge job must blow the {EDGE_BUDGET}-read budget, \
             refused {:?} instead",
            refusals[0].id
        ));
    }
    println!(
        "  quota OK: {:?} refused — {}",
        refusals[0].id,
        refusals[0].reason.as_deref().unwrap_or("?")
    );
    let responses = match hardened.drain() {
        Ok(responses) => responses,
        Err(e) => fail(&format!("hardened drain: {e}")),
    };
    if responses.len() != accepted.len() {
        fail(&format!(
            "{} responses for {} accepted jobs",
            responses.len(),
            accepted.len()
        ));
    }
    let c = hardened.counters();
    if c.accepted + c.rejected + c.retry_later + c.quota_exceeded != submitted {
        fail(&format!(
            "counters leak submissions: accepted {} + rejected {} + retry-later {} \
             + quota-exceeded {} != {submitted}",
            c.accepted, c.rejected, c.retry_later, c.quota_exceeded
        ));
    }
    if c.quota_exceeded != 1 || c.completed != accepted.len() as u64 {
        fail("quota/completion counters drifted");
    }
    let urgent = responses
        .iter()
        .find(|r| r.id == "lab-urgent")
        .unwrap_or_else(|| fail("no response for the deadline job"));
    let min_batch = responses
        .iter()
        .filter_map(|r| r.batch)
        .min()
        .unwrap_or_else(|| fail("no batch indices"));
    if urgent.batch != Some(min_batch) {
        fail(&format!(
            "EDF violated: the tight-deadline job ran in batch {:?}, \
             first batch was {min_batch}",
            urgent.batch
        ));
    }
    println!(
        "  EDF OK: last-submitted deadline job seeded batch {min_batch} \
         of {} batches",
        c.batches
    );

    // Scheduling policy must never leak into mapping output: per-job
    // SAM byte-identical to a default-options run of the same jobs.
    let mut plain = match ServeHarness::new(
        reference_set(),
        profiles::system1(),
        ServeOptions::default(),
    ) {
        Ok(harness) => harness,
        Err(e) => fail(&format!("plain harness construction: {e}")),
    };
    for job in jobs.iter().filter(|j| accepted.contains(&j.id)) {
        match plain.submit(job.clone()) {
            Ok(None) => {}
            other => fail(&format!("plain submit {:?}: {other:?}", job.id)),
        }
    }
    let plain_sam = match plain.drain() {
        Ok(responses) => sam_by_id(&responses),
        Err(e) => fail(&format!("plain drain: {e}")),
    };
    let hardened_sam = sam_by_id(&responses);
    for (id, sam) in &hardened_sam {
        if plain_sam.get(id) != Some(sam) {
            fail(&format!(
                "job {id:?}: SAM under EDF/quota differs from the default-options run"
            ));
        }
    }
    println!(
        "  byte-identity OK: {} jobs, scheduling policy did not touch SAM",
        hardened_sam.len()
    );

    // --- 2. Compaction ablation: bounded journal vs append-only. ------
    let control_path = dir.join("control.journal");
    let (mut control, _) = match ServeHarness::with_journal(
        reference_set(),
        profiles::system1(),
        hardened_options(),
        &control_path,
        false,
    ) {
        Ok(pair) => pair,
        Err(e) => fail(&format!("control journal: {e}")),
    };
    submit_all(&mut control, &jobs);
    if let Err(e) = control.drain() {
        fail(&format!("control drain: {e}"));
    }
    let journal_control_bytes = journal_size(&control_path);

    let compact_path = dir.join("compact.journal");
    let mut compacting_options = hardened_options();
    compacting_options.journal_compact_threshold = 1;
    let (mut compacting, _) = match ServeHarness::with_journal(
        reference_set(),
        profiles::system1(),
        compacting_options.clone(),
        &compact_path,
        false,
    ) {
        Ok(pair) => pair,
        Err(e) => fail(&format!("compacting journal: {e}")),
    };
    submit_all(&mut compacting, &jobs);
    if let Err(e) = compacting.drain() {
        fail(&format!("compacting drain: {e}"));
    }
    let compactions = compacting.counters().compactions;
    if compactions == 0 {
        fail("threshold 1 must compact at least once per committed batch");
    }
    let journal_compacted_bytes = journal_size(&compact_path);
    // After a full drain there are zero live records: the compacted
    // journal is just the header plus one state snapshot, and must be
    // a fraction of the append-only control.
    if journal_compacted_bytes * 2 >= journal_control_bytes {
        fail(&format!(
            "compaction did not bound the journal: {journal_compacted_bytes} B \
             compacted vs {journal_control_bytes} B control"
        ));
    }
    println!(
        "  compaction OK: {compactions} compaction(s), journal \
         {journal_control_bytes} B → {journal_compacted_bytes} B"
    );

    // --- 3. Crash + resume from a compacted journal. ------------------
    let crash_path = dir.join("crash.journal");
    let (mut doomed, _) = match ServeHarness::with_journal(
        reference_set(),
        profiles::system1(),
        compacting_options.clone(),
        &crash_path,
        false,
    ) {
        Ok(pair) => pair,
        Err(e) => fail(&format!("crash journal: {e}")),
    };
    submit_all(&mut doomed, &jobs);
    let committed = match doomed.run_batch() {
        Ok(responses) => responses,
        Err(e) => fail(&format!("first batch: {e}")),
    };
    if doomed.counters().compactions == 0 {
        fail("the first commit must trigger a compaction at threshold 1");
    }
    let lost = match doomed.crash_mid_batch() {
        Ok(ids) => ids,
        Err(e) => fail(&format!("doomed batch: {e}")),
    };
    let (mut resumed, replayed) = match ServeHarness::with_journal(
        reference_set(),
        profiles::system1(),
        compacting_options,
        &crash_path,
        true,
    ) {
        Ok(pair) => pair,
        Err(e) => fail(&format!("resume from compacted journal: {e}")),
    };
    if !replayed.is_empty() {
        fail("a compacted journal has no committed batches to replay");
    }
    let reexecuted = match resumed.drain() {
        Ok(responses) => responses,
        Err(e) => fail(&format!("resumed drain: {e}")),
    };
    for id in &lost {
        if !reexecuted.iter().any(|r| &r.id == id) {
            fail(&format!("lost job {id:?} was not re-executed after resume"));
        }
    }
    let mut union: Vec<(String, String)> = committed
        .iter()
        .chain(reexecuted.iter())
        .map(|r| (r.id.clone(), r.to_json_line()))
        .collect();
    union.sort();
    let mut clean: Vec<(String, String)> = responses
        .iter()
        .map(|r| (r.id.clone(), r.to_json_line()))
        .collect();
    clean.sort();
    if union != clean {
        fail("crash + resume from a compacted journal is not bit-identical");
    }
    println!(
        "  crash/resume OK: {} committed + {} re-executed == uninterrupted run",
        committed.len(),
        reexecuted.len()
    );

    std::fs::remove_dir_all(&dir).ok();
    SmokeResult {
        simulated_seconds: hardened.core().simulated_seconds(),
        batches: c.batches,
        compactions,
        journal_control_bytes,
        journal_compacted_bytes,
    }
}

fn render_document(r: &SmokeResult) -> String {
    let mut doc = JsonObject::new();
    doc.str_field("schema", GATE.schema);
    doc.u64_field("version", GATE.version);
    doc.u64_field("reference_len", REF_LEN as u64);
    doc.u64_field("jobs", (TENANTS.len() * JOBS_PER_TENANT + 1) as u64);
    doc.u64_field("batches", r.batches);
    doc.u64_field("compactions", r.compactions);
    // Gated: deterministic simulated time and journal footprints.
    doc.f64_field("simulated_seconds", r.simulated_seconds);
    doc.f64_field("journal_control_bytes", r.journal_control_bytes as f64);
    doc.f64_field("journal_compacted_bytes", r.journal_compacted_bytes as f64);
    // Informational: how much of the append-only journal compaction
    // reclaims on this workload.
    doc.f64_field(
        "compaction_ratio",
        r.journal_compacted_bytes as f64 / r.journal_control_bytes as f64,
    );
    let mut text = doc.finish();
    text.push('\n');
    text
}

/// The gated (deterministic) metric keys.
const GATED: [&str; 3] = [
    "simulated_seconds",
    "journal_control_bytes",
    "journal_compacted_bytes",
];

/// Validates the committed document; returns the gated metrics.
fn validate_document(text: &str) -> Result<Vec<(String, f64)>, String> {
    let fields = GATE.header(text)?;
    gate::require(
        &fields,
        &["jobs", "batches", "compactions"],
        &["compaction_ratio"],
    )?;
    gate::gated(&fields, &GATED)
}

fn main() {
    let mode = GATE.mode();
    println!("Serve hardening ablation — EDF, quotas, journal compaction, crash/resume");
    println!(
        "pinned scale: {REF_LEN} bp reference, {} tenants × {JOBS_PER_TENANT} jobs × \
         {READS_PER_JOB} reads (+1 deadline job), edge budget {EDGE_BUDGET} reads",
        TENANTS.len()
    );
    let result = run_smoke();
    println!(
        "  {} batch(es) | simulated {:.6} s | {} compaction(s) | journal {} B → {} B",
        result.batches,
        result.simulated_seconds,
        result.compactions,
        result.journal_control_bytes,
        result.journal_compacted_bytes
    );
    println!("smoke OK");

    let Some((mode, path)) = mode else { return };
    if mode == Mode::Write {
        GATE.write(&path, &render_document(&result), validate_document);
        return;
    }

    // --check: schema-validate and gate the deterministic metrics.
    let committed = GATE.read(&path, validate_document);
    let fresh = [
        ("simulated_seconds", result.simulated_seconds),
        ("journal_control_bytes", result.journal_control_bytes as f64),
        (
            "journal_compacted_bytes",
            result.journal_compacted_bytes as f64,
        ),
    ];
    GATE.check_regressions(&committed, &fresh, REGRESSION_FACTOR, 24, "hardening");
}
