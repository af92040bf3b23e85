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

use std::path::Path;

use repute_bench::gate::Value::{Gated, Informational, Integer};
use repute_bench::gate::{fail, or_fail, Gate};
use repute_bench::scenario::{
    self, journaled_harness, sam_by_id, submit_all, ServeReference, SERVE_REF_LEN as REF_LEN,
    SMOKE_JOBS_PER_TENANT as JOBS_PER_TENANT, SMOKE_READS_PER_JOB as READS_PER_JOB, TENANTS,
};
use repute_genome::DnaSeq;
use repute_serve::{JobEnvelope, JobStatus, ServeOptions};

const GATE: Gate = Gate {
    binary: "serve_hardening",
    schema: "repute-bench-serve-hardening",
    version: 1,
    noun: "hardening",
    smoke: Some("hardening"),
};

/// Sliding-window read budget pinned on tenant `edge`: two jobs fit,
/// the third must be refused.
const EDGE_BUDGET: u64 = (READS_PER_JOB * 2) as u64;

fn hardened_options() -> ServeOptions {
    ServeOptions {
        tenant_weights: vec![("acme".to_string(), 2.0)],
        tenant_quotas: vec![("edge".to_string(), EDGE_BUDGET)],
        ..ServeOptions::default()
    }
}

/// The shared 3 × 3 smoke jobs; the very last submission is a `lab` job
/// with a unique δ = 4 and a tight deadline — under plain fair queuing
/// it would run late (lab has no weight boost and it arrives last),
/// under EDF it must seed the first batch.
fn smoke_jobs(reference: &DnaSeq) -> Vec<JobEnvelope> {
    let mut jobs = scenario::smoke_jobs(reference);
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

struct SmokeResult {
    simulated_seconds: f64,
    batches: u64,
    compactions: u64,
    journal_control_bytes: u64,
    journal_compacted_bytes: u64,
}

fn journal_size(path: &Path) -> u64 {
    match std::fs::metadata(path) {
        Ok(meta) => meta.len(),
        Err(_) => fail(&format!("cannot stat journal {}", path.display())),
    }
}

fn run_smoke() -> SmokeResult {
    let dir = scenario::scratch_dir("hardening");
    let reference = ServeReference::new("chrH", 9901);
    let jobs = smoke_jobs(&reference.seq);
    let submitted = jobs.len() as u64;

    // --- 1. EDF + quota semantics on the hardened harness. -----------
    let mut hardened =
        scenario::harness(reference.set(), hardened_options(), "harness construction");
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
    let responses = or_fail(hardened.drain(), "hardened drain");
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
    let mut plain = scenario::harness(
        reference.set(),
        ServeOptions::default(),
        "plain harness construction",
    );
    for job in jobs.iter().filter(|j| accepted.contains(&j.id)) {
        match plain.submit(job.clone()) {
            Ok(None) => {}
            other => fail(&format!("plain submit {:?}: {other:?}", job.id)),
        }
    }
    let plain_sam = sam_by_id(&or_fail(plain.drain(), "plain drain"));
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
    let (mut control, _) = journaled_harness(
        reference.set(),
        hardened_options(),
        &control_path,
        false,
        "control journal",
    );
    submit_all(&mut control, &jobs);
    or_fail(control.drain(), "control drain");
    let journal_control_bytes = journal_size(&control_path);

    let compact_path = dir.join("compact.journal");
    let mut compacting_options = hardened_options();
    compacting_options.journal_compact_threshold = 1;
    let (mut compacting, _) = journaled_harness(
        reference.set(),
        compacting_options.clone(),
        &compact_path,
        false,
        "compacting journal",
    );
    submit_all(&mut compacting, &jobs);
    or_fail(compacting.drain(), "compacting drain");
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
    let (mut doomed, _) = journaled_harness(
        reference.set(),
        compacting_options.clone(),
        &crash_path,
        false,
        "crash journal",
    );
    submit_all(&mut doomed, &jobs);
    let committed = or_fail(doomed.run_batch(), "first batch");
    if doomed.counters().compactions == 0 {
        fail("the first commit must trigger a compaction at threshold 1");
    }
    let lost = or_fail(doomed.crash_mid_batch(), "doomed batch");
    let (mut resumed, replayed) = journaled_harness(
        reference.set(),
        compacting_options,
        &crash_path,
        true,
        "resume from compacted journal",
    );
    if !replayed.is_empty() {
        fail("a compacted journal has no committed batches to replay");
    }
    let reexecuted = or_fail(resumed.drain(), "resumed drain");
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

    // Gated: deterministic simulated time and journal footprints.
    // Informational: how much of the append-only journal compaction
    // reclaims on this workload.
    let (control, compacted) = (
        result.journal_control_bytes as f64,
        result.journal_compacted_bytes as f64,
    );
    let fields = [
        (
            "jobs",
            Integer((TENANTS.len() * JOBS_PER_TENANT + 1) as u64),
        ),
        ("batches", Integer(result.batches)),
        ("compactions", Integer(result.compactions)),
        ("simulated_seconds", Gated(result.simulated_seconds)),
        ("journal_control_bytes", Gated(control)),
        ("journal_compacted_bytes", Gated(compacted)),
        ("compaction_ratio", Informational(compacted / control)),
    ];
    GATE.finish(mode, &fields, "hardening");
}
