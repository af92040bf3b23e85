//! Serve smoke ablation: the mapping-as-a-service daemon must produce
//! byte-identical SAM to batch `repute map`, enforce its admission
//! limits, and account every job — plus the `BENCH_pr7.json` service
//! baseline and its CI regression gate.
//!
//! The smoke section (always runs, nonzero exit on any failure):
//!
//! 1. Spins up an in-process [`repute_serve::ServeHarness`], submits 9 jobs from 3
//!    tenants (mixed per-job δ overrides) **plus one oversized job that
//!    must be `REJECTED`**, and drains gracefully.
//! 2. For every completed job, runs batch `repute map` (the CLI library
//!    entry point, δ matched) over the same reads and **byte-compares**
//!    the daemon's per-job SAM — and the concatenation of all jobs —
//!    against the batch output.
//! 3. Checks the counters add up (accepted + rejected = submitted,
//!    completed = accepted) and that per-job latency percentiles and
//!    the queue-depth high-water mark are populated.
//!
//! Baseline modes (mirroring the trajectory gate):
//!
//! * `--write <path>` — write `BENCH_pr7.json`: deterministic simulated
//!   per-job latency percentiles and total simulated seconds (gated),
//!   plus the measured cold index-build versus cached index-load wall
//!   cost and its per-job amortization (informational — wall clock is
//!   machine-dependent and never gated).
//! * `--check <path>` — re-run the smoke workload, schema-validate the
//!   committed document, and fail (exit 1) when any gated simulated
//!   metric exceeds its committed value by more than 20%.

use std::time::Instant;

use repute_bench::gate::Value::{Gated, Informational, Integer};
use repute_bench::gate::{fail, or_fail, Gate};
use repute_bench::scenario::{
    self, smoke_jobs, submit_all, ServeReference, SERVE_REF_LEN as REF_LEN,
    SMOKE_JOBS_PER_TENANT as JOBS_PER_TENANT, SMOKE_READS_PER_JOB as READS_PER_JOB, TENANTS,
};
use repute_genome::fasta::{write_fasta, FastaRecord};
use repute_genome::fastq::{write_fastq, FastqRecord};
use repute_genome::DnaSeq;
use repute_mappers::multiref::ReferenceSet;
use repute_serve::{JobEnvelope, JobStatus, ServeLimits, ServeOptions};

const GATE: Gate = Gate {
    binary: "serve_smoke",
    schema: "repute-bench-serve",
    version: 1,
    noun: "service",
    smoke: Some("service"),
};

/// Server-pinned per-job read limit; the oversized job exceeds it.
const MAX_READS_PER_JOB: usize = 16;

fn serve_options() -> ServeOptions {
    ServeOptions {
        limits: ServeLimits {
            max_reads_per_job: MAX_READS_PER_JOB,
            ..ServeLimits::default()
        },
        tenant_weights: vec![("acme".to_string(), 2.0), ("lab".to_string(), 1.0)],
        ..ServeOptions::default()
    }
}

/// One read too many for the server's pinned limit.
fn oversized_job(reference: &DnaSeq) -> JobEnvelope {
    let reads: Vec<(String, DnaSeq)> = (0..MAX_READS_PER_JOB + 1)
        .map(|i| {
            let start = 2_000 + i * 300;
            (format!("big-r{i}"), reference.subseq(start..start + 100))
        })
        .collect();
    JobEnvelope::new("too-big", reads).with_tenant("acme")
}

struct SmokeResult {
    job_latency: (u64, f64, f64, f64),
    simulated_seconds: f64,
    batches: u64,
    queue_high_water: u64,
    cold_index_build_s: f64,
    cached_index_load_s: f64,
}

fn run_smoke() -> SmokeResult {
    let reference = ServeReference::new("chrS", 9401);
    let dir = scenario::scratch_dir("smoke");
    let ref_path = dir.join("reference.fa");
    let mut fa = Vec::new();
    let record = FastaRecord::new(reference.name, reference.seq.clone());
    if write_fasta(&mut fa, &[record], 70).is_err() {
        fail("cannot render the reference FASTA");
    }
    if std::fs::write(&ref_path, &fa).is_err() {
        fail("cannot write the reference FASTA");
    }

    // Cold index build versus cached load: what `--index-cache` (and a
    // long-lived daemon) amortizes away.
    let started = Instant::now();
    let set = reference.set();
    let cold_index_build_s = started.elapsed().as_secs_f64();
    let mut serialized = Vec::new();
    if set.write_to(&mut serialized).is_err() {
        fail("cannot serialize the reference set");
    }
    let started = Instant::now();
    if ReferenceSet::read_from(serialized.as_slice()).is_err() {
        fail("cannot reload the serialized reference set");
    }
    let cached_index_load_s = started.elapsed().as_secs_f64();

    let mut harness = scenario::harness(set, serve_options(), "harness construction");

    // Submit: 9 normal jobs + 1 oversized (must be REJECTED inline).
    let jobs = smoke_jobs(&reference.seq);
    let submitted = jobs.len() + 1;
    if let Some(refusal) = submit_all(&mut harness, &jobs).0.first() {
        fail(&format!(
            "job {:?} refused: {:?}",
            refusal.id, refusal.reason
        ));
    }
    match harness.submit(oversized_job(&reference.seq)) {
        Ok(Some(refusal)) if refusal.status == JobStatus::Rejected => {
            println!(
                "  oversized job rejected as specified: {}",
                refusal.reason.as_deref().unwrap_or("?")
            );
        }
        Ok(other) => fail(&format!("oversized job must be REJECTED, got {other:?}")),
        Err(e) => fail(&format!("oversized submit: {e}")),
    }

    // Graceful drain, then the byte-identity check per job.
    let responses = or_fail(harness.drain(), "drain");
    if responses.len() != jobs.len() {
        fail(&format!(
            "{} responses for {} accepted jobs",
            responses.len(),
            jobs.len()
        ));
    }
    let mut daemon_sam = Vec::new();
    let mut batch_sam = Vec::new();
    for job in &jobs {
        let response = match responses.iter().find(|r| r.id == job.id) {
            Some(r) => r,
            None => fail(&format!("no response for job {:?}", job.id)),
        };
        if response.status != JobStatus::Ok {
            fail(&format!("job {:?} not OK: {:?}", job.id, response.reason));
        }
        let sam = response.sam.as_deref().unwrap_or("");
        // Batch `repute map` over exactly this job's reads.
        let fq_path = dir.join(format!("{}.fq", job.id));
        let out_path = dir.join(format!("{}.sam", job.id));
        let records: Vec<FastqRecord> = job
            .reads
            .iter()
            .map(|(id, seq)| FastqRecord::with_uniform_quality(id.clone(), seq.clone(), 40))
            .collect();
        let mut fq = Vec::new();
        if write_fastq(&mut fq, &records).is_err() || std::fs::write(&fq_path, &fq).is_err() {
            fail("cannot write a job FASTQ");
        }
        let opts = repute_cli::MapOptions {
            reference: ref_path.to_string_lossy().into_owned(),
            reads: fq_path.to_string_lossy().into_owned(),
            delta: job.delta.unwrap_or(5),
            output: Some(out_path.to_string_lossy().into_owned()),
            ..repute_cli::MapOptions::default()
        };
        if let Err(e) = repute_cli::run_map(&opts) {
            fail(&format!("batch map for job {:?}: {e}", job.id));
        }
        let expected = match std::fs::read_to_string(&out_path) {
            Ok(text) => text,
            Err(_) => fail("cannot read the batch SAM"),
        };
        if sam != expected {
            fail(&format!(
                "job {:?}: daemon SAM differs from batch `repute map` \
                 ({} vs {} bytes)",
                job.id,
                sam.len(),
                expected.len()
            ));
        }
        daemon_sam.extend_from_slice(sam.as_bytes());
        batch_sam.extend_from_slice(expected.as_bytes());
    }
    if daemon_sam != batch_sam {
        fail("concatenated daemon SAM differs from concatenated batch SAM");
    }
    println!(
        "  byte-identity OK: {} jobs, {} SAM bytes each side",
        jobs.len(),
        daemon_sam.len()
    );

    // Accounting: every submission lands in exactly one counter bucket.
    let c = harness.counters();
    if c.accepted + c.rejected + c.retry_later != submitted as u64 {
        fail(&format!(
            "counters leak submissions: accepted {} + rejected {} + \
             retry-later {} != {submitted}",
            c.accepted, c.rejected, c.retry_later
        ));
    }
    if c.rejected != 1 || c.completed != jobs.len() as u64 {
        fail(&format!(
            "expected 1 rejection and {} completions, got {} and {}",
            jobs.len(),
            c.rejected,
            c.completed
        ));
    }
    let core = harness.core();
    let job_latency = core.latency_percentiles();
    if job_latency.0 != jobs.len() as u64 {
        fail("latency sample count != completed jobs");
    }
    if core.queue_depth() != 0 || core.queue_depth_high_water() < jobs.len() as u64 {
        fail("queue-depth gauge did not track the backlog");
    }
    std::fs::remove_dir_all(&dir).ok();
    SmokeResult {
        job_latency,
        simulated_seconds: core.simulated_seconds(),
        batches: c.batches,
        queue_high_water: core.queue_depth_high_water(),
        cold_index_build_s,
        cached_index_load_s,
    }
}

fn main() {
    let mode = GATE.mode();
    println!("Serve smoke ablation — daemon vs batch byte-identity, admission, accounting");
    println!(
        "pinned scale: {REF_LEN} bp reference, {} tenants × {JOBS_PER_TENANT} jobs × \
         {READS_PER_JOB} reads (+1 oversized)",
        TENANTS.len()
    );
    let result = run_smoke();
    let jobs = (TENANTS.len() * JOBS_PER_TENANT) as u64;
    let amortized_index_s_per_job = result.cold_index_build_s / jobs as f64;
    println!(
        "  {} batch(es) | simulated {:.6} s | queue high-water {}",
        result.batches, result.simulated_seconds, result.queue_high_water
    );
    println!(
        "  job latency: n={} p50 {:.6} p90 {:.6} p99 {:.6} (simulated s)",
        result.job_latency.0, result.job_latency.1, result.job_latency.2, result.job_latency.3
    );
    println!(
        "  index cost: cold build {:.4} s, cached load {:.4} s, amortized {:.5} s/job",
        result.cold_index_build_s, result.cached_index_load_s, amortized_index_s_per_job
    );
    println!("smoke OK");

    // Gated: the deterministic simulated service metrics. Informational:
    // wall-clock index costs (machine-dependent).
    let fields = [
        ("jobs", Integer(jobs)),
        ("batches", Integer(result.batches)),
        ("queue_depth_high_water", Integer(result.queue_high_water)),
        ("simulated_seconds", Gated(result.simulated_seconds)),
        ("job_p50_s", Gated(result.job_latency.1)),
        ("job_p90_s", Gated(result.job_latency.2)),
        ("job_p99_s", Gated(result.job_latency.3)),
        (
            "cold_index_build_s",
            Informational(result.cold_index_build_s),
        ),
        (
            "cached_index_load_s",
            Informational(result.cached_index_load_s),
        ),
        (
            "amortized_index_s_per_job",
            Informational(amortized_index_s_per_job),
        ),
    ];
    GATE.finish(mode, &fields, "service latency");
}
