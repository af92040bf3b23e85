//! The scenarios the check binaries share.
//!
//! The four ablations (`prefilter`, `schedule`, `faults`, `resume`) map
//! the same `(100, 5)` REPUTE cell of the scaled workload, three of them
//! on the same four-CPU platform; the three `serve_*` smokes drive an
//! in-process daemon over a pinned 60 kbp reference with one tenant × job
//! grid. Each of those is written here once; the binaries keep what they
//! check.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use repute_core::{MappingRun, ReputeConfig, ReputeMapper, Schedule};
use repute_genome::synth::ReferenceBuilder;
use repute_genome::DnaSeq;
use repute_hetsim::{profiles, Platform};
use repute_mappers::multiref::ReferenceSet;
use repute_mappers::Mapping;
use repute_serve::{JobEnvelope, JobResponse, ServeHarness, ServeOptions};

use crate::gate::{fail, or_fail};
use crate::workload::{s_min_for, Scale, Workload};

/// Devices of [`quad_platform`].
pub const QUAD_DEVICES: usize = 4;

/// Four identical CPU devices: the simplest platform on which even
/// static shares pin a skewed read set to one device while greedy batch
/// pulling spreads it, on which share threads map 1:1 to host cores, and
/// on which killing `k` devices leaves `4 - k` equal survivors.
pub fn quad_platform() -> Platform {
    Platform::new(
        "quad-cpu",
        1.0,
        (0..QUAD_DEVICES)
            .map(|_| profiles::intel_i7_2600())
            .collect(),
    )
}

/// The per-read mapping lists of a run, in read order.
pub fn mappings_of(run: &MappingRun) -> Vec<Vec<Mapping>> {
    run.outputs.iter().map(|o| o.mappings.clone()).collect()
}

/// Both schedules over `items` reads: even static shares of `platform`
/// and dynamic batch pulling.
pub fn both_schedules(platform: &Platform, items: usize) -> [(&'static str, Schedule); 2] {
    [
        ("static", Schedule::Static(platform.even_shares(items))),
        ("dynamic", Schedule::Dynamic { batch: 0 }),
    ]
}

/// The `(read length, δ)` cell every ablation maps.
pub const ABLATION_CELL: (usize, u32) = (100, 5);

/// The ablations' workload: the scaled reference, the reads of
/// [`ABLATION_CELL`] and the REPUTE mapper configured for it.
#[derive(Debug)]
pub struct Ablation {
    /// The whole scaled workload.
    pub workload: Workload,
    /// The n=100 read sequences.
    pub reads: Vec<DnaSeq>,
    /// δ=5 with the paper's `S_min` for the cell, no prefilter.
    pub config: ReputeConfig,
    /// REPUTE under `config`.
    pub mapper: ReputeMapper,
}

impl Ablation {
    /// Generates the workload at `scale` and builds the mapper.
    pub fn generate(scale: Scale) -> Ablation {
        let workload = Workload::generate(scale);
        let (n, delta) = ABLATION_CELL;
        let config = ReputeConfig::new(delta, s_min_for(n, delta)).expect("valid config");
        Ablation {
            reads: workload.read_seqs(n),
            mapper: ReputeMapper::new(Arc::clone(&workload.indexed), config),
            config,
            workload,
        }
    }
}

/// A fresh, empty `repute-bench-<what>` directory under the system
/// temporary directory.
pub fn scratch_dir(what: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repute-bench-{what}"));
    std::fs::remove_dir_all(&dir).ok();
    if std::fs::create_dir_all(&dir).is_err() {
        fail(&format!("cannot create the {what} scratch directory"));
    }
    dir
}

/// Length of the pinned serve reference. The serve smokes ignore the
/// environment overrides so their committed baselines stay comparable.
pub const SERVE_REF_LEN: usize = 60_000;

/// The tenants of every serve smoke.
pub const TENANTS: [&str; 3] = ["acme", "lab", "edge"];

/// Jobs per tenant of [`smoke_jobs`].
pub const SMOKE_JOBS_PER_TENANT: usize = 3;

/// Reads per job of [`smoke_jobs`].
pub const SMOKE_READS_PER_JOB: usize = 4;

/// The pinned serve reference: one record of [`SERVE_REF_LEN`] bases.
#[derive(Debug, Clone)]
pub struct ServeReference {
    /// The record's name (it appears in every SAM line).
    pub name: &'static str,
    /// The sequence.
    pub seq: DnaSeq,
}

impl ServeReference {
    /// Builds the reference deterministically from `seed`.
    pub fn new(name: &'static str, seed: u64) -> ServeReference {
        ServeReference {
            name,
            seq: ReferenceBuilder::new(SERVE_REF_LEN).seed(seed).build(),
        }
    }

    /// Indexes the reference (a cold build on every call).
    pub fn set(&self) -> ReferenceSet {
        ReferenceSet::build(vec![(self.name.to_string(), self.seq.clone())])
    }
}

/// One job per `(tenant, j)` for every tenant of [`TENANTS`] and
/// `j < jobs_per_tenant`, named `<tenant>-<j>`; job number `t *
/// jobs_per_tenant + j` carries `reads_per_job` error-free 100 bp reads
/// cut at `start(job, read)` and the per-job override `delta(job)`.
pub fn tenant_jobs(
    reference: &DnaSeq,
    jobs_per_tenant: usize,
    reads_per_job: usize,
    start: impl Fn(usize, usize) -> usize,
    delta: impl Fn(usize) -> u32,
) -> Vec<JobEnvelope> {
    let mut jobs = Vec::new();
    for (t, tenant) in TENANTS.iter().enumerate() {
        for j in 0..jobs_per_tenant {
            let job = t * jobs_per_tenant + j;
            let reads = (0..reads_per_job)
                .map(|i| {
                    let at = start(job, i);
                    (format!("{tenant}-{j}-r{i}"), reference.subseq(at..at + 100))
                })
                .collect();
            jobs.push(
                JobEnvelope::new(format!("{tenant}-{j}"), reads)
                    .with_tenant(*tenant)
                    .with_delta(delta(job)),
            );
        }
    }
    jobs
}

/// The 9 jobs of `serve_smoke` and `serve_hardening`: 3 tenants × 3 jobs
/// × 4 reads, alternating δ ∈ {3, 5} overrides so the coalescer must
/// split batches by configuration.
pub fn smoke_jobs(reference: &DnaSeq) -> Vec<JobEnvelope> {
    tenant_jobs(
        reference,
        SMOKE_JOBS_PER_TENANT,
        SMOKE_READS_PER_JOB,
        |job, read| 1_000 + job * 5_000 + read * 700,
        |job| if job % 2 == 0 { 3 } else { 5 },
    )
}

/// An in-process daemon over `set` on System 1; a construction error is
/// `FAIL: <what>: …`.
pub fn harness(set: ReferenceSet, options: ServeOptions, what: &str) -> ServeHarness {
    or_fail(ServeHarness::new(set, profiles::system1(), options), what)
}

/// Like [`harness`], journaling through `path`; with `resume` the
/// journal is replayed first and the committed responses returned.
pub fn journaled_harness(
    set: ReferenceSet,
    options: ServeOptions,
    path: &Path,
    resume: bool,
    what: &str,
) -> (ServeHarness, Vec<JobResponse>) {
    let built = ServeHarness::with_journal(set, profiles::system1(), options, path, resume);
    or_fail(built, what)
}

/// Submits every job; returns the inline refusals and the accepted ids
/// in submission order.
pub fn submit_all(
    harness: &mut ServeHarness,
    jobs: &[JobEnvelope],
) -> (Vec<JobResponse>, Vec<String>) {
    let mut refusals = Vec::new();
    let mut accepted = Vec::new();
    for job in jobs {
        match or_fail(harness.submit(job.clone()), &format!("submit {:?}", job.id)) {
            None => accepted.push(job.id.clone()),
            Some(refusal) => refusals.push(refusal),
        }
    }
    (refusals, accepted)
}

/// The SAM text of every response, by job id; a response without SAM is
/// a failure.
pub fn sam_by_id(responses: &[JobResponse]) -> HashMap<String, String> {
    let sam = |r: &JobResponse| {
        r.sam
            .clone()
            .unwrap_or_else(|| fail("completed job without SAM"))
    };
    responses.iter().map(|r| (r.id.clone(), sam(r))).collect()
}
