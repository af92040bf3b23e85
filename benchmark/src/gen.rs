//! Input generation. Everything the program under test sees — the FASTA
//! reference, the FASTQ reads, the job envelopes — is derived from the
//! workload and `--seed` here, and handed over as files or byte strings.

use repute_genome::fasta::{write_fasta, FastaRecord};
use repute_genome::fastq::{write_fastq, FastqRecord};
use repute_genome::reads::{ReadOrigin, ReadSimulator};
use repute_genome::synth::{ReferenceBuilder, RepeatFamily};
use repute_serve::JobEnvelope;

use crate::spec::{Kind, Workload, READS_PER_JOB};

/// Name of the single reference record.
pub const REFERENCE_NAME: &str = "chrSim";

/// Generated inputs of one run.
pub struct Inputs {
    /// `reference.fa` as bytes.
    pub fasta: Vec<u8>,
    /// The reads, in file order.
    pub reads: Vec<FastqRecord>,
    /// Where each read came from (`None` for the unmappable ones).
    pub origins: Vec<Option<ReadOrigin>>,
}

/// The chr21-like repeat families of `crates/bench/src/workload.rs`,
/// re-stated so the benchmark depends on no bench-crate internals: old
/// diverged interspersed repeats plus young, nearly identical
/// subfamilies — the multi-mapping regime.
fn repeat_families(len: usize) -> Vec<RepeatFamily> {
    let family = |unit_len, per: usize, divergence| RepeatFamily {
        unit_len,
        copies: (len / per).max(1),
        divergence,
    };
    vec![
        family(300, 1_100, 0.12),
        family(2_000, 12_000, 0.18),
        family(300, 2_600, 0.015),
        family(80, 1_200, 0.01),
        family(1_500, 40_000, 0.008),
    ]
}

/// Share of simulated reads that are random noise.
const UNMAPPABLE: f64 = 0.02;

/// Generates the inputs of `workload` from `seed`. `read_count` is the
/// number of reads to simulate (the serve workload asks for
/// `jobs × READS_PER_JOB`).
pub fn generate(workload: &Workload, seed: u64, read_count: usize) -> Inputs {
    let mut builder = ReferenceBuilder::new(workload.ref_len).seed(seed);
    if workload.repeats {
        builder = builder.repeat_families(repeat_families(workload.ref_len));
    }
    let reference = builder.build();
    // The reads' stream is split off the seed as `repute simulate` does.
    let (reads, origins) = ReadSimulator::new(workload.read_len, read_count)
        .profile(workload.profile)
        .unmappable_fraction(UNMAPPABLE)
        .seed(seed ^ 0x5EED)
        .simulate_fastq(&reference)
        .into_iter()
        .unzip();
    let mut fasta = Vec::with_capacity(workload.ref_len + workload.ref_len / 60);
    write_fasta(
        &mut fasta,
        &[FastaRecord::new(REFERENCE_NAME, reference)],
        70,
    )
    .expect("writing FASTA into memory cannot fail");
    Inputs {
        fasta,
        reads,
        origins,
    }
}

/// Reads a run generates for `workload` in end-to-end (`trace = false`)
/// or traced mode. The traced run's reads are the first of the
/// end-to-end run's: the simulator draws read after read from one stream.
pub fn read_count(workload: &Workload, trace: bool) -> usize {
    match workload.kind {
        Kind::Map if trace => workload.trace_reads,
        Kind::Map => workload.reads,
        Kind::Serve if trace => workload.trace_jobs * READS_PER_JOB,
        Kind::Serve => workload.jobs * READS_PER_JOB,
    }
}

/// The reads as FASTQ bytes.
pub fn fastq_bytes(reads: &[FastqRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    write_fastq(&mut out, reads).expect("writing FASTQ into memory cannot fail");
    out
}

/// Splits the reads into job envelope lines of `READS_PER_JOB` inline
/// reads each, ids `job0`, `job1`, ….
pub fn job_lines(reads: &[FastqRecord]) -> Vec<String> {
    reads
        .chunks(READS_PER_JOB)
        .enumerate()
        .map(|(i, chunk)| {
            let reads = chunk
                .iter()
                .map(|r| (r.id.clone(), r.seq.clone()))
                .collect();
            JobEnvelope::new(format!("job{i}"), reads).to_json_line()
        })
        .collect()
}
