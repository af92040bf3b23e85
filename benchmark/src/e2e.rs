//! The end-to-end run (`--trace 0`): set-up and timed repetitions in
//! fresh child processes, tracing off, outputs checked afterwards.

use std::path::{Path, PathBuf};

use crate::check::{parse_sam, recall};
use crate::child::{self, OUT_SAM, READS_FQ, REFERENCE_FA};
use crate::gen::{self, Inputs};
use crate::serve::{self, JOBS_JSONL, RESULTS_TSV};
use crate::spec::{Kind, Workload};
use crate::stats::{fnv64, median, percentile};

/// Measured metrics: `(name as in spec.rs, value)`.
pub type Metrics = Vec<(&'static str, f64)>;

/// What one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures that are not per-operation (a SAM that
    /// changed between repetitions, say).
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Facts that are not metrics: digests, repetition counts.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Where runs leave their files: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under `benchmark/out/`, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> Result<WorkDir, String> {
        let path = out_dir().join(format!("work-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {path:?}: {e}"))?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    pub fn write(&self, name: &str, bytes: &[u8]) -> Result<(), String> {
        let path = self.0.join(name);
        std::fs::write(&path, bytes).map_err(|e| format!("writing {path:?}: {e}"))
    }

    pub fn read(&self, name: &str) -> Result<Vec<u8>, String> {
        let path = self.0.join(name);
        std::fs::read(&path).map_err(|e| format!("reading {path:?}: {e}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(workload: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = gen::generate(workload, seed, gen::read_count(workload, false));
    let work = WorkDir::create(&format!("{}-s{seed}-e2e", workload.name))?;
    work.write(REFERENCE_FA, &inputs.fasta)?;
    match workload.kind {
        Kind::Map => run_map(workload, &inputs, &work, seconds),
        Kind::Serve => run_serve(workload, &inputs, &work, seconds),
    }
}

/// Comma-separated seconds, for the notes.
fn seconds_list(values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    cells.join(",")
}

/// The map workloads: `repute index` three times; the read loop of
/// `repute map` read by read for `seconds` (see [`child::map_loop`]), in
/// one process per vCPU at once; then `repute map` itself, whose SAM the
/// loops' must equal. A read counts with its fastest time in any loop:
/// the vCPUs are slowed by other tenants independently of each other,
/// so two loops side by side see a quiet stretch twice as often as one.
fn run_map(
    workload: &Workload,
    inputs: &Inputs,
    work: &WorkDir,
    seconds: f64,
) -> Result<Outcome, String> {
    work.write(READS_FQ, &gen::fastq_bytes(&inputs.reads))?;
    let mut setups = Vec::new();
    for _ in 0..workload.setups {
        setups.push(child::spawn(work.path(), &["index".into()])?.get("wall_s")?);
    }
    let loops = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tags: Vec<String> = (0..loops).map(|i| i.to_string()).collect();
    let started = tags
        .iter()
        .map(|tag| {
            let args = child::map_loop_args(workload.delta, workload.prefilter, seconds, tag);
            child::start(work.path(), &args)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let timed = started
        .into_iter()
        .map(child::Running::finish)
        .collect::<Result<Vec<_>, _>>()?;
    let program = child::spawn(
        work.path(),
        &child::map_args(workload.delta, workload.prefilter),
    )?;

    let mut out = Outcome::default();
    let sam = work.read(OUT_SAM)?;
    let mut best = vec![f64::INFINITY; inputs.reads.len()];
    let (mut samples, mut loads) = (0.0, Vec::new());
    for (tag, report) in tags.iter().zip(&timed) {
        if work.read(&child::loop_sam(tag))? != sam {
            out.problems.push(format!(
                "read loop {tag} wrote a SAM that differs from `repute map`'s"
            ));
        }
        if report.get("identical")? != 1.0 {
            out.problems.push(format!(
                "read loop {tag}: a later pass wrote another SAM than the first"
            ));
        }
        let floors = work.read(&child::loop_floors(tag))?;
        let floors: Vec<f64> = std::str::from_utf8(&floors)
            .ok()
            .and_then(|text| text.lines().map(|line| line.parse().ok()).collect())
            .filter(|floors: &Vec<f64>| floors.len() == best.len())
            .ok_or_else(|| format!("read loop {tag} left malformed per-read times"))?;
        for (best, floor) in best.iter_mut().zip(floors) {
            *best = best.min(floor);
        }
        samples += report.get("samples")?;
        loads.push(report.get("load_s")?);
    }
    let text = std::str::from_utf8(&sam).map_err(|e| format!("out.sam is not UTF-8: {e}"))?;
    let (_, blocks) = parse_sam(text)?;
    let recall = recall(&inputs.reads, &inputs.origins, &blocks, workload.delta)?;
    out.attempted = recall.attempted;
    out.failed = recall.failed;
    let reads = inputs.reads.len() as f64;
    out.metrics = vec![
        ("setup_s", median(&setups)),
        ("reads_per_s", reads / best.iter().sum::<f64>()),
        ("peak_rss_mb", program.get("rss_mb")?),
        ("job_p50_ms", median(&best) * 1e3),
    ];
    out.notes = vec![
        ("sam_fnv64", format!("{:016x}", fnv64(&sam))),
        ("loops", loops.to_string()),
        ("passes", format!("{:.2}", samples / reads)),
        ("capped_reads", recall.capped.to_string()),
        ("setups_s", seconds_list(&setups)),
        ("index_load_s", seconds_list(&loads)),
        ("map_wall_s", seconds_list(&[program.get("wall_s")?])),
    ];
    Ok(out)
}

/// The daemon workload: the daemon's set-up three times; every job once
/// over the socket; the same jobs through the in-process core, each
/// timed on its own, for `seconds` (see [`serve::core_run`]); then
/// `repute map` over all the jobs' reads, whose SAM every job's answer
/// must equal.
fn run_serve(
    workload: &Workload,
    inputs: &Inputs,
    work: &WorkDir,
    seconds: f64,
) -> Result<Outcome, String> {
    let lines = gen::job_lines(&inputs.reads);
    work.write(JOBS_JSONL, (lines.join("\n") + "\n").as_bytes())?;
    // The daemon loads a prebuilt index; building it is not its set-up.
    child::spawn(work.path(), &["index".into()])?;
    let mut setups = Vec::new();
    for _ in 1..workload.setups {
        let args = serve::child_args(workload.delta, 0.0, 0);
        setups.push(child::spawn(work.path(), &args)?.get("setup_s")?);
    }
    let args = serve::child_args(workload.delta, seconds, lines.len());
    let report = child::spawn(work.path(), &args)?;
    setups.push(report.get("setup_s")?);
    let results = serve::read_results(&work.read(RESULTS_TSV)?)?;

    // The daemon's determinism contract: each job's SAM equals batch
    // `repute map` over the same reads.
    work.write(READS_FQ, &gen::fastq_bytes(&inputs.reads))?;
    child::spawn(
        work.path(),
        &child::map_args(workload.delta, workload.prefilter),
    )?;
    let sam = work.read(OUT_SAM)?;
    let text = std::str::from_utf8(&sam).map_err(|e| format!("out.sam is not UTF-8: {e}"))?;
    let expected = serve::expected_job_digests(text)?;
    if expected.len() != lines.len() || results.len() != lines.len() {
        return Err(format!(
            "{} jobs submitted, {} answered, batch map gave {} job blocks",
            lines.len(),
            results.len(),
            expected.len()
        ));
    }

    let mut out = Outcome {
        attempted: results.len() as u64,
        ..Outcome::default()
    };
    for (result, digest) in results.iter().zip(&expected) {
        if !result.ok || result.sam_fnv64 != *digest {
            out.failed += 1;
        }
    }
    let core_ms: Vec<f64> = results.iter().map(|r| r.core_s * 1e3).collect();
    let socket_ms: Vec<f64> = results.iter().map(|r| r.latency_s * 1e3).collect();
    out.metrics = vec![
        ("setup_s", median(&setups)),
        (
            "reads_per_s",
            inputs.reads.len() as f64 * 1e3 / core_ms.iter().sum::<f64>(),
        ),
        ("peak_rss_mb", report.get("rss_mb")?),
        ("job_p50_ms", percentile(&core_ms, 50.0)),
    ];
    out.notes = vec![
        ("sam_fnv64", format!("{:016x}", fnv64(&sam))),
        ("jobs", results.len().to_string()),
        (
            "passes",
            format!("{:.2}", report.get("core_jobs")? / results.len() as f64),
        ),
        ("setups_s", seconds_list(&setups)),
        (
            "socket_jobs_per_s",
            format!("{:.1}", results.len() as f64 / report.get("wall_s")?),
        ),
        (
            "socket_job_p50_ms",
            format!("{:.3}", percentile(&socket_ms, 50.0)),
        ),
        (
            "socket_job_p99_ms",
            format!("{:.3}", percentile(&socket_ms, 99.0)),
        ),
    ];
    Ok(out)
}
