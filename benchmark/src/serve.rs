//! The daemon workload: `ServeCore` + journal + the Unix-socket
//! transport in one process, driven by one closed-loop client that
//! submits one job per connection and waits for its SAM; then the same
//! jobs through the core alone, in one thread, each timed on its own.

use std::hint::black_box;
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use repute_hetsim::profiles;
use repute_mappers::multiref::ReferenceSet;
use repute_serve::transport::{serve_socket, shutdown_over_socket, submit_over_socket};
use repute_serve::{JobResponse, JobStatus, ServeCore, ServeCounters, ServeHarness, ServeOptions};

use crate::check::parse_sam;
use crate::child::INDEX_RPX;
use crate::spec::READS_PER_JOB;
use crate::stats::{fnv64, peak_rss_mib};

pub const JOBS_JSONL: &str = "jobs.jsonl";
pub const RESULTS_TSV: &str = "serve_results.tsv";
const JOURNAL: &str = "serve.journal";
const SOCKET: &str = "s.sock";

/// One job of a `child serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Wall latency over the socket, connect to parsed response.
    pub latency_s: f64,
    /// Fastest time through the in-process core over the passes of
    /// [`core_run`] (0 when that phase did not run).
    pub core_s: f64,
    /// Every response, from the socket and from the core, was `OK` and
    /// carried the same SAM.
    pub ok: bool,
    /// FNV-64 of the response's SAM (0 without one).
    pub sam_fnv64: u64,
}

/// What a socket run measured.
pub struct SocketRun {
    /// Index load + `ServeCore::new` + `attach_journal` until the socket
    /// accepted a connection.
    pub setup_s: f64,
    /// First submit to last response.
    pub wall_s: f64,
    /// Per job, in job order.
    pub results: Vec<JobResult>,
    pub counters: ServeCounters,
    pub journal_bytes: u64,
}

/// The daemon's configuration in every phase. One host thread: with the
/// automatic setting the executor spawns two scoped workers for every
/// 4-read batch, and on two shared vCPUs their wake-ups made the same
/// job read 1.25 ms in one run and 1.8 ms in the next.
pub fn options(delta: u32) -> ServeOptions {
    ServeOptions {
        delta,
        host_threads: 1,
        ..ServeOptions::default()
    }
}

fn load_index() -> Result<ReferenceSet, String> {
    let file = std::fs::File::open(INDEX_RPX).map_err(|e| format!("{INDEX_RPX}: {e}"))?;
    ReferenceSet::read_from(BufReader::new(file)).map_err(|e| e.to_string())
}

fn digest(response: &JobResponse) -> u64 {
    response.sam.as_deref().map_or(0, |s| fnv64(s.as_bytes()))
}

/// Starts the daemon on `index` in the current directory and sends it
/// `lines` once from one closed-loop client: one connection per job, the
/// next job sent when the last one's SAM is back.
pub fn socket_run(delta: u32, lines: &[String]) -> Result<SocketRun, String> {
    let err = |e: repute_core::ReputeError| e.to_string();
    let started = Instant::now();
    let mut core =
        ServeCore::new(load_index()?, profiles::system1(), options(delta)).map_err(err)?;
    core.attach_journal(Path::new(JOURNAL), false)
        .map_err(err)?;
    let socket = Path::new(SOCKET);

    let (setup_s, wall_s, results) = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| serve_socket(&mut core, socket));
        while UnixStream::connect(socket).is_err() {
            if daemon.is_finished() {
                break; // bind failed; the join below reports why
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let setup_s = started.elapsed().as_secs_f64();

        let load_started = Instant::now();
        let results: Vec<JobResult> = lines
            .iter()
            .map(|line| {
                let sent = Instant::now();
                let response = submit_over_socket(socket, std::slice::from_ref(line));
                let latency_s = sent.elapsed().as_secs_f64();
                let (ok, sam_fnv64) = match response.as_deref() {
                    Ok([r]) => (r.status == JobStatus::Ok, digest(r)),
                    _ => (false, 0),
                };
                JobResult {
                    latency_s,
                    core_s: 0.0,
                    ok,
                    sam_fnv64,
                }
            })
            .collect();
        let wall_s = load_started.elapsed().as_secs_f64();
        let stop = shutdown_over_socket(socket).map_err(err);
        let served = daemon.join().expect("daemon thread panicked").map_err(err);
        stop.and(served).map(|()| (setup_s, wall_s, results))
    })?;

    Ok(SocketRun {
        setup_s,
        wall_s,
        results,
        counters: core.counters(),
        journal_bytes: core.journal_size_bytes().map_err(err)?.unwrap_or(0),
    })
}

/// The daemon's own processor work per job, without socket and journal:
/// request line → `submit_line` (parse, admission) → `run_batch`
/// (batch planning, the scheduled executor, the simulated timeline) →
/// `to_json_line`, in one thread, job after job and pass after pass
/// until `seconds` have passed. A job counts with its fastest pass — its
/// work is fixed, and what else runs on the machine only adds time —
/// which is written to `results[job].core_s`. Returns the jobs sent.
///
/// Over the socket a job is four thread wake-ups on top of this, and
/// with the journal two `sync_data` calls; how long a halted vCPU takes
/// to come back and how long the disk takes to sync are the host's
/// business. The same 1 000 jobs read 1.26 and 2.4 ms at the median over
/// the socket in two runs of one commit, and 1.4 and 2.2 ms through this
/// loop with a journal attached, against 0.95–0.98 ms without. The
/// socket pass reports its latencies as notes, the traced run as
/// `serve.transport_ms` and `serve.submit_p50_s`.
pub fn core_run(
    delta: u32,
    lines: &[String],
    seconds: f64,
    results: &mut [JobResult],
) -> Result<usize, String> {
    let err = |e: repute_core::ReputeError| e.to_string();
    let mut harness =
        ServeHarness::new(load_index()?, profiles::system1(), options(delta)).map_err(err)?;
    let started = Instant::now();
    let mut sent = 0;
    while !lines.is_empty() && (sent < lines.len() || started.elapsed().as_secs_f64() < seconds) {
        let job = sent % lines.len();
        let job_started = Instant::now();
        let refusal = harness.submit_line(&lines[job]).map_err(err)?;
        let responses = harness.run_batch().map_err(err)?;
        let encoded = responses.first().map(JobResponse::to_json_line);
        let took = job_started.elapsed().as_secs_f64();
        black_box(encoded);
        sent += 1;

        let result = &mut results[job];
        result.core_s = if sent <= lines.len() {
            took
        } else {
            result.core_s.min(took)
        };
        result.ok &= match (refusal, responses.as_slice()) {
            (None, [r]) => r.status == JobStatus::Ok && digest(r) == result.sam_fnv64,
            _ => false,
        };
    }
    Ok(sent)
}

/// The arguments of a `child serve`.
pub fn child_args(delta: u32, seconds: f64, jobs: usize) -> Vec<String> {
    vec![
        "serve".into(),
        delta.to_string(),
        seconds.to_string(),
        jobs.to_string(),
    ]
}

/// `child serve <delta> <seconds> <jobs>`: a socket run over the first
/// `jobs` lines of `jobs.jsonl` (none: set-up only), then the same jobs
/// through the in-process core for `seconds`; per-job results go to
/// `serve_results.tsv`.
pub fn child(delta: u32, seconds: f64, jobs: usize) -> Result<(), String> {
    let text = std::fs::read_to_string(JOBS_JSONL).map_err(|e| format!("{JOBS_JSONL}: {e}"))?;
    let lines: Vec<String> = text.lines().take(jobs).map(str::to_string).collect();
    let mut run = socket_run(delta, &lines)?;
    // The daemon's memory, before the second core of the timed phase.
    let rss_mb = peak_rss_mib();
    let core_jobs = core_run(delta, &lines, seconds, &mut run.results)?;
    let mut tsv = String::new();
    for r in &run.results {
        tsv.push_str(&format!(
            "{}\t{}\t{}\t{:016x}\n",
            r.latency_s,
            r.core_s,
            u8::from(r.ok),
            r.sam_fnv64
        ));
    }
    std::fs::write(RESULTS_TSV, tsv).map_err(|e| format!("{RESULTS_TSV}: {e}"))?;
    println!(
        "setup_s={} wall_s={} rss_mb={rss_mb} core_jobs={core_jobs} completed={} batches={} \
         journal_bytes={}",
        run.setup_s, run.wall_s, run.counters.completed, run.counters.batches, run.journal_bytes
    );
    Ok(())
}

/// Parses `serve_results.tsv`.
pub fn read_results(bytes: &[u8]) -> Result<Vec<JobResult>, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("{RESULTS_TSV}: {e}"))?;
    text.lines()
        .map(|line| {
            let mut f = line.split('\t');
            Some(JobResult {
                latency_s: f.next()?.parse().ok()?,
                core_s: f.next()?.parse().ok()?,
                ok: f.next()? == "1",
                sam_fnv64: u64::from_str_radix(f.next()?, 16).ok()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("malformed {RESULTS_TSV}"))
}

/// The digest each job's SAM must have, from batch `repute map` output
/// over the jobs' reads in order: the header plus the job's read blocks.
pub fn expected_job_digests(batch_sam: &str) -> Result<Vec<u64>, String> {
    let (header, blocks) = parse_sam(batch_sam)?;
    Ok(blocks
        .chunks(READS_PER_JOB)
        .map(|job| {
            let mut sam = header.to_string();
            for block in job {
                sam.push_str(block.text);
            }
            fnv64(sam.as_bytes())
        })
        .collect())
}
