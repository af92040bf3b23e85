//! Fresh processes. Everything timed end to end runs in a child — the
//! binary re-executing itself with the hidden `child` subcommand, in the
//! run's work directory — so `peak_rss_mb` and the CPU times are the
//! program's, not the generator's or the checker's.
//! A child reports `key=value` pairs on its last stdout line.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use repute_cli::{IndexOptions, MapOptions};
use repute_core::{ReputeConfig, ReputeMapper};
use repute_eval::sam;
use repute_genome::fastq::FastqReader;
use repute_mappers::multiref::ReferenceSet;
use repute_mappers::Mapper;
use repute_obs::MapMetrics;
use repute_prefilter::PrefilterMode;

use crate::spec::{MAX_LOCATIONS, S_MIN};
use crate::stats::{cpu_seconds, peak_rss_mib};

/// File names inside the work directory (children run with it as cwd,
/// which also keeps the daemon's socket path short).
pub const REFERENCE_FA: &str = "reference.fa";
pub const INDEX_RPX: &str = "ref.rpx";
pub const READS_FQ: &str = "reads.fq";
pub const OUT_SAM: &str = "out.sam";

/// The numbers a child printed.
pub struct Report(Vec<(String, f64)>);

impl Report {
    pub fn get(&self, key: &str) -> Result<f64, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("child did not report {key:?}"))
    }
}

/// A child that has been started and not yet waited for.
pub struct Running {
    child: Child,
    args: Vec<String>,
}

/// Starts `child <args>` of this binary in `work`.
pub fn start(work: &Path, args: &[String]) -> Result<Running, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = Command::new(exe)
        .arg("child")
        .args(args)
        .current_dir(work)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning child {args:?}: {e}"))?;
    Ok(Running {
        child,
        args: args.to_vec(),
    })
}

impl Running {
    /// Waits for the child to end and parses its report.
    pub fn finish(self) -> Result<Report, String> {
        let args = self.args;
        let output = self
            .child
            .wait_with_output()
            .map_err(|e| format!("waiting for child {args:?}: {e}"))?;
        if !output.status.success() {
            let stderr = String::from_utf8_lossy(&output.stderr);
            let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
            return Err(format!(
                "child {args:?} failed ({}): {}",
                output.status,
                tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        let pairs = line
            .split_whitespace()
            .map(|pair| {
                let (k, v) = pair.split_once('=')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| format!("child {args:?} printed a malformed report: {line:?}"))?;
        Ok(Report(pairs))
    }
}

/// Runs `child <args>` of this binary in `work` and parses its report.
pub fn spawn(work: &Path, args: &[String]) -> Result<Report, String> {
    start(work, args)?.finish()
}

fn print_report(wall_s: f64, cpu_before: (f64, f64)) {
    let (user, sys) = cpu_seconds();
    println!(
        "wall_s={wall_s} user_s={} sys_s={} rss_mb={}",
        user - cpu_before.0,
        sys - cpu_before.1,
        peak_rss_mib()
    );
}

/// `child index`: `repute index` over `reference.fa`.
pub fn index() -> Result<(), String> {
    let opts = IndexOptions {
        reference: REFERENCE_FA.into(),
        output: INDEX_RPX.into(),
    };
    let cpu = cpu_seconds();
    let started = Instant::now();
    repute_cli::run_index(&opts).map_err(|e| e.to_string())?;
    print_report(started.elapsed().as_secs_f64(), cpu);
    Ok(())
}

/// `child map <delta> <prefilter>`: `repute map --index ref.rpx --reads
/// reads.fq --output out.sam` — index load, FASTQ parse, map, SAM write.
pub fn map(delta: u32, prefilter: PrefilterMode) -> Result<(), String> {
    let opts = MapOptions {
        index: Some(INDEX_RPX.into()),
        reads: READS_FQ.into(),
        output: Some(OUT_SAM.into()),
        delta,
        s_min: S_MIN,
        max_locations: MAX_LOCATIONS,
        prefilter,
        ..MapOptions::default()
    };
    let cpu = cpu_seconds();
    let started = Instant::now();
    repute_cli::run_map(&opts).map_err(|e| e.to_string())?;
    print_report(started.elapsed().as_secs_f64(), cpu);
    Ok(())
}

/// The arguments of a `child map` for a workload's configuration.
pub fn map_args(delta: u32, prefilter: PrefilterMode) -> Vec<String> {
    vec!["map".into(), delta.to_string(), prefilter.to_string()]
}

/// `child maploop <delta> <prefilter> <seconds> <tag>`: the read loop of
/// `repute map` over `reads.fq`, each read timed on its own.
///
/// One `repute map` is hundreds of milliseconds at the least, and on a
/// shared host no stretch that long is free of other tenants: the same
/// invocation reads 0.85 s in one minute and 1.5 s in the next. A read
/// is a millisecond. So the loop body of `repute_cli::run_map` — next
/// FASTQ record, `map_read_metered`, `resolve_mappings`,
/// `write_resolved_record` — runs here read by read, pass after pass
/// over the file until `seconds` have passed, and each read counts with
/// its fastest pass: its work is fixed, and interference only adds time.
/// The fastest times go to `floors.<tag>.txt`, one read a line, and the
/// SAM to `loop.<tag>.sam`, which the parent compares with what `repute
/// map` itself writes for the same files.
pub fn map_loop(
    delta: u32,
    prefilter: PrefilterMode,
    seconds: f64,
    tag: &str,
) -> Result<(), String> {
    fn err(e: impl std::fmt::Display) -> String {
        e.to_string()
    }
    let started = Instant::now();
    let file = File::open(INDEX_RPX).map_err(|e| format!("{INDEX_RPX}: {e}"))?;
    let set = ReferenceSet::read_from(BufReader::new(file)).map_err(err)?;
    let load_s = started.elapsed().as_secs_f64();
    let names: Vec<&str> = set.records().iter().map(|(n, _)| n.as_str()).collect();
    let header: Vec<(&str, usize)> = set
        .records()
        .iter()
        .map(|(n, l)| (n.as_str(), *l))
        .collect();
    let config = ReputeConfig::new(delta, S_MIN)
        .map_err(err)?
        .with_max_locations(MAX_LOCATIONS)
        .with_prefilter(prefilter);
    let mapper = ReputeMapper::new(Arc::clone(set.indexed()), config);
    let fastq = std::fs::read(READS_FQ).map_err(|e| format!("{READS_FQ}: {e}"))?;

    // Fastest time of each read so far, in file order.
    let mut best: Vec<f64> = Vec::new();
    let mut first_sam: Option<Vec<u8>> = None;
    let (mut samples, mut identical) = (0u64, true);
    let loop_started = Instant::now();
    let mut time_is_up = false;
    while !time_is_up {
        let mut out = Vec::new();
        sam::write_header_multi(&mut out, &header).map_err(err)?;
        let mut reader = FastqReader::new(fastq.as_slice());
        let mut read = 0;
        loop {
            time_is_up = loop_started.elapsed().as_secs_f64() >= seconds;
            if time_is_up && first_sam.is_some() {
                break; // a pass cut short is not compared
            }
            let read_started = Instant::now();
            let Some(record) = reader.next() else { break };
            let record = record.map_err(err)?;
            let mut metrics = MapMetrics::new();
            let raw = mapper.map_read_metered(&record.seq, &mut metrics).mappings;
            let resolved = set.resolve_mappings(record.seq.len(), &raw);
            sam::write_resolved_record(&mut out, &names, &record.id, &record.seq, &resolved, None)
                .map_err(err)?;
            let took = read_started.elapsed().as_secs_f64();
            match best.get_mut(read) {
                None => best.push(took),
                Some(best) => *best = best.min(took),
            }
            read += 1;
            samples += 1;
        }
        match &first_sam {
            None => first_sam = Some(out),
            Some(first) if read == best.len() => identical &= *first == out,
            Some(_) => {}
        }
    }
    let (sam_file, floors_file) = (loop_sam(tag), loop_floors(tag));
    std::fs::write(&sam_file, first_sam.unwrap_or_default())
        .map_err(|e| format!("{sam_file}: {e}"))?;
    let floors: String = best.iter().map(|b| format!("{b}\n")).collect();
    std::fs::write(&floors_file, floors).map_err(|e| format!("{floors_file}: {e}"))?;
    println!(
        "load_s={load_s} samples={samples} identical={}",
        u8::from(identical)
    );
    Ok(())
}

/// Where `child maploop <tag>` leaves its SAM.
pub fn loop_sam(tag: &str) -> String {
    format!("loop.{tag}.sam")
}

/// Where `child maploop <tag>` leaves each read's fastest time.
pub fn loop_floors(tag: &str) -> String {
    format!("floors.{tag}.txt")
}

/// The arguments of a `child maploop`.
pub fn map_loop_args(delta: u32, prefilter: PrefilterMode, seconds: f64, tag: &str) -> Vec<String> {
    let mut args = map_args(delta, prefilter);
    args[0] = "maploop".into();
    args.extend([seconds.to_string(), tag.to_string()]);
    args
}
