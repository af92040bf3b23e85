//! `repute map` writes its SAM and `--metrics-out` as it maps: to stdout
//! as each chunk of reads is mapped, or to `<output>.tmp`, renamed into
//! place when the run succeeds and removed when it fails — the same
//! bytes for every host-thread count.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use repute_cli::{run_simulate, SimulateOptions};

/// A directory of this process's own under the system temp dir, removed
/// on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("repute-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }

    fn exists(&self, name: &str) -> bool {
        Path::new(&self.path(name)).exists()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Plain `repute map` over the dataset in `dir` with `reads`, telemetry
/// to `<metrics>`, and `extra` flags.
fn repute_map(dir: &TempDir, reads: &str, metrics: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repute"))
        .arg("map")
        .args(["--reference", &dir.path("reference.fa")])
        .args(["--reads", &dir.path(reads)])
        .args(["--metrics-out", &dir.path(metrics)])
        .args(extra)
        .output()
        .expect("run repute")
}

/// The telemetry file with its host wall-clock values blanked: what two
/// runs of the same input must agree on byte for byte.
fn without_wall_clock(path: &str) -> String {
    let text = std::fs::read_to_string(path).expect("telemetry written");
    let mut out = String::new();
    for line in text.lines() {
        let mut rest = line;
        while let Some(at) = ["\"wall_seconds\":", "\"seconds\":"]
            .iter()
            .filter_map(|key| rest.find(key).map(|at| at + key.len()))
            .min()
        {
            out.push_str(&rest[..at]);
            out.push('_');
            let end = rest[at..]
                .find([',', '}'])
                .map_or(rest.len(), |end| at + end);
            rest = &rest[end..];
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
}

#[test]
fn stdout_and_output_get_the_same_bytes_and_a_failed_run_leaves_no_file() {
    let dir = TempDir::new("streamed-output");
    run_simulate(&SimulateOptions {
        out_dir: dir.path(""),
        length: 60_000,
        reads: 40,
        read_len: 100,
        seed: 73,
        profile: "err012100".into(),
    })
    .expect("dataset");

    let to_file = repute_map(
        &dir,
        "reads.fq",
        "file.jsonl",
        &["--output", &dir.path("out.sam")],
    );
    assert!(to_file.status.success(), "{to_file:?}");
    assert!(to_file.stdout.is_empty());
    let to_stdout = repute_map(&dir, "reads.fq", "stdout.jsonl", &[]);
    assert!(to_stdout.status.success(), "{to_stdout:?}");
    let sam = std::fs::read(dir.path("out.sam")).expect("SAM written");
    assert!(sam.starts_with(b"@HD") && sam.len() > 40 * 100);
    assert_eq!(to_stdout.stdout, sam);
    assert_eq!(
        without_wall_clock(&dir.path("file.jsonl")),
        without_wall_clock(&dir.path("stdout.jsonl"))
    );
    for name in ["out.sam.tmp", "file.jsonl.tmp", "stdout.jsonl.tmp"] {
        assert!(!dir.exists(name), "{name} left behind");
    }

    // Reads that turn malformed after forty good ones: the SAM rows and
    // telemetry lines of those forty were written, then the run fails
    // with the input-parse class, and neither file nor its `.tmp` stays.
    let mut broken = std::fs::read(dir.path("reads.fq")).expect("reads");
    broken.extend_from_slice(b"@late\nACGT\n+\n");
    std::fs::write(dir.path("broken.fq"), broken).expect("broken reads");
    let failed = repute_map(
        &dir,
        "broken.fq",
        "failed.jsonl",
        &["--output", &dir.path("failed.sam")],
    );
    assert_eq!(failed.status.code(), Some(3), "{failed:?}");
    for name in [
        "failed.sam",
        "failed.sam.tmp",
        "failed.jsonl",
        "failed.jsonl.tmp",
    ] {
        assert!(!dir.exists(name), "{name} left behind");
    }
}

/// The `read` records of a `--metrics-out` file, in file order.
fn read_records(path: &str) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("telemetry written");
    text.lines()
        .filter(|line| line.starts_with("{\"type\":\"read\""))
        .map(String::from)
        .collect()
}

#[test]
fn every_host_thread_count_writes_the_same_bytes_plain_and_priced() {
    let dir = TempDir::new("host-threads");
    // More reads than one chunk of the mapping loop, the last chunk short.
    run_simulate(&SimulateOptions {
        out_dir: dir.path(""),
        length: 60_000,
        reads: 150,
        read_len: 100,
        seed: 79,
        profile: "err012100".into(),
    })
    .expect("dataset");

    let mut sams = Vec::new();
    let mut reads = Vec::new();
    let mut traces = Vec::new();
    for threads in ["1", "2", "4"] {
        for priced in [false, true] {
            let tag = format!("{threads}{}", if priced { "p" } else { "" });
            let (sam, trace) = (format!("{tag}.sam"), format!("{tag}.json"));
            let (sam_path, trace_path) = (dir.path(&sam), dir.path(&trace));
            let mut extra = vec!["--host-threads", threads, "--output", &sam_path];
            if priced {
                extra.extend([
                    "--platform",
                    "system1",
                    "--schedule",
                    "dynamic",
                    "--trace-out",
                    &trace_path,
                ]);
            }
            let run = repute_map(&dir, "reads.fq", &format!("{tag}.jsonl"), &extra);
            assert!(run.status.success(), "{tag}: {run:?}");
            sams.push((tag.clone(), std::fs::read(&sam_path).expect("SAM written")));
            reads.push((
                tag.clone(),
                read_records(&dir.path(&format!("{tag}.jsonl"))),
            ));
            if priced {
                traces.push((tag, std::fs::read(&trace_path).expect("trace written")));
            }
        }
    }
    assert_eq!(reads[0].1.len(), 150);
    for (tag, sam) in &sams[1..] {
        assert!(*sam == sams[0].1, "{tag}: SAM differs from {}", sams[0].0);
    }
    for (tag, records) in &reads[1..] {
        assert!(*records == reads[0].1, "{tag}: read records differ");
    }
    for (tag, trace) in &traces[1..] {
        assert!(*trace == traces[0].1, "{tag}: trace differs");
    }
}

/// The `--metrics-out` records that do not carry the host wall clock or
/// the resume count: per read, per device, per batch event, energy.
fn deterministic_records(path: &str) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("telemetry written");
    text.lines()
        .filter(|line| {
            ["read", "device", "event", "energy"]
                .iter()
                .any(|kind| line.starts_with(&format!("{{\"type\":\"{kind}\"")))
        })
        .map(String::from)
        .collect()
}

/// A `--trace-out` file's events, one per line, less those of the
/// `checkpoint` category, and how many of those there were.
fn trace_without_checkpoints(path: &str) -> (Vec<String>, usize) {
    let text = std::fs::read_to_string(path).expect("trace written");
    let events: Vec<&str> = text.lines().map(|l| l.trim_end_matches(',')).collect();
    let kept: Vec<String> = events
        .iter()
        .filter(|e| !e.contains("\"cat\":\"checkpoint\""))
        .map(|e| e.to_string())
        .collect();
    let dropped = events.len() - kept.len();
    (kept, dropped)
}

#[test]
fn a_checkpointed_run_never_interrupted_writes_what_the_plain_run_writes() {
    let dir = TempDir::new("checkpoint-oracle");
    run_simulate(&SimulateOptions {
        out_dir: dir.path(""),
        length: 60_000,
        reads: 150,
        read_len: 100,
        seed: 83,
        profile: "err012100".into(),
    })
    .expect("dataset");
    for schedule in ["static", "dynamic"] {
        for threads in ["1", "2"] {
            let mut runs = Vec::new();
            for checkpoint in [false, true] {
                let tag = format!("{schedule}{threads}{}", if checkpoint { "c" } else { "" });
                let (sam, trace) = (
                    dir.path(&format!("{tag}.sam")),
                    dir.path(&format!("{tag}.json")),
                );
                let journal = dir.path(&format!("{tag}.ckpt"));
                let mut extra = vec![
                    "--platform",
                    "system1",
                    "--schedule",
                    schedule,
                    "--host-threads",
                    threads,
                    "--output",
                    &sam,
                    "--trace-out",
                    &trace,
                ];
                if checkpoint {
                    extra.extend(["--checkpoint", &journal]);
                }
                let run = repute_map(&dir, "reads.fq", &format!("{tag}.jsonl"), &extra);
                assert!(run.status.success(), "{tag}: {run:?}");
                runs.push((
                    tag.clone(),
                    std::fs::read(&sam).expect("SAM written"),
                    deterministic_records(&dir.path(&format!("{tag}.jsonl"))),
                    trace_without_checkpoints(&trace),
                ));
            }
            let (plain, checkpointed) = (&runs[0], &runs[1]);
            let tag = &checkpointed.0;
            assert!(plain.1 == checkpointed.1, "{tag}: SAM differs");
            let reads = plain
                .2
                .iter()
                .filter(|l| l.starts_with("{\"type\":\"read\""))
                .count();
            assert_eq!(reads, 150, "{tag}");
            assert!(plain.2 == checkpointed.2, "{tag}: telemetry records differ");
            assert!(plain.3 .0 == checkpointed.3 .0, "{tag}: trace differs");
            assert_eq!(checkpointed.3 .1, 0, "{tag}: a commit is not a span");
        }
    }
}
