//! `repute map --checkpoint` end to end: a run killed mid-stream and
//! continued with `--resume` writes the bytes of a run never killed, and
//! a checkpoint that cannot be continued is refused with its typed exit
//! code before any file is touched. The kills are real `SIGKILL`s, each
//! sent once the manifest shows a commit past the prefix the attempt
//! started from. The commit at every point of a
//! small corpus, built without a process to kill, is
//! `map::tests::resume_after_every_commit_point_matches_the_uninterrupted_run`.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::Duration;

use repute_cli::{run_simulate, SimulateOptions};
use repute_core::journal::Checkpoint;
use repute_mappers::engine_costs::{DP_CELL_COST, EXTEND_COST, LOCATE_COST};
use repute_obs::json::{field, parse_flat_object};
use repute_obs::MapMetrics;

/// A directory of this process's own under the system temp dir, removed
/// on drop, holding a simulated dataset of `reads` reads.
struct TempDir(PathBuf);

impl TempDir {
    fn with_reads(tag: &str, reads: usize) -> TempDir {
        let dir = std::env::temp_dir().join(format!("repute-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let dir = TempDir(dir);
        run_simulate(&SimulateOptions {
            out_dir: dir.path(""),
            length: 60_000,
            reads,
            read_len: 100,
            seed: 97,
            profile: "err012100".into(),
        })
        .expect("dataset");
        dir
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }

    fn read(&self, name: &str) -> Vec<u8> {
        std::fs::read(self.path(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
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

/// `repute map` on the dataset in `dir`, writing `<run>.sam` and
/// `<run>.jsonl`, with `extra` flags.
fn repute_map(dir: &TempDir, run: &str, extra: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_repute"));
    command
        .arg("map")
        .args(["--reference", &dir.path("reference.fa")])
        .args(["--reads", &dir.path("reads.fq")])
        .args(["--output", &dir.path(&format!("{run}.sam"))])
        .args(["--metrics-out", &dir.path(&format!("{run}.jsonl"))])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    command
}

fn output(mut command: Command) -> Output {
    command.output().expect("run repute")
}

/// A checkpointed run of `run`, resumed when `resume`.
fn checkpointed(dir: &TempDir, run: &str, extra: &[&str], resume: bool) -> Output {
    let ckpt = dir.path(&format!("{run}.ckpt"));
    let mut command = repute_map(dir, run, extra);
    command.args(["--checkpoint", &ckpt]);
    if resume {
        command.arg("--resume");
    }
    output(command)
}

/// The manifest of `run`'s checkpoint, if one is there and whole.
fn committed(dir: &TempDir, run: &str) -> Option<Checkpoint> {
    let bytes = std::fs::read(dir.path(&format!("{run}.ckpt"))).ok()?;
    Checkpoint::decode(&bytes).ok()
}

/// Starts a checkpointed run of `run` and kills it once its manifest
/// records a commit past the first `from` reads and before the end;
/// returns the manifest the kill left. `from` is the prefix the run's
/// checkpoint already holds: 0 starts afresh, more resumes.
fn kill_after_a_commit(dir: &TempDir, run: &str, extra: &[&str], from: u64) -> Checkpoint {
    let ckpt = dir.path(&format!("{run}.ckpt"));
    let mut command = repute_map(dir, run, extra);
    command.args(["--checkpoint", &ckpt]).stderr(Stdio::null());
    if from > 0 {
        command.arg("--resume");
    }
    let mut child = command.spawn().expect("spawn repute");
    loop {
        if let Some(status) = child.try_wait().expect("poll repute") {
            panic!("{run} ended ({status}) before a commit past read {from} was seen");
        }
        if committed(dir, run).is_some_and(|c| c.reads > from && !c.complete) {
            child.kill().expect("kill repute");
            child.wait().expect("reap repute");
            return committed(dir, run).expect("the manifest the kill left");
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The telemetry records a resumed run must repeat exactly: per read,
/// per device, per batch event and the energy record.
fn deterministic_records(dir: &TempDir, name: &str) -> Vec<String> {
    let text = String::from_utf8(dir.read(name)).expect("UTF-8");
    text.lines()
        .filter(|line| {
            ["read", "device", "event", "energy"]
                .iter()
                .any(|kind| line.starts_with(&format!("{{\"type\":\"{kind}\"")))
        })
        .map(String::from)
        .collect()
}

/// The `resumed_batches` of a telemetry file's run record.
fn resumed_batches(dir: &TempDir, name: &str) -> u64 {
    let text = String::from_utf8(dir.read(name)).expect("UTF-8");
    let line = text
        .lines()
        .find(|l| l.starts_with("{\"type\":\"run\""))
        .expect("run record");
    let fields = parse_flat_object(line).expect("flat object");
    field(&fields, "resumed_batches")
        .and_then(|v| v.as_u64())
        .expect("resumed_batches")
}

fn assert_same_run(dir: &TempDir, a: &str, b: &str) {
    assert!(
        dir.read(&format!("{a}.sam")) == dir.read(&format!("{b}.sam")),
        "{a}.sam and {b}.sam differ"
    );
    assert_eq!(
        deterministic_records(dir, &format!("{a}.jsonl")),
        deterministic_records(dir, &format!("{b}.jsonl"))
    );
    for name in [
        format!("{a}.sam.tmp"),
        format!("{a}.jsonl.tmp"),
        format!("{a}.ckpt.work"),
    ] {
        assert!(!dir.exists(&name), "{name} left behind");
    }
}

const PRICED: &[&str] = &["--platform", "system1", "--schedule", "dynamic"];

/// A checkpointed run never interrupted writes what the run without
/// `--checkpoint` writes, on the plain path with CIGARs as priced, and
/// leaves a complete manifest, no sidecar and no `.tmp`.
#[test]
fn fresh_run_matches_the_plain_run() {
    let dir = TempDir::with_reads("resume-fresh", 300);
    for (tag, extra) in [("plain", &["--cigar"][..]), ("priced", PRICED)] {
        let uninterrupted = output(repute_map(&dir, tag, extra));
        assert!(uninterrupted.status.success(), "{uninterrupted:?}");
        let run = checkpointed(&dir, &format!("{tag}c"), extra, false);
        assert!(run.status.success(), "{run:?}");
        assert_same_run(&dir, &format!("{tag}c"), tag);
        let manifest = committed(&dir, &format!("{tag}c")).expect("manifest");
        assert!(manifest.complete && manifest.reads == 300, "{manifest:?}");
    }
}

/// One `SIGKILL` after a commit, on a priced run with device faults and
/// a trace: the resumed run's SAM, records and trace are the
/// uninterrupted run's, and its run record counts the chunks it skipped.
#[test]
fn crash_then_resume_is_bit_identical() {
    let dir = TempDir::with_reads("resume-crash", 1_500);
    fn with(trace: &str) -> Vec<&str> {
        let mut extra = PRICED.to_vec();
        extra.extend(["--fault-plan", "transient:d0@0x2,slow:d1@0x0.5"]);
        extra.extend(["--trace-out", trace]);
        extra
    }
    let (clean_trace, killed_trace) = (dir.path("clean.json"), dir.path("killed.json"));
    let clean = output(repute_map(&dir, "clean", &with(&clean_trace)));
    assert!(clean.status.success(), "{clean:?}");
    let at = kill_after_a_commit(&dir, "killed", &with(&killed_trace), 0);
    let resumed = checkpointed(&dir, "killed", &with(&killed_trace), true);
    assert!(resumed.status.success(), "{resumed:?}");
    assert_same_run(&dir, "killed", "clean");
    assert_eq!(dir.read("killed.json"), dir.read("clean.json"));
    assert_eq!(resumed_batches(&dir, "killed.jsonl"), at.reads.div_ceil(64));
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(stderr.contains("resumed from checkpoint:"), "{stderr}");
}

/// The work each resumed read is priced at is the work its metrics
/// record decomposes into, reloaded from the sidecar for the reads the
/// resume skipped: the batch events add up to the read records.
#[test]
fn work_identity_holds_on_resumed_runs() {
    let dir = TempDir::with_reads("resume-work", 1_500);
    kill_after_a_commit(&dir, "killed", PRICED, 0);
    let resumed = checkpointed(&dir, "killed", PRICED, true);
    assert!(resumed.status.success(), "{resumed:?}");
    let text = String::from_utf8(dir.read("killed.jsonl")).expect("UTF-8");
    let (mut read_work, mut event_work, mut reads, mut items) = (0, 0, 0, 0);
    for line in text.lines() {
        let fields = parse_flat_object(line).expect("flat object");
        let count = |name: &str| field(&fields, name).and_then(|v| v.as_u64()).expect(name);
        match field(&fields, "type").and_then(|v| v.as_str()) {
            Some("read") => {
                let mut m = MapMetrics::new();
                for (name, _) in MapMetrics::new().fields() {
                    m.set_field(name, count(name));
                }
                read_work += m.work_units(EXTEND_COST, DP_CELL_COST, LOCATE_COST);
                reads += 1;
            }
            Some("event") => {
                event_work += count("work");
                items += count("items");
            }
            _ => {}
        }
    }
    assert_eq!(reads, 1_500);
    assert_eq!(items, reads);
    assert_eq!(event_work, read_work);
}

/// The plain path killed again and again over enough reads for several
/// commits, each attempt after a commit of its own: every resume starts
/// from a strictly longer prefix than the one before, and the last,
/// never killed, finishes the run to the bytes of one never killed.
#[test]
fn repeated_crashes_make_monotone_progress() {
    /// Reads between two commits of a checkpointed run.
    const COMMIT_READS: u64 = 1_024;
    const READS: u64 = 4_200;
    let dir = TempDir::with_reads("resume-repeated", READS as usize);
    let clean = output(repute_map(&dir, "clean", &[]));
    assert!(clean.status.success(), "{clean:?}");

    // Kill while a commit is left before the end: after 1 024, 2 048,
    // 3 072 and 4 096 reads.
    let (mut from, mut kills) = (0, Vec::new());
    while from + COMMIT_READS < READS {
        let at = kill_after_a_commit(&dir, "killed", &[], from);
        assert!(
            at.reads > from,
            "resumed from {from}, killed at {}",
            at.reads
        );
        from = at.reads;
        kills.push(from);
    }
    eprintln!("killed after the commits of {kills:?} reads");
    assert_eq!(kills.len(), 4, "one kill per commit: {kills:?}");
    let last = checkpointed(&dir, "killed", &[], true);
    assert!(last.status.success(), "{last:?}");
    assert_same_run(&dir, "killed", "clean");
    assert_eq!(resumed_batches(&dir, "killed.jsonl"), from.div_ceil(64));
}

/// A resume under other options or other reads is a mismatch (exit 6);
/// a checkpoint that exists without `--resume`, or `--resume` without
/// one, a configuration error (exit 2).
#[test]
fn mismatched_fingerprint_is_refused() {
    let dir = TempDir::with_reads("resume-mismatch", 40);
    let missing = checkpointed(&dir, "run", &[], true);
    assert_eq!(missing.status.code(), Some(2), "{missing:?}");
    assert!(checkpointed(&dir, "run", &[], false).status.success());
    let again = checkpointed(&dir, "run", &[], false);
    assert_eq!(again.status.code(), Some(2), "{again:?}");
    let delta = checkpointed(&dir, "run", &["--delta", "4"], true);
    assert_eq!(delta.status.code(), Some(6), "{delta:?}");
    let mut reads = dir.read("reads.fq");
    let base = reads.iter().position(|&b| b == b'\n').expect("a line") + 1;
    reads[base] = if reads[base] == b'A' { b'C' } else { b'A' };
    std::fs::write(dir.path("reads.fq"), reads).expect("write reads");
    let other_reads = checkpointed(&dir, "run", &[], true);
    assert_eq!(other_reads.status.code(), Some(6), "{other_reads:?}");
}

/// A `.tmp` shorter than its checkpoint committed lost promised bytes,
/// and the batch journal of older builds cannot be continued: both are
/// refused as corrupt (exit 5) and leave every file as it was.
#[test]
fn corruption_below_watermark_is_refused() {
    let dir = TempDir::with_reads("resume-corrupt", 1_500);
    let at = kill_after_a_commit(&dir, "run", &[], 0);
    let sam_tmp = dir.path("run.sam.tmp");
    let cut = at.lengths[0] - 1;
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&sam_tmp)
        .expect("SAM .tmp");
    file.set_len(cut).expect("cut");
    let telemetry = dir.read("run.jsonl.tmp");
    let refused = checkpointed(&dir, "run", &[], true);
    assert_eq!(refused.status.code(), Some(5), "{refused:?}");
    assert_eq!(dir.read("run.sam.tmp").len() as u64, cut);
    assert_eq!(dir.read("run.jsonl.tmp"), telemetry);

    std::fs::write(dir.path("run.ckpt"), b"RPJRNL01 an old batch journal").expect("write");
    let old = checkpointed(&dir, "run", &[], true);
    assert_eq!(old.status.code(), Some(5), "{old:?}");
    let stderr = String::from_utf8_lossy(&old.stderr);
    assert!(stderr.contains("RPJRNL01"), "{stderr}");
}

/// Whatever a killed run wrote past its last commit, and any garbage
/// after it, is cut away by the resume.
#[test]
fn torn_tail_is_truncated_and_resume_completes() {
    let dir = TempDir::with_reads("resume-torn", 1_500);
    let clean = output(repute_map(&dir, "clean", PRICED));
    assert!(clean.status.success(), "{clean:?}");
    kill_after_a_commit(&dir, "killed", PRICED, 0);
    for name in ["killed.sam.tmp", "killed.jsonl.tmp", "killed.ckpt.work"] {
        let mut bytes = dir.read(name);
        bytes.extend_from_slice(b"\x00torn\xff tail\n");
        std::fs::write(dir.path(name), bytes).expect("write");
    }
    let resumed = checkpointed(&dir, "killed", PRICED, true);
    assert!(resumed.status.success(), "{resumed:?}");
    assert_same_run(&dir, "killed", "clean");
}

/// Resuming a finished run maps nothing and changes nothing — and
/// finishes the renames a crash at the very end cut short.
#[test]
fn completed_journal_resume_is_idempotent() {
    let dir = TempDir::with_reads("resume-complete", 40);
    assert!(checkpointed(&dir, "run", PRICED, false).status.success());
    let (sam, telemetry) = (dir.read("run.sam"), dir.read("run.jsonl"));
    let again = checkpointed(&dir, "run", PRICED, true);
    assert!(again.status.success(), "{again:?}");
    assert_eq!(dir.read("run.sam"), sam);
    assert_eq!(dir.read("run.jsonl"), telemetry);
    std::fs::rename(dir.path("run.sam"), dir.path("run.sam.tmp")).expect("rename");
    let renamed = checkpointed(&dir, "run", PRICED, true);
    assert!(renamed.status.success(), "{renamed:?}");
    assert_eq!(dir.read("run.sam"), sam);
    assert!(!dir.exists("run.sam.tmp"));
}

/// An empty FASTQ is a run of no reads: the SAM header, a complete
/// manifest at zero reads.
#[test]
fn empty_read_set_completes_with_empty_journal() {
    let dir = TempDir::with_reads("resume-empty", 1);
    std::fs::write(dir.path("reads.fq"), b"").expect("empty reads");
    for (tag, extra) in [("plain", &[][..]), ("priced", PRICED)] {
        assert!(output(repute_map(&dir, tag, extra)).status.success());
        let run = checkpointed(&dir, &format!("{tag}c"), extra, false);
        assert!(run.status.success(), "{run:?}");
        assert_same_run(&dir, &format!("{tag}c"), tag);
        let manifest = committed(&dir, &format!("{tag}c")).expect("manifest");
        assert!(manifest.complete && manifest.reads == 0, "{manifest:?}");
    }
}
