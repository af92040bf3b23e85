//! A checkpointed `repute map` process survives `SIGKILL`: it is killed
//! after growing delays and restarted with `--resume` each time, and the
//! SAM and the deterministic telemetry records it finally writes are the
//! bytes of a run that was never killed. The last attempt is never
//! killed, so the outcome does not depend on where the kills landed.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use repute_cli::{run_simulate, SimulateOptions};

/// Attempts that are killed unless they finish first.
const KILLED_ATTEMPTS: u64 = 10;

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
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `repute map` on the dataset in `dir`, writing `<run>.sam` and
/// `<run>.jsonl`, with `extra` flags.
fn repute_map(dir: &TempDir, run: &str, extra: &[String]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_repute"));
    command
        .arg("map")
        .args(["--reference", &dir.path("reference.fa")])
        .args(["--reads", &dir.path("reads.fq")])
        .args(["--platform", "system1", "--schedule", "dynamic"])
        .args(["--output", &dir.path(&format!("{run}.sam"))])
        .args(["--metrics-out", &dir.path(&format!("{run}.jsonl"))])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    command
}

/// The telemetry records a resumed run must repeat exactly: per read,
/// per device, per batch event and the energy record. The run and stage
/// records carry the host wall clock and the replay count.
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

#[test]
fn a_checkpointed_run_killed_again_and_again_resumes_to_the_same_bytes() {
    let dir = TempDir::new("kill-resume");
    run_simulate(&SimulateOptions {
        out_dir: dir.path(""),
        length: 60_000,
        reads: 60,
        read_len: 100,
        seed: 71,
        profile: "err012100".into(),
    })
    .expect("dataset");
    let started = Instant::now();
    let status = repute_map(&dir, "uninterrupted", &[])
        .status()
        .expect("run repute");
    assert!(status.success(), "{status}");
    let uninterrupted = started.elapsed();

    let journal = dir.path("run.rpj");
    for attempt in 0..=KILLED_ATTEMPTS {
        let mut extra = vec!["--checkpoint".to_string(), journal.clone()];
        if Path::new(&journal).exists() {
            extra.push("--resume".to_string());
        }
        let mut child = repute_map(&dir, "killed", &extra)
            .spawn()
            .expect("spawn repute");
        if attempt < KILLED_ATTEMPTS {
            // From 70% to 115% of the uninterrupted run's wall time, in
            // 5% steps: the batches commit in the last tenth or so, so
            // one kill usually lands between two commits.
            std::thread::sleep(uninterrupted.mul_f64(0.7 + 0.05 * attempt as f64));
            // An attempt that finished before the kill has exited already.
            let _ = child.kill();
        }
        let status = child.wait().expect("reap repute");
        match status.code() {
            None => continue, // killed
            Some(code) => {
                assert_eq!(code, 0, "attempt {attempt} failed");
                break;
            }
        }
    }

    // Whatever a killed attempt left in `.tmp` files, the finishing one
    // truncated and renamed into place.
    for output in ["killed.sam", "killed.jsonl"] {
        assert!(!Path::new(&dir.path(&format!("{output}.tmp"))).exists());
    }
    let sam = |run: &str| std::fs::read(dir.path(&format!("{run}.sam"))).expect("SAM written");
    assert_eq!(sam("killed"), sam("uninterrupted"));
    assert_eq!(
        deterministic_records(&dir.path("killed.jsonl")),
        deterministic_records(&dir.path("uninterrupted.jsonl"))
    );
}
