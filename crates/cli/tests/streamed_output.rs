//! `repute map` writes its SAM and `--metrics-out` as it maps: to stdout
//! as each read is mapped, or to `<output>.tmp`, renamed into place when
//! the run succeeds and removed when it fails.

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
