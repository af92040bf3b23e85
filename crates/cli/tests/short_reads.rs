//! Reads REPUTE cannot seed — shorter than (δ+1)·`S_min` bases — are
//! left unmapped, and `repute map` says so once on stderr instead of
//! only reporting zero mapped reads. Exit code and SAM stay as they were.

use std::path::PathBuf;
use std::process::{Command, Output};

use repute_cli::{run_simulate, SimulateOptions};

/// 36 bp reads against a 60 kbp reference in a directory of this
/// process's own, removed on drop.
struct Dataset(PathBuf);

impl Dataset {
    fn new() -> Dataset {
        let dir = std::env::temp_dir().join(format!("repute-cli-short-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        run_simulate(&SimulateOptions {
            out_dir: dir.to_string_lossy().into_owned(),
            length: 60_000,
            reads: 20,
            read_len: 36,
            seed: 3,
            profile: "err012100".into(),
        })
        .expect("dataset");
        Dataset(dir)
    }

    fn map(&self, extra: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_repute"))
            .arg("map")
            .arg("--reference")
            .arg(self.0.join("reference.fa"))
            .arg("--reads")
            .arg(self.0.join("reads.fq"))
            .args(extra)
            .output()
            .expect("run repute")
    }
}

impl Drop for Dataset {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn warnings(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter(|l| l.starts_with("warning:"))
        .map(str::to_string)
        .collect()
}

#[test]
fn reads_shorter_than_the_seeds_are_counted_in_one_warning() {
    let data = Dataset::new();

    let out = data.map(&[]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        warnings(&out),
        [
            "warning: 20 read(s) left unmapped: repute maps reads of (δ+1)·S_min = 72 \
          to 65535 bases at --delta 5 and --s-min 12"
        ]
    );
    let sam = String::from_utf8(out.stdout).expect("utf-8 SAM");
    let rows: Vec<&str> = sam.lines().filter(|l| !l.starts_with('@')).collect();
    assert_eq!(rows.len(), 20);
    assert!(rows.iter().all(|r| r.split('\t').nth(1) == Some("4")));

    // Seeds that fit a 36 bp read, and a baseline mapper: no warning.
    assert!(warnings(&data.map(&["--s-min", "6"])).is_empty());
    assert!(warnings(&data.map(&["--mapper", "coral"])).is_empty());
}
