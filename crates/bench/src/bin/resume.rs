//! Crash/resume ablation: the checkpoint journal makes an interrupted
//! run indistinguishable from an uninterrupted one.
//!
//! Three enforced sections (nonzero exit on any failure, so CI can run
//! this at tiny scale):
//!
//! 1. **Seeded crash points, in-process** — for both schedules, ≥5
//!    seeded simulated host crashes at random fractions of the makespan
//!    each leave a partial journal; resuming produces outputs, metrics,
//!    and a [`repute_obs::RunReport`] bit-identical to the uninterrupted
//!    run (wall clock and the replay-provenance counter excluded — they
//!    are the only fields allowed to differ).
//! 2. **SIGKILL, out-of-process** — a child `repute map --checkpoint`
//!    process is killed at seeded random delays, resumed with
//!    `--resume`, and must converge to a SAM byte-identical to the
//!    never-killed reference run (deterministic telemetry records too).
//! 3. **Typed failure classes** — the CLI exits with the documented
//!    distinct codes: 8 for a simulated crash, 6 for a mismatched
//!    resume, 5 for a corrupted journal, 2 for invalid combinations —
//!    never a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use repute_bench::gate::{fail, Checks};
use repute_bench::scenario::{both_schedules, quad_platform, scratch_dir, Ablation};
use repute_bench::workload::Scale;
use repute_core::{Executor, ReputeError, RunFingerprint};
use repute_genome::fasta::{write_fasta, FastaRecord};
use repute_genome::fastq::write_fastq;
use repute_genome::reads::ReadSimulator;
use repute_genome::rng::StdRng;
use repute_genome::synth::ReferenceBuilder;
use repute_hetsim::{FaultPlan, Platform};

const CRASH_POINTS: usize = 5;
const KILL_TRIALS: usize = 3;
const MAX_ATTEMPTS: usize = 60;

fn clear_journal(path: &Path) {
    std::fs::remove_file(path).ok();
    let mut manifest = path.as_os_str().to_owned();
    manifest.push(".manifest");
    std::fs::remove_file(PathBuf::from(manifest)).ok();
}

/// Normalizes a run report for bit-identity comparison: the host wall
/// clock and the replay-provenance counter are the only fields a resumed
/// run may legitimately differ in.
fn normalized_report(
    run: &repute_core::MappingRun,
    platform: &Platform,
    metrics: &[repute_obs::MapMetrics],
) -> repute_obs::RunReport {
    let mut report = run.report(platform, metrics);
    report.wall_seconds = 0.0;
    report.resumed_batches = 0;
    report
}

/// The deterministic subset of a telemetry JSON-lines file: per-read,
/// device, event, and energy records. Host stage clocks and the run
/// record's wall/provenance fields legitimately differ across runs.
fn deterministic_telemetry(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| {
            ["read", "device", "event", "energy"]
                .iter()
                .any(|k| l.contains(&format!("\"type\":\"{k}\"")))
        })
        .map(String::from)
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    let seed = std::env::var("REPUTE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_C0DEu64);
    println!("Crash/resume ablation — journaled runs are bit-identical");
    println!("{}", scale.describe());
    println!("seed {seed}");
    let dir = scratch_dir("resume");
    let mut checks = Checks::default();

    // ------------------------------------------------------------------
    // [1] Seeded simulated crash points, in-process, both schedules.
    // ------------------------------------------------------------------
    println!("\n[1] seeded crash points ({CRASH_POINTS} per schedule, in-process)");
    let Ablation { reads, mapper, .. } = Ablation::generate(scale);
    let platform = quad_platform();
    let fingerprint = RunFingerprint::new(0xBE7C_0001, 0xD0_C0DE);
    let mut rng = StdRng::seed_from_u64(seed);
    for (sched_name, schedule) in both_schedules(&platform, reads.len()) {
        let executor = Executor::new(schedule);
        let gold_path = dir.join(format!("gold-{sched_name}.rpj"));
        clear_journal(&gold_path);
        let gold = executor
            .run_journaled(&mapper, &platform, &reads, &gold_path, fingerprint)
            .expect("uninterrupted journaled run");
        let (plain, plain_metrics) = executor.run(&mapper, &platform, &reads).expect("plain run");
        if gold.run.outputs != plain.outputs || gold.metrics != plain_metrics {
            checks.fail(&format!(
                "{sched_name}: journaled run differs from the plain run"
            ));
        }
        let gold_report = normalized_report(&gold.run, &platform, &gold.metrics);
        let makespan = gold.run.simulated_seconds;
        println!(
            "  {sched_name}: {} batches | makespan {:.6} s",
            gold.total_batches, makespan
        );
        for trial in 0..CRASH_POINTS {
            let frac = 0.05 + 0.90 * rng.gen::<f64>();
            let crash_t = frac * makespan;
            let path = dir.join(format!("crash-{sched_name}-{trial}.rpj"));
            clear_journal(&path);
            let crashing = Executor {
                faults: FaultPlan::new().host_crash(crash_t),
                ..executor.clone()
            };
            let crashed = crashing.run_journaled(&mapper, &platform, &reads, &path, fingerprint);
            let committed = match crashed {
                Err(ReputeError::Interrupted { committed, .. }) => committed,
                Err(e) => {
                    checks.fail(&format!("{sched_name} trial {trial}: unexpected error {e}"));
                    continue;
                }
                Ok(_) => {
                    checks.fail(&format!(
                        "{sched_name} trial {trial}: crash at {crash_t:.6} s \
                         did not interrupt"
                    ));
                    continue;
                }
            };
            let resumed =
                match executor.run_journaled(&mapper, &platform, &reads, &path, fingerprint) {
                    Ok(r) => r,
                    Err(e) => {
                        checks.fail(&format!("{sched_name} trial {trial}: resume failed: {e}"));
                        continue;
                    }
                };
            let identical = resumed.run.outputs == gold.run.outputs
                && resumed.metrics == gold.metrics
                && resumed.run.simulated_seconds == gold.run.simulated_seconds
                && normalized_report(&resumed.run, &platform, &resumed.metrics) == gold_report;
            println!(
                "    crash @ {:>5.1}% ({crash_t:.6} s): {committed}/{} committed, \
                 {} replayed | {}",
                frac * 100.0,
                resumed.total_batches,
                resumed.resumed_batches,
                if identical {
                    "bit-identical"
                } else {
                    "DIFFERS"
                }
            );
            if !identical {
                checks.fail(&format!("{sched_name} trial {trial}: resumed run differs"));
            }
            if resumed.resumed_batches != committed {
                checks.fail(&format!(
                    "{sched_name} trial {trial}: replayed {} != committed {committed}",
                    resumed.resumed_batches
                ));
            }
        }
    }

    // ------------------------------------------------------------------
    // [2] SIGKILL a child `repute map --checkpoint` at seeded delays.
    // ------------------------------------------------------------------
    println!("\n[2] child-process SIGKILL trials ({KILL_TRIALS} seeded)");
    let repute = repute_binary().unwrap_or_else(|msg| fail(&msg));
    let ref_len = scale.reference_len.min(150_000);
    let read_count = scale.reads_per_set.min(300);
    let reference = ReferenceBuilder::new(ref_len).seed(seed ^ 0xFA57).build();
    let records = ReadSimulator::new(100, read_count)
        .seed(seed ^ 0x5EED)
        .simulate_fastq(&reference);
    let ref_fa = dir.join("reference.fa");
    let reads_fq = dir.join("reads.fq");
    {
        let mut buf = Vec::new();
        write_fasta(&mut buf, &[FastaRecord::new("chrSim", reference)], 70).expect("fasta");
        std::fs::write(&ref_fa, buf).expect("write reference");
        let mut buf = Vec::new();
        let reads_only: Vec<_> = records.iter().map(|(r, _)| r.clone()).collect();
        write_fastq(&mut buf, &reads_only).expect("fastq");
        std::fs::write(&reads_fq, buf).expect("write reads");
    }
    let base_args = |sam: &Path, metrics: &Path| -> Vec<String> {
        vec![
            "map".into(),
            "--reference".into(),
            ref_fa.display().to_string(),
            "--reads".into(),
            reads_fq.display().to_string(),
            "--delta".into(),
            "5".into(),
            "--platform".into(),
            "system1".into(),
            "--schedule".into(),
            "dynamic".into(),
            "--output".into(),
            sam.display().to_string(),
            "--metrics-out".into(),
            metrics.display().to_string(),
        ]
    };

    // Never-killed reference run (no checkpoint).
    let ref_sam = dir.join("ref.sam");
    let ref_jsonl = dir.join("ref.jsonl");
    let status = Command::new(&repute)
        .args(base_args(&ref_sam, &ref_jsonl))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn reference run");
    if !status.success() {
        fail(&format!("reference CLI run exited with {status}"));
    }
    let gold_sam = std::fs::read(&ref_sam).expect("read reference SAM");
    let gold_telemetry =
        deterministic_telemetry(&std::fs::read_to_string(&ref_jsonl).expect("read telemetry"));

    for trial in 0..KILL_TRIALS {
        let journal = dir.join(format!("kill-{trial}.rpj"));
        let sam = dir.join(format!("kill-{trial}.sam"));
        let jsonl = dir.join(format!("kill-{trial}.jsonl"));
        clear_journal(&journal);
        let mut kills = 0usize;
        let mut finished = false;
        for attempt in 0..MAX_ATTEMPTS {
            let mut args = base_args(&sam, &jsonl);
            args.push("--checkpoint".into());
            args.push(journal.display().to_string());
            if journal.exists() {
                args.push("--resume".into());
            }
            let mut child = Command::new(&repute)
                .args(&args)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn checkpointed run");
            // Seeded, slowly growing delay: early attempts die young,
            // later ones get long enough to finish.
            let delay_ms = 1 + (rng.next_u64() % 40) * (1 + attempt as u64) / 4;
            std::thread::sleep(Duration::from_millis(delay_ms));
            match child.try_wait().expect("poll child") {
                Some(status) if status.success() => {
                    finished = true;
                    println!(
                        "  trial {trial}: finished on attempt {} after {kills} kill(s)",
                        attempt + 1
                    );
                    break;
                }
                Some(status) => {
                    checks.fail(&format!("trial {trial}: child exited with {status}"));
                    finished = true;
                    break;
                }
                None => {
                    child.kill().expect("SIGKILL child");
                    child.wait().expect("reap child");
                    kills += 1;
                }
            }
        }
        if !finished {
            checks.fail(&format!(
                "trial {trial}: did not finish within {MAX_ATTEMPTS} attempts"
            ));
            continue;
        }
        let killed_sam = std::fs::read(&sam).expect("read resumed SAM");
        if killed_sam != gold_sam {
            checks.fail(&format!(
                "trial {trial}: resumed SAM differs from the reference run"
            ));
        }
        let killed_telemetry =
            deterministic_telemetry(&std::fs::read_to_string(&jsonl).expect("read telemetry"));
        if killed_telemetry != gold_telemetry {
            checks.fail(&format!(
                "trial {trial}: deterministic telemetry records differ"
            ));
        }
    }

    // ------------------------------------------------------------------
    // [3] Typed failure classes surface as distinct exit codes.
    // ------------------------------------------------------------------
    println!("\n[3] typed failure exit codes");
    let journal = dir.join("codes.rpj");
    let sam = dir.join("codes.sam");
    let jsonl = dir.join("codes.jsonl");
    clear_journal(&journal);
    let run_cli = |extra: &[&str]| -> std::process::Output {
        let mut args = base_args(&sam, &jsonl);
        args.extend(extra.iter().map(|s| s.to_string()));
        Command::new(&repute).args(&args).output().expect("run cli")
    };
    let expect_code =
        |what: &str, out: &std::process::Output, code: i32, checks: &mut Checks| match out
            .status
            .code()
        {
            Some(c) if c == code => println!("  {what}: exit {c} (expected)"),
            other => checks.fail(&format!(
                "{what}: expected exit {code}, got {other:?}\n{}",
                String::from_utf8_lossy(&out.stderr)
            )),
        };

    // Exit 2: a crash event without a journal to crash into.
    let out = run_cli(&["--fault-plan", "crash:@0.001"]);
    expect_code("crash plan without --checkpoint", &out, 2, &mut checks);

    // Exit 8: a simulated host crash interrupts the checkpointed run.
    let journal_s = journal.display().to_string();
    let out = run_cli(&[
        "--checkpoint",
        &journal_s,
        "--fault-plan",
        "crash:@0.0000001",
    ]);
    expect_code("simulated host crash", &out, 8, &mut checks);

    // Exit 0: the resume completes and matches the reference SAM.
    let out = run_cli(&["--checkpoint", &journal_s, "--resume"]);
    expect_code("resume to completion", &out, 0, &mut checks);
    match std::fs::read(&sam) {
        Ok(bytes) if bytes == gold_sam => println!("  resumed SAM matches the reference run"),
        Ok(_) => {
            checks.fail("resumed SAM differs from the reference run");
        }
        Err(e) => {
            checks.fail(&format!("resumed SAM missing: {e}"));
        }
    }

    // Exit 6: resuming under a different configuration is refused.
    let out = run_cli(&["--checkpoint", &journal_s, "--resume", "--s-min", "14"]);
    expect_code("mismatched resume", &out, 6, &mut checks);

    // Exit 5: a corrupted journal is refused (flip one byte inside the
    // first committed record, below the manifest watermark).
    let mut bytes = std::fs::read(&journal).expect("read journal");
    if bytes.len() > 46 {
        bytes[46] ^= 0x40;
        std::fs::write(&journal, bytes).expect("write corrupted journal");
        let out = run_cli(&["--checkpoint", &journal_s, "--resume"]);
        expect_code("corrupted journal", &out, 5, &mut checks);
    } else {
        checks.fail(&format!(
            "journal too short to corrupt ({} bytes)",
            bytes.len()
        ));
    }

    checks.finish("");
    println!("\nall crash/resume checks passed");
}

/// Locates the `repute` CLI binary next to this bench binary, building
/// it (same profile, offline) if it is not there yet.
fn repute_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin_dir = exe
        .parent()
        .ok_or_else(|| "bench binary has no parent directory".to_string())?;
    let candidate = bin_dir.join(if cfg!(windows) {
        "repute.exe"
    } else {
        "repute"
    });
    if candidate.exists() {
        return Ok(candidate);
    }
    let mut build = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
    build.args(["build", "-p", "repute-cli", "--offline"]);
    if !cfg!(debug_assertions) {
        build.arg("--release");
    }
    let status = build
        .status()
        .map_err(|e| format!("cannot run cargo to build repute-cli: {e}"))?;
    if !status.success() {
        return Err("building repute-cli failed".into());
    }
    if candidate.exists() {
        Ok(candidate)
    } else {
        Err(format!(
            "repute binary not found at {} even after building repute-cli",
            candidate.display()
        ))
    }
}
