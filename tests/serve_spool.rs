//! Spool-transport hardening: the crash window between writing
//! `<name>.json.response` and renaming the input to `<name>.json.done`
//! no longer causes a double submit on rescan, and multi-line job files
//! are refused with a typed response instead of silently dropping every
//! line after the first.

#![cfg(unix)]

use std::path::{Path, PathBuf};

use repute_genome::synth::ReferenceBuilder;
use repute_genome::DnaSeq;
use repute_hetsim::profiles;
use repute_mappers::multiref::ReferenceSet;
use repute_serve::transport::process_spool_once;
use repute_serve::{JobEnvelope, JobResponse, JobStatus, ServeHarness, ServeOptions};

fn reference_set() -> ReferenceSet {
    let reference = ReferenceBuilder::new(80_000).seed(4411).build();
    ReferenceSet::build(vec![("chrP".to_string(), reference)])
}

fn job(id: &str, start: usize) -> JobEnvelope {
    let reference = ReferenceBuilder::new(80_000).seed(4411).build();
    let reads: Vec<(String, DnaSeq)> =
        vec![(format!("{id}-r"), reference.subseq(start..start + 100))];
    JobEnvelope::new(id, reads)
}

fn harness() -> ServeHarness {
    ServeHarness::new(
        reference_set(),
        profiles::system1(),
        ServeOptions::default(),
    )
    .unwrap()
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read_response(dir: &Path, name: &str) -> JobResponse {
    let text = std::fs::read_to_string(dir.join(name)).expect("response file");
    JobResponse::parse(text.trim()).expect("response line")
}

#[test]
fn crash_window_leftovers_are_skipped_not_resubmitted() {
    let dir = fresh_dir("repute-serve-spool-crashwindow-test");

    // Simulate the post-crash state: job `a` already has its response on
    // disk (the crash hit between the response write and the rename),
    // job `b` is untouched new work.
    let stale_response = "{\"id\":\"a\",\"status\":\"OK\",\"reads\":1,\"mappings\":1}\n";
    std::fs::write(
        dir.join("a.json"),
        format!("{}\n", job("a", 10_000).to_json_line()),
    )
    .unwrap();
    std::fs::write(dir.join("a.json.response"), stale_response).unwrap();
    std::fs::write(
        dir.join("b.json"),
        format!("{}\n", job("b", 20_000).to_json_line()),
    )
    .unwrap();

    let mut h = harness();
    let processed = process_spool_once(h.core_mut(), &dir).expect("spool scan");
    assert_eq!(processed, 2, "both files are handled in one pass");

    // Job `a` was NOT re-executed: its pre-crash response is untouched
    // and its interrupted rename was completed.
    assert_eq!(
        std::fs::read_to_string(dir.join("a.json.response")).unwrap(),
        stale_response,
        "the pre-crash response must survive byte-for-byte"
    );
    assert!(
        dir.join("a.json.done").exists(),
        "interrupted rename completed"
    );
    assert!(!dir.join("a.json").exists());

    // Job `b` ran normally.
    let b = read_response(&dir, "b.json.response");
    assert_eq!(b.id, "b");
    assert_eq!(b.status, JobStatus::Ok);
    assert!(dir.join("b.json.done").exists());

    let counters = h.counters();
    assert_eq!(counters.spool_skipped, 1);
    assert_eq!(counters.accepted, 1, "only `b` was admitted");
    assert_eq!(counters.completed, 1);

    // A rescan finds nothing left to do — the scan is idempotent.
    assert_eq!(process_spool_once(h.core_mut(), &dir).expect("rescan"), 0);
    assert_eq!(h.counters().completed, 1);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unreadable_spool_files_are_rejected_without_wedging_the_scan() {
    let dir = fresh_dir("repute-serve-spool-unreadable-test");

    // A directory with a `.json` name cannot be read as a file — the
    // portable stand-in for an unreadable job file (permission modes
    // don't bite when tests run as root).
    std::fs::create_dir(dir.join("bad.json")).unwrap();
    std::fs::write(
        dir.join("good.json"),
        format!("{}\n", job("good", 30_000).to_json_line()),
    )
    .unwrap();

    let mut h = harness();
    assert_eq!(
        process_spool_once(h.core_mut(), &dir).expect("the scan must not wedge"),
        2
    );

    // The unreadable file earns a typed refusal and is renamed out of
    // the scan path like any other handled input.
    let bad = read_response(&dir, "bad.json.response");
    assert_eq!(bad.status, JobStatus::Rejected);
    assert!(
        bad.reason
            .as_deref()
            .unwrap_or("")
            .contains("unreadable spool job file"),
        "refusal must name the problem, got {:?}",
        bad.reason
    );
    assert!(dir.join("bad.json.done").exists());

    // The healthy job beside it still ran.
    let good = read_response(&dir, "good.json.response");
    assert_eq!(good.status, JobStatus::Ok);
    let counters = h.counters();
    assert_eq!(counters.rejected, 1);
    assert_eq!(counters.completed, 1);

    // The rescan finds nothing left.
    assert_eq!(process_spool_once(h.core_mut(), &dir).expect("rescan"), 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multi_line_spool_files_are_rejected_with_a_typed_response() {
    let dir = fresh_dir("repute-serve-spool-multiline-test");

    let two_jobs = format!(
        "{}\n{}\n",
        job("first", 10_000).to_json_line(),
        job("second", 20_000).to_json_line()
    );
    std::fs::write(dir.join("multi.json"), two_jobs).unwrap();

    let mut h = harness();
    assert_eq!(
        process_spool_once(h.core_mut(), &dir).expect("spool scan"),
        1
    );

    // Neither embedded job ran: the file as a whole is refused, loudly,
    // instead of mapping the first line and silently dropping the rest.
    let response = read_response(&dir, "multi.json.response");
    assert_eq!(response.status, JobStatus::Rejected);
    assert!(
        response
            .reason
            .as_deref()
            .unwrap_or("")
            .contains("exactly one request line"),
        "refusal must name the problem, got {:?}",
        response.reason
    );
    assert!(dir.join("multi.json.done").exists());
    let counters = h.counters();
    assert_eq!(counters.accepted, 0);
    assert_eq!(counters.completed, 0);

    std::fs::remove_dir_all(&dir).ok();
}
