//! Daemon crash-and-resume integration: a `repute serve` core that dies
//! mid-batch loses at most that one in-flight batch, and after
//! `--resume` the union of job responses is bit-identical to an
//! uninterrupted run.

use std::path::PathBuf;

use repute_genome::synth::ReferenceBuilder;
use repute_genome::DnaSeq;
use repute_hetsim::profiles;
use repute_mappers::multiref::ReferenceSet;
use repute_serve::{JobEnvelope, JobResponse, ServeHarness, ServeOptions};

fn reference_set() -> ReferenceSet {
    let reference = ReferenceBuilder::new(120_000).seed(7201).build();
    ReferenceSet::build(vec![("chrS".to_string(), reference)])
}

/// Six jobs from three tenants with two distinct per-job δ overrides, so
/// the coalescer must form several batches (jobs only share a batch when
/// their effective configuration matches).
fn jobs() -> Vec<JobEnvelope> {
    let reference = ReferenceBuilder::new(120_000).seed(7201).build();
    let read = |start: usize| -> Vec<(String, DnaSeq)> {
        vec![(format!("r{start}"), reference.subseq(start..start + 100))]
    };
    vec![
        JobEnvelope::new("acme-1", read(10_000))
            .with_tenant("acme")
            .with_delta(3),
        JobEnvelope::new("acme-2", read(20_000))
            .with_tenant("acme")
            .with_delta(5),
        JobEnvelope::new("lab-1", read(30_000))
            .with_tenant("lab")
            .with_delta(3),
        JobEnvelope::new("lab-2", read(40_000))
            .with_tenant("lab")
            .with_delta(5),
        JobEnvelope::new("edge-1", read(50_000))
            .with_tenant("edge")
            .with_delta(3),
        JobEnvelope::new("edge-2", read(60_000))
            .with_tenant("edge")
            .with_delta(5),
    ]
}

fn options() -> ServeOptions {
    ServeOptions {
        tenant_weights: vec![("acme".to_string(), 2.0)],
        // One batch per round: these tests aim the crash window at
        // exactly one in-flight batch (concurrent rounds would execute
        // both config groups before the crash).
        concurrent_batches: false,
        ..ServeOptions::default()
    }
}

fn submit_all(harness: &mut ServeHarness) {
    for job in jobs() {
        let refusal = harness.submit(job).expect("journal I/O");
        assert!(refusal.is_none(), "every job fits the default limits");
    }
}

fn by_id(responses: &[JobResponse]) -> Vec<(String, String)> {
    let mut lines: Vec<(String, String)> = responses
        .iter()
        .map(|r| (r.id.clone(), r.to_json_line()))
        .collect();
    lines.sort();
    lines
}

#[test]
fn resume_after_mid_batch_crash_is_bit_identical_to_uninterrupted() {
    let dir =
        std::env::temp_dir().join(format!("repute-serve-restart-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok();
    let platform = profiles::system1();

    // Uninterrupted reference run: no journal, straight drain.
    let mut clean = ServeHarness::new(reference_set(), platform.clone(), options()).unwrap();
    submit_all(&mut clean);
    let clean_responses = clean.drain().expect("uninterrupted drain");
    assert_eq!(clean_responses.len(), 6);
    let clean_batches = clean.counters().batches;
    assert!(
        clean_batches >= 2,
        "mixed deltas must split batches, got {clean_batches}"
    );

    // Journaled run: commit one batch, then lose power inside the next.
    let journal: PathBuf = dir.join("serve.journal");
    std::fs::remove_file(&journal).ok();
    let (mut doomed, replayed) = ServeHarness::with_journal(
        reference_set(),
        platform.clone(),
        options(),
        &journal,
        false,
    )
    .unwrap();
    assert!(replayed.is_empty(), "a fresh journal replays nothing");
    submit_all(&mut doomed);
    let committed = doomed.run_batch().expect("first batch commits");
    assert!(!committed.is_empty());
    let lost_ids = doomed.crash_mid_batch().expect("doomed batch executes");
    assert!(!lost_ids.is_empty(), "the crash must catch a live batch");

    // Restart from the journal: committed responses replay verbatim,
    // everything else (including the lost batch) re-executes.
    let (mut resumed, replayed) =
        ServeHarness::with_journal(reference_set(), platform, options(), &journal, true).unwrap();
    assert_eq!(
        by_id(&replayed),
        by_id(&committed),
        "replayed responses must be bit-identical to the committed batch"
    );
    assert_eq!(resumed.counters().replayed as usize, replayed.len());
    let reexecuted = resumed.drain().expect("resumed drain");

    // Union = every job exactly once, bit-identical to the clean run
    // (ids, SAM bytes, batch indices, and simulated latencies).
    let mut union = replayed.clone();
    union.extend(reexecuted.iter().cloned());
    assert_eq!(union.len(), 6, "no job lost, none answered twice");
    assert_eq!(by_id(&union), by_id(&clean_responses));

    // "At most one batch re-executed": the crashed batch's jobs are the
    // only previously-executed work in the resumed drain, and the
    // resumed run ends with the same batch count as the clean run.
    for id in &lost_ids {
        assert!(
            reexecuted.iter().any(|r| &r.id == id),
            "lost job {id} must be re-executed after resume"
        );
    }
    let rerun_of_executed: Vec<&String> = reexecuted
        .iter()
        .map(|r| &r.id)
        .filter(|id| lost_ids.contains(id) || committed.iter().any(|c| &&c.id == id))
        .collect();
    assert_eq!(
        rerun_of_executed.len(),
        lost_ids.len(),
        "only the single in-flight batch repeats work"
    );
    assert_eq!(resumed.counters().batches, clean_batches);
    assert_eq!(resumed.counters().completed, 6);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_from_a_compacted_journal_is_bit_identical() {
    let dir = std::env::temp_dir().join(format!(
        "repute-serve-compaction-test-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).ok();
    let platform = profiles::system1();

    // Uninterrupted reference run.
    let mut clean = ServeHarness::new(reference_set(), platform.clone(), options()).unwrap();
    submit_all(&mut clean);
    let clean_responses = clean.drain().expect("uninterrupted drain");
    let clean_batches = clean.counters().batches;

    // Control journal: same submissions and one committed batch, no
    // compaction — the size bound the compacted journal must beat.
    let control = dir.join("control.journal");
    std::fs::remove_file(&control).ok();
    let mut compacting = options();
    compacting.journal_compact_threshold = 1;
    let (mut plain, _) = ServeHarness::with_journal(
        reference_set(),
        platform.clone(),
        options(),
        &control,
        false,
    )
    .unwrap();
    submit_all(&mut plain);
    plain.run_batch().expect("control batch commits");
    let control_size = std::fs::metadata(&control).expect("control journal").len();

    // Compacting journal: threshold 1 compacts right after the first
    // batch commit, so the file holds only the header, one state
    // snapshot, and the still-queued accepted records.
    let journal: PathBuf = dir.join("serve.journal");
    std::fs::remove_file(&journal).ok();
    let (mut doomed, replayed) = ServeHarness::with_journal(
        reference_set(),
        platform.clone(),
        compacting.clone(),
        &journal,
        false,
    )
    .unwrap();
    assert!(replayed.is_empty());
    submit_all(&mut doomed);
    let committed = doomed.run_batch().expect("first batch commits");
    assert!(!committed.is_empty());
    assert_eq!(
        doomed.counters().compactions,
        1,
        "threshold 1 compacts per commit"
    );
    let compacted_size = std::fs::metadata(&journal)
        .expect("compacted journal")
        .len();
    assert!(
        compacted_size < control_size,
        "compacted journal ({compacted_size} B) must be smaller than the \
         append-only control ({control_size} B)"
    );
    let lost_ids = doomed.crash_mid_batch().expect("doomed batch executes");
    assert!(!lost_ids.is_empty());

    // Resume from the compacted journal: the committed batch's records
    // were compacted away (its responses were already delivered), the
    // live jobs — including the lost in-flight batch — re-execute, and
    // the union is bit-identical to the uninterrupted run.
    let (mut resumed, replayed) =
        ServeHarness::with_journal(reference_set(), platform, compacting, &journal, true).unwrap();
    assert!(
        replayed.is_empty(),
        "a compacted journal carries no committed batches to replay"
    );
    let counters = resumed.counters();
    assert_eq!(
        counters.completed as usize,
        committed.len(),
        "state snapshot restores counters"
    );
    assert_eq!(counters.batches, 1);
    let reexecuted = resumed.drain().expect("resumed drain");
    for id in &lost_ids {
        assert!(
            reexecuted.iter().any(|r| &r.id == id),
            "lost job {id} must re-execute after resume"
        );
    }
    let mut union = committed.clone();
    union.extend(reexecuted.iter().cloned());
    assert_eq!(union.len(), 6, "no job lost, none answered twice");
    assert_eq!(by_id(&union), by_id(&clean_responses));
    assert_eq!(resumed.counters().batches, clean_batches);
    assert_eq!(resumed.counters().completed, 6);

    // Drained, nothing is live: the compacted journal is the header and
    // one state snapshot, a fraction of the append-only one.
    plain.drain().expect("control drain");
    let control_size = std::fs::metadata(&control).expect("control journal").len();
    let compacted_size = std::fs::metadata(&journal)
        .expect("compacted journal")
        .len();
    assert!(
        compacted_size * 2 < control_size,
        "drained: compacted journal {compacted_size} B vs append-only {control_size} B"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Responses, journal frames and simulated latencies are the same for
/// every `--host-threads`, so the thread count is not journal identity:
/// a journal written on one thread resumes on four, replaying the
/// committed responses verbatim, and the union equals the uninterrupted
/// run's.
#[test]
fn resume_under_another_host_thread_count_is_bit_identical() {
    let dir = std::env::temp_dir().join(format!(
        "repute-serve-restart-threads-test-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).ok();
    let journal = dir.join("serve.journal");
    std::fs::remove_file(&journal).ok();
    let on = |host_threads| ServeOptions {
        host_threads,
        ..options()
    };

    let mut clean = ServeHarness::new(reference_set(), profiles::system1(), on(4)).unwrap();
    submit_all(&mut clean);
    let clean_responses = clean.drain().expect("uninterrupted drain");

    let (mut doomed, _) =
        ServeHarness::with_journal(reference_set(), profiles::system1(), on(1), &journal, false)
            .unwrap();
    submit_all(&mut doomed);
    let committed = doomed.run_batch().expect("first batch commits");
    assert!(!committed.is_empty());
    doomed.crash_mid_batch().expect("doomed batch executes");

    let (mut resumed, replayed) =
        ServeHarness::with_journal(reference_set(), profiles::system1(), on(4), &journal, true)
            .expect("another thread count resumes the journal");
    assert_eq!(by_id(&replayed), by_id(&committed));
    let mut union = replayed;
    union.extend(resumed.drain().expect("resumed drain"));
    assert_eq!(by_id(&union), by_id(&clean_responses));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn second_resume_with_different_options_is_refused() {
    let dir = std::env::temp_dir().join(format!(
        "repute-serve-restart-mismatch-test-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).ok();
    let journal = dir.join("serve.journal");
    std::fs::remove_file(&journal).ok();

    let (mut harness, _) = ServeHarness::with_journal(
        reference_set(),
        profiles::system1(),
        options(),
        &journal,
        false,
    )
    .unwrap();
    submit_all(&mut harness);
    harness.drain().unwrap();

    // A server with different pinned limits must refuse the journal.
    let mut other = options();
    other.limits.max_delta = 8;
    let err =
        ServeHarness::with_journal(reference_set(), profiles::system1(), other, &journal, true)
            .err()
            .expect("mismatched fingerprint is refused");
    assert!(
        matches!(err, repute_core::ReputeError::ResumeMismatch(_)),
        "expected ResumeMismatch, got {err:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
