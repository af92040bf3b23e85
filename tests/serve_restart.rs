//! Daemon crash-and-resume integration: a `repute serve` core that dies
//! mid-round loses at most that one in-flight round, and after
//! `--resume` the union of job responses is bit-identical to an
//! uninterrupted run.

use std::path::PathBuf;

use repute_core::{ReputeError, RunFingerprint};
use repute_genome::synth::ReferenceBuilder;
use repute_genome::DnaSeq;
use repute_hetsim::{profiles, FaultPlan};
use repute_mappers::multiref::ReferenceSet;
use repute_prefilter::PrefilterMode;
use repute_serve::journal::DeviceProvenance;
use repute_serve::{
    BatchRecord, ConfigKey, JobEnvelope, JobJournal, JobResponse, JobResult, JobSpec, MapperKind,
    ServeHarness, ServeOptions, StateRecord, COMPACT_FLOOR,
};

fn reference_set() -> ReferenceSet {
    let reference = ReferenceBuilder::new(120_000).seed(7201).build();
    ReferenceSet::build(vec![("chrS".to_string(), reference)])
}

/// Six jobs from three tenants, each with a δ of its own: no two share a
/// batch, and a round holds one group per device of system1's three, so
/// the queue drains in two rounds of three batches.
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
            .with_delta(4),
        JobEnvelope::new("lab-1", read(30_000))
            .with_tenant("lab")
            .with_delta(5),
        JobEnvelope::new("lab-2", read(40_000))
            .with_tenant("lab")
            .with_delta(6),
        JobEnvelope::new("edge-1", read(50_000))
            .with_tenant("edge")
            .with_delta(7),
        JobEnvelope::new("edge-2", read(60_000))
            .with_tenant("edge")
            .with_delta(8),
    ]
}

fn options() -> ServeOptions {
    ServeOptions {
        tenant_weights: vec![("acme".to_string(), 2.0)],
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
    assert_eq!(clean_batches, 6, "six deltas, six batches");

    // Journaled run: commit one round, then lose power inside the next.
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
    let committed = doomed.run_batch().expect("first round commits");
    assert_eq!(committed.len(), 3, "one group per device");
    let lost_ids = doomed.crash_mid_batch().expect("doomed round executes");
    assert_eq!(lost_ids.len(), 3, "the crash must catch a live round");

    // Restart from the journal: committed responses replay verbatim,
    // everything else (including the lost round) re-executes.
    let (mut resumed, replayed) =
        ServeHarness::with_journal(reference_set(), platform, options(), &journal, true).unwrap();
    assert_eq!(
        by_id(&replayed),
        by_id(&committed),
        "replayed responses must be bit-identical to the committed round"
    );
    assert_eq!(resumed.counters().replayed as usize, replayed.len());
    let reexecuted = resumed.drain().expect("resumed drain");

    // Union = every job exactly once, bit-identical to the clean run
    // (ids, SAM bytes, batch indices, and simulated latencies).
    let mut union = replayed.clone();
    union.extend(reexecuted.iter().cloned());
    assert_eq!(union.len(), 6, "no job lost, none answered twice");
    assert_eq!(by_id(&union), by_id(&clean_responses));

    // "At most one in-flight round re-executed": the crashed round's jobs
    // are the only previously-executed work in the resumed drain, and the
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
        "only the single in-flight round repeats work"
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

    // Control journal: same submissions and one committed round, no
    // compaction — the size bound the compacted journal must beat.
    let control = dir.join("control.journal");
    std::fs::remove_file(&control).ok();
    let (mut plain, _) = ServeHarness::with_journal(
        reference_set(),
        platform.clone(),
        options(),
        &control,
        false,
    )
    .unwrap();
    submit_all(&mut plain);
    plain.run_batch().expect("control round commits");
    let control_size = std::fs::metadata(&control).expect("control journal").len();

    // Compacting journal: compacted right after the first round
    // commits, so the file holds only the header, one state snapshot,
    // and the still-queued accepted records.
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
    assert!(replayed.is_empty());
    submit_all(&mut doomed);
    let committed = doomed.run_batch().expect("first round commits");
    assert!(!committed.is_empty());
    let committed_batches = doomed.counters().batches;
    assert_eq!(
        doomed.counters().compactions,
        0,
        "one round's dead records are below the floor"
    );
    assert!(doomed.core_mut().compact_journal().expect("compaction"));
    assert_eq!(doomed.counters().compactions, 1);
    let compacted_size = std::fs::metadata(&journal)
        .expect("compacted journal")
        .len();
    assert!(
        compacted_size < control_size,
        "compacted journal ({compacted_size} B) must be smaller than the \
         append-only control ({control_size} B)"
    );
    let lost_ids = doomed.crash_mid_batch().expect("doomed round executes");
    assert!(!lost_ids.is_empty());

    // Resume from the compacted journal: the committed round's records
    // were compacted away (its responses were already delivered), the
    // live jobs — including the lost in-flight round — re-execute, and
    // the union is bit-identical to the uninterrupted run.
    let (mut resumed, replayed) =
        ServeHarness::with_journal(reference_set(), platform, options(), &journal, true).unwrap();
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
    assert_eq!(counters.batches, committed_batches);
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

    // Drained, nothing is live: compacted, the journal is the header
    // and one state snapshot, a fraction of the append-only one.
    assert!(resumed.core_mut().compact_journal().expect("compaction"));
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

/// A one-read job of tenant `acme`, read `i` of a walk along the
/// reference.
fn walk_job(reference: &DnaSeq, i: usize) -> JobEnvelope {
    let start = 1_000 + 500 * i;
    let read = vec![(format!("w{i:04}"), reference.subseq(start..start + 100))];
    JobEnvelope::new(format!("walk-{i:04}"), read).with_tenant("acme")
}

/// A long-lived daemon under default options compacts its own journal:
/// one-job rounds pile up four floors' worth of dead records, the
/// journal stays within a bound set by the floor, not the round count,
/// and a resume from it answers the jobs still queued at the crash
/// byte for byte as the uninterrupted daemon does.
#[test]
fn a_default_daemon_compacts_its_journal_and_resumes_bit_identically() {
    let dir = std::env::temp_dir().join(format!(
        "repute-serve-self-compaction-test-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).ok();
    let journal = dir.join("serve.journal");
    std::fs::remove_file(&journal).ok();
    let reference = ReferenceBuilder::new(120_000).seed(7201).build();
    // Each one-job round leaves two dead records: the job's acceptance
    // and its batch frame. Four floors and a half: the crash comes
    // mid-cycle, with committed rounds behind the last compaction.
    let rounds = 2 * COMPACT_FLOOR + COMPACT_FLOOR / 4;
    let queued = 3;

    let mut clean = ServeHarness::new(reference_set(), profiles::system1(), options()).unwrap();
    let (mut doomed, _) = ServeHarness::with_journal(
        reference_set(),
        profiles::system1(),
        options(),
        &journal,
        false,
    )
    .unwrap();
    let mut sizes = Vec::with_capacity(rounds);
    for i in 0..rounds {
        for harness in [&mut clean, &mut doomed] {
            assert!(harness.submit(walk_job(&reference, i)).unwrap().is_none());
            assert_eq!(harness.run_batch().unwrap().len(), 1);
        }
        sizes.push(std::fs::metadata(&journal).expect("journal").len());
    }
    let compactions = doomed.counters().compactions;
    assert!(
        compactions >= 3,
        "{compactions} compactions in {rounds} rounds"
    );
    // Between two compactions at most COMPACT_FLOOR / 2 rounds append
    // to the compacted journal (the smallest size seen), whatever the
    // round count; append-only, the last round's would be the largest.
    let compacted = sizes.iter().min().copied().unwrap();
    let largest_round = sizes.windows(2).map(|w| w[1].saturating_sub(w[0])).max();
    let bound = compacted + (COMPACT_FLOOR / 2) as u64 * largest_round.unwrap();
    let largest = sizes.iter().max().copied().unwrap();
    assert!(
        largest <= bound,
        "journal of {largest} B past the bound of {bound} B: {sizes:?}"
    );

    // Jobs still queued when the daemon dies.
    for i in rounds..rounds + queued {
        assert!(clean.submit(walk_job(&reference, i)).unwrap().is_none());
        assert!(doomed.submit(walk_job(&reference, i)).unwrap().is_none());
    }
    let clean_responses = clean.drain().expect("uninterrupted drain");
    drop(doomed);
    let (mut resumed, replayed) = ServeHarness::with_journal(
        reference_set(),
        profiles::system1(),
        options(),
        &journal,
        true,
    )
    .unwrap();
    // Only the rounds since the last compaction are still on file.
    assert_eq!(replayed.len(), COMPACT_FLOOR / 4);
    let resumed_responses = resumed.drain().expect("resumed drain");
    assert_eq!(resumed_responses.len(), queued);
    assert_eq!(by_id(&resumed_responses), by_id(&clean_responses));
    let (after, uninterrupted) = (resumed.counters(), clean.counters());
    assert_eq!(after.completed, uninterrupted.completed);
    assert_eq!(after.batches, uninterrupted.batches);

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
    let committed = doomed.run_batch().expect("first round commits");
    assert!(!committed.is_empty());
    doomed.crash_mid_batch().expect("doomed round executes");

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
        matches!(err, ReputeError::ResumeMismatch(_)),
        "expected ResumeMismatch, got {err:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// One accepted three-read job, as a journal writes it.
fn forged_job() -> JobSpec {
    let reference = ReferenceBuilder::new(120_000).seed(7201).build();
    let reads: Vec<DnaSeq> = (0..3)
        .map(|i| reference.subseq(10_000 + 200 * i..10_100 + 200 * i))
        .collect();
    JobSpec {
        seq: 0,
        id: "forged".to_string(),
        tenant: "acme".to_string(),
        key: ConfigKey {
            delta: 5,
            prefilter: PrefilterMode::None,
            mapper: MapperKind::default(),
        },
        arrival_s: 0.0,
        deadline_s: None,
        priority: 0,
        read_ids: (0..3).map(|i| format!("forged/{i}")).collect(),
        reads,
    }
}

/// A committed batch of `forged_job` with `lists` per-read mapping lists.
fn forged_batch(lists: usize, lost: Vec<u32>, provenance: Vec<DeviceProvenance>) -> BatchRecord {
    BatchRecord {
        batch: 0,
        completion_s: 1.0e-4,
        jobs: vec![JobResult {
            seq: 0,
            mappings: vec![Vec::new(); lists],
        }],
        lost,
        provenance,
    }
}

/// Writes a journal under this daemon's fingerprint through the
/// journal's own writers — `forged_job` accepted, then `frames` — and
/// resumes system1 from it.
fn resume_forged(
    tag: &str,
    frames: impl FnOnce(&mut JobJournal, &RunFingerprint),
) -> Result<(), ReputeError> {
    let dir =
        std::env::temp_dir().join(format!("repute-serve-forged-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join("serve.journal");
    let fingerprint = ServeHarness::new(reference_set(), profiles::system1(), options())
        .unwrap()
        .core()
        .fingerprint();
    let mut journal = JobJournal::create(&path, &fingerprint).expect("fresh journal");
    journal.record_accepted(&forged_job()).expect("append");
    frames(&mut journal, &fingerprint);
    drop(journal);
    let resumed =
        ServeHarness::with_journal(reference_set(), profiles::system1(), options(), &path, true);
    std::fs::remove_dir_all(&dir).ok();
    resumed.map(|_| ())
}

/// Compacts `journal` to a State frame holding `health` and the
/// still-queued `forged_job`.
fn compact_with_health(
    journal: &mut JobJournal,
    fingerprint: &RunFingerprint,
    health: Vec<(u32, u8, u64)>,
) {
    let state = StateRecord {
        health,
        ..StateRecord::default()
    };
    journal
        .compact(fingerprint, &state, &[&forged_job()])
        .expect("compact");
}

fn assert_journal_corrupt(what: &str, resumed: Result<(), ReputeError>) {
    match resumed {
        Err(err) => assert!(
            matches!(err, ReputeError::JournalCorrupt(_)) && err.exit_code() == 5,
            "{what}: expected JournalCorrupt, got {err:?}"
        ),
        Ok(()) => panic!("{what}: the forged journal resumed"),
    }
}

/// A forger that appends one batch frame of `forged_job`.
fn batch_frame(
    lists: usize,
    lost: Vec<u32>,
    provenance: Vec<DeviceProvenance>,
) -> impl FnOnce(&mut JobJournal, &RunFingerprint) {
    move |journal, _| {
        journal
            .record_batch(&forged_batch(lists, lost, provenance))
            .expect("append");
    }
}

#[test]
fn resume_refuses_a_journal_naming_a_device_the_platform_lacks() {
    // The control: the same frame on a device system1 has resumes.
    resume_forged("device-ok", batch_frame(3, vec![2], Vec::new()))
        .expect("device 2 is on system1");
    let lost = resume_forged("lost", batch_frame(3, vec![7], Vec::new()));
    assert_journal_corrupt("lost device 7", lost);
    let provenance = DeviceProvenance {
        device: 7,
        faults: 1,
        retries: 1,
        migrated: 0,
    };
    let faulted = resume_forged("provenance", batch_frame(3, Vec::new(), vec![provenance]));
    assert_journal_corrupt("provenance device 7", faulted);
    let state = resume_forged("state-device", |journal, fingerprint| {
        compact_with_health(journal, fingerprint, vec![(7, 0, 0)]);
    });
    assert_journal_corrupt("state device 7", state);
}

#[test]
fn resume_refuses_an_unknown_health_code() {
    let resumed = resume_forged("health-code", |journal, fingerprint| {
        compact_with_health(journal, fingerprint, vec![(0, 9, 0)]);
    });
    assert_journal_corrupt("health code 9", resumed);
}

#[test]
fn resume_refuses_a_job_with_fewer_mapping_lists_than_reads() {
    let resumed = resume_forged("mapping-lists", batch_frame(1, Vec::new(), Vec::new()));
    assert_journal_corrupt("one mapping list for three reads", resumed);
}

/// A group whose whole planned subset dies mid-run (here device 2,
/// killed by transients beyond the retry budget) is retried on the
/// survivors; its batch frame names device 2 lost, so a resume counts
/// it dead too and schedules the rest exactly as the uninterrupted run.
#[test]
fn resume_after_a_group_loses_its_whole_subset_is_bit_identical() {
    let dir = std::env::temp_dir().join(format!(
        "repute-serve-restart-retired-test-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).ok();
    let journal = dir.join("serve.journal");
    std::fs::remove_file(&journal).ok();
    let options = ServeOptions {
        fault_plan: FaultPlan::parse("transient:d2@0x5").expect("valid spec"),
        ..options()
    };

    let mut clean = ServeHarness::new(reference_set(), profiles::system1(), options.clone())
        .expect("valid options");
    submit_all(&mut clean);
    let clean_responses = clean.drain().expect("uninterrupted drain");
    assert_eq!(clean.core().health().lost_count(), 1);

    let (mut doomed, _) = ServeHarness::with_journal(
        reference_set(),
        profiles::system1(),
        options.clone(),
        &journal,
        false,
    )
    .expect("fresh journal");
    submit_all(&mut doomed);
    let committed = doomed.run_batch().expect("first round commits");
    assert_eq!(committed.len(), 3, "one group per device");
    assert_eq!(doomed.core().health().lost_count(), 1, "device 2 retired");
    doomed.crash_mid_batch().expect("doomed round executes");

    let (mut resumed, replayed) = ServeHarness::with_journal(
        reference_set(),
        profiles::system1(),
        options,
        &journal,
        true,
    )
    .expect("resume");
    assert_eq!(
        resumed.core().health().lost_count(),
        1,
        "device 2 stays lost"
    );
    let mut union = replayed;
    union.extend(resumed.drain().expect("resumed drain"));
    assert_eq!(by_id(&union), by_id(&clean_responses));

    std::fs::remove_dir_all(&dir).ok();
}
