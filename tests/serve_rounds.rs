//! One daemon round: each group mapped once and placed by one fallback
//! rule, a transient delivered only to the group planned on its device,
//! a `--max-delta` the seeds cannot hold refused before anything is
//! accepted, and a crash before the commit leaving the journal as the
//! round found it.

use std::path::{Path, PathBuf};

use repute_core::ReputeError;
use repute_genome::synth::ReferenceBuilder;
use repute_genome::DnaSeq;
use repute_hetsim::{profiles, FaultPlan};
use repute_mappers::multiref::ReferenceSet;
use repute_serve::{
    JobEnvelope, JobJournal, JobStatus, ServeCore, ServeHarness, ServeLimits, ServeOptions,
};

const REF_LEN: usize = 120_000;
const SEED: u64 = 4107;

fn reference_set() -> ReferenceSet {
    let reference = ReferenceBuilder::new(REF_LEN).seed(SEED).build();
    ReferenceSet::build(vec![("chrR".to_string(), reference)])
}

/// Three jobs of 40 reads at δ 3, 4 and 5: three keys, so one round puts
/// one group on each of system1's three devices.
fn jobs() -> Vec<JobEnvelope> {
    let reference = ReferenceBuilder::new(REF_LEN).seed(SEED).build();
    (3u32..=5)
        .map(|delta| {
            let reads: Vec<(String, DnaSeq)> = (0..40)
                .map(|i| {
                    let start = 1_000 + ((delta as usize - 3) * 40 + i) * 900;
                    (
                        format!("d{delta}-r{i}"),
                        reference.subseq(start..start + 100),
                    )
                })
                .collect();
            JobEnvelope::new(format!("job-d{delta}"), reads).with_delta(delta)
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("repute-serve-rounds-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok();
    let journal = dir.join("serve.journal");
    std::fs::remove_file(&journal).ok();
    journal
}

fn faulted_options() -> ServeOptions {
    ServeOptions {
        fault_plan: FaultPlan::parse("transient:d0@0,loss:d2@1e-6").expect("valid spec"),
        ..ServeOptions::default()
    }
}

/// Submits [`jobs`] to a journaled daemon and drains it; returns the
/// harness and the journal's path.
fn drained(name: &str, options: ServeOptions) -> (ServeHarness, PathBuf) {
    let journal = scratch(name);
    let (mut harness, replayed) = ServeHarness::with_journal(
        reference_set(),
        profiles::system1(),
        options,
        &journal,
        false,
    )
    .expect("fresh journal");
    assert!(replayed.is_empty());
    for job in jobs() {
        assert!(harness.submit(job).expect("journal I/O").is_none());
    }
    let responses = harness.drain().expect("drain");
    assert_eq!(responses.len(), 3);
    assert!(responses.iter().all(|r| r.status == JobStatus::Ok));
    (harness, journal)
}

/// `(device, faults, retries)` of every BatchDone frame in `journal`.
fn provenance(harness: &ServeHarness, journal: &Path) -> Vec<(u32, u64, u64)> {
    let (_, recovered) =
        JobJournal::open(journal, &harness.core().fingerprint()).expect("journal reads back");
    recovered
        .batches
        .iter()
        .flat_map(|b| b.provenance.iter().map(|p| (p.device, p.faults, p.retries)))
        .collect()
}

#[test]
fn a_transient_strikes_only_the_group_planned_on_its_device() {
    let (harness, journal) = drained("transient", faulted_options());
    // Device 2 dies under its own group, which falls back onto devices 0
    // and 1; the transient on device 0 is group 0's alone.
    assert_eq!(harness.core().health().lost_count(), 1);
    let frames = provenance(&harness, &journal);
    let d0_faults: u64 = frames.iter().filter(|p| p.0 == 0).map(|p| p.1).sum();
    let d0_retries: u64 = frames.iter().filter(|p| p.0 == 0).map(|p| p.2).sum();
    assert_eq!((d0_faults, d0_retries), (1, 1), "{frames:?}");
    // The run device 2 died in is not committed, but its loss is a fault
    // all the same: the fallen-back group's frame carries it.
    let d2_faults: u64 = frames.iter().filter(|p| p.0 == 2).map(|p| p.1).sum();
    assert_eq!(d2_faults, 1, "the retired subset's loss: {frames:?}");
    assert_eq!(harness.counters().faults, 2);
    assert_eq!(harness.counters().retries, 1);
    // A resume re-observes both from the journal.
    drop(harness);
    let (resumed, _) = ServeHarness::with_journal(
        reference_set(),
        profiles::system1(),
        faulted_options(),
        &journal,
        true,
    )
    .expect("resume");
    assert_eq!(resumed.counters().faults, 2);
    assert_eq!(resumed.counters().retries, 1);
    assert_eq!(resumed.core().health().lost_count(), 1);
    std::fs::remove_dir_all(journal.parent().expect("scratch dir")).ok();
}

#[test]
fn a_fallback_changes_no_answer() {
    let (faulted, journal) = drained("fallback", faulted_options());
    let mut clean = ServeHarness::new(
        reference_set(),
        profiles::system1(),
        ServeOptions::default(),
    )
    .expect("valid options");
    for job in jobs() {
        assert!(clean.submit(job).expect("no journal").is_none());
    }
    let sam = |responses: Vec<repute_serve::JobResponse>| -> Vec<(String, Option<String>)> {
        let mut sam: Vec<_> = responses.into_iter().map(|r| (r.id, r.sam)).collect();
        sam.sort();
        sam
    };
    let clean_sam = sam(clean.drain().expect("clean drain"));
    drop(faulted);
    let (mut again, replayed) = ServeHarness::with_journal(
        reference_set(),
        profiles::system1(),
        faulted_options(),
        &journal,
        true,
    )
    .expect("resume");
    assert!(again.drain().expect("nothing left").is_empty());
    assert_eq!(sam(replayed), clean_sam);
    std::fs::remove_dir_all(journal.parent().expect("scratch dir")).ok();
}

#[test]
fn a_max_delta_the_seeds_cannot_hold_is_refused_at_construction() {
    let with_max = |max_delta: u32| -> Result<ServeCore, ReputeError> {
        let options = ServeOptions {
            limits: ServeLimits {
                max_delta,
                ..ServeLimits::default()
            },
            ..ServeOptions::default()
        };
        ServeCore::new(reference_set(), profiles::system1(), options)
    };
    // S_min 12: 12 × (5 460 + 1) = 65 532 fits the u16 positions, 5 461
    // does not.
    assert!(with_max(5_460).is_ok());
    for max_delta in [5_461, 10_000] {
        let Err(ReputeError::Config(message)) = with_max(max_delta) else {
            panic!("--max-delta {max_delta} must be a configuration error");
        };
        assert!(
            message.contains(&format!("--max-delta {max_delta}"))
                && message.contains("the largest delta that fits s_min 12 is 5460"),
            "{message}"
        );
    }
}

#[test]
fn a_crash_before_the_commit_leaves_the_journal_as_the_round_found_it() {
    let journal = scratch("crash");
    let (mut harness, _) = ServeHarness::with_journal(
        reference_set(),
        profiles::system1(),
        faulted_options(),
        &journal,
        false,
    )
    .expect("fresh journal");
    for job in jobs() {
        assert!(harness.submit(job).expect("journal I/O").is_none());
    }
    let before = std::fs::read(&journal).expect("journal bytes");
    let lost = harness.crash_mid_batch().expect("round executes");
    assert_eq!(lost.len(), 3, "the round held every job");
    assert_eq!(std::fs::read(&journal).expect("journal bytes"), before);
    std::fs::remove_dir_all(journal.parent().expect("scratch dir")).ok();
}
