//! The executor's byte contract, pinned.
//!
//! One fixed workload runs through every executor configuration the
//! shipped programs can reach — schedule × fault plan × host threads ×
//! device subset, plus journaled runs straight through and across a
//! simulated host crash — and each cell is reduced to an FNV-64 over
//! everything a run leaves behind: per-read outputs and metrics, the
//! run report as `--metrics-out` writes it (wall clock zeroed), device
//! attribution, the Chrome trace, and for journaled runs the journal
//! and manifest bytes. The digests were generated at the commit before
//! the executors were merged into one and must only change with a
//! deliberate change to what a run reports. There have been two. The
//! k-mer interval table (PR 21) cut `fm_extend_ops`, and with it work,
//! simulated seconds, joules and — where the dynamic scheduler breaks a
//! tie on them — which device takes a batch; every cell's mappings,
//! other per-read counters, batch set, fault counters and lost devices
//! were compared equal to the parent's before the tables were replaced.
//! Then stage 3 became one routine (PR 22): the 8 `*/none/*` cells and
//! the 8 journaled `straight` / `resumed` ones moved — fault-free runs
//! took the entry grouping, run-wide batch labels and `queued` stamps the
//! other 28 cells already had — and no number did: a third table,
//! `NUMBERS`, hashes each cell without grouping, labels, stamps and span
//! names, was generated at the parent and passed unedited. It stays, for
//! the next change that means to move a label and not a number.
//!
//! On a mismatch the test prints the whole computed table in source
//! form, so a deliberate change is one copy-paste. `NUMBERS` is checked
//! first: if it fails, what moved is a number, not how it is reported.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use repute_core::journal::{manifest_path, Fnv64, RunFingerprint};
use repute_core::{
    Executor, MappingRun, ReputeConfig, ReputeError, ReputeMapper, ResumableRun, Schedule,
};
use repute_genome::reads::ReadSimulator;
use repute_genome::synth::ReferenceBuilder;
use repute_genome::{DnaSeq, Strand};
use repute_hetsim::{
    profiles, DeviceKind, DeviceProfile, FaultCounters, FaultPlan, LaunchError, Platform,
};
use repute_mappers::{IndexedReference, Mapper};
use repute_obs::trace::{device_pid, write_chrome_trace, SCHEDULER_PID};
use repute_obs::MapMetrics;

// ---------------------------------------------------------------------
// The two calls under contract.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Cell<'a> {
    platform: &'a Platform,
    subset: &'a [usize],
    schedule: &'a Schedule,
    host_threads: usize,
    faults: &'a FaultPlan,
    max_retries: usize,
    tracing: bool,
}

impl Cell<'_> {
    fn executor(&self) -> Executor {
        Executor {
            host_threads: self.host_threads,
            faults: self.faults.clone(),
            max_retries: self.max_retries,
            subset: Some(self.subset.to_vec()),
            tracing: self.tracing,
            ..Executor::new(self.schedule.clone())
        }
    }
}

fn run(
    cell: &Cell<'_>,
    mapper: &ReputeMapper,
    reads: &[DnaSeq],
) -> Result<(MappingRun, Vec<MapMetrics>), LaunchError> {
    cell.executor().run(mapper, cell.platform, reads)
}

fn run_journaled(
    cell: &Cell<'_>,
    mapper: &ReputeMapper,
    reads: &[DnaSeq],
    journal: &Path,
) -> Result<ResumableRun, ReputeError> {
    let executor = Executor {
        subset: None,
        ..cell.executor()
    };
    let fingerprint = RunFingerprint::new(0xC0FF_EE00, 0x5EED_0001);
    executor.run_journaled(mapper, cell.platform, reads, journal, fingerprint, 2)
}

// ---------------------------------------------------------------------
// Workload and grid.
// ---------------------------------------------------------------------

/// ≈40 kbp, 48 reads, the heaviest read repeated over the last
/// quarter so batches carry visibly different work and the first batch
/// is never the last to finish.
fn workload() -> (ReputeMapper, Vec<DnaSeq>) {
    let reference = ReferenceBuilder::new(40_000).seed(1401).build();
    let mut reads: Vec<DnaSeq> = ReadSimulator::new(100, 48)
        .seed(1402)
        .simulate(&reference)
        .into_iter()
        .map(|r| r.seq)
        .collect();
    let indexed = Arc::new(IndexedReference::build(reference));
    let mapper = ReputeMapper::new(indexed, ReputeConfig::new(3, 15).expect("valid"));
    let heaviest = reads
        .iter()
        .max_by_key(|r| mapper.map_read(r).work)
        .expect("48 reads")
        .clone();
    for read in &mut reads[36..] {
        *read = heaviest.clone();
    }
    (mapper, reads)
}

/// Three unequal devices whose quarter-RAM output caps are 5, 3 and 4
/// reads: every static share needs several batches.
fn tiny_platform(mapper: &ReputeMapper) -> Platform {
    let bytes_per_read = mapper.max_locations() * 12;
    let device = |name: &str, kind, throughput, cap_reads: usize| {
        DeviceProfile::new(
            name,
            kind,
            2,
            throughput,
            bytes_per_read * 4 * cap_reads,
            5.0,
        )
    };
    Platform::new(
        "tiny-trio",
        2.0,
        vec![
            device("tiny-cpu", DeviceKind::Cpu, 2e7, 5),
            device("tiny-gpu0", DeviceKind::Gpu, 1e7, 3),
            device("tiny-gpu1", DeviceKind::Gpu, 1.5e7, 4),
        ],
    )
}

fn sub_platform(platform: &Platform, subset: &[usize]) -> Platform {
    Platform::new(
        platform.name(),
        platform.idle_power_w(),
        subset
            .iter()
            .map(|&d| platform.devices()[d].clone())
            .collect(),
    )
}

/// (name, on the tiny platform, schedule builder). Static shares name
/// subset-local devices, so they are built against the sub-platform.
type ScheduleOf = fn(&Platform, usize) -> Schedule;
const SCHEDULES: [(&str, bool, ScheduleOf); 4] = [
    ("static-even", false, |p, n| {
        Schedule::Static(p.even_shares(n))
    }),
    ("static-tiny", true, |p, n| {
        Schedule::Static(p.even_shares(n))
    }),
    ("dynamic-auto", false, |_, _| Schedule::Dynamic { batch: 0 }),
    ("dynamic-7", false, |_, _| Schedule::Dynamic { batch: 7 }),
];

const SUBSETS: [(&str, &[usize]); 2] = [("full", &[0, 1, 2]), ("sub02", &[0, 2])];

/// (name, plan given the fault-free makespan, retry budget). Device 2 is
/// in both subsets; the zero-budget transient kills device 0.
fn fault_plans(makespan: f64) -> [(&'static str, FaultPlan, usize); 4] {
    [
        ("none", FaultPlan::new(), 3),
        ("transient", FaultPlan::new().transient(2, 0.0), 3),
        ("loss", FaultPlan::new().loss(2, makespan * 0.4), 3),
        ("no-retries", FaultPlan::new().transient(0, 0.0), 0),
    ]
}

// ---------------------------------------------------------------------
// Digests.
// ---------------------------------------------------------------------

fn digest_reads(h: &mut Fnv64, run: &MappingRun, metrics: &[MapMetrics]) {
    for out in &run.outputs {
        h.write_u64(out.mappings.len() as u64);
        for m in &out.mappings {
            h.write_u64(u64::from(m.position));
            h.write_u64(u64::from(m.strand == Strand::Reverse));
            h.write_u64(u64::from(m.distance));
        }
        h.write_u64(out.work);
        h.write_u64(out.candidates);
    }
    for (i, m) in metrics.iter().enumerate() {
        h.write(m.to_json_line(i as u64).as_bytes());
    }
}

fn digest_results(h: &mut Fnv64, run: &MappingRun, metrics: &[MapMetrics], platform: &Platform) {
    digest_reads(h, run, metrics);
    let mut report = run.report(platform, metrics);
    report.wall_seconds = 0.0;
    let mut lines = Vec::new();
    report
        .write_json_lines(&mut lines)
        .expect("in-memory write");
    h.write(&lines);
    h.write_u64(run.simulated_seconds.to_bits());
    for dr in &run.device_runs {
        h.write_u64(dr.device as u64);
        h.write_u64(dr.items as u64);
        h.write_u64(dr.work);
        h.write_u64(dr.simulated_seconds.to_bits());
    }
    for c in &run.fault_counters {
        h.write_u64(c.faults);
        h.write_u64(c.retries);
        h.write_u64(c.migrated_batches);
    }
    h.write_u64(run.lost_devices.len() as u64);
    for &d in &run.lost_devices {
        h.write_u64(d as u64);
    }
}

fn digest_trace(h: &mut Fnv64, run: &MappingRun, platform: &Platform) {
    let mut processes = vec![(SCHEDULER_PID, "scheduler".to_string())];
    for (i, device) in platform.devices().iter().enumerate() {
        processes.push((device_pid(i), device.name().to_string()));
    }
    h.write(write_chrome_trace(&processes, &run.trace).as_bytes());
}

/// The numbers of a run, free of how they are grouped and labelled:
/// what [`digest_results`] hashes minus entry grouping, labels,
/// `queued` / `submitted` stamps and span names. Idle entries are
/// dropped, entries of one device folded, devices ascending.
fn digest_numbers(h: &mut Fnv64, run: &MappingRun, metrics: &[MapMetrics]) {
    digest_reads(h, run, metrics);
    h.write_u64(run.simulated_seconds.to_bits());
    h.write_u64(run.energy.energy_j.to_bits());
    h.write_u64(run.energy.average_power_w.to_bits());
    let mut devices: BTreeMap<usize, (u64, u64, f64)> = BTreeMap::new();
    let mut events = Vec::new();
    for (dr, timeline) in run.device_runs.iter().zip(&run.timelines) {
        if timeline.is_empty() {
            continue;
        }
        let folded = devices.entry(dr.device).or_insert((0, 0, 0.0));
        folded.0 += dr.items as u64;
        folded.1 += dr.work;
        folded.2 = folded.2.max(dr.simulated_seconds);
        for e in timeline {
            let (start, end) = (e.start_seconds.to_bits(), e.end_seconds.to_bits());
            events.push([dr.device as u64, e.items, e.work, start, end]);
        }
    }
    for (device, (items, work, finish)) in devices {
        for word in [device as u64, items, work, finish.to_bits()] {
            h.write_u64(word);
        }
    }
    events.sort_unstable();
    for word in events.iter().flatten() {
        h.write_u64(*word);
    }
    let sum = |of: fn(&FaultCounters) -> u64| run.fault_counters.iter().map(of).sum::<u64>();
    h.write_u64(sum(|c| c.faults));
    h.write_u64(sum(|c| c.retries));
    h.write_u64(sum(|c| c.migrated_batches));
    h.write_u64(run.lost_devices.len() as u64);
    for &d in &run.lost_devices {
        h.write_u64(d as u64);
    }
}

/// `[everything, numbers only]` of one scheduled cell.
fn digest_run(
    outcome: &Result<(MappingRun, Vec<MapMetrics>), LaunchError>,
    platform: &Platform,
) -> [u64; 2] {
    let (mut all, mut numbers) = (Fnv64::new(), Fnv64::new());
    match outcome {
        Ok((run, metrics)) => {
            digest_results(&mut all, run, metrics, platform);
            digest_trace(&mut all, run, platform);
            digest_numbers(&mut numbers, run, metrics);
        }
        Err(e) => {
            for h in [&mut all, &mut numbers] {
                h.write(e.to_string().as_bytes());
            }
        }
    }
    [all.finish(), numbers.finish()]
}

/// Compares against the committed table as a whole; a mismatch prints
/// the computed table in source form.
fn assert_pinned(name: &str, computed: &[(String, u64)], pinned: &[(&str, u64)]) {
    let same = computed.len() == pinned.len()
        && computed
            .iter()
            .zip(pinned)
            .all(|((cn, cd), (pn, pd))| cn == pn && cd == pd);
    if !same {
        let mut table = format!("const {name}: &[(&str, u64)] = &[\n");
        for (cell, digest) in computed {
            table.push_str(&format!("    (\"{cell}\", 0x{digest:016x}),\n"));
        }
        table.push_str("];");
        for ((cn, cd), (pn, pd)) in computed.iter().zip(pinned) {
            if cn != pn || cd != pd {
                eprintln!("first difference: {cn} 0x{cd:016x} vs pinned {pn} 0x{pd:016x}");
                break;
            }
        }
        panic!("executor contract changed; computed table:\n{table}");
    }
}

// ---------------------------------------------------------------------
// The tests.
// ---------------------------------------------------------------------

#[test]
fn scheduled_grid_is_byte_pinned() {
    let (mapper, reads) = workload();
    let system1 = profiles::system1();
    let tiny = tiny_platform(&mapper);
    let (mut computed, mut numbers) = (Vec::new(), Vec::new());
    for (sched_name, on_tiny, schedule_of) in SCHEDULES {
        let platform = if on_tiny { &tiny } else { &system1 };
        for (subset_name, subset) in SUBSETS {
            let schedule = schedule_of(&sub_platform(platform, subset), reads.len());
            let none = FaultPlan::new();
            let clean = Cell {
                platform,
                subset,
                schedule: &schedule,
                host_threads: 1,
                faults: &none,
                max_retries: 3,
                tracing: false,
            };
            let (clean_run, _) = run(&clean, &mapper, &reads).expect("fault-free");
            for (fault_name, faults, max_retries) in fault_plans(clean_run.simulated_seconds) {
                let name = format!("{sched_name}/{fault_name}/{subset_name}");
                let cell = |host_threads, tracing| Cell {
                    host_threads,
                    faults: &faults,
                    max_retries,
                    tracing,
                    ..clean
                };
                let one = run(&cell(1, true), &mapper, &reads);
                let three = run(&cell(3, true), &mapper, &reads);
                let digest = digest_run(&one, platform);
                assert_eq!(
                    digest,
                    digest_run(&three, platform),
                    "{name}: host threads changed the run"
                );
                // Tracing is observation only: the untraced run differs
                // by its empty span list and nothing else.
                if let (Ok((traced, metrics)), Ok((plain, plain_metrics))) =
                    (&one, &run(&cell(3, false), &mapper, &reads))
                {
                    assert!(plain.trace.is_empty(), "{name}: untraced run built spans");
                    let (mut a, mut b) = (Fnv64::new(), Fnv64::new());
                    digest_results(&mut a, traced, metrics, platform);
                    digest_results(&mut b, plain, plain_metrics, platform);
                    assert_eq!(a.finish(), b.finish(), "{name}: tracing changed the run");
                }
                computed.push((name.clone(), digest[0]));
                numbers.push((name, digest[1]));
            }
        }
    }
    assert_pinned("NUMBERS (first 32 rows)", &numbers, &NUMBERS[..32]);
    assert_pinned("SCHEDULED", &computed, SCHEDULED);
}

/// A journal path of this test's own under the system temp dir.
struct TempJournal(PathBuf);

impl TempJournal {
    fn new(tag: &str) -> TempJournal {
        let journal = TempJournal(std::env::temp_dir().join(format!(
            "repute-contract-{}-{tag}.journal",
            std::process::id()
        )));
        journal.remove();
        journal
    }

    fn remove(&self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(manifest_path(&self.0));
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        self.remove();
    }
}

/// `[everything, numbers only]` of one journaled step.
fn digest_journaled(
    outcome: &Result<ResumableRun, ReputeError>,
    platform: &Platform,
    journal: &Path,
) -> [u64; 2] {
    let (mut all, mut numbers) = (Fnv64::new(), Fnv64::new());
    if let Ok(done) = outcome {
        digest_results(&mut all, &done.run, &done.metrics, platform);
        digest_trace(&mut all, &done.run, platform);
        digest_numbers(&mut numbers, &done.run, &done.metrics);
    }
    let journal_bytes = std::fs::read(journal).expect("journal exists");
    let manifest_bytes = std::fs::read(manifest_path(journal)).expect("manifest exists");
    for h in [&mut all, &mut numbers] {
        match outcome {
            Ok(done) => {
                h.write_u64(done.resumed_batches as u64);
                h.write_u64(done.total_batches as u64);
            }
            Err(e) => h.write(e.to_string().as_bytes()),
        }
        h.write(&journal_bytes);
        h.write(&manifest_bytes);
    }
    [all.finish(), numbers.finish()]
}

#[test]
fn journaled_runs_are_byte_pinned() {
    let (mapper, reads) = workload();
    let system1 = profiles::system1();
    let tiny = tiny_platform(&mapper);
    let full: &[usize] = &[0, 1, 2];
    let (mut computed, mut numbers) = (Vec::new(), Vec::new());
    for (sched_name, on_tiny, schedule_of) in SCHEDULES {
        let platform = if on_tiny { &tiny } else { &system1 };
        let schedule = schedule_of(platform, reads.len());
        let mut per_thread_count = Vec::new();
        for host_threads in [1usize, 3] {
            let journal = TempJournal::new(&format!("{sched_name}-{host_threads}"));
            let none = FaultPlan::new();
            let clean = Cell {
                platform,
                subset: full,
                schedule: &schedule,
                host_threads,
                faults: &none,
                max_retries: 3,
                tracing: true,
            };
            let straight = run_journaled(&clean, &mapper, &reads, &journal.0);
            // Batch 0 is the first launch of the first timeline under
            // every schedule; crashing as it completes leaves it (and
            // whatever else has finished by then) committed.
            let first_done =
                straight.as_ref().expect("straight run").run.timelines[0][0].end_seconds;
            let mut digests = vec![digest_journaled(&straight, platform, &journal.0)];

            journal.remove();
            let crash = FaultPlan::new().host_crash(first_done);
            let crashing = Cell {
                faults: &crash,
                ..clean
            };
            let crashed = run_journaled(&crashing, &mapper, &reads, &journal.0);
            assert!(
                matches!(crashed, Err(ReputeError::Interrupted { .. })),
                "{sched_name}: the crash must interrupt the run"
            );
            digests.push(digest_journaled(&crashed, platform, &journal.0));
            let resumed = run_journaled(&clean, &mapper, &reads, &journal.0);
            assert!(
                resumed.as_ref().expect("resume").resumed_batches > 0,
                "{sched_name}: the resume must replay journaled batches"
            );
            digests.push(digest_journaled(&resumed, platform, &journal.0));
            per_thread_count.push(digests);
        }
        assert_eq!(
            per_thread_count[0], per_thread_count[1],
            "{sched_name}: host threads changed a journaled run"
        );
        for (step, digest) in ["straight", "crashed", "resumed"]
            .iter()
            .zip(&per_thread_count[0])
        {
            computed.push((format!("{sched_name}/{step}"), digest[0]));
            numbers.push((format!("{sched_name}/{step}"), digest[1]));
        }
    }
    assert_pinned("NUMBERS (last 12 rows)", &numbers, &NUMBERS[32..]);
    assert_pinned("JOURNALED", &computed, JOURNALED);
}

const SCHEDULED: &[(&str, u64)] = &[
    ("static-even/none/full", 0xaae09254797a2952),
    ("static-even/transient/full", 0x7a88428add199930),
    ("static-even/loss/full", 0x7761995a81bea5d1),
    ("static-even/no-retries/full", 0x5fb582ba264ffffc),
    ("static-even/none/sub02", 0xab1520ef7da18aa9),
    ("static-even/transient/sub02", 0x11e75eaee965273e),
    ("static-even/loss/sub02", 0x79e216834759d140),
    ("static-even/no-retries/sub02", 0xb14110452aed201b),
    ("static-tiny/none/full", 0x266d329e0fdc6c3f),
    ("static-tiny/transient/full", 0x0f17271bfb70fd7d),
    ("static-tiny/loss/full", 0x8b244381d7c41677),
    ("static-tiny/no-retries/full", 0x49fbceb1d5fa0298),
    ("static-tiny/none/sub02", 0xcda0c3d8461d5256),
    ("static-tiny/transient/sub02", 0xb2e805d8d75b5135),
    ("static-tiny/loss/sub02", 0xe40ee25ccab0b995),
    ("static-tiny/no-retries/sub02", 0x01c77f7c839ded33),
    ("dynamic-auto/none/full", 0xe7d9062e45c6beaf),
    ("dynamic-auto/transient/full", 0xea3ed25802527413),
    ("dynamic-auto/loss/full", 0x3c2182d2e6422a84),
    ("dynamic-auto/no-retries/full", 0xe6b7dcaed8d7700c),
    ("dynamic-auto/none/sub02", 0xb4769222abb0c64b),
    ("dynamic-auto/transient/sub02", 0x60c87cde4868cbfa),
    ("dynamic-auto/loss/sub02", 0x53a203a863b7963f),
    ("dynamic-auto/no-retries/sub02", 0x6b2d26189f93f446),
    ("dynamic-7/none/full", 0x668a5bec0fcc30e3),
    ("dynamic-7/transient/full", 0xd4c3d7001486b677),
    ("dynamic-7/loss/full", 0xcdd0ab9ba494d9cb),
    ("dynamic-7/no-retries/full", 0xad1ebaa04ef7718c),
    ("dynamic-7/none/sub02", 0x528622f8f69f09e4),
    ("dynamic-7/transient/sub02", 0x39ebf0ea9a68875e),
    ("dynamic-7/loss/sub02", 0xdf3727cb786e79e5),
    ("dynamic-7/no-retries/sub02", 0xb6620342dafaa4c3),
];

const JOURNALED: &[(&str, u64)] = &[
    ("static-even/straight", 0x94f51c676f713063),
    ("static-even/crashed", 0x5c4b3b5ed26983bd),
    ("static-even/resumed", 0x85eaf6d435d03adb),
    ("static-tiny/straight", 0x61fce8c67520d5c2),
    ("static-tiny/crashed", 0xe5c52aae23dde8ad),
    ("static-tiny/resumed", 0x9b49263823a0258c),
    ("dynamic-auto/straight", 0xcf1538878d16c280),
    ("dynamic-auto/crashed", 0xf7ccbc81f063527b),
    ("dynamic-auto/resumed", 0x3706ac449da508e0),
    ("dynamic-7/straight", 0xfed41722fddd1d8d),
    ("dynamic-7/crashed", 0xacf562db5d434093),
    ("dynamic-7/resumed", 0x6e35154f7b827749),
];

/// The numbers alone ([`digest_numbers`]), 32 scheduled cells then 12
/// journaled ones. Generated at the commit before stage 3 became one
/// routine (PR 22): a change to how a run *reports* — grouping, labels,
/// stamps, span names — moves the tables above and must leave this one
/// alone. If this one moves, a number moved.
const NUMBERS: &[(&str, u64)] = &[
    ("static-even/none/full", 0xe860b170356e435f),
    ("static-even/transient/full", 0x8b5bee21e31d820e),
    ("static-even/loss/full", 0xf9e24af8356d78bc),
    ("static-even/no-retries/full", 0x7b65ffc4e6d4d478),
    ("static-even/none/sub02", 0x617ed44517f1293f),
    ("static-even/transient/sub02", 0x093e8f1f3ac30acb),
    ("static-even/loss/sub02", 0x68451bf29adfda9c),
    ("static-even/no-retries/sub02", 0x968fea3a9bfbf565),
    ("static-tiny/none/full", 0xfde1f3e786a4c649),
    ("static-tiny/transient/full", 0x3afd2b40b116ae4a),
    ("static-tiny/loss/full", 0xbd51e60779a017c3),
    ("static-tiny/no-retries/full", 0xee6eb72c97b0abc0),
    ("static-tiny/none/sub02", 0xb9b63c5f96d832c1),
    ("static-tiny/transient/sub02", 0xbdd1983dc8ecdb17),
    ("static-tiny/loss/sub02", 0x59e1f2faef64fa97),
    ("static-tiny/no-retries/sub02", 0xadf847ecac9099f6),
    ("dynamic-auto/none/full", 0x5e7aa43414647464),
    ("dynamic-auto/transient/full", 0x3ead228e7f957007),
    ("dynamic-auto/loss/full", 0x75d7f170a6cc29ee),
    ("dynamic-auto/no-retries/full", 0x064ccc0ce28b7040),
    ("dynamic-auto/none/sub02", 0x7cfc37bec5dbd307),
    ("dynamic-auto/transient/sub02", 0x7a03014b1b61f4ad),
    ("dynamic-auto/loss/sub02", 0x0be0e3018d6e85ba),
    ("dynamic-auto/no-retries/sub02", 0x251ad6746bfe5efb),
    ("dynamic-7/none/full", 0xe24eff99d397b97a),
    ("dynamic-7/transient/full", 0xda64d5447e1f4529),
    ("dynamic-7/loss/full", 0xb1ecc1ae6ad741af),
    ("dynamic-7/no-retries/full", 0xae917e246805ada3),
    ("dynamic-7/none/sub02", 0x681e2c7448231278),
    ("dynamic-7/transient/sub02", 0x8b78cad258d7dcbc),
    ("dynamic-7/loss/sub02", 0x4ae853f295b9eb87),
    ("dynamic-7/no-retries/sub02", 0x738cd9a2038bb378),
    ("static-even/straight", 0x8bb9d0ff42251e67),
    ("static-even/crashed", 0x5c4b3b5ed26983bd),
    ("static-even/resumed", 0x35fc88add55fdf18),
    ("static-tiny/straight", 0x35afc08de4e6f2ca),
    ("static-tiny/crashed", 0xe5c52aae23dde8ad),
    ("static-tiny/resumed", 0xcd271018fcf7095d),
    ("dynamic-auto/straight", 0xc5b487503612d837),
    ("dynamic-auto/crashed", 0xf7ccbc81f063527b),
    ("dynamic-auto/resumed", 0x5a8068c9334b6778),
    ("dynamic-7/straight", 0xc784c63f1281390b),
    ("dynamic-7/crashed", 0xacf562db5d434093),
    ("dynamic-7/resumed", 0x7f835e18cfb4f928),
];
