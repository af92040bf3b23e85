//! The telemetry contract, pinned: what `repute stats` prints for every
//! record kind, and the bytes the writers emit.
//!
//! (a) One hand-written telemetry text holding every record kind — and
//! every legacy shape a reader still meets — with the `render_stats` /
//! `render_stats_strict` output held verbatim. (b) The FNV-64 of
//! `ServeCore::telemetry_bytes()` and of the per-job file set for one
//! fixed daemon scenario. (c) The FNV-64 of a `--platform system1`
//! `--metrics-out` file with the host wall clock zeroed.
//! `tests/executor_contract.rs` already hashes `to_json_line` and
//! `write_json_lines`; together these are the byte oracle for the
//! telemetry schema in `repute-obs`.
//!
//! Generated at the commit before the schema got its one module. The
//! one deliberate difference since: a run with no `device` and no
//! `energy` record no longer prints a simulated clock that did not run
//! (the legacy cell's line was `run: 2 reads | simulated 0.000000 s |
//! wall 0.250 s`). The three digests of (b) and (c) were regenerated
//! once, when the k-mer interval table cut the extension count (PR 21):
//! compared field by field with the parent's bytes, only `fm_extend_ops`
//! and what the simulated clock derives from it (`work`, seconds,
//! latencies, power and energy) had moved. The digest of (c) moved once
//! more when stage 3 became one routine (PR 22): two labels,
//! `d1-batch-0` → `d1-batch-1` and `d2-batch-0` → `d2-batch-2` (the
//! index now counts over the run, not within the share), and no other
//! byte.

#![cfg(unix)]

use repute_cli::{
    parse_map_args, render_stats, render_stats_strict, run_map, run_simulate, SimulateOptions,
};
use repute_core::journal::Fnv64;
use repute_genome::synth::ReferenceBuilder;
use repute_genome::DnaSeq;
use repute_hetsim::{profiles, FaultPlan};
use repute_mappers::multiref::ReferenceSet;
use repute_serve::{JobEnvelope, JobStatus, ServeHarness, ServeOptions};

// ---------------------------------------------------------------------
// (a) Every record kind through `repute stats`.
// ---------------------------------------------------------------------

/// The intact records: a legacy host-only cell (reads without the four
/// prefilter fields, a `run` without `resumed_batches`), a resumed
/// `system1` cell (a `device` with and one without fault counters), four
/// jobs of three tenants, two `serve` snapshots with their `slo` rows,
/// and two kinds the renderer does not know.
const RECORDS: &str = r#"{"type":"cell","label":"legacy host-only"}
{"type":"read","id":0,"seeds_selected":6,"fm_extend_ops":120,"fm_locate_ops":9,"candidates_raw":9,"candidates_merged":4,"dp_cells":300,"verifications":4,"word_updates":800,"hits":1}
{"type":"read","id":1,"seeds_selected":6,"fm_extend_ops":130,"fm_locate_ops":40,"candidates_raw":40,"candidates_merged":11,"dp_cells":310,"verifications":11,"word_updates":2200,"hits":2}
{"type":"run","reads":2,"simulated_seconds":0.0,"wall_seconds":0.25,"seeds_selected":12,"fm_extend_ops":250,"fm_locate_ops":49,"candidates_raw":49,"candidates_merged":15,"dp_cells":610,"verifications":15,"word_updates":3000,"hits":3}
{"type":"stage","path":"load","seconds":0.125,"count":1}
{"type":"stage","path":"map","seconds":0.0625,"count":1}
{"type":"cell","label":"system1 resumed"}
{"type":"read","id":0,"seeds_selected":6,"fm_extend_ops":110,"fm_locate_ops":5,"candidates_raw":5,"candidates_merged":3,"dp_cells":290,"prefilter_tested":3,"prefilter_rejected":2,"prefilter_false_accepts":0,"prefilter_words":60,"verifications":1,"word_updates":200,"hits":1}
{"type":"read","id":1,"seeds_selected":6,"fm_extend_ops":115,"fm_locate_ops":7,"candidates_raw":7,"candidates_merged":5,"dp_cells":295,"prefilter_tested":5,"prefilter_rejected":3,"prefilter_false_accepts":1,"prefilter_words":100,"verifications":2,"word_updates":400,"hits":1}
{"type":"read","id":2,"seeds_selected":0,"fm_extend_ops":90,"fm_locate_ops":0,"candidates_raw":0,"candidates_merged":0,"dp_cells":280,"prefilter_tested":0,"prefilter_rejected":0,"prefilter_false_accepts":0,"prefilter_words":0,"verifications":0,"word_updates":0,"hits":0}
{"type":"run","reads":3,"simulated_seconds":0.004,"wall_seconds":0.5,"resumed_batches":2,"seeds_selected":12,"fm_extend_ops":315,"fm_locate_ops":12,"candidates_raw":12,"candidates_merged":8,"dp_cells":865,"prefilter_tested":8,"prefilter_rejected":5,"prefilter_false_accepts":1,"prefilter_words":160,"verifications":3,"word_updates":600,"hits":2}
{"type":"stage","path":"load","seconds":0.25,"count":1}
{"type":"stage","path":"map","seconds":0.125,"count":1}
{"type":"stage","path":"map/filtration","seconds":0.003,"count":3}
{"type":"stage","path":"map/prefilter","seconds":0.0002,"count":8}
{"type":"stage","path":"map/verification","seconds":0.0008,"count":3}
{"type":"latency","stage":"map/filtration","count":3,"p50_s":0.001,"p90_s":0.0011,"p99_s":0.0011}
{"type":"latency","stage":"batch","count":2,"p50_s":0.0015,"p90_s":0.002,"p99_s":0.002}
{"type":"device","device":"i7-2600 [cpu]","launches":2,"busy_seconds":0.0035,"utilization":0.875,"retries":1,"faults":2,"migrated_batches":1}
{"type":"event","device":"i7-2600 [cpu]","label":"d0-batch-0","items":2,"work":9000,"queued_s":0.0,"submitted_s":0.0,"start_s":0.0,"end_s":0.002}
{"type":"event","device":"i7-2600 [cpu]","label":"d0-batch-1","items":1,"work":4000,"queued_s":0.0,"submitted_s":0.002,"start_s":0.0025,"end_s":0.004}
{"type":"device","device":"gtx-590 [gpu]","launches":0,"busy_seconds":0.0,"utilization":0.0}
{"type":"energy","mapping_seconds":0.004,"average_power_w":95.5,"idle_power_w":60.0,"energy_j":0.142}
{"type":"job","seq":0,"id":"a-1","tenant":"acme","reads":4,"mappings":5,"batch":0,"latency_s":0.25,"replayed":false}
{"type":"job","seq":1,"id":"l-1","tenant":"lab","reads":2,"mappings":2,"batch":0,"latency_s":0.75,"replayed":true}
{"type":"job","seq":2,"id":"e-1","tenant":"edge","reads":1,"mappings":0,"batch":1,"latency_s":0.5,"replayed":false}
{"type":"job","seq":3,"id":"a-2","tenant":"acme","reads":3,"mappings":4,"batch":1,"latency_s":1.5,"replayed":false}
{"type":"serve","accepted":3,"rejected":1,"retry_later":2,"quota_exceeded":1,"completed":2,"replayed":1,"batches":1,"compactions":1,"connection_errors":0,"spool_skipped":1,"shed":0,"unavailable":0,"faults":0,"retries":0,"migrated":0,"devices_live":3,"devices_lost":0,"queue_depth":1,"queue_depth_max":5,"simulated_seconds":0.75}
{"type":"latency","stage":"job","count":2,"p50_s":0.25,"p90_s":0.75,"p99_s":0.75}
{"type":"slo","tenant":"acme","met":2,"missed":0,"hit_rate":1.0,"window_s":60.0}
{"type":"slo","tenant":"lab","met":0,"missed":1,"hit_rate":0.0,"window_s":60.0}
{"type":"serve","accepted":2,"rejected":0,"retry_later":0,"quota_exceeded":0,"completed":2,"replayed":0,"batches":1,"compactions":0,"connection_errors":2,"spool_skipped":0,"shed":1,"unavailable":0,"faults":1,"retries":2,"migrated":1,"devices_live":2,"devices_lost":1,"queue_depth":0,"queue_depth_max":2,"simulated_seconds":1.5}
{"type":"slo","tenant":"edge","met":3,"missed":0,"hit_rate":1.0,"window_s":60.0}
{"type":"slo","tenant":"acme","met":1,"missed":1,"hit_rate":0.5,"window_s":60.0}
{"type":"mystery","x":1}
{"no_type":true}
"#;

/// [`RECORDS`] as a reader finds it in the wild: a blank line in the
/// middle, a line that is not JSON, and a torn last line.
fn damaged() -> String {
    let mut lines: Vec<&str> = RECORDS.lines().collect();
    lines.insert(6, "");
    lines.insert(12, "not json at all");
    lines.push("{\"type\":\"read\",\"id\":");
    lines.join("\n") + "\n"
}

const RENDERED: &str = r#"5 read records; totals:
  seeds_selected               24  (4.8/read)
  fm_extend_ops               565  (113.0/read)
  fm_locate_ops                61  (12.2/read)
  candidates_raw               61  (12.2/read)
  candidates_merged            23  (4.6/read)
  dp_cells                   1475  (295.0/read)
  verifications                18  (3.6/read)
  word_updates               3600  (720.0/read)
  hits                          5  (1.0/read)
  prefilter_tested              8  (1.6/read)
  prefilter_rejected            5  (1.0/read)
  prefilter_false_accepts            1  (0.2/read)
  prefilter_words             160  (32.0/read)
  prefilter: 5/8 candidates rejected (62.5%), 1 false accepts (33.3% of accepts)
cell legacy host-only
run: 2 reads | wall 0.250 s
  stage load                       0.125000 s  x1
  stage map                        0.062500 s  x1
cell system1 resumed
run: 3 reads | simulated 0.004000 s | wall 0.500 s
  resumed from checkpoint: 2 batch(es) replayed from the journal (not re-executed)
  stage load                       0.250000 s  x1
  stage map                        0.125000 s  x1
  stage map/filtration             0.003000 s  x3
  stage map/prefilter              0.000200 s  x8
  stage map/verification           0.000800 s  x3
  latency percentiles (simulated seconds)
  population                      n          p50          p90          p99
  map/filtration                  3  0.001000000  0.001100000  0.001100000
  batch                           2  0.001500000  0.002000000  0.002000000
  device i7-2600 [cpu]          2 launches | busy 0.003500 s | util  87.5%
    faults 2 | retries 1 | migrated batches 1
    d0-batch-0            2 items | queued 0.000000 start 0.000000 end 0.002000
    d0-batch-1            1 items | queued 0.000000 start 0.002500 end 0.004000
  device gtx-590 [gpu]          0 launches | busy 0.000000 s | util   0.0%
  energy: 0.142 J above idle | avg 95.5 W (idle 60.0 W) over 0.004000 s
  job                             2  0.250000000  0.750000000  0.750000000
(mystery record)
(? record)
serve (2 snapshot(s)): accepted 5 | rejected 1 | retry-later 2 | quota-exceeded 1 | completed 4 (1 replayed) | 2 batch(es)
  compactions 1 | connection errors 2 | spool skipped 1
  shed 1 | unavailable 0 | faults 1 | retries 2 | migrated batches 1
  devices live 2 (1 lost)
  queue depth high-water 5 | simulated 2.250000 s
deadline SLO (trailing window):
  tenant              met missed  hit-rate
  acme                  3      1     0.750
  edge                  3      0     1.000
  lab                   0      1     0.000
jobs: 4 completed (1 replayed) | 10 reads | 11 mappings
  tenant acme                  2 job(s)
  tenant lab                   1 job(s)
  tenant edge                  1 job(s)
  job latency (merged, simulated seconds): n=4 p50 0.500000000 p90 1.500000000 p99 1.500000000
"#;

#[test]
fn every_record_kind_renders_verbatim() {
    let strict = render_stats_strict(RECORDS).expect("every record is intact");
    assert_eq!(strict, RENDERED, "strict render changed:\n{strict}");

    let lenient = render_stats(&damaged()).expect("lenient never fails");
    assert_eq!(
        lenient,
        format!("{RENDERED}warning: skipped 2 malformed line(s)\n"),
        "lenient render changed:\n{lenient}"
    );

    let err = render_stats_strict(&damaged()).expect_err("strict refuses damage");
    assert_eq!(err.exit_code(), 3);
    assert_eq!(
        err.to_string(),
        "input parse error: line 13: not a flat JSON object"
    );
}

// ---------------------------------------------------------------------
// (b) The daemon's telemetry bytes.
// ---------------------------------------------------------------------

/// Three tenants; three deadline jobs, of which the earliest runs first
/// and finishes late, the next is shed while it waits, and the loosest
/// is met; a device lost under the first batch. Serial rounds, so the
/// order of everything is fixed.
fn served() -> ServeHarness {
    let reference = ReferenceBuilder::new(120_000).seed(8801).build();
    let read = |name: &str, start: usize| -> Vec<(String, DnaSeq)> {
        vec![(name.to_string(), reference.subseq(start..start + 100))]
    };
    let mut harness = ServeHarness::new(
        ReferenceSet::build(vec![("chrF".to_string(), reference.clone())]),
        profiles::system1(),
        ServeOptions {
            shed_overdue: true,
            concurrent_batches: false,
            fault_plan: FaultPlan::new().loss(1, 1.0e-9),
            ..ServeOptions::default()
        },
    )
    .expect("valid options");
    let jobs = [
        JobEnvelope::new("urgent", read("ru", 10_000))
            .with_tenant("acme")
            .with_deadline(1.0e-12),
        JobEnvelope::new("late", read("rv", 20_000))
            .with_tenant("lab")
            .with_delta(3)
            .with_deadline(1.0e-9),
        JobEnvelope::new("edge-1", read("re", 30_000))
            .with_tenant("edge")
            .with_deadline(10.0),
        JobEnvelope::new("acme-2", read("ra", 40_000))
            .with_tenant("acme")
            .with_delta(3),
    ];
    for job in jobs {
        assert!(harness.submit(job).expect("no journal").is_none());
    }
    let responses = harness.drain().expect("drain");
    let status = |id: &str| {
        responses
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.status)
            .expect("answered")
    };
    assert_eq!(status("urgent"), JobStatus::Ok);
    assert_eq!(status("late"), JobStatus::DeadlineExceeded);
    let counters = harness.counters();
    assert_eq!((counters.completed, counters.shed), (3, 1));
    assert_eq!(harness.core().health().lost_count(), 1);
    harness
}

#[test]
fn daemon_telemetry_bytes_are_pinned() {
    let harness = served();
    let bytes = harness.core().telemetry_bytes();
    let text = String::from_utf8(bytes.clone()).expect("telemetry is UTF-8");
    for kind in ["job", "serve", "latency", "slo"] {
        assert!(
            text.contains(&format!("{{\"type\":\"{kind}\"")),
            "no {kind} record in:\n{text}"
        );
    }
    let mut h = Fnv64::new();
    h.write(&bytes);
    assert_eq!(
        h.finish(),
        0x6a38_3f05_ac06_eb89,
        "--metrics-out bytes changed: 0x{:016x}\n{text}",
        h.finish()
    );

    let dir = std::env::temp_dir().join(format!("repute-stats-contract-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    harness
        .core()
        .write_job_telemetry_dir(&dir)
        .expect("temp dir is writable");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("just written")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut h = Fnv64::new();
    for name in &names {
        h.write(name.as_bytes());
        h.write(&std::fs::read(dir.join(name)).expect("just written"));
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(names.len(), 3);
    assert_eq!(
        h.finish(),
        0x9311_9c9f_13dd_b3b0,
        "--metrics-dir file set changed: 0x{:016x} {names:?}",
        h.finish()
    );
}

// ---------------------------------------------------------------------
// (c) A simulated run's `--metrics-out` file.
// ---------------------------------------------------------------------

/// `line` with the number after `"key":` replaced by `0.0`.
fn zeroed(line: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle).expect("field present") + needle.len();
    let end = at + line[at..].find([',', '}']).expect("field ends");
    format!("{}0.0{}", &line[..at], &line[end..])
}

#[test]
fn simulated_run_metrics_file_is_pinned() {
    let dir =
        std::env::temp_dir().join(format!("repute-stats-contract-map-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_s = dir.to_string_lossy().into_owned();
    run_simulate(&SimulateOptions {
        out_dir: dir_s.clone(),
        length: 60_000,
        reads: 24,
        read_len: 100,
        seed: 53,
        profile: "err012100".into(),
    })
    .expect("dataset");
    let opts = parse_map_args(
        format!(
            "--reference {dir_s}/reference.fa --reads {dir_s}/reads.fq --delta 5 \
             --prefilter both --platform system1 --host-threads 1 \
             --output {dir_s}/out.sam --metrics-out {dir_s}/m.jsonl"
        )
        .split_whitespace()
        .map(String::from),
    )
    .expect("valid flags");
    run_map(&opts).expect("maps");
    let text = std::fs::read_to_string(dir.join("m.jsonl")).expect("written");
    std::fs::remove_dir_all(&dir).ok();

    // The host wall clock is the only thing in the file that differs
    // between two runs: the `run` record's `wall_seconds` and the host
    // stages (the paths without a `/`; `map/*` rows are simulated). The
    // commit this was generated at also wrote a third host stage,
    // `simulate` — the second mapping pass the one run path no longer
    // makes — which is left out of the digest.
    let mut h = Fnv64::new();
    let mut kinds = Vec::new();
    for line in text.lines() {
        let kind = line
            .strip_prefix("{\"type\":\"")
            .and_then(|l| l.split('"').next())
            .expect("typed record");
        let line = match kind {
            "run" => zeroed(line, "wall_seconds"),
            "stage" if line.contains("\"path\":\"simulate\"") => continue,
            "stage" if !line.contains('/') => zeroed(line, "seconds"),
            _ => line.to_string(),
        };
        if kinds.last() != Some(&kind) {
            kinds.push(kind);
        }
        h.write(line.as_bytes());
        h.write(b"\n");
    }
    assert_eq!(
        kinds,
        [
            "read", "run", "stage", "latency", "device", "event", "device", "event", "device",
            "event", "energy"
        ],
    );
    assert_eq!(
        h.finish(),
        0x1ce2_c979_6466_07fd,
        "--platform --metrics-out bytes changed: 0x{:016x}",
        h.finish()
    );
}
