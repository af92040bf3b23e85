//! Tiny-scale smoke of the whole benchmark: every workload in both
//! modes through the real binary, checked against `BENCHMARK.json`.
//! Each test owns one workload, so parallel tests share no file.

use std::process::Command;

use repute_obs::json::{field, parse_json, JsonValue};

const WORKLOADS: [&str; 4] = [
    "unique100",
    "repeat150",
    "repeat100_prefilter",
    "serve_small_jobs",
];

fn manifest() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    parse_json(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every entry of a metric list of `BENCHMARK.json`.
fn declared(manifest: &JsonValue, list: &str) -> Vec<(String, String)> {
    let entries = field(manifest.as_obj().unwrap(), list)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    entries
        .iter()
        .map(|e| {
            let e = e.as_obj().unwrap();
            let text = |k| field(e, k).and_then(JsonValue::as_str).unwrap().to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

struct Run {
    /// `name → value` of the table's note lines (`sam_fnv64`, …).
    notes: Vec<(String, String)>,
    /// The final JSON object.
    result: JsonValue,
}

impl Run {
    fn note(&self, key: &str) -> &str {
        let found = self.notes.iter().find(|(k, _)| k == key);
        &found.unwrap_or_else(|| panic!("no {key} note")).1
    }

    fn metrics(&self) -> &[(String, JsonValue)] {
        field(self.result.as_obj().unwrap(), "metrics")
            .and_then(JsonValue::as_obj)
            .expect("result has metrics")
    }

    fn value(&self, name: &str) -> f64 {
        let entry = field(self.metrics(), name).and_then(JsonValue::as_obj);
        field(entry.unwrap_or_else(|| panic!("no metric {name}")), "value")
            .and_then(JsonValue::as_f64)
            .expect("metric has a value")
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_repute-hostperf"))
        .args(["run", "--scale", "tiny", "--seconds", "0.3"])
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload} seed {seed} trace {trace}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = parse_json(lines.pop().expect("output")).expect("last line is JSON");
    let notes = lines
        .iter()
        .filter_map(|l| {
            let cells: Vec<&str> = l.split("  ").collect();
            (cells.len() == 4 && cells[3] == "note")
                .then(|| (cells[1].to_string(), cells[2].to_string()))
        })
        .collect();
    Run { notes, result }
}

/// The result object has exactly the contract's keys, and its metrics
/// are exactly the declared list, finite, with the declared units.
fn assert_matches_manifest(run: &Run, list: &str) {
    let keys: Vec<&str> = run
        .result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let result = run.result.as_obj().unwrap();
    assert_eq!(field(result, "correct"), Some(&JsonValue::Bool(true)));
    assert!(
        field(result, "attempted")
            .and_then(JsonValue::as_u64)
            .unwrap()
            >= 1
    );
    assert_eq!(field(result, "failed").and_then(JsonValue::as_u64), Some(0));

    let declared = declared(&manifest(), list);
    let emitted: Vec<&str> = run.metrics().iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        emitted, expected,
        "{list} metrics differ from BENCHMARK.json"
    );
    for (name, unit) in &declared {
        assert!(run.value(name).is_finite(), "{name} is not finite");
        let entry = field(run.metrics(), name)
            .and_then(JsonValue::as_obj)
            .unwrap();
        assert_eq!(
            field(entry, "unit").and_then(JsonValue::as_str),
            Some(unit.as_str()),
            "unit of {name}"
        );
    }
}

/// The counts of a traced run: every metric whose value must repeat
/// exactly for a seed.
fn counts(run: &Run) -> Vec<(String, f64)> {
    let exact = ["count", "bytes", "sim_s", "J", "%"];
    declared(&manifest(), "per_layer")
        .into_iter()
        .filter(|(name, unit)| exact.contains(&unit.as_str()) && !name.starts_with("serve."))
        .map(|(name, _)| {
            let value = run.value(&name);
            (name, value)
        })
        .collect()
}

fn smoke(workload: &str) {
    let e2e = run(workload, 7, false);
    assert_matches_manifest(&e2e, "end_to_end");
    for (name, _) in declared(&manifest(), "end_to_end") {
        assert!(e2e.value(&name) > 0.0, "{name} must never be 0");
    }

    let traced = run(workload, 7, true);
    assert_matches_manifest(&traced, "per_layer");
    assert!(traced.value("core.map_read_s") > 0.0);
    assert!(traced.value("index.extend_ops") > 0.0);
    assert_eq!(traced.value("eval.recall_pct"), 100.0);
    let prefiltered = workload == "repeat100_prefilter";
    assert_eq!(traced.value("prefilter.tested") > 0.0, prefiltered);
    assert_eq!(traced.value("prefilter.examine_s") > 0.0, prefiltered);
    let served = workload == "serve_small_jobs";
    assert_eq!(traced.value("serve.run_batch_p50_s") > 0.0, served);
    assert_eq!(traced.value("serve.jobs_per_s") > 0.0, served);

    // Same seed: identical counts and output digest, in both modes.
    let again = run(workload, 7, true);
    assert_eq!(counts(&traced), counts(&again));
    assert_eq!(traced.note("sam_fnv64"), again.note("sam_fnv64"));
    // (At this scale both modes map the same reads.)
    assert_eq!(e2e.note("sam_fnv64"), traced.note("sam_fnv64"));
    // Another seed: other inputs, so another output.
    let other = run(workload, 8, false);
    assert_ne!(e2e.note("sam_fnv64"), other.note("sam_fnv64"));

    // The span file: one root, every other span under an earlier one.
    let path = format!("{}/out/{workload}.trace.json", env!("CARGO_MANIFEST_DIR"));
    let trace = parse_json(&std::fs::read_to_string(path).unwrap()).expect("trace file is JSON");
    let spans = field(trace.as_obj().unwrap(), "spans")
        .and_then(JsonValue::as_arr)
        .expect("trace file has spans");
    assert!(spans.len() > 10);
    for (id, span) in spans.iter().enumerate() {
        let span = span.as_obj().unwrap();
        let num = |k| field(span, k).and_then(JsonValue::as_u64);
        assert_eq!(num("id"), Some(id as u64));
        assert!(num("start") <= num("end"));
        match field(span, "parent") {
            Some(JsonValue::Null) => assert_eq!(id, 0, "only the workload span has no parent"),
            parent => assert!(parent.and_then(JsonValue::as_u64).unwrap() < id as u64),
        }
    }
}

#[test]
fn unique100() {
    smoke("unique100");
}

#[test]
fn repeat150() {
    smoke("repeat150");
}

#[test]
fn repeat100_prefilter() {
    smoke("repeat100_prefilter");
}

#[test]
fn serve_small_jobs() {
    smoke("serve_small_jobs");
}

#[test]
fn manifest_names_the_workloads_and_the_package() {
    let manifest = manifest();
    let manifest = manifest.as_obj().unwrap();
    let keys: Vec<&str> = manifest.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads: Vec<&str> = field(manifest, "workloads")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|w| {
            field(w.as_obj().unwrap(), "name")
                .and_then(JsonValue::as_str)
                .unwrap()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let paths = field(manifest, "paths")
        .and_then(JsonValue::as_arr)
        .unwrap();
    assert_eq!(paths, [JsonValue::Str("benchmark".into())]);
}

#[test]
fn compare_reads_what_sweep_writes() {
    let dir = format!("{}/out", env!("CARGO_MANIFEST_DIR"));
    std::fs::create_dir_all(&dir).unwrap();
    let file = format!("{dir}/smoke-sweep-{}.json", std::process::id());
    let exe = env!("CARGO_BIN_EXE_repute-hostperf");
    let sweep = Command::new(exe)
        .args([
            "sweep",
            "--scale",
            "tiny",
            "--seconds",
            "0.3",
            "--seeds",
            "2",
        ])
        .args(["--workload", "unique100", "--out", &file])
        .output()
        .unwrap();
    assert!(sweep.status.success());
    let compare = Command::new(exe)
        .args(["compare", &file, &file])
        .output()
        .unwrap();
    let table = String::from_utf8(compare.stdout).unwrap();
    std::fs::remove_file(&file).unwrap();
    assert!(
        compare.status.success(),
        "a file is never worse than itself"
    );
    // One row per end-to-end metric, with the bound `BENCHMARK.json` fixes.
    let manifest = manifest();
    let entries = field(manifest.as_obj().unwrap(), "end_to_end")
        .and_then(JsonValue::as_arr)
        .unwrap();
    for entry in entries {
        let entry = entry.as_obj().unwrap();
        let name = field(entry, "name").and_then(JsonValue::as_str).unwrap();
        let bound = field(entry, "bound").and_then(JsonValue::as_f64).unwrap();
        let row = table
            .lines()
            .find(|l| l.split_whitespace().nth(1) == Some(name))
            .unwrap_or_else(|| panic!("no row for {name}"));
        assert!(row.contains("1.0000"), "ratio of {name} to itself: {row}");
        assert!(
            row.contains(&format!(" {:.0}% ", bound * 100.0)),
            "bound of {name} differs from BENCHMARK.json: {row}"
        );
    }
}
