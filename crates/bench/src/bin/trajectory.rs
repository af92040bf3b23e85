//! Benchmark trajectory: the committed, schema-versioned performance
//! baseline (`BENCH_pr6.json`) and its CI regression gate.
//!
//! Two modes:
//!
//! * `--write <path>` — run the fixed trajectory workload and write the
//!   baseline document: per cell, wall and simulated seconds, word-op
//!   totals, and per-stage latency percentiles.
//! * `--check <path>` — re-run the same workload fresh, validate the
//!   committed document against the schema, and **fail (exit 1) when any
//!   cell's fresh simulated seconds exceed the committed baseline by more
//!   than 20%** — the regression gate CI runs on every push.
//!
//! The trajectory scale is pinned ([`Scale::tiny`]: 60 kbp reference, 40 reads/set) and
//! deliberately ignores the `REPUTE_REF_LEN`/`REPUTE_READS` environment
//! overrides: the committed numbers are only comparable when every run
//! maps the identical workload. Simulated seconds are a deterministic
//! function of the workload and mapper, so an unchanged tree reproduces
//! the baseline exactly; the 20% headroom absorbs intentional
//! cost-model changes small enough not to need a baseline refresh
//! (larger changes regenerate the file with `--write`).

use std::sync::Arc;

use repute_bench::gate::{Checks, Gate, Mode, REGRESSION_FACTOR};
use repute_bench::workload::{s_min_for, Scale, Workload};
use repute_core::{Executor, ReputeConfig, ReputeMapper, Schedule};
use repute_hetsim::profiles;
use repute_obs::json::{field, JsonObject, JsonValue};
use repute_obs::StageLatency;

const GATE: Gate = Gate {
    binary: "trajectory",
    schema: "repute-bench-trajectory",
    version: 1,
    noun: "trajectory",
    smoke: None,
};

/// The `(read_len, δ)` cells the trajectory tracks: the corners and
/// center of the paper grid — enough to catch regressions in both read
/// sets without making the CI gate slow.
const CELLS: [(usize, u32); 3] = [(100, 3), (100, 5), (150, 7)];

/// One measured trajectory cell.
struct CellMeasurement {
    label: String,
    read_len: usize,
    delta: u32,
    wall_seconds: f64,
    simulated_seconds: f64,
    word_updates: u64,
    prefilter_words: u64,
    latencies: Vec<StageLatency>,
}

/// Maps a report stage path (`map/filtration`) to its flat key prefix
/// (`filtration`).
fn stage_key(stage: &str) -> String {
    stage.rsplit('/').next().unwrap_or(stage).to_string()
}

fn measure() -> Vec<CellMeasurement> {
    let w = Workload::generate(Scale::tiny());
    let platform = profiles::system1();
    CELLS
        .iter()
        .map(|&(read_len, delta)| {
            let reads = w.read_seqs(read_len);
            let config =
                ReputeConfig::new(delta, s_min_for(read_len, delta)).expect("valid config");
            let mapper = ReputeMapper::new(Arc::clone(&w.indexed), config);
            let schedule = Schedule::Static(platform.even_shares(reads.len()));
            let (run, metrics) = Executor::new(schedule)
                .run(&mapper, &platform, &reads)
                .expect("trajectory cell run failed");
            let report = run.report(&platform, &metrics);
            CellMeasurement {
                label: format!("n={read_len} d={delta}"),
                read_len,
                delta,
                wall_seconds: run.wall_seconds,
                simulated_seconds: run.simulated_seconds,
                word_updates: report.totals.word_updates,
                prefilter_words: report.totals.prefilter_words,
                latencies: report.latencies,
            }
        })
        .collect()
}

fn render_document(cells: &[CellMeasurement]) -> String {
    let cell_objects: Vec<String> = cells
        .iter()
        .map(|c| {
            let mut obj = JsonObject::new();
            obj.str_field("label", &c.label);
            obj.u64_field("read_len", c.read_len as u64);
            obj.u64_field("delta", u64::from(c.delta));
            obj.f64_field("wall_seconds", c.wall_seconds);
            obj.f64_field("simulated_seconds", c.simulated_seconds);
            obj.u64_field("word_updates", c.word_updates);
            obj.u64_field("prefilter_words", c.prefilter_words);
            for lat in &c.latencies {
                let key = stage_key(&lat.stage);
                obj.u64_field(&format!("{key}_n"), lat.count);
                obj.f64_field(&format!("{key}_p50_s"), lat.p50_seconds);
                obj.f64_field(&format!("{key}_p90_s"), lat.p90_seconds);
                obj.f64_field(&format!("{key}_p99_s"), lat.p99_seconds);
            }
            obj.finish()
        })
        .collect();
    let scale = Scale::tiny();
    let mut scale_obj = JsonObject::new();
    scale_obj.u64_field("reference_len", scale.reference_len as u64);
    scale_obj.u64_field("reads_per_set", scale.reads_per_set as u64);
    let mut doc = JsonObject::new();
    doc.str_field("schema", GATE.schema);
    doc.u64_field("version", GATE.version);
    doc.raw_field("scale", &scale_obj.finish());
    doc.raw_field("cells", &format!("[{}]", cell_objects.join(",")));
    let mut text = doc.finish();
    text.push('\n');
    text
}

/// Validates the committed document's shape; returns the cells keyed by
/// label, or the first schema violation.
fn validate_document(text: &str) -> Result<Vec<(String, f64)>, String> {
    let fields = &GATE.header(text)?;
    field(fields, "scale")
        .and_then(JsonValue::as_obj)
        .ok_or("missing object field \"scale\"")?;
    let cells = field(fields, "cells")
        .and_then(JsonValue::as_arr)
        .ok_or("missing array field \"cells\"")?;
    if cells.is_empty() {
        return Err("\"cells\" is empty".into());
    }
    let mut out = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let cell = cell
            .as_obj()
            .ok_or_else(|| format!("cell {i} is not an object"))?;
        let label = field(cell, "label")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("cell {i} is missing \"label\""))?;
        for required in [
            "read_len",
            "delta",
            "wall_seconds",
            "simulated_seconds",
            "word_updates",
            "prefilter_words",
            "filtration_p50_s",
            "filtration_p90_s",
            "filtration_p99_s",
            "batch_p50_s",
            "batch_p99_s",
        ] {
            if field(cell, required).and_then(JsonValue::as_f64).is_none() {
                return Err(format!(
                    "cell {label:?} is missing numeric field {required:?}"
                ));
            }
        }
        let simulated = field(cell, "simulated_seconds")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        out.push((label.to_string(), simulated));
    }
    Ok(out)
}

fn main() {
    let (mode, path) = GATE.mode().expect("a mode is required");
    println!(
        "Benchmark trajectory — schema {} v{}",
        GATE.schema, GATE.version
    );
    let scale = Scale::tiny();
    println!(
        "pinned scale: {} bp reference, {} reads/set ({} cells)",
        scale.reference_len,
        scale.reads_per_set,
        CELLS.len()
    );
    println!("measuring…");
    let fresh = measure();
    for c in &fresh {
        println!(
            "  {:<10} simulated {:.6} s | wall {:.3} s | {} word update(s) | batch p99 {:.6} s",
            c.label,
            c.simulated_seconds,
            c.wall_seconds,
            c.word_updates,
            c.latencies
                .iter()
                .find(|l| l.stage == "batch")
                .map_or(0.0, |l| l.p99_seconds),
        );
    }

    if mode == Mode::Write {
        GATE.write(&path, &render_document(&fresh), validate_document);
        return;
    }

    // --check: schema-validate the committed baseline, then gate on
    // simulated-seconds regressions.
    let committed = GATE.read(&path, validate_document);
    println!("schema OK: {} committed cell(s)", committed.len());
    let mut checks = Checks::default();
    for c in &fresh {
        let Some((_, baseline)) = committed.iter().find(|(label, _)| *label == c.label) else {
            checks.fail(&format!("committed baseline has no cell {:?}", c.label));
            continue;
        };
        let ratio = if *baseline > 0.0 {
            c.simulated_seconds / baseline
        } else {
            1.0
        };
        println!(
            "  {:<10} fresh {:.6} s vs committed {:.6} s ({:+.1}%)",
            c.label,
            c.simulated_seconds,
            baseline,
            (ratio - 1.0) * 100.0
        );
        if ratio > REGRESSION_FACTOR {
            checks.fail(&format!(
                "cell {:?} regressed {:.1}% in simulated seconds (gate: {:.0}%)",
                c.label,
                (ratio - 1.0) * 100.0,
                (REGRESSION_FACTOR - 1.0) * 100.0
            ));
        }
    }
    checks.finish("trajectory ");
    println!("\nall trajectory checks passed");
}
