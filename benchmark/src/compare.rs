//! `sweep` — repeat `run` over consecutive seeds, workloads interleaved
//! round-robin so slow machine drift falls on all of them alike — and
//! `compare`, which sets two sweep files side by side.

use std::process::Command;

use repute_obs::json::{field, parse_json, JsonObject, JsonValue};

use crate::spec::{self, Scale, WORKLOAD_NAMES};
use crate::stats::{median, quartiles};
use crate::RunOptions;

pub fn sweep(opts: &RunOptions) -> Result<(), String> {
    let out = opts.out.as_deref().ok_or("sweep needs --out <file>")?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let names: Vec<&str> = match opts.workload.as_deref() {
        Some(one) => vec![one],
        None => WORKLOAD_NAMES.to_vec(),
    };
    let mut runs = Vec::new();
    for seed in opts.seed..opts.seed + opts.seeds {
        for name in &names {
            let output = Command::new(&exe)
                .args(["run", "--workload", name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if opts.trace { "1" } else { "0" }])
                .args([
                    "--scale",
                    if opts.scale == Scale::Tiny {
                        "tiny"
                    } else {
                        "full"
                    },
                ])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawning run: {e}"))?;
            if !output.status.success() {
                return Err(format!("run of {name} with seed {seed} failed"));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout.lines().last().unwrap_or("").to_string();
            eprintln!("{name} seed {seed}: {result}");
            let mut run = JsonObject::new();
            run.str_field("workload", name);
            run.u64_field("seed", seed);
            run.raw_field("result", &result);
            runs.push(run.finish());
        }
    }
    let mut file = JsonObject::new();
    file.raw_field("runs", &format!("[\n{}\n]", runs.join(",\n")));
    std::fs::write(out, file.finish() + "\n").map_err(|e| format!("writing {out:?}: {e}"))
}

/// `(workload, metric, unit)` → values, in first-seen order.
type Samples = Vec<((String, String, String), Vec<f64>)>;

fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    let bad = || format!("{path:?} is not a sweep file");
    let root = parse_json(&text).ok_or_else(bad)?;
    let runs = field(root.as_obj().ok_or_else(bad)?, "runs")
        .and_then(JsonValue::as_arr)
        .ok_or_else(bad)?;
    let mut samples: Samples = Vec::new();
    for run in runs {
        let run = run.as_obj().ok_or_else(bad)?;
        let workload = field(run, "workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(bad)?;
        let metrics = field(run, "result")
            .and_then(JsonValue::as_obj)
            .and_then(|r| field(r, "metrics"))
            .and_then(JsonValue::as_obj)
            .ok_or_else(bad)?;
        for (name, entry) in metrics {
            let entry = entry.as_obj().ok_or_else(bad)?;
            let value = field(entry, "value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(bad)?;
            let unit = field(entry, "unit")
                .and_then(JsonValue::as_str)
                .ok_or_else(bad)?;
            let key = (workload.to_string(), name.clone(), unit.to_string());
            match samples.iter_mut().find(|(k, _)| *k == key) {
                Some((_, values)) => values.push(value),
                None => samples.push((key, vec![value])),
            }
        }
    }
    Ok(samples)
}

/// Interquartile range as a share of the median (0 below two samples).
fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) if median(values) != 0.0 => (q3 - q1) / median(values).abs(),
        _ => 0.0,
    }
}

/// Prints, per workload and metric, both medians, the ratio with its
/// base, the bound, and a verdict: for an end-to-end metric `ok`,
/// `worse` (b's median is worse than a's by more than the bound) or
/// `unresolved` (either side's quartile spread is wider than the bound);
/// for a count, `same` or `differs`; nothing for a per-layer timing.
/// Fails when any metric is `worse`.
pub fn compare(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err("compare expects two sweep files".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<20} {:<26} {:>14} {:>14} {:>9} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "b/a", "iqr a", "iqr b", "bound"
    );
    let mut worse = 0;
    for ((workload, name, unit), a_values) in &a {
        let Some((_, b_values)) = b.iter().find(|((w, n, _), _)| w == workload && n == name) else {
            continue;
        };
        let (ma, mb) = (median(a_values), median(b_values));
        let (sa, sb) = (spread(a_values), spread(b_values));
        let (bound_text, verdict) = match spec::bound(name) {
            Some((bound, higher_is_better)) => {
                let worsening = if higher_is_better { ma - mb } else { mb - ma } / ma.abs();
                let verdict = if worsening > bound {
                    worse += 1;
                    "worse"
                } else if sa.max(sb) > bound {
                    "unresolved"
                } else {
                    "ok"
                };
                (format!("{:.0}%", bound * 100.0), verdict)
            }
            None if matches!(unit.as_str(), "count" | "bytes" | "sim_s" | "J" | "%") => {
                (String::new(), if ma == mb { "same" } else { "differs" })
            }
            None => (String::new(), ""),
        };
        println!(
            "{workload:<20} {name:<26} {ma:>14.6} {mb:>14.6} {:>9.4} {:>6.1}% {:>6.1}% {bound_text:>6}  {verdict}",
            mb / ma,
            sa * 100.0,
            sb * 100.0,
        );
    }
    println!("ratios are b/a: {b_path} over {a_path}");
    if worse > 0 {
        return Err(format!("{worse} metric(s) worse than their bound"));
    }
    Ok(())
}
