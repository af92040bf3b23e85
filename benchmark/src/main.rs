//! `repute-hostperf` — the host wall-clock benchmark of the REPUTE
//! reproduction. See `benchmark/README.md`.
//!
//! ```text
//! repute-hostperf run --workload W [--seed S] [--seconds T] [--trace 0|1]
//!                     [--scale full|tiny] [--out F]
//! repute-hostperf sweep --out F [--seeds N] [--first-seed S] [--seconds T]
//!                       [--trace 0|1] [--scale full|tiny]
//! repute-hostperf compare <a.json> <b.json>
//! ```

#![forbid(unsafe_code)]

mod check;
mod child;
mod compare;
mod e2e;
mod gen;
mod serve;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

use repute_obs::json::JsonObject;

use e2e::Outcome;
use spec::{Scale, Workload, DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END, PER_LAYER};

const USAGE: &str = "\
repute-hostperf — host wall-clock benchmark of the REPUTE reproduction

    run      --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
             [--scale full|tiny] [--out <file>]
             one run of one workload; prints every metric as
             `workload  name  value  unit` and, last, one JSON object
    sweep    --out <file> [--seeds <n>] [--first-seed <n>] [--seconds <s>]
             [--trace 0|1] [--scale full|tiny]
             `run` for <n> consecutive seeds, workloads interleaved
    compare  <a.json> <b.json>
             two sweep files: medians, ratio b/a, bound, verdict

workloads: unique100 repeat150 repeat100_prefilter serve_small_jobs";

/// Options shared by `run` and `sweep`.
pub struct RunOptions {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub out: Option<String>,
    pub seeds: u64,
}

fn parse_options(args: &[String]) -> Result<RunOptions, String> {
    let mut opts = RunOptions {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: Scale::Full,
        out: None,
        seeds: 10,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = Some(value.clone()),
            "--seed" | "--first-seed" => opts.seed = number()?,
            "--seeds" => opts.seeds = number()?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds expects a number, got {value:?}"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            "--scale" => {
                opts.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale expects full or tiny, got {value:?}")),
                }
            }
            "--out" => opts.out = Some(value.clone()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

/// Prints the metric table and returns the final JSON object. A metric
/// the run recorded must be declared in `spec`; every declared
/// end-to-end metric must have been recorded, and a per-layer metric
/// the workload's layers did not produce reads 0.
fn render(workload: &str, trace: bool, outcome: &Outcome) -> Result<String, String> {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    if let Some((name, _)) = outcome
        .metrics
        .iter()
        .find(|(name, _)| !defs.iter().any(|d| d.name == *name))
    {
        return Err(format!("metric {name:?} is not declared in spec.rs"));
    }
    let mut metrics = JsonObject::new();
    for def in defs {
        let recorded = outcome.metrics.iter().find(|(name, _)| *name == def.name);
        let value = match recorded {
            Some((_, value)) => *value,
            None if trace => 0.0,
            None => return Err(format!("metric {:?} was not measured", def.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric {:?} is not finite", def.name));
        }
        println!("{workload}  {}  {value}  {}", def.name, def.unit);
        let mut entry = JsonObject::new();
        entry.f64_field("value", value);
        entry.str_field("unit", def.unit);
        metrics.raw_field(def.name, &entry.finish());
    }
    for (key, value) in &outcome.notes {
        println!("{workload}  {key}  {value}  note");
    }
    for problem in &outcome.problems {
        println!("{workload}  problem  {problem}  note");
    }
    if outcome.attempted == 0 {
        return Err("no operation was attempted: nothing was checked".into());
    }
    let mut result = JsonObject::new();
    result.bool_field("correct", outcome.correct());
    result.u64_field("attempted", outcome.attempted);
    result.u64_field("failed", outcome.failed);
    result.raw_field("metrics", &metrics.finish());
    Ok(result.finish())
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = parse_options(args)?;
    let name = opts.workload.as_deref().ok_or("--workload is required")?;
    let workload = Workload::find(name, opts.scale)
        .ok_or_else(|| format!("unknown workload {name:?}\n\n{USAGE}"))?;

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load = stats::load_average();
    if let Some(load) = load.filter(|l| *l > nproc as f64) {
        eprintln!(
            "warning: 1-minute load average {load:.2} exceeds nproc {nproc}; timings will be noisy"
        );
    }

    let outcome = if opts.trace {
        trace::run(&workload, opts.seed)?
    } else {
        e2e::run(&workload, opts.seed, opts.seconds)?
    };
    let result = render(workload.name, opts.trace, &outcome)?;

    let mut file = JsonObject::new();
    file.str_field("workload", workload.name);
    file.u64_field("seed", opts.seed);
    file.f64_field("seconds", opts.seconds);
    file.bool_field("trace", opts.trace);
    file.u64_field("nproc", nproc as u64);
    file.f64_field("load_average_1m", load.unwrap_or(f64::NAN));
    for (key, value) in &outcome.notes {
        file.str_field(key, value);
    }
    file.raw_field("result", &result);
    let mode = if opts.trace { "trace" } else { "e2e" };
    let path = opts.out.map_or_else(
        || e2e::out_dir().join(format!("{}.{mode}.result.json", workload.name)),
        std::path::PathBuf::from,
    );
    std::fs::create_dir_all(e2e::out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&path, file.finish() + "\n").map_err(|e| format!("writing {path:?}: {e}"))?;

    println!("{result}");
    Ok(())
}

fn child(args: &[String]) -> Result<(), String> {
    let arg = |i: usize| {
        args.get(i)
            .ok_or_else(|| format!("child {args:?}: missing argument {i}"))
    };
    let parse_err = |what: &str| format!("child {args:?}: bad {what}");
    match arg(0)?.as_str() {
        "index" => child::index(),
        "map" => child::map(
            arg(1)?.parse().map_err(|_| parse_err("delta"))?,
            arg(2)?.parse().map_err(|_| parse_err("prefilter"))?,
        ),
        "maploop" => child::map_loop(
            arg(1)?.parse().map_err(|_| parse_err("delta"))?,
            arg(2)?.parse().map_err(|_| parse_err("prefilter"))?,
            arg(3)?.parse().map_err(|_| parse_err("seconds"))?,
            arg(4)?,
        ),
        "serve" => serve::child(
            arg(1)?.parse().map_err(|_| parse_err("delta"))?,
            arg(2)?.parse().map_err(|_| parse_err("seconds"))?,
            arg(3)?.parse().map_err(|_| parse_err("job count"))?,
        ),
        other => Err(format!("unknown child {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let result = match args.first().map(String::as_str) {
        Some("run") => run(rest),
        Some("sweep") => parse_options(rest).and_then(|opts| compare::sweep(&opts)),
        Some("compare") => compare::compare(rest),
        Some("child") => child(rest),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
