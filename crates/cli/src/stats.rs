//! `repute stats` and `repute trace`: the readers of what a run leaves
//! behind (`--metrics-out` JSON-lines, `--trace-out` Chrome traces).

use std::path::Path;

use repute_core::ReputeError;
use repute_obs::{Record, Summary};

use crate::args::{Cursor, ParseArgsError};

/// Parsed command-line options for `repute stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsOptions {
    /// Telemetry JSON-lines files written by `--metrics-out` (or the
    /// bench harness's `REPUTE_METRICS_OUT`, or a daemon's
    /// `--metrics-out`). Several files are merged: counters are summed
    /// and latency samples pooled before percentiles are taken.
    pub inputs: Vec<String>,
    /// A spool of per-job JSON-lines files (a daemon's `--metrics-dir`):
    /// every `*.jsonl` file in the directory is read, name-sorted, as if
    /// appended to `inputs`.
    pub dir: Option<String>,
    /// Error on the first malformed line instead of skipping it with a
    /// warning (the lenient default tolerates truncated or mixed files).
    pub strict: bool,
}

/// Parses `repute stats` arguments: one or more file paths and/or
/// `--dir`, plus flags.
///
/// # Errors
///
/// Returns [`ParseArgsError`] for unknown flags or when neither a path
/// nor `--dir` is given.
pub fn parse_stats_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<StatsOptions, ParseArgsError> {
    let mut opts = StatsOptions {
        inputs: Vec::new(),
        dir: None,
        strict: false,
    };
    let mut cur = Cursor::new(args);
    while cur.advance()? {
        match cur.flag() {
            "--strict" => opts.strict = true,
            "--dir" => {
                let dir = cur.value()?;
                if opts.dir.replace(dir).is_some() {
                    return Err(cur.fail("given twice"));
                }
            }
            _ => opts.inputs.push(cur.positional()?),
        }
    }
    if opts.inputs.is_empty() && opts.dir.is_none() {
        return Err(ParseArgsError::new(
            "stats expects at least one metrics JSON-lines file (or --dir)",
        ));
    }
    Ok(opts)
}

/// Pretty-prints a telemetry JSON-lines stream (the inverse of
/// `--metrics-out`): each line is decoded as a [`Record`], merged into a
/// [`Summary`] — per-read records roll up into totals, service records
/// pool, run / stage / device / event / energy records keep file order —
/// and rendered.
///
/// Lenient: malformed lines are skipped and counted, with a trailing
/// `warning: skipped N malformed line(s)` note — telemetry files are
/// often truncated by interrupted runs or concatenated from several
/// sources, and the intact records are still worth rendering. Use
/// [`render_stats_strict`] (CLI: `--strict`) to fail on the first bad
/// line instead.
///
/// # Errors
///
/// This lenient form only errors via future I/O-style extensions; today
/// it always succeeds.
pub fn render_stats(text: &str) -> Result<String, ReputeError> {
    render_lines(text, false)
}

/// Strict variant of [`render_stats`]: any malformed line is an error.
///
/// # Errors
///
/// Returns [`ReputeError::InputParse`] naming the first line that fails
/// to parse.
pub fn render_stats_strict(text: &str) -> Result<String, ReputeError> {
    render_lines(text, true)
}

fn render_lines(text: &str, strict: bool) -> Result<String, ReputeError> {
    let mut summary = Summary::default();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match Record::decode(line) {
            Some(record) => summary.add(record),
            None if strict => {
                return Err(ReputeError::InputParse(format!(
                    "line {}: not a flat JSON object",
                    idx + 1
                )))
            }
            None => summary.skipped += 1,
        }
    }
    Ok(summary.render())
}

/// Runs `repute stats`: reads every input file (and every `*.jsonl`
/// file of `--dir`, name-sorted), concatenates them, and pretty-prints
/// the merged telemetry to stdout. Counters from several files sum and
/// latency samples pool before percentiles are taken, so a spool of
/// per-job files renders one coherent summary.
///
/// # Errors
///
/// Propagates I/O errors and, under `--strict`, malformed-line errors
/// from [`render_stats_strict`].
pub fn run_stats(opts: &StatsOptions) -> Result<(), ReputeError> {
    let mut text = String::new();
    let mut append = |path: &Path| -> Result<(), ReputeError> {
        let chunk = std::fs::read_to_string(path).map_err(|e| ReputeError::io_at(path, e))?;
        text.push_str(&chunk);
        if !chunk.ends_with('\n') {
            text.push('\n');
        }
        Ok(())
    };
    for input in &opts.inputs {
        append(Path::new(input))?;
    }
    if let Some(dir) = &opts.dir {
        let dir_path = Path::new(dir);
        let entries = std::fs::read_dir(dir_path).map_err(|e| ReputeError::io_at(dir_path, e))?;
        let mut files = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| ReputeError::io_at(dir_path, e))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("jsonl") {
                files.push(path);
            }
        }
        files.sort();
        if files.is_empty() {
            return Err(ReputeError::InputParse(format!(
                "--dir {dir:?} contains no *.jsonl telemetry files"
            )));
        }
        for path in &files {
            append(path)?;
        }
    }
    let rendered = if opts.strict {
        render_stats_strict(&text)?
    } else {
        render_stats(&text)?
    };
    print!("{rendered}");
    Ok(())
}

/// Parsed command-line options for `repute trace`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOptions {
    /// Path to a Chrome-tracing JSON file written by `--trace-out`.
    pub input: String,
}

/// Parses `repute trace` arguments: one file path.
///
/// # Errors
///
/// Returns [`ParseArgsError`] for unknown flags or a missing/duplicate
/// path.
pub fn parse_trace_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<TraceOptions, ParseArgsError> {
    let mut input: Option<String> = None;
    let mut cur = Cursor::new(args);
    while cur.advance()? {
        if input.replace(cur.positional()?).is_some() {
            return Err(ParseArgsError::new("trace expects exactly one file"));
        }
    }
    input
        .map(|input| TraceOptions { input })
        .ok_or_else(|| ParseArgsError::new("trace expects a Chrome-tracing JSON file"))
}

/// Summarizes a `--trace-out` file: event count, total span time, a
/// per-process (scheduler + devices) span table, and per-category
/// duration percentiles.
///
/// # Errors
///
/// Returns [`ReputeError::InputParse`] when the text is not a Chrome
/// trace event array.
pub fn render_trace_summary(text: &str) -> Result<String, ReputeError> {
    use repute_obs::trace::summarize_chrome_trace;
    use std::fmt::Write as _;

    let summary = summarize_chrome_trace(text).ok_or_else(|| {
        ReputeError::InputParse(
            "not a Chrome trace event array (expected the JSON written by --trace-out)".into(),
        )
    })?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} span event(s) | {:.6} s total span time",
        summary.events, summary.span_seconds
    );
    if !summary.processes.is_empty() {
        let _ = writeln!(out, "processes:");
        for p in &summary.processes {
            let _ = writeln!(
                out,
                "  pid {:<3} {:<28} {:>6} span(s) {:>12.6} s",
                p.pid, p.name, p.count, p.total_seconds
            );
        }
    }
    if !summary.categories.is_empty() {
        let _ = writeln!(
            out,
            "categories (duration percentiles, simulated seconds):\n  {:<12} {:>6} {:>12} {:>12} {:>12} {:>12}",
            "cat", "n", "total", "p50", "p90", "p99",
        );
        for c in &summary.categories {
            let _ = writeln!(
                out,
                "  {:<12} {:>6} {:>12.6} {:>12.9} {:>12.9} {:>12.9}",
                c.cat, c.count, c.total_seconds, c.p50_seconds, c.p90_seconds, c.p99_seconds,
            );
        }
    }
    Ok(out)
}

/// Runs `repute trace`: summarizes a `--trace-out` file to stdout.
///
/// # Errors
///
/// Propagates I/O errors and malformed-input errors from
/// [`render_trace_summary`].
pub fn run_trace(opts: &TraceOptions) -> Result<(), ReputeError> {
    let input_path = Path::new(&opts.input);
    let text =
        std::fs::read_to_string(input_path).map_err(|e| ReputeError::io_at(input_path, e))?;
    print!("{}", render_trace_summary(&text)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_map_args, run_map, run_simulate, SimulateOptions};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn stats_args_validation() {
        assert_eq!(
            parse_stats_args(args("m.jsonl")).unwrap(),
            StatsOptions {
                inputs: vec!["m.jsonl".into()],
                dir: None,
                strict: false,
            }
        );
        assert_eq!(
            parse_stats_args(args("--strict m.jsonl")).unwrap(),
            StatsOptions {
                inputs: vec!["m.jsonl".into()],
                dir: None,
                strict: true,
            }
        );
        // Several files merge; --dir alone is enough.
        assert_eq!(
            parse_stats_args(args("a.jsonl b.jsonl")).unwrap().inputs,
            vec!["a.jsonl".to_string(), "b.jsonl".to_string()],
        );
        assert_eq!(
            parse_stats_args(args("--dir spool")).unwrap(),
            StatsOptions {
                inputs: Vec::new(),
                dir: Some("spool".into()),
                strict: false,
            }
        );
        assert!(parse_stats_args(args("")).is_err());
        assert!(parse_stats_args(args("--dir")).is_err());
        assert!(parse_stats_args(args("--dir a --dir b")).is_err());
        assert!(parse_stats_args(args("--wat m.jsonl")).is_err());
    }

    #[test]
    fn stats_renders_merged_serve_and_job_records() {
        let text = concat!(
            "{\"type\":\"job\",\"seq\":0,\"id\":\"a\",\"tenant\":\"acme\",\"reads\":2,",
            "\"mappings\":3,\"batch\":0,\"latency_s\":0.25,\"replayed\":false}\n",
            "{\"type\":\"job\",\"seq\":1,\"id\":\"b\",\"tenant\":\"lab\",\"reads\":1,",
            "\"mappings\":1,\"batch\":0,\"latency_s\":0.75,\"replayed\":true}\n",
            "{\"type\":\"serve\",\"accepted\":2,\"rejected\":1,\"retry_later\":1,",
            "\"quota_exceeded\":2,\"completed\":2,\"replayed\":1,\"batches\":1,",
            "\"compactions\":1,\"connection_errors\":3,\"spool_skipped\":1,",
            "\"queue_depth\":0,\"queue_depth_max\":2,\"simulated_seconds\":0.75}\n",
            // A second snapshot (another file, concatenated): counters sum.
            "{\"type\":\"serve\",\"accepted\":3,\"rejected\":0,\"retry_later\":0,",
            "\"completed\":3,\"replayed\":0,\"batches\":2,\"queue_depth\":0,",
            "\"queue_depth_max\":3,\"simulated_seconds\":1.25}\n",
        );
        let rendered = render_stats_strict(text).unwrap();
        assert!(rendered.contains("accepted 5"), "{rendered}");
        assert!(rendered.contains("rejected 1"), "{rendered}");
        assert!(rendered.contains("queue depth high-water 3"), "{rendered}");
        assert!(
            rendered.contains("jobs: 2 completed (1 replayed)"),
            "{rendered}"
        );
        assert!(rendered.contains("tenant acme"), "{rendered}");
        // Pooled percentiles over both jobs' latencies.
        assert!(rendered.contains("job latency (merged"), "{rendered}");
        assert!(rendered.contains("n=2"), "{rendered}");
    }

    #[test]
    fn render_stats_is_lenient_by_default_and_strict_on_request() {
        // Lenient: malformed lines are skipped with a count, intact
        // records still render.
        let mixed = "not json\n{\"type\":\"read\",\"id\":0,\"hits\":1}\ngarbage{\n";
        let rendered = render_stats(mixed).unwrap();
        assert!(rendered.contains("1 read records"), "{rendered}");
        assert!(
            rendered.contains("warning: skipped 2 malformed line(s)"),
            "{rendered}"
        );
        // Only-garbage input: the warning alone, not "no records".
        let garbage = render_stats("not json\n").unwrap();
        assert!(garbage.contains("skipped 1 malformed line(s)"), "{garbage}");
        assert!(!garbage.contains("no telemetry records"));
        // Strict: the first malformed line is an error naming its number.
        let err = render_stats_strict(mixed).unwrap_err().to_string();
        assert!(err.contains("line 1"), "{err}");
        assert!(render_stats_strict("{\"type\":\"read\",\"id\":0,\"hits\":1}\n").is_ok());
        assert_eq!(render_stats("").unwrap(), "no telemetry records\n");
    }

    #[test]
    fn trace_args_validation() {
        assert_eq!(
            parse_trace_args(args("t.json")).unwrap(),
            TraceOptions {
                input: "t.json".into()
            }
        );
        assert!(parse_trace_args(args("")).is_err());
        assert!(parse_trace_args(args("a.json b.json")).is_err());
        assert!(parse_trace_args(args("--wat t.json")).is_err());
    }

    #[test]
    fn stats_renders_latency_percentile_table() {
        let dir = std::env::temp_dir().join("repute-cli-latency-test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_string_lossy().into_owned();
        run_simulate(&SimulateOptions {
            out_dir: dir_s.clone(),
            length: 60_000,
            reads: 15,
            read_len: 100,
            seed: 47,
            profile: "err012100".into(),
        })
        .unwrap();
        let metrics_path = dir.join("m.jsonl");
        let opts = parse_map_args(
            format!(
                "--reference {dir_s}/reference.fa --reads {dir_s}/reads.fq --delta 5 \
                 --output {dir_s}/out.sam --platform system1 --metrics-out {}",
                metrics_path.display()
            )
            .split_whitespace()
            .map(String::from),
        )
        .unwrap();
        run_map(&opts).unwrap();

        let text = std::fs::read_to_string(&metrics_path).unwrap();
        // The telemetry carries latency records with the percentile keys…
        assert!(text.contains("\"type\":\"latency\""), "{text}");
        for key in ["\"p50_s\":", "\"p90_s\":", "\"p99_s\":"] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
        // …and `repute stats` renders them as a table with one header.
        let rendered = render_stats(&text).unwrap();
        assert!(
            rendered.contains("latency percentiles (simulated seconds)"),
            "{rendered}"
        );
        assert!(rendered.contains("map/filtration"), "{rendered}");
        assert!(rendered.contains("batch"), "{rendered}");
        assert_eq!(
            rendered.matches("latency percentiles").count(),
            1,
            "{rendered}"
        );
        // Legacy telemetry (no latency records) still renders.
        let legacy =
            "{\"type\":\"run\",\"reads\":1,\"simulated_seconds\":0.5,\"wall_seconds\":1.0}\n";
        let legacy_rendered = render_stats(legacy).unwrap();
        assert!(!legacy_rendered.contains("latency percentiles"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
