//! Span-based tracing over simulated time.
//!
//! The simulated platform already records OpenCL-style event timestamps
//! (queued / submitted / start / end) per kernel launch; this module
//! turns those — plus scheduler-side batch lifecycle, retries, faults,
//! migrations, and checkpoint writes — into a Chrome-tracing
//! (`chrome://tracing` / Perfetto) JSON file. One trace process (`pid`)
//! per simulated device plus a scheduler process; durations are
//! simulated seconds scaled to microseconds.
//!
//! Design constraints, in order:
//!
//! 1. **Zero-alloc when disabled.** Producers hold an
//!    `Option<Vec<Span>>` and skip span construction entirely on the
//!    hot path.
//! 2. **Deterministic bytes.** [`write_chrome_trace`] stably sorts
//!    events by `(pid, tid, begin, name)` using `f64::total_cmp`, so
//!    two identical runs produce byte-identical files regardless of
//!    host-thread interleaving.
//! 3. **Self-describing.** Every span carries a category (the span
//!    taxonomy in DESIGN.md §17) and an `args` object with batch
//!    index / read range / fault annotations, so the file is useful
//!    both in the Chrome UI and to `repute trace`.

use crate::json::{escape_into, format_f64, parse_json, JsonValue};

/// Trace process id reserved for scheduler/host-side spans (batch
/// lifecycle, checkpoint writes). Devices get [`device_pid`].
pub const SCHEDULER_PID: u32 = 0;

/// Trace process id for simulated device `index` (devices are numbered
/// from zero; pid zero is [`SCHEDULER_PID`]).
pub fn device_pid(device_index: usize) -> u32 {
    device_index as u32 + 1
}

/// One traced interval (or instant, when `end_seconds ==
/// begin_seconds`) in simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Event name shown in the trace viewer (e.g. the kernel label).
    pub name: String,
    /// Category from the span taxonomy: `kernel`, `batch`, `retry`,
    /// `fault`, `migration`, or `checkpoint`.
    pub cat: String,
    /// Trace process: [`SCHEDULER_PID`] or [`device_pid`].
    pub pid: u32,
    /// Trace thread within the process (lane in the viewer).
    pub tid: u32,
    /// Span start, simulated seconds.
    pub begin_seconds: f64,
    /// Span end, simulated seconds; equal to the start for instants.
    pub end_seconds: f64,
    /// Extra key/value annotations rendered in the viewer's detail
    /// pane (batch index, read range, fault notes, ...).
    pub args: Vec<(String, JsonValue)>,
}

impl Span {
    /// A span covering `[begin_seconds, end_seconds]`.
    pub fn new(
        name: impl Into<String>,
        cat: impl Into<String>,
        pid: u32,
        begin_seconds: f64,
        end_seconds: f64,
    ) -> Span {
        Span {
            name: name.into(),
            cat: cat.into(),
            pid,
            tid: 0,
            begin_seconds,
            end_seconds,
            args: Vec::new(),
        }
    }

    /// A zero-duration marker at `at_seconds`.
    pub fn instant(
        name: impl Into<String>,
        cat: impl Into<String>,
        pid: u32,
        at_seconds: f64,
    ) -> Span {
        Span::new(name, cat, pid, at_seconds, at_seconds)
    }

    /// Places the span on thread lane `tid`.
    pub fn on_tid(mut self, tid: u32) -> Span {
        self.tid = tid;
        self
    }

    /// Attaches an unsigned-integer annotation.
    pub fn arg_u64(mut self, key: impl Into<String>, value: u64) -> Span {
        self.args.push((key.into(), JsonValue::Num(value as f64)));
        self
    }

    /// Attaches a string annotation.
    pub fn arg_str(mut self, key: impl Into<String>, value: impl Into<String>) -> Span {
        self.args.push((key.into(), JsonValue::Str(value.into())));
        self
    }

    /// Span duration in simulated seconds (never negative).
    pub fn duration_seconds(&self) -> f64 {
        (self.end_seconds - self.begin_seconds).max(0.0)
    }
}

const MICROS_PER_SECOND: f64 = 1e6;

fn write_args(out: &mut String, args: &[(String, JsonValue)]) {
    out.push('{');
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, key);
        out.push_str("\":");
        write_value(out, value);
    }
    out.push('}');
}

fn write_value(out: &mut String, value: &JsonValue) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(n) => out.push_str(&format_f64(*n)),
        JsonValue::Str(s) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        JsonValue::Obj(fields) => write_args(out, fields),
    }
}

/// Renders spans as a Chrome-tracing JSON array: one `"M"` process-name
/// metadata event per entry of `processes` (`(pid, display name)`),
/// then one `"X"` complete event per span with `ts`/`dur` in
/// microseconds of simulated time. Events are stably sorted by
/// `(pid, tid, begin, name)` so identical runs yield identical bytes.
pub fn write_chrome_trace(processes: &[(u32, String)], spans: &[Span]) -> String {
    let mut ordered: Vec<&Span> = spans.iter().collect();
    ordered.sort_by(|a, b| {
        a.pid
            .cmp(&b.pid)
            .then(a.tid.cmp(&b.tid))
            .then(a.begin_seconds.total_cmp(&b.begin_seconds))
            .then(a.name.cmp(&b.name))
    });

    let mut out = String::from("[\n");
    let mut first = true;
    for (pid, name) in processes {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
        out.push_str(&pid.to_string());
        out.push_str(",\"tid\":0,\"args\":{\"name\":\"");
        escape_into(&mut out, name);
        out.push_str("\"}}");
    }
    for span in ordered {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("{\"ph\":\"X\",\"name\":\"");
        escape_into(&mut out, &span.name);
        out.push_str("\",\"cat\":\"");
        escape_into(&mut out, &span.cat);
        out.push_str("\",\"pid\":");
        out.push_str(&span.pid.to_string());
        out.push_str(",\"tid\":");
        out.push_str(&span.tid.to_string());
        out.push_str(",\"ts\":");
        out.push_str(&format_f64(span.begin_seconds * MICROS_PER_SECOND));
        out.push_str(",\"dur\":");
        out.push_str(&format_f64(span.duration_seconds() * MICROS_PER_SECOND));
        out.push_str(",\"args\":");
        write_args(&mut out, &span.args);
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

/// Per-category roll-up produced by [`summarize_chrome_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCategorySummary {
    /// Category name (`kernel`, `batch`, ...).
    pub cat: String,
    /// Number of `"X"` events in the category.
    pub count: u64,
    /// Total duration across events, simulated seconds.
    pub total_seconds: f64,
    /// p50 of event durations, simulated seconds.
    pub p50_seconds: f64,
    /// p90 of event durations, simulated seconds.
    pub p90_seconds: f64,
    /// p99 of event durations, simulated seconds.
    pub p99_seconds: f64,
}

/// Per-process roll-up produced by [`summarize_chrome_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProcessSummary {
    /// Trace process id.
    pub pid: u32,
    /// Display name from the `"M"` metadata event, if present.
    pub name: String,
    /// Number of `"X"` events on the process.
    pub count: u64,
    /// Total duration across events, simulated seconds.
    pub total_seconds: f64,
}

/// Summary of a parsed Chrome-tracing file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    /// Total `"X"` events.
    pub events: u64,
    /// Latest event end, simulated seconds.
    pub span_seconds: f64,
    /// Per-process roll-ups, ascending pid.
    pub processes: Vec<TraceProcessSummary>,
    /// Per-category roll-ups, sorted by name.
    pub categories: Vec<TraceCategorySummary>,
}

fn obj_field<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parses a Chrome-tracing JSON array (as written by
/// [`write_chrome_trace`]) and rolls it up per process and per
/// category. Returns `None` when the text is not a JSON array of
/// objects.
pub fn summarize_chrome_trace(text: &str) -> Option<TraceSummary> {
    let events = match parse_json(text)? {
        JsonValue::Arr(items) => items,
        _ => return None,
    };

    let mut summary = TraceSummary::default();
    let mut names: Vec<(u32, String)> = Vec::new();
    let mut per_pid: Vec<(u32, u64, f64)> = Vec::new();
    let mut per_cat: Vec<(String, Vec<f64>)> = Vec::new();

    for event in &events {
        let fields = event.as_obj()?;
        let ph = obj_field(fields, "ph")
            .and_then(JsonValue::as_str)
            .unwrap_or("");
        let pid = obj_field(fields, "pid")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0) as u32;
        match ph {
            "M" => {
                let name = obj_field(fields, "args")
                    .and_then(JsonValue::as_obj)
                    .and_then(|args| obj_field(args, "name"))
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string();
                names.push((pid, name));
            }
            "X" => {
                let ts = obj_field(fields, "ts")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0);
                let dur = obj_field(fields, "dur")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0);
                let cat = obj_field(fields, "cat")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("");
                let seconds = dur / MICROS_PER_SECOND;
                summary.events += 1;
                summary.span_seconds = summary.span_seconds.max((ts + dur) / MICROS_PER_SECOND);
                match per_pid.iter_mut().find(|(p, _, _)| *p == pid) {
                    Some(entry) => {
                        entry.1 += 1;
                        entry.2 += seconds;
                    }
                    None => per_pid.push((pid, 1, seconds)),
                }
                match per_cat.iter_mut().find(|(c, _)| c == cat) {
                    Some(entry) => entry.1.push(seconds),
                    None => per_cat.push((cat.to_string(), vec![seconds])),
                }
            }
            _ => {}
        }
    }

    per_pid.sort_by_key(|(pid, _, _)| *pid);
    summary.processes = per_pid
        .into_iter()
        .map(|(pid, count, total)| TraceProcessSummary {
            pid,
            name: names
                .iter()
                .find(|(p, _)| *p == pid)
                .map(|(_, n)| n.clone())
                .unwrap_or_default(),
            count,
            total_seconds: total,
        })
        .collect();

    per_cat.sort_by(|a, b| a.0.cmp(&b.0));
    summary.categories = per_cat
        .into_iter()
        .map(|(cat, durations)| {
            let samples = crate::Samples::from_values(&durations);
            TraceCategorySummary {
                cat,
                count: durations.len() as u64,
                total_seconds: durations.iter().sum(),
                p50_seconds: samples.percentile(0.50),
                p90_seconds: samples.percentile(0.90),
                p99_seconds: samples.percentile(0.99),
            }
        })
        .collect();

    Some(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spans() -> Vec<Span> {
        vec![
            Span::new("d0-batch-0", "kernel", device_pid(0), 0.0, 1.0)
                .arg_u64("batch", 0)
                .arg_u64("lo", 0)
                .arg_u64("hi", 8),
            Span::new("d1-batch-1", "kernel", device_pid(1), 0.5, 2.0).arg_u64("batch", 1),
            Span::new("batch-0", "batch", SCHEDULER_PID, 0.0, 1.0).arg_str("device", "d0"),
            Span::instant("checkpoint", "checkpoint", SCHEDULER_PID, 1.0).arg_u64("batch", 0),
        ]
    }

    fn processes() -> Vec<(u32, String)> {
        vec![
            (SCHEDULER_PID, "scheduler".to_string()),
            (device_pid(0), "cpu [Cpu]".to_string()),
            (device_pid(1), "gpu [Gpu]".to_string()),
        ]
    }

    #[test]
    fn trace_is_valid_json_array_of_events() {
        let text = write_chrome_trace(&processes(), &sample_spans());
        let parsed = parse_json(&text).expect("trace parses");
        let items = parsed.as_arr().expect("array");
        // 3 metadata + 4 X events.
        assert_eq!(items.len(), 7);
        for item in items {
            let fields = item.as_obj().expect("object");
            let ph = obj_field(fields, "ph")
                .and_then(JsonValue::as_str)
                .expect("ph");
            assert!(ph == "M" || ph == "X");
        }
    }

    #[test]
    fn writer_is_deterministic_under_span_reordering() {
        let spans = sample_spans();
        let mut reversed = spans.clone();
        reversed.reverse();
        assert_eq!(
            write_chrome_trace(&processes(), &spans),
            write_chrome_trace(&processes(), &reversed)
        );
    }

    #[test]
    fn args_round_trip_through_the_file() {
        let text = write_chrome_trace(&processes(), &sample_spans());
        let parsed = parse_json(&text).expect("trace parses");
        let items = parsed.as_arr().expect("array");
        let kernel = items
            .iter()
            .filter_map(|i| i.as_obj())
            .find(|f| obj_field(f, "name").and_then(JsonValue::as_str) == Some("d0-batch-0"))
            .expect("kernel event present");
        let args = obj_field(kernel, "args")
            .and_then(JsonValue::as_obj)
            .expect("args");
        assert_eq!(
            obj_field(args, "batch").and_then(JsonValue::as_u64),
            Some(0)
        );
        assert_eq!(obj_field(args, "hi").and_then(JsonValue::as_u64), Some(8));
    }

    #[test]
    fn summary_rolls_up_processes_and_categories() {
        let text = write_chrome_trace(&processes(), &sample_spans());
        let summary = summarize_chrome_trace(&text).expect("summary");
        assert_eq!(summary.events, 4);
        assert!((summary.span_seconds - 2.0).abs() < 1e-9);
        assert_eq!(summary.processes.len(), 3);
        let sched = &summary.processes[0];
        assert_eq!(sched.pid, SCHEDULER_PID);
        assert_eq!(sched.name, "scheduler");
        assert_eq!(sched.count, 2);
        let cats: Vec<&str> = summary.categories.iter().map(|c| c.cat.as_str()).collect();
        assert_eq!(cats, ["batch", "checkpoint", "kernel"]);
        let kernel = summary
            .categories
            .iter()
            .find(|c| c.cat == "kernel")
            .expect("kernel cat");
        assert_eq!(kernel.count, 2);
        assert!((kernel.total_seconds - 2.5).abs() < 1e-9);
        assert!(kernel.p50_seconds <= kernel.p90_seconds);
        assert!(kernel.p90_seconds <= kernel.p99_seconds);
    }

    #[test]
    fn summarize_rejects_non_array_input() {
        assert!(summarize_chrome_trace("{\"ph\":\"X\"}").is_none());
        assert!(summarize_chrome_trace("not json").is_none());
    }
}
