//! The command line's contract, pinned.
//!
//! What a user sees of argument parsing is which command lines are
//! accepted, what option values they yield, and — for the rest — the
//! first line of the error and which of two errors wins. Each row below
//! is one command line with that outcome, generated at the commit before
//! the seven hand-written argument loops were replaced by one flag
//! cursor. Option values are compared through projections written here,
//! field by field, as the values that differ from the subcommand's
//! defaults (the defaults themselves are pinned once, in `DEFAULTS`), so
//! the tables do not depend on how the options structs are laid out.
//!
//! On a mismatch the test prints the whole computed table in source
//! form, so a deliberate change is one copy-paste. This is the thing to
//! check after touching argument parsing.

use std::fmt::Debug;

use repute_cli::{
    parse_index_args, parse_map_args, parse_serve_args, parse_simulate_args, parse_stats_args,
    parse_submit_args, parse_trace_args, IndexOptions, MapOptions, ServeCliOptions,
    SimulateOptions, StatsOptions, SubmitOptions, TraceOptions, USAGE,
};
use repute_core::journal::Fnv64;
use repute_hetsim::FaultPlan;

// ---------------------------------------------------------------------
// Projections: option values as `name=value` pairs.
// ---------------------------------------------------------------------

type Fields = Vec<(&'static str, String)>;

fn show<T: Debug>(value: &T) -> String {
    format!("{value:?}")
}

/// A fault plan by its events, however the options hold it.
fn show_plan(plan: Option<&FaultPlan>) -> String {
    match plan {
        None => "None".into(),
        Some(plan) => {
            let events: Vec<String> = plan
                .events()
                .iter()
                .map(|e| format!("{:?}:d{}@{}", e.kind, e.device, e.at_seconds))
                .collect();
            format!("[{}]", events.join(","))
        }
    }
}

fn project_map(o: &MapOptions) -> Fields {
    vec![
        ("reference", show(&o.reference)),
        ("index", show(&o.index)),
        ("index_cache", show(&o.index_cache)),
        ("reads", show(&o.reads)),
        ("delta", show(&o.delta)),
        ("s_min", show(&o.s_min)),
        ("max_locations", show(&o.max_locations)),
        ("output", show(&o.output)),
        ("cigar", show(&o.cigar)),
        ("mapper", show(&o.mapper)),
        ("prefilter", show(&o.prefilter)),
        ("platform", show(&o.platform)),
        ("schedule", show(&o.schedule)),
        ("host_threads", show(&o.host_threads)),
        ("fault_plan", show_plan(o.fault_plan.as_ref())),
        ("max_retries", show(&o.max_retries)),
        ("metrics_out", show(&o.metrics_out)),
        ("trace_out", show(&o.trace_out)),
        ("verbose", show(&o.verbose)),
        ("checkpoint", show(&o.checkpoint)),
        ("resume", show(&o.resume)),
    ]
}

fn project_index(o: &IndexOptions) -> Fields {
    vec![
        ("reference", show(&o.reference)),
        ("output", show(&o.output)),
    ]
}

fn project_simulate(o: &SimulateOptions) -> Fields {
    vec![
        ("out_dir", show(&o.out_dir)),
        ("length", show(&o.length)),
        ("reads", show(&o.reads)),
        ("read_len", show(&o.read_len)),
        ("seed", show(&o.seed)),
        ("profile", show(&o.profile)),
    ]
}

fn project_serve(o: &ServeCliOptions) -> Fields {
    let (serve, limits) = (&o.serve, &o.serve.limits);
    // Unset is "the platform's cap", which the daemon core spells
    // `usize::MAX`.
    let max_reads_per_job = Some(limits.max_reads_per_job).filter(|&n| n != usize::MAX);
    vec![
        ("reference", show(&o.reference)),
        ("index", show(&o.index)),
        ("index_cache", show(&o.index_cache)),
        ("platform", show(&o.platform)),
        ("socket", show(&o.socket)),
        ("spool", show(&o.spool)),
        ("once", show(&o.once)),
        ("journal", show(&o.journal)),
        ("resume", show(&o.resume)),
        ("delta", show(&serve.delta)),
        ("s_min", show(&serve.s_min)),
        ("max_locations", show(&serve.max_locations)),
        ("prefilter", show(&serve.prefilter)),
        ("schedule", show(&serve.schedule)),
        ("host_threads", show(&serve.host_threads)),
        // No plan and an empty plan are the same daemon.
        ("fault_plan", show_plan(Some(&serve.fault_plan))),
        ("max_retries", show(&serve.max_retries)),
        ("shed_overdue", show(&serve.shed_overdue)),
        ("queue_capacity", show(&limits.queue_capacity)),
        ("max_reads_per_job", show(&max_reads_per_job)),
        ("max_delta", show(&limits.max_delta)),
        ("tenant_weights", show(&serve.tenant_weights)),
        ("tenant_quotas", show(&serve.tenant_quotas)),
        ("quota_window_s", show(&serve.quota_window_s)),
        ("metrics_out", show(&o.metrics_out)),
        ("trace_out", show(&o.trace_out)),
    ]
}

fn project_submit(o: &SubmitOptions) -> Fields {
    vec![
        ("socket", show(&o.socket)),
        ("reads", show(&o.reads)),
        ("id", show(&o.id)),
        ("tenant", show(&o.tenant)),
        ("delta", show(&o.delta)),
        ("prefilter", show(&o.prefilter)),
        ("mapper", show(&o.mapper)),
        ("deadline", show(&o.deadline)),
        ("priority", show(&o.priority)),
        ("output", show(&o.output)),
        ("retry", show(&o.retry)),
        ("retry_base_ms", show(&o.retry_base_ms)),
        ("shutdown", show(&o.shutdown)),
    ]
}

fn project_stats(o: &StatsOptions) -> Fields {
    vec![("inputs", show(&o.inputs)), ("strict", show(&o.strict))]
}

fn project_trace(o: &TraceOptions) -> Fields {
    vec![("input", show(&o.input))]
}

fn join(fields: &Fields) -> String {
    let pairs: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    pairs.join("; ")
}

/// The fields of `fields` that differ from `defaults`.
fn changed(fields: Fields, defaults: &Fields) -> String {
    let kept: Fields = fields
        .into_iter()
        .zip(defaults)
        .filter(|(field, default)| field != *default)
        .map(|(field, _)| field)
        .collect();
    join(&kept)
}

/// The projected defaults of a subcommand (`stats` and `trace` have no
/// `Default`: all of their fields are always shown).
fn defaults(cmd: &str) -> Fields {
    match cmd {
        "map" => project_map(&MapOptions::default()),
        "index" => project_index(&IndexOptions::default()),
        "simulate" => project_simulate(&SimulateOptions::default()),
        "serve" => project_serve(&ServeCliOptions::default()),
        "submit" => project_submit(&SubmitOptions::default()),
        "stats" | "trace" => Vec::new(),
        other => panic!("no subcommand {other:?}"),
    }
}

// ---------------------------------------------------------------------
// One command line → its outcome.
// ---------------------------------------------------------------------

/// Splits on whitespace; `""` stands for an empty argument.
fn args(line: &str) -> Vec<String> {
    line.split_whitespace()
        .map(|a| if a == "\"\"" { String::new() } else { a.into() })
        .collect()
}

/// `Ok(changed fields)` or `Err(first line of the message)`.
fn outcome(cmd: &str, line: &str) -> Result<String, String> {
    let a = args(line);
    let d = defaults(cmd);
    let projected = match cmd {
        "map" => parse_map_args(a).map(|o| changed(project_map(&o), &d)),
        "index" => parse_index_args(a).map(|o| changed(project_index(&o), &d)),
        "simulate" => parse_simulate_args(a).map(|o| changed(project_simulate(&o), &d)),
        "serve" => parse_serve_args(a).map(|o| changed(project_serve(&o), &d)),
        "submit" => parse_submit_args(a).map(|o| changed(project_submit(&o), &d)),
        "stats" => parse_stats_args(a).map(|o| join(&project_stats(&o))),
        "trace" => parse_trace_args(a).map(|o| join(&project_trace(&o))),
        other => panic!("no subcommand {other:?}"),
    };
    projected.map_err(|e| {
        let text = e.to_string();
        assert!(
            text.ends_with(USAGE),
            "{cmd} {line}: the message does not end with the usage text"
        );
        text.lines().next().unwrap_or("").to_string()
    })
}

/// Compares a computed table against the committed one as a whole; a
/// mismatch prints the computed table in source form.
fn assert_pinned(name: &str, computed: &[(&str, &str, String)], pinned: &[(&str, &str, &str)]) {
    let same = computed.len() == pinned.len()
        && computed
            .iter()
            .zip(pinned)
            .all(|((_, _, got), (_, _, want))| got == want);
    if !same {
        let mut table = format!("const {name}: &[(&str, &str, &str)] = &[\n");
        for (cmd, line, got) in computed {
            table.push_str(&format!("    ({cmd:?}, {line:?}, {got:?}),\n"));
        }
        table.push_str("];");
        for ((cmd, line, got), (_, _, want)) in computed.iter().zip(pinned) {
            if got != want {
                eprintln!(
                    "first difference: repute {cmd} {line}\n  now:    {got}\n  pinned: {want}"
                );
                break;
            }
        }
        panic!("CLI contract changed; computed table:\n{table}");
    }
}

// ---------------------------------------------------------------------
// The tests.
// ---------------------------------------------------------------------

#[test]
fn rejected_command_lines_keep_their_message_and_precedence() {
    let computed: Vec<(&str, &str, String)> = REJECTED
        .iter()
        .map(|&(cmd, line, _)| {
            let got = match outcome(cmd, line) {
                Err(message) => message,
                Ok(fields) => format!("ACCEPTED {fields}"),
            };
            (cmd, line, got)
        })
        .collect();
    assert!(computed.len() >= 90);
    assert_pinned("REJECTED", &computed, REJECTED);
}

#[test]
fn accepted_command_lines_keep_their_option_values() {
    let computed: Vec<(&str, &str, String)> = ACCEPTED
        .iter()
        .map(|&(cmd, line, _)| {
            let got = match outcome(cmd, line) {
                Ok(fields) => fields,
                Err(message) => format!("REJECTED {message}"),
            };
            (cmd, line, got)
        })
        .collect();
    assert!(computed.len() >= 25);
    assert_pinned("ACCEPTED", &computed, ACCEPTED);
}

#[test]
fn defaults_and_usage_text_are_pinned() {
    let computed: Vec<(&str, &str, String)> = DEFAULTS
        .iter()
        .map(|&(cmd, line, _)| (cmd, line, join(&defaults(cmd))))
        .collect();
    assert_pinned("DEFAULTS", &computed, DEFAULTS);

    let mut h = Fnv64::new();
    h.write(USAGE.as_bytes());
    assert_eq!(
        h.finish(),
        USAGE_FNV64,
        "`repute --help` changed; if that is meant, pin 0x{:016x}",
        h.finish()
    );
}

// ---------------------------------------------------------------------
// The pinned tables (generated at the parent commit).
// ---------------------------------------------------------------------

/// Moved twice by one sentence of help text and no flag: the SERVE
/// OPTIONS section came to name `--index` and `--platform`, which
/// `repute serve` always took (`0xee7e_e0e1_ce59_cd9f` →
/// `0xab9c_9b39_8d4c_e7a9`), and `--host-threads` came to say that it
/// works with `--platform` only (→ `0x1b6c_3936_4b75_633f`). Then by
/// three flags: `--prefilter-q`, `--prefilter-bin` and
/// `--checkpoint-every` became constants (→ `0xa479_bbb3_7b68_57b4`).
/// Then by one sentence again: `--host-threads` came to work on every
/// run, no longer with `--platform` only (→ `0xa5f8_0a5d_ea27_f485`).
/// Then by `--checkpoint` committing a prefix of the streamed outputs:
/// its and `--resume`'s help, `crash:@<t>` gone from both `--fault-plan`
/// entries, and exit code 8 gone (→ `0xb239_6b41_0de3_29a1`). Then by
/// the serial round shape going: `--serial-batches` is gone, and
/// `--journal` loses at most one in-flight round, not batch (→
/// `0xb90c_5126_e79e_2262`). Then by three flags: the journal came to
/// compact itself (its threshold flag gone, `--journal` saying so), the
/// daemon's per-job telemetry spool went, and with it the `stats` flag
/// that read it, the stats synopsis naming `--strict` instead.
const USAGE_FNV64: u64 = 0x6350_8e1c_131a_f41c;

/// `(subcommand, "", every projected field of its `Default`)`.
const DEFAULTS: &[(&str, &str, &str)] = &[
    ("map", "", "reference=\"\"; index=None; index_cache=None; reads=\"\"; delta=5; s_min=12; max_locations=100; output=None; cigar=false; mapper=Repute; prefilter=None; platform=None; schedule=Static; host_threads=0; fault_plan=None; max_retries=2; metrics_out=None; trace_out=None; verbose=false; checkpoint=None; resume=false"),
    ("index", "", "reference=\"\"; output=\"\""),
    ("simulate", "", "out_dir=\"\"; length=1000000; reads=10000; read_len=100; seed=42; profile=\"err012100\""),
    ("serve", "", "reference=\"\"; index=None; index_cache=None; platform=\"system1\"; socket=None; spool=None; once=false; journal=None; resume=false; delta=5; s_min=12; max_locations=100; prefilter=None; schedule=Dynamic; host_threads=0; fault_plan=[]; max_retries=2; shed_overdue=false; queue_capacity=64; max_reads_per_job=None; max_delta=16; tenant_weights=[]; tenant_quotas=[]; quota_window_s=60.0; metrics_out=None; trace_out=None"),
    ("submit", "", "socket=\"\"; reads=None; id=None; tenant=None; delta=None; prefilter=None; mapper=None; deadline=None; priority=None; output=None; retry=0; retry_base_ms=100; shutdown=false"),
];

/// `(subcommand, arguments, first line of the error)`.
const REJECTED: &[(&str, &str, &str)] = &[
    // --- map: the cursor's own answers.
    ("map", "--help", "help requested"),
    ("map", "-h", "help requested"),
    ("map", "--bogus", "unknown option \"--bogus\""),
    ("map", "stray", "unknown option \"stray\""),
    ("map", "--reference r.fa --reads q.fq --help", "help requested"),
    // --- map: a value flag at the end of the line.
    ("map", "--reference", "--reference expects a value"),
    ("map", "--index", "--index expects a value"),
    ("map", "--index-cache", "--index-cache expects a value"),
    ("map", "--reads", "--reads expects a value"),
    ("map", "--delta", "--delta expects a value"),
    ("map", "--s-min", "--s-min expects a value"),
    ("map", "--max-locations", "--max-locations expects a value"),
    ("map", "--output", "--output expects a value"),
    ("map", "--mapper", "--mapper expects a value"),
    ("map", "--prefilter", "--prefilter expects a value"),
    ("map", "--platform", "--platform expects a value"),
    ("map", "--schedule", "--schedule expects a value"),
    ("map", "--host-threads", "--host-threads expects a value"),
    ("map", "--fault-plan", "--fault-plan expects a value"),
    ("map", "--max-retries", "--max-retries expects a value"),
    ("map", "--metrics-out", "--metrics-out expects a value"),
    ("map", "--trace-out", "--trace-out expects a value"),
    ("map", "--checkpoint", "--checkpoint expects a value"),
    // --- map: value type and range.
    ("map", "--delta x", "--delta expects an integer"),
    ("map", "--delta -1", "--delta expects an integer"),
    ("map", "--s-min x", "--s-min expects an integer"),
    ("map", "--max-locations x", "--max-locations expects an integer"),
    ("map", "--max-locations 0", "--max-locations must be positive"),
    ("map", "--host-threads x", "--host-threads expects an integer"),
    ("map", "--host-threads 0", "--host-threads must be positive (omit the flag for automatic)"),
    ("map", "--max-retries x", "--max-retries expects an integer"),
    ("map", "--mapper nope", "unknown mapper \"nope\" (repute, coral, razers3, hobbes3, yara, gem, bwa-mem)"),
    ("map", "--prefilter fast", "--prefilter: unknown prefilter mode \"fast\" (expected none, shd, qgram or both)"),
    ("map", "--schedule greedy", "unknown schedule \"greedy\" (static, dynamic)"),
    ("map", "--fault-plan loss:x", "--fault-plan: invalid fault-plan entry \"loss:x\": device must be written d<index> (expected loss:d<dev>@<t> | transient:d<dev>@<t>[x<count>] | slow:d<dev>@<t>x<factor> | correlated:d<a>+d<b>+...@<t>)"),
    ("map", "--fault-plan slow:d0@0x2", "--fault-plan: invalid fault-plan entry \"slow:d0@0x2\": slow factor must be in (0, 1] (expected loss:d<dev>@<t> | transient:d<dev>@<t>[x<count>] | slow:d<dev>@<t>x<factor> | correlated:d<a>+d<b>+...@<t>)"),
    // --- map: cross-flag rules, in the order they are checked.
    ("map", "--reference r.fa --reads q.fq --fault-plan loss:d0@0.1", "--fault-plan requires --platform (faults live in the simulation)"),
    ("map", "--reference r.fa --reads q.fq --fault-plan ,", "--fault-plan requires --platform (faults live in the simulation)"),
    ("map", "--reference r.fa --reads q.fq --trace-out t.json", "--trace-out requires --platform (spans live on the simulated timeline)"),
    ("map", "--reference r.fa --reads q.fq --checkpoint j.rpj", "--checkpoint requires --output (stdout cannot be cut back to a committed prefix)"),
    ("map", "--reference r.fa --reads q.fq --resume", "--resume requires --checkpoint"),
    ("map", "--reference r.fa --reads q.fq --platform system1 --fault-plan crash:@0.5", "--fault-plan: invalid fault-plan entry \"crash:@0.5\": device must be written d<index> (expected loss:d<dev>@<t> | transient:d<dev>@<t>[x<count>] | slow:d<dev>@<t>x<factor> | correlated:d<a>+d<b>+...@<t>)"),
    ("map", "--reference r.fa --reads q.fq --mapper gem --cigar", "--cigar requires the repute mapper"),
    ("map", "--reference r.fa --reads q.fq --mapper coral --prefilter shd", "--prefilter requires the repute mapper"),
    ("map", "--reads q.fq", "--reference or --index is required"),
    ("map", "", "--reference or --index is required"),
    ("map", "--reference r.fa --index i.rpx --reads q.fq", "--reference and --index are mutually exclusive"),
    ("map", "--index i.rpx --index-cache c.rpxc --reads q.fq", "--index-cache requires --reference (a prebuilt --index is already the cache)"),
    ("map", "--reference r.fa", "--reads is required"),
    ("map", "--index i.rpx", "--reads is required"),
    // --- map: precedence. A per-flag error beats a later cross-flag
    // error; argument order decides between two per-flag errors; the
    // cross-flag rules fire in their written order.
    ("map", "--reads q.fq --delta x", "--delta expects an integer"),
    ("map", "--delta x --s-min y", "--delta expects an integer"),
    ("map", "--s-min y --delta x", "--s-min expects an integer"),
    ("map", "--bogus --help", "unknown option \"--bogus\""),
    ("map", "--help --bogus", "help requested"),
    ("map", "--max-locations 0 --bogus", "--max-locations must be positive"),
    ("map", "--output --help", "--reference or --index is required"),
    ("map", "--fault-plan loss:d0@0 --trace-out t.json --checkpoint j.rpj", "--fault-plan requires --platform (faults live in the simulation)"),
    ("map", "--trace-out t.json --checkpoint j.rpj", "--trace-out requires --platform (spans live on the simulated timeline)"),
    ("map", "--checkpoint j.rpj --resume --cigar", "--checkpoint requires --output (stdout cannot be cut back to a committed prefix)"),
    ("map", "--platform system1 --checkpoint j.rpj --cigar --mapper gem", "--checkpoint requires --output (stdout cannot be cut back to a committed prefix)"),
    ("map", "--platform system1 --fault-plan crash:@1,loss:d0@1", "--fault-plan: invalid fault-plan entry \"crash:@1\": device must be written d<index> (expected loss:d<dev>@<t> | transient:d<dev>@<t>[x<count>] | slow:d<dev>@<t>x<factor> | correlated:d<a>+d<b>+...@<t>)"),
    ("map", "--platform system1 --output o.sam --checkpoint j.rpj --fault-plan loss:d0@1 --mapper gem --cigar", "--cigar requires the repute mapper"),
    ("map", "--mapper gem --cigar --prefilter shd", "--cigar requires the repute mapper"),
    ("map", "--mapper gem --prefilter shd", "--prefilter requires the repute mapper"),
    ("map", "--reference r.fa --index i.rpx --index-cache c.rpxc", "--reference and --index are mutually exclusive"),
    ("map", "--index i.rpx --index-cache c.rpxc", "--index-cache requires --reference (a prebuilt --index is already the cache)"),
    // --- index.
    ("index", "--help", "help requested"),
    ("index", "-h", "help requested"),
    ("index", "--wat", "unknown option \"--wat\""),
    ("index", "ref.fa", "unknown option \"ref.fa\""),
    ("index", "--reference", "--reference expects a value"),
    ("index", "--output", "--output expects a value"),
    ("index", "", "--reference is required"),
    ("index", "--reference r.fa", "--output is required"),
    ("index", "--output o.rpx", "--reference is required"),
    ("index", "--reference \"\" --output o.rpx", "--reference is required"),
    ("index", "--reference r.fa --wat --output", "unknown option \"--wat\""),
    // --- simulate.
    ("simulate", "--help", "help requested"),
    ("simulate", "--wat", "unknown option \"--wat\""),
    ("simulate", "--out-dir", "--out-dir expects a value"),
    ("simulate", "--length", "--length expects a value"),
    ("simulate", "--reads", "--reads expects a value"),
    ("simulate", "--read-len", "--read-len expects a value"),
    ("simulate", "--seed", "--seed expects a value"),
    ("simulate", "--profile", "--profile expects a value"),
    ("simulate", "--length x", "--length expects an integer"),
    ("simulate", "--reads x", "--reads expects an integer"),
    ("simulate", "--read-len 1.5", "--read-len expects an integer"),
    ("simulate", "--seed -1", "--seed expects an integer"),
    ("simulate", "--length 100", "--out-dir is required"),
    ("simulate", "", "--out-dir is required"),
    ("simulate", "--out-dir d --profile nope", "unknown profile \"nope\" (err012100, srr826460, perfect)"),
    ("simulate", "--profile nope", "--out-dir is required"),
    ("simulate", "--profile nope --seed x", "--seed expects an integer"),
    // --- serve: the cursor's own answers and the flags of other
    // subcommands.
    ("serve", "--help", "help requested"),
    ("serve", "-h", "help requested"),
    ("serve", "--bogus", "unknown option \"--bogus\""),
    ("serve", "--reads q.fq", "unknown option \"--reads\""),
    ("serve", "--mapper repute", "unknown option \"--mapper\""),
    ("serve", "--checkpoint j.rpj", "unknown option \"--checkpoint\""),
    ("serve", "--cigar", "unknown option \"--cigar\""),
    ("serve", "-v", "unknown option \"-v\""),
    ("serve", "--reference r.fa --socket s.sock --shed-overdue --serial-batches", "unknown option \"--serial-batches\""),
    // --- serve: a value flag at the end of the line.
    ("serve", "--reference", "--reference expects a value"),
    ("serve", "--index", "--index expects a value"),
    ("serve", "--index-cache", "--index-cache expects a value"),
    ("serve", "--platform", "--platform expects a value"),
    ("serve", "--socket", "--socket expects a value"),
    ("serve", "--spool", "--spool expects a value"),
    ("serve", "--journal", "--journal expects a value"),
    ("serve", "--delta", "--delta expects a value"),
    ("serve", "--s-min", "--s-min expects a value"),
    ("serve", "--max-locations", "--max-locations expects a value"),
    ("serve", "--prefilter", "--prefilter expects a value"),
    ("serve", "--schedule", "--schedule expects a value"),
    ("serve", "--host-threads", "--host-threads expects a value"),
    ("serve", "--fault-plan", "--fault-plan expects a value"),
    ("serve", "--max-retries", "--max-retries expects a value"),
    ("serve", "--queue-capacity", "--queue-capacity expects a value"),
    ("serve", "--max-reads-per-job", "--max-reads-per-job expects a value"),
    ("serve", "--max-delta", "--max-delta expects a value"),
    ("serve", "--tenant-weight", "--tenant-weight expects a value"),
    ("serve", "--tenant-quota", "--tenant-quota expects a value"),
    ("serve", "--quota-window", "--quota-window expects a value"),
    ("serve", "--metrics-out", "--metrics-out expects a value"),
    ("serve", "--trace-out", "--trace-out expects a value"),
    // --- serve: value type and range.
    ("serve", "--delta x", "--delta expects an integer"),
    ("serve", "--s-min x", "--s-min expects an integer"),
    ("serve", "--max-locations x", "--max-locations expects an integer"),
    ("serve", "--max-locations 0", "--max-locations must be positive"),
    ("serve", "--prefilter fast", "--prefilter: unknown prefilter mode \"fast\" (expected none, shd, qgram or both)"),
    ("serve", "--schedule greedy", "unknown schedule \"greedy\" (static, dynamic)"),
    ("serve", "--host-threads x", "--host-threads expects an integer"),
    ("serve", "--host-threads 0", "--host-threads must be positive (omit the flag for automatic)"),
    ("serve", "--fault-plan loss:x", "--fault-plan: invalid fault-plan entry \"loss:x\": device must be written d<index> (expected loss:d<dev>@<t> | transient:d<dev>@<t>[x<count>] | slow:d<dev>@<t>x<factor> | correlated:d<a>+d<b>+...@<t>)"),
    ("serve", "--fault-plan crash:@1", "--fault-plan: invalid fault-plan entry \"crash:@1\": device must be written d<index> (expected loss:d<dev>@<t> | transient:d<dev>@<t>[x<count>] | slow:d<dev>@<t>x<factor> | correlated:d<a>+d<b>+...@<t>)"),
    ("serve", "--fault-plan loss:d0@1,crash:@2", "--fault-plan: invalid fault-plan entry \"crash:@2\": device must be written d<index> (expected loss:d<dev>@<t> | transient:d<dev>@<t>[x<count>] | slow:d<dev>@<t>x<factor> | correlated:d<a>+d<b>+...@<t>)"),
    ("serve", "--max-retries x", "--max-retries expects an integer"),
    ("serve", "--queue-capacity x", "--queue-capacity expects an integer"),
    ("serve", "--queue-capacity 0", "--queue-capacity must be positive"),
    ("serve", "--max-reads-per-job x", "--max-reads-per-job expects an integer"),
    ("serve", "--max-reads-per-job 0", "--max-reads-per-job must be positive"),
    ("serve", "--max-delta x", "--max-delta expects an integer"),
    ("serve", "--tenant-weight acme", "--tenant-weight expects name=<weight>"),
    ("serve", "--tenant-weight acme=x", "--tenant-weight expects a numeric weight"),
    ("serve", "--tenant-weight acme=0", "--tenant-weight must be positive"),
    ("serve", "--tenant-weight acme=-1", "--tenant-weight must be positive"),
    ("serve", "--tenant-weight acme=nan", "--tenant-weight must be positive"),
    ("serve", "--tenant-quota acme", "--tenant-quota expects name=<reads>"),
    ("serve", "--tenant-quota acme=x", "--tenant-quota expects an integer read budget"),
    ("serve", "--tenant-quota acme=0", "--tenant-quota must be positive"),
    ("serve", "--quota-window x", "--quota-window expects seconds"),
    ("serve", "--quota-window 0", "--quota-window must be positive"),
    ("serve", "--quota-window -1", "--quota-window must be positive"),
    ("serve", "--quota-window inf", "--quota-window must be positive"),
    // --- serve: cross-flag rules, in the order they are checked.
    ("serve", "--socket s.sock", "--reference or --index is required"),
    ("serve", "", "--reference or --index is required"),
    ("serve", "--reference r.fa --index i.rpx --socket s.sock", "--reference and --index are mutually exclusive"),
    ("serve", "--index i.rpx --index-cache c.rpxc --socket s.sock", "--index-cache requires --reference (a prebuilt --index is already the cache)"),
    ("serve", "--reference r.fa", "serve needs a transport: --socket <path> or --spool <dir>"),
    ("serve", "--reference r.fa --socket s.sock --spool jobs", "--socket and --spool are mutually exclusive"),
    ("serve", "--reference r.fa --socket s.sock --once", "--once requires --spool"),
    ("serve", "--reference r.fa --socket s.sock --resume", "--resume requires --journal"),
    // --- serve: precedence.
    ("serve", "--socket s.sock --once", "--reference or --index is required"),
    ("serve", "--reference r.fa --index i.rpx --index-cache c.rpxc", "--reference and --index are mutually exclusive"),
    ("serve", "--index i.rpx --index-cache c.rpxc --once", "--index-cache requires --reference (a prebuilt --index is already the cache)"),
    ("serve", "--reference r.fa --once", "serve needs a transport: --socket <path> or --spool <dir>"),
    ("serve", "--reference r.fa --socket s.sock --spool jobs --resume", "--socket and --spool are mutually exclusive"),
    ("serve", "--reference r.fa --socket s.sock --once --resume", "--once requires --spool"),
    ("serve", "--fault-plan crash:@1 --delta x", "--fault-plan: invalid fault-plan entry \"crash:@1\": device must be written d<index> (expected loss:d<dev>@<t> | transient:d<dev>@<t>[x<count>] | slow:d<dev>@<t>x<factor> | correlated:d<a>+d<b>+...@<t>)"),
    ("serve", "--delta x --fault-plan crash:@1", "--delta expects an integer"),
    ("serve", "--once --queue-capacity 0", "--queue-capacity must be positive"),
    ("serve", "--tenant-weight a=0 --tenant-quota b=0", "--tenant-weight must be positive"),
    ("serve", "--tenant-quota b=0 --tenant-weight a=0", "--tenant-quota must be positive"),
    // --- submit.
    ("submit", "--help", "help requested"),
    ("submit", "-h", "help requested"),
    ("submit", "--bogus", "unknown option \"--bogus\""),
    ("submit", "reads.fq", "unknown option \"reads.fq\""),
    ("submit", "--socket", "--socket expects a value"),
    ("submit", "--reads", "--reads expects a value"),
    ("submit", "--id", "--id expects a value"),
    ("submit", "--tenant", "--tenant expects a value"),
    ("submit", "--delta", "--delta expects a value"),
    ("submit", "--prefilter", "--prefilter expects a value"),
    ("submit", "--mapper", "--mapper expects a value"),
    ("submit", "--deadline", "--deadline expects a value"),
    ("submit", "--priority", "--priority expects a value"),
    ("submit", "--output", "--output expects a value"),
    ("submit", "--retry", "--retry expects a value"),
    ("submit", "--retry-base-ms", "--retry-base-ms expects a value"),
    ("submit", "--delta x", "--delta expects an integer"),
    ("submit", "--deadline x", "--deadline expects seconds"),
    ("submit", "--deadline -1", "--deadline must be non-negative"),
    ("submit", "--deadline nan", "--deadline must be non-negative"),
    ("submit", "--deadline inf", "--deadline must be non-negative"),
    ("submit", "--priority x", "--priority expects an integer"),
    ("submit", "--priority -1", "--priority expects an integer"),
    ("submit", "--retry x", "--retry expects an integer"),
    ("submit", "--retry-base-ms x", "--retry-base-ms expects milliseconds"),
    ("submit", "--reads r.fq", "--socket is required"),
    ("submit", "", "--socket is required"),
    ("submit", "--shutdown", "--socket is required"),
    ("submit", "--socket s.sock", "--reads is required (or --shutdown)"),
    ("submit", "--reads r.fq --priority x", "--priority expects an integer"),
    ("submit", "--deadline -1 --retry x", "--deadline must be non-negative"),
    ("submit", "--retry x --deadline -1", "--retry expects an integer"),
    // --- stats.
    ("stats", "--help", "help requested"),
    ("stats", "-h", "help requested"),
    ("stats", "", "stats expects at least one metrics JSON-lines file"),
    ("stats", "--strict", "stats expects at least one metrics JSON-lines file"),
    ("stats", "--wat m.jsonl", "unknown option \"--wat\""),
    ("stats", "m.jsonl --wat", "unknown option \"--wat\""),
    ("stats", "-x", "unknown option \"-x\""),
    // A spool is a shell glob now: `repute stats dir/*.jsonl`.
    ("stats", "--dir spool", "unknown option \"--dir\""),
    // --- trace.
    ("trace", "--help", "help requested"),
    ("trace", "-h", "help requested"),
    ("trace", "", "trace expects a Chrome-tracing JSON file"),
    ("trace", "a.json b.json", "trace expects exactly one file"),
    ("trace", "--wat t.json", "unknown option \"--wat\""),
    ("trace", "t.json --wat", "unknown option \"--wat\""),
    ("trace", "a.json b.json --help", "trace expects exactly one file"),
    ("trace", "a.json --help b.json", "help requested"),
    ("trace", "--dir d", "unknown option \"--dir\""),
];

/// `(subcommand, arguments, the option values that differ from the
/// defaults)`.
const ACCEPTED: &[(&str, &str, &str)] = &[
    // --- map.
    ("map", "--reference r.fa --reads q.fq", "reference=\"r.fa\"; reads=\"q.fq\""),
    ("map", "--index i.rpx --reads q.fq", "index=Some(\"i.rpx\"); reads=\"q.fq\""),
    ("map", "--reads q.fq --reference r.fa --delta 4 --s-min 14 --max-locations 50 --output o.sam --cigar", "reference=\"r.fa\"; reads=\"q.fq\"; delta=4; s_min=14; max_locations=50; output=Some(\"o.sam\"); cigar=true"),
    ("map", "--reference r.fa --index-cache c.rpxc --reads q.fq --metrics-out m.jsonl -v", "reference=\"r.fa\"; index_cache=Some(\"c.rpxc\"); reads=\"q.fq\"; metrics_out=Some(\"m.jsonl\"); verbose=true"),
    ("map", "--reference r.fa --reads q.fq --verbose", "reference=\"r.fa\"; reads=\"q.fq\"; verbose=true"),
    ("map", "--reference r.fa --reads q.fq --trace", "reference=\"r.fa\"; reads=\"q.fq\"; verbose=true"),
    ("map", "--reference r.fa --reads q.fq --mapper coral", "reference=\"r.fa\"; reads=\"q.fq\"; mapper=Coral"),
    ("map", "--reference r.fa --reads q.fq --mapper BWA-MEM", "reference=\"r.fa\"; reads=\"q.fq\"; mapper=BwaMem"),
    ("map", "--reference r.fa --reads q.fq --mapper bwamem --delta 0 --s-min 0", "reference=\"r.fa\"; reads=\"q.fq\"; delta=0; s_min=0; mapper=BwaMem"),
    ("map", "--reference r.fa --reads q.fq --prefilter both", "reference=\"r.fa\"; reads=\"q.fq\"; prefilter=Both"),
    ("map", "--reference r.fa --reads q.fq --prefilter none --mapper gem", "reference=\"r.fa\"; reads=\"q.fq\"; mapper=Gem"),
    ("map", "--reference r.fa --reads q.fq --schedule dynamic --host-threads 3", "reference=\"r.fa\"; reads=\"q.fq\"; schedule=Dynamic; host_threads=3"),
    ("map", "--reference r.fa --reads q.fq --platform hikey970 --schedule static", "reference=\"r.fa\"; reads=\"q.fq\"; platform=Some(\"hikey970\")"),
    ("map", "--reference r.fa --reads q.fq --platform no-such-platform", "reference=\"r.fa\"; reads=\"q.fq\"; platform=Some(\"no-such-platform\")"),
    ("map", "--reference r.fa --reads q.fq --platform system1 --fault-plan transient:d0@0.1x2,loss:d1@0.5 --max-retries 4", "reference=\"r.fa\"; reads=\"q.fq\"; platform=Some(\"system1\"); fault_plan=[Transient:d0@0.1,Transient:d0@0.1,Loss:d1@0.5]; max_retries=4"),
    ("map", "--reference r.fa --reads q.fq --platform system1 --fault-plan slow:d1@0x0.5;correlated:d0+d2@1 --max-retries 0", "reference=\"r.fa\"; reads=\"q.fq\"; platform=Some(\"system1\"); fault_plan=[Degrade { factor: 0.5 }:d1@0,Loss:d0@1,Loss:d2@1]; max_retries=0"),
    ("map", "--reference r.fa --reads q.fq --platform system1 --fault-plan ,", "reference=\"r.fa\"; reads=\"q.fq\"; platform=Some(\"system1\"); fault_plan=[]"),
    ("map", "--reference r.fa --reads q.fq --platform system1 --trace-out t.json", "reference=\"r.fa\"; reads=\"q.fq\"; platform=Some(\"system1\"); trace_out=Some(\"t.json\")"),
    ("map", "--reference r.fa --reads q.fq --output o.sam --checkpoint j.rpj --resume", "reference=\"r.fa\"; reads=\"q.fq\"; output=Some(\"o.sam\"); checkpoint=Some(\"j.rpj\"); resume=true"),
    ("map", "--reference r.fa --reads q.fq --platform system1 --output o.sam --checkpoint j.rpj --cigar --fault-plan loss:d0@0.5", "reference=\"r.fa\"; reads=\"q.fq\"; output=Some(\"o.sam\"); cigar=true; platform=Some(\"system1\"); fault_plan=[Loss:d0@0.5]; checkpoint=Some(\"j.rpj\")"),
    ("map", "--reference r.fa --reads q.fq --delta 3 --delta 4 --reads other.fq", "reference=\"r.fa\"; reads=\"other.fq\"; delta=4"),
    ("map", "--reference \"\" --reads q.fq", "reads=\"q.fq\""),
    ("map", "--reference r.fa --reads q.fq --output --help", "reference=\"r.fa\"; reads=\"q.fq\"; output=Some(\"--help\")"),
    ("map", "--index i.rpx --reads q.fq --mapper yara --platform system1-cpu --fault-plan loss:d0@2", "index=Some(\"i.rpx\"); reads=\"q.fq\"; mapper=Yara; platform=Some(\"system1-cpu\"); fault_plan=[Loss:d0@2]"),
    // --- index.
    ("index", "--reference r.fa --output o.rpx", "reference=\"r.fa\"; output=\"o.rpx\""),
    ("index", "--output o.rpx --reference r.fa --output p.rpx", "reference=\"r.fa\"; output=\"p.rpx\""),
    // --- simulate.
    ("simulate", "--out-dir d", "out_dir=\"d\""),
    ("simulate", "--out-dir d --length 5000 --reads 10 --read-len 80 --seed 7 --profile perfect", "out_dir=\"d\"; length=5000; reads=10; read_len=80; seed=7; profile=\"perfect\""),
    ("simulate", "--profile srr826460 --out-dir d --length 0", "out_dir=\"d\"; length=0; profile=\"srr826460\""),
    // --- serve.
    ("serve", "--reference r.fa --socket s.sock", "reference=\"r.fa\"; socket=Some(\"s.sock\")"),
    ("serve", "--reference r.fa --spool jobs --once", "reference=\"r.fa\"; spool=Some(\"jobs\"); once=true"),
    ("serve", "--index i.rpx --spool jobs", "index=Some(\"i.rpx\"); spool=Some(\"jobs\")"),
    ("serve", "--reference r.fa --index-cache c.rpxc --socket s.sock --platform hikey970", "reference=\"r.fa\"; index_cache=Some(\"c.rpxc\"); platform=\"hikey970\"; socket=Some(\"s.sock\")"),
    ("serve", "--reference r.fa --socket s.sock --delta 4 --s-min 14 --max-locations 50 --prefilter both", "reference=\"r.fa\"; socket=Some(\"s.sock\"); delta=4; s_min=14; max_locations=50; prefilter=Both"),
    ("serve", "--reference r.fa --socket s.sock --schedule static --host-threads 2 --max-retries 5", "reference=\"r.fa\"; socket=Some(\"s.sock\"); schedule=Static; host_threads=2; max_retries=5"),
    ("serve", "--reference r.fa --socket s.sock --queue-capacity 8 --max-reads-per-job 7 --max-delta 9", "reference=\"r.fa\"; socket=Some(\"s.sock\"); queue_capacity=8; max_reads_per_job=Some(7); max_delta=9"),
    ("serve", "--reference r.fa --spool jobs --once --tenant-weight acme=3 --tenant-weight lab=0.5", "reference=\"r.fa\"; spool=Some(\"jobs\"); once=true; tenant_weights=[(\"acme\", 3.0), (\"lab\", 0.5)]"),
    ("serve", "--reference r.fa --socket s.sock --tenant-quota acme=500 --tenant-quota lab=9 --quota-window 30", "reference=\"r.fa\"; socket=Some(\"s.sock\"); tenant_quotas=[(\"acme\", 500), (\"lab\", 9)]; quota_window_s=30.0"),
    ("serve", "--reference r.fa --socket s.sock --journal j.jnl --resume", "reference=\"r.fa\"; socket=Some(\"s.sock\"); journal=Some(\"j.jnl\"); resume=true"),
    ("serve", "--reference r.fa --socket s.sock --journal j.jnl", "reference=\"r.fa\"; socket=Some(\"s.sock\"); journal=Some(\"j.jnl\")"),
    ("serve", "--reference r.fa --socket s.sock --fault-plan transient:d0@0.1x2,loss:d1@0.5", "reference=\"r.fa\"; socket=Some(\"s.sock\"); fault_plan=[Transient:d0@0.1,Transient:d0@0.1,Loss:d1@0.5]"),
    ("serve", "--reference r.fa --socket s.sock --fault-plan ,", "reference=\"r.fa\"; socket=Some(\"s.sock\")"),
    ("serve", "--reference r.fa --socket s.sock --shed-overdue", "reference=\"r.fa\"; socket=Some(\"s.sock\"); shed_overdue=true"),
    ("serve", "--reference r.fa --socket s.sock --metrics-out m.jsonl --trace-out t.json", "reference=\"r.fa\"; socket=Some(\"s.sock\"); metrics_out=Some(\"m.jsonl\"); trace_out=Some(\"t.json\")"),
    ("serve", "--reference \"\" --socket s.sock", "socket=Some(\"s.sock\")"),
    // --- submit.
    ("submit", "--socket s.sock --reads r.fq", "socket=\"s.sock\"; reads=Some(\"r.fq\")"),
    ("submit", "--socket s.sock --shutdown", "socket=\"s.sock\"; shutdown=true"),
    ("submit", "--socket s.sock --shutdown --reads r.fq", "socket=\"s.sock\"; reads=Some(\"r.fq\"); shutdown=true"),
    ("submit", "--socket s.sock --reads r.fq --id j1 --tenant acme --delta 3 --prefilter shd --mapper coral", "socket=\"s.sock\"; reads=Some(\"r.fq\"); id=Some(\"j1\"); tenant=Some(\"acme\"); delta=Some(3); prefilter=Some(\"shd\"); mapper=Some(\"coral\")"),
    ("submit", "--socket s.sock --reads r.fq --prefilter nonsense --mapper nonsense", "socket=\"s.sock\"; reads=Some(\"r.fq\"); prefilter=Some(\"nonsense\"); mapper=Some(\"nonsense\")"),
    ("submit", "--socket s.sock --reads r.fq --deadline 2.5 --priority 7 --output o.sam", "socket=\"s.sock\"; reads=Some(\"r.fq\"); deadline=Some(2.5); priority=Some(7); output=Some(\"o.sam\")"),
    ("submit", "--socket s.sock --reads r.fq --deadline 0 --retry 3 --retry-base-ms 250", "socket=\"s.sock\"; reads=Some(\"r.fq\"); deadline=Some(0.0); retry=3; retry_base_ms=250"),
    ("submit", "--socket \"\" --reads r.fq", "reads=Some(\"r.fq\")"),
    // --- stats.
    ("stats", "m.jsonl", "inputs=[\"m.jsonl\"]; strict=false"),
    ("stats", "--strict m.jsonl", "inputs=[\"m.jsonl\"]; strict=true"),
    ("stats", "a.jsonl b.jsonl", "inputs=[\"a.jsonl\", \"b.jsonl\"]; strict=false"),
    ("stats", "a.jsonl --strict b.jsonl", "inputs=[\"a.jsonl\", \"b.jsonl\"]; strict=true"),
    // --- trace.
    ("trace", "t.json", "input=\"t.json\""),
];
