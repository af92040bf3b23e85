//! What every subcommand's parser is written in: the argument
//! [`Cursor`], the [`ParseArgsError`] it answers with, and the
//! [`USAGE`] text behind `--help`.
//!
//! A flag is one match arm in its subcommand's parser (or, for the
//! flags `map` and `serve` share, in [`crate::map::MappingFlags`]) that
//! names it once and reads its value through the cursor, plus one line
//! of [`USAGE`]; a unit test below holds the two together.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Error for malformed command lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError {
    message: String,
    help: bool,
}

impl ParseArgsError {
    pub(crate) fn new(message: impl Into<String>) -> ParseArgsError {
        ParseArgsError {
            message: message.into(),
            help: false,
        }
    }

    /// Whether the line asked for `--help` / `-h`: not a mistake, so
    /// the binary prints the usage on stdout and exits 0.
    pub fn is_help_request(&self) -> bool {
        self.help
    }
}

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n\n{}", self.message, USAGE)
    }
}

impl Error for ParseArgsError {}

/// A rule the parser states is a configuration error when an options
/// struct built in code breaks it (exit code 2, without the usage text).
impl From<ParseArgsError> for repute_core::ReputeError {
    fn from(err: ParseArgsError) -> repute_core::ReputeError {
        repute_core::ReputeError::Config(err.message)
    }
}

/// One pass over a subcommand's arguments: the argument being handled,
/// readers that take its value and name it in their messages, and which
/// arguments came before it.
pub(crate) struct Cursor {
    args: std::vec::IntoIter<String>,
    flag: String,
    seen: Vec<String>,
}

impl Cursor {
    pub(crate) fn new(args: impl IntoIterator<Item = String>) -> Cursor {
        Cursor {
            args: args.into_iter().collect::<Vec<_>>().into_iter(),
            flag: String::new(),
            seen: Vec::new(),
        }
    }

    /// Moves to the next argument; `false` at the end of the line.
    pub(crate) fn advance(&mut self) -> Result<bool, ParseArgsError> {
        match self.args.next() {
            Some(arg) if arg == "--help" || arg == "-h" => Err(ParseArgsError {
                help: true,
                ..ParseArgsError::new("help requested")
            }),
            Some(arg) => {
                self.seen.push(std::mem::replace(&mut self.flag, arg));
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// The current argument.
    pub(crate) fn flag(&self) -> &str {
        &self.flag
    }

    /// Whether `flag` was given (as a flag, not as another flag's value),
    /// whatever its value was.
    pub(crate) fn saw(&self, flag: &str) -> bool {
        self.flag == flag || self.seen.iter().any(|seen| seen == flag)
    }

    /// An error about the current flag: `"<flag> <what>"`.
    pub(crate) fn fail(&self, what: impl fmt::Display) -> ParseArgsError {
        ParseArgsError::new(format!("{} {what}", self.flag))
    }

    /// The answer to an argument no arm of the parser took.
    pub(crate) fn unknown(&self) -> ParseArgsError {
        ParseArgsError::new(format!("unknown option {:?}", self.flag))
    }

    /// The current argument as a path, for the subcommands that take
    /// some; anything that looks like a flag is unknown.
    pub(crate) fn positional(&self) -> Result<String, ParseArgsError> {
        if self.flag.starts_with('-') {
            return Err(self.unknown());
        }
        Ok(self.flag.clone())
    }

    /// The current flag's value: the next argument, whatever it is.
    pub(crate) fn value(&mut self) -> Result<String, ParseArgsError> {
        self.args.next().ok_or_else(|| self.fail("expects a value"))
    }

    /// The value parsed as a `T`; `what` names a `T` to the user
    /// (`"an integer"`, `"seconds"`).
    pub(crate) fn parsed<T: FromStr>(&mut self, what: &str) -> Result<T, ParseArgsError> {
        self.value()?
            .parse()
            .map_err(|_| self.fail(format_args!("expects {what}")))
    }

    pub(crate) fn integer<T: FromStr>(&mut self) -> Result<T, ParseArgsError> {
        self.parsed("an integer")
    }

    pub(crate) fn positive(&mut self) -> Result<usize, ParseArgsError> {
        match self.integer()? {
            0 => Err(self.fail("must be positive")),
            n => Ok(n),
        }
    }

    /// The value through a parser whose own message says what is wrong:
    /// `"<flag>: <its message>"`.
    pub(crate) fn explained<T, E: fmt::Display>(
        &mut self,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, ParseArgsError> {
        let value = self.value()?;
        parse(&value).map_err(|e| ParseArgsError::new(format!("{}: {e}", self.flag)))
    }
}

/// Usage text shown on `--help` and argument errors.
pub const USAGE: &str = "\
repute — OpenCL-style heterogeneous short-read mapper (DATE 2020 reproduction)

USAGE:
    repute map      --reference <ref.fa> --reads <reads.fq> [OPTIONS]
    repute map      --index <ref.rpx>    --reads <reads.fq> [OPTIONS]
    repute index    --reference <ref.fa> --output <ref.rpx>
    repute simulate --out-dir <dir> [--length N] [--reads N] [--read-len N]
                    [--seed N] [--profile err012100|srr826460|perfect]
    repute serve    --reference <ref.fa> --socket <sock> [OPTIONS]
    repute serve    --reference <ref.fa> --spool <dir> --once [OPTIONS]
    repute submit   --socket <sock> --reads <reads.fq> [OPTIONS]
    repute stats    <metrics.jsonl> [more.jsonl ...] [--strict]
    repute trace    <trace.json>

MAP OPTIONS:
    --reference <path>       FASTA reference (multi-record supported)
    --index <path>           prebuilt index from `repute index`
    --index-cache <path>     fingerprint-validated serialized-index
                             cache: load the FM-index from here when it
                             matches the reference, else build and save
                             it back (requires --reference)
    --reads <path>           FASTQ reads (required)
    --delta <n>              error budget δ [default: 5]
    --s-min <n>              minimum k-mer length S_min [default: 12]
    --max-locations <n>      first-n output slots per read [default: 100]
    --output <path>          SAM output path [default: stdout]
    --cigar                  compute CIGAR strings (repute mapper only)
    --mapper <name>          repute | coral | razers3 | hobbes3 | yara |
                             gem | bwa-mem [default: repute]
    --prefilter <mode>       pre-alignment filtration before Myers
                             verification (repute mapper only):
                             none | shd | qgram | both [default: none]
    --platform <name>        also report simulated time/energy on
                             system1 | system1-cpu | hikey970
    --schedule <mode>        multi-device scheduling of the platform
                             simulation: static (fixed per-device shares)
                             | dynamic (devices greedily pull batches)
                             [default: static]
    --host-threads <n>       cap the host threads that map reads (1 =
                             the sequential host of earlier releases)
                             [default: automatic]
    --fault-plan <spec>      inject device faults into the platform
                             simulation (requires --platform);
                             comma-separated events: loss:d<dev>@<t> |
                             transient:d<dev>@<t>[x<count>] |
                             slow:d<dev>@<t>x<factor> |
                             correlated:d<a>+d<b>+...@<t>  (times are
                             simulated seconds)
    --max-retries <n>        transient-fault retry budget per launch of
                             the simulation [default: 2]
    --checkpoint <path>      survive a crash (requires --output): every
                             1024 reads the outputs are synced and their
                             lengths committed to <path>; an interrupted
                             run is continued with --resume, to the
                             bytes of an uninterrupted one
    --resume                 cut the outputs back to what the checkpoint
                             committed, skip those reads, finish the rest
    --metrics-out <path>     write per-read and run-level telemetry as
                             JSON-lines (inspect with `repute stats`)
    --trace-out <path>       write the simulated run's spans as Chrome
                             trace JSON (requires --platform); open in
                             chrome://tracing / ui.perfetto.dev or
                             summarize with `repute trace`
    -v, --verbose, --trace   per-read trace lines and the full run report
                             on stderr
    --help                   print this text

SERVE OPTIONS:
    --socket <path>          listen on a Unix-domain socket (newline-
                             delimited JSON job envelopes in, typed
                             responses out)
    --spool <dir>            watch a directory of *.json job files
                             instead; --once processes one pass and
                             exits (deterministic, for tests/CI)
    --journal <path>         crash-safe job journal: every accepted job
                             and every finished batch is committed
                             durably; restart with --resume to lose at
                             most one in-flight round. The journal
                             compacts itself down to the queued jobs
    --resume                 replay a daemon journal: committed job
                             responses are served from the journal,
                             uncommitted jobs are requeued
    --queue-capacity <n>     admission-queue bound; a full queue answers
                             RETRY_LATER [default: 64]
    --max-reads-per-job <n>  reject jobs above this read count [default:
                             the platform's quarter-RAM batch cap]
    --max-delta <n>          reject per-job delta overrides above this
                             [default: 16]
    --tenant-weight <n=w>    weighted-fair dequeue weight of tenant n
                             (repeatable; unlisted tenants weigh 1.0)
    --tenant-quota <n=r>     sliding-window read budget of tenant n; an
                             exceeded budget answers QUOTA_EXCEEDED
                             (repeatable; unlisted tenants unbudgeted)
    --quota-window <s>       quota window length in simulated seconds
                             [default: 60]
    --fault-plan <spec>      inject device faults into the daemon's
                             simulated platform (loss: | transient: |
                             slow: | correlated: events); lost
                             devices shrink the queue bound and read
                             cap, all-lost drains SERVICE_UNAVAILABLE
    --max-retries <n>        transient-fault retry budget of every
                             batch execution [default: 2]
    --shed-overdue           shed queued jobs whose deadline already
                             passed with DEADLINE_EXCEEDED instead of
                             running them late
    plus the map options: --index, --index-cache, --platform [default:
    system1], --delta, --s-min, --max-locations, --prefilter,
    --schedule [default: dynamic], --host-threads, --metrics-out,
    --trace-out

SUBMIT OPTIONS:
    --socket <path>          the daemon's socket (required)
    --reads <path>           FASTQ reads, loaded client-side
    --id <name> / --tenant <name> / --delta <n> / --prefilter <mode> /
    --mapper <name>          job envelope fields
    --deadline <s>           relative deadline in simulated seconds;
                             deadline jobs dequeue earliest-first
    --priority <n>           intra-tenant priority (higher first)
    --output <path>          SAM output path [default: stdout]
    --retry <n>              resubmit up to n times on RETRY_LATER with
                             exponential backoff [default: 0]
    --retry-base-ms <ms>     base backoff delay, doubled per attempt
                             [default: 100]
    --shutdown               drain the daemon and stop it

STATS OPTIONS:
    (files)                  counters merge and latency samples pool
                             across all inputs
    --strict                 error on the first malformed JSON line
                             instead of skipping it with a warning

TRACE OPTIONS:
    (none)                   `repute trace <trace.json>` summarizes a
                             --trace-out file: events, per-process span
                             totals, per-category latency percentiles

EXIT CODES:
    0 success | 2 configuration | 3 input parse | 4 i/o
    5 journal corrupt | 6 resume mismatch | 7 device loss";

#[cfg(test)]
mod tests {
    use super::USAGE;
    use std::collections::BTreeSet;

    /// Every `--flag` in `text`.
    fn flags(text: &str) -> BTreeSet<String> {
        let mut found = BTreeSet::new();
        for (at, _) in text.match_indices("--") {
            if text[..at].ends_with('-') {
                continue;
            }
            let rest = &text[at..];
            let end = rest
                .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                .unwrap_or(rest.len());
            let flag = rest[..end].trim_end_matches('-');
            if flag.len() == 2 {
                continue;
            }
            found.insert(flag.to_string());
        }
        found
    }

    /// What `USAGE` documents for `cmd`: the flags of its synopsis lines
    /// and the flags its options section defines (a line indented four
    /// spaces that starts with a flag; for `serve` also everything from
    /// "plus the map options" on).
    fn documented(cmd: &str) -> BTreeSet<String> {
        let mut text = String::new();
        let (mut in_synopsis, mut in_section, mut in_sentence) = (false, false, false);
        for line in USAGE.lines() {
            if line.trim().is_empty() {
                (in_synopsis, in_section, in_sentence) = (false, false, false);
            } else if let Some(synopsis) = line.trim().strip_prefix("repute ") {
                in_synopsis = synopsis.split_whitespace().next() == Some(cmd);
            } else if let Some(section) = line.strip_suffix(" OPTIONS:") {
                in_section = section.eq_ignore_ascii_case(cmd);
                continue;
            }
            in_sentence |= in_section && line.trim().starts_with("plus the map options");
            let defines = line.starts_with("    -") || in_sentence;
            if in_synopsis || (in_section && defines) {
                text.push_str(line);
                text.push('\n');
            }
        }
        flags(&text)
    }

    /// A parser as "arguments in, message out".
    type Parser = Box<dyn Fn(Vec<String>) -> Option<String>>;

    /// The flags a parser knows: those it does not answer with `unknown
    /// option` when offered alone. (`--help` is the cursor's, for all.)
    fn accepted(parse: Parser) -> BTreeSet<String> {
        flags(USAGE)
            .into_iter()
            .filter(|flag| flag != "--help")
            .filter(|flag| {
                !parse(vec![flag.clone()]).is_some_and(|e| e.starts_with("unknown option"))
            })
            .collect()
    }

    #[test]
    fn usage_documents_exactly_the_flags_each_parser_takes() {
        fn message<O>(parsed: Result<O, super::ParseArgsError>) -> Option<String> {
            parsed.err().map(|e| e.to_string())
        }
        let parsers: [(&str, Parser); 7] = [
            ("map", Box::new(|a| message(crate::parse_map_args(a)))),
            ("index", Box::new(|a| message(crate::parse_index_args(a)))),
            (
                "simulate",
                Box::new(|a| message(crate::parse_simulate_args(a))),
            ),
            ("serve", Box::new(|a| message(crate::parse_serve_args(a)))),
            ("submit", Box::new(|a| message(crate::parse_submit_args(a)))),
            ("stats", Box::new(|a| message(crate::parse_stats_args(a)))),
            ("trace", Box::new(|a| message(crate::parse_trace_args(a)))),
        ];
        for (cmd, parse) in parsers {
            let mut documented = documented(cmd);
            documented.remove("--help");
            assert_eq!(accepted(parse), documented, "repute {cmd}");
        }
        // The tokenizer sees what the test thinks it sees.
        assert!(documented("serve").contains("--schedule"));
        assert!(documented("simulate").contains("--profile"));
        assert!(documented("trace").is_empty());
    }
}
