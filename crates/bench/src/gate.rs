//! The `--write <path>` / `--check <path>` gate of the bench binaries
//! that keep a committed `BENCH_*.json` baseline.
//!
//! Every such binary measures first, then either writes its document
//! (and checks it against its own schema before it lands on disk) or
//! reads the committed one, validates it, and compares. What is shared
//! lives here — argument parsing, the `schema`/`version` header,
//! read-or-exit, write-then-self-validate, and the "fresh over committed
//! beyond a factor" loop; each binary keeps its measurement, its
//! document body and its list of gated fields. Every failure exits 1.

use repute_obs::json::{field, parse_json, JsonValue};

/// The fields of a parsed JSON object, keys in source order.
pub type Fields = Vec<(String, JsonValue)>;

/// What the command line asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--write <path>`: write a fresh baseline.
    Write,
    /// `--check <path>`: compare against the committed baseline.
    Check,
}

/// One binary's gate: its names in messages and its document header.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// The binary's name, for the usage line.
    pub binary: &'static str,
    /// The document's `schema` field.
    pub schema: &'static str,
    /// The document's `version` field; bump on any key change and
    /// regenerate the baseline.
    pub version: u64,
    /// The schema's name in "`<path>` violates the `<noun>` schema".
    pub noun: &'static str,
    /// `Some(title)` for a binary that runs a smoke section before the
    /// gate: it may be run with no arguments at all, prefixes every
    /// failure with `FAIL:`, and calls its document "the `<title>`
    /// baseline". `None` for a binary that only measures: a mode is
    /// required and the document is just "the baseline".
    pub smoke: Option<&'static str>,
}

/// Prints `FAIL: <msg>` and exits 1.
pub fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

impl Gate {
    /// Parses the process arguments: `--write <path>`, `--check <path>`,
    /// or — for a smoke binary — nothing. Anything else prints the usage
    /// line and exits 1.
    pub fn mode(&self) -> Option<(Mode, String)> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match args.as_slice() {
            [] if self.smoke.is_some() => None,
            [mode, path] if mode == "--write" => Some((Mode::Write, path.clone())),
            [mode, path] if mode == "--check" => Some((Mode::Check, path.clone())),
            _ => {
                let modes = "--write <path> | --check <path>";
                match self.smoke {
                    Some(_) => eprintln!("usage: {} [{modes}]", self.binary),
                    None => eprintln!("usage: {} {modes}", self.binary),
                }
                std::process::exit(1);
            }
        }
    }

    /// Parses `text` and checks the `schema`/`version` header; returns
    /// the top-level fields for the binary's own validation.
    ///
    /// # Errors
    ///
    /// The first violation, as a message.
    pub fn header(&self, text: &str) -> Result<Fields, String> {
        let JsonValue::Obj(fields) = parse_json(text).ok_or("not valid JSON")? else {
            return Err("top level is not an object".into());
        };
        let schema = field(&fields, "schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field \"schema\"")?;
        if schema != self.schema {
            return Err(format!("schema is {schema:?}, expected {:?}", self.schema));
        }
        let version = field(&fields, "version")
            .and_then(JsonValue::as_u64)
            .ok_or("missing integer field \"version\"")?;
        if version != self.version {
            return Err(format!(
                "schema version is {version}, expected {}",
                self.version
            ));
        }
        Ok(fields)
    }

    /// `--write`: checks the fresh document against `validate` — the
    /// same function `--check` will apply to it — and writes it to
    /// `path`.
    pub fn write<T>(&self, path: &str, text: &str, validate: impl Fn(&str) -> Result<T, String>) {
        if let Err(err) = validate(text) {
            let tag = if self.smoke.is_some() { "FAIL" } else { "BUG" };
            eprintln!("{tag}: freshly written document fails its own schema: {err}");
            std::process::exit(1);
        }
        let written = std::fs::write(path, text);
        match (written, self.smoke) {
            (Ok(()), Some(title)) => println!("wrote {title} baseline to {path}"),
            (Ok(()), None) => println!("wrote baseline to {path}"),
            (Err(_), Some(_)) => fail(&format!("cannot write {path}")),
            (Err(err), None) => {
                eprintln!("cannot write {path}: {err}");
                std::process::exit(1);
            }
        }
    }

    /// `--check`: reads the committed document at `path` and validates
    /// it, exiting 1 when it is unreadable or violates the schema.
    pub fn read<T>(&self, path: &str, validate: impl Fn(&str) -> Result<T, String>) -> T {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) if self.smoke.is_some() => fail(&format!("cannot read {path}: {err}")),
            Err(err) => {
                eprintln!("cannot read {path}: {err}");
                std::process::exit(1);
            }
        };
        match validate(&text) {
            Ok(committed) => committed,
            Err(err) => fail(&format!("{path} violates the {} schema: {err}", self.noun)),
        }
    }

    /// The regression gate of a smoke binary: every `fresh` metric that
    /// the committed document also holds may exceed its committed value
    /// by at most `factor`. Prints one line per metric (keys padded to
    /// `width`) and exits 1 naming `subject` when any regressed.
    pub fn check_regressions(
        &self,
        committed: &[(String, f64)],
        fresh: &[(&str, f64)],
        factor: f64,
        width: usize,
        subject: &str,
    ) {
        println!("schema OK: {} gated metric(s)", committed.len());
        let mut regressed = false;
        for (key, committed_value) in committed {
            let Some((_, fresh_value)) = fresh.iter().find(|(k, _)| k == key) else {
                continue;
            };
            let limit = committed_value * factor;
            let verdict = if *fresh_value > limit {
                regressed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "  {key:<width$} committed {committed_value:.9} | fresh {fresh_value:.9} | \
                 limit {limit:.9} [{verdict}]"
            );
        }
        if regressed {
            fail(&format!(
                "{subject} regression beyond {factor}x; \
                 refresh intentional changes with --write"
            ));
        }
        println!("{} trajectory gate OK", self.smoke.unwrap_or(self.noun));
    }
}

/// Checks that every key of `integers` is a non-negative integer field
/// and every key of `numbers` a numeric one.
///
/// # Errors
///
/// Names the first missing field.
pub fn require(fields: &Fields, integers: &[&str], numbers: &[&str]) -> Result<(), String> {
    for key in integers {
        if field(fields, key).and_then(JsonValue::as_u64).is_none() {
            return Err(format!("missing integer field {key:?}"));
        }
    }
    for key in numbers {
        if field(fields, key).and_then(JsonValue::as_f64).is_none() {
            return Err(format!("missing numeric field {key:?}"));
        }
    }
    Ok(())
}

/// The gated metrics of a document, in `keys` order.
///
/// # Errors
///
/// Names the first key that is not a numeric field.
pub fn gated(fields: &Fields, keys: &[&str]) -> Result<Vec<(String, f64)>, String> {
    keys.iter()
        .map(|key| {
            field(fields, key)
                .and_then(JsonValue::as_f64)
                .map(|value| (key.to_string(), value))
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        })
        .collect()
}
