//! The `--write <path>` / `--check <path>` gate of a bench binary that
//! keeps a committed `BENCH_*.json` baseline.
//!
//! The binary measures first, then either writes its document (and
//! checks it against its own schema before it lands on disk) or reads the
//! committed one, validates it, and compares. What is shared lives here —
//! argument parsing, the `schema`/`version` header, read-or-exit and
//! write-then-self-validate; the binary keeps its measurement, its
//! document body and its comparison. Every failure exits 1.

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
}

/// Prints `FAIL: <msg>` and exits 1.
pub fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

/// The failed checks of a binary that reports every failure before it
/// exits, where [`fail`] stops at the first.
#[derive(Debug, Default)]
pub struct Checks(u32);

impl Checks {
    /// Prints `FAIL: <msg>` and counts it.
    pub fn fail(&mut self, msg: &str) {
        eprintln!("FAIL: {msg}");
        self.0 += 1;
    }

    /// Exits 1 with `<n> <what>check(s) failed` when any check failed.
    pub fn finish(self, what: &str) {
        if self.0 > 0 {
            eprintln!("\n{} {what}check(s) failed", self.0);
            std::process::exit(1);
        }
    }
}

impl Gate {
    /// Parses the process arguments: `--write <path>` or `--check
    /// <path>`. Anything else prints the usage line and exits 1.
    pub fn mode(&self) -> (Mode, String) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match args.as_slice() {
            [mode, path] if mode == "--write" => (Mode::Write, path.clone()),
            [mode, path] if mode == "--check" => (Mode::Check, path.clone()),
            _ => {
                eprintln!("usage: {} --write <path> | --check <path>", self.binary);
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
            eprintln!("BUG: freshly written document fails its own schema: {err}");
            std::process::exit(1);
        }
        if let Err(err) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {err}");
            std::process::exit(1);
        }
        println!("wrote baseline to {path}");
    }

    /// `--check`: reads the committed document at `path` and validates
    /// it, exiting 1 when it is unreadable or violates the schema.
    pub fn read<T>(&self, path: &str, validate: impl Fn(&str) -> Result<T, String>) -> T {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
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
}

/// Checks that every key of `keys` is a numeric field.
///
/// # Errors
///
/// Names the first missing field.
pub fn require_numbers(fields: &Fields, keys: &[&str]) -> Result<(), String> {
    match keys
        .iter()
        .find(|key| field(fields, key).and_then(JsonValue::as_f64).is_none())
    {
        Some(key) => Err(format!("missing numeric field {key:?}")),
        None => Ok(()),
    }
}
