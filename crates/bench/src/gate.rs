//! The `--write <path>` / `--check <path>` gate of the bench binaries
//! that keep a committed `BENCH_*.json` baseline.
//!
//! Every such binary measures first, then either writes its document
//! (and checks it against its own schema before it lands on disk) or
//! reads the committed one, validates it, and compares. What is shared
//! lives here — argument parsing, the `schema`/`version` header,
//! read-or-exit, write-then-self-validate, the one regression factor and
//! the "fresh over committed beyond it" loop; each binary keeps its
//! measurement and its document body. A flat document states its fields
//! once, as [`Field`]s, and [`Gate::finish`] derives the rendering, the
//! schema check and the comparison from that list. Every failure exits 1.

use repute_obs::json::{field, parse_json, JsonObject, JsonValue};

/// A fresh gated metric may exceed its committed value by at most this
/// factor before `--check` fails.
pub const REGRESSION_FACTOR: f64 = 1.2;

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

/// How `--check` treats one value of a flat document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A count: must be present as a non-negative integer.
    Integer(u64),
    /// Machine-dependent or derived: must be present as a number, never
    /// compared.
    Informational(f64),
    /// Deterministic: fresh may exceed committed by at most
    /// [`REGRESSION_FACTOR`].
    Gated(f64),
}

/// One `key: value` of a flat document, in document order.
pub type Field = (&'static str, Value);

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

/// The value of `result`, or `FAIL: <what>: <error>` and exit 1.
pub fn or_fail<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    result.unwrap_or_else(|err| fail(&format!("{what}: {err}")))
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

    /// The tail of a serve smoke binary, whose document is flat: nothing
    /// for a run without arguments, `--write` of the pinned reference
    /// length and then `fields` in order, or `--check` of the committed
    /// document against them — every gated value may exceed its
    /// committed one by at most [`REGRESSION_FACTOR`]. Prints one line
    /// per gated metric and exits 1 naming `subject` when any regressed.
    pub fn finish(&self, mode: Option<(Mode, String)>, fields: &[Field], subject: &str) {
        let Some((mode, path)) = mode else { return };
        let validate = |text: &str| self.validate_flat(fields, text);
        if mode == Mode::Write {
            let mut doc = JsonObject::new();
            doc.str_field("schema", self.schema);
            doc.u64_field("version", self.version);
            doc.u64_field("reference_len", crate::scenario::SERVE_REF_LEN as u64);
            for &(key, value) in fields {
                match value {
                    Value::Integer(v) => doc.u64_field(key, v),
                    Value::Informational(v) | Value::Gated(v) => doc.f64_field(key, v),
                };
            }
            return self.write(&path, &(doc.finish() + "\n"), validate);
        }
        let committed = self.read(&path, validate);
        println!("schema OK: {} gated metric(s)", committed.len());
        let width = committed
            .iter()
            .map(|gated| gated.0.len())
            .max()
            .unwrap_or(0);
        let width = width.next_multiple_of(4);
        let mut regressed = false;
        for (key, committed_value, fresh_value) in &committed {
            let limit = committed_value * REGRESSION_FACTOR;
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
                "{subject} regression beyond {REGRESSION_FACTOR}x; \
                 refresh intentional changes with --write"
            ));
        }
        println!("{} trajectory gate OK", self.smoke.unwrap_or(self.noun));
    }

    /// Checks `text` against the header and the kinds of `fields` —
    /// integers, then informational numbers, then gated ones — and
    /// returns `(key, committed, fresh)` per gated field.
    fn validate_flat(
        &self,
        fields: &[Field],
        text: &str,
    ) -> Result<Vec<(&'static str, f64, f64)>, String> {
        let committed = self.header(text)?;
        let keys = |kind: fn(&Value) -> bool| -> Vec<&str> {
            let of_kind = fields.iter().filter(|(_, value)| kind(value));
            of_kind.map(|&(key, _)| key).collect()
        };
        require(
            &committed,
            &keys(|v| matches!(v, Value::Integer(_))),
            &keys(|v| matches!(v, Value::Informational(_))),
        )?;
        let mut gated = Vec::new();
        for &(key, value) in fields {
            if let Value::Gated(fresh) = value {
                let committed = field(&committed, key)
                    .and_then(JsonValue::as_f64)
                    .ok_or(format!("missing numeric field {key:?}"))?;
                gated.push((key, committed, fresh));
            }
        }
        Ok(gated)
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
