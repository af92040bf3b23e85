//! A hand-rolled JSON subset: enough to write telemetry as JSON-lines
//! and to read those lines back for pretty-printing.
//!
//! The build environment has no registry access, so serde is off the
//! table. Telemetry needs *flat* objects of strings and numbers — one
//! object per line — which keeps the writer small and auditable. The
//! scanner additionally understands nested objects and arrays, because
//! Chrome-tracing files (see [`crate::trace`]) carry an `args` object
//! inside every event.

/// Appends `s` to `out` with JSON string escaping (quotes, backslash,
/// control characters as `\u00XX` or their short forms).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Formats an `f64` as a JSON number (non-finite values become `null`,
/// which JSON cannot represent as numbers).
pub fn format_f64(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        // `{}` prints integral floats without a point; keep the type
        // obvious to downstream readers.
        if !s.contains('.') && !s.contains('e') && !s.contains("inf") {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

/// An incremental writer for one flat JSON object.
///
/// # Example
///
/// ```
/// use repute_obs::json::JsonObject;
///
/// let mut obj = JsonObject::new();
/// obj.str_field("type", "event");
/// obj.u64_field("items", 42);
/// obj.f64_field("seconds", 0.5);
/// assert_eq!(obj.finish(), r#"{"type":"event","items":42,"seconds":0.5}"#);
/// ```
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl Default for JsonObject {
    fn default() -> JsonObject {
        JsonObject::new()
    }
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> JsonObject {
        JsonObject {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, name);
        self.buf.push_str("\":");
    }

    /// Adds a string field.
    pub fn str_field(&mut self, name: &str, value: &str) -> &mut JsonObject {
        self.key(name);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64_field(&mut self, name: &str, value: u64) -> &mut JsonObject {
        self.key(name);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Adds a float field (`null` if non-finite).
    pub fn f64_field(&mut self, name: &str, value: f64) -> &mut JsonObject {
        self.key(name);
        self.buf.push_str(&format_f64(value));
        self
    }

    /// Adds a boolean field.
    pub fn bool_field(&mut self, name: &str, value: bool) -> &mut JsonObject {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a pre-serialized JSON value verbatim — the hook nested
    /// objects and arrays are written through (the caller is responsible
    /// for `raw` being valid JSON).
    pub fn raw_field(&mut self, name: &str, raw: &str) -> &mut JsonObject {
        self.key(name);
        self.buf.push_str(raw);
        self
    }

    /// Closes the object and returns it.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A value scanned back out of a telemetry line or a trace file.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also produced for non-finite floats on the write side).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array of values.
    Arr(Vec<JsonValue>),
    /// An object, keys in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's fields, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// `true` for the scalar shapes the flat telemetry writer produces.
    fn is_scalar(&self) -> bool {
        !matches!(self, JsonValue::Arr(_) | JsonValue::Obj(_))
    }
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars>) {
    while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{08}'),
                'f' => out.push('\u{0C}'),
                'u' => {
                    let hex: String = (0..4).map(|_| chars.next()).collect::<Option<_>>()?;
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

/// Deepest nesting of arrays and objects [`parse_json`] accepts. The
/// parser recurses once per level and its input comes from sockets and
/// files, so without a cap a line of `[`s overflows the stack — an abort,
/// not an error. The deepest document this workspace writes is a Chrome
/// trace, at depth 4.
pub const MAX_DEPTH: usize = 64;

/// Parses one value; `depth` is how many arrays and objects enclose it.
fn parse_value(
    chars: &mut std::iter::Peekable<std::str::Chars>,
    depth: usize,
) -> Option<JsonValue> {
    skip_ws(chars);
    match chars.peek()? {
        '{' | '[' if depth == MAX_DEPTH => None,
        '"' => Some(JsonValue::Str(parse_string(chars)?)),
        '{' => {
            chars.next();
            let mut fields = Vec::new();
            skip_ws(chars);
            if chars.peek() == Some(&'}') {
                chars.next();
                return Some(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(chars);
                let key = parse_string(chars)?;
                skip_ws(chars);
                if chars.next()? != ':' {
                    return None;
                }
                let value = parse_value(chars, depth + 1)?;
                fields.push((key, value));
                skip_ws(chars);
                match chars.next()? {
                    ',' => continue,
                    '}' => return Some(JsonValue::Obj(fields)),
                    _ => return None,
                }
            }
        }
        '[' => {
            chars.next();
            let mut items = Vec::new();
            skip_ws(chars);
            if chars.peek() == Some(&']') {
                chars.next();
                return Some(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(chars, depth + 1)?);
                skip_ws(chars);
                match chars.next()? {
                    ',' => continue,
                    ']' => return Some(JsonValue::Arr(items)),
                    _ => return None,
                }
            }
        }
        't' | 'f' | 'n' => {
            let word: String =
                std::iter::from_fn(|| chars.next_if(|c| c.is_ascii_alphabetic())).collect();
            match word.as_str() {
                "true" => Some(JsonValue::Bool(true)),
                "false" => Some(JsonValue::Bool(false)),
                "null" => Some(JsonValue::Null),
                _ => None,
            }
        }
        _ => {
            let num: String = std::iter::from_fn(|| {
                chars.next_if(|c| c.is_ascii_digit() || "+-.eE".contains(*c))
            })
            .collect();
            Some(JsonValue::Num(num.parse().ok()?))
        }
    }
}

/// Parses one complete JSON document (object, array, or scalar) with no
/// trailing content. Returns `None` on any syntax error, and on arrays
/// and objects nested more than [`MAX_DEPTH`] deep.
pub fn parse_json(text: &str) -> Option<JsonValue> {
    let mut chars = text.trim().chars().peekable();
    let value = parse_value(&mut chars, 0)?;
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return None;
    }
    Some(value)
}

/// Parses one flat JSON object (scalar values only — no nesting, no
/// arrays) into key/value pairs in source order. Returns `None` on any
/// syntax the telemetry writer cannot produce.
pub fn parse_flat_object(line: &str) -> Option<Vec<(String, JsonValue)>> {
    match parse_json(line)? {
        JsonValue::Obj(fields) if fields.iter().all(|(_, v)| v.is_scalar()) => Some(fields),
        _ => None,
    }
}

/// Looks up `key` in parsed fields.
pub fn field<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote \" slash \\ newline \n tab \t bell \u{07} unicode ∆";
        let mut obj = JsonObject::new();
        obj.str_field("s", nasty);
        let line = obj.finish();
        assert!(line.contains("\\\""));
        assert!(line.contains("\\\\"));
        assert!(line.contains("\\n"));
        assert!(line.contains("\\u0007"));
        let parsed = parse_flat_object(&line).expect("round trip parses");
        assert_eq!(field(&parsed, "s").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn writes_all_scalar_shapes() {
        let mut obj = JsonObject::new();
        obj.str_field("a", "x")
            .u64_field("b", 3)
            .f64_field("c", 1.5)
            .f64_field("d", f64::NAN)
            .bool_field("e", true)
            .f64_field("f", 2.0);
        let line = obj.finish();
        assert_eq!(line, r#"{"a":"x","b":3,"c":1.5,"d":null,"e":true,"f":2.0}"#);
        let parsed = parse_flat_object(&line).unwrap();
        assert_eq!(field(&parsed, "b").unwrap().as_u64(), Some(3));
        assert_eq!(field(&parsed, "c").unwrap().as_f64(), Some(1.5));
        assert_eq!(field(&parsed, "d"), Some(&JsonValue::Null));
        assert_eq!(field(&parsed, "e"), Some(&JsonValue::Bool(true)));
        assert_eq!(field(&parsed, "f").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "nonsense",
            r#"{"a" 1}"#,
            r#"{"a":1} trailing"#,
            r#"{"a":}"#,
            r#"{"a":"unterminated}"#,
        ] {
            assert!(parse_flat_object(bad).is_none(), "accepted {bad:?}");
        }
        assert_eq!(parse_flat_object("{}"), Some(vec![]));
        assert_eq!(parse_flat_object("  { }  "), Some(vec![]));
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), (r#"{"a":"#, "}"), (r#"[{"a":"#, "}]")] {
            let per_unit = open.matches(['[', '{']).count();
            let at_cap = nest(open, close, MAX_DEPTH / per_unit);
            assert!(parse_json(&at_cap).is_some(), "{open} at the cap");
            let over = format!("[{at_cap}]");
            assert!(parse_json(&over).is_none(), "{open} one past the cap");
        }
        // What the cap is for: no recursion, so no stack to overflow.
        assert!(parse_json(&"[".repeat(1_000_000)).is_none());
        assert!(parse_json(&r#"{"a":"#.repeat(1_000_000)).is_none());
    }

    #[test]
    fn scientific_notation_numbers_parse() {
        let parsed = parse_flat_object(r#"{"x":1e-3,"y":-2.5E2}"#).unwrap();
        assert_eq!(field(&parsed, "x").unwrap().as_f64(), Some(0.001));
        assert_eq!(field(&parsed, "y").unwrap().as_f64(), Some(-250.0));
    }
}
