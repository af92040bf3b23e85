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
/// control characters as `\u00XX` or their short forms). Each run of
/// bytes that needs no escape goes out with one copy: every byte that
/// does is ASCII, so a run always ends on a character boundary.
pub fn escape_into(out: &mut String, s: &str) {
    out.reserve(s.len());
    let mut run = 0;
    for (at, &byte) in s.as_bytes().iter().enumerate() {
        let short = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0x00..=0x1F => "",
            _ => continue,
        };
        out.push_str(&s[run..at]);
        if short.is_empty() {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(byte >> 4)]));
            out.push(char::from(HEX[usize::from(byte & 0xF)]));
        } else {
            out.push_str(short);
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
}

/// Appends an `f64` as a JSON number (non-finite values become `null`,
/// which JSON cannot represent as numbers).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let from = out.len();
        out.push_str(&v.to_string());
        // `{}` prints integral floats without a point; keep the type
        // obvious to downstream readers.
        if !out[from..].contains(['.', 'e']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// A number's decimal digits, rendered without `fmt`: the integer
/// formatter of the JSON and SAM writers.
#[derive(Debug, Clone, Copy)]
pub struct Decimal {
    digits: [u8; 20],
    start: usize,
}

impl Decimal {
    /// Renders `value`.
    pub fn new(mut value: u64) -> Decimal {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (value % 10) as u8;
            value /= 10;
            if value == 0 {
                return Decimal { digits, start };
            }
        }
    }

    /// The digits, most significant first.
    pub fn as_bytes(&self) -> &[u8] {
        &self.digits[self.start..]
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
        JsonObject::with_capacity(0)
    }

    /// Starts an empty object with room for `bytes` bytes of it.
    pub fn with_capacity(bytes: usize) -> JsonObject {
        let mut buf = String::with_capacity(bytes.max(1));
        buf.push('{');
        JsonObject { buf, first: true }
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
        let digits = Decimal::new(value);
        self.buf
            .extend(digits.as_bytes().iter().map(|&d| char::from(d)));
        self
    }

    /// Adds a float field (`null` if non-finite).
    pub fn f64_field(&mut self, name: &str, value: f64) -> &mut JsonObject {
        self.key(name);
        push_f64(&mut self.buf, value);
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

/// A cursor over the text [`parse_json`] reads. It moves a byte at a
/// time over the ASCII of the syntax and a run at a time over a
/// string's unescaped bytes; whitespace is Unicode's, as
/// [`str::trim_start`] skips it.
struct Scanner<'t> {
    text: &'t str,
    at: usize,
}

impl Scanner<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let byte = self.peek()?;
        self.at += 1;
        Some(byte)
    }

    /// The bytes from here on that satisfy `keep`, consumed.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &str {
        let from = self.at;
        while self.peek().is_some_and(&keep) {
            self.at += 1;
        }
        &self.text[from..self.at]
    }

    fn skip_ws(&mut self) {
        let rest = &self.text[self.at..];
        self.at += rest.len() - rest.trim_start().len();
    }

    fn string(&mut self) -> Option<String> {
        if self.next()? != b'"' {
            return None;
        }
        let mut out = String::new();
        loop {
            let run = self.text.as_bytes()[self.at..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')?;
            out.push_str(&self.text[self.at..self.at + run]);
            self.at += run;
            if self.next()? == b'"' {
                return Some(out);
            }
            match self.next()? {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{08}'),
                b'f' => out.push('\u{0C}'),
                b'u' => {
                    let hex = self.text.get(self.at..self.at + 4)?;
                    self.at += 4;
                    let code = u32::from_str_radix(hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            }
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
fn parse_value(scan: &mut Scanner<'_>, depth: usize) -> Option<JsonValue> {
    scan.skip_ws();
    match scan.peek()? {
        b'{' | b'[' if depth == MAX_DEPTH => None,
        b'"' => Some(JsonValue::Str(scan.string()?)),
        b'{' => {
            scan.next();
            let mut fields = Vec::new();
            scan.skip_ws();
            if scan.peek() == Some(b'}') {
                scan.next();
                return Some(JsonValue::Obj(fields));
            }
            loop {
                scan.skip_ws();
                let key = scan.string()?;
                scan.skip_ws();
                if scan.next()? != b':' {
                    return None;
                }
                let value = parse_value(scan, depth + 1)?;
                fields.push((key, value));
                scan.skip_ws();
                match scan.next()? {
                    b',' => continue,
                    b'}' => return Some(JsonValue::Obj(fields)),
                    _ => return None,
                }
            }
        }
        b'[' => {
            scan.next();
            let mut items = Vec::new();
            scan.skip_ws();
            if scan.peek() == Some(b']') {
                scan.next();
                return Some(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(scan, depth + 1)?);
                scan.skip_ws();
                match scan.next()? {
                    b',' => continue,
                    b']' => return Some(JsonValue::Arr(items)),
                    _ => return None,
                }
            }
        }
        b't' | b'f' | b'n' => match scan.take_while(|b| b.is_ascii_alphabetic()) {
            "true" => Some(JsonValue::Bool(true)),
            "false" => Some(JsonValue::Bool(false)),
            "null" => Some(JsonValue::Null),
            _ => None,
        },
        _ => {
            let num = scan.take_while(|b| b.is_ascii_digit() || b"+-.eE".contains(&b));
            Some(JsonValue::Num(num.parse().ok()?))
        }
    }
}

/// Parses one complete JSON document (object, array, or scalar) with no
/// trailing content. Returns `None` on any syntax error, and on arrays
/// and objects nested more than [`MAX_DEPTH`] deep.
pub fn parse_json(text: &str) -> Option<JsonValue> {
    let mut scan = Scanner {
        text: text.trim(),
        at: 0,
    };
    let value = parse_value(&mut scan, 0)?;
    scan.skip_ws();
    if scan.peek().is_some() {
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

    /// The reader and the escaper before they moved over bytes: one
    /// `char` at a time through a `Peekable<Chars>`.
    mod char_oracle {
        use super::{JsonValue, MAX_DEPTH};
        use std::iter::Peekable;
        use std::str::Chars;

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
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
        }

        fn skip_ws(chars: &mut Peekable<Chars>) {
            while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
                chars.next();
            }
        }

        fn parse_string(chars: &mut Peekable<Chars>) -> Option<String> {
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
                            let hex: String =
                                (0..4).map(|_| chars.next()).collect::<Option<_>>()?;
                            let code = u32::from_str_radix(&hex, 16).ok()?;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    },
                    c => out.push(c),
                }
            }
        }

        fn parse_value(chars: &mut Peekable<Chars>, depth: usize) -> Option<JsonValue> {
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

        pub fn parse_json(text: &str) -> Option<JsonValue> {
            let mut chars = text.trim().chars().peekable();
            let value = parse_value(&mut chars, 0)?;
            skip_ws(&mut chars);
            if chars.next().is_some() {
                return None;
            }
            Some(value)
        }
    }

    /// Documents of every shape the workspace reads, and the characters
    /// that stress a byte-level reader: multi-byte text next to quotes
    /// and escapes, `\u` escapes cut or wrong, and the whitespace that
    /// is Unicode's but not ASCII's.
    fn corpus() -> Vec<String> {
        let mut docs: Vec<String> = [
            r#"{"type":"response","id":"job7","status":"OK","seq":3,"reads":4,"latency_s":0.25,"sam":"@HD\tVN:1.6\nr1\t0\tchr\t1\t255\t100M\t*\t0\t0\tACGT\t*\tNM:i:0\n"}"#,
            r#"{"id":"j","tenant":"t∆","reads":[{"id":"r0","seq":"ACGT"},{"id":"r\u00e91","seq":"acgt"}],"delta":3,"deadline_s":1e-3,"priority":2}"#,
            r#"{"traceEvents":[{"name":"b","ph":"X","ts":1.5,"dur":2,"pid":0,"tid":1,"args":{"items":4,"ok":true,"x":null}}]}"#,
            r#" [ 1 , -2.5E2 , "a\"b\\c\/d" , [ ] , { } , false ] "#,
            "{\"k\":\"\\u0041\\u00zz\"}",
            "{\"k\":\"\\u00\"}",
            "{\"k\":\"\\u+041\"}",
            "{\"k\":\"\\u∆∆\"}",
            "{\"k\":\"\\q\"}",
            "{\"k\":\"\\∆\"}",
            "\u{a0}{\u{2028}\"a\"\u{0B}:\u{3000}1\u{85}}\u{a0}",
            "{\"a\"∆:1}",
            "{\"a\":1∆}",
            "[1,∆]",
            "∆",
            "{\"🧬\":\"🧬\\n🧬\"}",
            "\"\t raw control \u{1} in a string\"",
            "tru",
            "nul",
            "1.2.3",
            "+",
        ]
        .iter()
        .map(|d| d.to_string())
        .collect();
        let nested = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        docs.push(nested.clone());
        docs.push(format!("[{nested}]"));
        docs
    }

    #[test]
    fn reader_equals_the_char_by_char_reader() {
        let mut checked = 0;
        for doc in corpus() {
            let chars: Vec<char> = doc.chars().collect();
            // The document, every prefix of it, and each character
            // replaced by one that changes the syntax.
            let mut variants: Vec<String> = (0..=chars.len())
                .map(|end| chars[..end].iter().collect())
                .collect();
            for at in 0..chars.len() {
                for with in [
                    '"', '\\', ':', ',', ']', '}', ' ', '\u{a0}', 'é', '🧬', 'u', '0',
                ] {
                    let mut c = chars.clone();
                    c[at] = with;
                    variants.push(c.into_iter().collect());
                }
            }
            for v in variants {
                assert_eq!(parse_json(&v), char_oracle::parse_json(&v), "{v:?}");
                checked += 1;
            }
        }
        assert!(checked > 10_000, "{checked} variants");
    }

    #[test]
    fn escape_equals_the_char_by_char_escape() {
        let mut text: String = (0u8..0x80).map(char::from).collect();
        text.push_str("é∆🧬\u{7f}\u{a0}\u{2028}");
        let chars: Vec<char> = text.chars().collect();
        for start in 0..chars.len() {
            for len in [0, 1, 2, 3, 17] {
                let s: String = chars[start..(start + len).min(chars.len())]
                    .iter()
                    .collect();
                let (mut got, mut want) = ("x".to_string(), "x".to_string());
                escape_into(&mut got, &s);
                char_oracle::escape_into(&mut want, &s);
                assert_eq!(got, want, "{s:?}");
            }
        }
    }

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
