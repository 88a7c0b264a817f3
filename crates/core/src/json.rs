//! A small, dependency-free JSON emitter and parser.
//!
//! The workspace must build and test offline, so instead of `serde` /
//! `serde_json` every structure that wants a JSON form implements a
//! `to_json(&self) -> Json` method by hand and renders it with
//! [`Json::render`] (compact) or [`Json::render_pretty`]. The parser
//! exists for the few places that read JSON back — most importantly the
//! campaign checkpoint files, which must survive a mid-write crash, so
//! [`Json::parse`] reports precise errors and callers can skip a torn
//! trailing line.
//!
//! The supported grammar is exactly RFC 8259 JSON with two deliberate
//! simplifications: numbers are kept as either `i64` or `f64` (whichever
//! round-trips), and object keys preserve insertion order (no sorting,
//! no duplicate detection). Parsing also fails on arrays and objects
//! nested deeper than `MAX_DEPTH` (128), so hostile input (a checkpoint
//! line, a protocol frame) gets an error instead of overflowing the stack.
//!
//! Every record read back from outside (checkpoint lines, protocol
//! frames, progen's `state.json`) reads its fields through one typed
//! reader, the `*_field` methods of [`Json`]. Each fails with a
//! [`FieldError`] naming the key and the problem — missing, wrong type,
//! or out of the target type's range — so a malformed value is refused
//! instead of wrapped, truncated, saturated, defaulted or dropped.

use std::fmt;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// The deepest document the workspace writes (a status frame's metric
/// snapshot) nests 6 levels.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point).
    Int(i64),
    /// A float (non-finite values render as `null`, like serde_json).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Why a field of a JSON object does not read as its type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// The field's key.
    pub key: String,
    /// What is wrong with it.
    pub problem: FieldProblem,
}

/// The ways a field can fail to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldProblem {
    /// The key is absent (or the value read from is not an object).
    Missing,
    /// The value has another JSON type; names the one expected.
    WrongType(&'static str),
    /// An integer outside the target type's range (a negative count,
    /// a `u32` past `u32::MAX`).
    OutOfRange,
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let key = &self.key;
        match self.problem {
            FieldProblem::Missing => write!(f, "field `{key}` is missing"),
            FieldProblem::WrongType(want) => write!(f, "field `{key}` is not {want}"),
            FieldProblem::OutOfRange => write!(f, "field `{key}` is out of range"),
        }
    }
}

impl std::error::Error for FieldError {}

impl From<FieldError> for String {
    fn from(e: FieldError) -> String {
        e.to_string()
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Builds an array of strings.
    pub fn strings<S: AsRef<str>, I: IntoIterator<Item = S>>(items: I) -> Json {
        Json::Array(
            items
                .into_iter()
                .map(|s| Json::Str(s.as_ref().to_string()))
                .collect(),
        )
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64` (floats with integral values qualify).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            _ => None,
        }
    }

    /// The value as a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The keys of an object, in order (none for any other value).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        let fields: &[(String, Json)] = match self {
            Json::Object(fields) => fields,
            _ => &[],
        };
        fields.iter().map(|(k, _)| k.as_str())
    }

    /// The field `key` of this object, of any type; missing when `self`
    /// is not an object.
    pub fn field(&self, key: &str) -> Result<&Json, FieldError> {
        self.get(key)
            .ok_or_else(|| field_error(key, FieldProblem::Missing))
    }

    /// The field `key` as a JSON integer in `T`'s range. A float is not
    /// an integer, even an integral one, and neither is an integer
    /// literal outside `i64` (the parser keeps it as a float); unsigned
    /// types refuse negatives.
    pub fn int_field<T: TryFrom<i64>>(&self, key: &str) -> Result<T, FieldError> {
        int_of(self.field(key)?).map_err(|problem| field_error(key, problem))
    }

    /// The field `key` as an array of integers, each read like
    /// [`int_field`](Json::int_field).
    pub fn ints_field<T: TryFrom<i64>>(&self, key: &str) -> Result<Vec<T>, FieldError> {
        self.array_field(key)?
            .iter()
            .map(int_of)
            .collect::<Result<_, _>>()
            .map_err(|problem| match problem {
                FieldProblem::WrongType(_) => {
                    field_error(key, FieldProblem::WrongType("an array of integers"))
                }
                problem => field_error(key, problem),
            })
    }

    /// The field `key` as a string.
    pub fn str_field(&self, key: &str) -> Result<&str, FieldError> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| field_error(key, FieldProblem::WrongType("a string")))
    }

    /// The field `key` as an array of strings.
    pub fn strings_field(&self, key: &str) -> Result<Vec<String>, FieldError> {
        self.array_field(key)?
            .iter()
            .map(|s| s.as_str().map(str::to_string))
            .collect::<Option<_>>()
            .ok_or_else(|| field_error(key, FieldProblem::WrongType("an array of strings")))
    }

    /// The field `key` as a byte string in [`hex_encode`]'s form.
    pub fn hex_field(&self, key: &str) -> Result<Vec<u8>, FieldError> {
        hex_decode(self.str_field(key)?)
            .map_err(|_| field_error(key, FieldProblem::WrongType("a hex string")))
    }

    /// The field `key` as an array of byte strings in [`hex_encode`]'s
    /// form.
    pub fn hex_list_field(&self, key: &str) -> Result<Vec<Vec<u8>>, FieldError> {
        self.array_field(key)?
            .iter()
            .map(|s| s.as_str().and_then(|s| hex_decode(s).ok()))
            .collect::<Option<_>>()
            .ok_or_else(|| field_error(key, FieldProblem::WrongType("an array of hex strings")))
    }

    /// The field `key` as an array.
    pub fn array_field(&self, key: &str) -> Result<&[Json], FieldError> {
        self.field(key)?
            .as_array()
            .ok_or_else(|| field_error(key, FieldProblem::WrongType("an array")))
    }

    /// The field `key`, which must be an object.
    pub fn object_field(&self, key: &str) -> Result<&Json, FieldError> {
        match self.field(key)? {
            obj @ Json::Object(_) => Ok(obj),
            _ => Err(field_error(key, FieldProblem::WrongType("an object"))),
        }
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders human-readable JSON (two-space indentation).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    let s = format!("{f}");
                    out.push_str(&s);
                    // Rust's `Display` prints integral floats without a
                    // decimal point (and never uses exponent notation);
                    // keep a `.0` so the value re-parses as a float, not
                    // an `Int` — for every magnitude, not just < 1e15.
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Object(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }

    /// Parses one JSON document; trailing whitespace is allowed, trailing
    /// garbage is an error (so torn checkpoint lines are detected).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem,
    /// including nesting deeper than 128 arrays and objects.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

fn int_of<T: TryFrom<i64>>(v: &Json) -> Result<T, FieldProblem> {
    match v {
        Json::Int(i) => T::try_from(*i).map_err(|_| FieldProblem::OutOfRange),
        _ => Err(FieldProblem::WrongType("an integer")),
    }
}

fn field_error(key: &str, problem: FieldProblem) -> FieldError {
    FieldError {
        key: key.to_string(),
        problem,
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    n: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i);
    }
    if n > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\x08' => out.push_str("\\b"),
            '\x0c' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object, failing once more than `MAX_DEPTH`
    /// would be open.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\x08'),
                        b'f' => out.push('\x0c'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 character (input is a &str, so the
                    // encoding is valid by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xc0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>().map(Json::Float).map_err(|_| JsonError {
            offset: start,
            message: "invalid number".to_string(),
        })
    }
}

/// Lower-case hex of `bytes`: how byte strings (inputs, probes, seeds)
/// travel inside JSON documents.
pub fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parses the output of [`hex_encode`] (either case).
///
/// # Errors
///
/// Odd length or a non-hex digit (never a panic, whatever the input).
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("odd-length hex string `{s}`"));
    }
    let nibble = |c: u8| char::from(c).to_digit(16);
    s.as_bytes()
        .chunks(2)
        .map(|p| match (nibble(p[0]), nibble(p[1])) {
            (Some(hi), Some(lo)) => Ok((hi * 16 + lo) as u8),
            _ => Err(format!("bad hex string `{s}`")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrips_and_rejects_garbage() {
        assert_eq!(hex_encode(&[0x00, 0xFF, 0x3A]), "00ff3a");
        assert_eq!(hex_decode("00ff3a").unwrap(), vec![0x00, 0xFF, 0x3A]);
        assert_eq!(hex_decode("00FF3A").unwrap(), vec![0x00, 0xFF, 0x3A]);
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
        assert!(hex_decode("abc").is_err(), "odd length");
        assert!(hex_decode("zz").is_err(), "non-hex digits");
        // A multibyte character: even byte length, but the pairs split
        // it; must be an error, not a slicing panic.
        assert!(hex_decode("a\u{e9}0").is_err(), "multibyte");
        assert!(hex_decode("+f").is_err(), "sign is not a digit");
    }

    #[test]
    fn render_compact_and_pretty() {
        let v = Json::obj(vec![
            ("name", Json::Str("tcpdump".into())),
            ("execs", Json::Int(1000)),
            ("rate", Json::Float(0.5)),
            ("sigs", Json::strings(["a", "b"])),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"tcpdump","execs":1000,"rate":0.5,"sigs":["a","b"],"ok":true,"none":null}"#
        );
        assert!(v.render_pretty().contains("\n  \"name\": \"tcpdump\""));
    }

    #[test]
    fn round_trips() {
        let cases = [
            r#"{"a":[1,2.5,-3],"b":"x\ny\"z\\","c":{},"d":[],"e":null}"#,
            r#"[true,false,null,0,-9223372036854775808,9223372036854775807]"#,
            r#""é☃ snowman""#,
            r#""😀""#,
        ];
        for c in cases {
            let v = Json::parse(c).unwrap();
            let again = Json::parse(&v.render()).unwrap();
            assert_eq!(v, again, "{c}");
        }
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01 é 😀";
        let v = Json::Str(nasty.to_string());
        let parsed = Json::parse(&v.render()).unwrap();
        assert_eq!(parsed.as_str(), Some(nasty));
    }

    #[test]
    fn torn_lines_are_errors() {
        // A checkpoint line cut mid-write must parse as an error, never as
        // a silently truncated value.
        for torn in [
            r#"{"target":"tcp"#,
            r#"{"execs":12"#,
            r#"["a","#,
            r#"{"a":1}x"#,
        ] {
            assert!(Json::parse(torn).is_err(), "{torn}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        // Spawned threads get the default 2 MiB stack, like the threads
        // that read protocol frames: unbounded recursion would abort the
        // whole test process here rather than fail an assertion.
        let deep = std::thread::spawn(|| {
            ["[".repeat(100_000), "{\"a\":".repeat(100_000)].map(|doc| Json::parse(&doc).is_err())
        })
        .join()
        .unwrap();
        assert_eq!(deep, [true, true]);

        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        let err = Json::parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(Json::parse(&objects(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n":3,"f":2.0,"s":"x","b":true,"a":[1]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("f").and_then(Json::as_i64), Some(2));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(2.0));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn field_reader_refuses_what_does_not_fit() {
        let v = Json::parse(
            r#"{"n":3,"neg":-1,"big":4294967296,"f":2.0,"huge":1e300,
                "past":9223372036854775808,"s":"x","ss":["a","b"],"mixed":["a",1],
                "a":[1],"o":{"k":1}}"#,
        )
        .unwrap();
        let problem = |r: Result<(), FieldError>| r.unwrap_err().problem;
        assert_eq!(v.int_field::<u64>("n"), Ok(3));
        assert_eq!(v.int_field::<u8>("n"), Ok(3));
        assert_eq!(v.int_field::<i64>("neg"), Ok(-1));
        for unsigned in [
            v.int_field::<u64>("neg").map(drop),
            v.int_field::<u32>("neg").map(drop),
            v.int_field::<usize>("neg").map(drop),
            v.int_field::<u32>("big").map(drop),
        ] {
            assert_eq!(problem(unsigned), FieldProblem::OutOfRange);
        }
        assert_eq!(v.int_field::<u64>("big"), Ok(1 << 32));
        // An integral float, a float past i64, and an integer literal
        // past i64 (parsed as a float) are not integers.
        for key in ["f", "huge", "past", "s"] {
            let err = v.int_field::<i64>(key).unwrap_err();
            assert_eq!(err.problem, FieldProblem::WrongType("an integer"), "{key}");
            assert_eq!(err.to_string(), format!("field `{key}` is not an integer"));
        }
        assert_eq!(v.str_field("s"), Ok("x"));
        assert_eq!(
            problem(v.str_field("n").map(drop)),
            FieldProblem::WrongType("a string")
        );
        assert_eq!(
            v.strings_field("ss"),
            Ok(vec!["a".to_string(), "b".to_string()])
        );
        assert_eq!(
            problem(v.strings_field("mixed").map(drop)),
            FieldProblem::WrongType("an array of strings")
        );
        assert_eq!(v.array_field("a").map(<[Json]>::len), Ok(1));
        let hex =
            Json::parse(r#"{"h":"00ff","l":["ab",""],"bad":"+f","badl":["ab","zz"]}"#).unwrap();
        assert_eq!(hex.hex_field("h"), Ok(vec![0, 0xff]));
        assert_eq!(hex.hex_list_field("l"), Ok(vec![vec![0xab], vec![]]));
        assert_eq!(
            problem(hex.hex_field("bad").map(drop)),
            FieldProblem::WrongType("a hex string")
        );
        assert_eq!(
            problem(hex.hex_list_field("badl").map(drop)),
            FieldProblem::WrongType("an array of hex strings")
        );
        assert_eq!(v.ints_field::<u8>("a"), Ok(vec![1]));
        assert_eq!(
            problem(v.ints_field::<u8>("mixed").map(drop)),
            FieldProblem::WrongType("an array of integers")
        );
        let bytes = Json::parse(r#"{"m":[1,256]}"#).unwrap();
        assert_eq!(
            problem(bytes.ints_field::<u8>("m").map(drop)),
            FieldProblem::OutOfRange
        );
        assert_eq!(
            problem(v.array_field("o").map(drop)),
            FieldProblem::WrongType("an array")
        );
        assert_eq!(
            v.object_field("o").and_then(|o| o.int_field::<u64>("k")),
            Ok(1)
        );
        assert_eq!(
            v.object_field("o").map(|o| o.keys().collect::<Vec<_>>()),
            Ok(vec!["k"])
        );
        assert_eq!(
            problem(v.object_field("a").map(drop)),
            FieldProblem::WrongType("an object")
        );
        let missing = v.int_field::<u64>("nope").unwrap_err();
        assert_eq!(missing.to_string(), "field `nope` is missing");
        assert_eq!(String::from(missing), "field `nope` is missing");
        assert_eq!(
            Json::Int(1).field("n").unwrap_err().problem,
            FieldProblem::Missing,
            "a non-object has no fields"
        );
        assert_eq!(
            v.int_field::<u64>("big")
                .and_then(|_| v.int_field::<u32>("big")),
            Err(FieldError {
                key: "big".to_string(),
                problem: FieldProblem::OutOfRange
            })
        );
    }

    #[test]
    fn floats_render_reparseable() {
        let f = Json::Float(3.0);
        assert_eq!(f.render(), "3.0");
        assert_eq!(Json::parse("3.0").unwrap(), Json::Float(3.0));
        assert_eq!(Json::Float(f64::NAN).render(), "null");
    }

    #[test]
    fn large_integral_floats_stay_floats() {
        // Regression: integral floats >= 1e15 used to render without a
        // decimal point and re-parse as `Int` (a type change).
        for f in [1e15, 1e16, 9e18, 1e300, -1e16, -0.0] {
            let rendered = Json::Float(f).render();
            let back = Json::parse(&rendered).unwrap();
            assert_eq!(back, Json::Float(f), "{f} rendered as {rendered}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        // Pinned, serde_json-compatible behavior: non-finite values have
        // no JSON representation and are emitted as `null`. This is
        // deliberately type-changing on re-read; metrics producers must
        // not emit NaN/inf (histograms and counters are integer-valued).
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Float(f).render(), "null");
            assert_eq!(Json::parse(&Json::Float(f).render()).unwrap(), Json::Null);
        }
    }

    #[test]
    fn unicode_escapes_parse_and_round_trip() {
        // \u escapes decode to the same value as literal characters, and
        // parse -> render -> parse is a fixed point.
        let cases = [
            ("\\u0041", "A"),
            ("\\u00e9", "\u{e9}"),
            ("\\u2603", "\u{2603}"),
            ("\\ud83d\\ude00", "\u{1f600}"), // surrogate pair
            ("\\u001f", "\u{1f}"),           // control char: re-escaped on render
            ("\\uffff", "\u{ffff}"),         // highest BMP code point
        ];
        for (esc, want) in cases {
            let src = format!("\"{esc}\"");
            let v = Json::parse(&src).unwrap();
            assert_eq!(v.as_str(), Some(want), "{src}");
            let rendered = v.render();
            assert_eq!(Json::parse(&rendered).unwrap(), v, "{src} -> {rendered}");
        }
    }

    #[test]
    fn invalid_surrogates_are_errors() {
        for bad in [
            r#""\ud800""#,       // lone high surrogate
            r#""\ud800x""#,      // high surrogate followed by non-escape
            r#""\ud800\u0041""#, // \u escape follows but is not a low surrogate
            r#""\udc00""#,       // lone low surrogate: from_u32 rejects
            r#""\ud83d\ud83d""#, // high followed by high
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }
}
