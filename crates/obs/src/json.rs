//! A minimal in-tree JSON value: writer for profile / benchmark output and
//! a recursive-descent parser for the `json_check` smoke-test binary and
//! the `wdpt-serve` wire protocol. No external dependencies; covers exactly
//! the JSON this workspace emits (objects, arrays, strings, finite numbers,
//! booleans, null).
//!
//! [`write_json_line`] / [`read_json_line`] are the one line = one document
//! framing shared by every JSON surface in the workspace: the `--json` mode
//! of the bench binaries, `json_check`, and the query-service protocol.
//!
//! There is one definition of how a string is written — which bytes are
//! escaped and how, everything else copied through in runs — used by
//! [`Json`]'s `Display` and, as [`push_escaped`], by writers that append to
//! a byte buffer without building a [`Json`] (the server's row lines).

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufRead, Write};

/// A JSON value. Object keys are kept in a `BTreeMap` so output is
/// deterministic regardless of insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value (exact for magnitudes below 2⁵³; beyond that the
    /// nearest representable double, which is fine for event tallies).
    pub fn int(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// A float value; non-finite maps to `null` (JSON has no NaN/Inf).
    pub fn num(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    }

    /// An object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string content if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric content if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parses one JSON document, requiring it to span the whole input.
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// The wire's string syntax, defined once: `s` as a quoted JSON string,
/// handed to `emit` piece by piece. Only `"`, `\` and the bytes below 0x20
/// are escaped (`\n`, `\r`, `\t` by name, the rest as `\u00xx`); everything
/// between two of them — non-ASCII included, which is written raw — goes out
/// as one run. All three kinds are single ASCII bytes, so a run always ends
/// on a character boundary.
fn escape_with<E>(s: &str, mut emit: impl FnMut(&str) -> Result<(), E>) -> Result<(), E> {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    emit("\"")?;
    let mut run_start = 0;
    for (at, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        emit(&s[run_start..at])?;
        run_start = at + 1;
        match b {
            b'"' => emit("\\\"")?,
            b'\\' => emit("\\\\")?,
            b'\n' => emit("\\n")?,
            b'\r' => emit("\\r")?,
            b'\t' => emit("\\t")?,
            _ => {
                let code = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(b >> 4)],
                    HEX[usize::from(b & 0xf)],
                ];
                emit(std::str::from_utf8(&code).expect("six ASCII bytes"))?;
            }
        }
    }
    emit(&s[run_start..])?;
    emit("\"")
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    escape_with(s, |piece| f.write_str(piece))
}

/// Appends `s` to `out` as a quoted JSON string — byte for byte what
/// [`Json::Str`] displays as, for writers that build a response line without
/// building a [`Json`] first.
pub fn push_escaped(out: &mut Vec<u8>, s: &str) {
    let done: Result<(), std::convert::Infallible> = escape_with(s, |piece| {
        out.extend_from_slice(piece.as_bytes());
        Ok(())
    });
    let Ok(()) = done;
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // Rust's f64 Display is the shortest representation that
            // round-trips, and integral values print without a dot —
            // both are valid JSON numbers.
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `value` as exactly one newline-terminated line. The writer never
/// emits a raw newline inside a document (strings escape `\n`), so the
/// framing is unambiguous.
pub fn write_json_line<W: Write>(w: &mut W, value: &Json) -> io::Result<()> {
    writeln!(w, "{value}")
}

/// Reads the next newline-delimited JSON document from `r`, skipping blank
/// lines. `Ok(None)` at end of input; a line that fails to parse is an
/// [`io::ErrorKind::InvalidData`] error carrying the parser's message.
pub fn read_json_line<R: BufRead>(r: &mut R) -> io::Result<Option<Json>> {
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        return Json::parse(trimmed)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                None => return Err("unterminated string".to_string()),
                Some(_) => unreachable!("scan loop stops only on quote or backslash"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_canonical_output() {
        let v = Json::obj([
            ("b", Json::int(3)),
            (
                "a",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::num(1.5)]),
            ),
            ("s", Json::str("x\"y\n")),
        ]);
        assert_eq!(v.to_string(), r#"{"a":[null,true,1.5],"b":3,"s":"x\"y\n"}"#);
    }

    #[test]
    fn parses_what_it_writes() {
        let v = Json::obj([
            ("label", Json::str("eval (tw ≤ 2)")),
            (
                "xs",
                Json::Arr(vec![Json::int(1), Json::int(2), Json::int(4)]),
            ),
            ("secs", Json::Arr(vec![Json::num(0.25), Json::num(1e-9)])),
            ("flag", Json::Bool(false)),
            ("none", Json::Null),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"k\" : [ 1 , -2.5e1 , \"a\\u0041\\tb\" ] } ").unwrap();
        let arr = v.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].as_num(), Some(-25.0));
        assert_eq!(arr[2].as_str(), Some("aA\tb"));
    }

    #[test]
    fn line_framing_round_trips_escapes_and_non_ascii() {
        // Strings with every escape class the writer produces, plus
        // non-ASCII (both 2-byte and 4-byte UTF-8) which is written raw.
        let docs = vec![
            Json::obj([
                (
                    "query",
                    Json::str("SELECT ?x WHERE { (?x, \"a\\b\", \"line\nbreak\") }"),
                ),
                ("label", Json::str("naïve τ ≤ 2 — δείγμα 🎶")),
                ("tab", Json::str("a\tb\rc\u{1}d")),
            ]),
            Json::obj([("status", Json::str("ok")), ("answers", Json::int(3))]),
        ];
        let mut buf = Vec::new();
        for d in &docs {
            write_json_line(&mut buf, d).unwrap();
        }
        // Framing: exactly one '\n' per document, none embedded.
        assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), docs.len());
        let mut r = io::BufReader::new(&buf[..]);
        for d in &docs {
            assert_eq!(read_json_line(&mut r).unwrap().as_ref(), Some(d));
        }
        assert_eq!(read_json_line(&mut r).unwrap(), None);
    }

    /// The escaper as it was before it copied runs: one `char` at a time.
    /// Kept as the reference the run-copying one is compared with.
    fn escaped_charwise(s: &str) -> String {
        use std::fmt::Write;
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn run_copying_escaper_matches_the_charwise_reference() {
        // Every char below U+0080 (U+007F among them), a line separator JSON
        // leaves alone, and a 4-byte scalar.
        let mut alphabet: Vec<char> = (0u8..0x80).map(char::from).collect();
        alphabet.extend(['\u{2028}', '\u{1F3B6}']);
        let mut cases: Vec<String> = alphabet.iter().map(char::to_string).collect();
        cases.push(String::new());
        // 1000 LCG strings of 0–23 chars mixing all of them.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        for _ in 0..1000 {
            let len = next(24);
            cases.push((0..len).map(|_| alphabet[next(alphabet.len())]).collect());
        }
        for s in &cases {
            let want = escaped_charwise(s);
            let shown = Json::str(s.as_str()).to_string();
            assert_eq!(shown, want, "Display of {s:?}");
            let mut pushed = b"kept".to_vec();
            push_escaped(&mut pushed, s);
            assert_eq!(pushed, [b"kept", want.as_bytes()].concat(), "{s:?}");
            assert_eq!(Json::parse(&shown), Ok(Json::str(s.as_str())), "{s:?}");
        }
    }

    #[test]
    fn read_json_line_skips_blanks_and_flags_garbage() {
        let text = "\n  \n{\"a\":1}\nnot json\n";
        let mut r = io::BufReader::new(text.as_bytes());
        assert_eq!(
            read_json_line(&mut r).unwrap(),
            Some(Json::obj([("a", Json::int(1))]))
        );
        let err = read_json_line(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }
}
