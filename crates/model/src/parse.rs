//! The two text grammars: a tiny format for atoms, databases and
//! mappings, and N-Triples lines.
//!
//! The facts grammar (whitespace-insensitive):
//!
//! ```text
//! atoms   := atom ((',')? atom)*
//! atom    := ident '(' term (',' term)* ')'   |   ident '(' ')'
//! term    := '?' ident            // variable
//!          | ident                // constant (bare)
//!          | '"' (char|esc)* '"'  // constant (quoted, may contain spaces)
//! esc     := '\t' | '\b' | '\n' | '\r' | '\f' | '\"' | '\'' | '\\'
//!          | '\u' hex{4} | '\U' hex{8}
//! ident   := [A-Za-z0-9_.'-]+
//! ```
//!
//! Examples: `edge(?x, ?y)`, `published(?x, "after_2010")`,
//! `c(1, 1) c(2, 2) c(3, 3)`.
//!
//! This format exists so that tests, examples, and generators can state
//! queries and databases at the same granularity the paper does. It is the
//! one facts grammar: the bulk loader in `wdpt-store` reads facts files
//! through [`parse_ground_atoms`], which parses ground atoms to strings on
//! worker threads without an interner, and [`parse_database`] interns the
//! same parse.
//!
//! [`parse_nt_line`] is the one N-Triples line grammar, read by the same
//! cursor: one triple `<s> <p> <o> .` per line, each a fact of
//! [`TRIPLE_PRED`]. It is lenient where the W3C grammar is strict:
//!
//! * bare (unquoted, unbracketed) tokens are terms, as the workspace's
//!   generators write them;
//! * a literal's datatype (`^^<…>`) or language (`@xx`) suffix is read
//!   past and dropped, and the trailing `.` is optional;
//! * `#` comment lines and blank lines are no triple, and the line may
//!   carry its `\n` / `\r\n` terminator.
//!
//! Both grammars decode exactly the escapes W3C N-Triples defines, through
//! one decoder: `esc` above in quoted constants and literals, and only
//! `\uXXXX` / `\UXXXXXXXX` in IRIs. Any other escape is an error.

use crate::atom::Atom;
use crate::database::Database;
use crate::interner::Interner;
use crate::mapping::Mapping;
use crate::term::Term;
use std::borrow::Cow;
use std::fmt;

/// Error produced by the parser, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Decodes the backslash escapes of `raw` — the text between a quoted
/// constant's, a literal's or an IRI's delimiters, escapes intact: W3C
/// N-Triples' `\t \b \n \r \f \" \' \\`, `\uXXXX` and `\UXXXXXXXX`,
/// or with `iri` the last two alone. Escape-free input borrows instead of
/// allocating. Error offsets are byte positions relative to `raw`.
fn unescape(raw: &str, iri: bool) -> Result<Cow<'_, str>, ParseError> {
    if !raw.contains('\\') {
        return Ok(Cow::Borrowed(raw));
    }
    let err = |at: usize, message: String| ParseError { at, message };
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.char_indices();
    while let Some((at, c)) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        let Some((_, esc)) = chars.next() else {
            return Err(err(at, "dangling escape at end of string".into()));
        };
        let decoded = match esc {
            'u' | 'U' => {
                let digits = if esc == 'u' { 4 } else { 8 };
                let mut code = 0u32;
                for _ in 0..digits {
                    let d = chars
                        .next()
                        .and_then(|(_, h)| h.to_digit(16))
                        .ok_or_else(|| {
                            err(at, format!("\\{esc} escape needs {digits} hex digits"))
                        })?;
                    code = code
                        .checked_mul(16)
                        .and_then(|c| c.checked_add(d))
                        .ok_or_else(|| err(at, format!("\\{esc} escape out of range")))?;
                }
                char::from_u32(code)
                    .ok_or_else(|| err(at, format!("\\{esc} escape is not a scalar value")))?
            }
            _ if iri => return Err(err(at, format!("unknown IRI escape '\\{esc}'"))),
            't' => '\t',
            'b' => '\u{8}',
            'n' => '\n',
            'r' => '\r',
            'f' => '\u{c}',
            '"' => '"',
            '\'' => '\'',
            '\\' => '\\',
            other => return Err(err(at, format!("unknown escape '\\{other}'"))),
        };
        out.push(decoded);
    }
    Ok(Cow::Owned(out))
}

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor { src, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.src.len() - trimmed.len();
    }

    fn eof(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.src.len()
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.rest().chars().next()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn expect(&mut self, c: char) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected '{c}'")))
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let is_ident = |c: char| c.is_alphanumeric() || "_.'-".contains(c);
        while self.rest().chars().next().is_some_and(is_ident) {
            self.bump();
        }
        if self.pos == start {
            Err(self.error("expected identifier"))
        } else {
            Ok(&self.src[start..self.pos])
        }
    }

    /// A `"`-delimited string, decoded; the cursor ends past its closing
    /// quote.
    fn quoted(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect('"')?;
        let start = self.pos;
        let bytes = self.src.as_bytes();
        let mut p = start;
        // A backslash takes the byte after it along: `\"` does not close
        // the string. (A UTF-8 continuation byte is never `"` or `\`.)
        while p < bytes.len() {
            match bytes[p] {
                b'\\' => p += 2,
                b'"' => {
                    self.pos = p + 1;
                    return self.decoded(start, p, false);
                }
                _ => p += 1,
            }
        }
        self.pos = bytes.len();
        Err(self.error("unterminated string literal"))
    }

    /// `src[start..end]` with its escapes decoded, error offsets into
    /// `src`.
    fn decoded(&self, start: usize, end: usize, iri: bool) -> Result<Cow<'a, str>, ParseError> {
        unescape(&self.src[start..end], iri).map_err(|e| ParseError {
            at: start + e.at,
            message: e.message,
        })
    }

    /// One N-Triples term: an `<IRI>`, a `"literal"` (a datatype or
    /// language suffix read past and dropped) or a bare token, which
    /// whitespace ends.
    fn nt_term(&mut self) -> Result<Cow<'a, str>, ParseError> {
        match self.peek() {
            Some('<') => {
                self.bump();
                let start = self.pos;
                let Some(len) = self.rest().find('>') else {
                    return Err(self.error("unterminated IRI"));
                };
                self.pos += len + 1;
                self.decoded(start, start + len, true)
            }
            Some('"') => {
                let literal = self.quoted()?;
                let rest = self.rest();
                let suffix = if let Some(tail) = rest.strip_prefix("^^") {
                    match tail.strip_prefix('<') {
                        Some(iri) => iri.find('>').map_or(rest.len(), |end| end + 4),
                        None => 2,
                    }
                } else if rest.starts_with('@') {
                    rest.find(char::is_whitespace).unwrap_or(rest.len())
                } else {
                    0
                };
                self.pos += suffix;
                Ok(literal)
            }
            Some(_) => {
                let start = self.pos;
                let rest = self.rest();
                self.pos += rest.find(char::is_whitespace).unwrap_or(rest.len());
                Ok(Cow::Borrowed(&self.src[start..self.pos]))
            }
            None => Err(self.error("expected a term, found end of line")),
        }
    }

    /// A constant, bare or quoted, decoded. A `?variable` is an error at
    /// its `?`.
    fn constant(&mut self) -> Result<Cow<'a, str>, ParseError> {
        match self.peek() {
            Some('?') => Err(self.error("expected a ground term, found a variable")),
            Some('"') => self.quoted(),
            Some(_) => Ok(Cow::Borrowed(self.ident()?)),
            None => Err(self.error("expected term")),
        }
    }

    fn term(&mut self, interner: &mut Interner) -> Result<Term, ParseError> {
        if self.peek() == Some('?') {
            self.bump();
            return Ok(Term::Var(interner.var(self.ident()?)));
        }
        Ok(Term::Const(interner.constant(&self.constant()?)))
    }

    /// A parenthesized argument list, each argument read by `arg`.
    fn args<T>(
        &mut self,
        mut arg: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        self.expect('(')?;
        let mut args = Vec::new();
        if self.peek() != Some(')') {
            loop {
                args.push(arg(self)?);
                match self.peek() {
                    Some(',') => {
                        self.bump();
                    }
                    Some(')') => break,
                    _ => return Err(self.error("expected ',' or ')'")),
                }
            }
        }
        self.expect(')')?;
        Ok(args)
    }

    fn atom(&mut self, interner: &mut Interner) -> Result<Atom, ParseError> {
        let pred = interner.pred(self.ident()?);
        let args = self.args(|c| c.term(interner))?;
        Ok(Atom::new(pred, args))
    }

    /// The string-level entry point: a ground atom's predicate name and
    /// decoded arguments, interning nothing.
    fn ground_atom(&mut self) -> Result<GroundAtom<'a>, ParseError> {
        let pred = self.ident()?;
        Ok((pred, self.args(Cursor::constant)?))
    }

    /// Items read by `item` up to the end of input, each optionally
    /// followed by a comma.
    fn sequence<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        let mut items = Vec::new();
        while !self.eof() {
            items.push(item(self)?);
            if self.peek() == Some(',') {
                self.bump();
            }
        }
        Ok(items)
    }
}

/// Parses a single atom like `edge(?x, a)`.
pub fn parse_atom(interner: &mut Interner, src: &str) -> Result<Atom, ParseError> {
    let mut c = Cursor::new(src);
    let atom = c.atom(interner)?;
    if !c.eof() {
        return Err(c.error("trailing input after atom"));
    }
    Ok(atom)
}

/// Parses a whitespace/comma-separated sequence of atoms.
pub fn parse_atoms(interner: &mut Interner, src: &str) -> Result<Vec<Atom>, ParseError> {
    Cursor::new(src).sequence(|c| c.atom(interner))
}

/// A ground atom as written: its predicate name and its decoded argument
/// strings.
pub type GroundAtom<'a> = (&'a str, Vec<Cow<'a, str>>);

/// Parses a whitespace/comma-separated sequence of *ground* atoms without
/// interning anything. A variable is an error at its `?`; error offsets are
/// bytes into `src`.
pub fn parse_ground_atoms(src: &str) -> Result<Vec<GroundAtom<'_>>, ParseError> {
    Cursor::new(src).sequence(Cursor::ground_atom)
}

/// Parses a sequence of *ground* atoms into a [`Database`].
pub fn parse_database(interner: &mut Interner, src: &str) -> Result<Database, ParseError> {
    let mut db = Database::new();
    for (pred, args) in parse_ground_atoms(src)? {
        let pred = interner.pred(pred);
        let tuple = args.iter().map(|a| interner.constant(a)).collect();
        db.insert(pred, tuple);
    }
    Ok(db)
}

/// The predicate every N-Triples line is a fact of: `triple(s, p, o)`.
pub const TRIPLE_PRED: &str = "triple";

/// An N-Triples line's subject, predicate and object, decoded.
pub type Triple<'a> = (Cow<'a, str>, Cow<'a, str>, Cow<'a, str>);

/// Parses one N-Triples line. `Ok(None)` for blank and comment lines; the
/// line may carry its `\n` / `\r\n` terminator. Error offsets are bytes
/// into `line`.
pub fn parse_nt_line(line: &str) -> Result<Option<Triple<'_>>, ParseError> {
    let line = line.trim_end();
    let data = line.trim_start();
    if data.is_empty() || data.starts_with('#') {
        return Ok(None);
    }
    let mut c = Cursor::new(line);
    let (s, p, o) = (c.nt_term()?, c.nt_term()?, c.nt_term()?);
    // Anything after the object must be the statement terminator.
    let rest = c.rest().trim();
    if !rest.is_empty() && rest != "." {
        return Err(c.error(format!("trailing content {rest:?} after object")));
    }
    // A bare-token "object" that is just the terminator means a 2-term line.
    if o == "." {
        return Err(c.error("line has fewer than three terms"));
    }
    Ok(Some((s, p, o)))
}

/// Parses a mapping like `?x -> Swim, ?y -> Caribou` (also accepts `↦` and
/// `=` as the arrow). The empty string yields the empty mapping.
pub fn parse_mapping(interner: &mut Interner, src: &str) -> Result<Mapping, ParseError> {
    let mut m = Mapping::empty();
    Cursor::new(src).sequence(|c| {
        c.expect('?')?;
        let v = interner.var(c.ident()?);
        // Accept "->", "↦", or "=".
        match c.peek() {
            Some('-') => {
                c.bump();
                c.expect('>')?;
            }
            Some('↦') | Some('=') => {
                c.bump();
            }
            _ => return Err(c.error("expected '->', '↦', or '='")),
        }
        let cst = interner.constant(&c.constant()?);
        if !m.insert(v, cst) {
            return Err(c.error("conflicting binding in mapping"));
        }
        Ok(())
    })?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_atom() {
        let mut i = Interner::new();
        let a = parse_atom(&mut i, "edge(?x, ?y)").unwrap();
        assert_eq!(a.arity(), 2);
        assert_eq!(a.var_set().len(), 2);
        assert_eq!(a.display(&i), "edge(?x, ?y)");
    }

    #[test]
    fn parses_quoted_constants() {
        let mut i = Interner::new();
        let a = parse_atom(&mut i, r#"published(?x, "after 2010")"#).unwrap();
        assert_eq!(a.display(&i), "published(?x, after 2010)");
        assert_eq!(a.var_set().len(), 1);
    }

    #[test]
    fn quoted_constants_decode_escapes() {
        let mut i = Interner::new();
        let a = parse_atom(&mut i, r#"p("say \"hi\" (now))")"#).unwrap();
        let c = i.constant("say \"hi\" (now))");
        assert_eq!(a.args[0], Term::Const(c));
        // Escape-free quoted constants are unchanged.
        let b = parse_atom(&mut i, r#"p("plain text")"#).unwrap();
        assert_eq!(b.args[0], Term::Const(i.constant("plain text")));
    }

    #[test]
    fn bad_escapes_are_errors_with_offsets() {
        let mut i = Interner::new();
        for src in [
            r#"p("\q")"#,
            r#"p("\u12")"#,
            r#"p("\UFFFFFFFF")"#,
            "p(\"x\\",
        ] {
            assert!(parse_atom(&mut i, src).is_err(), "accepted {src:?}");
        }
        let err = parse_atom(&mut i, r#"p("ab\q")"#).unwrap_err();
        assert!(err.message.contains("escape"), "{err}");
        assert_eq!(err.at, 5, "offset should point at the backslash");
    }

    #[test]
    fn unescape_borrows_when_escape_free() {
        assert!(matches!(
            unescape("no escapes here", false).unwrap(),
            std::borrow::Cow::Borrowed(_)
        ));
        assert_eq!(unescape(r#"a\\bA"#, false).unwrap(), "a\\bA");
    }

    #[test]
    fn ground_atoms_parse_to_strings_and_reject_variables_at_their_mark() {
        let atoms = parse_ground_atoms("e(a,\u{00A0}\"q\\\"x\")\u{3000}p(), n(\"par(\")").unwrap();
        assert_eq!(
            atoms,
            vec![
                ("e", vec![Cow::from("a"), Cow::from("q\"x")]),
                ("p", vec![]),
                ("n", vec![Cow::from("par(")]),
            ]
        );
        let err = parse_ground_atoms("e(a, b) e(a, ?x)").unwrap_err();
        assert_eq!(err.at, 13, "offset should point at the '?'");
        assert!(err.message.contains("ground"), "{err}");
    }

    #[test]
    fn parses_nullary_atom() {
        let mut i = Interner::new();
        let a = parse_atom(&mut i, "p()").unwrap();
        assert_eq!(a.arity(), 0);
    }

    #[test]
    fn parses_atom_list_with_and_without_commas() {
        let mut i = Interner::new();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?z) e(?z,?x)").unwrap();
        assert_eq!(atoms.len(), 3);
    }

    #[test]
    fn parses_database() {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "c(1,1) c(2,2), c(3,3)").unwrap();
        assert_eq!(db.size(), 3);
        assert_eq!(db.active_domain().len(), 3);
    }

    #[test]
    fn database_rejects_variables() {
        let mut i = Interner::new();
        assert!(parse_database(&mut i, "c(?x, 1)").is_err());
    }

    #[test]
    fn parses_mapping() {
        let mut i = Interner::new();
        let m = parse_mapping(&mut i, "?x -> Swim, ?y -> Caribou").unwrap();
        assert_eq!(m.len(), 2);
        let x = i.var("x");
        let swim = i.constant("Swim");
        assert_eq!(m.get(x), Some(swim));
    }

    #[test]
    fn parses_empty_mapping() {
        let mut i = Interner::new();
        assert!(parse_mapping(&mut i, "  ").unwrap().is_empty());
    }

    #[test]
    fn mapping_rejects_conflicts() {
        let mut i = Interner::new();
        assert!(parse_mapping(&mut i, "?x -> a, ?x -> b").is_err());
    }

    #[test]
    fn error_on_trailing_garbage() {
        let mut i = Interner::new();
        assert!(parse_atom(&mut i, "e(?x) junk").is_err());
    }

    #[test]
    fn error_reports_offset() {
        let mut i = Interner::new();
        let err = parse_atom(&mut i, "e(?x").unwrap_err();
        assert!(err.at >= 4, "offset was {}", err.at);
        assert!(err.to_string().contains("parse error"));
    }

    // The N-Triples line grammar.

    #[test]
    fn rejects_short_and_trailing_garbage_lines() {
        assert!(parse_nt_line("<a> <b> .").is_err());
        assert!(parse_nt_line("<a> <b> <c> <d> .").is_err());
        assert!(parse_nt_line("<a> <b <c> .").is_err());
    }

    #[test]
    fn decodes_unicode_escapes_in_literals_and_iris() {
        // The Rust raw strings below contain literal backslashes, so the
        // parser sees unicode escape sequences and must decode them.
        let line = r#"<caf\u00E9> <says> "\u2022 bullet \U0001F600" ."#;
        let (s, _, o) = parse_nt_line(line).unwrap().unwrap();
        assert_eq!(s, "caf\u{00E9}");
        assert_eq!(o, "\u{2022} bullet \u{1F600}");
        // Escaped and raw spellings of an IRI decode to the same string.
        let (s2, _, _) = parse_nt_line("<caf\u{00E9}> <says> <x> .")
            .unwrap()
            .unwrap();
        assert_eq!(s2, s);
        // An escape mixed into a literal body.
        let (_, _, o3) = parse_nt_line(r#"<a> <b> "snow\u2603man" ."#)
            .unwrap()
            .unwrap();
        assert_eq!(o3, "snow\u{2603}man");
    }

    #[test]
    fn rejects_malformed_unicode_escapes() {
        // Too few digits, bad hex, a surrogate, and a non-unicode IRI escape.
        assert!(parse_nt_line(r#"<a> <b> "\u12" ."#).is_err());
        assert!(parse_nt_line(r#"<a> <b> "\uZZZZ" ."#).is_err());
        assert!(parse_nt_line(r#"<a> <b> "\uD800" ."#).is_err());
        assert!(parse_nt_line(r#"<a\n> <b> <c> ."#).is_err());
    }

    #[test]
    fn handles_crlf_terminators_and_comment_lines() {
        // A raw line with its terminator still attached parses, and the
        // literal does not absorb the \r.
        let parsed = parse_nt_line("<x> <y> \"z\" .\r\n").unwrap().unwrap();
        assert_eq!(parsed, ("x".into(), "y".into(), "z".into()));
        // Blank, whitespace-only and (indented) comment lines are no triple;
        // a `#` inside a literal is data.
        for line in ["", "   \r\n", "\t", "  # indented comment", "#tail"] {
            assert_eq!(parse_nt_line(line), Ok(None), "{line:?}");
        }
        let (_, _, o) = parse_nt_line("<a> <b> \"#not a comment\" .")
            .unwrap()
            .unwrap();
        assert_eq!(o, "#not a comment");
    }

    #[test]
    fn trailing_dot_is_optional() {
        assert_eq!(
            parse_nt_line("<a> <b> <c>").unwrap().unwrap(),
            ("a".into(), "b".into(), "c".into())
        );
    }

    /// The literal `p("…")` holds, its constant decoded.
    fn facts_constant(body: &str) -> Result<String, ParseError> {
        let src = format!("p(\"{body}\")");
        Ok(parse_ground_atoms(&src)?[0].1[0].to_string())
    }

    /// The object of `<s> <p> "…" .`, decoded.
    fn nt_literal(body: &str) -> Result<String, ParseError> {
        let line = format!("<s> <p> \"{body}\" .");
        let (_, _, o) = parse_nt_line(&line)?.expect("a triple");
        Ok(o.into_owned())
    }

    #[test]
    fn both_grammars_decode_exactly_the_n_triples_escapes() {
        let cases = [
            (r"a\tc", "a\tc"),
            (r"a\bc", "a\u{8}c"),
            (r"a\nc", "a\nc"),
            (r"a\rc", "a\rc"),
            (r"a\fc", "a\u{c}c"),
            (r#"a\"c"#, "a\"c"),
            (r"a\'c", "a'c"),
            (r"a\\c", "a\\c"),
            (r"a\u0041c", "aAc"),
            (r"a\U0001F600c", "a\u{1F600}c"),
        ];
        for (written, decoded) in cases {
            assert_eq!(nt_literal(written).as_deref(), Ok(decoded), "{written}");
            assert_eq!(facts_constant(written).as_deref(), Ok(decoded), "{written}");
        }
        // Any other escape is an error at its backslash, in both.
        for written in [r"a\xc", r"a\ac", r"a\/c"] {
            let err = nt_literal(written).unwrap_err();
            assert_eq!(err.at, 10, "{err}");
            assert!(err.message.contains("unknown escape"), "{err}");
            let err = facts_constant(written).unwrap_err();
            assert_eq!(err.at, 4, "{err}");
            assert!(err.message.contains("unknown escape"), "{err}");
        }
        // An IRI takes the unicode escapes alone.
        assert_eq!(
            parse_nt_line(r"<a\u0041> <b> <c> .").unwrap().unwrap().0,
            "aA"
        );
        for iri in [r"<a\t>", r"<a\'>", r"<a\\>"] {
            let err = parse_nt_line(&format!("{iri} <b> <c> .")).unwrap_err();
            assert!(err.message.contains("IRI escape"), "{iri}: {err}");
        }
    }

    #[test]
    fn nt_terms_borrow_what_they_do_not_decode() {
        let (s, p, o) = parse_nt_line("<s> pred \"lit\"@en .").unwrap().unwrap();
        for term in [&s, &p, &o] {
            assert!(matches!(term, Cow::Borrowed(_)), "{term}");
        }
        assert_eq!((s, p, o), ("s".into(), "pred".into(), "lit".into()));
    }

    #[test]
    fn nt_suffixes_and_bare_tokens_are_read_past_whole() {
        let line = "caf\u{e0} <p> \"2\"^^<http://example.org/#int> .";
        let (s, _, o) = parse_nt_line(line).unwrap().unwrap();
        assert_eq!((s.as_ref(), o.as_ref()), ("caf\u{e0}", "2"));
        // An unterminated datatype IRI runs to the end of the line.
        let (_, _, o) = parse_nt_line("<a> <b> \"x\"^^<http").unwrap().unwrap();
        assert_eq!(o, "x");
        let err = parse_nt_line("  <a> <b").unwrap_err();
        assert_eq!(err.at, 7, "{err}");
    }
}
