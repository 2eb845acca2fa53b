//! A tiny text format for atoms, databases, and mappings.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! atoms   := atom ((',')? atom)*
//! atom    := ident '(' term (',' term)* ')'   |   ident '(' ')'
//! term    := '?' ident            // variable
//!          | ident                // constant (bare)
//!          | '"' (char|esc)* '"'  // constant (quoted, may contain spaces)
//! esc     := '\"' | '\\' | '\n' | '\t' | '\r'
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

/// Decodes the backslash escapes of a quoted constant — `\"`, `\\`, `\n`,
/// `\t`, `\r`, `\uXXXX`, and `\UXXXXXXXX` (the same repertoire the
/// N-Triples dialect accepts in literals). `raw` is the text between the
/// quotes with escapes intact; escape-free input borrows instead of
/// allocating. Error offsets are byte positions relative to `raw`.
fn unescape(raw: &str) -> Result<Cow<'_, str>, ParseError> {
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
        match esc {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            't' => out.push('\t'),
            'r' => out.push('\r'),
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
                let decoded = char::from_u32(code)
                    .ok_or_else(|| err(at, format!("\\{esc} escape is not a scalar value")))?;
                out.push(decoded);
            }
            other => return Err(err(at, format!("unknown escape '\\{other}'"))),
        }
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

    fn quoted(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect('"')?;
        let start = self.pos;
        let mut escaped = false;
        while let Some(c) = self.rest().chars().next() {
            if escaped {
                escaped = false;
                self.bump();
                continue;
            }
            match c {
                '\\' => {
                    escaped = true;
                    self.bump();
                }
                '"' => {
                    let raw = &self.src[start..self.pos];
                    self.bump();
                    return unescape(raw).map_err(|e| ParseError {
                        at: start + e.at,
                        message: e.message,
                    });
                }
                _ => {
                    self.bump();
                }
            }
        }
        Err(self.error("unterminated string literal"))
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
            unescape("no escapes here").unwrap(),
            std::borrow::Cow::Borrowed(_)
        ));
        assert_eq!(unescape(r#"a\\bA"#).unwrap(), "a\\bA");
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
}
