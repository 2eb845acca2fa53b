//! Parser for the paper's algebraic {AND, OPT} notation.
//!
//! ```text
//! query   := 'SELECT' var+ 'WHERE' '{' pattern '}'   |   pattern
//! pattern := unit (('AND' | 'OPT') unit)*            // left-associative
//! unit    := triple | '(' pattern ')'
//! triple  := '(' term ',' term ',' term ')'
//! term    := '?' ident | ident | '"' chars '"'
//! ```
//!
//! Example (query (1) of the paper):
//!
//! ```text
//! (((?x, recorded_by, ?y) AND (?x, published, "after_2010"))
//!    OPT (?x, NME_rating, ?z)) OPT (?y, formed_in, ?z2)
//! ```

use crate::algebra::{GraphPattern, SparqlQuery, TriplePattern};
use wdpt_model::{Interner, Resolve, Term, Var};

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparqlParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for SparqlParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SPARQL parse error at byte {}: {}",
            self.at, self.message
        )
    }
}

impl std::error::Error for SparqlParseError {}

struct P<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> P<'a> {
    fn skip_ws(&mut self) {
        let t = self.src[self.pos..].trim_start();
        self.pos = self.src.len() - t.len();
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.src[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.src[self.pos..].chars().next()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn err(&self, m: impl Into<String>) -> SparqlParseError {
        SparqlParseError {
            at: self.pos,
            message: m.into(),
        }
    }

    fn expect(&mut self, c: char) -> Result<(), SparqlParseError> {
        if self.peek() == Some(c) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected '{c}'")))
        }
    }

    fn ident(&mut self) -> Result<&'a str, SparqlParseError> {
        self.skip_ws();
        let start = self.pos;
        let ok = |c: char| c.is_alphanumeric() || "_.'-".contains(c);
        while self.src[self.pos..].chars().next().is_some_and(ok) {
            self.bump();
        }
        if self.pos == start {
            Err(self.err("expected identifier"))
        } else {
            Ok(&self.src[start..self.pos])
        }
    }

    /// Consumes a keyword if present (case-insensitive).
    fn keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let rest = &self.src[self.pos..];
        if rest.len() >= kw.len() && rest[..kw.len()].eq_ignore_ascii_case(kw) {
            let after = rest[kw.len()..].chars().next();
            if after.is_none_or(|c| !c.is_alphanumeric() && c != '_') {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn term(&mut self, i: &mut impl Resolve<'a>) -> Result<Term, SparqlParseError> {
        match self.peek() {
            Some('?') => {
                self.bump();
                Ok(Term::Var(i.var(self.ident()?)))
            }
            Some('"') => {
                self.bump();
                let start = self.pos;
                while let Some(c) = self.src[self.pos..].chars().next() {
                    if c == '"' {
                        let s = &self.src[start..self.pos];
                        self.bump();
                        return Ok(Term::Const(i.constant(s)));
                    }
                    self.bump();
                }
                Err(self.err("unterminated string literal"))
            }
            Some(_) => Ok(Term::Const(i.constant(self.ident()?))),
            None => Err(self.err("expected term")),
        }
    }

    fn unit(&mut self, i: &mut impl Resolve<'a>) -> Result<GraphPattern, SparqlParseError> {
        self.expect('(')?;
        // Try a triple first: term ',' term ',' term ')'.
        let save = self.pos;
        if let Ok(s) = self.term(i) {
            if self.peek() == Some(',') {
                self.bump();
                let p = self.term(i)?;
                self.expect(',')?;
                let o = self.term(i)?;
                self.expect(')')?;
                return Ok(GraphPattern::Triple(TriplePattern { s, p, o }));
            }
        }
        // Not a triple: parenthesized pattern.
        self.pos = save;
        let inner = self.pattern(i)?;
        self.expect(')')?;
        Ok(inner)
    }

    fn pattern(&mut self, i: &mut impl Resolve<'a>) -> Result<GraphPattern, SparqlParseError> {
        let mut acc = self.unit(i)?;
        loop {
            if self.keyword("AND") {
                let rhs = self.unit(i)?;
                acc = GraphPattern::And(Box::new(acc), Box::new(rhs));
            } else if self.keyword("OPT") {
                let rhs = self.unit(i)?;
                acc = GraphPattern::Opt(Box::new(acc), Box::new(rhs));
            } else {
                return Ok(acc);
            }
        }
    }

    fn union(&mut self, i: &mut impl Resolve<'a>) -> Result<Vec<GraphPattern>, SparqlParseError> {
        let mut branches = vec![self.pattern(i)?];
        while self.keyword("UNION") {
            branches.push(self.pattern(i)?);
        }
        Ok(branches)
    }

    /// Parses the `SELECT` variable list, rejecting duplicates at the byte
    /// offset of the repeated occurrence. Returns each variable with the
    /// offset and spelling of its occurrence so the caller can report
    /// projection errors against the source text.
    fn select_list(
        &mut self,
        i: &mut impl Resolve<'a>,
    ) -> Result<Vec<(Var, usize, &'a str)>, SparqlParseError> {
        let mut select: Vec<(Var, usize, &'a str)> = Vec::new();
        while self.peek() == Some('?') {
            let at = self.pos;
            self.bump();
            let name = self.ident()?;
            let v = i.var(name);
            if select.iter().any(|&(u, _, _)| u == v) {
                return Err(SparqlParseError {
                    at,
                    message: format!("duplicate SELECT variable ?{name}"),
                });
            }
            select.push((v, at, name));
        }
        Ok(select)
    }

    fn query(&mut self, i: &mut impl Resolve<'a>) -> Result<SparqlQuery, SparqlParseError> {
        if self.keyword("SELECT") {
            let select = self.select_list(i)?;
            if !self.keyword("WHERE") {
                return Err(self.err("expected WHERE"));
            }
            self.expect('{')?;
            let pattern = self.pattern(i)?;
            self.expect('}')?;
            // Projection of a variable the pattern never binds is always a
            // mistake; report it against the SELECT clause, not as a late
            // translation failure.
            let vars = pattern.variables();
            for &(v, at, name) in &select {
                if !vars.contains(&v) {
                    return Err(SparqlParseError {
                        at,
                        message: format!("SELECT variable ?{name} does not occur in the pattern"),
                    });
                }
            }
            Ok(SparqlQuery {
                pattern,
                select: Some(select.into_iter().map(|(v, _, _)| v).collect()),
            })
        } else {
            Ok(SparqlQuery {
                pattern: self.pattern(i)?,
                select: None,
            })
        }
    }
}

/// Parses a query in the algebraic notation (with optional `SELECT`).
pub fn parse_query<'s>(
    interner: &mut impl Resolve<'s>,
    src: &'s str,
) -> Result<SparqlQuery, SparqlParseError> {
    let mut p = P { src, pos: 0 };
    let q = p.query(interner)?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(p.err("trailing input"));
    }
    Ok(q)
}

/// Parses a union query `P₁ UNION P₂ UNION …` (optionally wrapped in
/// `SELECT … WHERE { … }`) into a [`crate::algebra::UnionQuery`].
pub fn parse_union_query(
    interner: &mut Interner,
    src: &str,
) -> Result<crate::algebra::UnionQuery, SparqlParseError> {
    let mut p = P { src, pos: 0 };
    let q = if p.keyword("SELECT") {
        let select = p.select_list(interner)?;
        if !p.keyword("WHERE") {
            return Err(p.err("expected WHERE"));
        }
        p.expect('{')?;
        let branches = p.union(interner)?;
        p.expect('}')?;
        // A branch may omit a projected variable (the paper's UWDPTs do
        // not require shared free variables), but a variable occurring in
        // NO branch can never be bound.
        let mut vars = std::collections::BTreeSet::new();
        for b in &branches {
            vars.extend(b.variables());
        }
        for &(v, at, name) in &select {
            if !vars.contains(&v) {
                return Err(SparqlParseError {
                    at,
                    message: format!("SELECT variable ?{name} occurs in no UNION branch"),
                });
            }
        }
        crate::algebra::UnionQuery {
            branches,
            select: Some(select.into_iter().map(|(v, _, _)| v).collect()),
        }
    } else {
        crate::algebra::UnionQuery {
            branches: p.union(interner)?,
            select: None,
        }
    };
    p.skip_ws();
    if p.pos != src.len() {
        return Err(p.err("trailing input"));
    }
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE1: &str = r#"(((?x, recorded_by, ?y) AND (?x, published, "after_2010"))
        OPT (?x, NME_rating, ?z)) OPT (?y, formed_in, ?z2)"#;

    #[test]
    fn parses_example1() {
        let mut i = Interner::new();
        let q = parse_query(&mut i, EXAMPLE1).unwrap();
        assert!(q.select.is_none());
        assert!(q.pattern.is_well_designed());
        let p = q.to_wdpt(&mut i).unwrap();
        assert_eq!(p.node_count(), 3);
    }

    #[test]
    fn parses_select_form() {
        let mut i = Interner::new();
        let src = format!("SELECT ?y ?z WHERE {{ {EXAMPLE1} }}");
        let q = parse_query(&mut i, &src).unwrap();
        assert_eq!(q.select.as_ref().unwrap().len(), 2);
        let p = q.to_wdpt(&mut i).unwrap();
        assert_eq!(p.free_vars().len(), 2);
    }

    #[test]
    fn left_associative_chain() {
        let mut i = Interner::new();
        let q = parse_query(&mut i, "(?a, p, ?b) OPT (?a, q, ?c) OPT (?a, r, ?d)").unwrap();
        // ((t OPT t) OPT t): root with child; outer OPT attaches second
        // child to the root after normal form.
        let p = q.to_wdpt(&mut i).unwrap();
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.children(0).len(), 2);
    }

    #[test]
    fn nested_opt_right_side() {
        let mut i = Interner::new();
        let q = parse_query(&mut i, "(?a, p, ?b) OPT ((?b, q, ?c) OPT (?c, r, ?d))").unwrap();
        let p = q.to_wdpt(&mut i).unwrap();
        // Chain: root → child → grandchild.
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.children(0).len(), 1);
        assert_eq!(p.children(1).len(), 1);
    }

    #[test]
    fn and_chain_is_one_node() {
        let mut i = Interner::new();
        let q = parse_query(&mut i, "(?a, p, ?b) AND (?b, q, ?c) AND (?c, r, ?d)").unwrap();
        let p = q.to_wdpt(&mut i).unwrap();
        assert_eq!(p.node_count(), 1);
        assert_eq!(p.atoms(0).len(), 3);
    }

    #[test]
    fn rejects_garbage() {
        let mut i = Interner::new();
        assert!(parse_query(&mut i, "(?a, p)").is_err());
        assert!(parse_query(&mut i, "(?a, p, ?b) AND").is_err());
        assert!(parse_query(&mut i, "(?a, p, ?b) XYZ (?a, p, ?c)").is_err());
        assert!(parse_query(&mut i, "SELECT ?x FROM { (?x, p, ?y) }").is_err());
    }

    #[test]
    fn rejects_duplicate_select_variables_with_offset() {
        let mut i = Interner::new();
        let src = "SELECT ?x ?y ?x WHERE { (?x, p, ?y) }";
        let err = parse_query(&mut i, src).unwrap_err();
        assert!(
            err.message.contains("duplicate SELECT variable ?x"),
            "{err}"
        );
        // The offset points at the second ?x, not the first.
        assert_eq!(err.at, src.find("?y").unwrap() + 3);
        assert_eq!(&src[err.at..err.at + 2], "?x");
    }

    #[test]
    fn rejects_select_variable_missing_from_pattern() {
        let mut i = Interner::new();
        let src = "SELECT ?x ?nope WHERE { (?x, p, ?y) }";
        let err = parse_query(&mut i, src).unwrap_err();
        assert!(
            err.message.contains("?nope does not occur in the pattern"),
            "{err}"
        );
        assert_eq!(err.at, src.find("?nope").unwrap());
    }

    #[test]
    fn union_select_hardening() {
        let mut i = Interner::new();
        // Duplicate in a union query.
        assert!(parse_union_query(
            &mut i,
            "SELECT ?a ?a WHERE { (?a, p, ?b) UNION (?a, q, ?c) }"
        )
        .is_err());
        // A variable in only one branch is fine ...
        let ok = parse_union_query(
            &mut i,
            "SELECT ?a ?c WHERE { (?a, p, ?b) UNION (?a, q, ?c) }",
        )
        .unwrap();
        assert_eq!(ok.branches.len(), 2);
        // ... but a variable in no branch is rejected with its offset.
        let src = "SELECT ?z WHERE { (?a, p, ?b) UNION (?a, q, ?c) }";
        let err = parse_union_query(&mut i, src).unwrap_err();
        assert!(
            err.message.contains("?z occurs in no UNION branch"),
            "{err}"
        );
        assert_eq!(err.at, src.find("?z").unwrap());
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let mut i = Interner::new();
        let q = parse_query(&mut i, "(?a, p, ?b) opt (?b, q, ?c)").unwrap();
        assert!(matches!(q.pattern, GraphPattern::Opt(_, _)));
    }
}
