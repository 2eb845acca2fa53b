//! A line-oriented text format for pattern trees.
//!
//! The paper draws WDPTs as labeled trees (Figure 1); this module gives
//! that drawing a parseable syntax so queries over **arbitrary relational
//! schemas** (not just RDF triples) can be stored in files and fed to the
//! CLI:
//!
//! ```text
//! FREE ?x ?y ?z ?z2
//! NODE root { rec_by(?x, ?y), publ(?x, "after_2010") }
//! NODE rating PARENT root { nme_rating(?x, ?z) }
//! NODE formed PARENT root { formed_in(?y, ?z2) }
//! ```
//!
//! * The `FREE` line lists the free variables (omit it for a
//!   projection-free tree).
//! * The first `NODE` is the root; every other node names its parent.
//! * Node labels use the atom syntax of [`wdpt_model::parse`].
//! * Lines starting with `#` are comments.
//!
//! [`parse_wdpt`] and [`to_text`] round-trip.

use crate::tree::{Wdpt, WdptBuilder};
use std::collections::{BTreeSet, HashMap};
use wdpt_model::parse::{parse_atoms, ParseError};
use wdpt_model::{Atom, Interner, Var};

/// Errors of the tree text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeTextError {
    /// Atom-level syntax error inside a node label (with the line number).
    Atoms(usize, ParseError),
    /// Structural error (bad keyword, unknown parent, …).
    Structure(usize, String),
    /// The assembled tree violates Definition 1.
    Invalid(crate::tree::WdptError),
}

impl std::fmt::Display for TreeTextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeTextError::Atoms(line, e) => write!(f, "line {line}: {e}"),
            TreeTextError::Structure(line, m) => write!(f, "line {line}: {m}"),
            TreeTextError::Invalid(e) => write!(f, "invalid pattern tree: {e}"),
        }
    }
}

impl std::error::Error for TreeTextError {}

/// Parses the tree text format into a WDPT.
pub fn parse_wdpt(interner: &mut Interner, src: &str) -> Result<Wdpt, TreeTextError> {
    let mut free: Vec<Var> = Vec::new();
    let mut builder: Option<WdptBuilder> = None;
    let mut ids: HashMap<String, usize> = HashMap::new();
    let mut mentioned: BTreeSet<Var> = BTreeSet::new();
    for (lineno, raw) in src.lines().enumerate() {
        let line = raw.trim();
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("FREE") {
            for tok in rest.split_whitespace() {
                let name = tok.strip_prefix('?').ok_or_else(|| {
                    TreeTextError::Structure(lineno, format!("expected ?var, got '{tok}'"))
                })?;
                free.push(interner.var(name));
            }
            continue;
        }
        let Some(rest) = line.strip_prefix("NODE") else {
            return Err(TreeTextError::Structure(
                lineno,
                format!("expected FREE or NODE, got '{line}'"),
            ));
        };
        // NODE <name> [PARENT <name>] { atoms }
        let brace = rest.find('{').ok_or_else(|| {
            TreeTextError::Structure(lineno, "missing '{' in NODE line".to_owned())
        })?;
        let header: Vec<&str> = rest[..brace].split_whitespace().collect();
        let close = rest.rfind('}').ok_or_else(|| {
            TreeTextError::Structure(lineno, "missing '}' in NODE line".to_owned())
        })?;
        let atoms = parse_atoms(interner, &rest[brace + 1..close])
            .map_err(|e| TreeTextError::Atoms(lineno, e))?;
        mentioned.extend(atoms.iter().flat_map(Atom::vars));
        match header.as_slice() {
            [name] => {
                if builder.is_some() {
                    return Err(TreeTextError::Structure(
                        lineno,
                        "non-root NODE needs 'PARENT <name>'".to_owned(),
                    ));
                }
                ids.insert((*name).to_owned(), 0);
                builder = Some(WdptBuilder::new(atoms));
            }
            [name, kw, parent] if kw.eq_ignore_ascii_case("PARENT") => {
                let b = builder.as_mut().ok_or_else(|| {
                    TreeTextError::Structure(lineno, "root NODE must come first".to_owned())
                })?;
                let &pid = ids.get(*parent).ok_or_else(|| {
                    TreeTextError::Structure(lineno, format!("unknown parent '{parent}'"))
                })?;
                let id = b.child(pid, atoms);
                if ids.insert((*name).to_owned(), id).is_some() {
                    return Err(TreeTextError::Structure(
                        lineno,
                        format!("duplicate node name '{name}'"),
                    ));
                }
            }
            _ => {
                return Err(TreeTextError::Structure(
                    lineno,
                    "expected 'NODE <name> [PARENT <name>] { atoms }'".to_owned(),
                ))
            }
        }
    }
    let builder =
        builder.ok_or_else(|| TreeTextError::Structure(0, "no NODE lines found".to_owned()))?;
    if free.is_empty() {
        // No FREE line: projection-free.
        free = mentioned.into_iter().collect();
    }
    builder.build(free).map_err(TreeTextError::Invalid)
}

/// Renders a WDPT in the tree text format (round-trips with
/// [`parse_wdpt`]).
pub fn to_text(p: &Wdpt, interner: &Interner) -> String {
    let mut out = String::new();
    out.push_str("FREE");
    for v in p.free_vars() {
        out.push_str(&format!(" ?{}", interner.var_name(*v)));
    }
    out.push('\n');
    for t in 0..p.node_count() {
        let atoms = p
            .atoms(t)
            .iter()
            .map(|a| a.display(interner))
            .collect::<Vec<_>>()
            .join(", ");
        match p.parent(t) {
            None => out.push_str(&format!("NODE n{t} {{ {atoms} }}\n")),
            Some(par) => out.push_str(&format!("NODE n{t} PARENT n{par} {{ {atoms} }}\n")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE1: &str = r#"
# Figure 1 of the paper
FREE ?x ?y ?z ?z2
NODE root { rec_by(?x, ?y), publ(?x, "after_2010") }
NODE rating PARENT root { nme_rating(?x, ?z) }
NODE formed PARENT root { formed_in(?y, ?z2) }
"#;

    #[test]
    fn parses_figure1() {
        let mut i = Interner::new();
        let p = parse_wdpt(&mut i, FIGURE1).unwrap();
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.free_vars().len(), 4);
        assert_eq!(p.children(0).len(), 2);
    }

    #[test]
    fn roundtrips() {
        let mut i = Interner::new();
        let p = parse_wdpt(&mut i, FIGURE1).unwrap();
        let text = to_text(&p, &i);
        let p2 = parse_wdpt(&mut i, &text).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn missing_free_line_means_projection_free() {
        let mut i = Interner::new();
        let p = parse_wdpt(&mut i, "NODE r { e(?a, ?b) }").unwrap();
        assert!(p.is_projection_free());
    }

    #[test]
    fn rejects_unknown_parent() {
        let mut i = Interner::new();
        let err =
            parse_wdpt(&mut i, "NODE r { e(?a,?b) }\nNODE c PARENT nope { f(?b) }").unwrap_err();
        assert!(matches!(err, TreeTextError::Structure(2, _)));
    }

    #[test]
    fn rejects_duplicate_names_and_double_roots() {
        let mut i = Interner::new();
        assert!(parse_wdpt(&mut i, "NODE r { e(?a,?b) }\nNODE r2 { f(?b) }").is_err());
        assert!(parse_wdpt(
            &mut i,
            "NODE r { e(?a,?b) }\nNODE c PARENT r { f(?b) }\nNODE c PARENT r { g(?b) }"
        )
        .is_err());
    }

    #[test]
    fn rejects_ill_designed_trees() {
        let mut i = Interner::new();
        let src = "NODE r { a(?x) }\nNODE c1 PARENT r { b(?x,?z) }\nNODE c2 PARENT r { c(?x,?z) }";
        assert!(matches!(
            parse_wdpt(&mut i, src),
            Err(TreeTextError::Invalid(_))
        ));
    }

    #[test]
    fn reports_atom_errors_with_line_numbers() {
        let mut i = Interner::new();
        let err = parse_wdpt(&mut i, "NODE r { e(?a, }").unwrap_err();
        assert!(matches!(err, TreeTextError::Atoms(1, _)));
    }
}
