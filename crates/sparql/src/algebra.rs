//! The {AND, OPT} pattern algebra and its WDPT translation.
//!
//! Patterns follow the algebraic notation of Pérez et al. ([18] in the
//! paper): a pattern is a triple pattern, `(P₁ AND P₂)`, or `(P₁ OPT P₂)`.
//! A pattern is *well-designed* if for every sub-pattern `O = (P₁ OPT P₂)`
//! and every variable `v` of `P₂`: if `v` occurs outside `O`, it also
//! occurs in `P₁`. Well-designed patterns admit the *pattern-tree normal
//! form* of Letelier et al. ([17]): rewrite `(P₁ OPT P₂) AND P₃ ⇒
//! (P₁ AND P₃) OPT P₂` to a fixpoint, then read off the tree — AND-groups
//! become node labels, OPT-nesting becomes the child relation. That
//! translation ([`GraphPattern::to_wdpt`], one walk that never performs
//! the rewrite) and its inverse
//! ([`GraphPattern::from_wdpt`]) connect this front end to the relational
//! WDPT machinery of `wdpt-core`.

use crate::triples::{TripleStore, TRIPLE_PRED};
use std::collections::BTreeSet;
use wdpt_core::{NodeId, Wdpt, WdptBuilder};
use wdpt_model::{Atom, Database, Interner, Mapping, Pred, Resolve, Term, Var};

/// A SPARQL triple pattern `(s, p, o)` over variables and constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriplePattern {
    /// Subject.
    pub s: Term,
    /// Predicate.
    pub p: Term,
    /// Object.
    pub o: Term,
}

impl TriplePattern {
    /// The relational atom `triple(s, p, o)`.
    pub fn to_atom<'s>(&self, interner: &mut impl Resolve<'s>) -> Atom {
        Atom::new(interner.pred(TRIPLE_PRED), vec![self.s, self.p, self.o])
    }

    /// Recovers a triple pattern from a `triple/3` atom.
    pub fn from_atom(atom: &Atom) -> Option<TriplePattern> {
        if atom.args.len() != 3 {
            return None;
        }
        Some(TriplePattern {
            s: atom.args[0],
            p: atom.args[1],
            o: atom.args[2],
        })
    }

    fn vars(&self, out: &mut BTreeSet<Var>) {
        for t in [self.s, self.p, self.o] {
            if let Term::Var(v) = t {
                out.insert(v);
            }
        }
    }

    /// Renders as `(s, p, o)`.
    pub fn display(&self, interner: &Interner) -> String {
        format!(
            "({}, {}, {})",
            self.s.display(interner),
            self.p.display(interner),
            self.o.display(interner)
        )
    }
}

/// An {AND, OPT} graph pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphPattern {
    /// A triple pattern.
    Triple(TriplePattern),
    /// Conjunction `(P₁ AND P₂)`.
    And(Box<GraphPattern>, Box<GraphPattern>),
    /// Optional matching `(P₁ OPT P₂)` — the left-outer-join.
    Opt(Box<GraphPattern>, Box<GraphPattern>),
}

/// Errors of the algebra layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparqlError {
    /// The pattern violates the well-designedness condition on `var`.
    NotWellDesigned(Var),
    /// A WDPT with a non-`triple/3` atom cannot be rendered as SPARQL.
    NotAnRdfTree,
    /// A projection variable does not occur in the pattern.
    UnknownSelectVar(Var),
}

impl std::fmt::Display for SparqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparqlError::NotWellDesigned(v) => {
                write!(f, "pattern is not well-designed: variable {v} leaks")
            }
            SparqlError::NotAnRdfTree => write!(f, "WDPT contains non-triple atoms"),
            SparqlError::UnknownSelectVar(v) => {
                write!(f, "SELECT variable {v} does not occur in the pattern")
            }
        }
    }
}

impl std::error::Error for SparqlError {}

impl GraphPattern {
    /// All variables of the pattern.
    pub fn variables(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<Var>) {
        match self {
            GraphPattern::Triple(t) => t.vars(out),
            GraphPattern::And(a, b) | GraphPattern::Opt(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Checks the well-designedness condition of [18]; returns an offending
    /// variable on failure: of the first OPT sub-pattern in preorder (left
    /// operands first) that violates the condition, its least variable that
    /// does.
    pub fn well_designedness_violation(&self) -> Option<Var> {
        // No atom of this walk is kept: any predicate will do.
        let (walk, vars) = Walk::of(self, Pred(0));
        walk.violation(&vars)
    }

    /// True iff the pattern is well-designed.
    pub fn is_well_designed(&self) -> bool {
        self.well_designedness_violation().is_none()
    }

    /// Translates a well-designed pattern into a WDPT with the given free
    /// variables (`None` = projection-free, all variables free, in
    /// ascending order).
    ///
    /// The tree is the one read off the pattern's OPT normal form ([17]):
    /// rewriting `(P₁ OPT P₂) AND P₃ ⇒ (P₁ AND P₃) OPT P₂` to a fixpoint
    /// and taking AND-groups as labels. It is built in one walk of the
    /// pattern, without the rewrite: an `AND` labels its node with its left
    /// operand's root atoms, then its right's, and gives it its right
    /// operand's children before its left's; an `OPT` adds its right
    /// operand as the last child of its left operand's node. Nodes are
    /// numbered in preorder. The well-designedness condition is decided
    /// from the same walk's records.
    pub fn to_wdpt<'s>(
        &self,
        select: Option<&[Var]>,
        interner: &mut impl Resolve<'s>,
    ) -> Result<Wdpt, SparqlError> {
        let (walk, vars) = Walk::of(self, interner.pred(TRIPLE_PRED));
        if let Some(v) = walk.violation(&vars) {
            return Err(SparqlError::NotWellDesigned(v));
        }
        let free: Vec<Var> = match select {
            Some(sel) => {
                if let Some(&v) = sel.iter().find(|v| vars.binary_search(v).is_err()) {
                    return Err(SparqlError::UnknownSelectVar(v));
                }
                sel.to_vec()
            }
            None => vars,
        };
        let mut labels = walk.labels.into_iter();
        let mut builder = WdptBuilder::new(labels.next().expect("the walk made a root"));
        for (label, &parent) in labels.zip(&walk.parent) {
            builder.child(parent, label);
        }
        builder.build(free).map_err(|e| match e {
            wdpt_core::WdptError::NotWellDesigned(v) => SparqlError::NotWellDesigned(v),
            wdpt_core::WdptError::FreeVarNotMentioned(v)
            | wdpt_core::WdptError::DuplicateFreeVar(v) => SparqlError::UnknownSelectVar(v),
        })
    }

    /// The inverse translation: a WDPT over the `triple/3` schema back into
    /// an {AND, OPT} pattern.
    pub fn from_wdpt(p: &Wdpt) -> Result<GraphPattern, SparqlError> {
        fn of_node(p: &Wdpt, t: usize) -> Result<GraphPattern, SparqlError> {
            let mut pattern: Option<GraphPattern> = None;
            for atom in p.atoms(t) {
                let tp = TriplePattern::from_atom(atom).ok_or(SparqlError::NotAnRdfTree)?;
                let g = GraphPattern::Triple(tp);
                pattern = Some(match pattern {
                    None => g,
                    Some(acc) => GraphPattern::And(Box::new(acc), Box::new(g)),
                });
            }
            let mut pattern = pattern.ok_or(SparqlError::NotAnRdfTree)?;
            for &c in p.children(t) {
                let sub = of_node(p, c)?;
                pattern = GraphPattern::Opt(Box::new(pattern), Box::new(sub));
            }
            Ok(pattern)
        }
        of_node(p, p.root())
    }

    /// Renders the pattern with explicit parentheses, as in the paper.
    pub fn display(&self, interner: &Interner) -> String {
        match self {
            GraphPattern::Triple(t) => t.display(interner),
            GraphPattern::And(a, b) => {
                format!("({} AND {})", a.display(interner), b.display(interner))
            }
            GraphPattern::Opt(a, b) => {
                format!("({} OPT {})", a.display(interner), b.display(interner))
            }
        }
    }
}

/// One walk of a pattern: the labels of the tree it reads off and what
/// deciding well-designedness needs. Triples are numbered in walk order, so
/// every sub-pattern covers one interval of numbers.
struct Walk {
    triple: Pred,
    /// Node labels by preorder id; node 0 is the root.
    labels: Vec<Vec<Atom>>,
    /// The parent of node `k + 1`.
    parent: Vec<NodeId>,
    /// `(variable, number of a triple it occurs in)`.
    occurs: Vec<(Var, u32)>,
    /// Per `OPT` sub-pattern, in the preorder of the algebra (left operands
    /// first): the numbers where it, its right operand and what follows it
    /// start.
    opts: Vec<[u32; 3]>,
    /// Triples walked so far.
    next: u32,
}

impl Walk {
    /// Walks `p`, its atoms over the predicate `triple`; returns the walk
    /// and the pattern's variables, ascending.
    fn of(p: &GraphPattern, triple: Pred) -> (Walk, Vec<Var>) {
        let mut walk = Walk {
            triple,
            labels: vec![Vec::new()],
            parent: Vec::new(),
            occurs: Vec::new(),
            opts: Vec::new(),
            next: 0,
        };
        walk.walk(p, 0);
        walk.occurs.sort_unstable();
        let mut vars: Vec<Var> = walk.occurs.iter().map(|&(v, _)| v).collect();
        vars.dedup();
        (walk, vars)
    }

    /// Walks `p`, whose root atoms label `node`.
    fn walk(&mut self, p: &GraphPattern, node: NodeId) {
        match p {
            GraphPattern::Triple(t) => {
                let args = vec![t.s, t.p, t.o];
                let vars = args.iter().filter_map(|t| t.as_var());
                self.occurs.extend(vars.map(|v| (v, self.next)));
                self.next += 1;
                self.labels[node].push(Atom::new(self.triple, args));
            }
            GraphPattern::And(a, b) => {
                // The right operand first, so its children take the lower
                // ids; then the left operand's atoms and OPTs are rotated
                // in front of the right's.
                let (atoms, opts) = (self.labels[node].len(), self.opts.len());
                self.walk(b, node);
                let right = (self.labels[node].len() - atoms, self.opts.len() - opts);
                self.walk(a, node);
                self.labels[node][atoms..].rotate_left(right.0);
                self.opts[opts..].rotate_left(right.1);
            }
            GraphPattern::Opt(a, b) => {
                let k = self.opts.len();
                self.opts.push([self.next; 3]);
                self.walk(a, node);
                self.opts[k][1] = self.next;
                let child = self.labels.len();
                self.labels.push(Vec::new());
                self.parent.push(node);
                self.walk(b, child);
                self.opts[k][2] = self.next;
            }
        }
    }

    /// The well-designedness condition, over the pattern's variables
    /// `vars`: an `OPT`'s right operand may share a variable with the rest
    /// of the pattern only through its left operand. Returns the least
    /// offending variable of the first `OPT` that has one.
    fn violation(&self, vars: &[Var]) -> Option<Var> {
        self.opts.iter().find_map(|&[lo, mid, hi]| {
            vars.iter().copied().find(|&v| {
                // Whether `v` occurs in a triple numbered in `from..to`.
                let within = |from: u32, to: u32| {
                    let i = self.occurs.partition_point(|&o| o < (v, from));
                    self.occurs.get(i).is_some_and(|&(u, k)| u == v && k < to)
                };
                within(mid, hi) && !within(lo, mid) && (within(0, lo) || within(hi, u32::MAX))
            })
        })
    }
}

/// A union query `P₁ UNION … UNION P_n` — the UWDPTs of Section 6. Each
/// branch is translated independently; with a `SELECT` clause, each branch
/// keeps the selected variables that occur in it (the paper does not
/// require disjuncts to share free variables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnionQuery {
    /// The union branches.
    pub branches: Vec<GraphPattern>,
    /// Projection variables; `None` means projection-free per branch.
    pub select: Option<Vec<Var>>,
}

impl UnionQuery {
    /// Translates every branch into a WDPT. Callers typically wrap the
    /// result in `wdpt_approx::Uwdpt`.
    pub fn to_wdpts(&self, interner: &mut Interner) -> Result<Vec<Wdpt>, SparqlError> {
        self.branches
            .iter()
            .map(|b| match &self.select {
                None => b.to_wdpt(None, interner),
                Some(sel) => {
                    let vars = b.variables();
                    let kept: Vec<Var> = sel.iter().copied().filter(|v| vars.contains(v)).collect();
                    b.to_wdpt(Some(&kept), interner)
                }
            })
            .collect()
    }
}

/// A query: a pattern plus an optional projection (`SELECT` clause).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparqlQuery {
    /// The {AND, OPT} pattern.
    pub pattern: GraphPattern,
    /// Projection variables; `None` means projection-free.
    pub select: Option<Vec<Var>>,
}

impl SparqlQuery {
    /// Translates to a WDPT.
    pub fn to_wdpt<'s>(&self, interner: &mut impl Resolve<'s>) -> Result<Wdpt, SparqlError> {
        self.pattern.to_wdpt(self.select.as_deref(), interner)
    }

    /// Evaluates the query over an RDF store (exact small-scale semantics).
    pub fn evaluate(
        &self,
        store: &TripleStore,
        interner: &mut Interner,
    ) -> Result<Vec<Mapping>, SparqlError> {
        let p = self.to_wdpt(interner)?;
        Ok(wdpt_core::evaluate(&p, store.database()))
    }

    /// Evaluates over an arbitrary relational database.
    pub fn evaluate_db(
        &self,
        db: &Database,
        interner: &mut Interner,
    ) -> Result<Vec<Mapping>, SparqlError> {
        let p = self.to_wdpt(interner)?;
        Ok(wdpt_core::evaluate(&p, db))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tp(i: &mut Interner, s: &str, p: &str, o: &str) -> GraphPattern {
        let term = |i: &mut Interner, x: &str| -> Term {
            if let Some(name) = x.strip_prefix('?') {
                Term::Var(i.var(name))
            } else {
                Term::Const(i.constant(x))
            }
        };
        GraphPattern::Triple(TriplePattern {
            s: term(i, s),
            p: term(i, p),
            o: term(i, o),
        })
    }

    fn example1(i: &mut Interner) -> GraphPattern {
        // (((x, rec_by, y) AND (x, publ, after_2010)) OPT (x, rating, z))
        //   OPT (y, formed_in, z2)
        let a = tp(i, "?x", "recorded_by", "?y");
        let b = tp(i, "?x", "published", "after_2010");
        let c = tp(i, "?x", "NME_rating", "?z");
        let d = tp(i, "?y", "formed_in", "?z2");
        GraphPattern::Opt(
            Box::new(GraphPattern::Opt(
                Box::new(GraphPattern::And(Box::new(a), Box::new(b))),
                Box::new(c),
            )),
            Box::new(d),
        )
    }

    #[test]
    fn example1_is_well_designed_and_becomes_figure1() {
        let mut i = Interner::new();
        let pat = example1(&mut i);
        assert!(pat.is_well_designed());
        let p = pat.to_wdpt(None, &mut i).unwrap();
        // Figure 1: root with two atoms and two single-atom children.
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.atoms(0).len(), 2);
        assert_eq!(p.children(0).len(), 2);
        assert!(p.is_projection_free());
    }

    #[test]
    fn non_well_designed_pattern_is_rejected() {
        let mut i = Interner::new();
        // (a OPT b) AND c where b and c share ?z not in a: classic
        // violation.
        let a = tp(&mut i, "?x", "p", "?y");
        let b = tp(&mut i, "?x", "q", "?z");
        let c = tp(&mut i, "?z", "r", "?w");
        let pat = GraphPattern::And(
            Box::new(GraphPattern::Opt(Box::new(a), Box::new(b))),
            Box::new(c),
        );
        assert!(!pat.is_well_designed());
        assert!(matches!(
            pat.to_wdpt(None, &mut i),
            Err(SparqlError::NotWellDesigned(_))
        ));
    }

    #[test]
    fn and_over_opt_normalizes() {
        let mut i = Interner::new();
        // (a OPT b) AND c with c sharing only ?x: well-designed; the NF
        // must pull c into the root group.
        let a = tp(&mut i, "?x", "p", "?y");
        let b = tp(&mut i, "?x", "q", "?z");
        let c = tp(&mut i, "?x", "r", "?w");
        let pat = GraphPattern::And(
            Box::new(GraphPattern::Opt(Box::new(a), Box::new(b))),
            Box::new(c),
        );
        assert!(pat.is_well_designed());
        let p = pat.to_wdpt(None, &mut i).unwrap();
        assert_eq!(p.node_count(), 2);
        assert_eq!(p.atoms(0).len(), 2); // a and c grouped
        assert_eq!(p.atoms(1).len(), 1); // b optional
    }

    #[test]
    fn roundtrip_through_wdpt() {
        let mut i = Interner::new();
        let pat = example1(&mut i);
        let p = pat.to_wdpt(None, &mut i).unwrap();
        let back = GraphPattern::from_wdpt(&p).unwrap();
        // Round-trip must preserve the tree shape (and hence semantics).
        let p2 = back.to_wdpt(None, &mut i).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn evaluation_matches_example2() {
        let mut i = Interner::new();
        let mut ts = TripleStore::new();
        ts.insert_str(&mut i, "Our_love", "recorded_by", "Caribou");
        ts.insert_str(&mut i, "Our_love", "published", "after_2010");
        ts.insert_str(&mut i, "Swim", "recorded_by", "Caribou");
        ts.insert_str(&mut i, "Swim", "published", "after_2010");
        ts.insert_str(&mut i, "Swim", "NME_rating", "2");
        let q = SparqlQuery {
            pattern: example1(&mut i),
            select: None,
        };
        let answers = q.evaluate(&ts, &mut i).unwrap();
        assert_eq!(answers.len(), 2);
        let z = i.var("z");
        let two = i.constant("2");
        assert!(answers.iter().any(|m| m.get(z) == Some(two)));
    }

    #[test]
    fn selection_projects_answers() {
        let mut i = Interner::new();
        let mut ts = TripleStore::new();
        ts.insert_str(&mut i, "Swim", "recorded_by", "Caribou");
        ts.insert_str(&mut i, "Swim", "published", "after_2010");
        ts.insert_str(&mut i, "Swim", "NME_rating", "2");
        let y = i.var("y");
        let z = i.var("z");
        let q = SparqlQuery {
            pattern: example1(&mut i),
            select: Some(vec![y, z]),
        };
        let answers = q.evaluate(&ts, &mut i).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].domain().len(), 2);
    }

    #[test]
    fn unknown_select_var_errors() {
        let mut i = Interner::new();
        let nope = i.var("nope");
        let q = SparqlQuery {
            pattern: example1(&mut i),
            select: Some(vec![nope]),
        };
        assert!(matches!(
            q.to_wdpt(&mut i),
            Err(SparqlError::UnknownSelectVar(_))
        ));
    }

    #[test]
    fn display_uses_paper_notation() {
        let mut i = Interner::new();
        let pat = example1(&mut i);
        let s = pat.display(&i);
        assert!(s.contains("AND"));
        assert!(s.contains("OPT"));
        assert!(s.starts_with("((("));
    }
}
