//! Quotient queries: the candidate space of `TW(k)`-approximations.
//!
//! A *quotient* of a CQ `q` is obtained by merging variables — applying an
//! idempotent substitution `θ` and taking the atom-set image `q/θ`. Since
//! `q` maps homomorphically onto each of its quotients, `q/θ ⊆ q` always
//! holds. Barceló–Libkin–Romero ([4] in the paper) show that every
//! `TW(k)`-approximation of `q` is equivalent to a ⊆-maximal quotient of
//! `q` of treewidth ≤ k; the approximation machinery of `wdpt-approx`
//! enumerates exactly this space.
//!
//! Head variables must stay pairwise distinct (merging them would change
//! the answer schema), and a class containing a head variable is
//! represented by that head variable.

use crate::query::ConjunctiveQuery;
use std::collections::{BTreeMap, BTreeSet};
use wdpt_model::{Atom, Term, Var};

/// Applies a variable → variable substitution to a body, deduplicating the
/// resulting atom set.
pub fn apply_var_subst(body: &[Atom], subst: &BTreeMap<Var, Var>) -> Vec<Atom> {
    let mut out: BTreeSet<Atom> = BTreeSet::new();
    for atom in body {
        let args = atom
            .args
            .iter()
            .map(|t| match t {
                Term::Var(v) => Term::Var(*subst.get(v).unwrap_or(v)),
                Term::Const(c) => Term::Const(*c),
            })
            .collect();
        out.insert(Atom::new(atom.pred, args));
    }
    out.into_iter().collect()
}

/// Practical ceiling for quotient enumeration (Bell numbers grow fast).
pub const QUOTIENT_VAR_LIMIT: usize = 12;

/// Enumerates all quotients of `q`: partitions of the variable set in which
/// no two head variables share a class. Each partition yields the CQ whose
/// body is the substituted (deduplicated) atom set and whose head is that of
/// `q`. The identity quotient (`q` itself, atoms deduplicated) is included.
///
/// # Panics
/// Panics if `q` has more than [`QUOTIENT_VAR_LIMIT`] variables — the
/// enumeration is exponential by nature (this mirrors the single-exponential
/// approximation bound of [4]).
pub fn quotients(q: &ConjunctiveQuery) -> Vec<ConjunctiveQuery> {
    let vars: Vec<Var> = q.variables().into_iter().collect();
    assert!(
        vars.len() <= QUOTIENT_VAR_LIMIT,
        "quotient enumeration limited to {QUOTIENT_VAR_LIMIT} variables (got {})",
        vars.len()
    );
    let head: BTreeSet<Var> = q.head_set();
    let mut out = Vec::new();
    // Restricted-growth enumeration of set partitions: classes[i] lists the
    // variables of class i.
    let mut classes: Vec<Vec<Var>> = Vec::new();
    fn rec(
        q: &ConjunctiveQuery,
        vars: &[Var],
        head: &BTreeSet<Var>,
        idx: usize,
        classes: &mut Vec<Vec<Var>>,
        out: &mut Vec<ConjunctiveQuery>,
    ) {
        if idx == vars.len() {
            // Build the substitution: representative is the head variable of
            // the class if present, else the smallest variable.
            let mut subst: BTreeMap<Var, Var> = BTreeMap::new();
            for class in classes.iter() {
                let rep = class
                    .iter()
                    .copied()
                    .find(|v| head.contains(v))
                    .unwrap_or_else(|| *class.iter().min().expect("non-empty class"));
                for &v in class {
                    subst.insert(v, rep);
                }
            }
            let body = apply_var_subst(q.body(), &subst);
            out.push(ConjunctiveQuery::new(q.head().to_vec(), body));
            return;
        }
        let v = vars[idx];
        let is_head = head.contains(&v);
        for c in 0..classes.len() {
            // No two head variables in one class.
            if is_head && classes[c].iter().any(|w| head.contains(w)) {
                continue;
            }
            classes[c].push(v);
            rec(q, vars, head, idx + 1, classes, out);
            classes[c].pop();
        }
        classes.push(vec![v]);
        rec(q, vars, head, idx + 1, classes, out);
        classes.pop();
    }
    rec(q, &vars, &head, 0, &mut classes, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::contained_in;
    use wdpt_model::parse::parse_atoms;
    use wdpt_model::Interner;

    fn q(i: &mut Interner, head: &[&str], body: &str) -> ConjunctiveQuery {
        let atoms = parse_atoms(i, body).unwrap();
        let head = head.iter().map(|n| i.var(n)).collect();
        ConjunctiveQuery::new(head, atoms)
    }

    #[test]
    fn quotient_count_is_bell_number() {
        let mut i = Interner::new();
        // 3 existential variables → B(3) = 5 partitions.
        let query = q(&mut i, &[], "e(?a,?b) e(?b,?c)");
        assert_eq!(quotients(&query).len(), 5);
    }

    #[test]
    fn head_variables_are_not_merged() {
        let mut i = Interner::new();
        let query = q(&mut i, &["x", "y"], "e(?x,?y)");
        // Partitions of {x, y} without merging heads: only the discrete one.
        assert_eq!(quotients(&query).len(), 1);
    }

    #[test]
    fn every_quotient_is_contained_in_q() {
        let mut i = Interner::new();
        let query = q(&mut i, &["a"], "e(?a,?b) e(?b,?c) e(?c,?d)");
        for quot in quotients(&query) {
            assert!(
                contained_in(&quot, &query, &i),
                "quotient must be contained in the original"
            );
        }
    }

    #[test]
    fn merging_collapses_atoms() {
        let mut i = Interner::new();
        let query = q(&mut i, &[], "e(?a,?b) e(?b,?c)");
        let merged = quotients(&query)
            .into_iter()
            .find(|qt| qt.variables().len() == 1)
            .expect("total merge exists");
        assert_eq!(merged.body().len(), 1); // e(a,a)
    }

    #[test]
    fn head_class_representative_is_head_var() {
        let mut i = Interner::new();
        let query = q(&mut i, &["x"], "e(?x,?y)");
        let quots = quotients(&query);
        // Partition {x,y}: representative must be x, giving e(x,x).
        let collapsed = quots
            .iter()
            .find(|qt| qt.variables().len() == 1)
            .expect("exists");
        let x = i.var("x");
        assert_eq!(collapsed.head(), &[x]);
        assert_eq!(collapsed.variables().into_iter().next(), Some(x));
    }

    #[test]
    fn substitution_preserves_constants() {
        let mut i = Interner::new();
        let query = q(&mut i, &[], "e(?a, k) e(?b, k)");
        let quots = quotients(&query);
        // Merging a and b yields a single atom e(a,k).
        assert!(quots.iter().any(|qt| qt.body().len() == 1));
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn refuses_huge_queries() {
        let mut i = Interner::new();
        let body: String = (0..14)
            .map(|j| format!("e(?v{j},?v{})", j + 1))
            .collect::<Vec<_>>()
            .join(" ");
        let query = q(&mut i, &[], &body);
        let _ = quotients(&query);
    }
}
