//! Cores of conjunctive queries.
//!
//! The *core* of a CQ `q` is a minimal subquery equivalent to `q` — the
//! image of `q` under a minimal endomorphism fixing the head variables. The
//! paper's Section 6 pipeline needs cores because a CQ is equivalent to one
//! in `TW(k)` iff its core is in `TW(k)` (Dalmau–Kolaitis–Vardi, cited as
//! [10]), which makes semantic membership for unions of WDPTs decidable
//! inside the polynomial hierarchy (Theorem 17).
//!
//! The computation is the classical iterated retraction: find an
//! endomorphism (a homomorphism from `q` into its own canonical database,
//! fixing the head) whose image has fewer atoms or variables, replace `q`
//! with the image, repeat. Worst-case exponential — cores are NP-hard to
//! recognize — but fast for the query sizes of the paper's constructions.
//!
//! The search involves no query but `q` itself, so the frozen constants
//! only have to avoid `q`'s own (see [`freeze`]): no symbol table is read or
//! grown, and [`try_core_above`] runs without one.

use crate::backtrack::try_extend_all;
use crate::containment::{freeze, frozen_floor};
use crate::query::ConjunctiveQuery;
use std::collections::{BTreeMap, BTreeSet};
use wdpt_model::{Atom, CancelToken, Cancelled, Const, Interner, Mapping, Term, Var};

/// Applies an endomorphism (expressed as variable → frozen-constant mapping
/// plus the unfreeze table) to the body, yielding the image subquery.
fn image_of(body: &[Atom], hom: &Mapping, unfreeze: &BTreeMap<Const, Var>) -> Vec<Atom> {
    let mut out: BTreeSet<Atom> = BTreeSet::new();
    for atom in body {
        let args = atom
            .args
            .iter()
            .map(|t| match t {
                Term::Const(c) => Term::Const(*c),
                Term::Var(v) => {
                    let c = hom.get(*v).expect("endomorphism is total on variables");
                    match unfreeze.get(&c) {
                        Some(&w) => Term::Var(w),
                        None => Term::Const(c), // maps onto an original constant
                    }
                }
            })
            .collect();
        out.insert(Atom::new(atom.pred, args));
    }
    out.into_iter().collect()
}

/// Computes the core of `q` (head variables are fixed pointwise). The result
/// is equivalent to `q` and has no proper retract.
pub fn core_of(q: &ConjunctiveQuery, interner: &mut Interner) -> ConjunctiveQuery {
    try_core_of(q, interner, CancelToken::never()).expect("the never token cannot cancel")
}

/// [`core_of`] with cooperative cancellation: the endomorphism enumeration
/// is worst-case exponential in the query size (e.g. the n-fold cross
/// product of one atom has `nⁿ` endomorphisms), so callers planning
/// untrusted queries under a deadline thread their token through here too.
pub fn try_core_of(
    q: &ConjunctiveQuery,
    interner: &mut Interner,
    token: &CancelToken,
) -> Result<ConjunctiveQuery, Cancelled> {
    try_core_above(q, frozen_floor(interner), token)
}

/// [`try_core_of`] with the frozen ids starting at `floor` instead of above
/// a symbol table. A caller with no table at hand passes `0`: [`freeze`]
/// stays above the constants of the query itself whatever the floor.
pub fn try_core_above(
    q: &ConjunctiveQuery,
    floor: u32,
    token: &CancelToken,
) -> Result<ConjunctiveQuery, Cancelled> {
    let mut current = q.clone();
    loop {
        let (db, table) = freeze(&current, floor);
        let unfreeze: BTreeMap<Const, Var> = table.iter().map(|(&v, &c)| (c, v)).collect();
        let seed = Mapping::from_pairs(current.head().iter().map(|&x| (x, table[&x])));
        let endos = try_extend_all(&db, current.body(), None, &seed, token)?;
        let n_atoms = current.body().len();
        let n_vars = current.variables().len();
        // Pick the endomorphism with the smallest image, if any shrinks it.
        let best = endos
            .iter()
            .map(|h| {
                let img = image_of(current.body(), h, &unfreeze);
                let vars: BTreeSet<Var> = img.iter().flat_map(|a| a.vars()).collect();
                (img.len(), vars.len(), img)
            })
            .filter(|(na, nv, _)| *na < n_atoms || *nv < n_vars)
            .min_by_key(|(na, nv, _)| (*na, *nv));
        match best {
            Some((_, _, img)) => {
                current = ConjunctiveQuery::new(current.head().to_vec(), img);
            }
            None => return Ok(current),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::equivalent;
    use wdpt_model::parse::parse_atoms;

    fn q(i: &mut Interner, head: &[&str], body: &str) -> ConjunctiveQuery {
        let atoms = parse_atoms(i, body).unwrap();
        let head = head.iter().map(|n| i.var(n)).collect();
        ConjunctiveQuery::new(head, atoms)
    }

    #[test]
    fn redundant_path_atom_is_folded() {
        let mut i = Interner::new();
        // e(x,y) ∧ e(x,y') folds to e(x,y).
        let query = q(&mut i, &["x"], "e(?x,?y) e(?x,?y2)");
        let core = core_of(&query, &mut i);
        assert_eq!(core.body().len(), 1);
        assert!(equivalent(&query, &core, &mut i));
    }

    #[test]
    fn triangle_is_its_own_core() {
        let mut i = Interner::new();
        let query = q(&mut i, &[], "e(?x,?y) e(?y,?z) e(?z,?x)");
        let core = core_of(&query, &mut i);
        assert_eq!(core.body().len(), 3);
    }

    #[test]
    fn path_folds_into_edge_with_loop_absent() {
        let mut i = Interner::new();
        // Boolean 2-path has core = single edge? No: a 2-path e(a,b),e(b,c)
        // retracts onto an edge only if some vertex can double, i.e. map
        // a↦b? That needs e(b,b). Not present: the 2-path IS a core.
        let query = q(&mut i, &[], "e(?a,?b) e(?b,?c)");
        let core = core_of(&query, &mut i);
        assert_eq!(core.body().len(), 2);
    }

    #[test]
    fn cycle_with_chord_image() {
        let mut i = Interner::new();
        // Even cycle (length 4) Boolean query folds onto a single... no,
        // onto one edge traversed back and forth: C4 → K2 homomorphism
        // exists (bipartite), so the core is e(x,y) ∧ e(y,x)? A 4-cycle
        // x→y→z→w→x maps onto the 2-cycle a→b→a. The 2-cycle is a subquery
        // image only if the original contains one... it does not, so the
        // core maps within its own variables: h(x)=x, h(y)=y, h(z)=x,
        // h(w)=y needs edges e(x,y),e(y,x). Directed C4 has e(x,y),e(y,z),
        // e(z,w),e(w,x): the fold needs e(y,x) which is absent, so C4
        // (directed) is a core.
        let query = q(&mut i, &[], "e(?x,?y) e(?y,?z) e(?z,?w) e(?w,?x)");
        let core = core_of(&query, &mut i);
        assert_eq!(core.body().len(), 4);
    }

    #[test]
    fn undirected_even_cycle_folds() {
        let mut i = Interner::new();
        // Encode an undirected 4-cycle with edges both ways; its core is a
        // single undirected edge (2 atoms).
        let query = q(
            &mut i,
            &[],
            "e(?x,?y) e(?y,?x) e(?y,?z) e(?z,?y) e(?z,?w) e(?w,?z) e(?w,?x) e(?x,?w)",
        );
        let core = core_of(&query, &mut i);
        assert_eq!(core.body().len(), 2);
        assert!(equivalent(&query, &core, &mut i));
    }

    #[test]
    fn head_variables_are_never_folded() {
        let mut i = Interner::new();
        let query = q(&mut i, &["x", "y2"], "e(?x,?y) e(?x,?y2)");
        let core = core_of(&query, &mut i);
        // y2 is free, so the two atoms cannot be merged unless y folds onto
        // y2 — which is allowed (y is existential) giving e(x,y2) only.
        assert!(equivalent(&query, &core, &mut i));
        let y2 = i.var("y2");
        assert!(core.head().contains(&y2));
    }

    #[test]
    fn constants_are_fixed_points() {
        let mut i = Interner::new();
        let query = q(&mut i, &[], "e(?x, a) e(?y, a)");
        let core = core_of(&query, &mut i);
        assert_eq!(core.body().len(), 1);
    }

    #[test]
    fn cancelled_token_aborts_core_computation() {
        let mut i = Interner::new();
        let query = q(&mut i, &[], "e(?a,?b) e(?c,?d) e(?x,?y)");
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(try_core_of(&query, &mut i, &token), Err(Cancelled));
    }

    #[test]
    fn core_is_idempotent() {
        let mut i = Interner::new();
        let query = q(&mut i, &[], "e(?a,?b) e(?b,?c) e(?a2,?b) e(?b,?c2)");
        let once = core_of(&query, &mut i);
        let twice = core_of(&once, &mut i);
        assert_eq!(once, twice);
    }
}
