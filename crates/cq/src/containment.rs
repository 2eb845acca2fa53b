//! Chandra–Merlin containment via canonical databases.
//!
//! `q₁ ⊆ q₂` (every answer of `q₁` is an answer of `q₂` over every database)
//! holds iff there is a homomorphism from `q₂` into the *canonical database*
//! of `q₁` — the frozen body of `q₁` — mapping head to head. Because the
//! paper treats answers as *mappings* (footnote 4), two CQs are comparable
//! by `⊆` only when their head variable sets coincide; the subsumption
//! variant [`subsumed_cq`] instead requires `head(q₁) ⊆ head(q₂)` and
//! matching values on the smaller head — this is the CQ-level `⊑` used for
//! unions of WDPTs (Section 6).
//!
//! A frozen constant only has to be *distinct*: from the other frozen
//! constants and from every constant either query mentions. [`freeze`]
//! therefore mints bare ids above the symbol table instead of interning
//! names — the canonical database and its variable table are dropped when
//! the test returns, the ids never reach an [`Interner`], and no caller's
//! table grows. The test itself is one [`Search`] over that database, its
//! head slots seeded straight from the freeze table.

use crate::backtrack::Search;
use crate::query::ConjunctiveQuery;
use std::collections::{BTreeMap, BTreeSet};
use wdpt_model::{CancelToken, Const, Database, Interner, Term, Var};

/// The first id above every symbol of `interner` — the `floor` to hand
/// [`freeze`] when the frozen query meets other queries built from the same
/// table: all their constants lie below it.
pub fn frozen_floor(interner: &Interner) -> u32 {
    u32::try_from(interner.len()).expect("interner overflow")
}

/// Freezes a CQ into its canonical database: each variable becomes a
/// constant of its own. Returns the database and the variable → constant
/// table.
///
/// The constants are consecutive ids starting at `floor`, or just above the
/// largest constant `q` itself mentions if that is higher — so they are
/// pairwise distinct and distinct from `q`'s constants whatever `floor` is
/// (`0` will do when no other query is involved, as in a core search), and
/// distinct from every symbol of a table when `floor` is its
/// [`frozen_floor`]. They name nothing — rendering one through an interner
/// is a bug — and no procedure of this crate returns one.
///
/// # Panics
/// Panics (`"interner overflow"`) if the ids would not fit `u32` — never
/// wraps around into ids that are taken.
pub fn freeze(q: &ConjunctiveQuery, floor: u32) -> (Database, BTreeMap<Var, Const>) {
    let first = q
        .body()
        .iter()
        .flat_map(|a| &a.args)
        .filter_map(|t| t.as_const())
        .map(|c| c.0.checked_add(1).expect("interner overflow"))
        .fold(floor, u32::max);
    let vars: BTreeSet<Var> = q.variables();
    let table: BTreeMap<Var, Const> = vars
        .iter()
        .copied()
        .zip((first..=u32::MAX).map(Const))
        .collect();
    assert!(table.len() == vars.len(), "interner overflow");
    let mut db = Database::new();
    for a in q.body() {
        let tuple = a
            .args
            .iter()
            .map(|t| match *t {
                Term::Const(c) => c,
                Term::Var(v) => table[&v],
            })
            .collect();
        db.insert(a.pred, tuple);
    }
    (db, table)
}

/// True iff `q2` has a homomorphism into the canonical database of `q1`
/// that sends every variable of `fixed` to its own frozen constant — the
/// Chandra–Merlin witness. `fixed` is a head of `q1`, so each of its
/// variables occurs in `q1`'s body.
fn maps_onto_frozen(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    fixed: &BTreeSet<Var>,
    interner: &Interner,
) -> bool {
    let (db, table) = freeze(q1, frozen_floor(interner));
    let mut search = Search::compile(&db, q2.body(), None, |v| fixed.contains(&v));
    for slot in 0..search.vars().len() {
        let v = search.vars()[slot];
        if fixed.contains(&v) {
            search.set(slot, table[&v]);
        }
    }
    search
        .exists(CancelToken::never())
        .expect("the never token cannot cancel")
}

/// Classical containment `q1 ⊆ q2`. Requires equal head variable *sets*
/// (answers are mappings); returns `false` otherwise.
pub fn contained_in(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery, interner: &Interner) -> bool {
    let head = q1.head_set();
    head == q2.head_set() && maps_onto_frozen(q1, q2, &head, interner)
}

/// Classical equivalence `q1 ≡ q2`.
pub fn equivalent(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery, interner: &Interner) -> bool {
    contained_in(q1, q2, interner) && contained_in(q2, q1, interner)
}

/// CQ-level subsumption `q1 ⊑ q2`: over every database, every answer of `q1`
/// is *extended by* some answer of `q2`. Requires `head(q1) ⊆ head(q2)`;
/// witnessed by a homomorphism from `q2` into the canonical database of `q1`
/// fixing the shared head.
pub fn subsumed_cq(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery, interner: &Interner) -> bool {
    let head = q1.head_set();
    head.is_subset(&q2.head_set()) && maps_onto_frozen(q1, q2, &head, interner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_model::parse::parse_atoms;

    fn q(i: &mut Interner, head: &[&str], body: &str) -> ConjunctiveQuery {
        let atoms = parse_atoms(i, body).unwrap();
        let head = head.iter().map(|n| i.var(n)).collect();
        ConjunctiveQuery::new(head, atoms)
    }

    #[test]
    fn longer_path_contained_in_shorter() {
        let mut i = Interner::new();
        let p3 = q(&mut i, &[], "e(?a,?b) e(?b,?c) e(?c,?d)");
        let p1 = q(&mut i, &[], "e(?x,?y)");
        assert!(contained_in(&p3, &p1, &i));
        assert!(!contained_in(&p1, &p3, &i));
    }

    #[test]
    fn cycle_contained_in_path_not_vice_versa() {
        let mut i = Interner::new();
        let cyc = q(&mut i, &[], "e(?x,?y) e(?y,?x)");
        let path = q(&mut i, &[], "e(?a,?b) e(?b,?c)");
        assert!(contained_in(&cyc, &path, &i));
        assert!(!contained_in(&path, &cyc, &i));
    }

    #[test]
    fn head_variables_matter() {
        let mut i = Interner::new();
        let qa = q(&mut i, &["x"], "e(?x,?y)");
        let qb = q(&mut i, &["y"], "e(?x,?y)");
        assert!(!contained_in(&qa, &qb, &i));
    }

    #[test]
    fn identical_queries_are_equivalent() {
        let mut i = Interner::new();
        let qa = q(&mut i, &["x"], "e(?x,?y) e(?y,?z)");
        let qb = q(&mut i, &["x"], "e(?x,?y) e(?y,?z)");
        assert!(equivalent(&qa, &qb, &i));
    }

    #[test]
    fn redundant_atom_preserves_equivalence() {
        let mut i = Interner::new();
        let qa = q(&mut i, &["x"], "e(?x,?y)");
        let qb = q(&mut i, &["x"], "e(?x,?y) e(?x,?y2)");
        assert!(equivalent(&qa, &qb, &i));
    }

    #[test]
    fn constants_restrict_containment() {
        let mut i = Interner::new();
        let qa = q(&mut i, &["x"], "e(?x, a)");
        let qb = q(&mut i, &["x"], "e(?x, ?y)");
        assert!(contained_in(&qa, &qb, &i));
        assert!(!contained_in(&qb, &qa, &i));
    }

    #[test]
    fn subsumption_allows_larger_head() {
        let mut i = Interner::new();
        // q1 returns x; q2 returns x and y. Over any database, an answer
        // {x ↦ a} of q1 is extended by an answer of q2.
        let q1 = q(&mut i, &["x"], "e(?x,?y)");
        let q2 = q(&mut i, &["x", "y"], "e(?x,?y)");
        assert!(subsumed_cq(&q1, &q2, &i));
        assert!(!subsumed_cq(&q2, &q1, &i));
    }

    #[test]
    fn subsumption_checks_shared_head_values() {
        let mut i = Interner::new();
        let q1 = q(&mut i, &["x"], "a(?x)");
        let q2 = q(&mut i, &["x"], "b(?x)");
        assert!(!subsumed_cq(&q1, &q2, &i));
    }

    #[test]
    fn frozen_database_has_one_atom_per_body_atom() {
        let mut i = Interner::new();
        let query = q(&mut i, &[], "e(?x,?y) e(?y,?z)");
        let (db, table) = freeze(&query, frozen_floor(&i));
        assert_eq!(db.size(), 2);
        assert_eq!(table.len(), 3);
    }
}
