//! Unions of WDPTs (Section 6 of the paper).
//!
//! A UWDPT is `φ = ⋃ p_i` with `φ(D) = ⋃ p_i(D)` (disjuncts may have
//! different free-variable tuples). The evaluation variants lift
//! disjunct-wise (Theorem 16). The star of Section 6 is the translation
//! `φ_cq` — the union of the projected subtree CQs `r_{T'}` — which is
//! ≡ₛ-equivalent to `φ` and turns semantic optimization and approximation
//! into **CQ** problems: membership in `M(UWB(k))` reduces to per-CQ
//! semantic membership via cores (Proposition 9 / Theorem 17), and the
//! `UWB(k)`-approximation is the union of the per-CQ approximations
//! (Theorem 18), computable exactly in single-exponential time — the stark
//! contrast with the single-WDPT case.

use crate::cq_approx::{cq_approximations, semantically_in};
use wdpt_core::{
    eval_decide, partial_eval_decide, variants::has_proper_extension, Engine, Wdpt, WidthKind,
};
use wdpt_cq::containment::{contained_in, freeze, frozen_floor, subsumed_cq};
use wdpt_cq::core_of::core_of;
use wdpt_cq::ConjunctiveQuery;
use wdpt_model::{mapping::maximal_mappings, Database, Interner, Mapping};

/// A union of WDPTs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Uwdpt {
    /// The disjuncts `p_1, …, p_n`.
    pub disjuncts: Vec<Wdpt>,
}

impl Uwdpt {
    /// Creates a union from its disjuncts.
    pub fn new(disjuncts: Vec<Wdpt>) -> Self {
        assert!(!disjuncts.is_empty(), "a UWDPT needs at least one disjunct");
        Uwdpt { disjuncts }
    }

    /// A union with a single disjunct.
    pub fn singleton(p: Wdpt) -> Self {
        Uwdpt::new(vec![p])
    }

    /// `φ(D) = ⋃ p_i(D)` (small-scale exact semantics).
    pub fn evaluate(&self, db: &Database) -> Vec<Mapping> {
        let mut out: std::collections::BTreeSet<Mapping> = Default::default();
        for p in &self.disjuncts {
            out.extend(wdpt_core::evaluate(p, db));
        }
        out.into_iter().collect()
    }

    /// `φ_m(D)`: the ⊑-maximal elements of `φ(D)`.
    pub fn evaluate_max(&self, db: &Database) -> Vec<Mapping> {
        maximal_mappings(self.evaluate(db))
    }

    /// ∪-EVAL: `h ∈ φ(D)` (Theorem 16.1 delegates per disjunct).
    pub fn eval_decide(&self, db: &Database, h: &Mapping) -> bool {
        self.disjuncts.iter().any(|p| eval_decide(p, db, h))
    }

    /// ∪-PARTIAL-EVAL: some answer of some disjunct extends `h`
    /// (Theorem 16.2).
    pub fn partial_eval_decide(&self, db: &Database, h: &Mapping, engine: Engine) -> bool {
        self.disjuncts
            .iter()
            .any(|p| partial_eval_decide(p, db, h, engine))
    }

    /// ∪-MAX-EVAL: `h ∈ φ_m(D)` — `h` is an answer of some disjunct and no
    /// disjunct has an answer strictly extending `h` (Theorem 16.2).
    pub fn max_eval_decide(&self, db: &Database, h: &Mapping, engine: Engine) -> bool {
        // h must project exactly from some disjunct (h ∈ ⋃A_i; being
        // maximal within one disjunct is not required — maximality is
        // checked union-wide below).
        let exact = self
            .disjuncts
            .iter()
            .any(|p| is_exact_projection(p, db, h, engine));
        if !exact {
            return false;
        }
        // …and no disjunct may strictly extend it.
        !self
            .disjuncts
            .iter()
            .any(|p| has_proper_extension(p, db, h, engine))
    }
}

/// Does some homomorphism of `p` project exactly to `h`? (The `h ∈ A`
/// check of the MAX-EVAL analysis.)
fn is_exact_projection(p: &Wdpt, db: &Database, h: &Mapping, engine: Engine) -> bool {
    let dom = h.domain();
    if !dom.is_subset(&p.free_set()) {
        return false;
    }
    let Some(t1) = p.minimal_subtree_covering(&dom) else {
        return false;
    };
    p.subtree_free_vars(&t1) == dom && engine.hom_exists(&p.cq_of_subtree(&t1), db, h)
}

/// UWDPT subsumption `φ ⊑ φ'`: for every disjunct `p` of `φ` and every
/// rooted subtree `T₁` of `p`, the frozen identity on `T₁`'s free variables
/// must be a partial answer of `φ'` over the canonical database of
/// `q_{T₁}`.
pub fn uwdpt_subsumed(phi: &Uwdpt, phi2: &Uwdpt, engine: Engine, interner: &mut Interner) -> bool {
    let floor = frozen_floor(interner);
    for p in &phi.disjuncts {
        let mut subtrees = Vec::new();
        p.for_each_rooted_subtree(&mut |t| subtrees.push(t.clone()));
        for t1 in subtrees {
            let q = p.cq_of_subtree(&t1);
            let (db, table) = freeze(&q, floor);
            let free_vars = p.subtree_free_vars(&t1);
            let h = Mapping::from_pairs(free_vars.iter().map(|&x| (x, table[&x])));
            if !phi2.partial_eval_decide(&db, &h, engine) {
                return false;
            }
        }
    }
    true
}

/// UWDPT subsumption-equivalence `φ ≡ₛ φ'`.
pub fn uwdpt_equivalent(
    phi: &Uwdpt,
    phi2: &Uwdpt,
    engine: Engine,
    interner: &mut Interner,
) -> bool {
    uwdpt_subsumed(phi, phi2, engine, interner) && uwdpt_subsumed(phi2, phi, engine, interner)
}

/// The translation `φ_cq`: for every disjunct `p` and every rooted subtree
/// `T'`, the projected CQ `r_{T'}` (head = free variables occurring in
/// `T'`). Satisfies `φ ≡ₛ φ_cq` (Section 6).
pub fn phi_cq(phi: &Uwdpt) -> Vec<ConjunctiveQuery> {
    let mut out: std::collections::BTreeSet<ConjunctiveQuery> = Default::default();
    for p in &phi.disjuncts {
        p.for_each_rooted_subtree(&mut |t| {
            out.insert(p.projected_cq_of_subtree(t));
        });
    }
    out.into_iter().collect()
}

/// The reduced union `φ_cq^r`: `φ_cq` with every CQ removed that is
/// classically contained in a different one (Theorem 17's preprocessing).
pub fn reduced_phi_cq(phi: &Uwdpt, interner: &mut Interner) -> Vec<ConjunctiveQuery> {
    let cqs = phi_cq(phi);
    let mut kept: Vec<ConjunctiveQuery> = Vec::new();
    'outer: for (i, q) in cqs.iter().enumerate() {
        for (j, other) in cqs.iter().enumerate() {
            if i != j && contained_in(q, other, interner) {
                // Break ties (mutual containment): the later index survives.
                if !(j < i && contained_in(other, q, interner)) {
                    continue 'outer;
                }
            }
        }
        kept.push(q.clone());
    }
    kept
}

/// Exact membership in `M(UWB(k))` (Proposition 9 / Theorem 17): every CQ
/// of the reduced `φ_cq` must be equivalent to a CQ in `C(k)` — decided
/// through cores.
pub fn in_m_uwb(phi: &Uwdpt, kind: WidthKind, k: usize, interner: &mut Interner) -> bool {
    reduced_phi_cq(phi, interner)
        .iter()
        .all(|q| semantically_in(q, kind, k, interner))
}

/// Theorem 17(2): when `φ ∈ M(UWB(k))`, produce the witness union — the
/// cores of the reduced `φ_cq`, each a polynomial-size single-node WDPT in
/// `WB(k)`. Returns `None` when `φ ∉ M(UWB(k))`.
pub fn uwb_equivalent_union(
    phi: &Uwdpt,
    kind: WidthKind,
    k: usize,
    interner: &mut Interner,
) -> Option<Uwdpt> {
    let reduced = reduced_phi_cq(phi, interner);
    let mut disjuncts = Vec::with_capacity(reduced.len());
    for q in &reduced {
        if !semantically_in(q, kind, k, interner) {
            return None;
        }
        disjuncts.push(Wdpt::from_cq(&core_of(q, interner)));
    }
    Some(Uwdpt::new(disjuncts))
}

/// Theorem 18: the unique (up to ≡ₛ) `UWB(k)`-approximation of `φ` — the
/// union of the `C(k)`-approximations of the CQs in `φ_cq`, pruned by
/// CQ-subsumption. Exact and single-exponential.
pub fn uwb_approximation(phi: &Uwdpt, kind: WidthKind, k: usize, interner: &mut Interner) -> Uwdpt {
    let mut pool: Vec<ConjunctiveQuery> = Vec::new();
    for q in reduced_phi_cq(phi, interner) {
        pool.extend(cq_approximations(&q, kind, k, interner));
    }
    // Prune CQs whose answers are always extended by another CQ's answers.
    let mut kept: Vec<ConjunctiveQuery> = Vec::new();
    'outer: for (i, q) in pool.iter().enumerate() {
        for (j, other) in pool.iter().enumerate() {
            if i == j {
                continue;
            }
            if subsumed_cq(q, other, interner) {
                if j < i && subsumed_cq(other, q, interner) {
                    continue; // mutual: keep the earlier only
                }
                continue 'outer;
            }
        }
        kept.push(q.clone());
    }
    Uwdpt::new(kept.iter().map(Wdpt::from_cq).collect())
}

/// The `UWB(k)`-APPROXIMATION decision problem (Proposition 10): is `φ'` a
/// `UWB(k)`-approximation of `φ`? Checks `φ' ⊑ φ` and
/// `approx(φ) ⊑ φ'`.
pub fn is_uwb_approximation(
    phi2: &Uwdpt,
    phi: &Uwdpt,
    kind: WidthKind,
    k: usize,
    interner: &mut Interner,
) -> bool {
    if !uwdpt_subsumed(phi2, phi, Engine::Backtrack, interner) {
        return false;
    }
    let reference = uwb_approximation(phi, kind, k, interner);
    uwdpt_subsumed(&reference, phi2, Engine::Backtrack, interner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_core::WdptBuilder;
    use wdpt_model::parse::{parse_atoms, parse_database, parse_mapping};

    fn figure1_projected(i: &mut Interner) -> Wdpt {
        let root = parse_atoms(i, r#"rec_by(?x,?y) publ(?x,"after_2010")"#).unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, parse_atoms(i, "nme_rating(?x,?z)").unwrap());
        b.child(0, parse_atoms(i, "formed_in(?y,?z2)").unwrap());
        // Example 8 projection: {y, z, z2}.
        let free = ["y", "z", "z2"].iter().map(|n| i.var(n)).collect();
        b.build(free).unwrap()
    }

    #[test]
    fn example8_phi_cq() {
        // Example 8: φ_cq of the projected Figure 1 tree is the union of
        // exactly four CQs with heads (y), (y,z), (y,z2), (y,z,z2).
        let mut i = Interner::new();
        let phi = Uwdpt::singleton(figure1_projected(&mut i));
        let cqs = phi_cq(&phi);
        assert_eq!(cqs.len(), 4);
        let mut head_sizes: Vec<usize> = cqs.iter().map(|q| q.head().len()).collect();
        head_sizes.sort_unstable();
        assert_eq!(head_sizes, vec![1, 2, 2, 3]);
        let y = i.var("y");
        for q in &cqs {
            assert!(q.head().contains(&y));
        }
    }

    #[test]
    fn phi_is_equivalent_to_phi_cq() {
        // φ ≡ₛ φ_cq (Section 6) — checked semantically and on data.
        let mut i = Interner::new();
        let phi = Uwdpt::singleton(figure1_projected(&mut i));
        let as_union = Uwdpt::new(phi_cq(&phi).iter().map(Wdpt::from_cq).collect());
        assert!(uwdpt_equivalent(&phi, &as_union, Engine::Backtrack, &mut i));
        let db = parse_database(
            &mut i,
            r#"rec_by("Swim","Caribou") publ("Swim","after_2010") nme_rating("Swim","2")"#,
        )
        .unwrap();
        assert_eq!(phi.evaluate_max(&db), as_union.evaluate_max(&db));
    }

    #[test]
    fn union_evaluation_is_union_of_answers() {
        let mut i = Interner::new();
        let p1 = WdptBuilder::new(parse_atoms(&mut i, "a(?x)").unwrap())
            .build(vec![i.var("x")])
            .unwrap();
        let p2 = WdptBuilder::new(parse_atoms(&mut i, "b(?y)").unwrap())
            .build(vec![i.var("y")])
            .unwrap();
        let phi = Uwdpt::new(vec![p1, p2]);
        let db = parse_database(&mut i, "a(1) b(2)").unwrap();
        let ans = phi.evaluate(&db);
        assert_eq!(ans.len(), 2);
        let hx = parse_mapping(&mut i, "?x -> 1").unwrap();
        let hy = parse_mapping(&mut i, "?y -> 2").unwrap();
        assert!(phi.eval_decide(&db, &hx));
        assert!(phi.eval_decide(&db, &hy));
        assert!(phi.partial_eval_decide(&db, &Mapping::empty(), Engine::Backtrack));
    }

    #[test]
    fn union_max_eval_respects_cross_disjunct_extension() {
        let mut i = Interner::new();
        // p1 answers {x}; p2 answers {x, y} ⊒. Then {x↦1} is in φ(D) but
        // not maximal when p2 extends it.
        let p1 = WdptBuilder::new(parse_atoms(&mut i, "a(?x)").unwrap())
            .build(vec![i.var("x")])
            .unwrap();
        let p2 = WdptBuilder::new(parse_atoms(&mut i, "a(?x) b(?x,?y)").unwrap())
            .build(vec![i.var("x"), i.var("y")])
            .unwrap();
        let phi = Uwdpt::new(vec![p1, p2]);
        let db = parse_database(&mut i, "a(1) b(1,2)").unwrap();
        let hx = parse_mapping(&mut i, "?x -> 1").unwrap();
        let hxy = parse_mapping(&mut i, "?x -> 1, ?y -> 2").unwrap();
        assert!(phi.eval_decide(&db, &hx));
        assert!(!phi.max_eval_decide(&db, &hx, Engine::Backtrack));
        assert!(phi.max_eval_decide(&db, &hxy, Engine::Backtrack));
        let max = phi.evaluate_max(&db);
        assert_eq!(max, vec![hxy]);
    }

    #[test]
    fn reduced_phi_cq_drops_contained_cqs() {
        let mut i = Interner::new();
        // Two single-node disjuncts with the same head where one is
        // contained in the other.
        let strong = WdptBuilder::new(parse_atoms(&mut i, "e(?x,?y) e(?y,?w)").unwrap())
            .build(vec![i.var("x")])
            .unwrap();
        let weak = WdptBuilder::new(parse_atoms(&mut i, "e(?x,?z)").unwrap())
            .build(vec![i.var("x")])
            .unwrap();
        let phi = Uwdpt::new(vec![strong, weak]);
        let reduced = reduced_phi_cq(&phi, &mut i);
        assert_eq!(reduced.len(), 1);
        assert_eq!(reduced[0].body().len(), 1);
    }

    #[test]
    fn membership_in_m_uwb() {
        let mut i = Interner::new();
        // A triangle that folds (has a loop atom) is in M(UWB(1)).
        let foldable = WdptBuilder::new(
            parse_atoms(&mut i, "e(?x,?y) e(?y,?z) e(?z,?x) e(?w,?w) e(?x,?w)").unwrap(),
        )
        .build(vec![])
        .unwrap();
        let phi = Uwdpt::singleton(foldable);
        assert!(in_m_uwb(&phi, WidthKind::Tw, 1, &mut i));
        let witness = uwb_equivalent_union(&phi, WidthKind::Tw, 1, &mut i).unwrap();
        assert!(uwdpt_equivalent(&phi, &witness, Engine::Backtrack, &mut i));
        // A genuine triangle is not.
        let tri = WdptBuilder::new(parse_atoms(&mut i, "e(?x,?y) e(?y,?z) e(?z,?x)").unwrap())
            .build(vec![])
            .unwrap();
        assert!(!in_m_uwb(&Uwdpt::singleton(tri), WidthKind::Tw, 1, &mut i));
    }

    #[test]
    fn uwb_approximation_is_sound_and_accepted() {
        let mut i = Interner::new();
        let tri = WdptBuilder::new(parse_atoms(&mut i, "e(?x,?y) e(?y,?z) e(?z,?x)").unwrap())
            .build(vec![])
            .unwrap();
        let phi = Uwdpt::singleton(tri);
        let approx = uwb_approximation(&phi, WidthKind::Tw, 1, &mut i);
        assert!(uwdpt_subsumed(&approx, &phi, Engine::Backtrack, &mut i));
        assert!(is_uwb_approximation(
            &approx,
            &phi,
            WidthKind::Tw,
            1,
            &mut i
        ));
        // The original φ is NOT its own UWB(1)-approximation (not in the
        // class and not subsumed-equal)… the checker only requires φ' ⊑ φ
        // and approx ⊑ φ'; φ itself satisfies both, but is outside UWB(1).
        // The class membership is the caller's precondition, as in
        // Proposition 10's problem statement.
    }

    #[test]
    fn approximation_of_tractable_union_is_equivalent() {
        let mut i = Interner::new();
        let path = WdptBuilder::new(parse_atoms(&mut i, "e(?x,?y) e(?y,?z)").unwrap())
            .build(vec![i.var("x")])
            .unwrap();
        let phi = Uwdpt::singleton(path);
        let approx = uwb_approximation(&phi, WidthKind::Tw, 1, &mut i);
        assert!(uwdpt_equivalent(&phi, &approx, Engine::Backtrack, &mut i));
    }
}
