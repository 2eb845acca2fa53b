//! Subsumption and subsumption-equivalence (Section 4 of the paper).
//!
//! `p ⊑ p'` iff over every database, every answer of `p` is extended by an
//! answer of `p'`. The canonical-database characterization (from Letelier
//! et al. [17], used by Theorem 11): `p ⊑ p'` iff for **every** rooted
//! subtree `T₁` of `p`, the identity mapping on the frozen free variables of
//! `T₁` is a *partial answer* of `p'` over the canonical database of
//! `q_{T₁}`.
//!
//! The outer loop over rooted subtrees of `p` is the co-nondeterminism of
//! the Π₂ᵖ/coNP upper bounds — exponential only in `|p|`. The inner check is
//! PARTIAL-EVAL, so it is polynomial whenever `p'` is globally tractable
//! (Theorem 11's asymmetry: only the *right-hand* tree needs restricting).

use crate::engine::Engine;
use crate::tree::Wdpt;
use crate::variants::partial_eval;
use std::collections::BTreeMap;
use wdpt_cq::containment::{freeze, frozen_floor};
use wdpt_model::{Interner, Mapping};

/// Decides `p1 ⊑ p2`. `engine` drives the PARTIAL-EVAL checks against
/// `p2` — use `Engine::Tw(k)`/`Engine::Hw(k)` when `p2 ∈ g-TW(k)/g-HW(k)`
/// for the coNP procedure of Theorem 11, or `Engine::Backtrack` for
/// arbitrary `p2`.
pub fn subsumed(p1: &Wdpt, p2: &Wdpt, engine: Engine, interner: &mut Interner) -> bool {
    let _span = wdpt_obs::span!("wdpt.subsumption.subsumed");
    // Stream the (exponentially many) rooted subtrees instead of
    // materializing them: memory stays linear and the first refuting
    // subtree short-circuits the remaining checks.
    let mut holds = true;
    // Every constant of `p1` and `p2` lies below the floor, so one floor
    // serves every subtree: each canonical database is dropped before the
    // next is frozen, and the table is never touched.
    let floor = frozen_floor(interner);
    // Each subtree CQ of `p2` the checks ask about is prepared once.
    let mut prepared = BTreeMap::new();
    p1.for_each_rooted_subtree(&mut |t1| {
        if !holds {
            return;
        }
        let q = p1.cq_of_subtree(t1);
        let (db, table) = freeze(&q, floor);
        let free_vars = p1.subtree_free_vars(t1);
        let h = Mapping::from_pairs(free_vars.iter().map(|&x| (x, table[&x])));
        if !partial_eval(p2, &db, &h, engine, &mut prepared) {
            holds = false;
        }
    });
    holds
}

/// Subsumption-equivalence `p1 ≡ₛ p2`: both `p1 ⊑ p2` and `p2 ⊑ p1`.
/// `engine1` is used when checking against `p1` (i.e. for `p2 ⊑ p1`) and
/// `engine2` when checking against `p2`.
pub fn subsumption_equivalent(
    p1: &Wdpt,
    p2: &Wdpt,
    engine1: Engine,
    engine2: Engine,
    interner: &mut Interner,
) -> bool {
    subsumed(p1, p2, engine2, interner) && subsumed(p2, p1, engine1, interner)
}

/// MAXEQUIVALENCE: `p ≡_max p'` — equal maximal-mapping semantics over every
/// database. By Proposition 5 this coincides with subsumption-equivalence,
/// so this is an alias for [`subsumption_equivalent`].
pub fn max_equivalent(
    p1: &Wdpt,
    p2: &Wdpt,
    engine1: Engine,
    engine2: Engine,
    interner: &mut Interner,
) -> bool {
    subsumption_equivalent(p1, p2, engine1, engine2, interner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::{evaluate, evaluate_max};
    use crate::tree::WdptBuilder;
    use wdpt_model::parse::{parse_atoms, parse_database};
    use wdpt_model::Interner;

    fn single(i: &mut Interner, head: &[&str], body: &str) -> Wdpt {
        let atoms = parse_atoms(i, body).unwrap();
        let free = head.iter().map(|n| i.var(n)).collect();
        WdptBuilder::new(atoms).build(free).unwrap()
    }

    #[test]
    fn cq_subsumption_reduces_to_containment() {
        let mut i = Interner::new();
        // Single-node WDPTs behave like CQs: longer path ⊑ shorter path.
        let p3 = single(&mut i, &["x"], "e(?x,?y) e(?y,?z) e(?z,?w)");
        let p1 = single(&mut i, &["x"], "e(?x,?y)");
        assert!(subsumed(&p3, &p1, Engine::Backtrack, &mut i));
        assert!(!subsumed(&p1, &p3, Engine::Backtrack, &mut i));
    }

    #[test]
    fn dropping_an_optional_branch_subsumes() {
        let mut i = Interner::new();
        // p1: just the root. p2: root plus an optional branch. Then
        // p1 ⊑ p2 (answers of p1 get extended) and also p2 ⊑ p1? No:
        // an answer of p2 defining y cannot be extended by p1 answers...
        // subsumption only requires h ⊑ h' — h' must define MORE. p2's
        // answers define y sometimes; p1's never do. So p2 ⋢ p1.
        let p1 = single(&mut i, &["x"], "a(?x)");
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, parse_atoms(&mut i, "b(?x,?y)").unwrap());
        let p2 = b.build(vec![i.var("x"), i.var("y")]).unwrap();
        assert!(subsumed(&p1, &p2, Engine::Backtrack, &mut i));
        assert!(!subsumed(&p2, &p1, Engine::Backtrack, &mut i));
    }

    #[test]
    fn identical_trees_are_subsumption_equivalent() {
        let mut i = Interner::new();
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, parse_atoms(&mut i, "b(?x,?y)").unwrap());
        let p = b.build(vec![i.var("x"), i.var("y")]).unwrap();
        assert!(subsumption_equivalent(
            &p.clone(),
            &p,
            Engine::Backtrack,
            Engine::Backtrack,
            &mut i
        ));
    }

    #[test]
    fn redundant_branch_is_subsumption_equivalent() {
        let mut i = Interner::new();
        // p2 has an extra optional branch that can never bind anything new
        // (same atom as the root), so p1 ≡ₛ p2.
        let p1 = single(&mut i, &["x"], "a(?x)");
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, parse_atoms(&mut i, "a(?x)").unwrap());
        let p2 = b.build(vec![i.var("x")]).unwrap();
        assert!(subsumption_equivalent(
            &p1,
            &p2,
            Engine::Backtrack,
            Engine::Backtrack,
            &mut i
        ));
    }

    #[test]
    fn subsumption_is_sound_on_concrete_databases() {
        // Whenever subsumed() accepts, verify the defining property on a
        // concrete database: every answer of p1 is extended by one of p2.
        let mut i = Interner::new();
        let p1 = single(&mut i, &["x"], "e(?x,?y) e(?y,?z)");
        let p2 = single(&mut i, &["x"], "e(?x,?y)");
        assert!(subsumed(&p1, &p2, Engine::Backtrack, &mut i));
        let db = parse_database(&mut i, "e(a,b) e(b,c) e(c,c)").unwrap();
        let a1 = evaluate(&p1, &db);
        let a2 = evaluate(&p2, &db);
        for h in &a1 {
            assert!(
                a2.iter().any(|h2| h.subsumed_by(h2)),
                "answer {h} not extended"
            );
        }
    }

    #[test]
    fn structured_engine_agrees_with_backtracking() {
        let mut i = Interner::new();
        let p1 = single(&mut i, &["x"], "e(?x,?y) e(?y,?z)");
        let p2 = single(&mut i, &["x"], "e(?x,?y)");
        assert_eq!(
            subsumed(&p1, &p2, Engine::Backtrack, &mut i),
            subsumed(&p1, &p2, Engine::Tw(1), &mut i),
        );
        assert_eq!(
            subsumed(&p2, &p1, Engine::Backtrack, &mut i),
            subsumed(&p2, &p1, Engine::Tw(1), &mut i),
        );
    }

    #[test]
    fn max_equivalence_alias_matches_semantics() {
        // Prop. 5 sanity: ≡ₛ trees have equal p_m(D) on a concrete database.
        let mut i = Interner::new();
        let p1 = single(&mut i, &["x"], "a(?x)");
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, parse_atoms(&mut i, "a(?x)").unwrap());
        let p2 = b.build(vec![i.var("x")]).unwrap();
        assert!(max_equivalent(
            &p1,
            &p2,
            Engine::Backtrack,
            Engine::Backtrack,
            &mut i
        ));
        let db = parse_database(&mut i, "a(1) a(2)").unwrap();
        assert_eq!(evaluate_max(&p1, &db), evaluate_max(&p2, &db));
    }

    #[test]
    fn free_variable_mismatch_blocks_subsumption() {
        let mut i = Interner::new();
        let p1 = single(&mut i, &["x"], "e(?x,?y)");
        let p2 = single(&mut i, &["y"], "e(?x,?y)");
        assert!(!subsumed(&p1, &p2, Engine::Backtrack, &mut i));
    }
}
