//! PARTIAL-EVAL and MAX-EVAL (Sections 3.3 and 3.4 of the paper).
//!
//! * **PARTIAL-EVAL** (Theorem 8): `h` extends to some answer iff the CQ of
//!   the minimal rooted subtree covering `dom(h)`, with `h` frozen, has a
//!   homomorphism. Under global tractability that CQ is in `TW(k)`/`HW(k)`,
//!   so the structured engines make this polynomial (LogCFL).
//! * **MAX-EVAL** (Theorem 9): with `A = {ĥ_x̄ : ĥ a homomorphism}` and
//!   `B = p(D)`, every homomorphism extends to a maximal one, so
//!   `max(A) = max(B) = p_m(D)`. Hence `h ∈ p_m(D)` iff (i) some
//!   homomorphism projects *exactly* to `h` — the minimal covering subtree
//!   has free variables exactly `dom(h)` and admits an `h`-consistent
//!   homomorphism — and (ii) no free variable outside `dom(h)` can be
//!   additionally bound. Both are hom-existence checks on subtree CQs.

use crate::engine::{self, Engine};
use crate::tree::{Subtree, Wdpt};
use std::collections::{BTreeMap, BTreeSet};
use wdpt_cq::{ConjunctiveQuery, StructuredPlan};
use wdpt_model::{Database, Mapping};

/// PARTIAL-EVAL: is there `h' ∈ p(D)` with `h ⊑ h'`?
pub fn partial_eval_decide(p: &Wdpt, db: &Database, h: &Mapping, engine: Engine) -> bool {
    partial_eval(p, db, h, engine, &mut BTreeMap::new())
}

/// [`partial_eval_decide`], the CQ of each minimal covering subtree
/// prepared once in `prepared` for every call that shares it.
pub(crate) fn partial_eval(
    p: &Wdpt,
    db: &Database,
    h: &Mapping,
    engine: Engine,
    prepared: &mut BTreeMap<Subtree, (ConjunctiveQuery, Option<StructuredPlan>)>,
) -> bool {
    let dom = h.domain();
    if !dom.is_subset(&p.free_set()) {
        return false;
    }
    let Some(t1) = p.minimal_subtree_covering(&dom) else {
        return false;
    };
    let (q, plan) = prepared.entry(t1).or_insert_with_key(|t1| {
        let q = p.cq_of_subtree(t1);
        let plan = engine.plan(&q);
        (q, plan)
    });
    engine::seeded(db, q.body(), plan.as_ref(), h, |_| false).exists()
}

/// MAX-EVAL: is `h ∈ p_m(D)` (an answer maximal under ⊑)?
pub fn max_eval_decide(p: &Wdpt, db: &Database, h: &Mapping, engine: Engine) -> bool {
    let free = p.free_set();
    let dom = h.domain();
    if !dom.is_subset(&free) {
        return false;
    }
    let Some(t1) = p.minimal_subtree_covering(&dom) else {
        return false;
    };
    // (i) some homomorphism projects exactly to h.
    if p.subtree_free_vars(&t1) != dom {
        return false;
    }
    if !engine.hom_exists(&p.cq_of_subtree(&t1), db, h) {
        return false;
    }
    // (ii) no extension to a further free variable.
    !has_proper_extension(p, db, h, engine)
}

/// Is there a homomorphism consistent with `h` that additionally binds some
/// free variable outside `dom(h)`? Equivalently: does some answer of `p`
/// over `db` *strictly* extend `h`? Used by MAX-EVAL (here and for unions
/// of WDPTs in `wdpt-approx`). Requires `dom(h) ⊆ x̄`; returns `false`
/// otherwise (no answer of `p` even covers `h`).
pub fn has_proper_extension(p: &Wdpt, db: &Database, h: &Mapping, engine: Engine) -> bool {
    let free = p.free_set();
    let dom = h.domain();
    if !dom.is_subset(&free) {
        return false;
    }
    // Free variables of one node share their minimal covering subtree: its
    // CQ is asked about once.
    let subtrees: BTreeSet<Subtree> = (free.difference(&dom))
        .filter_map(|&x| {
            let mut extended = dom.clone();
            extended.insert(x);
            p.minimal_subtree_covering(&extended)
        })
        .collect();
    (subtrees.iter()).any(|t1x| engine.hom_exists(&p.cq_of_subtree(t1x), db, h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::{evaluate, evaluate_max};
    use crate::tree::WdptBuilder;
    use wdpt_model::parse::{parse_atoms, parse_database, parse_mapping};
    use wdpt_model::Interner;

    fn figure1_projected(i: &mut Interner) -> (Wdpt, Database) {
        let root = parse_atoms(i, r#"rec_by(?x,?y) publ(?x,"after_2010")"#).unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, parse_atoms(i, "nme_rating(?x,?z)").unwrap());
        b.child(0, parse_atoms(i, "formed_in(?y,?z2)").unwrap());
        // Example 7 projection: free = {y, z}.
        let free = ["y", "z"].iter().map(|n| i.var(n)).collect();
        let p = b.build(free).unwrap();
        let db = parse_database(
            i,
            r#"rec_by("Our_love","Caribou") publ("Our_love","after_2010")
               rec_by("Swim","Caribou") publ("Swim","after_2010")
               nme_rating("Swim","2")"#,
        )
        .unwrap();
        (p, db)
    }

    #[test]
    fn partial_eval_accepts_prefixes_of_answers() {
        let mut i = Interner::new();
        let (p, db) = figure1_projected(&mut i);
        let y_only = parse_mapping(&mut i, r#"?y -> "Caribou""#).unwrap();
        let yz = parse_mapping(&mut i, r#"?y -> "Caribou", ?z -> "2""#).unwrap();
        let wrong = parse_mapping(&mut i, r#"?y -> "Nobody""#).unwrap();
        for engine in [Engine::Backtrack, Engine::Tw(1), Engine::Hw(1)] {
            assert!(partial_eval_decide(&p, &db, &y_only, engine));
            assert!(partial_eval_decide(&p, &db, &yz, engine));
            assert!(!partial_eval_decide(&p, &db, &wrong, engine));
            assert!(partial_eval_decide(&p, &db, &Mapping::empty(), engine));
        }
    }

    #[test]
    fn max_eval_matches_example7() {
        let mut i = Interner::new();
        let (p, db) = figure1_projected(&mut i);
        let mu1 = parse_mapping(&mut i, r#"?y -> "Caribou""#).unwrap();
        let mu2 = parse_mapping(&mut i, r#"?y -> "Caribou", ?z -> "2""#).unwrap();
        // p(D) = {μ1, μ2}, p_m(D) = {μ2} (Example 7).
        assert_eq!(evaluate(&p, &db).len(), 2);
        assert_eq!(evaluate_max(&p, &db), vec![mu2.clone()]);
        for engine in [Engine::Backtrack, Engine::Tw(1), Engine::Hw(1)] {
            assert!(!max_eval_decide(&p, &db, &mu1, engine));
            assert!(max_eval_decide(&p, &db, &mu2, engine));
        }
    }

    #[test]
    fn partial_and_max_agree_with_semantics_on_random_instances() {
        let mut state = 0x5eed_cafe_1234u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for case in 0..30 {
            let mut i = Interner::new();
            let e = i.pred("e");
            let f = i.pred("f");
            let mut db = wdpt_model::Database::new();
            for _ in 0..(4 + next() % 8) {
                let a = i.constant(&format!("c{}", next() % 4));
                let b = i.constant(&format!("c{}", next() % 4));
                db.insert(e, vec![a, b]);
                if next() % 2 == 0 {
                    db.insert(f, vec![b, a]);
                }
            }
            let x = i.var("x");
            let y = i.var("y");
            let z = i.var("z");
            let mut b = WdptBuilder::new(vec![wdpt_model::Atom::new(e, vec![x.into(), y.into()])]);
            b.child(
                0,
                vec![wdpt_model::Atom::new(
                    if next() % 2 == 0 { e } else { f },
                    vec![y.into(), z.into()],
                )],
            );
            let p = b.build(vec![x, y, z]).unwrap();
            let answers = evaluate(&p, &db);
            let max_answers = evaluate_max(&p, &db);
            // Probe every answer plus random prefixes.
            for h in &answers {
                assert!(partial_eval_decide(&p, &db, h, Engine::Backtrack));
                assert!(partial_eval_decide(&p, &db, h, Engine::Tw(1)));
                let expect_max = max_answers.contains(h);
                assert_eq!(
                    max_eval_decide(&p, &db, h, Engine::Backtrack),
                    expect_max,
                    "case {case}: max-eval mismatch for {h}"
                );
                assert_eq!(
                    max_eval_decide(&p, &db, h, Engine::Tw(1)),
                    expect_max,
                    "case {case}: structured max-eval mismatch for {h}"
                );
            }
            for _ in 0..6 {
                let mut probe = Mapping::empty();
                if next() % 2 == 0 {
                    probe.insert(x, i.constant(&format!("c{}", next() % 4)));
                }
                if next() % 2 == 0 {
                    probe.insert(y, i.constant(&format!("c{}", next() % 4)));
                }
                let expect_partial = answers.iter().any(|a| probe.subsumed_by(a));
                assert_eq!(
                    partial_eval_decide(&p, &db, &probe, Engine::Backtrack),
                    expect_partial,
                    "case {case}: partial-eval mismatch for {probe}"
                );
                assert_eq!(
                    partial_eval_decide(&p, &db, &probe, Engine::Tw(1)),
                    expect_partial,
                    "case {case}: structured partial-eval mismatch for {probe}"
                );
            }
        }
    }

    #[test]
    fn max_eval_rejects_non_exact_domains() {
        let mut i = Interner::new();
        let (p, db) = figure1_projected(&mut i);
        // z alone cannot be the exact projection: covering z requires the
        // rating node whose subtree also mentions free y... actually the
        // minimal subtree covering {z} includes the root, which mentions y.
        let z_only = parse_mapping(&mut i, r#"?z -> "2""#).unwrap();
        assert!(!max_eval_decide(&p, &db, &z_only, Engine::Backtrack));
        // But z alone IS a partial answer (μ2 extends it).
        assert!(partial_eval_decide(&p, &db, &z_only, Engine::Backtrack));
    }

    #[test]
    fn domain_outside_free_vars_is_rejected() {
        let mut i = Interner::new();
        let (p, db) = figure1_projected(&mut i);
        let x_bound = parse_mapping(&mut i, r#"?x -> "Swim""#).unwrap();
        assert!(!partial_eval_decide(&p, &db, &x_bound, Engine::Backtrack));
        assert!(!max_eval_decide(&p, &db, &x_bound, Engine::Backtrack));
    }
}
