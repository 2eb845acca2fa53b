//! Pluggable CQ-evaluation engines.
//!
//! The paper's tractability results are statements about *which algorithm a
//! class admits*: the same WDPT procedures (Theorems 6, 8, 9, 11) run on top
//! of a CQ hom-existence oracle that is the generic backtracking search for
//! arbitrary WDPTs, the `TW(k)` structured engine under (local/global)
//! treewidth bounds, or the `HW(k)` engine under hypertreewidth bounds.
//! [`Engine`] makes that choice explicit, so benchmarks can compare the
//! columns of Table 1 like-for-like.

use std::collections::BTreeSet;
use wdpt_cq::{
    backtrack,
    structured::{boolean_eval_structured, enumerate_projections, StructuredPlan},
    ConjunctiveQuery,
};
use wdpt_model::{Database, Mapping, Var};

/// The CQ evaluation strategy used inside WDPT procedures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Generic backtracking join (always applicable; exponential worst case).
    Backtrack,
    /// Decomposition-guided evaluation assuming treewidth ≤ k.
    Tw(usize),
    /// Decomposition-guided evaluation assuming hypertreewidth ≤ k.
    Hw(usize),
}

impl Engine {
    /// The decomposition the engine evaluates `q` over; `None` means
    /// backtracking. A query outside the engine's class (`wdpt check
    /// --engine tw:1` hands this user input) has no such decomposition and
    /// falls back to backtracking — always applicable, same verdict, no
    /// polynomial bound — counted in `core.engine.class_fallback` so a
    /// measurement can tell it did not time the structured engine.
    fn plan(self, q: &ConjunctiveQuery) -> Option<StructuredPlan> {
        let plan = match self {
            Engine::Backtrack => return None,
            Engine::Tw(k) => StructuredPlan::for_query_tw(q, k),
            Engine::Hw(k) => StructuredPlan::for_query_hw(q, k),
        };
        if plan.is_none() {
            wdpt_obs::counter!("core.engine.class_fallback").incr();
        }
        plan
    }

    /// Does a homomorphism from `q`'s body into `db` extending `seed` exist?
    pub fn hom_exists(self, q: &ConjunctiveQuery, db: &Database, seed: &Mapping) -> bool {
        match self.plan(q) {
            None => backtrack::extend_exists(db, q.body(), seed),
            Some(plan) => boolean_eval_structured(q, db, &plan, seed),
        }
    }

    /// Projections onto `targets` of the homomorphisms from `q`'s body into
    /// `db` extending `seed`. With a structured engine this enumerates the
    /// candidate product of `targets` and Boolean-checks each — polynomial
    /// for bounded `|targets|` (the Theorem 6 pattern).
    pub fn project(
        self,
        q: &ConjunctiveQuery,
        db: &Database,
        targets: &BTreeSet<Var>,
        seed: &Mapping,
    ) -> Vec<Mapping> {
        match self.plan(q) {
            None => {
                let mut out: BTreeSet<Mapping> = BTreeSet::new();
                for h in backtrack::extend_all(db, q.body(), seed) {
                    out.insert(h.restrict(targets));
                }
                out.into_iter().collect()
            }
            Some(plan) => enumerate_projections(q, db, &plan, targets, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_model::parse::{parse_atoms, parse_database};
    use wdpt_model::Interner;

    #[test]
    fn engines_agree_on_path_query() {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "e(a,b) e(b,c)").unwrap();
        let q = ConjunctiveQuery::boolean(parse_atoms(&mut i, "e(?x,?y) e(?y,?z)").unwrap());
        for engine in [Engine::Backtrack, Engine::Tw(1), Engine::Hw(1)] {
            assert!(engine.hom_exists(&q, &db, &Mapping::empty()));
        }
        let q2 = ConjunctiveQuery::boolean(parse_atoms(&mut i, "e(?x,?x)").unwrap());
        for engine in [Engine::Backtrack, Engine::Tw(1), Engine::Hw(1)] {
            assert!(!engine.hom_exists(&q2, &db, &Mapping::empty()));
        }
    }

    #[test]
    fn tw_engine_falls_back_on_wide_queries() {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "e(a,b) e(b,c) e(c,a)").unwrap();
        // The triangle has treewidth 2.
        let q =
            ConjunctiveQuery::boolean(parse_atoms(&mut i, "e(?x,?y) e(?y,?z) e(?z,?x)").unwrap());
        let (verdict, delta) =
            wdpt_obs::delta_scope(|| Engine::Tw(1).hom_exists(&q, &db, &Mapping::empty()));
        assert_eq!(
            verdict,
            Engine::Backtrack.hom_exists(&q, &db, &Mapping::empty())
        );
        assert!(verdict);
        assert_eq!(delta.counter("core.engine.class_fallback"), 1);
    }

    #[test]
    fn project_agrees_across_engines() {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "e(a,b) e(b,c) e(c,d)").unwrap();
        let q = ConjunctiveQuery::boolean(parse_atoms(&mut i, "e(?x,?y) e(?y,?z)").unwrap());
        let y = i.var("y");
        let targets: BTreeSet<Var> = [y].into_iter().collect();
        let mut a = Engine::Backtrack.project(&q, &db, &targets, &Mapping::empty());
        let mut b = Engine::Tw(1).project(&q, &db, &targets, &Mapping::empty());
        let mut c = Engine::Hw(1).project(&q, &db, &targets, &Mapping::empty());
        a.sort();
        b.sort();
        c.sort();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.len(), 2); // y ∈ {b, c}
    }
}
