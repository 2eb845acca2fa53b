//! Pluggable CQ-evaluation engines.
//!
//! The paper's tractability results are statements about *which algorithm a
//! class admits*: the same WDPT procedures (Theorems 6, 8, 9, 11) run on top
//! of a CQ hom-existence oracle that is the generic backtracking search for
//! arbitrary WDPTs, the `TW(k)` structured engine under (local/global)
//! treewidth bounds, or the `HW(k)` engine under hypertreewidth bounds.
//! [`Engine`] makes that choice explicit, so benchmarks can compare the
//! columns of Table 1 like-for-like.
//!
//! A procedure has the engine prepare each CQ it asks about once — derive
//! its decomposition, or none for backtracking — and compiles it into one
//! [`wdpt_cq::Oracle`] that it decides under as many seeds as it needs.

use wdpt_cq::{ConjunctiveQuery, Oracle, StructuredPlan};
use wdpt_model::{Atom, Database, Mapping, Var};

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
    pub(crate) fn plan(self, q: &ConjunctiveQuery) -> Option<StructuredPlan> {
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
        seeded(db, q.body(), self.plan(q).as_ref(), seed, |_| false).exists()
    }
}

/// `atoms` compiled over `plan` with the variables `seed` defines — their
/// values written, a `Mapping` converted once — and those the caller will
/// write (`also`) as the seeded slots.
pub(crate) fn seeded<'a>(
    db: &'a Database,
    atoms: &'a [Atom],
    plan: Option<&StructuredPlan>,
    seed: &Mapping,
    also: impl Fn(Var) -> bool,
) -> Oracle<'a> {
    let mut oracle = Oracle::new(db, atoms, plan, |v| seed.defines(v) || also(v));
    for slot in 0..oracle.vars().len() {
        if let Some(c) = seed.get(oracle.vars()[slot]) {
            oracle.set(slot, c);
        }
    }
    oracle
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
        let projections = |engine: Engine| {
            let plan = engine.plan(&q);
            let mut oracle = Oracle::new(&db, q.body(), plan.as_ref(), |v| v == y);
            let slot = oracle.vars().binary_search(&y).unwrap();
            let mut rows = Vec::new();
            oracle.project(&[slot], |row| rows.push(row.to_vec()));
            rows
        };
        let a = projections(Engine::Backtrack);
        assert_eq!(a, projections(Engine::Tw(1)));
        assert_eq!(a, projections(Engine::Hw(1)));
        assert_eq!(a.len(), 2); // y ∈ {b, c}
    }
}
