//! Differential tests: every specialized algorithm must agree with the
//! reference semantics on deterministically generated random instances.
//!
//! The instances are driven by the std-only [`wdpt::gen::Lcg`] PRNG (fixed
//! seeds, so every run explores the same cases) instead of an external
//! property-testing framework.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};
use wdpt::core::{
    eval_bounded_interface, eval_decide, max_eval_decide, partial_eval_decide, semantics,
    try_evaluate_parallel_planned, Engine, Wdpt, WdptBuilder,
};
use wdpt::cq::{backtrack, structured, ConjunctiveQuery};
use wdpt::gen::Lcg;
use wdpt::model::mapping::maximal_mappings;
use wdpt::model::{Atom, CancelToken, Database, Interner, Mapping, Var};

/// The engine counters are process-wide and the harness runs this binary's
/// tests on parallel threads: every test holds this lock, so the
/// `cq.nodes_expanded` deltas `parallel_evaluator_agrees_with_sequential`
/// compares contain its own work only.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A random fact list over `e/2`, `f/2` with constants `c0..c{dom}`:
/// triples `(predicate, subject, object)`.
fn random_facts(r: &mut Lcg, dom: usize, max_edges: usize) -> Vec<(u8, u8, u8)> {
    let n = 1 + r.gen_range(0..max_edges);
    (0..n)
        .map(|_| {
            (
                r.gen_range(0..2) as u8,
                r.gen_range(0..dom) as u8,
                r.gen_range(0..dom) as u8,
            )
        })
        .collect()
}

fn build_db(i: &mut Interner, facts: &[(u8, u8, u8)]) -> Database {
    let e = i.pred("e");
    let f = i.pred("f");
    let mut db = Database::new();
    for &(p, a, b) in facts {
        let pa = i.constant(&format!("c{a}"));
        let pb = i.constant(&format!("c{b}"));
        db.insert(if p == 0 { e } else { f }, vec![pa, pb]);
    }
    db
}

/// A random small CQ body over at most `nv` variables.
fn random_body(r: &mut Lcg, nv: usize, max_atoms: usize) -> Vec<(u8, u8, u8)> {
    let n = 1 + r.gen_range(0..max_atoms);
    (0..n)
        .map(|_| {
            (
                r.gen_range(0..2) as u8,
                r.gen_range(0..nv) as u8,
                r.gen_range(0..nv) as u8,
            )
        })
        .collect()
}

fn build_body(i: &mut Interner, spec: &[(u8, u8, u8)]) -> Vec<Atom> {
    let e = i.pred("e");
    let f = i.pred("f");
    spec.iter()
        .map(|&(p, a, b)| {
            let va = i.var(&format!("v{a}"));
            let vb = i.var(&format!("v{b}"));
            Atom::new(if p == 0 { e } else { f }, vec![va.into(), vb.into()])
        })
        .collect()
}

/// Structured TW evaluation agrees with backtracking on satisfiability.
#[test]
fn structured_tw_matches_backtracking() {
    let _serial = serial();
    let mut r = Lcg::new(0x7157_0001);
    for _case in 0..64 {
        let facts = random_facts(&mut r, 4, 12);
        let body = random_body(&mut r, 4, 5);
        let mut i = Interner::new();
        let db = build_db(&mut i, &facts);
        let q = ConjunctiveQuery::boolean(build_body(&mut i, &body));
        let reference = backtrack::extend_exists(&db, q.body(), &Mapping::empty());
        let plan = structured::StructuredPlan::for_query_tw(&q, 4).expect("≤4 vars");
        let got = structured::boolean_eval_structured(&q, &db, &plan, &Mapping::empty());
        assert_eq!(got, reference, "facts={facts:?} body={body:?}");
    }
}

/// Structured HW evaluation agrees with backtracking on satisfiability.
#[test]
fn structured_hw_matches_backtracking() {
    let _serial = serial();
    let mut r = Lcg::new(0x7157_0002);
    for _case in 0..64 {
        let facts = random_facts(&mut r, 4, 12);
        let body = random_body(&mut r, 4, 4);
        let mut i = Interner::new();
        let db = build_db(&mut i, &facts);
        let q = ConjunctiveQuery::boolean(build_body(&mut i, &body));
        let reference = backtrack::extend_exists(&db, q.body(), &Mapping::empty());
        let plan = structured::StructuredPlan::for_query_hw(&q, 4).expect("≤4 atoms");
        let got = structured::boolean_eval_structured(&q, &db, &plan, &Mapping::empty());
        assert_eq!(got, reference, "facts={facts:?} body={body:?}");
    }
}

/// EVAL decision procedures agree with the enumeration semantics, and the
/// Theorem 6 algorithm agrees with the general one.
#[test]
fn eval_procedures_agree() {
    let _serial = serial();
    let mut r = Lcg::new(0x7157_0003);
    for _case in 0..64 {
        let facts = random_facts(&mut r, 3, 10);
        let use_f = r.gen_bool(0.5);
        let deep = r.gen_bool(0.5);
        let mut i = Interner::new();
        let db = build_db(&mut i, &facts);
        let e = i.pred("e");
        let f = i.pred("f");
        let x = i.var("x");
        let u = i.var("u");
        let y = i.var("y");
        let z = i.var("z");
        let mut b = WdptBuilder::new(vec![Atom::new(e, vec![x.into(), u.into()])]);
        let c1 = b.child(
            0,
            vec![Atom::new(
                if use_f { f } else { e },
                vec![u.into(), y.into()],
            )],
        );
        if deep {
            b.child(c1, vec![Atom::new(e, vec![y.into(), z.into()])]);
        } else {
            b.child(0, vec![Atom::new(f, vec![u.into(), z.into()])]);
        }
        let p = b.build(vec![x, y, z]).unwrap();
        let answers = semantics::evaluate(&p, &db);
        // Every enumerated answer is accepted by both procedures…
        for h in &answers {
            assert!(eval_decide(&p, &db, h));
            assert!(eval_bounded_interface(&p, &db, h, Engine::Backtrack));
            assert!(eval_bounded_interface(&p, &db, h, Engine::Tw(1)));
        }
        // …and probes agree in both directions.
        let dom = db.active_domain().iter().copied().collect::<Vec<_>>();
        for &c0 in dom.iter().take(3) {
            let probe = Mapping::from_pairs(vec![(x, c0)]);
            let expected = answers.contains(&probe);
            assert_eq!(eval_decide(&p, &db, &probe), expected);
            assert_eq!(
                eval_bounded_interface(&p, &db, &probe, Engine::Backtrack),
                expected
            );
            for &c1 in dom.iter().take(2) {
                let probe2 = Mapping::from_pairs(vec![(x, c0), (y, c1)]);
                let expected2 = answers.contains(&probe2);
                assert_eq!(eval_decide(&p, &db, &probe2), expected2);
                assert_eq!(
                    eval_bounded_interface(&p, &db, &probe2, Engine::Tw(1)),
                    expected2
                );
            }
        }
    }
}

/// PARTIAL-EVAL matches the definition "∃ answer extending h", and
/// MAX-EVAL matches membership in p_m(D).
#[test]
fn partial_and_max_match_semantics() {
    let _serial = serial();
    let mut r = Lcg::new(0x7157_0004);
    for _case in 0..64 {
        let facts = random_facts(&mut r, 3, 10);
        let probe_x = r.gen_range(0..3);
        let probe_y = r.gen_range(0..3);
        let mut i = Interner::new();
        let db = build_db(&mut i, &facts);
        let e = i.pred("e");
        let f = i.pred("f");
        let x = i.var("x");
        let y = i.var("y");
        let z = i.var("z");
        let mut b = WdptBuilder::new(vec![Atom::new(e, vec![x.into(), y.into()])]);
        b.child(0, vec![Atom::new(f, vec![y.into(), z.into()])]);
        let p = b.build(vec![x, y, z]).unwrap();
        let answers = semantics::evaluate(&p, &db);
        let max_answers = semantics::evaluate_max(&p, &db);
        let cx = i.constant(&format!("c{probe_x}"));
        let cy = i.constant(&format!("c{probe_y}"));
        for probe in [
            Mapping::from_pairs(vec![(x, cx)]),
            Mapping::from_pairs(vec![(x, cx), (y, cy)]),
            Mapping::empty(),
        ] {
            let expect_partial = answers.iter().any(|a| probe.subsumed_by(a));
            assert_eq!(
                partial_eval_decide(&p, &db, &probe, Engine::Backtrack),
                expect_partial
            );
            assert_eq!(
                partial_eval_decide(&p, &db, &probe, Engine::Tw(1)),
                expect_partial
            );
            let expect_max = max_answers.contains(&probe);
            assert_eq!(
                max_eval_decide(&p, &db, &probe, Engine::Backtrack),
                expect_max
            );
            assert_eq!(max_eval_decide(&p, &db, &probe, Engine::Tw(1)), expect_max);
        }
    }
}

/// `p(D)` answers are pairwise consistent with Definition 2: every answer
/// is the projection of a maximal homomorphism.
#[test]
fn answers_are_projections_of_maximal_homs() {
    let _serial = serial();
    let mut r = Lcg::new(0x7157_0005);
    for _case in 0..64 {
        let facts = random_facts(&mut r, 3, 8);
        let mut i = Interner::new();
        let db = build_db(&mut i, &facts);
        let e = i.pred("e");
        let x = i.var("x");
        let y = i.var("y");
        let z = i.var("z");
        let mut b = WdptBuilder::new(vec![Atom::new(e, vec![x.into(), y.into()])]);
        b.child(0, vec![Atom::new(e, vec![y.into(), z.into()])]);
        let p: Wdpt = b.build(vec![x, z]).unwrap();
        let free: BTreeSet<Var> = p.free_set();
        let homs = semantics::maximal_homomorphisms(&p, &db);
        let answers = semantics::evaluate(&p, &db);
        for h in &homs {
            assert!(semantics::is_maximal_homomorphism(&p, &db, h));
            assert!(answers.contains(&h.restrict(&free)));
        }
    }
}

/// `p` with every variable free, so that `p(D)` *is* the set of maximal
/// homomorphisms.
fn projection_free(p: &Wdpt) -> Wdpt {
    let mut b = WdptBuilder::new(p.atoms(p.root()).to_vec());
    for t in 1..p.node_count() {
        // `parent(t) < t`, so the builder hands out the same ids again.
        b.child(p.parent(t).expect("non-root"), p.atoms(t).to_vec());
    }
    b.build(p.all_variables().into_iter().collect())
        .expect("freeing variables keeps a tree well-designed")
}

/// Every thread count of the one executor is answer-for-answer identical
/// to `evaluate` *and does the same backtracking work* — on the generator's
/// random well-designed trees (single-node ones included) over random graph
/// databases, across thread counts (including the auto-detecting `0` and
/// the inline `1`).
#[test]
fn parallel_evaluator_agrees_with_sequential() {
    let _serial = serial();
    let at = |p: &Wdpt, db: &Database, threads: usize| {
        try_evaluate_parallel_planned(p, db, threads, CancelToken::never(), None)
            .expect("the never token cannot cancel")
    };
    let mut r = Lcg::new(0x7157_0006);
    for case in 0..40 {
        let mut i = Interner::new();
        let (db, _) = wdpt::gen::random_graph_db(&mut i, 4, 3 + r.gen_range(0..12), 1000 + case);
        // `random_wdpt` uses e/2 and f/2; mirror some e-facts into f so the
        // optional branches are sometimes satisfiable.
        let mut db = db;
        let f = i.pred("f");
        let e_tuples: Vec<Vec<_>> = match db.relation(i.pred("e")) {
            Some(rel) => rel.tuples().map(|t| t.to_vec()).collect(),
            None => Vec::new(),
        };
        for t in e_tuples {
            if r.gen_bool(0.5) {
                db.insert(f, t);
            }
        }
        let p = wdpt::gen::random_wdpt(&mut i, 1 + r.gen_range(0..7), &mut r);
        let threads = r.gen_range(0..6);
        let (sequential, seq_work) = wdpt_obs::delta_scope(|| semantics::evaluate(&p, &db));
        let (parallel, par_work) = wdpt_obs::delta_scope(|| at(&p, &db, threads));
        assert_eq!(parallel, sequential, "case={case} threads={threads}");
        // The root's local homomorphisms are computed once on every path.
        assert_eq!(
            par_work.counter("cq.nodes_expanded"),
            seq_work.counter("cq.nodes_expanded"),
            "case={case} threads={threads}"
        );
        assert_eq!(
            maximal_mappings(parallel),
            semantics::evaluate_max(&p, &db),
            "case={case} threads={threads}"
        );
        assert_eq!(
            at(&projection_free(&p), &db, threads),
            semantics::maximal_homomorphisms(&p, &db),
            "case={case} threads={threads}"
        );
    }
}
