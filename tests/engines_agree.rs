//! Differential tests: every specialized algorithm must agree with the
//! reference semantics on deterministically generated random instances.
//!
//! The instances are driven by the std-only [`wdpt::gen::Lcg`] PRNG (fixed
//! seeds, so every run explores the same cases) instead of an external
//! property-testing framework.

use std::collections::BTreeSet;
use std::sync::{Barrier, Mutex, MutexGuard};
use wdpt::core::{
    eval_bounded_interface, eval_decide, evaluate_rows, is_globally_in, is_locally_in,
    max_eval_decide, partial_eval_decide, plan_wdpt, semantics, try_evaluate_parallel_planned,
    Engine, EvalTally, Wdpt, WdptBuilder, WidthKind,
};
use wdpt::cq::{backtrack, in_hw, in_tw, structured, ConjunctiveQuery, Oracle};
use wdpt::gen::Lcg;
use wdpt::model::mapping::maximal_mappings;
use wdpt::model::{
    Atom, CancelToken, Cancelled, Const, Database, Interner, Mapping, Relation, Term, Var,
};
use wdpt::plan::{StatsCatalog, Strategy};

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
        let reference = !backtrack::extend_all(&db, q.body(), &Mapping::empty()).is_empty();
        let plan = structured::StructuredPlan::for_query_tw(&q, 4).expect("≤4 vars");
        let got = Oracle::new(&db, q.body(), Some(&plan), |_| false).exists();
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
        let reference = !backtrack::extend_all(&db, q.body(), &Mapping::empty()).is_empty();
        let plan = structured::StructuredPlan::for_query_hw(&q, 4).expect("≤4 atoms");
        let got = Oracle::new(&db, q.body(), Some(&plan), |_| false).exists();
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

/// A random term over the variables in `pool`: mostly a variable, now and
/// then one of the constants `c0..c{dom}`.
fn random_term(i: &mut Interner, r: &mut Lcg, pool: &[Var], dom: usize) -> Term {
    if r.gen_bool(0.15) {
        i.constant(&format!("c{}", r.gen_range(0..dom))).into()
    } else {
        pool[r.gen_range(0..pool.len())].into()
    }
}

/// A random well-designed tree built to corner the executor: `nodes` ≥ 4
/// nodes of which the first four form a chain (depth 3); every node below
/// the root takes its interface from its parent's variables only (which is
/// what keeps occurrences connected) and adds up to two of its own; atoms
/// range over `e/2`, `f/2`, the ternary `t/3`, the empty relation `g/2` and
/// the absent `missing/2`, with constants and with variables repeated
/// inside an atom; a random half of the variables is free, so interface
/// variables are often projected away. Variable ids are handed out in a
/// shuffled order, so the canonical order of the answers is unrelated to
/// the shape of the tree.
fn adversarial_wdpt(i: &mut Interner, r: &mut Lcg, nodes: usize, dom: usize) -> Wdpt {
    let mut names: Vec<usize> = (0..2 * nodes).collect();
    for k in (1..names.len()).rev() {
        names.swap(k, r.gen_range(0..k + 1));
    }
    for k in &names {
        i.var(&format!("v{k}"));
    }
    let preds = [
        (i.pred("e"), 2),
        (i.pred("f"), 2),
        (i.pred("t"), 3),
        (i.pred("g"), 2),
        (i.pred("missing"), 2),
    ];
    let mut fresh_vars = 0;
    let mut node_vars: Vec<Vec<Var>> = Vec::new();
    let mut builder: Option<WdptBuilder> = None;
    for t in 0..nodes {
        let parent = match t {
            0 => None,
            1..=3 => Some(t - 1),
            _ => Some(r.gen_range(0..t)),
        };
        let mut pool: Vec<Var> = Vec::new();
        if let Some(parent) = parent {
            let from = &node_vars[parent];
            for _ in 0..1 + r.gen_range(0..2) {
                let v = from[r.gen_range(0..from.len())];
                if !pool.contains(&v) {
                    pool.push(v);
                }
            }
        }
        for _ in 0..1 + r.gen_range(0..2) {
            pool.push(i.var(&format!("v{fresh_vars}")));
            fresh_vars += 1;
        }
        let mut atoms = Vec::new();
        for _ in 0..1 + r.gen_range(0..3) {
            // The empty and the absent relation are rare: they kill a
            // subtree, which is the point, but never the root.
            let dead = t > 0 && r.gen_bool(0.1);
            let (pred, arity) = preds[if dead {
                3 + r.gen_range(0..2)
            } else {
                r.gen_range(0..3)
            }];
            let args = (0..arity).map(|_| random_term(i, r, &pool, dom)).collect();
            atoms.push(Atom::new(pred, args));
        }
        // What the node really mentions, which is all a child may inherit.
        let mut mentioned: Vec<Var> = atoms.iter().flat_map(Atom::vars).collect();
        mentioned.sort_unstable();
        mentioned.dedup();
        if mentioned.is_empty() {
            atoms.push(Atom::new(preds[0].0, vec![pool[0].into(), pool[0].into()]));
            mentioned.push(pool[0]);
        }
        node_vars.push(mentioned);
        match (&mut builder, parent) {
            (None, _) => builder = Some(WdptBuilder::new(atoms)),
            (Some(b), Some(parent)) => {
                b.child(parent, atoms);
            }
            (Some(_), None) => unreachable!("only node 0 has no parent"),
        }
    }
    let mut all: Vec<Var> = node_vars.into_iter().flatten().collect();
    all.sort_unstable();
    all.dedup();
    let free = all.into_iter().filter(|_| r.gen_bool(0.5)).collect();
    builder
        .expect("nodes >= 1")
        .build(free)
        .expect("children only inherit variables their parent mentions")
}

/// A random database over `e/2`, `f/2`, `t/3` with constants `c0..c{dom}`
/// holding about half of all possible tuples — dense enough that many
/// contexts share an interface value — plus the relation `g/2` with no
/// tuples at all.
fn adversarial_db(i: &mut Interner, r: &mut Lcg, dom: usize) -> Database {
    let mut db =
        Database::from_sorted(vec![(i.pred("g"), Relation::from_sorted(2, 0, Vec::new()))]);
    for (name, arity) in [("e", 2), ("f", 2), ("t", 3)] {
        let pred = i.pred(name);
        for code in 0..dom.pow(arity) {
            if r.gen_bool(0.5) {
                let tuple = (0..arity)
                    .map(|k| i.constant(&format!("c{}", code / dom.pow(k) % dom)))
                    .collect();
                db.insert(pred, tuple);
            }
        }
    }
    db
}

/// A run's three work counts are what it added to the process-wide
/// counters — `global` being the `delta_scope` of that run alone, which
/// [`serial`] makes it.
fn assert_counted_globally(tally: &EvalTally, global: &wdpt_obs::MetricsSnapshot, what: &str) {
    assert_eq!(
        [
            tally.nodes_expanded,
            tally.index_probes,
            tally.tuples_scanned
        ],
        ["cq.nodes_expanded", "db.index_probes", "db.tuples_scanned"]
            .map(|name| global.counter(name)),
        "{what}"
    );
}

/// What one case of the oracle comparison reached.
struct Reached {
    /// Some answer leaves a free variable unbound: an OPT branch dropped.
    partial: bool,
    /// Some node is reached by more contexts than interface valuations.
    shared: bool,
    /// Searches run on worker threads, summed over the threads = 4 runs.
    fanned_out: u64,
    /// The shuffled plan is neither enumerator's.
    reordered: bool,
    /// Which rows a limit below the answer count leaves the executor to
    /// build.
    built: Built,
}

/// The three cases of the executor's `limit`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Built {
    /// Projection-free, the smallest variable at the root: the extensions
    /// of the root rows up to the `v0` group the limit falls in.
    Prefix,
    /// Projection-free, the smallest variable below the root: every row.
    BelowRoot,
    /// Some variable projected away: every row.
    Projected,
}

/// The executor against `oracle` — `p(D)` computed some other way, in the
/// canonical order — under no plan, under each enumerator's plan and under
/// a plan whose every node order is a permutation shuffled from `seed` (no
/// enumerator's taste narrows what is checked), on one thread and on four:
/// the same mappings *in the same order*, and the same [`EvalTally`] on four
/// threads as on one. The tally counts a node's local homomorphisms once
/// per ancestor context, whether or not that context's interface valuation
/// had been evaluated before — which is the number of homomorphisms of the
/// root-to-node path, counted here by the CQ engine — and its three work
/// counts are what the run added to the process-wide counters (every test
/// of this binary holds [`serial`], so the deltas are the run's alone): the
/// local and the global count cannot drift apart. Asked to build only the
/// first `limit` rows, at every `limit` around the answer count, each run
/// still counts every answer, holds the first `min(len, limit)` rows of
/// the whole table and does the same work.
fn check_executor(p: &Wdpt, db: &Database, oracle: &[Mapping], case: &str, seed: u64) -> Reached {
    let never = CancelToken::never();
    let free = p.free_set();
    let path_homs: Vec<Vec<Mapping>> = (0..p.node_count())
        .map(|t| {
            let mut path: Vec<Atom> = Vec::new();
            let mut node = Some(t);
            while let Some(n) = node {
                path.extend_from_slice(p.atoms(n));
                node = p.parent(n);
            }
            backtrack::extend_all(db, &path, &Mapping::empty())
        })
        .collect();
    let mut reached = Reached {
        partial: oracle.iter().any(|h| h.len() < free.len()),
        shared: (1..p.node_count()).any(|t| {
            let contexts = &path_homs[p.parent(t).expect("not the root")];
            let interface = p.node_vars(t);
            let keys: BTreeSet<Mapping> = contexts.iter().map(|h| h.restrict(&interface)).collect();
            keys.len() < contexts.len()
        }),
        fanned_out: 0,
        reordered: false,
        built: match p.all_variables() {
            every if !free.is_superset(&every) => Built::Projected,
            every
                if p.node_vars(p.root())
                    .contains(every.first().expect("no tree is bare")) =>
            {
                Built::Prefix
            }
            _ => Built::BelowRoot,
        },
    };

    let stats = StatsCatalog::build(db);
    let [greedy, dp] = [Strategy::Greedy, Strategy::Dp]
        .map(|strategy| plan_wdpt(p, &stats, strategy, never).expect("never cancels"));
    let mut shuffled = greedy.clone();
    let mut r = Lcg::new(seed);
    for node in &mut shuffled.nodes {
        // Fisher–Yates.
        for k in (1..node.order.len()).rev() {
            node.order.swap(k, r.gen_range(0..k + 1));
        }
    }
    reached.reordered = shuffled != greedy && shuffled != dp;
    let plans = [
        ("none", None),
        ("greedy", Some(&greedy)),
        ("dp", Some(&dp)),
        ("shuffled", Some(&shuffled)),
    ];
    for (name, plan) in plans {
        let mut on_one_thread: Option<EvalTally> = None;
        for threads in [1, 4] {
            let what = format!("case={case} plan={name} threads={threads}");
            let ((answers, tally), global) =
                wdpt_obs::delta_scope(|| evaluate_rows(p, db, threads, never, plan, usize::MAX));
            // The table's own invariants, before it is viewed as mappings:
            // the header is the free variables (each occurs in the tree),
            // ascending, and the rows are strictly ascending as the mappings
            // they stand for — sorted and distinct.
            let table = answers.expect("never cancels");
            assert!(table.vars().windows(2).all(|w| w[0] < w[1]), "{what}");
            assert!(table.vars().iter().eq(free.iter()), "{what}");
            assert_eq!(table.len(), oracle.len(), "{what}");
            let view = |r: usize| {
                let cells = table.vars().iter().zip(table.row(r));
                Mapping::from_pairs(cells.filter_map(|(&v, cell)| cell.map(|c| (v, c))))
            };
            for r in 1..table.len() {
                assert!(view(r - 1) < view(r), "{what}: rows {} and {r}", r - 1);
            }
            let len = table.len();
            for limit in [0, 1, 2, len.saturating_sub(1), len, len + 1, usize::MAX] {
                let (first, first_tally) = evaluate_rows(p, db, threads, never, plan, limit);
                let first = first.expect("never cancels");
                let what = format!("{what} limit={limit}");
                assert_eq!(first.vars(), table.vars(), "{what}");
                assert_eq!(first.len(), len, "{what}");
                let held = len.min(limit);
                assert!((0..held).all(|r| first.row(r) == table.row(r)), "{what}");
                assert_eq!(first.into_mappings().len(), held, "{what}");
                assert_eq!(first_tally, tally, "{what}");
            }
            assert_eq!(table.into_mappings(), oracle, "{what}");
            let expected: Vec<u64> = path_homs.iter().map(|h| h.len() as u64).collect();
            assert_eq!(tally.homs, expected, "{what}");
            assert_counted_globally(&tally, &global, &what);
            let tasks = global.counter("wdpt.parallel_tasks");
            if threads == 1 {
                assert_eq!(tasks, 0, "{what}");
            }
            reached.fanned_out += tasks;
            assert_eq!(*on_one_thread.get_or_insert(tally.clone()), tally, "{what}");
        }
    }
    reached
}

/// The executor against Definition 2 read literally — every homomorphism of
/// every rooted subtree, those no other one properly extends, projected —
/// on trees and databases built to reach its corners (see
/// [`adversarial_wdpt`]). They are small — this oracle is quadratic in an
/// exponential — so every node has a handful of keys and four threads run
/// like one; [`fanned_out_executor_agrees_with_the_local_oracle`] is where
/// the workers run.
#[test]
fn executor_agrees_with_the_naive_oracle() {
    let _serial = serial();
    let mut r = Lcg::new(0x7157_0007);
    let (mut partial, mut shared, mut reordered) = (0, 0, 0);
    let mut built = Vec::new();
    for case in 0..80 {
        let mut i = Interner::new();
        let dom = 2 + r.gen_range(0..2);
        let db = adversarial_db(&mut i, &mut r, dom);
        let nodes = 4 + r.gen_range(0..4);
        let p = adversarial_wdpt(&mut i, &mut r, nodes, dom);
        assert!((0..p.node_count()).any(|t| p.depth(t) >= 3));
        let free = p.free_set();
        let maximal: Vec<Mapping> = semantics::all_homomorphisms(&p, &db)
            .into_iter()
            .filter(|h| semantics::is_maximal_homomorphism(&p, &db, h))
            .collect();
        let mut oracle: Vec<Mapping> = maximal.iter().map(|h| h.restrict(&free)).collect();
        oracle.sort();
        oracle.dedup();
        let reached = check_executor(&p, &db, &oracle, &case.to_string(), case as u64);
        partial += usize::from(reached.partial);
        shared += usize::from(reached.shared);
        reordered += usize::from(reached.reordered);
        built.push(reached.built);
        // Every variable free: the answers are the maximal homomorphisms
        // (ascending, as `all_homomorphisms` lists them).
        let free_case = format!("{case} projection-free");
        let reached = check_executor(&projection_free(&p), &db, &maximal, &free_case, case as u64);
        built.push(reached.built);
    }
    // The generator reaches what it was built to reach.
    assert!(partial >= 8, "only {partial} cases dropped an OPT branch");
    assert!(
        shared >= 8,
        "only {shared} cases shared an interface valuation"
    );
    assert!(reordered >= 40, "only {reordered} shuffled plans were new");
    for case in [Built::Prefix, Built::BelowRoot, Built::Projected] {
        let n = built.iter().filter(|&&b| b == case).count();
        assert!(n >= 8, "only {n} trees of case {case:?}");
    }
}

/// A chain of depth 3 with up to two more nodes hung at random, every node
/// one binary atom joining a variable of its parent to a new one (either
/// way round), or that atom and a `t/3` atom pinning the new variable next
/// to a constant; a random half of the variables is free.
fn wide_wdpt(i: &mut Interner, r: &mut Lcg, dom: usize) -> Wdpt {
    let (e, f, t) = (i.pred("e"), i.pred("f"), i.pred("t"));
    let mut node_vars = vec![vec![i.var("w0"), i.var("w1")]];
    let root: Vec<Term> = node_vars[0].iter().map(|&v| v.into()).collect();
    let mut builder = WdptBuilder::new(vec![Atom::new(e, root)]);
    for node in 1..4 + r.gen_range(0..3) {
        let parent = if node < 4 {
            node - 1
        } else {
            r.gen_range(0..node)
        };
        let shared = node_vars[parent][r.gen_range(0..2)];
        let fresh = i.var(&format!("w{}", node + 1));
        let mut args: Vec<Term> = vec![shared.into(), fresh.into()];
        if r.gen_bool(0.5) {
            args.reverse();
        }
        let mut atoms = vec![Atom::new(if r.gen_bool(0.5) { e } else { f }, args)];
        if r.gen_bool(0.25) {
            let c = i.constant(&format!("c{}", r.gen_range(0..dom)));
            atoms.push(Atom::new(t, vec![fresh.into(), fresh.into(), c.into()]));
        }
        builder.child(parent, atoms);
        node_vars.push(vec![shared, fresh]);
    }
    let mut all: Vec<Var> = node_vars.into_iter().flatten().collect();
    all.sort_unstable();
    all.dedup();
    let free = all.into_iter().filter(|_| r.gen_bool(0.5)).collect();
    builder
        .build(free)
        .expect("each new variable hangs below its node")
}

/// `e/2` and `f/2` as sparse random graphs over `c0..c{dom}` — three edges
/// for every two constants, so a level of the tree has hundreds of distinct
/// interface values and the path homomorphisms stay countable — and `t/3`
/// with `(c, c, c')` for a few hundred random pairs.
fn wide_db(i: &mut Interner, r: &mut Lcg, dom: usize) -> Database {
    let (e, f, t) = (i.pred("e"), i.pred("f"), i.pred("t"));
    let mut constant = |r: &mut Lcg| i.constant(&format!("c{}", r.gen_range(0..dom)));
    let mut db = Database::new();
    for pred in [e, f] {
        for _ in 0..dom * 3 / 2 {
            db.insert(pred, vec![constant(r), constant(r)]);
        }
    }
    for _ in 0..dom / 2 {
        let (c, other) = (constant(r), constant(r));
        db.insert(t, vec![c, c, other]);
    }
    db
}

/// The same comparison where the workers do run: sparse databases over a
/// thousand constants, so that every level of the tree is evaluated under
/// hundreds of distinct interface values and four threads share them out.
/// Comparing every homomorphism with every other is out of reach at this
/// size, so maximality is checked the local way: a homomorphism of the
/// rooted subtree `T'` is maximal iff it extends into no node just below
/// `T'` (anything properly above it is a homomorphism of a larger rooted
/// subtree, which contains such a node).
#[test]
fn fanned_out_executor_agrees_with_the_local_oracle() {
    let _serial = serial();
    let mut r = Lcg::new(0x7157_00fa);
    for case in 0..4 {
        let mut i = Interner::new();
        let dom = 1000;
        let db = wide_db(&mut i, &mut r, dom);
        let p = wide_wdpt(&mut i, &mut r, dom);
        assert!((0..p.node_count()).any(|t| p.depth(t) >= 3));

        let free = p.free_set();
        let mut oracle: Vec<Mapping> = Vec::new();
        p.for_each_rooted_subtree(&mut |subtree| {
            let below: Vec<usize> = (1..p.node_count())
                .filter(|c| !subtree.contains(c))
                .filter(|&c| subtree.contains(&p.parent(c).expect("not the root")))
                .collect();
            let body = p.cq_of_subtree(subtree);
            for h in backtrack::extend_all(&db, body.body(), &Mapping::empty()) {
                if !below
                    .iter()
                    .any(|&c| !backtrack::extend_all(&db, p.atoms(c), &h).is_empty())
                {
                    oracle.push(h.restrict(&free));
                }
            }
        });
        oracle.sort();
        oracle.dedup();

        let reached = check_executor(&p, &db, &oracle, &format!("wide {case}"), case as u64);
        assert!(reached.shared, "wide {case}");
        // Under each of the four plans, at least the root's children.
        assert!(
            reached.fanned_out >= 4 * 512,
            "wide {case}: {} searches on worker threads",
            reached.fanned_out
        );
    }
}

/// A tally belongs to its run. Eight threads evaluate eight different wide
/// cases at once (half of them fanning out over workers of their own),
/// three rounds, released together by a barrier; every tally equals the one
/// the case produces alone. Read through a recorder's before/after diff of
/// the process-wide counters — what a served request's `nodes_expanded` was
/// until this test was written — two overlapping evaluations of Figure 1
/// got the wrong count in 14 to 100 of 100 runs, as the scheduler let them
/// overlap (EXPERIMENTS.md, "A request counts its own work").
#[test]
fn tallies_are_exact_under_concurrency() {
    let _serial = serial();
    let mut r = Lcg::new(0x7157_00cc);
    let cases: Vec<(Wdpt, Database, usize)> = (0..8)
        .map(|k| {
            let mut i = Interner::new();
            let db = wide_db(&mut i, &mut r, 400);
            (wide_wdpt(&mut i, &mut r, 400), db, [1, 4][k % 2])
        })
        .collect();
    let tally_of = |(p, db, threads): &(Wdpt, Database, usize)| {
        let (answers, tally) =
            evaluate_rows(p, db, *threads, CancelToken::never(), None, usize::MAX);
        answers.expect("never cancels");
        tally
    };
    let alone: Vec<EvalTally> = cases.iter().map(tally_of).collect();
    assert!(alone.iter().all(|t| t.nodes_expanded > 0));
    for round in 0..3 {
        let start = Barrier::new(cases.len());
        let together: Vec<EvalTally> = std::thread::scope(|s| {
            let running: Vec<_> = cases
                .iter()
                .map(|case| {
                    s.spawn(|| {
                        start.wait();
                        tally_of(case)
                    })
                })
                .collect();
            running
                .into_iter()
                .map(|h| h.join().expect("evaluation thread"))
                .collect()
        });
        assert_eq!(together, alone, "round {round}");
    }
}

/// What a cancelled run hands back beside its `Err` is what it did: the
/// three work counts equal what the partial run added to the process-wide
/// counters. An expired deadline nobody has latched is noticed at a
/// search's 1024th step, whatever the clock reads — inside the root's
/// search, which has 1500 tuples to go through.
#[test]
fn a_cancelled_run_counts_the_work_it_did() {
    let _serial = serial();
    let mut r = Lcg::new(0x7157_00ca);
    let mut i = Interner::new();
    let db = wide_db(&mut i, &mut r, 1000);
    let p = wide_wdpt(&mut i, &mut r, 1000);
    for threads in [1, 4] {
        let ((answers, tally), global) = wdpt_obs::delta_scope(|| {
            let expired = CancelToken::with_deadline(std::time::Duration::ZERO);
            evaluate_rows(&p, &db, threads, &expired, None, usize::MAX)
        });
        assert_eq!(answers.err(), Some(Cancelled), "threads={threads}");
        assert_eq!(tally.homs.len(), p.node_count());
        assert!(tally.nodes_expanded > 0 && tally.tuples_scanned > 0);
        assert_counted_globally(&tally, &global, &format!("threads={threads}"));
    }
}

/// `p(D)` by Definition 2 read literally — every homomorphism of every
/// rooted subtree, those no other one properly extends, projected — in the
/// canonical order.
fn naive_answers(p: &Wdpt, db: &Database) -> Vec<Mapping> {
    let free = p.free_set();
    let mut answers: Vec<Mapping> = semantics::all_homomorphisms(p, db)
        .iter()
        .filter(|h| semantics::is_maximal_homomorphism(p, db, h))
        .map(|h| h.restrict(&free))
        .collect();
    answers.sort();
    answers.dedup();
    answers
}

/// A mapping of a random half of the `vars` that `keep` accepts, each to a
/// random one of `constants`.
fn random_mapping(
    r: &mut Lcg,
    vars: impl IntoIterator<Item = Var>,
    constants: &[Const],
    keep: impl Fn(Var) -> bool,
) -> Mapping {
    let mut pairs = Vec::new();
    for v in vars {
        if keep(v) && r.gen_bool(0.5) {
            pairs.push((v, constants[r.gen_range(0..constants.len())]));
        }
    }
    Mapping::from_pairs(pairs)
}

/// The projections onto `targets` of the homomorphisms of `q` extending
/// `seed`, as `engine` computes them, in ascending order.
fn projections(
    engine: Engine,
    q: &ConjunctiveQuery,
    db: &Database,
    targets: &BTreeSet<Var>,
    seed: &Mapping,
) -> Vec<Mapping> {
    let plan = match engine {
        Engine::Backtrack => None,
        Engine::Tw(k) => structured::StructuredPlan::for_query_tw(q, k),
        Engine::Hw(k) => structured::StructuredPlan::for_query_hw(q, k),
    };
    let seeded = |v: Var| seed.defines(v) || targets.contains(&v);
    let mut oracle = Oracle::new(db, q.body(), plan.as_ref(), seeded);
    let vars = oracle.vars().to_vec();
    for (slot, &v) in vars.iter().enumerate() {
        if let Some(c) = seed.get(v) {
            oracle.set(slot, c);
        }
    }
    let slots: Vec<usize> = (0..vars.len())
        .filter(|&s| targets.contains(&vars[s]))
        .collect();
    let mut out = Vec::new();
    oracle.project(&slots, |row| {
        out.push(Mapping::from_pairs(
            slots.iter().map(|&s| vars[s]).zip(row.iter().copied()),
        ));
    });
    out
}

/// The paper's decision procedures sideways, across engines: on random
/// trees and databases built to reach the executor's corners
/// ([`adversarial_wdpt`]), Theorem 6 under every engine whose class holds
/// every node label (`ℓ-TW(1)`, `ℓ-HW(1)`) and PARTIAL-EVAL / MAX-EVAL
/// (Theorems 8, 9) under every engine whose class holds every rooted subtree
/// (`g-TW(1)`, `g-HW(1)`) agree with the naive oracle on every answer and on
/// random mappings, without an in-class engine ever falling back to
/// backtracking; and every engine whose class holds a node label projects
/// it onto the variables it shares with its neighbours exactly as
/// backtracking does.
#[test]
fn decision_procedures_agree_with_the_naive_oracle_under_every_engine() {
    let _serial = serial();
    let mut r = Lcg::new(0x7157_0008);
    let classes = [
        (WidthKind::Tw, Engine::Tw(1)),
        (WidthKind::Hw, Engine::Hw(1)),
    ];
    // Trees in ℓ-TW(1), ℓ-HW(1), g-TW(1), g-HW(1).
    let mut in_class = [0usize; 4];
    // Node labels projected under a structured engine.
    let mut projected = 0;
    for case in 0..100 {
        let mut i = Interner::new();
        let dom = 2 + r.gen_range(0..2);
        let db = adversarial_db(&mut i, &mut r, dom);
        let nodes = 2 + r.gen_range(0..3);
        let p = adversarial_wdpt(&mut i, &mut r, nodes, dom);
        let constants: Vec<_> = (0..dom).map(|k| i.constant(&format!("c{k}"))).collect();
        let answers = naive_answers(&p, &db);
        let maximal = maximal_mappings(answers.clone());
        let mut local = vec![Engine::Backtrack];
        let mut global = vec![Engine::Backtrack];
        for (k, &(kind, engine)) in classes.iter().enumerate() {
            if is_locally_in(&p, kind, 1) {
                local.push(engine);
                in_class[k] += 1;
            }
            if is_globally_in(&p, kind, 1) {
                global.push(engine);
                in_class[2 + k] += 1;
            }
        }
        let mut probes = answers.clone();
        for _ in 0..answers.len().max(4) {
            probes.push(random_mapping(&mut r, p.free_set(), &constants, |_| true));
        }
        let ((), work) = wdpt_obs::delta_scope(|| {
            for h in &probes {
                let what = format!("case={case} h={h}");
                let answer = answers.binary_search(h).is_ok();
                for &engine in &local {
                    let got = eval_bounded_interface(&p, &db, h, engine);
                    assert_eq!(got, answer, "{what} {engine:?}");
                }
                let partial = answers.iter().any(|a| h.subsumed_by(a));
                let max = maximal.contains(h);
                for &engine in &global {
                    let got = partial_eval_decide(&p, &db, h, engine);
                    assert_eq!(got, partial, "{what} {engine:?}");
                    assert_eq!(
                        max_eval_decide(&p, &db, h, engine),
                        max,
                        "{what} {engine:?}"
                    );
                }
            }
        });
        assert_eq!(work.counter("core.engine.class_fallback"), 0, "case={case}");

        for t in 0..p.node_count() {
            let q = p.node_cq(t);
            let vars = p.node_vars(t);
            let neighbours: Vec<usize> = p.children(t).iter().copied().chain(p.parent(t)).collect();
            let targets: BTreeSet<Var> = (vars.iter().copied())
                .filter(|v| neighbours.iter().any(|&n| p.node_vars(n).contains(v)))
                .collect();
            let seed = random_mapping(&mut r, vars, &constants, |v| !targets.contains(&v));
            let reference = projections(Engine::Backtrack, &q, &db, &targets, &seed);
            for (member, engine) in [(in_tw(&q, 1), Engine::Tw(1)), (in_hw(&q, 1), Engine::Hw(1))] {
                if member {
                    let got = projections(engine, &q, &db, &targets, &seed);
                    assert_eq!(got, reference, "case={case} node={t} {engine:?}");
                    projected += 1;
                }
            }
        }
    }
    // The generator reaches the classes the engines are for.
    assert!(
        in_class.iter().all(|&n| n >= 80),
        "in-class trees: {in_class:?}"
    );
    assert!(projected >= 400, "only {projected} node labels projected");
}

/// Decompositions `f` derives, traced: calls of the treewidth and the
/// hypertree-width search.
fn decompositions_derived(f: impl FnOnce() -> bool) -> (bool, u64) {
    let before = wdpt_obs::span_snapshot();
    let verdict = wdpt_obs::with_tracing(f);
    let spans = wdpt_obs::span_snapshot().since(&before);
    let calls = ["decomp.treewidth.at_most", "decomp.hypertree.at_most"]
        .map(|name| spans.entry(name).map_or(0, |e| e.calls));
    (verdict, calls.iter().sum())
}

/// A procedure derives each decomposition once: at most one per distinct CQ
/// it asks about, however many interface tuples or free variables ask it.
/// The root `a(?u)` has three values of its interface `?u`, each of which
/// Theorem 6 checks the optional child `b(?u, ?y, ?z)` under; MAX-EVAL asks
/// the CQ of the whole tree once for `?y` and once for `?z`.
#[test]
fn each_decomposition_is_derived_once_per_call() {
    let _serial = serial();
    let mut i = Interner::new();
    let root = wdpt::model::parse::parse_atoms(&mut i, "a(?u)").unwrap();
    let mut b = WdptBuilder::new(root);
    b.child(
        0,
        wdpt::model::parse::parse_atoms(&mut i, "b(?u,?y,?z)").unwrap(),
    );
    let p = b.build(vec![i.var("y"), i.var("z")]).unwrap();
    let db = wdpt::model::parse::parse_database(&mut i, "a(1) a(2) a(3) b(4,5,6)").unwrap();
    let empty = Mapping::empty();
    // Theorem 6 asks about the root's label and the child's.
    let (answer, derived) =
        decompositions_derived(|| eval_bounded_interface(&p, &db, &empty, Engine::Tw(1)));
    assert!(answer);
    assert!(derived <= 2, "eval_bounded_interface derived {derived}");
    // MAX-EVAL asks about the root's subtree and the whole tree.
    let (maximal, derived) =
        decompositions_derived(|| max_eval_decide(&p, &db, &empty, Engine::Tw(1)));
    assert!(maximal);
    assert!(derived <= 2, "max_eval_decide derived {derived}");
}
