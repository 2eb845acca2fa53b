//! Tables 1 and 2 of the paper as tests of work growth.
//!
//! The paper's tables are a complexity map: each cell is tractable (a
//! polynomial algorithm exists for the class) or hard (an instance family
//! forces a general procedure through exponentially much search). Every
//! cell below sweeps its generator and asserts how a deterministic work
//! count grows along the sweep:
//!
//! * a **hard** cell multiplies its count by at least a stated base per unit
//!   of the swept parameter ([`Series::floor`]);
//! * a **tractable** cell grows no faster than a stated polynomial degree
//!   between any two consecutive points ([`Series::ceiling`]), or not at all
//!   ([`Series::flat`]). A tractable cell also asserts that the structured
//!   engine never left its class (`core.engine.class_fallback` stays 0), so
//!   the polynomial count is the Theorem's algorithm and not backtracking.
//!
//! A class boundary is therefore a failing test: swap a hard cell's floor
//! onto its tractable sibling's series, or the other way round, and the
//! assertion fails.
//!
//! **How the counts are read.** Every measured call runs inside
//! [`wdpt_obs::delta_scope`], which serialises its windows on one mutex.
//! Every test in this binary does its engine work only inside such a
//! scope — generators only build trees and databases, which counts nothing —
//! so each window holds exactly the work of the call it brackets.
//!
//! Run `cargo test --test paper_tables -- --nocapture` to print every
//! series. Proposition 2 (the class inclusions) is `class_inclusions.rs`;
//! Figure 2 / Theorem 15 are the tests of `wdpt_approx::figure2`.

use wdpt::approx::uwdpt::{in_m_uwb, uwb_approximation, Uwdpt};
use wdpt::approx::wb::{candidate_pool, find_wb_equivalent, wb_approximations};
use wdpt::core::{
    eval_bounded_interface, eval_decide, has_bounded_interface, is_globally_in, is_locally_in,
    max_eval_decide, partial_eval_decide, subsumed, subsumption_equivalent, Engine, Wdpt,
    WdptBuilder, WidthKind,
};
use wdpt::gen::db::{random_graph_db, random_undirected_graph, rng};
use wdpt::gen::music::{figure1_wdpt, music_catalog, MusicParams};
use wdpt::gen::reductions::{qbf_instance, three_col_instance, QbfLit};
use wdpt::gen::trees::{chain_wdpt, clique_chain_wdpt, clique_pattern_wdpt, star_wdpt};
use wdpt::{Atom, Database, Interner, Mapping};
use wdpt_obs::{delta_scope, MetricsSnapshot};

mod growth;
use growth::{sweep, Series};

const NODES: &str = "cq.nodes_expanded";
const TUPLES: &str = "db.tuples_scanned";
const FALLBACK: &str = "core.engine.class_fallback";

/// [`sweep`] for a cell that runs a structured engine on a family inside
/// its class: outside the class `Engine` falls back to backtracking, which
/// must not pass for a polynomial cell.
fn sweep_in_class(xs: &[usize], measure: impl FnMut(usize)) -> Vec<(usize, MetricsSnapshot)> {
    let windows = sweep(xs, measure);
    for (x, w) in &windows {
        assert_eq!(w.counter(FALLBACK), 0, "fell back to backtracking at {x}");
    }
    windows
}

// ---------------------------------------------------------------------------
// Table 1, row EVAL: Σ₂ᵖ in general (Theorem 1), NP-hard already on
// ℓ-TW(1) and g-TW(1) (Proposition 3), LogCFL on ℓ-TW(1) ∩ BI(1) (Theorem 6).

#[test]
fn eval_on_three_colourability_grows_exponentially() {
    let windows = sweep(&[4, 5, 6, 7, 8], |n| {
        let mut i = Interner::new();
        let edges = random_undirected_graph(n, (5.0 / n as f64).min(0.95), 7 + n as u64);
        let inst = three_col_instance(&mut i, n, &edges);
        eval_decide(&inst.wdpt, &inst.db, &inst.candidate);
    });
    Series::of("EVAL, 3-colourability (vertices)", &windows, NODES).floor(2.5);
    // The instances sit in the columns the row claims.
    delta_scope(|| {
        let mut i = Interner::new();
        let inst = three_col_instance(&mut i, 3, &[(0, 1), (1, 2), (0, 2)]);
        assert!(is_locally_in(&inst.wdpt, WidthKind::Tw, 1));
        assert!(is_globally_in(&inst.wdpt, WidthKind::Tw, 1));
        assert!(!has_bounded_interface(&inst.wdpt, 2));
    });
}

#[test]
fn eval_on_exists_forall_qbf_grows_exponentially() {
    let windows = sweep(&[4, 5, 6, 7, 8, 9], |nx| {
        let mut i = Interner::new();
        let mut r = rng(nx as u64 * 31 + 5);
        let clauses: Vec<Vec<QbfLit>> = (0..3 * nx)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        if r.gen_bool(0.7) {
                            QbfLit::X(r.gen_range(0..nx), r.gen_bool(0.5))
                        } else {
                            QbfLit::Y(r.gen_range(0..3), r.gen_bool(0.5))
                        }
                    })
                    .collect()
            })
            .collect();
        let inst = qbf_instance(&mut i, nx, &clauses);
        eval_decide(&inst.wdpt, &inst.db, &inst.candidate);
    });
    Series::of("EVAL, ∃∀-QBF (existential variables)", &windows, NODES).floor(1.4);
}

#[test]
fn eval_with_bounded_interface_is_linear_in_the_tree() {
    let windows = sweep_in_class(&[4, 8, 16, 24, 32, 40], |n| {
        let mut i = Interner::new();
        let p = star_wdpt(&mut i, n);
        let db = star_db(&mut i, 30);
        let h = star_answer(&mut i, n);
        assert!(eval_bounded_interface(&p, &db, &h, Engine::Tw(1)));
    });
    Series::of("EVAL ℓ-TW(1) ∩ BI(1), stars (branches)", &windows, NODES).ceiling(1.2);
}

#[test]
fn eval_with_bounded_interface_is_flat_in_the_database() {
    let windows = sweep_in_class(&[20, 40, 80, 160, 320], |bands| {
        let mut i = Interner::new();
        let db = music_catalog(
            &mut i,
            MusicParams {
                bands,
                ..MusicParams::default()
            },
        );
        let p = figure1_wdpt(&mut i);
        let h = Mapping::from_pairs(vec![
            (i.var("x"), i.constant("record0_0")),
            (i.var("y"), i.constant("band0")),
        ]);
        eval_bounded_interface(&p, &db, &h, Engine::Tw(1));
    });
    for name in [NODES, "db.index_probes", "db.index_builds"] {
        Series::of("EVAL ℓ-TW(1) ∩ BI(1), Figure 1 (bands)", &windows, name).flat();
    }
}

// ---------------------------------------------------------------------------
// Table 1, row PARTIAL-EVAL: NP-hard on ℓ-TW(1) alone (Proposition 1),
// LogCFL on g-TW(1) (Theorem 8).

/// Clique chains over Turán databases at clique size `m`: locally TW(1),
/// globally an `(m+1)`-clique the database does not contain.
fn clique_chain_windows(
    decide: fn(&Wdpt, &Database, &Mapping, Engine) -> bool,
) -> Vec<(usize, MetricsSnapshot)> {
    sweep(&[3, 4, 5], |m| {
        let mut i = Interner::new();
        let p = clique_chain_wdpt(&mut i, m);
        let db = turan_db(&mut i, m, 2);
        let h = Mapping::from_pairs(vec![(i.var("w"), i.constant("c0"))]);
        decide(&p, &db, &h, Engine::Backtrack);
    })
}

#[test]
fn partial_eval_on_clique_chains_grows_exponentially() {
    let windows = clique_chain_windows(partial_eval_decide);
    Series::of("P-EVAL ℓ-TW(1), clique chains (m)", &windows, NODES).floor(8.0);
}

#[test]
fn partial_eval_on_global_tw1_is_linear_in_the_depth() {
    let windows = sweep_in_class(&[8, 16, 32, 64], |d| {
        let mut i = Interner::new();
        let p = chain_wdpt(&mut i, d, Some(d / 2));
        let (db, _) = random_graph_db(&mut i, 40, 120, 11);
        // The deepest free variable: its covering subtree is half the chain.
        let y = i.var(&format!("y{}", d / 2 - 1));
        let h = Mapping::from_pairs(vec![(y, i.constant("c0"))]);
        partial_eval_decide(&p, &db, &h, Engine::Tw(1));
    });
    Series::of("P-EVAL g-TW(1), chains (depth)", &windows, NODES).ceiling(1.4);
    Series::of("P-EVAL g-TW(1), chains (depth)", &windows, TUPLES).ceiling(1.8);
}

/// Table 1's `HW(k)` columns: a node whose hypertreewidth is 1 while its
/// treewidth grows — one wide atom covering a clique of binary atoms
/// ([`covered_clique_wdpt`]). `Engine::Hw(1)` decomposes every such node
/// and stays polynomial in the node's size; `Engine::Tw(1)` cannot, and
/// falls back to backtracking, with the same verdict.
#[test]
fn partial_eval_on_global_hw1_is_polynomial_where_treewidth_grows() {
    let sizes = [3, 4, 5, 6, 7, 8];
    let mut verdicts = Vec::new();
    let mut run = |engine: Engine| {
        sweep(&sizes, |m| {
            let mut i = Interner::new();
            let p = covered_clique_wdpt(&mut i, m);
            let db = covered_clique_db(&mut i, m, 40);
            let h = Mapping::from_pairs(vec![(i.var("x0"), i.constant("c0"))]);
            verdicts.push((m, partial_eval_decide(&p, &db, &h, engine)));
        })
    };
    let hw = run(Engine::Hw(1));
    let tw = run(Engine::Tw(1));
    for (x, w) in &hw {
        assert_eq!(w.counter(FALLBACK), 0, "Hw(1) fell back at clique size {x}");
    }
    for (x, w) in &tw {
        assert!(w.counter(FALLBACK) > 0, "Tw(1) kept a clique of size {x}");
    }
    let (by_hw, by_tw) = verdicts.split_at(sizes.len());
    assert_eq!(by_hw, by_tw);
    // Swept by the node's atom count, `1 + m(m − 1)/2`.
    let by_atoms = |name: &str| {
        let points = hw
            .iter()
            .map(|(m, w)| (1 + m * (m - 1) / 2, w.counter(name)));
        let label = format!("P-EVAL g-HW(1), covered cliques (atoms) · {name}");
        Series::new(&label, points.collect())
    };
    by_atoms(NODES).ceiling(1.5);
    by_atoms(TUPLES).ceiling(2.0);
}

// ---------------------------------------------------------------------------
// Table 1, row MAX-EVAL: DP-hard on ℓ-TW(1) alone (Proposition 4), LogCFL
// on g-TW(1) (Theorem 9).

#[test]
fn max_eval_on_clique_chains_grows_exponentially() {
    let windows = clique_chain_windows(max_eval_decide);
    Series::of("M-EVAL ℓ-TW(1), clique chains (m)", &windows, NODES).floor(8.0);
}

#[test]
fn max_eval_on_global_tw1_is_linear_in_the_tree() {
    let windows = sweep_in_class(&[4, 7, 10, 13, 16, 19, 22, 25, 28], |n| {
        let mut i = Interner::new();
        let p = star_wdpt(&mut i, n);
        let db = star_db(&mut i, 40);
        let h = star_answer(&mut i, n);
        assert!(max_eval_decide(&p, &db, &h, Engine::Tw(1)));
    });
    Series::of("M-EVAL g-TW(1), stars (branches)", &windows, NODES).ceiling(1.2);
}

// ---------------------------------------------------------------------------
// Table 1, rows ⊑ and ≡ₛ: Π₂ᵖ in general — the outer loop ranges over
// rooted subtrees and the inner check is NP-hard — and coNP when the right
// side is g-TW(1), whose inner check is polynomial (Theorem 11). ≡ₛ runs ⊑
// both ways and inherits each shape.

#[test]
fn subsumption_outer_loop_grows_exponentially_in_the_left_tree() {
    let windows = sweep_in_class(&[2, 4, 6, 8], |n| {
        let mut i = Interner::new();
        let p1 = star_wdpt(&mut i, n);
        let p2 = star_wdpt(&mut i, n);
        assert!(subsumed(&p1, &p2, Engine::Tw(1), &mut i));
    });
    Series::of("⊑ outer loop, star ⊑ star (branches)", &windows, NODES).floor(2.0);
    let windows = sweep_in_class(&[2, 4, 6, 8], |n| {
        let mut i = Interner::new();
        let p1 = star_wdpt(&mut i, n);
        let p2 = star_wdpt(&mut i, n);
        let tw1 = Engine::Tw(1);
        assert!(subsumption_equivalent(&p1, &p2, tw1, tw1, &mut i));
    });
    Series::of("≡ₛ outer loop, star ≡ₛ star (branches)", &windows, NODES).floor(2.0);
}

#[test]
fn subsumption_inner_check_grows_exponentially_for_clique_right_sides() {
    let windows = sweep(&[3, 4, 5], |m| {
        let mut i = Interner::new();
        // A Turán pattern holds no m-clique, so the inner check exhausts.
        let p1 = turan_pattern_wdpt(&mut i, m - 1, 3);
        let p2 = clique_pattern_wdpt(&mut i, m);
        assert!(!subsumed(&p1, &p2, Engine::Backtrack, &mut i));
    });
    Series::of("⊑ inner check, Turán ⊑ clique (m)", &windows, NODES).floor(10.0);
}

#[test]
fn subsumption_into_global_tw1_is_linear_in_the_depth() {
    let depths = [4, 8, 12, 16, 20, 24, 28, 32, 36, 40];
    let windows = sweep_in_class(&depths, |d| {
        let mut i = Interner::new();
        let p1 = chain_wdpt(&mut i, d, Some(2));
        let p2 = chain_wdpt(&mut i, d, Some(2));
        assert!(subsumed(&p1, &p2, Engine::Tw(1), &mut i));
    });
    Series::of("⊑ g-TW(1), chain ⊑ chain (depth)", &windows, NODES).ceiling(1.2);
    let windows = sweep_in_class(&depths, |d| {
        let mut i = Interner::new();
        let p1 = chain_wdpt(&mut i, d, Some(2));
        let p2 = chain_wdpt(&mut i, d, Some(2));
        let tw1 = Engine::Tw(1);
        assert!(subsumption_equivalent(&p1, &p2, tw1, tw1, &mut i));
    });
    Series::of("≡ₛ g-TW(1), chain ≡ₛ chain (depth)", &windows, NODES).ceiling(1.2);
}

// ---------------------------------------------------------------------------
// Table 2: WB(k)-membership and -approximation search a candidate pool
// exponential in |p| (Theorems 13, 14); for unions, UWB(k)-membership and
// -approximation go through cores and quotients of each disjunct
// (Theorems 17, 18) and grow polynomially in the union.

#[test]
fn wb_membership_pool_grows_exponentially() {
    // The search finds the folded cycle within a few nodes (6-9), so the
    // count is the candidate pool it ranges over: the Bell numbers.
    let mut pool = Vec::new();
    sweep(&[3, 4, 5, 6], |m| {
        let mut i = Interner::new();
        let p = foldable_cycle(&mut i, m);
        pool.push((m, candidate_pool(&p).len() as u64));
        let found = find_wb_equivalent(&p, WidthKind::Tw, 1, &mut i);
        assert!(found.is_some(), "a foldable cycle is in M(WB(1))");
    });
    Series::new("WB(1)-membership pool, foldable cycles (m)", pool).floor(2.5);
}

#[test]
fn wb_approximation_grows_exponentially() {
    let mut pool = Vec::new();
    let windows = sweep(&[3, 5, 7], |m| {
        let mut i = Interner::new();
        let p = genuine_cycle(&mut i, m);
        pool.push((m, candidate_pool(&p).len() as u64));
        assert!(!wb_approximations(&p, WidthKind::Tw, 1, &mut i).is_empty());
    });
    Series::new("WB(1)-approximation pool, odd cycles (m)", pool).floor(2.5);
    Series::of("WB(1)-approximation, odd cycles (m)", &windows, NODES).floor(2.5);
}

#[test]
fn uwb_membership_is_linear_in_the_union() {
    let windows = sweep(&[4, 8, 12, 16, 20, 24], |u| {
        let mut i = Interner::new();
        let phi = union_of_small_trees(&mut i, u);
        assert!(in_m_uwb(&phi, WidthKind::Tw, 1, &mut i));
    });
    Series::of(
        "UWB(1)-membership, two-node trees (disjuncts)",
        &windows,
        NODES,
    )
    .ceiling(1.2);
}

#[test]
fn uwb_approximation_is_quadratic_in_the_union() {
    let windows = sweep(&[4, 8, 16], |u| {
        let mut i = Interner::new();
        let phi = union_of_triangles(&mut i, u);
        uwb_approximation(&phi, WidthKind::Tw, 1, &mut i);
    });
    Series::of(
        "UWB(1)-approximation, triangles (disjuncts)",
        &windows,
        NODES,
    )
    .ceiling(2.3);
}

// ---------------------------------------------------------------------------
// Generators of the families above.

/// A database for the star family: `a(s_j, u_j)` with one `e(u_j, t_j)`
/// edge for even `j` — every optional branch has at most one extension, so
/// answers are unique per root choice and can be written down directly.
fn star_db(i: &mut Interner, m: usize) -> Database {
    let a = i.pred("a");
    let e = i.pred("e");
    let mut db = Database::new();
    for j in 0..m {
        let x = i.constant(&format!("s{j}"));
        let u = i.constant(&format!("u{j}"));
        db.insert(a, vec![x, u]);
        if j % 2 == 0 {
            let z = i.constant(&format!("t{j}"));
            db.insert(e, vec![u, z]);
        }
    }
    db
}

/// The answer of the `n`-branch star rooted at `x ↦ s0` over [`star_db`]:
/// `u ↦ u0` is forced and every branch extends uniquely to `t0`.
fn star_answer(i: &mut Interner, n: usize) -> Mapping {
    let mut h = Mapping::from_pairs(vec![(i.var("x"), i.constant("s0"))]);
    let t0 = i.constant("t0");
    for j in 0..n {
        h.insert(i.var(&format!("z{j}")), t0);
    }
    h
}

/// The complete multipartite (Turán) graph `T(parts, per_part)` over `e/2`
/// as `(a, b)` index pairs: dense, yet free of any clique larger than
/// `parts`.
fn turan_edges(parts: usize, per_part: usize) -> impl Iterator<Item = (usize, usize)> {
    let n = parts * per_part;
    (0..n).flat_map(move |a| {
        (0..n)
            .filter(move |&b| a % parts != b % parts)
            .map(move |b| (a, b))
    })
}

/// A single-node Boolean WDPT whose body is the Turán pattern
/// `T(parts, per_part)`.
fn turan_pattern_wdpt(i: &mut Interner, parts: usize, per_part: usize) -> Wdpt {
    let e = i.pred("e");
    let vs: Vec<_> = (0..parts * per_part)
        .map(|j| i.var(&format!("tp{j}")))
        .collect();
    let atoms = turan_edges(parts, per_part)
        .map(|(a, b)| Atom::new(e, vec![vs[a].into(), vs[b].into()]))
        .collect();
    WdptBuilder::new(atoms)
        .build(Vec::new())
        .expect("single node")
}

/// The Turán database `T(parts, per_part)`: searching it for a
/// `(parts+1)`-clique forces backtracking through exponentially many
/// partial cliques. Also holds `g(v, c0)` for every vertex, so the clique
/// chain's free-variable atom matches.
fn turan_db(i: &mut Interner, parts: usize, per_part: usize) -> Database {
    let e = i.pred("e");
    let g = i.pred("g");
    let consts: Vec<_> = (0..parts * per_part)
        .map(|j| i.constant(&format!("c{j}")))
        .collect();
    let mut db = Database::new();
    for (a, b) in turan_edges(parts, per_part) {
        db.insert(e, vec![consts[a], consts[b]]);
    }
    for &c in &consts {
        db.insert(g, vec![c, consts[0]]);
    }
    db
}

/// The directed `m`-cycle `e(q0, q1), …, e(q{m-1}, q0)` as atoms.
fn cycle(i: &mut Interner, m: usize) -> Vec<Atom> {
    let e = i.pred("e");
    let vs: Vec<_> = (0..m).map(|j| i.var(&format!("q{j}"))).collect();
    (0..m)
        .map(|j| Atom::new(e, vec![vs[j].into(), vs[(j + 1) % m].into()]))
        .collect()
}

/// A single-node WDPT: an `m`-cycle with a loop it folds onto —
/// semantically in WB(1), syntactically outside it.
fn foldable_cycle(i: &mut Interner, m: usize) -> Wdpt {
    let mut atoms = cycle(i, m);
    let e = i.pred("e");
    let l = i.var("loopvar");
    let q0 = atoms[0].args[0];
    atoms.push(Atom::new(e, vec![l.into(), l.into()]));
    atoms.push(Atom::new(e, vec![q0, l.into()]));
    WdptBuilder::new(atoms)
        .build(Vec::new())
        .expect("single node")
}

/// A single-node WDPT whose body is a genuine directed `m`-cycle; for odd
/// `m` it is its own core.
fn genuine_cycle(i: &mut Interner, m: usize) -> Wdpt {
    WdptBuilder::new(cycle(i, m))
        .build(Vec::new())
        .expect("single node")
}

/// A union of `u` two-node trees over disjoint predicates.
fn union_of_small_trees(i: &mut Interner, u: usize) -> Uwdpt {
    let disjuncts = (0..u)
        .map(|j| {
            let a = i.pred(&format!("a{j}"));
            let b = i.pred(&format!("b{j}"));
            let x = i.var(&format!("x{j}"));
            let y = i.var(&format!("y{j}"));
            let mut builder = WdptBuilder::new(vec![Atom::new(a, vec![x.into()])]);
            builder.child(0, vec![Atom::new(b, vec![x.into(), y.into()])]);
            builder.build(vec![x, y]).expect("well-designed")
        })
        .collect();
    Uwdpt::new(disjuncts)
}

/// A union of `u` single-node triangle CQs over disjoint predicates.
fn union_of_triangles(i: &mut Interner, u: usize) -> Uwdpt {
    let disjuncts = (0..u)
        .map(|j| {
            let e = i.pred(&format!("e{j}"));
            let [x, y, z] = ["tx", "ty", "tz"].map(|v| i.var(&format!("{v}{j}")));
            WdptBuilder::new(vec![
                Atom::new(e, vec![x.into(), y.into()]),
                Atom::new(e, vec![y.into(), z.into()]),
                Atom::new(e, vec![z.into(), x.into()]),
            ])
            .build(Vec::new())
            .expect("single node")
        })
        .collect();
    Uwdpt::new(disjuncts)
}

/// One node and one free variable `?x0`: the wide atom
/// `w(?x0, …, ?x{m-1})` and the clique `e(?xa, ?xb)`, `a < b`, beside it.
/// Its hypertreewidth is 1 (`w` covers every variable) and its treewidth
/// `m − 1`.
fn covered_clique_wdpt(i: &mut Interner, m: usize) -> Wdpt {
    let (w, e) = (i.pred("w"), i.pred("e"));
    let xs: Vec<_> = (0..m).map(|j| i.var(&format!("x{j}"))).collect();
    let mut atoms = vec![Atom::new(w, xs.iter().map(|&x| x.into()).collect())];
    for a in 0..m {
        for b in a + 1..m {
            atoms.push(Atom::new(e, vec![xs[a].into(), xs[b].into()]));
        }
    }
    WdptBuilder::new(atoms)
        .build(vec![xs[0]])
        .expect("one node is well-designed")
}

/// `rows` tuples of `w/m` over `c0…c15`, row `r` stepping through them
/// from `c{r mod 16}` by an odd stride, so its `m` constants are distinct,
/// and `e` holding every pair of distinct constants: every tuple is an
/// answer, so no step of a search comes up empty early.
fn covered_clique_db(i: &mut Interner, m: usize, rows: usize) -> Database {
    let (w, e) = (i.pred("w"), i.pred("e"));
    let consts: Vec<_> = (0..16).map(|j| i.constant(&format!("c{j}"))).collect();
    let mut db = Database::new();
    for a in 0..16 {
        for b in (0..16).filter(|&b| b != a) {
            db.insert(e, vec![consts[a], consts[b]]);
        }
    }
    for r in 0..rows {
        let stride = 1 + 2 * (r / 16);
        db.insert(w, (0..m).map(|j| consts[(r + j * stride) % 16]).collect());
    }
    db
}
