//! Tractable exact evaluation under local tractability + bounded interface
//! (Theorem 6 / Theorem 7 of the paper).
//!
//! Implements the algorithm sketched in Appendix A.1: given `p ∈ ℓ-C ∩
//! BI(c)`, a database `D`, and a candidate answer `h`,
//!
//! 1. let `T'` be the minimal rooted subtree covering `dom(h)` and `T''`
//!    the maximal rooted subtree introducing no free variable outside
//!    `dom(h)`;
//! 2. for every node `t ∈ T''`, compute the *interface relation* `R_t`: all
//!    assignments of `t`'s interface variables (existential variables shared
//!    with the parent or with a child) extendable to a homomorphism of
//!    `λ(t)` consistent with `h` — by local CQ evaluation, polynomial under
//!    local tractability, with at most `|adom|^{2c}` assignments under
//!    `BI(c)`;
//! 3. filter `R_t` bottom-up: an interface assignment survives iff every
//!    child outside `T''` is non-extendable (otherwise maximality would
//!    force a new free variable) and every extendable child inside `T''`
//!    admits a compatible surviving assignment;
//! 4. answer the tree-shaped (acyclic) Boolean join of the surviving
//!    relations over `T'` — the paper's CQ `q` over database `D'`.
//!
//! All CQ work happens on single node labels, so the procedure is
//! polynomial for fixed `k` and `c` (and in LogCFL with the structured
//! engines, Theorem 7).

use crate::engine::{self, Engine};
use crate::tree::{NodeId, Wdpt};
use std::cmp::Reverse;
use std::collections::BTreeSet;
use wdpt_cq::Oracle;
use wdpt_model::{Const, Database, Mapping, ProbeTally, Relation, Var};

/// Decides `h ∈ p(D)` with the Theorem 6 algorithm. Correct for every
/// WDPT; polynomial when `p` is locally tractable w.r.t. `engine`'s class
/// and has bounded interface. Records its oracles' work.
pub fn eval_bounded_interface(p: &Wdpt, db: &Database, h: &Mapping, engine: Engine) -> bool {
    let free = p.free_set();
    let dom = h.domain();
    if !dom.is_subset(&free) {
        return false;
    }
    let Some(tprime) = p.minimal_subtree_covering(&dom) else {
        return false;
    };
    // Any homomorphism covering dom(h) also defines the free variables of
    // T'; projection-exactness forces them to be exactly dom(h).
    if p.subtree_free_vars(&tprime) != dom {
        return false;
    }
    let tsecond = p.maximal_subtree_with_free_vars_in(&dom);
    debug_assert!(tprime.is_subset(&tsecond));

    // The node CQs the procedure asks about — every node of T'' and every
    // child of one — each prepared once.
    let plans: Vec<_> = (0..p.node_count())
        .map(|t| {
            let asked = tsecond.contains(&t) || p.parent(t).is_some_and(|q| tsecond.contains(&q));
            asked.then(|| engine.plan(&p.node_cq(t))).flatten()
        })
        .collect();
    let iface: Vec<Vec<Var>> = (0..p.node_count())
        .map(|t| interface_vars(p, t, &free))
        .collect();

    // Deepest nodes first: the interface relation R_t (step 2), each row
    // kept only if the children admit it (step 3, fused with the acyclic
    // join over T' of step 4).
    let mut order: Vec<NodeId> = tsecond.iter().copied().collect();
    order.sort_by_key(|&t| Reverse(p.depth(t)));
    let mut relations = vec![Relation::default(); p.node_count()];
    let mut work = ProbeTally::default();
    for &t in &order {
        // `(position, column of g)` per variable of `vars` in the interface.
        let columns = |vars: &[Var]| -> Vec<(usize, usize)> {
            (vars.iter().enumerate())
                .filter_map(|(k, v)| Some((k, iface[t].binary_search(v).ok()?)))
                .collect()
        };
        // The atoms of `t` or of a child, seeded with `h` and the interface.
        let compile = |n: NodeId| {
            let in_iface = |v: Var| iface[t].binary_search(&v).is_ok();
            let oracle = engine::seeded(db, p.atoms(n), plans[n].as_ref(), h, in_iface);
            let from_g = columns(oracle.vars());
            (oracle, from_g)
        };
        let mut children: Vec<Child> = (p.children(t).iter())
            .map(|&c| Child {
                node: c,
                // Every variable a child outside T' shares with `t` is in
                // dom(h) or in the interface.
                raw: (!tprime.contains(&c)).then(|| compile(c)),
                shared: columns(&iface[c]),
            })
            .collect();
        let (mut oracle, from_g) = compile(t);
        let targets: Vec<usize> = from_g.iter().map(|&(slot, _)| slot).collect();
        let (mut kept, mut len) = (Vec::new(), 0);
        oracle.project(&targets, |g| {
            if (children.iter_mut()).all(|child| child.admits(g, &tsecond, &relations)) {
                kept.extend_from_slice(g);
                len += 1;
            }
        });
        relations[t] = Relation::from_sorted(iface[t].len(), len, kept);
        work.add(oracle.into_tally());
        for (oracle, _) in children.into_iter().filter_map(|child| child.raw) {
            work.add(oracle.into_tally());
        }
    }
    wdpt_model::stats::record(&work);
    !relations[p.root()].is_empty()
}

/// What a valuation `g` of a node's interface must satisfy for one child.
struct Child<'a> {
    node: NodeId,
    /// A child outside T': its atoms, seeded with the variables it shares
    /// with the node — whether they extend under `g` is whether maximality
    /// forces the child in — and `(slot, column of g)` per interface one.
    raw: Option<(Oracle<'a>, Vec<(usize, usize)>)>,
    /// `(column of the child's interface, column of g)` per variable the
    /// two interfaces share.
    shared: Vec<(usize, usize)>,
}

impl Child<'_> {
    /// Does `g` let this child be what maximality and the join ask of it?
    fn admits(&mut self, g: &[Const], tsecond: &BTreeSet<NodeId>, relations: &[Relation]) -> bool {
        if let Some((oracle, from_g)) = &mut self.raw {
            for &(slot, col) in from_g.iter() {
                oracle.set(slot, g[col]);
            }
            // Raw extendability: an extension with arbitrary values forces
            // inclusion of the child by maximality.
            if !oracle.exists() {
                return true;
            }
            if !tsecond.contains(&self.node) {
                // Forced into a node introducing a new free variable: the
                // projection could not be exactly h.
                return false;
            }
        }
        // Must enter the child consistently with a surviving assignment —
        // for a child in T', the acyclic join.
        (relations[self.node].tuples()).any(|gc| self.shared.iter().all(|&(a, b)| gc[a] == g[b]))
    }
}

/// The interface variables of node `t`, ascending: existential variables
/// shared with the parent or with any child (in the full tree). Under
/// `BI(c)` there are at most `2c` of them.
fn interface_vars(p: &Wdpt, t: NodeId, free: &BTreeSet<Var>) -> Vec<Var> {
    let vars_t = p.node_vars(t);
    let neighbours = p.parent(t).into_iter().chain(p.children(t).iter().copied());
    let mut shared = BTreeSet::new();
    for n in neighbours {
        shared.extend(vars_t.intersection(&p.node_vars(n)).copied());
    }
    shared.into_iter().filter(|v| !free.contains(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_decide;
    use crate::semantics::evaluate;
    use crate::tree::WdptBuilder;
    use wdpt_model::parse::{parse_atoms, parse_database, parse_mapping};
    use wdpt_model::Interner;

    fn figure1(i: &mut Interner) -> (Wdpt, Database) {
        let root = parse_atoms(i, r#"rec_by(?x,?y) publ(?x,"after_2010")"#).unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, parse_atoms(i, "nme_rating(?x,?z)").unwrap());
        b.child(0, parse_atoms(i, "formed_in(?y,?z2)").unwrap());
        let free = ["x", "y", "z", "z2"].iter().map(|n| i.var(n)).collect();
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
    fn matches_general_eval_on_figure1() {
        let mut i = Interner::new();
        let (p, db) = figure1(&mut i);
        let mu1 = parse_mapping(&mut i, r#"?x -> "Our_love", ?y -> "Caribou""#).unwrap();
        let mu2 = parse_mapping(&mut i, r#"?x -> "Swim", ?y -> "Caribou", ?z -> "2""#).unwrap();
        let bad = parse_mapping(&mut i, r#"?x -> "Swim", ?y -> "Caribou""#).unwrap();
        for engine in [Engine::Backtrack, Engine::Tw(1), Engine::Hw(1)] {
            assert!(eval_bounded_interface(&p, &db, &mu1, engine));
            assert!(eval_bounded_interface(&p, &db, &mu2, engine));
            assert!(!eval_bounded_interface(&p, &db, &bad, engine));
        }
    }

    /// Build a random small WDPT with projection and compare against the
    /// general decision procedure on every candidate answer and probes.
    #[test]
    fn agrees_with_general_eval_on_random_instances() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for case in 0..40 {
            let mut i = Interner::new();
            let e = i.pred("e");
            let f = i.pred("f");
            let mut db = wdpt_model::Database::new();
            for _ in 0..(4 + next() % 8) {
                let a = i.constant(&format!("c{}", next() % 4));
                let b = i.constant(&format!("c{}", next() % 4));
                db.insert(e, vec![a, b]);
                if next() % 2 == 0 {
                    db.insert(f, vec![a, b]);
                }
            }
            // Tree: root e(x,u); children use u (existential interface) and
            // introduce free vars y (child 1) and z (grandchild).
            let x = i.var("x");
            let u = i.var("u");
            let y = i.var("y");
            let z = i.var("z");
            let w = i.var("w");
            let root = vec![wdpt_model::Atom::new(e, vec![x.into(), u.into()])];
            let mut b = WdptBuilder::new(root);
            let c1 = b.child(
                0,
                vec![wdpt_model::Atom::new(
                    if next() % 2 == 0 { e } else { f },
                    vec![u.into(), y.into()],
                )],
            );
            b.child(
                c1,
                vec![wdpt_model::Atom::new(
                    if next() % 2 == 0 { e } else { f },
                    vec![y.into(), z.into()],
                )],
            );
            b.child(
                0,
                vec![wdpt_model::Atom::new(
                    if next() % 2 == 0 { e } else { f },
                    vec![u.into(), w.into()],
                )],
            );
            // w stays existential: answers project onto x, y, z.
            let p = b.build(vec![x, y, z]).unwrap();
            let answers = evaluate(&p, &db);
            for h in &answers {
                for engine in [Engine::Backtrack, Engine::Tw(1)] {
                    assert!(
                        eval_bounded_interface(&p, &db, h, engine),
                        "case {case}: true answer {h} rejected"
                    );
                }
            }
            // Random probes.
            for _ in 0..6 {
                let mut probe = Mapping::empty();
                probe.insert(x, i.constant(&format!("c{}", next() % 4)));
                if next() % 2 == 0 {
                    probe.insert(y, i.constant(&format!("c{}", next() % 4)));
                }
                if next() % 3 == 0 {
                    probe.insert(z, i.constant(&format!("c{}", next() % 4)));
                }
                let expected = eval_decide(&p, &db, &probe);
                assert_eq!(
                    eval_bounded_interface(&p, &db, &probe, Engine::Backtrack),
                    expected,
                    "case {case}: probe {probe} disagreed"
                );
                assert_eq!(
                    eval_bounded_interface(&p, &db, &probe, Engine::Tw(1)),
                    expected,
                    "case {case}: probe {probe} disagreed under TW engine"
                );
            }
        }
    }

    #[test]
    fn empty_candidate_mapping() {
        let mut i = Interner::new();
        // Root has no free variables; h = ∅ is the answer iff the root
        // matches but no optional branch extends.
        let root = parse_atoms(&mut i, "a(?u)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, parse_atoms(&mut i, "b(?u,?y)").unwrap());
        let p = b.build(vec![i.var("y")]).unwrap();
        let db1 = parse_database(&mut i, "a(1)").unwrap();
        let db2 = parse_database(&mut i, "a(1) b(1,2)").unwrap();
        let empty = Mapping::empty();
        assert!(eval_bounded_interface(&p, &db1, &empty, Engine::Backtrack));
        // In db2 the branch extends, so ∅ is not maximal... but u=1 is the
        // only choice and it extends; hence ∅ ∉ p(D).
        assert!(!eval_bounded_interface(&p, &db2, &empty, Engine::Backtrack));
        assert!(eval_decide(&p, &db1, &empty));
        assert!(!eval_decide(&p, &db2, &empty));
    }

    /// Interface width 0: projection-free 3-chains, where `h` fixes the
    /// whole homomorphism (the instances of Theorem 4).
    #[test]
    fn agrees_with_general_eval_on_projection_free_chains() {
        let mut state = 0x77aa_11bbu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for case in 0..40 {
            let mut i = Interner::new();
            let e = i.pred("e");
            let f = i.pred("f");
            let mut db = Database::new();
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
            let w = i.var("w");
            let mut b = WdptBuilder::new(vec![wdpt_model::Atom::new(e, vec![x.into(), y.into()])]);
            let c1 = b.child(
                0,
                vec![wdpt_model::Atom::new(
                    if next() % 2 == 0 { e } else { f },
                    vec![y.into(), z.into()],
                )],
            );
            b.child(
                c1,
                vec![wdpt_model::Atom::new(
                    if next() % 2 == 0 { e } else { f },
                    vec![z.into(), w.into()],
                )],
            );
            let p = b.build(vec![x, y, z, w]).unwrap();
            for h in evaluate(&p, &db) {
                assert!(
                    eval_bounded_interface(&p, &db, &h, Engine::Tw(1)),
                    "case {case}: answer {h} rejected"
                );
            }
            for _ in 0..6 {
                let mut probe = Mapping::empty();
                probe.insert(x, i.constant(&format!("c{}", next() % 4)));
                probe.insert(y, i.constant(&format!("c{}", next() % 4)));
                if next() % 2 == 0 {
                    probe.insert(z, i.constant(&format!("c{}", next() % 4)));
                }
                let expected = eval_decide(&p, &db, &probe);
                for engine in [Engine::Backtrack, Engine::Tw(1)] {
                    assert_eq!(
                        eval_bounded_interface(&p, &db, &probe, engine),
                        expected,
                        "case {case}: probe {probe} disagreed under {engine:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_variable_free_root_answers_the_empty_mapping_iff_it_holds() {
        let mut i = Interner::new();
        let atoms = parse_atoms(&mut i, "marker(on)").unwrap();
        let p = WdptBuilder::new(atoms).build(vec![]).unwrap();
        let on = parse_database(&mut i, "marker(on)").unwrap();
        let off = parse_database(&mut i, "marker(off)").unwrap();
        for engine in [Engine::Backtrack, Engine::Tw(1), Engine::Hw(1)] {
            assert!(eval_bounded_interface(&p, &on, &Mapping::empty(), engine));
            assert!(!eval_bounded_interface(&p, &off, &Mapping::empty(), engine));
        }
    }

    #[test]
    fn existential_choice_can_block_extension() {
        let mut i = Interner::new();
        // Root a(u): u ∈ {1, 2}. Child b(u, y): only b(1, 5) exists. The
        // answer ∅ IS in p(D) via u = 2 (not extendable); {y↦5} via u = 1.
        let root = parse_atoms(&mut i, "a(?u)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, parse_atoms(&mut i, "b(?u,?y)").unwrap());
        let p = b.build(vec![i.var("y")]).unwrap();
        let db = parse_database(&mut i, "a(1) a(2) b(1,5)").unwrap();
        let empty = Mapping::empty();
        let y5 = parse_mapping(&mut i, "?y -> 5").unwrap();
        for engine in [Engine::Backtrack, Engine::Tw(1), Engine::Hw(1)] {
            assert!(eval_bounded_interface(&p, &db, &empty, engine));
            assert!(eval_bounded_interface(&p, &db, &y5, engine));
        }
    }
}
