//! Canonical databases freeze variables into bare ids above the symbol
//! table (`wdpt::cq::containment::freeze`) instead of interning fresh
//! names. Two things must hold of that:
//!
//! * **No collision.** A frozen id is distinct from every constant of
//!   *either* query of a containment / subsumption test — in particular
//!   from constants the right-hand query mentions that were interned after
//!   the left-hand query was built, and from the constant with the highest
//!   id in the table. The verdicts are compared with a reference that
//!   freezes the old way, through real interned fresh names
//!   ([`reference::freeze`], kept here and nowhere else).
//! * **No leak.** No test, core computation or subsumption check interns
//!   anything: `interner.len()` is the same before and after.
//!
//! Instances are deterministic ([`wdpt::gen::Lcg`], fixed seeds).

use wdpt::approx::uwdpt::{uwdpt_subsumed, Uwdpt};
use wdpt::core::{subsumed, Engine, Wdpt, WdptBuilder};
use wdpt::cq::containment::{contained_in, equivalent, subsumed_cq};
use wdpt::cq::{core_of, ConjunctiveQuery};
use wdpt::gen::Lcg;
use wdpt::model::{Atom, Const, Interner, Pred, Term, Var};

/// The pre-PR-19 procedures: every frozen variable is a freshly *interned*
/// constant, so distinctness from every other symbol is the interner's own
/// guarantee. Slow and leaky — which is why it is only a reference.
mod reference {
    use std::collections::{BTreeMap, BTreeSet};
    use wdpt::core::{partial_eval_decide, Engine, Wdpt};
    use wdpt::cq::{extend_all, extend_exists, ConjunctiveQuery};
    use wdpt::model::{Atom, Const, Database, Interner, Mapping, Term, Var};

    pub fn freeze(q: &ConjunctiveQuery, i: &mut Interner) -> (Database, BTreeMap<Var, Const>) {
        let mut table: BTreeMap<Var, Const> = BTreeMap::new();
        for v in q.variables() {
            let id = i.len();
            let c = i.constant(&format!("\u{2022}{}#{id}", i.var_name(v)));
            assert_eq!(c.0 as usize, id, "the fresh name was already taken");
            table.insert(v, c);
        }
        let m = Mapping::from_pairs(table.iter().map(|(&v, &c)| (v, c)));
        let mut db = Database::new();
        for a in q.body() {
            db.insert_atom(&a.apply(&m));
        }
        (db, table)
    }

    pub fn contained_in(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery, i: &mut Interner) -> bool {
        if q1.head_set() != q2.head_set() {
            return false;
        }
        let (db, table) = freeze(q1, i);
        let seed = Mapping::from_pairs(q2.head().iter().map(|&x| (x, table[&x])));
        extend_exists(&db, q2.body(), &seed)
    }

    pub fn subsumed_cq(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery, i: &mut Interner) -> bool {
        let (h1, h2) = (q1.head_set(), q2.head_set());
        if !h1.is_subset(&h2) {
            return false;
        }
        let (db, table) = freeze(q1, i);
        let seed = Mapping::from_pairs(h1.iter().map(|&x| (x, table[&x])));
        extend_exists(&db, q2.body(), &seed)
    }

    pub fn subsumed(p1: &Wdpt, p2: &Wdpt, i: &mut Interner) -> bool {
        let mut holds = true;
        p1.for_each_rooted_subtree(&mut |t1| {
            let (db, table) = freeze(&p1.cq_of_subtree(t1), i);
            let free = p1.subtree_free_vars(t1);
            let h = Mapping::from_pairs(free.iter().map(|&x| (x, table[&x])));
            holds &= partial_eval_decide(p2, &db, &h, Engine::Backtrack);
        });
        holds
    }

    /// Iterated retraction onto the smallest endomorphic image.
    pub fn core_of(q: &ConjunctiveQuery, i: &mut Interner) -> ConjunctiveQuery {
        let mut current = q.clone();
        loop {
            let (db, table) = freeze(&current, i);
            let unfreeze: BTreeMap<Const, Var> = table.iter().map(|(&v, &c)| (c, v)).collect();
            let seed = Mapping::from_pairs(current.head().iter().map(|&x| (x, table[&x])));
            let size = (current.body().len(), current.variables().len());
            let best = extend_all(&db, current.body(), &seed)
                .iter()
                .map(|h| {
                    let image: BTreeSet<Atom> = current
                        .body()
                        .iter()
                        .map(|a| {
                            let args = a.args.iter().map(|t| match t {
                                Term::Const(_) => *t,
                                Term::Var(v) => {
                                    let c = h.get(*v).expect("endomorphisms are total");
                                    unfreeze.get(&c).map_or(Term::Const(c), |&w| Term::Var(w))
                                }
                            });
                            Atom::new(a.pred, args.collect())
                        })
                        .collect();
                    let vars: BTreeSet<Var> = image.iter().flat_map(|a| a.vars()).collect();
                    ((image.len(), vars.len()), image)
                })
                .filter(|(s, _)| s.0 < size.0 || s.1 < size.1)
                .min_by_key(|(s, _)| *s);
            match best {
                Some((_, image)) => {
                    current =
                        ConjunctiveQuery::new(current.head().to_vec(), image.into_iter().collect());
                }
                None => return current,
            }
        }
    }
}

/// The vocabulary of one generated case. `early` constants are interned
/// before the left-hand query is built; `late` ones after it — the last of
/// them is the symbol with the highest id in the table when the procedures
/// run.
struct Vocab {
    preds: [Pred; 2],
    vars: Vec<Var>,
    early: Vec<Const>,
    late: Vec<Const>,
}

impl Vocab {
    fn new(i: &mut Interner) -> Vocab {
        Vocab {
            preds: [i.pred("e"), i.pred("f")],
            vars: ["x", "y", "z", "w"].iter().map(|n| i.var(n)).collect(),
            early: vec![i.constant("c0"), i.constant("c1")],
            late: Vec::new(),
        }
    }

    /// Interns the late constants. Call after the left-hand side is built.
    fn intern_late(&mut self, i: &mut Interner) {
        self.late = vec![i.constant("d0"), i.constant("d1")];
        assert_eq!(self.late[1].0 as usize + 1, i.len(), "d1 tops the table");
    }

    fn term(&self, r: &mut Lcg, vars: &[Var]) -> Term {
        // Late constants (when there are any) get half the constant draws.
        match r.gen_range(0..10) {
            0..=6 => Term::Var(vars[r.gen_range(0..vars.len())]),
            _ if self.late.is_empty() || r.gen_bool(0.5) => {
                Term::Const(self.early[r.gen_range(0..self.early.len())])
            }
            _ => Term::Const(self.late[r.gen_range(0..self.late.len())]),
        }
    }

    /// Does any of `atoms` mention a late constant?
    fn mentions_late<'a>(&self, mut atoms: impl Iterator<Item = &'a Atom>) -> bool {
        atoms.any(|a| {
            a.args
                .iter()
                .any(|t| t.as_const().is_some_and(|c| self.late.contains(&c)))
        })
    }

    fn atom(&self, r: &mut Lcg, vars: &[Var]) -> Atom {
        let pred = self.preds[r.gen_range(0..2)];
        Atom::new(pred, vec![self.term(r, vars), self.term(r, vars)])
    }

    /// A CQ of 1–4 atoms whose head is a random subset of `head_pool`
    /// restricted to the variables that occur.
    fn cq(&self, r: &mut Lcg, head_pool: &[Var]) -> ConjunctiveQuery {
        let body: Vec<Atom> = (0..1 + r.gen_range(0..4))
            .map(|_| self.atom(r, &self.vars))
            .collect();
        let head = head_pool
            .iter()
            .copied()
            .filter(|v| body.iter().any(|a| a.vars().any(|w| w == *v)))
            .collect();
        ConjunctiveQuery::new(head, body)
    }

    /// A WDPT with a 1–2 atom root over `x, y` and 0–2 single-atom children,
    /// child `k` linking a root variable to a variable of its own.
    fn wdpt(&self, r: &mut Lcg, free_pool: &[Var]) -> Wdpt {
        let root_vars = &self.vars[..2];
        let mut root: Vec<Atom> = vec![Atom::new(
            self.preds[r.gen_range(0..2)],
            vec![Term::Var(root_vars[0]), self.term(r, root_vars)],
        )];
        if r.gen_bool(0.5) {
            root.push(self.atom(r, root_vars));
        }
        let mut labels = vec![root];
        for own in &self.vars[2..2 + r.gen_range(0..3)] {
            let link = [root_vars[0], *own];
            labels.push(vec![Atom::new(
                self.preds[r.gen_range(0..2)],
                vec![Term::Var(root_vars[0]), self.term(r, &link)],
            )]);
        }
        let free = free_pool
            .iter()
            .copied()
            .filter(|v| labels.iter().flatten().any(|a| a.vars().any(|w| w == *v)))
            .collect();
        let mut labels = labels.into_iter();
        let mut b = WdptBuilder::new(labels.next().expect("the root"));
        for child in labels {
            b.child(0, child);
        }
        b.build(free)
            .expect("each child variable occurs in one child only")
    }
}

/// `procedure` must leave the table as it found it.
fn leak_free<T>(i: &mut Interner, procedure: impl FnOnce(&mut Interner) -> T) -> T {
    let before = i.len();
    let out = procedure(i);
    assert_eq!(i.len(), before, "the procedure interned symbols");
    out
}

#[test]
fn cq_verdicts_match_the_interning_reference() {
    let mut r = Lcg::new(0xF0_2E_19_01);
    let (mut contained, mut sub, mut late_cases) = (0, 0, 0);
    for case in 0..400 {
        let mut i = Interner::new();
        let mut vocab = Vocab::new(&mut i);
        let head_pool: Vec<Var> = vocab
            .vars
            .iter()
            .copied()
            .filter(|_| r.gen_bool(0.4))
            .collect();
        let q1 = vocab.cq(&mut r, &head_pool);
        vocab.intern_late(&mut i);
        let q2 = vocab.cq(&mut r, &head_pool);
        late_cases += usize::from(vocab.mentions_late(q2.body().iter()));

        for (a, b) in [(&q1, &q2), (&q2, &q1)] {
            let got = leak_free(&mut i, |i| contained_in(a, b, i));
            assert_eq!(
                got,
                reference::contained_in(a, b, &mut i.clone()),
                "case {case}: {} ⊆ {}",
                a.display(&i),
                b.display(&i)
            );
            contained += usize::from(got);
            let got = leak_free(&mut i, |i| subsumed_cq(a, b, i));
            assert_eq!(
                got,
                reference::subsumed_cq(a, b, &mut i.clone()),
                "case {case}: {} ⊑ {}",
                a.display(&i),
                b.display(&i)
            );
            sub += usize::from(got);
        }
        leak_free(&mut i, |i| equivalent(&q1, &q2, i));
    }
    // The generator must exercise both verdicts and the late constants.
    assert!(contained > 15 && sub > 25, "{contained} ⊆, {sub} ⊑");
    assert!(
        late_cases > 100,
        "{late_cases} cases mention a late constant"
    );
}

#[test]
fn cores_match_the_interning_reference() {
    let mut r = Lcg::new(0xF0_2E_19_02);
    let mut shrunk = 0;
    for case in 0..300 {
        let mut i = Interner::new();
        let mut vocab = Vocab::new(&mut i);
        // Late constants go into the query itself here: the frozen ids must
        // clear the table's top id when it is one of the query's own.
        vocab.intern_late(&mut i);
        let head_pool: Vec<Var> = vocab
            .vars
            .iter()
            .copied()
            .filter(|_| r.gen_bool(0.3))
            .collect();
        let q = vocab.cq(&mut r, &head_pool);

        let core = leak_free(&mut i, |i| core_of(&q, i));
        let what = format!(
            "case {case}: core of {} is {}",
            q.display(&i),
            core.display(&i)
        );
        assert!(core.body().len() <= q.body().len(), "{what}");
        assert!(core.variables().len() <= q.variables().len(), "{what}");
        assert_eq!(core.head(), q.head(), "{what}");
        assert!(equivalent(&q, &core, &mut i), "{what}");
        assert_eq!(core_of(&core, &mut i), core, "{what}: not idempotent");

        // Cores are unique up to isomorphism: same size as the reference's,
        // and equivalent to it — the choice among equal-size images is free.
        let want = reference::core_of(&q, &mut i.clone());
        assert_eq!(core.body().len(), want.body().len(), "{what}");
        assert_eq!(core.variables().len(), want.variables().len(), "{what}");
        assert!(equivalent(&core, &want, &mut i), "{what}");
        shrunk += usize::from(core.body().len() < q.body().len());
    }
    assert!(shrunk > 30, "only {shrunk} queries had a proper retract");
}

#[test]
fn wdpt_subsumption_matches_the_interning_reference() {
    let mut r = Lcg::new(0xF0_2E_19_03);
    let (mut holds, mut late_cases) = (0, 0);
    for case in 0..300 {
        let mut i = Interner::new();
        let mut vocab = Vocab::new(&mut i);
        let free_pool: Vec<Var> = vocab
            .vars
            .iter()
            .copied()
            .filter(|_| r.gen_bool(0.6))
            .collect();
        let p1 = vocab.wdpt(&mut r, &free_pool);
        vocab.intern_late(&mut i);
        let p2 = vocab.wdpt(&mut r, &free_pool);
        let atoms = (0..p2.node_count()).flat_map(|t| p2.atoms(t));
        late_cases += usize::from(vocab.mentions_late(atoms));

        for (a, b) in [(&p1, &p2), (&p2, &p1)] {
            let got = leak_free(&mut i, |i| subsumed(a, b, Engine::Backtrack, i));
            assert_eq!(
                got,
                reference::subsumed(a, b, &mut i.clone()),
                "case {case}:\n{}\n⊑\n{}",
                a.display(&i),
                b.display(&i)
            );
            holds += usize::from(got);
        }
    }
    assert!(holds > 40, "only {holds} subsumptions held");
    assert!(
        late_cases > 80,
        "{late_cases} cases mention a late constant"
    );
}

/// A root with five children has 2⁵ rooted subtrees, each frozen once: the
/// old `freeze` interned |vars| names per subtree.
#[test]
fn subsumption_over_many_subtrees_interns_nothing() {
    let mut i = Interner::new();
    let (a, b) = (i.pred("a"), i.pred("b"));
    let x = i.var("x");
    let mut builder = WdptBuilder::new(vec![Atom::new(a, vec![x.into()])]);
    let mut free = vec![x];
    for k in 0..5 {
        let y = i.var(&format!("y{k}"));
        builder.child(0, vec![Atom::new(b, vec![x.into(), y.into()])]);
        free.push(y);
    }
    let p = builder.build(free).unwrap();
    assert_eq!(p.rooted_subtree_count(), 32);

    assert!(leak_free(&mut i, |i| subsumed(
        &p,
        &p,
        Engine::Backtrack,
        i
    )));
    assert!(leak_free(&mut i, |i| subsumed(&p, &p, Engine::Tw(1), i)));
    let phi = Uwdpt::singleton(p);
    assert!(leak_free(&mut i, |i| {
        uwdpt_subsumed(&phi, &phi, Engine::Backtrack, i)
    }));
}

/// Ids are allocated upwards from the query's own largest constant and
/// must fail loudly at the top of `u32`, never wrap into ids that are
/// taken.
#[test]
#[should_panic(expected = "interner overflow")]
fn frozen_ids_overflow_loudly() {
    let mut i = Interner::new();
    let e = i.pred("e");
    let (x, y) = (i.var("x"), i.var("y"));
    // One free id (`u32::MAX`) is left above the constant; two are needed.
    let top = Term::Const(Const(u32::MAX - 1));
    let q = ConjunctiveQuery::boolean(vec![
        Atom::new(e, vec![x.into(), top]),
        Atom::new(e, vec![y.into(), top]),
    ]);
    core_of(&q, &mut i);
}

/// …while a query that needs exactly the ids that are left is served.
#[test]
fn frozen_ids_use_the_last_id() {
    let mut i = Interner::new();
    let e = i.pred("e");
    let x = i.var("x");
    let top = Term::Const(Const(u32::MAX - 1));
    let q = ConjunctiveQuery::boolean(vec![Atom::new(e, vec![x.into(), top])]);
    assert_eq!(core_of(&q, &mut i), q);
}
