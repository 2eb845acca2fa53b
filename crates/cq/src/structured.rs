//! Decomposition-guided CQ evaluation (Theorems 2 and 3 of the paper): the
//! one oracle the paper's procedures ask their CQ questions of.
//!
//! A [`StructuredPlan`] is a join tree over the bags of a tree decomposition
//! (`TW(k)`) or of a generalized hypertree decomposition (`HW(k)`, each bag
//! with an edge cover). An [`Oracle`] compiles a CQ against a database over
//! a plan — or over one bag of all its atoms, which is backtracking — and
//! decides whether a homomorphism agrees with its *seeded* slots: each bag's
//! relation is a flat sorted run ([`Relation`]) filled by the bag's own
//! [`Search`] — over its cover and contained atoms (`HW`, `|D|^k` rows), or
//! its contained atoms with its other variables ranging over their candidate
//! values (`TW`, `|adom|^{k+1}` rows) — and the Yannakakis upward pass
//! semijoins each bag into its parent by lookups on their shared columns.
//! [`Oracle::project`] decides every combination of the candidate values of
//! boundedly many target slots: the pattern behind Theorem 6 (`wdpt-core`).

use crate::backtrack::Search;
use crate::query::ConjunctiveQuery;
use std::collections::BTreeSet;
use wdpt_decomp::{hypertree_width_at_most, treewidth_at_most};
use wdpt_model::{Atom, CancelToken, Const, Database, Relation, Term, Var};
use wdpt_obs::span;

/// A join tree over variable bags: the decomposition an [`Oracle`]
/// evaluates a CQ over.
#[derive(Debug, Clone)]
pub struct StructuredPlan {
    /// Each bag's variables, ascending.
    bags: Vec<Vec<Var>>,
    /// Each bag's parent in the join tree (`None` for a root).
    parent: Vec<Option<usize>>,
    /// The bags, every one after its parent.
    preorder: Vec<usize>,
    /// Per bag, the body atoms its relation is searched over: its cover and
    /// the atoms it contains (`HW`), the atoms it contains (`TW`).
    atoms: Vec<Vec<usize>>,
}

impl StructuredPlan {
    /// A `TW` plan for `q` if `q ∈ TW(k)`: the bags of a tree decomposition
    /// of its hypergraph.
    pub fn for_query_tw(q: &ConjunctiveQuery, k: usize) -> Option<Self> {
        let (h, vars) = q.hypergraph();
        let td = treewidth_at_most(&h, k)?;
        let bags = td.bags.iter().map(|bag| (bag, &[][..]));
        Some(Self::new(q, &vars, bags, &td.tree_edges))
    }

    /// An `HW` plan for `q` if `q ∈ HW(k)`: the bags of a generalized
    /// hypertree decomposition, each with its cover (edge `i` of the
    /// hypergraph is body atom `i`).
    pub fn for_query_hw(q: &ConjunctiveQuery, k: usize) -> Option<Self> {
        let (h, vars) = q.hypergraph();
        let htd = hypertree_width_at_most(&h, k)?;
        let bags = htd.nodes.iter().map(|(bag, cover)| (bag, &cover[..]));
        Some(Self::new(q, &vars, bags, &htd.tree_edges))
    }

    /// The plan of a decomposition of `q`'s hypergraph, whose vertex `v` is
    /// the variable `vertex_vars[v]`: its bags with their covers, and its
    /// tree edges.
    fn new<'d>(
        q: &ConjunctiveQuery,
        vertex_vars: &[Var],
        decomposition: impl Iterator<Item = (&'d BTreeSet<usize>, &'d [usize])>,
        edges: &[(usize, usize)],
    ) -> Self {
        let (mut bags, mut atoms) = (Vec::new(), Vec::new());
        for (bag, cover) in decomposition {
            bags.push(bag.iter().map(|&v| vertex_vars[v]).collect::<Vec<Var>>());
            atoms.push(cover.to_vec());
        }
        if bags.is_empty() {
            // A query without variables decomposes into no bag at all; its
            // atoms are checked in one empty bag.
            bags.push(Vec::new());
            atoms.push(Vec::new());
        }
        for (i, atom) in q.body().iter().enumerate() {
            let home = (bags.iter())
                .position(|bag| atom.vars().all(|v| bag.binary_search(&v).is_ok()))
                .expect("a decomposition covers every atom");
            if !atoms[home].contains(&i) {
                atoms[home].push(i);
            }
        }
        let mut adjacent = vec![Vec::new(); bags.len()];
        for &(a, b) in edges {
            adjacent[a].push(b);
            adjacent[b].push(a);
        }
        let mut parent = vec![None; bags.len()];
        let mut seen = vec![false; bags.len()];
        let mut preorder = Vec::with_capacity(bags.len());
        for root in 0..bags.len() {
            let mut stack = vec![root];
            while let Some(b) = stack.pop() {
                if std::mem::replace(&mut seen[b], true) {
                    continue;
                }
                preorder.push(b);
                for &c in &adjacent[b] {
                    if !seen[c] {
                        parent[c] = Some(b);
                        stack.push(c);
                    }
                }
            }
        }
        StructuredPlan {
            bags,
            parent,
            preorder,
            atoms,
        }
    }
}

/// A CQ compiled against a database to decide, again and again, whether a
/// homomorphism from its atoms into the database agrees with the values
/// written into its *seeded* slots: the one oracle the paper's decision
/// procedures ask their CQ questions of, compiled once per CQ they ask.
///
/// Like a [`Search`], an oracle numbers the variables of its atoms `0..n` in
/// ascending [`Var`] order ([`Oracle::vars`]), and the caller writes every
/// seeded slot with [`Oracle::set`] before deciding.
pub struct Oracle<'a> {
    db: &'a Database,
    atoms: &'a [Atom],
    vars: Vec<Var>,
    seeded: Vec<bool>,
    /// The seeded slots' values.
    frame: Vec<Const>,
    bags: Vec<Bag<'a>>,
    /// The bags, every one after its parent.
    preorder: Vec<usize>,
}

/// One bag of a plan, compiled.
struct Bag<'a> {
    /// Over the bag's atoms, seeded where the oracle is.
    search: Search<'a>,
    /// `(search slot, oracle slot)` per seeded variable of the search.
    seeds: Vec<(usize, usize)>,
    /// The relation's columns: the bag's unseeded variables, ascending.
    cols: Vec<Col>,
    /// The oracle slots of the [`Col::Loose`] columns, in column order.
    loose: Vec<usize>,
    parent: Option<usize>,
    /// `(column here, column in the parent's relation)` per variable the two
    /// relations share.
    shared: Vec<(usize, usize)>,
}

/// Where a bag column takes its values from.
#[derive(Debug, Clone, Copy)]
enum Col {
    /// A slot of the bag's search.
    Bound(usize),
    /// The candidate values of the `k`-th loose variable — in `TW` mode, a
    /// bag variable no atom of the bag's search mentions.
    Loose(usize),
}

impl<'a> Oracle<'a> {
    /// Compiles `atoms` against `db`, over `plan` — derived from a query
    /// whose body is `atoms` — or, without one, as a single bag for
    /// backtracking. `seeded` says which of the atoms' variables the caller
    /// will supply.
    pub fn new(
        db: &'a Database,
        atoms: &'a [Atom],
        plan: Option<&StructuredPlan>,
        seeded: impl Fn(Var) -> bool,
    ) -> Self {
        let mut vars: Vec<Var> = atoms.iter().flat_map(Atom::vars).collect();
        vars.sort_unstable();
        vars.dedup();
        let single;
        let plan = match plan {
            Some(plan) => plan,
            None => {
                single = StructuredPlan {
                    bags: vec![vars.clone()],
                    parent: vec![None],
                    preorder: vec![0],
                    atoms: vec![(0..atoms.len()).collect()],
                };
                &single
            }
        };
        let seeded: Vec<bool> = vars.iter().map(|&v| seeded(v)).collect();
        let slot = |v: Var| vars.binary_search(&v).expect("a variable of the atoms");
        let is_seeded = |v: Var| seeded[slot(v)];
        let columns: Vec<Vec<Var>> = (plan.bags.iter())
            .map(|bag| bag.iter().copied().filter(|&v| !is_seeded(v)).collect())
            .collect();
        let bags = (0..plan.bags.len())
            .map(|b| {
                let bag_atoms: Vec<Atom> =
                    plan.atoms[b].iter().map(|&i| atoms[i].clone()).collect();
                let search = Search::compile(db, &bag_atoms, None, is_seeded);
                let seeds = (search.vars().iter().enumerate())
                    .filter(|&(_, &v)| is_seeded(v))
                    .map(|(s, &v)| (s, slot(v)))
                    .collect();
                let mut loose = Vec::new();
                let cols = (columns[b].iter())
                    .map(|&v| match search.vars().binary_search(&v) {
                        Ok(s) => Col::Bound(s),
                        Err(_) => {
                            loose.push(slot(v));
                            Col::Loose(loose.len() - 1)
                        }
                    })
                    .collect();
                let parent = plan.parent[b];
                let shared = parent.map_or_else(Vec::new, |p| {
                    (columns[b].iter().enumerate())
                        .filter_map(|(c, v)| Some((c, columns[p].binary_search(v).ok()?)))
                        .collect()
                });
                Bag {
                    search,
                    seeds,
                    cols,
                    loose,
                    parent,
                    shared,
                }
            })
            .collect();
        Oracle {
            db,
            atoms,
            frame: vec![Const(0); vars.len()],
            vars,
            seeded,
            bags,
            preorder: plan.preorder.clone(),
        }
    }

    /// The variables of the atoms, ascending: slot `k` holds `vars()[k]`.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Supplies the value of a seeded slot for the decisions that follow.
    pub fn set(&mut self, slot: usize, value: Const) {
        self.frame[slot] = value;
    }

    /// True iff some homomorphism from the atoms into the database agrees
    /// with every seeded slot.
    pub fn exists(&mut self) -> bool {
        let _span = span!("cq.structured.eval");
        if let [bag] = &mut self.bags[..] {
            // One bag holds every atom and variable: its search decides.
            bag.seed(&self.frame);
            return (bag.search.exists(CancelToken::never())).expect("never cancels");
        }
        let mut relations = Vec::with_capacity(self.bags.len());
        for b in 0..self.bags.len() {
            let loose = &self.bags[b].loose;
            let lists: Vec<Vec<Const>> = (loose.iter())
                .map(|&s| self.candidates(s, |t| self.seeded[t]))
                .collect();
            let relation = self.bags[b].fill(&self.frame, &lists);
            if relation.is_empty() {
                return false;
            }
            relations.push(relation);
        }
        // Upward semijoins in reverse preorder: a bag reduces its parent
        // once all its children have reduced it.
        let _semijoin = span!("cq.structured.semijoin");
        let mut key = Vec::new();
        for &b in self.preorder.iter().rev() {
            let Bag { parent, shared, .. } = &self.bags[b];
            let Some(p) = *parent else { continue };
            let keys = rows(
                shared.len(),
                (relations[b].tuples()).map(|row| shared.iter().map(|&(here, _)| row[here])),
            );
            let kept = (relations[p].tuples()).filter(|row| {
                key.clear();
                key.extend(shared.iter().map(|&(_, there)| row[there]));
                keys.contains(&key)
            });
            relations[p] = rows(relations[p].arity(), kept.map(|row| row.iter().copied()));
            if relations[p].is_empty() {
                return false;
            }
        }
        true
    }

    /// Hands `on_row` the values the `targets` — seeded slots, ascending —
    /// take in the homomorphisms that agree with the other seeded slots,
    /// each combination once and in ascending order: every combination of
    /// the targets' candidate values, written into their slots and decided.
    pub fn project(&mut self, targets: &[usize], mut on_row: impl FnMut(&[Const])) {
        debug_assert!(targets.iter().all(|&t| self.seeded[t]));
        let _span = span!("cq.structured.enumerate");
        let pinned = |s: usize| self.seeded[s] && !targets.contains(&s);
        let lists: Vec<Vec<Const>> = (targets.iter())
            .map(|&t| self.candidates(t, pinned))
            .collect();
        for_each_combination(&lists, |combo| {
            for (&t, &c) in targets.iter().zip(combo) {
                self.set(t, c);
            }
            if self.exists() {
                on_row(combo);
            }
        });
    }

    /// The values slot `slot` can take: the intersection, over the atoms
    /// mentioning it, of its values in the tuples that match the atom's
    /// constants and the values of its `pinned` slots — a superset of the
    /// values any homomorphism agreeing with the pinned slots gives it.
    fn candidates(&self, slot: usize, pinned: impl Fn(usize) -> bool) -> Vec<Const> {
        let v = self.vars[slot];
        let mut cand: Option<Vec<Const>> = None;
        for atom in self.atoms.iter().filter(|a| a.vars().any(|w| w == v)) {
            let pattern: Vec<Option<Const>> = (atom.args.iter())
                .map(|t| match *t {
                    Term::Const(c) => Some(c),
                    Term::Var(w) => (self.vars.binary_search(&w).ok())
                        .filter(|&s| pinned(s))
                        .map(|s| self.frame[s]),
                })
                .collect();
            let at: Vec<usize> = (0..atom.arity())
                .filter(|&k| atom.args[k].as_var() == Some(v))
                .collect();
            let relation = (self.db.relation(atom.pred)).filter(|rel| rel.arity() == atom.arity());
            // Repeated occurrences of the variable agree within a tuple.
            let mut values: Vec<Const> = (relation.iter())
                .flat_map(|rel| rel.matching(&pattern))
                .filter(|t| at.iter().all(|&k| t[k] == t[at[0]]))
                .map(|t| t[at[0]])
                .collect();
            values.sort_unstable();
            values.dedup();
            if let Some(prev) = &cand {
                values.retain(|c| prev.binary_search(c).is_ok());
            }
            cand = Some(values);
        }
        cand.unwrap_or_default()
    }
}

impl Bag<'_> {
    /// Writes the oracle's seeded values into the bag's search.
    fn seed(&mut self, frame: &[Const]) {
        for &(s, o) in &self.seeds {
            self.search.set(s, frame[o]);
        }
    }

    /// The bag's relation under the seeded values `frame`: every row of the
    /// bag's search, times every combination of one value from each list of
    /// the loose variables' candidates.
    fn fill(&mut self, frame: &[Const], lists: &[Vec<Const>]) -> Relation {
        let _span = span!("cq.structured.materialize");
        self.seed(frame);
        let mut combos = Vec::new();
        for_each_combination(lists, |combo| combos.push(combo.to_vec()));
        let (mut cells, mut len) = (Vec::new(), 0);
        (self.search)
            .for_each(CancelToken::never(), |frame| {
                for combo in &combos {
                    cells.extend(self.cols.iter().map(|&col| match col {
                        Col::Bound(s) => frame[s],
                        Col::Loose(k) => combo[k],
                    }));
                    len += 1;
                }
            })
            .expect("never cancels");
        Relation::from_rows(self.cols.len(), len, cells)
    }
}

/// The relation of the `width`-cell rows `rows`, sorted and distinct.
fn rows<R: IntoIterator<Item = Const>>(
    width: usize,
    rows: impl IntoIterator<Item = R>,
) -> Relation {
    let (mut cells, mut len) = (Vec::new(), 0);
    for row in rows {
        cells.extend(row);
        len += 1;
    }
    Relation::from_rows(width, len, cells)
}

/// Calls `f` with every combination of one value from each list, the last
/// list varying fastest — in ascending order when the lists are — and once
/// with no values when there is no list.
fn for_each_combination(lists: &[Vec<Const>], mut f: impl FnMut(&[Const])) {
    fn extend(lists: &[Vec<Const>], combo: &mut Vec<Const>, f: &mut impl FnMut(&[Const])) {
        let Some((list, rest)) = lists.split_first() else {
            return f(combo);
        };
        for &c in list {
            combo.push(c);
            extend(rest, combo, f);
            combo.pop();
        }
    }
    extend(lists, &mut Vec::with_capacity(lists.len()), &mut f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtrack;
    use wdpt_model::parse::{parse_atoms, parse_database, parse_mapping};
    use wdpt_model::{Interner, Mapping};

    fn path_db(n: usize) -> (Interner, Database) {
        let mut i = Interner::new();
        let mut db = Database::new();
        let e = i.pred("e");
        for j in 0..n {
            let a = i.constant(&format!("n{j}"));
            let b = i.constant(&format!("n{}", j + 1));
            db.insert(e, vec![a, b]);
        }
        (i, db)
    }

    fn q(i: &mut Interner, head: &[&str], body: &str) -> ConjunctiveQuery {
        let atoms = parse_atoms(i, body).unwrap();
        let head = head.iter().map(|n| i.var(n)).collect();
        ConjunctiveQuery::new(head, atoms)
    }

    /// Does a homomorphism of `query` over `plan` extend `seed`?
    fn decide(
        query: &ConjunctiveQuery,
        db: &Database,
        plan: &StructuredPlan,
        seed: &Mapping,
    ) -> bool {
        let mut oracle = Oracle::new(db, query.body(), Some(plan), |v| seed.defines(v));
        for slot in 0..oracle.vars().len() {
            if let Some(c) = seed.get(oracle.vars()[slot]) {
                oracle.set(slot, c);
            }
        }
        oracle.exists()
    }

    /// The projections onto `targets` of the homomorphisms of `query`
    /// extending `seed`, as mappings.
    fn project(
        query: &ConjunctiveQuery,
        db: &Database,
        plan: Option<&StructuredPlan>,
        targets: &[Var],
        seed: &Mapping,
    ) -> Vec<Mapping> {
        let mut oracle = Oracle::new(db, query.body(), plan, |v| {
            seed.defines(v) || targets.contains(&v)
        });
        let vars = oracle.vars().to_vec();
        for (slot, &v) in vars.iter().enumerate() {
            if let Some(c) = seed.get(v) {
                oracle.set(slot, c);
            }
        }
        let slots: Vec<usize> = targets
            .iter()
            .map(|v| vars.binary_search(v).unwrap())
            .collect();
        let mut out = Vec::new();
        oracle.project(&slots, |row| {
            out.push(Mapping::from_pairs(
                targets.iter().copied().zip(row.iter().copied()),
            ));
        });
        out
    }

    #[test]
    fn tw_plan_matches_backtracking_boolean() {
        let (mut i, db) = path_db(6);
        let query = q(&mut i, &[], "e(?a,?b) e(?b,?c) e(?c,?d)");
        let plan = StructuredPlan::for_query_tw(&query, 1).expect("path is TW(1)");
        assert_eq!(
            decide(&query, &db, &plan, &Mapping::empty()),
            backtrack::extend_exists(&db, query.body(), &Mapping::empty())
        );
    }

    #[test]
    fn tw_plan_detects_unsatisfiable() {
        let (mut i, db) = path_db(3);
        // A cycle query on a path database: unsatisfiable.
        let query = q(&mut i, &[], "e(?a,?b) e(?b,?a)");
        let plan = StructuredPlan::for_query_tw(&query, 2).unwrap();
        assert!(!decide(&query, &db, &plan, &Mapping::empty()));
    }

    #[test]
    fn hw_plan_on_triangle_query() {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "e(1,2) e(2,3) e(3,1)").unwrap();
        let query = q(&mut i, &[], "e(?x,?y) e(?y,?z) e(?z,?x)");
        let plan = StructuredPlan::for_query_hw(&query, 2).expect("triangle is HW(2)");
        assert!(decide(&query, &db, &plan, &Mapping::empty()));
        // Remove an edge: no triangle.
        let db2 = parse_database(&mut i, "e(1,2) e(2,3)").unwrap();
        assert!(!decide(&query, &db2, &plan, &Mapping::empty()));
    }

    #[test]
    fn seeded_boolean_eval() {
        let (mut i, db) = path_db(4);
        let query = q(&mut i, &["a"], "e(?a,?b) e(?b,?c)");
        let plan = StructuredPlan::for_query_tw(&query, 1).unwrap();
        let good = parse_mapping(&mut i, "?a -> n0").unwrap();
        let bad = parse_mapping(&mut i, "?a -> n3").unwrap();
        assert!(decide(&query, &db, &plan, &good));
        assert!(!decide(&query, &db, &plan, &bad));
    }

    #[test]
    fn a_query_without_variables_is_checked_in_one_empty_bag() {
        let mut i = Interner::new();
        let query = q(&mut i, &[], "marker(on)");
        let on = parse_database(&mut i, "marker(on)").unwrap();
        let off = parse_database(&mut i, "marker(off)").unwrap();
        let tw = StructuredPlan::for_query_tw(&query, 1).unwrap();
        let hw = StructuredPlan::for_query_hw(&query, 1).unwrap();
        for plan in [&tw, &hw] {
            assert!(decide(&query, &on, plan, &Mapping::empty()));
            assert!(!decide(&query, &off, plan, &Mapping::empty()));
        }
    }

    #[test]
    fn projections_match_backtracking() {
        let (mut i, db) = path_db(5);
        let query = q(&mut i, &["a"], "e(?a,?b) e(?b,?c)");
        let plan = StructuredPlan::for_query_tw(&query, 1).unwrap();
        let a = i.var("a");
        let structured = project(&query, &db, Some(&plan), &[a], &Mapping::empty());
        let reference: Vec<Mapping> = backtrack::evaluate(&query, &db);
        assert_eq!(structured, reference);
        assert_eq!(
            project(&query, &db, None, &[a], &Mapping::empty()),
            reference
        );
    }

    #[test]
    fn projection_respects_seed() {
        let (mut i, db) = path_db(5);
        let query = q(&mut i, &["a", "b"], "e(?a,?b) e(?b,?c)");
        let plan = StructuredPlan::for_query_tw(&query, 1).unwrap();
        let b = i.var("b");
        let seed = parse_mapping(&mut i, "?a -> n1").unwrap();
        let proj = project(&query, &db, Some(&plan), &[b], &seed);
        assert_eq!(proj.len(), 1);
        assert_eq!(proj[0].get(b), Some(i.constant("n2")));
    }

    #[test]
    fn randomized_agreement_with_backtracking() {
        // Deterministic pseudo-random small instances: structured and
        // backtracking engines must agree on satisfiability.
        let mut state = 0x9e3779b9u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for case in 0..30 {
            let mut i = Interner::new();
            let e = i.pred("e");
            let mut db = Database::new();
            let dom = 3 + next() % 3;
            for _ in 0..(4 + next() % 8) {
                let a = i.constant(&format!("c{}", next() % dom));
                let b = i.constant(&format!("c{}", next() % dom));
                db.insert(e, vec![a, b]);
            }
            let nv = 2 + next() % 3;
            let mut atoms = Vec::new();
            for _ in 0..(2 + next() % 3) {
                let x = i.var(&format!("v{}", next() % nv));
                let y = i.var(&format!("v{}", next() % nv));
                atoms.push(wdpt_model::Atom::new(e, vec![x.into(), y.into()]));
            }
            let query = ConjunctiveQuery::boolean(atoms);
            let expected = backtrack::extend_exists(&db, query.body(), &Mapping::empty());
            let plan = StructuredPlan::for_query_tw(&query, 3).expect("tiny query");
            let got = decide(&query, &db, &plan, &Mapping::empty());
            assert_eq!(got, expected, "case {case} disagreed");
        }
    }
}
