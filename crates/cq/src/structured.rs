//! Decomposition-guided CQ evaluation (Theorems 2 and 3 of the paper).
//!
//! A [`StructuredPlan`] is a join tree whose nodes are variable bags taken
//! from a tree decomposition (`TW(k)` mode) or a generalized hypertree
//! decomposition (`HW(k)` mode, bags carrying an edge cover). Evaluation
//! materializes one relation per bag — at cost `|adom|^{k+1}` (TW) or
//! `|D|^k` (HW) — and then runs the Yannakakis upward semijoin pass, giving
//! a polynomial-time Boolean evaluation procedure for fixed `k`.
//!
//! [`enumerate_projections`] lifts the Boolean procedure to the enumeration
//! of answer projections onto a bounded variable set: it enumerates the
//! candidate-value product of the target variables and Boolean-checks each,
//! which stays polynomial when the target set has bounded size. This is the
//! building block for the bounded-interface evaluation algorithm of
//! Theorem 6 (`wdpt-core`).

use crate::query::ConjunctiveQuery;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use wdpt_decomp::{
    hypertree_width_at_most, treewidth_at_most, HypertreeDecomposition, TreeDecomposition,
};
use wdpt_model::{Atom, Const, Database, Mapping, Term, Var};
use wdpt_obs::{counter, histogram, span};

/// A join-tree evaluation plan over variable bags.
#[derive(Debug, Clone)]
pub struct StructuredPlan {
    bags: Vec<BTreeSet<Var>>,
    tree_edges: Vec<(usize, usize)>,
    /// `HW` mode: covering atom indices per bag; `None` selects `TW`-style
    /// candidate-set materialization.
    covers: Option<Vec<Vec<usize>>>,
}

impl StructuredPlan {
    /// Builds a plan from a tree decomposition of the query's hypergraph.
    /// `vertex_vars` is the vertex → variable table from
    /// [`ConjunctiveQuery::hypergraph`].
    pub fn from_tree_decomposition(td: &TreeDecomposition, vertex_vars: &[Var]) -> Self {
        StructuredPlan {
            bags: td
                .bags
                .iter()
                .map(|b| b.iter().map(|&v| vertex_vars[v]).collect())
                .collect(),
            tree_edges: td.tree_edges.clone(),
            covers: None,
        }
    }

    /// Builds a plan from a generalized hypertree decomposition (edge `i` of
    /// the hypergraph is body atom `i`).
    pub fn from_hypertree_decomposition(htd: &HypertreeDecomposition, vertex_vars: &[Var]) -> Self {
        StructuredPlan {
            bags: htd
                .nodes
                .iter()
                .map(|(b, _)| b.iter().map(|&v| vertex_vars[v]).collect())
                .collect(),
            tree_edges: htd.tree_edges.clone(),
            covers: Some(htd.nodes.iter().map(|(_, c)| c.clone()).collect()),
        }
    }

    /// Convenience: a `TW` plan for `q` if `q ∈ TW(k)`.
    pub fn for_query_tw(q: &ConjunctiveQuery, k: usize) -> Option<Self> {
        let (h, vars) = q.hypergraph();
        let td = treewidth_at_most(&h, k)?;
        Some(Self::from_tree_decomposition(&td, &vars))
    }

    /// Convenience: an `HW` plan for `q` if `q ∈ HW(k)`.
    pub fn for_query_hw(q: &ConjunctiveQuery, k: usize) -> Option<Self> {
        let (h, vars) = q.hypergraph();
        let htd = hypertree_width_at_most(&h, k)?;
        Some(Self::from_hypertree_decomposition(&htd, &vars))
    }

    /// The bag width (`max |bag|`), for diagnostics.
    pub fn max_bag_size(&self) -> usize {
        self.bags.iter().map(BTreeSet::len).max().unwrap_or(0)
    }
}

/// Candidate values of `v`: the intersection, over atoms containing `v`, of
/// the values `v` can take in tuples matching the atom's constant pattern.
/// A superset of the values any homomorphism assigns to `v`.
fn candidate_values(db: &Database, atoms: &[Atom], v: Var) -> BTreeSet<Const> {
    let mut cand: Option<BTreeSet<Const>> = None;
    for atom in atoms {
        if !atom.vars().any(|w| w == v) {
            continue;
        }
        let pat: Vec<Option<Const>> = atom
            .args
            .iter()
            .map(|t| match t {
                Term::Const(c) => Some(*c),
                Term::Var(_) => None,
            })
            .collect();
        let positions: Vec<usize> = atom
            .args
            .iter()
            .enumerate()
            .filter_map(|(i, t)| (t.as_var() == Some(v)).then_some(i))
            .collect();
        let mut values = BTreeSet::new();
        if let Some(rel) = db.relation(atom.pred) {
            'tuples: for t in rel.matching(&pat) {
                // Repeated occurrences of v must agree within the tuple.
                let first = t[positions[0]];
                for &p in &positions[1..] {
                    if t[p] != first {
                        continue 'tuples;
                    }
                }
                values.insert(first);
            }
        }
        cand = Some(match cand {
            None => values,
            Some(prev) => prev.intersection(&values).copied().collect(),
        });
    }
    cand.unwrap_or_default()
}

/// Materializes the relation of one bag: all assignments of the bag's
/// variables that satisfy every atom fully contained in the bag.
fn materialize_bag(
    db: &Database,
    atoms: &[Atom],
    bag: &BTreeSet<Var>,
    contained_atoms: &[usize],
    cover: Option<&[usize]>,
) -> Vec<Mapping> {
    let _span = span!("cq.structured.materialize");
    match cover {
        Some(cover_atoms) => {
            // HW mode: join the ≤ k cover atoms, project to the bag, filter
            // by the contained atoms.
            let cover_set: Vec<Atom> = cover_atoms.iter().map(|&i| atoms[i].clone()).collect();
            let homs = crate::backtrack::extend_all(db, &cover_set, &Mapping::empty());
            let mut seen: BTreeSet<Mapping> = BTreeSet::new();
            for h in homs {
                let proj = h.restrict(bag);
                if seen.contains(&proj) {
                    continue;
                }
                let ok = contained_atoms
                    .iter()
                    .all(|&i| db.contains_atom(&atoms[i].apply(&proj)));
                if ok {
                    seen.insert(proj);
                }
            }
            seen.into_iter().collect()
        }
        None => {
            // TW mode: backtrack over the bag variables through their
            // candidate sets, pruning with contained atoms as soon as they
            // become fully bound.
            let bag_vars: Vec<Var> = bag.iter().copied().collect();
            let cands: Vec<Vec<Const>> = bag_vars
                .iter()
                .map(|&v| candidate_values(db, atoms, v).into_iter().collect())
                .collect();
            // For pruning: atom i can be checked after the last of its vars
            // (w.r.t. bag_vars order) is bound.
            let check_after: Vec<Vec<usize>> = {
                let mut table = vec![Vec::new(); bag_vars.len()];
                for &ai in contained_atoms {
                    let avars = atoms[ai].var_set();
                    if let Some(last) = bag_vars
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| avars.contains(v))
                        .map(|(i, _)| i)
                        .max()
                    {
                        table[last].push(ai);
                    } else {
                        // Variable-free (ground) atom: check once up front.
                        if !db.contains_atom(&atoms[ai]) {
                            return Vec::new();
                        }
                    }
                }
                table
            };
            let mut out = Vec::new();
            let mut h = Mapping::empty();
            #[allow(clippy::too_many_arguments)]
            fn rec(
                db: &Database,
                atoms: &[Atom],
                bag_vars: &[Var],
                cands: &[Vec<Const>],
                check_after: &[Vec<usize>],
                depth: usize,
                h: &mut Mapping,
                out: &mut Vec<Mapping>,
            ) {
                if depth == bag_vars.len() {
                    out.push(h.clone());
                    return;
                }
                for &c in &cands[depth] {
                    h.insert(bag_vars[depth], c);
                    let ok = check_after[depth]
                        .iter()
                        .all(|&ai| db.contains_atom(&atoms[ai].apply(h)));
                    if ok {
                        rec(db, atoms, bag_vars, cands, check_after, depth + 1, h, out);
                    }
                    h.remove(bag_vars[depth]);
                }
            }
            rec(
                db,
                atoms,
                &bag_vars,
                &cands,
                &check_after,
                0,
                &mut h,
                &mut out,
            );
            out
        }
    }
}

/// Boolean structured evaluation: does a homomorphism from `q` to `db`
/// extending `seed` exist? Runs bag materialization plus the Yannakakis
/// upward semijoin pass over `plan`. Polynomial for fixed bag width / cover
/// size.
pub fn boolean_eval_structured(
    q: &ConjunctiveQuery,
    db: &Database,
    plan: &StructuredPlan,
    seed: &Mapping,
) -> bool {
    let _span = span!("cq.structured.eval");
    // Substitute the seed so bound variables become constants.
    let atoms: Vec<Atom> = q.body().iter().map(|a| a.apply(seed)).collect();
    let bags: Vec<BTreeSet<Var>> = plan
        .bags
        .iter()
        .map(|b| b.iter().copied().filter(|&v| !seed.defines(v)).collect())
        .collect();
    if atoms.is_empty() {
        return true;
    }
    // Assign each atom to one bag that contains all its variables.
    let mut contained: Vec<Vec<usize>> = vec![Vec::new(); bags.len()];
    for (i, a) in atoms.iter().enumerate() {
        let avars = a.var_set();
        match (0..bags.len()).find(|&b| avars.is_subset(&bags[b])) {
            Some(b) => contained[b].push(i),
            // A valid decomposition covers every atom; a seed never breaks
            // coverage (it only removes variables).
            None => unreachable!("decomposition does not cover an atom"),
        }
    }
    // Materialize bags.
    let mut relations: Vec<Vec<Mapping>> = Vec::with_capacity(bags.len());
    for (b, bag) in bags.iter().enumerate() {
        let cover = plan.covers.as_ref().map(|c| c[b].as_slice());
        let tuples = materialize_bag(db, &atoms, bag, &contained[b], cover);
        if wdpt_obs::tracing_enabled() {
            histogram!("cq.structured.bag_size").record(tuples.len() as u64);
        }
        // An empty bag relation means failure unless the bag is trivial
        // (no variables and no atoms to satisfy).
        if tuples.is_empty() && (!bag.is_empty() || !contained[b].is_empty()) {
            return false;
        }
        relations.push(tuples);
    }
    // Root the tree at node 0 and compute a bottom-up order.
    let n = bags.len();
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in &plan.tree_edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut parent = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            order.push(v);
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    parent[w] = v;
                    stack.push(w);
                }
            }
        }
    }
    // Upward semijoins: children filter parents.
    let _semijoin_span = span!("cq.structured.semijoin");
    for &t in order.iter().rev() {
        let p = parent[t];
        if p == usize::MAX {
            if relations[t].is_empty() && (!bags[t].is_empty() || !contained[t].is_empty()) {
                return false;
            }
            continue;
        }
        let shared: BTreeSet<Var> = bags[t].intersection(&bags[p]).copied().collect();
        let child_keys: HashSet<Mapping> =
            relations[t].iter().map(|m| m.restrict(&shared)).collect();
        if child_keys.is_empty() {
            return false;
        }
        let before = relations[p].len() as u64;
        relations[p].retain(|m| child_keys.contains(&m.restrict(&shared)));
        let kept = relations[p].len() as u64;
        counter!("cq.structured.semijoin_kept").add(kept);
        counter!("cq.structured.semijoin_dropped").add(before - kept);
        if relations[p].is_empty() {
            return false;
        }
    }
    true
}

/// Enumerates the projections onto `targets` of homomorphisms from `q` to
/// `db` extending `seed`: for each combination of candidate values of the
/// target variables, one Boolean structured check. Polynomial when
/// `|targets|` is bounded — the enumeration pattern behind Theorem 6.
pub fn enumerate_projections(
    q: &ConjunctiveQuery,
    db: &Database,
    plan: &StructuredPlan,
    targets: &BTreeSet<Var>,
    seed: &Mapping,
) -> Vec<Mapping> {
    let _span = span!("cq.structured.enumerate");
    let atoms: Vec<Atom> = q.body().iter().map(|a| a.apply(seed)).collect();
    let target_list: Vec<Var> = targets
        .iter()
        .copied()
        .filter(|&v| !seed.defines(v))
        .collect();
    let cands: Vec<Vec<Const>> = target_list
        .iter()
        .map(|&v| candidate_values(db, &atoms, v).into_iter().collect())
        .collect();
    let mut out = Vec::new();
    let mut assignment = Mapping::empty();
    #[allow(clippy::too_many_arguments)]
    fn rec(
        q: &ConjunctiveQuery,
        db: &Database,
        plan: &StructuredPlan,
        seed: &Mapping,
        targets: &[Var],
        cands: &[Vec<Const>],
        depth: usize,
        assignment: &mut Mapping,
        out: &mut Vec<Mapping>,
    ) {
        if depth == targets.len() {
            let full = seed.union(assignment).expect("disjoint domains");
            if boolean_eval_structured(q, db, plan, &full) {
                out.push(assignment.clone());
            }
            return;
        }
        for &c in &cands[depth] {
            assignment.insert(targets[depth], c);
            rec(
                q,
                db,
                plan,
                seed,
                targets,
                cands,
                depth + 1,
                assignment,
                out,
            );
            assignment.remove(targets[depth]);
        }
    }
    rec(
        q,
        db,
        plan,
        seed,
        &target_list,
        &cands,
        0,
        &mut assignment,
        &mut out,
    );
    out
}

/// Builds a `BTreeMap` index keyed by variable for quick diagnostics in
/// tests (candidate set sizes per variable).
pub fn candidate_profile(db: &Database, q: &ConjunctiveQuery) -> BTreeMap<Var, usize> {
    q.variables()
        .into_iter()
        .map(|v| (v, candidate_values(db, q.body(), v).len()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtrack;
    use wdpt_model::parse::{parse_atoms, parse_database, parse_mapping};
    use wdpt_model::Interner;

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

    #[test]
    fn tw_plan_matches_backtracking_boolean() {
        let (mut i, db) = path_db(6);
        let query = q(&mut i, &[], "e(?a,?b) e(?b,?c) e(?c,?d)");
        let plan = StructuredPlan::for_query_tw(&query, 1).expect("path is TW(1)");
        assert_eq!(
            boolean_eval_structured(&query, &db, &plan, &Mapping::empty()),
            backtrack::extend_exists(&db, query.body(), &Mapping::empty())
        );
    }

    #[test]
    fn tw_plan_detects_unsatisfiable() {
        let (mut i, db) = path_db(3);
        // A cycle query on a path database: unsatisfiable.
        let query = q(&mut i, &[], "e(?a,?b) e(?b,?a)");
        let plan = StructuredPlan::for_query_tw(&query, 2).unwrap();
        assert!(!boolean_eval_structured(
            &query,
            &db,
            &plan,
            &Mapping::empty()
        ));
    }

    #[test]
    fn hw_plan_on_triangle_query() {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "e(1,2) e(2,3) e(3,1)").unwrap();
        let query = q(&mut i, &[], "e(?x,?y) e(?y,?z) e(?z,?x)");
        let plan = StructuredPlan::for_query_hw(&query, 2).expect("triangle is HW(2)");
        assert!(boolean_eval_structured(
            &query,
            &db,
            &plan,
            &Mapping::empty()
        ));
        // Remove an edge: no triangle.
        let db2 = parse_database(&mut i, "e(1,2) e(2,3)").unwrap();
        assert!(!boolean_eval_structured(
            &query,
            &db2,
            &plan,
            &Mapping::empty()
        ));
    }

    #[test]
    fn seeded_boolean_eval() {
        let (mut i, db) = path_db(4);
        let query = q(&mut i, &["a"], "e(?a,?b) e(?b,?c)");
        let plan = StructuredPlan::for_query_tw(&query, 1).unwrap();
        let good = parse_mapping(&mut i, "?a -> n0").unwrap();
        let bad = parse_mapping(&mut i, "?a -> n3").unwrap();
        assert!(boolean_eval_structured(&query, &db, &plan, &good));
        assert!(!boolean_eval_structured(&query, &db, &plan, &bad));
    }

    #[test]
    fn projections_match_backtracking() {
        let (mut i, db) = path_db(5);
        let query = q(&mut i, &["a"], "e(?a,?b) e(?b,?c)");
        let plan = StructuredPlan::for_query_tw(&query, 1).unwrap();
        let a = i.var("a");
        let targets: BTreeSet<Var> = [a].into_iter().collect();
        let mut structured = enumerate_projections(&query, &db, &plan, &targets, &Mapping::empty());
        structured.sort();
        let mut reference: Vec<Mapping> = backtrack::evaluate(&query, &db);
        reference.sort();
        assert_eq!(structured, reference);
    }

    #[test]
    fn projection_respects_seed() {
        let (mut i, db) = path_db(5);
        let query = q(&mut i, &["a", "b"], "e(?a,?b) e(?b,?c)");
        let plan = StructuredPlan::for_query_tw(&query, 1).unwrap();
        let b = i.var("b");
        let targets: BTreeSet<Var> = [b].into_iter().collect();
        let seed = parse_mapping(&mut i, "?a -> n1").unwrap();
        let proj = enumerate_projections(&query, &db, &plan, &targets, &seed);
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
            let got = boolean_eval_structured(&query, &db, &plan, &Mapping::empty());
            assert_eq!(got, expected, "case {case} disagreed");
        }
    }

    #[test]
    fn candidate_profile_reflects_filtering() {
        let (mut i, db) = path_db(4);
        // n4 has no outgoing edge, n0 no incoming: ?b excludes both ends.
        let query = q(&mut i, &[], "e(?a,?b) e(?b,?c)");
        let profile = candidate_profile(&db, &query);
        let b = i.var("b");
        assert_eq!(profile[&b], 3); // n1, n2, n3
    }
}
