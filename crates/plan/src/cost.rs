//! The cost model: expected backtracking work of an atom order.
//!
//! The backtracking engine expands one search node per (partial mapping ×
//! atom selection), so the cost of executing atoms in order `a_1 … a_n` is
//!
//! ```text
//!   nodes(order) = Σ_{d=1}^{n} Π_{j<d} m_j
//! ```
//!
//! where `m_j` is the expected number of tuples matching atom `a_j` once
//! the atoms before it (and the node's inherited ancestor variables) have
//! bound its join variables. `m_j` comes from the statistics catalog under
//! an independence assumption between columns. A *visible constant* is
//! priced by what the catalog knows of that value: its exact posting length
//! when it is one of the column's most common values, the mean over the
//! other values when it is not — so a heavy hitter is neither missed nor
//! allowed to inflate its neighbours. A column bound to a *variable* whose
//! value is only known at run time is priced uniformly: a relation of `r`
//! rows with `d` distinct values there matches `r/d` tuples in expectation.
//! Independence is what correlated columns violate — which is why
//! `explain` prints these estimates beside the observed `nodes_expanded`.

use crate::stats::StatsCatalog;
use std::collections::BTreeSet;
use wdpt_model::{Atom, Term, Var};

/// Expected number of tuples matching `atom` given that the variables in
/// `bound` already carry values. Exact (`rows`) for unconstrained atoms
/// and `0` for relations absent from the catalog; fractional values mean
/// "less than one match expected".
pub fn est_matches(stats: &StatsCatalog, atom: &Atom, bound: &BTreeSet<Var>) -> f64 {
    let Some(rs) = stats.relation(atom.pred) else {
        return 0.0;
    };
    if rs.rows == 0 {
        return 0.0;
    }
    let rows = rs.rows as f64;
    let mut est = rows;
    let mut seen_here: BTreeSet<Var> = BTreeSet::new();
    for (col, term) in atom.args.iter().enumerate() {
        let Some(cs) = rs.columns.get(col) else {
            continue;
        };
        match term {
            // `est · posting / rows`, in the order that keeps a single
            // listed constant's estimate exactly its posting length.
            Term::Const(c) => est = est * cs.est_posting(*c, rs.rows) / rows,
            // A repeated variable inside the atom is an equality
            // constraint on its second occurrence even when unbound.
            Term::Var(v) => {
                if bound.contains(v) || !seen_here.insert(*v) {
                    est /= cs.distinct.max(1) as f64;
                }
            }
        }
    }
    est
}

/// Estimated cost and output size of executing `atoms` in the given order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderCost {
    /// Expected backtracking nodes expanded (`Σ_d Π_{j<d} m_j`).
    pub nodes: f64,
    /// Expected result tuples (`Π_j m_j`).
    pub rows: f64,
}

/// Costs the order `atoms[order[0]], atoms[order[1]], …` starting from the
/// already-bound variable set `bound0` (a wdPT node's inherited ancestor
/// variables). `order` must be a permutation of `0..atoms.len()`.
pub fn order_cost(
    stats: &StatsCatalog,
    atoms: &[Atom],
    order: &[usize],
    bound0: &BTreeSet<Var>,
) -> OrderCost {
    debug_assert_eq!(order.len(), atoms.len());
    let mut bound = bound0.clone();
    let mut frontier = 1.0f64;
    let mut nodes = 0.0f64;
    for &i in order {
        let atom = &atoms[i];
        nodes += frontier;
        frontier *= est_matches(stats, atom, &bound);
        bound.extend(atom.vars());
    }
    OrderCost {
        nodes,
        rows: frontier,
    }
}

/// Expected domain size of a join variable over `atoms`: the smallest
/// distinct count among the columns it occurs in (the tightest of its
/// occurrences bounds the join's value universe). `wdpt-core` caps a tree
/// node's expected executions with it. Returns `None` when the variable
/// occurs in no catalogued column.
pub fn var_domain(stats: &StatsCatalog, atoms: &[Atom], v: Var) -> Option<u64> {
    let mut best: Option<u64> = None;
    for atom in atoms {
        let Some(rs) = stats.relation(atom.pred) else {
            continue;
        };
        for (col, term) in atom.args.iter().enumerate() {
            if *term == Term::Var(v) {
                let d = rs.columns.get(col).map_or(0, |c| c.distinct);
                best = Some(best.map_or(d, |b| b.min(d)));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_model::parse::{parse_atoms, parse_database};
    use wdpt_model::{Interner, ProbeTally};

    #[test]
    fn unbound_atom_estimates_relation_size() {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "e(a,b) e(b,c) e(c,d)").unwrap();
        let stats = StatsCatalog::build(&db);
        let atoms = parse_atoms(&mut i, "e(?x,?y)").unwrap();
        assert_eq!(est_matches(&stats, &atoms[0], &BTreeSet::new()), 3.0);
    }

    #[test]
    fn bound_column_divides_by_distinct_count() {
        let mut i = Interner::new();
        // Column 0 has 2 distinct values over 4 rows.
        let db = parse_database(&mut i, "e(a,1) e(a,2) e(b,3) e(b,4)").unwrap();
        let stats = StatsCatalog::build(&db);
        let atoms = parse_atoms(&mut i, "e(?x,?y)").unwrap();
        let bound: BTreeSet<_> = [i.var("x")].into();
        assert_eq!(est_matches(&stats, &atoms[0], &bound), 2.0);
    }

    #[test]
    fn constants_and_repeated_vars_constrain() {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "r(a,a) r(a,b) r(b,a) r(b,b)").unwrap();
        let stats = StatsCatalog::build(&db);
        let with_const = parse_atoms(&mut i, "r(a,?y)").unwrap();
        assert_eq!(est_matches(&stats, &with_const[0], &BTreeSet::new()), 2.0);
        let diagonal = parse_atoms(&mut i, "r(?x,?x)").unwrap();
        // 4 rows / 2 distinct in the second column: 2 expected.
        assert_eq!(est_matches(&stats, &diagonal[0], &BTreeSet::new()), 2.0);
    }

    #[test]
    fn a_constant_costs_its_own_posting_list_when_listed_and_the_rest_mean_otherwise() {
        use crate::stats::MCV_ENTRIES;
        let mut i = Interner::new();
        // Predicate column: `hot` on 200 rows, MCV_ENTRIES − 1 predicates
        // on 12 rows each (they fill the list), 20 more on 3 rows each.
        let mut spec = String::new();
        let mut row = 0;
        let mut emit = |pred: String, n: usize| {
            for _ in 0..n {
                spec.push_str(&format!("t(s{row},{pred},o{}) ", row % 7));
                row += 1;
            }
        };
        emit("hot".to_string(), 200);
        for k in 0..MCV_ENTRIES - 1 {
            emit(format!("mid{k}"), 12);
        }
        for k in 0..20 {
            emit(format!("rare{k}"), 3);
        }
        let db = parse_database(&mut i, &spec).unwrap();
        let stats = StatsCatalog::build(&db);
        let rel = db.relation(i.pred("t")).unwrap();
        let est = |i: &mut Interner, atom: &str| {
            let atoms = parse_atoms(i, atom).unwrap();
            est_matches(&stats, &atoms[0], &BTreeSet::new())
        };
        // Listed: exactly the posting length, heavy hitter or not.
        for listed in ["hot", "mid0", "mid14"] {
            let mut tally = ProbeTally::default();
            let exact = rel.probe([(1, i.constant(listed))], &mut tally).len() as f64;
            assert_eq!(est(&mut i, &format!("t(?s,{listed},?o)")), exact);
        }
        // Unlisted: the mean over the unlisted values, (rows − Σ listed) /
        // (distinct − listed) = 60 / 20 — not rows / distinct ≈ 12.2, which
        // `hot` inflates.
        assert_eq!(est(&mut i, "t(?s,rare7,?o)"), 3.0);
        // A constant the data has never seen is priced like any unlisted one.
        assert_eq!(est(&mut i, "t(?s,nowhere,?o)"), 3.0);
    }

    #[test]
    fn order_cost_sums_prefix_products() {
        let mut i = Interner::new();
        // small: 2 rows; fan: 8 rows over 2 distinct x (mean fan-out 4).
        let db = parse_database(
            &mut i,
            "small(a) small(b) \
             fan(a,1) fan(a,2) fan(a,3) fan(a,4) fan(b,5) fan(b,6) fan(b,7) fan(b,8)",
        )
        .unwrap();
        let stats = StatsCatalog::build(&db);
        let atoms = parse_atoms(&mut i, "small(?x), fan(?x,?y)").unwrap();
        let c = order_cost(&stats, &atoms, &[0, 1], &BTreeSet::new());
        // 1 (pick small) + 2 (pick fan per small binding); 2×4 rows out.
        assert_eq!(c.nodes, 3.0);
        assert_eq!(c.rows, 8.0);
        let rev = order_cost(&stats, &atoms, &[1, 0], &BTreeSet::new());
        // 1 (pick fan) + 8 (pick small per fan row); same output size.
        assert_eq!(rev.nodes, 9.0);
        assert_eq!(rev.rows, 8.0);
    }

    #[test]
    fn var_domain_takes_tightest_occurrence() {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "e(a,1) e(b,2) e(c,3) f(1) f(2)").unwrap();
        let stats = StatsCatalog::build(&db);
        let atoms = parse_atoms(&mut i, "e(?x,?y), f(?y)").unwrap();
        assert_eq!(var_domain(&stats, &atoms, i.var("y")), Some(2));
        assert_eq!(var_domain(&stats, &atoms, i.var("x")), Some(3));
        assert_eq!(var_domain(&stats, &atoms, i.var("z")), None);
    }
}
