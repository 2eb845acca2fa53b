//! Building a cost-based [`ExecPlan`] for a whole wdPT.
//!
//! `wdpt-plan` deliberately plans one atom set at a time; this module
//! supplies the tree walk. Each node is planned with its *ancestor-bound
//! variable set* — the union of the variables appearing in strictly
//! ancestral nodes — because by the time the evaluator reaches a node,
//! every inherited variable carries a value, which changes which atom is
//! cheapest to match first. Well-designedness guarantees those are the
//! only cross-node variables a node can see.
//!
//! The walk also knows what a single node cannot: how often it will run.
//! The evaluator runs a node once per distinct valuation of its interface
//! — the variables it shares with its parent — so the node's expected
//! executions are the contexts its parent is expected to produce, capped by
//! how many distinct interface valuations the data can hold.

use crate::tree::Wdpt;
use std::collections::BTreeSet;
use wdpt_model::{CancelToken, Cancelled, Var};
use wdpt_plan::{plan_node, var_domain, ExecPlan, NodeOrder, StatsCatalog, Strategy};

/// Plans every node of `p` against `stats` under `strategy` (`Auto` outside
/// tests), producing one [`NodeOrder`](wdpt_plan::NodeOrder) per preorder
/// node id. Deadline-aware through `token` — the DP polls it between
/// subsets.
pub fn plan_wdpt(
    p: &Wdpt,
    stats: &StatsCatalog,
    strategy: Strategy,
    token: &CancelToken,
) -> Result<ExecPlan, Cancelled> {
    let n = p.node_count();
    // Preorder ids satisfy parent(t) < t, so a single forward pass can
    // carry each node's inherited-variable set down the tree.
    let mut bound: Vec<BTreeSet<Var>> = Vec::with_capacity(n);
    let mut nodes: Vec<NodeOrder> = Vec::with_capacity(n);
    for t in 0..n {
        let (b0, est_execs) = match p.parent(t) {
            None => (BTreeSet::new(), 1.0),
            Some(parent) => {
                let parent_vars = p.node_vars(parent);
                let contexts = nodes[parent].est_rows * nodes[parent].est_execs;
                // An interface variable outside the catalog bounds nothing.
                let valuations: f64 = p
                    .node_vars(t)
                    .intersection(&parent_vars)
                    .map(|&v| {
                        var_domain(stats, p.atoms(parent), v).map_or(f64::INFINITY, |d| d as f64)
                    })
                    .product();
                let mut b = bound[parent].clone();
                b.extend(parent_vars);
                (b, contexts.min(valuations))
            }
        };
        nodes.push(NodeOrder {
            est_execs,
            ..plan_node(stats, p.atoms(t), &b0, strategy, token)?
        });
        bound.push(b0);
    }
    Ok(ExecPlan {
        nodes,
        stats_epoch: stats.epoch(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::WdptBuilder;
    use wdpt_model::parse::{parse_atoms, parse_database};
    use wdpt_model::Interner;

    #[test]
    fn plans_every_node_with_inherited_bounds() {
        let mut i = Interner::new();
        // Root binds ?x; the child joins fan(?x,?y) with filter(?y).
        let root = parse_atoms(&mut i, "small(?x)").unwrap();
        let child = parse_atoms(&mut i, "fan(?x,?y), filter(?y)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, child);
        let free = ["x", "y"].iter().map(|n| i.var(n)).collect();
        let p = b.build(free).unwrap();
        let mut spec = String::from("small(a) small(b) filter(y0) ");
        for s in ["a", "b"] {
            for j in 0..50 {
                spec.push_str(&format!("fan({s},y{j}) "));
            }
        }
        let db = parse_database(&mut i, &spec).unwrap();
        let stats = StatsCatalog::build(&db);
        let token = CancelToken::new();
        let plan = plan_wdpt(&p, &stats, Strategy::Dp, &token).unwrap();
        assert_eq!(plan.nodes.len(), 2);
        assert_eq!(plan.stats_epoch, stats.epoch());
        // At the child, ?x is inherited: fan is bound (≈50 matches) while
        // filter has 1 row — filter still goes first.
        assert_eq!(plan.nodes[1].order, vec![1, 0]);
        assert!(plan.est_nodes() >= 1.0);
    }

    /// A triple store in the shape of `gen-synth --skew 3`: 30% of the rows
    /// under the heavy hitter `p0`, the rest spread over `p1..p20`; 250
    /// subjects, 8 rows each.
    fn skewed_triples(i: &mut Interner) -> wdpt_model::Database {
        let mut spec = String::new();
        for row in 0..2000u64 {
            // Three unrelated digits of one multiplicative hash.
            let h = row.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
            let pred = if h % 10 < 3 { 0 } else { 1 + h / 10 % 20 };
            spec.push_str(&format!("triple(s{},p{pred},o{row}) ", h / 200 % 250));
        }
        parse_database(i, &spec).unwrap()
    }

    /// `((?x, p0, ?y) AND (?x, p1, ?z)) OPT (?x, p2, ?w)`, heavy hitter first.
    fn star(i: &mut Interner) -> Wdpt {
        let root = parse_atoms(i, "triple(?x,p0,?y), triple(?x,p1,?z)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, parse_atoms(i, "triple(?x,p2,?w)").unwrap());
        let free = ["x", "y", "z", "w"].iter().map(|n| i.var(n)).collect();
        b.build(free).unwrap()
    }

    #[test]
    fn the_star_starts_from_the_small_predicate_under_every_strategy() {
        let mut i = Interner::new();
        let db = skewed_triples(&mut i);
        let p = star(&mut i);
        let stats = StatsCatalog::build(&db);
        for strategy in [Strategy::Auto, Strategy::Greedy, Strategy::Dp] {
            let plan = plan_wdpt(&p, &stats, strategy, CancelToken::never()).unwrap();
            // The text names `p0` first; its 600 rows must not lead.
            assert_eq!(plan.nodes[0].order, vec![1, 0], "{strategy:?}");
        }
    }

    #[test]
    fn the_estimate_counts_what_an_evaluation_expands() {
        let mut i = Interner::new();
        let db = skewed_triples(&mut i);
        let p = star(&mut i);
        let stats = StatsCatalog::build(&db);
        let token = CancelToken::never();
        let plan = plan_wdpt(&p, &stats, Strategy::Auto, token).unwrap();
        // The root runs once; the child once per distinct `?x` its contexts
        // hold — at most one per root row, at most one per subject.
        assert_eq!(plan.nodes[0].est_execs, 1.0);
        let child = &plan.nodes[1];
        assert!(child.est_execs > 1.0 && child.est_execs <= 250.0);
        assert!(child.est_execs <= plan.nodes[0].est_rows);
        let (answers, tally) =
            crate::semantics::evaluate_rows(&p, &db, 1, token, Some(&plan), usize::MAX);
        assert!(answers.unwrap().len() > 0);
        let observed = tally.work.nodes_expanded as f64;
        let ratio = plan.est_nodes() / observed;
        // Within a factor of four (248 estimated, 137 expanded).
        assert!(
            (0.25..=4.0).contains(&ratio),
            "estimated {} nodes, expanded {observed}",
            plan.est_nodes()
        );
    }

    #[test]
    fn planned_evaluation_matches_dynamic() {
        let mut i = Interner::new();
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let mut b = WdptBuilder::new(root);
        let c1 = b.child(0, parse_atoms(&mut i, "b(?x,?y), d(?y)").unwrap());
        b.child(0, parse_atoms(&mut i, "c(?x,?z)").unwrap());
        b.child(c1, parse_atoms(&mut i, "e(?y,?w)").unwrap());
        let free = ["x", "y", "z", "w"].iter().map(|n| i.var(n)).collect();
        let p = b.build(free).unwrap();
        let db = parse_database(
            &mut i,
            "a(1) a(2) b(1,10) b(2,20) d(10) d(20) c(2,30) e(20,40) e(20,41)",
        )
        .unwrap();
        let stats = StatsCatalog::build(&db);
        let token = CancelToken::new();
        let expected = crate::semantics::evaluate(&p, &db);
        for strategy in [Strategy::Auto, Strategy::Greedy, Strategy::Dp] {
            let plan = plan_wdpt(&p, &stats, strategy, &token).unwrap();
            for threads in [1, 2] {
                for plan in [None, Some(&plan)] {
                    let planned = crate::semantics::try_evaluate_parallel_planned(
                        &p, &db, threads, &token, plan,
                    );
                    assert_eq!(
                        planned.as_ref(),
                        Ok(&expected),
                        "{strategy:?} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn cancelled_token_aborts_tree_planning() {
        let mut i = Interner::new();
        let root = parse_atoms(&mut i, "a(?x,?y), a(?y,?z), a(?z,?w)").unwrap();
        let p = WdptBuilder::new(root).build(vec![i.var("x")]).unwrap();
        let db = parse_database(&mut i, "a(1,2) a(2,3)").unwrap();
        let stats = StatsCatalog::build(&db);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(plan_wdpt(&p, &stats, Strategy::Dp, &token), Err(Cancelled));
    }
}
