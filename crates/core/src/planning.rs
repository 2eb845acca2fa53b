//! Building a cost-based [`ExecPlan`] for a whole wdPT.
//!
//! `wdpt-plan` deliberately plans one atom set at a time; this module
//! supplies the tree walk. Each node is planned with its *ancestor-bound
//! variable set* — the union of the variables appearing in strictly
//! ancestral nodes — because by the time the evaluator reaches a node,
//! every inherited variable carries a value, which changes which atom is
//! cheapest to match first. Well-designedness guarantees those are the
//! only cross-node variables a node can see.

use crate::tree::Wdpt;
use std::collections::BTreeSet;
use wdpt_model::{CancelToken, Cancelled, Var};
use wdpt_plan::{plan_node, ExecPlan, StatsCatalog, Strategy};

/// Plans every node of `p` against `stats` under `strategy`, producing one
/// [`NodeOrder`](wdpt_plan::NodeOrder) per preorder node id. Deadline-aware
/// through `token` — the exponential enumerators poll it between subsets.
pub fn plan_wdpt(
    p: &Wdpt,
    stats: &StatsCatalog,
    strategy: Strategy,
    token: &CancelToken,
) -> Result<ExecPlan, Cancelled> {
    let _span = wdpt_obs::span!("plan.build");
    let n = p.node_count();
    // Preorder ids satisfy parent(t) < t, so a single forward pass can
    // carry each node's inherited-variable set down the tree.
    let mut bound: Vec<BTreeSet<Var>> = Vec::with_capacity(n);
    let mut nodes = Vec::with_capacity(n);
    for t in 0..n {
        let b0 = match p.parent(t) {
            None => BTreeSet::new(),
            Some(parent) => {
                let mut b = bound[parent].clone();
                b.extend(p.node_vars(parent));
                b
            }
        };
        nodes.push(plan_node(stats, p.atoms(t), &b0, strategy, token)?);
        bound.push(b0);
    }
    Ok(ExecPlan {
        strategy,
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
        for strategy in [
            Strategy::Auto,
            Strategy::Greedy,
            Strategy::Dp,
            Strategy::Bushy,
        ] {
            let plan = plan_wdpt(&p, &stats, strategy, &token).unwrap();
            for threads in [1, 2] {
                for plan in [None, Some(&plan)] {
                    let planned = crate::semantics::try_evaluate_parallel_planned(
                        &p, &db, threads, &token, plan,
                    );
                    assert_eq!(
                        planned.as_ref(),
                        Ok(&expected),
                        "{strategy} threads={threads}"
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
