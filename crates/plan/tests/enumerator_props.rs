//! Property tests for the join-order enumerators over LCG-generated
//! catalogs and nodes, against the exhaustive minimum of [`order_cost`]
//! over all permutations: what every result must satisfy, where the DP is
//! exact, and — printed, not asserted — how often the rule misses the
//! optimum elsewhere (`cargo test -p wdpt-plan --test enumerator_props --
//! --nocapture`; EXPERIMENTS.md records the figures).

mod common;

use common::Lcg;
use std::collections::BTreeSet;
use wdpt_model::parse::{parse_atoms, parse_database};
use wdpt_model::{Atom, CancelToken, Interner, Var};
use wdpt_plan::{order_cost, plan_node, NodeOrder, StatsCatalog, Strategy, MAX_DP_ATOMS};

/// 2–5 relations `r0..` of arity 1–3 and 5–124 rows, every column skewed
/// (the smaller of two draws: hot head, long tail) over its own universe of
/// 2–41 constants `c0..`, so one variable meets very different distinct
/// counts in different atoms. Returns the arities.
fn random_catalog(rng: &mut Lcg, i: &mut Interner) -> (StatsCatalog, Vec<u64>) {
    let mut spec = String::new();
    let arities: Vec<u64> = (0..2 + rng.gen_range(4))
        .map(|_| 1 + rng.gen_range(3))
        .collect();
    for (r, &arity) in arities.iter().enumerate() {
        let universes: Vec<u64> = (0..arity).map(|_| 2 + rng.gen_range(40)).collect();
        for _ in 0..5 + rng.gen_range(120) {
            let row: Vec<String> = universes
                .iter()
                .map(|&u| format!("c{}", rng.gen_range(u).min(rng.gen_range(u))))
                .collect();
            spec.push_str(&format!("r{r}({}) ", row.join(",")));
        }
    }
    let db = parse_database(i, &spec).unwrap();
    (StatsCatalog::build(&db), arities)
}

/// `n` atoms over the catalog: each argument a constant (one in five; it
/// may be absent from the column) or a variable. With `disjoint` every atom
/// draws from variables of its own — repeats inside an atom, none across —
/// otherwise all draw from one small pool. In half the cases one or two of
/// the variables are returned as already bound.
fn random_node(
    rng: &mut Lcg,
    i: &mut Interner,
    arities: &[u64],
    n: u64,
    disjoint: bool,
) -> (Vec<Atom>, BTreeSet<Var>) {
    let pool = 2 + rng.gen_range(5);
    let mut used: Vec<String> = Vec::new();
    let atoms: Vec<String> = (0..n)
        .map(|a| {
            let r = rng.gen_range(arities.len() as u64);
            let args: Vec<String> = (0..arities[r as usize])
                .map(|_| {
                    if rng.gen_range(5) == 0 {
                        return format!("c{}", rng.gen_range(12));
                    }
                    let v = if disjoint {
                        format!("a{a}_{}", rng.gen_range(2))
                    } else {
                        format!("v{}", rng.gen_range(pool))
                    };
                    used.push(v.clone());
                    format!("?{v}")
                })
                .collect();
            format!("r{r}({})", args.join(","))
        })
        .collect();
    let mut bound0 = BTreeSet::new();
    if !used.is_empty() && rng.gen_range(2) == 0 {
        for _ in 0..1 + rng.gen_range(2) {
            bound0.insert(i.var(&used[rng.gen_range(used.len() as u64) as usize]));
        }
    }
    (parse_atoms(i, &atoms.join(", ")).unwrap(), bound0)
}

/// The smallest `order_cost(..).nodes` over every permutation of the atoms.
fn exhaustive_minimum(stats: &StatsCatalog, atoms: &[Atom], bound0: &BTreeSet<Var>) -> f64 {
    fn visit(order: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == order.len() {
            return f(order);
        }
        for j in k..order.len() {
            order.swap(k, j);
            visit(order, k + 1, f);
            order.swap(k, j);
        }
    }
    let mut best = f64::INFINITY;
    visit(&mut (0..atoms.len()).collect(), 0, &mut |order| {
        best = best.min(order_cost(stats, atoms, order, bound0).nodes);
    });
    best
}

fn plan(stats: &StatsCatalog, atoms: &[Atom], bound0: &BTreeSet<Var>, s: Strategy) -> NodeOrder {
    plan_node(stats, atoms, bound0, s, CancelToken::never()).expect("never cancels")
}

#[test]
fn every_order_is_a_costed_permutation_bounded_by_the_exhaustive_minimum() {
    let (mut total, mut bound) = (0u32, 0u32);
    // By how much `Auto` exceeds the optimum where it misses it, and how
    // often each enumerator beats the other.
    let mut misses: Vec<f64> = Vec::new();
    let (mut greedy_wins, mut dp_wins) = (0u32, 0u32);
    for case in 0..1000u64 {
        let mut rng = Lcg::new(case);
        let mut i = Interner::new();
        let (stats, arities) = random_catalog(&mut rng, &mut i);
        let disjoint = case % 4 == 0;
        let n = 2 + rng.gen_range(5);
        let (atoms, bound0) = random_node(&mut rng, &mut i, &arities, n, disjoint);

        let [auto, greedy, dp] = [Strategy::Auto, Strategy::Greedy, Strategy::Dp]
            .map(|s| plan(&stats, &atoms, &bound0, s));
        let optimum = exhaustive_minimum(&stats, &atoms, &bound0);
        // Up to the order of a floating-point product.
        let optimal = |no: &NodeOrder| no.est_nodes <= optimum * (1.0 + 1e-9);
        for no in [&auto, &greedy, &dp] {
            let mut sorted = no.order.clone();
            sorted.sort_unstable();
            assert!(sorted.into_iter().eq(0..atoms.len()), "case {case}: {no:?}");
            let cost = order_cost(&stats, &atoms, &no.order, &bound0);
            assert_eq!((no.est_nodes, no.est_rows), (cost.nodes, cost.rows));
            assert!(no.est_nodes >= optimum, "case {case}: {no:?} < {optimum}");
        }
        assert!(auto.est_nodes <= greedy.est_nodes, "case {case}");
        assert!(auto.est_nodes <= dp.est_nodes, "case {case}");
        assert_ne!(auto.chosen, Strategy::Auto, "case {case}");
        if disjoint {
            // No shared variable: `rows(S)` is a function of the set and
            // the DP is exact.
            assert!(optimal(&dp), "case {case}: {dp:?} vs optimum {optimum}");
        } else {
            total += 1;
            if !optimal(&auto) {
                misses.push(auto.est_nodes / optimum);
            }
            greedy_wins += u32::from(greedy.est_nodes < dp.est_nodes);
            dp_wins += u32::from(dp.est_nodes < greedy.est_nodes);
        }
        bound += u32::from(!bound0.is_empty());
    }
    assert!(bound >= 300, "only {bound} cases had a non-empty bound0");
    misses.sort_by(f64::total_cmp);
    println!(
        "{total} nodes sharing variables: auto misses the optimum on {} \
         (median {:.2}x, max {:.2}x); dp < greedy on {dp_wins}, greedy < dp on {greedy_wins}",
        misses.len(),
        misses.get(misses.len() / 2).unwrap_or(&1.0),
        misses.last().unwrap_or(&1.0),
    );
}

#[test]
fn above_the_gate_dp_and_auto_return_greedys_order() {
    for case in 0..20u64 {
        let mut rng = Lcg::new(case ^ 0xA70);
        let mut i = Interner::new();
        let (stats, arities) = random_catalog(&mut rng, &mut i);
        let n = MAX_DP_ATOMS as u64 + 1 + rng.gen_range(4);
        let (atoms, bound0) = random_node(&mut rng, &mut i, &arities, n, false);
        let greedy = plan(&stats, &atoms, &bound0, Strategy::Greedy);
        assert_eq!(plan(&stats, &atoms, &bound0, Strategy::Dp), greedy);
        assert_eq!(plan(&stats, &atoms, &bound0, Strategy::Auto), greedy);
    }
}
