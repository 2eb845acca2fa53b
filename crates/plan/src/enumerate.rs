//! Join-order enumeration: greedy, left-deep DP, and bushy DP.
//!
//! All three strategies produce the same artifact — a [`NodeOrder`], a
//! static atom permutation for one wdPT node — so their estimates are
//! directly comparable: whatever search shape a strategy explores
//! internally, its final cost is [`order_cost`] of the linearized order,
//! which is exactly what the backtracking engine will pay. `Auto` runs
//! every strategy whose gate admits the node and keeps the cheapest order.
//!
//! The DP enumerators are exponential in the atom count (`O(2ⁿ·n)`
//! left-deep, `O(3ⁿ)` bushy), so both are gated to small `n` and poll the
//! request's [`CancelToken`] between subsets — an adversarial query cannot
//! ride out its deadline inside the planner.

use crate::cost::{est_matches, order_cost, var_domain, OrderCost};
use crate::stats::StatsCatalog;
use std::collections::BTreeSet;
use wdpt_model::{Atom, CancelToken, Cancelled, Var};

/// Join-order enumeration strategy. `Auto` picks per node by estimated
/// cost; the other three force one enumerator (ablations, re-planning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// Cost-based selection among the gated strategies, per node.
    #[default]
    Auto,
    /// Greedy smallest-estimated-matches-first. Linear, never gated.
    Greedy,
    /// Left-deep dynamic programming over atom subsets (Held–Karp).
    Dp,
    /// Bushy dynamic programming over connected sub-joins, linearized.
    Bushy,
}

impl Strategy {
    /// The flag/metric spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::Auto => "auto",
            Strategy::Greedy => "greedy",
            Strategy::Dp => "dp",
            Strategy::Bushy => "bushy",
        }
    }

    /// Parses the flag spelling.
    pub fn parse(s: &str) -> Option<Strategy> {
        match s {
            "auto" => Some(Strategy::Auto),
            "greedy" => Some(Strategy::Greedy),
            "dp" => Some(Strategy::Dp),
            "bushy" => Some(Strategy::Bushy),
            _ => None,
        }
    }

    /// The next concrete strategy in the re-planning rotation
    /// (`greedy → dp → bushy → greedy`); `Auto` rotates to `Dp` since an
    /// auto-planned entry already had the greedy choice available.
    pub fn rotate(self) -> Strategy {
        match self {
            Strategy::Auto | Strategy::Greedy => Strategy::Dp,
            Strategy::Dp => Strategy::Bushy,
            Strategy::Bushy => Strategy::Greedy,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Largest atom count the left-deep DP enumerates (`O(2ⁿ·n²)` time,
/// `O(2ⁿ)` space); beyond it [`plan_node`] falls back to greedy.
pub const MAX_DP_ATOMS: usize = 13;

/// Largest atom count the bushy DP enumerates (`O(3ⁿ)` subset-partition
/// pairs); beyond it [`plan_node`] falls back to greedy.
pub const MAX_BUSHY_ATOMS: usize = 10;

/// The planned execution order of one wdPT node: a static atom
/// permutation plus the cost model's view of it.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeOrder {
    /// Permutation of `0..atoms.len()`: position `d` holds the index of
    /// the atom executed at depth `d`.
    pub order: Vec<usize>,
    /// Which enumerator produced the order (under `Auto`, the winner).
    pub chosen: Strategy,
    /// Estimated backtracking nodes for one execution of the order.
    pub est_nodes: f64,
    /// Estimated result rows of one execution of the node's local join.
    pub est_rows: f64,
    /// How many times the node is expected to run: once per distinct
    /// valuation of the variables it shares with its parent. `1` for a
    /// node planned on its own; whoever knows the tree sets it.
    pub est_execs: f64,
}

/// A full per-wdPT-node plan: one [`NodeOrder`] per tree node, indexed by
/// preorder node id, stamped with the statistics epoch it was costed
/// under.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPlan {
    /// The strategy the plan was requested with (possibly `Auto`).
    pub strategy: Strategy,
    /// Per-node orders, indexed by wdPT preorder node id.
    pub nodes: Vec<NodeOrder>,
    /// [`StatsCatalog::epoch`] of the catalog the plan was costed against.
    pub stats_epoch: u64,
}

impl ExecPlan {
    /// Total estimated backtracking nodes: each tree node's estimate times
    /// its expected executions, summed — the same quantity an evaluation's
    /// `cq.nodes_expanded` observes, which is what the re-planner compares
    /// it against.
    pub fn est_nodes(&self) -> f64 {
        self.nodes.iter().map(|n| n.est_nodes * n.est_execs).sum()
    }
}

fn finish(
    stats: &StatsCatalog,
    atoms: &[Atom],
    bound0: &BTreeSet<Var>,
    order: Vec<usize>,
    chosen: Strategy,
) -> NodeOrder {
    let OrderCost { nodes, rows } = order_cost(stats, atoms, &order, bound0);
    NodeOrder {
        order,
        chosen,
        est_nodes: nodes,
        est_rows: rows,
        est_execs: 1.0,
    }
}

/// Greedy enumeration: at each step take the unprocessed atom with the
/// smallest expected match count under the bindings accumulated so far.
/// This is the static-planning analogue of the engine's dynamic
/// most-constrained heuristic, minus its bound-count-first tie-break —
/// selectivity alone decides, which is what lets a selective unbound atom
/// run before a bound-but-fanning one.
pub fn plan_greedy(stats: &StatsCatalog, atoms: &[Atom], bound0: &BTreeSet<Var>) -> NodeOrder {
    let n = atoms.len();
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut bound = bound0.clone();
    for _ in 0..n {
        let next = (0..n)
            .filter(|&i| !used[i])
            .min_by(|&a, &b| {
                let ea = est_matches(stats, &atoms[a], &bound);
                let eb = est_matches(stats, &atoms[b], &bound);
                ea.total_cmp(&eb)
            })
            .expect("an unused atom remains");
        used[next] = true;
        bound.extend(atoms[next].vars());
        order.push(next);
    }
    finish(stats, atoms, bound0, order, Strategy::Greedy)
}

/// How many DP states to process between cancel-token polls.
const POLL_STRIDE: usize = 64;

/// Left-deep dynamic programming (Held–Karp over atom subsets): for every
/// subset `S` the cheapest order ending anywhere, extended one atom at a
/// time. The cost recurrence mirrors the engine exactly: appending atom
/// `a` to a prefix with `rows(S)` partial mappings adds `rows(S)` search
/// nodes and multiplies the frontier by `est_matches(a, vars(S))` — the
/// `(cost, rows)` of a subset depend on the *set* alone, not the order
/// within it, which is the Markov property the DP needs.
///
/// Falls back to [`plan_greedy`] above [`MAX_DP_ATOMS`]. Polls `token`
/// every [`POLL_STRIDE`] subsets.
pub fn plan_dp(
    stats: &StatsCatalog,
    atoms: &[Atom],
    bound0: &BTreeSet<Var>,
    token: &CancelToken,
) -> Result<NodeOrder, Cancelled> {
    let n = atoms.len();
    if n > MAX_DP_ATOMS {
        return Ok(plan_greedy(stats, atoms, bound0));
    }
    token.check()?;
    if n == 0 {
        return Ok(finish(stats, atoms, bound0, Vec::new(), Strategy::Dp));
    }
    #[derive(Clone, Copy)]
    struct State {
        nodes: f64,
        rows: f64,
        last: u8,
    }
    let full = 1usize << n;
    let mut best: Vec<Option<State>> = vec![None; full];
    best[0] = Some(State {
        nodes: 0.0,
        rows: 1.0,
        last: u8::MAX,
    });
    for s in 0..full {
        if s % POLL_STRIDE == 0 {
            token.check()?;
        }
        let Some(cur) = best[s] else { continue };
        // Variables bound after processing subset `s`.
        let mut bound = bound0.clone();
        for (i, atom) in atoms.iter().enumerate() {
            if s & (1 << i) != 0 {
                bound.extend(atom.vars());
            }
        }
        for (i, atom) in atoms.iter().enumerate() {
            if s & (1 << i) != 0 {
                continue;
            }
            let t = s | (1 << i);
            let nodes = cur.nodes + cur.rows;
            let rows = cur.rows * est_matches(stats, atom, &bound);
            let better = match &best[t] {
                None => true,
                Some(old) => (nodes, rows) < (old.nodes, old.rows),
            };
            if better {
                best[t] = Some(State {
                    nodes,
                    rows,
                    last: i as u8,
                });
            }
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut s = full - 1;
    while s != 0 {
        let st = best[s].expect("every reachable subset has a state");
        order.push(st.last as usize);
        s &= !(1 << st.last);
    }
    order.reverse();
    Ok(finish(stats, atoms, bound0, order, Strategy::Dp))
}

/// A bushy join tree over atom indices, linearized left-to-right.
#[derive(Clone)]
enum Tree {
    Leaf(usize),
    Join(Box<Tree>, Box<Tree>),
}

impl Tree {
    fn leaves(&self, out: &mut Vec<usize>) {
        match self {
            Tree::Leaf(i) => out.push(*i),
            Tree::Join(l, r) => {
                l.leaves(out);
                r.leaves(out);
            }
        }
    }
}

/// Bushy dynamic programming: the cheapest join *tree* per atom subset,
/// combining every partition of a subset into two non-empty halves with
/// `cost(S) = cost(L) + cost(R) + rows(L)·rows(R)·sel(L,R)`, where the
/// selectivity is `Π 1/|dom(v)|` over the join variables shared between
/// the halves. The winning tree is linearized (cheaper subtree first) into
/// a static order and re-costed with [`order_cost`], so bushy's final
/// estimate is comparable with the other strategies' — the engine executes
/// one atom at a time regardless of the shape that found the order.
///
/// Falls back to [`plan_greedy`] above [`MAX_BUSHY_ATOMS`]. Polls `token`
/// every [`POLL_STRIDE`] subsets.
pub fn plan_bushy(
    stats: &StatsCatalog,
    atoms: &[Atom],
    bound0: &BTreeSet<Var>,
    token: &CancelToken,
) -> Result<NodeOrder, Cancelled> {
    let n = atoms.len();
    if n > MAX_BUSHY_ATOMS {
        return Ok(plan_greedy(stats, atoms, bound0));
    }
    token.check()?;
    if n == 0 {
        return Ok(finish(stats, atoms, bound0, Vec::new(), Strategy::Bushy));
    }
    struct State {
        cost: f64,
        rows: f64,
        tree: Tree,
    }
    let full = 1usize << n;
    let mut best: Vec<Option<State>> = (0..full).map(|_| None).collect();
    for (i, atom) in atoms.iter().enumerate() {
        let rows = est_matches(stats, atom, bound0);
        best[1 << i] = Some(State {
            cost: rows,
            rows,
            tree: Tree::Leaf(i),
        });
    }
    // Free (not ancestor-bound) variables per atom and per subset; join
    // selectivity only applies to variables genuinely joined here.
    let vars_of: Vec<BTreeSet<Var>> = atoms
        .iter()
        .map(|a| a.var_set().difference(bound0).copied().collect())
        .collect();
    let subset_vars = |s: usize| -> BTreeSet<Var> {
        (0..n)
            .filter(|i| s & (1 << i) != 0)
            .flat_map(|i| vars_of[i].iter().copied())
            .collect()
    };
    for s in 1..full {
        if s % POLL_STRIDE == 0 {
            token.check()?;
        }
        if s.count_ones() < 2 {
            continue;
        }
        // Enumerate unordered partitions of `s` into two non-empty halves
        // (the `l < r` filter visits each pair once).
        let mut l = (s - 1) & s;
        while l != 0 {
            let r = s & !l;
            if l < r {
                let candidate = match (&best[l], &best[r]) {
                    (Some(ls), Some(rs)) => {
                        let l_vars = subset_vars(l);
                        let r_vars = subset_vars(r);
                        let sel: f64 = l_vars
                            .intersection(&r_vars)
                            .map(|&v| 1.0 / var_domain(stats, atoms, v).unwrap_or(1).max(1) as f64)
                            .product();
                        let rows = ls.rows * rs.rows * sel;
                        let cost = ls.cost + rs.cost + rows;
                        // Cheaper-to-produce side first: the linearized
                        // order executes left before right.
                        let (first, second) = if ls.cost <= rs.cost { (l, r) } else { (r, l) };
                        Some((cost, rows, first, second))
                    }
                    _ => None,
                };
                if let Some((cost, rows, first, second)) = candidate {
                    let better = match &best[s] {
                        None => true,
                        Some(old) => cost < old.cost,
                    };
                    if better {
                        let lt = best[first].as_ref().expect("half has a state").tree.clone();
                        let rt = best[second]
                            .as_ref()
                            .expect("half has a state")
                            .tree
                            .clone();
                        best[s] = Some(State {
                            cost,
                            rows,
                            tree: Tree::Join(Box::new(lt), Box::new(rt)),
                        });
                    }
                }
            }
            l = (l - 1) & s;
        }
    }
    let mut order = Vec::with_capacity(n);
    best[full - 1]
        .as_ref()
        .expect("the full subset is always joinable")
        .tree
        .leaves(&mut order);
    Ok(finish(stats, atoms, bound0, order, Strategy::Bushy))
}

/// Plans one wdPT node under `strategy`: the node's `atoms` with the
/// ancestor variables `bound0` treated as already bound. `Auto` runs every
/// enumerator whose gate admits the node and keeps the cheapest order
/// (ties favor the cheaper enumerator).
pub fn plan_node(
    stats: &StatsCatalog,
    atoms: &[Atom],
    bound0: &BTreeSet<Var>,
    strategy: Strategy,
    token: &CancelToken,
) -> Result<NodeOrder, Cancelled> {
    let _span = wdpt_obs::span!("plan.enumerate");
    match strategy {
        Strategy::Greedy => Ok(plan_greedy(stats, atoms, bound0)),
        Strategy::Dp => plan_dp(stats, atoms, bound0, token),
        Strategy::Bushy => plan_bushy(stats, atoms, bound0, token),
        Strategy::Auto => {
            let mut best = plan_greedy(stats, atoms, bound0);
            if atoms.len() <= MAX_DP_ATOMS {
                let dp = plan_dp(stats, atoms, bound0, token)?;
                if dp.est_nodes < best.est_nodes {
                    best = dp;
                }
            }
            if atoms.len() <= MAX_BUSHY_ATOMS {
                let bushy = plan_bushy(stats, atoms, bound0, token)?;
                if bushy.est_nodes < best.est_nodes {
                    best = bushy;
                }
            }
            Ok(best)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_model::parse::{parse_atoms, parse_database};
    use wdpt_model::{Database, Interner};

    /// A skewed fixture where greedy's step-by-step choice is beaten by
    /// the DPs' global view: `small` (few rows) fans out hugely through
    /// `fan`, while starting from `filter` keeps the frontier at 1.
    fn skewed(i: &mut Interner) -> Database {
        let mut spec = String::new();
        for j in 0..4 {
            spec.push_str(&format!("small(s{j}) "));
        }
        for j in 0..4 {
            for k in 0..64 {
                spec.push_str(&format!("fan(s{j},y{k}) "));
            }
        }
        spec.push_str("filter(y0) ");
        parse_database(i, &spec).unwrap()
    }

    #[test]
    fn all_strategies_return_permutations() {
        let mut i = Interner::new();
        let db = skewed(&mut i);
        let stats = StatsCatalog::build(&db);
        let atoms = parse_atoms(&mut i, "small(?x), fan(?x,?y), filter(?y)").unwrap();
        let b0 = BTreeSet::new();
        let token = CancelToken::new();
        for no in [
            plan_greedy(&stats, &atoms, &b0),
            plan_dp(&stats, &atoms, &b0, &token).unwrap(),
            plan_bushy(&stats, &atoms, &b0, &token).unwrap(),
            plan_node(&stats, &atoms, &b0, Strategy::Auto, &token).unwrap(),
        ] {
            let mut sorted = no.order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "{no:?}");
            assert!(no.est_nodes >= 1.0);
        }
    }

    #[test]
    fn dp_finds_the_optimal_left_deep_order() {
        let mut i = Interner::new();
        let db = skewed(&mut i);
        let stats = StatsCatalog::build(&db);
        let atoms = parse_atoms(&mut i, "small(?x), fan(?x,?y), filter(?y)").unwrap();
        let b0 = BTreeSet::new();
        let token = CancelToken::new();
        let dp = plan_dp(&stats, &atoms, &b0, &token).unwrap();
        // filter (1 expected row) must lead; the two completions tie.
        assert_eq!(dp.order[0], 2);
        let greedy = plan_greedy(&stats, &atoms, &b0);
        assert!(dp.est_nodes <= greedy.est_nodes);
        // DP is exhaustive over left-deep orders: nothing beats it.
        let perms = [
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        for p in perms {
            assert!(
                dp.est_nodes <= order_cost(&stats, &atoms, &p, &b0).nodes + 1e-9,
                "order {p:?} beats DP"
            );
        }
    }

    #[test]
    fn bushy_matches_dp_on_chain_queries_and_is_valid() {
        let mut i = Interner::new();
        let db = skewed(&mut i);
        let stats = StatsCatalog::build(&db);
        let atoms = parse_atoms(&mut i, "small(?x), fan(?x,?y), filter(?y)").unwrap();
        let b0 = BTreeSet::new();
        let token = CancelToken::new();
        let bushy = plan_bushy(&stats, &atoms, &b0, &token).unwrap();
        let dp = plan_dp(&stats, &atoms, &b0, &token).unwrap();
        // On a 3-atom chain every bushy tree is left-deep, so the costs
        // agree once linearized.
        assert!((bushy.est_nodes - dp.est_nodes).abs() < 1e-6);
    }

    #[test]
    fn ancestor_bound_vars_change_the_order() {
        let mut i = Interner::new();
        let db = skewed(&mut i);
        let stats = StatsCatalog::build(&db);
        let atoms = parse_atoms(&mut i, "fan(?x,?y), small(?x)").unwrap();
        let token = CancelToken::new();
        // Unbound: small (4 rows) before fan.
        let free = plan_dp(&stats, &atoms, &BTreeSet::new(), &token).unwrap();
        assert_eq!(free.order, vec![1, 0]);
        // With ?y inherited from an ancestor, fan is bound to ~4 rows and
        // its x binding makes small a containment check — fan first wins.
        let bound: BTreeSet<_> = [i.var("y")].into();
        let anchored = plan_dp(&stats, &atoms, &bound, &token).unwrap();
        assert_eq!(anchored.order, vec![0, 1]);
    }

    #[test]
    fn cancelled_token_aborts_dp_and_bushy() {
        let mut i = Interner::new();
        let db = skewed(&mut i);
        let stats = StatsCatalog::build(&db);
        // Enough atoms that the subset loops actually run.
        let atoms = parse_atoms(
            &mut i,
            "fan(?a,?b), fan(?b,?c), fan(?c,?d), fan(?d,?e), fan(?e,?f), fan(?f,?g)",
        )
        .unwrap();
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            plan_dp(&stats, &atoms, &BTreeSet::new(), &token),
            Err(Cancelled)
        );
        assert_eq!(
            plan_bushy(&stats, &atoms, &BTreeSet::new(), &token),
            Err(Cancelled)
        );
        assert_eq!(
            plan_node(&stats, &atoms, &BTreeSet::new(), Strategy::Auto, &token),
            Err(Cancelled)
        );
    }

    #[test]
    fn oversized_nodes_fall_back_to_greedy() {
        let mut i = Interner::new();
        let db = skewed(&mut i);
        let stats = StatsCatalog::build(&db);
        let spec: Vec<String> = (0..MAX_DP_ATOMS + 1)
            .map(|j| format!("fan(?v{j},?v{})", j + 1))
            .collect();
        let atoms = parse_atoms(&mut i, &spec.join(", ")).unwrap();
        let token = CancelToken::new();
        let dp = plan_dp(&stats, &atoms, &BTreeSet::new(), &token).unwrap();
        assert_eq!(dp.chosen, Strategy::Greedy);
        let bushy = plan_bushy(&stats, &atoms, &BTreeSet::new(), &token).unwrap();
        assert_eq!(bushy.chosen, Strategy::Greedy);
    }

    #[test]
    fn strategy_parse_rotate_roundtrip() {
        for s in [
            Strategy::Auto,
            Strategy::Greedy,
            Strategy::Dp,
            Strategy::Bushy,
        ] {
            assert_eq!(Strategy::parse(s.as_str()), Some(s));
        }
        assert_eq!(Strategy::parse("nope"), None);
        // The rotation cycles through every concrete strategy.
        let mut s = Strategy::Greedy;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            seen.insert(s);
            s = s.rotate();
        }
        assert_eq!(seen.len(), 3);
        assert_eq!(s, Strategy::Greedy);
    }
}
