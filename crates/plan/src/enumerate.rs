//! Join-order enumeration: greedy and left-deep DP, and the one rule that
//! picks between them.
//!
//! Both enumerators produce the same artifact — a [`NodeOrder`], a static
//! atom permutation for one wdPT node — and both report [`order_cost`] of
//! that permutation, which is exactly what the backtracking engine will
//! pay, so their estimates are directly comparable. [`plan_node`] under
//! [`Strategy::Auto`] is the single place a join order is decided: greedy,
//! replaced by the DP order when the node is small enough to enumerate and
//! DP's estimate is strictly lower.
//!
//! The DP is exponential in the atom count (`O(2ⁿ·n)` states), so it is
//! gated to small `n` and polls the request's [`CancelToken`] between
//! subsets — an adversarial query cannot ride out its deadline inside the
//! planner.

use crate::cost::{est_matches, order_cost, OrderCost};
use crate::stats::StatsCatalog;
use std::collections::BTreeSet;
use wdpt_model::{Atom, CancelToken, Cancelled, Var};

/// Which enumerator plans a node. Every caller that serves a query passes
/// `Auto`; the other two force one enumerator, for tests and as the label
/// [`NodeOrder::chosen`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Greedy, or DP where it is admitted and estimates strictly lower.
    Auto,
    /// Greedy smallest-estimated-matches-first. Linear, never gated.
    Greedy,
    /// Left-deep dynamic programming over atom subsets (Held–Karp).
    Dp,
}

impl Strategy {
    /// The spelling `explain` prints.
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::Auto => "auto",
            Strategy::Greedy => "greedy",
            Strategy::Dp => "dp",
        }
    }
}

/// Largest atom count the left-deep DP enumerates (`O(2ⁿ·n²)` time,
/// `O(2ⁿ)` space); beyond it [`plan_node`] falls back to greedy.
pub const MAX_DP_ATOMS: usize = 13;

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
    /// Per-node orders, indexed by wdPT preorder node id.
    pub nodes: Vec<NodeOrder>,
    /// [`StatsCatalog::epoch`] of the catalog the plan was costed against.
    pub stats_epoch: u64,
}

impl ExecPlan {
    /// Total estimated backtracking nodes: each tree node's estimate times
    /// its expected executions, summed — the same quantity an evaluation's
    /// `cq.nodes_expanded` observes, and `explain` prints the two side by
    /// side.
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
fn plan_greedy(stats: &StatsCatalog, atoms: &[Atom], bound0: &BTreeSet<Var>) -> NodeOrder {
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
/// subset `S` one state — the cheapest `(nodes, rows)` found for an order
/// of `S` — extended one atom at a time. The recurrence mirrors the engine:
/// appending atom `a` to a prefix with `rows(S)` partial mappings adds
/// `rows(S)` search nodes and multiplies the frontier by
/// `est_matches(a, vars(S))`.
///
/// This is a heuristic, not an exact optimiser. [`est_matches`] divides by
/// the distinct count of the *atom's own* column for each bound variable,
/// so `rows(S)` depends on which atom of `S` bound a shared variable first
/// — it is a function of the path, not of the set — and keeping one state
/// per subset can discard the prefix the best full order needed. Where no
/// two atoms share a variable `rows(S)` is a function of the set and the
/// result is the exhaustive optimum of [`order_cost`]; elsewhere it can
/// miss it (`tests/enumerator_props.rs` measures how often), and nothing
/// makes it at least as good as greedy — which is why [`plan_node`] keeps
/// greedy unless DP is strictly cheaper.
///
/// Falls back to [`plan_greedy`] above [`MAX_DP_ATOMS`]. Polls `token`
/// every [`POLL_STRIDE`] subsets.
fn plan_dp(
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

/// Plans one wdPT node: the node's `atoms` with the ancestor variables
/// `bound0` treated as already bound. Under `Auto` — the one rule every
/// served query is planned by — the order is greedy's, unless the node has
/// at most [`MAX_DP_ATOMS`] atoms and DP's estimate is strictly lower.
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
        Strategy::Auto => {
            let greedy = plan_greedy(stats, atoms, bound0);
            if atoms.len() > MAX_DP_ATOMS {
                return Ok(greedy);
            }
            let dp = plan_dp(stats, atoms, bound0, token)?;
            Ok(if dp.est_nodes < greedy.est_nodes {
                dp
            } else {
                greedy
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_model::parse::{parse_atoms, parse_database};
    use wdpt_model::{Database, Interner};

    /// A skewed fixture where greedy's step-by-step choice is beaten by
    /// the DP's global view: `small` (few rows) fans out hugely through
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
        // On this fixture DP reaches the exhaustive optimum: nothing beats it.
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
    fn cancelled_token_aborts_dp() {
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
    }
}
