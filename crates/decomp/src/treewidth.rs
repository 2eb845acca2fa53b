//! Treewidth: exact computation, heuristics, and decomposition extraction.
//!
//! * Exact treewidth uses the `O(2ⁿ·poly)` dynamic program over vertex
//!   subsets of Bodlaender–Fomin–Koster–Kratsch–Thilikos ("On exact
//!   algorithms for treewidth"): `TW(S) = min_{v∈S} max(TW(S∖v), |Q(S∖v,v)|)`
//!   where `Q(S,v)` is the set of vertices outside `S∪{v}` reachable from `v`
//!   through `S`. The minimizing choices encode an elimination ordering from
//!   which a witness [`TreeDecomposition`] is built.
//! * The min-fill heuristic gives a fast upper bound (and decomposition).
//! * Degeneracy gives a fast lower bound.
//!
//! [`treewidth_at_most`] combines all three so the common cases (the `TW(k)`
//! membership tests of the paper, with small `k`) short-circuit cheaply.

use crate::hypergraph::Hypergraph;
use crate::treedecomp::TreeDecomposition;
use std::collections::BTreeSet;
use wdpt_model::{CancelToken, Cancelled};
use wdpt_obs::{counter, histogram};

/// Maximum vertex count supported by the exact subset DP.
pub const EXACT_TW_VERTEX_LIMIT: usize = 26;

fn primal_neighbor_masks(h: &Hypergraph) -> Vec<u64> {
    let adj = h.primal_adjacency();
    adj.iter()
        .map(|ns| ns.iter().fold(0u64, |m, &v| m | (1 << v)))
        .collect()
}

/// `|Q(S, v)|`: vertices outside `S ∪ {v}` reachable from `v` through `S`.
fn q_size(nbr: &[u64], n: usize, s: u64, v: usize) -> usize {
    // BFS from v where internal vertices must lie in S.
    let mut outside = nbr[v] & !s & !(1 << v);
    let mut frontier = nbr[v] & s;
    let mut visited = frontier | (1 << v);
    while frontier != 0 {
        let u = frontier.trailing_zeros() as usize;
        frontier &= frontier - 1;
        let new = nbr[u] & !visited;
        outside |= new & !s;
        let through = new & s;
        visited |= new;
        frontier |= through;
    }
    let _ = n;
    outside.count_ones() as usize
}

/// Exact treewidth together with a witness elimination ordering.
///
/// # Panics
/// Panics if the hypergraph has more than [`EXACT_TW_VERTEX_LIMIT`] vertices
/// occurring in edges — callers should consult [`treewidth_upper_bound`]
/// first for larger inputs.
pub fn treewidth_exact_with_order(h: &Hypergraph) -> (usize, Vec<usize>) {
    try_treewidth_exact_with_order(h, CancelToken::never()).expect("the never token cannot cancel")
}

/// [`treewidth_exact_with_order`] with cooperative cancellation. The subset
/// dynamic program visits `2ⁿ` states, so a resident service planning
/// untrusted queries under a deadline threads its token through here; the
/// token is polled once per DP state (a relaxed load, with the clock
/// consulted every ~1k states, like the backtracker's loop).
pub fn try_treewidth_exact_with_order(
    h: &Hypergraph,
    token: &CancelToken,
) -> Result<(usize, Vec<usize>), Cancelled> {
    let n = h.num_vertices();
    assert!(
        n <= EXACT_TW_VERTEX_LIMIT,
        "exact treewidth DP limited to {EXACT_TW_VERTEX_LIMIT} vertices (got {n})"
    );
    if n == 0 {
        return Ok((0, Vec::new()));
    }
    let nbr = primal_neighbor_masks(h);
    let full: u64 = if n == 64 { !0 } else { (1u64 << n) - 1 };
    // dp[s] = minimal width over orderings whose first |s| vertices are s.
    let mut dp = vec![u8::MAX; 1usize << n];
    let mut choice = vec![u8::MAX; 1usize << n];
    dp[0] = 0;
    let mut steps = 0u32;
    for s in 1..=(full as usize) {
        if token.should_stop(&mut steps) {
            counter!("decomp.tw_search_nodes").add(s as u64);
            return Err(Cancelled);
        }
        let s64 = s as u64;
        let mut best = u8::MAX;
        let mut best_v = u8::MAX;
        let mut iter = s64;
        while iter != 0 {
            let v = iter.trailing_zeros() as usize;
            iter &= iter - 1;
            let prev = s & !(1usize << v);
            let sub = dp[prev];
            if sub == u8::MAX {
                continue;
            }
            let q = q_size(&nbr, n, prev as u64, v) as u8;
            let w = sub.max(q);
            if w < best {
                best = w;
                best_v = v as u8;
            }
        }
        dp[s] = best;
        choice[s] = best_v;
    }
    // Every DP state is one search node of the exact algorithm.
    counter!("decomp.tw_search_nodes").add(full);
    // Recover the elimination ordering by backtracking.
    let mut order = vec![0usize; n];
    let mut s = full as usize;
    for i in (0..n).rev() {
        let v = choice[s] as usize;
        order[i] = v;
        s &= !(1usize << v);
    }
    Ok((dp[full as usize] as usize, order))
}

/// Exact treewidth (see [`treewidth_exact_with_order`]).
pub fn treewidth_exact(h: &Hypergraph) -> usize {
    treewidth_exact_with_order(h).0
}

/// Builds a tree decomposition from an elimination ordering by simulating
/// fill-in: the bag of `v` is `{v} ∪ N(v)` at elimination time; `v`'s bag is
/// attached to the bag of the next-eliminated neighbor.
pub fn decomposition_from_order(h: &Hypergraph, order: &[usize]) -> TreeDecomposition {
    let n = h.num_vertices();
    debug_assert_eq!(order.len(), n);
    let mut adj = h.primal_adjacency();
    let mut position = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        position[v] = i;
    }
    let mut bags: Vec<BTreeSet<usize>> = Vec::with_capacity(n);
    let mut tree_edges: Vec<(usize, usize)> = Vec::new();
    let mut bag_of_vertex = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        let neighbors: Vec<usize> = adj[v].iter().copied().collect();
        let mut bag: BTreeSet<usize> = neighbors.iter().copied().collect();
        bag.insert(v);
        let bag_idx = bags.len();
        bags.push(bag);
        bag_of_vertex[v] = bag_idx;
        // Attach to next-eliminated neighbor's bag (added later): record a
        // pending edge keyed by that neighbor.
        if let Some(&next) = neighbors.iter().min_by_key(|&&u| position[u]) {
            debug_assert!(position[next] > i);
            // We connect once the neighbor's bag exists; stash for later.
            tree_edges.push((bag_idx, usize::MAX - next)); // placeholder
        }
        // Fill-in: make neighbors a clique, then remove v.
        for (j, &a) in neighbors.iter().enumerate() {
            for &b in &neighbors[j + 1..] {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
        for &u in &neighbors {
            adj[u].remove(&v);
        }
        adj[v].clear();
    }
    // Resolve placeholder edges now that every bag exists.
    let tree_edges = tree_edges
        .into_iter()
        .map(|(a, ph)| (a, bag_of_vertex[usize::MAX - ph]))
        .collect::<Vec<_>>();
    // Components with no neighbors yield forests; connect roots arbitrarily
    // to bag 0 to form a single tree.
    let mut td = TreeDecomposition { bags, tree_edges };
    connect_forest(&mut td);
    td
}

/// Adds edges so the decomposition's node graph is one tree (valid because
/// joining two components through any pair of bags never breaks vertex
/// connectedness when the components share no vertices).
fn connect_forest(td: &mut TreeDecomposition) {
    if td.bags.is_empty() {
        return;
    }
    let adj = td.adjacency();
    let mut comp = vec![usize::MAX; td.bags.len()];
    let mut ncomp = 0;
    for start in 0..td.bags.len() {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        while let Some(v) = stack.pop() {
            if comp[v] != usize::MAX {
                continue;
            }
            comp[v] = ncomp;
            stack.extend(adj[v].iter().copied().filter(|&w| comp[w] == usize::MAX));
        }
        ncomp += 1;
    }
    if ncomp > 1 {
        let mut rep = vec![usize::MAX; ncomp];
        for (i, &c) in comp.iter().enumerate() {
            if rep[c] == usize::MAX {
                rep[c] = i;
            }
        }
        for c in 1..ncomp {
            td.tree_edges.push((rep[0], rep[c]));
        }
    }
}

/// Min-fill heuristic: returns `(width, decomposition)`. Fast and never
/// underestimates the true treewidth.
pub fn treewidth_upper_bound(h: &Hypergraph) -> (usize, TreeDecomposition) {
    let n = h.num_vertices();
    let mut adj = h.primal_adjacency();
    let mut remaining: BTreeSet<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    while !remaining.is_empty() {
        // Pick the vertex whose elimination adds the fewest fill edges,
        // breaking ties by degree.
        let &v = remaining
            .iter()
            .min_by_key(|&&v| {
                let ns: Vec<usize> = adj[v].iter().copied().collect();
                let mut fill = 0usize;
                for (i, &a) in ns.iter().enumerate() {
                    for &b in &ns[i + 1..] {
                        if !adj[a].contains(&b) {
                            fill += 1;
                        }
                    }
                }
                (fill, ns.len())
            })
            .expect("non-empty");
        order.push(v);
        let ns: Vec<usize> = adj[v].iter().copied().collect();
        for (i, &a) in ns.iter().enumerate() {
            for &b in &ns[i + 1..] {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
        for &u in &ns {
            adj[u].remove(&v);
        }
        adj[v].clear();
        remaining.remove(&v);
    }
    let td = decomposition_from_order(h, &order);
    (td.width(), td)
}

/// Degeneracy of the primal graph — a lower bound on treewidth.
pub fn degeneracy_lower_bound(h: &Hypergraph) -> usize {
    let mut adj = h.primal_adjacency();
    let mut remaining: BTreeSet<usize> = (0..h.num_vertices()).collect();
    let mut degeneracy = 0;
    while !remaining.is_empty() {
        let &v = remaining
            .iter()
            .min_by_key(|&&v| adj[v].len())
            .expect("non-empty");
        degeneracy = degeneracy.max(adj[v].len());
        let ns: Vec<usize> = adj[v].iter().copied().collect();
        for u in ns {
            adj[u].remove(&v);
        }
        adj[v].clear();
        remaining.remove(&v);
    }
    degeneracy
}

/// Decides `treewidth(h) ≤ k`, returning a witness decomposition of width
/// ≤ k on success. Tries the min-fill upper bound and the degeneracy lower
/// bound before falling back to the exact DP.
pub fn treewidth_at_most(h: &Hypergraph, k: usize) -> Option<TreeDecomposition> {
    try_treewidth_at_most(h, k, CancelToken::never()).expect("the never token cannot cancel")
}

/// [`treewidth_at_most`] with cooperative cancellation of the exact-DP
/// fallback (the heuristic bounds are polynomial and run uninterrupted).
pub fn try_treewidth_at_most(
    h: &Hypergraph,
    k: usize,
    token: &CancelToken,
) -> Result<Option<TreeDecomposition>, Cancelled> {
    let (ub, td) = treewidth_upper_bound(h);
    if ub <= k {
        histogram!("decomp.tw_width").record(ub as u64);
        return Ok(Some(td));
    }
    if degeneracy_lower_bound(h) > k {
        return Ok(None);
    }
    let (tw, order) = try_treewidth_exact_with_order(h, token)?;
    Ok(if tw <= k {
        histogram!("decomp.tw_width").record(tw as u64);
        Some(decomposition_from_order(h, &order))
    } else {
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Hypergraph {
        Hypergraph::new(n, (0..n - 1).map(|i| vec![i, i + 1]).collect::<Vec<_>>())
    }

    fn cycle(n: usize) -> Hypergraph {
        let mut es: Vec<Vec<usize>> = (0..n - 1).map(|i| vec![i, i + 1]).collect();
        es.push(vec![n - 1, 0]);
        Hypergraph::new(n, es)
    }

    fn clique(n: usize) -> Hypergraph {
        let mut es = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                es.push(vec![i, j]);
            }
        }
        Hypergraph::new(n, es)
    }

    #[test]
    fn path_has_treewidth_one() {
        assert_eq!(treewidth_exact(&path(6)), 1);
    }

    #[test]
    fn cycle_has_treewidth_two() {
        // Example 4 of the paper: adding E(x1, xn) to a path raises the
        // treewidth to two.
        assert_eq!(treewidth_exact(&cycle(6)), 2);
    }

    #[test]
    fn clique_has_treewidth_n_minus_one() {
        // Example 4: the n-clique has treewidth n − 1.
        assert_eq!(treewidth_exact(&clique(5)), 4);
    }

    #[test]
    fn empty_graph_has_treewidth_zero() {
        let h = Hypergraph::new(4, Vec::<Vec<usize>>::new());
        assert_eq!(treewidth_exact(&h), 0);
    }

    #[test]
    fn single_hyperedge_width_is_size_minus_one() {
        let h = Hypergraph::new(4, vec![vec![0, 1, 2, 3]]);
        assert_eq!(treewidth_exact(&h), 3);
    }

    #[test]
    fn exact_order_builds_valid_decomposition() {
        for h in [path(5), cycle(5), clique(4)] {
            let (tw, order) = treewidth_exact_with_order(&h);
            let td = decomposition_from_order(&h, &order);
            assert!(td.is_valid_for(&h));
            assert_eq!(td.width(), tw);
        }
    }

    #[test]
    fn min_fill_upper_bound_is_valid_and_tight_on_easy_graphs() {
        for (h, expect) in [(path(8), 1), (cycle(8), 2)] {
            let (w, td) = treewidth_upper_bound(&h);
            assert!(td.is_valid_for(&h));
            assert_eq!(w, expect);
        }
    }

    #[test]
    fn degeneracy_bounds_from_below() {
        assert!(degeneracy_lower_bound(&clique(5)) == 4);
        assert!(degeneracy_lower_bound(&path(5)) <= 1);
    }

    #[test]
    fn at_most_accepts_and_rejects() {
        assert!(treewidth_at_most(&path(6), 1).is_some());
        assert!(treewidth_at_most(&cycle(6), 1).is_none());
        assert!(treewidth_at_most(&cycle(6), 2).is_some());
        assert!(treewidth_at_most(&clique(6), 4).is_none());
        let td = treewidth_at_most(&clique(6), 5).unwrap();
        assert!(td.is_valid_for(&clique(6)));
    }

    #[test]
    fn disconnected_graph_decomposes() {
        let h = Hypergraph::new(4, vec![vec![0, 1], vec![2, 3]]);
        let td = treewidth_at_most(&h, 1).unwrap();
        assert!(td.is_valid_for(&h));
    }

    #[test]
    fn cancelled_token_aborts_the_exact_dp() {
        let t = CancelToken::new();
        t.cancel();
        assert_eq!(
            try_treewidth_exact_with_order(&cycle(8), &t),
            Err(Cancelled)
        );
        // The heuristic fast paths still answer without touching the DP.
        assert!(try_treewidth_at_most(&path(6), 1, &t).unwrap().is_some());
        assert!(try_treewidth_at_most(&clique(6), 4, &t).unwrap().is_none());
    }
}
