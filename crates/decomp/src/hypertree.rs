//! Generalized hypertree decompositions of bounded width.
//!
//! The paper (Section 3.1, "Remark") works with *generalized* hypertree
//! decompositions `(S, ν, κ)` — a tree decomposition `(S, ν)` plus an edge
//! cover `κ(s)` of every bag with `|κ(s)| ≤ k` — and calls their width
//! "hypertreewidth". Deciding width `≤ k` is done here by the memoized
//! component/separator search used by practical GHD solvers
//! (det-k-decomp / BalancedGo lineage): a decomposition node chooses a cover
//! `λ` of at most `k` hyperedges whose bag is `(⋃λ) ∩ (V(comp) ∪ conn)`,
//! splits the remaining component, and recurses. Width 1 short-circuits
//! through GYO (α-acyclicity).

use crate::gyo;
use crate::hypergraph::Hypergraph;
use crate::treedecomp::TreeDecomposition;
use std::collections::{BTreeSet, HashMap};
use wdpt_model::{CancelToken, Cancelled};
use wdpt_obs::{counter, histogram};

/// A generalized hypertree decomposition: a tree decomposition whose bags
/// each carry a cover of at most `k` hyperedges.
#[derive(Debug, Clone)]
pub struct HypertreeDecomposition {
    /// `(bag, covering edge indices)` per decomposition node.
    pub nodes: Vec<(BTreeSet<usize>, Vec<usize>)>,
    /// Undirected tree edges between node indices.
    pub tree_edges: Vec<(usize, usize)>,
}

impl HypertreeDecomposition {
    /// The width `max |κ(s)|`.
    pub fn width(&self) -> usize {
        self.nodes.iter().map(|(_, c)| c.len()).max().unwrap_or(0)
    }

    /// The underlying tree decomposition `(S, ν)`.
    pub fn tree_decomposition(&self) -> TreeDecomposition {
        TreeDecomposition {
            bags: self.nodes.iter().map(|(b, _)| b.clone()).collect(),
            tree_edges: self.tree_edges.clone(),
        }
    }

    /// Checks validity for `h`: the underlying tree decomposition conditions
    /// plus the cover condition `ν(s) ⊆ ⋃κ(s)`.
    pub fn is_valid_for(&self, h: &Hypergraph) -> bool {
        for (bag, cover) in &self.nodes {
            let union: BTreeSet<usize> = cover
                .iter()
                .flat_map(|&e| h.edge(e).iter().copied())
                .collect();
            if !bag.is_subset(&union) {
                return false;
            }
        }
        self.tree_decomposition().is_valid_for(h)
    }
}

type Memo = HashMap<(Vec<usize>, Vec<usize>), Option<Tree>>;

#[derive(Debug, Clone)]
struct Tree {
    bag: BTreeSet<usize>,
    cover: Vec<usize>,
    children: Vec<Tree>,
}

struct Search<'a> {
    h: &'a Hypergraph,
    k: usize,
    covers: Vec<Vec<usize>>, // candidate edge-index covers, |λ| ≤ k
    memo: Memo,
    token: &'a CancelToken,
    steps: u32,
}

impl<'a> Search<'a> {
    /// Connected components of `edges` where two edges touch iff they share
    /// a vertex outside `bag`.
    fn split(&self, edges: &[usize], bag: &BTreeSet<usize>) -> Vec<Vec<usize>> {
        let mut comps: Vec<Vec<usize>> = Vec::new();
        let mut assigned = vec![false; edges.len()];
        let vsets: Vec<BTreeSet<usize>> = edges
            .iter()
            .map(|&e| {
                self.h
                    .edge(e)
                    .iter()
                    .copied()
                    .filter(|v| !bag.contains(v))
                    .collect()
            })
            .collect();
        for i in 0..edges.len() {
            if assigned[i] || vsets[i].is_empty() {
                continue;
            }
            let mut comp = vec![i];
            assigned[i] = true;
            let mut frontier = vec![i];
            while let Some(a) = frontier.pop() {
                for b in 0..edges.len() {
                    if !assigned[b] && !vsets[b].is_empty() && !vsets[a].is_disjoint(&vsets[b]) {
                        assigned[b] = true;
                        comp.push(b);
                        frontier.push(b);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp.into_iter().map(|i| edges[i]).collect());
        }
        comps
    }

    fn solve(&mut self, comp: Vec<usize>, conn: Vec<usize>) -> Result<Option<Tree>, Cancelled> {
        if let Some(hit) = self.memo.get(&(comp.clone(), conn.clone())) {
            return Ok(hit.clone());
        }
        let token = self.token;
        if token.should_stop(&mut self.steps) {
            return Err(Cancelled);
        }
        counter!("decomp.hw_search_nodes").incr();
        let conn_set: BTreeSet<usize> = conn.iter().copied().collect();
        let comp_vertices: BTreeSet<usize> = comp
            .iter()
            .flat_map(|&e| self.h.edge(e).iter().copied())
            .collect();
        let scope: BTreeSet<usize> = comp_vertices.union(&conn_set).copied().collect();
        let mut result: Option<Tree> = None;
        'covers: for cover in self.covers.clone() {
            let union: BTreeSet<usize> = cover
                .iter()
                .flat_map(|&e| self.h.edge(e).iter().copied())
                .collect();
            if !conn_set.is_subset(&union) {
                continue;
            }
            let bag: BTreeSet<usize> = union.intersection(&scope).copied().collect();
            // Split the component's edges by connectivity outside the bag.
            let remaining: Vec<usize> = comp
                .iter()
                .copied()
                .filter(|&e| !self.h.edge(e).iter().all(|v| bag.contains(v)))
                .collect();
            let sub_comps = self.split(&remaining, &bag);
            // Progress requirement: every sub-component must be strictly
            // smaller than the current one (prevents infinite recursion and
            // is sound because a useless separator can be skipped).
            if sub_comps.iter().any(|c| c.len() >= comp.len()) {
                continue;
            }
            let mut children = Vec::new();
            for sub in sub_comps {
                let sub_vertices: BTreeSet<usize> = sub
                    .iter()
                    .flat_map(|&e| self.h.edge(e).iter().copied())
                    .collect();
                let child_conn: Vec<usize> = sub_vertices.intersection(&bag).copied().collect();
                match self.solve(sub, child_conn)? {
                    Some(t) => children.push(t),
                    None => continue 'covers,
                }
            }
            result = Some(Tree {
                bag,
                cover,
                children,
            });
            break;
        }
        self.memo.insert((comp, conn), result.clone());
        Ok(result)
    }
}

fn flatten(tree: &Tree, out: &mut HypertreeDecomposition) -> usize {
    let id = out.nodes.len();
    out.nodes.push((tree.bag.clone(), tree.cover.clone()));
    for child in &tree.children {
        let cid = flatten(child, out);
        out.tree_edges.push((id, cid));
    }
    id
}

/// Decides whether `h` has a generalized hypertree decomposition of width
/// ≤ `k` and returns a witness. `k = 1` short-circuits through GYO.
///
/// The search enumerates edge covers of size ≤ `k`; its cost grows as
/// `O(m^k)` candidate covers per component, matching the recognizability
/// caveat discussed in the paper's remark on hypertreewidth.
pub fn hypertree_width_at_most(h: &Hypergraph, k: usize) -> Option<HypertreeDecomposition> {
    try_hypertree_width_at_most(h, k, CancelToken::never()).expect("the never token cannot cancel")
}

/// [`hypertree_width_at_most`] with cooperative cancellation: the
/// component/separator search is polled once per search node (a relaxed
/// load, clock every ~1k nodes). The `k = 1` GYO fast path is polynomial
/// and runs uninterrupted.
pub fn try_hypertree_width_at_most(
    h: &Hypergraph,
    k: usize,
    token: &CancelToken,
) -> Result<Option<HypertreeDecomposition>, Cancelled> {
    assert!(k >= 1, "width bound must be positive");
    let m = h.num_edges();
    if m == 0 {
        return Ok(Some(HypertreeDecomposition {
            nodes: vec![(BTreeSet::new(), Vec::new())],
            tree_edges: Vec::new(),
        }));
    }
    // Fast path via GYO: α-acyclic ⇔ width 1.
    if let Some(jt) = gyo::join_tree(h) {
        let nodes: Vec<(BTreeSet<usize>, Vec<usize>)> = (0..m)
            .map(|i| (h.edge(i).iter().copied().collect(), vec![i]))
            .collect();
        let mut tree_edges: Vec<(usize, usize)> = Vec::new();
        let mut roots = Vec::new();
        for (i, p) in jt.parent.iter().enumerate() {
            match p {
                Some(q) => tree_edges.push((i, *q)),
                None => roots.push(i),
            }
        }
        // Join a forest into a tree (components are vertex-disjoint).
        for w in roots.windows(2) {
            tree_edges.push((w[0], w[1]));
        }
        histogram!("decomp.hw_width").record(1);
        return Ok(Some(HypertreeDecomposition { nodes, tree_edges }));
    }
    if k == 1 {
        return Ok(None);
    }
    // Candidate covers: all non-empty edge subsets of size ≤ k.
    let mut covers: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    fn gen(m: usize, k: usize, from: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if !cur.is_empty() {
            out.push(cur.clone());
        }
        if cur.len() == k {
            return;
        }
        for e in from..m {
            cur.push(e);
            gen(m, k, e + 1, cur, out);
            cur.pop();
        }
    }
    gen(m, k, 0, &mut current, &mut covers);
    // Prefer small covers so witnesses are tight.
    covers.sort_by_key(Vec::len);
    let mut search = Search {
        h,
        k,
        covers,
        memo: HashMap::new(),
        token,
        steps: 0,
    };
    let _ = search.k;
    let all: Vec<usize> = (0..m).collect();
    let tree = match search.solve(all, Vec::new())? {
        Some(t) => t,
        None => return Ok(None),
    };
    let mut out = HypertreeDecomposition {
        nodes: Vec::new(),
        tree_edges: Vec::new(),
    };
    flatten(&tree, &mut out);
    histogram!("decomp.hw_width").record(out.width() as u64);
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Hypergraph {
        Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]])
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
    fn acyclic_has_width_one() {
        let h = Hypergraph::new(4, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
        let d = hypertree_width_at_most(&h, 1).expect("width 1");
        assert_eq!(d.width(), 1);
        assert!(d.is_valid_for(&h));
    }

    #[test]
    fn triangle_needs_width_two() {
        assert!(hypertree_width_at_most(&triangle(), 1).is_none());
        let d = hypertree_width_at_most(&triangle(), 2).expect("width 2");
        assert!(d.width() <= 2);
        assert!(d.is_valid_for(&triangle()));
    }

    #[test]
    fn cycle6_has_width_two() {
        let h = cycle(6);
        assert!(hypertree_width_at_most(&h, 1).is_none());
        let d = hypertree_width_at_most(&h, 2).expect("width 2");
        assert!(d.is_valid_for(&h));
    }

    #[test]
    fn clique4_width_two() {
        // hw(K_n) = ⌈n/2⌉ for binary-edge cliques.
        let h = clique(4);
        assert!(hypertree_width_at_most(&h, 1).is_none());
        let d = hypertree_width_at_most(&h, 2).expect("width 2");
        assert!(d.is_valid_for(&h));
    }

    #[test]
    fn clique5_needs_width_three() {
        let h = clique(5);
        assert!(hypertree_width_at_most(&h, 2).is_none());
        let d = hypertree_width_at_most(&h, 3).expect("width 3");
        assert!(d.is_valid_for(&h));
    }

    #[test]
    fn example5_family_is_width_one() {
        // Example 5: clique plus covering big edge is acyclic, so width 1.
        let n = 5;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                edges.push(vec![i, j]);
            }
        }
        edges.push((0..n).collect());
        let h = Hypergraph::new(n, edges);
        let d = hypertree_width_at_most(&h, 1).expect("acyclic");
        assert_eq!(d.width(), 1);
        assert!(d.is_valid_for(&h));
    }

    #[test]
    fn empty_hypergraph() {
        let h = Hypergraph::new(0, Vec::<Vec<usize>>::new());
        assert!(hypertree_width_at_most(&h, 1).is_some());
    }

    #[test]
    fn witness_respects_k() {
        let d = hypertree_width_at_most(&clique(5), 4).expect("exists");
        assert!(d.width() <= 4);
    }

    #[test]
    fn cancelled_token_aborts_the_search() {
        let t = CancelToken::new();
        t.cancel();
        // The GYO fast path is polynomial and ignores the token…
        let acyclic = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2]]);
        assert!(try_hypertree_width_at_most(&acyclic, 1, &t)
            .unwrap()
            .is_some());
        // … but the exponential cover search stops at its first node.
        assert_eq!(
            try_hypertree_width_at_most(&clique(4), 2, &t).err(),
            Some(Cancelled)
        );
    }
}
