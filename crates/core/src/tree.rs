//! Well-designed pattern trees: structure and subtree machinery.
//!
//! A WDPT is a triple `(T, λ, x̄)` (Definition 1): a rooted tree `T`, a
//! labeling `λ` of nodes by sets of relational atoms, and a tuple `x̄` of
//! free variables. *Well-designedness* requires that, for every variable,
//! the set of nodes mentioning it is connected in `T`. Semantics flows
//! through the CQs `q_{T'}` of the rooted subtrees `T'` (Definition 2).

use std::collections::{BTreeMap, BTreeSet};
use wdpt_cq::ConjunctiveQuery;
use wdpt_model::{Atom, Interner, Var};

/// Index of a node inside a [`Wdpt`]; the root is always node `0`.
pub type NodeId = usize;

/// A rooted subtree of a WDPT: a set of node ids containing the root and
/// closed under parents.
pub type Subtree = BTreeSet<NodeId>;

/// A well-designed pattern tree `(T, λ, x̄)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wdpt {
    labels: Vec<Vec<Atom>>,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    free: Vec<Var>,
}

/// Errors raised when assembling a malformed pattern tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WdptError {
    /// Some variable's occurrence set is not connected in the tree
    /// (violates condition 2 of Definition 1).
    NotWellDesigned(Var),
    /// A free variable does not occur in any node label.
    FreeVarNotMentioned(Var),
    /// The free variable tuple contains duplicates.
    DuplicateFreeVar(Var),
}

impl std::fmt::Display for WdptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WdptError::NotWellDesigned(v) => {
                write!(f, "variable {v} occurs in a disconnected set of nodes")
            }
            WdptError::FreeVarNotMentioned(v) => {
                write!(f, "free variable {v} is not mentioned in the tree")
            }
            WdptError::DuplicateFreeVar(v) => {
                write!(f, "free variable {v} is repeated")
            }
        }
    }
}

impl std::error::Error for WdptError {}

/// Incremental builder: add the root first, then children, then call
/// [`WdptBuilder::build`] with the free variables.
#[derive(Debug, Default, Clone)]
pub struct WdptBuilder {
    labels: Vec<Vec<Atom>>,
    parent: Vec<Option<NodeId>>,
}

impl WdptBuilder {
    /// Starts a builder with the root node's label.
    pub fn new(root_atoms: Vec<Atom>) -> Self {
        WdptBuilder {
            labels: vec![root_atoms],
            parent: vec![None],
        }
    }

    /// Adds a child of `parent` and returns its id.
    ///
    /// # Panics
    /// Panics if `parent` does not exist yet.
    pub fn child(&mut self, parent: NodeId, atoms: Vec<Atom>) -> NodeId {
        assert!(parent < self.labels.len(), "unknown parent node");
        let id = self.labels.len();
        self.labels.push(atoms);
        self.parent.push(Some(parent));
        id
    }

    /// Finalizes the WDPT, validating well-designedness and the free tuple.
    pub fn build(self, free: Vec<Var>) -> Result<Wdpt, WdptError> {
        // Each node's children and each variable's holder nodes, ascending:
        // one walk of the nodes.
        let mut children = vec![Vec::new(); self.labels.len()];
        let mut holders: BTreeMap<Var, Vec<NodeId>> = BTreeMap::new();
        for (t, label) in self.labels.iter().enumerate() {
            if let Some(p) = self.parent[t] {
                children[p].push(t);
            }
            for v in label.iter().flat_map(Atom::vars) {
                let nodes = holders.entry(v).or_default();
                if nodes.last() != Some(&t) {
                    nodes.push(t);
                }
            }
        }
        // Condition 2: connected occurrences. A parent's id is below its
        // child's, so the first holder is the top one; every other holder
        // must hang from a holder.
        for (&v, nodes) in &holders {
            let connected = nodes[1..]
                .iter()
                .all(|&t| self.parent[t].is_some_and(|p| nodes.binary_search(&p).is_ok()));
            if !connected {
                return Err(WdptError::NotWellDesigned(v));
            }
        }
        // Condition 3: free variables distinct and mentioned.
        for (k, &x) in free.iter().enumerate() {
            if free[..k].contains(&x) {
                return Err(WdptError::DuplicateFreeVar(x));
            }
            if !holders.contains_key(&x) {
                return Err(WdptError::FreeVarNotMentioned(x));
            }
        }
        Ok(Wdpt {
            labels: self.labels,
            parent: self.parent,
            children,
            free,
        })
    }
}

impl Wdpt {
    /// A single-node WDPT — the representation of a plain CQ (the paper
    /// notes CQs are exactly the single-node WDPTs).
    pub fn from_cq(q: &ConjunctiveQuery) -> Self {
        WdptBuilder::new(q.body().to_vec())
            .build(q.head().to_vec())
            .expect("a single node is always well-designed")
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// The root node id (always 0).
    pub fn root(&self) -> NodeId {
        0
    }

    /// The label `λ(t)`.
    pub fn atoms(&self, t: NodeId) -> &[Atom] {
        &self.labels[t]
    }

    /// Children of `t`.
    pub fn children(&self, t: NodeId) -> &[NodeId] {
        &self.children[t]
    }

    /// Parent of `t` (`None` for the root).
    pub fn parent(&self, t: NodeId) -> Option<NodeId> {
        self.parent[t]
    }

    /// The free variables `x̄`.
    pub fn free_vars(&self) -> &[Var] {
        &self.free
    }

    /// The free variables as a set.
    pub fn free_set(&self) -> BTreeSet<Var> {
        self.free.iter().copied().collect()
    }

    /// True iff every variable of the tree is free (Definition 1's
    /// projection-free WDPTs).
    pub fn is_projection_free(&self) -> bool {
        self.all_variables() == self.free_set()
    }

    /// Variables of a single node label.
    pub fn node_vars(&self, t: NodeId) -> BTreeSet<Var> {
        self.labels[t].iter().flat_map(|a| a.vars()).collect()
    }

    /// All variables mentioned anywhere in the tree.
    pub fn all_variables(&self) -> BTreeSet<Var> {
        (0..self.node_count())
            .flat_map(|t| self.node_vars(t))
            .collect()
    }

    /// True iff the label `λ(t)` mentions `v`.
    fn mentions(&self, t: NodeId, v: Var) -> bool {
        self.labels[t].iter().flat_map(Atom::vars).any(|u| u == v)
    }

    /// Variables mentioned in a subtree.
    pub fn subtree_vars(&self, subtree: &Subtree) -> BTreeSet<Var> {
        (subtree.iter())
            .flat_map(|&t| self.labels[t].iter().flat_map(Atom::vars))
            .collect()
    }

    /// Free variables mentioned in a subtree.
    pub fn subtree_free_vars(&self, subtree: &Subtree) -> BTreeSet<Var> {
        let vars = self.subtree_vars(subtree);
        (self.free.iter())
            .copied()
            .filter(|v| vars.contains(v))
            .collect()
    }

    /// Depth of a node (root has depth 0).
    pub fn depth(&self, mut t: NodeId) -> usize {
        let mut d = 0;
        while let Some(p) = self.parent[t] {
            t = p;
            d += 1;
        }
        d
    }

    /// The full subtree (all nodes).
    pub fn full_subtree(&self) -> Subtree {
        (0..self.node_count()).collect()
    }

    /// The CQ `q_{T'}` of a rooted subtree: head = all variables of `T'`
    /// (Section 2).
    pub fn cq_of_subtree(&self, subtree: &Subtree) -> ConjunctiveQuery {
        let atoms: Vec<Atom> = subtree
            .iter()
            .flat_map(|&t| self.labels[t].iter().cloned())
            .collect();
        let head: Vec<Var> = self.subtree_vars(subtree).into_iter().collect();
        ConjunctiveQuery::new(head, atoms)
    }

    /// The CQ `r_{T'}` of a rooted subtree: head = free variables occurring
    /// in `T'` (Section 6, used by the `φ_cq` translation).
    pub fn projected_cq_of_subtree(&self, subtree: &Subtree) -> ConjunctiveQuery {
        let atoms: Vec<Atom> = subtree
            .iter()
            .flat_map(|&t| self.labels[t].iter().cloned())
            .collect();
        let head: Vec<Var> = self.subtree_free_vars(subtree).into_iter().collect();
        ConjunctiveQuery::new(head, atoms)
    }

    /// The Boolean CQ of one node label (for local-tractability checks).
    pub fn node_cq(&self, t: NodeId) -> ConjunctiveQuery {
        ConjunctiveQuery::boolean(self.labels[t].to_vec())
    }

    /// Number of rooted subtrees (including the root-only one), computed by
    /// the product formula `f(t) = Π_c (f(c) + 1)`.
    pub fn rooted_subtree_count(&self) -> u128 {
        fn f(w: &Wdpt, t: NodeId) -> u128 {
            w.children(t)
                .iter()
                .map(|&c| f(w, c).saturating_add(1))
                .fold(1u128, u128::saturating_mul)
        }
        f(self, self.root())
    }

    /// Enumerates every rooted subtree, invoking `visit` on each. The
    /// enumeration is exponential in general — exactly the co-nondeterminism
    /// of the paper's Π₂ᵖ upper bounds — so callers should consult
    /// [`Wdpt::rooted_subtree_count`] first on untrusted inputs.
    pub fn for_each_rooted_subtree<F: FnMut(&Subtree)>(&self, visit: &mut F) {
        let mut current: Subtree = [self.root()].into_iter().collect();
        self.enumerate_rec(&mut current, &self.frontier(&[self.root()]), visit);
    }

    fn frontier(&self, nodes: &[NodeId]) -> Vec<NodeId> {
        nodes
            .iter()
            .flat_map(|&t| self.children(t).iter().copied())
            .collect()
    }

    fn enumerate_rec<F: FnMut(&Subtree)>(
        &self,
        current: &mut Subtree,
        frontier: &[NodeId],
        visit: &mut F,
    ) {
        match frontier.split_first() {
            None => visit(current),
            Some((&t, rest)) => {
                // Exclude t (and its whole subtree).
                self.enumerate_rec(current, rest, visit);
                // Include t; its children join the frontier.
                current.insert(t);
                let mut extended = rest.to_vec();
                extended.extend(self.children(t).iter().copied());
                self.enumerate_rec(current, &extended, visit);
                current.remove(&t);
            }
        }
    }

    /// The unique node containing `v` that is closest to the root (the top
    /// of `v`'s connected occurrence set), or `None` if `v` is not
    /// mentioned. A parent's id is below its child's, so the top is the
    /// first holder in id order.
    pub fn top_node_of(&self, v: Var) -> Option<NodeId> {
        (0..self.node_count()).find(|&t| self.mentions(t, v))
    }

    /// The minimal rooted subtree mentioning every variable in `vars`, or
    /// `None` if some variable is absent from the tree. (The subtree `T'`
    /// of the Theorem 6 / Theorem 8 algorithms.)
    pub fn minimal_subtree_covering(&self, vars: &BTreeSet<Var>) -> Option<Subtree> {
        let mut subtree: Subtree = [self.root()].into_iter().collect();
        for &v in vars {
            let mut t = self.top_node_of(v)?;
            loop {
                if !subtree.insert(t) {
                    break;
                }
                match self.parent[t] {
                    Some(p) => t = p,
                    None => break,
                }
            }
        }
        Some(subtree)
    }

    /// The maximal rooted subtree whose free variables are contained in
    /// `allowed`: grow from the root, including a node iff its parent is
    /// included and it introduces no free variable outside `allowed`.
    /// (The subtree `T''` of the Theorem 6 algorithm.)
    pub fn maximal_subtree_with_free_vars_in(&self, allowed: &BTreeSet<Var>) -> Subtree {
        let admits = |t: NodeId| {
            (self.labels[t].iter().flat_map(Atom::vars))
                .all(|v| allowed.contains(&v) || !self.free.contains(&v))
        };
        // The root belongs to every rooted subtree; callers must handle a
        // root that introduces disallowed free vars.
        let root = self.root();
        let mut subtree: Subtree = [root].into_iter().collect();
        let mut stack = if admits(root) { vec![root] } else { Vec::new() };
        while let Some(t) = stack.pop() {
            for &c in self.children(t).iter().filter(|&&c| admits(c)) {
                subtree.insert(c);
                stack.push(c);
            }
        }
        subtree
    }

    /// The interface variables of node `t`, ascending: existential
    /// variables shared with the parent or with any child. Under `BI(c)`
    /// there are at most `2c` of them.
    pub fn interface_vars(&self, t: NodeId) -> Vec<Var> {
        let neighbours = self.parent[t].iter().chain(&self.children[t]);
        let mut shared: Vec<Var> = (self.labels[t].iter().flat_map(Atom::vars))
            .filter(|v| !self.free.contains(v))
            .filter(|&v| neighbours.clone().any(|&n| self.mentions(n, v)))
            .collect();
        shared.sort_unstable();
        shared.dedup();
        shared
    }

    /// Renders the tree with one line per node, indented by depth.
    pub fn display(&self, interner: &Interner) -> String {
        let mut out = String::new();
        let free = self
            .free
            .iter()
            .map(|v| format!("?{}", interner.var_name(*v)))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("WDPT free=({free})\n"));
        fn rec(w: &Wdpt, t: NodeId, depth: usize, interner: &Interner, out: &mut String) {
            let label = w.labels[t]
                .iter()
                .map(|a| a.display(interner))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!("{}[{t}] {{{label}}}\n", "  ".repeat(depth)));
            for &c in w.children(t) {
                rec(w, c, depth + 1, interner, out);
            }
        }
        rec(self, self.root(), 0, interner, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_model::parse::parse_atoms;

    /// The WDPT of Figure 1 (query (1) of Example 1), with binary predicates
    /// as in Example 8.
    pub fn figure1(i: &mut Interner) -> Wdpt {
        let root = parse_atoms(i, r#"rec_by(?x,?y) publ(?x,"after_2010")"#).unwrap();
        let left = parse_atoms(i, "nme_rating(?x,?z)").unwrap();
        let right = parse_atoms(i, "formed_in(?y,?z2)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, left);
        b.child(0, right);
        let free = ["x", "y", "z", "z2"].iter().map(|n| i.var(n)).collect();
        b.build(free).unwrap()
    }

    #[test]
    fn figure1_shape() {
        let mut i = Interner::new();
        let p = figure1(&mut i);
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.children(0), &[1, 2]);
        assert!(p.is_projection_free());
        assert_eq!(p.rooted_subtree_count(), 4);
    }

    #[test]
    fn disconnected_variable_is_rejected() {
        let mut i = Interner::new();
        // ?z appears in the two leaves but not in the root: not connected.
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let l1 = parse_atoms(&mut i, "b(?x,?z)").unwrap();
        let l2 = parse_atoms(&mut i, "c(?x,?z)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, l1);
        b.child(0, l2);
        let free = vec![i.var("x")];
        assert!(matches!(b.build(free), Err(WdptError::NotWellDesigned(_))));
    }

    #[test]
    fn variable_chain_through_parent_is_accepted() {
        let mut i = Interner::new();
        let root = parse_atoms(&mut i, "a(?x,?z)").unwrap();
        let l1 = parse_atoms(&mut i, "b(?x,?z)").unwrap();
        let l2 = parse_atoms(&mut i, "c(?x,?z)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, l1);
        b.child(0, l2);
        assert!(b.build(vec![i.var("x")]).is_ok());
    }

    #[test]
    fn free_var_must_be_mentioned() {
        let mut i = Interner::new();
        let b = WdptBuilder::new(parse_atoms(&mut i, "a(?x)").unwrap());
        let w = i.var("w");
        assert!(matches!(
            b.build(vec![w]),
            Err(WdptError::FreeVarNotMentioned(_))
        ));
    }

    #[test]
    fn duplicate_free_var_rejected() {
        let mut i = Interner::new();
        let b = WdptBuilder::new(parse_atoms(&mut i, "a(?x)").unwrap());
        let x = i.var("x");
        assert!(matches!(
            b.build(vec![x, x]),
            Err(WdptError::DuplicateFreeVar(_))
        ));
    }

    #[test]
    fn subtree_enumeration_counts_match() {
        let mut i = Interner::new();
        let p = figure1(&mut i);
        let mut n = 0usize;
        p.for_each_rooted_subtree(&mut |_| n += 1);
        assert_eq!(n as u128, p.rooted_subtree_count());
    }

    #[test]
    fn subtree_cqs_have_expected_heads() {
        let mut i = Interner::new();
        let p = figure1(&mut i);
        let full = p.full_subtree();
        let q = p.cq_of_subtree(&full);
        assert_eq!(q.head().len(), 4);
        assert_eq!(q.body().len(), 4);
        let root_only: Subtree = [0].into_iter().collect();
        let q0 = p.cq_of_subtree(&root_only);
        assert_eq!(q0.head().len(), 2); // x, y
    }

    #[test]
    fn minimal_subtree_covering_vars() {
        let mut i = Interner::new();
        let p = figure1(&mut i);
        let z = i.var("z");
        let cover = p
            .minimal_subtree_covering(&[z].into_iter().collect())
            .unwrap();
        assert!(cover.contains(&0));
        assert!(cover.contains(&1));
        assert!(!cover.contains(&2));
    }

    #[test]
    fn minimal_subtree_missing_var_is_none() {
        let mut i = Interner::new();
        let p = figure1(&mut i);
        let nope = i.var("nonexistent");
        assert!(p
            .minimal_subtree_covering(&[nope].into_iter().collect())
            .is_none());
    }

    #[test]
    fn maximal_subtree_excludes_disallowed_free_vars() {
        let mut i = Interner::new();
        let p = figure1(&mut i);
        let allowed: BTreeSet<Var> = ["x", "y", "z"].iter().map(|n| i.var(n)).collect();
        let t = p.maximal_subtree_with_free_vars_in(&allowed);
        assert!(t.contains(&0));
        assert!(t.contains(&1));
        assert!(!t.contains(&2)); // introduces z2
    }

    #[test]
    fn from_cq_roundtrip() {
        let mut i = Interner::new();
        let atoms = parse_atoms(&mut i, "e(?x,?y)").unwrap();
        let q = ConjunctiveQuery::new(vec![i.var("x")], atoms);
        let p = Wdpt::from_cq(&q);
        assert_eq!(p.node_count(), 1);
        assert!(!p.is_projection_free());
    }

    #[test]
    fn depth_and_tops() {
        let mut i = Interner::new();
        let p = figure1(&mut i);
        assert_eq!(p.depth(0), 0);
        assert_eq!(p.depth(2), 1);
        let x = i.var("x");
        let z = i.var("z");
        assert_eq!(p.top_node_of(x), Some(0));
        assert_eq!(p.top_node_of(z), Some(1));
    }

    #[test]
    fn display_is_indented() {
        let mut i = Interner::new();
        let p = figure1(&mut i);
        let s = p.display(&i);
        assert!(s.contains("WDPT free=(?x, ?y, ?z, ?z2)"));
        assert!(s.contains("  [1]"));
    }
}
