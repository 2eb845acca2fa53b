//! Partial mappings `h : X → U` and the subsumption order `⊑`.
//!
//! Answers to WDPTs are partial mappings (Definition 2); the paper compares
//! them by *subsumption*: `h ⊑ h'` iff `dom(h) ⊆ dom(h')` and the two agree
//! on `dom(h)`. Mappings are stored as vectors sorted by variable id, so
//! equality, hashing, and subsumption checks are linear merges and a set of
//! mappings can be deduplicated canonically.

use crate::interner::Interner;
use crate::term::{Const, Var};
use std::collections::BTreeSet;
use std::fmt;

/// A partial mapping from variables to constants, sorted by variable id.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mapping {
    pairs: Vec<(Var, Const)>,
}

impl Mapping {
    /// The empty mapping (defined nowhere).
    pub fn empty() -> Self {
        Mapping::default()
    }

    /// Builds a mapping from pairs; later duplicates of a variable must agree
    /// with earlier ones (panics otherwise — this is a programming error).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Var, Const)>) -> Self {
        let mut m = Mapping::empty();
        for (v, c) in pairs {
            assert!(
                m.insert(v, c),
                "Mapping::from_pairs: conflicting binding for variable {v:?}"
            );
        }
        m
    }

    /// Builds a mapping from pairs already in strictly ascending variable
    /// order — what an evaluator holding its variables sorted has in hand —
    /// without the per-pair search of [`Mapping::from_pairs`]. Panics on
    /// any other order: lookup, `Eq` and `Ord` all rest on it.
    pub fn from_sorted(pairs: Vec<(Var, Const)>) -> Self {
        assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "Mapping::from_sorted: variables not strictly ascending"
        );
        Mapping { pairs }
    }

    /// Number of variables the mapping is defined on.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True iff the mapping is defined nowhere.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Looks up the image of a variable.
    pub fn get(&self, v: Var) -> Option<Const> {
        self.pairs
            .binary_search_by_key(&v, |&(w, _)| w)
            .ok()
            .map(|i| self.pairs[i].1)
    }

    /// True iff `v ∈ dom(h)`.
    pub fn defines(&self, v: Var) -> bool {
        self.get(v).is_some()
    }

    /// Inserts a binding. Returns `false` (and leaves the mapping unchanged)
    /// if `v` is already bound to a *different* constant; returns `true` if
    /// the binding was inserted or already present with the same value.
    pub fn insert(&mut self, v: Var, c: Const) -> bool {
        match self.pairs.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => self.pairs[i].1 == c,
            Err(i) => {
                self.pairs.insert(i, (v, c));
                true
            }
        }
    }

    /// Removes a binding if present.
    pub fn remove(&mut self, v: Var) -> Option<Const> {
        match self.pairs.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => Some(self.pairs.remove(i).1),
            Err(_) => None,
        }
    }

    /// The domain of the mapping.
    pub fn domain(&self) -> BTreeSet<Var> {
        self.pairs.iter().map(|&(v, _)| v).collect()
    }

    /// Iterates over `(variable, constant)` bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, Const)> + '_ {
        self.pairs.iter().copied()
    }

    /// The restriction `h|_vars` of the mapping to a set of variables
    /// (the paper's `h_x̄`).
    pub fn restrict(&self, vars: &BTreeSet<Var>) -> Mapping {
        Mapping {
            pairs: self
                .pairs
                .iter()
                .copied()
                .filter(|(v, _)| vars.contains(v))
                .collect(),
        }
    }

    /// Subsumption `self ⊑ other`: `other` is defined wherever `self` is and
    /// agrees there (Section 2).
    pub fn subsumed_by(&self, other: &Mapping) -> bool {
        // Linear merge over the sorted pair vectors.
        let mut oi = other.pairs.iter();
        let mut cur = oi.next();
        'outer: for &(v, c) in &self.pairs {
            while let Some(&(ov, oc)) = cur {
                match ov.cmp(&v) {
                    std::cmp::Ordering::Less => cur = oi.next(),
                    std::cmp::Ordering::Equal => {
                        if oc != c {
                            return false;
                        }
                        cur = oi.next();
                        continue 'outer;
                    }
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Strict subsumption `self ⊏ other`: subsumed but not equal.
    pub fn strictly_subsumed_by(&self, other: &Mapping) -> bool {
        self.len() < other.len() && self.subsumed_by(other)
    }

    /// Renders the mapping, e.g. `{?x ↦ Swim, ?y ↦ Caribou}`.
    pub fn display(&self, interner: &Interner) -> String {
        let body = crate::interner::join_display(&self.pairs, |(v, c)| {
            format!("?{} ↦ {}", interner.var_name(*v), interner.const_name(*c))
        });
        format!("{{{body}}}")
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, c)) in self.pairs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} ↦ {c}")?;
        }
        write!(f, "}}")
    }
}

/// Removes from `mappings` every mapping strictly subsumed by another one,
/// returning only the ⊑-maximal elements (deduplicated). This implements the
/// "take the maximal answers" step of WDPT semantics at the mapping level.
pub fn maximal_mappings(mut mappings: Vec<Mapping>) -> Vec<Mapping> {
    mappings.sort();
    mappings.dedup();
    // Sort by decreasing domain size so potential subsumers come first.
    mappings.sort_by_key(|m| std::cmp::Reverse(m.len()));
    let mut kept: Vec<Mapping> = Vec::new();
    'outer: for m in mappings {
        for k in &kept {
            if m.subsumed_by(k) && m != *k {
                continue 'outer;
            }
        }
        kept.push(m);
    }
    kept.sort();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(v: u32, c: u32) -> (Var, Const) {
        (Var(v), Const(c))
    }

    #[test]
    fn insert_and_get() {
        let mut m = Mapping::empty();
        assert!(m.insert(Var(3), Const(7)));
        assert!(m.insert(Var(1), Const(5)));
        assert_eq!(m.get(Var(3)), Some(Const(7)));
        assert_eq!(m.get(Var(1)), Some(Const(5)));
        assert_eq!(m.get(Var(2)), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn insert_conflict_is_rejected() {
        let mut m = Mapping::from_pairs(vec![vc(1, 5)]);
        assert!(!m.insert(Var(1), Const(6)));
        assert_eq!(m.get(Var(1)), Some(Const(5)));
        assert!(m.insert(Var(1), Const(5)));
    }

    #[test]
    fn from_sorted_equals_from_pairs() {
        let sorted = Mapping::from_sorted(vec![vc(1, 5), vc(3, 7)]);
        assert_eq!(sorted, Mapping::from_pairs(vec![vc(3, 7), vc(1, 5)]));
        assert_eq!(sorted.get(Var(3)), Some(Const(7)));
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn from_sorted_rejects_unsorted_pairs() {
        Mapping::from_sorted(vec![vc(3, 7), vc(1, 5)]);
    }

    #[test]
    fn subsumption_basic() {
        let small = Mapping::from_pairs(vec![vc(1, 5)]);
        let large = Mapping::from_pairs(vec![vc(1, 5), vc(2, 6)]);
        let other = Mapping::from_pairs(vec![vc(1, 9), vc(2, 6)]);
        assert!(small.subsumed_by(&large));
        assert!(!large.subsumed_by(&small));
        assert!(small.strictly_subsumed_by(&large));
        assert!(!small.subsumed_by(&other));
        assert!(small.subsumed_by(&small));
        assert!(!small.strictly_subsumed_by(&small));
    }

    #[test]
    fn empty_mapping_subsumed_by_all() {
        let e = Mapping::empty();
        let m = Mapping::from_pairs(vec![vc(1, 5)]);
        assert!(e.subsumed_by(&m));
        assert!(e.subsumed_by(&e));
        assert!(!m.subsumed_by(&e));
    }

    #[test]
    fn restrict_projects_domain() {
        let m = Mapping::from_pairs(vec![vc(1, 5), vc(2, 6), vc(3, 7)]);
        let vars: BTreeSet<Var> = [Var(1), Var(3)].into_iter().collect();
        let r = m.restrict(&vars);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(Var(2)), None);
        assert_eq!(r.get(Var(3)), Some(Const(7)));
    }

    #[test]
    fn maximal_mappings_removes_subsumed() {
        let m1 = Mapping::from_pairs(vec![vc(1, 5)]);
        let m2 = Mapping::from_pairs(vec![vc(1, 5), vc(2, 6)]);
        let m3 = Mapping::from_pairs(vec![vc(1, 9)]);
        let max = maximal_mappings(vec![m1.clone(), m2.clone(), m3.clone(), m2.clone()]);
        assert_eq!(max.len(), 2);
        assert!(max.contains(&m2));
        assert!(max.contains(&m3));
        assert!(!max.contains(&m1));
    }

    #[test]
    fn maximal_mappings_keeps_incomparable() {
        let m1 = Mapping::from_pairs(vec![vc(1, 5), vc(2, 6)]);
        let m2 = Mapping::from_pairs(vec![vc(1, 5), vc(3, 7)]);
        let max = maximal_mappings(vec![m1.clone(), m2.clone()]);
        assert_eq!(max.len(), 2);
    }

    #[test]
    fn remove_binding() {
        let mut m = Mapping::from_pairs(vec![vc(1, 5), vc(2, 6)]);
        assert_eq!(m.remove(Var(1)), Some(Const(5)));
        assert_eq!(m.remove(Var(1)), None);
        assert_eq!(m.len(), 1);
    }
}
