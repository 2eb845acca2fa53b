//! `Wdpt`'s subtree helpers read the node labels in place. Each is checked
//! here against its definition, written the direct way: a variable set per
//! node, the free variables as a set, and the top of a variable's
//! occurrence set found by depth. The trees are `random_wdpt`'s at a fixed
//! list of seeds, and a star and a chain, whose children need not mention
//! what their root does; the probes include a variable the tree does not
//! mention and allowed sets that leave out the root's first free variable.

use std::collections::BTreeSet;
use wdpt::core::{NodeId, Subtree, Wdpt};
use wdpt::gen::{chain_wdpt, random_wdpt, star_wdpt, Lcg};
use wdpt::{Interner, Var};

/// The definitions, one variable set per node.
mod definition {
    use super::*;

    fn node_vars(p: &Wdpt, t: NodeId) -> BTreeSet<Var> {
        p.atoms(t).iter().flat_map(|a| a.vars()).collect()
    }

    /// The holder of `v` nearest the root.
    pub fn top_node_of(p: &Wdpt, v: Var) -> Option<NodeId> {
        (0..p.node_count())
            .filter(|&t| node_vars(p, t).contains(&v))
            .min_by_key(|&t| p.depth(t))
    }

    pub fn minimal_subtree_covering(p: &Wdpt, vars: &BTreeSet<Var>) -> Option<Subtree> {
        let mut subtree: Subtree = [p.root()].into_iter().collect();
        for &v in vars {
            let mut t = top_node_of(p, v)?;
            loop {
                if !subtree.insert(t) {
                    break;
                }
                match p.parent(t) {
                    Some(q) => t = q,
                    None => break,
                }
            }
        }
        Some(subtree)
    }

    pub fn subtree_vars(p: &Wdpt, subtree: &Subtree) -> BTreeSet<Var> {
        subtree.iter().flat_map(|&t| node_vars(p, t)).collect()
    }

    pub fn subtree_free_vars(p: &Wdpt, subtree: &Subtree) -> BTreeSet<Var> {
        let free = p.free_set();
        subtree_vars(p, subtree)
            .intersection(&free)
            .copied()
            .collect()
    }

    pub fn maximal_subtree_with_free_vars_in(p: &Wdpt, allowed: &BTreeSet<Var>) -> Subtree {
        let free = p.free_set();
        let mut subtree = Subtree::new();
        let mut stack = vec![p.root()];
        while let Some(t) = stack.pop() {
            let bad = node_vars(p, t)
                .iter()
                .any(|v| free.contains(v) && !allowed.contains(v));
            if bad && t != p.root() {
                continue;
            }
            if bad && t == p.root() {
                subtree.insert(t);
                continue;
            }
            subtree.insert(t);
            stack.extend(p.children(t).iter().copied());
        }
        subtree
    }

    pub fn interface_vars(p: &Wdpt, t: NodeId) -> Vec<Var> {
        let (free, vars_t) = (p.free_set(), node_vars(p, t));
        let neighbours = p.parent(t).into_iter().chain(p.children(t).iter().copied());
        let mut shared = BTreeSet::new();
        for n in neighbours {
            shared.extend(vars_t.intersection(&node_vars(p, n)).copied());
        }
        shared.into_iter().filter(|v| !free.contains(v)).collect()
    }
}

/// A random subset of `vars`, each kept with probability one half.
fn subset(r: &mut Lcg, vars: &[Var]) -> BTreeSet<Var> {
    vars.iter().copied().filter(|_| r.gen_bool(0.5)).collect()
}

#[test]
fn helpers_equal_their_definitions() {
    let (mut trees, mut roots_refused) = (0, 0);
    for seed in [1u64, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233] {
        let mut r = Lcg::new(seed);
        let size = 2 + seed as usize % 5;
        for shape in 0..9 {
            let mut i = Interner::new();
            let p = match shape {
                0..=6 => random_wdpt(&mut i, [1, 2, 3, 5, 8, 12, 20][shape], &mut r),
                7 => star_wdpt(&mut i, size),
                _ => chain_wdpt(&mut i, size, Some(size / 2)),
            };
            let absent = i.var("absent");
            let mut vars: Vec<Var> = p.all_variables().into_iter().collect();
            vars.push(absent);
            let free: Vec<Var> = p.free_vars().to_vec();
            trees += 1;
            // Every rooted subtree of a small tree, and below the covers and
            // maximal subtrees of the probes.
            let mut subtrees = Vec::new();
            if p.rooted_subtree_count() <= 64 {
                p.for_each_rooted_subtree(&mut |s| subtrees.push(s.clone()));
            }

            for &v in &vars {
                assert_eq!(
                    p.top_node_of(v),
                    definition::top_node_of(&p, v),
                    "{seed}/{shape}"
                );
            }
            for t in 0..p.node_count() {
                assert_eq!(p.interface_vars(t), definition::interface_vars(&p, t));
            }
            for _ in 0..12 {
                let s = subset(&mut r, &vars);
                let cover = p.minimal_subtree_covering(&s);
                assert_eq!(cover, definition::minimal_subtree_covering(&p, &s));
                assert_eq!(cover.is_none(), s.contains(&absent));

                let allowed = subset(&mut r, &vars);
                let tsecond = p.maximal_subtree_with_free_vars_in(&allowed);
                assert_eq!(
                    tsecond,
                    definition::maximal_subtree_with_free_vars_in(&p, &allowed)
                );
                if !allowed.contains(&free[0]) {
                    // The root holds its first free variable: it stays, alone.
                    assert_eq!(tsecond, [p.root()].into_iter().collect());
                    roots_refused += 1;
                }
                subtrees.extend(cover);
                subtrees.push(tsecond);
            }
            subtrees.push(p.full_subtree());
            for subtree in &subtrees {
                assert_eq!(
                    p.subtree_vars(subtree),
                    definition::subtree_vars(&p, subtree)
                );
                assert_eq!(
                    p.subtree_free_vars(subtree),
                    definition::subtree_free_vars(&p, subtree)
                );
            }
        }
    }
    assert_eq!(trees, 108);
    assert!(
        roots_refused > 100,
        "{roots_refused} allowed sets left out ?v0"
    );
}
