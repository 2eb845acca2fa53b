//! WDPT families with controlled class membership.

use crate::rng::Lcg;
use wdpt_core::{Wdpt, WdptBuilder};
use wdpt_model::{Atom, Interner, Var};

/// A chain-shaped WDPT of `depth` nodes: node `i` carries
/// `e(?y{i-1}, ?y{i})` (the root carries `e(?y0, ?y1)`), every other node
/// optional below the previous one. Free variables: all `?y{i}` — a
/// projection-free tree in `ℓ-TW(1) ∩ BI(1)` and `g-TW(1)`; with
/// `project_prefix < depth+1` only the first variables stay free, giving a
/// tree with projection in the same classes.
pub fn chain_wdpt(interner: &mut Interner, depth: usize, project_prefix: Option<usize>) -> Wdpt {
    assert!(depth >= 1);
    let e = interner.pred("e");
    let ys: Vec<Var> = (0..=depth)
        .map(|j| interner.var(&format!("y{j}")))
        .collect();
    let mut b = WdptBuilder::new(vec![Atom::new(e, vec![ys[0].into(), ys[1].into()])]);
    let mut prev = 0;
    for j in 1..depth {
        prev = b.child(
            prev,
            vec![Atom::new(e, vec![ys[j].into(), ys[j + 1].into()])],
        );
    }
    let free: Vec<Var> = match project_prefix {
        Some(k) => ys.iter().copied().take(k).collect(),
        None => ys.clone(),
    };
    b.build(free).expect("chain is well-designed")
}

/// A star-shaped WDPT: root `a(?x, ?u)` with `branches` children
/// `e(?u, ?z{i})` — each branch optional, all sharing only the existential
/// `?u` with the root. In `ℓ-TW(1) ∩ BI(1)` and `g-TW(1)`. Free variables:
/// `?x` and all `?z{i}`.
pub fn star_wdpt(interner: &mut Interner, branches: usize) -> Wdpt {
    let a = interner.pred("a");
    let e = interner.pred("e");
    let x = interner.var("x");
    let u = interner.var("u");
    let mut b = WdptBuilder::new(vec![Atom::new(a, vec![x.into(), u.into()])]);
    let mut free = vec![x];
    for j in 0..branches {
        let z = interner.var(&format!("z{j}"));
        b.child(0, vec![Atom::new(e, vec![u.into(), z.into()])]);
        free.push(z);
    }
    b.build(free).expect("star is well-designed")
}

/// Proposition 2(2)'s witness family: a two-node tree whose root and child
/// both carry the path `e(?u0,?u1), …, e(?u{n-1},?u{n})` — globally in
/// `TW(1)` yet sharing `n+1` variables across the edge, hence outside every
/// `BI(c)` for `c ≤ n`.
pub fn wide_interface_wdpt(interner: &mut Interner, n: usize) -> Wdpt {
    assert!(n >= 1);
    let e = interner.pred("e");
    let us: Vec<Var> = (0..=n).map(|j| interner.var(&format!("u{j}"))).collect();
    let path: Vec<Atom> = us
        .windows(2)
        .map(|w| Atom::new(e, vec![w[0].into(), w[1].into()]))
        .collect();
    let mut b = WdptBuilder::new(path.clone());
    b.child(0, path);
    b.build(vec![us[0]]).expect("well-designed")
}

/// A random well-designed tree for differential testing: `nodes` nodes,
/// each carrying 1–2 binary atoms over a fresh variable plus one variable
/// inherited from the parent (guaranteeing well-designedness by
/// construction). Roughly half of the variables are free.
pub fn random_wdpt(interner: &mut Interner, nodes: usize, r: &mut Lcg) -> Wdpt {
    assert!(nodes >= 1);
    let e = interner.pred("e");
    let f = interner.pred("f");
    let mut node_var: Vec<Var> = Vec::with_capacity(nodes);
    let v0 = interner.var("v0");
    node_var.push(v0);
    let mut b = WdptBuilder::new(vec![Atom::new(e, vec![v0.into(), v0.into()])]);
    let mut all_vars = vec![v0];
    for j in 1..nodes {
        let parent = r.gen_range(0..j);
        let fresh = interner.var(&format!("v{j}"));
        let inherited = node_var[parent];
        let pred = if r.gen_bool(0.5) { e } else { f };
        let mut atoms = vec![Atom::new(pred, vec![inherited.into(), fresh.into()])];
        if r.gen_bool(0.4) {
            atoms.push(Atom::new(e, vec![fresh.into(), fresh.into()]));
        }
        b.child(parent, atoms);
        node_var.push(fresh);
        all_vars.push(fresh);
    }
    let free: Vec<Var> = all_vars
        .into_iter()
        .enumerate()
        .filter(|(idx, _)| idx % 2 == 0)
        .map(|(_, v)| v)
        .collect();
    b.build(free)
        .expect("construction keeps occurrences connected")
}

/// A "clique chain": a path-shaped WDPT whose node `j` carries the star
/// `e(?v{j+1}, ?v{i})` for all `i ≤ j` — locally `TW(1)` (each label is a
/// star), but the full-tree CQ is the `(m+1)`-clique, so the family has
/// unbounded interface and is **not** globally tractable. The deepest node
/// carries `g(?v{m}, ?w)` with free variable `?w`: deciding whether
/// `{w ↦ a}` is a partial answer forces a clique query — the NP-hard cell
/// of Table 1's PARTIAL-EVAL row (Proposition 1).
pub fn clique_chain_wdpt(interner: &mut Interner, m: usize) -> Wdpt {
    assert!(m >= 1);
    let e = interner.pred("e");
    let g = interner.pred("g");
    let vs: Vec<Var> = (0..=m).map(|j| interner.var(&format!("v{j}"))).collect();
    let w = interner.var("w");
    let mut b = WdptBuilder::new(vec![Atom::new(e, vec![vs[0].into(), vs[1].into()])]);
    let mut prev = 0;
    for j in 2..=m {
        let atoms: Vec<Atom> = (0..j)
            .map(|i| Atom::new(e, vec![vs[j].into(), vs[i].into()]))
            .collect();
        prev = b.child(prev, atoms);
    }
    b.child(prev, vec![Atom::new(g, vec![vs[m].into(), w.into()])]);
    b.build(vec![w]).expect("clique chain is well-designed")
}

/// A single-node WDPT whose body is the `m`-clique pattern over `e/2`
/// (both edge directions): the right-hand side of the NP-hard CQ
/// containment/subsumption family.
pub fn clique_pattern_wdpt(interner: &mut Interner, m: usize) -> Wdpt {
    let e = interner.pred("e");
    let vs: Vec<Var> = (0..m).map(|j| interner.var(&format!("k{j}"))).collect();
    let mut atoms = Vec::new();
    for a in 0..m {
        for bq in 0..m {
            if a != bq {
                atoms.push(Atom::new(e, vec![vs[a].into(), vs[bq].into()]));
            }
        }
    }
    WdptBuilder::new(atoms)
        .build(Vec::new())
        .expect("single node")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_core::{
        has_bounded_interface, interface_width, is_globally_in, is_locally_in, WidthKind,
    };

    #[test]
    fn chain_classification() {
        let mut i = Interner::new();
        let p = chain_wdpt(&mut i, 5, None);
        assert_eq!(p.node_count(), 5);
        assert!(p.is_projection_free());
        assert!(is_locally_in(&p, WidthKind::Tw, 1));
        assert!(has_bounded_interface(&p, 1));
        assert!(is_globally_in(&p, WidthKind::Tw, 1));
    }

    #[test]
    fn chain_with_projection() {
        let mut i = Interner::new();
        let p = chain_wdpt(&mut i, 4, Some(2));
        assert!(!p.is_projection_free());
        assert_eq!(p.free_vars().len(), 2);
    }

    #[test]
    fn star_classification() {
        let mut i = Interner::new();
        let p = star_wdpt(&mut i, 6);
        assert_eq!(p.node_count(), 7);
        assert!(is_locally_in(&p, WidthKind::Tw, 1));
        assert!(has_bounded_interface(&p, 1));
        assert_eq!(p.free_vars().len(), 7);
    }

    #[test]
    fn wide_interface_witness() {
        let mut i = Interner::new();
        let n = 5;
        let p = wide_interface_wdpt(&mut i, n);
        assert!(is_globally_in(&p, WidthKind::Tw, 1));
        assert_eq!(interface_width(&p), n + 1);
        assert!(!has_bounded_interface(&p, n));
    }

    #[test]
    fn random_trees_are_well_designed() {
        let mut r = crate::db::rng(42);
        for _ in 0..20 {
            let mut i = Interner::new();
            let p = random_wdpt(&mut i, 1 + r.gen_range(0..8), &mut r);
            assert!(p.node_count() >= 1);
            // building succeeded ⇒ well-designed; also sanity-check classes
            assert!(is_locally_in(&p, WidthKind::Tw, 1));
        }
    }
}
