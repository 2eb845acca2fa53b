//! The Figure 2 family: exponential lower bound on approximation size
//! (Theorem 15 of the paper).
//!
//! For every `k ≥ 2` and `n ≥ 1`, the paper exhibits WDPTs `p₁⁽ⁿ⁾` (of
//! size `O(n²)`, outside `WB(k)` through an `(k+1+n)`-clique of `d`-atoms
//! in the root) and `p₂⁽ⁿ⁾` (of size `Ω(2ⁿ)`, inside `g-TW(k)`) such that
//! `p₂ ⊑ p₁`, and every `p₃ ∈ WB(k)` with `p₂ ⊑ p₃ ⊑ p₁` is at least as
//! large as `p₂`. The `e(z₁,…,z_n)` atom of `p₁`'s first leaf must be
//! instantiated by **all** `2ⁿ` tuples over `{α₀, α₁}` in `p₂` — the
//! exponential blow-up.
//!
//! The tests below are the experiment: they pin the `O(n²)` vs `Ω(2ⁿ)`
//! atom counts up to `n = 12` and verify all four premises of the theorem —
//! `p₂ ⊑ p₁`, `p₁ ⋢ p₂`, `p₂ ∈ g-TW(k)`, `p₁ ∉ g-TW(k)` — for `n = 1..4`.

use wdpt_core::{Wdpt, WdptBuilder};
use wdpt_model::{Atom, Interner, Term, Var};

fn free_vars(i: &mut Interner, n: usize) -> Vec<Var> {
    let mut free = vec![i.var("x")];
    for j in 0..=n {
        free.push(i.var(&format!("x{j}")));
    }
    free
}

/// Builds `p₁⁽ⁿ⁾` of Figure 2 for parameters `n ≥ 1` and `k ≥ 2`.
pub fn figure2_p1(i: &mut Interner, n: usize, k: usize) -> Wdpt {
    assert!(n >= 1 && k >= 1);
    let alphas: Vec<Var> = (0..=k).map(|j| i.var(&format!("alpha{j}"))).collect();
    let zs: Vec<Var> = (1..=n).map(|j| i.var(&format!("z{j}"))).collect();
    let x = i.var("x");
    let a = i.pred("a");
    let d = i.pred("d");
    let e = i.pred("e");

    let mut root: Vec<Atom> = vec![Atom::new(a, vec![x.into()])];
    for (j, &al) in alphas.iter().enumerate() {
        let bj = i.pred(&format!("b{j}"));
        root.push(Atom::new(bj, vec![al.into()]));
    }
    for j in 1..=n {
        let cj = i.pred(&format!("c{j}"));
        root.push(Atom::new(cj, vec![alphas[0].into()]));
        root.push(Atom::new(cj, vec![zs[j - 1].into()]));
    }
    root.push(Atom::new(d, vec![alphas[0].into(), alphas[0].into()]));
    root.push(Atom::new(d, vec![alphas[1].into(), alphas[1].into()]));
    let clique: Vec<Var> = alphas.iter().chain(zs.iter()).copied().collect();
    for &u in &clique {
        for &v in &clique {
            if u != v {
                root.push(Atom::new(d, vec![u.into(), v.into()]));
            }
        }
    }

    let mut builder = WdptBuilder::new(root);
    // First leaf: a_0(x_0), e(z_1, …, z_n).
    let a0 = i.pred("a0");
    let x0 = i.var("x0");
    let e_args: Vec<Term> = zs.iter().map(|&z| z.into()).collect();
    builder.child(
        0,
        vec![Atom::new(a0, vec![x0.into()]), Atom::new(e, e_args)],
    );
    // Leaves 1..n: a_i(x_i), b_i(z_i), c_i(α_1).
    for j in 1..=n {
        let aj = i.pred(&format!("a{j}"));
        let xj = i.var(&format!("x{j}"));
        let bj = i.pred(&format!("b{j}"));
        let cj = i.pred(&format!("c{j}"));
        builder.child(
            0,
            vec![
                Atom::new(aj, vec![xj.into()]),
                Atom::new(bj, vec![zs[j - 1].into()]),
                Atom::new(cj, vec![alphas[1].into()]),
            ],
        );
    }
    let free = free_vars(i, n);
    builder.build(free).expect("p1 is well-designed")
}

/// Builds `p₂⁽ⁿ⁾` of Figure 2: the `Ω(2ⁿ)`-size approximation.
pub fn figure2_p2(i: &mut Interner, n: usize, k: usize) -> Wdpt {
    assert!(n >= 1 && k >= 1);
    let alphas: Vec<Var> = (0..=k).map(|j| i.var(&format!("alpha{j}"))).collect();
    let x = i.var("x");
    let a = i.pred("a");
    let d = i.pred("d");
    let e = i.pred("e");

    let mut root: Vec<Atom> = vec![Atom::new(a, vec![x.into()])];
    for (j, &al) in alphas.iter().enumerate() {
        let bj = i.pred(&format!("b{j}"));
        root.push(Atom::new(bj, vec![al.into()]));
    }
    for j in 1..=n {
        let cj = i.pred(&format!("c{j}"));
        root.push(Atom::new(cj, vec![alphas[0].into()]));
    }
    for &u in &alphas {
        for &v in &alphas {
            if u != v {
                root.push(Atom::new(d, vec![u.into(), v.into()]));
            }
        }
    }
    root.push(Atom::new(d, vec![alphas[0].into(), alphas[0].into()]));
    root.push(Atom::new(d, vec![alphas[1].into(), alphas[1].into()]));

    let mut builder = WdptBuilder::new(root);
    // First leaf: a_0(x_0) plus ALL 2^n instantiations e(ᾱ),
    // ᾱ ∈ {α_0, α_1}^n.
    let a0 = i.pred("a0");
    let x0 = i.var("x0");
    let mut leaf0 = vec![Atom::new(a0, vec![x0.into()])];
    for mask in 0u64..(1u64 << n) {
        let args: Vec<Term> = (0..n)
            .map(|j| {
                if mask & (1 << j) != 0 {
                    alphas[1].into()
                } else {
                    alphas[0].into()
                }
            })
            .collect();
        leaf0.push(Atom::new(e, args));
    }
    builder.child(0, leaf0);
    // Leaves 1..n: a_i(x_i), b_i(α_1), c_i(α_1). The b_i(α_1) atom hosts
    // the image of p₁'s b_i(z_i) under the subsumption homomorphisms that
    // send z_i ↦ α_1 exactly when leaf i is included (proof sketch of
    // Theorem 15).
    for j in 1..=n {
        let aj = i.pred(&format!("a{j}"));
        let xj = i.var(&format!("x{j}"));
        let bj = i.pred(&format!("b{j}"));
        let cj = i.pred(&format!("c{j}"));
        builder.child(
            0,
            vec![
                Atom::new(aj, vec![xj.into()]),
                Atom::new(bj, vec![alphas[1].into()]),
                Atom::new(cj, vec![alphas[1].into()]),
            ],
        );
    }
    let free = free_vars(i, n);
    builder.build(free).expect("p2 is well-designed")
}

/// Total number of atoms in a WDPT (a proxy for the paper's `|p|`).
pub fn atom_count(p: &Wdpt) -> usize {
    (0..p.node_count()).map(|t| p.atoms(t).len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_core::{is_globally_in, subsumed, Engine, WidthKind};
    use wdpt_model::Interner;

    #[test]
    fn sizes_grow_as_claimed() {
        let mut i = Interner::new();
        let pinned = [(1, 25, 19), (4, 70, 45), (8, 158, 301), (12, 278, 4157)];
        let k = 2;
        for n in 1..=12 {
            let p1 = figure2_p1(&mut i, n, k);
            let p2 = figure2_p2(&mut i, n, k);
            // |p1| = O(n²), |p2| ≥ 2^n.
            assert!(atom_count(&p1) <= 4 * (n + k + 2) * (n + k + 2));
            assert!(atom_count(&p2) >= 1 << n);
            if let Some(&(_, a1, a2)) = pinned.iter().find(|pin| pin.0 == n) {
                assert_eq!((atom_count(&p1), atom_count(&p2)), (a1, a2), "n = {n}");
            }
        }
    }

    #[test]
    fn p2_is_subsumed_by_p1() {
        let k = 2;
        for n in 1..=4 {
            let mut i = Interner::new();
            let p1 = figure2_p1(&mut i, n, k);
            let p2 = figure2_p2(&mut i, n, k);
            assert!(subsumed(&p2, &p1, Engine::Backtrack, &mut i), "n = {n}");
        }
    }

    #[test]
    fn p1_is_not_subsumed_by_p2() {
        let k = 2;
        for n in 1..=4 {
            let mut i = Interner::new();
            let p1 = figure2_p1(&mut i, n, k);
            let p2 = figure2_p2(&mut i, n, k);
            assert!(!subsumed(&p1, &p2, Engine::Backtrack, &mut i), "n = {n}");
        }
    }

    #[test]
    fn p2_is_globally_tractable_p1_is_not() {
        let k = 2;
        for n in 1..=4 {
            let mut i = Interner::new();
            let p1 = figure2_p1(&mut i, n, k);
            let p2 = figure2_p2(&mut i, n, k);
            assert!(is_globally_in(&p2, WidthKind::Tw, k), "n = {n}");
            assert!(!is_globally_in(&p1, WidthKind::Tw, k), "n = {n}");
        }
    }

    #[test]
    fn both_trees_share_free_variables() {
        let mut i = Interner::new();
        let p1 = figure2_p1(&mut i, 2, 2);
        let p2 = figure2_p2(&mut i, 2, 2);
        assert_eq!(p1.free_vars(), p2.free_vars());
        assert_eq!(p1.free_vars().len(), 4); // x, x0, x1, x2
    }
}
