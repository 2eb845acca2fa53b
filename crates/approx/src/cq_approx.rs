//! CQ-level semantic membership and approximation (the paper's [4]).
//!
//! * **Semantic membership.** A CQ is equivalent to one in `C(k)` iff its
//!   core is in `C(k)`, for any class `C(k)` closed under taking retract
//!   images — true for `TW(k)` (Dalmau–Kolaitis–Vardi, [10]) and for the
//!   subquery-closed `HW'(k)` (the very reason Section 5 replaces `HW(k)`
//!   with `HW'(k)`).
//! * **Approximation.** Every `C(k)`-approximation of `q` is equivalent to
//!   a ⊆-maximal quotient of `q` belonging to `C(k)` (Barceló–Libkin–Romero
//!   [4]); since a quotient is a homomorphic image, `q/θ ⊆ q` always holds,
//!   so enumerating quotients, filtering by width, and keeping the
//!   ⊆-maximal ones is a *complete* approximation algorithm (exponential in
//!   `|q|`, matching the single-exponential bound of [4]).

use wdpt_core::WidthKind;
use wdpt_cq::containment::{contained_in, equivalent};
use wdpt_cq::core_of::core_of;
use wdpt_cq::quotient::quotients;
use wdpt_cq::widths;
use wdpt_cq::ConjunctiveQuery;
use wdpt_model::Interner;

fn in_class(q: &ConjunctiveQuery, kind: WidthKind, k: usize) -> bool {
    match kind {
        WidthKind::Tw => widths::in_tw(q, k),
        WidthKind::Hw => widths::in_hw(q, k),
        WidthKind::HwPrime => widths::in_hw_prime(q, k),
    }
}

/// Is `q` equivalent to some CQ in `C(k)`? Decided through the core.
///
/// For `WidthKind::Hw` this implements the test with `HW'(k)` semantics
/// (the subquery-closed variant), matching the paper's Section 5/6 usage —
/// plain `HW(k)` is not closed under retracts and admits no core-based test.
pub fn semantically_in(
    q: &ConjunctiveQuery,
    kind: WidthKind,
    k: usize,
    interner: &mut Interner,
) -> bool {
    let kind = match kind {
        WidthKind::Hw => WidthKind::HwPrime,
        other => other,
    };
    in_class(&core_of(q, interner), kind, k)
}

/// All `C(k)`-approximations of `q`, up to equivalence: the ⊆-maximal
/// quotients of `q` that lie in `C(k)`. Each returned query `q'` satisfies
/// `q' ⊆ q`, `q' ∈ C(k)`, and no other returned query strictly contains it.
/// Returns the empty vector only if no quotient lies in `C(k)` (which
/// cannot happen for `k ≥ 1`: the total collapse of each connected
/// component is acyclic).
pub fn cq_approximations(
    q: &ConjunctiveQuery,
    kind: WidthKind,
    k: usize,
    interner: &mut Interner,
) -> Vec<ConjunctiveQuery> {
    let mut in_k: Vec<ConjunctiveQuery> = quotients(q)
        .into_iter()
        .filter(|cand| in_class(cand, kind, k))
        .collect();
    // Keep ⊆-maximal representatives, deduplicating equivalents.
    let mut maximal: Vec<ConjunctiveQuery> = Vec::new();
    in_k.sort_by_key(|c| c.body().len());
    'next: for cand in in_k {
        let mut replaced = Vec::new();
        for kept in &maximal {
            if contained_in(&cand, kept, interner) {
                // cand ⊆ kept: cand is dominated (or equivalent).
                continue 'next;
            }
            if contained_in(kept, &cand, interner) {
                replaced.push(kept.clone());
            }
        }
        maximal.retain(|kept| !replaced.contains(kept));
        maximal.push(cand);
    }
    maximal
}

/// The single best approximation when the maximal quotients happen to be
/// unique up to equivalence, else `None`.
pub fn unique_cq_approximation(
    q: &ConjunctiveQuery,
    kind: WidthKind,
    k: usize,
    interner: &mut Interner,
) -> Option<ConjunctiveQuery> {
    let mut approxs = cq_approximations(q, kind, k, interner);
    let first = approxs.pop()?;
    if approxs
        .iter()
        .all(|other| equivalent(other, &first, interner))
    {
        Some(first)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_model::parse::parse_atoms;

    fn q(i: &mut Interner, head: &[&str], body: &str) -> ConjunctiveQuery {
        let atoms = parse_atoms(i, body).unwrap();
        let head = head.iter().map(|n| i.var(n)).collect();
        ConjunctiveQuery::new(head, atoms)
    }

    #[test]
    fn acyclic_query_is_semantically_tw1() {
        let mut i = Interner::new();
        let path = q(&mut i, &[], "e(?a,?b) e(?b,?c)");
        assert!(semantically_in(&path, WidthKind::Tw, 1, &mut i));
    }

    #[test]
    fn triangle_is_not_semantically_tw1() {
        let mut i = Interner::new();
        let tri = q(&mut i, &[], "e(?x,?y) e(?y,?z) e(?z,?x)");
        assert!(!semantically_in(&tri, WidthKind::Tw, 1, &mut i));
        assert!(semantically_in(&tri, WidthKind::Tw, 2, &mut i));
    }

    #[test]
    fn redundant_cycle_is_semantically_tw1() {
        let mut i = Interner::new();
        // Undirected 4-cycle folds onto an edge: semantically TW(1).
        let c4 = q(
            &mut i,
            &[],
            "e(?x,?y) e(?y,?x) e(?y,?z) e(?z,?y) e(?z,?w) e(?w,?z) e(?w,?x) e(?x,?w)",
        );
        assert!(semantically_in(&c4, WidthKind::Tw, 1, &mut i));
    }

    #[test]
    fn approximation_of_triangle_in_tw1() {
        let mut i = Interner::new();
        let tri = q(&mut i, &[], "e(?x,?y) e(?y,?z) e(?z,?x)");
        let approxs = cq_approximations(&tri, WidthKind::Tw, 1, &mut i);
        assert!(!approxs.is_empty());
        for a in &approxs {
            assert!(widths::in_tw(a, 1));
            assert!(contained_in(a, &tri, &i));
        }
        // The classical TW(1)-approximation of the triangle is the
        // self-loop e(x,x): the only 3-colorable... rather, the quotient
        // merging all three variables. It is the unique maximal one.
        let loopq = q(&mut i, &[], "e(?s,?s)");
        assert!(approxs.iter().any(|a| equivalent(a, &loopq, &i)));
    }

    #[test]
    fn approximation_of_tw1_query_is_itself() {
        let mut i = Interner::new();
        let path = q(&mut i, &["a"], "e(?a,?b) e(?b,?c)");
        let approxs = cq_approximations(&path, WidthKind::Tw, 1, &mut i);
        assert_eq!(approxs.len(), 1);
        assert!(equivalent(&approxs[0], &path, &i));
    }

    #[test]
    fn approximations_are_incomparable() {
        let mut i = Interner::new();
        let c5 = q(
            &mut i,
            &[],
            "e(?x1,?x2) e(?x2,?x3) e(?x3,?x4) e(?x4,?x5) e(?x5,?x1)",
        );
        let approxs = cq_approximations(&c5, WidthKind::Tw, 1, &mut i);
        for (a, b) in approxs
            .iter()
            .enumerate()
            .flat_map(|(ia, a)| approxs[ia + 1..].iter().map(move |b| (a, b)))
        {
            assert!(!contained_in(a, b, &i) || !contained_in(b, a, &i));
        }
    }

    #[test]
    fn head_variables_survive_approximation() {
        let mut i = Interner::new();
        let tri = q(&mut i, &["x"], "e(?x,?y) e(?y,?z) e(?z,?x)");
        let approxs = cq_approximations(&tri, WidthKind::Tw, 1, &mut i);
        let x = i.var("x");
        for a in &approxs {
            assert_eq!(a.head(), &[x]);
        }
    }

    #[test]
    fn hw_semantics_uses_subquery_closed_variant() {
        let mut i = Interner::new();
        // Clique + covering atom: the core keeps everything (the big atom
        // cannot be dropped), is in HW(1) but not HW'(1).
        let mut body = String::new();
        for a in 1..=4 {
            for b in a + 1..=4 {
                body.push_str(&format!("e(?x{a},?x{b}) "));
            }
        }
        body.push_str("t(?x1,?x2,?x3,?x4)");
        let theta = q(&mut i, &[], &body);
        assert!(!semantically_in(&theta, WidthKind::Hw, 1, &mut i));
        assert!(semantically_in(&theta, WidthKind::HwPrime, 2, &mut i));
    }

    #[test]
    fn unique_approximation_when_it_exists() {
        let mut i = Interner::new();
        let tri = q(&mut i, &[], "e(?x,?y) e(?y,?z) e(?z,?x)");
        let u = unique_cq_approximation(&tri, WidthKind::Tw, 1, &mut i);
        assert!(u.is_some());
    }
}
