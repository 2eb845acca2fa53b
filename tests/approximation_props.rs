//! Properties of the approximation machinery (Sections 5–6): soundness,
//! maximality, class membership, and agreement between the CQ-level and
//! UWDPT-level pipelines, on deterministically generated random CQs
//! (std-only [`wdpt::gen::Lcg`], fixed seeds).

use wdpt::approx::cq_approx::{cq_approximations, semantically_in};
use wdpt::approx::uwdpt::{
    in_m_uwb, phi_cq, uwb_approximation, uwdpt_equivalent, uwdpt_subsumed, Uwdpt,
};
use wdpt::approx::wb::{find_wb_equivalent, wb_approximations};
use wdpt::core::{in_wb, subsumed, Engine, Wdpt, WdptBuilder, WidthKind};
use wdpt::cq::{contained_in, core_of, equivalent, in_tw, ConjunctiveQuery};
use wdpt::gen::Lcg;
use wdpt::model::{Atom, Interner};

/// A random Boolean CQ body over `e/2`: `n` variable pairs below `nv`.
fn random_spec(r: &mut Lcg, nv: u8, max_atoms: usize) -> Vec<(u8, u8)> {
    let n = 1 + r.gen_range(0..max_atoms);
    (0..n)
        .map(|_| {
            (
                r.gen_range(0..nv as usize) as u8,
                r.gen_range(0..nv as usize) as u8,
            )
        })
        .collect()
}

/// A random Boolean CQ over `e/2` with `nv` variables.
fn build_cq(i: &mut Interner, spec: &[(u8, u8)], nv: u8) -> ConjunctiveQuery {
    let e = i.pred("e");
    let atoms: Vec<Atom> = spec
        .iter()
        .map(|&(a, b)| {
            let va = i.var(&format!("v{}", a % nv));
            let vb = i.var(&format!("v{}", b % nv));
            Atom::new(e, vec![va.into(), vb.into()])
        })
        .collect();
    ConjunctiveQuery::boolean(atoms)
}

/// Core is equivalent to the query and idempotent.
#[test]
fn core_properties() {
    let mut r = Lcg::new(0xA110_0001);
    for _case in 0..40 {
        let spec = random_spec(&mut r, 5, 5);
        let mut i = Interner::new();
        let q = build_cq(&mut i, &spec, 5);
        let core = core_of(&q, &i);
        assert!(equivalent(&q, &core, &i), "spec={spec:?}");
        let twice = core_of(&core, &i);
        assert_eq!(&core, &twice, "spec={spec:?}");
        assert!(core.body().len() <= q.body().len());
    }
}

/// Semantic TW(1) membership coincides with "core has treewidth ≤ 1".
#[test]
fn semantic_membership_via_core() {
    let mut r = Lcg::new(0xA110_0002);
    for _case in 0..40 {
        let spec = random_spec(&mut r, 4, 5);
        let mut i = Interner::new();
        let q = build_cq(&mut i, &spec, 4);
        let via_core = in_tw(&core_of(&q, &i), 1);
        assert_eq!(
            semantically_in(&q, WidthKind::Tw, 1, &mut i),
            via_core,
            "spec={spec:?}"
        );
    }
}

/// Every TW(1)-approximation is contained in q, lies in TW(1), and is
/// maximal among the returned set.
#[test]
fn cq_approximations_are_sound_and_incomparable() {
    let mut r = Lcg::new(0xA110_0003);
    for _case in 0..40 {
        let spec = random_spec(&mut r, 4, 5);
        let mut i = Interner::new();
        let q = build_cq(&mut i, &spec, 4);
        let approxs = cq_approximations(&q, WidthKind::Tw, 1, &mut i);
        assert!(!approxs.is_empty());
        for a in &approxs {
            assert!(in_tw(a, 1));
            assert!(contained_in(a, &q, &i), "spec={spec:?}");
        }
        for (idx, a) in approxs.iter().enumerate() {
            for b in &approxs[idx + 1..] {
                assert!(
                    !contained_in(a, b, &i) || !contained_in(b, a, &i),
                    "two returned approximations are strictly comparable: spec={spec:?}"
                );
            }
        }
        // If q is semantically in TW(1), its approximation is equivalent
        // to q itself.
        if semantically_in(&q, WidthKind::Tw, 1, &mut i) {
            assert!(approxs.iter().any(|a| equivalent(a, &q, &i)));
        }
    }
}

/// UWDPT pipeline: φ ≡ₛ φ_cq, the approximation is subsumed by φ, and
/// membership matches the witness constructor.
#[test]
fn uwdpt_pipeline_properties() {
    let mut r = Lcg::new(0xA110_0004);
    for _case in 0..40 {
        let spec = random_spec(&mut r, 3, 4);
        let mut i = Interner::new();
        let q = build_cq(&mut i, &spec, 3);
        let e = i.pred("e");
        let x = i.var("px");
        let y = i.var("py");
        // A two-node disjunct plus the random CQ as a single-node disjunct.
        let mut b = WdptBuilder::new(vec![Atom::new(e, vec![x.into(), y.into()])]);
        b.child(0, vec![Atom::new(e, vec![y.into(), y.into()])]);
        let p1 = b.build(vec![x]).unwrap();
        let p2 = Wdpt::from_cq(&q);
        let phi = Uwdpt::new(vec![p1, p2]);
        // φ ≡ₛ φ_cq.
        let as_union = Uwdpt::new(phi_cq(&phi).iter().map(Wdpt::from_cq).collect());
        assert!(uwdpt_equivalent(&phi, &as_union, Engine::Backtrack, &mut i));
        // Approximation soundness.
        let approx = uwb_approximation(&phi, WidthKind::Tw, 1, &mut i);
        assert!(uwdpt_subsumed(&approx, &phi, Engine::Backtrack, &mut i));
        // Membership ⇒ the approximation is even ≡ₛ-equivalent to φ.
        if in_m_uwb(&phi, WidthKind::Tw, 1, &mut i) {
            assert!(uwdpt_subsumed(&phi, &approx, Engine::Backtrack, &mut i));
        }
    }
}

#[test]
fn wb_search_and_approximations_on_known_cases() {
    let mut i = Interner::new();
    // Foldable triangle: in M(WB(1)).
    let fold = WdptBuilder::new(
        wdpt::model::parse::parse_atoms(&mut i, "e(?x,?y) e(?y,?z) e(?z,?x) e(?w,?w) e(?x,?w)")
            .unwrap(),
    )
    .build(vec![])
    .unwrap();
    let w = find_wb_equivalent(&fold, WidthKind::Tw, 1, &mut i).expect("foldable");
    assert!(in_wb(&w, WidthKind::Tw, 1));
    // Genuine triangle: not in M(WB(1)); its approximations are sound.
    let tri = WdptBuilder::new(
        wdpt::model::parse::parse_atoms(&mut i, "e(?x,?y) e(?y,?z) e(?z,?x)").unwrap(),
    )
    .build(vec![])
    .unwrap();
    assert!(find_wb_equivalent(&tri, WidthKind::Tw, 1, &mut i).is_none());
    for a in wb_approximations(&tri, WidthKind::Tw, 1, &mut i) {
        assert!(in_wb(&a, WidthKind::Tw, 1));
        assert!(subsumed(&a, &tri, Engine::Backtrack, &mut i));
    }
}
