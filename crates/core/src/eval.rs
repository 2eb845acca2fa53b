//! The (exact) evaluation problem EVAL: is `h ∈ p(D)`?
//!
//! This is the general decision procedure for arbitrary WDPTs — the
//! Σ₂ᵖ-complete problem of Theorem 1. The search is seeded by `h`: a
//! candidate maximal homomorphism must (i) assign every free variable it
//! defines according to `h`, (ii) be *forced* into every child that is
//! extendable at all (maximality), and (iii) end up covering exactly
//! `dom(h)` among the free variables. The recursion tracks, per subtree, the
//! family of achievable "coverage" sets of `dom(h)`, each a bitset over
//! `dom(h)`; `h ∈ p(D)` iff some root-level derivation covers all of
//! `dom(h)`. Each node's atoms are compiled once per decision into
//! backtracking [`Search`]es, whose frames are the local homomorphisms and
//! whose seeded slots take the parent's.
//!
//! Tractable special cases live in [`crate::eval_bi`] (Theorem 6: local
//! tractability + bounded interface).

use crate::tree::Wdpt;
use wdpt_cq::Search;
use wdpt_model::{CancelToken, Const, Database, Mapping, ProbeTally, Var};

/// A set of variables of `dom(h)`: bit `i` stands for the `i`-th.
type Cover = Vec<u64>;

/// One node of the tree, compiled for one decision.
struct Node<'a> {
    /// The node's free variables, or `None` when one lies outside `dom(h)`:
    /// then the node cannot be entered consistently.
    cover: Option<Cover>,
    /// The local homomorphisms: the node's atoms, seeded with the variables
    /// shared with the parent and with the free variables (from `h`).
    entered: Search<'a>,
    /// Raw extendability: the same atoms, seeded with the shared variables
    /// only.
    raw: Search<'a>,
    /// `(slot here, slot in the parent)` per variable shared with the parent.
    shared: Vec<(usize, usize)>,
}

/// Decides `h ∈ p(D)` for an arbitrary WDPT (general, worst-case
/// exponential — the paper's Σ₂ᵖ upper bound). Records its searches' work.
pub fn eval_decide(p: &Wdpt, db: &Database, h: &Mapping) -> bool {
    let free = p.free_set();
    let dom: Vec<Var> = h.iter().map(|(v, _)| v).collect();
    if !dom.iter().all(|v| free.contains(v)) {
        return false;
    }
    let words = dom.len() / 64 + 1;
    let mut nodes: Vec<Node> = Vec::with_capacity(p.node_count());
    for t in 0..p.node_count() {
        // Node ids are preorder: the parent is compiled already.
        let parent_vars = p.parent(t).map_or(&[][..], |q| nodes[q].entered.vars());
        let in_parent = |v: Var| parent_vars.binary_search(&v).is_ok();
        let mut entered =
            Search::compile(db, p.atoms(t), None, |v| in_parent(v) || free.contains(&v));
        let raw = Search::compile(db, p.atoms(t), None, in_parent);
        let mut cover = Some(vec![0u64; words]);
        let mut shared = Vec::new();
        for (slot, v) in entered.vars().to_vec().into_iter().enumerate() {
            if let Ok(from) = parent_vars.binary_search(&v) {
                shared.push((slot, from));
            }
            if free.contains(&v) {
                match (dom.binary_search(&v), &mut cover) {
                    (Ok(i), Some(bits)) => {
                        bits[i / 64] |= 1 << (i % 64);
                        entered.set(slot, h.get(v).expect("v is in dom(h)"));
                    }
                    _ => cover = None,
                }
            }
        }
        nodes.push(Node {
            cover,
            entered,
            raw,
            shared,
        });
    }
    // A cover is all of dom(h) iff it has as many bits.
    let bits = |cover: &Cover| cover.iter().map(|w| w.count_ones() as usize).sum::<usize>();
    let covers = coverages(p, &mut nodes, p.root(), &[]);
    let mut work = ProbeTally::default();
    for node in nodes {
        work.add(node.entered.into_tally());
        work.add(node.raw.into_tally());
    }
    wdpt_model::stats::record(&work);
    covers.is_some_and(|f| f.iter().any(|c| bits(c) == dom.len()))
}

/// Coverage sets achievable by consistent maximal extensions into the
/// subtree rooted at `t`, below the parent's local homomorphism `context`,
/// ascending and distinct. `None` means `t` cannot be included consistently
/// (it introduces a free variable outside `dom(h)`).
fn coverages(p: &Wdpt, nodes: &mut [Node<'_>], t: usize, context: &[Const]) -> Option<Vec<Cover>> {
    let never = CancelToken::never();
    let node = &mut nodes[t];
    let cover = node.cover.clone()?;
    for &(slot, from) in &node.shared {
        node.entered.set(slot, context[from]);
    }
    let width = node.entered.vars().len();
    let (mut locals, mut rows) = (Vec::new(), 0);
    (node.entered)
        .for_each(never, |local| {
            locals.extend_from_slice(local);
            rows += 1;
        })
        .expect("never cancels");
    let mut result = Vec::new();
    'locals: for r in 0..rows {
        let local = &locals[r * width..(r + 1) * width];
        // Combine children choices; start with this node's coverage.
        let mut combos = vec![cover.clone()];
        for &c in p.children(t) {
            // Raw extendability: ANY extension (free variables of c are
            // unconstrained here) forces inclusion of c by maximality.
            let child = &mut nodes[c];
            for &(slot, from) in &child.shared {
                child.raw.set(slot, local[from]);
            }
            if !child.raw.exists(never).expect("never cancels") {
                continue; // child excluded; coverage unchanged
            }
            match coverages(p, nodes, c, local) {
                Some(sub) if !sub.is_empty() => {
                    let unions = combos.iter().flat_map(|a| {
                        sub.iter()
                            .map(move |b| a.iter().zip(b).map(|(x, y)| x | y).collect())
                    });
                    combos = unions.collect();
                    combos.sort_unstable();
                    combos.dedup();
                }
                // Forced into a child that defines a free var outside
                // dom(h), or no consistent way to enter: this local
                // valuation cannot yield projection h.
                _ => continue 'locals,
            }
        }
        result.extend(combos);
    }
    result.sort_unstable();
    result.dedup();
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::evaluate;
    use crate::tree::WdptBuilder;
    use wdpt_model::parse::{parse_atoms, parse_database, parse_mapping};
    use wdpt_model::Interner;

    fn figure1(i: &mut Interner) -> (Wdpt, Database) {
        let root = parse_atoms(i, r#"rec_by(?x,?y) publ(?x,"after_2010")"#).unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, parse_atoms(i, "nme_rating(?x,?z)").unwrap());
        b.child(0, parse_atoms(i, "formed_in(?y,?z2)").unwrap());
        let free = ["x", "y", "z", "z2"].iter().map(|n| i.var(n)).collect();
        let p = b.build(free).unwrap();
        let db = parse_database(
            i,
            r#"rec_by("Our_love","Caribou") publ("Our_love","after_2010")
               rec_by("Swim","Caribou") publ("Swim","after_2010")
               nme_rating("Swim","2")"#,
        )
        .unwrap();
        (p, db)
    }

    #[test]
    fn accepts_the_example2_answers() {
        let mut i = Interner::new();
        let (p, db) = figure1(&mut i);
        let mu1 = parse_mapping(&mut i, r#"?x -> "Our_love", ?y -> "Caribou""#).unwrap();
        let mu2 = parse_mapping(&mut i, r#"?x -> "Swim", ?y -> "Caribou", ?z -> "2""#).unwrap();
        assert!(eval_decide(&p, &db, &mu1));
        assert!(eval_decide(&p, &db, &mu2));
    }

    #[test]
    fn rejects_non_maximal_projection() {
        let mut i = Interner::new();
        let (p, db) = figure1(&mut i);
        // {x ↦ Swim, y ↦ Caribou} without z is NOT an answer: the rating
        // branch is extendable, so maximality forces z.
        let bad = parse_mapping(&mut i, r#"?x -> "Swim", ?y -> "Caribou""#).unwrap();
        assert!(!eval_decide(&p, &db, &bad));
    }

    #[test]
    fn rejects_wrong_values_and_domains() {
        let mut i = Interner::new();
        let (p, db) = figure1(&mut i);
        let wrong = parse_mapping(&mut i, r#"?x -> "Swim", ?y -> "Nobody""#).unwrap();
        assert!(!eval_decide(&p, &db, &wrong));
        let non_free = parse_mapping(&mut i, r#"?w -> "Swim""#).unwrap();
        assert!(!eval_decide(&p, &db, &non_free));
    }

    #[test]
    fn agrees_with_enumeration_on_random_trees() {
        let mut state = 0xabcdef12u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _case in 0..25 {
            let mut i = Interner::new();
            let e = i.pred("e");
            let f = i.pred("f");
            let mut db = wdpt_model::Database::new();
            for _ in 0..(3 + next() % 6) {
                let a = i.constant(&format!("c{}", next() % 3));
                let b = i.constant(&format!("c{}", next() % 3));
                db.insert(e, vec![a, b]);
                if next() % 2 == 0 {
                    db.insert(f, vec![b, a]);
                }
            }
            // Random small 3-node tree: root with two children, variables
            // chained through the root.
            let x = i.var("x");
            let y = i.var("y");
            let z = i.var("z");
            let root = vec![wdpt_model::Atom::new(e, vec![x.into(), y.into()])];
            let c1 = vec![wdpt_model::Atom::new(
                if next() % 2 == 0 { e } else { f },
                vec![y.into(), z.into()],
            )];
            let mut b = WdptBuilder::new(root);
            b.child(0, c1);
            let p = b.build(vec![x, y, z]).unwrap();
            let answers = evaluate(&p, &db);
            for h in &answers {
                assert!(eval_decide(&p, &db, h), "answer rejected");
            }
            // Negative probes: random mappings not in the answer set.
            for _ in 0..5 {
                let probe = Mapping::from_pairs(vec![
                    (x, i.constant(&format!("c{}", next() % 3))),
                    (y, i.constant(&format!("c{}", next() % 3))),
                ]);
                let expected = answers.contains(&probe);
                assert_eq!(eval_decide(&p, &db, &probe), expected);
            }
        }
    }

    #[test]
    fn proposition3_three_colorability_reduction() {
        // The Prop. 3 construction: G is 3-colorable iff h ∈ p(D) for the
        // WDPT built from G. Triangle = colorable; triangle+loop forcing
        // conflict (complete graph K4) = not 3-colorable... use K4 vs path.
        let mut i = Interner::new();
        let db = parse_database(&mut i, "c(1,1) c(2,2) c(3,3)").unwrap();
        // Build for K3 (3-colorable) and K4 (not).
        for (n, edges, colorable) in [
            (3usize, vec![(0, 1), (1, 2), (0, 2)], true),
            (
                4,
                vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
                false,
            ),
        ] {
            let c = i.pred("c");
            let x = i.var("x");
            let us: Vec<wdpt_model::Var> = (0..n).map(|j| i.var(&format!("u{j}"))).collect();
            let mut root: Vec<wdpt_model::Atom> = us
                .iter()
                .map(|&u| wdpt_model::Atom::new(c, vec![u.into(), u.into()]))
                .collect();
            root.push(wdpt_model::Atom::new(c, vec![x.into(), x.into()]));
            let mut b = WdptBuilder::new(root);
            let mut free = vec![x];
            for (j, &(v1, v2)) in edges.iter().enumerate() {
                for k in 1..=3usize {
                    let xk = i.var(&format!("x_{j}_{k}"));
                    let kc = i.constant(&k.to_string());
                    let atoms = vec![
                        wdpt_model::Atom::new(c, vec![us[v1].into(), kc.into()]),
                        wdpt_model::Atom::new(c, vec![us[v2].into(), kc.into()]),
                        wdpt_model::Atom::new(c, vec![xk.into(), xk.into()]),
                    ];
                    b.child(0, atoms);
                    free.push(xk);
                }
            }
            let p = b.build(free).unwrap();
            let h = Mapping::from_pairs(vec![(x, i.constant("1"))]);
            assert_eq!(
                eval_decide(&p, &db, &h),
                colorable,
                "3-colorability reduction mismatch for n={n}"
            );
        }
    }
}
