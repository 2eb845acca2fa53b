//! Round-trip and semantics properties of the {AND, OPT} front end, on
//! deterministically generated random patterns and stores
//! ([`wdpt::gen::Lcg`], fixed seeds).

use std::collections::BTreeSet;
use wdpt::core::{evaluate, Wdpt, WdptBuilder};
use wdpt::gen::Lcg;
use wdpt::sparql::algebra::SparqlError;
use wdpt::sparql::{parse_query, GraphPattern, TriplePattern, TripleStore};
use wdpt::{Atom, Interner, Term, Var};

/// A random *well-designed-by-construction* pattern spec: the number of
/// mandatory core triples plus `(predicate, anchor)` choices for a chain of
/// OPTs whose right-hand sides reuse exactly one variable from the
/// mandatory part and introduce one fresh variable each.
fn random_pattern_spec(r: &mut Lcg) -> (u8, Vec<(u8, u8)>) {
    let core = 1 + r.gen_range(0..3) as u8;
    let n = r.gen_range(0..4);
    let opts = (0..n)
        .map(|_| (r.gen_range(0..3) as u8, r.gen_range(0..4) as u8))
        .collect();
    (core, opts)
}

fn random_facts(r: &mut Lcg, max: usize) -> Vec<(u8, u8, u8)> {
    let n = 1 + r.gen_range(0..max);
    (0..n)
        .map(|_| {
            (
                r.gen_range(0..4) as u8,
                r.gen_range(0..3) as u8,
                r.gen_range(0..4) as u8,
            )
        })
        .collect()
}

fn build_pattern(i: &mut Interner, core_triples: u8, opts: &[(u8, u8)]) -> GraphPattern {
    let preds = ["p", "q", "r"];
    let mut core: Option<GraphPattern> = None;
    for t in 0..core_triples {
        let s = Term::Var(i.var(&format!("a{t}")));
        let p = Term::Const(i.constant(preds[t as usize % 3]));
        let o = Term::Var(i.var(&format!("a{}", t + 1)));
        let g = GraphPattern::Triple(TriplePattern { s, p, o });
        core = Some(match core {
            None => g,
            Some(acc) => GraphPattern::And(Box::new(acc), Box::new(g)),
        });
    }
    let mut pattern = core.expect("at least one core triple");
    for (j, &(pred, anchor)) in opts.iter().enumerate() {
        let anchor = anchor % (core_triples + 1);
        let s = Term::Var(i.var(&format!("a{anchor}")));
        let p = Term::Const(i.constant(preds[pred as usize % 3]));
        let o = Term::Var(i.var(&format!("o{j}")));
        pattern = GraphPattern::Opt(
            Box::new(pattern),
            Box::new(GraphPattern::Triple(TriplePattern { s, p, o })),
        );
    }
    pattern
}

fn build_store(i: &mut Interner, facts: &[(u8, u8, u8)]) -> TripleStore {
    let preds = ["p", "q", "r"];
    let mut ts = TripleStore::new();
    for &(s, p, o) in facts {
        let sc = format!("n{s}");
        let oc = format!("n{o}");
        ts.insert_str(i, &sc, preds[p as usize % 3], &oc);
    }
    ts
}

/// display → parse round-trips structurally.
#[test]
fn display_parse_roundtrip() {
    let mut r = Lcg::new(0x5A59_0001);
    for _case in 0..48 {
        let (core, opts) = random_pattern_spec(&mut r);
        let mut i = Interner::new();
        let pat = build_pattern(&mut i, core, &opts);
        assert!(pat.is_well_designed());
        let text = pat.display(&i);
        let parsed = parse_query(&mut i, &text).unwrap();
        assert_eq!(parsed.pattern, pat, "core={core} opts={opts:?}");
    }
}

/// wdpt → pattern → wdpt preserves the tree and the semantics.
#[test]
fn wdpt_roundtrip_preserves_semantics() {
    let mut r = Lcg::new(0x5A59_0002);
    for _case in 0..48 {
        let (core, opts) = random_pattern_spec(&mut r);
        let facts = random_facts(&mut r, 10);
        let mut i = Interner::new();
        let pat = build_pattern(&mut i, core, &opts);
        let p = pat.to_wdpt(None, &mut i).unwrap();
        let back = GraphPattern::from_wdpt(&p).unwrap();
        let p2 = back.to_wdpt(None, &mut i).unwrap();
        assert_eq!(&p, &p2);
        let ts = build_store(&mut i, &facts);
        let mut a1 = evaluate(&p, ts.database());
        let mut a2 = evaluate(&p2, ts.database());
        a1.sort();
        a2.sort();
        assert_eq!(a1, a2, "core={core} opts={opts:?}");
    }
}

/// Answers of a well-designed pattern over any store are closed under the
/// WDPT semantics invariants: domains contain the core variables.
#[test]
fn answers_always_bind_the_mandatory_core() {
    let mut r = Lcg::new(0x5A59_0003);
    for _case in 0..48 {
        let (core, opts) = random_pattern_spec(&mut r);
        let facts = random_facts(&mut r, 12);
        let mut i = Interner::new();
        let pat = build_pattern(&mut i, core, &opts);
        let p = pat.to_wdpt(None, &mut i).unwrap();
        let ts = build_store(&mut i, &facts);
        let answers = evaluate(&p, ts.database());
        let core_vars: Vec<wdpt::Var> = (0..=core).map(|t| i.var(&format!("a{t}"))).collect();
        for h in &answers {
            for v in &core_vars {
                assert!(h.defines(*v), "mandatory variable unbound in {h}");
            }
        }
    }
}

// The reference translation: the pattern's OPT normal form, read off into
// an intermediate tree, copied into a builder; well-designedness decided
// on the algebra with a variable set per operator.

fn ref_vars(p: &GraphPattern, out: &mut BTreeSet<Var>) {
    match p {
        GraphPattern::Triple(t) => {
            for term in [t.s, t.p, t.o] {
                if let Term::Var(v) = term {
                    out.insert(v);
                }
            }
        }
        GraphPattern::And(a, b) | GraphPattern::Opt(a, b) => {
            ref_vars(a, out);
            ref_vars(b, out);
        }
    }
}

fn ref_violation(p: &GraphPattern, outside: &BTreeSet<Var>) -> Option<Var> {
    let vars = |p: &GraphPattern| {
        let mut out = BTreeSet::new();
        ref_vars(p, &mut out);
        out
    };
    match p {
        GraphPattern::Triple(_) => None,
        GraphPattern::And(a, b) | GraphPattern::Opt(a, b) => {
            if matches!(p, GraphPattern::Opt(..)) {
                let (va, vb) = (vars(a), vars(b));
                if let Some(&v) = vb.difference(&va).find(|v| outside.contains(v)) {
                    return Some(v);
                }
            }
            let mut oa = outside.clone();
            ref_vars(b, &mut oa);
            if let Some(v) = ref_violation(a, &oa) {
                return Some(v);
            }
            let mut ob = outside.clone();
            ref_vars(a, &mut ob);
            ref_violation(b, &ob)
        }
    }
}

fn opt_normal_form(p: &GraphPattern) -> GraphPattern {
    match p {
        GraphPattern::Triple(_) => p.clone(),
        GraphPattern::Opt(a, b) => {
            GraphPattern::Opt(Box::new(opt_normal_form(a)), Box::new(opt_normal_form(b)))
        }
        GraphPattern::And(a, b) => match (opt_normal_form(a), opt_normal_form(b)) {
            (GraphPattern::Opt(a1, a2), b) => GraphPattern::Opt(
                Box::new(opt_normal_form(&GraphPattern::And(a1, Box::new(b)))),
                a2,
            ),
            (a, GraphPattern::Opt(b1, b2)) => GraphPattern::Opt(
                Box::new(opt_normal_form(&GraphPattern::And(Box::new(a), b1))),
                b2,
            ),
            (a, b) => GraphPattern::And(Box::new(a), Box::new(b)),
        },
    }
}

struct Node {
    atoms: Vec<Atom>,
    children: Vec<Node>,
}

fn collect(p: &GraphPattern, i: &mut Interner) -> Node {
    match p {
        GraphPattern::Triple(t) => Node {
            atoms: vec![t.to_atom(i)],
            children: Vec::new(),
        },
        GraphPattern::And(a, b) => {
            let mut na = collect(a, i);
            let nb = collect(b, i);
            assert!(na.children.is_empty() && nb.children.is_empty());
            na.atoms.extend(nb.atoms);
            na
        }
        GraphPattern::Opt(a, b) => {
            let mut na = collect(a, i);
            na.children.push(collect(b, i));
            na
        }
    }
}

fn attach(builder: &mut WdptBuilder, parent: usize, node: &Node) {
    for child in &node.children {
        let id = builder.child(parent, child.atoms.clone());
        attach(builder, id, child);
    }
}

/// The normal-form tree of `p`, projection-free, with no pattern check.
fn normal_form_tree(p: &GraphPattern, i: &mut Interner) -> Result<Wdpt, wdpt::core::WdptError> {
    let mut vars = BTreeSet::new();
    ref_vars(p, &mut vars);
    let root = collect(&opt_normal_form(p), i);
    let mut builder = WdptBuilder::new(root.atoms.clone());
    attach(&mut builder, 0, &root);
    builder.build(vars.into_iter().collect())
}

fn reference_to_wdpt(p: &GraphPattern, i: &mut Interner) -> Result<Wdpt, SparqlError> {
    if let Some(v) = ref_violation(p, &BTreeSet::new()) {
        return Err(SparqlError::NotWellDesigned(v));
    }
    normal_form_tree(p, i).map_err(|e| match e {
        wdpt::core::WdptError::NotWellDesigned(v) => SparqlError::NotWellDesigned(v),
        other => panic!("the reference's free tuple is the pattern's variables: {other}"),
    })
}

/// A random {AND, OPT} pattern over four variables and three predicates,
/// well-designed or not.
fn random_algebra(r: &mut Lcg, i: &mut Interner, depth: u32) -> GraphPattern {
    if depth == 0 || r.gen_range(0..3) == 0 {
        let mut term = |r: &mut Lcg| match r.gen_range(0..5) {
            4 => Term::Const(i.constant("c")),
            k => Term::Var(i.var(&format!("v{k}"))),
        };
        let (s, o) = (term(r), term(r));
        let p = Term::Const(i.constant(["p", "q", "r"][r.gen_range(0..3)]));
        return GraphPattern::Triple(TriplePattern { s, p, o });
    }
    let a = Box::new(random_algebra(r, i, depth - 1));
    let b = Box::new(random_algebra(r, i, depth - 1));
    if r.gen_bool(0.5) {
        GraphPattern::And(a, b)
    } else {
        GraphPattern::Opt(a, b)
    }
}

/// The one-walk translation equals the normal-form translation: the same
/// tree (node ids, atom order, free tuple) for a well-designed pattern, the
/// same refusal naming the same variable for an ill-designed one.
#[test]
fn one_walk_translation_equals_the_normal_form_reading() {
    let mut patterns: Vec<(Interner, GraphPattern)> = Vec::new();
    let mut r = Lcg::new(0x5A59_0004);
    for _ in 0..48 {
        let (core, opts) = random_pattern_spec(&mut r);
        let mut i = Interner::new();
        let pat = build_pattern(&mut i, core, &opts);
        patterns.push((i, pat));
    }
    for _ in 0..600 {
        let mut i = Interner::new();
        let depth = 1 + r.gen_range(0..5) as u32;
        let pat = random_algebra(&mut r, &mut i, depth);
        patterns.push((i, pat));
    }
    let mut i = Interner::new();
    let q = |i: &mut Interner, src: &str| parse_query(i, src).unwrap().pattern;
    for src in [
        "((?x, p, ?y) OPT (?x, q, ?z)) AND (?x, r, ?w)",
        "(?x, r, ?w) AND ((?x, p, ?y) OPT (?x, q, ?z))",
        "((?x, p, ?y) OPT (?x, a1, ?a)) AND ((?x, p2, ?y) OPT (?y, b1, ?b))",
        "(((?x, p, ?y) OPT (?x, a1, ?a)) OPT (?x, a2, ?c)) AND (((?y, p, ?x) OPT (?y, b1, ?b)) OPT (?y, b2, ?d))",
        "(?x, p, ?y) OPT (((?y, q, ?z) OPT (?z, r, ?u)) AND ((?y, s, ?w) OPT (?w, t, ?v)))",
        "(((?x, p, ?y) OPT (?y, q, ?z)) AND (?x, r, ?w)) AND ((?w, s, ?u) OPT (?u, t, ?v))",
        "((?x, p, ?y) OPT (?x, q, ?z)) AND (?z, r, ?w)",
    ] {
        let pat = q(&mut i, src);
        patterns.push((i.clone(), pat));
    }
    let (mut trees, mut refused) = (0, 0);
    for (mut i, pat) in patterns {
        let mut ri = i.clone();
        let expected = reference_to_wdpt(&pat, &mut ri);
        let got = pat.to_wdpt(None, &mut i);
        assert_eq!(got, expected, "{}", pat.display(&i));
        assert_eq!(
            pat.well_designedness_violation(),
            ref_violation(&pat, &BTreeSet::new()),
            "{}",
            pat.display(&i)
        );
        match got {
            Ok(_) => trees += 1,
            Err(_) => refused += 1,
        }
    }
    assert!(
        trees > 200 && refused > 100,
        "{trees} trees, {refused} refused"
    );
}

/// `AND` keeps its left operand's root atoms first and lists its right
/// operand's children first.
#[test]
fn and_over_opts_orders_atoms_left_first_and_children_right_first() {
    let mut i = Interner::new();
    let src = "(((?x, p, ?u) OPT (?x, a1, ?a)) OPT (?x, a2, ?c)) AND (((?y, p, ?x) OPT (?y, b1, ?b)) OPT (?y, b2, ?d))";
    let p = parse_query(&mut i, src)
        .unwrap()
        .pattern
        .to_wdpt(None, &mut i)
        .unwrap();
    let label = |t: usize| p.atoms(t)[0].display(&i);
    assert_eq!(p.atoms(0).len(), 2);
    assert!(label(0).starts_with("triple(?x"), "{}", label(0));
    let children: Vec<String> = p.children(0).iter().map(|&c| label(c)).collect();
    let preds: Vec<&str> = ["b1", "b2", "a1", "a2"].to_vec();
    for (child, pred) in children.iter().zip(&preds) {
        assert!(child.contains(pred), "{children:?}");
    }
    assert_eq!(p.children(0), &[1, 2, 3, 4]);
}

/// An OPT whose right side shares a variable with a conjunct outside it
/// through nothing on its left is ill-designed, although its normal-form
/// tree is connected: the pattern check cannot be left to the tree's.
#[test]
fn a_leak_the_tree_check_misses_is_refused() {
    let mut i = Interner::new();
    let src = "((?x, p, ?y) OPT (?x, q, ?z)) AND (?z, r, ?w)";
    let pat = parse_query(&mut i, src).unwrap().pattern;
    assert!(normal_form_tree(&pat, &mut i.clone()).is_ok());
    let z = i.var("z");
    assert_eq!(
        pat.to_wdpt(None, &mut i),
        Err(SparqlError::NotWellDesigned(z))
    );
}
