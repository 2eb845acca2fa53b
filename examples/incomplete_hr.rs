//! WDPTs over an arbitrary relational schema — the paper's core thesis
//! that optional matching is useful far beyond RDF.
//!
//! An HR database with incomplete records: every employee has a name and a
//! department; salary bands, managers, and office assignments exist only
//! for some. A plain CQ joining all four relations silently drops every
//! employee with a missing field; the WDPT returns everyone, enriched with
//! whatever is known — and projection plus the maximal-mapping semantics
//! answer "who has the most complete record".
//!
//! Run with: `cargo run --example incomplete_hr`

use wdpt::core::{evaluate, evaluate_max, partial_eval_decide, Engine, Wdpt, WdptBuilder};
use wdpt::cq::ConjunctiveQuery;
use wdpt::model::parse::{parse_atoms, parse_database};
use wdpt::{Interner, Mapping};

fn main() {
    let mut i = Interner::new();
    let db = parse_database(
        &mut i,
        r#"
        works_in(ada, verification)   works_in(grace, compilers)
        works_in(edsger, verification) works_in(alan, crypto)
        salary(ada, band9)            salary(grace, band8)
        manager(ada, grace)           manager(edsger, ada)
        office(grace, "E-1.14")       office(alan, "C-0.07")
        "#,
    )
    .unwrap();
    println!("HR database ({} facts):\n{}\n", db.size(), db.display(&i));

    // The rigid CQ: requires ALL optional fields to be present.
    let cq = ConjunctiveQuery::new(
        vec![
            i.var("emp"),
            i.var("dept"),
            i.var("band"),
            i.var("boss"),
            i.var("room"),
        ],
        parse_atoms(
            &mut i,
            "works_in(?emp,?dept) salary(?emp,?band) manager(?emp,?boss) office(?emp,?room)",
        )
        .unwrap(),
    );
    let rigid = evaluate(&Wdpt::from_cq(&cq), &db);
    println!(
        "rigid CQ (join all four relations): {} answers — everyone with a gap is lost",
        rigid.len()
    );
    assert!(rigid.is_empty());

    // The WDPT: mandatory core + three independent optional branches.
    let root = parse_atoms(&mut i, "works_in(?emp,?dept)").unwrap();
    let mut b = WdptBuilder::new(root);
    b.child(0, parse_atoms(&mut i, "salary(?emp,?band)").unwrap());
    b.child(0, parse_atoms(&mut i, "manager(?emp,?boss)").unwrap());
    b.child(0, parse_atoms(&mut i, "office(?emp,?room)").unwrap());
    let free: Vec<_> = ["emp", "dept", "band", "boss", "room"]
        .iter()
        .map(|n| i.var(n))
        .collect();
    let p = b.build(free).unwrap();

    let answers = evaluate(&p, &db);
    println!(
        "\nWDPT with optional salary/manager/office: {} answers:",
        answers.len()
    );
    for a in &answers {
        println!("  {}", a.display(&i));
    }
    assert_eq!(answers.len(), 4); // one per employee

    // Projection + maximal-mapping semantics: most complete records first.
    let proj: Vec<_> = ["dept", "band", "boss"].iter().map(|n| i.var(n)).collect();
    let mut b = WdptBuilder::new(parse_atoms(&mut i, "works_in(?emp,?dept)").unwrap());
    b.child(0, parse_atoms(&mut i, "salary(?emp,?band)").unwrap());
    b.child(0, parse_atoms(&mut i, "manager(?emp,?boss)").unwrap());
    b.child(0, parse_atoms(&mut i, "office(?emp,?room)").unwrap());
    let p_proj = b.build(proj).unwrap();
    let max = evaluate_max(&p_proj, &db);
    println!("\nmaximal-mapping semantics over (dept, band, boss):");
    for a in &max {
        println!("  {}", a.display(&i));
    }

    // Partial answers: "could the verification department have a band-9?"
    let probe = Mapping::from_pairs(vec![
        (i.var("dept"), i.constant("verification")),
        (i.var("band"), i.constant("band9")),
    ]);
    let possible = partial_eval_decide(&p_proj, &db, &probe, Engine::Tw(1));
    println!("\nPARTIAL-EVAL {{dept ↦ verification, band ↦ band9}}: {possible}");
    assert!(possible);
    println!("\nincomplete_hr: done ✓");
}
