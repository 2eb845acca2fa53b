//! Randomized property tests for the parallel bulk loader.
//!
//! Two properties, each over LCG-randomized inputs (fixed seed, so runs
//! are reproducible):
//!
//! 1. **Thread independence**: for random thread counts and chunk sizes,
//!    the snapshot bytes equal the `threads = 1` bytes on the same input.
//! 2. **Generator equivalence**: the loaded database holds, by name,
//!    exactly the facts the generator recorded as it wrote the text — an
//!    oracle that shares no code with either parser.

use std::collections::BTreeSet;
use std::io::Cursor;
use wdpt_gen::Lcg;
use wdpt_model::{Database, Interner};
use wdpt_store::{bulk_load, snapshot_to_vec_v2, LoadOptions};

/// Facts by name: the predicate and the decoded arguments.
type Facts = BTreeSet<(String, Vec<String>)>;

/// Whitespace between atoms and arguments: usually ASCII, sometimes a
/// Unicode space (U+00A0, U+3000) that the facts grammar also skips.
fn space(r: &mut Lcg) -> &'static str {
    match r.gen_range(0..10) {
        0 => "\u{00A0}",
        1 => "\u{3000}",
        _ => " ",
    }
}

/// A random mixed-shape facts dataset: several predicates of differing
/// arities, quoted constants with escapes, comments, blank lines, and
/// multi-line atoms — the shapes that stress chunk balancing. Returns the
/// text and the facts it states.
fn random_facts(r: &mut Lcg) -> (String, Facts) {
    let preds = ["edge", "node", "tag", "wt"];
    let arities = [2usize, 1, 3, 2];
    let mut out = String::new();
    let mut facts = Facts::new();
    let n = 50 + r.gen_range(0..150);
    for _ in 0..n {
        match r.gen_range(0..12) {
            0 => out.push('\n'),
            // Comment lines may contain unbalanced parens and quotes: the
            // loader skips them whole between atoms, never feeding them to
            // the balance scanner. (The last atom may not have ended its
            // line.)
            1 => out.push_str("\n# comment with ( and \" left open\n"),
            _ => {
                let which = r.gen_range(0..preds.len());
                out.push_str(preds[which]);
                out.push('(');
                let mut args = Vec::new();
                for a in 0..arities[which] {
                    if a > 0 {
                        // Sometimes break the argument list across lines.
                        out.push(',');
                        out.push_str(if r.gen_bool(0.2) { "\n  " } else { space(r) });
                    }
                    if r.gen_bool(0.3) {
                        // A quoted constant, sometimes with escapes.
                        let (written, decoded) = match r.gen_range(0..4) {
                            0 => ("plain", "plain"),
                            1 => ("q\\\"uote", "q\"uote"),
                            2 => ("par(\\u0029", "par()"),
                            _ => ("back\\\\slash", "back\\slash"),
                        };
                        out.push('"');
                        out.push_str(written);
                        out.push('"');
                        args.push(decoded.to_owned());
                    } else {
                        let v = format!("c{}", r.gen_range(0..30));
                        out.push_str(&v);
                        args.push(v);
                    }
                }
                out.push(')');
                // Sometimes a second atom shares the line after a Unicode
                // space.
                let sep = if r.gen_bool(0.2) { space(r) } else { "\n" };
                out.push_str(sep);
                facts.insert((preds[which].to_owned(), args));
            }
        }
    }
    (out, facts)
}

/// A random N-Triples dataset with a small universe (lots of duplicate
/// symbols and some duplicate triples), with the facts it states.
fn random_nt(r: &mut Lcg) -> (String, Facts) {
    let mut out = String::new();
    let mut facts = Facts::new();
    let n = 100 + r.gen_range(0..400);
    for _ in 0..n {
        let s = format!("s{}", r.gen_range(0..40));
        let p = format!("p{}", r.gen_range(0..5));
        let o = format!("o{}", r.gen_range(0..25));
        out.push_str(&format!("<{s}> <{p}> <{o}> .\n"));
        facts.insert(("triple".to_owned(), vec![s, p, o]));
    }
    (out, facts)
}

fn random_input(r: &mut Lcg, round: usize) -> (String, Facts) {
    if round.is_multiple_of(2) {
        random_nt(r)
    } else {
        random_facts(r)
    }
}

fn named_facts(i: &Interner, db: &Database) -> Facts {
    db.relations()
        .flat_map(|(p, rel)| {
            rel.tuples().map(move |t| {
                let args = t.iter().map(|c| i.const_name(*c).to_owned());
                (i.pred_name(p).to_owned(), args.collect())
            })
        })
        .collect()
}

fn snapshot_bytes(text: &str, opts: LoadOptions) -> Vec<u8> {
    let mut i = Interner::new();
    let (db, _) = bulk_load(&mut i, &mut Cursor::new(text.as_bytes()), opts).unwrap();
    snapshot_to_vec_v2(&i, &db).unwrap()
}

#[test]
fn random_inputs_load_identically_at_any_thread_count() {
    let mut r = Lcg::new(0x5EED);
    for round in 0..20 {
        let (text, _) = random_input(&mut r, round);
        let reference = snapshot_bytes(
            &text,
            LoadOptions {
                threads: 1,
                chunk_lines: 64,
            },
        );
        for _ in 0..3 {
            let opts = LoadOptions {
                threads: 1 + r.gen_range(0..8),
                chunk_lines: 1 + r.gen_range(0..40),
            };
            assert_eq!(
                reference,
                snapshot_bytes(&text, opts),
                "round {round}: {opts:?} diverged from threads=1"
            );
        }
    }
}

#[test]
fn random_inputs_load_the_facts_the_generator_wrote() {
    let mut r = Lcg::new(0xFACADE);
    for round in 0..20 {
        let (text, expected) = random_input(&mut r, round);
        let opts = LoadOptions {
            threads: 1 + r.gen_range(0..6),
            chunk_lines: 1 + r.gen_range(0..10),
        };
        let mut i = Interner::new();
        let (db, _) = bulk_load(&mut i, &mut Cursor::new(text.as_bytes()), opts).unwrap();
        assert_eq!(
            named_facts(&i, &db),
            expected,
            "round {round}: the load disagrees with the generated facts"
        );
    }
}
