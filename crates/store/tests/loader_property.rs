//! Randomized property tests for the parallel bulk loader.
//!
//! Two properties, each over LCG-randomized inputs (fixed seed, so runs
//! are reproducible):
//!
//! 1. **Thread independence**: for random thread counts and chunk sizes,
//!    the snapshot bytes equal the `threads = 1` bytes on the same input.
//! 2. **Serial equivalence**: the loaded database displays identically to
//!    the serial `read_text_database` oracle on the same input.

use std::io::Cursor;
use wdpt_gen::Lcg;
use wdpt_model::Interner;
use wdpt_store::{bulk_load, read_text_database, snapshot_to_vec_v2, LoadOptions};

/// A random mixed-shape facts dataset: several predicates of differing
/// arities, quoted constants with escapes, comments, blank lines, and
/// multi-line atoms — the shapes that stress chunk balancing.
fn random_facts(r: &mut Lcg) -> String {
    let preds = ["edge", "node", "tag", "wt"];
    let arities = [2usize, 1, 3, 2];
    let mut out = String::new();
    let n = 50 + r.gen_range(0..150);
    for _ in 0..n {
        match r.gen_range(0..12) {
            0 => out.push('\n'),
            // Comment lines may contain unbalanced parens and quotes: both
            // loaders skip them whole between atoms, never feeding them to
            // the balance scanner.
            1 => out.push_str("# comment with ( and \" left open\n"),
            _ => {
                let which = r.gen_range(0..preds.len());
                out.push_str(preds[which]);
                out.push('(');
                for a in 0..arities[which] {
                    if a > 0 {
                        // Sometimes break the argument list across lines.
                        out.push_str(if r.gen_bool(0.2) { ",\n  " } else { ", " });
                    }
                    if r.gen_bool(0.3) {
                        // A quoted constant, sometimes with escapes.
                        out.push('"');
                        match r.gen_range(0..4) {
                            0 => out.push_str("plain"),
                            1 => out.push_str("q\\\"uote"),
                            2 => out.push_str("par(\\u0029"),
                            _ => out.push_str("back\\\\slash"),
                        }
                        out.push('"');
                    } else {
                        let v = r.gen_range(0..30);
                        out.push('c');
                        out.push_str(&v.to_string());
                    }
                }
                out.push_str(")\n");
            }
        }
    }
    out
}

/// A random N-Triples dataset with a small universe (lots of duplicate
/// symbols and some duplicate triples).
fn random_nt(r: &mut Lcg) -> String {
    let mut out = String::new();
    let n = 100 + r.gen_range(0..400);
    for _ in 0..n {
        let s = r.gen_range(0..40);
        let p = r.gen_range(0..5);
        let o = r.gen_range(0..25);
        out.push_str(&format!("<s{s}> <p{p}> <o{o}> .\n"));
    }
    out
}

fn snapshot_bytes(text: &str, opts: LoadOptions) -> (Vec<u8>, String) {
    let mut i = Interner::new();
    let (db, _) = bulk_load(&mut i, &mut Cursor::new(text.as_bytes()), opts).unwrap();
    (snapshot_to_vec_v2(&i, &db).unwrap(), db.display(&i))
}

#[test]
fn random_inputs_load_identically_at_any_thread_count() {
    let mut r = Lcg::new(0x5EED);
    for round in 0..20 {
        let text = if round % 2 == 0 {
            random_nt(&mut r)
        } else {
            random_facts(&mut r)
        };
        let (reference, _) = snapshot_bytes(
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
            let (bytes, _) = snapshot_bytes(&text, opts);
            assert_eq!(
                reference, bytes,
                "round {round}: {opts:?} diverged from threads=1"
            );
        }
    }
}

#[test]
fn random_inputs_match_the_serial_oracle() {
    let mut r = Lcg::new(0xFACADE);
    for round in 0..20 {
        let text = if round % 2 == 0 {
            random_nt(&mut r)
        } else {
            random_facts(&mut r)
        };
        let opts = LoadOptions {
            threads: 1 + r.gen_range(0..6),
            chunk_lines: 1 + r.gen_range(0..10),
        };
        let (_, parallel_display) = snapshot_bytes(&text, opts);

        let mut oracle_i = Interner::new();
        let oracle_db =
            read_text_database(&mut oracle_i, &mut Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(
            parallel_display,
            oracle_db.display(&oracle_i),
            "round {round}: parallel load disagrees with the serial loader"
        );
    }
}
