//! End-to-end parity between the two ways a database comes to be: one
//! loaded from a snapshot (every relation one decoded run) must be
//! **observationally identical** to the in-memory, insert-built database
//! (folded runs plus pending rows) it was encoded from — identical WDPT
//! answer sets *and* identical `nodes_expanded` work counts — at every
//! thread count. The engine cannot tell them apart. The work counts are
//! each run's own tally.

use wdpt_gen::{random_wdpt, Lcg};
use wdpt_model::{CancelToken, Database, Interner, Mapping};
use wdpt_store::{decode_snapshot, snapshot_to_vec_v2};

/// A random database over the binary predicates `e` and `f` that
/// [`random_wdpt`] queries mention (plus self-loops so root nodes match).
fn random_ef_db(interner: &mut Interner, seed: u64) -> Database {
    let mut rng = Lcg::new(seed);
    let e = interner.pred("e");
    let f = interner.pred("f");
    let dom: Vec<_> = (0..12)
        .map(|k| interner.constant(&format!("n{k}")))
        .collect();
    let mut db = Database::new();
    for &c in dom.iter().take(6) {
        db.insert(e, vec![c, c]); // self-loops: random_wdpt roots demand them
    }
    for _ in 0..80 {
        let a = dom[rng.gen_range(0..dom.len())];
        let b = dom[rng.gen_range(0..dom.len())];
        if rng.gen_bool(0.7) {
            db.insert(e, vec![a, b]);
        } else {
            db.insert(f, vec![a, b]);
        }
    }
    db
}

fn run(p: &wdpt_core::Wdpt, db: &Database, threads: usize) -> (Vec<Mapping>, u64) {
    let (answers, tally) =
        wdpt_core::evaluate_rows(p, db, threads, CancelToken::never(), None, usize::MAX);
    let mut answers = answers
        .expect("the never token cannot cancel")
        .into_mappings();
    answers.sort_unstable();
    (answers, tally.work.nodes_expanded)
}

#[test]
fn loaded_and_insert_built_databases_answer_identically_with_identical_work() {
    for seed in 0..12u64 {
        let mut interner = Interner::new();
        let built = random_ef_db(&mut interner, seed ^ 0xD1FF);
        let mut rng = Lcg::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
        let p = random_wdpt(&mut interner, 2 + (seed as usize % 5), &mut rng);

        let bytes = snapshot_to_vec_v2(&interner, &built).unwrap();
        let (_, loaded) = decode_snapshot(&bytes).unwrap();

        for threads in [1usize, 8] {
            let (a_built, n_built) = run(&p, &built, threads);
            let (a_loaded, n_loaded) = run(&p, &loaded, threads);
            assert_eq!(
                a_built, a_loaded,
                "seed {seed}, {threads} threads: answer sets differ between built and loaded"
            );
            assert_eq!(
                n_built, n_loaded,
                "seed {seed}, {threads} threads: nodes_expanded differs between built and loaded"
            );
        }
    }
}
