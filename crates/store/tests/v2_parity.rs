//! End-to-end parity: a database loaded from a v2 (columnar varint)
//! snapshot must be **observationally identical** to the same database
//! loaded from a v1 snapshot — identical WDPT answer sets *and* identical
//! `nodes_expanded` work counts — at every thread count. The engine cannot
//! tell the encodings apart.
//!
//! Kept to a single `#[test]` on purpose: the engine counters are
//! process-wide, so a second concurrently-running test in this binary
//! would corrupt the `nodes_expanded` comparison.

use wdpt_gen::{random_wdpt, Lcg};
use wdpt_model::{stats, CancelToken, Database, Interner, Mapping};
use wdpt_store::{decode_snapshot, snapshot_to_vec, snapshot_to_vec_v2};

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
    let before = stats::snapshot();
    let mut answers =
        wdpt_core::try_evaluate_parallel_planned(p, db, threads, CancelToken::never(), None)
            .expect("the never token cannot cancel");
    let expanded = stats::snapshot().since(&before).nodes_expanded;
    answers.sort_unstable();
    (answers, expanded)
}

#[test]
fn v1_and_v2_loads_answer_identically_with_identical_work() {
    for seed in 0..12u64 {
        let mut interner = Interner::new();
        let db = random_ef_db(&mut interner, seed ^ 0xD1FF);
        let mut rng = Lcg::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
        let p = random_wdpt(&mut interner, 2 + (seed as usize % 5), &mut rng);

        let v1 = snapshot_to_vec(&interner, &db).unwrap();
        let v2 = snapshot_to_vec_v2(&interner, &db).unwrap();
        let (_, db_v1) = decode_snapshot(&v1).unwrap();
        let (_, db_v2) = decode_snapshot(&v2).unwrap();
        assert!(
            db_v2.relations().all(|(_, r)| r.is_lazy()),
            "seed {seed}: v2 load must start lazy"
        );

        for threads in [1usize, 8] {
            let (a1, n1) = run(&p, &db_v1, threads);
            let (a2, n2) = run(&p, &db_v2, threads);
            assert_eq!(
                a1, a2,
                "seed {seed}, {threads} threads: answer sets differ between v1 and v2 loads"
            );
            assert_eq!(
                n1, n2,
                "seed {seed}, {threads} threads: nodes_expanded differs between v1 and v2 loads"
            );
            // Same work as evaluating the never-serialized original.
            let (a0, n0) = run(&p, &db, threads);
            assert_eq!(a0, a1, "seed {seed}, {threads} threads: original differs");
            assert_eq!(
                n0, n1,
                "seed {seed}, {threads} threads: original work differs"
            );
        }
    }
}
