//! End-to-end parity between the two relation representations: a database
//! loaded from a snapshot (every relation a **lazy** columnar view) must be
//! **observationally identical** to the in-memory, insert-built (**owned**)
//! database it was encoded from — identical WDPT answer sets *and*
//! identical `nodes_expanded` work counts — at every thread count. The
//! engine cannot tell the representations apart.
//!
//! Kept to a single `#[test]` on purpose: the engine counters are
//! process-wide, so a second concurrently-running test in this binary
//! would corrupt the `nodes_expanded` comparison.

use wdpt_gen::{random_wdpt, Lcg};
use wdpt_model::{stats, CancelToken, Database, Interner, Mapping};
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
    let before = stats::snapshot();
    let mut answers =
        wdpt_core::try_evaluate_parallel_planned(p, db, threads, CancelToken::never(), None)
            .expect("the never token cannot cancel");
    let expanded = stats::snapshot().since(&before).nodes_expanded;
    answers.sort_unstable();
    (answers, expanded)
}

#[test]
fn lazy_and_owned_relations_answer_identically_with_identical_work() {
    for seed in 0..12u64 {
        let mut interner = Interner::new();
        let owned = random_ef_db(&mut interner, seed ^ 0xD1FF);
        let mut rng = Lcg::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
        let p = random_wdpt(&mut interner, 2 + (seed as usize % 5), &mut rng);

        let bytes = snapshot_to_vec_v2(&interner, &owned).unwrap();
        let (_, lazy) = decode_snapshot(&bytes).unwrap();
        assert!(
            lazy.relations().all(|(_, r)| r.is_lazy()),
            "seed {seed}: a snapshot load must start lazy"
        );
        assert!(
            owned.relations().all(|(_, r)| !r.is_lazy()),
            "seed {seed}: the insert-built database is the owned side"
        );

        for threads in [1usize, 8] {
            let (a_owned, n_owned) = run(&p, &owned, threads);
            let (a_lazy, n_lazy) = run(&p, &lazy, threads);
            assert_eq!(
                a_owned, a_lazy,
                "seed {seed}, {threads} threads: answer sets differ between owned and lazy"
            );
            assert_eq!(
                n_owned, n_lazy,
                "seed {seed}, {threads} threads: nodes_expanded differs between owned and lazy"
            );
        }
    }
}
