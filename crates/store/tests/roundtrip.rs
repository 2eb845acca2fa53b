//! Property test: a random `(Interner, Database)` pair survives a snapshot
//! round trip losslessly — relations, tuples, posting lengths, active
//! domain, fresh counter, and every term name — and the decoded pair passes
//! the deep verification `wdpt-store verify` runs. So does one that reaches
//! the decoder as a base snapshot plus a chain of deltas.

use wdpt_gen::Lcg;
use wdpt_model::{Database, Interner, ProbeTally, SymbolSpace};
use wdpt_store::{
    content_hash, decode_chain, decode_snapshot, delta_to_vec, snapshot_to_vec_v2,
    verify_database_deep,
};

/// Builds a random database: a few relations of mixed arity (1–4), tuples
/// drawn from a bounded constant pool (so duplicates and shared constants
/// happen), plus stray interned symbols that no tuple mentions (vars, unused
/// constants and predicates must round-trip too).
fn random_instance(seed: u64) -> (Interner, Database) {
    let mut rng = Lcg::new(seed);
    let mut interner = Interner::new();

    let n_consts = 2 + rng.gen_range(0..40);
    let consts: Vec<_> = (0..n_consts)
        .map(|i| interner.constant(&format!("c{i}")))
        .collect();
    // Symbols outside any relation, interleaved with use.
    for i in 0..rng.gen_range(0..5) {
        interner.var(&format!("v{i}"));
    }
    for i in 0..rng.gen_range(0..3) {
        interner.pred(&format!("unused{i}"));
    }
    // A few names with spaces and unicode, as quoted constants produce.
    interner.constant("with space");
    interner.constant("caf\u{00E9}\u{2603}");

    let mut db = Database::new();
    let n_rels = rng.gen_range(0..5);
    for r in 0..n_rels {
        let pred = interner.pred(&format!("rel{r}"));
        let arity = 1 + rng.gen_range(0..4);
        let rows = rng.gen_range(0..60);
        for _ in 0..rows {
            let tuple: Vec<_> = (0..arity)
                .map(|_| consts[rng.gen_range(0..consts.len())])
                .collect();
            db.insert(pred, tuple); // duplicates silently dropped
        }
        if rng.gen_bool(0.5) {
            // Half the relations have indexes built pre-snapshot; the
            // snapshot must not care which.
            if let Some(rel) = db.relation(pred) {
                rel.build_all_indexes();
            }
        }
    }
    // Fresh names bump the counter, which must round-trip.
    for _ in 0..rng.gen_range(0..4) {
        interner.fresh_var("f");
    }
    (interner, db)
}

/// Grows the pair by one random insert-only step: a few new constants,
/// sometimes a new relation, rows into old and new relations alike (some of
/// them repeats, which `insert` drops).
fn grow(rng: &mut Lcg, step: usize, interner: &mut Interner, db: &mut Database) {
    let mut consts: Vec<_> = db.active_domain().iter().copied().collect();
    for k in 0..1 + rng.gen_range(0..6) {
        consts.push(interner.constant(&format!("new{step}_{k}")));
    }
    let mut targets: Vec<_> = db.relations().map(|(p, r)| (p, r.arity())).collect();
    targets.sort_unstable();
    if targets.is_empty() || rng.gen_bool(0.3) {
        let pred = interner.pred(&format!("grown{step}"));
        targets.push((pred, 1 + rng.gen_range(0..3)));
    }
    for _ in 0..1 + rng.gen_range(0..40) {
        let (pred, arity) = targets[rng.gen_range(0..targets.len())];
        let tuple = (0..arity).map(|_| consts[rng.gen_range(0..consts.len())]);
        db.insert(pred, tuple.collect());
    }
    if rng.gen_bool(0.5) {
        interner.fresh_var("g");
    }
}

fn assert_equal(seed: u64, a_int: &Interner, a_db: &Database, b_int: &Interner, b_db: &Database) {
    assert_eq!(a_int.len(), b_int.len(), "seed {seed}: symbol count");
    assert_eq!(
        a_int.fresh_counter(),
        b_int.fresh_counter(),
        "seed {seed}: fresh counter"
    );
    let a_syms: Vec<(SymbolSpace, &str)> = a_int.symbols().collect();
    let b_syms: Vec<(SymbolSpace, &str)> = b_int.symbols().collect();
    assert_eq!(a_syms, b_syms, "seed {seed}: dictionary");

    assert_eq!(a_db.size(), b_db.size(), "seed {seed}: tuple count");
    assert_eq!(
        a_db.active_domain(),
        b_db.active_domain(),
        "seed {seed}: active domain"
    );
    assert_eq!(
        a_db.predicate_count(),
        b_db.predicate_count(),
        "seed {seed}: relation count"
    );
    for (pred, rel) in a_db.relations() {
        let brel = b_db
            .relation(pred)
            .unwrap_or_else(|| panic!("seed {seed}: relation {pred:?} missing after reload"));
        assert_eq!(rel.arity(), brel.arity(), "seed {seed}: arity");
        let mut at: Vec<_> = rel.tuples().collect();
        let mut bt: Vec<_> = brel.tuples().collect();
        at.sort_unstable();
        bt.sort_unstable();
        assert_eq!(at, bt, "seed {seed}: tuples of {pred:?}");
        // Probes answer identically to a fresh build.
        for col in 0..rel.arity() {
            for c in a_db.active_domain() {
                let mut tally = ProbeTally::default();
                assert_eq!(
                    rel.probe([(col, *c)], &mut tally).len(),
                    brel.probe([(col, *c)], &mut tally).len(),
                    "seed {seed}: posting length col {col}"
                );
            }
        }
    }
}

#[test]
fn random_databases_round_trip_losslessly() {
    for seed in 0..40u64 {
        let (interner, db) = random_instance(seed ^ 0x5EED_BA5E);
        let bytes = snapshot_to_vec_v2(&interner, &db).unwrap();
        let (i2, db2) =
            decode_snapshot(&bytes).unwrap_or_else(|e| panic!("seed {seed}: decode failed: {e}"));
        assert_equal(seed, &interner, &db, &i2, &db2);
        verify_database_deep(&db2).unwrap_or_else(|e| panic!("seed {seed}: deep verify: {e}"));

        // And the round trip is a fixed point: re-encoding the decoded pair
        // reproduces the bytes exactly.
        assert_eq!(
            bytes,
            snapshot_to_vec_v2(&i2, &db2).unwrap(),
            "seed {seed}: re-encode differs"
        );

        // The chain axis: the same pair grown by one to three random
        // insert-only steps, each step a delta file. The chain decodes to
        // the directly built database, tuple for tuple, and re-encodes to
        // the bytes a snapshot of the direct build has.
        let mut rng = Lcg::new(seed ^ 0xC4A1);
        let (mut head_i, mut head_db, mut head_hash) = (i2, db2, content_hash(&bytes));
        let mut deltas: Vec<Vec<u8>> = Vec::new();
        for step in 0..1 + rng.gen_range(0..3) {
            let (mut next_i, mut next_db) = (head_i.clone(), head_db.clone());
            grow(&mut rng, step, &mut next_i, &mut next_db);
            let delta = delta_to_vec(head_hash, &head_i, &head_db, &next_i, &next_db)
                .unwrap_or_else(|e| panic!("seed {seed}: delta {step}: {e}"));
            (head_i, head_db, head_hash) = (next_i, next_db, content_hash(&delta));
            deltas.push(delta);
        }
        let ((chain_i, chain_db), _) = decode_chain(&bytes, &deltas)
            .unwrap_or_else(|(_, e)| panic!("seed {seed}: chain of {}: {e}", deltas.len()));
        assert_equal(seed, &head_i, &head_db, &chain_i, &chain_db);
        verify_database_deep(&chain_db).unwrap_or_else(|e| panic!("seed {seed}: chain: {e}"));
        assert_eq!(
            snapshot_to_vec_v2(&chain_i, &chain_db).unwrap(),
            snapshot_to_vec_v2(&head_i, &head_db).unwrap(),
            "seed {seed}: the applied chain re-encodes differently from the direct build"
        );
    }
}

#[test]
fn queries_answer_identically_after_reload() {
    // Beyond structural equality: probe each column on both sides.
    let (mut interner, db) = random_instance(0xABCD);
    let bytes = snapshot_to_vec_v2(&interner, &db).unwrap();
    let (_, db2) = decode_snapshot(&bytes).unwrap();
    let consts: Vec<_> = db.active_domain().iter().copied().collect();
    for (pred, rel) in db.relations() {
        let rel2 = db2.relation(pred).unwrap();
        for c in consts.iter().take(10) {
            for col in 0..rel.arity() {
                let mut tally = ProbeTally::default();
                let mut a: Vec<_> = rel.probe([(col, *c)], &mut tally).collect();
                let mut b: Vec<_> = rel2.probe([(col, *c)], &mut tally).collect();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "probe col {col}");
            }
        }
    }
    // Loading must not disturb the interner's ability to mint fresh names.
    let f1 = interner.fresh_var("q");
    let (mut i2, _) = decode_snapshot(&bytes).unwrap();
    let f2 = i2.fresh_var("q");
    assert_eq!(interner.name(f1.0), i2.name(f2.0));
}
