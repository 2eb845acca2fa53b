//! A reload builds nothing, and the first point query after it builds
//! nothing either: a relation is one sorted run, a probe that binds a
//! leading prefix — `(s, p, ?o)` — searches the run in place, and only a
//! probe that cannot use the prefix derives a row-id permutation, once per
//! column. A probe's builds are counted in the tally it is lent; what a
//! reload records in the registry is read in a window of its own.

use std::io::Cursor;
use wdpt_model::{Const, Database, Interner, ProbeTally, Relation};
use wdpt_obs::delta_scope;
use wdpt_sparql::TripleStore;
use wdpt_store::{
    apply_chain, bulk_load, content_hash, decode_snapshot, delta_to_vec, snapshot_to_vec_v2,
    ChainSymbols, LoadOptions,
};

const BASE: &str = "triple(s1, p, o1)\ntriple(s2, p, o1)\ntriple(s2, q, o2)\n\
                    triple(s3, q, o1)\nlabel(s1, first)\n";
const UPDATE: &str = "triple(s4, p, o1)\ntriple(s1, q, o3)\n";

fn load(i: &mut Interner, text: &str) -> Database {
    let (db, _) = bulk_load(i, &mut Cursor::new(text), LoadOptions::default()).unwrap();
    db
}

fn named_rows(rel: &Relation, i: &Interner) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = rel
        .tuples()
        .map(|t| t.iter().map(|c| i.const_name(*c).to_owned()).collect())
        .collect();
    rows.sort();
    rows
}

#[test]
fn a_reload_and_the_first_point_query_after_it_build_nothing() {
    // Base snapshot and a delta on top of it, as files would hold them.
    let mut base_i = Interner::new();
    let base_db = load(&mut base_i, BASE);
    let base_bytes = snapshot_to_vec_v2(&base_i, &base_db).unwrap();
    let mut new_i = base_i.clone();
    let mut new_db = base_db.clone();
    let add = load(&mut new_i, UPDATE);
    for (pred, rel) in add.relations() {
        for t in rel.tuples() {
            new_db.insert(pred, t.to_vec());
        }
    }
    let delta = delta_to_vec(
        content_hash(&base_bytes),
        &base_i,
        &base_db,
        &new_i,
        &new_db,
    )
    .unwrap();
    let mut fresh_i = Interner::new();
    let fresh = load(&mut fresh_i, &format!("{BASE}{UPDATE}"));
    let fresh_triple = TripleStore::pred(&mut fresh_i);
    let expected = named_rows(fresh.relation(fresh_triple).unwrap(), &fresh_i);

    // Installed into an empty interner (a cold start, a follower), which
    // adopts the file's dictionary; into one that already holds some of
    // the names under other ids, so the base's every cell is translated and
    // every run re-sorted; and into one that extends the base's interner
    // but holds a name of its own where the delta's symbols would go, so
    // only the base keeps its ids.
    let mut taken = Interner::new();
    for name in ["o3", "s4", "unrelated", "o1"] {
        taken.constant(name);
    }
    let mut past_base = base_i.clone();
    past_base.constant("unrelated");
    for (mut live, base_kept, chain_kept) in [
        (Interner::new(), true, true),
        (taken, false, false),
        (past_base, true, false),
    ] {
        let (committed, work) = delta_scope(|| {
            let pair = decode_snapshot(&base_bytes).unwrap();
            let (mut symbols, db) = ChainSymbols::for_base(|| &live, pair).unwrap();
            let hash = content_hash(&base_bytes);
            let deltas = std::slice::from_ref(&delta);
            let (db, _) = apply_chain(|| &live, &mut symbols, hash, db, deltas).unwrap();
            symbols.commit(&mut live, db)
        });
        let (base_map, _) = committed.base.as_ref().expect("a base decoded in full");
        assert_eq!(base_map.is_identity(), base_kept, "base ids kept");
        assert_eq!(committed.map.is_identity(), chain_kept, "chain ids kept");
        assert_eq!(
            committed.added.predicate_count(),
            1,
            "relations the delta merged"
        );
        assert_eq!(
            work.counter("db.index_builds"),
            0,
            "the reload built something"
        );
        let db = committed.db;
        let triple = TripleStore::pred(&mut live);
        let rel = db.relation(triple).unwrap();

        // The first point query: subject and predicate bound.
        let (s2, p, o1) = (live.constant("s2"), live.constant("p"), live.constant("o1"));
        let mut work = ProbeTally::default();
        let rows = rel.probe([(0, s2), (1, p)], &mut work);
        assert_eq!(rows.len(), 1, "matches, not candidates");
        let hits: Vec<Const> = rows.map(|t| t[2]).collect();
        assert_eq!(hits, [o1]);
        assert_eq!(work.index_builds, 0, "a prefix probe built something");

        // A probe without the leading column builds the permutations of
        // the two columns it consults, once.
        let pattern = [(1, p), (2, o1)];
        let mut work = ProbeTally::default();
        let mut hits: Vec<Const> = (rel.probe(pattern, &mut work))
            .filter(|t| t[1] == p && t[2] == o1)
            .map(|t| t[0])
            .collect();
        hits.sort_by_key(|c| live.const_name(*c).to_owned());
        assert_eq!(work.index_builds, 2);
        let names: Vec<&str> = hits.iter().map(|c| live.const_name(*c)).collect();
        assert_eq!(names, ["s1", "s2", "s4"]);
        let mut again = ProbeTally::default();
        rel.probe(pattern, &mut again).count();
        assert_eq!(again.index_builds, 0);

        // And the whole relation equals a from-scratch text load of base+delta.
        assert_eq!(named_rows(rel, &live), expected);
    }
}
