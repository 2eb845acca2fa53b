//! A reload builds nothing, and the first point query after it builds
//! nothing either: a relation is one sorted run, a probe that binds a
//! leading prefix — `(s, p, ?o)` — searches the run in place, and only a
//! probe that cannot use the prefix derives a row-id permutation, once per
//! column.
//!
//! Kept to a single `#[test]` on purpose: the index-build counter is
//! process-wide, and a sibling test evaluating queries in this binary
//! would leak builds into the window measured here.

use wdpt_model::{Const, Interner, Relation};
use wdpt_obs::delta_scope;
use wdpt_serve::{merge_snapshot, parse_dataset};
use wdpt_sparql::TripleStore;
use wdpt_store::{content_hash, decode_with_deltas, delta_to_vec, snapshot_to_vec_v2};

const BASE: &str = "triple(s1, p, o1)\ntriple(s2, p, o1)\ntriple(s2, q, o2)\n\
                    triple(s3, q, o1)\nlabel(s1, first)\n";
const UPDATE: &str = "triple(s4, p, o1)\ntriple(s1, q, o3)\n";

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
    let base_db = parse_dataset(&mut base_i, BASE).unwrap();
    let base_bytes = snapshot_to_vec_v2(&base_i, &base_db).unwrap();
    let mut new_i = base_i.clone();
    let mut new_db = base_db.clone();
    let add = parse_dataset(&mut new_i, UPDATE).unwrap();
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
    let fresh = parse_dataset(&mut fresh_i, &format!("{BASE}{UPDATE}")).unwrap();
    let fresh_triple = TripleStore::pred(&mut fresh_i);
    let expected = named_rows(fresh.relation(fresh_triple).unwrap(), &fresh_i);

    // Installed into an empty interner (a cold start, a follower) and into
    // one that already holds some of the names under other ids, so the
    // merge translates every cell and re-sorts every run.
    let mut taken = Interner::new();
    for name in ["o3", "s4", "unrelated", "o1"] {
        taken.constant(name);
    }
    for (mut live, remapped) in [(Interner::new(), 0), (taken, 1)] {
        let (db, work) = delta_scope(|| {
            let pair = decode_with_deltas(&base_bytes, std::slice::from_ref(&delta)).unwrap();
            merge_snapshot(&mut live, pair)
        });
        assert_eq!(work.counter("serve.store.snapshot_remapped"), remapped);
        assert_eq!(work.counter("store.delta.relations_merged"), 1);
        assert_eq!(
            work.counter("db.index_builds"),
            0,
            "the reload built something"
        );
        let triple = TripleStore::pred(&mut live);
        let rel = db.relation(triple).unwrap();

        // The first point query: subject and predicate bound.
        let (s2, p, o1) = (live.constant("s2"), live.constant("p"), live.constant("o1"));
        let point = [Some(s2), Some(p), None];
        let (hits, work) = delta_scope(|| rel.matching(&point).map(|t| t[2]).collect::<Vec<_>>());
        assert_eq!(hits, [o1]);
        assert_eq!(
            work.counter("db.index_builds"),
            0,
            "a prefix probe built something"
        );
        assert_eq!(
            work.counter("db.tuples_scanned"),
            1,
            "matches, not candidates"
        );

        // A probe without the leading column builds the permutations of
        // the two columns it consults, once.
        let pattern = [None, Some(p), Some(o1)];
        let (hits, work) = delta_scope(|| {
            let mut hits: Vec<Const> = rel.matching(&pattern).map(|t| t[0]).collect();
            hits.sort_by_key(|c| live.const_name(*c).to_owned());
            hits
        });
        assert_eq!(work.counter("db.index_builds"), 2);
        let names: Vec<&str> = hits.iter().map(|c| live.const_name(*c)).collect();
        assert_eq!(names, ["s1", "s2", "s4"]);
        let (_, work) = delta_scope(|| rel.matching(&pattern).count());
        assert_eq!(work.counter("db.index_builds"), 0);

        // And the whole relation equals a from-scratch text load of base+delta.
        assert_eq!(named_rows(rel, &live), expected);
    }
}
