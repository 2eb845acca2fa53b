//! The one rule that replaced every posting-list carry-over path: a
//! relation derives each column index itself, on the first probe of that
//! column. Loading a snapshot, applying a delta chain, and remapping the
//! result into a live interner therefore do **no** index work, and the
//! first query afterwards pays for exactly the columns it probes.
//!
//! Kept to a single `#[test]` on purpose: the index-build counter is
//! process-wide, and a sibling test evaluating queries in this binary
//! would leak builds into the window measured here.

use wdpt_model::{Const, Interner, Relation};
use wdpt_obs::delta_scope;
use wdpt_serve::{merge_snapshot, parse_dataset};
use wdpt_sparql::TripleStore;
use wdpt_store::{content_hash, decode_with_deltas, delta_to_vec, snapshot_to_vec_v2};

const BASE: &str = "<s1> <p> <o1> .\n<s2> <p> <o1> .\n<s2> <q> <o2> .\n<s3> <q> <o1> .\n";
const UPDATE: &str = "<s4> <p> <o1> .\n<s1> <q> <o3> .\n";

/// Which columns of an owned relation hold an index right now
/// (`scan_posting_lens` has no other source to stream from).
fn built_columns(rel: &Relation) -> Vec<bool> {
    assert!(!rel.is_lazy(), "only meaningful for an owned relation");
    (0..rel.arity())
        .map(|col| rel.scan_posting_lens(col, |_, _| {}))
        .collect()
}

fn sorted_rows(rel: &Relation, i: &Interner) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = rel
        .tuples()
        .map(|t| t.iter().map(|c| i.const_name(*c).to_owned()).collect())
        .collect();
    rows.sort();
    rows
}

#[test]
fn delta_apply_and_remap_build_no_index_and_the_first_probe_builds_its_columns() {
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

    // A live interner that already holds some of the names under other
    // ids, so the merge takes the translating (non-identity) path.
    let mut live = Interner::new();
    for name in ["o3", "s4", "unrelated", "o1"] {
        live.constant(name);
    }

    let (db, work) = delta_scope(|| {
        let pair = decode_with_deltas(&base_bytes, std::slice::from_ref(&delta)).unwrap();
        merge_snapshot(&mut live, pair)
    });
    assert_eq!(work.counter("serve.store.snapshot_remapped"), 1);
    assert_eq!(work.counter("store.delta.relations_merged"), 1);
    assert_eq!(
        work.counter("db.index_builds"),
        0,
        "reload path built an index"
    );
    let triple = TripleStore::pred(&mut live);
    let rel = db.relation(triple).unwrap();
    assert_eq!(
        built_columns(rel),
        [false; 3],
        "reload path left an index behind"
    );

    // The first point query builds exactly the two columns it binds.
    let (p, o1) = (live.constant("p"), live.constant("o1"));
    let pattern = [None, Some(p), Some(o1)];
    let (hits, work) = delta_scope(|| {
        let mut hits: Vec<Const> = rel.matching(&pattern).map(|t| t[0]).collect();
        hits.sort_by_key(|c| live.const_name(*c).to_owned());
        hits
    });
    assert_eq!(work.counter("db.index_builds"), 2);
    assert_eq!(built_columns(rel), [false, true, true]);
    let names: Vec<&str> = hits.iter().map(|c| live.const_name(*c)).collect();
    assert_eq!(names, ["s1", "s2", "s4"]);
    // Asking again builds nothing more.
    let (_, work) = delta_scope(|| rel.matching(&pattern).count());
    assert_eq!(work.counter("db.index_builds"), 0);

    // And the whole relation equals a from-scratch text load of base+delta.
    let mut fresh_i = Interner::new();
    let fresh = parse_dataset(&mut fresh_i, &format!("{BASE}{UPDATE}")).unwrap();
    let fresh_triple = TripleStore::pred(&mut fresh_i);
    assert_eq!(
        sorted_rows(rel, &live),
        sorted_rows(fresh.relation(fresh_triple).unwrap(), &fresh_i)
    );
}
