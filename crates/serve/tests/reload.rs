//! A reload of a base file the server already decoded applies only the
//! deltas, to the base it kept, in served ids. These tests hold that path
//! to the full decode: after every reload the served rows, statistics,
//! chain hashes and head equal those of a fresh server that reloaded the
//! same files, and a changed base file is never masked by the kept one.
//!
//! Every reload here runs inside `delta_scope`, so the fold counters it
//! reads are its own even with the tests of this binary running in
//! parallel.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wdpt_model::{Database, Interner, Pred, SymbolSpace};
use wdpt_obs::delta_scope;
use wdpt_serve::{ServeConfig, ServeState};
use wdpt_sparql::TripleStore;
use wdpt_store::{content_hash, decode_snapshot, delta_to_vec, save_delta, snapshot_to_vec_v2};

const DB: &str = "main";
const Q: &str = "SELECT ?s ?o WHERE { (?s, p0, ?o) }";

/// The files of the tests: a base snapshot, deltas `d0` and `d1` built
/// against it, `d2` built against base + `d1`, and a second base over the
/// first one's symbols.
struct Files {
    dir: PathBuf,
    base: PathBuf,
    d0: PathBuf,
    d1: PathBuf,
    d2: PathBuf,
    other_base: Vec<u8>,
}

fn insert(i: &mut Interner, ts: &mut TripleStore, triples: &[(&str, &str, &str)]) {
    for (s, p, o) in triples {
        ts.insert_str(i, s, p, o);
    }
}

/// A delta from `(i, ts)` to it plus `triples`, chained to the file whose
/// bytes are `prev`, saved as `path`. Returns the delta's bytes and the
/// extended pair.
fn delta(
    prev: &[u8],
    (i, ts): (&Interner, &TripleStore),
    triples: &[(&str, &str, &str)],
    path: &Path,
) -> (Vec<u8>, Interner, TripleStore) {
    let (mut ni, mut nts) = (i.clone(), ts.clone());
    insert(&mut ni, &mut nts, triples);
    let bytes = delta_to_vec(content_hash(prev), i, ts.database(), &ni, nts.database()).unwrap();
    save_delta(path, &bytes).unwrap();
    (bytes, ni, nts)
}

fn files(tag: &str) -> Files {
    let dir = std::env::temp_dir().join(format!("wdpt-reload-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // Every column stays under `MCV_ENTRIES` distinct values, so each
    // most-common-values list is complete and compares by name exactly.
    let (mut i, mut ts) = (Interner::new(), TripleStore::new());
    for k in 0..8 {
        let (s, p, o) = (
            format!("s{k}"),
            format!("p{}", k % 2),
            format!("o{}", k % 4),
        );
        ts.insert_str(&mut i, &s, &p, &o);
        if k < 4 {
            ts.insert_str(&mut i, &s, "p1", "o0");
        }
    }
    let base_bytes = snapshot_to_vec_v2(&i, ts.database()).unwrap();
    let base = dir.join("base.snap");
    std::fs::write(&base, &base_bytes).unwrap();

    let d0 = dir.join("d0.delta");
    let d0_triples = [("n0a", "p0", "o0"), ("s1", "p0", "n0b"), ("s2", "p1", "o3")];
    delta(&base_bytes, (&i, &ts), &d0_triples, &d0);
    let d1 = dir.join("d1.delta");
    let d1_triples = [("n1a", "p1", "o1"), ("s3", "p2", "n1b")];
    let (d1_bytes, i1, ts1) = delta(&base_bytes, (&i, &ts), &d1_triples, &d1);
    let d2 = dir.join("d2.delta");
    let d2_triples = [("n1a", "p0", "n2a"), ("s5", "p2", "o2")];
    delta(&d1_bytes, (&i1, &ts1), &d2_triples, &d2);

    // The same symbols, other tuples: a base whose fold keeps its ids.
    let mut other = TripleStore::new();
    let mut oi = i.clone();
    insert(
        &mut oi,
        &mut other,
        &[("s0", "p1", "o1"), ("s7", "p0", "o3")],
    );
    assert_eq!(oi.len(), i.len());
    let other_base = snapshot_to_vec_v2(&oi, other.database()).unwrap();
    Files {
        dir,
        base,
        d0,
        d1,
        d2,
        other_base,
    }
}

/// A server started from `base` as the benchmark starts one: the snapshot
/// adopted, nothing kept.
fn start(base: &Path) -> Arc<ServeState> {
    let (interner, db) = decode_snapshot(&std::fs::read(base).unwrap()).unwrap();
    let dbs: BTreeMap<String, Database> = [(DB.to_string(), db)].into();
    ServeState::new(ServeConfig::default(), interner, dbs, DB)
}

/// One reload through its two stages: the chain's hashes and how many
/// snapshots were folded in full, or the error.
fn reload(state: &ServeState, base: &Path, deltas: &[&Path]) -> Result<(Vec<u64>, u64), String> {
    let (out, work) = delta_scope(|| {
        let loaded = state.load_stage(base, deltas)?;
        let chain = loaded.chain.clone();
        state.install_stage(DB, loaded).map(|_| chain)
    });
    let folds = work.counter("serve.store.snapshot_adopted")
        + work.counter("serve.store.snapshot_remapped");
    out.map(|chain| (chain, folds))
}

/// Statistics of one column by name: distinct count and every
/// most-common value with its count.
type Column = (u64, Vec<(String, u64)>);

/// What a server serves, by name.
#[derive(Debug, PartialEq)]
struct Served {
    rows: Vec<Vec<String>>,
    stats_rows: u64,
    columns: Vec<Column>,
    head: Option<u64>,
}

fn served(state: &ServeState) -> Served {
    let (db, stats) = state.db_with_stats(DB).unwrap();
    state.with_interner(|i| {
        let name = |id: u32| i.name(id).to_owned();
        let triple = Pred(i.lookup_id(SymbolSpace::Pred, "triple").unwrap());
        let rel = db.relation(triple).unwrap();
        let mut rows: Vec<Vec<String>> = rel
            .tuples()
            .map(|t| t.iter().map(|c| name(c.0)).collect())
            .collect();
        rows.sort();
        assert_eq!((db.predicate_count(), stats.len()), (1, 1));
        let rel_stats = stats.relation(triple).unwrap();
        let columns = rel_stats
            .columns
            .iter()
            .map(|col| {
                assert!(col.mcv.len() < wdpt_plan::stats::MCV_ENTRIES);
                let mut mcv: Vec<(String, u64)> =
                    col.mcv.iter().map(|&(c, n)| (name(c.0), n)).collect();
                mcv.sort();
                (col.distinct, mcv)
            })
            .collect();
        Served {
            rows,
            stats_rows: rel_stats.rows,
            columns,
            head: state.current_head(),
        }
    })
}

#[test]
fn every_reload_serves_what_a_fresh_server_reloading_the_same_files_serves() {
    let f = files("differential");
    let other = f.dir.join("other.snap");
    std::fs::write(&other, &f.other_base).unwrap();
    // A base over symbols of its own: its fold cannot keep its ids.
    let foreign = f.dir.join("foreign.snap");
    {
        let (mut i, mut ts) = (Interner::new(), TripleStore::new());
        insert(&mut i, &mut ts, &[("f0", "p0", "f1"), ("f1", "p1", "o0")]);
        wdpt_store::save_snapshot(&foreign, &i, ts.database()).unwrap();
    }
    let base_hash = content_hash(&std::fs::read(&f.base).unwrap());
    // (base, deltas, full folds on the first pass, then on the second,
    // whether the base is kept).
    let steps: [(&Path, Vec<&Path>, u64, u64, bool); 8] = [
        (&f.base, vec![&f.d0], 1, 0, true),
        (&f.base, vec![&f.d1], 0, 0, true),
        (&f.base, vec![&f.d0], 0, 0, true),
        (&f.base, vec![&f.d1, &f.d2], 0, 0, true),
        (&other, vec![], 1, 1, true),
        (&foreign, vec![], 1, 1, false),
        (&foreign, vec![], 1, 1, false),
        (&f.base, vec![&f.d0], 1, 1, true),
    ];

    let state = start(&f.base);
    let (_, status) = state.plan_for(Q).unwrap();
    assert_eq!(status, "miss");
    let mut settled = None;
    for pass in 0..2 {
        for (step, (base, deltas, first, second, keeps)) in steps.iter().enumerate() {
            let at = format!("pass {pass}, step {step}");
            let (chain, folds) = reload(&state, base, deltas).unwrap();
            assert_eq!(folds, [*first, *second][pass], "{at}: full base folds");
            let kept = keeps.then(|| content_hash(&std::fs::read(base).unwrap()));
            assert_eq!(state.kept_base_hash(DB), kept, "{at}: kept base");

            let fresh = start(&f.base);
            let (fresh_chain, fresh_folds) = reload(&fresh, base, deltas).unwrap();
            assert_eq!(fresh_folds, 1, "{at}: a fresh server decodes in full");
            assert_eq!(chain, fresh_chain, "{at}: chain hashes");
            assert_eq!(served(&state), served(&fresh), "{at}: served state");

            // Cached plans survive every reload.
            assert_eq!(state.cache().len(), 1, "{at}: plan cache");
            assert_eq!(state.plan_for(Q).unwrap().1, "hit", "{at}: plan cache");
            if pass == 1 {
                assert_eq!(Some(state.interner_len()), settled, "{at}: interner grew");
            }
        }
        settled = Some(state.interner_len());
    }
    assert_eq!(state.kept_base_hash(DB), Some(base_hash));
    std::fs::remove_dir_all(&f.dir).ok();
}

#[test]
fn the_kept_base_masks_no_change_to_the_base_file() {
    let f = files("masks");
    let state = start(&f.base);
    let old_base = std::fs::read(&f.base).unwrap();
    reload(&state, &f.base, &[&f.d0]).unwrap();
    assert_eq!(state.kept_base_hash(DB), Some(content_hash(&old_base)));
    let before = served(&state);
    let symbols = state.interner_len();
    let unchanged = |what: &str| {
        assert_eq!(served(&state), before, "{what}: served state moved");
        assert_eq!(state.interner_len(), symbols, "{what}: interner grew");
        assert_eq!(
            state.kept_base_hash(DB),
            Some(content_hash(&old_base)),
            "{what}: kept base moved"
        );
    };

    // One byte of the base flipped: refused as a cold server refuses it.
    let orig = f.dir.join("orig.snap");
    std::fs::write(&orig, &old_base).unwrap();
    let mut flipped = old_base.clone();
    flipped[old_base.len() / 2] ^= 0x10;
    std::fs::write(&f.base, &flipped).unwrap();
    let err = reload(&state, &f.base, &[&f.d0]).unwrap_err();
    let cold = reload(&start(&orig), &f.base, &[&f.d0]);
    assert!(err.contains("base.snap"), "the base is not named: {err}");
    assert_eq!(Err(err), cold.map(|_| ()), "not a cold server's message");
    unchanged("a flipped byte");

    // A different valid base: decoded in full, and kept in place of the old.
    std::fs::write(&f.base, &f.other_base).unwrap();
    let (_, folds) = reload(&state, &f.base, &[] as &[&Path]).unwrap();
    assert_eq!(folds, 1, "the new base was not decoded");
    assert_eq!(state.kept_base_hash(DB), Some(content_hash(&f.other_base)));
    let other = served(&state);
    assert_eq!(other.rows.len(), 2);
    assert_ne!(other, before);

    // A delta built against the old base no longer chains.
    let symbols = state.interner_len();
    let err = reload(&state, &f.base, &[&f.d0]).unwrap_err();
    assert!(err.contains("d0.delta"), "the delta is not named: {err}");
    assert!(err.contains("different predecessor"), "got: {err}");
    assert_eq!(served(&state), other);
    assert_eq!(state.interner_len(), symbols);
    std::fs::remove_dir_all(&f.dir).ok();
}
