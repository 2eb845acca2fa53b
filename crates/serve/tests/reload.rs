//! A reload of a base file the server already decoded applies only the
//! deltas, to the base it kept, in served ids, and derives the served
//! statistics from the base's counts and the chain's rows. These tests hold
//! that path to the full decode: after every reload the served rows,
//! statistics, chain hashes and head equal those of a fresh server that
//! reloaded the same files, the statistics equal a build of the served
//! database, and a changed base file is never masked by the kept one.
//!
//! Every reload, server start and catalog build here runs inside
//! `delta_scope`, so the counters a reload reads are its own even with the
//! tests of this binary running in parallel.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wdpt_model::{Database, Interner, Pred, SymbolSpace};
use wdpt_obs::delta_scope;
use wdpt_plan::StatsCatalog;
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

    // Every column holds more than `MCV_ENTRIES` distinct values (20
    // subjects, 18 predicates, 19 objects), so every most-common-values
    // list is cut. Subjects `s0`..`s14` hold three triples each and
    // `s15`..`s19` two: the subject list is `s0`..`s14`, then `s15` of
    // five tied at two, by id.
    let (mut i, mut ts) = (Interner::new(), TripleStore::new());
    for k in 0..20 {
        for j in 0..if k < 15 { 3 } else { 2 } {
            let (s, p, o) = (
                format!("s{k}"),
                format!("p{}", (k + j) % 18),
                format!("o{}", (2 * k + j) % 19),
            );
            ts.insert_str(&mut i, &s, &p, &o);
        }
    }
    let base_bytes = snapshot_to_vec_v2(&i, ts.database()).unwrap();
    let base = dir.join("base.snap");
    std::fs::write(&base, &base_bytes).unwrap();

    // `d0` promotes the unlisted `s19` to the top (four triples) and
    // brings a subject and an object new to their columns.
    let d0 = dir.join("d0.delta");
    let d0_triples = [
        ("s19", "p5", "n0b"),
        ("s19", "p6", "o0"),
        ("n0a", "p0", "o0"),
    ];
    delta(&base_bytes, (&i, &ts), &d0_triples, &d0);
    // `d1` lifts `s17` and `s18` to three: seventeen subjects tie at
    // three for sixteen places, and id keeps `s17` and cuts `s18`. The new
    // object `n1b` tops its column, and a new subject `n1a` enters at two.
    let d1 = dir.join("d1.delta");
    let d1_triples = [
        ("n1a", "p1", "o3"),
        ("n1a", "p9", "n1b"),
        ("n1c", "p9", "n1b"),
        ("n1d", "p9", "n1b"),
        ("s17", "p9", "n1b"),
        ("s18", "p9", "n1b"),
    ];
    let (d1_bytes, i1, ts1) = delta(&base_bytes, (&i, &ts), &d1_triples, &d1);
    // `d2`, after `d1`: `s16` jumps to four, which pushes `s17` out on the
    // tie at rank sixteen; `n1a` ties at three and is cut by id.
    let d2 = dir.join("d2.delta");
    let d2_triples = [
        ("n1a", "p0", "n2a"),
        ("s16", "p9", "o2"),
        ("s16", "p10", "o2"),
    ];
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
    delta_scope(|| ServeState::new(ServeConfig::default(), interner, dbs, DB)).0
}

/// What one reload did: the chain's hashes, how many snapshots were folded
/// in full, and how many columns were counted in full for the statistics.
#[derive(Debug)]
struct Reloaded {
    chain: Vec<u64>,
    folds: u64,
    counted: u64,
}

/// One reload through its two stages, or the error.
fn reload(state: &ServeState, base: &Path, deltas: &[&Path]) -> Result<Reloaded, String> {
    let (out, work) = delta_scope(|| {
        let loaded = state.load_stage(base, deltas)?;
        let chain = loaded.chain.clone();
        state.install_stage(DB, loaded).map(|_| chain)
    });
    let folds = work.counter("serve.store.snapshot_adopted")
        + work.counter("serve.store.snapshot_remapped");
    let counted = work.counter("plan.stats.columns_counted");
    out.map(|chain| Reloaded {
        chain,
        folds,
        counted,
    })
}

/// Statistics of one column by name: distinct count and every
/// most-common value with its count, in rank order.
type Column = (u64, Vec<(String, u64)>);

/// What a server serves, by name.
#[derive(Debug, PartialEq)]
struct Served {
    rows: Vec<Vec<String>>,
    stats_rows: u64,
    columns: Vec<Column>,
    head: Option<u64>,
}

/// What `state` serves, by name, once its catalog is checked against a
/// build of the served database in the same ids: every relation, row
/// count, distinct count and most-common-values list, in rank order.
fn served(state: &ServeState) -> Served {
    let (db, stats) = state.db_with_stats(DB).unwrap();
    stats.check().unwrap();
    let (built, _) = delta_scope(|| StatsCatalog::build(&db));
    assert_eq!(stats.len(), built.len());
    for (pred, rel) in built.relations() {
        assert_eq!(stats.relation(pred), Some(rel), "predicate {}", pred.0);
    }
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
                let mcv = col.mcv.iter().map(|&(c, n)| (name(c.0), n)).collect();
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
            let Reloaded {
                chain,
                folds,
                counted,
            } = reload(&state, base, deltas).unwrap();
            assert_eq!(folds, [*first, *second][pass], "{at}: full base folds");
            // One relation of three columns, counted once per full decode;
            // a reload of the kept base counts none.
            assert_eq!(counted, 3 * folds, "{at}: columns counted");
            let kept = keeps.then(|| content_hash(&std::fs::read(base).unwrap()));
            assert_eq!(state.kept_base_hash(DB), kept, "{at}: kept base");

            let fresh = start(&f.base);
            let fresh_reload = reload(&fresh, base, deltas).unwrap();
            assert_eq!(
                fresh_reload.folds, 1,
                "{at}: a fresh server decodes in full"
            );
            assert_eq!(fresh_reload.counted, 3, "{at}: a fresh server counts");
            assert_eq!(chain, fresh_reload.chain, "{at}: chain hashes");
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
    let folds = reload(&state, &f.base, &[] as &[&Path]).unwrap().folds;
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

/// The distinct count of a column and its most common values by name, in
/// rank order.
type Ranked = (u64, Vec<String>);

/// The subject column served, [`Ranked`]; every list is cut.
fn subjects(state: &ServeState) -> Ranked {
    let columns = served(state).columns;
    for (_, mcv) in &columns {
        assert_eq!(mcv.len(), wdpt_plan::MCV_ENTRIES, "a list is not cut");
    }
    let (distinct, mcv) = columns[0].clone();
    (distinct, mcv.into_iter().map(|(name, _)| name).collect())
}

#[test]
fn cut_lists_take_promoted_tied_and_new_values_as_a_build_does() {
    let f = files("cut");
    let state = start(&f.base);
    let s = |k: usize| format!("s{k}");
    let listed = |head: Option<usize>, tail: Option<usize>| -> Vec<String> {
        head.into_iter().chain(0..15).chain(tail).map(s).collect()
    };
    assert_eq!(subjects(&state), (20, listed(None, Some(15))));

    // A full decode; then every reload derives from the kept base.
    let full = reload(&state, &f.base, &[&f.d0]).unwrap();
    assert_eq!((full.folds, full.counted), (1, 3));
    let promoted = (21, listed(Some(19), None));
    assert_eq!(subjects(&state), promoted, "s19 promoted, s15 out");
    let steps: [(Vec<&Path>, Ranked); 3] = [
        (vec![&f.d1], (23, listed(None, Some(17)))),
        (vec![&f.d1, &f.d2], (23, listed(Some(16), None))),
        (vec![&f.d0], promoted),
    ];
    for (deltas, expected) in steps {
        let derived = reload(&state, &f.base, &deltas).unwrap();
        assert_eq!((derived.folds, derived.counted), (0, 0), "{deltas:?}");
        assert_eq!(subjects(&state), expected, "{deltas:?}");
    }
    // The object new with `d1` tops its column.
    reload(&state, &f.base, &[&f.d1]).unwrap();
    assert_eq!(served(&state).columns[2].1[0], ("n1b".to_string(), 5));
    std::fs::remove_dir_all(&f.dir).ok();
}

#[test]
fn a_symbol_interned_between_the_stages_remaps_the_chains_rows() {
    let f = files("remap");
    let state = start(&f.base);
    reload(&state, &f.base, &[&f.d0]).unwrap();
    let ((), work) = delta_scope(|| {
        let loaded = state.load_stage(&f.base, &[&f.d1]).unwrap();
        // Interned now, the query's symbols take the ids `d1`'s new symbols
        // hold provisionally, so the commit remaps the chain.
        state
            .plan_for("SELECT ?s WHERE { (?s, p0, between) }")
            .unwrap();
        state.install_stage(DB, loaded).unwrap();
    });
    assert_eq!(work.counter("plan.stats.columns_counted"), 0);
    let id = |name: &str| state.with_interner(|i| i.lookup_id(SymbolSpace::Const, name).unwrap());
    assert!(
        id("between") < id("n1a"),
        "the chain's symbols kept their ids"
    );

    let fresh = start(&f.base);
    reload(&fresh, &f.base, &[&f.d1]).unwrap();
    let remapped = served(&state);
    assert_eq!(remapped.columns[2].1[0], ("n1b".to_string(), 5));
    assert_eq!(remapped, served(&fresh));
    std::fs::remove_dir_all(&f.dir).ok();
}
