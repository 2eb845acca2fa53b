//! A reload of a base file the server already decoded applies only the
//! deltas, to the base it kept, in served ids, and derives the served
//! statistics from the base's counts and the chain's rows. These tests hold
//! that path to the full decode: after every reload the served rows,
//! statistics, chain hashes and head equal those of a fresh server that
//! reloaded the same files, the statistics equal a build of the served
//! database, and a changed base file is never masked by the kept one.
//!
//! A reload's own work — how its base arrived, the columns it counted —
//! is the [`Installed`] account it returns. The one registry counter read
//! here is `db.index_builds` around a reload or a follower's frame, so
//! every plan and query here runs inside `delta_scope`: no other test's
//! index builds land in such a window. The index builds a query made are
//! read from its own tally.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wdpt_model::{Const, Database, Interner, Pred, SymbolSpace, Term};
use wdpt_obs::{delta_scope, read_json_line, write_json_line, Json};
use wdpt_plan::StatsCatalog;
use wdpt_serve::{Base, Installed, ServeConfig, ServeState, BASE_CHUNK};
use wdpt_sparql::TripleStore;
use wdpt_store::{content_hash, decode_snapshot, delta_to_vec, save_delta, snapshot_to_vec_v2};

const DB: &str = "main";
const Q: &str = "SELECT ?s ?o WHERE { (?s, p0, ?o) }";
/// A query whose one bound column is the object: it probes through that
/// column's row-id permutation.
const BY_OBJECT: &str = "SELECT ?s ?p WHERE { (?s, ?p, o0) }";

/// The files of the tests: a base snapshot, deltas `d0` and `d1` built
/// against it, `d2` built against base + `d1`, a delta `bad` that also
/// follows `d1` but inserts a tuple the base holds, and a second base over
/// the first one's symbols.
struct Files {
    dir: PathBuf,
    base: PathBuf,
    d0: PathBuf,
    d1: PathBuf,
    d2: PathBuf,
    bad: Vec<u8>,
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
    // `bad`: base + `d1` written as if it lacked the base's (s0, p0, o0).
    let held = ts1.database();
    let triple = Pred(i1.lookup_id(SymbolSpace::Pred, "triple").unwrap());
    let s0 = |name: &str| Const(i1.lookup_id(SymbolSpace::Const, name).unwrap());
    let (s0p0o0, mut without) = ([s0("s0"), s0("p0"), s0("o0")], Database::new());
    for row in held.relation(triple).unwrap().tuples() {
        if row != s0p0o0 {
            without.insert(triple, row.to_vec());
        }
    }
    let bad = delta_to_vec(content_hash(&d1_bytes), &i1, &without, &i1, held).unwrap();

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
        bad,
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

/// What one reload did: the chain's hashes, whether the base was decoded
/// in full (1) or kept (0), how many columns were counted in full for the
/// statistics — both from its [`Installed`] account — and how many indexes
/// it built.
#[derive(Debug)]
struct Reloaded {
    chain: Vec<u64>,
    folds: u64,
    counted: usize,
    builds: u64,
}

/// One reload of [`DB`] through its two stages, or the error.
fn reload(state: &ServeState, base: &Path, deltas: &[&Path]) -> Result<Reloaded, String> {
    reload_into(state, DB, base, deltas)
}

/// One reload of `name` through its two stages, or the error.
fn reload_into(
    state: &ServeState,
    name: &str,
    base: &Path,
    deltas: &[&Path],
) -> Result<Reloaded, String> {
    let (out, work) = delta_scope(|| {
        let loaded = state.load_stage(base, deltas)?;
        let chain = loaded.chain.clone();
        state.install_stage(name, loaded).map(|i| (chain, i))
    });
    out.map(|(chain, installed)| Reloaded {
        chain,
        folds: u64::from(installed.base != Base::Kept),
        counted: installed.columns_counted,
        builds: work.counter("db.index_builds"),
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

/// What `state` serves as [`DB`]; see [`served_as`].
fn served(state: &ServeState) -> Served {
    served_as(state, DB)
}

/// What `state` serves as `db_name`, by name, once its catalog is checked
/// against a build of the served database in the same ids: every
/// relation, row count, distinct count and most-common-values list, in
/// rank order.
fn served_as(state: &ServeState, db_name: &str) -> Served {
    let (db, stats) = state.db_with_stats(db_name).unwrap();
    stats.check().unwrap();
    let built = StatsCatalog::build(&db);
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
            head: state.chain(db_name).last().copied(),
        }
    })
}

/// The hash of the base kept for `db_name`: its chain's first link.
fn kept_base(state: &ServeState, db_name: &str) -> Option<u64> {
    state.chain(db_name).first().copied()
}

/// The answers of [`BY_OBJECT`] on what `state` serves as [`DB`], by name
/// and sorted, and the index builds evaluating it took (planning aside).
fn by_object(state: &ServeState) -> (Vec<Vec<String>>, u64) {
    let (plan, _) = delta_scope(|| state.plan_for(BY_OBJECT).unwrap()).0;
    let db = state.db(DB).unwrap();
    let never = wdpt_model::CancelToken::never();
    let (answers, tally) =
        delta_scope(|| wdpt_core::evaluate_rows(&plan.wdpt, &db, 1, never, None, usize::MAX)).0;
    let answers = answers.unwrap().into_mappings();
    let mut named: Vec<Vec<String>> = state.with_interner(|i| {
        let name = |m: &wdpt_model::Mapping| -> Vec<String> {
            m.iter().map(|(_, c)| i.const_name(c).to_owned()).collect()
        };
        answers.iter().map(name).collect()
    });
    named.sort();
    (named, tally.work.index_builds)
}

#[test]
fn every_reload_serves_what_a_fresh_server_reloading_the_same_files_serves() {
    let f = files("differential");
    let other = f.dir.join("other.snap");
    std::fs::write(&other, &f.other_base).unwrap();
    // A base over symbols of its own: its ids translate, and it is kept
    // all the same.
    let foreign = f.dir.join("foreign.snap");
    {
        let (mut i, mut ts) = (Interner::new(), TripleStore::new());
        insert(&mut i, &mut ts, &[("f0", "p0", "f1"), ("f1", "p1", "o0")]);
        wdpt_store::save_snapshot(&foreign, &i, ts.database()).unwrap();
    }
    let base_hash = content_hash(&std::fs::read(&f.base).unwrap());
    // (base, deltas, full folds on the first pass, then on the second).
    let steps: [(&Path, Vec<&Path>, u64, u64); 8] = [
        (&f.base, vec![&f.d0], 1, 0),
        (&f.base, vec![&f.d1], 0, 0),
        (&f.base, vec![&f.d0], 0, 0),
        (&f.base, vec![&f.d1, &f.d2], 0, 0),
        (&other, vec![], 1, 1),
        (&foreign, vec![], 1, 1),
        (&foreign, vec![], 0, 0),
        (&f.base, vec![&f.d0], 1, 1),
    ];

    let state = start(&f.base);
    let plan = |state: &ServeState| delta_scope(|| state.plan_for(Q).unwrap().1).0;
    assert_eq!(plan(&state), "miss");
    let mut settled = None;
    for pass in 0..2 {
        for (step, (base, deltas, first, second)) in steps.iter().enumerate() {
            let at = format!("pass {pass}, step {step}");
            let Reloaded {
                chain,
                folds,
                counted,
                ..
            } = reload(&state, base, deltas).unwrap();
            assert_eq!(folds, [*first, *second][pass], "{at}: full base folds");
            // One relation of three columns, counted once per full decode;
            // a reload of the kept base counts none.
            assert_eq!(counted as u64, 3 * folds, "{at}: columns counted");
            // Every base is kept.
            let kept = content_hash(&std::fs::read(base).unwrap());
            assert_eq!(kept_base(&state, DB), Some(kept), "{at}: kept base");

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
            assert_eq!(plan(&state), "hit", "{at}: plan cache");
            if pass == 1 {
                assert_eq!(Some(state.interner_len()), settled, "{at}: interner grew");
            }
        }
        settled = Some(state.interner_len());
    }
    assert_eq!(kept_base(&state, DB), Some(base_hash));
    std::fs::remove_dir_all(&f.dir).ok();
}

/// A delta lands in the served relation's pending run and the relation
/// keeps sharing the kept base's run, so the object column's permutation,
/// built by the first query that needs it, serves every later reload of
/// that base: no reload and no later query builds an index.
#[test]
fn permutations_survive_a_reload_of_the_kept_base() {
    let f = files("perms");
    let state = start(&f.base);
    let fresh = |deltas: &[&Path]| {
        let fresh = start(&f.base);
        reload(&fresh, &f.base, deltas).unwrap();
        by_object(&fresh).0
    };
    // Decoded in full: the base is kept from here on.
    assert_eq!(reload(&state, &f.base, &[&f.d0]).unwrap().folds, 1);
    let (answers, builds) = by_object(&state);
    assert_eq!(builds, 1, "the object column's permutation");
    assert_eq!(answers, fresh(&[&f.d0]));
    assert!(!answers.is_empty());
    let chains: [Vec<&Path>; 3] = [vec![&f.d1], vec![&f.d0], vec![&f.d1, &f.d2]];
    for deltas in chains {
        let reloaded = reload(&state, &f.base, &deltas).unwrap();
        assert_eq!(reloaded.folds, 0, "{deltas:?}: the kept base was redone");
        assert_eq!(reloaded.builds, 0, "{deltas:?}: the reload built an index");
        let (answers, builds) = by_object(&state);
        assert_eq!(builds, 0, "{deltas:?}: a permutation was rebuilt");
        assert_eq!(answers, fresh(&deltas), "{deltas:?}");
    }
    std::fs::remove_dir_all(&f.dir).ok();
}

/// A base snapshot of more than two [`BASE_CHUNK`]s, saved as `big.snap`
/// in `dir`: its path and bytes.
fn big_base(dir: &Path) -> (PathBuf, Vec<u8>) {
    let (mut i, mut ts) = (Interner::new(), TripleStore::new());
    for k in 0..30_000 {
        let (s, p, o) = (
            format!("b{k}"),
            format!("p{}", k % 18),
            format!("o{}", k % 1999),
        );
        ts.insert_str(&mut i, &s, &p, &o);
    }
    let bytes = snapshot_to_vec_v2(&i, ts.database()).unwrap();
    assert!(bytes.len() > 2 * BASE_CHUNK + 1, "{} bytes", bytes.len());
    let path = dir.join("big.snap");
    std::fs::write(&path, &bytes).unwrap();
    (path, bytes)
}

/// The base's bytes changed where a chunked compare could miss it: its
/// first and last byte and each side of the first two chunk boundaries
/// flipped, one byte appended, the last one dropped.
fn changed_bytes(base: &[u8]) -> Vec<(String, Vec<u8>)> {
    let (n, c) = (base.len(), BASE_CHUNK);
    let mut changed: Vec<(String, Vec<u8>)> = [0, c - 1, c, 2 * c - 1, 2 * c, n - 1]
        .into_iter()
        .map(|at| {
            let mut bytes = base.to_vec();
            bytes[at] ^= 0x10;
            (format!("byte {at} of {n} flipped"), bytes)
        })
        .collect();
    changed.push(("one byte longer".to_string(), [base, &[0]].concat()));
    changed.push(("one byte shorter".to_string(), base[..n - 1].to_vec()));
    changed
}

#[test]
fn the_kept_base_masks_no_change_to_the_base_file() {
    let f = files("masks");

    // A base of several read chunks, kept, changed in each way a chunked
    // compare could miss: each file is refused or decoded in full exactly
    // as a server that kept nothing handles it, and never found kept.
    let (big, big_bytes) = big_base(&f.dir);
    let state = start(&f.base);
    assert_eq!(reload(&state, &big, &[]).unwrap().folds, 1);
    assert_eq!(reload(&state, &big, &[]).unwrap().folds, 0, "not kept");
    let kept = served(&state);
    for (what, bytes) in changed_bytes(&big_bytes) {
        std::fs::write(&big, &bytes).unwrap();
        let symbols = state.interner_len();
        match (
            reload(&state, &big, &[]),
            reload(&start(&f.base), &big, &[]),
        ) {
            (Err(warm), Err(cold)) => {
                assert_eq!(warm, cold, "{what}: not a cold server's message");
                assert_eq!(served(&state), kept, "{what}: served state moved");
                assert_eq!(state.interner_len(), symbols, "{what}: interner grew");
                assert_eq!(kept_base(&state, DB), Some(content_hash(&big_bytes)));
            }
            (Ok(warm), Ok(cold)) => {
                assert_eq!(warm.folds, 1, "{what}: a changed base was found kept");
                assert_eq!(warm.chain, cold.chain, "{what}");
                std::fs::write(&big, &big_bytes).unwrap();
                assert_eq!(reload(&state, &big, &[]).unwrap().folds, 1, "{what}");
            }
            (warm, cold) => panic!("{what}: {warm:?} where a cold server gave {cold:?}"),
        }
    }
    std::fs::write(&big, &big_bytes).unwrap();

    // The same files as a follower's snapshot frames.
    let follower = |state: &Arc<ServeState>| wdpt_serve::FollowerApply::new(Arc::clone(state), DB);
    let h = |bytes: &[u8]| content_hash(bytes);
    let state = start(&f.base);
    let apply = follower(&state);
    let first = apply.install_snapshot(h(&big_bytes), &big_bytes).unwrap();
    assert_eq!(first.base, Base::Remapped);
    let again = apply.install_snapshot(h(&big_bytes), &big_bytes).unwrap();
    assert_eq!(again.base, Base::Kept, "not kept");
    let kept = served(&state);
    for (what, bytes) in changed_bytes(&big_bytes) {
        let cold = start(&f.base);
        let frame = |apply: &wdpt_serve::FollowerApply| apply.install_snapshot(h(&bytes), &bytes);
        match (frame(&apply), frame(&follower(&cold))) {
            (Err(warm), Err(cold)) => {
                assert_eq!(warm, cold, "{what}: not a cold follower's message");
                assert_eq!(served(&state), kept, "{what}: served state moved");
                assert_eq!(kept_base(&state, DB), Some(h(&big_bytes)));
            }
            (Ok(warm), Ok(_)) => {
                assert_ne!(
                    warm.base,
                    Base::Kept,
                    "{what}: a changed base was found kept"
                );
                assert_eq!(state.chain(DB), cold.chain(DB), "{what}");
                apply.install_snapshot(h(&big_bytes), &big_bytes).unwrap();
            }
            (warm, cold) => panic!("{what}: {warm:?} where a cold follower gave {cold:?}"),
        }
    }

    // A small base, kept under a delta.
    let state = start(&f.base);
    let old_base = std::fs::read(&f.base).unwrap();
    reload(&state, &f.base, &[&f.d0]).unwrap();
    assert_eq!(kept_base(&state, DB), Some(content_hash(&old_base)));
    let before = served(&state);
    let symbols = state.interner_len();
    let unchanged = |what: &str| {
        assert_eq!(served(&state), before, "{what}: served state moved");
        assert_eq!(state.interner_len(), symbols, "{what}: interner grew");
        assert_eq!(
            kept_base(&state, DB),
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
    assert_eq!(kept_base(&state, DB), Some(content_hash(&f.other_base)));
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
    // A base of another database, with a symbol of its own.
    let side = f.dir.join("side.snap");
    let (mut si, mut sts) = (Interner::new(), TripleStore::new());
    insert(&mut si, &mut sts, &[("between", "p0", "o0")]);
    std::fs::write(&side, snapshot_to_vec_v2(&si, sts.database()).unwrap()).unwrap();
    let loaded = state.load_stage(&f.base, &[&f.d1]).unwrap();
    // Interned now by a reload of the other database, `between` takes the
    // id `d1`'s first new symbol holds provisionally, so the commit remaps
    // the chain.
    state.reload("side", &side, &[] as &[&Path]).unwrap();
    let installed = state.install_stage(DB, loaded).unwrap();
    let kept = Installed {
        tuples: 61,
        deltas: 1,
        base: Base::Kept,
        columns_counted: 0,
        head: content_hash(&std::fs::read(&f.d1).unwrap()),
    };
    assert_eq!(installed, kept);
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

/// `query` sent over `c`: the terminal line and the rows.
fn ask(c: &mut (BufReader<TcpStream>, BufWriter<TcpStream>), query: &str) -> (Json, Vec<Json>) {
    let request = Json::obj([("op", Json::str("query")), ("query", Json::str(query))]);
    write_json_line(&mut c.1, &request).unwrap();
    c.1.flush().unwrap();
    let mut rows = Vec::new();
    loop {
        let line = read_json_line(&mut c.0).unwrap().expect("a response");
        if line.get("kind").and_then(Json::as_str) != Some("row") {
            return (line, rows);
        }
        rows.push(line);
    }
}

/// `(status, answers, cache)` of a terminal line.
fn outcome(line: &Json) -> (&str, u64, &str) {
    let field = |k: &str| line.get(k).and_then(Json::as_str).unwrap_or("?");
    let answers = line.get("answers").and_then(Json::as_num).unwrap_or(-1.0);
    (field("status"), answers as u64, field("cache"))
}

/// A query naming a constant the dictionary lacks is planned for itself
/// alone: it answers `miss` every time and leaves the cache as it was, so
/// no cached tree holds its request-local id. A reload that interns a data
/// constant at that very id changes nothing for it: it still matches
/// nothing, and the new constant's own query is cached like any other.
#[test]
fn a_query_naming_an_unknown_name_is_planned_for_itself_alone() {
    let dir = std::env::temp_dir().join(format!("wdpt-reload-stale-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    // The query's variable names are in the dictionary, so its one unknown
    // name, the constant, takes the first request-local id.
    let (mut i, mut ts) = (Interner::new(), TripleStore::new());
    i.var("s");
    i.var("p");
    insert(&mut i, &mut ts, &[("a", "knows", "b")]);
    let base_bytes = snapshot_to_vec_v2(&i, ts.database()).unwrap();
    let base = dir.join("base.snap");
    std::fs::write(&base, &base_bytes).unwrap();
    let d = dir.join("d.delta");
    delta(&base_bytes, (&i, &ts), &[("a", "knows", "o_new")], &d);

    let state = start(&base);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn({
        let state = Arc::clone(&state);
        move || wdpt_serve::serve(listener, state)
    });
    let stream = TcpStream::connect(addr).unwrap();
    let mut c = (
        BufReader::new(stream.try_clone().unwrap()),
        BufWriter::new(stream),
    );

    // Each request is answered inside the scope it is sent from.
    let mut ask = |query: &str| delta_scope(|| ask(&mut c, query)).0;
    let nope = r#"(?s, ?p, "nope")"#;
    let local = state.interner_len() as u32;
    let cached = state.cache().len();
    assert_eq!(outcome(&ask(nope).0), ("ok", 0, "miss"));
    assert_eq!(outcome(&ask(nope).0), ("ok", 0, "miss"));
    assert_eq!(state.cache().len(), cached, "a request-local id was cached");
    let (plan, _) = delta_scope(|| state.plan_for(nope).unwrap()).0;
    assert_eq!(plan.wdpt.atoms(0)[0].args[2], Term::Const(Const(local)));

    reload(&state, &base, &[&d]).unwrap();
    let o_new = state.with_interner(|i| i.lookup_id(SymbolSpace::Const, "o_new"));
    assert_eq!(
        o_new,
        Some(local),
        "the delta's constant took the request-local id"
    );
    let (line, rows) = ask(nope);
    assert_eq!(
        (outcome(&line), rows.len()),
        (("ok", 0, "miss"), 0),
        "{line}"
    );
    for status in ["miss", "hit"] {
        let (line, rows) = ask(r#"(?s, ?p, "o_new")"#);
        assert_eq!(
            (outcome(&line), rows.len()),
            (("ok", 1, status), 1),
            "{line}"
        );
    }
    assert_eq!(state.cache().len(), cached + 1);

    state.begin_shutdown();
    server.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Every symbol of the served dictionary, by id.
fn dictionary(state: &ServeState) -> Vec<(SymbolSpace, String)> {
    state.with_interner(|i| i.symbols().map(|(s, n)| (s, n.to_owned())).collect())
}

/// No install moves a served id: after a reload whose base is remapped
/// into the served dictionary, one that keeps its base, and one that
/// applies deltas, every id names what it named before — the dictionary
/// only grows at its end. A cached plan's tree relies on this.
#[test]
fn no_install_moves_a_served_id() {
    let f = files("ids-stay");
    let (aux, aux_d0) = translated_base(&f);
    let state = start(&f.base);
    let mut before = dictionary(&state);
    let installs: [(&Path, &str, Vec<&Path>); 4] = [
        (&aux, "aux", vec![]),
        (&aux, "aux", vec![&aux_d0]),
        (&f.base, DB, vec![&f.d0]),
        (&f.base, "other", vec![&f.d1, &f.d2]),
    ];
    let mut arrivals = Vec::new();
    for (base, name, deltas) in installs {
        let loaded = state.load_stage(base, &deltas).unwrap();
        arrivals.push(state.install_stage(name, loaded).unwrap().base);
        let after = dictionary(&state);
        assert_eq!(after[..before.len()], before[..], "{name} {deltas:?}");
        before = after;
    }
    assert_eq!(arrivals[..2], [Base::Remapped, Base::Kept]);
    assert!(
        before.iter().any(|(_, n)| n == "aux2"),
        "the delta was interned"
    );
    std::fs::remove_dir_all(&f.dir).ok();
}

/// A base whose symbols sit at other ids in a server started from the
/// fixture's base — names of its own among the fixture's — saved as
/// `aux.snap`, and a delta `aux_d0.delta` after it. Returns both paths.
fn translated_base(f: &Files) -> (PathBuf, PathBuf) {
    let (mut i, mut ts) = (Interner::new(), TripleStore::new());
    let triples = [
        ("aux0", "p3", "o5"),
        ("s19", "p2", "aux1"),
        ("s3", "p0", "o0"),
        ("aux0", "p17", "s0"),
    ];
    insert(&mut i, &mut ts, &triples);
    let bytes = snapshot_to_vec_v2(&i, ts.database()).unwrap();
    let base = f.dir.join("aux.snap");
    std::fs::write(&base, &bytes).unwrap();
    let d0 = f.dir.join("aux_d0.delta");
    let d0_triples = [("aux2", "p3", "o5"), ("s3", "p1", "aux1")];
    delta(&bytes, (&i, &ts), &d0_triples, &d0);
    (base, d0)
}

/// Every install keeps its base, also one whose ids the fold translates:
/// reloading it with a delta decodes and counts nothing again, and serves
/// what a fresh server reloading the same files serves.
#[test]
fn a_translated_base_is_kept_and_counted_once() {
    let f = files("translated");
    let (aux, aux_d0) = translated_base(&f);
    let state = start(&f.base);
    let first = reload_into(&state, "aux", &aux, &[]).unwrap();
    assert_eq!((first.folds, first.counted), (1, 3));
    let aux_bytes = std::fs::read(&aux).unwrap();
    assert_eq!(kept_base(&state, "aux"), Some(content_hash(&aux_bytes)));
    let (file, _) = decode_snapshot(&aux_bytes).unwrap();
    let s19 = |i: &Interner| i.lookup_id(SymbolSpace::Const, "s19");
    assert_ne!(
        s19(&file),
        state.with_interner(s19),
        "the fold is the identity"
    );

    let again = reload_into(&state, "aux", &aux, &[&aux_d0]).unwrap();
    assert_eq!(
        (again.folds, again.counted),
        (0, 0),
        "the kept base was redone"
    );
    let fresh = start(&f.base);
    let cold = reload_into(&fresh, "aux", &aux, &[&aux_d0]).unwrap();
    assert_eq!((cold.folds, cold.counted), (1, 3));
    assert_eq!(again.chain, cold.chain);
    assert_eq!(served_as(&state, "aux"), served_as(&fresh, "aux"));
    assert_eq!(served(&state), served(&fresh), "main moved");
    std::fs::remove_dir_all(&f.dir).ok();
}

/// The full-decode twin of
/// `a_symbol_interned_between_the_stages_remaps_the_chains_rows`: a symbol
/// interned between the stages takes the id a name new with the base
/// holds provisionally, so the commit remaps the base's rows too — the
/// served ones and the kept ones.
#[test]
fn a_symbol_interned_between_the_stages_remaps_a_decoded_bases_rows() {
    let f = files("remap-base");
    let (aux, aux_d0) = translated_base(&f);
    let state = start(&f.base);
    let side = f.dir.join("side.snap");
    let (mut si, mut sts) = (Interner::new(), TripleStore::new());
    insert(&mut si, &mut sts, &[("between", "p0", "o0")]);
    std::fs::write(&side, snapshot_to_vec_v2(&si, sts.database()).unwrap()).unwrap();
    let loaded = state.load_stage(&aux, &[&aux_d0]).unwrap();
    state.reload("side", &side, &[] as &[&Path]).unwrap();
    let installed = state.install_stage("aux", loaded).unwrap();
    let decoded = Installed {
        tuples: 6,
        deltas: 1,
        base: Base::Remapped,
        columns_counted: 3,
        head: content_hash(&std::fs::read(&aux_d0).unwrap()),
    };
    assert_eq!(installed, decoded, "the base is counted once");
    let id = |name: &str| state.with_interner(|i| i.lookup_id(SymbolSpace::Const, name).unwrap());
    assert!(
        id("between") < id("aux0"),
        "the base's names kept their ids"
    );

    let fresh = start(&f.base);
    reload_into(&fresh, "aux", &aux, &[&aux_d0]).unwrap();
    assert_eq!(served_as(&state, "aux"), served_as(&fresh, "aux"));
    // The kept base is in the settled ids too.
    for deltas in [vec![], vec![aux_d0.as_path()]] {
        let again = reload_into(&state, "aux", &aux, &deltas).unwrap();
        assert_eq!((again.folds, again.counted), (0, 0), "{deltas:?}");
        reload_into(&fresh, "aux", &aux, &deltas).unwrap();
        assert_eq!(
            served_as(&state, "aux"),
            served_as(&fresh, "aux"),
            "{deltas:?}"
        );
    }
    std::fs::remove_dir_all(&f.dir).ok();
}

/// A follower whose dictionary holds a generated catalog, driven frame by
/// frame, serves after every frame what a fresh server reloading the same
/// files serves, with the same chain; a delta frame counts
/// no column and keeps the permutations built before it. A structurally
/// bad delta is refused and changes nothing, and the next good frame
/// applies.
#[test]
fn a_follower_serves_what_a_fresh_server_reloading_the_same_files_serves() {
    use wdpt_repl::ReplApply;
    let f = files("follower");
    let read = |p: &Path| std::fs::read(p).unwrap();
    let (base, d1, d2) = (read(&f.base), read(&f.d1), read(&f.d2));
    let mut interner = Interner::new();
    let params = wdpt_gen::music::MusicParams::default();
    let catalog = wdpt_gen::music_triples(&mut interner, params).into_database();
    let dbs: BTreeMap<String, Database> = [(DB.to_string(), catalog)].into();
    let state = ServeState::new(ServeConfig::default(), interner, dbs, DB);
    let apply = wdpt_serve::FollowerApply::new(Arc::clone(&state), DB);
    let same_as_fresh = |deltas: &[&Path]| {
        let fresh = start(&f.base);
        reload(&fresh, &f.base, deltas).unwrap();
        assert_eq!(served(&state), served(&fresh), "{deltas:?}");
        assert_eq!(state.chain(DB), fresh.chain(DB), "{deltas:?}");
        let (answers, builds) = by_object(&state);
        assert_eq!(answers, by_object(&fresh).0, "{deltas:?}");
        builds
    };
    let h = |bytes: &[u8]| content_hash(bytes);

    let snapshot = apply.install_snapshot(h(&base), &base).unwrap();
    assert_eq!(
        (snapshot.base, snapshot.columns_counted),
        (Base::Remapped, 3)
    );
    same_as_fresh(&[]);
    let installed = apply.install_delta(h(&d1), h(&base), &d1).unwrap();
    assert_eq!(
        (installed.base, installed.columns_counted),
        (Base::Kept, 0),
        "d1"
    );
    assert_eq!(
        same_as_fresh(&[&f.d1]),
        0,
        "the base's permutation was rebuilt"
    );

    let (before, symbols) = (served(&state), state.interner_len());
    let err = apply.apply_delta(h(&f.bad), h(&d1), &f.bad).unwrap_err();
    assert!(err.contains("already holds"), "got: {err}");
    assert_eq!(
        served(&state),
        before,
        "the refused frame moved the rows or head"
    );
    assert_eq!(
        state.interner_len(),
        symbols,
        "the refused frame grew the interner"
    );

    let (installed, work) = delta_scope(|| apply.install_delta(h(&d2), h(&d1), &d2));
    let installed = installed.unwrap();
    assert_eq!(
        (installed.base, installed.columns_counted),
        (Base::Kept, 0),
        "d2"
    );
    assert_eq!(work.counter("db.index_builds"), 0, "d2");
    assert_eq!(
        same_as_fresh(&[&f.d1, &f.d2]),
        0,
        "a permutation was rebuilt"
    );
    std::fs::remove_dir_all(&f.dir).ok();
}
