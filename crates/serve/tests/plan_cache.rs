//! Plan-cache behaviour: neither a hit nor a miss runs decomposition work
//! (the per-node facts are computed on demand, once per plan), α-renamed
//! queries share entries, capacity bounds hold.
//!
//! These tests read the global `wdpt-obs` metrics registry, so every test
//! takes a file-local mutex to serialize against its siblings; the file is
//! its own process, so other test binaries cannot interfere.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;
use wdpt_gen::music::MusicParams;
use wdpt_model::{CancelToken, Database, Interner};
use wdpt_obs::metrics_snapshot;
use wdpt_serve::{canonicalize, ServeConfig, ServeState};
use wdpt_sparql::parse_query;

static LOCK: Mutex<()> = Mutex::new(());

const BASE: &str = r#"SELECT ?x ?y ?z WHERE { (((?x, rec_by, ?y) AND (?x, publ, "after_2010")) OPT (?x, nme_rating, ?z)) OPT (?y, formed_in, ?w) }"#;
const RENAMED: &str = r#"SELECT ?a ?b ?c WHERE { (((?a, rec_by, ?b) AND (?a, publ, "after_2010")) OPT (?a, nme_rating, ?c)) OPT (?b, formed_in, ?d) }"#;
const OTHER: &str = "(?x, publ, ?era)";

fn music_params() -> MusicParams {
    MusicParams {
        bands: 10,
        records_per_band: 2,
        ..MusicParams::default()
    }
}

/// A server over the music data whose dictionary also holds the cycle
/// queries' predicates (which the data does not): a query naming a name the
/// dictionary lacks is planned for itself alone, and these are cached.
fn music_state(cfg: ServeConfig) -> Arc<ServeState> {
    let mut i = Interner::new();
    for k in 0..24 {
        i.constant(&format!("e{k}"));
    }
    let ts = wdpt_gen::music_triples(&mut i, music_params());
    let mut dbs: BTreeMap<String, Database> = BTreeMap::new();
    dbs.insert("music".to_string(), ts.into_database());
    ServeState::new(cfg, i, dbs, "music")
}

#[test]
fn repeated_query_skips_decomposition_entirely() {
    let _guard = LOCK.lock().unwrap();
    let state = music_state(ServeConfig::default());

    // First request: a miss. Planning is join orders and nothing else —
    // no core, treewidth or acyclicity search, and no symbol interned.
    let before_first = metrics_snapshot();
    let (plan1, status1) = state.plan_for(BASE).unwrap();
    let after_first = metrics_snapshot().since(&before_first);
    assert_eq!(status1, "miss");
    assert_eq!(after_first.counter("decomp.tw_search_nodes"), 0);
    assert_eq!(after_first.counter("decomp.hw_search_nodes"), 0);
    assert_eq!(after_first.counter("cq.nodes_expanded"), 0);
    assert_eq!(after_first.counter("serve.plan.facts_computed"), 0);

    // Second request: a hit that runs none of it either.
    let symbols = state.interner_len();
    let before_second = metrics_snapshot();
    let (plan2, status2) = state.plan_for(BASE).unwrap();
    let delta = metrics_snapshot().since(&before_second);
    assert_eq!(status2, "hit");
    assert!(Arc::ptr_eq(&plan1, &plan2), "hit must return the same plan");
    assert_eq!(delta.counter("decomp.tw_search_nodes"), 0);
    assert_eq!(delta.counter("decomp.hw_search_nodes"), 0);
    assert_eq!(delta.counter("serve.plan_cache.hit"), 1);
    assert_eq!(delta.counter("serve.plan_cache.miss"), 0);

    // The facts are where the searches went: the first `node_facts` runs
    // them (once per plan), the second reads the memo, and neither interns
    // a symbol — the core search freezes variables into bare ids.
    let before_facts = metrics_snapshot();
    let facts = plan1.node_facts(CancelToken::never()).unwrap();
    let first = metrics_snapshot().since(&before_facts);
    assert!(first.counter("decomp.tw_search_nodes") > 0);
    assert!(
        first.counter("cq.nodes_expanded") > 0,
        "the core search ran"
    );
    assert_eq!(first.counter("serve.plan.facts_computed"), 1);
    let before_again = metrics_snapshot();
    let again = plan2.node_facts(CancelToken::never()).unwrap();
    let second = metrics_snapshot().since(&before_again);
    assert!(Arc::ptr_eq(&facts, &again), "the memo is shared");
    assert_eq!(second.counter("decomp.tw_search_nodes"), 0);
    assert_eq!(second.counter("cq.nodes_expanded"), 0);
    assert_eq!(second.counter("serve.plan.facts_computed"), 0);
    assert_eq!(state.interner_len(), symbols);
}

/// A plan miss interns nothing: the front half resolves the request's
/// names against the served dictionary read-only. Neither a first miss, a
/// miss after an eviction, nor a query of names the data lacks changes it.
#[test]
fn plan_miss_interns_nothing() {
    let _guard = LOCK.lock().unwrap();
    let state = music_state(ServeConfig {
        cache_capacity: 1,
        ..ServeConfig::default()
    });
    let symbols = || {
        state.with_interner(|i| {
            i.symbols()
                .map(|(space, name)| (space, name.to_owned()))
                .collect::<Vec<_>>()
        })
    };
    let before = symbols();
    assert_eq!(state.plan_for(BASE).unwrap().1, "miss");
    assert_eq!(state.plan_for(OTHER).unwrap().1, "miss"); // evicts BASE
    assert_eq!(state.plan_for(BASE).unwrap().1, "miss");
    let unseen = r#"SELECT ?new WHERE { (?new, unseen_pred, "unseen const") }"#;
    assert_eq!(state.plan_for(unseen).unwrap().1, "miss");
    assert_eq!(symbols(), before);
    // Planned for itself alone: it neither evicted `BASE` nor took a slot.
    assert_eq!(state.cache().len(), 1);
    assert_eq!(state.plan_for(BASE).unwrap().1, "hit");
}

#[test]
fn alpha_renamed_query_hits_the_same_entry() {
    let _guard = LOCK.lock().unwrap();
    let state = music_state(ServeConfig::default());
    let (plan1, status1) = state.plan_for(BASE).unwrap();
    assert_eq!(status1, "miss");

    let before = metrics_snapshot();
    let (plan2, status2) = state.plan_for(RENAMED).unwrap();
    let delta = metrics_snapshot().since(&before);
    assert_eq!(status2, "hit", "renaming variables must not change the key");
    assert!(Arc::ptr_eq(&plan1, &plan2));
    assert_eq!(delta.counter("decomp.tw_search_nodes"), 0);
    assert_eq!(state.cache().len(), 1);
}

#[test]
fn canonical_keys_separate_structure_not_names() {
    let _guard = LOCK.lock().unwrap();
    let mut i = Interner::new();
    let base = parse_query(&mut i, BASE).unwrap();
    let renamed = parse_query(&mut i, RENAMED).unwrap();
    let other = parse_query(&mut i, OTHER).unwrap();

    let ck_base = canonicalize(&base, &mut i);
    let ck_renamed = canonicalize(&renamed, &mut i);
    let ck_other = canonicalize(&other, &mut i);
    assert_eq!(ck_base.key, ck_renamed.key);
    assert_ne!(ck_base.key, ck_other.key);

    // request_vars maps canonical slot k back to the spelling the client
    // used, in first-occurrence order.
    assert_eq!(ck_base.request_vars, ["x", "y", "z", "w"]);
    assert_eq!(ck_renamed.request_vars, ["a", "b", "c", "d"]);

    // Swapping a variable for a constant changes the structure, and a
    // constant spelled like a key token cannot collide with a variable.
    let with_const = parse_query(&mut i, "(?x, publ, V0)").unwrap();
    let ck_const = canonicalize(&with_const, &mut i);
    assert_ne!(ck_const.key, ck_other.key);
}

#[test]
fn capacity_bounds_the_cache_with_fifo_eviction() {
    let _guard = LOCK.lock().unwrap();
    let state = music_state(ServeConfig {
        cache_capacity: 1,
        ..ServeConfig::default()
    });
    assert_eq!(state.plan_for(BASE).unwrap().1, "miss");
    assert_eq!(state.plan_for(OTHER).unwrap().1, "miss"); // evicts BASE
    assert_eq!(state.cache().len(), 1);
    assert_eq!(state.plan_for(BASE).unwrap().1, "miss"); // gone, rebuilt
    assert_eq!(state.cache().len(), 1);
}

/// `plan_for` runs the request's own front half: what a served query would
/// be turned away for, it is turned away for here, and the attempt interns
/// nothing.
#[test]
fn plan_for_applies_the_caps() {
    let _guard = LOCK.lock().unwrap();
    let state = music_state(ServeConfig::default());
    let mut chain = "(?v0, fresh_e0, ?v1)".to_string();
    for k in 1..65 {
        chain = format!(
            "({chain} AND (?v{}, fresh_e{k}, ?v{}))",
            k % 20,
            (k + 1) % 20
        );
    }
    let turned_away = [
        ("malformed", "SELECT ?x WHERE { (?x, fresh_p) }".to_string()),
        ("65 atoms", chain),
        (
            "not well-designed",
            "(((?x, fresh_a, ?y) OPT (?y, fresh_b, ?z)) AND (?z, fresh_c, ?w))".to_string(),
        ),
    ];
    let symbols = state.interner_len();
    for (what, query) in &turned_away {
        assert!(state.plan_for(query).is_err(), "{what}");
        assert_eq!(state.interner_len(), symbols, "{what}");
    }
    assert!(state.cache().is_empty());
}

/// A directed `n`-cycle over *distinct* predicates. The core search is
/// trivial (with distinct predicates every atom can only map to itself),
/// so the cost of its facts is dominated by the exact-treewidth DP, which
/// must walk all `2ⁿ` vertex subsets — a single long-running, cancellable
/// search with no heuristic short-circuit. Planning it is instant.
fn cycle_query(n: usize) -> String {
    let mut p = "(?v0, e0, ?v1)".to_string();
    for k in 1..n {
        p = format!("({p} AND (?v{k}, e{k}, ?v{}))", (k + 1) % n);
    }
    format!("SELECT ?v0 WHERE {{ {p} }}")
}

#[test]
fn expired_deadline_cancels_planning_and_caches_nothing() {
    let _guard = LOCK.lock().unwrap();
    let state = music_state(ServeConfig::default());

    // A build is cheap now, but it still runs under the request's token:
    // one that has already expired must cancel it, not be ignored.
    let expired = CancelToken::with_deadline(Duration::ZERO);
    let err = state
        .plan_for_with(&cycle_query(24), &expired)
        .expect_err("an expired token must cancel the build");
    assert!(err.contains("cancelled"), "got {err:?}");
    assert!(
        state.cache().is_empty(),
        "a cancelled build must not be cached"
    );

    // The cache is not poisoned: a later request plans normally.
    assert_eq!(state.plan_for(BASE).unwrap().1, "miss");
}

#[test]
fn concurrent_identical_misses_coalesce_onto_one_build() {
    let _guard = LOCK.lock().unwrap();
    let state = music_state(ServeConfig::default());
    // A build is microseconds, so the second request may join the
    // in-flight slot or find the finished entry; the assertions below hold
    // either way.
    let q = Arc::new(cycle_query(18));

    let before = metrics_snapshot();
    let barrier = Arc::new(Barrier::new(2));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let state = Arc::clone(&state);
            let q = Arc::clone(&q);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                state.plan_for(&q).unwrap()
            })
        })
        .collect();
    let plans: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let delta = metrics_snapshot().since(&before);

    assert!(
        Arc::ptr_eq(&plans[0].0, &plans[1].0),
        "both requests must share one plan"
    );
    assert_eq!(
        delta.counter("serve.plan_cache.miss"),
        1,
        "exactly one request may run the build"
    );
    assert_eq!(
        delta.counter("serve.plan_cache.hit") + delta.counter("serve.plan_cache.coalesced"),
        1,
        "the other must join the in-flight slot or hit the finished entry"
    );
    assert_eq!(state.cache().len(), 1);
}

#[test]
fn plan_metadata_matches_the_figure1_tree() {
    let _guard = LOCK.lock().unwrap();
    let state = music_state(ServeConfig::default());
    let (plan, _) = state.plan_for(BASE).unwrap();
    // Figure 1 shape: a two-atom root with two single-atom children.
    assert_eq!(plan.wdpt.node_count(), 3);
    let facts = plan.node_facts(CancelToken::never()).unwrap();
    assert_eq!(facts.len(), 3);
    assert_eq!(facts[0].atoms, 2);
    for n in facts.iter() {
        assert_eq!(n.core_atoms, n.atoms, "triple patterns here are cores");
        assert!(n.acyclic, "Figure 1 node CQs are acyclic");
        assert_eq!(n.treewidth, Some(1));
    }
    assert_eq!(plan.canon_vars.len(), 4);
}

/// A facts computation cut short by its token memoises nothing: the next
/// caller, with time to spare, computes from scratch — once.
#[test]
fn cancelled_facts_are_not_memoised() {
    let _guard = LOCK.lock().unwrap();
    let state = music_state(ServeConfig::default());
    let (plan, _) = state.plan_for(&cycle_query(18)).unwrap();

    let expired = CancelToken::with_deadline(Duration::ZERO);
    let before = metrics_snapshot();
    assert!(plan.node_facts(&expired).is_err());
    assert_eq!(
        metrics_snapshot()
            .since(&before)
            .counter("serve.plan.facts_computed"),
        0
    );

    // With time to spare, the computation runs the decomposition search
    // once and is counted once.
    let before = metrics_snapshot();
    let facts = plan.node_facts(CancelToken::never()).unwrap();
    let delta = metrics_snapshot().since(&before);
    assert!(delta.counter("decomp.tw_search_nodes") > 0);
    assert_eq!(delta.counter("serve.plan.facts_computed"), 1);
    assert_eq!(facts[0].treewidth, Some(2), "a cycle has treewidth 2");
    assert!(!facts[0].acyclic);
}
