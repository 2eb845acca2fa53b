//! Cost-based planning under serve: explain exposure, stats staleness
//! across hot reload, heavy hitters priced from the catalog, and adaptive
//! re-planning on sustained divergence.
//!
//! These tests read the global `wdpt-obs` metrics registry, so every test
//! takes a file-local mutex to serialize against its siblings; the file is
//! its own process, so other test binaries cannot interfere.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use wdpt_model::parse::parse_database;
use wdpt_model::{CancelToken, Database, Interner};
use wdpt_obs::{metrics_snapshot, Json};
use wdpt_plan::Strategy;
use wdpt_serve::{cache::explain_json, maybe_replan, Plan, ServeConfig, ServeState};

static LOCK: Mutex<()> = Mutex::new(());

/// Two-atom join whose cheap side depends on the data: atom 0 constrains
/// the predicate column with a constant, atom 1 the object column.
const FLIP_QUERY: &str = "SELECT ?x ?y ?q WHERE { ((?x, p0, ?y) AND (?x, ?q, o0)) }";

/// A triple catalog with `preds` distinct predicates and `objects`
/// distinct objects over `rows` subjects — the knob that decides which
/// `FLIP_QUERY` atom is selective. `p0` and `o0` always exist.
fn catalog(i: &mut Interner, rows: usize, preds: usize, objects: usize) -> Database {
    let mut spec = String::new();
    for r in 0..rows {
        spec.push_str(&format!("triple(s{r},p{},o{}) ", r % preds, r % objects));
    }
    parse_database(i, &spec).expect("catalog parses")
}

fn state_with(db: Database, i: Interner, cfg: ServeConfig) -> Arc<ServeState> {
    let mut dbs: BTreeMap<String, Database> = BTreeMap::new();
    dbs.insert("main".to_string(), db);
    ServeState::new(cfg, i, dbs, "main")
}

fn node0_order(state: &ServeState, query: &str) -> (Vec<usize>, &'static str) {
    let (plan, status) = state.plan_for(query).unwrap();
    let exec = plan.exec_plan();
    assert_eq!(exec.nodes.len(), 1, "FLIP_QUERY is a single AND node");
    (exec.nodes[0].order.clone(), status)
}

/// The `explain` object must carry the chosen plan: strategy name,
/// per-node atom order, and estimated vs last-observed cost.
#[test]
fn explain_attaches_the_chosen_plan() {
    let _guard = LOCK.lock().unwrap();
    let mut i = Interner::new();
    let db = catalog(&mut i, 200, 20, 2);
    let state = state_with(db, i, ServeConfig::default());
    let (plan, status) = state.plan_for(FLIP_QUERY).unwrap();

    let facts = plan.node_facts(CancelToken::never()).unwrap();
    let explain = explain_json(&plan, &facts, status);
    let plan_obj = explain.get("plan").expect("explain carries the plan");
    assert_eq!(
        plan_obj.get("strategy").and_then(Json::as_str),
        Some("auto"),
        "default config plans with auto"
    );
    let nodes = plan_obj
        .get("nodes")
        .and_then(Json::as_arr)
        .expect("plan lists per-node orders");
    assert_eq!(nodes.len(), 1);
    let order = nodes[0].get("order").and_then(Json::as_arr).unwrap();
    assert_eq!(order.len(), 2, "both atoms appear in the order");
    assert!(nodes[0].get("chosen").and_then(Json::as_str).is_some());
    assert!(plan_obj.get("est_nodes").and_then(Json::as_num).is_some());
    assert!(plan_obj
        .get("actual_nodes_last")
        .and_then(Json::as_num)
        .is_some());
}

/// Regression for stats staleness on hot reload: the statistics catalog
/// must swap atomically with the `Arc<Database>`, so a cached plan's next
/// hit re-plans against the *new* data shape. Here the reload flips the
/// skew — many predicates/few objects becomes few predicates/many objects
/// — and the cached entry's join order must flip with it.
#[test]
fn skew_flipping_reload_replans_the_cached_entry() {
    let _guard = LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("wdpt_planner_flip_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut i = Interner::new();
    let db = catalog(&mut i, 200, 20, 2);
    // The flipped catalog, saved as the snapshot the reload will serve.
    let snapshot = dir.join("flipped.snap");
    {
        let mut si = Interner::new();
        let flipped = catalog(&mut si, 200, 2, 20);
        wdpt_store::save_snapshot(&snapshot, &si, &flipped).unwrap();
    }
    let state = state_with(db, i, ServeConfig::default());

    // Before: predicates are selective (20 distinct vs 2 objects), so the
    // constant-predicate atom 0 leads.
    let (before, status) = node0_order(&state, FLIP_QUERY);
    assert_eq!(status, "miss");
    assert_eq!(
        before[0], 0,
        "constant-predicate atom must lead: {before:?}"
    );

    let no_deltas: &[&std::path::Path] = &[];
    state.reload("main", &snapshot, no_deltas).unwrap();

    // After: same cached entry (a hit), but the epoch check must rebuild
    // its exec plan against the flipped catalog — objects are now the
    // selective column, so the constant-object atom 1 leads.
    let metrics_before = metrics_snapshot();
    let (after, status) = node0_order(&state, FLIP_QUERY);
    let delta = metrics_snapshot().since(&metrics_before);
    assert_eq!(status, "hit", "the reload must not evict the plan cache");
    assert_eq!(after[0], 1, "constant-object atom must lead: {after:?}");
    assert_ne!(before, after);
    assert!(
        delta.counter("serve.plan.stats_refresh") >= 1,
        "the hit must refresh the stale exec plan"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// `wdpt-store gen-synth N --skew K` as a database.
fn synth(i: &mut Interner, triples: u64, skew: u64) -> Database {
    let mut nt = Vec::new();
    let params = wdpt_gen::SynthParams {
        seed: 7,
        ..wdpt_gen::SynthParams::sized_skewed(triples, skew)
    };
    wdpt_gen::write_synth_nt(&mut nt, params).unwrap();
    wdpt_serve::parse_dataset(i, std::str::from_utf8(&nt).unwrap()).unwrap()
}

/// What a worker does with one request of `query`, in-process: evaluate
/// the cached plan profiled, record the run, give the re-planner its turn.
/// Returns the `cq.nodes_expanded` of the run and whether it re-planned.
fn serve_once(state: &ServeState, query: &str) -> (Arc<Plan>, u64, bool) {
    let (plan, _) = state.plan_for(query).unwrap();
    let (db, stats) = state.db_with_stats("main").unwrap();
    let never = CancelToken::never();
    let exec = plan.exec_plan();
    let (answers, profile) = wdpt_core::try_evaluate_parallel_captured_planned(
        &plan.wdpt,
        &db,
        1,
        never,
        "test",
        Some(&exec),
    );
    answers.expect("never cancels");
    let nodes = profile.counter("cq.nodes_expanded");
    plan.stats.record_execution(10, Some(nodes));
    let replanned = maybe_replan(&plan, &stats, 4, 3, never).unwrap();
    (plan, nodes, replanned)
}

/// Heavy hitters are in the catalog, so they are priced, not discovered:
/// on `gen-synth --skew 8` data the `p0` self-join — 80% of the triples,
/// which the uniform `rows/distinct` estimate missed by 50× — runs at its
/// estimate and never trips the re-planner. (That every strategy starts the
/// star from `p1` is `wdpt_core::planning`'s test.)
#[test]
fn heavy_hitters_are_priced_from_the_catalog() {
    let _guard = LOCK.lock().unwrap();
    const SELF_JOIN: &str = "SELECT ?x ?y ?z WHERE { ((?x, p0, ?y) AND (?y, p0, ?z)) }";
    let mut i = Interner::new();
    let db = synth(&mut i, 20_000, 8);
    let state = state_with(db, i, ServeConfig::default());
    let metrics_before = metrics_snapshot();
    for _ in 0..6 {
        let (plan, nodes, replanned) = serve_once(&state, SELF_JOIN);
        assert!(!replanned);
        let est = plan.exec_plan().est_nodes();
        assert!(nodes > 10_000, "p0 should hold most of the data: {nodes}");
        assert!(
            est / 4.0 <= nodes as f64 && nodes as f64 <= est * 4.0,
            "estimated {est}, expanded {nodes}"
        );
    }
    let delta = metrics_snapshot().since(&metrics_before);
    assert_eq!(delta.counter("serve.plan.replans"), 0);
}

/// What still trips the re-planner is what the catalog cannot know:
/// correlated columns. Every `likes` triple has the object `pizza` and
/// vice versa, so `(?x, likes, pizza)` matches a fifth of the rows where
/// independence predicts a twenty-fifth — both constants priced exactly,
/// their conjunction five-fold under — and three such runs in a row rotate
/// the strategy.
#[test]
fn correlated_columns_trigger_a_replan() {
    let _guard = LOCK.lock().unwrap();
    let mut spec = String::new();
    for r in 0..2000 {
        if r % 5 == 0 {
            spec.push_str(&format!("triple(s{r},likes,pizza) "));
        } else {
            spec.push_str(&format!("triple(s{r},p{},o{}) ", r % 7, r % 11));
        }
    }
    let mut i = Interner::new();
    let db = parse_database(&mut i, &spec).unwrap();
    let state = state_with(db, i, ServeConfig::default());
    const QUERY: &str = "SELECT ?x ?q WHERE { ((?x, likes, pizza) AND (?x, ?q, pizza)) }";

    let metrics_before = metrics_snapshot();
    let (plan, nodes, replanned) = serve_once(&state, QUERY);
    let est = plan.exec_plan().est_nodes();
    assert!(
        nodes as f64 >= 4.0 * est,
        "estimated {est}, expanded {nodes}"
    );
    assert!(!replanned, "one divergent run is an outlier");
    assert!(!serve_once(&state, QUERY).2);
    assert!(serve_once(&state, QUERY).2, "the third in a row re-plans");
    let delta = metrics_snapshot().since(&metrics_before);
    assert_eq!(delta.counter("serve.plan.replans"), 1);
    assert_eq!(plan.exec_plan().strategy, Strategy::Dp);
}

/// Sustained estimate/observation divergence must rotate the entry to the
/// next strategy and count a re-plan; a single outlier must not.
#[test]
fn sustained_divergence_triggers_a_replan() {
    let _guard = LOCK.lock().unwrap();
    let mut i = Interner::new();
    let db = catalog(&mut i, 200, 20, 2);
    let state = state_with(db, i, ServeConfig::default());
    let (plan, _) = state.plan_for(FLIP_QUERY).unwrap();
    let (_, stats) = state.db_with_stats("main").unwrap();
    let token = CancelToken::new();
    let est = plan.exec_plan().est_nodes();
    let divergent = (est * 100.0) as u64 + 100;

    let metrics_before = metrics_snapshot();
    // One outlier: streak resets path must not fire a re-plan.
    plan.stats.record_execution(10, Some(divergent));
    assert!(!maybe_replan(&plan, &stats, 4, 3, &token).unwrap());
    plan.stats.record_execution(10, Some(0));
    assert!(!maybe_replan(&plan, &stats, 4, 3, &token).unwrap());

    // Three consecutive divergent runs: the third fires.
    for _ in 0..2 {
        plan.stats.record_execution(10, Some(divergent));
        assert!(!maybe_replan(&plan, &stats, 4, 3, &token).unwrap());
    }
    plan.stats.record_execution(10, Some(divergent));
    assert!(maybe_replan(&plan, &stats, 4, 3, &token).unwrap());
    let delta = metrics_snapshot().since(&metrics_before);
    assert_eq!(delta.counter("serve.plan.replans"), 1);

    // The rotation left a concrete strategy installed: auto rotates to dp.
    let after = plan.exec_plan();
    assert_eq!(after.strategy, Strategy::Dp);

    // replan_runs = 0 disables the machinery outright.
    plan.stats.record_execution(10, Some(divergent));
    assert!(!maybe_replan(&plan, &stats, 4, 0, &token).unwrap());
}
