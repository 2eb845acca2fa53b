//! Cost-based planning under serve: explain exposure, stats staleness
//! across hot reload (the one re-plan trigger), heavy hitters priced from
//! the catalog, and correlated columns visible as estimate against observed.
//!
//! These tests read the global `wdpt-obs` metrics registry, so every test
//! takes a file-local mutex to serialize against its siblings; the file is
//! its own process, so other test binaries cannot interfere.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use wdpt_model::parse::parse_database;
use wdpt_model::{CancelToken, Database, Interner};
use wdpt_obs::{metrics_snapshot, read_json_line, write_json_line, Json};
use wdpt_serve::cache::{exec_plan_json, explain_json};
use wdpt_serve::{serve, Plan, ServeConfig, ServeState};

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

/// The `explain` object must carry the chosen plan: per-node atom order
/// with the enumerator that chose it, and estimated vs last-observed cost.
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
    let nodes = plan_obj
        .get("nodes")
        .and_then(Json::as_arr)
        .expect("plan lists per-node orders");
    assert_eq!(nodes.len(), 1);
    let order = nodes[0].get("order").and_then(Json::as_arr).unwrap();
    assert_eq!(order.len(), 2, "both atoms appear in the order");
    let chosen = nodes[0].get("chosen").and_then(Json::as_str);
    assert!(matches!(chosen, Some("greedy" | "dp")), "{chosen:?}");
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

/// `wdpt gen-synth N --skew K` as a database.
fn synth(i: &mut Interner, triples: u64, skew: u64) -> Database {
    let mut nt = Vec::new();
    let params = wdpt_gen::SynthParams {
        seed: 7,
        ..wdpt_gen::SynthParams::sized_skewed(triples, skew)
    };
    wdpt_gen::write_synth_nt(&mut nt, params).unwrap();
    let opts = wdpt_store::LoadOptions::default();
    wdpt_store::bulk_load(i, &mut std::io::Cursor::new(nt), opts)
        .unwrap()
        .0
}

/// What the server does with one request of `query`, in-process: evaluate
/// the cached plan and record the run. Returns the plan and the search
/// nodes the run expanded, by its own tally.
fn serve_once(state: &ServeState, query: &str) -> (Arc<Plan>, u64) {
    let (plan, _) = state.plan_for(query).unwrap();
    let db = state.db("main").unwrap();
    let exec = plan.exec_plan();
    let (answers, tally) = wdpt_core::evaluate_rows(
        &plan.wdpt,
        &db,
        1,
        CancelToken::never(),
        Some(&exec),
        usize::MAX,
    );
    answers.expect("never cancels");
    plan.stats.record_execution(10, tally.work.nodes_expanded);
    (plan, tally.work.nodes_expanded)
}

/// Heavy hitters are in the catalog, so they are priced, not discovered:
/// on `gen-synth --skew 8` data the `p0` self-join — 80% of the triples,
/// which the uniform `rows/distinct` estimate missed by 50× — runs within
/// 4× of its estimate. (That every enumerator starts the star from `p1` is
/// `wdpt_core::planning`'s test.)
#[test]
fn heavy_hitters_are_priced_from_the_catalog() {
    let _guard = LOCK.lock().unwrap();
    const SELF_JOIN: &str = "SELECT ?x ?y ?z WHERE { ((?x, p0, ?y) AND (?y, p0, ?z)) }";
    let mut i = Interner::new();
    let db = synth(&mut i, 20_000, 8);
    let state = state_with(db, i, ServeConfig::default());
    for _ in 0..6 {
        let (plan, nodes) = serve_once(&state, SELF_JOIN);
        let est = plan.exec_plan().est_nodes();
        assert!(nodes > 10_000, "p0 should hold most of the data: {nodes}");
        assert!(
            est / 4.0 <= nodes as f64 && nodes as f64 <= est * 4.0,
            "estimated {est}, expanded {nodes}"
        );
    }
}

/// What the catalog cannot know is correlated columns. Every `likes` triple
/// has the object `pizza` and vice versa, so `(?x, likes, pizza)` matches a
/// fifth of the rows where independence predicts a twenty-fifth — both
/// constants priced exactly, their conjunction five-fold under. Nothing
/// re-plans on that (every enumerator reads the same statistics and would
/// re-install the same order): the plan keeps its order, and the divergence
/// shows where an operator looks for it.
#[test]
fn correlated_columns_show_as_estimate_against_observed() {
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

    let (plan, nodes) = serve_once(&state, QUERY);
    let first = plan.exec_plan();
    let est = first.est_nodes();
    assert!(
        nodes as f64 >= 4.0 * est,
        "estimated {est}, expanded {nodes}"
    );
    for _ in 0..9 {
        assert_eq!(serve_once(&state, QUERY).1, nodes);
    }
    assert!(
        Arc::ptr_eq(&first, &plan.exec_plan()),
        "ten divergent runs leave the orders in force untouched"
    );
    let shown = exec_plan_json(&plan);
    assert_eq!(shown.get("est_nodes").and_then(Json::as_num), Some(est));
    assert_eq!(
        shown.get("actual_nodes_last").and_then(Json::as_num),
        Some(nodes as f64)
    );
}

/// The `cq.nodes_expanded` counter of a served profile (0 when absent).
fn profiled_nodes(profile: &Json) -> u64 {
    let counters = profile.get("counters").and_then(Json::as_arr);
    let named = |c: &&Json| c.get("name").and_then(Json::as_str) == Some("cq.nodes_expanded");
    let value = counters.and_then(|cs| cs.iter().find(named));
    value
        .and_then(|c| c.get("value"))
        .and_then(Json::as_num)
        .map_or(0, |v| v as u64)
}

/// Per-plan `nodes_expanded` figures and served profiles are each run's own
/// count. Two connections drive two different queries through four
/// permits, 200 requests each, every fifth one asking for a `profile`:
/// each profile counts exactly what one run of its query expands, and
/// afterwards each plan has expanded exactly executions × that. When
/// every request ran under a recorder diffing the process-wide counters,
/// a plan was charged whatever the *process* expanded meanwhile; while a
/// recorder still built the `profile: true` responses, such a profile did
/// the same.
#[test]
fn concurrent_requests_count_their_own_work() {
    let _guard = LOCK.lock().unwrap();
    const OTHER_QUERY: &str = "SELECT ?x ?y WHERE { (?x, p1, ?y) }";
    const REQUESTS: usize = 200;
    let mut i = Interner::new();
    let db = catalog(&mut i, 200, 20, 2);
    let cfg = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    };
    let state = state_with(db, i, cfg);
    let solo = [FLIP_QUERY, OTHER_QUERY].map(|q| serve_once(&state, q).1);
    assert!(solo[0] > 0 && solo[1] > 0 && solo[0] != solo[1], "{solo:?}");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || serve(listener, state))
    };
    std::thread::scope(|s| {
        for (query, solo) in [FLIP_QUERY, OTHER_QUERY].into_iter().zip(solo) {
            s.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = BufWriter::new(stream);
                for n in 0..REQUESTS {
                    let request = Json::obj([
                        ("op", Json::str("query")),
                        ("query", Json::str(query)),
                        ("max_rows", Json::int(1)),
                        ("profile", Json::Bool(n % 5 == 0)),
                    ]);
                    write_json_line(&mut writer, &request).unwrap();
                    writer.flush().unwrap();
                    let terminal = loop {
                        let line = read_json_line(&mut reader).unwrap().expect("a response");
                        if line.get("kind").and_then(Json::as_str) != Some("row") {
                            break line;
                        }
                    };
                    assert_eq!(
                        terminal.get("status").and_then(Json::as_str),
                        Some("ok"),
                        "{terminal}"
                    );
                    if let Some(profile) = terminal.get("profile") {
                        assert_eq!(
                            profiled_nodes(profile),
                            solo,
                            "{query}, request {n}: {profile}"
                        );
                    }
                }
            });
        }
    });
    state.begin_shutdown();
    server.join().expect("server thread").expect("clean drain");

    for (query, solo) in [FLIP_QUERY, OTHER_QUERY].into_iter().zip(solo) {
        let (plan, status) = state.plan_for(query).unwrap();
        assert_eq!(status, "hit");
        // The solo run recorded itself too.
        assert_eq!(plan.stats.executions(), REQUESTS as u64 + 1);
        assert_eq!(
            plan.stats.nodes_expanded_total(),
            plan.stats.executions() * solo,
            "{query}"
        );
        assert_eq!(plan.stats.nodes_expanded_last(), solo);
    }
}
