//! The served executor's own table: tests of work growth for the path the
//! server runs — statistics of the database, `plan_wdpt(.., Strategy::Auto,
//! ..)`, then `evaluate_rows` under that plan. Each family sweeps the
//! database at a fixed query and asserts how the search's nodes and scanned
//! tuples grow, with the [`Series`] of `paper_tables.rs`:
//!
//! * a point lookup with an OPT child: flat;
//! * a star through a heavy hitter: linear in its answers;
//! * the Figure-1 query over `music_catalog`: linear in bands;
//! * a 6-atom chain with a selective far end over `random_graph_db`:
//!   linear in edges.
//!
//! The linear ceilings have teeth: each fails on the planned series of the
//! hub triangle, whose static atom order walks a hub's whole adjacency per
//! edge into it, four times the work per doubling of the edges. The hub
//! triangle gets a linear ceiling of its own once the search binds a
//! variable at a time.
//!
//! **How the counts are read.** Statistics and plan are built outside the
//! counting window; only the evaluation runs inside a
//! [`wdpt_obs::delta_scope`], which serialises its windows on one mutex, so
//! each window holds exactly the evaluation's work.
//!
//! Run `cargo test --test served_growth -- --nocapture` to print every
//! series.

use wdpt::core::{evaluate_rows, parse_wdpt, plan_wdpt, Wdpt};
use wdpt::gen::db::random_graph_db;
use wdpt::gen::music::{figure1_wdpt, music_catalog, MusicParams};
use wdpt::model::CancelToken;
use wdpt::plan::{StatsCatalog, Strategy};
use wdpt::{Database, Interner};
use wdpt_obs::{delta_scope, MetricsSnapshot};

mod growth;
use growth::Series;

const NODES: &str = "cq.nodes_expanded";
const TUPLES: &str = "db.tuples_scanned";

/// The degree the linear families' counts stay within between points.
const LINEAR: f64 = 1.2;

/// Evaluates `p` over `db` as the server does, on one thread: the number
/// of answers, and the window holding the evaluation's work.
fn served(p: &Wdpt, db: &Database) -> (usize, MetricsSnapshot) {
    let never = CancelToken::never();
    let stats = StatsCatalog::build(db);
    let plan = plan_wdpt(p, &stats, Strategy::Auto, never).expect("the never token cannot cancel");
    let (answers, window) = delta_scope(|| evaluate_rows(p, db, 1, never, Some(&plan), 0).0);
    let answers = answers.expect("the never token cannot cancel");
    (answers.len(), window)
}

/// The tree of `text`, over `i`.
fn tree(i: &mut Interner, text: &str) -> Wdpt {
    parse_wdpt(i, text).expect("a well-designed tree")
}

/// Facts `pred(a, b)` for each pair, interned in `i`.
fn insert(i: &mut Interner, db: &mut Database, pred: &str, rows: &[(String, String)]) {
    let pred = i.pred(pred);
    for (a, b) in rows {
        db.insert(pred, vec![i.constant(a), i.constant(b)]);
    }
}

#[test]
fn a_point_lookup_with_an_opt_child_is_flat_in_the_database() {
    // Subject `s{k}` has three objects, two of which have an `f` fact; the
    // lookup reads subject 7's block and its children's, however many
    // subjects there are.
    let windows: Vec<(usize, MetricsSnapshot)> = [1_000, 2_000, 4_000, 8_000]
        .into_iter()
        .map(|rows| {
            let mut i = Interner::new();
            let mut db = Database::new();
            let e: Vec<_> = (0..rows)
                .map(|j| (format!("s{}", j / 3), format!("o{j}")))
                .collect();
            let f: Vec<_> = (0..rows)
                .filter(|j| j % 3 < 2)
                .map(|j| (format!("o{j}"), format!("z{j}")))
                .collect();
            insert(&mut i, &mut db, "e", &e);
            insert(&mut i, &mut db, "f", &f);
            let p = tree(
                &mut i,
                "FREE ?y ?z\nNODE root { e(s7, ?y) }\nNODE opt PARENT root { f(?y, ?z) }",
            );
            let (answers, window) = served(&p, &db);
            assert_eq!(answers, 3, "{rows} rows");
            (rows, window)
        })
        .collect();
    Series::of("point lookup + OPT child (e rows)", &windows, NODES).flat();
    Series::of("point lookup + OPT child (e rows)", &windows, TUPLES).flat();
}

/// The star `t(?s, hot, ?a), t(?s, p1, ?b), t(?s, p2, ?c)` over `n`
/// subjects that hold all three predicates and `n² / 64` more that hold
/// only the heavy hitter `hot`: `n` answers, which a plan starting from
/// `hot` would reach only through a quadratic scan.
fn star_db(i: &mut Interner, n: usize) -> Database {
    let t = i.pred("t");
    let mut db = Database::new();
    let mut fact = |i: &mut Interner, s: String, p: &str, o: String| {
        db.insert(t, vec![i.constant(&s), i.constant(p), i.constant(&o)]);
    };
    for j in 0..n {
        fact(i, format!("s{j}"), "hot", format!("h{}", j % 7));
        fact(i, format!("s{j}"), "p1", format!("a{j}"));
        fact(i, format!("s{j}"), "p2", format!("b{}", j % 5));
    }
    for k in 0..n * n / 64 {
        fact(i, format!("u{k}"), "hot", format!("h{}", k % 7));
    }
    db
}

#[test]
fn a_star_through_a_heavy_hitter_is_linear_in_its_answers() {
    let windows: Vec<(usize, MetricsSnapshot)> = [256, 512, 1_024, 2_048]
        .into_iter()
        .map(|n| {
            let mut i = Interner::new();
            let db = star_db(&mut i, n);
            let p = tree(
                &mut i,
                "FREE ?s ?a ?b ?c\nNODE root { t(?s, hot, ?a), t(?s, p1, ?b), t(?s, p2, ?c) }",
            );
            let (answers, window) = served(&p, &db);
            assert_eq!(answers, n);
            (answers, window)
        })
        .collect();
    Series::of("heavy-hitter star (answers)", &windows, NODES).ceiling(LINEAR);
    Series::of("heavy-hitter star (answers)", &windows, TUPLES).ceiling(LINEAR);
}

#[test]
fn figure1_over_the_music_catalog_is_linear_in_bands() {
    let windows: Vec<(usize, MetricsSnapshot)> = [100, 200, 400, 800]
        .into_iter()
        .map(|bands| {
            let mut i = Interner::new();
            let params = MusicParams {
                bands,
                ..MusicParams::default()
            };
            let db = music_catalog(&mut i, params);
            let p = figure1_wdpt(&mut i);
            (bands, served(&p, &db).1)
        })
        .collect();
    Series::of("Figure 1, music catalog (bands)", &windows, NODES).ceiling(LINEAR);
    Series::of("Figure 1, music catalog (bands)", &windows, TUPLES).ceiling(LINEAR);
}

/// A random graph of `edges` edges over `edges / 2` nodes, every 8th node
/// marked `m`.
fn marked_graph(i: &mut Interner, edges: usize) -> Database {
    let (mut db, _) = random_graph_db(i, edges / 2, edges, 48);
    let m = i.pred("m");
    for k in (0..edges / 2).step_by(8) {
        db.insert(m, vec![i.constant(&format!("c{k}"))]);
    }
    db
}

#[test]
fn a_chain_with_a_selective_far_end_is_linear_in_the_edges() {
    let windows: Vec<(usize, MetricsSnapshot)> = [1_000, 2_000, 4_000, 8_000]
        .into_iter()
        .map(|edges| {
            let mut i = Interner::new();
            let db = marked_graph(&mut i, edges);
            let p = tree(
                &mut i,
                "FREE ?x0 ?x5\nNODE root { e(?x0, ?x1), e(?x1, ?x2), e(?x2, ?x3), e(?x3, ?x4), e(?x4, ?x5), m(?x5) }",
            );
            (edges, served(&p, &db).1)
        })
        .collect();
    Series::of("6-atom chain, marked far end (edges)", &windows, NODES).ceiling(LINEAR);
    Series::of("6-atom chain, marked far end (edges)", &windows, TUPLES).ceiling(LINEAR);
}

/// `edges / 2` edges into a hub and as many out of it, and the triangle
/// query: a static order binds an edge into the hub, then walks the hub's
/// whole out-list before the closing atom refuses each of them.
fn hub_triangle(edges: usize) -> (usize, MetricsSnapshot) {
    let mut i = Interner::new();
    let mut db = Database::new();
    let into: Vec<_> = (0..edges / 2)
        .map(|k| (format!("v{k}"), "hub".to_owned()))
        .collect();
    let out: Vec<_> = (0..edges / 2)
        .map(|k| ("hub".to_owned(), format!("w{k}")))
        .collect();
    insert(&mut i, &mut db, "e", &into);
    insert(&mut i, &mut db, "e", &out);
    let p = tree(
        &mut i,
        "FREE ?x ?y ?z\nNODE root { e(?x, ?y), e(?y, ?z), e(?z, ?x) }",
    );
    let (answers, window) = served(&p, &db);
    assert_eq!(answers, 0);
    (edges, window)
}

#[test]
fn the_linear_ceilings_fail_on_the_hub_triangle() {
    let windows: Vec<(usize, MetricsSnapshot)> =
        [500, 1_000, 2_000].into_iter().map(hub_triangle).collect();
    for name in [NODES, TUPLES] {
        let hub = Series::of("hub triangle, planned (edges)", &windows, name);
        // Four times the work per doubling: a degree of 2 at every step.
        assert!(hub.steeper_than(1.9).is_some() && hub.steeper_than(2.1).is_none());
        assert!(
            hub.steeper_than(LINEAR).is_some(),
            "{name}: a linear ceiling passed"
        );
    }
}
