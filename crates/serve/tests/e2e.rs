//! End-to-end protocol tests: an in-process server on an ephemeral port,
//! driven over real sockets.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wdpt_gen::music::MusicParams;
use wdpt_model::{Database, Interner, SymbolSpace};
use wdpt_obs::{read_json_line, write_json_line, Json};
use wdpt_serve::{serve, ServeConfig, ServeState};
use wdpt_sparql::parse_query;

const BASE: &str = r#"SELECT ?x ?y ?z WHERE { (((?x, rec_by, ?y) AND (?x, publ, "after_2010")) OPT (?x, nme_rating, ?z)) OPT (?y, formed_in, ?w) }"#;
const RENAMED: &str = r#"SELECT ?a ?b ?c WHERE { (((?a, rec_by, ?b) AND (?a, publ, "after_2010")) OPT (?a, nme_rating, ?c)) OPT (?b, formed_in, ?d) }"#;
/// A 4-way cross product over *distinct* predicates: planning is trivial
/// (each atom only maps to itself in the frozen database, so the core
/// search is instant) while evaluation is a huge cross product that
/// reliably outlives the deadlines used here.
const HEAVY: &str =
    "((((?a, rec_by, ?b) AND (?c, rec_by, ?d)) AND (?e, publ, ?f)) AND (?g, nme_rating, ?h))";

struct Server {
    addr: SocketAddr,
    state: Arc<ServeState>,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start(cfg: ServeConfig) -> Server {
    let mut i = Interner::new();
    let ts = wdpt_gen::music_triples(
        &mut i,
        MusicParams {
            bands: 30,
            records_per_band: 4,
            recent_fraction: 1.0,
            ..MusicParams::default()
        },
    );
    start_with(cfg, i, ts.into_database())
}

/// A server over `db` (interned by `i`) as its one database, `music`.
fn start_with(cfg: ServeConfig, i: Interner, db: Database) -> Server {
    let mut dbs: BTreeMap<String, Database> = BTreeMap::new();
    dbs.insert("music".to_string(), db);
    let state = ServeState::new(cfg, i, dbs, "music");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let st = Arc::clone(&state);
    let handle = std::thread::spawn(move || serve(listener, st));
    Server {
        addr,
        state,
        handle,
    }
}

impl Server {
    fn shutdown_and_join(self) {
        self.state.begin_shutdown();
        self.handle
            .join()
            .expect("server thread must not panic")
            .expect("serve() must drain cleanly");
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: BufWriter::new(stream),
        }
    }

    fn send_raw(&mut self, line: &str) {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
    }

    fn send_bytes(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).unwrap();
        self.writer.flush().unwrap();
    }

    fn send(&mut self, req: &Json) {
        write_json_line(&mut self.writer, req).unwrap();
        self.writer.flush().unwrap();
    }

    /// Reads lines until the terminal status line; returns `(status_line,
    /// rows)`.
    fn response(&mut self) -> (Json, Vec<Json>) {
        let mut rows = Vec::new();
        loop {
            let line = read_json_line(&mut self.reader)
                .expect("read response")
                .expect("connection closed mid-response");
            if line.get("kind").and_then(Json::as_str) == Some("row") {
                rows.push(line);
                continue;
            }
            return (line, rows);
        }
    }

    fn round_trip(&mut self, req: &Json) -> (Json, Vec<Json>) {
        self.send(req);
        self.response()
    }
}

fn query(id: &str, text: &str) -> Json {
    Json::obj([
        ("op", Json::str("query")),
        ("id", Json::str(id)),
        ("query", Json::str(text)),
    ])
}

fn query_with(id: &str, text: &str, extra: &[(&str, Json)]) -> Json {
    let mut pairs = vec![
        ("op".to_string(), Json::str("query")),
        ("id".to_string(), Json::str(id)),
        ("query".to_string(), Json::str(text)),
    ];
    for (k, v) in extra {
        pairs.push((k.to_string(), v.clone()));
    }
    Json::obj(pairs)
}

/// The first node's facts in an `explain` response.
fn explained_root(line: &Json) -> &Json {
    let nodes = line.get("explain").and_then(|e| e.get("nodes"));
    &nodes.and_then(Json::as_arr).expect("explain carries nodes")[0]
}

fn status_of(line: &Json) -> &str {
    line.get("status").and_then(Json::as_str).unwrap_or("?")
}

#[test]
fn query_rows_and_cache_hits_over_the_wire() {
    let server = start(ServeConfig::default());
    let mut c = Client::connect(server.addr);

    // Ping first.
    let (pong, _) = c.round_trip(&Json::obj([("op", Json::str("ping"))]));
    assert_eq!(pong.get("kind").and_then(Json::as_str), Some("pong"));

    // First query: a miss with one row per record (recent_fraction = 1).
    let (ok1, rows1) = c.round_trip(&query("q1", BASE));
    assert_eq!(status_of(&ok1), "ok", "got {ok1}");
    assert_eq!(ok1.get("cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(ok1.get("answers").and_then(Json::as_num), Some(120.0));
    assert_eq!(rows1.len(), 120);
    // Bindings use the request's variable names.
    let b = rows1[0].get("bindings").unwrap();
    assert!(b.get("x").is_some() && b.get("y").is_some());
    assert!(b.get("a").is_none());

    // Same query again: a hit.
    let (ok2, rows2) = c.round_trip(&query("q2", BASE));
    assert_eq!(ok2.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(rows2.len(), 120);

    // α-renamed: also a hit, answered in the renamed vocabulary.
    let (ok3, rows3) = c.round_trip(&query("q3", RENAMED));
    assert_eq!(ok3.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(ok3.get("id").and_then(Json::as_str), Some("q3"));
    let b3 = rows3[0].get("bindings").unwrap();
    assert!(b3.get("a").is_some() && b3.get("x").is_none());

    // The same rows, modulo renaming.
    let xs = |rows: &[Json], var: &str| {
        let mut v: Vec<String> = rows
            .iter()
            .filter_map(|r| r.get("bindings")?.get(var)?.as_str().map(str::to_string))
            .collect();
        v.sort();
        v
    };
    assert_eq!(xs(&rows1, "x"), xs(&rows3, "a"));

    // max_rows truncates rows but reports the full answer count.
    let (ok4, rows4) = c.round_trip(&query_with("q4", BASE, &[("max_rows", Json::int(5))]));
    assert_eq!(ok4.get("answers").and_then(Json::as_num), Some(120.0));
    assert_eq!(ok4.get("rows").and_then(Json::as_num), Some(5.0));
    assert_eq!(rows4.len(), 5);

    // Profiles attach on request.
    let (ok5, _) = c.round_trip(&query_with("q5", BASE, &[("profile", Json::Bool(true))]));
    assert!(ok5.get("profile").is_some(), "got {ok5}");

    // Stats reflect the hits.
    let (stats, _) = c.round_trip(&Json::obj([("op", Json::str("stats"))]));
    let hits = stats
        .get("counters")
        .and_then(|cs| cs.get("serve.plan_cache.hit"))
        .and_then(Json::as_num)
        .unwrap_or(0.0);
    assert!(hits >= 2.0, "expected >= 2 cache hits, stats: {stats}");

    server.shutdown_and_join();
}

/// Whole responses, byte for byte (`wall_us` aside): the rows the server
/// writes from the executor's cells are the lines the `Json` encoder wrote
/// — key order, escapes, the echoed id, the order of rows, and the `rows` /
/// `answers` counts under every kind of `max_rows`.
#[test]
fn response_bytes_are_pinned() {
    let mut i = Interner::new();
    let mut store = wdpt_sparql::TripleStore::new();
    for (s, p, o) in [
        ("ann", "knows", "bob"),
        ("ann", "knows", "cy"),
        ("bob", "knows", "cy"),
        ("cy", "knows", "dee"),
        ("dee", "knows", "ann"),
        ("bob", "age", "30"),
        ("cy", "age", "4\"1\\\n"),
        ("dee", "age", "né 🎶"),
        ("ann", "likes", "tea"),
        ("bob", "likes", "tea"),
    ] {
        assert!(store.insert_str(&mut i, s, p, o));
    }
    let server = start_with(ServeConfig::default(), i, store.into_database());
    let stream = TcpStream::connect(server.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    // One request line in, the response's bytes out, up to and including
    // the terminal line, with the digits of `wall_us` cut.
    let mut exchange = |request: String| -> String {
        use std::io::BufRead;
        writeln!(writer, "{request}").unwrap();
        let mut response = String::new();
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "closed early");
            if !line.contains("\"status\":") {
                response.push_str(&line);
                continue;
            }
            let (head, rest) = line.split_once("\"wall_us\":").expect("an ok line");
            let digits = rest.chars().take_while(char::is_ascii_digit).count();
            assert!(digits > 0);
            response.push_str(&format!("{head}\"wall_us\":{}", &rest[digits..]));
            return response;
        }
    };

    // Projection-free, no id; `?friend` < `?n` < `?who` on the wire although
    // the query (and the canonical numbering) meets `?who` first.
    let free = "((?who, knows, ?friend) OPT (?friend, age, ?n))";
    let free_rows = [
        r#"{"bindings":{"friend":"bob","n":"30","who":"ann"},"kind":"row"}"#,
        r#"{"bindings":{"friend":"cy","n":"4\"1\\\n","who":"ann"},"kind":"row"}"#,
        r#"{"bindings":{"friend":"cy","n":"4\"1\\\n","who":"bob"},"kind":"row"}"#,
        r#"{"bindings":{"friend":"dee","n":"né 🎶","who":"cy"},"kind":"row"}"#,
        r#"{"bindings":{"friend":"ann","who":"dee"},"kind":"row"}"#,
    ]
    .map(|line| format!("{line}\n"));
    // Projected with an id that needs escaping: `?who` goes, and the two
    // rows that end in `cy` collapse into one.
    let projected = "SELECT ?friend ?n WHERE { ((?who, knows, ?friend) OPT (?friend, age, ?n)) }";
    let projected_rows = [
        r#"{"bindings":{"friend":"ann"},"id":"p\"1","kind":"row"}"#,
        r#"{"bindings":{"friend":"bob","n":"30"},"id":"p\"1","kind":"row"}"#,
        r#"{"bindings":{"friend":"cy","n":"4\"1\\\n"},"id":"p\"1","kind":"row"}"#,
        r#"{"bindings":{"friend":"dee","n":"né 🎶"},"id":"p\"1","kind":"row"}"#,
    ]
    .map(|line| format!("{line}\n"));
    let mut cache = "miss";
    for max_rows in [free_rows.len(), 0, 1, free_rows.len() + 1] {
        let sent = max_rows.min(free_rows.len());
        let got = exchange(format!(
            r#"{{"op":"query","query":"{free}","max_rows":{max_rows}}}"#
        ));
        let want = format!(
            "{}{{\"answers\":{},\"cache\":\"{cache}\",\"rows\":{sent},\"status\":\"ok\",\"wall_us\":}}\n",
            free_rows[..sent].concat(),
            free_rows.len(),
        );
        assert_eq!(got, want, "max_rows {max_rows}");
        cache = "hit";
    }
    let mut cache = "miss";
    for max_rows in [projected_rows.len(), 0, 1, projected_rows.len() + 1] {
        let sent = max_rows.min(projected_rows.len());
        let got = exchange(format!(
            r#"{{"op":"query","id":"p\"1","query":"{projected}","max_rows":{max_rows}}}"#
        ));
        let want = format!(
            "{}{{\"answers\":{},\"cache\":\"{cache}\",\"id\":\"p\\\"1\",\"rows\":{sent},\"status\":\"ok\",\"wall_us\":}}\n",
            projected_rows[..sent].concat(),
            projected_rows.len(),
        );
        assert_eq!(got, want, "max_rows {max_rows}");
        cache = "hit";
    }
    // Projection-free, and `max_rows` cuts through the four rows with
    // `?who` = ann: the two sent are the first two of the seven in order.
    let pairs = "((?who, knows, ?friend) OPT (?who, knows, ?other))";
    let got = exchange(format!(
        r#"{{"op":"query","query":"{pairs}","max_rows":2}}"#
    ));
    let want = concat!(
        r#"{"bindings":{"friend":"bob","other":"bob","who":"ann"},"kind":"row"}"#,
        "\n",
        r#"{"bindings":{"friend":"bob","other":"cy","who":"ann"},"kind":"row"}"#,
        "\n",
        r#"{"answers":7,"cache":"miss","rows":2,"status":"ok","wall_us":}"#,
        "\n",
    );
    assert_eq!(got, want);
    server.shutdown_and_join();
}

#[test]
fn invalid_requests_get_typed_errors() {
    let server = start(ServeConfig::default());
    let mut c = Client::connect(server.addr);

    // Parse error with a byte offset into the query text.
    let (e1, rows) = c.round_trip(&query("e1", "SELECT ?x WHERE { (?x, rec_by) }"));
    assert_eq!(status_of(&e1), "error");
    assert_eq!(e1.get("kind").and_then(Json::as_str), Some("parse_error"));
    assert!(e1.get("at").and_then(Json::as_num).is_some());
    assert!(rows.is_empty());

    // Duplicate SELECT variable (parser hardening).
    let (e2, _) = c.round_trip(&query("e2", "SELECT ?x ?x WHERE { (?x, rec_by, ?y) }"));
    assert_eq!(e2.get("kind").and_then(Json::as_str), Some("parse_error"));
    assert!(e2
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("duplicate"));

    // Unknown database.
    let (e3, _) = c.round_trip(&query_with("e3", BASE, &[("db", Json::str("nope"))]));
    assert_eq!(e3.get("kind").and_then(Json::as_str), Some("unknown_db"));

    // Non-JSON line.
    c.send_raw("this is not json");
    let (e4, _) = c.response();
    assert_eq!(e4.get("kind").and_then(Json::as_str), Some("bad_request"));
    // 40 kB of nesting, far under the line limit: parsed by unbounded
    // recursion, it would overflow this connection thread's stack and
    // abort the whole server.
    c.send_raw(&"[".repeat(20_000));
    let (deep, _) = c.response();
    assert_eq!(deep.get("kind").and_then(Json::as_str), Some("bad_request"));

    // Unknown op.
    let (e5, _) = c.round_trip(&Json::obj([("op", Json::str("explode"))]));
    assert_eq!(e5.get("kind").and_then(Json::as_str), Some("bad_request"));

    // Non-well-designed pattern: ?z in the OPT right side and again
    // outside, but not on the left.
    let nwd = "(((?x, p, ?y) OPT (?x, q, ?z)) AND (?z, r, ?w))";
    let (e6, _) = c.round_trip(&query("e6", nwd));
    assert_eq!(
        e6.get("kind").and_then(Json::as_str),
        Some("not_well_designed"),
        "got {e6}"
    );
    // A SELECT variable the pattern lacks is turned away by the parser,
    // before translation could report it as `unknown_select_var`.
    let (e7, _) = c.round_trip(&query("e7", "SELECT ?nope WHERE { (?x, rec_by, ?y) }"));
    assert_eq!(
        e7.get("kind").and_then(Json::as_str),
        Some("parse_error"),
        "got {e7}"
    );
    // Both messages name the client's variable, not a canonical one.
    for (e, var) in [(&e6, "?z"), (&e7, "?nope")] {
        let message = e.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains(var) && !message.contains('#'), "got {e}");
    }

    // The connection survives all of it, and so does the server.
    let (ok, _) = c.round_trip(&query("ok", BASE));
    assert_eq!(status_of(&ok), "ok");
    let mut fresh = Client::connect(server.addr);
    let (pong, _) = fresh.round_trip(&Json::obj([("op", Json::str("ping"))]));
    assert_eq!(pong.get("kind").and_then(Json::as_str), Some("pong"));

    server.shutdown_and_join();
}

/// Query lines built to exhaust a connection thread's stack: 10 000
/// nested parentheses (20 kB), and a flat `AND` chain of 45 000 triple
/// patterns (945 kB, under the line cap) whose tree every walk recurses
/// through. Each is answered, and so is a line past the cap, and a `ping`
/// on a fresh connection.
#[test]
fn hostile_query_lines_are_answered_and_the_server_lives() {
    let server = start(ServeConfig::default());
    let mut c = Client::connect(server.addr);
    let deep = format!("{}(?a, p, ?b){}", "(".repeat(10_000), ")".repeat(10_000));
    let (e, _) = c.round_trip(&query("deep", &deep));
    assert_eq!(
        e.get("kind").and_then(Json::as_str),
        Some("parse_error"),
        "got {e}"
    );

    let chain: Vec<String> = (0..45_000).map(|k| format!("(?a, p{k}, ?b)")).collect();
    let chain = chain.join(" AND ");
    assert!((900_000..1 << 20).contains(&chain.len()));
    let (e, _) = c.round_trip(&query("chain", &chain));
    assert_eq!(
        e.get("kind").and_then(Json::as_str),
        Some("query_too_large"),
        "got {e}"
    );

    // Past the 1 MiB line cap: 2 bytes more and no newline, as much of a
    // line as the server reads before it stops, so it answers and closes
    // with nothing left unread.
    let mut c = Client::connect(server.addr);
    c.send_bytes(" ".repeat((1 << 20) + 2).as_bytes());
    let (e, _) = c.response();
    assert_eq!(
        e.get("kind").and_then(Json::as_str),
        Some("bad_request"),
        "got {e}"
    );

    let mut fresh = Client::connect(server.addr);
    let (pong, _) = fresh.round_trip(&Json::obj([("op", Json::str("ping"))]));
    assert_eq!(pong.get("kind").and_then(Json::as_str), Some("pong"));
    server.shutdown_and_join();
}

/// A configured atom cap above the parser's bound admits nothing the
/// parser does not read, and the rejection names the bound that applied.
#[test]
fn an_atom_cap_past_the_parsers_bound_reports_the_bound() {
    let server = start(ServeConfig {
        max_query_atoms: 2_000,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(server.addr);
    let chain: Vec<String> = (0..1_025).map(|k| format!("(?a, p{k}, ?b)")).collect();
    let (e, _) = c.round_trip(&query("chain", &chain.join(" AND ")));
    assert_eq!(
        e.get("kind").and_then(Json::as_str),
        Some("query_too_large"),
        "got {e}"
    );
    let message = e.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(
        message.ends_with("at most 1024 triple patterns"),
        "got {message}"
    );
    server.shutdown_and_join();
}

#[test]
fn deadline_exceeding_query_is_cancelled_promptly() {
    let server = start(ServeConfig::default());
    let mut c = Client::connect(server.addr);

    let deadline_ms = 200u64;
    let started = Instant::now();
    let (line, rows) = c.round_trip(&query_with(
        "slow",
        HEAVY,
        &[("deadline_ms", Json::int(deadline_ms))],
    ));
    let elapsed = started.elapsed();
    assert_eq!(status_of(&line), "cancelled", "got {line}");
    assert_eq!(line.get("deadline_ms").and_then(Json::as_num), Some(200.0));
    assert!(rows.is_empty());
    // Cooperative cancellation must fire within ~2x the deadline (plus
    // scheduling slack); an uncancelled run would take effectively forever.
    assert!(
        elapsed < Duration::from_millis(2 * deadline_ms) + Duration::from_secs(1),
        "cancelled response took {elapsed:?}"
    );

    // The permit is free again: a normal query still succeeds.
    let (ok, _) = c.round_trip(&query("after", BASE));
    assert_eq!(status_of(&ok), "ok");

    server.shutdown_and_join();
}

/// A directed `n`-cycle over distinct predicates: instant to parse, plan
/// and evaluate (no `e*` predicate is in the catalog), and its core search
/// is trivial (each atom only maps to itself) — but the exact-treewidth DP
/// behind `explain` must walk `2ⁿ` subsets.
fn cycle_query(n: usize) -> String {
    let mut p = "(?v0, e0, ?v1)".to_string();
    for k in 1..n {
        p = format!("({p} AND (?v{k}, e{k}, ?v{}))", (k + 1) % n);
    }
    format!("SELECT ?v0 WHERE {{ {p} }}")
}

/// Serialises the tests that `explain`: they read the process-wide
/// `serve.plan.facts_computed` / `decomp.*` counters, which only an
/// `explain` moves.
static EXPLAINS: Mutex<()> = Mutex::new(());

#[test]
fn slow_planning_query_does_not_wedge_other_connections() {
    let _guard = EXPLAINS.lock().unwrap();
    let server = start(ServeConfig::default());
    let mut c1 = Client::connect(server.addr);

    // A wide query is answered, not cancelled: planning is join orders,
    // and nothing on the plan path is exponential in its 24 variables.
    let started = Instant::now();
    let (ok, rows) = c1.round_trip(&query_with(
        "wide",
        &cycle_query(24),
        &[("deadline_ms", Json::int(800))],
    ));
    assert_eq!(status_of(&ok), "ok", "got {ok}");
    assert!(rows.is_empty());
    assert!(
        started.elapsed() < Duration::from_millis(400),
        "a 24-variable cycle took {:?} to answer",
        started.elapsed()
    );

    // Asking to `explain` it is what costs: the plan stage now runs a
    // 2²⁴-state search. It must be cancelled by its own deadline — and,
    // critically, must hold no lock while searching.
    let facts_before = wdpt_obs::metrics_snapshot();
    c1.send(&query_with(
        "explainer",
        &cycle_query(24),
        &[
            ("deadline_ms", Json::int(800)),
            ("explain", Json::Bool(true)),
        ],
    ));
    std::thread::sleep(Duration::from_millis(100));

    // Connection 2: a normal query while connection 1 is mid-search.
    let mut c2 = Client::connect(server.addr);
    let started = Instant::now();
    let (ok, rows) = c2.round_trip(&query("fast", BASE));
    let elapsed = started.elapsed();
    assert_eq!(status_of(&ok), "ok", "got {ok}");
    assert_eq!(rows.len(), 120);
    assert!(
        elapsed < Duration::from_millis(500),
        "fast query stalled {elapsed:?} behind an explain"
    );

    let (line, _) = c1.response();
    assert_eq!(status_of(&line), "cancelled", "got {line}");
    let delta = wdpt_obs::metrics_snapshot().since(&facts_before);
    assert!(delta.counter("decomp.tw_search_nodes") > 0);
    assert_eq!(
        delta.counter("serve.plan.facts_computed"),
        0,
        "a cancelled facts computation must not be memoised"
    );

    // With time to spare the facts are computed — once per plan: the first
    // `explain` of an 18-cycle runs the search, the second reads the memo.
    // Neither interns a symbol beyond the request's own.
    let explain = [
        ("deadline_ms", Json::int(60_000)),
        ("explain", Json::Bool(true)),
    ];
    let before = wdpt_obs::metrics_snapshot();
    let (first, _) = c1.round_trip(&query_with("e1", &cycle_query(18), &explain));
    assert_eq!(status_of(&first), "ok", "got {first}");
    let delta = wdpt_obs::metrics_snapshot().since(&before);
    assert!(delta.counter("decomp.tw_search_nodes") > 0);
    assert_eq!(delta.counter("serve.plan.facts_computed"), 1);
    let node = explained_root(&first);
    assert_eq!(node.get("atoms").and_then(Json::as_num), Some(18.0));
    assert_eq!(node.get("core_atoms").and_then(Json::as_num), Some(18.0));
    assert_eq!(node.get("treewidth").and_then(Json::as_num), Some(2.0));
    assert_eq!(node.get("acyclic"), Some(&Json::Bool(false)));

    let symbols = server.state.interner_len();
    let before = wdpt_obs::metrics_snapshot();
    let (second, _) = c1.round_trip(&query_with("e2", &cycle_query(18), &explain));
    assert_eq!(status_of(&second), "ok", "got {second}");
    let delta = wdpt_obs::metrics_snapshot().since(&before);
    assert_eq!(delta.counter("decomp.tw_search_nodes"), 0);
    assert_eq!(delta.counter("serve.plan.facts_computed"), 0);
    assert_eq!(
        second.get("explain").unwrap().get("nodes"),
        first.get("explain").unwrap().get("nodes")
    );
    assert_eq!(server.state.interner_len(), symbols);

    server.shutdown_and_join();
}

/// `max_query_vars` is honoured as configured — no clamp to the exact
/// treewidth DP's 26 vertices. A 30-variable chain (distinct predicates,
/// so its core search is trivial) is answered, and its `explain` reports
/// the one fact the DP cannot give as `null` instead of aborting.
#[test]
fn queries_past_the_exact_treewidth_limit_are_served_and_explained() {
    let _guard = EXPLAINS.lock().unwrap();
    let server = start(ServeConfig {
        max_query_vars: 40,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(server.addr);
    let mut chain = "(?v0, e0, ?v1)".to_string();
    for k in 1..29 {
        chain = format!("({chain} AND (?v{k}, e{k}, ?v{}))", k + 1);
    }

    let (ok, rows) = c.round_trip(&query("chain", &chain));
    assert_eq!(status_of(&ok), "ok", "got {ok}");
    assert!(rows.is_empty());

    let (ok, _) = c.round_trip(&query_with(
        "chain-explain",
        &chain,
        &[("explain", Json::Bool(true))],
    ));
    assert_eq!(status_of(&ok), "ok", "got {ok}");
    let node = explained_root(&ok);
    assert_eq!(node.get("atoms").and_then(Json::as_num), Some(29.0));
    assert_eq!(node.get("core_atoms").and_then(Json::as_num), Some(29.0));
    assert_eq!(node.get("treewidth"), Some(&Json::Null));
    assert_eq!(node.get("acyclic"), Some(&Json::Bool(true)));

    // One variable more than configured is still refused up front.
    let mut wide = chain.clone();
    for k in 29..40 {
        wide = format!("({wide} AND (?v{k}, e{k}, ?v{}))", k + 1);
    }
    let (e, _) = c.round_trip(&query("too-wide", &wide));
    assert_eq!(
        e.get("kind").and_then(Json::as_str),
        Some("query_too_large"),
        "got {e}"
    );

    server.shutdown_and_join();
}

#[test]
fn oversized_queries_are_rejected_without_retaining_symbols() {
    let server = start(ServeConfig {
        max_query_atoms: 3,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(server.addr);
    let symbols_before = server.state.interner_len();

    // BASE has four triple patterns: over the atom cap.
    let (e, rows) = c.round_trip(&query("big", BASE));
    assert_eq!(status_of(&e), "error");
    assert_eq!(
        e.get("kind").and_then(Json::as_str),
        Some("query_too_large"),
        "got {e}"
    );
    assert!(rows.is_empty());
    assert_eq!(
        server.state.interner_len(),
        symbols_before,
        "a rejected query must not retain interned symbols"
    );

    // Under the cap still works on the same connection.
    let (ok, _) = c.round_trip(&query("small", "(?x, rec_by, ?y)"));
    assert_eq!(status_of(&ok), "ok", "got {ok}");

    server.shutdown_and_join();
}

/// Every symbol of the served dictionary, in id order.
fn dictionary(state: &ServeState) -> Vec<(SymbolSpace, String)> {
    state.with_interner(|i| i.symbols().map(|(s, n)| (s, n.to_owned())).collect())
}

/// Requests never write the dictionary. An LCG stream of 240 requests —
/// known and unknown constants and predicates, fresh variable names, every
/// front-half rejection, 1 ms deadlines and `explain` — leaves the served
/// symbols as they were, and every `ok` answer count and row set equals
/// `wdpt_core::evaluate` of the same text over a private copy of the
/// start-up interner and database.
#[test]
fn requests_never_write_the_dictionary() {
    let (mut i, params) = (Interner::new(), MusicParams::default());
    let db = wdpt_gen::music_triples(
        &mut i,
        MusicParams {
            bands: 20,
            ..params
        },
    )
    .into_database();
    let (oracle_i, oracle_db) = (i.clone(), db.clone());
    let server = start_with(ServeConfig::default(), i, db);
    let before = dictionary(&server.state);
    let mut c = Client::connect(server.addr);
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut next = |n: u64| {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) % n
    };
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    for n in 0..240 {
        // Fresh variable names every request; constants from the data or
        // spelled like them but absent (bands 20.. do not exist).
        let (a, b, z) = (format!("a{n}"), format!("b{}", next(3)), format!("z{n}"));
        let band = format!("band{}", next(40));
        let pred = ["rec_by", "publ", "nme_rating", "formed_in", "unseen_p"][next(5) as usize];
        let text = match next(9) {
            0 => format!(
                "SELECT ?{a} WHERE {{ (?{a}, rec_by, {band}) OPT (?{a}, nme_rating, ?{z}) }}"
            ),
            1 => format!("(?{a}, {pred}, ?{b})"),
            2 => format!(
                r#"((?{a}, rec_by, ?{b}) AND (?{a}, publ, "after_2010")) OPT (?{b}, formed_in, ?{z})"#
            ),
            3 => format!(r#"(?{a}, {pred}, "nope{n}")"#),
            4 => format!("SELECT ?{a} WHERE {{ (?{a}, rec_by) }}"),
            5 => (0..65).fold(format!("(?{a}, fresh{n}, ?{b})"), |q, k| {
                format!("({q} AND (?{a}, fresh{n}_{k}, ?{b}))")
            }),
            6 => format!("(((?{a}, p{n}, ?{b}) OPT (?{a}, q{n}, ?{z})) AND (?{z}, r{n}, ?w{n}))"),
            7 => format!("SELECT ?nope{n} WHERE {{ (?{a}, rec_by, ?{b}) }}"),
            _ => HEAVY.to_string(),
        };
        let mut extra = vec![("max_rows", Json::int(100_000))];
        if next(4) == 0 || text == HEAVY {
            extra.push(("deadline_ms", Json::int(1)));
        }
        if next(3) == 0 {
            extra.push(("explain", Json::Bool(true)));
        }
        let (line, rows) = c.round_trip(&query_with(&format!("r{n}"), &text, &extra));
        let outcome = match status_of(&line) {
            "error" => line.get("kind").and_then(Json::as_str).unwrap().to_string(),
            status => status.to_string(),
        };
        *seen.entry(outcome.clone()).or_default() += 1;
        if text == HEAVY {
            assert_eq!(outcome, "cancelled", "{text}: {line}");
        }
        if outcome != "ok" {
            assert!(rows.is_empty(), "{text}: {line}");
            continue;
        }
        let mut oi = oracle_i.clone();
        let tree = parse_query(&mut oi, &text)
            .unwrap()
            .to_wdpt(&mut oi)
            .unwrap();
        let mut want: Vec<BTreeMap<String, String>> = wdpt_core::evaluate(&tree, &oracle_db)
            .iter()
            .map(|m| {
                m.iter()
                    .map(|(v, c)| (oi.var_name(v).to_string(), oi.const_name(c).to_string()))
                    .collect()
            })
            .collect();
        let mut got: Vec<BTreeMap<String, String>> = rows
            .iter()
            .map(|row| match row.get("bindings") {
                Some(Json::Obj(b)) => b
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_str().unwrap().to_string()))
                    .collect(),
                _ => panic!("a row without bindings: {row}"),
            })
            .collect();
        want.sort();
        got.sort();
        let answers = line.get("answers").and_then(Json::as_num).unwrap() as usize;
        assert_eq!((answers, &got), (want.len(), &want), "{text}");
    }
    for outcome in [
        "ok",
        "cancelled",
        "parse_error",
        "query_too_large",
        "not_well_designed",
    ] {
        assert!(
            seen.get(outcome).is_some_and(|&k| k > 0),
            "no {outcome}: {seen:?}"
        );
    }
    assert_eq!(dictionary(&server.state), before);
    server.shutdown_and_join();
}

#[test]
fn utf8_request_split_mid_character_survives_read_timeouts() {
    let server = start(ServeConfig::default());
    let mut c = Client::connect(server.addr);

    // The request id contains a three-byte UTF-8 character; split the line
    // inside it and pause past the server's 200 ms read timeout, so the
    // reader sees a timeout with an incomplete character buffered. With a
    // string-based reader this dropped the partial bytes.
    let line = r#"{"op":"query","id":"本-id","query":"(?x, rec_by, ?y)"}"#;
    let split = line.find('本').unwrap() + 1; // mid-character
    c.send_bytes(&line.as_bytes()[..split]);
    std::thread::sleep(Duration::from_millis(450));
    c.send_bytes(&line.as_bytes()[split..]);
    c.send_bytes(b"\n");

    let (ok, _) = c.response();
    assert_eq!(status_of(&ok), "ok", "got {ok}");
    assert_eq!(ok.get("id").and_then(Json::as_str), Some("本-id"));

    server.shutdown_and_join();
}

#[test]
fn invalid_utf8_line_gets_bad_request_and_connection_survives() {
    let server = start(ServeConfig::default());
    let mut c = Client::connect(server.addr);

    c.send_bytes(b"\xff\xfe{\"op\":\"ping\"}\n");
    let (e, _) = c.response();
    assert_eq!(status_of(&e), "error");
    assert_eq!(e.get("kind").and_then(Json::as_str), Some("bad_request"));
    assert!(e
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("UTF-8"));

    // The reader resynchronizes on the newline: the next request works.
    let (pong, _) = c.round_trip(&Json::obj([("op", Json::str("ping"))]));
    assert_eq!(pong.get("kind").and_then(Json::as_str), Some("pong"));

    server.shutdown_and_join();
}

#[test]
fn full_queue_answers_overloaded_not_hanging() {
    // One permit, one waiting slot: the third concurrent query must be
    // rejected with backpressure, immediately.
    let server = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });

    let heavy = |id: &str| query_with(id, HEAVY, &[("deadline_ms", Json::int(1_000))]);

    // Occupy the permit, then the waiting slot.
    let mut c1 = Client::connect(server.addr);
    c1.send(&heavy("h1"));
    std::thread::sleep(Duration::from_millis(150));
    let mut c2 = Client::connect(server.addr);
    c2.send(&heavy("h2"));
    std::thread::sleep(Duration::from_millis(150));

    // Now the line is full: this must come back overloaded, fast.
    let mut c3 = Client::connect(server.addr);
    let started = Instant::now();
    let (line, _) = c3.round_trip(&heavy("h3"));
    assert_eq!(status_of(&line), "overloaded", "got {line}");
    assert!(line.get("retry_after_ms").and_then(Json::as_num).is_some());
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "backpressure response must not wait for the queue"
    );

    // The occupying queries finish (cancelled by their deadlines).
    assert_eq!(status_of(&c1.response().0), "cancelled");
    assert_eq!(status_of(&c2.response().0), "cancelled");

    server.shutdown_and_join();
}

#[test]
fn hot_reload_swaps_data_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("wdpt-serve-e2e-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // A base snapshot with one rec_by triple, then a delta adding another.
    let mut si = Interner::new();
    let mut ts = wdpt_sparql::TripleStore::new();
    ts.insert_str(&mut si, "swim", "rec_by", "caribou");
    let base_i = si.clone();
    let base_db = ts.database().clone();
    let base_path = dir.join("base.wdpt");
    wdpt_store::save_snapshot(&base_path, &base_i, &base_db).unwrap();
    ts.insert_str(&mut si, "our_love", "rec_by", "caribou");
    let new_db = ts.into_database();
    let base_bytes = std::fs::read(&base_path).unwrap();
    let delta = wdpt_store::delta_to_vec(
        wdpt_store::content_hash(&base_bytes),
        &base_i,
        &base_db,
        &si,
        &new_db,
    )
    .unwrap();
    let delta_path = dir.join("d1.wdpt");
    wdpt_store::save_delta(&delta_path, &delta).unwrap();

    let server = start(ServeConfig::default());
    let mut c = Client::connect(server.addr);

    // Before the reload: the generated music catalog, 120 rec_by rows.
    const Q: &str = "SELECT ?x ?y WHERE { (?x, rec_by, ?y) }";
    let (ok0, rows0) = c.round_trip(&query("q0", Q));
    assert_eq!(status_of(&ok0), "ok", "got {ok0}");
    assert_eq!(rows0.len(), 120);

    // Reload the default db from the snapshot + delta chain.
    let (rl, _) = c.round_trip(&Json::obj([
        ("op", Json::str("reload")),
        ("id", Json::str("r1")),
        ("snapshot", Json::str(base_path.to_str().unwrap())),
        (
            "deltas",
            Json::Arr(vec![Json::str(delta_path.to_str().unwrap())]),
        ),
    ]));
    assert_eq!(status_of(&rl), "ok", "got {rl}");
    assert_eq!(rl.get("kind").and_then(Json::as_str), Some("reload"));
    assert_eq!(rl.get("db").and_then(Json::as_str), Some("music"));
    assert_eq!(rl.get("tuples").and_then(Json::as_num), Some(2.0));
    assert_eq!(rl.get("deltas_applied").and_then(Json::as_num), Some(1.0));

    // The same query — a plan-cache hit, since reload keeps the cache —
    // now answers from the swapped-in data, including the delta's tuple.
    let (ok1, rows1) = c.round_trip(&query("q1", Q));
    assert_eq!(status_of(&ok1), "ok", "got {ok1}");
    assert_eq!(ok1.get("cache").and_then(Json::as_str), Some("hit"));
    let mut subjects: Vec<&str> = rows1
        .iter()
        .filter_map(|r| r.get("bindings")?.get("x")?.as_str())
        .collect();
    subjects.sort_unstable();
    assert_eq!(subjects, ["our_love", "swim"]);

    // A failed reload — a missing file, or a snapshot in the retired
    // version-1 format — reports reload_failed and leaves the served data
    // and the connection intact.
    let v1_path = dir.join("old.wdpt");
    let mut v1 = wdpt_store::MAGIC.to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    std::fs::write(&v1_path, v1).unwrap();
    for bad in [dir.join("missing.wdpt"), v1_path] {
        let (err, _) = c.round_trip(&Json::obj([
            ("op", Json::str("reload")),
            ("id", Json::str("r2")),
            ("snapshot", Json::str(bad.to_str().unwrap())),
        ]));
        assert_eq!(status_of(&err), "error", "got {err}");
        assert_eq!(
            err.get("kind").and_then(Json::as_str),
            Some("reload_failed")
        );
    }
    let (ok2, rows2) = c.round_trip(&query("q2", Q));
    assert_eq!(status_of(&ok2), "ok");
    assert_eq!(rows2.len(), 2);

    // Reloading into a fresh name makes it queryable via "db".
    let (rl2, _) = c.round_trip(&Json::obj([
        ("op", Json::str("reload")),
        ("id", Json::str("r3")),
        ("db", Json::str("aux")),
        ("snapshot", Json::str(base_path.to_str().unwrap())),
    ]));
    assert_eq!(status_of(&rl2), "ok", "got {rl2}");
    let (ok3, rows3) = c.round_trip(&query_with("q3", Q, &[("db", Json::str("aux"))]));
    assert_eq!(status_of(&ok3), "ok", "got {ok3}");
    assert_eq!(rows3.len(), 1);

    server.shutdown_and_join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_drains_and_rejects_new_work() {
    let server = start(ServeConfig::default());
    let mut c = Client::connect(server.addr);

    let (ok, _) = c.round_trip(&query("before", BASE));
    assert_eq!(status_of(&ok), "ok");

    let (ack, _) = c.round_trip(&Json::obj([("op", Json::str("shutdown"))]));
    assert_eq!(ack.get("kind").and_then(Json::as_str), Some("shutdown"));

    // serve() returns once connections have drained.
    let joined = server.handle.join().expect("server thread must not panic");
    joined.expect("serve() must drain cleanly");

    // The listener is gone: new connections are refused (or reset).
    assert!(TcpStream::connect(server.addr).is_err());
}
