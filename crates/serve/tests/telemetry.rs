//! End-to-end telemetry tests: the `metrics` exposition op (JSON and
//! Prometheus text), the slow-query log with EXPLAIN capture, per-plan
//! runtime stats, and the `--no-telemetry` ablation — all driven over
//! real sockets like `e2e.rs`.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use wdpt_gen::music::MusicParams;
use wdpt_model::{Database, Interner};
use wdpt_obs::{read_json_line, write_json_line, Json};
use wdpt_serve::{serve, ServeConfig, ServeState};

const BASE: &str = r#"SELECT ?x ?y ?z WHERE { (((?x, rec_by, ?y) AND (?x, publ, "after_2010")) OPT (?x, nme_rating, ?z)) OPT (?y, formed_in, ?w) }"#;
/// A bounded two-way cross product: reliably slower than a 1 ms slowlog
/// threshold (120 × 120 joined rows) but finishes well inside any deadline.
const CROSS2: &str = "((?a, rec_by, ?b) AND (?c, publ, ?d))";
/// The unbounded four-way cross product from `e2e.rs`: trivially planned,
/// but evaluation reliably outlives the deadlines used here.
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
    let mut dbs: BTreeMap<String, Database> = BTreeMap::new();
    dbs.insert("music".to_string(), ts.into_database());
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

    fn send(&mut self, req: &Json) {
        write_json_line(&mut self.writer, req).unwrap();
        self.writer.flush().unwrap();
    }

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

fn query(id: &str, text: &str) -> Json {
    query_with(id, text, &[])
}

fn status_of(line: &Json) -> &str {
    line.get("status").and_then(Json::as_str).unwrap_or("?")
}

fn slowlog_entries(line: &Json) -> &[Json] {
    line.get("entries").and_then(Json::as_arr).unwrap_or(&[])
}

#[test]
fn metrics_op_exposes_request_histograms_and_plan_stats() {
    let server = start(ServeConfig::default());
    let mut c = Client::connect(server.addr);

    // Three queries through one plan; the last one asks for EXPLAIN.
    let (ok1, _) = c.round_trip(&query("m1", BASE));
    assert_eq!(status_of(&ok1), "ok", "got {ok1}");
    let (ok2, _) = c.round_trip(&query("m2", BASE));
    assert_eq!(status_of(&ok2), "ok");
    let (ok3, _) = c.round_trip(&query_with("m3", BASE, &[("explain", Json::Bool(true))]));
    assert_eq!(status_of(&ok3), "ok");

    // The EXPLAIN rider: cache status, per-node plan shape, runtime stats.
    let explain = ok3.get("explain").expect("explain field on request");
    assert_eq!(explain.get("cache").and_then(Json::as_str), Some("hit"));
    let nodes = explain.get("nodes").and_then(Json::as_arr).unwrap();
    assert_eq!(nodes.len(), 3, "BASE has a root and two OPT children");
    assert!(nodes[0].get("treewidth").and_then(Json::as_num).is_some());
    let stats = explain.get("stats").expect("plan runtime stats");
    assert!(stats.get("executions").and_then(Json::as_num).unwrap() >= 3.0);
    assert!(
        stats
            .get("nodes_expanded_total")
            .and_then(Json::as_num)
            .unwrap()
            > 0.0,
        "every evaluation tallies its nodes_expanded: {stats}"
    );
    let lat = stats.get("latency_us").expect("per-plan latency histogram");
    assert!(lat.get("count").and_then(Json::as_num).unwrap() >= 3.0);
    assert!(lat.get("p50").and_then(Json::as_num).is_some());

    // JSON exposition: request-stage histograms with derived percentiles,
    // gauges, and the per-plan stats table.
    let (m, _) = c.round_trip(&Json::obj([
        ("op", Json::str("metrics")),
        ("id", Json::str("mm")),
    ]));
    assert_eq!(status_of(&m), "ok", "got {m}");
    assert_eq!(m.get("kind").and_then(Json::as_str), Some("metrics"));
    assert_eq!(m.get("format").and_then(Json::as_str), Some("json"));
    let metrics = m.get("metrics").expect("metrics body");
    let hists = metrics.get("histograms").expect("histograms section");
    for name in [
        "serve.request.read_us",
        "serve.request.admission_us",
        "serve.request.plan_us",
        "serve.request.queue_us",
        "serve.request.eval_us",
        "serve.request.respond_us",
        "serve.request.total_us",
    ] {
        let h = hists
            .get(name)
            .unwrap_or_else(|| panic!("missing histogram {name}"));
        assert!(h.get("count").and_then(Json::as_num).unwrap() >= 3.0);
        assert!(h.get("p99").and_then(Json::as_num).is_some());
        let buckets = h.get("buckets").and_then(Json::as_arr).unwrap();
        assert!(!buckets.is_empty(), "{name} has no cumulative buckets");
    }
    assert!(metrics.get("gauges").is_some());
    assert!(
        metrics
            .get("counters")
            .and_then(|cs| cs.get("serve.requests.ok"))
            .and_then(Json::as_num)
            .unwrap()
            >= 3.0
    );
    let plans = m.get("plans").and_then(Json::as_arr).expect("plans table");
    assert!(
        plans
            .iter()
            .any(|p| p.get("executions").and_then(Json::as_num).unwrap_or(0.0) >= 3.0),
        "one cached plan ran three times: {m}"
    );

    server.shutdown_and_join();
}

#[test]
fn prometheus_text_exposition_is_parseable_and_cumulative() {
    let server = start(ServeConfig::default());
    let mut c = Client::connect(server.addr);
    let (ok, _) = c.round_trip(&query("p1", BASE));
    assert_eq!(status_of(&ok), "ok");

    let (m, _) = c.round_trip(&Json::obj([
        ("op", Json::str("metrics")),
        ("format", Json::str("prometheus")),
    ]));
    assert_eq!(status_of(&m), "ok", "got {m}");
    assert_eq!(m.get("format").and_then(Json::as_str), Some("text"));
    let text = m.get("text").and_then(Json::as_str).expect("text body");

    assert!(text.contains("# TYPE serve_requests_ok counter"));
    assert!(text.contains("# TYPE serve_request_total_us histogram"));

    // The bucket series for the request-latency histogram must be
    // cumulative (non-decreasing) and end at +Inf == _count.
    let mut last = 0u64;
    let mut inf: Option<u64> = None;
    let mut count: Option<u64> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("serve_request_total_us_bucket{le=\"") {
            let (le, tail) = rest.split_once('"').unwrap();
            let v: u64 = tail.trim_start_matches('}').trim().parse().unwrap();
            assert!(
                v >= last,
                "bucket series decreased at le={le}: {v} < {last}"
            );
            last = v;
            if le == "+Inf" {
                inf = Some(v);
            }
        } else if let Some(v) = line.strip_prefix("serve_request_total_us_count ") {
            count = Some(v.trim().parse().unwrap());
        }
    }
    let inf = inf.expect("+Inf bucket present");
    let count = count.expect("_count sample present");
    assert_eq!(inf, count, "+Inf bucket must equal the sample count");
    assert!(count >= 1);

    server.shutdown_and_join();
}

#[test]
fn slowlog_captures_slow_and_deadline_exceeded_queries() {
    let server = start(ServeConfig {
        slowlog_threshold_ms: 1,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(server.addr);

    // Over-threshold but successful.
    let (ok, _) = c.round_trip(&query_with("slow1", CROSS2, &[("max_rows", Json::int(5))]));
    assert_eq!(status_of(&ok), "ok", "got {ok}");

    // Deadline-exceeded: must land in the slowlog *with* its partial
    // EXPLAIN profile — that is the log's reason to exist.
    let (cancelled, _) = c.round_trip(&query_with(
        "dead1",
        HEAVY,
        &[("deadline_ms", Json::int(200))],
    ));
    assert_eq!(status_of(&cancelled), "cancelled", "got {cancelled}");

    // Peek without draining, then drain, then verify empty.
    let (peek, _) = c.round_trip(&Json::obj([
        ("op", Json::str("slowlog")),
        ("keep", Json::Bool(true)),
    ]));
    assert_eq!(status_of(&peek), "ok", "got {peek}");
    assert_eq!(peek.get("kind").and_then(Json::as_str), Some("slowlog"));
    let n = slowlog_entries(&peek).len();
    assert!(n >= 2, "expected >=2 slowlog entries, got {peek}");

    let (drain, _) = c.round_trip(&Json::obj([("op", Json::str("slowlog"))]));
    let entries = slowlog_entries(&drain);
    assert_eq!(entries.len(), n, "keep=true must not consume entries");

    let by_id = |id: &str| {
        entries
            .iter()
            .find(|e| e.get("id").and_then(Json::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no slowlog entry for {id}: {drain}"))
    };
    let slow = by_id("slow1");
    assert_eq!(slow.get("status").and_then(Json::as_str), Some("slow"));
    assert_eq!(slow.get("db").and_then(Json::as_str), Some("music"));
    assert!(slow.get("wall_us").and_then(Json::as_num).unwrap() >= 1_000.0);
    assert!(slow.get("cache").and_then(Json::as_str).is_some());
    let trace = slow.get("trace").expect("stage trace");
    let total = trace.get("total_us").and_then(Json::as_num).unwrap();
    let eval = trace.get("eval_us").and_then(Json::as_num).unwrap();
    let queue = trace.get("queue_us").and_then(Json::as_num).unwrap();
    assert!(
        eval <= total && queue <= total,
        "stages exceed wall: {trace}"
    );
    let profile = slow.get("profile").expect("EXPLAIN profile");
    assert!(profile.get("nodes").and_then(Json::as_arr).is_some());
    // The work counters are the request's own.
    let counted = |profile: &Json, name: &str| {
        let counters = profile.get("counters").and_then(Json::as_arr).unwrap();
        counters
            .iter()
            .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|c| c.get("value").and_then(Json::as_num))
    };
    assert!(counted(profile, "cq.nodes_expanded").unwrap() > 0.0);

    let dead = by_id("dead1");
    assert_eq!(dead.get("status").and_then(Json::as_str), Some("cancelled"));
    let dead_profile = dead
        .get("profile")
        .expect("deadline-exceeded query keeps its partial profile");
    assert!(dead_profile.get("nodes").and_then(Json::as_arr).is_some());
    assert!(counted(dead_profile, "cq.nodes_expanded").unwrap() > 0.0);
    let text = slow.get("query").and_then(Json::as_str).unwrap();
    assert!(text.contains("rec_by"));

    // Drained: the log is empty now.
    let (empty, _) = c.round_trip(&Json::obj([("op", Json::str("slowlog"))]));
    assert!(slowlog_entries(&empty).is_empty(), "got {empty}");

    server.shutdown_and_join();
}

/// The worker hands the connection thread what the evaluation counted and
/// an entry renders it when one is pushed: a request under the threshold
/// leaves the log empty (nothing was rendered for it), and the entry of a
/// request that asked for a `profile` carries the object on its `ok` line.
#[test]
fn slowlog_renders_a_profile_only_for_the_entries_it_pushes() {
    // Slowlog on at the default one-second threshold: none of these is
    // slow.
    let server = start(ServeConfig::default());
    assert!(server.state.slowlog_enabled());
    let mut c = Client::connect(server.addr);
    for n in 0..3 {
        let (ok, _) = c.round_trip(&query(&format!("fast{n}"), BASE));
        assert_eq!(status_of(&ok), "ok", "got {ok}");
    }
    assert_eq!(server.state.slowlog_len(), 0);
    server.shutdown_and_join();

    let server = start(ServeConfig {
        slowlog_threshold_ms: 1,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(server.addr);
    let (ok, _) = c.round_trip(&query_with(
        "slow",
        CROSS2,
        &[("max_rows", Json::int(5)), ("profile", Json::Bool(true))],
    ));
    assert_eq!(status_of(&ok), "ok", "got {ok}");
    let returned = ok.get("profile").expect("profile on request");
    assert!(returned.get("nodes").and_then(Json::as_arr).is_some());
    let (log, _) = c.round_trip(&Json::obj([("op", Json::str("slowlog"))]));
    let entries = slowlog_entries(&log);
    assert_eq!(entries.len(), 1, "got {log}");
    assert_eq!(entries[0].get("profile"), Some(returned));
    server.shutdown_and_join();
}

#[test]
fn slowlog_ring_evicts_oldest_and_counts_dropped() {
    let server = start(ServeConfig {
        slowlog_threshold_ms: 1,
        slowlog_capacity: 2,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(server.addr);

    for id in ["r1", "r2", "r3", "r4"] {
        let (ok, _) = c.round_trip(&query_with(id, CROSS2, &[("max_rows", Json::int(1))]));
        assert_eq!(status_of(&ok), "ok", "got {ok}");
    }

    let (log, _) = c.round_trip(&Json::obj([("op", Json::str("slowlog"))]));
    let entries = slowlog_entries(&log);
    assert_eq!(entries.len(), 2, "capacity bounds the ring: {log}");
    let ids: Vec<&str> = entries
        .iter()
        .filter_map(|e| e.get("id").and_then(Json::as_str))
        .collect();
    assert_eq!(ids, ["r3", "r4"], "oldest entries evicted first");
    assert_eq!(log.get("dropped").and_then(Json::as_num), Some(2.0));

    server.shutdown_and_join();
}

#[test]
fn no_telemetry_disables_slowlog_but_keeps_metrics_op() {
    let server = start(ServeConfig {
        telemetry: false,
        slowlog_threshold_ms: 1,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(server.addr);

    let (ok, _) = c.round_trip(&query_with("t1", CROSS2, &[("max_rows", Json::int(1))]));
    assert_eq!(status_of(&ok), "ok", "got {ok}");
    let (cancelled, _) = c.round_trip(&query_with("t2", HEAVY, &[("deadline_ms", Json::int(200))]));
    assert_eq!(status_of(&cancelled), "cancelled");

    // Nothing logged: the slowlog is inert.
    let (log, _) = c.round_trip(&Json::obj([("op", Json::str("slowlog"))]));
    assert_eq!(status_of(&log), "ok");
    assert!(slowlog_entries(&log).is_empty(), "got {log}");
    assert_eq!(log.get("dropped").and_then(Json::as_num), Some(0.0));

    // The per-plan runtime stats are fed all the same: an evaluation hands
    // its counts back whether or not anything traces the request.
    let (ok, _) = c.round_trip(&query_with(
        "t3",
        CROSS2,
        &[("max_rows", Json::int(1)), ("explain", Json::Bool(true))],
    ));
    let shown = ok.get("explain").and_then(|e| e.get("plan"));
    let last = shown.and_then(|p| p.get("actual_nodes_last"));
    assert!(last.and_then(Json::as_num).unwrap() > 0.0, "got {ok}");

    // The metrics op itself still answers (the registry just stops
    // receiving request traces from this server).
    let (m, _) = c.round_trip(&Json::obj([("op", Json::str("metrics"))]));
    assert_eq!(status_of(&m), "ok");
    assert_eq!(m.get("kind").and_then(Json::as_str), Some("metrics"));
    let plans = m.get("plans").and_then(Json::as_arr).expect("plans table");
    let total = |p: &Json| p.get("nodes_expanded_total").and_then(Json::as_num);
    assert!(plans.iter().any(|p| total(p).unwrap() > 0.0), "got {m}");

    server.shutdown_and_join();
}
