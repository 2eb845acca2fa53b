//! `loadgen` — concurrent client for `wdpt-serve`.
//!
//! Drives the server with N concurrent connections and checks the
//! responses, exercising every protocol path: valid queries (repeated and
//! α-renamed, so the plan cache gets hits), malformed queries (parse and
//! validation errors), deadline-exceeding queries (cancellation), and —
//! in `flood` mode — enough simultaneous work to trip backpressure.
//!
//! With `--endpoints` the clients spread round-robin over a replica
//! fleet, and `--read-your-writes` turns the run into a consistency
//! check: reload acknowledgements record the chain head the primary
//! reports, and subsequent queries either quote it as `min_head`
//! (strict) or merely observe how stale the fleet reads are without it
//! (the ablation).
//!
//! Exit status: 0 when every per-mode assertion held, 1 on assertion
//! failure, 2 on connection/setup failure.

use std::collections::BTreeSet;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wdpt_obs::{read_json_line, write_json_line, Json};

const USAGE: &str = "\
loadgen: concurrent load generator for wdpt-serve

USAGE:
    loadgen [OPTIONS]

OPTIONS:
    --addr HOST:PORT   server address [default: 127.0.0.1:7878]
    --endpoints A,B,C  comma-separated server addresses; clients are
                       assigned round-robin and tallies are also reported
                       per endpoint. The first endpoint is the admin
                       target (reload/stats/scrape/slowlog) [default: the
                       --addr value]
    --clients N        concurrent connections [default: 8]
    --requests N       requests per connection [default: 50]
    --mode MODE        mix | repeat | skew | flood | deadline
                       [default: mix]
                       mix:      valid (repeated + renamed) and invalid
                                 queries, small deadline sprinkled in
                       repeat:   one query repeated (plan-cache throughput)
                       skew:     one heavy-hitter self-join repeated; on
                                 skewed gen-synth data the catalog must
                                 price the heavy hitter, so its observed
                                 cost matches the estimate
                       flood:    heavy queries, expects >=1 overloaded
                       deadline: heavy queries under a tight deadline,
                                 expects cancelled responses
    --deadline-ms MS   deadline for the deadline/mix heavy queries
                       [default: 150]
    --reload-snapshot P  send an admin reload op (snapshot file P) midway
                         through the run, while query traffic is flowing;
                         the run fails unless the reload succeeds
    --reload-delta P     delta file chained onto --reload-snapshot
                         (repeatable, applied in order)
    --reload-db NAME     database name to reload [default: server default]
    --reload-stepwise    send one reload per delta prefix (snapshot+d1,
                         then snapshot+d1+d2, ...) instead of a single
                         reload with the full chain, publishing one
                         replication delta at a time
    --read-your-writes M consistency check across --endpoints while
                         reloads publish deltas. M = strict: quote the
                         last acknowledged head as min_head on every valid
                         query — stale data fails the run, typed
                         stale_replica responses are tallied; M = observe:
                         send no min_head (ablation) and count how many ok
                         responses carried data older than the last
                         acknowledged write
    --scrape-metrics P   scrape the Prometheus text exposition (admin
                         `metrics` op) midway through the run, while query
                         traffic is flowing, and write it to file P; the
                         run fails unless the scrape parses
    --dump-slowlog P     after the run, drain the server's slow-query log
                         and write the entries (JSON) to file P
    --shutdown         send a shutdown op after the run
    --json             emit a one-line JSON summary on stdout
    --help             print this help
";

/// The Figure 1 / Example 1 query over the generated music catalog.
const BASE_QUERY: &str = r#"SELECT ?x ?y ?z WHERE { (((?x, rec_by, ?y) AND (?x, publ, "after_2010")) OPT (?x, nme_rating, ?z)) OPT (?y, formed_in, ?w) }"#;
/// The same query α-renamed — must hit the same plan-cache entry.
const RENAMED_QUERY: &str = r#"SELECT ?a ?b ?c WHERE { (((?a, rec_by, ?b) AND (?a, publ, "after_2010")) OPT (?a, nme_rating, ?c)) OPT (?b, formed_in, ?d) }"#;
/// Parse error: a triple pattern needs three terms.
const INVALID_QUERY: &str = "SELECT ?x WHERE { (?x, rec_by) }";
/// Validation error: duplicate SELECT variable.
const DUPLICATE_SELECT: &str = "SELECT ?x ?x WHERE { (?x, rec_by, ?y) }";
/// A 4-way cross product over distinct predicates: trivial to plan (each
/// atom has a unique predicate, so the core's endomorphism search is
/// instant) but big enough to outlive tight deadlines and hold every
/// evaluation permit in flood mode.
const HEAVY_QUERY: &str =
    "((((?a, rec_by, ?b) AND (?c, rec_by, ?d)) AND (?e, publ, ?f)) AND (?g, nme_rating, ?h))";
/// Self-join over the synthetic catalog's heavy-hitter predicate `p0`
/// (`wdpt gen-synth --skew`). A uniform `rows/distinct` estimate
/// undercounts the `p0` posting list by the skew factor; the statistics
/// catalog lists `p0` among the column's most common values, so the plan
/// is costed with its exact length and the observed `nodes_expanded`
/// matches the estimate run after run — the CI `plan_smoke` job asserts
/// that the explained estimate is within 4× of the last observed run.
const SKEW_QUERY: &str = "SELECT ?x ?y ?z WHERE { ((?x, p0, ?y) AND (?y, p0, ?z)) }";

#[derive(Clone)]
struct Args {
    addr: String,
    endpoints: Vec<String>,
    clients: usize,
    requests: usize,
    mode: String,
    deadline_ms: u64,
    reload_snapshot: Option<String>,
    reload_deltas: Vec<String>,
    reload_db: Option<String>,
    reload_stepwise: bool,
    ryw: Option<String>,
    scrape_metrics: Option<String>,
    dump_slowlog: Option<String>,
    shutdown: bool,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        endpoints: Vec::new(),
        clients: 8,
        requests: 50,
        mode: "mix".to_string(),
        deadline_ms: 150,
        reload_snapshot: None,
        reload_deltas: Vec::new(),
        reload_db: None,
        reload_stepwise: false,
        ryw: None,
        scrape_metrics: None,
        dump_slowlog: None,
        shutdown: false,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--addr" => args.addr = value("--addr")?,
            "--endpoints" => {
                args.endpoints = value("--endpoints")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if args.endpoints.is_empty() {
                    return Err("--endpoints needs at least one address".to_string());
                }
            }
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|_| "--clients expects a number".to_string())?
            }
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|_| "--requests expects a number".to_string())?
            }
            "--mode" => {
                args.mode = value("--mode")?;
                if !matches!(
                    args.mode.as_str(),
                    "mix" | "repeat" | "skew" | "flood" | "deadline"
                ) {
                    return Err(format!("unknown mode {:?}", args.mode));
                }
            }
            "--deadline-ms" => {
                args.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|_| "--deadline-ms expects a number".to_string())?
            }
            "--reload-snapshot" => args.reload_snapshot = Some(value("--reload-snapshot")?),
            "--reload-delta" => args.reload_deltas.push(value("--reload-delta")?),
            "--reload-db" => args.reload_db = Some(value("--reload-db")?),
            "--reload-stepwise" => args.reload_stepwise = true,
            "--read-your-writes" => {
                let m = value("--read-your-writes")?;
                if !matches!(m.as_str(), "strict" | "observe") {
                    return Err(format!(
                        "--read-your-writes expects strict or observe, got {m:?}"
                    ));
                }
                args.ryw = Some(m);
            }
            "--scrape-metrics" => args.scrape_metrics = Some(value("--scrape-metrics")?),
            "--dump-slowlog" => args.dump_slowlog = Some(value("--dump-slowlog")?),
            "--shutdown" => args.shutdown = true,
            "--json" => args.json = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    // `endpoints` is the canonical fleet; `addr` the admin target (reload,
    // stats, scrape, slowlog — they must hit the primary, which a fleet
    // lists first).
    if args.endpoints.is_empty() {
        args.endpoints = vec![args.addr.clone()];
    } else {
        args.addr = args.endpoints[0].clone();
    }
    Ok(args)
}

/// Read-your-writes bookkeeping shared between the reload thread (which
/// records each acknowledged chain head, in publish order) and the client
/// threads (which quote and check them). The vector's order IS the chain
/// order, so "older than" is an index comparison.
#[derive(Default)]
struct Ryw {
    acked: Mutex<Vec<u64>>,
}

impl Ryw {
    fn record(&self, head: u64) {
        let mut acked = self.acked.lock().expect("acked heads");
        if !acked.contains(&head) {
            acked.push(head);
        }
    }

    fn latest(&self) -> Option<u64> {
        self.acked.lock().expect("acked heads").last().copied()
    }

    fn index_of(&self, head: u64) -> Option<usize> {
        self.acked
            .lock()
            .expect("acked heads")
            .iter()
            .position(|&h| h == head)
    }

    /// True iff `seen` is a head we acked *earlier* than `reference` —
    /// i.e. the response carried data from before the reference write.
    /// Heads we never acked (the server was ahead, or bootstrapped from a
    /// chain we didn't publish) are not evidence of staleness.
    fn is_stale(&self, seen: u64, reference: u64) -> bool {
        match (self.index_of(seen), self.index_of(reference)) {
            (Some(s), Some(r)) => s < r,
            _ => false,
        }
    }
}

/// Aggregate tallies across all client threads.
#[derive(Default)]
struct Tally {
    ok: AtomicU64,
    rows: AtomicU64,
    /// Total result-set sizes from `ok` lines — unlike `rows`, not capped
    /// by the server's `max_rows` row streaming limit.
    answers: AtomicU64,
    errors: AtomicU64,
    cancelled: AtomicU64,
    overloaded: AtomicU64,
    cache_hits: AtomicU64,
    failures: AtomicU64,
    latency_us: AtomicU64,
    max_latency_us: AtomicU64,
    /// Every response latency, for exact post-run percentiles. A run is at
    /// most `clients * requests` samples, so keeping them all is cheap and
    /// avoids approximating the tail with a histogram sketch.
    latencies: Mutex<Vec<u64>>,
    reloads: AtomicU64,
    scrapes: AtomicU64,
    /// Distinct `retry_after_ms` hints seen on `overloaded` responses: the
    /// server jitters and depth-scales the hint precisely so rejected
    /// clients don't retry in lockstep, and flood mode asserts the spread.
    retry_hints: Mutex<BTreeSet<u64>>,
    /// Typed `stale_replica` refusals (strict read-your-writes only): the
    /// replica could not reach the quoted `min_head` within the deadline
    /// and said so instead of serving stale data. Tallied, not a failure.
    ryw_stale_replica: AtomicU64,
    /// Responses whose data was verifiably older than the latest
    /// acknowledged write. In strict mode any of these fails the run; in
    /// observe mode (no `min_head` sent) they are the measurement.
    ryw_stale_data: AtomicU64,
    /// Responses that carried a head we could check against the acked
    /// chain (the read-your-writes denominator).
    ryw_checked: AtomicU64,
    /// Per-endpoint slices of the same counters, index-aligned with
    /// `Args::endpoints`.
    per_endpoint: Vec<EndpointTally>,
}

#[derive(Default)]
struct EndpointTally {
    responded: AtomicU64,
    ok: AtomicU64,
    latency_us: AtomicU64,
    stale_replica: AtomicU64,
}

impl Tally {
    fn new(endpoints: usize) -> Tally {
        Tally {
            per_endpoint: (0..endpoints).map(|_| EndpointTally::default()).collect(),
            ..Tally::default()
        }
    }

    fn fail(&self, msg: &str) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        eprintln!("loadgen: ASSERTION FAILED: {msg}");
    }
}

struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Connection {
    fn open(addr: &str) -> Result<Connection, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        // A hung server must fail the run, not wedge it.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let writer = BufWriter::new(stream);
        Ok(Connection { reader, writer })
    }

    /// Sends one request and reads lines until the terminal status line.
    /// Returns `(status_line, row_count)`.
    fn round_trip(&mut self, req: &Json) -> Result<(Json, u64), String> {
        write_json_line(&mut self.writer, req).map_err(|e| format!("write: {e}"))?;
        self.writer.flush().map_err(|e| format!("flush: {e}"))?;
        let mut rows = 0u64;
        loop {
            let line = read_json_line(&mut self.reader)
                .map_err(|e| format!("read: {e}"))?
                .ok_or_else(|| "server closed the connection mid-response".to_string())?;
            if line.get("kind").and_then(Json::as_str) == Some("row") {
                rows += 1;
                continue;
            }
            return Ok((line, rows));
        }
    }
}

fn query(id: &str, text: &str, deadline_ms: Option<u64>, min_head: Option<u64>) -> Json {
    let mut pairs = vec![
        ("op".to_string(), Json::str("query")),
        ("id".to_string(), Json::str(id)),
        ("query".to_string(), Json::str(text)),
    ];
    if let Some(ms) = deadline_ms {
        pairs.push(("deadline_ms".to_string(), Json::int(ms)));
    }
    if let Some(h) = min_head {
        pairs.push(("min_head".to_string(), Json::str(wdpt_store::head_hex(h))));
    }
    Json::obj(pairs)
}

fn run_client(client: usize, args: &Args, tally: &Tally, ryw: &Ryw) -> Result<(), String> {
    let endpoint_idx = client % args.endpoints.len();
    let endpoint = &args.endpoints[endpoint_idx];
    let per_ep = &tally.per_endpoint[endpoint_idx];
    let strict = args.ryw.as_deref() == Some("strict");
    let mut conn = Connection::open(endpoint)?;
    for r in 0..args.requests {
        let id = format!("c{client}r{r}");
        // Strict read-your-writes: quote the newest acked write on every
        // valid query, so the replica must serve at-or-after it (or refuse
        // with a typed stale_replica).
        let quoted_head = if strict { ryw.latest() } else { None };
        let (req, expect) = match args.mode.as_str() {
            "repeat" => (query(&id, BASE_QUERY, None, quoted_head), "ok"),
            "skew" => (query(&id, SKEW_QUERY, None, quoted_head), "ok"),
            "flood" => (query(&id, HEAVY_QUERY, Some(args.deadline_ms), None), "any"),
            "deadline" => (
                query(&id, HEAVY_QUERY, Some(args.deadline_ms), None),
                "cancelled",
            ),
            _ => match r % 6 {
                0 | 3 => (query(&id, BASE_QUERY, None, quoted_head), "ok"),
                1 => (query(&id, RENAMED_QUERY, None, quoted_head), "ok"),
                2 => (query(&id, INVALID_QUERY, None, None), "error"),
                4 => (query(&id, DUPLICATE_SELECT, None, None), "error"),
                _ => (query(&id, HEAVY_QUERY, Some(args.deadline_ms), None), "any"),
            },
        };
        let started = Instant::now();
        let (status_line, rows) = conn.round_trip(&req)?;
        let us = started.elapsed().as_micros() as u64;
        tally.latency_us.fetch_add(us, Ordering::Relaxed);
        tally.max_latency_us.fetch_max(us, Ordering::Relaxed);
        tally.latencies.lock().expect("latency samples").push(us);
        tally.rows.fetch_add(rows, Ordering::Relaxed);
        per_ep.responded.fetch_add(1, Ordering::Relaxed);
        per_ep.latency_us.fetch_add(us, Ordering::Relaxed);

        let status = status_line
            .get("status")
            .and_then(Json::as_str)
            .unwrap_or("missing")
            .to_string();
        let error_kind = status_line.get("kind").and_then(Json::as_str).unwrap_or("");
        let stale_refusal = status == "error" && error_kind == "stale_replica";
        if status_line.get("id").and_then(Json::as_str) != Some(id.as_str()) {
            tally.fail(&format!("{id}: response id mismatch on {status_line}"));
        }
        match status.as_str() {
            "ok" => {
                tally.ok.fetch_add(1, Ordering::Relaxed);
                per_ep.ok.fetch_add(1, Ordering::Relaxed);
                if let Some(n) = status_line.get("answers").and_then(Json::as_num) {
                    tally.answers.fetch_add(n as u64, Ordering::Relaxed);
                }
                if status_line.get("cache").and_then(Json::as_str) == Some("hit") {
                    tally.cache_hits.fetch_add(1, Ordering::Relaxed);
                }
                if args.ryw.is_some() {
                    check_ryw(&id, &status_line, quoted_head, tally, ryw, strict);
                }
            }
            "error" => {
                tally.errors.fetch_add(1, Ordering::Relaxed);
                if stale_refusal {
                    tally.ryw_stale_replica.fetch_add(1, Ordering::Relaxed);
                    per_ep.stale_replica.fetch_add(1, Ordering::Relaxed);
                }
            }
            "cancelled" => {
                tally.cancelled.fetch_add(1, Ordering::Relaxed);
                // A cancelled query must come back within ~2x its deadline
                // (scheduling slack aside); a cooperative check that never
                // fires would blow far past this.
                let budget_us = args
                    .deadline_ms
                    .saturating_mul(2_000)
                    .saturating_add(500_000);
                if us > budget_us {
                    tally.fail(&format!(
                        "{id}: cancelled after {us}us, over 2x the {}ms deadline",
                        args.deadline_ms
                    ));
                }
            }
            "overloaded" => {
                tally.overloaded.fetch_add(1, Ordering::Relaxed);
                match status_line.get("retry_after_ms").and_then(Json::as_num) {
                    Some(hint) => {
                        tally
                            .retry_hints
                            .lock()
                            .expect("retry hint set")
                            .insert(hint as u64);
                    }
                    None => tally.fail(&format!("{id}: overloaded without retry_after_ms")),
                }
                // Honor the backpressure hint before the next request.
                std::thread::sleep(Duration::from_millis(
                    status_line
                        .get("retry_after_ms")
                        .and_then(Json::as_num)
                        .unwrap_or(50.0) as u64,
                ));
            }
            other => tally.fail(&format!("{id}: unexpected status {other:?}")),
        }
        match expect {
            // A typed stale_replica refusal is the contract-honoring
            // answer when a strict run quotes a head the replica hasn't
            // reached by the deadline — tallied above, not a failure.
            "ok" if stale_refusal && quoted_head.is_some() => {}
            "ok" if status != "ok" => {
                tally.fail(&format!("{id}: expected ok, got {status} ({status_line})"))
            }
            "error" if status != "error" => {
                tally.fail(&format!("{id}: expected error, got {status}"))
            }
            "cancelled" if !matches!(status.as_str(), "cancelled" | "overloaded") => {
                tally.fail(&format!("{id}: expected cancelled, got {status}"))
            }
            _ => {}
        }
    }
    Ok(())
}

/// Checks one `ok` response against the read-your-writes ledger. The
/// server stamps every `ok` line with the chain head it served from; a
/// head we acked earlier than the newest acked write means the response
/// predates that write.
fn check_ryw(id: &str, line: &Json, quoted: Option<u64>, tally: &Tally, ryw: &Ryw, strict: bool) {
    let Some(latest) = ryw.latest() else { return };
    let seen = line
        .get("head")
        .and_then(Json::as_str)
        .and_then(wdpt_store::parse_head_hex);
    let Some(seen) = seen else { return };
    if ryw.index_of(seen).is_none() {
        return; // a head we never published — not comparable
    }
    tally.ryw_checked.fetch_add(1, Ordering::Relaxed);
    match quoted {
        // Strict: serving data older than the quoted min_head breaks the
        // admission contract outright.
        Some(min) if ryw.is_stale(seen, min) => tally.fail(&format!(
            "{id}: read-your-writes violation: server answered from head \
             {} although min_head {} was quoted",
            wdpt_store::head_hex(seen),
            wdpt_store::head_hex(min)
        )),
        Some(_) => {}
        // Observe (no min_head sent): staleness is the measurement, and in
        // strict runs a pre-quote race is still worth counting.
        None if ryw.is_stale(seen, latest) => {
            tally.ryw_stale_data.fetch_add(1, Ordering::Relaxed);
            if strict {
                tally.fail(&format!(
                    "{id}: stale read in strict mode: head {} predates acked {}",
                    wdpt_store::head_hex(seen),
                    wdpt_store::head_hex(latest)
                ));
            }
        }
        None => {}
    }
}

/// Sends the admin `reload` op from `--reload-snapshot`/`--reload-delta`
/// on its own connection while the client threads keep querying, and
/// fails the run unless the server acknowledges the swap. Each ack's
/// `head` field is recorded in the read-your-writes ledger. With
/// `--reload-stepwise` the delta chain is published one prefix at a time
/// (snapshot+d1, snapshot+d1+d2, ...), so followers see individual
/// replication deltas instead of one batch.
fn send_reload(args: &Args, tally: &Tally, ryw: &Ryw) {
    let snapshot = args
        .reload_snapshot
        .clone()
        .expect("send_reload requires --reload-snapshot");
    let steps: Vec<&[String]> = if args.reload_stepwise && !args.reload_deltas.is_empty() {
        (1..=args.reload_deltas.len())
            .map(|k| &args.reload_deltas[..k])
            .collect()
    } else {
        vec![&args.reload_deltas[..]]
    };
    for (i, deltas) in steps.iter().enumerate() {
        let mut pairs = vec![
            ("op".to_string(), Json::str("reload")),
            ("id".to_string(), Json::str(format!("loadgen-reload-{i}"))),
            ("snapshot".to_string(), Json::str(snapshot.clone())),
        ];
        if !deltas.is_empty() {
            pairs.push((
                "deltas".to_string(),
                Json::Arr(deltas.iter().map(|d| Json::str(d.clone())).collect()),
            ));
        }
        if let Some(db) = &args.reload_db {
            pairs.push(("db".to_string(), Json::str(db.clone())));
        }
        let req = Json::obj(pairs);
        match Connection::open(&args.addr).and_then(|mut c| c.round_trip(&req)) {
            Ok((line, _)) => {
                if line.get("status").and_then(Json::as_str) == Some("ok") {
                    tally.reloads.fetch_add(1, Ordering::Relaxed);
                    if let Some(h) = line
                        .get("head")
                        .and_then(Json::as_str)
                        .and_then(wdpt_store::parse_head_hex)
                    {
                        ryw.record(h);
                    }
                    eprintln!("loadgen: reload acknowledged: {line}");
                } else {
                    tally.fail(&format!("reload rejected: {line}"));
                }
            }
            Err(e) => tally.fail(&format!("reload round-trip failed: {e}")),
        }
        if i + 1 < steps.len() {
            // Give the fleet a moment to stream each delta before the
            // next prefix supersedes it.
            std::thread::sleep(Duration::from_millis(150));
        }
    }
}

/// One counter of the server's registry, as the `stats` op reported it
/// (the same counters the Prometheus exposition carries).
fn server_counter(stats: Option<&Json>, name: &str) -> u64 {
    stats
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_num)
        .unwrap_or(0.0) as u64
}

/// Reads the server's cache-hit counter via a `stats` op.
fn server_stats(addr: &str) -> Result<Json, String> {
    let mut conn = Connection::open(addr)?;
    let (line, _) = conn.round_trip(&Json::obj([("op", Json::str("stats"))]))?;
    Ok(line)
}

/// Scrapes the Prometheus text exposition mid-run (from its own
/// connection, like `send_reload`) and writes it to `path`. A scrape that
/// fails, or whose body lacks any `# TYPE` header, fails the run.
fn scrape_metrics(addr: &str, path: &str, tally: &Tally) {
    let req = Json::obj([
        ("op", Json::str("metrics")),
        ("id", Json::str("loadgen-scrape")),
        ("format", Json::str("prometheus")),
    ]);
    match Connection::open(addr).and_then(|mut c| c.round_trip(&req)) {
        Ok((line, _)) => {
            let text = line.get("text").and_then(Json::as_str).unwrap_or("");
            if line.get("status").and_then(Json::as_str) != Some("ok") || !text.contains("# TYPE") {
                tally.fail(&format!("metrics scrape unusable: {line}"));
                return;
            }
            match std::fs::write(path, text) {
                Ok(()) => {
                    tally.scrapes.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "loadgen: scraped {} exposition lines to {path}",
                        text.lines().count()
                    );
                }
                Err(e) => tally.fail(&format!("cannot write {path}: {e}")),
            }
        }
        Err(e) => tally.fail(&format!("metrics scrape failed: {e}")),
    }
}

/// Drains the server's slow-query log after the run and writes the
/// response (entries + dropped count) to `path` as one JSON document.
fn dump_slowlog(addr: &str, path: &str, tally: &Tally) {
    let req = Json::obj([
        ("op", Json::str("slowlog")),
        ("id", Json::str("loadgen-slowlog")),
    ]);
    match Connection::open(addr).and_then(|mut c| c.round_trip(&req)) {
        Ok((line, _)) => {
            if line.get("status").and_then(Json::as_str) != Some("ok") {
                tally.fail(&format!("slowlog drain rejected: {line}"));
                return;
            }
            let n = line
                .get("entries")
                .and_then(Json::as_arr)
                .map_or(0, |e| e.len());
            match std::fs::write(path, format!("{line}\n")) {
                Ok(()) => eprintln!("loadgen: dumped {n} slowlog entries to {path}"),
                Err(e) => tally.fail(&format!("cannot write {path}: {e}")),
            }
        }
        Err(e) => tally.fail(&format!("slowlog drain failed: {e}")),
    }
}

/// Nearest-rank percentile over the sorted latency samples, in
/// milliseconds. `q` in (0, 1]. `None` when no request completed — a
/// percentile of an empty run is undefined, not 0ms (a 0ms p99 in a
/// report reads as an impossibly fast server, not an idle one).
fn percentile_ms(sorted_us: &[u64], q: f64) -> Option<f64> {
    if sorted_us.is_empty() {
        return None;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    Some(sorted_us[rank - 1] as f64 / 1_000.0)
}

/// Renders an optional millisecond figure for the text summary: `n/a`
/// when no sample backs it.
fn fmt_ms(v: Option<f64>) -> String {
    match v {
        Some(ms) => format!("{ms:.1}ms"),
        None => "n/a".to_string(),
    }
}

/// The JSON twin of [`fmt_ms`]: `null`, not 0, for a missing figure.
fn json_ms(v: Option<f64>) -> Json {
    match v {
        Some(ms) => Json::num(ms),
        None => Json::Null,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let tally = Arc::new(Tally::new(args.endpoints.len()));
    let ryw = Arc::new(Ryw::default());
    let started = Instant::now();
    let handles: Vec<_> = (0..args.clients)
        .map(|c| {
            let args = args.clone();
            let tally = Arc::clone(&tally);
            let ryw = Arc::clone(&ryw);
            std::thread::spawn(move || run_client(c, &args, &tally, &ryw))
        })
        .collect();
    let reloader = args.reload_snapshot.is_some().then(|| {
        let args = args.clone();
        let tally = Arc::clone(&tally);
        let ryw = Arc::clone(&ryw);
        std::thread::spawn(move || {
            // Let query traffic get flowing first, so the swap happens
            // underneath live requests.
            std::thread::sleep(Duration::from_millis(200));
            send_reload(&args, &tally, &ryw);
        })
    });
    let scraper = args.scrape_metrics.clone().map(|path| {
        let addr = args.addr.clone();
        let tally = Arc::clone(&tally);
        std::thread::spawn(move || {
            // Mid-run, so the scrape observes live gauges and in-flight
            // request histograms, not a quiesced server.
            std::thread::sleep(Duration::from_millis(200));
            scrape_metrics(&addr, &path, &tally);
        })
    });
    let mut connect_failures = 0;
    for h in handles {
        match h.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                eprintln!("loadgen: client failed: {e}");
                connect_failures += 1;
            }
            Err(_) => {
                eprintln!("loadgen: client thread panicked");
                connect_failures += 1;
            }
        }
    }
    if let Some(h) = reloader {
        if h.join().is_err() {
            eprintln!("loadgen: reload thread panicked");
            connect_failures += 1;
        }
    }
    if let Some(h) = scraper {
        if h.join().is_err() {
            eprintln!("loadgen: metrics scrape thread panicked");
            connect_failures += 1;
        }
    }
    let wall = started.elapsed();

    // Per-mode aggregate assertions.
    let responded = tally.ok.load(Ordering::Relaxed)
        + tally.errors.load(Ordering::Relaxed)
        + tally.cancelled.load(Ordering::Relaxed)
        + tally.overloaded.load(Ordering::Relaxed);
    let expected = (args.clients * args.requests) as u64;
    if connect_failures == 0 && responded != expected {
        tally.fail(&format!("{responded} responses to {expected} requests"));
    }
    let retry_hints_distinct = tally.retry_hints.lock().expect("retry hint set").len() as u64;
    // Per-mode expectations are about response *composition*, so they only
    // make sense when responses were requested at all: a `--requests 0`
    // smoke run (connectivity check) must exit 0, not trip "saw no ok".
    if expected > 0 {
        match args.mode.as_str() {
            "flood" => {
                let overloaded = tally.overloaded.load(Ordering::Relaxed);
                if overloaded == 0 {
                    tally.fail("flood mode saw no overloaded responses");
                }
                // The hint carries per-request jitter; a flood of identical
                // hints would send every rejected client back in lockstep.
                if overloaded >= 4 && retry_hints_distinct < 2 {
                    tally.fail(&format!(
                        "{overloaded} overloaded responses all advertised the same \
                         retry_after_ms; retries would stampede in lockstep"
                    ));
                }
            }
            "deadline" if tally.cancelled.load(Ordering::Relaxed) == 0 => {
                tally.fail("deadline mode saw no cancelled responses");
            }
            "mix" => {
                if tally.ok.load(Ordering::Relaxed) == 0 {
                    tally.fail("mix mode saw no ok responses");
                }
                if tally.errors.load(Ordering::Relaxed) == 0 {
                    tally.fail("mix mode saw no error responses");
                }
            }
            _ => {}
        }
    }

    let stats = server_stats(&args.addr).ok();
    if let Some(path) = &args.dump_slowlog {
        dump_slowlog(&args.addr, path, &tally);
    }
    if args.shutdown {
        // The whole fleet, not just the admin endpoint.
        for endpoint in &args.endpoints {
            if let Ok(mut conn) = Connection::open(endpoint) {
                let _ = conn.round_trip(&Json::obj([("op", Json::str("shutdown"))]));
            }
        }
    }

    let ok = tally.ok.load(Ordering::Relaxed);
    let throughput = responded as f64 / wall.as_secs_f64().max(1e-9);
    let mean_latency_ms = (responded > 0)
        .then(|| tally.latency_us.load(Ordering::Relaxed) as f64 / responded as f64 / 1_000.0);
    let mut sorted_us = std::mem::take(&mut *tally.latencies.lock().expect("latency samples"));
    sorted_us.sort_unstable();
    let (p50_ms, p90_ms, p99_ms) = (
        percentile_ms(&sorted_us, 0.50),
        percentile_ms(&sorted_us, 0.90),
        percentile_ms(&sorted_us, 0.99),
    );
    let server_hits = server_counter(stats.as_ref(), "serve.plan_cache.hit");
    // How often a statistics-epoch change rebuilt a cached plan's orders.
    let stats_refreshes = server_counter(stats.as_ref(), "serve.plan.stats_refresh");
    let endpoint_summaries: Vec<Json> = args
        .endpoints
        .iter()
        .zip(&tally.per_endpoint)
        .map(|(addr, ep)| {
            let responded = ep.responded.load(Ordering::Relaxed);
            let mean = (responded > 0)
                .then(|| ep.latency_us.load(Ordering::Relaxed) as f64 / responded as f64 / 1_000.0);
            Json::obj([
                ("addr".to_string(), Json::str(addr.clone())),
                ("responded".to_string(), Json::int(responded)),
                ("ok".to_string(), Json::int(ep.ok.load(Ordering::Relaxed))),
                (
                    "stale_replica".to_string(),
                    Json::int(ep.stale_replica.load(Ordering::Relaxed)),
                ),
                ("mean_latency_ms".to_string(), json_ms(mean)),
            ])
        })
        .collect();

    if args.json {
        let summary = Json::obj([
            ("mode".to_string(), Json::str(args.mode.clone())),
            ("clients".to_string(), Json::int(args.clients as u64)),
            ("requests".to_string(), Json::int(expected)),
            ("responded".to_string(), Json::int(responded)),
            ("ok".to_string(), Json::int(ok)),
            (
                "rows".to_string(),
                Json::int(tally.rows.load(Ordering::Relaxed)),
            ),
            (
                "answers".to_string(),
                Json::int(tally.answers.load(Ordering::Relaxed)),
            ),
            (
                "errors".to_string(),
                Json::int(tally.errors.load(Ordering::Relaxed)),
            ),
            (
                "cancelled".to_string(),
                Json::int(tally.cancelled.load(Ordering::Relaxed)),
            ),
            (
                "overloaded".to_string(),
                Json::int(tally.overloaded.load(Ordering::Relaxed)),
            ),
            (
                "retry_hints_distinct".to_string(),
                Json::int(retry_hints_distinct),
            ),
            (
                "reloads".to_string(),
                Json::int(tally.reloads.load(Ordering::Relaxed)),
            ),
            (
                "client_cache_hits".to_string(),
                Json::int(tally.cache_hits.load(Ordering::Relaxed)),
            ),
            ("server_cache_hits".to_string(), Json::int(server_hits)),
            ("wall_secs".to_string(), Json::num(wall.as_secs_f64())),
            ("req_per_sec".to_string(), Json::num(throughput)),
            ("mean_latency_ms".to_string(), json_ms(mean_latency_ms)),
            ("p50_latency_ms".to_string(), json_ms(p50_ms)),
            ("p90_latency_ms".to_string(), json_ms(p90_ms)),
            ("p99_latency_ms".to_string(), json_ms(p99_ms)),
            (
                "max_latency_ms".to_string(),
                Json::num(tally.max_latency_us.load(Ordering::Relaxed) as f64 / 1_000.0),
            ),
            (
                "metrics_scrapes".to_string(),
                Json::int(tally.scrapes.load(Ordering::Relaxed)),
            ),
            (
                "ryw_checked".to_string(),
                Json::int(tally.ryw_checked.load(Ordering::Relaxed)),
            ),
            (
                "ryw_stale_data".to_string(),
                Json::int(tally.ryw_stale_data.load(Ordering::Relaxed)),
            ),
            (
                "ryw_stale_replica".to_string(),
                Json::int(tally.ryw_stale_replica.load(Ordering::Relaxed)),
            ),
            (
                "planner".to_string(),
                Json::obj([("stats_refreshes", Json::int(stats_refreshes))]),
            ),
            ("endpoints".to_string(), Json::Arr(endpoint_summaries)),
            (
                "failures".to_string(),
                Json::int(tally.failures.load(Ordering::Relaxed) + connect_failures),
            ),
        ]);
        let mut out = std::io::stdout().lock();
        let _ = write_json_line(&mut out, &summary);
    } else {
        println!(
            "loadgen[{}]: {responded}/{expected} responded in {:.2}s ({throughput:.0} req/s); \
             ok {ok}, rows {}, errors {}, cancelled {}, overloaded {}; \
             cache hits seen {} (server total {server_hits}); \
             latency mean {} p50 {} p90 {} p99 {} max {:.1}ms",
            args.mode,
            wall.as_secs_f64(),
            tally.rows.load(Ordering::Relaxed),
            tally.errors.load(Ordering::Relaxed),
            tally.cancelled.load(Ordering::Relaxed),
            tally.overloaded.load(Ordering::Relaxed),
            tally.cache_hits.load(Ordering::Relaxed),
            fmt_ms(mean_latency_ms),
            fmt_ms(p50_ms),
            fmt_ms(p90_ms),
            fmt_ms(p99_ms),
            tally.max_latency_us.load(Ordering::Relaxed) as f64 / 1_000.0,
        );
        println!("loadgen:   planner: stats refreshes {stats_refreshes}");
        if args.endpoints.len() > 1 {
            for ep in &endpoint_summaries {
                println!(
                    "loadgen:   endpoint {}: responded {}, ok {}, stale_replica {}",
                    ep.get("addr").and_then(Json::as_str).unwrap_or("?"),
                    ep.get("responded").and_then(Json::as_num).unwrap_or(0.0),
                    ep.get("ok").and_then(Json::as_num).unwrap_or(0.0),
                    ep.get("stale_replica")
                        .and_then(Json::as_num)
                        .unwrap_or(0.0),
                );
            }
        }
        if args.ryw.is_some() {
            println!(
                "loadgen:   read-your-writes[{}]: checked {}, stale data {}, \
                 stale_replica refusals {}",
                args.ryw.as_deref().unwrap_or(""),
                tally.ryw_checked.load(Ordering::Relaxed),
                tally.ryw_stale_data.load(Ordering::Relaxed),
                tally.ryw_stale_replica.load(Ordering::Relaxed),
            );
        }
    }

    if connect_failures > 0 {
        ExitCode::from(2)
    } else if tally.failures.load(Ordering::Relaxed) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: a run where zero requests complete must report `n/a`
    /// percentiles (and `null` in JSON), not a fabricated 0ms.
    #[test]
    fn empty_run_percentiles_are_not_a_number() {
        assert_eq!(percentile_ms(&[], 0.50), None);
        assert_eq!(percentile_ms(&[], 0.99), None);
        assert_eq!(fmt_ms(percentile_ms(&[], 0.99)), "n/a");
        assert!(matches!(json_ms(percentile_ms(&[], 0.99)), Json::Null));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let us: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert_eq!(percentile_ms(&us, 0.50), Some(50.0));
        assert_eq!(percentile_ms(&us, 0.90), Some(90.0));
        assert_eq!(percentile_ms(&us, 0.99), Some(99.0));
        assert_eq!(percentile_ms(&us, 1.0), Some(100.0));
        assert_eq!(percentile_ms(&[7_500], 0.50), Some(7.5));
        assert_eq!(fmt_ms(Some(7.5)), "7.5ms");
    }

    /// Staleness is an index comparison over the acked order; unknown
    /// heads (the server ran ahead of our writes) are never stale.
    #[test]
    fn ryw_staleness_follows_acked_order() {
        let ryw = Ryw::default();
        ryw.record(0xa);
        ryw.record(0xb);
        ryw.record(0xb); // idempotent re-ack
        ryw.record(0xc);
        assert_eq!(ryw.latest(), Some(0xc));
        assert!(ryw.is_stale(0xa, 0xc));
        assert!(ryw.is_stale(0xb, 0xc));
        assert!(!ryw.is_stale(0xc, 0xc));
        assert!(!ryw.is_stale(0xc, 0xa), "newer than reference is fine");
        assert!(!ryw.is_stale(0xdead, 0xc), "unknown head is not stale");
        assert_eq!(ryw.index_of(0xb), Some(1));
    }
}
