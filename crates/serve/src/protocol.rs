//! The wire protocol: newline-delimited JSON over TCP.
//!
//! Each request is one JSON object on one line; the server answers with
//! zero or more `row` lines followed by exactly one terminal status line
//! (`ok`, `error`, `cancelled`, `overloaded`, or `shutting_down`). The
//! framing is [`wdpt_obs::write_json_line`] / [`wdpt_obs::read_json_line`]
//! — the same one-line-one-document discipline as the replication frames.
//! A request line that does not parse, nesting deeper than the parser's
//! bound included, is answered `bad_request` and the connection reads on.
//!
//! A response is one byte buffer, written to the socket in one piece. Its
//! terminal line is a [`Json`] built by one of the `*_line` functions below
//! and encoded into the buffer; its row lines are never `Json` values: the
//! evaluation keeps the first `max_rows` rows of the executor's
//! [`Answers`](wdpt_core::Answers) table and [`RowWriter`] appends each as
//! bytes, straight from the row's cells. [`row_line`] says what those bytes
//! must be — the two share one string escaper
//! ([`wdpt_obs::json::push_escaped`]), and the writer is tested against
//! `write_json_line(row_line(..))` on random rows.
//!
//! Request operations:
//!
//! * `{"op":"query","query":"SELECT … WHERE { … }", …}` — evaluate a
//!   SPARQL {AND, OPT} query. Optional fields: `id` (echoed back),
//!   `db` (named database), `deadline_ms`, `profile` (attach a
//!   [`wdpt_core` profile] to the `ok` line), `explain` (attach the cached
//!   plan's per-node facts and accumulated runtime stats), `max_rows`.
//! * `{"op":"ping"}` — liveness check.
//! * `{"op":"stats"}` — metrics snapshot (cache hit/miss counters, request
//!   tallies) without touching any database.
//! * `{"op":"metrics","format":"json"|"text"}` — the full telemetry
//!   surface: every counter, gauge, and histogram (with derived
//!   p50/p90/p99) plus per-plan runtime stats as JSON, or the same
//!   registry as Prometheus-style text exposition embedded in the
//!   response's `"text"` field.
//! * `{"op":"slowlog","keep":true}` — drain (or, with `keep`, peek at) the
//!   bounded ring of slow and deadline-exceeded queries, each entry
//!   carrying its stage-timed trace and captured EXPLAIN profile.
//! * `{"op":"shutdown"}` — begin graceful shutdown: in-flight and queued
//!   work completes, new queries get `shutting_down`.
//! * `{"op":"reload","snapshot":"base.snap","deltas":["d1.delta"],"db":"name"}`
//!   — load + verify a snapshot (and optional delta chain) without blocking
//!   queries, then atomically swap the named database (default database if
//!   `db` is omitted). In-flight queries finish against the old database;
//!   requests admitted after the swap see the new one. The response names
//!   how the base arrived: `"base":"kept"` (the base the server kept,
//!   nothing decoded), `"adopted"` or `"remapped"` (decoded in full).
//! * `{"op":"subscribe","base":"<head hex>"}` — turn the connection into a
//!   replication stream: the primary replays the delta suffix past `base`
//!   (or a full bootstrap when `base` is absent/unknown) and then pushes
//!   every subsequently accepted delta. Frame grammar in
//!   [`wdpt_repl::frames`].
//!
//! When the database a request reads or reloads came from a snapshot chain
//! (started from or reloaded as a snapshot, or replicated), its terminal
//! `ok` and `reload` lines carry `"head":"<hex>"` — that database's chain
//! tip, the consistency token. A query may demand `"min_head":"<hex>"`; a
//! database whose chain does not hold that position by the deadline is
//! answered with a typed `stale_replica` error instead of stale data.

use crate::server::Installed;
use wdpt_model::{Const, Interner, Var};
use wdpt_obs::json::push_escaped;
use wdpt_obs::Json;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate a query.
    Query {
        /// Client-chosen id echoed on every response line.
        id: Option<String>,
        /// The SPARQL query text.
        query: String,
        /// Named database; `None` means the server default.
        db: Option<String>,
        /// Per-request deadline in milliseconds; `None` means the server
        /// default. Clamped to the server maximum.
        deadline_ms: Option<u64>,
        /// Attach the evaluation profile to the `ok` line.
        profile: bool,
        /// Attach the plan's per-node facts and accumulated runtime stats
        /// (executions, nodes expanded, latency percentiles) to the `ok`
        /// line.
        explain: bool,
        /// Cap on the number of streamed `row` lines.
        max_rows: Option<usize>,
        /// Consistency token: serve only at-or-after this chain position,
        /// waiting up to the deadline, else answer `stale_replica`.
        min_head: Option<u64>,
    },
    /// Liveness check.
    Ping,
    /// Metrics snapshot.
    Stats,
    /// Full telemetry snapshot: counters, gauges, histograms with derived
    /// percentiles, and per-plan runtime stats.
    Metrics {
        /// Client-chosen id echoed on the response line.
        id: Option<String>,
        /// `true` for Prometheus-style text exposition (in the response's
        /// `"text"` field), `false` for structured JSON.
        text: bool,
    },
    /// Drain (or peek at) the slow-query ring buffer.
    Slowlog {
        /// Client-chosen id echoed on the response line.
        id: Option<String>,
        /// `true` leaves the entries in the ring instead of draining.
        keep: bool,
    },
    /// Graceful shutdown.
    Shutdown,
    /// Hot-swap a served database from a snapshot (+ delta chain).
    Reload {
        /// Client-chosen id echoed on the response line.
        id: Option<String>,
        /// Named database to swap; `None` means the server default.
        db: Option<String>,
        /// Path (as seen by the server) of the base snapshot.
        snapshot: String,
        /// Paths of delta files to apply on top, in chain order.
        deltas: Vec<String>,
    },
    /// Turn this connection into a replication stream (primary side).
    Subscribe {
        /// Client-chosen id echoed on the handshake line.
        id: Option<String>,
        /// The follower's current chain head, if it has one.
        base: Option<u64>,
    },
}

impl Request {
    /// Decodes a request from its wire object. `Err` carries a message for
    /// the `bad_request` error line.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing \"op\" field".to_string())?;
        match op {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "metrics" => {
                let id = v.get("id").and_then(Json::as_str).map(str::to_string);
                let text = match v.get("format") {
                    None | Some(Json::Null) => false,
                    Some(j) => match j.as_str() {
                        Some("json") => false,
                        Some("text") | Some("prometheus") => true,
                        _ => {
                            return Err(
                                "\"format\" must be \"json\", \"text\", or \"prometheus\"".into()
                            )
                        }
                    },
                };
                Ok(Request::Metrics { id, text })
            }
            "slowlog" => {
                let id = v.get("id").and_then(Json::as_str).map(str::to_string);
                let keep = match v.get("keep") {
                    None | Some(Json::Null) => false,
                    Some(Json::Bool(b)) => *b,
                    Some(_) => return Err("\"keep\" must be a boolean".into()),
                };
                Ok(Request::Slowlog { id, keep })
            }
            "reload" => {
                let snapshot = v
                    .get("snapshot")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "reload op requires a string \"snapshot\" field".to_string())?
                    .to_string();
                let id = v.get("id").and_then(Json::as_str).map(str::to_string);
                let db = v.get("db").and_then(Json::as_str).map(str::to_string);
                let deltas = match v.get("deltas") {
                    None | Some(Json::Null) => Vec::new(),
                    Some(Json::Arr(items)) => {
                        let mut out = Vec::with_capacity(items.len());
                        for item in items {
                            out.push(
                                item.as_str()
                                    .ok_or_else(|| {
                                        "\"deltas\" must be an array of strings".to_string()
                                    })?
                                    .to_string(),
                            );
                        }
                        out
                    }
                    Some(_) => return Err("\"deltas\" must be an array of strings".into()),
                };
                Ok(Request::Reload {
                    id,
                    db,
                    snapshot,
                    deltas,
                })
            }
            "subscribe" => {
                let id = v.get("id").and_then(Json::as_str).map(str::to_string);
                let base = match v.get("base") {
                    None | Some(Json::Null) => None,
                    Some(j) => Some(
                        j.as_str()
                            .and_then(wdpt_store::parse_head_hex)
                            .ok_or("\"base\" must be a 16-digit hex chain-head hash")?,
                    ),
                };
                Ok(Request::Subscribe { id, base })
            }
            "query" => {
                let query = v
                    .get("query")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "query op requires a string \"query\" field".to_string())?
                    .to_string();
                let id = v.get("id").and_then(Json::as_str).map(str::to_string);
                let db = v.get("db").and_then(Json::as_str).map(str::to_string);
                let deadline_ms = match v.get("deadline_ms") {
                    None | Some(Json::Null) => None,
                    Some(j) => match j.as_num() {
                        Some(ms) if ms >= 0.0 => Some(ms as u64),
                        _ => return Err("\"deadline_ms\" must be a non-negative number".into()),
                    },
                };
                let profile = matches!(v.get("profile"), Some(Json::Bool(true)));
                let explain = matches!(v.get("explain"), Some(Json::Bool(true)));
                let max_rows = match v.get("max_rows") {
                    None | Some(Json::Null) => None,
                    Some(j) => match j.as_num() {
                        Some(n) if n >= 0.0 => Some(n as usize),
                        _ => return Err("\"max_rows\" must be a non-negative number".into()),
                    },
                };
                let min_head = match v.get("min_head") {
                    None | Some(Json::Null) => None,
                    Some(j) => Some(
                        j.as_str()
                            .and_then(wdpt_store::parse_head_hex)
                            .ok_or("\"min_head\" must be a 16-digit hex chain-head hash")?,
                    ),
                };
                Ok(Request::Query {
                    id,
                    query,
                    db,
                    deadline_ms,
                    profile,
                    explain,
                    max_rows,
                    min_head,
                })
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Encodes the request as its wire object (used by `loadgen` and
    /// tests; the server only decodes).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => Json::obj([("op", Json::str("ping"))]),
            Request::Stats => Json::obj([("op", Json::str("stats"))]),
            Request::Shutdown => Json::obj([("op", Json::str("shutdown"))]),
            Request::Metrics { id, text } => {
                let mut pairs = vec![("op".to_string(), Json::str("metrics"))];
                if let Some(id) = id {
                    pairs.push(("id".to_string(), Json::str(id.clone())));
                }
                if *text {
                    pairs.push(("format".to_string(), Json::str("text")));
                }
                Json::obj(pairs)
            }
            Request::Slowlog { id, keep } => {
                let mut pairs = vec![("op".to_string(), Json::str("slowlog"))];
                if let Some(id) = id {
                    pairs.push(("id".to_string(), Json::str(id.clone())));
                }
                if *keep {
                    pairs.push(("keep".to_string(), Json::Bool(true)));
                }
                Json::obj(pairs)
            }
            Request::Reload {
                id,
                db,
                snapshot,
                deltas,
            } => {
                let mut pairs = vec![
                    ("op".to_string(), Json::str("reload")),
                    ("snapshot".to_string(), Json::str(snapshot.clone())),
                ];
                if let Some(id) = id {
                    pairs.push(("id".to_string(), Json::str(id.clone())));
                }
                if let Some(db) = db {
                    pairs.push(("db".to_string(), Json::str(db.clone())));
                }
                if !deltas.is_empty() {
                    pairs.push((
                        "deltas".to_string(),
                        Json::Arr(deltas.iter().map(|d| Json::str(d.clone())).collect()),
                    ));
                }
                Json::obj(pairs)
            }
            Request::Subscribe { id, base } => {
                let mut pairs = vec![("op".to_string(), Json::str("subscribe"))];
                if let Some(id) = id {
                    pairs.push(("id".to_string(), Json::str(id.clone())));
                }
                if let Some(base) = base {
                    pairs.push(("base".to_string(), Json::str(wdpt_store::head_hex(*base))));
                }
                Json::obj(pairs)
            }
            Request::Query {
                id,
                query,
                db,
                deadline_ms,
                profile,
                explain,
                max_rows,
                min_head,
            } => {
                let mut pairs = vec![
                    ("op".to_string(), Json::str("query")),
                    ("query".to_string(), Json::str(query.clone())),
                ];
                if let Some(id) = id {
                    pairs.push(("id".to_string(), Json::str(id.clone())));
                }
                if let Some(db) = db {
                    pairs.push(("db".to_string(), Json::str(db.clone())));
                }
                if let Some(ms) = deadline_ms {
                    pairs.push(("deadline_ms".to_string(), Json::int(*ms)));
                }
                if *profile {
                    pairs.push(("profile".to_string(), Json::Bool(true)));
                }
                if *explain {
                    pairs.push(("explain".to_string(), Json::Bool(true)));
                }
                if let Some(n) = max_rows {
                    pairs.push(("max_rows".to_string(), Json::int(*n as u64)));
                }
                if let Some(h) = min_head {
                    pairs.push(("min_head".to_string(), Json::str(wdpt_store::head_hex(*h))));
                }
                Json::obj(pairs)
            }
        }
    }
}

/// Attaches the echoed request id, if any.
fn with_id(mut pairs: Vec<(String, Json)>, id: Option<&str>) -> Json {
    if let Some(id) = id {
        pairs.push(("id".to_string(), Json::str(id)));
    }
    Json::obj(pairs)
}

/// One streamed answer: `{"kind":"row","bindings":{var: const, …}}`.
///
/// The server does not build this value per row — [`RowWriter`] writes the
/// same bytes from the executor's cells — so this function is the
/// specification of a row line: the writer is property-tested against it,
/// and clients that re-encode rows (the benchmark's checker) compile
/// against it.
pub fn row_line(id: Option<&str>, bindings: Vec<(String, String)>) -> Json {
    with_id(
        vec![
            ("kind".to_string(), Json::str("row")),
            (
                "bindings".to_string(),
                Json::obj(bindings.into_iter().map(|(k, v)| (k, Json::str(v)))),
            ),
        ],
        id,
    )
}

/// Writes the `row` lines of one response straight from the cells of an
/// [`Answers`](wdpt_core::Answers) table: per row no `Mapping`, no `String`
/// and no [`Json`], only bytes appended to the response buffer. What it
/// writes for a row is what [`wdpt_obs::write_json_line`] writes for
/// [`row_line`] of the row's bound cells.
///
/// Everything that does not depend on the row is resolved once, here: an
/// object prints its keys in the byte order of `Json::obj`'s `BTreeMap`, so
/// the columns are sorted by the request's variable names, each name is
/// escaped once as `"name":`, and `"bindings"` < `"id"` < `"kind"` fixes
/// where the echoed id goes.
pub struct RowWriter {
    /// Per variable a row may bind, in printing order: `"name":` and the
    /// variable's cell in a row.
    columns: Vec<(Vec<u8>, usize)>,
    /// Everything after the bindings object, newline included.
    tail: Vec<u8>,
}

impl RowWriter {
    /// `names[k]` is what the request calls `canon_vars[k]`; `header` is the
    /// [`vars`](wdpt_core::Answers::vars) of the table the rows come from. A
    /// variable outside the header (projected away) is never printed.
    pub fn new(
        id: Option<&str>,
        names: &[String],
        canon_vars: &[Var],
        header: &[Var],
    ) -> RowWriter {
        let mut named: Vec<(&str, usize)> = names
            .iter()
            .zip(canon_vars)
            .filter_map(|(name, v)| Some((name.as_str(), header.binary_search(v).ok()?)))
            .collect();
        named.sort_unstable();
        let columns = named
            .into_iter()
            .map(|(name, cell)| {
                let mut key = Vec::with_capacity(name.len() + 3);
                push_escaped(&mut key, name);
                key.push(b':');
                (key, cell)
            })
            .collect();
        let mut tail = b"}".to_vec();
        if let Some(id) = id {
            tail.extend_from_slice(b",\"id\":");
            push_escaped(&mut tail, id);
        }
        tail.extend_from_slice(b",\"kind\":\"row\"}\n");
        RowWriter { columns, tail }
    }

    /// Appends `row` to `out` as one newline-terminated `row` line, its
    /// constants named by `interner`.
    pub fn write(&self, out: &mut Vec<u8>, row: &[Option<Const>], interner: &Interner) {
        out.extend_from_slice(b"{\"bindings\":{");
        let mut first = true;
        for (key, cell) in &self.columns {
            let Some(c) = row[*cell] else { continue };
            if !first {
                out.push(b',');
            }
            first = false;
            out.extend_from_slice(key);
            push_escaped(out, interner.const_name(c));
        }
        out.extend_from_slice(&self.tail);
    }
}

/// Terminal success line. `cache` is `"hit"` or `"miss"`;
/// `rows` is how many row lines were streamed (≤ `answers` under
/// `max_rows` truncation).
pub fn ok_line(
    id: Option<&str>,
    answers: usize,
    rows: usize,
    cache: &str,
    wall_us: u64,
    profile: Option<Json>,
    explain: Option<Json>,
) -> Json {
    let mut pairs = vec![
        ("status".to_string(), Json::str("ok")),
        ("answers".to_string(), Json::int(answers as u64)),
        ("rows".to_string(), Json::int(rows as u64)),
        ("cache".to_string(), Json::str(cache)),
        ("wall_us".to_string(), Json::int(wall_us)),
    ];
    if let Some(p) = profile {
        pairs.push(("profile".to_string(), p));
    }
    if let Some(e) = explain {
        pairs.push(("explain".to_string(), e));
    }
    with_id(pairs, id)
}

/// The `metrics` op's JSON-format response: the full registry snapshot
/// (rendered by `wdpt_obs::snapshot_to_json`) plus per-plan runtime stats.
pub fn metrics_json_line(id: Option<&str>, metrics: Json, plans: Json) -> Json {
    with_id(
        vec![
            ("status".to_string(), Json::str("ok")),
            ("kind".to_string(), Json::str("metrics")),
            ("format".to_string(), Json::str("json")),
            ("metrics".to_string(), metrics),
            ("plans".to_string(), plans),
        ],
        id,
    )
}

/// The `metrics` op's text-format response: Prometheus exposition embedded
/// as one JSON string (the wire framing is line-based JSON, so the client
/// unwraps `"text"` to recover the multi-line exposition verbatim).
pub fn metrics_text_line(id: Option<&str>, text: String) -> Json {
    with_id(
        vec![
            ("status".to_string(), Json::str("ok")),
            ("kind".to_string(), Json::str("metrics")),
            ("format".to_string(), Json::str("text")),
            ("text".to_string(), Json::str(text)),
        ],
        id,
    )
}

/// The `slowlog` op's response: the ring's entries oldest-first, plus how
/// many older entries were dropped at capacity since the last drain.
pub fn slowlog_line(id: Option<&str>, entries: Vec<Json>, dropped: u64) -> Json {
    with_id(
        vec![
            ("status".to_string(), Json::str("ok")),
            ("kind".to_string(), Json::str("slowlog")),
            ("entries".to_string(), Json::Arr(entries)),
            ("dropped".to_string(), Json::int(dropped)),
        ],
        id,
    )
}

/// Terminal error line. `kind` is a machine-readable class
/// (`bad_request`, `parse_error`, `not_well_designed`, `unknown_db`,
/// `unknown_select_var`); `at` is a byte offset into the query for parse
/// errors.
pub fn error_line(id: Option<&str>, kind: &str, message: &str, at: Option<usize>) -> Json {
    let mut pairs = vec![
        ("status".to_string(), Json::str("error")),
        ("kind".to_string(), Json::str(kind)),
        ("message".to_string(), Json::str(message)),
    ];
    if let Some(at) = at {
        pairs.push(("at".to_string(), Json::int(at as u64)));
    }
    with_id(pairs, id)
}

/// Terminal line for a query whose deadline expired: the cooperative
/// cancellation token tripped inside the evaluation loops.
pub fn cancelled_line(id: Option<&str>, deadline_ms: u64, wall_us: u64) -> Json {
    with_id(
        vec![
            ("status".to_string(), Json::str("cancelled")),
            ("deadline_ms".to_string(), Json::int(deadline_ms)),
            ("wall_us".to_string(), Json::int(wall_us)),
        ],
        id,
    )
}

/// Backpressure line: every evaluation permit is taken and the line of
/// requests waiting for one is full. The client should wait
/// `retry_after_ms` before resubmitting.
pub fn overloaded_line(id: Option<&str>, retry_after_ms: u64) -> Json {
    with_id(
        vec![
            ("status".to_string(), Json::str("overloaded")),
            ("retry_after_ms".to_string(), Json::int(retry_after_ms)),
        ],
        id,
    )
}

/// Terminal line for a successful `reload`: what was swapped in, how many
/// deltas were chained, how the base arrived, the `head` the database is
/// now served at, and how long the load + swap took.
pub fn reload_line(id: Option<&str>, db: &str, installed: &Installed, wall_us: u64) -> Json {
    with_id(
        vec![
            ("status".to_string(), Json::str("ok")),
            ("kind".to_string(), Json::str("reload")),
            ("db".to_string(), Json::str(db)),
            ("tuples".to_string(), Json::int(installed.tuples as u64)),
            (
                "deltas_applied".to_string(),
                Json::int(installed.deltas as u64),
            ),
            ("base".to_string(), Json::str(installed.base.as_str())),
            (
                "head".to_string(),
                Json::str(wdpt_store::head_hex(installed.head)),
            ),
            ("wall_us".to_string(), Json::int(wall_us)),
        ],
        id,
    )
}

/// The server is draining; no new queries are accepted.
pub fn shutting_down_line(id: Option<&str>) -> Json {
    with_id(vec![("status".to_string(), Json::str("shutting_down"))], id)
}

/// Attaches the served chain-head hash (the read-your-writes consistency
/// token) to a terminal line, when the serving state has a chain identity.
pub fn attach_head(line: &mut Json, head: Option<u64>) {
    if let (Json::Obj(pairs), Some(h)) = (line, head) {
        pairs.insert("head".to_string(), Json::str(wdpt_store::head_hex(h)));
    }
}

/// Typed error for a replica that could not reach `min_head` before the
/// deadline. `head` is the position it *is* at, if it has one.
pub fn stale_replica_line(id: Option<&str>, min_head: u64, head: Option<u64>) -> Json {
    let mut line = error_line(
        id,
        "stale_replica",
        "replica has not applied the requested chain position",
        None,
    );
    if let Json::Obj(pairs) = &mut line {
        pairs.insert(
            "min_head".to_string(),
            Json::str(wdpt_store::head_hex(min_head)),
        );
    }
    attach_head(&mut line, head);
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_wire_form() {
        let reqs = vec![
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Query {
                id: Some("q1".into()),
                query: "SELECT ?x WHERE { (?x, p, c) }".into(),
                db: Some("music".into()),
                deadline_ms: Some(250),
                profile: true,
                explain: true,
                max_rows: Some(10),
                min_head: Some(0xdead_beef_0102_0304),
            },
            Request::Query {
                id: None,
                query: "(?x, p, ?y)".into(),
                db: None,
                deadline_ms: None,
                profile: false,
                explain: false,
                max_rows: None,
                min_head: None,
            },
            Request::Subscribe {
                id: Some("f1".into()),
                base: Some(0xabcd),
            },
            Request::Subscribe {
                id: None,
                base: None,
            },
            Request::Metrics {
                id: Some("m1".into()),
                text: true,
            },
            Request::Metrics {
                id: None,
                text: false,
            },
            Request::Slowlog {
                id: Some("s1".into()),
                keep: true,
            },
            Request::Slowlog {
                id: None,
                keep: false,
            },
            Request::Reload {
                id: Some("r1".into()),
                db: Some("music".into()),
                snapshot: "/tmp/base.snap".into(),
                deltas: vec!["/tmp/d1.delta".into(), "/tmp/d2.delta".into()],
            },
            Request::Reload {
                id: None,
                db: None,
                snapshot: "base.snap".into(),
                deltas: Vec::new(),
            },
        ];
        for r in reqs {
            let wire = r.to_json();
            let text = wire.to_string();
            let back = Request::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_messages() {
        let bad = [
            r#"{"query":"x"}"#,
            r#"{"op":"evaluate"}"#,
            r#"{"op":"query"}"#,
            r#"{"op":"query","query":"x","deadline_ms":-1}"#,
            r#"{"op":"query","query":"x","max_rows":"many"}"#,
            r#"{"op":"reload"}"#,
            r#"{"op":"reload","snapshot":"s","deltas":"d"}"#,
            r#"{"op":"reload","snapshot":"s","deltas":[1]}"#,
            r#"{"op":"metrics","format":"xml"}"#,
            r#"{"op":"metrics","format":7}"#,
            r#"{"op":"slowlog","keep":"yes"}"#,
            r#"{"op":"query","query":"x","min_head":"xyz"}"#,
            r#"{"op":"query","query":"x","min_head":7}"#,
            r#"{"op":"subscribe","base":"123"}"#,
        ];
        for text in bad {
            let v = Json::parse(text).unwrap();
            assert!(Request::from_json(&v).is_err(), "accepted {text}");
        }
    }

    /// Rows over 1–6 variables written by [`RowWriter`] against the same
    /// rows through [`row_line`] and the `Json` encoder — the path the
    /// server took before it wrote rows from cells.
    #[test]
    fn row_writer_matches_row_line() {
        let mut r = wdpt_gen::rng::Lcg::new(22);
        // Every escape class, a non-ASCII and a 4-byte scalar, and plain text.
        let alphabet = [
            "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "🎶", "a", "b", "Z",
            "_", "0", " ", ":", ",", "{", "}",
        ];
        let word = |r: &mut wdpt_gen::rng::Lcg| -> String {
            (0..r.gen_range(0..6))
                .map(|_| alphabet[r.gen_range(0..alphabet.len())])
                .collect()
        };
        let mut interner = Interner::new();
        let constants: Vec<Const> = (0..24)
            .map(|k| {
                let name = format!("{}{k}", word(&mut r));
                interner.constant(&name)
            })
            .collect();
        let ids = [
            None,
            Some("q7".to_string()),
            Some("\"q\\\n\u{1}é\"".to_string()),
        ];
        let mut all_unbound_rows = 0;
        for case in 0..400 {
            let n = r.gen_range(1..7);
            // Canonical variables in request order: `?b` may come before
            // `?a`, and canonical order is not name order either.
            let mut canon_vars: Vec<Var> = (0..n as u32).map(|k| Var(100 + 3 * k)).collect();
            for k in (1..n).rev() {
                canon_vars.swap(k, r.gen_range(0..k + 1));
            }
            // Distinct by their suffix, whatever the random part is.
            let names: Vec<String> = (0..n)
                .map(|k| format!("{}{}", word(&mut r), n - k))
                .collect();
            // Some variables are projected away.
            let mut header: Vec<Var> = canon_vars
                .iter()
                .copied()
                .filter(|_| r.gen_bool(0.75))
                .collect();
            header.sort_unstable();
            let id = ids[case % ids.len()].as_deref();
            let writer = RowWriter::new(id, &names, &canon_vars, &header);
            let mut rows: Vec<Vec<Option<Const>>> = (0..r.gen_range(1..5))
                .map(|_| {
                    (0..header.len())
                        .map(|_| {
                            r.gen_bool(0.67)
                                .then(|| constants[r.gen_range(0..constants.len())])
                        })
                        .collect()
                })
                .collect();
            rows.push(vec![None; header.len()]);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for row in &rows {
                writer.write(&mut got, row, &interner);
                let bindings: Vec<(String, String)> = names
                    .iter()
                    .zip(&canon_vars)
                    .filter_map(|(name, v)| {
                        let cell = row[header.binary_search(v).ok()?]?;
                        Some((name.clone(), interner.const_name(cell).to_string()))
                    })
                    .collect();
                all_unbound_rows += usize::from(bindings.is_empty());
                wdpt_obs::write_json_line(&mut want, &row_line(id, bindings)).unwrap();
            }
            assert_eq!(
                String::from_utf8(got).unwrap(),
                String::from_utf8(want).unwrap(),
                "case {case}: names {names:?}, id {id:?}"
            );
        }
        assert!(all_unbound_rows >= 400);
        // The all-unbound row without an id, spelled out.
        let mut out = Vec::new();
        RowWriter::new(None, &["x".to_string()], &[Var(1)], &[Var(1)]).write(
            &mut out,
            &[None],
            &interner,
        );
        assert_eq!(out, b"{\"bindings\":{},\"kind\":\"row\"}\n");
    }

    #[test]
    fn response_lines_carry_status_and_id() {
        let ok = ok_line(Some("a"), 5, 3, "hit", 120, None, None);
        assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(ok.get("id").and_then(Json::as_str), Some("a"));
        assert_eq!(ok.get("cache").and_then(Json::as_str), Some("hit"));

        let ok2 = ok_line(
            None,
            1,
            1,
            "miss",
            9,
            None,
            Some(Json::obj([("cache", Json::str("miss"))])),
        );
        assert!(ok2.get("explain").is_some());

        let m = metrics_text_line(Some("m"), "# TYPE x counter\nx 1\n".into());
        assert_eq!(m.get("kind").and_then(Json::as_str), Some("metrics"));
        assert!(m
            .get("text")
            .and_then(Json::as_str)
            .unwrap()
            .contains("# TYPE"));

        let s = slowlog_line(None, vec![Json::obj([("status", Json::str("slow"))])], 2);
        assert_eq!(s.get("kind").and_then(Json::as_str), Some("slowlog"));
        assert_eq!(s.get("dropped").and_then(Json::as_num), Some(2.0));
        assert_eq!(s.get("entries").unwrap().as_arr().unwrap().len(), 1);

        let err = error_line(None, "parse_error", "expected ')'", Some(7));
        assert_eq!(err.get("at").and_then(Json::as_num), Some(7.0));
        assert_eq!(err.get("id"), None);

        let over = overloaded_line(Some("b"), 50);
        assert_eq!(
            over.get("status").and_then(Json::as_str),
            Some("overloaded")
        );
        assert_eq!(
            over.get("retry_after_ms").and_then(Json::as_num),
            Some(50.0)
        );

        let mut with_head = ok_line(None, 1, 1, "hit", 5, None, None);
        attach_head(&mut with_head, None);
        assert_eq!(with_head.get("head"), None);
        attach_head(&mut with_head, Some(0xff));
        assert_eq!(
            with_head.get("head").and_then(Json::as_str),
            Some("00000000000000ff")
        );

        let stale = stale_replica_line(Some("s"), 0xaa, Some(0xbb));
        assert_eq!(stale.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            stale.get("kind").and_then(Json::as_str),
            Some("stale_replica")
        );
        assert_eq!(
            stale.get("min_head").and_then(Json::as_str),
            Some("00000000000000aa")
        );
        assert_eq!(
            stale.get("head").and_then(Json::as_str),
            Some("00000000000000bb")
        );

        let row = row_line(Some("c"), vec![("x".into(), "band3".into())]);
        assert_eq!(row.get("kind").and_then(Json::as_str), Some("row"));
        assert_eq!(
            row.get("bindings").unwrap().get("x").and_then(Json::as_str),
            Some("band3")
        );
    }
}
