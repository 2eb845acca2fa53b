//! The six workloads: what each one sets up and what one op of it is.
//!
//! | workload       | data                         | op                                              |
//! |----------------|------------------------------|-------------------------------------------------|
//! | `fig1-repeat`  | music catalog                | the paper's Figure-1 query / its α-renaming     |
//! | `point-hit`    | synthetic skewed triples     | one of 64 selective queries, cycled             |
//! | `point-miss`   | same                         | the same shape, a fresh constant pair every op  |
//! | `star-join`    | same                         | a 3-atom star through the heavy-hitter `p0`     |
//! | `update-cycle` | same + pre-built 1% deltas   | reload base + one delta, then query the delta   |
//! | `paper-decide` | seeded trees and databases   | one pass over the paper's decision procedures   |
//!
//! `benchmark/README.md` records why each exists.

use crate::oracle::Expected;
use crate::pin::Cores;
use crate::trace::Tracer;
use crate::wire::{query_line, Client, Server};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wdpt_approx::wb_approximations;
use wdpt_core::{
    eval_bounded_interface, eval_decide, max_eval_decide, partial_eval_decide, subsumed, Engine,
    Wdpt, WdptBuilder, WidthKind,
};
use wdpt_gen::music::MusicParams;
use wdpt_gen::reductions::is_three_colorable;
use wdpt_gen::{
    chain_wdpt, music_triples, random_graph_db, star_wdpt, three_col_instance, write_synth_nt, Lcg,
    SynthParams,
};
use wdpt_model::{Atom, Const, Database, Interner, Mapping};
use wdpt_serve::{ServeConfig, ServeState};
use wdpt_store::{
    bulk_load_path, content_hash, delta_to_vec, load_snapshot, snapshot_to_vec_v2, LoadOptions,
};

pub const WORKLOADS: [&str; 6] = [
    "fig1-repeat",
    "point-hit",
    "point-miss",
    "star-join",
    "update-cycle",
    "paper-decide",
];

/// Name the served database is registered under.
pub const DB_NAME: &str = "bench";

/// Rounds of the measured phase: it runs until `--seconds` have passed, but
/// never fewer than `MIN_ROUNDS` (a median over fewer is a coin toss on the
/// tri-modal re-planned queries) and never more than `MAX_ROUNDS` (the
/// `point-miss` pool of fresh queries is built for that many).
pub const MIN_ROUNDS: usize = 9;
pub const MAX_ROUNDS: usize = 33;
/// `--quick` and every traced phase run exactly this many rounds.
pub const SHORT_ROUNDS: usize = 3;

/// Data sizes. `FULL` is what `BENCHMARK.json` measures; `QUICK` runs all
/// six workloads in a few seconds for CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub bands: usize,
    pub records_per_band: usize,
    pub synth_triples: u64,
    pub deltas: usize,
    pub point_keys: usize,
    /// Ops per round, indexed like [`WORKLOADS`]. The three query-repeat
    /// workloads use multiples of 9 — one full strategy rotation of the
    /// adaptive re-planner at `replan_runs = 3` — so every round sees the
    /// same plan mix.
    pub ops_per_round: [usize; 6],
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        bands: 3000,
        records_per_band: 9,
        synth_triples: 400_000,
        deltas: 4,
        point_keys: 64,
        ops_per_round: [9, 3200, 81, 9, 4, 12],
    };
    pub const QUICK: Sizes = Sizes {
        bands: 200,
        records_per_band: 9,
        synth_triples: 40_000,
        deltas: 2,
        point_keys: 64,
        ops_per_round: [9, 320, 27, 9, 2, 2],
    };

    pub fn ops_per_round(&self, workload: &str) -> usize {
        let index = WORKLOADS
            .iter()
            .position(|w| *w == workload)
            .expect("workload name was validated by the caller");
        self.ops_per_round[index]
    }
}

/// The configuration every served workload runs under: two workers, one
/// evaluation thread, everything else (re-planner, telemetry, plan cache)
/// at its default.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        eval_threads: 1,
        ..ServeConfig::default()
    }
}

/// What set-up needs to know about the run.
pub struct Env<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub sizes: Sizes,
    pub cores: Option<Cores>,
    /// Scratch directory inside the checkout for generated files.
    pub dir: &'a Path,
}

/// One query with its wire form and its oracle result.
pub struct Request {
    pub query: String,
    pub line: String,
    pub expected: Expected,
}

impl Request {
    fn new(
        query: String,
        db: &Database,
        scratch: &mut Interner,
        max_rows: usize,
    ) -> Result<Request, String> {
        let expected = Expected::compute(&query, db, scratch)?;
        if expected.answers == 0 {
            return Err(format!("query {query:?} has an empty expected answer set"));
        }
        Ok(Request {
            line: query_line(&query, max_rows),
            query,
            expected,
        })
    }
}

/// The snapshot + delta files `update-cycle` reloads from.
pub struct ReloadFiles {
    pub base: PathBuf,
    pub deltas: Vec<PathBuf>,
    /// Bytes and triples of all the delta files together.
    pub delta_bytes: u64,
    pub delta_triples: u64,
}

/// A workload that talks to the in-process server.
pub struct Served {
    pub server: Server,
    pub client: Client,
    /// Op `k` sends `requests[k % requests.len()]`.
    pub requests: Vec<Request>,
    pub max_rows: usize,
    /// `update-cycle` only: op `k` first reloads `base + deltas[k % n]`.
    pub reload: Option<ReloadFiles>,
    /// A copy of the interner the snapshot was loaded with, for the
    /// benchmark's own parsing (oracle, layer probes).
    pub scratch: Interner,
    /// Queries of the op's shape over other constants already in the data:
    /// fresh plan-cache keys for the plan-miss probe.
    pub fresh_queries: Vec<String>,
    pub snapshot: PathBuf,
    pub input_triples: u64,
    /// Snapshot bytes, plus delta bytes on `update-cycle`.
    pub stored_bytes: u64,
}

/// The result of one op.
pub struct OpOutcome {
    pub latency_ns: u64,
    /// Send → first response line; 0 for ops that are not wire requests.
    pub first_line_ns: u64,
    pub error: Option<String>,
}

impl Served {
    /// What the oracle expects of the first query, for the report.
    pub fn oracle_note(&self) -> String {
        let first = &self.requests[0];
        format!(
            "oracle: {} distinct queries; {:?} has {} answers, checksum {:016x}",
            self.requests.len(),
            first.query,
            first.expected.answers,
            first.expected.checksum
        )
    }

    fn op(&mut self, k: usize, tracer: &mut Tracer) -> OpOutcome {
        let start = std::time::Instant::now();
        if let Some(files) = &self.reload {
            let delta = &files.deltas[k % files.deltas.len()];
            let state = &self.server.state;
            // `ServeState::reload` is exactly these two calls; they are
            // made separately so the traced run can time each half.
            let loaded = tracer.span("serve.load_stage", |_| {
                state.load_stage(&files.base, std::slice::from_ref(delta))
            });
            let installed = loaded.and_then(|chain| {
                tracer.span("serve.install_stage", |_| {
                    state.install_stage(DB_NAME, chain)
                })
            });
            if let Err(e) = installed {
                return OpOutcome {
                    latency_ns: start.elapsed().as_nanos() as u64,
                    first_line_ns: 0,
                    error: Some(format!("reload: {e}")),
                };
            }
        }
        let request = &self.requests[k % self.requests.len()];
        let client = &mut self.client;
        let reply = tracer.span("wire.request", |_| client.request(&request.line));
        let latency_ns = start.elapsed().as_nanos() as u64;
        let (first_line_ns, error) = match reply {
            Err(e) => (0, Some(format!("wire: {e}"))),
            Ok(reply) if reply.status != "ok" => (
                reply.first_line_ns,
                Some(format!("status {:?} for {:?}", reply.status, request.query)),
            ),
            Ok(mut reply) => (
                reply.first_line_ns,
                request
                    .expected
                    .check(reply.answers, &mut reply.rows, self.max_rows)
                    .err()
                    .map(|e| format!("{e} for {:?}", request.query)),
            ),
        };
        OpOutcome {
            latency_ns,
            first_line_ns,
            error,
        }
    }
}

/// One procedure of the `paper-decide` suite with its known verdict.
struct Member {
    /// Span name, also the layer metric the member feeds.
    span: &'static str,
    /// Runs per pass, chosen so that every member takes a comparable share
    /// of the pass and none can regress unseen behind the NP cell.
    reps: usize,
    run: Box<dyn FnMut() -> bool>,
    expected: bool,
}

/// The `paper-decide` workload: the paper's algorithms as a library.
pub struct Suite {
    members: Vec<Member>,
    pub input_tuples: u64,
    pub stored_bytes: u64,
}

impl Suite {
    fn op(&mut self, tracer: &mut Tracer) -> OpOutcome {
        let start = std::time::Instant::now();
        let mut error = None;
        for m in &mut self.members {
            let verdict = tracer.span(m.span, |_| (0..m.reps).all(|_| (m.run)() == m.expected));
            if !verdict && error.is_none() {
                error = Some(format!("{}: verdict is not {}", m.span, m.expected));
            }
        }
        OpOutcome {
            latency_ns: start.elapsed().as_nanos() as u64,
            first_line_ns: 0,
            error,
        }
    }
}

/// A set-up workload, ready to run ops.
pub enum Bench {
    Served(Box<Served>),
    Decide(Box<Suite>),
}

impl Bench {
    /// Runs op number `k` (ops are numbered from the warm-up round on, so
    /// `point-miss` never repeats a query) and checks its result.
    pub fn op(&mut self, k: usize, tracer: &mut Tracer) -> OpOutcome {
        tracer.span("op", |tracer| match self {
            Bench::Served(s) => s.op(k, tracer),
            Bench::Decide(s) => s.op(tracer),
        })
    }

    pub fn input_triples(&self) -> u64 {
        match self {
            Bench::Served(s) => s.input_triples,
            Bench::Decide(s) => s.input_tuples,
        }
    }

    pub fn stored_bytes(&self) -> u64 {
        match self {
            Bench::Served(s) => s.stored_bytes,
            Bench::Decide(s) => s.stored_bytes,
        }
    }

    /// Stops the server (if any) and waits for its threads.
    pub fn shutdown(self) -> Result<(), String> {
        match self {
            Bench::Served(s) => {
                let Served { server, client, .. } = *s;
                drop(client);
                server.stop().map_err(|e| format!("server: {e}"))
            }
            Bench::Decide(_) => Ok(()),
        }
    }
}

/// Sets `workload` up from the seed: generate inputs, ingest, write and load
/// the snapshot, start the server, compute the oracle. The warm-up round is
/// the caller's.
pub fn setup(env: &Env<'_>, tracer: &mut Tracer) -> Result<Bench, String> {
    match env.workload {
        "fig1-repeat" => setup_fig1(env, tracer).map(|s| Bench::Served(Box::new(s))),
        "paper-decide" => setup_decide(env).map(|s| Bench::Decide(Box::new(s))),
        _ => setup_synth(env, tracer).map(|s| Bench::Served(Box::new(s))),
    }
}

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Encodes `(interner, db)` as a v2 snapshot file and returns its size.
fn write_snapshot(
    interner: &Interner,
    db: &Database,
    path: &Path,
    tracer: &mut Tracer,
) -> Result<u64, String> {
    let bytes = tracer
        .span("store.encode_v2", |_| snapshot_to_vec_v2(interner, db))
        .map_err(|e| io_err("encode snapshot", e))?;
    std::fs::write(path, &bytes).map_err(|e| io_err("write snapshot", e))?;
    Ok(bytes.len() as u64)
}

/// Loads `snapshot`, hands it to a fresh `ServeState`, starts the server
/// and connects the client. Returns them with the scratch interner.
fn start_serving(
    env: &Env<'_>,
    snapshot: &Path,
    tracer: &mut Tracer,
) -> Result<(Server, Client, Interner), String> {
    let (interner, db) = tracer
        .span("store.load_snapshot", |_| load_snapshot(snapshot))
        .map_err(|e| io_err("load snapshot", e))?;
    let scratch = interner.clone();
    let state = tracer.span("serve.state_new", |_| {
        ServeState::new(
            serve_config(),
            interner,
            BTreeMap::from([(DB_NAME.to_string(), db)]),
            DB_NAME,
        )
    });
    let server =
        Server::start(state, env.cores.map(|c| c.server)).map_err(|e| io_err("start server", e))?;
    let client = Client::connect(server.addr).map_err(|e| io_err("connect", e))?;
    Ok((server, client, scratch))
}

fn served_db(server: &Server) -> Arc<Database> {
    server
        .state
        .db(DB_NAME)
        .expect("the benchmark database was registered at start")
}

/// The paper's Figure-1 / Example-1 query over the music catalog's triple
/// rendering, and its α-renaming (same plan-cache key).
const FIG1_QUERY: &str = r#"(((?x, rec_by, ?y) AND (?x, publ, "after_2010")) OPT (?x, nme_rating, ?z)) OPT (?y, formed_in, ?z2)"#;
const FIG1_RENAMED: &str = r#"(((?a, rec_by, ?b) AND (?a, publ, "after_2010")) OPT (?a, nme_rating, ?c)) OPT (?b, formed_in, ?d)"#;

fn setup_fig1(env: &Env<'_>, tracer: &mut Tracer) -> Result<Served, String> {
    let snapshot = env.dir.join("music.snap");
    let (input_triples, stored_bytes) = {
        let mut interner = Interner::new();
        let store = tracer.span("gen.music", |_| {
            music_triples(
                &mut interner,
                MusicParams {
                    bands: env.sizes.bands,
                    records_per_band: env.sizes.records_per_band,
                    seed: env.seed,
                    ..MusicParams::default()
                },
            )
        });
        let db = store.into_database();
        let bytes = write_snapshot(&interner, &db, &snapshot, tracer)?;
        (db.size() as u64, bytes)
    };
    let (server, client, mut scratch) = start_serving(env, &snapshot, tracer)?;
    let max_rows = serve_config().max_rows;
    let db = served_db(&server);
    let requests = [FIG1_QUERY, FIG1_RENAMED]
        .into_iter()
        .map(|q| Request::new(q.to_string(), &db, &mut scratch, max_rows))
        .collect::<Result<Vec<_>, _>>()?;
    // Same shape, another existing constant in the era position.
    let fresh_queries = (0..env.sizes.bands.min(FRESH_QUERIES))
        .map(|b| FIG1_QUERY.replace("after_2010", &format!("band{b}")))
        .collect();
    Ok(Served {
        server,
        client,
        requests,
        max_rows,
        reload: None,
        scratch,
        fresh_queries,
        snapshot,
        input_triples,
        stored_bytes,
    })
}

/// Fresh-key queries kept for the plan-miss probe.
const FRESH_QUERIES: usize = 32;

fn point_query(subject: &str, pred: &str) -> String {
    format!("({subject}, {pred}, ?y) OPT ({subject}, p0, ?z)")
}

/// The heavy-hitter `p0` is written first; a planner that follows the text
/// starts from its 30% of the data instead of from `p1`.
const STAR_QUERY: &str = "((?x, p0, ?y) AND (?x, p1, ?z)) OPT (?x, p2, ?w)";

/// Draws `count` `(subject, predicate)` pairs for point queries from the
/// triples present in `db`, in a seed-determined order. Every pair is chosen
/// so that its query does the same work whatever the seed: the subject has
/// exactly two `p0` triples and exactly one triple under the predicate, so
/// `(s, p, ?y) OPT (s, p0, ?z)` has exactly two answers.
fn pick_pairs(
    db: &Database,
    interner: &Interner,
    count: usize,
    rng: &mut Lcg,
) -> Result<Vec<(String, String)>, String> {
    let (_, rel) = db.relations().next().ok_or("empty database")?;
    let p0 = interner
        .lookup_id(wdpt_model::SymbolSpace::Const, "p0")
        .ok_or("the data has no p0 triples")?;
    // Per subject: its p0 triples, and its triples per other predicate.
    let mut subjects: HashMap<Const, (usize, Vec<Const>)> = HashMap::new();
    for t in rel.tuples() {
        let entry = subjects.entry(t[0]).or_default();
        if t[1].0 == p0 {
            entry.0 += 1;
        } else {
            entry.1.push(t[1]);
        }
    }
    let mut pairs: Vec<(Const, Const)> = Vec::new();
    for (s, (p0_triples, mut preds)) in subjects {
        if p0_triples != 2 {
            continue;
        }
        preds.sort_unstable();
        for run in preds.chunk_by(|a, b| a == b).filter(|run| run.len() == 1) {
            pairs.push((s, run[0]));
        }
    }
    if pairs.len() < count {
        return Err(format!("only {} of {count} point keys found", pairs.len()));
    }
    // Hash-map order is not repeatable; sort, then shuffle by the seed.
    pairs.sort_unstable();
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.gen_range(0..i + 1));
    }
    Ok(pairs
        .iter()
        .take(count)
        .map(|(s, p)| {
            (
                interner.const_name(*s).to_string(),
                interner.const_name(*p).to_string(),
            )
        })
        .collect())
}

fn setup_synth(env: &Env<'_>, tracer: &mut Tracer) -> Result<Served, String> {
    let (workload, sizes) = (env.workload, &env.sizes);
    let nt = env.dir.join("synth.nt");
    let snapshot = env.dir.join("synth.snap");
    tracer
        .span("gen.synth", |_| -> std::io::Result<()> {
            let mut w = BufWriter::new(std::fs::File::create(&nt)?);
            write_synth_nt(
                &mut w,
                SynthParams {
                    seed: env.seed,
                    ..SynthParams::sized_skewed(sizes.synth_triples, 3)
                },
            )?;
            w.flush()
        })
        .map_err(|e| io_err("generate triples", e))?;

    // Keys: 64 cycled ones for point-hit, one per op for point-miss, a
    // handful for the plan-miss probe everywhere.
    let ops = sizes.ops_per_round(workload);
    let key_count = FRESH_QUERIES
        + match workload {
            "point-hit" => sizes.point_keys,
            "point-miss" => ops * (MAX_ROUNDS + 1),
            _ => 0,
        };
    let mut rng = Lcg::new(env.seed ^ 0x5eed_0f4b_6579);
    let (mut input_triples, mut stored_bytes, mut pairs) = {
        let mut interner = Interner::new();
        let (db, report) = tracer
            .span("store.ingest", |_| {
                bulk_load_path(
                    &mut interner,
                    &nt,
                    LoadOptions {
                        threads: 2,
                        ..LoadOptions::default()
                    },
                )
            })
            .map_err(|e| io_err("ingest", e))?;
        let pairs = pick_pairs(&db, &interner, key_count, &mut rng)?;
        let bytes = write_snapshot(&interner, &db, &snapshot, tracer)?;
        (report.tuples, bytes, pairs)
    };

    let (server, client, mut scratch) = start_serving(env, &snapshot, tracer)?;
    let max_rows = serve_config().max_rows;
    let fresh_pairs = pairs.split_off(pairs.len() - FRESH_QUERIES);
    let mut fresh_queries: Vec<String> =
        fresh_pairs.iter().map(|(s, p)| point_query(s, p)).collect();
    let mut reload = None;
    let requests = match workload {
        "star-join" => {
            // Same shape through other predicate triples.
            fresh_queries = (0..FRESH_QUERIES)
                .map(|j| {
                    STAR_QUERY
                        .replace("p2", &format!("p{}", 40 + j % 24))
                        .replace("p1", &format!("p{}", 3 + j))
                })
                .collect();
            let db = served_db(&server);
            vec![Request::new(
                STAR_QUERY.to_string(),
                &db,
                &mut scratch,
                max_rows,
            )?]
        }
        "update-cycle" => {
            let (requests, files) = build_deltas(env, &snapshot, max_rows, &mut rng, tracer)?;
            stored_bytes += files.delta_bytes;
            input_triples += files.delta_triples;
            reload = Some(files);
            requests
        }
        _ => {
            let db = served_db(&server);
            pairs
                .iter()
                .map(|(s, p)| Request::new(point_query(s, p), &db, &mut scratch, max_rows))
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    Ok(Served {
        server,
        client,
        requests,
        max_rows,
        reload,
        scratch,
        fresh_queries,
        snapshot,
        input_triples,
        stored_bytes,
    })
}

/// Builds `update-cycle`'s deltas against the base snapshot: each adds 1%
/// new triples under subjects no other file mentions, and comes with one
/// point query whose answer exists only in that delta.
fn build_deltas(
    env: &Env<'_>,
    snapshot: &Path,
    max_rows: usize,
    rng: &mut Lcg,
    tracer: &mut Tracer,
) -> Result<(Vec<Request>, ReloadFiles), String> {
    let base_hash = content_hash(&std::fs::read(snapshot).map_err(|e| io_err("read snapshot", e))?);
    let (base_interner, base_db) =
        load_snapshot(snapshot).map_err(|e| io_err("load snapshot", e))?;
    let subjects = (env.sizes.synth_triples / 200).max(1) as usize;
    let objects = SynthParams::sized(env.sizes.synth_triples).objects as usize;
    let mut requests = Vec::new();
    let mut files = Vec::new();
    let (mut delta_bytes, mut delta_triples) = (0, 0);
    for k in 0..env.sizes.deltas {
        let mut interner = base_interner.clone();
        let mut db = base_db.clone();
        let triple = interner.pred(wdpt_sparql::TRIPLE_PRED);
        let p0 = interner.constant("p0");
        // Two triples per new subject: one under p1..p63, one under p0, so
        // both halves of the point query match.
        for j in 0..subjects {
            let s = interner.constant(&format!("u{k}_{j}"));
            let p = interner.constant(&format!("p{}", 1 + j % 63));
            let o1 = interner.constant(&format!("o{}", rng.gen_range(0..objects)));
            let o2 = interner.constant(&format!("o{}", rng.gen_range(0..objects)));
            db.insert(triple, vec![s, p, o1]);
            db.insert(triple, vec![s, p0, o2]);
        }
        let bytes = tracer
            .span("store.delta_encode", |_| {
                delta_to_vec(base_hash, &base_interner, &base_db, &interner, &db)
            })
            .map_err(|e| io_err("encode delta", e))?;
        let path = env.dir.join(format!("delta{k}.delta"));
        std::fs::write(&path, &bytes).map_err(|e| io_err("write delta", e))?;
        delta_bytes += bytes.len() as u64;
        delta_triples += (db.size() - base_db.size()) as u64;
        files.push(path);
        requests.push(Request::new(
            point_query(&format!("u{k}_0"), "p1"),
            &db,
            &mut interner,
            max_rows,
        )?);
    }
    Ok((
        requests,
        ReloadFiles {
            base: snapshot.to_path_buf(),
            deltas: files,
            delta_bytes,
            delta_triples,
        },
    ))
}

/// The star family's database (as in the Table 1 harness): `a(s_j, u_j)`
/// with an `e(u_j, t_j)` edge for even `j`, so every optional branch has at
/// most one extension and the answer rooted at `s0` can be written down.
fn star_db(i: &mut Interner, m: usize) -> Database {
    let a = i.pred("a");
    let e = i.pred("e");
    let mut db = Database::new();
    for j in 0..m {
        let x = i.constant(&format!("s{j}"));
        let u = i.constant(&format!("u{j}"));
        db.insert(a, vec![x, u]);
        if j % 2 == 0 {
            let z = i.constant(&format!("t{j}"));
            db.insert(e, vec![u, z]);
        }
    }
    db
}

/// `{x ↦ s0, z_j ↦ t0}`: the answer of the `n`-branch star at `s0`.
fn star_answer(i: &mut Interner, n: usize) -> Mapping {
    let mut h = Mapping::from_pairs(vec![(i.var("x"), i.constant("s0"))]);
    let t0 = i.constant("t0");
    for j in 0..n {
        h.insert(i.var(&format!("z{j}")), t0);
    }
    h
}

/// A single-node Boolean tree whose body is the directed `m`-cycle; for odd
/// `m` it is its own core and lies outside `WB(1)`.
fn cycle_wdpt(i: &mut Interner, m: usize) -> Wdpt {
    let e = i.pred("e");
    let vs: Vec<_> = (0..m).map(|j| i.var(&format!("q{j}"))).collect();
    let atoms = (0..m)
        .map(|j| Atom::new(e, vec![vs[j].into(), vs[(j + 1) % m].into()]))
        .collect();
    WdptBuilder::new(atoms)
        .build(Vec::new())
        .expect("a single node is well-designed")
}

/// A 7-vertex graph that is never 3-colourable — a `K4` on four
/// seed-chosen vertices — plus four seed-chosen further edges. Every seed
/// gives the same verdict and the same search-space size, so the NP cell's
/// time does not depend on which graph the seed happened to draw.
fn hard_graph(rng: &mut Lcg) -> (usize, Vec<(usize, usize)>) {
    const N: usize = 7;
    let mut vertices: Vec<usize> = (0..N).collect();
    for i in (1..N).rev() {
        vertices.swap(i, rng.gen_range(0..i + 1));
    }
    let mut edges = Vec::new();
    for a in 0..4 {
        for b in a + 1..4 {
            edges.push((vertices[a].min(vertices[b]), vertices[a].max(vertices[b])));
        }
    }
    while edges.len() < 10 {
        let (a, b) = (rng.gen_range(0..N), rng.gen_range(0..N));
        let edge = (a.min(b), a.max(b));
        if a != b && !edges.contains(&edge) {
            edges.push(edge);
        }
    }
    (N, edges)
}

fn setup_decide(env: &Env<'_>) -> Result<Suite, String> {
    let mut rng = Lcg::new(env.seed ^ 0x00de_c1de);
    let mut members: Vec<Member> = Vec::new();
    let mut input_tuples = 0u64;
    let mut stored_bytes = 0u64;
    // The suite has no store; `stored_bytes_per_triple` is what its own
    // input databases would occupy as v2 snapshots.
    let mut account = |i: &Interner, db: &Database| -> Result<(), String> {
        input_tuples += db.size() as u64;
        stored_bytes += snapshot_to_vec_v2(i, db)
            .map_err(|e| io_err("encode suite database", e))?
            .len() as u64;
        Ok(())
    };

    // EVAL on ℓ-TW(1) ∩ BI(1) stars (Theorem 6): the written-down answer is
    // accepted, the same mapping with one branch re-aimed is not.
    {
        let mut i = Interner::new();
        const BRANCHES: [usize; 3] = [24, 48, 72];
        let trees: Vec<Wdpt> = BRANCHES.iter().map(|&n| star_wdpt(&mut i, n)).collect();
        let db = star_db(&mut i, 60);
        account(&i, &db)?;
        let good: Vec<Mapping> = BRANCHES.iter().map(|&n| star_answer(&mut i, n)).collect();
        let mut bad = good[0].clone();
        bad.remove(i.var("z0"));
        bad.insert(i.var("z0"), i.constant("t2"));
        members.push(Member {
            span: "core.eval_bi",
            reps: 2,
            run: Box::new(move || {
                trees
                    .iter()
                    .zip(&good)
                    .all(|(p, h)| eval_bounded_interface(p, &db, h, Engine::Tw(1)))
                    && !eval_bounded_interface(&trees[0], &db, &bad, Engine::Tw(1))
            }),
            expected: true,
        });
    }

    // PARTIAL-EVAL and MAX-EVAL on g-TW(1) chains over a seeded random
    // graph (Theorems 8 and 9); the verdicts come from the backtracking
    // engine, which shares no decomposition code with `Engine::Tw`.
    {
        let mut i = Interner::new();
        let p = chain_wdpt(&mut i, 24, Some(12));
        let (db, _) = random_graph_db(&mut i, 200, 1000, env.seed);
        account(&i, &db)?;
        let y0 = i.var("y0");
        let candidates: Vec<Mapping> = (0..40)
            .map(|c| Mapping::from_pairs(vec![(y0, i.constant(&format!("c{c}")))]))
            .collect();
        let partial: Vec<bool> = candidates
            .iter()
            .map(|h| partial_eval_decide(&p, &db, h, Engine::Backtrack))
            .collect();
        let maximal: Vec<bool> = candidates
            .iter()
            .map(|h| max_eval_decide(&p, &db, h, Engine::Backtrack))
            .collect();
        let (p2, db2, candidates2) = (p.clone(), db.clone(), candidates.clone());
        members.push(Member {
            span: "core.partial_eval",
            reps: 8,
            run: Box::new(move || {
                candidates
                    .iter()
                    .zip(&partial)
                    .all(|(h, want)| partial_eval_decide(&p, &db, h, Engine::Tw(1)) == *want)
            }),
            expected: true,
        });
        members.push(Member {
            span: "core.max_eval",
            reps: 24,
            run: Box::new(move || {
                candidates2
                    .iter()
                    .zip(&maximal)
                    .all(|(h, want)| max_eval_decide(&p2, &db2, h, Engine::Tw(1)) == *want)
            }),
            expected: true,
        });
    }

    // Subsumption of a chain by itself (Theorem 11's tractable side).
    {
        let mut i = Interner::new();
        let p1 = chain_wdpt(&mut i, 24, Some(2));
        let p2 = chain_wdpt(&mut i, 24, Some(2));
        members.push(Member {
            span: "core.subsumed",
            reps: 6,
            // Subsumption freezes variables into fresh constants; a scratch
            // copy per call keeps the interner (and the heap) from growing
            // with the number of passes.
            run: Box::new(move || subsumed(&p1, &p2, Engine::Tw(1), &mut i.clone())),
            expected: true,
        });
    }

    // One WB(1)-approximation of an odd cycle (Theorem 14): the pool search
    // must keep finding as many maximal approximations as it did in set-up.
    {
        let mut i = Interner::new();
        let p = cycle_wdpt(&mut i, 5);
        let found = wb_approximations(&p, WidthKind::Tw, 1, &mut i).len();
        if found == 0 {
            return Err("the odd cycle has no WB(1)-approximation in the pool".to_string());
        }
        members.push(Member {
            span: "approx.wb_approx",
            reps: 5,
            run: Box::new(move || {
                wb_approximations(&p, WidthKind::Tw, 1, &mut i.clone()).len() == found
            }),
            expected: true,
        });
    }

    // The NP cell (Proposition 3): exact EVAL of the 3-colourability
    // reduction, on a graph that is not 3-colourable.
    {
        let mut i = Interner::new();
        let (n, edges) = hard_graph(&mut rng);
        let inst = three_col_instance(&mut i, n, &edges);
        account(&i, &inst.db)?;
        members.push(Member {
            span: "core.np_cell",
            reps: 1,
            run: Box::new(move || eval_decide(&inst.wdpt, &inst.db, &inst.candidate)),
            expected: is_three_colorable(n, &edges),
        });
    }

    Ok(Suite {
        members,
        input_tuples,
        stored_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hard_graph_is_never_three_colourable_and_follows_the_seed() {
        let (n, a) = hard_graph(&mut Lcg::new(1));
        let (_, b) = hard_graph(&mut Lcg::new(2));
        let (_, a_again) = hard_graph(&mut Lcg::new(1));
        assert_eq!(a, a_again);
        assert_ne!(a, b);
        assert_eq!(a.len(), 10);
        assert!(!is_three_colorable(n, &a));
        assert!(!is_three_colorable(n, &b));
    }

    #[test]
    fn the_suite_passes_its_own_verdicts_on_two_seeds() {
        for seed in [7, 8] {
            let env = Env {
                workload: "paper-decide",
                seed,
                sizes: Sizes::QUICK,
                cores: None,
                dir: Path::new("."),
            };
            let mut suite = setup_decide(&env).unwrap();
            assert!(suite.stored_bytes > 0 && suite.input_tuples > 0);
            let outcome = suite.op(&mut Tracer::new(false));
            assert_eq!(outcome.error, None);
        }
    }

    #[test]
    fn round_sizes_on_the_repeat_workloads_cover_whole_strategy_rotations() {
        for sizes in [Sizes::FULL, Sizes::QUICK] {
            for w in ["fig1-repeat", "point-miss", "star-join"] {
                assert_eq!(sizes.ops_per_round(w) % 9, 0, "{w}");
            }
        }
    }
}
