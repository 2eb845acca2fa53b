//! The concurrent query server: accept loop, worker pool, backpressure,
//! deadlines, graceful shutdown.
//!
//! Threading model:
//!
//! * The **accept loop** ([`serve`]) owns the listener (nonblocking, so it
//!   can notice shutdown) and spawns one thread per connection.
//! * **Connection threads** read request lines and run the query's front
//!   half. Parse, size caps, canonicalize and tree translation hold the
//!   interner lock — once per request, and it is the only lock the plan
//!   path takes. Join-order planning runs lock-free and interner-free
//!   through the plan cache's per-key in-flight slots, and so do the
//!   worst-case-exponential per-node facts (cores, decompositions) that
//!   only an `explain: true` request computes — both under the request's
//!   [`CancelToken`].
//!   The evaluation job then goes onto a **bounded** queue
//!   (`std::sync::mpsc::sync_channel`). A full queue is the backpressure
//!   signal: the request is answered `overloaded` immediately rather than
//!   waiting — the client decides whether to retry.
//! * **Worker threads** pull jobs off the shared queue and run the actual
//!   WDPT evaluation with the request's [`CancelToken`] threaded through
//!   the `wdpt-core`/`wdpt-cq` loops. Deadline expiry surfaces as a typed
//!   [`Cancelled`] and an explicit `cancelled` response line. The worker
//!   also encodes the response: it asks the executor for its first
//!   `max_rows` rows — the count of all answers comes with them, exact,
//!   and rows nobody is sent are built only where the answer order needs
//!   them — writes them as row lines into one buffer straight
//!   from their cells — the second and last place a request takes the
//!   interner lock, held for that loop only and never across evaluation —
//!   and appends the terminal line. The connection thread writes the
//!   buffer to the socket in one piece.
//!
//! Admission control against adversarial queries: [`ServeConfig`] caps the
//! atom and variable counts of a query (evaluation is exponential in query
//! size) and the total interned-symbol count (the shared interner never
//! shrinks; requests that would grow it past `max_symbols` are rejected
//! and their symbols rolled back, so server memory stays bounded under
//! varied query streams).
//!
//! Graceful shutdown: the `shutdown` op (or [`ServeState::begin_shutdown`])
//! flips one flag. The accept loop stops accepting, connection threads
//! answer in-flight requests and close, queued jobs drain through the
//! workers, and [`serve`] joins everything before returning.

use crate::cache::{canonicalize, explain_json, CanonicalQuery, NodePlan, Plan, PlanCache};
use crate::db::{merge_snapshot, merge_symbols, translate_database};
use crate::protocol::{
    attach_head, cancelled_line, error_line, metrics_json_line, metrics_text_line, ok_line,
    overloaded_line, reload_line, shutting_down_line, slowlog_line, stale_replica_line, Request,
    RowWriter,
};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant, SystemTime};
use wdpt_core::{EvalTally, Wdpt};
use wdpt_model::{CancelToken, Cancelled, Database, Interner, Var};
use wdpt_obs::trace::Stage;
use wdpt_obs::{
    counter, gauge, gauge_scope, histogram, metrics_snapshot, render_prometheus, snapshot_to_json,
    Json, ProfileRecorder, QueryProfile, RequestTrace,
};
use wdpt_plan::{CountedCatalog, StatsCatalog};
use wdpt_repl::frames::{delta_frame, snapshot_frame, subscribed_line};
use wdpt_repl::{Primary, ReplApply, ReplHead, SubscribeStart};
use wdpt_sparql::algebra::SparqlError;
use wdpt_sparql::{parse_query, GraphPattern};
use wdpt_store::ChainSymbols;

/// Server tunables. [`Default`] gives the values the `wdpt-serve` binary
/// advertises in `--help`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Evaluation worker threads.
    pub workers: usize,
    /// Threads *inside* one evaluation (the executor's root fan-out).
    pub eval_threads: usize,
    /// Bounded queue depth between connections and workers; the
    /// backpressure threshold.
    pub queue_capacity: usize,
    /// Deadline applied when a request names none, in milliseconds.
    pub default_deadline_ms: u64,
    /// Upper clamp on requested deadlines, in milliseconds.
    pub max_deadline_ms: u64,
    /// Plan-cache capacity (entries).
    pub cache_capacity: usize,
    /// Default cap on streamed rows per query.
    pub max_rows: usize,
    /// *Base* client backoff on `overloaded`, in milliseconds. The hint a
    /// client actually receives scales with the current queue depth and
    /// carries a deterministic per-request jitter so a flood of rejected
    /// clients does not retry in lockstep — see [`retry_after_hint`].
    pub retry_after_ms: u64,
    /// Admission cap on a query's triple-pattern count: planning and
    /// evaluation are worst-case exponential in query size, so unbounded
    /// client queries are rejected up front with `query_too_large`.
    pub max_query_atoms: usize,
    /// Admission cap on a query's distinct-variable count, honoured as
    /// configured: no search on the request path has a vertex limit (an
    /// `explain` of a node with more variables than the exact-treewidth DP
    /// supports reports `treewidth: null`).
    pub max_query_vars: usize,
    /// Upper bound on the shared interner's total symbol count. The
    /// interner never shrinks, so without this cap an adversarial stream
    /// of queries with fresh identifiers grows server memory without
    /// bound; requests that would exceed it are rejected with
    /// `symbol_limit` and their new symbols rolled back.
    pub max_symbols: usize,
    /// Wall-time threshold above which a completed query is logged in the
    /// slow-query ring, in milliseconds. `0` disables the slowlog. The
    /// threshold costs the requests under it nothing: an entry is built,
    /// from the counts every evaluation hands back, only when one is pushed.
    pub slowlog_threshold_ms: u64,
    /// Bounded capacity of the slow-query ring; the oldest entry is
    /// dropped (and tallied) when a new one arrives at capacity.
    pub slowlog_capacity: usize,
    /// Master switch for request-level telemetry: stage-timed traces into
    /// the `serve.request.*` histograms and the slowlog. `false` (the
    /// `--no-telemetry` ablation) keeps the lifetime counters and gauges
    /// the serving path always maintained and the per-plan runtime stats,
    /// which every evaluation feeds from its own tally.
    pub telemetry: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            eval_threads: 2,
            queue_capacity: 64,
            default_deadline_ms: 10_000,
            max_deadline_ms: 60_000,
            cache_capacity: 256,
            max_rows: 1_000,
            retry_after_ms: 50,
            max_query_atoms: 64,
            max_query_vars: 26,
            max_symbols: 1 << 20,
            slowlog_threshold_ms: 1_000,
            slowlog_capacity: 128,
            telemetry: true,
        }
    }
}

/// The bounded slow-query ring: entries are full JSON documents (query,
/// stage-timed trace, EXPLAIN profile) appended by connection
/// threads and drained by the `slowlog` admin op. At capacity the oldest
/// entry is dropped and tallied, so a flood of slow queries costs bounded
/// memory and the drain reports what it missed.
struct SlowLog {
    entries: VecDeque<Json>,
    capacity: usize,
    dropped: u64,
}

impl SlowLog {
    fn push(&mut self, entry: Json) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        while self.entries.len() >= self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(entry);
    }

    /// Returns `(entries oldest-first, dropped-since-last-drain)`; clears
    /// both unless `keep`.
    fn drain(&mut self, keep: bool) -> (Vec<Json>, u64) {
        let dropped = self.dropped;
        if keep {
            (self.entries.iter().cloned().collect(), dropped)
        } else {
            self.dropped = 0;
            (std::mem::take(&mut self.entries).into(), dropped)
        }
    }
}

/// Shared server state: configuration, the interner, the named databases,
/// the plan cache, and the shutdown flag.
///
/// Each database sits behind an [`Arc`] inside an [`RwLock`]'d map so the
/// admin `reload` op can swap in a freshly loaded snapshot atomically:
/// requests resolve their `Arc<Database>` once at admission, so in-flight
/// evaluations keep the database they started with while new requests see
/// the replacement.
/// One served database version paired with the statistics catalog built
/// from it. The two always travel together: every install point swaps a
/// whole `DbEntry` under the map's write lock, so no request can observe a
/// new database with the old version's statistics (or vice versa) — the
/// staleness bug a separate catalog map would invite.
#[derive(Clone)]
struct DbEntry {
    db: Arc<Database>,
    stats: Arc<StatsCatalog>,
}

impl DbEntry {
    fn new(db: Database) -> DbEntry {
        let stats = Arc::new(StatsCatalog::build(&db));
        DbEntry {
            db: Arc::new(db),
            stats,
        }
    }
}

pub struct ServeState {
    /// The configuration the server was started with.
    pub cfg: ServeConfig,
    interner: Mutex<Interner>,
    dbs: RwLock<BTreeMap<String, DbEntry>>,
    default_db: String,
    cache: PlanCache,
    shutdown: AtomicBool,
    /// Jobs currently on (or just popped off) the worker queue; feeds the
    /// depth-scaled `retry_after_ms` hint on `overloaded`.
    queue_depth: AtomicUsize,
    slowlog: Mutex<SlowLog>,
    /// Chain position of the served data, when the server has a chain
    /// identity (primary with a replication log, or follower). Feeds the
    /// `head` field on terminal lines and the `min_head` admission wait.
    repl_head: ReplHead,
    /// The replication hub, present only on a primary (`--repl-log`).
    primary: Mutex<Option<Arc<Primary>>>,
    /// Per database name, the base the last full reload of it decoded, if
    /// its fold kept the base's ids; see [`ServeState::reload`]. Empty
    /// until a reload fills it.
    kept: Mutex<BTreeMap<String, Arc<KeptBase>>>,
}

/// A verified base snapshot in served ids: what a reload of a byte-equal
/// base file reuses instead of decoding it again. It costs one base
/// database (its runs, shared with what is served while no delta is
/// applied), the file's bytes and the base's posting counts.
struct KeptBase {
    file: BaseFile,
    /// The base's statistics with the posting lengths they were ranked
    /// from: a reload derives the served catalog from them and the
    /// chain's rows.
    stats: CountedCatalog,
}

/// A base snapshot decoded in full.
struct BaseFile {
    /// The file's bytes; reuse is byte equality with them.
    bytes: Vec<u8>,
    /// Their [`wdpt_store::content_hash`]: the chain's first link.
    hash: u64,
    /// The base's symbol count. Once kept, its ids are the live interner's
    /// first `symbols`, and stay so: ids are append-only.
    symbols: usize,
    /// The base's database, in those ids.
    db: Database,
}

impl ServeState {
    /// Builds the shared state. `dbs` must contain `default_db`.
    pub fn new(
        cfg: ServeConfig,
        interner: Interner,
        dbs: BTreeMap<String, Database>,
        default_db: impl Into<String>,
    ) -> Arc<ServeState> {
        let default_db = default_db.into();
        assert!(
            dbs.contains_key(&default_db),
            "default database {default_db:?} not loaded"
        );
        let cache = PlanCache::new(cfg.cache_capacity);
        let dbs = dbs
            .into_iter()
            .map(|(n, db)| (n, DbEntry::new(db)))
            .collect();
        let slowlog = Mutex::new(SlowLog {
            entries: VecDeque::new(),
            capacity: cfg.slowlog_capacity,
            dropped: 0,
        });
        Arc::new(ServeState {
            cfg,
            interner: Mutex::new(interner),
            dbs: RwLock::new(dbs),
            default_db,
            cache,
            shutdown: AtomicBool::new(false),
            queue_depth: AtomicUsize::new(0),
            slowlog,
            repl_head: ReplHead::new(),
            primary: Mutex::new(None),
            kept: Mutex::new(BTreeMap::new()),
        })
    }

    /// The served chain position tracker; see [`ReplHead`].
    pub fn repl_head(&self) -> &ReplHead {
        &self.repl_head
    }

    /// Name of the default database (the one `--follow` replicates into).
    pub fn default_db(&self) -> &str {
        &self.default_db
    }

    /// The chain-head hash of the served data, if it has a chain identity.
    pub fn current_head(&self) -> Option<u64> {
        self.repl_head.head()
    }

    /// Promotes this server to replication primary: installs the log's
    /// chain as the served head history and accepts `subscribe` ops.
    pub fn set_primary(&self, primary: Arc<Primary>) {
        self.repl_head.install_chain(&primary.chain());
        gauge!("repl.head").set(primary.head() as i64);
        *self.primary.lock().expect("primary lock") = Some(primary);
    }

    /// The replication hub, when this server is a primary.
    pub fn primary(&self) -> Option<Arc<Primary>> {
        self.primary.lock().expect("primary lock").clone()
    }

    /// The shutdown flag, for wiring auxiliary loops (the follower thread)
    /// to graceful shutdown.
    pub fn shutdown_flag(&self) -> &AtomicBool {
        &self.shutdown
    }

    /// Folds a decoded `(Interner, Database)` pair into the live interner
    /// and swaps it in as `db_name` ([`ServeState::install`]): the
    /// follower's install point for replicated snapshots and deltas.
    /// Returns the tuple count now served.
    fn install_pair(&self, db_name: &str, pair: (Interner, Database)) -> usize {
        let (db, _) = self.fold(|i| merge_snapshot(i, pair));
        let stats = timed_stats(|| StatsCatalog::build(&db));
        self.install(db_name, db, stats)
    }

    /// Runs `f` on the live interner under its lock, timed as the reload's
    /// merge.
    fn fold<R>(&self, f: impl FnOnce(&mut Interner) -> R) -> R {
        let merge_start = Instant::now();
        let folded = f(&mut self.interner.lock().expect("interner lock"));
        histogram!("serve.reload.merge_us").record(merge_start.elapsed().as_micros() as u64);
        folded
    }

    /// Swaps `db`, already in served ids, in as `db_name` — together with
    /// its statistics catalog, built or derived off-lock by the caller, so
    /// cached plans see the new epoch the moment they can see the new data.
    /// This is the single install point for reloads *and* the follower's
    /// replicated applies. Returns the tuple count now served.
    fn install(&self, db_name: &str, db: Database, stats: StatsCatalog) -> usize {
        let tuples = db.size();
        // Only the entry swap holds the write lock.
        let entry = DbEntry {
            db: Arc::new(db),
            stats: Arc::new(stats),
        };
        let swap_start = Instant::now();
        // The write guard is gone at the end of this statement; the entry
        // it replaced outlives it, so when no query still holds the old
        // database its teardown blocks no `db()` reader.
        let replaced = self
            .dbs
            .write()
            .expect("dbs lock")
            .insert(db_name.to_string(), entry);
        histogram!("serve.reload.swap_us").record(swap_start.elapsed().as_micros() as u64);
        drop(replaced);
        tuples
    }

    /// Whether slow/cancelled queries are being logged: telemetry on and a
    /// nonzero threshold. It changes nothing about how a query is
    /// evaluated — every evaluation hands back its own tally, so a query
    /// discovered *afterwards* to be slow (or killed by its deadline) has
    /// an EXPLAIN to log either way.
    pub fn slowlog_enabled(&self) -> bool {
        self.cfg.telemetry && self.cfg.slowlog_threshold_ms > 0
    }

    fn slowlog_push(&self, entry: Json) {
        counter!("serve.slowlog.captured").add(1);
        self.slowlog.lock().expect("slowlog lock").push(entry);
    }

    /// Drains (or, with `keep`, copies) the slow-query ring:
    /// `(entries oldest-first, dropped count)`.
    pub fn slowlog_drain(&self, keep: bool) -> (Vec<Json>, u64) {
        self.slowlog.lock().expect("slowlog lock").drain(keep)
    }

    /// Number of entries currently in the slow-query ring.
    pub fn slowlog_len(&self) -> usize {
        self.slowlog.lock().expect("slowlog lock").entries.len()
    }

    /// The currently served database under `name`, if any. The returned
    /// [`Arc`] pins that version: a concurrent [`ServeState::reload`]
    /// replaces the map entry without disturbing holders.
    pub fn db(&self, name: &str) -> Option<Arc<Database>> {
        self.dbs
            .read()
            .expect("dbs lock")
            .get(name)
            .map(|e| Arc::clone(&e.db))
    }

    /// The served database under `name` together with the statistics
    /// catalog built from that exact version — one map read, so the pair
    /// is always consistent.
    pub fn db_with_stats(&self, name: &str) -> Option<(Arc<Database>, Arc<StatsCatalog>)> {
        self.dbs
            .read()
            .expect("dbs lock")
            .get(name)
            .map(|e| (Arc::clone(&e.db), Arc::clone(&e.stats)))
    }

    /// Hot-reloads the database `db_name` from `snapshot` plus an optional
    /// delta chain, creating the name if it is new.
    ///
    /// The load + verification (CRC sections, delta hash chain, sorted-run
    /// merges) runs with **no server locks held**, so queries keep flowing;
    /// the interner lock is taken only briefly, as below. Then the served
    /// `Arc<Database>` is swapped under the write lock: in-flight jobs
    /// finish against the old database, requests admitted after the swap
    /// see the new one.
    ///
    /// A reload decodes in full a base file it has not seen: the chain is
    /// applied in the snapshot's own ids, then folded into the live
    /// interner (one name lookup per symbol of the whole chain, under the
    /// lock; see [`merge_snapshot`]). When the fold keeps every base id,
    /// the server keeps that base — its bytes, hash, symbol count,
    /// database and posting counts — under `db_name`, replacing what it
    /// kept there; otherwise it drops it. A later reload whose base file is
    /// byte-equal to a kept one decodes only the deltas and applies them to
    /// the kept base in served ids: the interner lock is held to resolve
    /// each delta's appended symbols and check its cells (O(delta)), and
    /// once more to intern the new symbols at the swap. Every check of the
    /// full path runs on this one as well.
    ///
    /// The served statistics catalog is counted once per full decode —
    /// the kept base's columns, or the served database's when nothing is
    /// kept — and a reload of a kept base derives it from the base's
    /// counts and the rows the chain inserted
    /// ([`CountedCatalog::derive`]), counting no column in full.
    ///
    /// The plan cache is **kept**: cached plans depend only on query
    /// structure and interner ids, never on data, and a reload only
    /// appends symbols (existing ids are stable), so every entry stays
    /// valid — `serve.store.reload_cache_kept` counts the entries
    /// preserved, `serve.store.reload_ok` / `serve.store.reload_failed`
    /// the outcomes.
    ///
    /// Returns `(tuples now served, deltas applied)`.
    pub fn reload(
        &self,
        db_name: &str,
        snapshot: &Path,
        deltas: &[impl AsRef<Path>],
    ) -> Result<(usize, usize), String> {
        let loaded = self.load_stage(snapshot, deltas)?;
        self.install_stage(db_name, loaded)
    }

    /// The off-lock half of a reload: reads and fully verifies the
    /// snapshot + delta chain while queries keep flowing, applying the
    /// deltas to a kept base when the base file is one (see
    /// [`ServeState::reload`]). The returned [`LoadedChain`] carries the
    /// result, the chain's content hashes, and the raw delta bytes (so a
    /// primary can publish them to its followers after the swap). It
    /// leaves the interner and the kept bases as they were.
    pub fn load_stage(
        &self,
        snapshot: &Path,
        deltas: &[impl AsRef<Path>],
    ) -> Result<LoadedChain, String> {
        let load_start = Instant::now();
        let read = |p: &Path| -> Result<Vec<u8>, String> {
            std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()))
        };
        let base_bytes = match read(snapshot) {
            Ok(b) => b,
            Err(e) => {
                counter!("serve.store.reload_failed").add(1);
                return Err(e);
            }
        };
        let mut delta_bytes = Vec::with_capacity(deltas.len());
        for d in deltas {
            match read(d.as_ref()) {
                Ok(b) => delta_bytes.push(b),
                Err(e) => {
                    counter!("serve.store.reload_failed").add(1);
                    return Err(e);
                }
            }
        }
        let kept = self
            .kept
            .lock()
            .expect("kept lock")
            .values()
            .find(|kept| kept.file.bytes == base_bytes)
            .cloned();
        // Verifying the chain hashes every file once; those are the hashes
        // the served head history wants.
        let loaded = match kept {
            Some(kept) => {
                let file = &kept.file;
                let mut symbols = ChainSymbols::new(file.symbols, self.interner_len());
                let interner = || self.interner.lock().expect("interner lock");
                let base = file.db.clone();
                wdpt_store::apply_chain(interner, &mut symbols, file.hash, base, &delta_bytes)
                    .map(|(db, chain)| (Fold::Served { db, symbols, kept }, chain))
            }
            None => decode_in_full(base_bytes, &delta_bytes),
        };
        let (fold, chain) = match loaded {
            Ok(loaded) => loaded,
            Err((link, e)) => {
                counter!("serve.store.reload_failed").add(1);
                // Name the file that failed, not the chain's first one.
                let file = match link.checked_sub(1) {
                    None => snapshot,
                    Some(i) => deltas[i].as_ref(),
                };
                return Err(format!("{}: {e}", file.display()));
            }
        };
        let deltas = delta_bytes
            .into_iter()
            .zip(chain.windows(2))
            .map(|(bytes, link)| (link[0], link[1], bytes))
            .collect();
        histogram!("serve.reload.load_us").record(load_start.elapsed().as_micros() as u64);
        Ok(LoadedChain {
            fold,
            chain,
            deltas,
        })
    }

    /// The swap half of a reload: brings the loaded chain into the live
    /// interner, keeps or drops the base a full decode read, and swaps the
    /// served database. Fails **typed** (without touching the interner or
    /// the kept bases) if shutdown began after the load stage — a reload
    /// racing the drain either completes its swap or reports `shutting
    /// down`, never a half-merged interner.
    pub fn install_stage(
        &self,
        db_name: &str,
        loaded: LoadedChain,
    ) -> Result<(usize, usize), String> {
        if self.is_shutting_down() {
            counter!("serve.store.reload_rejected_shutdown").add(1);
            return Err("server is shutting down; reload rejected before the swap".to_string());
        }
        let (db, stats) = match loaded.fold {
            Fold::Decoded {
                pair: (interner, db),
                added,
                base,
            } => {
                let (translate, shared) = self.fold(|i| merge_symbols(i, interner));
                let to_served = |db| translate_database(db, translate.as_deref());
                let db = to_served(db);
                // One counting pass either way: a base the fold keeps is
                // counted and the served catalog derived from its counts;
                // any other catalog is built from the served database.
                let (kept, stats) = timed_stats(|| {
                    if shared < base.symbols {
                        return (None, StatsCatalog::build(&db));
                    }
                    let counted = CountedCatalog::count(&base.db);
                    let stats = counted.derive(&to_served(added));
                    let kept = KeptBase {
                        file: base,
                        stats: counted,
                    };
                    (Some(kept), stats)
                });
                let replaced = {
                    let mut map = self.kept.lock().expect("kept lock");
                    match kept {
                        Some(kept) => map.insert(db_name.to_string(), Arc::new(kept)),
                        None => map.remove(db_name),
                    }
                };
                drop(replaced);
                (db, stats)
            }
            Fold::Served { db, symbols, kept } => {
                let (db, added) = self.fold(|i| symbols.commit(i, db));
                (db, timed_stats(|| kept.stats.derive(&added)))
            }
        };
        let tuples = self.install(db_name, db, stats);
        self.repl_head.install_chain(&loaded.chain);
        gauge!("repl.head").set(self.repl_head.head().unwrap_or(0) as i64);
        counter!("serve.store.reload_ok").add(1);
        counter!("serve.store.reload_cache_kept").add(self.cache.len() as u64);
        Ok((tuples, loaded.deltas.len()))
    }

    /// The content hash of the base kept for `db_name`, if any (see
    /// [`ServeState::reload`]).
    pub fn kept_base_hash(&self, db_name: &str) -> Option<u64> {
        let kept = self.kept.lock().expect("kept lock");
        kept.get(db_name).map(|kept| kept.file.hash)
    }

    /// The plan cache (for tests and stats).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Current interned-symbol count (for tests and stats): rejected
    /// requests must leave this unchanged.
    pub fn interner_len(&self) -> usize {
        self.interner.lock().expect("interner lock").len()
    }

    /// Runs `f` on the live interner under its lock: how a caller outside
    /// the server renders the ids of what it serves.
    pub fn with_interner<R>(&self, f: impl FnOnce(&Interner) -> R) -> R {
        f(&self.interner.lock().expect("interner lock"))
    }

    /// Requests graceful shutdown, as the `shutdown` op does.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// A query's planning path without the network: the request's own
    /// front half, then the plan cache. Used by the plan-cache tests and the
    /// benchmark's probes.
    pub fn plan_for(&self, src: &str) -> Result<(Arc<Plan>, &'static str), String> {
        self.plan_for_with(src, CancelToken::never())
    }

    /// [`ServeState::plan_for`] under a caller-supplied cancellation
    /// token: the interner lock covers only the front half, and the build
    /// runs lock-free under `token`.
    pub fn plan_for_with(
        &self,
        src: &str,
        token: &CancelToken,
    ) -> Result<(Arc<Plan>, &'static str), String> {
        let (canon, wdpt) = self.front_half(src).map_err(|r| r.message)?;
        let stats = self
            .db_with_stats(&self.default_db)
            .map(|(_, s)| s)
            .unwrap_or_else(|| Arc::new(StatsCatalog::empty()));
        self.cache
            .get_or_build(&canon, &wdpt, &stats, token)
            .map_err(|e| e.to_string())
    }

    /// The polynomial front half of every query, under one brief interner
    /// lock: parse, admission caps, canonicalize, translate to a tree. A
    /// query turned away rolls the interner back, so its symbols do not
    /// accumulate.
    fn front_half(&self, src: &str) -> Result<(CanonicalQuery, Wdpt), Rejection> {
        let mut i = self.interner.lock().expect("interner lock");
        let len0 = i.len();
        let admitted = (|| {
            let parsed = parse_query(&mut i, src).map_err(|e| Rejection {
                kind: "parse_error",
                message: e.message,
                at: Some(e.at),
                malformed: true,
            })?;
            let (atoms, vars) = pattern_size(&parsed.pattern);
            if atoms > self.cfg.max_query_atoms || vars > self.cfg.max_query_vars {
                return Err(Rejection {
                    kind: "query_too_large",
                    message: format!(
                        "query has {atoms} triple patterns and {vars} variables; this server accepts at most {} and {}",
                        self.cfg.max_query_atoms, self.cfg.max_query_vars
                    ),
                    at: None,
                    malformed: false,
                });
            }
            let canon = canonicalize(&parsed, &mut i);
            let wdpt = match canon.canon.to_wdpt(&mut i) {
                Ok(w) => w,
                Err(e) => {
                    let (kind, message) = sparql_error_parts(&e, &i, &canon);
                    return Err(Rejection {
                        kind,
                        message,
                        at: None,
                        malformed: true,
                    });
                }
            };
            if i.len() > self.cfg.max_symbols {
                return Err(Rejection {
                    kind: "symbol_limit",
                    message: "the server's interned-symbol budget is exhausted; only queries over already-seen identifiers are accepted".to_string(),
                    at: None,
                    malformed: false,
                });
            }
            Ok((canon, wdpt))
        })();
        if admitted.is_err() {
            i.truncate(len0);
        }
        admitted
    }
}

/// A query the front half turned away: the wire error `kind` and message,
/// the byte offset of a parse error, and whether the query was malformed
/// (counted under `serve.requests.error`) or over a cap (`…rejected`).
struct Rejection {
    kind: &'static str,
    message: String,
    at: Option<usize>,
    malformed: bool,
}

/// A snapshot + delta chain read and verified off-lock by
/// [`ServeState::load_stage`], awaiting its swap.
pub struct LoadedChain {
    fold: Fold,
    /// Content hashes of the chain: base snapshot first, then each delta.
    pub chain: Vec<u64>,
    /// `(base_hash, hash, file bytes)` per delta, in chain order.
    pub deltas: Vec<(u64, u64, Vec<u8>)>,
}

/// How a loaded chain enters the live interner at the swap.
enum Fold {
    /// A base decoded in full: the chain's pair in the snapshot's own ids,
    /// for [`merge_snapshot`], the rows its deltas inserted, in the same
    /// ids, and the base to keep if the fold keeps its ids.
    Decoded {
        pair: (Interner, Database),
        added: Database,
        base: BaseFile,
    },
    /// Deltas applied to a kept base, in served ids; their new symbols
    /// wait to be interned, and the served catalog is derived from the
    /// base's.
    Served {
        db: Database,
        symbols: ChainSymbols,
        kept: Arc<KeptBase>,
    },
}

/// The full-decode half of [`ServeState::load_stage`]: the base file
/// decoded, and the deltas applied to it in its own ids. An error names
/// the chain position of the file that failed, as
/// [`wdpt_store::decode_chain`] does.
fn decode_in_full(
    bytes: Vec<u8>,
    deltas: &[Vec<u8>],
) -> Result<(Fold, Vec<u64>), (usize, wdpt_store::StoreError)> {
    let (mut interner, base) = wdpt_store::decode_snapshot(&bytes).map_err(|e| (0, e))?;
    let (hash, symbols) = (wdpt_store::content_hash(&bytes), interner.len());
    let mut chain_symbols = ChainSymbols::new(symbols, symbols);
    let (db, chain) =
        wdpt_store::apply_chain(|| &interner, &mut chain_symbols, hash, base.clone(), deltas)?;
    let (db, added) = chain_symbols.commit(&mut interner, db);
    let base = BaseFile {
        bytes,
        hash,
        symbols,
        db: base,
    };
    Ok((
        Fold::Decoded {
            pair: (interner, db),
            added,
            base,
        },
        chain,
    ))
}

/// Runs `make`, timed as the reload's statistics stage.
fn timed_stats<T>(make: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let made = make();
    histogram!("serve.reload.stats_us").record(start.elapsed().as_micros() as u64);
    made
}

/// `(triple patterns, distinct variables)` of a parsed pattern — the
/// quantities the admission caps bound.
fn pattern_size(p: &GraphPattern) -> (usize, usize) {
    fn atoms(p: &GraphPattern) -> usize {
        match p {
            GraphPattern::Triple(_) => 1,
            GraphPattern::And(a, b) | GraphPattern::Opt(a, b) => atoms(a) + atoms(b),
        }
    }
    (atoms(p), p.variables().len())
}

/// One evaluation job on the bounded queue. Carries its own
/// `Arc<Database>`, resolved at admission: a concurrent `reload` swapping
/// the served map does not change what this job evaluates against.
struct Job {
    id: Option<String>,
    plan: Arc<Plan>,
    cache_status: &'static str,
    db: Arc<Database>,
    request_vars: Vec<String>,
    token: CancelToken,
    deadline_ms: u64,
    /// Bracket the evaluation with a profile recorder and attach the
    /// profile to the `ok` line.
    profile: bool,
    /// The plan's per-node facts, present iff the request asked to
    /// `explain`: attach them, the join orders and the runtime stats to
    /// the `ok` line.
    explain: Option<Arc<[NodePlan]>>,
    max_rows: usize,
    /// When the job went onto the queue; the worker derives the queue-wait
    /// stage from it.
    enqueued: Instant,
    resp: mpsc::Sender<WorkerReply>,
}

/// What a worker sends back to the connection thread: the response — row
/// lines, then the terminal line, encoded — plus the telemetry only the
/// worker can measure: the queue-wait and eval durations (folded into the
/// request's [`RequestTrace`]) and what the evaluation counted, as counted;
/// it is rendered only if the request turns out slow or cancelled and gets
/// a slowlog entry.
struct WorkerReply {
    response: Vec<u8>,
    queue_ns: u64,
    eval_ns: u64,
    cancelled: bool,
    /// Rows in the evaluation's table (0 if it was cancelled).
    answers: u64,
    /// The evaluation's own counts; `None` if none ran (the deadline passed
    /// in the queue, or the worker never answered).
    tally: Option<EvalTally>,
    /// The recorder's profile of a request that asked `profile: true`.
    profile: Option<QueryProfile>,
}

impl WorkerReply {
    /// The reply for a request no evaluation ran for.
    fn unevaluated(response: Vec<u8>, queue_ns: u64, cancelled: bool) -> WorkerReply {
        WorkerReply {
            response,
            queue_ns,
            eval_ns: 0,
            cancelled,
            answers: 0,
            tally: None,
            profile: None,
        }
    }

    /// The EXPLAIN profile a slowlog entry for this request carries: the
    /// recorder's if the request asked for one (the object on its `ok`
    /// line), otherwise the evaluation's tally rendered now.
    fn slowlog_profile(&self, wdpt: &Wdpt) -> Option<Json> {
        let profile = match (&self.profile, &self.tally) {
            (Some(recorded), _) => return Some(recorded.to_json()),
            (None, Some(tally)) => tally.profile(wdpt, PROFILE_LABEL, self.eval_ns, self.answers),
            (None, None) => return None,
        };
        Some(profile.to_json())
    }
}

/// The `label` of every profile the server produces.
const PROFILE_LABEL: &str = "serve.query";

/// Appends one response line to a response buffer.
fn push_line(out: &mut Vec<u8>, line: &Json) {
    wdpt_obs::write_json_line(out, line).expect("writing to a Vec cannot fail");
}

/// A response of one line: every response is bytes in one buffer by the
/// time it reaches the connection's writer.
fn encoded(line: &Json) -> Vec<u8> {
    let mut out = Vec::new();
    push_line(&mut out, line);
    out
}

/// Runs the server on `listener` until shutdown is requested, then drains
/// queued and in-flight work and returns. The listener is switched to
/// nonblocking mode so the loop can observe the shutdown flag.
pub fn serve(listener: TcpListener, state: Arc<ServeState>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let (tx, rx) = mpsc::sync_channel::<Job>(state.cfg.queue_capacity);
    let rx = Arc::new(Mutex::new(rx));

    let workers: Vec<_> = (0..state.cfg.workers.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            std::thread::spawn(move || loop {
                let job = match rx.lock().expect("job queue lock").recv() {
                    Ok(job) => job,
                    Err(_) => return, // queue closed and drained
                };
                process(job, &state);
            })
        })
        .collect();

    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !state.is_shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let state = Arc::clone(&state);
                let tx = tx.clone();
                conns.push(std::thread::spawn(move || {
                    let _ = handle_connection(stream, state, tx);
                }));
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    // Drain: connections finish their in-flight request and exit on the
    // next read-timeout tick; closing the queue stops workers once empty.
    for h in conns {
        let _ = h.join();
    }
    drop(tx);
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}

/// Longest accepted request line. A line that exceeds this is answered with
/// `bad_request` and the connection is closed (the remainder of the oversized
/// line cannot be re-synchronised reliably).
const MAX_LINE_BYTES: usize = 1 << 20;

fn handle_connection(
    stream: TcpStream,
    state: Arc<ServeState>,
    tx: SyncSender<Job>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    // The buffer persists across read timeouts and accumulates *bytes*, not
    // `String` data: `read_line` would error (and drop the partial read) if
    // a timeout fired in the middle of a multibyte UTF-8 character, whereas
    // `read_until` keeps whatever prefix arrived and resumes on the next
    // packet. UTF-8 validation happens once per complete line.
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            // `Ok` means a newline was found or EOF was reached; a partial
            // final line without trailing newline is still processed.
            Ok(n) => {
                let eof = !buf.ends_with(b"\n");
                if n == 0 && buf.is_empty() {
                    return Ok(());
                }
                let bytes = std::mem::take(&mut buf);
                // The line is parsed and decoded once, here; the trace opens
                // before that, so the read stage covers it.
                let trace = RequestTrace::start();
                let (response, trace) = match decode_line(&bytes) {
                    Ok(None) => (Vec::new(), None),
                    // A `subscribe` op inverts the connection into a push
                    // stream and never returns to the request loop.
                    Ok(Some((_, Request::Subscribe { id, base }))) => {
                        return run_subscription(
                            id.as_deref(),
                            base,
                            &state,
                            &mut reader,
                            &mut writer,
                        );
                    }
                    Ok(Some((id, request))) => {
                        handle_request(id.as_deref(), request, trace, &state, &tx)
                    }
                    Err(bad_request) => (bad_request, None),
                };
                writer.write_all(&response)?;
                writer.flush()?;
                // The respond stage closes only after the flush, so the
                // recorded trace covers the socket write.
                if let Some(mut t) = trace {
                    t.stage_done(Stage::Respond);
                    t.record();
                }
                if eof || state.is_shutting_down() {
                    return Ok(()); // answered; close so the drain can finish
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if state.is_shutting_down() {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
        if buf.len() > MAX_LINE_BYTES {
            counter!("serve.requests.error").add(1);
            let l = error_line(
                None,
                "bad_request",
                &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                None,
            );
            wdpt_obs::write_json_line(&mut writer, &l)?;
            writer.flush()?;
            return Ok(());
        }
    }
}

/// Parses and decodes one request line into its `id` and [`Request`] —
/// `None` for an empty line, the encoded `bad_request` response for a line
/// that is not UTF-8, not JSON or not a request (a malformed `subscribe`
/// included).
fn decode_line(line: &[u8]) -> Result<Option<(Option<String>, Request)>, Vec<u8>> {
    let bad_request = |id: Option<&str>, message: &str| {
        counter!("serve.requests.error").add(1);
        encoded(&error_line(id, "bad_request", message, None))
    };
    let line = std::str::from_utf8(line)
        .map_err(|_| bad_request(None, "request line is not valid UTF-8"))?
        .trim();
    if line.is_empty() {
        return Ok(None);
    }
    counter!("serve.requests.received").add(1);
    let value = Json::parse(line).map_err(|e| bad_request(None, &format!("invalid JSON: {e}")))?;
    let id = value.get("id").and_then(Json::as_str).map(str::to_string);
    match Request::from_json(&value) {
        Ok(request) => Ok(Some((id, request))),
        Err(e) => Err(bad_request(id.as_deref(), &e)),
    }
}

/// Serves one replication subscription until the follower disconnects or
/// shutdown begins: replay (suffix or bootstrap) first, then every
/// broadcast delta as it is published. The read side of the socket only
/// watches for EOF; its short timeout bounds broadcast latency.
fn run_subscription(
    id: Option<&str>,
    base: Option<u64>,
    state: &ServeState,
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
) -> io::Result<()> {
    let send = |w: &mut BufWriter<TcpStream>, line: &Json| -> io::Result<()> {
        wdpt_obs::write_json_line(w, line)
    };
    let Some(primary) = state.primary() else {
        counter!("serve.requests.error").add(1);
        let l = error_line(
            id,
            "not_primary",
            "this server has no replication log (start it with --repl-log); subscribe refused",
            None,
        );
        send(writer, &l)?;
        return writer.flush();
    };
    let (start, rx) = match primary.subscribe(base) {
        Ok(pair) => pair,
        Err(e) => {
            counter!("serve.requests.error").add(1);
            let l = error_line(id, "subscribe_failed", &e.to_string(), None);
            send(writer, &l)?;
            return writer.flush();
        }
    };
    let head = primary.head();
    match start {
        SubscribeStart::Suffix(replay) => {
            send(writer, &subscribed_line(id, head, "suffix", replay.len()))?;
            for d in &replay {
                send(writer, &delta_frame(d.hash, d.base_hash, &d.bytes))?;
            }
        }
        SubscribeStart::Bootstrap {
            head: base_head,
            snapshot,
            replay,
        } => {
            send(
                writer,
                &subscribed_line(id, head, "bootstrap", replay.len()),
            )?;
            send(writer, &snapshot_frame(base_head, &snapshot))?;
            for d in &replay {
                send(writer, &delta_frame(d.hash, d.base_hash, &d.bytes))?;
            }
        }
    }
    writer.flush()?;
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(25)))
        .ok();
    let mut scratch = Vec::new();
    loop {
        let mut wrote = false;
        loop {
            match rx.try_recv() {
                Ok(b) => {
                    send(writer, &delta_frame(b.hash, b.base_hash, &b.bytes))?;
                    wrote = true;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    send(writer, &shutting_down_line(id))?;
                    return writer.flush();
                }
            }
        }
        if wrote {
            writer.flush()?;
        }
        if state.is_shutting_down() {
            send(writer, &shutting_down_line(id))?;
            return writer.flush();
        }
        match reader.read_until(b'\n', &mut scratch) {
            Ok(0) => return Ok(()),   // follower went away
            Ok(_) => scratch.clear(), // followers are silent post-subscribe
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Handles one decoded request, returning the encoded response plus, for
/// telemetry-traced queries, the request's stage-timed trace (`trace`,
/// opened by the caller before it decoded the line). The caller finishes
/// the trace (respond stage) after flushing the response and records it
/// into the `serve.request.*` histograms.
fn handle_request(
    id: Option<&str>,
    request: Request,
    mut trace: RequestTrace,
    state: &ServeState,
    tx: &SyncSender<Job>,
) -> (Vec<u8>, Option<RequestTrace>) {
    let line = match request {
        Request::Ping => Json::obj([("status", Json::str("ok")), ("kind", Json::str("pong"))]),
        Request::Stats => stats_line(state),
        Request::Metrics { id: _, text } => {
            let snap = metrics_snapshot();
            let mut line = if text {
                metrics_text_line(id, render_prometheus(&snap))
            } else {
                metrics_json_line(id, snapshot_to_json(&snap), state.cache.stats_json())
            };
            attach_head(&mut line, state.current_head());
            line
        }
        Request::Slowlog { id: _, keep } => {
            let (entries, dropped) = state.slowlog_drain(keep);
            slowlog_line(id, entries, dropped)
        }
        Request::Shutdown => {
            state.begin_shutdown();
            Json::obj([("status", Json::str("ok")), ("kind", Json::str("shutdown"))])
        }
        Request::Query {
            id: _,
            query,
            db,
            deadline_ms,
            profile,
            explain,
            max_rows,
            min_head,
        } => {
            // The line is decoded and recognized as a query: the read
            // stage closes here, the admission stage opens.
            trace.stage_done(Stage::Read);
            let response = handle_query(
                QueryParams {
                    id,
                    query: &query,
                    db: db.as_deref(),
                    deadline_ms,
                    profile,
                    explain,
                    max_rows,
                    min_head,
                },
                state,
                tx,
                &mut trace,
            );
            let trace = state.cfg.telemetry.then_some(trace);
            return (response, trace);
        }
        // `handle_connection` turns the connection over to the subscriber
        // instead of calling here.
        Request::Subscribe { .. } => {
            counter!("serve.requests.error").add(1);
            error_line(id, "bad_request", "subscribe inverts a connection", None)
        }
        Request::Reload {
            id: _,
            db,
            snapshot,
            deltas,
        } => {
            if state.is_shutting_down() {
                counter!("serve.requests.rejected").add(1);
                return (encoded(&shutting_down_line(id)), None);
            }
            let db_name = db.as_deref().unwrap_or(&state.default_db);
            let start = Instant::now();
            match state.load_stage(Path::new(&snapshot), &deltas) {
                Ok(loaded) => {
                    // A primary re-publishes the chain's new deltas to its
                    // followers after the swap; clone the bytes first, the
                    // install consumes the load.
                    let publishable: Vec<(u64, Vec<u8>)> = state
                        .primary()
                        .map(|p| {
                            loaded
                                .deltas
                                .iter()
                                .filter(|(_, hash, _)| !p.knows(*hash))
                                .map(|(_, hash, bytes)| (*hash, bytes.clone()))
                                .collect()
                        })
                        .unwrap_or_default();
                    match state.install_stage(db_name, loaded) {
                        Ok((tuples, applied)) => {
                            if let Some(primary) = state.primary() {
                                for (hash, bytes) in publishable {
                                    if let Err(e) = primary.publish(bytes) {
                                        counter!("repl.primary.publish_rejected").add(1);
                                        eprintln!(
                                            "repl: delta {} not published (does not extend \
                                             the replication log): {e}",
                                            wdpt_store::head_hex(hash)
                                        );
                                    }
                                }
                            }
                            let mut line = reload_line(
                                id,
                                db_name,
                                tuples,
                                applied,
                                start.elapsed().as_micros() as u64,
                            );
                            attach_head(&mut line, state.current_head());
                            line
                        }
                        Err(_racing_shutdown) => {
                            counter!("serve.requests.rejected").add(1);
                            shutting_down_line(id)
                        }
                    }
                }
                Err(e) => {
                    counter!("serve.requests.error").add(1);
                    error_line(id, "reload_failed", &e, None)
                }
            }
        }
    };
    (encoded(&line), None)
}

/// Bundled arguments of one `query` request.
struct QueryParams<'a> {
    id: Option<&'a str>,
    query: &'a str,
    db: Option<&'a str>,
    deadline_ms: Option<u64>,
    profile: bool,
    explain: bool,
    max_rows: Option<usize>,
    min_head: Option<u64>,
}

/// Longest query excerpt kept in a slowlog entry; the ring is bounded in
/// entries, this bounds the bytes per entry.
const SLOWLOG_QUERY_BYTES: usize = 2048;

/// One slow-query ring entry: when, what, why it qualified (`"slow"` or
/// `"cancelled"`), where it got to (`phase`), its stage-timed trace so far,
/// and the EXPLAIN profile of its evaluation when one ran — rendered by the
/// caller ([`WorkerReply::slowlog_profile`]) for the entries that exist,
/// not on every request.
#[allow(clippy::too_many_arguments)]
fn slowlog_entry(
    id: Option<&str>,
    db: &str,
    query: &str,
    status: &str,
    phase: &str,
    deadline_ms: u64,
    cache: Option<&str>,
    trace: &RequestTrace,
    profile: Option<Json>,
    plan: Option<Json>,
) -> Json {
    let ts = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut cut = query.len().min(SLOWLOG_QUERY_BYTES);
    while !query.is_char_boundary(cut) {
        cut -= 1;
    }
    Json::obj([
        ("ts", Json::int(ts)),
        ("id", id.map_or(Json::Null, Json::str)),
        ("db", Json::str(db)),
        ("query", Json::str(&query[..cut])),
        ("status", Json::str(status)),
        ("phase", Json::str(phase)),
        ("deadline_ms", Json::int(deadline_ms)),
        ("cache", cache.map_or(Json::Null, Json::str)),
        ("wall_us", Json::int(trace.total_ns() / 1_000)),
        ("trace", trace.to_json()),
        ("profile", profile.unwrap_or(Json::Null)),
        // The chosen join plan: per-node atom order, estimated vs last
        // observed cost — so a slow query's log entry shows *what
        // order it ran*, not just how long it took.
        ("plan", plan.unwrap_or(Json::Null)),
    ])
}

fn handle_query(
    req: QueryParams<'_>,
    state: &ServeState,
    tx: &SyncSender<Job>,
    trace: &mut RequestTrace,
) -> Vec<u8> {
    let QueryParams {
        id,
        query,
        db,
        deadline_ms,
        profile,
        explain,
        max_rows,
        min_head,
    } = req;
    let _in_flight = gauge_scope!("serve.requests.in_flight");
    if state.is_shutting_down() {
        counter!("serve.requests.rejected").add(1);
        return encoded(&shutting_down_line(id));
    }

    // The deadline clock starts before plan building: the join-order
    // enumerators and (for `explain`) the core and decomposition searches
    // are worst-case exponential in the query, so an adversarial query
    // must not outlive its budget while planning.
    let deadline_ms = deadline_ms
        .unwrap_or(state.cfg.default_deadline_ms)
        .min(state.cfg.max_deadline_ms);

    // Consistency token: a replica that has not applied `min_head` yet
    // waits for its apply loop (up to the request deadline), then answers
    // typed `stale_replica` rather than serving data the client knows is
    // older than its own writes. This runs before the database `Arc` is
    // resolved, so a successful wait observes the post-apply version.
    if let Some(min_head) = min_head {
        if !state.repl_head.contains(min_head) {
            counter!("serve.requests.min_head_waited").add(1);
            let wait_deadline = Instant::now() + Duration::from_millis(deadline_ms);
            if !state.repl_head.wait_contains(min_head, wait_deadline) {
                counter!("serve.requests.stale_replica").add(1);
                return encoded(&stale_replica_line(id, min_head, state.current_head()));
            }
        }
    }

    let db_name = db.unwrap_or(&state.default_db);
    // Resolve the database *version* now: the job evaluates against this
    // `Arc` even if a `reload` swaps the served map while it is queued.
    // The statistics catalog rides along from the same map read, so the
    // plan is costed against exactly the version it will execute on.
    let Some((db, db_stats)) = state.db_with_stats(db_name) else {
        counter!("serve.requests.error").add(1);
        return encoded(&error_line(
            id,
            "unknown_db",
            &format!("no database named {db_name:?}"),
            None,
        ));
    };

    let token = CancelToken::with_deadline(Duration::from_millis(deadline_ms));
    let start = Instant::now();

    let (canon, wdpt) = match state.front_half(query) {
        Ok(admitted) => admitted,
        Err(r) => {
            if r.malformed {
                counter!("serve.requests.error").add(1);
            } else {
                counter!("serve.requests.rejected").add(1);
            }
            return encoded(&error_line(id, r.kind, &r.message, r.at));
        }
    };
    trace.stage_done(Stage::Admission);

    // Back half of planning, no locks and no interner: plan-cache lookup
    // or a cancellable build coalesced with identical concurrent requests;
    // then, only for `explain`, the plan's per-node facts — the
    // exponential searches, memoised on the plan once they complete.
    let planned = state
        .cache
        .get_or_build(&canon, &wdpt, &db_stats, &token)
        .and_then(|(plan, cache_status)| {
            let facts = explain.then(|| plan.node_facts(&token)).transpose()?;
            Ok((plan, cache_status, facts))
        });
    let (plan, cache_status, explain) = match planned {
        Ok(planned) => planned,
        Err(Cancelled) => {
            counter!("serve.requests.cancelled").add(1);
            trace.stage_done(Stage::Plan);
            // A query whose *planning* blew the deadline is exactly
            // the kind the slowlog exists for; no profile exists yet.
            if state.slowlog_enabled() {
                state.slowlog_push(slowlog_entry(
                    id,
                    db_name,
                    query,
                    "cancelled",
                    "plan",
                    deadline_ms,
                    None,
                    trace,
                    None,
                    None,
                ));
            }
            return encoded(&cancelled_line(
                id,
                deadline_ms,
                start.elapsed().as_micros() as u64,
            ));
        }
    };
    trace.stage_done(Stage::Plan);

    let (resp_tx, resp_rx) = mpsc::channel();
    let token_handle = token.clone();
    // Pinned for the slowlog: the worker consumes the Job.
    let plan_for_log = Arc::clone(&plan);
    let job = Job {
        id: id.map(str::to_string),
        plan,
        cache_status,
        db,
        request_vars: canon.request_vars,
        token,
        deadline_ms,
        profile,
        explain,
        max_rows: max_rows.unwrap_or(state.cfg.max_rows),
        enqueued: Instant::now(),
        resp: resp_tx,
    };
    match tx.try_send(job) {
        Ok(()) => {
            state.queue_depth.fetch_add(1, Ordering::Relaxed);
            gauge!("serve.queue.depth").incr();
        }
        Err(TrySendError::Full(_)) => {
            counter!("serve.requests.rejected").add(1);
            let depth = state.queue_depth.load(Ordering::Relaxed);
            return encoded(&overloaded_line(
                id,
                retry_after_hint(&state.cfg, depth, id),
            ));
        }
        Err(TrySendError::Disconnected(_)) => {
            counter!("serve.requests.rejected").add(1);
            return encoded(&shutting_down_line(id));
        }
    }
    let reply = await_worker(&resp_rx, id, &token_handle, deadline_ms, start);
    trace.absorb_worker(reply.queue_ns, reply.eval_ns);
    if state.slowlog_enabled() {
        let threshold_ns = state.cfg.slowlog_threshold_ms.saturating_mul(1_000_000);
        let status = if reply.cancelled {
            Some("cancelled")
        } else if trace.total_ns() >= threshold_ns {
            Some("slow")
        } else {
            None
        };
        if let Some(status) = status {
            state.slowlog_push(slowlog_entry(
                id,
                db_name,
                query,
                status,
                "eval",
                deadline_ms,
                Some(cache_status),
                trace,
                reply.slowlog_profile(&plan_for_log.wdpt),
                Some(crate::cache::exec_plan_json(&plan_for_log)),
            ));
        }
    }
    reply.response
}

/// Extra wait past the request deadline before a connection gives up on
/// its worker: covers queue latency plus the worker's own cancellation
/// polling granularity.
const WORKER_GRACE_MS: u64 = 250;

/// Waits for the worker's response, but never past the request
/// deadline plus [`WORKER_GRACE_MS`].
///
/// The old unbounded `recv()` here meant a worker that never responded
/// (wedged, or its job lost) parked the connection thread forever and the
/// client hung with no terminal line. Now the wait is bounded: on timeout
/// the job's token is cancelled (so a still-running evaluation stops at
/// its next cooperative check instead of burning a worker), a `cancelled`
/// line goes to the client, and the connection is free for its next
/// request. A late response is dropped harmlessly with the channel.
fn await_worker(
    resp_rx: &mpsc::Receiver<WorkerReply>,
    id: Option<&str>,
    token: &CancelToken,
    deadline_ms: u64,
    start: Instant,
) -> WorkerReply {
    let wait = Duration::from_millis(deadline_ms.saturating_add(WORKER_GRACE_MS));
    match resp_rx.recv_timeout(wait) {
        Ok(reply) => reply,
        Err(RecvTimeoutError::Timeout) => {
            token.cancel();
            counter!("serve.requests.cancelled").add(1);
            counter!("serve.worker.unresponsive").add(1);
            let line = cancelled_line(id, deadline_ms, start.elapsed().as_micros() as u64);
            WorkerReply::unevaluated(encoded(&line), 0, true)
        }
        Err(RecvTimeoutError::Disconnected) => {
            let line = error_line(id, "internal", "worker dropped the request", None);
            WorkerReply::unevaluated(encoded(&line), 0, false)
        }
    }
}

/// The backoff hint sent with `overloaded`: the configured base, scaled up
/// linearly with how full the worker queue is, plus a deterministic
/// per-request jitter (a hash of the request id, modulo the base).
///
/// A fixed hint makes every rejected client of a flood sleep the same
/// interval and stampede back in lockstep, re-creating the overload on the
/// retry; the jitter spreads the retries across a window that widens as
/// the queue deepens. Hashing the id keeps the hint reproducible for a
/// given request, so tests and clients see stable values.
fn retry_after_hint(cfg: &ServeConfig, queue_depth: usize, id: Option<&str>) -> u64 {
    let base = cfg.retry_after_ms.max(1);
    let capacity = cfg.queue_capacity.max(1) as u64;
    let scaled = base + base * (queue_depth as u64).min(capacity) / capacity;
    let jitter = wdpt_store::content_hash(id.unwrap_or("").as_bytes()) % base;
    scaled + jitter
}

/// Maps a [`SparqlError`] from plan building to a response `(kind,
/// message)`, translating canonical variable names back to the request's.
fn sparql_error_parts(
    e: &SparqlError,
    i: &Interner,
    canon: &CanonicalQuery,
) -> (&'static str, String) {
    let name = |v: Var| -> String {
        let n = i.var_name(v);
        n.strip_prefix('#')
            .and_then(|k| k.parse::<usize>().ok())
            .and_then(|k| canon.request_vars.get(k).cloned())
            .unwrap_or_else(|| n.to_string())
    };
    match e {
        SparqlError::NotWellDesigned(v) => (
            "not_well_designed",
            format!(
                "pattern is not well-designed: variable ?{} occurs in an OPT right side and again outside it without occurring on the left",
                name(*v)
            ),
        ),
        SparqlError::UnknownSelectVar(v) => (
            "unknown_select_var",
            format!("SELECT variable ?{} does not occur in the pattern", name(*v)),
        ),
        SparqlError::NotAnRdfTree => ("internal", e.to_string()),
    }
}

/// Worker half: evaluate with the request token and encode the response.
///
/// Besides the response, the worker ships the connection thread the two
/// timings only it can measure — how long the job sat queued and how long
/// the evaluation ran — plus the evaluation's tally, so slow-query entries
/// can be assembled with full context on the connection side.
fn process(job: Job, state: &ServeState) {
    state.queue_depth.fetch_sub(1, Ordering::Relaxed);
    gauge!("serve.queue.depth").decr();
    let _busy = gauge_scope!("serve.workers.busy");
    let queue_ns = job.enqueued.elapsed().as_nanos() as u64;
    let start = Instant::now();
    let db = &*job.db;
    let id = job.id.as_deref();
    let reply = if job.token.poll_deadline() {
        // Expired while queued — never start the evaluation.
        counter!("serve.requests.cancelled").add(1);
        job.plan.stats.record_cancelled();
        let line = cancelled_line(id, job.deadline_ms, start.elapsed().as_micros() as u64);
        WorkerReply::unevaluated(encoded(&line), queue_ns, true)
    } else {
        let threads = state.cfg.eval_threads.max(1);
        // Pin the exec plan for the whole evaluation: a concurrent
        // statistics refresh swaps the slot, not the orders this run is
        // following.
        let exec = job.plan.exec_plan();
        // The tally comes back on cancellation too — deadline-blown queries
        // are the slowlog's whole reason to exist. The recorder diffs the
        // process-wide registries and switches tracing on for everybody
        // meanwhile: only a request that asked for a profile pays for it.
        let recorder = job.profile.then(|| ProfileRecorder::start(PROFILE_LABEL));
        let (result, tally) = wdpt_core::evaluate_rows(
            &job.plan.wdpt,
            db,
            threads,
            &job.token,
            Some(&exec),
            job.max_rows,
        );
        let answer_count = result.as_ref().map_or(0, |a| a.len() as u64);
        let profile = recorder.map(|mut rec| {
            rec.set_nodes(wdpt_core::node_entries(&job.plan.wdpt, &tally.homs));
            rec.finish(answer_count)
        });
        let eval_ns = start.elapsed().as_nanos() as u64;
        let response = match &result {
            Ok(answers) => {
                job.plan
                    .stats
                    .record_execution(eval_ns / 1_000, tally.nodes_expanded);
                let wall_us = start.elapsed().as_micros() as u64;
                // The rows the executor was asked for: it holds these.
                let rows = answers.len().min(job.max_rows);
                let writer =
                    RowWriter::new(id, &job.request_vars, &job.plan.canon_vars, answers.vars());
                let mut response = Vec::new();
                {
                    // Held for naming the constants of the rows sent, and
                    // for nothing else.
                    let i = state.interner.lock().expect("interner lock");
                    for r in 0..rows {
                        writer.write(&mut response, answers.row(r), &i);
                    }
                }
                counter!("serve.requests.ok").add(1);
                let mut okl = ok_line(
                    id,
                    answers.len(),
                    rows,
                    job.cache_status,
                    wall_us,
                    profile.as_ref().map(QueryProfile::to_json),
                    job.explain
                        .as_deref()
                        .map(|facts| explain_json(&job.plan, facts, job.cache_status)),
                );
                // The head the client can quote as `min_head` elsewhere.
                attach_head(&mut okl, state.current_head());
                push_line(&mut response, &okl);
                response
            }
            Err(Cancelled) => {
                counter!("serve.requests.cancelled").add(1);
                job.plan.stats.record_cancelled();
                encoded(&cancelled_line(
                    id,
                    job.deadline_ms,
                    start.elapsed().as_micros() as u64,
                ))
            }
        };
        WorkerReply {
            response,
            queue_ns,
            eval_ns,
            cancelled: result.is_err(),
            answers: answer_count,
            tally: Some(tally),
            profile,
        }
    };
    // The connection may have vanished; a dead channel is fine.
    let _ = job.resp.send(reply);
}

/// Implements [`ReplApply`] over the serving state: the follower side of
/// replication, driving frames through the same hot-reload path the
/// `reload` op uses (plan cache kept, in-flight queries pinned to their
/// `Arc<Database>`).
///
/// The decoded chain tip is kept as a **pristine** `(Interner, Database)`
/// pair separate from the served state: the live interner accretes query
/// symbols, which would break the next delta's `base_symbols` anchor.
/// Each delta applies to the pristine pair in place; a clone of the result
/// is then merged into the live interner and swapped in.
pub struct FollowerApply {
    state: Arc<ServeState>,
    db_name: String,
    pristine: Mutex<Option<(Interner, Database)>>,
}

impl FollowerApply {
    /// A follower apply target swapping the database served as `db_name`.
    pub fn new(state: Arc<ServeState>, db_name: impl Into<String>) -> FollowerApply {
        FollowerApply {
            state,
            db_name: db_name.into(),
            pristine: Mutex::new(None),
        }
    }
}

impl ReplApply for FollowerApply {
    // Both predicates report "nothing applied" while the pristine pair is
    // absent (fresh follower, or dropped after a failed apply): the next
    // subscribe then sends no base — a full bootstrap — and none of its
    // frames are skipped as duplicates.
    fn current_head(&self) -> Option<u64> {
        self.pristine
            .lock()
            .expect("pristine lock")
            .is_some()
            .then(|| self.state.current_head())
            .flatten()
    }

    // Deliberately `on_chain`, not `contains`: after a re-bootstrap the
    // history still holds hashes ahead of the freshly installed chain, and
    // the replay for those must be applied, not skipped as duplicates.
    fn known(&self, head: u64) -> bool {
        self.pristine.lock().expect("pristine lock").is_some()
            && self.state.repl_head.on_chain(head)
    }

    fn apply_snapshot(&self, head: u64, bytes: &[u8]) -> Result<(), String> {
        let start = Instant::now();
        let pair = wdpt_store::decode_snapshot(bytes).map_err(|e| e.to_string())?;
        let mut pristine = self.pristine.lock().expect("pristine lock");
        let clone = pair.clone();
        *pristine = Some(pair);
        self.state.install_pair(&self.db_name, clone);
        self.state.repl_head.install_chain(&[head]);
        gauge!("repl.head").set(head as i64);
        counter!("repl.follower.snapshots_applied").add(1);
        counter!("repl.follower.bytes_applied").add(bytes.len() as u64);
        histogram!("repl.follower.apply_us").record(start.elapsed().as_micros() as u64);
        Ok(())
    }

    fn apply_delta(&self, head: u64, base: u64, bytes: &[u8]) -> Result<(), String> {
        let start = Instant::now();
        let mut pristine = self.pristine.lock().expect("pristine lock");
        let Some((interner, db)) = pristine.take() else {
            return Err("no snapshot applied yet; delta has no base".to_string());
        };
        // NB: read the state's head directly — `self.current_head()` locks
        // `pristine`, which this thread already holds.
        let served = self.state.current_head();
        if served != Some(base) {
            *pristine = Some((interner, db));
            return Err(format!(
                "delta extends {} but the served head is {}",
                wdpt_store::head_hex(base),
                served.map_or_else(|| "unset".to_string(), wdpt_store::head_hex),
            ));
        }
        let delta = match wdpt_store::decode_delta(bytes) {
            Ok(d) => d,
            Err(e) => {
                *pristine = Some((interner, db));
                return Err(e.to_string());
            }
        };
        let mut interner = interner;
        let mut symbols = wdpt_store::ChainSymbols::new(interner.len(), interner.len());
        match wdpt_store::apply_delta(|| &interner, &mut symbols, db, delta) {
            Ok(new_db) => {
                let (new_db, _) = symbols.commit(&mut interner, new_db);
                let clone = (interner.clone(), new_db.clone());
                *pristine = Some((interner, new_db));
                drop(pristine);
                self.state.install_pair(&self.db_name, clone);
                self.state.repl_head.advance(head);
                gauge!("repl.head").set(head as i64);
                counter!("repl.follower.deltas_applied").add(1);
                counter!("repl.follower.bytes_applied").add(bytes.len() as u64);
                histogram!("repl.follower.apply_us").record(start.elapsed().as_micros() as u64);
                Ok(())
            }
            // The failed apply consumed the pristine database; with the
            // pair gone the next frame forces a clean bootstrap.
            Err(e) => Err(format!("delta apply failed: {e}")),
        }
    }
}

/// The `stats` response: cache occupancy plus every registered counter.
fn stats_line(state: &ServeState) -> Json {
    let snap = metrics_snapshot();
    Json::obj([
        ("status".to_string(), Json::str("ok")),
        ("kind".to_string(), Json::str("stats")),
        (
            "repl_head".to_string(),
            state
                .current_head()
                .map_or(Json::Null, |h| Json::str(wdpt_store::head_hex(h))),
        ),
        (
            "repl_chain_len".to_string(),
            Json::int(state.repl_head.chain_len() as u64),
        ),
        (
            "cache_size".to_string(),
            Json::int(state.cache.len() as u64),
        ),
        (
            "cache_capacity".to_string(),
            Json::int(state.cache.capacity() as u64),
        ),
        (
            "queue_depth".to_string(),
            Json::int(state.queue_depth.load(Ordering::Relaxed) as u64),
        ),
        (
            "counters".to_string(),
            Json::obj(
                snap.counters
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::int(*v))),
            ),
        ),
        (
            "gauges".to_string(),
            Json::obj(
                snap.gauges
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::num(*v as f64))),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_model::Const;

    /// The `status` of a reply whose response is one line.
    fn status_of(reply: &WorkerReply) -> String {
        let text = std::str::from_utf8(&reply.response).unwrap();
        let line = text.strip_suffix('\n').expect("newline-terminated");
        assert!(!line.contains('\n'), "one line, got {text:?}");
        let status = Json::parse(line).unwrap().get("status").cloned();
        status.and_then(|s| s.as_str().map(str::to_string)).unwrap()
    }

    /// Regression: the connection-side wait for a worker response used an
    /// unbounded `recv()`, so a worker that never answered (wedged, or its
    /// job lost) parked the connection thread forever. The bounded wait
    /// must return a `cancelled` line shortly after deadline + grace and
    /// cancel the job's token.
    #[test]
    fn unresponsive_worker_frees_the_connection() {
        let (tx, rx) = mpsc::channel::<WorkerReply>();
        let token = CancelToken::new();
        let start = Instant::now();
        let reply = await_worker(&rx, Some("stuck-1"), &token, 50, start);
        // Keep the sender alive for the whole wait: dropping it early
        // would exercise the Disconnected arm, not the timeout.
        drop(tx);
        let waited = start.elapsed();
        assert!(
            waited < Duration::from_secs(5),
            "connection stayed parked for {waited:?}"
        );
        assert_eq!(status_of(&reply), "cancelled");
        assert!(reply.cancelled, "a timed-out wait is a cancelled request");
        assert!(
            token.is_cancelled(),
            "the abandoned job's token must be cancelled so the worker stops"
        );
    }

    #[test]
    fn worker_response_within_deadline_passes_through() {
        let (tx, rx) = mpsc::channel::<WorkerReply>();
        tx.send(WorkerReply {
            response: encoded(&ok_line(Some("q"), 1, 1, "hit", 10, None, None)),
            queue_ns: 1_000,
            eval_ns: 9_000,
            cancelled: false,
            answers: 1,
            tally: None,
            profile: None,
        })
        .unwrap();
        let token = CancelToken::new();
        let reply = await_worker(&rx, Some("q"), &token, 10_000, Instant::now());
        assert_eq!(status_of(&reply), "ok");
        assert_eq!(reply.queue_ns, 1_000);
        assert_eq!(reply.eval_ns, 9_000);
        assert!(!token.is_cancelled());
    }

    #[test]
    fn retry_hint_scales_with_queue_depth() {
        let cfg = ServeConfig::default();
        let empty = retry_after_hint(&cfg, 0, Some("x"));
        let full = retry_after_hint(&cfg, cfg.queue_capacity, Some("x"));
        assert_eq!(full - empty, cfg.retry_after_ms);
        // Depth beyond capacity (races between load and rejection) clamps
        // rather than growing without bound.
        assert_eq!(
            retry_after_hint(&cfg, cfg.queue_capacity * 10, Some("x")),
            full
        );
    }

    #[test]
    fn retry_hint_is_deterministic_per_request_but_spreads_across_requests() {
        let cfg = ServeConfig::default();
        let base = cfg.retry_after_ms;
        let hints: Vec<u64> = (0..64)
            .map(|k| retry_after_hint(&cfg, 32, Some(&format!("req-{k}"))))
            .collect();
        for (k, &h) in hints.iter().enumerate() {
            assert_eq!(
                h,
                retry_after_hint(&cfg, 32, Some(&format!("req-{k}"))),
                "hint must be reproducible for a given request id"
            );
            let scaled = base + base * 32 / cfg.queue_capacity as u64;
            assert!((scaled..scaled + base).contains(&h));
        }
        let distinct: std::collections::BTreeSet<u64> = hints.iter().copied().collect();
        assert!(
            distinct.len() >= 16,
            "64 request ids produced only {} distinct backoff hints",
            distinct.len()
        );
    }

    fn tiny_state() -> Arc<ServeState> {
        let mut i = Interner::new();
        let mut db = Database::new();
        let p = i.pred("edge");
        let (a, b) = (i.constant("a"), i.constant("b"));
        db.insert(p, vec![Const(a.0), Const(b.0)]);
        let mut dbs = BTreeMap::new();
        dbs.insert("main".to_string(), db);
        ServeState::new(ServeConfig::default(), i, dbs, "main")
    }

    #[test]
    fn reload_swaps_the_served_database_without_disturbing_holders() {
        let dir = std::env::temp_dir().join(format!("wdpt-serve-reload-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // A snapshot with more data than the live db, sharing the "edge"
        // predicate but under a *different* interner.
        let mut si = Interner::new();
        let mut sdb = Database::new();
        let p = si.pred("edge");
        for pair in [("a", "b"), ("b", "c"), ("c", "d")] {
            let (x, y) = (si.constant(pair.0), si.constant(pair.1));
            sdb.insert(p, vec![Const(x.0), Const(y.0)]);
        }
        let snap_path = dir.join("base.wdpt");
        wdpt_store::save_snapshot(&snap_path, &si, &sdb).unwrap();

        let state = tiny_state();
        let before = state.db("main").expect("default db");
        assert_eq!(before.size(), 1);

        let (tuples, applied) = state
            .reload("main", &snap_path, &Vec::<std::path::PathBuf>::new())
            .expect("reload succeeds");
        assert_eq!((tuples, applied), (3, 0));
        // The pre-reload handle still sees the old version; a fresh
        // resolution sees the new one.
        assert_eq!(before.size(), 1);
        assert_eq!(state.db("main").unwrap().size(), 3);
        // Reloading under a new name creates it.
        state
            .reload("aux", &snap_path, &Vec::<std::path::PathBuf>::new())
            .expect("reload into a new name succeeds");
        assert_eq!(state.db("aux").unwrap().size(), 3);

        // A bad path fails without touching the served map.
        let served = state.db("main").unwrap();
        let err = state
            .reload(
                "main",
                &dir.join("missing.wdpt"),
                &Vec::<std::path::PathBuf>::new(),
            )
            .expect_err("missing snapshot must fail");
        assert!(err.contains("missing.wdpt"));
        assert!(Arc::ptr_eq(&served, &state.db("main").unwrap()));

        std::fs::remove_dir_all(&dir).ok();
    }
}
