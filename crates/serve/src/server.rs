//! The concurrent query server: accept loop, evaluation permits,
//! backpressure, deadlines, graceful shutdown.
//!
//! Threading model — a request is evaluated on the thread that read it:
//!
//! * The **accept loop** ([`serve`]) owns the listener (nonblocking, so it
//!   can notice shutdown) and spawns one thread per connection. It spawns
//!   no other thread.
//! * A **connection thread** reads request lines and runs each query
//!   through every stage. The front half — parse, size caps, canonicalize
//!   and cache lookup — resolves names against the served dictionary
//!   under the interner's read lock and writes nothing: a name the
//!   dictionary lacks gets a request-local id
//!   ([`wdpt_model::RequestScope`]). A hit translates nothing and
//!   evaluates its plan's tree; a miss translates the query once, and a
//!   query naming a request-local id is planned for itself alone, so no
//!   cached tree holds one. Join-order planning runs lock-free
//!   and interner-free through the plan cache's per-key in-flight slots,
//!   and so do the worst-case-exponential per-node facts (cores,
//!   decompositions) that only an `explain: true` request computes — both
//!   under the request's [`CancelToken`].
//! * The evaluation then takes one of [`ServeConfig::workers`] **permits**
//!   (`Permits`). When all are taken, at most
//!   [`ServeConfig::queue_capacity`] requests wait for one, each until a
//!   permit frees or its deadline passes; a request that finds the line
//!   full is answered `overloaded` at once — the backpressure signal; the
//!   client decides whether to retry. Under the permit the thread runs the
//!   WDPT evaluation with the request's token threaded through the
//!   `wdpt-core`/`wdpt-cq` loops (deadline expiry surfaces as a typed
//!   [`Cancelled`] and an explicit `cancelled` line) and encodes the
//!   response: it asks the executor for its first `max_rows` rows — the
//!   count of all answers comes with them, exact, and rows nobody is sent
//!   are built only where the answer order needs them — writes them as
//!   row lines into one buffer straight from their cells, naming their
//!   constants under the interner's read lock (held for that loop only,
//!   never across evaluation), and appends the terminal line. A panic in
//!   either is answered `internal` and returns the permit. The buffer goes
//!   to the socket in one piece, after the permit is returned.
//!
//! The interner has one writer, a reload's or replicated apply's fold
//! ([`ServeState::fold`]): front halves and row-naming loops only read it,
//! so they never wait on one another, and no query stream can grow it.
//!
//! Admission control against adversarial queries: [`ServeConfig`] caps the
//! atom and variable counts of a query (evaluation is exponential in query
//! size).
//!
//! Graceful shutdown: the `shutdown` op (or [`ServeState::begin_shutdown`])
//! flips one flag. The accept loop stops accepting, connection threads
//! answer in-flight requests — waiters evaluate as permits free — and
//! close, and [`serve`] joins them before returning.

use crate::cache::{
    build_plan, canonicalize, explain_json, refresh_if_stale, CanonicalQuery, Plan, PlanCache,
};
use crate::protocol::{
    attach_head, cancelled_line, error_line, metrics_json_line, metrics_text_line, ok_line,
    overloaded_line, reload_line, shutting_down_line, slowlog_line, stale_replica_line, Request,
    RowWriter,
};
use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::TryRecvError;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant, SystemTime};
use wdpt_core::Wdpt;
use wdpt_model::{CancelToken, Cancelled, Database, Interner, Var};
use wdpt_obs::trace::Stage;
use wdpt_obs::{
    counter, gauge_scope, histogram, metrics_snapshot, render_prometheus, snapshot_to_json, Json,
    RequestTrace,
};
use wdpt_plan::{CountedCatalog, StatsCatalog};
use wdpt_repl::frames::{delta_frame, snapshot_frame, subscribed_line};
use wdpt_repl::{Primary, ReplApply, SubscribeStart};
use wdpt_sparql::algebra::SparqlError;
use wdpt_sparql::parser::MAX_TRIPLE_PATTERNS;
use wdpt_sparql::{parse_query, GraphPattern};
use wdpt_store::{ChainSymbols, SymbolMap};

/// Server tunables. [`Default`] gives the values the `wdpt-serve` binary
/// advertises in `--help`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent evaluations: the number of evaluation permits.
    pub workers: usize,
    /// Threads *inside* one evaluation (the executor's root fan-out).
    pub eval_threads: usize,
    /// Requests that may wait for a permit when all are taken; the
    /// backpressure threshold.
    pub queue_capacity: usize,
    /// Plan-cache capacity (entries).
    pub cache_capacity: usize,
    /// Default cap on streamed rows per query.
    pub max_rows: usize,
    /// Admission cap on a query's triple-pattern count: planning and
    /// evaluation are worst-case exponential in query size, so unbounded
    /// client queries are rejected up front with `query_too_large`. The
    /// parser reads no query past [`MAX_TRIPLE_PATTERNS`], so a cap above
    /// that admits no more (`wdpt-serve` refuses one).
    pub max_query_atoms: usize,
    /// Admission cap on a query's distinct-variable count, honoured as
    /// configured: no search on the request path has a vertex limit (an
    /// `explain` of a node with more variables than the exact-treewidth DP
    /// supports reports `treewidth: null`).
    pub max_query_vars: usize,
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

/// Deadline applied when a request names none, in milliseconds.
const DEFAULT_DEADLINE_MS: u64 = 10_000;

/// Upper clamp on a requested deadline, in milliseconds.
const MAX_DEADLINE_MS: u64 = 60_000;

/// *Base* client backoff on `overloaded`, in milliseconds. The hint a
/// client actually receives scales with the requests waiting and carries a
/// deterministic per-request jitter so a flood of rejected clients does not
/// retry in lockstep — see [`retry_after_hint`].
const RETRY_AFTER_MS: u64 = 50;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            eval_threads: 2,
            queue_capacity: 64,
            cache_capacity: 256,
            max_rows: 1_000,
            max_query_atoms: 64,
            max_query_vars: 26,
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

/// The evaluation permits: at most `permits` queries evaluate at once, and
/// at most `capacity` more wait for a permit, each on its own connection
/// thread.
struct Permits {
    /// `(holding a permit, waiting for one)`.
    counts: Mutex<(usize, usize)>,
    /// Signalled each time a permit is returned.
    freed: Condvar,
    permits: usize,
    capacity: usize,
}

/// Why a request got no permit.
#[derive(Debug)]
enum Refused {
    /// Every permit is taken and `waiting` requests already wait.
    Full { waiting: usize },
    /// The request's deadline passed while it waited.
    Expired,
}

/// A held evaluation permit; dropping it — on unwind too — returns it.
struct Permit<'a> {
    permits: &'a Permits,
}

impl Permits {
    fn new(cfg: &ServeConfig) -> Permits {
        Permits {
            counts: Mutex::new((0, 0)),
            freed: Condvar::new(),
            permits: cfg.workers.max(1),
            capacity: cfg.queue_capacity,
        }
    }

    fn counts(&self) -> MutexGuard<'_, (usize, usize)> {
        // Cannot fire: nothing that can panic runs under this lock.
        self.counts.lock().expect("permits lock")
    }

    /// Takes a permit: at once if one is free, else after waiting — if the
    /// line has room — until one frees or `token`'s deadline passes.
    fn acquire(&self, token: &CancelToken) -> Result<Permit<'_>, Refused> {
        let mut counts = self.counts();
        if counts.0 >= self.permits {
            if counts.1 >= self.capacity {
                return Err(Refused::Full { waiting: counts.1 });
            }
            counts.1 += 1;
            let deadline = token.deadline();
            while counts.0 >= self.permits {
                let left = deadline.map_or(Duration::MAX, |d| {
                    d.saturating_duration_since(Instant::now())
                });
                if left.is_zero() {
                    break;
                }
                (counts, _) = self.freed.wait_timeout(counts, left).expect("permits lock");
            }
            counts.1 -= 1;
            if counts.0 >= self.permits {
                return Err(Refused::Expired);
            }
        }
        counts.0 += 1;
        Ok(Permit { permits: self })
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut counts = self.permits.counts();
        counts.0 -= 1;
        // A waiter counts itself under the lock before it waits: with none
        // counted, nobody needs waking.
        if counts.1 > 0 {
            self.permits.freed.notify_one();
        }
    }
}

/// One served database version paired with the statistics catalog built
/// from it. The two always travel together: every install point swaps a
/// whole `DbEntry` under the map's write lock, so no request can observe a
/// new database with the old version's statistics (or vice versa) — the
/// staleness bug a separate catalog map would invite. The chain the
/// version was installed from travels with them for the same reason: the
/// `head` a response carries is read from the entry its rows came from.
#[derive(Clone)]
struct DbEntry {
    db: Arc<Database>,
    stats: Arc<StatsCatalog>,
    /// The base, tip and hashes of the chain `db` is the result of; `None`
    /// for a text or generated database the server was started with.
    chain: Option<Arc<KeptChain>>,
}

impl DbEntry {
    fn new(db: Database) -> DbEntry {
        let stats = Arc::new(StatsCatalog::build(&db));
        DbEntry {
            db: Arc::new(db),
            stats,
            chain: None,
        }
    }

    /// The content hashes of the chain `db` is the result of, base first;
    /// empty when it has none.
    fn hashes(&self) -> &[u64] {
        self.chain.as_ref().map_or(&[], |chain| &chain.hashes)
    }

    /// The chain's tip: the position `min_head` and `head` name.
    fn head(&self) -> Option<u64> {
        self.hashes().last().copied()
    }
}

/// Why a request pinned no database.
enum Unpinned {
    /// No database is served under the name.
    Unknown,
    /// Its chain did not reach `min_head` in time; the head it is at.
    Stale(Option<u64>),
}

/// Shared server state: configuration, the interner, the named databases,
/// the plan cache, and the shutdown flag.
///
/// Each database sits behind an [`Arc`] inside an [`RwLock`]'d map so the
/// admin `reload` op can swap in a freshly loaded snapshot atomically:
/// requests resolve their `Arc<Database>` once at admission, so in-flight
/// evaluations keep the database they started with while new requests see
/// the replacement.
pub struct ServeState {
    /// The configuration the server was started with.
    pub cfg: ServeConfig,
    /// The served dictionary. [`ServeState::fold`] is its only writer.
    interner: RwLock<Interner>,
    dbs: RwLock<BTreeMap<String, DbEntry>>,
    default_db: String,
    cache: PlanCache,
    shutdown: AtomicBool,
    permits: Permits,
    slowlog: Mutex<SlowLog>,
    /// Installs so far, counted after each swap; `installed` is signalled
    /// with it, for the `min_head` wait.
    installs: Mutex<u64>,
    installed: Condvar,
    /// The replication hub, present only on a primary (`--repl-log`).
    primary: Mutex<Option<Arc<Primary>>>,
}

/// What an install keeps with the database it serves: the base the chain
/// applied to, the chain's tip — where its files' ids landed and the rows
/// it inserted since the base — and its content hashes. A replicated delta
/// resumes from it.
struct KeptChain {
    base: Arc<KeptBase>,
    map: SymbolMap,
    added: Database,
    /// The chain's content hashes, base first: `hashes[0]` is `base.hash`.
    hashes: Vec<u64>,
}

/// A verified base snapshot in served ids: what a reload of a byte-equal
/// base file, and every replicated delta after it, applies to instead of
/// decoding it again. It costs one base database (its runs, shared with
/// what is served while no delta is applied), the file's bytes, the map of
/// its ids and the base's posting counts.
struct KeptBase {
    /// The file's bytes; reuse is byte equality with them.
    bytes: Vec<u8>,
    /// Their [`wdpt_store::content_hash`]: the chain's first link.
    hash: u64,
    /// Where the base's file ids land in the served dictionary. Ids are
    /// append-only, so it stays valid.
    map: SymbolMap,
    /// The base's database, in served ids.
    db: Database,
    /// The base's statistics with the posting lengths they were ranked
    /// from: an install derives the served catalog from them and the
    /// chain's rows.
    stats: CountedCatalog,
}

impl ServeState {
    /// Builds the shared state. `default_db` need not be among `dbs` yet —
    /// a snapshot may be reloaded under it — but [`serve`] refuses to
    /// start until it is served.
    pub fn new(
        cfg: ServeConfig,
        interner: Interner,
        dbs: BTreeMap<String, Database>,
        default_db: impl Into<String>,
    ) -> Arc<ServeState> {
        let default_db = default_db.into();
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
        let permits = Permits::new(&cfg);
        Arc::new(ServeState {
            cfg,
            interner: RwLock::new(interner),
            dbs: RwLock::new(dbs),
            default_db,
            cache,
            shutdown: AtomicBool::new(false),
            permits,
            slowlog,
            installs: Mutex::new(0),
            installed: Condvar::new(),
            primary: Mutex::new(None),
        })
    }

    /// Name of the default database (the one `--follow` replicates into
    /// and a primary publishes).
    pub fn default_db(&self) -> &str {
        &self.default_db
    }

    /// The content hashes of the chain served as `db_name`, base first:
    /// the last is the `head` its responses carry. Empty when the name is
    /// not served or its database came from no chain.
    pub fn chain(&self, db_name: &str) -> Vec<u64> {
        self.entry(db_name)
            .map_or_else(Vec::new, |entry| entry.hashes().to_vec())
    }

    /// Promotes this server to replication primary: accepts `subscribe`
    /// ops and publishes reloads of the default database.
    pub fn set_primary(&self, primary: Arc<Primary>) {
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

    /// Runs `f` on the live interner under its write lock: the one place
    /// the served dictionary is written.
    ///
    /// A panic in `f` (an install's commit) poisons the lock; it is
    /// recovered, here and in [`ServeState::dictionary`], because the
    /// dictionary stays whole: interning checks before it writes, then
    /// pushes and inserts, and neither unwinds.
    fn fold<R>(&self, f: impl FnOnce(&mut Interner) -> R) -> R {
        f(&mut (self.interner.write()).unwrap_or_else(PoisonError::into_inner))
    }

    /// Brings a loaded chain into the live interner and swaps its result
    /// in as `db_name`, with its statistics and the chain it came from:
    /// the single install point for reloads *and* the follower's
    /// replicated frames. The fold commits the chain's symbols; a base
    /// decoded in full is then counted once, and kept. The served catalog
    /// is derived from the base's counts and the rows the chain inserted
    /// since the base ([`CountedCatalog::derive`]), so cached plans see
    /// the new epoch the moment they can see the new data. The chain's
    /// hashes go into the entry with them. Returns what it did.
    fn install(&self, db_name: &str, loaded: LoadedChain) -> Installed {
        let LoadedChain {
            base,
            symbols,
            db,
            chain: hashes,
            deltas,
        } = loaded;
        let (adopted, committed) = self.fold(|i| (i.is_empty(), symbols.commit(i, db)));
        let (base, arrived) = match base {
            ChainBase::Kept(kept) => (kept, Base::Kept),
            ChainBase::Decoded { bytes, hash } => {
                let (map, db) = committed
                    .base
                    .expect("a base decoded in full commits with its chain");
                let stats = CountedCatalog::count(&db);
                let kept = KeptBase {
                    bytes,
                    hash,
                    map,
                    db,
                    stats,
                };
                let arrived = if adopted {
                    Base::Adopted
                } else {
                    Base::Remapped
                };
                (Arc::new(kept), arrived)
            }
        };
        let columns_counted = match arrived {
            Base::Kept => 0,
            Base::Adopted | Base::Remapped => base.stats.columns_counted(),
        };
        let stats = base.stats.derive(&committed.added);
        let (db, map, added) = (committed.db, committed.map, committed.added);
        let installed = Installed {
            tuples: db.size(),
            deltas: deltas.len(),
            base: arrived,
            columns_counted,
            head: *hashes.last().expect("a chain holds its base"),
        };
        // Only the entry swap holds the write lock.
        let kept = KeptChain {
            base,
            map,
            added,
            hashes,
        };
        let entry = DbEntry {
            db: Arc::new(db),
            stats: Arc::new(stats),
            chain: Some(Arc::new(kept)),
        };
        // The write guard is gone at the end of this statement; the entry
        // it replaced outlives it, so when no query still holds the old
        // database its teardown blocks no `db()` reader.
        let replaced = self
            .dbs
            .write()
            .expect("dbs lock")
            .insert(db_name.to_string(), entry);
        drop(replaced);
        *self.installs.lock().expect("installs lock") += 1;
        self.installed.notify_all();
        installed
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
        self.entry(name).map(|e| e.db)
    }

    /// The served database under `name` together with the statistics
    /// catalog built from that exact version — one map read, so the pair
    /// is always consistent.
    pub fn db_with_stats(&self, name: &str) -> Option<(Arc<Database>, Arc<StatsCatalog>)> {
        self.entry(name).map(|e| (e.db, e.stats))
    }

    /// The entry served under `name`, in one map read.
    fn entry(&self, name: &str) -> Option<DbEntry> {
        self.dbs.read().expect("dbs lock").get(name).cloned()
    }

    /// The entry served under `name`, pinned for one request. With
    /// `min_head`, the pinned entry's chain must hold that hash — its data
    /// is then at or after it; until it does, every install re-pins and
    /// re-checks, for at most `wait`, and then the head the entry is at is
    /// the error.
    fn pin(&self, name: &str, min_head: Option<u64>, wait: Duration) -> Result<DbEntry, Unpinned> {
        let Some(hash) = min_head else {
            return self.entry(name).ok_or(Unpinned::Unknown);
        };
        let deadline = Instant::now() + wait;
        // An install swaps its entry before it counts itself, and it cannot
        // count while this lock is held: no install after a pin goes unseen.
        let mut installs = self.installs.lock().expect("installs lock");
        loop {
            let pinned = self.entry(name).ok_or(Unpinned::Unknown)?;
            if pinned.hashes().contains(&hash) {
                return Ok(pinned);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(Unpinned::Stale(pinned.head()));
            }
            let seen = *installs;
            (installs, _) = self
                .installed
                .wait_timeout_while(installs, left, |n| *n == seen)
                .expect("installs lock");
        }
    }

    /// Hot-reloads the database `db_name` from `snapshot` plus an optional
    /// delta chain, creating the name if it is new.
    ///
    /// The load + verification (CRC sections, delta hash chain, sorted-run
    /// merges) runs with **no server locks held**, so queries keep flowing;
    /// the interner's read lock is taken only briefly, to resolve names.
    /// Then the chain's new symbols are interned (the fold) and the served
    /// `Arc<Database>` is swapped under the write lock: in-flight queries
    /// finish against the old database, requests admitted after the swap
    /// see the new one.
    ///
    /// There is one path. The chain applies to a base in served ids: the
    /// base the server kept when the base file is byte-equal to it, or
    /// else the base file decoded in full and its dictionary resolved
    /// against the live interner (adopted whole into an empty one; see
    /// [`ChainSymbols::for_base`]). Each delta's appended symbols and
    /// cells are resolved under the read lock, O(delta). Every install
    /// keeps the base it applied to — its bytes, hash, id map, database
    /// and posting counts — with the database it serves, replacing what
    /// was kept there.
    ///
    /// The served statistics catalog is counted once per base decoded in
    /// full — the base's columns — and derived from the base's counts and
    /// the rows the chain inserted ([`CountedCatalog::derive`]), counting
    /// no column of a kept base again.
    ///
    /// The plan cache is **kept**: cached plans depend only on query
    /// structure and interner ids, never on data, and a reload only
    /// appends symbols (existing ids are stable), so every entry stays
    /// valid.
    ///
    /// A `--snapshot` start of `wdpt-serve` is a reload too, so a server
    /// keeps the base it started from. Returns what the install did.
    pub fn reload(
        &self,
        db_name: &str,
        snapshot: &Path,
        deltas: &[impl AsRef<Path>],
    ) -> Result<Installed, String> {
        let loaded = self.load_stage(snapshot, deltas)?;
        self.install_stage(db_name, loaded)
    }

    /// The off-lock half of a reload: finds the snapshot among the kept
    /// bases ([`ServeState::find_base`]), reads the delta files, and hands
    /// their bytes to the one loader, which verifies the chain and applies
    /// it to a kept base or the base decoded in full (see
    /// [`ServeState::reload`]) while queries keep flowing. The returned
    /// [`LoadedChain`] carries the result, the chain's content hashes, and
    /// the raw delta bytes (so a primary can publish them to its followers
    /// after the swap). It leaves the interner and the kept bases as they
    /// were.
    pub fn load_stage(
        &self,
        snapshot: &Path,
        deltas: &[impl AsRef<Path>],
    ) -> Result<LoadedChain, String> {
        let failed = |p: &Path, e: io::Error| format!("{}: {e}", p.display());
        let base = File::open(snapshot)
            .and_then(|file| {
                // A hint: every use of it is checked against the bytes read.
                let len = file.metadata()?.len() as usize;
                self.find_base(file, len)
            })
            .map_err(|e| failed(snapshot, e))?;
        let bytes = deltas
            .iter()
            .map(|p| std::fs::read(p).map_err(|e| failed(p.as_ref(), e)))
            .collect::<Result<Vec<_>, _>>()?;
        self.load(base, bytes).map_err(|(link, e)| {
            // Name the file that failed, not the chain's first one.
            let file = match link.checked_sub(1) {
                None => snapshot,
                Some(i) => deltas[i].as_ref(),
            };
            format!("{}: {e}", file.display())
        })
    }

    /// Finds the base file of about `len` bytes that `reader` reads among
    /// the bases installs kept, under any name: the file is read
    /// [`BASE_CHUNK`] bytes at a time into one buffer, and each chunk is
    /// compared with every kept base of `len` bytes that matched so far.
    /// Only a kept base equal to the file byte for byte, to its end, is
    /// found. Otherwise the file is read whole, the prefix that matched
    /// copied from the kept bytes it equals. The kept bases are picked
    /// under the map's read lock; every compare runs after it is dropped.
    fn find_base(&self, mut reader: impl Read, len: usize) -> io::Result<BaseFile> {
        let mut candidates: Vec<Arc<KeptBase>> = Vec::new();
        let dbs = self.dbs.read().expect("dbs lock");
        let kept = dbs
            .values()
            .filter_map(|entry| Some(&entry.chain.as_ref()?.base));
        // A base kept under several names is compared once.
        for base in kept {
            if base.bytes.len() == len && !candidates.iter().any(|c| Arc::ptr_eq(c, base)) {
                candidates.push(Arc::clone(base));
            }
        }
        drop(dbs);
        let mut bytes = Vec::new();
        if !candidates.is_empty() {
            let mut buf = vec![0; BASE_CHUNK.min(len)];
            let mut at = 0;
            loop {
                let chunk = fill(&mut reader, &mut buf)?;
                let n = chunk.len();
                // Its first `at` bytes are the file's.
                let matched = Arc::clone(&candidates[0]);
                candidates.retain(|kept| kept.bytes.get(at..at + n) == Some(chunk));
                match (n, candidates.is_empty()) {
                    (0, false) if at == len => return Ok(BaseFile::Kept(matched)),
                    (1.., false) => at += n,
                    _ => {
                        bytes.reserve(len.max(at + n));
                        bytes.extend_from_slice(&matched.bytes[..at]);
                        bytes.extend_from_slice(chunk);
                        break;
                    }
                }
            }
        }
        bytes.reserve(len.saturating_sub(bytes.len()));
        reader.read_to_end(&mut bytes)?;
        Ok(BaseFile::Read(bytes))
    }

    /// The one loader, for reloads and replicated snapshots: a base file,
    /// found kept or read ([`ServeState::find_base`]), and its deltas'
    /// bytes, verified and applied off-lock. A kept base resumes from its
    /// id map; any other base is decoded and resolved against the live
    /// interner. An error names the chain position of the file that
    /// failed, as [`wdpt_store::decode_chain`] does.
    fn load(
        &self,
        base: BaseFile,
        deltas: Vec<Vec<u8>>,
    ) -> Result<LoadedChain, (usize, wdpt_store::StoreError)> {
        let (base, symbols, db) = match base {
            BaseFile::Kept(kept) => {
                let none = Database::new();
                let symbols = ChainSymbols::resume(&kept.map, &none, self.interner_len());
                let db = (kept.db.clone(), kept.hash);
                (ChainBase::Kept(kept), symbols, db)
            }
            BaseFile::Read(bytes) => {
                let at_base = |e| (0, e);
                let pair = wdpt_store::decode_snapshot(&bytes).map_err(at_base)?;
                let (symbols, db) =
                    ChainSymbols::for_base(|| self.dictionary(), pair).map_err(at_base)?;
                let hash = wdpt_store::content_hash(&bytes);
                (ChainBase::Decoded { bytes, hash }, symbols, (db, hash))
            }
        };
        self.apply(base, symbols, db, deltas)
    }

    /// Applies the delta files `deltas` to `db`, the result so far of a
    /// chain over `base` in `symbols`' ids, whose last file hashes to
    /// `head`: the loaded chain, awaiting its install.
    fn apply(
        &self,
        base: ChainBase,
        mut symbols: ChainSymbols,
        (db, head): (Database, u64),
        deltas: Vec<Vec<u8>>,
    ) -> Result<LoadedChain, (usize, wdpt_store::StoreError)> {
        let interner = || self.dictionary();
        let (db, chain) = wdpt_store::apply_chain(interner, &mut symbols, head, db, &deltas)?;
        let deltas = deltas
            .into_iter()
            .zip(chain.windows(2))
            .map(|(bytes, link)| (link[0], link[1], bytes))
            .collect();
        Ok(LoadedChain {
            base,
            symbols,
            db,
            chain,
            deltas,
        })
    }

    /// The swap half of a reload: the one install — the fold, the base
    /// counted if it was decoded in full and kept either way, the served
    /// database swapped with the chain it came from. Fails (without
    /// touching the interner or the kept bases) if shutdown began after the
    /// load stage — a reload racing the drain either completes its swap or
    /// reports `shutting down`, never a half-merged interner.
    pub fn install_stage(&self, db_name: &str, loaded: LoadedChain) -> Result<Installed, String> {
        if self.is_shutting_down() {
            return Err("server is shutting down; reload rejected before the swap".to_string());
        }
        Ok(self.install(db_name, loaded))
    }

    /// The plan cache (for tests and stats).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Current interned-symbol count (for tests and stats): requests
    /// leave it unchanged.
    pub fn interner_len(&self) -> usize {
        self.dictionary().len()
    }

    /// Runs `f` on the live interner under its read lock: how a caller
    /// outside the server renders the ids of what it serves.
    pub fn with_interner<R>(&self, f: impl FnOnce(&Interner) -> R) -> R {
        f(&self.dictionary())
    }

    /// The served dictionary, read-locked.
    fn dictionary(&self) -> RwLockReadGuard<'_, Interner> {
        self.interner.read().unwrap_or_else(PoisonError::into_inner)
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
    /// token: the interner's read lock covers only the front half, and the
    /// build runs lock-free under `token`.
    pub fn plan_for_with(
        &self,
        src: &str,
        token: &CancelToken,
    ) -> Result<(Arc<Plan>, &'static str), String> {
        // Statistics first, then names, as `handle_query` pins its database.
        let stats = self
            .db_with_stats(&self.default_db)
            .map(|(_, s)| s)
            .unwrap_or_else(|| Arc::new(StatsCatalog::empty()));
        let (canon, found) = self.front_half(src).map_err(|r| r.message)?;
        self.back_half(&canon, found, &stats, token)
            .map_err(|e| e.to_string())
    }

    /// The polynomial front half of every query, under the interner's read
    /// lock: parse, admission caps, canonicalize, cache lookup. Names
    /// resolve through a [`wdpt_model::RequestScope`], so a query, admitted
    /// or turned away, leaves the dictionary as it found it.
    ///
    /// A hit translates nothing: its key is the canonical query, which
    /// translated when the plan was built. Only a miss translates, under
    /// the same scope, and learns whether its tree names a request-local
    /// id. A query that does can never hit: its key spells a name the
    /// dictionary lacks, and every cached key spells dictionary names only.
    fn front_half(&self, src: &str) -> Result<(CanonicalQuery, Found), Rejection> {
        let dictionary = self.dictionary();
        let mut scope = dictionary.scope();
        let parsed = parse_query(&mut scope, src).map_err(|e| {
            if e.too_large {
                // The parser stopped reading: there is no count to report.
                Rejection {
                    kind: "query_too_large",
                    message: format!(
                        "query has {}; this server accepts at most {} triple patterns",
                        e.message,
                        self.cfg.max_query_atoms.min(MAX_TRIPLE_PATTERNS)
                    ),
                    at: None,
                    malformed: false,
                }
            } else {
                Rejection {
                    kind: "parse_error",
                    message: e.message,
                    at: Some(e.at),
                    malformed: true,
                }
            }
        })?;
        let atoms = atom_count(&parsed.pattern);
        let too_large = |vars: usize| {
            Rejection {
            kind: "query_too_large",
            message: format!(
                "query has {atoms} triple patterns and {vars} variables; this server accepts at most {} and {}",
                self.cfg.max_query_atoms, self.cfg.max_query_vars
            ),
            at: None,
            malformed: false,
        }
        };
        if atoms > self.cfg.max_query_atoms {
            return Err(too_large(parsed.pattern.variables().len()));
        }
        // Canonicalizing collects the distinct variables, first occurrence
        // first: the variable cap counts them there.
        let canon = canonicalize(&parsed, &mut scope);
        if canon.request_vars.len() > self.cfg.max_query_vars {
            return Err(too_large(canon.request_vars.len()));
        }
        if let Some(plan) = self.cache.get(&canon.key) {
            return Ok((canon, Found::Hit(plan)));
        }
        let wdpt = canon.canon.to_wdpt(&mut scope).map_err(|e| {
            let (kind, message) = sparql_error_parts(&e, &canon);
            Rejection {
                kind,
                message,
                at: None,
                malformed: true,
            }
        })?;
        let local = names_unknown(&wdpt, dictionary.len());
        Ok((canon, Found::Miss { wdpt, local }))
    }

    /// The back half of planning, with no lock and no interner: a miss is
    /// built in the cache, coalesced with identical concurrent requests, or
    /// — when its tree names a request-local id — for this request alone,
    /// so that every cached tree names dictionary ids only. Ids only grow
    /// (the fold appends), so a cached tree's ids keep their names across
    /// every install. A plan whose orders were costed under another
    /// statistics epoch (a reload, a delta) is re-costed before use.
    fn back_half(
        &self,
        canon: &CanonicalQuery,
        found: Found,
        stats: &StatsCatalog,
        token: &CancelToken,
    ) -> Result<(Arc<Plan>, &'static str), Cancelled> {
        let (plan, status) = match found {
            Found::Hit(plan) => (plan, "hit"),
            Found::Miss { wdpt, local: false } => {
                self.cache.get_or_build(canon, wdpt, stats, token)?
            }
            Found::Miss { wdpt, local: true } => {
                counter!("serve.plan_cache.miss").add(1);
                (Arc::new(build_plan(canon, wdpt, stats, token)?), "miss")
            }
        };
        refresh_if_stale(&plan, stats, token)?;
        Ok((plan, status))
    }
}

/// What a query's front half found for its key.
enum Found {
    /// The cached plan: the request evaluates its tree.
    Hit(Arc<Plan>),
    /// No plan: the query's tree, and whether it names a constant or
    /// predicate the dictionary lacks.
    Miss { wdpt: Wdpt, local: bool },
}

/// Whether `wdpt` names a predicate or constant id at or above `len`: one
/// a dictionary of that length lacks.
fn names_unknown(wdpt: &Wdpt, len: usize) -> bool {
    let unknown = |id: u32| id as usize >= len;
    (0..wdpt.node_count()).flat_map(|t| wdpt.atoms(t)).any(|a| {
        let mut consts = a.args.iter().filter_map(|t| t.as_const());
        unknown(a.pred.0) || consts.any(|c| unknown(c.0))
    })
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
    base: ChainBase,
    /// The chain's symbols, resolved read-only: the fold commits them.
    symbols: ChainSymbols,
    /// The chain's result, in `symbols`' ids.
    db: Database,
    /// Content hashes of the chain: base snapshot first, then each delta.
    pub chain: Vec<u64>,
    /// `(base_hash, hash, file bytes)` per delta, in chain order.
    pub deltas: Vec<(u64, u64, Vec<u8>)>,
}

/// What one install did, returned by [`ServeState::reload`],
/// [`ServeState::install_stage`] and a follower's frames: its own account,
/// exact whatever else the process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Installed {
    /// Tuples now served under the name.
    pub tuples: usize,
    /// Delta files applied on top of the base.
    pub deltas: usize,
    /// How the base arrived.
    pub base: Base,
    /// Columns counted in full for the served statistics: the base's, when
    /// it was decoded; 0 for a kept base, whose counts are derived from.
    pub columns_counted: usize,
    /// The chain's tip: the `head` the name is now served at.
    pub head: u64,
}

/// How the base of an installed chain arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// A base an install kept, byte-equal to the file: nothing decoded.
    Kept,
    /// Decoded in full into an empty dictionary, which adopted the file's
    /// whole.
    Adopted,
    /// Decoded in full and resolved name by name against the served
    /// dictionary.
    Remapped,
}

impl Base {
    /// The name the `reload` response gives it.
    pub fn as_str(self) -> &'static str {
        match self {
            Base::Kept => "kept",
            Base::Adopted => "adopted",
            Base::Remapped => "remapped",
        }
    }
}

/// Bytes of a base file [`ServeState::find_base`] reads and compares with
/// the kept bases at a time: one buffer of this size, whatever the file's.
pub const BASE_CHUNK: usize = 64 * 1024;

/// Reads from `reader` until `buf` is full or the reader is at its end;
/// the bytes read.
fn fill<'b>(reader: &mut impl Read, buf: &'b mut [u8]) -> io::Result<&'b [u8]> {
    let mut n = 0;
    while n < buf.len() {
        match reader.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(&buf[..n])
}

/// A base file as [`ServeState::find_base`] found it.
enum BaseFile {
    /// Byte-equal to a base an install kept.
    Kept(Arc<KeptBase>),
    /// Equal to no kept base: the file's bytes.
    Read(Vec<u8>),
}

/// The base a loaded chain applies to.
enum ChainBase {
    /// A base an install kept, in served ids and counted.
    Kept(Arc<KeptBase>),
    /// A base file decoded in full, its bytes and their hash: the install
    /// counts it and keeps it.
    Decoded { bytes: Vec<u8>, hash: u64 },
}

/// The triple patterns of a parsed pattern, which the atom cap bounds.
fn atom_count(p: &GraphPattern) -> usize {
    match p {
        GraphPattern::Triple(_) => 1,
        GraphPattern::And(a, b) | GraphPattern::Opt(a, b) => atom_count(a) + atom_count(b),
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
/// in-flight work and returns. The listener is switched to nonblocking mode
/// so the loop can observe the shutdown flag. Fails at once if the default
/// database is not served.
pub fn serve(listener: TcpListener, state: Arc<ServeState>) -> io::Result<()> {
    if state.db(&state.default_db).is_none() {
        let missing = format!("default database {:?} is not served", state.default_db);
        return Err(io::Error::new(io::ErrorKind::InvalidInput, missing));
    }
    listener.set_nonblocking(true)?;
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !state.is_shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let state = Arc::clone(&state);
                conns.push(std::thread::spawn(move || {
                    let _ = handle_connection(stream, state);
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
    // Drain: connections finish their in-flight request — a waiter when a
    // permit frees — and exit on the next read-timeout tick.
    for h in conns {
        let _ = h.join();
    }
    Ok(())
}

/// Longest accepted request line. A line that exceeds this is answered with
/// `bad_request` and the connection is closed (the remainder of the oversized
/// line cannot be re-synchronised reliably).
const MAX_LINE_BYTES: usize = 1 << 20;

fn handle_connection(stream: TcpStream, state: Arc<ServeState>) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    // The buffer persists across read timeouts and accumulates *bytes*, not
    // `String` data: `read_line` would error (and drop the partial read) if
    // a timeout fired in the middle of a multibyte UTF-8 character, whereas
    // `read_until` keeps whatever prefix arrived and resumes on the next
    // packet. UTF-8 validation happens once per complete line. A read stops
    // one byte past the longest line and its newline, so an oversized line
    // is turned away however fast it arrives, and never held in full.
    let mut buf: Vec<u8> = Vec::new();
    let oversized = |buf: &[u8]| buf.len() - usize::from(buf.ends_with(b"\n")) > MAX_LINE_BYTES;
    loop {
        let room = (MAX_LINE_BYTES + 2).saturating_sub(buf.len()) as u64;
        match io::Read::take(&mut reader, room).read_until(b'\n', &mut buf) {
            Ok(_) if oversized(&buf) => break,
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
                        handle_request(id.as_deref(), request, trace, &state)
                    }
                    Err(bad_request) => (bad_request, None),
                };
                writer.write_all(&response)?;
                writer.flush()?;
                // The respond stage opened when the evaluation ended and
                // closes only after the flush, so it covers the encoding
                // and the socket write.
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
    }
    counter!("serve.requests.error").add(1);
    let l = error_line(
        None,
        "bad_request",
        &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        None,
    );
    wdpt_obs::write_json_line(&mut writer, &l)?;
    writer.flush()
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
    // A follower counts as subscribed while its stream is served.
    let _subscribed = gauge_scope!("repl.primary.subscribers");
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
            attach_head(&mut line, state.chain(&state.default_db).last().copied());
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
                return (encoded(&shutting_down_line(id)), None);
            }
            let db_name = db.as_deref().unwrap_or(&state.default_db);
            let start = Instant::now();
            match state.load_stage(Path::new(&snapshot), &deltas) {
                Ok(loaded) => {
                    // A primary re-publishes the new deltas of the database
                    // it replicates to its followers after the swap; clone
                    // the bytes first, the install consumes the load.
                    let primary = state.primary().filter(|_| db_name == state.default_db);
                    let publishable: Vec<(u64, Vec<u8>)> = primary
                        .as_ref()
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
                        Ok(installed) => {
                            if let Some(primary) = primary {
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
                            let wall_us = start.elapsed().as_micros() as u64;
                            reload_line(id, db_name, &installed, wall_us)
                        }
                        Err(_racing_shutdown) => shutting_down_line(id),
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
/// caller for the entries that exist, not on every request.
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

fn handle_query(req: QueryParams<'_>, state: &ServeState, trace: &mut RequestTrace) -> Vec<u8> {
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
        return encoded(&shutting_down_line(id));
    }

    // The deadline clock starts before plan building: the join-order
    // enumerators and (for `explain`) the core and decomposition searches
    // are worst-case exponential in the query, so an adversarial query
    // must not outlive its budget while planning.
    let deadline_ms = deadline_ms
        .unwrap_or(DEFAULT_DEADLINE_MS)
        .min(MAX_DEADLINE_MS);

    let db_name = db.unwrap_or(&state.default_db);
    // Resolve the database *version* now: the request evaluates against
    // this `Arc` even if a `reload` swaps the served map while it waits.
    // The statistics catalog and the chain ride along from the same map
    // read, so the plan is costed against exactly the version it will
    // execute on, and the `head` it answers with names that version.
    // Pin the database, then resolve names: a served database's ids were all
    // interned before it was installed, so the request-local ids handed out
    // below are above them and match nothing in it.
    //
    // Consistency token: a database whose chain does not hold `min_head`
    // yet is re-pinned after each install (up to the request deadline),
    // then answered typed `stale_replica` rather than with data the client
    // knows is older than its own writes.
    let wait = Duration::from_millis(deadline_ms);
    let pinned = match state.pin(db_name, min_head, wait) {
        Ok(pinned) => pinned,
        Err(Unpinned::Unknown) => {
            counter!("serve.requests.error").add(1);
            let message = format!("no database named {db_name:?}");
            return encoded(&error_line(id, "unknown_db", &message, None));
        }
        Err(Unpinned::Stale(head)) => {
            let min_head = min_head.expect("only a min_head pin goes stale");
            return encoded(&stale_replica_line(id, min_head, head));
        }
    };
    let head = pinned.head();
    let (db, db_stats) = (pinned.db, pinned.stats);

    let token = CancelToken::with_deadline(Duration::from_millis(deadline_ms));
    let start = Instant::now();

    let (canon, found) = match state.front_half(query) {
        Ok(admitted) => admitted,
        Err(r) => {
            if r.malformed {
                counter!("serve.requests.error").add(1);
            }
            return encoded(&error_line(id, r.kind, &r.message, r.at));
        }
    };
    trace.stage_done(Stage::Admission);

    // Back half of planning, no locks and no interner: a hit's re-costing
    // if its statistics moved, or a miss's cancellable build; then, only
    // for `explain`, the plan's per-node facts — the exponential searches,
    // memoised on the plan once they complete.
    let planned =
        state
            .back_half(&canon, found, &db_stats, &token)
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

    let max_rows = max_rows.unwrap_or(state.cfg.max_rows);
    let threads = state.cfg.eval_threads.max(1);
    // A slowlog entry's status and profile, set when the request is
    // cancelled or turns out slow: the profile is rendered only then.
    let mut logged: Option<(&str, Option<Json>)> = None;
    let admitted = admitted(state, id, &token, trace, |trace| {
        // Pin the exec plan for the whole evaluation: a concurrent
        // statistics refresh swaps the slot, not the orders this run is
        // following.
        let exec = plan.exec_plan();
        // The tally comes back on cancellation too — deadline-blown queries
        // are the slowlog's whole reason to exist.
        let (result, tally) =
            wdpt_core::evaluate_rows(&plan.wdpt, &db, threads, &token, Some(&exec), max_rows);
        let answers = result.as_ref().map_or(0, |a| a.len() as u64);
        let eval_ns = trace.stage_done(Stage::Eval);
        // The request's own profile, rendered once: for its `ok` line if it
        // asked for one, for its slowlog entry if it gets one.
        let render = || {
            tally
                .profile(&plan.wdpt, PROFILE_LABEL, eval_ns, answers)
                .to_json()
        };
        let mut own = profile.then(render);
        let response = match &result {
            Ok(table) => {
                plan.stats
                    .record_execution(eval_ns / 1_000, tally.work.nodes_expanded);
                // The rows the executor was asked for: it holds these.
                let rows = table.len().min(max_rows);
                let writer =
                    RowWriter::new(id, &canon.request_vars, &plan.canon_vars, table.vars());
                let mut response = Vec::new();
                // Read-locked for naming the constants of the rows sent.
                state.with_interner(|i| {
                    for r in 0..rows {
                        writer.write(&mut response, table.row(r), i);
                    }
                });
                counter!("serve.requests.ok").add(1);
                let mut okl = ok_line(
                    id,
                    table.len(),
                    rows,
                    cache_status,
                    eval_ns / 1_000,
                    own.clone(),
                    explain
                        .as_deref()
                        .map(|facts| explain_json(&plan, facts, cache_status)),
                );
                // The head of the version the rows came from: what the
                // client can quote as `min_head` elsewhere.
                attach_head(&mut okl, head);
                push_line(&mut response, &okl);
                response
            }
            Err(Cancelled) => {
                counter!("serve.requests.cancelled").add(1);
                plan.stats.record_cancelled();
                encoded(&cancelled_line(id, deadline_ms, eval_ns / 1_000))
            }
        };
        if state.slowlog_enabled() {
            let threshold_ns = state.cfg.slowlog_threshold_ms.saturating_mul(1_000_000);
            let status = if result.is_err() {
                Some("cancelled")
            } else {
                (trace.total_ns() >= threshold_ns).then_some("slow")
            };
            // The object on the `ok` line if the request asked for one.
            logged = status.map(|status| (status, Some(own.take().unwrap_or_else(render))));
        }
        response
    });
    let response = match admitted {
        Ok(response) => response,
        Err(Refused::Full { waiting }) => {
            let retry_after_ms = retry_after_hint(&state.cfg, waiting, id);
            return encoded(&overloaded_line(id, retry_after_ms));
        }
        Err(Refused::Expired) => {
            // Expired while waiting — the evaluation never started.
            counter!("serve.requests.cancelled").add(1);
            plan.stats.record_cancelled();
            logged = Some(("cancelled", None));
            let wall_us = start.elapsed().as_micros() as u64;
            encoded(&cancelled_line(id, deadline_ms, wall_us))
        }
    };
    if let Some((status, profile)) = logged.filter(|_| state.slowlog_enabled()) {
        state.slowlog_push(slowlog_entry(
            id,
            db_name,
            query,
            status,
            "eval",
            deadline_ms,
            Some(cache_status),
            trace,
            profile,
            Some(crate::cache::exec_plan_json(&plan)),
        ));
    }
    response
}

/// Runs `evaluate` on this thread under an evaluation permit, taken as
/// [`Permits::acquire`] takes it; the wait is the trace's queue stage. A
/// panic in `evaluate` is answered with an `internal` error line and
/// counted under `serve.requests.error` and `serve.eval.panicked`; the
/// permit is returned either way.
fn admitted(
    state: &ServeState,
    id: Option<&str>,
    token: &CancelToken,
    trace: &mut RequestTrace,
    evaluate: impl FnOnce(&mut RequestTrace) -> Vec<u8>,
) -> Result<Vec<u8>, Refused> {
    let permit = state.permits.acquire(token);
    trace.stage_done(Stage::Queue);
    let _permit = permit?;
    Ok(
        panic::catch_unwind(AssertUnwindSafe(|| evaluate(trace))).unwrap_or_else(|_| {
            counter!("serve.requests.error").add(1);
            counter!("serve.eval.panicked").add(1);
            encoded(&error_line(id, "internal", "the evaluation panicked", None))
        }),
    )
}

/// The backoff hint sent with `overloaded`: [`RETRY_AFTER_MS`], scaled up
/// linearly with how many requests wait for a permit, plus a deterministic
/// per-request jitter (a hash of the request id, modulo the base).
///
/// A fixed hint makes every rejected client of a flood sleep the same
/// interval and stampede back in lockstep, re-creating the overload on the
/// retry; the jitter spreads the retries across a window that widens as
/// the line lengthens. Hashing the id keeps the hint reproducible for a
/// given request, so tests and clients see stable values.
fn retry_after_hint(cfg: &ServeConfig, waiting: usize, id: Option<&str>) -> u64 {
    let base = RETRY_AFTER_MS;
    let capacity = cfg.queue_capacity.max(1) as u64;
    let scaled = base + base * (waiting as u64).min(capacity) / capacity;
    let jitter = wdpt_store::content_hash(id.unwrap_or("").as_bytes()) % base;
    scaled + jitter
}

/// Maps a [`SparqlError`] from translating the canonical query to a
/// response `(kind, message)`, naming canonical variable `#k` as the
/// request spelled it.
fn sparql_error_parts(e: &SparqlError, canon: &CanonicalQuery) -> (&'static str, String) {
    let name = |v: Var| &canon.request_vars[v.0 as usize];
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

/// Implements [`ReplApply`] over the serving state: the follower side of
/// replication, driving frames through the same loader and install the
/// `reload` op uses (plan cache kept, in-flight queries pinned to their
/// `Arc<Database>`).
///
/// The follower's state is what an install keeps with the database served
/// as `db_name`: the base and the chain's tip. A snapshot frame is loaded
/// as a base file with no deltas. A delta frame resumes the chain's
/// symbols from the tip — the live interner also holds other databases'
/// symbols, so the tip's map, not the interner, anchors the delta's file
/// ids — applies that one delta to the served database and installs the
/// result, its chain the tip's extended by the delta's hash. A frame that
/// fails leaves the tip, the head and the interner as they were, so the
/// next good frame applies.
pub struct FollowerApply {
    state: Arc<ServeState>,
    db_name: String,
}

impl FollowerApply {
    /// A follower apply target swapping the database served as `db_name`.
    pub fn new(state: Arc<ServeState>, db_name: impl Into<String>) -> FollowerApply {
        FollowerApply {
            state,
            db_name: db_name.into(),
        }
    }

    /// Installs a replicated snapshot frame whose content hash is `head`:
    /// the file loaded as a base with no deltas. Returns the install's
    /// account.
    pub fn install_snapshot(&self, head: u64, bytes: &[u8]) -> Result<Installed, String> {
        let start = Instant::now();
        let base = self.state.find_base(bytes, bytes.len());
        let base = base.expect("reading a slice cannot fail");
        let loaded = self.state.load(base, Vec::new());
        let loaded = loaded.map_err(|(_, e)| e.to_string())?;
        let installed = self.state.install(&self.db_name, loaded);
        debug_assert_eq!(installed.head, head);
        counter!("repl.follower.snapshots_applied").add(1);
        counter!("repl.follower.bytes_applied").add(bytes.len() as u64);
        histogram!("repl.follower.apply_us").record(start.elapsed().as_micros() as u64);
        Ok(installed)
    }

    /// Installs a replicated delta frame whose content hash is `head`,
    /// built against the served head `base`, on the chain's tip. Returns
    /// the install's account.
    pub fn install_delta(&self, head: u64, base: u64, bytes: &[u8]) -> Result<Installed, String> {
        let start = Instant::now();
        let served = self.state.entry(&self.db_name);
        let Some((db, chain)) = served.and_then(|entry| Some((entry.db, entry.chain?))) else {
            return Err("no snapshot applied yet; delta has no base".to_string());
        };
        let tip = *chain.hashes.last().expect("a chain holds its base");
        if tip != base {
            return Err(format!(
                "delta extends {} but the served head is {}",
                wdpt_store::head_hex(base),
                wdpt_store::head_hex(tip),
            ));
        }
        let len = self.state.interner_len();
        let symbols = ChainSymbols::resume(&chain.map, &chain.added, len);
        let kept = ChainBase::Kept(Arc::clone(&chain.base));
        let mut loaded = self
            .state
            .apply(kept, symbols, ((*db).clone(), base), vec![bytes.to_vec()])
            .map_err(|(_, e)| format!("delta apply failed: {e}"))?;
        loaded.chain = [&chain.hashes[..], &[head]].concat();
        let installed = self.state.install(&self.db_name, loaded);
        counter!("repl.follower.deltas_applied").add(1);
        counter!("repl.follower.bytes_applied").add(bytes.len() as u64);
        histogram!("repl.follower.apply_us").record(start.elapsed().as_micros() as u64);
        Ok(installed)
    }
}

impl ReplApply for FollowerApply {
    // Both read the chain installed under the name, which is empty for a
    // fresh follower: the next subscribe then sends no base — a full
    // bootstrap — and none of its frames are skipped as duplicates. After
    // a re-bootstrap the chain is the snapshot's alone, so the replay
    // after it is applied, not skipped.
    fn current_head(&self) -> Option<u64> {
        self.state.chain(&self.db_name).last().copied()
    }

    fn known(&self, head: u64) -> bool {
        self.state.chain(&self.db_name).contains(&head)
    }

    fn apply_snapshot(&self, head: u64, bytes: &[u8]) -> Result<(), String> {
        self.install_snapshot(head, bytes).map(drop)
    }

    fn apply_delta(&self, head: u64, base: u64, bytes: &[u8]) -> Result<(), String> {
        self.install_delta(head, base, bytes).map(drop)
    }
}

/// The `stats` response: cache occupancy plus every registered counter.
/// `repl_head` and `repl_chain_len` are the default database's.
fn stats_line(state: &ServeState) -> Json {
    let snap = metrics_snapshot();
    let chain = state.chain(&state.default_db);
    Json::obj([
        ("status".to_string(), Json::str("ok")),
        ("kind".to_string(), Json::str("stats")),
        (
            "repl_head".to_string(),
            chain
                .last()
                .map_or(Json::Null, |&h| Json::str(wdpt_store::head_hex(h))),
        ),
        ("repl_chain_len".to_string(), Json::int(chain.len() as u64)),
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
            Json::int(state.permits.counts().1 as u64),
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

    /// The `(status, kind)` of a response of one line.
    fn status_of(response: &[u8]) -> (String, Option<String>) {
        let text = std::str::from_utf8(response).unwrap();
        let line = text.strip_suffix('\n').expect("newline-terminated");
        assert!(!line.contains('\n'), "one line, got {text:?}");
        let line = Json::parse(line).unwrap();
        let field = |name: &str| line.get(name).and_then(Json::as_str).map(str::to_string);
        (field("status").unwrap(), field("kind"))
    }

    /// A panic in an evaluation is answered, counted, and gives its permit
    /// back: with one permit and no waiting, a second admission is refused
    /// unless it gets the permit at once.
    #[test]
    fn a_panicking_evaluation_answers_and_returns_its_permit() {
        let state = tiny_state(ServeConfig {
            workers: 1,
            queue_capacity: 0,
            ..ServeConfig::default()
        });
        let token = CancelToken::with_deadline(Duration::from_secs(10));
        let mut trace = RequestTrace::start();
        let ((panicked, second), delta) = wdpt_obs::delta_scope(|| {
            let panicked = admitted(&state, Some("p"), &token, &mut trace, |_| {
                panic!("an evaluation bug")
            });
            let second = admitted(&state, Some("q"), &token, &mut trace, |_| {
                b"done\n".to_vec()
            });
            (panicked, second)
        });
        let (status, kind) = status_of(&panicked.expect("admitted"));
        assert_eq!(
            (status.as_str(), kind.as_deref()),
            ("error", Some("internal"))
        );
        assert_eq!(second.expect("the permit came back"), b"done\n");
        assert_eq!(delta.counter("serve.eval.panicked"), 1);
        assert_eq!(delta.counter("serve.requests.error"), 1);
        assert_eq!(state.permits.counts().0, 0);
    }

    /// Translation errors name canonical variable `#k` as the request
    /// spelled it; `UnknownSelectVar` cannot reach the wire (the parser
    /// turns such a query away first), so it is pinned here.
    #[test]
    fn translation_errors_use_the_clients_spelling() {
        let mut i = Interner::new();
        let q = parse_query(&mut i, "SELECT ?who WHERE { (?x, p, ?who) }").unwrap();
        let canon = canonicalize(&q, &mut i);
        let cases = [
            (SparqlError::UnknownSelectVar(Var(1)), "?who "),
            (SparqlError::NotWellDesigned(Var(0)), "?x "),
        ];
        for (e, var) in cases {
            let (_, message) = sparql_error_parts(&e, &canon);
            assert!(message.contains(var) && !message.contains('#'), "{message}");
        }
    }

    #[test]
    fn retry_hint_scales_with_queue_depth() {
        let cfg = ServeConfig::default();
        let empty = retry_after_hint(&cfg, 0, Some("x"));
        let full = retry_after_hint(&cfg, cfg.queue_capacity, Some("x"));
        assert_eq!(full - empty, RETRY_AFTER_MS);
        // More waiters than capacity clamps rather than growing without
        // bound.
        assert_eq!(
            retry_after_hint(&cfg, cfg.queue_capacity * 10, Some("x")),
            full
        );
    }

    #[test]
    fn retry_hint_is_deterministic_per_request_but_spreads_across_requests() {
        let cfg = ServeConfig::default();
        let base = RETRY_AFTER_MS;
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

    /// A panic under the dictionary's write lock — an install whose commit
    /// failed — poisons it; the dictionary is recovered, whole, and the
    /// server answers the next query and installs the next reload.
    #[test]
    fn a_poisoned_dictionary_lock_does_not_take_the_server_down() {
        let state = tiny_state(ServeConfig::default());
        let failed = panic::catch_unwind(AssertUnwindSafe(|| {
            state.fold(|i| {
                i.constant("orphan");
                panic!("a commit bug")
            })
        }));
        assert!(failed.is_err() && state.interner.is_poisoned());
        let line = br#"{"op":"query","id":"q","query":"SELECT ?s WHERE { (?s, p, o) }"}"#;
        let (id, request) = decode_line(line).unwrap().unwrap();
        let (response, _) = handle_request(id.as_deref(), request, RequestTrace::start(), &state);
        assert_eq!(status_of(&response), ("ok".to_string(), None));
        assert!(state.with_interner(|i| i
            .lookup_id(wdpt_model::SymbolSpace::Const, "orphan")
            .is_some()));
        let before = state.interner_len();
        state.fold(|i| i.constant("next"));
        assert_eq!(state.interner_len(), before + 1);
    }

    fn tiny_state(cfg: ServeConfig) -> Arc<ServeState> {
        let mut i = Interner::new();
        let mut db = Database::new();
        let p = i.pred("edge");
        let (a, b) = (i.constant("a"), i.constant("b"));
        db.insert(p, vec![Const(a.0), Const(b.0)]);
        let mut dbs = BTreeMap::new();
        dbs.insert("main".to_string(), db);
        ServeState::new(cfg, i, dbs, "main")
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

        let state = tiny_state(ServeConfig::default());
        let before = state.db("main").expect("default db");
        assert_eq!(before.size(), 1);

        let installed = state
            .reload("main", &snap_path, &Vec::<std::path::PathBuf>::new())
            .expect("reload succeeds");
        let expected = Installed {
            tuples: 3,
            deltas: 0,
            base: Base::Remapped,
            columns_counted: 2,
            head: wdpt_store::content_hash(&std::fs::read(&snap_path).unwrap()),
        };
        assert_eq!(installed, expected);
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

    /// Reads a base file's bytes and checks, at every read, that the
    /// database map can be write-locked: that an install could swap.
    struct LockFree<'s> {
        state: &'s ServeState,
        bytes: &'s [u8],
        reads: usize,
    }

    impl Read for LockFree<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            assert!(self.state.dbs.try_write().is_ok(), "read under a map lock");
            self.reads += 1;
            self.bytes.read(buf)
        }
    }

    /// A base is read and compared with the kept bases while no lock on
    /// the database map is held, and found kept. A file that ends before
    /// or after the length it was opened with — cut or grown while it was
    /// read — is read whole, not found kept.
    #[test]
    fn the_base_is_compared_with_no_lock_held_to_its_end() {
        let mut si = Interner::new();
        let mut sdb = Database::new();
        let p = si.pred("edge");
        for k in 0..40_000u32 {
            let (x, y) = (si.constant(&format!("a{k}")), si.constant(&format!("b{k}")));
            sdb.insert(p, vec![Const(x.0), Const(y.0)]);
        }
        let bytes = wdpt_store::snapshot_to_vec_v2(&si, &sdb).unwrap();
        assert!(bytes.len() > 2 * BASE_CHUNK, "{} bytes", bytes.len());
        let state = tiny_state(ServeConfig::default());
        let apply = FollowerApply::new(Arc::clone(&state), "main");
        let head = wdpt_store::content_hash(&bytes);
        assert_eq!(
            apply.install_snapshot(head, &bytes).unwrap().base,
            Base::Remapped
        );
        let mut reader = LockFree {
            state: &state,
            bytes: &bytes,
            reads: 0,
        };
        let found = state.find_base(&mut reader, bytes.len()).unwrap();
        assert!(matches!(found, BaseFile::Kept(_)), "not found kept");
        assert!(reader.reads > 2, "{} reads", reader.reads);
        let (n, longer) = (bytes.len(), [&bytes[..], &[0]].concat());
        for file in [&bytes[..n - 1], &longer[..]] {
            match state.find_base(file, n).unwrap() {
                BaseFile::Read(read) => assert_eq!(read, file),
                BaseFile::Kept(_) => panic!("{} bytes found kept", file.len()),
            }
        }
    }
}
