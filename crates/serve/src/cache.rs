//! The plan cache: canonical query keys and memoized per-query artifacts.
//!
//! What a plan holds — the translated tree and its cost-based join orders —
//! depends only on the query's *structure* (and the statistics epoch), not
//! on what its variables are called. The cache therefore keys on the
//! query's **canonical form**: variables α-renamed to `#0, #1, …` in order
//! of first occurrence over a fixed pre-order traversal (triple subjects
//! before predicates before objects, left operands before right). Two
//! queries that differ only by variable names — or by constant spelling,
//! since `after_2010` and `"after_2010"` resolve to the same constant — map
//! to the same key and share one [`Plan`]. The map key is
//! [`CanonicalQuery::key`] itself: every plan is built by the same rule
//! (`Strategy::Auto`), and the only thing that ever replaces a cached plan's
//! orders is [`refresh_if_stale`], on a statistics-epoch change.
//!
//! A cached [`Plan`] lives in canonical variable space: every request of its
//! key evaluates the plan's tree ([`Plan::wdpt`]) under the plan's orders,
//! and keeps only its own first-occurrence variable list
//! ([`CanonicalQuery::request_vars`]) to translate answer bindings back to
//! the names the client wrote. A cached tree names dictionary ids only: a
//! query whose tree names a constant or predicate the dictionary lacks is
//! planned for itself alone, and the dictionary's ids never move.
//!
//! A miss costs what planning costs: [`build_plan`] is `plan_wdpt` over the
//! tree the miss translated, which it keeps; it reads no interner and takes
//! no lock. The per-node facts no
//! evaluation reads — core size, exact treewidth, acyclicity, each a
//! worst-case-exponential search — are not part of a build: they are
//! computed by the first `explain` that asks ([`Plan::node_facts`]) and
//! memoised on the plan.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use wdpt_core::{plan_wdpt, Wdpt};
use wdpt_cq::{try_core_above, try_in_hw, try_treewidth_of, EXACT_TW_VERTEX_LIMIT};
use wdpt_model::{CancelToken, Cancelled, Resolve, Term, Var};
use wdpt_obs::{counter, Json, RawHistogram};
use wdpt_plan::{ExecPlan, StatsCatalog, Strategy};
use wdpt_sparql::{GraphPattern, SparqlQuery, TriplePattern};

/// A query reduced to canonical form, plus what is needed to translate
/// canonical answers back into the request's vocabulary.
#[derive(Debug, Clone)]
pub struct CanonicalQuery {
    /// The cache key: an unambiguous structural rendering of the
    /// canonicalized query.
    pub key: String,
    /// The query with variables α-renamed to `#0, #1, …`.
    pub canon: SparqlQuery,
    /// The request's variable names in first-occurrence order: index `k`
    /// is the name that became canonical variable `#k`, which is the bare
    /// id `Var(k)`. It names nothing: no interner renders it, as none
    /// renders `wdpt_cq::containment::freeze`'s frozen constants.
    pub request_vars: Vec<String>,
}

/// α-renames `q` into canonical form and renders its cache key; `i` names
/// the ids `q` was resolved to.
pub fn canonicalize<'s>(q: &SparqlQuery, i: &mut impl Resolve<'s>) -> CanonicalQuery {
    let mut order = Vec::new();
    let pattern = rename_pattern(&q.pattern, &mut order);
    let select = q.select.as_ref().map(|sel| {
        sel.iter()
            .map(|&v| canonical(v, &mut order))
            .collect::<Vec<_>>()
    });
    let canon = SparqlQuery { pattern, select };
    CanonicalQuery {
        key: render_key(&canon, &*i),
        canon,
        request_vars: order.iter().map(|v| i.name(v.0).to_string()).collect(),
    }
}

/// The canonical variable `#k` of request variable `v`: `v` is the `k`-th
/// distinct variable in `order`, where it is appended if new.
fn canonical(v: Var, order: &mut Vec<Var>) -> Var {
    let k = order.iter().position(|&u| u == v).unwrap_or_else(|| {
        order.push(v);
        order.len() - 1
    });
    Var(k as u32)
}

fn rename_pattern(p: &GraphPattern, order: &mut Vec<Var>) -> GraphPattern {
    let term = |t: Term, order: &mut Vec<Var>| match t {
        Term::Const(_) => t,
        Term::Var(v) => Term::Var(canonical(v, order)),
    };
    match p {
        GraphPattern::Triple(t) => GraphPattern::Triple(TriplePattern {
            s: term(t.s, order),
            p: term(t.p, order),
            o: term(t.o, order),
        }),
        GraphPattern::And(a, b) => GraphPattern::And(
            Box::new(rename_pattern(a, order)),
            Box::new(rename_pattern(b, order)),
        ),
        GraphPattern::Opt(a, b) => GraphPattern::Opt(
            Box::new(rename_pattern(a, order)),
            Box::new(rename_pattern(b, order)),
        ),
    }
}

/// Structural key rendering. Variables print as `Vk`, constants as their
/// `Debug`-escaped name (so a constant literally spelled `V0` renders as
/// `C"V0"` and cannot collide), operators as `A[..]`/`O[..]`. A constant
/// the dictionary lacks is keyed by its spelling, like any other.
fn render_key<'s>(q: &SparqlQuery, i: &impl Resolve<'s>) -> String {
    fn term<'s>(t: Term, i: &impl Resolve<'s>, out: &mut String) {
        let _ = match t {
            Term::Var(v) => write!(out, "V{}", v.0),
            Term::Const(c) => write!(out, "C{:?}", i.name(c.0)),
        };
    }
    fn pat<'s>(p: &GraphPattern, i: &impl Resolve<'s>, out: &mut String) {
        match p {
            GraphPattern::Triple(t) => {
                out.push('(');
                term(t.s, i, out);
                out.push(' ');
                term(t.p, i, out);
                out.push(' ');
                term(t.o, i, out);
                out.push(')');
            }
            GraphPattern::And(a, b) => {
                out.push_str("A[");
                pat(a, i, out);
                pat(b, i, out);
                out.push(']');
            }
            GraphPattern::Opt(a, b) => {
                out.push_str("O[");
                pat(a, i, out);
                pat(b, i, out);
                out.push(']');
            }
        }
    }
    let mut out = String::new();
    match &q.select {
        None => out.push_str("S*"),
        Some(sel) => {
            out.push_str("S[");
            for (j, v) in sel.iter().enumerate() {
                if j > 0 {
                    out.push(' ');
                }
                let _ = write!(out, "V{}", v.0);
            }
            out.push(']');
        }
    }
    out.push(' ');
    pat(&q.pattern, i, &mut out);
    out
}

/// Per-tree-node facts an `explain` reports: core size and decomposition
/// facts of the node's CQ. Nothing that evaluates reads them, so they are
/// computed on demand ([`Plan::node_facts`]), not on a plan build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePlan {
    /// Atoms labeling the node.
    pub atoms: usize,
    /// Atoms in the core of the node's CQ (≤ `atoms`).
    pub core_atoms: usize,
    /// Exact treewidth of the node CQ's core; `None` when the core has more
    /// variables than the exact subset DP supports
    /// ([`EXACT_TW_VERTEX_LIMIT`]).
    pub treewidth: Option<usize>,
    /// Whether the core is α-acyclic (hypertree width ≤ 1).
    pub acyclic: bool,
}

/// Runtime statistics accumulated by one cached plan across the requests
/// that executed it: execution tallies, search nodes expanded (total and
/// last run — each run's own count, so concurrent requests do not bleed
/// into one another), and a log₂ latency histogram of eval times. All relaxed
/// atomics — each evaluation updates them lock-free when it ends — and a
/// [`RawHistogram`] rather than a registered one, so evicted plans don't
/// leak `&'static` registry entries.
///
/// Nothing in the server acts on these: they are surfaced through the
/// `metrics` admin op and the per-query `explain` response field, where a
/// plan whose observed `nodes_expanded` diverges from its estimate shows.
#[derive(Debug, Default)]
pub struct PlanStats {
    executions: AtomicU64,
    cancelled: AtomicU64,
    nodes_expanded_total: AtomicU64,
    nodes_expanded_last: AtomicU64,
    latency_us: RawHistogram,
}

impl PlanStats {
    /// Records one completed evaluation: its eval wall time and the search
    /// nodes it expanded (the run's own count, `EvalTally::nodes_expanded`).
    pub fn record_execution(&self, eval_us: u64, nodes_expanded: u64) {
        self.executions.fetch_add(1, Relaxed);
        self.latency_us.record(eval_us);
        self.nodes_expanded_total.fetch_add(nodes_expanded, Relaxed);
        self.nodes_expanded_last.store(nodes_expanded, Relaxed);
    }

    /// Records an evaluation that hit its deadline.
    pub fn record_cancelled(&self) {
        self.cancelled.fetch_add(1, Relaxed);
    }

    /// Completed executions so far.
    pub fn executions(&self) -> u64 {
        self.executions.load(Relaxed)
    }

    /// Deadline-cancelled executions so far.
    pub fn cancellations(&self) -> u64 {
        self.cancelled.load(Relaxed)
    }

    /// Search nodes expanded, summed over completed executions.
    pub fn nodes_expanded_total(&self) -> u64 {
        self.nodes_expanded_total.load(Relaxed)
    }

    /// Search nodes expanded by the most recent completed execution.
    pub fn nodes_expanded_last(&self) -> u64 {
        self.nodes_expanded_last.load(Relaxed)
    }

    /// The stats as a JSON object (shape shared by `metrics` and
    /// `explain`).
    pub fn to_json(&self) -> Json {
        let lat = self.latency_us.snapshot("latency_us");
        let (p50, p90, p99) = lat.percentiles();
        Json::obj([
            ("executions", Json::int(self.executions())),
            ("cancelled", Json::int(self.cancellations())),
            (
                "nodes_expanded_total",
                Json::int(self.nodes_expanded_total()),
            ),
            ("nodes_expanded_last", Json::int(self.nodes_expanded_last())),
            (
                "latency_us",
                Json::obj([
                    ("count", Json::int(lat.count)),
                    ("mean", Json::num(lat.mean())),
                    ("p50", Json::int(p50)),
                    ("p90", Json::int(p90)),
                    ("p99", Json::int(p99)),
                    ("max", Json::int(lat.max)),
                ]),
            ),
        ])
    }
}

/// A memoized evaluation plan: the WDPT in canonical variable space, the
/// cost-based join orders, accumulated runtime stats, and — once an
/// `explain` has asked — the per-node decomposition/core facts.
#[derive(Debug)]
pub struct Plan {
    /// The query's tree over canonical variables: what every request of
    /// the plan evaluates, and what `explain` and [`Plan::node_facts`] read.
    /// A cached plan's tree names dictionary ids only.
    pub wdpt: Wdpt,
    /// `canon_vars[k]` is the canonical variable `#k`, `Var(k)`.
    pub canon_vars: Vec<Var>,
    /// Per-node facts by preorder node id; empty until the first
    /// [`Plan::node_facts`] that ran to completion.
    nodes: OnceLock<Arc<[NodePlan]>>,
    /// Runtime stats accumulated across this plan's executions.
    pub stats: PlanStats,
    /// The cost-based per-node atom orders currently in force. Swapped as
    /// a whole by [`refresh_if_stale`] — the only thing that replaces them
    /// — so executing requests keep the `Arc` they read: a refresh never
    /// tears an order out from under a running evaluation.
    exec: RwLock<Arc<ExecPlan>>,
}

impl Plan {
    /// The exec plan currently in force.
    pub fn exec_plan(&self) -> Arc<ExecPlan> {
        Arc::clone(&self.exec.read().expect("exec lock"))
    }

    /// The per-node facts of an `explain`, computed by the first caller and
    /// memoised. Per node this is a core search and two decomposition
    /// searches, all worst-case exponential in the *query* size and all
    /// polling `token`; a cancelled computation memoises nothing, so a
    /// later caller with a longer deadline starts afresh. No lock is held:
    /// two first callers racing both compute (the facts are a function of
    /// the tree alone) and the first to finish fills the memo. The frozen
    /// constants of the core search are ids above the query's own constants
    /// (`wdpt_cq::containment::freeze`), so no interner is involved.
    pub fn node_facts(&self, token: &CancelToken) -> Result<Arc<[NodePlan]>, Cancelled> {
        if let Some(nodes) = self.nodes.get() {
            return Ok(Arc::clone(nodes));
        }
        let mut nodes = Vec::with_capacity(self.wdpt.node_count());
        for t in 0..self.wdpt.node_count() {
            token.check()?;
            let q = self.wdpt.node_cq(t);
            let core = try_core_above(&q, 0, token)?;
            nodes.push(NodePlan {
                atoms: q.body().len(),
                core_atoms: core.body().len(),
                treewidth: if core.variables().len() <= EXACT_TW_VERTEX_LIMIT {
                    Some(try_treewidth_of(&core, token)?)
                } else {
                    None
                },
                acyclic: try_in_hw(&core, 1, token)?,
            });
        }
        if self.nodes.set(nodes.into()).is_ok() {
            counter!("serve.plan.facts_computed").add(1);
        }
        Ok(Arc::clone(
            self.nodes.get().expect("set above or by a racer"),
        ))
    }
}

/// Re-plans `plan` against `stats` if its exec plan was costed under a
/// different statistics epoch (hot reload, delta apply) — the one trigger
/// that ever replaces a cached plan's orders. The swap is atomic;
/// concurrent executions finish on the `Arc` they already hold. The new
/// orders are costed on the plan's own tree.
pub fn refresh_if_stale(
    plan: &Plan,
    stats: &StatsCatalog,
    token: &CancelToken,
) -> Result<bool, Cancelled> {
    if plan.exec.read().expect("exec lock").stats_epoch == stats.epoch() {
        return Ok(false);
    }
    let exec = Arc::new(plan_wdpt(&plan.wdpt, stats, Strategy::Auto, token)?);
    counter!("serve.plan.stats_refresh").add(1);
    *plan.exec.write().expect("exec lock") = exec;
    Ok(true)
}

/// Builds a plan from a canonicalized query and its tree, which the plan
/// keeps: the cost-based join orders ([`plan_wdpt`], whose exponential DP
/// is gated small and polls `token`). No interner: `wdpt` is the tree the
/// miss's front half translated.
///
/// A plan the cache keeps must not name a request-local id: a later reload
/// may intern a data constant at that very id, and a request of the same
/// key would then match that constant. The server builds such a query's
/// plan for that request alone.
pub fn build_plan(
    canon: &CanonicalQuery,
    wdpt: Wdpt,
    stats: &StatsCatalog,
    token: &CancelToken,
) -> Result<Plan, Cancelled> {
    token.check()?;
    let exec = Arc::new(plan_wdpt(&wdpt, stats, Strategy::Auto, token)?);
    Ok(Plan {
        wdpt,
        canon_vars: (0..canon.request_vars.len() as u32).map(Var).collect(),
        nodes: OnceLock::new(),
        stats: PlanStats::default(),
        exec: RwLock::new(exec),
    })
}

/// The `explain`/slowlog object describing the join orders in force:
/// per-node atom order with the enumerator that chose it, and estimated vs
/// last-observed cost.
pub fn exec_plan_json(plan: &Plan) -> Json {
    let exec = plan.exec_plan();
    let nodes = exec
        .nodes
        .iter()
        .map(|n| {
            Json::obj([
                (
                    "order",
                    Json::Arr(n.order.iter().map(|&i| Json::int(i as u64)).collect()),
                ),
                ("chosen", Json::str(n.chosen.as_str())),
                // Over all the node's expected executions, like the total.
                ("est_nodes", Json::num(n.est_nodes * n.est_execs)),
                ("est_rows", Json::num(n.est_rows)),
                ("est_execs", Json::num(n.est_execs)),
            ])
        })
        .collect();
    Json::obj([
        ("nodes", Json::Arr(nodes)),
        ("est_nodes", Json::num(exec.est_nodes())),
        (
            "actual_nodes_last",
            Json::int(plan.stats.nodes_expanded_last()),
        ),
        ("stats_epoch", Json::int(exec.stats_epoch)),
    ])
}

/// The `explain` response object for one plan: cache disposition, per-node
/// decomposition facts (`facts`, from [`Plan::node_facts`]), the join
/// orders in force, and accumulated runtime stats.
pub fn explain_json(plan: &Plan, facts: &[NodePlan], cache_status: &str) -> Json {
    let nodes = facts
        .iter()
        .map(|n| {
            Json::obj([
                ("atoms", Json::int(n.atoms as u64)),
                ("core_atoms", Json::int(n.core_atoms as u64)),
                (
                    "treewidth",
                    n.treewidth.map_or(Json::Null, |tw| Json::int(tw as u64)),
                ),
                ("acyclic", Json::Bool(n.acyclic)),
            ])
        })
        .collect();
    Json::obj([
        ("cache", Json::str(cache_status)),
        ("nodes", Json::Arr(nodes)),
        ("plan", exec_plan_json(plan)),
        ("stats", plan.stats.to_json()),
    ])
}

/// The in-flight build of one canonical key. `OnceLock::get_or_init`
/// gives exactly the coalescing the cache needs: the first arrival runs
/// the build, identical concurrent requests block on the slot (and only
/// on the slot — no global lock), and everyone shares the result.
type Slot = OnceLock<Result<Arc<Plan>, Cancelled>>;

struct CacheInner {
    map: HashMap<String, Arc<Plan>>,
    /// FIFO eviction order (insertion order of keys).
    order: VecDeque<String>,
    /// In-flight builds by canonical key.
    building: HashMap<String, Arc<Slot>>,
}

/// A bounded, thread-shared map from canonical key to [`Plan`], with
/// FIFO eviction and hit/miss/coalesced counters in the `wdpt-obs` registry.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl PlanCache {
    /// `capacity` bounds the number of retained plans.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                order: VecDeque::new(),
                building: HashMap::new(),
            }),
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// True iff no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Runtime stats of every cached plan as a JSON array (insertion
    /// order), each entry carrying its canonical key and
    /// [`PlanStats::to_json`]. The cache lock is held only to clone the
    /// `Arc`s; the stats reads are lock-free.
    pub fn stats_json(&self) -> Json {
        let plans: Vec<(String, Arc<Plan>)> = {
            let inner = self.inner.lock().expect("cache lock");
            inner
                .order
                .iter()
                .filter_map(|k| inner.map.get(k).map(|p| (k.clone(), Arc::clone(p))))
                .collect()
        };
        Json::Arr(
            plans
                .into_iter()
                .map(|(key, plan)| {
                    let mut obj = match plan.stats.to_json() {
                        Json::Obj(m) => m,
                        _ => unreachable!("PlanStats::to_json returns an object"),
                    };
                    obj.insert("key".to_string(), Json::str(key));
                    obj.insert(
                        "nodes".to_string(),
                        Json::int(plan.wdpt.node_count() as u64),
                    );
                    obj.insert(
                        "est_nodes".to_string(),
                        Json::num(plan.exec_plan().est_nodes()),
                    );
                    Json::Obj(obj)
                })
                .collect(),
        )
    }

    /// The plan cached under `key`, if any, counted as a hit.
    pub fn get(&self, key: &str) -> Option<Arc<Plan>> {
        let plan = Arc::clone(self.inner.lock().expect("cache lock").map.get(key)?);
        counter!("serve.plan_cache.hit").add(1);
        Some(plan)
    }

    /// Looks up the canonical key, building (and inserting) the plan from
    /// `wdpt`, the query's tree, on a miss. Returns the plan and `"hit"` or
    /// `"miss"` for the response's cache field. A plan found here may be
    /// costed under another statistics epoch: the caller re-costs it
    /// ([`refresh_if_stale`]) before use.
    ///
    /// Locking discipline: the global cache mutex is held only for map
    /// lookups and insertions — never across a build. A miss claims a
    /// per-key in-flight [`Slot`]; the build then runs with no lock held
    /// and no interner in reach, so a slow-to-plan query blocks *only*
    /// concurrent identical requests, which coalesce onto the same slot
    /// instead of duplicating the work. A build aborted by its request's
    /// deadline is never inserted; its waiters retry under their own
    /// tokens.
    pub fn get_or_build(
        &self,
        canon: &CanonicalQuery,
        wdpt: Wdpt,
        stats: &StatsCatalog,
        token: &CancelToken,
    ) -> Result<(Arc<Plan>, &'static str), Cancelled> {
        let key = &canon.key;
        let mut wdpt = Some(wdpt);
        loop {
            let (slot, claimed) = {
                let mut inner = self.inner.lock().expect("cache lock");
                if let Some(plan) = inner.map.get(key) {
                    counter!("serve.plan_cache.hit").add(1);
                    return Ok((Arc::clone(plan), "hit"));
                }
                match inner.building.get(key) {
                    Some(slot) => (Arc::clone(slot), false),
                    None => {
                        let slot: Arc<Slot> = Arc::new(OnceLock::new());
                        inner.building.insert(key.clone(), Arc::clone(&slot));
                        (slot, true)
                    }
                }
            };
            if claimed {
                counter!("serve.plan_cache.miss").add(1);
            } else {
                counter!("serve.plan_cache.coalesced").add(1);
            }
            // Build — or block on the identical request already building —
            // with no global lock held.
            // A build polls its own request's token, so one that took this
            // tree and was cancelled ends this request: no retry needs it.
            let build = || {
                let tree = wdpt.take().expect("a cancelled build never retries");
                build_plan(canon, tree, stats, token).map(Arc::new)
            };
            let result = slot.get_or_init(build).clone();
            // Whoever gets here first publishes the result and retires the
            // slot (the pointer check keeps a stale slot from clobbering a
            // retry's fresh one).
            {
                let mut inner = self.inner.lock().expect("cache lock");
                let current = inner
                    .building
                    .get(key)
                    .is_some_and(|s| Arc::ptr_eq(s, &slot));
                if current {
                    inner.building.remove(key);
                    if let Ok(plan) = &result {
                        inner.map.insert(key.clone(), Arc::clone(plan));
                        inner.order.push_back(key.clone());
                        while inner.map.len() > self.capacity {
                            if let Some(old) = inner.order.pop_front() {
                                inner.map.remove(&old);
                                counter!("serve.plan_cache.evicted").add(1);
                            }
                        }
                    }
                }
            }
            match result {
                Ok(plan) => return Ok((plan, if claimed { "miss" } else { "hit" })),
                Err(Cancelled) => {
                    // The build ran under *some* request's deadline, not
                    // necessarily ours. If our token is still live, retry
                    // on a fresh slot; otherwise surface our own expiry.
                    token.check()?;
                }
            }
        }
    }
}
