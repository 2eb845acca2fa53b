//! Layer probes of the traced run: the benchmark calls each crate's public
//! functions directly, under its own spans, on the workload's own query and
//! data. They run after the wire rounds, so whatever they do to the plan
//! cache cannot reach the latency and counter readings. A span called
//! `sparql.parse` becomes the metric `sparql.parse_us` (see `run.rs`); only
//! metrics that are not a span's median are written to `out` here.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::wire::{Client, Server};
use crate::workloads::{serve_config, Env, Served, DB_NAME, SHORT_ROUNDS};
use std::collections::BTreeMap;
use std::time::Instant;
use wdpt_core::{plan_wdpt, try_evaluate_parallel_planned};
use wdpt_cq::{try_core_of, try_in_hw, try_treewidth_of};
use wdpt_model::{stats as engine_stats, CancelToken, Mapping};
use wdpt_plan::{StatsCatalog, Strategy};
use wdpt_serve::protocol::{ok_line, row_line};
use wdpt_serve::{canonicalize, ServeConfig, ServeState};
use wdpt_sparql::parse_query;
use wdpt_store::{decode_with_deltas, load_snapshot};

/// Repetitions of a microsecond-scale probe; the metric is their median.
const FAST_REPS: usize = 31;
/// Repetitions of a millisecond-scale probe.
const SLOW_REPS: usize = 5;

type Out = BTreeMap<&'static str, f64>;

/// Probes every layer a served workload goes through.
pub fn served_layers(
    served: &mut Served,
    env: &Env<'_>,
    tracer: &mut Tracer,
    out: &mut Out,
) -> Result<(), String> {
    let never = CancelToken::never();
    let state = served.server.state.clone();
    let query = served.requests[0].query.clone();
    let (db, catalog) = state
        .db_with_stats(DB_NAME)
        .ok_or("the benchmark database is gone")?;

    // Front half, in the benchmark's own interner space.
    let scratch = &mut served.scratch;
    let mut tree = None;
    for _ in 0..FAST_REPS {
        let parsed = tracer
            .span("sparql.parse", |_| parse_query(scratch, &query))
            .map_err(|e| e.to_string())?;
        let canon = tracer.span("serve.canonicalize", |_| canonicalize(&parsed, scratch));
        let wdpt = tracer
            .span("sparql.to_wdpt", |_| canon.canon.to_wdpt(scratch))
            .map_err(|e| e.to_string())?;
        tracer
            .span("serve.plan_hit", |_| state.plan_for(&query))
            .map_err(|e| format!("plan_for: {e}"))?;
        tree = Some(wdpt);
    }
    let tree = tree.expect("FAST_REPS > 0");

    // The plan-build path, piece by piece: what `PlanCache::get_or_build`
    // does on a miss is clone the interner, then core, widths and join
    // order per tree node.
    for _ in 0..SLOW_REPS {
        let mut clone = tracer.span("model.interner_clone", |_| scratch.clone());
        for _ in 0..FAST_REPS / SLOW_REPS {
            let cores = tracer.span("cq.core_of", |_| {
                (0..tree.node_count())
                    .map(|t| try_core_of(&tree.node_cq(t), &mut clone, never))
                    .collect::<Result<Vec<_>, _>>()
            });
            let cores = cores.map_err(|_| "core computation cancelled")?;
            tracer.span("decomp.widths", |_| {
                for core in &cores {
                    let _ = std::hint::black_box(try_treewidth_of(core, never));
                    let _ = std::hint::black_box(try_in_hw(core, 1, never));
                }
            });
            tracer
                .span("plan.order", |_| {
                    plan_wdpt(&tree, &catalog, Strategy::Auto, never)
                })
                .map_err(|_| "planning cancelled")?;
        }
    }

    // The whole miss path through the server's own entry point, on keys the
    // cache has never seen.
    for fresh in &served.fresh_queries {
        tracer
            .span("serve.plan_miss", |_| state.plan_for(fresh))
            .map_err(|e| format!("plan_for({fresh:?}): {e}"))?;
    }

    // Evaluation in-process, one thread, with the server's cached plan (its
    // tree lives in the server's interner space, as the database does).
    let (plan, _) = state
        .plan_for(&query)
        .map_err(|e| format!("plan_for: {e}"))?;
    let exec = plan.exec_plan();
    let mut answers: Vec<Mapping> = Vec::new();
    let before = engine_stats::snapshot();
    for _ in 0..SLOW_REPS {
        answers = tracer
            .span("core.eval", |_| {
                try_evaluate_parallel_planned(&plan.wdpt, &db, 1, never, Some(&exec))
            })
            .map_err(|_| "evaluation cancelled")?;
    }
    let observed = engine_stats::snapshot().since(&before).nodes_expanded as f64 / SLOW_REPS as f64;
    if observed > 0.0 {
        out.insert("plan.est_over_obs_nodes", exec.est_nodes() / observed);
    }

    // Encoding what one response carries: up to `max_rows` row lines and
    // the terminal line. Constant names come from the scratch interner,
    // whose ids match the served data only while nothing was reloaded.
    if served.reload.is_none() {
        let vars: Vec<_> = plan
            .canon_vars
            .iter()
            .enumerate()
            .map(|(k, v)| (*v, format!("v{k}")))
            .collect();
        let mut sink = Vec::new();
        for _ in 0..SLOW_REPS {
            sink.clear();
            tracer
                .span("serve.encode_rows", |_| -> std::io::Result<()> {
                    for m in answers.iter().take(served.max_rows) {
                        let bindings = vars
                            .iter()
                            .filter_map(|(v, name)| {
                                m.get(*v)
                                    .map(|c| (name.clone(), scratch.const_name(c).to_string()))
                            })
                            .collect();
                        wdpt_obs::write_json_line(&mut sink, &row_line(None, bindings))?;
                    }
                    let rows = answers.len().min(served.max_rows);
                    let ok = ok_line(None, answers.len(), rows, "hit", 0, None, None);
                    wdpt_obs::write_json_line(&mut sink, &ok)
                })
                .map_err(|e| format!("encode rows: {e}"))?;
        }
        std::hint::black_box(&sink);
    }

    store_probes(served, tracer, out)?;
    if env.workload == "point-hit" {
        let share = telemetry_overhead(served, env)?;
        out.insert("serve.telemetry_overhead_share", share);
    }
    Ok(())
}

/// Store-side probes on a second, throwaway load of the snapshot, so the
/// served database keeps whatever laziness it had.
fn store_probes(served: &Served, tracer: &mut Tracer, out: &mut Out) -> Result<(), String> {
    let (_, db) = load_snapshot(&served.snapshot).map_err(|e| format!("load snapshot: {e}"))?;
    tracer.span("store.force_decode", |_| {
        for (_, rel) in db.relations() {
            std::hint::black_box(rel.tuples().count());
        }
    });
    tracer.span("model.index_build", |_| {
        for (_, rel) in db.relations() {
            rel.build_all_indexes();
        }
    });
    tracer.span("plan.stats_build", |_| {
        std::hint::black_box(StatsCatalog::build(&db));
    });
    drop(db);
    let snapshot_bytes = std::fs::metadata(&served.snapshot)
        .map_err(|e| format!("stat snapshot: {e}"))?
        .len();
    let delta_triples = served.reload.as_ref().map_or(0, |f| f.delta_triples);
    out.insert(
        "store.snapshot_bytes_per_triple",
        snapshot_bytes as f64 / (served.input_triples - delta_triples) as f64,
    );

    if let Some(files) = &served.reload {
        let read =
            |p: &std::path::Path| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()));
        let base = read(&files.base)?;
        let delta = read(&files.deltas[0])?;
        let deltas = [delta];
        for _ in 0..SLOW_REPS {
            tracer
                .span("store.decode_with_deltas", |_| {
                    decode_with_deltas(&base, &deltas).map(drop)
                })
                .map_err(|e| format!("decode with deltas: {e}"))?;
        }
        let [delta] = deltas;
        out.insert(
            "store.delta_bytes_per_triple",
            files.delta_bytes as f64 / files.delta_triples as f64,
        );
        // What the replication stream would send for this delta: the frame
        // carries the payload as hex inside JSON.
        let frame = wdpt_repl::frames::delta_frame(1, 0, &delta).to_string();
        out.insert(
            "repl.frame_bytes_per_delta_byte",
            frame.len() as f64 / delta.len() as f64,
        );
    }
    Ok(())
}

/// One more server over the same snapshot with `telemetry: false`, driven
/// in rounds alternating with the telemetry-on server: the share of the
/// cache-hit op's median latency that request telemetry costs.
fn telemetry_overhead(served: &mut Served, env: &Env<'_>) -> Result<f64, String> {
    let (interner, db) =
        load_snapshot(&served.snapshot).map_err(|e| format!("load snapshot: {e}"))?;
    let state = ServeState::new(
        ServeConfig {
            telemetry: false,
            ..serve_config()
        },
        interner,
        BTreeMap::from([(DB_NAME.to_string(), db)]),
        DB_NAME,
    );
    let server = Server::start(state, env.cores.map(|c| c.server))
        .map_err(|e| format!("start server: {e}"))?;
    let mut quiet = Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let ops = env.sizes.ops_per_round("point-hit");
    let round = |client: &mut Client| -> Result<Vec<f64>, String> {
        let mut latencies = Vec::with_capacity(ops);
        for k in 0..ops {
            let request = &served.requests[k % served.requests.len()];
            let start = Instant::now();
            let mut reply = client
                .request(&request.line)
                .map_err(|e| format!("wire: {e}"))?;
            latencies.push(start.elapsed().as_nanos() as f64 / 1e6);
            request
                .expected
                .check(reply.answers, &mut reply.rows, served.max_rows)?;
        }
        Ok(latencies)
    };
    round(&mut quiet)?; // warm-up
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..SHORT_ROUNDS {
        off.extend(round(&mut quiet)?);
        on.extend(round(&mut served.client)?);
    }
    drop(quiet);
    server.stop().map_err(|e| format!("server: {e}"))?;
    let p50_on = median(&mut on);
    off.sort_by(f64::total_cmp);
    let p50_off = percentile(&off, 0.5);
    Ok((p50_on - p50_off) / p50_on)
}
