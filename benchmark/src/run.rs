//! Running one workload: set-up, warm-up, measured rounds, metrics.
//!
//! Run discipline (this is what keeps the numbers steady on a small shared
//! box): closed loop, one client, one request in flight; server and client
//! pinned to different cores; one discarded warm-up round, then rounds of a
//! *fixed op count* until `--seconds` have passed (at least
//! [`MIN_ROUNDS`]); latency is the median of all per-op latencies pooled
//! over the rounds, throughput the median over rounds of `ops / wall`.
//!
//! End-to-end metrics come from an untraced run. A separate traced run
//! (`--trace 1`) alternates untraced and traced rounds — their difference
//! is the tracing overhead — and then probes each layer's public functions
//! under spans.

use crate::alloc;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::pin::Cores;
use crate::probes;
use crate::procfs;
use crate::speed::{Reference, Speed, NOMINAL_S};
use crate::stats::{median, median_throughput, percentile, Round};
use crate::trace::Tracer;
use crate::workloads::{setup, Bench, Env, Sizes, MAX_ROUNDS, MIN_ROUNDS, SHORT_ROUNDS};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use wdpt_obs::{metrics_snapshot, MetricsSnapshot};

const MIB: f64 = (1 << 20) as f64;

/// How many times an untraced run sets the workload up; `setup_s` is the
/// median, so one cold first set-up cannot move it.
const SETUPS: usize = 3;

pub struct RunOptions<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    pub cores: Option<Cores>,
    pub dir: &'a Path,
}

/// The outcome of one run.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub rounds: usize,
    pub ops_per_round: usize,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Latency samples behind `op_p50_ms` / the `client.*` percentiles.
    pub samples: usize,
    /// Every metric of the run's kind, in table order: `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Informational lines for the report (tails on untraced runs).
    pub notes: Vec<String>,
}

/// Latencies, round timings and failures of a sequence of rounds.
#[derive(Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    first_line_ms: Vec<f64>,
    rounds: Vec<Round>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Phase {
    /// Runs one round of `ops` ops starting at op number `*next_k`. With a
    /// `speed`, the round's times are brought to the reference speed by the
    /// kernel readings on either side of it.
    fn round(
        &mut self,
        bench: &mut Bench,
        ops: usize,
        next_k: &mut usize,
        tracer: &mut Tracer,
        speed: Option<&mut Speed<'_>>,
    ) {
        let first = self.latencies_ms.len();
        let start = Instant::now();
        for _ in 0..ops {
            let outcome = bench.op(*next_k, tracer);
            *next_k += 1;
            self.attempted += 1;
            match outcome.error {
                // A failed op has no latency worth pooling.
                Some(e) => {
                    self.failed += 1;
                    self.first_error.get_or_insert(e);
                }
                None => {
                    self.latencies_ms.push(outcome.latency_ns as f64 / 1e6);
                    if outcome.first_line_ns > 0 {
                        self.first_line_ms.push(outcome.first_line_ns as f64 / 1e6);
                    }
                }
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        let factor = speed.map_or(1.0, Speed::interval_factor);
        for latency in &mut self.latencies_ms[first..] {
            *latency *= factor;
        }
        self.rounds.push(Round {
            ops,
            wall_s: wall_s * factor,
        });
    }

    /// Adds another phase's failure tally (warm-up rounds count too: a
    /// wrong answer is wrong whenever it is given).
    fn absorb_failures(&mut self, other: &Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error.clone_from(&other.first_error);
        }
    }

    fn sorted_latencies(&self) -> Vec<f64> {
        let mut v = self.latencies_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }
}

pub fn run(opts: &RunOptions<'_>) -> Result<RunResult, String> {
    let sizes = if opts.quick {
        Sizes::QUICK
    } else {
        Sizes::FULL
    };
    let env = Env {
        workload: opts.workload,
        seed: opts.seed,
        sizes,
        cores: opts.cores,
        dir: opts.dir,
    };
    alloc::reset_peak();
    if opts.traced {
        run_traced(opts, &env)
    } else {
        run_untraced(opts, &env)
    }
}

/// Sets up and runs the discarded warm-up round; returns the bench, the
/// warm-up's tally, the next op number and the seconds it all took.
fn setup_and_warm(
    env: &Env<'_>,
    tracer: &mut Tracer,
) -> Result<(Bench, Phase, usize, f64), String> {
    let start = Instant::now();
    let mut bench = tracer.span("setup", |t| setup(env, t))?;
    let mut warm = Phase::default();
    let mut next_k = 0;
    let ops = env.sizes.ops_per_round(env.workload);
    tracer.span("warmup", |t| {
        warm.round(&mut bench, ops, &mut next_k, t, None)
    });
    Ok((bench, warm, next_k, start.elapsed().as_secs_f64()))
}

/// The core whose speed an op's time depends on: the server's for a query
/// (evaluation happens there), the caller's (`None`) for a reload or a
/// library call.
fn work_core(bench: &Bench, cores: Option<Cores>) -> Option<usize> {
    match bench {
        Bench::Served(served) if served.reload.is_none() => cores.map(|c| c.server),
        _ => None,
    }
}

fn run_untraced(opts: &RunOptions<'_>, env: &Env<'_>) -> Result<RunResult, String> {
    let mut tracer = Tracer::new(false);
    let ops = env.sizes.ops_per_round(opts.workload);
    let reference = Reference::new();
    let mut phase = Phase::default();
    let mut setup_s = Vec::new();
    let mut ready: Option<(Bench, usize)> = None;
    let setups = if opts.quick { 1 } else { SETUPS };
    for _ in 0..setups {
        if let Some((bench, _)) = ready.take() {
            bench.shutdown()?;
        }
        let (bench, warm, next_k, seconds) = setup_and_warm(env, &mut tracer)?;
        phase.absorb_failures(&warm);
        // Set-up is file and allocator work on several threads as much as
        // it is computing; one core's speed does not describe it, and
        // scaling by it made `setup_s` less steady, not more. It stays raw.
        setup_s.push(seconds);
        ready = Some((bench, next_k));
    }
    let (mut bench, mut next_k) = ready.expect("at least one set-up ran");

    let mut speed = Speed::new(&reference, work_core(&bench, opts.cores));
    let start = Instant::now();
    let (min_rounds, max_rounds) = if opts.quick {
        (SHORT_ROUNDS, SHORT_ROUNDS)
    } else {
        (MIN_ROUNDS, MAX_ROUNDS)
    };
    while phase.rounds.len() < min_rounds
        || (phase.rounds.len() < max_rounds && start.elapsed().as_secs_f64() < opts.seconds)
    {
        phase.round(&mut bench, ops, &mut next_k, &mut tracer, Some(&mut speed));
    }
    let peak_heap = alloc::peak_bytes();
    let stored = bench.stored_bytes() as f64 / bench.input_triples() as f64;
    let mut notes = Vec::new();
    if let Bench::Served(served) = &bench {
        notes.push(served.oracle_note());
    }
    bench.shutdown()?;

    let sorted = phase.sorted_latencies();
    let value = |name: &str| match name {
        "setup_s" => median(&mut setup_s.clone()),
        "op_p50_ms" => percentile(&sorted, 0.5),
        "throughput_ops_s" => median_throughput(&phase.rounds),
        "peak_heap_mib" => peak_heap as f64 / MIB,
        "stored_bytes_per_triple" => stored,
        other => unreachable!("no end-to-end metric called {other}"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect();
    let kernel_s = median(&mut speed.readings.clone());
    notes.push(format!(
        "speed: reference kernel {:.4} ms (nominal {:.4} ms), so raw op_p50 was {:.6} ms",
        kernel_s * 1e3,
        NOMINAL_S * 1e3,
        percentile(&sorted, 0.5) * kernel_s / NOMINAL_S,
    ));
    notes.push(format!(
        "tails (ungated): p90 {:.4} ms  p99 {:.4} ms  max {:.4} ms",
        percentile(&sorted, 0.9),
        percentile(&sorted, 0.99),
        sorted.last().copied().unwrap_or(0.0),
    ));
    Ok(RunResult {
        workload: opts.workload.to_string(),
        seed: opts.seed,
        traced: false,
        rounds: phase.rounds.len(),
        ops_per_round: ops,
        attempted: phase.attempted,
        failed: phase.failed,
        first_error: phase.first_error,
        samples: sorted.len(),
        metrics,
        notes,
    })
}

/// Process-wide readings taken at the edges of the traced rounds.
struct Reading {
    metrics: MetricsSnapshot,
    cpu_s: f64,
    heap_bytes: u64,
    heap_allocs: u64,
}

impl Reading {
    fn take() -> Reading {
        let (heap_bytes, heap_allocs) = alloc::totals();
        Reading {
            metrics: metrics_snapshot(),
            cpu_s: procfs::cpu_seconds(),
            heap_bytes,
            heap_allocs,
        }
    }
}

fn run_traced(opts: &RunOptions<'_>, env: &Env<'_>) -> Result<RunResult, String> {
    let mut tracer = Tracer::new(true);
    let ops = env.sizes.ops_per_round(opts.workload);
    let (mut bench, warm, mut next_k, _) = setup_and_warm(env, &mut tracer)?;

    // Alternate untraced and traced rounds; counters are read around the
    // traced ones only, so the per-op counts cover a fixed number of ops.
    // The layer timings are raw; the kernel's time on the work core goes out
    // beside them as `process.ref_kernel_ms`.
    let reference = Reference::new();
    let mut speed = Speed::new(&reference, work_core(&bench, opts.cores));
    let mut untraced = Phase::default();
    let mut traced = Phase::default();
    let mut deltas: Vec<(Reading, Reading)> = Vec::new();
    for _ in 0..SHORT_ROUNDS {
        tracer.set_enabled(false);
        untraced.round(&mut bench, ops, &mut next_k, &mut tracer, None);
        tracer.set_enabled(true);
        let before = Reading::take();
        traced.round(&mut bench, ops, &mut next_k, &mut tracer, None);
        deltas.push((before, Reading::take()));
        speed.interval_factor();
    }

    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let traced_ops = (traced.attempted - traced.failed).max(1) as f64;

    // client.*
    let sorted = traced.sorted_latencies();
    out.insert("client.op_p90_ms", percentile(&sorted, 0.9));
    out.insert("client.op_p99_ms", percentile(&sorted, 0.99));
    out.insert("client.op_max_ms", sorted.last().copied().unwrap_or(0.0));
    out.insert(
        "client.first_row_ms",
        median(&mut traced.first_line_ms.clone()),
    );
    let p50_traced = percentile(&sorted, 0.5);
    let p50_untraced = percentile(&untraced.sorted_latencies(), 0.5);
    if p50_untraced > 0.0 {
        out.insert(
            "client.trace_overhead_share",
            (p50_traced - p50_untraced) / p50_untraced,
        );
    }

    // Counter and histogram deltas summed over the traced rounds.
    let counter = |name: &str| -> f64 {
        deltas
            .iter()
            .map(|(a, b)| {
                b.metrics
                    .counter(name)
                    .saturating_sub(a.metrics.counter(name))
            })
            .sum::<u64>() as f64
    };
    let histogram_sum = |name: &str| -> f64 {
        deltas
            .iter()
            .map(|(a, b)| {
                let sum = |m: &MetricsSnapshot| m.histogram(name).map_or(0, |h| h.sum);
                sum(&b.metrics).saturating_sub(sum(&a.metrics))
            })
            .sum::<u64>() as f64
    };
    let total = |f: fn(&Reading) -> f64| -> f64 { deltas.iter().map(|(a, b)| f(b) - f(a)).sum() };

    out.insert(
        "process.cpu_ms_per_op",
        total(|r| r.cpu_s) * 1e3 / traced_ops,
    );
    out.insert(
        "process.peak_rss_mib",
        procfs::peak_rss_bytes() as f64 / MIB,
    );
    out.insert(
        "process.ref_kernel_ms",
        median(&mut speed.readings.clone()) * 1e3,
    );
    out.insert(
        "process.heap_bytes_per_op",
        total(|r| r.heap_bytes as f64) / traced_ops,
    );
    out.insert(
        "process.heap_allocs_per_op",
        total(|r| r.heap_allocs as f64) / traced_ops,
    );

    let mut stage_sum_us = 0.0;
    for (histogram, metric) in [
        ("serve.request.read_us", "serve.stage_read_us"),
        ("serve.request.admission_us", "serve.stage_admission_us"),
        ("serve.request.plan_us", "serve.stage_plan_us"),
        ("serve.request.queue_us", "serve.stage_queue_us"),
        ("serve.request.eval_us", "serve.stage_eval_us"),
        ("serve.request.respond_us", "serve.stage_respond_us"),
    ] {
        let per_op = histogram_sum(histogram) / traced_ops;
        stage_sum_us += per_op;
        out.insert(metric, per_op);
    }
    let hits = counter("serve.plan_cache.hit");
    let misses = counter("serve.plan_cache.miss");
    if hits + misses > 0.0 {
        out.insert("serve.plan_cache_hit_ratio", hits / (hits + misses));
    }
    out.insert(
        "serve.plan_cache_evictions",
        counter("serve.plan_cache.evicted"),
    );
    out.insert(
        "serve.replans_per_kop",
        counter("serve.plan.replans") * 1e3 / traced_ops,
    );
    out.insert(
        "model.index_probes_per_op",
        counter("db.index_probes") / traced_ops,
    );
    out.insert(
        "model.tuples_scanned_per_op",
        counter("db.tuples_scanned") / traced_ops,
    );
    out.insert(
        "model.index_builds_per_op",
        counter("db.index_builds") / traced_ops,
    );
    let nodes = counter("cq.nodes_expanded");
    out.insert("cq.nodes_expanded_per_op", nodes / traced_ops);
    out.insert(
        "decomp.tw_search_nodes_per_op",
        counter("decomp.tw_search_nodes") / traced_ops,
    );

    // An op's self time is what it spent outside every span it opened (the
    // two reload halves, the six suite members); its wire request is a span
    // too, but the server's stage timers account for that one's inside. What
    // is left is the residual: socket, queue hand-off, client-side reading
    // and checking.
    let own = tracer.self_times_ns();
    let (mut op_ns, mut unattributed_ns) = (0.0, 0.0);
    let mut ops_seen = 0;
    for (index, span) in tracer.spans().iter().enumerate().rev() {
        match span.name {
            "op" => {
                ops_seen += 1;
                op_ns += (span.end_ns - span.start_ns) as f64;
                unattributed_ns += own[index] as f64;
                // The warm-up's ops were traced too; stop at the first op of
                // the traced rounds.
                if ops_seen == traced.attempted {
                    break;
                }
            }
            "wire.request" => unattributed_ns += (span.end_ns - span.start_ns) as f64,
            _ => {}
        }
    }
    if op_ns > 0.0 {
        out.insert(
            "client.residual_share",
            (unattributed_ns - stage_sum_us * 1e3 * traced_ops) / op_ns,
        );
    }

    // Layer probes: direct calls into each crate's public functions.
    let mut notes = Vec::new();
    if let Bench::Served(served) = &mut bench {
        notes.push(served.oracle_note());
        // Rows examined per result on the wire op.
        let answers = served.requests[0].expected.answers as f64;
        out.insert("cq.nodes_per_answer", nodes / traced_ops / answers);
        probes::served_layers(served, env, &mut tracer, &mut out)?;
    }
    let ingest_s = tracer.median_ns("store.ingest") / 1e9;
    if ingest_s > 0.0 {
        out.insert(
            "store.ingest_triples_per_s",
            bench.input_triples() as f64 / ingest_s,
        );
    }
    bench.shutdown()?;

    // Every other timing metric is the median of the spans that carry its
    // name without the unit: `sparql.parse_us` of the `sparql.parse` spans.
    for (name, unit, _) in PER_LAYER {
        let scale = if unit == "ms" { 1e6 } else { 1e3 };
        let span = name.strip_suffix("_ms").or(name.strip_suffix("_us"));
        if let Some(ns) = span.map(|s| tracer.median_ns(s)).filter(|ns| *ns > 0.0) {
            out.entry(name).or_insert(ns / scale);
        }
    }

    notes.push(format!(
        "traced p50 {p50_traced:.4} ms vs untraced p50 {p50_untraced:.4} ms over {SHORT_ROUNDS} rounds each; {} spans recorded",
        tracer.spans().len()
    ));
    let mut phase = traced;
    phase.absorb_failures(&untraced);
    phase.absorb_failures(&warm);
    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit, _)| (*name, out.get(name).copied().unwrap_or(0.0), *unit))
        .collect();
    Ok(RunResult {
        workload: opts.workload.to_string(),
        seed: opts.seed,
        traced: true,
        rounds: phase.rounds.len(),
        ops_per_round: ops,
        attempted: phase.attempted,
        failed: phase.failed,
        first_error: phase.first_error,
        samples: sorted.len(),
        metrics,
        notes,
    })
}
