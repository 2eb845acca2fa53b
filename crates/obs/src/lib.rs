//! # wdpt-obs — tracing, metrics, and per-query evaluation profiles
//!
//! A std-only (zero-dependency, offline-buildable) observability layer for
//! the WDPT evaluation stack. The paper's claims are *where-does-the-time-go*
//! claims — tractability hinges on which phase dominates (decomposition
//! search, bag materialization, semijoin passes, per-node homomorphism
//! enumeration) — so every perf change should be able to show *which* phase
//! it moved, not just a wall-clock delta. Three pieces:
//!
//! * [`span`] — hierarchical scoped timers ([`span!`] guards) with
//!   thread-local span stacks. Aggregation is per-site into process-wide
//!   relaxed atomics, so the worker threads of the WDPT executor
//!   contribute to the same aggregates and a snapshot taken around joined
//!   work is exact. Tracing is off unless a tracing scope is open
//!   ([`with_tracing`], a live [`ProfileRecorder`]) — the flag counts open
//!   scopes, so overlapping ones on different threads compose; a disabled
//!   [`span!`] costs one relaxed atomic load (measured < 2% on the retired
//!   `wdpt_eval` bench, see `EXPERIMENTS.md`).
//! * [`metrics`] — a registry of named counters ([`counter!`]) and
//!   log₂-bucketed histograms ([`histogram!`]). The engine's work counters
//!   are written here once per entry point, from the tally the work was
//!   counted in (`wdpt_model::stats::record`).
//! * [`profile`] — [`QueryProfile`], a per-query report attached to
//!   WDPT/CQ evaluation results: per-tree-node homomorphism counts, work
//!   counters, and — when a [`ProfileRecorder`] bracketed the run, which is
//!   exact only while nothing else runs in the process — time per phase and
//!   histograms. Serializable to JSON via the in-tree [`json`] writer.
//!
//! Two serving-oriented pieces sit on top: [`expo`] renders a metrics
//! snapshot as Prometheus-style text exposition or JSON (with derived
//! p50/p90/p99), and [`trace`] provides [`RequestTrace`], the stage-timed
//! per-request trace that feeds the `serve.request.*` histograms.

pub mod expo;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod span;
pub mod trace;

pub use expo::{render_prometheus, sanitize_name, snapshot_from_json, snapshot_to_json};
pub use json::{read_json_line, write_json_line, Json};
pub use metrics::{
    delta_scope, metrics_snapshot, Counter, CounterDelta, Gauge, HistogramDelta, HistogramSnapshot,
    LocalHistogram, MetricsSnapshot, RawHistogram,
};
pub use profile::{NodeEntry, PhaseEntry, ProfileRecorder, QueryProfile};
pub use span::{span_snapshot, tracing_enabled, with_tracing, SpanGuard, SpanSnapshot};
pub use trace::{GaugeGuard, RequestTrace, Stage};
