//! # wdpt-obs — metrics, request traces and per-query evaluation profiles
//!
//! A std-only (zero-dependency, offline-buildable) observability layer for
//! the WDPT evaluation stack. The paper's claims are about how much work
//! each tree node does — local homomorphisms per node, the searches behind
//! them — and that work is counted by whoever does it, in a tally it owns
//! (`wdpt_model::ProbeTally`, `wdpt_core::EvalTally`). This crate holds
//! what those tallies are published and rendered through:
//!
//! * [`metrics`] — a registry of named counters ([`counter!`]), gauges
//!   ([`gauge!`]) and log₂-bucketed histograms ([`histogram!`]). The
//!   engine's work counters are written here once per entry point, from
//!   the tally the work was counted in (`wdpt_model::stats::record`).
//! * [`profile`] — [`QueryProfile`], one evaluation's own report: per
//!   tree-node homomorphism counts and the run's work counters, built from
//!   its tally (`wdpt_core::EvalTally::profile`) and nothing process-wide,
//!   so it is exact whatever else runs. Serializable to JSON via the
//!   in-tree [`json`] writer.
//!
//! Two serving-oriented pieces sit on top: [`expo`] renders a metrics
//! snapshot as Prometheus-style text exposition or JSON (with derived
//! p50/p90/p99), and [`trace`] provides [`RequestTrace`], the stage-timed
//! per-request trace that feeds the `serve.request.*` histograms.

pub mod expo;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use expo::{render_prometheus, sanitize_name, snapshot_from_json, snapshot_to_json};
pub use json::{read_json_line, write_json_line, Json};
pub use metrics::{
    delta_scope, metrics_snapshot, Counter, CounterDelta, Gauge, HistogramDelta, HistogramSnapshot,
    MetricsSnapshot, RawHistogram,
};
pub use profile::{NodeEntry, QueryProfile};
pub use trace::{GaugeGuard, RequestTrace, Stage};
