//! Per-query evaluation profiles.
//!
//! A [`QueryProfile`] is the observability artifact attached to a WDPT/CQ
//! evaluation result: time per phase (from span deltas), event counters and
//! histograms (from metrics deltas) and per-tree-node homomorphism tallies.
//! It renders as an indented plain-text `EXPLAIN ANALYZE`
//! ([`QueryProfile::render`]) and serializes to JSON
//! ([`QueryProfile::to_json`]).
//!
//! The [`ProfileRecorder`] brackets a query: `start` snapshots the span and
//! metric registries and opens a tracing scope; `finish` closes the scope
//! and diffs the snapshots. Because the underlying aggregates are
//! process-wide, deltas are exact only when nothing else runs concurrently —
//! fine for the CLI binaries, benches and the one request that asks for a
//! profile this is built for. An evaluation's *own* counts need no recorder:
//! the executor hands them back (`wdpt_core::EvalTally`), and a profile
//! holding only those is built without one.

use crate::json::Json;
use crate::metrics::{metrics_snapshot, HistogramSnapshot, MetricsSnapshot};
use crate::span::{span_snapshot, SpanSnapshot, TracingScope};
use std::time::Instant;

/// One instrumented phase: the delta of one span site over the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseEntry {
    /// Dotted span name, e.g. `"cq.structured.semijoin"`.
    pub name: String,
    pub calls: u64,
    /// Wall time inside the phase, nested phases included.
    pub total_ns: u64,
    /// Wall time exclusive of nested phases.
    pub self_ns: u64,
}

/// Per-tree-node data for one WDPT node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeEntry {
    /// Preorder id of the node in the pattern tree.
    pub id: usize,
    /// Parent's preorder id; `None` for the root.
    pub parent: Option<usize>,
    /// Depth below the root (root = 0). Drives render indentation.
    pub depth: usize,
    /// Short description of the node, e.g. its atoms or exported variables.
    pub label: String,
    /// Named tallies, e.g. `("homomorphisms", 12)`.
    pub metrics: Vec<(&'static str, u64)>,
}

/// A per-query evaluation report.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// What was evaluated, e.g. `"p(D) over figure1"`.
    pub label: String,
    /// End-to-end wall time of the bracketed region.
    pub wall_ns: u64,
    /// Number of answers produced.
    pub answers: u64,
    /// Span deltas with at least one call, sorted by name.
    pub phases: Vec<PhaseEntry>,
    /// Counter deltas with nonzero value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram deltas with at least one observation, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Per-tree-node tallies in preorder (empty for CQ-only profiles).
    pub nodes: Vec<NodeEntry>,
}

/// Brackets one query evaluation; see module docs.
#[derive(Debug)]
pub struct ProfileRecorder {
    label: String,
    started: Instant,
    /// Tracing is on while the recorder lives.
    tracing: TracingScope,
    spans_before: SpanSnapshot,
    metrics_before: MetricsSnapshot,
    nodes: Vec<NodeEntry>,
}

impl ProfileRecorder {
    /// Starts recording: snapshots the registries and opens a tracing scope
    /// (closed by [`finish`](Self::finish), or by dropping the recorder).
    pub fn start(label: impl Into<String>) -> ProfileRecorder {
        let spans_before = span_snapshot();
        let metrics_before = metrics_snapshot();
        ProfileRecorder {
            label: label.into(),
            tracing: TracingScope::open(),
            started: Instant::now(),
            spans_before,
            metrics_before,
            nodes: Vec::new(),
        }
    }

    /// Attaches per-tree-node tallies (preorder).
    pub fn set_nodes(&mut self, nodes: Vec<NodeEntry>) {
        self.nodes = nodes;
    }

    /// Stops recording, closes the tracing scope, and builds the profile
    /// from the snapshot deltas.
    pub fn finish(self, answers: u64) -> QueryProfile {
        let wall_ns = self.started.elapsed().as_nanos() as u64;
        drop(self.tracing);
        let span_delta = span_snapshot().since(&self.spans_before);
        let metrics_delta = metrics_snapshot().since(&self.metrics_before);
        let phases = span_delta
            .entries
            .iter()
            .filter(|e| e.calls > 0)
            .map(|e| PhaseEntry {
                name: e.name.clone(),
                calls: e.calls,
                total_ns: e.total_ns,
                self_ns: e.self_ns(),
            })
            .collect();
        let counters = metrics_delta
            .counters
            .into_iter()
            .filter(|(_, v)| *v > 0)
            .collect();
        let histograms = metrics_delta
            .histograms
            .into_iter()
            .filter(|h| h.count > 0)
            .collect();
        QueryProfile {
            label: self.label,
            wall_ns,
            answers,
            phases,
            counters,
            histograms,
            nodes: self.nodes,
        }
    }
}

/// `1234567` ns → `"1.23ms"`; picks ns/µs/ms/s to keep 3 significant digits.
fn human_ns(ns: u64) -> String {
    let t = ns as f64;
    if t < 1e3 {
        format!("{ns}ns")
    } else if t < 1e6 {
        format!("{:.2}µs", t / 1e3)
    } else if t < 1e9 {
        format!("{:.2}ms", t / 1e6)
    } else {
        format!("{:.2}s", t / 1e9)
    }
}

impl QueryProfile {
    /// Number of dots in a span name = nesting depth for rendering.
    fn phase_depth(name: &str) -> usize {
        name.matches('.').count()
    }

    /// Renders an indented plain-text `EXPLAIN ANALYZE`-style report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {}  (wall {}, {} answers)",
            self.label,
            human_ns(self.wall_ns),
            self.answers
        );
        if !self.phases.is_empty() {
            let _ = writeln!(out, "  phases:");
            for p in &self.phases {
                let indent = "  ".repeat(Self::phase_depth(&p.name));
                let _ = writeln!(
                    out,
                    "    {indent}{}  calls={} total={} self={}",
                    p.name,
                    p.calls,
                    human_ns(p.total_ns),
                    human_ns(p.self_ns)
                );
            }
        }
        if !self.nodes.is_empty() {
            let _ = writeln!(out, "  tree:");
            for n in &self.nodes {
                let indent = "  ".repeat(n.depth);
                let mut line = format!("    {indent}[{}] {}", n.id, n.label);
                for (k, v) in &n.metrics {
                    line.push_str(&format!("  {k}={v}"));
                }
                let _ = writeln!(out, "{line}");
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "  counters:");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "    {name} = {v}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "  histograms:");
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "    {}  count={} mean={:.1} p50<={} max={}",
                    h.name,
                    h.count,
                    h.mean(),
                    h.quantile_bound(0.5),
                    h.max
                );
            }
        }
        out
    }

    /// Serializes the full profile as a JSON object.
    pub fn to_json(&self) -> Json {
        let phases = self
            .phases
            .iter()
            .map(|p| {
                Json::obj([
                    ("name", Json::str(&p.name)),
                    ("calls", Json::int(p.calls)),
                    ("total_ns", Json::int(p.total_ns)),
                    ("self_ns", Json::int(p.self_ns)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| Json::obj([("name", Json::str(n)), ("value", Json::int(*v))]))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                Json::obj([
                    ("name", Json::str(&h.name)),
                    ("count", Json::int(h.count)),
                    ("sum", Json::int(h.sum)),
                    ("max", Json::int(h.max)),
                    ("mean", Json::num(h.mean())),
                    ("p50_bound", Json::int(h.quantile_bound(0.5))),
                ])
            })
            .collect();
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                Json::obj([
                    ("id", Json::int(n.id as u64)),
                    (
                        "parent",
                        n.parent.map_or(Json::Null, |p| Json::int(p as u64)),
                    ),
                    ("depth", Json::int(n.depth as u64)),
                    ("label", Json::str(&n.label)),
                    (
                        "metrics",
                        Json::obj(n.metrics.iter().map(|(k, v)| (*k, Json::int(*v)))),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("label", Json::str(&self.label)),
            ("wall_ns", Json::int(self.wall_ns)),
            ("answers", Json::int(self.answers)),
            ("phases", Json::Arr(phases)),
            ("counters", Json::Arr(counters)),
            ("histograms", Json::Arr(histograms)),
            ("nodes", Json::Arr(nodes)),
        ])
    }

    /// The value of counter `name` in this profile (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The phase named `name`, if it fired during the query.
    pub fn phase(&self, name: &str) -> Option<&PhaseEntry> {
        self.phases.iter().find(|p| p.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, span};

    #[test]
    fn recorder_diffs_spans_and_counters() {
        let _flag = crate::span::tracing_test_lock();
        let mut rec = ProfileRecorder::start("test profile");
        {
            let _g = span!("test.profile.phase");
            counter!("test.profile.events").add(5);
        }
        rec.set_nodes(vec![NodeEntry {
            id: 0,
            parent: None,
            depth: 0,
            label: "root".into(),
            metrics: vec![("homomorphisms", 3)],
        }]);
        let profile = rec.finish(3);
        assert_eq!(profile.answers, 3);
        assert_eq!(profile.counter("test.profile.events"), 5);
        let phase = profile.phase("test.profile.phase").unwrap();
        assert_eq!(phase.calls, 1);
        assert!(profile.wall_ns >= phase.total_ns);
    }

    #[test]
    fn recorder_restores_tracing_state() {
        let _flag = crate::span::tracing_test_lock();
        assert!(!crate::span::tracing_enabled());
        let rec = ProfileRecorder::start("test nested");
        assert!(crate::span::tracing_enabled());
        let _ = rec.finish(0);
        assert!(!crate::span::tracing_enabled());
        // A recorder abandoned without `finish` closes its scope too.
        drop(ProfileRecorder::start("test abandoned"));
        assert!(!crate::span::tracing_enabled());
    }

    #[test]
    fn render_and_json_cover_all_sections() {
        let _flag = crate::span::tracing_test_lock();
        let mut rec = ProfileRecorder::start("render test");
        {
            let _g = span!("test.render.outer");
            let _h = span!("test.render.outer.inner");
            crate::histogram!("test.render.sizes").record(9);
        }
        rec.set_nodes(vec![
            NodeEntry {
                id: 0,
                parent: None,
                depth: 0,
                label: "root {x}".into(),
                metrics: vec![("homomorphisms", 4)],
            },
            NodeEntry {
                id: 1,
                parent: Some(0),
                depth: 1,
                label: "opt {y}".into(),
                metrics: vec![("homomorphisms", 2)],
            },
        ]);
        let profile = rec.finish(4);
        let text = profile.render();
        assert!(text.contains("render test"));
        assert!(text.contains("test.render.outer"));
        assert!(text.contains("[1] opt {y}  homomorphisms=2"));
        assert!(text.contains("test.render.sizes"));

        let json = profile.to_json();
        let parsed = Json::parse(&json.to_string()).expect("profile JSON parses");
        assert_eq!(parsed.get("answers").unwrap().as_num(), Some(4.0));
        let nodes = parsed.get("nodes").unwrap().as_arr().unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(
            nodes[1]
                .get("metrics")
                .unwrap()
                .get("homomorphisms")
                .unwrap()
                .as_num(),
            Some(2.0)
        );
    }
}
