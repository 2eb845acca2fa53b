//! Per-query evaluation profiles.
//!
//! A [`QueryProfile`] is the observability artifact of one WDPT/CQ
//! evaluation: per-tree-node homomorphism tallies and the run's work
//! counters. It is built from the evaluation's own tally
//! (`wdpt_core::EvalTally::profile`), never from the process-wide
//! registries, so it holds that run's work and nobody else's whatever ran
//! beside it. It serializes to JSON ([`QueryProfile::to_json`]), the form
//! the server's `profile: true` responses and slowlog entries carry.

use crate::json::Json;

/// Per-tree-node data for one WDPT node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeEntry {
    /// Preorder id of the node in the pattern tree.
    pub id: usize,
    /// Parent's preorder id; `None` for the root.
    pub parent: Option<usize>,
    /// Depth below the root (root = 0).
    pub depth: usize,
    /// Short description of the node, e.g. its atoms or exported variables.
    pub label: String,
    /// Named tallies, e.g. `("homomorphisms", 12)`.
    pub metrics: Vec<(&'static str, u64)>,
}

/// A per-query evaluation report.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// What was evaluated, e.g. `"serve.query"`.
    pub label: String,
    /// Wall time of the evaluation.
    pub wall_ns: u64,
    /// Number of answers produced.
    pub answers: u64,
    /// The run's nonzero work counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Per-tree-node tallies in preorder (empty for CQ-only profiles).
    pub nodes: Vec<NodeEntry>,
}

impl QueryProfile {
    /// Serializes the full profile as a JSON object.
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| Json::obj([("name", Json::str(n)), ("value", Json::int(*v))]))
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
            ("counters", Json::Arr(counters)),
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_covers_all_sections() {
        let profile = QueryProfile {
            label: "json test".into(),
            wall_ns: 7,
            answers: 4,
            counters: vec![("test.profile.events".into(), 5)],
            nodes: vec![
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
            ],
        };
        assert_eq!(profile.counter("test.profile.events"), 5);
        assert_eq!(profile.counter("test.profile.absent"), 0);
        let parsed = Json::parse(&profile.to_json().to_string()).expect("profile JSON parses");
        let keys: Vec<&str> = match &parsed {
            Json::Obj(fields) => fields.keys().map(String::as_str).collect(),
            other => panic!("not an object: {other}"),
        };
        assert_eq!(keys, ["answers", "counters", "label", "nodes", "wall_ns"]);
        assert_eq!(parsed.get("label").unwrap().as_str(), Some("json test"));
        assert_eq!(parsed.get("answers").unwrap().as_num(), Some(4.0));
        let counters = parsed.get("counters").unwrap().as_arr().unwrap();
        assert_eq!(counters.len(), 1);
        assert_eq!(counters[0].get("value").unwrap().as_num(), Some(5.0));
        let nodes = parsed.get("nodes").unwrap().as_arr().unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].get("parent"), Some(&Json::Null));
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
