//! An evaluation's counts as a [`QueryProfile`]: the `EXPLAIN ANALYZE` form.
//!
//! Every evaluation hands back an [`EvalTally`] — per-tree-node
//! homomorphism counts and the searches' work counts, its own and exact.
//! [`EvalTally::profile`] renders that, and nothing process-wide, as a
//! [`QueryProfile`]: what a serving layer logs for a slow or deadline-killed
//! request.
//!
//! Time per phase and histograms come from the process-wide span and metric
//! registries, so a caller that wants them brackets
//! [`evaluate_rows`](crate::evaluate_rows) with a
//! [`wdpt_obs::ProfileRecorder`] itself and attaches [`node_entries`] — and
//! reads deltas that are exact only if nothing else ran meanwhile: a CLI
//! binary, a bench, a test holding a lock, the one request that asked for a
//! profile.

use crate::semantics::EvalTally;
use crate::tree::Wdpt;
use wdpt_obs::{NodeEntry, QueryProfile};

/// The per-node profile entries for the executor's homomorphism counts
/// ([`EvalTally::homs`]): preorder ids, parent/depth for indentation, a
/// label summarizing the node's pattern, and the count.
pub fn node_entries(p: &Wdpt, hom_counts: &[u64]) -> Vec<NodeEntry> {
    (0..p.node_count())
        .map(|t| NodeEntry {
            id: t,
            parent: p.parent(t),
            depth: p.depth(t),
            label: format!(
                "{} atom(s), {} var(s)",
                p.atoms(t).len(),
                p.node_vars(t).len()
            ),
            metrics: vec![("homomorphisms", hom_counts[t])],
        })
        .collect()
}

impl EvalTally {
    /// The tally of an evaluation of `p` that took `wall_ns` and produced
    /// `answers` rows, as a profile: `nodes` are the per-node counts,
    /// `counters` the run's own three under the names of the process-wide
    /// counters they were also added to (zero ones left out, as a recorder
    /// does), `phases` and `histograms` empty.
    pub fn profile(&self, p: &Wdpt, label: &str, wall_ns: u64, answers: u64) -> QueryProfile {
        use wdpt_model::stats::{INDEX_PROBES, NODES_EXPANDED, TUPLES_SCANNED};
        // Sorted by name, like a recorder's.
        let counters = [
            (NODES_EXPANDED, self.nodes_expanded),
            (INDEX_PROBES, self.index_probes),
            (TUPLES_SCANNED, self.tuples_scanned),
        ];
        QueryProfile {
            label: label.to_string(),
            wall_ns,
            answers,
            phases: Vec::new(),
            counters: counters
                .into_iter()
                .filter(|&(_, n)| n > 0)
                .map(|(name, n)| (name.to_string(), n))
                .collect(),
            histograms: Vec::new(),
            nodes: node_entries(p, &self.homs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::{evaluate, evaluate_rows};
    use crate::tree::WdptBuilder;
    use wdpt_model::parse::{parse_atoms, parse_database};
    use wdpt_model::{CancelToken, Cancelled, Database, Interner, Mapping};
    use wdpt_obs::ProfileRecorder;

    fn fixture() -> (Interner, Wdpt, Database) {
        fixture_with("")
    }

    /// The fixture with `more` facts on top of its nine.
    fn fixture_with(more: &str) -> (Interner, Wdpt, Database) {
        let mut i = Interner::new();
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let mut b = WdptBuilder::new(root);
        let c1 = b.child(0, parse_atoms(&mut i, "b(?x,?y)").unwrap());
        b.child(0, parse_atoms(&mut i, "c(?x,?z)").unwrap());
        b.child(c1, parse_atoms(&mut i, "d(?y,?w)").unwrap());
        let free = ["x", "y", "z", "w"].iter().map(|n| i.var(n)).collect();
        let p = b.build(free).unwrap();
        let db = parse_database(
            &mut i,
            &format!("a(1) a(2) a(3) b(1,10) b(2,20) b(2,21) c(2,30) c(3,31) d(20,40) {more}"),
        )
        .unwrap();
        (i, p, db)
    }

    /// The evaluation bracketed by a recorder, as a caller that wants a
    /// span profile does it.
    fn profiled(
        p: &Wdpt,
        db: &Database,
        threads: usize,
    ) -> (Vec<Mapping>, EvalTally, QueryProfile) {
        let mut rec = ProfileRecorder::start("test");
        let (answers, tally) = evaluate_rows(p, db, threads, CancelToken::never(), None);
        let answers = answers.unwrap().into_mappings();
        rec.set_nodes(node_entries(p, &tally.homs));
        let profile = rec.finish(answers.len() as u64);
        (answers, tally, profile)
    }

    #[test]
    fn profiled_answers_match_unprofiled() {
        let _fan_out = crate::semantics::fan_out_test_lock();
        let (_i, p, db) = fixture();
        let (answers, tally, profile) = profiled(&p, &db, 1);
        assert_eq!(answers, evaluate(&p, &db));
        assert_eq!(profile.answers, answers.len() as u64);
        assert_eq!(profile.nodes.len(), p.node_count());
        // The root saw its 3 local homomorphisms.
        assert_eq!(profile.nodes[0].metrics[0], ("homomorphisms", 3));
        // Spans fired: the executor and the backtrack engine — and with one
        // worker, nothing was fanned out.
        assert!(profile.phase("wdpt.eval.execute").is_some());
        assert!(profile.phase("cq.backtrack.extend_all").is_some());
        assert!(profile.phase("wdpt.parallel.worker").is_none());
        // The tally's own profile holds the same nodes and no phases.
        let own = tally.profile(&p, "test", profile.wall_ns, profile.answers);
        assert_eq!(own.nodes, profile.nodes);
        assert_eq!(own.counter("cq.nodes_expanded"), tally.nodes_expanded);
        assert_eq!(own.counter("db.index_probes"), tally.index_probes);
        assert_eq!(own.counter("db.tuples_scanned"), tally.tuples_scanned);
        assert!(own.phases.is_empty() && own.histograms.is_empty());
    }

    #[test]
    fn profile_has_exact_node_parity_across_thread_counts() {
        let _fan_out = crate::semantics::fan_out_test_lock();
        // Wide enough for every level to be worth sharing out: 1500 more
        // values of ?x, each with a ?y of its own, every other one a ?w.
        let mut more = String::new();
        for j in 100..1600 {
            more.push_str(&format!("a({j}) b({j},y{j}) "));
            if j % 2 == 0 {
                more.push_str(&format!("d(y{j},w{j}) "));
            }
        }
        let (_i, p, db) = fixture_with(&more);
        let (seq_answers, seq_tally, _) = profiled(&p, &db, 1);
        for threads in [2, 4, 8] {
            let (par_answers, par_tally, par_profile) = profiled(&p, &db, threads);
            assert_eq!(par_answers, seq_answers);
            // Observability parity: identical per-node homomorphism tallies
            // and work counts, merged across the scoped workers.
            assert_eq!(par_tally, seq_tally);
            // And the parallel run is visibly parallel.
            assert!(par_profile.counter("wdpt.parallel_tasks") >= 3000);
            let worker = par_profile.phase("wdpt.parallel.worker").unwrap();
            assert!(worker.calls >= 2, "expected ≥2 worker spans");
        }
    }

    #[test]
    fn cancelled_run_keeps_its_profile() {
        let (_i, p, db) = fixture();
        let token = CancelToken::new();
        token.cancel();
        let (answers, tally) = evaluate_rows(&p, &db, 4, &token, None);
        assert_eq!(answers, Err(Cancelled));
        let profile = tally.profile(&p, "late", 0, 0);
        assert_eq!(profile.answers, 0);
        assert_eq!(profile.nodes.len(), p.node_count());
    }

    #[test]
    fn profile_serializes_and_renders() {
        let (_i, p, db) = fixture();
        let (_, _, profile) = profiled(&p, &db, 4);
        let text = profile.render();
        assert!(text.contains("wdpt.eval.execute"));
        assert!(text.contains("homomorphisms="));
        let json = profile.to_json().to_string();
        let parsed = wdpt_obs::Json::parse(&json).expect("valid JSON");
        assert_eq!(
            parsed.get("nodes").unwrap().as_arr().unwrap().len(),
            p.node_count()
        );
    }
}
