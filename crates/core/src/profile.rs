//! An evaluation's counts as a [`QueryProfile`]: the `EXPLAIN ANALYZE` form.
//!
//! Every evaluation hands back an [`EvalTally`] — per-tree-node
//! homomorphism counts and the searches' work counts, its own and exact.
//! [`EvalTally::profile`] renders that, and nothing process-wide, as a
//! [`QueryProfile`]: what a serving layer returns to a request that asked
//! for a profile and logs for a slow or deadline-killed one.

use crate::semantics::EvalTally;
use crate::tree::Wdpt;
use wdpt_obs::{NodeEntry, QueryProfile};

/// The per-node profile entries for the executor's homomorphism counts
/// ([`EvalTally::homs`]): preorder ids, parent/depth for indentation, a
/// label summarizing the node's pattern, and the count.
fn node_entries(p: &Wdpt, hom_counts: &[u64]) -> Vec<NodeEntry> {
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
    /// counters it recorded them in, zero ones left out.
    pub fn profile(&self, p: &Wdpt, label: &str, wall_ns: u64, answers: u64) -> QueryProfile {
        use wdpt_model::stats::{INDEX_PROBES, NODES_EXPANDED, TUPLES_SCANNED};
        // Sorted by name.
        let counters = [
            (NODES_EXPANDED, self.work.nodes_expanded),
            (INDEX_PROBES, self.work.index_probes),
            (TUPLES_SCANNED, self.work.tuples_scanned),
        ];
        QueryProfile {
            label: label.to_string(),
            wall_ns,
            answers,
            counters: counters
                .into_iter()
                .filter(|&(_, n)| n > 0)
                .map(|(name, n)| (name.to_string(), n))
                .collect(),
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

    /// The evaluation on `threads` workers and its tally's profile.
    fn profiled(
        p: &Wdpt,
        db: &Database,
        threads: usize,
    ) -> (Vec<Mapping>, EvalTally, QueryProfile) {
        let (answers, tally) =
            evaluate_rows(p, db, threads, CancelToken::never(), None, usize::MAX);
        let answers = answers.unwrap().into_mappings();
        let profile = tally.profile(p, "test", 0, answers.len() as u64);
        (answers, tally, profile)
    }

    #[test]
    fn a_profile_renders_its_tally() {
        let (_i, p, db) = fixture();
        let (answers, tally, profile) = profiled(&p, &db, 1);
        assert_eq!(answers, evaluate(&p, &db));
        assert_eq!(profile.answers, answers.len() as u64);
        assert_eq!(profile.nodes.len(), p.node_count());
        // The root saw its 3 local homomorphisms; every node its own count.
        assert_eq!(profile.nodes[0].metrics[0], ("homomorphisms", 3));
        for (t, node) in profile.nodes.iter().enumerate() {
            assert_eq!(
                (node.id, node.parent, node.depth),
                (t, p.parent(t), p.depth(t))
            );
            assert_eq!(node.metrics, [("homomorphisms", tally.homs[t])]);
        }
        // The run's own work, under the registry's names, sorted by name.
        assert_eq!(
            profile.counter("cq.nodes_expanded"),
            tally.work.nodes_expanded
        );
        assert_eq!(profile.counter("db.index_probes"), tally.work.index_probes);
        assert_eq!(
            profile.counter("db.tuples_scanned"),
            tally.work.tuples_scanned
        );
        assert!(profile.counters.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(profile.counters.iter().all(|&(_, n)| n > 0));
        // With one worker, nothing was fanned out.
        assert_eq!(tally.parallel_tasks, 0);
    }

    #[test]
    fn profile_has_exact_node_parity_across_thread_counts() {
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
        let (seq_answers, seq_tally, seq_profile) = profiled(&p, &db, 1);
        for threads in [2, 4, 8] {
            let (par_answers, par_tally, par_profile) = profiled(&p, &db, threads);
            assert_eq!(par_answers, seq_answers);
            // Observability parity: identical per-node homomorphism tallies
            // and work counts, merged across the scoped workers.
            assert_eq!(par_tally.homs, seq_tally.homs);
            assert_eq!(par_tally.work, seq_tally.work);
            assert_eq!(par_profile, seq_profile);
            // And the parallel run is visibly parallel.
            assert!(par_tally.parallel_tasks >= 3000);
        }
    }

    #[test]
    fn cancelled_run_keeps_its_profile() {
        let (_i, p, db) = fixture();
        let token = CancelToken::new();
        token.cancel();
        let (answers, tally) = evaluate_rows(&p, &db, 4, &token, None, usize::MAX);
        assert_eq!(answers, Err(Cancelled));
        let profile = tally.profile(&p, "late", 0, 0);
        assert_eq!(profile.answers, 0);
        assert_eq!(profile.nodes.len(), p.node_count());
    }

    #[test]
    fn profile_serializes() {
        let (_i, p, db) = fixture();
        let (_, tally, profile) = profiled(&p, &db, 4);
        let json = profile.to_json().to_string();
        let parsed = wdpt_obs::Json::parse(&json).expect("valid JSON");
        let nodes = parsed.get("nodes").unwrap().as_arr().unwrap();
        assert_eq!(nodes.len(), p.node_count());
        for (node, &homs) in nodes.iter().zip(&tally.homs) {
            let count = node.get("metrics").and_then(|m| m.get("homomorphisms"));
            assert_eq!(count.and_then(wdpt_obs::Json::as_num), Some(homs as f64));
        }
        let counters = parsed.get("counters").unwrap().as_arr().unwrap();
        assert_eq!(counters.len(), profile.counters.len());
        for (entry, (name, value)) in counters.iter().zip(&profile.counters) {
            assert_eq!(entry.get("name").unwrap().as_str(), Some(name.as_str()));
            assert_eq!(entry.get("value").unwrap().as_num(), Some(*value as f64));
        }
        assert_eq!(
            parsed.get("answers").unwrap().as_num(),
            Some(profile.answers as f64)
        );
    }
}
