//! Profiled WDPT evaluation: the `EXPLAIN ANALYZE` entry point.
//!
//! [`try_evaluate_parallel_captured_planned`] runs the same executor as
//! every other entry point in [`crate::semantics`] and hands back the same
//! product — the [`Answers`] table, as [`crate::evaluate_rows`] does — but
//! brackets the run with a [`wdpt_obs::ProfileRecorder`] (enabling span
//! tracing for the duration) and reports the executor's per-tree-node
//! homomorphism counts. Those are local to the evaluation — not a
//! process-wide counter — so they are deterministic: the same at every
//! thread count, which the observability-parity test relies on. The
//! profile comes back as recorded; rendering it ([`QueryProfile::to_json`],
//! [`QueryProfile::render`]) is the caller's to do if and when someone
//! reads it.

use crate::semantics::{execute, Answers};
use crate::tree::Wdpt;
use wdpt_model::{CancelToken, Cancelled, Database};
use wdpt_obs::{NodeEntry, ProfileRecorder, QueryProfile};

/// Builds the per-node profile entries from the executor's counts: preorder
/// ids, parent/depth for indentation, a label summarizing the node's
/// pattern, and the homomorphism count.
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

/// [`crate::evaluate_rows`] plus a [`QueryProfile`] of the run, which
/// *survives* cancellation: whatever phases, counters, and
/// per-node tallies accumulated up to the deadline come back alongside the
/// `Err`. This is what a serving layer's slow-query log needs — the queries
/// most worth explaining are exactly the ones that blew their deadline, and
/// a discarded profile would leave their EXPLAIN empty. With more than one
/// thread the span and counter sections additionally show the fan-out
/// (`wdpt.parallel.worker` spans, `wdpt.parallel_tasks` counter).
///
/// The plan contract: nodes with a planned atom order run it statically; a
/// `None` plan (or a plan built for a different tree shape) falls back to
/// the dynamic most-constrained heuristic per node. Answers are identical
/// either way — a plan only changes the order work is discovered in.
pub fn try_evaluate_parallel_captured_planned(
    p: &Wdpt,
    db: &Database,
    threads: usize,
    token: &CancelToken,
    label: &str,
    plan: Option<&wdpt_plan::ExecPlan>,
) -> (Result<Answers, Cancelled>, QueryProfile) {
    let mut rec = ProfileRecorder::start(label);
    let (answers, hom_counts) = execute(p, db, threads, token, plan, &p.free_set());
    rec.set_nodes(node_entries(p, &hom_counts));
    let profile = rec.finish(answers.as_ref().map_or(0, |a| a.len() as u64));
    (answers, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::evaluate;
    use crate::tree::WdptBuilder;
    use wdpt_model::parse::{parse_atoms, parse_database};
    use wdpt_model::{Interner, Mapping};

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

    fn profiled(p: &Wdpt, db: &Database, threads: usize) -> (Vec<Mapping>, QueryProfile) {
        let (answers, profile) = try_evaluate_parallel_captured_planned(
            p,
            db,
            threads,
            CancelToken::never(),
            "test",
            None,
        );
        (answers.unwrap().into_mappings(), profile)
    }

    #[test]
    fn profiled_answers_match_unprofiled() {
        let _fan_out = crate::semantics::fan_out_test_lock();
        let (_i, p, db) = fixture();
        let (answers, profile) = profiled(&p, &db, 1);
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
        let (seq_answers, seq_profile) = profiled(&p, &db, 1);
        for threads in [2, 4, 8] {
            let (par_answers, par_profile) = profiled(&p, &db, threads);
            assert_eq!(par_answers, seq_answers);
            // Observability parity: identical per-node homomorphism tallies,
            // merged across the scoped workers.
            assert_eq!(par_profile.nodes, seq_profile.nodes);
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
        let (answers, profile) =
            try_evaluate_parallel_captured_planned(&p, &db, 4, &token, "late", None);
        assert_eq!(answers, Err(Cancelled));
        assert_eq!(profile.answers, 0);
        assert_eq!(profile.nodes.len(), p.node_count());
    }

    #[test]
    fn profile_serializes_and_renders() {
        let (_i, p, db) = fixture();
        let (_, profile) = profiled(&p, &db, 4);
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
