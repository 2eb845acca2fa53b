//! WDPT semantics: maximal homomorphisms, `p(D)`, and `p_m(D)`.
//!
//! Definition 2 of the paper: a homomorphism from `p = (T, λ, x̄)` to `D` is
//! a partial mapping that is a full homomorphism of `q_{T'}` for some rooted
//! subtree `T'`; it is *maximal* if no proper extension is again a
//! homomorphism; `p(D)` is the set of projections `h_x̄` of maximal
//! homomorphisms; `p_m(D)` (Section 3.4) keeps only the ⊑-maximal ones.
//!
//! The evaluator exploits well-designedness: two sibling subtrees can share
//! a variable only through their common ancestors, so once the ancestor
//! valuation is fixed the children are independent. A maximal homomorphism
//! is therefore a local homomorphism of the root joined, for every child
//! that is extendable at all, with some maximal extension into that child —
//! a recursive product that never enumerates the `2^{|T|}` subtrees
//! explicitly.
//!
//! There is one executor ([`execute`] over [`Run::extensions`]); the public
//! functions differ only in what they pass it (threads, cancel token, plan)
//! and what they do with the maximal homomorphisms it returns.

use crate::tree::Wdpt;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use wdpt_cq::backtrack::{extend_all, extend_exists, try_extend_all};
use wdpt_model::{mapping::maximal_mappings, CancelToken, Cancelled, Database, Mapping};
use wdpt_obs::span;
use wdpt_plan::ExecPlan;

/// What one evaluation carries down the tree.
struct Run<'a> {
    p: &'a Wdpt,
    db: &'a Database,
    /// Planned static atom order per node; nodes the plan does not cover (no
    /// plan, or one indexed for a different tree shape) use the dynamic
    /// most-constrained heuristic.
    plan: Option<&'a ExecPlan>,
    token: &'a CancelToken,
    /// Local homomorphisms found per node (preorder id), summed over every
    /// ancestor context the node was evaluated under. Local to this
    /// evaluation — unlike the process-wide metrics registry — so the counts
    /// are exact whatever else runs concurrently; atomics because the
    /// workers share them.
    homs: Vec<AtomicU64>,
}

impl Run<'_> {
    /// Local homomorphisms of node `t` under `inherited`, tallied.
    fn node_extend(&self, t: usize, inherited: &Mapping) -> Result<Vec<Mapping>, Cancelled> {
        let order = self.plan.and_then(|pl| pl.nodes.get(t));
        let locals = try_extend_all(
            self.db,
            self.p.atoms(t),
            order.map(|no| no.order.as_slice()),
            inherited,
            self.token,
        )?;
        self.homs[t].fetch_add(locals.len() as u64, Relaxed);
        Ok(locals)
    }

    /// Maximal extensions into the subtree rooted at `t`, given the bindings
    /// of the ancestors. Empty result means "`t` is not extendable" (the OPT
    /// branch fails and is dropped). The token is polled inside the per-node
    /// backtracking search and between cartesian-product assembly rounds.
    ///
    /// Children are independent given their context (well-designedness), so
    /// every (context, child) pair is one job. With `workers < 2`, or fewer
    /// than two jobs, they run inline, context by context; otherwise they
    /// are strided over scoped threads first (`Database` is `Sync` — the
    /// column indexes live in `OnceLock`s). Either way the per-context
    /// products are assembled here, on the calling thread. Only the root is
    /// called with more than one worker.
    fn extensions(
        &self,
        t: usize,
        inherited: &Mapping,
        workers: usize,
    ) -> Result<Vec<Mapping>, Cancelled> {
        let token = self.token;
        let ctxs: Vec<Mapping> = self
            .node_extend(t, inherited)?
            .into_iter()
            .map(|g| {
                inherited
                    .union(&g)
                    .expect("local homomorphism agrees with inherited bindings")
            })
            .collect();
        let children = self.p.children(t);
        let job = |ci: usize, j: usize| self.extensions(children[j], &ctxs[ci], 1);
        let jobs = ctxs.len() * children.len();
        let workers = workers.min(jobs);
        let fanned = if workers < 2 {
            None
        } else {
            Some(fan_out(jobs, workers, |idx| {
                job(idx / children.len(), idx % children.len())
            })?)
        };
        let _assemble_span = fanned.is_some().then(|| span!("wdpt.eval.assemble"));
        let mut out = Vec::new();
        for (ci, ctx) in ctxs.iter().enumerate() {
            if token.is_cancelled() {
                return Err(Cancelled);
            }
            let inline;
            let parts: &[Vec<Mapping>] = match &fanned {
                Some(results) => &results[ci * children.len()..][..children.len()],
                None => {
                    inline = (0..children.len())
                        .map(|j| job(ci, j))
                        .collect::<Result<Vec<_>, _>>()?;
                    &inline
                }
            };
            // Cartesian product of the children's maximal extensions. A
            // child that is not extendable contributes nothing — maximality
            // w.r.t. it holds vacuously.
            let mut acc: Vec<Mapping> = vec![ctx.clone()];
            for part in parts.iter().filter(|part| !part.is_empty()) {
                if token.is_cancelled() {
                    return Err(Cancelled);
                }
                let mut next = Vec::with_capacity(acc.len() * part.len());
                for base in &acc {
                    for ext in part {
                        next.push(
                            base.union(ext)
                                .expect("sibling subtrees only share ancestor variables"),
                        );
                    }
                }
                acc = next;
            }
            out.extend(acc);
        }
        Ok(out)
    }
}

/// `job(0), …, job(n - 1)`, strided over `workers` scoped threads and
/// returned in job order. The workers share the evaluation's cancel token,
/// so one hitting the deadline stops the rest within one poll interval; the
/// scope still joins everything before the error propagates.
fn fan_out(
    n: usize,
    workers: usize,
    job: impl Fn(usize) -> Result<Vec<Mapping>, Cancelled> + Sync,
) -> Result<Vec<Vec<Mapping>>, Cancelled> {
    let mut results: Vec<Vec<Mapping>> = vec![Vec::new(); n];
    let mut cancelled = false;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let job = &job;
                s.spawn(move || {
                    let _span = span!("wdpt.parallel.worker");
                    let mut out = Vec::new();
                    for idx in (w..n).step_by(workers) {
                        wdpt_model::stats::record_parallel_task();
                        out.push((idx, job(idx)?));
                    }
                    Ok(out)
                })
            })
            .collect();
        for handle in handles {
            match handle.join().expect("worker thread panicked") {
                Ok(done) => done.into_iter().for_each(|(idx, exts)| results[idx] = exts),
                Err(Cancelled) => cancelled = true,
            }
        }
    });
    if cancelled {
        Err(Cancelled)
    } else {
        Ok(results)
    }
}

/// The one executor: all maximal homomorphisms from `p` to `db`, canonically
/// ordered, plus the per-node local-homomorphism counts (preorder ids) —
/// which survive cancellation, so a deadline-killed query can still be
/// explained. `threads` bounds the workers the root's (local homomorphism ×
/// OPT child) jobs are spread over (`0` means
/// [`std::thread::available_parallelism`]); with one worker no thread is
/// spawned. Answers are identical at every thread count and under any plan;
/// backtracking work is identical at every thread count.
pub(crate) fn execute(
    p: &Wdpt,
    db: &Database,
    threads: usize,
    token: &CancelToken,
    plan: Option<&ExecPlan>,
) -> (Result<Vec<Mapping>, Cancelled>, Vec<u64>) {
    let _span = span!("wdpt.eval.execute");
    let workers = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let run = Run {
        p,
        db,
        plan,
        token,
        homs: (0..p.node_count()).map(|_| AtomicU64::new(0)).collect(),
    };
    // BTreeSet puts the homomorphisms in canonical order.
    let homs = run
        .extensions(p.root(), &Mapping::empty(), workers)
        .map(|homs| {
            let set: BTreeSet<Mapping> = homs.into_iter().collect();
            set.into_iter().collect()
        });
    (homs, run.homs.iter().map(|a| a.load(Relaxed)).collect())
}

/// Projections of `homs` onto the free variables of `p`, deduplicated.
pub(crate) fn project_free(p: &Wdpt, homs: Vec<Mapping>) -> Vec<Mapping> {
    let free = p.free_set();
    let set: BTreeSet<Mapping> = homs.into_iter().map(|h| h.restrict(&free)).collect();
    set.into_iter().collect()
}

/// All maximal homomorphisms from `p` to `db` (on their various domains).
/// Exponential in the size of the output; intended for exact small-scale
/// semantics, tests, and the intractable baselines of the benchmarks.
pub fn maximal_homomorphisms(p: &Wdpt, db: &Database) -> Vec<Mapping> {
    execute(p, db, 1, CancelToken::never(), None)
        .0
        .expect("the never token cannot cancel")
}

/// The evaluation `p(D)`: projections of the maximal homomorphisms onto the
/// free variables, deduplicated (Definition 2).
pub fn evaluate(p: &Wdpt, db: &Database) -> Vec<Mapping> {
    project_free(p, maximal_homomorphisms(p, db))
}

/// The maximal-mapping semantics `p_m(D)` (Section 3.4): the ⊑-maximal
/// elements of `p(D)`.
pub fn evaluate_max(p: &Wdpt, db: &Database) -> Vec<Mapping> {
    maximal_mappings(evaluate(p, db))
}

/// [`evaluate`] on up to `threads` worker threads (`0` means
/// [`std::thread::available_parallelism`]), under a cancel token —
/// `Err(Cancelled)` if it fires or its deadline passes mid-evaluation — and
/// executing an optional cost-based [`ExecPlan`]; see
/// [`try_evaluate_parallel_captured_planned`](crate::profile::try_evaluate_parallel_captured_planned)
/// for the plan contract. Answers are identical to [`evaluate`]'s, in the
/// same canonical order, whatever the thread count or plan.
pub fn try_evaluate_parallel_planned(
    p: &Wdpt,
    db: &Database,
    threads: usize,
    token: &CancelToken,
    plan: Option<&ExecPlan>,
) -> Result<Vec<Mapping>, Cancelled> {
    Ok(project_free(p, execute(p, db, threads, token, plan).0?))
}

/// All homomorphisms from `p` to `db` (not only maximal ones): full
/// homomorphisms of `q_{T'}` over every rooted subtree `T'`. Exponential;
/// used by tests and as the reference implementation for the decision
/// procedures.
pub fn all_homomorphisms(p: &Wdpt, db: &Database) -> Vec<Mapping> {
    let mut out: BTreeSet<Mapping> = BTreeSet::new();
    p.for_each_rooted_subtree(&mut |subtree| {
        let q = p.cq_of_subtree(subtree);
        for h in extend_all(db, q.body(), &Mapping::empty()) {
            out.insert(h);
        }
    });
    out.into_iter().collect()
}

/// Reference check that a mapping is a homomorphism from `p` to `db`
/// witnessed by some rooted subtree whose variables are exactly `dom(h)`.
pub fn is_homomorphism(p: &Wdpt, db: &Database, h: &Mapping) -> bool {
    let dom = h.domain();
    let mut found = false;
    p.for_each_rooted_subtree(&mut |subtree| {
        if found {
            return;
        }
        if p.subtree_vars(subtree) != dom {
            return;
        }
        let q = p.cq_of_subtree(subtree);
        if q.body().iter().all(|a| db.contains_atom(&a.apply(h))) {
            found = true;
        }
    });
    found
}

/// Reference maximality check: `h` is a homomorphism and no proper
/// extension is one. Exponential; testing only.
pub fn is_maximal_homomorphism(p: &Wdpt, db: &Database, h: &Mapping) -> bool {
    if !is_homomorphism(p, db, h) {
        return false;
    }
    all_homomorphisms(p, db)
        .iter()
        .all(|other| !h.strictly_subsumed_by(other))
}

/// Convenience used by tests: is the tree satisfiable at all (i.e. is
/// `p(D)` non-empty)? Equivalent to the root label having a homomorphism.
pub fn satisfiable(p: &Wdpt, db: &Database) -> bool {
    extend_exists(db, p.atoms(p.root()), &Mapping::empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::WdptBuilder;
    use wdpt_model::parse::{parse_atoms, parse_database, parse_mapping};
    use wdpt_model::Interner;

    /// Figure 1 WDPT over the Example 2 database.
    fn example2(i: &mut Interner) -> (Wdpt, Database) {
        let root = parse_atoms(i, r#"rec_by(?x,?y) publ(?x,"after_2010")"#).unwrap();
        let left = parse_atoms(i, "nme_rating(?x,?z)").unwrap();
        let right = parse_atoms(i, "formed_in(?y,?z2)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, left);
        b.child(0, right);
        let free = ["x", "y", "z", "z2"].iter().map(|n| i.var(n)).collect();
        let p = b.build(free).unwrap();
        let db = parse_database(
            i,
            r#"rec_by("Our_love","Caribou") publ("Our_love","after_2010")
               rec_by("Swim","Caribou") publ("Swim","after_2010")
               nme_rating("Swim","2")"#,
        )
        .unwrap();
        (p, db)
    }

    #[test]
    fn example2_answers() {
        // Example 2 of the paper: μ1 = {x ↦ Our_love, y ↦ Caribou} and
        // μ2 = {x ↦ Swim, y ↦ Caribou, z ↦ 2}.
        let mut i = Interner::new();
        let (p, db) = example2(&mut i);
        let mut answers = evaluate(&p, &db);
        answers.sort();
        let mu1 = parse_mapping(&mut i, r#"?x -> "Our_love", ?y -> "Caribou""#).unwrap();
        let mu2 = parse_mapping(&mut i, r#"?x -> "Swim", ?y -> "Caribou", ?z -> "2""#).unwrap();
        let mut expected = vec![mu1, mu2];
        expected.sort();
        assert_eq!(answers, expected);
    }

    #[test]
    fn example3_projection() {
        // Example 3: projecting out x yields μ'1 = {y ↦ Caribou} and
        // μ'2 = {y ↦ Caribou, z ↦ 2}.
        let mut i = Interner::new();
        let (p0, db) = example2(&mut i);
        let free = ["y", "z", "z2"]
            .iter()
            .map(|n| i.var(n))
            .collect::<Vec<_>>();
        let p = rebuild_with_free(&p0, free);
        let mut answers = evaluate(&p, &db);
        answers.sort();
        let m1 = parse_mapping(&mut i, r#"?y -> "Caribou""#).unwrap();
        let m2 = parse_mapping(&mut i, r#"?y -> "Caribou", ?z -> "2""#).unwrap();
        let mut expected = vec![m1, m2];
        expected.sort();
        assert_eq!(answers, expected);
    }

    #[test]
    fn example7_max_semantics() {
        // Example 7: with x̄ = {y, z}, p(D) = {μ1, μ2} but p_m(D) = {μ2}.
        let mut i = Interner::new();
        let (p0, db) = example2(&mut i);
        let free = ["y", "z"].iter().map(|n| i.var(n)).collect::<Vec<_>>();
        let p = rebuild_with_free(&p0, free);
        let answers = evaluate(&p, &db);
        assert_eq!(answers.len(), 2);
        let max = evaluate_max(&p, &db);
        assert_eq!(max.len(), 1);
        let m2 = parse_mapping(&mut i, r#"?y -> "Caribou", ?z -> "2""#).unwrap();
        assert_eq!(max[0], m2);
    }

    /// Rebuilds a WDPT with a different free-variable tuple.
    fn rebuild_with_free(p: &Wdpt, free: Vec<wdpt_model::Var>) -> Wdpt {
        let mut b = WdptBuilder::new(p.atoms(0).to_vec());
        let mut map = vec![0usize; p.node_count()];
        for t in 1..p.node_count() {
            let parent = map[p.parent(t).unwrap()];
            map[t] = b.child(parent, p.atoms(t).to_vec());
        }
        b.build(free).unwrap()
    }

    #[test]
    fn optional_branch_failure_does_not_kill_answer() {
        let mut i = Interner::new();
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let child = parse_atoms(&mut i, "b(?x,?y)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, child);
        let p = b.build(vec![i.var("x"), i.var("y")]).unwrap();
        let db = parse_database(&mut i, "a(1)").unwrap();
        let ans = evaluate(&p, &db);
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0].len(), 1); // only x bound
    }

    #[test]
    fn mandatory_root_failure_yields_empty() {
        let mut i = Interner::new();
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let p = WdptBuilder::new(root).build(vec![i.var("x")]).unwrap();
        let db = parse_database(&mut i, "b(1)").unwrap();
        assert!(evaluate(&p, &db).is_empty());
        assert!(!satisfiable(&p, &db));
    }

    #[test]
    fn extension_is_forced_when_available() {
        let mut i = Interner::new();
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let child = parse_atoms(&mut i, "b(?x,?y)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, child);
        let p = b.build(vec![i.var("x"), i.var("y")]).unwrap();
        let db = parse_database(&mut i, "a(1) b(1,2)").unwrap();
        let ans = evaluate(&p, &db);
        // {x↦1} alone is NOT maximal because it extends to {x↦1, y↦2}.
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0].len(), 2);
    }

    #[test]
    fn nested_optional_chain() {
        let mut i = Interner::new();
        let mut b = WdptBuilder::new(parse_atoms(&mut i, "a(?x)").unwrap());
        let c1 = b.child(0, parse_atoms(&mut i, "b(?x,?y)").unwrap());
        b.child(c1, parse_atoms(&mut i, "c(?y,?z)").unwrap());
        let free = ["x", "y", "z"].iter().map(|n| i.var(n)).collect();
        let p = b.build(free).unwrap();
        let db = parse_database(&mut i, "a(1) a(2) b(2,5) b(2,6) c(6,9)").unwrap();
        let mut ans = evaluate(&p, &db);
        ans.sort();
        // x=1: no b — answer {x↦1}. x=2,y=5: no c — {x↦2,y↦5}.
        // x=2,y=6: c(6,9) — {x↦2,y↦6,z↦9}.
        assert_eq!(ans.len(), 3);
        assert_eq!(
            ans.iter().map(Mapping::len).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn maximal_homs_agree_with_reference() {
        let mut i = Interner::new();
        let (p, db) = example2(&mut i);
        for h in maximal_homomorphisms(&p, &db) {
            assert!(is_maximal_homomorphism(&p, &db, &h));
        }
        // And every reference-maximal hom is produced.
        for h in all_homomorphisms(&p, &db) {
            if is_maximal_homomorphism(&p, &db, &h) {
                assert!(maximal_homomorphisms(&p, &db).contains(&h));
            }
        }
    }

    /// `p(D)` through the cancellable entry point at `threads` workers.
    fn eval_at(p: &Wdpt, db: &Database, threads: usize) -> Vec<Mapping> {
        try_evaluate_parallel_planned(p, db, threads, CancelToken::never(), None).unwrap()
    }

    #[test]
    fn every_thread_count_matches_evaluate_on_paper_examples() {
        let mut i = Interner::new();
        let (p, db) = example2(&mut i);
        for threads in [0, 1, 2, 4, 16] {
            assert_eq!(eval_at(&p, &db, threads), evaluate(&p, &db));
            assert_eq!(
                execute(&p, &db, threads, CancelToken::never(), None).0,
                Ok(maximal_homomorphisms(&p, &db))
            );
        }
    }

    #[test]
    fn single_node_trees_fan_nothing_out() {
        let mut i = Interner::new();
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let p = WdptBuilder::new(root).build(vec![i.var("x")]).unwrap();
        let db = parse_database(&mut i, "a(1) a(2)").unwrap();
        let before = wdpt_model::stats::snapshot();
        let ans = eval_at(&p, &db, 8);
        let delta = wdpt_model::stats::snapshot().since(&before);
        assert_eq!(ans, evaluate(&p, &db));
        // No children means no work items, so nothing is fanned out.
        assert_eq!(delta.parallel_tasks, 0);
    }

    #[test]
    fn fans_out_one_task_per_context_child_pair() {
        let mut i = Interner::new();
        // 3 root homomorphisms × 2 children = 6 work items.
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, parse_atoms(&mut i, "b(?x,?y)").unwrap());
        b.child(0, parse_atoms(&mut i, "c(?x,?z)").unwrap());
        let free = ["x", "y", "z"].iter().map(|n| i.var(n)).collect();
        let p = b.build(free).unwrap();
        let db = parse_database(&mut i, "a(1) a(2) a(3) b(1,10) b(2,20) c(2,30) c(3,31)").unwrap();
        let before = wdpt_model::stats::snapshot();
        let ans = eval_at(&p, &db, 4);
        let delta = wdpt_model::stats::snapshot().since(&before);
        assert_eq!(ans, evaluate(&p, &db));
        assert_eq!(ans.len(), 3);
        assert!(delta.parallel_tasks >= 6);
    }

    #[test]
    fn cancelled_evaluation_returns_typed_error() {
        let mut i = Interner::new();
        let (p, db) = example2(&mut i);
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 4] {
            assert_eq!(
                try_evaluate_parallel_planned(&p, &db, threads, &token, None),
                Err(Cancelled)
            );
        }
        // A live token changes nothing about the answers.
        let live = CancelToken::new();
        for threads in [1, 4] {
            assert_eq!(
                try_evaluate_parallel_planned(&p, &db, threads, &live, None),
                Ok(evaluate(&p, &db))
            );
        }
    }

    #[test]
    fn shared_existential_variable_constrains_branches() {
        let mut i = Interner::new();
        // Root binds ?u existentially; both children use ?u.
        let root = parse_atoms(&mut i, "a(?x,?u)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, parse_atoms(&mut i, "b(?u,?y)").unwrap());
        b.child(0, parse_atoms(&mut i, "c(?u,?z)").unwrap());
        let free = ["x", "y", "z"].iter().map(|n| i.var(n)).collect();
        let p = b.build(free).unwrap();
        let db = parse_database(&mut i, "a(1,7) a(1,8) b(7,10) c(8,20)").unwrap();
        let mut ans = evaluate(&p, &db);
        ans.sort();
        // u=7: b extends (y=10), c fails → {x↦1, y↦10}.
        // u=8: b fails, c extends (z=20) → {x↦1, z↦20}.
        assert_eq!(ans.len(), 2);
    }
}
