//! The engine's work: one tally type, and the registry it is recorded in.
//!
//! Whoever does the work counts it in a [`ProbeTally`] it owns — a search,
//! an evaluation, a relation probe lent the caller's tally — and reads it
//! back as its own account, exact whatever else runs concurrently. Each
//! public entry point that does such work adds its summed tally to the
//! process-wide `wdpt-obs` registry once, through [`record`], before it
//! returns: the executor, the decision procedures, containment and cores,
//! `extend_all`, and the relation warm-up and check. The registry names
//! below also name the counters of a [`QueryProfile`](wdpt_obs::QueryProfile)
//! and of benchmark output; [`snapshot`] reads the registry back as a tally.

use wdpt_obs::counter;

/// Registry name of the index-build counter.
pub const INDEX_BUILDS: &str = "db.index_builds";
/// Registry name of the relation-probe counter.
pub const INDEX_PROBES: &str = "db.index_probes";
/// Registry name of the candidate-tuple scan counter.
pub const TUPLES_SCANNED: &str = "db.tuples_scanned";
/// Registry name of the CQ search-node counter.
pub const NODES_EXPANDED: &str = "cq.nodes_expanded";
/// Registry name of the parallel work-item counter.
pub const PARALLEL_TASKS: &str = "wdpt.parallel_tasks";

/// The work of one search, evaluation or probe sequence, counted locally by
/// whoever does it. Probes and candidate tuples sit on the innermost loop of
/// every engine: a relaxed `fetch_add` per tuple is measurable there, a
/// local increment is not. Whoever runs a search owns one and lends it to
/// every [`Relation::candidates`](crate::Relation::candidates) call of that
/// search; an entry point sums its searches' tallies and [`record`]s the
/// sum once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeTally {
    /// Search nodes expanded by the backtracking CQ engine.
    pub nodes_expanded: u64,
    /// Searches of a relation: one per prefix search, one per column lookup.
    pub index_probes: u64,
    /// Candidate tuples examined by the searches and `Relation::matching`.
    pub tuples_scanned: u64,
    /// Column permutations built: one per relation run and column, by the
    /// first probe that binds the column without the columns before it. A
    /// probe on a leading prefix builds nothing.
    pub index_builds: u64,
}

impl ProbeTally {
    /// Adds `other`'s counts to this tally.
    pub fn add(&mut self, other: ProbeTally) {
        self.nodes_expanded += other.nodes_expanded;
        self.index_probes += other.index_probes;
        self.tuples_scanned += other.tuples_scanned;
        self.index_builds += other.index_builds;
    }

    /// Counter-wise difference since an earlier [`snapshot`] (saturating).
    pub fn since(&self, earlier: &ProbeTally) -> ProbeTally {
        ProbeTally {
            nodes_expanded: self.nodes_expanded.saturating_sub(earlier.nodes_expanded),
            index_probes: self.index_probes.saturating_sub(earlier.index_probes),
            tuples_scanned: self.tuples_scanned.saturating_sub(earlier.tuples_scanned),
            index_builds: self.index_builds.saturating_sub(earlier.index_builds),
        }
    }
}

/// Adds an entry point's summed tally to the process-wide registry: the
/// one writer of `cq.nodes_expanded`, `db.index_probes`,
/// `db.tuples_scanned` and `db.index_builds`.
pub fn record(tally: &ProbeTally) {
    counter!(NODES_EXPANDED).add(tally.nodes_expanded);
    counter!(INDEX_PROBES).add(tally.index_probes);
    counter!(TUPLES_SCANNED).add(tally.tuples_scanned);
    counter!(INDEX_BUILDS).add(tally.index_builds);
}

/// The registry's totals of the four work counters, as a tally. Totals
/// read while other threads are mid-run are approximate; read them around
/// joined work.
pub fn snapshot() -> ProbeTally {
    let registry = wdpt_obs::metrics_snapshot();
    ProbeTally {
        nodes_expanded: registry.counter(NODES_EXPANDED),
        index_probes: registry.counter(INDEX_PROBES),
        tuples_scanned: registry.counter(TUPLES_SCANNED),
        index_builds: registry.counter(INDEX_BUILDS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_and_saturates() {
        let count = |n: [u64; 4]| ProbeTally {
            nodes_expanded: n[0],
            index_probes: n[1],
            tuples_scanned: n[2],
            index_builds: n[3],
        };
        let d = count([4, 10, 1, 7]).since(&count([1, 10, 2, 5]));
        let counts = (d.nodes_expanded, d.index_probes, d.tuples_scanned);
        assert_eq!((counts, d.index_builds), ((3, 0, 0), 2));
    }

    #[test]
    fn tallies_add_counts() {
        let a = ProbeTally {
            nodes_expanded: 1,
            tuples_scanned: 4,
            ..ProbeTally::default()
        };
        let b = ProbeTally {
            index_builds: 2,
            tuples_scanned: 3,
            ..ProbeTally::default()
        };
        let mut sum = ProbeTally::default();
        sum.add(a);
        sum.add(b);
        let counts = (sum.nodes_expanded, sum.index_probes, sum.tuples_scanned);
        assert_eq!((counts, sum.index_builds), ((1, 0, 7), 2));
    }
}
