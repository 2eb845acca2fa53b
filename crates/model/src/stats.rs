//! Lightweight engine counters — compatibility facade over [`wdpt_obs`].
//!
//! The seed version of this module owned five hard-coded process-wide
//! atomics. Those now live in the `wdpt-obs` metrics registry as named
//! counters (so they show up in [`QueryProfile`](wdpt_obs::QueryProfile)s
//! and machine-readable benchmark output alongside everything else), and
//! this module keeps the original API — [`StatsSnapshot`], [`snapshot`],
//! [`reset`], the `record_*` helpers — on top of it. Existing tests and
//! benches keep working unchanged.
//!
//! The counters remain relaxed monotone event tallies with no
//! synchronizing role: increments stay cheap enough for the hot path and
//! aggregate correctly across the worker threads of the parallel
//! evaluator. Snapshots taken while other threads are mid-run are
//! approximate; take them around joined work for exact counts.

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

/// A point-in-time copy of the five engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Column permutations built: one per relation run and column, by the
    /// first probe that binds the column without the columns before it. A
    /// probe on a leading prefix builds nothing.
    pub index_builds: u64,
    /// Searches of a relation: one per prefix search, one per column lookup.
    pub index_probes: u64,
    /// Candidate tuples examined by the searches and `Relation::matching`.
    pub tuples_scanned: u64,
    /// Search nodes expanded by the backtracking CQ engine.
    pub nodes_expanded: u64,
    /// Work items executed by the parallel WDPT evaluator.
    pub parallel_tasks: u64,
}

impl StatsSnapshot {
    /// Counter-wise difference since an earlier snapshot (saturating, so a
    /// concurrent `reset` cannot produce wrap-around nonsense).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            index_builds: self.index_builds.saturating_sub(earlier.index_builds),
            index_probes: self.index_probes.saturating_sub(earlier.index_probes),
            tuples_scanned: self.tuples_scanned.saturating_sub(earlier.tuples_scanned),
            nodes_expanded: self.nodes_expanded.saturating_sub(earlier.nodes_expanded),
            parallel_tasks: self.parallel_tasks.saturating_sub(earlier.parallel_tasks),
        }
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "index_builds={} index_probes={} tuples_scanned={} nodes_expanded={} parallel_tasks={}",
            self.index_builds,
            self.index_probes,
            self.tuples_scanned,
            self.nodes_expanded,
            self.parallel_tasks
        )
    }
}

/// Copies the five engine counters out of the `wdpt-obs` registry.
pub fn snapshot() -> StatsSnapshot {
    StatsSnapshot {
        index_builds: counter!(INDEX_BUILDS).get(),
        index_probes: counter!(INDEX_PROBES).get(),
        tuples_scanned: counter!(TUPLES_SCANNED).get(),
        nodes_expanded: counter!(NODES_EXPANDED).get(),
        parallel_tasks: counter!(PARALLEL_TASKS).get(),
    }
}

/// Zeroes the five engine counters. Tests that assert on absolute counts
/// should prefer [`StatsSnapshot::since`] — the counters are process-wide
/// and the test harness runs tests concurrently.
pub fn reset() {
    counter!(INDEX_BUILDS).reset();
    counter!(INDEX_PROBES).reset();
    counter!(TUPLES_SCANNED).reset();
    counter!(NODES_EXPANDED).reset();
    counter!(PARALLEL_TASKS).reset();
}

#[inline]
pub(crate) fn record_index_build() {
    counter!(INDEX_BUILDS).incr();
}

/// Records `n` relation probes in one batch (see
/// [`ProbeTally`](crate::database::ProbeTally)).
#[inline]
pub(crate) fn record_index_probes(n: u64) {
    counter!(INDEX_PROBES).add(n);
}

/// Records `n` candidate tuples scanned in one batch. Searches count
/// locally and flush once rather than paying one atomic RMW per tuple.
#[inline]
pub(crate) fn record_tuples_scanned(n: u64) {
    counter!(TUPLES_SCANNED).add(n);
}

/// Records `n` expanded search nodes in one batch (called by the CQ
/// engines, which count per search).
#[inline]
pub fn record_nodes_expanded(n: u64) {
    counter!(NODES_EXPANDED).add(n);
}

/// Records `n` executed parallel work items (called by the WDPT
/// evaluator, once per worker).
#[inline]
pub fn record_parallel_tasks(n: u64) {
    counter!(PARALLEL_TASKS).add(n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_is_monotone_and_saturating() {
        let a = StatsSnapshot {
            index_builds: 5,
            index_probes: 10,
            tuples_scanned: 2,
            nodes_expanded: 1,
            parallel_tasks: 0,
        };
        let b = StatsSnapshot {
            index_builds: 7,
            index_probes: 10,
            tuples_scanned: 1,
            nodes_expanded: 4,
            parallel_tasks: 2,
        };
        let d = b.since(&a);
        assert_eq!(d.index_builds, 2);
        assert_eq!(d.index_probes, 0);
        assert_eq!(d.tuples_scanned, 0); // saturates instead of wrapping
        assert_eq!(d.nodes_expanded, 3);
        assert_eq!(d.parallel_tasks, 2);
    }

    #[test]
    fn display_names_every_counter() {
        let s = snapshot().to_string();
        for key in [
            "index_builds",
            "index_probes",
            "tuples_scanned",
            "nodes_expanded",
            "parallel_tasks",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    #[test]
    fn facade_and_registry_agree() {
        let before = snapshot();
        record_nodes_expanded(1);
        record_tuples_scanned(3);
        let delta = snapshot().since(&before);
        assert!(delta.nodes_expanded >= 1);
        assert!(delta.tuples_scanned >= 3);
        // The same events are visible under their registry names.
        let m = wdpt_obs::metrics_snapshot();
        assert!(m.counter(NODES_EXPANDED) >= delta.nodes_expanded);
        assert!(m.counter(TUPLES_SCANNED) >= delta.tuples_scanned);
    }
}
