//! The cardinality-statistics catalog: per-relation and per-column counts
//! the cost model estimates with.
//!
//! A [`StatsCatalog`] is a pure summary of one [`Database`] version: row
//! counts, per-column distinct counts and the most common values per
//! column. It is built in one pass over the relations at load/reload/delta
//! time and is immutable afterwards — the serving layer pairs each
//! `Arc<Database>` with the `Arc<StatsCatalog>` built from it and swaps
//! both together, so a plan can never mix estimates from one data version
//! with execution against another.
//!
//! Every catalog carries a process-unique **epoch**. Cached plans remember
//! the epoch they were costed under; a lookup that observes a newer epoch
//! knows its orderings were chosen for stale statistics and re-plans.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use wdpt_model::{Const, Database, Pred, Relation};

/// Values a column's most-common-values list holds at most.
pub const MCV_ENTRIES: usize = 16;

/// Per-column statistics of one relation.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Distinct values in the column.
    pub distinct: u64,
    /// The (up to) [`MCV_ENTRIES`] most frequent values with their exact
    /// posting lengths, longest first; equally long lists are ranked by
    /// constant id, so the list does not depend on the order the relation
    /// streamed its values in.
    pub mcv: Vec<(Const, u64)>,
}

impl ColumnStats {
    /// Expected posting-list length of the constant `c`: exact when `c` is
    /// one of the most common values, otherwise the mean over the values
    /// that are not — `(rows − Σ listed) / (distinct − listed)` — which a
    /// heavy hitter cannot inflate. `0` when every value of the column is
    /// listed and `c` is none of them.
    pub fn est_posting(&self, c: Const, rows: u64) -> f64 {
        if let Some(&(_, n)) = self.mcv.iter().find(|(v, _)| *v == c) {
            return n as f64;
        }
        let listed: u64 = self.mcv.iter().map(|&(_, n)| n).sum();
        match self.distinct - self.mcv.len() as u64 {
            0 => 0.0,
            unlisted => (rows - listed) as f64 / unlisted as f64,
        }
    }
}

/// Statistics of one relation: its row count and one [`ColumnStats`] per
/// column.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationStats {
    /// Tuples in the relation.
    pub rows: u64,
    /// Per-column stats, indexed by column position.
    pub columns: Vec<ColumnStats>,
}

fn column_stats(rel: &Relation, col: usize) -> ColumnStats {
    let mut distinct = 0u64;
    let mut mcv: Vec<(Const, u64)> = Vec::with_capacity(MCV_ENTRIES + 1);
    let mut tally = |c: Const, n: u64| {
        distinct += 1;
        // Keep the list sorted (longest first, then by id); almost every
        // value fails the first comparison against its current tail.
        let ranks_before = |&(v, m): &(Const, u64)| (m, c) > (n, v);
        if mcv.len() < MCV_ENTRIES || mcv.last().is_some_and(|last| !ranks_before(last)) {
            let at = mcv.partition_point(ranks_before);
            mcv.insert(at, (c, n));
            mcv.truncate(MCV_ENTRIES);
        }
    };
    // Posting-list lengths are all the catalog needs, and the relation
    // streams them without building anything: one counting pass.
    rel.count_posting_lens(col, |c, n| tally(c, u64::from(n)));
    ColumnStats { distinct, mcv }
}

/// Process-wide epoch source; every built catalog gets the next value.
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// An immutable statistics snapshot of one database version.
#[derive(Debug)]
pub struct StatsCatalog {
    epoch: u64,
    relations: HashMap<Pred, RelationStats>,
}

impl StatsCatalog {
    /// Builds the catalog in one pass over `db`'s relations. Cost is
    /// `O(size(db))` — a counting pass per column — and is paid once per
    /// load/reload/delta-apply, off the query path.
    pub fn build(db: &Database) -> StatsCatalog {
        let _span = wdpt_obs::span!("plan.stats.build");
        let relations = db
            .relations()
            .map(|(pred, rel)| {
                let columns = (0..rel.arity()).map(|c| column_stats(rel, c)).collect();
                (
                    pred,
                    RelationStats {
                        rows: rel.len() as u64,
                        columns,
                    },
                )
            })
            .collect();
        StatsCatalog {
            epoch: EPOCH.fetch_add(1, Relaxed) + 1,
            relations,
        }
    }

    /// An empty catalog (no relations) with a fresh epoch; estimates all
    /// come out zero. Useful as a placeholder where no database exists.
    pub fn empty() -> StatsCatalog {
        StatsCatalog {
            epoch: EPOCH.fetch_add(1, Relaxed) + 1,
            relations: HashMap::new(),
        }
    }

    /// The process-unique epoch this catalog was built at. Strictly
    /// monotone across builds, so `plan_epoch != catalog.epoch()` detects
    /// staleness in either direction.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stats for `pred`, if the relation exists.
    pub fn relation(&self, pred: Pred) -> Option<&RelationStats> {
        self.relations.get(&pred)
    }

    /// Number of relations summarized.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True iff no relation is summarized.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_model::parse::parse_database;
    use wdpt_model::Interner;

    #[test]
    fn counts_rows_and_distinct() {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "e(a,x) e(a,y) e(a,z) e(b,x)").unwrap();
        let cat = StatsCatalog::build(&db);
        let rs = cat.relation(i.pred("e")).unwrap();
        assert_eq!(rs.rows, 4);
        assert_eq!(rs.columns[0].distinct, 2); // a, b
        assert_eq!(rs.columns[1].distinct, 3); // x, y, z
    }

    #[test]
    fn every_source_of_posting_lengths_gives_the_same_statistics() {
        let mut i = Interner::new();
        // Column 0: `hot` 5×, then 39 values in 13 groups of three whose
        // members occur equally often — more candidates than the list
        // holds, cut in the middle of a tie. Column 1: all distinct.
        let mut spec = String::new();
        for j in 0..5 {
            spec.push_str(&format!("e(hot,x{j}) "));
        }
        for v in 0..39 {
            for j in 0..1 + v % 13 % 4 {
                spec.push_str(&format!("e(v{v},y{v}_{j}) "));
            }
        }
        let db = parse_database(&mut i, &spec).unwrap();
        let e = i.pred("e");
        let rows: Vec<Vec<Const>> = db
            .relation(e)
            .unwrap()
            .tuples()
            .map(<[_]>::to_vec)
            .collect();
        let stats_of = |rel: Relation| {
            let catalog = StatsCatalog::build(&Database::from_sorted(vec![(e, rel)]));
            catalog.relation(e).unwrap().clone()
        };
        // The same tuples four ways. Built in bulk:
        let bulk = Relation::from_sorted(2, rows.len(), rows.concat());
        let stats = stats_of(bulk.clone());
        bulk.build_all_indexes();
        assert_eq!(stats, stats_of(bulk), "permutations change nothing");
        // Arriving through inserts, the last few still in the pending run
        // (three rows are below any fold threshold) …
        let (early, late) = rows.split_at(rows.len() - 3);
        let early = Relation::from_sorted(2, early.len(), early.concat());
        let mut inserted = Database::from_sorted(vec![(e, early)]);
        for row in late {
            assert!(inserted.insert(e, row.clone()));
        }
        let pending = inserted.relation(e).unwrap().clone();
        assert_eq!(stats, stats_of(pending.clone()));
        // … and after the fold.
        let (arity, len, cells) = pending.into_parts();
        assert_eq!(stats, stats_of(Relation::from_sorted(arity, len, cells)));
        // Decoded from a snapshot file.
        let bytes = wdpt_store::snapshot_to_vec_v2(&i, &db).unwrap();
        let (_, decoded) = wdpt_store::decode_snapshot(&bytes).unwrap();
        assert_eq!(stats, stats_of(decoded.relation(e).unwrap().clone()));

        let mcv = &stats.columns[0].mcv;
        assert_eq!(mcv.len(), MCV_ENTRIES);
        assert_eq!(mcv[0], (i.constant("hot"), 5));
        // Longest first, and within one length by constant id.
        assert!(mcv.windows(2).all(|w| (w[0].1, w[1].0) > (w[1].1, w[0].0)));
    }

    #[test]
    fn a_short_column_lists_every_value_and_divides_by_nothing() {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "e(a,x) e(a,y) e(b,x)").unwrap();
        let cat = StatsCatalog::build(&db);
        let rs = cat.relation(i.pred("e")).unwrap();
        let c0 = &rs.columns[0];
        assert_eq!(c0.mcv, vec![(i.constant("a"), 2), (i.constant("b"), 1)]);
        assert_eq!(c0.est_posting(i.constant("a"), rs.rows), 2.0);
        // Every value is listed, so a constant that is not has no tuples —
        // and there is no "other values" mean to take.
        assert_eq!(c0.est_posting(i.constant("x"), rs.rows), 0.0);
        let empty = ColumnStats {
            distinct: 0,
            mcv: Vec::new(),
        };
        assert_eq!(empty.est_posting(i.constant("a"), 0), 0.0);
    }

    #[test]
    fn epochs_are_unique_and_monotone() {
        let db = Database::new();
        let a = StatsCatalog::build(&db);
        let b = StatsCatalog::build(&db);
        let c = StatsCatalog::empty();
        assert!(a.epoch() < b.epoch());
        assert!(b.epoch() < c.epoch());
    }
}
