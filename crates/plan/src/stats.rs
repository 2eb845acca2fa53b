//! The cardinality-statistics catalog: per-relation and per-column counts
//! the cost model estimates with.
//!
//! A [`StatsCatalog`] is a pure summary of one [`Database`] version: row
//! counts, per-column distinct counts and the most common values per
//! column. It is immutable once made, and made one of two ways:
//!
//! * **built** ([`StatsCatalog::build`]): one counting pass over every
//!   column of the database — at startup and wherever no earlier counts
//!   exist;
//! * **derived** ([`CountedCatalog::derive`]): from the kept posting
//!   lengths of a base database plus the rows a delta chain inserted into
//!   it, in time proportional to the inserted rows. A reload of a base the
//!   server kept takes this path; the result equals a build of the merged
//!   database field for field.
//!
//! The serving layer pairs each `Arc<Database>` with the `Arc<StatsCatalog>`
//! made from it and swaps both together, so a plan can never mix estimates
//! from one data version with execution against another.
//!
//! Every catalog carries a process-unique **epoch**. Cached plans remember
//! the epoch they were costed under; a lookup that observes a newer epoch
//! knows its orderings were chosen for stale statistics and re-plans.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use wdpt_model::{Const, Database, PostingCounts, Pred, Relation};
use wdpt_obs::counter;

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

    /// Ranks one column's posting lengths into its statistics.
    fn ranked(counts: &PostingCounts) -> ColumnStats {
        let mut stats = ColumnStats {
            distinct: 0,
            mcv: Vec::with_capacity(MCV_ENTRIES + 1),
        };
        counts.for_each(|c, n| {
            stats.distinct += 1;
            stats.offer(c, u64::from(n));
        });
        stats
    }

    /// The statistics of this column, whose posting lengths are `counts`,
    /// once values counted `added` more times are inserted into it (see
    /// [`CountedCatalog::derive`]).
    fn with_added(&self, counts: &PostingCounts, added: &PostingCounts) -> ColumnStats {
        let mut stats = ColumnStats {
            distinct: self.distinct,
            mcv: Vec::with_capacity(MCV_ENTRIES + 1),
        };
        added.for_each(|c, n| {
            let was = counts.get(c);
            stats.distinct += u64::from(was == 0);
            stats.offer(c, u64::from(was) + u64::from(n));
        });
        for &(c, n) in &self.mcv {
            if added.get(c) == 0 {
                stats.offer(c, n);
            }
        }
        stats
    }

    /// Offers the value `c`, held by `n` tuples, to the most-common-values
    /// list: the one ranking rule, longest first and then by id, that a
    /// build and a derivation share. The list comes out the same whatever
    /// order distinct values are offered in.
    fn offer(&mut self, c: Const, n: u64) {
        // Almost every value fails the first comparison against the tail.
        let ranks_before = |&(v, m): &(Const, u64)| (m, c) > (n, v);
        let mcv = &mut self.mcv;
        if mcv.len() < MCV_ENTRIES || mcv.last().is_some_and(|last| !ranks_before(last)) {
            let at = mcv.partition_point(ranks_before);
            mcv.insert(at, (c, n));
            mcv.truncate(MCV_ENTRIES);
        }
    }

    /// Checks what every exact column statistics satisfies: the list holds
    /// `min(distinct, MCV_ENTRIES)` values of positive count, strictly in
    /// ranking order, whose counts sum to at most `rows`, and `distinct ≤
    /// rows`. A violation would make [`ColumnStats::est_posting`] divide
    /// garbage or wrap.
    fn check(&self, rows: u64) -> Result<(), String> {
        let listed: u64 = self.mcv.iter().map(|&(_, n)| n).sum();
        if self.mcv.len() as u64 != self.distinct.min(MCV_ENTRIES as u64) {
            return Err(format!(
                "{} values listed of {} distinct",
                self.mcv.len(),
                self.distinct
            ));
        }
        if self.distinct > rows || listed > rows {
            return Err(format!(
                "{} distinct and {listed} listed tuples exceed {rows} rows",
                self.distinct
            ));
        }
        if self.mcv.iter().any(|&(_, n)| n == 0) {
            return Err("a listed value holds no tuple".to_string());
        }
        if !self
            .mcv
            .windows(2)
            .all(|w| (w[0].1, w[1].0) > (w[1].1, w[0].0))
        {
            return Err(format!("list out of ranking order: {:?}", self.mcv));
        }
        Ok(())
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

/// Counts one column of `rel` in full — the work a derivation saves.
fn count_column(rel: &Relation, col: usize) -> PostingCounts {
    counter!("plan.stats.columns_counted").incr();
    rel.posting_counts(col)
}

/// Process-wide epoch source; every catalog made gets the next value.
static EPOCH: AtomicU64 = AtomicU64::new(0);

fn next_epoch() -> u64 {
    EPOCH.fetch_add(1, Relaxed) + 1
}

/// An immutable statistics snapshot of one database version.
#[derive(Debug)]
pub struct StatsCatalog {
    epoch: u64,
    relations: HashMap<Pred, RelationStats>,
}

impl StatsCatalog {
    /// Builds the catalog in one pass over `db`'s relations. Cost is
    /// `O(size(db))` — a counting pass per column — and is paid off the
    /// query path.
    pub fn build(db: &Database) -> StatsCatalog {
        StatsCatalog::count(db, |_, _| {})
    }

    /// The counting pass every full catalog is made by: counts each column
    /// of `db` once, ranks it and hands its counts to `keep`, column by
    /// column in order.
    fn count(db: &Database, mut keep: impl FnMut(Pred, PostingCounts)) -> StatsCatalog {
        let relations = db
            .relations()
            .map(|(pred, rel)| {
                let columns = (0..rel.arity())
                    .map(|col| {
                        let counts = count_column(rel, col);
                        let stats = ColumnStats::ranked(&counts);
                        keep(pred, counts);
                        stats
                    })
                    .collect();
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
            epoch: next_epoch(),
            relations,
        }
    }

    /// An empty catalog (no relations) with a fresh epoch; estimates all
    /// come out zero. Useful as a placeholder where no database exists.
    pub fn empty() -> StatsCatalog {
        StatsCatalog {
            epoch: next_epoch(),
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

    /// Every summarized relation with its stats, in unspecified order.
    pub fn relations(&self) -> impl Iterator<Item = (Pred, &RelationStats)> + '_ {
        self.relations.iter().map(|(&p, s)| (p, s))
    }

    /// Number of relations summarized.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True iff no relation is summarized.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Checks every column against the invariants exact statistics
    /// satisfy (see [`ColumnStats`]); names the first column that fails.
    pub fn check(&self) -> Result<(), String> {
        for (pred, rel) in &self.relations {
            for (col, stats) in rel.columns.iter().enumerate() {
                stats
                    .check(rel.rows)
                    .map_err(|e| format!("predicate {} column {col}: {e}", pred.0))?;
            }
        }
        Ok(())
    }
}

/// A catalog together with the posting lengths it was ranked from: what a
/// later catalog — the same database plus inserted rows — is derived from
/// instead of recounted. It costs one [`PostingCounts`] per column: a `u32`
/// per id for a column of dense ids.
#[derive(Debug)]
pub struct CountedCatalog {
    catalog: StatsCatalog,
    counts: HashMap<Pred, Vec<PostingCounts>>,
}

impl CountedCatalog {
    /// Counts every column of `db` in full — the pass
    /// [`StatsCatalog::build`] makes — keeping the counts.
    pub fn count(db: &Database) -> CountedCatalog {
        let mut counts: HashMap<Pred, Vec<PostingCounts>> = HashMap::new();
        let catalog = StatsCatalog::count(db, |pred, column| {
            counts.entry(pred).or_default().push(column)
        });
        CountedCatalog { catalog, counts }
    }

    /// The catalog of the counted database.
    pub fn catalog(&self) -> &StatsCatalog {
        &self.catalog
    }

    /// The catalog of the counted database with the rows of `added`
    /// inserted — rows it does not hold, per relation, at the relation's
    /// arity — under a fresh epoch. It equals [`StatsCatalog::build`] of
    /// the merged database and costs a counting pass over `added` only:
    ///
    /// * `rows` grows by the added rows;
    /// * `distinct` grows by the added values the base does not hold;
    /// * the list is ranked from the added values at their new counts and
    ///   the base list's untouched entries. No other value can enter it: an
    ///   untouched value outside a cut base list ranks below all of that
    ///   list's entries, whose counts only grew.
    ///
    /// Relations `added` does not name keep their stats.
    pub fn derive(&self, added: &Database) -> StatsCatalog {
        let mut relations = HashMap::with_capacity(self.catalog.len() + added.predicate_count());
        for (&pred, stats) in &self.catalog.relations {
            if added.relation(pred).is_none() {
                relations.insert(pred, stats.clone());
            }
        }
        for (pred, rel) in added.relations() {
            let base = self.catalog.relations.get(&pred);
            let columns = (0..rel.arity())
                .map(|col| {
                    let added = rel.posting_counts(col);
                    match base {
                        Some(stats) => {
                            stats.columns[col].with_added(&self.counts[&pred][col], &added)
                        }
                        None => ColumnStats::ranked(&added),
                    }
                })
                .collect();
            let rows = base.map_or(0, |stats| stats.rows) + rel.len() as u64;
            relations.insert(pred, RelationStats { rows, columns });
        }
        let derived = StatsCatalog {
            epoch: next_epoch(),
            relations,
        };
        debug_assert_eq!(derived.check(), Ok(()));
        derived
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
    fn the_invariant_check_refuses_what_no_exact_catalog_holds() {
        let (a, b) = (Const(1), Const(2));
        let column = |distinct, mcv: &[(Const, u64)]| ColumnStats {
            distinct,
            mcv: mcv.to_vec(),
        };
        assert_eq!(column(2, &[(a, 3), (b, 1)]).check(4), Ok(()));
        assert_eq!(column(2, &[(a, 2), (b, 2)]).check(4), Ok(()));
        for (bad, rows) in [
            (column(2, &[(b, 2), (a, 2)]), 4), // a tie out of id order
            (column(2, &[(b, 1), (a, 3)]), 4), // shorter first
            (column(3, &[(a, 3), (b, 1)]), 4), // a value missing from the list
            (column(2, &[(a, 3), (b, 2)]), 4), // more listed than rows
            (column(2, &[(a, 1), (b, 0)]), 4), // a listed value holds nothing
            (column(5, &[(a, 1)]), 4),         // more distinct than rows
        ] {
            assert!(bad.check(rows).is_err(), "{bad:?} over {rows} rows");
        }
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
