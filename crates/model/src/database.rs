//! Databases: finite sets of ground atoms, each relation one flat sorted run.
//!
//! A database `D` over schema `σ` is a set of ground relational atoms
//! (Section 2 of the paper). [`Database`] stores one [`Relation`] per
//! predicate, and a relation is its tuples and nothing else: one
//! arity-strided, strictly sorted `Vec<Const>` — row `r` at
//! `[r * arity, (r + 1) * arity)`, rows ascending lexicographically on the
//! `Const` ids, no duplicates. The CQ engines probe that run in place:
//!
//! * a probe whose bound columns form a **leading prefix** is a binary
//!   search for the first match and a gallop to the last, and returns
//!   exactly the matching rows — nothing is built, nothing is filtered;
//! * any other bound column goes through a **row-id permutation** of that
//!   column (the run's row ids sorted by the column's value, 4 bytes per
//!   row), built by one counting or comparison sort on the first probe
//!   that needs it and counted as `db.index_builds`;
//! * membership is a binary search.
//!
//! The run sits behind an [`Arc`], so cloning a relation — and with it a
//! [`Database`] — copies no rows. [`Database::insert`] lands rows in a
//! small sorted *pending run* owned by the one relation being mutated; every
//! probe consults both runs, and the pending run is folded into the main
//! run (one merge, which also drops the permutations) when it outgrows a
//! fixed share of it, so an insert costs an amortised constant number of
//! row copies and an interleaved insert/probe workload never rebuilds a
//! permutation per insert.
//!
//! What is built on demand — the column permutations, the active domain —
//! lives behind [`OnceLock`]s, so a `Database` is [`Sync`] and can be shared
//! by reference across the worker threads of the parallel WDPT evaluator;
//! concurrent first probes are safe (one thread sorts, the others reuse the
//! result).

use crate::atom::Atom;
use crate::interner::Interner;
use crate::stats;
use crate::term::{Const, Pred};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use wdpt_obs::{histogram, LocalHistogram};

/// The index work of one search, counted locally — readable by whoever runs
/// the search — and added to the shared counters in one batch when the tally
/// is dropped. Probes and candidate
/// tuples sit on the innermost loop of every engine: a relaxed `fetch_add`
/// per tuple and four more per probe for the posting-length histogram are
/// measurable there, a local increment is not. Whoever runs a search owns
/// one and lends it to every [`Relation::candidates`] call of that search;
/// [`Relation::matching`] keeps its own.
#[derive(Debug)]
pub struct ProbeTally {
    probes: u64,
    scanned: u64,
    /// Number of rows each probe settled on. The distribution is only kept
    /// by a tally made while tracing is on (profiled runs), as it was when
    /// every probe recorded into the shared histogram directly; the others
    /// carry no buckets at all.
    posting_lens: Option<Box<LocalHistogram>>,
}

impl Default for ProbeTally {
    fn default() -> Self {
        ProbeTally {
            probes: 0,
            scanned: 0,
            posting_lens: wdpt_obs::tracing_enabled().then(Box::default),
        }
    }
}

impl ProbeTally {
    /// Counts `n` candidate tuples examined.
    #[inline]
    pub fn add_scanned(&mut self, n: u64) {
        self.scanned += n;
    }

    /// Index probes counted so far: what dropping the tally adds to
    /// `db.index_probes`.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Candidate tuples counted so far: what dropping the tally adds to
    /// `db.tuples_scanned`.
    pub fn scanned(&self) -> u64 {
        self.scanned
    }
}

impl Drop for ProbeTally {
    fn drop(&mut self) {
        stats::record_index_probes(self.probes);
        stats::record_tuples_scanned(self.scanned);
        if let Some(lens) = &self.posting_lens {
            histogram!("db.posting_list_len").merge(lens);
        }
    }
}

/// The half-open range of the indices in `0..len` at which `cmp` is
/// `Equal`, for a `cmp` that is `Less` on a prefix of the indices, then
/// `Equal`, then `Greater`: a binary search for the first match, then —
/// matches being few next to a run — a gallop past the last one and a
/// bisection of the final stride.
fn equal_range(len: usize, cmp: impl Fn(usize) -> Ordering) -> Range<usize> {
    // Written so that each step is a conditional move, not a branch the
    // predictor gets wrong every other time.
    let (mut lo, mut size) = (0, len);
    while size > 0 {
        let half = size / 2;
        let less = cmp(lo + half) == Ordering::Less;
        lo = if less { lo + half + 1 } else { lo };
        size = if less { size - half - 1 } else { half };
    }
    let start = lo;
    // `[start, end)` is Equal, `[limit, len)` is Greater.
    let (mut end, mut limit, mut step) = (start, len, 1);
    while end < limit {
        let probe = (end + step - 1).min(limit - 1);
        if cmp(probe) == Ordering::Equal {
            end = probe + 1;
            step *= 2;
        } else {
            limit = probe;
            break;
        }
    }
    while end < limit {
        let mid = end + (limit - end) / 2;
        if cmp(mid) == Ordering::Equal {
            end = mid + 1;
        } else {
            limit = mid;
        }
    }
    start..end
}

/// Constant ids count as dense when the largest is within a small multiple
/// of the number of rows holding them: then an array indexed by id replaces
/// sorting (a triple store's ids are the dictionary positions, far fewer
/// than its rows), and otherwise the array could dwarf the data.
fn ids_are_dense(max_id: u32, rows: usize) -> bool {
    (max_id as usize) < 4 * rows + 1024
}

/// A block of rows inside a flat cell slice, borrowed.
#[derive(Debug, Clone, Copy)]
struct Rows<'a> {
    cells: &'a [Const],
    arity: usize,
    len: usize,
}

impl<'a> Rows<'a> {
    /// `len` rows of `arity` cells each, flat in `cells`.
    fn new(cells: &'a [Const], arity: usize, len: usize) -> Rows<'a> {
        assert_eq!(
            cells.len(),
            len * arity,
            "{} cells are not {len} rows of arity {arity}",
            cells.len()
        );
        Rows { cells, arity, len }
    }

    #[inline]
    fn row(&self, r: usize) -> &'a [Const] {
        &self.cells[r * self.arity..(r + 1) * self.arity]
    }

    fn slice(&self, range: Range<usize>) -> Rows<'a> {
        let (arity, len) = (self.arity, range.len());
        let cells = &self.cells[range.start * arity..range.end * arity];
        Rows { cells, arity, len }
    }

    /// The rows whose leading cells are `prefix`, the block being sorted.
    /// One and two cells — a subject, a subject and a predicate — are
    /// compared as one integer; this search is the innermost step of every
    /// engine.
    fn with_prefix(&self, prefix: &[Const]) -> Rows<'a> {
        let (cells, arity) = (self.cells, self.arity);
        let pair = |a: Const, b: Const| u64::from(a.0) << 32 | u64::from(b.0);
        self.slice(match *prefix {
            [] => 0..self.len,
            [a] => equal_range(self.len, |r| cells[r * arity].cmp(&a)),
            [a, b] => equal_range(self.len, |r| {
                pair(cells[r * arity], cells[r * arity + 1]).cmp(&pair(a, b))
            }),
            _ => equal_range(self.len, |r| self.row(r)[..prefix.len()].cmp(prefix)),
        })
    }

    fn iter(&self) -> RowIter<'a> {
        RowIter(*self)
    }

    /// `Err(why)` unless the rows are strictly ascending.
    fn check_sorted(&self) -> Result<(), &'static str> {
        for r in 1..self.len {
            match self.row(r - 1).cmp(self.row(r)) {
                Ordering::Less => {}
                Ordering::Equal => return Err("duplicate tuple in sorted run"),
                Ordering::Greater => return Err("run not sorted"),
            }
        }
        Ok(())
    }
}

/// Walks a block of rows front to back. Counts rows rather than cells, so
/// the one row a nullary relation can hold is walked like any other.
#[derive(Debug, Clone)]
struct RowIter<'a>(Rows<'a>);

impl<'a> RowIter<'a> {
    fn peek(&self) -> Option<&'a [Const]> {
        (self.0.len > 0).then(|| &self.0.cells[..self.0.arity])
    }
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Const];

    #[inline]
    fn next(&mut self) -> Option<&'a [Const]> {
        if self.0.len == 0 {
            return None;
        }
        let (row, rest) = self.0.cells.split_at(self.0.arity);
        self.0.cells = rest;
        self.0.len -= 1;
        Some(row)
    }
}

/// Merges the strictly sorted rows of `add` into the `run_rows` strictly
/// sorted rows of `run`, in place and from the top down, so rows below the
/// lowest insertion point never move — a delta of new subjects appends.
/// `Err(j)` if row `j` of `add` is already in `run`, which is then left in
/// an unspecified state.
fn merge_rows(run: &mut Vec<Const>, run_rows: usize, add: Rows<'_>) -> Result<(), usize> {
    let arity = add.arity;
    run.resize((run_rows + add.len) * arity, Const(0));
    // Old rows not yet moved sit at `[0, left)`; rows from `hole` up are final.
    let (mut left, mut hole) = (run_rows, run_rows + add.len);
    for j in (0..add.len).rev() {
        let row = add.row(j);
        let old = Rows::new(&run[..left * arity], arity, left);
        // Old rows above `row` move up. Often there are none — ascending
        // inserts, a delta of new subjects — and no search is needed.
        let at = if left > 0 && old.row(left - 1) >= row {
            equal_range(left, |r| old.row(r).cmp(row))
        } else {
            left..left
        };
        if !at.is_empty() {
            return Err(j);
        }
        let moved = left - at.start;
        run.copy_within(at.start * arity..left * arity, (hole - moved) * arity);
        hole -= moved + 1;
        left = at.start;
        run[hole * arity..(hole + 1) * arity].copy_from_slice(row);
    }
    debug_assert_eq!(left, hole);
    Ok(())
}

/// The folded part of a relation: one strictly sorted block of rows plus
/// what is derived from it, shared by every clone of the relation.
#[derive(Debug)]
struct Run {
    arity: usize,
    rows: usize,
    /// `rows × arity` cells, row-major.
    cells: Vec<Const>,
    /// Per column, the row ids sorted by (cell, row id), built by the first
    /// probe that binds the column without binding every column before it.
    /// Column 0 never needs one: the run itself is sorted by it.
    perms: Vec<OnceLock<Vec<u32>>>,
}

impl Run {
    fn new(arity: usize, rows: usize, cells: Vec<Const>) -> Run {
        debug_assert_eq!(cells.len(), rows * arity);
        // Permutations address rows by `u32`; insert and the bulk paths
        // bound the count before they get here.
        assert!(
            u32::try_from(rows).is_ok(),
            "relation of {rows} rows exceeds the u32 row-id space"
        );
        Run {
            arity,
            rows,
            cells,
            perms: (0..arity).map(|_| OnceLock::new()).collect(),
        }
    }

    fn rows(&self) -> Rows<'_> {
        Rows::new(&self.cells, self.arity, self.rows)
    }

    fn perm(&self, col: usize) -> &[u32] {
        self.perms[col].get_or_init(|| {
            let rows = self.rows();
            let cell = |r: usize| rows.cells[r * rows.arity + col].0;
            let Some(max) = (0..rows.len).map(cell).max() else {
                return Vec::new();
            };
            stats::record_index_build();
            if !ids_are_dense(max, rows.len) {
                let mut perm: Vec<u32> = (0..rows.len as u32).collect();
                perm.sort_unstable_by_key(|&r| (cell(r as usize), r));
                return perm;
            }
            // Counting sort: `next[v]` is the slot of the next row holding `v`.
            let mut next = vec![0u32; max as usize + 2];
            for r in 0..rows.len {
                next[cell(r) as usize + 1] += 1;
            }
            for v in 1..next.len() {
                next[v] += next[v - 1];
            }
            let mut perm = vec![0u32; rows.len];
            for r in 0..rows.len {
                let slot = &mut next[cell(r) as usize];
                perm[*slot as usize] = r as u32;
                *slot += 1;
            }
            perm
        })
    }
}

/// The rows one probe has to look at, in no particular order: exactly the
/// rows matching the constraint the probe settled on — a leading prefix or
/// one column — or every row when nothing is bound. The caller checks the
/// remaining columns itself.
#[derive(Debug, Clone)]
pub struct Candidates<'a> {
    main: MainRows<'a>,
    pending: PendingRows<'a>,
}

#[derive(Debug, Clone)]
enum MainRows<'a> {
    /// Consecutive rows of the main run.
    Block(RowIter<'a>),
    /// Rows of the main run named by a stretch of a column permutation.
    Picked {
        rows: Rows<'a>,
        ids: std::slice::Iter<'a, u32>,
    },
}

#[derive(Debug, Clone)]
enum PendingRows<'a> {
    /// Consecutive rows of the pending run.
    Block(RowIter<'a>),
    /// The `left` rows, among those not yet walked, whose `col` is `value`.
    Holding {
        rows: RowIter<'a>,
        col: usize,
        value: Const,
        left: usize,
    },
}

impl Candidates<'_> {
    /// Number of rows left to yield.
    pub fn len(&self) -> usize {
        let main = match &self.main {
            MainRows::Block(rows) => rows.0.len,
            MainRows::Picked { ids, .. } => ids.len(),
        };
        let pending = match &self.pending {
            PendingRows::Block(rows) => rows.0.len,
            PendingRows::Holding { left, .. } => *left,
        };
        main + pending
    }

    /// True iff no row is left.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<'a> Iterator for Candidates<'a> {
    type Item = &'a [Const];

    #[inline]
    fn next(&mut self) -> Option<&'a [Const]> {
        let main = match &mut self.main {
            MainRows::Block(rows) => rows.next(),
            MainRows::Picked { rows, ids } => ids.next().map(|&r| rows.row(r as usize)),
        };
        if main.is_some() {
            return main;
        }
        match &mut self.pending {
            PendingRows::Block(rows) => rows.next(),
            PendingRows::Holding {
                rows,
                col,
                value,
                left,
            } => {
                *left = left.checked_sub(1)?;
                rows.find(|row| row[*col] == *value)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len(), Some(self.len()))
    }
}

/// The iterator behind [`Relation::matching`]: the candidates of the probe,
/// filtered by the pattern. Counts what it examined and reports it when
/// dropped, exhausted or not.
#[derive(Debug)]
pub struct Matching<'a> {
    candidates: Candidates<'a>,
    pattern: &'a [Option<Const>],
    tally: ProbeTally,
}

impl<'a> Iterator for Matching<'a> {
    type Item = &'a [Const];

    fn next(&mut self) -> Option<&'a [Const]> {
        for t in self.candidates.by_ref() {
            self.tally.scanned += 1;
            let hit = self
                .pattern
                .iter()
                .zip(t)
                .all(|(p, v)| p.is_none_or(|c| c == *v));
            if hit {
                return Some(t);
            }
        }
        None
    }
}

/// A relation outgrew the `u32` row-id space: column permutations, snapshot
/// row counts, and delta row counts all address tuples by `u32`, so row
/// `u32::MAX + 1` cannot be represented. Surfaced as a typed error by
/// [`Database::try_insert`] and the `wdpt-store` bulk paths instead of the
/// silent `as u32` wrap-around the seed had, which would alias row ids past
/// 4Gi tuples and corrupt every index built afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyRows {
    /// The row id (= prior tuple count) that did not fit in a `u32`.
    pub rows: u64,
}

impl std::fmt::Display for TooManyRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "relation row id {} exceeds the u32 index space",
            self.rows
        )
    }
}

impl std::error::Error for TooManyRows {}

/// Checked conversion of a tuple position into the `u32` row-id space used
/// by every column permutation and snapshot field.
pub fn row_id(row: usize) -> Result<u32, TooManyRows> {
    u32::try_from(row).map_err(|_| TooManyRows { rows: row as u64 })
}

/// Rows a pending run may hold whatever the size of the main run …
const PENDING_FLOOR: usize = 32;
/// … and the share of the main run, `1 / PENDING_SHARE`, it may grow to
/// beyond that before it is folded in. A fold copies the main run once, so
/// an insert pays for at most `PENDING_SHARE` row copies amortised, and a
/// probe of a column that needs a permutation walks at most that share of
/// the relation linearly.
const PENDING_SHARE: usize = 16;

/// Bound leading columns a probe searches for in one go; a longer bound
/// prefix (arity above 8, every column bound) is searched by its first
/// eight cells and the caller's filter does the rest.
const PREFIX_CELLS: usize = 8;

/// The extension of a single predicate: a set of constant tuples, held as
/// a strictly sorted main run — shared with every clone of the relation —
/// plus the sorted pending run of the rows inserted since the last fold.
/// The two are disjoint, every accessor consults both, and the difference
/// never shows through the query API. See the module docs for how probes
/// use them.
#[derive(Debug, Clone)]
pub struct Relation {
    run: Arc<Run>,
    /// `pending_rows × arity` cells, strictly sorted, none in the main run.
    pending: Vec<Const>,
    pending_rows: usize,
}

impl Default for Relation {
    fn default() -> Self {
        Relation::new(0)
    }
}

impl Relation {
    fn new(arity: usize) -> Self {
        Relation::over(Run::new(arity, 0, Vec::new()))
    }

    fn over(run: Run) -> Self {
        Relation {
            run: Arc::new(run),
            pending: Vec::new(),
            pending_rows: 0,
        }
    }

    /// Builds a relation directly from a **strictly sorted** flat run of
    /// `rows` tuples (`rows × arity` cells, row-major, rows ascending
    /// lexicographically on the `Const` ids, no duplicates), skipping the
    /// per-tuple insert path.
    ///
    /// # Panics
    /// Panics — in release builds too, because every probe binary-searches
    /// the run and would silently answer wrong otherwise — if `cells` does
    /// not hold `rows × arity` cells, if the rows are not strictly sorted,
    /// or if `rows` exceeds the `u32` row-id space. Callers that read
    /// untrusted input must validate first (`wdpt-store` does, after its
    /// checksums).
    pub fn from_sorted(arity: usize, rows: usize, cells: Vec<Const>) -> Relation {
        if let Err(why) = Rows::new(&cells, arity, rows).check_sorted() {
            panic!("Relation::from_sorted: {why}");
        }
        Relation::over(Run::new(arity, rows, cells))
    }

    /// Builds a relation from `rows` tuples in any order, duplicates
    /// allowed (`rows × arity` cells, row-major): sorts and deduplicates
    /// them. The bulk loader and the id-remapping snapshot merge end here.
    ///
    /// # Panics
    /// Panics if `cells` does not hold `rows × arity` cells or `rows`
    /// exceeds the `u32` row-id space.
    pub fn from_rows(arity: usize, rows: usize, cells: Vec<Const>) -> Relation {
        let unsorted = Rows::new(&cells, arity, rows);
        if unsorted.check_sorted().is_ok() {
            return Relation::over(Run::new(arity, rows, cells));
        }
        let mut order: Vec<u32> =
            (0..row_id(rows).expect("row count bounded by the caller")).collect();
        order.sort_unstable_by(|&a, &b| unsorted.row(a as usize).cmp(unsorted.row(b as usize)));
        let mut sorted = Vec::with_capacity(cells.len());
        let mut kept = 0;
        let mut last = None;
        for &r in &order {
            let row = unsorted.row(r as usize);
            if last != Some(row) {
                sorted.extend_from_slice(row);
                kept += 1;
                last = Some(row);
            }
        }
        Relation::over(Run::new(arity, kept, sorted))
    }

    fn pending(&self) -> Rows<'_> {
        Rows::new(&self.pending, self.arity(), self.pending_rows)
    }

    /// The main run's cells as an owned vector with room for `extra` more
    /// cells: taken out of the run when no clone shares it, copied
    /// otherwise. Leaves `self.run` without cells — the caller replaces it.
    fn take_cells(&mut self, extra: usize) -> Vec<Const> {
        let mut cells = match Arc::get_mut(&mut self.run) {
            Some(run) => std::mem::take(&mut run.cells),
            None => {
                let mut cells = Vec::with_capacity(self.run.cells.len() + extra);
                cells.extend_from_slice(&self.run.cells);
                cells
            }
        };
        cells.reserve(extra);
        cells
    }

    /// Replaces the main run by its merge with `add` (see [`merge_rows`]).
    fn merge_into_run(&mut self, add: Rows<'_>) -> Result<(), usize> {
        let rows = self.run.rows;
        let mut cells = self.take_cells(add.cells.len());
        let merged = merge_rows(&mut cells, rows, add);
        // Also when the merge failed: the old run gave its cells away.
        self.run = Arc::new(Run::new(add.arity, rows + add.len, cells));
        merged
    }

    /// Folds the pending run into the main run.
    fn fold(&mut self) {
        if self.pending_rows == 0 {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        let rows = std::mem::take(&mut self.pending_rows);
        self.merge_into_run(Rows::new(&pending, self.arity(), rows))
            .expect("a pending row is never in the main run");
        pending.clear();
        self.pending = pending;
    }

    /// Consumes the relation and returns it with the `rows` tuples of the
    /// strictly sorted flat run `add` merged in — the delta-apply path: one
    /// top-down merge that moves only the rows above the lowest insertion
    /// point. `Err(j)` if row `j` of `add` is already in the relation.
    ///
    /// # Panics
    /// As [`Relation::from_sorted`] panics on `add`.
    pub fn merge_sorted(mut self, rows: usize, add: &[Const]) -> Result<Relation, usize> {
        let add = Rows::new(add, self.arity(), rows);
        if let Err(why) = add.check_sorted() {
            panic!("Relation::merge_sorted: {why}");
        }
        if rows == 0 {
            return Ok(self);
        }
        self.fold();
        self.merge_into_run(add)?;
        Ok(self)
    }

    /// Forces every column permutation to be built now (they are otherwise
    /// built lazily on first probe) — a warm-up for callers that want the
    /// first query to pay no index work.
    pub fn build_all_indexes(&self) {
        for col in 1..self.arity() {
            self.run.perm(col);
        }
    }

    /// Arity of the relation.
    pub fn arity(&self) -> usize {
        self.run.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.run.rows + self.pending_rows
    }

    /// True iff the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all tuples in ascending order.
    pub fn tuples(&self) -> impl Iterator<Item = &[Const]> + '_ {
        let mut main = self.run.rows().iter();
        let mut pending = self.pending().iter();
        std::iter::from_fn(move || match (main.peek(), pending.peek()) {
            (Some(m), Some(p)) if p < m => pending.next(),
            (Some(_), _) => main.next(),
            (None, _) => pending.next(),
        })
    }

    /// Streams `(value, posting_len)` pairs of one column — each distinct
    /// value with the number of tuples holding it, ascending by value —
    /// building nothing: one counting pass over the column. Statistics and
    /// the active domain read this.
    pub fn count_posting_lens(&self, col: usize, mut f: impl FnMut(Const, u32)) {
        let values = || self.all().map(|t| t[col]);
        let Some(max) = values().map(|c| c.0).max() else {
            return;
        };
        if ids_are_dense(max, self.len()) {
            let mut counts = vec![0u32; max as usize + 1];
            for c in values() {
                counts[c.0 as usize] += 1;
            }
            for (id, &n) in counts.iter().enumerate().filter(|(_, &n)| n > 0) {
                f(Const(id as u32), n);
            }
        } else {
            let mut sorted: Vec<Const> = values().collect();
            sorted.sort_unstable();
            for group in sorted.chunk_by(|a, b| a == b) {
                f(group[0], group.len() as u32);
            }
        }
    }

    /// Decomposes the relation into its arity, row count and flat sorted
    /// run (pending rows folded in) — without copying when no clone shares
    /// the run. The bulk *mutation* counterpart of
    /// [`Relation::from_rows`]: the id-remap path takes a loaded relation
    /// apart, translates its cells, and reassembles.
    pub fn into_parts(mut self) -> (usize, usize, Vec<Const>) {
        self.fold();
        (self.arity(), self.run.rows, self.take_cells(0))
    }

    /// Set-membership test: a binary search of each run.
    pub fn contains(&self, tuple: &[Const]) -> bool {
        tuple.len() == self.arity() && !self.with_prefix(tuple).is_empty()
    }

    fn insert(&mut self, tuple: &[Const]) -> Result<bool, TooManyRows> {
        debug_assert_eq!(tuple.len(), self.arity());
        let pending = self.pending();
        let at = equal_range(pending.len, |r| pending.row(r).cmp(tuple));
        if !at.is_empty() || self.run.rows().with_prefix(tuple).len > 0 {
            return Ok(false);
        }
        // The relation is left exactly as it was when the id space is full.
        row_id(self.len())?;
        let at = at.start * self.arity();
        self.pending.splice(at..at, tuple.iter().copied());
        self.pending_rows += 1;
        if self.pending_rows > PENDING_FLOOR.max(self.run.rows / PENDING_SHARE) {
            self.fold();
        }
        Ok(true)
    }

    /// Every row: the main run's, then the pending run's.
    fn all(&self) -> Candidates<'_> {
        Candidates {
            main: MainRows::Block(self.run.rows().iter()),
            pending: PendingRows::Block(self.pending().iter()),
        }
    }

    /// The rows whose leading cells are `prefix`.
    fn with_prefix(&self, prefix: &[Const]) -> Candidates<'_> {
        Candidates {
            main: MainRows::Block(self.run.rows().with_prefix(prefix).iter()),
            pending: PendingRows::Block(self.pending().with_prefix(prefix).iter()),
        }
    }

    /// The rows with `t[col] == c`: a prefix of one cell for the leading
    /// column, else a stretch of the column's permutation (built if needed)
    /// plus a linear pass over the pending run.
    fn with_cell(&self, col: usize, c: Const) -> Candidates<'_> {
        if col == 0 {
            return self.with_prefix(&[c]);
        }
        let rows = self.run.rows();
        let perm = self.run.perm(col);
        let cell = |i: usize| rows.cells[perm[i] as usize * rows.arity + col];
        let ids = &perm[equal_range(perm.len(), |i| cell(i).cmp(&c))];
        let pending = self.pending().iter();
        Candidates {
            main: MainRows::Picked {
                rows,
                ids: ids.iter(),
            },
            pending: PendingRows::Holding {
                left: pending.clone().filter(|row| row[col] == c).count(),
                rows: pending,
                col,
                value: c,
            },
        }
    }

    /// Number of tuples with `t[col] == c` (building the column's
    /// permutation if needed).
    pub fn posting_len(&self, col: usize, c: Const) -> usize {
        stats::record_index_probes(1);
        self.with_cell(col, c).len()
    }

    /// The rows with `t[col] == c` (building the column's permutation if
    /// needed), counted in `tally` as one index probe.
    #[inline]
    pub fn postings(&self, col: usize, c: Const, tally: &mut ProbeTally) -> Candidates<'_> {
        tally.probes += 1;
        self.with_cell(col, c)
    }

    /// The tuples a probe with the given `(column, value)` constraints has
    /// to examine. The constraints on columns `0, 1, …` — as far as `bound`
    /// opens with them, so callers list columns in ascending order — are
    /// one prefix search; each later constraint is one column lookup, made
    /// only while more than one row is still in play; the shortest result
    /// wins (the earliest on a tie), and every search or lookup is counted
    /// in `tally` as one index probe. With no constraint it is the whole
    /// relation. Tuples are *not* checked against the constraints that lost
    /// — the caller does that, and counts what it examined with
    /// [`ProbeTally::add_scanned`].
    pub fn candidates(
        &self,
        mut bound: impl Iterator<Item = (usize, Const)>,
        tally: &mut ProbeTally,
    ) -> Candidates<'_> {
        let mut prefix = [Const(0); PREFIX_CELLS];
        let mut prefix_len = 0;
        // The first constraint past the prefix, taken off `bound` by hand:
        // a `Peekable` here is 1% of `paper-decide`.
        let mut beyond = None;
        for (col, c) in bound.by_ref() {
            if col != prefix_len || prefix_len == PREFIX_CELLS {
                beyond = Some((col, c));
                break;
            }
            prefix[prefix_len] = c;
            prefix_len += 1;
        }
        let mut best = (prefix_len > 0).then(|| {
            tally.probes += 1;
            self.with_prefix(&prefix[..prefix_len])
        });
        for (col, c) in beyond.into_iter().chain(bound) {
            if best.as_ref().is_some_and(|b| b.len() <= 1) {
                break;
            }
            let rows = self.postings(col, c, tally);
            if best.as_ref().is_none_or(|b| rows.len() < b.len()) {
                best = Some(rows);
            }
        }
        let Some(best) = best else {
            return self.all();
        };
        if let Some(lens) = &mut tally.posting_lens {
            lens.record(best.len() as u64);
        }
        best
    }

    /// Iterates over tuples matching `pattern`: position `i` must equal
    /// `pattern[i]` when it is `Some(c)`.
    pub fn matching<'a>(&'a self, pattern: &'a [Option<Const>]) -> Matching<'a> {
        debug_assert_eq!(pattern.len(), self.arity());
        let mut tally = ProbeTally::default();
        let bound = pattern
            .iter()
            .enumerate()
            .filter_map(|(col, p)| p.map(|c| (col, c)));
        Matching {
            candidates: self.candidates(bound, &mut tally),
            pattern,
            tally,
        }
    }

    /// Forces every column permutation and cross-checks the relation: the
    /// cell count against the row count, both runs strictly sorted and
    /// disjoint, and each permutation a permutation of the row ids in
    /// ascending (cell, row id) order. `wdpt-store verify` runs this to
    /// extend the load-time validation of a file's runs to everything
    /// derived from them.
    pub fn verify_deep(&self) -> Result<(), String> {
        let arity = self.arity();
        let cells = &self.run.cells;
        if cells.len() != self.run.rows * arity {
            return Err(format!(
                "run holds {} cells, which is not {} rows of arity {arity}",
                cells.len(),
                self.run.rows
            ));
        }
        let rows = self.run.rows();
        rows.check_sorted().map_err(str::to_owned)?;
        let pending = self.pending();
        pending
            .check_sorted()
            .map_err(|why| format!("pending: {why}"))?;
        if pending.iter().any(|row| rows.with_prefix(row).len > 0) {
            return Err("a pending row is also in the main run".to_owned());
        }
        for col in 1..arity {
            let perm = self.run.perm(col);
            if perm.len() != rows.len {
                return Err(format!(
                    "column {col}: permutation of {} ids for {} rows",
                    perm.len(),
                    rows.len
                ));
            }
            let mut seen = vec![false; rows.len];
            for &r in perm {
                match seen.get_mut(r as usize) {
                    Some(slot) if !*slot => *slot = true,
                    Some(_) => return Err(format!("column {col}: row {r} listed twice")),
                    None => return Err(format!("column {col}: row {r} out of range")),
                }
            }
            let key = |r: u32| (rows.row(r as usize)[col], r);
            if !perm.windows(2).all(|w| key(w[0]) < key(w[1])) {
                return Err(format!("column {col}: permutation not sorted"));
            }
        }
        Ok(())
    }
}

/// A database: one [`Relation`] per predicate, plus the active domain.
///
/// Cloning copies no rows: every relation's run is shared with the clone
/// until one of the two folds an insert into it.
///
/// The active domain is computed on first use: most databases are loaded,
/// served and replaced without anyone asking for it. The first
/// [`Database::active_domain`] call pays one counting pass per column;
/// inserts afterwards maintain it incrementally.
#[derive(Debug, Default, Clone)]
pub struct Database {
    relations: HashMap<Pred, Relation>,
    active_domain: OnceLock<BTreeSet<Const>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Assembles a database from bulk-constructed relations (see
    /// [`Relation::from_sorted`] and [`Relation::from_rows`]). The active
    /// domain is left uncomputed — see the type-level docs.
    ///
    /// # Panics
    /// Panics if the same predicate appears twice.
    pub fn from_sorted(relations: Vec<(Pred, Relation)>) -> Database {
        let mut map = HashMap::with_capacity(relations.len());
        for (pred, rel) in relations {
            assert!(
                map.insert(pred, rel).is_none(),
                "predicate appears in two relations"
            );
        }
        Database {
            relations: map,
            active_domain: OnceLock::new(),
        }
    }

    /// Inserts a ground tuple into predicate `pred`. Returns `true` if the
    /// tuple was new.
    ///
    /// # Panics
    /// Panics if `pred` was already used at a different arity (malformed
    /// schema — a programming error in the caller), or if the relation
    /// already holds `u32::MAX` tuples (row ids are `u32`; streaming paths
    /// that can realistically grow that far use [`Database::try_insert`]
    /// and surface [`TooManyRows`] as a typed error instead).
    pub fn insert(&mut self, pred: Pred, tuple: Vec<Const>) -> bool {
        self.try_insert(pred, tuple)
            .expect("relation exceeds the u32 row-id space")
    }

    /// Like [`Database::insert`], but row-id exhaustion (more than
    /// `u32::MAX` tuples in one relation) is a typed [`TooManyRows`] error
    /// instead of a panic. The relation is left unchanged on error.
    ///
    /// # Panics
    /// Panics if `pred` was already used at a different arity (malformed
    /// schema — a programming error in the caller).
    pub fn try_insert(&mut self, pred: Pred, tuple: Vec<Const>) -> Result<bool, TooManyRows> {
        let arity = tuple.len();
        let rel = self
            .relations
            .entry(pred)
            .or_insert_with(|| Relation::new(arity));
        assert_eq!(
            rel.arity(),
            arity,
            "predicate used with inconsistent arities"
        );
        let inserted = rel.insert(&tuple)?;
        if inserted {
            // Maintain the active domain only if it was already computed;
            // a never-asked-for domain is derived from scratch on first
            // access and will see this tuple then.
            if let Some(domain) = self.active_domain.get_mut() {
                domain.extend(tuple);
            }
        }
        Ok(inserted)
    }

    /// Inserts a ground atom. Returns `true` if new.
    ///
    /// # Panics
    /// Panics if the atom contains variables.
    pub fn insert_atom(&mut self, atom: &Atom) -> bool {
        let tuple = atom
            .ground_tuple()
            .expect("Database::insert_atom requires a ground atom");
        self.insert(atom.pred, tuple)
    }

    /// The relation for `pred`, if any tuple was ever inserted for it.
    pub fn relation(&self, pred: Pred) -> Option<&Relation> {
        self.relations.get(&pred)
    }

    /// True iff the ground atom is in the database.
    pub fn contains_atom(&self, atom: &Atom) -> bool {
        match atom.ground_tuple() {
            Some(t) => self
                .relations
                .get(&atom.pred)
                .is_some_and(|r| r.contains(&t)),
            None => false,
        }
    }

    /// The active domain: all constants occurring in some tuple. Computed
    /// on first use from each column's distinct values
    /// ([`Relation::count_posting_lens`]).
    pub fn active_domain(&self) -> &BTreeSet<Const> {
        self.active_domain.get_or_init(|| {
            let mut domain: Vec<Const> = Vec::new();
            for rel in self.relations.values() {
                for col in 0..rel.arity() {
                    rel.count_posting_lens(col, |c, _| domain.push(c));
                }
            }
            domain.sort_unstable();
            domain.dedup();
            // Collecting from a sorted iterator lets BTreeSet bulk-build.
            domain.into_iter().collect()
        })
    }

    /// Total number of tuples across relations (the paper's `|D|` up to a
    /// constant factor).
    pub fn size(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Number of distinct predicates with at least one tuple.
    pub fn predicate_count(&self) -> usize {
        self.relations.len()
    }

    /// Iterates over `(predicate, relation)` pairs in unspecified order.
    pub fn relations(&self) -> impl Iterator<Item = (Pred, &Relation)> + '_ {
        self.relations.iter().map(|(&p, r)| (p, r))
    }

    /// Consumes the database into its relations, in unspecified order.
    /// Paired with [`Database::from_sorted`], this lets bulk transformations
    /// (snapshot delta application, interner remapping) move untouched
    /// relations into the result as they are.
    pub fn into_relations(self) -> impl Iterator<Item = (Pred, Relation)> {
        self.relations.into_iter()
    }

    /// Renders the database as a sorted list of ground atoms.
    pub fn display(&self, interner: &Interner) -> String {
        let mut lines: Vec<String> = Vec::new();
        for (p, rel) in &self.relations {
            for t in rel.tuples() {
                lines.push(format!(
                    "{}({})",
                    interner.pred_name(*p),
                    crate::interner::join_display(t, |c| interner.const_name(*c).to_owned())
                ));
            }
        }
        lines.sort();
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db3() -> (Interner, Database, Pred) {
        let mut i = Interner::new();
        let e = i.pred("e");
        let (a, b, c) = (i.constant("a"), i.constant("b"), i.constant("c"));
        let mut db = Database::new();
        db.insert(e, vec![a, b]);
        db.insert(e, vec![b, c]);
        db.insert(e, vec![a, c]);
        (i, db, e)
    }

    #[test]
    fn insert_dedups() {
        let (mut i, mut db, e) = db3();
        let a = i.constant("a");
        let b = i.constant("b");
        assert!(!db.insert(e, vec![a, b]));
        assert_eq!(db.size(), 3);
    }

    #[test]
    fn active_domain_tracks_constants() {
        let (_, db, _) = db3();
        assert_eq!(db.active_domain().len(), 3);
    }

    #[test]
    fn matching_with_bound_first_column() {
        let (mut i, db, e) = db3();
        let a = i.constant("a");
        assert_eq!(rel_count(&db, e, &[Some(a), None]), 2);
    }

    #[test]
    fn matching_with_bound_second_column() {
        let (mut i, db, e) = db3();
        let c = i.constant("c");
        assert_eq!(rel_count(&db, e, &[None, Some(c)]), 2);
    }

    #[test]
    fn matching_fully_bound() {
        let (mut i, db, e) = db3();
        let a = i.constant("a");
        let b = i.constant("b");
        assert_eq!(rel_count(&db, e, &[Some(a), Some(b)]), 1);
        assert_eq!(rel_count(&db, e, &[Some(b), Some(a)]), 0);
    }

    fn rel_count(db: &Database, p: Pred, pat: &[Option<Const>]) -> usize {
        db.relation(p).unwrap().matching(pat).count()
    }

    #[test]
    fn matching_unbound_scans_all() {
        let (_, db, e) = db3();
        assert_eq!(rel_count(&db, e, &[None, None]), 3);
    }

    #[test]
    fn contains_atom_checks_groundness() {
        let (mut i, db, e) = db3();
        let a = i.constant("a");
        let b = i.constant("b");
        let x = i.var("x");
        let ground = Atom::new(e, vec![a.into(), b.into()]);
        let open = Atom::new(e, vec![x.into(), b.into()]);
        assert!(db.contains_atom(&ground));
        assert!(!db.contains_atom(&open));
    }

    #[test]
    #[should_panic(expected = "inconsistent arities")]
    fn arity_mismatch_panics() {
        let (mut i, mut db, e) = db3();
        let a = i.constant("a");
        db.insert(e, vec![a]);
    }

    #[test]
    fn row_ids_are_checked_not_wrapped() {
        // The full 32-bit range is representable…
        assert_eq!(row_id(0), Ok(0));
        assert_eq!(row_id(u32::MAX as usize), Ok(u32::MAX));
        // …and one past it is a typed error, not a silent wrap to row 0.
        let err = row_id(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(
            err,
            TooManyRows {
                rows: u32::MAX as u64 + 1
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("u32"), "unhelpful message: {msg}");
    }

    #[test]
    fn try_insert_matches_insert_on_the_ok_path() {
        let (mut i, mut db, e) = db3();
        let (a, d) = (i.constant("a"), i.constant("d"));
        assert_eq!(db.try_insert(e, vec![a, d]), Ok(true));
        assert_eq!(db.try_insert(e, vec![a, d]), Ok(false));
        assert_eq!(db.size(), 4);
        assert!(db.active_domain().contains(&d));
    }

    #[test]
    fn insert_after_query_rebuilds_index() {
        let (mut i, mut db, e) = db3();
        let a = i.constant("a");
        // Build the index.
        assert_eq!(rel_count(&db, e, &[Some(a), None]), 2);
        // Mutate, then query again: index must reflect the new tuple.
        let d = i.constant("d");
        db.insert(e, vec![a, d]);
        assert_eq!(rel_count(&db, e, &[Some(a), None]), 3);
    }

    #[test]
    fn interleaved_inserts_and_queries_do_not_rebuild_indexes() {
        // Regression test for the quadratic index invalidation: the seed
        // discarded every column index on every insert, so an interleaved
        // load/query workload rebuilt an O(n) index per insert. Inserts
        // land in the pending run, which needs no index, so a column
        // permutation is rebuilt only after a fold — once here.
        let mut i = Interner::new();
        let e = i.pred("e");
        let consts: Vec<Const> = (0..64).map(|j| i.constant(&format!("k{j}"))).collect();
        let mut db = Database::new();
        db.insert(e, vec![consts[0], consts[1]]);
        let before = crate::stats::snapshot();
        for j in 1..consts.len() - 1 {
            db.insert(e, vec![consts[j], consts[j + 1]]);
            // Query between inserts: results must include the new tuple…
            assert_eq!(rel_count(&db, e, &[Some(consts[j]), None]), 1);
            assert_eq!(rel_count(&db, e, &[None, Some(consts[j + 1])]), 1);
        }
        let delta = crate::stats::snapshot().since(&before);
        // …and column 1's permutation is built once per fold (other tests
        // run concurrently, so only *this relation's* builds — bounded by a
        // small constant — may show up; 62 rebuilds would mean the
        // quadratic behavior is back).
        assert!(
            delta.index_builds <= 16,
            "interleaved insert/query workload rebuilt indexes {} times",
            delta.index_builds
        );
        // Probes returned matches, not the relation: each query scans
        // exactly the rows holding its constant (1 tuple here).
        assert!(delta.index_probes >= 124, "probes = {}", delta.index_probes);
        assert!(
            delta.tuples_scanned <= 2 * 62 + 16,
            "scans = {} — queries fell back to full scans",
            delta.tuples_scanned
        );
    }

    #[test]
    fn scan_counts_flush_on_drop_even_when_not_exhausted() {
        let (mut i, db, e) = db3();
        let a = i.constant("a");
        let rel = db.relation(e).unwrap();
        let pat = [Some(a), None];
        let before = crate::stats::snapshot();
        {
            let mut it = rel.matching(&pat);
            let _ = it.next(); // examine one candidate, then abandon
        }
        let mid = crate::stats::snapshot().since(&before);
        assert!(mid.tuples_scanned >= 1, "partial scan not flushed");
        // Exhausting an iterator flushes the full candidate count.
        assert_eq!(rel.matching(&[Some(a), None]).count(), 2);
        let after = crate::stats::snapshot().since(&before);
        assert!(after.tuples_scanned >= mid.tuples_scanned + 2);
    }

    #[test]
    fn from_sorted_matches_insert_built_database() {
        let (mut i, db, e) = db3();
        let a = i.constant("a");
        // Rebuild the same relation through the bulk path.
        let cells: Vec<Const> = db
            .relation(e)
            .unwrap()
            .tuples()
            .flatten()
            .copied()
            .collect();
        let rel = Relation::from_sorted(2, 3, cells);
        let bulk = Database::from_sorted(vec![(e, rel)]);
        assert_eq!(bulk.size(), db.size());
        assert_eq!(bulk.active_domain(), db.active_domain());
        assert_eq!(
            bulk.relation(e).unwrap().matching(&[Some(a), None]).count(),
            db.relation(e).unwrap().matching(&[Some(a), None]).count()
        );
        let b = i.constant("b");
        assert!(bulk.relation(e).unwrap().contains(&[a, b]));
    }

    #[test]
    fn bulk_loaded_relation_stays_consistent_under_interleaved_mutation() {
        // Guards the snapshot/delta-apply path: a relation assembled via
        // `from_sorted` must keep `insert`, `contains`, and `posting_len`
        // mutually consistent when loads and mutations interleave — the
        // inserts sit in the pending run beside a main run whose column-1
        // permutation is built mid-stream by the first probe.
        let mut i = Interner::new();
        let e = i.pred("e");
        let consts: Vec<Const> = (0..24).map(|j| i.constant(&format!("c{j}"))).collect();
        let cells: Vec<Const> = (0..8).flat_map(|j| [consts[j], consts[j + 1]]).collect();
        let mut db = Database::from_sorted(vec![(e, Relation::from_sorted(2, 8, cells))]);

        // Interleave: probe (posting_len over both runs), insert a new
        // tuple, membership-check both old and new tuples.
        for j in 8..16 {
            let (a, b) = (consts[j], consts[j + 1]);
            let rel = db.relation(e).unwrap();
            assert_eq!(rel.posting_len(0, a), 0, "tuple not inserted yet");
            assert!(!rel.contains(&[a, b]));
            assert!(db.insert(e, vec![a, b]));
            assert!(!db.insert(e, vec![a, b]), "re-insert must dedup");
            let rel = db.relation(e).unwrap();
            // Both columns see the pending row…
            assert_eq!(rel.posting_len(0, a), 1);
            assert_eq!(rel.posting_len(1, b), 1);
            // …and membership agrees with it, for old and new tuples alike.
            assert!(rel.contains(&[a, b]));
            assert!(rel.contains(&[consts[0], consts[1]]));
            assert_eq!(rel.matching(&[Some(a), None]).count(), 1);
        }
        let rel = db.relation(e).unwrap();
        assert_eq!(rel.len(), 16);
        // Every tuple is reachable through probe, scan, and membership.
        for j in 0..16 {
            let (a, b) = (consts[j], consts[j + 1]);
            assert!(rel.contains(&[a, b]));
            assert_eq!(rel.matching(&[Some(a), Some(b)]).count(), 1);
        }
        assert_eq!(db.active_domain().len(), 17);
    }

    #[test]
    fn into_parts_hands_back_the_sorted_run() {
        let (_, db, e) = db3();
        let expected: Vec<Const> = db
            .relation(e)
            .unwrap()
            .tuples()
            .flatten()
            .copied()
            .collect();
        let mut rels: Vec<(Pred, Relation)> = db.into_relations().collect();
        assert_eq!(rels.len(), 1);
        let (pred, rel) = rels.pop().unwrap();
        assert_eq!(pred, e);
        // The three inserts are still pending: taking the relation apart
        // folds them in.
        let (arity, rows, cells) = rel.into_parts();
        assert_eq!((arity, rows), (2, 3));
        assert_eq!(cells, expected);
        assert!(cells
            .chunks(2)
            .collect::<Vec<_>>()
            .windows(2)
            .all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "run not sorted")]
    fn from_sorted_rejects_an_unsorted_run() {
        Relation::from_sorted(2, 2, vec![Const(2), Const(0), Const(1), Const(9)]);
    }

    #[test]
    #[should_panic(expected = "duplicate tuple")]
    fn from_sorted_rejects_a_repeated_row() {
        Relation::from_sorted(2, 2, vec![Const(1), Const(2), Const(1), Const(2)]);
    }

    #[test]
    #[should_panic(expected = "not 2 rows of arity 2")]
    fn from_sorted_rejects_cells_that_are_not_whole_rows() {
        Relation::from_sorted(2, 2, vec![Const(1), Const(2), Const(3)]);
    }

    #[test]
    #[should_panic(expected = "duplicate tuple")]
    fn from_sorted_rejects_a_second_nullary_row() {
        Relation::from_sorted(0, 2, Vec::new());
    }

    #[test]
    fn from_rows_sorts_and_deduplicates() {
        let c = |ids: &[u32]| ids.iter().map(|&id| Const(id)).collect::<Vec<_>>();
        let rel = Relation::from_rows(2, 4, c(&[5, 1, 2, 9, 5, 1, 2, 3]));
        assert_eq!(rel.len(), 3);
        let rows: Vec<&[Const]> = rel.tuples().collect();
        assert_eq!(rows, [&c(&[2, 3])[..], &c(&[2, 9]), &c(&[5, 1])]);
        assert!(rel.verify_deep().is_ok());
    }

    #[test]
    fn nullary_relations_hold_at_most_the_empty_tuple() {
        let mut i = Interner::new();
        let (t, f) = (i.pred("t"), i.pred("f"));
        let mut db = Database::from_sorted(vec![(f, Relation::from_sorted(0, 0, Vec::new()))]);
        assert!(db.insert(t, vec![]));
        assert!(!db.insert(t, vec![]), "the empty tuple is inserted once");
        let copy = db.clone();
        for db in [&db, &copy] {
            let (yes, no) = (db.relation(t).unwrap(), db.relation(f).unwrap());
            assert_eq!((yes.len(), no.len()), (1, 0));
            assert_eq!(yes.tuples().collect::<Vec<_>>(), [&[] as &[Const]]);
            assert_eq!(no.tuples().count(), 0);
            assert!(yes.contains(&[]) && !no.contains(&[]));
            assert_eq!(
                (yes.matching(&[]).count(), no.matching(&[]).count()),
                (1, 0)
            );
            assert!(yes.verify_deep().is_ok() && no.verify_deep().is_ok());
            assert!(db.active_domain().is_empty());
        }
        // Folded or pending, merged or not, it stays one row.
        let (arity, rows, cells) = db.relation(t).unwrap().clone().into_parts();
        assert_eq!((arity, rows, cells.len()), (0, 1, 0));
        let merged = Relation::from_sorted(0, 0, Vec::new()).merge_sorted(1, &[]);
        assert_eq!(merged.unwrap().len(), 1);
        let twice = Relation::from_sorted(0, 1, Vec::new()).merge_sorted(1, &[]);
        assert_eq!(
            twice.unwrap_err(),
            0,
            "row 0 of the addition is a duplicate"
        );
    }

    #[test]
    fn clones_share_the_run_and_diverge_on_insert() {
        let mut i = Interner::new();
        let e = i.pred("e");
        let consts: Vec<Const> = (0..200).map(|j| i.constant(&format!("c{j}"))).collect();
        let mut db = Database::new();
        for j in 0..100 {
            db.insert(e, vec![consts[j], consts[j + 1]]);
        }
        let mut copy = db.clone();
        // Enough inserts to fold the copy's pending run at least once.
        for j in 100..199 {
            assert!(copy.insert(e, vec![consts[j], consts[j + 1]]));
        }
        assert_eq!((db.size(), copy.size()), (100, 199));
        let (old, new) = (db.relation(e).unwrap(), copy.relation(e).unwrap());
        assert!(!old.contains(&[consts[150], consts[151]]));
        assert!(new.contains(&[consts[150], consts[151]]));
        assert_eq!(old.posting_len(1, consts[151]), 0);
        assert_eq!(new.posting_len(1, consts[151]), 1);
        assert!(old.verify_deep().is_ok() && new.verify_deep().is_ok());
    }

    #[test]
    fn merge_sorted_interleaves_and_reports_the_duplicate() {
        let c = |ids: &[u32]| ids.iter().map(|&id| Const(id)).collect::<Vec<_>>();
        let base = || Relation::from_sorted(2, 3, c(&[1, 1, 3, 3, 5, 5]));
        let merged = base().merge_sorted(3, &c(&[0, 9, 3, 4, 7, 7])).unwrap();
        let rows: Vec<Const> = merged.tuples().flatten().copied().collect();
        assert_eq!(rows, c(&[0, 9, 1, 1, 3, 3, 3, 4, 5, 5, 7, 7]));
        assert!(merged.verify_deep().is_ok());
        assert_eq!(merged.posting_len(0, Const(3)), 2);
        // Row 1 of the addition is already there.
        assert_eq!(base().merge_sorted(2, &c(&[2, 2, 3, 3])).unwrap_err(), 1);
    }

    #[test]
    fn database_is_sync_and_shareable_across_threads() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Database>();
        let (mut i, db, e) = db3();
        let a = i.constant("a");
        let c = i.constant("c");
        std::thread::scope(|scope| {
            let h1 = scope.spawn(|| db.relation(e).unwrap().matching(&[Some(a), None]).count());
            let h2 = scope.spawn(|| db.relation(e).unwrap().matching(&[None, Some(c)]).count());
            assert_eq!(h1.join().unwrap(), 2);
            assert_eq!(h2.join().unwrap(), 2);
        });
    }
}
