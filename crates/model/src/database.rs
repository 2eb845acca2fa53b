//! Databases: finite sets of ground atoms, each relation one flat sorted run.
//!
//! A database `D` over schema `σ` is a set of ground relational atoms
//! (Section 2 of the paper). [`Database`] stores one [`Relation`] per
//! predicate, and a relation is its tuples and nothing else: one
//! arity-strided, strictly sorted `Vec<Const>` — row `r` at
//! `[r * arity, (r + 1) * arity)`, rows ascending lexicographically on the
//! `Const` ids, no duplicates. The CQ engines probe that run in place:
//!
//! * a probe whose bound columns form a **leading prefix** returns exactly
//!   the matching rows — nothing is built, nothing is filtered. A main run
//!   of at least 64 rows whose leading ids span fewer than four ids a row
//!   keeps a *directory*, built with the run: one `u32` first-row offset
//!   per leading id from its least to its greatest, 4 bytes per id in that
//!   range (~200 kB for a 400k-triple store, never more than 16 bytes a
//!   row). A probe reads the block of its leading cell off the directory in
//!   O(1) and bisects only that block for the rest of its prefix. A run
//!   without a directory, and the pending run, are bisected whole; a gallop
//!   then finds the last match. A run never changes once built (a fold
//!   builds a new one), so its directory cannot go stale;
//! * any other bound column goes through a **row-id permutation** of that
//!   column (the run's row ids sorted by the column's value, 4 bytes per
//!   row), built by one counting or comparison sort on the first probe
//!   that needs it and counted as an index build in that probe's tally;
//! * membership is a prefix search binding every column.
//!
//! [`Relation::probe`] is the one way to read rows by value: it settles on
//! one of those paths by one rule (the leading prefix in one search, each
//! further column only while more than one row is in play, the shortest
//! result winning), counts its searches and builds in the caller's tally,
//! and returns one row type, [`Probe`], with an exact length. The caller
//! checks the columns that lost and counts the rows it examines.
//!
//! The run sits behind an [`Arc`], so cloning a relation — and with it a
//! [`Database`] — copies no row of it. [`Database::insert`] and
//! [`Relation::merge_sorted`] (a delta) land rows in a small sorted
//! *pending run* owned by the one relation being mutated; every probe
//! consults both runs, and the pending run is folded into the main run (one
//! merge, which also drops the permutations) when it outgrows a fixed share
//! of it, so a row costs an amortised constant number of row copies, an
//! interleaved insert/probe workload never rebuilds a permutation per
//! insert, and a delta merged into a shared base copies none of the base.
//! A column probe walks a pending run of a few rows; a longer one has its
//! own column permutations, built by the first probe that needs them
//! (not counted as index builds), kept up to date by each insert and
//! dropped by a merge, so such a probe is a search in each run.
//!
//! What is built on demand — the column permutations, the active domain —
//! lives behind [`OnceLock`]s, so a `Database` is [`Sync`] and can be shared
//! by reference across the worker threads of the parallel WDPT evaluator;
//! concurrent first probes are safe (one thread sorts, the others reuse the
//! result).

use crate::atom::Atom;
use crate::interner::Interner;
use crate::stats::{self, ProbeTally};
use crate::term::{Const, Pred};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The half-open range of the indices in `0..len` at which `cmp` is
/// `Equal`, for a `cmp` that is `Less` on a prefix of the indices, then
/// `Equal`, then `Greater`: a bisection for the first match, and then,
/// matches being few next to a run, a gallop past the last one and a
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

/// Constant ids from `min` to `max`, held by `rows` rows, count as dense
/// when they span fewer than four ids a row: then an array indexed by id
/// less `min` — at most 16 bytes a row — replaces sorting, and otherwise it
/// could dwarf the data. A run's directory, a counting sort and a column's
/// posting counts all go by this rule.
fn ids_are_dense(min: u32, max: u32, rows: usize) -> bool {
    ((max - min) as usize) < 4 * rows
}

/// The least and the greatest of `ids`, if there are any.
fn id_span(mut ids: impl Iterator<Item = Const>) -> Option<(u32, u32)> {
    let first = ids.next()?.0;
    Some(ids.fold((first, first), |(min, max), c| (min.min(c.0), max.max(c.0))))
}

/// The posting lengths of one column ([`Relation::posting_counts`]): how
/// many tuples hold each value there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PostingCounts {
    /// `counts[id - min]` for the ids from the column's least, `min`, to
    /// its greatest; `0` for a value the column does not hold.
    Dense { min: u32, counts: Vec<u32> },
    /// Every value the column holds with its count, ascending by value.
    Sparse(Vec<(Const, u32)>),
}

impl PostingCounts {
    /// The number of tuples holding `c`.
    pub fn get(&self, c: Const) -> u32 {
        match self {
            // An id below `min` wraps to past the end.
            PostingCounts::Dense { min, counts } => counts
                .get(c.0.wrapping_sub(*min) as usize)
                .copied()
                .unwrap_or(0),
            PostingCounts::Sparse(pairs) => pairs
                .binary_search_by_key(&c, |&(v, _)| v)
                .map_or(0, |at| pairs[at].1),
        }
    }

    /// Calls `f` on each value the column holds with its count, ascending
    /// by value.
    pub fn for_each(&self, mut f: impl FnMut(Const, u32)) {
        match self {
            PostingCounts::Dense { min, counts } => {
                for (slot, &n) in counts.iter().enumerate().filter(|(_, &n)| n > 0) {
                    f(Const(min + slot as u32), n);
                }
            }
            PostingCounts::Sparse(pairs) => pairs.iter().for_each(|&(c, n)| f(c, n)),
        }
    }
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

    /// The range of the rows whose leading cells are `prefix`, the block
    /// being sorted (see [`equal_range`]). One and two cells — a subject, a
    /// subject and a predicate — are compared as one integer; this search is
    /// the innermost step of every engine.
    fn with_prefix(&self, prefix: &[Const]) -> Range<usize> {
        let (cells, arity, len) = (self.cells, self.arity, self.len);
        let pair = |a: Const, b: Const| u64::from(a.0) << 32 | u64::from(b.0);
        match *prefix {
            [] => 0..len,
            [a] => equal_range(len, |r| cells[r * arity].cmp(&a)),
            [a, b] => equal_range(len, |r| {
                pair(cells[r * arity], cells[r * arity + 1]).cmp(&pair(a, b))
            }),
            _ => equal_range(len, |r| self.row(r)[..prefix.len()].cmp(prefix)),
        }
    }

    fn iter(&self) -> RowIter<'a> {
        RowIter(*self)
    }

    /// Column `col`'s cells, in row order.
    fn column(self, col: usize) -> impl Iterator<Item = Const> + 'a {
        self.cells.chunks_exact(self.arity).map(move |row| row[col])
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

/// Merges the strictly sorted rows of `add`, none of them in `run`, into
/// the `run_rows` strictly sorted rows of `run`, in place and from the top
/// down, so rows below the lowest insertion point never move. A fold is the
/// one caller.
fn merge_rows(run: &mut Vec<Const>, run_rows: usize, add: Rows<'_>) {
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
        assert!(at.is_empty(), "a pending row is never in the main run");
        let moved = left - at.start;
        run.copy_within(at.start * arity..left * arity, (hole - moved) * arity);
        hole -= moved + 1;
        left = at.start;
        run[hole * arity..(hole + 1) * arity].copy_from_slice(row);
    }
    debug_assert_eq!(left, hole);
}

/// The folded part of a relation: one strictly sorted block of rows plus
/// what is derived from it, shared by every clone of the relation.
#[derive(Debug)]
struct Run {
    arity: usize,
    rows: usize,
    /// `rows × arity` cells, row-major.
    cells: Vec<Const>,
    /// Where each leading id's rows start, built with the run when it has
    /// at least [`DIRECTORY_FLOOR`] rows and dense leading ids
    /// ([`Directory::build`]).
    directory: Option<Directory>,
    /// Per column, the row ids sorted by (cell, row id), built by the first
    /// probe that binds the column without binding every column before it.
    /// Column 0 never needs one: the run itself is sorted by it.
    perms: Vec<OnceLock<Vec<u32>>>,
}

/// Rows a run needs before it keeps a [`Directory`]: a bisection of fewer
/// is a handful of comparisons within a few cache lines, and a directory
/// one more allocation. Only floors below 4 change what the benchmark's
/// workloads allocate (no floor: 0.17% more on `paper-decide`).
const DIRECTORY_FLOOR: usize = 64;

/// The first row of each leading id of a run, for the ids from the run's
/// least leading id to its greatest: `starts[id - min]`, then one entry
/// past the last, the row count. Id `c`'s rows are
/// `starts[c - min]..starts[c - min + 1]`, an empty range for an id the
/// run does not lead with. 4 bytes per id in the range.
#[derive(Debug)]
struct Directory {
    min: u32,
    starts: Vec<u32>,
}

impl Directory {
    /// The directory of `rows`, if they are at least [`DIRECTORY_FLOOR`]
    /// and their leading ids span fewer than four ids per row: the
    /// directory then takes at most 16 bytes a row, as much as four cells.
    fn build(rows: Rows<'_>) -> Option<Directory> {
        if rows.arity == 0 || rows.len < DIRECTORY_FLOOR {
            return None;
        }
        let lead = |r: usize| rows.cells[r * rows.arity].0;
        let (min, max) = (lead(0), lead(rows.len - 1));
        if !ids_are_dense(min, max, rows.len) {
            return None;
        }
        // Rows per id, shifted one up, then summed: where each id starts.
        let mut starts = vec![0u32; (max - min) as usize + 2];
        for lead in rows.cells.iter().step_by(rows.arity) {
            starts[(lead.0 - min) as usize + 1] += 1;
        }
        for slot in 1..starts.len() {
            starts[slot] += starts[slot - 1];
        }
        Some(Directory { min, starts })
    }

    /// The rows leading with `c`.
    #[inline]
    fn block(&self, c: Const) -> Range<usize> {
        // An id below `min` wraps to past the end.
        let slot = c.0.wrapping_sub(self.min) as usize;
        match self.starts.get(slot..slot + 2) {
            Some(&[start, end]) => start as usize..end as usize,
            _ => 0..0,
        }
    }

    /// `Err(why)` unless the directory names, for each leading id in its
    /// range, exactly the rows of `rows` that lead with it.
    fn check(&self, rows: Rows<'_>) -> Result<(), String> {
        let (first, last) = (self.starts.first(), self.starts.last());
        if first != Some(&0) || last != Some(&(rows.len as u32)) {
            return Err("directory does not span the run".to_owned());
        }
        for (slot, bounds) in self.starts.windows(2).enumerate() {
            let id = Const(self.min + slot as u32);
            let block = bounds[0] as usize..bounds[1] as usize;
            if block.start > block.end || block.clone().any(|r| rows.row(r)[0] != id) {
                return Err(format!("directory block of {id:?} is not its rows"));
            }
        }
        Ok(())
    }
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
            directory: Directory::build(Rows::new(&cells, arity, rows)),
            cells,
            perms: (0..arity).map(|_| OnceLock::new()).collect(),
        }
    }

    fn rows(&self) -> Rows<'_> {
        Rows::new(&self.cells, self.arity, self.rows)
    }

    /// The range of the rows whose leading cells are `prefix`: the block of
    /// its leading cell read off the directory and searched for the rest of
    /// the prefix, or, without a directory, the whole run searched.
    fn with_prefix(&self, prefix: &[Const]) -> Range<usize> {
        let (Some(directory), Some(&lead)) = (&self.directory, prefix.first()) else {
            return self.rows().with_prefix(prefix);
        };
        let block = directory.block(lead);
        if prefix.len() == 1 {
            return block;
        }
        let found = self.rows().slice(block.clone()).with_prefix(prefix);
        block.start + found.start..block.start + found.end
    }

    /// Column `col`'s permutation, built by the first probe that needs it
    /// and counted as one index build in that probe's `tally`.
    fn perm(&self, col: usize, tally: &mut ProbeTally) -> &[u32] {
        self.perms[col].get_or_init(|| {
            if self.rows > 0 {
                tally.index_builds += 1;
            }
            column_order(self.rows(), col)
        })
    }
}

/// The row ids of `rows` sorted by (column `col`'s cell, row id): one
/// counting sort where the ids are dense, one comparison sort otherwise.
fn column_order(rows: Rows<'_>, col: usize) -> Vec<u32> {
    let cell = |r: usize| rows.cells[r * rows.arity + col].0;
    let Some((min, max)) = id_span(rows.column(col)) else {
        return Vec::new();
    };
    if !ids_are_dense(min, max, rows.len) {
        let mut perm: Vec<u32> = (0..rows.len as u32).collect();
        perm.sort_unstable_by_key(|&r| (cell(r as usize), r));
        return perm;
    }
    // Counting sort: `next[v - min]` is the slot of the next row holding `v`.
    let cell = |r: usize| cell(r) - min;
    let mut next = vec![0u32; (max - min) as usize + 2];
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
}

/// `Err(why)` unless `perm` lists every row id of `rows` once, ascending by
/// (column `col`'s cell, row id).
fn check_order(rows: Rows<'_>, perm: &[u32], col: usize) -> Result<(), String> {
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
    Ok(())
}

/// The rows one probe has to look at ([`Relation::probe`]), in no
/// particular order: exactly the rows matching the constraint the probe
/// settled on — a leading prefix or one column — or every row when nothing
/// is bound; the main run's, then the pending run's. The caller checks the
/// remaining columns itself.
#[derive(Debug, Clone)]
pub struct Probe<'a> {
    main: Source<'a>,
    pending: Source<'a>,
}

/// The rows of one run a probe has to look at.
#[derive(Debug, Clone)]
enum Source<'a> {
    /// Consecutive rows of the run, `left` of them still to yield. With a
    /// `filter`, only those holding its value in its column: a pending run
    /// too short to have permutations, walked.
    Block {
        rows: RowIter<'a>,
        filter: Option<(usize, Const)>,
        left: usize,
    },
    /// Rows of the run named by a stretch of a column permutation.
    Picked {
        rows: Rows<'a>,
        ids: std::slice::Iter<'a, u32>,
    },
}

impl<'a> Source<'a> {
    /// Every row of `rows`.
    fn block(rows: Rows<'a>) -> Source<'a> {
        Source::Block {
            left: rows.len,
            rows: rows.iter(),
            filter: None,
        }
    }

    /// The rows of `rows` holding `c` in column `col`, found by walking
    /// them.
    fn walk(rows: Rows<'a>, col: usize, c: Const) -> Source<'a> {
        Source::Block {
            left: rows.iter().filter(|row| row[col] == c).count(),
            rows: rows.iter(),
            filter: Some((col, c)),
        }
    }

    /// The rows of `rows` holding `c` in column `col`: the stretch of
    /// `perm`, the column's permutation, that names them.
    fn picked(rows: Rows<'a>, perm: &'a [u32], col: usize, c: Const) -> Source<'a> {
        let cell = |i: usize| rows.cells[perm[i] as usize * rows.arity + col];
        let at = equal_range(perm.len(), |i| cell(i).cmp(&c));
        Source::Picked {
            rows,
            ids: perm[at].iter(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Source::Block { left, .. } => *left,
            Source::Picked { ids, .. } => ids.len(),
        }
    }

    #[inline]
    fn next(&mut self) -> Option<&'a [Const]> {
        match self {
            Source::Block { rows, filter, left } => {
                *left = left.checked_sub(1)?;
                match *filter {
                    None => rows.next(),
                    Some((col, c)) => rows.find(|row| row[col] == c),
                }
            }
            Source::Picked { rows, ids } => ids.next().map(|&r| rows.row(r as usize)),
        }
    }
}

impl Probe<'_> {
    /// Number of rows left to yield.
    pub fn len(&self) -> usize {
        self.main.len() + self.pending.len()
    }

    /// True iff no row is left.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<'a> Iterator for Probe<'a> {
    type Item = &'a [Const];

    #[inline]
    fn next(&mut self) -> Option<&'a [Const]> {
        self.main.next().or_else(|| self.pending.next())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len(), Some(self.len()))
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

/// Rows a pending run may hold whatever the size of the main run — few
/// enough that a column probe walks them rather than build a permutation …
const PENDING_FLOOR: usize = 32;
/// … and the share of the main run, `1 / PENDING_SHARE`, it may grow to
/// beyond that before it is folded in. A fold copies the main run once, so
/// a pending row pays for at most `PENDING_SHARE` row copies amortised.
const PENDING_SHARE: usize = 16;

/// Bound leading columns a probe searches for in one go; a longer bound
/// prefix (arity above 8, every column bound) is searched by its first
/// eight cells and the caller's filter does the rest.
const PREFIX_CELLS: usize = 8;

/// The extension of a single predicate: a set of constant tuples, held as
/// a strictly sorted main run — shared with every clone of the relation —
/// plus the sorted pending run of the rows inserted or merged since the
/// last fold. The two are disjoint, every accessor consults both, and the
/// difference never shows through the query API. See the module docs for
/// how probes use them.
#[derive(Debug, Clone)]
pub struct Relation {
    run: Arc<Run>,
    /// `pending_rows × arity` cells, strictly sorted, none in the main run.
    pending: Vec<Const>,
    pending_rows: usize,
    /// The pending run's permutations of columns `1..arity`, as
    /// [`Run::perm`]'s but not counted: built together by the first probe
    /// that needs one, then kept up to date by [`Relation::insert`] and a
    /// fold, and dropped by a merge.
    pending_perms: OnceLock<Box<[Vec<u32>]>>,
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
            pending_perms: OnceLock::new(),
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

    /// The pending run's permutation of column `col`, past the first.
    fn pending_perm(&self, col: usize) -> &[u32] {
        let perms = self.pending_perms.get_or_init(|| {
            let pending = self.pending();
            (1..pending.arity)
                .map(|col| column_order(pending, col))
                .collect()
        });
        &perms[col - 1]
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

    /// Folds the pending run into the main run: one top-down merge into a
    /// new main run, which starts with no permutations.
    fn fold(&mut self) {
        if self.pending_rows == 0 {
            return;
        }
        let (arity, rows) = (self.arity(), self.run.rows);
        let mut pending = std::mem::take(&mut self.pending);
        let added = std::mem::take(&mut self.pending_rows);
        let mut cells = self.take_cells(pending.len());
        merge_rows(&mut cells, rows, Rows::new(&pending, arity, added));
        self.run = Arc::new(Run::new(arity, rows + added, cells));
        pending.clear();
        self.pending = pending;
        // The permutations of an empty run are empty: built, they stay so.
        if let Some(perms) = self.pending_perms.get_mut() {
            perms.iter_mut().for_each(Vec::clear);
        }
    }

    /// Folds the pending run in once it holds more than
    /// `max(PENDING_FLOOR, main / PENDING_SHARE)` rows: the one rule under
    /// which both [`Database::insert`] and [`Relation::merge_sorted`] land
    /// rows.
    fn fold_if_outgrown(&mut self) {
        if self.pending_rows > PENDING_FLOOR.max(self.run.rows / PENDING_SHARE) {
            self.fold();
        }
    }

    /// Consumes the relation and returns it with the tuples of `add` merged
    /// in — the delta-apply path. The tuples land in the pending run, which
    /// is folded in only past its share of the main run, as after an
    /// insert: the main run stays shared with every clone, no row of it is
    /// copied, and the permutations built on it are kept; the pending
    /// run's own are dropped, to be rebuilt over it alone. Each tuple of
    /// `add` is checked against the main run by a prefix probe. `add` is
    /// left as it is. `Err(j)` for the first `j` whose tuple of `add`
    /// ([`Relation::tuples`]) is already in the relation.
    ///
    /// # Panics
    /// Panics if the two arities differ.
    pub fn merge_sorted(mut self, add: &Relation) -> Result<Relation, usize> {
        assert_eq!(
            self.arity(),
            add.arity(),
            "Relation::merge_sorted: arities differ"
        );
        let pending = self.pending();
        let mut merged = Vec::with_capacity(pending.cells.len() + add.len() * add.arity());
        let mut pending = pending.iter();
        for (j, row) in add.tuples().enumerate() {
            let in_main = self.run.with_prefix(row);
            while let Some(below) = pending.peek().filter(|&p| p < row) {
                merged.extend_from_slice(below);
                pending.next();
            }
            if !in_main.is_empty() || pending.peek() == Some(row) {
                return Err(j);
            }
            merged.extend_from_slice(row);
        }
        pending.for_each(|row| merged.extend_from_slice(row));
        self.pending = merged;
        self.pending_rows += add.len();
        self.pending_perms.take();
        self.fold_if_outgrown();
        Ok(self)
    }

    /// Forces every column permutation a probe can use to be built now
    /// (they are otherwise built lazily on first probe) — a warm-up for
    /// callers that want the first query to pay no index work. Records the
    /// builds.
    pub fn build_all_indexes(&self) {
        let mut tally = ProbeTally::default();
        for col in 1..self.arity() {
            self.run.perm(col, &mut tally);
            if self.pending_rows > PENDING_FLOOR {
                self.pending_perm(col);
            }
        }
        stats::record(&tally);
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

    /// The posting lengths of one column — each distinct value with the
    /// number of tuples holding it — counted from the cells of the main
    /// and the pending run, one pass over each: an array indexed by id less
    /// the column's least when the column's ids are dense, sorted pairs
    /// otherwise. Each run is sorted by its leading column, so that
    /// column's least and greatest ids are read off the runs' first and
    /// last rows. Statistics and the active domain read this.
    pub fn posting_counts(&self, col: usize) -> PostingCounts {
        let runs = [self.run.rows(), self.pending()];
        let span = if col == 0 {
            let ends = |rows: Rows<'_>| match rows.len {
                0 => None,
                len => Some([rows.row(0)[0], rows.row(len - 1)[0]]),
            };
            id_span(runs.into_iter().filter_map(ends).flatten())
        } else {
            id_span(runs.into_iter().flat_map(|rows| rows.column(col)))
        };
        let Some((min, max)) = span else {
            return PostingCounts::Sparse(Vec::new());
        };
        if ids_are_dense(min, max, self.len()) {
            let mut counts = vec![0u32; (max - min) as usize + 1];
            for rows in runs {
                for c in rows.column(col) {
                    counts[(c.0 - min) as usize] += 1;
                }
            }
            PostingCounts::Dense { min, counts }
        } else {
            // Sorted and then summed in place: one buffer. A leading column
            // held in one run is sorted already, which the sort sees in one
            // pass.
            let mut pairs: Vec<(Const, u32)> = Vec::with_capacity(self.len());
            for rows in runs {
                pairs.extend(rows.column(col).map(|c| (c, 1)));
            }
            pairs.sort_unstable_by_key(|&(c, _)| c);
            pairs.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                kept.1 += u32::from(same);
                same
            });
            PostingCounts::Sparse(pairs)
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

    /// Set-membership test: a prefix search of each run.
    pub fn contains(&self, tuple: &[Const]) -> bool {
        tuple.len() == self.arity()
            && !(self.run.with_prefix(tuple).is_empty()
                && self.pending().with_prefix(tuple).is_empty())
    }

    fn insert(&mut self, tuple: &[Const]) -> Result<bool, TooManyRows> {
        debug_assert_eq!(tuple.len(), self.arity());
        let pending = self.pending();
        let at = equal_range(pending.len, |r| pending.row(r).cmp(tuple));
        if !at.is_empty() || !self.run.with_prefix(tuple).is_empty() {
            return Ok(false);
        }
        // The relation is left exactly as it was when the id space is full.
        row_id(self.len())?;
        let (arity, at) = (self.arity(), at.start);
        self.pending
            .splice(at * arity..at * arity, tuple.iter().copied());
        self.pending_rows += 1;
        // Built permutations shift the ids from `at` up and take `at` in, a
        // pass over the run like the splice's.
        let (cells, id) = (&self.pending, at as u32);
        let perms = self
            .pending_perms
            .get_mut()
            .map_or(&mut [][..], |p| &mut p[..]);
        for (col, perm) in (1..).zip(perms) {
            perm.iter_mut().for_each(|r| *r += u32::from(*r >= id));
            let key = (tuple[col], id);
            let slot = perm.partition_point(|&r| (cells[r as usize * arity + col], r) < key);
            perm.insert(slot, id);
        }
        self.fold_if_outgrown();
        Ok(true)
    }

    /// The rows a probe with the given `(column, value)` constraints has
    /// to examine. The constraints on columns `0, 1, …` — as far as `bound`
    /// opens with them, so callers list columns in ascending order — are
    /// one prefix search of each run; each later constraint is one column
    /// lookup — a stretch of the column's permutation of the main run
    /// (built if needed, and counted in `tally` as an index build) and of a
    /// pending run past `PENDING_FLOOR` rows, a walk of a shorter one —
    /// made only while more than one row is still in play; the shortest
    /// result wins (the earliest on a tie), and every search or lookup is
    /// counted in `tally` as one index probe. With no constraint it is the
    /// whole relation. Rows are *not* checked against the constraints that
    /// lost — the caller does that, and counts what it examined in the
    /// tally's [`ProbeTally::tuples_scanned`].
    pub fn probe(
        &self,
        bound: impl IntoIterator<Item = (usize, Const)>,
        tally: &mut ProbeTally,
    ) -> Probe<'_> {
        let mut bound = bound.into_iter();
        let (main, pending) = (self.run.rows(), self.pending());
        let with_prefix = |prefix: &[Const]| Probe {
            main: Source::block(main.slice(self.run.with_prefix(prefix))),
            pending: Source::block(pending.slice(pending.with_prefix(prefix))),
        };
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
            tally.index_probes += 1;
            with_prefix(&prefix[..prefix_len])
        });
        for (col, c) in beyond.into_iter().chain(bound) {
            if best.as_ref().is_some_and(|b| b.len() <= 1) {
                break;
            }
            tally.index_probes += 1;
            let rows = if col == 0 {
                with_prefix(&[c])
            } else {
                Probe {
                    main: Source::picked(main, self.run.perm(col, tally), col, c),
                    pending: if pending.len <= PENDING_FLOOR {
                        Source::walk(pending, col, c)
                    } else {
                        Source::picked(pending, self.pending_perm(col), col, c)
                    },
                }
            };
            if best.as_ref().is_none_or(|b| rows.len() < b.len()) {
                best = Some(rows);
            }
        }
        best.unwrap_or_else(|| Probe {
            main: Source::block(main),
            pending: Source::block(pending),
        })
    }

    /// Forces every column permutation, of both runs, and cross-checks the
    /// relation: the cell count against the row count, both runs strictly
    /// sorted and disjoint, the main run's directory naming each leading
    /// id's rows, and each permutation a permutation of its run's row ids
    /// in ascending (cell, row id) order. `wdpt-store verify` runs
    /// this to extend the load-time validation of a file's runs to
    /// everything derived from them. Records the permutations it built.
    pub fn verify_deep(&self) -> Result<(), String> {
        let mut tally = ProbeTally::default();
        let checked = self.check_deep(&mut tally);
        stats::record(&tally);
        checked
    }

    fn check_deep(&self, tally: &mut ProbeTally) -> Result<(), String> {
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
        if let Some(directory) = &self.run.directory {
            directory.check(rows)?;
        }
        let pending = self.pending();
        pending
            .check_sorted()
            .map_err(|why| format!("pending: {why}"))?;
        if pending
            .iter()
            .any(|row| !self.run.with_prefix(row).is_empty())
        {
            return Err("a pending row is also in the main run".to_owned());
        }
        for col in 1..arity {
            check_order(rows, self.run.perm(col, tally), col)?;
            check_order(pending, self.pending_perm(col), col)
                .map_err(|why| format!("pending: {why}"))?;
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
    /// ([`Relation::posting_counts`]).
    pub fn active_domain(&self) -> &BTreeSet<Const> {
        self.active_domain.get_or_init(|| {
            let mut domain: Vec<Const> = Vec::new();
            for rel in self.relations.values() {
                for col in 0..rel.arity() {
                    rel.posting_counts(col).for_each(|c, _| domain.push(c));
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

    /// The next of the workspace's seeded draws (Knuth's MMIX constants),
    /// below `n`.
    fn draw(state: &mut u64, n: u32) -> u32 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 33) % u64::from(n)) as u32
    }

    #[test]
    fn a_prefix_probe_finds_what_a_scan_finds() {
        let mut state = 11;
        // Around the directory's floor, and with leading ids dense or spread
        // too thin for one.
        for rows in [0, 1, 2, 9, 17, 60, 63, 64, 65, 300] {
            for stride in [1, 100_003] {
                // Cells in 1..=4, so keys over 0..=5 fall below, between and
                // above the rows as well as on them.
                let cells: Vec<Const> = (0..rows * 4)
                    .map(|_| Const((draw(&mut state, 4) + 1) * stride))
                    .collect();
                let (_, rows, cells) = Relation::from_rows(4, rows, cells).into_parts();
                let run = Run::new(4, rows, cells);
                let spread = stride > 1 && rows > 1;
                assert_eq!(
                    run.directory.is_some(),
                    rows >= DIRECTORY_FLOOR && !spread,
                    "{rows} rows, stride {stride}"
                );
                if let Some(directory) = &run.directory {
                    directory.check(run.rows()).unwrap();
                }
                // One- and two-cell keys take the integer paths, longer ones
                // the slice path.
                for width in 1..=4 {
                    for code in 0..6u32.pow(width as u32) {
                        let key: Vec<Const> = (0..width as u32)
                            .map(|i| Const(code / 6u32.pow(i) % 6 * stride))
                            .collect();
                        let first = |hit: fn(Ordering) -> bool| {
                            (0..rows)
                                .position(|r| hit(run.rows().row(r)[..width].cmp(&key)))
                                .unwrap_or(rows)
                        };
                        let expected =
                            first(|o| o != Ordering::Less)..first(|o| o == Ordering::Greater);
                        let found = run.with_prefix(&key);
                        assert!(
                            found == expected || found.is_empty() && expected.is_empty(),
                            "{key:?} in {rows} rows: {found:?}, not {expected:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_directory_takes_at_most_sixteen_bytes_a_row() {
        // 64 single-cell rows, leading ids `stride` apart: spans of 252 and
        // 315 ids, against the 256 that four ids a row allow.
        for (stride, kept) in [(4, true), (5, false)] {
            let cells: Vec<Const> = (0..64).map(|r| Const(r * stride)).collect();
            let run = Run::new(1, 64, cells);
            assert_eq!(run.directory.is_some(), kept, "stride {stride}");
            if let Some(directory) = &run.directory {
                assert!(directory.starts.len() * 4 <= 16 * 64 + 8);
            }
        }
    }

    #[test]
    fn a_search_finds_its_range_in_logarithmic_comparisons() {
        for len in [0, 1, 2, 16, 17, 1000] {
            let values: Vec<u32> = (0..len as u32).map(|v| v / 3).collect();
            for key in 0..=len as u32 / 3 + 1 {
                let compared = std::cell::Cell::new(0);
                let found = equal_range(len, |r| {
                    compared.set(compared.get() + 1);
                    values[r].cmp(&key)
                });
                assert_eq!(
                    found,
                    values.partition_point(|&v| v < key)..values.partition_point(|&v| v <= key)
                );
                // A bisection and a gallop over a run of three equal rows.
                let bound = 2 * (usize::BITS - len.leading_zeros()) as usize + 3;
                assert!(compared.get() <= bound, "{len} rows, key {key}");
            }
        }
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
        matches(db.relation(p).unwrap(), pat)
    }

    /// The tuples of `rel` matching `pat` — position `i` equal to `pat[i]`
    /// where that is `Some` — probed and filtered, the probe and every row
    /// it yields counted in `tally`, as a search counts them.
    fn hits<'a>(
        rel: &'a Relation,
        pat: &[Option<Const>],
        tally: &mut ProbeTally,
    ) -> Vec<&'a [Const]> {
        let bound = (pat.iter().enumerate()).filter_map(|(col, p)| p.map(|c| (col, c)));
        let rows = rel.probe(bound, tally);
        tally.tuples_scanned += rows.len() as u64;
        rows.filter(|t| pat.iter().zip(*t).all(|(p, v)| p.is_none_or(|c| c == *v)))
            .collect()
    }

    /// The number of tuples of `rel` matching `pat`.
    fn matches(rel: &Relation, pat: &[Option<Const>]) -> usize {
        hits(rel, pat, &mut ProbeTally::default()).len()
    }

    /// The number of tuples of `rel` with `t[col] == c`: one probe's rows.
    fn rows_with(rel: &Relation, col: usize, c: Const) -> usize {
        rel.probe([(col, c)], &mut ProbeTally::default()).len()
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
        // land in the pending run, which is walked or keeps its own
        // permutations up to date, so a column permutation of the main
        // run is rebuilt only after a fold — once here.
        let mut i = Interner::new();
        let e = i.pred("e");
        let consts: Vec<Const> = (0..64).map(|j| i.constant(&format!("k{j}"))).collect();
        let mut db = Database::new();
        db.insert(e, vec![consts[0], consts[1]]);
        let mut tally = ProbeTally::default();
        for j in 1..consts.len() - 1 {
            db.insert(e, vec![consts[j], consts[j + 1]]);
            // Query between inserts: results must include the new tuple…
            let rel = db.relation(e).unwrap();
            assert_eq!(hits(rel, &[Some(consts[j]), None], &mut tally).len(), 1);
            assert_eq!(hits(rel, &[None, Some(consts[j + 1])], &mut tally).len(), 1);
        }
        // …and column 1's permutation is built once per fold (62 rebuilds
        // would mean the quadratic behavior is back).
        assert!(
            tally.index_builds <= 2,
            "interleaved insert/query workload rebuilt indexes {} times",
            tally.index_builds
        );
        // Probes returned matches, not the relation: each query is one
        // probe and scans exactly the rows holding its constant (1 here).
        assert_eq!((tally.index_probes, tally.tuples_scanned), (124, 124));
    }

    #[test]
    fn a_probe_counts_its_searches_and_leaves_the_rows_to_the_caller() {
        let rel = Relation::from_sorted(2, 3, [1, 2, 1, 3, 2, 3].map(Const).to_vec());
        let mut tally = ProbeTally::default();
        let mut rows = rel.probe([(0, Const(1))], &mut tally);
        assert_eq!(rows.len(), 2);
        rows.next(); // one row, then abandon
        assert_eq!(rows.len(), 1);
        assert_eq!((tally.index_probes, tally.tuples_scanned), (1, 0));
        // A bound prefix is one search.
        let both = [(0, Const(1)), (1, Const(3))];
        assert_eq!(rel.probe(both, &mut tally).len(), 1);
        assert_eq!((tally.index_probes, tally.index_builds), (2, 0));
        // Column 1 alone: a search of its permutation, built once.
        for probes in [3, 4] {
            assert_eq!(rel.probe([(1, Const(3))], &mut tally).len(), 2);
            assert_eq!((tally.index_probes, tally.index_builds), (probes, 1));
        }
        // No constraint: every row, and no search.
        assert_eq!(rel.probe([], &mut tally).len(), 3);
        assert_eq!((tally.index_probes, tally.tuples_scanned), (4, 0));
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
            matches(bulk.relation(e).unwrap(), &[Some(a), None]),
            matches(db.relation(e).unwrap(), &[Some(a), None])
        );
        let b = i.constant("b");
        assert!(bulk.relation(e).unwrap().contains(&[a, b]));
    }

    #[test]
    fn bulk_loaded_relation_stays_consistent_under_interleaved_mutation() {
        // Guards the snapshot/delta-apply path: a relation assembled via
        // `from_sorted` must keep `insert`, `contains`, and `postings`
        // mutually consistent when loads and mutations interleave — the
        // inserts sit in the pending run beside a main run whose column-1
        // permutation is built mid-stream by the first probe.
        let mut i = Interner::new();
        let e = i.pred("e");
        let consts: Vec<Const> = (0..24).map(|j| i.constant(&format!("c{j}"))).collect();
        let cells: Vec<Const> = (0..8).flat_map(|j| [consts[j], consts[j + 1]]).collect();
        let mut db = Database::from_sorted(vec![(e, Relation::from_sorted(2, 8, cells))]);

        // Interleave: probe (postings over both runs), insert a new
        // tuple, membership-check both old and new tuples.
        for j in 8..16 {
            let (a, b) = (consts[j], consts[j + 1]);
            let rel = db.relation(e).unwrap();
            assert_eq!(rows_with(rel, 0, a), 0, "tuple not inserted yet");
            assert!(!rel.contains(&[a, b]));
            assert!(db.insert(e, vec![a, b]));
            assert!(!db.insert(e, vec![a, b]), "re-insert must dedup");
            let rel = db.relation(e).unwrap();
            // Both columns see the pending row…
            assert_eq!(rows_with(rel, 0, a), 1);
            assert_eq!(rows_with(rel, 1, b), 1);
            // …and membership agrees with it, for old and new tuples alike.
            assert!(rel.contains(&[a, b]));
            assert!(rel.contains(&[consts[0], consts[1]]));
            assert_eq!(matches(rel, &[Some(a), None]), 1);
        }
        let rel = db.relation(e).unwrap();
        assert_eq!(rel.len(), 16);
        // Every tuple is reachable through probe, scan, and membership.
        for j in 0..16 {
            let (a, b) = (consts[j], consts[j + 1]);
            assert!(rel.contains(&[a, b]));
            assert_eq!(matches(rel, &[Some(a), Some(b)]), 1);
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
            assert_eq!((matches(yes, &[]), matches(no, &[])), (1, 0));
            assert!(yes.verify_deep().is_ok() && no.verify_deep().is_ok());
            assert!(db.active_domain().is_empty());
        }
        // Folded or pending, merged or not, it stays one row.
        let (arity, rows, cells) = db.relation(t).unwrap().clone().into_parts();
        assert_eq!((arity, rows, cells.len()), (0, 1, 0));
        let one = Relation::from_sorted(0, 1, Vec::new());
        let merged = Relation::from_sorted(0, 0, Vec::new()).merge_sorted(&one);
        assert_eq!(merged.unwrap().len(), 1);
        let twice = one.clone().merge_sorted(&one);
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
        assert_eq!(rows_with(old, 1, consts[151]), 0);
        assert_eq!(rows_with(new, 1, consts[151]), 1);
        assert!(old.verify_deep().is_ok() && new.verify_deep().is_ok());
    }

    #[test]
    fn merge_sorted_interleaves_and_reports_the_duplicate() {
        let c = |ids: &[u32]| ids.iter().map(|&id| Const(id)).collect::<Vec<_>>();
        let base = || Relation::from_sorted(2, 3, c(&[1, 1, 3, 3, 5, 5]));
        let add = Relation::from_sorted(2, 3, c(&[0, 9, 3, 4, 7, 7]));
        let merged = base().merge_sorted(&add).unwrap();
        let rows: Vec<Const> = merged.tuples().flatten().copied().collect();
        assert_eq!(rows, c(&[0, 9, 1, 1, 3, 3, 3, 4, 5, 5, 7, 7]));
        assert!(merged.verify_deep().is_ok());
        assert_eq!(rows_with(&merged, 0, Const(3)), 2);
        assert_eq!(add.len(), 3, "the addition is left as it was");
        // Row 1 of the addition is already there.
        let add = Relation::from_sorted(2, 2, c(&[2, 2, 3, 3]));
        assert_eq!(base().merge_sorted(&add).unwrap_err(), 1);
    }

    #[test]
    fn database_is_sync_and_shareable_across_threads() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Database>();
        let (mut i, db, e) = db3();
        let a = i.constant("a");
        let c = i.constant("c");
        std::thread::scope(|scope| {
            let h1 = scope.spawn(|| matches(db.relation(e).unwrap(), &[Some(a), None]));
            let h2 = scope.spawn(|| matches(db.relation(e).unwrap(), &[None, Some(c)]));
            assert_eq!(h1.join().unwrap(), 2);
            assert_eq!(h2.join().unwrap(), 2);
        });
    }
}
