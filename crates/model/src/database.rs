//! Databases: finite sets of ground atoms with per-column indexes.
//!
//! A database `D` over schema `σ` is a set of ground relational atoms
//! (Section 2 of the paper). [`Database`] stores one [`Relation`] per
//! predicate; each relation keeps its tuples densely plus lazily-built
//! per-column hash indexes that the CQ engines use for index-nested-loop
//! matching.
//!
//! Indexes live behind [`OnceLock`]s, so a fully-loaded `Database` is
//! [`Sync`] and can be shared by reference across the worker threads of the
//! parallel WDPT evaluator; concurrent lazy index builds are safe (one
//! thread wins, the others reuse its index). Inserting into a relation
//! whose indexes are already built updates them **incrementally** — the
//! seed version discarded every index on every insert, which made
//! interleaved load/query workloads rebuild an O(n) index per insert
//! (quadratic overall).

use crate::atom::Atom;
use crate::interner::Interner;
use crate::stats;
use crate::term::{Const, Pred};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::OnceLock;
use wdpt_obs::{histogram, LocalHistogram};

/// The index work of one search, counted locally and added to the shared
/// counters in one batch when the tally is dropped. Probes and candidate
/// tuples sit on the innermost loop of every engine: a relaxed `fetch_add`
/// per tuple and four more per probe for the posting-length histogram are
/// measurable there, a local increment is not. Whoever runs a search owns
/// one and lends it to every [`Relation::candidates`] call of that search;
/// [`Relation::matching`] keeps its own.
#[derive(Debug)]
pub struct ProbeTally {
    probes: u64,
    scanned: u64,
    /// Length of the posting list each indexed probe settled on. The
    /// distribution is only kept by a tally made while tracing is on
    /// (profiled runs), as it was when every probe recorded into the shared
    /// histogram directly; the others carry no buckets at all.
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

/// The tuples one probe has to look at: the rows of the shortest posting
/// list among its bound columns, or the whole relation when no column is
/// bound. The caller checks the remaining columns itself.
#[derive(Debug, Clone)]
pub struct Candidates<'a>(CandidateRows<'a>);

#[derive(Debug, Clone)]
enum CandidateRows<'a> {
    /// Rows named by one posting list.
    Posted {
        tuples: &'a [Box<[Const]>],
        rows: std::slice::Iter<'a, u32>,
    },
    /// Every tuple of the relation.
    All(std::slice::Iter<'a, Box<[Const]>>),
}

impl<'a> Iterator for Candidates<'a> {
    type Item = &'a [Const];

    #[inline]
    fn next(&mut self) -> Option<&'a [Const]> {
        match &mut self.0 {
            CandidateRows::Posted { tuples, rows } => rows.next().map(|&r| &*tuples[r as usize]),
            CandidateRows::All(tuples) => tuples.next().map(|t| &**t),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            CandidateRows::Posted { rows, .. } => rows.size_hint(),
            CandidateRows::All(tuples) => tuples.size_hint(),
        }
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

/// One column's posting index: constant → ascending tuple indices.
pub type ColumnIndex = HashMap<Const, Vec<u32>>;

/// A relation outgrew the `u32` row-id space: posting lists, snapshot row
/// counts, and delta row remaps all address tuples by `u32`, so row
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
/// by every posting list and snapshot field.
pub fn row_id(row: usize) -> Result<u32, TooManyRows> {
    u32::try_from(row).map_err(|_| TooManyRows { rows: row as u64 })
}

/// The extension of a single predicate: a set of constant tuples.
///
/// A relation is either **owned** (its tuple block was built eagerly — the
/// insert, bulk-load, and delta-merge paths) or **lazy** (a zero-copy
/// [`ColumnarRelation`] view into a shared snapshot buffer, with tuples
/// decoded behind a `OnceLock` on first touch). The two are
/// indistinguishable through the query API. Either way the relation is the
/// only owner of its column indexes: each one is derived here, on the first
/// probe of that column, and nobody hands a relation a prebuilt one.
/// Mutation detaches the backing first (see [`Relation::force_owned`]) so
/// incremental index maintenance can never race a stale lazy decode.
#[derive(Debug, Clone)]
pub struct Relation {
    arity: usize,
    /// Tuple count — known without decoding anything, so `len()` and the
    /// planner's row estimates never force a lazy relation.
    rows: usize,
    /// Zero-copy columnar views, present only on lazily-decoded relations.
    backing: Option<crate::columnar::ColumnarRelation>,
    /// Row-major tuple block; initialized at construction for owned
    /// relations, decoded from `backing` on first whole-row access.
    tuples: OnceLock<Vec<Box<[Const]>>>,
    /// Membership set, built lazily on the first `contains`/`insert` — a
    /// bulk-loaded relation that is only ever scanned and index-probed
    /// never pays the O(n) clone-and-hash of materializing it.
    seen: OnceLock<HashSet<Box<[Const]>>>,
    /// Lazily built per-column index: `column -> constant -> tuple indices`.
    column_index: Vec<OnceLock<HashMap<Const, Vec<u32>>>>,
}

impl Default for Relation {
    fn default() -> Self {
        Relation::new(0)
    }
}

impl Relation {
    fn new(arity: usize) -> Self {
        Relation::owned(arity, Vec::new())
    }

    /// Assembles an owned relation whose tuple block exists up front.
    fn owned(arity: usize, tuples: Vec<Box<[Const]>>) -> Self {
        let rows = tuples.len();
        let lock = OnceLock::new();
        let _ = lock.set(tuples);
        Relation {
            arity,
            rows,
            backing: None,
            tuples: lock,
            seen: OnceLock::new(),
            column_index: (0..arity).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Builds a relation directly from a **strictly sorted** run of tuples
    /// (lexicographic on the `Const` ids, no duplicates), skipping the
    /// per-tuple insert path. This is the bulk-load constructor used by the
    /// `wdpt-store` snapshot loader: tuples arrive pre-sorted and
    /// pre-deduplicated from merged sorted runs, so no per-tuple work is
    /// left at all (the membership set stays lazy until first probed).
    ///
    /// # Panics
    /// Panics (in debug builds) if a tuple has the wrong arity or the run is
    /// not strictly sorted; callers that read untrusted input must validate
    /// first ([`wdpt-store` does, after its checksums]).
    pub fn from_sorted(arity: usize, tuples: Vec<Box<[Const]>>) -> Relation {
        debug_assert!(tuples.iter().all(|t| t.len() == arity));
        debug_assert!(tuples.windows(2).all(|w| w[0] < w[1]), "run not sorted");
        Relation::owned(arity, tuples)
    }

    /// Builds a **lazy** relation over a zero-copy columnar backing: no
    /// tuples are materialized and no indexes are decoded until a query
    /// actually touches them. The caller (the `wdpt-store` decoder) must
    /// have validated the backing's streams — strictly sorted rows, cells
    /// in the constant namespace, row count in the `u32` id space.
    pub fn from_columnar(backing: crate::columnar::ColumnarRelation) -> Relation {
        Relation {
            arity: backing.arity(),
            rows: backing.rows(),
            tuples: OnceLock::new(),
            seen: OnceLock::new(),
            column_index: (0..backing.arity()).map(|_| OnceLock::new()).collect(),
            backing: Some(backing),
        }
    }

    /// True while the relation is still a pure zero-copy view (no tuple
    /// block materialized). Exposed so tests and cold-start accounting can
    /// assert that loading did not secretly decode anything.
    pub fn is_lazy(&self) -> bool {
        self.backing.is_some() && self.tuples.get().is_none()
    }

    /// The row-major tuple block, decoding it from the columnar backing on
    /// first use.
    fn tuple_vec(&self) -> &Vec<Box<[Const]>> {
        self.tuples.get_or_init(|| {
            self.backing
                .as_ref()
                .expect("owned relations initialize tuples at construction")
                .decode_tuples()
        })
    }

    /// Detaches the columnar backing before a mutation, materializing the
    /// tuple block. Column indexes that were never probed stay unbuilt and
    /// are derived from the (by then mutated) tuple block on first use —
    /// with the backing gone, a later lazy decode cannot resurrect the
    /// pre-insert posting lists from the snapshot bytes.
    fn force_owned(&mut self) {
        let Some(backing) = self.backing.take() else {
            return;
        };
        if self.tuples.get().is_none() {
            let _ = self.tuples.set(backing.decode_tuples());
        }
    }

    /// Forces every column index to be built now (they are otherwise built
    /// lazily on first probe) — a warm-up for callers that want the first
    /// query to pay no index work.
    pub fn build_all_indexes(&self) {
        for col in 0..self.arity {
            let _ = self.index_for(col);
        }
    }

    /// Arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples. Never forces a lazy relation — the count is part
    /// of the columnar header.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True iff the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Iterates over all tuples (materializing the tuple block of a lazy
    /// relation on first use).
    pub fn tuples(&self) -> impl Iterator<Item = &[Const]> + '_ {
        self.tuple_vec().iter().map(|t| &**t)
    }

    /// Streams `(value, posting_len)` pairs of one column without forcing
    /// a tuple materialization: from the built column index when present,
    /// else from a lazy relation's key directory. Returns `false` when
    /// neither source exists (an owned relation whose index was never
    /// built) — the caller falls back to scanning [`Relation::tuples`].
    /// Pair order is unspecified.
    pub fn scan_posting_lens(&self, col: usize, mut f: impl FnMut(Const, u32)) -> bool {
        if let Some(idx) = self.column_index.get(col).and_then(OnceLock::get) {
            for (c, rows) in idx {
                f(*c, rows.len() as u32);
            }
            return true;
        }
        if let Some(backing) = &self.backing {
            backing.scan_key_dir(col, f);
            return true;
        }
        false
    }

    /// Streams `(value, posting_len)` pairs straight from the serialized
    /// key directory, ignoring any built index. Returns `false` for owned
    /// relations. This is the verification hook: unlike
    /// [`Relation::scan_posting_lens`] (which prefers the built index as
    /// the cheapest truthful source), this always reads what the snapshot
    /// *claims*, so a deep check can compare it against the cells even
    /// after some column was decoded.
    pub fn scan_serialized_posting_lens(&self, col: usize, f: impl FnMut(Const, u32)) -> bool {
        match &self.backing {
            Some(backing) => {
                backing.scan_key_dir(col, f);
                true
            }
            None => false,
        }
    }

    /// Decomposes the relation into its arity and owned tuple block without
    /// cloning. This is the bulk *mutation* counterpart of
    /// [`Relation::from_sorted`]: the snapshot delta-apply and id-remap
    /// paths take a loaded relation apart, merge or translate its tuple
    /// run, and reassemble. Column indexes are not carried across — the
    /// reassembled relation derives the ones its queries probe.
    pub fn into_parts(mut self) -> (usize, Vec<Box<[Const]>>) {
        self.force_owned();
        (self.arity, self.tuples.take().unwrap_or_default())
    }

    /// The membership set, built on first use from the tuple list.
    fn seen(&self) -> &HashSet<Box<[Const]>> {
        self.seen
            .get_or_init(|| self.tuple_vec().iter().cloned().collect())
    }

    /// Set-membership test.
    pub fn contains(&self, tuple: &[Const]) -> bool {
        self.seen().contains(tuple)
    }

    fn insert(&mut self, tuple: Box<[Const]>) -> Result<bool, TooManyRows> {
        debug_assert_eq!(tuple.len(), self.arity);
        self.force_owned();
        self.seen();
        let seen = self.seen.get_mut().expect("initialized just above");
        if !seen.insert(tuple.clone()) {
            return Ok(false);
        }
        let row = match row_id(self.rows) {
            Ok(row) => row,
            Err(e) => {
                // Leave the relation exactly as it was: the membership set
                // must not claim a tuple the tuple list never received.
                seen.remove(&tuple);
                return Err(e);
            }
        };
        // Update already-built column indexes incrementally instead of
        // discarding them: appending one posting per built column is
        // O(arity), while a rebuild-on-next-use is O(n) per insert.
        for (col, cell) in self.column_index.iter_mut().enumerate() {
            if let Some(idx) = cell.get_mut() {
                idx.entry(tuple[col]).or_default().push(row);
            }
        }
        self.tuples
            .get_mut()
            .expect("force_owned materialized the tuple block")
            .push(tuple);
        self.rows += 1;
        Ok(true)
    }

    fn index_for(&self, col: usize) -> &HashMap<Const, Vec<u32>> {
        self.column_index[col].get_or_init(|| {
            // A lazy relation whose tuples are still packed derives the
            // posting lists straight from the cells blob — cheaper than
            // materializing rows first, and not counted as an index
            // *build* (nothing was recomputed, only decoded).
            if let Some(backing) = &self.backing {
                if self.tuples.get().is_none() {
                    return backing.decode_index(col);
                }
            }
            stats::record_index_build();
            let mut idx: HashMap<Const, Vec<u32>> = HashMap::new();
            for (i, t) in self.tuple_vec().iter().enumerate() {
                // Insert paths reject row ids past u32::MAX and the bulk
                // paths check row counts before `from_sorted`, so this
                // conversion cannot fail for a well-formed relation.
                let row = row_id(i).expect("row count bounded on construction");
                idx.entry(t[col]).or_default().push(row);
            }
            idx
        })
    }

    /// Length of the posting list for `c` in column `col` (building the
    /// column index if needed). This is the exact number of tuples with
    /// `t[col] == c`.
    pub fn posting_len(&self, col: usize, c: Const) -> usize {
        stats::record_index_probes(1);
        self.index_for(col).get(&c).map_or(0, Vec::len)
    }

    /// The rows with `t[col] == c`, ascending (building the column index if
    /// needed): one hash lookup, counted in `tally` as one index probe.
    #[inline]
    pub fn postings(&self, col: usize, c: Const, tally: &mut ProbeTally) -> &[u32] {
        tally.probes += 1;
        self.index_for(col).get(&c).map_or(&[], Vec::as_slice)
    }

    /// The tuples a probe with the given `(column, value)` constraints has
    /// to examine: the rows of the shortest posting list among them (the
    /// first such column on a tie; one hash lookup per constraint), or the
    /// whole relation when there is none. Tuples are *not* checked against
    /// the constraints — the caller does that, and counts what it examined
    /// with [`ProbeTally::add_scanned`].
    pub fn candidates(
        &self,
        bound: impl Iterator<Item = (usize, Const)>,
        tally: &mut ProbeTally,
    ) -> Candidates<'_> {
        let mut best: Option<&[u32]> = None;
        for (col, c) in bound {
            let rows = self.postings(col, c, tally);
            if best.is_none_or(|b| rows.len() < b.len()) {
                best = Some(rows);
            }
        }
        Candidates(match best {
            Some(rows) => {
                if let Some(lens) = &mut tally.posting_lens {
                    lens.record(rows.len() as u64);
                }
                CandidateRows::Posted {
                    tuples: self.tuple_vec(),
                    rows: rows.iter(),
                }
            }
            None => CandidateRows::All(self.tuple_vec().iter()),
        })
    }

    /// Iterates over tuples matching `pattern`: position `i` must equal
    /// `pattern[i]` when it is `Some(c)`. Uses the column index of the most
    /// selective bound position when one exists.
    pub fn matching<'a>(&'a self, pattern: &'a [Option<Const>]) -> Matching<'a> {
        debug_assert_eq!(pattern.len(), self.arity);
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

    /// Forces full materialization and cross-checks every posting entry
    /// against the tuple block: ascending in-range rows, targets whose
    /// cell equals the key, and lists that jointly cover every row exactly
    /// once per column. `wdpt-store verify` runs this to extend the
    /// load-time stream validation of lazily-decoded snapshots down to the
    /// derived posting lists.
    pub fn verify_deep(&self) -> Result<(), String> {
        let tuples = self.tuple_vec();
        if tuples.len() != self.rows {
            return Err(format!(
                "tuple block holds {} rows but the header declares {}",
                tuples.len(),
                self.rows
            ));
        }
        if let Some(t) = tuples.iter().find(|t| t.len() != self.arity) {
            return Err(format!(
                "tuple of arity {} in a relation of arity {}",
                t.len(),
                self.arity
            ));
        }
        for col in 0..self.arity {
            let idx = self.index_for(col);
            let mut covered = 0usize;
            for (key, rows) in idx {
                if rows.is_empty() {
                    return Err(format!("column {col}: empty posting list"));
                }
                if !rows.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("column {col}: posting list not ascending"));
                }
                for &row in rows {
                    let cell = tuples
                        .get(row as usize)
                        .ok_or_else(|| format!("column {col}: posting row {row} out of range"))?
                        .get(col)
                        .copied();
                    if cell != Some(*key) {
                        return Err(format!(
                            "column {col}: posting row {row} does not hold the key"
                        ));
                    }
                }
                covered += rows.len();
            }
            if covered != self.rows {
                return Err(format!(
                    "column {col}: posting lists cover {covered} of {} rows",
                    self.rows
                ));
            }
        }
        Ok(())
    }
}

/// A database: one [`Relation`] per predicate, plus the active domain.
///
/// The active domain is computed lazily: eagerly deriving it at
/// construction would force every lazily-decoded relation of a zero-copy
/// snapshot, defeating the near-constant-time load. The first
/// [`Database::active_domain`] call pays one streaming pass over key
/// directories (or tuple scans for unindexed owned relations); inserts
/// afterwards maintain it incrementally, exactly as before.
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
    /// [`Relation::from_sorted`] and [`Relation::from_columnar`]). The
    /// active domain stays lazy — see the type-level docs.
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
        // Remember the cells only when the domain was already computed —
        // the common bulk path (domain never asked for) pays no clone.
        let cells = self.active_domain.get().map(|_| tuple.clone());
        let rel = self
            .relations
            .entry(pred)
            .or_insert_with(|| Relation::new(arity));
        assert_eq!(
            rel.arity(),
            arity,
            "predicate used with inconsistent arities"
        );
        let inserted = rel.insert(tuple.into_boxed_slice())?;
        if inserted {
            // Maintain the active domain only if it was already computed;
            // a never-asked-for domain is derived from scratch on first
            // access and will see this tuple then.
            if let (Some(domain), Some(cells)) = (self.active_domain.get_mut(), cells) {
                for c in cells {
                    domain.insert(c);
                }
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
    /// on first use; when a relation has built indexes or a columnar key
    /// directory, its distinct constants stream from those instead of a
    /// full tuple scan, so lazy relations stay unmaterialized.
    pub fn active_domain(&self) -> &BTreeSet<Const> {
        self.active_domain.get_or_init(|| {
            let mut domain: Vec<Const> = Vec::new();
            for rel in self.relations.values() {
                for col in 0..rel.arity() {
                    if !rel.scan_posting_lens(col, |c, _| domain.push(c)) {
                        domain.extend(rel.tuples().map(|t| t[col]));
                    }
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

    /// Consumes the database into its owned relations, in unspecified
    /// order. Paired with [`Database::from_sorted`], this lets bulk
    /// transformations (snapshot delta application, interner remapping)
    /// move untouched relations — tuples, built indexes and all — into the
    /// result instead of copying them tuple by tuple.
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
        // load/query workload rebuilt an O(n) index per insert. With
        // incremental maintenance each column index is built exactly once.
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
        // …and the two column indexes are built at most once each (other
        // tests run concurrently, so only *this relation's* builds — bounded
        // by a small constant — may show up; 62 rebuilds would mean the
        // quadratic behavior is back).
        assert!(
            delta.index_builds <= 16,
            "interleaved insert/query workload rebuilt indexes {} times",
            delta.index_builds
        );
        // Probes happened through the index, not via full scans: each
        // indexed query scans exactly its posting list (1 tuple here).
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
        let mut tuples: Vec<Box<[Const]>> =
            db.relation(e).unwrap().tuples().map(Box::from).collect();
        tuples.sort_unstable();
        let rel = Relation::from_sorted(2, tuples);
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
        // `from_sorted`, whose indexes and `seen` set are all still unbuilt,
        // must keep `insert`, `contains`, and `posting_len` mutually
        // consistent when loads and mutations interleave — column 0's index
        // is derived mid-stream by the first probe, column 1's and the
        // `seen` set only after some inserts already happened.
        let mut i = Interner::new();
        let e = i.pred("e");
        let consts: Vec<Const> = (0..24).map(|j| i.constant(&format!("c{j}"))).collect();
        let mut tuples: Vec<Box<[Const]>> = (0..8)
            .map(|j| vec![consts[j], consts[j + 1]].into_boxed_slice())
            .collect();
        tuples.sort_unstable();
        let mut db = Database::from_sorted(vec![(e, Relation::from_sorted(2, tuples))]);

        // Interleave: probe (posting_len through the derived index),
        // insert a new tuple, membership-check both old and new tuples.
        for j in 8..16 {
            let (a, b) = (consts[j], consts[j + 1]);
            let rel = db.relation(e).unwrap();
            assert_eq!(rel.posting_len(0, a), 0, "tuple not inserted yet");
            assert!(!rel.contains(&[a, b]));
            assert!(db.insert(e, vec![a, b]));
            assert!(!db.insert(e, vec![a, b]), "re-insert must dedup");
            let rel = db.relation(e).unwrap();
            // The derived indexes were maintained incrementally…
            assert_eq!(rel.posting_len(0, a), 1);
            assert_eq!(rel.posting_len(1, b), 1);
            // …and membership agrees with it, for old and new tuples alike.
            assert!(rel.contains(&[a, b]));
            assert!(rel.contains(&[consts[0], consts[1]]));
            assert_eq!(rel.matching(&[Some(a), None]).count(), 1);
        }
        let rel = db.relation(e).unwrap();
        assert_eq!(rel.len(), 16);
        // Every tuple is reachable through index, scan, and membership.
        for j in 0..16 {
            let (a, b) = (consts[j], consts[j + 1]);
            assert!(rel.contains(&[a, b]));
            assert_eq!(rel.matching(&[Some(a), Some(b)]).count(), 1);
        }
        assert_eq!(db.active_domain().len(), 17);
    }

    #[test]
    fn into_parts_hands_back_the_tuple_block() {
        let (_, db, e) = db3();
        let expected: BTreeSet<Box<[Const]>> =
            db.relation(e).unwrap().tuples().map(Box::from).collect();
        let mut rels: Vec<(Pred, Relation)> = db.into_relations().collect();
        assert_eq!(rels.len(), 1);
        let (pred, rel) = rels.pop().unwrap();
        assert_eq!(pred, e);
        let (arity, tuples) = rel.into_parts();
        assert_eq!(arity, 2);
        assert_eq!(tuples.into_iter().collect::<BTreeSet<_>>(), expected);
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
