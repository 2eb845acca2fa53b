//! Incremental **delta snapshots**: insert-only diffs chained onto a base
//! `WDPTSNAP` file.
//!
//! A delta reuses the container of the full format — the same magic and
//! CRC-framed sections — but carries its own version number
//! (`DELTA_VERSION`) and opens with a *delta header* (tag `0x04`) instead
//! of a snapshot header, so a delta can never be mistaken for a full
//! snapshot (and vice versa):
//!
//! | tag  | section        | payload                                                        |
//! |------|----------------|----------------------------------------------------------------|
//! | 0x04 | delta header   | base_hash u64 · base_symbols u64 · symbols u64 · fresh u64 · relations u32 · inserted u64 |
//! | 0x07 | dictionary     | one dictionary block: the `symbols − base_symbols` **appended** symbols, id order |
//! | 0x05 | relation delta | one relation block: the insertion run of one predicate         |
//! | 0xFF | end            | empty                                                          |
//!
//! The dictionary and relation blocks are the snapshot's own
//! (`crate::format::encode_dictionary`, `crate::format::encode_relation`
//! and their decoders): a delta is a small snapshot of what was added.
//!
//! `base_hash` is the FNV-1a-64 [`content_hash`] of the immediate
//! predecessor *file* — the base snapshot for the first delta, the
//! previous delta for every later one — so a chain is verified purely
//! from file bytes, with no registry. Deltas are **insert-only**: symbols
//! are appended (existing ids never move, which is what keeps serve-side
//! plan caches valid across a reload) and tuples are added, never
//! removed. Insertion runs stay flat from the file to the relation: applying
//! merges each into the touched relation's sorted pending run
//! ([`Relation::merge_sorted`]), so no row of the base's main run moves and
//! the permutations built on it are kept. Relations the delta does not
//! touch are moved into the result as they are.

use crate::format::{
    check_relation, checked_count, content_hash, decode_relation, decode_snapshot,
    encode_dictionary, encode_relation, expect_tag, len_u32, malformed, parse_dictionary,
    push_section, read_end, read_magic_version, read_section, write_atomic, Reader, RelationBlock,
    StoreError, MAGIC, SECTION_FRAME_BYTES, TAG_DELTA_HEADER, TAG_DICTIONARY, TAG_END, TAG_HEADER,
    TAG_RELATION_DELTA,
};
use std::collections::hash_map::{Entry, HashMap};
use std::collections::BTreeMap;
use std::ops::Deref;
use std::path::Path;
use wdpt_model::{Const, Database, Interner, Pred, Relation, Resolve, SymbolSpace};

/// The version field of a delta file. Deltas share the snapshot container
/// and its block codecs but are versioned on their own; version `1` held a
/// length-prefixed dictionary and fixed-width cells.
pub(crate) const DELTA_VERSION: u32 = 2;

/// The parsed delta-header section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaHeader {
    /// Format version of the file.
    pub version: u32,
    /// [`content_hash`] of the predecessor file this delta applies to.
    pub base_hash: u64,
    /// Symbol count of the predecessor's interner.
    pub base_symbols: u64,
    /// Symbol count after applying (base + appended).
    pub symbols: u64,
    /// The fresh-name counter after applying.
    pub fresh_counter: u64,
    /// Number of relation-delta sections.
    pub relations: u32,
    /// Total inserted tuples across relation deltas.
    pub inserted: u64,
}

/// A fully parsed (but not yet applied) delta file.
#[derive(Debug)]
pub struct Delta {
    /// The delta header.
    pub header: DeltaHeader,
    /// Appended symbols: local id `k` is file id `header.base_symbols + k`.
    appended: Interner,
    /// Per-relation insertion runs, predicates strictly ascending.
    relations: Vec<RelationBlock>,
}

impl Delta {
    /// Total inserted tuples (mirrors `header.inserted`).
    pub fn inserted(&self) -> u64 {
        self.header.inserted
    }
}

/// Serializes the difference between a base `(Interner, Database)` pair and
/// an updated one as a delta chained to `base_hash` (the [`content_hash`]
/// of the predecessor *file* the base pair was decoded from).
///
/// The updated interner must extend the base interner (same symbols, in
/// order, possibly more appended), and the updated database must be an
/// insert-only extension of the base — a removed tuple, removed relation,
/// or changed arity is a typed error, because the delta format cannot
/// express it.
pub fn delta_to_vec(
    base_hash: u64,
    base_interner: &Interner,
    base_db: &Database,
    new_interner: &Interner,
    new_db: &Database,
) -> Result<Vec<u8>, StoreError> {
    if new_interner.len() < base_interner.len()
        || !base_interner
            .symbols()
            .eq(new_interner.symbols().take(base_interner.len()))
    {
        return Err(malformed(
            "delta",
            "the updated interner does not extend the base interner \
             (existing ids must stay put for a delta to apply)",
        ));
    }

    // Every base relation must survive, at the same arity, with all of its
    // tuples — deltas are insert-only.
    for (pred, _) in base_db.relations() {
        if new_db.relation(pred).is_none() {
            return Err(malformed(
                "delta",
                format!(
                    "relation for predicate id {} was removed; deltas are insert-only",
                    pred.0
                ),
            ));
        }
    }

    let mut rel_order: Vec<(Pred, &Relation)> = new_db.relations().collect();
    rel_order.sort_by_key(|(p, _)| *p);

    let mut diffs: Vec<(Pred, usize, Vec<&[Const]>)> = Vec::new();
    let mut inserted: u64 = 0;
    for (pred, new_rel) in rel_order {
        let added: Vec<&[Const]> = match base_db.relation(pred) {
            None => new_rel.tuples().collect(),
            Some(base_rel) => {
                if base_rel.arity() != new_rel.arity() {
                    return Err(malformed(
                        "delta",
                        format!(
                            "predicate id {} changed arity ({} to {}); deltas are insert-only",
                            pred.0,
                            base_rel.arity(),
                            new_rel.arity()
                        ),
                    ));
                }
                // Both runs stream ascending: one lockstep walk.
                let mut base_rows = base_rel.tuples().peekable();
                let mut added = Vec::new();
                for row in new_rel.tuples() {
                    if base_rows.peek() == Some(&row) {
                        base_rows.next();
                    } else {
                        added.push(row);
                    }
                }
                if base_rows.next().is_some() {
                    return Err(malformed(
                        "delta",
                        format!(
                            "a tuple was removed from predicate id {}; deltas are insert-only",
                            pred.0
                        ),
                    ));
                }
                added
            }
        };
        if !added.is_empty() {
            inserted += added.len() as u64;
            diffs.push((pred, new_rel.arity(), added));
        }
    }

    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&DELTA_VERSION.to_le_bytes());

    let mut header = Vec::with_capacity(8 * 4 + 4 + 8);
    header.extend_from_slice(&base_hash.to_le_bytes());
    header.extend_from_slice(&(base_interner.len() as u64).to_le_bytes());
    header.extend_from_slice(&(new_interner.len() as u64).to_le_bytes());
    header.extend_from_slice(&new_interner.fresh_counter().to_le_bytes());
    header.extend_from_slice(&len_u32(diffs.len(), "delta relation count")?.to_le_bytes());
    header.extend_from_slice(&inserted.to_le_bytes());
    push_section(&mut out, TAG_DELTA_HEADER, &header);

    push_section(
        &mut out,
        TAG_DICTIONARY,
        &encode_dictionary(new_interner.symbols().skip(base_interner.len())),
    );

    for (pred, arity, rows) in diffs {
        let block = encode_relation(pred, arity, rows.len(), || rows.iter().copied())?;
        push_section(&mut out, TAG_RELATION_DELTA, &block);
    }

    push_section(&mut out, TAG_END, &[]);
    Ok(out)
}

/// Parses a delta file, verifying magic, version, every CRC, and all
/// structure that can be checked without the base (sortedness, counts,
/// ascending predicates). Cell namespaces are validated at apply time,
/// when the combined symbol table exists.
pub fn decode_delta(bytes: &[u8]) -> Result<Delta, StoreError> {
    let mut r = Reader::new(bytes);
    let version = read_magic_version(&mut r)?;
    if r.peek_u8() == Some(TAG_HEADER) {
        return Err(malformed(
            "delta header",
            "file is a full snapshot, not a delta (wdpt-store verify reads it directly)",
        ));
    }
    if version != DELTA_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }

    let section = read_section(&mut r, "delta header")?;
    expect_tag(&section, TAG_DELTA_HEADER, "delta header")?;
    let mut hr = Reader::new(section.payload);
    let header = DeltaHeader {
        version,
        base_hash: hr.u64("delta header")?,
        base_symbols: hr.u64("delta header")?,
        symbols: hr.u64("delta header")?,
        fresh_counter: hr.u64("delta header")?,
        relations: hr.u32("delta header")?,
        inserted: hr.u64("delta header")?,
    };
    if hr.remaining() != 0 {
        return Err(malformed("delta header", "trailing bytes"));
    }
    if header.symbols < header.base_symbols {
        return Err(malformed(
            "delta header",
            "symbol count shrinks (deltas are append-only)",
        ));
    }
    let appended_count = usize::try_from(header.symbols - header.base_symbols)
        .ok()
        .filter(|_| u32::try_from(header.symbols).is_ok())
        .ok_or_else(|| malformed("delta header", "symbol count exceeds u32 id space"))?;

    let section = read_section(&mut r, "dictionary")?;
    expect_tag(&section, TAG_DICTIONARY, "dictionary")?;
    let appended = parse_dictionary(section.payload, appended_count, |name| {
        format!("appended symbol {name:?} is listed twice")
    })?;

    // Each relation-delta section costs at least its framing; bound the
    // declared count against the bytes present before sizing anything.
    let rel_count = checked_count(
        u64::from(header.relations),
        SECTION_FRAME_BYTES as u64,
        r.remaining(),
        "delta header",
        "relation sections",
    )?;
    let mut relations: Vec<RelationBlock> = Vec::with_capacity(rel_count);
    let mut total: u64 = 0;
    for idx in 0..rel_count {
        let label = format!("relation delta[{idx}]");
        let label = label.as_str();
        let section = read_section(&mut r, label)?;
        expect_tag(&section, TAG_RELATION_DELTA, label)?;
        let block = decode_relation(section.payload, label)?;
        if relations.last().is_some_and(|prev| prev.pred >= block.pred) {
            return Err(malformed(label, "predicates not strictly ascending"));
        }
        if block.rows == 0 {
            return Err(malformed(label, "empty relation delta"));
        }
        total += block.rows as u64;
        relations.push(block);
    }
    if total != header.inserted {
        return Err(malformed(
            "delta header",
            format!(
                "header claims {} inserted tuples, sections hold {total}",
                header.inserted
            ),
        ));
    }
    read_end(&mut r)?;
    Ok(Delta {
        header,
        appended,
        relations,
    })
}

/// Where the file ids of a chain land in the interner it is applied to
/// (the *target*): the ids below `own` to themselves — the common map, a
/// target that extends the base's dictionary or adopted it, is only that —
/// and each from there on to a target id in a table, with its inverse.
#[derive(Debug, Clone)]
pub struct SymbolMap {
    own: u32,
    /// The target id of file id `own + k`.
    table: Vec<u32>,
    /// The file id of target id `own + k`, `u32::MAX` where none maps: the
    /// table's targets are at least `own`, ids below it being taken.
    inverse: Vec<u32>,
}

/// An id for `n`, which an interner or a delta header bounds.
fn id_of(n: usize) -> u32 {
    u32::try_from(n).expect("interner ids fit u32")
}

impl SymbolMap {
    pub(crate) fn identity(len: usize) -> SymbolMap {
        SymbolMap::new(id_of(len), Vec::new())
    }

    /// The map taking file id `own + k` to `table[k]`, and those below
    /// `own` to themselves.
    fn new(mut own: u32, mut table: Vec<u32>) -> SymbolMap {
        let mine = table.iter().zip(own..).take_while(|&(&id, k)| id == k);
        let mine = mine.count();
        table.drain(..mine);
        own += id_of(mine);
        let mut inverse =
            vec![u32::MAX; table.iter().max().map_or(0, |&id| (id - own) as usize + 1)];
        for (k, &id) in table.iter().enumerate() {
            inverse[(id - own) as usize] = own + id_of(k);
        }
        SymbolMap {
            own,
            table,
            inverse,
        }
    }

    fn len(&self) -> u32 {
        self.own + id_of(self.table.len())
    }

    /// True if every file id is its own target id.
    pub fn is_identity(&self) -> bool {
        self.table.is_empty()
    }

    /// The map of file ids `0..len` alone.
    fn prefix(&self, len: u32) -> SymbolMap {
        match len.checked_sub(self.own) {
            None => SymbolMap::identity(len as usize),
            Some(k) => SymbolMap::new(self.own, self.table[..k as usize].to_vec()),
        }
    }

    /// The target id of file id `id < len()`.
    fn target(&self, id: u32) -> u32 {
        id.checked_sub(self.own)
            .map_or(id, |k| self.table[k as usize])
    }

    /// Whether a file id maps to target id `id`.
    fn maps_to(&self, id: u32) -> bool {
        match id.checked_sub(self.own) {
            None => true,
            Some(k) => self
                .inverse
                .get(k as usize)
                .is_some_and(|&file| file != u32::MAX),
        }
    }
}

/// Where the ids of a delta chain's files land in the interner the chain
/// is applied to (the *target*), and the symbols the chain adds to it.
///
/// The chain starts from the [`SymbolMap`] of a base: one decoded in full
/// ([`ChainSymbols::for_base`]), or one a commit returned
/// ([`ChainSymbols::resume`]). Each delta appends file ids past it. A name
/// the target holds keeps its id there; a new one gets a provisional id
/// from the target's length when the chain began, in order. Nothing enters
/// the target until [`ChainSymbols::commit`], which a caller reaches only
/// once every delta of the chain has applied — so on any `Err` the target
/// is exactly as it was.
#[derive(Debug)]
pub struct ChainSymbols {
    /// Where the file ids below its length land.
    base: SymbolMap,
    /// The database of a base decoded in full, in the chain's ids.
    base_db: Option<Database>,
    /// The target's length when the chain began: the first provisional id.
    start: u32,
    /// The names to intern at commit: local id `k` holds provisional id
    /// `start + k`. Into an empty target, the base's own dictionary.
    fresh: Interner,
    /// How many of `fresh` are the base's.
    base_fresh: u32,
    /// Namespace and target id of file id `base.len + k`.
    appended: Vec<(SymbolSpace, u32)>,
    /// True while every file id is its own target id, so a delta's runs
    /// apply untranslated.
    identity: bool,
    /// The file id of every appended symbol, by its target id, so a chain
    /// lists each once: one name always resolves to one target id.
    listed: HashMap<u32, u32>,
    /// The largest fresh-name counter the base or a delta carried.
    fresh_counter: u64,
    /// The rows inserted since the base, per target predicate id: one
    /// sorted run per relation merged into.
    added: BTreeMap<Pred, Relation>,
}

impl ChainSymbols {
    /// A chain resuming from the file ids `map` maps — a kept base's, or a
    /// committed chain's, with the rows `added` since its base — applied to
    /// a target now holding `target_len` symbols.
    pub fn resume(map: &SymbolMap, added: &Database, target_len: usize) -> ChainSymbols {
        ChainSymbols {
            identity: map.is_identity(),
            base: map.clone(),
            base_db: None,
            start: id_of(target_len),
            fresh: Interner::new(),
            base_fresh: 0,
            appended: Vec::new(),
            listed: HashMap::new(),
            fresh_counter: 0,
            added: added.relations().map(|(p, rel)| (p, rel.clone())).collect(),
        }
    }

    /// A chain over a base decoded in full, resolved against the target
    /// `interner` hands out (held only while the base's names are looked
    /// up), and the base's database in the chain's ids. Into an empty
    /// target the base's dictionary is adopted at commit; otherwise a known
    /// name keeps its id and a new one gets a provisional id, and unless
    /// every id is its own the database is translated, a relation
    /// re-sorted only if a row moved.
    pub fn for_base<G: Deref<Target = Interner>>(
        interner: impl FnOnce() -> G,
        (dictionary, db): (Interner, Database),
    ) -> Result<(ChainSymbols, Database), StoreError> {
        let fresh_counter = dictionary.fresh_counter();
        let target = interner();
        let (map, fresh) = if target.is_empty() {
            (SymbolMap::identity(dictionary.len()), dictionary)
        } else {
            let start = id_of(target.len());
            let mut fresh = Interner::new();
            let mut ids = Vec::with_capacity(dictionary.len());
            for (space, name) in dictionary.symbols() {
                let id = match target.lookup_id(space, name) {
                    Some(id) => Some(id),
                    None => start.checked_add(fresh.id(space, name)),
                };
                ids.push(
                    id.ok_or_else(|| malformed("dictionary", "symbol count exceeds u32 id space"))?,
                );
            }
            (SymbolMap::new(0, ids), fresh)
        };
        let mut symbols = ChainSymbols::resume(&map, &Database::new(), target.len());
        drop(target);
        let db = match map.is_identity() {
            true => db,
            false => translate(db, |id| map.target(id)),
        };
        symbols.base_db = Some(db.clone());
        symbols.base_fresh = id_of(fresh.len());
        (symbols.fresh, symbols.fresh_counter) = (fresh, fresh_counter);
        Ok((symbols, db))
    }

    /// The chain's symbol count in file ids: the base's plus every
    /// appended one — the next delta's `base_symbols` anchor.
    fn file_len(&self) -> u64 {
        u64::from(self.base.len()) + self.appended.len() as u64
    }

    /// Target id of a file id.
    fn target(&self, id: u32) -> u32 {
        match id.checked_sub(self.base.len()) {
            None => self.base.target(id),
            Some(k) => self.appended[k as usize].1,
        }
    }

    /// Resolves one appended symbol, file id `self.file_len()`. A name
    /// listed twice in one delta never gets here: its dictionary refuses
    /// it ([`decode_delta`]).
    fn append(
        &mut self,
        target: &Interner,
        space: SymbolSpace,
        name: &str,
    ) -> Result<(), StoreError> {
        let file_id = u32::try_from(self.file_len()).expect("bounded by the delta header");
        let already = |id: u32| {
            malformed(
                "dictionary",
                format!("appended symbol {name:?} is already interned (id {id})"),
            )
        };
        // A base symbol, known to the target or new with the base, is
        // refused: the id the delta's cells use for it would name
        // something else.
        let id = match target.lookup_id(space, name) {
            Some(id) if id < self.start && self.base.maps_to(id) => return Err(already(id)),
            Some(id) if id < self.start => id,
            // New to the target, or interned there since the chain began
            // (then `commit` finds it at another id).
            _ => match self.fresh.lookup_id(space, name) {
                Some(k) if k < self.base_fresh => return Err(already(self.start + k)),
                // Appended before in the chain: refused below.
                Some(k) => self.start + k,
                None => {
                    let id = self.start.checked_add(id_of(self.fresh.len()));
                    let id = id.ok_or_else(|| {
                        malformed("dictionary", "symbol count exceeds u32 id space")
                    })?;
                    self.fresh.id(space, name);
                    id
                }
            },
        };
        match self.listed.entry(id) {
            Entry::Occupied(earlier) => return Err(already(*earlier.get())),
            Entry::Vacant(slot) => {
                slot.insert(file_id);
            }
        }
        self.identity &= id == file_id;
        self.appended.push((space, id));
        Ok(())
    }

    /// The namespace of a file id, a known name's read from `target`.
    fn space(&self, target: &Interner, id: u32) -> Option<SymbolSpace> {
        let id = match id.checked_sub(self.base.len()) {
            None => self.base.target(id),
            Some(k) => return self.appended.get(k as usize).map(|&(space, _)| space),
        };
        match id.checked_sub(self.start) {
            None => target.symbol_space(id),
            Some(k) => self.fresh.symbol_space(k),
        }
    }

    /// Adds the rows `run` a delta inserted into `pred` to the chain's
    /// inserted rows.
    fn record(&mut self, pred: Pred, run: Relation) {
        let run = match self.added.remove(&pred) {
            None => run,
            Some(earlier) => earlier
                .merge_sorted(&run)
                .expect("the chain's runs are disjoint: each merged into the database first"),
        };
        self.added.insert(pred, run);
    }

    /// Interns the chain's new symbols into `target` — adopting them whole
    /// into an empty one — and raises its fresh-name counter. Returns the
    /// chain's result `db`, its tip and a base decoded in full, in the ids
    /// the symbols got: their provisional ids unless `target` gained
    /// symbols since the chain began; then the ids that moved are
    /// rewritten, and a rewritten run re-sorted.
    pub fn commit(self, target: &mut Interner, mut db: Database) -> Committed {
        let start = self.start;
        let ids: Vec<u32> = if target.is_empty() {
            *target = self.fresh;
            Vec::new()
        } else {
            let fresh = self.fresh.symbols();
            fresh.map(|(space, name)| target.id(space, name)).collect()
        };
        target.raise_fresh_counter(self.fresh_counter);
        let moved = ids
            .iter()
            .enumerate()
            .any(|(k, &id)| id != start + id_of(k));
        let settle = |id: u32| match id.checked_sub(start) {
            Some(k) if moved => ids[k as usize],
            _ => id,
        };
        let (base, appended) = (&self.base, self.appended.iter().map(|&(_, id)| id));
        let map = match moved {
            // Ids the base maps to themselves may be provisional.
            true => {
                let base = (0..base.len()).map(|id| base.target(id));
                SymbolMap::new(0, base.chain(appended).map(settle).collect())
            }
            false => SymbolMap::new(
                base.own,
                base.table.iter().copied().chain(appended).collect(),
            ),
        };
        let mut added = Database::from_sorted(self.added.into_iter().collect());
        let mut base_db = self.base_db;
        if moved {
            // Provisional ids are the only ids at or above `start`; a base
            // holds some only if it had names new to the target.
            db = translate(db, settle);
            added = translate(added, settle);
            if self.base_fresh > 0 {
                base_db = base_db.map(|base| translate(base, settle));
            }
        }
        Committed {
            base: base_db.map(|db| (map.prefix(self.base.len()), db)),
            db,
            map,
            added,
        }
    }
}

/// A chain committed into its target ([`ChainSymbols::commit`]).
#[derive(Debug)]
pub struct Committed {
    /// The chain's result.
    pub db: Database,
    /// Where each file id of the chain landed: a later delta of the chain
    /// resumes from it ([`ChainSymbols::resume`]).
    pub map: SymbolMap,
    /// The rows inserted since the base, one sorted run per relation.
    pub added: Database,
    /// A base decoded in full ([`ChainSymbols::for_base`]): the map of its
    /// file ids and its database.
    pub base: Option<(SymbolMap, Database)>,
}

/// `db` with every id rewritten by the injective `to`: a run stays free of
/// duplicates, and is re-sorted only if the new ids moved a row.
fn translate(db: Database, to: impl Fn(u32) -> u32) -> Database {
    let relations = db.into_relations().map(|(pred, rel)| {
        let (arity, rows, mut cells) = rel.into_parts();
        for cell in &mut cells {
            cell.0 = to(cell.0);
        }
        (Pred(to(pred.0)), Relation::from_rows(arity, rows, cells))
    });
    Database::from_sorted(relations.collect())
}

/// Applies one parsed delta of a chain to `db`, consuming it and returning
/// the merged database in the ids `symbols` maps the chain's files to.
///
/// `interner` hands out the target interner; it is called once, and what
/// it returns is held only while the delta's appended symbols are resolved
/// and its cells' namespaces checked — O(delta), never the base. The
/// delta's runs are then translated, sorted and merged without it. The
/// target is never modified: the new symbols wait in `symbols` for
/// [`ChainSymbols::commit`], beside the rows the delta inserted. After an
/// `Err`, drop `symbols`.
///
/// Chain-hash verification is the caller's job ([`apply_chain`] does it);
/// this function checks everything *structural*: the symbol-count anchor,
/// that appended symbols are new to the base and listed once, every cell's
/// namespace, arities, and that no inserted tuple is already there.
pub fn apply_delta<G: Deref<Target = Interner>>(
    interner: impl FnOnce() -> G,
    symbols: &mut ChainSymbols,
    db: Database,
    delta: Delta,
) -> Result<Database, StoreError> {
    let Delta {
        header,
        appended,
        relations,
    } = delta;
    if symbols.file_len() != header.base_symbols {
        return Err(malformed(
            "delta header",
            format!(
                "delta expects a base interner with {} symbols, found {}",
                header.base_symbols,
                symbols.file_len()
            ),
        ));
    }
    {
        let target = interner();
        symbols.listed.reserve(appended.len());
        symbols.appended.reserve(appended.len());
        for (space, name) in appended.symbols() {
            symbols.append(&target, space, name)?;
        }
        for (idx, rd) in relations.iter().enumerate() {
            check_relation(rd, &format!("relation delta[{idx}]"), |id| {
                symbols.space(&target, id)
            })?;
        }
    }
    symbols.fresh_counter = symbols.fresh_counter.max(header.fresh_counter);

    let mut rels: BTreeMap<Pred, Relation> = db.into_relations().collect();
    for (idx, mut rd) in relations.into_iter().enumerate() {
        let label = format!("relation delta[{idx}]");
        let label = label.as_str();
        if !symbols.identity {
            rd.pred = Pred(symbols.target(rd.pred.0));
            for cell in &mut rd.cells {
                cell.0 = symbols.target(cell.0);
            }
        }
        let pred = rd.pred;
        // Translation is injective, so the run stays free of duplicates;
        // it is re-sorted only if the new ids moved a row.
        let added = Relation::from_rows(rd.arity, rd.rows, rd.cells);
        let rel = match rels.remove(&pred) {
            None => added.clone(),
            Some(base_rel) => {
                if base_rel.arity() != rd.arity {
                    return Err(malformed(
                        label,
                        format!(
                            "arity {} does not match the base relation's {}",
                            rd.arity,
                            base_rel.arity()
                        ),
                    ));
                }
                // Row ids are u32 everywhere; bound the merged run before
                // building it.
                len_u32(base_rel.len() + rd.rows, "merged row count")?;
                base_rel
                    .merge_sorted(&added)
                    .map_err(|_| malformed(label, "delta inserts a tuple the base already holds"))?
            }
        };
        symbols.record(pred, added);
        rels.insert(pred, rel);
    }
    Ok(Database::from_sorted(rels.into_iter().collect()))
}

/// Applies a chain of delta files to `db`, the database of the file whose
/// [`content_hash`] is `base_hash`, verifying that each delta's
/// `base_hash` is the hash of the file immediately before it. Returns the
/// result in `symbols`' ids — uncommitted, see [`ChainSymbols`] — and the
/// hash of every file of the chain, `base_hash` first. An error comes with
/// the chain position of the file that failed: `i + 1` for `deltas[i]`.
pub fn apply_chain<G: Deref<Target = Interner>>(
    interner: impl Fn() -> G,
    symbols: &mut ChainSymbols,
    base_hash: u64,
    mut db: Database,
    deltas: &[Vec<u8>],
) -> Result<(Database, Vec<u64>), (usize, StoreError)> {
    let mut chain = Vec::with_capacity(1 + deltas.len());
    chain.push(base_hash);
    for (i, bytes) in deltas.iter().enumerate() {
        let at = |e: StoreError| (i + 1, e);
        let delta = decode_delta(bytes).map_err(at)?;
        let expected = chain[i];
        if delta.header.base_hash != expected {
            return Err(at(malformed(
                "delta header",
                format!(
                    "delta {i} was built against a different predecessor \
                     (expects hash {:016x}, chain has {:016x})",
                    delta.header.base_hash, expected
                ),
            )));
        }
        db = apply_delta(&interner, symbols, db, delta).map_err(at)?;
        chain.push(content_hash(bytes));
    }
    Ok((db, chain))
}

/// [`decode_chain`] without the chain's hashes or the failing position.
pub fn decode_with_deltas(
    base: &[u8],
    deltas: &[Vec<u8>],
) -> Result<(Interner, Database), StoreError> {
    match decode_chain(base, deltas) {
        Ok((pair, _)) => Ok(pair),
        Err((_, e)) => Err(e),
    }
}

/// Decodes a base snapshot and applies a chain of deltas to it, in the
/// snapshot's own ids (its dictionary adopted whole by an empty interner,
/// see [`ChainSymbols::for_base`]), handing back the [`content_hash`] of
/// every file of the chain — the base's, then each delta's — which
/// verifying the chain computes anyway. An error comes with the chain
/// position of the file that failed — `0` for the base, `i + 1` for
/// `deltas[i]` — so the caller can name it.
#[allow(clippy::type_complexity)]
pub fn decode_chain(
    base: &[u8],
    deltas: &[Vec<u8>],
) -> Result<((Interner, Database), Vec<u64>), (usize, StoreError)> {
    let mut interner = Interner::new();
    let at_base = |e| (0, e);
    let pair = decode_snapshot(base).map_err(at_base)?;
    let (mut symbols, db) = ChainSymbols::for_base(|| &interner, pair).map_err(at_base)?;
    let (db, chain) = apply_chain(|| &interner, &mut symbols, content_hash(base), db, deltas)?;
    let db = symbols.commit(&mut interner, db).db;
    Ok(((interner, db), chain))
}

/// [`decode_chain`] over files.
pub fn load_with_deltas<P: AsRef<Path>>(
    base: &Path,
    deltas: &[P],
) -> Result<(Interner, Database), StoreError> {
    let base_bytes = std::fs::read(base)?;
    let mut delta_bytes = Vec::with_capacity(deltas.len());
    for p in deltas {
        delta_bytes.push(std::fs::read(p.as_ref())?);
    }
    decode_with_deltas(&base_bytes, &delta_bytes)
}

/// Writes already-encoded delta bytes to a file atomically and durably
/// (temp file, fsync, rename — the same path [`crate::save_snapshot`]
/// takes).
pub fn save_delta(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    write_atomic(path, bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::snapshot_to_vec_v2;
    use wdpt_model::ProbeTally;

    /// Applies one delta to a pair in the pair's own ids, committing its
    /// symbols only on success.
    fn apply_to(target: &mut Interner, db: Database, delta: Delta) -> Result<Database, StoreError> {
        let map = SymbolMap::identity(target.len());
        let mut symbols = ChainSymbols::resume(&map, &Database::new(), target.len());
        let db = apply_delta(|| &*target, &mut symbols, db, delta)?;
        Ok(symbols.commit(target, db).db)
    }

    fn base() -> (Interner, Database) {
        let mut i = Interner::new();
        let e = i.pred("edge");
        let n = i.pred("node");
        let (a, b, c) = (i.constant("a"), i.constant("b"), i.constant("c"));
        let mut db = Database::new();
        db.insert(e, vec![a, b]);
        db.insert(e, vec![b, c]);
        db.insert(n, vec![a]);
        (i, db)
    }

    /// Decode the base through the snapshot round trip so relations arrive
    /// as decoded runs, exactly as the serve reload path sees them.
    fn decoded_base() -> (Vec<u8>, Interner, Database) {
        let (i, db) = base();
        let bytes = snapshot_to_vec_v2(&i, &db).unwrap();
        let (i2, db2) = decode_snapshot(&bytes).unwrap();
        (bytes, i2, db2)
    }

    fn extend(i: &Interner, db: &Database) -> (Interner, Database) {
        let mut ni = i.clone();
        let mut ndb = db.clone();
        let e = ni.pred("edge");
        let d = ni.constant("d");
        let lbl = ni.pred("label");
        let c = ni.constant("c");
        ndb.insert(e, vec![c, d]);
        ndb.insert(lbl, vec![d]);
        (ni, ndb)
    }

    #[test]
    fn delta_round_trips_and_chains() {
        let (base_bytes, i, db) = decoded_base();
        let (ni, ndb) = extend(&i, &db);
        let delta = delta_to_vec(content_hash(&base_bytes), &i, &db, &ni, &ndb).unwrap();

        let (ri, rdb) = decode_with_deltas(&base_bytes, std::slice::from_ref(&delta)).unwrap();
        assert_eq!(ri.len(), ni.len());
        assert_eq!(rdb.size(), ndb.size());
        assert_eq!(rdb.display(&ri), ndb.display(&ni));

        // The applied result re-encodes to the same bytes as a full
        // snapshot of the updated pair: the merge is exact.
        assert_eq!(
            snapshot_to_vec_v2(&ri, &rdb).unwrap(),
            snapshot_to_vec_v2(&ni, &ndb).unwrap()
        );

        // A second delta chains onto the first via its file hash.
        let (ni2, ndb2) = {
            let mut i2 = ri.clone();
            let mut db2 = rdb.clone();
            let e = i2.pred("edge");
            let z = i2.constant("z");
            let a = i2.constant("a");
            db2.insert(e, vec![z, a]);
            (i2, db2)
        };
        let delta2 = delta_to_vec(content_hash(&delta), &ri, &rdb, &ni2, &ndb2).unwrap();
        let (ci, cdb) = decode_with_deltas(&base_bytes, &[delta.clone(), delta2.clone()]).unwrap();
        assert_eq!(cdb.size(), ndb2.size());
        assert_eq!(cdb.display(&ci), ndb2.display(&ni2));

        // Out-of-order application fails the chain check.
        let err = decode_with_deltas(&base_bytes, &[delta2, delta]).unwrap_err();
        assert!(
            err.to_string().contains("different predecessor"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn merged_relations_answer_probes_for_old_and_new_tuples() {
        let (base_bytes, mut i, db) = decoded_base();
        let (ni, ndb) = extend(&i, &db);
        let delta = delta_to_vec(content_hash(&base_bytes), &i, &db, &ni, &ndb).unwrap();
        let (_, rdb) = decode_with_deltas(&base_bytes, &[delta]).unwrap();

        let e = i.pred("edge");
        let rel = rdb.relation(e).unwrap();
        let c = i.constant("c");
        let rows = rel.probe([(0, c)], &mut ProbeTally::default());
        assert_eq!((rows.len(), rows.count()), (1, 1), "new tuple not indexed");
        assert_eq!(
            rel.probe([(1, c)], &mut ProbeTally::default()).len(),
            1,
            "old tuple lost from index"
        );
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn deletions_and_arity_changes_are_rejected_at_encode() {
        let (base_bytes, mut i, db) = decoded_base();
        let h = content_hash(&base_bytes);

        // Removing a tuple.
        let shrunk = {
            let mut ndb = Database::new();
            let e = i.pred("edge");
            let (a, b) = (i.constant("a"), i.constant("b"));
            ndb.insert(e, vec![a, b]);
            let n = i.pred("node");
            ndb.insert(n, vec![a]);
            ndb
        };
        let err = delta_to_vec(h, &i, &db, &i, &shrunk).unwrap_err();
        assert!(err.to_string().contains("insert-only"), "got: {err}");

        // An interner that does not extend the base.
        let fresh = Interner::new();
        let err = delta_to_vec(h, &i, &db, &fresh, &db).unwrap_err();
        assert!(err.to_string().contains("extend"), "got: {err}");
    }

    #[test]
    fn empty_diff_encodes_and_applies_cleanly() {
        let (base_bytes, i, db) = decoded_base();
        let delta = delta_to_vec(content_hash(&base_bytes), &i, &db, &i, &db).unwrap();
        let parsed = decode_delta(&delta).unwrap();
        assert_eq!(parsed.header.relations, 0);
        assert_eq!(parsed.inserted(), 0);
        let (ri, rdb) = decode_with_deltas(&base_bytes, &[delta]).unwrap();
        assert_eq!(ri.len(), i.len());
        assert_eq!(rdb.size(), db.size());
    }

    #[test]
    fn corrupted_delta_sections_are_typed() {
        let (base_bytes, i, db) = decoded_base();
        let (ni, ndb) = extend(&i, &db);
        let good = delta_to_vec(content_hash(&base_bytes), &i, &db, &ni, &ndb).unwrap();

        // Flip a payload byte (the first of the delta header's, behind
        // magic, version, tag and length): CRC catches it.
        let mut bad = good.clone();
        bad[8 + 4 + 1 + 8] ^= 0xFF;
        assert!(matches!(
            decode_delta(&bad),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        // Truncation is typed too.
        let cut = &good[..good.len() - 3];
        assert!(matches!(
            decode_delta(cut),
            Err(StoreError::Truncated { .. })
        ));

        // A full snapshot fed to the delta decoder is refused with a hint,
        // and a delta fed to the full decoder likewise.
        let err = decode_delta(&base_bytes).unwrap_err();
        assert!(err.to_string().contains("full snapshot"), "got: {err}");
        let err = decode_snapshot(&good).unwrap_err();
        assert!(err.to_string().contains("delta snapshot"), "got: {err}");
    }

    #[test]
    fn wrong_base_symbol_count_is_rejected_and_interner_untouched() {
        let (base_bytes, i, db) = decoded_base();
        let (ni, ndb) = extend(&i, &db);
        let delta_bytes = delta_to_vec(content_hash(&base_bytes), &i, &db, &ni, &ndb).unwrap();
        let delta = decode_delta(&delta_bytes).unwrap();

        let mut wrong = Interner::new();
        wrong.constant("only");
        let before = wrong.len();
        let err = apply_to(&mut wrong, Database::new(), delta).unwrap_err();
        assert!(err.to_string().contains("symbols"), "got: {err}");
        assert_eq!(wrong.len(), before, "failed apply must not grow interner");
    }

    /// A delta over [`base`] that appends symbols, raises the fresh-name
    /// counter and inserts `edge(a, c)` and `edge(c, d)`; applied to a
    /// target it does not fit, it must fail with `needle` in the message
    /// and leave the target's interner exactly as it was.
    fn assert_refused_without_a_trace(mut target: Interner, db: Database, needle: &str) {
        let (base_bytes, i, base_db) = decoded_base();
        let (mut ni, mut ndb) = extend(&i, &base_db);
        ni.fresh_var("tmp");
        let (e, a, c) = (ni.pred("edge"), ni.constant("a"), ni.constant("c"));
        ndb.insert(e, vec![a, c]);
        let bytes = delta_to_vec(content_hash(&base_bytes), &i, &base_db, &ni, &ndb).unwrap();
        let delta = decode_delta(&bytes).unwrap();
        assert!(delta.header.fresh_counter > target.fresh_counter());

        let (symbols, fresh) = (target.len(), target.fresh_counter());
        let err = apply_to(&mut target, db, delta).unwrap_err();
        assert!(err.to_string().contains(needle), "got: {err}");
        assert_eq!(target.len(), symbols, "failed apply grew the interner");
        assert_eq!(
            target.fresh_counter(),
            fresh,
            "failed apply moved the counter"
        );
    }

    #[test]
    fn an_already_interned_symbol_is_refused_and_the_interner_untouched() {
        // As many symbols as the base has, but "d" — which the delta
        // appends — is already one of them.
        let mut target = Interner::new();
        target.pred("edge");
        target.pred("node");
        for name in ["a", "b", "d"] {
            target.constant(name);
        }
        assert_refused_without_a_trace(target, Database::new(), "already interned");
    }

    #[test]
    fn a_cell_outside_the_constants_is_refused_and_the_interner_untouched() {
        // The id the base gives the constant `c` is a variable here.
        let mut target = Interner::new();
        target.pred("edge");
        target.pred("node");
        target.constant("a");
        target.constant("b");
        target.var("c");
        assert_refused_without_a_trace(target, Database::new(), "not a constant");
    }

    #[test]
    fn an_arity_mismatch_is_refused_and_the_interner_untouched() {
        let (mut i, _) = base();
        let (e, a) = (i.pred("edge"), i.constant("a"));
        let mut unary = Database::new();
        unary.insert(e, vec![a]);
        assert_refused_without_a_trace(i, unary, "arity");
    }

    #[test]
    fn a_tuple_the_base_holds_is_refused_and_the_interner_untouched() {
        let (mut i, mut db) = base();
        let (e, a, c) = (i.pred("edge"), i.constant("a"), i.constant("c"));
        db.insert(e, vec![a, c]);
        assert_refused_without_a_trace(i, db, "already holds");
    }

    #[test]
    fn nullary_relations_round_trip_and_take_deltas() {
        // `no` is the empty nullary relation, `yes` holds the empty tuple.
        let mut i = Interner::new();
        let (no, yes) = (i.pred("no"), i.pred("yes"));
        let mut db = Database::from_sorted(vec![(no, Relation::from_sorted(0, 0, Vec::new()))]);
        db.insert(yes, vec![]);
        let base_bytes = snapshot_to_vec_v2(&i, &db).unwrap();
        let (ri, rdb) = decode_snapshot(&base_bytes).unwrap();
        assert_eq!(snapshot_to_vec_v2(&ri, &rdb).unwrap(), base_bytes);
        for db in [&rdb, &rdb.clone()] {
            let (no, yes) = (db.relation(no).unwrap(), db.relation(yes).unwrap());
            assert_eq!((no.len(), yes.len()), (0, 1));
            assert_eq!(yes.tuples().collect::<Vec<_>>(), [&[] as &[Const]]);
            assert!(yes.contains(&[]) && !no.contains(&[]));
            assert_eq!(
                (
                    no.probe([], &mut ProbeTally::default()).count(),
                    yes.probe([], &mut ProbeTally::default()).count()
                ),
                (0, 1)
            );
        }
        crate::format::verify_database_deep(&rdb).unwrap();

        // A delta that fills `no` and brings a third nullary relation.
        let (mut ni, mut ndb) = (ri.clone(), rdb.clone());
        let third = ni.pred("third");
        assert!(ndb.insert(no, vec![]) && ndb.insert(third, vec![]));
        let delta = delta_to_vec(content_hash(&base_bytes), &ri, &rdb, &ni, &ndb).unwrap();
        let (ai, adb) = decode_with_deltas(&base_bytes, std::slice::from_ref(&delta)).unwrap();
        assert_eq!(adb.display(&ai), ndb.display(&ni));
        assert_eq!(adb.size(), 3);
        assert_eq!(
            snapshot_to_vec_v2(&ai, &adb).unwrap(),
            snapshot_to_vec_v2(&ni, &ndb).unwrap()
        );
        // Applied to a pair that already holds `no()`, it repeats a tuple.
        let mut again = ri.clone();
        let err = apply_to(&mut again, adb, decode_delta(&delta).unwrap()).unwrap_err();
        assert!(err.to_string().contains("already holds"), "got: {err}");
    }

    /// Base + [`extend`]'s delta, applied in the ids of a live interner
    /// that holds the base's symbols, then `held` (a name of its own and
    /// the delta's constant `d`), then, if `grow`, symbols interned between
    /// the apply and the commit — the label predicate the delta appends
    /// among them. The result must equal the delta's own by name, `d` keep
    /// the id the live interner gave it, and the runs stay sorted.
    fn apply_in_live_ids(grow: &[&str]) {
        let (base_bytes, i, db) = decoded_base();
        let (ni, ndb) = extend(&i, &db);
        let bytes = delta_to_vec(content_hash(&base_bytes), &i, &db, &ni, &ndb).unwrap();
        let mut live = i.clone();
        let held = [live.constant("held"), live.constant("d")];
        let map = SymbolMap::identity(i.len());
        let mut symbols = ChainSymbols::resume(&map, &Database::new(), live.len());
        let (applied, chain) = apply_chain(
            || &live,
            &mut symbols,
            content_hash(&base_bytes),
            db,
            &[bytes],
        )
        .unwrap();
        assert_eq!(chain.len(), 2);
        for name in grow {
            live.pred(name);
        }
        let grown = live.len();
        let applied = symbols.commit(&mut live, applied).db;
        assert_eq!(applied.display(&live), ndb.display(&ni));
        assert_eq!(live.constant("d"), held[1], "a held symbol got a new id");
        assert_eq!(live.len(), grown + usize::from(!grow.contains(&"label")));
        crate::format::verify_database_deep(&applied).unwrap();
    }

    #[test]
    fn a_delta_applies_in_the_ids_of_an_interner_that_grew_past_the_base() {
        apply_in_live_ids(&[]);
    }

    #[test]
    fn a_commit_after_the_interner_grew_again_remaps_the_new_symbols() {
        apply_in_live_ids(&["elsewhere"]);
        apply_in_live_ids(&["elsewhere", "label"]);
    }

    /// The snapshot `bytes` decoded and committed into `target`'s ids.
    fn decode_into(target: &mut Interner, bytes: &[u8]) -> Database {
        let pair = decode_snapshot(bytes).unwrap();
        let (symbols, db) = ChainSymbols::for_base(|| &*target, pair).unwrap();
        symbols.commit(target, db).db
    }

    /// A snapshot of one binary relation `p` over `rows`, its symbols
    /// interned in the order the rows name them.
    fn snapshot_of(rows: &[(&str, &str)]) -> Vec<u8> {
        let mut i = Interner::new();
        let p = i.pred("p");
        let mut db = Database::new();
        for (a, b) in rows {
            let row = vec![i.constant(a), i.constant(b)];
            db.insert(p, row);
        }
        snapshot_to_vec_v2(&i, &db).unwrap()
    }

    #[test]
    fn a_base_is_adopted_whole_into_an_empty_target() {
        let bytes = snapshot_of(&[("a", "b")]);
        let (file, _) = decode_snapshot(&bytes).unwrap();
        let ((mut live, db), chain) = decode_chain(&bytes, &[]).unwrap();
        assert_eq!(chain, [content_hash(&bytes)]);
        // The file's ids are the live ids, in the file's order.
        assert!(live.symbols().eq(file.symbols()));
        let (p, a) = (live.pred("p"), live.constant("a"));
        assert_eq!(
            live.len(),
            file.len(),
            "lookups must not intern anything new"
        );
        assert_eq!(
            db.relation(p)
                .unwrap()
                .probe([(0, a)], &mut ProbeTally::default())
                .len(),
            1
        );
    }

    #[test]
    fn a_base_translates_into_a_target_holding_its_names_elsewhere() {
        let bytes = snapshot_of(&[("x", "z")]);
        let mut live = Interner::new();
        live.constant("unrelated");
        live.constant("z");
        let db = decode_into(&mut live, &bytes);
        assert_eq!(db.size(), 1);
        let (p, x, z) = (live.pred("p"), live.constant("x"), live.constant("z"));
        assert_eq!(z.0, 1, "a known name keeps its id");
        assert_eq!(
            db.relation(p).unwrap().tuples().collect::<Vec<_>>(),
            [&[x, z]]
        );
    }

    #[test]
    fn a_translated_base_is_re_sorted_under_the_new_ids() {
        // Rows whose relative order changes under the new ids.
        let rows = [("a", "u"), ("b", "u"), ("b", "v"), ("c", "u")];
        let bytes = snapshot_of(&rows);
        let mut live = Interner::new();
        for name in ["c", "b", "a"] {
            live.constant(name);
        }
        let db = decode_into(&mut live, &bytes);
        let p = live.pred("p");
        let rel = db.relation(p).unwrap();
        let run: Vec<&[Const]> = rel.tuples().collect();
        assert!(run.windows(2).all(|w| w[0] < w[1]), "run not re-sorted");
        let (b, u, v) = (live.constant("b"), live.constant("u"), live.constant("v"));
        assert_eq!(rel.probe([(0, b)], &mut ProbeTally::default()).len(), 2);
        assert_eq!(rel.probe([(1, u)], &mut ProbeTally::default()).len(), 3);
        let rows = rel.probe([(0, b), (1, v)], &mut ProbeTally::default());
        assert_eq!((rows.len(), rows.count()), (1, 1));
        crate::format::verify_database_deep(&db).unwrap();
    }

    #[test]
    fn a_base_keeps_its_ids_in_a_target_extending_its_dictionary() {
        let bytes = snapshot_of(&[("a", "u")]);
        let (file, db) = decode_snapshot(&bytes).unwrap();
        let mut live = file.clone();
        live.constant("extra-live-symbol");
        let p = live.pred("p");
        let run = db.relation(p).unwrap().tuples().next().unwrap().as_ptr();
        let (symbols, db) = ChainSymbols::for_base(|| &live, (file, db)).unwrap();
        // The identity: the relations move as they are.
        assert_eq!(
            db.relation(p).unwrap().tuples().next().unwrap().as_ptr(),
            run
        );
        let committed = symbols.commit(&mut live, db);
        assert!(committed.map.is_identity());
        assert_eq!(committed.db.size(), 1);
    }

    /// A delta chained to [`base`]'s file but written against a base
    /// dictionary that holds `x` where the file holds `c`, so the delta
    /// appends `c` — a base symbol — and inserts `edge(c, a)`.
    fn a_delta_appending_a_base_symbol() -> (Vec<u8>, Vec<u8>) {
        let (base_bytes, _, _) = decoded_base();
        let (i, db) = base();
        let mut other = Interner::new();
        for (space, name) in i.symbols() {
            other.id(space, if name == "c" { "x" } else { name });
        }
        let (mut ni, mut ndb) = (other.clone(), db.clone());
        let (e, c, a) = (ni.pred("edge"), ni.constant("c"), ni.constant("a"));
        ndb.insert(e, vec![c, a]);
        let delta = delta_to_vec(content_hash(&base_bytes), &other, &db, &ni, &ndb).unwrap();
        (base_bytes, delta)
    }

    #[test]
    fn an_appended_base_symbol_is_refused_under_a_table_map() {
        let (base_bytes, delta) = a_delta_appending_a_base_symbol();
        // The base's names at other ids, `c` known to the target or new to
        // it; and, for contrast, the identity.
        let known: &[&str] = &["foreign", "c", "b", "a"];
        let new: &[&str] = &["foreign", "b", "a"];
        for names in [known, new, &[]] {
            let mut live = Interner::new();
            for name in names {
                live.constant(name);
            }
            let pair = decode_snapshot(&base_bytes).unwrap();
            let (mut symbols, db) = ChainSymbols::for_base(|| &live, pair).unwrap();
            let hash = content_hash(&base_bytes);
            let deltas = std::slice::from_ref(&delta);
            let (link, err) = apply_chain(|| &live, &mut symbols, hash, db, deltas).unwrap_err();
            assert_eq!(link, 1);
            assert!(
                err.to_string().contains("already interned"),
                "{names:?}: {err}"
            );
            assert_eq!(live.len(), names.len(), "{names:?}: the target grew");
        }
    }
}
