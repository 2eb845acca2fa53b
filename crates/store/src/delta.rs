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
//! merges each into the touched relation's sorted run in place
//! ([`Relation::merge_sorted`]), moving only the rows above the lowest
//! insertion point. Relations the delta does not touch are moved into the
//! result as they are.

use crate::format::{
    checked_count, content_hash, decode_relation, decode_snapshot, encode_dictionary,
    encode_relation, expect_tag, len_u32, malformed, parse_dictionary, push_section, read_end,
    read_magic_version, read_section, write_atomic, Reader, RelationBlock, SpaceTable, StoreError,
    MAGIC, SECTION_FRAME_BYTES, TAG_DELTA_HEADER, TAG_DICTIONARY, TAG_END, TAG_HEADER,
    TAG_RELATION_DELTA,
};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use wdpt_model::{Const, Database, Interner, Pred, Relation, SymbolSpace};
use wdpt_obs::{counter, span};

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
    /// Appended symbols, in id order starting at `header.base_symbols`.
    appended: Vec<(SymbolSpace, String)>,
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
    let _g = span!("store.delta.encode");
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
    counter!("store.delta.bytes_encoded").add(out.len() as u64);
    counter!("store.delta.encodes").add(1);
    Ok(out)
}

/// Parses a delta file, verifying magic, version, every CRC, and all
/// structure that can be checked without the base (sortedness, counts,
/// ascending predicates). Cell namespaces are validated at apply time,
/// when the combined symbol table exists.
pub fn decode_delta(bytes: &[u8]) -> Result<Delta, StoreError> {
    let _g = span!("store.delta.decode");
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
    let appended = parse_dictionary(section.payload, appended_count)?;

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

/// Applies one parsed delta to an `(Interner, Database)` pair, consuming
/// the database and returning the merged one. The interner is extended in
/// place (append-only, so ids held by callers stay valid) — but only once
/// nothing can fail any more: on every `Err` it is exactly as the caller
/// passed it. Chain-hash verification is the caller's job
/// ([`decode_with_deltas`] does it); this function checks everything
/// *structural*: the symbol-count anchor, that appended symbols are
/// genuinely new, every cell's namespace, arities, and that no inserted
/// tuple is already there.
pub fn apply_delta(
    interner: &mut Interner,
    db: Database,
    delta: Delta,
) -> Result<Database, StoreError> {
    let _g = span!("store.delta.apply");
    if interner.len() as u64 != delta.header.base_symbols {
        return Err(malformed(
            "delta header",
            format!(
                "delta expects a base interner with {} symbols, found {}",
                delta.header.base_symbols,
                interner.len()
            ),
        ));
    }
    let mut appended = HashSet::with_capacity(delta.appended.len());
    for (space, name) in &delta.appended {
        // Interned already, or listed twice: either way the id the delta's
        // cells use for it would name something else.
        let known = interner.lookup_id(*space, name);
        if known.is_some() || !appended.insert((*space, name.as_str())) {
            return Err(malformed(
                "dictionary",
                match known {
                    Some(id) => format!("appended symbol {name:?} is already interned (id {id})"),
                    None => format!("appended symbol {name:?} is listed twice"),
                },
            ));
        }
    }
    // The symbol table as it will be once the delta's symbols are in.
    let spaces = SpaceTable::new(
        interner
            .symbols()
            .map(|(space, _)| space)
            .chain(delta.appended.iter().map(|(space, _)| *space)),
    );

    let mut rels: BTreeMap<Pred, Relation> = db.into_relations().collect();
    let mut merged_count: u64 = 0;
    for (idx, rd) in delta.relations.into_iter().enumerate() {
        let label = format!("relation delta[{idx}]");
        let label = label.as_str();
        spaces.check_relation(&rd, label)?;
        let pred = rd.pred;
        let rel = match rels.remove(&pred) {
            None => rd.into_relation(),
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
                    .merge_sorted(rd.rows, &rd.cells)
                    .map_err(|_| malformed(label, "delta inserts a tuple the base already holds"))?
            }
        };
        merged_count += 1;
        rels.insert(pred, rel);
    }

    for (space, name) in &delta.appended {
        match space {
            SymbolSpace::Var => interner.var(name).0,
            SymbolSpace::Const => interner.constant(name).0,
            SymbolSpace::Pred => interner.pred(name).0,
        };
    }
    debug_assert_eq!(interner.len() as u64, delta.header.symbols);
    interner.raise_fresh_counter(delta.header.fresh_counter);
    counter!("store.delta.relations_merged").add(merged_count);
    counter!("store.delta.tuples_applied").add(delta.header.inserted);
    Ok(Database::from_sorted(rels.into_iter().collect()))
}

/// Decodes a base snapshot and applies a chain of deltas to it, verifying
/// that each delta's `base_hash` matches the [`content_hash`] of the file
/// immediately before it in the chain.
pub fn decode_with_deltas(
    base: &[u8],
    deltas: &[Vec<u8>],
) -> Result<(Interner, Database), StoreError> {
    match decode_chain(base, deltas) {
        Ok((pair, _)) => Ok(pair),
        Err((_, e)) => Err(e),
    }
}

/// [`decode_with_deltas`] that also hands back the [`content_hash`] of
/// every file of the chain — the base's, then each delta's — which
/// verifying the chain computes anyway, so a caller that needs them (the
/// server records the chain it serves) does not hash each file again. An
/// error comes with the chain position of the file that failed — `0` for
/// the base, `i + 1` for `deltas[i]` — so the caller can name it.
#[allow(clippy::type_complexity)]
pub fn decode_chain(
    base: &[u8],
    deltas: &[Vec<u8>],
) -> Result<((Interner, Database), Vec<u64>), (usize, StoreError)> {
    let _g = span!("store.decode_with_deltas");
    let (mut interner, mut db) = decode_snapshot(base).map_err(|e| (0, e))?;
    let mut chain = Vec::with_capacity(1 + deltas.len());
    chain.push(content_hash(base));
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
        db = apply_delta(&mut interner, db, delta).map_err(at)?;
        chain.push(content_hash(bytes));
        counter!("store.delta.applied").add(1);
    }
    Ok(((interner, db), chain))
}

/// [`decode_with_deltas`] over files.
pub fn load_with_deltas<P: AsRef<Path>>(
    base: &Path,
    deltas: &[P],
) -> Result<(Interner, Database), StoreError> {
    let _g = span!("store.load_with_deltas");
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
    counter!("store.delta.saves").add(1);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::snapshot_to_vec_v2;

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
        assert_eq!(rel.posting_len(0, c), 1, "new tuple not indexed");
        assert_eq!(rel.posting_len(1, c), 1, "old tuple lost from index");
        assert_eq!(rel.matching(&[Some(c), None]).count(), 1);
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
        let err = apply_delta(&mut wrong, Database::new(), delta).unwrap_err();
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
        let err = apply_delta(&mut target, db, delta).unwrap_err();
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
                (no.matching(&[]).count(), yes.matching(&[]).count()),
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
        let mut again = ai.clone();
        again.truncate(ri.len());
        let err = apply_delta(&mut again, adb, decode_delta(&delta).unwrap()).unwrap_err();
        assert!(err.to_string().contains("already holds"), "got: {err}");
    }
}
