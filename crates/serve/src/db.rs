//! Dataset loading for the server: N-Triples-ish files, the workspace
//! `facts` format, and `wdpt-store` binary snapshots.
//!
//! The server evaluates SPARQL queries, which compile to the `triple/3`
//! schema, so text datasets are parsed into a [`TripleStore`]. Parsing is
//! shared with the rest of the workspace: the lenient N-Triples dialect
//! lives in [`wdpt_sparql::nt`], and file loading goes through the store's
//! parallel bulk loader ([`wdpt_store::bulk_load_path`]: streamed chunking,
//! two-pass parallel interning, sorted tuple runs) with the facts format
//! handled by `wdpt_model::parse`. Binary snapshots load via
//! [`wdpt_store::load_snapshot`] and are merged into the server's interner
//! by [`merge_snapshot`]. Neither path builds anything beside the sorted
//! runs themselves: a probe on a leading prefix searches the run in place,
//! and any other column gets its row-id permutation on the first probe
//! that needs one.

use std::io;
use std::path::Path;
use wdpt_model::{Const, Database, Interner, Pred, Relation};
use wdpt_obs::counter;

pub use wdpt_sparql::parse_nt;

/// Parses dataset text, sniffing the format: the `facts` format
/// (`pred(a, b)`) when the first data line looks like a fact, N-Triples
/// otherwise. In-memory counterpart of [`load_database`].
pub fn parse_dataset(interner: &mut Interner, text: &str) -> Result<Database, String> {
    let mut r = io::Cursor::new(text.as_bytes());
    wdpt_store::read_text_database(interner, &mut r).map_err(|e| e.to_string())
}

/// Loads a dataset file through the store's parallel bulk loader: streamed
/// chunking, two-pass parallel interning (deterministic across thread
/// counts), and per-relation sort + dedup — the same pipeline as
/// `wdpt-store build`, so a cold `--db` start of a large catalog no longer
/// serializes on one parse thread. `threads == 0` means one worker per
/// available core.
pub fn load_database(interner: &mut Interner, path: &Path, threads: usize) -> io::Result<Database> {
    let opts = wdpt_store::LoadOptions {
        threads,
        ..wdpt_store::LoadOptions::default()
    };
    match wdpt_store::bulk_load_path(interner, path, opts) {
        Ok((db, report)) => {
            counter!("serve.store.bulk_loaded").add(report.tuples);
            Ok(db)
        }
        Err(wdpt_store::StoreError::Io(e)) => Err(e),
        Err(e) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )),
    }
}

/// Folds a decoded snapshot into the server's interner.
///
/// * If the live interner is still empty (the common case — snapshots load
///   before any text dataset), the snapshot's interner is **adopted**
///   wholesale and its database returned as-is: zero re-interning.
/// * Otherwise an old-id→new-id **translation table** is built once (one
///   name lookup per *symbol*, not per tuple cell). When the table turns
///   out to be the identity (the live interner extends the snapshot's), the
///   relations are moved wholesale. If not, every cell is
///   translated and each relation's flat run re-sorted under the new ids
///   (`serve.store.snapshot_remapped` counts this path).
pub fn merge_snapshot(interner: &mut Interner, snapshot: (Interner, Database)) -> Database {
    let (snap_interner, snap_db) = snapshot;
    if interner.is_empty() {
        *interner = snap_interner;
        counter!("serve.store.snapshot_adopted").add(1);
        return snap_db;
    }
    counter!("serve.store.snapshot_remapped").add(1);
    let translate: Vec<u32> = snap_interner
        .symbols()
        .map(|(space, name)| match space {
            wdpt_model::SymbolSpace::Var => interner.var(name).0,
            wdpt_model::SymbolSpace::Const => interner.constant(name).0,
            wdpt_model::SymbolSpace::Pred => interner.pred(name).0,
        })
        .collect();
    interner.raise_fresh_counter(snap_interner.fresh_counter());
    if translate
        .iter()
        .enumerate()
        .all(|(old, &new)| old as u32 == new)
    {
        // The live interner already assigns every snapshot symbol the same
        // id (it extends the snapshot's interner): nothing to rewrite.
        return snap_db;
    }

    let mut out: Vec<(Pred, Relation)> = Vec::new();
    for (pred, rel) in snap_db.into_relations() {
        let (arity, rows, mut cells) = rel.into_parts();
        for c in cells.iter_mut() {
            *c = Const(translate[c.0 as usize]);
        }
        // New ids generally reorder the lexicographic tuple order.
        out.push((
            Pred(translate[pred.0 as usize]),
            Relation::from_rows(arity, rows, cells),
        ));
    }
    Database::from_sorted(out)
}

/// True iff the bytes at `path` start with the snapshot magic — a cheap
/// pre-check so a `--db` pointed at a snapshot gives a helpful error.
pub fn looks_like_snapshot(path: &Path) -> bool {
    use std::io::Read;
    let mut head = [0u8; 8];
    std::fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut head))
        .map(|()| head == wdpt_store::MAGIC)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_sparql::TripleStore;

    #[test]
    fn parses_nt_with_iris_literals_and_bare_tokens() {
        let mut i = Interner::new();
        let text = r#"
# the Example 2 catalog
<Swim> <recorded_by> <Caribou> .
<Swim> <published> "after_2010" .
Swim NME_rating "2"^^<http://www.w3.org/2001/XMLSchema#integer> .
<Our_love> <title> "Our \"Love\"@en"@en .
"#;
        let ts = parse_nt(&mut i, text).unwrap();
        assert_eq!(ts.len(), 4);
        let db = ts.database();
        assert_eq!(db.size(), 4);
        // IRIs and bare tokens intern to the same constant space.
        let swim = i.constant("Swim");
        let p = TripleStore::pred(&mut i);
        let rel = db.relation(p).unwrap();
        assert!(rel.tuples().any(|t| t[0] == swim));
    }

    #[test]
    fn rejects_short_and_trailing_garbage_lines() {
        let mut i = Interner::new();
        assert!(parse_nt(&mut i, "<a> <b> .").is_err());
        assert!(parse_nt(&mut i, "<a> <b> <c> <d> .").is_err());
        assert!(parse_nt(&mut i, "<a> <b <c> .").is_err());
    }

    #[test]
    fn falls_back_to_facts_format() {
        let mut i = Interner::new();
        // First data token is `triple(swim,` — the facts shape.
        let text = "triple(swim, recorded_by, caribou)\ntriple(swim, published, after_2010)\n";
        let db = parse_dataset(&mut i, text).unwrap();
        assert_eq!(db.size(), 2);
    }

    #[test]
    fn merge_adopts_into_an_empty_interner() {
        let mut snap_i = Interner::new();
        let mut ts = TripleStore::new();
        ts.insert_str(&mut snap_i, "a", "b", "c");
        let snap_db = ts.into_database();
        let symbols = snap_i.len();

        let mut live = Interner::new();
        let db = merge_snapshot(&mut live, (snap_i, snap_db));
        assert_eq!(db.size(), 1);
        // Adopted wholesale: the snapshot's ids are the live ids.
        assert_eq!(live.len(), symbols);
        let p = TripleStore::pred(&mut live);
        let a = live.constant("a");
        assert_eq!(live.len(), symbols, "lookups must not intern anything new");
        assert_eq!(db.relation(p).unwrap().posting_len(0, a), 1);
    }

    #[test]
    fn merge_remaps_when_the_interner_already_has_symbols() {
        let mut snap_i = Interner::new();
        let mut ts = TripleStore::new();
        ts.insert_str(&mut snap_i, "x", "y", "z");
        let snap_db = ts.into_database();

        // A live interner with different ids for the same names.
        let mut live = Interner::new();
        live.constant("unrelated");
        live.constant("z");
        let db = merge_snapshot(&mut live, (snap_i, snap_db));
        assert_eq!(db.size(), 1);
        let p = TripleStore::pred(&mut live);
        let (x, z) = (live.constant("x"), live.constant("z"));
        let rel = db.relation(p).unwrap();
        assert!(rel.tuples().any(|t| t[0] == x && t[2] == z));
    }

    #[test]
    fn merge_remap_resorts_rows_under_the_new_ids() {
        // Several tuples whose relative order *changes* under the new ids,
        // so the translated run must be re-sorted before `from_sorted`.
        let mut snap_i = Interner::new();
        let mut ts = TripleStore::new();
        ts.insert_str(&mut snap_i, "a", "p", "u");
        ts.insert_str(&mut snap_i, "b", "p", "u");
        ts.insert_str(&mut snap_i, "b", "q", "v");
        ts.insert_str(&mut snap_i, "c", "q", "u");
        let snap_db = ts.into_database();

        // A live interner that reverses the id order of a/b/c.
        let mut live = Interner::new();
        live.constant("c");
        live.constant("b");
        live.constant("a");
        let db = merge_snapshot(&mut live, (snap_i, snap_db));
        assert_eq!(db.size(), 4);
        let p = TripleStore::pred(&mut live);
        let rel = db.relation(p).unwrap();
        let rows: Vec<&[Const]> = rel.tuples().collect();
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "run not re-sorted");
        // Probes answer correctly under the new ids.
        let (b, u, q) = (live.constant("b"), live.constant("u"), live.constant("q"));
        assert_eq!(rel.posting_len(0, b), 2);
        assert_eq!(rel.posting_len(2, u), 3);
        assert_eq!(rel.matching(&[Some(b), Some(q), None]).count(), 1);
    }

    #[test]
    fn merge_moves_relations_wholesale_when_ids_line_up() {
        let mut snap_i = Interner::new();
        let mut ts = TripleStore::new();
        ts.insert_str(&mut snap_i, "a", "p", "u");
        let bytes = wdpt_store::snapshot_to_vec_v2(&snap_i, ts.database()).unwrap();
        let (snap_i, snap_db) = wdpt_store::decode_snapshot(&bytes).unwrap();

        // The live interner extends the snapshot's: identity translation.
        let mut live = snap_i.clone();
        live.constant("extra-live-symbol");
        let db = merge_snapshot(&mut live, (snap_i, snap_db));
        let p = TripleStore::pred(&mut live);
        assert_eq!(db.size(), 1);
        assert_eq!(db.relation(p).unwrap().tuples().count(), 1);
    }
}
