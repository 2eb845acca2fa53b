//! Dataset loading for the server: N-Triples-ish files, the workspace
//! `facts` format, and `wdpt-store` binary snapshots.
//!
//! The server evaluates SPARQL queries, which compile to the `triple/3`
//! schema, so text datasets are parsed into a [`TripleStore`]. Parsing is
//! shared with the rest of the workspace: the lenient N-Triples dialect
//! lives in [`wdpt_sparql::nt`], and file loading goes through the store's
//! parallel bulk loader ([`wdpt_store::bulk_load_path`]: streamed chunking,
//! two-pass parallel interning, sorted tuple runs) with the facts format
//! handled by `wdpt_model::parse`. Binary snapshots enter the server's
//! ids one way, reload or start-up alike: the store resolves the file's
//! dictionary against the server's interner and commits the names it lacks
//! ([`wdpt_store::ChainSymbols`]). Neither path builds anything beside the
//! sorted runs themselves: a probe on a leading prefix searches the run in
//! place, and any other column gets its row-id permutation on the first
//! probe that needs one.

use std::io;
use std::path::Path;
use wdpt_model::{Database, Interner};
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
}
