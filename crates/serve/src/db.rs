//! Dataset loading for the server: N-Triples-ish files, the workspace
//! `facts` format, and `wdpt-store` binary snapshots.
//!
//! The server evaluates SPARQL queries, which compile to the `triple/3`
//! schema. A text dataset enters one way, the store's bulk loader
//! ([`wdpt_store::bulk_load_path`]: streamed chunking, two-pass parallel
//! interning, sorted tuple runs), which reads N-Triples through
//! [`wdpt_sparql::parse_nt_line`] and facts through `wdpt_model::parse`.
//! Binary snapshots enter the server's ids one way too, reload or start-up
//! alike: the store resolves the file's dictionary against the server's
//! interner and commits the names it lacks ([`wdpt_store::ChainSymbols`]).
//! Neither path builds anything beside the sorted runs themselves: a probe
//! on a leading prefix searches the run in place, and any other column gets
//! its row-id permutation on the first probe that needs one.

use std::io;
use std::path::Path;
use wdpt_model::{Database, Interner};
use wdpt_obs::counter;

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
