//! Parallel bulk loading of text datasets with two-pass parallel interning.
//!
//! The pipeline (std-only, scoped threads, no new dependencies):
//!
//! ```text
//! reader thread ──chunks──▶ N parse workers ──coded chunks──▶ main thread
//!   (BufRead,               (string-level parse +             (collects)
//!    line-bounded            per-worker LOCAL dictionary,
//!    chunking)               tuples coded as local u32 ids)
//!
//! then: canonical merge — the union of the local dictionaries is folded
//!       into the global interner in (namespace, name) order
//!       (`Interner::extend_canonical`), so global ids depend only on the
//!       symbol set, never on worker count or scheduling
//! then: parallel remap — each coded chunk is rewritten local→global ids
//!       and grouped by predicate across M threads
//! then: per-relation sort + dedup of the flat rows across M threads
//!       (`Relation::from_rows`; nothing else is built here — the sorted
//!       run is all a relation is and all the snapshot encoder reads)
//! ```
//!
//! Parsing and interning are both the expensive steps at catalog scale
//! (escape decoding, tokenizing, one hash insert per symbol *occurrence*),
//! and both fan out here: a worker's local dictionary absorbs the per-cell
//! hash traffic (each distinct symbol is hashed once per worker), and the
//! serial section shrinks to merging the per-worker *distinct* symbol sets.
//! The seed pipeline instead interned every cell on one thread in chunk
//! order, which pinned bulk load at ~1.2× regardless of worker count.
//!
//! Determinism: snapshot bytes are a pure function of `(Interner,
//! Database)`, the canonical merge makes global ids a pure function of the
//! input's symbol set, and sort+dedup makes each relation's tuple run a
//! pure function of the input's tuple set — so `build --threads 1` and
//! `--threads 8` write byte-identical snapshots (enforced by tests and the
//! CI `store_smoke` job).
//!
//! Formats match [`crate::text`]: lenient N-Triples (one triple per line —
//! chunks cut anywhere) and the facts format (atoms may span lines — chunks
//! cut only where all parentheses outside quoted constants are balanced,
//! tracked escape-aware so `\"` inside a quoted constant cannot fake a
//! boundary).
//!
//! Input is streamed line by line (bounded `read_until`, no slurping) and
//! the buffered coded form is flat `u32`s — 4 bytes per tuple cell plus two
//! per fact — so peak memory stays proportional to the *output* database,
//! not to the input text.

use crate::format::StoreError;
use crate::text::FactsBalance;
use std::collections::HashMap;
use std::io::BufRead;
use std::path::Path;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};
use wdpt_model::{row_id, Const, Database, Interner, Pred, Relation, SymbolSpace};
use wdpt_obs::{counter, span};
use wdpt_sparql::parse_nt_line;

/// Tuning knobs for [`bulk_load`].
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    /// Parser worker threads. `0` means one per available core (capped at 8).
    pub threads: usize,
    /// Target lines per chunk handed to a worker.
    pub chunk_lines: usize,
}

impl Default for LoadOptions {
    fn default() -> LoadOptions {
        LoadOptions {
            threads: 0,
            chunk_lines: 4096,
        }
    }
}

impl LoadOptions {
    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(2)
    }
}

/// What a bulk load did, for logs and the CLI.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadReport {
    /// Input lines read (including blanks and comments).
    pub lines: u64,
    /// Facts/triples parsed (before deduplication).
    pub parsed: u64,
    /// Distinct tuples stored.
    pub tuples: u64,
    /// Duplicates dropped during the merge.
    pub duplicates: u64,
    /// Relations in the resulting database.
    pub relations: usize,
    /// Parser worker threads used.
    pub threads: usize,
    /// Symbols appended to the interner by the canonical merge.
    pub symbols_appended: u64,
}

/// A predicate name with its argument strings, before interning.
type RawAtom = (String, Vec<String>);

/// Per-predicate accumulation during collection: arity plus the (not yet
/// sorted or deduplicated) rows, flat.
type PredTuples = HashMap<Pred, (usize, Vec<Const>)>;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Nt,
    Facts,
}

struct Chunk {
    start_line: usize,
    format: Format,
    text: String,
}

fn parse_err(line: usize, message: impl Into<String>) -> StoreError {
    StoreError::Parse {
        line,
        message: message.into(),
    }
}

/// One worker's local dictionary: distinct predicate and constant names in
/// first-seen order, each mapped to a dense *local* `u32` id. Local ids are
/// meaningless across workers; the canonical-merge phase translates them to
/// global interner ids. Predicates also carry the arity of their first use
/// so inconsistent arities fail fast at parse time.
#[derive(Default)]
struct LocalDict {
    preds: Vec<String>,
    pred_ids: HashMap<String, u32>,
    pred_arity: Vec<u32>,
    consts: Vec<String>,
    const_ids: HashMap<String, u32>,
}

impl LocalDict {
    fn intern(names: &mut Vec<String>, ids: &mut HashMap<String, u32>, name: String) -> u32 {
        use std::collections::hash_map::Entry;
        match ids.entry(name) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = u32::try_from(names.len()).expect("local dictionary overflow");
                names.push(e.key().clone());
                e.insert(id);
                id
            }
        }
    }

    fn pred(&mut self, name: String, arity: u32) -> Result<u32, String> {
        let id = Self::intern(&mut self.preds, &mut self.pred_ids, name);
        if id as usize == self.pred_arity.len() {
            self.pred_arity.push(arity);
        } else if self.pred_arity[id as usize] != arity {
            return Err(format!(
                "predicate {} used with arities {} and {}",
                self.preds[id as usize], self.pred_arity[id as usize], arity
            ));
        }
        Ok(id)
    }

    fn constant(&mut self, name: String) -> u32 {
        Self::intern(&mut self.consts, &mut self.const_ids, name)
    }
}

/// A chunk's facts coded against one worker's local dictionary, flattened
/// as `[pred, argc, args...]` per fact: 4 bytes per cell plus 8 per fact,
/// in one allocation per chunk — an order of magnitude smaller than the
/// parsed-string form it replaces in the buffered stage.
struct CodedChunk {
    worker: usize,
    code: Vec<u32>,
    facts: u64,
}

/// String-level parser for the facts grammar (`wdpt_model::parse` accepts
/// the same language, but its cursor interns as it goes — this one runs on
/// worker threads against a local dictionary). Ground atoms only: a `?var`
/// argument is an error. Returns byte offsets for errors; the caller maps
/// them to line numbers. Quoted constants decode the same escapes as the
/// serial path (via [`wdpt_model::parse::unescape`]), and the closing-quote
/// scan is escape-aware to match [`FactsBalance`].
fn parse_facts_text(text: &str) -> Result<Vec<RawAtom>, (usize, String)> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let is_ident = |c: char| c.is_alphanumeric() || "_.'-".contains(c);
    let skip_ws = |pos: &mut usize| {
        while *pos < bytes.len() && (bytes[*pos] as char).is_whitespace() {
            *pos += 1;
        }
    };
    let ident_len = |from: usize| -> usize {
        text[from..]
            .chars()
            .take_while(|&c| is_ident(c))
            .map(char::len_utf8)
            .sum()
    };
    let mut atoms = Vec::new();
    loop {
        skip_ws(&mut pos);
        if pos >= bytes.len() {
            return Ok(atoms);
        }
        let start = pos;
        pos += ident_len(pos);
        if pos == start {
            return Err((pos, "expected identifier".into()));
        }
        let pred = text[start..pos].to_string();
        skip_ws(&mut pos);
        if bytes.get(pos) != Some(&b'(') {
            return Err((pos, "expected '('".into()));
        }
        pos += 1;
        let mut args = Vec::new();
        skip_ws(&mut pos);
        if bytes.get(pos) == Some(&b')') {
            pos += 1;
        } else {
            loop {
                skip_ws(&mut pos);
                match bytes.get(pos) {
                    Some(b'?') => return Err((pos, "database atoms must be ground".into())),
                    Some(b'"') => {
                        pos += 1;
                        let start = pos;
                        let mut escaped = false;
                        loop {
                            match bytes.get(pos) {
                                None => return Err((start, "unterminated string literal".into())),
                                Some(_) if escaped => {
                                    escaped = false;
                                    pos += 1;
                                }
                                Some(b'\\') => {
                                    escaped = true;
                                    pos += 1;
                                }
                                Some(b'"') => break,
                                Some(_) => pos += 1,
                            }
                        }
                        match wdpt_model::parse::unescape(&text[start..pos]) {
                            Ok(s) => args.push(s.into_owned()),
                            Err(e) => return Err((start + e.at, e.message)),
                        }
                        pos += 1;
                    }
                    Some(_) => {
                        let start = pos;
                        pos += ident_len(pos);
                        if pos == start {
                            return Err((pos, "expected term".into()));
                        }
                        args.push(text[start..pos].to_string());
                    }
                    None => return Err((pos, "expected term".into())),
                }
                skip_ws(&mut pos);
                match bytes.get(pos) {
                    Some(b',') => pos += 1,
                    Some(b')') => {
                        pos += 1;
                        break;
                    }
                    _ => return Err((pos, "expected ',' or ')'".into())),
                }
            }
        }
        atoms.push((pred, args));
        // Optional comma between atoms.
        skip_ws(&mut pos);
        if bytes.get(pos) == Some(&b',') {
            pos += 1;
        }
    }
}

/// Pass 1 per worker: parse a chunk at the string level, then code every
/// fact against the worker's local dictionary.
fn code_chunk(
    chunk: &Chunk,
    worker: usize,
    dict: &mut LocalDict,
) -> Result<CodedChunk, StoreError> {
    let mut code = Vec::new();
    let mut facts = 0u64;
    match chunk.format {
        Format::Nt => {
            for (off, line) in chunk.text.lines().enumerate() {
                match parse_nt_line(line) {
                    Ok(None) => {}
                    Ok(Some((s, p, o))) => {
                        let pred = dict
                            .pred(wdpt_sparql::TRIPLE_PRED.to_owned(), 3)
                            .map_err(|m| parse_err(chunk.start_line + off, m))?;
                        code.push(pred);
                        code.push(3);
                        code.push(dict.constant(s));
                        code.push(dict.constant(p));
                        code.push(dict.constant(o));
                        facts += 1;
                    }
                    Err(e) => return Err(parse_err(chunk.start_line + off, e)),
                }
            }
        }
        Format::Facts => match parse_facts_text(&chunk.text) {
            Ok(atoms) => {
                for (p, args) in atoms {
                    let arity = u32::try_from(args.len()).expect("arity fits u32");
                    let pred = dict
                        .pred(p, arity)
                        .map_err(|m| parse_err(chunk.start_line, m))?;
                    code.push(pred);
                    code.push(arity);
                    for a in args {
                        code.push(dict.constant(a));
                    }
                    facts += 1;
                }
            }
            Err((at, message)) => {
                let line =
                    chunk.start_line + chunk.text[..at.min(chunk.text.len())].matches('\n').count();
                return Err(parse_err(line, message));
            }
        },
    }
    Ok(CodedChunk {
        worker,
        code,
        facts,
    })
}

fn looks_like_facts(data_line: &str) -> bool {
    let first = data_line.split_whitespace().next().unwrap_or("");
    !first.starts_with('<') && !first.starts_with('"') && first.contains('(')
}

/// Accumulates lines into line-bounded chunks (cut only at balanced
/// boundaries for facts) and sends them to the workers.
struct Chunker<'a> {
    format: Format,
    chunk_lines: usize,
    tx: &'a SyncSender<Chunk>,
    chunk: String,
    chunk_start: usize,
    chunk_len: usize,
    balance: FactsBalance,
    /// Set when a send fails — every worker has exited (after reporting an
    /// error), so the reader should stop.
    hung_up: bool,
}

impl<'a> Chunker<'a> {
    fn new(format: Format, chunk_lines: usize, tx: &'a SyncSender<Chunk>) -> Chunker<'a> {
        Chunker {
            format,
            chunk_lines,
            tx,
            chunk: String::new(),
            chunk_start: 0,
            chunk_len: 0,
            balance: FactsBalance::new(),
            hung_up: false,
        }
    }

    fn push_line(&mut self, l: &str, line_no: usize) {
        let t = l.trim();
        let skippable = t.is_empty() || t.starts_with('#');
        let at_boundary = self.format == Format::Nt || self.balance.balanced();
        if skippable && at_boundary {
            return;
        }
        if self.chunk.is_empty() {
            self.chunk_start = line_no;
        }
        if self.format == Format::Facts {
            self.balance.feed(l);
        }
        self.chunk.push_str(l);
        if !l.ends_with('\n') {
            self.chunk.push('\n');
        }
        self.chunk_len += 1;
        let cuttable = self.format == Format::Nt || self.balance.balanced();
        if self.chunk_len >= self.chunk_lines && cuttable {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.chunk.is_empty() {
            return;
        }
        let text = std::mem::take(&mut self.chunk);
        self.chunk_len = 0;
        let send = self.tx.send(Chunk {
            start_line: self.chunk_start,
            format: self.format,
            text,
        });
        if send.is_err() {
            self.hung_up = true;
        }
    }
}

/// The reader loop: sniffs the format from the first data line, then feeds
/// the [`Chunker`]. Reads raw bytes per line (no per-line `String`) and
/// validates UTF-8 in place.
fn read_chunks<R: BufRead>(
    r: &mut R,
    chunk_lines: usize,
    tx: &SyncSender<Chunk>,
) -> Result<u64, StoreError> {
    let mut buf = Vec::new();
    let mut line_no = 0usize;
    let mut chunker: Option<Chunker<'_>> = None;
    loop {
        line_no += 1;
        buf.clear();
        if r.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        let l = std::str::from_utf8(&buf).map_err(|_| parse_err(line_no, "invalid utf-8"))?;
        match &mut chunker {
            None => {
                let t = l.trim();
                if t.is_empty() || t.starts_with('#') {
                    continue;
                }
                let format = if looks_like_facts(l) {
                    Format::Facts
                } else {
                    Format::Nt
                };
                let mut c = Chunker::new(format, chunk_lines, tx);
                c.push_line(l, line_no);
                chunker = Some(c);
            }
            Some(c) => {
                c.push_line(l, line_no);
                if c.hung_up {
                    return Ok(line_no as u64);
                }
            }
        }
    }
    if let Some(mut c) = chunker {
        c.flush();
    }
    Ok(line_no as u64 - 1)
}

/// Bulk-loads a text dataset from a reader: parallel parse into per-worker
/// local dictionaries, deterministic canonical merge into `interner`,
/// parallel remap, then parallel sort/dedup. See the module docs for the
/// pipeline and the determinism argument.
pub fn bulk_load<R: BufRead + Send>(
    interner: &mut Interner,
    r: &mut R,
    opts: LoadOptions,
) -> Result<(Database, LoadReport), StoreError> {
    let _g = span!("store.bulk_load");
    let threads = opts.effective_threads();
    let chunk_lines = opts.chunk_lines.max(1);

    let (chunk_tx, chunk_rx) = sync_channel::<Chunk>(threads * 2);
    let (coded_tx, coded_rx) = sync_channel::<Result<CodedChunk, StoreError>>(threads * 2);
    let chunk_rx = Arc::new(Mutex::new(chunk_rx));

    let mut lines = 0u64;
    let mut reader_result: Result<(), StoreError> = Ok(());
    let mut chunks: Vec<CodedChunk> = Vec::new();
    let mut parsed_count = 0u64;
    let mut first_error: Option<StoreError> = None;
    let mut dicts: Vec<LocalDict> = Vec::new();

    // Pass 1: parallel parse + local coding.
    std::thread::scope(|scope| {
        {
            // Move the sender and mutable captures into the reader thread so
            // the channel hangs up when it finishes (or when every worker
            // has exited and a send fails).
            let tx = chunk_tx;
            let lines = &mut lines;
            let reader_result = &mut reader_result;
            let r = &mut *r;
            scope.spawn(move || match read_chunks(r, chunk_lines, &tx) {
                Ok(n) => *lines = n,
                Err(e) => *reader_result = Err(e),
            });
        }
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let chunk_rx = Arc::clone(&chunk_rx);
            let coded_tx = coded_tx.clone();
            handles.push(scope.spawn(move || {
                let mut dict = LocalDict::default();
                loop {
                    let chunk = match chunk_rx.lock().expect("loader mutex poisoned").recv() {
                        Ok(c) => c,
                        Err(_) => break,
                    };
                    let result = code_chunk(&chunk, worker, &mut dict);
                    let failed = result.is_err();
                    if coded_tx.send(result).is_err() || failed {
                        break;
                    }
                }
                dict
            }));
        }
        // Drop the main thread's handles: the workers' receiver clones and
        // sender clones are now the only ones, so hangups propagate.
        drop(chunk_rx);
        drop(coded_tx);

        // Collect coded chunks in arrival order — order does not matter,
        // because determinism comes from the canonical merge below, not
        // from consumption order (the seed's serial reorder buffer and its
        // chunk-order interning are gone entirely).
        for result in coded_rx.iter() {
            match result {
                Ok(c) => {
                    parsed_count += c.facts;
                    chunks.push(c);
                }
                Err(e) => {
                    // Keep the error with the smallest line number so the
                    // reported failure does not depend on which worker
                    // reached its bad chunk first.
                    let better = match (&e, &first_error) {
                        (_, None) => true,
                        (
                            StoreError::Parse { line, .. },
                            Some(StoreError::Parse { line: prev, .. }),
                        ) => line < prev,
                        _ => false,
                    };
                    if better {
                        first_error = Some(e);
                    }
                }
            }
        }
        dicts = handles
            .into_iter()
            .map(|h| h.join().expect("parse worker panicked"))
            .collect();
    });

    reader_result?;
    if let Some(e) = first_error {
        return Err(e);
    }

    // Canonical merge: fold the union of the local dictionaries into the
    // global interner in (namespace, name) order. Ids depend only on the
    // symbol *set* plus the interner's prior contents — not on thread
    // count, chunking, or scheduling — which is what keeps snapshot bytes
    // identical across `--threads` settings.
    let appended = interner.extend_canonical(dicts.iter().flat_map(|d| {
        d.preds
            .iter()
            .map(|n| (SymbolSpace::Pred, n.as_str()))
            .chain(d.consts.iter().map(|n| (SymbolSpace::Const, n.as_str())))
    }));
    counter!("store.intern.appended").add(appended as u64);

    // Per-worker translation tables (local id → global typed id), plus the
    // cross-worker arity consistency check the per-worker parse cannot see.
    let pred_maps: Vec<Vec<Pred>> = dicts
        .iter()
        .map(|d| d.preds.iter().map(|n| interner.pred(n)).collect())
        .collect();
    let const_maps: Vec<Vec<Const>> = dicts
        .iter()
        .map(|d| d.consts.iter().map(|n| interner.constant(n)).collect())
        .collect();
    let mut arity_of: HashMap<Pred, u32> = HashMap::new();
    for (w, d) in dicts.iter().enumerate() {
        for (local, name) in d.preds.iter().enumerate() {
            let pred = pred_maps[w][local];
            let arity = d.pred_arity[local];
            match arity_of.insert(pred, arity) {
                Some(prev) if prev != arity => {
                    return Err(parse_err(
                        0,
                        format!(
                            "predicate {name} used with arities {} and {}",
                            prev.min(arity),
                            prev.max(arity)
                        ),
                    ));
                }
                _ => {}
            }
        }
    }
    drop(arity_of);

    // Pass 2: parallel remap local→global ids, grouping tuples by
    // predicate. Each thread accumulates its own groups; the groups merge
    // by concatenation, and any order differences wash out in the sort
    // below (the tuple multiset is thread-independent).
    let queue = Mutex::new(chunks.into_iter());
    let grouped: Mutex<Vec<PredTuples>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local: PredTuples = HashMap::new();
                loop {
                    let next = queue.lock().expect("loader mutex poisoned").next();
                    let Some(chunk) = next else { break };
                    let preds = &pred_maps[chunk.worker];
                    let consts = &const_maps[chunk.worker];
                    let mut at = 0usize;
                    while at < chunk.code.len() {
                        let pred = preds[chunk.code[at] as usize];
                        let argc = chunk.code[at + 1] as usize;
                        let args = &chunk.code[at + 2..at + 2 + argc];
                        at += 2 + argc;
                        local
                            .entry(pred)
                            .or_insert_with(|| (argc, Vec::new()))
                            .1
                            .extend(args.iter().map(|&a| consts[a as usize]));
                    }
                }
                grouped.lock().expect("loader mutex poisoned").push(local);
            });
        }
    });
    drop(dicts);
    let mut tuples_by_pred: PredTuples = HashMap::new();
    for local in grouped.into_inner().expect("loader mutex poisoned") {
        for (pred, (arity, mut tuples)) in local {
            tuples_by_pred
                .entry(pred)
                .or_insert_with(|| (arity, Vec::new()))
                .1
                .append(&mut tuples);
        }
    }

    // Per-relation sort + dedup, fanned out across threads.
    let work: Vec<_> = tuples_by_pred
        .into_iter()
        .map(|(pred, (arity, tuples))| (pred, arity, tuples))
        .collect();
    let built = Mutex::new(Vec::with_capacity(work.len()));
    let sort_err: Mutex<Option<StoreError>> = Mutex::new(None);
    let queue = Mutex::new(work.into_iter());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let Some((pred, arity, cells)) =
                    queue.lock().expect("loader mutex poisoned").next()
                else {
                    return;
                };
                // Nullary facts leave no cells to count; any number of them
                // is the one empty tuple.
                let rows = cells.len().checked_div(arity).unwrap_or(1);
                // Row ids are u32 everywhere (permutations, snapshots):
                // reject a >4Gi-row relation with a typed error instead of
                // letting a later sort wrap and alias rows.
                if let Err(e) = row_id(rows) {
                    *sort_err.lock().expect("loader mutex poisoned") = Some(e.into());
                    return;
                }
                let rel = Relation::from_rows(arity, rows, cells);
                built
                    .lock()
                    .expect("loader mutex poisoned")
                    .push((pred, rel));
            });
        }
    });
    if let Some(e) = sort_err.into_inner().expect("loader mutex poisoned") {
        return Err(e);
    }
    let relations = built.into_inner().expect("loader mutex poisoned");

    let db = Database::from_sorted(relations);
    let tuples = db.size() as u64;
    let report = LoadReport {
        lines,
        parsed: parsed_count,
        tuples,
        duplicates: parsed_count - tuples,
        relations: db.predicate_count(),
        threads,
        symbols_appended: appended as u64,
    };
    counter!("store.bulk.lines").add(report.lines);
    counter!("store.bulk.tuples").add(report.tuples);
    counter!("store.bulk.duplicates").add(report.duplicates);
    Ok((db, report))
}

/// Bulk-loads a text dataset file.
pub fn bulk_load_path(
    interner: &mut Interner,
    path: &Path,
    opts: LoadOptions,
) -> Result<(Database, LoadReport), StoreError> {
    let f = std::fs::File::open(path)?;
    let mut r = std::io::BufReader::new(f);
    bulk_load(interner, &mut r, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn load(text: &str, opts: LoadOptions) -> Result<(Interner, Database, LoadReport), StoreError> {
        let mut i = Interner::new();
        let (db, report) = bulk_load(&mut i, &mut Cursor::new(text.as_bytes()), opts)?;
        Ok((i, db, report))
    }

    fn tiny_chunks() -> LoadOptions {
        LoadOptions {
            threads: 3,
            chunk_lines: 2,
        }
    }

    #[test]
    fn bulk_load_matches_serial_text_load_on_nt() {
        let mut text = String::new();
        for i in 0..200 {
            text.push_str(&format!("<s{i}> <p{}> <o{}> .\n", i % 7, i % 13));
        }
        text.push_str("<s0> <p0> <o0> .\n"); // duplicate
        let (i1, db1, report) = load(&text, tiny_chunks()).unwrap();
        assert_eq!(report.parsed, 201);
        assert_eq!(report.tuples, 200);
        assert_eq!(report.duplicates, 1);
        assert_eq!(report.lines, 201);
        assert!(report.symbols_appended > 0);

        let mut i2 = Interner::new();
        let db2 =
            crate::text::read_text_database(&mut i2, &mut Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(db1.size(), db2.size());
        assert_eq!(db1.display(&i1), db2.display(&i2));
    }

    #[test]
    fn bulk_load_is_deterministic_across_runs() {
        let mut text = String::new();
        for i in 0..300 {
            text.push_str(&format!("<s{}> <p> <o{}> .\n", i % 31, i));
        }
        let (i1, db1, _) = load(&text, tiny_chunks()).unwrap();
        let (i2, db2, _) = load(&text, tiny_chunks()).unwrap();
        let a = crate::format::snapshot_to_vec_v2(&i1, &db1).unwrap();
        let b = crate::format::snapshot_to_vec_v2(&i2, &db2).unwrap();
        assert_eq!(a, b, "interner ids depend on worker scheduling");
    }

    #[test]
    fn snapshot_bytes_are_identical_across_thread_counts() {
        let mut text = String::new();
        for i in 0..400 {
            text.push_str(&format!("<s{}> <p{}> <o{}> .\n", i % 37, i % 5, i % 53));
        }
        text.push_str("mixed_case <p0> \"a literal\" .\n");
        let mut reference: Option<Vec<u8>> = None;
        for threads in [1usize, 2, 5] {
            let opts = LoadOptions {
                threads,
                chunk_lines: 3,
            };
            let (i, db, _) = load(&text, opts).unwrap();
            let bytes = crate::format::snapshot_to_vec_v2(&i, &db).unwrap();
            match &reference {
                None => reference = Some(bytes),
                Some(r) => assert_eq!(r, &bytes, "thread count {threads} changed the bytes"),
            }
        }
    }

    #[test]
    fn bulk_load_appends_canonically_to_a_non_empty_interner() {
        // The delta path and multi-dataset serve loads start from an
        // interner that already has symbols: existing ids must survive and
        // new ids must not depend on the thread count.
        let text = "<a> <p> <b> .\n<c> <p> <d> .\n";
        let mut outcomes = Vec::new();
        for threads in [1usize, 4] {
            let mut i = Interner::new();
            let keep = i.constant("p");
            let (db, _) = bulk_load(
                &mut i,
                &mut Cursor::new(text.as_bytes()),
                LoadOptions {
                    threads,
                    chunk_lines: 1,
                },
            )
            .unwrap();
            assert_eq!(i.constant("p"), keep, "existing id moved");
            let listing: Vec<(SymbolSpace, String)> =
                i.symbols().map(|(s, n)| (s, n.to_owned())).collect();
            outcomes.push((listing, db.display(&i)));
        }
        assert_eq!(outcomes[0], outcomes[1]);
    }

    #[test]
    fn bulk_loads_facts_with_multi_line_atoms() {
        let text = "edge(a,\n b)\nedge(b, c),\nnode(\"x (\")\nedge(a, b)\n";
        let (mut i, db, report) = load(text, tiny_chunks()).unwrap();
        assert_eq!(report.tuples, 3);
        assert_eq!(report.duplicates, 1);
        let e = i.pred("edge");
        assert_eq!(db.relation(e).unwrap().len(), 2);
        let n = i.pred("node");
        let c = i.constant("x (");
        assert!(db.relation(n).unwrap().tuples().any(|t| t[0] == c));
    }

    #[test]
    fn facts_escapes_on_chunk_edges_parse_identically() {
        // Escaped quotes and `\u` escapes sit exactly where the chunker
        // considers cutting (line ends, `chunk_lines: 1` makes every line a
        // candidate boundary). The old quote toggle treated `\"` as a
        // closing quote, saw the atom as balanced mid-string, and cut a
        // chunk that mis-parsed on both sides of the boundary.
        let text = concat!(
            "edge(a, \"x\\\")\n",     // escaped quote right before a ')'
            "\", b)\n",               // string closes on the next line
            "node(\"\\u0028\")\n",    // decodes to "(" — must not unbalance
            "node(\"(\\u0029\")\n",   // literal "(" inside quotes + escaped ")"
            "edge(\"\\\\\", c, d)\n", // escaped backslash then a real close
        );
        let opts = LoadOptions {
            threads: 3,
            chunk_lines: 1,
        };
        let (i1, db1, report) = load(text, opts).unwrap();
        assert_eq!(report.tuples, 4);

        // Serial oracle: identical database, symbol for symbol.
        let mut i2 = Interner::new();
        let db2 =
            crate::text::read_text_database(&mut i2, &mut Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(db1.display(&i1), db2.display(&i2));

        let mut i1 = i1;
        let e = i1.pred("edge");
        let c = i1.constant("x\")\n");
        assert!(db1.relation(e).unwrap().tuples().any(|t| t[1] == c));
        let bs = i1.constant("\\");
        assert!(db1.relation(e).unwrap().tuples().any(|t| t[0] == bs));
        let n = i1.pred("node");
        let par = i1.constant("(");
        let both = i1.constant("()");
        let tuples: Vec<_> = db1.relation(n).unwrap().tuples().map(|t| t[0]).collect();
        assert!(tuples.contains(&par) && tuples.contains(&both));
    }

    #[test]
    fn reports_parse_errors_with_line_numbers() {
        let text = "<a> <b> <c> .\n<a> <b> <c> .\n<a> <b .\n";
        let err = load(text, tiny_chunks()).unwrap_err();
        match err {
            StoreError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn error_line_is_the_smallest_across_workers() {
        // Two malformed lines in different chunks: whichever worker errors
        // first, the reported line must be the earlier one.
        let text = "<a> <b> <c> .\n<bad .\n<a> <b> <c> .\n<also bad .\n";
        for _ in 0..10 {
            let err = load(text, tiny_chunks()).unwrap_err();
            match err {
                StoreError::Parse { line, .. } => assert_eq!(line, 2),
                other => panic!("expected Parse, got {other:?}"),
            }
        }
    }

    #[test]
    fn all_chunks_malformed_does_not_deadlock() {
        // Every chunk errors, so every worker exits early; the reader must
        // notice the hangup instead of blocking on a full channel.
        let mut text = String::new();
        for _ in 0..500 {
            text.push_str("<a> <b .\n");
        }
        let err = load(&text, tiny_chunks()).unwrap_err();
        assert!(matches!(err, StoreError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn rejects_inconsistent_arity() {
        let text = "edge(a, b)\nedge(a, b, c)\n";
        let err = load(text, tiny_chunks()).unwrap_err();
        assert!(matches!(err, StoreError::Parse { .. }), "{err:?}");
        // Same outcome when the conflicting uses land on different workers.
        let text = "edge(a, b)\n\n\n\n\n\n\n\nedge(a, b, c)\n";
        let err = load(text, tiny_chunks()).unwrap_err();
        assert!(matches!(err, StoreError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn empty_input_yields_empty_database() {
        let (_, db, report) = load("", LoadOptions::default()).unwrap();
        assert_eq!(db.size(), 0);
        assert_eq!(report.tuples, 0);
    }
}
