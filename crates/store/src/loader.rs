//! Parallel bulk loading of text datasets with two-pass parallel interning.
//!
//! The pipeline (std-only, scoped threads, no new dependencies):
//!
//! ```text
//! reader thread ──chunks──▶ N parse workers ──coded chunks──▶ main thread
//!   (BufRead,               (string-level parse, names           (collects)
//!    line-bounded            interned into the worker's own
//!    chunking)               `Interner`, facts coded as runs
//!                            of its u32 ids)
//!
//! then: canonical merge — the union of the workers' symbols is folded
//!       into the global interner in (namespace, name) order
//!       (`Interner::extend_canonical`), so global ids depend only on the
//!       symbol set, never on worker count or scheduling; each worker's
//!       interner becomes a local→global table and is dropped
//! then: parallel remap — each coded chunk is rewritten local→global ids
//!       and grouped by predicate across M threads
//! then: per-relation sort + dedup of the flat rows across M threads
//!       (`Relation::from_rows`; nothing else is built here — the sorted
//!       run is all a relation is and all the snapshot encoder reads)
//! ```
//!
//! Parsing and interning are both the expensive steps at catalog scale
//! (escape decoding, tokenizing, one hash probe per symbol *occurrence*),
//! and both fan out here: a worker's interner absorbs the per-cell hash
//! traffic (each distinct symbol is stored once per worker), and the
//! serial section shrinks to merging the per-worker *distinct* symbol sets.
//!
//! Determinism: snapshot bytes are a pure function of `(Interner,
//! Database)`, the canonical merge makes global ids a pure function of the
//! input's symbol set, and sort+dedup makes each relation's tuple run a
//! pure function of the input's tuple set — so `build --threads 1` and
//! `--threads 8` write byte-identical snapshots (enforced by tests and the
//! CI `store_smoke` job).
//!
//! This is the one way text becomes a [`Database`] (in memory, read it from
//! an `io::Cursor`). Two formats, sniffed from the first data line:
//! lenient N-Triples, parsed by [`wdpt_model::parse::parse_nt_line`] (one
//! triple per line — chunks cut anywhere), and the facts format, parsed by
//! [`wdpt_model::parse::parse_ground_atoms`] (atoms may span lines — chunks
//! cut only where all parentheses outside quoted constants are balanced,
//! tracked escape-aware so `\"` inside a quoted constant cannot fake a
//! boundary). Errors carry 1-based line numbers as [`StoreError::Parse`];
//! an arity conflict names the line of the fact that breaks it.
//!
//! Memory. Input is streamed line by line (bounded `read_until`, no
//! slurping). A worker's interner holds each name once, and a coded chunk
//! is runs `[pred, argc, n, args × n]` in an exact-size allocation, about
//! 3 `u32`s per triple. The peak is set by the canonical merge, where the
//! coded chunks, the worker interners, the global interner and the merge's
//! sort buffer are live together; the worker interners are dropped before
//! the remap, which rewrites the chunks in place and gathers each
//! relation's cells into one allocation sized from their run headers, so
//! the rest of a load holds what its input decides, whatever the
//! scheduling. Measured with a counting allocator on 400k skewed triples
//! (`gen-synth --skew 3`: 75 054 names, 0.41 MiB of them) at 2 threads,
//! the peak is 2.10× the result: 14.5 MiB for a 6.9 MiB database and
//! interner (13.0 MiB, 1.89×, at 1 thread). An interner keeps its names in
//! one arena: grown by pushes, as a worker's is, it takes 2.1 MiB for
//! those names, where a `(namespace, String)` slot per id and a hash map
//! took 6.5.

use crate::format::StoreError;
use std::collections::HashMap;
use std::io::BufRead;
use std::path::Path;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use wdpt_model::parse::{parse_ground_atoms, parse_nt_line, TRIPLE_PRED};
use wdpt_model::{row_id, Const, Database, Interner, Pred, Relation};

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

fn arity_err(line: usize, pred: &str, first: u32, then: u32) -> StoreError {
    let message = format!("predicate {pred} used with arities {first} and {then}");
    parse_err(line, message)
}

/// Locks a loader mutex. Each critical section is a channel `recv`, an
/// iterator `next` or a store into a `Vec` or `Option`, none of which
/// unwinds (allocation failure aborts), so no lock is ever poisoned — and
/// a poisoned one would still guard a whole value.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A chunk's facts coded against one worker's [`Interner`] as runs
/// `[pred, argc, n, args × n]` of consecutive facts sharing predicate and
/// arity, in one exact-size allocation. An N-Triples chunk is one run,
/// about 3 `u32`s per triple.
struct CodedChunk {
    worker: usize,
    code: Box<[u32]>,
    facts: u64,
}

/// The runs of a coded chunk: each run's predicate, arity and cells.
fn runs(code: &[u32]) -> impl Iterator<Item = (Pred, usize, &[u32])> {
    let mut rest = code;
    std::iter::from_fn(move || match rest {
        [pred, argc, n, tail @ ..] => {
            let (cells, next) = tail.split_at(*argc as usize * *n as usize);
            rest = next;
            Some((Pred(*pred), *argc as usize, cells))
        }
        _ => None,
    })
}

/// What a parse worker keeps across its chunks: its own interner, whose
/// ids are the local ids; the arity and 1-based line of each predicate's
/// first use, by local id (chunks reach a worker in input order, so this
/// is its earliest use); and the buffer chunks are coded in.
#[derive(Default)]
struct Worker {
    names: Interner,
    first_use: HashMap<u32, (u32, usize)>,
    code: Vec<u32>,
}

impl Worker {
    /// Codes a fact's head: one more fact in the run whose header sits at
    /// `run` if predicate and arity match it, else a new run `[pred, argc,
    /// 1]`, whose arity must agree with the predicate's first use.
    fn head(
        &mut self,
        run: &mut usize,
        name: &str,
        argc: u32,
        line: usize,
    ) -> Result<(), StoreError> {
        let pred = self.names.pred(name).0;
        match self.code.get(*run..*run + 3) {
            Some(&[p, a, n]) if p == pred && a == argc && n < u32::MAX => self.code[*run + 2] += 1,
            _ => {
                let (first, _) = *self.first_use.entry(pred).or_insert((argc, line));
                if first != argc {
                    return Err(arity_err(line, name, first, argc));
                }
                *run = self.code.len();
                self.code.extend([pred, argc, 1]);
            }
        }
        Ok(())
    }

    /// Pass 1: parses a chunk at the string level and codes its facts as
    /// runs against this worker's interner.
    fn code_chunk(&mut self, chunk: &Chunk, worker: usize) -> Result<CodedChunk, StoreError> {
        self.code.clear();
        let mut run = 0;
        let mut facts = 0u64;
        match chunk.format {
            Format::Nt => {
                for (off, text) in chunk.text.lines().enumerate() {
                    let line = chunk.start_line + off;
                    let Some((s, p, o)) =
                        parse_nt_line(text).map_err(|e| parse_err(line, e.message))?
                    else {
                        continue;
                    };
                    self.head(&mut run, TRIPLE_PRED, 3, line)?;
                    let spo = [s, p, o].map(|c| self.names.constant(&c).0);
                    self.code.extend(spo);
                    facts += 1;
                }
            }
            Format::Facts => {
                // Offsets arrive in increasing order: lines are counted in
                // one scan of the text.
                let mut seen = (0, chunk.start_line);
                let mut line_at = |off: usize| {
                    seen.1 += chunk.text[seen.0..off].matches('\n').count();
                    seen.0 = off;
                    seen.1
                };
                let atoms = parse_ground_atoms(&chunk.text)
                    .map_err(|e| parse_err(line_at(e.at), e.message))?;
                for (p, args) in atoms {
                    // A predicate name is a slice of the chunk text.
                    let line = line_at(p.as_ptr() as usize - chunk.text.as_ptr() as usize);
                    let argc = u32::try_from(args.len()).map_err(|_| StoreError::TooLarge {
                        what: format!("arguments of the fact on line {line}"),
                        value: args.len() as u64,
                    })?;
                    self.head(&mut run, p, argc, line)?;
                    self.code
                        .extend(args.iter().map(|a| self.names.constant(a).0));
                    facts += 1;
                }
            }
        }
        Ok(CodedChunk {
            worker,
            code: self.code.as_slice().into(),
            facts,
        })
    }
}

fn looks_like_facts(data_line: &str) -> bool {
    let first = data_line.split_whitespace().next().unwrap_or("");
    !first.starts_with('<') && !first.starts_with('"') && first.contains('(')
}

/// Tracks paren balance across lines of facts text, ignoring parentheses
/// inside quoted constants, so the [`Chunker`] cuts facts chunks only at
/// atom boundaries.
///
/// The scan is escape-aware: inside a quote, a backslash consumes the next
/// character, so `\"` does not close the string and `\\` does not arm an
/// escape for the character after it. Without this, a fact like
/// `p("a\")", q)` looked balanced at the `)` inside the quotes, and a chunk
/// cut there handed both halves to the parser mis-framed.
struct FactsBalance {
    depth: i64,
    in_quote: bool,
    /// A backslash inside a quote was seen and its escaped character has
    /// not arrived yet (it may be on the next line fed).
    escaped: bool,
}

impl FactsBalance {
    fn new() -> FactsBalance {
        FactsBalance {
            depth: 0,
            in_quote: false,
            escaped: false,
        }
    }

    fn feed(&mut self, line: &str) {
        for c in line.chars() {
            if self.escaped {
                self.escaped = false;
                continue;
            }
            match c {
                '\\' if self.in_quote => self.escaped = true,
                '"' => self.in_quote = !self.in_quote,
                '(' if !self.in_quote => self.depth += 1,
                ')' if !self.in_quote => self.depth -= 1,
                _ => {}
            }
        }
    }

    fn balanced(&self) -> bool {
        self.depth == 0 && !self.in_quote && !self.escaped
    }
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
            // A blank inside a chunk stays a blank, so that offsets into
            // the chunk still count input lines.
            if !self.chunk.is_empty() {
                self.chunk.push('\n');
            }
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
/// interners, deterministic canonical merge into `interner`, parallel
/// remap, then parallel sort/dedup. See the module docs for the pipeline
/// and the determinism argument.
pub fn bulk_load<R: BufRead + Send>(
    interner: &mut Interner,
    r: &mut R,
    opts: LoadOptions,
) -> Result<(Database, LoadReport), StoreError> {
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

    // Pass 1: parallel parse + local coding.
    let workers: Vec<Worker> = std::thread::scope(|scope| {
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
                let mut state = Worker::default();
                loop {
                    let Ok(chunk) = lock(&chunk_rx).recv() else {
                        break;
                    };
                    let result = state.code_chunk(&chunk, worker);
                    let failed = result.is_err();
                    if coded_tx.send(result).is_err() || failed {
                        break;
                    }
                }
                state
            }));
        }
        // Drop the main thread's handles: the workers' receiver clones and
        // sender clones are now the only ones, so hangups propagate.
        drop(chunk_rx);
        drop(coded_tx);

        // Collect coded chunks in arrival order — order does not matter,
        // because determinism comes from the canonical merge below, not
        // from consumption order.
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
        // A worker panics only on a bug or when its interner runs out of
        // `u32` ids; the caller gets that panic as it was raised.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });

    reader_result?;
    if let Some(e) = first_error {
        return Err(e);
    }

    // Canonical merge: fold the union of the workers' symbols into the
    // global interner in (namespace, name) order. Ids depend only on the
    // symbol *set* plus the interner's prior contents — not on thread
    // count, chunking, or scheduling — which is what keeps snapshot bytes
    // identical across `--threads` settings. The candidates' buffer is sized
    // from the workers' symbol counts: this moment sets the load's peak.
    let mut candidates = Vec::with_capacity(workers.iter().map(|w| w.names.len()).sum());
    candidates.extend(workers.iter().flat_map(|w| w.names.symbols()));
    let appended = interner.extend_canonical(candidates);

    // Per-worker translation tables, local id → global id. The lookup
    // cannot miss: `extend_canonical` has just interned every worker symbol.
    let maps: Vec<Vec<u32>> = workers
        .iter()
        .map(|w| {
            let global = |(space, name)| interner.lookup_id(space, name).expect("merged above");
            w.names.symbols().map(global).collect()
        })
        .collect();
    // The arity check the workers cannot make: a predicate's first uses in
    // different workers, in line order, so a conflict is reported at the
    // later of the two.
    let mut uses: Vec<(usize, u32, u32)> = workers
        .iter()
        .zip(&maps)
        .flat_map(|(w, map)| {
            w.first_use
                .iter()
                .map(|(&local, &(arity, line))| (line, map[local as usize], arity))
        })
        .collect();
    drop(workers);
    uses.sort_unstable();
    let mut arity_of: HashMap<u32, u32> = HashMap::new();
    for (line, pred, arity) in uses {
        let first = *arity_of.entry(pred).or_insert(arity);
        if first != arity {
            return Err(arity_err(line, interner.name(pred), first, arity));
        }
    }

    // Pass 2: remap local→global ids in place, chunks in parallel. Then
    // gather each predicate's cells, chunk by chunk, into one allocation
    // sized from the run headers before any is copied, freeing each chunk
    // once copied: what this holds depends on the input alone, never on
    // which thread remapped which chunk. Row order washes out in the sort
    // below (the tuple multiset is thread-independent).
    let queue = Mutex::new(chunks.iter_mut());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let Some(chunk) = lock(&queue).next() else {
                    return;
                };
                let map = &maps[chunk.worker];
                let mut rest = &mut chunk.code[..];
                while let [pred, argc, n, tail @ ..] = rest {
                    *pred = map[*pred as usize];
                    let (cells, next) = tail.split_at_mut(*argc as usize * *n as usize);
                    for cell in cells {
                        *cell = map[*cell as usize];
                    }
                    rest = next;
                }
            });
        }
    });
    drop(maps);
    let mut sizes: HashMap<Pred, (usize, usize)> = HashMap::new();
    for (pred, arity, cells) in chunks.iter().flat_map(|c| runs(&c.code)) {
        sizes.entry(pred).or_insert((arity, 0)).1 += cells.len();
    }
    let mut tuples_by_pred: PredTuples = sizes
        .into_iter()
        .map(|(pred, (arity, len))| (pred, (arity, Vec::with_capacity(len))))
        .collect();
    for chunk in chunks {
        for (pred, _, cells) in runs(&chunk.code) {
            let tuples = &mut tuples_by_pred.get_mut(&pred).expect("sized above").1;
            tuples.extend(cells.iter().map(|&c| Const(c)));
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
                let Some((pred, arity, cells)) = lock(&queue).next() else {
                    return;
                };
                // Nullary facts leave no cells to count; any number of them
                // is the one empty tuple.
                let rows = cells.len().checked_div(arity).unwrap_or(1);
                // Row ids are u32 everywhere (permutations, snapshots):
                // reject a >4Gi-row relation with a typed error instead of
                // letting a later sort wrap and alias rows.
                if let Err(e) = row_id(rows) {
                    *lock(&sort_err) = Some(e.into());
                    return;
                }
                let rel = Relation::from_rows(arity, rows, cells);
                lock(&built).push((pred, rel));
            });
        }
    });
    if let Some(e) = sort_err
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(e);
    }
    let relations = built.into_inner().unwrap_or_else(PoisonError::into_inner);

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
    use std::collections::BTreeSet;
    use std::io::Cursor;
    use wdpt_model::SymbolSpace;

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

    type NamedFacts = BTreeSet<(String, Vec<String>)>;

    /// A database's facts by name, to compare against literal expectations.
    fn named_facts(i: &Interner, db: &Database) -> NamedFacts {
        db.relations()
            .flat_map(|(p, rel)| {
                rel.tuples().map(move |t| {
                    let args = t.iter().map(|c| i.const_name(*c).to_owned());
                    (i.pred_name(p).to_owned(), args.collect())
                })
            })
            .collect()
    }

    fn fact(pred: &str, args: &[&str]) -> (String, Vec<String>) {
        (pred.into(), args.iter().map(|&a| a.into()).collect())
    }

    fn parse_error(text: &[u8]) -> (usize, String) {
        let mut i = Interner::new();
        match bulk_load(&mut i, &mut Cursor::new(text), tiny_chunks()) {
            Err(StoreError::Parse { line, message }) => (line, message),
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn bulk_loads_nt_and_reports_what_it_did() {
        let mut text = String::new();
        let mut expected = NamedFacts::new();
        for i in 0..200 {
            let (s, p, o) = (
                format!("s{i}"),
                format!("p{}", i % 7),
                format!("o{}", i % 13),
            );
            text.push_str(&format!("<{s}> <{p}> <{o}> .\n"));
            expected.insert(fact("triple", &[&s, &p, &o]));
        }
        text.push_str("<s0> <p0> <o0> .\n"); // duplicate
        let (i, db, report) = load(&text, tiny_chunks()).unwrap();
        assert_eq!(report.parsed, 201);
        assert_eq!(report.tuples, 200);
        assert_eq!(report.duplicates, 1);
        assert_eq!(report.lines, 201);
        assert!(report.symbols_appended > 0);
        assert_eq!(named_facts(&i, &db), expected);
    }

    #[test]
    fn bulk_loads_nt_with_iris_literals_and_bare_tokens() {
        let text = r#"
# the Example 2 catalog
<Swim> <recorded_by> <Caribou> .
<Swim> <published> "after_2010" .
Swim NME_rating "2"^^<http://www.w3.org/2001/XMLSchema#integer> .
<Our_love> <title> "Our \"Love\"@en"@en .
"#;
        let (i, db, _) = load(text, tiny_chunks()).unwrap();
        // IRIs and bare tokens intern to the same constant.
        let expected = NamedFacts::from([
            fact("triple", &["Swim", "recorded_by", "Caribou"]),
            fact("triple", &["Swim", "published", "after_2010"]),
            fact("triple", &["Swim", "NME_rating", "2"]),
            fact("triple", &["Our_love", "title", "Our \"Love\"@en"]),
        ]);
        assert_eq!(named_facts(&i, &db), expected);
    }

    #[test]
    fn nt_comments_blanks_and_crlf_are_skipped() {
        // Whitespace-only lines, indented comments, a `#` inside a literal
        // (data, not a comment), CRLF terminators, and a comment as the
        // last line without a terminator.
        let text =
            "   \r\n\t\n  # indented\r\n<a> <b> \"#not a comment\" .\r\n<d> <e> <f>\r\n#tail";
        let (i, db, _) = load(text, tiny_chunks()).unwrap();
        let expected = NamedFacts::from([
            fact("triple", &["a", "b", "#not a comment"]),
            fact("triple", &["d", "e", "f"]),
        ]);
        assert_eq!(named_facts(&i, &db), expected);
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
        let text = "edge(a,\n b)\n# interlude\nedge(b, c),\nnode(\"x (\")\nedge(a, b)\n";
        let (i, db, report) = load(text, tiny_chunks()).unwrap();
        assert_eq!(report.tuples, 3);
        assert_eq!(report.duplicates, 1);
        let expected = NamedFacts::from([
            fact("edge", &["a", "b"]),
            fact("edge", &["b", "c"]),
            fact("node", &["x ("]),
        ]);
        assert_eq!(named_facts(&i, &db), expected);
    }

    #[test]
    fn facts_are_sniffed_after_leading_comments() {
        // The first data line, past comments and blanks, has the facts
        // shape: `triple(swim,` is one token holding a `(`.
        let text = "# catalog\n\n  # more\ntriple(swim, recorded_by, caribou)\ntriple(swim, published, after_2010)\n";
        let (i, db, _) = load(text, tiny_chunks()).unwrap();
        let expected = NamedFacts::from([
            fact("triple", &["swim", "recorded_by", "caribou"]),
            fact("triple", &["swim", "published", "after_2010"]),
        ]);
        assert_eq!(named_facts(&i, &db), expected);
    }

    #[test]
    fn unicode_whitespace_separates_facts_as_parse_database_does() {
        let text = "edge(a,\u{00A0}b)\u{3000}edge(b, c)\n";
        let (i, db, _) = load(text, tiny_chunks()).unwrap();
        let mut i2 = Interner::new();
        let db2 = wdpt_model::parse::parse_database(&mut i2, text).unwrap();
        assert_eq!(named_facts(&i, &db), named_facts(&i2, &db2));
        let expected = NamedFacts::from([fact("edge", &["a", "b"]), fact("edge", &["b", "c"])]);
        assert_eq!(named_facts(&i, &db), expected);
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
        let (i, db, report) = load(text, opts).unwrap();
        assert_eq!(report.tuples, 4);
        let expected = NamedFacts::from([
            fact("edge", &["a", "x\")\n", "b"]),
            fact("edge", &["\\", "c", "d"]),
            fact("node", &["("]),
            fact("node", &["()"]),
        ]);
        assert_eq!(named_facts(&i, &db), expected);
    }

    #[test]
    fn rejects_non_ground_facts() {
        let (line, message) = parse_error(b"edge(a, b)\nedge(?x, b)\n");
        assert_eq!(line, 2);
        assert!(message.contains("ground"), "{message}");
    }

    #[test]
    fn invalid_utf8_is_a_parse_error_not_a_panic() {
        let (line, message) = parse_error(b"<a> <b> <c> .\n<a> \xFF <c> .\n");
        assert_eq!(line, 2);
        assert!(message.contains("utf-8"), "{message}");
    }

    #[test]
    fn unknown_escapes_are_refused_on_their_line() {
        for text in [
            &b"<a> <b> \"ok\" .\n<a> <b> \"\\x\" .\n"[..],
            b"p(\"ok\")\np(\"\\x\")\n",
        ] {
            let (line, message) = parse_error(text);
            assert_eq!(line, 2, "{message}");
            assert!(message.contains("unknown escape"), "{message}");
        }
    }

    #[test]
    fn reports_parse_errors_with_line_numbers() {
        let (line, _) = parse_error(b"<a> <b> <c> .\n<a> <b> <c> .\n<a> <b .\n");
        assert_eq!(line, 3);
        // An atom left open at end of input is reported, not dropped.
        parse_error(b"edge(a, b)\nedge(a,\n");
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
        // One chunk at the default chunking: the conflict is named at its
        // own line, not at the chunk's first.
        let text = format!("{}edge(a, b, c)\n", "edge(a, b)\n".repeat(10));
        let err = load(&text, LoadOptions::default()).unwrap_err();
        match err {
            StoreError::Parse { line, message } => {
                assert_eq!(line, 11, "{message}");
                assert!(message.contains("arities 2 and 3"), "{message}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        // Blank lines inside the chunk still count.
        let (line, message) = parse_error(b"edge(a, b)\n\n\n\n\n\n\n\nedge(a, b, c)\n");
        assert_eq!(line, 9, "{message}");
        // The conflicting uses in different chunks, so on one worker or on
        // two: either way the later use is reported.
        for threads in [1, 3] {
            let opts = LoadOptions {
                threads,
                chunk_lines: 1,
            };
            match load("edge(a, b)\nnode(a)\n\nedge(c, d, e)\n", opts).unwrap_err() {
                StoreError::Parse { line, .. } => assert_eq!(line, 4),
                other => panic!("expected Parse, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_and_comment_only_inputs_give_empty_databases() {
        for text in ["", "# only\n\n  \n"] {
            let (_, db, report) = load(text, LoadOptions::default()).unwrap();
            assert_eq!(db.size(), 0);
            assert_eq!(report.tuples, 0);
        }
    }
}
