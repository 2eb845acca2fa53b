//! The `wdpt-store` CLI: build, verify, and inspect database snapshots.
//!
//! ```text
//! wdpt-store build INPUT SNAPSHOT [--threads N] [--chunk-lines N]
//! wdpt-store verify SNAPSHOT [--delta DELTA]...
//! wdpt-store verify --chain DIR
//! wdpt-store inspect SNAPSHOT_OR_DELTA [--json]
//! wdpt-store delta BASE INPUT DELTA_OUT [--delta PRIOR]... [--threads N] [--chunk-lines N]
//! wdpt-store apply BASE SNAPSHOT_OUT [--delta DELTA]...
//! wdpt-store gen-music BANDSxRECORDS OUTPUT.nt [--seed S]
//! wdpt-store gen-synth TRIPLES OUTPUT.nt [--seed S] [--skew K]
//! ```
//!
//! Exit codes: `0` success, `1` corrupt or unparsable input, `2` usage or
//! I/O error — so CI can distinguish "snapshot is bad" from "I was called
//! wrong".

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use wdpt_model::Interner;
use wdpt_obs::Json;
use wdpt_store::{LoadOptions, StoreError};

const USAGE: &str = "usage:
  wdpt-store build INPUT SNAPSHOT [--threads N] [--chunk-lines N]
      parse a text dataset (N-Triples or facts) in parallel and write a
      snapshot (one sorted run per relation as delta+varint columns,
      front-coded dictionary, a checksum per section)
  wdpt-store verify SNAPSHOT [--delta DELTA]...
      fully decode a snapshot (applying any delta chain), checking every
      checksum, chain hash, and invariant, then build each relation's
      column permutations and cross-check them against its run
  wdpt-store verify --chain DIR
      order every WDPTSNAP file in DIR into a delta chain by base-hash
      linkage (the layout a replication log keeps), verify it end to end,
      and report the final chain head
  wdpt-store inspect SNAPSHOT_OR_DELTA [--json]
      print the header and per-relation summary (checksums only, no full
      decode); --json emits one machine-readable JSON document instead.
      A delta file gets its delta header summarized
  wdpt-store delta BASE INPUT DELTA_OUT [--delta PRIOR]... [--threads N] [--chunk-lines N]
      parse INPUT and write the new tuples/symbols as a delta chained onto
      BASE (after any PRIOR deltas, in order)
  wdpt-store apply BASE SNAPSHOT_OUT [--delta DELTA]...
      apply a delta chain to BASE and write the merged full snapshot; with
      no deltas this is a verified re-encode of BASE (a checked copy)
  wdpt-store gen-music BANDSxRECORDS OUTPUT.nt [--seed S]
      write a synthetic music-catalog dataset as N-Triples
  wdpt-store gen-synth TRIPLES OUTPUT.nt [--seed S] [--skew K]
      stream a synthetic uniform-universe N-Triples dataset of any size;
      --skew K (0..=10) re-aims K tenths of the stream at heavy-hitter
      symbols, the shape the join planner's statistics catalog detects";

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("wdpt-store: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// `1` for data-level problems (corruption, parse errors), `2` for I/O.
fn data_err(err: &StoreError) -> ExitCode {
    eprintln!("wdpt-store: {err}");
    match err {
        StoreError::Io(_) => ExitCode::from(2),
        _ => ExitCode::from(1),
    }
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<usize>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    v.parse::<usize>()
        .map(Some)
        .map_err(|_| format!("{flag} needs a number, got {v:?}"))
}

/// Removes every occurrence of a repeatable `--flag VALUE` pair, returning
/// the values in order.
fn take_str_flags(args: &mut Vec<String>, flag: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    while let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        out.push(args.remove(i + 1));
        args.remove(i);
    }
    Ok(out)
}

fn cmd_build(mut args: Vec<String>) -> ExitCode {
    let threads = match take_flag(&mut args, "--threads") {
        Ok(v) => v.unwrap_or(0),
        Err(e) => return usage_err(&e),
    };
    let chunk_lines = match take_flag(&mut args, "--chunk-lines") {
        Ok(v) => v.unwrap_or(LoadOptions::default().chunk_lines),
        Err(e) => return usage_err(&e),
    };
    let [input, output] = args.as_slice() else {
        return usage_err("build takes INPUT and SNAPSHOT paths");
    };
    let opts = LoadOptions {
        threads,
        chunk_lines,
    };
    let mut interner = Interner::new();
    let t0 = Instant::now();
    let (db, report) = match wdpt_store::bulk_load_path(&mut interner, Path::new(input), opts) {
        Ok(r) => r,
        Err(e) => return data_err(&e),
    };
    let parse_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let bytes = match wdpt_store::save_snapshot(Path::new(output), &interner, &db) {
        Ok(n) => n,
        Err(e) => return data_err(&e),
    };
    let write_ms = t1.elapsed().as_secs_f64() * 1e3;
    println!(
        "built {output}: {} tuples in {} relations ({} lines, {} symbols, \
         {} duplicates dropped, {} threads) parse {parse_ms:.1}ms write {write_ms:.1}ms \
         {bytes} bytes",
        report.tuples,
        report.relations,
        report.lines,
        report.symbols_appended,
        report.duplicates,
        report.threads
    );
    ExitCode::SUCCESS
}

fn cmd_verify(mut args: Vec<String>) -> ExitCode {
    let chains = match take_str_flags(&mut args, "--chain") {
        Ok(v) => v,
        Err(e) => return usage_err(&e),
    };
    let deltas = match take_str_flags(&mut args, "--delta") {
        Ok(v) => v,
        Err(e) => return usage_err(&e),
    };
    match (chains.as_slice(), args.is_empty() && deltas.is_empty()) {
        ([], _) => {}
        ([dir], true) => return verify_chain_dir(Path::new(dir)),
        ([_], false) => {
            return usage_err(
                "--chain takes the whole chain from DIR; drop the SNAPSHOT/--delta arguments",
            )
        }
        _ => return usage_err("--chain can be given once"),
    }
    let [path] = args.as_slice() else {
        return usage_err("verify takes one SNAPSHOT path");
    };
    let t0 = Instant::now();
    let loaded = if deltas.is_empty() {
        wdpt_store::load_snapshot(Path::new(path))
    } else {
        wdpt_store::load_with_deltas(Path::new(path), &deltas)
    };
    match loaded {
        Ok((interner, db)) => {
            // Loading validated the runs themselves; the deep check
            // extends that to what is derived from them.
            if let Err(e) = wdpt_store::verify_database_deep(&db) {
                return data_err(&e);
            }
            println!(
                "ok: {} symbols, {} relations, {} tuples ({} deltas applied), verified in {:.1}ms",
                interner.len(),
                db.predicate_count(),
                db.size(),
                deltas.len(),
                t0.elapsed().as_secs_f64() * 1e3
            );
            ExitCode::SUCCESS
        }
        Err(e) => data_err(&e),
    }
}

/// `verify --chain DIR`: discovers the snapshot + delta files in `dir`,
/// orders them by base-hash linkage, fully decodes the chain, and reports
/// the final head — the hash a replica must quote to read-your-writes
/// against this chain.
fn verify_chain_dir(dir: &Path) -> ExitCode {
    let t0 = Instant::now();
    let scan = match wdpt_store::scan_chain_dir(dir) {
        Ok(s) => s,
        Err(e) => return data_err(&e),
    };
    println!(
        "chain in {}: base {} ({})",
        dir.display(),
        scan.base
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("?"),
        wdpt_store::head_hex(scan.base_hash)
    );
    for (path, head) in &scan.deltas {
        println!(
            "  + {} -> head {}",
            path.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
            wdpt_store::head_hex(*head)
        );
    }
    let delta_paths: Vec<_> = scan.deltas.iter().map(|(p, _)| p.clone()).collect();
    match wdpt_store::load_with_deltas(&scan.base, &delta_paths) {
        Ok((interner, db)) => {
            println!(
                "ok: {} deltas onto base, {} symbols, {} relations, {} tuples, \
                 head {} verified in {:.1}ms",
                scan.deltas.len(),
                interner.len(),
                db.predicate_count(),
                db.size(),
                wdpt_store::head_hex(scan.head),
                t0.elapsed().as_secs_f64() * 1e3
            );
            ExitCode::SUCCESS
        }
        Err(e) => data_err(&e),
    }
}

fn cmd_delta(mut args: Vec<String>) -> ExitCode {
    let priors = match take_str_flags(&mut args, "--delta") {
        Ok(v) => v,
        Err(e) => return usage_err(&e),
    };
    let threads = match take_flag(&mut args, "--threads") {
        Ok(v) => v.unwrap_or(0),
        Err(e) => return usage_err(&e),
    };
    let chunk_lines = match take_flag(&mut args, "--chunk-lines") {
        Ok(v) => v.unwrap_or(LoadOptions::default().chunk_lines),
        Err(e) => return usage_err(&e),
    };
    let [base, input, output] = args.as_slice() else {
        return usage_err("delta takes BASE, INPUT, and DELTA_OUT paths");
    };

    // Materialize the chain tip: base + prior deltas, and the content hash
    // of the last file in the chain (what the new delta anchors to).
    let t0 = Instant::now();
    let base_bytes = match std::fs::read(base) {
        Ok(b) => b,
        Err(e) => return data_err(&StoreError::Io(e)),
    };
    let mut prior_bytes = Vec::with_capacity(priors.len());
    for p in &priors {
        match std::fs::read(p) {
            Ok(b) => prior_bytes.push(b),
            Err(e) => return data_err(&StoreError::Io(e)),
        }
    }
    let (interner, db) = match wdpt_store::decode_with_deltas(&base_bytes, &prior_bytes) {
        Ok(pair) => pair,
        Err(e) => return data_err(&e),
    };
    let tip_hash = wdpt_store::content_hash(prior_bytes.last().unwrap_or(&base_bytes));
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Parse the update on top of a copy of the chain-tip interner so new
    // symbols append after the existing ids.
    let t1 = Instant::now();
    let mut new_interner = interner.clone();
    let opts = LoadOptions {
        threads,
        chunk_lines,
    };
    let (add_db, report) =
        match wdpt_store::bulk_load_path(&mut new_interner, Path::new(input), opts) {
            Ok(r) => r,
            Err(e) => return data_err(&e),
        };
    let mut new_db = db.clone();
    for (pred, rel) in add_db.relations() {
        if let Some(existing) = new_db.relation(pred) {
            if existing.arity() != rel.arity() {
                return data_err(&StoreError::Parse {
                    line: 0,
                    message: format!(
                        "predicate {:?} used at arity {} but the base has arity {}",
                        new_interner.pred_name(pred),
                        rel.arity(),
                        existing.arity()
                    ),
                });
            }
        }
        for t in rel.tuples() {
            new_db.insert(pred, t.to_vec());
        }
    }
    let parse_ms = t1.elapsed().as_secs_f64() * 1e3;

    let t2 = Instant::now();
    let bytes = match wdpt_store::delta_to_vec(tip_hash, &interner, &db, &new_interner, &new_db) {
        Ok(b) => b,
        Err(e) => return data_err(&e),
    };
    if let Err(e) = wdpt_store::save_delta(Path::new(output), &bytes) {
        return data_err(&e);
    }
    let write_ms = t2.elapsed().as_secs_f64() * 1e3;
    println!(
        "wrote {output}: {} inserted tuples, {} new symbols over {} prior deltas \
         ({} input lines) load {load_ms:.1}ms parse {parse_ms:.1}ms write {write_ms:.1}ms {} bytes",
        new_db.size() - db.size(),
        new_interner.len() - interner.len(),
        priors.len(),
        report.lines,
        bytes.len()
    );
    ExitCode::SUCCESS
}

fn cmd_apply(mut args: Vec<String>) -> ExitCode {
    let deltas = match take_str_flags(&mut args, "--delta") {
        Ok(v) => v,
        Err(e) => return usage_err(&e),
    };
    // No deltas is fine: `load_with_deltas` handles an empty chain, so the
    // command degrades to a fully-verified decode + deterministic re-encode
    // of BASE (byte-identical output — useful as a checked copy).
    let [base, output] = args.as_slice() else {
        return usage_err("apply takes BASE and SNAPSHOT_OUT paths");
    };
    let t0 = Instant::now();
    let (interner, db) = match wdpt_store::load_with_deltas(Path::new(base), &deltas) {
        Ok(pair) => pair,
        Err(e) => return data_err(&e),
    };
    let apply_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let bytes = match wdpt_store::save_snapshot(Path::new(output), &interner, &db) {
        Ok(n) => n,
        Err(e) => return data_err(&e),
    };
    let write_ms = t1.elapsed().as_secs_f64() * 1e3;
    println!(
        "applied {} deltas onto {base}: {} symbols, {} relations, {} tuples \
         apply {apply_ms:.1}ms write {write_ms:.1}ms {bytes} bytes -> {output}",
        deltas.len(),
        interner.len(),
        db.predicate_count(),
        db.size()
    );
    ExitCode::SUCCESS
}

fn cmd_inspect(mut args: Vec<String>) -> ExitCode {
    let json = match args.iter().position(|a| a == "--json") {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    let [path] = args.as_slice() else {
        return usage_err("inspect takes one SNAPSHOT path");
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => return data_err(&StoreError::Io(e)),
    };
    // The file's content hash IS the chain-head hash a server at this
    // chain position advertises (and clients quote as `min_head`).
    let chain_head = wdpt_store::head_hex(wdpt_store::content_hash(&bytes));
    match wdpt_store::inspect_snapshot(&bytes) {
        Ok(summary) => {
            let h = summary.header;
            if json {
                let doc = Json::obj([
                    ("kind".to_string(), Json::str("snapshot")),
                    ("version".to_string(), Json::int(h.version as u64)),
                    ("chain_head".to_string(), Json::str(chain_head.clone())),
                    ("bytes".to_string(), Json::int(summary.bytes as u64)),
                    ("symbols".to_string(), Json::int(h.symbols)),
                    ("fresh_counter".to_string(), Json::int(h.fresh_counter)),
                    ("tuples".to_string(), Json::int(h.tuples)),
                    (
                        "dictionary_bytes".to_string(),
                        Json::int(summary.dict_bytes as u64),
                    ),
                    (
                        "relations".to_string(),
                        Json::Arr(
                            summary
                                .relations
                                .iter()
                                .map(|r| {
                                    Json::obj([
                                        ("pred".to_string(), Json::int(r.pred as u64)),
                                        ("name".to_string(), Json::str(r.name.clone())),
                                        ("arity".to_string(), Json::int(r.arity as u64)),
                                        ("rows".to_string(), Json::int(r.rows)),
                                        ("bytes".to_string(), Json::int(r.bytes as u64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]);
                println!("{doc}");
            } else {
                println!(
                    "snapshot v{}: {} bytes, {} symbols, fresh counter {}, {} relations, \
                     {} tuples, chain head {chain_head}",
                    h.version, summary.bytes, h.symbols, h.fresh_counter, h.relations, h.tuples
                );
                println!("  dictionary: {} bytes", summary.dict_bytes);
                for r in &summary.relations {
                    println!(
                        "  {}/{} (id {}): {} rows, {} bytes",
                        r.name, r.arity, r.pred, r.rows, r.bytes
                    );
                }
            }
            ExitCode::SUCCESS
        }
        // A delta file is not an error worth exit code 1 here: fall back to
        // the delta header so `inspect` works on every wdpt-store artifact.
        Err(e) if e.to_string().contains("delta snapshot") => {
            match wdpt_store::decode_delta(&bytes) {
                Ok(delta) => {
                    let h = delta.header;
                    if json {
                        let doc = Json::obj([
                            ("kind".to_string(), Json::str("delta")),
                            ("version".to_string(), Json::int(h.version as u64)),
                            ("chain_head".to_string(), Json::str(chain_head.clone())),
                            ("bytes".to_string(), Json::int(bytes.len() as u64)),
                            (
                                "base_hash".to_string(),
                                Json::str(format!("{:016x}", h.base_hash)),
                            ),
                            ("base_symbols".to_string(), Json::int(h.base_symbols)),
                            ("symbols".to_string(), Json::int(h.symbols)),
                            ("fresh_counter".to_string(), Json::int(h.fresh_counter)),
                            ("relations".to_string(), Json::int(h.relations as u64)),
                            ("inserted".to_string(), Json::int(h.inserted)),
                        ]);
                        println!("{doc}");
                    } else {
                        println!(
                            "delta v{}: {} bytes, base hash {:016x}, {} -> {} symbols, \
                         {} relation deltas, {} inserted tuples, chain head {chain_head}",
                            h.version,
                            bytes.len(),
                            h.base_hash,
                            h.base_symbols,
                            h.symbols,
                            h.relations,
                            h.inserted
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => data_err(&e),
            }
        }
        Err(e) => data_err(&e),
    }
}

/// Writes a term as an N-Triples IRI, escaping the characters that would
/// break the angle-bracket syntax via `\uXXXX`.
fn write_iri(out: &mut String, term: &str) {
    out.push('<');
    for c in term.chars() {
        if c == '>' || c == '<' || c == '\\' || c.is_whitespace() || c.is_control() {
            let code = c as u32;
            if code > 0xFFFF {
                out.push_str(&format!("\\U{code:08X}"));
            } else {
                out.push_str(&format!("\\u{code:04X}"));
            }
        } else {
            out.push(c);
        }
    }
    out.push('>');
}

fn cmd_gen_music(mut args: Vec<String>) -> ExitCode {
    let seed = match take_flag(&mut args, "--seed") {
        Ok(v) => v.map(|s| s as u64),
        Err(e) => return usage_err(&e),
    };
    let [spec, output] = args.as_slice() else {
        return usage_err("gen-music takes BANDSxRECORDS and OUTPUT paths");
    };
    let Some((bands, records)) = spec
        .split_once('x')
        .and_then(|(b, r)| Some((b.parse::<usize>().ok()?, r.parse::<usize>().ok()?)))
    else {
        return usage_err("gen-music size must look like 500x20");
    };
    let mut params = wdpt_gen::music::MusicParams {
        bands,
        records_per_band: records,
        ..Default::default()
    };
    if let Some(s) = seed {
        params.seed = s;
    }
    let mut interner = Interner::new();
    let ts = wdpt_gen::music_triples(&mut interner, params);
    let triple = wdpt_sparql::TripleStore::pred(&mut interner);
    let mut out = String::new();
    if let Some(rel) = ts.database().relation(triple) {
        for t in rel.tuples() {
            for (i, c) in t.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                write_iri(&mut out, interner.name(c.0));
            }
            out.push_str(" .\n");
        }
    }
    if let Err(e) = std::fs::write(output, &out) {
        return data_err(&StoreError::Io(e));
    }
    println!("wrote {output}: {} triples", ts.len());
    ExitCode::SUCCESS
}

fn cmd_gen_synth(mut args: Vec<String>) -> ExitCode {
    let seed = match take_flag(&mut args, "--seed") {
        Ok(v) => v.map(|s| s as u64),
        Err(e) => return usage_err(&e),
    };
    let skew = match take_flag(&mut args, "--skew") {
        Ok(v) => v.map(|s| s as u64),
        Err(e) => return usage_err(&e),
    };
    let [triples, output] = args.as_slice() else {
        return usage_err("gen-synth takes TRIPLES and OUTPUT paths");
    };
    let Ok(triples) = triples.parse::<u64>() else {
        return usage_err("gen-synth TRIPLES must be a number");
    };
    if skew.is_some_and(|k| k > 10) {
        return usage_err("gen-synth --skew must be in 0..=10 (tenths of the stream)");
    }
    let mut params = wdpt_gen::SynthParams::sized_skewed(triples, skew.unwrap_or(0));
    if let Some(s) = seed {
        params.seed = s;
    }
    let t0 = Instant::now();
    let f = match std::fs::File::create(output) {
        Ok(f) => f,
        Err(e) => return data_err(&StoreError::Io(e)),
    };
    let mut w = std::io::BufWriter::new(f);
    let written = wdpt_gen::write_synth_nt(&mut w, params)
        .and_then(|n| std::io::Write::flush(&mut w).map(|()| n));
    match written {
        Ok(n) => {
            println!(
                "wrote {output}: {n} triples in {:.1}ms",
                t0.elapsed().as_secs_f64() * 1e3
            );
            ExitCode::SUCCESS
        }
        Err(e) => data_err(&StoreError::Io(e)),
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage_err("missing subcommand");
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "build" => cmd_build(args),
        "verify" => cmd_verify(args),
        "inspect" => cmd_inspect(args),
        "delta" => cmd_delta(args),
        "apply" => cmd_apply(args),
        "gen-music" => cmd_gen_music(args),
        "gen-synth" => cmd_gen_synth(args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => usage_err(&format!("unknown subcommand {other:?}")),
    }
}
