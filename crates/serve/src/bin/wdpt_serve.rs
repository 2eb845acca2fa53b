//! `wdpt-serve` — run the concurrent WDPT query service.
//!
//! ```text
//! wdpt-serve --db music.nt --threads 8
//! wdpt-serve --gen-music 200x4 --addr 127.0.0.1:7878
//! ```
//!
//! Datasets come from `--db [name=]PATH` (repeatable; the first one is the
//! default) or, when none is given, from `--gen-music` (the paper's music
//! catalog as triples). The protocol is newline-delimited JSON; see
//! `DESIGN.md` § "The query service".

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use wdpt_gen::music::MusicParams;
use wdpt_model::{Database, Interner};
use wdpt_obs::{counter, span};
use wdpt_serve::{load_database, serve, ServeConfig, ServeState};

const USAGE: &str = "\
wdpt-serve: serve SPARQL {AND, OPT} queries over TCP (newline-delimited JSON)

USAGE:
    wdpt-serve [OPTIONS]

OPTIONS:
    --addr HOST:PORT          listen address [default: 127.0.0.1:7878]
    --db [NAME=]PATH          load a dataset (N-Triples or facts format);
                              repeatable, first one is the default database
    --load-threads N          parser threads for --db bulk loading; 0 means
                              one per core [default: 0]
    --snapshot [NAME=]PATH    load a wdpt-store binary snapshot; repeatable,
                              loads before any --db. A --db with the same
                              name is skipped when the snapshot loads, and
                              serves as the text fallback when it is corrupt
    --save-snapshot PATH      after loading, write the default database as a
                              snapshot to PATH (build-on-first-load)
    --gen-music BANDSxRECORDS generate the music catalog instead of loading
                              a file (used when no --db is given)
                              [default when no --db: 100x4]
    --threads N               concurrent evaluations [default: 4]
    --eval-threads N          threads inside one evaluation [default: 2]
    --queue N                 requests that may wait for one, beyond which
                              a request is answered overloaded
                              [default: 64]
    --default-deadline-ms MS  deadline when the request names none
                              [default: 10000]
    --max-deadline-ms MS      clamp on requested deadlines [default: 60000]
    --max-rows N              default cap on streamed rows [default: 1000]
    --max-query-atoms N       reject queries with more triple patterns
                              [default: 64]
    --max-query-vars N        reject queries with more variables
                              [default: 26]
    --cache-capacity N        plan-cache entries [default: 256]
    --slowlog-threshold-ms MS log queries slower than MS (and every
                              deadline-exceeded query) in the slow-query
                              log; 0 disables the log [default: 1000]
    --slowlog-capacity N      slow-query ring-buffer entries; the oldest
                              entry is evicted when full [default: 128]
    --no-telemetry            disable request traces, latency histograms,
                              and the slow-query log (ablation)
    --repl-log DIR            act as replication primary: keep the delta
                              chain of the default database (which must come
                              from --snapshot) in an append-only log under
                              DIR and stream it to subscribed followers
    --follow HOST:PORT        act as read replica: subscribe to the primary
                              at HOST:PORT and apply its delta stream to the
                              default database (conflicts with --repl-log)
    --help                    print this help
";

struct Args {
    addr: String,
    dbs: Vec<(String, String)>,
    snapshots: Vec<(String, String)>,
    save_snapshot: Option<String>,
    gen_music: Option<(usize, usize)>,
    load_threads: usize,
    repl_log: Option<String>,
    follow: Option<String>,
    cfg: ServeConfig,
}

/// Splits a `[NAME=]PATH` spec, defaulting the name to the file stem.
fn name_and_path(spec: String) -> (String, String) {
    match spec.split_once('=') {
        Some((n, p)) => (n.to_string(), p.to_string()),
        None => {
            let stem = Path::new(&spec)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("db")
                .to_string();
            (stem, spec)
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        dbs: Vec::new(),
        snapshots: Vec::new(),
        save_snapshot: None,
        gen_music: None,
        load_threads: 0,
        repl_log: None,
        follow: None,
        cfg: ServeConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--addr" => args.addr = value("--addr")?,
            "--db" => args.dbs.push(name_and_path(value("--db")?)),
            "--load-threads" => args.load_threads = num(&flag, &value("--load-threads")?)?,
            "--snapshot" => args.snapshots.push(name_and_path(value("--snapshot")?)),
            "--save-snapshot" => args.save_snapshot = Some(value("--save-snapshot")?),
            "--gen-music" => {
                let spec = value("--gen-music")?;
                let (bands, records) = match spec.split_once('x') {
                    Some((b, r)) => (
                        b.parse().map_err(|_| format!("bad --gen-music {spec:?}"))?,
                        r.parse().map_err(|_| format!("bad --gen-music {spec:?}"))?,
                    ),
                    None => (
                        spec.parse()
                            .map_err(|_| format!("bad --gen-music {spec:?}"))?,
                        4,
                    ),
                };
                args.gen_music = Some((bands, records));
            }
            "--threads" => args.cfg.workers = num(&flag, &value("--threads")?)?,
            "--eval-threads" => args.cfg.eval_threads = num(&flag, &value("--eval-threads")?)?,
            "--queue" => args.cfg.queue_capacity = num(&flag, &value("--queue")?)?,
            "--default-deadline-ms" => {
                args.cfg.default_deadline_ms = num(&flag, &value("--default-deadline-ms")?)? as u64
            }
            "--max-deadline-ms" => {
                args.cfg.max_deadline_ms = num(&flag, &value("--max-deadline-ms")?)? as u64
            }
            "--max-rows" => args.cfg.max_rows = num(&flag, &value("--max-rows")?)?,
            "--max-query-atoms" => {
                args.cfg.max_query_atoms = num(&flag, &value("--max-query-atoms")?)?
            }
            "--max-query-vars" => {
                args.cfg.max_query_vars = num(&flag, &value("--max-query-vars")?)?
            }
            "--cache-capacity" => {
                args.cfg.cache_capacity = num(&flag, &value("--cache-capacity")?)?
            }
            "--slowlog-threshold-ms" => {
                args.cfg.slowlog_threshold_ms =
                    num(&flag, &value("--slowlog-threshold-ms")?)? as u64
            }
            "--slowlog-capacity" => {
                args.cfg.slowlog_capacity = num(&flag, &value("--slowlog-capacity")?)?
            }
            "--no-telemetry" => args.cfg.telemetry = false,
            "--repl-log" => args.repl_log = Some(value("--repl-log")?),
            "--follow" => args.follow = Some(value("--follow")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Decodes a base snapshot and its deltas into `interner`'s ids, as a
/// reload does: the snapshot's dictionary is adopted whole into an empty
/// interner — the usual single-snapshot start, which re-interns nothing —
/// and resolved name by name into any other.
fn fold_chain(
    interner: &mut Interner,
    base: &[u8],
    deltas: &[Vec<u8>],
) -> Result<Database, wdpt_store::StoreError> {
    let adopted = interner.is_empty();
    let (db, _) = wdpt_store::decode_chain_into(interner, base, deltas).map_err(|(_, e)| e)?;
    if adopted {
        counter!("serve.store.snapshot_adopted").add(1);
    } else {
        counter!("serve.store.snapshot_remapped").add(1);
    }
    Ok(db)
}

fn num(flag: &str, text: &str) -> Result<usize, String> {
    text.parse()
        .map_err(|_| format!("{flag} expects a number, got {text:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.repl_log.is_some() && args.follow.is_some() {
        eprintln!("error: --repl-log (primary) conflicts with --follow (replica)");
        return ExitCode::from(2);
    }
    if args.repl_log.is_some() && args.snapshots.is_empty() {
        eprintln!("error: --repl-log requires the default database to come from --snapshot");
        return ExitCode::from(2);
    }

    let mut interner = Interner::new();
    let mut dbs: BTreeMap<String, Database> = BTreeMap::new();
    let mut default_db = String::new();

    // A primary opens (or initializes) its replication log against the
    // base snapshot first: deltas already in the log (accepted before a
    // restart) are recovered into the served database, and the log's
    // chain becomes the served head history.
    let mut primary_log: Option<wdpt_store::ReplLog> = None;
    if let Some(dir) = &args.repl_log {
        let (name, path) = args.snapshots[0].clone();
        let _g = span!("serve.repl_log_open");
        let base_bytes = match std::fs::read(Path::new(&path)) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: snapshot {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let log = match wdpt_store::ReplLog::open_or_init(Path::new(dir), &base_bytes) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: replication log {dir}: {e}");
                return ExitCode::from(2);
            }
        };
        let deltas: Result<Vec<Vec<u8>>, _> = log
            .entries()
            .iter()
            .map(|e| std::fs::read(Path::new(dir).join(&e.file)))
            .collect();
        let loaded = deltas
            .map_err(wdpt_store::StoreError::from)
            .and_then(|deltas| fold_chain(&mut interner, &base_bytes, &deltas));
        match loaded {
            Ok(db) => {
                eprintln!(
                    "primary {name:?}: {} facts from {path} + {} logged delta(s), head {}",
                    db.size(),
                    log.entries().len(),
                    wdpt_store::head_hex(log.head()),
                );
                default_db = name.clone();
                dbs.insert(name, db);
            }
            Err(e) => {
                eprintln!("error: replaying replication log {dir}: {e}");
                return ExitCode::from(2);
            }
        }
        primary_log = Some(log);
    }

    // Snapshots load first (so the usual single-snapshot start adopts the
    // snapshot's interner wholesale). A corrupt snapshot is not fatal when
    // a same-name --db can fall back.
    let mut failed_snapshots: Vec<String> = Vec::new();
    for (name, path) in &args.snapshots {
        if dbs.contains_key(name) {
            continue; // already loaded through the replication log
        }
        let _g = span!("serve.snapshot_load");
        let t0 = Instant::now();
        let loaded = std::fs::read(Path::new(path))
            .map_err(wdpt_store::StoreError::from)
            .and_then(|bytes| fold_chain(&mut interner, &bytes, &[]));
        match loaded {
            Ok(db) => {
                counter!("serve.store.snapshot_loaded").add(1);
                eprintln!(
                    "loaded snapshot {name:?}: {} facts from {path} in {:.1}ms",
                    db.size(),
                    t0.elapsed().as_secs_f64() * 1e3
                );
                if default_db.is_empty() {
                    default_db = name.clone();
                }
                dbs.insert(name.clone(), db);
            }
            Err(e) => {
                counter!("serve.store.snapshot_error").add(1);
                let has_fallback = args.dbs.iter().any(|(n, _)| n == name);
                if has_fallback {
                    eprintln!("warning: snapshot {path}: {e}; falling back to --db {name:?}");
                    failed_snapshots.push(name.clone());
                } else {
                    eprintln!("error: snapshot {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    for (name, path) in &args.dbs {
        if dbs.contains_key(name) {
            eprintln!("skipping --db {name:?}: already loaded from snapshot");
            continue;
        }
        if failed_snapshots.iter().any(|n| n == name) {
            counter!("serve.store.text_fallback").add(1);
        }
        if wdpt_serve::looks_like_snapshot(Path::new(path)) {
            eprintln!("error: {path} is a wdpt-store snapshot; pass it via --snapshot");
            return ExitCode::from(2);
        }
        match load_database(&mut interner, Path::new(path), args.load_threads) {
            Ok(db) => {
                eprintln!("loaded {name:?}: {} facts from {path}", db.size());
                if default_db.is_empty() {
                    default_db = name.clone();
                }
                dbs.insert(name.clone(), db);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if dbs.is_empty() {
        let (bands, records_per_band) = args.gen_music.unwrap_or((100, 4));
        let params = MusicParams {
            bands,
            records_per_band,
            ..MusicParams::default()
        };
        let ts = wdpt_gen::music_triples(&mut interner, params);
        eprintln!(
            "generated \"music\": {} triples ({bands} bands x {records_per_band} records)",
            ts.len()
        );
        dbs.insert("music".to_string(), ts.into_database());
        default_db = "music".to_string();
    }

    if let Some(path) = &args.save_snapshot {
        let db = dbs.get(&default_db).expect("default database exists");
        match wdpt_store::save_snapshot(Path::new(path), &interner, db) {
            Ok(bytes) => {
                counter!("serve.store.snapshot_saved").add(1);
                eprintln!("saved snapshot of {default_db:?} to {path} ({bytes} bytes)");
            }
            Err(e) => {
                eprintln!("error: cannot save snapshot {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let listener = match TcpListener::bind(&args.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.addr);
            return ExitCode::from(2);
        }
    };
    let local = listener.local_addr().map(|a| a.to_string());
    let state = ServeState::new(args.cfg, interner, dbs, default_db);

    if let Some(log) = primary_log {
        state.set_primary(wdpt_repl::Primary::new(log));
    }
    let follower = args.follow.clone().map(|addr| {
        let state = std::sync::Arc::clone(&state);
        std::thread::spawn(move || {
            let apply = wdpt_serve::FollowerApply::new(
                std::sync::Arc::clone(&state),
                state.default_db().to_string(),
            );
            let mut cfg = wdpt_repl::FollowerConfig::new(addr);
            cfg.jitter_seed = std::process::id() as u64;
            wdpt_repl::run_follower(&cfg, &apply, state.shutdown_flag());
        })
    });

    let mode = if state.primary().is_some() {
        ", replication primary"
    } else if follower.is_some() {
        ", follower"
    } else {
        ""
    };
    // Line-buffered so harnesses waiting for readiness see it immediately.
    println!(
        "wdpt-serve listening on {} ({} concurrent evaluations, queue {}{mode})",
        local.as_deref().unwrap_or(&args.addr),
        state.cfg.workers,
        state.cfg.queue_capacity,
    );
    let served = serve(listener, state);
    if let Some(h) = follower {
        let _ = h.join();
    }
    match served {
        Ok(()) => {
            println!("wdpt-serve: drained, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
