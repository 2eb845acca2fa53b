//! `wdpt-serve` — run the concurrent WDPT query service.
//!
//! ```text
//! wdpt-serve --db music.nt --threads 8
//! wdpt-serve --snapshot music.snap --addr 127.0.0.1:7878
//! wdpt-serve --follow 127.0.0.1:7878 --addr 127.0.0.1:7879
//! ```
//!
//! A server serves only the data it is given: datasets come from
//! `--snapshot [name=]PATH` and `--db [name=]PATH` (repeatable; the first
//! snapshot, else the first text, is the default). Texts are loaded into
//! the dictionary the server starts with; every snapshot then enters
//! through the one install a `reload` request takes, so the server keeps
//! its base from the start. A `--follow` replica given neither starts from
//! an empty `music` database, which its primary's first frame fills; a
//! server given none of the three refuses to start. The protocol is
//! newline-delimited JSON; see `DESIGN.md` § "The query service".

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use wdpt_model::{Database, Interner};
use wdpt_serve::{serve, ServeConfig, ServeState};
use wdpt_sparql::parser::MAX_TRIPLE_PATTERNS;

const USAGE: &str = "\
wdpt-serve: serve SPARQL {AND, OPT} queries over TCP (newline-delimited JSON)

USAGE:
    wdpt-serve [OPTIONS]

OPTIONS:
    --addr HOST:PORT          listen address [default: 127.0.0.1:7878]
    --db [NAME=]PATH          load a dataset (N-Triples or facts format);
                              repeatable, the first one is the default
                              database when no --snapshot is given
    --snapshot [NAME=]PATH    serve a wdpt-store binary snapshot, installed
                              as a reload installs one; repeatable, the
                              first one is the default database. A --db of
                              the same name stays served when the snapshot
                              fails to load
    --threads N               concurrent evaluations [default: 4]
    --eval-threads N          threads inside one evaluation [default: 2]
    --queue N                 requests that may wait for one, beyond which
                              a request is answered overloaded
                              [default: 64]
    --max-rows N              default cap on streamed rows [default: 1000]
    --max-query-atoms N       reject queries with more triple patterns;
                              at most 1024, as many as the parser reads
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
                              default database (conflicts with --repl-log);
                              with no --db or --snapshot it is an empty
                              database named music until the first frame
    --help                    print this help
";

struct Args {
    addr: String,
    dbs: Vec<(String, String)>,
    snapshots: Vec<(String, String)>,
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

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        dbs: Vec::new(),
        snapshots: Vec::new(),
        repl_log: None,
        follow: None,
        cfg: ServeConfig::default(),
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--addr" => args.addr = value("--addr")?,
            "--db" => args.dbs.push(name_and_path(value("--db")?)),
            "--snapshot" => args.snapshots.push(name_and_path(value("--snapshot")?)),
            "--threads" => args.cfg.workers = num(&flag, &value("--threads")?)?,
            "--eval-threads" => args.cfg.eval_threads = num(&flag, &value("--eval-threads")?)?,
            "--queue" => args.cfg.queue_capacity = num(&flag, &value("--queue")?)?,
            "--max-rows" => args.cfg.max_rows = num(&flag, &value("--max-rows")?)?,
            "--max-query-atoms" => {
                args.cfg.max_query_atoms = num(&flag, &value("--max-query-atoms")?)?;
                if args.cfg.max_query_atoms > MAX_TRIPLE_PATTERNS {
                    return Err(format!(
                        "--max-query-atoms is at most {MAX_TRIPLE_PATTERNS}, the triple patterns the parser reads"
                    ));
                }
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

/// True iff the bytes at `path` start with the snapshot magic — a cheap
/// pre-check so a `--db` pointed at a snapshot gives a helpful error.
fn is_snapshot(path: &Path) -> bool {
    use std::io::Read;
    let mut head = [0u8; 8];
    std::fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut head))
        .map(|()| head == wdpt_store::MAGIC)
        .unwrap_or(false)
}

fn num(flag: &str, text: &str) -> Result<usize, String> {
    text.parse()
        .map_err(|_| format!("{flag} expects a number, got {text:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
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
    if args.snapshots.is_empty() && args.dbs.is_empty() && args.follow.is_none() {
        eprintln!("error: no data to serve: give --snapshot, --db or --follow");
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }

    // Texts load into the dictionary the state starts with.
    let mut interner = Interner::new();
    let mut dbs: BTreeMap<String, Database> = BTreeMap::new();
    for (name, path) in &args.dbs {
        if is_snapshot(Path::new(path)) {
            eprintln!("error: {path} is a wdpt-store snapshot; pass it via --snapshot");
            return ExitCode::from(2);
        }
        let opts = wdpt_store::LoadOptions::default();
        match wdpt_store::bulk_load_path(&mut interner, Path::new(path), opts) {
            Ok((db, _)) => {
                eprintln!("loaded {name:?}: {} facts from {path}", db.size());
                dbs.insert(name.clone(), db);
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    // A follower given no data serves an empty database, with no chain,
    // under the name it replicates into until its first frame installs.
    let default_db = match args.snapshots.first().or(args.dbs.first()) {
        Some((name, _)) => name.clone(),
        None => {
            dbs.insert("music".to_string(), Database::new());
            "music".to_string()
        }
    };
    let state = ServeState::new(args.cfg, interner, dbs, default_db);

    // A primary opens (or initializes) its replication log against the
    // base snapshot first, and installs the base with the deltas already
    // in the log (accepted before a restart): the installed chain, and so
    // the head it serves, is the log's.
    let mut primary_log: Option<wdpt_store::ReplLog> = None;
    if let Some(dir) = &args.repl_log {
        let (name, path) = &args.snapshots[0];
        let log = std::fs::read(path)
            .map_err(wdpt_store::StoreError::from)
            .and_then(|base| wdpt_store::ReplLog::open_or_init(Path::new(dir), &base));
        let log = match log {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: replication log {dir} over {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let deltas: Vec<PathBuf> = log
            .entries()
            .iter()
            .map(|e| Path::new(dir).join(&e.file))
            .collect();
        let installed = state
            .load_stage(Path::new(path), &deltas)
            .and_then(|loaded| {
                if loaded.chain != log.chain() {
                    return Err("the files do not chain as the log records".to_string());
                }
                state.install_stage(name, loaded)
            });
        match installed {
            Ok(installed) => eprintln!(
                "primary {name:?}: {} facts from {path} + {} logged delta(s), head {}",
                installed.tuples,
                installed.deltas,
                wdpt_store::head_hex(log.head()),
            ),
            Err(e) => {
                eprintln!("error: replaying replication log {dir}: {e}");
                return ExitCode::from(2);
            }
        }
        primary_log = Some(log);
    }

    // Every other snapshot is reloaded. One that fails leaves a same-name
    // --db served.
    let reloaded = usize::from(primary_log.is_some());
    for (name, path) in &args.snapshots[reloaded..] {
        let t0 = Instant::now();
        match state.reload(name, Path::new(path), &[] as &[&Path]) {
            Ok(installed) => eprintln!(
                "loaded snapshot {name:?}: {} facts from {path} ({}) in {:.1}ms",
                installed.tuples,
                installed.base.as_str(),
                t0.elapsed().as_secs_f64() * 1e3
            ),
            Err(e) if args.dbs.iter().any(|(n, _)| n == name) => {
                eprintln!("warning: snapshot {e}; falling back to --db {name:?}");
            }
            Err(e) => {
                eprintln!("error: snapshot {e}");
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
            // A reader that has gone away makes this line undeliverable, not
            // the shutdown unclean.
            let _ = writeln!(std::io::stdout(), "wdpt-serve: drained, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<Args, String> {
        parse_args(flags.iter().map(|f| f.to_string()))
    }

    #[test]
    fn the_atom_cap_is_at_most_what_the_parser_reads() {
        let cap = MAX_TRIPLE_PATTERNS.to_string();
        let args = parse(&["--max-query-atoms", &cap]).unwrap();
        assert_eq!(args.cfg.max_query_atoms, MAX_TRIPLE_PATTERNS);
        let past = (MAX_TRIPLE_PATTERNS + 1).to_string();
        let why = parse(&["--max-query-atoms", &past]).err().unwrap();
        assert!(why.contains("at most 1024"), "{why}");
    }
}
