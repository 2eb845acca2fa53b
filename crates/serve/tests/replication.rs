//! Replication tests: a primary and follower wired together in-process
//! over real sockets, plus the deterministic reload-vs-shutdown drain
//! race that the two-stage reload (`load_stage` / `install_stage`) makes
//! testable.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use wdpt_model::{Database, Interner};
use wdpt_obs::{read_json_line, write_json_line, Json};
use wdpt_serve::{serve, FollowerApply, ServeConfig, ServeState};

const Q: &str = "SELECT ?x ?y WHERE { (?x, rec_by, ?y) }";

struct Server {
    addr: SocketAddr,
    state: Arc<ServeState>,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start(state: Arc<ServeState>) -> Server {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let st = Arc::clone(&state);
    let handle = std::thread::spawn(move || serve(listener, st));
    Server {
        addr,
        state,
        handle,
    }
}

impl Server {
    fn shutdown_and_join(self) {
        self.state.begin_shutdown();
        self.handle
            .join()
            .expect("server thread must not panic")
            .expect("serve() must drain cleanly");
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: BufWriter::new(stream),
        }
    }

    fn round_trip(&mut self, req: &Json) -> (Json, Vec<Json>) {
        write_json_line(&mut self.writer, req).unwrap();
        self.writer.flush().unwrap();
        let mut rows = Vec::new();
        loop {
            let line = read_json_line(&mut self.reader)
                .expect("read response")
                .expect("connection closed mid-response");
            if line.get("kind").and_then(Json::as_str) == Some("row") {
                rows.push(line);
                continue;
            }
            return (line, rows);
        }
    }
}

fn status_of(line: &Json) -> &str {
    line.get("status").and_then(Json::as_str).unwrap_or("?")
}

fn subjects(rows: &[Json]) -> Vec<String> {
    let mut v: Vec<String> = rows
        .iter()
        .filter_map(|r| r.get("bindings")?.get("x")?.as_str().map(str::to_string))
        .collect();
    v.sort();
    v
}

/// Builds a three-link chain on disk: `base.snap` (one `rec_by` tuple)
/// plus two deltas each adding one more. Returns the dir and the delta
/// paths in chain order.
fn build_chain(tag: &str) -> (PathBuf, PathBuf, Vec<PathBuf>) {
    let dir = std::env::temp_dir().join(format!(
        "wdpt-repl-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let mut i = Interner::new();
    let mut ts = wdpt_sparql::TripleStore::new();
    ts.insert_str(&mut i, "swim", "rec_by", "caribou");
    let base_path = dir.join("base.snap");
    wdpt_store::save_snapshot(&base_path, &i, ts.database()).unwrap();

    let mut tip_bytes = std::fs::read(&base_path).unwrap();
    let mut deltas = Vec::new();
    for (n, subject) in ["our_love", "suddenly"].iter().enumerate() {
        let old_i = i.clone();
        let old_db = ts.database().clone();
        ts.insert_str(&mut i, subject, "rec_by", "caribou");
        let bytes = wdpt_store::delta_to_vec(
            wdpt_store::content_hash(&tip_bytes),
            &old_i,
            &old_db,
            &i,
            ts.database(),
        )
        .unwrap();
        let path = dir.join(format!("d{}.delta", n + 1));
        wdpt_store::save_delta(&path, &bytes).unwrap();
        tip_bytes = bytes;
        deltas.push(path);
    }
    (dir, base_path, deltas)
}

/// A primary ServeState whose default db is the chain base and whose
/// replication log lives in `log_dir`.
fn primary_state(base_path: &Path, log_dir: &Path) -> Arc<ServeState> {
    let base_bytes = std::fs::read(base_path).unwrap();
    let (interner, db) = wdpt_store::decode_snapshot(&base_bytes).unwrap();
    let mut dbs: BTreeMap<String, Database> = BTreeMap::new();
    dbs.insert("music".to_string(), db);
    let state = ServeState::new(ServeConfig::default(), interner, dbs, "music");
    let log = wdpt_store::ReplLog::open_or_init(log_dir, &base_bytes).unwrap();
    state.set_primary(wdpt_repl::Primary::new(log));
    state
}

/// A follower ServeState that starts empty and is populated entirely by
/// the replication stream.
fn follower_state() -> Arc<ServeState> {
    let mut dbs: BTreeMap<String, Database> = BTreeMap::new();
    dbs.insert("music".to_string(), Database::default());
    ServeState::new(ServeConfig::default(), Interner::new(), dbs, "music")
}

fn spawn_follower(
    state: &Arc<ServeState>,
    primary_addr: SocketAddr,
    stop: &Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    let state = Arc::clone(state);
    let stop = Arc::clone(stop);
    std::thread::spawn(move || {
        let apply = FollowerApply::new(Arc::clone(&state), "music".to_string());
        let mut cfg = wdpt_repl::FollowerConfig::new(primary_addr.to_string());
        cfg.read_timeout = Duration::from_millis(100);
        cfg.backoff_base = Duration::from_millis(50);
        wdpt_repl::run_follower(&cfg, &apply, &stop);
    })
}

/// Polls until the state's chain head equals `head` (or panics after the
/// deadline) — follower applies are asynchronous.
fn await_head(state: &ServeState, head: u64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    assert!(
        state.repl_head().wait_contains(head, deadline),
        "{what}: follower never reached head {}",
        wdpt_store::head_hex(head)
    );
}

/// Wire-level check of the subscription stream: a raw client (no
/// follower machinery) sees the bootstrap handshake and then each
/// published delta as a broadcast frame.
#[test]
fn raw_subscription_receives_handshake_and_broadcast() {
    let (dir, base_path, deltas) = build_chain("probe");
    let log_dir = dir.join("repl");
    let primary = start(primary_state(&base_path, &log_dir));
    let base_head = primary.state.current_head().unwrap();

    let mut sub = Client::connect(primary.addr);
    write_json_line(
        &mut sub.writer,
        &Json::obj([("op", Json::str("subscribe"))]),
    )
    .unwrap();
    sub.writer.flush().unwrap();
    // Fresh subscriber (no base): bootstrap mode, snapshot frame first.
    let first = read_json_line(&mut sub.reader).unwrap().unwrap();
    assert_eq!(first.get("kind").and_then(Json::as_str), Some("subscribed"));
    assert_eq!(first.get("mode").and_then(Json::as_str), Some("bootstrap"));
    assert_eq!(
        first.get("head").and_then(Json::as_str),
        Some(wdpt_store::head_hex(base_head).as_str())
    );
    let snap = read_json_line(&mut sub.reader).unwrap().unwrap();
    assert_eq!(snap.get("status").and_then(Json::as_str), Some("snapshot"));

    let mut pc = Client::connect(primary.addr);
    let (rl, _) = pc.round_trip(&Json::obj([
        ("op", Json::str("reload")),
        ("id", Json::str("r1")),
        ("snapshot", Json::str(base_path.to_str().unwrap())),
        (
            "deltas",
            Json::Arr(vec![Json::str(deltas[0].to_str().unwrap())]),
        ),
    ]));
    assert_eq!(status_of(&rl), "ok", "got {rl}");
    let delta = read_json_line(&mut sub.reader).unwrap().unwrap();
    assert_eq!(delta.get("status").and_then(Json::as_str), Some("delta"));
    assert_eq!(
        delta.get("base").and_then(Json::as_str),
        Some(wdpt_store::head_hex(base_head).as_str()),
        "broadcast delta must chain onto the base"
    );

    primary.shutdown_and_join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn follower_bootstraps_streams_and_serves_read_your_writes() {
    let (dir, base_path, deltas) = build_chain("stream");
    let log_dir = dir.join("repl");

    let primary = start(primary_state(&base_path, &log_dir));
    let follower = start(follower_state());
    let stop = Arc::new(AtomicBool::new(false));
    let follower_thread = spawn_follower(&follower.state, primary.addr, &stop);

    // Bootstrap: the follower starts empty and must reach the primary's
    // base head without any reload being issued.
    let base_head = primary.state.current_head().expect("primary has a head");
    await_head(&follower.state, base_head, "bootstrap");
    let mut fc = Client::connect(follower.addr);
    let (ok, rows) = fc.round_trip(&Json::obj([
        ("op", Json::str("query")),
        ("id", Json::str("boot")),
        ("query", Json::str(Q)),
    ]));
    assert_eq!(status_of(&ok), "ok", "got {ok}");
    assert_eq!(subjects(&rows), ["swim"]);

    // Publish the first delta on the primary (a reload under live
    // traffic); its ack carries the new chain head.
    let mut pc = Client::connect(primary.addr);
    let (rl, _) = pc.round_trip(&Json::obj([
        ("op", Json::str("reload")),
        ("id", Json::str("r1")),
        ("snapshot", Json::str(base_path.to_str().unwrap())),
        (
            "deltas",
            Json::Arr(vec![Json::str(deltas[0].to_str().unwrap())]),
        ),
    ]));
    assert_eq!(status_of(&rl), "ok", "got {rl}");
    let head1 = rl
        .get("head")
        .and_then(Json::as_str)
        .and_then(wdpt_store::parse_head_hex)
        .expect("reload ack must carry the chain head");

    // Read-your-writes: quote the acked head on the *follower*; the
    // answer must include the delta's tuple once admitted.
    let (ok, rows) = fc.round_trip(&Json::obj([
        ("op", Json::str("query")),
        ("id", Json::str("ryw")),
        ("query", Json::str(Q)),
        ("min_head", Json::str(wdpt_store::head_hex(head1))),
        ("deadline_ms", Json::int(8_000)),
    ]));
    assert_eq!(status_of(&ok), "ok", "got {ok}");
    assert_eq!(subjects(&rows), ["our_love", "swim"]);
    assert_eq!(
        ok.get("head").and_then(Json::as_str),
        Some(wdpt_store::head_hex(head1).as_str()),
        "ok line must be stamped with the serving head"
    );

    // A head nobody will ever publish: typed stale_replica, within the
    // deadline, connection intact.
    let (stale, rows) = fc.round_trip(&Json::obj([
        ("op", Json::str("query")),
        ("id", Json::str("ghost")),
        ("query", Json::str(Q)),
        ("min_head", Json::str("deadbeefdeadbeef")),
        ("deadline_ms", Json::int(200)),
    ]));
    assert_eq!(status_of(&stale), "error", "got {stale}");
    assert_eq!(
        stale.get("kind").and_then(Json::as_str),
        Some("stale_replica")
    );
    assert!(rows.is_empty());

    // Catch-up after restart: stop the follower loop, publish the second
    // delta while it is disconnected, then restart. `spawn_follower`
    // builds a fresh `FollowerApply` (pristine=None), so like a real
    // process restart this re-bootstraps from the primary's base and
    // replays the full log — including d1, which the follower's history
    // already knows but its freshly installed chain does not.
    stop.store(true, Ordering::SeqCst);
    follower_thread.join().unwrap();
    let (rl2, _) = pc.round_trip(&Json::obj([
        ("op", Json::str("reload")),
        ("id", Json::str("r2")),
        ("snapshot", Json::str(base_path.to_str().unwrap())),
        (
            "deltas",
            Json::Arr(
                deltas
                    .iter()
                    .map(|d| Json::str(d.to_str().unwrap()))
                    .collect(),
            ),
        ),
    ]));
    assert_eq!(status_of(&rl2), "ok", "got {rl2}");
    let head2 = rl2
        .get("head")
        .and_then(Json::as_str)
        .and_then(wdpt_store::parse_head_hex)
        .unwrap();
    stop.store(false, Ordering::SeqCst);
    let follower_thread = spawn_follower(&follower.state, primary.addr, &stop);
    await_head(&follower.state, head2, "suffix catch-up");
    let (ok, rows) = fc.round_trip(&Json::obj([
        ("op", Json::str("query")),
        ("id", Json::str("caught-up")),
        ("query", Json::str(Q)),
        ("min_head", Json::str(wdpt_store::head_hex(head2))),
    ]));
    assert_eq!(status_of(&ok), "ok", "got {ok}");
    assert_eq!(subjects(&rows), ["our_love", "suddenly", "swim"]);
    // The whole chain is in the follower's history: base, d1, d2.
    assert_eq!(follower.state.repl_head().chain_len(), 3);

    stop.store(true, Ordering::SeqCst);
    follower_thread.join().unwrap();
    follower.shutdown_and_join();
    primary.shutdown_and_join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The primary's replication log survives a restart: reopening the same
/// log directory replays the recorded deltas, so a new primary process
/// resumes at the old chain head.
/// The request line is parsed once and dispatched on the decoded request,
/// not on how its text spells the op: an escaped `subscribe` inverts the
/// connection like any other, and a malformed one is an ordinary
/// `bad_request` on a connection that goes on answering.
#[test]
fn an_escaped_subscribe_op_still_inverts_the_connection() {
    let (dir, base_path, _) = build_chain("escaped");
    let primary = start(primary_state(&base_path, &dir.join("repl")));

    let mut sub = Client::connect(primary.addr);
    writeln!(sub.writer, r#"{{"op":"\u0073ubscribe","id":"s1"}}"#).unwrap();
    sub.writer.flush().unwrap();
    let first = read_json_line(&mut sub.reader).unwrap().unwrap();
    assert_eq!(
        first.get("kind").and_then(Json::as_str),
        Some("subscribed"),
        "got {first}"
    );
    assert_eq!(first.get("id").and_then(Json::as_str), Some("s1"));
    let snap = read_json_line(&mut sub.reader).unwrap().unwrap();
    assert_eq!(snap.get("status").and_then(Json::as_str), Some("snapshot"));

    let mut c = Client::connect(primary.addr);
    let (bad, _) = c.round_trip(&Json::obj([
        ("op", Json::str("subscribe")),
        ("id", Json::str("s2")),
        ("base", Json::str("not a head")),
    ]));
    assert_eq!(status_of(&bad), "error", "got {bad}");
    assert_eq!(bad.get("kind").and_then(Json::as_str), Some("bad_request"));
    assert_eq!(bad.get("id").and_then(Json::as_str), Some("s2"));
    let (pong, _) = c.round_trip(&Json::obj([("op", Json::str("ping"))]));
    assert_eq!(pong.get("kind").and_then(Json::as_str), Some("pong"));

    primary.shutdown_and_join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A reload that fails inside the chain says which file failed.
#[test]
fn a_failed_reload_names_the_delta_that_failed() {
    let (dir, base_path, deltas) = build_chain("named");
    let mut bytes = std::fs::read(&deltas[1]).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01; // the end section's checksum
    std::fs::write(&deltas[1], bytes).unwrap();

    let server = start(primary_state(&base_path, &dir.join("repl")));
    let (symbols, head) = (server.state.interner_len(), server.state.current_head());
    let mut c = Client::connect(server.addr);
    let paths = deltas.iter().map(|d| Json::str(d.to_str().unwrap()));
    let (err, _) = c.round_trip(&Json::obj([
        ("op", Json::str("reload")),
        ("id", Json::str("r1")),
        ("snapshot", Json::str(base_path.to_str().unwrap())),
        ("deltas", Json::Arr(paths.collect())),
    ]));
    assert_eq!(status_of(&err), "error", "got {err}");
    assert_eq!(
        err.get("kind").and_then(Json::as_str),
        Some("reload_failed")
    );
    let message = err.get("message").and_then(Json::as_str).unwrap();
    assert!(
        message.contains("d2.delta"),
        "the culprit is not named: {message}"
    );
    assert!(
        !message.contains("base.snap"),
        "the base is blamed: {message}"
    );
    assert!(
        !message.contains("d1.delta"),
        "the good delta is blamed: {message}"
    );
    assert!(message.contains("checksum"), "got: {message}");

    // Nothing of the half-applied chain stuck.
    assert_eq!(server.state.interner_len(), symbols);
    assert_eq!(server.state.current_head(), head);
    let (ok, rows) = c.round_trip(&Json::obj([
        ("op", Json::str("query")),
        ("id", Json::str("q1")),
        ("query", Json::str(Q)),
    ]));
    assert_eq!(status_of(&ok), "ok", "got {ok}");
    assert_eq!(subjects(&rows), ["swim"]);

    server.shutdown_and_join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A primary on another format version: its frames are refused by their
/// version field at apply, typed, and the follower goes on serving the head
/// it has (DESIGN.md §11, failure matrix).
#[test]
fn frames_of_another_format_version_are_refused_at_apply() {
    use wdpt_repl::ReplApply;
    let (dir, base_path, deltas) = build_chain("versions");
    let base = std::fs::read(&base_path).unwrap();
    let delta = std::fs::read(&deltas[0]).unwrap();
    let with_version = |bytes: &[u8], version: u32| {
        let mut other = bytes.to_vec();
        other[8..12].copy_from_slice(&version.to_le_bytes());
        other
    };
    let (base_head, delta_head) = (
        wdpt_store::content_hash(&base),
        wdpt_store::content_hash(&delta),
    );

    let state = follower_state();
    let apply = FollowerApply::new(Arc::clone(&state), "music");
    let err = apply
        .apply_snapshot(base_head, &with_version(&base, 2))
        .unwrap_err();
    assert!(err.contains("unsupported format version 2"), "got: {err}");
    assert_eq!(state.current_head(), None);

    apply.apply_snapshot(base_head, &base).unwrap();
    let symbols = state.interner_len();
    let err = apply
        .apply_delta(delta_head, base_head, &with_version(&delta, 1))
        .unwrap_err();
    assert!(err.contains("unsupported format version 1"), "got: {err}");
    assert_eq!(state.current_head(), Some(base_head));
    assert_eq!(state.interner_len(), symbols);
    // The pristine pair was put back: today's frame still applies.
    apply.apply_delta(delta_head, base_head, &delta).unwrap();
    assert_eq!(state.current_head(), Some(delta_head));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn primary_log_replays_after_restart() {
    let (dir, base_path, deltas) = build_chain("replay");
    let log_dir = dir.join("repl");

    let primary = start(primary_state(&base_path, &log_dir));
    let mut pc = Client::connect(primary.addr);
    let (rl, _) = pc.round_trip(&Json::obj([
        ("op", Json::str("reload")),
        ("id", Json::str("r1")),
        ("snapshot", Json::str(base_path.to_str().unwrap())),
        (
            "deltas",
            Json::Arr(
                deltas
                    .iter()
                    .map(|d| Json::str(d.to_str().unwrap()))
                    .collect(),
            ),
        ),
    ]));
    assert_eq!(status_of(&rl), "ok", "got {rl}");
    let head = rl
        .get("head")
        .and_then(Json::as_str)
        .and_then(wdpt_store::parse_head_hex)
        .unwrap();
    primary.shutdown_and_join();

    // "Restart": a fresh state over the same log dir. The log already
    // holds both deltas, so the new primary's head matches without any
    // reload being issued.
    let base_bytes = std::fs::read(&base_path).unwrap();
    let log = wdpt_store::ReplLog::open_or_init(&log_dir, &base_bytes).unwrap();
    assert_eq!(log.head(), head, "log must resume at the published head");
    assert_eq!(log.entries().len(), 2);

    std::fs::remove_dir_all(&dir).ok();
}

/// The reload/shutdown drain race, made deterministic by the two-stage
/// reload: thread A finishes `load_stage`, *then* thread B completes
/// `begin_shutdown`, then A attempts `install_stage`. The swap must be
/// refused with a typed error before touching the interner — never a
/// half-merged symbol table.
#[test]
fn reload_racing_shutdown_fails_typed_with_interner_intact() {
    let (dir, base_path, deltas) = build_chain("race");

    let state = follower_state();
    let symbols_before = state.interner_len();

    // Interleaving A: shutdown lands strictly between load and install.
    let loaded = state
        .load_stage(&base_path, &deltas)
        .expect("load_stage is lock-free and must succeed");
    let after_load = Arc::new(Barrier::new(2));
    let after_shutdown = Arc::new(Barrier::new(2));
    let shutter = {
        let state = Arc::clone(&state);
        let after_load = Arc::clone(&after_load);
        let after_shutdown = Arc::clone(&after_shutdown);
        std::thread::spawn(move || {
            after_load.wait();
            state.begin_shutdown();
            after_shutdown.wait();
        })
    };
    after_load.wait();
    after_shutdown.wait();
    let err = state
        .install_stage("music", loaded)
        .expect_err("a swap after shutdown began must be refused");
    assert!(
        err.contains("shutting down"),
        "error must be typed as a shutdown refusal, got {err:?}"
    );
    assert_eq!(
        state.interner_len(),
        symbols_before,
        "a refused swap must leave the interner untouched"
    );
    shutter.join().unwrap();

    // Interleaving B: the install completes first; shutdown then drains a
    // fully-swapped state. The merge is all-or-nothing either way.
    let state2 = follower_state();
    let before2 = state2.interner_len();
    let loaded2 = state2.load_stage(&base_path, &deltas).unwrap();
    let (tuples, symbols) = state2
        .install_stage("music", loaded2)
        .expect("install before shutdown must succeed");
    assert_eq!(tuples, 3);
    assert!(symbols > 0);
    assert!(state2.interner_len() > before2);
    state2.begin_shutdown();
    assert_eq!(state2.repl_head().chain_len(), 3);

    std::fs::remove_dir_all(&dir).ok();
}
