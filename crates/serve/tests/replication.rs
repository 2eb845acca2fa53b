//! Replication tests: a primary and follower wired together in-process
//! over real sockets, plus the deterministic reload-vs-shutdown drain
//! race that the two-stage reload (`load_stage` / `install_stage`) makes
//! testable.
//!
//! The tests run one at a time ([`serial`]): the `repl.*` metrics are
//! process-wide, and one test reads their exact changes.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use wdpt_model::{Database, Interner};
use wdpt_obs::{delta_scope, read_json_line, write_json_line, Json};
use wdpt_serve::{serve, FollowerApply, ServeConfig, ServeState};

const Q: &str = "SELECT ?x ?y WHERE { (?x, rec_by, ?y) }";

/// Holds the other tests of this file off: each starts primaries or
/// followers, and their `repl.*` metrics are process-wide.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

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
        self.send(req);
        self.response()
    }

    fn send(&mut self, req: &Json) {
        write_json_line(&mut self.writer, req).unwrap();
        self.writer.flush().unwrap();
    }

    /// The lines answering one request: its terminal line and its rows.
    fn response(&mut self) -> (Json, Vec<Json>) {
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

/// A primary ServeState whose default db is the chain base, installed by
/// a reload as `wdpt-serve --snapshot` installs it, and whose replication
/// log lives in `log_dir`.
fn primary_state(base_path: &Path, log_dir: &Path) -> Arc<ServeState> {
    let base_bytes = std::fs::read(base_path).unwrap();
    let state = ServeState::new(
        ServeConfig::default(),
        Interner::new(),
        BTreeMap::new(),
        "music",
    );
    state.reload("music", base_path, &[] as &[&Path]).unwrap();
    let log = wdpt_store::ReplLog::open_or_init(log_dir, &base_bytes).unwrap();
    assert_eq!(state.chain("music"), log.chain());
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

/// Polls until `head` is on the chain served as `music` (or panics after
/// the deadline) — follower applies are asynchronous.
fn await_head(state: &ServeState, head: u64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !state.chain("music").contains(&head) {
        assert!(
            Instant::now() < deadline,
            "{what}: follower never reached head {}",
            wdpt_store::head_hex(head)
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The tip of the chain served as `music`.
fn music_head(state: &ServeState) -> Option<u64> {
    state.chain("music").last().copied()
}

/// Wire-level check of the subscription stream: a raw client (no
/// follower machinery) sees the bootstrap handshake and then each
/// published delta as a broadcast frame.
#[test]
fn raw_subscription_receives_handshake_and_broadcast() {
    let _serial = serial();
    let (dir, base_path, deltas) = build_chain("probe");
    let log_dir = dir.join("repl");
    let primary = start(primary_state(&base_path, &log_dir));
    let base_head = music_head(&primary.state).unwrap();

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

/// A follower bootstraps, serves read-your-writes, and catches up on the
/// suffix it missed while stopped. The run is one metric window, the
/// reader of the `repl.*` metrics (DESIGN.md §6): besides the bootstrap
/// and the catch-up it holds a duplicate frame and a delta the primary's
/// log refuses, and it pins each counter's exact change and each gauge's
/// final level.
#[test]
fn follower_bootstraps_streams_and_serves_read_your_writes() {
    let _serial = serial();
    let (dir, base_path, deltas) = build_chain("stream");
    let file_bytes = [&base_path, &deltas[0], &deltas[1]]
        .map(|p| std::fs::metadata(p).unwrap().len())
        .iter()
        .sum::<u64>();
    let ((), m) =
        delta_scope(|| follow_bootstrap_catch_up_and_duplicate(&dir, &base_path, &deltas));
    let counters = [
        ("repl.primary.subscribe_bootstrap", 1),
        ("repl.primary.subscribe_suffix", 1),
        ("repl.primary.broadcasts", 2),
        ("repl.primary.publish_rejected", 1),
        ("repl.follower.bootstraps", 1),
        ("repl.follower.snapshots_applied", 1),
        ("repl.follower.deltas_applied", 2),
        ("repl.follower.bytes_applied", file_bytes),
        ("repl.follower.duplicates_dropped", 1),
        ("repl.follower.reconnects", 1),
    ];
    for (name, change) in counters {
        assert_eq!(m.counter(name), change, "{name}");
    }
    let applies = m.histogram("repl.follower.apply_us").map(|h| h.count);
    assert_eq!(applies, Some(3), "one apply time per frame installed");
    for gauge in ["repl.primary.subscribers", "repl.follower.backlog_deltas"] {
        assert_eq!(m.gauge(gauge), 0, "{gauge}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn follow_bootstrap_catch_up_and_duplicate(dir: &Path, base_path: &Path, deltas: &[PathBuf]) {
    let log_dir = dir.join("repl");
    let primary = start(primary_state(base_path, &log_dir));
    let follower = start(follower_state());
    let stop = Arc::new(AtomicBool::new(false));
    let follower_thread = spawn_follower(&follower.state, primary.addr, &stop);

    // Bootstrap: the follower starts empty and must reach the primary's
    // base head without any reload being issued.
    let base_head = music_head(&primary.state).expect("primary has a head");
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
    // builds a fresh `FollowerApply` over the same state, which keeps the
    // chain it installed — base and tip — so it resubscribes from its head
    // and is sent the suffix it missed, d2. (A restarted process starts
    // from an empty state and bootstraps.)
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
    // The whole chain is the follower's: base, d1, d2.
    assert_eq!(follower.state.chain("music").len(), 3);

    stop.store(true, Ordering::SeqCst);
    follower_thread.join().unwrap();

    // A duplicate frame: a primary that replays d2, which the follower
    // holds, and hangs up. The follower drops the frame and reconnects;
    // the listener outlives the follower, so a second attempt waits for
    // frames until `stop` instead of failing.
    let fake = TcpListener::bind("127.0.0.1:0").unwrap();
    let reconnects = wdpt_obs::counter!("repl.follower.reconnects");
    let reconnected = reconnects.get() + 1;
    stop.store(false, Ordering::SeqCst);
    let follower_thread = spawn_follower(&follower.state, fake.local_addr().unwrap(), &stop);
    let (conn, _) = fake.accept().unwrap();
    let subscribe = read_json_line(&mut BufReader::new(conn.try_clone().unwrap()))
        .unwrap()
        .unwrap();
    let base = subscribe.get("base").and_then(Json::as_str);
    assert_eq!(base, Some(wdpt_store::head_hex(head2).as_str()));
    let mut replay = BufWriter::new(conn);
    let d2 = std::fs::read(&deltas[1]).unwrap();
    for frame in [
        wdpt_repl::frames::subscribed_line(None, head2, "suffix", 1),
        wdpt_repl::frames::delta_frame(head2, head1, &d2),
    ] {
        write_json_line(&mut replay, &frame).unwrap();
    }
    drop(replay.into_inner().unwrap());
    let deadline = Instant::now() + Duration::from_secs(10);
    while reconnects.get() < reconnected {
        assert!(Instant::now() < deadline, "the follower never reconnected");
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::SeqCst);
    follower_thread.join().unwrap();
    drop(fake);
    assert_eq!(follower.state.chain("music").len(), 3);

    // A delta the primary's log refuses: a reload of the replicated
    // database from another base installs, and its delta, which does not
    // extend the log, is not published.
    let other_base = dir.join("other.snap");
    let other_delta = dir.join("other.delta");
    let (mut i, mut ts) = (Interner::new(), wdpt_sparql::TripleStore::new());
    ts.insert_str(&mut i, "one_more_time", "rec_by", "daft_punk");
    wdpt_store::save_snapshot(&other_base, &i, ts.database()).unwrap();
    let (old_i, old_db) = (i.clone(), ts.database().clone());
    ts.insert_str(&mut i, "around_the_world", "rec_by", "daft_punk");
    let base_hash = wdpt_store::content_hash(&std::fs::read(&other_base).unwrap());
    let bytes = wdpt_store::delta_to_vec(base_hash, &old_i, &old_db, &i, ts.database()).unwrap();
    wdpt_store::save_delta(&other_delta, &bytes).unwrap();
    let (rl3, _) = pc.round_trip(&reload_request("music", &other_base, &[other_delta]));
    assert_eq!(status_of(&rl3), "ok", "got {rl3}");

    follower.shutdown_and_join();
    primary.shutdown_and_join();
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
    let _serial = serial();
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
    let _serial = serial();
    let (dir, base_path, deltas) = build_chain("named");
    let mut bytes = std::fs::read(&deltas[1]).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01; // the end section's checksum
    std::fs::write(&deltas[1], bytes).unwrap();

    let server = start(primary_state(&base_path, &dir.join("repl")));
    let (symbols, head) = (server.state.interner_len(), music_head(&server.state));
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
    assert_eq!(music_head(&server.state), head);
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
    let _serial = serial();
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
    assert_eq!(music_head(&state), None);

    apply.apply_snapshot(base_head, &base).unwrap();
    let symbols = state.interner_len();
    let err = apply
        .apply_delta(delta_head, base_head, &with_version(&delta, 1))
        .unwrap_err();
    assert!(err.contains("unsupported format version 1"), "got: {err}");
    assert_eq!(music_head(&state), Some(base_head));
    assert_eq!(state.interner_len(), symbols);
    // The refused frame left the tip as it was: today's frame applies.
    apply.apply_delta(delta_head, base_head, &delta).unwrap();
    assert_eq!(music_head(&state), Some(delta_head));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn primary_log_replays_after_restart() {
    let _serial = serial();
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
/// refused with a typed error before touching the interner or the kept
/// base — never a half-merged symbol table. Both kinds of load race: one
/// applying new symbols to the kept base, one decoding another base that
/// would replace it.
#[test]
fn reload_racing_shutdown_fails_typed_with_interner_intact() {
    let _serial = serial();
    let (dir, base_path, deltas) = build_chain("race");
    let other_path = dir.join("other.snap");
    {
        let mut i = Interner::new();
        let mut ts = wdpt_sparql::TripleStore::new();
        ts.insert_str(&mut i, "one_more_time", "rec_by", "daft_punk");
        wdpt_store::save_snapshot(&other_path, &i, ts.database()).unwrap();
    }

    let state = follower_state();
    state.reload("music", &base_path, &deltas[..1]).unwrap();
    let kept = state.chain("music");
    assert_eq!(kept.len(), 2, "a full reload keeps its base and chain");
    let symbols_before = state.interner_len();

    // Interleaving A: shutdown lands strictly between load and install.
    let no_deltas: &[PathBuf] = &[];
    let loads = [
        state.load_stage(&base_path, &deltas),
        state.load_stage(&other_path, no_deltas),
    ]
    .map(|loaded| loaded.expect("load_stage is lock-free and must succeed"));
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
    for loaded in loads {
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
        assert_eq!(
            state.chain("music"),
            kept,
            "a refused swap must leave the kept base and chain untouched"
        );
    }
    shutter.join().unwrap();

    // Interleaving B: the install completes first; shutdown then drains a
    // fully-swapped state. The merge is all-or-nothing either way.
    let state2 = follower_state();
    let before2 = state2.interner_len();
    let loaded2 = state2.load_stage(&base_path, &deltas).unwrap();
    let installed = state2
        .install_stage("music", loaded2)
        .expect("install before shutdown must succeed");
    assert_eq!((installed.tuples, installed.deltas), (3, 2));
    assert!(state2.interner_len() > before2);
    state2.begin_shutdown();
    assert_eq!(state2.chain("music").len(), 3);

    std::fs::remove_dir_all(&dir).ok();
}

/// A `reload` request of `db` as `base` plus `deltas`.
fn reload_request(db: &str, base: &Path, deltas: &[PathBuf]) -> Json {
    let deltas = deltas.iter().map(|d| Json::str(d.to_str().unwrap()));
    Json::obj([
        ("op", Json::str("reload")),
        ("db", Json::str(db)),
        ("snapshot", Json::str(base.to_str().unwrap())),
        ("deltas", Json::Arr(deltas.collect())),
    ])
}

/// A query of [`Q`] on `db`, demanding `min_head` if given, with a
/// deadline of `deadline_ms`.
fn query_request(db: &str, min_head: Option<u64>, deadline_ms: u64) -> Json {
    let mut pairs = vec![
        ("op", Json::str("query")),
        ("db", Json::str(db)),
        ("query", Json::str(Q)),
        ("deadline_ms", Json::int(deadline_ms)),
    ];
    if let Some(h) = min_head {
        pairs.push(("min_head", Json::str(wdpt_store::head_hex(h))));
    }
    Json::obj(pairs)
}

/// The `head` a response line carries.
fn head_of(line: &Json) -> Option<u64> {
    line.get("head")
        .and_then(Json::as_str)
        .and_then(wdpt_store::parse_head_hex)
}

/// The `kind` of an error line.
fn kind_of(line: &Json) -> &str {
    line.get("kind").and_then(Json::as_str).unwrap_or("?")
}

/// A head belongs to its database: two names reloaded to different chain
/// positions each answer with their own tip, and a `min_head` on one
/// quoting the other's tip is not admitted over data that lacks it.
#[test]
fn each_database_answers_with_its_own_head() {
    let _serial = serial();
    let (dir, base_path, deltas) = build_chain("own-head");
    let (base_head, d1_head) = (
        wdpt_store::content_hash(&std::fs::read(&base_path).unwrap()),
        wdpt_store::content_hash(&std::fs::read(&deltas[0]).unwrap()),
    );
    let server = start(follower_state());
    let mut c = Client::connect(server.addr);
    let (main, _) = c.round_trip(&reload_request("main", &base_path, &[]));
    assert_eq!(head_of(&main), Some(base_head), "got {main}");
    let (aux, _) = c.round_trip(&reload_request("aux", &base_path, &deltas[..1]));
    assert_eq!(head_of(&aux), Some(d1_head), "got {aux}");

    let (ok, rows) = c.round_trip(&query_request("main", None, 2_000));
    assert_eq!(status_of(&ok), "ok", "got {ok}");
    assert_eq!(subjects(&rows), ["swim"]);
    assert_eq!(head_of(&ok), Some(base_head), "main's head is aux's: {ok}");
    let (ok, rows) = c.round_trip(&query_request("aux", None, 2_000));
    assert_eq!(subjects(&rows), ["our_love", "swim"]);
    assert_eq!(head_of(&ok), Some(d1_head), "got {ok}");

    let (stale, rows) = c.round_trip(&query_request("main", Some(d1_head), 200));
    assert_eq!(
        kind_of(&stale),
        "stale_replica",
        "admitted on aux's head: {stale}"
    );
    assert!(rows.is_empty());
    assert_eq!(head_of(&stale), Some(base_head), "got {stale}");

    server.shutdown_and_join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A hash that has left the served chain is not admitted: after a reload
/// rolls `main` back to its base, and after a follower re-bootstraps from
/// the base, `min_head: d1` waits and is answered `stale_replica`.
#[test]
fn a_rolled_back_head_is_not_admitted() {
    let _serial = serial();
    use wdpt_repl::ReplApply;
    let (dir, base_path, deltas) = build_chain("rollback");
    let read = |p: &Path| std::fs::read(p).unwrap();
    let (base, d1, d2) = (read(&base_path), read(&deltas[0]), read(&deltas[1]));
    let h = |bytes: &[u8]| wdpt_store::content_hash(bytes);

    let server = start(follower_state());
    let mut c = Client::connect(server.addr);
    let (rl, _) = c.round_trip(&reload_request("main", &base_path, &deltas[..1]));
    assert_eq!(head_of(&rl), Some(h(&d1)), "got {rl}");
    let (rl, _) = c.round_trip(&reload_request("main", &base_path, &[]));
    assert_eq!(head_of(&rl), Some(h(&base)), "got {rl}");
    let (stale, rows) = c.round_trip(&query_request("main", Some(h(&d1)), 200));
    assert_eq!(
        kind_of(&stale),
        "stale_replica",
        "rolled back, admitted: {stale}"
    );
    assert!(rows.is_empty());
    server.shutdown_and_join();

    let follower = start(follower_state());
    let apply = FollowerApply::new(Arc::clone(&follower.state), "music");
    apply.apply_snapshot(h(&base), &base).unwrap();
    apply.apply_delta(h(&d1), h(&base), &d1).unwrap();
    apply.apply_delta(h(&d2), h(&d1), &d2).unwrap();
    apply.install_snapshot(h(&base), &base).unwrap();
    assert!(!apply.known(h(&d1)), "the replay would be skipped as known");
    let mut c = Client::connect(follower.addr);
    let (stale, rows) = c.round_trip(&query_request("music", Some(h(&d1)), 200));
    assert_eq!(
        kind_of(&stale),
        "stale_replica",
        "re-bootstrapped, admitted: {stale}"
    );
    assert!(rows.is_empty());
    assert_eq!(head_of(&stale), Some(h(&base)), "got {stale}");
    follower.shutdown_and_join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A primary publishes reloads of the database it replicates only: a
/// reload of another name leaves the log as it was.
#[test]
fn a_primary_publishes_only_its_replicated_database() {
    let _serial = serial();
    let (dir, base_path, deltas) = build_chain("publish");
    let log_dir = dir.join("repl");
    let primary = start(primary_state(&base_path, &log_dir));
    let logged = || {
        let files = std::fs::read_dir(&log_dir).unwrap();
        let names = files.map(|f| f.unwrap().file_name().into_string().unwrap());
        names.filter(|n| n.ends_with(".delta")).count()
    };
    let mut c = Client::connect(primary.addr);
    let (rl, _) = c.round_trip(&reload_request("aux", &base_path, &deltas[..1]));
    assert_eq!(status_of(&rl), "ok", "got {rl}");
    assert_eq!(logged(), 0, "aux's delta was published");
    let (rl, _) = c.round_trip(&reload_request("music", &base_path, &deltas[..1]));
    assert_eq!(status_of(&rl), "ok", "got {rl}");
    assert_eq!(logged(), 1, "music's delta was not published");
    primary.shutdown_and_join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A `min_head` query sent before the install that brings its hash waits
/// for it, and is answered at that install with the delta's row.
#[test]
fn a_min_head_query_wakes_at_the_install_that_brings_it() {
    let _serial = serial();
    let (dir, base_path, deltas) = build_chain("wake");
    let d1_head = wdpt_store::content_hash(&std::fs::read(&deltas[0]).unwrap());
    let server = start(follower_state());
    let mut c = Client::connect(server.addr);
    let (rl, _) = c.round_trip(&reload_request("main", &base_path, &[]));
    assert_eq!(status_of(&rl), "ok", "got {rl}");

    let mut waiter = Client::connect(server.addr);
    let sent = Instant::now();
    waiter.send(&query_request("main", Some(d1_head), 10_000));
    std::thread::sleep(Duration::from_millis(100));
    let (rl, _) = c.round_trip(&reload_request("main", &base_path, &deltas[..1]));
    assert_eq!(status_of(&rl), "ok", "got {rl}");
    let (ok, rows) = waiter.response();
    assert_eq!(status_of(&ok), "ok", "got {ok}");
    assert_eq!(subjects(&rows), ["our_love", "swim"]);
    assert_eq!(head_of(&ok), Some(d1_head), "got {ok}");
    let waited = sent.elapsed();
    assert!(
        waited >= Duration::from_millis(100),
        "answered before the install"
    );
    assert!(waited < Duration::from_secs(5), "woke only at the deadline");
    server.shutdown_and_join();
    std::fs::remove_dir_all(&dir).ok();
}
