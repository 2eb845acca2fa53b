//! The `wdpt-serve` binary's start-up, driven as a user drives it: the
//! process spawned on an ephemeral port, its address read from its
//! `listening on` line, and requests sent over a socket.
//!
//! A `--snapshot` start is a reload: the server keeps the base from its
//! first response on, so it reports the snapshot's content hash as its
//! head, and a reload of that base with a delta decodes no base. A server
//! serves only the data it is given: a follower given none serves an empty
//! database until its first frame, and a start with no data fails. Every
//! spawned server is stopped with the `shutdown` op, and killed by its
//! guard if a test fails first, so no process outlives the test.

use std::io::{BufRead, BufReader, BufWriter, Lines, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use wdpt_model::Interner;
use wdpt_obs::{read_json_line, write_json_line, Json};
use wdpt_sparql::TripleStore;
use wdpt_store::{content_hash, delta_to_vec, head_hex, snapshot_to_vec_v2};

const QUERY: &str = "SELECT ?s ?o WHERE { (?s, p, ?o) }";

/// A scratch directory, removed when dropped.
struct Dir(PathBuf);

impl Dir {
    fn new(tag: &str) -> Dir {
        let dir = std::env::temp_dir().join(format!("wdpt-startup-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        Dir(dir)
    }

    fn file(&self, name: &str, bytes: &[u8]) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A base snapshot of `rows` triples `(s_k, p, o_k)` and a delta after it
/// inserting `(s_new, p, o_new)`.
fn base_and_delta(rows: usize) -> (Vec<u8>, Vec<u8>) {
    let (mut i, mut ts) = (Interner::new(), TripleStore::new());
    for k in 0..rows {
        ts.insert_str(&mut i, &format!("s{k}"), "p", &format!("o{k}"));
    }
    let base = snapshot_to_vec_v2(&i, ts.database()).unwrap();
    let (mut ni, mut nts) = (i.clone(), ts.clone());
    nts.insert_str(&mut ni, "s_new", "p", "o_new");
    let delta = delta_to_vec(content_hash(&base), &i, ts.database(), &ni, nts.database()).unwrap();
    (base, delta)
}

/// The binary spawned with `args` on an ephemeral port.
fn spawn(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_wdpt-serve"))
        .args(["--addr", "127.0.0.1:0", "--threads", "2"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn wdpt-serve")
}

/// Waits up to a minute for `process` to exit, and fails otherwise (the
/// process is then killed as it is dropped).
fn exit_code(process: &mut Process) -> Option<i32> {
    let deadline = Instant::now() + Duration::from_secs(60);
    let child = process.0.as_mut().unwrap();
    while Instant::now() < deadline {
        if let Some(status) = child.try_wait().unwrap() {
            process.0 = None;
            return status.code();
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("wdpt-serve did not exit");
}

/// A spawned process, killed when dropped unless it was waited for.
struct Process(Option<Child>);

impl Drop for Process {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// A running `wdpt-serve`, its standard output — held open unless a test
/// drops it, as the server prints its last line when it exits — and a
/// connection to it.
struct Server {
    process: Process,
    stdout: Option<Lines<BufReader<ChildStdout>>>,
    conn: (BufReader<TcpStream>, BufWriter<TcpStream>),
}

impl Server {
    /// Spawns the binary with `args` and connects once it listens.
    fn start(args: &[&str]) -> Server {
        let mut process = Process(Some(spawn(args)));
        let child = process.0.as_mut().unwrap();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let addr = listening_on(&mut stdout);
        let stream = TcpStream::connect(&addr).expect("connect");
        let conn = (
            BufReader::new(stream.try_clone().unwrap()),
            BufWriter::new(stream),
        );
        Server {
            process,
            stdout: Some(stdout),
            conn,
        }
    }

    /// One request and the lines answering it, up to the terminal one.
    fn request(&mut self, request: &Json) -> (Json, Vec<Json>) {
        write_json_line(&mut self.conn.1, request).unwrap();
        self.conn.1.flush().unwrap();
        let mut rows = Vec::new();
        loop {
            let line = read_json_line(&mut self.conn.0)
                .unwrap()
                .expect("a response");
            if line.get("kind").and_then(Json::as_str) != Some("row") {
                return (line, rows);
            }
            rows.push(line);
        }
    }

    /// The terminal line of [`QUERY`] and its answer count.
    fn query(&mut self) -> (Json, u64) {
        let q = Json::obj([("op", Json::str("query")), ("query", Json::str(QUERY))]);
        let (line, _) = self.request(&q);
        assert_eq!(field(&line, "status"), Some("ok"), "{line}");
        let answers = line.get("answers").and_then(Json::as_num).unwrap();
        (line, answers as u64)
    }

    /// Sends `shutdown` and waits for the process to exit cleanly.
    fn shut_down(mut self) {
        let (line, _) = self.request(&Json::obj([("op", Json::str("shutdown"))]));
        assert_eq!(field(&line, "status"), Some("ok"), "{line}");
        drop(self.conn);
        assert_eq!(exit_code(&mut self.process), Some(0));
    }
}

/// The address in the server's `wdpt-serve listening on ADDR (…)` line.
fn listening_on(lines: &mut Lines<BufReader<ChildStdout>>) -> String {
    loop {
        let line = lines
            .next()
            .expect("wdpt-serve exited before it listened")
            .unwrap();
        if let Some(rest) = line.strip_prefix("wdpt-serve listening on ") {
            return rest.split_whitespace().next().unwrap().to_string();
        }
    }
}

fn field<'a>(line: &'a Json, name: &str) -> Option<&'a str> {
    line.get(name).and_then(Json::as_str)
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn a_snapshot_start_keeps_its_base_and_reports_its_head() {
    let dir = Dir::new("kept");
    let (base, delta) = base_and_delta(200);
    let base_path = dir.file("base.snap", &base);
    let delta_path = dir.file("d0.delta", &delta);
    let mut server = Server::start(&["--snapshot", path_str(&base_path)]);

    // The first response already names the snapshot as the head.
    let (first, answers) = server.query();
    assert_eq!(answers, 200);
    let head = head_hex(content_hash(&base));
    assert_eq!(field(&first, "head"), Some(head.as_str()), "{first}");

    // The first reload of the same base applies the delta to the kept one.
    let reload = Json::obj([
        ("op", Json::str("reload")),
        ("snapshot", Json::str(path_str(&base_path))),
        ("deltas", Json::Arr(vec![Json::str(path_str(&delta_path))])),
    ]);
    let (line, _) = server.request(&reload);
    assert_eq!(field(&line, "status"), Some("ok"), "{line}");
    assert_eq!(field(&line, "base"), Some("kept"), "{line}");
    let (after, answers) = server.query();
    assert_eq!(answers, 201, "the delta's row is served");
    let head = head_hex(content_hash(&delta));
    assert_eq!(field(&after, "head"), Some(head.as_str()), "{after}");
    server.shut_down();
}

#[test]
fn a_corrupt_snapshot_falls_back_to_a_same_name_text_or_stops_the_start() {
    let dir = Dir::new("corrupt");
    let (mut base, _) = base_and_delta(50);
    let at = base.len() / 2;
    base[at] ^= 0x10;
    let broken = dir.file("broken.snap", &base);
    let text = dir.file("main.nt", b"<a> <p> <b> .\n<c> <p> <d> .\n<e> <p> <f> .\n");
    let snapshot = format!("main={}", path_str(&broken));

    let mut server = Server::start(&["--snapshot", &snapshot, "--db", path_str(&text)]);
    let (line, answers) = server.query();
    assert_eq!(answers, 3, "the text is served: {line}");
    server.shut_down();

    let mut alone = Process(Some(spawn(&["--snapshot", &snapshot])));
    assert_eq!(exit_code(&mut alone), Some(2));
}

#[test]
fn the_removed_start_up_knobs_are_usage_errors() {
    let dir = Dir::new("knobs");
    let (base, _) = base_and_delta(10);
    let base_path = dir.file("base.snap", &base);
    let saved = dir.0.join("saved.snap");
    for knob in [
        ["--save-snapshot", path_str(&saved)],
        ["--load-threads", "0"],
        ["--gen-music", "4x2"],
        ["--default-deadline-ms", "1"],
        ["--max-deadline-ms", "1"],
    ] {
        let args = [&["--snapshot", path_str(&base_path)][..], &knob[..]].concat();
        let mut process = Process(Some(spawn(&args)));
        assert_eq!(exit_code(&mut process), Some(2), "{knob:?}");
    }
    assert!(!saved.exists());
    // With no --snapshot, --db or --follow there is nothing to serve.
    let mut process = Process(Some(spawn(&[])));
    assert_eq!(exit_code(&mut process), Some(2), "a start with no data");
}

/// A follower started with no data serves an empty database, with no
/// chain, until its primary's first frame arrives (this one's primary
/// never answers): a query has no rows and no head, and a `min_head` query
/// is `stale_replica` at its deadline.
#[test]
fn a_follower_with_no_data_serves_nothing_before_its_first_frame() {
    let mut server = Server::start(&["--follow", "127.0.0.1:1"]);
    let query = |min_head: Option<&str>| {
        let mut pairs = vec![
            ("op", Json::str("query")),
            (
                "query",
                Json::str("SELECT ?x ?y WHERE { (?x, rec_by, ?y) }"),
            ),
            ("deadline_ms", Json::int(300)),
        ];
        pairs.extend(min_head.map(|h| ("min_head", Json::str(h))));
        Json::obj(pairs)
    };
    let (line, rows) = server.request(&query(None));
    assert_eq!(field(&line, "status"), Some("ok"), "{line}");
    assert_eq!(
        line.get("answers").and_then(Json::as_num),
        Some(0.0),
        "{line}"
    );
    assert!(rows.is_empty() && line.get("head").is_none(), "{line}");

    let sent = Instant::now();
    let (line, rows) = server.request(&query(Some("deadbeefdeadbeef")));
    let waited = sent.elapsed();
    assert_eq!(field(&line, "kind"), Some("stale_replica"), "{line}");
    assert!(rows.is_empty() && line.get("head").is_none(), "{line}");
    assert!(
        waited >= Duration::from_millis(300),
        "answered after {waited:?}"
    );
    server.shut_down();
}

/// A reader that went away after the `listening on` line makes the
/// server's last line undeliverable, and a clean shutdown still exits 0.
#[test]
fn a_closed_stdout_does_not_fail_a_clean_shutdown() {
    let dir = Dir::new("stdout");
    let text = dir.file("small.nt", b"<a> <p> <b> .\n<c> <p> <d> .\n");
    let mut server = Server::start(&["--db", path_str(&text)]);
    server.stdout = None;
    server.shut_down();
}
