//! End-to-end tests of the `wdpt-store` binary: the empty-delta-chain
//! `apply` no-op and the `build` determinism path that CI's store_smoke job
//! relies on. Inputs are written by the generator `wdpt gen-synth` runs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_wdpt-store")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn wdpt-store")
}

fn run_ok(args: &[&str]) -> String {
    let out = run(args);
    assert!(
        out.status.success(),
        "wdpt-store {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("wdpt-store-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn s(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

/// Writes the N-Triples `wdpt gen-synth TRIPLES PATH --seed SEED` writes.
fn synth(path: &Path, triples: u64, seed: u64) {
    let params = wdpt_gen::SynthParams {
        seed,
        ..wdpt_gen::SynthParams::sized(triples)
    };
    let mut out = Vec::new();
    wdpt_gen::write_synth_nt(&mut out, params).unwrap();
    std::fs::write(path, out).unwrap();
}

#[test]
fn apply_with_no_deltas_is_a_verified_byte_identical_copy() {
    let dir = TempDir::new("apply-noop");
    let input = dir.path("in.nt");
    let base = dir.path("base.snap");
    let copy = dir.path("copy.snap");
    synth(&input, 60, 11);
    run_ok(&["build", s(&input), s(&base)]);

    // No --delta flags at all: must succeed (the seed CLI rejected this)
    // and write exactly the bytes of BASE after a full verified decode.
    let stdout = run_ok(&["apply", s(&base), s(&copy)]);
    assert!(stdout.contains("applied 0 deltas"), "stdout: {stdout}");
    let a = std::fs::read(&base).unwrap();
    let b = std::fs::read(&copy).unwrap();
    assert!(!a.is_empty() && a == b, "re-encode was not byte-identical");

    // A corrupt base must still fail with the data exit code (1), proving
    // the no-delta path verifies rather than blindly copying.
    let mut bytes = std::fs::read(&base).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    let bad = dir.path("bad.snap");
    std::fs::write(&bad, &bytes).unwrap();
    let out = run(&["apply", s(&bad), s(&dir.path("never.snap"))]);
    assert_eq!(out.status.code(), Some(1), "corruption must exit 1");
}

#[test]
fn the_format_flag_is_gone_and_version_1_files_are_refused() {
    let dir = TempDir::new("one-format");
    let input = dir.path("in.nt");
    let snap = dir.path("out.snap");
    synth(&input, 10, 3);

    // `--format 1|2` is no longer an option of `build` or `apply`: typed as
    // a user would, it is a usage error and nothing is written.
    let line = format!("build {} {} --format 2", s(&input), s(&snap));
    let out = run(&line.split(' ').collect::<Vec<_>>());
    assert_eq!(out.status.code(), Some(2), "`{line}` must exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    assert!(!snap.exists(), "a rejected build must not write anything");
    run_ok(&["build", s(&input), s(&snap)]);
    let line = format!("apply {0} {0}.copy --format 1", s(&snap));
    let out = run(&line.split(' ').collect::<Vec<_>>());
    assert_eq!(out.status.code(), Some(2), "`{line}` must exit 2");

    // A version-1 file is a data error (exit 1) with the rebuild hint, for
    // every verb that reads a snapshot.
    let v1 = dir.path("old.snap");
    let mut bytes = b"WDPTSNAP".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    std::fs::write(&v1, &bytes).unwrap();
    for args in [
        vec!["verify", s(&v1)],
        vec!["inspect", s(&v1)],
        vec!["apply", s(&v1), s(&dir.path("never.snap"))],
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("version 1"), "{args:?} stderr: {stderr}");
        assert!(stderr.contains("rebuild"), "{args:?} stderr: {stderr}");
    }
}

#[test]
fn builds_are_byte_identical_at_any_thread_count() {
    let dir = TempDir::new("threads");
    let a = dir.path("a.nt");
    synth(&a, 5000, 3);

    // The CI determinism check in miniature: build the same input at
    // --threads 1 and --threads 8 and compare snapshots bytewise.
    let snap1 = dir.path("t1.snap");
    let snap8 = dir.path("t8.snap");
    run_ok(&["build", s(&a), s(&snap1), "--threads", "1"]);
    run_ok(&["build", s(&a), s(&snap8), "--threads", "8"]);
    assert_eq!(
        std::fs::read(&snap1).unwrap(),
        std::fs::read(&snap8).unwrap(),
        "thread count changed snapshot bytes"
    );
    run_ok(&["verify", s(&snap8)]);
}

#[test]
fn inspect_json_covers_snapshots_and_delta_files() {
    let dir = TempDir::new("inspect-json");
    let base_in = dir.path("base.nt");
    let update_in = dir.path("update.nt");
    let base = dir.path("base.snap");
    let delta = dir.path("d1.wdpt");
    synth(&base_in, 40, 7);
    run_ok(&["build", s(&base_in), s(&base)]);
    std::fs::write(&update_in, "<s_new> <p0> <o_new> .\n").unwrap();
    run_ok(&["delta", s(&base), s(&update_in), s(&delta)]);

    // Snapshot: one JSON document with the header and per-relation rows.
    let stdout = run_ok(&["inspect", s(&base), "--json"]);
    let doc = wdpt_obs::Json::parse(stdout.trim()).expect("inspect --json parses");
    assert_eq!(
        doc.get("kind").and_then(wdpt_obs::Json::as_str),
        Some("snapshot")
    );
    let tuples = doc.get("tuples").and_then(wdpt_obs::Json::as_num).unwrap();
    assert!(tuples > 0.0);
    let rels = doc
        .get("relations")
        .and_then(wdpt_obs::Json::as_arr)
        .expect("relations array");
    assert!(!rels.is_empty());
    let rows: f64 = rels
        .iter()
        .map(|r| r.get("rows").and_then(wdpt_obs::Json::as_num).unwrap())
        .sum();
    assert_eq!(rows, tuples, "per-relation rows must sum to the header");
    assert!(rels[0]
        .get("name")
        .and_then(wdpt_obs::Json::as_str)
        .is_some());

    // Delta file: inspect falls back to the delta header instead of
    // failing with "apply it to its base first".
    let stdout = run_ok(&["inspect", s(&delta), "--json"]);
    let doc = wdpt_obs::Json::parse(stdout.trim()).expect("delta inspect parses");
    assert_eq!(
        doc.get("kind").and_then(wdpt_obs::Json::as_str),
        Some("delta")
    );
    assert!(
        doc.get("inserted")
            .and_then(wdpt_obs::Json::as_num)
            .unwrap()
            > 0.0
    );
    assert_eq!(
        doc.get("base_hash")
            .and_then(wdpt_obs::Json::as_str)
            .map(str::len),
        Some(16),
        "base hash renders as 16 hex digits"
    );

    // The human-readable delta fallback works too.
    let stdout = run_ok(&["inspect", s(&delta)]);
    assert!(stdout.contains("delta v"), "stdout: {stdout}");
    assert!(stdout.contains("inserted tuples"), "stdout: {stdout}");
}
