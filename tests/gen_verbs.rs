//! End-to-end tests of the `wdpt` binary's generator verbs: `gen-synth`
//! streams a deterministic N-Triples file, `gen-music` writes the music
//! catalog as one, and both read back through the one N-Triples grammar.
//! Also the binary's one stdout: a reader that closes it early ends the
//! output, not the process with a panic.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use wdpt::model::parse::parse_nt_line;

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wdpt"))
        .args(args)
        .output()
        .expect("spawn wdpt")
}

fn run_ok(args: &[&str]) -> String {
    let out = run(args);
    assert!(
        out.status.success(),
        "wdpt {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("wdpt-gen-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().expect("utf-8 path").to_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The triples a file holds, each line parsed by the loader's grammar.
fn triples(path: &str) -> usize {
    let text = std::fs::read_to_string(path).unwrap();
    let parsed = text.lines().map(|l| parse_nt_line(l).unwrap());
    parsed.filter(|t| t.is_some()).count()
}

#[test]
fn gen_synth_streams_deterministic_n_triples() {
    let dir = TempDir::new("synth");
    let (a, b, c) = (dir.path("a.nt"), dir.path("b.nt"), dir.path("c.nt"));
    let stdout = run_ok(&["gen-synth", "5000", &a, "--seed", "3"]);
    assert!(
        stdout.starts_with(&format!("wrote {a}: 5000 triples")),
        "{stdout}"
    );
    run_ok(&["gen-synth", "5000", &b, "--seed", "3"]);
    let bytes = std::fs::read(&a).unwrap();
    assert_eq!(bytes, std::fs::read(&b).unwrap(), "same seed, same bytes");
    assert_eq!(triples(&a), 5000);
    // Different seed, different stream; a skew re-aims it at p0.
    run_ok(&["gen-synth", "5000", &c, "--seed", "4", "--skew", "8"]);
    let skewed = std::fs::read_to_string(&c).unwrap();
    assert_ne!(bytes, skewed.as_bytes());
    let hot = skewed.lines().filter(|l| l.contains(" <p0> ")).count();
    assert!(hot > 3500, "{hot} of 5000 lines through p0");
}

#[test]
fn gen_music_writes_the_catalog_as_n_triples() {
    let dir = TempDir::new("music");
    let (a, b) = (dir.path("a.nt"), dir.path("b.nt"));
    let stdout = run_ok(&["gen-music", "20x3", &a, "--seed", "11"]);
    let written = triples(&a);
    assert_eq!(stdout.trim(), format!("wrote {a}: {written} triples"));
    assert!(written >= 20 * 3 * 2, "{written} triples");
    run_ok(&["gen-music", "20x3", &b, "--seed", "11"]);
    assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
}

#[test]
fn generator_usage_errors_exit_2() {
    let dir = TempDir::new("usage");
    let out = dir.path("out.nt");
    for args in [
        vec!["gen-music", "20y3", &out],
        vec!["gen-music", "20x3"],
        vec!["gen-music", "20x3", &out, "--seed", "seven"],
        vec!["gen-synth", "many", &out],
        vec!["gen-synth", "10", &out, "--skew", "11"],
        vec!["gen-synth", "10", &out, "--sed", "3"],
        // Only the generator verbs take operands.
        vec!["classify", "@tree.wdpt"],
    ] {
        let result = run(&args);
        assert_eq!(result.status.code(), Some(2), "{args:?}");
        assert!(!std::path::Path::new(&out).exists(), "{args:?} wrote");
    }
}

#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    let dir = TempDir::new("pipe");
    let tree = dir.path("star.wdpt");
    let mut text = "FREE ?x\nNODE root { a(?x, ?u) }\n".to_owned();
    for j in 0..30 {
        text += &format!("NODE b{j} PARENT root {{ e(?u, ?z{j}) }}\n");
    }
    std::fs::write(&tree, text).unwrap();
    let tree = format!("@{tree}");
    // The reader hangs up before any output arrives, then after one line.
    for lines_read in [0, 1] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_wdpt"))
            .args(["classify", "--tree", &tree])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn wdpt");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        for _ in 0..lines_read {
            let mut line = String::new();
            stdout.read_line(&mut line).unwrap();
            assert_eq!(line, "nodes: 31\n");
        }
        drop(stdout);
        let out = child.wait_with_output().expect("wait for wdpt");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.contains("panicked"),
            "after {lines_read} line(s): {stderr}"
        );
        assert!(
            out.status.success(),
            "after {lines_read} line(s): {:?}",
            out.status
        );
    }
}
