//! `wdpt` — command-line front end for the WDPT library.
//!
//! ```text
//! wdpt eval      --db DB.facts (--tree TREE.wdpt | --sparql QUERY) [--mode eval|max]
//!                                                                   p(D), or p_m(D)
//! wdpt check     --db DB.facts (--tree|--sparql) --mapping M [--mode eval|partial|max]
//! wdpt classify  (--tree|--sparql)                                  class membership
//! wdpt subsume   --left TREE --right TREE                           decide p1 ⊑ p2
//! wdpt optimize  (--tree|--sparql)                                  Lemma 1 normal form
//! wdpt gen-music BANDSxRECORDS OUTPUT.nt [--seed S]                 music catalog
//! wdpt gen-synth TRIPLES OUTPUT.nt [--seed S] [--skew K]            synthetic triples
//! ```
//!
//! Databases use the fact syntax of `wdpt_model::parse`
//! (`rec_by(Swim, Caribou) publ(Swim, "after_2010") …`); trees use the
//! `FREE`/`NODE` format of `wdpt_core::text`; `--sparql` accepts the
//! paper's algebraic {AND, OPT} notation. Arguments starting with `@` are
//! read from the named file, anything else is taken literally. The two
//! generator verbs write N-Triples datasets that `wdpt-store build` and
//! `wdpt-serve --db` load.

use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Instant;
use wdpt::core::{
    classes, eval_bounded_interface, evaluate, evaluate_max, max_eval_decide, normalize,
    parse_wdpt, partial_eval_decide, subsumed, to_text, Engine, Wdpt, WidthKind,
};
use wdpt::gen::music::{music_triples, MusicParams};
use wdpt::gen::{write_synth_nt, SynthParams};
use wdpt::model::parse::{parse_database, parse_mapping};
use wdpt::sparql::{parse_query, TripleStore};
use wdpt::{Database, Interner};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::BufWriter::new(io::stdout().lock());
    match run(&argv, &mut out).and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that stops early (`| head`) just ends the output.
        Err(Stop::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(stop) => {
            eprintln!("error: {stop}");
            ExitCode::from(2)
        }
    }
}

/// Why a command stopped early.
enum Stop {
    /// A usage or input error.
    Error(String),
    /// Writing the output failed.
    Stdout(io::Error),
}

impl std::fmt::Display for Stop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stop::Error(msg) => f.write_str(msg),
            Stop::Stdout(e) => write!(f, "cannot write to stdout: {e}"),
        }
    }
}

impl From<String> for Stop {
    fn from(msg: String) -> Stop {
        Stop::Error(msg)
    }
}

impl From<&str> for Stop {
    fn from(msg: &str) -> Stop {
        Stop::Error(msg.to_owned())
    }
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Stop {
        Stop::Stdout(e)
    }
}

struct Args {
    /// The arguments that are no flag: a generator's size and output path.
    operands: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Flag value, reading `@file` indirections.
    fn content(&self, name: &str) -> Result<Option<String>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => match v.strip_prefix('@') {
                Some(path) => std::fs::read_to_string(path)
                    .map(Some)
                    .map_err(|e| format!("cannot read {path}: {e}")),
                None => Ok(Some(v.to_owned())),
            },
        }
    }

    /// Refuses a flag outside `known`, so a mistyped one is no silent
    /// default.
    fn only(&self, known: &[&str]) -> Result<(), String> {
        let unknown = self
            .flags
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()));
        match unknown {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }

    /// A numeric flag's value.
    fn number(&self, name: &str) -> Result<Option<u64>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} needs a number, got {v:?}"))
            })
            .transpose()
    }
}

fn parse_args(argv: &[String]) -> Result<(String, Args), String> {
    let mut it = argv.iter();
    let cmd = it.next().ok_or_else(usage)?.clone();
    let (mut operands, mut flags) = (Vec::new(), Vec::new());
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            if !cmd.starts_with("gen-") {
                return Err(format!("expected --flag, got '{arg}'"));
            }
            operands.push(arg.clone());
            continue;
        };
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.push((name.to_owned(), value.clone()));
    }
    Ok((cmd, Args { operands, flags }))
}

fn usage() -> String {
    "usage: wdpt <eval|check|classify|subsume|optimize> [--db ...] [--tree ...] \
     [--sparql ...] [--mapping ...] [--mode eval|partial|max] [--engine backtrack|tw:K|hw:K] \
     [--left ...] [--right ...]  (values starting with @ are read from files)
       wdpt gen-music BANDSxRECORDS OUTPUT.nt [--seed S]
       wdpt gen-synth TRIPLES OUTPUT.nt [--seed S] [--skew K]  (--skew K, 0..=10, re-aims \
     K tenths of the stream at the heavy-hitter predicate p0)"
        .to_owned()
}

fn load_tree(args: &Args, i: &mut Interner) -> Result<Wdpt, String> {
    if let Some(src) = args.content("tree")? {
        return parse_wdpt(i, &src).map_err(|e| e.to_string());
    }
    if let Some(src) = args.content("sparql")? {
        let q = parse_query(i, &src).map_err(|e| e.to_string())?;
        return q.to_wdpt(i).map_err(|e| e.to_string());
    }
    Err("need --tree or --sparql".to_owned())
}

fn load_db(args: &Args, i: &mut Interner) -> Result<Database, String> {
    let src = args.content("db")?.ok_or_else(|| "need --db".to_owned())?;
    parse_database(i, &src).map_err(|e| e.to_string())
}

fn engine(args: &Args) -> Result<Engine, String> {
    let spec = args.get("engine").unwrap_or("backtrack");
    if spec == "backtrack" {
        return Ok(Engine::Backtrack);
    }
    let (kind, k) = (spec.split_once(':'))
        .filter(|(kind, _)| matches!(*kind, "tw" | "hw"))
        .ok_or_else(|| format!("unknown engine '{spec}' (expected backtrack, tw:K, or hw:K)"))?;
    let k = (k.parse().ok())
        .filter(|&k: &usize| k > 0)
        .ok_or_else(|| format!("--engine {kind}:K needs a positive integer, got '{k}'"))?;
    Ok(if kind == "tw" {
        Engine::Tw(k)
    } else {
        Engine::Hw(k)
    })
}

/// The `--mode` value, `eval` when absent, if it is one of `modes`.
fn mode<'a>(args: &'a Args, modes: &[&str]) -> Result<&'a str, String> {
    let mode = args.get("mode").unwrap_or("eval");
    if modes.contains(&mode) {
        Ok(mode)
    } else {
        Err(format!(
            "unknown mode '{mode}' (expected {})",
            modes.join(", ")
        ))
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

/// `gen-music BANDSxRECORDS OUTPUT.nt`: the music catalog as N-Triples.
fn gen_music(args: &Args, out: &mut impl Write) -> Result<(), Stop> {
    args.only(&["seed"])?;
    let [spec, output] = args.operands.as_slice() else {
        return Err("gen-music takes BANDSxRECORDS and OUTPUT paths".into());
    };
    let (bands, records_per_band) = (spec.split_once('x'))
        .and_then(|(b, r)| Some((b.parse().ok()?, r.parse().ok()?)))
        .ok_or("gen-music size must look like 500x20")?;
    let mut params = MusicParams {
        bands,
        records_per_band,
        ..Default::default()
    };
    if let Some(seed) = args.number("seed")? {
        params.seed = seed;
    }
    let mut i = Interner::new();
    let ts = music_triples(&mut i, params);
    let triple = TripleStore::pred(&mut i);
    let mut nt = String::new();
    if let Some(rel) = ts.database().relation(triple) {
        for t in rel.tuples() {
            for (k, c) in t.iter().enumerate() {
                if k > 0 {
                    nt.push(' ');
                }
                write_iri(&mut nt, i.name(c.0));
            }
            nt.push_str(" .\n");
        }
    }
    std::fs::write(output, &nt).map_err(|e| format!("cannot write {output}: {e}"))?;
    writeln!(out, "wrote {output}: {} triples", ts.len())?;
    Ok(())
}

/// `gen-synth TRIPLES OUTPUT.nt`: a synthetic uniform-universe dataset of
/// any size, streamed.
fn gen_synth(args: &Args, out: &mut impl Write) -> Result<(), Stop> {
    args.only(&["seed", "skew"])?;
    let [triples, output] = args.operands.as_slice() else {
        return Err("gen-synth takes TRIPLES and OUTPUT paths".into());
    };
    let triples = triples
        .parse()
        .map_err(|_| "gen-synth TRIPLES must be a number")?;
    let skew = args.number("skew")?.unwrap_or(0);
    if skew > 10 {
        return Err("gen-synth --skew must be in 0..=10 (tenths of the stream)".into());
    }
    let mut params = SynthParams::sized_skewed(triples, skew);
    if let Some(seed) = args.number("seed")? {
        params.seed = seed;
    }
    let t0 = Instant::now();
    let failed = |e: std::io::Error| format!("cannot write {output}: {e}");
    let mut w = io::BufWriter::new(std::fs::File::create(output).map_err(failed)?);
    let n = write_synth_nt(&mut w, params).map_err(failed)?;
    w.flush().map_err(failed)?;
    writeln!(
        out,
        "wrote {output}: {n} triples in {:.1}ms",
        t0.elapsed().as_secs_f64() * 1e3
    )?;
    Ok(())
}

/// Runs the command `argv` names, writing its output to `out`.
fn run(argv: &[String], out: &mut impl Write) -> Result<(), Stop> {
    let (cmd, args) = parse_args(argv)?;
    let mut i = Interner::new();
    match cmd.as_str() {
        "eval" => {
            args.only(&["tree", "sparql", "db", "mode"])?;
            let p = load_tree(&args, &mut i)?;
            let db = load_db(&args, &mut i)?;
            let answers = match mode(&args, &["eval", "max"])? {
                "max" => evaluate_max(&p, &db),
                _ => evaluate(&p, &db),
            };
            writeln!(out, "{} answer(s):", answers.len())?;
            for a in &answers {
                writeln!(out, "  {}", a.display(&i))?;
            }
        }
        "check" => {
            args.only(&["tree", "sparql", "db", "mapping", "engine", "mode"])?;
            let p = load_tree(&args, &mut i)?;
            let db = load_db(&args, &mut i)?;
            let m = args
                .content("mapping")?
                .ok_or_else(|| "need --mapping".to_owned())?;
            let h = parse_mapping(&mut i, &m).map_err(|e| e.to_string())?;
            let eng = engine(&args)?;
            let verdict = match mode(&args, &["eval", "partial", "max"])? {
                "partial" => partial_eval_decide(&p, &db, &h, eng),
                "max" => max_eval_decide(&p, &db, &h, eng),
                _ => eval_bounded_interface(&p, &db, &h, eng),
            };
            writeln!(out, "{verdict}")?;
        }
        "classify" => {
            args.only(&["tree", "sparql"])?;
            let p = load_tree(&args, &mut i)?;
            writeln!(out, "nodes: {}", p.node_count())?;
            writeln!(out, "free variables: {}", p.free_vars().len())?;
            writeln!(out, "projection-free: {}", p.is_projection_free())?;
            writeln!(out, "interface width: {}", classes::interface_width(&p))?;
            for k in 1..=3usize {
                let local = classes::is_locally_in(&p, WidthKind::Tw, k);
                writeln!(out, "locally in TW({k}): {local}")?;
            }
            if p.rooted_subtree_count() <= 4096 {
                for k in 1..=3usize {
                    let global = classes::is_globally_in(&p, WidthKind::Tw, k);
                    writeln!(out, "globally in TW({k}): {global}")?;
                }
            } else {
                let count = p.rooted_subtree_count();
                writeln!(out, "globally in TW(k): skipped ({count} subtrees)")?;
            }
        }
        "subsume" => {
            args.only(&["left", "right", "engine"])?;
            let left = args
                .content("left")?
                .ok_or_else(|| "need --left".to_owned())?;
            let right = args
                .content("right")?
                .ok_or_else(|| "need --right".to_owned())?;
            let p1 = parse_wdpt(&mut i, &left).map_err(|e| e.to_string())?;
            let p2 = parse_wdpt(&mut i, &right).map_err(|e| e.to_string())?;
            let eng = engine(&args)?;
            writeln!(out, "{}", subsumed(&p1, &p2, eng, &mut i))?;
        }
        "optimize" => {
            args.only(&["tree", "sparql"])?;
            let p = load_tree(&args, &mut i)?;
            let n = normalize(&p);
            writeln!(
                out,
                "# normalized: {} -> {} nodes (≡ₛ-preserving)",
                p.node_count(),
                n.node_count()
            )?;
            write!(out, "{}", to_text(&n, &i))?;
        }
        "gen-music" => gen_music(&args, out)?,
        "gen-synth" => gen_synth(&args, out)?,
        "--help" | "help" => writeln!(out, "{}", usage())?,
        other => return Err(format!("unknown command '{other}'\n{}", usage()).into()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        parse_args(&argv).expect("well-formed").1
    }

    #[test]
    fn engine_widths_are_positive() {
        for spec in ["tw:0", "hw:0", "tw:zero", "hw:-1", "tw:"] {
            let err = engine(&args(&["check", "--engine", spec])).unwrap_err();
            assert!(err.contains("positive integer"), "{spec}: {err}");
        }
        assert_eq!(
            engine(&args(&["check", "--engine", "tw:1"])),
            Ok(Engine::Tw(1))
        );
        assert_eq!(
            engine(&args(&["check", "--engine", "hw:2"])),
            Ok(Engine::Hw(2))
        );
        assert_eq!(engine(&args(&["check"])), Ok(Engine::Backtrack));
        assert!(engine(&args(&["check", "--engine", "gw:1"])).is_err());
    }

    #[test]
    fn eval_reads_the_mode_check_reads() {
        const EVAL: &[&str] = &["eval", "max"];
        assert_eq!(mode(&args(&["eval"]), EVAL), Ok("eval"));
        assert_eq!(mode(&args(&["eval", "--mode", "max"]), EVAL), Ok("max"));
        assert!(mode(&args(&["eval", "--mode", "partial"]), EVAL).is_err());
        // Every flag takes a value: a bare switch is an error, not `max`.
        let bare: Vec<String> = ["eval", "--max"].map(String::from).to_vec();
        assert_eq!(
            parse_args(&bare).err().as_deref(),
            Some("--max needs a value")
        );
        assert!(usage().contains("--mode eval|partial|max"));
    }

    const TREE: &str = "FREE ?x ?z\nNODE root { a(?x, ?y) }\nNODE leaf PARENT root { b(?y, ?z) }";
    const DB: &str = r#"a("s", "u") b("u", "t")"#;

    /// Runs `argv` in process: its output, or the error it stops with.
    fn wdpt(argv: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&argv, &mut out).map_err(|stop| stop.to_string())?;
        Ok(String::from_utf8(out).expect("utf-8 output"))
    }

    /// `argv` runs, and each flag of `unread` added to it is refused before
    /// the command does anything.
    fn reads_no(argv: &[&str], unread: &[&str]) -> String {
        let output = wdpt(argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
        for flag in unread {
            let mut with = argv.to_vec();
            with.extend([flag, "tw:1"]);
            assert_eq!(wdpt(&with), Err(format!("unknown flag {flag}")));
        }
        output
    }

    #[test]
    fn eval_refuses_the_flags_it_does_not_read() {
        let argv = ["eval", "--tree", TREE, "--db", DB, "--mode", "max"];
        let out = reads_no(&argv, &["--engine", "--mapping", "--engin", "--left"]);
        assert!(out.starts_with("1 answer(s):"), "{out}");
    }

    #[test]
    fn check_refuses_the_flags_it_does_not_read() {
        let mapping = r#"?x -> "s", ?z -> "t""#;
        let argv = [
            "check",
            "--tree",
            TREE,
            "--db",
            DB,
            "--mapping",
            mapping,
            "--engine",
            "tw:1",
            "--mode",
            "max",
        ];
        let out = reads_no(&argv, &["--engin", "--left", "--right"]);
        assert_eq!(out, "true\n");
    }

    #[test]
    fn classify_refuses_the_flags_it_does_not_read() {
        let out = reads_no(
            &["classify", "--tree", TREE],
            &["--engin", "--engine", "--db", "--mode"],
        );
        assert!(out.starts_with("nodes: 2\n"), "{out}");
        assert!(wdpt(&["classify", "--sparql", "(?x, a, ?y)"]).is_ok());
    }

    #[test]
    fn subsume_refuses_the_flags_it_does_not_read() {
        let argv = [
            "subsume", "--left", TREE, "--right", TREE, "--engine", "tw:1",
        ];
        assert_eq!(reads_no(&argv, &["--tree", "--db", "--mode"]), "true\n");
    }

    #[test]
    fn optimize_refuses_the_flags_it_does_not_read() {
        let out = reads_no(
            &["optimize", "--tree", TREE],
            &["--engine", "--db", "--left"],
        );
        assert!(out.starts_with("# normalized: 2 -> 2 nodes"), "{out}");
    }
}
