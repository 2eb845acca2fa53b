//! `wdpt` — command-line front end for the WDPT library.
//!
//! ```text
//! wdpt eval      --db DB.facts (--tree TREE.wdpt | --sparql QUERY) [--mode eval|max]
//!                                                                   p(D), or p_m(D)
//! wdpt check     --db DB.facts (--tree|--sparql) --mapping M [--mode eval|partial|max]
//! wdpt classify  (--tree|--sparql)                                  class membership
//! wdpt subsume   --left TREE --right TREE                           decide p1 ⊑ p2
//! wdpt optimize  (--tree|--sparql)                                  Lemma 1 normal form
//! ```
//!
//! Databases use the fact syntax of `wdpt_model::parse`
//! (`rec_by(Swim, Caribou) publ(Swim, "after_2010") …`); trees use the
//! `FREE`/`NODE` format of `wdpt_core::text`; `--sparql` accepts the
//! paper's algebraic {AND, OPT} notation. Arguments starting with `@` are
//! read from the named file, anything else is taken literally.

use std::process::ExitCode;
use wdpt::core::{
    classes, eval_bounded_interface, evaluate, evaluate_max, max_eval_decide, normalize,
    parse_wdpt, partial_eval_decide, subsumed, to_text, Engine, Wdpt, WidthKind,
};
use wdpt::model::parse::{parse_database, parse_mapping};
use wdpt::sparql::parse_query;
use wdpt::{Database, Interner};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

struct Args {
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
}

fn parse_args(argv: &[String]) -> Result<(String, Args), String> {
    let mut it = argv.iter();
    let cmd = it.next().ok_or_else(usage)?.clone();
    let mut flags = Vec::new();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.push((name.to_owned(), value.clone()));
    }
    Ok((cmd, Args { flags }))
}

fn usage() -> String {
    "usage: wdpt <eval|check|classify|subsume|optimize> [--db ...] [--tree ...] \
     [--sparql ...] [--mapping ...] [--mode eval|partial|max] [--engine backtrack|tw:K|hw:K] \
     [--left ...] [--right ...]  (values starting with @ are read from files)"
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

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, args) = parse_args(&argv)?;
    let mut i = Interner::new();
    match cmd.as_str() {
        "eval" => {
            let p = load_tree(&args, &mut i)?;
            let db = load_db(&args, &mut i)?;
            let answers = match mode(&args, &["eval", "max"])? {
                "max" => evaluate_max(&p, &db),
                _ => evaluate(&p, &db),
            };
            println!("{} answer(s):", answers.len());
            for a in &answers {
                println!("  {}", a.display(&i));
            }
            Ok(())
        }
        "check" => {
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
            println!("{verdict}");
            Ok(())
        }
        "classify" => {
            let p = load_tree(&args, &mut i)?;
            println!("nodes: {}", p.node_count());
            println!("free variables: {}", p.free_vars().len());
            println!("projection-free: {}", p.is_projection_free());
            println!("interface width: {}", classes::interface_width(&p));
            for k in 1..=3usize {
                println!(
                    "locally in TW({k}): {}",
                    classes::is_locally_in(&p, WidthKind::Tw, k)
                );
            }
            if p.rooted_subtree_count() <= 4096 {
                for k in 1..=3usize {
                    println!(
                        "globally in TW({k}): {}",
                        classes::is_globally_in(&p, WidthKind::Tw, k)
                    );
                }
            } else {
                println!(
                    "globally in TW(k): skipped ({} subtrees)",
                    p.rooted_subtree_count()
                );
            }
            Ok(())
        }
        "subsume" => {
            let left = args
                .content("left")?
                .ok_or_else(|| "need --left".to_owned())?;
            let right = args
                .content("right")?
                .ok_or_else(|| "need --right".to_owned())?;
            let p1 = parse_wdpt(&mut i, &left).map_err(|e| e.to_string())?;
            let p2 = parse_wdpt(&mut i, &right).map_err(|e| e.to_string())?;
            let eng = engine(&args)?;
            println!("{}", subsumed(&p1, &p2, eng, &mut i));
            Ok(())
        }
        "optimize" => {
            let p = load_tree(&args, &mut i)?;
            let n = normalize(&p);
            println!(
                "# normalized: {} -> {} nodes (≡ₛ-preserving)",
                p.node_count(),
                n.node_count()
            );
            print!("{}", to_text(&n, &i));
            Ok(())
        }
        "--help" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
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
}
