//! The metric inventory: every name the code registers in the process-wide
//! registry has one row in DESIGN.md §6's table — its kind, meaning and
//! reader — and every row names something registered.
//!
//! A name is registered by a literal in `counter!`, `gauge!`,
//! `gauge_scope!` or `histogram!` in non-test code under `crates/*/src`,
//! or is one of the `wdpt_model::stats` constants its `record` counts
//! under.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The registering macros and the kind each registers.
const MACROS: [(&str, &str); 4] = [
    ("counter!(", "counter"),
    ("gauge!(", "gauge"),
    ("gauge_scope!(", "gauge"),
    ("histogram!(", "histogram"),
];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `text` up to its first `#[cfg(test)]` line: the file's non-test code.
fn non_test(text: &str) -> String {
    text.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The string literal `rest` starts with, after blanks.
fn literal(rest: &str) -> Option<&str> {
    let rest = rest.trim_start().strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// Every registered name with its kind and the file registering it.
fn registered() -> BTreeMap<String, (&'static str, String)> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(Path::new(ROOT).join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    let mut names = BTreeMap::new();
    for file in &files {
        let code = non_test(&std::fs::read_to_string(file).unwrap());
        let at = file.strip_prefix(ROOT).unwrap().display().to_string();
        for (mac, kind) in MACROS {
            for (i, _) in code.match_indices(mac) {
                // `counter!(` also ends `xcounter!(`; only whole names count.
                let before = code[..i].chars().next_back();
                if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    continue;
                }
                if let Some(name) = literal(&code[i + mac.len()..]) {
                    names.insert(name.to_string(), (kind, at.clone()));
                }
            }
        }
    }
    let stats = Path::new(ROOT).join("crates/model/src/stats.rs");
    let code = non_test(&std::fs::read_to_string(&stats).unwrap());
    for line in code.lines() {
        let Some(rest) = line.strip_prefix("pub const ") else {
            continue;
        };
        if let Some((_, value)) = rest.split_once(": &str =") {
            let name = literal(value).expect("a string constant");
            names.insert(name.to_string(), ("counter", "wdpt_model::stats".into()));
        }
    }
    names
}

/// The rows of DESIGN.md §6's metric table: name → (kind, reader).
fn inventory() -> BTreeMap<String, (String, String)> {
    let design = std::fs::read_to_string(Path::new(ROOT).join("DESIGN.md")).unwrap();
    let section = design
        .split("\n## 6. ")
        .nth(1)
        .expect("DESIGN.md has a §6")
        .split("\n## ")
        .next()
        .unwrap();
    let mut rows = BTreeMap::new();
    let mut in_table = false;
    for line in section.lines() {
        if line.starts_with("| metric | kind | meaning | reader |") {
            in_table = true;
            continue;
        }
        if !in_table || line.starts_with("|---") {
            continue;
        }
        if !line.starts_with('|') {
            break;
        }
        let cells: Vec<&str> = line.trim_matches('|').split(" | ").collect();
        assert_eq!(cells.len(), 4, "a row of four cells: {line}");
        let name = cells[0].trim();
        let name = name
            .strip_prefix('`')
            .and_then(|n| n.strip_suffix('`'))
            .filter(|n| !n.contains('`'))
            .unwrap_or_else(|| panic!("one `name` per row: {line}"));
        let (kind, reader) = (cells[1].trim(), cells[3].trim());
        assert!(!reader.is_empty(), "{name} names no reader");
        let row = (kind.to_string(), reader.to_string());
        assert!(rows.insert(name.to_string(), row).is_none(), "{name} twice");
    }
    assert!(
        in_table,
        "DESIGN.md §6 has no `| metric | kind | meaning | reader |` table"
    );
    rows
}

#[test]
fn every_registered_metric_has_one_row_and_every_row_is_registered() {
    let registered = registered();
    let rows = inventory();
    assert!(registered.len() > 20, "the scan found {registered:?}");
    for (name, (kind, file)) in &registered {
        let Some((row_kind, _)) = rows.get(name) else {
            panic!("{name} ({kind}, {file}) has no row in DESIGN.md §6");
        };
        assert_eq!(row_kind, kind, "{name}: kind in DESIGN.md §6");
    }
    for name in rows.keys() {
        assert!(
            registered.contains_key(name),
            "DESIGN.md §6 lists {name}, which nothing registers"
        );
    }
}
