//! Expected answers, computed once in set-up and checked on every response.
//!
//! The oracle is `wdpt_core::evaluate` — the unplanned, sequential reference
//! evaluator — run on the same tree the server will be asked for. A row is
//! identified by the FNV-1a hash of its `var=value` pairs in variable-name
//! order, so it does not depend on interner ids or on the order the server
//! streams rows in. Responses truncated by `max_rows` carry an
//! order-dependent subset, so the check is: the answer count is the
//! expected one, the row count is the expected one, the rows are pairwise
//! distinct, and every row is an expected row. For an untruncated response
//! that is set equality.

use wdpt_model::{Database, Interner, Mapping};
use wdpt_obs::Json;
use wdpt_sparql::parse_query;

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Hash of one answer row: FNV-1a of its `bindings` object as the wire
/// protocol's JSON encoder writes it (keys in variable-name order).
pub fn row_hash<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> u64 {
    let bindings = Json::obj(pairs.into_iter().map(|(k, v)| (k, Json::str(v))));
    fnv1a(bindings.to_string().as_bytes())
}

const ROW_PREFIX: &str = r#"{"bindings":"#;
const ROW_SUFFIX: &str = r#","kind":"row"}"#;

/// Hash of a `row` response line in the shape the server writes it. A row
/// line without an `id` is exactly prefix + bindings + suffix, so the hash is
/// taken from the bytes in between without parsing 1000 objects per
/// response. `None` for any other line: parse it and try [`parsed_row_hash`].
pub fn fast_row_hash(line: &str) -> Option<u64> {
    line.strip_prefix(ROW_PREFIX)
        .and_then(|rest| rest.strip_suffix(ROW_SUFFIX))
        .map(|bindings| fnv1a(bindings.as_bytes()))
}

/// Hash of a parsed response line if it is a `row`, re-encoding its
/// bindings the way the fast path expects to find them.
pub fn parsed_row_hash(doc: &Json) -> Option<u64> {
    if doc.get("kind").and_then(Json::as_str) != Some("row") {
        return None;
    }
    Some(fnv1a(doc.get("bindings")?.to_string().as_bytes()))
}

/// The expected result of one query.
#[derive(Debug, Clone)]
pub struct Expected {
    /// `|p(D)|`.
    pub answers: usize,
    /// Row hashes, ascending.
    rows: Vec<u64>,
    /// FNV-1a over the ascending row hashes: one number that names the
    /// whole answer set in the report.
    pub checksum: u64,
}

impl Expected {
    /// Evaluates `query` over `db` with the reference evaluator. `interner`
    /// is a scratch copy of the one `db` was built with.
    pub fn compute(query: &str, db: &Database, interner: &mut Interner) -> Result<Self, String> {
        let parsed = parse_query(interner, query).map_err(|e| e.to_string())?;
        let tree = parsed.to_wdpt(interner).map_err(|e| e.to_string())?;
        let answers = wdpt_core::evaluate(&tree, db);
        Ok(Self::from_answers(&answers, interner))
    }

    fn from_answers(answers: &[Mapping], interner: &Interner) -> Self {
        let mut rows: Vec<u64> = answers
            .iter()
            .map(|m| {
                let pairs: Vec<(&str, &str)> = m
                    .iter()
                    .map(|(v, c)| (interner.var_name(v), interner.const_name(c)))
                    .collect();
                row_hash(pairs)
            })
            .collect();
        rows.sort_unstable();
        let mut checksum = fnv1a(&[]);
        for r in &rows {
            checksum = fnv1a_extend(checksum, &r.to_le_bytes());
        }
        Expected {
            answers: answers.len(),
            rows,
            checksum,
        }
    }

    /// Checks a response: `answers` from its `ok` line, `rows` the hashes of
    /// its `row` lines (consumed: sorted in place), `max_rows` the cap the
    /// request carried.
    pub fn check(&self, answers: usize, rows: &mut [u64], max_rows: usize) -> Result<(), String> {
        if answers != self.answers {
            return Err(format!("answer count {answers}, expected {}", self.answers));
        }
        let want_rows = self.answers.min(max_rows);
        if rows.len() != want_rows {
            return Err(format!("{} rows, expected {want_rows}", rows.len()));
        }
        rows.sort_unstable();
        if rows.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate row".to_string());
        }
        if let Some(stray) = rows.iter().find(|r| self.rows.binary_search(r).is_err()) {
            return Err(format!("row {stray:016x} is not an expected answer"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_model::parse::parse_database;

    fn expected() -> (Expected, Vec<u64>) {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "triple(a, p, b) triple(a, p, c) triple(b, q, d)").unwrap();
        let e = Expected::compute("(?x, p, ?y) OPT (?y, q, ?z)", &db, &mut i).unwrap();
        let rows = vec![
            row_hash([("x", "a"), ("y", "b"), ("z", "d")]),
            row_hash([("x", "a"), ("y", "c")]),
        ];
        (e, rows)
    }

    #[test]
    fn accepts_the_reference_answers_in_any_order() {
        let (e, mut rows) = expected();
        assert_eq!(e.answers, 2);
        assert!(e.check(2, &mut rows.clone(), 1000).is_ok());
        rows.reverse();
        assert!(e.check(2, &mut rows, 1000).is_ok());
    }

    #[test]
    fn rejects_wrong_counts_strays_and_duplicates() {
        let (e, rows) = expected();
        assert!(e.check(3, &mut rows.clone(), 1000).is_err());
        assert!(e.check(2, &mut rows[..1].to_vec(), 1000).is_err());
        let mut stray = vec![rows[0], row_hash([("x", "a"), ("y", "zzz")])];
        assert!(e.check(2, &mut stray, 1000).is_err());
        let mut dup = vec![rows[0], rows[0]];
        assert!(e.check(2, &mut dup, 1000).is_err());
        // Truncated: one row of two is fine when max_rows says so.
        assert!(e.check(2, &mut rows[..1].to_vec(), 1).is_ok());
    }

    #[test]
    fn wire_rows_hash_like_oracle_rows() {
        let (_, rows) = expected();
        // The shape the server writes: fast path.
        let fast = r#"{"bindings":{"x":"a","y":"b","z":"d"},"kind":"row"}"#;
        assert_eq!(fast_row_hash(fast), Some(rows[0]));
        // Any other spelling of the same row: parsed and re-encoded.
        let slow = r#"{"kind":"row","id":"7","bindings":{"y":"b", "z":"d","x":"a"}}"#;
        assert_eq!(fast_row_hash(slow), None);
        assert_eq!(parsed_row_hash(&Json::parse(slow).unwrap()), Some(rows[0]));
        // A value that needs escaping hashes the same either way.
        let quoted = row_hash([("x", "say \"hi\"")]);
        let line = r#"{"bindings":{"x":"say \"hi\""},"kind":"row"}"#;
        assert_eq!(fast_row_hash(line), Some(quoted));
        assert_eq!(parsed_row_hash(&Json::parse(line).unwrap()), Some(quoted));
        let terminal = r#"{"status":"ok","answers":2}"#;
        assert_eq!(fast_row_hash(terminal), None);
        assert_eq!(parsed_row_hash(&Json::parse(terminal).unwrap()), None);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
