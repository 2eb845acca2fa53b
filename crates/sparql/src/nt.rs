//! A lenient, line-oriented N-Triples parser.
//!
//! One triple per line: `<s> <p> <o> .` — IRIs in angle brackets, literals
//! in double quotes, bare tokens also tolerated (the workspace generators
//! emit bare tokens). This is the one N-Triples line grammar: the
//! `wdpt-store` bulk loader, the only way a text file becomes a database,
//! calls it on its worker threads. Deliberate deviations from strict W3C
//! N-Triples:
//!
//! * Bare (unquoted, unbracketed) tokens are accepted as terms.
//! * Datatype (`^^<...>`) and language (`@xx`) suffixes after a literal are
//!   parsed and discarded; the trailing `.` is optional.
//! * `#` comment lines and blank lines are skipped; CRLF line endings are
//!   handled (the scanner trims trailing ASCII whitespace).
//! * `\uXXXX` and `\UXXXXXXXX` escapes are decoded in **both** IRIs and
//!   literals, alongside the usual `\n \t \r \" \\` in literals.
//!
//! The parser is pure string → string so it can run on worker threads
//! without touching an interner.

/// Decodes a `\uXXXX` (4 hex digits) or `\UXXXXXXXX` (8 hex digits) escape
/// starting at `bytes[pos]` (the `u`/`U` byte, after the backslash). Returns
/// the scalar and the position just past the escape.
fn unicode_escape(bytes: &[u8], pos: usize) -> Result<(char, usize), String> {
    let digits = match bytes[pos] {
        b'u' => 4,
        b'U' => 8,
        _ => unreachable!("caller dispatches on u/U"),
    };
    let end = pos + 1 + digits;
    if end > bytes.len() {
        return Err(format!("truncated \\{} escape", bytes[pos] as char));
    }
    let hex = std::str::from_utf8(&bytes[pos + 1..end])
        .map_err(|_| "non-ascii in unicode escape".to_string())?;
    let code = u32::from_str_radix(hex, 16).map_err(|_| format!("bad hex in escape {hex:?}"))?;
    let c = char::from_u32(code).ok_or_else(|| format!("escape U+{code:04X} is not a scalar"))?;
    Ok((c, end))
}

/// One parsed N-Triples term, with how far the scanner advanced.
fn nt_term(bytes: &[u8], mut pos: usize) -> Result<(String, usize), String> {
    while pos < bytes.len() && (bytes[pos] as char).is_whitespace() {
        pos += 1;
    }
    if pos >= bytes.len() {
        return Err("expected a term, found end of line".into());
    }
    match bytes[pos] {
        b'<' => {
            let mut out = String::new();
            let mut p = pos + 1;
            loop {
                // Bulk-copy the run up to the next delimiter or escape; the
                // common IRI has no escapes and takes one slice copy total.
                let run = p;
                while p < bytes.len() && bytes[p] != b'>' && bytes[p] != b'\\' {
                    p += 1;
                }
                if p > run {
                    let s = std::str::from_utf8(&bytes[run..p])
                        .map_err(|_| "invalid utf-8 in IRI".to_string())?;
                    out.push_str(s);
                }
                if p >= bytes.len() {
                    return Err(format!("unterminated IRI at byte {pos}"));
                }
                if bytes[p] == b'>' {
                    return Ok((out, p + 1));
                }
                // IRIs only allow the unicode escapes, not \n etc.
                match bytes.get(p + 1) {
                    Some(b'u') | Some(b'U') => {
                        let (c, next) = unicode_escape(bytes, p + 1)?;
                        out.push(c);
                        p = next;
                    }
                    _ => return Err(format!("bad IRI escape at byte {p}")),
                }
            }
        }
        b'"' => {
            let mut out = String::new();
            let mut p = pos + 1;
            loop {
                // Bulk-copy up to the next quote or escape (one slice copy
                // for the common escape-free literal).
                let run = p;
                while p < bytes.len() && bytes[p] != b'"' && bytes[p] != b'\\' {
                    p += 1;
                }
                if p > run {
                    let s = std::str::from_utf8(&bytes[run..p])
                        .map_err(|_| "invalid utf-8 in literal".to_string())?;
                    out.push_str(s);
                }
                if p >= bytes.len() {
                    return Err(format!("unterminated literal at byte {pos}"));
                }
                if bytes[p] == b'"' {
                    p += 1;
                    break;
                }
                let esc = *bytes
                    .get(p + 1)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                match esc {
                    b'u' | b'U' => {
                        let (c, next) = unicode_escape(bytes, p + 1)?;
                        out.push(c);
                        p = next;
                    }
                    other => {
                        out.push(match other {
                            b'n' => '\n',
                            b't' => '\t',
                            b'r' => '\r',
                            b'"' => '"',
                            b'\\' => '\\',
                            other => other as char,
                        });
                        p += 2;
                    }
                }
            }
            // Skip a datatype (^^<...>) or language (@xx) suffix.
            if bytes.get(p) == Some(&b'^') && bytes.get(p + 1) == Some(&b'^') {
                p += 2;
                if bytes.get(p) == Some(&b'<') {
                    while p < bytes.len() && bytes[p] != b'>' {
                        p += 1;
                    }
                    p = (p + 1).min(bytes.len());
                }
            } else if bytes.get(p) == Some(&b'@') {
                while p < bytes.len() && !(bytes[p] as char).is_whitespace() {
                    p += 1;
                }
            }
            Ok((out, p))
        }
        _ => {
            let start = pos;
            while pos < bytes.len() && !(bytes[pos] as char).is_whitespace() {
                pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..pos])
                .map_err(|_| "invalid utf-8 in token".to_string())?;
            Ok((text.to_string(), pos))
        }
    }
}

/// Parses one N-Triples line into `(subject, predicate, object)`.
/// `Ok(None)` for blank and comment lines. The line may carry its trailing
/// `\n` / `\r\n` — terminators are trimmed before scanning.
pub fn parse_nt_line(line: &str) -> Result<Option<(String, String, String)>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let bytes = trimmed.as_bytes();
    let (s, pos) = nt_term(bytes, 0)?;
    let (p, pos) = nt_term(bytes, pos)?;
    let (o, pos) = nt_term(bytes, pos)?;
    // Anything after the object must be the statement terminator.
    let rest = std::str::from_utf8(&bytes[pos..]).unwrap_or("").trim();
    if !rest.is_empty() && rest != "." {
        return Err(format!("trailing content {rest:?} after object"));
    }
    // A bare-token "object" that is just the terminator means a 2-term line.
    if o == "." {
        return Err("line has fewer than three terms".into());
    }
    Ok(Some((s, p, o)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_short_and_trailing_garbage_lines() {
        assert!(parse_nt_line("<a> <b> .").is_err());
        assert!(parse_nt_line("<a> <b> <c> <d> .").is_err());
        assert!(parse_nt_line("<a> <b <c> .").is_err());
    }

    #[test]
    fn decodes_unicode_escapes_in_literals_and_iris() {
        // The Rust raw strings below contain literal backslashes, so the
        // parser sees unicode escape sequences and must decode them.
        let line = r#"<caf\u00E9> <says> "\u2022 bullet \U0001F600" ."#;
        let (s, _, o) = parse_nt_line(line).unwrap().unwrap();
        assert_eq!(s, "caf\u{00E9}");
        assert_eq!(o, "\u{2022} bullet \u{1F600}");
        // Escaped and raw spellings of an IRI decode to the same string.
        let (s2, _, _) = parse_nt_line("<caf\u{00E9}> <says> <x> .")
            .unwrap()
            .unwrap();
        assert_eq!(s2, s);
        // An escape mixed into a literal body.
        let (_, _, o3) = parse_nt_line(r#"<a> <b> "snow\u2603man" ."#)
            .unwrap()
            .unwrap();
        assert_eq!(o3, "snow\u{2603}man");
    }

    #[test]
    fn rejects_malformed_unicode_escapes() {
        // Too few digits, bad hex, a surrogate, and a non-unicode IRI escape.
        assert!(parse_nt_line(r#"<a> <b> "\u12" ."#).is_err());
        assert!(parse_nt_line(r#"<a> <b> "\uZZZZ" ."#).is_err());
        assert!(parse_nt_line(r#"<a> <b> "\uD800" ."#).is_err());
        assert!(parse_nt_line(r#"<a\n> <b> <c> ."#).is_err());
    }

    #[test]
    fn handles_crlf_terminators_and_comment_lines() {
        // A raw line with its terminator still attached parses, and the
        // literal does not absorb the \r.
        let parsed = parse_nt_line("<x> <y> \"z\" .\r\n").unwrap().unwrap();
        assert_eq!(parsed, ("x".into(), "y".into(), "z".into()));
        // Blank, whitespace-only and (indented) comment lines are no triple;
        // a `#` inside a literal is data.
        for line in ["", "   \r\n", "\t", "  # indented comment", "#tail"] {
            assert_eq!(parse_nt_line(line), Ok(None), "{line:?}");
        }
        let (_, _, o) = parse_nt_line("<a> <b> \"#not a comment\" .")
            .unwrap()
            .unwrap();
        assert_eq!(o, "#not a comment");
    }

    #[test]
    fn trailing_dot_is_optional() {
        assert_eq!(
            parse_nt_line("<a> <b> <c>").unwrap().unwrap(),
            ("a".into(), "b".into(), "c".into())
        );
    }
}
