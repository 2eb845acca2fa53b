//! File format tests, snapshots and deltas alike: truncation, bit-flip and
//! length-bomb resistance of the two block codecs, and the size guarantee
//! the column encoding exists for. (Lossless round trips live in
//! `roundtrip.rs`, the remaining corruption sweeps in `corruption.rs`.)

use wdpt_model::{Database, Interner};
use wdpt_store::{
    content_hash, crc32, decode_delta, decode_snapshot, decode_with_deltas, delta_to_vec,
    snapshot_to_vec_v2, StoreError, VERSION,
};

fn sample_snapshot_v2() -> Vec<u8> {
    let mut i = Interner::new();
    let e = i.pred("edge");
    let n = i.pred("node");
    let (a, b, c) = (i.constant("a"), i.constant("b"), i.constant("caf\u{00E9}"));
    i.var("x");
    let mut db = Database::new();
    db.insert(e, vec![a, b]);
    db.insert(e, vec![b, c]);
    db.insert(e, vec![a, c]);
    db.insert(n, vec![a]);
    db.insert(n, vec![b]);
    snapshot_to_vec_v2(&i, &db).unwrap()
}

/// The sample's pair, a delta on top of it (new symbols, rows for an old
/// and a new relation), and the base file the delta chains to.
fn sample_delta() -> (Vec<u8>, Vec<u8>) {
    let base = sample_snapshot_v2();
    let (i, db) = decode_snapshot(&base).unwrap();
    let (mut ni, mut ndb) = (i.clone(), db.clone());
    let (e, l) = (ni.pred("edge"), ni.pred("label"));
    let (a, d, z) = (ni.constant("a"), ni.constant("d"), ni.constant("zz"));
    ndb.insert(e, vec![d, a]);
    ndb.insert(e, vec![a, z]);
    ndb.insert(l, vec![z]);
    let delta = delta_to_vec(content_hash(&base), &i, &db, &ni, &ndb).unwrap();
    (base, delta)
}

#[test]
fn every_v2_truncation_is_a_typed_error() {
    let bytes = sample_snapshot_v2();
    for len in 0..bytes.len() {
        match decode_snapshot(&bytes[..len]) {
            Ok(_) => panic!("decode of {len}-byte prefix succeeded"),
            Err(
                StoreError::Truncated { .. }
                | StoreError::BadMagic
                | StoreError::ChecksumMismatch { .. }
                | StoreError::Malformed { .. },
            ) => {}
            Err(other) => panic!("prefix of {len} bytes gave unexpected error: {other}"),
        }
    }
}

#[test]
fn every_v2_single_byte_flip_is_a_typed_error() {
    let bytes = sample_snapshot_v2();
    let mut mutated = bytes.clone();
    for i in 0..bytes.len() {
        for bit in [0x01u8, 0x80u8] {
            mutated[i] ^= bit;
            match decode_snapshot(&mutated) {
                Err(
                    StoreError::BadMagic
                    | StoreError::UnsupportedVersion(_)
                    | StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Malformed { .. },
                ) => {}
                Err(other) => panic!("flip at byte {i}: unexpected error {other}"),
                Ok(_) => panic!("flip at byte {i} went undetected"),
            }
            mutated[i] ^= bit;
        }
    }
    assert_eq!(mutated, bytes, "mutation loop must restore the input");
}

#[test]
fn every_delta_truncation_is_a_typed_error() {
    let (base, delta) = sample_delta();
    assert_eq!(
        decode_with_deltas(&base, std::slice::from_ref(&delta))
            .unwrap()
            .1
            .size(),
        8
    );
    for len in 0..delta.len() {
        match decode_delta(&delta[..len]) {
            Ok(_) => panic!("decode of {len}-byte prefix succeeded"),
            Err(
                StoreError::Truncated { .. }
                | StoreError::BadMagic
                | StoreError::ChecksumMismatch { .. }
                | StoreError::Malformed { .. },
            ) => {}
            Err(other) => panic!("prefix of {len} bytes gave unexpected error: {other}"),
        }
    }
}

#[test]
fn every_delta_single_byte_flip_is_a_typed_error() {
    let (base, delta) = sample_delta();
    let mut mutated = delta.clone();
    for i in 0..delta.len() {
        for bit in [0x01u8, 0x80u8] {
            mutated[i] ^= bit;
            // The whole way: parse, chain check, apply.
            match decode_with_deltas(&base, std::slice::from_ref(&mutated)) {
                Err(
                    StoreError::BadMagic
                    | StoreError::UnsupportedVersion(_)
                    | StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Malformed { .. },
                ) => {}
                Err(other) => panic!("flip at byte {i}: unexpected error {other}"),
                Ok(_) => panic!("flip at byte {i} went undetected"),
            }
            mutated[i] ^= bit;
        }
    }
    assert_eq!(mutated, delta, "mutation loop must restore the input");
}

// ---------------------------------------------------------------------------
// Section surgery helpers: locate a section in a serialized snapshot/delta,
// patch its payload, and re-stamp the CRC so only the *semantic* check under
// test can reject the file.

const FRAME: usize = 13; // tag u8 + len u64 + crc u32

/// Returns `(payload_start, payload_len)` of the first section with `tag`.
fn find_section(bytes: &[u8], tag: u8) -> (usize, usize) {
    let mut pos = 12; // magic + version
    while pos < bytes.len() {
        let t = bytes[pos];
        let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
        if t == tag {
            return (pos + 9, len);
        }
        pos += FRAME + len;
    }
    panic!("no section with tag {tag:#x}");
}

/// Recomputes the CRC of the section whose payload starts at `payload_start`.
fn restamp_crc(bytes: &mut [u8], payload_start: usize, payload_len: usize) {
    let span = &bytes[payload_start - 9..payload_start + payload_len];
    let crc = crc32(span);
    bytes[payload_start + payload_len..payload_start + payload_len + 4]
        .copy_from_slice(&crc.to_le_bytes());
}

fn expect_bomb_rejected(what: &str, result: Result<(Interner, Database), StoreError>) {
    match result {
        Err(StoreError::Malformed { .. } | StoreError::Truncated { .. }) => {}
        Err(other) => panic!("{what}: unexpected error {other}"),
        Ok(_) => panic!("{what}: length bomb went undetected"),
    }
}

/// Offsets inside a relation block: `pred u32 · arity u32 · rows u64`, then
/// one `cells bytes u64` per column.
const ARITY_AT: usize = 4;
const ROWS_AT: usize = 8;
const TABLE_AT: usize = 16;

/// `bytes` with `value` written over the field at `at` of the first section
/// tagged `tag`, the CRC re-stamped.
fn patched(bytes: &[u8], tag: u8, at: usize, value: &[u8]) -> Vec<u8> {
    let mut bomb = bytes.to_vec();
    let (start, len) = find_section(&bomb, tag);
    bomb[start + at..start + at + value.len()].copy_from_slice(value);
    restamp_crc(&mut bomb, start, len);
    bomb
}

/// The relation-block bombs, against either file kind: each must be refused
/// on the declared sizes alone, before a run is allocated from them.
fn relation_block_bombs(
    file: &[u8],
    tag: u8,
    decode: impl Fn(Vec<u8>) -> Result<(Interner, Database), StoreError>,
) {
    // Rows at the u32 ceiling over blobs of a few bytes: every cell takes
    // at least one byte, so the blobs cannot hold them.
    let bomb = patched(file, tag, ROWS_AT, &u64::from(u32::MAX).to_le_bytes());
    expect_bomb_rejected("row-count bomb", decode(bomb));
    // … and past it.
    let bomb = patched(file, tag, ROWS_AT, &(u64::MAX / 2).to_le_bytes());
    expect_bomb_rejected("row-count overflow", decode(bomb));
    // An arity the payload cannot hold: each column owes an 8-byte entry.
    let bomb = patched(file, tag, ARITY_AT, &u32::MAX.to_le_bytes());
    expect_bomb_rejected("arity bomb", decode(bomb));
    // A cells blob longer than the payload.
    let bomb = patched(file, tag, TABLE_AT, &(u64::MAX / 2).to_le_bytes());
    expect_bomb_rejected("cells-bytes bomb", decode(bomb));
    // A cells blob shorter than its row count (and the next one that much
    // longer, so the payload still adds up).
    let (start, _) = find_section(file, tag);
    let field =
        |at: usize| u64::from_le_bytes(file[start + at..start + at + 8].try_into().unwrap());
    let (rows, cells0, cells1) = (field(ROWS_AT), field(TABLE_AT), field(TABLE_AT + 8));
    assert!(rows >= 2 && cells0 == rows, "one-byte cells expected");
    let mut table = (cells0 - 1).to_le_bytes().to_vec();
    table.extend_from_slice(&(cells1 + 1).to_le_bytes());
    let bomb = patched(file, tag, TABLE_AT, &table);
    match decode(bomb) {
        Err(StoreError::Malformed { detail, .. }) => {
            assert!(detail.contains("cells bytes"), "refused late: {detail}")
        }
        other => panic!(
            "short cells blob: expected Malformed, got {:?}",
            other.err()
        ),
    }
}

#[test]
fn v2_length_bombs_are_rejected_without_allocation() {
    let bytes = sample_snapshot_v2();
    relation_block_bombs(&bytes, 0x06, |bomb| decode_snapshot(&bomb));

    // Dictionary claims far more symbols than the payload encodes.
    let bomb = patched(&bytes, 0x01, 0, &u64::MAX.to_le_bytes());
    expect_bomb_rejected("v2 symbol-count bomb", decode_snapshot(&bomb));
}

#[test]
fn delta_length_bombs_are_rejected_without_allocation() {
    let (base, delta) = sample_delta();
    let decode = |bomb: Vec<u8>| decode_with_deltas(&base, &[bomb]);
    relation_block_bombs(&delta, 0x05, decode);

    // Delta header claims u32::MAX relation sections.
    let bomb = patched(&delta, 0x04, 32, &u32::MAX.to_le_bytes());
    expect_bomb_rejected("delta relation-count bomb", decode(bomb));
    // … or far more appended symbols than the dictionary block encodes.
    let bomb = patched(&delta, 0x04, 16, &u64::from(u32::MAX).to_le_bytes());
    expect_bomb_rejected("delta symbol-count bomb", decode(bomb));
}

#[test]
fn snapshots_stay_under_the_bytes_per_triple_budget() {
    // The acceptance bar for the columnar encoding, as the same absolute
    // budget CI's store_smoke holds 1M triples to: 7 bytes per triple on a
    // realistically-shaped dataset (synthetic triples, mild skew; measured
    // 6.1 here, 5.5 at 1M).
    let mut nt = Vec::new();
    wdpt_gen::write_synth_nt(&mut nt, wdpt_gen::SynthParams::sized_skewed(50_000, 3)).unwrap();
    let mut i = Interner::new();
    let db = wdpt_store::read_text_database(&mut i, &mut std::io::BufReader::new(nt.as_slice()))
        .unwrap();
    let bytes = snapshot_to_vec_v2(&i, &db).unwrap();
    assert!(
        bytes.len() <= 7 * db.size(),
        "{} bytes for {} triples ({:.2} B/triple)",
        bytes.len(),
        db.size(),
        bytes.len() as f64 / db.size() as f64
    );
    // And the compressed form still decodes to the same database.
    let (_, db2) = decode_snapshot(&bytes).unwrap();
    assert_eq!(db.size(), db2.size());
    assert_eq!(db.active_domain(), db2.active_domain());
}

#[test]
fn header_version_and_inspect_report_the_sections() {
    let bytes = sample_snapshot_v2();
    let summary = wdpt_store::inspect_snapshot(&bytes).unwrap();
    assert_eq!(summary.header.version, VERSION);
    assert_eq!(summary.relations.len(), 2);
    let sections: usize = summary.relations.iter().map(|r| r.bytes).sum();
    assert!(sections + summary.dict_bytes < summary.bytes);
}
