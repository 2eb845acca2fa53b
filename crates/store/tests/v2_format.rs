//! Snapshot format tests: lazy decode behavior, corruption and length-bomb
//! resistance, the size guarantee the columnar encoding exists for, and the
//! deep-verify net under forged-but-CRC-valid key directories. (Lossless
//! round trips live in `roundtrip.rs`, the remaining corruption sweeps in
//! `corruption.rs`.)

use wdpt_gen::Lcg;
use wdpt_model::{Database, Interner};
use wdpt_store::{
    crc32, decode_snapshot, snapshot_to_vec_v2, verify_database_deep, StoreError, VERSION,
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

#[test]
fn v2_decode_is_lazy_and_stats_scans_stay_lazy() {
    let mut i = Interner::new();
    let e = i.pred("e");
    let consts: Vec<_> = (0..20).map(|k| i.constant(&format!("c{k}"))).collect();
    let mut db = Database::new();
    let mut rng = Lcg::new(9);
    for _ in 0..200 {
        db.insert(
            e,
            vec![
                consts[rng.gen_range(0..consts.len())],
                consts[rng.gen_range(0..consts.len())],
            ],
        );
    }
    let n = db.size() as u64; // inserts drop duplicates
    let bytes = snapshot_to_vec_v2(&i, &db).unwrap();
    let (_, db2) = decode_snapshot(&bytes).unwrap();
    let rel = db2.relation(e).unwrap();
    assert!(rel.is_lazy(), "fresh v2 decode must not materialize");
    assert_eq!(
        rel.len() as u64,
        n,
        "len comes from the header, not a decode"
    );

    // The statistics path streams posting lengths from the serialized key
    // directory without decoding any column.
    let mut streamed = 0u64;
    rel.scan_posting_lens(0, |_, n| streamed += u64::from(n));
    assert_eq!(streamed, n);
    assert!(rel.is_lazy(), "directory scan must keep the relation lazy");

    // The active domain likewise comes from the directories alone.
    assert_eq!(db2.active_domain(), db.active_domain());
    assert!(db2.relation(e).unwrap().is_lazy());

    // A real probe decodes on demand and answers correctly.
    let probe = vec![Some(consts[0]), None];
    let mut a: Vec<_> = db.relation(e).unwrap().matching(&probe).collect();
    let mut b: Vec<_> = db2.relation(e).unwrap().matching(&probe).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
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

#[test]
fn v2_length_bombs_are_rejected_without_allocation() {
    let bytes = sample_snapshot_v2();

    // Rows inflated to the u32 ceiling: caught against the cells byte count.
    let mut bomb = bytes.clone();
    let (rs, rl) = find_section(&bomb, 0x06);
    bomb[rs + 8..rs + 16].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
    restamp_crc(&mut bomb, rs, rl);
    expect_bomb_rejected("v2 row-count bomb", decode_snapshot(&bomb));

    // Arity inflated: each column owes a 24-byte table entry.
    let mut bomb = bytes.clone();
    let (rs, rl) = find_section(&bomb, 0x06);
    bomb[rs + 4..rs + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp_crc(&mut bomb, rs, rl);
    expect_bomb_rejected("v2 arity bomb", decode_snapshot(&bomb));

    // Key count inflated past what the directory bytes can hold.
    let mut bomb = bytes.clone();
    let (rs, rl) = find_section(&bomb, 0x06);
    bomb[rs + 24..rs + 32].copy_from_slice(&(u64::MAX / 2).to_le_bytes()); // col 0 keys
    restamp_crc(&mut bomb, rs, rl);
    expect_bomb_rejected("v2 key-count bomb", decode_snapshot(&bomb));

    // Dictionary claims far more symbols than the payload encodes.
    let mut bomb = bytes;
    let (hs, hl) = find_section(&bomb, 0x01);
    bomb[hs..hs + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    restamp_crc(&mut bomb, hs, hl);
    expect_bomb_rejected("v2 symbol-count bomb", decode_snapshot(&bomb));
}

#[test]
fn delta_length_bombs_are_rejected_without_allocation() {
    let mut i = Interner::new();
    let e = i.pred("e");
    let (a, b) = (i.constant("a"), i.constant("b"));
    let mut db = Database::new();
    db.insert(e, vec![a, a]);
    let base = snapshot_to_vec_v2(&i, &db).unwrap();
    let mut i2 = i.clone();
    let mut db2 = db.clone();
    let c = i2.constant("c");
    db2.insert(e, vec![b, c]);
    let delta =
        wdpt_store::delta_to_vec(wdpt_store::content_hash(&base), &i, &db, &i2, &db2).unwrap();

    let check = |bomb: &[u8], what: &str| {
        expect_bomb_rejected(
            what,
            wdpt_store::decode_with_deltas(&base, &[bomb.to_vec()]),
        );
    };

    // Delta header claims u32::MAX relation sections.
    let mut bomb = delta.clone();
    let (hs, hl) = find_section(&bomb, 0x04);
    bomb[hs + 32..hs + 36].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp_crc(&mut bomb, hs, hl);
    check(&bomb, "delta relation-count bomb");

    // Relation delta claims ~u64::MAX rows in a few cell bytes.
    let mut bomb = delta.clone();
    let (rs, rl) = find_section(&bomb, 0x05);
    bomb[rs + 8..rs + 16].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    restamp_crc(&mut bomb, rs, rl);
    check(&bomb, "delta row-count bomb");

    // Relation delta claims u32::MAX columns.
    let mut bomb = delta;
    let (rs, rl) = find_section(&bomb, 0x05);
    bomb[rs + 4..rs + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp_crc(&mut bomb, rs, rl);
    check(&bomb, "delta arity bomb");
}

#[test]
fn forged_key_directory_passes_decode_but_fails_deep_verify() {
    // Column cells and the key directory are independently CRC-protected,
    // so a *writer* bug (or a deliberate forgery that re-stamps the CRC)
    // could ship a directory that is internally consistent — ascending
    // in-namespace keys, lengths summing to the row count — yet disagrees
    // with the cells. Decode accepts it (queries never read the directory,
    // so answers stay correct); `verify_database_deep` must reject it.
    let mut i = Interner::new();
    let e = i.pred("e");
    let a = i.constant("a");
    let b = i.constant("b");
    let c = i.constant("c"); // interned but unused: the forged key
    let x = i.constant("x");
    let mut db = Database::new();
    db.insert(e, vec![a, x]);
    db.insert(e, vec![b, x]);
    let mut bytes = snapshot_to_vec_v2(&i, &db).unwrap();

    let (rs, rl) = find_section(&bytes, 0x06);
    let arity = u32::from_le_bytes(bytes[rs + 4..rs + 8].try_into().unwrap()) as usize;
    assert_eq!(arity, 2);
    let cells0 = u64::from_le_bytes(bytes[rs + 16..rs + 24].try_into().unwrap()) as usize;
    let dir0_bytes = u64::from_le_bytes(bytes[rs + 32..rs + 40].try_into().unwrap()) as usize;
    // Column 0 directory is [(a,1), (b,1)] = 4 single-byte varints:
    // key a, len 1, delta b-a, len 1.
    let dir0 = rs + 16 + arity * 24 + cells0;
    assert_eq!(dir0_bytes, 4);
    assert_eq!(bytes[dir0], a.0 as u8);
    assert_eq!(bytes[dir0 + 2], (b.0 - a.0) as u8);
    // Forge the second key from b to c (same byte length, still ascending,
    // still a constant, lengths still sum to the 2 rows).
    bytes[dir0 + 2] = (c.0 - a.0) as u8;
    restamp_crc(&mut bytes, rs, rl);

    let (_, forged) = decode_snapshot(&bytes).expect("forged directory is CRC- and shape-valid");
    // Queries still answer from the cells, correctly.
    let probe = vec![Some(b), None];
    assert_eq!(forged.relation(e).unwrap().matching(&probe).count(), 1);
    // But the deep check cross-references the directory against the cells.
    let err = verify_database_deep(&forged).expect_err("forged directory must fail deep verify");
    assert!(matches!(err, StoreError::Malformed { .. }), "{err}");
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
