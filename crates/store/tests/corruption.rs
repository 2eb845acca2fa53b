//! Corruption tests: damage to a valid snapshot must decode to a typed
//! [`StoreError`] — never a panic, never a silently wrong database. (The
//! exhaustive truncation and single-byte-flip sweeps over `decode_snapshot`
//! live in `v2_format.rs`.)

use wdpt_model::{Database, Interner};
use wdpt_store::{
    content_hash, decode_delta, decode_snapshot, decode_with_deltas, delta_to_vec,
    inspect_snapshot, snapshot_to_vec_v2, StoreError, MAGIC,
};

fn sample_snapshot() -> Vec<u8> {
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
fn flips_in_section_bodies_hit_the_checksum() {
    // Past magic+version, a flip lands inside some section's checksummed
    // span — tag, length, payload, or the CRC itself — and every case must
    // be a checksum mismatch (lengths can also surface as truncation when
    // the inflated length overruns the file).
    let bytes = sample_snapshot();
    let mut mutated = bytes.clone();
    let mut mismatches = 0usize;
    for i in 12..bytes.len() {
        mutated[i] ^= 0x40;
        match decode_snapshot(&mutated) {
            Err(StoreError::ChecksumMismatch { .. }) => mismatches += 1,
            Err(StoreError::Truncated { .. }) => {}
            Err(other) => panic!("flip at byte {i}: unexpected error {other}"),
            Ok(_) => panic!("flip at byte {i} went undetected"),
        }
        mutated[i] ^= 0x40;
    }
    assert!(
        mismatches > (bytes.len() - 12) / 2,
        "most section flips should be checksum mismatches, got {mismatches}"
    );
}

#[test]
fn appended_garbage_is_rejected() {
    let mut bytes = sample_snapshot();
    bytes.push(0);
    match decode_snapshot(&bytes) {
        Err(StoreError::Malformed { section, .. }) => assert_eq!(section, "end"),
        other => panic!("expected Malformed end, got {other:?}"),
    }
}

#[test]
fn truncated_and_flipped_snapshots_never_pass_inspect_silently_wrong() {
    // inspect (CRC walk only) must also flag every flip: it reads the same
    // checksums. It cannot catch semantic damage that decode validates, but
    // nothing may panic.
    let bytes = sample_snapshot();
    assert!(inspect_snapshot(&bytes).is_ok());
    let mut mutated = bytes.clone();
    for i in 0..bytes.len() {
        mutated[i] ^= 0xFF;
        assert!(inspect_snapshot(&mutated).is_err(), "flip at byte {i}");
        mutated[i] ^= 0xFF;
    }
    for len in 0..bytes.len() {
        assert!(inspect_snapshot(&bytes[..len]).is_err(), "prefix {len}");
    }
}

#[test]
fn empty_and_tiny_inputs_are_handled() {
    assert!(matches!(
        decode_snapshot(&[]),
        Err(StoreError::Truncated { .. })
    ));
    assert!(matches!(
        decode_snapshot(b"WDPT"),
        Err(StoreError::Truncated { .. })
    ));
    assert!(matches!(
        decode_snapshot(b"NOTASNAPSHOT"),
        Err(StoreError::BadMagic)
    ));
}

#[test]
fn a_version_1_file_is_refused_by_version_not_by_accident() {
    // The retired row-major format: a well-formed magic + version prefix is
    // all it takes. It must surface as the typed version error (with the
    // rebuild hint), whatever follows — not as truncation, a bad tag, or a
    // checksum complaint.
    let mut v1 = MAGIC.to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    for tail in [&[][..], &[0x01, 0, 0, 0][..], &sample_snapshot()[12..]] {
        let mut bytes = v1.clone();
        bytes.extend_from_slice(tail);
        for result in [
            decode_snapshot(&bytes).map(|_| ()),
            inspect_snapshot(&bytes).map(|_| ()),
        ] {
            match result {
                Err(e @ StoreError::UnsupportedVersion(1)) => {
                    assert!(e.to_string().contains("rebuild"), "no hint in: {e}")
                }
                other => panic!("expected UnsupportedVersion(1), got {other:?}"),
            }
        }
    }
}

#[test]
fn a_version_2_snapshot_and_a_version_1_delta_are_refused_by_version() {
    // The formats with key directories (snapshot 2) and fixed-width cells
    // (delta 1): the version field alone refuses them, whatever follows —
    // their sections are never parsed as today's.
    let base = sample_snapshot();
    let (i, db) = decode_snapshot(&base).unwrap();
    let delta = delta_to_vec(content_hash(&base), &i, &db, &i, &db).unwrap();

    let mut v2 = base.clone();
    v2[8..12].copy_from_slice(&2u32.to_le_bytes());
    for result in [
        decode_snapshot(&v2).map(|_| ()),
        inspect_snapshot(&v2).map(|_| ()),
        decode_with_deltas(&v2, &[]).map(|_| ()),
    ] {
        match result {
            Err(e @ StoreError::UnsupportedVersion(2)) => {
                assert!(e.to_string().contains("rebuild"), "no hint in: {e}")
            }
            other => panic!("expected UnsupportedVersion(2), got {other:?}"),
        }
    }

    let mut v1 = delta.clone();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    for result in [
        decode_delta(&v1).map(|_| ()),
        decode_with_deltas(&base, &[v1.clone()]).map(|_| ()),
    ] {
        assert!(
            matches!(result, Err(StoreError::UnsupportedVersion(1))),
            "expected UnsupportedVersion(1), got {result:?}"
        );
    }
    // Today's delta still applies: only the version field was in the way.
    assert!(decode_with_deltas(&base, &[delta]).is_ok());
}
