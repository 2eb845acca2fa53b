//! The variable-length integer codec of the file formats: LEB128 varints,
//! zigzag for signed deltas, and the column encoding built from the two —
//! a column of `u32` cells as the zigzag varints of consecutive
//! differences. Dictionary blocks ([`crate::format`]) count their prefix
//! and suffix lengths in varints; relation blocks store every column as one
//! [`encode_cells`] blob. Nothing outside this crate knows the encoding.

/// Appends `v` as a little-endian base-128 varint (LEB128, 1–10 bytes).
pub(crate) fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Reads one varint starting at `*pos`, advancing `*pos` past it. Returns
/// `None` on a truncated or overlong (≥ 10 continuation bytes) encoding —
/// never panics, never reads past `bytes`.
#[inline]
pub(crate) fn read_uvarint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Zigzag-maps a signed delta onto unsigned so small magnitudes of either
/// sign encode in few varint bytes.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes a column run as zigzag varints of consecutive differences
/// (previous value starts at 0).
pub(crate) fn encode_cells(out: &mut Vec<u8>, cells: impl Iterator<Item = u32>) {
    let mut prev = 0i64;
    for c in cells {
        write_uvarint(out, zigzag(i64::from(c) - prev));
        prev = i64::from(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_round_trips_across_magnitudes() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &values {
            write_uvarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_uvarint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
        assert_eq!(read_uvarint(&buf, &mut pos), None, "exhausted");
    }

    #[test]
    fn uvarint_rejects_truncated_and_overlong() {
        // Truncated: continuation bit set, no next byte.
        assert_eq!(read_uvarint(&[0x80], &mut 0), None);
        // Overlong: eleven continuation bytes exceed 64 bits of payload.
        let overlong = [0x80u8; 10];
        let mut with_end = overlong.to_vec();
        with_end.push(0x01);
        assert_eq!(read_uvarint(&with_end, &mut 0), None);
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            i64::from(u32::MAX),
            i64::MIN,
            i64::MAX,
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small: |v| ≤ 63 fits one varint byte.
        assert!(zigzag(-63) < 128);
        assert!(zigzag(63) < 128);
    }

    #[test]
    fn cells_encode_as_zigzag_deltas() {
        let mut blob = Vec::new();
        encode_cells(&mut blob, [3u32, 3, 7, 2, u32::MAX].into_iter());
        let mut pos = 0;
        let mut prev = 0i64;
        let mut decoded = Vec::new();
        while pos < blob.len() {
            prev += unzigzag(read_uvarint(&blob, &mut pos).unwrap());
            decoded.push(prev);
        }
        assert_eq!(decoded, [3, 3, 7, 2, i64::from(u32::MAX)]);
        // Small steps in either direction cost one byte each.
        assert_eq!(blob.len(), 4 + 5);
    }
}
