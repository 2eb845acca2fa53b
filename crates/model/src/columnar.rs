//! Zero-copy columnar relation backing for WDPTSNAP snapshots.
//!
//! A [`ColumnarRelation`] is a set of offset+len views into one shared
//! `Arc<[u8]>` holding the raw snapshot bytes: per column, a **cells blob**
//! (the column run, zigzag-delta varint coded) and a **key directory**
//! (ascending distinct values with posting-list lengths, delta varint
//! coded). Building one costs pointer arithmetic only — the store crate
//! validates the streams once at load time (after CRC verification), and
//! the decoders here run lazily on first touch, behind the `OnceLock` of
//! [`crate::database::Relation`]'s run.
//!
//! The cells decode straight into the relation's flat row-major run
//! ([`ColumnarRelation::decode_run`]); nothing else is derived from them
//! here. The key directory exists so statistics (distinct counts,
//! posting-length sketches) and the active domain can be computed by a
//! streaming scan without decoding anything.
//!
//! The varint/zigzag codecs live here (rather than in the store crate) so
//! the encoder, the load-time validator, and the lazy decoder share one
//! definition.

use crate::term::Const;
use std::ops::Range;
use std::sync::Arc;

/// Appends `v` as a little-endian base-128 varint (LEB128, 1–10 bytes).
pub fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
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
pub fn read_uvarint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
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
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes a column run as zigzag varints of consecutive differences
/// (previous value starts at 0).
pub fn encode_cells(out: &mut Vec<u8>, cells: impl Iterator<Item = u32>) {
    let mut prev = 0i64;
    for c in cells {
        write_uvarint(out, zigzag(i64::from(c) - prev));
        prev = i64::from(c);
    }
}

/// Encodes the key directory: per ascending distinct value, the key delta
/// (first key absolute, then strictly positive gaps) followed by its
/// posting-list length.
pub fn encode_key_dir(out: &mut Vec<u8>, pairs: impl Iterator<Item = (u32, u32)>) {
    let mut prev: Option<u32> = None;
    for (key, len) in pairs {
        let delta = match prev {
            None => u64::from(key),
            Some(p) => u64::from(key) - u64::from(p),
        };
        write_uvarint(out, delta);
        write_uvarint(out, u64::from(len));
        prev = Some(key);
    }
}

/// One column's views into the shared snapshot buffer.
#[derive(Debug, Clone)]
pub struct ColumnSlices {
    /// Byte range of the zigzag-delta cells blob.
    pub cells: Range<usize>,
    /// Number of distinct values (entries in the key directory).
    pub keys: usize,
    /// Byte range of the delta-coded `(key, posting_len)` directory.
    pub key_dir: Range<usize>,
}

/// An immutable relation whose payload lives inside a shared snapshot
/// buffer. Construction is pointer setup; all decoding is deferred to the
/// accessors below. The store crate is responsible for having validated
/// the streams (varint well-formedness, counts, sortedness, namespaces)
/// before handing ranges here, so the decoders are clamped/defensive but
/// never report errors.
#[derive(Debug, Clone)]
pub struct ColumnarRelation {
    raw: Arc<[u8]>,
    arity: usize,
    rows: usize,
    columns: Vec<ColumnSlices>,
}

impl ColumnarRelation {
    /// Wraps pre-validated ranges of `raw`. `columns.len()` must equal
    /// `arity`; `rows` must fit the `u32` row-id space.
    pub fn new(raw: Arc<[u8]>, arity: usize, rows: usize, columns: Vec<ColumnSlices>) -> Self {
        debug_assert_eq!(columns.len(), arity);
        debug_assert!(u32::try_from(rows).is_ok());
        ColumnarRelation {
            raw,
            arity,
            rows,
            columns,
        }
    }

    /// Number of tuples (known without decoding anything).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Decodes the relation into its flat row-major run: `rows × arity`
    /// cells, row `r` at `[r * arity, (r + 1) * arity)` — the one
    /// expensive step of a load, deferred until a scan or probe needs the
    /// rows. Validated streams yield exactly `rows` in-range cells per
    /// column; a malformed stream (unreachable through the store's load
    /// path) is clamped and zero-padded so callers can never index out of
    /// bounds.
    pub fn decode_run(&self) -> Vec<Const> {
        let mut run = vec![Const(0); self.rows * self.arity];
        for (col, slices) in self.columns.iter().enumerate() {
            let blob = &self.raw[slices.cells.clone()];
            let mut pos = 0usize;
            let mut prev = 0i64;
            for cell in run.iter_mut().skip(col).step_by(self.arity) {
                let Some(d) = read_uvarint(blob, &mut pos) else {
                    break;
                };
                prev = prev.saturating_add(unzigzag(d));
                *cell = Const(prev.clamp(0, i64::from(u32::MAX)) as u32);
            }
        }
        run
    }

    /// Streams `(value, posting_len)` pairs of one column from the key
    /// directory — distinct values in ascending order, no allocation, no
    /// cell decode. This is what statistics and the active domain read.
    pub fn scan_key_dir(&self, col: usize, mut f: impl FnMut(Const, u32)) {
        let blob = &self.raw[self.columns[col].key_dir.clone()];
        let mut pos = 0usize;
        let mut key = 0u64;
        for i in 0..self.columns[col].keys {
            let Some(delta) = read_uvarint(blob, &mut pos) else {
                return;
            };
            key = if i == 0 {
                delta
            } else {
                key.saturating_add(delta)
            };
            let Some(len) = read_uvarint(blob, &mut pos) else {
                return;
            };
            f(
                Const(key.min(u64::from(u32::MAX)) as u32),
                len.min(u64::from(u32::MAX)) as u32,
            );
        }
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
    fn cells_and_directory_round_trip_through_blobs() {
        let col0 = [3u32, 3, 3, 7, 9, 9];
        let col0_expected = col0.to_vec();
        let col1 = [10u32, 2, 30, 1, 500, 4];
        let mut raw = Vec::new();
        let c0 = {
            let start = raw.len();
            encode_cells(&mut raw, col0.iter().copied());
            start..raw.len()
        };
        let c1 = {
            let start = raw.len();
            encode_cells(&mut raw, col1.iter().copied());
            start..raw.len()
        };
        let d0 = {
            let start = raw.len();
            encode_key_dir(&mut raw, [(3u32, 3u32), (7, 1), (9, 2)].into_iter());
            start..raw.len()
        };
        let d1 = {
            let start = raw.len();
            encode_key_dir(
                &mut raw,
                [(1u32, 1u32), (2, 1), (4, 1), (10, 1), (30, 1), (500, 1)].into_iter(),
            );
            start..raw.len()
        };
        let rel = ColumnarRelation::new(
            Arc::from(raw.into_boxed_slice()),
            2,
            6,
            vec![
                ColumnSlices {
                    cells: c0,
                    keys: 3,
                    key_dir: d0,
                },
                ColumnSlices {
                    cells: c1,
                    keys: 6,
                    key_dir: d1,
                },
            ],
        );
        let run = rel.decode_run();
        assert_eq!(run.len(), 6 * 2);
        assert_eq!(&run[3 * 2..4 * 2], &[Const(7), Const(1)]);
        let col0: Vec<u32> = run.iter().step_by(2).map(|c| c.0).collect();
        assert_eq!(col0, col0_expected);
        let mut dir = Vec::new();
        rel.scan_key_dir(0, |k, n| dir.push((k.0, n)));
        assert_eq!(dir, vec![(3, 3), (7, 1), (9, 2)]);
    }

    #[test]
    fn malformed_streams_clamp_instead_of_panicking() {
        // Truncated cells blob, oversized claims: decoders must stay in
        // bounds and produce exactly `rows` rows regardless.
        let rel = ColumnarRelation::new(
            Arc::from(vec![0x80u8].into_boxed_slice()),
            1,
            4,
            vec![ColumnSlices {
                cells: 0..1,
                keys: 9,
                key_dir: 0..1,
            }],
        );
        assert_eq!(rel.decode_run().len(), 4, "zero-padded to the row count");
        let mut seen = 0;
        rel.scan_key_dir(0, |_, _| seen += 1);
        assert_eq!(seen, 0, "truncated directory stops cleanly");
    }
}
