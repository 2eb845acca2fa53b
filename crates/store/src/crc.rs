//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial), slicing-by-8, std-only:
//! eight bytes a step, with the checksums of the byte-at-a-time loop.
//!
//! Every snapshot section carries a CRC over its tag, length, and payload,
//! so any single flipped byte anywhere in a section is guaranteed to be
//! detected (CRC-32 detects all burst errors up to 32 bits) and surfaces as
//! a typed [`crate::StoreError::ChecksumMismatch`] instead of a garbled
//! database.

const POLY: u32 = 0xEDB8_8320;

/// The slicing-by-8 tables: `TABLES[0][b]` is the CRC of byte `b` alone,
/// and `TABLES[k][b]` that of `b` followed by `k` zero bytes, so eight
/// lookups advance the checksum by eight bytes at once.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// One byte-at-a-time step: the checksum `crc` followed by `b`.
#[inline]
fn step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize]
}

/// A streaming CRC-32 accumulator.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feeds bytes into the checksum: eight at a time, then the rest one
    /// at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let at = |word: u32, shift: u32| ((word >> shift) & 0xFF) as usize;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][at(lo, 0)]
                ^ t[6][at(lo, 8)]
                ^ t[5][at(lo, 16)]
                ^ t[4][at(lo, 24)]
                ^ t[3][at(hi, 0)]
                ^ t[2][at(hi, 8)]
                ^ t[1][at(hi, 16)]
                ^ t[0][at(hi, 24)];
        }
        self.state = words.remainder().iter().fold(crc, |crc, &b| step(crc, b));
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot convenience over [`Crc32`].
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: one byte per table step.
    fn bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0, |crc, &b| step(crc, b))
    }

    #[test]
    fn eight_bytes_a_step_equal_one_byte_a_step() {
        let data: Vec<u8> = (0..80u32).map(|i| (i * 151 + 7) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &data[start..start + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "start {start}, length {len}");
                for split in 0..=len {
                    let mut c = Crc32::new();
                    c.update(&bytes[..split]);
                    c.update(&bytes[split..]);
                    assert_eq!(c.finish(), bytewise(bytes), "{start}, {len}, split {split}");
                }
            }
        }
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"well-designed pattern trees";
        let mut c = Crc32::new();
        c.update(&data[..7]);
        c.update(&data[7..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn single_byte_flips_always_change_the_checksum() {
        let data: Vec<u8> = (0..251u32).map(|i| (i * 7 % 256) as u8).collect();
        let base = crc32(&data);
        let mut flipped = data.clone();
        for i in 0..flipped.len() {
            for bit in [1u8, 0x80] {
                flipped[i] ^= bit;
                assert_ne!(crc32(&flipped), base, "flip at {i} undetected");
                flipped[i] ^= bit;
            }
        }
    }
}
