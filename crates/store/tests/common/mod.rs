//! Shared by the format tests: a sample snapshot and a way to append
//! crafted entries to a file's dictionary block.

use wdpt_model::{Database, Interner};
use wdpt_store::{crc32, snapshot_to_vec_v2};

/// The framing of a section: tag u8 + len u64 + crc u32.
pub const FRAME: usize = 13;

/// A small snapshot: two relations over four constants and a variable.
pub fn sample_snapshot_v2() -> Vec<u8> {
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

/// `file` rebuilt with `entries` appended to its dictionary block and
/// `more` added to the symbol count at `count_at` of the section tagged
/// `header_tag`, every section re-framed and re-stamped.
pub fn with_more_symbols(
    file: &[u8],
    header_tag: u8,
    count_at: usize,
    more: u64,
    entries: &[u8],
) -> Vec<u8> {
    let mut out = file[..12].to_vec(); // magic + version
    let mut pos = 12;
    while pos < file.len() {
        let tag = file[pos];
        let len = u64::from_le_bytes(file[pos + 1..pos + 9].try_into().unwrap()) as usize;
        let mut payload = file[pos + 9..pos + 9 + len].to_vec();
        if tag == header_tag {
            let field = &mut payload[count_at..count_at + 8];
            let count = u64::from_le_bytes(field.try_into().unwrap()) + more;
            field.copy_from_slice(&count.to_le_bytes());
        }
        if tag == 0x07 {
            payload.extend_from_slice(entries);
        }
        let start = out.len();
        out.push(tag);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
        pos += FRAME + len;
    }
    out
}

/// The variables `q`, `qq`, `qqq`, … as dictionary entries, each sharing
/// its whole predecessor plus one byte: about 5 bytes an entry (past 127
/// the shared length's varint takes two) for `n²/2` bytes of names.
pub fn growing_names(n: usize) -> Vec<u8> {
    let mut entries = Vec::new();
    for k in 0..n {
        entries.push(0); // the variable namespace
        let mut shared = k as u64;
        while shared >= 0x80 {
            entries.push(shared as u8 | 0x80);
            shared >>= 7;
        }
        entries.extend_from_slice(&[shared as u8, 1, b'q']);
    }
    entries
}
