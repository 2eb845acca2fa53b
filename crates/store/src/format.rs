//! The binary snapshot format for an `(Interner, Database)` pair, and the
//! two block codecs every file of this crate is made of.
//!
//! Layout (all integers little-endian; see `DESIGN.md` §8 for the rationale
//! and versioning rules):
//!
//! ```text
//! magic    b"WDPTSNAP"                                       8 bytes
//! version  u32                                               = 3
//! section* tag u8 · len u64 · payload · crc32 u32
//! ```
//!
//! The CRC of a section covers its tag and length as well as the payload,
//! so *any* single corrupted byte after the version field is caught by a
//! checksum rather than by undefined downstream behavior. Sections appear
//! in a fixed order:
//!
//! | tag  | section    | payload                                          |
//! |------|------------|--------------------------------------------------|
//! | 0x01 | header     | symbols u64 · fresh u64 · relations u32 · tuples u64 |
//! | 0x07 | dictionary | one **dictionary block**: per symbol, space u8 · shared-prefix varint · suffix-len varint · suffix bytes |
//! | 0x06 | relation   | one **relation block**: pred u32 · arity u32 · rows u64 · per column (cells bytes u64) · per column (cells blob) |
//! | 0xFF | end        | empty                                            |
//!
//! A relation block holds one **sorted run** (rows lexicographic on `Const`
//! ids, deduplicated), column-major, each column the zigzag-delta varints
//! of its cells (`crate::varint`) — and nothing derived from it. Loading
//! a block *is* decoding it: `decode_relation` walks every varint once,
//! validating as it goes, and hands back the flat row-major run a
//! [`Relation`] is probed in. Every structural invariant the rest of the
//! system relies on (sortedness, counts, namespace of every id) is checked
//! on the way, and anything off is a typed [`StoreError`] — never a panic.
//!
//! Delta files ([`crate::delta`]) share the container and both block codecs
//! (tags `0x04`, `0x05`) but carry their own version number. Retired and
//! never reused: tag `0x03` and version `1` (the row-major format), tag
//! `0x02` (the deltas' length-prefixed dictionary) and version `2` (per
//! column key directories beside the cells). Such a file is refused with
//! [`StoreError::UnsupportedVersion`] and must be rebuilt from its text
//! source.

use crate::crc::{crc32, Crc32};
use crate::varint::{encode_cells, read_uvarint, unzigzag, write_uvarint};
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use wdpt_model::{Const, Database, Interner, Pred, Relation, SymbolSpace};

/// The eight magic bytes opening every snapshot.
pub const MAGIC: [u8; 8] = *b"WDPTSNAP";
/// The one snapshot format version this build reads and writes (sorted
/// runs as varint-compressed columns; `DESIGN.md` §8 and §13).
pub const VERSION: u32 = 3;

pub(crate) const TAG_HEADER: u8 = 0x01;
pub(crate) const TAG_DELTA_HEADER: u8 = 0x04;
pub(crate) const TAG_RELATION_DELTA: u8 = 0x05;
pub(crate) const TAG_RELATION: u8 = 0x06;
pub(crate) const TAG_DICTIONARY: u8 = 0x07;
pub(crate) const TAG_END: u8 = 0xFF;

/// Framing overhead of one section: tag + length + CRC. Used to bound
/// untrusted "number of sections" header fields against the bytes actually
/// present before any allocation sized from them.
pub(crate) const SECTION_FRAME_BYTES: usize = 1 + 8 + 4;

/// Everything that can go wrong reading or writing a snapshot. Corruption
/// surfaces as `Truncated` / `ChecksumMismatch` / `Malformed`, each naming
/// the section at fault so `wdpt-store verify` can point at it.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is not one this build can read.
    UnsupportedVersion(u32),
    /// The file ends before the named section is complete.
    Truncated {
        /// Which section was being read.
        section: String,
    },
    /// A section's CRC does not match its bytes.
    ChecksumMismatch {
        /// Which section failed its checksum.
        section: String,
    },
    /// A section passed its checksum but violates a structural invariant
    /// (impossible for files written by this crate — a hand-edited or
    /// adversarial input).
    Malformed {
        /// Which section is malformed.
        section: String,
        /// What invariant failed.
        detail: String,
    },
    /// A value does not fit the fixed-width field the format gives it
    /// (e.g. more than `u32::MAX` rows in one relation). Raised at encode
    /// time so a too-wide value can never be silently truncated into a
    /// corrupt-but-valid-CRC snapshot.
    TooLarge {
        /// Which quantity overflowed its wire field.
        what: String,
        /// The value that did not fit.
        value: u64,
    },
    /// A text-input parse failure from the bulk loader, with its 1-based
    /// line number.
    Parse {
        /// 1-based line number in the text input.
        line: usize,
        /// What was wrong with the line.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not a wdpt snapshot (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported format version {v}: this build reads version-{VERSION} \
                     snapshots and version-{} deltas only; rebuild the file from its text \
                     source (wdpt-store build / delta)",
                    crate::delta::DELTA_VERSION
                )
            }
            StoreError::Truncated { section } => {
                write!(f, "snapshot truncated inside the {section} section")
            }
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in the {section} section")
            }
            StoreError::Malformed { section, detail } => {
                write!(f, "malformed {section} section: {detail}")
            }
            StoreError::TooLarge { what, value } => {
                write!(f, "{what} ({value}) exceeds the format's u32 field width")
            }
            StoreError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<wdpt_model::TooManyRows> for StoreError {
    fn from(e: wdpt_model::TooManyRows) -> StoreError {
        StoreError::TooLarge {
            what: "relation row id".to_string(),
            value: e.rows,
        }
    }
}

/// Checked narrowing for every u32-wide wire field: a value that does not
/// fit becomes a typed [`StoreError::TooLarge`] instead of a silent
/// truncation that would CRC-validate and decode as garbage.
pub(crate) fn len_u32(value: usize, what: &str) -> Result<u32, StoreError> {
    u32::try_from(value).map_err(|_| StoreError::TooLarge {
        what: what.to_string(),
        value: value as u64,
    })
}

/// FNV-1a 64-bit hash of a whole file's bytes. Used to chain delta
/// snapshots to the exact base (or predecessor delta) they were computed
/// against — cheap, dependency-free, and stable across platforms.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub(crate) fn space_code(space: SymbolSpace) -> u8 {
    match space {
        SymbolSpace::Var => 0,
        SymbolSpace::Const => 1,
        SymbolSpace::Pred => 2,
    }
}

pub(crate) fn space_from_code(code: u8) -> Option<SymbolSpace> {
    match code {
        0 => Some(SymbolSpace::Var),
        1 => Some(SymbolSpace::Const),
        2 => Some(SymbolSpace::Pred),
        _ => None,
    }
}

pub(crate) fn push_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let mut crc = Crc32::new();
    crc.update(&[tag]);
    crc.update(&(payload.len() as u64).to_le_bytes());
    crc.update(payload);
    out.extend_from_slice(&crc.finish().to_le_bytes());
}

/// Serializes a snapshot to bytes. Deterministic: the same `(Interner,
/// Database)` pair always yields identical bytes (relations ordered by
/// predicate id, each one `encode_relation` block streamed off its sorted
/// run), so snapshots can be compared and cached byte-wise. The dictionary
/// is one `encode_dictionary` block.
pub fn snapshot_to_vec_v2(interner: &Interner, db: &Database) -> Result<Vec<u8>, StoreError> {
    let mut rel_order: Vec<(Pred, &Relation)> = db.relations().collect();
    rel_order.sort_by_key(|(p, _)| *p);

    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());

    let mut header = Vec::with_capacity(8 + 8 + 4 + 8);
    header.extend_from_slice(&(interner.len() as u64).to_le_bytes());
    header.extend_from_slice(&interner.fresh_counter().to_le_bytes());
    header.extend_from_slice(&len_u32(rel_order.len(), "relation count")?.to_le_bytes());
    header.extend_from_slice(&(db.size() as u64).to_le_bytes());
    push_section(&mut out, TAG_HEADER, &header);

    push_section(
        &mut out,
        TAG_DICTIONARY,
        &encode_dictionary(interner.symbols()),
    );

    for (pred, rel) in rel_order {
        let block = encode_relation(pred, rel.arity(), rel.len(), || rel.tuples())?;
        push_section(&mut out, TAG_RELATION, &block);
    }

    push_section(&mut out, TAG_END, &[]);
    Ok(out)
}

/// Encodes a **dictionary block**, front-coded: per symbol, `space u8 ·
/// shared-prefix-len varint · suffix-len varint · suffix bytes`, where the
/// prefix is shared with the *previous* entry's name (byte-wise —
/// reassembly restores the exact original, so UTF-8 validation of the whole
/// name still applies). A snapshot stores its whole dictionary as one, a
/// delta its appended symbols; catalogs with systematic IRIs win the most.
/// An entry whose sharing would take the names decoded so far past
/// [`MAX_NAME_BYTES_PER_DICTIONARY_BYTE`] times the block written so far
/// shares nothing instead, so every block this writes stays inside the
/// bound its reader holds it to.
pub(crate) fn encode_dictionary<'a>(
    symbols: impl Iterator<Item = (SymbolSpace, &'a str)>,
) -> Vec<u8> {
    let push = |dict: &mut Vec<u8>, space, shared: usize, suffix: &[u8]| {
        dict.push(space_code(space));
        write_uvarint(dict, shared as u64);
        write_uvarint(dict, suffix.len() as u64);
        dict.extend_from_slice(suffix);
    };
    let mut dict = Vec::new();
    let mut prev: &[u8] = &[];
    let mut decoded = 0usize;
    for (space, name) in symbols {
        let bytes = name.as_bytes();
        let shared = prev.iter().zip(bytes).take_while(|(a, b)| a == b).count();
        let start = dict.len();
        push(&mut dict, space, shared, &bytes[shared..]);
        decoded += bytes.len();
        if decoded > dict.len() * MAX_NAME_BYTES_PER_DICTIONARY_BYTE {
            dict.truncate(start);
            push(&mut dict, space, 0, bytes);
        }
        prev = bytes;
    }
    dict
}

/// Encodes a **relation block**: `pred u32 · arity u32 · rows u64 · per
/// column (cells bytes u64) · per column (cells blob)`, each blob the
/// column's [`encode_cells`] stream. `tuples` is called once per column and
/// must yield the same `rows` strictly ascending rows each time — a
/// snapshot passes a relation's whole run, a delta an insertion run.
pub(crate) fn encode_relation<'a, I>(
    pred: Pred,
    arity: usize,
    rows: usize,
    tuples: impl Fn() -> I,
) -> Result<Vec<u8>, StoreError>
where
    I: Iterator<Item = &'a [Const]>,
{
    // One up-front check bounds every row id to the u32 space the decoder
    // re-validates.
    len_u32(rows, "relation row count")?;
    let mut block = Vec::new();
    block.extend_from_slice(&pred.0.to_le_bytes());
    block.extend_from_slice(&len_u32(arity, "relation arity")?.to_le_bytes());
    block.extend_from_slice(&(rows as u64).to_le_bytes());
    // The column table is fixed-width: leave room for it, then fill in each
    // blob's length once the blob is written.
    let table = block.len();
    block.resize(table + 8 * arity, 0);
    for col in 0..arity {
        let start = block.len();
        encode_cells(&mut block, tuples().map(|t| t[col].0));
        let len = (block.len() - start) as u64;
        block[table + 8 * col..table + 8 * (col + 1)].copy_from_slice(&len.to_le_bytes());
    }
    Ok(block)
}

/// Writes `bytes` to `path` atomically and durably: a temp file beside the
/// target is written and fsynced, renamed over the final name, and the
/// directory entry is fsynced — so a crash at any point leaves either the
/// old file or the complete new one, never a partial or zero-length file
/// under the final name. Snapshots, deltas and the replication log all
/// write through here.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    let mut f = std::fs::File::create(tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(tmp, path)?;
    #[cfg(unix)]
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Writes a snapshot to a file, atomically and durably (temp file, fsync,
/// rename — a crash mid-write never leaves a partial snapshot under the
/// final name). Returns the byte count.
pub fn save_snapshot(path: &Path, interner: &Interner, db: &Database) -> Result<u64, StoreError> {
    let bytes = snapshot_to_vec_v2(interner, db)?;
    write_atomic(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// A byte reader with typed truncation errors.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize, section: &str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                section: section.to_string(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next byte, without consuming it.
    pub(crate) fn peek_u8(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    pub(crate) fn u8(&mut self, section: &str) -> Result<u8, StoreError> {
        Ok(self.take(1, section)?[0])
    }

    pub(crate) fn u32(&mut self, section: &str) -> Result<u32, StoreError> {
        let b = self.take(4, section)?;
        // `take` guarantees the width, but the decode paths are sworn off
        // unwrap/expect entirely — a length bug here must surface as a
        // typed error, not a panic an adversarial input could reach.
        b.try_into()
            .map(u32::from_le_bytes)
            .map_err(|_| StoreError::Truncated {
                section: section.to_string(),
            })
    }

    pub(crate) fn u64(&mut self, section: &str) -> Result<u64, StoreError> {
        let b = self.take(8, section)?;
        b.try_into()
            .map(u64::from_le_bytes)
            .map_err(|_| StoreError::Truncated {
                section: section.to_string(),
            })
    }
}

pub(crate) fn malformed(section: &str, detail: impl Into<String>) -> StoreError {
    StoreError::Malformed {
        section: section.to_string(),
        detail: detail.into(),
    }
}

/// Bounds an untrusted count field against the bytes that would have to
/// carry it: `declared` items of at least `min_bytes_per_item` each must
/// fit in `remaining` bytes. Returns the count as a `usize` on success; a
/// length-bomb (declared ≫ payload) is a typed [`StoreError::Malformed`]
/// *before* any `Vec::with_capacity` is sized from it — the pre-fix
/// decoders allocated first and validated later, so a 16-byte corrupt file
/// could demand a multi-GiB allocation.
pub(crate) fn checked_count(
    declared: u64,
    min_bytes_per_item: u64,
    remaining: usize,
    section: &str,
    what: &str,
) -> Result<usize, StoreError> {
    let needed = declared.checked_mul(min_bytes_per_item);
    match needed {
        Some(n) if n <= remaining as u64 => usize::try_from(declared)
            .map_err(|_| malformed(section, format!("{what} count {declared} overflows usize"))),
        _ => Err(malformed(
            section,
            format!(
                "declares {declared} {what} (≥{min_bytes_per_item} bytes each) \
                 but only {remaining} bytes remain"
            ),
        )),
    }
}

/// A checksummed section sliced out of the snapshot.
pub(crate) struct Section<'a> {
    pub(crate) tag: u8,
    pub(crate) payload: &'a [u8],
}

/// Reads the next section, verifying its CRC. `label` names the section we
/// *expect* for error messages before the tag is known.
pub(crate) fn read_section<'a>(r: &mut Reader<'a>, label: &str) -> Result<Section<'a>, StoreError> {
    let start = r.pos;
    let tag = r.u8(label)?;
    let len = r.u64(label)?;
    let len = usize::try_from(len).map_err(|_| malformed(label, "section length overflow"))?;
    let payload = r.take(len, label)?;
    let stored_crc = r.u32(label)?;
    // CRC covers tag + len + payload — i.e. everything since `start` except
    // the CRC field itself.
    let computed = crc32(&r.bytes[start..start + 1 + 8 + len]);
    if computed != stored_crc {
        return Err(StoreError::ChecksumMismatch {
            section: label.to_string(),
        });
    }
    Ok(Section { tag, payload })
}

/// The parsed header section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version of the file.
    pub version: u32,
    /// Interned symbols across all namespaces.
    pub symbols: u64,
    /// The interner's fresh-name counter.
    pub fresh_counter: u64,
    /// Number of relation sections.
    pub relations: u32,
    /// Total tuple count across relations.
    pub tuples: u64,
}

/// Summary of one relation section (from [`inspect_snapshot`]).
#[derive(Debug, Clone)]
pub struct RelationSummary {
    /// The predicate's interned id.
    pub pred: u32,
    /// The predicate's name, when the dictionary resolves it.
    pub name: String,
    /// Relation arity.
    pub arity: u32,
    /// Tuple count.
    pub rows: u64,
    /// Serialized size of the section payload.
    pub bytes: usize,
}

/// A full snapshot summary: what `wdpt-store inspect` prints.
#[derive(Debug, Clone)]
pub struct SnapshotSummary {
    /// The parsed header.
    pub header: SnapshotHeader,
    /// Per-relation summaries, in file order.
    pub relations: Vec<RelationSummary>,
    /// Total file size in bytes.
    pub bytes: usize,
    /// Serialized size of the dictionary section payload.
    pub dict_bytes: usize,
}

/// Reads the container preamble shared by snapshots and deltas: checks the
/// magic and returns the version field for the caller to judge (the two
/// file kinds are versioned independently).
pub(crate) fn read_magic_version(r: &mut Reader<'_>) -> Result<u32, StoreError> {
    let magic = r.take(MAGIC.len(), "magic")?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic);
    }
    r.u32("version")
}

fn parse_header(payload: &[u8]) -> Result<SnapshotHeader, StoreError> {
    let mut r = Reader::new(payload);
    let header = SnapshotHeader {
        version: VERSION,
        symbols: r.u64("header")?,
        fresh_counter: r.u64("header")?,
        relations: r.u32("header")?,
        tuples: r.u64("header")?,
    };
    if r.remaining() != 0 {
        return Err(malformed("header", "trailing bytes"));
    }
    Ok(header)
}

pub(crate) fn expect_tag(section: &Section<'_>, tag: u8, label: &str) -> Result<(), StoreError> {
    if section.tag != tag {
        return Err(malformed(
            label,
            format!(
                "expected section tag {tag:#04x}, found {:#04x}",
                section.tag
            ),
        ));
    }
    Ok(())
}

/// `Err` unless `block` is keyed by a predicate and every cell of its run
/// is a constant, reading each id's namespace from `space_of` (`None` for
/// an id that names nothing). A block decodes without a symbol table; this
/// is the check that needs one — run at decode for a snapshot, which
/// carries its table, and at apply for a delta, whose ids mean nothing
/// before the base's table is there.
pub(crate) fn check_relation(
    block: &RelationBlock,
    label: &str,
    space_of: impl Fn(u32) -> Option<SymbolSpace>,
) -> Result<(), StoreError> {
    if space_of(block.pred.0) != Some(SymbolSpace::Pred) {
        return Err(malformed(
            label,
            format!("id {} is not a predicate", block.pred.0),
        ));
    }
    match block
        .cells
        .iter()
        .position(|cell| space_of(cell.0) != Some(SymbolSpace::Const))
    {
        None => Ok(()),
        Some(at) => Err(malformed(
            label,
            format!(
                "column {} holds id {}, which is not a constant",
                at % block.arity,
                block.cells[at].0
            ),
        )),
    }
}

/// Everything ahead of the relation sections — magic, version, header and
/// dictionary — which [`inspect_snapshot`] and the full decoder read
/// identically.
struct Preamble {
    header: SnapshotHeader,
    /// The dictionary, its fresh-name counter the header's.
    interner: Interner,
    /// Serialized size of the dictionary section payload.
    dict_bytes: usize,
    /// `header.relations`, bounded against the bytes left to carry them.
    rel_count: usize,
}

fn read_preamble(r: &mut Reader<'_>) -> Result<Preamble, StoreError> {
    let version = read_magic_version(r)?;
    if r.peek_u8() == Some(TAG_DELTA_HEADER) {
        return Err(malformed(
            "header",
            "file is a delta snapshot; apply it to its base first (wdpt-store apply)",
        ));
    }
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let section = read_section(r, "header")?;
    expect_tag(&section, TAG_HEADER, "header")?;
    let header = parse_header(section.payload)?;

    let section = read_section(r, "dictionary")?;
    expect_tag(&section, TAG_DICTIONARY, "dictionary")?;
    let count = usize::try_from(header.symbols)
        .ok()
        .filter(|&n| u32::try_from(n).is_ok())
        .ok_or_else(|| malformed("dictionary", "symbol count exceeds u32 id space"))?;
    let mut interner = parse_dictionary(section.payload, count, |_| {
        "duplicate symbol entry".to_string()
    })?;
    interner.raise_fresh_counter(header.fresh_counter);

    let rel_count = checked_count(
        u64::from(header.relations),
        SECTION_FRAME_BYTES as u64,
        r.remaining(),
        "header",
        "relation sections",
    )?;
    Ok(Preamble {
        header,
        interner,
        dict_bytes: section.payload.len(),
        rel_count,
    })
}

/// Reads the closing end section and insists nothing follows it.
pub(crate) fn read_end(r: &mut Reader<'_>) -> Result<(), StoreError> {
    let section = read_section(r, "end")?;
    expect_tag(&section, TAG_END, "end")?;
    if !section.payload.is_empty() {
        return Err(malformed("end", "non-empty end section"));
    }
    if r.remaining() != 0 {
        return Err(malformed("end", "trailing bytes after end section"));
    }
    Ok(())
}

/// Decodes a snapshot from bytes into a fresh `(Interner, Database)` pair
/// that borrows nothing from `bytes`. Load cost is CRC verification plus one
/// validate-and-decode pass per section (`decode_relation`).
pub fn decode_snapshot(bytes: &[u8]) -> Result<(Interner, Database), StoreError> {
    let mut r = Reader::new(bytes);
    let Preamble {
        header,
        interner,
        rel_count,
        ..
    } = read_preamble(&mut r)?;

    let mut relations: Vec<(Pred, Relation)> = Vec::with_capacity(rel_count);
    let mut seen_preds = std::collections::HashSet::new();
    let mut total_tuples: u64 = 0;
    for idx in 0..rel_count {
        let label = format!("relation[{idx}]");
        let section = read_section(&mut r, &label)?;
        expect_tag(&section, TAG_RELATION, &label)?;
        let block = decode_relation(section.payload, &label)?;
        check_relation(&block, &label, |id| interner.symbol_space(id))?;
        if !seen_preds.insert(block.pred) {
            return Err(malformed(&label, "predicate appears in two relations"));
        }
        total_tuples += block.rows as u64;
        relations.push((block.pred, block.into_relation()));
    }
    if total_tuples != header.tuples {
        return Err(malformed(
            "header",
            format!(
                "header claims {} tuples, sections hold {total_tuples}",
                header.tuples
            ),
        ));
    }
    read_end(&mut r)?;

    Ok((interner, Database::from_sorted(relations)))
}

/// How many name bytes a dictionary block may decode to per byte of its
/// payload. Front coding lets an entry of three bytes repeat its whole
/// predecessor, so without a bound `n` names `a`, `aa`, `aaa`, … cost
/// `n²/2` bytes of heap from `3n` bytes of file. Real dictionaries stay
/// far below it: the benchmark's synthetic and music dictionaries decode
/// to 1.43× and 1.92× their payload, generated IRIs that share a 60- or
/// 120-byte prefix to 15.1× and 28.4× (DESIGN.md §13).
pub(crate) const MAX_NAME_BYTES_PER_DICTIONARY_BYTE: usize = 64;

/// Walks the `count` entry headers of a dictionary block, handing `each`
/// every entry's index, namespace, the bytes of its predecessor's name it
/// keeps and the bytes it appends, and checks what the headers alone can
/// tell: a namespace code, a shared prefix no longer than the
/// predecessor's name, a suffix inside the block, the names decoded so far
/// within [`MAX_NAME_BYTES_PER_DICTIONARY_BYTE`] times the block, and no
/// trailing bytes. It allocates nothing.
fn walk_dictionary<'a>(
    payload: &'a [u8],
    count: usize,
    mut each: impl FnMut(usize, SymbolSpace, usize, &'a [u8]) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    // The arena's offsets are `u32`s.
    let bound = payload
        .len()
        .saturating_mul(MAX_NAME_BYTES_PER_DICTIONARY_BYTE);
    let bound = bound.min(u32::MAX as usize);
    let mut decoded = 0usize;
    let mut prev_len = 0usize;
    let mut pos = 0usize;
    let truncated = || StoreError::Truncated {
        section: "dictionary".to_string(),
    };
    for i in 0..count {
        let space_byte = *payload.get(pos).ok_or_else(truncated)?;
        pos += 1;
        let space = space_from_code(space_byte)
            .ok_or_else(|| malformed("dictionary", format!("bad namespace code for symbol {i}")))?;
        let shared = read_uvarint(payload, &mut pos).ok_or_else(truncated)?;
        let shared = usize::try_from(shared)
            .ok()
            .filter(|&s| s <= prev_len)
            .ok_or_else(|| {
                malformed(
                    "dictionary",
                    format!("symbol {i} shares a longer prefix than its predecessor has"),
                )
            })?;
        let suffix_len = read_uvarint(payload, &mut pos).ok_or_else(truncated)?;
        let suffix_len = checked_count(
            suffix_len,
            1,
            payload.len() - pos,
            "dictionary",
            "suffix bytes",
        )?;
        let suffix = payload.get(pos..pos + suffix_len).ok_or_else(truncated)?;
        pos += suffix_len;
        prev_len = shared + suffix_len;
        decoded += prev_len;
        if decoded > bound {
            return Err(malformed(
                "dictionary",
                format!(
                    "symbol {i} takes the names past {bound} bytes, \
                     {MAX_NAME_BYTES_PER_DICTIONARY_BYTE}× the block's {} bytes",
                    payload.len()
                ),
            ));
        }
        each(i, space, shared, suffix)?;
    }
    if pos != payload.len() {
        return Err(malformed("dictionary", "trailing bytes"));
    }
    Ok(())
}

/// Parses a dictionary block of `count` symbols (inverse of
/// [`encode_dictionary`]) into an interner whose `k`-th symbol is the
/// block's `k`-th; a symbol listed twice is refused with the message
/// `duplicate` gives its name. The entry headers are walked first
/// ([`walk_dictionary`]), so a block past the decode bound is refused
/// before anything is allocated or copied. Then each name is reassembled
/// in one reused buffer and copied into the interner's arena; the table is
/// sized once, for `count`.
pub(crate) fn parse_dictionary(
    payload: &[u8],
    count: usize,
    duplicate: impl Fn(&str) -> String,
) -> Result<Interner, StoreError> {
    // Minimum entry: space byte + two one-byte varints.
    checked_count(count as u64, 3, payload.len(), "dictionary", "symbols")?;
    walk_dictionary(payload, count, |_, _, _, _| Ok(()))?;
    let mut out = Interner::with_capacity(count, payload.len());
    let mut prev: Vec<u8> = Vec::new();
    walk_dictionary(payload, count, |i, space, shared, suffix| {
        prev.truncate(shared);
        prev.extend_from_slice(suffix);
        let name = std::str::from_utf8(&prev)
            .map_err(|_| malformed("dictionary", format!("symbol {i} is not UTF-8")))?;
        match out.push_new(space, name) {
            Some(_) => Ok(()),
            None => Err(malformed("dictionary", duplicate(name))),
        }
    })?;
    Ok(out)
}

/// One decoded relation block: the predicate it belongs to and a strictly
/// sorted flat run — `rows × arity` cells, row-major. The ids are *not* yet
/// known to name a predicate and constants ([`check_relation`]).
#[derive(Debug)]
pub(crate) struct RelationBlock {
    pub(crate) pred: Pred,
    pub(crate) arity: usize,
    pub(crate) rows: usize,
    pub(crate) cells: Vec<Const>,
}

impl RelationBlock {
    /// The run as a relation of its own.
    pub(crate) fn into_relation(self) -> Relation {
        // The one caller-checked constructor there is; its panics are
        // unreachable behind `decode_relation`'s own order check.
        Relation::from_sorted(self.arity, self.rows, self.cells)
    }
}

/// Decodes one relation block (inverse of [`encode_relation`]), validating
/// while it decodes: every varint is walked exactly once, straight into the
/// run. Checked on the way — length fields against the bytes present,
/// varint well-formedness, every cell within `u32`, each blob consumed
/// exactly, and strictly ascending rows. The run is allocated only once it
/// is bounded: every cell takes at least one byte, so a column of `rows`
/// cells cannot sit in a shorter blob, and `rows × arity` cannot exceed the
/// payload's length.
pub(crate) fn decode_relation(payload: &[u8], label: &str) -> Result<RelationBlock, StoreError> {
    let mut r = Reader::new(payload);
    let pred = Pred(r.u32(label)?);
    let arity_u32 = r.u32(label)?;
    let rows_u64 = r.u64(label)?;
    if rows_u64 > u64::from(u32::MAX) {
        return Err(malformed(label, "row count exceeds the u32 id space"));
    }
    let rows = rows_u64 as usize;
    // Each column owes an 8-byte table entry; bound `arity` on that before
    // sizing anything from it.
    let arity = checked_count(u64::from(arity_u32), 8, r.remaining(), label, "columns")?;
    if arity == 0 && rows > 1 {
        return Err(malformed(label, "nullary relation with more than one row"));
    }
    let mut table = Reader::new(r.take(8 * arity, label)?);
    let mut blobs: Vec<&[u8]> = Vec::with_capacity(arity);
    for col in 0..arity {
        let bytes = checked_count(table.u64(label)?, 1, r.remaining(), label, "cells bytes")?;
        if rows > bytes {
            return Err(malformed(
                label,
                format!("column {col} declares {rows} rows in {bytes} cells bytes"),
            ));
        }
        blobs.push(r.take(bytes, label)?);
    }
    if r.remaining() != 0 {
        return Err(malformed(label, "trailing bytes"));
    }

    let mut cells = vec![Const(0); rows * arity];
    for (col, blob) in blobs.into_iter().enumerate() {
        let mut pos = 0usize;
        let mut prev = 0i64;
        for (row, cell) in cells.iter_mut().skip(col).step_by(arity).enumerate() {
            let delta = read_uvarint(blob, &mut pos).ok_or_else(|| {
                malformed(
                    label,
                    format!("column {col} cells stream truncated at row {row}"),
                )
            })?;
            prev = prev
                .checked_add(unzigzag(delta))
                .filter(|v| (0..=i64::from(u32::MAX)).contains(v))
                .ok_or_else(|| {
                    malformed(
                        label,
                        format!("column {col} cell out of the u32 id space at row {row}"),
                    )
                })?;
            *cell = Const(prev as u32);
        }
        if pos != blob.len() {
            return Err(malformed(
                label,
                format!("column {col} trailing bytes in cells blob"),
            ));
        }
    }
    let row = |r: usize| &cells[r * arity..(r + 1) * arity];
    if let Some(r) = (1..rows).find(|&r| row(r - 1) >= row(r)) {
        let detail = if row(r - 1) == row(r) {
            "duplicate tuple in sorted block"
        } else {
            "tuple block is not sorted"
        };
        return Err(malformed(label, detail));
    }
    Ok(RelationBlock {
        pred,
        arity,
        rows,
        cells,
    })
}

/// Deep verification beyond what loading checks: builds every column
/// permutation of every relation and cross-checks it against the run
/// ([`Relation::verify_deep`]). `wdpt-store verify` runs this.
pub fn verify_database_deep(db: &Database) -> Result<(), StoreError> {
    for (pred, rel) in db.relations() {
        rel.verify_deep()
            .map_err(|detail| malformed(&format!("relation (pred id {})", pred.0), detail))?;
    }
    Ok(())
}

/// Loads a snapshot file: one read of the whole file, one
/// [`decode_snapshot`]; the file's bytes are released on return.
pub fn load_snapshot(path: &Path) -> Result<(Interner, Database), StoreError> {
    decode_snapshot(&std::fs::read(path)?)
}

/// Walks a snapshot's sections — verifying magic, version, and every CRC —
/// and returns a summary **without** materializing the database. This is
/// `wdpt-store inspect`; [`decode_snapshot`] (used by `verify`) adds the
/// full structural validation on top.
pub fn inspect_snapshot(bytes: &[u8]) -> Result<SnapshotSummary, StoreError> {
    let mut r = Reader::new(bytes);
    let Preamble {
        header,
        interner,
        dict_bytes,
        rel_count,
    } = read_preamble(&mut r)?;
    let mut relations = Vec::with_capacity(rel_count);
    for idx in 0..rel_count {
        let label = format!("relation[{idx}]");
        let section = read_section(&mut r, &label)?;
        expect_tag(&section, TAG_RELATION, &label)?;
        let mut pr = Reader::new(section.payload);
        let pred = pr.u32(&label)?;
        let arity = pr.u32(&label)?;
        let rows = pr.u64(&label)?;
        let name = match (pred as usize) < interner.len() {
            true => interner.name(pred).to_string(),
            false => format!("<unknown id {pred}>"),
        };
        relations.push(RelationSummary {
            pred,
            name,
            arity,
            rows,
            bytes: section.payload.len(),
        });
    }
    read_end(&mut r)?;
    Ok(SnapshotSummary {
        header,
        relations,
        bytes: bytes.len(),
        dict_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varint::zigzag;
    use wdpt_model::ProbeTally;

    fn sample() -> (Interner, Database) {
        let mut i = Interner::new();
        let e = i.pred("edge");
        let n = i.pred("node");
        let (a, b, c) = (i.constant("a"), i.constant("b"), i.constant("c"));
        i.var("x"); // vars serialize too
        let mut db = Database::new();
        db.insert(e, vec![b, c]);
        db.insert(e, vec![a, b]);
        db.insert(n, vec![a]);
        db.insert(n, vec![c]);
        (i, db)
    }

    #[test]
    fn round_trips_a_small_database() {
        let (i, db) = sample();
        let bytes = snapshot_to_vec_v2(&i, &db).unwrap();
        let (i2, db2) = decode_snapshot(&bytes).unwrap();
        assert_eq!(i2.len(), i.len());
        assert_eq!(db2.size(), db.size());
        assert_eq!(db2.active_domain(), db.active_domain());
        assert_eq!(db2.display(&i2), db.display(&i));
    }

    #[test]
    fn decoded_relations_answer_probes_from_the_decoded_run() {
        let (mut i, db) = sample();
        let bytes = snapshot_to_vec_v2(&i, &db).unwrap();
        let (_, db2) = decode_snapshot(&bytes).unwrap();
        let e = i.pred("edge");
        let rel = db2.relation(e).unwrap();
        let a = i.constant("a");
        let rows = rel.probe([(0, a)], &mut ProbeTally::default());
        assert_eq!((rows.len(), rows.count()), (1, 1));
    }

    #[test]
    fn encoding_is_deterministic_and_idempotent() {
        let (i, db) = sample();
        let bytes = snapshot_to_vec_v2(&i, &db).unwrap();
        assert_eq!(bytes, snapshot_to_vec_v2(&i, &db).unwrap());
        let (i2, db2) = decode_snapshot(&bytes).unwrap();
        assert_eq!(
            bytes,
            snapshot_to_vec_v2(&i2, &db2).unwrap(),
            "re-encode differs"
        );
    }

    #[test]
    fn inspect_reports_sections() {
        let (i, db) = sample();
        let bytes = snapshot_to_vec_v2(&i, &db).unwrap();
        let summary = inspect_snapshot(&bytes).unwrap();
        assert_eq!(summary.header.version, VERSION);
        assert_eq!(summary.header.symbols, i.len() as u64);
        assert_eq!(summary.header.tuples, 4);
        assert_eq!(summary.relations.len(), 2);
        assert!(summary
            .relations
            .iter()
            .any(|r| r.name == "edge" && r.arity == 2));
        assert_eq!(summary.bytes, bytes.len());
    }

    #[test]
    fn empty_database_round_trips() {
        let i = Interner::new();
        let db = Database::new();
        let bytes = snapshot_to_vec_v2(&i, &db).unwrap();
        let (i2, db2) = decode_snapshot(&bytes).unwrap();
        assert!(i2.is_empty());
        assert_eq!(db2.size(), 0);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn over_wide_values_error_instead_of_truncating() {
        // A >u32::MAX quantity can't be materialized in a test, so the
        // checked-narrowing helper that guards every u32 wire field is
        // exercised directly: pre-fix code wrote `value as u32` here and
        // produced a corrupt-but-valid-CRC snapshot.
        let too_many = u32::MAX as usize + 1;
        match len_u32(too_many, "relation row count") {
            Err(StoreError::TooLarge { what, value }) => {
                assert_eq!(what, "relation row count");
                assert_eq!(value, too_many as u64);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert_eq!(len_u32(u32::MAX as usize, "x").unwrap(), u32::MAX);
        let msg = len_u32(too_many, "posting length").unwrap_err().to_string();
        assert!(msg.contains("posting length"), "unhelpful message: {msg}");
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let (i, db) = sample();
        let mut bytes = snapshot_to_vec_v2(&i, &db).unwrap();
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xFF;
        assert!(matches!(decode_snapshot(&wrong), Err(StoreError::BadMagic)));
        bytes[8] = 0xFE; // version little-endian low byte
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(StoreError::UnsupportedVersion(0xFE))
        ));
    }

    /// A relation block assembled from raw column blobs.
    fn raw_block(pred: u32, arity: u32, rows: u64, blobs: &[&[u8]]) -> Vec<u8> {
        let mut block = Vec::new();
        block.extend_from_slice(&pred.to_le_bytes());
        block.extend_from_slice(&arity.to_le_bytes());
        block.extend_from_slice(&rows.to_le_bytes());
        for blob in blobs {
            block.extend_from_slice(&(blob.len() as u64).to_le_bytes());
        }
        blobs.iter().for_each(|blob| block.extend_from_slice(blob));
        block
    }

    #[test]
    fn relation_blocks_round_trip_and_every_check_refuses_typed() {
        let c = |ids: &[u32]| ids.iter().map(|&id| Const(id)).collect::<Vec<_>>();
        let rows = [c(&[1, 9]), c(&[1, 300]), c(&[70_000, 2])];
        let block = encode_relation(Pred(5), 2, 3, || rows.iter().map(Vec::as_slice)).unwrap();
        let decoded = decode_relation(&block, "r").unwrap();
        assert_eq!((decoded.pred, decoded.arity, decoded.rows), (Pred(5), 2, 3));
        assert_eq!(decoded.cells, rows.concat());
        // The same bytes by hand: zigzag deltas 1, 0, +69 999 and 9, +291, −298.
        let (col0, col1) = ([2u8, 0, 0xDE, 0xC5, 0x08], [18u8, 0xC6, 0x04, 0xD3, 0x04]);
        assert_eq!(block, raw_block(5, 2, 3, &[&col0, &col1]));

        let refused = |block: Vec<u8>, needle: &str| match decode_relation(&block, "r") {
            Err(StoreError::Malformed { detail, .. }) => {
                assert!(detail.contains(needle), "{needle:?} not in {detail:?}")
            }
            other => panic!("{needle}: expected Malformed, got {other:?}"),
        };
        // Order, the two ways it fails told apart.
        let twice = [c(&[1, 9]), c(&[1, 9])];
        let block = encode_relation(Pred(5), 2, 2, || twice.iter().map(Vec::as_slice));
        refused(block.unwrap(), "duplicate tuple");
        let swapped = [c(&[1, 300]), c(&[1, 9])];
        let block = encode_relation(Pred(5), 2, 2, || swapped.iter().map(Vec::as_slice));
        refused(block.unwrap(), "not sorted");
        // Varints: cut short, overlong, one too many, one too few.
        refused(raw_block(5, 1, 2, &[&[2, 0x80]]), "truncated at row 1");
        let overlong = [0x80u8; 11];
        refused(raw_block(5, 1, 2, &[&overlong]), "truncated at row 0");
        refused(
            raw_block(5, 1, 2, &[&[2, 2, 2]]),
            "trailing bytes in cells blob",
        );
        refused(raw_block(5, 2, 2, &[&[2, 2], &[2, 0x80]]), "column 1");
        // Cells outside u32: below zero, above the top, and an i64 overflow.
        refused(raw_block(5, 1, 1, &[&[1]]), "out of the u32 id space");
        let above = [0x80, 0x80, 0x80, 0x80, 0x20]; // zigzag(1 << 32)
        refused(raw_block(5, 1, 1, &[&above]), "out of the u32 id space");
        let mut huge = vec![2u8]; // 1, then + i64::MAX
        write_uvarint(&mut huge, zigzag(i64::MAX));
        refused(raw_block(5, 1, 2, &[&huge]), "at row 1");
        // Shape: payload bytes nobody declared, a second nullary row.
        let mut extra = raw_block(5, 1, 1, &[&[2]]);
        extra.push(0);
        refused(extra, "trailing bytes");
        refused(raw_block(5, 0, 2, &[]), "nullary");
        assert_eq!(
            decode_relation(&raw_block(5, 0, 1, &[]), "r").unwrap().rows,
            1
        );
        // A payload that ends inside the fixed fields is a truncation.
        assert!(matches!(
            decode_relation(&raw_block(5, 1, 1, &[&[2]])[..10], "r"),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn ids_outside_their_namespace_are_refused_where_the_table_is() {
        // Symbols 0 `edge` and 1 `node` are predicates, 2–4 constants, 5 a
        // variable.
        let (i, _) = sample();
        let check = |pred: u32, cell: u32| {
            let block = decode_relation(&raw_block(pred, 1, 1, &[&[2 * cell as u8]]), "r");
            check_relation(&block.unwrap(), "r", |id| i.symbol_space(id))
        };
        assert!(check(1, 3).is_ok());
        for (pred, cell, needle) in [
            (2, 3, "id 2 is not a predicate"),
            (9, 3, "id 9 is not a predicate"),
            (1, 0, "holds id 0, which is not a constant"),
            (1, 5, "holds id 5, which is not a constant"),
            (1, 6, "holds id 6, which is not a constant"),
        ] {
            let err = check(pred, cell).unwrap_err().to_string();
            assert!(err.contains(needle), "{needle:?} not in {err:?}");
        }
    }

    #[test]
    fn snapshot_level_counts_are_checked_against_the_sections() {
        let (i, db) = sample();
        let bytes = snapshot_to_vec_v2(&i, &db).unwrap();
        // Rebuilds the file with the relation sections replaced.
        let with_relations = |tuples: u64, blocks: &[Vec<u8>]| {
            let mut out = bytes[..12].to_vec();
            let mut header = Vec::new();
            header.extend_from_slice(&(i.len() as u64).to_le_bytes());
            header.extend_from_slice(&i.fresh_counter().to_le_bytes());
            header.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
            header.extend_from_slice(&tuples.to_le_bytes());
            push_section(&mut out, TAG_HEADER, &header);
            push_section(&mut out, TAG_DICTIONARY, &encode_dictionary(i.symbols()));
            for block in blocks {
                push_section(&mut out, TAG_RELATION, block);
            }
            push_section(&mut out, TAG_END, &[]);
            decode_snapshot(&out).map(|(_, db)| db.size())
        };
        let node = |cell: u8| raw_block(1, 1, 1, &[&[2 * cell]]);
        assert_eq!(with_relations(1, &[node(2)]).unwrap(), 1);
        let err = with_relations(2, &[node(2)]).unwrap_err().to_string();
        assert!(err.contains("header claims 2 tuples"), "{err}");
        let err = with_relations(2, &[node(2), node(3)]).unwrap_err();
        assert!(err.to_string().contains("two relations"), "{err}");
        let err = with_relations(1, &[node(5)]).unwrap_err();
        assert!(err.to_string().contains("not a constant"), "{err}");
    }

    #[test]
    fn write_atomic_leaves_the_bytes_and_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("wdpt-write-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chain.delta");
        write_atomic(&path, b"first").unwrap();
        // Overwriting goes through the same temp + rename.
        write_atomic(&path, b"second, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["chain.delta"], "temp file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }
}
