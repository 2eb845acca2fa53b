//! The binary snapshot format for an `(Interner, Database)` pair.
//!
//! Layout (all integers little-endian; see `DESIGN.md` §8 for the rationale
//! and versioning rules):
//!
//! ```text
//! magic    b"WDPTSNAP"                                       8 bytes
//! version  u32                                               = 2
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
//! | 0x07 | dictionary | per symbol: space u8 · shared-prefix varint · suffix-len varint · suffix bytes |
//! | 0x06 | relation   | pred u32 · arity u32 · rows u64 · per column (cells bytes u64 · keys u64 · dir bytes u64) · per column (cells blob · key directory) |
//! | 0xFF | end        | empty                                            |
//!
//! Relation tuples are stored **sorted** (lexicographic on `Const` ids,
//! deduplicated) and column-major: each column is a zigzag-delta varint
//! cells blob plus a key directory (ascending distinct values with their
//! posting-list lengths). Nothing else is stored — a decoded [`Relation`]
//! is a lazy view into the shared snapshot buffer whose cells decode, on
//! first touch, straight into the flat sorted run it is probed in. The decoder
//! validates every structural invariant it relies on (sortedness, counts,
//! namespace of every id) and returns a typed [`StoreError`] — never a
//! panic — on anything off.
//!
//! Tags `0x02`, `0x04` and `0x05` belong to delta files ([`crate::delta`]),
//! which share this container but carry their own version number. Tag
//! `0x03` and version `1` were the retired row-major format: such a file is
//! refused with [`StoreError::UnsupportedVersion`] and must be rebuilt from
//! its text source.

use crate::crc::{crc32, Crc32};
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use wdpt_model::columnar::{
    encode_cells, encode_key_dir, read_uvarint, unzigzag, ColumnSlices, ColumnarRelation,
};
use wdpt_model::{Const, Database, Interner, Pred, Relation, SymbolSpace};
use wdpt_obs::{counter, span};

/// The eight magic bytes opening every snapshot.
pub const MAGIC: [u8; 8] = *b"WDPTSNAP";
/// The one snapshot format version this build reads and writes
/// (zero-copy columnar, varint-compressed; `DESIGN.md` §8 and §13).
pub const VERSION: u32 = 2;

pub(crate) const TAG_HEADER: u8 = 0x01;
pub(crate) const TAG_DICTIONARY: u8 = 0x02;
pub(crate) const TAG_DELTA_HEADER: u8 = 0x04;
pub(crate) const TAG_RELATION_DELTA: u8 = 0x05;
pub(crate) const TAG_RELATION_V2: u8 = 0x06;
pub(crate) const TAG_DICTIONARY_V2: u8 = 0x07;
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
                     snapshots only; rebuild the file from its text source (wdpt-store build)"
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
/// predicate id, directory keys ascending), so snapshots can be compared
/// and cached byte-wise. Per relation and column the
/// payload carries a zigzag-delta varint **cells blob** and a delta-varint
/// **key directory** (ascending distinct values + posting-list lengths),
/// both streamed off the relation's sorted run. The dictionary is
/// front-coded (shared-prefix length + suffix), which is where catalogs
/// with systematic IRIs win the most.
pub fn snapshot_to_vec_v2(interner: &Interner, db: &Database) -> Result<Vec<u8>, StoreError> {
    let _g = span!("store.encode");
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
        TAG_DICTIONARY_V2,
        &encode_dictionary_v2(interner.symbols()),
    );

    for (pred, rel) in rel_order {
        let arity = rel.arity();
        // One up-front check bounds every row id to the u32 space the
        // decoder re-validates.
        len_u32(rel.len(), "relation row count")?;
        let mut payload = Vec::new();
        payload.extend_from_slice(&pred.0.to_le_bytes());
        payload.extend_from_slice(&len_u32(arity, "relation arity")?.to_le_bytes());
        payload.extend_from_slice(&(rel.len() as u64).to_le_bytes());
        // Per-column blobs first, so the fixed-width column table can be
        // written before them.
        let mut blobs: Vec<(Vec<u8>, u64, Vec<u8>)> = Vec::with_capacity(arity);
        for col in 0..arity {
            let mut cells = Vec::new();
            encode_cells(&mut cells, rel.tuples().map(|t| t[col].0));
            // Counted over the cells just written, ascending — not copied
            // from the directory of a file the relation may have come from.
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            rel.count_posting_lens(col, |k, n| pairs.push((k.0, n)));
            let mut dir = Vec::new();
            encode_key_dir(&mut dir, pairs.iter().copied());
            blobs.push((cells, pairs.len() as u64, dir));
        }
        for (cells, keys, dir) in &blobs {
            payload.extend_from_slice(&(cells.len() as u64).to_le_bytes());
            payload.extend_from_slice(&keys.to_le_bytes());
            payload.extend_from_slice(&(dir.len() as u64).to_le_bytes());
        }
        for (cells, _, dir) in &blobs {
            payload.extend_from_slice(cells);
            payload.extend_from_slice(dir);
        }
        push_section(&mut out, TAG_RELATION_V2, &payload);
    }

    push_section(&mut out, TAG_END, &[]);
    counter!("store.snapshot.bytes_encoded").add(out.len() as u64);
    Ok(out)
}

/// Front-codes the dictionary: per symbol, `space u8 · shared-prefix-len
/// varint · suffix-len varint · suffix bytes`, where the prefix is shared
/// with the *previous* entry's name (byte-wise — reassembly restores the
/// exact original, so UTF-8 validation of the whole name still applies).
pub(crate) fn encode_dictionary_v2<'a>(
    symbols: impl Iterator<Item = (SymbolSpace, &'a str)>,
) -> Vec<u8> {
    use wdpt_model::columnar::write_uvarint;
    let mut dict = Vec::new();
    let mut prev: Vec<u8> = Vec::new();
    for (space, name) in symbols {
        let bytes = name.as_bytes();
        let shared = prev.iter().zip(bytes).take_while(|(a, b)| a == b).count();
        dict.push(space_code(space));
        write_uvarint(&mut dict, shared as u64);
        write_uvarint(&mut dict, (bytes.len() - shared) as u64);
        dict.extend_from_slice(&bytes[shared..]);
        prev.clear();
        prev.extend_from_slice(bytes);
    }
    dict
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
    let _g = span!("store.save_snapshot");
    let bytes = snapshot_to_vec_v2(interner, db)?;
    write_atomic(path, &bytes)?;
    counter!("store.snapshot.saves").add(1);
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
    /// Byte offset of the payload within the whole file — the zero-copy v2
    /// decoder turns intra-payload positions into absolute ranges of the
    /// shared `Arc<[u8]>` with this.
    pub(crate) offset: usize,
}

/// Reads the next section, verifying its CRC. `label` names the section we
/// *expect* for error messages before the tag is known.
pub(crate) fn read_section<'a>(r: &mut Reader<'a>, label: &str) -> Result<Section<'a>, StoreError> {
    let start = r.pos;
    let tag = r.u8(label)?;
    let len = r.u64(label)?;
    let len = usize::try_from(len).map_err(|_| malformed(label, "section length overflow"))?;
    let offset = r.pos;
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
    Ok(Section {
        tag,
        payload,
        offset,
    })
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

/// Per-symbol namespace lookup table for cell validation (dense, so the
/// per-cell check in relation decoding is an array index, not a hash probe).
pub(crate) struct SpaceTable {
    pub(crate) spaces: Vec<SymbolSpace>,
}

impl SpaceTable {
    /// Builds the table from an interner's id-ordered symbol listing.
    pub(crate) fn from_interner(interner: &Interner) -> SpaceTable {
        SpaceTable {
            spaces: interner.symbols().map(|(s, _)| s).collect(),
        }
    }

    pub(crate) fn is(&self, id: u32, space: SymbolSpace) -> bool {
        self.spaces.get(id as usize) == Some(&space)
    }
}

/// Everything ahead of the relation sections — magic, version, header and
/// dictionary — which [`inspect_snapshot`] and the full decoder read
/// identically.
struct Preamble {
    header: SnapshotHeader,
    symbols: Vec<(SymbolSpace, String)>,
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
    expect_tag(&section, TAG_DICTIONARY_V2, "dictionary")?;
    let count = usize::try_from(header.symbols)
        .ok()
        .filter(|&n| u32::try_from(n).is_ok())
        .ok_or_else(|| malformed("dictionary", "symbol count exceeds u32 id space"))?;
    let symbols = parse_dictionary_v2(section.payload, count)?;

    let rel_count = checked_count(
        u64::from(header.relations),
        SECTION_FRAME_BYTES as u64,
        r.remaining(),
        "header",
        "relation sections",
    )?;
    Ok(Preamble {
        header,
        symbols,
        dict_bytes: section.payload.len(),
        rel_count,
    })
}

/// Reads the closing end section and insists nothing follows it.
fn read_end(r: &mut Reader<'_>) -> Result<(), StoreError> {
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

/// Decodes a snapshot from bytes into a fresh `(Interner, Database)` pair.
/// The bytes are copied into a shared buffer once and decoded zero-copy;
/// [`load_snapshot`] reads a file straight into that buffer and skips even
/// the copy.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(Interner, Database), StoreError> {
    decode_shared(&Arc::from(bytes))
}

/// Decodes a snapshot held in a shared buffer. Relations come out **lazy**,
/// their cells and key directories borrowing from `bytes` (each keeps its
/// own `Arc` clone, so the buffer outlives any `Arc<Database>` swap that
/// drops the rest of the load context — see DESIGN.md §13 for the lifetime
/// rules). Load cost is CRC verification plus one streaming validation pass
/// per section; no row or string-heavy structure is materialized here
/// except the dictionary.
fn decode_shared(bytes: &Arc<[u8]>) -> Result<(Interner, Database), StoreError> {
    let _g = span!("store.decode");
    let mut r = Reader::new(bytes);
    let Preamble {
        header,
        symbols,
        rel_count,
        ..
    } = read_preamble(&mut r)?;
    let spaces = SpaceTable {
        spaces: symbols.iter().map(|(s, _)| *s).collect(),
    };
    let interner = Interner::from_symbols(symbols, header.fresh_counter)
        .ok_or_else(|| malformed("dictionary", "duplicate symbol entry"))?;

    let mut relations: Vec<(Pred, Relation)> = Vec::with_capacity(rel_count);
    let mut seen_preds = std::collections::HashSet::new();
    let mut total_tuples: u64 = 0;
    for idx in 0..rel_count {
        let label = format!("relation[{idx}]");
        let section = read_section(&mut r, &label)?;
        expect_tag(&section, TAG_RELATION_V2, &label)?;
        let (pred, relation) = parse_relation_v2(bytes, &section, idx, &spaces)?;
        if !seen_preds.insert(pred) {
            return Err(malformed(&label, "predicate appears in two relations"));
        }
        total_tuples += relation.len() as u64;
        relations.push((pred, relation));
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

    counter!("store.snapshot.loads").add(1);
    counter!("store.snapshot.tuples_loaded").add(total_tuples);
    Ok((interner, Database::from_sorted(relations)))
}

/// Decodes the front-coded v2 dictionary (inverse of
/// [`encode_dictionary_v2`]).
fn parse_dictionary_v2(
    payload: &[u8],
    count: usize,
) -> Result<Vec<(SymbolSpace, String)>, StoreError> {
    // Minimum entry: space byte + two one-byte varints.
    checked_count(count as u64, 3, payload.len(), "dictionary", "symbols")?;
    let mut symbols = Vec::with_capacity(count);
    let mut pos = 0usize;
    let mut prev: Vec<u8> = Vec::new();
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
            .filter(|&s| s <= prev.len())
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
        prev.truncate(shared);
        prev.extend_from_slice(suffix);
        let name = std::str::from_utf8(&prev)
            .map_err(|_| malformed("dictionary", format!("symbol {i} is not UTF-8")))?;
        symbols.push((space, name.to_string()));
    }
    if pos != payload.len() {
        return Err(malformed("dictionary", "trailing bytes"));
    }
    Ok(symbols)
}

/// Parses one v2 relation section into a lazy [`Relation`]: reads the
/// column table, slices the blobs out of the shared buffer, and runs one
/// **allocation-free** validation pass over every stream so the lazy
/// decoders can never observe a malformed byte later. Key directories are
/// checked for internal consistency (ascending in-namespace keys, lengths
/// summing to the row count); their agreement with the cells is enforced
/// by construction for files this crate writes and cross-checked by
/// `wdpt-store verify` — a hand-forged directory can skew statistics but
/// never query answers, since probes read the cells and nothing else.
fn parse_relation_v2(
    raw: &Arc<[u8]>,
    section: &Section<'_>,
    idx: usize,
    spaces: &SpaceTable,
) -> Result<(Pred, Relation), StoreError> {
    let label = format!("relation[{idx}]");
    let label = label.as_str();
    let mut r = Reader::new(section.payload);
    let pred_id = r.u32(label)?;
    if !spaces.is(pred_id, SymbolSpace::Pred) {
        return Err(malformed(label, format!("id {pred_id} is not a predicate")));
    }
    let arity_u32 = r.u32(label)?;
    let rows_u64 = r.u64(label)?;
    if rows_u64 > u64::from(u32::MAX) {
        return Err(malformed(label, "row count exceeds the u32 id space"));
    }
    // Each column owes a 24-byte table entry; bound `arity` on that before
    // sizing anything from it.
    let arity = checked_count(u64::from(arity_u32), 24, r.remaining(), label, "columns")?;
    if arity == 0 && rows_u64 > 1 {
        return Err(malformed(label, "nullary relation with more than one row"));
    }
    let rows = rows_u64 as usize;
    let mut table: Vec<(u64, u64, u64)> = Vec::with_capacity(arity);
    for _ in 0..arity {
        let cells_bytes = r.u64(label)?;
        let keys = r.u64(label)?;
        let dir_bytes = r.u64(label)?;
        table.push((cells_bytes, keys, dir_bytes));
    }

    let base = section.offset;
    let mut columns: Vec<ColumnSlices> = Vec::with_capacity(arity);
    for (col, &(cells_bytes, keys_u64, dir_bytes)) in table.iter().enumerate() {
        let cells_bytes = checked_count(cells_bytes, 1, r.remaining(), label, "cells bytes")?;
        if rows > cells_bytes {
            return Err(malformed(
                label,
                format!("column {col} declares {rows} rows in {cells_bytes} cells bytes"),
            ));
        }
        let cells_start = base + r.pos;
        r.take(cells_bytes, label)?;
        let dir_bytes = checked_count(dir_bytes, 1, r.remaining(), label, "directory bytes")?;
        // Each directory entry is at least two varint bytes.
        let keys = checked_count(keys_u64, 2, dir_bytes, label, "keys")?;
        if keys > rows {
            return Err(malformed(
                label,
                format!("column {col} claims {keys} keys for {rows} rows"),
            ));
        }
        let dir_start = base + r.pos;
        let dir_blob = r.take(dir_bytes, label)?;
        validate_key_dir(dir_blob, keys, rows_u64, spaces, label, col)?;
        columns.push(ColumnSlices {
            cells: cells_start..cells_start + cells_bytes,
            keys,
            key_dir: dir_start..dir_start + dir_bytes,
        });
    }
    if r.remaining() != 0 {
        return Err(malformed(label, "trailing bytes"));
    }
    validate_cells_streams(raw, &columns, rows, spaces, label)?;

    let backing = ColumnarRelation::new(raw.clone(), arity, rows, columns);
    Ok((Pred(pred_id), Relation::from_columnar(backing)))
}

/// Validates one column's key directory: well-formed varints consumed
/// exactly, strictly ascending in-namespace keys, non-empty posting
/// lengths summing to the row count.
fn validate_key_dir(
    blob: &[u8],
    keys: usize,
    rows: u64,
    spaces: &SpaceTable,
    label: &str,
    col: usize,
) -> Result<(), StoreError> {
    let mut pos = 0usize;
    let mut key = 0u64;
    let mut covered = 0u64;
    for i in 0..keys {
        let delta = read_uvarint(blob, &mut pos)
            .ok_or_else(|| malformed(label, format!("column {col} directory truncated")))?;
        if i > 0 && delta == 0 {
            return Err(malformed(label, format!("column {col} keys not ascending")));
        }
        key = if i == 0 {
            delta
        } else {
            key.checked_add(delta)
                .ok_or_else(|| malformed(label, format!("column {col} key overflow")))?
        };
        if key > u64::from(u32::MAX) || !spaces.is(key as u32, SymbolSpace::Const) {
            return Err(malformed(
                label,
                format!("column {col} posting key {key} is not a constant"),
            ));
        }
        let len = read_uvarint(blob, &mut pos)
            .ok_or_else(|| malformed(label, format!("column {col} directory truncated")))?;
        if len == 0 {
            return Err(malformed(label, format!("column {col} empty posting list")));
        }
        covered = covered
            .checked_add(len)
            .filter(|&c| c <= rows)
            .ok_or_else(|| {
                malformed(
                    label,
                    format!("column {col} postings cover more than {rows} rows"),
                )
            })?;
    }
    if covered != rows {
        return Err(malformed(
            label,
            format!("column {col} postings cover {covered} rows, expected {rows}"),
        ));
    }
    if pos != blob.len() {
        return Err(malformed(
            label,
            format!("column {col} trailing directory bytes"),
        ));
    }
    Ok(())
}

/// Walks all cells blobs of a relation in lockstep, row by row, verifying
/// varint well-formedness, exact stream consumption, the constant
/// namespace of every cell, and strict lexicographic row order — without
/// allocating more than two `arity`-sized scratch rows. After this pass
/// the lazy decoders in `wdpt_model::columnar` are total.
fn validate_cells_streams(
    raw: &[u8],
    columns: &[ColumnSlices],
    rows: usize,
    spaces: &SpaceTable,
    label: &str,
) -> Result<(), StoreError> {
    let arity = columns.len();
    if arity == 0 {
        return Ok(());
    }
    let blobs: Vec<&[u8]> = columns.iter().map(|c| &raw[c.cells.clone()]).collect();
    let mut cursors = vec![0usize; arity];
    let mut acc = vec![0i64; arity];
    let mut prev_row: Vec<u32> = Vec::with_capacity(arity);
    let mut cur = vec![0u32; arity];
    for row in 0..rows {
        for col in 0..arity {
            let delta = read_uvarint(blobs[col], &mut cursors[col]).ok_or_else(|| {
                malformed(
                    label,
                    format!("column {col} cells stream truncated at row {row}"),
                )
            })?;
            let v = acc[col]
                .checked_add(unzigzag(delta))
                .filter(|&v| (0..=i64::from(u32::MAX)).contains(&v));
            let v = v.ok_or_else(|| {
                malformed(
                    label,
                    format!("column {col} cell out of the u32 id space at row {row}"),
                )
            })?;
            let id = v as u32;
            if !spaces.is(id, SymbolSpace::Const) {
                return Err(malformed(
                    label,
                    format!("column {col} holds id {id}, which is not a constant"),
                ));
            }
            acc[col] = v;
            cur[col] = id;
        }
        if row > 0 {
            match prev_row.as_slice().cmp(cur.as_slice()) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => {
                    return Err(malformed(label, "duplicate tuple in sorted block"))
                }
                std::cmp::Ordering::Greater => {
                    return Err(malformed(label, "tuple block is not sorted"))
                }
            }
        }
        prev_row.clear();
        prev_row.extend_from_slice(&cur);
    }
    for (col, cursor) in cursors.iter().enumerate() {
        if *cursor != blobs[col].len() {
            return Err(malformed(
                label,
                format!("column {col} trailing bytes in cells blob"),
            ));
        }
    }
    Ok(())
}

/// Deep verification beyond what loading checks: forces every lazy
/// relation, cross-checks its run and every column permutation, and (for
/// relations decoded from a snapshot) compares the serialized key
/// directories against counts over the decoded run. `wdpt-store verify`
/// runs this so the offline tool catches the one class of forgery the
/// zero-copy load path admits — internally-consistent key directories that
/// do not match the cells.
pub fn verify_database_deep(db: &Database) -> Result<(), StoreError> {
    for (pred, rel) in db.relations() {
        let label = format!("relation (pred id {})", pred.0);
        rel.verify_deep()
            .map_err(|detail| malformed(&label, detail))?;
        for col in 0..rel.arity() {
            // What the snapshot *claims*: the raw directory bytes.
            let mut claimed: Vec<(Const, u32)> = Vec::new();
            if !rel.scan_serialized_posting_lens(col, |c, n| claimed.push((c, n))) {
                break; // not a snapshot's own run: nothing serialized to cross-check
            }
            let mut counted = Vec::with_capacity(claimed.len());
            rel.count_posting_lens(col, |c, n| counted.push((c, n)));
            if claimed != counted {
                return Err(malformed(
                    &label,
                    format!("column {col} key directory disagrees with the cells"),
                ));
            }
        }
    }
    Ok(())
}

/// Loads a snapshot file: one `File::read` of the whole file into a shared
/// buffer that the decoded relations keep borrowing — the zero-copy
/// cold-start path.
pub fn load_snapshot(path: &Path) -> Result<(Interner, Database), StoreError> {
    let _g = span!("store.load_snapshot");
    let bytes: Arc<[u8]> = std::fs::read(path)?.into();
    decode_shared(&bytes)
}

/// Walks a snapshot's sections — verifying magic, version, and every CRC —
/// and returns a summary **without** materializing the database. This is
/// `wdpt-store inspect`; [`decode_snapshot`] (used by `verify`) adds the
/// full structural validation on top.
pub fn inspect_snapshot(bytes: &[u8]) -> Result<SnapshotSummary, StoreError> {
    let mut r = Reader::new(bytes);
    let Preamble {
        header,
        symbols,
        dict_bytes,
        rel_count,
    } = read_preamble(&mut r)?;
    let mut relations = Vec::with_capacity(rel_count);
    for idx in 0..rel_count {
        let label = format!("relation[{idx}]");
        let section = read_section(&mut r, &label)?;
        expect_tag(&section, TAG_RELATION_V2, &label)?;
        let mut pr = Reader::new(section.payload);
        let pred = pr.u32(&label)?;
        let arity = pr.u32(&label)?;
        let rows = pr.u64(&label)?;
        let name = symbols
            .get(pred as usize)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| format!("<unknown id {pred}>"));
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
        assert!(rel.is_lazy(), "decode must not materialize anything");
        let a = i.constant("a");
        assert_eq!(rel.posting_len(0, a), 1);
        assert_eq!(rel.matching(&[Some(a), None]).count(), 1);
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
