//! The append-only replication log: the primary's durable record of a
//! WDPTSNAP delta chain, keyed by FNV-1a content hash.
//!
//! A log directory holds the chain's base snapshot (`base.snap`), one file
//! per accepted delta (`NNNNNN-<head>.delta`), and an index file
//! (`repl.log`) of fixed-layout records framed with the same
//! `tag · len · payload · crc32` section codec as the snapshot format.
//! Appends are crash-safe in two steps: the delta file is written
//! atomically (temp + rename) *before* its index record, so on reopen a
//! delta file without a record is simply unreferenced, while a record
//! without its file is a hard error. A partial trailing record (a crash
//! mid-append) is detected as a truncated section and dropped.
//!
//! The log's head hash doubles as the fleet's consistency token: a
//! follower subscribing with its current head receives exactly the suffix
//! of deltas it is missing ([`ReplLog::suffix_from`]), or a full-snapshot
//! bootstrap when its head is not on the chain.

use crate::delta::decode_delta;
use crate::format::{
    content_hash, malformed, push_section, read_section, write_atomic, Reader, StoreError,
};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic prefix of the `repl.log` index file (distinct from the snapshot
/// magic so a chain-directory scan can tell them apart without heuristics).
pub const LOG_MAGIC: [u8; 8] = *b"WDPTRLOG";

/// Index-file format version.
pub const LOG_VERSION: u32 = 1;

/// Section tag of one index record.
const TAG_LOG_RECORD: u8 = 0x10;

/// File name of the chain's base snapshot inside a log directory.
pub const BASE_SNAPSHOT_NAME: &str = "base.snap";

/// File name of the index inside a log directory.
pub const LOG_INDEX_NAME: &str = "repl.log";

/// Renders a chain-head hash in the canonical wire form: 16 lowercase hex
/// digits, zero-padded. Every surface that prints or parses a head (the
/// `subscribe` handshake, `min_head` admission, `inspect --json`, metrics)
/// goes through this pair so the forms cannot drift.
pub fn head_hex(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Parses a chain-head hash from its canonical 16-digit hex form.
pub fn parse_head_hex(text: &str) -> Option<u64> {
    if text.len() != 16 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

/// One accepted delta in the log, in chain order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// 1-based position in the chain (the base snapshot is position 0).
    pub seq: u64,
    /// Content hash of the predecessor file (the head this delta extends).
    pub base_hash: u64,
    /// Content hash of the delta file — the chain head after applying it.
    pub hash: u64,
    /// Size of the delta file in bytes.
    pub bytes: u64,
    /// File name within the log directory.
    pub file: String,
}

/// An open replication log directory. See the module docs for the layout.
#[derive(Debug)]
pub struct ReplLog {
    dir: PathBuf,
    base_hash: u64,
    base_bytes: u64,
    entries: Vec<LogEntry>,
}

impl ReplLog {
    /// Opens the log in `dir`, creating and initializing it (writing
    /// `base.snap` from `base_bytes`) on first use. Reopening an existing
    /// log verifies that its recorded base matches `base_bytes`, that every
    /// indexed delta file is present with the recorded content hash, and
    /// that the records chain hash-to-hash; a partial trailing record is
    /// dropped (crash mid-append), any other index corruption is an error.
    pub fn open_or_init(dir: &Path, base_bytes: &[u8]) -> Result<ReplLog, StoreError> {
        std::fs::create_dir_all(dir)?;
        let base_hash = content_hash(base_bytes);
        let base_path = dir.join(BASE_SNAPSHOT_NAME);
        if base_path.exists() {
            let existing = std::fs::read(&base_path)?;
            let existing_hash = content_hash(&existing);
            if existing_hash != base_hash {
                return Err(malformed(
                    "repl log",
                    format!(
                        "log directory was initialized with base {} but the server loaded base {}",
                        head_hex(existing_hash),
                        head_hex(base_hash)
                    ),
                ));
            }
        } else {
            write_atomic(&base_path, base_bytes)?;
        }

        let mut log = ReplLog {
            dir: dir.to_path_buf(),
            base_hash,
            base_bytes: base_bytes.len() as u64,
            entries: Vec::new(),
        };
        log.load_index()?;
        Ok(log)
    }

    fn index_path(&self) -> PathBuf {
        self.dir.join(LOG_INDEX_NAME)
    }

    fn load_index(&mut self) -> Result<(), StoreError> {
        let path = self.index_path();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let mut r = Reader::new(&bytes);
        let magic = r.take(8, "repl log")?;
        if magic != LOG_MAGIC {
            return Err(malformed("repl log", "index file has the wrong magic"));
        }
        let version = r.u32("repl log")?;
        if version != LOG_VERSION {
            return Err(malformed(
                "repl log",
                format!("unsupported index version {version}"),
            ));
        }
        let mut good_len = 8 + 4;
        while r.remaining() > 0 {
            let label = format!("repl log record[{}]", self.entries.len());
            let section = match read_section(&mut r, &label) {
                Ok(s) => s,
                // A truncated tail is the signature of a crash mid-append:
                // the delta file (written first) may exist unreferenced,
                // which is harmless. Drop the partial record.
                Err(StoreError::Truncated { .. }) => {
                    truncate_file(&path, good_len as u64)?;
                    break;
                }
                Err(e) => return Err(e),
            };
            if section.tag != TAG_LOG_RECORD {
                return Err(malformed(&label, format!("unexpected tag {}", section.tag)));
            }
            let entry = parse_record(section.payload, &label)?;
            let expected_base = self.head();
            if entry.base_hash != expected_base {
                return Err(malformed(
                    &label,
                    format!(
                        "record chains to {} but the log head is {}",
                        head_hex(entry.base_hash),
                        head_hex(expected_base)
                    ),
                ));
            }
            if entry.seq != self.entries.len() as u64 + 1 {
                return Err(malformed(
                    &label,
                    format!(
                        "record has sequence {}, expected {}",
                        entry.seq,
                        self.entries.len() + 1
                    ),
                ));
            }
            let file = self.dir.join(&entry.file);
            let delta_bytes = std::fs::read(&file).map_err(|e| {
                malformed(
                    &label,
                    format!("indexed delta {} unreadable: {e}", entry.file),
                )
            })?;
            if delta_bytes.len() as u64 != entry.bytes || content_hash(&delta_bytes) != entry.hash {
                return Err(malformed(
                    &label,
                    format!("delta file {} does not match its index record", entry.file),
                ));
            }
            good_len = bytes.len() - r.remaining();
            self.entries.push(entry);
        }
        Ok(())
    }

    /// The chain head: the content hash of the last accepted delta, or of
    /// the base snapshot when no delta has been accepted.
    pub fn head(&self) -> u64 {
        self.entries.last().map_or(self.base_hash, |e| e.hash)
    }

    /// Content hash of the base snapshot.
    pub fn base_hash(&self) -> u64 {
        self.base_hash
    }

    /// The accepted deltas, in chain order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Every hash on the chain, base first, head last.
    pub fn chain(&self) -> Vec<u64> {
        let mut chain = Vec::with_capacity(self.entries.len() + 1);
        chain.push(self.base_hash);
        chain.extend(self.entries.iter().map(|e| e.hash));
        chain
    }

    /// The suffix of entries a subscriber at head `known` is missing:
    /// empty when it is current, the whole log when it holds only the
    /// base, `None` when `known` is not on this chain at all (the caller
    /// falls back to a full-snapshot bootstrap).
    pub fn suffix_from(&self, known: u64) -> Option<&[LogEntry]> {
        if known == self.base_hash {
            return Some(&self.entries);
        }
        self.entries
            .iter()
            .position(|e| e.hash == known)
            .map(|i| &self.entries[i + 1..])
    }

    /// Accepts one verified delta: structurally decodes it, checks that it
    /// chains onto the current head, writes its file atomically, then
    /// appends its index record. Returns the new entry.
    pub fn append(&mut self, delta_bytes: &[u8]) -> Result<&LogEntry, StoreError> {
        let delta = decode_delta(delta_bytes)?;
        let head = self.head();
        if delta.header.base_hash != head {
            return Err(malformed(
                "repl log",
                format!(
                    "delta chains to {} but the log head is {}",
                    head_hex(delta.header.base_hash),
                    head_hex(head)
                ),
            ));
        }
        let hash = content_hash(delta_bytes);
        let seq = self.entries.len() as u64 + 1;
        let file = format!("{seq:06}-{}.delta", head_hex(hash));
        write_atomic(&self.dir.join(&file), delta_bytes)?;

        let entry = LogEntry {
            seq,
            base_hash: head,
            hash,
            bytes: delta_bytes.len() as u64,
            file,
        };
        let mut record = Vec::new();
        push_section(&mut record, TAG_LOG_RECORD, &encode_record(&entry)?);
        let path = self.index_path();
        let mut f = if path.exists() {
            std::fs::OpenOptions::new().append(true).open(&path)?
        } else {
            let mut f = std::fs::File::create(&path)?;
            f.write_all(&LOG_MAGIC)?;
            f.write_all(&LOG_VERSION.to_le_bytes())?;
            f
        };
        f.write_all(&record)?;
        f.sync_all()?;
        self.entries.push(entry);
        Ok(self.entries.last().expect("entry just pushed"))
    }

    /// Reads one entry's delta file back, verifying its content hash.
    pub fn read_delta(&self, entry: &LogEntry) -> Result<Vec<u8>, StoreError> {
        let bytes = std::fs::read(self.dir.join(&entry.file))?;
        if content_hash(&bytes) != entry.hash {
            return Err(malformed(
                "repl log",
                format!("delta file {} changed on disk", entry.file),
            ));
        }
        Ok(bytes)
    }

    /// Reads the base snapshot back, verifying its content hash.
    pub fn read_base(&self) -> Result<Vec<u8>, StoreError> {
        let bytes = std::fs::read(self.dir.join(BASE_SNAPSHOT_NAME))?;
        if content_hash(&bytes) != self.base_hash {
            return Err(malformed("repl log", "base snapshot changed on disk"));
        }
        Ok(bytes)
    }

    /// Total bytes of the base snapshot.
    pub fn base_bytes(&self) -> u64 {
        self.base_bytes
    }
}

fn encode_record(entry: &LogEntry) -> Result<Vec<u8>, StoreError> {
    let mut out = Vec::with_capacity(8 * 4 + 4 + entry.file.len());
    out.extend_from_slice(&entry.seq.to_le_bytes());
    out.extend_from_slice(&entry.base_hash.to_le_bytes());
    out.extend_from_slice(&entry.hash.to_le_bytes());
    out.extend_from_slice(&entry.bytes.to_le_bytes());
    out.extend_from_slice(
        &crate::format::len_u32(entry.file.len(), "log file name")?.to_le_bytes(),
    );
    out.extend_from_slice(entry.file.as_bytes());
    Ok(out)
}

fn parse_record(payload: &[u8], label: &str) -> Result<LogEntry, StoreError> {
    let mut r = Reader::new(payload);
    let seq = r.u64(label)?;
    let base_hash = r.u64(label)?;
    let hash = r.u64(label)?;
    let bytes = r.u64(label)?;
    let name_len = r.u32(label)? as usize;
    let name = std::str::from_utf8(r.take(name_len, label)?)
        .map_err(|_| malformed(label, "file name is not UTF-8"))?;
    if name.contains('/') || name.contains('\\') || name.contains("..") {
        return Err(malformed(label, "file name escapes the log directory"));
    }
    if r.remaining() != 0 {
        return Err(malformed(label, "trailing bytes"));
    }
    Ok(LogEntry {
        seq,
        base_hash,
        hash,
        bytes,
        file: name.to_string(),
    })
}

fn truncate_file(path: &Path, len: u64) -> Result<(), StoreError> {
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(len)?;
    f.sync_all()?;
    Ok(())
}

/// The result of ordering a directory of chain files: the base snapshot
/// plus every delta in hash order.
#[derive(Debug)]
pub struct ChainScan {
    /// Path of the (single) full snapshot in the directory.
    pub base: PathBuf,
    /// Content hash of the base snapshot file.
    pub base_hash: u64,
    /// `(path, head-after-applying)` for each delta, in chain order.
    pub deltas: Vec<(PathBuf, u64)>,
    /// The final chain head.
    pub head: u64,
}

/// Scans `dir` for WDPTSNAP files and orders them into a single delta
/// chain by content hash: exactly one full snapshot must be present, every
/// delta must chain (directly or transitively) onto it, and no two deltas
/// may share a base (a fork is ambiguous). Non-snapshot files (the
/// `repl.log` index, temp files) are ignored. This is `wdpt-store verify
/// --chain` and the follower bootstrap's view of a log directory.
pub fn scan_chain_dir(dir: &Path) -> Result<ChainScan, StoreError> {
    let mut snapshots: Vec<(PathBuf, u64)> = Vec::new();
    // base_hash of a delta -> (path, its own content hash)
    let mut by_base: std::collections::BTreeMap<u64, (PathBuf, u64)> = Default::default();
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    names.sort();
    for path in names {
        let bytes = std::fs::read(&path)?;
        if bytes.len() < 8 || bytes[..8] != crate::format::MAGIC {
            continue; // not a snapshot or delta; skip (repl.log, temp files)
        }
        let hash = content_hash(&bytes);
        match decode_delta(&bytes) {
            Ok(delta) => {
                if let Some((other, _)) =
                    by_base.insert(delta.header.base_hash, (path.clone(), hash))
                {
                    return Err(malformed(
                        "chain",
                        format!(
                            "{} and {} both chain onto {} (forked chain)",
                            other.display(),
                            path.display(),
                            head_hex(delta.header.base_hash)
                        ),
                    ));
                }
            }
            // `decode_delta` refuses a full snapshot with a typed hint;
            // classify those as the base candidate, propagate real errors.
            Err(e) if e.to_string().contains("full snapshot") => snapshots.push((path, hash)),
            Err(e) => return Err(e),
        }
    }
    let (base, base_hash) = match snapshots.len() {
        0 => return Err(malformed("chain", "directory holds no full snapshot")),
        1 => snapshots.remove(0),
        n => {
            return Err(malformed(
                "chain",
                format!("directory holds {n} full snapshots; a chain has exactly one base"),
            ))
        }
    };
    let mut deltas = Vec::with_capacity(by_base.len());
    let mut head = base_hash;
    while let Some((path, hash)) = by_base.remove(&head) {
        deltas.push((path, hash));
        head = hash;
    }
    if let Some((stray, (path, _))) = by_base.iter().next() {
        return Err(malformed(
            "chain",
            format!(
                "{} chains onto {}, which is not reachable from the base",
                path.display(),
                head_hex(*stray)
            ),
        ));
    }
    Ok(ChainScan {
        base,
        base_hash,
        deltas,
        head,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{delta_to_vec, save_delta, save_snapshot, snapshot_to_vec_v2};
    use wdpt_model::{Const, Database, Interner};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wdpt-replog-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A base pair plus two successive insert-only extensions, round-tripped
    /// through snapshot bytes so relations arrive sorted.
    fn chain_fixture() -> (Vec<u8>, Vec<Vec<u8>>) {
        let mut i = Interner::new();
        let p = i.pred("edge");
        let mut db = Database::new();
        let (a, b) = (i.constant("a"), i.constant("b"));
        db.insert(p, vec![Const(a.0), Const(b.0)]);
        let base_bytes = snapshot_to_vec_v2(&i, &db).unwrap();
        let (mut ci, mut cdb) = crate::decode_snapshot(&base_bytes).unwrap();

        let mut deltas = Vec::new();
        let mut tip = base_bytes.clone();
        for step in 0..2 {
            let (bi, bdb) = (ci.clone(), cdb.clone());
            let p = ci.pred("edge");
            let c = ci.constant(&format!("n{step}"));
            let d = ci.constant(&format!("m{step}"));
            cdb.insert(p, vec![Const(c.0), Const(d.0)]);
            let bytes = delta_to_vec(content_hash(&tip), &bi, &bdb, &ci, &cdb).unwrap();
            tip = bytes.clone();
            deltas.push(bytes);
        }
        (base_bytes, deltas)
    }

    #[test]
    fn head_hex_round_trips_and_rejects_noncanonical() {
        for h in [0u64, 1, 0xdead_beef_cafe_f00d, u64::MAX] {
            assert_eq!(parse_head_hex(&head_hex(h)), Some(h));
        }
        assert_eq!(parse_head_hex(""), None);
        assert_eq!(parse_head_hex("12345"), None);
        assert_eq!(parse_head_hex("xyzw567890123456"), None);
        assert_eq!(parse_head_hex("0123456789abcdef0"), None);
    }

    #[test]
    fn log_appends_chain_and_survive_reopen() {
        let dir = temp_dir("reopen");
        let (base, deltas) = chain_fixture();
        let mut log = ReplLog::open_or_init(&dir, &base).unwrap();
        assert_eq!(log.head(), content_hash(&base));
        assert_eq!(log.chain(), vec![content_hash(&base)]);
        for d in &deltas {
            log.append(d).unwrap();
        }
        assert_eq!(log.head(), content_hash(deltas.last().unwrap()));
        assert_eq!(log.entries().len(), 2);

        // Reopening with the same base sees the same chain.
        let reopened = ReplLog::open_or_init(&dir, &base).unwrap();
        assert_eq!(reopened.entries(), log.entries());
        assert_eq!(reopened.head(), log.head());
        assert_eq!(reopened.read_base().unwrap(), base);
        assert_eq!(
            reopened.read_delta(&reopened.entries()[0]).unwrap(),
            deltas[0]
        );

        // Reopening with a different base is refused.
        let err = ReplLog::open_or_init(&dir, b"not the same").unwrap_err();
        assert!(err.to_string().contains("initialized with base"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_rejects_out_of_order_delta() {
        let dir = temp_dir("order");
        let (base, deltas) = chain_fixture();
        let mut log = ReplLog::open_or_init(&dir, &base).unwrap();
        // deltas[1] chains onto deltas[0], not onto the base.
        let err = log.append(&deltas[1]).unwrap_err();
        assert!(err.to_string().contains("log head"), "{err}");
        assert_eq!(log.entries().len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suffix_from_returns_exactly_the_missing_tail() {
        let dir = temp_dir("suffix");
        let (base, deltas) = chain_fixture();
        let mut log = ReplLog::open_or_init(&dir, &base).unwrap();
        for d in &deltas {
            log.append(d).unwrap();
        }
        assert_eq!(log.suffix_from(log.head()).unwrap().len(), 0);
        assert_eq!(log.suffix_from(content_hash(&base)).unwrap().len(), 2);
        assert_eq!(
            log.suffix_from(content_hash(&deltas[0])).unwrap(),
            &log.entries()[1..]
        );
        assert!(log.suffix_from(0xdead_beef).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_trailing_record_is_dropped_on_reopen() {
        let dir = temp_dir("tail");
        let (base, deltas) = chain_fixture();
        let mut log = ReplLog::open_or_init(&dir, &base).unwrap();
        for d in &deltas {
            log.append(d).unwrap();
        }
        // Chop bytes off the index tail: a crash between the delta-file
        // write and a complete record append.
        let idx = dir.join(LOG_INDEX_NAME);
        let bytes = std::fs::read(&idx).unwrap();
        std::fs::write(&idx, &bytes[..bytes.len() - 7]).unwrap();
        let reopened = ReplLog::open_or_init(&dir, &base).unwrap();
        assert_eq!(reopened.entries().len(), 1);
        assert_eq!(reopened.head(), content_hash(&deltas[0]));
        // The next append re-records the dropped delta cleanly.
        let mut reopened = reopened;
        reopened.append(&deltas[1]).unwrap();
        assert_eq!(reopened.head(), content_hash(&deltas[1]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_record_body_is_a_hard_error() {
        let dir = temp_dir("corrupt");
        let (base, deltas) = chain_fixture();
        let mut log = ReplLog::open_or_init(&dir, &base).unwrap();
        log.append(&deltas[0]).unwrap();
        let idx = dir.join(LOG_INDEX_NAME);
        let mut bytes = std::fs::read(&idx).unwrap();
        let mid = 8 + 4 + 10; // inside the first record
        bytes[mid] ^= 0xFF;
        std::fs::write(&idx, &bytes).unwrap();
        let err = ReplLog::open_or_init(&dir, &base).unwrap_err();
        assert!(
            matches!(err, StoreError::ChecksumMismatch { .. }),
            "expected checksum error, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_chain_dir_orders_by_hash_and_rejects_forks() {
        let dir = temp_dir("scan");
        let (base, deltas) = chain_fixture();
        let (i, db) = crate::decode_snapshot(&base).unwrap();
        // Write files with names that do NOT sort in chain order.
        save_snapshot(&dir.join("zz-base.snap"), &i, &db).unwrap();
        save_delta(&dir.join("b-second.delta"), &deltas[1]).unwrap();
        save_delta(&dir.join("a-first.delta"), &deltas[0]).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();

        let scan = scan_chain_dir(&dir).unwrap();
        assert_eq!(scan.base_hash, content_hash(&base));
        assert_eq!(scan.deltas.len(), 2);
        assert!(scan.deltas[0].0.ends_with("a-first.delta"));
        assert!(scan.deltas[1].0.ends_with("b-second.delta"));
        assert_eq!(scan.head, content_hash(&deltas[1]));

        // A second delta with the same base forks the chain.
        save_delta(&dir.join("c-fork.delta"), &deltas[0]).unwrap();
        // Identical bytes → identical base hash → fork error (the scan
        // cannot know the two files are the same update).
        let err = scan_chain_dir(&dir).unwrap_err();
        assert!(err.to_string().contains("fork"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_chain_dir_flags_unreachable_deltas() {
        let dir = temp_dir("stray");
        let (base, deltas) = chain_fixture();
        let (i, db) = crate::decode_snapshot(&base).unwrap();
        save_snapshot(&dir.join("base.snap"), &i, &db).unwrap();
        // Only the second delta: its base (delta 0) is not in the dir.
        save_delta(&dir.join("second.delta"), &deltas[1]).unwrap();
        let err = scan_chain_dir(&dir).unwrap_err();
        assert!(err.to_string().contains("not reachable"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
