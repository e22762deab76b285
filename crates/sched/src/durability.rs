//! Durable checkpointing: a write-ahead event journal and rolling
//! snapshots.
//!
//! The online driver's state is explicit ([`crate::CoreSnapshot`]
//! wrapped in [`crate::ReplaySnapshot`]); this module makes that state
//! *durable*. Two pieces compose (DESIGN.md §13):
//!
//! * [`Journal`] — an append-only write-ahead log of wire lines
//!   (fsync'd per [`Journal::sync`]). The on-disk format is a magic
//!   header followed by length-prefixed, checksummed frames; recovery
//!   tolerates a torn tail — a truncated or corrupt final frame is
//!   detected, dropped, and the file truncated back to the last valid
//!   frame, never a panic.
//! * [`SnapshotStore`] — rolling checkpoints named by stream position,
//!   written atomically (temp file + fsync + rename + directory fsync)
//!   and pruned to the newest K. [`SnapshotStore::load_newest`] falls
//!   back to older snapshots when the newest is unreadable.
//!
//! Crash recovery composes them: newest valid snapshot + replay of the
//! journal tail reproduces the uninterrupted run's state — and, because
//! decisions are a pure function of the event prefix, its decision
//! stream — byte for byte.
//!
//! ## Binary encoding
//!
//! Snapshots carry either the golden JSON wire form (`schema_version:
//! 1`, unchanged) or a compact binary encoding of the *same* value
//! tree — an encoding, not a new schema. The two are negotiated by
//! magic bytes on read ([`from_bytes`]): binary files start with
//! `BBSNAP` + a version byte, everything else is parsed as JSON. The
//! binary form is tag-prefixed with LEB128 varints and an interned
//! string table, which is where the size win over JSON comes from —
//! field names repeat once per struct in JSON but are one-byte
//! back-references here.

use crate::error::SchedError;
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// How a snapshot is encoded on disk. JSON is the golden wire form;
/// binary is a size-optimized encoding of the same value tree,
/// negotiated by magic bytes on read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Encoding {
    /// The versioned JSON wire form (DESIGN.md §12).
    Json,
    /// The compact tagged-binary form (DESIGN.md §13).
    Binary,
}

impl Encoding {
    /// The lowercase name (`json` | `binary`), as spelled on CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            Encoding::Json => "json",
            Encoding::Binary => "binary",
        }
    }
}

impl std::fmt::Display for Encoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Encoding {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "json" => Ok(Encoding::Json),
            "binary" => Ok(Encoding::Binary),
            other => Err(format!("unknown snapshot encoding '{other}' (json|binary)")),
        }
    }
}

// ---------------------------------------------------------------------
// Binary value codec
// ---------------------------------------------------------------------

/// Magic prefix of a binary snapshot file; the byte after it is the
/// binary-container version. JSON files never start with it.
pub const BINARY_MAGIC: &[u8; 6] = b"BBSNAP";
/// Binary-container version written after [`BINARY_MAGIC`]. This
/// versions the *encoding*; the value tree inside still carries the
/// JSON-visible `schema_version: 1`.
pub const BINARY_VERSION: u8 = 1;

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_U64: u8 = 0x03;
const TAG_I64: u8 = 0x04;
const TAG_F64_RAW: u8 = 0x05;
const TAG_F64_INT: u8 = 0x06;
const TAG_STR_NEW: u8 = 0x07;
const TAG_STR_REF: u8 = 0x08;
const TAG_SEQ: u8 = 0x09;
const TAG_MAP: u8 = 0x0a;

/// Decode recursion bound: corrupt input cannot drive the stack deeper
/// than this (well past any real snapshot's nesting).
const MAX_DEPTH: usize = 128;

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Whether `f` round-trips exactly through the varint-integer encoding
/// (integral, within the f64-exact integer range, and not `-0.0`, whose
/// sign a varint cannot carry).
fn as_exact_int(f: f64) -> Option<i64> {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if f.is_finite() && f.trunc() == f && f.abs() <= EXACT && !(f == 0.0 && f.is_sign_negative()) {
        Some(f as i64)
    } else {
        None
    }
}

struct StrInterner {
    ids: HashMap<String, u64>,
}

impl StrInterner {
    fn write_str(&mut self, out: &mut Vec<u8>, s: &str) {
        if let Some(&id) = self.ids.get(s) {
            out.push(TAG_STR_REF);
            write_varint(out, id);
        } else {
            let id = self.ids.len() as u64;
            self.ids.insert(s.to_string(), id);
            out.push(TAG_STR_NEW);
            write_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn encode_into(v: &Value, out: &mut Vec<u8>, strs: &mut StrInterner) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::U64(n) => {
            out.push(TAG_U64);
            write_varint(out, *n);
        }
        Value::I64(n) => {
            out.push(TAG_I64);
            write_varint(out, zigzag(*n));
        }
        Value::F64(f) => match as_exact_int(*f) {
            Some(i) => {
                out.push(TAG_F64_INT);
                write_varint(out, zigzag(i));
            }
            None => {
                out.push(TAG_F64_RAW);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
        },
        Value::Str(s) => strs.write_str(out, s),
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            write_varint(out, items.len() as u64);
            for item in items {
                encode_into(item, out, strs);
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            write_varint(out, entries.len() as u64);
            for (k, val) in entries {
                strs.write_str(out, k);
                encode_into(val, out, strs);
            }
        }
    }
}

/// Encodes a value tree in the tagged-binary form (no magic header —
/// [`to_bytes`] adds the container framing).
fn encode_value(v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    let mut strs = StrInterner { ids: HashMap::new() };
    encode_into(v, &mut out, &mut strs);
    out
}

struct BinReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    strs: Vec<String>,
}

impl<'a> BinReader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn byte(&mut self) -> Result<u8, String> {
        let b = *self.bytes.get(self.pos).ok_or("unexpected end of binary snapshot")?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            // The 10th byte carries only bit 63: anything above 1 would
            // lose its high bits to the shift (or continue past 64 bits).
            if shift == 63 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("varint overflows 64 bits".to_string())
    }

    fn str_value(&mut self, tag: u8) -> Result<String, String> {
        match tag {
            TAG_STR_NEW => {
                let len = self.varint()? as usize;
                if len > self.remaining() {
                    return Err(format!("string length {len} exceeds remaining input"));
                }
                let raw = &self.bytes[self.pos..self.pos + len];
                self.pos += len;
                let s = std::str::from_utf8(raw).map_err(|e| e.to_string())?.to_string();
                self.strs.push(s.clone());
                Ok(s)
            }
            TAG_STR_REF => {
                let id = self.varint()? as usize;
                self.strs
                    .get(id)
                    .cloned()
                    .ok_or_else(|| format!("string reference {id} out of range"))
            }
            other => Err(format!("expected a string tag, found 0x{other:02x}")),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        let tag = self.byte()?;
        match tag {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_U64 => Ok(Value::U64(self.varint()?)),
            TAG_I64 => Ok(Value::I64(unzigzag(self.varint()?))),
            TAG_F64_RAW => {
                if self.remaining() < 8 {
                    return Err("truncated float".to_string());
                }
                let mut raw = [0u8; 8];
                raw.copy_from_slice(&self.bytes[self.pos..self.pos + 8]);
                self.pos += 8;
                Ok(Value::F64(f64::from_bits(u64::from_le_bytes(raw))))
            }
            TAG_F64_INT => Ok(Value::F64(unzigzag(self.varint()?) as f64)),
            TAG_STR_NEW | TAG_STR_REF => Ok(Value::Str(self.str_value(tag)?)),
            TAG_SEQ => {
                let len = self.varint()? as usize;
                if len > self.remaining() {
                    return Err(format!("sequence length {len} exceeds remaining input"));
                }
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Seq(items))
            }
            TAG_MAP => {
                let len = self.varint()? as usize;
                if len > self.remaining() {
                    return Err(format!("map length {len} exceeds remaining input"));
                }
                let mut entries = Vec::with_capacity(len);
                for _ in 0..len {
                    let tag = self.byte()?;
                    let key = self.str_value(tag)?;
                    entries.push((key, self.value(depth + 1)?));
                }
                Ok(Value::Map(entries))
            }
            other => Err(format!("unknown binary tag 0x{other:02x}")),
        }
    }
}

/// Decodes a tagged-binary value tree (payload after the magic header).
fn decode_value(bytes: &[u8]) -> Result<Value, String> {
    let mut r = BinReader { bytes, pos: 0, strs: Vec::new() };
    let v = r.value(0)?;
    if r.pos != bytes.len() {
        return Err(format!("{} trailing bytes after the value", bytes.len() - r.pos));
    }
    Ok(v)
}

// ---------------------------------------------------------------------
// Container encode / decode (magic-byte negotiation)
// ---------------------------------------------------------------------

/// Serializes `value` in the given encoding: the JSON wire form
/// verbatim, or [`BINARY_MAGIC`] + version byte + the tagged-binary
/// tree. Both decode through [`from_bytes`].
pub fn to_bytes<T: Serialize + ?Sized>(value: &T, encoding: Encoding) -> Vec<u8> {
    match encoding {
        Encoding::Json => serde_json::to_vec(value).expect("snapshot values always serialize"),
        Encoding::Binary => {
            let tree = value.to_value();
            let body = encode_value(&tree);
            let mut out = Vec::with_capacity(BINARY_MAGIC.len() + 1 + body.len());
            out.extend_from_slice(BINARY_MAGIC);
            out.push(BINARY_VERSION);
            out.extend_from_slice(&body);
            out
        }
    }
}

/// Decodes a snapshot file's raw value tree, negotiating the encoding
/// by magic bytes: [`BINARY_MAGIC`] means binary, anything else is
/// parsed as JSON. Corruption is a typed error, never a panic.
pub fn value_from_bytes(bytes: &[u8]) -> Result<(Value, Encoding), SchedError> {
    if bytes.starts_with(BINARY_MAGIC) {
        let Some(&version) = bytes.get(BINARY_MAGIC.len()) else {
            return Err(SchedError::CorruptSnapshot(
                "binary snapshot truncated inside the magic header".to_string(),
            ));
        };
        if version != BINARY_VERSION {
            return Err(SchedError::CorruptSnapshot(format!(
                "binary snapshot container version {version} is not supported \
                 (expected {BINARY_VERSION})"
            )));
        }
        let v =
            decode_value(&bytes[BINARY_MAGIC.len() + 1..]).map_err(SchedError::CorruptSnapshot)?;
        Ok((v, Encoding::Binary))
    } else {
        let v = serde_json::value_from_slice(bytes)
            .map_err(|e| SchedError::CorruptSnapshot(e.to_string()))?;
        Ok((v, Encoding::Json))
    }
}

/// Decodes a typed snapshot, negotiating the encoding by magic bytes
/// (see [`value_from_bytes`]).
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<(T, Encoding), SchedError> {
    let (tree, encoding) = value_from_bytes(bytes)?;
    let value = T::from_value(&tree).map_err(|e| SchedError::CorruptSnapshot(e.to_string()))?;
    Ok((value, encoding))
}

// ---------------------------------------------------------------------
// Atomic writes
// ---------------------------------------------------------------------

/// Writes `bytes` to `path` atomically *and durably*: temp file, fsync,
/// rename over the target, then a best-effort fsync of the containing
/// directory so the rename itself survives a power cut. A crash at any
/// point leaves either the old file or the new one, never a torn mix.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Ok(d) = File::open(dir) {
                d.sync_all().ok();
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Write-ahead journal
// ---------------------------------------------------------------------

/// Magic prefix of a journal file, followed by a version byte and a
/// newline.
pub const JOURNAL_MAGIC: &[u8; 5] = b"BBWAL";
/// Journal container version written after [`JOURNAL_MAGIC`].
pub const JOURNAL_VERSION: u8 = 1;

const JOURNAL_HEADER_LEN: usize = 7; // magic + version + '\n'
const FRAME_HEADER_LEN: usize = 12; // u32 payload length + u64 checksum

fn journal_header() -> [u8; JOURNAL_HEADER_LEN] {
    let mut h = [0u8; JOURNAL_HEADER_LEN];
    h[..5].copy_from_slice(JOURNAL_MAGIC);
    h[5] = JOURNAL_VERSION;
    h[6] = b'\n';
    h
}

/// FNV-1a 64-bit — the per-frame payload checksum. Not cryptographic;
/// it only needs to catch torn writes and bit rot.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What [`Journal::open`] salvaged from an existing journal file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JournalRecovery {
    /// Every intact record's payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes dropped from the tail (a torn or corrupt final frame; 0 on
    /// a clean file). The file has already been truncated past them.
    pub dropped_bytes: u64,
}

/// An append-only write-ahead log of wire-format lines.
///
/// On-disk layout: a 7-byte header (`BBWAL` + version + `\n`), then
/// frames of `[u32 LE payload length][u64 LE FNV-1a checksum][payload]`.
/// [`Journal::open`] scans existing frames and stops at the first
/// truncated or corrupt one, truncating the file back to the last valid
/// frame (torn-tail tolerance); it never panics on garbage.
///
/// [`Journal::append`] buffers in the OS; call [`Journal::sync`] (or
/// [`Journal::append_sync`]) to make records durable before acting on
/// them — write-ahead means *journal first, apply second*.
pub struct Journal {
    file: File,
    records: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, salvaging every intact
    /// record. A file that is not a bbsched journal (bad magic) or has
    /// an unsupported version is a hard error — it is never clobbered.
    pub fn open(path: &Path) -> io::Result<(Self, JournalRecovery)> {
        let header = journal_header();
        let mut file =
            OpenOptions::new().create(true).truncate(false).read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        if bytes.len() < JOURNAL_HEADER_LEN {
            // Empty, or a crash tore the header itself: rewrite it.
            if !header.starts_with(&bytes) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("'{}' is not a bbsched journal", path.display()),
                ));
            }
            let dropped = bytes.len() as u64;
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&header)?;
            file.sync_data()?;
            return Ok((
                Journal { file, records: 0 },
                JournalRecovery { records: Vec::new(), dropped_bytes: dropped },
            ));
        }
        if &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("'{}' is not a bbsched journal", path.display()),
            ));
        }
        if bytes[JOURNAL_MAGIC.len()..JOURNAL_HEADER_LEN] != header[JOURNAL_MAGIC.len()..] {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "journal version {} in '{}' is not supported (expected {JOURNAL_VERSION})",
                    bytes[JOURNAL_MAGIC.len()],
                    path.display()
                ),
            ));
        }

        let mut records = Vec::new();
        let mut off = JOURNAL_HEADER_LEN;
        loop {
            if off + FRAME_HEADER_LEN > bytes.len() {
                break; // torn frame header
            }
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
            let sum = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().expect("8 bytes"));
            let Some(end) = off.checked_add(FRAME_HEADER_LEN).and_then(|s| s.checked_add(len))
            else {
                break;
            };
            if end > bytes.len() {
                break; // torn payload
            }
            let payload = &bytes[off + FRAME_HEADER_LEN..end];
            if fnv1a64(payload) != sum {
                break; // corrupt payload (or a frame boundary lie)
            }
            records.push(payload.to_vec());
            off = end;
        }

        let dropped = (bytes.len() - off) as u64;
        if dropped > 0 {
            file.set_len(off as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(off as u64))?;
        let n = records.len() as u64;
        Ok((Journal { file, records: n }, JournalRecovery { records, dropped_bytes: dropped }))
    }

    /// Records appended so far (salvaged + newly appended).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends one record (not yet durable — see [`Journal::sync`]).
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let len = u32::try_from(payload.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "journal record exceeds 4 GiB")
        })?;
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.records += 1;
        Ok(())
    }

    /// Fsyncs everything appended so far.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Appends one record and fsyncs it — the write-ahead step.
    pub fn append_sync(&mut self, payload: &[u8]) -> io::Result<()> {
        self.append(payload)?;
        self.sync()
    }
}

// ---------------------------------------------------------------------
// Rolling snapshot store
// ---------------------------------------------------------------------

/// A snapshot loaded by [`SnapshotStore::load_newest`].
#[derive(Clone, Debug, PartialEq)]
pub struct LoadedSnapshot<T> {
    /// The stream position the snapshot was taken at (from its
    /// filename).
    pub position: u64,
    /// The decoded snapshot.
    pub value: T,
    /// The encoding the file carried.
    pub encoding: Encoding,
    /// Newer snapshots that were skipped because they failed to read or
    /// decode.
    pub skipped: usize,
    /// The file the snapshot was loaded from.
    pub path: PathBuf,
}

/// Rolling checkpoints in a directory: `snap-<position>.ckpt`, written
/// atomically ([`atomic_write`]) and pruned to the newest K.
pub struct SnapshotStore {
    dir: PathBuf,
    retain: usize,
}

impl SnapshotStore {
    /// Opens (creating if needed) the store at `dir`, retaining the
    /// newest `retain` snapshots (at least 1).
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir, retain: retain.max(1) })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a snapshot at `position` lives in.
    pub fn path_for(&self, position: u64) -> PathBuf {
        self.dir.join(format!("snap-{position:012}.ckpt"))
    }

    /// Stream positions with a snapshot on disk, oldest first.
    pub fn positions(&self) -> io::Result<Vec<u64>> {
        let mut positions = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(digits) = name.strip_prefix("snap-").and_then(|s| s.strip_suffix(".ckpt")) {
                if let Ok(pos) = digits.parse::<u64>() {
                    positions.push(pos);
                }
            }
        }
        positions.sort_unstable();
        Ok(positions)
    }

    /// Writes a snapshot for `position` atomically, then prunes old
    /// ones down to the retention count.
    pub fn save<T: Serialize>(
        &self,
        position: u64,
        value: &T,
        encoding: Encoding,
    ) -> io::Result<PathBuf> {
        let path = self.path_for(position);
        atomic_write(&path, &to_bytes(value, encoding))?;
        self.prune()?;
        Ok(path)
    }

    fn prune(&self) -> io::Result<()> {
        let positions = self.positions()?;
        if positions.len() > self.retain {
            for &pos in &positions[..positions.len() - self.retain] {
                fs::remove_file(self.path_for(pos))?;
            }
        }
        Ok(())
    }

    /// Loads the newest snapshot that reads and decodes cleanly,
    /// falling back to older ones past any corrupt file. `Ok(None)`
    /// when no snapshot is loadable at all.
    pub fn load_newest<T: Deserialize>(&self) -> io::Result<Option<LoadedSnapshot<T>>> {
        let mut skipped = 0;
        for &position in self.positions()?.iter().rev() {
            let path = self.path_for(position);
            let Ok(bytes) = fs::read(&path) else {
                skipped += 1;
                continue;
            };
            match from_bytes::<T>(&bytes) {
                Ok((value, encoding)) => {
                    return Ok(Some(LoadedSnapshot { position, value, encoding, skipped, path }))
                }
                Err(_) => skipped += 1,
            }
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// Cheap inspection
// ---------------------------------------------------------------------

/// Shallow facts about a snapshot file, extracted from the value tree
/// without ever constructing a core (`cli snapshot inspect`).
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotInfo {
    /// The encoding the file carried.
    pub encoding: Encoding,
    /// What the file looks like, from its top-level shape.
    pub kind: &'static str,
    /// `schema_version` of the embedded core snapshot.
    pub schema_version: Option<u64>,
    /// Scheduling invocations run.
    pub invocations: Option<u64>,
    /// Jobs waiting in the queue.
    pub queue_depth: Option<usize>,
    /// Jobs currently running.
    pub running_jobs: Option<usize>,
    /// Jobs ever submitted.
    pub jobs_submitted: Option<usize>,
    /// The snapshotted policy's name.
    pub policy: Option<String>,
    /// The core's clock (s).
    pub clock: Option<f64>,
}

fn map_get<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn val_u64(v: &Value) -> Option<u64> {
    match *v {
        Value::U64(n) => Some(n),
        Value::I64(n) if n >= 0 => Some(n as u64),
        _ => None,
    }
}

fn val_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(f) => Some(f),
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        _ => None,
    }
}

fn seq_len(v: &Value) -> Option<usize> {
    match v {
        Value::Seq(items) => Some(items.len()),
        _ => None,
    }
}

/// Finds the first (sub)map carrying a `schema_version` key — the
/// embedded [`crate::CoreSnapshot`] — wherever the wrapper nests it.
fn find_core(v: &Value) -> Option<&[(String, Value)]> {
    let map = v.as_map()?;
    if map_get(map, "schema_version").is_some() {
        return Some(map);
    }
    for (_, child) in map {
        if let Some(core) = find_core(child) {
            return Some(core);
        }
    }
    None
}

/// Inspects a snapshot file's bytes: encoding, wrapper kind, and the
/// embedded core's headline numbers — without loading a full core.
pub fn inspect_bytes(bytes: &[u8]) -> Result<SnapshotInfo, SchedError> {
    let (tree, encoding) = value_from_bytes(bytes)?;
    let top = tree
        .as_map()
        .ok_or_else(|| SchedError::CorruptSnapshot("snapshot is not an object".to_string()))?;
    let kind = if map_get(top, "consumed").is_some() && map_get(top, "replay").is_some() {
        "daemon checkpoint"
    } else if map_get(top, "replay").is_some() {
        // Written by `cli replay --checkpoint` in earlier builds.
        "replay checkpoint"
    } else if map_get(top, "events_fed").is_some() {
        "replay snapshot"
    } else if map_get(top, "schema_version").is_some() {
        "core snapshot"
    } else {
        "unknown"
    };
    let core = find_core(&tree).ok_or_else(|| {
        SchedError::CorruptSnapshot("no embedded core state (schema_version) found".to_string())
    })?;
    Ok(SnapshotInfo {
        encoding,
        kind,
        schema_version: map_get(core, "schema_version").and_then(val_u64),
        invocations: map_get(core, "invocations").and_then(val_u64),
        queue_depth: map_get(core, "queue")
            .and_then(Value::as_map)
            .and_then(|q| map_get(q, "queue"))
            .and_then(seq_len),
        running_jobs: map_get(core, "ledger")
            .and_then(Value::as_map)
            .and_then(|l| map_get(l, "running"))
            .and_then(seq_len),
        jobs_submitted: map_get(core, "jobs").and_then(seq_len),
        policy: map_get(core, "policy")
            .and_then(Value::as_map)
            .and_then(|p| map_get(p, "name"))
            .and_then(Value::as_str)
            .map(str::to_string),
        clock: map_get(core, "clock").and_then(val_f64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bbsched_dur_{tag}_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_value() -> Value {
        Value::Map(vec![
            ("schema_version".into(), Value::U64(1)),
            ("clock".into(), Value::F64(1234.5)),
            ("neg".into(), Value::I64(-42)),
            ("flag".into(), Value::Bool(true)),
            ("name".into(), Value::Str("Baseline".into())),
            (
                "jobs".into(),
                Value::Seq(
                    (0..20)
                        .map(|i| {
                            Value::Map(vec![
                                ("id".into(), Value::U64(i)),
                                ("submit".into(), Value::F64(i as f64 * 10.0)),
                                ("name".into(), Value::Str("Baseline".into())),
                                ("none".into(), Value::Null),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn varints_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            let mut r = BinReader { bytes: &out, pos: 0, strs: Vec::new() };
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.pos, out.len());
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn binary_codec_round_trips_exactly() {
        let v = sample_value();
        let enc = encode_value(&v);
        assert_eq!(decode_value(&enc).unwrap(), v);

        // Floats that do not fit the varint fast path keep raw bits.
        for f in [-0.0, 0.1, f64::MAX, 1e300, 9_007_199_254_740_993.0, -1.5] {
            let v = Value::F64(f);
            let enc = encode_value(&v);
            match decode_value(&enc).unwrap() {
                Value::F64(g) => assert_eq!(g.to_bits(), f.to_bits(), "float {f} changed"),
                other => panic!("expected a float, got {other:?}"),
            }
        }
        assert_eq!(as_exact_int(-0.0), None, "-0.0 must not lose its sign");
        assert_eq!(as_exact_int(3.0), Some(3));
    }

    #[test]
    fn string_interning_shrinks_repeated_keys() {
        let v = sample_value();
        let binary = encode_value(&v);
        let json = serde_json::to_vec(&crate::service::RawValue(v)).unwrap();
        assert!(
            binary.len() * 2 <= json.len(),
            "binary ({}) should be at most half of JSON ({})",
            binary.len(),
            json.len()
        );
    }

    #[test]
    fn corrupt_binary_input_is_an_error_not_a_panic() {
        for bytes in [
            &b"\x09\xff\xff\xff\xff\x0f"[..], // huge sequence length
            &b"\x07\xff"[..],                 // string longer than input
            &b"\x08\x05"[..],                 // dangling string reference
            &b"\x7f"[..],                     // unknown tag
            &b"\x05\x01\x02"[..],             // truncated float
            &b"\x03\x80\x80\x80\x80\x80\x80\x80\x80\x80\x7e"[..], // varint past 64 bits
            &b"\x03\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02"[..], // varint bit 64 set
            &b""[..],                         // empty
        ] {
            assert!(decode_value(bytes).is_err());
        }
        // Deep nesting is bounded, not a stack overflow.
        let mut deep = vec![0u8; 0];
        for _ in 0..100_000 {
            deep.push(TAG_SEQ);
            deep.push(1);
        }
        deep.push(TAG_NULL);
        assert!(decode_value(&deep).is_err());
    }

    #[test]
    fn container_negotiates_by_magic() {
        let v = vec![1u64, 2, 3];
        let json = to_bytes(&v, Encoding::Json);
        let binary = to_bytes(&v, Encoding::Binary);
        assert!(json.starts_with(b"["));
        assert!(binary.starts_with(BINARY_MAGIC));
        assert_eq!(from_bytes::<Vec<u64>>(&json).unwrap(), (v.clone(), Encoding::Json));
        assert_eq!(from_bytes::<Vec<u64>>(&binary).unwrap(), (v, Encoding::Binary));

        let mut wrong_version = binary.clone();
        wrong_version[BINARY_MAGIC.len()] = 9;
        assert!(matches!(
            from_bytes::<Vec<u64>>(&wrong_version),
            Err(SchedError::CorruptSnapshot(_))
        ));
        assert!(from_bytes::<Vec<u64>>(b"not json").is_err());

        let mut overflow = BINARY_MAGIC.to_vec();
        overflow.push(BINARY_VERSION);
        overflow.push(TAG_U64);
        overflow.extend_from_slice(&[0x80; 9]);
        overflow.push(0x7e);
        assert!(matches!(
            from_bytes::<u64>(&overflow),
            Err(SchedError::CorruptSnapshot(e)) if e.contains("varint overflows 64 bits")
        ));
    }

    #[test]
    fn atomic_write_leaves_no_temp_file() {
        let dir = tempdir("aw");
        let path = dir.join("out.bin");
        atomic_write(&path, b"hello").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"hello");
        atomic_write(&path, b"world").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"world");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "no .tmp leftovers");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_round_trips_and_counts() {
        let dir = tempdir("jr");
        let path = dir.join("events.wal");
        {
            let (mut j, rec) = Journal::open(&path).unwrap();
            assert_eq!(rec, JournalRecovery::default());
            j.append_sync(b"one").unwrap();
            j.append_sync(b"two").unwrap();
            assert_eq!(j.records(), 2);
        }
        let (mut j, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(rec.dropped_bytes, 0);
        assert_eq!(j.records(), 2);
        j.append_sync(b"three").unwrap();
        drop(j);
        let (_, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.records.len(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_rejects_foreign_files() {
        let dir = tempdir("jf");
        let path = dir.join("not_a_journal");
        fs::write(&path, b"something else entirely").unwrap();
        assert!(Journal::open(&path).is_err());
        let versioned = dir.join("future_version");
        fs::write(&versioned, b"BBWAL\x02\n").unwrap();
        assert!(Journal::open(&versioned).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_drops_torn_tail_and_truncates() {
        let dir = tempdir("jt");
        let full = dir.join("full.wal");
        {
            let (mut j, _) = Journal::open(&full).unwrap();
            j.append_sync(b"alpha").unwrap();
            j.append_sync(b"beta-longer-payload").unwrap();
        }
        let bytes = fs::read(&full).unwrap();
        let first_frame_end = JOURNAL_HEADER_LEN + FRAME_HEADER_LEN + 5;
        // Cut anywhere inside the final frame: exactly the final record
        // is dropped, and the file is truncated back to the valid tail.
        for cut in first_frame_end..bytes.len() {
            let path = dir.join("cut.wal");
            fs::write(&path, &bytes[..cut]).unwrap();
            let (mut j, rec) = Journal::open(&path).unwrap();
            assert_eq!(rec.records, vec![b"alpha".to_vec()], "cut at byte {cut}");
            assert_eq!(rec.dropped_bytes, (cut - first_frame_end) as u64);
            assert_eq!(fs::metadata(&path).unwrap().len(), first_frame_end as u64);
            // The truncated journal accepts appends again.
            j.append_sync(b"gamma").unwrap();
            drop(j);
            let (_, rec) = Journal::open(&path).unwrap();
            assert_eq!(rec.records, vec![b"alpha".to_vec(), b"gamma".to_vec()]);
        }
        // A corrupt byte inside the final payload drops it too.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        let path = dir.join("corrupt.wal");
        fs::write(&path, &corrupt).unwrap();
        let (_, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.records, vec![b"alpha".to_vec()]);
        assert!(rec.dropped_bytes > 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_store_retains_and_falls_back() {
        let dir = tempdir("ss");
        let store = SnapshotStore::open(dir.join("snaps"), 2).unwrap();
        for pos in [10u64, 20, 30, 40] {
            store.save(pos, &vec![pos, pos + 1], Encoding::Binary).unwrap();
        }
        assert_eq!(store.positions().unwrap(), vec![30, 40], "pruned to the newest 2");
        let loaded = store.load_newest::<Vec<u64>>().unwrap().unwrap();
        assert_eq!((loaded.position, loaded.value), (40, vec![40, 41]));
        assert_eq!(loaded.encoding, Encoding::Binary);
        assert_eq!(loaded.skipped, 0);

        // Corrupt the newest: load_newest falls back to the older one.
        fs::write(store.path_for(40), b"BBSNAP\x01garbage").unwrap();
        let loaded = store.load_newest::<Vec<u64>>().unwrap().unwrap();
        assert_eq!((loaded.position, loaded.value), (30, vec![30, 31]));
        assert_eq!(loaded.skipped, 1);

        // Corrupt everything: None, not a panic.
        fs::write(store.path_for(30), b"}{").unwrap();
        assert!(store.load_newest::<Vec<u64>>().unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inspect_reads_shallow_facts_from_both_encodings() {
        let tree = sample_value();
        let wrapper = Value::Map(vec![
            ("replay".into(), Value::Map(vec![("core".into(), tree)])),
            ("consumed".into(), Value::U64(7)),
        ]);
        let raw = crate::service::RawValue(wrapper);
        for encoding in [Encoding::Json, Encoding::Binary] {
            let bytes = to_bytes(&raw, encoding);
            let info = inspect_bytes(&bytes).unwrap();
            assert_eq!(info.encoding, encoding);
            assert_eq!(info.kind, "daemon checkpoint");
            assert_eq!(info.schema_version, Some(1));
            assert_eq!(info.jobs_submitted, Some(20));
            assert_eq!(info.clock, Some(1234.5));
        }
        assert!(inspect_bytes(b"[1,2,3]").is_err());
        assert!(inspect_bytes(b"{\"no\":\"core\"}").is_err());
    }
}
