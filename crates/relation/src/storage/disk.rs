//! Disk-backed storage: append-only segments + WAL under a manifest.
//!
//! ## On-disk layout
//!
//! ```text
//! <data-dir>/
//!   MANIFEST            # the commit point (rewritten atomically)
//!   wal.log             # checksummed (VersionInfo, DatabaseDelta) records
//!   segments/v<id>.seg  # full snapshot of one version
//! ```
//!
//! Every persisted version is either a **segment** (a full snapshot:
//! version 0, whole commits via [`VersionedDatabase::commit`], and
//! commits that changed the catalog or an index, which have no delta)
//! or a **WAL record** (the [`DatabaseDelta`] that
//! [`VersionedDatabase::commit_with`] diffed from the head and the
//! result). The `MANIFEST` lists
//! versions in order with a pointer to their source; it is rewritten
//! to a temp file and renamed on every sync, so the rename is the
//! atomic commit point — a crash between a WAL append and the
//! manifest rename leaves trailing WAL bytes that the next open
//! truncates away (and appends always land at the last referenced
//! offset, never blindly at end-of-file, so manifest offsets and the
//! bytes they point at cannot drift apart). Compaction likewise
//! publishes its all-segment manifest *before* truncating the WAL: a
//! crash in between leaves dead WAL bytes, never a manifest pointing
//! into an emptied WAL.
//!
//! ## Durability & fidelity
//!
//! Cold start ([`DiskStorage::load_history`]) replays the manifest in
//! order: segments are decoded through a page-granular buffer cache,
//! delta versions clone the predecessor snapshot and re-apply the
//! delta's removals, then its inserts. A delta is the diff
//! child = parent − R ++ I ([`DatabaseDelta::between`]), so the
//! reloaded chain is structurally identical to the persisted one —
//! same row order, same index state — which is what keeps citations
//! byte-identical after a restart (`tests/storage_equivalence.rs`).
//!
//! Reloaded versions share what their commits did not change: a delta
//! version's clone shares every relation the delta leaves alone, and
//! a segment version whose catalog equals its predecessor's takes the
//! predecessor's `Arc<Relation>` for every relation with equal rows
//! and indexed columns — so compaction keeps the identity versioned
//! serving borrows engines by.
//!
//! Compaction folds delta versions into full segment files and
//! truncates the WAL (bounding its growth at the cost of the folded
//! deltas); it runs on demand via [`Storage::compact`] and
//! automatically when a sync pushes the WAL past
//! [`StorageOptions::wal_compact_bytes`].
//!
//! The codec is a hand-written length-prefixed little-endian binary
//! format (the workspace is std-only); integers and floats persist
//! their exact 64-bit payloads so `Value` equality, ordering, and
//! hashing survive the round trip bit-for-bit.

use super::vfs::{RealVfs, Vfs};
use super::{Storage, StorageHealth, StorageKind, StorageOptions, StorageStats};
use crate::clock::Clock;
use crate::database::Database;
use crate::delta::{DatabaseDelta, DeltaOp, RelationDelta};
use crate::error::{RelationError, Result};
use crate::schema::{Attribute, ForeignKey, RelationSchema};
use crate::tuple::Tuple;
use crate::value::{DataType, Value};
use crate::version::{VersionId, VersionInfo, VersionedDatabase};
use fgc_fault::fnv64;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const MANIFEST_MAGIC: &[u8; 8] = b"FGCMANI1";
const SEGMENT_MAGIC: &[u8; 8] = b"FGCSEGM1";
const MANIFEST_FILE: &str = "MANIFEST";
const WAL_FILE: &str = "wal.log";
const SEGMENT_DIR: &str = "segments";

fn io_err(context: impl std::fmt::Display, e: std::io::Error) -> RelationError {
    RelationError::Storage(format!("{context}: {e}"))
}

fn corrupt(what: impl std::fmt::Display) -> RelationError {
    RelationError::Storage(format!("corrupt {what}"))
}

// ---------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(buf, 0),
        Value::Bool(b) => {
            put_u8(buf, 1);
            put_u8(buf, u8::from(*b));
        }
        Value::Int(i) => {
            put_u8(buf, 2);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            put_u8(buf, 3);
            put_u64(buf, f.to_bits());
        }
        Value::Str(s) => {
            put_u8(buf, 4);
            put_str(buf, s);
        }
    }
}

fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    put_u32(buf, t.arity() as u32);
    for v in t.iter() {
        put_value(buf, v);
    }
}

fn data_type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Str => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Bool => 3,
        DataType::Any => 4,
    }
}

fn put_schema(buf: &mut Vec<u8>, s: &RelationSchema) {
    put_str(buf, &s.name);
    put_u32(buf, s.attributes.len() as u32);
    for a in &s.attributes {
        put_str(buf, &a.name);
        put_u8(buf, data_type_tag(a.ty));
    }
    put_u32(buf, s.key.len() as u32);
    for &k in &s.key {
        put_u32(buf, k as u32);
    }
    put_u32(buf, s.foreign_keys.len() as u32);
    for fk in &s.foreign_keys {
        put_u32(buf, fk.columns.len() as u32);
        for &c in &fk.columns {
            put_u32(buf, c as u32);
        }
        put_str(buf, &fk.references);
    }
}

fn put_info(buf: &mut Vec<u8>, info: &VersionInfo) {
    put_u64(buf, info.id);
    put_u64(buf, info.timestamp);
    put_str(buf, &info.label);
}

fn put_delta(buf: &mut Vec<u8>, delta: &DatabaseDelta) {
    // A retired flag byte: always 0, and rejected as anything else.
    put_u8(buf, 0);
    let relations: Vec<&RelationDelta> = delta.relations().collect();
    put_u32(buf, relations.len() as u32);
    for rd in relations {
        put_str(buf, &rd.relation);
        put_u32(buf, rd.ops.len() as u32);
        for op in &rd.ops {
            match op {
                DeltaOp::Insert(t) => {
                    put_u8(buf, 0);
                    put_tuple(buf, t);
                }
                DeltaOp::Remove(t) => {
                    put_u8(buf, 1);
                    put_tuple(buf, t);
                }
            }
        }
    }
}

/// Cursor over an encoded byte buffer; every read is bounds-checked
/// and reports what it was decoding on failure.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'a str,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], what: &'a str) -> Self {
        Reader { buf, pos: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt(format!("{}: truncated at byte {}", self.what, self.pos)))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Capacity hint for `declared` elements of at least `min_size`
    /// encoded bytes each, clamped by the bytes actually remaining —
    /// a corrupt or hostile length prefix yields the structured
    /// truncation error downstream instead of a multi-gigabyte
    /// allocation here.
    fn capacity_hint(&self, declared: usize, min_size: usize) -> usize {
        declared.min((self.buf.len() - self.pos) / min_size.max(1))
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| corrupt(format!("{}: invalid utf-8 string", self.what)))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(i64::from_le_bytes(self.take(8)?.try_into().unwrap())),
            3 => Value::Float(f64::from_bits(self.u64()?)),
            4 => Value::Str(Arc::from(self.string()?.as_str())),
            tag => return Err(corrupt(format!("{}: unknown value tag {tag}", self.what))),
        })
    }

    fn tuple(&mut self) -> Result<Tuple> {
        let arity = self.u32()? as usize;
        let mut values = Vec::with_capacity(self.capacity_hint(arity, 1));
        for _ in 0..arity {
            values.push(self.value()?);
        }
        Ok(Tuple::new(values))
    }

    fn data_type(&mut self) -> Result<DataType> {
        Ok(match self.u8()? {
            0 => DataType::Str,
            1 => DataType::Int,
            2 => DataType::Float,
            3 => DataType::Bool,
            4 => DataType::Any,
            tag => return Err(corrupt(format!("{}: unknown type tag {tag}", self.what))),
        })
    }

    fn schema(&mut self) -> Result<RelationSchema> {
        let name = self.string()?;
        let n_attrs = self.u32()? as usize;
        let mut attributes = Vec::with_capacity(self.capacity_hint(n_attrs, 5));
        for _ in 0..n_attrs {
            let attr_name = self.string()?;
            let ty = self.data_type()?;
            attributes.push(Attribute::new(attr_name, ty));
        }
        let n_key = self.u32()? as usize;
        let mut key = Vec::with_capacity(self.capacity_hint(n_key, 4));
        for _ in 0..n_key {
            key.push(self.u32()? as usize);
        }
        let mut schema = RelationSchema::new(name, attributes, key)?;
        let n_fks = self.u32()? as usize;
        for _ in 0..n_fks {
            let n_cols = self.u32()? as usize;
            let mut columns = Vec::with_capacity(self.capacity_hint(n_cols, 4));
            for _ in 0..n_cols {
                columns.push(self.u32()? as usize);
            }
            let references = self.string()?;
            schema.foreign_keys.push(ForeignKey {
                columns,
                references,
            });
        }
        Ok(schema)
    }

    fn info(&mut self) -> Result<VersionInfo> {
        Ok(VersionInfo {
            id: self.u64()?,
            timestamp: self.u64()?,
            label: self.string()?,
        })
    }

    fn delta(&mut self) -> Result<DatabaseDelta> {
        let flag = self.u8()?;
        if flag != 0 {
            return Err(corrupt(format!("{}: delta flag byte {flag}", self.what)));
        }
        let n_rels = self.u32()? as usize;
        let mut relations = Vec::with_capacity(self.capacity_hint(n_rels, 8));
        for _ in 0..n_rels {
            let relation = self.string()?;
            let n_ops = self.u32()? as usize;
            let mut ops = Vec::with_capacity(self.capacity_hint(n_ops, 5));
            for _ in 0..n_ops {
                let tag = self.u8()?;
                let tuple = self.tuple()?;
                ops.push(match tag {
                    0 => DeltaOp::Insert(tuple),
                    1 => DeltaOp::Remove(tuple),
                    t => return Err(corrupt(format!("{}: unknown op tag {t}", self.what))),
                });
            }
            relations.push(RelationDelta { relation, ops });
        }
        Ok(DatabaseDelta { relations })
    }
}

/// Serialize a full snapshot: catalog in registration order, then per
/// relation its indexed columns and rows in insertion order.
fn encode_segment(db: &Database) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    buf.extend_from_slice(SEGMENT_MAGIC);
    let schemas: Vec<_> = db.schemas().collect();
    put_u32(&mut buf, schemas.len() as u32);
    for schema in schemas {
        let relation = db.relation(&schema.name)?;
        put_schema(&mut buf, schema);
        let indexed = relation.indexed_columns();
        put_u32(&mut buf, indexed.len() as u32);
        for col in indexed {
            put_u32(&mut buf, col as u32);
        }
        put_u64(&mut buf, relation.len() as u64);
        for row in relation.iter() {
            put_tuple(&mut buf, row);
        }
    }
    Ok(buf)
}

/// Rebuild a snapshot by feeding persisted rows back through the
/// normal insert path — the reload is structurally identical (same
/// row order, same index state) to the database that was encoded.
fn decode_segment(bytes: &[u8]) -> Result<Database> {
    let mut r = Reader::new(bytes, "segment");
    if r.take(SEGMENT_MAGIC.len())? != SEGMENT_MAGIC {
        return Err(corrupt("segment: bad magic"));
    }
    let n_relations = r.u32()? as usize;
    let mut db = Database::new();
    for _ in 0..n_relations {
        let schema = r.schema()?;
        let name = schema.name.clone();
        db.create_relation(schema)?;
        let n_indexed = r.u32()? as usize;
        let mut indexed = Vec::with_capacity(r.capacity_hint(n_indexed, 4));
        for _ in 0..n_indexed {
            indexed.push(r.u32()? as usize);
        }
        let n_rows = r.u64()? as usize;
        let relation = db.relation_mut(&name)?;
        for col in indexed {
            relation.build_index(col)?;
        }
        for _ in 0..n_rows {
            let row = r.tuple()?;
            relation.insert(row)?;
        }
    }
    if !r.done() {
        return Err(corrupt("segment: trailing bytes"));
    }
    Ok(db)
}

// ---------------------------------------------------------------
// Buffer cache
// ---------------------------------------------------------------

/// Page key: (segment version id, page number). A version's segment
/// is its snapshot's encoding, so a cached page never goes stale.
type PageKey = (u64, u64);

// ---------------------------------------------------------------
// DiskStorage
// ---------------------------------------------------------------

/// Where one persisted version's data lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VersionLocation {
    /// Full snapshot in `segments/v<id>.seg`.
    Segment,
    /// WAL record: byte offset of the record header and payload size.
    Delta { offset: u64, payload_len: u32 },
}

#[derive(Debug, Clone)]
struct ManifestEntry {
    info: VersionInfo,
    source: VersionLocation,
}

#[derive(Debug)]
struct DiskInner {
    entries: Vec<ManifestEntry>,
    /// Referenced WAL bytes — also the exact offset the next record
    /// is written at (trailing unreferenced bytes from an interrupted
    /// sync are truncated at open and before each append).
    wal_len: u64,
    compactions: u64,
    /// Arc-shared copy of the last synced or loaded history — what
    /// compaction folds into segments.
    mirror: VersionedDatabase,
}

/// The disk-backed [`Storage`] implementation. See the module docs
/// for the layout and durability story.
#[derive(Debug)]
pub struct DiskStorage {
    dir: PathBuf,
    options: StorageOptions,
    /// Every byte this backend moves goes through the VFS seam —
    /// [`RealVfs`] in production, a fault-injecting wrapper under the
    /// crash-consistency harness.
    vfs: Arc<dyn Vfs>,
    inner: Mutex<DiskInner>,
    /// Page-granular buffer cache over segment files; the ring (and
    /// its capacity-0 = off rule) is [`Clock`]'s.
    cache: Mutex<Clock<PageKey, Arc<Vec<u8>>>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Whether the most recent [`Storage::sync`] succeeded — part of
    /// the `/healthz` degradation report.
    last_sync_ok: AtomicBool,
    /// The message of the last failed sync, for the health causes.
    last_sync_error: Mutex<Option<String>>,
}

impl DiskStorage {
    /// Open (or initialize) a data directory. The directory is
    /// created if missing; an uncreatable or unwritable path is a
    /// structured [`RelationError::Storage`], never a panic. If a
    /// `MANIFEST` is present the persisted version chain becomes
    /// available to [`Storage::load_history`] without re-running any
    /// loader.
    pub fn open(dir: impl AsRef<Path>, options: StorageOptions) -> Result<Self> {
        Self::open_with_vfs(dir, options, Arc::new(RealVfs))
    }

    /// [`DiskStorage::open`] over an explicit [`Vfs`] — the seam the
    /// crash-consistency harness uses to interpose a fault-injecting
    /// filesystem. Production callers use [`DiskStorage::open`].
    pub fn open_with_vfs(
        dir: impl AsRef<Path>,
        options: StorageOptions,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let options = options.clamped();
        if dir.exists() && !dir.is_dir() {
            return Err(RelationError::Storage(format!(
                "data dir `{}` exists but is not a directory",
                dir.display()
            )));
        }
        vfs.create_dir_all(&dir.join(SEGMENT_DIR))
            .map_err(|e| io_err(format!("cannot create data dir `{}`", dir.display()), e))?;
        // Probe writability up front so a read-only mount fails at
        // open time with a clear message, not mid-commit.
        let probe = dir.join(".write-probe");
        vfs.write(&probe, b"")
            .map_err(|e| io_err(format!("data dir `{}` is not writable", dir.display()), e))?;
        let _ = vfs.remove_file(&probe);
        let manifest_path = dir.join(MANIFEST_FILE);
        let entries = if vfs.exists(&manifest_path) {
            let bytes = vfs
                .read(&manifest_path)
                .map_err(|e| io_err(format!("cannot read `{}`", manifest_path.display()), e))?;
            decode_manifest(&bytes)?
        } else {
            Vec::new()
        };
        let wal_len = entries
            .iter()
            .filter_map(|e| match e.source {
                VersionLocation::Delta {
                    offset,
                    payload_len,
                } => Some(offset + wal_record_len(payload_len)),
                VersionLocation::Segment => None,
            })
            .max()
            .unwrap_or(0);
        // Drop WAL bytes past the last manifest-referenced record
        // (leftovers of a crash between a WAL append and the manifest
        // rename). Future appends then land exactly at `wal_len`, so
        // the offsets the next manifest records always point at the
        // bytes that were actually written. A WAL *shorter* than
        // `wal_len` is left alone: extending it would only turn a
        // clean read-error into a checksum mismatch at load time.
        let wal_path = dir.join(WAL_FILE);
        if let Ok(len) = vfs.len(&wal_path) {
            if len > wal_len {
                vfs.truncate(&wal_path, wal_len)
                    .and_then(|()| vfs.fsync(&wal_path))
                    .map_err(|e| io_err("cannot drop trailing WAL bytes", e))?;
            }
        }
        Ok(DiskStorage {
            dir,
            vfs,
            cache: Mutex::new(Clock::new(options.cache_pages)),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            options,
            inner: Mutex::new(DiskInner {
                entries,
                wal_len,
                compactions: 0,
                mirror: VersionedDatabase::new(),
            }),
            last_sync_ok: AtomicBool::new(true),
            last_sync_error: Mutex::new(None),
        })
    }

    /// The data directory this backend persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    fn segment_path(&self, id: VersionId) -> PathBuf {
        self.dir.join(SEGMENT_DIR).join(format!("v{id}.seg"))
    }

    /// Write `bytes` to `path` atomically: temp file, fsync, rename.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        let tmp = path.with_extension("tmp");
        self.vfs
            .write(&tmp, bytes)
            .and_then(|()| self.vfs.fsync(&tmp))
            .map_err(|e| io_err(format!("cannot write `{}`", tmp.display()), e))?;
        self.vfs
            .rename(&tmp, path)
            .map_err(|e| io_err(format!("cannot rename into `{}`", path.display()), e))?;
        // Make the rename durable: fsync the containing directory.
        if let Some(parent) = path.parent() {
            self.vfs
                .fsync_dir(parent)
                .map_err(|e| io_err(format!("cannot sync dir `{}`", parent.display()), e))?;
        }
        Ok(())
    }

    fn write_segment(&self, id: VersionId, db: &Database) -> Result<()> {
        let bytes = encode_segment(db)?;
        self.write_atomic(&self.segment_path(id), &bytes)
    }

    fn write_manifest(&self, entries: &[ManifestEntry]) -> Result<()> {
        self.write_atomic(&self.dir.join(MANIFEST_FILE), &encode_manifest(entries))
    }

    /// Probe the buffer cache, counting the hit or miss. A disabled
    /// cache (capacity 0) is never probed, so it reports no traffic.
    fn cached_page(&self, key: PageKey) -> Option<Arc<Vec<u8>>> {
        if self.options.cache_pages == 0 {
            return None;
        }
        let cache = self.cache.lock().expect("page cache poisoned");
        let page = cache.get(&key).cloned();
        let counter = match page {
            Some(_) => &self.cache_hits,
            None => &self.cache_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        page
    }

    /// Read one segment file page-by-page through the buffer cache.
    fn read_segment_bytes(&self, id: VersionId) -> Result<Vec<u8>> {
        let path = self.segment_path(id);
        let len = self
            .vfs
            .len(&path)
            .map_err(|e| io_err(format!("missing segment `{}`", path.display()), e))?
            as usize;
        let page_size = self.options.page_size;
        let mut out = Vec::with_capacity(len);
        for page_no in 0..len.div_ceil(page_size) {
            let key = (id, page_no as u64);
            let data = match self.cached_page(key) {
                Some(d) => d,
                None => {
                    let start = page_no * page_size;
                    let take = page_size.min(len - start);
                    let mut buf = vec![0u8; take];
                    self.vfs
                        .read_at(&path, start as u64, &mut buf)
                        .map_err(|e| {
                            io_err(format!("cannot read segment `{}`", path.display()), e)
                        })?;
                    let arc = Arc::new(buf);
                    self.cache
                        .lock()
                        .expect("page cache poisoned")
                        .insert(key, Arc::clone(&arc));
                    arc
                }
            };
            out.extend_from_slice(&data);
        }
        Ok(out)
    }

    fn read_wal_record(
        &self,
        offset: u64,
        payload_len: u32,
    ) -> Result<(VersionInfo, DatabaseDelta)> {
        let path = self.wal_path();
        // Bounds-check the declared record extent against the real
        // file before allocating the payload buffer: a corrupt
        // manifest cannot demand a multi-gigabyte allocation.
        let file_len = self
            .vfs
            .len(&path)
            .map_err(|e| io_err(format!("cannot stat WAL `{}`", path.display()), e))?;
        if offset
            .checked_add(wal_record_len(payload_len))
            .is_none_or(|end| end > file_len)
        {
            return Err(corrupt(format!(
                "WAL record at {offset}: extends past the {file_len}-byte WAL"
            )));
        }
        let mut header = [0u8; 12];
        self.vfs
            .read_at(&path, offset, &mut header)
            .map_err(|e| io_err("cannot read WAL record header", e))?;
        let stored_len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let checksum = u64::from_le_bytes(header[4..12].try_into().unwrap());
        if stored_len != payload_len {
            return Err(corrupt(format!(
                "WAL record at {offset}: length {stored_len} != manifest {payload_len}"
            )));
        }
        let mut payload = vec![0u8; payload_len as usize];
        self.vfs
            .read_at(&path, offset + 12, &mut payload)
            .map_err(|e| io_err("cannot read WAL record payload", e))?;
        if fnv64(&payload) != checksum {
            return Err(corrupt(format!(
                "WAL record at {offset}: checksum mismatch"
            )));
        }
        let mut r = Reader::new(&payload, "WAL record");
        let info = r.info()?;
        let delta = r.delta()?;
        if !r.done() {
            return Err(corrupt("WAL record: trailing bytes"));
        }
        Ok((info, delta))
    }

    /// Reconstruct the chain described by `entries` (manifest order).
    fn load_from_entries(&self, entries: &[ManifestEntry]) -> Result<VersionedDatabase> {
        let mut history = VersionedDatabase::new();
        for entry in entries {
            match entry.source {
                VersionLocation::Segment => {
                    let bytes = self.read_segment_bytes(entry.info.id)?;
                    let mut db = decode_segment(&bytes)?;
                    if let Some((_, parent)) = history.head() {
                        db.share_unchanged(parent);
                    }
                    history.restore(entry.info.clone(), Arc::new(db), None)?;
                }
                VersionLocation::Delta {
                    offset,
                    payload_len,
                } => {
                    let (wal_info, delta) = self.read_wal_record(offset, payload_len)?;
                    if wal_info != entry.info {
                        return Err(corrupt(format!(
                            "WAL record at {offset} carries {wal_info} but manifest expects {}",
                            entry.info
                        )));
                    }
                    let parent = history
                        .head()
                        .map(|(_, db)| Arc::clone(db))
                        .ok_or_else(|| corrupt("manifest: delta version with no parent"))?;
                    let mut db = (*parent).clone();
                    db.apply_delta(&delta)?;
                    history.restore(entry.info.clone(), Arc::new(db), Some(Arc::new(delta)))?;
                }
            }
        }
        Ok(history)
    }

    /// Fold every delta-backed version into a full segment file, then
    /// truncate the WAL and republish the manifest.
    fn compact_locked(&self, inner: &mut DiskInner) -> Result<()> {
        let DiskInner {
            entries, mirror, ..
        } = &mut *inner;
        let mut folded = false;
        for entry in entries.iter_mut() {
            if matches!(entry.source, VersionLocation::Delta { .. }) {
                let (_, db) = mirror.snapshot(entry.info.id)?;
                self.write_segment(entry.info.id, db)?;
                entry.source = VersionLocation::Segment;
                folded = true;
            }
        }
        if !folded && inner.wal_len == 0 {
            return Ok(());
        }
        // Publish the all-segment manifest *before* touching the WAL:
        // the manifest rename is the commit point, so a crash before
        // the truncate below merely leaves dead WAL bytes that the
        // next open drops. Truncating first would leave the old
        // manifest's delta offsets pointing into an empty WAL —
        // turning a healthy store unrecoverable.
        self.write_manifest(&inner.entries)?;
        let wal_path = self.wal_path();
        self.vfs
            .truncate(&wal_path, 0)
            .and_then(|()| self.vfs.fsync(&wal_path))
            .map_err(|e| io_err("cannot truncate WAL", e))?;
        inner.wal_len = 0;
        inner.compactions += 1;
        Ok(())
    }

    /// The body of [`Storage::sync`]; the trait method wraps it to
    /// record success or failure for the health report.
    fn sync_inner(&self, history: &VersionedDatabase) -> Result<()> {
        let mut inner = self.inner.lock().expect("disk storage poisoned");
        let have = inner.entries.len();
        if history.len() < have {
            return Err(RelationError::Storage(format!(
                "history has {} versions but {have} are already persisted",
                history.len()
            )));
        }
        // Refuse to fork: every overlapping version must match the
        // persisted chain — metadata against the manifest and, where
        // the in-memory mirror covers the overlap, snapshot content
        // too (snapshots are Arc-shared, so the common case is a
        // pointer comparison). After a cold open with no
        // `load_history` the mirror is empty and the content check
        // degrades to metadata-only.
        for (i, entry) in inner.entries.iter().enumerate() {
            let (info, db) = history.snapshot(i as VersionId)?;
            if *info != entry.info {
                return Err(RelationError::Storage(format!(
                    "history diverged from the persisted chain at version {i}"
                )));
            }
            if let Ok((_, mirrored)) = inner.mirror.snapshot(i as VersionId) {
                if !Arc::ptr_eq(db, mirrored) && !db.content_eq(mirrored) {
                    return Err(RelationError::Storage(format!(
                        "history diverged from the persisted chain at version {i} \
                         (same metadata, different content)"
                    )));
                }
            }
        }
        if history.len() == have {
            inner.mirror = history.clone();
            return Ok(());
        }
        // Stage new manifest entries and the WAL cursor locally;
        // `inner` is only updated after the manifest rename commits,
        // so a failed sync leaves the in-memory state describing
        // exactly what is durable on disk.
        let wal_path = self.wal_path();
        let mut new_entries: Vec<ManifestEntry> = Vec::with_capacity(history.len() - have);
        let mut wal_len = inner.wal_len;
        let mut wal_dirty = false;
        for id in have..history.len() {
            let id = id as VersionId;
            let (info, db) = history.snapshot(id)?;
            // Versions with a delta go to the WAL; version 0, whole
            // commits and catalog or index changes persist as segments.
            let source = match history.delta(id) {
                Some(delta) => {
                    let mut payload = Vec::new();
                    put_info(&mut payload, info);
                    put_delta(&mut payload, delta);
                    let mut record = Vec::with_capacity(12 + payload.len());
                    put_u32(&mut record, payload.len() as u32);
                    put_u64(&mut record, fnv64(&payload));
                    record.extend_from_slice(&payload);
                    // Write at `wal_len`, not at EOF: a failed partial
                    // append from an earlier sync may have left
                    // unreferenced bytes past the last committed
                    // record, and the offsets recorded in the manifest
                    // must match where these bytes actually land.
                    self.vfs
                        .append_at(&wal_path, wal_len, &record)
                        .map_err(|e| io_err("cannot append WAL record", e))?;
                    wal_dirty = true;
                    let offset = wal_len;
                    wal_len += record.len() as u64;
                    VersionLocation::Delta {
                        offset,
                        payload_len: payload.len() as u32,
                    }
                }
                None => {
                    self.write_segment(id, db)?;
                    VersionLocation::Segment
                }
            };
            new_entries.push(ManifestEntry {
                info: info.clone(),
                source,
            });
        }
        if wal_dirty {
            self.vfs
                .fsync(&wal_path)
                .map_err(|e| io_err("cannot sync WAL", e))?;
        }
        let mut entries = inner.entries.clone();
        entries.append(&mut new_entries);
        self.write_manifest(&entries)?;
        // The manifest rename committed: the staged state is durable.
        inner.entries = entries;
        inner.wal_len = wal_len;
        inner.mirror = history.clone();
        if inner.wal_len > self.options.wal_compact_bytes {
            self.compact_locked(&mut inner)?;
        }
        Ok(())
    }
}

fn wal_record_len(payload_len: u32) -> u64 {
    12 + u64::from(payload_len)
}

fn encode_manifest(entries: &[ManifestEntry]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MANIFEST_MAGIC);
    put_u32(&mut buf, entries.len() as u32);
    for e in entries {
        put_info(&mut buf, &e.info);
        match e.source {
            VersionLocation::Segment => put_u8(&mut buf, 0),
            VersionLocation::Delta {
                offset,
                payload_len,
            } => {
                put_u8(&mut buf, 1);
                put_u64(&mut buf, offset);
                put_u32(&mut buf, payload_len);
            }
        }
    }
    buf
}

#[cfg(test)]
fn read_manifest(path: &Path) -> Result<Vec<ManifestEntry>> {
    let bytes =
        std::fs::read(path).map_err(|e| io_err(format!("cannot read `{}`", path.display()), e))?;
    decode_manifest(&bytes)
}

fn decode_manifest(bytes: &[u8]) -> Result<Vec<ManifestEntry>> {
    let mut r = Reader::new(bytes, "manifest");
    if r.take(MANIFEST_MAGIC.len())? != MANIFEST_MAGIC {
        return Err(corrupt("manifest: bad magic"));
    }
    let count = r.u32()? as usize;
    // 21 = the smallest encodable entry (info with empty label + tag).
    let mut entries = Vec::with_capacity(r.capacity_hint(count, 21));
    for _ in 0..count {
        let info = r.info()?;
        let source = match r.u8()? {
            0 => VersionLocation::Segment,
            1 => VersionLocation::Delta {
                offset: r.u64()?,
                payload_len: r.u32()?,
            },
            tag => return Err(corrupt(format!("manifest: unknown source tag {tag}"))),
        };
        entries.push(ManifestEntry { info, source });
    }
    if !r.done() {
        return Err(corrupt("manifest: trailing bytes"));
    }
    Ok(entries)
}

impl Storage for DiskStorage {
    fn kind(&self) -> StorageKind {
        StorageKind::Disk
    }

    fn sync(&self, history: &VersionedDatabase) -> Result<()> {
        let result = self.sync_inner(history);
        self.last_sync_ok.store(result.is_ok(), Ordering::Relaxed);
        *self.last_sync_error.lock().expect("sync error poisoned") =
            result.as_ref().err().map(|e| e.to_string());
        result
    }

    fn load_history(&self) -> Result<VersionedDatabase> {
        let mut inner = self.inner.lock().expect("disk storage poisoned");
        let history = self.load_from_entries(&inner.entries)?;
        inner.mirror = history.clone();
        Ok(history)
    }

    fn stats(&self) -> StorageStats {
        let inner = self.inner.lock().expect("disk storage poisoned");
        let segments = inner
            .entries
            .iter()
            .filter(|e| matches!(e.source, VersionLocation::Segment))
            .count();
        let wal_records = inner.entries.len() - segments;
        let mut disk_bytes = 0u64;
        for path in [self.dir.join(MANIFEST_FILE), self.wal_path()] {
            disk_bytes += self.vfs.len(&path).unwrap_or(0);
        }
        disk_bytes += self.vfs.dir_size(&self.dir.join(SEGMENT_DIR));
        StorageStats {
            kind: StorageKind::Disk,
            versions: inner.entries.len(),
            segments,
            wal_records,
            wal_bytes: inner.wal_len,
            disk_bytes,
            cache_pages: self.options.cache_pages,
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            compactions: inner.compactions,
        }
    }

    fn compact(&self) -> Result<()> {
        let mut inner = self.inner.lock().expect("disk storage poisoned");
        if inner.mirror.len() < inner.entries.len() {
            inner.mirror = self.load_from_entries(&inner.entries)?;
        }
        self.compact_locked(&mut inner)
    }

    fn health(&self) -> Option<StorageHealth> {
        let manifest_path = self.dir.join(MANIFEST_FILE);
        let manifest_readable = match self.vfs.read(&manifest_path) {
            Ok(bytes) => decode_manifest(&bytes).is_ok(),
            // A store that has never synced has no manifest yet —
            // that is healthy, not degraded.
            Err(_) => !self.vfs.exists(&manifest_path),
        };
        let last_sync_ok = self.last_sync_ok.load(Ordering::Relaxed);
        let wal_bytes = self.inner.lock().expect("disk storage poisoned").wal_len;
        let mut causes = Vec::new();
        if !manifest_readable {
            causes.push("manifest unreadable".to_string());
        }
        if !last_sync_ok {
            let msg = self
                .last_sync_error
                .lock()
                .expect("sync error poisoned")
                .clone()
                .unwrap_or_else(|| "unknown error".to_string());
            causes.push(format!("last sync failed: {msg}"));
        }
        if wal_bytes > self.options.wal_compact_bytes {
            causes.push(format!(
                "wal backlog: {wal_bytes} bytes past the {}-byte compaction threshold",
                self.options.wal_compact_bytes
            ));
        }
        Some(StorageHealth {
            degraded: !causes.is_empty(),
            causes,
            manifest_readable,
            last_sync_ok,
            wal_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use std::fs::{self, OpenOptions};
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Hand-rolled unique temp dirs (std-only workspace: no tempfile).
    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("fgc-storage-{tag}-{}-{n}", std::process::id()))
    }

    fn base() -> Database {
        let mut db = Database::new();
        db.create_relation(
            RelationSchema::with_names(
                "Family",
                &[
                    ("FID", DataType::Str),
                    ("FName", DataType::Str),
                    ("Type", DataType::Str),
                ],
                &["FID"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut fc = RelationSchema::with_names(
            "FC",
            &[("FID", DataType::Str), ("PID", DataType::Str)],
            &["FID", "PID"],
        )
        .unwrap();
        fc.add_foreign_key(&["FID"], "Family").unwrap();
        db.create_relation(fc).unwrap();
        db.insert("Family", tuple!["11", "Calcitonin", "gpcr"])
            .unwrap();
        db.insert("Family", tuple!["12", "Orexin", "gpcr"]).unwrap();
        db.insert("FC", tuple!["11", "p1"]).unwrap();
        db.build_default_indexes().unwrap();
        db
    }

    fn history() -> VersionedDatabase {
        let mut h = VersionedDatabase::new();
        h.commit(base(), 100, "v0").unwrap();
        h.commit_with(200, "v1", |db| {
            db.insert("Family", tuple!["13", "Kinase", "enzyme"])
                .map(|_| ())
        })
        .unwrap();
        h.commit_with(300, "v2", |db| {
            db.remove("Family", &tuple!["11", "Calcitonin", "gpcr"])
                .map(|_| ())
        })
        .unwrap();
        h
    }

    fn assert_same_history(a: &VersionedDatabase, b: &VersionedDatabase) {
        assert_eq!(a.len(), b.len());
        for ((ia, da), (ib, db_)) in a.iter().zip(b.iter()) {
            assert_eq!(ia, ib);
            assert!(da.content_eq(db_), "snapshot {} differs", ia.id);
            for schema in da.schemas() {
                assert_eq!(
                    da.relation(&schema.name).unwrap().indexed_columns(),
                    db_.relation(&schema.name).unwrap().indexed_columns(),
                    "index state of `{}` differs at {}",
                    schema.name,
                    ia.id
                );
            }
        }
    }

    #[test]
    fn segment_codec_round_trips_structurally() {
        let db = base();
        let bytes = encode_segment(&db).unwrap();
        let back = decode_segment(&bytes).unwrap();
        assert!(back.content_eq(&db));
        assert_eq!(
            back.relation("FC").unwrap().indexed_columns(),
            db.relation("FC").unwrap().indexed_columns()
        );
        assert_eq!(
            back.relation("Family").unwrap().schema().foreign_keys,
            db.relation("Family").unwrap().schema().foreign_keys
        );
    }

    #[test]
    fn value_codec_preserves_exact_numerics() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Int(7),
            Value::float(2.0),
            Value::float(-0.0),
            Value::float(f64::NAN),
            Value::str("hello \u{1F52C} world"),
            Value::str(""),
        ] {
            let mut buf = Vec::new();
            put_value(&mut buf, &v);
            let back = Reader::new(&buf, "test").value().unwrap();
            assert_eq!(back, v, "{v:?}");
            // Int(7) must come back as Int, not Float, even though
            // they compare equal — citations render them differently.
            assert_eq!(std::mem::discriminant(&back), std::mem::discriminant(&v));
        }
    }

    #[test]
    fn sync_then_cold_open_reproduces_the_chain_with_deltas() {
        let dir = temp_dir("cold");
        let h = history();
        {
            let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
            storage.sync(&h).unwrap();
            // idempotent
            storage.sync(&h).unwrap();
            let stats = storage.stats();
            assert_eq!(stats.versions, 3);
            assert_eq!(stats.segments, 1, "only v0 is a full segment");
            assert_eq!(stats.wal_records, 2);
            assert!(stats.wal_bytes > 0);
            assert!(stats.disk_bytes > 0);
        }
        // process "restart": a brand new handle over the same dir
        let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        assert_eq!(storage.stats().versions, 3);
        let loaded = storage.load_history().unwrap();
        assert_same_history(&h, &loaded);
        // deltas survive the reload
        assert!(loaded.delta(1).is_some());
        assert_eq!(loaded.delta(1).unwrap().inserted(), 1);
        assert!(loaded.delta(2).is_some());
        assert_eq!(loaded.delta(2).unwrap().removed(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_sync_appends_only_new_versions() {
        let dir = temp_dir("incr");
        let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        let mut h = VersionedDatabase::new();
        h.commit(base(), 100, "v0").unwrap();
        storage.sync(&h).unwrap();
        let wal_before = storage.stats().wal_bytes;
        h.commit_with(200, "v1", |db| {
            db.insert("FC", tuple!["12", "p9"]).map(|_| ())
        })
        .unwrap();
        storage.sync(&h).unwrap();
        let stats = storage.stats();
        assert_eq!(stats.versions, 2);
        assert!(stats.wal_bytes > wal_before);
        assert_same_history(&h, &storage.load_history().unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn structural_commits_persist_as_segments() {
        let dir = temp_dir("structural");
        let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        let mut h = VersionedDatabase::new();
        h.commit(base(), 100, "v0").unwrap();
        h.commit_with(200, "schema-change", |db| {
            db.create_relation(
                RelationSchema::with_names("Extra", &[("x", DataType::Int)], &[]).unwrap(),
            )
        })
        .unwrap();
        h.commit_with(300, "index", |db| db.relation_mut("Family")?.build_index(1))
            .unwrap();
        storage.sync(&h).unwrap();
        let stats = storage.stats();
        assert_eq!(stats.segments, 3);
        assert_eq!(stats.wal_records, 0);
        let loaded = storage.load_history().unwrap();
        assert_same_history(&h, &loaded);
        // a catalog or index change has no delta, before or after the
        // reload, and the reloaded v2 shares what its commit left alone
        assert!((1..3).all(|v| h.delta(v).is_none() && loaded.delta(v).is_none()));
        let arc = |v, name| Arc::clone(loaded.snapshot(v).unwrap().1.relation_arc(name).unwrap());
        assert!(Arc::ptr_eq(&arc(1, "FC"), &arc(2, "FC")));
        assert!(!Arc::ptr_eq(&arc(1, "Family"), &arc(2, "Family")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_folds_deltas_and_truncates_the_wal() {
        let dir = temp_dir("compact");
        let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        let h = history();
        storage.sync(&h).unwrap();
        assert!(storage.stats().wal_bytes > 0);
        storage.compact().unwrap();
        let stats = storage.stats();
        assert_eq!(stats.segments, 3);
        assert_eq!(stats.wal_records, 0);
        assert_eq!(stats.wal_bytes, 0);
        assert_eq!(stats.compactions, 1);
        // a second compact is a no-op
        storage.compact().unwrap();
        assert_eq!(storage.stats().compactions, 1);
        // cold open still reproduces every snapshot
        let reopened = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        assert_same_history(&h, &reopened.load_history().unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_wal_threshold_triggers_auto_compaction_with_floor() {
        let dir = temp_dir("autocompact");
        let options = StorageOptions {
            wal_compact_bytes: 0, // floored to MIN_WAL_COMPACT_BYTES
            ..StorageOptions::default()
        };
        let storage = DiskStorage::open(&dir, options).unwrap();
        let mut h = VersionedDatabase::new();
        h.commit(base(), 100, "v0").unwrap();
        storage.sync(&h).unwrap();
        // push enough delta bytes past the 4 KiB floor to compact
        for i in 0..40u64 {
            h.commit_with(100 + i + 1, format!("v{}", i + 1), |db| {
                let pad = "x".repeat(120);
                db.insert("FC", tuple![format!("11"), format!("p-{i}-{pad}")])
                    .map(|_| ())
            })
            .unwrap();
        }
        storage.sync(&h).unwrap();
        let stats = storage.stats();
        assert!(stats.compactions >= 1, "{stats:?}");
        assert_eq!(stats.wal_bytes, 0);
        assert_same_history(&h, &storage.load_history().unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_capacity_zero_disables_the_buffer_cache() {
        let dir = temp_dir("nocache");
        let options = StorageOptions {
            cache_pages: 0,
            ..StorageOptions::default()
        };
        let storage = DiskStorage::open(&dir, options).unwrap();
        let h = history();
        storage.sync(&h).unwrap();
        storage.load_history().unwrap();
        storage.load_history().unwrap();
        let stats = storage.stats();
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
        assert_eq!(stats.cache_hit_rate(), 0.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_loads_hit_the_buffer_cache() {
        let dir = temp_dir("cachehit");
        let options = StorageOptions {
            page_size: 0, // floored to MIN_PAGE_SIZE
            ..StorageOptions::default()
        };
        let storage = DiskStorage::open(&dir, options).unwrap();
        let h = history();
        storage.sync(&h).unwrap();
        storage.load_history().unwrap();
        let cold = storage.stats();
        assert!(cold.cache_misses > 0);
        storage.load_history().unwrap();
        let warm = storage.stats();
        assert!(warm.cache_hits > cold.cache_hits);
        assert!(warm.cache_hit_rate() > 0.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_data_dir_is_a_structured_error() {
        let dir = temp_dir("notadir");
        fs::create_dir_all(dir.parent().unwrap()).unwrap();
        fs::write(&dir, b"i am a file").unwrap();
        let err = DiskStorage::open(&dir, StorageOptions::default()).unwrap_err();
        assert!(matches!(err, RelationError::Storage(_)), "{err}");
        // a path whose parent is a file cannot be created either
        let err = DiskStorage::open(dir.join("sub"), StorageOptions::default()).unwrap_err();
        assert!(err.to_string().contains("storage error"), "{err}");
        let _ = fs::remove_file(&dir);
    }

    #[test]
    fn diverged_history_is_refused() {
        let dir = temp_dir("diverge");
        let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        storage.sync(&history()).unwrap();
        let mut other = VersionedDatabase::new();
        other.commit(base(), 100, "not-v0").unwrap();
        other.commit_with(150, "fork", |_| Ok(())).unwrap();
        other.commit_with(160, "fork2", |_| Ok(())).unwrap();
        assert!(matches!(
            storage.sync(&other).unwrap_err(),
            RelationError::Storage(_)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_trailing_wal_bytes_are_dropped_not_built_upon() {
        let dir = temp_dir("stalewal");
        let mut h = VersionedDatabase::new();
        h.commit(base(), 100, "v0").unwrap();
        h.commit_with(200, "v1", |db| {
            db.insert("FC", tuple!["12", "p7"]).map(|_| ())
        })
        .unwrap();
        {
            let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
            storage.sync(&h).unwrap();
        }
        // simulate a crash between a WAL append and the manifest
        // rename: unreferenced bytes trail the last committed record
        let wal_path = dir.join(WAL_FILE);
        let committed = fs::metadata(&wal_path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&wal_path).unwrap();
        f.write_all(b"torn record from a crashed sync").unwrap();
        drop(f);
        // reopen: the trailing bytes are dropped, so the next sync's
        // manifest offsets point at the bytes it actually writes
        let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        assert_eq!(fs::metadata(&wal_path).unwrap().len(), committed);
        h.commit_with(300, "v2", |db| {
            db.insert("FC", tuple!["12", "p8"]).map(|_| ())
        })
        .unwrap();
        storage.sync(&h).unwrap();
        assert_same_history(&h, &storage.load_history().unwrap());
        // and so does a cold reopen
        let reopened = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        assert_same_history(&h, &reopened.load_history().unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_after_compaction_manifest_leaves_a_loadable_store() {
        let dir = temp_dir("compactcrash");
        let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        let h = history();
        storage.sync(&h).unwrap();
        storage.compact().unwrap();
        drop(storage);
        // simulate the crash window after the all-segment manifest
        // landed but before the WAL truncate: stale record bytes are
        // still sitting in wal.log
        fs::write(dir.join(WAL_FILE), b"stale pre-compaction records").unwrap();
        let reopened = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        assert_same_history(&h, &reopened.load_history().unwrap());
        // no manifest entry references the WAL, and open dropped it
        assert_eq!(reopened.stats().wal_bytes, 0);
        assert_eq!(fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_metadata_different_content_is_refused() {
        let dir = temp_dir("fork");
        let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        storage.sync(&history()).unwrap();
        // identical infos (timestamps + labels), different tuples
        let mut forged = Database::new();
        forged
            .create_relation(
                RelationSchema::with_names("Other", &[("x", DataType::Int)], &["x"]).unwrap(),
            )
            .unwrap();
        let mut fork = VersionedDatabase::new();
        fork.commit(forged, 100, "v0").unwrap();
        fork.commit_with(200, "v1", |db| db.insert("Other", tuple![1]).map(|_| ()))
            .unwrap();
        fork.commit_with(300, "v2", |db| db.insert("Other", tuple![2]).map(|_| ()))
            .unwrap();
        let err = storage.sync(&fork).unwrap_err();
        assert!(err.to_string().contains("different content"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_length_prefixes_error_instead_of_allocating() {
        // a tuple claiming u32::MAX values in a 4-byte buffer
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        let err = Reader::new(&buf, "tuple").tuple().unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // a manifest claiming u32::MAX entries right before EOF
        let dir = temp_dir("hostile");
        let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        storage.sync(&history()).unwrap();
        drop(storage);
        let manifest = dir.join(MANIFEST_FILE);
        let mut bytes = fs::read(&manifest).unwrap();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&manifest, &bytes).unwrap();
        let err = DiskStorage::open(&dir, StorageOptions::default()).unwrap_err();
        assert!(matches!(err, RelationError::Storage(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_flag_byte_other_than_zero_is_corrupt() {
        let mut buf = Vec::new();
        put_delta(&mut buf, history().delta(1).unwrap());
        assert_eq!(buf[0], 0, "put_delta writes a zero flag");
        let decode = |buf: &[u8]| Reader::new(buf, "WAL record").delta();
        assert_eq!(decode(&buf).unwrap().inserted(), 1);
        buf[0] = 1;
        let err = decode(&buf).unwrap_err().to_string();
        assert_eq!(err, "storage error: corrupt WAL record: delta flag byte 1");
    }

    #[test]
    fn manifest_payload_len_is_bounded_by_the_wal_file() {
        let dir = temp_dir("walbound");
        let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        storage.sync(&history()).unwrap();
        drop(storage);
        // corrupt the first delta entry's payload_len to a huge value
        // without touching the WAL itself
        let manifest = dir.join(MANIFEST_FILE);
        let mut entries = read_manifest(&manifest).unwrap();
        let source = entries
            .iter_mut()
            .find_map(|e| match &mut e.source {
                VersionLocation::Delta { payload_len, .. } => Some(payload_len),
                VersionLocation::Segment => None,
            })
            .expect("history has a delta entry");
        *source = u32::MAX - 12;
        fs::write(&manifest, encode_manifest(&entries)).unwrap();
        let reopened = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        let err = reopened.load_history().unwrap_err();
        assert!(err.to_string().contains("extends past"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn health_reports_an_unreadable_manifest() {
        let dir = temp_dir("health");
        let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        let health = storage.health().unwrap();
        assert!(!health.degraded, "a fresh store is healthy: {health:?}");
        assert!(health.manifest_readable, "no manifest yet is not a fault");
        storage.sync(&history()).unwrap();
        assert!(!storage.health().unwrap().degraded);
        fs::write(dir.join(MANIFEST_FILE), b"garbage").unwrap();
        let health = storage.health().unwrap();
        assert!(health.degraded && !health.manifest_readable, "{health:?}");
        assert!(health.causes.iter().any(|c| c.contains("manifest")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_sync_flips_health_until_the_next_success() {
        use crate::storage::FaultVfs;
        use fgc_fault::{FaultAction, FaultPlane, Trigger};
        let dir = temp_dir("synchealth");
        let plane = Arc::new(FaultPlane::new());
        let vfs = Arc::new(FaultVfs::over_real(Arc::clone(&plane)));
        let storage = DiskStorage::open_with_vfs(&dir, StorageOptions::default(), vfs).unwrap();
        plane.arm("storage.fsync.wal", FaultAction::Error, Trigger::Nth(1));
        let h = history();
        let err = storage.sync(&h).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        let health = storage.health().unwrap();
        assert!(health.degraded && !health.last_sync_ok, "{health:?}");
        assert!(health.causes.iter().any(|c| c.contains("last sync failed")));
        // The fault was one-shot; a retry heals the report.
        storage.sync(&h).unwrap();
        let health = storage.health().unwrap();
        assert!(health.last_sync_ok && !health.degraded, "{health:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_torn_tail_recovers_at_every_byte_boundary() {
        let dir = temp_dir("torntail");
        let h = history();
        {
            let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
            storage.sync(&h).unwrap();
        }
        let manifest_path = dir.join(MANIFEST_FILE);
        let wal_path = dir.join(WAL_FILE);
        let full_manifest = read_manifest(&manifest_path).unwrap();
        let wal_bytes = fs::read(&wal_path).unwrap();
        let last_offset = match full_manifest.last().unwrap().source {
            VersionLocation::Delta {
                offset,
                payload_len,
            } => {
                assert_eq!(offset + wal_record_len(payload_len), wal_bytes.len() as u64);
                offset as usize
            }
            VersionLocation::Segment => panic!("last version should be a WAL delta"),
        };
        let prev_manifest = &full_manifest[..full_manifest.len() - 1];
        // Crash between the WAL append and the manifest rename: the
        // durable manifest predates the record, and the record itself
        // is torn at an arbitrary byte. Every cut point must reopen
        // cleanly to the previous durable version.
        for cut in last_offset..=wal_bytes.len() {
            fs::write(&manifest_path, encode_manifest(prev_manifest)).unwrap();
            fs::write(&wal_path, &wal_bytes[..cut]).unwrap();
            let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
            let loaded = storage.load_history().unwrap();
            assert_eq!(loaded.len(), h.len() - 1, "cut at byte {cut}");
            for ((ia, da), (ib, db_)) in h.iter().zip(loaded.iter()) {
                assert_eq!(ia, ib, "cut at byte {cut}");
                assert!(da.content_eq(db_), "cut {cut}: snapshot {} differs", ia.id);
            }
        }
        // The impossible-by-construction layout (manifest referencing
        // a record the WAL no longer holds in full) must be a
        // structured load error at every cut, never silent corruption.
        for cut in last_offset..wal_bytes.len() {
            fs::write(&manifest_path, encode_manifest(&full_manifest)).unwrap();
            fs::write(&wal_path, &wal_bytes[..cut]).unwrap();
            let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
            let err = storage.load_history().unwrap_err();
            assert!(matches!(err, RelationError::Storage(_)), "cut {cut}: {err}");
        }
        // Restoring the full WAL restores the full chain.
        fs::write(&manifest_path, encode_manifest(&full_manifest)).unwrap();
        fs::write(&wal_path, &wal_bytes).unwrap();
        let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        assert_same_history(&h, &storage.load_history().unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_corruption_is_detected_at_load() {
        let dir = temp_dir("corrupt");
        let storage = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        storage.sync(&history()).unwrap();
        drop(storage);
        // flip one byte in the last WAL record's payload
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = fs::read(&wal_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&wal_path, &bytes).unwrap();
        let reopened = DiskStorage::open(&dir, StorageOptions::default()).unwrap();
        let err = reopened.load_history().unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
