//! Per-shard write-ahead commit log with snapshots and compaction.
//!
//! Every shard appends to its own segmented log through a [`BlobStore`]
//! — an append/put/get/list/delete abstraction over named byte blobs
//! with two implementations: [`MemStore`] (in-process, for tests and
//! for crash-injection runs where the "disk" must survive a simulated
//! worker death) and [`DirStore`] (a directory of real files).
//!
//! ## Layout
//!
//! ```text
//! s{shard:03}/wal-{segment:08}   log segments, records appended in order
//! s{shard:03}/snap-{seq:08}      engine snapshot taken after batch `seq`
//! s{shard:03}/hist               committed-history journal, one delta per snapshot
//! coord/decisions                coordinator 2PC decision log
//! ```
//!
//! ## Record framing
//!
//! Every record is `[MAGIC u32][kind u8][len u32][payload][fnv u64]`,
//! all little-endian; the trailing FNV-1a covers `kind`, `len` and the
//! payload. A record whose frame is incomplete or whose checksum fails
//! is *torn* — legal only as the final record of the final segment
//! (a crash mid-append), where recovery truncates it. Encoding is fully
//! deterministic, so a healed log is byte-identical to one written by a
//! crash-free run.
//!
//! The record stream per batch is: one [`WalRecord::Batch`] (the sealed
//! entries, written *before* execution), the batch's
//! [`WalRecord::Commit`] records (request-tagged write-sets staged by
//! the commit hook), then one [`WalRecord::Result`] sealing the group.
//! The commits and the `Result` go to the store in a single append
//! after execution. A batch whose `Result` is present is durable;
//! replay verifies re-execution against it.
//!
//! ## History journal
//!
//! Snapshots do not carry the committed history. At each snapshot the
//! engine appends the commits made since the previous snapshot to the
//! shard's `hist` blob as one framed delta (kind [`HIST_KIND`]), and
//! the snapshot records the journal length. Restore reads exactly that
//! prefix, verifying every frame, and truncates any longer tail: a
//! delta appended by a snapshot that never landed.

use crate::engine::{Entry, EntryOutcome, ShardOp};
use gpu_sim::Fnv;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Frame marker preceding every WAL record.
pub(crate) const MAGIC: u32 = 0x57414C31; // "WAL1"

/// Blob name of the coordinator's 2PC decision log.
pub(crate) const DECISIONS: &str = "coord/decisions";

/// Frame kind of a history-journal delta (snapshots use kind 0, WAL
/// records kinds 1–5).
pub(crate) const HIST_KIND: u8 = 6;

/// Named-blob storage backing the WAL: the minimal object-store surface
/// (append-only segments plus whole-blob put/get) that both an
/// in-process map and a directory of files can provide.
pub trait BlobStore: Send + Sync {
    /// Creates or truncates `name` with `bytes`.
    fn put(&self, name: &str, bytes: &[u8]);
    /// Appends `bytes` to `name`, creating it if absent.
    fn append(&self, name: &str, bytes: &[u8]);
    /// Full contents of `name`, or `None` if absent.
    fn get(&self, name: &str) -> Option<Vec<u8>>;
    /// All blob names starting with `prefix`, sorted.
    fn list(&self, prefix: &str) -> Vec<String>;
    /// Removes `name` (no-op if absent).
    fn delete(&self, name: &str);
}

/// Shared handle to a blob store.
pub type StoreHandle = Arc<dyn BlobStore>;

/// `(fnv, total_bytes)` over every blob name and its contents, in name
/// order — two stores fingerprint equal iff they hold identical bytes.
/// Works on any [`BlobStore`]; the byte-identical-healing tests compare
/// a crashed-and-recovered store against an uncrashed run's store.
pub fn store_fingerprint(store: &StoreHandle) -> (u64, u64) {
    let mut h = Fnv::new();
    let mut total = 0u64;
    for name in store.list("") {
        let bytes = store.get(&name).unwrap_or_default();
        h.u64(name.len() as u64);
        for &b in name.as_bytes() {
            h.u64(b as u64);
        }
        h.u64(bytes.len() as u64);
        for &b in bytes.iter() {
            h.u64(b as u64);
        }
        total += bytes.len() as u64;
    }
    (h.0, total)
}

/// In-memory blob store. Lives outside the shard engines, so it plays
/// the role of stable storage in kill-and-restart tests: the "disk"
/// survives the simulated worker death.
#[derive(Default)]
pub struct MemStore {
    blobs: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemStore {
    /// Creates an empty store behind a shared handle.
    pub fn shared() -> StoreHandle {
        Arc::new(MemStore::default())
    }

    /// FNV-1a over every blob name and its contents, in name order —
    /// two stores fingerprint equal iff they hold identical bytes.
    /// The byte-identical-healing tests compare a crashed-and-recovered
    /// store against an uncrashed run's store with this.
    pub fn fingerprint(&self) -> u64 {
        let blobs = self.blobs.lock().unwrap();
        let mut h = Fnv::new();
        for (name, bytes) in blobs.iter() {
            h.u64(name.len() as u64);
            for &b in name.as_bytes() {
                h.u64(b as u64);
            }
            h.u64(bytes.len() as u64);
            for &b in bytes.iter() {
                h.u64(b as u64);
            }
        }
        h.0
    }

    /// Total bytes across all blobs (compaction telemetry).
    pub fn total_bytes(&self) -> u64 {
        self.blobs.lock().unwrap().values().map(|v| v.len() as u64).sum()
    }
}

impl BlobStore for MemStore {
    fn put(&self, name: &str, bytes: &[u8]) {
        self.blobs.lock().unwrap().insert(name.to_string(), bytes.to_vec());
    }

    fn append(&self, name: &str, bytes: &[u8]) {
        self.blobs.lock().unwrap().entry(name.to_string()).or_default().extend_from_slice(bytes);
    }

    fn get(&self, name: &str) -> Option<Vec<u8>> {
        self.blobs.lock().unwrap().get(name).cloned()
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.blobs.lock().unwrap().keys().filter(|k| k.starts_with(prefix)).cloned().collect()
    }

    fn delete(&self, name: &str) {
        self.blobs.lock().unwrap().remove(name);
    }
}

/// Blob store over a directory: blob names map to relative paths
/// (the `/` in segment names becomes a subdirectory).
pub struct DirStore {
    root: PathBuf,
}

impl DirStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<DirStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DirStore { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn ensure_parent(&self, name: &str) {
        if let Some(parent) = self.path(name).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
    }

    fn walk(dir: &PathBuf, rel: &str, out: &mut Vec<String>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let child = if rel.is_empty() { name.clone() } else { format!("{rel}/{name}") };
            let path = entry.path();
            if path.is_dir() {
                Self::walk(&path, &child, out);
            } else {
                out.push(child);
            }
        }
    }
}

impl BlobStore for DirStore {
    fn put(&self, name: &str, bytes: &[u8]) {
        self.ensure_parent(name);
        std::fs::write(self.path(name), bytes).expect("DirStore put");
    }

    fn append(&self, name: &str, bytes: &[u8]) {
        self.ensure_parent(name);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))
            .expect("DirStore append");
        f.write_all(bytes).expect("DirStore append");
    }

    fn get(&self, name: &str) -> Option<Vec<u8>> {
        std::fs::read(self.path(name)).ok()
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let mut out = Vec::new();
        Self::walk(&self.root, "", &mut out);
        out.retain(|n| n.starts_with(prefix));
        out.sort();
        out
    }

    fn delete(&self, name: &str) {
        let _ = std::fs::remove_file(self.path(name));
    }
}

/// Little-endian byte encoder for record payloads.
pub(crate) struct Enc(pub Vec<u8>);

impl Enc {
    pub(crate) fn new() -> Self {
        Enc(Vec::new())
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
}

/// Cursor-based decoder matching [`Enc`]; every read is bounds-checked
/// so corrupt payloads surface as `None`, never a panic.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        let bytes = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let bytes = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Reads a `u32` element count, rejecting one whose elements (at
    /// least `min_bytes` each) cannot fit in the rest of the buffer, so
    /// a corrupt count never sizes an allocation.
    pub(crate) fn count(&mut self, min_bytes: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        (n.saturating_mul(min_bytes) <= self.buf.len() - self.pos).then_some(n)
    }

    /// `Some(())` iff the cursor consumed the whole buffer.
    pub(crate) fn done(&self) -> Option<()> {
        (self.pos == self.buf.len()).then_some(())
    }
}

/// The sealed result of one batch as logged (and verified on replay).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct BatchSeal {
    /// Batch sequence number (per shard, from 1).
    pub seq: u64,
    /// Per-entry outcomes, in batch order.
    pub outcomes: Vec<EntryOutcome>,
    /// Simulated cycles the batch took.
    pub cycles: u64,
    /// Transactions committed during the batch.
    pub commits: u64,
    /// Aborted attempts during the batch.
    pub aborts: u64,
    /// Scheduler abort-storm flag after the batch.
    pub storm: bool,
    /// FNV-1a of the shard's device data span after the batch.
    pub data_fnv: u64,
    /// Incremental FNV-1a of the request-tagged commit log so far.
    pub log_fnv: u64,
}

/// One WAL record (see the module docs for the per-batch stream).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum WalRecord {
    /// A sealed batch, logged before execution.
    Batch {
        /// Batch sequence number (per shard, from 1).
        seq: u64,
        /// The sealed entries, in batch order.
        entries: Vec<Entry>,
    },
    /// One committed transaction's request tag and write-set, captured
    /// by the commit hook in commit order. Replicas apply exactly these
    /// writes; `reads` is a count only (full read-sets live in the
    /// history journal).
    Commit {
        /// Originating request id (`u64::MAX` for internal ops).
        req: u64,
        /// Committing thread id.
        tid: u32,
        /// Commit version + 1 (0 = read-only).
        version: u32,
        /// Snapshot the transaction validated against.
        snapshot: u32,
        /// Number of transactional reads.
        reads: u32,
        /// Write-set as (address, value) pairs, in recording order.
        writes: Vec<(u32, u32)>,
    },
    /// Seals a batch group: the batch executed and produced this result.
    Result(BatchSeal),
    /// Coordinator 2PC decision for a cross-shard request.
    Decision {
        /// Request id.
        req: u64,
        /// `true` = commit (apply credit), `false` = abort (compensate).
        commit: bool,
    },
    /// Initial device data span, written once at WAL birth so replicas
    /// can bootstrap without building an engine.
    Init {
        /// First word index of the span.
        base: u32,
        /// Initial span contents.
        words: Vec<u32>,
    },
}

impl WalRecord {
    fn kind(&self) -> u8 {
        match self {
            WalRecord::Batch { .. } => 1,
            WalRecord::Commit { .. } => 2,
            WalRecord::Result(_) => 3,
            WalRecord::Decision { .. } => 4,
            WalRecord::Init { .. } => 5,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            WalRecord::Batch { seq, entries } => {
                e.u64(*seq);
                e.u32(entries.len() as u32);
                for entry in entries {
                    e.u64(entry.req);
                    encode_op(&mut e, entry.op);
                }
            }
            WalRecord::Commit { req, tid, version, snapshot, reads, writes } => {
                e.u64(*req);
                e.u32(*tid);
                e.u32(*version);
                e.u32(*snapshot);
                e.u32(*reads);
                e.u32(writes.len() as u32);
                for &(addr, val) in writes {
                    e.u32(addr);
                    e.u32(val);
                }
            }
            WalRecord::Result(r) => enc_seal(&mut e, r),
            WalRecord::Decision { req, commit } => {
                e.u64(*req);
                e.u8(*commit as u8);
            }
            WalRecord::Init { base, words } => {
                e.u32(*base);
                e.u32(words.len() as u32);
                for &w in words {
                    e.u32(w);
                }
            }
        }
        e.0
    }

    /// Full framed encoding: `[MAGIC][kind][len][payload][fnv]`.
    pub(crate) fn encode(&self) -> Vec<u8> {
        frame(self.kind(), &self.payload())
    }

    fn decode(kind: u8, payload: &[u8]) -> Option<WalRecord> {
        let mut d = Dec::new(payload);
        let rec = match kind {
            1 => {
                let seq = d.u64()?;
                let n = d.count(21)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let req = d.u64()?;
                    let op = decode_op(&mut d)?;
                    entries.push(Entry { req, op });
                }
                WalRecord::Batch { seq, entries }
            }
            2 => {
                let req = d.u64()?;
                let tid = d.u32()?;
                let version = d.u32()?;
                let snapshot = d.u32()?;
                let reads = d.u32()?;
                let n = d.count(8)?;
                let mut writes = Vec::with_capacity(n);
                for _ in 0..n {
                    writes.push((d.u32()?, d.u32()?));
                }
                WalRecord::Commit { req, tid, version, snapshot, reads, writes }
            }
            3 => WalRecord::Result(dec_seal(&mut d)?),
            4 => {
                let req = d.u64()?;
                let commit = d.u8()? != 0;
                WalRecord::Decision { req, commit }
            }
            5 => {
                let base = d.u32()?;
                let n = d.count(4)?;
                let mut words = Vec::with_capacity(n);
                for _ in 0..n {
                    words.push(d.u32()?);
                }
                WalRecord::Init { base, words }
            }
            _ => return None,
        };
        d.done()?;
        Some(rec)
    }
}

/// Encodes a [`BatchSeal`] (shared by `Result` records and the
/// snapshot-embedded last seal).
pub(crate) fn enc_seal(e: &mut Enc, r: &BatchSeal) {
    e.u64(r.seq);
    e.u32(r.outcomes.len() as u32);
    for o in &r.outcomes {
        e.u8(o.ok as u8);
        e.u32(o.value);
    }
    e.u64(r.cycles);
    e.u64(r.commits);
    e.u64(r.aborts);
    e.u8(r.storm as u8);
    e.u64(r.data_fnv);
    e.u64(r.log_fnv);
}

/// Decodes a [`BatchSeal`] written by [`enc_seal`].
pub(crate) fn dec_seal(d: &mut Dec) -> Option<BatchSeal> {
    let seq = d.u64()?;
    let n = d.count(5)?;
    let mut outcomes = Vec::with_capacity(n);
    for _ in 0..n {
        let ok = d.u8()? != 0;
        let value = d.u32()?;
        outcomes.push(EntryOutcome { ok, value });
    }
    Some(BatchSeal {
        seq,
        outcomes,
        cycles: d.u64()?,
        commits: d.u64()?,
        aborts: d.u64()?,
        storm: d.u8()? != 0,
        data_fnv: d.u64()?,
        log_fnv: d.u64()?,
    })
}

/// Frames a payload: `[MAGIC][kind][len][payload][fnv]` with the FNV-1a
/// checksum over kind, len and payload bytes.
pub(crate) fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 17);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&frame_fnv(kind, payload).to_le_bytes());
    out
}

fn frame_fnv(kind: u8, payload: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.u64(kind as u64);
    h.u64(payload.len() as u64);
    for &b in payload {
        h.u64(b as u64);
    }
    h.0
}

/// Attempts to read one frame at `buf[pos..]`. Returns its kind, its
/// payload and the following offset, or `None` if the frame is
/// incomplete or its checksum fails (a torn tail when at the end).
fn unframe(buf: &[u8], pos: usize) -> Option<(u8, &[u8], usize)> {
    let header = buf.get(pos..pos.checked_add(9)?)?;
    if u32::from_le_bytes(header[0..4].try_into().unwrap()) != MAGIC {
        return None;
    }
    let kind = header[4];
    let len = u32::from_le_bytes(header[5..9].try_into().unwrap()) as usize;
    let payload = buf.get(pos + 9..pos + 9 + len)?;
    let sum = u64::from_le_bytes(buf.get(pos + 9 + len..pos + 17 + len)?.try_into().unwrap());
    (sum == frame_fnv(kind, payload)).then_some((kind, payload, pos + 17 + len))
}

/// Attempts to read one framed record at `buf[pos..]`. Returns the
/// record and the following offset, or `None` if the frame is
/// incomplete or corrupt (a torn tail when at the end of the log).
fn read_frame(buf: &[u8], pos: usize) -> Option<(WalRecord, usize)> {
    let (kind, payload, next) = unframe(buf, pos)?;
    Some((WalRecord::decode(kind, payload)?, next))
}

fn encode_op(e: &mut Enc, op: ShardOp) {
    let (k, a, b, c) = match op {
        ShardOp::Transfer { from, to, amount } => (0u8, from, to, amount),
        ShardOp::PrepareDebit { from, amount } => (1, from, 0, amount),
        ShardOp::PrepareCredit { to, amount } => (2, to, 0, amount),
        ShardOp::ApplyCredit { to, amount } => (3, to, 0, amount),
        ShardOp::RollbackDebit { from, amount } => (4, from, 0, amount),
        ShardOp::HtPut { key, val } => (5, key, val, 0),
        ShardOp::HtGet { key } => (6, key, 0, 0),
        ShardOp::TxlBump { key } => (7, key, 0, 0),
    };
    e.u8(k);
    e.u32(a);
    e.u32(b);
    e.u32(c);
}

fn decode_op(d: &mut Dec) -> Option<ShardOp> {
    let k = d.u8()?;
    let a = d.u32()?;
    let b = d.u32()?;
    let c = d.u32()?;
    Some(match k {
        0 => ShardOp::Transfer { from: a, to: b, amount: c },
        1 => ShardOp::PrepareDebit { from: a, amount: c },
        2 => ShardOp::PrepareCredit { to: a, amount: c },
        3 => ShardOp::ApplyCredit { to: a, amount: c },
        4 => ShardOp::RollbackDebit { from: a, amount: c },
        5 => ShardOp::HtPut { key: a, val: b },
        6 => ShardOp::HtGet { key: a },
        7 => ShardOp::TxlBump { key: a },
        _ => return None,
    })
}

/// Segment blob name for `shard`, segment `seg`.
pub(crate) fn seg_name(shard: usize, seg: u64) -> String {
    format!("s{shard:03}/wal-{seg:08}")
}

/// Snapshot blob name for `shard`, taken after batch `seq`.
pub(crate) fn snap_name(shard: usize, seq: u64) -> String {
    format!("s{shard:03}/snap-{seq:08}")
}

/// History-journal blob name for `shard`.
pub(crate) fn hist_name(shard: usize) -> String {
    format!("s{shard:03}/hist")
}

fn parse_suffix(name: &str, sep: char) -> Option<u64> {
    name.rsplit(sep).next()?.parse().ok()
}

/// One shard's WAL as read back from the store: records grouped by
/// segment, with a torn final record (if any) already excluded.
pub(crate) struct ShardWal {
    /// `(segment index, records)` in segment order.
    pub segs: Vec<(u64, Vec<WalRecord>)>,
    /// Whether the final segment ended in a torn (incomplete or
    /// checksum-failing) record — legal only there.
    pub torn: bool,
}

impl ShardWal {
    /// All records across segments, in log order.
    pub(crate) fn records(&self) -> impl Iterator<Item = &WalRecord> {
        self.segs.iter().flat_map(|(_, recs)| recs.iter())
    }
}

/// Reads and verifies every segment of `shard`'s log.
///
/// # Errors
///
/// A torn record anywhere but the very tail of the final segment is
/// corruption, not a crash artifact, and is reported as an error.
pub(crate) fn read_shard_wal(store: &StoreHandle, shard: usize) -> Result<ShardWal, String> {
    let prefix = format!("s{shard:03}/wal-");
    let names = store.list(&prefix);
    let mut segs = Vec::new();
    let mut torn = false;
    for (i, name) in names.iter().enumerate() {
        let seg = parse_suffix(name, '-')
            .ok_or_else(|| format!("unparseable WAL segment name {name:?}"))?;
        let bytes = store.get(name).unwrap_or_default();
        let mut recs = Vec::new();
        let mut pos = 0;
        while pos < bytes.len() {
            match read_frame(&bytes, pos) {
                Some((rec, next)) => {
                    recs.push(rec);
                    pos = next;
                }
                None => {
                    if i + 1 != names.len() {
                        return Err(format!(
                            "corrupt record at byte {pos} of non-final segment {name:?}"
                        ));
                    }
                    torn = true;
                    break;
                }
            }
        }
        segs.push((seg, recs));
    }
    Ok(ShardWal { segs, torn })
}

/// Append-side handle to one shard's log. Resume-aware: opening scans
/// the existing final segment (if any), so a recovered engine and a
/// fresh one share the same construction path.
pub(crate) struct WalWriter {
    store: StoreHandle,
    shard: usize,
    /// Current (final) segment index.
    seg: u64,
    /// `Batch` records appended to the current segment so far.
    seg_batches: u64,
}

impl WalWriter {
    /// Opens the shard's log for appending, creating segment 0 if the
    /// log is empty.
    ///
    /// # Errors
    ///
    /// Propagates scan errors; the final segment must be clean (torn
    /// tails are the recovery module's job to truncate first).
    pub(crate) fn open(store: StoreHandle, shard: usize) -> Result<WalWriter, String> {
        let wal = read_shard_wal(&store, shard)?;
        if wal.torn {
            return Err(format!("shard {shard} WAL has a torn tail; recover before appending"));
        }
        let (seg, seg_batches) = match wal.segs.last() {
            Some((seg, recs)) => {
                let batches =
                    recs.iter().filter(|r| matches!(r, WalRecord::Batch { .. })).count() as u64;
                (*seg, batches)
            }
            None => {
                store.put(&seg_name(shard, 0), &[]);
                (0, 0)
            }
        };
        Ok(WalWriter { store, shard, seg, seg_batches })
    }

    /// Appends one record to the current segment.
    pub(crate) fn append(&mut self, rec: &WalRecord) {
        self.append_all([rec]);
    }

    /// Appends `recs` to the current segment with one store append; the
    /// bytes equal those of appending each record in turn.
    pub(crate) fn append_all<'a>(&mut self, recs: impl IntoIterator<Item = &'a WalRecord>) {
        let mut bytes = Vec::new();
        for rec in recs {
            bytes.extend(rec.encode());
            if matches!(rec, WalRecord::Batch { .. }) {
                self.seg_batches += 1;
            }
        }
        self.store.append(&seg_name(self.shard, self.seg), &bytes);
    }

    /// Appends only the first `keep` bytes of `rec`'s encoding — the
    /// crash-injection path for dying mid-append (a torn tail).
    pub(crate) fn append_torn(&self, rec: &WalRecord, keep: usize) {
        let bytes = rec.encode();
        let keep = keep.min(bytes.len().saturating_sub(1)).max(1);
        self.store.append(&seg_name(self.shard, self.seg), &bytes[..keep]);
    }

    /// Starts a fresh segment.
    pub(crate) fn roll(&mut self) {
        self.seg += 1;
        self.seg_batches = 0;
        self.store.put(&seg_name(self.shard, self.seg), &[]);
    }

    /// Deletes every segment before the current one (safe once a
    /// snapshot at or past the last rolled batch exists).
    pub(crate) fn compact(&self) {
        for name in self.store.list(&format!("s{:03}/wal-", self.shard)) {
            if parse_suffix(&name, '-').is_some_and(|s| s < self.seg) {
                self.store.delete(&name);
            }
        }
    }

    /// Stores an engine snapshot taken after batch `seq`, checksum-framed
    /// like a record, and deletes older snapshots.
    pub(crate) fn put_snapshot(&self, seq: u64, payload: &[u8]) {
        let name = snap_name(self.shard, seq);
        self.store.put(&name, &frame(0, payload));
        for old in self.store.list(&format!("s{:03}/snap-", self.shard)) {
            if old != name {
                self.store.delete(&old);
            }
        }
    }

    /// Appends one history delta to the shard's journal and returns the
    /// framed length added.
    pub(crate) fn append_history(&self, delta: &[u8]) -> u64 {
        let bytes = frame(HIST_KIND, delta);
        self.store.append(&hist_name(self.shard), &bytes);
        bytes.len() as u64
    }

    /// See [`read_history`].
    pub(crate) fn read_history(&self, len: u64) -> Result<Vec<Vec<u8>>, String> {
        read_history(&self.store, self.shard, len)
    }

    /// `Batch` records in the current segment.
    #[cfg(test)]
    pub(crate) fn seg_batches(&self) -> u64 {
        self.seg_batches
    }

    /// Current segment index.
    #[cfg(test)]
    pub(crate) fn current_seg(&self) -> u64 {
        self.seg
    }
}

/// Latest snapshot for `shard`: `(seq, payload)` with the checksum frame
/// verified and stripped, or `None` if no snapshot exists.
pub(crate) fn latest_snapshot(store: &StoreHandle, shard: usize) -> Option<(u64, Vec<u8>)> {
    let name = store.list(&format!("s{shard:03}/snap-")).pop()?;
    let seq = parse_suffix(&name, '-')?;
    let bytes = store.get(&name)?;
    match unframe(&bytes, 0)? {
        (0, payload, _) => Some((seq, payload.to_vec())),
        _ => None,
    }
}

/// Reads the first `len` bytes of `shard`'s history journal as delta
/// payloads, in append order, verifying every frame.
///
/// # Errors
///
/// A journal shorter than `len`, or a frame in the prefix that is torn
/// or of the wrong kind, is corruption.
pub(crate) fn read_history(
    store: &StoreHandle,
    shard: usize,
    len: u64,
) -> Result<Vec<Vec<u8>>, String> {
    let name = hist_name(shard);
    let bytes = store.get(&name).unwrap_or_default();
    let Some(prefix) = usize::try_from(len).ok().and_then(|n| bytes.get(..n)) else {
        return Err(format!(
            "history journal {name:?} holds {} bytes, the snapshot records {len}",
            bytes.len()
        ));
    };
    let mut deltas = Vec::new();
    let mut pos = 0;
    while pos < prefix.len() {
        match unframe(prefix, pos) {
            Some((HIST_KIND, payload, next)) => {
                deltas.push(payload.to_vec());
                pos = next;
            }
            _ => return Err(format!("corrupt history journal frame at byte {pos} of {name:?}")),
        }
    }
    Ok(deltas)
}

/// Truncates `shard`'s history journal to its first `len` bytes,
/// removing the blob when `len` is 0: the tail is deltas appended by
/// snapshots that never landed, which replay appends again.
pub(crate) fn truncate_history(store: &StoreHandle, shard: usize, len: u64) {
    let name = hist_name(shard);
    let Some(bytes) = store.get(&name) else { return };
    if len == 0 {
        store.delete(&name);
    } else if let Some(prefix) =
        usize::try_from(len).ok().and_then(|n| bytes.get(..n)).filter(|p| p.len() < bytes.len())
    {
        store.put(&name, prefix);
    }
}

/// Appends a coordinator 2PC decision to the shared decision log.
pub(crate) fn append_decision(store: &StoreHandle, req: u64, commit: bool) {
    store.append(DECISIONS, &WalRecord::Decision { req, commit }.encode());
}

/// Reads the coordinator decision log: request id → decision. A torn
/// final record (coordinator died mid-append) is dropped — by presumed
/// abort, an unlogged decision is an abort.
pub(crate) fn read_decisions(store: &StoreHandle) -> BTreeMap<u64, bool> {
    let mut out = BTreeMap::new();
    let Some(bytes) = store.get(DECISIONS) else { return out };
    let mut pos = 0;
    while pos < bytes.len() {
        match read_frame(&bytes, pos) {
            Some((WalRecord::Decision { req, commit }, next)) => {
                out.insert(req, commit);
                pos = next;
            }
            _ => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Init { base: 16, words: vec![100, 0, 100, 7] },
            WalRecord::Batch {
                seq: 1,
                entries: vec![
                    Entry { req: 9, op: ShardOp::Transfer { from: 1, to: 2, amount: 3 } },
                    Entry { req: 10, op: ShardOp::HtPut { key: 5, val: 6 } },
                    Entry { req: 11, op: ShardOp::TxlBump { key: 0 } },
                ],
            },
            WalRecord::Commit {
                req: 9,
                tid: 3,
                version: 2,
                snapshot: 1,
                reads: 2,
                writes: vec![(17, 97), (18, 103)],
            },
            WalRecord::Result(BatchSeal {
                seq: 1,
                outcomes: vec![
                    EntryOutcome { ok: true, value: 0 },
                    EntryOutcome { ok: true, value: 6 },
                    EntryOutcome { ok: false, value: 0 },
                ],
                cycles: 1234,
                commits: 3,
                aborts: 1,
                storm: false,
                data_fnv: 0xdead_beef,
                log_fnv: 0xfeed_face,
            }),
            WalRecord::Decision { req: 9, commit: true },
        ]
    }

    #[test]
    fn records_round_trip_through_framing() {
        for rec in sample_records() {
            let bytes = rec.encode();
            let (back, next) = read_frame(&bytes, 0).expect("decode");
            assert_eq!(back, rec);
            assert_eq!(next, bytes.len());
        }
    }

    #[test]
    fn every_op_round_trips() {
        let ops = [
            ShardOp::Transfer { from: 1, to: 2, amount: 3 },
            ShardOp::PrepareDebit { from: 4, amount: 5 },
            ShardOp::PrepareCredit { to: 6, amount: 7 },
            ShardOp::ApplyCredit { to: 8, amount: 9 },
            ShardOp::RollbackDebit { from: 10, amount: 11 },
            ShardOp::HtPut { key: 12, val: 13 },
            ShardOp::HtGet { key: 14 },
            ShardOp::TxlBump { key: 15 },
        ];
        for op in ops {
            let mut e = Enc::new();
            encode_op(&mut e, op);
            let mut d = Dec::new(&e.0);
            assert_eq!(decode_op(&mut d), Some(op));
            assert_eq!(d.done(), Some(()));
        }
    }

    #[test]
    fn corrupt_checksum_is_rejected() {
        let mut bytes = sample_records()[1].encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(read_frame(&bytes, 0).is_none());
    }

    #[test]
    fn torn_tail_detected_only_in_final_segment() {
        let store = MemStore::shared();
        let mut w = WalWriter::open(Arc::clone(&store), 0).unwrap();
        let recs = sample_records();
        w.append(&recs[1]);
        w.append(&recs[3]);
        w.append_torn(&recs[1], 10);
        let wal = read_shard_wal(&store, 0).unwrap();
        assert!(wal.torn);
        assert_eq!(wal.records().count(), 2);

        // The same tear in a non-final segment is corruption.
        let mut w2 = WalWriter::open(Arc::clone(&store), 1).unwrap_or_else(|_| unreachable!());
        w2.append(&recs[1]);
        w2.append_torn(&recs[1], 10);
        w2.roll();
        w2.append(&recs[3]);
        assert!(read_shard_wal(&store, 1).is_err());
    }

    #[test]
    fn writer_resumes_at_existing_tail() {
        let store = MemStore::shared();
        let recs = sample_records();
        {
            let mut w = WalWriter::open(Arc::clone(&store), 0).unwrap();
            w.append(&recs[1]);
            w.append(&recs[3]);
        }
        let w = WalWriter::open(Arc::clone(&store), 0).unwrap();
        assert_eq!(w.current_seg(), 0);
        assert_eq!(w.seg_batches(), 1);
    }

    #[test]
    fn roll_and_compact_drop_old_segments() {
        let store = MemStore::shared();
        let mut w = WalWriter::open(Arc::clone(&store), 0).unwrap();
        let recs = sample_records();
        w.append(&recs[1]);
        w.roll();
        w.append(&recs[3]);
        assert_eq!(store.list("s000/wal-").len(), 2);
        w.compact();
        let names = store.list("s000/wal-");
        assert_eq!(names, vec![seg_name(0, 1)]);
        let wal = read_shard_wal(&store, 0).unwrap();
        assert_eq!(wal.records().count(), 1);
    }

    #[test]
    fn snapshot_round_trips_and_supersedes() {
        let store = MemStore::shared();
        let w = WalWriter::open(Arc::clone(&store), 2).unwrap();
        w.put_snapshot(4, b"earlier");
        w.put_snapshot(9, b"payload bytes");
        let (seq, payload) = latest_snapshot(&store, 2).unwrap();
        assert_eq!(seq, 9);
        assert_eq!(payload, b"payload bytes");
        assert_eq!(store.list("s002/snap-").len(), 1, "older snapshot deleted");

        // Corrupt the snapshot: it must be rejected, not misread.
        let name = snap_name(2, 9);
        let mut bytes = store.get(&name).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        store.put(&name, &bytes);
        assert!(latest_snapshot(&store, 2).is_none());
    }

    #[test]
    fn decision_log_round_trips_with_presumed_abort_on_tear() {
        let store = MemStore::shared();
        append_decision(&store, 7, true);
        append_decision(&store, 8, false);
        // Coordinator dies mid-append of a third decision.
        let torn = WalRecord::Decision { req: 9, commit: true }.encode();
        store.append(DECISIONS, &torn[..torn.len() - 3]);
        let d = read_decisions(&store);
        assert_eq!(d.get(&7), Some(&true));
        assert_eq!(d.get(&8), Some(&false));
        assert_eq!(d.get(&9), None, "unlogged decision is an abort by presumption");
    }

    #[test]
    fn memstore_fingerprint_tracks_content() {
        let a = MemStore::default();
        let b = MemStore::default();
        a.put("x", b"one");
        b.put("x", b"one");
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.append("x", b"!");
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(b.total_bytes(), 4);
    }

    #[test]
    fn dirstore_round_trips_on_disk() {
        let root = std::env::temp_dir()
            .join(format!("tm-serve-wal-test-{}", std::process::id()))
            .join("store");
        let _ = std::fs::remove_dir_all(&root);
        let store: StoreHandle = Arc::new(DirStore::open(&root).unwrap());
        let mut w = WalWriter::open(Arc::clone(&store), 0).unwrap();
        let recs = sample_records();
        w.append(&recs[1]);
        w.append(&recs[3]);
        w.put_snapshot(1, b"snap");
        let wal = read_shard_wal(&store, 0).unwrap();
        assert_eq!(wal.records().count(), 2);
        assert!(!wal.torn);
        assert_eq!(latest_snapshot(&store, 0).unwrap(), (1, b"snap".to_vec()));
        assert_eq!(store.list("s000/").len(), 2);
        std::fs::remove_dir_all(root.parent().unwrap()).unwrap();
    }

    #[test]
    fn identical_streams_produce_identical_bytes() {
        let write = || {
            let store = Arc::new(MemStore::default());
            let handle: StoreHandle = Arc::clone(&store) as StoreHandle;
            let mut w = WalWriter::open(handle, 0).unwrap();
            for rec in sample_records() {
                w.append(&rec);
            }
            w.put_snapshot(1, b"snap");
            store.fingerprint()
        };
        assert_eq!(write(), write());
    }
}
