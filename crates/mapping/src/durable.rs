//! The durable substrate for incremental exchange: an injectable storage
//! layer ([`Vfs`]) and a write-ahead delta log ([`Wal`]) of CRC32-framed
//! records, so a crashed process can recover its exchange state from the
//! last checkpoint plus the suffix of committed [`crate::delta::SourceDelta`]
//! batches.
//!
//! ## Frame format
//!
//! Every segment file starts with the 8-byte magic `DTRWAL1\n`, followed by
//! zero or more frames:
//!
//! ```text
//! +------+-------------+-------------+-----------------+
//! | kind | len u32 LE  | crc u32 LE  | payload (len B) |
//! +------+-------------+-------------+-----------------+
//! ```
//!
//! `kind` is 1 (delta batch, JSON via [`crate::delta::SourceDelta::to_json`])
//! or 2 (checkpoint, an opaque payload owned by the caller — `dtr-core`
//! stores annotated-XML instances there). `crc` is the CRC-32 (IEEE) of the
//! kind byte followed by the payload, so a bit flip anywhere in a frame is
//! detected. A scan stops cleanly at the first frame that is truncated or
//! fails its checksum — torn tails are *expected* after a crash and are
//! truncated away, never panicked on.
//!
//! ## Segments and rotation
//!
//! Each segment begins with one checkpoint frame capturing the full state
//! as of rotation; subsequent delta frames are the redo suffix. Recovery
//! picks the highest-numbered segment whose leading checkpoint is intact
//! and replays its deltas; a segment whose checkpoint is torn (a crash
//! mid-rotation) is discarded in favor of its predecessor.
//!
//! Storage faults (torn writes at byte granularity, short reads, bit
//! flips, fsync failures, ENOSPC) are injected deterministically through
//! [`FaultVfs`], mirroring the process-fault `FaultPlan` design of the
//! dtr-check harness.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::sync::{Arc, Mutex};

/// Magic bytes opening every WAL segment file.
pub const WAL_MAGIC: &[u8; 8] = b"DTRWAL1\n";

/// Per-frame header size: kind (1) + len (4) + crc (4).
pub const FRAME_HEADER: usize = 9;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), slicing-by-8, no external dependency.
// ---------------------------------------------------------------------------

/// The eight slicing tables: `t[0]` is the classic bytewise table, and
/// `t[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so eight
/// input bytes fold into the register with eight independent lookups.
const fn crc32_build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_build_tables();

/// Folds `bytes` into the (pre-inverted) CRC register `c`.
fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE) checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// CRC-32 of `head` followed by `tail`, without joining them.
fn crc32_two(head: &[u8], tail: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, head), tail)
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Structured WAL failure: every file error carries the path and the
/// operation that failed — I/O problems are data, not panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// An I/O operation failed.
    Io {
        /// Path (relative to the [`Vfs`] root) the operation targeted.
        path: String,
        /// Operation name (`read`, `append`, `sync`, `truncate`, ...).
        op: &'static str,
        /// The underlying error message.
        msg: String,
    },
    /// The log contains no usable checkpoint (all segments torn/corrupt).
    Corrupt(String),
    /// A prior failed commit could not be repaired; the log refuses
    /// further appends (readers are unaffected — reopen to recover).
    Poisoned(String),
}

impl WalError {
    fn io(path: &str, op: &'static str, e: &io::Error) -> WalError {
        WalError::Io {
            path: path.to_string(),
            op,
            msg: e.to_string(),
        }
    }

    /// `true` for transient I/O failures worth retrying (fsync hiccups),
    /// `false` for corruption/poisoning.
    pub fn is_transient(&self) -> bool {
        matches!(self, WalError::Io { .. })
    }
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { path, op, msg } => write!(f, "wal io error: {op} {path}: {msg}"),
            WalError::Corrupt(m) => write!(f, "wal corrupt: {m}"),
            WalError::Poisoned(m) => write!(f, "wal poisoned: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

// ---------------------------------------------------------------------------
// Vfs: the injectable storage layer
// ---------------------------------------------------------------------------

/// A minimal append-oriented filesystem abstraction. Paths are
/// `/`-separated and relative to the backend's root. All methods are
/// whole-file or append-only — exactly the operations a WAL needs, which
/// keeps fault injection tractable.
pub trait Vfs: Send + Sync {
    /// Reads the whole file.
    fn read(&self, path: &str) -> io::Result<Vec<u8>>;
    /// Appends `data`, creating the file if missing.
    fn append(&self, path: &str, data: &[u8]) -> io::Result<()>;
    /// Durably flushes the file (the explicit fsync point).
    fn sync(&self, path: &str) -> io::Result<()>;
    /// Truncates the file to `len` bytes.
    fn truncate(&self, path: &str, len: u64) -> io::Result<()>;
    /// Removes the file.
    fn remove(&self, path: &str) -> io::Result<()>;
    /// File names (not paths) directly inside `dir`, sorted.
    fn list(&self, dir: &str) -> io::Result<Vec<String>>;
    /// Creates `dir` and its parents.
    fn create_dir_all(&self, dir: &str) -> io::Result<()>;
    /// Current length of the file, 0 if missing.
    fn len(&self, path: &str) -> io::Result<u64>;
}

/// The real-file backend: paths resolve under `root` via `std::fs`.
pub struct StdVfs {
    root: std::path::PathBuf,
}

impl StdVfs {
    /// A backend rooted at `root` (created lazily by `create_dir_all`).
    pub fn new(root: impl Into<std::path::PathBuf>) -> Self {
        StdVfs { root: root.into() }
    }

    fn resolve(&self, path: &str) -> std::path::PathBuf {
        self.root.join(path)
    }
}

impl Vfs for StdVfs {
    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.resolve(path))
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.resolve(path))?;
        f.write_all(data)
    }

    fn sync(&self, path: &str) -> io::Result<()> {
        // Reopening for sync is fine on the platforms we target: fsync
        // flushes the file, not the descriptor's write history.
        std::fs::OpenOptions::new()
            .read(true)
            .open(self.resolve(path))?
            .sync_all()
    }

    fn truncate(&self, path: &str, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.resolve(path))?;
        f.set_len(len)
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        std::fs::remove_file(self.resolve(path))
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(self.resolve(dir))? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn create_dir_all(&self, dir: &str) -> io::Result<()> {
        std::fs::create_dir_all(self.resolve(dir))
    }

    fn len(&self, path: &str) -> io::Result<u64> {
        match std::fs::metadata(self.resolve(path)) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }
}

/// An in-memory backend for hermetic tests and the dtr-check storage-fault
/// soak: byte-exact WAL semantics with no disk in the loop.
#[derive(Default)]
pub struct MemVfs {
    files: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemVfs {
    /// An empty in-memory filesystem.
    pub fn new() -> Self {
        MemVfs::default()
    }

    /// A deep copy of the current file map — the "disk image" a crash
    /// simulation reopens from.
    pub fn clone_files(&self) -> MemVfs {
        MemVfs {
            files: Mutex::new(self.files.lock().unwrap_or_else(|p| p.into_inner()).clone()),
        }
    }
}

fn not_found(path: &str) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no such file: {path}"))
}

impl Vfs for MemVfs {
    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        self.files
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<()> {
        self.files
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(path.to_string())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, _path: &str) -> io::Result<()> {
        Ok(())
    }

    fn truncate(&self, path: &str, len: u64) -> io::Result<()> {
        let mut files = self.files.lock().unwrap_or_else(|p| p.into_inner());
        let f = files.get_mut(path).ok_or_else(|| not_found(path))?;
        f.truncate(len as usize);
        Ok(())
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.files
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        let prefix = if dir.is_empty() || dir == "." {
            String::new()
        } else {
            format!("{dir}/")
        };
        let files = self.files.lock().unwrap_or_else(|p| p.into_inner());
        Ok(files
            .keys()
            .filter_map(|k| k.strip_prefix(&prefix))
            .filter(|rest| !rest.contains('/'))
            .map(str::to_string)
            .collect())
    }

    fn create_dir_all(&self, _dir: &str) -> io::Result<()> {
        Ok(())
    }

    fn len(&self, path: &str) -> io::Result<u64> {
        Ok(self
            .files
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(path)
            .map_or(0, |f| f.len() as u64))
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// One storage fault, targeting a specific operation class. `at` counts
/// occurrences of that class (0-based) on the wrapping [`FaultVfs`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageFault {
    /// The `at`-th append writes only the first `keep` bytes (byte
    /// granularity) then fails — a torn write.
    TornWrite {
        /// Append index the fault fires on.
        at: u64,
        /// Bytes of the frame that do land on disk.
        keep: usize,
    },
    /// The `at`-th read returns the file minus its last `drop` bytes.
    ShortRead {
        /// Read index the fault fires on.
        at: u64,
        /// Bytes chopped off the end of the returned data.
        drop: usize,
    },
    /// The `at`-th read has one bit flipped (bit index modulo file size).
    BitFlip {
        /// Read index the fault fires on.
        at: u64,
        /// Bit position to flip, taken modulo the file's bit length.
        bit: u64,
    },
    /// `count` consecutive fsyncs fail starting at the `at`-th —
    /// transient when `count` is small, a dead disk when saturating.
    FsyncFail {
        /// Sync index the first failure fires on.
        at: u64,
        /// Number of consecutive failures.
        count: u64,
    },
    /// The `at`-th append fails with ENOSPC, writing nothing.
    NoSpace {
        /// Append index the fault fires on.
        at: u64,
    },
}

impl StorageFault {
    /// Stable site name (mirrors `FaultSite::name` in dtr-check).
    pub fn name(&self) -> &'static str {
        match self {
            StorageFault::TornWrite { .. } => "torn_write",
            StorageFault::ShortRead { .. } => "short_read",
            StorageFault::BitFlip { .. } => "bit_flip",
            StorageFault::FsyncFail { .. } => "fsync_fail",
            StorageFault::NoSpace { .. } => "enospc",
        }
    }
}

#[derive(Default)]
struct FaultState {
    appends: u64,
    reads: u64,
    syncs: u64,
    plan: Vec<StorageFault>,
    fired: Vec<String>,
}

/// A [`Vfs`] decorator that injects scheduled [`StorageFault`]s
/// deterministically, by per-operation-class counters. Everything not
/// scheduled passes through to the inner backend.
pub struct FaultVfs<V: Vfs> {
    inner: V,
    state: Mutex<FaultState>,
}

impl<V: Vfs> FaultVfs<V> {
    /// Wraps `inner` with an empty fault schedule.
    pub fn new(inner: V) -> Self {
        FaultVfs {
            inner,
            state: Mutex::new(FaultState::default()),
        }
    }

    /// Schedules a fault.
    pub fn schedule(&self, fault: StorageFault) {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .plan
            .push(fault);
    }

    /// Names of the faults that have fired, in firing order.
    pub fn fired(&self) -> Vec<String> {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .fired
            .clone()
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &V {
        &self.inner
    }

    fn take_append_fault(&self, path: &str) -> Option<(StorageFault, io::Error)> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let n = st.appends;
        st.appends += 1;
        let idx = st.plan.iter().position(|f| {
            matches!(f, StorageFault::TornWrite { at, .. } | StorageFault::NoSpace { at } if *at == n)
        })?;
        let fault = st.plan.remove(idx);
        st.fired.push(format!("{}@append:{n}:{path}", fault.name()));
        let err = match &fault {
            StorageFault::NoSpace { .. } => io::Error::new(
                io::ErrorKind::StorageFull,
                format!("injected ENOSPC appending {path}"),
            ),
            _ => io::Error::new(
                io::ErrorKind::WriteZero,
                format!("injected torn write appending {path}"),
            ),
        };
        Some((fault, err))
    }
}

impl<V: Vfs> Vfs for FaultVfs<V> {
    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        let fault = {
            let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
            let n = st.reads;
            st.reads += 1;
            let idx = st.plan.iter().position(|f| {
                matches!(f, StorageFault::ShortRead { at, .. } | StorageFault::BitFlip { at, .. } if *at == n)
            });
            idx.map(|i| {
                let f = st.plan.remove(i);
                st.fired.push(format!("{}@read:{n}:{path}", f.name()));
                f
            })
        };
        let mut data = self.inner.read(path)?;
        match fault {
            Some(StorageFault::ShortRead { drop, .. }) => {
                let keep = data.len().saturating_sub(drop);
                data.truncate(keep);
            }
            Some(StorageFault::BitFlip { bit, .. }) if !data.is_empty() => {
                let pos = (bit % (data.len() as u64 * 8)) as usize;
                data[pos / 8] ^= 1 << (pos % 8);
            }
            _ => {}
        }
        Ok(data)
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<()> {
        match self.take_append_fault(path) {
            Some((StorageFault::TornWrite { keep, .. }, err)) => {
                let keep = keep.min(data.len());
                if keep > 0 {
                    self.inner.append(path, &data[..keep])?;
                }
                Err(err)
            }
            Some((_, err)) => Err(err),
            None => self.inner.append(path, data),
        }
    }

    fn sync(&self, path: &str) -> io::Result<()> {
        let fire = {
            let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
            let n = st.syncs;
            st.syncs += 1;
            let hit = st
                .plan
                .iter()
                .position(|f| matches!(f, StorageFault::FsyncFail { at, count } if *at <= n && n < at.saturating_add(*count)));
            if let Some(i) = hit {
                let done = matches!(&st.plan[i], StorageFault::FsyncFail { at, count } if n + 1 >= at.saturating_add(*count));
                if done {
                    st.plan.remove(i);
                }
                st.fired.push(format!("fsync_fail@sync:{n}:{path}"));
                true
            } else {
                false
            }
        };
        if fire {
            return Err(io::Error::other(format!(
                "injected fsync failure on {path}"
            )));
        }
        self.inner.sync(path)
    }

    fn truncate(&self, path: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &str) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn len(&self, path: &str) -> io::Result<u64> {
        self.inner.len(path)
    }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Record type of a WAL frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// A [`crate::delta::SourceDelta`] batch (JSON payload).
    Delta,
    /// A full-state checkpoint (opaque payload, owned by the caller).
    Checkpoint,
}

impl FrameKind {
    fn code(self) -> u8 {
        match self {
            FrameKind::Delta => 1,
            FrameKind::Checkpoint => 2,
        }
    }

    fn from_code(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Delta),
            2 => Some(FrameKind::Checkpoint),
            _ => None,
        }
    }
}

/// One decoded WAL frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Record type.
    pub kind: FrameKind,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// Encodes one frame: kind byte, LE length, LE CRC-32 of kind+payload,
/// payload.
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.push(kind.code());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32_two(&[kind.code()], payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// How a segment scan ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScanEnd {
    /// Every byte parsed as valid frames.
    Clean,
    /// A torn or corrupt frame begins at `offset`; bytes from there on are
    /// unusable (and should be truncated away).
    Torn {
        /// Byte offset of the first unusable frame.
        offset: u64,
        /// Human-readable reason (truncated header, bad CRC, ...).
        reason: String,
    },
}

/// Result of scanning one segment's bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentScan {
    /// Frames decoded before the scan stopped.
    pub frames: Vec<Frame>,
    /// Why the scan stopped.
    pub end: ScanEnd,
    /// Length of the valid prefix (magic + intact frames).
    pub valid_len: u64,
}

/// Scans a segment image, stopping cleanly at the first torn or corrupt
/// frame. Never panics: arbitrary bytes produce `ScanEnd::Torn`, not UB.
pub fn scan_segment(bytes: &[u8]) -> SegmentScan {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return SegmentScan {
            frames: Vec::new(),
            end: ScanEnd::Torn {
                offset: 0,
                reason: "bad segment magic".to_string(),
            },
            valid_len: 0,
        };
    }
    let mut frames = Vec::new();
    let mut off = WAL_MAGIC.len();
    loop {
        if off == bytes.len() {
            return SegmentScan {
                frames,
                end: ScanEnd::Clean,
                valid_len: off as u64,
            };
        }
        let torn = |reason: String, frames: Vec<Frame>| SegmentScan {
            frames,
            end: ScanEnd::Torn {
                offset: off as u64,
                reason,
            },
            valid_len: off as u64,
        };
        if bytes.len() - off < FRAME_HEADER {
            return torn("truncated frame header".to_string(), frames);
        }
        let kind_byte = bytes[off];
        let len = u32::from_le_bytes(bytes[off + 1..off + 5].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[off + 5..off + 9].try_into().unwrap());
        let Some(kind) = FrameKind::from_code(kind_byte) else {
            return torn(format!("unknown frame kind {kind_byte}"), frames);
        };
        if bytes.len() - off - FRAME_HEADER < len {
            return torn("truncated frame payload".to_string(), frames);
        }
        let payload = &bytes[off + FRAME_HEADER..off + FRAME_HEADER + len];
        if crc32_two(&[kind_byte], payload) != crc {
            return torn("frame checksum mismatch".to_string(), frames);
        }
        frames.push(Frame {
            kind,
            payload: payload.to_vec(),
        });
        off += FRAME_HEADER + len;
    }
}

// ---------------------------------------------------------------------------
// The write-ahead log
// ---------------------------------------------------------------------------

/// What [`Wal::recover`] reconstructed from the log directory.
#[derive(Clone, Debug, Default)]
pub struct Recovered {
    /// Payload of the latest intact checkpoint.
    pub checkpoint: Vec<u8>,
    /// Delta payloads committed after that checkpoint, in order.
    pub deltas: Vec<Vec<u8>>,
    /// Segment number the checkpoint was read from.
    pub segment: u32,
    /// Non-fatal recovery observations (torn tails truncated, orphaned
    /// segments discarded, ...).
    pub warnings: Vec<String>,
    /// Bytes of torn tail truncated from the recovered segment.
    pub truncated_bytes: u64,
}

/// An open write-ahead log: one active segment accepting delta frames,
/// rotation starting a fresh checkpoint-led segment.
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    dir: String,
    segment: u32,
    good_len: u64,
    poisoned: Option<String>,
}

fn segment_name(n: u32) -> String {
    format!("wal-{n:06}.log")
}

fn segment_number(name: &str) -> Option<u32> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

impl Wal {
    /// Creates a fresh log in `dir` whose first segment opens with
    /// `checkpoint`. Fails if the directory already holds segments.
    pub fn create(vfs: Arc<dyn Vfs>, dir: &str, checkpoint: &[u8]) -> Result<Wal, WalError> {
        vfs.create_dir_all(dir)
            .map_err(|e| WalError::io(dir, "create_dir", &e))?;
        if !Self::segment_numbers(vfs.as_ref(), dir)?.is_empty() {
            return Err(WalError::Corrupt(format!(
                "log directory {dir} already contains segments"
            )));
        }
        let mut wal = Wal {
            vfs,
            dir: dir.to_string(),
            segment: 0,
            good_len: 0,
            poisoned: None,
        };
        wal.start_segment(1, checkpoint)?;
        Ok(wal)
    }

    /// Sorted segment numbers present in `dir` (empty if the directory is
    /// missing).
    pub fn segment_numbers(vfs: &dyn Vfs, dir: &str) -> Result<Vec<u32>, WalError> {
        let names = match vfs.list(dir) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(WalError::io(dir, "list", &e)),
        };
        let mut nums: Vec<u32> = names.iter().filter_map(|n| segment_number(n)).collect();
        nums.sort_unstable();
        Ok(nums)
    }

    fn path_of(&self, segment: u32) -> String {
        format!("{}/{}", self.dir, segment_name(segment))
    }

    /// Path of the active segment file (relative to the Vfs root).
    pub fn current_segment_path(&self) -> String {
        self.path_of(self.segment)
    }

    /// Active segment number.
    pub fn segment(&self) -> u32 {
        self.segment
    }

    /// Bytes of intact committed data in the active segment.
    pub fn committed_len(&self) -> u64 {
        self.good_len
    }

    fn start_segment(&mut self, n: u32, checkpoint: &[u8]) -> Result<(), WalError> {
        let path = self.path_of(n);
        let mut image = Vec::with_capacity(WAL_MAGIC.len() + FRAME_HEADER + checkpoint.len());
        image.extend_from_slice(WAL_MAGIC);
        image.extend_from_slice(&encode_frame(FrameKind::Checkpoint, checkpoint));
        self.vfs
            .append(&path, &image)
            .map_err(|e| WalError::io(&path, "append", &e))?;
        self.vfs
            .sync(&path)
            .map_err(|e| WalError::io(&path, "sync", &e))?;
        self.segment = n;
        self.good_len = image.len() as u64;
        Ok(())
    }

    /// Appends one delta frame and fsyncs — the commit point. On failure
    /// the segment is repaired (truncated back to the last commit) so a
    /// retry starts clean; if repair itself fails the log is poisoned.
    pub fn append_delta(&mut self, payload: &[u8]) -> Result<(), WalError> {
        if let Some(reason) = &self.poisoned {
            return Err(WalError::Poisoned(reason.clone()));
        }
        let path = self.current_segment_path();
        let frame = encode_frame(FrameKind::Delta, payload);
        let commit = self
            .vfs
            .append(&path, &frame)
            .map_err(|e| WalError::io(&path, "append", &e))
            .and_then(|()| {
                self.vfs
                    .sync(&path)
                    .map_err(|e| WalError::io(&path, "sync", &e))
            });
        match commit {
            Ok(()) => {
                self.good_len += frame.len() as u64;
                Ok(())
            }
            Err(e) => {
                if let Err(repair) = self.vfs.truncate(&path, self.good_len) {
                    self.poisoned = Some(format!(
                        "commit failed ({e}) and repair truncate failed ({repair})"
                    ));
                }
                Err(e)
            }
        }
    }

    /// Rolls the committed tail back to `len` (a `committed_len` observed
    /// earlier), discarding frames appended after that point. Callers use
    /// this when a WAL-committed delta turns out not to apply to the
    /// engine, so replay never sees a frame the live state rejected. A
    /// failed rollback poisons the log: the durable tail no longer
    /// matches the in-memory state.
    pub fn rollback_to(&mut self, len: u64) -> Result<(), WalError> {
        if let Some(reason) = &self.poisoned {
            return Err(WalError::Poisoned(reason.clone()));
        }
        if len > self.good_len {
            return Err(WalError::Corrupt(format!(
                "rollback target {len} beyond committed length {}",
                self.good_len
            )));
        }
        if len == self.good_len {
            return Ok(());
        }
        let path = self.current_segment_path();
        let undo = self
            .vfs
            .truncate(&path, len)
            .map_err(|e| WalError::io(&path, "truncate", &e))
            .and_then(|()| {
                self.vfs
                    .sync(&path)
                    .map_err(|e| WalError::io(&path, "sync", &e))
            });
        match undo {
            Ok(()) => {
                self.good_len = len;
                Ok(())
            }
            Err(e) => {
                self.poisoned = Some(format!("rollback to {len} failed ({e})"));
                Err(e)
            }
        }
    }

    /// Rotates: starts segment N+1 with `checkpoint` as its first frame,
    /// then prunes all older segments. A crash anywhere in between leaves
    /// a recoverable directory (the torn new segment is discarded, or the
    /// stale old segments are simply ignored).
    pub fn rotate(&mut self, checkpoint: &[u8]) -> Result<(), WalError> {
        if let Some(reason) = &self.poisoned {
            return Err(WalError::Poisoned(reason.clone()));
        }
        let old = self.segment;
        let next = old + 1;
        match self.start_segment(next, checkpoint) {
            Ok(()) => {}
            Err(e) => {
                // A torn new segment must not shadow the good one: drop it.
                let _ = self.vfs.remove(&self.path_of(next));
                self.segment = old;
                return Err(e);
            }
        }
        for n in Self::segment_numbers(self.vfs.as_ref(), &self.dir)? {
            if n < next {
                let path = self.path_of(n);
                self.vfs
                    .remove(&path)
                    .map_err(|e| WalError::io(&path, "remove", &e))?;
            }
        }
        Ok(())
    }

    /// Opens an existing log: finds the highest-numbered segment with an
    /// intact leading checkpoint, truncates any torn tail, discards
    /// segments whose checkpoint never became durable, and returns the
    /// checkpoint payload plus the committed delta suffix to replay.
    pub fn recover(vfs: Arc<dyn Vfs>, dir: &str) -> Result<(Wal, Recovered), WalError> {
        let mut numbers = Self::segment_numbers(vfs.as_ref(), dir)?;
        if numbers.is_empty() {
            return Err(WalError::Corrupt(format!("no WAL segments in {dir}")));
        }
        numbers.reverse();
        let mut warnings: Vec<String> = Vec::new();
        let mut discarded: Vec<u32> = Vec::new();
        for n in numbers {
            let path = format!("{dir}/{}", segment_name(n));
            let bytes = match vfs.read(&path) {
                Ok(b) => b,
                Err(e) => {
                    warnings.push(format!("segment {path}: unreadable ({e}); skipped"));
                    discarded.push(n);
                    continue;
                }
            };
            let scan = scan_segment(&bytes);
            let leads_with_checkpoint =
                matches!(scan.frames.first(), Some(f) if f.kind == FrameKind::Checkpoint);
            if !leads_with_checkpoint {
                warnings.push(format!(
                    "segment {path}: no intact leading checkpoint; discarded"
                ));
                discarded.push(n);
                continue;
            }
            let mut truncated_bytes = 0;
            if let ScanEnd::Torn { offset, reason } = &scan.end {
                truncated_bytes = bytes.len() as u64 - scan.valid_len;
                warnings.push(format!(
                    "segment {path}: torn tail at byte {offset} ({reason}); truncated {truncated_bytes} bytes"
                ));
                if let Err(e) = vfs.truncate(&path, scan.valid_len) {
                    warnings.push(format!("segment {path}: tail truncate failed ({e})"));
                }
            }
            // Segments newer than the recovered one never completed their
            // rotation; remove them so the next rotation can reuse numbers.
            for d in &discarded {
                let dpath = format!("{dir}/{}", segment_name(*d));
                if let Err(e) = vfs.remove(&dpath) {
                    warnings.push(format!("segment {dpath}: discard failed ({e})"));
                }
            }
            let mut frames = scan.frames.into_iter();
            let checkpoint = frames.next().map(|f| f.payload).unwrap_or_default();
            let mut deltas = Vec::new();
            for f in frames {
                match f.kind {
                    FrameKind::Delta => deltas.push(f.payload),
                    FrameKind::Checkpoint => {
                        warnings.push(format!(
                            "segment {path}: unexpected mid-segment checkpoint; later frames ignored"
                        ));
                        break;
                    }
                }
            }
            let wal = Wal {
                vfs,
                dir: dir.to_string(),
                segment: n,
                good_len: scan.valid_len,
                poisoned: None,
            };
            return Ok((
                wal,
                Recovered {
                    checkpoint,
                    deltas,
                    segment: n,
                    warnings,
                    truncated_bytes,
                },
            ));
        }
        Err(WalError::Corrupt(format!(
            "no segment in {dir} has an intact checkpoint"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Arc<MemVfs> {
        Arc::new(MemVfs::new())
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise CRC-32 the slicing-by-8 kernel must agree with: one
    /// table lookup per byte, table built by the textbook bit loop.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// `n` bytes from a fixed-seed xorshift generator.
    fn seeded_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_slicing_matches_bytewise_reference() {
        let data = seeded_bytes(1 << 20);
        for len in 0..=64 {
            assert_eq!(crc32(&data[..len]), crc32_bytewise(&data[..len]), "{len}");
        }
        // Unaligned starts exercise every tail length after the 8-byte words.
        for start in 1..8 {
            let slice = &data[start..start + 1000];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "start {start}");
        }
        assert_eq!(crc32(&data), crc32_bytewise(&data));
        let whole = crc32_bytewise(&data[..64]);
        for split in 0..=64 {
            assert_eq!(
                crc32_two(&data[..split], &data[split..64]),
                whole,
                "{split}"
            );
        }
    }

    #[test]
    fn frame_round_trip_and_scan() {
        let mut image = WAL_MAGIC.to_vec();
        image.extend_from_slice(&encode_frame(FrameKind::Checkpoint, b"cp"));
        image.extend_from_slice(&encode_frame(FrameKind::Delta, b"{\"edits\":[]}"));
        let scan = scan_segment(&image);
        assert_eq!(scan.end, ScanEnd::Clean);
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.frames[0].kind, FrameKind::Checkpoint);
        assert_eq!(scan.frames[1].payload, b"{\"edits\":[]}");
        assert_eq!(scan.valid_len, image.len() as u64);
    }

    #[test]
    fn scan_stops_at_torn_and_corrupt_frames() {
        let mut image = WAL_MAGIC.to_vec();
        image.extend_from_slice(&encode_frame(FrameKind::Delta, b"good"));
        let good_len = image.len() as u64;
        let tail = encode_frame(FrameKind::Delta, b"half-written frame");
        image.extend_from_slice(&tail[..tail.len() / 2]);
        let scan = scan_segment(&image);
        assert_eq!(scan.frames.len(), 1);
        assert!(matches!(scan.end, ScanEnd::Torn { .. }));
        assert_eq!(scan.valid_len, good_len);

        // Bit flip inside a payload: checksum catches it.
        let mut flipped = WAL_MAGIC.to_vec();
        flipped.extend_from_slice(&encode_frame(FrameKind::Delta, b"payload"));
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        let scan = scan_segment(&flipped);
        assert!(scan.frames.is_empty());
        assert!(
            matches!(scan.end, ScanEnd::Torn { ref reason, .. } if reason.contains("checksum"))
        );

        // Garbage at the front: bad magic, zero valid bytes.
        let scan = scan_segment(b"not a wal at all");
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn wal_create_append_recover_round_trip() {
        let vfs = mem();
        let mut wal = Wal::create(vfs.clone(), "db", b"cp0").unwrap();
        wal.append_delta(b"d1").unwrap();
        wal.append_delta(b"d2").unwrap();
        drop(wal);
        let (wal, rec) = Wal::recover(vfs, "db").unwrap();
        assert_eq!(rec.checkpoint, b"cp0");
        assert_eq!(rec.deltas, vec![b"d1".to_vec(), b"d2".to_vec()]);
        assert_eq!(rec.segment, 1);
        assert!(rec.warnings.is_empty());
        assert_eq!(wal.segment(), 1);
    }

    #[test]
    fn rotation_prunes_and_recovery_prefers_latest_checkpoint() {
        let vfs = mem();
        let mut wal = Wal::create(vfs.clone(), "db", b"cp0").unwrap();
        wal.append_delta(b"d1").unwrap();
        wal.rotate(b"cp1").unwrap();
        wal.append_delta(b"d2").unwrap();
        assert_eq!(
            Wal::segment_numbers(vfs.as_ref(), "db").unwrap(),
            vec![2],
            "rotation prunes the old segment"
        );
        let (_, rec) = Wal::recover(vfs, "db").unwrap();
        assert_eq!(rec.checkpoint, b"cp1");
        assert_eq!(rec.deltas, vec![b"d2".to_vec()]);
    }

    #[test]
    fn recovery_truncates_torn_tail_and_warns() {
        let vfs = mem();
        let mut wal = Wal::create(vfs.clone(), "db", b"cp0").unwrap();
        wal.append_delta(b"d1").unwrap();
        let path = wal.current_segment_path();
        drop(wal);
        // Simulate a crash mid-append: half a frame lands on disk.
        let frame = encode_frame(FrameKind::Delta, b"torn");
        vfs.append(&path, &frame[..5]).unwrap();
        let before = vfs.len(&path).unwrap();
        let (_, rec) = Wal::recover(vfs.clone(), "db").unwrap();
        assert_eq!(rec.deltas, vec![b"d1".to_vec()]);
        assert_eq!(rec.truncated_bytes, 5);
        assert!(!rec.warnings.is_empty());
        assert_eq!(vfs.len(&path).unwrap(), before - 5, "tail truncated");
        // A second recovery is clean: the repair is durable.
        let (_, rec2) = Wal::recover(vfs, "db").unwrap();
        assert!(rec2.warnings.is_empty());
    }

    #[test]
    fn recovery_discards_segment_with_torn_checkpoint() {
        let vfs = mem();
        let mut wal = Wal::create(vfs.clone(), "db", b"cp0").unwrap();
        wal.append_delta(b"d1").unwrap();
        drop(wal);
        // Simulate a crash mid-rotation: segment 2 exists but its
        // checkpoint frame is torn.
        let mut image = WAL_MAGIC.to_vec();
        let cp = encode_frame(FrameKind::Checkpoint, b"cp1-giant-state");
        image.extend_from_slice(&cp[..cp.len() - 3]);
        vfs.append("db/wal-000002.log", &image).unwrap();
        let (wal, rec) = Wal::recover(vfs.clone(), "db").unwrap();
        assert_eq!(rec.checkpoint, b"cp0");
        assert_eq!(rec.deltas, vec![b"d1".to_vec()]);
        assert_eq!(rec.segment, 1);
        assert!(rec.warnings.iter().any(|w| w.contains("discarded")));
        assert_eq!(
            Wal::segment_numbers(vfs.as_ref(), "db").unwrap(),
            vec![1],
            "torn segment removed"
        );
        drop(wal);
    }

    #[test]
    fn torn_append_repairs_and_next_commit_succeeds() {
        let vfs = Arc::new(FaultVfs::new(MemVfs::new()));
        // Appends: 0 = create's checkpoint, 1 = first delta (torn).
        vfs.schedule(StorageFault::TornWrite { at: 1, keep: 3 });
        let mut wal = Wal::create(vfs.clone(), "db", b"cp0").unwrap();
        let err = wal.append_delta(b"d1").unwrap_err();
        assert!(err.is_transient());
        // The torn bytes were repaired away; a retry commits cleanly.
        wal.append_delta(b"d1").unwrap();
        drop(wal);
        let (_, rec) = Wal::recover(vfs.clone(), "db").unwrap();
        assert_eq!(rec.deltas, vec![b"d1".to_vec()]);
        assert!(rec.warnings.is_empty());
        assert_eq!(vfs.fired(), vec!["torn_write@append:1:db/wal-000001.log"]);
    }

    #[test]
    fn enospc_and_fsync_faults_surface_as_transient_errors() {
        let vfs = Arc::new(FaultVfs::new(MemVfs::new()));
        vfs.schedule(StorageFault::NoSpace { at: 1 });
        vfs.schedule(StorageFault::FsyncFail { at: 1, count: 1 });
        let mut wal = Wal::create(vfs.clone(), "db", b"cp0").unwrap();
        // Append 1: ENOSPC, nothing written.
        let err = wal.append_delta(b"d1").unwrap_err();
        assert!(matches!(&err, WalError::Io { op, .. } if *op == "append"));
        // Retry: the commit's fsync (sync 1; sync 0 was create) fails
        // once transiently, then the next retry goes through.
        let mut attempts = 0;
        loop {
            match wal.append_delta(b"d1") {
                Ok(()) => break,
                Err(e) => {
                    assert!(e.is_transient());
                    attempts += 1;
                    assert!(attempts < 5, "fault should be transient");
                }
            }
        }
        drop(wal);
        let (_, rec) = Wal::recover(vfs, "db").unwrap();
        assert_eq!(rec.deltas, vec![b"d1".to_vec()]);
    }

    #[test]
    fn bit_flip_on_read_is_detected_at_recovery() {
        let vfs = Arc::new(MemVfs::new());
        let mut wal = Wal::create(vfs.clone(), "db", b"cp0").unwrap();
        wal.append_delta(b"d1").unwrap();
        wal.append_delta(b"d2").unwrap();
        drop(wal);
        let faulty = Arc::new(FaultVfs::new(vfs.clone_files()));
        // Flip a bit deep in the file: recovery keeps the intact prefix.
        faulty.schedule(StorageFault::BitFlip {
            at: 0,
            bit: 8 * 40, // inside the first delta frame region
        });
        let (_, rec) = Wal::recover(faulty, "db").unwrap();
        assert!(rec.deltas.len() < 2 || !rec.warnings.is_empty());
    }

    #[test]
    fn std_vfs_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("dtr-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let vfs = Arc::new(StdVfs::new(&dir));
        let mut wal = Wal::create(vfs.clone(), "db", b"cp0").unwrap();
        wal.append_delta(b"d1").unwrap();
        drop(wal);
        let (_, rec) = Wal::recover(vfs, "db").unwrap();
        assert_eq!(rec.checkpoint, b"cp0");
        assert_eq!(rec.deltas, vec![b"d1".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
