//! Durable, crash-safe catalog persistence: a snapshot plus an append-only
//! log of catalog mutations, replayed on startup.
//!
//! The in-memory [`ViewCatalog`](crate::catalog::ViewCatalog) amortizes
//! view compilation across many checks — but only for the lifetime of the
//! process. This module makes the catalog survive restarts *warm*: every
//! mutating operation (`CATALOG ADD`/`DROP` and guarded DDL) appends a
//! CRC-framed record **before** it is acknowledged, and on startup
//! [`ViewCatalog::replay`](crate::catalog::ViewCatalog::replay) rebuilds
//! the catalog from the records. An `ADD` record carries the canonical
//! view text, its dependencies and a small artifact ([`encode_artifact`]):
//! the pipeline config plus the view's routing signature. Replay registers
//! and indexes each view from the artifact alone, so the relevance index
//! and dependency postings come back without compiling anything; a
//! replayed view compiles its recorded text, against the schema of its
//! position in the record order, at its first check.
//!
//! Two files live in the data directory:
//!
//! * `catalog.snap` — a compacted snapshot, written atomically
//!   (write-temp + fsync + rename), never appended to;
//! * `catalog.log` — the append-only tail; each append is fsynced before
//!   the operation is acknowledged, and a torn final frame (crash
//!   mid-append) is detected by CRC and truncated on open.
//!
//! Both carry a **generation** number. Compaction folds snapshot + log into
//! a new snapshot of generation `g+1`, then resets the log to generation
//! `g+1`; a crash between the two renames leaves a log of generation `g`
//! next to a snapshot of `g+1`, which `open` recognizes as stale (its
//! records are already folded into the snapshot) and discards. See
//! `docs/PERSISTENCE.md` for the format tables and the crash-recovery
//! soundness argument.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::obs;

mod codec;
mod frame;

pub use codec::{
    decode_artifact_header, decode_record, encode_artifact, encode_record, ARTIFACT_VERSION,
};
pub use frame::{crc32, FileKind, FORMAT_VERSION, HEADER_LEN, MAGIC};

/// One durable catalog mutation, in the order it was acknowledged.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A view registration (`CATALOG ADD`).
    Add {
        /// Registration name.
        name: String,
        /// Canonical view text (comment-stripped, whitespace-collapsed) —
        /// the compile-cache key, and what a replayed view compiles.
        view_text: String,
        /// Relations the view reads (its dependency set, recorded by name).
        deps: Vec<String>,
        /// Whether the original registration was served from the
        /// compile-once cache (restored verbatim so `CATALOG LIST` is
        /// byte-identical after a restart).
        cached: bool,
        /// Serialized artifact ([`encode_artifact`]): pipeline config plus
        /// routing signature. May be empty; replay recompiles the view text
        /// eagerly when it fails to decode or was produced under a
        /// different pipeline config.
        artifact: Vec<u8>,
    },
    /// A view removal (`CATALOG DROP`).
    Drop {
        /// The unregistered name.
        name: String,
    },
    /// A guarded schema-affecting SQL statement, re-executed on replay.
    Ddl {
        /// The statement text as submitted.
        sql: String,
    },
}

impl LogRecord {
    /// Stable lower-case kind label (`add`/`drop`/`ddl`).
    pub fn kind(&self) -> &'static str {
        match self {
            LogRecord::Add { .. } => "add",
            LogRecord::Drop { .. } => "drop",
            LogRecord::Ddl { .. } => "ddl",
        }
    }
}

/// Why a persistence operation failed.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io {
        /// The file or directory the operation targeted.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// A file exists but cannot be understood (bad magic/version, damaged
    /// snapshot frame, undecodable record).
    Corrupt {
        /// The damaged file.
        path: PathBuf,
        /// Human-readable damage description.
        detail: String,
    },
    /// The log's generation is *ahead* of the snapshot's — the snapshot the
    /// log was written against is missing or has been replaced by an older
    /// one. Replaying would apply records against the wrong base state.
    Generation {
        /// The snapshot's generation (0 when absent).
        snapshot: u64,
        /// The log's generation.
        log: u64,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            PersistError::Corrupt { path, detail } => {
                write!(f, "{}: corrupt: {detail}", path.display())
            }
            PersistError::Generation { snapshot, log } => write!(
                f,
                "log generation {log} is ahead of snapshot generation {snapshot} \
                 (snapshot missing or rolled back)"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Counters a store accumulates over its lifetime (reported by the service
/// `STATS` command).
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Records appended (and fsynced) since open.
    pub appends: u64,
    /// Explicit fsync calls (one per append/`append_all`/`sync`).
    pub syncs: u64,
    /// Compactions performed since open.
    pub compactions: u64,
    /// Records recovered at open (snapshot + valid log prefix).
    pub recovered_records: usize,
    /// Bytes of torn log tail truncated at open.
    pub truncated_bytes: u64,
    /// Whether a stale log (crash between the two compaction renames) was
    /// discarded at open.
    pub stale_log_discarded: bool,
}

/// How [`ViewCatalog::replay`](crate::catalog::ViewCatalog::replay) rebuilt
/// the catalog from recovered records.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayStats {
    /// Total records applied.
    pub records: usize,
    /// `Add` records applied.
    pub adds: usize,
    /// `Drop` records applied.
    pub drops: usize,
    /// `Ddl` records re-executed.
    pub ddl: usize,
    /// `Add`s registered without compiling: from the artifact prelude
    /// (the view compiles at its first check) or a compile-once cache hit.
    pub rehydrated: usize,
    /// `Add`s whose artifact could not be used, compiled eagerly at replay.
    pub recompiled: usize,
}

/// What [`CatalogStore::verify`] found. All fields are observations — a
/// verify never mutates the files (in particular it does **not** truncate a
/// torn tail; only `open` does).
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// The store generation (snapshot's if present, else the log's).
    pub generation: u64,
    /// Valid records in the snapshot (0 when absent).
    pub snapshot_records: usize,
    /// Valid records in the live log (0 when absent or stale).
    pub log_records: usize,
    /// Bytes of torn log tail that `open` would truncate.
    pub torn_bytes: u64,
    /// Whether the log is a stale leftover of an interrupted compaction
    /// (generation behind the snapshot; `open` would discard it).
    pub stale_log: bool,
    /// Names of the views that survive folding every record, ascending.
    pub views: Vec<String>,
    /// Guarded DDL records that survive folding (all of them — DDL is
    /// never folded away).
    pub ddl_records: usize,
}

impl VerifyReport {
    /// `true` when nothing would be repaired or discarded on open.
    pub fn is_clean(&self) -> bool {
        self.torn_bytes == 0 && !self.stale_log
    }
}

/// Result of one [`CatalogStore::compact`] call.
#[derive(Debug, Clone, Copy)]
pub struct CompactStats {
    /// Records (snapshot + log) before folding.
    pub records_before: usize,
    /// Records in the new snapshot.
    pub records_after: usize,
    /// The new store generation.
    pub generation: u64,
}

/// The durable backing store of a catalog: `catalog.snap` + `catalog.log`
/// in one data directory.
///
/// ```
/// use ufilter_core::persist::{CatalogStore, LogRecord};
/// let dir = std::env::temp_dir().join(format!("ufilter-doc-open-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let store = CatalogStore::open(&dir).unwrap();
/// assert_eq!(store.records().len(), 0); // fresh directory: nothing to replay
/// # drop(store);
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct CatalogStore {
    dir: PathBuf,
    log: File,
    generation: u64,
    records: Vec<LogRecord>,
    stats: StoreStats,
}

impl CatalogStore {
    /// Open (creating if absent) the store in `dir` and recover its record
    /// list: the snapshot's records followed by the log's valid prefix. A
    /// torn log tail is truncated; a stale log (interrupted compaction) is
    /// discarded; a damaged snapshot or a log from the future is an error.
    ///
    /// ```
    /// use ufilter_core::persist::{CatalogStore, LogRecord};
    /// let dir = std::env::temp_dir().join(format!("ufilter-doc-reopen-{}", std::process::id()));
    /// let _ = std::fs::remove_dir_all(&dir);
    /// let mut store = CatalogStore::open(&dir).unwrap();
    /// store.append(&LogRecord::Ddl { sql: "CREATE TABLE t (id INTEGER)".into() }).unwrap();
    /// drop(store);
    /// let reopened = CatalogStore::open(&dir).unwrap(); // durable across open/close
    /// assert_eq!(reopened.records().len(), 1);
    /// # drop(reopened);
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn open(dir: impl AsRef<Path>) -> Result<CatalogStore, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)
            .map_err(|source| PersistError::Io { path: dir.clone(), source })?;
        let found = read_files(&dir)?;
        let log_path = dir.join(LOG_FILE);
        let mut stats = StoreStats::default();
        match found.log_file {
            LogFile::Missing | LogFile::Stale => {
                // A stale log is a leftover of an interrupted compaction:
                // the snapshot already folds in everything it held.
                stats.stale_log_discarded = found.log_file == LogFile::Stale;
                let header = frame::encode_header(FileKind::Log, found.generation);
                write_atomic(&dir, LOG_FILE, &header)?;
            }
            LogFile::Live { valid_len, torn_bytes } if torn_bytes > 0 => {
                stats.truncated_bytes = torn_bytes;
                let io = |source| PersistError::Io { path: log_path.clone(), source };
                let f = OpenOptions::new().write(true).open(&log_path).map_err(io)?;
                f.set_len(valid_len as u64).map_err(io)?;
                f.sync_all().map_err(io)?;
            }
            LogFile::Live { .. } => {}
        }
        let generation = found.generation;
        let records = found.records();

        let log = OpenOptions::new()
            .append(true)
            .open(&log_path)
            .map_err(|source| PersistError::Io { path: log_path, source })?;
        stats.recovered_records = records.len();
        Ok(CatalogStore { dir, log, generation, records, stats })
    }

    /// The records recovered at open, in acknowledgment order — the input
    /// to [`ViewCatalog::replay`](crate::catalog::ViewCatalog::replay).
    /// Records appended after open are *not* reflected here (they are
    /// already live in the catalog that appended them).
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// The store generation (bumped by every compaction).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Lifetime counters plus what recovery found at open.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The data directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append one record to the log and fsync it. Returns only after the
    /// record is durable — the catalog calls this *before* acknowledging
    /// the mutation, so an acknowledged `ADD` can never be lost to a crash.
    ///
    /// ```
    /// use ufilter_core::persist::{CatalogStore, LogRecord};
    /// let dir = std::env::temp_dir().join(format!("ufilter-doc-append-{}", std::process::id()));
    /// let _ = std::fs::remove_dir_all(&dir);
    /// let mut store = CatalogStore::open(&dir).unwrap();
    /// store.append(&LogRecord::Drop { name: "books".into() }).unwrap();
    /// assert_eq!(store.stats().appends, 1);
    /// # drop(store);
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn append(&mut self, record: &LogRecord) -> Result<(), PersistError> {
        self.append_all(std::slice::from_ref(record))
    }

    /// Append a batch of records with a single trailing fsync — the bulk
    /// seeding path (manifest loads, benchmarks). Durability granularity is
    /// the whole batch.
    pub fn append_all(&mut self, records: &[LogRecord]) -> Result<(), PersistError> {
        let mut buf = Vec::new();
        for record in records {
            frame::encode_frame(&mut buf, &codec::encode_record(record));
        }
        let path = self.dir.join(LOG_FILE);
        let span = obs::clock();
        let written = self.log.write_all(&buf);
        obs::persist_elapsed(obs::PersistOp::Append, span);
        let span = obs::clock();
        let synced = written.and_then(|()| self.log.sync_data());
        obs::persist_elapsed(obs::PersistOp::Fsync, span);
        synced.map_err(|source| PersistError::Io { path, source })?;
        self.stats.appends += records.len() as u64;
        self.stats.syncs += 1;
        Ok(())
    }

    /// Fsync the log without appending (the server's shutdown path calls
    /// this defensively before acknowledging `SHUTDOWN`).
    pub fn sync(&mut self) -> Result<(), PersistError> {
        let span = obs::clock();
        let synced = self.log.sync_data();
        obs::persist_elapsed(obs::PersistOp::Fsync, span);
        synced.map_err(|source| PersistError::Io { path: self.dir.join(LOG_FILE), source })?;
        self.stats.syncs += 1;
        Ok(())
    }

    /// Fold snapshot + log into a new snapshot of generation `g+1` and
    /// reset the log: surviving `Add`s keep their position, `Add`/`Drop`
    /// pairs annihilate, `Ddl` records are all kept in order (they rebuild
    /// the schema timeline the surviving views compiled against). Both
    /// replacement files are written to temporaries, fsynced, and renamed
    /// in — a crash at any point leaves a state `open` recovers exactly
    /// (see the module docs on generations).
    ///
    /// ```
    /// use ufilter_core::persist::{CatalogStore, LogRecord};
    /// let dir = std::env::temp_dir().join(format!("ufilter-doc-compact-{}", std::process::id()));
    /// let _ = std::fs::remove_dir_all(&dir);
    /// let mut store = CatalogStore::open(&dir).unwrap();
    /// let add = |n: &str| LogRecord::Add {
    ///     name: n.into(), view_text: "…".into(), deps: vec![], cached: false, artifact: vec![],
    /// };
    /// store.append_all(&[add("a"), add("b"), LogRecord::Drop { name: "a".into() }]).unwrap();
    /// let stats = store.compact().unwrap();
    /// assert_eq!((stats.records_before, stats.records_after), (3, 1)); // only "b" survives
    /// # drop(store);
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn compact(&mut self) -> Result<CompactStats, PersistError> {
        self.sync()?;
        // Re-read from disk: the files hold every record ever acknowledged,
        // including appends since open.
        let all = read_all_records(&self.dir)?;
        let folded = fold(&all);
        let generation = self.generation + 1;

        let mut snap = frame::encode_header(FileKind::Snapshot, generation);
        for record in &folded {
            frame::encode_frame(&mut snap, &codec::encode_record(record));
        }
        write_atomic(&self.dir, SNAP_FILE, &snap)?;
        write_atomic(&self.dir, LOG_FILE, &frame::encode_header(FileKind::Log, generation))?;

        let log_path = self.dir.join(LOG_FILE);
        self.log = OpenOptions::new()
            .append(true)
            .open(&log_path)
            .map_err(|source| PersistError::Io { path: log_path, source })?;
        self.generation = generation;
        self.stats.compactions += 1;
        Ok(CompactStats { records_before: all.len(), records_after: folded.len(), generation })
    }

    /// Read-only integrity check of the files in `dir` — parses headers,
    /// frames and records, reports (without repairing) torn tails and stale
    /// logs, and folds the records to the surviving view set. Errors only
    /// on damage `open` would also refuse (bad snapshot, future log).
    pub fn verify(dir: impl AsRef<Path>) -> Result<VerifyReport, PersistError> {
        let found = read_files(dir.as_ref())?;
        let mut report = VerifyReport {
            generation: found.generation,
            snapshot_records: found.snapshot.len(),
            log_records: found.log.len(),
            torn_bytes: match found.log_file {
                LogFile::Live { torn_bytes, .. } => torn_bytes,
                _ => 0,
            },
            stale_log: found.log_file == LogFile::Stale,
            views: Vec::new(),
            ddl_records: 0,
        };
        let records = found.records();
        for record in fold(&records) {
            match record {
                LogRecord::Add { name, .. } => report.views.push(name),
                LogRecord::Ddl { .. } => report.ddl_records += 1,
                LogRecord::Drop { .. } => {}
            }
        }
        report.views.sort();
        Ok(report)
    }
}

const SNAP_FILE: &str = "catalog.snap";
const LOG_FILE: &str = "catalog.log";

/// Read a file that may legitimately not exist yet.
fn read_optional(path: &Path) -> Result<Option<Vec<u8>>, PersistError> {
    match fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(source) => Err(PersistError::Io { path: path.to_path_buf(), source }),
    }
}

fn decode_payloads(path: &Path, payloads: Vec<&[u8]>) -> Result<Vec<LogRecord>, PersistError> {
    payloads
        .iter()
        .map(|p| {
            codec::decode_record(p)
                .map_err(|detail| PersistError::Corrupt { path: path.to_path_buf(), detail })
        })
        .collect()
}

/// Write `bytes` as `<dir>/<name>` atomically: temp file + fsync + rename +
/// directory fsync. Readers see either the old file or the new one, never a
/// partial write.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let io = |source| PersistError::Io { path: tmp.clone(), source };
    let mut f = File::create(&tmp).map_err(io)?;
    f.write_all(bytes).map_err(io)?;
    f.sync_all().map_err(io)?;
    drop(f);
    let dest = dir.join(name);
    fs::rename(&tmp, &dest).map_err(|source| PersistError::Io { path: dest, source })?;
    // Make the rename itself durable.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// What the store's two files hold, read and checked but not repaired:
/// the shared first step of [`CatalogStore::open`] (which then repairs the
/// log) and [`CatalogStore::verify`] (which only reports).
struct StoreFiles {
    /// The store generation: the snapshot's if present, else the log's (1
    /// for a fresh directory).
    generation: u64,
    /// The snapshot's records (empty when absent).
    snapshot: Vec<LogRecord>,
    /// The live log's valid-prefix records (empty when absent or stale).
    log: Vec<LogRecord>,
    /// The state of the log file.
    log_file: LogFile,
}

/// The state of `catalog.log`, as [`read_files`] found it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LogFile {
    /// No log file yet.
    Missing,
    /// A log whose generation is behind the snapshot's: a leftover of an
    /// interrupted compaction, whose records the snapshot already holds.
    Stale,
    /// The live log: its first `valid_len` bytes are whole frames, and
    /// `torn_bytes` bytes of a torn append follow them.
    Live {
        /// Length of the valid prefix, header included.
        valid_len: usize,
        /// Bytes after the valid prefix.
        torn_bytes: u64,
    },
}

impl StoreFiles {
    /// Snapshot records, then the live log's.
    fn records(self) -> Vec<LogRecord> {
        let mut records = self.snapshot;
        records.extend(self.log);
        records
    }
}

/// Read and check both files in `dir`. The snapshot is optional but must
/// be entirely valid when present: it was written atomically, so a bad
/// frame is corruption, not a torn tail. A log from a generation ahead of
/// the snapshot is a hard error (the snapshot it was written against is
/// missing or rolled back).
fn read_files(dir: &Path) -> Result<StoreFiles, PersistError> {
    let snap_path = dir.join(SNAP_FILE);
    let log_path = dir.join(LOG_FILE);
    let (snap_gen, snapshot) = match read_optional(&snap_path)? {
        None => (0, Vec::new()),
        Some(bytes) => {
            let generation = read_header(&snap_path, &bytes, FileKind::Snapshot)?;
            let scan = frame::scan_frames(&bytes);
            if scan.torn {
                return Err(PersistError::Corrupt {
                    path: snap_path,
                    detail: format!("invalid frame at byte {}", scan.valid_len),
                });
            }
            (generation, decode_payloads(&snap_path, scan.payloads)?)
        }
    };
    let mut found = StoreFiles {
        generation: snap_gen.max(1),
        snapshot,
        log: Vec::new(),
        log_file: LogFile::Missing,
    };
    if let Some(bytes) = read_optional(&log_path)? {
        let log_gen = read_header(&log_path, &bytes, FileKind::Log)?;
        if snap_gen != 0 && log_gen > snap_gen {
            return Err(PersistError::Generation { snapshot: snap_gen, log: log_gen });
        }
        if snap_gen != 0 && log_gen < snap_gen {
            found.log_file = LogFile::Stale;
        } else {
            if snap_gen == 0 {
                found.generation = log_gen;
            }
            let scan = frame::scan_frames(&bytes);
            found.log_file = LogFile::Live {
                valid_len: scan.valid_len,
                torn_bytes: (bytes.len() - scan.valid_len) as u64,
            };
            found.log = decode_payloads(&log_path, scan.payloads)?;
        }
    }
    Ok(found)
}

/// Decode a file header and check that it names the expected file kind;
/// returns the file's generation.
fn read_header(path: &Path, bytes: &[u8], kind: FileKind) -> Result<u64, PersistError> {
    let corrupt = |detail| PersistError::Corrupt { path: path.to_path_buf(), detail };
    let (found, generation) = frame::decode_header(bytes).map_err(corrupt)?;
    if found != kind {
        let name = match kind {
            FileKind::Log => "log",
            FileKind::Snapshot => "snapshot",
        };
        return Err(corrupt(format!("file kind is not {name}")));
    }
    Ok(generation)
}

/// Everything currently on disk: snapshot records then log records (valid
/// prefix only).
fn read_all_records(dir: &Path) -> Result<Vec<LogRecord>, PersistError> {
    Ok(read_files(dir)?.records())
}

/// Fold a record sequence to its minimal equivalent: an `Add` later
/// `Drop`ped annihilates with its `Drop`; surviving `Add`s keep their
/// original position relative to the (always kept) `Ddl` records, so every
/// surviving view still replays against the same schema timeline it was
/// originally compiled under. A `Drop` with no live `Add` (only possible in
/// hand-damaged files) is itself dropped — replaying it would fail.
fn fold(records: &[LogRecord]) -> Vec<LogRecord> {
    let mut out: Vec<Option<LogRecord>> = Vec::with_capacity(records.len());
    let mut live: HashMap<&str, usize> = HashMap::new();
    for record in records {
        match record {
            LogRecord::Add { name, .. } => {
                live.insert(name.as_str(), out.len());
                out.push(Some(record.clone()));
            }
            LogRecord::Drop { name } => {
                if let Some(i) = live.remove(name.as_str()) {
                    out[i] = None;
                }
            }
            LogRecord::Ddl { .. } => out.push(Some(record.clone())),
        }
    }
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ufilter-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn add(name: &str) -> LogRecord {
        LogRecord::Add {
            name: name.into(),
            view_text: format!("view text of {name}"),
            deps: vec!["book".into()],
            cached: false,
            artifact: vec![7; 16],
        }
    }

    #[test]
    fn append_reopen_recovers_in_order() {
        let dir = tmpdir("reopen");
        let mut store = CatalogStore::open(&dir).unwrap();
        assert_eq!(store.generation(), 1);
        store.append(&add("a")).unwrap();
        store.append(&LogRecord::Ddl { sql: "CREATE TABLE x (id INTEGER)".into() }).unwrap();
        store.append(&LogRecord::Drop { name: "a".into() }).unwrap();
        drop(store);
        let store = CatalogStore::open(&dir).unwrap();
        let kinds: Vec<&str> = store.records().iter().map(LogRecord::kind).collect();
        assert_eq!(kinds, ["add", "ddl", "drop"]);
        assert_eq!(store.stats().recovered_records, 3);
        assert_eq!(store.stats().truncated_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmpdir("torn");
        let mut store = CatalogStore::open(&dir).unwrap();
        store.append(&add("a")).unwrap();
        store.append(&add("b")).unwrap();
        drop(store);
        let log = dir.join(LOG_FILE);
        let bytes = fs::read(&log).unwrap();
        fs::write(&log, &bytes[..bytes.len() - 3]).unwrap();
        let store = CatalogStore::open(&dir).unwrap();
        let kinds: Vec<&str> = store.records().iter().map(LogRecord::kind).collect();
        assert_eq!(kinds, ["add"], "torn second record dropped");
        assert!(store.stats().truncated_bytes > 0);
        // The truncation is repaired on disk: a second open is clean.
        drop(store);
        let store = CatalogStore::open(&dir).unwrap();
        assert_eq!(store.stats().truncated_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_folds_and_append_continues() {
        let dir = tmpdir("compact");
        let mut store = CatalogStore::open(&dir).unwrap();
        store
            .append_all(&[
                add("a"),
                LogRecord::Ddl { sql: "CREATE TABLE x (id INTEGER)".into() },
                add("b"),
                LogRecord::Drop { name: "a".into() },
            ])
            .unwrap();
        let stats = store.compact().unwrap();
        assert_eq!(stats.records_before, 4);
        assert_eq!(stats.records_after, 2, "ddl + surviving add");
        assert_eq!(stats.generation, 2);
        store.append(&add("c")).unwrap();
        drop(store);
        let store = CatalogStore::open(&dir).unwrap();
        assert_eq!(store.generation(), 2);
        let kinds: Vec<&str> = store.records().iter().map(LogRecord::kind).collect();
        assert_eq!(kinds, ["ddl", "add", "add"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_log_from_interrupted_compaction_is_discarded() {
        let dir = tmpdir("stale");
        let mut store = CatalogStore::open(&dir).unwrap();
        store.append(&add("a")).unwrap();
        store.compact().unwrap(); // snapshot gen 2, log gen 2
        store.append(&add("b")).unwrap();
        drop(store);
        // Simulate a crash between the two compaction renames: a new
        // snapshot (gen 3, folding in "b") next to the old gen-2 log.
        let all = read_all_records(&dir).unwrap();
        let mut snap = frame::encode_header(FileKind::Snapshot, 3);
        for r in fold(&all) {
            frame::encode_frame(&mut snap, &codec::encode_record(&r));
        }
        write_atomic(&dir, SNAP_FILE, &snap).unwrap();
        let store = CatalogStore::open(&dir).unwrap();
        assert!(store.stats().stale_log_discarded);
        assert_eq!(store.generation(), 3);
        let names: Vec<&str> = store
            .records()
            .iter()
            .map(|r| match r {
                LogRecord::Add { name, .. } => name.as_str(),
                _ => "?",
            })
            .collect();
        assert_eq!(names, ["a", "b"], "log records were already folded into the snapshot");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn future_log_is_a_hard_error() {
        let dir = tmpdir("future");
        let mut store = CatalogStore::open(&dir).unwrap();
        store.append(&add("a")).unwrap();
        store.compact().unwrap();
        drop(store);
        // Roll the snapshot back to generation 1: the gen-2 log is now from
        // the future relative to it.
        write_atomic(&dir, SNAP_FILE, &frame::encode_header(FileKind::Snapshot, 1)).unwrap();
        match CatalogStore::open(&dir) {
            Err(PersistError::Generation { snapshot: 1, log: 2 }) => {}
            other => panic!("expected generation error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_reports_without_repairing() {
        let dir = tmpdir("verify");
        let mut store = CatalogStore::open(&dir).unwrap();
        store.append_all(&[add("a"), add("b"), LogRecord::Drop { name: "a".into() }]).unwrap();
        drop(store);
        let log = dir.join(LOG_FILE);
        let bytes = fs::read(&log).unwrap();
        fs::write(&log, [&bytes[..], &[0xde, 0xad]].concat()).unwrap();
        let report = CatalogStore::verify(&dir).unwrap();
        assert_eq!(report.views, ["b"]);
        assert_eq!(report.log_records, 3);
        assert_eq!(report.torn_bytes, 2);
        assert!(!report.is_clean());
        assert_eq!(fs::read(&log).unwrap().len(), bytes.len() + 2, "verify did not truncate");
        fs::remove_dir_all(&dir).unwrap();
    }
}
