//! Filesystem-backed [`StateStore`]: one directory per peer key.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/<key>/current.ckpt    latest checkpoint (JXPC container)
//! <root>/<key>/previous.ckpt   the one before it (CRC fallback)
//! <root>/<key>/wal.log         append-only WAL since current.ckpt
//! ```
//!
//! Checkpoints are installed atomically: the container is written to a
//! temp file, `fsync`ed, the old current is renamed to previous, the
//! temp file renamed into place, and the directory `fsync`ed. At every
//! instant the directory holds at least one fully-written checkpoint,
//! which is what lets recovery tolerate a crash at any point in this
//! sequence. WAL appends are `fsync`ed before the store reports them
//! durable.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::{format, validate_key, Recovered, StateStore, StoreError, StoreMetrics, WalRecord};

const CURRENT: &str = "current.ckpt";
const PREVIOUS: &str = "previous.ckpt";
const WAL: &str = "wal.log";
const CKPT_TMP: &str = "ckpt.tmp";
const WAL_TMP: &str = "wal.tmp";

/// Raw persisted bytes for one key, for offline inspection
/// (`jxp checkpoint verify`).
#[derive(Debug, Default)]
pub struct RawKeyState {
    /// Bytes of `current.ckpt`, if present.
    pub current: Option<Vec<u8>>,
    /// Bytes of `previous.ckpt`, if present.
    pub previous: Option<Vec<u8>>,
    /// Bytes of `wal.log` (empty when absent).
    pub wal: Vec<u8>,
}

/// Per-peer directory store.
pub struct DirStore {
    root: PathBuf,
    metrics: StoreMetrics,
}

impl DirStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        DirStore::with_metrics(root, StoreMetrics::detached())
    }

    /// Open a store whose operations feed `metrics`.
    pub fn with_metrics(
        root: impl Into<PathBuf>,
        metrics: StoreMetrics,
    ) -> Result<Self, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(DirStore { root, metrics })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The metrics this store reports into.
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    fn key_dir(&self, key: &str) -> Result<PathBuf, StoreError> {
        validate_key(key)?;
        Ok(self.root.join(key))
    }

    /// Read the raw persisted bytes for `key` without validating them.
    pub fn read_raw(&self, key: &str) -> Result<RawKeyState, StoreError> {
        let dir = self.key_dir(key)?;
        Ok(RawKeyState {
            current: read_opt(&dir.join(CURRENT))?,
            previous: read_opt(&dir.join(PREVIOUS))?,
            wal: read_opt(&dir.join(WAL))?.unwrap_or_default(),
        })
    }

    /// Rewrite the WAL keeping only records with sequence `>= seq`.
    ///
    /// Called during checkpoint installation: everything below the new
    /// checkpoint's sequence is folded into the snapshot, but the
    /// record *at* the checkpoint sequence survives so a partner can
    /// still repair a torn meeting from it.
    fn compact_wal(&self, dir: &Path, seq: u64) -> Result<(), StoreError> {
        let wal_path = dir.join(WAL);
        let Some(bytes) = read_opt(&wal_path)? else {
            return Ok(());
        };
        let scan = format::scan_wal(&bytes);
        let mut kept = Vec::new();
        for record in &scan.records {
            if record.seq >= seq {
                kept.extend_from_slice(&format::encode_wal_record(record));
            }
        }
        if kept.len() == bytes.len() {
            return Ok(());
        }
        let tmp = dir.join(WAL_TMP);
        write_durable(&tmp, &kept)?;
        fs::rename(&tmp, &wal_path)?;
        sync_dir(dir)?;
        Ok(())
    }
}

fn read_opt(path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
    match fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

fn write_durable(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    Ok(crate::atomic::write_durable(path, bytes)?)
}

fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    Ok(crate::atomic::sync_dir(dir)?)
}

impl StateStore for DirStore {
    fn checkpoint(&self, key: &str, seq: u64, snapshot: &[u8]) -> Result<(), StoreError> {
        let start = Instant::now();
        let dir = self.key_dir(key)?;
        fs::create_dir_all(&dir)?;
        let bytes = format::encode_checkpoint(seq, snapshot);
        let tmp = dir.join(CKPT_TMP);
        write_durable(&tmp, &bytes)?;
        let current = dir.join(CURRENT);
        if current.exists() {
            fs::rename(&current, dir.join(PREVIOUS))?;
        }
        fs::rename(&tmp, &current)?;
        sync_dir(&dir)?;
        self.compact_wal(&dir, seq)?;
        self.metrics.checkpoints_total.inc();
        self.metrics
            .checkpoint_seconds
            .observe(start.elapsed().as_secs_f64());
        Ok(())
    }

    fn append(&self, key: &str, record: &WalRecord) -> Result<u64, StoreError> {
        let start = Instant::now();
        let dir = self.key_dir(key)?;
        fs::create_dir_all(&dir)?;
        let bytes = format::encode_wal_record(record);
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(WAL))?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        let size = f.metadata()?.len();
        self.metrics.wal_records_total.inc();
        self.metrics.wal_bytes_total.add(bytes.len() as u64);
        self.metrics
            .wal_append_seconds
            .observe(start.elapsed().as_secs_f64());
        Ok(size)
    }

    fn load(&self, key: &str) -> Result<Option<Recovered>, StoreError> {
        let raw = self.read_raw(key)?;
        let recovered = crate::recover(raw.current.as_deref(), raw.previous.as_deref(), &raw.wal)?;
        if let Some(rec) = &recovered {
            self.metrics.recoveries_total.inc();
            if rec.used_fallback {
                self.metrics.fallbacks_total.inc();
            }
        }
        Ok(recovered)
    }

    fn wal_size(&self, key: &str) -> Result<u64, StoreError> {
        let dir = self.key_dir(key)?;
        match fs::metadata(dir.join(WAL)) {
            Ok(meta) => Ok(meta.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e.into()),
        }
    }

    fn keys(&self) -> Result<Vec<String>, StoreError> {
        let mut keys = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                if let Some(name) = entry.file_name().to_str() {
                    keys.push(name.to_string());
                }
            }
        }
        keys.sort();
        Ok(keys)
    }
}
