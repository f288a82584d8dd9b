//! `jxp-store`: durable, checksummed persistence of JXP peer state.
//!
//! `core::snapshot` already serializes a peer's complete state; this
//! crate makes that state survive process death. Each peer (addressed
//! by a string *key*) owns:
//!
//! - a **current** and a **previous** checkpoint — `JXPC` containers
//!   (magic + version + CRC) around a snapshot blob, written atomically
//!   via temp-file + `fsync` + rename so a crash mid-write can never
//!   replace a good checkpoint with a torn one;
//! - an append-only **write-ahead log** of post-meeting deltas. Every
//!   meeting a peer takes part in appends one [`WalRecord`] carrying
//!   the payload it absorbed (and, when serving, the reply it sent).
//!
//! Recovery ([`recover`]) decodes the current checkpoint — falling back
//! to the previous one on CRC mismatch — then replays WAL records in
//! sequence over the restored peer. `JxpPeer::absorb` is deterministic
//! given state + payload, so replay reproduces the pre-crash scores
//! bit for bit. A truncated final WAL record (torn tail) stops replay
//! at the last good record instead of failing.
//!
//! Two [`StateStore`] backends ship: [`DirStore`] (a per-peer directory
//! layout on disk) and [`MemStore`] (an in-memory test double with
//! corruption hooks).

pub mod atomic;
mod dir;
mod format;
mod mem;
mod metrics;

pub use dir::{DirStore, RawKeyState};
pub use format::{
    check_snapshot_version, check_wal_protocol, crc32, crc32_finish, crc32_update,
    decode_checkpoint, encode_checkpoint, encode_wal_record, scan_wal, Checkpoint, WalKind,
    WalRecord, WalScan, CHECKPOINT_HEADER_LEN, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CRC32_INIT,
    MAX_PAYLOAD_LEN, WAL_HEADER_LEN,
};
pub use mem::MemStore;
pub use metrics::StoreMetrics;

use jxp_core::JxpPeer;

/// Errors surfaced by store backends and the recovery path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The underlying storage failed (filesystem error, bad key, ...).
    Io(String),
    /// Persisted bytes failed validation (CRC, framing, snapshot).
    Corrupt(String),
    /// The journal was written by another wire protocol version; its
    /// records are intact but this build cannot replay them.
    Protocol {
        /// Version stamped on the journal's frames.
        found: u16,
        /// [`jxp_wire::PROTOCOL_VERSION`] of this build.
        speaks: u16,
    },
    /// A checkpoint holds a peer snapshot of another `JXPP` version; the
    /// container is intact but this build cannot read its snapshot.
    Snapshot {
        /// Version stamped on the snapshot.
        found: u32,
        /// [`jxp_core::snapshot::VERSION`] of this build.
        reads: u32,
    },
}

impl StoreError {
    pub(crate) fn corrupt(msg: impl Into<String>) -> Self {
        StoreError::Corrupt(msg.into())
    }

    pub(crate) fn io(msg: impl Into<String>) -> Self {
        StoreError::Io(msg.into())
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "store I/O error: {msg}"),
            StoreError::Corrupt(msg) => write!(f, "store corruption: {msg}"),
            StoreError::Protocol { found, speaks } => write!(
                f,
                "state written by protocol {found}, this build speaks {speaks}"
            ),
            StoreError::Snapshot { found, reads } => write!(
                f,
                "checkpoint holds a JXPP version {found} snapshot, this build reads version {reads}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// Outcome of recovering one peer from its persisted state.
#[derive(Debug)]
pub struct Recovered {
    /// The restored peer, checkpoint state plus replayed WAL deltas.
    pub peer: JxpPeer,
    /// Event sequence number after replay (the peer has durably applied
    /// events `1..=seq`).
    pub seq: u64,
    /// Sequence number of the checkpoint that anchored recovery.
    pub checkpoint_seq: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: u64,
    /// True when the current checkpoint was unusable and recovery fell
    /// back to the previous one.
    pub used_fallback: bool,
    /// True when the WAL ended in a torn or corrupt record that replay
    /// skipped (tolerated, not fatal).
    pub torn_tail: bool,
    /// The last WAL record at or below `seq`, kept for torn-meeting
    /// repair: a crashed initiator re-absorbs the `outbound` payload of
    /// its partner's final `Serve` record.
    pub last_record: Option<WalRecord>,
}

/// Durable storage for per-peer checkpoints and WAL records.
///
/// Keys are flat identifiers (`node-3`, `peer-17`); backends decide the
/// physical layout. All methods take `&self` so a store can be shared
/// behind an `Arc` across node threads.
pub trait StateStore {
    /// Atomically install a new current checkpoint for `key` (rotating
    /// the old current to previous) and compact the WAL down to records
    /// with sequence `>= seq`.
    fn checkpoint(&self, key: &str, seq: u64, snapshot: &[u8]) -> Result<(), StoreError>;

    /// Append one record to `key`'s WAL. Returns the WAL size in bytes
    /// after the append, so callers can trigger compaction.
    fn append(&self, key: &str, record: &WalRecord) -> Result<u64, StoreError>;

    /// Recover `key`: latest valid checkpoint plus WAL replay. Returns
    /// `Ok(None)` when no state exists for the key.
    fn load(&self, key: &str) -> Result<Option<Recovered>, StoreError>;

    /// Current WAL size in bytes for `key` (0 when absent).
    fn wal_size(&self, key: &str) -> Result<u64, StoreError>;

    /// All keys with persisted state, sorted.
    fn keys(&self) -> Result<Vec<String>, StoreError>;
}

fn load_checkpoint(ckpt: Result<Checkpoint, StoreError>) -> Result<(u64, JxpPeer), StoreError> {
    let ckpt = ckpt?;
    let peer = jxp_core::snapshot::load(&ckpt.snapshot[..]).map_err(StoreError::Corrupt)?;
    Ok((ckpt.seq, peer))
}

/// Recover a peer from raw checkpoint bytes and a WAL byte stream.
///
/// The recovery ladder, in order:
/// 0. refuse a WAL of another wire protocol version
///    ([`check_wal_protocol`]) — its records would all fail to decode
///    and pass for one long torn tail — and a CRC-clean checkpoint of
///    another snapshot version ([`check_snapshot_version`]), which would
///    fail both checkpoints as corrupt;
/// 1. decode + CRC-check the current checkpoint;
/// 2. on any failure, fall back to the previous checkpoint
///    (`used_fallback = true`);
/// 3. replay WAL records whose sequence continues the checkpoint's
///    (`seq > checkpoint_seq`, strictly contiguous), stopping cleanly
///    at a torn tail or a sequence gap.
///
/// Backends call this from [`StateStore::load`]; it is exposed so
/// offline tools (`jxp checkpoint verify`) can drive it on raw bytes.
pub fn recover(
    current: Option<&[u8]>,
    previous: Option<&[u8]>,
    wal: &[u8],
) -> Result<Option<Recovered>, StoreError> {
    check_wal_protocol(wal)?;
    let current = current.map(format::decode_checkpoint);
    let previous = previous.map(format::decode_checkpoint);
    for ckpt in [&current, &previous].into_iter().flatten().flatten() {
        check_snapshot_version(ckpt)?;
    }
    let (decoded, used_fallback) = match (current, previous) {
        (None, None) => return Ok(None),
        (Some(cur), None) => (load_checkpoint(cur), false),
        (None, Some(prev)) => (load_checkpoint(prev), true),
        (Some(cur), Some(prev)) => match load_checkpoint(cur) {
            Ok(v) => (Ok(v), false),
            Err(_) => (load_checkpoint(prev), true),
        },
    };
    let (checkpoint_seq, mut peer) = decoded?;
    let scan = format::scan_wal(wal);
    let mut seq = checkpoint_seq;
    let mut replayed = 0u64;
    let mut last_record = None;
    for record in scan.records {
        if record.seq <= checkpoint_seq {
            // Compaction keeps the checkpoint-sequence record around for
            // torn-meeting repair; it is already folded into the snapshot.
            last_record = Some(record);
            continue;
        }
        if record.seq != seq + 1 {
            // A gap means the WAL does not continue this checkpoint
            // (e.g. we fell back to the previous one); stop at the last
            // consistent prefix rather than applying out-of-order deltas.
            break;
        }
        peer.absorb(&record.inbound);
        seq = record.seq;
        replayed += 1;
        last_record = Some(record);
    }
    Ok(Some(Recovered {
        peer,
        seq,
        checkpoint_seq,
        replayed,
        used_fallback,
        torn_tail: scan.torn,
        last_record,
    }))
}

/// Validate a key as a flat path component (no separators, no dotfiles).
pub(crate) fn validate_key(key: &str) -> Result<(), StoreError> {
    let ok = !key.is_empty()
        && !key.starts_with('.')
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    if ok {
        Ok(())
    } else {
        Err(StoreError::io(format!(
            "invalid store key {key:?}: use [A-Za-z0-9._-], not starting with '.'"
        )))
    }
}
