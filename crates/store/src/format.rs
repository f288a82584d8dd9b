//! On-disk binary formats: the `JXPC` checkpoint container and the WAL
//! record framing.
//!
//! Both formats follow the `jxp-wire` codec conventions: little-endian
//! fixed-width integers, explicit length prefixes validated against the
//! available bytes *before* any allocation, and a CRC over the payload
//! so that torn writes and bit rot are detected rather than parsed.
//!
//! Checkpoint container (wraps a `core::snapshot` blob, a `JXPP` header
//! plus a protocol-3 meeting body):
//!
//! ```text
//! magic "JXPC" | version u32 | seq u64 | payload_len u32 | crc32 u32 | payload
//! ```
//!
//! A CRC-clean checkpoint whose snapshot declares another `JXPP` version
//! is refused by that version ([`check_snapshot_version`]), as a WAL of
//! another protocol is ([`check_wal_protocol`]).
//!
//! WAL record (appended after every applied meeting delta):
//!
//! ```text
//! body_len u32 | crc32 u32 (over body) | body
//! body = seq u64 | kind u8 | inbound frame [| outbound frame]
//! ```
//!
//! The embedded frames are ordinary `jxp-wire` frames (`MeetRequest`
//! for the payload this peer absorbed, `MeetReply` for the payload it
//! sent back), so the WAL is self-describing to any tool that already
//! speaks the wire protocol. `Serve` records carry *both* sides of the
//! exchange: the reply payload is what a crashed initiator needs to
//! repair a torn meeting (see `DESIGN.md` §12). Because the frames carry
//! the wire protocol's version, so does the journal: a WAL written by
//! another protocol version is refused whole ([`check_wal_protocol`]),
//! never mistaken for a torn tail.

use jxp_core::MeetingPayload;
use jxp_wire::{decode_frame, encode_meeting_frame, Frame, MeetingFrame};

use crate::StoreError;

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"JXPC";
/// Current checkpoint container version.
pub const CHECKPOINT_VERSION: u32 = 1;
/// Fixed checkpoint header size: magic + version + seq + len + crc.
pub const CHECKPOINT_HEADER_LEN: usize = 4 + 4 + 8 + 4 + 4;
/// Fixed WAL record header size: body length + body CRC.
pub const WAL_HEADER_LEN: usize = 4 + 4;
/// Upper bound on a checkpoint payload or WAL record body; a claimed
/// length beyond this is corruption, not a big snapshot.
pub const MAX_PAYLOAD_LEN: usize = 256 << 20;

/// Slice-by-8 tables: `[0]` is the classic bytewise table; `[k][b]` is
/// the CRC state after byte `b` followed by `k` zero bytes, which is
/// what lets eight input bytes be folded with eight independent lookups.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// IEEE CRC-32 (the zlib/PNG polynomial), implemented locally so the
/// store adds no dependencies.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_finish(crc32_update(CRC32_INIT, data))
}

/// Initial state for the incremental form of [`crc32`]: fold any number
/// of byte slices with [`crc32_update`], then [`crc32_finish`]. Lets
/// callers checksum a header and a payload that live in separate
/// buffers without concatenating them (used by `jxp-segstore`).
pub const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// Fold `data` into an incremental CRC state, eight bytes per step
/// (slice-by-8); the tail goes through the bytewise table.
pub fn crc32_update(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Finalize an incremental CRC state into the checksum value.
pub fn crc32_finish(c: u32) -> u32 {
    c ^ 0xFFFF_FFFF
}

/// A decoded checkpoint: the event sequence number it captures and the
/// raw `core::snapshot` bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Per-peer event sequence number the snapshot corresponds to.
    pub seq: u64,
    /// Raw `core::snapshot::save` bytes.
    pub snapshot: Vec<u8>,
}

/// Encode a checkpoint container around a snapshot blob.
pub fn encode_checkpoint(seq: u64, snapshot: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(CHECKPOINT_HEADER_LEN + snapshot.len());
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(snapshot.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(snapshot).to_le_bytes());
    out.extend_from_slice(snapshot);
    out
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(raw)
}

/// Decode and CRC-validate a checkpoint container.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, StoreError> {
    if bytes.len() < CHECKPOINT_HEADER_LEN {
        return Err(StoreError::corrupt("checkpoint shorter than its header"));
    }
    if bytes[..4] != CHECKPOINT_MAGIC {
        return Err(StoreError::corrupt("bad checkpoint magic"));
    }
    let version = read_u32(bytes, 4);
    if version != CHECKPOINT_VERSION {
        return Err(StoreError::corrupt(format!(
            "unsupported checkpoint version {version}"
        )));
    }
    let seq = read_u64(bytes, 8);
    let len = read_u32(bytes, 16) as usize;
    if len > MAX_PAYLOAD_LEN {
        return Err(StoreError::corrupt(format!(
            "checkpoint claims {len} payload bytes (max {MAX_PAYLOAD_LEN})"
        )));
    }
    let crc = read_u32(bytes, 20);
    let payload = &bytes[CHECKPOINT_HEADER_LEN..];
    if payload.len() != len {
        return Err(StoreError::corrupt(format!(
            "checkpoint claims {len} payload bytes, file holds {}",
            payload.len()
        )));
    }
    if crc32(payload) != crc {
        return Err(StoreError::corrupt("checkpoint CRC mismatch"));
    }
    Ok(Checkpoint {
        seq,
        snapshot: payload.to_vec(),
    })
}

/// Which side of a meeting a WAL record captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalKind {
    /// The peer initiated a meeting and absorbed the reply payload.
    Absorb,
    /// The peer served a meeting: it absorbed the request payload and
    /// sent back a reply (also recorded, for torn-meeting repair).
    Serve,
}

/// One durable post-meeting delta.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// 1-based per-peer event sequence number.
    pub seq: u64,
    /// Which side of the meeting this peer was on.
    pub kind: WalKind,
    /// The payload this peer absorbed (replay applies exactly this).
    pub inbound: MeetingPayload,
    /// For [`WalKind::Serve`]: the pre-absorption reply this peer sent.
    pub outbound: Option<MeetingPayload>,
}

/// Encode one WAL record, framed and checksummed.
pub fn encode_wal_record(record: &WalRecord) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&record.seq.to_le_bytes());
    body.push(match record.kind {
        WalKind::Absorb => 0,
        WalKind::Serve => 1,
    });
    body.extend_from_slice(&encode_meeting_frame(
        MeetingFrame::Request,
        &record.inbound,
    ));
    if let Some(outbound) = &record.outbound {
        body.extend_from_slice(&encode_meeting_frame(MeetingFrame::Reply, outbound));
    }
    let mut out = Vec::with_capacity(WAL_HEADER_LEN + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Refuse a WAL whose first record was written by another wire protocol
/// version: a build replays only records of its own
/// [`jxp_wire::PROTOCOL_VERSION`]. The version is read off the first
/// record's inbound frame, and only a whole, CRC-clean record is
/// believed: empty, torn and flipped journals pass, and [`scan_wal`] has
/// the word on those. [`recover`](crate::recover) runs this first;
/// `jxp cluster` runs it over a `--state-dir` before it resumes.
pub fn check_wal_protocol(wal: &[u8]) -> Result<(), StoreError> {
    let found = (|| {
        let len = read_u32(wal.get(..WAL_HEADER_LEN)?, 0) as usize;
        let body = wal.get(WAL_HEADER_LEN..WAL_HEADER_LEN.checked_add(len)?)?;
        // seq u64 + kind u8, then the frame: magic, version.
        let frame = body.get(9..9 + 6)?;
        (frame[..4] == jxp_wire::MAGIC && crc32(body) == read_u32(wal, 4))
            .then(|| u16::from_le_bytes([frame[4], frame[5]]))
    })();
    match found {
        Some(found) if found != jxp_wire::PROTOCOL_VERSION => Err(StoreError::Protocol {
            found,
            speaks: jxp_wire::PROTOCOL_VERSION,
        }),
        _ => Ok(()),
    }
}

/// Refuse a decoded checkpoint whose snapshot declares another `JXPP`
/// version than [`jxp_core::snapshot::VERSION`]: its container is
/// intact, and the state is another build's, not corrupt. A snapshot
/// without the `JXPP` magic passes; loading it has the word on that.
/// [`recover`](crate::recover) runs this over every CRC-clean
/// checkpoint before it loads one; `jxp cluster` runs it over a
/// `--state-dir` before it resumes.
pub fn check_snapshot_version(checkpoint: &Checkpoint) -> Result<(), StoreError> {
    let reads = jxp_core::snapshot::VERSION;
    match jxp_core::snapshot::version(&checkpoint.snapshot) {
        Some(found) if found != reads => Err(StoreError::Snapshot { found, reads }),
        _ => Ok(()),
    }
}

fn decode_wal_body(body: &[u8]) -> Result<WalRecord, StoreError> {
    if body.len() < 9 {
        return Err(StoreError::corrupt("WAL record body shorter than header"));
    }
    let seq = read_u64(body, 0);
    let kind = match body[8] {
        0 => WalKind::Absorb,
        1 => WalKind::Serve,
        other => {
            return Err(StoreError::corrupt(format!(
                "unknown WAL record kind {other}"
            )))
        }
    };
    let mut off = 9;
    let (frame, used) = decode_frame(&body[off..])
        .map_err(|e| StoreError::corrupt(format!("WAL inbound frame: {e}")))?;
    off += used;
    let inbound = match frame {
        Frame::MeetRequest(p) => p,
        other => {
            return Err(StoreError::corrupt(format!(
                "WAL inbound frame is {other:?}, expected MeetRequest"
            )))
        }
    };
    let outbound = match kind {
        WalKind::Absorb => None,
        WalKind::Serve => {
            let (frame, used) = decode_frame(&body[off..])
                .map_err(|e| StoreError::corrupt(format!("WAL outbound frame: {e}")))?;
            off += used;
            match frame {
                Frame::MeetReply(p) => Some(p),
                other => {
                    return Err(StoreError::corrupt(format!(
                        "WAL outbound frame is {other:?}, expected MeetReply"
                    )))
                }
            }
        }
    };
    if off != body.len() {
        return Err(StoreError::corrupt("trailing bytes inside WAL record body"));
    }
    Ok(WalRecord {
        seq,
        kind,
        inbound,
        outbound,
    })
}

/// Result of scanning a WAL byte stream front to back.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Records decoded before the first invalid byte.
    pub records: Vec<WalRecord>,
    /// Bytes consumed by the decoded records.
    pub consumed: usize,
    /// True when trailing bytes could not be decoded (torn tail or a
    /// mid-log flip; either way replay stops at the last good record).
    pub torn: bool,
    /// Why the scan stopped early, when it did.
    pub error: Option<StoreError>,
}

/// Decode WAL records until the bytes run out or stop making sense.
///
/// A truncated or corrupt tail is *not* an error: recovery replays the
/// clean prefix and reports `torn = true`. This is the crash-consistency
/// contract — an append torn by power loss must never poison the
/// records that were already durable before it.
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    let mut scan = WalScan::default();
    let mut off = 0;
    while off < bytes.len() {
        let rest = &bytes[off..];
        if rest.len() < WAL_HEADER_LEN {
            scan.torn = true;
            scan.error = Some(StoreError::corrupt("torn WAL header"));
            break;
        }
        let len = read_u32(rest, 0) as usize;
        if len > MAX_PAYLOAD_LEN {
            scan.torn = true;
            scan.error = Some(StoreError::corrupt(format!(
                "WAL record claims {len} body bytes (max {MAX_PAYLOAD_LEN})"
            )));
            break;
        }
        if rest.len() < WAL_HEADER_LEN + len {
            scan.torn = true;
            scan.error = Some(StoreError::corrupt("torn WAL record body"));
            break;
        }
        let crc = read_u32(rest, 4);
        let body = &rest[WAL_HEADER_LEN..WAL_HEADER_LEN + len];
        if crc32(body) != crc {
            scan.torn = true;
            scan.error = Some(StoreError::corrupt("WAL record CRC mismatch"));
            break;
        }
        match decode_wal_body(body) {
            Ok(record) => {
                scan.records.push(record);
                off += WAL_HEADER_LEN + len;
                scan.consumed = off;
            }
            Err(e) => {
                scan.torn = true;
                scan.error = Some(e);
                break;
            }
        }
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The bit-at-a-time definition, kept here as the reference only.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = CRC32_INIT;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        crc32_finish(c)
    }

    #[test]
    fn slice_by_8_equals_the_bytewise_reference_at_every_length_and_alignment() {
        // 8 alignments x lengths 0..=64 cover every split between the
        // eight-byte steps and the tail, wherever the slice starts.
        let buf: Vec<u8> = (0..80u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for align in 0..8 {
            for len in 0..=64 {
                let data = &buf[align..align + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "align {align} len {len}");
                // Folding in two pieces equals folding at once.
                let (a, b) = data.split_at(len / 3);
                let split = crc32_finish(crc32_update(crc32_update(CRC32_INIT, a), b));
                assert_eq!(split, crc32(data), "split at {}", len / 3);
            }
        }
    }

    #[test]
    fn checkpoint_roundtrip() {
        let snapshot = vec![7u8; 130];
        let bytes = encode_checkpoint(42, &snapshot);
        let ckpt = decode_checkpoint(&bytes).expect("roundtrip");
        assert_eq!(ckpt.seq, 42);
        assert_eq!(ckpt.snapshot, snapshot);
    }

    #[test]
    fn checkpoint_rejects_corruption_without_panicking() {
        let bytes = encode_checkpoint(7, &[1, 2, 3, 4, 5]);
        // Every truncation is a clean error.
        for cut in 0..bytes.len() {
            assert!(decode_checkpoint(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Every single-byte flip is a clean error (magic, version, seq,
        // len, crc, payload — all covered).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            // Flipping seq bytes alone keeps the payload CRC valid;
            // everything else must be rejected.
            if decode_checkpoint(&bad).is_ok() {
                assert!((8..16).contains(&i), "flip at {i} accepted");
            }
        }
    }
}
