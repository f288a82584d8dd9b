//! The `JXPS` segment container: one contiguous node range of the
//! graph, forward and reverse adjacency, CRC-checked.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "JXPS" | version u32 | seg_index u32 | start_node u64
//! | num_nodes u64 | fwd_edges u64 | rev_edges u64
//! | payload_len u32 | crc32 u32 | payload
//! ```
//!
//! The CRC (same polynomial/table as `jxp-store`'s checkpoints, via
//! `jxp_store`'s incremental crc32) covers **everything before it** —
//! the 48 header bytes — plus the payload, so a flip of any single
//! byte in the container is caught at decode time. The payload is four
//! varint sections:
//!
//! ```text
//! fwd degree per node | fwd adjacency per node (delta-varint)
//! | rev degree per node | rev adjacency per node (delta-varint)
//! ```
//!
//! Forward lists hold the successors of nodes in `start .. start+n`
//! (targets anywhere in the graph); reverse lists hold their
//! predecessors. Storing both directions per node range is what lets
//! pull-based PageRank (which walks predecessors) touch only the
//! segments of the nodes it is updating.
//!
//! Decoding is **direction-lazy**: [`decode_segment`] takes the
//! [`Directions`] the caller will read. Both degree sections are always
//! decoded and validated (they are small, and they frame the adjacency
//! sections); an adjacency section nobody asked for is stepped over by
//! counting varint terminators — its varint count is the header's edge
//! count — and left to the container CRC, which has covered its bytes.
//! A pull sweep reads predecessors only, so it never pays for the
//! forward half.
//!
//! Like `jxp-store`'s format module, every length is bounded **before**
//! any allocation, so a corrupt header cannot request gigabytes.

use crate::codec;
use crate::SegStoreError;
use jxp_store::{crc32_finish, crc32_update, CRC32_INIT};

/// CRC over the 48 header bytes before the crc field plus the payload.
fn container_crc(header_prefix: &[u8], payload: &[u8]) -> u32 {
    crc32_finish(crc32_update(
        crc32_update(CRC32_INIT, header_prefix),
        payload,
    ))
}

/// Magic bytes of a segment container.
pub const SEGMENT_MAGIC: [u8; 4] = *b"JXPS";
/// Container format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Fixed header length in bytes.
pub const SEGMENT_HEADER_LEN: usize = 4 + 4 + 4 + 8 + 8 + 8 + 8 + 4 + 4;
/// Hard cap on nodes per segment, checked before allocating.
pub const MAX_SEGMENT_NODES: usize = 1 << 24;
/// Hard cap on one segment's encoded payload (matches the spirit of
/// `jxp_store::MAX_PAYLOAD_LEN`), checked before allocating.
pub const MAX_SEGMENT_PAYLOAD: usize = 256 << 20;

/// A set of adjacency directions: what a caller wants decoded, or what
/// a [`DecodedSegment`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Directions {
    /// Successor lists.
    pub fwd: bool,
    /// Predecessor lists.
    pub rev: bool,
}

impl Directions {
    /// Degrees only.
    pub const NONE: Directions = Directions {
        fwd: false,
        rev: false,
    };
    /// Successor lists only.
    pub const FWD: Directions = Directions {
        fwd: true,
        rev: false,
    };
    /// Predecessor lists only.
    pub const REV: Directions = Directions {
        fwd: false,
        rev: true,
    };
    /// Both adjacency directions.
    pub const BOTH: Directions = Directions {
        fwd: true,
        rev: true,
    };

    /// Whether every direction in `other` is also in `self`.
    pub fn contains(self, other: Directions) -> bool {
        (self.fwd || !other.fwd) && (self.rev || !other.rev)
    }

    /// The directions in either set.
    pub fn union(self, other: Directions) -> Directions {
        Directions {
            fwd: self.fwd || other.fwd,
            rev: self.rev || other.rev,
        }
    }
}

/// A segment decoded into a mini-CSR over its node range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedSegment {
    /// Index of this segment in the directory.
    pub index: u32,
    /// First global node id covered.
    pub start: u64,
    /// Which adjacency arrays were decoded. The offset arrays (degrees)
    /// are always present; the adjacency array of a direction not held
    /// is empty.
    pub held: Directions,
    /// `fwd_off[i]..fwd_off[i+1]` indexes `fwd_adj` with the successors
    /// of global node `start + i` (ascending global ids).
    pub fwd_off: Vec<u32>,
    /// Successor ids, concatenated (empty unless `held.fwd`).
    pub fwd_adj: Vec<u32>,
    /// As `fwd_off`, for predecessors.
    pub rev_off: Vec<u32>,
    /// Predecessor ids, concatenated (empty unless `held.rev`).
    pub rev_adj: Vec<u32>,
    /// Size of the container this was decoded from, for cache
    /// accounting of on-disk (encoded) bytes.
    pub encoded_len: usize,
}

impl DecodedSegment {
    /// Nodes covered by this segment.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.fwd_off.len() - 1
    }

    /// Approximate resident heap size of the decoded form: the arrays
    /// actually held.
    pub fn resident_bytes(&self) -> usize {
        4 * (self.fwd_off.len() + self.fwd_adj.len() + self.rev_off.len() + self.rev_adj.len())
    }

    /// Successors of the `i`-th covered node (ascending).
    ///
    /// # Panics
    /// Panics if the forward direction was not decoded.
    #[inline]
    pub fn successors_at(&self, i: usize) -> &[u32] {
        assert!(self.held.fwd, "forward adjacency not decoded");
        &self.fwd_adj[self.fwd_off[i] as usize..self.fwd_off[i + 1] as usize]
    }

    /// Predecessors of the `i`-th covered node (ascending).
    ///
    /// # Panics
    /// Panics if the reverse direction was not decoded.
    #[inline]
    pub fn predecessors_at(&self, i: usize) -> &[u32] {
        assert!(self.held.rev, "reverse adjacency not decoded");
        &self.rev_adj[self.rev_off[i] as usize..self.rev_off[i + 1] as usize]
    }
}

/// Encode one segment from per-range mini-CSR arrays.
///
/// `fwd_off`/`fwd_adj` (and the `rev` pair) describe nodes
/// `start .. start + (fwd_off.len() - 1)` exactly as in
/// [`DecodedSegment`]; every adjacency list must be sorted and
/// deduplicated.
///
/// # Panics
/// Panics if the arrays are inconsistent or exceed the format caps —
/// encoding is only reachable from the writer, which sizes segments.
pub fn encode_segment(
    index: u32,
    start: u64,
    fwd_off: &[u32],
    fwd_adj: &[u32],
    rev_off: &[u32],
    rev_adj: &[u32],
) -> Vec<u8> {
    assert!(!fwd_off.is_empty() && fwd_off.len() == rev_off.len());
    let n = fwd_off.len() - 1;
    assert!(n <= MAX_SEGMENT_NODES, "segment too large: {n} nodes");
    assert_eq!(*fwd_off.last().unwrap() as usize, fwd_adj.len());
    assert_eq!(*rev_off.last().unwrap() as usize, rev_adj.len());

    let mut payload = Vec::with_capacity(n + fwd_adj.len() * 2 + rev_adj.len() * 2);
    for i in 0..n {
        codec::put_varint(&mut payload, u64::from(fwd_off[i + 1] - fwd_off[i]));
    }
    for i in 0..n {
        codec::put_adjacency(
            &mut payload,
            &fwd_adj[fwd_off[i] as usize..fwd_off[i + 1] as usize],
        );
    }
    for i in 0..n {
        codec::put_varint(&mut payload, u64::from(rev_off[i + 1] - rev_off[i]));
    }
    for i in 0..n {
        codec::put_adjacency(
            &mut payload,
            &rev_adj[rev_off[i] as usize..rev_off[i + 1] as usize],
        );
    }
    assert!(
        payload.len() <= MAX_SEGMENT_PAYLOAD,
        "segment payload {} exceeds cap",
        payload.len()
    );

    let mut out = Vec::with_capacity(SEGMENT_HEADER_LEN + payload.len());
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(&start.to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(fwd_adj.len() as u64).to_le_bytes());
    out.extend_from_slice(&(rev_adj.len() as u64).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = container_crc(&out, &payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn get_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap())
}

fn get_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
}

/// Decode one degree section into a CSR offsets array, checking that
/// the degrees sum to exactly `edges` (the header's count, which the
/// caller has bounded by the payload length, so it fits `u32`).
fn get_offsets(
    payload: &[u8],
    pos: &mut usize,
    n: usize,
    edges: u64,
    dir: &str,
) -> Result<Vec<u32>, SegStoreError> {
    let mut off = vec![0u32; n + 1];
    let mut total: u64 = 0;
    for slot in &mut off[1..] {
        total = total
            .checked_add(codec::get_varint(payload, pos)?)
            .filter(|&t| t <= edges)
            .ok_or_else(|| SegStoreError::corrupt(format!("{dir} degree sum exceeds header")))?;
        *slot = total as u32;
    }
    if total != edges {
        return Err(SegStoreError::corrupt(format!(
            "{dir} degree sum below header"
        )));
    }
    Ok(off)
}

/// Decode the adjacency section framed by `off`, or step over it.
fn get_lists(
    payload: &[u8],
    pos: &mut usize,
    off: &[u32],
    wanted: bool,
) -> Result<Vec<u32>, SegStoreError> {
    let edges = off[off.len() - 1] as usize;
    if !wanted {
        codec::skip_varints(payload, pos, edges)?;
        return Ok(Vec::new());
    }
    let mut adj = vec![0u32; edges];
    for w in off.windows(2) {
        codec::get_adjacency(payload, pos, &mut adj[w[0] as usize..w[1] as usize])?;
    }
    Ok(adj)
}

/// Decode and validate one segment container, materializing the
/// adjacency directions in `want`.
///
/// Checks, in order: header framing, magic/version, node/edge/payload
/// bounds (before allocating), payload length, CRC, then the varint
/// payload itself (degree sums must match the header's edge counts and
/// every wanted adjacency list must be strictly increasing; a section
/// not wanted must still hold its edge count of varints).
pub fn decode_segment(bytes: &[u8], want: Directions) -> Result<DecodedSegment, SegStoreError> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        return Err(SegStoreError::corrupt("truncated segment header"));
    }
    if bytes[0..4] != SEGMENT_MAGIC {
        return Err(SegStoreError::corrupt("bad segment magic"));
    }
    if get_u32(bytes, 4) != SEGMENT_VERSION {
        return Err(SegStoreError::corrupt("unsupported segment version"));
    }
    let index = get_u32(bytes, 8);
    let start = get_u64(bytes, 12);
    let n64 = get_u64(bytes, 20);
    let fwd_edges = get_u64(bytes, 28);
    let rev_edges = get_u64(bytes, 36);
    let payload_len = get_u32(bytes, 44) as usize;
    let crc = get_u32(bytes, 48);

    if n64 > MAX_SEGMENT_NODES as u64 {
        return Err(SegStoreError::corrupt("segment node count exceeds cap"));
    }
    let n = n64 as usize;
    if payload_len > MAX_SEGMENT_PAYLOAD {
        return Err(SegStoreError::corrupt("segment payload exceeds cap"));
    }
    if bytes.len() != SEGMENT_HEADER_LEN + payload_len {
        return Err(SegStoreError::corrupt("segment payload length mismatch"));
    }
    // Every edge endpoint costs at least one payload byte, so the edge
    // counts are bounded by the payload before we allocate for them.
    if fwd_edges > payload_len as u64 || rev_edges > payload_len as u64 {
        return Err(SegStoreError::corrupt("segment edge count exceeds payload"));
    }
    let payload = &bytes[SEGMENT_HEADER_LEN..];
    if container_crc(&bytes[..SEGMENT_HEADER_LEN - 4], payload) != crc {
        return Err(SegStoreError::corrupt("segment CRC mismatch"));
    }

    let mut pos = 0usize;
    let fwd_off = get_offsets(payload, &mut pos, n, fwd_edges, "fwd")?;
    let fwd_adj = get_lists(payload, &mut pos, &fwd_off, want.fwd)?;
    let rev_off = get_offsets(payload, &mut pos, n, rev_edges, "rev")?;
    let rev_adj = get_lists(payload, &mut pos, &rev_off, want.rev)?;
    if pos != payload.len() {
        return Err(SegStoreError::corrupt("trailing bytes in segment payload"));
    }

    Ok(DecodedSegment {
        index,
        start,
        held: want,
        fwd_off,
        fwd_adj,
        rev_off,
        rev_adj,
        encoded_len: bytes.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3 nodes starting at global id 10: 10→{11,500}, 11→{}, 12→{10}.
    /// Reverse lists within the range: preds(10)={12}, preds(11)={10},
    /// preds(12)={}.
    fn sample() -> Vec<u8> {
        encode_segment(
            2,
            10,
            &[0, 2, 2, 3],
            &[11, 500, 10],
            &[0, 1, 2, 2],
            &[12, 10],
        )
    }

    const ALL_SETS: [Directions; 4] = [
        Directions::NONE,
        Directions::FWD,
        Directions::REV,
        Directions::BOTH,
    ];

    #[test]
    fn round_trips() {
        let bytes = sample();
        let seg = decode_segment(&bytes, Directions::BOTH).unwrap();
        assert_eq!(seg.index, 2);
        assert_eq!(seg.start, 10);
        assert_eq!(seg.num_nodes(), 3);
        assert_eq!(seg.successors_at(0), &[11, 500]);
        assert_eq!(seg.successors_at(1), &[] as &[u32]);
        assert_eq!(seg.successors_at(2), &[10]);
        assert_eq!(seg.predecessors_at(0), &[12]);
        assert_eq!(seg.predecessors_at(1), &[10]);
        assert_eq!(seg.encoded_len, bytes.len());
    }

    #[test]
    fn each_direction_set_holds_what_it_asked_for_and_the_degrees() {
        let bytes = sample();
        let full = decode_segment(&bytes, Directions::BOTH).unwrap();
        for want in ALL_SETS {
            let seg = decode_segment(&bytes, want).unwrap();
            assert_eq!(seg.held, want);
            assert_eq!(seg.fwd_off, full.fwd_off);
            assert_eq!(seg.rev_off, full.rev_off);
            assert_eq!(seg.fwd_adj, if want.fwd { &full.fwd_adj[..] } else { &[] });
            assert_eq!(seg.rev_adj, if want.rev { &full.rev_adj[..] } else { &[] });
            let held = 4 * (2 * 4 + seg.fwd_adj.len() + seg.rev_adj.len());
            assert_eq!(seg.resident_bytes(), held);
        }
    }

    #[test]
    #[should_panic(expected = "forward adjacency not decoded")]
    fn reading_a_direction_not_held_panics() {
        let seg = decode_segment(&sample(), Directions::REV).unwrap();
        let _ = seg.successors_at(0);
    }

    #[test]
    fn direction_sets_compose() {
        assert!(Directions::BOTH.contains(Directions::REV));
        assert!(Directions::REV.contains(Directions::NONE));
        assert!(!Directions::REV.contains(Directions::FWD));
        assert!(!Directions::NONE.contains(Directions::REV));
        assert_eq!(Directions::FWD.union(Directions::REV), Directions::BOTH);
        assert_eq!(Directions::NONE.union(Directions::REV), Directions::REV);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        // For every direction set: a flip inside a section that is
        // skipped, not decoded, must be caught just the same (the CRC
        // covers the whole payload).
        let good = sample();
        for want in ALL_SETS {
            for i in 0..good.len() {
                let mut bad = good.clone();
                bad[i] ^= 0x40;
                assert!(
                    decode_segment(&bad, want).is_err(),
                    "flip at byte {i} went undetected with {want:?}"
                );
            }
        }
    }

    #[test]
    fn truncation_and_padding_are_detected() {
        let good = sample();
        for want in ALL_SETS {
            for cut in [0, 1, SEGMENT_HEADER_LEN - 1, good.len() - 1] {
                assert!(decode_segment(&good[..cut], want).is_err(), "cut at {cut}");
            }
            let mut padded = good.clone();
            padded.push(0);
            assert!(decode_segment(&padded, want).is_err());
        }
    }

    /// Re-seal a container whose payload was edited, so the payload
    /// checks behind the CRC are what rejects it.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let payload_len = (bytes.len() - SEGMENT_HEADER_LEN) as u32;
        bytes[44..48].copy_from_slice(&payload_len.to_le_bytes());
        let crc = container_crc(
            &bytes[..SEGMENT_HEADER_LEN - 4],
            &bytes[SEGMENT_HEADER_LEN..],
        );
        bytes[48..52].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn a_crc_valid_but_malformed_payload_is_corrupt_under_every_direction_set() {
        let good = sample();
        let p = SEGMENT_HEADER_LEN;
        // Payload of `sample`: fwd degrees [2,0,1] | fwd lists 11,+489(2 bytes),10
        // | rev degrees [1,1,0] | rev lists 12,10.
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("trailing byte", {
                let mut b = good.clone();
                b.push(0);
                b
            }),
            ("payload one varint short", good[..good.len() - 1].to_vec()),
            ("fwd degree sum above header", {
                let mut b = good.clone();
                b[p] = 3;
                b
            }),
            ("fwd degree sum below header", {
                let mut b = good.clone();
                b[p] = 1;
                b
            }),
            ("rev degree sum above header", {
                let mut b = good.clone();
                b[p + 7] = 2;
                b
            }),
            ("dangling continuation at the end", {
                let mut b = good.clone();
                let last = b.len() - 1;
                b[last] |= 0x80;
                b
            }),
        ];
        for (what, bytes) in cases {
            let bytes = reseal(bytes);
            for want in ALL_SETS {
                assert!(
                    matches!(decode_segment(&bytes, want), Err(SegStoreError::Corrupt(_))),
                    "{what} accepted with {want:?}"
                );
            }
        }
        // A zero gap (500 rewritten as 11 + a two-byte 0) is a value
        // error: caught wherever the list is decoded. A sweep that
        // steps over the forward section leaves it to `verify_dir`.
        let mut zero_gap = good.clone();
        zero_gap[p + 4..p + 6].copy_from_slice(&[0x80, 0x00]);
        let zero_gap = reseal(zero_gap);
        assert!(decode_segment(&zero_gap, Directions::FWD).is_err());
        assert!(decode_segment(&zero_gap, Directions::BOTH).is_err());
        assert!(decode_segment(&zero_gap, Directions::REV).is_ok());
    }

    #[test]
    fn huge_header_counts_are_rejected_before_allocation() {
        let mut bad = sample();
        // Claim u64::MAX nodes.
        bad[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_segment(&bad, Directions::NONE).is_err());
        let mut bad = sample();
        // Claim u64::MAX forward edges.
        bad[28..36].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_segment(&bad, Directions::NONE).is_err());
        let mut bad = sample();
        // Claim a payload length far past the actual buffer.
        bad[44..48].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_segment(&bad, Directions::NONE).is_err());
    }

    #[test]
    fn empty_segment_round_trips() {
        let bytes = encode_segment(0, 0, &[0, 0, 0], &[], &[0, 0, 0], &[]);
        let seg = decode_segment(&bytes, Directions::BOTH).unwrap();
        assert_eq!(seg.num_nodes(), 2);
        assert_eq!(seg.successors_at(0), &[] as &[u32]);
        assert_eq!(seg.resident_bytes(), 4 * 6);
    }
}
