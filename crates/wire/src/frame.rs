//! Frame layout and codecs.
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     magic   b"JXPW"
//! 4       2     version u16 LE (PROTOCOL_VERSION)
//! 6       1     frame type
//! 7       1     flags (reserved, must be 0)
//! 8       4     body length u32 LE
//! 12      n     body (frame-type specific, little-endian throughout)
//! ```
//!
//! The body of [`Frame::MeetRequest`] / [`Frame::MeetReply`] is the
//! protocol-3 meeting body, whose codec lives in [`jxp_core::payload`]
//! beside `MeetingPayload::wire_size`, the analytic accounting that
//! Figures 11/12 plot: the body is exactly `wire_size()` bytes (pinned
//! by [`tests::meeting_body_is_exactly_wire_size`]), and the fixed
//! [`HEADER_LEN`]-byte header is the only framing overhead. The filter
//! in a [`Frame::SynopsisExchange`] goes through the same crate's
//! `encode_bloom`/`decode_bloom`, and the synopsis types encode to
//! exactly their `wire_size()`. Decode errors of that codec surface as
//! [`WireError::Malformed`] with the codec's message.

use bytes::{Buf, BufMut};
use jxp_core::payload::{
    decode_bloom, decode_meeting_payload, encode_bloom, encode_meeting_payload,
};
use jxp_core::selection::PeerSynopses;
use jxp_core::MeetingPayload;
use jxp_synopses::bloom::BloomFilter;
use jxp_synopses::fm_sketch::FmSketch;
use jxp_synopses::mips::MipsVector;
use jxp_webgraph::codec::CodecError;
use jxp_webgraph::PageId;

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"JXPW";

/// Current protocol version; bumped on any incompatible layout change.
/// Version 2 was the receiver-filtered meeting payload: `cut_for`, the
/// sender's filter, a per-page out-degree and the `unlinked` section.
/// Version 3 writes the same meeting payload with gap-coded ids and
/// varint counts and degrees instead of fixed 4-byte fields.
pub const PROTOCOL_VERSION: u16 = 3;

/// Fixed frame-header length (magic + version + type + flags + body len).
pub const HEADER_LEN: usize = 12;

/// Largest body this implementation accepts (64 MiB): a cheap guard
/// against allocating from a corrupt or hostile length field.
pub const MAX_BODY_LEN: usize = 64 << 20;

const TYPE_HELLO: u8 = 1;
const TYPE_MEET_REQUEST: u8 = 2;
const TYPE_MEET_REPLY: u8 = 3;
const TYPE_SYNOPSIS_EXCHANGE: u8 = 4;
const TYPE_ERROR: u8 = 6;
// 5 is reserved: the retired Ack. 7 and 8 are reserved: the retired
// stats request/reply pair.
const TYPE_QUERY_REQUEST: u8 = 9;
const TYPE_QUERY_REPLY: u8 = 10;

/// Whether a header type byte names a frame this protocol version
/// defines. The streaming accumulator uses this to reject garbage
/// streams from the header prefix, before the body length arrives.
pub(crate) fn frame_type_known(ty: u8) -> bool {
    matches!(
        ty,
        TYPE_HELLO
            | TYPE_MEET_REQUEST
            | TYPE_MEET_REPLY
            | TYPE_SYNOPSIS_EXCHANGE
            | TYPE_ERROR
            | TYPE_QUERY_REQUEST
            | TYPE_QUERY_REPLY
    )
}

/// Decode failures. `Truncated` is retriable-by-reading-more when the
/// input is a stream prefix; everything else is a protocol violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The sender speaks a different protocol version.
    VersionMismatch {
        /// Version found in the header.
        got: u16,
        /// Version this implementation speaks.
        expected: u16,
    },
    /// Unknown frame-type byte.
    UnknownFrameType(u8),
    /// The input ends before the complete frame.
    Truncated {
        /// Bytes required (for the header, or header + body).
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The declared body length exceeds [`MAX_BODY_LEN`].
    OversizedBody(usize),
    /// The body parsed, but not to its declared length, or a field
    /// violated an invariant (non-zero flags, bad UTF-8, zero-dimension
    /// synopsis, …).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::VersionMismatch { got, expected } => {
                write!(f, "protocol version {got} (this peer speaks {expected})")
            }
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, have {got}")
            }
            WireError::OversizedBody(n) => write!(f, "declared body of {n} bytes exceeds cap"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The peer is shutting down or refuses the meeting.
    Refused,
    /// The peer could not parse or validate what it received.
    BadRequest,
    /// The peer is currently in another meeting; try again later.
    Busy,
}

impl ErrorCode {
    fn to_u16(self) -> u16 {
        match self {
            ErrorCode::Refused => 1,
            ErrorCode::BadRequest => 2,
            ErrorCode::Busy => 3,
        }
    }

    fn from_u16(v: u16) -> Result<Self, WireError> {
        match v {
            1 => Ok(ErrorCode::Refused),
            2 => Ok(ErrorCode::BadRequest),
            3 => Ok(ErrorCode::Busy),
            _ => Err(WireError::Malformed("unknown error code")),
        }
    }
}

/// The synopses a peer publishes for pre-meetings selection and network
/// size estimation, exchanged in one [`Frame::SynopsisExchange`].
#[derive(Debug, Clone, PartialEq)]
pub struct SynopsisPayload {
    /// The two MIPs vectors of §4.3 (`local`, `successors`).
    pub synopses: PeerSynopses,
    /// FM sketch of the sender's page set (gossiped `N` estimation).
    pub sketch: Option<FmSketch>,
    /// Bloom filter of the sender's page set: the sender's
    /// `JxpPeer::interest`, which a partner that has not met the sender
    /// yet fetches here to cut its first meeting payload.
    pub bloom: Option<BloomFilter>,
}

impl SynopsisPayload {
    /// Exact body length of the [`Frame::SynopsisExchange`] encoding.
    pub fn wire_size(&self) -> usize {
        self.synopses.wire_size()
            + 1
            + self.sketch.as_ref().map_or(0, FmSketch::wire_size)
            + 1
            + self.bloom.as_ref().map_or(0, BloomFilter::wire_size)
    }
}

/// A top-k search request answered by peers running the serve layer.
/// Peers without a query front end answer [`Frame::Error`]/`Refused`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPayload {
    /// Caller-chosen id echoed in the reply (correlates request/reply
    /// on a shared transport).
    pub query_id: u64,
    /// Number of fused results requested.
    pub k: u32,
    /// Term ids of the (conjunctive-free, bag-of-words) query.
    pub terms: Vec<u32>,
}

impl QueryPayload {
    /// Exact body length of the [`Frame::QueryRequest`] encoding.
    pub fn wire_size(&self) -> usize {
        8 + 4 + 4 + 4 * self.terms.len()
    }
}

/// One result entry in a [`Frame::QueryReply`]: both the raw tf·idf
/// score and the fused (tf·idf ⊕ JXP authority) score travel, so a
/// client can rank either way without a second round trip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryHit {
    /// Matching page.
    pub page: PageId,
    /// Local tf·idf score from the responder's posting lists.
    pub tfidf: f64,
    /// Fused score combining tf·idf with the responder's live JXP
    /// authority estimate.
    pub fused: f64,
}

/// A peer's answer to a [`Frame::QueryRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReplyPayload {
    /// Responding node's id.
    pub node_id: u64,
    /// Echo of the request's `query_id`.
    pub query_id: u64,
    /// The responder's score epoch when the result set was computed.
    /// Advances after every absorbed meeting; clients can detect how
    /// fresh the authority component is.
    pub epoch: u64,
    /// Whether the result set was served from the responder's LRU cache.
    pub cached: bool,
    /// Fused top-k hits, highest fused score first.
    pub hits: Vec<QueryHit>,
}

impl QueryReplyPayload {
    /// Exact body length of the [`Frame::QueryReply`] encoding.
    pub fn wire_size(&self) -> usize {
        8 + 8 + 8 + 1 + 4 + 20 * self.hits.len()
    }
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Handshake: sender's node id and local fragment size.
    Hello {
        /// Sender's stable node identifier.
        node_id: u64,
        /// Number of pages in the sender's fragment.
        num_pages: u64,
    },
    /// A meeting initiation carrying the initiator's full payload.
    MeetRequest(MeetingPayload),
    /// The responder's payload, completing the exchange.
    MeetReply(MeetingPayload),
    /// Synopses for pre-meetings partner scoring and `N` estimation.
    SynopsisExchange(SynopsisPayload),
    /// Negative reply: the peer refuses or cannot process a frame.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// A top-k search request. Peers without a serve layer answer
    /// [`Frame::Error`]/`Refused`.
    QueryRequest(QueryPayload),
    /// A peer's fused top-k result set.
    QueryReply(QueryReplyPayload),
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => TYPE_HELLO,
            Frame::MeetRequest(_) => TYPE_MEET_REQUEST,
            Frame::MeetReply(_) => TYPE_MEET_REPLY,
            Frame::SynopsisExchange(_) => TYPE_SYNOPSIS_EXCHANGE,
            Frame::Error { .. } => TYPE_ERROR,
            Frame::QueryRequest(_) => TYPE_QUERY_REQUEST,
            Frame::QueryReply(_) => TYPE_QUERY_REPLY,
        }
    }

    /// Exact body length of this frame's encoding.
    pub fn body_len(&self) -> usize {
        match self {
            Frame::Hello { .. } => 8 + 8,
            Frame::MeetRequest(p) | Frame::MeetReply(p) => p.wire_size(),
            Frame::SynopsisExchange(s) => s.wire_size(),
            Frame::Error { detail, .. } => 2 + 4 + detail.len(),
            Frame::QueryRequest(q) => q.wire_size(),
            Frame::QueryReply(r) => r.wire_size(),
        }
    }
}

/// Exact length of [`encode_frame`]'s output for `frame`, without
/// encoding: header plus body.
pub fn encoded_len(frame: &Frame) -> usize {
    HEADER_LEN + frame.body_len()
}

/// Which of the two meeting frames a payload travels in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeetingFrame {
    /// [`Frame::MeetRequest`].
    Request,
    /// [`Frame::MeetReply`].
    Reply,
}

/// Encode a borrowed payload as the frame `kind` names — byte for byte
/// what [`encode_frame`] gives for the owned [`Frame`], without building
/// (or cloning into) one. For callers that keep the payload: a journal,
/// a simulator.
pub fn encode_meeting_frame(kind: MeetingFrame, payload: &MeetingPayload) -> Vec<u8> {
    let type_byte = match kind {
        MeetingFrame::Request => TYPE_MEET_REQUEST,
        MeetingFrame::Reply => TYPE_MEET_REPLY,
    };
    let mut buf = start_frame(type_byte, payload.wire_size());
    encode_meeting_payload(&mut buf, payload);
    debug_assert_eq!(buf.len(), buf.capacity(), "wire_size out of sync");
    buf
}

/// A buffer sized for the whole frame, header written.
fn start_frame(type_byte: u8, body_len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + body_len);
    buf.put_slice(&MAGIC);
    buf.put_u16_le(PROTOCOL_VERSION);
    buf.put_u8(type_byte);
    buf.put_u8(0); // flags
    buf.put_u32_le(body_len as u32);
    buf
}

/// Encode one frame, header included.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let body_len = frame.body_len();
    let mut buf = start_frame(frame.type_byte(), body_len);
    match frame {
        Frame::Hello { node_id, num_pages } => {
            buf.put_u64_le(*node_id);
            buf.put_u64_le(*num_pages);
        }
        Frame::MeetRequest(p) | Frame::MeetReply(p) => encode_meeting_payload(&mut buf, p),
        Frame::SynopsisExchange(s) => {
            encode_mips(&mut buf, &s.synopses.local);
            encode_mips(&mut buf, &s.synopses.successors);
            match &s.sketch {
                Some(fm) => {
                    buf.put_u8(1);
                    buf.put_u32_le(fm.num_buckets() as u32);
                    for &w in fm.bitmaps() {
                        buf.put_u64_le(w);
                    }
                }
                None => buf.put_u8(0),
            }
            encode_bloom(&mut buf, s.bloom.as_ref());
        }
        Frame::Error { code, detail } => {
            buf.put_u16_le(code.to_u16());
            buf.put_u32_le(detail.len() as u32);
            buf.put_slice(detail.as_bytes());
        }
        Frame::QueryRequest(q) => {
            buf.put_u64_le(q.query_id);
            buf.put_u32_le(q.k);
            buf.put_u32_le(q.terms.len() as u32);
            for &t in &q.terms {
                buf.put_u32_le(t);
            }
        }
        Frame::QueryReply(r) => {
            buf.put_u64_le(r.node_id);
            buf.put_u64_le(r.query_id);
            buf.put_u64_le(r.epoch);
            buf.put_u8(u8::from(r.cached));
            buf.put_u32_le(r.hits.len() as u32);
            for h in &r.hits {
                buf.put_u32_le(h.page.0);
                buf.put_f64_le(h.tfidf);
                buf.put_f64_le(h.fused);
            }
        }
    }
    debug_assert_eq!(buf.len(), HEADER_LEN + body_len, "body_len out of sync");
    buf
}

/// Decode one frame from the front of `input`. Returns the frame and the
/// number of bytes consumed, so successive frames can be decoded from one
/// buffer. A short `input` yields [`WireError::Truncated`] with the total
/// length needed, letting stream readers fetch the remainder.
pub fn decode_frame(input: &[u8]) -> Result<(Frame, usize), WireError> {
    if input.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            got: input.len(),
        });
    }
    let mut header = &input[..HEADER_LEN];
    let mut magic = [0u8; 4];
    header.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = header.get_u16_le();
    if version != PROTOCOL_VERSION {
        return Err(WireError::VersionMismatch {
            got: version,
            expected: PROTOCOL_VERSION,
        });
    }
    let frame_type = header.get_u8();
    if header.get_u8() != 0 {
        return Err(WireError::Malformed("non-zero flags"));
    }
    let body_len = header.get_u32_le() as usize;
    if body_len > MAX_BODY_LEN {
        return Err(WireError::OversizedBody(body_len));
    }
    let total = HEADER_LEN + body_len;
    if input.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            got: input.len(),
        });
    }
    let mut body = &input[HEADER_LEN..total];
    let frame = match frame_type {
        TYPE_HELLO => {
            let node_id = take_u64(&mut body)?;
            let num_pages = take_u64(&mut body)?;
            Frame::Hello { node_id, num_pages }
        }
        TYPE_MEET_REQUEST => {
            Frame::MeetRequest(decode_meeting_payload(&mut body).map_err(malformed)?)
        }
        TYPE_MEET_REPLY => Frame::MeetReply(decode_meeting_payload(&mut body).map_err(malformed)?),
        TYPE_SYNOPSIS_EXCHANGE => {
            let local = decode_mips(&mut body)?;
            let successors = decode_mips(&mut body)?;
            let sketch = match take_u8(&mut body)? {
                0 => None,
                1 => {
                    let buckets = take_u32(&mut body)? as usize;
                    if buckets == 0 {
                        return Err(WireError::Malformed("zero-bucket FM sketch"));
                    }
                    let words = take_u64_vec(&mut body, buckets)?;
                    Some(FmSketch::from_bitmaps(words))
                }
                _ => return Err(WireError::Malformed("bad sketch presence byte")),
            };
            let bloom = decode_bloom(&mut body).map_err(malformed)?;
            Frame::SynopsisExchange(SynopsisPayload {
                synopses: PeerSynopses { local, successors },
                sketch,
                bloom,
            })
        }
        TYPE_ERROR => {
            let code = ErrorCode::from_u16(take_u16(&mut body)?)?;
            let len = take_u32(&mut body)? as usize;
            if body.remaining() < len {
                return Err(WireError::Malformed("error detail overruns body"));
            }
            let mut raw = vec![0u8; len];
            body.copy_to_slice(&mut raw);
            let detail =
                String::from_utf8(raw).map_err(|_| WireError::Malformed("error detail utf-8"))?;
            Frame::Error { code, detail }
        }
        TYPE_QUERY_REQUEST => {
            let query_id = take_u64(&mut body)?;
            let k = take_u32(&mut body)?;
            let num_terms = take_u32(&mut body)? as usize;
            check_claimed(&body, num_terms, 4)?;
            let mut terms = Vec::with_capacity(num_terms);
            for _ in 0..num_terms {
                terms.push(take_u32(&mut body)?);
            }
            Frame::QueryRequest(QueryPayload { query_id, k, terms })
        }
        TYPE_QUERY_REPLY => {
            let node_id = take_u64(&mut body)?;
            let query_id = take_u64(&mut body)?;
            let epoch = take_u64(&mut body)?;
            let cached = match take_u8(&mut body)? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed("bad cached flag byte")),
            };
            let num_hits = take_u32(&mut body)? as usize;
            check_claimed(&body, num_hits, 20)?;
            let mut hits = Vec::with_capacity(num_hits);
            for _ in 0..num_hits {
                hits.push(QueryHit {
                    page: PageId(take_u32(&mut body)?),
                    tfidf: take_f64(&mut body)?,
                    fused: take_f64(&mut body)?,
                });
            }
            Frame::QueryReply(QueryReplyPayload {
                node_id,
                query_id,
                epoch,
                cached,
                hits,
            })
        }
        other => return Err(WireError::UnknownFrameType(other)),
    };
    if body.has_remaining() {
        return Err(WireError::Malformed("trailing bytes in body"));
    }
    Ok((frame, total))
}

fn malformed(e: CodecError) -> WireError {
    WireError::Malformed(e.0)
}

fn encode_mips(buf: &mut Vec<u8>, v: &MipsVector) {
    buf.put_u32_le(v.dims() as u32);
    buf.put_u64_le(v.count());
    for &m in v.mins() {
        buf.put_u64_le(m);
    }
}

fn decode_mips(body: &mut &[u8]) -> Result<MipsVector, WireError> {
    let dims = take_u32(body)? as usize;
    if dims == 0 {
        return Err(WireError::Malformed("zero-dimension MIPs vector"));
    }
    let count = take_u64(body)?;
    let mins = take_u64_vec(body, dims)?;
    Ok(MipsVector::from_parts(mins, count))
}

/// Reject length fields that claim more elements than the remaining body
/// could possibly hold (each element is at least `min_elem` bytes), before
/// `Vec::with_capacity` turns a corrupt length into a huge allocation.
fn check_claimed(body: &&[u8], claimed: usize, min_elem: usize) -> Result<(), WireError> {
    if claimed > body.remaining() / min_elem {
        return Err(WireError::Malformed("length field overruns body"));
    }
    Ok(())
}

macro_rules! take {
    ($name:ident, $t:ty, $get:ident, $n:expr) => {
        fn $name(body: &mut &[u8]) -> Result<$t, WireError> {
            if body.remaining() < $n {
                return Err(WireError::Malformed("field overruns body"));
            }
            Ok(body.$get())
        }
    };
}

take!(take_u8, u8, get_u8, 1);
take!(take_u16, u16, get_u16_le, 2);
take!(take_u32, u32, get_u32_le, 4);
take!(take_u64, u64, get_u64_le, 8);
take!(take_f64, f64, get_f64_le, 8);

fn take_u64_vec(body: &mut &[u8], n: usize) -> Result<Vec<u64>, WireError> {
    if body.remaining() < n * 8 {
        return Err(WireError::Malformed("u64 array overruns body"));
    }
    Ok((0..n).map(|_| body.get_u64_le()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxp_core::payload::MAX_BLOOM_HASHES;
    use jxp_synopses::mips::MipsPermutations;
    use jxp_webgraph::codec::put_varint;

    fn hello() -> Frame {
        Frame::Hello {
            node_id: 1,
            num_pages: 2,
        }
    }

    fn sample_payload() -> MeetingPayload {
        let mut interest = BloomFilter::new(128, 3);
        interest.insert(0);
        interest.insert(1);
        let mut p = MeetingPayload::default();
        p.push_page(PageId(0), 0.25, 3, [PageId(1), PageId(7)]);
        p.push_page(PageId(1), 0.5, 0, []);
        p.unlinked = vec![PageId(4), PageId(5)];
        p.push_world(PageId(7), 3, 0.125, [PageId(0)]);
        p.world_dangling = vec![(PageId(9), 0.0625)];
        p.world_score = 0.0625;
        p.interest = Some(interest);
        p.cut_for = 0xC0FF_EE00_0000_0001;
        p
    }

    fn sample_synopses() -> SynopsisPayload {
        let perms = MipsPermutations::generate(16, 5);
        let local = MipsVector::from_elements(&perms, 0..40u64);
        let successors = MipsVector::from_elements(&perms, 20..90u64);
        let mut sketch = FmSketch::new(32);
        let mut bloom = BloomFilter::new(256, 4);
        for x in 0..40u64 {
            sketch.insert(x);
            bloom.insert(x);
        }
        SynopsisPayload {
            synopses: PeerSynopses { local, successors },
            sketch: Some(sketch),
            bloom: Some(bloom),
        }
    }

    #[test]
    fn meeting_body_is_exactly_wire_size() {
        // With every receiver-filter field in use, and with none of
        // them: the bare ids 4 and 5 cost a byte each (4, then gap 1).
        let full = sample_payload();
        let mut bare = full.clone();
        bare.unlinked.clear();
        bare.interest = None;
        bare.cut_for = 0;
        assert_eq!(
            full.wire_size(),
            bare.wire_size() + 2 + full.interest.as_ref().unwrap().wire_size()
        );
        // Fixed fields 8 + 8 + 1 and four 1-byte section counts; pages
        // 0 (3 links, carrying 1 and 7) and 1 (dangling); world record
        // 7 → {0}; dangling entry 9.
        assert_eq!(
            bare.wire_size(),
            17 + 4 + (1 + 8 + 1 + 1 + 2) + (1 + 8 + 1 + 1) + (1 + 1 + 8 + 1 + 1) + (1 + 8)
        );
        for p in [full, bare] {
            let frame = Frame::MeetRequest(p.clone());
            let encoded = encode_frame(&frame);
            assert_eq!(encoded.len(), HEADER_LEN + p.wire_size());
            assert_eq!(encoded.len(), encoded_len(&frame));
        }
    }

    #[test]
    fn borrowed_meeting_encoding_equals_the_owned_frames() {
        let p = sample_payload();
        assert_eq!(
            encode_meeting_frame(MeetingFrame::Request, &p),
            encode_frame(&Frame::MeetRequest(p.clone()))
        );
        assert_eq!(
            encode_meeting_frame(MeetingFrame::Reply, &p),
            encode_frame(&Frame::MeetReply(p.clone()))
        );
    }

    #[test]
    fn synopsis_body_is_exactly_wire_sizes() {
        let s = sample_synopses();
        let expected = s.synopses.local.wire_size()
            + s.synopses.successors.wire_size()
            + 1
            + s.sketch.as_ref().unwrap().wire_size()
            + 1
            + s.bloom.as_ref().unwrap().wire_size();
        let frame = Frame::SynopsisExchange(s);
        assert_eq!(encode_frame(&frame).len(), HEADER_LEN + expected);
    }

    #[test]
    fn meeting_roundtrip_preserves_payload() {
        let p = sample_payload();
        let encoded = encode_frame(&Frame::MeetReply(p.clone()));
        let (decoded, used) = decode_frame(&encoded).unwrap();
        assert_eq!(used, encoded.len());
        match decoded {
            Frame::MeetReply(q) => assert_eq!(p, q),
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn synopsis_roundtrip_preserves_estimates() {
        let s = sample_synopses();
        let encoded = encode_frame(&Frame::SynopsisExchange(s.clone()));
        let (decoded, _) = decode_frame(&encoded).unwrap();
        let Frame::SynopsisExchange(d) = decoded else {
            panic!("wrong frame");
        };
        assert_eq!(d.synopses.local, s.synopses.local);
        assert_eq!(d.synopses.successors, s.synopses.successors);
        assert_eq!(d.sketch, s.sketch);
        assert_eq!(d.bloom, s.bloom);
    }

    #[test]
    fn successive_frames_decode_from_one_buffer() {
        let mut buf = encode_frame(&Frame::Hello {
            node_id: 3,
            num_pages: 99,
        });
        buf.extend_from_slice(&encode_frame(&hello()));
        let (first, used) = decode_frame(&buf).unwrap();
        assert!(matches!(first, Frame::Hello { node_id: 3, .. }));
        let (second, used2) = decode_frame(&buf[used..]).unwrap();
        assert_eq!(second, hello());
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn error_frame_roundtrips() {
        let encoded = encode_frame(&Frame::Error {
            code: ErrorCode::Busy,
            detail: "in another meeting".into(),
        });
        let (decoded, _) = decode_frame(&encoded).unwrap();
        match decoded {
            Frame::Error { code, detail } => {
                assert_eq!(code, ErrorCode::Busy);
                assert_eq!(detail, "in another meeting");
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    fn sample_query() -> QueryPayload {
        QueryPayload {
            query_id: 42,
            k: 10,
            terms: vec![3, 17, 99],
        }
    }

    fn sample_query_reply() -> QueryReplyPayload {
        QueryReplyPayload {
            node_id: 5,
            query_id: 42,
            epoch: 13,
            cached: true,
            hits: vec![
                QueryHit {
                    page: PageId(7),
                    tfidf: 2.5,
                    fused: 0.9,
                },
                QueryHit {
                    page: PageId(1),
                    tfidf: 1.25,
                    fused: 0.4,
                },
            ],
        }
    }

    #[test]
    fn query_frames_roundtrip_at_exact_wire_size() {
        let q = sample_query();
        let encoded = encode_frame(&Frame::QueryRequest(q.clone()));
        assert_eq!(encoded.len(), HEADER_LEN + q.wire_size());
        let (decoded, used) = decode_frame(&encoded).unwrap();
        assert_eq!(used, encoded.len());
        assert_eq!(decoded, Frame::QueryRequest(q));

        let r = sample_query_reply();
        let encoded = encode_frame(&Frame::QueryReply(r.clone()));
        assert_eq!(encoded.len(), HEADER_LEN + r.wire_size());
        let (decoded, used) = decode_frame(&encoded).unwrap();
        assert_eq!(used, encoded.len());
        assert_eq!(decoded, Frame::QueryReply(r));
    }

    #[test]
    fn empty_query_and_reply_roundtrip() {
        let q = QueryPayload {
            query_id: 0,
            k: 0,
            terms: vec![],
        };
        let (decoded, _) = decode_frame(&encode_frame(&Frame::QueryRequest(q.clone()))).unwrap();
        assert_eq!(decoded, Frame::QueryRequest(q));
        let r = QueryReplyPayload {
            node_id: 0,
            query_id: 0,
            epoch: 0,
            cached: false,
            hits: vec![],
        };
        let (decoded, _) = decode_frame(&encode_frame(&Frame::QueryReply(r.clone()))).unwrap();
        assert_eq!(decoded, Frame::QueryReply(r));
    }

    #[test]
    fn corrupt_query_lengths_are_rejected_without_allocating() {
        // Term count is the u32 at offset 12 (query_id) + 4 (k).
        let mut encoded = encode_frame(&Frame::QueryRequest(sample_query()));
        let off = HEADER_LEN + 8 + 4;
        encoded[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(&encoded),
            Err(WireError::Malformed("length field overruns body"))
        );
        // Hit count sits after node_id + query_id + epoch + cached flag.
        let mut encoded = encode_frame(&Frame::QueryReply(sample_query_reply()));
        let off = HEADER_LEN + 8 + 8 + 8 + 1;
        encoded[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(&encoded),
            Err(WireError::Malformed("length field overruns body"))
        );
    }

    #[test]
    fn bad_cached_flag_byte_is_rejected() {
        let mut encoded = encode_frame(&Frame::QueryReply(sample_query_reply()));
        encoded[HEADER_LEN + 24] = 7;
        assert_eq!(
            decode_frame(&encoded),
            Err(WireError::Malformed("bad cached flag byte"))
        );
    }

    #[test]
    fn truncated_query_reply_body_is_rejected() {
        let encoded = encode_frame(&Frame::QueryReply(sample_query_reply()));
        let mut short = encoded.clone();
        short.truncate(HEADER_LEN + 30);
        short[8..12].copy_from_slice(&30u32.to_le_bytes());
        assert_eq!(
            decode_frame(&short),
            Err(WireError::Malformed("length field overruns body"))
        );
    }

    #[test]
    fn reserved_type_bytes_are_unknown_frames() {
        for ty in [5u8, 7, 8] {
            for body_len in [0usize, 64] {
                let mut frame = start_frame(ty, body_len);
                frame.resize(HEADER_LEN + body_len, 0);
                assert_eq!(decode_frame(&frame), Err(WireError::UnknownFrameType(ty)));
            }
        }
    }

    #[test]
    fn truncated_header_and_body_are_reported() {
        let encoded = encode_frame(&Frame::Hello {
            node_id: 1,
            num_pages: 2,
        });
        assert_eq!(
            decode_frame(&encoded[..5]),
            Err(WireError::Truncated {
                needed: HEADER_LEN,
                got: 5
            })
        );
        assert_eq!(
            decode_frame(&encoded[..HEADER_LEN + 3]),
            Err(WireError::Truncated {
                needed: encoded.len(),
                got: HEADER_LEN + 3
            })
        );
    }

    #[test]
    fn version_mismatch_is_detected() {
        let mut encoded = encode_frame(&hello());
        encoded[4] = 0xFF; // clobber version
        assert_eq!(
            decode_frame(&encoded),
            Err(WireError::VersionMismatch {
                got: u16::from_le_bytes([0xFF, 0x00]),
                expected: PROTOCOL_VERSION
            })
        );
    }

    #[test]
    fn bad_magic_and_unknown_type_are_detected() {
        let mut encoded = encode_frame(&hello());
        encoded[0] = b'X';
        assert!(matches!(
            decode_frame(&encoded),
            Err(WireError::BadMagic(_))
        ));
        let mut encoded = encode_frame(&hello());
        encoded[6] = 0x7F;
        assert_eq!(
            decode_frame(&encoded),
            Err(WireError::UnknownFrameType(0x7F))
        );
    }

    #[test]
    fn corrupt_length_field_is_rejected_without_allocating() {
        let p = sample_payload();
        let encoded = encode_frame(&Frame::MeetRequest(p.clone()));
        // Swap the one-byte page count — after world_score, cut_for and
        // the sender's filter with its presence byte — for a claim of
        // u32::MAX pages, and fix up the header's body length.
        let off = HEADER_LEN + 8 + 8 + 1 + p.interest.as_ref().unwrap().wire_size();
        assert_eq!(encoded[off], 2);
        let mut forged = encoded[..off].to_vec();
        put_varint(&mut forged, u64::from(u32::MAX));
        forged.extend_from_slice(&encoded[off + 1..]);
        let body_len = (forged.len() - HEADER_LEN) as u32;
        forged[8..12].copy_from_slice(&body_len.to_le_bytes());
        assert_eq!(
            decode_frame(&forged),
            Err(WireError::Malformed("length field overruns body"))
        );
    }

    /// A meeting frame around a hand-written protocol-3 body: no filter,
    /// then `sections` (counts, ids, degrees and scores in wire order).
    fn hand_body(sections: &[Field]) -> Vec<u8> {
        let mut body = Vec::new();
        body.put_f64_le(0.5);
        body.put_u64_le(1);
        body.put_u8(0);
        for field in sections {
            match *field {
                Field::V(v) => put_varint(&mut body, v),
                Field::Score => body.put_f64_le(0.01),
            }
        }
        let mut frame = start_frame(TYPE_MEET_REQUEST, body.len());
        frame.extend_from_slice(&body);
        frame
    }

    /// One field of a hand-written body: a varint, or an 8-byte score.
    #[derive(Clone, Copy)]
    enum Field {
        V(u64),
        Score,
    }

    #[test]
    fn a_zero_gap_is_malformed_so_no_unsorted_list_comes_off_the_wire() {
        use Field::{Score, V};
        // Each body has one list of two ids, the second written as gap
        // `g`: at g = 1 it decodes, at g = 0 (the same id twice) not.
        type Body = fn(u64) -> Vec<Field>;
        let cases: [(&str, Body); 6] = [
            ("page records", |g| {
                let page = |id| [V(id), Score, V(0), V(0)];
                [vec![V(2)], page(3).into(), page(g).into(), vec![V(0); 3]].concat()
            }),
            ("out-links", |g| {
                vec![V(1), V(3), Score, V(2), V(2), V(7), V(g), V(0), V(0), V(0)]
            }),
            ("bare ids", |g| vec![V(0), V(2), V(4), V(g), V(0), V(0)]),
            ("world records", |g| {
                let record = |src| [V(src), V(1), Score, V(0)];
                [
                    vec![V(0), V(0), V(2)],
                    record(9).into(),
                    record(g).into(),
                    vec![V(0)],
                ]
                .concat()
            }),
            ("world targets", |g| {
                vec![V(0), V(0), V(1), V(9), V(3), Score, V(2), V(1), V(g), V(0)]
            }),
            ("dangling", |g| {
                vec![V(0), V(0), V(0), V(2), V(5), Score, V(g), Score]
            }),
        ];
        for (what, body) in cases {
            assert!(decode_frame(&hand_body(&body(1))).is_ok(), "{what}");
            assert_eq!(
                decode_frame(&hand_body(&body(0))),
                Err(WireError::Malformed("zero gap in id list")),
                "{what}"
            );
        }
    }

    #[test]
    fn varints_must_be_canonical_and_ids_fit_u32() {
        use Field::V;
        // One bare id, 5, written in two bytes instead of one.
        let mut padded = hand_body(&[V(0), V(1), V(5), V(0), V(0)]);
        assert!(decode_frame(&padded).is_ok());
        let at = HEADER_LEN + 17 + 2;
        padded[at] = 0x85;
        padded.insert(at + 1, 0x00);
        let body_len = (padded.len() - HEADER_LEN) as u32;
        padded[8..12].copy_from_slice(&body_len.to_le_bytes());
        assert_eq!(
            decode_frame(&padded),
            Err(WireError::Malformed("non-canonical varint"))
        );
        // A first id, or a gap, past u32::MAX.
        let over = u64::from(u32::MAX) + 1;
        for ids in [
            vec![V(1), V(over)],
            vec![V(2), V(u64::from(u32::MAX)), V(1)],
        ] {
            let mut body = vec![V(0)];
            body.extend(ids);
            body.extend([V(0), V(0)]);
            assert_eq!(
                decode_frame(&hand_body(&body)),
                Err(WireError::Malformed("id exceeds u32"))
            );
        }
        // A ten-byte varint that overflows u64.
        let mut overlong = hand_body(&[V(0), V(0), V(0), V(0)]);
        let at = HEADER_LEN + 17;
        overlong.splice(at..at + 1, [0xff; 9].into_iter().chain([0x02]));
        let body_len = (overlong.len() - HEADER_LEN) as u32;
        overlong[8..12].copy_from_slice(&body_len.to_le_bytes());
        assert_eq!(
            decode_frame(&overlong),
            Err(WireError::Malformed("varint overflows u64"))
        );
    }

    #[test]
    fn bloom_filter_claiming_absurd_hash_count_is_rejected() {
        let mut p = sample_payload();
        let words = p.interest.as_ref().unwrap().words().to_vec();
        p.interest = Some(BloomFilter::from_parts(words.clone(), MAX_BLOOM_HASHES, 2));
        let encoded = encode_frame(&Frame::MeetRequest(p.clone()));
        assert!(decode_frame(&encoded).is_ok());
        p.interest = Some(BloomFilter::from_parts(words, MAX_BLOOM_HASHES + 1, 2));
        assert_eq!(
            decode_frame(&encode_frame(&Frame::MeetRequest(p))),
            Err(WireError::Malformed("degenerate bloom filter"))
        );
    }

    #[test]
    fn oversized_declared_body_is_rejected() {
        let mut encoded = encode_frame(&hello());
        encoded[8..12].copy_from_slice(&(MAX_BODY_LEN as u32 + 1).to_le_bytes());
        assert_eq!(
            decode_frame(&encoded),
            Err(WireError::OversizedBody(MAX_BODY_LEN + 1))
        );
    }

    #[test]
    fn trailing_bytes_in_body_are_rejected() {
        let mut encoded = encode_frame(&hello());
        encoded.push(0xAB);
        encoded[8..12].copy_from_slice(&17u32.to_le_bytes());
        assert_eq!(
            decode_frame(&encoded),
            Err(WireError::Malformed("trailing bytes in body"))
        );
    }
}
