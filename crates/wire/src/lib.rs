#![deny(missing_docs)]
//! Wire protocol for JXP meetings: a versioned, length-prefixed binary
//! framing plus codecs for every message exchanged between peers.

pub mod accum;
pub mod frame;

pub use accum::FrameAccumulator;
pub use frame::{
    decode_frame, encode_frame, encode_meeting_frame, encoded_len, ErrorCode, Frame, MeetingFrame,
    QueryHit, QueryPayload, QueryReplyPayload, SynopsisPayload, WireError, HEADER_LEN, MAGIC,
    MAX_BODY_LEN, PROTOCOL_VERSION,
};
