//! Incremental frame accumulation for non-blocking transports.
//!
//! A [`FrameAccumulator`] is fed arbitrary byte chunks as a socket
//! produces them and yields complete decoded frames in arrival order.
//! It validates the fixed 12-byte header *as the bytes arrive* — bad
//! magic is rejected after four bytes, a version mismatch after six, a
//! non-zero flags byte or unknown frame type after eight, an oversized
//! body-length declaration after twelve — so a hostile or corrupt peer
//! is dropped before any multi-megabyte body is buffered. Yielded
//! frames are byte-identical to what a whole-buffer [`decode_frame`]
//! would produce (property-tested in `tests/proptests.rs`).
//!
//! Errors are sticky: a stream that violated the protocol once cannot
//! resynchronize (the framing has no resync marker), so every later
//! [`FrameAccumulator::next_frame`] repeats the same error and the
//! owning connection is expected to close.

use crate::frame::{
    decode_frame, frame_type_known, Frame, WireError, HEADER_LEN, MAGIC, MAX_BODY_LEN,
    PROTOCOL_VERSION,
};

/// Keep at most this much consumed prefix before compacting the buffer.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Streaming decoder: buffer fed chunks, yield complete frames.
#[derive(Debug, Default)]
pub struct FrameAccumulator {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by yielded frames.
    pos: usize,
    /// First protocol violation seen; sticky.
    error: Option<WireError>,
}

impl FrameAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        FrameAccumulator::default()
    }

    /// Append a chunk read off the wire. Chunks may split frames (and
    /// the header itself) at any byte boundary. Feeding a poisoned
    /// accumulator is a no-op.
    pub fn feed(&mut self, chunk: &[u8]) {
        if self.error.is_none() {
            self.buf.extend_from_slice(chunk);
        }
    }

    /// Bytes buffered but not yet consumed by a yielded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The sticky protocol violation, if one occurred.
    pub fn error(&self) -> Option<&WireError> {
        self.error.as_ref()
    }

    /// Yield the next complete frame, `Ok(None)` if more bytes are
    /// needed, or the (sticky) protocol violation. On success the
    /// returned `usize` is the frame's full encoded length — exactly
    /// [`crate::encoded_len`] of the frame.
    pub fn next_frame(&mut self) -> Result<Option<(Frame, usize)>, WireError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        if let Err(e) = self.validate_header_prefix() {
            self.error = Some(e.clone());
            return Err(e);
        }
        if self.buffered() < HEADER_LEN {
            return Ok(None);
        }
        match decode_frame(&self.buf[self.pos..]) {
            Ok((frame, used)) => {
                self.pos += used;
                if self.pos == self.buf.len() {
                    self.buf.clear();
                    self.pos = 0;
                } else if self.pos > COMPACT_THRESHOLD {
                    self.buf.drain(..self.pos);
                    self.pos = 0;
                }
                Ok(Some((frame, used)))
            }
            Err(WireError::Truncated { .. }) => Ok(None),
            Err(e) => {
                self.error = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Reject a doomed stream from the header prefix alone, before the
    /// full header (let alone the body) has arrived. Mirrors
    /// [`decode_frame`]'s validation order; the only check it cannot
    /// anticipate is the body parse itself.
    fn validate_header_prefix(&self) -> Result<(), WireError> {
        let head = &self.buf[self.pos..];
        let have = head.len().min(HEADER_LEN);
        if head[..have.min(4)] != MAGIC[..have.min(4)] {
            let mut magic = [0u8; 4];
            magic[..have.min(4)].copy_from_slice(&head[..have.min(4)]);
            return Err(WireError::BadMagic(magic));
        }
        if have >= 6 {
            let version = u16::from_le_bytes([head[4], head[5]]);
            if version != PROTOCOL_VERSION {
                return Err(WireError::VersionMismatch {
                    got: version,
                    expected: PROTOCOL_VERSION,
                });
            }
        }
        // Flags before type: decode_frame rejects non-zero flags before
        // it ever looks at the type byte, and a poisoned stream should
        // report the same violation either way.
        if have >= 8 && head[7] != 0 {
            return Err(WireError::Malformed("non-zero flags"));
        }
        if have >= 7 && !frame_type_known(head[6]) {
            return Err(WireError::UnknownFrameType(head[6]));
        }
        if have >= HEADER_LEN {
            let body_len = u32::from_le_bytes([head[8], head[9], head[10], head[11]]) as usize;
            if body_len > MAX_BODY_LEN {
                return Err(WireError::OversizedBody(body_len));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, encoded_len, ErrorCode};

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                node_id: 7,
                num_pages: 40,
            },
            Frame::Hello {
                node_id: 8,
                num_pages: 0,
            },
            Frame::Error {
                code: ErrorCode::Busy,
                detail: "later".to_string(),
            },
        ]
    }

    #[test]
    fn whole_buffer_yields_every_frame_in_order() {
        let frames = sample_frames();
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&encode_frame(f));
        }
        let mut acc = FrameAccumulator::new();
        acc.feed(&bytes);
        for want in &frames {
            let (got, used) = acc.next_frame().unwrap().expect("frame ready");
            assert_eq!(&got, want);
            assert_eq!(used, encoded_len(want));
        }
        assert_eq!(acc.next_frame().unwrap(), None);
        assert_eq!(acc.buffered(), 0);
    }

    #[test]
    fn one_byte_feeds_reassemble_the_stream() {
        let frames = sample_frames();
        let mut acc = FrameAccumulator::new();
        let mut got = Vec::new();
        for f in &frames {
            for &b in &encode_frame(f) {
                acc.feed(&[b]);
                while let Some((frame, _)) = acc.next_frame().unwrap() {
                    got.push(frame);
                }
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn bad_magic_rejected_after_four_bytes() {
        let mut acc = FrameAccumulator::new();
        acc.feed(b"JXPX");
        assert!(matches!(acc.next_frame(), Err(WireError::BadMagic(_))));
        // Sticky: feeding more does not revive the stream.
        acc.feed(&encode_frame(&Frame::Hello {
            node_id: 1,
            num_pages: 2,
        }));
        assert!(matches!(acc.next_frame(), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn wrong_version_rejected_after_six_bytes() {
        let mut acc = FrameAccumulator::new();
        let mut head = Vec::from(MAGIC);
        head.extend_from_slice(&9u16.to_le_bytes());
        acc.feed(&head);
        assert!(matches!(
            acc.next_frame(),
            Err(WireError::VersionMismatch { got: 9, .. })
        ));
    }

    #[test]
    fn unknown_type_and_nonzero_flags_rejected_from_the_prefix() {
        // 7 and 8 are reserved: the retired stats frames.
        for ty in [0x7f, 7, 8] {
            let mut acc = FrameAccumulator::new();
            let mut head = Vec::from(MAGIC);
            head.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
            head.push(ty);
            acc.feed(&head);
            assert_eq!(acc.next_frame(), Err(WireError::UnknownFrameType(ty)));
        }

        let mut acc = FrameAccumulator::new();
        let mut head = Vec::from(MAGIC);
        head.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        head.push(1); // Hello
        head.push(0xff); // flags must be zero
        acc.feed(&head);
        assert!(matches!(acc.next_frame(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn oversized_body_rejected_at_the_header_before_buffering_it() {
        let mut acc = FrameAccumulator::new();
        let mut head = Vec::from(MAGIC);
        head.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        head.push(1);
        head.push(0);
        head.extend_from_slice(&((MAX_BODY_LEN as u32) + 1).to_le_bytes());
        acc.feed(&head);
        assert!(matches!(acc.next_frame(), Err(WireError::OversizedBody(_))));
    }

    #[test]
    fn incomplete_header_and_body_wait_for_more() {
        let frame = Frame::Hello {
            node_id: 1,
            num_pages: 2,
        };
        let bytes = encode_frame(&frame);
        let mut acc = FrameAccumulator::new();
        acc.feed(&bytes[..5]);
        assert_eq!(acc.next_frame().unwrap(), None);
        acc.feed(&bytes[5..HEADER_LEN + 3]);
        assert_eq!(acc.next_frame().unwrap(), None);
        acc.feed(&bytes[HEADER_LEN + 3..]);
        assert_eq!(acc.next_frame().unwrap(), Some((frame, bytes.len())));
    }
}
