//! Property tests: every frame type must survive encode → decode
//! unchanged, report its length exactly, and the decoder must reject
//! truncations and version clobbering at every position.

use jxp_core::payload::MeetingPayload;
use jxp_core::selection::PeerSynopses;
use jxp_synopses::bloom::BloomFilter;
use jxp_synopses::fm_sketch::FmSketch;
use jxp_synopses::mips::MipsVector;
use jxp_webgraph::PageId;
use jxp_wire::{
    decode_frame, encode_frame, encode_meeting_frame, encoded_len, ErrorCode, Frame,
    FrameAccumulator, MeetingFrame, QueryHit, QueryPayload, QueryReplyPayload, SynopsisPayload,
    WireError, HEADER_LEN, MAGIC, MAX_BODY_LEN,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Strictly ascending ids: every id list of a meeting body is gap-coded,
/// so the protocol carries nothing else (`MeetingPayload::validate`
/// requires the same).
fn page_ids() -> impl Strategy<Value = Vec<PageId>> {
    vec(0u32..50_000, 0..6).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v.into_iter().map(PageId).collect()
    })
}

/// Sort records by id and keep the first of each id.
fn ascending<T>(mut records: Vec<T>, id: impl Fn(&T) -> PageId) -> Vec<T> {
    records.sort_by_key(&id);
    records.dedup_by_key(|r| id(r));
    records
}

fn optional_blooms() -> impl Strategy<Value = Option<BloomFilter>> {
    (0u8..2, vec(0u64..u64::MAX, 1..16), 1u32..8, 0u64..1000).prop_map(
        |(on, bits, hashes, inserted)| {
            (on == 1).then(|| BloomFilter::from_parts(bits, hashes, inserted))
        },
    )
}

fn meeting_payloads() -> impl Strategy<Value = MeetingPayload> {
    let records = || {
        vec((0u32..50_000, -1.0f64..1.0, 0u32..100, page_ids()), 0..5)
            .prop_map(|records| ascending(records, |r| PageId(r.0)))
    };
    let dangling = vec((0u32..50_000, 0.0f64..1.0), 0..4).prop_map(|entries| {
        let records = entries.into_iter().map(|(p, s)| (PageId(p), s)).collect();
        ascending(records, |r| r.0)
    });
    let filtering = (page_ids(), optional_blooms(), 0u64..u64::MAX);
    (records(), records(), dangling, 0.0f64..1.0, filtering).prop_map(
        |(pages, world, world_dangling, world_score, (unlinked, interest, cut_for))| {
            let mut p = MeetingPayload::default();
            for (page, score, out_degree, succs) in pages {
                p.push_page(PageId(page), score, out_degree, succs);
            }
            for (src, score, out_degree, targets) in world {
                p.push_world(PageId(src), out_degree, score, targets);
            }
            p.unlinked = unlinked;
            p.world_dangling = world_dangling;
            p.world_score = world_score;
            p.interest = interest;
            p.cut_for = cut_for;
            p
        },
    )
}

fn mips_vectors() -> impl Strategy<Value = MipsVector> {
    (vec(0u64..u64::MAX, 1..40), 0u64..10_000)
        .prop_map(|(mins, count)| MipsVector::from_parts(mins, count))
}

fn synopsis_payloads() -> impl Strategy<Value = SynopsisPayload> {
    let optional_sketch = (0u8..2, vec(0u64..u64::MAX, 1..16))
        .prop_map(|(on, bitmaps)| (on == 1).then(|| FmSketch::from_bitmaps(bitmaps)));
    (
        mips_vectors(),
        mips_vectors(),
        optional_sketch,
        optional_blooms(),
    )
        .prop_map(|(local, successors, sketch, bloom)| SynopsisPayload {
            synopses: PeerSynopses { local, successors },
            sketch,
            bloom,
        })
}

fn query_payloads() -> impl Strategy<Value = QueryPayload> {
    (0u64..u64::MAX, 0u32..1000, vec(0u32..100_000, 0..12))
        .prop_map(|(query_id, k, terms)| QueryPayload { query_id, k, terms })
}

fn query_replies() -> impl Strategy<Value = QueryReplyPayload> {
    let hits = vec((0u32..50_000, 0.0f64..100.0, 0.0f64..2.0), 0..10).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(page, tfidf, fused)| QueryHit {
                page: PageId(page),
                tfidf,
                fused,
            })
            .collect::<Vec<_>>()
    });
    (0u64..u64::MAX, 0u64..u64::MAX, 0u64..100_000, 0u8..2, hits).prop_map(
        |(node_id, query_id, epoch, cached, hits)| QueryReplyPayload {
            node_id,
            query_id,
            epoch,
            cached: cached == 1,
            hits,
        },
    )
}

/// One strategy covering every frame type: the selector picks a variant
/// and the components feed it.
fn frames() -> impl Strategy<Value = Frame> {
    (
        0u8..7,
        (0u64..u64::MAX, 0u64..1_000_000),
        meeting_payloads(),
        synopsis_payloads(),
        vec(32u8..127, 0..40),
        (query_payloads(), query_replies()),
    )
        .prop_map(
            |(selector, (node_id, num_pages), meeting, synopsis, detail, (query, reply))| {
                match selector {
                    0 => Frame::Hello { node_id, num_pages },
                    1 => Frame::MeetRequest(meeting),
                    2 => Frame::MeetReply(meeting),
                    3 => Frame::SynopsisExchange(synopsis),
                    4 => Frame::QueryRequest(query),
                    5 => Frame::QueryReply(reply),
                    _ => Frame::Error {
                        code: ErrorCode::Busy,
                        detail: String::from_utf8(detail).unwrap(),
                    },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn every_frame_roundtrips(frame in frames()) {
        let bytes = encode_frame(&frame);
        prop_assert_eq!(bytes.len(), encoded_len(&frame));
        let (decoded, consumed) = decode_frame(&bytes).expect("decode");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn every_truncation_is_rejected(frame in frames(), cut in 0.0f64..1.0) {
        let bytes = encode_frame(&frame);
        // Cut anywhere strictly before the end, header included.
        let keep = (bytes.len() as f64 * cut) as usize;
        prop_assert!(keep < bytes.len());
        match decode_frame(&bytes[..keep]) {
            Err(WireError::Truncated { needed, got }) => {
                prop_assert_eq!(got, keep);
                // The reported requirement never exceeds the true frame
                // length and always asks for more than we gave.
                prop_assert!(needed > keep);
                prop_assert!(needed <= bytes.len());
            }
            other => prop_assert!(false, "expected Truncated, got {:?}", other),
        }
    }

    #[test]
    fn wrong_version_is_rejected(frame in frames(), version in 0u16..1000) {
        let mut bytes = encode_frame(&frame);
        let bad = if version == jxp_wire::PROTOCOL_VERSION { version + 1 } else { version };
        bytes[4..6].copy_from_slice(&bad.to_le_bytes());
        match decode_frame(&bytes) {
            Err(WireError::VersionMismatch { got, expected }) => {
                prop_assert_eq!(got, bad);
                prop_assert_eq!(expected, jxp_wire::PROTOCOL_VERSION);
            }
            other => prop_assert!(false, "expected VersionMismatch, got {:?}", other),
        }
    }

    #[test]
    fn meeting_body_length_always_matches_wire_size(payload in meeting_payloads()) {
        // The borrowing encoder, the one journals and simulators call…
        let borrowed = encode_meeting_frame(MeetingFrame::Reply, &payload);
        prop_assert_eq!(borrowed.len(), HEADER_LEN + payload.wire_size());
        // …gives the owned frame's bytes.
        let frame = Frame::MeetReply(payload);
        prop_assert_eq!(&encode_frame(&frame), &borrowed);
    }

    #[test]
    fn query_body_lengths_always_match_wire_size(
        query in query_payloads(),
        reply in query_replies(),
    ) {
        let bytes = encode_frame(&Frame::QueryRequest(query.clone()));
        prop_assert_eq!(bytes.len(), HEADER_LEN + query.wire_size());
        let bytes = encode_frame(&Frame::QueryReply(reply.clone()));
        prop_assert_eq!(bytes.len(), HEADER_LEN + reply.wire_size());
    }

    #[test]
    fn magic_clobber_is_rejected(frame in frames(), pos in 0usize..4, bad in 0u8..=255) {
        let mut bytes = encode_frame(&frame);
        if bytes[pos] == bad {
            // ensure an actual change
            bytes[pos] = bad.wrapping_add(1);
        } else {
            bytes[pos] = bad;
        }
        prop_assert!(matches!(decode_frame(&bytes), Err(WireError::BadMagic(_))));
    }
}

// ---------------------------------------------------------------------
// FrameAccumulator: streaming reassembly must be byte-identical to
// whole-buffer decoding no matter where the chunk boundaries fall.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn accumulator_matches_whole_buffer_decode_at_any_split(
        stream_frames in vec(frames(), 1..4),
        chunk_sizes in vec(1usize..17, 1..64),
    ) {
        let mut stream = Vec::new();
        for f in &stream_frames {
            stream.extend_from_slice(&encode_frame(f));
        }

        let mut acc = FrameAccumulator::new();
        let mut got = Vec::new();
        let mut offset = 0usize; // bytes fed so far
        let mut consumed = 0usize; // bytes yielded as frames so far
        let mut pick = 0usize;
        while offset < stream.len() {
            let take = chunk_sizes[pick % chunk_sizes.len()].min(stream.len() - offset);
            pick += 1;
            acc.feed(&stream[offset..offset + take]);
            offset += take;
            while let Some((frame, used)) = acc.next_frame().expect("valid stream") {
                // Byte-identical to decoding the same stream whole.
                let (whole, whole_used) =
                    decode_frame(&stream[consumed..]).expect("whole-buffer decode");
                prop_assert_eq!(&frame, &whole);
                prop_assert_eq!(used, whole_used);
                consumed += used;
                got.push(frame);
            }
        }
        prop_assert_eq!(got, stream_frames);
        prop_assert_eq!(consumed, stream.len());
        prop_assert_eq!(acc.buffered(), 0);
    }

    #[test]
    fn accumulator_survives_one_byte_feeds(frame in frames()) {
        let bytes = encode_frame(&frame);
        let mut acc = FrameAccumulator::new();
        for (i, &b) in bytes.iter().enumerate() {
            acc.feed(&[b]);
            let step = acc.next_frame().expect("valid stream");
            if i + 1 < bytes.len() {
                prop_assert_eq!(step, None);
            } else {
                prop_assert_eq!(step, Some((frame.clone(), bytes.len())));
            }
        }
    }

    #[test]
    fn accumulator_rejects_garbage_prefixes_and_stays_poisoned(
        garbage in vec(0u8..=255, 4..40),
        frame in frames(),
    ) {
        let mut garbage = garbage;
        if garbage[..4] == MAGIC {
            garbage[0] ^= 0xff; // force a non-magic prefix
        }
        let mut acc = FrameAccumulator::new();
        acc.feed(&garbage);
        prop_assert!(matches!(acc.next_frame(), Err(WireError::BadMagic(_))));
        // A poisoned stream cannot resynchronize, even on valid bytes.
        acc.feed(&encode_frame(&frame));
        prop_assert!(matches!(acc.next_frame(), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn accumulator_rejects_oversize_lengths_from_the_header_alone(
        frame in frames(),
        extra in 1u32..1000,
    ) {
        let mut bytes = encode_frame(&frame);
        bytes[8..12].copy_from_slice(&((MAX_BODY_LEN as u32) + extra).to_le_bytes());
        let mut acc = FrameAccumulator::new();
        // Header only: the body never needs to arrive to be refused.
        acc.feed(&bytes[..HEADER_LEN]);
        prop_assert!(matches!(
            acc.next_frame(),
            Err(WireError::OversizedBody(_))
        ));
    }

    #[test]
    fn accumulator_keeps_good_frames_before_a_version_clobber(
        good in frames(),
        bad in frames(),
        version in 1u16..1000,
    ) {
        let version = if version == jxp_wire::PROTOCOL_VERSION { version + 1 } else { version };
        let mut stream = encode_frame(&good);
        let mut second = encode_frame(&bad);
        second[4..6].copy_from_slice(&version.to_le_bytes());
        stream.extend_from_slice(&second);

        let mut acc = FrameAccumulator::new();
        acc.feed(&stream);
        let (frame, _) = acc.next_frame().expect("first frame intact").expect("ready");
        prop_assert_eq!(frame, good);
        prop_assert!(matches!(
            acc.next_frame(),
            Err(WireError::VersionMismatch { .. })
        ));
    }
}
