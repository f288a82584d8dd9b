//! Decode fuzz for the protocol-3 meeting body, over a real cut payload:
//! peer 0's payload to a partner after 300 meetings on Amazon crawler
//! fragments (the `sim_converge` layout at 1/20 scale). Every strict
//! prefix of a frame or journal record is refused, every single-byte
//! flip decodes or is refused without a panic, and a count no body could
//! hold is refused before anything is allocated. Assembling that
//! payload and decoding its frame each take a fixed handful of
//! allocations, however many records it has, and a world node that
//! absorbs a payload it already covers allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jxp::core::{JxpConfig, MeetingPayload};
use jxp::p2pnet::assign::{assign_by_crawlers, CrawlerParams};
use jxp::p2pnet::{Network, NetworkConfig};
use jxp::webgraph::codec::put_varint;
use jxp::webgraph::generators::amazon_2005;
use jxp_store::{encode_wal_record, scan_wal, WalKind, WalRecord, WAL_HEADER_LEN};
use jxp_wire::{decode_frame, encode_frame, Frame, WireError, HEADER_LEN};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts the bytes each thread allocates, and the allocation calls, so
/// one test can show that a decode allocated nothing while other tests
/// run beside it. A `realloc` goes through `alloc`, so it counts as one.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a const-initialised thread-local `Cell` that needs no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        CALLS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated() -> usize {
    ALLOCATED.with(Cell::get)
}

fn allocation_calls() -> usize {
    CALLS.with(Cell::get)
}

/// The network after 300 meetings, and the partner of peer 0 whose cut
/// payload uses every section, so every section's decoder is fuzzed.
fn real_meeting() -> (Network, usize) {
    let cg = amazon_2005().generate_scaled(0.05);
    let params = CrawlerParams {
        peers_per_category: 10,
        seeds_per_peer: 2,
        max_depth: 6,
        max_pages: Some(40),
        max_pages_jitter: 1.0,
        off_category_follow_prob: 0.5,
    };
    let fragments = assign_by_crawlers(&cg, &params, &mut StdRng::seed_from_u64(0xC4A3));
    let config = NetworkConfig {
        jxp: JxpConfig::optimized(),
        ..Default::default()
    };
    let mut net = Network::new(fragments, cg.graph.num_nodes() as u64, config, 7);
    net.run_parallel(300);
    let peers = net.peers();
    let partner = (1..peers.len())
        .find(|&b| {
            let p = peers[0].payload_for(peers[b].interest());
            p.cut_for != 0
                && p.interest.is_some()
                && p.pages().len() > 0
                && !p.unlinked.is_empty()
                && p.world().len() > 0
                && !p.world_dangling.is_empty()
        })
        .expect("a partner that needs every section");
    (net, partner)
}

/// Peer 0's payload cut to a partner's filter, after 300 meetings.
fn real_cut_payload() -> MeetingPayload {
    let (net, partner) = real_meeting();
    net.peers()[0].payload_for(net.peers()[partner].interest())
}

#[test]
fn a_real_meeting_body_survives_every_prefix_and_every_byte_flip() {
    let payload = real_cut_payload();
    let frame = encode_frame(&Frame::MeetRequest(payload.clone()));
    assert_eq!(frame.len(), HEADER_LEN + payload.wire_size());
    for keep in 0..frame.len() {
        assert!(decode_frame(&frame[..keep]).is_err(), "prefix {keep}");
    }
    let mut decoded = 0;
    for at in 0..frame.len() {
        for mask in [0x01, 0x80, 0xff] {
            let mut flipped = frame.clone();
            flipped[at] ^= mask;
            // Whatever decodes re-encodes to the bytes it came from:
            // every varint is canonical and every id list ascending.
            if let Ok((back, used)) = decode_frame(&flipped) {
                assert_eq!(used, flipped.len());
                assert_eq!(encode_frame(&back), flipped, "byte {at} ^ {mask:#x}");
                decoded += 1;
            }
        }
    }
    // Flips inside scores and the filter still decode.
    assert!(decoded > 0);
}

#[test]
fn a_real_journal_record_survives_every_prefix_and_every_byte_flip() {
    let payload = real_cut_payload();
    let record = encode_wal_record(&WalRecord {
        seq: 1,
        kind: WalKind::Serve,
        inbound: payload.clone(),
        outbound: Some(payload),
    });
    assert_eq!(scan_wal(&record).records.len(), 1);
    for keep in 1..record.len() {
        let scan = scan_wal(&record[..keep]);
        assert!(scan.records.is_empty() && scan.torn, "prefix {keep}");
    }
    // A flip with the CRC recomputed reaches the frame decoder.
    for at in WAL_HEADER_LEN..record.len() {
        let mut flipped = record.clone();
        flipped[at] ^= 0xff;
        let crc = jxp_store::crc32(&flipped[WAL_HEADER_LEN..]);
        flipped[4..8].copy_from_slice(&crc.to_le_bytes());
        let scan = scan_wal(&flipped);
        assert!(
            scan.records.len() + usize::from(scan.torn) == 1,
            "byte {at}"
        );
    }
}

#[test]
fn a_count_no_body_could_hold_is_refused_before_allocating() {
    // world_score, cut_for, no filter, then a claim of u32::MAX pages
    // followed by 20 bytes.
    let mut body = vec![0u8; 8 + 8 + 1];
    put_varint(&mut body, u64::from(u32::MAX));
    body.extend_from_slice(&[0u8; 20]);
    let mut frame = encode_frame(&Frame::Ack { of: 0 });
    frame.truncate(HEADER_LEN);
    frame[6] = 2; // MeetRequest
    frame[8..12].copy_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    let before = allocated();
    let got = decode_frame(&frame);
    let used = allocated() - before;
    assert_eq!(got, Err(WireError::Malformed("length field overruns body")));
    assert_eq!(used, 0, "decoding allocated {used} bytes");
}

/// Allocation calls that assembling, or decoding, a meeting payload may
/// make: one per vector — the sender's filter, page records, bare ids,
/// world records, the id arena and dangling entries — one more to give
/// back the arena capacity reserved for the worst case, and the
/// assembler's table of which local pages the filter holds. The cut
/// payload here takes all 8 to assemble and 7 to decode; the same code
/// with a vector per link list took 63 to assemble its 52 records.
const MEETING_ALLOCATIONS: usize = 8;

#[test]
fn assembling_and_decoding_a_meeting_allocate_a_fixed_handful() {
    let (net, partner) = real_meeting();
    let sender = &net.peers()[0];
    // The cut payload the partner gets, and the whole one.
    for filter in [net.peers()[partner].interest(), None] {
        let before = allocation_calls();
        let payload = sender.payload_for(filter);
        let assembling = allocation_calls() - before;
        // A vector per record, as a payload that owns each link list
        // needs, would be far past the bound.
        let records = payload.pages().len() + payload.world().len();
        let request = Frame::MeetRequest(payload);
        let frame = encode_frame(&request);
        let before = allocation_calls();
        let decoded = decode_frame(&frame);
        let decoding = allocation_calls() - before;
        assert_eq!(decoded, Ok((request, frame.len())));
        assert!(records > 4 * MEETING_ALLOCATIONS, "{records} records");
        assert!(
            assembling <= MEETING_ALLOCATIONS,
            "assembling {records} records took {assembling} allocations"
        );
        assert!(
            decoding <= MEETING_ALLOCATIONS,
            "decoding {records} records took {decoding} allocations"
        );
    }
}

#[test]
fn absorbing_a_payload_the_world_node_already_covers_allocates_nothing() {
    let (net, _) = real_meeting();
    let peers = net.peers();
    let combine = JxpConfig::optimized().combine;
    let mut records = 0;
    // Every partner's world node takes peer 0's payload, cut to it, a
    // second time: every record then restates what the first absorb
    // left, so the merge only writes scores in place.
    for receiver in &peers[1..] {
        let payload = peers[0].payload_for(receiver.interest());
        records += payload.pages().len() + payload.unlinked.len() + payload.world().len();
        let mut world = receiver.world().clone();
        world.absorb_light(&payload, receiver.graph(), combine);
        let once = world.clone();
        let before = allocation_calls();
        world.absorb_light(&payload, receiver.graph(), combine);
        let calls = allocation_calls() - before;
        assert_eq!(calls, 0, "a covered payload took {calls} allocations");
        assert_eq!(world, once, "a covered payload changed the world node");
    }
    assert!(records > 1000, "{records} records");
}
