//! Decode fuzz for the protocol-3 meeting body, over a real cut payload:
//! peer 0's payload to a partner after 300 meetings on Amazon crawler
//! fragments (the `sim_converge` layout at 1/20 scale). Every strict
//! prefix of a frame or journal record is refused, every single-byte
//! flip decodes or is refused without a panic, and a count no body could
//! hold is refused before anything is allocated. Assembling that
//! payload and decoding its frame each take a fixed handful of
//! allocations, however many records it has, and a world node that
//! absorbs a payload it already covers allocates nothing. Peer 0's state
//! at rest gets the same treatment: its `JXPP` snapshot (the same body
//! format behind a header) and the `JXPC` checkpoint file around it,
//! whose CRC is recomputed after each flip so the flips reach the
//! snapshot decoder; loading either allocates within a bound linear in
//! its length, and a version-1 snapshot is refused by its version.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jxp::core::{snapshot, JxpConfig, JxpPeer, MeetingPayload};
use jxp::p2pnet::assign::{assign_by_crawlers, CrawlerParams};
use jxp::p2pnet::{Network, NetworkConfig};
use jxp::webgraph::codec::put_varint;
use jxp::webgraph::generators::amazon_2005;
use jxp_store::{
    encode_checkpoint, encode_wal_record, scan_wal, DirStore, StateStore, WalKind, WalRecord,
    CHECKPOINT_HEADER_LEN, WAL_HEADER_LEN,
};
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
    let mut frame = encode_frame(&Frame::Hello {
        node_id: 0,
        num_pages: 0,
    });
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

/// Peer 0's state after 300 meetings as `jxp cluster --state-dir` keeps
/// it: the `current.ckpt` a [`DirStore`] writes around its snapshot.
fn real_checkpoint_file() -> Vec<u8> {
    let (net, _) = real_meeting();
    let dir = std::env::temp_dir().join(format!("jxp_decode_fuzz_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = DirStore::open(&dir).expect("open store");
    let snapshot = snapshot::save(&net.peers()[0]);
    store
        .checkpoint("node-0", 300, &snapshot)
        .expect("checkpoint");
    let file = std::fs::read(dir.join("node-0").join("current.ckpt")).expect("read checkpoint");
    std::fs::remove_dir_all(&dir).ok();
    file
}

/// Bytes loading a snapshot may allocate per byte of input: the meeting
/// body's bounds (a count the rest could not hold is refused first, and
/// the id arena is reserved once from the bytes left) keep every vector
/// the decoder, the fragment and the world node build linear in the
/// input. Loading the real snapshot takes about 13 per byte.
const SNAPSHOT_ALLOCATION_PER_BYTE: usize = 64;

/// Load `bytes` as a snapshot, and check the allocation bound.
fn load_bounded(bytes: &[u8], what: &str) -> Result<JxpPeer, String> {
    let before = allocated();
    let loaded = snapshot::load(bytes);
    let used = allocated() - before;
    let bound = SNAPSHOT_ALLOCATION_PER_BYTE * bytes.len().max(1);
    assert!(
        used <= bound,
        "{what}: {used} bytes allocated, bound {bound}"
    );
    loaded
}

#[test]
fn a_real_snapshot_survives_every_prefix_and_every_byte_flip() {
    let (net, _) = real_meeting();
    let good = snapshot::save(&net.peers()[0]).to_vec();
    assert_eq!(snapshot::version(&good), Some(snapshot::VERSION));
    let restored = load_bounded(&good, "the snapshot").expect("snapshot loads");
    assert_eq!(snapshot::save(&restored).to_vec(), good);
    for keep in 0..good.len() {
        assert!(
            load_bounded(&good[..keep], "prefix").is_err(),
            "prefix {keep}"
        );
    }
    let mut loaded = 0;
    for at in 0..good.len() {
        for mask in [0x01, 0x80, 0xff] {
            let mut flipped = good.clone();
            flipped[at] ^= mask;
            let what = format!("byte {at} ^ {mask:#x}");
            // Whatever loads saves back to the bytes it came from: the
            // body is canonical, and the header holds nothing else.
            if let Ok(peer) = load_bounded(&flipped, &what) {
                assert_eq!(snapshot::save(&peer).to_vec(), flipped, "{what}");
                loaded += 1;
            }
        }
    }
    // Flips inside scores still load.
    assert!(loaded > 0);
}

#[test]
fn a_real_checkpoint_survives_every_prefix_and_every_byte_flip() {
    let file = real_checkpoint_file();
    let recover = |bytes: &[u8]| jxp_store::recover(Some(bytes), None, &[]);
    let rec = recover(&file).expect("recover").expect("state exists");
    assert_eq!(rec.checkpoint_seq, 300);
    for keep in 0..file.len() {
        assert!(recover(&file[..keep]).is_err(), "prefix {keep}");
    }
    // A flip with the CRC recomputed (unless it hit the CRC itself)
    // reaches the container's other fields and the JXPP decoder.
    let crc_at = CHECKPOINT_HEADER_LEN - 4..CHECKPOINT_HEADER_LEN;
    let mut recovered = 0;
    for at in 0..file.len() {
        let mut flipped = file.clone();
        flipped[at] ^= 0xff;
        if !crc_at.contains(&at) {
            let crc = jxp_store::crc32(&flipped[CHECKPOINT_HEADER_LEN..]);
            flipped[crc_at.clone()].copy_from_slice(&crc.to_le_bytes());
        }
        let before = allocated();
        let got = recover(&flipped);
        let used = allocated() - before;
        // The container copies its payload once before the load.
        let bound = (SNAPSHOT_ALLOCATION_PER_BYTE + 1) * file.len();
        assert!(used <= bound, "byte {at}: {used} bytes allocated");
        recovered += usize::from(got.is_ok());
    }
    assert!(recovered > 0);
}

#[test]
fn a_version_1_checkpoint_is_refused_by_both_version_numbers() {
    // A JXPP version-1 header (magic, version, then zeroes), in a
    // CRC-clean container.
    let mut v1 = b"JXPP".to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.resize(64, 0);
    let file = encode_checkpoint(0, &v1);
    let refused = jxp_store::recover(Some(&file), None, &[]).expect_err("version 1");
    assert_eq!(
        refused.to_string(),
        "checkpoint holds a JXPP version 1 snapshot, this build reads version 2"
    );
    // The current checkpoint's version is refused even when a previous
    // one would load: the state is another build's, not corrupt.
    let (net, _) = real_meeting();
    let good = encode_checkpoint(0, &snapshot::save(&net.peers()[0]));
    let got = jxp_store::recover(Some(&file), Some(&good), &[]).expect_err("version 1");
    assert_eq!(got, refused);
}
