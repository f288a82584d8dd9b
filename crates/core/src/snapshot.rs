//! Peer-state persistence.
//!
//! In a real deployment peers leave and re-join the network constantly
//! (§5.3 churn). A peer that throws away its accumulated world-node
//! knowledge on every restart pays the full warm-up cost again; this
//! module serializes the complete [`JxpPeer`] state — fragment, score
//! list, world node, configuration, statistics — into a compact binary
//! snapshot so a re-joining peer resumes where it left off. The churn
//! integration tests demonstrate the payoff.
//!
//! Format `JXPP` version 2: a fixed [`HEADER_LEN`]-byte header, then the
//! body of the peer's uncut, filterless meeting payload
//! ([`MeetingPayload::assemble`] with no filters) in the one body format
//! of [`crate::payload`] — the fragment's pages with their scores and
//! out-links, the world node's link and dangling entries, and `α_w`,
//! gap-coded exactly as a meeting ships them:
//!
//! ```text
//! offset  size  field
//! 0       4     magic b"JXPP"
//! 4       4     version u32 (2)
//! 8       8     epsilon f64
//! 16      8     pr_tolerance f64
//! 24      4     pr_max_iterations u32
//! 28      1     merge mode (0 full, 1 light-weight)
//! 29      1     combine mode (0 average, 1 take-max)
//! 30      8     N f64
//! 38      8     meetings u64
//! 46      8     total_pr_iterations u64
//! 54      n     meeting body (world_score, cut_for 0, no filter, sections)
//! ```
//!
//! Little-endian throughout. [`load`] decodes the body with the same
//! bounded, canonical decoder a meeting frame goes through, refuses a
//! body that is cut or carries a filter, and runs
//! [`MeetingPayload::validate`] before it rebuilds the peer. A snapshot
//! of another version — version 1 wrote fixed-width ids and counts — is
//! refused by its version ([`version`] reads it without decoding).

use crate::config::{CombineMode, JxpConfig, MergeMode};
use crate::payload::{decode_meeting_payload, encode_meeting_payload, MeetingPayload};
use crate::peer::{JxpPeer, PeerStats};
use crate::world::WorldNode;
use bytes::{Buf, BufMut, Bytes};
use jxp_webgraph::Subgraph;

const MAGIC: [u8; 4] = *b"JXPP";

/// The snapshot version this build writes and reads.
pub const VERSION: u32 = 2;

/// Bytes before the meeting body: magic, version, the config block, `N`
/// and the two statistics.
pub const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 4 + 1 + 1 + 8 + 8 + 8;

/// Serialize a peer's full state.
pub fn save(peer: &JxpPeer) -> Bytes {
    let body = MeetingPayload::assemble(
        peer.graph(),
        &[],
        peer.world(),
        peer.scores(),
        peer.world_score(),
        None,
        None,
    );
    let mut buf = Vec::with_capacity(HEADER_LEN + body.wire_size());
    buf.put_slice(&MAGIC);
    buf.put_u32_le(VERSION);
    let cfg = peer.config();
    buf.put_f64_le(cfg.epsilon);
    buf.put_f64_le(cfg.pr_tolerance);
    buf.put_u32_le(cfg.pr_max_iterations as u32);
    buf.put_u8(match cfg.merge {
        MergeMode::Full => 0,
        MergeMode::LightWeight => 1,
    });
    buf.put_u8(match cfg.combine {
        CombineMode::Average => 0,
        CombineMode::TakeMax => 1,
    });
    buf.put_f64_le(peer.n_total());
    buf.put_u64_le(peer.stats().meetings);
    buf.put_u64_le(peer.stats().total_pr_iterations);
    encode_meeting_payload(&mut buf, &body);
    debug_assert_eq!(buf.len(), buf.capacity(), "wire_size out of sync");
    Bytes::from(buf)
}

/// The version a snapshot declares, when it starts with the `JXPP`
/// magic: what a store reads to refuse another build's state by name
/// rather than as corruption.
pub fn version(snapshot: &[u8]) -> Option<u32> {
    let (magic, rest) = snapshot.split_first_chunk::<4>()?;
    (*magic == MAGIC).then_some(u32::from_le_bytes(*rest.first_chunk()?))
}

fn err(msg: &str) -> String {
    format!("corrupt peer snapshot: {msg}")
}

/// Deserialize a peer snapshot.
///
/// # Errors
/// Returns a description of the first problem: bad magic, another
/// version, a truncated header, invalid enum tags or configuration, a
/// body the meeting decoder refuses, a cut or filtered body, a payload
/// [`MeetingPayload::validate`] refuses, an empty fragment, a world
/// entry that links to a page outside the fragment, trailing bytes, or
/// `N` smaller than the fragment.
pub fn load(mut buf: impl Buf) -> Result<JxpPeer, String> {
    let mut owned = Vec::new();
    let bytes = if buf.chunk().len() == buf.remaining() {
        buf.chunk()
    } else {
        owned.resize(buf.remaining(), 0);
        buf.copy_to_slice(&mut owned);
        &owned
    };
    if bytes.get(..4).is_some_and(|magic| magic != MAGIC) {
        return Err(err("bad magic"));
    }
    match version(bytes) {
        None => return Err(err("truncated")),
        Some(VERSION) => {}
        Some(found) => {
            return Err(format!(
                "peer snapshot version {found}, this build reads version {VERSION}"
            ))
        }
    }
    let Some((mut head, mut body)) = bytes.split_at_checked(HEADER_LEN) else {
        return Err(err("truncated"));
    };
    head.advance(8);
    let config = JxpConfig {
        epsilon: head.get_f64_le(),
        pr_tolerance: head.get_f64_le(),
        pr_max_iterations: head.get_u32_le() as usize,
        merge: match head.get_u8() {
            0 => MergeMode::Full,
            1 => MergeMode::LightWeight,
            _ => return Err(err("invalid merge mode")),
        },
        combine: match head.get_u8() {
            0 => CombineMode::Average,
            1 => CombineMode::TakeMax,
            _ => return Err(err("invalid combine mode")),
        },
    };
    if !(config.epsilon > 0.0 && config.epsilon < 1.0) {
        return Err(err("epsilon out of range"));
    }
    let n_total = head.get_f64_le();
    let stats = PeerStats {
        meetings: head.get_u64_le(),
        last_pr_iterations: 0,
        total_pr_iterations: head.get_u64_le(),
    };
    let payload = decode_meeting_payload(&mut body).map_err(|e| err(e.0))?;
    if !body.is_empty() {
        return Err(err("trailing bytes"));
    }
    if payload.cut_for != 0 || payload.interest.is_some() {
        return Err(err("cut or filtered body"));
    }
    payload.validate().map_err(|why| err(&why))?;
    let n = payload.num_pages();
    if n == 0 {
        return Err(err("empty fragment"));
    }
    if !n_total.is_finite() || n_total < n as f64 {
        return Err(err("N smaller than fragment"));
    }
    // Page records are strictly ascending, the Subgraph's dense order.
    let mut scores = Vec::with_capacity(n);
    let graph = Subgraph::from_adjacency(payload.pages().map(|pp| {
        scores.push(pp.score);
        (pp.page, pp.succs.to_vec())
    }));
    // A world node holds its targets as indices into the fragment
    // (`crate::world`), so each is mapped once here, and one outside the
    // fragment is refused: no peer's world node can hold it.
    let mut world = WorldNode::new();
    let mut targets = Vec::new();
    for wp in payload.world() {
        targets.clear();
        for &t in wp.targets {
            let i = graph
                .local_index(t)
                .ok_or_else(|| err("world target outside the fragment"))?;
            targets.push(i as u32);
        }
        world.push(wp.src, wp.out_degree, wp.score, &targets);
    }
    for &(page, score) in &payload.world_dangling {
        world.upsert_dangling(page, score, config.combine);
    }
    Ok(JxpPeer::from_snapshot_parts(
        graph,
        world,
        scores,
        payload.world_score,
        n_total,
        config,
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meeting::meet;
    use jxp_webgraph::{GraphBuilder, PageId};

    fn warmed_up_peer() -> (JxpPeer, JxpPeer) {
        let mut b = GraphBuilder::new();
        for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)] {
            b.add_edge(PageId(s), PageId(d));
        }
        let g = b.build();
        let mut a = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(0), PageId(1)]),
            4,
            JxpConfig::default(),
        );
        let mut c = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(2), PageId(3)]),
            4,
            JxpConfig::default(),
        );
        for _ in 0..5 {
            meet(&mut a, &mut c);
        }
        (a, c)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (a, _) = warmed_up_peer();
        let bytes = save(&a);
        let restored = load(&bytes[..]).unwrap();
        assert_eq!(restored.graph().pages(), a.graph().pages());
        assert_eq!(restored.scores(), a.scores());
        assert_eq!(restored.world_score(), a.world_score());
        assert_eq!(restored.n_total(), a.n_total());
        assert_eq!(restored.config(), a.config());
        assert_eq!(restored.stats().meetings, a.stats().meetings);
        assert_eq!(restored.world().len(), a.world().len());
        assert_eq!(restored.world().num_dangling(), a.world().num_dangling());
        for (src, e) in a.world().iter() {
            let r = restored.world().entry(src).expect("entry lost");
            assert_eq!(r, e);
        }
    }

    #[test]
    fn restored_peer_keeps_working() {
        let (a, mut c) = warmed_up_peer();
        let mut restored = load(&save(&a)[..]).unwrap();
        // The restored peer can keep meeting peers and stays valid.
        meet(&mut restored, &mut c);
        crate::invariants::check_mass_conservation(&restored).unwrap();
        assert_eq!(restored.stats().meetings, a.stats().meetings + 1);
    }

    #[test]
    fn warm_restart_beats_cold_restart() {
        let (a, mut c) = warmed_up_peer();
        // Warm restart: restored from snapshot, world knowledge intact.
        let warm = load(&save(&a)[..]).unwrap();
        assert!(!warm.world().is_empty());
        // Cold restart: same fragment, no knowledge.
        let cold = JxpPeer::new(a.graph().clone(), 4, a.config().clone());
        assert!(cold.world().is_empty());
        assert!(
            warm.local_mass() > cold.local_mass(),
            "warm {} vs cold {}",
            warm.local_mass(),
            cold.local_mass()
        );
        let _ = &mut c;
    }

    #[test]
    fn corruption_is_detected() {
        let (a, _) = warmed_up_peer();
        let good = save(&a);
        // Bad magic.
        let mut bad = good.to_vec();
        bad[0] = b'X';
        assert!(load(&bad[..]).is_err());
        // Truncations at every prefix must error, never panic.
        for cut in 0..good.len().min(64) {
            assert!(load(&good[..cut]).is_err(), "prefix {cut} accepted");
        }
        // The world score opens the body: a NaN there is refused.
        let mut bad = good.to_vec();
        bad[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(load(&bad[..]).is_err());
        // Another version is refused by its number.
        let mut old = good.to_vec();
        old[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(version(&old), Some(1));
        assert_eq!(
            load(&old[..]).unwrap_err(),
            "peer snapshot version 1, this build reads version 2"
        );
    }

    #[test]
    fn every_truncation_is_a_clean_error() {
        let (a, _) = warmed_up_peer();
        let good = save(&a);
        // Mirrors the jxp-wire truncation rejects: every possible torn
        // prefix must come back as Err, never a panic or a short read.
        for cut in 0..good.len() {
            assert!(load(&good[..cut]).is_err(), "prefix {cut} accepted");
        }
    }

    #[test]
    fn every_single_byte_flip_is_handled_without_panicking() {
        let (a, _) = warmed_up_peer();
        let good = save(&a);
        for i in 0..good.len() {
            let mut bad = good.to_vec();
            bad[i] ^= 0xFF;
            // A flip may happen to survive validation (e.g. the low
            // mantissa bits of a score); the contract is no panic and
            // no unbounded allocation, not detection of every flip.
            let _ = load(&bad[..]);
        }
    }

    #[test]
    fn corrupt_counts_cannot_drive_huge_allocations() {
        let (a, _) = warmed_up_peer();
        let good = save(&a);
        // Overwrite the one-byte page count (after the header, the world
        // score, `cut_for` and the filter's presence byte) with a varint
        // of u32::MAX: load must reject it via the remaining-bytes bound
        // instead of reserving gigabytes.
        let count_off = HEADER_LEN + 8 + 8 + 1;
        assert_eq!(good[count_off], 2);
        let mut bad = good[..count_off].to_vec();
        jxp_webgraph::codec::put_varint(&mut bad, u64::from(u32::MAX));
        bad.extend_from_slice(&good[count_off + 1..]);
        assert_eq!(
            load(&bad[..]).unwrap_err(),
            err("length field overruns body")
        );
    }

    #[test]
    fn disordered_world_section_is_refused() {
        // A knows pages 2, 3, 4 (one link into A each) and dangling 5, 6.
        let mut b = GraphBuilder::new();
        b.ensure_nodes(7);
        for (s, d) in [
            (0, 1),
            (1, 0),
            (2, 0),
            (3, 1),
            (4, 0),
            (2, 3),
            (3, 4),
            (4, 2),
        ] {
            b.add_edge(PageId(s), PageId(d));
        }
        let g = b.build();
        let peer = |pages: &[u32]| {
            let pages = pages.iter().map(|&p| PageId(p));
            JxpPeer::new(Subgraph::from_pages(&g, pages), 7, JxpConfig::default())
        };
        let (mut a, mut c) = (peer(&[0, 1]), peer(&[2, 3, 4, 5, 6]));
        meet(&mut a, &mut c);
        assert_eq!((a.world().len(), a.world().num_dangling()), (3, 2));
        assert!(a.world().iter().all(|(_, e)| e.targets.len() == 1));
        let good = save(&a);
        load(&good[..]).unwrap();

        // The body's world section follows the pages and the (empty)
        // unlinked list: its count byte sits where the body of the same
        // payload without world and dangling entries has its last two.
        let mut body = MeetingPayload::assemble(
            a.graph(),
            &[],
            a.world(),
            a.scores(),
            a.world_score(),
            None,
            None,
        );
        body.world.clear();
        body.world_dangling.clear();
        let entries = HEADER_LEN + body.wire_size() - 2;
        // A world record is a 1-byte id gap, degree, 8-byte score, a
        // 1-byte count and one 1-byte target; a dangling one a 1-byte
        // gap and a score.
        let dangling = entries + 1 + 3 * 12;
        assert_eq!((good[entries], good[dangling]), (3, 2));
        // Gap coding cannot write a list out of order; a zero gap, the
        // same id twice, is the only disorder left, and it is refused.
        let zero_gap = |at: usize| {
            let mut bad = good.to_vec();
            bad[at] = 0;
            load(&bad[..]).unwrap_err()
        };
        let duplicated = err("zero gap in id list");
        assert_eq!(zero_gap(entries + 1 + 12), duplicated, "world record");
        assert_eq!(zero_gap(dangling + 1 + 9), duplicated, "dangling entry");
        // The first world record's one target, page 6 instead: no world
        // node of fragment {0, 1} can hold it.
        let mut bad = good.to_vec();
        bad[entries + 1 + 11] = 6;
        assert_eq!(
            load(&bad[..]).unwrap_err(),
            err("world target outside the fragment")
        );
    }

    #[test]
    fn nan_n_total_is_rejected() {
        let (a, _) = warmed_up_peer();
        let good = save(&a);
        let n_total_off = 4 + 4 + 8 + 8 + 4 + 1 + 1;
        let mut bad = good.to_vec();
        bad[n_total_off..n_total_off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(load(&bad[..]).is_err());
    }
}
