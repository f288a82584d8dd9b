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
//! Format (little-endian): magic `JXPP`, version, config block, `N`,
//! the fragment's adjacency with per-page scores, the world node's link
//! entries and dangling entries, and the peer statistics.

use crate::config::{CombineMode, JxpConfig, MergeMode};
use crate::peer::{JxpPeer, PeerStats};
use crate::world::WorldNode;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use jxp_webgraph::{PageId, Subgraph};

const MAGIC: [u8; 4] = *b"JXPP";
const VERSION: u32 = 1;

/// Serialize a peer's full state.
pub fn save(peer: &JxpPeer) -> Bytes {
    let graph = peer.graph();
    let world = peer.world();
    let mut buf = BytesMut::with_capacity(
        64 + graph.num_links() * 4
            + world.len() * 20
            + world.num_links() * 4
            + world.num_dangling() * 12,
    );
    buf.put_slice(&MAGIC);
    buf.put_u32_le(VERSION);
    // Config.
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
    // Global page count and world score.
    buf.put_f64_le(peer.n_total());
    buf.put_f64_le(peer.world_score());
    // Fragment with scores.
    buf.put_u32_le(graph.num_pages() as u32);
    for i in 0..graph.num_pages() {
        buf.put_u32_le(graph.page_at(i).0);
        buf.put_f64_le(peer.scores()[i]);
        let succs = graph.successors_at(i);
        buf.put_u32_le(succs.len() as u32);
        for s in succs {
            buf.put_u32_le(s.0);
        }
    }
    // World node: link entries (WorldNode::iter is sorted by PageId),
    // then dangling.
    buf.put_u32_le(world.len() as u32);
    for (src, e) in world.iter() {
        buf.put_u32_le(src.0);
        buf.put_u32_le(e.out_degree);
        buf.put_f64_le(e.score);
        buf.put_u32_le(e.targets.len() as u32);
        for t in e.targets {
            buf.put_u32_le(t.0);
        }
    }
    buf.put_u32_le(world.num_dangling() as u32);
    for (p, s) in world.dangling_iter() {
        buf.put_u32_le(p.0);
        buf.put_f64_le(s);
    }
    // Statistics.
    buf.put_u64_le(peer.stats().meetings);
    buf.put_u64_le(peer.stats().total_pr_iterations);
    buf.freeze()
}

fn err(msg: &str) -> String {
    format!("corrupt peer snapshot: {msg}")
}

macro_rules! need {
    ($buf:expr, $n:expr) => {
        if $buf.remaining() < $n {
            return Err(err("truncated"));
        }
    };
}

/// Deserialize a peer snapshot.
///
/// # Errors
/// Returns a description of the first structural problem (bad magic,
/// truncation, invalid enum tags, inconsistent counts, invalid scores).
pub fn load(mut buf: impl Buf) -> Result<JxpPeer, String> {
    need!(buf, 8);
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(err("bad magic"));
    }
    if buf.get_u32_le() != VERSION {
        return Err(err("unsupported version"));
    }
    need!(buf, 8 + 8 + 4 + 2);
    let config = JxpConfig {
        epsilon: buf.get_f64_le(),
        pr_tolerance: buf.get_f64_le(),
        pr_max_iterations: buf.get_u32_le() as usize,
        merge: match buf.get_u8() {
            0 => MergeMode::Full,
            1 => MergeMode::LightWeight,
            _ => return Err(err("invalid merge mode")),
        },
        combine: match buf.get_u8() {
            0 => CombineMode::Average,
            1 => CombineMode::TakeMax,
            _ => return Err(err("invalid combine mode")),
        },
    };
    if !(config.epsilon > 0.0 && config.epsilon < 1.0) {
        return Err(err("epsilon out of range"));
    }
    need!(buf, 16 + 4);
    let n_total = buf.get_f64_le();
    let world_score = buf.get_f64_le();
    if !world_score.is_finite() || !(0.0..=1.0).contains(&world_score) {
        return Err(err("world score out of range"));
    }
    let n = buf.get_u32_le() as usize;
    if n == 0 {
        return Err(err("empty fragment"));
    }
    // Every page entry needs at least 16 bytes, so a corrupt count is
    // rejected before it can drive a multi-gigabyte allocation.
    need!(buf, n * 16);
    let mut adjacency = Vec::with_capacity(n);
    let mut page_scores = Vec::with_capacity(n);
    for _ in 0..n {
        need!(buf, 16);
        let page = PageId(buf.get_u32_le());
        let score = buf.get_f64_le();
        if !score.is_finite() || score < 0.0 {
            return Err(err("invalid page score"));
        }
        let deg = buf.get_u32_le() as usize;
        need!(buf, deg * 4);
        let succs: Vec<PageId> = (0..deg).map(|_| PageId(buf.get_u32_le())).collect();
        page_scores.push((page, score));
        adjacency.push((page, succs));
    }
    let graph = Subgraph::from_adjacency(adjacency);
    if graph.num_pages() != n {
        return Err(err("duplicate pages in fragment"));
    }
    // Scores must be re-ordered to the Subgraph's dense (sorted) order.
    let mut scores = vec![0.0f64; n];
    for (page, score) in page_scores {
        let idx = graph
            .local_index(page)
            .ok_or_else(|| err("page lost during reconstruction"))?;
        scores[idx] = score;
    }
    // World node, in the order `save` writes it: sources strictly
    // ascending, each with strictly ascending targets, then the dangling
    // pages strictly ascending.
    let mut world = WorldNode::new();
    need!(buf, 4);
    let num_entries = buf.get_u32_le() as usize;
    let (mut last, mut targets) = (None, Vec::new());
    for _ in 0..num_entries {
        need!(buf, 20);
        let src = PageId(buf.get_u32_le());
        let out_degree = buf.get_u32_le();
        let score = buf.get_f64_le();
        let num_targets = buf.get_u32_le() as usize;
        need!(buf, num_targets * 4);
        targets.clear();
        targets.extend((0..num_targets).map(|_| PageId(buf.get_u32_le())));
        if out_degree == 0
            || targets.len() > out_degree as usize
            || last >= Some(src)
            || !targets.is_sorted_by(|a, b| a < b)
        {
            return Err(err("inconsistent world entry"));
        }
        last = Some(src);
        if !score.is_finite() || score < 0.0 {
            return Err(err("invalid world entry score"));
        }
        world.push(src, out_degree, score, &targets);
    }
    need!(buf, 4);
    let num_dangling = buf.get_u32_le() as usize;
    let mut last = None;
    for _ in 0..num_dangling {
        need!(buf, 12);
        let p = PageId(buf.get_u32_le());
        let s = buf.get_f64_le();
        if last >= Some(p) {
            return Err(err("inconsistent world entry"));
        }
        last = Some(p);
        if !s.is_finite() || s < 0.0 {
            return Err(err("invalid dangling score"));
        }
        world.upsert_dangling(p, s, config.combine);
    }
    need!(buf, 16);
    let stats = PeerStats {
        meetings: buf.get_u64_le(),
        last_pr_iterations: 0,
        total_pr_iterations: buf.get_u64_le(),
    };
    if !n_total.is_finite() || n_total < n as f64 {
        return Err(err("N smaller than fragment"));
    }
    Ok(JxpPeer::from_snapshot_parts(
        graph,
        world,
        scores,
        world_score,
        n_total,
        config,
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meeting::meet;
    use jxp_webgraph::GraphBuilder;

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
        // Corrupt a score to NaN: find the first f64 after the config
        // block is n_total; corrupt the world_score instead (offset 8+8+8+4+2).
        let mut bad = good.to_vec();
        let ws_off = 4 + 4 + 8 + 8 + 4 + 1 + 1 + 8;
        bad[ws_off..ws_off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(load(&bad[..]).is_err());
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
        // Overwrite the fragment page count (right after the config
        // block, N and world_score) with u32::MAX: load must reject it
        // via the remaining-bytes bound instead of reserving 64 GiB.
        let count_off = 4 + 4 + 8 + 8 + 4 + 1 + 1 + 8 + 8;
        let mut bad = good.to_vec();
        bad[count_off..count_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(load(&bad[..]).is_err());
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

        // The world section follows the 46-byte header and the fragment;
        // an entry with one target takes 24 bytes, a dangling one 12.
        let fragment: usize = (0..a.num_pages())
            .map(|i| 16 + 4 * a.graph().successors_at(i).len())
            .sum();
        let entries = 46 + 4 + fragment + 4;
        let dangling = entries + 3 * 24 + 4;
        assert_eq!(good[entries..entries + 4], 2u32.to_le_bytes());
        assert_eq!(good[dangling..dangling + 4], 5u32.to_le_bytes());
        // Overwrite `len` bytes at each `to` with the good bytes at `from`.
        let refused = |copies: &[(usize, usize)], len: usize| {
            let mut bad = good.to_vec();
            for &(to, from) in copies {
                bad[to..to + len].copy_from_slice(&good[from..from + len]);
            }
            load(&bad[..]).unwrap_err()
        };
        let inconsistent = err("inconsistent world entry");
        let (e0, e1) = (entries, entries + 24);
        assert_eq!(refused(&[(e0, e1), (e1, e0)], 24), inconsistent, "swapped");
        assert_eq!(refused(&[(e1, e0)], 24), inconsistent, "duplicated");
        let (d0, d1) = (dangling, dangling + 12);
        assert_eq!(refused(&[(d0, d1), (d1, d0)], 12), inconsistent, "swapped");
        assert_eq!(refused(&[(d1, d0)], 12), inconsistent, "duplicated");
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
