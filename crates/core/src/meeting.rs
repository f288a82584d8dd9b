//! Peer meetings (Algorithm 2 / Algorithm 3).
//!
//! A meeting is a symmetric exchange: both peers ship their payload
//! (extended local graph + score list, cut to what the partner's
//! [`interest`](JxpPeer::interest) filter says it can use) and both fold
//! the other's knowledge into their own state, "asynchronously and
//! independently of each other" (§3). [`MeetingStats`] records what the
//! experiments need: the bytes on the wire (Figures 11/12) and the
//! per-side CPU time of the merge + recompute step (Table 1).
//!
//! **Dynamics caveat**: structural knowledge (link sets, out-degrees,
//! dangling status) is updated *authoritatively* when the sender holds the
//! page locally, so the network adapts when the Web graph changes. Learned
//! *scores*, however, combine per [`CombineMode`](crate::CombineMode):
//! under `TakeMax` a bookkeeping score can never decrease, which is
//! exactly right in a static network (Theorem 5.3) but adapts slowly when
//! a page's true authority *shrinks* (e.g. it loses in-links). For
//! workloads with heavy graph dynamics prefer `CombineMode::Average`,
//! whose repeated averaging against fresh opinions forgets stale highs.
//! The paper leaves convergence under dynamics open (§5.3, §7).

use crate::peer::JxpPeer;
use std::time::{Duration, Instant};

/// Measurements of one meeting.
#[derive(Debug, Clone)]
pub struct MeetingStats {
    /// Bytes sent from the first peer to the second.
    pub bytes_a_to_b: usize,
    /// Bytes sent from the second peer to the first.
    pub bytes_b_to_a: usize,
    /// CPU time of the first peer's merge + recompute step.
    pub merge_time_a: Duration,
    /// CPU time of the second peer's merge + recompute step.
    pub merge_time_b: Duration,
}

impl MeetingStats {
    /// Total bytes exchanged in both directions.
    pub fn total_bytes(&self) -> usize {
        self.bytes_a_to_b + self.bytes_b_to_a
    }
}

/// Perform one JXP meeting between two peers: exchange payloads, absorb on
/// both sides (per each peer's own [`MergeMode`](crate::MergeMode) — peers
/// are autonomous and may run different configurations), recompute.
pub fn meet(a: &mut JxpPeer, b: &mut JxpPeer) -> MeetingStats {
    let payload_a = a.payload_for(b.interest());
    let payload_b = b.payload_for(a.interest());
    let stats = MeetingStats {
        bytes_a_to_b: payload_a.wire_size(),
        bytes_b_to_a: payload_b.wire_size(),
        merge_time_a: Duration::ZERO,
        merge_time_b: Duration::ZERO,
    };
    #[expect(clippy::disallowed_methods, reason = "merge timing for MeetingStats")]
    let t0 = Instant::now();
    a.absorb(&payload_b);
    let merge_time_a = t0.elapsed();
    #[expect(clippy::disallowed_methods, reason = "merge timing for MeetingStats")]
    let t1 = Instant::now();
    b.absorb(&payload_a);
    let merge_time_b = t1.elapsed();
    MeetingStats {
        merge_time_a,
        merge_time_b,
        ..stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JxpConfig;
    use crate::payload::Record;
    use jxp_webgraph::{GraphBuilder, PageId, Subgraph};

    fn two_peers() -> (JxpPeer, JxpPeer) {
        let mut b = GraphBuilder::new();
        for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_edge(PageId(s), PageId(d));
        }
        let g = b.build();
        let pa = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(0), PageId(1)]),
            4,
            JxpConfig::default(),
        );
        let pb = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(2), PageId(3)]),
            4,
            JxpConfig::default(),
        );
        (pa, pb)
    }

    #[test]
    fn meet_updates_both_sides() {
        let (mut a, mut b) = two_peers();
        let stats = meet(&mut a, &mut b);
        assert!(!a.world().is_empty());
        assert!(!b.world().is_empty());
        assert_eq!(a.stats().meetings, 1);
        assert_eq!(b.stats().meetings, 1);
        assert!(stats.bytes_a_to_b > 0);
        assert!(stats.bytes_b_to_a > 0);
        assert_eq!(stats.total_bytes(), stats.bytes_a_to_b + stats.bytes_b_to_a);
    }

    #[test]
    fn repeated_meetings_approach_global_pagerank() {
        let (mut a, mut b) = two_peers();
        for _ in 0..15 {
            meet(&mut a, &mut b);
        }
        // 4-cycle: every true score is 1/4.
        for p in [PageId(0), PageId(1)] {
            let s = a.score(p).unwrap();
            assert!((s - 0.25).abs() < 0.01, "{p:?} score {s}");
        }
        for p in [PageId(2), PageId(3)] {
            let s = b.score(p).unwrap();
            assert!((s - 0.25).abs() < 0.01, "{p:?} score {s}");
        }
    }

    #[test]
    fn message_size_grows_with_world_knowledge_the_partner_can_use() {
        let mut builder = GraphBuilder::new();
        for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            builder.add_edge(PageId(s), PageId(d));
        }
        let g = builder.build();
        let peer = |pages: &[u32]| {
            JxpPeer::new(
                Subgraph::from_pages(&g, pages.iter().map(|&p| PageId(p))),
                4,
                JxpConfig::default(),
            )
        };
        let (mut a, mut b, mut c) = (peer(&[0, 1]), peer(&[0, 2]), peer(&[3]));
        let first = meet(&mut a, &mut b);
        // A learns 3 → 0 from C. B holds page 0 too, so the entry is of
        // use to it and A's next message to B is bigger by that entry:
        // a 1-byte src, 1-byte out-degree, 8-byte score, 1-byte target
        // count and 1-byte target.
        meet(&mut a, &mut c);
        let second = meet(&mut a, &mut b);
        assert_eq!(second.bytes_a_to_b, first.bytes_a_to_b + 1 + 1 + 8 + 1 + 1);
        // C holds nothing the entry points at: it never travels to C.
        let to_c = a.payload_for(c.interest());
        assert_eq!(to_c.world().len(), 0);
        assert_eq!(a.payload().world().len(), 1);
    }

    #[test]
    fn try_absorb_rejects_tampered_payload_without_state_change() {
        let (mut a, b) = two_peers();
        let mut evil = b.payload();
        evil.pages[0].score = 42.0;
        let scores_before = a.scores().to_vec();
        let world_before = a.world_score();
        let world_node_before = a.world().clone();
        assert!(a.try_absorb(&evil).is_err());
        assert_eq!(a.scores(), &scores_before[..]);
        assert_eq!(a.world_score(), world_before);
        assert_eq!(a.stats().meetings, 0);

        // Cut for a filter that is not A's: records A needs may be gone.
        let honest = b.payload_for(a.interest());
        assert_eq!(honest.cut_for, a.interest().unwrap().fingerprint());
        for wrong in [honest.cut_for ^ 1, b.interest().unwrap().fingerprint()] {
            let mut evil = honest.clone();
            evil.cut_for = wrong;
            assert!(a.try_absorb(&evil).unwrap_err().contains("cut for"));
        }
        // Bare ids out of order.
        let mut evil = honest.clone();
        evil.unlinked = vec![PageId(9), PageId(8)];
        assert!(a.try_absorb(&evil).unwrap_err().contains("unlinked"));
        // More out-links than the page is said to have.
        let mut evil = honest.clone();
        let record = |id: u32, out_degree: u32, links: std::ops::Range<u32>| Record {
            id: PageId(id),
            score: 0.01,
            out_degree,
            start: links.start,
            end: links.end,
        };
        let first = evil.pages[0].id.0;
        evil.links = vec![PageId(0), PageId(1), PageId(0)];
        evil.pages = vec![record(first, 1, 0..2)];
        evil.world.clear();
        assert!(a.try_absorb(&evil).unwrap_err().contains("out-degree"));
        // World records, or one record's targets, out of order: the merge
        // walks both as sorted runs.
        evil.pages.clear();
        evil.world = vec![record(9, 2, 0..1), record(8, 2, 1..2)];
        assert!(a.try_absorb(&evil).unwrap_err().contains("world records"));
        evil.world = vec![record(9, 2, 1..3)];
        assert!(a.try_absorb(&evil).unwrap_err().contains("targets"));
        assert_eq!(a.world(), &world_node_before);
        assert_eq!(a.scores(), &scores_before[..]);
        assert_eq!(a.stats().meetings, 0);

        // The honest payloads still go through, cut or whole.
        a.try_absorb(&honest).unwrap();
        a.try_absorb(&b.payload()).unwrap();
        assert_eq!(a.stats().meetings, 2);
    }

    #[test]
    fn mixed_merge_modes_interoperate() {
        let mut builder = GraphBuilder::new();
        for (s, d) in [(0, 1), (1, 2), (2, 0)] {
            builder.add_edge(PageId(s), PageId(d));
        }
        let g = builder.build();
        let mut full = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(0)]),
            3,
            JxpConfig::baseline(),
        );
        let mut light = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(1), PageId(2)]),
            3,
            JxpConfig::default(),
        );
        for _ in 0..10 {
            meet(&mut full, &mut light);
        }
        let total = full.local_mass() + full.world_score();
        assert!((total - 1.0).abs() < 1e-9);
        assert!((full.score(PageId(0)).unwrap() - 1.0 / 3.0).abs() < 0.02);
    }
}
