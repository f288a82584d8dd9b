//! Building the network-wide total ranking for evaluation (§6.2).
//!
//! "In order to compare the two approaches we construct a total ranking
//! from the distributed scores by essentially merging the score lists from
//! all peers. […] it can be the case that a page has different scores at
//! different peers. In this case, the score of the page on the total
//! ranking is considered to be the average over its different scores."
//! This merging exists *only* for the experimental evaluation — the real
//! P2P network never needs it.

use crate::peer::JxpPeer;
use jxp_pagerank::Ranking;
use jxp_webgraph::PageId;
use std::collections::BTreeMap;

/// Merge the score lists of all peers into the total ranking: a page held
/// by several peers gets the average of its scores.
///
/// The accumulator is a `BTreeMap` (lint rule D1, no hash-ordered
/// iteration; see DESIGN.md §11): the merged
/// pairs are consumed in iteration order, and a stable ascending
/// `PageId` order keeps every downstream consumer — including ones
/// that don't re-sort like [`Ranking::from_scores`] does — bit-stable
/// across runs.
pub fn total_ranking<'a>(peers: impl IntoIterator<Item = &'a JxpPeer>) -> Ranking {
    let mut acc: BTreeMap<PageId, (f64, u32)> = BTreeMap::new();
    for peer in peers {
        for (i, &score) in peer.scores().iter().enumerate() {
            let page = peer.graph().page_at(i);
            let e = acc.entry(page).or_insert((0.0, 0));
            e.0 += score;
            e.1 += 1;
        }
    }
    Ranking::from_scores(
        acc.into_iter()
            .map(|(p, (sum, count))| (p, sum / count as f64)),
    )
}

/// Convenience: the centralized-PageRank ranking of a full graph, in the
/// same [`Ranking`] form, for comparison against [`total_ranking`].
pub fn centralized_ranking(scores: &[f64]) -> Ranking {
    Ranking::from_scores(
        scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (PageId(i as u32), s)),
    )
}

/// The digest of the bit-identity contract: FNV-1a over the exact bit
/// patterns (`to_bits().to_le_bytes()`) of every score, list by list.
/// Any divergence down to the last ulp — across thread counts,
/// transports, backings or with telemetry toggled — changes it.
pub fn score_hash<'a>(lists: impl IntoIterator<Item = &'a [f64]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for scores in lists {
        for s in scores {
            for b in s.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JxpConfig;
    use jxp_webgraph::{GraphBuilder, Subgraph};

    #[test]
    fn total_ranking_averages_overlapping_pages() {
        let mut b = GraphBuilder::new();
        for (s, d) in [(0, 1), (1, 2), (2, 0)] {
            b.add_edge(PageId(s), PageId(d));
        }
        let g = b.build();
        let pa = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(0), PageId(1)]),
            3,
            JxpConfig::default(),
        );
        let pb = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(1), PageId(2)]),
            3,
            JxpConfig::default(),
        );
        let r = total_ranking([&pa, &pb]);
        assert_eq!(r.len(), 3);
        let expected = (pa.score(PageId(1)).unwrap() + pb.score(PageId(1)).unwrap()) / 2.0;
        assert!((r.score(PageId(1)).unwrap() - expected).abs() < 1e-12);
        // Non-overlapping pages keep their single peer's score.
        assert!((r.score(PageId(0)).unwrap() - pa.score(PageId(0)).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn centralized_ranking_wraps_dense_scores() {
        let r = centralized_ranking(&[0.1, 0.6, 0.3]);
        assert_eq!(r.top_k(3), &[PageId(1), PageId(2), PageId(0)]);
        assert_eq!(r.score(PageId(0)), Some(0.1));
    }

    #[test]
    fn score_hash_of_a_fixed_input_is_pinned() {
        // Computed independently (FNV-1a 64 over the little-endian
        // IEEE-754 bytes); every pinned hash in the repo rests on it.
        let lists: [&[f64]; 3] = [&[0.25, 0.5], &[], &[1.0, -0.0, 1e-300]];
        assert_eq!(score_hash(lists), 0x265f_9ed6_a30e_0135);
    }

    #[test]
    fn empty_peer_set_gives_empty_ranking() {
        let r = total_ranking(std::iter::empty());
        assert!(r.is_empty());
    }

    #[test]
    fn total_ranking_is_stable_across_peer_order() {
        // Regression test: merging the same peers in any order must
        // produce the identical ranking (same order, same score bits).
        let mut b = GraphBuilder::new();
        for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)] {
            b.add_edge(PageId(s), PageId(d));
        }
        let g = b.build();
        let pa = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(0), PageId(1)]),
            4,
            JxpConfig::default(),
        );
        let pb = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(1), PageId(2)]),
            4,
            JxpConfig::default(),
        );
        let pc = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(2), PageId(3)]),
            4,
            JxpConfig::default(),
        );
        let r1 = total_ranking([&pa, &pb, &pc]);
        let r2 = total_ranking([&pc, &pa, &pb]);
        assert_eq!(r1.len(), r2.len());
        for i in 0..r1.len() {
            let p = r1.top_k(r1.len())[i];
            assert_eq!(p, r2.top_k(r2.len())[i], "rank order differs at {i}");
            assert_eq!(
                r1.score(p).unwrap().to_bits(),
                r2.score(p).unwrap().to_bits(),
                "score bits differ for {p:?}"
            );
        }
    }
}
