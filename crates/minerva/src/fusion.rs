//! Score fusion: combining tf·idf with JXP authority (§6.3).
//!
//! The paper ranks merged results "by a weighted sum of the tf*idf score
//! and the JXP score (with weight 0.6 of the first component and weight
//! 0.4 of the second component)". Both components are normalized to
//! `[0, 1]` over the result list before weighting (raw tf·idf and
//! PageRank-style scores live on incomparable scales).

use crate::query::SearchHit;
use jxp_pagerank::Ranking;
use jxp_webgraph::PageId;

/// The paper's fusion weights: 0.6 tf·idf + 0.4 JXP.
pub const PAPER_TFIDF_WEIGHT: f64 = 0.6;
/// See [`PAPER_TFIDF_WEIGHT`].
pub const PAPER_JXP_WEIGHT: f64 = 0.4;

/// A result after fusion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedHit {
    /// The result page.
    pub page: PageId,
    /// Combined score.
    pub score: f64,
}

/// Rank `hits` by pure (normalized) tf·idf — the paper's first ranking.
pub fn rank_by_tfidf(hits: &[SearchHit]) -> Vec<PageId> {
    let mut v: Vec<&SearchHit> = hits.iter().collect();
    v.sort_by(|a, b| {
        b.tfidf
            .partial_cmp(&a.tfidf)
            .unwrap()
            .then(a.page.cmp(&b.page))
    });
    v.into_iter().map(|h| h.page).collect()
}

/// Rank `hits` by `tfidf_weight · tfidf_norm + jxp_weight · jxp_norm` —
/// the paper's second ranking. Pages missing from the JXP ranking (e.g.
/// never scored by any consulted peer) get authority 0.
///
/// # Panics
/// Panics if the weights are negative or both zero.
pub fn rank_by_fusion(
    hits: &[SearchHit],
    jxp: &Ranking,
    tfidf_weight: f64,
    jxp_weight: f64,
) -> Vec<FusedHit> {
    assert!(
        tfidf_weight >= 0.0 && jxp_weight >= 0.0,
        "negative fusion weight"
    );
    assert!(tfidf_weight + jxp_weight > 0.0, "all-zero fusion weights");
    let max_tfidf = hits
        .iter()
        .map(|h| h.tfidf)
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let max_jxp = hits
        .iter()
        .filter_map(|h| jxp.score(h.page))
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let mut fused: Vec<FusedHit> = hits
        .iter()
        .map(|h| {
            let t = h.tfidf / max_tfidf;
            let a = jxp.score(h.page).unwrap_or(0.0) / max_jxp;
            FusedHit {
                page: h.page,
                score: tfidf_weight * t + jxp_weight * a,
            }
        })
        .collect();
    fused.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap()
            .then(a.page.cmp(&b.page))
    });
    fused
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits() -> Vec<SearchHit> {
        vec![
            SearchHit {
                page: PageId(1),
                tfidf: 10.0,
            },
            SearchHit {
                page: PageId(2),
                tfidf: 8.0,
            },
            SearchHit {
                page: PageId(3),
                tfidf: 6.0,
            },
        ]
    }

    #[test]
    fn tfidf_ranking_orders_by_score() {
        assert_eq!(
            rank_by_tfidf(&hits()),
            vec![PageId(1), PageId(2), PageId(3)]
        );
    }

    #[test]
    fn fusion_with_zero_jxp_weight_equals_tfidf() {
        let jxp = Ranking::from_scores([(PageId(3), 0.9), (PageId(1), 0.1)]);
        let fused = rank_by_fusion(&hits(), &jxp, 1.0, 0.0);
        let order: Vec<PageId> = fused.iter().map(|h| h.page).collect();
        assert_eq!(order, rank_by_tfidf(&hits()));
    }

    #[test]
    fn authority_can_promote_a_lower_tfidf_page() {
        // Page 3 has much higher authority; with the paper's 0.6/0.4
        // weights it overtakes page 2 (normalized tf·idf gap 0.2·0.6 =
        // 0.12 < authority gap ≈ 0.4).
        let jxp = Ranking::from_scores([(PageId(1), 0.05), (PageId(2), 0.01), (PageId(3), 0.90)]);
        let fused = rank_by_fusion(&hits(), &jxp, PAPER_TFIDF_WEIGHT, PAPER_JXP_WEIGHT);
        let order: Vec<PageId> = fused.iter().map(|h| h.page).collect();
        assert_eq!(
            order[0],
            PageId(3),
            "authority should promote page 3: {order:?}"
        );
    }

    #[test]
    fn pages_unknown_to_jxp_get_zero_authority() {
        let jxp = Ranking::from_scores([(PageId(1), 0.5)]);
        let fused = rank_by_fusion(&hits(), &jxp, 0.5, 0.5);
        let p3 = fused.iter().find(|h| h.page == PageId(3)).unwrap();
        // tf·idf component only: 0.5 · (6/10).
        assert!((p3.score - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_hits_fuse_to_empty() {
        let jxp = Ranking::from_scores(std::iter::empty());
        assert!(rank_by_fusion(&[], &jxp, 0.6, 0.4).is_empty());
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn zero_weights_panic() {
        let jxp = Ranking::from_scores(std::iter::empty());
        let _ = rank_by_fusion(&hits(), &jxp, 0.0, 0.0);
    }

    #[test]
    fn fused_order_is_total_and_permutation_invariant() {
        // Ties everywhere the sort can see them: equal tf·idf scores and
        // equal authority, so only the PageId tie-break decides. Every
        // input permutation must yield the same total order.
        let tied: Vec<SearchHit> = [5u32, 2, 9, 1, 7]
            .into_iter()
            .map(|p| SearchHit {
                page: PageId(p),
                tfidf: 4.0,
            })
            .collect();
        let jxp = Ranking::from_scores(tied.iter().map(|h| (h.page, 0.25)));
        let reference = rank_by_fusion(&tied, &jxp, PAPER_TFIDF_WEIGHT, PAPER_JXP_WEIGHT);
        let ref_pages: Vec<PageId> = reference.iter().map(|h| h.page).collect();
        assert_eq!(
            ref_pages,
            vec![PageId(1), PageId(2), PageId(5), PageId(7), PageId(9)],
            "ties must break by ascending page id"
        );
        // Rotate through several permutations of the same hit set.
        let mut perm = tied.clone();
        for i in 0..perm.len() {
            perm.rotate_left(1);
            perm.swap(0, i);
            let fused = rank_by_fusion(&perm, &jxp, PAPER_TFIDF_WEIGHT, PAPER_JXP_WEIGHT);
            assert_eq!(fused, reference, "order depends on input permutation");
            assert_eq!(rank_by_tfidf(&perm), ref_pages);
        }
    }

    #[test]
    fn empty_posting_lists_yield_empty_fusion() {
        // A query whose terms have no postings anywhere produces an empty
        // hit list end to end; fusion and the tf·idf ranking must both
        // pass that through instead of panicking on the normalization.
        let index = crate::index::PeerIndex::default();
        let hits: Vec<SearchHit> = index
            .score_query(&[crate::corpus::TermId(42)])
            .into_iter()
            .map(|(page, tfidf)| SearchHit { page, tfidf })
            .collect();
        assert!(hits.is_empty());
        let jxp = Ranking::from_scores([(PageId(1), 0.5)]);
        assert!(rank_by_fusion(&hits, &jxp, 0.6, 0.4).is_empty());
        assert!(rank_by_tfidf(&hits).is_empty());
    }

    #[test]
    fn duplicate_doc_ids_across_peers_keep_max_and_fuse_once() {
        // Two peers both indexed page 7 with different local idf stats.
        // The cross-peer merge rule (ScoredList::from_pairs) keeps the
        // maximum, so fusion sees each page exactly once.
        let merged = crate::topk::ScoredList::from_pairs([
            (PageId(7), 3.0), // peer A's score
            (PageId(7), 5.0), // peer B's score for the same doc
            (PageId(9), 4.0),
        ]);
        let r = crate::topk::ta_topk(&[merged], 10);
        let hits = r.hits;
        let pages: Vec<PageId> = hits.iter().map(|h| h.page).collect();
        assert_eq!(
            pages,
            vec![PageId(7), PageId(9)],
            "duplicate survived merge"
        );
        assert!(
            (hits[0].tfidf - 5.0).abs() < 1e-12,
            "max must win the merge"
        );
        let jxp = Ranking::from_scores([(PageId(7), 0.2), (PageId(9), 0.8)]);
        let fused = rank_by_fusion(&hits, &jxp, PAPER_TFIDF_WEIGHT, PAPER_JXP_WEIGHT);
        assert_eq!(fused.len(), 2);
        // Even if a caller skips the merge, fusion stays deterministic:
        // duplicates tie-break adjacent by page id, independent of order.
        let dup = vec![
            SearchHit {
                page: PageId(7),
                tfidf: 5.0,
            },
            SearchHit {
                page: PageId(7),
                tfidf: 5.0,
            },
        ];
        let a = rank_by_fusion(&dup, &jxp, 0.6, 0.4);
        let mut rev = dup.clone();
        rev.reverse();
        let b = rank_by_fusion(&rev, &jxp, 0.6, 0.4);
        assert_eq!(a, b);
    }
}
