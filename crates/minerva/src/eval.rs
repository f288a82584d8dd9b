//! Relevance evaluation: precision@k and the Table 2 harness.

use crate::corpus::{Corpus, Query};
use crate::fusion::{rank_by_fusion, rank_by_tfidf};
use crate::index::PeerIndex;
use crate::routing::execute_routed;
use jxp_pagerank::Ranking;
use jxp_webgraph::PageId;

/// Precision@k of a ranked result list against the corpus ground truth:
/// the fraction of the first `k` results that are relevant. If fewer than
/// `k` results exist, the denominator stays `k` (missing results are
/// misses, as in the paper's fixed top-10 assessment).
pub fn precision_at_k(corpus: &Corpus, query: &Query, ranked: &[PageId], k: usize) -> f64 {
    assert!(k > 0, "precision@0 is undefined");
    let hits = ranked
        .iter()
        .take(k)
        .filter(|&&p| corpus.is_relevant(query, p))
        .count();
    hits as f64 / k as f64
}

/// One row of Table 2: a query with its precision under both rankings.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The query label.
    pub query: String,
    /// Precision@10 of the plain tf·idf ranking.
    pub tfidf_precision: f64,
    /// Precision@10 of the `0.6·tf·idf + 0.4·JXP` ranking.
    pub fused_precision: f64,
}

/// Run the full Table 2 experiment: for every query, route it across the
/// peer indexes, rank the merged results both ways, and measure
/// precision@`k`. Returns one row per query; the caller appends the
/// average row like the paper does.
#[allow(
    clippy::too_many_arguments,
    reason = "one parameter per knob of the Table 2 experiment"
)]
pub fn table2(
    corpus: &Corpus,
    indexes: &[PeerIndex],
    jxp_ranking: &Ranking,
    queries: &[Query],
    fanout: usize,
    per_peer_k: usize,
    k: usize,
    weights: (f64, f64),
) -> Vec<Table2Row> {
    queries
        .iter()
        .map(|q| {
            let hits = execute_routed(indexes, q, fanout, per_peer_k);
            let by_tfidf = rank_by_tfidf(&hits);
            let by_fusion: Vec<PageId> = rank_by_fusion(&hits, jxp_ranking, weights.0, weights.1)
                .into_iter()
                .map(|h| h.page)
                .collect();
            Table2Row {
                query: q.name.clone(),
                tfidf_precision: precision_at_k(corpus, q, &by_tfidf, k),
                fused_precision: precision_at_k(corpus, q, &by_fusion, k),
            }
        })
        .collect()
}

/// Average precision over rows — the paper's "Average" line.
pub fn averages(rows: &[Table2Row]) -> (f64, f64) {
    if rows.is_empty() {
        return (0.0, 0.0);
    }
    let n = rows.len() as f64;
    (
        rows.iter().map(|r| r.tfidf_precision).sum::<f64>() / n,
        rows.iter().map(|r| r.fused_precision).sum::<f64>() / n,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusParams;
    use jxp_pagerank::{pagerank, PageRankConfig};
    use jxp_webgraph::generators::{CategorizedGraph, CategorizedParams};
    use jxp_webgraph::Subgraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn precision_counts_relevant_prefix() {
        let cg = CategorizedGraph::generate(
            &CategorizedParams {
                num_categories: 2,
                nodes_per_category: 40,
                intra_out_per_node: 3,
                cross_fraction: 0.1,
            },
            &mut StdRng::seed_from_u64(1),
        );
        let pr = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
        let corpus = Corpus::generate(
            &cg,
            &pr,
            CorpusParams::default(),
            &mut StdRng::seed_from_u64(2),
        );
        let q = Query {
            name: "t".into(),
            terms: corpus.top_topic_terms(0, 1),
            category: 0,
        };
        // Rank = all relevant pages of category 0 followed by junk.
        let mut ranked: Vec<PageId> = cg
            .pages_in_category(0)
            .filter(|&p| corpus.is_relevant(&q, p))
            .collect();
        let n_rel = ranked.len();
        ranked.extend(cg.pages_in_category(1));
        let p = precision_at_k(&corpus, &q, &ranked, 10);
        assert!((p - (n_rel.min(10) as f64 / 10.0)).abs() < 1e-12);
        // Short lists are penalized by the fixed denominator.
        let p_short = precision_at_k(&corpus, &q, &ranked[..2.min(ranked.len())], 10);
        assert!(p_short <= 0.2 + 1e-12);
    }

    #[test]
    fn table2_fusion_beats_tfidf_with_perfect_authority() {
        // End-to-end miniature of the §6.3 experiment with the *true*
        // PageRank as the authority signal (JXP converges to it).
        let cg = CategorizedGraph::generate(
            &CategorizedParams {
                num_categories: 2,
                nodes_per_category: 150,
                intra_out_per_node: 4,
                cross_fraction: 0.1,
            },
            &mut StdRng::seed_from_u64(3),
        );
        let pr = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
        let corpus = Corpus::generate(
            &cg,
            &pr,
            CorpusParams::default(),
            &mut StdRng::seed_from_u64(4),
        );
        let all: Vec<PageId> = cg.graph.nodes().collect();
        let indexes = vec![
            PeerIndex::build(
                &Subgraph::from_pages(&cg.graph, all[..200].to_vec()),
                &corpus,
            ),
            PeerIndex::build(
                &Subgraph::from_pages(&cg.graph, all[100..].to_vec()),
                &corpus,
            ),
        ];
        let authority = jxp_core::evaluate::centralized_ranking(&pr);
        let queries = corpus.make_queries(6, &mut StdRng::seed_from_u64(5));
        let rows = table2(
            &corpus,
            &indexes,
            &authority,
            &queries,
            2,
            50,
            10,
            (0.6, 0.4),
        );
        assert_eq!(rows.len(), 6);
        let (t, f) = averages(&rows);
        assert!(
            f > t,
            "fusion ({f:.3}) should beat plain tf·idf ({t:.3}) on authority-correlated truth"
        );
    }

    #[test]
    fn averages_of_empty_rows() {
        assert_eq!(averages(&[]), (0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "precision@0")]
    fn precision_at_zero_panics() {
        let cg = CategorizedGraph::generate(
            &CategorizedParams {
                num_categories: 1,
                nodes_per_category: 20,
                intra_out_per_node: 2,
                cross_fraction: 0.0,
            },
            &mut StdRng::seed_from_u64(6),
        );
        let pr = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
        let corpus = Corpus::generate(
            &cg,
            &pr,
            CorpusParams::default(),
            &mut StdRng::seed_from_u64(7),
        );
        let q = Query {
            name: "t".into(),
            terms: corpus.top_topic_terms(0, 1),
            category: 0,
        };
        let _ = precision_at_k(&corpus, &q, &[], 0);
    }
}
