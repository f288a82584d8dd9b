//! Query routing and result merging across peers.
//!
//! §6.3: "A Web query issued by a peer is first executed locally on the
//! peer's own content, and then possibly routed to a small number of
//! remote peers for additional results." Peers are ranked for a query by
//! how much of the query vocabulary their collections cover (a standard
//! CORI-style resource-selection score on df statistics); the per-peer
//! result lists are merged by page, keeping each page's best tf·idf score.

use crate::corpus::Query;
use crate::index::PeerIndex;
use crate::query::{execute_local, SearchHit};
use jxp_webgraph::FxHashMap;

/// Score a peer's promise for a query: sum over query terms of
/// `df(t) / (df(t) + 50)` — saturating df evidence, so a peer with many
/// matching documents for every term wins.
pub fn peer_score(index: &PeerIndex, query: &Query) -> f64 {
    query
        .terms
        .iter()
        .map(|&t| {
            let df = index.df(t) as f64;
            df / (df + 50.0)
        })
        .sum()
}

/// Pick the `fanout` most promising peers for a query (ties by index).
pub fn route(indexes: &[PeerIndex], query: &Query, fanout: usize) -> Vec<usize> {
    let mut scored: Vec<(usize, f64)> = indexes
        .iter()
        .enumerate()
        .map(|(i, idx)| (i, peer_score(idx, query)))
        .collect();
    scored.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    scored.into_iter().take(fanout).map(|(i, _)| i).collect()
}

/// Execute a routed query: run it locally on each selected peer (taking
/// `per_peer_k` results from each) and merge by page, keeping the maximum
/// tf·idf score for pages returned by several peers.
pub fn execute_routed(
    indexes: &[PeerIndex],
    query: &Query,
    fanout: usize,
    per_peer_k: usize,
) -> Vec<SearchHit> {
    let mut merged: FxHashMap<jxp_webgraph::PageId, f64> = FxHashMap::default();
    for peer in route(indexes, query, fanout) {
        for hit in execute_local(&indexes[peer], query, per_peer_k) {
            let e = merged.entry(hit.page).or_insert(f64::NEG_INFINITY);
            *e = e.max(hit.tfidf);
        }
    }
    let mut hits: Vec<SearchHit> = merged
        .into_iter()
        .map(|(page, tfidf)| SearchHit { page, tfidf })
        .collect();
    hits.sort_unstable_by(|a, b| {
        b.tfidf
            .partial_cmp(&a.tfidf)
            .unwrap()
            .then(a.page.cmp(&b.page))
    });
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusParams};
    use jxp_pagerank::{pagerank, PageRankConfig};
    use jxp_webgraph::generators::{CategorizedGraph, CategorizedParams};
    use jxp_webgraph::{PageId, Subgraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Corpus, Vec<PeerIndex>) {
        let cg = CategorizedGraph::generate(
            &CategorizedParams {
                num_categories: 2,
                nodes_per_category: 80,
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
        // Peer 0: category-0 pages; peer 1: category-1 pages;
        // peer 2: a mixed slice overlapping both.
        let indexes = vec![
            PeerIndex::build(
                &Subgraph::from_pages(&cg.graph, (0..80).map(PageId)),
                &corpus,
            ),
            PeerIndex::build(
                &Subgraph::from_pages(&cg.graph, (80..160).map(PageId)),
                &corpus,
            ),
            PeerIndex::build(
                &Subgraph::from_pages(&cg.graph, (40..120).map(PageId)),
                &corpus,
            ),
        ];
        (corpus, indexes)
    }

    #[test]
    fn routing_prefers_on_topic_peers() {
        let (corpus, indexes) = setup();
        let q0 = crate::corpus::Query {
            name: "c0".into(),
            terms: corpus.top_topic_terms(0, 2),
            category: 0,
        };
        let routed = route(&indexes, &q0, 2);
        assert_eq!(routed[0], 0, "peer 0 holds all of category 0");
        assert!(routed.contains(&2), "the mixed peer is second best");
        let q1 = crate::corpus::Query {
            name: "c1".into(),
            terms: corpus.top_topic_terms(1, 2),
            category: 1,
        };
        assert_eq!(route(&indexes, &q1, 1), vec![1]);
    }

    #[test]
    fn merged_results_deduplicate_pages() {
        let (corpus, indexes) = setup();
        let q = crate::corpus::Query {
            name: "c0".into(),
            terms: corpus.top_topic_terms(0, 2),
            category: 0,
        };
        let hits = execute_routed(&indexes, &q, 3, 20);
        let mut pages: Vec<PageId> = hits.iter().map(|h| h.page).collect();
        let before = pages.len();
        pages.sort_unstable();
        pages.dedup();
        assert_eq!(pages.len(), before, "duplicate pages in merged results");
        assert!(hits.windows(2).all(|w| w[0].tfidf >= w[1].tfidf));
    }

    #[test]
    fn fanout_bounds_peers_consulted() {
        let (corpus, indexes) = setup();
        let q = crate::corpus::Query {
            name: "c1".into(),
            terms: corpus.top_topic_terms(1, 2),
            category: 1,
        };
        // Fanout 1 routes to peer 1 only → all hits from pages 80..160.
        let hits = execute_routed(&indexes, &q, 1, 50);
        assert!(hits.iter().all(|h| (80..160).contains(&h.page.0)));
    }
}
