//! End-to-end P2P search integration: the §6.3 pipeline from graph to
//! precision numbers, with the JXP scores coming from an actual simulated
//! network (not the centralized oracle).

use jxp::core::JxpConfig;
use jxp::minerva::eval::{averages, precision_at_k, table2};
use jxp::minerva::fusion::{rank_by_fusion, rank_by_tfidf};
use jxp::minerva::query::execute_local;
use jxp::minerva::routing::execute_routed;
use jxp::minerva::{Corpus, CorpusParams, PeerIndex};
use jxp::p2pnet::assign::minerva_fragments;
use jxp::p2pnet::{Network, NetworkConfig};
use jxp::pagerank::{pagerank, PageRankConfig};
use jxp::webgraph::generators::{CategorizedGraph, CategorizedParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct SearchWorld {
    corpus: Corpus,
    indexes: Vec<PeerIndex>,
    jxp_ranking: jxp::pagerank::Ranking,
}

fn search_world() -> SearchWorld {
    let cg = CategorizedGraph::generate(
        &CategorizedParams {
            num_categories: 4,
            nodes_per_category: 200,
            intra_out_per_node: 4,
            cross_fraction: 0.1,
        },
        &mut StdRng::seed_from_u64(51),
    );
    let truth = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
    let fragments = minerva_fragments(&cg, 4, &mut StdRng::seed_from_u64(52));
    let mut net = Network::new(
        fragments.clone(),
        cg.graph.num_nodes() as u64,
        NetworkConfig {
            jxp: JxpConfig::optimized(),
            ..Default::default()
        },
        53,
    );
    net.run_parallel(500);
    let corpus = Corpus::generate(
        &cg,
        &truth,
        CorpusParams::default(),
        &mut StdRng::seed_from_u64(54),
    );
    let indexes = fragments
        .iter()
        .map(|f| PeerIndex::build(f, &corpus))
        .collect();
    SearchWorld {
        corpus,
        indexes,
        jxp_ranking: net.total_ranking(),
    }
}

#[test]
fn routed_queries_return_relevant_on_topic_results() {
    let w = search_world();
    let queries = w.corpus.make_queries(4, &mut StdRng::seed_from_u64(55));
    let mut total_precision = 0.0;
    for q in &queries {
        let hits = execute_routed(&w.indexes, q, 4, 30);
        assert!(!hits.is_empty(), "query {} returned nothing", q.name);
        // Topic terms only occur in their own category's documents, so
        // every hit must be on-topic.
        for h in &hits {
            assert_eq!(
                w.corpus.category(h.page),
                q.category,
                "off-topic hit for {}",
                q.name
            );
        }
        let ranked = rank_by_tfidf(&hits);
        total_precision += precision_at_k(&w.corpus, q, &ranked, 10);
    }
    // Plain tf·idf may whiff on an individual query (that is Table 2's
    // point), but across the workload it must find relevant pages.
    assert!(
        total_precision > 0.0,
        "tf·idf found no relevant pages across any query"
    );
}

#[test]
fn fusion_with_network_jxp_scores_improves_average_precision() {
    let w = search_world();
    let queries = w.corpus.make_queries(8, &mut StdRng::seed_from_u64(56));
    let rows = table2(
        &w.corpus,
        &w.indexes,
        &w.jxp_ranking,
        &queries,
        4,
        40,
        10,
        (0.6, 0.4),
    );
    let (tfidf, fused) = averages(&rows);
    assert!(
        fused > tfidf,
        "network-JXP fusion should beat tf·idf: {fused:.3} vs {tfidf:.3}"
    );
}

#[test]
fn local_execution_is_a_subset_of_routed_execution() {
    let w = search_world();
    let queries = w.corpus.make_queries(2, &mut StdRng::seed_from_u64(57));
    let q = &queries[0];
    let local = execute_local(&w.indexes[0], q, 20);
    let routed = execute_routed(&w.indexes, q, w.indexes.len(), 20);
    // Every locally-found page must also be in the full-fanout merge.
    for hit in &local {
        assert!(
            routed.iter().any(|h| h.page == hit.page),
            "page {:?} lost in merging",
            hit.page
        );
    }
}

#[test]
fn fusion_weights_interpolate_between_rankings() {
    let w = search_world();
    let queries = w.corpus.make_queries(2, &mut StdRng::seed_from_u64(58));
    let q = &queries[1];
    let hits = execute_routed(&w.indexes, q, 4, 40);
    let pure_tfidf = rank_by_tfidf(&hits);
    let fused_all_tfidf: Vec<_> = rank_by_fusion(&hits, &w.jxp_ranking, 1.0, 0.0)
        .into_iter()
        .map(|h| h.page)
        .collect();
    assert_eq!(
        pure_tfidf, fused_all_tfidf,
        "weight (1,0) must equal tf·idf order"
    );
    let fused_all_jxp: Vec<_> = rank_by_fusion(&hits, &w.jxp_ranking, 0.0, 1.0)
        .into_iter()
        .map(|h| h.page)
        .collect();
    // Pure-authority order ranks by JXP score.
    for pair in fused_all_jxp.windows(2) {
        let a = w.jxp_ranking.score(pair[0]).unwrap_or(0.0);
        let b = w.jxp_ranking.score(pair[1]).unwrap_or(0.0);
        assert!(a >= b, "authority order violated: {a} < {b}");
    }
}
