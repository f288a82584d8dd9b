//! P2P Web search with JXP-boosted ranking (the paper's §6.3 scenario).
//!
//! Builds a Minerva-style network — 40 peers from 10 categories, each
//! hosting 3 of its category's 4 fragments — runs JXP to get authority
//! scores, then answers queries two ways: plain tf·idf, and the paper's
//! `0.6·tf·idf + 0.4·JXP` fusion. Prints the per-query precision@10 of
//! both rankings.
//!
//! Run with: `cargo run --release --example p2p_search`

use jxp::core::JxpConfig;
use jxp::minerva::eval::{averages, table2};
use jxp::minerva::{Corpus, CorpusParams, PeerIndex};
use jxp::p2pnet::assign::minerva_fragments;
use jxp::p2pnet::{Network, NetworkConfig};
use jxp::pagerank::{pagerank, PageRankConfig};
use jxp::webgraph::generators::{CategorizedGraph, CategorizedParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cg = CategorizedGraph::generate(
        &CategorizedParams {
            num_categories: 10,
            nodes_per_category: 500,
            intra_out_per_node: 5,
            cross_fraction: 0.1,
        },
        &mut StdRng::seed_from_u64(21),
    );
    let truth = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();

    // 40 search-engine peers with high same-topic overlap.
    let fragments = minerva_fragments(&cg, 4, &mut StdRng::seed_from_u64(22));
    println!(
        "{} documents across {} peers (each hosts 3/4 of its category)",
        cg.graph.num_nodes(),
        fragments.len()
    );

    // The P2P network computes authority scores with JXP.
    let mut net = Network::new(
        fragments.clone(),
        cg.graph.num_nodes() as u64,
        NetworkConfig {
            jxp: JxpConfig::optimized(),
            ..Default::default()
        },
        23,
    );
    net.run_parallel(800);
    let jxp_ranking = net.total_ranking();
    println!("JXP ran for {} meetings", net.meetings());

    // Each peer indexes its own documents.
    let corpus = Corpus::generate(
        &cg,
        &truth,
        CorpusParams::default(),
        &mut StdRng::seed_from_u64(24),
    );
    let indexes: Vec<PeerIndex> = fragments
        .iter()
        .map(|f| PeerIndex::build(f, &corpus))
        .collect();

    // Fifteen topical queries, routed to the 6 most promising peers each.
    let queries = corpus.make_queries(15, &mut StdRng::seed_from_u64(25));
    let rows = table2(
        &corpus,
        &indexes,
        &jxp_ranking,
        &queries,
        6,
        50,
        10,
        (0.6, 0.4),
    );

    println!(
        "\n{:<12} {:>8} {:>22}",
        "query", "tf*idf", "0.6 tf*idf + 0.4 JXP"
    );
    for r in &rows {
        println!(
            "{:<12} {:>7.0}% {:>21.0}%",
            r.query,
            r.tfidf_precision * 100.0,
            r.fused_precision * 100.0
        );
    }
    let (t, f) = averages(&rows);
    println!("{:<12} {:>7.0}% {:>21.0}%", "average", t * 100.0, f * 100.0);
    println!(
        "\nauthority-aware ranking changed average precision@10 by {:+.0} points",
        (f - t) * 100.0
    );
}
