//! The paper's §6.1 scenario end-to-end: a categorized Web-like graph,
//! 100 autonomous peers with simulated focused crawlers, random meetings,
//! and a live report of how the decentralized ranking approaches the
//! centralized one.
//!
//! Run with: `cargo run --release --example focused_crawlers`

use jxp::core::selection::SelectionStrategy;
use jxp::core::JxpConfig;
use jxp::p2pnet::assign::{assign_by_crawlers, mean_pairwise_jaccard, CrawlerParams};
use jxp::p2pnet::{Network, NetworkConfig};
use jxp::pagerank::{metrics, pagerank, PageRankConfig};
use jxp::webgraph::generators::{CategorizedGraph, CategorizedParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A 10-category Web-like graph (a small cousin of the paper's Amazon
    // collection — bump nodes_per_category for a bigger run).
    let cg = CategorizedGraph::generate(
        &CategorizedParams {
            num_categories: 10,
            nodes_per_category: 800,
            intra_out_per_node: 4,
            cross_fraction: 0.1,
        },
        &mut StdRng::seed_from_u64(11),
    );
    let n = cg.graph.num_nodes();
    println!(
        "global graph: {} pages, {} links, {:.1}% of edges intra-category",
        n,
        cg.graph.num_edges(),
        cg.intra_category_edge_fraction() * 100.0
    );

    // 100 thematic crawlers, overlapping fragments (§6.1).
    let fragments = assign_by_crawlers(
        &cg,
        &CrawlerParams {
            peers_per_category: 10,
            seeds_per_peer: 3,
            max_depth: 5,
            max_pages: Some(n / 60),
            max_pages_jitter: 0.8,
            off_category_follow_prob: 0.5,
        },
        &mut StdRng::seed_from_u64(12),
    );
    let sizes: Vec<usize> = fragments.iter().map(|f| f.num_pages()).collect();
    println!(
        "100 peers: fragment sizes {}..{} pages, mean pairwise Jaccard {:.3}",
        sizes.iter().min().unwrap(),
        sizes.iter().max().unwrap(),
        mean_pairwise_jaccard(&fragments)
    );

    // Ground truth for the report (the network itself never sees this).
    let truth = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
    let truth_ranking = jxp::core::evaluate::centralized_ranking(&truth);

    let mut net = Network::new(
        fragments,
        n as u64,
        NetworkConfig {
            jxp: JxpConfig::optimized(),
            strategy: SelectionStrategy::Random,
            ..Default::default()
        },
        13,
    );

    println!(
        "\n{:>9} {:>10} {:>14} {:>10}",
        "meetings", "footrule", "linear error", "MB sent"
    );
    for _ in 0..10 {
        net.run_parallel(150);
        let ranking = net.total_ranking();
        println!(
            "{:>9} {:>10.4} {:>14.3e} {:>10.2}",
            net.meetings(),
            metrics::footrule_distance(&ranking, &truth_ranking, 200),
            metrics::linear_score_error(&ranking, &truth_ranking, 200),
            net.bandwidth().total_bytes() as f64 / 1e6
        );
    }

    let ranking = net.total_ranking();
    println!("\ntop-5 pages, decentralized vs centralized:");
    for (rank, &page) in ranking.top_k(5).iter().enumerate() {
        println!(
            "  #{} page {page}: jxp {:.5}, true {:.5}, true rank {}",
            rank + 1,
            ranking.score(page).unwrap(),
            truth[page.index()],
            truth_ranking.position(page).map(|p| p + 1).unwrap_or(0),
        );
    }
    let overlap = metrics::top_k_overlap(&ranking, &truth_ranking, 100);
    println!(
        "\ntop-100 overlap with centralized PageRank: {:.0}%",
        overlap * 100.0
    );
}
