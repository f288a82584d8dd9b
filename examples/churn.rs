//! Churn: peers keep joining and leaving while JXP keeps running.
//!
//! The paper (§5.3) designed JXP to "handle high dynamics" even though the
//! convergence proof assumes a static network. This example drives a
//! network through aggressive churn — every few meetings a peer joins or
//! leaves — and shows that (a) nothing breaks, (b) mass stays conserved at
//! every peer, and (c) the decentralized ranking still tracks centralized
//! PageRank.
//!
//! Run with: `cargo run --release --example churn`

use jxp::core::JxpConfig;
use jxp::p2pnet::assign::{assign_by_crawlers, CrawlerParams};
use jxp::p2pnet::churn::{ChurnModel, ChurnParams, Rejoin};
use jxp::p2pnet::{Network, NetworkConfig};
use jxp::pagerank::{metrics, pagerank, PageRankConfig};
use jxp::webgraph::generators::{CategorizedGraph, CategorizedParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cg = CategorizedGraph::generate(
        &CategorizedParams {
            num_categories: 5,
            nodes_per_category: 600,
            intra_out_per_node: 4,
            cross_fraction: 0.15,
        },
        &mut StdRng::seed_from_u64(31),
    );
    let n = cg.graph.num_nodes();
    let truth = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
    let truth_ranking = jxp::core::evaluate::centralized_ranking(&truth);

    // A pool of crawled fragments: the first 20 start the network, newcomers
    // draw from the rest.
    let mut pool = assign_by_crawlers(
        &cg,
        &CrawlerParams {
            peers_per_category: 8,
            seeds_per_peer: 3,
            max_depth: 5,
            max_pages: Some(n / 30),
            max_pages_jitter: 0.6,
            off_category_follow_prob: 0.5,
        },
        &mut StdRng::seed_from_u64(32),
    );
    let initial: Vec<_> = pool.drain(..20).collect();
    let mut net = Network::new(
        initial,
        n as u64,
        NetworkConfig {
            jxp: JxpConfig::optimized(),
            ..Default::default()
        },
        33,
    );

    // Departed peers come back warm, before any newcomer is admitted.
    let params = ChurnParams {
        leave_prob: 0.10,
        join_prob: 0.12,
        min_peers: 8,
        max_peers: 40,
        rejoin: Rejoin::Warm,
    };
    let mut churn = ChurnModel::new(params, pool).expect("valid churn parameters");
    let mut rng = StdRng::seed_from_u64(34);
    let mut joins = 0u32;
    let mut leaves = 0u32;

    println!(
        "{:>9} {:>7} {:>7} {:>7} {:>10}",
        "meetings", "peers", "joins", "leaves", "footrule"
    );
    for epoch in 1..=12 {
        for _ in 0..100 {
            net.step();
            let tick = churn.tick(&mut net, &mut rng);
            joins += u32::from(tick.joined.is_some());
            leaves += u32::from(tick.left.is_some());
        }
        // Everything the network believes must still be a probability mass.
        for p in net.peers() {
            jxp::core::invariants::check_mass_conservation(p)
                .expect("mass conservation violated under churn");
        }
        let f = metrics::footrule_distance(&net.total_ranking(), &truth_ranking, 100);
        println!(
            "{:>9} {:>7} {:>7} {:>7} {:>10.4}",
            epoch * 100,
            net.num_peers(),
            joins,
            leaves,
            f
        );
    }
    println!(
        "\nsurvived {joins} joins and {leaves} leaves; every peer still holds a \
         valid score distribution and the ranking keeps tracking PageRank."
    );
}
