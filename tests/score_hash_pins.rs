//! Score hashes recorded from the last commit before receiver-filtered
//! payloads (9f82289, protocol 1), where every meeting shipped the whole
//! payload. Cutting a payload to the receiver's filter may change bytes,
//! never a score bit: these runs must land on the recorded hashes.

use jxp::core::evaluate::score_hash;
use jxp::core::JxpConfig;
use jxp::p2pnet::assign::{assign_by_crawlers, CrawlerParams};
use jxp::p2pnet::{Network, NetworkConfig};
use jxp::webgraph::generators::amazon_2005;
use jxp::webgraph::Subgraph;
use jxp_node::{run_cluster, ClusterConfig};
use jxp_telemetry::TelemetryHub;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Amazon at 1/20 (2 760 pages), 100 overlapping crawler fragments.
fn hundred_fragments() -> (Vec<Subgraph>, u64) {
    let cg = amazon_2005().generate_scaled(0.05);
    let params = CrawlerParams {
        peers_per_category: 10,
        seeds_per_peer: 2,
        max_depth: 6,
        max_pages: Some(40),
        max_pages_jitter: 1.0,
        off_category_follow_prob: 0.5,
    };
    let fragments = assign_by_crawlers(&cg, &params, &mut StdRng::seed_from_u64(0xC4A3));
    assert_eq!(fragments.len(), 100);
    (fragments, cg.graph.num_nodes() as u64)
}

#[test]
fn hundred_peer_sim_lands_on_the_hash_of_whole_payloads() {
    let (fragments, n_total) = hundred_fragments();
    // Thread count and an attached telemetry hub move wall clock only.
    for (threads, hub) in [(1, false), (2, true), (8, false)] {
        let config = NetworkConfig {
            jxp: JxpConfig::optimized(),
            threads,
            ..Default::default()
        };
        let mut net = Network::new(fragments.clone(), n_total, config, 7);
        if hub {
            net.attach_telemetry(TelemetryHub::shared());
        }
        net.run_parallel(300);
        let hash = score_hash(net.peers().iter().map(|p| p.scores()));
        assert_eq!(
            hash, SIM_HASH,
            "got {hash:#018x} at {threads} threads, hub {hub}"
        );
    }
}

#[test]
fn hundred_node_cluster_lands_on_the_hash_of_whole_payloads() {
    let (fragments, n_total) = hundred_fragments();
    let config = ClusterConfig {
        meetings: 300,
        seed: 7,
        ..ClusterConfig::default()
    };
    let report = run_cluster(fragments, n_total, JxpConfig::optimized(), &config, None);
    assert_eq!(report.meetings_completed, 300);
    assert_eq!(
        report.score_hash, CLUSTER_HASH,
        "got {:#018x}",
        report.score_hash
    );
}

const SIM_HASH: u64 = 0xf31e_03e8_d195_7550;
const CLUSTER_HASH: u64 = 0x192c_4b09_9cd4_af26;
