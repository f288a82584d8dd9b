//! Integration: peer-state snapshots across a live network — the churn
//! scenario the snapshot feature exists for.

use jxp::core::{snapshot, JxpConfig};
use jxp::p2pnet::assign::{assign_by_crawlers, CrawlerParams};
use jxp::p2pnet::{Network, NetworkConfig};
use jxp::pagerank::{metrics, pagerank, PageRankConfig};
use jxp::webgraph::generators::{CategorizedGraph, CategorizedParams};
use jxp::webgraph::Subgraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn world() -> (CategorizedGraph, Vec<Subgraph>) {
    let cg = CategorizedGraph::generate(
        &CategorizedParams {
            num_categories: 3,
            nodes_per_category: 120,
            intra_out_per_node: 4,
            cross_fraction: 0.15,
        },
        &mut StdRng::seed_from_u64(81),
    );
    let frags = assign_by_crawlers(
        &cg,
        &CrawlerParams {
            peers_per_category: 4,
            seeds_per_peer: 3,
            max_depth: 4,
            max_pages: Some(70),
            max_pages_jitter: 0.5,
            off_category_follow_prob: 0.5,
        },
        &mut StdRng::seed_from_u64(82),
    );
    (cg, frags)
}

#[test]
fn leave_snapshot_rejoin_preserves_knowledge() {
    let (cg, frags) = world();
    let n = cg.graph.num_nodes() as u64;
    let mut net = Network::new(frags, n, NetworkConfig::default(), 83);
    net.run_parallel(200);

    // Peer 0 leaves, taking a snapshot with it.
    let departing = net.remove_peer(0);
    let world_size_at_leave = departing.world().len();
    assert!(
        world_size_at_leave > 0,
        "peer left before learning anything"
    );
    let bytes = snapshot::save(&departing);

    // The network moves on without it.
    net.run_parallel(100);

    // The peer rejoins warm and keeps participating.
    let restored = snapshot::load(&bytes[..]).expect("snapshot must load");
    assert_eq!(restored.world().len(), world_size_at_leave);
    net.add_existing_peer(restored);
    net.run_parallel(100);

    // The rejoined peer (now the last index) kept its old knowledge and
    // gained more.
    let rejoined = net.peer(net.num_peers() - 1);
    assert!(rejoined.world().len() >= world_size_at_leave);
    jxp::core::invariants::check_mass_conservation(rejoined).unwrap();
}

#[test]
fn snapshots_are_deterministic_and_stable_across_save_load_cycles() {
    let (cg, frags) = world();
    let n = cg.graph.num_nodes() as u64;
    let mut net = Network::new(frags, n, NetworkConfig::default(), 84);
    net.run_parallel(60);
    let peer = net.peer(2);
    let b1 = snapshot::save(peer);
    let b2 = snapshot::save(peer);
    assert_eq!(b1, b2, "snapshot of identical state must be identical");
    let once = snapshot::load(&b1[..]).unwrap();
    let twice = snapshot::load(&snapshot::save(&once)[..]).unwrap();
    assert_eq!(once.scores(), twice.scores());
    assert_eq!(once.world_score(), twice.world_score());
}

#[test]
fn warm_rejoin_keeps_network_accuracy() {
    let (cg, frags) = world();
    let n = cg.graph.num_nodes() as u64;
    let truth = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
    let truth_ranking = jxp::core::evaluate::centralized_ranking(&truth);
    let mut net = Network::new(
        frags,
        n,
        NetworkConfig {
            jxp: JxpConfig::optimized(),
            ..Default::default()
        },
        85,
    );
    net.run_parallel(300);
    let before = metrics::footrule_distance(&net.total_ranking(), &truth_ranking, 60);

    // Cycle a third of the network through leave+snapshot+rejoin.
    let mut parked = Vec::new();
    for _ in 0..4 {
        parked.push(snapshot::save(&net.remove_peer(0)).to_vec());
    }
    net.run_parallel(50);
    for bytes in parked {
        net.add_existing_peer(snapshot::load(&bytes[..]).unwrap());
    }
    net.run_parallel(150);
    let after = metrics::footrule_distance(&net.total_ranking(), &truth_ranking, 60);
    assert!(
        after <= before + 0.05,
        "warm churn degraded accuracy: {before} → {after}"
    );
}
