//! Churn through the crate's public API: departing peers are parked,
//! warm rejoiners resume with their state intact, cold rejoiners restart
//! on their own crawl, and a warm-churn scenario — parallel rounds,
//! pre-meetings selection — stays bit-identical across thread counts.

use jxp_core::selection::{PreMeetingsConfig, SelectionStrategy};
use jxp_core::{snapshot, JxpPeer};
use jxp_p2pnet::assign::{assign_by_crawlers, CrawlerParams};
use jxp_p2pnet::{ChurnModel, ChurnParams, Join, Network, NetworkConfig, Rejoin};
use jxp_webgraph::generators::{CategorizedGraph, CategorizedParams};
use jxp_webgraph::Subgraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

fn dataset() -> (CategorizedGraph, Vec<Subgraph>) {
    let cg = CategorizedGraph::generate(
        &CategorizedParams {
            num_categories: 3,
            nodes_per_category: 80,
            intra_out_per_node: 3,
            cross_fraction: 0.2,
        },
        &mut StdRng::seed_from_u64(81),
    );
    let params = CrawlerParams {
        peers_per_category: 3,
        seeds_per_peer: 3,
        max_depth: 3,
        ..Default::default()
    };
    let frags = assign_by_crawlers(&cg, &params, &mut StdRng::seed_from_u64(82));
    (cg, frags)
}

/// The scripted scenario: meetings interleaved with warm churn ticks
/// aggressive enough to force departures, revivals and fresh joins, over
/// pre-meetings selection.
fn durable_scenario(threads: usize) -> (Network, usize, usize, usize) {
    let (cg, frags) = dataset();
    let pool = frags.clone();
    let mut net = Network::new(
        frags,
        cg.graph.num_nodes() as u64,
        NetworkConfig {
            strategy: SelectionStrategy::PreMeetings(PreMeetingsConfig::default()),
            threads,
            ..NetworkConfig::default()
        },
        41,
    );
    let params = ChurnParams {
        leave_prob: 0.5,
        join_prob: 0.5,
        min_peers: 4,
        max_peers: 12,
        rejoin: Rejoin::Warm,
    };
    let mut churn = ChurnModel::new(params, pool).unwrap();
    let mut rng = StdRng::seed_from_u64(43);
    let (mut leaves, mut rejoins, mut fresh) = (0, 0, 0);
    for _ in 0..12 {
        net.run_parallel(15);
        let tick = churn.tick(&mut net, &mut rng);
        leaves += usize::from(tick.left.is_some());
        match tick.joined {
            Some(Join::Revived) => rejoins += 1,
            Some(Join::Fresh) => fresh += 1,
            None => {}
        }
    }
    (net, leaves, rejoins, fresh)
}

fn score_bits(net: &Network) -> Vec<Vec<u64>> {
    net.peers()
        .iter()
        .map(|p| p.scores().iter().map(|s| s.to_bits()).collect())
        .collect()
}

#[test]
fn durable_churn_exercises_departures_and_resurrections() {
    let (net, leaves, rejoins, fresh) = durable_scenario(1);
    assert!(leaves > 0, "scenario produced no departures");
    assert!(rejoins > 0, "scenario produced no resurrections");
    assert!(fresh > 0, "scenario admitted no fresh peer");
    for p in net.peers() {
        jxp_core::invariants::check_mass_conservation(p).unwrap();
    }
}

#[test]
fn durable_churn_is_bit_identical_across_thread_counts() {
    let (baseline, leaves, rejoins, fresh) = durable_scenario(1);
    let want = score_bits(&baseline);
    for threads in [2, 8] {
        let (net, l, r, f) = durable_scenario(threads);
        assert_eq!((l, r, f), (leaves, rejoins, fresh), "{threads} threads");
        assert_eq!(
            score_bits(&net),
            want,
            "scores diverged at {threads} threads"
        );
    }
}

#[test]
fn a_resurrected_peer_keeps_its_accumulated_state() {
    let (cg, frags) = dataset();
    let pool = frags.clone();
    let mut net = Network::new(
        frags,
        cg.graph.num_nodes() as u64,
        NetworkConfig::default(),
        47,
    );
    net.run_parallel(40);
    let before = score_bits(&net);
    let snapshots: Vec<Vec<u8>> = net
        .peers()
        .iter()
        .map(|p| snapshot::save(p).to_vec())
        .collect();

    // Force a departure; the same tick's join revives the one parked peer
    // rather than admitting a pool fragment.
    let params = ChurnParams {
        leave_prob: 1.0,
        join_prob: 1.0,
        min_peers: 2,
        max_peers: 64,
        rejoin: Rejoin::Warm,
    };
    let mut churn = ChurnModel::new(params, pool).unwrap();
    let tick = churn.tick(&mut net, &mut StdRng::seed_from_u64(48));
    let victim = tick.left.expect("forced leave did not happen");
    assert_eq!(tick.joined, Some(Join::Revived));

    // The revived peer carries the exact score bits it left with — its
    // world knowledge survived the leave.
    let revived = net.peers().last().unwrap();
    assert_eq!(score_bits(&net).last(), Some(&before[victim]));
    assert_eq!(snapshot::save(revived).to_vec(), snapshots[victim]);
}

#[test]
fn a_cold_revival_is_a_fresh_peer_on_its_own_pages() {
    let (cg, frags) = dataset();
    let n = cg.graph.num_nodes() as u64;
    let mut net = Network::new(frags.clone(), n, NetworkConfig::default(), 51);
    net.run_parallel(40);
    let params = ChurnParams {
        leave_prob: 0.6,
        join_prob: 0.4,
        min_peers: 3,
        max_peers: 64,
        rejoin: Rejoin::Cold,
    };
    let mut churn = ChurnModel::new(params, Vec::new()).unwrap();
    let mut rng = StdRng::seed_from_u64(52);
    // The departed peers' fragments, oldest first, with the index each
    // held when it left.
    let mut departed: VecDeque<(usize, Subgraph)> = VecDeque::new();
    let (mut revivals, mut renumbered) = (0, 0);
    for _ in 0..40 {
        net.run_parallel(3);
        let graphs: Vec<Subgraph> = net.peers().iter().map(|p| p.graph().clone()).collect();
        let tick = churn.tick(&mut net, &mut rng);
        if let Some(victim) = tick.left {
            departed.push_back((victim, graphs[victim].clone()));
        }
        if tick.joined == Some(Join::Revived) {
            let (victim, graph) = departed.pop_front().expect("a revival needs a departure");
            let revived = net.peers().last().unwrap();
            assert_eq!(revived.graph().pages(), graph.pages());
            let fresh = JxpPeer::new(graph, n, NetworkConfig::default().jxp);
            assert_eq!(
                snapshot::save(revived).to_vec(),
                snapshot::save(&fresh).to_vec()
            );
            revivals += 1;
            // Indexing the initial layout by the departure index names
            // another peer's crawl once swap-removes have renumbered.
            if frags[victim % frags.len()].pages() != revived.graph().pages() {
                renumbered += 1;
            }
        }
    }
    assert!(revivals >= 3, "only {revivals} cold revivals");
    assert!(renumbered > 0, "no revival after a renumbering");
}
