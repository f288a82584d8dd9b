//! Integration tests of the full network stack: simulator, selection
//! strategies, N estimation, churn, bandwidth accounting.

use jxp::core::selection::{PreMeetingsConfig, SelectionStrategy};
use jxp::core::JxpConfig;
use jxp::p2pnet::assign::{assign_by_crawlers, CrawlerParams};
use jxp::p2pnet::churn::{ChurnModel, ChurnParams, ChurnTick, Rejoin};
use jxp::p2pnet::{Network, NetworkConfig};
use jxp::pagerank::{metrics, pagerank, PageRankConfig};
use jxp::webgraph::generators::{CategorizedGraph, CategorizedParams};
use jxp::webgraph::Subgraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn world() -> (CategorizedGraph, Vec<Subgraph>) {
    let cg = CategorizedGraph::generate(
        &CategorizedParams {
            num_categories: 4,
            nodes_per_category: 150,
            intra_out_per_node: 4,
            cross_fraction: 0.15,
        },
        &mut StdRng::seed_from_u64(41),
    );
    let frags = assign_by_crawlers(
        &cg,
        &CrawlerParams {
            peers_per_category: 4,
            seeds_per_peer: 3,
            max_depth: 4,
            max_pages: Some(80),
            max_pages_jitter: 0.5,
            off_category_follow_prob: 0.5,
        },
        &mut StdRng::seed_from_u64(42),
    );
    (cg, frags)
}

#[test]
fn both_selection_strategies_converge() {
    let (cg, frags) = world();
    let truth = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
    let truth_ranking = jxp::core::evaluate::centralized_ranking(&truth);
    for strategy in [
        SelectionStrategy::Random,
        SelectionStrategy::PreMeetings(PreMeetingsConfig::default()),
    ] {
        let mut net = Network::new(
            frags.clone(),
            cg.graph.num_nodes() as u64,
            NetworkConfig {
                jxp: JxpConfig::optimized(),
                strategy: strategy.clone(),
                ..Default::default()
            },
            43,
        );
        let before = metrics::footrule_distance(&net.total_ranking(), &truth_ranking, 60);
        net.run_parallel(400);
        let after = metrics::footrule_distance(&net.total_ranking(), &truth_ranking, 60);
        assert!(
            after < before,
            "{strategy:?}: footrule did not improve ({before} → {after})"
        );
    }
}

#[test]
fn premeetings_selections_are_used_and_fairness_randoms_remain() {
    let (cg, frags) = world();
    let mut net = Network::new(
        frags,
        cg.graph.num_nodes() as u64,
        NetworkConfig {
            strategy: SelectionStrategy::PreMeetings(PreMeetingsConfig::default()),
            ..Default::default()
        },
        44,
    );
    net.run_parallel(400);
    let (selections, candidate, revisit, cached) = net.selection_stats();
    assert_eq!(selections, 400);
    assert!(candidate > 0, "no candidate-driven selections happened");
    assert!(
        candidate + revisit < selections,
        "no random selections remain — fairness violated"
    );
    assert!(cached > 0, "no peers were cached");
}

#[test]
fn bandwidth_log_is_consistent_with_meetings() {
    let (cg, frags) = world();
    let num_peers = frags.len();
    let mut net = Network::new(
        frags,
        cg.graph.num_nodes() as u64,
        NetworkConfig::default(),
        45,
    );
    net.run_parallel(200);
    let log = net.bandwidth();
    // Every meeting logs exactly two per-peer entries.
    let entries: usize = (0..num_peers).map(|p| log.peer_history(p).len()).sum();
    assert_eq!(entries, 400);
    // Totals equal the sum of the per-peer histories (no premeeting bytes
    // under the random strategy).
    let sum: u64 = (0..num_peers)
        .map(|p| log.peer_history(p).iter().sum::<u64>())
        .sum();
    assert_eq!(sum, log.total_bytes());
    assert_eq!(log.premeeting_bytes(), 0);
}

#[test]
fn premeetings_add_synopsis_bytes() {
    let (cg, frags) = world();
    let mut random_net = Network::new(
        frags.clone(),
        cg.graph.num_nodes() as u64,
        NetworkConfig::default(),
        46,
    );
    let mut pre_net = Network::new(
        frags,
        cg.graph.num_nodes() as u64,
        NetworkConfig {
            strategy: SelectionStrategy::PreMeetings(PreMeetingsConfig::default()),
            ..Default::default()
        },
        46,
    );
    random_net.run_parallel(100);
    pre_net.run_parallel(100);
    // Identical seeds → comparable workloads; the pre-meetings run ships
    // MIPs vectors on top of the payloads.
    let r = random_net.bandwidth().total_bytes();
    let p = pre_net.bandwidth().total_bytes();
    assert!(
        p > r,
        "pre-meetings should ship extra synopsis bytes ({p} vs {r})"
    );
}

#[test]
fn gossip_n_estimation_tracks_coverage_and_converges() {
    let (_cg, frags) = world();
    let covered = {
        let mut s = jxp::webgraph::FxHashSet::default();
        for f in &frags {
            s.extend(f.pages().iter().copied());
        }
        s.len() as f64
    };
    let mut net = Network::new(
        frags,
        0,
        NetworkConfig {
            estimate_n: true,
            ..Default::default()
        },
        47,
    );
    net.run_parallel(300);
    for p in 0..net.num_peers() {
        let est = net.peer(p).n_total();
        assert!(
            (est - covered).abs() / covered < 0.4,
            "peer {p}: estimate {est} vs covered {covered}"
        );
    }
}

#[test]
fn local_stability_signal_tracks_global_convergence() {
    use jxp::core::convergence::{stable_fraction, StabilityDetector};
    let (cg, frags) = world();
    let truth = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
    let truth_ranking = jxp::core::evaluate::centralized_ranking(&truth);
    let mut net = Network::new(
        frags,
        cg.graph.num_nodes() as u64,
        NetworkConfig::default(),
        50,
    );
    let mut detectors: Vec<StabilityDetector> = net
        .peers()
        .iter()
        .map(|p| StabilityDetector::new(p, 4, 1e-4))
        .collect();
    let mut first_mostly_stable: Option<(u64, f64)> = None;
    for _ in 0..1500 {
        let rec = net.step();
        detectors[rec.initiator].observe(net.peer(rec.initiator));
        detectors[rec.partner].observe(net.peer(rec.partner));
        if first_mostly_stable.is_none() && stable_fraction(&detectors) > 0.8 {
            let f = metrics::footrule_distance(&net.total_ranking(), &truth_ranking, 60);
            first_mostly_stable = Some((net.meetings(), f));
        }
    }
    let (when, footrule_then) =
        first_mostly_stable.expect("network never became 80% locally stable");
    // The purely local signal should fire only after real progress: the
    // global error at that moment is already small.
    assert!(when > 50, "stability fired implausibly early ({when})");
    assert!(
        footrule_then < 0.2,
        "locally 'stable' while globally far off (footrule {footrule_then})"
    );
}

#[test]
fn network_survives_interleaved_churn_and_stays_accurate() {
    let (cg, frags) = world();
    let truth = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
    let truth_ranking = jxp::core::evaluate::centralized_ranking(&truth);
    let pool = frags.clone();
    let mut net = Network::new(
        frags,
        cg.graph.num_nodes() as u64,
        NetworkConfig::default(),
        48,
    );
    let params = ChurnParams {
        leave_prob: 0.15,
        join_prob: 0.15,
        min_peers: 6,
        max_peers: 24,
        rejoin: Rejoin::Cold,
    };
    let mut churn = ChurnModel::new(params, pool).unwrap();
    let mut rng = StdRng::seed_from_u64(49);
    let mut events = 0;
    for _ in 0..500 {
        net.step();
        if churn.tick(&mut net, &mut rng) != ChurnTick::default() {
            events += 1;
        }
    }
    assert!(events > 30, "churn model produced too few events: {events}");
    for p in net.peers() {
        jxp::core::invariants::check_mass_conservation(p).unwrap();
    }
    let f = metrics::footrule_distance(&net.total_ranking(), &truth_ranking, 60);
    assert!(f < 0.3, "ranking degraded too much under churn: {f}");
}
