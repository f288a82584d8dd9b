//! Durable churn through the crate's public API: departing peers
//! checkpoint into a `jxp-store`, rejoiners resume with their state, and
//! the whole scenario — parallel rounds, pre-meetings selection, real
//! wire framing — stays bit-identical across thread counts and across
//! store backends (in-memory vs on-disk).

use jxp_core::selection::{PreMeetingsConfig, SelectionStrategy};
use jxp_p2pnet::assign::{assign_by_crawlers, CrawlerParams};
use jxp_p2pnet::{ChurnEvent, ChurnModel, DurableChurn, Network, NetworkConfig};
use jxp_store::{DirStore, MemStore, StateStore};
use jxp_webgraph::generators::{CategorizedGraph, CategorizedParams};
use jxp_webgraph::Subgraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// The scripted scenario: meetings interleaved with durable churn ticks
/// aggressive enough to force both departures and resurrections, over
/// pre-meetings selection.
fn durable_scenario<S: StateStore>(threads: usize, store: S) -> (Network, usize, usize, usize) {
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
    let model = ChurnModel {
        leave_prob: 0.5,
        join_prob: 0.5,
        min_peers: 4,
        max_peers: 12,
    };
    let mut churn = DurableChurn::new(model, store);
    let mut rng = StdRng::seed_from_u64(43);
    let mut cursor = 0;
    let (mut leaves, mut rejoins, mut fresh) = (0, 0, 0);
    for _ in 0..12 {
        net.run_parallel(15);
        match churn.tick(&mut net, &pool, &mut cursor, &mut rng) {
            ChurnEvent::Left(_) => leaves += 1,
            ChurnEvent::Rejoined(_) => rejoins += 1,
            ChurnEvent::Joined(_) => fresh += 1,
            ChurnEvent::None => {}
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
    let (net, leaves, rejoins, _) = durable_scenario(1, MemStore::new());
    assert!(leaves > 0, "scenario produced no departures");
    assert!(rejoins > 0, "scenario produced no resurrections");
    for p in net.peers() {
        jxp_core::invariants::check_mass_conservation(p).unwrap();
    }
}

#[test]
fn durable_churn_is_bit_identical_across_thread_counts() {
    let (baseline, leaves, rejoins, fresh) = durable_scenario(1, MemStore::new());
    let want = score_bits(&baseline);
    for threads in [2, 8] {
        let (net, l, r, f) = durable_scenario(threads, MemStore::new());
        assert_eq!((l, r, f), (leaves, rejoins, fresh), "{threads} threads");
        assert_eq!(
            score_bits(&net),
            want,
            "scores diverged at {threads} threads"
        );
    }
}

#[test]
fn dir_store_backend_matches_the_in_memory_one() {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "jxp-durable-churn-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let (mem_net, ..) = durable_scenario(2, MemStore::new());
    let (dir_net, ..) = durable_scenario(2, DirStore::open(&dir).expect("open state dir"));
    assert_eq!(score_bits(&dir_net), score_bits(&mem_net));
    std::fs::remove_dir_all(&dir).ok();
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
    let before: Vec<Vec<u64>> = score_bits(&net);

    // Force a departure, then resurrect immediately.
    let model = ChurnModel {
        leave_prob: 1.0,
        join_prob: 0.0,
        min_peers: 2,
        max_peers: 64,
    };
    let mut churn = DurableChurn::new(model, MemStore::new());
    let mut rng = StdRng::seed_from_u64(48);
    let mut cursor = 0;
    let event = churn.tick(&mut net, &pool, &mut cursor, &mut rng);
    let ChurnEvent::Left(victim) = event else {
        panic!("forced leave did not happen: {event:?}");
    };
    assert_eq!(churn.departed().count(), 1);
    let revived = churn.revive(&mut net).expect("a departed peer is waiting");

    // The revived peer carries the exact score bits it left with —
    // world knowledge survived the store round-trip.
    let after = score_bits(&net);
    assert_eq!(after[revived], before[victim]);
    assert_eq!(churn.departed().count(), 0);
}
