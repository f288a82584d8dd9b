//! Schedule pins: fixed fingerprints of whole simulator runs, one per
//! selection strategy and run shape, checked at 1 and 2 worker threads.
//!
//! The meeting schedule — who meets whom, and in which round — is drawn
//! from the network's RNG and (under pre-meetings) from selector states
//! that earlier meetings fed. A change to how meetings are drawn, cut
//! into rounds or observed moves these values even when every
//! thread-count comparison still agrees with itself, so the values are
//! literals: a refactor of the round engine must leave them unchanged.
//!
//! Each fingerprint covers the score hash, total and pre-meeting bytes,
//! every peer's per-meeting byte history, the selector statistics, the
//! rounds the engine reported, and the telemetry counters and event
//! stream.

use jxp_core::evaluate::score_hash;
use jxp_core::selection::{PreMeetingsConfig, SelectionStrategy};
use jxp_p2pnet::assign::{assign_by_crawlers, CrawlerParams};
use jxp_p2pnet::churn::{ChurnModel, ChurnParams, Rejoin};
use jxp_p2pnet::{Network, NetworkConfig};
use jxp_telemetry::TelemetryHub;
use jxp_webgraph::generators::{CategorizedGraph, CategorizedParams};
use jxp_webgraph::Subgraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// 6 categories × 150 pages, crawled by 6 peers per category: 36 peers.
fn dataset() -> (u64, Vec<Subgraph>) {
    let cg = CategorizedGraph::generate(
        &CategorizedParams {
            num_categories: 6,
            nodes_per_category: 150,
            intra_out_per_node: 5,
            cross_fraction: 0.2,
        },
        &mut StdRng::seed_from_u64(71),
    );
    let params = CrawlerParams {
        peers_per_category: 6,
        seeds_per_peer: 3,
        max_depth: 3,
        ..Default::default()
    };
    let frags = assign_by_crawlers(&cg, &params, &mut StdRng::seed_from_u64(72));
    (cg.graph.num_nodes() as u64, frags)
}

#[derive(Debug, Clone, Copy)]
enum Strategy {
    PreMeetings,
    Random,
    EstimateN,
}

impl Strategy {
    fn config(self, threads: usize) -> NetworkConfig {
        let base = NetworkConfig {
            threads,
            ..NetworkConfig::default()
        };
        match self {
            Strategy::PreMeetings => NetworkConfig {
                strategy: SelectionStrategy::PreMeetings(PreMeetingsConfig::default()),
                ..base
            },
            Strategy::Random => base,
            Strategy::EstimateN => NetworkConfig {
                estimate_n: true,
                ..base
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Twelve `run_parallel(50)` calls.
    Chunked,
    /// One `run_parallel(700)`.
    Long,
    /// 260 one-meeting steps, a `run_parallel(30)` after every 60th and
    /// a churn tick after every 40th.
    StepsWithChurn,
}

#[derive(Debug, PartialEq, Eq)]
struct Pin {
    score_hash: u64,
    total_bytes: u64,
    premeeting_bytes: u64,
    history_hash: u64,
    selection_stats: (usize, usize, usize, usize),
    rounds: u64,
    counters_hash: u64,
    events_hash: u64,
}

/// FNV-1a over a byte string.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run(strategy: Strategy, shape: Shape, threads: usize) -> Pin {
    let (n_total, frags) = dataset();
    let spare: Vec<Subgraph> = frags[..6].to_vec();
    let mut net = Network::new(frags, n_total, strategy.config(threads), 11);
    let hub = Arc::new(TelemetryHub::with_event_capacity(1 << 14));
    net.attach_telemetry(Arc::clone(&hub));
    let mut rounds = 0;
    match shape {
        Shape::Chunked => {
            for _ in 0..12 {
                rounds += net.run_parallel(50).rounds;
            }
        }
        Shape::Long => rounds += net.run_parallel(700).rounds,
        Shape::StepsWithChurn => {
            let params = ChurnParams {
                leave_prob: 0.5,
                join_prob: 0.5,
                min_peers: 30,
                max_peers: 40,
                rejoin: Rejoin::Warm,
            };
            let mut churn = ChurnModel::new(params, spare).unwrap();
            let mut churn_rng = StdRng::seed_from_u64(13);
            for k in 1..=260 {
                net.step();
                if k % 60 == 0 {
                    rounds += net.run_parallel(30).rounds;
                }
                if k % 40 == 0 {
                    churn.tick(&mut net, &mut churn_rng);
                }
            }
        }
    }
    let history: Vec<u8> = (0..net.num_peers())
        .flat_map(|p| {
            let h = net.bandwidth().peer_history(p);
            std::iter::once(h.len() as u64)
                .chain(h.iter().copied())
                .flat_map(u64::to_le_bytes)
        })
        .collect();
    let snap = hub.snapshot();
    assert!(
        snap.events.first().is_none_or(|e| e.seq == 0),
        "the event ring dropped events"
    );
    Pin {
        score_hash: score_hash(net.peers().iter().map(|p| p.scores())),
        total_bytes: net.bandwidth().total_bytes(),
        premeeting_bytes: net.bandwidth().premeeting_bytes(),
        history_hash: fnv(&history),
        selection_stats: net.selection_stats(),
        rounds,
        counters_hash: fnv(format!("{:?}", snap.metrics.counters).as_bytes()),
        events_hash: fnv(format!("{:?}", snap.events).as_bytes()),
    }
}

fn check(strategy: Strategy, shape: Shape, want: Pin) {
    for threads in [1, 2] {
        assert_eq!(
            run(strategy, shape, threads),
            want,
            "{strategy:?} {shape:?} at {threads} threads"
        );
    }
}

#[test]
fn premeetings_chunked() {
    check(
        Strategy::PreMeetings,
        Shape::Chunked,
        Pin {
            score_hash: 0x9b32_b1c2_5482_845c,
            total_bytes: 14_671_023,
            premeeting_bytes: 8_646_000,
            history_hash: 0x18c1_c677_11ce_39ca,
            selection_stats: (600, 417, 27, 990),
            rounds: 182,
            counters_hash: 0x4a61_a47a_c193_c7ea,
            events_hash: 0x0e9f_2325_74f8_0335,
        },
    );
}

#[test]
fn premeetings_long() {
    check(
        Strategy::PreMeetings,
        Shape::Long,
        Pin {
            score_hash: 0x276b_0a16_b907_4a14,
            total_bytes: 18_466_786,
            premeeting_bytes: 11_362_940,
            history_hash: 0x3f86_0652_3bd9_ee37,
            selection_stats: (700, 479, 30, 1089),
            rounds: 200,
            counters_hash: 0x6b80_44a6_599a_1d75,
            events_hash: 0xd2b9_c44f_cc7e_dc62,
        },
    );
}

#[test]
fn premeetings_steps_with_churn() {
    check(
        Strategy::PreMeetings,
        Shape::StepsWithChurn,
        Pin {
            score_hash: 0x5af0_92c9_d85c_ee89,
            total_bytes: 5_047_204,
            premeeting_bytes: 1_452_004,
            history_hash: 0x1561_8ae5_8fa1_6793,
            selection_stats: (20, 3, 0, 40),
            rounds: 34,
            counters_hash: 0x7b14_dca6_585a_aba8,
            events_hash: 0xc001_fc15_29c1_16e4,
        },
    );
}

#[test]
fn random_chunked() {
    check(
        Strategy::Random,
        Shape::Chunked,
        Pin {
            score_hash: 0x7e31_2c7c_f6e1_e0a4,
            total_bytes: 4_666_555,
            premeeting_bytes: 0,
            history_hash: 0x2cbb_ff8c_6e37_a347,
            selection_stats: (600, 0, 0, 0),
            rounds: 172,
            counters_hash: 0xa8e8_a3d3_7aac_cc96,
            events_hash: 0xe563_6e71_7828_6847,
        },
    );
}

#[test]
fn random_long() {
    check(
        Strategy::Random,
        Shape::Long,
        Pin {
            score_hash: 0xafd5_ea2a_b1f4_7155,
            total_bytes: 5_525_726,
            premeeting_bytes: 0,
            history_hash: 0x5e6d_5fa9_c250_4b87,
            selection_stats: (700, 0, 0, 0),
            rounds: 195,
            counters_hash: 0x0bf1_8b98_fd5b_8641,
            events_hash: 0x8590_d456_dbd6_2bb6,
        },
    );
}

#[test]
fn random_steps_with_churn() {
    check(
        Strategy::Random,
        Shape::StepsWithChurn,
        Pin {
            score_hash: 0x0db7_6680_6421_c5a5,
            total_bytes: 2_757_295,
            premeeting_bytes: 0,
            history_hash: 0x64c8_e136_462a_38d5,
            selection_stats: (20, 0, 0, 0),
            rounds: 31,
            counters_hash: 0xde4e_425c_981b_1d50,
            events_hash: 0x1885_7f4c_a482_1fde,
        },
    );
}

#[test]
fn estimate_n_chunked() {
    check(
        Strategy::EstimateN,
        Shape::Chunked,
        Pin {
            score_hash: 0x8242_8c45_54d1_cdf0,
            total_bytes: 7_128_955,
            premeeting_bytes: 0,
            history_hash: 0xced7_dc52_cf4b_b5ac,
            selection_stats: (600, 0, 0, 0),
            rounds: 172,
            counters_hash: 0x93c3_f9ef_0ce1_004e,
            events_hash: 0xbbe3_8342_f9f3_8ad1,
        },
    );
}

#[test]
fn estimate_n_long() {
    check(
        Strategy::EstimateN,
        Shape::Long,
        Pin {
            score_hash: 0x9357_7d61_d9bb_ab82,
            total_bytes: 8_398_526,
            premeeting_bytes: 0,
            history_hash: 0x7155_4bb9_1486_0d3b,
            selection_stats: (700, 0, 0, 0),
            rounds: 195,
            counters_hash: 0x13d9_c568_7dc7_b466,
            events_hash: 0x9296_e65d_e427_cd21,
        },
    );
}

#[test]
fn estimate_n_steps_with_churn() {
    check(
        Strategy::EstimateN,
        Shape::StepsWithChurn,
        Pin {
            score_hash: 0xf99d_66bf_ba5f_587c,
            total_bytes: 4_316_815,
            premeeting_bytes: 0,
            history_hash: 0x6202_d437_2ea7_e170,
            selection_stats: (20, 0, 0, 0),
            rounds: 31,
            counters_hash: 0x159f_5937_f8ce_49e3,
            events_hash: 0x12a0_3c74_08d7_3599,
        },
    );
}
