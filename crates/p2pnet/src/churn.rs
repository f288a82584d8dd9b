//! Peer churn: the one stochastic join/leave driver over a [`Network`].
//!
//! §5.3: "peers join and leave the P2P network at high rate (the
//! so-called 'churn' phenomenon)… JXP has been designed to handle high
//! dynamics, and the algorithms themselves can easily cope with changes in
//! the Web graph, repeated crawls, or peer churn." There is no convergence
//! proof under churn (the paper defers that to future work) — this module
//! exists to *exercise* the robustness claim: the churn example, the
//! `dynamics` experiment and the integration tests drive a network through
//! joins and leaves and verify that scores stay valid and keep
//! approximating centralized PageRank.
//!
//! A departing peer is parked, not discarded: a later join revives the
//! oldest parked peer, [warm](Rejoin::Warm) (with everything it learned)
//! or [cold](Rejoin::Cold) (a fresh peer on its own crawl). Only when
//! nobody is parked does a join draw a fresh fragment from the pool.
//! Everything is deterministic given the rng.

use crate::sim::Network;
use jxp_core::JxpPeer;
use jxp_webgraph::Subgraph;
use rand::Rng;
use std::collections::VecDeque;

/// How a parked peer comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejoin {
    /// Exactly as it left: its world knowledge and scores are kept across
    /// the leave (a peer with a local disk).
    Warm,
    /// A fresh peer on the departed peer's own fragment: everything it
    /// learned in meetings is lost.
    Cold,
}

/// The settable values of a [`ChurnModel`].
#[derive(Debug, Clone)]
pub struct ChurnParams {
    /// Probability that a churn tick makes one peer leave.
    pub leave_prob: f64,
    /// Probability that a churn tick makes one peer join.
    pub join_prob: f64,
    /// Minimum network size: leaves are suppressed at or below this.
    /// At least 2, the smallest network that can hold a meeting.
    pub min_peers: usize,
    /// Maximum network size: joins are suppressed at or above this.
    pub max_peers: usize,
    /// How a parked peer comes back.
    pub rejoin: Rejoin,
}

/// What one churn tick did. A tick may both remove a peer and add one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnTick {
    /// The index the departed peer held, when one left.
    pub left: Option<usize>,
    /// How a peer joined, when one did. A joiner takes the last index.
    pub joined: Option<Join>,
}

/// Where a joining peer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Join {
    /// The oldest parked peer came back, as [`ChurnParams::rejoin`] says.
    Revived,
    /// Nobody was parked: a fresh peer joined on the next pool fragment.
    Fresh,
}

/// A stochastic churn driver applied between meetings. It owns the peers
/// that left (oldest first) and the pool of fresh fragments, which it
/// draws round-robin.
#[derive(Debug)]
pub struct ChurnModel {
    params: ChurnParams,
    pool: Vec<Subgraph>,
    cursor: usize,
    parked: VecDeque<JxpPeer>,
}

impl ChurnModel {
    /// A driver following `params` that admits fresh peers from `pool`
    /// (which may be empty: then only departed peers rejoin).
    ///
    /// Refuses `min_peers < 2`: a leave from a two-peer network would
    /// leave no partner to meet, and [`Network::remove_peer`] panics on it.
    pub fn new(params: ChurnParams, pool: Vec<Subgraph>) -> Result<Self, String> {
        if params.min_peers < 2 {
            return Err(format!(
                "min_peers must be at least 2, got {}",
                params.min_peers
            ));
        }
        Ok(ChurnModel {
            params,
            pool,
            cursor: 0,
            parked: VecDeque::new(),
        })
    }

    /// Apply one churn tick to `net`. The draws come in a fixed order:
    /// the leave coin, then (above the floor) the victim, then the join
    /// coin, whose join happens only below the cap.
    pub fn tick(&mut self, net: &mut Network, rng: &mut impl Rng) -> ChurnTick {
        let mut tick = ChurnTick::default();
        if rng.gen_bool(self.params.leave_prob) && net.num_peers() > self.params.min_peers {
            let victim = rng.gen_range(0..net.num_peers());
            self.parked.push_back(net.remove_peer(victim));
            tick.left = Some(victim);
        }
        if rng.gen_bool(self.params.join_prob) && net.num_peers() < self.params.max_peers {
            tick.joined = self.join(net);
        }
        tick
    }

    /// Revive the oldest parked peer, or else admit the next pool
    /// fragment; `None` when both are empty.
    fn join(&mut self, net: &mut Network) -> Option<Join> {
        if let Some(peer) = self.parked.pop_front() {
            match self.params.rejoin {
                Rejoin::Warm => net.add_existing_peer(peer),
                Rejoin::Cold => net.add_peer(peer.graph().clone()),
            }
            return Some(Join::Revived);
        }
        if self.pool.is_empty() {
            return None;
        }
        let fragment = self.pool[self.cursor % self.pool.len()].clone();
        self.cursor += 1;
        net.add_peer(fragment);
        Some(Join::Fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{assign_by_crawlers, CrawlerParams};
    use crate::sim::NetworkConfig;
    use jxp_webgraph::generators::{CategorizedGraph, CategorizedParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world() -> (CategorizedGraph, Vec<Subgraph>) {
        let cg = CategorizedGraph::generate(
            &CategorizedParams {
                num_categories: 2,
                nodes_per_category: 80,
                intra_out_per_node: 3,
                cross_fraction: 0.2,
            },
            &mut StdRng::seed_from_u64(1),
        );
        let frags = assign_by_crawlers(
            &cg,
            &CrawlerParams {
                peers_per_category: 3,
                seeds_per_peer: 3,
                max_depth: 3,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(2),
        );
        (cg, frags)
    }

    fn params(leave_prob: f64, join_prob: f64, min_peers: usize, max_peers: usize) -> ChurnParams {
        ChurnParams {
            leave_prob,
            join_prob,
            min_peers,
            max_peers,
            rejoin: Rejoin::Cold,
        }
    }

    #[test]
    fn network_survives_heavy_churn() {
        let (cg, frags) = world();
        let pool = frags.clone();
        let mut net = Network::new(
            frags,
            cg.graph.num_nodes() as u64,
            NetworkConfig::default(),
            5,
        );
        let mut model = ChurnModel::new(params(0.3, 0.3, 3, 10), pool).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut joins = 0;
        let mut leaves = 0;
        for _ in 0..100 {
            net.step();
            let tick = model.tick(&mut net, &mut rng);
            leaves += usize::from(tick.left.is_some());
            joins += usize::from(tick.joined.is_some());
        }
        assert!(joins > 0, "no joins in 100 high-churn ticks");
        assert!(leaves > 0, "no leaves in 100 high-churn ticks");
        assert!(net.num_peers() >= 3 && net.num_peers() <= 10);
        // All surviving peers still hold a valid probability mass.
        for p in net.peers() {
            jxp_core::invariants::check_mass_conservation(p).unwrap();
        }
    }

    #[test]
    fn bounds_are_respected() {
        let (cg, frags) = world();
        let pool = frags.clone();
        let mut net = Network::new(
            frags,
            cg.graph.num_nodes() as u64,
            NetworkConfig::default(),
            5,
        );
        // The smallest legal floor never trips the network's own guard.
        let mut model = ChurnModel::new(params(1.0, 0.0, 2, 100), pool).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            model.tick(&mut net, &mut rng);
        }
        assert_eq!(net.num_peers(), 2);
    }

    #[test]
    fn a_floor_below_two_peers_is_refused_when_built() {
        // `min_peers: 1` would let a tick shrink a two-peer network, which
        // `Network::remove_peer` refuses with a panic.
        let err = ChurnModel::new(params(1.0, 0.0, 1, 8), Vec::new()).unwrap_err();
        assert!(err.contains("min_peers"), "{err}");
        assert!(ChurnModel::new(params(1.0, 0.0, 0, 8), Vec::new()).is_err());
    }
}
