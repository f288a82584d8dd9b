//! The one way meetings and the pre-meetings sweep run, over any
//! [`Transport`]: start every request, then redeem them in order.
//!
//! - [`run_round`] executes a round of node-disjoint meetings. It starts
//!   the round's first-contact filter probes and redeems them in order,
//!   then starts its meeting requests and redeems those in order.
//!   Disjointness makes the start-all-then-redeem reordering invisible:
//!   no pair touches another pair's state, so every payload, counter and
//!   journal record equals what one-pair-at-a-time execution produces.
//!   [`JxpNode::meet`] is the one-pair round.
//! - [`premeet_sweep`] runs the all-pairs synopsis exchange under a
//!   sliding window of `window` probes in flight. Synopses are immutable
//!   before meetings start, so the answers (and the bytes counted) do not
//!   depend on the window.
//!
//! On loopback [`Transport::start`] completes the exchange at once, so
//! both run one exchange at a time; on the reactor every started request
//! is in flight together, multiplexed by the loop thread.

use std::collections::VecDeque;
use std::sync::Arc;

use jxp_core::selection::PeerSynopses;

use crate::node::{JxpNode, MeetOutcome};
use crate::transport::{retry_from, NodeId, RetryPolicy, Transport, TransportError};

/// Execute `round`, a list of `(initiator, target)` meetings on pairwise
/// disjoint nodes, and return each meeting's outcome in round order —
/// exactly what [`JxpNode::meet`] would have returned for it.
pub(crate) fn run_round(
    transport: &dyn Transport,
    retry: &RetryPolicy,
    round: &[(&JxpNode, NodeId)],
) -> Vec<Result<MeetOutcome, TransportError>> {
    let probes: Vec<_> = round
        .iter()
        .map(|&(node, target)| {
            let request = node.interest_request(target)?;
            let pending = transport.start(target, &request);
            Some((request, pending))
        })
        .collect();
    let started: Vec<Result<_, TransportError>> = round
        .iter()
        .zip(probes)
        .map(|(&(node, target), probe)| {
            if let Some((request, pending)) = probe {
                let probe = retry_from(pending, transport, target, &request, retry);
                node.interest_fetched(target, probe)?;
            }
            let request = node.meet_begin(target);
            let pending = transport.start(target, &request);
            Ok((request, pending))
        })
        .collect();
    round
        .iter()
        .zip(started)
        .map(|(&(node, target), started)| {
            let (request, pending) = started?;
            match retry_from(pending, transport, target, &request, retry) {
                Ok(done) => node.meet_finish(target, done),
                Err(failed) => {
                    node.meet_abort(&failed);
                    Err(failed.error)
                }
            }
        })
        .collect()
}

/// The all-pairs pre-meetings synopsis sweep: start probes in `(i, j)`
/// order under a sliding window of `window` in flight, redeem them in the
/// same order, and return each node's candidate list — every peer that
/// answered, with its synopses, in id order.
pub(crate) fn premeet_sweep(
    transport: &dyn Transport,
    nodes: &[Arc<JxpNode>],
    retry: &RetryPolicy,
    window: usize,
) -> Vec<Vec<(NodeId, PeerSynopses)>> {
    let mut pairs = nodes.iter().enumerate().flat_map(|(i, node)| {
        nodes
            .iter()
            .filter(move |other| other.id() != node.id())
            .map(move |other| (i, other.id()))
    });
    let start = |(i, j): (usize, NodeId)| {
        let request = nodes[i].synopses_request();
        let pending = transport.start(j, &request);
        (i, j, request, pending)
    };
    let mut results: Vec<Vec<(NodeId, PeerSynopses)>> = nodes.iter().map(|_| Vec::new()).collect();
    let mut queue: VecDeque<_> = pairs.by_ref().take(window.max(1)).map(start).collect();
    while let Some((i, j, request, pending)) = queue.pop_front() {
        // Refill before waiting so the window stays full while the
        // front probe resolves.
        queue.extend(pairs.next().map(start));
        let probe = retry_from(pending, transport, j, &request, retry);
        if let Ok(synopses) = nodes[i].synopses_accept(j, probe) {
            results[i].push((j, synopses));
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::TransportKind;
    use crate::transport::{FaultInjector, FrameHandler};
    use jxp_core::{JxpConfig, JxpPeer};
    use jxp_synopses::mips::MipsPermutations;
    use jxp_telemetry::TelemetryHub;
    use jxp_webgraph::{PageId, Subgraph};

    /// Four nodes over a 12-page ring, three pages each.
    fn ring_nodes() -> Vec<Arc<JxpNode>> {
        let perms = MipsPermutations::generate(16, 5);
        (0..4u32)
            .map(|i| {
                let fragment = Subgraph::from_adjacency(
                    (3 * i..3 * i + 3)
                        .map(|p| (PageId(p), vec![PageId((p + 1) % 12)]))
                        .collect::<Vec<_>>(),
                );
                let peer = JxpPeer::new(fragment, 12, JxpConfig::default());
                Arc::new(JxpNode::new(NodeId::from(i), peer, &perms))
            })
            .collect()
    }

    #[test]
    fn premeet_sweep_is_the_same_on_loopback_and_the_reactor() {
        for window in [1, 512] {
            let sweep = |kind: TransportKind| {
                let nodes = ring_nodes();
                let handlers: Vec<_> = nodes
                    .iter()
                    .map(|n| {
                        let inner = Arc::clone(n) as Arc<dyn FrameHandler>;
                        Arc::new(FaultInjector::new(inner, 0, 0.0))
                    })
                    .collect();
                let (transport, _reactor) = kind.build(&handlers, &TelemetryHub::new());
                let lists =
                    premeet_sweep(transport.as_ref(), &nodes, &RetryPolicy::default(), window);
                let bytes: Vec<_> = nodes
                    .iter()
                    .map(|n| (n.stats().bytes_in, n.stats().bytes_out))
                    .collect();
                (lists, bytes)
            };
            let (want, want_bytes) = sweep(TransportKind::Loopback);
            for (i, list) in want.iter().enumerate() {
                let ids: Vec<NodeId> = list.iter().map(|(id, _)| *id).collect();
                let others: Vec<NodeId> = (0..4).filter(|&j| j != i as NodeId).collect();
                assert_eq!(ids, others, "window {window}: node {i} heard from everyone");
            }
            assert!(want_bytes
                .iter()
                .all(|&(b_in, b_out)| b_in > 0 && b_out > 0));
            let (got, got_bytes) = sweep(TransportKind::Reactor);
            assert_eq!(got, want, "window {window}");
            assert_eq!(got_bytes, want_bytes, "window {window}");
        }
    }
}
