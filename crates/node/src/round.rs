//! The one way meetings run, over any [`Transport`]: start every
//! request, then redeem them in order.
//!
//! [`run_round`] executes a round of node-disjoint meetings. It starts
//! the round's first-contact filter probes and redeems them in order,
//! then starts its meeting requests and redeems those in order.
//! Disjointness makes the start-all-then-redeem reordering invisible: no
//! pair touches another pair's state, so every payload, counter and
//! journal record equals what one-pair-at-a-time execution produces.
//! [`JxpNode::meet`] is the one-pair round.
//!
//! On loopback [`Transport::start`] completes the exchange at once, so a
//! round runs one exchange at a time; on the reactor every started
//! request is in flight together, multiplexed by the loop thread.

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
