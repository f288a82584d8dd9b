//! Reactor-backed transport: hundreds of in-flight meetings per node
//! over one multiplexed connection per peer, driven by a single thread.
//!
//! [`ReactorTransport`] is the [`Transport`] facade (blocking
//! request/reply, drop-in for loopback). The batch entry points are
//! where the reactor pays off:
//!
//! - [`run_reactor_round`] submits a whole node-disjoint meeting round
//!   and harvests it in schedule order — first the round's first-contact
//!   filter probes, then its meetings — using the split
//!   [`JxpNode::meet_begin`]/[`JxpNode::meet_finish`] halves so the
//!   counter trace matches the blocking path exactly. Pair-disjointness
//!   makes the submit-all-then-harvest reordering invisible: no node in
//!   a round touches another pair's state, so every payload equals what
//!   serial execution would have built.
//! - [`reactor_premeet_sweep`] runs the all-pairs synopsis exchange
//!   under a sliding submission window, holding `window` probes in
//!   flight. Synopses are immutable before meetings start, so results
//!   are identical to the serial sweep no matter the concurrency — and
//!   the in-flight gauge provably reaches `min(window, pairs)`.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use jxp_core::selection::PeerSynopses;
use jxp_reactor::{FrameService, ReactorError, ReactorHandle, Ticket};
use jxp_telemetry::lock_unpoisoned;
use jxp_wire::Frame;

use crate::node::{JxpNode, MeetOutcome};
use crate::transport::{
    retry_from, Exchange, FrameHandler, NodeId, RetriedExchange, RetryError, RetryPolicy,
    Transport, TransportError,
};

/// Adapt a node-side [`FrameHandler`] (a `JxpNode` or an injector
/// wrapping one) to the reactor's serve interface. `handle` runs inline
/// on the loop thread, which is what preserves journal-before-reply:
/// the Serve WAL record is written inside `handle` before the reply
/// frame is queued on the socket.
pub struct HandlerService(pub Arc<dyn FrameHandler>);

impl FrameService for HandlerService {
    fn serve(&self, frame: Frame) -> Option<Frame> {
        self.0.handle(frame)
    }
}

fn exchange((reply, bytes_sent, bytes_received): (Frame, u64, u64)) -> Exchange {
    Exchange {
        reply,
        bytes_sent,
        bytes_received,
    }
}

fn map_err(e: ReactorError) -> TransportError {
    match e {
        ReactorError::Unreachable(detail) => TransportError::Unreachable(detail),
        ReactorError::Timeout => TransportError::Timeout,
        ReactorError::Wire(w) => TransportError::Wire(w),
        ReactorError::Closed => TransportError::Unreachable("reactor shut down".to_string()),
    }
}

/// Client side of the reactor: routes node ids to listener addresses,
/// multiplexing every request for a peer over one connection.
#[derive(Clone)]
pub struct ReactorTransport {
    inner: Arc<ReactorTransportInner>,
}

struct ReactorTransportInner {
    handle: ReactorHandle,
    routes: Mutex<HashMap<NodeId, SocketAddr>>,
}

impl ReactorTransport {
    /// Wrap a running reactor's handle.
    pub fn new(handle: ReactorHandle) -> ReactorTransport {
        ReactorTransport {
            inner: Arc::new(ReactorTransportInner {
                handle,
                routes: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Map `id` to the address of its reactor listener.
    pub fn add_route(&self, id: NodeId, addr: SocketAddr) {
        lock_unpoisoned(&self.inner.routes).insert(id, addr);
    }

    fn route(&self, peer: NodeId) -> Result<SocketAddr, TransportError> {
        lock_unpoisoned(&self.inner.routes)
            .get(&peer)
            .copied()
            .ok_or_else(|| TransportError::Unreachable(format!("no route to node {peer}")))
    }

    /// Queue a request without blocking; redeem the ticket later. This
    /// is what lets one driver thread hold hundreds of meetings open.
    pub fn submit(&self, peer: NodeId, frame: &Frame) -> Result<Ticket, TransportError> {
        let addr = self.route(peer)?;
        Ok(self.inner.handle.submit(addr, frame))
    }
}

impl Transport for ReactorTransport {
    fn request(&self, peer: NodeId, frame: &Frame) -> Result<Exchange, TransportError> {
        let addr = self.route(peer)?;
        self.inner
            .handle
            .request(addr, frame)
            .map(exchange)
            .map_err(map_err)
    }
}

/// Redeem a pre-submitted ticket under the shared retry loop: the wait
/// is attempt 0, every retry goes through [`Transport::request`].
fn redeem_with_retry(
    transport: &ReactorTransport,
    peer: NodeId,
    frame: &Frame,
    policy: &RetryPolicy,
    first: Ticket,
) -> Result<RetriedExchange, RetryError> {
    retry_from(
        || first.wait_full().map(exchange).map_err(map_err),
        transport,
        peer,
        frame,
        policy,
    )
}

/// Execute one node-disjoint meeting round through the reactor: submit
/// every request up front, then harvest in schedule order. Initiators
/// that have not met their target before probe for its filter in a
/// submit-then-harvest pass of their own, ahead of the meetings — the
/// frames (and bytes) [`JxpNode::meet`] would send one pair at a time.
///
/// Each `(initiator_index, target, slot)` triple mirrors the pool
/// path's task shape; `slot` receives `Some(outcome)` exactly when
/// `nodes[initiator].meet(..)` would have returned `Ok`.
pub fn run_reactor_round(
    transport: &ReactorTransport,
    nodes: &[Arc<JxpNode>],
    retry: &RetryPolicy,
    round: Vec<(usize, NodeId, &mut Option<MeetOutcome>)>,
) {
    let probes: Vec<_> = round
        .iter()
        .map(|&(initiator, target, _)| {
            let request = nodes[initiator].interest_request(target)?;
            let ticket = transport.submit(target, &request);
            Some((request, ticket))
        })
        .collect();
    let mut inflight = Vec::with_capacity(round.len());
    for ((initiator, target, slot), probe) in round.into_iter().zip(probes) {
        let node = &nodes[initiator];
        if let Some((request, ticket)) = probe {
            let probe = match ticket {
                Ok(t) => redeem_with_retry(transport, target, &request, retry, t),
                Err(error) => Err(RetryError { error, retries: 0 }),
            };
            if node.interest_fetched(target, probe).is_err() {
                continue; // counted as a failed meeting; the slot stays None
            }
        }
        // Disjoint pairs: no other meeting in this round can touch this
        // initiator, so the payload equals what serial execution builds.
        let request = node.meet_begin(target);
        let ticket = transport.submit(target, &request);
        inflight.push((initiator, target, slot, request, ticket));
    }
    for (initiator, target, slot, request, ticket) in inflight {
        let node = &nodes[initiator];
        *slot = match ticket {
            Ok(t) => match redeem_with_retry(transport, target, &request, retry, t) {
                Ok(done) => node.meet_finish(target, done.exchange, done.retries).ok(),
                Err(failed) => {
                    node.meet_abort(failed.retries);
                    None
                }
            },
            Err(_unroutable) => {
                node.meet_abort(0);
                None
            }
        };
    }
}

/// The all-pairs pre-meetings synopsis sweep, multiplexed: submit
/// probes in `(i, j)` order under a sliding window of `window` in
/// flight, harvest in the same order. Returns per-node candidate lists
/// shaped exactly like the serial sweep's.
///
/// Determinism: synopses are computed at join and do not change until
/// the first meeting, so every probe's request and reply are
/// independent of scheduling; collecting in `(i, j)` order makes the
/// output byte-identical to the serial path.
pub fn reactor_premeet_sweep(
    transport: &ReactorTransport,
    nodes: &[Arc<JxpNode>],
    retry: &RetryPolicy,
    window: usize,
) -> Vec<Vec<(NodeId, PeerSynopses)>> {
    let n = nodes.len();
    let mut pairs = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)));
    for (i, node) in nodes.iter().enumerate() {
        for other in nodes.iter() {
            if other.id() != node.id() {
                pairs.push((i, other.id()));
            }
        }
    }

    let window = window.max(1);
    let mut results: Vec<Vec<(NodeId, PeerSynopses)>> = (0..n).map(|_| Vec::new()).collect();
    let mut queue: VecDeque<(usize, NodeId, Frame, Result<Ticket, TransportError>)> =
        VecDeque::new();
    let mut next = 0usize;

    let submit_pair = |pair: (usize, NodeId)| {
        let (i, j) = pair;
        let request = nodes[i].synopses_request();
        let ticket = transport.submit(j, &request);
        (i, j, request, ticket)
    };

    while next < pairs.len() && queue.len() < window {
        queue.push_back(submit_pair(pairs[next]));
        next += 1;
    }
    while let Some((i, j, request, ticket)) = queue.pop_front() {
        // Refill before waiting so the window stays full while the
        // front probe resolves.
        if next < pairs.len() {
            queue.push_back(submit_pair(pairs[next]));
            next += 1;
        }
        let outcome = match ticket {
            Ok(t) => redeem_with_retry(transport, j, &request, retry, t)
                .map_err(|failed| failed.error)
                .and_then(|done| nodes[i].synopses_accept(j, done.exchange)),
            Err(e) => Err(e),
        };
        if let Ok(synopses) = outcome {
            results[i].push((j, synopses));
        }
    }
    results
}
