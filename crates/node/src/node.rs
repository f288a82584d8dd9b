//! The networked peer runtime: a [`JxpNode`] owns a [`JxpPeer`] plus its
//! synopses and answers/initiates meetings over any [`Transport`].
//!
//! Protocol invariant (paper §4): both sides of a meeting compute their
//! outgoing payload **before** absorbing the other's. The responder
//! therefore builds its `MeetReply` from pre-absorption state, and the
//! initiator absorbs the reply only after the exchange returns.
//!
//! Payloads are cut to the receiver (`jxp_core::payload`). A
//! `MeetRequest` carries the initiator's filter, so the reply is always
//! cut. For the request the initiator needs the target's filter first: it
//! keeps every filter it has been sent, and on first contact asks for it
//! with one `SynopsisExchange` (whose reply carries the filter in its
//! `bloom` slot). A `JxpNode`'s fragment never changes, so a kept filter
//! cannot go stale; should that stop being true, the payload's `cut_for`
//! fingerprint makes the receiver refuse it rather than absorb a payload
//! with holes.
//!
//! Stats bookkeeping never touches the node's state mutex: every counter
//! lives in a [`NodeMetrics`] of sharded [`Counter`] handles (see
//! `jxp-telemetry`), so serving a meeting updates traffic counters with
//! relaxed atomic adds while another thread holds the peer state lock.

use crate::persist::NodePersist;
use crate::round::run_round;
use crate::transport::{
    request_with_retry, FrameHandler, NodeId, RetriedExchange, RetryError, RetryPolicy, Transport,
    TransportError,
};
use jxp_core::payload::MeetingPayload;
use jxp_core::peer::JxpPeer;
use jxp_core::selection::PeerSynopses;
use jxp_synopses::mips::MipsPermutations;
use jxp_synopses::BloomFilter;
use jxp_telemetry::{Counter, Registry};
use jxp_wire::{encoded_len, ErrorCode, Frame, SynopsisPayload};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Per-node traffic and meeting counters (point-in-time snapshot of a
/// [`NodeMetrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Meetings this node initiated.
    pub meetings_attempted: u64,
    /// Initiated meetings that completed (reply absorbed).
    pub meetings_completed: u64,
    /// Initiated meetings abandoned after exhausting retries.
    pub meetings_failed: u64,
    /// Inbound meeting requests this node answered.
    pub meetings_served: u64,
    /// Retries spent across all initiated exchanges.
    pub retries: u64,
    /// Wire bytes received (requests in + replies in), measured.
    pub bytes_in: u64,
    /// Wire bytes sent (requests out + replies out), measured.
    pub bytes_out: u64,
}

/// Lock-free counter handles behind a node's [`NodeStats`]. Cloning
/// shares the underlying atomics. Detached by default; construct with
/// [`NodeMetrics::registered`] to expose the counters through a
/// `jxp-telemetry` [`Registry`] (one labelled series per node).
#[derive(Debug, Clone)]
pub struct NodeMetrics {
    pub(crate) meetings_attempted: Arc<Counter>,
    pub(crate) meetings_completed: Arc<Counter>,
    pub(crate) meetings_failed: Arc<Counter>,
    pub(crate) meetings_served: Arc<Counter>,
    pub(crate) retries: Arc<Counter>,
    pub(crate) bytes_in: Arc<Counter>,
    pub(crate) bytes_out: Arc<Counter>,
}

impl NodeMetrics {
    /// Standalone counters, not visible to any registry.
    pub fn detached() -> Self {
        NodeMetrics::registered(&Registry::new(), 0)
    }

    /// Counters registered in `registry` as one labelled series per
    /// field, e.g. `jxp_node_meetings_attempted_total{node="3"}`.
    pub fn registered(registry: &Registry, node: NodeId) -> Self {
        let series =
            |field: &str| registry.counter(&format!("jxp_node_{field}_total{{node=\"{node}\"}}"));
        NodeMetrics {
            meetings_attempted: series("meetings_attempted"),
            meetings_completed: series("meetings_completed"),
            meetings_failed: series("meetings_failed"),
            meetings_served: series("meetings_served"),
            retries: series("retries"),
            bytes_in: series("bytes_in"),
            bytes_out: series("bytes_out"),
        }
    }

    /// Merge every counter into a [`NodeStats`] snapshot.
    pub fn snapshot(&self) -> NodeStats {
        NodeStats {
            meetings_attempted: self.meetings_attempted.get(),
            meetings_completed: self.meetings_completed.get(),
            meetings_failed: self.meetings_failed.get(),
            meetings_served: self.meetings_served.get(),
            retries: self.retries.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
        }
    }
}

/// Result of one successfully initiated meeting.
#[derive(Debug, Clone, Copy)]
pub struct MeetOutcome {
    /// Request frame bytes on the wire.
    pub bytes_sent: u64,
    /// Reply frame bytes on the wire.
    pub bytes_received: u64,
    /// Retries the exchange needed.
    pub retries: u32,
}

pub(crate) struct NodeState {
    pub(crate) peer: JxpPeer,
    pub(crate) synopses: PeerSynopses,
    /// The `JxpPeer::interest` of every node this one has heard it from
    /// (`None` = that node wants whole payloads). Lookups only.
    partner_interest: HashMap<NodeId, Option<BloomFilter>>,
    /// Durable journal, when the node runs with a state directory.
    /// Lives under the same mutex as `peer` so journaled sequence
    /// numbers match the order deltas were applied.
    pub(crate) persist: Option<NodePersist>,
}

/// A JXP peer bound to a node id, safe to share between the transport's
/// server side and a driver thread.
pub struct JxpNode {
    id: NodeId,
    state: Arc<Mutex<NodeState>>,
    metrics: NodeMetrics,
    /// Bumped every time a meeting (initiated, served, or repaired)
    /// changes the peer's scores. Serving layers key result caches on
    /// this: an advanced epoch means cached fused rankings are stale.
    score_epoch: AtomicU64,
}

impl JxpNode {
    /// Wrap `peer`, computing its synopses with `perms`. Counters are
    /// detached; use [`JxpNode::with_metrics`] to share them.
    pub fn new(id: NodeId, peer: JxpPeer, perms: &MipsPermutations) -> Self {
        JxpNode::with_metrics(id, peer, perms, NodeMetrics::detached())
    }

    /// Like [`JxpNode::new`], but counting into the given handles (e.g.
    /// registry-registered ones from [`NodeMetrics::registered`]).
    pub fn with_metrics(
        id: NodeId,
        peer: JxpPeer,
        perms: &MipsPermutations,
        metrics: NodeMetrics,
    ) -> Self {
        let synopses = PeerSynopses::compute(peer.graph(), perms);
        JxpNode {
            id,
            state: Arc::new(Mutex::new(NodeState {
                peer,
                synopses,
                partner_interest: HashMap::new(),
                persist: None,
            })),
            metrics,
            score_epoch: AtomicU64::new(0),
        }
    }

    /// Attach a durable journal: every meeting delta applied from now
    /// on is WAL-appended (and periodically checkpointed) under the
    /// journal's key.
    pub fn attach_persistence(&self, persist: NodePersist) {
        self.lock().persist = Some(persist);
    }

    /// Install a checkpoint of the current peer state, if a journal is
    /// attached. Called by the cluster driver at clean shutdown.
    pub fn persist_checkpoint(&self) {
        let mut state = self.lock();
        let NodeState { peer, persist, .. } = &mut *state;
        if let Some(p) = persist.as_mut() {
            p.checkpoint(peer);
        }
    }

    /// Repair a torn meeting: absorb the reply payload recovered from
    /// the partner's final `Serve` WAL record, journaling it like the
    /// absorb that was lost in the crash.
    pub fn apply_repair(&self, payload: &MeetingPayload) {
        let mut state = self.lock();
        let NodeState { peer, persist, .. } = &mut *state;
        peer.absorb(payload);
        if let Some(p) = persist.as_mut() {
            p.record_absorb(peer, payload);
            p.metrics().repairs_total.inc();
        }
        self.bump_score_epoch();
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Snapshot of the counters. Never takes the state lock: safe to
    /// call while the node is mid-meeting on another thread.
    pub fn stats(&self) -> NodeStats {
        self.metrics.snapshot()
    }

    /// The counter handles themselves.
    pub fn metrics(&self) -> &NodeMetrics {
        &self.metrics
    }

    /// The current score epoch: how many absorbed meetings (initiated,
    /// served, or repaired) have changed this peer's scores.
    pub fn score_epoch(&self) -> u64 {
        self.score_epoch.load(Ordering::Acquire)
    }

    /// Advance the score epoch after an absorb. AcqRel so a serving
    /// thread that observes the new epoch also observes the score
    /// update published by the lock release that follows.
    fn bump_score_epoch(&self) {
        self.score_epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Copy of this node's own synopses.
    pub fn synopses(&self) -> PeerSynopses {
        self.lock().synopses.clone()
    }

    /// Run `f` against the wrapped peer (e.g. to read scores).
    pub fn with_peer<R>(&self, f: impl FnOnce(&JxpPeer) -> R) -> R {
        f(&self.lock().peer)
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, NodeState> {
        jxp_telemetry::sync::lock_unpoisoned(&self.state)
    }

    /// Handshake: announce ourselves to `target`, returning its id and
    /// page count from the answering `Hello`.
    pub fn hello(
        &self,
        target: NodeId,
        transport: &dyn Transport,
        policy: &RetryPolicy,
    ) -> Result<(NodeId, u64), TransportError> {
        let request = {
            let state = self.lock();
            Frame::Hello {
                node_id: self.id,
                num_pages: state.peer.num_pages() as u64,
            }
        };
        let outcome =
            request_with_retry(transport, target, &request, policy).map_err(|failed| {
                self.metrics.bytes_out.add(failed.bytes_lost);
                failed.error
            })?;
        self.metrics
            .bytes_out
            .add(outcome.exchange.bytes_sent + outcome.bytes_lost);
        self.metrics.bytes_in.add(outcome.exchange.bytes_received);
        match outcome.exchange.reply {
            Frame::Hello { node_id, num_pages } => Ok((node_id, num_pages)),
            Frame::Error { detail, .. } => Err(TransportError::Rejected(detail)),
            other => Err(TransportError::Wire(jxp_wire::WireError::Malformed(
                unexpected_reply(&other),
            ))),
        }
    }

    /// Initiate a meeting with `target`: send our payload — cut to the
    /// target's filter, fetched first if this is the first contact —
    /// and absorb the reply. The node's own lock is **not** held across
    /// the transport call, so this node keeps answering inbound requests
    /// while its own exchange is in flight (and loopback cannot
    /// self-deadlock). This is the one-meeting case of the cluster's
    /// round executor, so both run the same probe → request → absorb
    /// sequence.
    pub fn meet(
        &self,
        target: NodeId,
        transport: &dyn Transport,
        policy: &RetryPolicy,
    ) -> Result<MeetOutcome, TransportError> {
        run_round(transport, policy, &[(self, target)])
            .pop()
            .expect("a one-meeting round has one outcome")
    }

    /// The first-contact probe a meeting sends ahead of itself to a
    /// `target` whose filter this node has not been sent yet; `None` once
    /// it has. Its outcome goes to [`JxpNode::interest_fetched`].
    pub(crate) fn interest_request(&self, target: NodeId) -> Option<Frame> {
        let known = self.lock().partner_interest.contains_key(&target);
        (!known).then(|| self.synopses_request())
    }

    /// Settle a first-contact probe. An answer — the filter, or a refusal
    /// from a peer that keeps none, after which the request travels whole
    /// and the reply brings the filter for next time — lets the meeting
    /// go ahead. A `target` the transport could not reach for the probe
    /// will not be reached for the meeting either: that is the `Err`, and
    /// the meeting is already counted as attempted and failed.
    pub(crate) fn interest_fetched(
        &self,
        target: NodeId,
        probe: Result<RetriedExchange, RetryError>,
    ) -> Result<(), TransportError> {
        match probe {
            Ok(done) => {
                self.metrics.retries.add(u64::from(done.retries));
                let _ = self.synopses_accept(target, Ok(done));
                Ok(())
            }
            Err(failed) => {
                self.metrics.meetings_attempted.inc();
                self.meet_abort(&failed);
                Err(failed.error)
            }
        }
    }

    /// First half of a meeting: count the attempt and build the request
    /// frame from pre-absorption state, cut to `target`'s filter when
    /// this node has it. It is settled by [`JxpNode::meet_finish`] (reply
    /// arrived) or [`JxpNode::meet_abort`] (transport gave up).
    pub(crate) fn meet_begin(&self, target: NodeId) -> Frame {
        self.metrics.meetings_attempted.inc();
        let state = self.lock();
        let cut_to = state.partner_interest.get(&target).and_then(Option::as_ref);
        Frame::MeetRequest(state.peer.payload_for(cut_to))
    }

    /// Second half of a meeting: decode `target`'s reply, absorb it
    /// (journaling the delta), and settle the success counters. The
    /// request bytes of failed attempts are charged whatever the reply.
    pub(crate) fn meet_finish(
        &self,
        target: NodeId,
        done: RetriedExchange,
    ) -> Result<MeetOutcome, TransportError> {
        let RetriedExchange {
            exchange,
            retries,
            bytes_lost,
        } = done;
        self.metrics.bytes_out.add(bytes_lost);
        let remote = match exchange.reply {
            Frame::MeetReply(remote) => remote,
            Frame::Error { detail, .. } => {
                self.metrics.meetings_failed.inc();
                return Err(TransportError::Rejected(detail));
            }
            other => {
                self.metrics.meetings_failed.inc();
                return Err(TransportError::Wire(jxp_wire::WireError::Malformed(
                    unexpected_reply(&other),
                )));
            }
        };
        {
            let mut state = self.lock();
            let NodeState {
                peer,
                persist,
                partner_interest,
                ..
            } = &mut *state;
            // The reply is outside input like any request: malformed, or
            // cut to a filter that is not ours, it is refused whole.
            if let Err(why) = peer.try_absorb(&remote) {
                self.metrics.meetings_failed.inc();
                return Err(TransportError::Rejected(why));
            }
            if let Some(p) = persist.as_mut() {
                p.record_absorb(peer, &remote);
            }
            self.bump_score_epoch();
            partner_interest
                .entry(target)
                .or_insert_with(|| remote.interest.clone());
        }
        self.metrics.meetings_completed.inc();
        self.metrics.retries.add(u64::from(retries));
        self.metrics.bytes_out.add(exchange.bytes_sent);
        self.metrics.bytes_in.add(exchange.bytes_received);
        Ok(MeetOutcome {
            bytes_sent: exchange.bytes_sent,
            bytes_received: exchange.bytes_received,
            retries,
        })
    }

    /// Failure half of a meeting: the transport exhausted its retries
    /// without a reply. Every attempt's request is charged as sent.
    pub(crate) fn meet_abort(&self, failed: &RetryError) {
        self.metrics.meetings_failed.inc();
        self.metrics.retries.add(u64::from(failed.retries));
        self.metrics.bytes_out.add(failed.bytes_lost);
    }

    /// Synopsis probe: swap synopses with `target` and return theirs (its
    /// filter comes along and is kept for the meetings). A meeting's
    /// first-contact probe is the same exchange.
    pub fn fetch_synopses(
        &self,
        target: NodeId,
        transport: &dyn Transport,
        policy: &RetryPolicy,
    ) -> Result<PeerSynopses, TransportError> {
        let request = self.synopses_request();
        self.synopses_accept(
            target,
            request_with_retry(transport, target, &request, policy),
        )
    }

    /// First half of [`JxpNode::fetch_synopses`]: the request frame. It
    /// carries no filter — the frame does not say who sent it, so the
    /// responder could not file one.
    pub fn synopses_request(&self) -> Frame {
        Frame::SynopsisExchange(SynopsisPayload {
            synopses: self.synopses(),
            sketch: None,
            bloom: None,
        })
    }

    /// Second half of [`JxpNode::fetch_synopses`]: charge the request
    /// bytes of failed attempts, then decode `target`'s reply and keep
    /// its filter, counting the exchange's bytes only on success.
    pub fn synopses_accept(
        &self,
        target: NodeId,
        probe: Result<RetriedExchange, RetryError>,
    ) -> Result<PeerSynopses, TransportError> {
        let exchange = match probe {
            Ok(done) => {
                self.metrics.bytes_out.add(done.bytes_lost);
                done.exchange
            }
            Err(failed) => {
                self.metrics.bytes_out.add(failed.bytes_lost);
                return Err(failed.error);
            }
        };
        let remote = match exchange.reply {
            Frame::SynopsisExchange(p) => {
                self.lock().partner_interest.insert(target, p.bloom);
                p.synopses
            }
            Frame::Error { detail, .. } => return Err(TransportError::Rejected(detail)),
            other => {
                return Err(TransportError::Wire(jxp_wire::WireError::Malformed(
                    unexpected_reply(&other),
                )))
            }
        };
        self.metrics.bytes_out.add(exchange.bytes_sent);
        self.metrics.bytes_in.add(exchange.bytes_received);
        Ok(remote)
    }

    /// The whole, uncut payload this node could send right now (for
    /// tests/inspection).
    pub fn current_payload(&self) -> MeetingPayload {
        self.lock().peer.payload()
    }
}

fn unexpected_reply(frame: &Frame) -> &'static str {
    match frame {
        Frame::Hello { .. } => "unexpected Hello reply",
        Frame::MeetRequest(_) => "unexpected MeetRequest reply",
        Frame::MeetReply(_) => "unexpected MeetReply reply",
        Frame::SynopsisExchange(_) => "unexpected SynopsisExchange reply",
        Frame::Error { .. } => "unexpected Error reply",
        Frame::QueryRequest(_) => "unexpected QueryRequest reply",
        Frame::QueryReply(_) => "unexpected QueryReply reply",
    }
}

impl FrameHandler for JxpNode {
    fn handle(&self, frame: Frame) -> Option<Frame> {
        let inbound = encoded_len(&frame) as u64;
        let reply = match frame {
            Frame::Hello { .. } => {
                let state = self.lock();
                Frame::Hello {
                    node_id: self.id,
                    num_pages: state.peer.num_pages() as u64,
                }
            }
            Frame::MeetRequest(payload) => {
                let mut state = self.lock();
                let NodeState { peer, persist, .. } = &mut *state;
                // Outgoing payload first — pre-absorption state — cut to
                // the filter the initiator sent along.
                let own = peer.payload_for(payload.interest.as_ref());
                match peer.try_absorb(&payload) {
                    Ok(()) => {
                        // Journal before the reply leaves the lock: a
                        // torn meeting therefore always has the serve
                        // record and lacks the initiator's, never the
                        // reverse (the invariant resume repair uses).
                        if let Some(p) = persist.as_mut() {
                            p.record_serve(peer, &payload, &own);
                        }
                        self.bump_score_epoch();
                        self.metrics.meetings_served.inc();
                        Frame::MeetReply(own)
                    }
                    Err(why) => Frame::Error {
                        code: ErrorCode::BadRequest,
                        detail: why,
                    },
                }
            }
            Frame::SynopsisExchange(_) => {
                let state = self.lock();
                Frame::SynopsisExchange(SynopsisPayload {
                    synopses: state.synopses.clone(),
                    sketch: None,
                    bloom: state.peer.interest().cloned(),
                })
            }
            // A bare node has no index to search; the serve layer
            // (jxp-serve) intercepts queries before delegation.
            Frame::QueryRequest(_) => Frame::Error {
                code: ErrorCode::Refused,
                detail: "query endpoint disabled".to_string(),
            },
            Frame::MeetReply(_) | Frame::Error { .. } | Frame::QueryReply(_) => Frame::Error {
                code: ErrorCode::BadRequest,
                detail: "frame type is reply-only".to_string(),
            },
        };
        self.metrics.bytes_in.add(inbound);
        self.metrics.bytes_out.add(encoded_len(&reply) as u64);
        Some(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::LoopbackNetwork;
    use jxp_core::config::JxpConfig;
    use jxp_webgraph::{PageId, Subgraph};

    fn two_fragment_nodes() -> (JxpNode, JxpNode) {
        // A tiny 6-page world split across two peers with cross links.
        let ga = Subgraph::from_adjacency(vec![
            (PageId(0), vec![PageId(1)]),
            (PageId(1), vec![PageId(2)]),
            (PageId(2), vec![PageId(3)]),
        ]);
        let gb = Subgraph::from_adjacency(vec![
            (PageId(3), vec![PageId(4)]),
            (PageId(4), vec![PageId(5)]),
            (PageId(5), vec![PageId(0)]),
        ]);
        let perms = MipsPermutations::generate(16, 7);
        let a = JxpNode::new(1, JxpPeer::new(ga, 6, JxpConfig::default()), &perms);
        let b = JxpNode::new(2, JxpPeer::new(gb, 6, JxpConfig::default()), &perms);
        (a, b)
    }

    #[test]
    fn meeting_over_loopback_updates_both_sides() {
        let (a, b) = two_fragment_nodes();
        let net = LoopbackNetwork::new();
        let b = Arc::new(b);
        net.register(2, Arc::clone(&b) as Arc<dyn FrameHandler>);

        let world_a_before = a.with_peer(|p| p.world_score());
        let outcome = a.meet(2, &net, &RetryPolicy::default()).unwrap();

        // First contact: one SynopsisExchange for B's filter went ahead
        // of the meeting, and its two frames are counted like any other.
        let probe_out = encoded_len(&a.synopses_request()) as u64;
        let probe_in = encoded_len(&Frame::SynopsisExchange(SynopsisPayload {
            synopses: b.synopses(),
            sketch: None,
            bloom: b.with_peer(|p| p.interest().cloned()),
        })) as u64;
        let sa = a.stats();
        assert_eq!(sa.meetings_attempted, 1);
        assert_eq!(sa.meetings_completed, 1);
        assert_eq!(sa.meetings_failed, 0);
        assert_eq!(sa.bytes_out, outcome.bytes_sent + probe_out);
        assert_eq!(sa.bytes_in, outcome.bytes_received + probe_in);

        let sb = b.stats();
        assert_eq!(sb.meetings_served, 1);
        // Responder measured the same frames from the other side.
        assert_eq!(sb.bytes_in, sa.bytes_out);
        assert_eq!(sb.bytes_out, sa.bytes_in);

        // The filter is kept: the second meeting is its two frames only.
        let again = a.meet(2, &net, &RetryPolicy::default()).unwrap();
        assert_eq!(
            a.stats().bytes_out,
            sa.bytes_out + again.bytes_sent,
            "a second probe went out"
        );

        // Absorbing B's payload teaches A about external pages, which
        // changes its world-node composition.
        let world_a_after = a.with_peer(|p| p.world_score());
        assert!(
            (world_a_after - world_a_before).abs() > 0.0,
            "meeting had no effect on A's world node"
        );
    }

    #[test]
    fn payload_bytes_match_analytic_wire_size_of_the_cut_payloads() {
        let (a, b) = two_fragment_nodes();
        let net = LoopbackNetwork::new();
        let b = Arc::new(b);
        net.register(2, Arc::clone(&b) as Arc<dyn FrameHandler>);
        // Each direction ships the sender's payload cut to the receiver's
        // filter, built from pre-meeting state.
        let cut = |from: &JxpNode, to: &JxpNode| {
            let filter = to.with_peer(|p| p.interest().cloned());
            let payload = from.with_peer(|p| p.payload_for(filter.as_ref()));
            assert_eq!(payload.cut_for, filter.unwrap().fingerprint());
            (jxp_wire::HEADER_LEN + payload.wire_size()) as u64
        };
        let (request, reply) = (cut(&a, &b), cut(&b, &a));
        let outcome = a.meet(2, &net, &RetryPolicy::default()).unwrap();
        assert_eq!(outcome.bytes_sent, request);
        assert_eq!(outcome.bytes_received, reply);
        let whole = (jxp_wire::HEADER_LEN + a.current_payload().wire_size()) as u64;
        assert!(request <= whole);
    }

    #[test]
    fn an_unanswered_probe_sends_the_request_whole_and_the_reply_teaches_the_filter() {
        // A responder that refuses synopsis probes but serves meetings.
        struct NoSynopses(Arc<JxpNode>);
        impl FrameHandler for NoSynopses {
            fn handle(&self, frame: Frame) -> Option<Frame> {
                match frame {
                    Frame::SynopsisExchange(_) => Some(Frame::Error {
                        code: ErrorCode::Refused,
                        detail: "no synopses here".to_string(),
                    }),
                    other => self.0.handle(other),
                }
            }
        }
        let (a, b) = two_fragment_nodes();
        let b = Arc::new(b);
        let net = LoopbackNetwork::new();
        net.register(2, Arc::new(NoSynopses(Arc::clone(&b))));
        let whole = (jxp_wire::HEADER_LEN + a.current_payload().wire_size()) as u64;
        let first = a.meet(2, &net, &RetryPolicy::default()).unwrap();
        assert_eq!(first.bytes_sent, whole, "no filter known: uncut request");
        // The reply carried B's filter; no second probe, a cut request.
        assert!(a.interest_request(2).is_none());
        let filter = b.with_peer(|p| p.interest().cloned());
        let cut = a.with_peer(|p| p.payload_for(filter.as_ref()));
        let second = a.meet(2, &net, &RetryPolicy::default()).unwrap();
        assert_eq!(
            second.bytes_sent,
            (jxp_wire::HEADER_LEN + cut.wire_size()) as u64
        );
    }

    #[test]
    fn a_reply_cut_for_someone_else_is_refused() {
        // A responder that answers with a payload cut to a filter that is
        // not the initiator's.
        struct WrongCut(JxpNode);
        impl FrameHandler for WrongCut {
            fn handle(&self, frame: Frame) -> Option<Frame> {
                match frame {
                    Frame::MeetRequest(_) => {
                        let other = BloomFilter::new(64, 3);
                        Some(Frame::MeetReply(
                            self.0.with_peer(|p| p.payload_for(Some(&other))),
                        ))
                    }
                    other => self.0.handle(other),
                }
            }
        }
        let (a, b) = two_fragment_nodes();
        let net = LoopbackNetwork::new();
        net.register(2, Arc::new(WrongCut(b)));
        let scores = a.with_peer(|p| p.scores().to_vec());
        assert!(matches!(
            a.meet(2, &net, &RetryPolicy::default()),
            Err(TransportError::Rejected(_))
        ));
        assert_eq!(a.with_peer(|p| p.scores().to_vec()), scores);
        assert_eq!(a.stats().meetings_failed, 1);
        assert_eq!(a.score_epoch(), 0);
    }

    #[test]
    fn failed_meeting_counts_and_returns_error() {
        let (a, _) = two_fragment_nodes();
        let net = LoopbackNetwork::new(); // nobody registered
        let policy = RetryPolicy {
            max_attempts: 2,
            base_delay: std::time::Duration::from_millis(1),
            max_delay: std::time::Duration::from_millis(1),
        };
        assert!(a.meet(9, &net, &policy).is_err());
        let s = a.stats();
        assert_eq!(s.meetings_attempted, 1);
        assert_eq!(s.meetings_failed, 1);
        assert_eq!(s.meetings_completed, 0);
        assert_eq!(s.retries, 1);
        // Both attempts of the first-contact probe are charged to their
        // sender: the reactor cannot tell a frame that was never dialled
        // from one a closed connection swallowed, so no transport does.
        let probe = encoded_len(&a.synopses_request()) as u64;
        assert_eq!(s.bytes_out, 2 * probe);
        assert_eq!(s.bytes_in, 0);
    }

    #[test]
    fn rejected_meeting_charges_no_retries() {
        // A responder that refuses every meeting: the failure is fatal on
        // the first attempt, so zero retries must be recorded even under
        // a generous retry policy (the bug this guards against charged
        // max_attempts - 1 unconditionally).
        struct Refuser;
        impl FrameHandler for Refuser {
            fn handle(&self, _frame: Frame) -> Option<Frame> {
                Some(Frame::Error {
                    code: ErrorCode::Refused,
                    detail: "no meetings today".to_string(),
                })
            }
        }
        let (a, _) = two_fragment_nodes();
        let net = LoopbackNetwork::new();
        net.register(5, Arc::new(Refuser));
        let policy = RetryPolicy {
            max_attempts: 6,
            base_delay: std::time::Duration::from_millis(1),
            max_delay: std::time::Duration::from_millis(1),
        };
        // The reply decodes fine, so the exchange "succeeds" and the
        // Error frame surfaces as Rejected after zero retries.
        assert!(matches!(
            a.meet(5, &net, &policy),
            Err(TransportError::Rejected(_))
        ));
        let s = a.stats();
        assert_eq!(s.meetings_attempted, 1);
        assert_eq!(s.meetings_failed, 1);
        assert_eq!(s.retries, 0, "fatal first-attempt failure charged retries");
    }

    #[test]
    fn synopsis_exchange_and_premeet_scoring() {
        let (a, b) = two_fragment_nodes();
        let net = LoopbackNetwork::new();
        let b_syn = b.synopses();
        net.register(2, Arc::new(b));
        let fetched = a.fetch_synopses(2, &net, &RetryPolicy::default()).unwrap();
        assert_eq!(fetched, b_syn);
        // B links into A (5 -> 0): the §4.3 selector's score of B as
        // A's partner is positive.
        let score = fetched.inlink_containment_into(&a.synopses());
        assert!(score > 0.0, "expected positive containment, got {score}");
    }

    #[test]
    fn hello_and_reply_only_frames() {
        let (a, _) = two_fragment_nodes();
        let reply = a
            .handle(Frame::Hello {
                node_id: 99,
                num_pages: 0,
            })
            .unwrap();
        assert_eq!(
            reply,
            Frame::Hello {
                node_id: 1,
                num_pages: 3
            }
        );
        let reply = a.handle(Frame::MeetReply(a.current_payload())).unwrap();
        assert!(matches!(reply, Frame::Error { .. }));
    }

    #[test]
    fn score_epoch_advances_on_every_absorb_path() {
        let (a, b) = two_fragment_nodes();
        let net = LoopbackNetwork::new();
        let b = Arc::new(b);
        net.register(2, Arc::clone(&b) as Arc<dyn FrameHandler>);
        assert_eq!(a.score_epoch(), 0);
        assert_eq!(b.score_epoch(), 0);

        // Initiator absorb and responder serve each bump once.
        a.meet(2, &net, &RetryPolicy::default()).unwrap();
        assert_eq!(a.score_epoch(), 1);
        assert_eq!(b.score_epoch(), 1);

        // Repair is an absorb too.
        let payload = b.current_payload();
        a.apply_repair(&payload);
        assert_eq!(a.score_epoch(), 2);

        // Non-mutating traffic leaves the epoch alone.
        a.handle(Frame::Hello {
            node_id: 9,
            num_pages: 1,
        });
        a.handle(b.synopses_request());
        assert_eq!(a.score_epoch(), 2);
    }

    #[test]
    fn bare_node_refuses_queries_and_rejects_query_replies() {
        let (a, _) = two_fragment_nodes();
        let reply = a
            .handle(Frame::QueryRequest(jxp_wire::QueryPayload {
                query_id: 1,
                k: 10,
                terms: vec![3],
            }))
            .unwrap();
        assert!(
            matches!(
                &reply,
                Frame::Error {
                    code: ErrorCode::Refused,
                    ..
                }
            ),
            "expected Refused, got {reply:?}"
        );
        let reply = a
            .handle(Frame::QueryReply(jxp_wire::QueryReplyPayload {
                node_id: 2,
                query_id: 1,
                epoch: 0,
                cached: false,
                hits: vec![],
            }))
            .unwrap();
        assert!(
            matches!(
                &reply,
                Frame::Error {
                    code: ErrorCode::BadRequest,
                    ..
                }
            ),
            "reply-only frame must be rejected, got {reply:?}"
        );
    }

    #[test]
    fn stats_never_take_the_state_lock() {
        // Hold the node's state mutex on this thread, then read stats
        // and serve counter updates from another: if any stats path
        // touched the lock this would deadlock until the 5s timeout.
        let (a, _) = two_fragment_nodes();
        let a = Arc::new(a);
        let guard = a.lock();
        let worker = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                a.metrics().bytes_in.add(17);
                a.metrics().meetings_served.inc();
                a.stats()
            })
        };
        let mut waited = std::time::Duration::ZERO;
        while !worker.is_finished() && waited < std::time::Duration::from_secs(5) {
            std::thread::sleep(std::time::Duration::from_millis(5));
            waited += std::time::Duration::from_millis(5);
        }
        assert!(
            worker.is_finished(),
            "stats() blocked on the state mutex held by this thread"
        );
        drop(guard);
        let s = worker.join().unwrap();
        assert_eq!(s.bytes_in, 17);
        assert_eq!(s.meetings_served, 1);
    }

    #[test]
    fn registered_metrics_surface_in_registry_snapshot() {
        let registry = Registry::new();
        let ga = Subgraph::from_adjacency(vec![(PageId(0), vec![PageId(1)])]);
        let perms = MipsPermutations::generate(8, 3);
        let node = JxpNode::with_metrics(
            4,
            JxpPeer::new(ga, 2, JxpConfig::default()),
            &perms,
            NodeMetrics::registered(&registry, 4),
        );
        node.metrics().bytes_out.add(99);
        assert_eq!(node.stats().bytes_out, 99);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["jxp_node_bytes_out_total{node=\"4\"}"], 99);
    }
}
