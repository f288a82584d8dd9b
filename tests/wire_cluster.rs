//! End-to-end tests of the networked runtime: clusters of `jxp-node`
//! peers meeting over the real `jxp-wire` codec on both transports,
//! with fault injection, exact byte accounting, and convergence checks.

use jxp_core::config::JxpConfig;
use jxp_core::peer::JxpPeer;
use jxp_node::{
    run_cluster, run_cluster_with, ClusterConfig, ClusterHooks, ClusterReport, FrameHandler,
    HandlerService, JxpNode, LoopbackNetwork, ReactorTransport, RetryPolicy, TransportKind,
};
use jxp_pagerank::{pagerank, PageRankConfig};
use jxp_reactor::{Reactor, ReactorConfig, ReactorMetrics};
use jxp_synopses::mips::MipsPermutations;
use jxp_telemetry::lock_unpoisoned;
use jxp_webgraph::generators::{CategorizedGraph, CategorizedParams};
use jxp_webgraph::{PageId, Subgraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A small categorized world split into `n` contiguous fragments, plus
/// its centralized PageRank truth.
fn world(n: usize) -> (Vec<Subgraph>, u64, Vec<f64>) {
    let cg = CategorizedGraph::generate(
        &CategorizedParams {
            num_categories: 3,
            nodes_per_category: 60,
            intra_out_per_node: 3,
            cross_fraction: 0.25,
        },
        &mut StdRng::seed_from_u64(77),
    );
    let total = cg.graph.num_nodes();
    let per = total.div_ceil(n);
    let frags = (0..n)
        .map(|i| {
            let lo = i * per;
            let hi = ((i + 1) * per).min(total);
            Subgraph::from_pages(&cg.graph, (lo..hi).map(|p| PageId(p as u32)))
        })
        .collect();
    let truth = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
    (frags, total as u64, truth)
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(10),
    }
}

#[test]
fn loopback_cluster_converges_toward_centralized_pagerank() {
    let (frags, n_total, truth) = world(6);
    let short = ClusterConfig {
        meetings: 6,
        seed: 5,
        ..ClusterConfig::default()
    };
    let long = ClusterConfig {
        meetings: 240,
        seed: 5,
        ..ClusterConfig::default()
    };
    let early = run_cluster(
        frags.clone(),
        n_total,
        JxpConfig::default(),
        &short,
        Some(&truth),
    );
    let late = run_cluster(frags, n_total, JxpConfig::default(), &long, Some(&truth));
    assert_eq!(late.meetings_completed, 240);
    assert_eq!(late.meetings_failed, 0);
    let (e, l) = (early.footrule.unwrap(), late.footrule.unwrap());
    assert!(l < e, "footrule did not improve over the wire: {e} → {l}");
    assert!(l < 0.3, "footrule after 240 wire meetings: {l}");
}

#[test]
fn loopback_cluster_is_deterministic_per_seed() {
    let (frags, n_total, truth) = world(4);
    let config = ClusterConfig {
        meetings: 40,
        seed: 11,
        ..ClusterConfig::default()
    };
    let run = |frags: Vec<Subgraph>| {
        run_cluster(frags, n_total, JxpConfig::default(), &config, Some(&truth))
    };
    let a = run(frags.clone());
    let b = run(frags);
    assert_eq!(a.bytes_total, b.bytes_total);
    assert_eq!(a.footrule, b.footrule);
    assert_eq!(a.per_node.len(), b.per_node.len());
    for (x, y) in a.per_node.iter().zip(&b.per_node) {
        assert_eq!(x, y);
    }
}

#[test]
fn socket_cluster_with_lossy_frames_survives_via_retry() {
    let (frags, n_total, truth) = world(8);
    let config = ClusterConfig {
        meetings: 200,
        transport: TransportKind::Reactor,
        seed: 13,
        loss: 0.05,
        retry: lossy_retry(),
        ..ClusterConfig::default()
    };
    let report = run_cluster(frags, n_total, JxpConfig::default(), &config, Some(&truth));
    assert_eq!(report.num_nodes, 8);
    assert!(report.retries > 0, "the loss model never fired");
    // The losses must be survived, not fatal: every meeting completes.
    assert_eq!(report.meetings_attempted, 200);
    assert_eq!(report.meetings_completed, 200);
    assert_eq!(report.meetings_failed, 0);
    assert!(report.bytes_total > 0);
    assert!(report.footrule.unwrap() < 0.4);
}

#[test]
fn socket_meeting_bytes_match_encoded_len_exactly() {
    let (frags, n_total, _) = world(2);
    let perms = MipsPermutations::generate(64, 3);
    let mut frags = frags.into_iter();
    let server_node = Arc::new(JxpNode::new(
        0,
        JxpPeer::new(frags.next().unwrap(), n_total, JxpConfig::default()),
        &perms,
    ));
    let client = JxpNode::new(
        1,
        JxpPeer::new(frags.next().unwrap(), n_total, JxpConfig::default()),
        &perms,
    );
    let reactor = Reactor::start(ReactorConfig::default(), ReactorMetrics::detached());
    let service = HandlerService(Arc::clone(&server_node) as Arc<dyn FrameHandler>);
    let addr = reactor.handle().listen(Arc::new(service)).expect("bind");
    let transport = ReactorTransport::new(reactor.handle());
    transport.add_route(0, addr);

    // Capture both payloads *before* the meeting: the request is the
    // client's pre-meeting payload cut to the server's filter, the reply
    // is the server's (computed pre-absorption, per the protocol) cut to
    // the client's.
    let cut = |from: &JxpNode, to: &JxpNode| {
        let filter = to.with_peer(|p| p.interest().cloned());
        from.with_peer(|p| p.payload_for(filter.as_ref()))
    };
    let request = cut(&client, &server_node);
    let expected_request = jxp_wire::encoded_len(&jxp_wire::Frame::MeetRequest(request.clone()));
    let expected_reply =
        jxp_wire::encoded_len(&jxp_wire::Frame::MeetReply(cut(&server_node, &client)));

    // wire_size() is exactly the frame body: the header is the only delta.
    assert_eq!(expected_request, jxp_wire::HEADER_LEN + request.wire_size());

    // First contact: the client fetches the server's filter with one
    // SynopsisExchange before the meeting; those frames are counted too.
    let probe_out = jxp_wire::encoded_len(&client.synopses_request());
    let probe_in = jxp_wire::encoded_len(&server_node.handle(client.synopses_request()).unwrap());
    let served_probe = server_node.stats();

    let outcome = client.meet(0, &transport, &fast_retry()).expect("meeting");
    assert_eq!(outcome.bytes_sent, expected_request as u64);
    assert_eq!(outcome.bytes_received, expected_reply as u64);
    // Node counters carry the same measured numbers.
    let s = client.stats();
    assert_eq!(s.bytes_out, (probe_out + expected_request) as u64);
    assert_eq!(s.bytes_in, (probe_in + expected_reply) as u64);
    let served = server_node.stats();
    assert_eq!(served.bytes_in - served_probe.bytes_in, s.bytes_out);
    assert_eq!(served.bytes_out - served_probe.bytes_out, s.bytes_in);
}

#[test]
fn socket_unroutable_and_dead_peers_are_unreachable() {
    use jxp_node::{Transport, TransportError};
    let reactor = Reactor::start(ReactorConfig::default(), ReactorMetrics::detached());
    let transport = ReactorTransport::new(reactor.handle());
    let hello = jxp_wire::Frame::Hello {
        node_id: 1,
        num_pages: 2,
    };
    assert!(matches!(
        transport.request(3, &hello).unwrap_err(),
        TransportError::Unreachable(_)
    ));
    let addr = {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        listener.local_addr().expect("addr")
    };
    transport.add_route(4, addr);
    // The listener is gone: the connect must fail rather than hang.
    assert!(matches!(
        transport.request(4, &hello).unwrap_err(),
        TransportError::Unreachable(_)
    ));
}

#[test]
fn socket_and_loopback_agree_on_wire_bytes() {
    let (frags, n_total, _) = world(4);
    let base = ClusterConfig {
        meetings: 24,
        seed: 19,
        retry: fast_retry(),
        ..ClusterConfig::default()
    };
    let loopback = run_cluster(frags.clone(), n_total, JxpConfig::default(), &base, None);
    let socket = run_cluster(
        frags,
        n_total,
        JxpConfig::default(),
        &ClusterConfig {
            transport: TransportKind::Reactor,
            ..base
        },
        None,
    );
    // Same seed ⇒ same meeting schedule ⇒ byte-identical traffic: the
    // transport moves frames, it does not change them.
    assert_eq!(loopback.meetings_completed, socket.meetings_completed);
    assert_eq!(loopback.bytes_total, socket.bytes_total);
}

#[test]
fn exhausted_retries_fail_the_meeting_but_not_the_run() {
    let (frags, n_total, _) = world(3);
    let perms = MipsPermutations::generate(32, 9);
    let mut it = frags.into_iter();
    let a = JxpNode::new(
        0,
        JxpPeer::new(it.next().unwrap(), n_total, JxpConfig::default()),
        &perms,
    );
    let net = LoopbackNetwork::new();
    // Peer 1 is never registered: every attempt is unreachable.
    let err = a.meet(1, &net, &fast_retry()).unwrap_err();
    assert!(matches!(err, jxp_node::TransportError::Unreachable(_)));
    let s = a.stats();
    assert_eq!(s.meetings_failed, 1);
    assert_eq!(s.retries, 3); // max_attempts 4 ⇒ 3 retries spent
                              // Each of the four attempts of the first-contact probe is charged to
                              // its sender, answered or not.
    let probe = jxp_wire::encoded_len(&a.synopses_request()) as u64;
    assert_eq!(s.bytes_out, 4 * probe);
    assert_eq!(s.bytes_in, 0);
}

/// A 1 ms retry policy with room for a few losses in a row.
fn lossy_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(1),
    }
}

/// Run `config` and check `check_mass_conservation` on every node's
/// final state.
fn run_checked(
    frags: Vec<Subgraph>,
    n_total: u64,
    config: &ClusterConfig,
    truth: Option<&[f64]>,
) -> ClusterReport {
    let nodes = Mutex::new(Vec::new());
    let keep = |_: usize, node: &Arc<JxpNode>| {
        lock_unpoisoned(&nodes).push(Arc::clone(node));
        Arc::clone(node) as Arc<dyn FrameHandler>
    };
    let hooks = ClusterHooks {
        wrap_handler: Some(&keep),
        ..ClusterHooks::default()
    };
    let report = run_cluster_with(frags, n_total, JxpConfig::default(), config, truth, &hooks);
    let nodes = lock_unpoisoned(&nodes);
    assert_eq!(nodes.len(), report.num_nodes);
    for node in nodes.iter() {
        node.with_peer(jxp_core::invariants::check_mass_conservation)
            .unwrap_or_else(|why| panic!("node {}: {why}", node.id()));
    }
    report
}

#[test]
fn lossy_cluster_converges_at_30_and_50_percent_loss() {
    let (frags, n_total, truth) = world(8);
    for loss in [0.3, 0.5] {
        let config = |meetings| ClusterConfig {
            meetings,
            seed: 65,
            loss,
            retry: lossy_retry(),
            ..ClusterConfig::default()
        };
        let early = run_checked(frags.clone(), n_total, &config(8), Some(&truth));
        let late = run_checked(frags.clone(), n_total, &config(320), Some(&truth));
        assert!(late.retries > 0, "loss {loss}: the loss model never fired");
        assert!(late.meetings_completed > 0, "loss {loss}");
        let (e, l) = (early.footrule.unwrap(), late.footrule.unwrap());
        assert!(l < e, "loss {loss}: no improvement: {e} → {l}");
        assert!(l < 0.05, "loss {loss}: footrule after 320 meetings: {l}");
    }
}

/// Run a 6-node cluster for 60 meetings at `loss` and return the
/// report with the summed `bytes_out` and `bytes_in` of every node.
fn byte_accounting(loss: f64) -> (ClusterReport, u64, u64) {
    let (frags, n_total, _) = world(6);
    let config = ClusterConfig {
        meetings: 60,
        seed: 68,
        loss,
        retry: lossy_retry(),
        ..ClusterConfig::default()
    };
    let report = run_checked(frags, n_total, &config, None);
    let sent: u64 = report.per_node.iter().map(|s| s.bytes_out).sum();
    let received: u64 = report.per_node.iter().map(|s| s.bytes_in).sum();
    assert_eq!(sent, report.bytes_total);
    (report, sent, received)
}

#[test]
fn lossless_run_counts_every_byte_at_both_ends() {
    // Without loss every frame is counted once at each end.
    let (clean, sent, received) = byte_accounting(0.0);
    assert!(sent > 0);
    assert_eq!(clean.retries, 0);
    assert_eq!(
        sent, received,
        "sender-side and receiver-side accounting diverged"
    );
}

#[test]
fn lost_frames_cost_their_sender_and_never_their_receiver() {
    // A lost request was sent but never received; a lost reply too.
    let (lossy, sent, received) = byte_accounting(0.5);
    assert!(lossy.retries > 0, "the loss model never fired");
    assert!(
        sent > received,
        "lost frames must be charged to their sender: sent {sent} vs received {received}"
    );
}

#[test]
fn lossy_run_is_the_same_on_both_transports_at_every_thread_count() {
    let (frags, n_total, _) = world(8);
    let run = |transport, threads, seed| {
        let config = ClusterConfig {
            meetings: 96,
            seed,
            loss: 0.3,
            transport,
            threads,
            retry: lossy_retry(),
            ..ClusterConfig::default()
        };
        run_cluster(frags.clone(), n_total, JxpConfig::default(), &config, None)
    };
    let want = run(TransportKind::Loopback, 1, 21);
    assert!(want.retries > 0, "the loss model never fired");
    for transport in [TransportKind::Loopback, TransportKind::Reactor] {
        for threads in [1, 2, 8] {
            let got = run(transport, threads, 21);
            let at = format!("{transport:?} at {threads} threads");
            assert_eq!(got.score_hash, want.score_hash, "{at}");
            assert_eq!(got.bytes_total, want.bytes_total, "{at}");
            assert_eq!(got.retries, want.retries, "{at}");
            assert_eq!(got.per_node, want.per_node, "{at}");
        }
    }
    let other_seed = run(TransportKind::Loopback, 1, 22);
    assert_ne!(other_seed.score_hash, want.score_hash);
}
