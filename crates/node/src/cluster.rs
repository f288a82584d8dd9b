//! Cluster driver: spawn N nodes over loopback or the localhost-socket
//! reactor, run M meetings through the real wire codec, and report
//! convergence and traffic. Backs the `jxp cluster` CLI command and the
//! integration tests. Fault injection — seeded message loss
//! ([`ClusterConfig::loss`]) — runs the timeout + retry path on the
//! shipped transports: a run stays alive, and converges, when the
//! network drops frames.

use crate::loopback::LoopbackNetwork;
use crate::node::{JxpNode, MeetOutcome, NodeMetrics, NodeStats};
use crate::persist::{NodePersist, SharedStore};
use crate::reactor::{HandlerService, ReactorTransport};
use crate::round::run_round;
use crate::transport::{FaultInjector, FrameHandler, NodeId, RetryPolicy, Transport};
use jxp_core::config::JxpConfig;
use jxp_core::evaluate::{centralized_ranking, score_hash, total_ranking};
use jxp_core::selection::{
    draw_schedule, PeerSynopses, PreMeetingsConfig, SelectionStrategy, SelectorState,
};
use jxp_pagerank::metrics::footrule_distance;
use jxp_reactor::{Reactor, ReactorConfig, ReactorMetrics};
use jxp_store::{DirStore, StoreMetrics, WalKind, WalRecord};
use jxp_synopses::mips::MipsPermutations;
use jxp_telemetry::{Event, MetricsServer, TelemetryHub};
use jxp_webgraph::Subgraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Min-wise permutations per synopsis vector.
const MIPS_DIMS: usize = 64;

/// Which transport carries the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Deterministic in-memory codec loopback.
    Loopback,
    /// Non-blocking multiplexed reactor: one loop thread moves every
    /// frame, hundreds of meetings stay in flight at once.
    Reactor,
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "loopback" => Ok(TransportKind::Loopback),
            "reactor" => Ok(TransportKind::Reactor),
            other => Err(format!(
                "unknown transport '{other}' (expected loopback|reactor)"
            )),
        }
    }
}

impl TransportKind {
    /// Bring up this transport with `handlers[i]` answering for node `i`.
    /// The reactor comes back beside it: it owns the loop thread, so it
    /// must outlive every exchange, and it reports the in-flight peak.
    pub(crate) fn build(
        self,
        handlers: &[Arc<FaultInjector>],
        hub: &TelemetryHub,
    ) -> (Box<dyn Transport>, Option<Reactor>) {
        let handler = |i: usize| Arc::clone(&handlers[i]) as Arc<dyn FrameHandler>;
        match self {
            TransportKind::Loopback => {
                let net = LoopbackNetwork::new();
                for i in 0..handlers.len() {
                    net.register(i as NodeId, handler(i));
                }
                (Box::new(net), None)
            }
            TransportKind::Reactor => {
                let reactor = Reactor::start(
                    ReactorConfig::default(),
                    ReactorMetrics::registered(hub.registry()),
                );
                let rt = ReactorTransport::new(reactor.handle());
                for i in 0..handlers.len() {
                    let service = Arc::new(HandlerService(handler(i)));
                    let addr = reactor
                        .handle()
                        .listen(service)
                        .expect("bind reactor listener");
                    rt.add_route(i as NodeId, addr);
                }
                (Box::new(rt), Some(reactor))
            }
        }
    }
}

/// Everything configurable about a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Total meetings to initiate (round-robin initiators).
    pub meetings: usize,
    /// Loopback or reactor.
    pub transport: TransportKind,
    /// Seed for partner selection (and synopsis permutations).
    pub seed: u64,
    /// Select partners with the §4.3 pre-meetings selector
    /// ([`SelectionStrategy::PreMeetings`] at its default configuration)
    /// instead of uniformly.
    pub premeetings: bool,
    /// Retry policy for every exchange.
    pub retry: RetryPolicy,
    /// Probability, in `[0, 1)`, that a meeting frame (request or
    /// first-contact probe) is lost before its responder handles it, and
    /// again that its reply is lost after: the responder absorbed and
    /// journalled, the initiator retries. Each decision hashes `seed`,
    /// the meeting number, the frame's arrival index within the meeting
    /// and the direction ([`FaultInjector`]), so a lossy run gives the
    /// same bits on either transport at any thread count. Hellos are
    /// never lost. `0` injects nothing.
    pub loss: f64,
    /// Driver threads executing each meeting round (`0` = the machine's
    /// available parallelism, `1` = serial), on either transport. The
    /// schedule is always drawn serially and partitioned into rounds of
    /// **node-disjoint** pairs; each round is dealt into
    /// `min(threads, round length)` stripes (meeting k to stripe k mod
    /// stripes), and each stripe starts all its requests, then redeems
    /// them in order. Two in-flight meetings sharing a node would
    /// interleave their lock acquisitions nondeterministically (a node
    /// answers inbound requests while its own exchange is in flight), so
    /// disjointness is what makes the results bit-identical for every
    /// value of this knob, lossy runs included.
    pub threads: usize,
    /// Serve the Prometheus text exposition of the run's hub over HTTP at
    /// this address (e.g. `127.0.0.1:9184`; port 0 binds an ephemeral
    /// port, reported in [`ClusterReport::metrics_addr`]) for the
    /// duration of the run. Observation-only, like the rest of telemetry.
    pub metrics_listen: Option<String>,
    /// The hub the run records into: per-node registry counters plus a
    /// structured event stream. Every run records into a hub; without
    /// this one it creates its own, which nobody reads after the run.
    /// The caller snapshots it after the run; nothing moves once
    /// [`run_cluster`] returns, so the snapshot's counters equal
    /// [`ClusterReport::per_node`] exactly. A caller embedding the run
    /// (e.g. the `jxp-serve` experiment) can register its own metrics in
    /// the same registry the scrape endpoint exports. Observation-only —
    /// results are bit-identical either way.
    pub hub: Option<Arc<TelemetryHub>>,
    /// Durable state directory. When set, every node journals applied
    /// meeting deltas to a per-node WAL under this directory (with
    /// periodic checkpoints) and, on startup, resumes from whatever
    /// state the directory holds: already-journaled meetings of the
    /// deterministic schedule are skipped, a torn meeting is repaired
    /// from its partner's final `Serve` record, and the rest execute
    /// normally. Scores at the end are bit-identical to a run that was
    /// never interrupted (DESIGN.md §12).
    pub state_dir: Option<PathBuf>,
    /// Checkpoint every N applied events per node (0 = only at exit).
    pub checkpoint_every: u64,
    /// Write a final checkpoint per node when the run completes. Tests
    /// disable this to leave checkpoint + WAL state on disk, exactly as
    /// a crash would.
    pub checkpoint_on_exit: bool,
    /// Sleep this long after each executed round — pacing for the CI
    /// crash-recovery job, which SIGKILLs a deliberately slow run.
    pub round_delay: Option<Duration>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            meetings: 100,
            transport: TransportKind::Loopback,
            seed: 42,
            premeetings: false,
            retry: RetryPolicy::default(),
            loss: 0.0,
            threads: 1,
            metrics_listen: None,
            hub: None,
            state_dir: None,
            checkpoint_every: 8,
            checkpoint_on_exit: true,
            round_delay: None,
        }
    }
}

impl ClusterConfig {
    /// Refuse a fault configuration a run cannot carry out: a `loss`
    /// outside `[0, 1)`, or loss together with a state directory (a lost
    /// reply leaves a served-and-journalled meeting that the initiator
    /// retries, so the responder journals two serves for one meeting —
    /// resume's one-event-per-meeting classification cannot replay that;
    /// DESIGN.md §12).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.loss) {
            return Err(format!("loss must be in [0, 1), got {}", self.loss));
        }
        if self.loss > 0.0 && self.state_dir.is_some() {
            return Err(
                "loss cannot be combined with a state directory: a retried meeting whose \
                 reply was lost is journalled twice, which resume cannot replay"
                    .to_string(),
            );
        }
        Ok(())
    }
}

/// Aggregated result of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Nodes in the cluster.
    pub num_nodes: usize,
    /// Meetings initiated.
    pub meetings_attempted: u64,
    /// Meetings whose reply was absorbed.
    pub meetings_completed: u64,
    /// Meetings abandoned after retries.
    pub meetings_failed: u64,
    /// Retries spent across all exchanges.
    pub retries: u64,
    /// Total wire bytes, counted once at each frame's sender: hellos,
    /// every first-contact filter probe, and the meeting frames as
    /// shipped (cut payloads, filters included).
    pub bytes_total: u64,
    /// Spearman's footrule vs. centralized PageRank (if truth given).
    pub footrule: Option<f64>,
    /// Per-node counter snapshots.
    pub per_node: Vec<NodeStats>,
    /// FNV-1a hash over every node's final score bits, in node order.
    /// Bit-identical runs — including a killed run resumed from its
    /// [`ClusterConfig::state_dir`] — report the same hash.
    pub score_hash: u64,
    /// Where the Prometheus scrape endpoint listened (when
    /// [`ClusterConfig::metrics_listen`] was set), with port 0 resolved
    /// to the real port. The listener itself stops when the run ends.
    pub metrics_addr: Option<SocketAddr>,
    /// High-water mark of concurrent in-flight requests over the whole
    /// run, as tracked by the `jxp_node_inflight_meetings` gauge. Only
    /// on [`TransportKind::Reactor`] — loopback has no submission queue
    /// to measure.
    pub inflight_peak: Option<u64>,
}

/// What a [`ClusterHooks::concurrent`] driver sees while the meeting
/// rounds execute.
pub struct ClusterCtx<'a> {
    /// The run's transport — send [`jxp_wire::Frame`]s to any node.
    pub transport: &'a dyn Transport,
    /// Every node, in id order. Read-only observation (e.g. epochs);
    /// mutating state from the driver would break determinism.
    pub nodes: &'a [Arc<JxpNode>],
    /// Flips to `true` (release ordering) once every meeting round has
    /// executed. The driver should finish soon after — the run joins it.
    pub meetings_done: &'a AtomicBool,
    /// The scrape endpoint's bound address, when one was requested.
    pub metrics_addr: Option<SocketAddr>,
}

/// Extension points that let a caller embed extra behaviour in a
/// cluster run without `jxp-node` growing dependencies on it (the
/// query front end in `jxp-serve` is the motivating user).
#[derive(Default)]
pub struct ClusterHooks<'a> {
    /// Wrap node `i`'s frame handler. The returned handler sits between
    /// the node and the [`FaultInjector`] (injector outermost), so a
    /// frame lost before handling never reaches it. The wrapper must
    /// delegate any frame it does not consume to the node itself.
    #[allow(
        clippy::type_complexity,
        reason = "a named alias would hide the borrowed-callback shape at the one use site"
    )]
    pub wrap_handler: Option<&'a (dyn Fn(usize, &Arc<JxpNode>) -> Arc<dyn FrameHandler> + Sync)>,
    /// Run concurrently with the meeting rounds (e.g. a closed-loop
    /// load generator), started just before the first round and joined
    /// right after [`ClusterCtx::meetings_done`] flips.
    pub concurrent: Option<&'a (dyn Fn(&ClusterCtx<'_>) + Sync)>,
}

/// Run a full cluster experiment over `fragments` (one per node).
///
/// `truth` is the centralized PageRank score vector of the union graph;
/// when given, the report carries the footrule distance between it and
/// the merged distributed ranking (top-100, as in the paper's plots).
///
/// # Panics
/// Panics if `fragments` has fewer than two entries, if `config` fails
/// [`ClusterConfig::validate`] (before any node starts), or if a reactor
/// listener fails to bind.
pub fn run_cluster(
    fragments: Vec<Subgraph>,
    n_total: u64,
    jxp: JxpConfig,
    config: &ClusterConfig,
    truth: Option<&[f64]>,
) -> ClusterReport {
    run_cluster_with(
        fragments,
        n_total,
        jxp,
        config,
        truth,
        &ClusterHooks::default(),
    )
}

/// [`run_cluster`] with [`ClusterHooks`] — same experiment, plus
/// caller-supplied handler wrapping and a concurrent driver.
///
/// # Panics
/// Panics like [`run_cluster`], plus if [`ClusterConfig::metrics_listen`]
/// fails to bind or the concurrent driver panics.
pub fn run_cluster_with(
    fragments: Vec<Subgraph>,
    n_total: u64,
    jxp: JxpConfig,
    config: &ClusterConfig,
    truth: Option<&[f64]>,
    hooks: &ClusterHooks<'_>,
) -> ClusterReport {
    /// What resume decided for one scheduled meeting.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum MeetAction {
        /// Execute normally (fresh runs: every meeting).
        Run,
        /// Both sides already journaled it — nothing to do.
        Skip,
        /// Responder journaled, initiator didn't: torn meeting; the
        /// initiator absorbs the responder's journaled outbound.
        Repair,
    }
    assert!(fragments.len() >= 2, "a cluster needs at least two nodes");
    let num_nodes = fragments.len();
    if let Err(why) = config.validate() {
        panic!("refusing cluster config: {why}");
    }
    let perms = MipsPermutations::generate(MIPS_DIMS, config.seed ^ 0x5a5a);

    let hub = config.hub.clone().unwrap_or_else(TelemetryHub::shared);
    // The scrape endpoint stays up for the whole run (dropped on return).
    let metrics_server = config.metrics_listen.as_ref().map(|addr| {
        MetricsServer::bind(addr.as_str(), Arc::clone(&hub))
            .unwrap_or_else(|e| panic!("bind metrics listener {addr}: {e}"))
    });
    let metrics_addr = metrics_server.as_ref().map(MetricsServer::local_addr);

    // Durable state: open the store (if configured), recover whatever
    // each node left behind, and remember per-node recovery facts for
    // the schedule classification below.
    let store: Option<(SharedStore, StoreMetrics)> = config.state_dir.as_ref().map(|dir| {
        let store_metrics = StoreMetrics::registered(hub.registry());
        let dir_store = DirStore::with_metrics(dir, store_metrics.clone())
            .unwrap_or_else(|e| panic!("open state dir {}: {e}", dir.display()));
        (Arc::new(dir_store) as SharedStore, store_metrics)
    });
    let mut recovered_seq = vec![0u64; num_nodes];
    let mut repair_records: Vec<Option<WalRecord>> = (0..num_nodes).map(|_| None).collect();

    let nodes: Vec<Arc<JxpNode>> = fragments
        .into_iter()
        .enumerate()
        .map(|(i, frag)| {
            let metrics = NodeMetrics::registered(hub.registry(), i as NodeId);
            let mut peer = jxp_core::peer::JxpPeer::new(frag, n_total, jxp.clone());
            let key = format!("node-{i}");
            if let Some((store, _)) = &store {
                match store.load(&key) {
                    Ok(Some(recovered)) => {
                        recovered_seq[i] = recovered.seq;
                        repair_records[i] = recovered.last_record;
                        peer = recovered.peer;
                    }
                    Ok(None) => {}
                    Err(e) => panic!("recover {key}: {e}"),
                }
            }
            let node = Arc::new(JxpNode::with_metrics(i as NodeId, peer, &perms, metrics));
            if let Some((store, store_metrics)) = &store {
                node.attach_persistence(NodePersist::new(
                    Arc::clone(store),
                    key,
                    config.checkpoint_every,
                    store_metrics.clone(),
                    recovered_seq[i],
                ));
                if recovered_seq[i] == 0 {
                    // Seed checkpoint so recovery always has a base to
                    // replay the WAL over, even if we die before the
                    // first interval checkpoint.
                    node.persist_checkpoint();
                }
            }
            node
        })
        .collect();
    let injectors: Vec<Arc<FaultInjector>> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let inner: Arc<dyn FrameHandler> = match hooks.wrap_handler {
                Some(wrap) => wrap(i, n),
                None => Arc::clone(n) as Arc<dyn FrameHandler>,
            };
            Arc::new(FaultInjector::new(inner, config.seed, config.loss))
        })
        .collect();

    // Bring up the chosen transport. From here on the run sees only a
    // `dyn Transport`; `reactor` (when built) keeps the loop thread alive.
    let (transport, reactor) = config.transport.build(&injectors, &hub);
    let transport = transport.as_ref();

    // Join handshake: each node hellos its ring successor over the wire.
    for (i, node) in nodes.iter().enumerate() {
        let next = ((i + 1) % num_nodes) as NodeId;
        let _ = node.hello(next, transport, &config.retry);
    }

    let strategy = if config.premeetings {
        SelectionStrategy::PreMeetings(PreMeetingsConfig::default())
    } else {
        SelectionStrategy::Random
    };
    let synopses: Vec<PeerSynopses> = nodes.iter().map(|n| n.synopses()).collect();
    // The whole schedule is drawn before anything executes, by the
    // drawer the simulator shares: meeting m's initiator is node m % n.
    // Drawing reads only the seed and the static synopses, never a
    // score, so a resumed run draws the schedule it was interrupted in.
    // Meetings are numbered in schedule order.
    let mut drawn = 0..;
    let rounds: Vec<Vec<(usize, usize, NodeId)>> = draw_schedule(
        config.meetings,
        &strategy,
        &synopses,
        &mut vec![SelectorState::default(); num_nodes],
        &mut StdRng::seed_from_u64(config.seed),
        |m, _| m % num_nodes,
    )
    .into_iter()
    .map(|round| {
        round
            .into_iter()
            .zip(&mut drawn)
            .map(|((initiator, partner), m)| (m, initiator, partner as NodeId))
            .collect()
    })
    .collect();

    // Resume classification: walk the drawn schedule tracking how many
    // events each node *would* have applied, and compare against what
    // the WAL says it *did* apply. Rounds are node-disjoint and execute
    // behind a barrier, so a crash leaves each node mid-flight in at
    // most one meeting and the per-meeting (responder done, initiator
    // done) pair is unambiguous: (true, true) already happened — skip;
    // (false, false) never happened — run; (true, false) is a torn
    // meeting — the responder journaled its serve (it does so before
    // the reply leaves) but the initiator died first, so repair the
    // initiator from the outbound payload the serve record kept.
    // (false, true) would mean the initiator absorbed a reply that was
    // never served: impossible unless the state dir belongs to a
    // different run.
    let actions: Vec<Vec<MeetAction>> = {
        let mut expected = vec![0u64; num_nodes];
        rounds
            .iter()
            .map(|round| {
                round
                    .iter()
                    .map(|&(m, initiator, target)| {
                        let t = target as usize;
                        let responder_event = expected[t] + 1;
                        let initiator_event = expected[initiator] + 1;
                        expected[t] = responder_event;
                        expected[initiator] = initiator_event;
                        let responder_done = recovered_seq[t] >= responder_event;
                        let initiator_done = recovered_seq[initiator] >= initiator_event;
                        match (responder_done, initiator_done) {
                            (true, true) => MeetAction::Skip,
                            (false, false) => MeetAction::Run,
                            (true, false) => MeetAction::Repair,
                            (false, true) => panic!(
                                "state dir inconsistent at meeting {m}: initiator {initiator} \
                                 journaled an event node {t} never served — wrong --state-dir \
                                 for this seed/topology?"
                            ),
                        }
                    })
                    .collect()
            })
            .collect()
    };
    for (round, acts) in rounds.iter().zip(&actions) {
        for (&(m, initiator, target), act) in round.iter().zip(acts) {
            if *act != MeetAction::Repair {
                continue;
            }
            let t = target as usize;
            let record = repair_records[t].as_ref().unwrap_or_else(|| {
                panic!("meeting {m} needs repair but node {t} has no journaled record")
            });
            assert_eq!(
                record.seq, recovered_seq[t],
                "torn meeting {m} must be node {t}'s final journaled event"
            );
            assert_eq!(
                record.kind,
                WalKind::Serve,
                "torn meeting {m}: node {t}'s final record is not a serve"
            );
            let outbound = record
                .outbound
                .as_ref()
                .expect("serve records always carry the outbound payload");
            nodes[initiator].apply_repair(outbound);
        }
    }

    // Telemetry handles are registered once, up front (cold path).
    let rounds_total = hub.registry().counter("jxp_cluster_rounds_total");
    let round_width = hub
        .registry()
        .histogram("jxp_cluster_round_width", &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);

    let workers = jxp_pagerank::par::resolve_threads(config.threads);
    // The concurrent driver (if any) runs for the whole meeting phase
    // and is joined before any teardown, so every frame it sends meets
    // a live handler chain.
    let meetings_done = AtomicBool::new(false);
    std::thread::scope(|driver_scope| {
        let driver = hooks.concurrent.map(|run| {
            let ctx = ClusterCtx {
                transport,
                nodes: &nodes,
                meetings_done: &meetings_done,
                metrics_addr,
            };
            driver_scope.spawn(move || run(&ctx))
        });
        for (round_no, (full_round, acts)) in rounds.iter().zip(&actions).enumerate() {
            // Already-journaled meetings (and repaired torn ones) are
            // skipped on resume; only the remainder executes.
            let round: Vec<(usize, usize, NodeId)> = full_round
                .iter()
                .zip(acts)
                .filter(|(_, act)| **act == MeetAction::Run)
                .map(|(&mtg, _)| mtg)
                .collect();
            if round.is_empty() {
                continue;
            }
            // Loss keys each frame by the meeting its responder answers
            // in this round; rounds are node-disjoint, so there is one.
            let lossy = config.loss > 0.0;
            if lossy {
                for &(m, _, target) in &round {
                    injectors[target as usize].arm(Some(m as u64));
                }
            }
            // Deal the round into stripes, meeting k to stripe k mod
            // stripes; each stripe is a round of its own on one pool
            // executor (inline on this thread when there is one stripe).
            // Every meeting owns its outcome slot, in schedule order, so
            // placement cannot reorder or lose results — and telemetry
            // events, emitted serially below, do not depend on how the
            // stripes interleaved.
            let mut outcomes: Vec<Option<MeetOutcome>> = vec![None; round.len()];
            let stripe_count = workers.min(round.len());
            let mut stripes: Vec<Vec<_>> = (0..stripe_count).map(|_| Vec::new()).collect();
            for (k, (&(_, initiator, target), slot)) in
                round.iter().zip(outcomes.iter_mut()).enumerate()
            {
                stripes[k % stripe_count].push(((&*nodes[initiator], target), slot));
            }
            jxp_pool::global().run_dealt(stripe_count, stripes, |stripe| {
                let (pairs, slots): (Vec<_>, Vec<_>) = stripe.into_iter().unzip();
                let outcomes = run_round(transport, &config.retry, &pairs);
                for (slot, outcome) in slots.into_iter().zip(outcomes) {
                    // Failures are part of the experiment: counted, never fatal.
                    *slot = outcome.ok();
                }
            });
            if lossy {
                for &(_, _, target) in &round {
                    injectors[target as usize].arm(None);
                }
            }
            for (&(m, initiator, target), outcome) in round.iter().zip(&outcomes) {
                hub.events().record(Event::MeetingStarted {
                    meeting: m as u64,
                    initiator: initiator as u64,
                    partner: target,
                });
                hub.events().record(match outcome {
                    Some(o) => Event::MeetingCompleted {
                        meeting: m as u64,
                        initiator: initiator as u64,
                        partner: target,
                        bytes: o.bytes_sent + o.bytes_received,
                    },
                    None => Event::MeetingFailed {
                        meeting: m as u64,
                        initiator: initiator as u64,
                        partner: target,
                    },
                });
            }
            hub.events().record(Event::RoundExecuted {
                round: round_no as u64,
                pairs: round.len() as u64,
            });
            rounds_total.inc();
            round_width.observe(round.len() as f64);
            if let Some(delay) = config.round_delay {
                std::thread::sleep(delay);
            }
        }
        meetings_done.store(true, Ordering::Release);
        if let Some(driver) = driver {
            driver.join().expect("concurrent driver panicked");
        }
    });

    // Clean shutdown: one final checkpoint per node, so a later resume
    // starts from the finished state instead of replaying the tail.
    if store.is_some() && config.checkpoint_on_exit {
        for node in &nodes {
            node.persist_checkpoint();
        }
    }

    let per_node: Vec<NodeStats> = nodes.iter().map(|n| n.stats()).collect();
    let score_hash = {
        let guards: Vec<_> = nodes.iter().map(|n| n.lock()).collect();
        score_hash(guards.iter().map(|g| g.peer.scores()))
    };
    let footrule = truth.map(|scores| {
        let guards: Vec<_> = nodes.iter().map(|n| n.lock()).collect();
        let distributed = total_ranking(guards.iter().map(|g| &g.peer));
        let k = distributed.len().min(100);
        footrule_distance(&distributed, &centralized_ranking(scores), k)
    });
    if let Some(f) = footrule {
        hub.registry().gauge("jxp_cluster_footrule").set(f);
    }

    ClusterReport {
        num_nodes,
        meetings_attempted: per_node.iter().map(|s| s.meetings_attempted).sum(),
        meetings_completed: per_node.iter().map(|s| s.meetings_completed).sum(),
        meetings_failed: per_node.iter().map(|s| s.meetings_failed).sum(),
        retries: per_node.iter().map(|s| s.retries).sum(),
        bytes_total: per_node.iter().map(|s| s.bytes_out).sum(),
        footrule,
        per_node,
        score_hash,
        metrics_addr,
        inflight_peak: reactor.as_ref().map(Reactor::peak_inflight),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxp_webgraph::PageId;
    use rand::Rng;

    /// A 12-page ring split into `n` fragments of 12/n pages each.
    fn ring_fragments(n: usize) -> (Vec<Subgraph>, u64) {
        ring_of(n, 12 / n)
    }

    /// A ring of `n * per` pages split into `n` fragments of `per` pages:
    /// node i's last page links to node i + 1's first.
    fn ring_of(n: usize, per: usize) -> (Vec<Subgraph>, u64) {
        let total = (n * per) as u32;
        let frags = (0..n)
            .map(|i| {
                let lo = (i * per) as u32;
                Subgraph::from_adjacency(
                    (lo..lo + per as u32)
                        .map(|p| (PageId(p), vec![PageId((p + 1) % total)]))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        (frags, u64::from(total))
    }

    #[test]
    fn loopback_cluster_runs_and_counts() {
        let (frags, n_total) = ring_fragments(4);
        let config = ClusterConfig {
            meetings: 20,
            seed: 3,
            ..ClusterConfig::default()
        };
        let report = run_cluster(frags, n_total, JxpConfig::default(), &config, None);
        assert_eq!(report.num_nodes, 4);
        assert_eq!(report.meetings_attempted, 20);
        assert_eq!(report.meetings_completed, 20);
        assert_eq!(report.meetings_failed, 0);
        assert!(report.bytes_total > 0);
    }

    #[test]
    fn swallowed_frames_leave_the_hash_and_cost_their_sender() {
        use jxp_wire::Frame;
        use std::sync::Mutex;

        /// Records every frame that reaches node `node`, i.e. every frame
        /// the injector outside it did not lose before handling.
        struct Recording {
            node: usize,
            inner: Arc<JxpNode>,
            seen: Arc<Mutex<Vec<(usize, Frame)>>>,
        }
        impl FrameHandler for Recording {
            fn handle(&self, frame: Frame) -> Option<Frame> {
                jxp_telemetry::lock_unpoisoned(&self.seen).push((self.node, frame.clone()));
                self.inner.handle(frame)
            }
        }

        let (frags, n_total) = ring_fragments(4);
        let run = |seed: u64, loss: f64| {
            let config = ClusterConfig {
                meetings: 12,
                seed,
                loss,
                retry: RetryPolicy {
                    max_attempts: 4,
                    base_delay: std::time::Duration::from_millis(1),
                    max_delay: std::time::Duration::from_millis(2),
                },
                ..ClusterConfig::default()
            };
            let seen = Arc::new(Mutex::new(Vec::new()));
            let wrap = |node: usize, inner: &Arc<JxpNode>| {
                Arc::new(Recording {
                    node,
                    inner: Arc::clone(inner),
                    seen: Arc::clone(&seen),
                }) as Arc<dyn FrameHandler>
            };
            let hooks = ClusterHooks {
                wrap_handler: Some(&wrap),
                ..ClusterHooks::default()
            };
            let report = run_cluster_with(
                frags.clone(),
                n_total,
                JxpConfig::default(),
                &config,
                None,
                &hooks,
            );
            let seen = std::mem::take(&mut *jxp_telemetry::lock_unpoisoned(&seen));
            (report, seen)
        };
        // A seed whose lossy run retried, yet no frame reached a node
        // twice: a reply lost after handling would have been handled
        // again on the retry, so every loss of this run fired before its
        // frame was handled.
        let (seed, lossy) = (0..64u64)
            .find_map(|seed| {
                let (report, seen) = run(seed, 0.1);
                let handled_twice = seen.iter().enumerate().any(|(i, a)| seen[..i].contains(a));
                (report.retries > 0 && report.meetings_failed == 0 && !handled_twice)
                    .then_some((seed, report))
            })
            .expect("some seed loses only frames before handling");
        let (clean, _) = run(seed, 0.0);
        // A drop before handling is idempotent: the retry delivers the
        // same frame and the scores land on the same bits.
        assert_eq!(lossy.score_hash, clean.score_hash);
        assert_eq!(lossy.meetings_completed, 12);
        // Charged once, at the sender; the receiver never saw them.
        for (l, c) in lossy.per_node.iter().zip(&clean.per_node) {
            assert_eq!(l.bytes_in, c.bytes_in);
        }
        let bytes_out = |r: &ClusterReport| r.per_node.iter().map(|s| s.bytes_out).sum::<u64>();
        assert!(bytes_out(&lossy) > bytes_out(&clean));
    }

    #[test]
    fn loss_outside_zero_to_one_is_refused() {
        for loss in [-0.1, 1.0, 1.5, f64::NAN] {
            let config = ClusterConfig {
                loss,
                ..ClusterConfig::default()
            };
            let why = config.validate().unwrap_err();
            assert!(why.contains("loss must be in [0, 1)"), "{why}");
        }
        for loss in [0.0, 0.3, 0.99] {
            let config = ClusterConfig {
                loss,
                ..ClusterConfig::default()
            };
            assert_eq!(config.validate(), Ok(()));
        }
    }

    #[test]
    fn loss_with_a_state_dir_is_refused() {
        let config = ClusterConfig {
            loss: 0.2,
            state_dir: Some(temp_state_dir("lossy")),
            ..ClusterConfig::default()
        };
        let why = config.validate().unwrap_err();
        assert!(why.contains("state directory"), "{why}");
        let lossless = ClusterConfig {
            loss: 0.0,
            ..config
        };
        assert_eq!(lossless.validate(), Ok(()));
    }

    #[test]
    fn cluster_results_are_identical_across_thread_counts() {
        let (frags, n_total) = ring_fragments(4);
        let truth = vec![1.0 / 12.0; 12];
        let run = |threads: usize| {
            let config = ClusterConfig {
                meetings: 24,
                seed: 11,
                threads,
                ..ClusterConfig::default()
            };
            run_cluster(
                frags.clone(),
                n_total,
                JxpConfig::default(),
                &config,
                Some(&truth),
            )
        };
        let want = run(1);
        assert_eq!(want.meetings_completed, 24);
        for threads in [2, 4] {
            let got = run(threads);
            assert_eq!(got.footrule, want.footrule, "{threads} threads");
            for (g, w) in got.per_node.iter().zip(&want.per_node) {
                assert_eq!(g.meetings_attempted, w.meetings_attempted);
                assert_eq!(g.meetings_completed, w.meetings_completed);
                assert_eq!(g.bytes_out, w.bytes_out, "{threads} threads");
                assert_eq!(g.bytes_in, w.bytes_in, "{threads} threads");
            }
        }
    }

    #[test]
    fn telemetry_counters_match_per_node_stats_exactly() {
        let (frags, n_total) = ring_fragments(4);
        let truth = vec![1.0 / 12.0; 12];
        let hub = TelemetryHub::shared();
        let config = ClusterConfig {
            meetings: 20,
            seed: 7,
            hub: Some(Arc::clone(&hub)),
            ..ClusterConfig::default()
        };
        let report = run_cluster(frags, n_total, JxpConfig::default(), &config, Some(&truth));
        let snap = hub.snapshot();
        for (i, stats) in report.per_node.iter().enumerate() {
            let counter = |field: &str| {
                snap.metrics.counters[&format!("jxp_node_{field}_total{{node=\"{i}\"}}")]
            };
            assert_eq!(counter("meetings_attempted"), stats.meetings_attempted);
            assert_eq!(counter("meetings_completed"), stats.meetings_completed);
            assert_eq!(counter("meetings_served"), stats.meetings_served);
            assert_eq!(counter("retries"), stats.retries);
            assert_eq!(counter("bytes_in"), stats.bytes_in);
            assert_eq!(counter("bytes_out"), stats.bytes_out);
        }
        // One Started + one Completed/Failed per meeting, plus a
        // RoundExecuted per round.
        let completed = snap
            .events
            .iter()
            .filter(|r| r.event.kind() == "meeting_completed")
            .count() as u64;
        assert_eq!(completed, report.meetings_completed);
        let started = snap
            .events
            .iter()
            .filter(|r| r.event.kind() == "meeting_started")
            .count() as u64;
        assert_eq!(started, report.meetings_attempted);
        assert_eq!(
            snap.metrics.gauges["jxp_cluster_footrule"],
            report.footrule.unwrap()
        );
        assert!(snap.metrics.counters["jxp_cluster_rounds_total"] >= 1);
        // Completed-meeting byte totals cover both frames of each
        // exchange. The ring hellos and first-contact filter probes add
        // traffic no event carries, so the event bytes are a lower bound.
        let event_bytes: u64 = snap
            .events
            .iter()
            .filter_map(|r| match r.event {
                jxp_telemetry::Event::MeetingCompleted { bytes, .. } => Some(bytes),
                _ => None,
            })
            .sum();
        assert!(event_bytes > 0 && event_bytes <= report.bytes_total);
    }

    #[test]
    fn telemetry_does_not_perturb_results() {
        let (frags, n_total) = ring_fragments(4);
        let truth = vec![1.0 / 12.0; 12];
        let run = |telemetry: bool| {
            let config = ClusterConfig {
                meetings: 24,
                seed: 11,
                hub: telemetry.then(TelemetryHub::shared),
                ..ClusterConfig::default()
            };
            run_cluster(
                frags.clone(),
                n_total,
                JxpConfig::default(),
                &config,
                Some(&truth),
            )
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(on.footrule, off.footrule);
        assert_eq!(on.per_node, off.per_node);
        assert_eq!(on.bytes_total, off.bytes_total);
    }

    #[test]
    fn metrics_listener_serves_scrapes_mid_run() {
        use std::io::{Read as _, Write as _};
        let (frags, n_total) = ring_fragments(4);
        let config = ClusterConfig {
            meetings: 24,
            seed: 19,
            metrics_listen: Some("127.0.0.1:0".into()),
            ..ClusterConfig::default()
        };
        let scraped = std::sync::Mutex::new(String::new());
        let scrape = |ctx: &ClusterCtx<'_>| {
            let addr = ctx.metrics_addr.expect("listener requested");
            let mut stream = std::net::TcpStream::connect(addr).expect("connect scrape");
            stream
                .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .expect("send scrape");
            let mut out = String::new();
            stream.read_to_string(&mut out).expect("read scrape");
            *jxp_telemetry::lock_unpoisoned(&scraped) = out;
        };
        let hooks = ClusterHooks {
            concurrent: Some(&scrape),
            ..ClusterHooks::default()
        };
        let report = run_cluster_with(frags, n_total, JxpConfig::default(), &config, None, &hooks);
        assert_eq!(report.meetings_completed, 24);
        assert!(report.metrics_addr.is_some());
        let body = jxp_telemetry::lock_unpoisoned(&scraped);
        assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
        assert!(body.contains("jxp_node_meetings_attempted_total"), "{body}");
    }

    #[test]
    fn wrapped_handlers_see_every_frame_without_perturbing_results() {
        use std::sync::atomic::AtomicU64;

        struct Counting {
            inner: Arc<JxpNode>,
            seen: Arc<AtomicU64>,
        }
        impl FrameHandler for Counting {
            fn handle(&self, frame: jxp_wire::Frame) -> Option<jxp_wire::Frame> {
                self.seen.fetch_add(1, Ordering::AcqRel);
                self.inner.handle(frame)
            }
        }

        let (frags, n_total) = ring_fragments(4);
        let base = ClusterConfig {
            meetings: 24,
            seed: 11,
            ..ClusterConfig::default()
        };
        let control = run_cluster(frags.clone(), n_total, JxpConfig::default(), &base, None);

        let seen = Arc::new(AtomicU64::new(0));
        let wrap = |_: usize, node: &Arc<JxpNode>| {
            Arc::new(Counting {
                inner: Arc::clone(node),
                seen: Arc::clone(&seen),
            }) as Arc<dyn FrameHandler>
        };
        let hooks = ClusterHooks {
            wrap_handler: Some(&wrap),
            ..ClusterHooks::default()
        };
        let wrapped = run_cluster_with(frags, n_total, JxpConfig::default(), &base, None, &hooks);
        // A read-only wrapper changes nothing about the experiment…
        assert_eq!(wrapped.score_hash, control.score_hash);
        assert_eq!(wrapped.per_node, control.per_node);
        // …and every inbound request passed through it (hellos + meets).
        assert!(seen.load(Ordering::Acquire) >= 24 + 4);
    }

    #[test]
    fn premeetings_mode_runs_and_reports_footrule() {
        let (frags, n_total) = ring_fragments(3);
        // Uniform truth for a plain ring: every page has score 1/12.
        let truth = vec![1.0 / 12.0; 12];
        let config = ClusterConfig {
            meetings: 15,
            seed: 9,
            premeetings: true,
            ..ClusterConfig::default()
        };
        let report = run_cluster(frags, n_total, JxpConfig::default(), &config, Some(&truth));
        assert_eq!(report.meetings_completed, 15);
        assert!(report.footrule.is_some());
    }

    #[test]
    fn transport_kind_parses_every_spelling() {
        assert_eq!(
            "loopback".parse::<TransportKind>(),
            Ok(TransportKind::Loopback)
        );
        assert_eq!(
            "reactor".parse::<TransportKind>(),
            Ok(TransportKind::Reactor)
        );
        for gone in ["tcp", "threads", "bogus"] {
            let err = gone.parse::<TransportKind>().unwrap_err();
            assert!(err.contains("loopback|reactor"), "{err}");
        }
    }

    #[test]
    fn reactor_transport_matches_loopback_bit_for_bit() {
        let (frags, n_total) = ring_fragments(4);
        // Every first contact probes for the partner's filter, with or
        // without pre-meetings. Both transports must send the same
        // frames either way.
        for premeetings in [true, false] {
            let run = |transport: TransportKind, threads: usize| {
                let config = ClusterConfig {
                    meetings: 24,
                    seed: 11,
                    premeetings,
                    transport,
                    threads,
                    ..ClusterConfig::default()
                };
                run_cluster(frags.clone(), n_total, JxpConfig::default(), &config, None)
            };
            let want = run(TransportKind::Loopback, 1);
            assert_eq!(want.meetings_completed, 24);
            assert_eq!(want.inflight_peak, None, "no gauge off the reactor");
            for threads in [1usize, 2, 8] {
                let got = run(TransportKind::Reactor, threads);
                assert_eq!(got.score_hash, want.score_hash, "{threads} threads");
                assert_eq!(got.bytes_total, want.bytes_total, "{threads} threads");
                assert_eq!(got.meetings_completed, 24, "{threads} threads");
                for (g, w) in got.per_node.iter().zip(&want.per_node) {
                    assert_eq!(g.meetings_attempted, w.meetings_attempted);
                    assert_eq!(g.meetings_completed, w.meetings_completed);
                    assert_eq!(g.meetings_served, w.meetings_served);
                    assert_eq!(g.bytes_out, w.bytes_out, "{threads} threads");
                    assert_eq!(g.bytes_in, w.bytes_in, "{threads} threads");
                }
                assert!(got.inflight_peak.unwrap_or(0) >= 1, "{threads} threads");
            }
        }
    }

    #[test]
    fn reactor_run_scrapes_the_inflight_gauge_and_its_peak() {
        use std::io::{Read as _, Write as _};
        let (frags, n_total) = ring_fragments(4);
        let config = ClusterConfig {
            meetings: 24,
            seed: 23,
            transport: TransportKind::Reactor,
            metrics_listen: Some("127.0.0.1:0".into()),
            ..ClusterConfig::default()
        };
        let scraped = std::sync::Mutex::new(String::new());
        let scrape = |ctx: &ClusterCtx<'_>| {
            let addr = ctx.metrics_addr.expect("listener requested");
            let mut stream = std::net::TcpStream::connect(addr).expect("connect scrape");
            stream
                .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .expect("send scrape");
            let mut out = String::new();
            stream.read_to_string(&mut out).expect("read scrape");
            *jxp_telemetry::lock_unpoisoned(&scraped) = out;
        };
        let hooks = ClusterHooks {
            concurrent: Some(&scrape),
            ..ClusterHooks::default()
        };
        let report = run_cluster_with(frags, n_total, JxpConfig::default(), &config, None, &hooks);
        assert_eq!(report.meetings_completed, 24);
        let peak = report.inflight_peak.expect("reactor reports its peak");
        assert!(peak >= 1, "the meeting rounds put nothing in flight");
        // The gauge is a first-class scrape metric, not just a report
        // field.
        let body = jxp_telemetry::lock_unpoisoned(&scraped);
        assert!(body.contains("jxp_node_inflight_meetings"), "{body}");
        assert!(body.contains("jxp_node_inflight_meetings_peak"), "{body}");
    }

    #[test]
    fn premeetings_keep_every_initiator_meeting_many_partners() {
        // 10 nodes, a multiple of the selector's `random_every_k` (5):
        // keying the every-k-th random draw on the global meeting number
        // would give each node's meetings one residue mod 5, so most
        // nodes would never draw at random. Every node of this ring
        // links into its successor, so a static synopsis argmax would
        // send each of them to its predecessor every time.
        let (frags, n_total) = ring_of(10, 4);
        // Room for every event: two per meeting plus one per round.
        let hub = Arc::new(TelemetryHub::with_event_capacity(4096));
        let config = ClusterConfig {
            meetings: 400,
            seed: 7,
            premeetings: true,
            hub: Some(Arc::clone(&hub)),
            ..ClusterConfig::default()
        };
        let report = run_cluster(frags, n_total, JxpConfig::default(), &config, None);
        assert_eq!(report.meetings_completed, 400);
        let mut tally = vec![vec![0usize; 10]; 10];
        for record in &hub.snapshot().events {
            if let Event::MeetingStarted {
                initiator, partner, ..
            } = record.event
            {
                tally[initiator as usize][partner as usize] += 1;
            }
        }
        for (i, partners) in tally.iter().enumerate() {
            let total: usize = partners.iter().sum();
            let distinct = partners.iter().filter(|&&k| k > 0).count();
            let top = partners.iter().max().copied().unwrap_or(0);
            assert_eq!(total, 40, "node {i} initiates every 10th meeting");
            assert!(distinct >= 3, "node {i} met only {distinct} partners");
            assert!(
                2 * top <= total,
                "node {i} spent {top} of {total} meetings on one partner"
            );
        }
    }

    #[test]
    fn reactor_run_resumes_bit_identically() {
        let (frags, n_total) = ring_fragments(4);
        let base = ClusterConfig {
            meetings: 60,
            seed: 17,
            premeetings: true,
            transport: TransportKind::Reactor,
            checkpoint_every: 4,
            ..ClusterConfig::default()
        };
        let control = run_cluster(frags.clone(), n_total, JxpConfig::default(), &base, None);

        let dir = temp_state_dir("reactor-resume");
        let interrupted = ClusterConfig {
            meetings: 30,
            state_dir: Some(dir.clone()),
            checkpoint_on_exit: false,
            ..base.clone()
        };
        let half = run_cluster(
            frags.clone(),
            n_total,
            JxpConfig::default(),
            &interrupted,
            None,
        );
        assert_eq!(half.meetings_completed, 30);

        let resumed_cfg = ClusterConfig {
            state_dir: Some(dir.clone()),
            ..base.clone()
        };
        let resumed = run_cluster(frags, n_total, JxpConfig::default(), &resumed_cfg, None);
        // Journal-before-reply held over the multiplexed wire: the back
        // half replays onto the recovered state and lands on the exact
        // hash of the uninterrupted run.
        assert_eq!(resumed.meetings_completed, 30);
        assert_eq!(resumed.score_hash, control.score_hash);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Fresh state directory under the OS temp dir, unique per call.
    fn temp_state_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("jxp-cluster-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn resumed_run_matches_an_uninterrupted_run_bit_for_bit() {
        let truth = vec![1.0 / 12.0; 12];
        for threads in [1usize, 2, 8] {
            let (frags, n_total) = ring_fragments(4);
            let base = ClusterConfig {
                meetings: 80,
                seed: 17,
                premeetings: true,
                threads,
                checkpoint_every: 4,
                ..ClusterConfig::default()
            };
            let control = run_cluster(
                frags.clone(),
                n_total,
                JxpConfig::default(),
                &base,
                Some(&truth),
            );

            // Same schedule, but die after 40 meetings without a final
            // checkpoint: disk holds mid-run checkpoints plus a WAL tail,
            // exactly what a crash leaves behind.
            let dir = temp_state_dir("resume");
            let interrupted = ClusterConfig {
                meetings: 40,
                state_dir: Some(dir.clone()),
                checkpoint_on_exit: false,
                ..base.clone()
            };
            let half = run_cluster(
                frags.clone(),
                n_total,
                JxpConfig::default(),
                &interrupted,
                None,
            );
            assert_eq!(half.meetings_completed, 40, "{threads} threads");

            let resumed_cfg = ClusterConfig {
                state_dir: Some(dir.clone()),
                ..base.clone()
            };
            let resumed = run_cluster(
                frags,
                n_total,
                JxpConfig::default(),
                &resumed_cfg,
                Some(&truth),
            );
            // Only the back half actually executed…
            assert_eq!(resumed.meetings_completed, 40, "{threads} threads");
            // …yet the final state is bit-identical to never stopping.
            assert_eq!(resumed.score_hash, control.score_hash, "{threads} threads");
            assert_eq!(resumed.footrule, control.footrule, "{threads} threads");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn completed_run_resumes_as_a_no_op() {
        let (frags, n_total) = ring_fragments(4);
        let dir = temp_state_dir("noop");
        let config = ClusterConfig {
            meetings: 24,
            seed: 13,
            state_dir: Some(dir.clone()),
            ..ClusterConfig::default()
        };
        let first = run_cluster(frags.clone(), n_total, JxpConfig::default(), &config, None);
        assert_eq!(first.meetings_completed, 24);
        // The exit checkpoint covered everything: a rerun over the same
        // state dir skips every meeting and lands on the same hash.
        let second = run_cluster(frags, n_total, JxpConfig::default(), &config, None);
        assert_eq!(second.meetings_completed, 0);
        assert_eq!(second.meetings_attempted, 0);
        assert_eq!(second.score_hash, first.score_hash);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_meeting_is_repaired_from_the_responders_journal() {
        use jxp_wire::Frame;

        let (frags, n_total) = ring_fragments(2);
        let dir = temp_state_dir("torn");
        // Control: the full run, never interrupted.
        let base = ClusterConfig {
            meetings: 9,
            seed: 29,
            checkpoint_every: 3,
            ..ClusterConfig::default()
        };
        let control = run_cluster(frags.clone(), n_total, JxpConfig::default(), &base, None);

        // Crash reproduction: run all but the last meeting durably, then
        // drive the final meeting's request into the responder by hand
        // and drop the reply on the floor — the responder journaled a
        // serve, the initiator never absorbed. That is exactly the torn
        // state a mid-meeting SIGKILL leaves.
        let interrupted = ClusterConfig {
            meetings: 8,
            state_dir: Some(dir.clone()),
            checkpoint_on_exit: false,
            ..base.clone()
        };
        run_cluster(
            frags.clone(),
            n_total,
            JxpConfig::default(),
            &interrupted,
            None,
        );
        // Replay the schedule draw to learn meeting 8's initiator/target.
        let mut rng = StdRng::seed_from_u64(base.seed);
        let mut pair = (0usize, 0 as NodeId);
        for m in 0..9usize {
            let initiator = m % 2;
            let mut t = rng.gen_range(0..1usize);
            if t >= initiator {
                t += 1;
            }
            pair = (initiator, t as NodeId);
        }
        let (initiator, target) = pair;
        {
            // Re-open the two nodes from disk, as `run_cluster` would.
            let store: SharedStore = Arc::new(DirStore::open(&dir).expect("reopen state dir"));
            let perms = MipsPermutations::generate(MIPS_DIMS, base.seed ^ 0x5a5a);
            let nodes: Vec<Arc<JxpNode>> = (0..2)
                .map(|i| {
                    let rec = store
                        .load(&format!("node-{i}"))
                        .expect("load")
                        .expect("state exists");
                    let node = Arc::new(JxpNode::with_metrics(
                        i as NodeId,
                        rec.peer,
                        &perms,
                        NodeMetrics::detached(),
                    ));
                    node.attach_persistence(NodePersist::new(
                        Arc::clone(&store),
                        format!("node-{i}"),
                        base.checkpoint_every,
                        StoreMetrics::detached(),
                        rec.seq,
                    ));
                    node
                })
                .collect();
            let request = Frame::MeetRequest(nodes[initiator].current_payload());
            let reply = nodes[target as usize].handle(request);
            assert!(matches!(reply, Some(Frame::MeetReply(_))));
            // …and the reply is dropped here: the initiator dies first.
        }

        // Resume over the torn directory: meeting 8 classifies as
        // Repair, the initiator absorbs the journaled outbound, and the
        // final state matches the uninterrupted control exactly.
        let resumed_cfg = ClusterConfig {
            state_dir: Some(dir.clone()),
            ..base.clone()
        };
        let resumed = run_cluster(frags, n_total, JxpConfig::default(), &resumed_cfg, None);
        assert_eq!(resumed.meetings_completed, 0, "nothing left to execute");
        assert_eq!(resumed.score_hash, control.score_hash);
        std::fs::remove_dir_all(&dir).ok();
    }
}
