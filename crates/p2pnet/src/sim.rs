//! The network simulator: peers, meeting scheduling, accounting.
//!
//! Mirrors the paper's experimental driver: a set of peers over one global
//! graph, a global meeting counter (the x-axis of Figures 4–10), meetings
//! between a random initiator and a strategy-chosen partner, and
//! per-meeting bandwidth/CPU accounting.

use crate::bandwidth::BandwidthLog;
use crate::count::GossipCounter;
use jxp_core::meeting::{meet, MeetingStats};
use jxp_core::selection::{draw_schedule, PeerSynopses, SelectionStrategy, SelectorState};
use jxp_core::{JxpConfig, JxpPeer};
use jxp_pagerank::Ranking;
use jxp_synopses::mips::MipsPermutations;
use jxp_telemetry::{Counter, Event, Gauge, Histogram, TelemetryHub};
use jxp_webgraph::Subgraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Seed of the MIPs permutation family every simulated peer shares.
const MIPS_SEED: u64 = 0x4D49_5053;

/// FM-sketch buckets for the gossiped `N` estimate
/// ([`NetworkConfig::estimate_n`]).
const FM_BUCKETS: usize = 256;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// JXP algorithm parameters shared by all peers.
    pub jxp: JxpConfig,
    /// Peer-selection strategy shared by all peers.
    pub strategy: SelectionStrategy,
    /// Dimensionality of the MIPs vectors (paper §4.3).
    pub mips_dims: usize,
    /// When `true`, peers do not receive the true `N`; they estimate it by
    /// gossiping 256-bucket FM sketches (the §3 "work without this
    /// estimate" modification).
    pub estimate_n: bool,
    /// Worker threads for the rounds of [`Network::run_parallel`] (`0` =
    /// the machine's available parallelism, `1` = serial). Scores are
    /// bit-identical for every value — see [`crate::parallel`]. The
    /// one-meeting [`Network::step`] ignores it.
    pub threads: usize,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            jxp: JxpConfig::default(),
            strategy: SelectionStrategy::Random,
            mips_dims: 64,
            estimate_n: false,
            threads: 0,
        }
    }
}

/// Record of one simulated meeting.
#[derive(Debug, Clone)]
pub struct MeetingRecord {
    /// Peer that initiated the meeting.
    pub initiator: usize,
    /// Chosen partner.
    pub partner: usize,
    /// The core meeting measurements (bytes really shipped — payloads
    /// cut to the receiver, the sender's filter included — and CPU time
    /// per side).
    pub stats: MeetingStats,
}

/// Telemetry handles the simulator touches on hot paths, resolved once
/// at [`Network::attach_telemetry`] time so per-meeting accounting
/// never walks the registry's name map. Counters and events are only
/// updated from the serial accounting phase (see
/// [`Network::account_meeting`]), so enabling telemetry cannot perturb
/// the engine's bit-identical thread-count determinism. Histograms are
/// the one exception: wall clock, steal traffic and pool backlog are
/// scheduling-dependent by nature and are deliberately excluded from
/// determinism comparisons — scheduling-dependent quantities must never
/// land in counters or events.
pub(crate) struct SimTelemetry {
    pub(crate) hub: Arc<TelemetryHub>,
    pub(crate) meetings: Arc<Counter>,
    pub(crate) meeting_bytes: Arc<Counter>,
    pub(crate) premeeting_bytes: Arc<Counter>,
    pub(crate) joins: Arc<Counter>,
    pub(crate) departures: Arc<Counter>,
    pub(crate) rounds: Arc<Counter>,
    pub(crate) round_width: Arc<Histogram>,
    pub(crate) round_seconds: Arc<Histogram>,
    /// Per-round count of meetings a pool worker stole from another
    /// worker's dealt stripe. Scheduling-dependent, so a histogram —
    /// never a counter or event (those must stay bit-identical across
    /// thread counts).
    pub(crate) pool_steals: Arc<Histogram>,
    /// Jobs still queued on the shared worker pool when a round is
    /// submitted (straggler/backlog signal; scheduling-dependent).
    pub(crate) pool_queue_depth: Arc<Histogram>,
    /// Centralized PageRank vector (global page index order) against
    /// which per-peer L1 convergence gauges are computed; set by
    /// [`Network::attach_convergence_truth`].
    pub(crate) l1_truth: Option<Vec<f64>>,
    /// Per-peer `jxp_sim_peer_l1_distance{peer="i"}` gauges, cached by
    /// peer index and grown on demand (churn can add peers).
    pub(crate) l1_gauges: Vec<Arc<Gauge>>,
}

impl SimTelemetry {
    fn new(hub: Arc<TelemetryHub>) -> Self {
        let reg = hub.registry();
        SimTelemetry {
            meetings: reg.counter("jxp_sim_meetings_total"),
            meeting_bytes: reg.counter("jxp_sim_meeting_bytes_total"),
            premeeting_bytes: reg.counter("jxp_sim_premeeting_bytes_total"),
            joins: reg.counter("jxp_sim_churn_joins_total"),
            departures: reg.counter("jxp_sim_churn_departures_total"),
            rounds: reg.counter("jxp_sim_rounds_total"),
            round_width: reg.histogram(
                "jxp_sim_round_width",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
            ),
            round_seconds: reg.histogram(
                "jxp_sim_round_seconds",
                &[1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0],
            ),
            pool_steals: reg.histogram(
                "jxp_sim_pool_steals",
                &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
            ),
            pool_queue_depth: reg.histogram(
                "jxp_sim_pool_queue_depth",
                &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
            ),
            hub,
            l1_truth: None,
            l1_gauges: Vec::new(),
        }
    }

    /// The cached L1 gauge of peer `p`, registering any missing ones.
    fn peer_l1_gauge(&mut self, p: usize) -> &Arc<Gauge> {
        while self.l1_gauges.len() <= p {
            let i = self.l1_gauges.len();
            self.l1_gauges.push(
                self.hub
                    .registry()
                    .gauge(&format!("jxp_sim_peer_l1_distance{{peer=\"{i}\"}}")),
            );
        }
        &self.l1_gauges[p]
    }

    /// Refresh peer `p`'s L1-distance-to-centralized gauge. A no-op
    /// until [`Network::attach_convergence_truth`] supplies the truth
    /// vector. Called only from the serial accounting phase, so the
    /// gauge sequence is a pure function of the meeting schedule and
    /// thread-count equivalence is untouched.
    fn update_l1_gauge(&mut self, p: usize, peer: &JxpPeer) {
        let Some(truth) = &self.l1_truth else {
            return;
        };
        let d: f64 = peer
            .graph()
            .pages()
            .iter()
            .zip(peer.scores())
            .map(|(page, s)| (s - truth.get(page.0 as usize).copied().unwrap_or(0.0)).abs())
            .sum();
        self.peer_l1_gauge(p).set(d);
    }
}

/// A simulated P2P network of JXP peers.
pub struct Network {
    pub(crate) peers: Vec<JxpPeer>,
    pub(crate) synopses: Vec<PeerSynopses>,
    pub(crate) states: Vec<SelectorState>,
    pub(crate) counter: Option<GossipCounter>,
    perms: MipsPermutations,
    pub(crate) config: NetworkConfig,
    default_n: u64,
    pub(crate) rng: StdRng,
    pub(crate) bandwidth: BandwidthLog,
    pub(crate) meetings: u64,
    pub(crate) telemetry: Option<SimTelemetry>,
}

impl Network {
    /// Build a network from per-peer fragments of a global graph with
    /// `n_total` pages. `seed` drives all simulator randomness.
    ///
    /// # Panics
    /// Panics if fewer than two fragments are supplied.
    pub fn new(fragments: Vec<Subgraph>, n_total: u64, config: NetworkConfig, seed: u64) -> Self {
        assert!(fragments.len() >= 2, "a network needs at least two peers");
        let perms = MipsPermutations::generate(config.mips_dims, MIPS_SEED);
        let counter = config
            .estimate_n
            .then(|| GossipCounter::new(&fragments, FM_BUCKETS));
        let num = fragments.len();
        let synopses: Vec<PeerSynopses> = fragments
            .iter()
            .map(|f| PeerSynopses::compute(f, &perms))
            .collect();
        let peers: Vec<JxpPeer> = fragments
            .into_iter()
            .enumerate()
            .map(|(i, f)| {
                let n = match &counter {
                    Some(c) => (c.estimate(i).ceil() as u64).max(f.num_pages() as u64),
                    None => n_total,
                };
                JxpPeer::new(f, n, config.jxp.clone())
            })
            .collect();
        Network {
            peers,
            synopses,
            states: vec![SelectorState::default(); num],
            counter,
            perms,
            config,
            default_n: n_total,
            rng: StdRng::seed_from_u64(seed),
            bandwidth: BandwidthLog::new(num),
            meetings: 0,
            telemetry: None,
        }
    }

    /// Attach a telemetry hub: meetings, bandwidth, churn and (for the
    /// parallel engine) round shape are recorded into it from the
    /// serial accounting path. Handles are cached here, so the hot path
    /// never resolves metric names. Attaching is observation-only —
    /// scores, bandwidth history and selector state are bit-identical
    /// with telemetry on or off, at every thread count.
    pub fn attach_telemetry(&mut self, hub: Arc<TelemetryHub>) {
        self.telemetry = Some(SimTelemetry::new(hub));
    }

    /// Attach the centralized PageRank vector (global page index order)
    /// and start publishing a per-peer convergence gauge,
    /// `jxp_sim_peer_l1_distance{peer="i"}`: the L1 distance between
    /// peer *i*'s local scores and the centralized scores of the same
    /// pages. Gauges refresh for both participants of every meeting,
    /// from the serial accounting phase only — like all simulator
    /// telemetry, enabling them cannot perturb scores at any thread
    /// count. Peers are labelled by their current index (swap-remove
    /// churn renumbers the last peer, as everywhere in the simulator).
    ///
    /// # Panics
    /// Panics if no telemetry hub is attached.
    pub fn attach_convergence_truth(&mut self, truth: &[f64]) {
        let t = self
            .telemetry
            .as_mut()
            .expect("attach_telemetry before attach_convergence_truth");
        t.l1_truth = Some(truth.to_vec());
        // Publish the starting distances so the gauges exist (and are
        // meaningful) before the first meeting.
        for (p, peer) in self.peers.iter().enumerate() {
            t.update_l1_gauge(p, peer);
        }
    }

    /// Number of peers currently in the network.
    pub fn num_peers(&self) -> usize {
        self.peers.len()
    }

    /// The peers (read-only).
    pub fn peers(&self) -> &[JxpPeer] {
        &self.peers
    }

    /// One peer (read-only).
    pub fn peer(&self, p: usize) -> &JxpPeer {
        &self.peers[p]
    }

    /// Global meeting counter (the x-axis of the convergence figures).
    pub fn meetings(&self) -> u64 {
        self.meetings
    }

    /// Bandwidth accounting.
    pub fn bandwidth(&self) -> &BandwidthLog {
        &self.bandwidth
    }

    /// Draw `count` meetings into rounds through the one schedule
    /// drawer ([`draw_schedule`]): a uniformly random initiator, a
    /// partner per the configured strategy. Under pre-meetings the
    /// drawer also observes every drawn pair; the MIPs fetches those
    /// pre-meetings cost are charged here, as the drawing's change in
    /// the selector states' byte counts.
    pub(crate) fn draw(&mut self, count: usize) -> Vec<Vec<(usize, usize)>> {
        let n = self.peers.len();
        let spent =
            |states: &[SelectorState]| -> u64 { states.iter().map(|s| s.premeeting_bytes).sum() };
        let before = spent(&self.states);
        let rounds = draw_schedule(
            count,
            &self.config.strategy,
            &self.synopses,
            &mut self.states,
            &mut self.rng,
            |_, rng| rng.gen_range(0..n),
        );
        let bytes = spent(&self.states) - before;
        self.bandwidth.record_premeeting(bytes);
        if let Some(t) = &self.telemetry {
            t.premeeting_bytes.add(bytes);
        }
        rounds
    }

    /// Execute one meeting: a uniformly random initiator chooses a partner
    /// per the configured strategy; both sides exchange and absorb. This
    /// is the one-meeting round: it draws, executes and accounts before
    /// returning, so under pre-meetings the next draw already sees this
    /// meeting (a round's draws see it two rounds later). Under
    /// `Random` and `estimate_n`, `step` × N is bit-identical to
    /// [`Network::run_parallel`]`(N)`.
    pub fn step(&mut self) -> MeetingRecord {
        let (initiator, partner) = self.draw(1)[0][0];
        let (a, b) = pair_mut(&mut self.peers, initiator, partner);
        let stats = meet(a, b);
        self.account_meeting(initiator, partner, &stats);
        MeetingRecord {
            initiator,
            partner,
            stats,
        }
    }

    /// Post-meeting bookkeeping shared by the one-meeting [`step`] and
    /// the round-based engine ([`crate::parallel`]):
    /// bandwidth accounting, FM-sketch gossip, and the global meeting
    /// counter. Always runs serially, in schedule order, so both paths
    /// account identically. Pre-meetings are observed and charged by
    /// [`Network::draw`], not here.
    ///
    /// [`step`]: Network::step
    pub(crate) fn account_meeting(
        &mut self,
        initiator: usize,
        partner: usize,
        stats: &MeetingStats,
    ) {
        // Piggybacked synopses add to the message size under pre-meetings.
        // Each side ships its *own* synopses, so the two directions carry
        // different synopsis sizes; the FM sketch rides along symmetrically.
        let (syn_a, syn_b) = match self.config.strategy {
            SelectionStrategy::PreMeetings(_) => (
                self.synopses[initiator].wire_size() as u64,
                self.synopses[partner].wire_size() as u64,
            ),
            SelectionStrategy::Random => (0, 0),
        };
        let sketch_bytes = self.counter.as_ref().map_or(0, |c| c.wire_size() as u64);
        let sent_a = stats.bytes_a_to_b as u64 + syn_a + sketch_bytes;
        let sent_b = stats.bytes_b_to_a as u64 + syn_b + sketch_bytes;
        self.bandwidth
            .record_meeting(initiator, sent_a, partner, sent_b);
        if let Some(t) = &self.telemetry {
            t.meetings.inc();
            t.meeting_bytes.add(sent_a + sent_b);
            let meeting = self.meetings; // 0-based global meeting number
            t.hub.events().record(Event::MeetingStarted {
                meeting,
                initiator: initiator as u64,
                partner: partner as u64,
            });
            t.hub.events().record(Event::MeetingCompleted {
                meeting,
                initiator: initiator as u64,
                partner: partner as u64,
                bytes: sent_a + sent_b,
            });
        }
        if let Some(counter) = &mut self.counter {
            counter.merge_pair(initiator, partner);
            for p in [initiator, partner] {
                let est = counter.estimate(p).max(self.peers[p].num_pages() as f64);
                self.peers[p].set_n_total(est);
            }
        }
        if let Some(t) = &mut self.telemetry {
            for p in [initiator, partner] {
                t.update_l1_gauge(p, &self.peers[p]);
            }
        }
        self.meetings += 1;
    }

    /// Aggregate peer-selection statistics:
    /// `(selections, candidate-driven, cache revisits, cached ids total)`.
    pub fn selection_stats(&self) -> (usize, usize, usize, usize) {
        self.states.iter().fold((0, 0, 0, 0), |acc, s| {
            (
                acc.0 + s.selections(),
                acc.1 + s.candidate_selections(),
                acc.2 + s.revisit_selections(),
                acc.3 + s.cached().len(),
            )
        })
    }

    /// The network-wide total ranking (§6.2 evaluation construction).
    pub fn total_ranking(&self) -> Ranking {
        jxp_core::evaluate::total_ranking(self.peers.iter())
    }

    /// A joining peer (churn). Selector caches are left untouched —
    /// indices of existing peers are stable under push.
    pub fn add_peer(&mut self, fragment: Subgraph) {
        let n = match &mut self.counter {
            Some(c) => {
                c.add_peer(&fragment);
                (c.estimate(self.peers.len()).ceil() as u64).max(fragment.num_pages() as u64)
            }
            None => self.default_n,
        };
        self.synopses
            .push(PeerSynopses::compute(&fragment, &self.perms));
        self.peers
            .push(JxpPeer::new(fragment, n, self.config.jxp.clone()));
        self.states.push(SelectorState::default());
        self.bandwidth.add_peer();
        self.record_churn(self.peers.len() - 1, true);
    }

    /// A peer re-joining **with state** (e.g. restored from a
    /// [`jxp_core::snapshot`]): unlike [`add_peer`](Network::add_peer) it
    /// keeps its accumulated world knowledge and scores.
    pub fn add_existing_peer(&mut self, peer: JxpPeer) {
        if let Some(c) = &mut self.counter {
            c.add_peer(peer.graph());
        }
        self.synopses
            .push(PeerSynopses::compute(peer.graph(), &self.perms));
        self.peers.push(peer);
        self.states.push(SelectorState::default());
        self.bandwidth.add_peer();
        self.record_churn(self.peers.len() - 1, true);
    }

    /// A departing peer (churn). Uses swap-remove, which renumbers the
    /// last peer; all selector caches are reset because cached ids become
    /// stale (a real network keys caches by durable peer ids — the
    /// simulator models the loss of cached knowledge conservatively).
    ///
    /// # Panics
    /// Panics if removal would leave fewer than two peers.
    pub fn remove_peer(&mut self, p: usize) -> JxpPeer {
        assert!(self.peers.len() > 2, "cannot shrink below two peers");
        let peer = self.peers.swap_remove(p);
        self.synopses.swap_remove(p);
        if let Some(c) = &mut self.counter {
            c.remove_peer(p);
        }
        self.states = vec![SelectorState::default(); self.peers.len()];
        self.record_churn(p, false);
        peer
    }

    /// Trace a join/departure (no-op without an attached hub).
    fn record_churn(&self, peer: usize, joined: bool) {
        if let Some(t) = &self.telemetry {
            if joined {
                t.joins.inc();
            } else {
                t.departures.inc();
            }
            t.hub.events().record(Event::Churn {
                peer: peer as u64,
                joined,
            });
        }
    }
}

/// Mutable references to two distinct elements.
fn pair_mut<T>(v: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j, "cannot borrow the same element twice");
    if i < j {
        let (l, r) = v.split_at_mut(j);
        (&mut l[i], &mut r[0])
    } else {
        let (l, r) = v.split_at_mut(i);
        (&mut r[0], &mut l[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxp_core::selection::PreMeetingsConfig;
    use jxp_pagerank::{metrics, pagerank, PageRankConfig};
    use jxp_webgraph::generators::{CategorizedGraph, CategorizedParams};
    use jxp_webgraph::PageId;

    fn small_world() -> (CategorizedGraph, Vec<Subgraph>) {
        let cg = CategorizedGraph::generate(
            &CategorizedParams {
                num_categories: 3,
                nodes_per_category: 100,
                intra_out_per_node: 4,
                cross_fraction: 0.2,
            },
            &mut StdRng::seed_from_u64(1),
        );
        let params = crate::assign::CrawlerParams {
            peers_per_category: 2,
            seeds_per_peer: 4,
            max_depth: 3,
            ..Default::default()
        };
        let frags = crate::assign::assign_by_crawlers(&cg, &params, &mut StdRng::seed_from_u64(2));
        (cg, frags)
    }

    #[test]
    fn network_runs_and_counts_meetings() {
        let (cg, frags) = small_world();
        let mut net = Network::new(
            frags,
            cg.graph.num_nodes() as u64,
            NetworkConfig::default(),
            7,
        );
        net.run_parallel(20);
        assert_eq!(net.meetings(), 20);
        assert!(net.bandwidth().total_bytes() > 0);
        assert_eq!(net.num_peers(), 6);
    }

    #[test]
    fn convergence_toward_centralized_pagerank() {
        let (cg, frags) = small_world();
        let truth = pagerank(&cg.graph, &PageRankConfig::default());
        let truth_ranking = jxp_core::evaluate::centralized_ranking(truth.scores());
        let mut net = Network::new(
            frags,
            cg.graph.num_nodes() as u64,
            NetworkConfig::default(),
            7,
        );
        let early = metrics::footrule_distance(&net.total_ranking(), &truth_ranking, 50);
        net.run_parallel(150);
        let late = metrics::footrule_distance(&net.total_ranking(), &truth_ranking, 50);
        assert!(late < early, "footrule did not improve: {early} → {late}");
        assert!(late < 0.35, "footrule after 150 meetings: {late}");
    }

    #[test]
    fn premeetings_strategy_runs() {
        let (cg, frags) = small_world();
        let config = NetworkConfig {
            strategy: SelectionStrategy::PreMeetings(PreMeetingsConfig::default()),
            ..Default::default()
        };
        let mut net = Network::new(frags, cg.graph.num_nodes() as u64, config, 9);
        net.run_parallel(60);
        assert_eq!(net.meetings(), 60);
        // Synopses piggyback on messages, so totals include them.
        assert!(net.bandwidth().total_bytes() > 0);
    }

    #[test]
    fn estimate_n_mode_converges_to_network_coverage() {
        let (_cg, frags) = small_world();
        // The gossip target is the number of *distinct pages the network
        // holds* (crawlers may not reach every page of the global graph).
        let covered = {
            let mut s = jxp_webgraph::FxHashSet::default();
            for f in &frags {
                s.extend(f.pages().iter().copied());
            }
            s.len() as f64
        };
        let config = NetworkConfig {
            estimate_n: true,
            ..Default::default()
        };
        let mut net = Network::new(frags, 0 /* unused */, config, 11);
        let spread_initial: f64 = (0..net.num_peers())
            .map(|p| (net.peer(p).n_total() - covered).abs())
            .sum();
        net.run_parallel(100);
        for p in 0..net.num_peers() {
            let est = net.peer(p).n_total();
            assert!(
                (est - covered).abs() / covered < 0.35,
                "peer {p} N estimate {est} vs covered {covered}"
            );
        }
        let spread_final: f64 = (0..net.num_peers())
            .map(|p| (net.peer(p).n_total() - covered).abs())
            .sum();
        assert!(
            spread_final < spread_initial,
            "gossip did not tighten estimates"
        );
    }

    #[test]
    fn bandwidth_pins_each_direction_to_its_own_payload_and_synopses() {
        let (cg, frags) = small_world();
        let config = NetworkConfig {
            strategy: SelectionStrategy::PreMeetings(PreMeetingsConfig::default()),
            ..Default::default()
        };
        let mut net = Network::new(frags, cg.graph.num_nodes() as u64, config, 17);
        let record = net.step();
        // Each side's logged bytes = its payload + its OWN synopses. A
        // regression that charges one side's synopses to both directions
        // (or drops a direction) breaks this equality.
        let a = record.initiator;
        let b = record.partner;
        assert_eq!(
            net.bandwidth().peer_history(a),
            &[record.stats.bytes_a_to_b as u64 + net.synopses[a].wire_size() as u64]
        );
        assert_eq!(
            net.bandwidth().peer_history(b),
            &[record.stats.bytes_b_to_a as u64 + net.synopses[b].wire_size() as u64]
        );
        assert_eq!(
            net.bandwidth().total_bytes(),
            record.stats.total_bytes() as u64
                + net.synopses[a].wire_size() as u64
                + net.synopses[b].wire_size() as u64
                + net.bandwidth().premeeting_bytes()
        );
    }

    #[test]
    fn each_direction_ships_the_payload_cut_to_its_receiver() {
        let (cg, frags) = small_world();
        let n = cg.graph.num_nodes() as u64;
        // Same seed ⇒ the untouched twin still holds the pre-meeting
        // state the stepped network built its payloads from.
        let twin = Network::new(frags.clone(), n, NetworkConfig::default(), 31);
        let mut net = Network::new(frags, n, NetworkConfig::default(), 31);
        let record = net.step();
        let (a, b) = (twin.peer(record.initiator), twin.peer(record.partner));
        let (a_to_b, b_to_a) = (a.payload_for(b.interest()), b.payload_for(a.interest()));
        assert_eq!(record.stats.bytes_a_to_b, a_to_b.wire_size());
        assert_eq!(record.stats.bytes_b_to_a, b_to_a.wire_size());
        // Both filters travel (each in its owner's payload) and count.
        assert_eq!(a_to_b.interest.as_ref(), a.interest());
        assert_eq!(b_to_a.interest.as_ref(), b.interest());
        assert!(record.stats.bytes_a_to_b < a.payload().wire_size());
        assert_eq!(
            net.bandwidth().total_bytes(),
            (a_to_b.wire_size() + b_to_a.wire_size()) as u64
        );
    }

    #[test]
    fn churn_join_and_leave() {
        let (cg, frags) = small_world();
        let extra = frags[0].clone();
        let mut net = Network::new(
            frags,
            cg.graph.num_nodes() as u64,
            NetworkConfig::default(),
            13,
        );
        net.run_parallel(10);
        net.add_peer(extra);
        assert_eq!(net.num_peers(), 7);
        net.run_parallel(10);
        let gone = net.remove_peer(0);
        assert!(gone.num_pages() > 0);
        assert_eq!(net.num_peers(), 6);
        net.run_parallel(10);
        assert_eq!(net.meetings(), 30);
    }

    #[test]
    fn telemetry_mirrors_bandwidth_log_and_traces_churn() {
        let (cg, frags) = small_world();
        let extra = frags[0].clone();
        let config = NetworkConfig {
            strategy: SelectionStrategy::PreMeetings(PreMeetingsConfig::default()),
            ..Default::default()
        };
        let mut net = Network::new(frags, cg.graph.num_nodes() as u64, config, 13);
        let hub = jxp_telemetry::TelemetryHub::shared();
        net.attach_telemetry(Arc::clone(&hub));
        net.run_parallel(25);
        net.add_peer(extra);
        net.run_parallel(5);
        let departed_index = net.num_peers() - 1;
        let _ = net.remove_peer(departed_index);

        let snap = hub.snapshot();
        let counters = &snap.metrics.counters;
        assert_eq!(counters["jxp_sim_meetings_total"], 30);
        assert_eq!(
            counters["jxp_sim_meeting_bytes_total"] + counters["jxp_sim_premeeting_bytes_total"],
            net.bandwidth().total_bytes()
        );
        assert_eq!(
            counters["jxp_sim_premeeting_bytes_total"],
            net.bandwidth().premeeting_bytes()
        );
        assert!(counters["jxp_sim_premeeting_bytes_total"] > 0);
        assert_eq!(counters["jxp_sim_churn_joins_total"], 1);
        assert_eq!(counters["jxp_sim_churn_departures_total"], 1);
        // `run_parallel` batches more than one meeting per round.
        let rounds = counters["jxp_sim_rounds_total"];
        assert!(rounds > 0 && rounds < 30, "{rounds} rounds");

        let churn: Vec<(u64, bool)> = snap
            .events
            .iter()
            .filter_map(|r| match r.event {
                jxp_telemetry::Event::Churn { peer, joined } => Some((peer, joined)),
                _ => None,
            })
            .collect();
        assert_eq!(churn, vec![(6, true), (departed_index as u64, false)]);
        // 30 meetings × (started + completed) + 2 churn events + one
        // event per round.
        assert_eq!(hub.events().recorded(), 62 + rounds);
    }

    #[test]
    fn per_peer_l1_gauges_shrink_and_are_thread_count_invariant() {
        let (cg, frags) = small_world();
        let truth = pagerank(&cg.graph, &PageRankConfig::default());

        // Run the parallel engine at a given thread count and return
        // (initial gauges, final gauges, score fingerprint).
        let run = |threads: usize| {
            let config = NetworkConfig {
                threads,
                ..NetworkConfig::default()
            };
            let mut net = Network::new(frags.clone(), cg.graph.num_nodes() as u64, config, 13);
            let hub = jxp_telemetry::TelemetryHub::shared();
            net.attach_telemetry(Arc::clone(&hub));
            net.attach_convergence_truth(truth.scores());
            let read = |hub: &jxp_telemetry::TelemetryHub, n: usize| -> Vec<f64> {
                let gauges = hub.snapshot().metrics.gauges;
                (0..n)
                    .map(|p| gauges[&format!("jxp_sim_peer_l1_distance{{peer=\"{p}\"}}")])
                    .collect()
            };
            let initial = read(&hub, net.num_peers());
            net.run_parallel(120);
            let fin = read(&hub, net.num_peers());
            let scores: Vec<f64> = net
                .peers()
                .iter()
                .flat_map(|p| p.scores().to_vec())
                .collect();
            (initial, fin, scores)
        };

        let (initial, final_1, scores_1) = run(1);
        // Gauges exist for every peer before the first meeting and the
        // network as a whole moved toward the centralized scores.
        assert_eq!(initial.len(), 6);
        assert!(initial.iter().all(|d| d.is_finite() && *d >= 0.0));
        assert!(
            final_1.iter().sum::<f64>() < initial.iter().sum::<f64>(),
            "total L1 distance should shrink: {initial:?} -> {final_1:?}"
        );

        // The serial accounting phase updates the gauges, so they are
        // bit-identical at any thread count — like the scores.
        let (_, final_8, scores_8) = run(8);
        assert_eq!(final_1, final_8);
        assert_eq!(scores_1, scores_8);
    }

    #[test]
    #[should_panic(expected = "attach_telemetry before")]
    fn convergence_truth_requires_a_hub() {
        let (cg, frags) = small_world();
        let mut net = Network::new(
            frags,
            cg.graph.num_nodes() as u64,
            NetworkConfig::default(),
            13,
        );
        net.attach_convergence_truth(&[0.0; 4]);
    }

    #[test]
    fn pair_mut_returns_distinct_references() {
        let mut v = vec![1, 2, 3];
        let (a, b) = pair_mut(&mut v, 2, 0);
        *a += 10;
        *b += 100;
        assert_eq!(v, vec![101, 2, 13]);
    }

    #[test]
    #[should_panic(expected = "same element")]
    fn pair_mut_same_index_panics() {
        let mut v = vec![1, 2];
        let _ = pair_mut(&mut v, 1, 1);
    }

    #[test]
    #[should_panic(expected = "at least two peers")]
    fn single_fragment_network_panics() {
        let (cg, frags) = small_world();
        let _ = Network::new(
            vec![frags[0].clone()],
            cg.graph.num_nodes() as u64,
            NetworkConfig::default(),
            1,
        );
    }

    #[test]
    fn total_ranking_has_scores_for_covered_pages() {
        let (cg, frags) = small_world();
        let covered: usize = {
            let mut s = jxp_webgraph::FxHashSet::default();
            for f in &frags {
                s.extend(f.pages().iter().copied());
            }
            s.len()
        };
        let net = Network::new(
            frags,
            cg.graph.num_nodes() as u64,
            NetworkConfig::default(),
            3,
        );
        let r = net.total_ranking();
        assert_eq!(r.len(), covered);
        assert!(r.score(PageId(0)).is_some() || covered < cg.graph.num_nodes());
    }
}
