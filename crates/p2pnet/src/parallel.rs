//! Deterministic round-based parallel meeting engine.
//!
//! The paper's §3 premise is that JXP meetings happen "asynchronously and
//! independently of each other" — concurrency is the algorithm's native
//! shape, and two meetings that share no peer commute exactly: each one
//! reads and writes only its two peers' state. This module exploits that:
//!
//! 1. **Draw the schedule.** [`Network::run_parallel`] draws all of its
//!    meetings before any of them runs, through the one schedule drawer
//!    the cluster uses too ([`draw_schedule`]): a uniformly random
//!    initiator, a partner from the [`SelectionStrategy`] machinery, and
//!    the draws cut greedily into rounds of peer-disjoint pairs. Under
//!    pre-meetings the drawer observes round r when it closes round
//!    r + 1, and the last two rounds when drawing ends.
//! 2. **Execute concurrently.** The round's pairs are pairwise disjoint,
//!    so each meeting gets true `&mut JxpPeer` borrows of its two peers
//!    (handed out safely via take-from-slot splitting) and the meetings
//!    run on the persistent [`jxp_pool`] workers — dealt round-robin,
//!    with work-stealing of the dealt buckets (meetings commute, so
//!    placement only moves wall clock, never results).
//! 3. **Account serially.** Bandwidth, gossip merges and the meeting
//!    counter replay in schedule order through the same code path as
//!    [`Network::step`], which is the engine's one-meeting round.
//!
//! **Why drawing up front is exact.** Drawing reads only the RNG,
//! the selector states and the static synopses, and executing and
//! accounting write none of them. So only the order of the drawer's own
//! select and observe calls matters, and it is fixed: for every round R,
//! select R's pairs and the conflicting pair that closes R, then observe
//! R − 1; at the end, observe the last two rounds.
//!
//! **Determinism argument.** All randomness is consumed by the drawer on
//! one thread. Execution touches pairwise-disjoint state, so its result
//! is independent of placement and interleaving (each meeting performs
//! the identical float operations it would perform alone); accounting is
//! serial in schedule order. Hence the final state is **bit-identical**
//! for every thread count, including `threads = 1` — which executes the
//! same canonical sequence inline without touching the pool. This is
//! verified by tests at 1/2/8 threads and enforced in CI.
//!
//! The only observable difference vs. a loop of one-meeting
//! [`Network::step`]s is *scheduling granularity*: under pre-meetings,
//! partner selection sees a slightly older selector state (see above).
//! That matches the paper's asynchronous model — a peer cannot observe
//! the outcome of a meeting that is still in flight. Under `Random` (with
//! or without `estimate_n`) observation never feeds the draw, and N steps
//! are bit-identical to one `run_parallel(N)`.
//!
//! [`SelectionStrategy`]: jxp_core::selection::SelectionStrategy
//! [`draw_schedule`]: jxp_core::selection::draw_schedule

use crate::sim::Network;
use jxp_core::meeting::{meet, MeetingStats};
use jxp_core::JxpPeer;
use jxp_pagerank::par::resolve_threads;
use jxp_telemetry::Event;

/// Summary of one [`Network::run_parallel`] invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParallelRunReport {
    /// Meetings executed (== the requested count).
    pub meetings: u64,
    /// Rounds the schedule was partitioned into.
    pub rounds: u64,
    /// Size of the largest round (meetings executed concurrently).
    pub max_round: usize,
    /// The resolved worker-thread knob (`NetworkConfig::threads` with
    /// `0` replaced by the machine's available parallelism). This is
    /// the **one** definition of "threads" the engine reports; each
    /// round actually engages `min(threads, pairs)` executors, a
    /// scheduling detail that is deliberately not part of any report
    /// or event (it varies per round).
    pub threads: usize,
    /// Meetings executed by a pool worker other than the one they were
    /// dealt to (work-stealing traffic; scheduling-dependent).
    pub stolen: u64,
}

/// Execute one round of pairwise-disjoint meetings on the shared
/// [`jxp_pool`], returning the per-pair stats in schedule order and the
/// pool's round stats.
fn execute_round(
    peers: &mut [JxpPeer],
    pairs: &[(usize, usize)],
    threads: usize,
) -> (Vec<MeetingStats>, jxp_pool::RoundStats) {
    // Hand out disjoint `&mut JxpPeer` pairs: every peer reference
    // sits in a take-once slot, so a non-disjoint schedule is a
    // loud panic instead of undefined behavior.
    let mut slots: Vec<Option<&mut JxpPeer>> = peers.iter_mut().map(Some).collect();
    let mut results: Vec<Option<MeetingStats>> = pairs.iter().map(|_| None).collect();
    let tasks: Vec<(&mut JxpPeer, &mut JxpPeer, &mut Option<MeetingStats>)> = pairs
        .iter()
        .zip(results.iter_mut())
        .map(|(&(i, j), slot)| {
            let a = slots[i].take().expect("round pairs must be disjoint");
            let b = slots[j].take().expect("round pairs must be disjoint");
            (a, b, slot)
        })
        .collect();
    // Each task writes only its own two peers and its own stats slot —
    // placement-invariant by construction, as the pool requires. With
    // `threads = 1` the pool runs the round inline (exact serial replay).
    let round = jxp_pool::global().run_dealt(threads, tasks, |(a, b, slot)| {
        *slot = Some(meet(a, b));
    });
    let stats = results
        .into_iter()
        .map(|r| r.expect("every pair executed"))
        .collect();
    (stats, round)
}

impl Network {
    /// Run `count` meetings through the round-based parallel engine,
    /// using [`NetworkConfig::threads`](crate::sim::NetworkConfig)
    /// workers (`0` = available parallelism).
    ///
    /// The resulting scores, bandwidth log and selector statistics are
    /// **bit-identical** for every thread count (see the module docs for
    /// the argument); only wall-clock time differs.
    ///
    /// # Panics
    /// Panics if the network holds fewer than two peers — a meeting
    /// needs a distinct partner, so no schedule can be drawn.
    pub fn run_parallel(&mut self, count: usize) -> ParallelRunReport {
        let n = self.peers.len();
        assert!(
            n >= 2,
            "run_parallel needs at least two peers (got {n}): every meeting \
             requires a partner distinct from its initiator"
        );
        let threads = resolve_threads(self.config.threads);
        let mut report = ParallelRunReport {
            threads,
            ..Default::default()
        };
        for pairs in self.draw(count) {
            #[expect(
                clippy::disallowed_methods,
                reason = "straggler clock for round timing metrics; never reaches a score"
            )]
            let started = std::time::Instant::now();
            let queue_depth = self.telemetry.as_ref().map(|_| jxp_pool::global().queued());
            let (stats, round) = execute_round(&mut self.peers, &pairs, threads);
            let elapsed = started.elapsed().as_secs_f64();
            for (&(initiator, partner), s) in pairs.iter().zip(&stats) {
                self.account_meeting(initiator, partner, s);
            }
            if let Some(t) = &self.telemetry {
                t.rounds.inc();
                // Matching width is schedule-determined (identical at
                // every thread count). Wall clock, steal traffic and
                // pool backlog are scheduling-dependent and live only
                // in histograms, never in counters or events.
                t.round_width.observe(pairs.len() as f64);
                t.round_seconds.observe(elapsed);
                t.pool_steals.observe(round.stolen as f64);
                if let Some(depth) = queue_depth {
                    t.pool_queue_depth.observe(depth as f64);
                }
                t.hub.events().record(Event::RoundExecuted {
                    round: report.rounds,
                    pairs: pairs.len() as u64,
                });
            }
            report.rounds += 1;
            report.max_round = report.max_round.max(pairs.len());
            report.meetings += pairs.len() as u64;
            report.stolen += round.stolen;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::CrawlerParams;
    use crate::sim::NetworkConfig;
    use jxp_core::selection::{PreMeetingsConfig, SelectionStrategy};
    use jxp_webgraph::generators::{CategorizedGraph, CategorizedParams};
    use jxp_webgraph::Subgraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_world() -> (CategorizedGraph, Vec<Subgraph>) {
        let cg = CategorizedGraph::generate(
            &CategorizedParams {
                num_categories: 3,
                nodes_per_category: 80,
                intra_out_per_node: 4,
                cross_fraction: 0.2,
            },
            &mut StdRng::seed_from_u64(21),
        );
        let params = CrawlerParams {
            peers_per_category: 3,
            seeds_per_peer: 4,
            max_depth: 3,
            ..Default::default()
        };
        let frags = crate::assign::assign_by_crawlers(&cg, &params, &mut StdRng::seed_from_u64(22));
        (cg, frags)
    }

    fn net_with(threads: usize, config: NetworkConfig) -> Network {
        let (cg, frags) = small_world();
        let config = NetworkConfig { threads, ..config };
        Network::new(frags, cg.graph.num_nodes() as u64, config, 77)
    }

    type Fingerprint = (Vec<Vec<u64>>, Vec<u64>, (usize, usize, usize, usize));

    fn fingerprint(net: &Network) -> Fingerprint {
        let scores: Vec<Vec<u64>> = net
            .peers()
            .iter()
            .map(|p| p.scores().iter().map(|s| s.to_bits()).collect())
            .collect();
        let history: Vec<u64> = (0..net.num_peers())
            .flat_map(|p| net.bandwidth().peer_history(p).iter().copied())
            .collect();
        (scores, history, net.selection_stats())
    }

    #[test]
    fn parallel_run_is_bit_identical_across_thread_counts() {
        for config in [
            NetworkConfig::default(),
            NetworkConfig {
                strategy: SelectionStrategy::PreMeetings(PreMeetingsConfig::default()),
                ..Default::default()
            },
            NetworkConfig {
                estimate_n: true,
                ..Default::default()
            },
        ] {
            let mut serial = net_with(1, config.clone());
            serial.run_parallel(120);
            let want = fingerprint(&serial);
            for threads in [2, 8] {
                let mut par = net_with(threads, config.clone());
                let report = par.run_parallel(120);
                assert_eq!(report.meetings, 120);
                assert_eq!(report.threads, threads);
                assert_eq!(
                    fingerprint(&par),
                    want,
                    "nondeterminism at {threads} threads ({config:?})"
                );
            }
        }
    }

    #[test]
    fn rounds_batch_more_than_one_meeting() {
        let mut net = net_with(4, NetworkConfig::default());
        let report = net.run_parallel(100);
        assert_eq!(report.meetings, 100);
        assert!(
            report.rounds < 100,
            "9 peers should batch >1 meeting per round ({report:?})"
        );
        assert!(report.max_round >= 2);
        assert_eq!(net.meetings(), 100);
    }

    #[test]
    fn two_peer_network_degenerates_to_serial_rounds() {
        let (cg, frags) = small_world();
        let mut net = Network::new(
            frags.into_iter().take(2).collect(),
            cg.graph.num_nodes() as u64,
            NetworkConfig {
                threads: 4,
                ..Default::default()
            },
            5,
        );
        let report = net.run_parallel(10);
        assert_eq!(report.meetings, 10);
        assert_eq!(report.max_round, 1);
        assert_eq!(net.meetings(), 10);
    }

    #[test]
    #[should_panic(expected = "at least two peers")]
    fn single_peer_network_cannot_run_parallel() {
        // `Network::new` already rejects < 2 fragments, but churn-style
        // surgery (or a future constructor) could leave a degenerate
        // network; `run_parallel` must fail loudly instead of feeding
        // `select_partner` an empty candidate set (a hang or a
        // context-free debug_assert deep in the selector).
        let mut net = net_with(4, NetworkConfig::default());
        while net.peers.len() > 1 {
            net.peers.pop();
            net.synopses.pop();
            net.states.pop();
        }
        let _ = net.run_parallel(5);
    }

    #[test]
    fn parallel_run_converges_like_sequential() {
        use jxp_pagerank::{metrics, pagerank, PageRankConfig};
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
        net.run_parallel(200);
        let late = metrics::footrule_distance(&net.total_ranking(), &truth_ranking, 50);
        assert!(late < early, "footrule did not improve: {early} → {late}");
        assert!(late < 0.35, "footrule after 200 parallel meetings: {late}");
    }

    #[test]
    fn telemetry_is_deterministic_across_thread_counts() {
        use jxp_telemetry::{TelemetryHub, TelemetrySnapshot};
        use std::sync::Arc;

        let config = NetworkConfig {
            strategy: SelectionStrategy::PreMeetings(PreMeetingsConfig::default()),
            ..Default::default()
        };
        let run = |threads: usize| -> (Fingerprint, TelemetrySnapshot, (u64, u64)) {
            let mut net = net_with(threads, config.clone());
            let hub = TelemetryHub::shared();
            net.attach_telemetry(Arc::clone(&hub));
            net.run_parallel(120);
            let totals = (
                net.bandwidth().total_bytes(),
                net.bandwidth().premeeting_bytes(),
            );
            (fingerprint(&net), hub.snapshot(), totals)
        };

        let (fp1, snap1, (total1, pre1)) = run(1);
        // Counters mirror the serial bandwidth log exactly.
        let counters = &snap1.metrics.counters;
        assert_eq!(counters["jxp_sim_meetings_total"], 120);
        assert_eq!(
            counters["jxp_sim_meeting_bytes_total"] + counters["jxp_sim_premeeting_bytes_total"],
            total1
        );
        assert_eq!(counters["jxp_sim_premeeting_bytes_total"], pre1);
        assert!(counters["jxp_sim_rounds_total"] > 0);
        // And instrumentation must not perturb the engine itself.
        let mut plain = net_with(1, config.clone());
        plain.run_parallel(120);
        assert_eq!(fingerprint(&plain), fp1, "telemetry perturbed the run");

        for threads in [2, 8] {
            let (fp, snap, totals) = run(threads);
            assert_eq!(fp, fp1, "nondeterminism at {threads} threads");
            assert_eq!(totals, (total1, pre1));
            assert_eq!(
                snap.metrics.counters, snap1.metrics.counters,
                "counter totals diverge at {threads} threads"
            );
            // Events carry only schedule-determined fields, so the
            // streams compare bit-for-bit — no normalization. (The
            // worker count lives in reports and histograms instead;
            // see ParallelRunReport::threads.)
            assert_eq!(
                snap.events, snap1.events,
                "event streams diverge at {threads} threads"
            );
        }
    }

    #[test]
    fn run_and_run_parallel_can_interleave() {
        // `run_parallel` and the one-meeting `step` share all
        // state; switching between them mid-run keeps every invariant
        // (counters, bandwidth, selector state). Repeated `run_parallel`
        // calls also reuse the same persistent pool workers — they must
        // not wedge or leak rounds (pool lifecycle coverage through the
        // public API).
        let mut net = net_with(4, NetworkConfig::default());
        net.run_parallel(15);
        let report = net.run_parallel(30);
        for _ in 0..5 {
            net.step();
        }
        let again = net.run_parallel(25);
        assert_eq!(report.meetings, 30);
        assert_eq!(again.meetings, 25);
        assert_eq!(net.meetings(), 75);
        assert!(net.bandwidth().total_bytes() > 0);
    }

    #[test]
    fn steps_are_bit_identical_to_run_parallel_without_premeetings() {
        // Without pre-meetings, observation never feeds the draw, so the
        // round engine's schedule is the one-meeting loop's schedule.
        for config in [
            NetworkConfig::default(),
            NetworkConfig {
                estimate_n: true,
                ..Default::default()
            },
        ] {
            let mut stepped = net_with(1, config.clone());
            for _ in 0..300 {
                stepped.step();
            }
            let mut rounds = net_with(2, config.clone());
            rounds.run_parallel(300);
            assert_eq!(fingerprint(&stepped), fingerprint(&rounds), "{config:?}");
        }
    }

    #[test]
    fn schedule_is_reproducible_for_same_seed() {
        // Two identical networks must draw the identical round
        // structure — the drawer consumes the RNG on the calling
        // thread only, before any meeting runs, so the schedule is a
        // pure function of the seed regardless of pool scheduling.
        let run = |threads: usize| {
            let mut net = net_with(threads, NetworkConfig::default());
            let report = net.run_parallel(150);
            (report.rounds, report.max_round, fingerprint(&net))
        };
        let (rounds1, max1, fp1) = run(1);
        for threads in [2, 8] {
            let (rounds, max_round, fp) = run(threads);
            assert_eq!((rounds, max_round), (rounds1, max1));
            assert_eq!(fp, fp1);
        }
    }
}
