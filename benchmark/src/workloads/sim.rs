//! `sim_converge` and `sim_web_premeet`: the in-process meeting engine
//! (`p2pnet::Network::run_parallel`) on the paper's §6.1 peer layout.

use crate::dataset;
use crate::harness::{p50, p99, time_each, Ctx, Unit};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::Collection;
use jxp_core::local_pr::{extended_pagerank, LocalTopology};
use jxp_core::selection::{PeerSynopses, PreMeetingsConfig, SelectionStrategy};
use jxp_core::{JxpConfig, JxpPeer};
use jxp_p2pnet::{Network, NetworkConfig};
use jxp_pagerank::{metrics, Ranking};
use jxp_synopses::mips::MipsPermutations;
use jxp_telemetry::TelemetryHub;
use jxp_webgraph::generators::{amazon_2005, web_crawl_2005, DatasetPreset};
use jxp_webgraph::Subgraph;
use std::time::Instant;

/// Footrule is sampled, outside the timer, after every this many meetings.
const SAMPLE_EVERY: usize = 50;

/// One simulator workload.
pub struct SimSpec {
    preset: fn() -> DatasetPreset,
    scale: f64,
    premeetings: bool,
    /// Engine threads of the measured runs; the control run uses the
    /// other of {1, 2} and must give the same score hash.
    threads: usize,
    /// Meetings per unit.
    budget: usize,
    /// Footrule is taken over the centralized top-k.
    top_k: usize,
    /// The footrule the budget must reach.
    tau: f64,
    /// Meeting schedules per pass (see `Ctx::measure`).
    variants: u64,
}

/// The Fig. 4 shape at a fifth of the paper's Amazon collection: 11 040
/// pages, 47 k links, 100 crawler fragments.
pub const CONVERGE: SimSpec = SimSpec {
    preset: amazon_2005,
    scale: 0.2,
    premeetings: false,
    threads: 1,
    budget: 1500,
    top_k: 1000,
    tau: 0.15,
    variants: 2,
};

/// The Web collection at 1/20: 5 180 pages, 82 k links, four times the
/// Amazon density.
pub const WEB_PREMEET: SimSpec = SimSpec {
    preset: web_crawl_2005,
    scale: 0.1,
    premeetings: true,
    threads: 2,
    budget: 600,
    top_k: 1000,
    tau: 0.12,
    variants: 4,
};

struct Data {
    collection: Collection,
    fragments: Vec<Subgraph>,
    truth: Ranking,
}

fn build(spec: &SimSpec, tracer: &Tracer) -> Data {
    let collection = Collection::build(tracer, &(spec.preset)(), spec.scale);
    let fragments = tracer.span("webgraph.crawl_assign", 0, || {
        dataset::crawler_fragments(&collection.cg)
    });
    Data {
        truth: jxp_core::evaluate::centralized_ranking(&collection.truth),
        collection,
        fragments,
    }
}

fn network(spec: &SimSpec, data: &Data, seed: u64, threads: usize) -> Network {
    let config = NetworkConfig {
        jxp: JxpConfig::optimized(),
        strategy: if spec.premeetings {
            SelectionStrategy::PreMeetings(PreMeetingsConfig::default())
        } else {
            SelectionStrategy::Random
        },
        threads,
        ..Default::default()
    };
    Network::new(
        data.fragments.clone(),
        data.collection.cg.graph.num_nodes() as u64,
        config,
        seed ^ 0x5EED,
    )
}

/// The first sample at or below the target footrule.
#[derive(Clone, Copy)]
struct Crossing {
    meetings: u64,
    secs: f64,
    bytes: u64,
}

struct Run {
    unit: Unit,
    net: Network,
    crossing: Option<Crossing>,
    rounds: u64,
    stolen: u64,
}

fn run(spec: &SimSpec, data: &Data, seed: u64, threads: usize, tracer: &Tracer) -> Run {
    let mut net = network(spec, data, seed, threads);
    let (mut secs, mut done, mut completed) = (0.0, 0usize, 0u64);
    let (mut rounds, mut stolen) = (0u64, 0u64);
    let mut footrule = f64::NAN;
    let mut crossing = None;
    while done < spec.budget {
        let step = SAMPLE_EVERY.min(spec.budget - done);
        let start = Instant::now();
        let report = tracer.span("p2pnet.run_parallel", done as u64, || {
            net.run_parallel(step)
        });
        secs += start.elapsed().as_secs_f64();
        done += step;
        completed += report.meetings;
        rounds += report.rounds;
        stolen += report.stolen;
        let ranking = tracer.span("p2pnet.total_ranking", done as u64, || net.total_ranking());
        footrule = tracer.span("pagerank.footrule_distance", done as u64, || {
            metrics::footrule_distance(&ranking, &data.truth, spec.top_k)
        });
        if crossing.is_none() && footrule <= spec.tau {
            crossing = Some(Crossing {
                meetings: done as u64,
                secs,
                bytes: net.bandwidth().total_bytes(),
            });
        }
    }
    let unit = Unit {
        secs,
        ops: completed,
        bytes: net.bandwidth().total_bytes(),
        footrule,
        hash: dataset::score_hash(net.peers().iter().map(JxpPeer::scores)),
        attempted: spec.budget as u64,
        failed: spec.budget as u64 - completed,
        counts: vec![
            ("rounds", rounds),
            ("meetings_to_target", crossing.map_or(0, |c| c.meetings)),
            ("bytes_to_target", crossing.map_or(0, |c| c.bytes)),
        ],
    };
    Run {
        unit,
        net,
        crossing,
        rounds,
        stolen,
    }
}

pub fn run_workload(ctx: &mut Ctx, spec: &SimSpec) {
    let seed = ctx.seed;
    let data = ctx.setup(|tracer| build(spec, tracer));

    // Control: the other thread count must give bit-identical scores.
    let other = 3 - spec.threads;
    let control = run(
        spec,
        &data,
        Ctx::variant_seed(seed, 0),
        other,
        &Tracer::new(false),
    );

    let mut last = None;
    let summary = ctx.measure(spec.variants, |tracer, _, variant| {
        let schedule = Ctx::variant_seed(seed, variant);
        let done = run(spec, &data, schedule, spec.threads, tracer);
        let unit = done.unit.clone();
        last = Some(done);
        unit
    });
    let last = last.expect("at least one repetition ran");
    ctx.check(
        "1-thread and 2-thread runs give the same score hash",
        control.unit.hash == summary.unit.hash,
    );
    ctx.check(
        "every schedule's meeting budget reaches the footrule target",
        summary.footrule <= spec.tau,
    );

    if !ctx.trace {
        return;
    }
    data.collection.report_layers(ctx);
    ctx.layer(
        "webgraph.crawl_assign_s",
        ctx.span_secs("webgraph.crawl_assign"),
    );
    let (serial, parallel) = if spec.threads == 1 {
        (summary.secs, control.unit.secs)
    } else {
        (control.unit.secs, summary.secs)
    };
    ctx.layer("p2pnet.parallel_speedup", serial / parallel);
    ctx.layer("p2pnet.rounds", last.rounds as f64);
    ctx.layer(
        "p2pnet.round_width_mean",
        spec.budget as f64 / last.rounds as f64,
    );
    ctx.layer("pool.steals", last.stolen as f64);
    if let Some(c) = last.crossing {
        ctx.layer("p2pnet.meetings_to_target", c.meetings as f64);
        ctx.layer("p2pnet.time_to_target_s", c.secs);
        ctx.layer("p2pnet.bytes_to_target", c.bytes as f64);
    }
    probe_core(ctx, &data, &last.net, spec.budget);
    // The other probes run once, on the workload that leans on the layer.
    if spec.premeetings {
        probe_synopses_and_pool(ctx, &data);
    } else {
        probe_engine(ctx, spec, &data);
    }
}

/// `core`'s public calls, one at a time, on the peers the workload left
/// behind (their world nodes are as full as the budget makes them).
fn probe_core(ctx: &mut Ctx, data: &Data, net: &Network, budget: usize) {
    let n_total = data.collection.cg.graph.num_nodes() as u64;
    let peers = net.peers();

    let fragments = data.fragments.clone();
    let (fresh, secs) = ctx.timed_span("core.peer_init", 0, || {
        fragments
            .into_iter()
            .map(|f| JxpPeer::new(f, n_total, JxpConfig::optimized()))
            .collect::<Vec<_>>()
    });
    ctx.layer("core.peer_init_s", secs);
    // Algorithm 1's own PageRank run is not part of any meeting.
    let init_iterations: u64 = fresh.iter().map(|p| p.stats().total_pr_iterations).sum();
    let iterations: u64 = peers.iter().map(|p| p.stats().total_pr_iterations).sum();
    ctx.layer(
        "core.pr_iterations_per_meeting",
        (iterations - init_iterations) as f64 / budget as f64,
    );

    let mut payloads = Vec::with_capacity(peers.len());
    let build = time_each(peers.len(), |i| {
        payloads.push(
            ctx.tracer
                .span("core.payload", i as u64, || peers[i].payload()),
        );
    });
    ctx.layer("core.payload_build_us_p50", p50(&build, 1e6));
    let bytes: usize = payloads.iter().map(|p| p.wire_size()).sum();
    ctx.layer(
        "core.payload_bytes_mean",
        bytes as f64 / payloads.len() as f64,
    );
    let entries: usize = peers.iter().map(|p| p.world().len()).sum();
    ctx.layer(
        "core.world_entries_mean",
        entries as f64 / peers.len() as f64,
    );

    // Ten rotations of every peer absorbing another's payload: 1000
    // samples, so the 99th percentile has ten beyond it.
    let mut scratch: Vec<JxpPeer> = peers.to_vec();
    let n = scratch.len();
    let absorb = time_each(10 * n, |k| {
        let (i, shift) = (k % n, 1 + k / n);
        let payload = &payloads[(i + shift) % n];
        ctx.tracer
            .span("core.absorb", k as u64, || scratch[i].absorb(payload));
    });
    ctx.layer("core.absorb_us_p50", p50(&absorb, 1e6));
    ctx.layer("core.absorb_us_p99", p99(&absorb, 1e6));

    let recompute = time_each(n, |i| {
        ctx.tracer
            .span("core.recompute", i as u64, || scratch[i].recompute());
    });
    ctx.layer("core.recompute_us_p50", p50(&recompute, 1e6));

    // The sweep kernel alone: uniform start, no world knowledge.
    let (mut edges, mut secs) = (0.0, 0.0);
    for (i, peer) in peers.iter().enumerate() {
        let graph = peer.graph();
        let topo = LocalTopology::build(graph);
        let local = graph.num_pages();
        let local_links = graph
            .links()
            .filter(|(_, dst)| graph.contains(*dst))
            .count();
        let start_scores = vec![1.0 / n_total as f64; local];
        let world = (n_total as usize - local) as f64 / n_total as f64;
        let start = Instant::now();
        let outcome = ctx.tracer.span("core.extended_pagerank", i as u64, || {
            extended_pagerank(
                &topo,
                n_total as f64,
                &vec![0.0; local],
                &start_scores,
                world,
                &JxpConfig::optimized(),
            )
        });
        secs += start.elapsed().as_secs_f64();
        edges += (local_links * outcome.iterations) as f64;
    }
    ctx.layer("core.kernel_edges_per_s", edges / secs);
}

/// The serial engine's per-meeting latency and the cost of an attached
/// telemetry hub.
fn probe_engine(ctx: &mut Ctx, spec: &SimSpec, data: &Data) {
    let mut net = network(spec, data, ctx.seed, 1);
    let steps = time_each(1000, |k| {
        ctx.tracer.span("p2pnet.step", k as u64, || net.step());
    });
    ctx.layer("p2pnet.step_ms_p50", p50(&steps, 1e3));
    ctx.layer("p2pnet.step_ms_p99", p99(&steps, 1e3));

    // The same slice of the schedule with and without a hub, alternating.
    let slice = spec.budget.min(600);
    let (mut off, mut on, mut hashes) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..6 {
        let with_hub = rep % 2 == 1;
        let mut net = network(spec, data, ctx.seed, spec.threads);
        if with_hub {
            net.attach_telemetry(TelemetryHub::shared());
        }
        let name = if with_hub {
            "telemetry.run_parallel_with_hub"
        } else {
            "p2pnet.run_parallel_slice"
        };
        let (_, secs) = ctx.timed_span(name, rep, || net.run_parallel(slice));
        if with_hub { &mut on } else { &mut off }.push(secs);
        hashes.push(dataset::score_hash(net.peers().iter().map(JxpPeer::scores)));
    }
    ctx.check(
        "telemetry leaves the score hash unchanged",
        stats::counts_repeat(&hashes),
    );
    ctx.layer(
        "telemetry.overhead_ratio",
        stats::median(&on) / stats::median(&off),
    );
}

fn probe_synopses_and_pool(ctx: &mut Ctx, data: &Data) {
    let perms = MipsPermutations::generate(64, 0x4D49_5053);
    let mut synopses = Vec::with_capacity(data.fragments.len());
    let build = time_each(data.fragments.len(), |i| {
        synopses.push(ctx.tracer.span("synopses.compute", i as u64, || {
            PeerSynopses::compute(&data.fragments[i], &perms)
        }));
    });
    ctx.layer("synopses.build_us_p50", p50(&build, 1e6));
    let n = synopses.len();
    let score = time_each(n * 10, |k| {
        let (a, b) = (&synopses[k % n], &synopses[(k + 1 + k / n) % n]);
        std::hint::black_box(ctx.tracer.span("synopses.premeet_score", k as u64, || {
            a.inlink_containment_into(b) + a.local_overlap(b)
        }));
    });
    ctx.layer("synopses.premeet_score_us_p50", p50(&score, 1e6));

    let empty = time_each(200, |k| {
        ctx.tracer.span("pool.run_dealt", k as u64, || {
            jxp_pool::global().run_dealt(2, vec![(); 50], |()| ())
        });
    });
    ctx.layer("pool.empty_round_us_p50", p50(&empty, 1e6));
}
