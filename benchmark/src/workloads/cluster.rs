//! `cluster_reactor` and `cluster_durable`: `node::run_cluster`, the
//! networked runtime, over real sockets or with a durable state directory.

use crate::dataset;
use crate::harness::{p50, time_each, Ctx, Unit};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::Collection;
use jxp_core::{snapshot, JxpConfig, JxpPeer};
use jxp_node::{
    run_cluster, ClusterConfig, ClusterReport, FrameHandler, HandlerService, JxpNode,
    LoopbackNetwork, NodeId, ReactorTransport, RetryPolicy, TransportKind,
};
use jxp_reactor::{Reactor, ReactorConfig, ReactorMetrics};
use jxp_store::{DirStore, StateStore, WalKind, WalRecord};
use jxp_synopses::mips::MipsPermutations;
use jxp_webgraph::generators::amazon_2005;
use jxp_webgraph::Subgraph;
use jxp_wire::{decode_frame, encode_frame, Frame, QueryPayload, QueryReplyPayload};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Amazon at a fifth of the paper's size, one node per crawler fragment.
const SCALE: f64 = 0.2;

/// One cluster workload.
#[derive(Clone, Copy)]
pub struct ClusterSpec {
    transport: TransportKind,
    threads: usize,
    durable: bool,
    meetings: usize,
    /// `run_cluster` reports footrule over the top 100.
    tau: f64,
    /// Meeting schedules per pass (see `Ctx::measure`).
    variants: u64,
}

/// Real localhost sockets on the reactor: one driver thread, one loop
/// thread.
pub const REACTOR: ClusterSpec = ClusterSpec {
    transport: TransportKind::Reactor,
    threads: 1,
    durable: false,
    meetings: 800,
    tau: 0.08,
    variants: 2,
};

/// Loopback with every meeting journaled; checkpoints stay as a crash
/// would leave them, so the resume replays a WAL tail.
pub const DURABLE: ClusterSpec = ClusterSpec {
    transport: TransportKind::Loopback,
    threads: 2,
    durable: true,
    meetings: 500,
    tau: 0.10,
    variants: 4,
};

struct Data {
    collection: Collection,
    fragments: Vec<Subgraph>,
}

fn config(spec: &ClusterSpec, seed: u64, state_dir: Option<PathBuf>) -> ClusterConfig {
    ClusterConfig {
        meetings: spec.meetings,
        transport: spec.transport,
        seed,
        threads: spec.threads,
        state_dir,
        checkpoint_every: 8,
        checkpoint_on_exit: false,
        ..ClusterConfig::default()
    }
}

fn cluster(
    data: &Data,
    config: &ClusterConfig,
    tracer: &Tracer,
    span: &'static str,
    id: u64,
) -> (ClusterReport, f64) {
    let fragments = data.fragments.clone();
    let n_total = data.collection.cg.graph.num_nodes() as u64;
    let start = Instant::now();
    let report = tracer.span(span, id, || {
        run_cluster(
            fragments,
            n_total,
            JxpConfig::optimized(),
            config,
            Some(&data.collection.truth),
        )
    });
    (report, start.elapsed().as_secs_f64())
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

struct Run {
    unit: Unit,
    inflight_peak: u64,
    recover_secs: f64,
    state_bytes: u64,
}

fn run(
    scratch: &Path,
    spec: &ClusterSpec,
    data: &Data,
    seed: u64,
    tracer: &Tracer,
    rep: u64,
) -> Run {
    let state_dir = spec.durable.then(|| scratch.join(format!("state-{rep}")));
    let cfg = config(spec, seed, state_dir.clone());
    let (report, secs) = cluster(data, &cfg, tracer, "node.run_cluster", rep);
    let mut unit = Unit {
        secs,
        ops: report.meetings_completed,
        bytes: report.bytes_total,
        footrule: report.footrule.unwrap_or(f64::NAN),
        hash: report.score_hash,
        attempted: report.meetings_attempted,
        failed: report.meetings_attempted - report.meetings_completed,
        counts: vec![("meetings_failed", report.meetings_failed)],
    };
    let (mut recover_secs, mut state_bytes) = (0.0, 0);
    if let Some(dir) = &state_dir {
        // Resume from the state the run left: every meeting is already
        // journaled, so this is checkpoint load + WAL replay + classify.
        state_bytes = dir_bytes(dir);
        let (resumed, secs) = cluster(data, &cfg, tracer, "store.resume", rep);
        recover_secs = secs;
        unit.attempted += 1;
        if resumed.score_hash != report.score_hash {
            unit.failed += 1;
        }
        unit.counts.push(("resumed_hash", resumed.score_hash));
        unit.counts.push(("state_bytes", state_bytes));
        // The directory stays until the run ends (the scratch directory
        // goes then): deleting 26 MB between repetitions makes the file
        // system trim while the next one is being timed.
    }
    Run {
        unit,
        inflight_peak: report.inflight_peak.unwrap_or(0),
        recover_secs,
        state_bytes,
    }
}

pub fn run_workload(ctx: &mut Ctx, spec: &ClusterSpec) {
    let seed = ctx.seed;
    let data = ctx.setup(|tracer| {
        let collection = Collection::build(tracer, &amazon_2005(), SCALE);
        let fragments = tracer.span("webgraph.crawl_assign", 0, || {
            dataset::crawler_fragments(&collection.cg)
        });
        Data {
            collection,
            fragments,
        }
    });

    // Control: the same schedule on plain loopback, nothing durable.
    let control_spec = ClusterSpec {
        transport: TransportKind::Loopback,
        durable: false,
        ..*spec
    };
    let (control, control_secs) = cluster(
        &data,
        &config(&control_spec, Ctx::variant_seed(seed, 0), None),
        &Tracer::new(false),
        "node.run_cluster",
        0,
    );

    let scratch = ctx.scratch.clone();
    let mut recover = Vec::new();
    let mut last = None;
    let summary = ctx.measure(spec.variants, |tracer, rep, variant| {
        let schedule = Ctx::variant_seed(seed, variant);
        let done = run(&scratch, spec, &data, schedule, tracer, rep);
        recover.push(done.recover_secs);
        let unit = done.unit.clone();
        last = Some(done);
        unit
    });
    let last = last.expect("at least one repetition ran");
    ctx.check(
        "the loopback, non-durable control gives the same score hash",
        control.score_hash == summary.unit.hash,
    );
    ctx.check(
        "every attempted meeting completed",
        summary.unit.ops == spec.meetings as u64,
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
    if spec.durable {
        ctx.layer("store.durable_share_s", summary.secs - control_secs);
        ctx.layer("store.recover_s", stats::median(&recover));
        ctx.layer("store.state_bytes", last.state_bytes as f64);
        probe_store(ctx, &data);
    } else {
        ctx.layer("node.loopback_run_s", control_secs);
        ctx.layer("reactor.transport_share_s", summary.secs - control_secs);
        ctx.layer("reactor.inflight_peak", last.inflight_peak as f64);
        probe_node_and_wire(ctx, &data);
        probe_small_frames(ctx);
    }
}

fn nodes(data: &Data) -> Vec<Arc<JxpNode>> {
    let perms = MipsPermutations::generate(64, 0x5a5a);
    let n_total = data.collection.cg.graph.num_nodes() as u64;
    data.fragments
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let peer = JxpPeer::new(f.clone(), n_total, JxpConfig::optimized());
            Arc::new(JxpNode::new(i as NodeId, peer, &perms))
        })
        .collect()
}

/// One blocking meeting over loopback, then the codec on the frames
/// those meetings produce.
fn probe_node_and_wire(ctx: &mut Ctx, data: &Data) {
    let nodes = nodes(data);
    let net = LoopbackNetwork::new();
    for node in &nodes {
        net.register(node.id(), Arc::clone(node) as Arc<dyn FrameHandler>);
    }
    let (n, retry) = (nodes.len(), RetryPolicy::default());
    let mut failed = 0;
    let meet = time_each(3 * n, |k| {
        let target = ((k + 1 + k / n) % n) as NodeId;
        let outcome = ctx.tracer.span("node.meet", k as u64, || {
            nodes[k % n].meet(target, &net, &retry)
        });
        failed += u64::from(outcome.is_err());
    });
    ctx.check("every probe meeting completed", failed == 0);
    ctx.layer("node.meet_us_p50", p50(&meet, 1e6));

    let frames: Vec<Frame> = nodes
        .iter()
        .map(|node| Frame::MeetRequest(node.current_payload()))
        .collect();
    let mut encoded = Vec::with_capacity(frames.len());
    let start = Instant::now();
    for (i, frame) in frames.iter().enumerate() {
        encoded.push(
            ctx.tracer
                .span("wire.encode_frame", i as u64, || encode_frame(frame)),
        );
    }
    let encode_secs = start.elapsed().as_secs_f64();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let start = Instant::now();
    let mut intact = true;
    for (i, (buf, frame)) in encoded.iter().zip(&frames).enumerate() {
        let decoded = ctx
            .tracer
            .span("wire.decode_frame", i as u64, || decode_frame(buf));
        intact &= matches!(decoded, Ok((ref f, used)) if f == frame && used == buf.len());
    }
    let decode_secs = start.elapsed().as_secs_f64();
    ctx.check("every frame decodes to what was encoded", intact);
    ctx.layer("wire.encode_mb_per_s", bytes as f64 / 1e6 / encode_secs);
    ctx.layer("wire.decode_mb_per_s", bytes as f64 / 1e6 / decode_secs);
    ctx.layer("wire.frame_bytes_mean", bytes as f64 / frames.len() as f64);
}

/// Answers every query with an empty hit list.
struct EmptyAnswers;

impl FrameHandler for EmptyAnswers {
    fn handle(&self, frame: Frame) -> Option<Frame> {
        match frame {
            Frame::QueryRequest(q) => Some(Frame::QueryReply(QueryReplyPayload {
                node_id: 0,
                query_id: q.query_id,
                epoch: 0,
                cached: false,
                hits: Vec::new(),
            })),
            _ => None,
        }
    }
}

/// Small-frame request/reply over the reactor with 1 and with 16
/// requests in flight. Unstable across process launches (the loop's
/// idle sleep races the next submit), which is why it is not a workload.
fn probe_small_frames(ctx: &mut Ctx) {
    let reactor = Reactor::start(ReactorConfig::default(), ReactorMetrics::detached());
    let transport = ReactorTransport::new(reactor.handle());
    let service = Arc::new(HandlerService(
        Arc::new(EmptyAnswers) as Arc<dyn FrameHandler>
    ));
    let addr = reactor
        .handle()
        .listen(service)
        .expect("bind reactor listener");
    transport.add_route(0, addr);
    let query = |id: u64| {
        Frame::QueryRequest(QueryPayload {
            query_id: id,
            k: 10,
            terms: vec![1, 2],
        })
    };
    let mut failed = 0u64;
    let rtt = time_each(2000, |k| {
        let reply = ctx.tracer.span("reactor.request", k as u64, || {
            transport.submit(0, &query(k as u64)).map(|t| t.wait())
        });
        failed += u64::from(!matches!(reply, Ok(Ok(Frame::QueryReply(_)))));
    });
    ctx.layer("reactor.small_frame_rtt_us_p50", p50(&rtt, 1e6));

    const WINDOW: usize = 16;
    const BATCHES: usize = 500;
    let start = Instant::now();
    for batch in 0..BATCHES {
        ctx.tracer.span("reactor.request_window", batch as u64, || {
            let tickets: Vec<_> = (0..WINDOW)
                .map(|i| transport.submit(0, &query((batch * WINDOW + i) as u64)))
                .collect();
            for ticket in tickets {
                let reply = ticket.map(|t| t.wait());
                failed += u64::from(!matches!(reply, Ok(Ok(Frame::QueryReply(_)))));
            }
        });
    }
    let secs = start.elapsed().as_secs_f64();
    ctx.layer(
        "reactor.small_frame_qps_w16",
        (WINDOW * BATCHES) as f64 / secs,
    );
    ctx.check("every small-frame request was answered", failed == 0);
}

/// `DirStore`'s three operations on the records a node really journals.
fn probe_store(ctx: &mut Ctx, data: &Data) {
    let nodes = nodes(data);
    let store = DirStore::open(ctx.scratch.join("store-probe")).expect("open probe store");
    let payloads: Vec<_> = nodes.iter().map(|n| n.current_payload()).collect();
    let n = payloads.len();
    let mut errors = 0u64;

    let append = time_each(2 * n, |k| {
        let record = WalRecord {
            seq: (k / n + 1) as u64,
            kind: WalKind::Serve,
            inbound: payloads[k % n].clone(),
            outbound: Some(payloads[(k + 1) % n].clone()),
        };
        let key = format!("node-{}", k % n);
        let done = ctx
            .tracer
            .span("store.append", k as u64, || store.append(&key, &record));
        errors += u64::from(done.is_err());
    });
    ctx.layer("store.wal_append_us_p50", p50(&append, 1e6));

    let snapshots: Vec<_> = nodes.iter().map(|n| n.with_peer(snapshot::save)).collect();
    let bytes: usize = snapshots.iter().map(|s| s.len()).sum();
    ctx.layer("store.snapshot_bytes_mean", bytes as f64 / n as f64);
    // Checkpoint at sequence 0 so the two WAL records stay to be replayed.
    let checkpoint = time_each(n, |i| {
        let key = format!("node-{i}");
        let done = ctx.tracer.span("store.checkpoint", i as u64, || {
            store.checkpoint(&key, 0, &snapshots[i])
        });
        errors += u64::from(done.is_err());
    });
    ctx.layer("store.checkpoint_ms_p50", p50(&checkpoint, 1e3));

    let load = time_each(n, |i| {
        let key = format!("node-{i}");
        let loaded = ctx.tracer.span("store.load", i as u64, || store.load(&key));
        errors += u64::from(!matches!(loaded, Ok(Some(ref r)) if r.replayed == 2));
    });
    ctx.layer("store.load_ms_p50", p50(&load, 1e3));
    ctx.check(
        "every store operation succeeded and replayed its records",
        errors == 0,
    );
}
