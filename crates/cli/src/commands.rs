//! Subcommand implementations.

use crate::args::ParsedArgs;
use jxp_core::selection::{PreMeetingsConfig, SelectionStrategy};
use jxp_core::{CombineMode, JxpConfig, MergeMode};
use jxp_p2pnet::assign::{assign_by_crawlers, minerva_fragments, CrawlerParams};
use jxp_p2pnet::{Network, NetworkConfig};
use jxp_pagerank::{metrics, pagerank, PageRankConfig};
use jxp_serve::contiguous_fragments;
use jxp_telemetry::{TelemetryHub, TelemetrySnapshot};
use jxp_webgraph::generators::{amazon_2005, web_crawl_2005, CategorizedGraph, DatasetPreset};
use jxp_webgraph::{io, Subgraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;

/// Write a telemetry snapshot as JSON (the `jxp-cli metrics` input
/// format) to `path`.
fn write_metrics(path: &str, snapshot: &TelemetrySnapshot) -> Result<(), String> {
    std::fs::write(path, snapshot.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    outln!(
        "metrics: wrote {} counters, {} gauges, {} histograms, {} events to {path}",
        snapshot.metrics.counters.len(),
        snapshot.metrics.gauges.len(),
        snapshot.metrics.histograms.len(),
        snapshot.events.len()
    );
    Ok(())
}

fn preset(args: &ParsedArgs) -> Result<DatasetPreset, String> {
    match args.get_choice("dataset", &["amazon", "web"], "amazon")? {
        "web" => Ok(web_crawl_2005()),
        _ => Ok(amazon_2005()),
    }
}

/// `jxp-cli generate` — synthesize a dataset and write it to disk as a
/// segment directory (the out-of-core `jxp-segstore` format), plus an
/// optional text edge list.
pub fn generate(args: &ParsedArgs) -> Result<(), String> {
    use jxp_segstore::segment::MAX_SEGMENT_NODES;

    let out = args.require("out")?;
    let segment_nodes = args.get_count("segment-nodes")?.unwrap_or(4096);
    if segment_nodes > MAX_SEGMENT_NODES {
        return Err(format!(
            "--segment-nodes must be at most {MAX_SEGMENT_NODES}, got {segment_nodes}"
        ));
    }
    let cg = generate_graph_with_scale(args, 0.1)?;
    let manifest = jxp_segstore::write_segments(&cg.graph, Path::new(out), segment_nodes)
        .map_err(|e| format!("writing {out}: {e}"))?;
    outln!(
        "wrote {out}: {} segments of up to {} nodes ({} encoded bytes), {} categories",
        manifest.segments.len(),
        manifest.nodes_per_segment,
        manifest.total_encoded_bytes(),
        cg.num_categories
    );
    outln!(
        "  {}",
        jxp_webgraph::analysis::GraphSummary::compute(&cg.graph)
    );
    if let Some(el) = args.get("edge-list") {
        let mut file = std::fs::File::create(el).map_err(|e| format!("creating {el}: {e}"))?;
        io::write_edge_list(&cg.graph, &mut file).map_err(|e| format!("writing {el}: {e}"))?;
        outln!("wrote {el} (text edge list)");
    }
    Ok(())
}

/// `jxp-cli pagerank` — centralized PageRank over a segment directory
/// written by `generate`. Every segment is CRC-checked first, so a
/// corrupt directory is refused by name instead of failing mid-sweep.
pub fn pagerank_cmd(args: &ParsedArgs) -> Result<(), String> {
    use jxp_segstore::{verify_dir, SegmentedGraph};
    use jxp_webgraph::GraphSource;

    let dir = args.require("graph")?;
    let epsilon: f64 = args.get_or("epsilon", 0.85)?;
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(format!("--epsilon must be in (0, 1), got {epsilon}"));
    }
    let top: usize = args.get_or("top", 10)?;
    let threads: usize = args.get_or("threads", 0)?;
    let report = verify_dir(Path::new(dir)).map_err(|e| format!("reading {dir}: {e}"))?;
    if let Some(bad) = report.segments.iter().find(|s| s.error.is_some()) {
        return Err(format!("{dir}: segment {} is corrupt", bad.index));
    }
    let g = SegmentedGraph::open(Path::new(dir)).map_err(|e| format!("reading {dir}: {e}"))?;
    if g.num_nodes() == 0 {
        return Err(format!("{dir}: the graph has no pages"));
    }
    let cfg = PageRankConfig {
        epsilon,
        threads,
        ..Default::default()
    };
    let result = pagerank(&g, &cfg);
    outln!(
        "{} pages, {} links — power iteration {} after {} iterations",
        g.num_nodes(),
        g.num_edges(),
        if result.converged() {
            "converged"
        } else {
            "hit the iteration cap"
        },
        result.iterations()
    );
    outln!("{:>6} {:>10} {:>12}", "rank", "page", "score");
    for (rank, p) in result.top_k(top).into_iter().enumerate() {
        outln!("{:>6} {:>10} {:>12.6}", rank + 1, p.0, result.score(p));
    }
    Ok(())
}

/// `jxp-cli simulate` — run a JXP network and report convergence.
pub fn simulate(args: &ParsedArgs) -> Result<(), String> {
    let seed: u64 = args.get_or("seed", 42)?;
    let meetings: usize = args.get_or("meetings", 600)?;
    let sample = args.get_count("sample")?.unwrap_or((meetings / 10).max(1));
    let top = args.get_count("top")?;
    let merge = match args.get_choice("merge", &["light", "full"], "light")? {
        "full" => MergeMode::Full,
        _ => MergeMode::LightWeight,
    };
    let combine = match args.get_choice("combine", &["max", "avg"], "max")? {
        "avg" => CombineMode::Average,
        _ => CombineMode::TakeMax,
    };
    let strategy = match args.get_choice("strategy", &["random", "premeetings"], "random")? {
        "premeetings" => SelectionStrategy::PreMeetings(PreMeetingsConfig::default()),
        _ => SelectionStrategy::Random,
    };
    let estimate_n = args.get_choice("estimate-n", &["yes", "no"], "no")? == "yes";
    let threads: usize = args.get_or("threads", 0)?;
    let metrics_out = args.get("metrics-out");
    let cg = generate_graph_with_scale(args, 0.05)?;
    let n = cg.graph.num_nodes();
    let top = top.unwrap_or((n / 20).max(10));
    let fragments = assign_by_crawlers(
        &cg,
        &CrawlerParams {
            peers_per_category: 10,
            seeds_per_peer: 3,
            max_depth: 5,
            max_pages: Some((n / (10 * cg.num_categories)).max(10)),
            max_pages_jitter: 0.8,
            off_category_follow_prob: 0.5,
        },
        &mut StdRng::seed_from_u64(seed),
    );
    let truth = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
    let truth_ranking = jxp_core::evaluate::centralized_ranking(&truth);
    let jxp = JxpConfig {
        merge,
        combine,
        ..JxpConfig::default()
    };
    outln!(
        "{} pages, {} peers, {merge:?} merging, {combine:?} combining",
        n,
        fragments.len()
    );
    let mut net = Network::new(
        fragments,
        n as u64,
        NetworkConfig {
            jxp,
            strategy,
            estimate_n,
            threads,
            ..Default::default()
        },
        seed,
    );
    let hub = metrics_out.is_some().then(TelemetryHub::shared);
    if let Some(hub) = &hub {
        net.attach_telemetry(Arc::clone(hub));
        // With a hub attached the exported metrics include per-peer
        // convergence: jxp_sim_peer_l1_distance{peer="i"}.
        net.attach_convergence_truth(&truth);
    }
    if estimate_n {
        outln!("peers estimate N by FM-sketch gossip (no global knowledge)");
    }
    outln!(
        "round-based meeting engine, {} worker threads (results are \
         thread-count-invariant)",
        jxp_pagerank::par::resolve_threads(threads)
    );
    outln!(
        "{:>9} {:>10} {:>14} {:>10}",
        "meetings",
        "footrule",
        "linear error",
        "MB"
    );
    let mut done = 0;
    while done < meetings {
        let step = sample.min(meetings - done);
        net.run_parallel(step);
        done += step;
        let r = net.total_ranking();
        outln!(
            "{:>9} {:>10.4} {:>14.3e} {:>10.2}",
            net.meetings(),
            metrics::footrule_distance(&r, &truth_ranking, top),
            metrics::linear_score_error(&r, &truth_ranking, top),
            net.bandwidth().total_bytes() as f64 / 1e6
        );
    }
    if let (Some(path), Some(hub)) = (metrics_out, &hub) {
        write_metrics(path, &hub.snapshot())?;
    }
    Ok(())
}

fn generate_graph_with_scale(
    args: &ParsedArgs,
    default_scale: f64,
) -> Result<CategorizedGraph, String> {
    let preset = preset(args)?;
    let scale: f64 = args.get_or("scale", default_scale)?;
    if !(0.0..=1.0).contains(&scale) || scale == 0.0 {
        return Err(format!("--scale must be in (0, 1], got {scale}"));
    }
    Ok(if scale >= 1.0 {
        preset.generate()
    } else {
        preset.generate_scaled(scale)
    })
}

/// `jxp-cli cluster` — run N networked nodes through M meetings over
/// the wire codec (loopback or the localhost-socket reactor) and report
/// convergence plus measured traffic.
pub fn cluster(args: &ParsedArgs) -> Result<(), String> {
    use jxp_node::{ClusterConfig, TransportKind};

    let peers: usize = args.get_or("peers", 8)?;
    if peers < 2 {
        return Err(format!("--peers must be at least 2, got {peers}"));
    }
    let meetings: usize = args.get_or("meetings", 200)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let transport: TransportKind = args
        .get_choice("transport", &["loopback", "reactor"], "loopback")?
        .parse()?;
    let premeetings = args.get_choice("premeetings", &["yes", "no"], "no")? == "yes";
    let loss: f64 = args.get_or("loss", 0.0)?;
    let threads: usize = args.get_or("threads", 0)?;
    let metrics_out = args.get("metrics-out");
    let state_dir = args.get("state-dir").map(std::path::PathBuf::from);
    let checkpoint_every: u64 = args.get_or("checkpoint-every", 8)?;
    let round_delay_ms: u64 = args.get_or("round-delay-ms", 0)?;
    let metrics_listen = args.get("metrics-listen").map(String::from);

    let config = ClusterConfig {
        meetings,
        transport,
        seed,
        premeetings,
        loss,
        threads,
        hub: metrics_out.is_some().then(TelemetryHub::shared),
        state_dir,
        checkpoint_every,
        round_delay: (round_delay_ms > 0).then(|| std::time::Duration::from_millis(round_delay_ms)),
        metrics_listen,
        ..ClusterConfig::default()
    };
    config.validate()?;
    if let Some(dir) = config.state_dir.as_deref().filter(|dir| dir.exists()) {
        refuse_foreign_state(dir)?;
    }

    let cg = generate_graph_with_scale(args, 0.05)?;
    let n = cg.graph.num_nodes();
    let top: usize = args.get_or("top", (n / 20).max(10))?;
    let fragments = contiguous_fragments(&cg, peers);
    let truth = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
    outln!(
        "{} pages, {} nodes over {:?}, {} meetings, {} worker threads",
        n,
        fragments.len(),
        transport,
        meetings,
        jxp_pagerank::par::resolve_threads(threads),
    );
    if loss > 0.0 {
        outln!("losing each meeting frame and each reply with probability {loss}");
    }
    let report = jxp_node::run_cluster(
        fragments,
        n as u64,
        JxpConfig::default(),
        &config,
        Some(&truth),
    );
    outln!(
        "meetings: {} attempted, {} completed, {} failed, {} retries",
        report.meetings_attempted,
        report.meetings_completed,
        report.meetings_failed,
        report.retries
    );
    outln!(
        "traffic:  {} wire bytes total ({:.2} MB), exact codec lengths",
        report.bytes_total,
        report.bytes_total as f64 / 1e6
    );
    if let Some(addr) = report.metrics_addr {
        outln!("metrics endpoint served scrapes on http://{addr}/metrics during the run");
    }
    if let Some(peak) = report.inflight_peak {
        outln!("peak in-flight meetings: {peak}");
    }
    if let Some(footrule) = report.footrule {
        outln!("footrule@{top} vs centralized PageRank: {footrule:.4}");
    }
    outln!("score hash: {:016x}", report.score_hash);
    outln!(
        "{:>5} {:>9} {:>9} {:>7} {:>8} {:>12} {:>12}",
        "node",
        "initiated",
        "served",
        "failed",
        "retries",
        "bytes in",
        "bytes out"
    );
    for (i, s) in report.per_node.iter().enumerate() {
        outln!(
            "{:>5} {:>9} {:>9} {:>7} {:>8} {:>12} {:>12}",
            i,
            s.meetings_attempted,
            s.meetings_served,
            s.meetings_failed,
            s.retries,
            s.bytes_in,
            s.bytes_out
        );
    }
    if let (Some(path), Some(hub)) = (metrics_out, &config.hub) {
        write_metrics(path, &hub.snapshot())?;
    }
    if report.meetings_failed > 0 && report.meetings_completed == 0 {
        return Err("every meeting failed — transport is broken".to_string());
    }
    Ok(())
}

/// Refuse to resume over a state directory written by another build — a
/// journal of another wire protocol, or a CRC-clean checkpoint of another
/// snapshot version — as one error naming both versions, before
/// `run_cluster` (which can only panic) meets state it cannot read.
fn refuse_foreign_state(dir: &Path) -> Result<(), String> {
    use jxp_store::{check_snapshot_version, check_wal_protocol, decode_checkpoint};
    use jxp_store::{DirStore, StateStore};

    let opening = |e| format!("opening state dir {}: {e}", dir.display());
    let store = DirStore::open(dir).map_err(opening)?;
    for key in store.keys().map_err(opening)? {
        let raw = store.read_raw(&key).map_err(opening)?;
        let foreign = |e| format!("{}/{key}: {e}", dir.display());
        check_wal_protocol(&raw.wal).map_err(foreign)?;
        let checkpoints = raw.current.iter().chain(&raw.previous);
        for ckpt in checkpoints.filter_map(|b| decode_checkpoint(b).ok()) {
            check_snapshot_version(&ckpt).map_err(foreign)?;
        }
    }
    Ok(())
}

/// One checkpoint file as `checkpoint inspect|verify` prints it: the
/// container's sequence and size, then the snapshot's version and size,
/// so a state directory another build wrote shows why it is refused.
pub(crate) fn describe_checkpoint(which: &str, bytes: Option<&[u8]>) -> String {
    let label = format!("{which} checkpoint");
    let Some(b) = bytes else {
        return format!("{label}: absent");
    };
    match jxp_store::decode_checkpoint(b) {
        Ok(c) => {
            let snapshot = match jxp_core::snapshot::version(&c.snapshot) {
                Some(v) => format!("JXPP v{v} snapshot"),
                None => "no JXPP snapshot".to_string(),
            };
            format!(
                "{label}: ok (seq {}, {} bytes; {snapshot} of {} bytes)",
                c.seq,
                b.len(),
                c.snapshot.len()
            )
        }
        Err(e) => format!("{label}: CORRUPT ({e})"),
    }
}

/// `jxp-cli checkpoint inspect|verify` — examine a `--state-dir`
/// written by the cluster command. `inspect` prints each node's
/// checkpoints (sequence, size, snapshot version and size) and what
/// recovery found; `verify` additionally scans the WAL and fails —
/// nonzero exit — when any node cannot be recovered to a consistent
/// state.
pub fn checkpoint(action: &str, args: &ParsedArgs) -> Result<(), String> {
    use jxp_store::{scan_wal, DirStore, StateStore};

    if !matches!(action, "inspect" | "verify") {
        return Err(format!(
            "checkpoint: unknown action {action:?} (expected inspect|verify)"
        ));
    }
    let state_dir = args.require("state-dir")?;
    let store =
        DirStore::open(state_dir).map_err(|e| format!("opening state dir {state_dir}: {e}"))?;
    let keys: Vec<String> = match (args.get("key"), args.get("node")) {
        (Some(key), _) => vec![key.to_string()],
        (None, Some(node)) => vec![format!("node-{node}")],
        (None, None) => store
            .keys()
            .map_err(|e| format!("listing {state_dir}: {e}"))?,
    };
    if keys.is_empty() {
        return Err(format!("no node state found under {state_dir}"));
    }

    let mut broken = 0usize;
    for key in &keys {
        let raw = match store.read_raw(key) {
            Ok(raw) => raw,
            Err(e) => {
                outln!("{key}: unreadable: {e}");
                broken += 1;
                continue;
            }
        };
        outln!("{key}:");
        for (which, bytes) in [("current", &raw.current), ("previous", &raw.previous)] {
            outln!("  {}", describe_checkpoint(which, bytes.as_deref()));
        }
        if action == "verify" {
            let scan = scan_wal(&raw.wal);
            outln!(
                "  wal: {} records, {} of {} bytes consumed{}",
                scan.records.len(),
                scan.consumed,
                raw.wal.len(),
                if scan.torn { " (torn tail)" } else { "" }
            );
        }
        match store.load(key) {
            Ok(Some(rec)) => {
                outln!(
                    "{key}: seq {} (checkpoint {} + {} replayed){}{} — {} pages",
                    rec.seq,
                    rec.checkpoint_seq,
                    rec.replayed,
                    if rec.used_fallback {
                        ", recovered via previous checkpoint"
                    } else {
                        ""
                    },
                    if rec.torn_tail { ", torn wal tail" } else { "" },
                    rec.peer.num_pages()
                );
            }
            Ok(None) => outln!("{key}: no state"),
            Err(e) => {
                outln!("{key}: UNRECOVERABLE: {e}");
                broken += 1;
            }
        }
    }
    if broken > 0 {
        return Err(format!("{broken} of {} node(s) unrecoverable", keys.len()));
    }
    if action == "verify" {
        outln!("all {} node(s) recoverable", keys.len());
    }
    Ok(())
}

/// `jxp-cli graph inspect|verify` — examine a disk-backed segmented
/// webgraph (the out-of-core format behind `jxp-segstore`, written by
/// `generate`). `inspect` prints the manifest and the per-segment
/// layout; `verify` decodes every container — full CRC and codec
/// validation — and fails with a nonzero exit when any segment is
/// corrupt, mirroring `checkpoint verify`.
pub fn graph_cmd(action: &str, args: &ParsedArgs) -> Result<(), String> {
    use jxp_segstore::{verify_dir, SegmentedGraph};
    use jxp_webgraph::GraphSource;

    match action {
        "inspect" => {
            let dir = args.require("dir")?;
            let sg =
                SegmentedGraph::open(Path::new(dir)).map_err(|e| format!("opening {dir}: {e}"))?;
            let m = sg.manifest();
            outln!(
                "{dir}: {} nodes, {} edges, {} segments of up to {} nodes, \
                 {} encoded bytes",
                m.num_nodes,
                m.num_edges,
                m.segments.len(),
                m.nodes_per_segment,
                m.total_encoded_bytes()
            );
            outln!(
                "{:>7} {:>12} {:>10} {:>10} {:>12}",
                "segment",
                "first node",
                "nodes",
                "out-links",
                "bytes"
            );
            for (i, e) in m.segments.iter().enumerate() {
                outln!(
                    "{:>7} {:>12} {:>10} {:>10} {:>12}",
                    i,
                    m.segment_start(i),
                    e.nodes,
                    e.fwd_edges,
                    e.encoded_len
                );
            }
            outln!("dangling pages: {}", sg.dangling().len());
            Ok(())
        }
        "verify" => {
            let dir = args.require("dir")?;
            let report = verify_dir(Path::new(dir)).map_err(|e| format!("verifying {dir}: {e}"))?;
            for s in &report.segments {
                match &s.error {
                    Some(e) => outln!("segment {}: CORRUPT ({e})", s.index),
                    None => outln!(
                        "segment {}: ok ({} nodes, {} bytes)",
                        s.index,
                        s.nodes,
                        s.encoded_len
                    ),
                }
            }
            let broken = report.broken();
            if broken > 0 {
                return Err(format!(
                    "{broken} of {} segment(s) corrupt",
                    report.segments.len()
                ));
            }
            outln!(
                "all {} segment(s) verified ({} nodes, {} edges)",
                report.segments.len(),
                report.manifest.num_nodes,
                report.manifest.num_edges
            );
            Ok(())
        }
        other => Err(format!(
            "graph: unknown action {other:?} (expected inspect|verify)"
        )),
    }
}

/// `jxp-cli metrics` — render a saved telemetry snapshot.
pub fn metrics_cmd(args: &ParsedArgs) -> Result<(), String> {
    let path = args.require("in")?;
    let format = args.get_choice("format", &["table", "prom", "json"], "table")?;
    let raw = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let snapshot =
        TelemetrySnapshot::from_json(&raw).map_err(|e| format!("parsing {path}: {e}"))?;
    match format {
        "prom" => out!("{}", snapshot.to_prometheus()),
        "json" => outln!("{}", snapshot.to_json()),
        _ => out!("{}", snapshot.render_table()),
    }
    Ok(())
}

/// `jxp-cli node` — single-node socket demo: serve one fragment on an
/// ephemeral localhost port (a reactor listener), then drive a second
/// in-process node through a real hello + synopsis probe + meeting
/// against it over the socket.
pub fn node(args: &ParsedArgs) -> Result<(), String> {
    use jxp_core::JxpPeer;
    use jxp_node::{HandlerService, JxpNode, ReactorTransport, RetryPolicy};
    use jxp_reactor::{Reactor, ReactorConfig, ReactorMetrics};
    use jxp_synopses::mips::MipsPermutations;

    let seed: u64 = args.get_or("seed", 42)?;
    let duration: u64 = args.get_or("duration", 0)?;
    let cg = generate_graph_with_scale(args, 0.02)?;
    let n = cg.graph.num_nodes();
    let frags = contiguous_fragments(&cg, 2);
    if frags.len() < 2 {
        return Err("graph too small to split; raise --scale".to_string());
    }
    let mut frags = frags.into_iter();
    let perms = MipsPermutations::generate(64, seed);

    let server_node = Arc::new(JxpNode::new(
        0,
        JxpPeer::new(frags.next().unwrap(), n as u64, JxpConfig::default()),
        &perms,
    ));
    let reactor = Reactor::start(ReactorConfig::default(), ReactorMetrics::detached());
    let addr = reactor
        .handle()
        .listen(Arc::new(HandlerService(Arc::clone(&server_node) as _)))
        .map_err(|e| format!("binding localhost: {e}"))?;
    outln!(
        "node 0 serving {} pages on {addr}",
        server_node.with_peer(|p| p.num_pages()),
    );

    let client = JxpNode::new(
        1,
        JxpPeer::new(frags.next().unwrap(), n as u64, JxpConfig::default()),
        &perms,
    );
    let transport = ReactorTransport::new(reactor.handle());
    transport.add_route(0, addr);
    let policy = RetryPolicy::default();
    let (peer_id, peer_pages) = client
        .hello(0, &transport, &policy)
        .map_err(|e| format!("hello failed: {e}"))?;
    outln!("hello -> node {peer_id} ({peer_pages} pages)");
    let remote_syn = client
        .fetch_synopses(0, &transport, &policy)
        .map_err(|e| format!("synopsis probe failed: {e}"))?;
    outln!(
        "synopsis probe -> premeet containment score {:.4}",
        remote_syn.inlink_containment_into(&client.synopses())
    );
    let outcome = client
        .meet(0, &transport, &policy)
        .map_err(|e| format!("meeting failed: {e}"))?;
    outln!(
        "meeting -> {} bytes out, {} bytes in, {} retries",
        outcome.bytes_sent,
        outcome.bytes_received,
        outcome.retries
    );
    let s = client.stats();
    outln!(
        "client totals: {} bytes out, {} bytes in (exact codec lengths)",
        s.bytes_out,
        s.bytes_in
    );
    if duration > 0 {
        outln!("serving for {duration}s more (ctrl-c to stop)...");
        std::thread::sleep(std::time::Duration::from_secs(duration));
    }
    Ok(())
}

/// `jxp-cli search` — the Table 2 experiment at CLI scale.
pub fn search(args: &ParsedArgs) -> Result<(), String> {
    use jxp_minerva::eval::{averages, table2};
    use jxp_minerva::{Corpus, CorpusParams, PeerIndex};

    let seed: u64 = args.get_or("seed", 42)?;
    let queries_n = args.get_count("queries")?.unwrap_or(10);
    let meetings: usize = args.get_or("meetings", 400)?;
    let cg = generate_graph_with_scale(args, 0.05)?;
    let truth = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
    let fragments = minerva_fragments(&cg, 4, &mut StdRng::seed_from_u64(seed));
    let frag_refs: Vec<Subgraph> = fragments.clone();
    let mut net = Network::new(
        fragments,
        cg.graph.num_nodes() as u64,
        NetworkConfig::default(),
        seed,
    );
    net.run_parallel(meetings);
    let corpus = Corpus::generate(
        &cg,
        &truth,
        CorpusParams::default(),
        &mut StdRng::seed_from_u64(seed ^ 1),
    );
    let indexes: Vec<PeerIndex> = frag_refs
        .iter()
        .map(|f| PeerIndex::build(f, &corpus))
        .collect();
    let queries = corpus.make_queries(queries_n, &mut StdRng::seed_from_u64(seed ^ 2));
    let rows = table2(
        &corpus,
        &indexes,
        &net.total_ranking(),
        &queries,
        6,
        50,
        10,
        (0.6, 0.4),
    );
    outln!(
        "{:<14} {:>8} {:>22}",
        "query",
        "tf*idf",
        "0.6 tf*idf + 0.4 JXP"
    );
    for r in &rows {
        outln!(
            "{:<14} {:>7.0}% {:>21.0}%",
            r.query,
            r.tfidf_precision * 100.0,
            r.fused_precision * 100.0
        );
    }
    let (t, f) = averages(&rows);
    outln!("{:<14} {:>7.0}% {:>21.0}%", "average", t * 100.0, f * 100.0);
    Ok(())
}

/// Flag parsing for `serve`.
fn serve_params(args: &ParsedArgs) -> Result<jxp_serve::ServeExperimentParams, String> {
    let scale: f64 = args.get_or("scale", 0.05)?;
    if !(0.0..=1.0).contains(&scale) || scale == 0.0 {
        return Err(format!("--scale must be in (0, 1], got {scale}"));
    }
    let peers: usize = args.get_or("peers", 4)?;
    if peers < 2 {
        return Err(format!("--peers must be at least 2, got {peers}"));
    }
    Ok(jxp_serve::ServeExperimentParams {
        seed: args.get_or("seed", 42)?,
        peers,
        meetings: args.get_or("meetings", 200)?,
        num_queries: args.get_count("queries")?.unwrap_or(10),
        k: args.get_count("k")?.unwrap_or(10),
        repeats: args.get_count("repeats")?.unwrap_or(3),
        concurrency: args.get_count("concurrency")?.unwrap_or(2),
        threads: args.get_or("threads", 1)?,
        scale,
        dataset: preset(args)?,
        metrics_listen: args.get("metrics-listen").map(String::from),
        transport: args
            .get_choice("transport", &["loopback", "reactor"], "loopback")?
            .parse()?,
    })
}

fn print_serve_summary(r: &jxp_serve::ServeBenchReport) {
    let p = &r.params;
    outln!(
        "served {} measured requests ({} warmup, {} failures) across {} peers",
        r.load.measured_requests,
        r.load.warmup_requests,
        r.load.failures,
        p.peers
    );
    if let Some(addr) = r.metrics_addr {
        outln!("metrics endpoint served scrapes on http://{addr}/metrics during the run");
    }
    outln!(
        "throughput {:.0} qps, latency p50 {:.3} ms / p99 {:.3} ms, cache hit rate {:.0}%",
        r.load.qps,
        r.load.p50_ms,
        r.load.p99_ms,
        r.load.cache_hit_rate * 100.0
    );
    outln!(
        "precision@{}: tf*idf {:.0}%, fused {:.0}%, centralized {:.0}% (top-k overlap with \
         centralized {:.0}%)",
        p.k,
        r.tfidf_precision * 100.0,
        r.fused_precision * 100.0,
        r.centralized_precision * 100.0,
        r.centralized_overlap * 100.0
    );
    outln!("fusion wins: {}", r.fusion_wins);
}

/// `jxp-cli serve` — run a cluster with every node fronted by a query
/// handler, drive it with the seeded load mix, and show the answers;
/// `--out FILE` also writes the run as a `BENCH_serve.json` report.
pub fn serve(args: &ParsedArgs) -> Result<(), String> {
    let params = serve_params(args)?;
    outln!(
        "{} scale {}, {} peers, {} meetings, seed {} — serving top-{} queries while converging",
        params.dataset.name,
        params.scale,
        params.peers,
        params.meetings,
        params.seed,
        params.k
    );
    let report = jxp_serve::run_serve_experiment(&params);
    print_serve_summary(&report);
    outln!("results from node 0 (fused ranking, final pass):");
    if let Some(replies) = report.load.replies.first() {
        for (q, reply) in report.query_names.iter().zip(replies) {
            let hits: Vec<String> = reply
                .hits
                .iter()
                .take(5)
                .map(|h| format!("{} ({:.3})", h.page.0, h.fused))
                .collect();
            outln!("  {:<16} {}", q, hits.join(", "));
        }
    }
    if let Some(out) = args.get("out") {
        if let Some(dir) = Path::new(out).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            }
        }
        std::fs::write(out, jxp_serve::render_bench_json(&report))
            .map_err(|e| format!("writing {out}: {e}"))?;
        outln!("[json] {out}");
    }
    Ok(())
}
