//! The serving benchmark: a seeded, reproducible end-to-end run.
//!
//! One call builds a categorized graph + synthetic corpus, runs a JXP
//! cluster whose nodes are fronted by [`ServeHandler`]s, drives it with
//! the closed-loop [`LoadGen`] (warmup during the meetings, measurement
//! after), and evaluates the answers against the corpus ground truth
//! and a centralized reference engine. The result renders to the
//! `BENCH_serve.json` schema consumed by CI (`jxp-cli loadgen`).
//!
//! Result merging across nodes is the Minerva-style max-merge: a page
//! reported by several peers keeps its best score per component. Fused
//! scores are node-normalized, so max-merging them is the usual
//! CORI-ish heuristic — exactly the situation the paper's §6.3
//! experiment evaluates with precision@10.

use crate::engine::{ServeConfig, ServeHandler, ServeMetrics};
use crate::loadgen::{LoadGen, LoadGenConfig, LoadReport};
use jxp_core::evaluate::centralized_ranking;
use jxp_core::JxpConfig;
use jxp_minerva::eval::precision_at_k;
use jxp_minerva::fusion::{rank_by_fusion, PAPER_JXP_WEIGHT, PAPER_TFIDF_WEIGHT};
use jxp_minerva::query::SearchHit;
use jxp_minerva::{Corpus, CorpusParams, PeerIndex, ServingIndex};
use jxp_node::{
    run_cluster_with, ClusterConfig, ClusterHooks, FrameHandler, JxpNode, TransportKind,
};
use jxp_pagerank::{pagerank, PageRankConfig};
use jxp_telemetry::sync::lock_unpoisoned;
use jxp_telemetry::TelemetryHub;
use jxp_webgraph::generators::{amazon_2005, CategorizedGraph, DatasetPreset};
use jxp_webgraph::{FxHashMap, PageId, Subgraph};
use jxp_wire::QueryReplyPayload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

/// Everything configurable about a serving benchmark run.
#[derive(Debug, Clone)]
pub struct ServeExperimentParams {
    /// Master seed: the graph schedule uses it directly, the corpus
    /// `seed ^ 1`, the query mix `seed ^ 2` (the `jxp-cli search`
    /// convention).
    pub seed: u64,
    /// Cluster size (nodes).
    pub peers: usize,
    /// Meetings to run before the measurement window.
    pub meetings: usize,
    /// Distinct queries in the load mix.
    pub num_queries: usize,
    /// Top-k requested per query.
    pub k: u32,
    /// Measurement passes per node over the mix.
    pub repeats: usize,
    /// Closed-loop load workers.
    pub concurrency: usize,
    /// Cluster meeting worker threads (0 = machine parallelism).
    pub threads: usize,
    /// Dataset scale of the preset, in `(0, 1]`.
    pub scale: f64,
    /// Which of the paper's collections to regenerate.
    pub dataset: DatasetPreset,
    /// Optional Prometheus scrape address for the run.
    pub metrics_listen: Option<String>,
    /// Which wire carries meetings and queries. Queries ride the same
    /// transport as the meeting traffic, so on
    /// [`TransportKind::Reactor`] the load generator's requests
    /// multiplex over the reactor's per-peer connections.
    pub transport: TransportKind,
}

impl Default for ServeExperimentParams {
    fn default() -> Self {
        ServeExperimentParams {
            seed: 42,
            peers: 4,
            meetings: 320,
            num_queries: 10,
            k: 10,
            repeats: 3,
            concurrency: 2,
            threads: 1,
            scale: 0.05,
            dataset: amazon_2005(),
            metrics_listen: None,
            transport: TransportKind::Loopback,
        }
    }
}

/// The benchmark's result row — everything `BENCH_serve.json` carries.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// The parameters that produced this report.
    pub params: ServeExperimentParams,
    /// The load generator's measurements.
    pub load: LoadReport,
    /// Human-readable names of the query mix, index-aligned with
    /// `load.replies[node]`.
    pub query_names: Vec<String>,
    /// Mean precision@k of the merged tf·idf-only ranking (baseline).
    pub tfidf_precision: f64,
    /// Mean precision@k of the merged fused ranking.
    pub fused_precision: f64,
    /// Mean precision@k of the centralized reference engine (global
    /// index + true PageRank fusion) — the ceiling.
    pub centralized_precision: f64,
    /// Mean overlap@k between the distributed fused top-k and the
    /// centralized top-k.
    pub centralized_overlap: f64,
    /// `fused_precision >= tfidf_precision` — the paper's §6.3 claim,
    /// asserted by CI.
    pub fusion_wins: bool,
    /// The cluster's final score hash (bit-reproducibility witness).
    pub score_hash: u64,
    /// Footrule distance vs. centralized PageRank after the meetings.
    pub footrule: Option<f64>,
    /// Where the scrape endpoint listened, if enabled.
    pub metrics_addr: Option<SocketAddr>,
}

/// Split `cg` into `n` contiguous fragments of near-equal size.
pub fn contiguous_fragments(cg: &CategorizedGraph, n: usize) -> Vec<Subgraph> {
    let total = cg.graph.num_nodes();
    let per = total.div_ceil(n);
    (0..n)
        .map(|i| {
            let lo = i * per;
            let hi = ((i + 1) * per).min(total);
            Subgraph::from_pages(&cg.graph, (lo..hi).map(|p| PageId(p as u32)))
        })
        .filter(|f| f.num_pages() > 0)
        .collect()
}

/// Max-merge one query's hits across every node's final reply and rank
/// by the chosen component (ties broken by ascending page id).
fn merged_ranking(
    replies: &[Vec<QueryReplyPayload>],
    qi: usize,
    by_fused: bool,
    k: usize,
) -> Vec<PageId> {
    let mut best: FxHashMap<PageId, f64> = FxHashMap::default();
    for node_replies in replies {
        if let Some(r) = node_replies.get(qi) {
            for h in &r.hits {
                let s = if by_fused { h.fused } else { h.tfidf };
                let e = best.entry(h.page).or_insert(f64::NEG_INFINITY);
                if s > *e {
                    *e = s;
                }
            }
        }
    }
    let mut v: Vec<(PageId, f64)> = best.into_iter().collect();
    v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    v.into_iter().take(k).map(|(p, _)| p).collect()
}

/// Run the full serving benchmark; see the module docs.
///
/// # Panics
/// Panics on degenerate parameters (fewer than two peers, zero
/// queries/repeats/concurrency, scale outside `(0, 1]`).
pub fn run_serve_experiment(params: &ServeExperimentParams) -> ServeBenchReport {
    assert!(params.peers >= 2, "a cluster needs at least two nodes");
    assert!(
        params.scale > 0.0 && params.scale <= 1.0,
        "scale must be in (0, 1]"
    );
    let cg = if params.scale >= 1.0 {
        params.dataset.generate()
    } else {
        params.dataset.generate_scaled(params.scale)
    };
    let n = cg.graph.num_nodes();
    let truth = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
    let corpus = Corpus::generate(
        &cg,
        &truth,
        CorpusParams::default(),
        &mut StdRng::seed_from_u64(params.seed ^ 1),
    );
    let fragments = contiguous_fragments(&cg, params.peers);
    let indexes: Vec<PeerIndex> = fragments
        .iter()
        .map(|f| PeerIndex::build(f, &corpus))
        .collect();

    let hub = TelemetryHub::shared();
    let config = ClusterConfig {
        meetings: params.meetings,
        seed: params.seed,
        threads: params.threads,
        transport: params.transport,
        metrics_listen: params.metrics_listen.clone(),
        hub: Some(Arc::clone(&hub)),
        ..ClusterConfig::default()
    };
    let serve_config = ServeConfig {
        // Room for every warmup key (k + 1) and measurement key (k) of
        // the whole mix, so measurement hits are never evicted away.
        cache_capacity: (params.num_queries * 4).max(64),
        ..ServeConfig::default()
    };
    let wrap = |i: usize, node: &Arc<JxpNode>| {
        Arc::new(ServeHandler::new(
            Arc::clone(node),
            ServingIndex::build(&indexes[i]),
            serve_config.clone(),
            ServeMetrics::registered(hub.registry(), i as u64),
        )) as Arc<dyn FrameHandler>
    };
    let loadgen = LoadGen::new(
        &corpus,
        LoadGenConfig {
            seed: params.seed ^ 2,
            num_queries: params.num_queries,
            k: params.k,
            repeats: params.repeats,
            concurrency: params.concurrency,
            ..LoadGenConfig::default()
        },
    );
    let load_slot: Mutex<Option<LoadReport>> = Mutex::new(None);
    let drive = |ctx: &jxp_node::ClusterCtx<'_>| {
        let report = loadgen.drive(ctx, Some(hub.registry()));
        *lock_unpoisoned(&load_slot) = Some(report);
    };
    let hooks = ClusterHooks {
        wrap_handler: Some(&wrap),
        concurrent: Some(&drive),
    };
    let report = run_cluster_with(
        fragments,
        n as u64,
        JxpConfig::default(),
        &config,
        Some(&truth),
        &hooks,
    );
    let load = lock_unpoisoned(&load_slot)
        .take()
        .expect("the concurrent driver ran");

    // Evaluation: distributed rankings from the measured replies vs.
    // the corpus ground truth, plus a centralized reference engine
    // (one global index fused with the true PageRank).
    let k = params.k as usize;
    let truth_ranking = centralized_ranking(&truth);
    let global_index = PeerIndex::build(
        &Subgraph::from_pages(&cg.graph, (0..n as u32).map(PageId)),
        &corpus,
    );
    let queries = loadgen.queries();
    let mut tfidf_sum = 0.0;
    let mut fused_sum = 0.0;
    let mut central_sum = 0.0;
    let mut overlap_sum = 0.0;
    for (qi, q) in queries.iter().enumerate() {
        let by_tfidf = merged_ranking(&load.replies, qi, false, k);
        let by_fused = merged_ranking(&load.replies, qi, true, k);
        let central_hits: Vec<SearchHit> = global_index
            .score_query(&q.terms)
            .into_iter()
            .take(k * 4)
            .map(|(page, tfidf)| SearchHit { page, tfidf })
            .collect();
        let central: Vec<PageId> = rank_by_fusion(
            &central_hits,
            &truth_ranking,
            PAPER_TFIDF_WEIGHT,
            PAPER_JXP_WEIGHT,
        )
        .into_iter()
        .take(k)
        .map(|h| h.page)
        .collect();
        tfidf_sum += precision_at_k(&corpus, q, &by_tfidf, k);
        fused_sum += precision_at_k(&corpus, q, &by_fused, k);
        central_sum += precision_at_k(&corpus, q, &central, k);
        overlap_sum += by_fused.iter().filter(|p| central.contains(p)).count() as f64 / k as f64;
    }
    let nq = queries.len() as f64;
    let (tfidf_precision, fused_precision) = (tfidf_sum / nq, fused_sum / nq);
    let (centralized_precision, centralized_overlap) = (central_sum / nq, overlap_sum / nq);

    // Headline numbers also land in the hub, so a final scrape (or the
    // snapshot exporters) carries them alongside the counters.
    let registry = hub.registry();
    registry.gauge("jxp_serve_qps").set(load.qps);
    registry.gauge("jxp_serve_p50_ms").set(load.p50_ms);
    registry.gauge("jxp_serve_p99_ms").set(load.p99_ms);
    registry
        .gauge("jxp_serve_cache_hit_rate")
        .set(load.cache_hit_rate);
    registry
        .gauge("jxp_serve_precision_tfidf")
        .set(tfidf_precision);
    registry
        .gauge("jxp_serve_precision_fused")
        .set(fused_precision);

    ServeBenchReport {
        params: params.clone(),
        query_names: queries.iter().map(|q| q.name.clone()).collect(),
        load,
        tfidf_precision,
        fused_precision,
        centralized_precision,
        centralized_overlap,
        fusion_wins: fused_precision >= tfidf_precision,
        score_hash: report.score_hash,
        footrule: report.footrule,
        metrics_addr: report.metrics_addr,
    }
}

/// Render the report as the `BENCH_serve.json` document (stable,
/// greppable keys; CI asserts on `"fusion_wins": true`).
pub fn render_bench_json(r: &ServeBenchReport) -> String {
    let mut json = String::from("{\n");
    let p = &r.params;
    writeln!(json, "  \"bench\": \"serve\",").unwrap();
    writeln!(json, "  \"dataset\": \"{}\",", p.dataset.name).unwrap();
    writeln!(json, "  \"seed\": {},", p.seed).unwrap();
    writeln!(json, "  \"peers\": {},", p.peers).unwrap();
    writeln!(json, "  \"meetings\": {},", p.meetings).unwrap();
    writeln!(json, "  \"threads\": {},", p.threads).unwrap();
    writeln!(json, "  \"scale\": {},", p.scale).unwrap();
    writeln!(json, "  \"queries\": {},", p.num_queries).unwrap();
    writeln!(json, "  \"k\": {},", p.k).unwrap();
    writeln!(json, "  \"repeats\": {},", p.repeats).unwrap();
    writeln!(json, "  \"concurrency\": {},", p.concurrency).unwrap();
    writeln!(json, "  \"warmup_requests\": {},", r.load.warmup_requests).unwrap();
    writeln!(
        json,
        "  \"measured_requests\": {},",
        r.load.measured_requests
    )
    .unwrap();
    writeln!(json, "  \"failures\": {},", r.load.failures).unwrap();
    writeln!(json, "  \"qps\": {:.2},", r.load.qps).unwrap();
    writeln!(json, "  \"p50_ms\": {:.4},", r.load.p50_ms).unwrap();
    writeln!(json, "  \"p99_ms\": {:.4},", r.load.p99_ms).unwrap();
    writeln!(json, "  \"cache_hits\": {},", r.load.cache_hits).unwrap();
    writeln!(json, "  \"cache_hit_rate\": {:.4},", r.load.cache_hit_rate).unwrap();
    writeln!(json, "  \"tfidf_precision\": {:.4},", r.tfidf_precision).unwrap();
    writeln!(json, "  \"fused_precision\": {:.4},", r.fused_precision).unwrap();
    writeln!(
        json,
        "  \"centralized_precision\": {:.4},",
        r.centralized_precision
    )
    .unwrap();
    writeln!(
        json,
        "  \"centralized_overlap\": {:.4},",
        r.centralized_overlap
    )
    .unwrap();
    writeln!(json, "  \"fusion_wins\": {},", r.fusion_wins).unwrap();
    match r.footrule {
        Some(f) => writeln!(json, "  \"footrule\": {f:.4},").unwrap(),
        None => writeln!(json, "  \"footrule\": null,").unwrap(),
    }
    writeln!(json, "  \"score_hash\": \"{:016x}\"", r.score_hash).unwrap();
    json.push_str("}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> ServeExperimentParams {
        ServeExperimentParams {
            seed: 7,
            peers: 3,
            meetings: 90,
            num_queries: 6,
            k: 10,
            repeats: 2,
            concurrency: 2,
            threads: 1,
            scale: 0.02,
            ..ServeExperimentParams::default()
        }
    }

    #[test]
    fn experiment_measures_and_is_reproducible_where_promised() {
        let a = run_serve_experiment(&small_params());
        // Every measurement request succeeded and the cache behaved as
        // scheduled: pass 1 misses, pass 2 hits, per node and query.
        let expected = (3 * 2 * 6) as u64;
        assert_eq!(a.load.measured_requests, expected);
        assert_eq!(a.load.failures, 0);
        assert_eq!(a.load.cache_hits, (3 * 6) as u64);
        assert!((a.load.cache_hit_rate - 0.5).abs() < 1e-12);
        assert!(a.load.qps > 0.0);
        assert!(a.load.p50_ms >= 0.0 && a.load.p99_ms >= a.load.p50_ms);
        assert!(a.centralized_precision > 0.0);

        // The deterministic half of the report reproduces bit-for-bit;
        // only the wall-clock numbers (qps, quantiles) may move.
        let b = run_serve_experiment(&small_params());
        assert_eq!(a.score_hash, b.score_hash);
        assert_eq!(a.footrule, b.footrule);
        assert_eq!(a.tfidf_precision, b.tfidf_precision);
        assert_eq!(a.fused_precision, b.fused_precision);
        assert_eq!(a.centralized_overlap, b.centralized_overlap);
        assert_eq!(a.load.cache_hits, b.load.cache_hits);
        for (ra, rb) in a.load.replies.iter().zip(&b.load.replies) {
            assert_eq!(ra, rb, "measurement replies must be deterministic");
        }
    }

    #[test]
    fn reactor_transport_serves_the_same_answers_as_loopback() {
        let control = run_serve_experiment(&small_params());
        let over_reactor = run_serve_experiment(&ServeExperimentParams {
            transport: TransportKind::Reactor,
            ..small_params()
        });
        // Queries multiplex over the reactor's per-peer connections,
        // yet every deterministic output matches the loopback run.
        assert_eq!(over_reactor.score_hash, control.score_hash);
        assert_eq!(over_reactor.footrule, control.footrule);
        assert_eq!(over_reactor.fused_precision, control.fused_precision);
        assert_eq!(over_reactor.load.failures, 0);
        assert_eq!(over_reactor.load.cache_hits, control.load.cache_hits);
        for (ra, rb) in over_reactor.load.replies.iter().zip(&control.load.replies) {
            assert_eq!(ra, rb, "replies must not depend on the transport");
        }
    }

    #[test]
    fn bench_json_has_the_ci_contract_fields() {
        let report = run_serve_experiment(&small_params());
        let json = render_bench_json(&report);
        for key in [
            "\"bench\": \"serve\"",
            "\"qps\":",
            "\"p50_ms\":",
            "\"p99_ms\":",
            "\"cache_hit_rate\":",
            "\"tfidf_precision\":",
            "\"fused_precision\":",
            "\"fusion_wins\":",
            "\"score_hash\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
