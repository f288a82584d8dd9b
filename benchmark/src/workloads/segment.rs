//! `segment_pagerank`: power iteration over a graph that lives in
//! on-disk segments, with a quarter of them resident at a time.

use crate::dataset::{self, crawl_links};
use crate::harness::{Ctx, Unit};
use crate::stats;
use crate::trace::Tracer;
use jxp_core::evaluate::centralized_ranking;
use jxp_pagerank::{metrics, pagerank, PageRankConfig, Ranking};
use jxp_segstore::backing::PreadBacking;
use jxp_segstore::{
    BackingKind, Manifest, SegStoreConfig, SegmentCache, SegmentWriter, SegmentedGraph,
    SegstoreMetrics,
};
use jxp_webgraph::{CsrGraph, GraphBuilder, PageId};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The synthetic crawl: 262 144 nodes in 16 segments of 16 384.
const NODES: usize = 262_144;
const SEGMENT_NODES: usize = 16_384;
/// Segments resident at once.
const BUDGET: usize = 4;
/// Sweeps per unit: a fixed cost, so accuracy is what is left to vary.
const SWEEPS: usize = 20;
const FOOTRULE_TOP: usize = 1000;
const FOOTRULE_TARGET: f64 = 0.05;

/// Exactly `SWEEPS` sweeps: the tolerance is out of reach.
fn sweep_config(threads: usize) -> PageRankConfig {
    PageRankConfig {
        tolerance: 1e-300,
        max_iterations: SWEEPS,
        threads,
        ..PageRankConfig::default()
    }
}

struct Data {
    csr: CsrGraph,
    /// Converged PageRank of the crawl.
    truth: Ranking,
    truth_iterations: usize,
    dir: PathBuf,
    manifest: Manifest,
}

fn build(seed: u64, dir: &Path, tracer: &Tracer) -> Data {
    let n = NODES as u64;
    let csr = tracer.span("webgraph.generate", 0, || {
        let mut b = GraphBuilder::new();
        b.ensure_nodes(NODES);
        for i in 0..n {
            crawl_links(i, n, seed, |s, d| b.add_edge(PageId(s), PageId(d)));
        }
        b.build()
    });
    let exact = tracer.span("pagerank.pagerank", 0, || {
        pagerank(&csr, &PageRankConfig::default())
    });
    let _ = std::fs::remove_dir_all(dir);
    let manifest = tracer.span("segstore.write_segments", 0, || {
        let mut w = SegmentWriter::create(dir, SEGMENT_NODES).expect("create segment writer");
        w.ensure_nodes(NODES);
        for i in 0..n {
            crawl_links(i, n, seed, |s, d| {
                w.add_edge(PageId(s), PageId(d)).expect("spill edge");
            });
        }
        w.finish().expect("finish segments")
    });
    Data {
        truth_iterations: exact.iterations(),
        truth: centralized_ranking(exact.scores()),
        csr,
        dir: dir.to_path_buf(),
        manifest,
    }
}

fn open(data: &Data, budget: usize) -> SegmentedGraph {
    let config = SegStoreConfig {
        resident_segments: budget,
        backing: BackingKind::Pread,
    };
    SegmentedGraph::open_with(&data.dir, config, SegstoreMetrics::detached())
        .expect("open segment directory")
}

struct Sweep {
    unit: Unit,
    hits: u64,
    misses: u64,
    resident_bytes: u64,
}

/// `SWEEPS` sweeps over a freshly opened (cold) segmented graph.
fn sweep(data: &Data, budget: usize, threads: usize, tracer: &Tracer, rep: u64) -> Sweep {
    let graph = open(data, budget);
    let start = Instant::now();
    let result = tracer.span("segstore.pagerank", rep, || {
        pagerank(&graph, &sweep_config(threads))
    });
    let secs = start.elapsed().as_secs_f64();
    let m = graph.metrics();
    let (hits, misses) = (m.hits_total.get(), m.misses_total.get());
    let ranking = centralized_ranking(result.scores());
    let unit = Unit {
        secs,
        ops: data.manifest.num_edges * result.iterations() as u64,
        bytes: m.read_bytes_total.get(),
        footrule: metrics::footrule_distance(&ranking, &data.truth, FOOTRULE_TOP),
        hash: dataset::score_hash([result.scores()]),
        attempted: result.iterations() as u64,
        failed: (SWEEPS - result.iterations()) as u64,
        counts: if threads == 1 {
            vec![("hits", hits), ("misses", misses)]
        } else {
            Vec::new()
        },
    };
    Sweep {
        unit,
        hits,
        misses,
        resident_bytes: graph.resident_bytes(),
    }
}

pub fn run_workload(ctx: &mut Ctx) {
    let seed = ctx.seed;
    let dir = ctx.scratch.join("segments");
    let data = ctx.setup(|tracer| build(seed, &dir, tracer));
    ctx.check(
        "the segments hold the crawl's nodes and edges",
        data.manifest.num_nodes as usize == data.csr.num_nodes()
            && data.manifest.num_edges as usize == data.csr.num_edges(),
    );

    // Control: the same sweeps over the in-memory graph.
    let start = Instant::now();
    let in_memory = pagerank(&data.csr, &sweep_config(1));
    let in_memory_secs = start.elapsed().as_secs_f64();

    let mut last = None;
    let summary = ctx.measure(1, |tracer, rep, _| {
        let done = sweep(&data, BUDGET, 1, tracer, rep);
        let unit = done.unit.clone();
        last = Some(done);
        unit
    });
    let last = last.expect("at least one repetition ran");
    ctx.check(
        "segmented and in-memory PageRank give the same score hash",
        summary.unit.hash == dataset::score_hash([in_memory.scores()]),
    );
    ctx.check(
        "the sweeps reach the footrule target",
        summary.footrule <= FOOTRULE_TARGET,
    );

    if !ctx.trace {
        return;
    }
    let edges = data.manifest.num_edges as f64;
    ctx.layer("webgraph.generate_s", ctx.span_secs("webgraph.generate"));
    ctx.layer("pagerank.truth_iterations", data.truth_iterations as f64);
    // The in-memory sweeps are the roofline for the segmented ones.
    ctx.layer(
        "pagerank.csr_edges_per_s",
        edges * SWEEPS as f64 / in_memory_secs,
    );
    ctx.layer(
        "segstore.build_edges_per_s",
        edges / ctx.span_secs("segstore.write_segments"),
    );
    ctx.layer("segstore.hits", last.hits as f64);
    ctx.layer("segstore.misses", last.misses as f64);
    ctx.layer("segstore.peak_resident_bytes", last.resident_bytes as f64);

    let segments = data.manifest.segments.len();
    let tracer = Tracer::new(false);
    let resident = sweep(&data, segments, 1, &tracer, 0);
    ctx.layer(
        "segstore.resident_edges_per_s",
        resident.unit.ops as f64 / resident.unit.secs,
    );
    let two = sweep(&data, BUDGET, 2, &tracer, 0);
    ctx.layer(
        "segstore.stream_edges_per_s_t2",
        two.unit.ops as f64 / two.unit.secs,
    );
    ctx.check(
        "resident and 2-thread sweeps give the same score hash",
        stats::counts_repeat(&[summary.unit.hash, resident.unit.hash, two.unit.hash]),
    );
    ctx.check(
        "a fully resident graph sweeps faster than a streamed one",
        resident.unit.ops as f64 / resident.unit.secs > summary.unit.ops as f64 / summary.secs,
    );

    // Cold fetch + decode of every segment, through the cache.
    let backing = PreadBacking::open(&data.dir, segments).expect("open segment files");
    let cache = SegmentCache::new(Box::new(backing), segments, SegstoreMetrics::detached());
    let (_, secs) = ctx.timed_span("segstore.cache_get_cold", 0, || {
        for i in 0..segments {
            cache.get(i).expect("decode segment");
        }
    });
    ctx.layer(
        "segstore.decode_mb_per_s",
        data.manifest.total_encoded_bytes() as f64 / 1e6 / secs,
    );
}
