//! The six workloads. Each builds its inputs from the seed, repeats a
//! fixed unit of work, checks its outputs and, in a traced run, probes
//! the layers it leans on.

pub mod cluster;
pub mod segment;
pub mod serve;
pub mod sim;

use crate::harness::Ctx;
use crate::trace::Tracer;
use jxp_pagerank::{pagerank, PageRankConfig};
use jxp_webgraph::generators::{CategorizedGraph, DatasetPreset};

/// A generated collection with its exact centralized PageRank.
pub struct Collection {
    pub cg: CategorizedGraph,
    pub truth: Vec<f64>,
    truth_iterations: usize,
}

impl Collection {
    pub fn build(tracer: &Tracer, preset: &DatasetPreset, scale: f64) -> Collection {
        let cg = tracer.span("webgraph.generate", 0, || preset.generate_scaled(scale));
        let result = tracer.span("pagerank.pagerank", 0, || {
            pagerank(&cg.graph, &PageRankConfig::default())
        });
        Collection {
            truth_iterations: result.iterations(),
            truth: result.into_scores(),
            cg,
        }
    }

    /// The set-up's layer metrics, from the spans `build` recorded.
    pub fn report_layers(&self, ctx: &mut Ctx) {
        ctx.layer("webgraph.generate_s", ctx.span_secs("webgraph.generate"));
        let sweeps = (self.cg.graph.num_edges() * self.truth_iterations) as f64;
        ctx.layer(
            "pagerank.csr_edges_per_s",
            sweeps / ctx.span_secs("pagerank.pagerank"),
        );
        ctx.layer("pagerank.truth_iterations", self.truth_iterations as f64);
    }
}

/// Run the workload called `name`; `false` if there is none.
pub fn run(name: &str, ctx: &mut Ctx) -> bool {
    match name {
        "sim_converge" => sim::run_workload(ctx, &sim::CONVERGE),
        "sim_web_premeet" => sim::run_workload(ctx, &sim::WEB_PREMEET),
        "cluster_reactor" => cluster::run_workload(ctx, &cluster::REACTOR),
        "cluster_durable" => cluster::run_workload(ctx, &cluster::DURABLE),
        "serve_query" => serve::run_workload(ctx),
        "segment_pagerank" => segment::run_workload(ctx),
        _ => return false,
    }
    true
}
