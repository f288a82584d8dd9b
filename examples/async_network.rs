//! Asynchronous JXP under message loss, on the shipped cluster path.
//!
//! The paper's peers meet "asynchronously and independently" over a
//! network that loses messages (§3). This example runs `run_cluster` —
//! real nodes exchanging real wire frames — with 30 % seeded loss: each
//! meeting request is lost before its responder sees it with probability
//! 0.3, and each reply is lost on the way back with probability 0.3
//! after the responder has already absorbed. Initiators time out and
//! retry; some meetings fail outright. JXP still marches toward the
//! centralized PageRank, and every peer keeps a valid score distribution.
//!
//! Run with: `cargo run --release --example async_network`

use jxp::core::JxpConfig;
use jxp::pagerank::{pagerank, PageRankConfig};
use jxp::webgraph::generators::{CategorizedGraph, CategorizedParams};
use jxp::webgraph::{PageId, Subgraph};
use jxp_node::{run_cluster_with, ClusterConfig, ClusterHooks, FrameHandler, JxpNode, RetryPolicy};
use jxp_telemetry::lock_unpoisoned;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn main() {
    let cg = CategorizedGraph::generate(
        &CategorizedParams {
            num_categories: 5,
            nodes_per_category: 400,
            intra_out_per_node: 4,
            cross_fraction: 0.15,
        },
        &mut StdRng::seed_from_u64(71),
    );
    let n = cg.graph.num_nodes();
    let truth = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();

    // 20 overlapping fragments covering the graph.
    let mut rng = StdRng::seed_from_u64(72);
    let mut pages: Vec<Vec<PageId>> = vec![Vec::new(); 20];
    for p in 0..n as u32 {
        pages[rng.gen_range(0..20usize)].push(PageId(p));
        if rng.gen_bool(0.3) {
            pages[rng.gen_range(0..20usize)].push(PageId(p));
        }
    }
    let fragments: Vec<Subgraph> = pages
        .into_iter()
        .map(|ps| Subgraph::from_pages(&cg.graph, ps))
        .collect();

    let loss = 0.3;
    println!("{n} pages, 20 peers over loopback; each frame and each reply lost with p = {loss}");
    println!(
        "\n{:>8} {:>10} {:>7} {:>8} {:>9} {:>10}",
        "meetings", "completed", "failed", "retries", "MB sent", "footrule"
    );
    for meetings in [50, 100, 200, 400, 800] {
        let config = ClusterConfig {
            meetings,
            seed: 73,
            loss,
            retry: RetryPolicy {
                max_attempts: 6,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(4),
            },
            ..ClusterConfig::default()
        };
        // Keep a handle on every node so their peers can be checked
        // once the run is over.
        let nodes: Mutex<Vec<Arc<JxpNode>>> = Mutex::new(Vec::new());
        let keep = |_: usize, node: &Arc<JxpNode>| {
            lock_unpoisoned(&nodes).push(Arc::clone(node));
            Arc::clone(node) as Arc<dyn FrameHandler>
        };
        let hooks = ClusterHooks {
            wrap_handler: Some(&keep),
            ..ClusterHooks::default()
        };
        let report = run_cluster_with(
            fragments.clone(),
            n as u64,
            JxpConfig::default(),
            &config,
            Some(&truth),
            &hooks,
        );
        println!(
            "{:>8} {:>10} {:>7} {:>8} {:>9.1} {:>10.4}",
            meetings,
            report.meetings_completed,
            report.meetings_failed,
            report.retries,
            report.bytes_total as f64 / 1e6,
            report.footrule.unwrap_or(f64::NAN)
        );
        for node in lock_unpoisoned(&nodes).iter() {
            node.with_peer(jxp::core::invariants::check_mass_conservation)
                .unwrap();
        }
    }
    println!("\nevery peer still holds a valid score distribution despite the losses;");
    println!("convergence only needs fairness-in-expectation, not reliable delivery.");
}
