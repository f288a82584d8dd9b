//! The determinism contract of the segment store, end to end: PageRank
//! over a `SegmentedGraph` must be **bit-identical** to PageRank over
//! the same graph as an in-memory `CsrGraph` — at 1, 2 and 8 threads,
//! under a tight cache budget, with either backing — and the per-peer
//! extended-graph path (`Subgraph`/`JxpPeer` from a source) must agree
//! the same way.

use jxp_core::config::JxpConfig;
use jxp_core::evaluate::score_hash;
use jxp_core::peer::JxpPeer;
use jxp_pagerank::{pagerank, PageRankConfig};
use jxp_segstore::{write_segments, BackingKind, SegStoreConfig, SegmentedGraph, SegstoreMetrics};
use jxp_webgraph::generators::amazon_2005;
use jxp_webgraph::{CsrGraph, PageId, Subgraph};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jxp_equiv_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A seeded ~5.5k-node categorized graph (the amazon preset at 1/10
/// scale): hubs, cross-category links and enough nodes to span many
/// segments.
fn seeded_graph() -> CsrGraph {
    amazon_2005().generate_scaled(0.1).graph
}

#[test]
fn global_pagerank_matches_csr_at_1_2_8_threads() {
    let g = seeded_graph();
    let dir = tmp("global");
    write_segments(&g, &dir, 512).unwrap();
    // 4 resident segments out of ~11: plenty of eviction traffic.
    let sg = SegmentedGraph::open_with(
        &dir,
        SegStoreConfig {
            resident_segments: 4,
            backing: BackingKind::Pread,
        },
        SegstoreMetrics::detached(),
    )
    .unwrap();

    for threads in [1usize, 2, 8] {
        let cfg = PageRankConfig {
            threads,
            ..Default::default()
        };
        let mem = pagerank(&g, &cfg);
        let disk = pagerank(&sg, &cfg);
        assert_eq!(
            score_hash([mem.scores()]),
            score_hash([disk.scores()]),
            "score hash diverges at {threads} threads"
        );
        assert_eq!(mem.scores(), disk.scores(), "scores at {threads} threads");
        assert_eq!(mem.iterations(), disk.iterations());
    }
    assert!(sg.metrics().evictions_total.get() > 0, "budget never bound");
}

#[test]
fn per_peer_extended_pagerank_matches_in_memory_path() {
    let g = seeded_graph();
    let n_total = g.num_nodes() as u64;
    let dir = tmp("perpeer");
    write_segments(&g, &dir, 256).unwrap();
    let sg = SegmentedGraph::open_with(
        &dir,
        SegStoreConfig {
            resident_segments: 2,
            backing: BackingKind::Read,
        },
        SegstoreMetrics::detached(),
    )
    .unwrap();

    // Three fragments with different shapes: a contiguous range, a
    // strided sample, and a small tail window.
    let fragments: Vec<Vec<PageId>> = vec![
        (100u32..600).map(PageId).collect(),
        (0..(n_total as u32)).step_by(37).map(PageId).collect(),
        ((n_total as u32 - 64)..n_total as u32)
            .map(PageId)
            .collect(),
    ];

    for (i, pages) in fragments.iter().enumerate() {
        let mem_peer = JxpPeer::new(
            Subgraph::from_pages(&g, pages.iter().copied()),
            n_total,
            JxpConfig::default(),
        );
        let disk_peer =
            JxpPeer::from_source(&sg, pages.iter().copied(), n_total, JxpConfig::default());
        assert_eq!(
            score_hash([mem_peer.scores()]),
            score_hash([disk_peer.scores()]),
            "fragment {i} diverges"
        );
        assert_eq!(mem_peer.scores(), disk_peer.scores());
        assert_eq!(mem_peer.world_score(), disk_peer.world_score());
    }
}

#[test]
fn results_are_independent_of_cache_budget_and_backing() {
    let g = seeded_graph();
    let dir = tmp("budgets");
    write_segments(&g, &dir, 512).unwrap();
    let cfg = PageRankConfig::default();
    let reference = pagerank(&g, &cfg).into_scores();
    for (budget, backing) in [
        (1usize, BackingKind::Read),
        (3, BackingKind::Pread),
        (64, BackingKind::Pread),
    ] {
        let sg = SegmentedGraph::open_with(
            &dir,
            SegStoreConfig {
                resident_segments: budget,
                backing,
            },
            SegstoreMetrics::detached(),
        )
        .unwrap();
        let scores = pagerank(&sg, &cfg).into_scores();
        assert_eq!(
            score_hash([reference.as_slice()]),
            score_hash([scores.as_slice()]),
            "budget {budget} diverges"
        );
        assert_eq!(reference, scores);
    }
}

#[test]
fn a_serial_run_faults_each_segment_once_per_sweep_plus_one_degree_pass() {
    let g = seeded_graph();
    let dir = tmp("faults");
    let segments = write_segments(&g, &dir, 512).unwrap().segments.len() as u64;
    let cfg = PageRankConfig {
        tolerance: 1e-300, // out of reach: exactly max_iterations sweeps
        max_iterations: 7,
        ..Default::default()
    };
    // Any budget below the segment count: a cyclic scan defeats LRU, so
    // every pass faults every segment — once for the degree pass, once
    // per sweep, and never once per node or per extra pass.
    for budget in [1, 3, segments as usize - 1] {
        let sg = SegmentedGraph::open_with(
            &dir,
            SegStoreConfig {
                resident_segments: budget,
                backing: BackingKind::Pread,
            },
            SegstoreMetrics::detached(),
        )
        .unwrap();
        let run = pagerank(&sg, &cfg);
        assert_eq!(run.iterations(), 7);
        let m = sg.metrics();
        assert_eq!(m.misses_total.get(), segments * (7 + 1), "budget {budget}");
        // 512-node segments inside 4096-row chunks: one probe per
        // segment per pass, so nothing is left to hit.
        assert_eq!(m.hits_total.get(), 0, "budget {budget}");
    }
}

#[test]
fn resident_memory_stays_under_budget_and_below_encoded_size() {
    let g = seeded_graph();
    let dir = tmp("budget_cap");
    let manifest = write_segments(&g, &dir, 256).unwrap();
    assert!(manifest.segments.len() > 8);
    let sg = SegmentedGraph::open_with(
        &dir,
        SegStoreConfig {
            resident_segments: 2,
            backing: BackingKind::Pread,
        },
        SegstoreMetrics::detached(),
    )
    .unwrap();
    let _ = pagerank(&sg, &PageRankConfig::default());
    assert_eq!(sg.metrics().resident_segments.get(), 2.0);
    assert!(
        sg.resident_bytes() < sg.total_encoded_bytes(),
        "resident {} must stay below total encoded {}",
        sg.resident_bytes(),
        sg.total_encoded_bytes()
    );
}
