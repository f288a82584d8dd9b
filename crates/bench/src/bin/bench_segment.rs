//! Out-of-core benchmark for the disk-backed segmented webgraph
//! (`jxp-segstore`): build a synthetic crawl far larger than any peer
//! would hold in memory, stream it straight into segment containers
//! (the full graph is **never** materialized), and run per-peer
//! extended-graph PageRank — the workload every JXP peer runs locally —
//! against the segment store under a tight resident-segment budget.
//!
//! The benchmark has two halves:
//!
//! 1. **Verify scale** (small enough for an in-memory `CsrGraph`): the
//!    identical synthetic crawl is built both ways and global PageRank
//!    (at 1, 2 and 8 threads) plus a per-peer extended-graph run are
//!    asserted **bit-identical**. This is the determinism gate — if the
//!    segment path ever drifts from the in-memory path the process
//!    aborts before any number is reported.
//! 2. **Full scale** (default 10M nodes): edges are streamed from the
//!    deterministic crawl formula directly into the `SegmentWriter`
//!    spill files, then two workloads run: a *resident* contiguous
//!    fragment that fits the cache budget (cold fault-in vs warm
//!    all-hits reruns) and a *streaming* strided fragment that sweeps
//!    every segment while resident memory stays pinned at the budget.
//!
//! Results go to `BENCH_segment.json` in the current directory
//! (`JXP_RESULTS` moves them next to the CSV artifacts). Env knobs so
//! CI can shrink the run: `JXP_SEG_NODES` (default 10_000_000),
//! `JXP_SEG_SEGMENT_NODES` (65_536), `JXP_SEG_BUDGET` (8 resident
//! segments), `JXP_SEG_VERIFY` (200_000 nodes for the in-memory
//! equivalence half), `JXP_SEG_DIR` (where segment directories live;
//! defaults to a per-pid temp dir, removed on success).

use jxp_core::config::JxpConfig;
use jxp_core::evaluate::score_hash;
use jxp_core::peer::JxpPeer;
use jxp_pagerank::{pagerank, PageRankConfig};
use jxp_segstore::{BackingKind, SegStoreConfig, SegmentWriter, SegmentedGraph, SegstoreMetrics};
use jxp_webgraph::{CsrGraph, GraphBuilder, GraphSource, PageId};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// splitmix64 — the deterministic heart of the synthetic crawl.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Emit node `i`'s out-links for an `n`-node synthetic crawl: a skewed
/// degree distribution (1..=8 links, 1-in-16 pages dangling) with a
/// hub bias (half of all pages point one link into the first 1024
/// pages, giving the graph the head-heavy in-degree shape of a real
/// crawl). Pure function of `(i, n)` — both the in-memory and the
/// streamed builds call exactly this.
fn crawl_links(i: u64, n: u64, mut f: impl FnMut(u32, u32)) {
    let h = mix(i.wrapping_mul(0x517c_c1b7_2722_0a95));
    if h.is_multiple_of(16) {
        return; // dangling page
    }
    let degree = 1 + (h >> 8) % 8;
    for k in 0..degree {
        let dst = mix(h.wrapping_add(k)) % n;
        if dst != i {
            f(i as u32, dst as u32);
        }
    }
    if h.is_multiple_of(2) {
        let hub = mix(h ^ 0xdead_beef) % 1024.min(n);
        if hub != i {
            f(i as u32, hub as u32);
        }
    }
}

fn build_in_memory(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new();
    b.ensure_nodes(n);
    for i in 0..n as u64 {
        crawl_links(i, n as u64, |s, d| b.add_edge(PageId(s), PageId(d)));
    }
    b.build()
}

fn stream_to_segments(n: usize, dir: &Path, segment_nodes: usize) -> jxp_segstore::Manifest {
    let mut w = SegmentWriter::create(dir, segment_nodes).expect("create segment writer");
    w.ensure_nodes(n);
    for i in 0..n as u64 {
        crawl_links(i, n as u64, |s, d| {
            w.add_edge(PageId(s), PageId(d)).expect("spill edge")
        });
    }
    w.finish().expect("finish segments")
}

fn open(dir: &Path, budget: usize) -> SegmentedGraph {
    SegmentedGraph::open_with(
        dir,
        SegStoreConfig {
            resident_segments: budget,
            backing: BackingKind::Pread,
        },
        SegstoreMetrics::detached(),
    )
    .expect("open segment dir")
}

/// Run per-peer extended-graph PageRank for `pages` against `source`
/// and return (seconds, score hash).
fn peer_run<G: GraphSource + ?Sized>(source: &G, pages: &[PageId], n_total: u64) -> (f64, u64) {
    let start = Instant::now();
    let peer = JxpPeer::from_source(source, pages.iter().copied(), n_total, JxpConfig::default());
    (start.elapsed().as_secs_f64(), score_hash([peer.scores()]))
}

fn main() {
    let nodes = env_usize("JXP_SEG_NODES", 10_000_000);
    let segment_nodes = env_usize("JXP_SEG_SEGMENT_NODES", 65_536);
    let budget = env_usize("JXP_SEG_BUDGET", 8);
    let verify_nodes = env_usize("JXP_SEG_VERIFY", 200_000);
    let base = std::env::var("JXP_SEG_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            std::env::temp_dir().join(format!("jxp_bench_segment_{}", std::process::id()))
        });

    println!(
        "== Segmented out-of-core webgraph: {nodes} nodes in {segment_nodes}-node segments, \
         budget {budget} resident =="
    );

    // ---- Half 1: bit-identical equivalence at verify scale ----------
    println!("[verify] building {verify_nodes}-node crawl in memory and as segments");
    let vg = build_in_memory(verify_nodes);
    let vdir = base.join("verify");
    let _ = std::fs::remove_dir_all(&vdir);
    let vmanifest = stream_to_segments(verify_nodes, &vdir, segment_nodes.min(16_384));
    assert_eq!(vmanifest.num_nodes as usize, vg.num_nodes());
    assert_eq!(vmanifest.num_edges as usize, vg.num_edges());
    let vsg = open(&vdir, budget.min(4));
    let vpages: Vec<PageId> = (0..verify_nodes as u32).step_by(97).map(PageId).collect();
    for threads in [1usize, 2, 8] {
        let cfg = PageRankConfig {
            threads,
            ..Default::default()
        };
        let mem = pagerank(&vg, &cfg);
        let disk = pagerank(&vsg, &cfg);
        assert_eq!(
            score_hash([mem.scores()]),
            score_hash([disk.scores()]),
            "global scores diverged at {threads} threads"
        );
        println!("[verify] {threads} threads: global bit-identical ✓");
    }
    let (_, mem_peer) = peer_run(&vg, &vpages, verify_nodes as u64);
    let (_, disk_peer) = peer_run(&vsg, &vpages, verify_nodes as u64);
    assert_eq!(mem_peer, disk_peer, "per-peer scores diverged");
    println!("[verify] per-peer bit-identical ✓");
    let _ = std::fs::remove_dir_all(&vdir);

    // ---- Half 2: the full out-of-core run ---------------------------
    let dir = base.join("full");
    let _ = std::fs::remove_dir_all(&dir);
    println!("[build] streaming {nodes}-node crawl into segments (never in memory)");
    let build_start = Instant::now();
    let manifest = stream_to_segments(nodes, &dir, segment_nodes);
    let build_secs = build_start.elapsed().as_secs_f64();
    let encoded = manifest.total_encoded_bytes();
    println!(
        "[build] {} edges in {} segments, {:.1} MB encoded, {build_secs:.1}s",
        manifest.num_edges,
        manifest.segments.len(),
        encoded as f64 / 1e6
    );

    // Resident workload: a contiguous fragment spanning at most
    // `budget` segments — cold pass faults them in, warm passes are
    // pure cache hits.
    let resident_span = (budget * segment_nodes).min(nodes);
    let resident_pages: Vec<PageId> = (0..resident_span as u32).map(PageId).collect();
    // Streaming workload: a strided fragment sweeping every segment;
    // resident memory stays pinned at the budget the whole time.
    let stride = (nodes / (resident_span / 2).max(1)).max(1) * 2 + 1;
    let streaming_pages: Vec<PageId> = (0..nodes as u32).step_by(stride).map(PageId).collect();

    let mut run_lines: Vec<String> = Vec::new();
    let mut peak_resident_bytes = 0u64;

    println!(
        "{:>10} {:>10} {:>10} {:>18}",
        "workload", "cold s", "warm s", "score hash"
    );
    for (name, pages) in [
        ("resident", &resident_pages),
        ("streaming", &streaming_pages),
    ] {
        // Cold: a fresh SegmentedGraph faults everything from disk.
        let sg = open(&dir, budget);
        let (cold_secs, cold_hash) = peer_run(&sg, pages, nodes as u64);
        // Warm: same cache, rerun. For the resident workload every
        // access is a hit; for the streaming one the sweep still
        // thrashes the LRU (that is the point of the budget).
        let (warm_secs, warm_hash) = peer_run(&sg, pages, nodes as u64);
        assert_eq!(cold_hash, warm_hash, "{name}: warm rerun changed scores");
        if name == "resident" {
            let m = sg.metrics();
            assert!(
                m.hits_total.get() > 0,
                "resident warm pass produced no cache hits"
            );
        }
        peak_resident_bytes = peak_resident_bytes.max(sg.resident_bytes());
        assert!(
            sg.resident_bytes() < encoded,
            "resident bytes {} not below encoded size {encoded}",
            sg.resident_bytes()
        );
        println!(
            "{:>10} {:>10.3} {:>10.3} {:>18}",
            name,
            cold_secs,
            warm_secs,
            format!("{cold_hash:016x}")
        );
        run_lines.push(format!(
            "  \"{name}_run\": {{\"cold_seconds\": {cold_secs:.4}, \
             \"warm_seconds\": {warm_secs:.4}, \"score_hash\": \"{cold_hash:016x}\"}}"
        ));
    }
    println!(
        "peak resident {:.1} MB of {:.1} MB encoded ({:.1}%)",
        peak_resident_bytes as f64 / 1e6,
        encoded as f64 / 1e6,
        100.0 * peak_resident_bytes as f64 / encoded as f64
    );

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"workload\": \"synthetic crawl, per-peer extended-graph pagerank\","
    );
    let _ = writeln!(json, "  \"nodes\": {nodes},");
    let _ = writeln!(json, "  \"edges\": {},", manifest.num_edges);
    let _ = writeln!(json, "  \"segments\": {},", manifest.segments.len());
    let _ = writeln!(json, "  \"segment_nodes\": {segment_nodes},");
    let _ = writeln!(json, "  \"budget_segments\": {budget},");
    let _ = writeln!(json, "  \"encoded_bytes\": {encoded},");
    let _ = writeln!(json, "  \"peak_resident_bytes\": {peak_resident_bytes},");
    let _ = writeln!(json, "  \"build_seconds\": {build_secs:.3},");
    let _ = writeln!(
        json,
        "  \"verify\": {{\"nodes\": {verify_nodes}, \"threads\": [1, 2, 8], \
         \"bit_identical\": true}},"
    );
    let _ = writeln!(json, "{}", run_lines.join(",\n"));
    json.push_str("}\n");

    let path = std::env::var("JXP_RESULTS")
        .map(|d| PathBuf::from(d).join("BENCH_segment.json"))
        .unwrap_or_else(|_| PathBuf::from("BENCH_segment.json"));
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create results dir");
        }
    }
    std::fs::write(&path, &json).expect("write BENCH_segment.json");
    println!("[json] {}", path.display());
    if std::env::var("JXP_SEG_DIR").is_err() {
        let _ = std::fs::remove_dir_all(&base);
    }
}
