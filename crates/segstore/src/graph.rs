//! [`SegmentedGraph`]: the out-of-core [`GraphSource`].
//!
//! Opens a segment directory (manifest + `JXPS` containers) and serves
//! the `GraphSource` contract by faulting segments through the LRU
//! [`SegmentCache`]. Because a decoded segment holds exactly the
//! sorted, deduplicated adjacency a `CsrGraph` of the same edges would
//! hold, and iteration is always ascending, every consumer — fragment
//! extraction, pull-based power iteration, per-peer extended-graph
//! PageRank — produces **bit-identical** results against either
//! backend, at any thread count and any cache budget.
//!
//! A decoded segment already *is* a reverse-CSR row block, so the block
//! visitors hand it to the sweep whole: one cache probe per (node
//! range, segment) pair, the `Arc` held while the block is walked, and
//! only the directions the visitor reads decoded (predecessors for the
//! sweep, none for the degree pass).
//!
//! [`verify_dir`] is the integrity sweep behind `jxp graph verify`:
//! decode every segment (full CRC + codec validation) and cross-check
//! it against the manifest.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use jxp_webgraph::{GraphSource, PageId};

use crate::backing::{BackingKind, PreadBacking, ReadBacking, SegmentBacking};
use crate::cache::SegmentCache;
use crate::manifest::{decode_manifest, segment_file_name, Manifest, MANIFEST_FILE};
use crate::metrics::SegstoreMetrics;
use crate::segment::{decode_segment, DecodedSegment, Directions};
use crate::SegStoreError;

/// How a [`SegmentedGraph`] faults and caches segments.
#[derive(Debug, Clone, Copy)]
pub struct SegStoreConfig {
    /// Maximum decoded segments resident at once (the out-of-core
    /// memory cap). Must be ≥ 1.
    pub resident_segments: usize,
    /// How raw container bytes are fetched.
    pub backing: BackingKind,
}

impl Default for SegStoreConfig {
    fn default() -> Self {
        SegStoreConfig {
            resident_segments: 8,
            backing: BackingKind::Pread,
        }
    }
}

/// A disk-backed graph served segment-by-segment through an LRU cache.
pub struct SegmentedGraph {
    manifest: Manifest,
    cache: SegmentCache,
}

impl SegmentedGraph {
    /// Open the segment directory at `dir` with default config and
    /// detached metrics.
    pub fn open(dir: &Path) -> Result<Self, SegStoreError> {
        Self::open_with(dir, SegStoreConfig::default(), SegstoreMetrics::detached())
    }

    /// Open with an explicit cache config and metrics destination.
    pub fn open_with(
        dir: &Path,
        config: SegStoreConfig,
        metrics: SegstoreMetrics,
    ) -> Result<Self, SegStoreError> {
        let manifest = decode_manifest(&std::fs::read(dir.join(MANIFEST_FILE))?)?;
        let count = manifest.segments.len();
        let backing: Box<dyn SegmentBacking> = match config.backing {
            BackingKind::Read => Box::new(ReadBacking::new(dir, count)),
            BackingKind::Pread => Box::new(PreadBacking::open(dir, count)?),
        };
        Ok(SegmentedGraph {
            manifest,
            cache: SegmentCache::new(backing, config.resident_segments, metrics),
        })
    }

    /// The directory manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Total on-disk (encoded) size of all segments in bytes.
    pub fn total_encoded_bytes(&self) -> u64 {
        self.manifest.total_encoded_bytes()
    }

    /// Decoded heap bytes currently resident in the cache.
    pub fn resident_bytes(&self) -> u64 {
        self.cache.resident_bytes()
    }

    /// The metrics the cache reports into.
    pub fn metrics(&self) -> &SegstoreMetrics {
        self.cache.metrics()
    }

    /// Load the segment holding node `v` with the directions in `want`
    /// (through the cache), and return it with `v`'s index inside it.
    fn segment_for(&self, v: usize, want: Directions) -> (Arc<DecodedSegment>, usize) {
        let idx = self.manifest.segment_of(v as u64);
        let seg = self
            .cache
            .get_with(idx, want)
            .unwrap_or_else(|e| panic!("segment {idx} unreadable: {e}"));
        let base = seg.start as usize;
        assert!(
            base <= v && v - base < seg.num_nodes(),
            "segment {idx} does not hold node {v}"
        );
        (seg, v - base)
    }

    /// Tile `rows` with the segments that hold them: `f(first_row,
    /// segment, local_rows)` per overlapped segment, ascending.
    fn for_each_segment_block<F>(&self, rows: Range<usize>, want: Directions, mut f: F)
    where
        F: FnMut(usize, &DecodedSegment, Range<usize>),
    {
        assert!(
            rows.end <= self.manifest.num_nodes as usize,
            "rows {rows:?} past the graph's {} nodes",
            self.manifest.num_nodes
        );
        let mut row = rows.start;
        while row < rows.end {
            let (seg, lo) = self.segment_for(row, want);
            let hi = (lo + (rows.end - row)).min(seg.num_nodes());
            f(row, &seg, lo..hi);
            row += hi - lo;
        }
    }
}

impl GraphSource for SegmentedGraph {
    fn num_nodes(&self) -> usize {
        self.manifest.num_nodes as usize
    }

    fn num_edges(&self) -> usize {
        self.manifest.num_edges as usize
    }

    fn out_degree(&self, v: PageId) -> usize {
        let (seg, i) = self.segment_for(v.index(), Directions::NONE);
        (seg.fwd_off[i + 1] - seg.fwd_off[i]) as usize
    }

    fn for_each_successor<F: FnMut(PageId)>(&self, v: PageId, mut f: F) {
        let (seg, i) = self.segment_for(v.index(), Directions::FWD);
        for &u in seg.successors_at(i) {
            f(PageId(u));
        }
    }

    fn for_each_pred_block<F: FnMut(usize, &[u32], &[u32])>(&self, rows: Range<usize>, mut f: F) {
        self.for_each_segment_block(rows, Directions::REV, |first, seg, local| {
            f(first, &seg.rev_off[local.start..=local.end], &seg.rev_adj);
        });
    }

    fn for_each_degree_block<F: FnMut(usize, &[u32])>(&self, rows: Range<usize>, mut f: F) {
        self.for_each_segment_block(rows, Directions::NONE, |first, seg, local| {
            f(first, &seg.fwd_off[local.start..=local.end]);
        });
    }
}

/// One segment's verification outcome.
#[derive(Debug)]
pub struct SegmentStatus {
    /// Segment index.
    pub index: usize,
    /// Nodes covered (from the manifest).
    pub nodes: u64,
    /// Container size on disk in bytes.
    pub encoded_len: u64,
    /// `None` if the segment decoded cleanly and matches the manifest;
    /// otherwise the failure description.
    pub error: Option<String>,
}

/// Result of CRC-verifying a whole segment directory.
#[derive(Debug)]
pub struct VerifyReport {
    /// The decoded manifest.
    pub manifest: Manifest,
    /// Per-segment outcomes, in segment order.
    pub segments: Vec<SegmentStatus>,
}

impl VerifyReport {
    /// Number of segments that failed verification.
    pub fn broken(&self) -> usize {
        self.segments.iter().filter(|s| s.error.is_some()).count()
    }
}

/// Decode and fully validate every segment in `dir` against its
/// manifest. Reads one segment at a time, so verification of a graph
/// far larger than memory is fine. An unreadable or corrupt manifest
/// is an `Err`; per-segment corruption is reported in the result.
pub fn verify_dir(dir: &Path) -> Result<VerifyReport, SegStoreError> {
    let manifest = decode_manifest(&std::fs::read(dir.join(MANIFEST_FILE))?)?;
    let mut segments = Vec::with_capacity(manifest.segments.len());
    for (i, entry) in manifest.segments.iter().enumerate() {
        let error = check_segment(dir, &manifest, i)
            .err()
            .map(|e| e.to_string());
        segments.push(SegmentStatus {
            index: i,
            nodes: entry.nodes,
            encoded_len: entry.encoded_len,
            error,
        });
    }
    Ok(VerifyReport { manifest, segments })
}

fn check_segment(dir: &Path, manifest: &Manifest, i: usize) -> Result<(), SegStoreError> {
    let entry = &manifest.segments[i];
    let bytes = std::fs::read(dir.join(segment_file_name(i)))?;
    let seg = decode_segment(&bytes, Directions::BOTH)?;
    if seg.index as usize != i
        || seg.start != manifest.segment_start(i)
        || seg.num_nodes() as u64 != entry.nodes
        || seg.fwd_adj.len() as u64 != entry.fwd_edges
        || seg.rev_adj.len() as u64 != entry.rev_edges
        || bytes.len() as u64 != entry.encoded_len
    {
        return Err(SegStoreError::corrupt(
            "segment disagrees with manifest entry",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_segments;
    use jxp_webgraph::{CsrGraph, GraphBuilder};
    use std::fs;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jxp_seggraph_{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_graph() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.ensure_nodes(23); // deliberately not a multiple of the segment size
        for i in 0..23u32 {
            if i % 5 == 4 {
                continue; // dangling
            }
            b.add_edge(PageId(i), PageId((i + 1) % 23));
            b.add_edge(PageId(i), PageId((i * 7 + 2) % 23));
        }
        b.build()
    }

    fn open_sample(name: &str, budget: usize, kind: BackingKind) -> (CsrGraph, SegmentedGraph) {
        let dir = tmp(name);
        let g = sample_graph();
        write_segments(&g, &dir, 4).unwrap();
        let sg = SegmentedGraph::open_with(
            &dir,
            SegStoreConfig {
                resident_segments: budget,
                backing: kind,
            },
            SegstoreMetrics::detached(),
        )
        .unwrap();
        (g, sg)
    }

    /// The block contract: the visitors' blocks tile `rows` back to
    /// back, and read row by row they are `CsrGraph::predecessors` and
    /// `CsrGraph::out_degree`. Returns the number of pred blocks.
    fn assert_blocks_match_csr(sg: &SegmentedGraph, g: &CsrGraph, rows: Range<usize>) -> usize {
        let (mut next, mut blocks) = (rows.start, 0);
        sg.for_each_pred_block(rows.clone(), |first, offsets, preds| {
            assert_eq!(first, next, "pred blocks must be back to back");
            assert!(offsets.len() > 1, "empty block");
            for (k, w) in offsets.windows(2).enumerate() {
                let v = PageId::from_index(first + k);
                let want: Vec<u32> = g.predecessors(v).map(|p| p.0).collect();
                assert_eq!(&preds[w[0] as usize..w[1] as usize], &want[..], "pred {v}");
            }
            next += offsets.len() - 1;
            blocks += 1;
        });
        assert_eq!(next, rows.end, "pred blocks must cover {rows:?}");
        let mut next = rows.start;
        sg.for_each_degree_block(rows.clone(), |first, offsets| {
            assert_eq!(first, next, "degree blocks must be back to back");
            for (k, w) in offsets.windows(2).enumerate() {
                let v = PageId::from_index(first + k);
                assert_eq!((w[1] - w[0]) as usize, g.out_degree(v), "out-degree {v}");
            }
            next += offsets.len() - 1;
        });
        assert_eq!(next, rows.end, "degree blocks must cover {rows:?}");
        blocks
    }

    fn assert_source_equal(g: &CsrGraph, sg: &SegmentedGraph) {
        assert_eq!(GraphSource::num_nodes(sg), g.num_nodes());
        assert_eq!(GraphSource::num_edges(sg), g.num_edges());
        for v in g.nodes() {
            assert_eq!(GraphSource::out_degree(sg, v), g.out_degree(v), "{v}");
            let mut succ = Vec::new();
            sg.for_each_successor(v, |u| succ.push(u));
            assert_eq!(succ, g.successors(v).collect::<Vec<_>>(), "succ {v}");
        }
        assert_blocks_match_csr(sg, g, 0..g.num_nodes());
        assert_eq!(
            GraphSource::dangling(sg),
            g.dangling_nodes().collect::<Vec<_>>()
        );
    }

    #[test]
    fn adjacency_matches_csr_with_pread_backing() {
        let (g, sg) = open_sample("pread", 2, BackingKind::Pread);
        assert_source_equal(&g, &sg);
        // The 2-segment budget over 6 segments forced eviction churn.
        assert!(sg.metrics().evictions_total.get() > 0);
        assert!(sg.resident_bytes() > 0);
        assert!(sg.total_encoded_bytes() > 0);
    }

    #[test]
    fn adjacency_matches_csr_with_read_backing() {
        let (g, sg) = open_sample("read", 2, BackingKind::Read);
        assert_source_equal(&g, &sg);
    }

    #[test]
    fn a_range_yields_one_block_per_overlapped_segment() {
        // 23 nodes in 4-node segments: five full ones and a ragged
        // last segment of 3.
        let (g, sg) = open_sample("blocks", 2, BackingKind::Pread);
        for (rows, blocks) in [
            (8..12, 1),  // exactly one segment
            (9..11, 1),  // inside one segment
            (3..13, 4),  // straddles 0|1|2|3, ragged at both ends
            (7..17, 4),  // straddles 1|2|3|4
            (18..23, 2), // ends in the ragged last segment
            (20..23, 1), // the ragged last segment alone
            (0..23, 6),  // everything
        ] {
            assert_eq!(
                assert_blocks_match_csr(&sg, &g, rows.clone()),
                blocks,
                "{rows:?}"
            );
        }
    }

    #[test]
    fn an_empty_range_yields_no_block_and_no_probe() {
        let (_, sg) = open_sample("empty", 2, BackingKind::Pread);
        for at in [0, 4, 13, 23] {
            sg.for_each_pred_block(at..at, |_, _, _| panic!("block for an empty range"));
            sg.for_each_degree_block(at..at, |_, _| panic!("block for an empty range"));
        }
        let m = sg.metrics();
        assert_eq!(m.hits_total.get() + m.misses_total.get(), 0);
    }

    #[test]
    #[should_panic(expected = "past the graph")]
    fn a_range_past_the_last_node_panics() {
        let (_, sg) = open_sample("past", 2, BackingKind::Pread);
        sg.for_each_pred_block(20..24, |_, _, _| {});
    }

    #[test]
    fn blocks_agree_with_csr_under_every_budget_and_backing() {
        for (budget, kind) in [
            (1, BackingKind::Read),
            (1, BackingKind::Pread),
            (3, BackingKind::Read),
            (3, BackingKind::Pread),
            (64, BackingKind::Read),
            (64, BackingKind::Pread),
        ] {
            let (g, sg) = open_sample(&format!("budget_{budget}_{kind:?}"), budget, kind);
            assert_source_equal(&g, &sg);
            for rows in [0..23, 3..13, 18..23, 22..23] {
                assert_blocks_match_csr(&sg, &g, rows);
            }
            assert!(sg.metrics().resident_segments.get() <= budget as f64);
        }
    }

    #[test]
    fn a_block_costs_one_probe_and_decodes_only_what_it_reads() {
        let (_, sg) = open_sample("probes", 6, BackingKind::Pread);
        let m = sg.metrics();
        // Degree pass: one miss per segment, no adjacency resident.
        sg.for_each_degree_block(0..23, |_, _| {});
        assert_eq!((m.hits_total.get(), m.misses_total.get()), (0, 6));
        let degrees_only = sg.resident_bytes();
        assert_eq!(degrees_only, 4 * 2 * (23 + 6));
        // First sweep upgrades each segment to its reverse lists …
        sg.for_each_pred_block(0..23, |_, _, _| {});
        assert_eq!((m.hits_total.get(), m.misses_total.get()), (0, 12));
        assert!(sg.resident_bytes() > degrees_only);
        // … and from then on a range is one hit per overlapped segment.
        sg.for_each_pred_block(3..13, |_, _, _| {});
        assert_eq!((m.hits_total.get(), m.misses_total.get()), (4, 12));
        sg.for_each_degree_block(0..23, |_, _| {});
        assert_eq!((m.hits_total.get(), m.misses_total.get()), (10, 12));
    }

    proptest::proptest! {
        #[test]
        fn blocks_reproduce_csr_for_every_range(start in 0usize..24, len in 0usize..24, budget in 1usize..8) {
            let (g, sg) = open_sample("prop", budget, BackingKind::Pread);
            let start = start.min(23);
            let end = (start + len).min(23);
            let blocks = assert_blocks_match_csr(&sg, &g, start..end);
            // One block per segment the range overlaps.
            let want = if start == end { 0 } else { (end - 1) / 4 - start / 4 + 1 };
            assert_eq!(blocks, want);
        }
    }

    #[test]
    fn verify_reports_clean_directory() {
        let dir = tmp("verify_clean");
        write_segments(&sample_graph(), &dir, 4).unwrap();
        let report = verify_dir(&dir).unwrap();
        assert_eq!(report.broken(), 0);
        assert_eq!(report.segments.len(), 6);
    }

    #[test]
    fn verify_detects_any_single_byte_flip() {
        let dir = tmp("verify_flip");
        write_segments(&sample_graph(), &dir, 4).unwrap();
        let target = dir.join(segment_file_name(3));
        let good = fs::read(&target).unwrap();
        // Flip a byte in the middle of the container.
        let mut bad = good.clone();
        bad[good.len() / 2] ^= 0x10;
        fs::write(&target, &bad).unwrap();
        let report = verify_dir(&dir).unwrap();
        assert_eq!(report.broken(), 1);
        assert!(report.segments[3].error.is_some());
        assert!(report.segments[0].error.is_none());
    }

    #[test]
    fn verify_detects_truncated_segment() {
        let dir = tmp("verify_trunc");
        write_segments(&sample_graph(), &dir, 4).unwrap();
        let target = dir.join(segment_file_name(0));
        let good = fs::read(&target).unwrap();
        fs::write(&target, &good[..good.len() - 1]).unwrap();
        assert_eq!(verify_dir(&dir).unwrap().broken(), 1);
    }

    #[test]
    fn open_rejects_missing_manifest() {
        let dir = tmp("no_manifest");
        fs::create_dir_all(&dir).unwrap();
        assert!(SegmentedGraph::open(&dir).is_err());
    }

    #[test]
    fn open_rejects_corrupt_manifest() {
        let dir = tmp("bad_manifest");
        write_segments(&sample_graph(), &dir, 4).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(SegmentedGraph::open(&dir).is_err());
    }
}
