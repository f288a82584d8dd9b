//! Building a segment directory.
//!
//! [`SegmentWriter`] is a **streaming** builder: edges arrive in any
//! order, and each is appended to two per-segment spill files — the
//! forward spill of the segment owning its source, and the reverse
//! spill of the segment owning its target — as raw little-endian `u32`
//! pairs behind `BufWriter`s. `finish` then processes one segment at a
//! time: read its spills back, sort and deduplicate (the exact
//! `GraphBuilder` semantics, so the encoded adjacency is byte-for-byte
//! what a `CsrGraph` of the same edges would hold), encode the `JXPS`
//! container and **atomically install** it via `jxp_store::atomic`.
//! Peak memory is therefore bounded by the largest single segment, not
//! the graph — a 10M-node crawl builds in tens of MB.
//!
//! The manifest is installed last; a crash mid-build leaves spill/temp
//! files but never a readable manifest naming a missing or torn
//! segment. [`write_segments`] is the convenience path for graphs
//! already in memory.

use std::fs::{self, File};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use jxp_store::atomic;
use jxp_webgraph::PageId;

use crate::manifest::{encode_manifest, segment_file_name, Manifest, SegmentEntry, MANIFEST_FILE};
use crate::segment::{encode_segment, MAX_SEGMENT_NODES};
use crate::SegStoreError;

fn spill_name(dir: &Path, direction: char, seg: usize) -> PathBuf {
    dir.join(format!(".spill-{direction}-{seg:06}"))
}

/// Streaming builder of a segment directory.
pub struct SegmentWriter {
    dir: PathBuf,
    nodes_per_segment: u64,
    min_nodes: u64,
    max_id: Option<u32>,
    /// Lazily created spill writers, indexed by segment.
    fwd: Vec<Option<BufWriter<File>>>,
    rev: Vec<Option<BufWriter<File>>>,
}

impl SegmentWriter {
    /// Start building a segment directory at `dir` (created if absent;
    /// an existing manifest there is replaced on `finish`).
    ///
    /// # Panics
    /// Panics if `nodes_per_segment` is zero or above the format cap.
    pub fn create(dir: &Path, nodes_per_segment: usize) -> Result<Self, SegStoreError> {
        assert!(
            nodes_per_segment > 0 && nodes_per_segment <= MAX_SEGMENT_NODES,
            "nodes_per_segment must be in 1..={MAX_SEGMENT_NODES}"
        );
        fs::create_dir_all(dir)?;
        Ok(SegmentWriter {
            dir: dir.to_path_buf(),
            nodes_per_segment: nodes_per_segment as u64,
            min_nodes: 0,
            max_id: None,
            fwd: Vec::new(),
            rev: Vec::new(),
        })
    }

    /// Declare that the graph has at least `n` nodes (for trailing
    /// nodes with no edges), mirroring `GraphBuilder::ensure_nodes`.
    pub fn ensure_nodes(&mut self, n: usize) {
        self.min_nodes = self.min_nodes.max(n as u64);
    }

    /// Record the edge `src → dst`. Duplicates are deduplicated at
    /// `finish`, exactly as `GraphBuilder` does.
    pub fn add_edge(&mut self, src: PageId, dst: PageId) -> Result<(), SegStoreError> {
        self.max_id = Some(
            self.max_id
                .map_or(src.0.max(dst.0), |m| m.max(src.0).max(dst.0)),
        );
        let pair = [src.0.to_le_bytes(), dst.0.to_le_bytes()].concat();
        let fseg = (u64::from(src.0) / self.nodes_per_segment) as usize;
        self.spill(Dir::Fwd, fseg)?.write_all(&pair)?;
        let rpair = [dst.0.to_le_bytes(), src.0.to_le_bytes()].concat();
        let rseg = (u64::from(dst.0) / self.nodes_per_segment) as usize;
        self.spill(Dir::Rev, rseg)?.write_all(&rpair)?;
        Ok(())
    }

    fn spill(&mut self, dir: Dir, seg: usize) -> Result<&mut BufWriter<File>, SegStoreError> {
        let (vec, tag) = match dir {
            Dir::Fwd => (&mut self.fwd, 'f'),
            Dir::Rev => (&mut self.rev, 'r'),
        };
        if vec.len() <= seg {
            vec.resize_with(seg + 1, || None);
        }
        if vec[seg].is_none() {
            let f = File::create(spill_name(&self.dir, tag, seg))?;
            vec[seg] = Some(BufWriter::new(f));
        }
        Ok(vec[seg].as_mut().expect("just created"))
    }

    /// Sort, deduplicate, encode and atomically install every segment,
    /// then the manifest. Returns the manifest. Spill files are
    /// removed on success.
    pub fn finish(mut self) -> Result<Manifest, SegStoreError> {
        // Flush and drop every spill writer before reading them back.
        for w in self.fwd.iter_mut().chain(self.rev.iter_mut()) {
            if let Some(w) = w.as_mut() {
                w.flush()?;
            }
        }
        self.fwd.clear();
        self.rev.clear();

        let num_nodes = self
            .min_nodes
            .max(self.max_id.map_or(0, |m| u64::from(m) + 1));
        let num_segments = (num_nodes.div_ceil(self.nodes_per_segment)) as usize;

        let mut entries = Vec::with_capacity(num_segments);
        let mut fwd_total: u64 = 0;
        let mut rev_total: u64 = 0;
        for seg in 0..num_segments {
            let start = seg as u64 * self.nodes_per_segment;
            let n = (num_nodes - start).min(self.nodes_per_segment) as usize;
            let (fwd_off, fwd_adj) = build_lists(&spill_name(&self.dir, 'f', seg), start, n)?;
            let (rev_off, rev_adj) = build_lists(&spill_name(&self.dir, 'r', seg), start, n)?;
            fwd_total += fwd_adj.len() as u64;
            rev_total += rev_adj.len() as u64;
            let container =
                encode_segment(seg as u32, start, &fwd_off, &fwd_adj, &rev_off, &rev_adj);
            atomic::install(&self.dir.join(segment_file_name(seg)), &container)?;
            entries.push(SegmentEntry {
                nodes: n as u64,
                fwd_edges: fwd_adj.len() as u64,
                rev_edges: rev_adj.len() as u64,
                encoded_len: container.len() as u64,
            });
        }
        // Every edge appears once in its source's forward spill and
        // once in its target's reverse spill; after identical dedup the
        // totals must agree or something scrambled the spills.
        if fwd_total != rev_total {
            return Err(SegStoreError::corrupt(format!(
                "fwd/rev edge totals diverge: {fwd_total} vs {rev_total}"
            )));
        }

        let manifest = Manifest {
            num_nodes,
            num_edges: fwd_total,
            nodes_per_segment: self.nodes_per_segment,
            segments: entries,
        };
        atomic::install(&self.dir.join(MANIFEST_FILE), &encode_manifest(&manifest))?;

        for seg in 0..num_segments {
            for tag in ['f', 'r'] {
                let p = spill_name(&self.dir, tag, seg);
                if p.exists() {
                    fs::remove_file(p)?;
                }
            }
        }
        Ok(manifest)
    }
}

enum Dir {
    Fwd,
    Rev,
}

/// Read one spill file (raw `(key, other)` u32 pairs, `key` inside
/// `start..start+n`) and build sorted, deduplicated per-node lists.
fn build_lists(spill: &Path, start: u64, n: usize) -> Result<(Vec<u32>, Vec<u32>), SegStoreError> {
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    match File::open(spill) {
        Ok(mut f) => {
            let mut bytes = Vec::new();
            f.read_to_end(&mut bytes)?;
            if bytes.len() % 8 != 0 {
                return Err(SegStoreError::corrupt("torn spill file"));
            }
            pairs.reserve(bytes.len() / 8);
            for chunk in bytes.chunks_exact(8) {
                let key = u32::from_le_bytes(chunk[0..4].try_into().unwrap());
                let other = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
                pairs.push((key, other));
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }
    pairs.sort_unstable();
    pairs.dedup();

    let mut off = Vec::with_capacity(n + 1);
    off.push(0u32);
    let mut adj = Vec::with_capacity(pairs.len());
    let mut cursor = 0usize;
    for i in 0..n {
        let key = (start + i as u64) as u32;
        while cursor < pairs.len() && pairs[cursor].0 == key {
            adj.push(pairs[cursor].1);
            cursor += 1;
        }
        off.push(adj.len() as u32);
    }
    debug_assert_eq!(cursor, pairs.len(), "spill pair outside segment range");
    Ok((off, adj))
}

/// Write an in-memory graph as a segment directory (convenience over
/// [`SegmentWriter`] for tests and small graphs).
pub fn write_segments(
    g: &jxp_webgraph::CsrGraph,
    dir: &Path,
    nodes_per_segment: usize,
) -> Result<Manifest, SegStoreError> {
    let mut w = SegmentWriter::create(dir, nodes_per_segment)?;
    w.ensure_nodes(g.num_nodes());
    for (s, d) in g.edges() {
        w.add_edge(s, d)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{decode_segment, Directions};
    use jxp_webgraph::GraphBuilder;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jxp_segwriter_{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn streamed_edges_match_graphbuilder_semantics() {
        let dir = tmp("semantics");
        let edges = [(5u32, 1u32), (0, 1), (0, 1), (1, 5), (3, 0), (0, 4)];
        let mut w = SegmentWriter::create(&dir, 2).unwrap();
        w.ensure_nodes(7); // trailing isolated node
        for (s, d) in edges {
            w.add_edge(PageId(s), PageId(d)).unwrap();
        }
        let manifest = w.finish().unwrap();
        assert_eq!(manifest.num_nodes, 7);
        assert_eq!(manifest.num_edges, 5); // one duplicate dropped
        assert_eq!(manifest.segments.len(), 4);

        let mut b = GraphBuilder::new();
        b.ensure_nodes(7);
        for (s, d) in edges {
            b.add_edge(PageId(s), PageId(d));
        }
        let g = b.build();
        // Segment-by-segment, adjacency must equal the CsrGraph's.
        for seg in 0..manifest.segments.len() {
            let bytes = fs::read(dir.join(segment_file_name(seg))).unwrap();
            let d = decode_segment(&bytes, Directions::BOTH).unwrap();
            for i in 0..d.num_nodes() {
                let v = PageId(d.start as u32 + i as u32);
                let want: Vec<u32> = g.successors(v).map(|p| p.0).collect();
                assert_eq!(d.successors_at(i), &want[..], "fwd of {v}");
                let want: Vec<u32> = g.predecessors(v).map(|p| p.0).collect();
                assert_eq!(d.predecessors_at(i), &want[..], "rev of {v}");
            }
        }
    }

    #[test]
    fn spill_files_are_cleaned_up() {
        let dir = tmp("cleanup");
        let mut w = SegmentWriter::create(&dir, 4).unwrap();
        w.add_edge(PageId(0), PageId(9)).unwrap();
        w.finish().unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with(".spill"))
            .collect();
        assert!(leftovers.is_empty(), "leftover spills: {leftovers:?}");
    }

    #[test]
    fn empty_graph_yields_empty_manifest() {
        let dir = tmp("empty");
        let w = SegmentWriter::create(&dir, 4).unwrap();
        let m = w.finish().unwrap();
        assert_eq!(m.num_nodes, 0);
        assert_eq!(m.segments.len(), 0);
    }

    #[test]
    fn write_segments_round_trips_a_built_graph() {
        let dir = tmp("convenience");
        let mut b = GraphBuilder::new();
        for i in 0..50u32 {
            b.add_edge(PageId(i), PageId((i + 7) % 50));
            b.add_edge(PageId(i), PageId((i * 3 + 1) % 50));
        }
        let g = b.build();
        let m = write_segments(&g, &dir, 8).unwrap();
        assert_eq!(m.num_nodes, 50);
        assert_eq!(m.num_edges as usize, g.num_edges());
        assert_eq!(m.segments.len(), 7);
        assert!(m.total_encoded_bytes() > 0);
    }
}
