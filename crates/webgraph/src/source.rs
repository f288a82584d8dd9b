//! Backing-agnostic read access to a directed graph.
//!
//! [`GraphSource`] abstracts *where* a graph's adjacency lives: fully in
//! memory ([`CsrGraph`]) or on disk in demand-paged segments
//! (`jxp-segstore`'s `SegmentedGraph`). Everything downstream that only
//! *reads* a graph — fragment extraction, pull-based power iteration —
//! is generic over this trait, which is what lets per-peer
//! extended-graph PageRank run out-of-core.
//!
//! Two grains of access:
//!
//! * **per node** ([`out_degree`](GraphSource::out_degree),
//!   [`for_each_successor`](GraphSource::for_each_successor)) for
//!   consumers that pick scattered nodes, i.e. fragment extraction;
//! * **per block** ([`for_each_pred_block`](GraphSource::for_each_pred_block),
//!   [`for_each_degree_block`](GraphSource::for_each_degree_block)) for
//!   the power sweep, which walks every row of a node range. A block is
//!   a run of consecutive rows the backend already holds contiguously in
//!   reverse-CSR form, handed out as borrowed slices: `CsrGraph` answers
//!   any range with one block of its own arrays, a segmented backend
//!   with one block per segment the range overlaps — so the sweep pays
//!   one cache probe per (chunk, segment), not one per node.
//!
//! All methods take a closure instead of returning an iterator so that
//! implementations backed by a segment cache can hand out adjacency
//! from a guarded, transient buffer without lifetime gymnastics.
//!
//! # Ordering contract
//!
//! Implementations **must** visit successors and predecessors in
//! strictly ascending id order with no duplicates, and blocks in
//! ascending row order, back to back, covering the requested range
//! exactly. The repo-wide bit-identical determinism guarantee (same
//! scores at 1/2/8 threads, in memory or out of core) rests on every
//! backend producing the same adjacency in the same order, so the same
//! float operations run in the same sequence.

use std::ops::Range;

use crate::csr::CsrGraph;
use crate::id::PageId;

/// Read-only access to a directed graph with dense ids `0..num_nodes`.
///
/// `Sync` is a supertrait because graph reads happen concurrently from
/// the chunked power-iteration workers.
pub trait GraphSource: Sync {
    /// Number of nodes; ids are dense `0..num_nodes`.
    fn num_nodes(&self) -> usize;

    /// Number of directed edges.
    fn num_edges(&self) -> usize;

    /// Out-degree of `v`.
    fn out_degree(&self, v: PageId) -> usize;

    /// Visit the successors of `v` in ascending id order.
    fn for_each_successor<F: FnMut(PageId)>(&self, v: PageId, f: F);

    /// Visit the predecessor lists of rows `rows.start .. rows.end` as
    /// reverse-CSR blocks: `f(first_row, offsets, preds)` where
    /// `offsets.len() - 1` rows start at global row `first_row` and row
    /// `first_row + k` has predecessors
    /// `preds[offsets[k] as usize .. offsets[k + 1] as usize]`
    /// (ascending global ids; `preds` may extend past the block).
    /// Blocks arrive in ascending row order and tile `rows` exactly; an
    /// empty range yields no block.
    ///
    /// # Panics
    /// Panics if `rows.end > num_nodes()`.
    fn for_each_pred_block<F: FnMut(usize, &[u32], &[u32])>(&self, rows: Range<usize>, f: F);

    /// Visit the out-degrees of rows `rows.start .. rows.end` block by
    /// block: `f(first_row, offsets)` where row `first_row + k` has
    /// out-degree `offsets[k + 1] - offsets[k]`. Same tiling and order
    /// as [`for_each_pred_block`](GraphSource::for_each_pred_block).
    ///
    /// # Panics
    /// Panics if `rows.end > num_nodes()`.
    fn for_each_degree_block<F: FnMut(usize, &[u32])>(&self, rows: Range<usize>, f: F);

    /// Successor list of `v`, ascending (allocating convenience).
    ///
    /// Note: `CsrGraph` has an inherent `successors` returning a
    /// borrowed iterator; on a concrete `CsrGraph` that method shadows
    /// this one, which only differs in allocating.
    fn successors(&self, v: PageId) -> Vec<PageId> {
        // No `out_degree` pre-sizing: on a segmented backend that is a
        // second cache probe, asking for different directions.
        let mut out = Vec::new();
        self.for_each_successor(v, |u| out.push(u));
        out
    }

    /// Nodes with zero out-degree, in ascending id order — the exact
    /// sequence `CsrGraph::dangling_nodes` yields, so dangling-mass
    /// accumulation sums in the same order on every backend.
    fn dangling(&self) -> Vec<PageId> {
        let mut out = Vec::new();
        self.for_each_degree_block(0..self.num_nodes(), |first, offsets| {
            for (k, w) in offsets.windows(2).enumerate() {
                if w[0] == w[1] {
                    out.push(PageId::from_index(first + k));
                }
            }
        });
        out
    }
}

impl GraphSource for CsrGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        CsrGraph::num_nodes(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    #[inline]
    fn out_degree(&self, v: PageId) -> usize {
        CsrGraph::out_degree(self, v)
    }

    #[inline]
    fn for_each_successor<F: FnMut(PageId)>(&self, v: PageId, mut f: F) {
        for u in CsrGraph::successors(self, v) {
            f(u);
        }
    }

    #[inline]
    fn for_each_pred_block<F: FnMut(usize, &[u32], &[u32])>(&self, rows: Range<usize>, mut f: F) {
        if !rows.is_empty() {
            let (offsets, preds) = self.rev_csr();
            f(rows.start, &offsets[rows.start..=rows.end], preds);
        }
    }

    #[inline]
    fn for_each_degree_block<F: FnMut(usize, &[u32])>(&self, rows: Range<usize>, mut f: F) {
        if !rows.is_empty() {
            f(rows.start, &self.fwd_offsets()[rows.start..=rows.end]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for (s, d) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_edge(PageId(s), PageId(d));
        }
        b.build()
    }

    /// The block contract, through a generic source (not CsrGraph's
    /// shadowing inherent methods): the visitors' blocks tile `rows`
    /// back to back, and read row by row they are
    /// `CsrGraph::predecessors` and `CsrGraph::out_degree`.
    fn assert_blocks_match_csr<G: GraphSource>(src: &G, g: &CsrGraph, rows: Range<usize>) {
        let mut next = rows.start;
        src.for_each_pred_block(rows.clone(), |first, offsets, preds| {
            assert_eq!(first, next, "pred blocks must be back to back");
            assert!(offsets.len() > 1, "empty block");
            for (k, w) in offsets.windows(2).enumerate() {
                let v = PageId::from_index(first + k);
                let want: Vec<u32> = g.predecessors(v).map(|p| p.0).collect();
                assert_eq!(&preds[w[0] as usize..w[1] as usize], &want[..], "pred {v}");
            }
            next += offsets.len() - 1;
        });
        assert_eq!(next, rows.end, "pred blocks must cover {rows:?}");
        let mut next = rows.start;
        src.for_each_degree_block(rows.clone(), |first, offsets| {
            assert_eq!(first, next, "degree blocks must be back to back");
            for (k, w) in offsets.windows(2).enumerate() {
                let v = PageId::from_index(first + k);
                assert_eq!((w[1] - w[0]) as usize, g.out_degree(v), "out-degree {v}");
            }
            next += offsets.len() - 1;
        });
        assert_eq!(next, rows.end, "degree blocks must cover {rows:?}");
    }

    /// 23 nodes with hubs and dangling pages (every fifth).
    fn ragged() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.ensure_nodes(23);
        for i in 0..23u32 {
            if i % 5 == 4 {
                continue;
            }
            b.add_edge(PageId(i), PageId((i + 1) % 23));
            b.add_edge(PageId(i), PageId((i * 7 + 2) % 23));
            b.add_edge(PageId(i), PageId(0));
        }
        b.build()
    }

    #[test]
    fn csr_impl_matches_inherent_accessors() {
        let g = diamond();
        assert_eq!(GraphSource::num_nodes(&g), 4);
        assert_eq!(GraphSource::num_edges(&g), 4);
        for v in g.nodes() {
            let mut succ = Vec::new();
            GraphSource::for_each_successor(&g, v, |u| succ.push(u));
            assert_eq!(succ, g.successors(v).collect::<Vec<_>>());
            assert_eq!(GraphSource::out_degree(&g, v), g.out_degree(v));
        }
        assert_blocks_match_csr(&g, &g, 0..4);
    }

    #[test]
    fn csr_answers_any_range_with_one_block() {
        let g = ragged();
        for rows in [0..23, 0..1, 22..23, 7..19] {
            let mut blocks = 0;
            g.for_each_pred_block(rows.clone(), |_, _, _| blocks += 1);
            assert_eq!(blocks, 1, "{rows:?}");
            assert_blocks_match_csr(&g, &g, rows);
        }
    }

    #[test]
    fn empty_range_yields_no_block() {
        let g = ragged();
        for at in [0, 11, 23] {
            g.for_each_pred_block(at..at, |_, _, _| panic!("block for an empty range"));
            g.for_each_degree_block(at..at, |_, _| panic!("block for an empty range"));
        }
    }

    proptest::proptest! {
        #[test]
        fn blocks_reproduce_predecessors_and_degrees_for_every_range(
            start in 0usize..24,
            len in 0usize..24,
        ) {
            let g = ragged();
            let start = start.min(23);
            let end = (start + len).min(23);
            assert_blocks_match_csr(&g, &g, start..end);
        }
    }

    #[test]
    fn provided_successors_allocates_sorted_list() {
        let g = diamond();
        assert_eq!(
            GraphSource::successors(&g, PageId(0)),
            vec![PageId(1), PageId(2)]
        );
        assert!(GraphSource::successors(&g, PageId(3)).is_empty());
    }

    #[test]
    fn provided_dangling_matches_dangling_nodes() {
        let g = diamond();
        assert_eq!(
            GraphSource::dangling(&g),
            g.dangling_nodes().collect::<Vec<_>>()
        );
    }
}
