//! Immutable compressed-sparse-row graph.

use crate::id::PageId;

/// An immutable directed graph in compressed-sparse-row form, storing both
/// forward (successor) and reverse (predecessor) adjacency.
///
/// Both directions are needed throughout the reproduction: PageRank's
/// pull-style formulation iterates over predecessors, while the JXP world
/// node and the pre-meetings synopses reason about successors.
///
/// Node ids are dense `0..num_nodes`. Adjacency lists are sorted, enabling
/// `O(log d)` [`has_edge`](CsrGraph::has_edge) and linear-time merges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `fwd_off[v]..fwd_off[v+1]` indexes `fwd_adj` with the successors of `v`.
    fwd_off: Vec<u32>,
    fwd_adj: Vec<u32>,
    /// `rev_off[v]..rev_off[v+1]` indexes `rev_adj` with the predecessors of `v`.
    rev_off: Vec<u32>,
    rev_adj: Vec<u32>,
}

impl CsrGraph {
    /// Build from an edge list that is already sorted by `(src, dst)` and
    /// deduplicated. `n` is the number of nodes.
    ///
    /// # Panics
    /// Panics (debug assertions) if the input is not sorted/deduplicated or
    /// references a node `>= n`.
    pub(crate) fn from_sorted_dedup_edges(n: usize, edges: &[(PageId, PageId)]) -> Self {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges not sorted+dedup"
        );
        let m = edges.len();
        let mut fwd_off = vec![0u32; n + 1];
        let mut rev_off = vec![0u32; n + 1];
        for &(s, d) in edges {
            debug_assert!(s.index() < n && d.index() < n);
            fwd_off[s.index() + 1] += 1;
            rev_off[d.index() + 1] += 1;
        }
        for i in 0..n {
            fwd_off[i + 1] += fwd_off[i];
            rev_off[i + 1] += rev_off[i];
        }
        let mut fwd_adj = vec![0u32; m];
        let mut rev_adj = vec![0u32; m];
        // Forward lists come out sorted for free because the edge list is
        // sorted by (src, dst).
        let mut cursor = fwd_off.clone();
        for &(s, d) in edges {
            let c = &mut cursor[s.index()];
            fwd_adj[*c as usize] = d.0;
            *c += 1;
        }
        let mut rcursor = rev_off.clone();
        for &(s, d) in edges {
            let c = &mut rcursor[d.index()];
            rev_adj[*c as usize] = s.0;
            *c += 1;
        }
        // Reverse lists are filled in src order per destination, i.e. sorted.
        debug_assert!((0..n).all(|v| {
            let r = rev_off[v] as usize..rev_off[v + 1] as usize;
            rev_adj[r].windows(2).all(|w| w[0] < w[1])
        }));
        CsrGraph {
            fwd_off,
            fwd_adj,
            rev_off,
            rev_adj,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.fwd_off.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.fwd_adj.len()
    }

    /// Successors of `v` (sorted).
    #[inline]
    pub fn successors(&self, v: PageId) -> impl Iterator<Item = PageId> + '_ {
        let r = self.fwd_off[v.index()] as usize..self.fwd_off[v.index() + 1] as usize;
        self.fwd_adj[r].iter().map(|&u| PageId(u))
    }

    /// Predecessors of `v` (sorted).
    #[inline]
    pub fn predecessors(&self, v: PageId) -> impl Iterator<Item = PageId> + '_ {
        let r = self.rev_off[v.index()] as usize..self.rev_off[v.index() + 1] as usize;
        self.rev_adj[r].iter().map(|&u| PageId(u))
    }

    /// The reverse adjacency as raw CSR arrays `(rev_off, rev_adj)` — the
    /// block [`GraphSource`](crate::GraphSource) hands to the sweep.
    #[inline]
    pub(crate) fn rev_csr(&self) -> (&[u32], &[u32]) {
        (&self.rev_off, &self.rev_adj)
    }

    /// The forward offsets array: out-degrees as consecutive differences.
    #[inline]
    pub(crate) fn fwd_offsets(&self) -> &[u32] {
        &self.fwd_off
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: PageId) -> usize {
        (self.fwd_off[v.index() + 1] - self.fwd_off[v.index()]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: PageId) -> usize {
        (self.rev_off[v.index() + 1] - self.rev_off[v.index()]) as usize
    }

    /// The `k`-th successor of `v` (successors are sorted by id).
    ///
    /// # Panics
    /// Panics if `k >= out_degree(v)`.
    #[inline]
    pub fn successor_at(&self, v: PageId, k: usize) -> PageId {
        let base = self.fwd_off[v.index()] as usize;
        debug_assert!(k < self.out_degree(v));
        PageId(self.fwd_adj[base + k])
    }

    /// Whether the edge `src → dst` exists (binary search, `O(log d)`).
    pub fn has_edge(&self, src: PageId, dst: PageId) -> bool {
        let r = self.fwd_off[src.index()] as usize..self.fwd_off[src.index() + 1] as usize;
        self.fwd_adj[r].binary_search(&dst.0).is_ok()
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = PageId> + '_ {
        (0..self.num_nodes() as u32).map(PageId)
    }

    /// All edges, in `(src, dst)` order.
    pub fn edges(&self) -> impl Iterator<Item = (PageId, PageId)> + '_ {
        self.nodes()
            .flat_map(move |v| self.successors(v).map(move |u| (v, u)))
    }

    /// Nodes with zero out-degree ("dangling" pages).
    pub fn dangling_nodes(&self) -> impl Iterator<Item = PageId> + '_ {
        self.nodes().filter(move |&v| self.out_degree(v) == 0)
    }

    /// Count of dangling (zero out-degree) nodes.
    pub fn num_dangling(&self) -> usize {
        self.dangling_nodes().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> CsrGraph {
        // 0 → 1, 0 → 2, 1 → 3, 2 → 3
        let mut b = GraphBuilder::new();
        for (s, d) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.add_edge(PageId(s), PageId(d));
        }
        b.build()
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(PageId(0)), 2);
        assert_eq!(g.in_degree(PageId(0)), 0);
        assert_eq!(g.out_degree(PageId(3)), 0);
        assert_eq!(g.in_degree(PageId(3)), 2);
    }

    #[test]
    fn successors_and_predecessors_sorted() {
        let g = diamond();
        let succ: Vec<_> = g.successors(PageId(0)).collect();
        assert_eq!(succ, vec![PageId(1), PageId(2)]);
        let pred: Vec<_> = g.predecessors(PageId(3)).collect();
        assert_eq!(pred, vec![PageId(1), PageId(2)]);
    }

    #[test]
    fn has_edge() {
        let g = diamond();
        assert!(g.has_edge(PageId(0), PageId(1)));
        assert!(!g.has_edge(PageId(1), PageId(0)));
        assert!(!g.has_edge(PageId(0), PageId(3)));
    }

    #[test]
    fn edges_round_trip() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                (PageId(0), PageId(1)),
                (PageId(0), PageId(2)),
                (PageId(1), PageId(3)),
                (PageId(2), PageId(3)),
            ]
        );
    }

    #[test]
    fn dangling_nodes() {
        let g = diamond();
        let d: Vec<_> = g.dangling_nodes().collect();
        assert_eq!(d, vec![PageId(3)]);
        assert_eq!(g.num_dangling(), 1);
    }

    #[test]
    fn successor_at_indexes_sorted_adjacency() {
        let g = diamond();
        assert_eq!(g.successor_at(PageId(0), 0), PageId(1));
        assert_eq!(g.successor_at(PageId(0), 1), PageId(2));
        let collected: Vec<PageId> = (0..g.out_degree(PageId(0)))
            .map(|k| g.successor_at(PageId(0), k))
            .collect();
        assert_eq!(collected, g.successors(PageId(0)).collect::<Vec<_>>());
    }

    #[test]
    fn edge_count_matches_degree_sums() {
        let g = diamond();
        let out_sum: usize = g.nodes().map(|v| g.out_degree(v)).sum();
        let in_sum: usize = g.nodes().map(|v| g.in_degree(v)).sum();
        assert_eq!(out_sum, g.num_edges());
        assert_eq!(in_sum, g.num_edges());
    }
}
