//! Mutable graph construction.

use crate::csr::CsrGraph;
use crate::id::PageId;

/// An edge-list accumulator that produces an immutable [`CsrGraph`].
///
/// Duplicate edges are removed at [`build`](GraphBuilder::build) time;
/// self-loops are kept (the paper's world node itself carries a self-loop,
/// and real Web graphs contain self-links).
///
/// The number of nodes of the built graph is `max(max referenced id + 1,
/// reserved node count)` — isolated trailing nodes can be forced into the
/// graph with [`ensure_node`](GraphBuilder::ensure_node).
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    edges: Vec<(PageId, PageId)>,
    min_nodes: usize,
}

impl GraphBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty builder with pre-allocated capacity for `edges` edges.
    pub fn with_capacity(edges: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(edges),
            min_nodes: 0,
        }
    }

    /// Add a directed edge `src → dst`.
    pub fn add_edge(&mut self, src: PageId, dst: PageId) {
        self.edges.push((src, dst));
    }

    /// Guarantee that `id` exists as a node in the built graph even if no
    /// edge references it.
    pub fn ensure_node(&mut self, id: PageId) {
        self.min_nodes = self.min_nodes.max(id.index() + 1);
    }

    /// Guarantee the graph has at least `n` nodes.
    pub fn ensure_nodes(&mut self, n: usize) {
        self.min_nodes = self.min_nodes.max(n);
    }

    /// Consume the builder and produce a deduplicated, sorted [`CsrGraph`].
    pub fn build(mut self) -> CsrGraph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let n = self
            .edges
            .iter()
            .map(|&(s, d)| s.index().max(d.index()) + 1)
            .max()
            .unwrap_or(0)
            .max(self.min_nodes);
        CsrGraph::from_sorted_dedup_edges(n, &self.edges)
    }
}

impl FromIterator<(PageId, PageId)> for GraphBuilder {
    fn from_iter<T: IntoIterator<Item = (PageId, PageId)>>(iter: T) -> Self {
        GraphBuilder {
            edges: iter.into_iter().collect(),
            min_nodes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn duplicate_edges_are_removed() {
        let mut b = GraphBuilder::new();
        b.add_edge(PageId(0), PageId(1));
        b.add_edge(PageId(0), PageId(1));
        b.add_edge(PageId(0), PageId(1));
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_degree(PageId(0)), 1);
    }

    #[test]
    fn self_loops_are_kept() {
        let mut b = GraphBuilder::new();
        b.add_edge(PageId(3), PageId(3));
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_degree(PageId(3)), 1);
        assert_eq!(g.in_degree(PageId(3)), 1);
    }

    #[test]
    fn ensure_node_creates_isolated_nodes() {
        let mut b = GraphBuilder::new();
        b.add_edge(PageId(0), PageId(1));
        b.ensure_node(PageId(9));
        let g = b.build();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.out_degree(PageId(9)), 0);
    }

    #[test]
    fn node_count_from_max_referenced_id() {
        let mut b = GraphBuilder::new();
        b.add_edge(PageId(2), PageId(7));
        let g = b.build();
        assert_eq!(g.num_nodes(), 8);
    }

    #[test]
    fn from_iterator() {
        let g: CsrGraph = [(PageId(0), PageId(1)), (PageId(1), PageId(0))]
            .into_iter()
            .collect::<GraphBuilder>()
            .build();
        assert_eq!(g.num_edges(), 2);
    }
}
