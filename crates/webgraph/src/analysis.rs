//! Structural graph analysis.
//!
//! Used to validate the synthetic datasets against the paper's Figure 3
//! (in-degree distributions close to a power law) and to check that the
//! generated graphs are connected enough for PageRank to be meaningful
//! (§6.1: "We checked the degree of connectivity to assure that the PR
//! computation was meaningful in these datasets").

use crate::csr::CsrGraph;
use crate::id::PageId;

/// A degree histogram: `counts[d]` = number of nodes with degree `d`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeHistogram {
    counts: Vec<usize>,
}

impl DegreeHistogram {
    /// In-degree histogram of `g`.
    pub fn indegree(g: &CsrGraph) -> Self {
        Self::from_degrees(g.nodes().map(|v| g.in_degree(v)))
    }

    /// Out-degree histogram of `g`.
    pub fn outdegree(g: &CsrGraph) -> Self {
        Self::from_degrees(g.nodes().map(|v| g.out_degree(v)))
    }

    fn from_degrees(degrees: impl Iterator<Item = usize>) -> Self {
        let mut counts = Vec::new();
        for d in degrees {
            if d >= counts.len() {
                counts.resize(d + 1, 0);
            }
            counts[d] += 1;
        }
        DegreeHistogram { counts }
    }

    /// Number of nodes with degree exactly `d`.
    pub fn count(&self, d: usize) -> usize {
        self.counts.get(d).copied().unwrap_or(0)
    }

    /// Largest degree present.
    pub fn max_degree(&self) -> usize {
        self.counts.iter().rposition(|&c| c > 0).unwrap_or(0)
    }

    /// `(degree, count)` pairs for all degrees with non-zero count.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(d, &c)| (d, c))
    }

    /// Count-weighted least-squares slope of `log10(count)` against
    /// `log10(degree)` over degrees ≥ 1 — the exponent of a power-law fit
    /// `count ∝ degree^slope`.
    ///
    /// Web-like in-degree distributions fit with slope around −2 (Fig. 3 in
    /// the paper shows a straight descending line in log-log scale). The
    /// fit weights each point by its node count so the sparse singleton
    /// tail (one page at each of many huge degrees) does not dominate the
    /// regression. Returns `None` if fewer than two non-zero degrees ≥ 1
    /// exist.
    pub fn log_log_slope(&self) -> Option<f64> {
        let pts: Vec<(f64, f64, f64)> = self
            .nonzero()
            .filter(|&(d, _)| d >= 1)
            .map(|(d, c)| ((d as f64).log10(), (c as f64).log10(), c as f64))
            .collect();
        weighted_regression_slope(&pts)
    }
}

/// Slope of the weighted least-squares line through `(x, y, w)` points.
/// `None` if the (weighted) x values do not vary.
pub fn weighted_regression_slope(pts: &[(f64, f64, f64)]) -> Option<f64> {
    if pts.len() < 2 {
        return None;
    }
    let sw: f64 = pts.iter().map(|p| p.2).sum();
    if sw <= 0.0 {
        return None;
    }
    let sx: f64 = pts.iter().map(|p| p.2 * p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.2 * p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.2 * p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.2 * p.0 * p.1).sum();
    let denom = sw * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((sw * sxy - sx * sy) / denom)
}

/// Strongly connected components via Tarjan's algorithm (iterative —
/// Web-scale graphs would overflow the call stack with recursion).
///
/// Returns, for every node, the id of its component; component ids are
/// `0..num_components` in reverse topological discovery order.
pub fn strongly_connected_components(g: &CsrGraph) -> Vec<u32> {
    let n = g.num_nodes();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![UNVISITED; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut num_comp = 0u32;

    // Explicit DFS frames: (node, iterator position over successors).
    let mut frames: Vec<(u32, usize)> = Vec::new();

    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            if *pos < g.out_degree(PageId(v)) {
                let w = g.successor_at(PageId(v), *pos).0;
                *pos += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp[w as usize] = num_comp;
                        if w == v {
                            break;
                        }
                    }
                    num_comp += 1;
                }
            }
        }
    }
    comp
}

/// Size of the largest strongly connected component.
pub fn largest_scc_size(g: &CsrGraph) -> usize {
    let comp = strongly_connected_components(g);
    let k = comp.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let mut sizes = vec![0usize; k];
    for &c in &comp {
        sizes[c as usize] += 1;
    }
    sizes.into_iter().max().unwrap_or(0)
}

/// A one-shot structural profile of a graph, as printed by the dataset
/// tooling ("We checked the degree of connectivity to assure that the PR
/// computation was meaningful", §6.1).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSummary {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges.
    pub edges: usize,
    /// Nodes with zero out-degree.
    pub dangling: usize,
    /// Largest in-degree.
    pub max_in_degree: usize,
    /// Largest out-degree.
    pub max_out_degree: usize,
    /// Count-weighted log-log slope of the in-degree distribution
    /// (`None` for degenerate graphs).
    pub indegree_slope: Option<f64>,
    /// Fraction of nodes in the largest strongly connected component.
    pub largest_scc_fraction: f64,
    /// Number of weakly connected components.
    pub weak_components: usize,
}

impl GraphSummary {
    /// Compute the full profile (runs SCC and component analyses —
    /// linear in the graph size, fine up to millions of edges).
    pub fn compute(g: &CsrGraph) -> Self {
        let nodes = g.num_nodes();
        GraphSummary {
            nodes,
            edges: g.num_edges(),
            dangling: g.num_dangling(),
            max_in_degree: DegreeHistogram::indegree(g).max_degree(),
            max_out_degree: DegreeHistogram::outdegree(g).max_degree(),
            indegree_slope: DegreeHistogram::indegree(g).log_log_slope(),
            largest_scc_fraction: if nodes == 0 {
                0.0
            } else {
                largest_scc_size(g) as f64 / nodes as f64
            },
            weak_components: num_weak_components(g),
        }
    }
}

impl std::fmt::Display for GraphSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} nodes, {} edges, {} dangling; max in/out degree {}/{}; \
             in-degree slope {}; largest SCC {:.1}%; {} weak component(s)",
            self.nodes,
            self.edges,
            self.dangling,
            self.max_in_degree,
            self.max_out_degree,
            self.indegree_slope
                .map_or("n/a".into(), |s| format!("{s:.2}")),
            self.largest_scc_fraction * 100.0,
            self.weak_components
        )
    }
}

/// Number of weakly connected components (edges treated as undirected).
pub fn num_weak_components(g: &CsrGraph) -> usize {
    let n = g.num_nodes();
    let mut seen = vec![false; n];
    let mut count = 0;
    let mut queue = std::collections::VecDeque::new();
    for root in 0..n {
        if seen[root] {
            continue;
        }
        count += 1;
        seen[root] = true;
        queue.push_back(PageId(root as u32));
        while let Some(v) = queue.pop_front() {
            for u in g.successors(v).chain(g.predecessors(v)) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn graph(edges: &[(u32, u32)]) -> CsrGraph {
        let mut b = GraphBuilder::new();
        for &(s, d) in edges {
            b.add_edge(PageId(s), PageId(d));
        }
        b.build()
    }

    /// Number of strongly connected components.
    fn num_sccs(g: &CsrGraph) -> usize {
        let comp = strongly_connected_components(g);
        comp.iter().map(|&c| c as usize + 1).max().unwrap_or(0)
    }

    #[test]
    fn indegree_histogram() {
        let g = graph(&[(0, 2), (1, 2), (3, 2), (2, 0)]);
        let h = DegreeHistogram::indegree(&g);
        assert_eq!(h.count(0), 2); // nodes 1, 3
        assert_eq!(h.count(1), 1); // node 0
        assert_eq!(h.count(3), 1); // node 2
        assert_eq!(h.max_degree(), 3);
    }

    #[test]
    fn log_log_slope_of_exact_power_law() {
        // counts = 1000 * d^-2 for d in 1..=10 → slope −2 exactly.
        let pts: Vec<(f64, f64, f64)> = (1..=10)
            .map(|d| {
                let d = d as f64;
                (d.log10(), (1000.0 * d.powi(-2)).log10(), 1.0)
            })
            .collect();
        let slope = weighted_regression_slope(&pts).unwrap();
        assert!((slope + 2.0).abs() < 1e-9, "slope {slope}");
    }

    #[test]
    fn log_log_slope_requires_variation() {
        assert_eq!(weighted_regression_slope(&[(1.0, 2.0, 1.0)]), None);
        let flat = [(1.0, 2.0, 1.0), (1.0, 3.0, 1.0)];
        assert_eq!(weighted_regression_slope(&flat), None);
    }

    #[test]
    fn scc_of_cycle_is_single_component() {
        let g = graph(&[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(num_sccs(&g), 1);
        assert_eq!(largest_scc_size(&g), 3);
    }

    #[test]
    fn scc_of_dag_is_one_per_node() {
        let g = graph(&[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(num_sccs(&g), 3);
        assert_eq!(largest_scc_size(&g), 1);
    }

    #[test]
    fn scc_two_cycles_bridged() {
        // cycle {0,1} → cycle {2,3}
        let g = graph(&[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]);
        let comp = strongly_connected_components(&g);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_eq!(num_sccs(&g), 2);
    }

    #[test]
    fn graph_summary_profiles_structure() {
        let g = graph(&[(0, 1), (1, 2), (2, 0), (3, 0)]);
        let s = GraphSummary::compute(&g);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.dangling, 0);
        assert_eq!(s.max_in_degree, 2); // node 0: from 2 and 3
        assert_eq!(s.max_out_degree, 1);
        assert_eq!(s.weak_components, 1);
        assert!((s.largest_scc_fraction - 0.75).abs() < 1e-12);
        let text = s.to_string();
        assert!(text.contains("4 nodes"));
        assert!(text.contains("75.0%"));
    }

    #[test]
    fn graph_summary_counts_dangling() {
        let g = graph(&[(0, 1)]);
        let s = GraphSummary::compute(&g);
        assert_eq!(s.dangling, 1);
        assert!(s.indegree_slope.is_none()); // only one nonzero degree ≥ 1
    }

    #[test]
    fn weak_components() {
        let g = graph(&[(0, 1), (2, 3)]);
        assert_eq!(num_weak_components(&g), 2);
        let g2 = graph(&[(0, 1), (2, 1)]);
        assert_eq!(num_weak_components(&g2), 1);
    }
}
