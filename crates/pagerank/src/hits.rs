//! HITS (Kleinberg 1999) — the other seminal link-analysis algorithm.
//!
//! The paper opens by situating JXP between "the two seminal methods
//! PageRank … and HITS" (§1); HITS is implemented here as the classic
//! comparison baseline. Hubs point to good authorities; authorities are
//! pointed to by good hubs:
//!
//! ```text
//! a(q) = Σ_{p → q} h(p)        h(p) = Σ_{p → q} a(q)
//! ```
//!
//! iterated with L2 normalization until convergence.

use jxp_webgraph::{CsrGraph, PageId};

/// Configuration for the HITS iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct HitsConfig {
    /// Stop when the L1 change of the authority vector drops below this.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for HitsConfig {
    fn default() -> Self {
        HitsConfig {
            tolerance: 1e-10,
            max_iterations: 200,
        }
    }
}

/// Result of a HITS computation: parallel hub and authority vectors,
/// each L2-normalized.
#[derive(Debug, Clone)]
pub struct HitsResult {
    authorities: Vec<f64>,
    hubs: Vec<f64>,
    iterations: usize,
    converged: bool,
}

impl HitsResult {
    /// Authority scores (L2-normalized), indexed by page id.
    pub fn authorities(&self) -> &[f64] {
        &self.authorities
    }

    /// Hub scores (L2-normalized), indexed by page id.
    pub fn hubs(&self) -> &[f64] {
        &self.hubs
    }

    /// Authority score of one page.
    pub fn authority(&self, p: PageId) -> f64 {
        self.authorities[p.index()]
    }

    /// Hub score of one page.
    pub fn hub(&self, p: PageId) -> f64 {
        self.hubs[p.index()]
    }

    /// Iterations performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the tolerance was reached.
    pub fn converged(&self) -> bool {
        self.converged
    }
}

fn l2_normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Run HITS on the whole graph (in Kleinberg's usage the input would be a
/// query-focused subgraph; peers can pass any [`CsrGraph`]).
///
/// # Panics
/// Panics if the graph is empty or the config invalid.
pub fn hits(g: &CsrGraph, config: &HitsConfig) -> HitsResult {
    assert!(g.num_nodes() > 0, "HITS of an empty graph is undefined");
    assert!(config.tolerance > 0.0, "tolerance must be positive");
    assert!(config.max_iterations > 0, "max_iterations must be positive");
    let n = g.num_nodes();
    let mut auth = vec![1.0 / (n as f64).sqrt(); n];
    let mut hub = vec![1.0 / (n as f64).sqrt(); n];
    let mut iterations = 0;
    let mut converged = false;
    while iterations < config.max_iterations {
        iterations += 1;
        // a ← Eᵀ h
        let mut new_auth = vec![0.0; n];
        for (q, na) in new_auth.iter_mut().enumerate() {
            *na = g
                .predecessors(PageId(q as u32))
                .map(|p| hub[p.index()])
                .sum();
        }
        l2_normalize(&mut new_auth);
        // h ← E a
        let mut new_hub = vec![0.0; n];
        for (p, nh) in new_hub.iter_mut().enumerate() {
            *nh = g
                .successors(PageId(p as u32))
                .map(|q| new_auth[q.index()])
                .sum();
        }
        l2_normalize(&mut new_hub);
        let delta: f64 = auth
            .iter()
            .zip(new_auth.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        auth = new_auth;
        hub = new_hub;
        if delta < config.tolerance {
            converged = true;
            break;
        }
    }
    HitsResult {
        authorities: auth,
        hubs: hub,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::top_k_of_scores;
    use jxp_webgraph::GraphBuilder;

    fn graph(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.ensure_nodes(n);
        for &(s, d) in edges {
            b.add_edge(PageId(s), PageId(d));
        }
        b.build()
    }

    #[test]
    fn star_graph_separates_hub_and_authority() {
        // Page 0 points to 1, 2, 3 — a pure hub; 1..3 are pure authorities.
        let g = graph(4, &[(0, 1), (0, 2), (0, 3)]);
        let r = hits(&g, &HitsConfig::default());
        assert!(r.converged());
        assert!(r.hub(PageId(0)) > 0.99);
        assert!(r.authority(PageId(0)) < 1e-9);
        for p in [1u32, 2, 3] {
            assert!(r.authority(PageId(p)) > 0.5);
            assert!(r.hub(PageId(p)) < 1e-9);
        }
        assert_eq!(top_k_of_scores(r.hubs(), 1), vec![PageId(0)]);
    }

    #[test]
    fn vectors_are_l2_normalized() {
        let g = graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]);
        let r = hits(&g, &HitsConfig::default());
        let na: f64 = r.authorities().iter().map(|x| x * x).sum();
        let nh: f64 = r.hubs().iter().map(|x| x * x).sum();
        assert!((na - 1.0).abs() < 1e-9, "authority norm {na}");
        assert!((nh - 1.0).abs() < 1e-9, "hub norm {nh}");
    }

    #[test]
    fn bipartite_core_dominates() {
        // Dense bipartite core {0,1} → {2,3} plus a stray edge 4 → 5.
        let g = graph(6, &[(0, 2), (0, 3), (1, 2), (1, 3), (4, 5)]);
        let r = hits(&g, &HitsConfig::default());
        let tops = top_k_of_scores(r.authorities(), 2);
        assert!(tops.contains(&PageId(2)) && tops.contains(&PageId(3)));
        assert!(r.authority(PageId(5)) < r.authority(PageId(2)));
    }

    #[test]
    fn authority_ranking_differs_from_pagerank_on_hub_structures() {
        // HITS rewards membership in dense cores; PageRank rewards
        // in-degree weighted by source importance. A page pointed to by
        // one mega-hub: HITS authority high, PR moderate.
        let g = graph(
            7,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 6),
                (2, 6),
                (3, 6),
                (4, 5),
                (5, 4),
            ],
        );
        let h = hits(&g, &HitsConfig::default());
        let pr = crate::pagerank(&g, &crate::PageRankConfig::default());
        // Page 6 is the HITS authority champion.
        assert_eq!(top_k_of_scores(h.authorities(), 1), vec![PageId(6)]);
        // The PR champion is in the 4↔5 cycle (a rank sink pair).
        assert_ne!(pr.top_k(1), vec![PageId(6)]);
    }

    #[test]
    fn edgeless_graph_degenerates_gracefully() {
        let g = graph(3, &[]);
        let r = hits(&g, &HitsConfig::default());
        // No links: scores collapse to zero vectors after one step.
        assert!(r.authorities().iter().all(|&a| a == 0.0));
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn empty_graph_panics() {
        let g = GraphBuilder::new().build();
        let _ = hits(&g, &HitsConfig::default());
    }
}
