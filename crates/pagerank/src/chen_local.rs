//! Local PageRank estimation for a single page (Chen, Gan, Suel;
//! CIKM 2004).
//!
//! §2.2: "Chen et al. proposed a way of approximating the PR value of a
//! page locally, by expanding a small subgraph around the page of
//! interest, placing an estimated PR at the boundary nodes of the
//! subgraph, and running the standard algorithm. This approach assumes
//! that the full link structure is accessible at a dedicated graph
//! server." — in a P2P setting it would force peers to recursively query
//! for in-in-links, which is exactly the burden JXP avoids.
//!
//! This implementation is the baseline in its intended (centralized)
//! habitat: expand the in-link ball of the target up to a radius, treat
//! every unexpanded predecessor as a boundary source with an estimated
//! score, iterate PageRank on the ball only. The `baselines` experiment
//! contrasts its accuracy/expansion-cost curve with JXP's meetings.

use crate::power::PageRankConfig;
use jxp_webgraph::{CsrGraph, FxHashMap, PageId};
use std::collections::VecDeque;

/// Outcome of one local estimation.
#[derive(Debug, Clone)]
pub struct LocalEstimate {
    /// Estimated PageRank of the target page.
    pub score: f64,
    /// Pages expanded into the subgraph (the cost of the estimate: in a
    /// distributed setting each one is a remote "who links here?" query).
    pub expanded_pages: usize,
}

/// Estimate the PageRank of `target` from its in-link ball of the given
/// `radius`.
///
/// Boundary handling: predecessors of ball members that lie outside the
/// ball are assumed to hold the uniform score `1/N` (the estimate the
/// paper's simplest variant uses), contributing
/// `ε · (1/N) / out(pred)` of inflow per link, fixed across iterations.
///
/// # Panics
/// Panics if the graph is empty or config invalid.
pub fn estimate_pagerank(
    g: &CsrGraph,
    target: PageId,
    radius: usize,
    config: &PageRankConfig,
) -> LocalEstimate {
    config.validate();
    let n = g.num_nodes();
    assert!(n > 0, "empty graph");
    let uniform = 1.0 / n as f64;
    // ---- Collect the in-link ball by reverse BFS up to `radius`.
    let mut dist: FxHashMap<PageId, usize> = FxHashMap::default();
    dist.insert(target, 0);
    let mut queue = VecDeque::from([target]);
    while let Some(v) = queue.pop_front() {
        let d = dist[&v];
        if d == radius {
            continue;
        }
        for p in g.predecessors(v) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(p) {
                e.insert(d + 1);
                queue.push_back(p);
            }
        }
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "the collected ids are sorted on the next line before any index is assigned"
    )]
    let mut members: Vec<PageId> = dist.keys().copied().collect();
    // Sort so member indices — and with them every accumulation order
    // below — are independent of hash iteration order.
    members.sort_unstable();
    let index: FxHashMap<PageId, usize> =
        members.iter().enumerate().map(|(i, &p)| (p, i)).collect();

    // ---- Fixed external inflow per member from unexpanded predecessors
    // (assumed to score 1/N each).
    let eps = config.epsilon;
    let mut external = vec![0.0f64; members.len()];
    for (i, &p) in members.iter().enumerate() {
        for pred in g.predecessors(p) {
            if !index.contains_key(&pred) {
                external[i] += eps * uniform / g.out_degree(pred) as f64;
            }
        }
    }

    // ---- Power iteration restricted to the ball. Members use their true
    // out-degree; links leaving the ball just leak (their mass is someone
    // else's problem — we only need the target's score). In-ball dangling
    // pages redistribute uniformly, matching the centralized treatment;
    // out-of-ball dangling mass is unknowable locally and ignored (part of
    // the method's approximation error).
    let dangling_members: Vec<usize> = members
        .iter()
        .enumerate()
        .filter(|&(_, &p)| g.out_degree(p) == 0)
        .map(|(i, _)| i)
        .collect();
    let mut curr = vec![uniform; members.len()];
    let mut next = vec![0.0f64; members.len()];
    for _ in 0..config.max_iterations {
        let dangling_mass: f64 = dangling_members.iter().map(|&i| curr[i]).sum();
        let base = (1.0 - eps) * uniform + eps * dangling_mass * uniform;
        let mut delta = 0.0;
        for (i, &p) in members.iter().enumerate() {
            let mut sum = 0.0;
            for pred in g.predecessors(p) {
                if let Some(&j) = index.get(&pred) {
                    sum += curr[j] / g.out_degree(pred) as f64;
                }
            }
            next[i] = base + eps * sum + external[i];
            delta += (next[i] - curr[i]).abs();
        }
        std::mem::swap(&mut curr, &mut next);
        if delta < config.tolerance {
            break;
        }
    }
    LocalEstimate {
        score: curr[index[&target]],
        expanded_pages: members.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pagerank, PageRankConfig};
    use jxp_webgraph::generators::preferential_attachment;
    use jxp_webgraph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn radius_zero_uses_only_boundary_estimates() {
        let mut b = GraphBuilder::new();
        for (s, d) in [(1, 0), (2, 0), (0, 1)] {
            b.add_edge(PageId(s), PageId(d));
        }
        let g = b.build();
        let est = estimate_pagerank(&g, PageId(0), 0, &PageRankConfig::default());
        assert_eq!(est.expanded_pages, 1);
        // (1−ε)/3 + ε·(1/3·(1/1) + 1/3·(1/1))… both in-links assumed 1/N.
        assert!(est.score > 0.0);
    }

    #[test]
    fn error_decreases_with_radius() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = preferential_attachment(400, 3, &mut rng);
        let cfg = PageRankConfig::default();
        let truth = pagerank(&g, &cfg);
        // The top authority is the interesting target.
        let target = truth.top_k(1)[0];
        let err_at = |radius: usize| {
            let est = estimate_pagerank(&g, target, radius, &cfg);
            (est.score - truth.score(target)).abs() / truth.score(target)
        };
        // The boundary estimate makes individual radii non-monotone, but
        // the trend must hold: a generous ball beats a bare one, and the
        // largest ball is nearly exact.
        let coarse = err_at(0);
        let fine = err_at(8);
        assert!(
            fine < coarse,
            "radius 8 ({fine}) should beat radius 0 ({coarse})"
        );
        assert!(fine < 0.05, "radius-8 estimate still {fine} off");
    }

    #[test]
    fn expansion_cost_grows_with_radius() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = preferential_attachment(400, 3, &mut rng);
        let cfg = PageRankConfig::default();
        let truth = pagerank(&g, &cfg);
        let target = truth.top_k(1)[0];
        let c1 = estimate_pagerank(&g, target, 1, &cfg).expanded_pages;
        let c3 = estimate_pagerank(&g, target, 3, &cfg).expanded_pages;
        assert!(c3 > c1, "{c3} vs {c1}");
    }

    #[test]
    fn full_radius_recovers_exact_score() {
        // A small strongly-connected graph: a large radius expands
        // everything and the estimate becomes exact.
        let mut b = GraphBuilder::new();
        for (s, d) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (1, 3)] {
            b.add_edge(PageId(s), PageId(d));
        }
        let g = b.build();
        let cfg = PageRankConfig {
            tolerance: 1e-14,
            ..Default::default()
        };
        let truth = pagerank(&g, &cfg);
        for target in g.nodes() {
            let est = estimate_pagerank(&g, target, 10, &cfg);
            assert_eq!(est.expanded_pages, 4);
            assert!(
                (est.score - truth.score(target)).abs() < 1e-9,
                "{target:?}: {} vs {}",
                est.score,
                truth.score(target)
            );
        }
    }
}
