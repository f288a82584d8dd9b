//! Power-iteration PageRank on the full graph.
//!
//! This is the paper's §2.1 formulation:
//!
//! ```text
//! PR(q) = ε · Σ_{p → q} PR(p)/out(p)  +  (1 − ε) · 1/N
//! ```
//!
//! with ε the probability of following a link (the paper writes the random
//! jump probability as `1 − ε` and "usually sets ε to a value like 0.85").
//!
//! **Dangling pages** (zero out-degree) are not discussed in the paper; we
//! apply the standard treatment — their rank mass is redistributed
//! uniformly over all `N` pages — and `jxp-core` applies the *identical*
//! treatment in the local computation so JXP-vs-PR comparisons are
//! apples-to-apples (see DESIGN.md §5).

use crate::kernel::pull_block;
use jxp_telemetry::{Event, TelemetryHub};
use jxp_webgraph::{GraphSource, PageId};

/// Configuration for the power iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankConfig {
    /// Probability of following a link (paper's ε, default 0.85);
    /// the random-jump probability is `1 − epsilon`.
    pub epsilon: f64,
    /// Stop when the L1 change between successive iterations falls below
    /// this threshold.
    pub tolerance: f64,
    /// Hard cap on iterations (protects against pathological inputs).
    pub max_iterations: usize,
    /// Worker threads for the pull-based update (`0` = the machine's
    /// available parallelism, `1` = serial). The result is bit-identical
    /// for every value — see [`crate::par`].
    pub threads: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            epsilon: 0.85,
            tolerance: 1e-10,
            max_iterations: 200,
            threads: 1,
        }
    }
}

impl PageRankConfig {
    /// Validate parameter ranges.
    ///
    /// # Panics
    /// Panics if `epsilon ∉ (0, 1)`, `tolerance ≤ 0` or
    /// `max_iterations == 0`.
    pub fn validate(&self) {
        assert!(
            self.epsilon > 0.0 && self.epsilon < 1.0,
            "epsilon must be in (0, 1), got {}",
            self.epsilon
        );
        assert!(self.tolerance > 0.0, "tolerance must be positive");
        assert!(self.max_iterations > 0, "max_iterations must be positive");
    }
}

/// Result of a PageRank computation.
#[derive(Debug, Clone)]
pub struct PageRankResult {
    scores: Vec<f64>,
    iterations: usize,
    converged: bool,
}

impl PageRankResult {
    /// Score vector indexed by page id; sums to 1.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Score of a single page.
    pub fn score(&self, p: PageId) -> f64 {
        self.scores[p.index()]
    }

    /// Number of power iterations performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the L1 tolerance was reached before the iteration cap.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// The `k` highest-scored pages, best first; ties broken by page id so
    /// the output is deterministic.
    pub fn top_k(&self, k: usize) -> Vec<PageId> {
        crate::ranking::top_k_of_scores(&self.scores, k)
    }

    /// Consume the result, returning the raw score vector.
    pub fn into_scores(self) -> Vec<f64> {
        self.scores
    }
}

/// Compute PageRank of every page in `g` by power iteration.
///
/// Starts from the uniform vector `1/N` (as the paper prescribes) and
/// iterates until the L1 change is below `config.tolerance` or
/// `config.max_iterations` is hit.
///
/// Generic over [`GraphSource`], so the same iteration runs against an
/// in-memory `CsrGraph` or a disk-backed `jxp-segstore` graph — with
/// bit-identical scores, because every backend serves the same
/// adjacency in the same (ascending) order.
///
/// # Panics
/// Panics if the graph is empty or the config is invalid.
pub fn pagerank<G: GraphSource + ?Sized>(g: &G, config: &PageRankConfig) -> PageRankResult {
    pagerank_with_telemetry(g, config, None)
}

/// [`pagerank`] with optional instrumentation: when `telemetry` is
/// given, every sweep bumps the `jxp_pagerank_iterations_total` counter,
/// publishes the L1 residual on the `jxp_pagerank_residual` gauge, and
/// traces a [`Event::PrIterated`] record. The numeric result is
/// untouched — the same float operations run in the same order, so
/// scores stay bit-identical with telemetry on or off.
///
/// # Panics
/// Panics if the graph is empty or the config is invalid.
pub fn pagerank_with_telemetry<G: GraphSource + ?Sized>(
    g: &G,
    config: &PageRankConfig,
    telemetry: Option<&TelemetryHub>,
) -> PageRankResult {
    config.validate();
    let instruments = telemetry.map(|hub| {
        (
            hub.registry().counter("jxp_pagerank_iterations_total"),
            hub.registry().gauge("jxp_pagerank_residual"),
            hub.events(),
        )
    });
    let n = g.num_nodes();
    assert!(n > 0, "PageRank of an empty graph is undefined");
    let eps = config.epsilon;
    let uniform = 1.0 / n as f64;
    let mut curr = vec![uniform; n];
    let mut next = vec![0.0f64; n];

    // One degree pass yields both the inverse out-degrees (dangling
    // pages flagged with 0.0) and the dangling list, ascending.
    let mut inv_out = vec![0.0f64; n];
    let mut dangling: Vec<u32> = Vec::new();
    g.for_each_degree_block(0..n, |first, offsets| {
        for (k, w) in offsets.windows(2).enumerate() {
            match w[1] - w[0] {
                0 => dangling.push((first + k) as u32),
                d => inv_out[first + k] = 1.0 / f64::from(d),
            }
        }
    });
    // What each page sends along every out-link, refilled per sweep.
    let mut contrib = vec![0.0f64; n];

    let mut iterations = 0;
    let mut converged = false;
    while iterations < config.max_iterations {
        iterations += 1;
        // Dangling mass is spread uniformly over all pages.
        let dangling_mass: f64 = dangling.iter().map(|&v| curr[v as usize]).sum();
        let base = (1.0 - eps) * uniform + eps * dangling_mass * uniform;
        for ((c, &score), &inv) in contrib.iter_mut().zip(&curr).zip(&inv_out) {
            *c = score * inv;
        }
        // Pull-based chunked update: each chunk writes its own disjoint
        // slice of `next`, block by block as the backend holds the rows,
        // and returns its L1-delta partial; partials are folded in chunk
        // order so the result is bit-identical for any thread count
        // (see `crate::par`).
        let (curr_ref, contrib_ref) = (&curr, &contrib);
        let partials = crate::par::chunked_fill(&mut next, config.threads, |start, chunk| {
            let mut delta = 0.0;
            g.for_each_pred_block(start..start + chunk.len(), |first, offsets, preds| {
                let rows = &mut chunk[first - start..][..offsets.len() - 1];
                pull_block(offsets, preds, contrib_ref, rows, |k, sum| {
                    let out = base + eps * sum;
                    delta += (curr_ref[first + k] - out).abs();
                    out
                });
            });
            delta
        });
        let delta: f64 = partials.iter().sum();
        if let Some((iters, residual, events)) = &instruments {
            iters.inc();
            residual.set(delta);
            events.record(Event::PrIterated {
                iteration: iterations as u64,
                residual: delta,
            });
        }
        std::mem::swap(&mut curr, &mut next);
        if delta < config.tolerance {
            converged = true;
            break;
        }
    }
    PageRankResult {
        scores: curr,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxp_webgraph::{CsrGraph, GraphBuilder};

    fn graph(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.ensure_nodes(n);
        for &(s, d) in edges {
            b.add_edge(PageId(s), PageId(d));
        }
        b.build()
    }

    #[test]
    fn scores_sum_to_one() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]);
        let pr = pagerank(&g, &PageRankConfig::default());
        let total: f64 = pr.scores().iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        assert!(pr.converged());
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let g = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        let pr = pagerank(&g, &PageRankConfig::default());
        for &s in pr.scores() {
            assert!((s - 1.0 / 3.0).abs() < 1e-9, "score {s}");
        }
    }

    #[test]
    fn authority_flows_to_popular_page() {
        // Pages 1..=4 all link to 0; 0 links back to 1.
        let g = graph(5, &[(1, 0), (2, 0), (3, 0), (4, 0), (0, 1)]);
        let pr = pagerank(&g, &PageRankConfig::default());
        let top = pr.top_k(2);
        assert_eq!(top[0], PageId(0));
        assert_eq!(top[1], PageId(1)); // endorsed by the most important page
        assert!(pr.score(PageId(0)) > pr.score(PageId(2)));
    }

    #[test]
    fn dangling_mass_is_conserved() {
        // Page 1 is dangling.
        let g = graph(3, &[(0, 1), (2, 0)]);
        let pr = pagerank(&g, &PageRankConfig::default());
        let total: f64 = pr.scores().iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
    }

    #[test]
    fn all_dangling_graph_is_uniform() {
        let g = graph(4, &[]);
        let pr = pagerank(&g, &PageRankConfig::default());
        for &s in pr.scores() {
            assert!((s - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn fixed_point_property_holds() {
        // Verify PR(q) = base + ε Σ PR(p)/out(p) at the fixed point.
        let g = graph(5, &[(0, 1), (1, 2), (2, 0), (3, 2), (3, 4), (4, 3)]);
        let cfg = PageRankConfig {
            tolerance: 1e-14,
            ..Default::default()
        };
        let pr = pagerank(&g, &cfg);
        let n = g.num_nodes() as f64;
        let dangling_mass: f64 = g.dangling_nodes().map(|p| pr.score(p)).sum();
        for q in g.nodes() {
            let sum: f64 = g
                .predecessors(q)
                .map(|p| pr.score(p) / g.out_degree(p) as f64)
                .sum();
            let expect = (1.0 - cfg.epsilon) / n + cfg.epsilon * (sum + dangling_mass / n);
            assert!(
                (pr.score(q) - expect).abs() < 1e-10,
                "fixed point violated at {q:?}: {} vs {}",
                pr.score(q),
                expect
            );
        }
    }

    #[test]
    fn iteration_cap_is_respected() {
        // Asymmetric graph: uniform start is NOT the fixed point, and the
        // 1e-30 tolerance is unreachable in floating point.
        let g = graph(4, &[(0, 1), (1, 2), (2, 0), (3, 0)]);
        let cfg = PageRankConfig {
            tolerance: 1e-30,
            max_iterations: 5,
            ..Default::default()
        };
        let pr = pagerank(&g, &cfg);
        assert_eq!(pr.iterations(), 5);
        assert!(!pr.converged());
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn empty_graph_panics() {
        let g = GraphBuilder::new().build();
        let _ = pagerank(&g, &PageRankConfig::default());
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn bad_epsilon_panics() {
        let g = graph(2, &[(0, 1)]);
        let cfg = PageRankConfig {
            epsilon: 1.5,
            ..Default::default()
        };
        let _ = pagerank(&g, &cfg);
    }

    #[test]
    fn parallel_pagerank_is_bit_identical_to_serial() {
        // A graph spanning several chunks so the parallel path really
        // engages (n > 2·CHUNK), with hubs, chords and dangling pages.
        let n = crate::par::CHUNK * 2 + 123;
        let mut b = GraphBuilder::new();
        b.ensure_nodes(n);
        for i in 0..n as u32 {
            if i % 97 == 0 {
                continue; // dangling page
            }
            b.add_edge(PageId(i), PageId((i + 1) % n as u32));
            b.add_edge(PageId(i), PageId((i * 7 + 13) % n as u32));
            if i % 5 == 0 {
                b.add_edge(PageId(i), PageId(0)); // hub
            }
        }
        let g = b.build();
        let serial = pagerank(&g, &PageRankConfig::default());
        for threads in [2, 4, 8] {
            let par = pagerank(
                &g,
                &PageRankConfig {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(
                serial.scores(),
                par.scores(),
                "scores diverge at {threads} threads"
            );
            assert_eq!(serial.iterations(), par.iterations());
        }
    }

    #[test]
    fn telemetry_traces_iterations_without_changing_scores() {
        let g = graph(5, &[(0, 1), (1, 2), (2, 0), (3, 2), (3, 4), (4, 3)]);
        let cfg = PageRankConfig::default();
        let plain = pagerank(&g, &cfg);
        let hub = jxp_telemetry::TelemetryHub::new();
        let traced = pagerank_with_telemetry(&g, &cfg, Some(&hub));
        assert_eq!(plain.scores(), traced.scores());
        assert_eq!(plain.iterations(), traced.iterations());

        let snap = hub.snapshot();
        assert_eq!(
            snap.metrics.counters["jxp_pagerank_iterations_total"],
            traced.iterations() as u64
        );
        // The gauge holds the final residual, which beat the tolerance.
        assert!(snap.metrics.gauges["jxp_pagerank_residual"] < cfg.tolerance);
        let iterated: Vec<u64> = snap
            .events
            .iter()
            .filter_map(|r| match r.event {
                jxp_telemetry::Event::PrIterated { iteration, .. } => Some(iteration),
                _ => None,
            })
            .collect();
        let want: Vec<u64> = (1..=traced.iterations() as u64).collect();
        assert_eq!(iterated, want, "one PrIterated per sweep, in order");
    }

    #[test]
    fn epsilon_zero_point_five_flattens_scores() {
        let g = graph(5, &[(1, 0), (2, 0), (3, 0), (4, 0), (0, 1)]);
        let strong = pagerank(&g, &PageRankConfig::default());
        let weak = pagerank(
            &g,
            &PageRankConfig {
                epsilon: 0.5,
                ..Default::default()
            },
        );
        // Lower ε ⇒ more random jumps ⇒ less concentration on the hub.
        assert!(weak.score(PageId(0)) < strong.score(PageId(0)));
    }
}
