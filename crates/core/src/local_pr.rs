//! PageRank on the extended local graph `G' = G + W` (paper §5, eq. 5–10).
//!
//! The `(n+1)`-state transition matrix is never materialized. Its rows are:
//!
//! * **local page `i`**: `1/out(i)` to each known successor — local
//!   successors are explicit states, all external successors collapse onto
//!   the world node (`p_iw = #external successors / out(i)`, eq. 7);
//! * **dangling local page**: uniform over all `N` global pages — `1/N`
//!   to each local page, `(N−n)/N` to the world node (the standard
//!   dangling treatment, applied identically in `jxp-pagerank` so the
//!   centralized ground truth matches — see DESIGN.md §5);
//! * **world node**: `p_wi = inflow_i / α_w` where
//!   `inflow_i = Σ_{r→i} α(r)/out(r)` comes from
//!   [`WorldNode::inflow`](crate::world::WorldNode::inflow) (eq. 8), and
//!   the self-loop `p_ww = 1 − Σ_i p_wi` absorbs the rest (eq. 9);
//! * **random jumps** (probability `1−ε`): `1/N` to each local page and
//!   `(N−n)/N` to the world node (eq. 10 — the jump to `W` is
//!   "proportional to the number of external pages").

use crate::config::JxpConfig;
use jxp_pagerank::kernel::pull_block;
use jxp_webgraph::Subgraph;

/// What [`LocalTopology::successor_indices`] holds for a successor
/// outside the fragment.
pub const EXTERNAL: u32 = u32::MAX;

/// Precomputed, meeting-invariant topology of one peer's extended graph.
///
/// In light-weight merging the local graph never changes after peer
/// creation — only the world node's in-link knowledge does — so the
/// reverse adjacency, out-degrees and external-link ratios are computed
/// once and reused across all meetings. So are the successors' local
/// indices, which assembling a cut payload reads instead of probing the
/// fragment's id map ([`crate::payload`]).
#[derive(Debug, Clone)]
pub struct LocalTopology {
    n: usize,
    /// The fragment's [`successor_indices`](Self::successor_indices).
    succ_local: Vec<u32>,
    /// Dense-index CSR of *local → local* links, reversed:
    /// `rev_adj[rev_off[i]..rev_off[i+1]]` are the dense indices of local
    /// predecessors of local page `i`.
    rev_off: Vec<u32>,
    rev_adj: Vec<u32>,
    /// `1 / out(i)` (true global out-degree); `0.0` for dangling pages.
    inv_out: Vec<f64>,
    /// `#external successors of i / out(i)` — the row mass going to `W`.
    ext_ratio: Vec<f64>,
    /// Dense indices of dangling local pages (true out-degree zero).
    dangling: Vec<u32>,
}

impl LocalTopology {
    /// Build the topology caches from a fragment.
    pub fn build(graph: &Subgraph) -> Self {
        let n = graph.num_pages();
        // One probe of the fragment's id map per link, here and never again.
        let mut succ_local = Vec::with_capacity(graph.num_links());
        for i in 0..n {
            let succs = graph.successors_at(i).iter();
            succ_local.extend(succs.map(|&t| graph.local_index(t).map_or(EXTERNAL, |j| j as u32)));
        }
        // Page by page, the successors' local indices.
        let per_page = || {
            let mut rest = &succ_local[..];
            (0..n).map(move |i| {
                let (succs, tail) = rest.split_at(graph.out_degree_at(i));
                rest = tail;
                succs
            })
        };
        let mut rev_counts = vec![0u32; n];
        let mut inv_out = vec![0.0f64; n];
        let mut ext_ratio = vec![0.0f64; n];
        let mut dangling = Vec::new();
        // First pass: degrees and local/external split.
        for (i, succs) in per_page().enumerate() {
            let out = succs.len();
            if out == 0 {
                dangling.push(i as u32);
                continue;
            }
            inv_out[i] = 1.0 / out as f64;
            let mut ext = 0usize;
            for &j in succs {
                match j {
                    EXTERNAL => ext += 1,
                    j => rev_counts[j as usize] += 1,
                }
            }
            ext_ratio[i] = ext as f64 / out as f64;
        }
        let mut rev_off = vec![0u32; n + 1];
        for i in 0..n {
            rev_off[i + 1] = rev_off[i] + rev_counts[i];
        }
        let mut rev_adj = vec![0u32; rev_off[n] as usize];
        let mut cursor = rev_off.clone();
        for (i, succs) in per_page().enumerate() {
            for &j in succs.iter().filter(|&&j| j != EXTERNAL) {
                let c = &mut cursor[j as usize];
                rev_adj[*c as usize] = i as u32;
                *c += 1;
            }
        }
        LocalTopology {
            n,
            succ_local,
            rev_off,
            rev_adj,
            inv_out,
            ext_ratio,
            dangling,
        }
    }

    /// Number of local pages.
    pub fn num_pages(&self) -> usize {
        self.n
    }

    /// Dense indices of dangling pages.
    pub fn dangling(&self) -> &[u32] {
        &self.dangling
    }

    /// The dense local index of every fragment link's target, in the
    /// fragment's successor order (page by page, as
    /// [`Subgraph::successors_at`] lists them), [`EXTERNAL`] for a target
    /// outside the fragment: what [`MeetingPayload::assemble`] reads to
    /// cut a payload.
    ///
    /// [`MeetingPayload::assemble`]: crate::MeetingPayload::assemble
    pub fn successor_indices(&self) -> &[u32] {
        &self.succ_local
    }
}

/// Result of one extended-graph PageRank run.
#[derive(Debug, Clone)]
pub struct PrOutcome {
    /// Stationary scores of the local pages (dense index order).
    pub scores: Vec<f64>,
    /// Stationary score of the world node.
    pub world_score: f64,
    /// Power iterations performed.
    pub iterations: usize,
    /// Whether the L1 tolerance was met.
    pub converged: bool,
}

/// The iteration details of a run whose scores were written in place
/// (see [`JxpPeer::recompute`](crate::peer::JxpPeer::recompute)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrRun {
    /// Stationary score of the world node.
    pub world_score: f64,
    /// Power iterations performed.
    pub iterations: usize,
    /// Whether the L1 tolerance was met.
    pub converged: bool,
}

/// Work vectors of [`extended_pagerank`], kept by a peer between
/// meetings so a run allocates nothing proportional to the fragment.
#[derive(Debug, Clone, Default)]
pub(crate) struct PrScratch {
    next: Vec<f64>,
    p_wi: Vec<f64>,
    contrib: Vec<f64>,
}

/// Run the power iteration on the extended graph.
///
/// * `n_total` — the (estimated) global page count `N`.
/// * `world_inflow` — eq. (8) numerators per local page, from
///   [`WorldNode::inflow`](crate::world::WorldNode::inflow).
/// * `init_scores` / `init_world` — the starting vector (the peer's
///   current score list; the paper uses it as the initial distribution so
///   convergence is fast after small knowledge updates).
///
/// The starting vector is normalized to total mass 1; the iteration then
/// preserves that mass exactly (the chain is stochastic by construction).
///
/// # Panics
/// Panics if dimensions disagree, `n_total < n`, or the config is invalid.
pub fn extended_pagerank(
    topo: &LocalTopology,
    n_total: f64,
    world_inflow: &[f64],
    init_scores: &[f64],
    init_world: f64,
    cfg: &JxpConfig,
) -> PrOutcome {
    let mut scores = init_scores.to_vec();
    let run = extended_pagerank_in_place(
        topo,
        n_total,
        world_inflow,
        &mut scores,
        init_world,
        cfg,
        &mut PrScratch::default(),
    );
    PrOutcome {
        scores,
        world_score: run.world_score,
        iterations: run.iterations,
        converged: run.converged,
    }
}

/// [`extended_pagerank`] with the starting vector in `scores`, which
/// is overwritten with the stationary scores, and caller-kept scratch.
pub(crate) fn extended_pagerank_in_place(
    topo: &LocalTopology,
    n_total: f64,
    world_inflow: &[f64],
    scores: &mut Vec<f64>,
    init_world: f64,
    cfg: &JxpConfig,
    scratch: &mut PrScratch,
) -> PrRun {
    cfg.validate();
    let n = topo.n;
    assert_eq!(world_inflow.len(), n, "inflow length mismatch");
    assert_eq!(scores.len(), n, "score length mismatch");
    assert!(
        n_total >= n as f64,
        "global page count {n_total} smaller than local fragment {n}"
    );
    assert!(n_total > 0.0, "empty global graph");
    let eps = cfg.epsilon;
    let inv_n_total = 1.0 / n_total;
    let world_jump = (n_total - n as f64) * inv_n_total;
    let PrScratch {
        next,
        p_wi,
        contrib,
    } = scratch;
    // `next` and `contrib` are overwritten before they are read; only
    // their length matters. `p_wi` must start at zero.
    next.resize(n, 0.0);
    contrib.resize(n, 0.0);
    p_wi.clear();
    p_wi.resize(n, 0.0);

    // Transition probabilities out of the world node, fixed for this run
    // (eq. 8 uses the α values *from the previous meeting*). If the known
    // inflow exceeds the world's current mass — possible transiently from
    // stale bookkeeping — scale it down so the row stays stochastic.
    let mut p_ww = 1.0;
    if init_world > 1e-15 {
        let total_inflow: f64 = world_inflow.iter().sum();
        let scale = if total_inflow > init_world {
            init_world / total_inflow
        } else {
            1.0
        };
        for i in 0..n {
            p_wi[i] = world_inflow[i] / init_world * scale;
        }
        p_ww = (1.0 - p_wi.iter().sum::<f64>()).max(0.0);
    }

    // Normalize the starting vector to total mass 1.
    let mass: f64 = scores.iter().sum::<f64>() + init_world;
    assert!(mass > 0.0, "starting vector has no mass");
    let curr = scores;
    for s in curr.iter_mut() {
        *s /= mass;
    }
    let mut curr_w = init_world / mass;

    let mut iterations = 0;
    let mut converged = false;
    while iterations < cfg.pr_max_iterations {
        iterations += 1;
        let dangling_mass: f64 = topo.dangling.iter().map(|&i| curr[i as usize]).sum();
        let base = (1.0 - eps) * inv_n_total + eps * dangling_mass * inv_n_total;
        for ((c, &score), &inv) in contrib.iter_mut().zip(curr.iter()).zip(&topo.inv_out) {
            *c = score * inv;
        }
        // Pull-based chunked update: each chunk writes its disjoint slice
        // of `next` through the shared kernel and returns `[to_world,
        // l1_delta]` partials, folded in chunk order. One thread: a
        // fragment of the paper's sizes is a single chunk, and meetings
        // already run concurrently one level up (`jxp_p2pnet::parallel`).
        let (curr_ref, contrib_ref, p_wi_ref) = (&*curr, &*contrib, &*p_wi);
        let partials: Vec<[f64; 2]> = jxp_pagerank::par::chunked_fill(next, 1, |start, chunk| {
            let mut to_world = 0.0;
            let mut delta = 0.0;
            let offsets = &topo.rev_off[start..=start + chunk.len()];
            pull_block(offsets, &topo.rev_adj, contrib_ref, chunk, |k, sum| {
                let i = start + k;
                let out = base + eps * (sum + curr_w * p_wi_ref[i]);
                to_world += curr_ref[i] * topo.ext_ratio[i];
                delta += (curr_ref[i] - out).abs();
                out
            });
            [to_world, delta]
        });
        let to_world: f64 = partials.iter().map(|p| p[0]).sum();
        let next_w = (1.0 - eps) * world_jump
            + eps * (to_world + curr_w * p_ww + dangling_mass * world_jump);
        let delta = (curr_w - next_w).abs() + partials.iter().map(|p| p[1]).sum::<f64>();
        std::mem::swap(curr, next);
        curr_w = next_w;
        if delta < cfg.pr_tolerance {
            converged = true;
            break;
        }
    }
    PrRun {
        world_score: curr_w,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxp_webgraph::{GraphBuilder, PageId};

    fn fragment(edges: &[(u32, u32)], pages: &[u32]) -> Subgraph {
        let mut b = GraphBuilder::new();
        for &(s, d) in edges {
            b.add_edge(PageId(s), PageId(d));
        }
        let g = b.build();
        Subgraph::from_pages(&g, pages.iter().map(|&p| PageId(p)))
    }

    #[test]
    fn topology_splits_local_and_external_links() {
        // 0→1 (local), 0→5 (external), 1→0 (local).
        let f = fragment(&[(0, 1), (0, 5), (1, 0)], &[0, 1]);
        let t = LocalTopology::build(&f);
        assert_eq!(t.num_pages(), 2);
        assert!((t.inv_out[0] - 0.5).abs() < 1e-12);
        assert!((t.ext_ratio[0] - 0.5).abs() < 1e-12);
        assert_eq!(t.ext_ratio[1], 0.0);
        assert!(t.dangling().is_empty());
        // Local predecessors of page 0 (dense 0): {1}; of page 1: {0}.
        assert_eq!(
            &t.rev_adj[t.rev_off[0] as usize..t.rev_off[1] as usize],
            &[1]
        );
        assert_eq!(
            &t.rev_adj[t.rev_off[1] as usize..t.rev_off[2] as usize],
            &[0]
        );
    }

    #[test]
    fn dangling_pages_are_detected() {
        let f = fragment(&[(0, 1)], &[0, 1]);
        let t = LocalTopology::build(&f);
        assert_eq!(t.dangling(), &[1]);
    }

    #[test]
    fn whole_graph_fragment_matches_centralized_pagerank() {
        // When a peer holds the entire graph and the world node represents
        // nothing, the extended computation must equal plain PageRank.
        let edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)];
        let f = fragment(&edges, &[0, 1, 2, 3]);
        let t = LocalTopology::build(&f);
        let cfg = JxpConfig::default();
        let n = 4.0;
        let init = vec![0.25; 4];
        let out = extended_pagerank(&t, n, &[0.0; 4], &init, 0.0, &cfg);
        assert!(out.converged);
        assert!(out.world_score.abs() < 1e-9);

        let mut b = GraphBuilder::new();
        for &(s, d) in &edges {
            b.add_edge(PageId(s), PageId(d));
        }
        let g = b.build();
        let truth = jxp_pagerank::pagerank(&g, &jxp_pagerank::PageRankConfig::default());
        for i in 0..4 {
            assert!(
                (out.scores[i] - truth.scores()[i]).abs() < 1e-8,
                "page {i}: {} vs {}",
                out.scores[i],
                truth.scores()[i]
            );
        }
    }

    #[test]
    fn mass_is_conserved() {
        let f = fragment(&[(0, 1), (1, 5), (5, 0)], &[0, 1]);
        let t = LocalTopology::build(&f);
        let cfg = JxpConfig::default();
        let inflow = vec![0.05, 0.0]; // something flows back from outside
        let init = vec![1.0 / 3.0, 1.0 / 3.0];
        let out = extended_pagerank(&t, 3.0, &inflow, &init, 1.0 / 3.0, &cfg);
        let total: f64 = out.scores.iter().sum::<f64>() + out.world_score;
        assert!((total - 1.0).abs() < 1e-9, "total mass {total}");
    }

    #[test]
    fn zero_knowledge_init_leaves_world_dominant() {
        // Algorithm 1: fragment {0,1} of a 100-page graph, no in-link
        // knowledge. Nearly all mass must stay in the world node.
        let f = fragment(&[(0, 1), (1, 50)], &[0, 1]);
        let t = LocalTopology::build(&f);
        let cfg = JxpConfig::default();
        let init = vec![0.01, 0.01];
        let out = extended_pagerank(&t, 100.0, &[0.0, 0.0], &init, 0.98, &cfg);
        assert!(out.world_score > 0.9, "world score {}", out.world_score);
        assert!(out.scores.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn more_inflow_raises_local_scores_and_lowers_world() {
        let f = fragment(&[(0, 1), (1, 50)], &[0, 1]);
        let t = LocalTopology::build(&f);
        let cfg = JxpConfig::default();
        let init = vec![0.01, 0.01];
        let poor = extended_pagerank(&t, 100.0, &[0.0, 0.0], &init, 0.98, &cfg);
        let rich = extended_pagerank(&t, 100.0, &[0.3, 0.0], &init, 0.98, &cfg);
        assert!(rich.scores[0] > poor.scores[0]);
        assert!(rich.world_score < poor.world_score);
    }

    #[test]
    fn oversized_inflow_is_scaled_not_exploding() {
        let f = fragment(&[(0, 1)], &[0, 1]);
        let t = LocalTopology::build(&f);
        let cfg = JxpConfig::default();
        // Stale bookkeeping claims more inflow than the world holds.
        let out = extended_pagerank(&t, 10.0, &[5.0, 5.0], &[0.1, 0.1], 0.8, &cfg);
        let total: f64 = out.scores.iter().sum::<f64>() + out.world_score;
        assert!((total - 1.0).abs() < 1e-9);
        assert!(out.scores.iter().all(|&s| s.is_finite() && s >= 0.0));
    }

    #[test]
    fn world_gets_no_jump_mass_when_fragment_covers_everything() {
        // n == N: the world node represents zero pages; with no inflow and
        // no external links its stationary score must vanish.
        let f = fragment(&[(0, 1), (1, 0)], &[0, 1]);
        let t = LocalTopology::build(&f);
        let out = extended_pagerank(
            &t,
            2.0,
            &[0.0, 0.0],
            &[0.5, 0.5],
            0.0,
            &JxpConfig::default(),
        );
        assert!(out.world_score.abs() < 1e-12, "world {}", out.world_score);
        assert!((out.scores[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn warm_start_converges_faster_than_cold_start() {
        let f = fragment(&[(0, 1), (1, 2), (2, 0), (0, 5)], &[0, 1, 2]);
        let t = LocalTopology::build(&f);
        let cfg = JxpConfig::default();
        let inflow = vec![0.02, 0.0, 0.01];
        let cold = extended_pagerank(&t, 6.0, &inflow, &[1.0 / 6.0; 3], 0.5, &cfg);
        // Re-run from the converged vector: should finish almost instantly.
        let warm = extended_pagerank(&t, 6.0, &inflow, &cold.scores, cold.world_score, &cfg);
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    #[should_panic(expected = "smaller than local fragment")]
    fn n_total_smaller_than_fragment_panics() {
        let f = fragment(&[(0, 1)], &[0, 1]);
        let t = LocalTopology::build(&f);
        let _ = extended_pagerank(
            &t,
            1.0,
            &[0.0, 0.0],
            &[0.5, 0.5],
            0.0,
            &JxpConfig::default(),
        );
    }
}
