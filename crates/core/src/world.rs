//! The world node `W`.
//!
//! The world node represents every page a peer does not hold locally. Its
//! state is the set of **known in-links** from external pages into the
//! local graph: for each known external page `r` the peer stores `r`'s
//! true out-degree `out(r)`, the freshest learned authority score `α(r)`,
//! and the set of local pages `r` points to — exactly the bookkeeping the
//! paper's eq. (8) needs to weight the `W → i` transitions:
//!
//! ```text
//! p_wi = ( Σ_{r → i, r ∈ W} α(r) / out(r) ) / α_w
//! ```
//!
//! Links from external to external pages are *not* enumerated — they are
//! the world node's self-loop, whose probability `p_ww` absorbs whatever
//! the explicit `W → i` transitions do not claim (eq. 9).

use crate::config::CombineMode;
use jxp_webgraph::{PageId, Subgraph};
use std::collections::BTreeMap;

/// Knowledge about one external page that links into the local graph.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldEntry {
    /// The page's true (global) out-degree, `out(r)`.
    pub out_degree: u32,
    /// The freshest learned JXP score of the page, `α(r)`.
    pub score: f64,
    /// Local pages this external page links to (sorted global ids).
    pub targets: Vec<PageId>,
}

/// The world node: all known external in-link knowledge of one peer.
///
/// Besides the linked [`WorldEntry`]s, the world node tracks known
/// **external dangling pages** (zero out-degree). The paper leaves
/// dangling pages unspecified; this reproduction uses the standard
/// treatment (dangling rank mass redistributed uniformly over all `N`
/// pages) in the centralized ground truth, so the world node must model
/// the same flow or local scores would be systematically underestimated
/// and JXP would converge to a biased fixed point (see DESIGN.md §5).
/// Peers learn about external dangling pages at meetings exactly like
/// they learn about in-links: a met peer's local dangling pages (and its
/// own dangling knowledge) ride along in the payload.
/// Both maps are `BTreeMap`s on purpose (lint rule D1, no hash-ordered
/// iteration; see DESIGN.md §11): their
/// iteration order reaches float accumulation in
/// [`inflow`](WorldNode::inflow) / [`dangling_mass`](WorldNode::dangling_mass)
/// and the meeting payload / snapshot encoders, so it must be the same
/// on every run at every thread count. Sorted-by-`PageId` order is part
/// of the public contract of [`iter`](WorldNode::iter) and
/// [`dangling_iter`](WorldNode::dangling_iter).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorldNode {
    entries: BTreeMap<PageId, WorldEntry>,
    /// Known external dangling pages → freshest learned score.
    dangling: BTreeMap<PageId, f64>,
}

impl WorldNode {
    /// An empty world node (a freshly initialized peer knows nothing about
    /// external in-links — paper eq. 12).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of known external source pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no external in-links are known yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up the knowledge about external page `r`.
    pub fn entry(&self, r: PageId) -> Option<&WorldEntry> {
        self.entries.get(&r)
    }

    /// Iterate over `(source page, entry)` in ascending `PageId` order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &WorldEntry)> {
        self.entries.iter().map(|(&r, e)| (r, e))
    }

    /// Total number of stored `external → local` links.
    pub fn num_links(&self) -> usize {
        self.entries.values().map(|e| e.targets.len()).sum()
    }

    /// Insert or refresh knowledge about external page `src`.
    ///
    /// * `out_degree` — `src`'s true out-degree (must cover its links).
    /// * `score` — the sending peer's current `α(src)`; combined with any
    ///   existing knowledge per `combine` (§4.2: the optimized variant
    ///   takes the max because scores never overestimate true PR).
    /// * `targets` — local pages `src` links to; unioned with existing.
    ///
    /// # Panics
    /// Panics if `out_degree == 0` (a page with an out-link has degree ≥ 1)
    /// or `score` is not finite and non-negative.
    pub fn upsert(
        &mut self,
        src: PageId,
        out_degree: u32,
        score: f64,
        targets: impl IntoIterator<Item = PageId>,
        combine: CombineMode,
    ) {
        assert!(out_degree > 0, "external page {src:?} with zero out-degree");
        assert!(
            score.is_finite() && score >= 0.0,
            "invalid score {score} for {src:?}"
        );
        let entry = self.entries.entry(src).or_insert_with(|| WorldEntry {
            out_degree,
            score,
            targets: Vec::new(),
        });
        entry.out_degree = entry.out_degree.max(out_degree);
        entry.score = match combine {
            CombineMode::TakeMax => entry.score.max(score),
            CombineMode::Average => {
                if entry.targets.is_empty() {
                    // Fresh entry: no previous knowledge to average with.
                    score
                } else {
                    (entry.score + score) / 2.0
                }
            }
        };
        for t in targets {
            if let Err(pos) = entry.targets.binary_search(&t) {
                entry.targets.insert(pos, t);
            }
        }
        debug_assert!(
            entry.targets.len() <= entry.out_degree as usize,
            "entry {src:?} has more targets than out-degree"
        );
    }

    /// Authoritative structural update about external page `src` from a
    /// peer that holds it **locally** (and therefore knows its complete,
    /// current out-link list). Replaces any previously recorded out-degree,
    /// target set and dangling status — stale links from an older crawl of
    /// `src` are dropped, which is what keeps JXP adapting when the Web
    /// graph changes (§5.3). The *score* still combines per `combine`
    /// (freshness of authority estimates is a different matter from
    /// structural truth; see the module docs of [`crate::meeting`] for the
    /// TakeMax-under-shrinking-dynamics caveat).
    ///
    /// `targets` must be the (possibly empty) set of the *receiver's*
    /// local pages among `src`'s current successors; `out_degree` is
    /// `src`'s full current out-degree. If both are empty/zero the page is
    /// recorded as dangling.
    pub fn set_authoritative(
        &mut self,
        src: PageId,
        out_degree: u32,
        score: f64,
        targets: Vec<PageId>,
        combine: CombineMode,
    ) {
        assert!(
            score.is_finite() && score >= 0.0,
            "invalid score {score} for {src:?}"
        );
        if out_degree == 0 {
            self.entries.remove(&src);
            self.upsert_dangling(src, score, combine);
            return;
        }
        if targets.is_empty() {
            // The page no longer links into my fragment at all.
            self.forget(src);
            return;
        }
        self.dangling.remove(&src);
        let mut targets = targets;
        targets.sort_unstable();
        targets.dedup();
        assert!(
            targets.len() <= out_degree as usize,
            "more targets than out-degree for {src:?}"
        );
        let combined = match self.entries.get(&src) {
            Some(e) => match combine {
                CombineMode::TakeMax => e.score.max(score),
                CombineMode::Average => (e.score + score) / 2.0,
            },
            None => score,
        };
        self.entries.insert(
            src,
            WorldEntry {
                out_degree,
                score: combined,
                targets,
            },
        );
    }

    /// Drop whatever is recorded about external page `src`: what
    /// [`set_authoritative`](WorldNode::set_authoritative) does for a
    /// page that has out-links, none of them into this fragment. A
    /// receiver-filtered payload's bare ids
    /// ([`MeetingPayload::unlinked`](crate::MeetingPayload::unlinked))
    /// land here, which is why they need neither score nor links.
    pub fn forget(&mut self, src: PageId) {
        self.dangling.remove(&src);
        self.entries.remove(&src);
    }

    /// Record knowledge about an external **dangling** page (zero
    /// out-degree); its score combines per `combine` like any other
    /// external score.
    pub fn upsert_dangling(&mut self, page: PageId, score: f64, combine: CombineMode) {
        assert!(
            score.is_finite() && score >= 0.0,
            "invalid score {score} for dangling {page:?}"
        );
        match self.dangling.entry(page) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(score);
            }
            std::collections::btree_map::Entry::Occupied(mut o) => {
                let current = *o.get();
                *o.get_mut() = match combine {
                    CombineMode::TakeMax => current.max(score),
                    CombineMode::Average => (current + score) / 2.0,
                };
            }
        }
    }

    /// Number of known external dangling pages.
    pub fn num_dangling(&self) -> usize {
        self.dangling.len()
    }

    /// Total learned score mass of known external dangling pages. Their
    /// outflow is uniform: each local page receives `dangling_mass / N`
    /// per unit of world probability (folded into
    /// [`inflow`](WorldNode::inflow)).
    pub fn dangling_mass(&self) -> f64 {
        self.dangling.values().sum()
    }

    /// Iterate over known external dangling pages in ascending
    /// `PageId` order.
    pub fn dangling_iter(&self) -> impl Iterator<Item = (PageId, f64)> + '_ {
        self.dangling.iter().map(|(&p, &s)| (p, s))
    }

    /// Re-weight every stored score by `factor` — the paper's eq. (2)
    /// update `L(i) · PR(W) / L_M(W)` for external pages, used by the
    /// `Average` combine mode after a local PageRank run.
    pub fn scale_scores(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "bad scale factor {factor}"
        );
        for e in self.entries.values_mut() {
            e.score *= factor;
        }
        for s in self.dangling.values_mut() {
            *s *= factor;
        }
    }

    /// The authority mass each local page receives from the world node
    /// per unit of world-node probability — the numerators of eq. (8):
    /// `inflow[i] = Σ_{r → pages[i]} α(r) / out(r)` indexed by the dense
    /// local index of the target in `graph`, plus the uniform
    /// `dangling_mass / n_total` share every page receives from known
    /// external dangling pages. Targets not (or no longer) local are
    /// skipped.
    pub fn inflow(&self, graph: &Subgraph, n_total: f64) -> Vec<f64> {
        let dangling_share = self.dangling_mass() / n_total;
        let mut inflow = vec![dangling_share; graph.num_pages()];
        for e in self.entries.values() {
            let per_link = e.score / e.out_degree as f64;
            for &t in &e.targets {
                if let Some(i) = graph.local_index(t) {
                    inflow[i] += per_link;
                }
            }
        }
        inflow
    }

    /// Drop entries whose source became a local page (used after full
    /// merges: `T_M = (T_A ∪ T_B) − E_M`), and restrict targets to pages
    /// that are still local; entries left without targets are removed.
    /// Dangling knowledge about now-local pages is dropped likewise.
    pub fn retain_relevant(&mut self, graph: &Subgraph) {
        self.entries.retain(|&src, e| {
            if graph.contains(src) {
                return false;
            }
            e.targets.retain(|&t| graph.contains(t));
            !e.targets.is_empty()
        });
        self.dangling.retain(|&p, _| !graph.contains(p));
    }

    /// Wire size in bytes when shipped in a meeting message: per entry one
    /// page id (4), out-degree (4), score (8), target count (4) and 4 per
    /// target; per dangling entry one id (4) and score (8).
    pub fn wire_size(&self) -> usize {
        self.entries
            .values()
            .map(|e| 4 + 4 + 8 + 4 + 4 * e.targets.len())
            .sum::<usize>()
            + self.dangling.len() * 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxp_webgraph::{GraphBuilder, PageId};

    fn local_graph() -> Subgraph {
        // Global: 0→1, 1→0; local fragment = {0, 1}.
        let mut b = GraphBuilder::new();
        b.add_edge(PageId(0), PageId(1));
        b.add_edge(PageId(1), PageId(0));
        let g = b.build();
        Subgraph::from_pages(&g, [PageId(0), PageId(1)])
    }

    #[test]
    fn upsert_inserts_and_unions_targets() {
        let mut w = WorldNode::new();
        w.upsert(PageId(5), 3, 0.1, [PageId(0)], CombineMode::TakeMax);
        w.upsert(
            PageId(5),
            3,
            0.1,
            [PageId(1), PageId(0)],
            CombineMode::TakeMax,
        );
        assert_eq!(w.len(), 1);
        let e = w.entry(PageId(5)).unwrap();
        assert_eq!(e.targets, vec![PageId(0), PageId(1)]);
        assert_eq!(w.num_links(), 2);
    }

    #[test]
    fn take_max_keeps_bigger_score() {
        let mut w = WorldNode::new();
        w.upsert(PageId(5), 2, 0.10, [PageId(0)], CombineMode::TakeMax);
        w.upsert(PageId(5), 2, 0.05, [PageId(0)], CombineMode::TakeMax);
        assert_eq!(w.entry(PageId(5)).unwrap().score, 0.10);
        w.upsert(PageId(5), 2, 0.20, [PageId(0)], CombineMode::TakeMax);
        assert_eq!(w.entry(PageId(5)).unwrap().score, 0.20);
    }

    #[test]
    fn average_mode_averages_scores() {
        let mut w = WorldNode::new();
        w.upsert(PageId(5), 2, 0.10, [PageId(0)], CombineMode::Average);
        w.upsert(PageId(5), 2, 0.30, [PageId(0)], CombineMode::Average);
        assert!((w.entry(PageId(5)).unwrap().score - 0.20).abs() < 1e-12);
    }

    #[test]
    fn inflow_weights_by_score_over_outdegree() {
        let g = local_graph();
        let mut w = WorldNode::new();
        // Page 7: α = 0.2, out-degree 4, links to local 0 and 1.
        w.upsert(
            PageId(7),
            4,
            0.2,
            [PageId(0), PageId(1)],
            CombineMode::TakeMax,
        );
        // Page 9: α = 0.1, out-degree 2, links to local 1.
        w.upsert(PageId(9), 2, 0.1, [PageId(1)], CombineMode::TakeMax);
        let inflow = w.inflow(&g, 100.0);
        assert!((inflow[0] - 0.05).abs() < 1e-12); // 0.2/4
        assert!((inflow[1] - (0.05 + 0.05)).abs() < 1e-12); // 0.2/4 + 0.1/2
    }

    #[test]
    fn inflow_skips_non_local_targets() {
        let g = local_graph();
        let mut w = WorldNode::new();
        w.upsert(
            PageId(7),
            2,
            0.2,
            [PageId(0), PageId(42)],
            CombineMode::TakeMax,
        );
        let inflow = w.inflow(&g, 100.0);
        assert!((inflow[0] - 0.1).abs() < 1e-12);
        assert_eq!(inflow.len(), 2);
    }

    #[test]
    fn retain_relevant_prunes_local_sources_and_dead_targets() {
        let g = local_graph();
        let mut w = WorldNode::new();
        w.upsert(PageId(0), 2, 0.2, [PageId(1)], CombineMode::TakeMax); // now local
        w.upsert(PageId(7), 2, 0.1, [PageId(42)], CombineMode::TakeMax); // dead target
        w.upsert(
            PageId(8),
            2,
            0.1,
            [PageId(0), PageId(42)],
            CombineMode::TakeMax,
        );
        w.retain_relevant(&g);
        assert_eq!(w.len(), 1);
        assert_eq!(w.entry(PageId(8)).unwrap().targets, vec![PageId(0)]);
    }

    #[test]
    fn scale_scores() {
        let mut w = WorldNode::new();
        w.upsert(PageId(7), 2, 0.2, [PageId(0)], CombineMode::TakeMax);
        w.scale_scores(0.5);
        assert!((w.entry(PageId(7)).unwrap().score - 0.1).abs() < 1e-12);
    }

    #[test]
    fn wire_size_grows_with_knowledge() {
        let mut w = WorldNode::new();
        let empty = w.wire_size();
        w.upsert(PageId(7), 2, 0.2, [PageId(0)], CombineMode::TakeMax);
        let one = w.wire_size();
        assert!(one > empty);
        w.upsert(PageId(7), 2, 0.2, [PageId(1)], CombineMode::TakeMax);
        assert_eq!(w.wire_size(), one + 4);
    }

    #[test]
    fn set_authoritative_replaces_stale_links() {
        let mut w = WorldNode::new();
        w.upsert(
            PageId(7),
            5,
            0.1,
            [PageId(0), PageId(1)],
            CombineMode::TakeMax,
        );
        // Fresh crawl of page 7: it now has 2 out-links, only one into me.
        w.set_authoritative(PageId(7), 2, 0.05, vec![PageId(1)], CombineMode::TakeMax);
        let e = w.entry(PageId(7)).unwrap();
        assert_eq!(e.out_degree, 2);
        assert_eq!(e.targets, vec![PageId(1)]);
        // Score still combines (TakeMax keeps the bigger one).
        assert_eq!(e.score, 0.1);
    }

    #[test]
    fn set_authoritative_handles_dangling_transitions() {
        let mut w = WorldNode::new();
        // Page 7 links to me …
        w.set_authoritative(PageId(7), 1, 0.1, vec![PageId(0)], CombineMode::TakeMax);
        assert_eq!(w.len(), 1);
        assert_eq!(w.num_dangling(), 0);
        // … then loses all its out-links (becomes dangling) …
        w.set_authoritative(PageId(7), 0, 0.1, vec![], CombineMode::TakeMax);
        assert_eq!(w.len(), 0);
        assert_eq!(w.num_dangling(), 1);
        // … then gains links again, none into me.
        w.set_authoritative(PageId(7), 3, 0.1, vec![], CombineMode::TakeMax);
        assert_eq!(w.len(), 0);
        assert_eq!(w.num_dangling(), 0);
    }

    #[test]
    fn dangling_mass_feeds_uniform_inflow() {
        let g = local_graph();
        let mut w = WorldNode::new();
        w.upsert_dangling(PageId(9), 0.3, CombineMode::TakeMax);
        let inflow = w.inflow(&g, 10.0);
        // Each local page gets dangling_mass / N = 0.03.
        assert!((inflow[0] - 0.03).abs() < 1e-12);
        assert!((inflow[1] - 0.03).abs() < 1e-12);
        assert!((w.dangling_mass() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn dangling_scores_combine_per_mode() {
        let mut w = WorldNode::new();
        w.upsert_dangling(PageId(9), 0.2, CombineMode::TakeMax);
        w.upsert_dangling(PageId(9), 0.1, CombineMode::TakeMax);
        assert_eq!(w.dangling_iter().next().unwrap().1, 0.2);
        let mut w2 = WorldNode::new();
        w2.upsert_dangling(PageId(9), 0.2, CombineMode::Average);
        w2.upsert_dangling(PageId(9), 0.1, CombineMode::Average);
        assert!((w2.dangling_iter().next().unwrap().1 - 0.15).abs() < 1e-12);
    }

    #[test]
    fn iteration_order_is_ascending_regardless_of_insertion_order() {
        // Regression test for the determinism contract: however entries
        // arrive (meetings happen in arbitrary order), iter() and
        // dangling_iter() must yield ascending PageIds so payload
        // assembly, snapshots, and inflow accumulation are replayable.
        let mut w = WorldNode::new();
        for src in [97u32, 3, 55, 12, 88, 1, 42] {
            w.upsert(PageId(src), 2, 0.1, [PageId(0)], CombineMode::TakeMax);
        }
        for p in [66u32, 5, 31] {
            w.upsert_dangling(PageId(p), 0.1, CombineMode::TakeMax);
        }
        let order: Vec<PageId> = w.iter().map(|(s, _)| s).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
        assert_eq!(order.len(), 7);
        let d_order: Vec<PageId> = w.dangling_iter().map(|(p, _)| p).collect();
        let mut d_sorted = d_order.clone();
        d_sorted.sort_unstable();
        assert_eq!(d_order, d_sorted);
    }

    #[test]
    fn inflow_is_bitwise_stable_across_insertion_orders() {
        // Float accumulation order must not depend on how knowledge was
        // learned: two peers that learned the same facts in different
        // meeting orders must compute bit-identical inflow vectors.
        let g = local_graph();
        let facts: Vec<(u32, u32, f64)> =
            vec![(7, 4, 0.2), (9, 2, 0.1), (13, 8, 0.05), (21, 3, 0.07)];
        let mut forward = WorldNode::new();
        for &(src, deg, score) in &facts {
            forward.upsert(
                PageId(src),
                deg,
                score,
                [PageId(0), PageId(1)],
                CombineMode::TakeMax,
            );
        }
        let mut reverse = WorldNode::new();
        for &(src, deg, score) in facts.iter().rev() {
            reverse.upsert(
                PageId(src),
                deg,
                score,
                [PageId(0), PageId(1)],
                CombineMode::TakeMax,
            );
        }
        let a = forward.inflow(&g, 100.0);
        let b = reverse.inflow(&g, 100.0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "inflow differs bitwise");
        }
    }

    #[test]
    #[should_panic(expected = "zero out-degree")]
    fn zero_out_degree_rejected() {
        let mut w = WorldNode::new();
        w.upsert(PageId(7), 0, 0.2, [PageId(0)], CombineMode::TakeMax);
    }

    #[test]
    #[should_panic(expected = "invalid score")]
    fn nan_score_rejected() {
        let mut w = WorldNode::new();
        w.upsert(PageId(7), 1, f64::NAN, [PageId(0)], CombineMode::TakeMax);
    }
}
