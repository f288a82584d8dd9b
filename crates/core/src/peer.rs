//! A JXP peer: local graph fragment, world node, score list.

use crate::config::{CombineMode, JxpConfig, MergeMode};
use crate::local_pr::{
    extended_pagerank, extended_pagerank_in_place, LocalTopology, PrRun, PrScratch,
};
use crate::payload::{key, MeetingPayload};
use crate::world::WorldNode;
use jxp_synopses::BloomFilter;
use jxp_webgraph::{FxHashMap, GraphSource, PageId, Subgraph};

/// Running statistics of one peer, used by the experiments.
#[derive(Debug, Clone, Default)]
pub struct PeerStats {
    /// Meetings this peer has taken part in.
    pub meetings: u64,
    /// Power iterations of the most recent local PageRank run.
    pub last_pr_iterations: usize,
    /// Total power iterations over the peer's lifetime.
    pub total_pr_iterations: u64,
}

/// One autonomous peer running the JXP algorithm.
///
/// Holds the local fragment (global page ids), the world node, and the
/// current JXP score list. Created with Algorithm 1 (local PageRank on the
/// extended graph starting from the uniform vector); updated by
/// [`meeting::meet`](crate::meeting::meet).
#[derive(Debug, Clone)]
pub struct JxpPeer {
    graph: Subgraph,
    topo: LocalTopology,
    world: WorldNode,
    scores: Vec<f64>,
    world_score: f64,
    n_total: f64,
    config: JxpConfig,
    stats: PeerStats,
    /// Work vectors of the local PageRank, reused across meetings.
    scratch: PrScratch,
    /// Bloom filter over the local page ids; see [`JxpPeer::interest`].
    interest: Option<BloomFilter>,
}

/// Bits per local page and hash count of the interest filter: about 1 %
/// false positives, 224 bytes on the wire for a 163-page fragment.
const INTEREST_BITS_PER_PAGE: usize = 10;
const INTEREST_HASHES: u32 = 7;

/// The filter a peer with this fragment and configuration publishes.
fn interest_of(graph: &Subgraph, config: &JxpConfig) -> Option<BloomFilter> {
    (config.merge == MergeMode::LightWeight).then(|| {
        let mut filter =
            BloomFilter::new(INTEREST_BITS_PER_PAGE * graph.num_pages(), INTEREST_HASHES);
        for &p in graph.pages() {
            filter.insert(key(p));
        }
        filter
    })
}

impl JxpPeer {
    /// Create a peer and run the JXP initialization (Algorithm 1):
    /// local scores start at `1/N`, the world node at `(N−n)/N`, then one
    /// local PageRank run on the extended graph.
    ///
    /// # Panics
    /// Panics if the fragment is empty, `n_total < n`, or the config is
    /// invalid.
    pub fn new(graph: Subgraph, n_total: u64, config: JxpConfig) -> Self {
        config.validate();
        let n = graph.num_pages();
        assert!(n > 0, "a peer needs at least one local page");
        assert!(
            n_total as usize >= n,
            "global page count {n_total} smaller than fragment size {n}"
        );
        let n_total = n_total as f64;
        let topo = LocalTopology::build(&graph);
        let scores = vec![1.0 / n_total; n];
        let world_score = (n_total - n as f64) / n_total;
        let mut peer = JxpPeer {
            interest: interest_of(&graph, &config),
            graph,
            topo,
            world: WorldNode::new(),
            scores,
            world_score,
            n_total,
            config,
            stats: PeerStats::default(),
            scratch: PrScratch::default(),
        };
        peer.recompute();
        peer
    }

    /// Create a peer whose fragment is cut directly out of any
    /// [`GraphSource`] — in particular `jxp-segstore`'s disk-backed
    /// `SegmentedGraph`, so peers can be stood up against a global
    /// graph that never fits in memory. Equivalent to
    /// `JxpPeer::new(Subgraph::from_source(global, pages), ..)`; the
    /// extended-graph PageRank it runs is bit-identical to the
    /// in-memory path because fragment extraction yields the same
    /// successor lists in the same order.
    ///
    /// # Panics
    /// As [`JxpPeer::new`].
    pub fn from_source<G: GraphSource + ?Sized>(
        global: &G,
        pages: impl IntoIterator<Item = PageId>,
        n_total: u64,
        config: JxpConfig,
    ) -> Self {
        JxpPeer::new(Subgraph::from_source(global, pages), n_total, config)
    }

    /// The local fragment.
    pub fn graph(&self) -> &Subgraph {
        &self.graph
    }

    /// The world node.
    pub fn world(&self) -> &WorldNode {
        &self.world
    }

    /// The algorithm configuration.
    pub fn config(&self) -> &JxpConfig {
        &self.config
    }

    /// Number of local pages.
    pub fn num_pages(&self) -> usize {
        self.graph.num_pages()
    }

    /// The (estimated) global page count `N` this peer assumes.
    pub fn n_total(&self) -> f64 {
        self.n_total
    }

    /// Update the peer's estimate of `N` (used by the gossip-based
    /// estimation extension; takes effect at the next recomputation).
    ///
    /// # Panics
    /// Panics if the new estimate is smaller than the fragment.
    pub fn set_n_total(&mut self, n_total: f64) {
        assert!(
            n_total >= self.num_pages() as f64,
            "N estimate {n_total} below fragment size"
        );
        self.n_total = n_total;
    }

    /// Current JXP score of a local page, `None` if the page is not local.
    pub fn score(&self, p: PageId) -> Option<f64> {
        self.graph.local_index(p).map(|i| self.scores[i])
    }

    /// The local score list (dense index order, parallel to
    /// `graph().pages()`).
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Current world-node score `α_w`.
    pub fn world_score(&self) -> f64 {
        self.world_score
    }

    /// Sum of all local page scores (Theorem 5.2 says this is
    /// monotonically non-decreasing under the optimized algorithm).
    pub fn local_mass(&self) -> f64 {
        self.scores.iter().sum()
    }

    /// Running statistics.
    pub fn stats(&self) -> &PeerStats {
        &self.stats
    }

    /// What a meeting partner needs to know to cut its payload to this
    /// peer: a Bloom filter over the local page ids, rebuilt whenever the
    /// fragment changes. `None` under [`MergeMode::Full`], which merges
    /// the partner's whole graph and therefore needs all of it.
    pub fn interest(&self) -> Option<&BloomFilter> {
        self.interest.as_ref()
    }

    /// Assemble the whole message this peer can send in a meeting.
    pub fn payload(&self) -> MeetingPayload {
        self.payload_for(None)
    }

    /// Assemble the message for a partner whose
    /// [`interest`](JxpPeer::interest) is `cut_to`: only the records that
    /// partner can use (see [`crate::payload`]). Absorbing it leaves the
    /// partner in exactly the state the whole payload would.
    pub fn payload_for(&self, cut_to: Option<&BloomFilter>) -> MeetingPayload {
        MeetingPayload::assemble(
            &self.graph,
            &self.world,
            &self.scores,
            self.world_score,
            self.interest(),
            cut_to,
        )
    }

    /// Whether `payload` is whole or was cut to this peer's current
    /// filter — the only payloads [`absorb`](JxpPeer::absorb) may see.
    fn cut_for_me(&self, payload: &MeetingPayload) -> bool {
        payload.cut_for == 0
            || self
                .interest()
                .is_some_and(|f| f.fingerprint() == payload.cut_for)
    }

    /// [`absorb`](JxpPeer::absorb) with payload validation first: the
    /// payload is rejected (and the peer's state left untouched) if it is
    /// malformed — the §7 hardening against broken or cheating peers — or
    /// was cut to a filter that is not this peer's (another peer's, or
    /// this peer's before a re-crawl): records it needs may be missing.
    pub fn try_absorb(&mut self, payload: &MeetingPayload) -> Result<(), String> {
        payload.validate()?;
        if !self.cut_for_me(payload) {
            return Err(format!(
                "payload was cut for filter {:016x}, not this peer's",
                payload.cut_for
            ));
        }
        self.absorb(payload);
        Ok(())
    }

    /// Fold a met peer's payload into this peer's state and recompute the
    /// local scores, dispatching on the configured [`MergeMode`].
    /// Increments the meeting counter. The payload must be whole or cut
    /// to this peer's [`interest`](JxpPeer::interest).
    pub fn absorb(&mut self, payload: &MeetingPayload) {
        debug_assert!(self.cut_for_me(payload), "payload cut for another peer");
        self.stats.meetings += 1;
        match self.config.merge {
            MergeMode::LightWeight => self.absorb_light(payload),
            MergeMode::Full => self.absorb_full(payload),
        }
    }

    fn combine_scores(&self, mine: f64, theirs: f64) -> f64 {
        match self.config.combine {
            CombineMode::TakeMax => mine.max(theirs),
            CombineMode::Average => (mine + theirs) / 2.0,
        }
    }

    /// §4.1 light-weight merging: add the relevant in-link knowledge to
    /// the local world node, combine overlapping scores, recompute on the
    /// *unchanged* extended local graph.
    fn absorb_light(&mut self, payload: &MeetingPayload) {
        for pp in payload.pages() {
            if let Some(i) = self.graph.local_index(pp.page) {
                // Overlapping page: combine the two score opinions.
                self.scores[i] = self.combine_scores(self.scores[i], pp.score);
            }
        }
        self.world
            .absorb_light(payload, &self.graph, self.config.combine);
        // Paper eq. (1): the world node takes whatever mass the local
        // pages do not claim.
        self.world_score = (1.0 - self.local_mass()).clamp(0.0, 1.0);
        self.recompute();
    }

    /// Algorithm 2 (baseline) full merging: build `G_M = G_A ∪ G_B` with a
    /// merged world node and score list, run PageRank on the merged
    /// extended graph, then project back onto this peer and discard the
    /// merged structures.
    fn absorb_full(&mut self, payload: &MeetingPayload) {
        let combine = self.config.combine;
        // ---- Build the merged graph V_M = V_A ∪ V_B, E_M = E_A ∪ E_B.
        let other =
            Subgraph::from_adjacency(payload.pages().map(|pp| (pp.page, pp.succs.to_vec())));
        let merged = self.graph.union(&other);

        // ---- Merged score list (average / max for pages in both).
        let their_score: FxHashMap<PageId, f64> =
            payload.pages().map(|pp| (pp.page, pp.score)).collect();
        let mut merged_scores = vec![0.0f64; merged.num_pages()];
        for (i, s) in merged_scores.iter_mut().enumerate() {
            let p = merged.page_at(i);
            let mine = self.score(p);
            let theirs = their_score.get(&p).copied();
            *s = match (mine, theirs) {
                (Some(a), Some(b)) => self.combine_scores(a, b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => unreachable!("merged page from neither peer"),
            };
        }

        // ---- Merged world node: T_M = (T_A ∪ T_B) − E_M.
        let mut merged_world = self.world.clone();
        merged_world.merge(
            payload.world().map(|wp| (wp.src, wp)),
            (payload.world().len(), payload.num_links()),
            |slot, wp| slot.upsert(wp.out_degree, wp.score, wp.targets.iter().copied(), combine),
        );
        for &(page, score) in &payload.world_dangling {
            merged_world.upsert_dangling(page, score, combine);
        }
        merged_world.retain_relevant(&merged);

        // ---- Merged world score, eq. (1), and the PageRank run.
        let merged_world_score = (1.0 - merged_scores.iter().sum::<f64>()).clamp(0.0, 1.0);
        let merged_topo = LocalTopology::build(&merged);
        let inflow = merged_world.inflow(&merged, self.n_total);
        let outcome = extended_pagerank(
            &merged_topo,
            self.n_total,
            &inflow,
            &merged_scores,
            merged_world_score,
            &self.config,
        );
        self.stats.last_pr_iterations = outcome.iterations;
        self.stats.total_pr_iterations += outcome.iterations as u64;

        // Eq. (2) re-weighting factor for external bookkeeping scores
        // (only in Average mode; eq. (3) keeps them unchanged).
        let reweight = match combine {
            CombineMode::Average if merged_world_score > 1e-15 => {
                outcome.world_score / merged_world_score
            }
            _ => 1.0,
        };

        // ---- Project back onto A: keep scores of pages in V_A …
        for i in 0..self.graph.num_pages() {
            let p = self.graph.page_at(i);
            let mi = merged.local_index(p).expect("V_A ⊆ V_M");
            self.scores[i] = outcome.scores[mi];
        }
        self.world_score = (1.0 - self.local_mass()).clamp(0.0, 1.0);

        // ---- … and rebuild W_A: links from W_M into V_A, plus links from
        // E_B into V_A (their sources got fresh scores from the merged PR).
        // Dangling knowledge "points everywhere": always kept. No source
        // of W_M is in V_M ⊇ V_A, so only targets are dropped here.
        let mut new_world = merged_world;
        new_world.scale_scores(reweight);
        new_world.retain_relevant(&self.graph);
        let graph = &self.graph;
        new_world.merge(
            payload
                .pages()
                .filter(|pp| !graph.contains(pp.page))
                .map(|pp| (pp.page, pp)),
            (payload.pages().len(), payload.num_links()),
            |slot, pp| {
                let mi = merged.local_index(pp.page).expect("V_B ⊆ V_M");
                if pp.succs.is_empty() {
                    // B's local dangling page, external to me: its fresh
                    // score comes from the merged PageRank run.
                    slot.upsert_dangling(outcome.scores[mi], combine);
                    return;
                }
                let mut targets = pp
                    .succs
                    .iter()
                    .copied()
                    .filter(|&t| graph.contains(t))
                    .peekable();
                if targets.peek().is_some() {
                    let degree = pp.succs.len() as u32;
                    slot.upsert(degree, outcome.scores[mi], targets, combine);
                }
            },
        );
        self.world = new_world;
    }

    /// Reassemble a peer from snapshot parts (see [`crate::snapshot`]).
    /// The caller guarantees internal consistency; the topology caches are
    /// rebuilt here.
    pub(crate) fn from_snapshot_parts(
        graph: Subgraph,
        world: WorldNode,
        scores: Vec<f64>,
        world_score: f64,
        n_total: f64,
        config: JxpConfig,
        stats: PeerStats,
    ) -> Self {
        debug_assert_eq!(graph.num_pages(), scores.len());
        let topo = LocalTopology::build(&graph);
        JxpPeer {
            interest: interest_of(&graph, &config),
            graph,
            topo,
            world,
            scores,
            world_score,
            n_total,
            config,
            stats,
            scratch: PrScratch::default(),
        }
    }

    /// Replace the peer's local fragment — a **re-crawl** (§5.3: "peers
    /// want to periodically re-crawl parts of the Web according to their
    /// interest profiles and refreshing policies").
    ///
    /// Scores of pages present in both the old and new fragment carry
    /// over; newly crawled pages start at `1/N`; world-node knowledge
    /// about pages that became local (or whose targets vanished) is
    /// pruned; then the local PageRank runs on the new extended graph.
    ///
    /// # Panics
    /// Panics if the new fragment is empty or larger than `N`.
    pub fn update_fragment(&mut self, graph: Subgraph) {
        let n = graph.num_pages();
        assert!(n > 0, "a peer needs at least one local page");
        assert!(
            self.n_total >= n as f64,
            "fragment larger than the assumed global graph"
        );
        let mut scores = vec![1.0 / self.n_total; n];
        for (i, s) in scores.iter_mut().enumerate() {
            if let Some(old) = self.score(graph.page_at(i)) {
                *s = old;
            }
        }
        self.topo = LocalTopology::build(&graph);
        self.interest = interest_of(&graph, &self.config);
        self.graph = graph;
        self.scores = scores;
        self.world.retain_relevant(&self.graph);
        self.world_score = (1.0 - self.local_mass()).clamp(0.0, 1.0);
        self.recompute();
    }

    /// Run the local PageRank on the extended graph with the current world
    /// knowledge, updating the score list and world score in place.
    /// Returns the iteration details of the run.
    pub fn recompute(&mut self) -> PrRun {
        let inflow = self.world.inflow(&self.graph, self.n_total);
        let run = extended_pagerank_in_place(
            &self.topo,
            self.n_total,
            &inflow,
            &mut self.scores,
            self.world_score,
            &self.config,
            &mut self.scratch,
        );
        self.stats.last_pr_iterations = run.iterations;
        self.stats.total_pr_iterations += run.iterations as u64;
        // Eq. (2) for the Average baseline: re-weight external bookkeeping
        // scores by PR(W)/L(W); eq. (3) (TakeMax) leaves them unchanged.
        if self.config.combine == CombineMode::Average && self.world_score > 1e-15 {
            self.world.scale_scores(run.world_score / self.world_score);
        }
        self.world_score = run.world_score;
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxp_webgraph::GraphBuilder;

    fn cycle_graph() -> jxp_webgraph::CsrGraph {
        let mut b = GraphBuilder::new();
        for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_edge(PageId(s), PageId(d));
        }
        b.build()
    }

    #[test]
    fn initialization_runs_algorithm_one() {
        let g = cycle_graph();
        let f = Subgraph::from_pages(&g, [PageId(0), PageId(1)]);
        let peer = JxpPeer::new(f, 4, JxpConfig::default());
        // No in-link knowledge yet: the world keeps most of the mass.
        assert!(peer.world_score() > 0.5);
        let total = peer.local_mass() + peer.world_score();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        assert!(peer.scores().iter().all(|&s| s > 0.0));
        assert_eq!(peer.stats().meetings, 0);
    }

    #[test]
    fn payload_round_trip_updates_world_knowledge() {
        let g = cycle_graph();
        let mut a = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(0), PageId(1)]),
            4,
            JxpConfig::default(),
        );
        let b = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(2), PageId(3)]),
            4,
            JxpConfig::default(),
        );
        assert!(a.world().is_empty());
        a.absorb(&b.payload());
        // B's page 3 links to A's page 0: must now be a world entry.
        let e = a.world().entry(PageId(3)).expect("entry for page 3");
        assert_eq!(e.targets, vec![PageId(0)]);
        assert_eq!(e.out_degree, 1);
        assert_eq!(a.stats().meetings, 1);
    }

    #[test]
    fn world_score_decreases_as_knowledge_grows() {
        let g = cycle_graph();
        let mut a = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(0), PageId(1)]),
            4,
            JxpConfig::default(),
        );
        let before = a.world_score();
        let b = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(2), PageId(3)]),
            4,
            JxpConfig::default(),
        );
        a.absorb(&b.payload());
        assert!(
            a.world_score() <= before + 1e-12,
            "world score rose: {} → {}",
            before,
            a.world_score()
        );
    }

    #[test]
    fn full_merge_mode_also_learns() {
        let g = cycle_graph();
        let cfg = JxpConfig::baseline();
        let mut a = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(0), PageId(1)]),
            4,
            cfg.clone(),
        );
        let b = JxpPeer::new(Subgraph::from_pages(&g, [PageId(2), PageId(3)]), 4, cfg);
        a.absorb(&b.payload());
        // The projected-back world node carries B's link 3 → 0.
        let e = a.world().entry(PageId(3)).expect("entry for page 3");
        assert_eq!(e.targets, vec![PageId(0)]);
        let total = a.local_mass() + a.world_score();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_pages_combine_with_max() {
        let g = cycle_graph();
        let cfg = JxpConfig::default(); // TakeMax
        let mut a = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(0), PageId(1)]),
            4,
            cfg.clone(),
        );
        let b = JxpPeer::new(Subgraph::from_pages(&g, [PageId(1), PageId(2)]), 4, cfg);
        let b_score_1 = b.score(PageId(1)).unwrap();
        let a_score_1 = a.score(PageId(1)).unwrap();
        a.absorb(&b.payload());
        // After combining, a's knowledge about page 1 is at least the max
        // of the two prior opinions (the subsequent PR run may move it up).
        assert!(a.score(PageId(1)).unwrap() >= a_score_1.max(b_score_1) - 1e-9);
    }

    #[test]
    fn set_n_total_validates() {
        let g = cycle_graph();
        let mut a = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(0), PageId(1)]),
            4,
            JxpConfig::default(),
        );
        a.set_n_total(10.0);
        assert_eq!(a.n_total(), 10.0);
    }

    #[test]
    #[should_panic(expected = "below fragment size")]
    fn set_n_total_too_small_panics() {
        let g = cycle_graph();
        let mut a = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(0), PageId(1)]),
            4,
            JxpConfig::default(),
        );
        a.set_n_total(1.0);
    }

    #[test]
    #[should_panic(expected = "at least one local page")]
    fn empty_fragment_panics() {
        let _ = JxpPeer::new(Subgraph::default(), 4, JxpConfig::default());
    }

    #[test]
    fn update_fragment_carries_scores_and_prunes_world() {
        let g = cycle_graph();
        let mut a = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(0), PageId(1)]),
            4,
            JxpConfig::default(),
        );
        let b = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(2), PageId(3)]),
            4,
            JxpConfig::default(),
        );
        a.absorb(&b.payload());
        let old_score_0 = a.score(PageId(0)).unwrap();
        assert!(a.world().entry(PageId(3)).is_some());
        // Re-crawl: a now also holds page 3 (the former world entry).
        a.update_fragment(Subgraph::from_pages(&g, [PageId(0), PageId(1), PageId(3)]));
        assert_eq!(a.num_pages(), 3);
        // Page 3 became local → its world entry is gone.
        assert!(a.world().entry(PageId(3)).is_none());
        // Page 0's knowledge carried over (scores keep evolving, but the
        // state is valid and at least as informed as before).
        assert!(a.score(PageId(0)).unwrap() > 0.0);
        assert!(a.score(PageId(3)).unwrap() > 0.0);
        let total = a.local_mass() + a.world_score();
        assert!((total - 1.0).abs() < 1e-9);
        let _ = old_score_0;
    }

    #[test]
    fn update_fragment_handles_shrinking() {
        let g = cycle_graph();
        let mut a = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(0), PageId(1), PageId(2)]),
            4,
            JxpConfig::default(),
        );
        a.update_fragment(Subgraph::from_pages(&g, [PageId(1)]));
        assert_eq!(a.num_pages(), 1);
        assert!(a.score(PageId(0)).is_none());
        let total = a.local_mass() + a.world_score();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one local page")]
    fn update_fragment_rejects_empty() {
        let g = cycle_graph();
        let mut a = JxpPeer::new(
            Subgraph::from_pages(&g, [PageId(0)]),
            4,
            JxpConfig::default(),
        );
        a.update_fragment(Subgraph::default());
    }

    #[test]
    fn stale_links_are_dropped_via_authoritative_updates() {
        // A learns 3 → 0 from B; later B re-crawls and 3 now points to 1
        // only. After meeting B again, A's world entry must reflect the
        // new structure (no stale 3 → 0 link).
        let mut builder = GraphBuilder::new();
        for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            builder.add_edge(PageId(s), PageId(d));
        }
        let g_old = builder.build();
        let mut builder = GraphBuilder::new();
        for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 1)] {
            builder.add_edge(PageId(s), PageId(d));
        }
        let g_new = builder.build();

        let mut a = JxpPeer::new(
            Subgraph::from_pages(&g_old, [PageId(0), PageId(1)]),
            4,
            JxpConfig::default(),
        );
        let mut b = JxpPeer::new(
            Subgraph::from_pages(&g_old, [PageId(2), PageId(3)]),
            4,
            JxpConfig::default(),
        );
        crate::meeting::meet(&mut a, &mut b);
        assert_eq!(a.world().entry(PageId(3)).unwrap().targets, vec![PageId(0)]);
        // B re-crawls against the changed Web.
        b.update_fragment(Subgraph::from_pages(&g_new, [PageId(2), PageId(3)]));
        crate::meeting::meet(&mut a, &mut b);
        assert_eq!(
            a.world().entry(PageId(3)).unwrap().targets,
            vec![PageId(1)],
            "stale link 3→0 survived the authoritative update"
        );

        // The Web changes once more: 3 now points to 2 only, nowhere
        // near A. B's message to A carries page 3 (like page 2 → 3) as
        // a bare id — no score, no links — and that alone must drop A's
        // entry.
        let mut builder = GraphBuilder::new();
        for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 2)] {
            builder.add_edge(PageId(s), PageId(d));
        }
        let g_newer = builder.build();
        b.update_fragment(Subgraph::from_pages(&g_newer, [PageId(2), PageId(3)]));
        let to_a = b.payload_for(a.interest());
        assert_eq!(to_a.unlinked, vec![PageId(2), PageId(3)]);
        assert_eq!(to_a.pages().len(), 0);
        crate::meeting::meet(&mut a, &mut b);
        assert!(
            a.world().entry(PageId(3)).is_none(),
            "stale link 3→1 survived the bare id"
        );
    }
}
