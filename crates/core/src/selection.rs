//! Peer-selection strategies (§4.3).
//!
//! The basic strategy picks meeting partners uniformly at random. The
//! **pre-meetings** strategy uses min-wise-permutation synopses to find
//! the most promising partners — peers whose out-links are in-links of
//! many of my local pages:
//!
//! * every peer publishes two MIPs vectors, `local(A)` (its page set) and
//!   `successors(A)` (the targets of all its out-links);
//! * at every meeting, each side computes
//!   `Containment(successors(B), local(A))` — the fraction of its local
//!   pages with in-links from the other peer — and **caches** the other
//!   peer's id if it is above a threshold;
//! * when the two peers' local sets **overlap** strongly, they exchange
//!   their cached-peer lists (a peer pointing into A likely points into an
//!   overlapping B too) and hold cheap **pre-meetings** with the received
//!   candidates, fetching only their `successors` MIPs vector to score
//!   them; the best-scored candidate becomes the next real meeting;
//! * every `k`-th selection remains truly random so the fairness premise
//!   of the convergence proof (Theorem 5.4) is preserved, and cached peers
//!   are revisited with small probability to track network changes.

use jxp_synopses::mips::{MipsPermutations, MipsVector};
use jxp_webgraph::Subgraph;
use rand::Rng;

/// The two MIPs vectors every peer publishes (§4.3 "Peer Synopses").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerSynopses {
    /// MIPs vector of the set of local page ids, `local(A)`.
    pub local: MipsVector,
    /// MIPs vector of the set of all successors of local pages,
    /// `successors(A)`.
    pub successors: MipsVector,
}

impl PeerSynopses {
    /// Compute both vectors for a fragment under a shared permutation
    /// family.
    pub fn compute(graph: &Subgraph, perms: &MipsPermutations) -> Self {
        let local = MipsVector::from_elements(perms, graph.pages().iter().map(|p| p.0 as u64));
        let successors =
            MipsVector::from_elements(perms, graph.successor_set().into_iter().map(|p| p.0 as u64));
        PeerSynopses { local, successors }
    }

    /// Bytes added to a meeting message when the synopses piggyback on it.
    pub fn wire_size(&self) -> usize {
        self.local.wire_size() + self.successors.wire_size()
    }

    /// The paper's `Containment(successors(self), local(other))`: the
    /// estimated fraction of `other`'s local pages that have in-links from
    /// `self`'s local pages.
    pub fn inlink_containment_into(&self, other: &PeerSynopses) -> f64 {
        self.successors.containment_of(&other.local)
    }

    /// Estimated resemblance of the two peers' local page sets.
    pub fn local_overlap(&self, other: &PeerSynopses) -> f64 {
        self.local.resemblance(&other.local)
    }
}

/// Parameters of the pre-meetings strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct PreMeetingsConfig {
    /// Cache a met peer whose in-link containment into me is above this.
    pub containment_threshold: f64,
    /// Exchange cached-peer lists when the local-set resemblance of the
    /// two meeting peers is above this.
    pub overlap_threshold: f64,
    /// Every `k`-th selection is truly random (fairness, Theorem 5.4).
    pub random_every_k: usize,
    /// Probability of revisiting an already-cached peer instead of using
    /// the candidate list (peers change content / leave the network).
    pub revisit_probability: f64,
    /// Cap on the cached-peer list (the paper notes the threshold bounds
    /// it; we enforce a hard cap as well).
    pub max_cache: usize,
}

impl Default for PreMeetingsConfig {
    fn default() -> Self {
        PreMeetingsConfig {
            containment_threshold: 0.05,
            overlap_threshold: 0.15,
            random_every_k: 5,
            revisit_probability: 0.05,
            max_cache: 32,
        }
    }
}

/// Which peer-selection strategy a peer runs.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectionStrategy {
    /// Uniformly random partner (the basic strategy).
    Random,
    /// The §4.3 pre-meetings strategy.
    PreMeetings(PreMeetingsConfig),
}

/// Per-peer state of the pre-meetings strategy.
#[derive(Debug, Clone, Default)]
pub struct SelectorState {
    /// Ids of peers with high in-link containment into me.
    cached: Vec<usize>,
    /// Peers already met (their knowledge has been drained once); they are
    /// not re-queued as candidates — only the low-probability cache
    /// revisit path returns to them, mirroring the paper's "peers have to
    /// visit again the already cached peers, with a smaller probability".
    met: Vec<usize>,
    /// Candidates scored by pre-meetings, kept sorted best-last
    /// (so `pop` takes the best).
    candidates: Vec<(usize, f64)>,
    /// Selections made so far (drives the every-k fairness rule).
    selections: usize,
    /// Selections served from the scored candidate list.
    candidate_selections: usize,
    /// Selections that revisited a cached peer.
    revisit_selections: usize,
    /// Bytes spent on pre-meeting MIPs fetches.
    pub premeeting_bytes: u64,
}

impl SelectorState {
    /// The cached peer ids.
    pub fn cached(&self) -> &[usize] {
        &self.cached
    }

    /// Pending candidates as `(peer, score)`, best last.
    pub fn candidates(&self) -> &[(usize, f64)] {
        &self.candidates
    }

    /// Total selections made.
    pub fn selections(&self) -> usize {
        self.selections
    }

    /// How many selections were served from the candidate list.
    pub fn candidate_selections(&self) -> usize {
        self.candidate_selections
    }

    /// How many selections revisited a cached peer.
    pub fn revisit_selections(&self) -> usize {
        self.revisit_selections
    }

    fn cache_peer(&mut self, peer: usize, max_cache: usize) {
        // A re-confirmed peer moves to the back: the evict-oldest policy
        // must measure *recency of confirmation*, not first insertion, or
        // a peer that was just re-validated as good gets evicted first.
        if let Some(pos) = self.cached.iter().position(|&p| p == peer) {
            self.cached.remove(pos);
        }
        self.cached.push(peer);
        if self.cached.len() > max_cache {
            self.cached.remove(0); // evict least recently confirmed
        }
    }

    fn add_candidate(&mut self, peer: usize, score: f64) {
        if self.met.contains(&peer) {
            return; // already drained; only cache revisits return to it
        }
        // `total_cmp` keeps a total order even when a degenerate/empty
        // synopsis yields a NaN containment estimate.
        if let Some(pos) = self.candidates.iter().position(|(p, _)| *p == peer) {
            if self.candidates[pos].1.total_cmp(&score).is_ge() {
                return; // existing score is at least as good
            }
            self.candidates.remove(pos);
        }
        let at = self
            .candidates
            .partition_point(|(_, s)| s.total_cmp(&score).is_lt());
        self.candidates.insert(at, (peer, score));
    }

    fn mark_met(&mut self, peer: usize) {
        if !self.met.contains(&peer) {
            self.met.push(peer);
        }
        self.candidates.retain(|&(p, _)| p != peer);
    }

    /// Peers this peer has already met.
    pub fn met(&self) -> &[usize] {
        &self.met
    }
}

fn random_other(me: usize, num_peers: usize, rng: &mut impl Rng) -> usize {
    debug_assert!(num_peers >= 2);
    let mut p = rng.gen_range(0..num_peers - 1);
    if p >= me {
        p += 1;
    }
    p
}

/// Choose the next meeting partner for peer `me`.
///
/// # Panics
/// Panics if fewer than two peers exist.
pub fn select_partner(
    state: &mut SelectorState,
    strategy: &SelectionStrategy,
    me: usize,
    num_peers: usize,
    rng: &mut impl Rng,
) -> usize {
    assert!(
        num_peers >= 2,
        "cannot select a partner among {num_peers} peer(s)"
    );
    state.selections += 1;
    match strategy {
        SelectionStrategy::Random => random_other(me, num_peers, rng),
        SelectionStrategy::PreMeetings(cfg) => {
            // Fairness: every k-th selection is truly random; also never
            // let the random probability drop to zero.
            if cfg.random_every_k > 0 && state.selections.is_multiple_of(cfg.random_every_k) {
                return random_other(me, num_peers, rng);
            }
            if !state.cached.is_empty() && rng.gen_bool(cfg.revisit_probability) {
                // A cached id must pass the same guards as a candidate:
                // under churn (swap-remove renumbering) a cached peer may
                // have departed (`>= num_peers`) or become this peer's own
                // index. On failure the stale id is pruned and selection
                // falls through to the next source.
                let pick = state.cached[rng.gen_range(0..state.cached.len())];
                if pick != me && pick < num_peers {
                    state.revisit_selections += 1;
                    return pick;
                }
                state.cached.retain(|&p| p != me && p < num_peers);
            }
            while let Some((peer, _)) = state.candidates.pop() {
                if peer != me && peer < num_peers {
                    state.candidate_selections += 1;
                    return peer;
                }
            }
            random_other(me, num_peers, rng)
        }
    }
}

/// Process the synopsis-level bookkeeping of a meeting between peers `a`
/// and `b` (both directions): threshold-based caching, cache-list
/// exchange on strong overlap, and pre-meetings with the received
/// candidates. `states` is the per-peer selector state array, `synopses`
/// the per-peer published vectors.
pub fn observe_meeting(
    states: &mut [SelectorState],
    synopses: &[PeerSynopses],
    a: usize,
    b: usize,
    cfg: &PreMeetingsConfig,
) {
    assert_ne!(a, b, "a peer cannot meet itself");
    states[a].mark_met(b);
    states[b].mark_met(a);
    // Containment both ways: cache the partner if it links into me enough.
    let into_a = synopses[b].inlink_containment_into(&synopses[a]);
    let into_b = synopses[a].inlink_containment_into(&synopses[b]);
    if into_a >= cfg.containment_threshold {
        states[a].cache_peer(b, cfg.max_cache);
    }
    if into_b >= cfg.containment_threshold {
        states[b].cache_peer(a, cfg.max_cache);
    }
    // Strong overlap of the local sets ⇒ exchange cached-peer lists and
    // hold pre-meetings with the received candidates.
    if synopses[a].local_overlap(&synopses[b]) >= cfg.overlap_threshold {
        let from_b: Vec<usize> = states[b].cached().to_vec();
        let from_a: Vec<usize> = states[a].cached().to_vec();
        premeet_candidates(&mut states[a], synopses, a, &from_b);
        premeet_candidates(&mut states[b], synopses, b, &from_a);
    }
}

/// Draw `meetings` meetings and cut them into rounds — the one schedule
/// drawer of the simulator and the cluster. Meeting `m`'s initiator is
/// `initiator(m, rng)`; its partner comes from [`select_partner`] on the
/// initiator's state. The draws are cut greedily into rounds of
/// peer-disjoint `(initiator, partner)` pairs: a pair that shares a peer
/// with its round opens the next one, so the rounds, read in order, are
/// exactly the drawn sequence. Disjoint meetings commute — each touches
/// only its two peers — so executing a round concurrently is
/// bit-identical to replaying it serially, at every thread count.
///
/// Under pre-meetings, closing round r + 1 observes every pair of round
/// r ([`observe_meeting`]), so round r's draws see rounds 0…r − 2: a
/// peer does not see the outcome of a meeting still in flight. When
/// drawing ends the last two rounds are observed, in order, so a later
/// call on the same `states` starts from every meeting drawn here.
/// Observing reads only the pair and the static `synopses`, never a
/// score, so the schedule is a pure function of the arguments: drawing
/// it whole before any meeting runs changes nothing.
///
/// # Panics
/// Panics if fewer than two peers exist and `meetings > 0`.
pub fn draw_schedule<R: Rng>(
    meetings: usize,
    strategy: &SelectionStrategy,
    synopses: &[PeerSynopses],
    states: &mut [SelectorState],
    rng: &mut R,
    mut initiator: impl FnMut(usize, &mut R) -> usize,
) -> Vec<Vec<(usize, usize)>> {
    let n = synopses.len();
    let observe = |states: &mut [SelectorState], round: &[(usize, usize)]| {
        if let SelectionStrategy::PreMeetings(cfg) = strategy {
            for &(a, b) in round {
                observe_meeting(states, synopses, a, b, cfg);
            }
        }
    };
    let mut rounds: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut round = Vec::new();
    let mut busy = vec![false; n];
    for m in 0..meetings {
        let me = initiator(m, rng);
        let partner = select_partner(&mut states[me], strategy, me, n, rng);
        if busy[me] || busy[partner] {
            rounds.push(std::mem::take(&mut round));
            busy.fill(false);
            if let [.., observed, _] = rounds.as_slice() {
                observe(states, observed);
            }
        }
        busy[me] = true;
        busy[partner] = true;
        round.push((me, partner));
    }
    if !round.is_empty() {
        rounds.push(round);
    }
    for round in &rounds[rounds.len().saturating_sub(2)..] {
        observe(states, round);
    }
    rounds
}

/// Hold a pre-meeting with each candidate: fetch its `successors` MIPs
/// vector (counted into `premeeting_bytes`), score it by in-link
/// containment into me, and queue it.
fn premeet_candidates(
    state: &mut SelectorState,
    synopses: &[PeerSynopses],
    me: usize,
    candidates: &[usize],
) {
    for &c in candidates {
        if c == me {
            continue;
        }
        state.premeeting_bytes += synopses[c].successors.wire_size() as u64;
        let score = synopses[c].inlink_containment_into(&synopses[me]);
        state.add_candidate(c, score);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxp_webgraph::{GraphBuilder, PageId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Three fragments: peers 0 and 1 overlap heavily; peer 2 links into
    /// peer 0's pages.
    fn network() -> Vec<PeerSynopses> {
        let mut b = GraphBuilder::new();
        // Pages 0..10 cluster; pages 20..30 cluster linking into 0..10.
        for i in 0..10u32 {
            b.add_edge(PageId(i), PageId((i + 1) % 10));
        }
        for i in 20..30u32 {
            b.add_edge(PageId(i), PageId(i - 20)); // 20→0, 21→1, …
        }
        let g = b.build();
        let perms = MipsPermutations::generate(128, 11);
        let frag_a = Subgraph::from_pages(&g, (0..10).map(PageId));
        let frag_b = Subgraph::from_pages(&g, (0..8).map(PageId)); // overlaps A
        let frag_c = Subgraph::from_pages(&g, (20..30).map(PageId)); // links into A
        [frag_a, frag_b, frag_c]
            .iter()
            .map(|f| PeerSynopses::compute(f, &perms))
            .collect()
    }

    #[test]
    fn containment_detects_inlink_provider() {
        let syn = network();
        // Peer 2's successors are exactly peer 0's pages.
        let c = syn[2].inlink_containment_into(&syn[0]);
        assert!(c > 0.5, "containment {c}");
        // Peer 0 provides few in-links to peer 2 (none).
        let c_rev = syn[0].inlink_containment_into(&syn[2]);
        assert!(c_rev < 0.2, "reverse containment {c_rev}");
    }

    #[test]
    fn overlap_detects_shared_fragments() {
        let syn = network();
        assert!(syn[0].local_overlap(&syn[1]) > 0.5);
        assert!(syn[0].local_overlap(&syn[2]) < 0.1);
    }

    #[test]
    fn observe_meeting_caches_good_peers() {
        let syn = network();
        let mut states = vec![SelectorState::default(); 3];
        let cfg = PreMeetingsConfig::default();
        observe_meeting(&mut states, &syn, 0, 2, &cfg);
        assert!(
            states[0].cached().contains(&2),
            "peer 0 should cache peer 2"
        );
    }

    #[test]
    fn cache_lists_propagate_through_overlapping_peers() {
        let syn = network();
        let mut states = vec![SelectorState::default(); 3];
        let cfg = PreMeetingsConfig::default();
        // 0 meets 2 → 0 caches 2. Then 0 meets 1 (high overlap) → 1 should
        // receive candidate 2 via the cache exchange + pre-meeting.
        observe_meeting(&mut states, &syn, 0, 2, &cfg);
        observe_meeting(&mut states, &syn, 0, 1, &cfg);
        assert!(
            states[1].candidates().iter().any(|&(p, _)| p == 2),
            "peer 1 should have candidate 2: {:?}",
            states[1].candidates()
        );
        assert!(states[1].premeeting_bytes > 0);
    }

    #[test]
    fn drawn_rounds_are_disjoint_and_every_pair_is_observed_by_the_end() {
        let syn = network();
        let mut states = vec![SelectorState::default(); 3];
        let strategy = SelectionStrategy::PreMeetings(PreMeetingsConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let rounds = draw_schedule(7, &strategy, &syn, &mut states, &mut rng, |m, _| m % 3);
        let drawn: Vec<(usize, usize)> = rounds.iter().flatten().copied().collect();
        assert_eq!(drawn.len(), 7);
        for (m, &(a, b)) in drawn.iter().enumerate() {
            assert_eq!(a, m % 3, "meeting {m} has the wrong initiator");
            assert!(states[a].met().contains(&b) && states[b].met().contains(&a));
        }
        for round in &rounds {
            let mut peers: Vec<usize> = round.iter().flat_map(|&(a, b)| [a, b]).collect();
            peers.sort_unstable();
            peers.dedup();
            assert_eq!(
                peers.len(),
                2 * round.len(),
                "round {round:?} shares a peer"
            );
        }
    }

    #[test]
    fn select_pops_best_candidate_first() {
        let mut state = SelectorState::default();
        state.add_candidate(3, 0.2);
        state.add_candidate(4, 0.9);
        state.add_candidate(5, 0.5);
        let cfg = PreMeetingsConfig {
            random_every_k: 1000,
            revisit_probability: 0.0,
            ..Default::default()
        };
        let strategy = SelectionStrategy::PreMeetings(cfg);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(select_partner(&mut state, &strategy, 0, 10, &mut rng), 4);
        assert_eq!(select_partner(&mut state, &strategy, 0, 10, &mut rng), 5);
        assert_eq!(select_partner(&mut state, &strategy, 0, 10, &mut rng), 3);
    }

    #[test]
    fn every_kth_selection_is_random_even_with_candidates() {
        let mut state = SelectorState::default();
        state.add_candidate(4, 0.9);
        let cfg = PreMeetingsConfig {
            random_every_k: 1,
            revisit_probability: 0.0,
            ..Default::default()
        };
        let strategy = SelectionStrategy::PreMeetings(cfg);
        let mut rng = StdRng::seed_from_u64(2);
        // k = 1 ⇒ every selection random; candidate 4 must survive.
        for _ in 0..5 {
            let _ = select_partner(&mut state, &strategy, 0, 100, &mut rng);
        }
        assert_eq!(state.candidates().len(), 1);
    }

    #[test]
    fn random_selection_never_returns_self() {
        let mut state = SelectorState::default();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let p = select_partner(&mut state, &SelectionStrategy::Random, 2, 5, &mut rng);
            assert_ne!(p, 2);
            assert!(p < 5);
        }
    }

    #[test]
    fn random_selection_covers_all_partners() {
        let mut state = SelectorState::default();
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [false; 5];
        for _ in 0..300 {
            seen[select_partner(&mut state, &SelectionStrategy::Random, 0, 5, &mut rng)] = true;
        }
        assert!(seen[1] && seen[2] && seen[3] && seen[4]);
        assert!(!seen[0]);
    }

    #[test]
    fn cache_is_bounded() {
        let mut state = SelectorState::default();
        for p in 0..100 {
            state.cache_peer(p, 10);
        }
        assert_eq!(state.cached().len(), 10);
        // Oldest evicted, newest kept.
        assert!(state.cached().contains(&99));
        assert!(!state.cached().contains(&0));
    }

    #[test]
    fn cache_revisit_guards_stale_ids_after_shrink() {
        // Regression: the cache-revisit path used to return cached ids
        // unguarded — under churn a departed peer's id indexed out of
        // bounds in the simulator, and a renumbered id could equal `me`.
        let cfg = PreMeetingsConfig {
            random_every_k: 0,
            revisit_probability: 1.0, // always try the cache first
            ..Default::default()
        };
        let strategy = SelectionStrategy::PreMeetings(cfg);
        let mut state = SelectorState::default();
        state.cache_peer(7, 32); // valid only while num_peers > 7
        state.cache_peer(9, 32);
        let mut rng = StdRng::seed_from_u64(11);
        // The network shrank to 4 peers: both cached ids are stale. The
        // selection must fall through to a random partner, never panic,
        // never return an out-of-range id or `me`.
        for _ in 0..50 {
            let p = select_partner(&mut state, &strategy, 2, 4, &mut rng);
            assert!(p < 4, "returned departed peer {p}");
            assert_ne!(p, 2, "peer scheduled to meet itself");
        }
        // Stale ids were pruned once detected.
        assert!(state.cached().is_empty());
    }

    #[test]
    fn cache_revisit_prunes_own_index_after_renumbering() {
        let cfg = PreMeetingsConfig {
            random_every_k: 0,
            revisit_probability: 1.0,
            ..Default::default()
        };
        let strategy = SelectionStrategy::PreMeetings(cfg);
        let mut state = SelectorState::default();
        // Swap-remove renumbering can make a cached id equal `me`.
        state.cache_peer(3, 32);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..20 {
            let p = select_partner(&mut state, &strategy, 3, 8, &mut rng);
            assert_ne!(p, 3);
        }
        assert!(state.cached().is_empty());
    }

    #[test]
    fn nan_candidate_score_does_not_panic() {
        // Regression: `partial_cmp().unwrap()` in add_candidate panicked
        // when a degenerate synopsis produced a NaN containment estimate.
        let mut state = SelectorState::default();
        state.add_candidate(1, 0.4);
        state.add_candidate(2, f64::NAN);
        state.add_candidate(3, 0.7);
        state.add_candidate(4, 0.1);
        assert_eq!(state.candidates().len(), 4);
        // Non-NaN candidates keep their relative order (ascending, best
        // last); the queue stays fully usable.
        let non_nan: Vec<usize> = state
            .candidates()
            .iter()
            .filter(|(_, s)| !s.is_nan())
            .map(|&(p, _)| p)
            .collect();
        assert_eq!(non_nan, vec![4, 1, 3]);
    }

    #[test]
    fn add_candidate_keeps_best_score_and_position() {
        let mut state = SelectorState::default();
        state.add_candidate(1, 0.2);
        state.add_candidate(2, 0.5);
        // Re-adding with a worse score changes nothing.
        state.add_candidate(2, 0.1);
        assert_eq!(state.candidates(), &[(1, 0.2), (2, 0.5)]);
        // Re-adding with a better score repositions the entry.
        state.add_candidate(1, 0.9);
        assert_eq!(state.candidates(), &[(2, 0.5), (1, 0.9)]);
    }

    #[test]
    fn recached_peer_refreshes_recency_before_eviction() {
        // Regression: `cache_peer` ignored an already-cached peer, so the
        // evict-oldest policy would evict a peer that was just
        // re-confirmed as good.
        let mut state = SelectorState::default();
        state.cache_peer(1, 3);
        state.cache_peer(2, 3);
        state.cache_peer(3, 3);
        // Peer 1 is re-confirmed: it must move to the back …
        state.cache_peer(1, 3);
        assert_eq!(state.cached(), &[2, 3, 1]);
        // … so the next eviction removes 2 (least recently confirmed),
        // not the just-revalidated 1.
        state.cache_peer(4, 3);
        assert_eq!(state.cached(), &[3, 1, 4]);
    }

    #[test]
    #[should_panic(expected = "cannot select a partner")]
    fn single_peer_network_panics() {
        let mut state = SelectorState::default();
        let mut rng = StdRng::seed_from_u64(5);
        let _ = select_partner(&mut state, &SelectionStrategy::Random, 0, 1, &mut rng);
    }
}
