//! Assigning pages to peers (§6.1 and §6.3).
//!
//! §6.1: "Pages were assigned to peers by simulating a crawler in each
//! peer, starting with a set of random seed pages from one of the thematic
//! categories and following the links and fetching nodes in a
//! breadth-first approach, up to a certain predefined depth. […] During
//! the crawling process, when the peer encounters a page that does not
//! belong to its category, it randomly decides to follow links from this
//! page or not with equal probabilities."
//!
//! The resulting fragments **overlap arbitrarily** — the very situation
//! JXP exists for.

use jxp_webgraph::generators::CategorizedGraph;
use jxp_webgraph::{FxHashSet, PageId, Subgraph};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::VecDeque;

/// Parameters of the simulated focused crawlers.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlerParams {
    /// Peers per thematic category (the paper uses 10 × 10 categories).
    pub peers_per_category: usize,
    /// Random seed pages each crawler starts from.
    pub seeds_per_peer: usize,
    /// BFS depth limit.
    pub max_depth: usize,
    /// Hard cap on pages per peer (`None` = depth-limited only).
    pub max_pages: Option<usize>,
    /// Log-scale jitter applied per peer to `max_pages`: each crawler's
    /// cap is multiplied by `exp(U(−jitter, jitter))`. Real peers differ
    /// widely in crawl budget (the paper's Table 1 spans 5,505-page to
    /// 269-page peers); 0.0 disables.
    pub max_pages_jitter: f64,
    /// Probability of following the links of an off-category page
    /// (the paper uses "equal probabilities", i.e. 0.5).
    pub off_category_follow_prob: f64,
}

impl Default for CrawlerParams {
    fn default() -> Self {
        CrawlerParams {
            peers_per_category: 10,
            seeds_per_peer: 5,
            max_depth: 4,
            max_pages: None,
            max_pages_jitter: 0.0,
            off_category_follow_prob: 0.5,
        }
    }
}

/// Simulate one focused crawler: BFS from `seeds`, staying `max_depth`
/// hops deep, expanding off-category pages with the configured
/// probability. Returns the set of fetched pages.
pub fn crawl(
    cg: &CategorizedGraph,
    category: usize,
    seeds: &[PageId],
    params: &CrawlerParams,
    rng: &mut impl Rng,
) -> Vec<PageId> {
    let mut fetched: FxHashSet<PageId> = FxHashSet::default();
    let mut queue: VecDeque<(PageId, usize)> = VecDeque::new();
    for &s in seeds {
        if fetched.insert(s) {
            queue.push_back((s, 0));
        }
    }
    while let Some((page, depth)) = queue.pop_front() {
        if let Some(cap) = params.max_pages {
            if fetched.len() >= cap {
                break;
            }
        }
        if depth >= params.max_depth {
            continue;
        }
        // Off-category pages are fetched but expanded only half the time.
        let expand = cg.category(page) == category || rng.gen_bool(params.off_category_follow_prob);
        if !expand {
            continue;
        }
        for t in cg.graph.successors(page) {
            if fetched.len() >= params.max_pages.unwrap_or(usize::MAX) {
                break;
            }
            if fetched.insert(t) {
                queue.push_back((t, depth + 1));
            }
        }
    }
    // Hash order: the drained ids are sorted on the next line before
    // anything consumes them.
    let mut pages: Vec<PageId> = fetched.into_iter().collect();
    pages.sort_unstable();
    pages
}

/// The full §6.1 assignment: `num_categories × peers_per_category` peers,
/// each crawling from random seeds of its category. Fragments may overlap
/// within and across categories.
pub fn assign_by_crawlers(
    cg: &CategorizedGraph,
    params: &CrawlerParams,
    rng: &mut impl Rng,
) -> Vec<Subgraph> {
    let mut fragments = Vec::with_capacity(cg.num_categories * params.peers_per_category);
    for category in 0..cg.num_categories {
        let pool: Vec<PageId> = cg.pages_in_category(category).collect();
        assert!(
            pool.len() >= params.seeds_per_peer,
            "category {category} has too few pages for seeding"
        );
        for _ in 0..params.peers_per_category {
            let seeds: Vec<PageId> = pool
                .choose_multiple(rng, params.seeds_per_peer)
                .copied()
                .collect();
            let mut peer_params = params.clone();
            if params.max_pages_jitter > 0.0 {
                if let Some(cap) = params.max_pages {
                    let j = params.max_pages_jitter;
                    let mult = rng.gen_range(-j..j).exp();
                    peer_params.max_pages =
                        Some(((cap as f64 * mult).round() as usize).max(params.seeds_per_peer));
                }
            }
            let pages = crawl(cg, category, &seeds, &peer_params, rng);
            fragments.push(Subgraph::from_pages(&cg.graph, pages));
        }
    }
    fragments
}

/// The §6.3 Minerva layout: each category's page set is split into
/// `fragments_per_category` disjoint fragments; one peer is created per
/// fragment, hosting **all but that one** fragment of its category
/// ("each of the 40 peers hosts 3 out of 4 fragments from the same topic,
/// thus forming high overlap among same-topic peers").
pub fn minerva_fragments(
    cg: &CategorizedGraph,
    fragments_per_category: usize,
    rng: &mut impl Rng,
) -> Vec<Subgraph> {
    assert!(fragments_per_category >= 2, "need at least two fragments");
    let mut peers = Vec::with_capacity(cg.num_categories * fragments_per_category);
    for category in 0..cg.num_categories {
        let mut pool: Vec<PageId> = cg.pages_in_category(category).collect();
        pool.shuffle(rng);
        let chunk = pool.len().div_ceil(fragments_per_category);
        let fragments: Vec<&[PageId]> = pool.chunks(chunk.max(1)).collect();
        for omit in 0..fragments_per_category {
            let pages: Vec<PageId> = fragments
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != omit)
                .flat_map(|(_, f)| f.iter().copied())
                .collect();
            peers.push(Subgraph::from_pages(&cg.graph, pages));
        }
    }
    peers
}

/// Fraction of graph pages covered by at least one fragment.
pub fn coverage(fragments: &[Subgraph], total_pages: usize) -> f64 {
    let mut seen: FxHashSet<PageId> = FxHashSet::default();
    for f in fragments {
        seen.extend(f.pages().iter().copied());
    }
    seen.len() as f64 / total_pages as f64
}

/// Mean pairwise overlap (Jaccard) between fragments — the quantity that
/// distinguishes the JXP setting from disjoint-partition approaches.
pub fn mean_pairwise_jaccard(fragments: &[Subgraph]) -> f64 {
    let sets: Vec<FxHashSet<PageId>> = fragments
        .iter()
        .map(|f| f.pages().iter().copied().collect())
        .collect();
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..sets.len() {
        for j in (i + 1)..sets.len() {
            #[expect(clippy::disallowed_methods, reason = "count() is order-free")]
            let inter = sets[i].intersection(&sets[j]).count();
            let union = sets[i].len() + sets[j].len() - inter;
            if union > 0 {
                total += inter as f64 / union as f64;
            }
            pairs += 1;
        }
    }
    if pairs == 0 {
        0.0
    } else {
        total / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxp_webgraph::generators::{CategorizedGraph, CategorizedParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph() -> CategorizedGraph {
        let params = CategorizedParams {
            num_categories: 4,
            nodes_per_category: 200,
            intra_out_per_node: 4,
            cross_fraction: 0.15,
        };
        CategorizedGraph::generate(&params, &mut StdRng::seed_from_u64(1))
    }

    #[test]
    fn crawl_respects_page_cap() {
        let cg = graph();
        let seeds: Vec<PageId> = cg.pages_in_category(0).take(3).collect();
        let params = CrawlerParams {
            max_pages: Some(50),
            max_depth: 10,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let pages = crawl(&cg, 0, &seeds, &params, &mut rng);
        assert!(pages.len() <= 50);
        assert!(pages.len() >= 3);
    }

    #[test]
    fn crawl_is_mostly_on_category() {
        let cg = graph();
        // Seed from *late* nodes of the category: in the preferential-
        // attachment process out-links point backwards, so the oldest
        // nodes have almost no intra-category out-links and a crawl from
        // them can only escape through cross links.
        let all: Vec<PageId> = cg.pages_in_category(2).collect();
        let seeds: Vec<PageId> = all[all.len() - 10..].to_vec();
        // Shallow depth: deep crawls funnel into the old hub nodes (which
        // have no out-links to continue on-category) while off-category
        // expansion keeps finding fresh blocks, so focus decays with depth.
        let params = CrawlerParams {
            max_depth: 2,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(9);
        let pages = crawl(&cg, 2, &seeds, &params, &mut rng);
        let on = pages.iter().filter(|&&p| cg.category(p) == 2).count();
        assert!(
            on as f64 / pages.len() as f64 > 0.5,
            "{on}/{} on-category",
            pages.len()
        );
    }

    #[test]
    fn assignment_produces_overlapping_fragments() {
        let cg = graph();
        let params = CrawlerParams {
            peers_per_category: 3,
            seeds_per_peer: 4,
            max_depth: 3,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let fragments = assign_by_crawlers(&cg, &params, &mut rng);
        assert_eq!(fragments.len(), 12);
        assert!(fragments.iter().all(|f| f.num_pages() > 0));
        // Same-category crawlers share hub pages: overlap must be real.
        assert!(
            mean_pairwise_jaccard(&fragments[..3]) > 0.01,
            "jaccard {}",
            mean_pairwise_jaccard(&fragments[..3])
        );
    }

    #[test]
    fn assignment_is_deterministic_for_seed() {
        let cg = graph();
        let params = CrawlerParams {
            peers_per_category: 2,
            ..Default::default()
        };
        let f1 = assign_by_crawlers(&cg, &params, &mut StdRng::seed_from_u64(9));
        let f2 = assign_by_crawlers(&cg, &params, &mut StdRng::seed_from_u64(9));
        assert_eq!(f1.len(), f2.len());
        for (a, b) in f1.iter().zip(f2.iter()) {
            assert_eq!(a.pages(), b.pages());
        }
    }

    #[test]
    fn minerva_layout_has_high_same_topic_overlap() {
        let cg = graph();
        let mut rng = StdRng::seed_from_u64(5);
        let peers = minerva_fragments(&cg, 4, &mut rng);
        assert_eq!(peers.len(), 16);
        // Peers of the same category share 2 of 4 fragments pairwise:
        // Jaccard = 2/4 ÷ (3+3−2)/4 = 0.5.
        let j = mean_pairwise_jaccard(&peers[..4]);
        assert!((j - 0.5).abs() < 0.05, "jaccard {j}");
        // Same-category peers jointly cover the whole category.
        let cat_pages = cg.pages_in_category(0).count();
        let covered = coverage(&peers[..4], cg.graph.num_nodes());
        assert!(covered * cg.graph.num_nodes() as f64 >= cat_pages as f64);
    }

    #[test]
    fn minerva_each_peer_hosts_three_quarters() {
        let cg = graph();
        let mut rng = StdRng::seed_from_u64(6);
        let peers = minerva_fragments(&cg, 4, &mut rng);
        let cat_size = cg.pages_in_category(0).count();
        for p in &peers[..4] {
            let frac = p.num_pages() as f64 / cat_size as f64;
            assert!((frac - 0.75).abs() < 0.05, "fraction {frac}");
        }
    }

    #[test]
    fn coverage_of_full_assignment() {
        let cg = graph();
        let fragments = vec![Subgraph::from_pages(
            &cg.graph,
            cg.graph.nodes().collect::<Vec<_>>(),
        )];
        assert!((coverage(&fragments, cg.graph.num_nodes()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_of_identical_fragments_is_one() {
        let cg = graph();
        let f = Subgraph::from_pages(&cg.graph, (0..50).map(PageId));
        assert!((mean_pairwise_jaccard(&[f.clone(), f]) - 1.0).abs() < 1e-12);
    }
}
