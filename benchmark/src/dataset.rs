//! Dataset construction, copied from `crates/bench` (`load_dataset`'s
//! crawl + stray-page hand-out, `bench_segment`'s `crawl_links`) so the
//! benchmark does not depend on that crate.

use jxp_p2pnet::assign::{assign_by_crawlers, CrawlerParams};
use jxp_webgraph::generators::CategorizedGraph;
use jxp_webgraph::{PageId, Subgraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The crawl seed of `crates/bench`'s `load_dataset`.
const CRAWL_SEED: u64 = 0xC4A3;

/// The paper's §6.1 peer layout: 10 thematic crawlers per category,
/// overlapping fragments; pages no crawler reached are handed
/// round-robin to same-category peers, so every page is held somewhere
/// and the total ranking spans the whole collection.
///
/// The crawl is fixed, like the collection: crawl budgets are jittered
/// sevenfold per peer, so a re-seeded crawl moves the cost of a meeting
/// budget by ±25 %, which would drown what the benchmark's seed is for
/// (who meets whom).
pub fn crawler_fragments(cg: &CategorizedGraph) -> Vec<Subgraph> {
    let n = cg.graph.num_nodes();
    let peers = 10 * cg.num_categories;
    let params = CrawlerParams {
        peers_per_category: 10,
        seeds_per_peer: 2,
        max_depth: 6,
        max_pages: Some((n / peers).max(20)),
        max_pages_jitter: 1.0,
        off_category_follow_prob: 0.5,
    };
    let mut rng = StdRng::seed_from_u64(CRAWL_SEED);
    let mut fragments = assign_by_crawlers(cg, &params, &mut rng);

    let mut held = vec![false; n];
    for f in &fragments {
        for p in f.pages() {
            held[p.index()] = true;
        }
    }
    let mut extra: Vec<Vec<PageId>> = vec![Vec::new(); fragments.len()];
    let mut rr = 0usize;
    for p in (0..n as u32).map(PageId) {
        if !held[p.index()] {
            extra[10 * cg.category(p) + rr % 10].push(p);
            rr += 1;
        }
    }
    for (fragment, pages) in fragments.iter_mut().zip(extra) {
        if !pages.is_empty() {
            let all = fragment.pages().iter().copied().chain(pages);
            *fragment = Subgraph::from_pages(&cg.graph, all);
        }
    }
    fragments
}

/// splitmix64.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Out-links of node `i` in an `n`-node synthetic crawl: 1..=8 links,
/// 1 page in 16 dangling, half of all pages add one link into the first
/// 1024 pages (a head-heavy in-degree like a real crawl). A pure
/// function of `(i, n, salt)`; `salt` 0 is `bench_segment`'s crawl.
pub fn crawl_links(i: u64, n: u64, salt: u64, mut f: impl FnMut(u32, u32)) {
    let h = mix(i.wrapping_mul(0x517c_c1b7_2722_0a95) ^ salt);
    if h.is_multiple_of(16) {
        return;
    }
    let degree = 1 + (h >> 8) % 8;
    for k in 0..degree {
        let dst = mix(h.wrapping_add(k)) % n;
        if dst != i {
            f(i as u32, dst as u32);
        }
    }
    if h.is_multiple_of(2) {
        let hub = mix(h ^ 0xdead_beef) % 1024.min(n);
        if hub != i {
            f(i as u32, hub as u32);
        }
    }
}

/// FNV-1a over the bit patterns of score slices: any divergence down to
/// the last ulp changes it. The same digest `run_cluster` reports.
pub fn score_hash<'a>(lists: impl IntoIterator<Item = &'a [f64]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for scores in lists {
        for s in scores {
            for b in s.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}
