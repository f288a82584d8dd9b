//! Integration guard for the paper's §2 positioning: JXP on overlapping
//! fragments must be competitive with the disjoint-partition baseline on
//! its own preferred layout, and strictly better than that baseline when
//! naively applied to a structure-blind partition.

use jxp::core::JxpConfig;
use jxp::p2pnet::{Network, NetworkConfig};
use jxp::pagerank::blockrank::block_pagerank;
use jxp::pagerank::metrics::footrule_distance;
use jxp::pagerank::{pagerank, PageRankConfig, Ranking};
use jxp::webgraph::generators::{CategorizedGraph, CategorizedParams};
use jxp::webgraph::{PageId, Subgraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ranking_of(scores: &[f64]) -> Ranking {
    Ranking::from_scores(
        scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (PageId(i as u32), s + i as f64 * 1e-15)),
    )
}

#[test]
fn jxp_on_overlap_competitive_with_blockrank_on_disjoint() {
    let cg = CategorizedGraph::generate(
        &CategorizedParams {
            num_categories: 4,
            nodes_per_category: 150,
            intra_out_per_node: 4,
            cross_fraction: 0.1,
        },
        &mut StdRng::seed_from_u64(91),
    );
    let n = cg.graph.num_nodes();
    let truth = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
    let truth_ranking = ranking_of(&truth);

    // JXP: arbitrarily overlapping fragments (the setting BlockRank cannot
    // even express).
    let mut rng = StdRng::seed_from_u64(92);
    let mut pages: Vec<Vec<PageId>> = vec![Vec::new(); 12];
    for p in 0..n as u32 {
        pages[rng.gen_range(0..12usize)].push(PageId(p));
        if rng.gen_bool(0.35) {
            pages[rng.gen_range(0..12usize)].push(PageId(p));
        }
    }
    let fragments: Vec<Subgraph> = pages
        .into_iter()
        .map(|ps| Subgraph::from_pages(&cg.graph, ps))
        .collect();
    let mut net = Network::new(
        fragments,
        n as u64,
        NetworkConfig {
            jxp: JxpConfig::optimized(),
            ..Default::default()
        },
        93,
    );
    net.run_parallel(800);
    let jxp_f = footrule_distance(&net.total_ranking(), &truth_ranking, 60);

    // BlockRank on its best-case (category-aligned, disjoint) partition.
    let aligned: Vec<u32> = cg.category_of.iter().map(|&c| c as u32).collect();
    let block_best = footrule_distance(
        &ranking_of(&block_pagerank(
            &cg.graph,
            &aligned,
            &PageRankConfig::default(),
        )),
        &truth_ranking,
        60,
    );
    // BlockRank on a structure-blind partition (what an autonomous P2P
    // network would actually give it).
    let blind: Vec<u32> = (0..n as u32).map(|p| p % 12).collect();
    let block_blind = footrule_distance(
        &ranking_of(&block_pagerank(
            &cg.graph,
            &blind,
            &PageRankConfig::default(),
        )),
        &truth_ranking,
        60,
    );

    assert!(
        jxp_f <= block_best + 0.05,
        "JXP on overlap ({jxp_f:.4}) should be competitive with BlockRank on \
         its best-case partition ({block_best:.4})"
    );
    assert!(
        jxp_f < block_blind,
        "JXP ({jxp_f:.4}) should beat BlockRank on a structure-blind \
         partition ({block_blind:.4})"
    );
}
