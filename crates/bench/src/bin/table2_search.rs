//! Table 2: precision@10 of P2P search with and without JXP authority.
//!
//! The §6.3 Minerva experiment: 40 peers built from the 10 category sets
//! of the Web collection (each category split into 4 fragments; every peer
//! hosts 3 of the 4 → high same-topic overlap), 15 popular Web queries,
//! merged results ranked by (1) plain tf·idf and (2)
//! `0.6·tf·idf + 0.4·JXP`. The paper: "the standard tf*idf ranking
//! achieved a precision of 40%, whereas the combined tf*idf/JXP ranking
//! was able to increase precision to 57%".
//!
//! The 2005 document contents and manual assessments are unavailable; the
//! synthetic corpus embeds authority-correlated relevance (DESIGN.md §2).

use jxp_bench::{load_dataset, ExperimentCtx};
use jxp_core::selection::SelectionStrategy;
use jxp_core::JxpConfig;
use jxp_minerva::eval::{averages, table2};
use jxp_minerva::fusion::{PAPER_JXP_WEIGHT, PAPER_TFIDF_WEIGHT};
use jxp_minerva::{Corpus, CorpusParams, PeerIndex};
use jxp_p2pnet::assign::minerva_fragments;
use jxp_p2pnet::{Network, NetworkConfig};
use jxp_webgraph::generators::web_crawl_2005;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

fn main() {
    let ctx = ExperimentCtx::from_env(1200);
    println!(
        "== Table 2: P2P search precision (scale {}, {} JXP meetings) ==",
        ctx.scale, ctx.meetings
    );
    let ds = load_dataset(&web_crawl_2005(), ctx.scale);
    let fragments = minerva_fragments(&ds.cg, 4, &mut StdRng::seed_from_u64(63));
    println!(
        "collection: {} documents, {} links, {} peers (10 categories × 4 fragments, each hosting 3)",
        ds.cg.graph.num_nodes(),
        ds.cg.graph.num_edges(),
        fragments.len()
    );

    // Run JXP over the Minerva peers so the authority scores come from the
    // actual P2P computation, not the centralized oracle.
    let mut net = Network::new(
        fragments.clone(),
        ds.cg.graph.num_nodes() as u64,
        NetworkConfig {
            jxp: JxpConfig::optimized(),
            strategy: SelectionStrategy::Random,
            ..Default::default()
        },
        64,
    );
    net.run_parallel(ctx.meetings);
    let jxp_ranking = net.total_ranking();

    // Corpus, indexes, queries.
    let corpus = Corpus::generate(
        &ds.cg,
        &ds.truth,
        CorpusParams::default(),
        &mut StdRng::seed_from_u64(65),
    );
    let indexes: Vec<PeerIndex> = fragments
        .iter()
        .map(|f| PeerIndex::build(f, &corpus))
        .collect();
    let queries = corpus.make_queries(15, &mut StdRng::seed_from_u64(66));

    let rows = table2(
        &corpus,
        &indexes,
        &jxp_ranking,
        &queries,
        6,  // route each query to the 6 most promising peers
        50, // top-50 from each
        10, // precision@10
        (PAPER_TFIDF_WEIGHT, PAPER_JXP_WEIGHT),
    );
    println!(
        "\n  {:<14} {:>8} {:>22}",
        "Query", "tf*idf", "0.6 tf*idf + 0.4 JXP"
    );
    let mut csv = String::from("query,tfidf_p10,fused_p10\n");
    for r in &rows {
        println!(
            "  {:<14} {:>7.0}% {:>21.0}%",
            r.query,
            r.tfidf_precision * 100.0,
            r.fused_precision * 100.0
        );
        let _ = writeln!(
            csv,
            "{},{:.2},{:.2}",
            r.query, r.tfidf_precision, r.fused_precision
        );
    }
    let (t, f) = averages(&rows);
    println!(
        "  {:<14} {:>7.0}% {:>21.0}%",
        "Average",
        t * 100.0,
        f * 100.0
    );
    let _ = writeln!(csv, "average,{t:.3},{f:.3}");
    ctx.write_csv("table2_search.csv", &csv);

    println!("\nShape check vs paper (Table 2): the combined ranking beats plain");
    println!("tf·idf on average (paper: 40% → 57%).");
    assert!(
        f > t,
        "fused ranking ({f:.3}) must beat plain tf·idf ({t:.3}) on average"
    );
}
