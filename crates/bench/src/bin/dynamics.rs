//! Network dynamics — the paper's §5.3/§7 scenario, quantified.
//!
//! The paper claims (without experiments) that "JXP has been designed to
//! handle high dynamics, and the algorithms themselves can easily cope
//! with changes in the Web graph, repeated crawls, or peer churn". This
//! extension experiment tests the claim: the same meeting budget is run
//!
//! 1. on a **static** network (control),
//! 2. under **churn with cold rejoin** — a leaving peer loses all its JXP
//!    state and rejoins from scratch on its own crawl,
//! 3. under **churn with warm rejoin** — a leaving peer keeps its state
//!    across the leave and rejoins exactly as it left,
//!
//! and reports the footrule trajectory of each condition. Both churn
//! conditions run the one [`ChurnModel`]; only [`Rejoin`] differs.

use jxp_bench::{load_dataset, ExperimentCtx};
use jxp_core::JxpConfig;
use jxp_p2pnet::{ChurnModel, ChurnParams, Network, NetworkConfig, Rejoin};
use jxp_pagerank::metrics;
use jxp_webgraph::generators::amazon_2005;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

fn main() {
    let ctx = ExperimentCtx::from_env(1500);
    println!(
        "== Dynamics: churn with cold vs warm rejoin (scale {}, {} meetings, top-{}) ==",
        ctx.scale, ctx.meetings, ctx.top_k
    );
    let ds = load_dataset(&amazon_2005(), ctx.scale);
    let n = ds.cg.graph.num_nodes() as u64;
    let checkpoints = 10usize;
    let per_checkpoint = ctx.meetings / checkpoints;
    let mut csv = String::from("condition,meetings,footrule\n");
    let mut finals = Vec::new();

    let conditions = [
        ("static", None),
        ("churn-cold", Some(Rejoin::Cold)),
        ("churn-warm", Some(Rejoin::Warm)),
    ];
    for (condition, rejoin) in conditions {
        let mut net = Network::new(
            ds.fragments.clone(),
            n,
            NetworkConfig {
                jxp: JxpConfig::optimized(),
                ..Default::default()
            },
            91,
        );
        let mut rng = StdRng::seed_from_u64(92);
        // One leave and one rejoin attempt per ~25 meetings; nobody new
        // joins, so the pool is empty and only departed peers come back.
        let mut churn = rejoin.map(|rejoin| {
            let params = ChurnParams {
                leave_prob: 0.04,
                join_prob: 0.04,
                min_peers: 60,
                max_peers: usize::MAX,
                rejoin,
            };
            ChurnModel::new(params, Vec::new()).expect("valid churn parameters")
        });
        let mut leaves = 0u32;
        let mut rejoins = 0u32;

        print!("  {condition:<11}");
        let mut last = 0.0;
        for cp in 0..checkpoints {
            for _ in 0..per_checkpoint {
                net.step();
                if let Some(churn) = &mut churn {
                    let tick = churn.tick(&mut net, &mut rng);
                    leaves += u32::from(tick.left.is_some());
                    rejoins += u32::from(tick.joined.is_some());
                }
            }
            let f = metrics::footrule_distance(&net.total_ranking(), &ds.truth_ranking, ctx.top_k);
            last = f;
            print!(" {f:.4}");
            let _ = writeln!(csv, "{condition},{},{f:.6}", (cp + 1) * per_checkpoint);
        }
        println!("   ({leaves} leaves, {rejoins} rejoins)");
        finals.push((condition, last));
    }
    ctx.write_csv("dynamics.csv", &csv);

    let by_name = |n: &str| finals.iter().find(|(c, _)| *c == n).unwrap().1;
    println!(
        "\nfinal footrule: static {:.4}, churn-cold {:.4}, churn-warm {:.4}",
        by_name("static"),
        by_name("churn-cold"),
        by_name("churn-warm")
    );
    println!("\nShape check vs paper (§5.3 claim): the network keeps converging under");
    println!("churn; restoring state on rejoin (warm) recovers most of the gap to the");
    println!("static control.");
    assert!(
        by_name("churn-cold") < 0.5,
        "network fell apart under churn"
    );
    assert!(
        by_name("churn-warm") <= by_name("churn-cold") * 1.5 + 0.02,
        "warm rejoin should not be much worse than cold"
    );
}
