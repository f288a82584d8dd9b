#![deny(missing_docs)]
//! # jxp-bench
//!
//! Experiment harness: one binary per table/figure of the paper's
//! evaluation (§6). Costs are measured by `benchmark/`, not here.
//!
//! | Paper item | Binary |
//! |---|---|
//! | Figure 3 (in-degree distributions) | `fig03_indegree` |
//! | Figure 4 (convergence, Amazon) | `fig04_convergence_amazon` |
//! | Figure 5 (convergence, Web) | `fig05_convergence_web` |
//! | Figure 6 (merge modes, Amazon) | `fig06_merging_amazon` |
//! | Figure 7 (merge modes, Web) | `fig07_merging_web` |
//! | Table 1 (merge CPU time) | `table1_cpu` |
//! | Figure 8 (score combination) | `fig08_combine` |
//! | Figure 9 (peer selection, Amazon) | `fig09_selection_amazon` |
//! | Figure 10 (peer selection, Web) | `fig10_selection_web` |
//! | Figures 11/12 (message sizes) | `fig11_msgsize_amazon`, `fig12_msgsize_web` |
//! | Table 2 (P2P search precision) | `table2_search` |
//! | Ablations (beyond the paper) | `ablation` |
//! | Cost of each stage of a meeting (beyond the paper) | `meeting_stages` |
//! | Everything | `run_all` |
//!
//! Experiments run at a configurable **scale** (`JXP_SCALE`, default 0.2)
//! of the paper's dataset sizes so the default `run_all` finishes in
//! minutes on a laptop; `JXP_SCALE=1.0` reproduces the full 55k/104k-page
//! setups. `JXP_MEETINGS` overrides the meeting budget and `JXP_THREADS`
//! the meeting-engine worker count (default all cores; results are
//! bit-identical for every value, see `jxp_p2pnet::parallel`). Results
//! are printed and written as CSV under `results/`.

pub mod drivers;
pub mod plot;

use jxp_core::selection::SelectionStrategy;
use jxp_core::JxpConfig;
use jxp_p2pnet::assign::{assign_by_crawlers, CrawlerParams};
use jxp_p2pnet::{Network, NetworkConfig};
use jxp_pagerank::{metrics, pagerank, PageRankConfig, Ranking};
use jxp_webgraph::generators::{CategorizedGraph, DatasetPreset};
use jxp_webgraph::Subgraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Experiment-wide context read from the environment.
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    /// Dataset scale in (0, 1]; 1.0 = the paper's sizes.
    pub scale: f64,
    /// Total meetings to simulate.
    pub meetings: usize,
    /// Sampling interval (in meetings) for convergence curves.
    pub sample_every: usize,
    /// Top-k for footrule / linear-error metrics.
    pub top_k: usize,
    /// Meeting-engine worker threads (`0` = available parallelism).
    /// Purely a wall-clock knob: the round-based engine produces
    /// bit-identical results for every value.
    pub threads: usize,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
}

impl ExperimentCtx {
    /// Build from `JXP_SCALE` / `JXP_MEETINGS` / `JXP_TOPK` environment
    /// variables with the given default meeting budget.
    pub fn from_env(default_meetings: usize) -> Self {
        let scale = std::env::var("JXP_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.2);
        let meetings = std::env::var("JXP_MEETINGS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(default_meetings);
        // The paper evaluates the top-1000 of its full-size collections;
        // keep the same top-k : N ratio at reduced scales.
        let top_k = std::env::var("JXP_TOPK")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(((1000.0 * scale) as usize).max(100));
        let threads = std::env::var("JXP_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let out_dir = std::env::var("JXP_RESULTS")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        ExperimentCtx {
            scale,
            meetings,
            sample_every: (meetings / 30).max(1),
            top_k,
            threads,
            out_dir,
        }
    }

    /// Write a CSV artifact and echo its path.
    pub fn write_csv(&self, name: &str, content: &str) {
        std::fs::create_dir_all(&self.out_dir).expect("create results dir");
        let path = self.out_dir.join(name);
        std::fs::write(&path, content).expect("write csv");
        println!("  [csv] {}", path.display());
    }

    /// Render convergence sample sets as an SVG figure (one series per
    /// labelled sample set; `metric` picks the y value).
    pub fn write_figure(
        &self,
        name: &str,
        title: &str,
        y_label: &str,
        labelled: &[(&str, &[SamplePoint])],
        metric: fn(&SamplePoint) -> f64,
    ) {
        let series: Vec<plot::Series> = labelled
            .iter()
            .map(|(label, samples)| {
                plot::Series::new(
                    *label,
                    samples
                        .iter()
                        .map(|p| (p.meetings as f64, metric(p)))
                        .collect(),
                )
            })
            .collect();
        let svg = plot::line_chart(title, "meetings in the network", y_label, &series);
        std::fs::create_dir_all(&self.out_dir).expect("create results dir");
        let path = self.out_dir.join(name);
        std::fs::write(&path, svg).expect("write svg");
        println!("  [svg] {}", path.display());
    }
}

/// A generated dataset with its centralized-PageRank ground truth.
///
/// Mirrors the paper's construction: a Web-like collection is crawled by
/// the per-peer thematic crawlers of §6.1 (producing arbitrarily
/// overlapping fragments); pages the hub-biased crawlers miss are handed
/// round-robin to same-category peers as stray bookmarks, so **every
/// collection page is held by at least one peer** — the paper's total
/// ranking spans the whole collection. Out-degrees are consistent between
/// the peers' fragments and the centralized ground truth (fragments keep
/// their pages' complete out-link lists).
pub struct Dataset {
    /// Preset name ("amazon" / "web").
    pub name: &'static str,
    /// The collection as a categorized graph.
    pub cg: CategorizedGraph,
    /// Per-peer fragments covering the collection (100 peers).
    pub fragments: Vec<Subgraph>,
    /// Centralized PageRank scores over the collection.
    pub truth: Vec<f64>,
    /// The same as a [`Ranking`].
    pub truth_ranking: Ranking,
}

/// Generate a dataset at `scale`: source graph → §6.1 crawls → union
/// collection → ground truth.
pub fn load_dataset(preset: &DatasetPreset, scale: f64) -> Dataset {
    load_dataset_seeded(preset, scale, 0xC4A3)
}

/// [`load_dataset`] with an explicit crawl seed (for variance studies).
pub fn load_dataset_seeded(preset: &DatasetPreset, scale: f64, crawl_seed: u64) -> Dataset {
    let cg = if scale >= 1.0 {
        preset.generate()
    } else {
        preset.generate_scaled(scale)
    };
    let n = cg.graph.num_nodes();
    let peers = 10 * cg.num_categories;
    let params = CrawlerParams {
        peers_per_category: 10,
        seeds_per_peer: 2,
        max_depth: 6,
        // Cap fragments near 1.5× the fair share (jittered per peer so
        // peer sizes spread like the paper's Table 1). Sparser fragments
        // keep the in-link knowledge scattered — the regime the paper's
        // peer-selection strategy (§4.3) is designed for.
        max_pages: Some((n / peers).max(20)),
        max_pages_jitter: 1.0,
        off_category_follow_prob: 0.5,
    };
    let mut rng = StdRng::seed_from_u64(crawl_seed);
    let mut fragments = assign_by_crawlers(&cg, &params, &mut rng);

    // The crawlers overlap heavily on the hub cores, leaving tail pages
    // unfetched; the paper's evaluation assumes every collection page is
    // held somewhere (its total ranking spans the whole collection). Hand
    // each uncrawled page to one same-category peer, as that peer's
    // stray bookmarks.
    let mut holder = vec![false; n];
    for f in &fragments {
        for p in f.pages() {
            holder[p.index()] = true;
        }
    }
    let mut extra: Vec<Vec<jxp_webgraph::PageId>> = vec![Vec::new(); fragments.len()];
    let mut rr = 0usize;
    for p in 0..n as u32 {
        let page = jxp_webgraph::PageId(p);
        if !holder[p as usize] {
            let cat = cg.category(page);
            let peer = 10 * cat + (rr % 10);
            rr += 1;
            extra[peer].push(page);
        }
    }
    for (i, pages) in extra.into_iter().enumerate() {
        if !pages.is_empty() {
            let mut all: Vec<jxp_webgraph::PageId> = fragments[i].pages().to_vec();
            all.extend(pages);
            fragments[i] = Subgraph::from_pages(&cg.graph, all);
        }
    }

    let truth = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
    let truth_ranking = jxp_core::evaluate::centralized_ranking(&truth);
    Dataset {
        name: preset.name,
        cg,
        fragments,
        truth,
        truth_ranking,
    }
}

/// One sampled point of a convergence experiment.
#[derive(Debug, Clone)]
pub struct SamplePoint {
    /// Global meeting count at the sample.
    pub meetings: u64,
    /// Spearman's footrule distance to the centralized ranking (top-k).
    pub footrule: f64,
    /// Linear score error (top-k of the centralized ranking).
    pub linear_error: f64,
    /// Cumulative bytes on the wire.
    pub total_bytes: u64,
}

/// Run `total` meetings on `net`, sampling both §6.2 error metrics every
/// `sample_every` meetings (plus meeting 0). Meetings go through the
/// round-based engine ([`Network::run_parallel`]), so experiments use
/// every core while staying exactly reproducible: the engine's results
/// are bit-identical for every thread count.
pub fn run_convergence(
    net: &mut Network,
    ds: &Dataset,
    total: usize,
    sample_every: usize,
    top_k: usize,
) -> Vec<SamplePoint> {
    let mut samples = Vec::with_capacity(total / sample_every + 2);
    let sample = |net: &Network| {
        let ranking = net.total_ranking();
        SamplePoint {
            meetings: net.meetings(),
            footrule: metrics::footrule_distance(&ranking, &ds.truth_ranking, top_k),
            linear_error: metrics::linear_score_error(&ranking, &ds.truth_ranking, top_k),
            total_bytes: net.bandwidth().total_bytes(),
        }
    };
    samples.push(sample(net));
    let mut done = 0;
    while done < total {
        let step = sample_every.min(total - done);
        net.run_parallel(step);
        done += step;
        samples.push(sample(net));
    }
    samples
}

/// Format sample points as a CSV string.
pub fn samples_to_csv(samples: &[SamplePoint]) -> String {
    let mut s = String::from("meetings,footrule,linear_error,total_bytes\n");
    for p in samples {
        let _ = writeln!(
            s,
            "{},{:.6},{:.3e},{}",
            p.meetings, p.footrule, p.linear_error, p.total_bytes
        );
    }
    s
}

/// Print sample points as an aligned table.
pub fn print_samples(label: &str, samples: &[SamplePoint]) {
    println!("  {label}");
    println!(
        "  {:>9} {:>10} {:>14} {:>12}",
        "meetings", "footrule", "linear error", "MB total"
    );
    for p in samples {
        println!(
            "  {:>9} {:>10.4} {:>14.3e} {:>12.2}",
            p.meetings,
            p.footrule,
            p.linear_error,
            p.total_bytes as f64 / 1e6
        );
    }
}

/// Build a [`Network`] over the dataset's 100-peer layout with the given
/// JXP config and selection strategy. `threads` is the meeting-engine
/// worker count (`0` = available parallelism; results do not depend on
/// it).
pub fn build_network(
    ds: &Dataset,
    jxp: JxpConfig,
    strategy: SelectionStrategy,
    seed: u64,
    threads: usize,
) -> Network {
    let config = NetworkConfig {
        jxp,
        strategy,
        threads,
        ..Default::default()
    };
    Network::new(
        ds.fragments.clone(),
        ds.cg.graph.num_nodes() as u64,
        config,
        seed ^ 0x5EED,
    )
}

/// Run independent experiment jobs on threads (one per job, via a scoped
/// spawn) and return their results in submission order. Used by the
/// multi-seed sweeps so `run_all` wall-time stays in minutes.
pub fn run_parallel<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.into_iter().map(|job| scope.spawn(job)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment job panicked"))
            .collect()
    })
}

/// First meeting count at which the footrule drops below `threshold`
/// (`None` if never) — used for the §6.2 "meetings to reach X" numbers.
pub fn meetings_to_reach(samples: &[SamplePoint], threshold: f64) -> Option<u64> {
    samples
        .iter()
        .find(|p| p.footrule < threshold)
        .map(|p| p.meetings)
}

/// Cumulative bytes at the first sample below the footrule threshold.
pub fn bytes_to_reach(samples: &[SamplePoint], threshold: f64) -> Option<u64> {
    samples
        .iter()
        .find(|p| p.footrule < threshold)
        .map(|p| p.total_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxp_webgraph::generators::amazon_2005;

    #[test]
    fn ctx_defaults() {
        let ctx = ExperimentCtx::from_env(900);
        assert!(ctx.scale > 0.0 && ctx.scale <= 1.0);
        assert_eq!(ctx.meetings, 900);
        assert!(ctx.sample_every >= 1);
    }

    #[test]
    fn tiny_end_to_end_convergence() {
        let ds = load_dataset(&amazon_2005(), 0.01);
        let mut net = build_network(&ds, JxpConfig::default(), SelectionStrategy::Random, 1, 1);
        let samples = run_convergence(&mut net, &ds, 60, 20, 50);
        assert_eq!(samples.len(), 4);
        assert!(samples[0].meetings == 0);
        assert!(samples.last().unwrap().meetings == 60);
        // Error must improve from the zero-knowledge start.
        assert!(samples.last().unwrap().footrule < samples[0].footrule);
        let csv = samples_to_csv(&samples);
        assert!(csv.lines().count() == 5);
        assert!(csv.starts_with("meetings,"));
    }

    #[test]
    fn run_parallel_preserves_order() {
        let jobs: Vec<_> = (0..8).map(|i| move || i * i).collect();
        assert_eq!(run_parallel(jobs), vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn reach_helpers() {
        let samples = vec![
            SamplePoint {
                meetings: 0,
                footrule: 0.9,
                linear_error: 1.0,
                total_bytes: 0,
            },
            SamplePoint {
                meetings: 10,
                footrule: 0.5,
                linear_error: 0.5,
                total_bytes: 100,
            },
            SamplePoint {
                meetings: 20,
                footrule: 0.1,
                linear_error: 0.2,
                total_bytes: 250,
            },
        ];
        assert_eq!(meetings_to_reach(&samples, 0.2), Some(20));
        assert_eq!(bytes_to_reach(&samples, 0.2), Some(250));
        assert_eq!(meetings_to_reach(&samples, 0.05), None);
    }
}
