//! Shared experiment drivers used by the per-figure binaries (the Amazon
//! and Web variants of each figure differ only in the dataset preset).

use crate::{
    build_network, bytes_to_reach, load_dataset, meetings_to_reach, print_samples, run_convergence,
    samples_to_csv, ExperimentCtx,
};
use jxp_core::selection::{PreMeetingsConfig, SelectionStrategy};
use jxp_core::{CombineMode, JxpConfig, MergeMode};
use jxp_webgraph::generators::{amazon_2005, web_crawl_2005, DatasetPreset};
use std::fmt::Write as _;

/// Resolve a dataset preset by name ("amazon" / "web").
pub fn preset_by_name(name: &str) -> DatasetPreset {
    match name {
        "amazon" => amazon_2005(),
        "web" => web_crawl_2005(),
        other => panic!("unknown dataset {other:?}"),
    }
}

/// Figures 4/5: baseline JXP (full merging, score averaging, random
/// meetings) — Spearman's footrule (a) and linear score error (b) of the
/// top-k pages against the global meeting count.
pub fn convergence(ctx: &ExperimentCtx, dataset: &str) {
    let (fig, title) = if dataset == "amazon" {
        (4, "Amazon")
    } else {
        (5, "Web crawl")
    };
    println!(
        "== Figure {fig}: JXP convergence, {title} (scale {}, {} meetings, top-{}) ==",
        ctx.scale, ctx.meetings, ctx.top_k
    );
    let ds = load_dataset(&preset_by_name(dataset), ctx.scale);
    println!(
        "dataset: {} pages, {} links, 100 peers",
        ds.cg.graph.num_nodes(),
        ds.cg.graph.num_edges()
    );
    let mut net = build_network(
        &ds,
        JxpConfig::baseline(),
        SelectionStrategy::Random,
        fig,
        ctx.threads,
    );
    let samples = run_convergence(&mut net, &ds, ctx.meetings, ctx.sample_every, ctx.top_k);
    print_samples(
        "baseline JXP (full merge, averaging, random meetings)",
        &samples,
    );
    let stem = format!("fig0{fig}_{dataset}");
    ctx.write_csv(&format!("{stem}.csv"), &samples_to_csv(&samples));
    ctx.write_figure(
        &format!("{stem}_footrule.svg"),
        &format!("Figure {fig}(a): JXP convergence ({dataset})"),
        "Spearman footrule (top-k)",
        &[("baseline JXP", &samples)],
        |p| p.footrule,
    );
    ctx.write_figure(
        &format!("{stem}_error.svg"),
        &format!("Figure {fig}(b): linear score error ({dataset})"),
        "linear score error",
        &[("baseline JXP", &samples)],
        |p| p.linear_error,
    );

    let first = samples.first().unwrap();
    let last = samples.last().unwrap();
    println!("\nShape check vs paper (Fig. {fig}): error drops quickly with meetings —");
    println!(
        "footrule {:.3} → {:.3}, linear error {:.2e} → {:.2e}",
        first.footrule, last.footrule, first.linear_error, last.linear_error
    );
    assert!(
        last.footrule < first.footrule * 0.7,
        "footrule did not drop"
    );
    assert!(
        last.linear_error < first.linear_error,
        "score error did not drop"
    );
}

/// Figures 6/7: full vs light-weight merging (both with score averaging,
/// random meetings).
pub fn merging_comparison(ctx: &ExperimentCtx, dataset: &str) {
    let fig = if dataset == "amazon" { 6 } else { 7 };
    println!(
        "== Figure {fig}: merge-mode comparison, {dataset} (scale {}, {} meetings, top-{}) ==",
        ctx.scale, ctx.meetings, ctx.top_k
    );
    let ds = load_dataset(&preset_by_name(dataset), ctx.scale);
    let mut curves = Vec::new();
    for (label, merge) in [
        ("with merging (full, Algorithm 2)", MergeMode::Full),
        (
            "without merging (light-weight, §4.1)",
            MergeMode::LightWeight,
        ),
    ] {
        let cfg = JxpConfig {
            merge,
            combine: CombineMode::Average,
            ..JxpConfig::default()
        };
        let mut net = build_network(&ds, cfg, SelectionStrategy::Random, 6, ctx.threads);
        let samples = run_convergence(&mut net, &ds, ctx.meetings, ctx.sample_every, ctx.top_k);
        print_samples(label, &samples);
        let suffix = if merge == MergeMode::Full {
            "full"
        } else {
            "light"
        };
        ctx.write_csv(
            &format!("fig0{fig}_{dataset}_{suffix}.csv"),
            &samples_to_csv(&samples),
        );
        curves.push((label, samples));
    }
    ctx.write_figure(
        &format!("fig0{fig}_{dataset}.svg"),
        &format!("Figure {fig}: merging procedures ({dataset})"),
        "Spearman footrule (top-k)",
        &[(curves[0].0, &curves[0].1), (curves[1].0, &curves[1].1)],
        |p| p.footrule,
    );
    let finals = [
        curves[0].1.last().unwrap().clone(),
        curves[1].1.last().unwrap().clone(),
    ];
    println!("\nShape check vs paper (Fig. {fig}): light-weight tracks full merging —");
    println!(
        "final footrule: full {:.4} vs light-weight {:.4}; final linear error: {:.3e} vs {:.3e}",
        finals[0].footrule, finals[1].footrule, finals[0].linear_error, finals[1].linear_error
    );
    assert!(
        (finals[1].footrule - finals[0].footrule).abs() < 0.1,
        "light-weight merging diverged from full merging"
    );
}

/// Figure 8: score-combination comparison (averaging + eq. 2 re-weighting
/// vs take-the-bigger + eq. 3), light-weight merging, both datasets.
pub fn combine_comparison(ctx: &ExperimentCtx, dataset: &str) {
    println!(
        "== Figure 8 ({dataset}): score combination (scale {}, {} meetings, top-{}) ==",
        ctx.scale, ctx.meetings, ctx.top_k
    );
    let ds = load_dataset(&preset_by_name(dataset), ctx.scale);
    let mut curves = Vec::new();
    for (label, combine) in [
        ("averaging (baseline, eq. 2)", CombineMode::Average),
        ("taking bigger score (§4.2, eq. 3)", CombineMode::TakeMax),
    ] {
        let cfg = JxpConfig {
            merge: MergeMode::LightWeight,
            combine,
            ..JxpConfig::default()
        };
        let mut net = build_network(&ds, cfg, SelectionStrategy::Random, 8, ctx.threads);
        let samples = run_convergence(&mut net, &ds, ctx.meetings, ctx.sample_every, ctx.top_k);
        print_samples(label, &samples);
        let suffix = if combine == CombineMode::Average {
            "avg"
        } else {
            "max"
        };
        ctx.write_csv(
            &format!("fig08_{dataset}_{suffix}.csv"),
            &samples_to_csv(&samples),
        );
        curves.push((label, samples));
    }
    ctx.write_figure(
        &format!("fig08_{dataset}.svg"),
        &format!("Figure 8: score combination ({dataset})"),
        "linear score error",
        &[(curves[0].0, &curves[0].1), (curves[1].0, &curves[1].1)],
        |p| p.linear_error,
    );
    let finals = [
        curves[0].1.last().unwrap().clone(),
        curves[1].1.last().unwrap().clone(),
    ];
    println!("\nShape check vs paper (Fig. 8): take-the-bigger converges faster —");
    println!(
        "final linear error: averaging {:.3e} vs take-max {:.3e}",
        finals[0].linear_error, finals[1].linear_error
    );
    assert!(
        finals[1].linear_error <= finals[0].linear_error * 1.1,
        "take-max should not be materially worse than averaging"
    );
}

/// Figures 9/10: peer selection with vs without the pre-meetings phase
/// (optimized JXP: light-weight merging + take-max).
pub fn selection_comparison(ctx: &ExperimentCtx, dataset: &str) {
    let fig = if dataset == "amazon" { 9 } else { 10 };
    println!(
        "== Figure {fig}: peer selection, {dataset} (scale {}, {} meetings, top-{}) ==",
        ctx.scale, ctx.meetings, ctx.top_k
    );
    let ds = load_dataset(&preset_by_name(dataset), ctx.scale);
    let mut per_strategy = Vec::new();
    const SEEDS: u64 = 3;
    for (label, strategy) in [
        ("without pre-meetings (random)", SelectionStrategy::Random),
        (
            "with pre-meetings (§4.3)",
            SelectionStrategy::PreMeetings(PreMeetingsConfig::default()),
        ),
    ] {
        // Average the curves over several simulator seeds (run in
        // parallel): a single run's footrule fluctuations are larger than
        // the strategy effect.
        let runs = crate::run_parallel(
            (0..SEEDS)
                .map(|seed| {
                    let ds = &ds;
                    let strategy = strategy.clone();
                    move || {
                        // Serial meeting rounds here: the seed sweep is
                        // the parallel axis, one run per core already.
                        let mut net =
                            build_network(ds, JxpConfig::optimized(), strategy, 9 + seed, 1);
                        run_convergence(&mut net, ds, ctx.meetings, ctx.sample_every, ctx.top_k)
                    }
                })
                .collect(),
        );
        let mut mean: Vec<crate::SamplePoint> = Vec::new();
        for samples in runs {
            if mean.is_empty() {
                mean = samples;
            } else {
                for (m, s) in mean.iter_mut().zip(samples) {
                    m.footrule += s.footrule;
                    m.linear_error += s.linear_error;
                    m.total_bytes += s.total_bytes;
                }
            }
        }
        for m in &mut mean {
            m.footrule /= SEEDS as f64;
            m.linear_error /= SEEDS as f64;
            m.total_bytes /= SEEDS;
        }
        print_samples(&format!("{label}, mean of {SEEDS} runs"), &mean);
        let suffix = match strategy {
            SelectionStrategy::Random => "random",
            SelectionStrategy::PreMeetings(_) => "premeet",
        };
        ctx.write_csv(
            &format!("fig{fig:02}_{dataset}_{suffix}.csv"),
            &samples_to_csv(&mean),
        );
        per_strategy.push((label, mean));
    }
    ctx.write_figure(
        &format!("fig{fig:02}_{dataset}.svg"),
        &format!("Figure {fig}: peer selection ({dataset}, mean of {SEEDS} runs)"),
        "Spearman footrule (top-k)",
        &[
            (per_strategy[0].0, &per_strategy[0].1),
            (per_strategy[1].0, &per_strategy[1].1),
        ],
        |p| p.footrule,
    );
    // The paper quotes fixed thresholds (0.2 / 0.1) that its curves cross
    // late; our curves sit lower at reduced scale, so pick the analogous
    // level dynamically — 15% above the worse of the two final values —
    // which both runs cross near the end of their descent.
    let threshold = per_strategy
        .iter()
        .map(|(_, s)| s.last().unwrap().footrule)
        .fold(0.0f64, f64::max)
        * 1.15;
    println!("\nFootrule-threshold economics (paper §6.2), threshold {threshold:.4}:");
    let mut summary = String::from("strategy,meetings_to_threshold,mbytes_to_threshold\n");
    for (label, samples) in &per_strategy {
        let m = meetings_to_reach(samples, threshold);
        let b = bytes_to_reach(samples, threshold);
        println!(
            "  {label}: footrule < {threshold} after {} meetings, {} MB",
            m.map_or("—".into(), |v| v.to_string()),
            b.map_or("—".into(), |v| format!("{:.1}", v as f64 / 1e6)),
        );
        let _ = writeln!(
            summary,
            "{label},{},{}",
            m.map_or(-1i64, |v| v as i64),
            b.map_or(-1i64, |v| v as i64)
        );
    }
    ctx.write_csv(&format!("fig{fig:02}_{dataset}_summary.csv"), &summary);
    let rand_final = per_strategy[0].1.last().unwrap().footrule;
    let pre_final = per_strategy[1].1.last().unwrap().footrule;
    println!(
        "\nShape check vs paper (Fig. {fig}): final footrule {pre_final:.4} (pre-meetings) vs {rand_final:.4} (random)."
    );
    println!("NOTE: the paper reports ~30% fewer meetings to threshold with pre-");
    println!("meetings on its 2005 crawls; on our synthetic collections the two");
    println!("strategies are statistically equivalent — random meetings already mix");
    println!("near-optimally because synthetic crawl fragments overlap homogeneously.");
    println!("See EXPERIMENTS.md for the analysis of this deviation.");
    assert!(
        pre_final < rand_final * 1.25,
        "pre-meetings regressed far beyond noise: {pre_final} vs {rand_final}"
    );
}

/// Figures 11/12: message-size quartiles per meeting, with and without the
/// pre-meetings phase.
pub fn msgsize(ctx: &ExperimentCtx, dataset: &str) {
    let fig = if dataset == "amazon" { 11 } else { 12 };
    println!(
        "== Figure {fig}: message sizes, {dataset} (scale {}, {} meetings) ==",
        ctx.scale, ctx.meetings
    );
    let ds = load_dataset(&preset_by_name(dataset), ctx.scale);
    for (label, strategy) in [
        ("without pre-meetings", SelectionStrategy::Random),
        (
            "with pre-meetings",
            SelectionStrategy::PreMeetings(PreMeetingsConfig::default()),
        ),
    ] {
        let mut net = build_network(
            &ds,
            JxpConfig::optimized(),
            strategy.clone(),
            11,
            ctx.threads,
        );
        net.run_parallel(ctx.meetings);
        let log = net.bandwidth();
        println!("\n  {label}: per-peer meeting number vs message KB (q1 / median / q3)");
        println!(
            "  {:>8} {:>10} {:>10} {:>10}",
            "meeting", "q1", "median", "q3"
        );
        let mut csv = String::from("meeting,q1_kb,median_kb,q3_kb\n");
        let horizon = log.max_meetings_per_peer().min(50);
        for k in 0..horizon {
            if let Some((q1, med, q3)) = log.quartiles_at_meeting(k) {
                let kb = |b: u64| b as f64 / 1024.0;
                if k % 5 == 0 || k + 1 == horizon {
                    println!(
                        "  {:>8} {:>10.1} {:>10.1} {:>10.1}",
                        k + 1,
                        kb(q1),
                        kb(med),
                        kb(q3)
                    );
                }
                let _ = writeln!(csv, "{},{:.2},{:.2},{:.2}", k + 1, kb(q1), kb(med), kb(q3));
            }
        }
        let suffix = match strategy {
            SelectionStrategy::Random => "random",
            SelectionStrategy::PreMeetings(_) => "premeet",
        };
        ctx.write_csv(&format!("fig{fig}_{dataset}_{suffix}.csv"), &csv);
        println!(
            "  totals: {:.1} MB on the wire, of which {:.2} MB pre-meeting synopses",
            log.total_bytes() as f64 / 1e6,
            log.premeeting_bytes() as f64 / 1e6
        );
    }
    println!("\nShape check vs paper (Fig. {fig}): message sizes are small (KB range)");
    println!("and grow with the peer's meeting count as world knowledge accumulates;");
    println!("the pre-meetings variant ships slightly larger messages (piggybacked MIPs).");
}

/// The median cost of each stage of one side of a simulated meeting, in
/// µs, at a fixed warm state (see [`meeting_stages`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct MeetingStages {
    /// `payload_for(partner.interest())`: assembling the cut payload.
    pub payload_for: f64,
    /// `WorldNode::absorb_light`: merging the partner's cut payload.
    pub merge: f64,
    /// `WorldNode::inflow` of the merged world node.
    pub inflow: f64,
    /// The local PageRank sweep (`extended_pagerank`) on that inflow.
    pub sweep: f64,
    /// `MeetingPayload::wire_size` of the cut payload.
    pub wire_size: f64,
    /// Mean world-node entries per peer at the warm state.
    pub world_entries: f64,
    /// Mean world-node links per peer at the warm state.
    pub world_links: f64,
}

impl MeetingStages {
    /// The five stages in order, named as [`meeting_stages`] prints them.
    pub fn stages(&self) -> [(&'static str, f64); 5] {
        [
            ("payload_for (cut)", self.payload_for),
            ("merge (absorb_light)", self.merge),
            ("inflow", self.inflow),
            ("local sweep", self.sweep),
            ("wire_size", self.wire_size),
        ]
    }
}

/// Time each stage of a simulated meeting at a fixed warm state: the
/// `dataset` at `scale` on its 100 crawler peers, `JxpConfig::optimized()`,
/// random meetings at seed 11, after `steps` serial `Network::step`s.
///
/// Then every peer in turn is the receiver and the next peer the sender;
/// each stage runs `reps` times on that pair and the pair's median
/// counts. The result is the median over the pairs. The stages are
/// timed apart, on copies, so none disturbs the warm state:
///
/// * the sender's cut payload (`payload_for`) and its `wire_size`;
/// * merging it into a copy of the receiver's world node. This is the
///   world half of `absorb`, without the recompute at its end (a scratch
///   peer cannot skip that: `JxpConfig` refuses `pr_max_iterations = 0`);
/// * `inflow` of the merged copy, and the local PageRank sweep
///   (`extended_pagerank`) from the receiver's scores on that inflow.
///
/// A meeting pays every stage twice, once per side.
pub fn meeting_stages(dataset: &str, scale: f64, steps: usize, reps: usize) -> MeetingStages {
    use jxp_core::local_pr::{extended_pagerank, LocalTopology};
    use std::hint::black_box;
    use std::time::Instant;

    let reps = reps.max(1);
    let ds = load_dataset(&preset_by_name(dataset), scale);
    let config = JxpConfig::optimized();
    let mut net = build_network(&ds, config.clone(), SelectionStrategy::Random, 11, 1);
    for _ in 0..steps {
        net.step();
    }
    let peers = net.peers();
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    // Median µs of `reps` runs of `f`, each on a fresh `setup()`.
    fn timed<S, R>(
        reps: usize,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> R,
    ) -> Vec<f64> {
        (0..reps)
            .map(|_| {
                let input = setup();
                let start = Instant::now();
                let out = black_box(f(input));
                let us = start.elapsed().as_secs_f64() * 1e6;
                drop(out);
                us
            })
            .collect()
    }
    let mut per_pair: [Vec<f64>; 5] = Default::default();
    for (i, receiver) in peers.iter().enumerate() {
        let sender = &peers[(i + 1) % peers.len()];
        let cut_to = receiver.interest();
        let payload = sender.payload_for(cut_to);
        let (graph, world) = (receiver.graph(), receiver.world());
        let mut merged = world.clone();
        merged.absorb_light(&payload, graph, config.combine);
        let inflow = merged.inflow(graph, receiver.n_total());
        let topo = LocalTopology::build(graph);
        let runs = [
            timed(reps, || (), |()| sender.payload_for(cut_to)),
            timed(
                reps,
                || world.clone(),
                |mut w| {
                    w.absorb_light(&payload, graph, config.combine);
                    w
                },
            ),
            timed(reps, || (), |()| merged.inflow(graph, receiver.n_total())),
            timed(
                reps,
                || (),
                |()| {
                    extended_pagerank(
                        &topo,
                        receiver.n_total(),
                        &inflow,
                        receiver.scores(),
                        receiver.world_score(),
                        &config,
                    )
                },
            ),
            timed(reps, || (), |()| payload.wire_size()),
        ];
        for (stage, run) in per_pair.iter_mut().zip(runs) {
            stage.push(median(run));
        }
    }
    let n = peers.len() as f64;
    let [payload_for, merge, inflow, sweep, wire_size] = per_pair.map(median);
    MeetingStages {
        payload_for,
        merge,
        inflow,
        sweep,
        wire_size,
        world_entries: peers.iter().map(|p| p.world().len()).sum::<usize>() as f64 / n,
        world_links: peers.iter().map(|p| p.world().num_links()).sum::<usize>() as f64 / n,
    }
}
