//! Where one simulated meeting spends its time, stage by stage, at two
//! fixed warm states: Amazon at 1/5 after 750 meetings (the
//! `sim_converge` layout) and Web at 1/10 after 300. See
//! [`jxp_bench::drivers::meeting_stages`] for what each stage times.
//!
//! Each stage runs 21 times per peer pair. The figures are medians in
//! µs for one side of a meeting; a meeting pays
//! each stage twice. Run it against two builds, one after the other, to
//! see where a change moves the cost:
//!
//! ```text
//! cargo run --release -p jxp-bench --bin meeting_stages
//! ```

use jxp_bench::drivers::meeting_stages;

/// Runs per stage and peer pair.
const REPS: usize = 21;

fn main() {
    for (dataset, scale, steps) in [("amazon", 0.2, 750), ("web", 0.1, 300)] {
        let stages = meeting_stages(dataset, scale, steps, REPS);
        println!(
            "== {dataset} at {scale}, {steps} meetings, seed 11: median µs per side \
             ({REPS} runs per peer pair, 100 pairs) =="
        );
        println!(
            "world node: {:.0} entries, {:.0} links per peer (mean)",
            stages.world_entries, stages.world_links
        );
        let total: f64 = stages.stages().iter().map(|s| s.1).sum();
        for (name, us) in stages.stages() {
            println!("  {name:<22} {us:>9.1} µs  {:>5.1} %", 100.0 * us / total);
        }
        println!("  {:<22} {total:>9.1} µs", "sum");
        println!(
            "  {:<22} {:>9.1} µs",
            "inflow + payload_for",
            stages.inflow + stages.payload_for
        );
    }
}
