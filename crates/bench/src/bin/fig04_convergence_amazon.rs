//! Figure 4: JXP accuracy vs number of meetings on the Amazon collection.
//!
//! Reproduces both panels — 4(a) Spearman's footrule distance and 4(b)
//! linear score error of the top-1000 pages as a function of the global
//! meeting count — for the baseline JXP of §3 (full merging, score
//! averaging, random meetings). The paper's headline observation: "already
//! at 1000 meetings the footrule distance drops below 0.3" (each of the
//! 100 peers having met ~10 others).

use jxp_bench::drivers::convergence;
use jxp_bench::ExperimentCtx;

fn main() {
    convergence(&ExperimentCtx::from_env(1200), "amazon");
}
