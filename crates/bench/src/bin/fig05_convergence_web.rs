//! Figure 5: JXP accuracy vs number of meetings on the Web crawl.
//!
//! Same setup as Figure 4 (baseline JXP, random meetings, top-1000
//! metrics) on the denser Web-crawl collection. Paper observation: "at
//! 1000 meetings the footrule distance drops … below 0.2 for the Web
//! crawl" — the richer link structure converges faster than Amazon.

use jxp_bench::drivers::convergence;
use jxp_bench::ExperimentCtx;

fn main() {
    convergence(&ExperimentCtx::from_env(1200), "web");
}
