#![deny(missing_docs)]
#![warn(clippy::iter_over_hash_type)]
//! # jxp-pagerank
//!
//! Centralized PageRank (the paper's ground truth / baseline) and the
//! ranking-comparison metrics of §6.2.
//!
//! The JXP evaluation always compares against "the true PR scores that one
//! would obtain by a centralized computation"; this crate provides that
//! computation ([`power::pagerank`]) along with Spearman's footrule
//! distance and the linear score error exactly as the paper defines them
//! ([`metrics`]).
//!
//! It also implements the link-analysis methods the paper positions JXP
//! against (§1/§2): [`hits`] (Kleinberg's other seminal algorithm),
//! [`opic`] (online page importance, whose fairness argument Theorem 5.4
//! borrows), [`blockrank`] (the disjoint-partition distributed PageRank
//! that JXP generalizes away from), and [`chen_local`] (single-page local
//! estimation, whose recursive in-link queries JXP's world node avoids).
//! The `baselines` experiment binary compares them head-to-head.
//!
//! ```
//! use jxp_webgraph::{GraphBuilder, PageId};
//! use jxp_pagerank::power::{pagerank, PageRankConfig};
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(PageId(0), PageId(1));
//! b.add_edge(PageId(1), PageId(0));
//! b.add_edge(PageId(2), PageId(0));
//! let g = b.build();
//! let pr = pagerank(&g, &PageRankConfig::default());
//! let total: f64 = pr.scores().iter().sum();
//! assert!((total - 1.0).abs() < 1e-9);
//! // Page 0 has the most in-links and the highest score.
//! assert_eq!(pr.top_k(1)[0], PageId(0));
//! ```

pub mod blockrank;
pub mod chen_local;
pub mod hits;
pub mod kernel;
pub mod metrics;
pub mod opic;
pub mod par;
pub mod power;
pub mod ranking;

pub use power::{pagerank, pagerank_with_telemetry, PageRankConfig, PageRankResult};
pub use ranking::Ranking;
