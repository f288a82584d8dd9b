#![deny(missing_docs)]
#![warn(clippy::iter_over_hash_type)]
//! # jxp-p2pnet
//!
//! The P2P network simulator the JXP evaluation runs on. The paper ran
//! "all 100 peers on a single PC" (§6.1) — this crate is that machinery:
//!
//! * [`assign`] — the §6.1 page→peer assignment: one simulated focused
//!   crawler per peer (BFS from thematic seed pages, off-category links
//!   followed with probability ½), plus the §6.3 Minerva fragment layout;
//! * [`sim`] — the [`Network`]: owns the peers, schedules
//!   meetings (random or pre-meetings strategy), tracks the global meeting
//!   counter that is the x-axis of every convergence figure;
//! * [`bandwidth`] — per-meeting message-size logging with the quartile
//!   summaries of Figures 11/12 and cumulative totals;
//! * [`churn`] — peer join/leave dynamics (§5.3: JXP "has been designed
//!   to handle high dynamics"): departing peers are parked and rejoin
//!   warm (with their state) or cold (afresh on their own crawl);
//! * [`count`] — gossip-based estimation of the global page count `N`
//!   with duplicate-insensitive FM sketches (the "work without knowing N"
//!   modification mentioned in §3);
//! * [`parallel`] — the deterministic round-based parallel meeting
//!   engine: meetings on disjoint peer pairs run concurrently with
//!   results bit-identical to the sequential replay of the same schedule.

pub mod assign;
pub mod bandwidth;
pub mod churn;
pub mod count;
pub mod parallel;
pub mod sim;

pub use assign::{assign_by_crawlers, minerva_fragments, CrawlerParams};
pub use bandwidth::BandwidthLog;
pub use churn::{ChurnModel, ChurnParams, ChurnTick, Join, Rejoin};
pub use parallel::ParallelRunReport;
pub use sim::{Network, NetworkConfig};
