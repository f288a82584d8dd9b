#![deny(missing_docs)]
#![warn(clippy::iter_over_hash_type)]
//! # jxp-core — the JXP algorithm
//!
//! The primary contribution of *"Efficient and Decentralized PageRank
//! Approximation in a Peer-to-Peer Web Search Network"* (VLDB 2006):
//! **JXP (Juxtaposed Approximate PageRank)**, an algorithm that computes
//! global PageRank authority scores for pages arbitrarily (and possibly
//! overlappingly) distributed over autonomous peers, using only local
//! PageRank computations plus pairwise peer meetings.
//!
//! ## How it works
//!
//! Each [`JxpPeer`] holds a fragment of the global graph and extends it
//! with a **world node** `W` representing every page it does not hold
//! ([`world::WorldNode`]). Out-links to non-local pages point to `W`;
//! in-links from known external pages are attached to `W` and weighted by
//! the external page's learned authority score over its out-degree
//! (paper eq. 8); `W` keeps a self-loop for external→external links and
//! receives random-jump mass proportional to the `N − n` pages it stands
//! for (eq. 10). Running ordinary PageRank on this `(n+1)`-state chain
//! yields the peer's current **JXP scores** ([`local_pr`]).
//!
//! Peers repeatedly **meet** ([`meeting`]): they exchange their extended
//! local graphs and score lists, fold the other peer's knowledge into
//! their own world node (light-weight merging, §4.1) or into a full merged
//! graph (the Algorithm 2 baseline), combine score lists (§4.2), and
//! recompute. [`selection`] implements the paper's random and
//! pre-meetings peer-selection strategies; [`evaluate`] builds the global
//! ranking that the experiments compare against centralized PageRank;
//! [`invariants`] exposes the paper's Theorems 5.1–5.3 as runtime checks.
//!
//! ```
//! use jxp_core::{JxpConfig, JxpPeer, meeting};
//! use jxp_webgraph::{GraphBuilder, PageId, Subgraph};
//!
//! // Global graph: 0 → 1 → 2 → 0.
//! let mut b = GraphBuilder::new();
//! b.add_edge(PageId(0), PageId(1));
//! b.add_edge(PageId(1), PageId(2));
//! b.add_edge(PageId(2), PageId(0));
//! let g = b.build();
//!
//! let cfg = JxpConfig::default();
//! let mut a = JxpPeer::new(Subgraph::from_pages(&g, [PageId(0), PageId(1)]), 3, cfg.clone());
//! let mut c = JxpPeer::new(Subgraph::from_pages(&g, [PageId(1), PageId(2)]), 3, cfg);
//! for _ in 0..40 {
//!     meeting::meet(&mut a, &mut c);
//! }
//! // In a 3-cycle every page's true PageRank is 1/3; JXP approaches it
//! // from below (Theorem 5.3) at a geometric rate per meeting.
//! assert!((a.score(PageId(0)).unwrap() - 1.0 / 3.0).abs() < 0.01);
//! ```

pub mod config;
pub mod convergence;
pub mod evaluate;
pub mod invariants;
pub mod local_pr;
pub mod meeting;
pub mod payload;
pub mod peer;
pub mod selection;
pub mod snapshot;
pub mod world;

pub use config::{CombineMode, JxpConfig, MergeMode};
pub use payload::MeetingPayload;
pub use peer::JxpPeer;
pub use world::WorldNode;
