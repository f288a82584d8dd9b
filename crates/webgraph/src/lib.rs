#![deny(missing_docs)]
//! # jxp-webgraph
//!
//! Web-graph substrate for the JXP (VLDB 2006) reproduction.
//!
//! This crate provides everything the JXP algorithm and its evaluation need
//! from a graph library:
//!
//! * a compact, immutable [`CsrGraph`] (forward *and* reverse adjacency in
//!   compressed-sparse-row form, `u32` node ids),
//! * a mutable [`GraphBuilder`] for constructing graphs edge by edge,
//! * synthetic **generators** that stand in for the paper's proprietary 2005
//!   Amazon and Web-crawl datasets ([`generators`]),
//! * structural **analysis** (degree distributions, power-law fit, SCCs,
//!   BFS) used to validate the generators against the paper's Figure 3,
//! * **subgraph** extraction with local↔global id maps (peers hold
//!   fragments of the global graph),
//! * text edge-list **I/O**,
//! * the varint and gap-coded id-list [`codec`] that segment files and
//!   the wire's meeting body are both written with.
//!
//! ```
//! use jxp_webgraph::{GraphBuilder, PageId};
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(PageId(0), PageId(1));
//! b.add_edge(PageId(1), PageId(2));
//! b.add_edge(PageId(2), PageId(0));
//! let g = b.build();
//! assert_eq!(g.num_nodes(), 3);
//! assert_eq!(g.out_degree(PageId(0)), 1);
//! ```

pub mod analysis;
pub mod builder;
pub mod codec;
pub mod csr;
pub mod generators;
pub mod hash;
pub mod id;
pub mod io;
pub mod source;
pub mod subgraph;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use hash::{FxHashMap, FxHashSet};
pub use id::PageId;
pub use source::GraphSource;
pub use subgraph::Subgraph;
