//! Synthetic Web-graph generators.
//!
//! The paper evaluates on two proprietary 2005 datasets (an Amazon.com
//! product graph and a focused Web crawl). These are not available, so we
//! generate synthetic graphs that match the properties the paper itself
//! says matter (§6.1 and Figure 3): node count, edge count, a close-to-
//! power-law in-degree distribution, and a 10-category thematic structure
//! with mostly-intra-category links.
//!
//! One classic random-graph model is provided plus the categorized
//! composite generator used for the actual datasets:
//!
//! * [`preferential`] — directed preferential attachment (Barabási–Albert
//!   flavoured), power-law in-degrees;
//! * [`categorized`] — categories × preferential attachment with
//!   cross-category links; presets in [`params`] replicate the scale of
//!   the paper's two collections.

pub mod categorized;
pub mod params;
pub mod preferential;

pub use categorized::{CategorizedGraph, CategorizedParams};
pub use params::{amazon_2005, web_crawl_2005, DatasetPreset};
pub use preferential::preferential_attachment;
