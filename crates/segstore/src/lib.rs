#![deny(missing_docs)]
#![warn(clippy::iter_over_hash_type)]
//! # jxp-segstore
//!
//! Disk-backed segmented webgraph for out-of-core PageRank.
//!
//! Every graph in the repo used to live in RAM as a `CsrGraph`, capping
//! experiments far below web-crawl scale. This crate partitions a graph
//! into **fixed node-range segments**, each serialized as a CRC-checked
//! `JXPS` container (same header/CRC/atomic-install discipline as
//! `jxp-store`'s checkpoints) holding **delta-varint-encoded adjacency**
//! in both directions plus a degree index, and demand-loads them behind
//! an **LRU cache** with a hard resident-segment budget.
//!
//! The pieces:
//!
//! * [`codec`] — LEB128 varints and delta encoding of sorted adjacency
//!   (`jxp_webgraph::codec`, which the wire's meeting body shares),
//! * [`segment`] — the `JXPS` container: encode one node range, decode
//!   it with just the adjacency [`Directions`] a reader wants,
//! * [`manifest`] — the `JXPM` directory manifest tying segments together,
//! * [`writer`] — [`SegmentWriter`], a streaming spill-based builder whose
//!   memory use is bounded by one segment, plus [`write_segments`] for
//!   graphs already in memory,
//! * [`backing`] — [`SegmentBacking`]: how raw container bytes are
//!   fetched (whole-file reads or positioned reads on kept-open files),
//! * [`cache`] — the budgeted LRU of decoded segments, instrumented with
//!   `jxp_segstore_*` telemetry (hits, misses, evictions, decode time,
//!   resident bytes),
//! * [`graph`] — [`SegmentedGraph`], the `GraphSource` implementation that
//!   makes all of `jxp-pagerank` / `jxp-core` run out-of-core by handing
//!   each decoded segment to the power sweep as one reverse-CSR block,
//!   and [`verify_dir`] for CRC-checking every segment.
//!
//! Determinism: a decoded segment reproduces exactly the sorted,
//! deduplicated adjacency a `CsrGraph` would hold for the same edges, and
//! iteration is always in ascending id order, so PageRank over a
//! [`SegmentedGraph`] is **bit-identical** to the in-memory path at any
//! thread count and any cache budget (see DESIGN.md §15).

pub mod backing;
pub mod cache;
pub mod codec;
pub mod graph;
pub mod manifest;
pub mod metrics;
pub mod segment;
pub mod writer;

pub use backing::{BackingKind, SegmentBacking};
pub use cache::SegmentCache;
pub use graph::{verify_dir, SegStoreConfig, SegmentedGraph, VerifyReport};
pub use manifest::{Manifest, SegmentEntry, MANIFEST_FILE};
pub use metrics::SegstoreMetrics;
pub use segment::{DecodedSegment, Directions};
pub use writer::{write_segments, SegmentWriter};

/// Errors surfaced by the segment store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegStoreError {
    /// The underlying filesystem failed.
    Io(String),
    /// Persisted bytes failed validation (CRC, framing, codec bounds).
    Corrupt(String),
}

impl SegStoreError {
    pub(crate) fn corrupt(msg: impl Into<String>) -> Self {
        SegStoreError::Corrupt(msg.into())
    }
}

impl std::fmt::Display for SegStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegStoreError::Io(msg) => write!(f, "segstore I/O error: {msg}"),
            SegStoreError::Corrupt(msg) => write!(f, "segstore corruption: {msg}"),
        }
    }
}

impl std::error::Error for SegStoreError {}

impl From<codec::CodecError> for SegStoreError {
    fn from(e: codec::CodecError) -> Self {
        SegStoreError::Corrupt(e.0.to_owned())
    }
}

impl From<std::io::Error> for SegStoreError {
    fn from(e: std::io::Error) -> Self {
        SegStoreError::Io(e.to_string())
    }
}
