//! Varint and delta-varint encoding of adjacency lists.
//!
//! Degrees and adjacency are stored as LEB128 varints, and an adjacency
//! list (strictly increasing node ids, the invariant every sorted
//! deduplicated CSR list satisfies) is gap-coded: the first id verbatim,
//! every later id as the gap to its predecessor. The functions are
//! [`jxp_webgraph::codec`]'s, the codec the wire's meeting body shares;
//! a [`CodecError`] becomes [`SegStoreError::Corrupt`](crate::SegStoreError)
//! with the same text.

pub use jxp_webgraph::codec::{
    get_adjacency, get_varint, put_adjacency, put_varint, skip_varints, CodecError,
};
