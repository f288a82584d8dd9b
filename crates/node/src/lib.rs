//! jxp-node: networked peer runtime for JXP meetings.
//!
//! Where `jxp-p2pnet` simulates a peer network by calling peers' methods
//! directly, this crate runs the meeting protocol **over a wire**: every
//! request and reply is a [`jxp_wire`] frame, moved by a pluggable
//! [`transport::Transport`] — a deterministic in-memory loopback or the
//! multiplexed localhost-socket reactor. A [`node::JxpNode`] owns a
//! `JxpPeer`, answers inbound frames (meetings, synopsis probes,
//! hellos), and initiates exchanges
//! under configurable timeout + bounded exponential-backoff retry, with
//! per-node counters for meetings, retries, and measured wire bytes.
//! [`cluster::run_cluster`] drives N nodes through M meetings and
//! reports convergence and traffic; it backs the `jxp cluster` command.

#![deny(missing_docs)]

pub mod cluster;
pub mod loopback;
pub mod node;
pub mod persist;
pub mod reactor;
mod round;
pub mod transport;

pub use cluster::{
    run_cluster, run_cluster_with, ClusterConfig, ClusterCtx, ClusterHooks, ClusterReport,
    TransportKind,
};
pub use loopback::LoopbackNetwork;
pub use node::{JxpNode, MeetOutcome, NodeMetrics, NodeStats};
pub use persist::{NodePersist, SharedStore};
pub use reactor::{HandlerService, ReactorTransport};
pub use transport::{
    request_with_retry, Exchange, FaultInjector, FrameHandler, NodeId, Pending, RetriedExchange,
    RetryError, RetryPolicy, Transport, TransportError,
};
