//! Per-node durable persistence: WAL appends after every applied
//! meeting delta, periodic checkpoints, and the resume bookkeeping the
//! cluster driver uses to continue a killed run.
//!
//! A [`NodePersist`] lives *inside* the node's state mutex, so the
//! event sequence it assigns is exactly the order in which deltas were
//! applied to the peer — the property WAL replay relies on. The
//! responder side journals before its reply leaves the lock, which
//! gives the crash-consistency invariant (DESIGN.md §12): for any torn
//! meeting, the responder's record exists and the initiator's does not,
//! never the other way around.
//!
//! Store failures are counted (`jxp_store_errors_total`), not
//! propagated: losing durability must not take down the meeting loop.

use std::sync::Arc;

use jxp_core::{snapshot, JxpPeer, MeetingPayload};
use jxp_store::{StateStore, StoreMetrics, WalKind, WalRecord};

/// Shared handle to any [`StateStore`] backend.
pub type SharedStore = Arc<dyn StateStore + Send + Sync>;

/// Checkpoint early once a node's WAL outgrows this many bytes, which is
/// what bounds WAL growth between interval checkpoints.
const WAL_COMPACT_BYTES: u64 = 1 << 20;

/// Durable journal for one node.
pub struct NodePersist {
    store: SharedStore,
    key: String,
    checkpoint_every: u64,
    metrics: StoreMetrics,
    seq: u64,
    since_checkpoint: u64,
}

impl NodePersist {
    /// Journal into `store` under `key`, continuing from `start_seq`
    /// (0 for a fresh node, the recovered sequence after a resume), and
    /// checkpoint after every `checkpoint_every` applied events (0 = only
    /// on demand or when the WAL outgrows its bound).
    pub fn new(
        store: SharedStore,
        key: impl Into<String>,
        checkpoint_every: u64,
        metrics: StoreMetrics,
        start_seq: u64,
    ) -> Self {
        NodePersist {
            store,
            key: key.into(),
            checkpoint_every,
            metrics,
            seq: start_seq,
            since_checkpoint: 0,
        }
    }

    /// Events durably journaled so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The store metrics this journal reports into.
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// Journal an initiator-side absorb (the peer just applied
    /// `inbound` from a meeting it started).
    pub fn record_absorb(&mut self, peer: &JxpPeer, inbound: &MeetingPayload) {
        self.record(peer, WalKind::Absorb, inbound, None);
    }

    /// Journal a responder-side serve: the peer absorbed `inbound` and
    /// sent `outbound` back. The outbound payload rides along so a
    /// crashed initiator can repair the torn meeting from this record.
    pub fn record_serve(
        &mut self,
        peer: &JxpPeer,
        inbound: &MeetingPayload,
        outbound: &MeetingPayload,
    ) {
        self.record(peer, WalKind::Serve, inbound, Some(outbound));
    }

    fn record(
        &mut self,
        peer: &JxpPeer,
        kind: WalKind,
        inbound: &MeetingPayload,
        outbound: Option<&MeetingPayload>,
    ) {
        self.seq += 1;
        let record = WalRecord {
            seq: self.seq,
            kind,
            inbound: inbound.clone(),
            outbound: outbound.cloned(),
        };
        match self.store.append(&self.key, &record) {
            Ok(wal_bytes) => {
                self.since_checkpoint += 1;
                let interval_due =
                    self.checkpoint_every > 0 && self.since_checkpoint >= self.checkpoint_every;
                let wal_oversized = wal_bytes > WAL_COMPACT_BYTES;
                if interval_due || wal_oversized {
                    self.checkpoint(peer);
                }
            }
            Err(_) => self.metrics.errors_total.inc(),
        }
    }

    /// Install a checkpoint of `peer` at the current sequence (also
    /// compacts the WAL). Called automatically on the checkpoint
    /// interval or an oversized WAL, and explicitly at clean shutdown.
    pub fn checkpoint(&mut self, peer: &JxpPeer) {
        let snap = snapshot::save(peer);
        match self.store.checkpoint(&self.key, self.seq, &snap) {
            Ok(()) => self.since_checkpoint = 0,
            Err(_) => self.metrics.errors_total.inc(),
        }
    }
}
