//! Store observability: checkpoint/WAL counters and duration
//! histograms, following the `NodeMetrics` detached/registered idiom.

use std::sync::Arc;

use jxp_telemetry::{Counter, Histogram, Registry};

/// Seconds buckets for checkpoint and WAL-append durations.
const DURATION_BOUNDS: &[f64] = &[0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0];

/// Counters and histograms describing store activity.
///
/// Like `NodeMetrics`, a `StoreMetrics` either lives detached (tests,
/// telemetry off) or registered in a `jxp-telemetry` [`Registry`] so the
/// exporters pick the series up.
#[derive(Clone)]
pub struct StoreMetrics {
    /// Checkpoints successfully installed.
    pub checkpoints_total: Arc<Counter>,
    /// WAL records appended.
    pub wal_records_total: Arc<Counter>,
    /// WAL bytes appended.
    pub wal_bytes_total: Arc<Counter>,
    /// Peers recovered from persisted state.
    pub recoveries_total: Arc<Counter>,
    /// Recoveries that fell back to the previous checkpoint.
    pub fallbacks_total: Arc<Counter>,
    /// Torn meetings repaired from a partner's final `Serve` record.
    pub repairs_total: Arc<Counter>,
    /// Store operations that failed (persistence is non-fatal; failures
    /// are counted, not propagated into the meeting loop).
    pub errors_total: Arc<Counter>,
    /// Checkpoint install duration in seconds.
    pub checkpoint_seconds: Arc<Histogram>,
    /// WAL append duration in seconds.
    pub wal_append_seconds: Arc<Histogram>,
}

impl StoreMetrics {
    /// Standalone metrics, not attached to any registry.
    pub fn detached() -> Self {
        StoreMetrics::registered(&Registry::new())
    }

    /// Metrics registered in `registry` under `jxp_store_*` names.
    pub fn registered(registry: &Registry) -> Self {
        StoreMetrics {
            checkpoints_total: registry.counter("jxp_store_checkpoints_total"),
            wal_records_total: registry.counter("jxp_store_wal_records_total"),
            wal_bytes_total: registry.counter("jxp_store_wal_bytes_total"),
            recoveries_total: registry.counter("jxp_store_recoveries_total"),
            fallbacks_total: registry.counter("jxp_store_fallbacks_total"),
            repairs_total: registry.counter("jxp_store_repairs_total"),
            errors_total: registry.counter("jxp_store_errors_total"),
            checkpoint_seconds: registry.histogram("jxp_store_checkpoint_seconds", DURATION_BOUNDS),
            wal_append_seconds: registry.histogram("jxp_store_wal_append_seconds", DURATION_BOUNDS),
        }
    }
}

impl Default for StoreMetrics {
    fn default() -> Self {
        StoreMetrics::detached()
    }
}
