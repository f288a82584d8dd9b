//! Segment-store observability, following the `StoreMetrics`
//! detached/registered idiom. All series are prefixed `jxp_segstore_`
//! so exporters and dashboards pick them up alongside the store and
//! node families (see DESIGN.md §15 for the full table).

use std::sync::Arc;

use jxp_telemetry::{Counter, Gauge, Histogram, Registry};

/// Seconds buckets for segment fetch+decode durations. Segments are a
/// few hundred KB, so decodes sit in the 0.1–10 ms range warm and can
/// reach tens of ms cold.
const DECODE_BOUNDS: &[f64] = &[0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0];

/// Counters, gauges and histograms describing segment-cache activity.
///
/// A `SegstoreMetrics` either lives detached (tests, telemetry off) or
/// registered in a `jxp-telemetry` [`Registry`]. The counters are the
/// lock-free sharded kind, so bumping them per cache probe stays inside
/// the repo's <2% telemetry-overhead budget even when every PageRank
/// chunk touches the cache.
///
/// **A probe is a block hand-off, not a node access.** The power sweep
/// asks the cache once per (chunk of rows, segment) pair and walks the
/// whole decoded block it gets back, so a sweep over `S` segments of
/// `R` rows in chunks of `C ≤ R` counts `S · R/C` probes — where the
/// per-node design before it counted one per row. Dashboards that saw
/// `hits_total` fall by about four orders of magnitude for the same
/// run are reading that change of unit, not a colder cache; the hit
/// *ratio* of a streaming sweep is lower for the same reason (each miss
/// is now followed by `R/C − 1` hits instead of `R − 1`). Per-node
/// probes remain only in fragment extraction (`Subgraph::from_source`).
#[derive(Clone)]
pub struct SegstoreMetrics {
    /// Cache probes served from a resident segment that already held
    /// the adjacency directions asked for. One probe per block handed
    /// to the sweep (see the type docs), one per node in fragment
    /// extraction.
    pub hits_total: Arc<Counter>,
    /// Cache probes that had to fetch and decode a segment: it was not
    /// resident, or it was resident without a direction the reader
    /// needs (an upgrade re-decodes the container with the union).
    pub misses_total: Arc<Counter>,
    /// Resident segments evicted to stay within the budget.
    pub evictions_total: Arc<Counter>,
    /// Raw container bytes read from backing storage (upgrades read
    /// the container again).
    pub read_bytes_total: Arc<Counter>,
    /// Decoded heap bytes currently resident in the cache: only the
    /// directions actually held.
    pub resident_bytes: Arc<Gauge>,
    /// Segments currently resident in the cache.
    pub resident_segments: Arc<Gauge>,
    /// Fetch+decode duration of a cache miss, in seconds.
    pub decode_seconds: Arc<Histogram>,
}

impl SegstoreMetrics {
    /// Standalone metrics, not attached to any registry.
    pub fn detached() -> Self {
        SegstoreMetrics::registered(&Registry::new())
    }

    /// Metrics registered in `registry` under `jxp_segstore_*` names.
    pub fn registered(registry: &Registry) -> Self {
        SegstoreMetrics {
            hits_total: registry.counter("jxp_segstore_hits_total"),
            misses_total: registry.counter("jxp_segstore_misses_total"),
            evictions_total: registry.counter("jxp_segstore_evictions_total"),
            read_bytes_total: registry.counter("jxp_segstore_read_bytes_total"),
            resident_bytes: registry.gauge("jxp_segstore_resident_bytes"),
            resident_segments: registry.gauge("jxp_segstore_resident_segments"),
            decode_seconds: registry.histogram("jxp_segstore_decode_seconds", DECODE_BOUNDS),
        }
    }
}

impl Default for SegstoreMetrics {
    fn default() -> Self {
        SegstoreMetrics::detached()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_metrics_surface_in_snapshots() {
        let registry = Registry::new();
        let m = SegstoreMetrics::registered(&registry);
        m.hits_total.add(3);
        m.misses_total.inc();
        m.resident_bytes.set(4096.0);
        m.decode_seconds.observe(0.002);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["jxp_segstore_hits_total"], 3);
        assert_eq!(snap.counters["jxp_segstore_misses_total"], 1);
        assert_eq!(snap.gauges["jxp_segstore_resident_bytes"], 4096.0);
        assert_eq!(snap.histograms["jxp_segstore_decode_seconds"].count(), 1);
    }

    #[test]
    fn detached_metrics_count_without_a_registry() {
        let m = SegstoreMetrics::detached();
        m.evictions_total.inc();
        assert_eq!(m.evictions_total.get(), 1);
    }
}
