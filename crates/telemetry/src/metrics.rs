//! Lock-free metric primitives and the registry that owns them.
//!
//! The hot path of every metric is a relaxed atomic operation on state
//! the writer thread mostly owns: [`Counter`] spreads its increments
//! over cache-line-padded shards keyed by thread, so two nodes serving
//! meetings on different threads never bounce the same cache line, and
//! the shards are only merged when somebody *reads* the counter.
//! [`Gauge`] and [`Histogram`] are single atomics (bit-cast `f64` /
//! per-bucket counts) because their writers are rare or already serial.
//!
//! The [`Registry`] is the cold path: registering or snapshotting takes
//! a mutex, but handles returned by it are `Arc`s that the instrumented
//! code keeps and hits directly — no name lookup per event.
//!
//! **Memory ordering.** Every `Relaxed` in this module is a commutative
//! counter or gauge cell (or the shard-dealing ticket) that readers
//! merge; none is a publish flag, so no data is released through these
//! orderings. No static check holds this: CI runs miri and
//! ThreadSanitizer over this code instead.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Shards per counter. Enough to keep a machine's worth of worker
/// threads off each other's cache lines without bloating snapshots.
const NUM_SHARDS: usize = 8;

/// One cache line per shard so concurrent writers never false-share.
#[repr(align(64))]
#[derive(Default)]
struct Shard(AtomicU64);

static NEXT_THREAD_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread gets a sticky shard index, dealt round-robin.
    static THREAD_SHARD: usize =
        NEXT_THREAD_SHARD.fetch_add(1, Ordering::Relaxed) % NUM_SHARDS;
}

fn thread_shard() -> usize {
    THREAD_SHARD.with(|s| *s)
}

/// Monotonically increasing counter; `add` is one relaxed atomic add on
/// a per-thread shard, `get` merges the shards.
#[derive(Default)]
pub struct Counter {
    shards: [Shard; NUM_SHARDS],
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add `n` (relaxed; never takes a lock).
    pub fn add(&self, n: u64) {
        self.shards[thread_shard()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Merge all shards into the current total.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// Last-write-wins `f64` gauge stored as raw bits in one atomic.
#[derive(Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge reading `0.0`.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Store `v` (relaxed).
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds, with an
/// implicit `+Inf` bucket at the end. Observation is one atomic add on
/// the bucket plus a CAS loop folding the value into the running sum.
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Build with the given sorted upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is unsorted or contains non-finite values.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|b| v > *b);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        let mut old = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(old) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                old,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => old = now,
            }
        }
    }

    /// The configured upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Point-in-time copy of counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(f, "Histogram(count={}, sum={})", s.count(), s.sum)
    }
}

/// Frozen state of one [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bounds (the final `+Inf` bucket is implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) from the fixed
    /// buckets, interpolating linearly within the covering bucket —
    /// the classic Prometheus `histogram_quantile` estimator.
    ///
    /// Conventions at the edges: an empty histogram reports `0.0`; mass
    /// in the first bucket interpolates down to `min(bound[0], 0.0)`;
    /// mass in the implicit `+Inf` bucket is clamped to the largest
    /// finite bound (a bucketed histogram cannot resolve beyond it).
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if (next as f64) >= rank {
                let Some(&upper) = self.bounds.get(i) else {
                    // +Inf bucket: clamp to the largest finite bound.
                    return self.bounds.last().copied().unwrap_or(0.0);
                };
                let lower = if i == 0 {
                    upper.min(0.0)
                } else {
                    self.bounds[i - 1]
                };
                let into = (rank - cum as f64).max(0.0) / c as f64;
                return lower + (upper - lower) * into;
            }
            cum = next;
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Named metric directory. Registration and snapshotting lock a mutex;
/// the returned `Arc` handles are what instrumented code holds, so the
/// write path never touches the registry again.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = crate::sync::lock_unpoisoned(&self.metrics);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with another type"),
        }
    }

    /// Get or create the gauge named `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = crate::sync::lock_unpoisoned(&self.metrics);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered with another type"),
        }
    }

    /// Get or create the histogram named `name` with the given bounds.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut metrics = crate::sync::lock_unpoisoned(&self.metrics);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered with another type"),
        }
    }

    /// Freeze every registered metric, merging counter shards.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = crate::sync::lock_unpoisoned(&self.metrics);
        let mut snap = RegistrySnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let metrics = crate::sync::lock_unpoisoned(&self.metrics);
        write!(f, "Registry({} metrics)", metrics.len())
    }
}

/// Frozen state of a whole [`Registry`] (sorted by name for stable
/// exposition and JSON output).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_merges_shards_on_read() {
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_last_write_wins() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(g.get(), -2.25);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        // Upper bounds are inclusive: 1.0 lands in the first bucket.
        assert_eq!(s.counts, vec![2, 1, 1, 1]);
        assert_eq!(s.count(), 5);
        assert!((s.sum - 106.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_concurrent_observe_keeps_every_sample() {
        let h = Arc::new(Histogram::new(&[10.0]));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        h.observe(1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 20_000);
        assert!((s.sum - 20_000.0).abs() < 1e-9, "lost adds: {}", s.sum);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn registry_returns_shared_handles() {
        let r = Registry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.add(3);
        b.add(4);
        assert_eq!(r.snapshot().counters["x_total"], 7);
    }

    #[test]
    #[should_panic(expected = "another type")]
    fn type_collision_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("b_total").add(1);
        r.gauge("a_gauge").set(2.0);
        r.histogram("c_hist", &[1.0]).observe(0.5);
        let s = r.snapshot();
        assert_eq!(s.counters.len(), 1);
        assert_eq!(s.gauges.len(), 1);
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms["c_hist"].counts, vec![1, 0]);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let s = Histogram::new(&[1.0, 2.0]).snapshot();
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.quantile(0.99), 0.0);
    }

    #[test]
    fn quantile_interpolates_within_a_single_bucket() {
        let h = Histogram::new(&[10.0, 20.0]);
        for _ in 0..4 {
            h.observe(15.0); // all mass lands in (10, 20]
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 10.0);
        assert_eq!(s.quantile(0.5), 15.0);
        assert_eq!(s.quantile(1.0), 20.0);
    }

    #[test]
    fn quantile_first_bucket_interpolates_down_from_zero() {
        let h = Histogram::new(&[8.0]);
        h.observe(1.0);
        h.observe(2.0);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 4.0);
    }

    #[test]
    fn quantile_clamps_overflow_mass_to_the_last_finite_bound() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(99.0); // implicit +Inf bucket
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 2.0);
        assert_eq!(s.quantile(0.99), 2.0);
    }

    #[test]
    fn quantile_estimates_bracket_a_mixed_distribution() {
        let h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
        for v in [0.5, 0.5, 1.5, 1.5, 1.5, 3.0, 3.0, 3.0, 3.0, 7.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        let (p50, p90, p99) = (s.quantile(0.50), s.quantile(0.90), s.quantile(0.99));
        assert!((1.0..=2.0).contains(&p50), "p50 = {p50}");
        assert!((2.0..=8.0).contains(&p90), "p90 = {p90}");
        assert!(p99 >= p90 && p99 <= 8.0, "p99 = {p99}");
        assert!(p50 <= p90 && p90 <= p99, "quantiles must be monotone");
    }
}
