//! Deterministic closed-loop load generator.
//!
//! [`LoadGen`] drives a running cluster (as the
//! [`ClusterHooks::concurrent`](jxp_node::ClusterHooks) driver) with a
//! seeded query mix drawn from the corpus, in two windows:
//!
//! - **Warmup**, while meetings still execute: queries use `k + 1`, so
//!   their cache keys are disjoint from the measurement window's — the
//!   (wall-clock-dependent) number of warmup requests can never
//!   perturb which measurement requests hit the cache.
//! - **Measurement**, after [`ClusterCtx::meetings_done`] flips: scores
//!   are final, so epochs are stable and every reply is a pure function
//!   of the seed. Each worker owns a disjoint set of nodes and issues
//!   that node's requests serially (`repeats` passes over the query
//!   mix), making the per-node hit/miss sequence — first pass misses,
//!   later passes hit — reproducible at any concurrency.
//!
//! Latency and throughput are wall-clock (this file carries the D2
//! pragma above); hit rates, replies, and the precision evaluation
//! downstream are bit-deterministic.

use crate::engine::query_node;
use jxp_minerva::{Corpus, Query};
use jxp_node::{ClusterCtx, RetryPolicy};
use jxp_telemetry::{Histogram, Registry};
use jxp_wire::QueryReplyPayload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Histogram bounds (milliseconds) for query latency.
pub const LATENCY_BOUNDS_MS: [f64; 12] = [
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 500.0,
];

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Seed of the query mix (drawn via [`Corpus::make_queries`]).
    pub seed: u64,
    /// Distinct queries in the mix.
    pub num_queries: usize,
    /// Top-k requested in the measurement window (warmup uses `k + 1`).
    pub k: u32,
    /// Measurement passes over the mix, per node. Passes after the
    /// first are expected cache hits.
    pub repeats: usize,
    /// Closed-loop workers; nodes are partitioned across them.
    pub concurrency: usize,
    /// Retry policy for every request.
    pub retry: RetryPolicy,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            seed: 42,
            num_queries: 10,
            k: 10,
            repeats: 3,
            concurrency: 2,
            retry: RetryPolicy::default(),
        }
    }
}

/// What the load generator measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests issued during warmup (wall-clock dependent).
    pub warmup_requests: u64,
    /// Requests issued during measurement (deterministic:
    /// `nodes × repeats × num_queries`).
    pub measured_requests: u64,
    /// Measurement-window length in seconds.
    pub elapsed_secs: f64,
    /// Measurement throughput (requests / second).
    pub qps: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Measurement replies served from a node's cache.
    pub cache_hits: u64,
    /// `cache_hits / measured_requests`.
    pub cache_hit_rate: f64,
    /// Requests that failed after retries (any window).
    pub failures: u64,
    /// Final-pass measurement replies, `replies[node][query]`.
    pub replies: Vec<Vec<QueryReplyPayload>>,
}

/// What one measurement worker brings back from its node set.
struct WorkerTally {
    latencies: Vec<f64>,
    hits: u64,
    failures: u64,
    /// Final-pass replies per owned node, `(node, replies)`.
    finals: Vec<(usize, Vec<QueryReplyPayload>)>,
}

/// The generator: a seeded query mix plus the drive loop.
#[derive(Debug)]
pub struct LoadGen {
    queries: Vec<Query>,
    config: LoadGenConfig,
}

impl LoadGen {
    /// Draw the query mix from `corpus` with the config's seed.
    ///
    /// # Panics
    /// Panics on a degenerate config (no queries, no repeats, no
    /// workers, or `k` = 0).
    pub fn new(corpus: &Corpus, config: LoadGenConfig) -> Self {
        assert!(config.num_queries > 0, "empty query mix");
        assert!(config.repeats > 0, "need at least one measurement pass");
        assert!(config.concurrency > 0, "need at least one worker");
        assert!(config.k > 0, "top-0 is undefined");
        let queries =
            corpus.make_queries(config.num_queries, &mut StdRng::seed_from_u64(config.seed));
        LoadGen { queries, config }
    }

    /// The drawn mix (index order is the measurement issue order).
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Drive `ctx`'s cluster: warm up until the meetings finish, then
    /// run the measurement window. When `registry` is given, latencies
    /// land in a `jxp_loadgen_latency_ms` histogram and request counts
    /// in `jxp_loadgen_*_total` counters.
    pub fn drive(&self, ctx: &ClusterCtx<'_>, registry: Option<&Registry>) -> LoadReport {
        let histogram = match registry {
            Some(reg) => reg.histogram("jxp_loadgen_latency_ms", &LATENCY_BOUNDS_MS),
            None => Arc::new(Histogram::new(&LATENCY_BOUNDS_MS)),
        };
        let num_nodes = ctx.nodes.len();
        let k = self.config.k;

        // Warmup: keep the serving path busy while meetings run. The
        // `k + 1` request size keeps these cache keys off the
        // measurement keys entirely.
        let mut warmup_requests = 0u64;
        let mut failures = 0u64;
        let mut i = 0usize;
        while !ctx.meetings_done.load(Ordering::Acquire) {
            let q = &self.queries[i % self.queries.len()];
            let target = (i % num_nodes) as u64;
            let started = Instant::now();
            match query_node(
                ctx.transport,
                target,
                i as u64,
                &q.terms,
                k + 1,
                &self.config.retry,
            ) {
                Ok(_) => histogram.observe(started.elapsed().as_secs_f64() * 1e3),
                Err(_) => failures += 1,
            }
            warmup_requests += 1;
            i += 1;
        }

        // Measurement: meetings are over, scores and epochs are final.
        // Worker w serves nodes w, w + concurrency, … — one worker per
        // node keeps each node's request order (and therefore its
        // cache hit sequence) serial and reproducible.
        let workers = self.config.concurrency.min(num_nodes);
        let window = Instant::now();
        let mut per_worker: Vec<WorkerTally> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queries = &self.queries;
                    let config = &self.config;
                    let histogram = Arc::clone(&histogram);
                    scope.spawn(move || {
                        let mut latencies = Vec::new();
                        let mut hits = 0u64;
                        let mut failures = 0u64;
                        let mut finals = Vec::new();
                        for node in (w..num_nodes).step_by(workers) {
                            let mut last: Vec<QueryReplyPayload> = Vec::new();
                            for pass in 0..config.repeats {
                                last.clear();
                                for (qi, q) in queries.iter().enumerate() {
                                    let id = ((node * config.repeats + pass) * queries.len() + qi)
                                        as u64;
                                    let started = Instant::now();
                                    match query_node(
                                        ctx.transport,
                                        node as u64,
                                        id,
                                        &q.terms,
                                        k,
                                        &config.retry,
                                    ) {
                                        Ok(reply) => {
                                            let ms = started.elapsed().as_secs_f64() * 1e3;
                                            latencies.push(ms);
                                            histogram.observe(ms);
                                            if reply.cached {
                                                hits += 1;
                                            }
                                            last.push(reply);
                                        }
                                        Err(_) => failures += 1,
                                    }
                                }
                            }
                            finals.push((node, last));
                        }
                        WorkerTally {
                            latencies,
                            hits,
                            failures,
                            finals,
                        }
                    })
                })
                .collect();
            for handle in handles {
                per_worker.push(handle.join().expect("load worker panicked"));
            }
        });
        let elapsed_secs = window.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);

        let mut latencies: Vec<f64> = Vec::new();
        let mut cache_hits = 0u64;
        let mut replies: Vec<Vec<QueryReplyPayload>> = vec![Vec::new(); num_nodes];
        for tally in per_worker {
            latencies.extend(tally.latencies);
            cache_hits += tally.hits;
            failures += tally.failures;
            for (node, last) in tally.finals {
                replies[node] = last;
            }
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let quantile = |q: f64| -> f64 {
            if latencies.is_empty() {
                return 0.0;
            }
            let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
            latencies[idx.min(latencies.len() - 1)]
        };
        if let Some(reg) = registry {
            reg.counter("jxp_loadgen_warmup_requests_total")
                .add(warmup_requests);
            reg.counter("jxp_loadgen_measured_requests_total")
                .add(latencies.len() as u64);
            reg.counter("jxp_loadgen_failures_total").add(failures);
        }
        let measured = latencies.len() as u64;
        LoadReport {
            warmup_requests,
            measured_requests: measured,
            elapsed_secs,
            qps: measured as f64 / elapsed_secs,
            p50_ms: quantile(0.50),
            p99_ms: quantile(0.99),
            cache_hits,
            cache_hit_rate: if measured == 0 {
                0.0
            } else {
                cache_hits as f64 / measured as f64
            },
            failures,
            replies,
        }
    }
}
