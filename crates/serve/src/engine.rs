//! The per-node query front end.
//!
//! [`ServeHandler`] wraps a [`JxpNode`]'s frame handler and answers
//! [`Frame::QueryRequest`] itself: tf·idf candidates come from a
//! precomputed [`ServingIndex`] (Fagin's TA over score-sorted posting
//! lists), authority comes from the node's **live** JXP scores
//! (snapshotted briefly under the node lock), and the two are combined
//! with the paper's §6.3 rank fusion. Every other frame is delegated to
//! the node untouched, so meetings, stats, and repair behave exactly as
//! without serving — queries are read-only and never journal, which is
//! what keeps the journal-before-reply recovery invariant intact.
//!
//! Results are cached per `(terms, k)` in a bounded [`EpochLru`] keyed
//! to the node's score epoch: the instant the node absorbs a meeting
//! the epoch advances and every cached ranking is stale by definition.

use crate::cache::{EpochLru, Lookup};
use jxp_minerva::fusion::{rank_by_fusion, PAPER_JXP_WEIGHT, PAPER_TFIDF_WEIGHT};
use jxp_minerva::{ServingIndex, TermId};
use jxp_node::{
    request_with_retry, FrameHandler, JxpNode, NodeId, RetryPolicy, Transport, TransportError,
};
use jxp_pagerank::Ranking;
use jxp_telemetry::sync::lock_unpoisoned;
use jxp_telemetry::{Counter, Registry};
use jxp_webgraph::{FxHashMap, PageId};
use jxp_wire::{ErrorCode, Frame, QueryHit, QueryPayload, QueryReplyPayload};
use std::sync::{Arc, Mutex};

/// Tunables of one node's query front end. Fusion uses the paper's
/// weights, [`PAPER_TFIDF_WEIGHT`] and [`PAPER_JXP_WEIGHT`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TA retrieves `pool_factor · k` tf·idf candidates before fusion,
    /// so authority can promote pages from beyond the tf·idf top-k.
    pub pool_factor: usize,
    /// Result cache bound (entries).
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            pool_factor: 4,
            cache_capacity: 256,
        }
    }
}

/// Serving counters, one labelled series per node (mirrors
/// `NodeMetrics`): `jxp_serve_queries_total{node="i"}` and friends.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// Queries answered (any outcome except rejected ones).
    pub queries: Arc<Counter>,
    /// Answered from the cache at the current epoch.
    pub cache_hits: Arc<Counter>,
    /// Computed fresh (cold or stale).
    pub cache_misses: Arc<Counter>,
    /// The subset of misses caused by an epoch advance.
    pub cache_stale: Arc<Counter>,
}

impl ServeMetrics {
    /// Standalone counters, registered nowhere.
    pub fn detached() -> Self {
        ServeMetrics::registered(&Registry::new(), 0)
    }

    /// Counters registered in `registry` as labelled series.
    pub fn registered(registry: &Registry, node: NodeId) -> Self {
        let series =
            |field: &str| registry.counter(&format!("jxp_serve_{field}_total{{node=\"{node}\"}}"));
        ServeMetrics {
            queries: series("queries"),
            cache_hits: series("cache_hits"),
            cache_misses: series("cache_misses"),
            cache_stale: series("cache_stale"),
        }
    }
}

type CacheKey = (Vec<u32>, u32);

/// A node's query front end; see the module docs.
pub struct ServeHandler {
    node: Arc<JxpNode>,
    index: ServingIndex,
    config: ServeConfig,
    cache: Mutex<EpochLru<CacheKey, Vec<QueryHit>>>,
    metrics: ServeMetrics,
}

impl ServeHandler {
    /// Front a node with `index` (built from the same fragment the
    /// node's peer holds).
    ///
    /// # Panics
    /// Panics if `pool_factor` or `cache_capacity` is zero.
    pub fn new(
        node: Arc<JxpNode>,
        index: ServingIndex,
        config: ServeConfig,
        metrics: ServeMetrics,
    ) -> Self {
        assert!(config.pool_factor > 0, "pool_factor must be positive");
        let cache = Mutex::new(EpochLru::new(config.cache_capacity));
        ServeHandler {
            node,
            index,
            config,
            cache,
            metrics,
        }
    }

    /// The wrapped node.
    pub fn node(&self) -> &Arc<JxpNode> {
        &self.node
    }

    /// The serving counters.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    fn answer(&self, q: QueryPayload) -> Frame {
        if q.k == 0 {
            return Frame::Error {
                code: ErrorCode::BadRequest,
                detail: "top-0 is undefined".to_string(),
            };
        }
        self.metrics.queries.inc();
        // The epoch is read before the cache probe *and* stamped on the
        // computed entry: if a meeting absorbs mid-computation the entry
        // is tagged with the older epoch and the next lookup recomputes
        // — stale results can be served at most within one epoch read,
        // never across one.
        let epoch = self.node.score_epoch();
        let key: CacheKey = (q.terms.clone(), q.k);
        match lock_unpoisoned(&self.cache).get(&key, epoch) {
            Lookup::Hit(hits) => {
                self.metrics.cache_hits.inc();
                return self.reply(&q, epoch, true, hits);
            }
            Lookup::MissCold => self.metrics.cache_misses.inc(),
            Lookup::MissStale => {
                self.metrics.cache_misses.inc();
                self.metrics.cache_stale.inc();
            }
        }
        let hits = self.compute(&q.terms, q.k as usize);
        lock_unpoisoned(&self.cache).insert(key, hits.clone(), epoch);
        self.reply(&q, epoch, false, hits)
    }

    fn reply(&self, q: &QueryPayload, epoch: u64, cached: bool, hits: Vec<QueryHit>) -> Frame {
        Frame::QueryReply(QueryReplyPayload {
            node_id: self.node.id(),
            query_id: q.query_id,
            epoch,
            cached,
            hits,
        })
    }

    fn compute(&self, terms: &[u32], k: usize) -> Vec<QueryHit> {
        let terms: Vec<TermId> = terms.iter().map(|&t| TermId(t)).collect();
        let ta = self.index.topk(&terms, k * self.config.pool_factor);
        if ta.hits.is_empty() {
            return Vec::new();
        }
        // Authority snapshot: per-candidate score lookups, briefly under
        // the node lock (the pool is tens of pages, not the graph).
        let authority: Vec<(PageId, f64)> = self.node.with_peer(|peer| {
            ta.hits
                .iter()
                .filter_map(|h| peer.score(h.page).map(|s| (h.page, s)))
                .collect()
        });
        let ranking = Ranking::from_scores(authority);
        let tfidf_of: FxHashMap<PageId, f64> = ta.hits.iter().map(|h| (h.page, h.tfidf)).collect();
        rank_by_fusion(&ta.hits, &ranking, PAPER_TFIDF_WEIGHT, PAPER_JXP_WEIGHT)
            .into_iter()
            .take(k)
            .map(|f| QueryHit {
                page: f.page,
                tfidf: tfidf_of[&f.page],
                fused: f.score,
            })
            .collect()
    }
}

impl FrameHandler for ServeHandler {
    fn handle(&self, frame: Frame) -> Option<Frame> {
        match frame {
            Frame::QueryRequest(q) => Some(self.answer(q)),
            other => self.node.handle(other),
        }
    }
}

/// Send one top-`k` query to `target` and return its reply payload —
/// the client half of the protocol, over any [`Transport`].
pub fn query_node(
    transport: &dyn Transport,
    target: NodeId,
    query_id: u64,
    terms: &[TermId],
    k: u32,
    policy: &RetryPolicy,
) -> Result<QueryReplyPayload, TransportError> {
    let frame = Frame::QueryRequest(QueryPayload {
        query_id,
        k,
        terms: terms.iter().map(|t| t.0).collect(),
    });
    let outcome = request_with_retry(transport, target, &frame, policy)?;
    match outcome.exchange.reply {
        Frame::QueryReply(payload) => Ok(payload),
        Frame::Error { detail, .. } => Err(TransportError::Rejected(detail)),
        _ => Err(TransportError::Wire(jxp_wire::WireError::Malformed(
            "unexpected reply to QueryRequest",
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxp_core::{JxpConfig, JxpPeer};
    use jxp_minerva::{Corpus, CorpusParams, PeerIndex};
    use jxp_node::{LoopbackNetwork, RetryPolicy};
    use jxp_pagerank::{pagerank, PageRankConfig};
    use jxp_synopses::mips::MipsPermutations;
    use jxp_webgraph::generators::{CategorizedGraph, CategorizedParams};
    use jxp_webgraph::Subgraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        corpus: Corpus,
        net: LoopbackNetwork,
        nodes: Vec<Arc<JxpNode>>,
        handlers: Vec<Arc<ServeHandler>>,
    }

    fn fixture() -> Fixture {
        let cg = CategorizedGraph::generate(
            &CategorizedParams {
                num_categories: 2,
                nodes_per_category: 60,
                intra_out_per_node: 3,
                cross_fraction: 0.1,
            },
            &mut StdRng::seed_from_u64(1),
        );
        let truth = pagerank(&cg.graph, &PageRankConfig::default()).into_scores();
        let corpus = Corpus::generate(
            &cg,
            &truth,
            CorpusParams::default(),
            &mut StdRng::seed_from_u64(2),
        );
        let n = cg.graph.num_nodes();
        let perms = MipsPermutations::generate(16, 9);
        let net = LoopbackNetwork::new();
        let mut nodes = Vec::new();
        let mut handlers = Vec::new();
        for (i, lo) in [(0u64, 0u32), (1, 60)] {
            let frag = Subgraph::from_pages(&cg.graph, (lo..lo + 60).map(PageId));
            let index = ServingIndex::build(&PeerIndex::build(&frag, &corpus));
            let node = Arc::new(JxpNode::new(
                i,
                JxpPeer::new(frag, n as u64, JxpConfig::default()),
                &perms,
            ));
            let handler = Arc::new(ServeHandler::new(
                Arc::clone(&node),
                index,
                ServeConfig::default(),
                ServeMetrics::detached(),
            ));
            net.register(i, Arc::clone(&handler) as Arc<dyn FrameHandler>);
            nodes.push(node);
            handlers.push(handler);
        }
        Fixture {
            corpus,
            net,
            nodes,
            handlers,
        }
    }

    #[test]
    fn queries_are_answered_cached_and_epoch_invalidated() {
        let f = fixture();
        let policy = RetryPolicy::default();
        let q = &f.corpus.make_queries(2, &mut StdRng::seed_from_u64(3))[0];

        let first = query_node(&f.net, 0, 1, &q.terms, 10, &policy).expect("first query");
        assert_eq!(first.node_id, 0);
        assert_eq!(first.query_id, 1);
        assert!(!first.cached, "cold cache");
        assert!(!first.hits.is_empty());
        assert!(
            first.hits.windows(2).all(|w| w[0].fused >= w[1].fused),
            "hits must be fused-score sorted"
        );

        let again = query_node(&f.net, 0, 2, &q.terms, 10, &policy).expect("second query");
        assert!(again.cached, "same (terms, k) at same epoch hits the cache");
        assert_eq!(again.hits, first.hits);
        assert_eq!(again.epoch, first.epoch);

        // A meeting advances both epochs; the cached ranking is stale.
        f.nodes[0].meet(1, &f.net, &policy).expect("meeting");
        let after = query_node(&f.net, 0, 3, &q.terms, 10, &policy).expect("post-meeting query");
        assert!(!after.cached, "epoch advance must invalidate");
        assert!(after.epoch > first.epoch);
        let m = f.handlers[0].metrics();
        assert_eq!(m.queries.get(), 3);
        assert_eq!(m.cache_hits.get(), 1);
        assert_eq!(m.cache_misses.get(), 2);
        assert_eq!(m.cache_stale.get(), 1);
    }

    #[test]
    fn meetings_flow_through_the_serving_handler() {
        let f = fixture();
        let policy = RetryPolicy::default();
        // The wrapped handler delegates non-query frames to the node:
        // a meeting via the network (whose registered handler is the
        // ServeHandler) completes normally and bumps epochs.
        let before = (f.nodes[0].score_epoch(), f.nodes[1].score_epoch());
        f.nodes[0].meet(1, &f.net, &policy).expect("meeting");
        assert_eq!(f.nodes[0].score_epoch(), before.0 + 1);
        assert_eq!(f.nodes[1].score_epoch(), before.1 + 1);
        assert_eq!(f.nodes[0].stats().meetings_completed, 1);
        assert_eq!(f.nodes[1].stats().meetings_served, 1);
    }

    #[test]
    fn k_zero_is_rejected_and_unknown_terms_yield_empty() {
        let f = fixture();
        let policy = RetryPolicy::default();
        let err = query_node(&f.net, 0, 1, &[TermId(5)], 0, &policy);
        assert!(matches!(err, Err(TransportError::Rejected(_))));
        // A term no document contains: an empty, non-cached... still
        // cacheable reply.
        let empty = query_node(&f.net, 0, 2, &[TermId(999_999)], 5, &policy).expect("query");
        assert!(empty.hits.is_empty());
        let again = query_node(&f.net, 0, 3, &[TermId(999_999)], 5, &policy).expect("query");
        assert!(again.cached, "empty results are cached too");
    }

    #[test]
    fn fused_ranking_uses_live_authority() {
        let f = fixture();
        let policy = RetryPolicy::default();
        let q = &f.corpus.make_queries(2, &mut StdRng::seed_from_u64(4))[0];
        let reply = query_node(&f.net, 0, 1, &q.terms, 10, &policy).expect("query");
        // Every returned page carries both scores, and the fused score
        // reflects the node's current authority snapshot (weights sum
        // to 1, components normalized to [0,1]).
        for hit in &reply.hits {
            assert!(hit.tfidf > 0.0);
            assert!(hit.fused > 0.0 && hit.fused <= 1.0 + 1e-12);
        }
    }
}
