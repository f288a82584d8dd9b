//! `serve_query`: one closed-loop client against eight serving nodes,
//! with meetings interleaved so cached rankings go stale.

use crate::dataset;
use crate::harness::{p50, p99, time_each, Ctx, Unit};
use crate::trace::Tracer;
use crate::workloads::Collection;
use jxp_core::{JxpConfig, JxpPeer};
use jxp_minerva::{Corpus, CorpusParams, PeerIndex, ServingIndex, TermId};
use jxp_node::{FrameHandler, JxpNode, LoopbackNetwork, NodeId, RetryPolicy, Transport};
use jxp_pagerank::{metrics, Ranking};
use jxp_serve::{contiguous_fragments, ServeConfig, ServeHandler, ServeMetrics};
use jxp_synopses::mips::MipsPermutations;
use jxp_webgraph::generators::amazon_2005;
use jxp_webgraph::Subgraph;
use jxp_wire::{Frame, QueryPayload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Amazon at a tenth of the paper's size: 5 520 pages, 690 per node.
const SCALE: f64 = 0.1;
const NODES: usize = 8;
/// Meetings before the first query, so authority scores are not the
/// initial guess.
const WARMUP_MEETINGS: usize = 200;
/// Queries per unit.
const QUERIES: usize = 60_000;
/// One meeting after every this many queries.
const MEETING_EVERY: usize = 2000;
/// Each node's result cache; smaller than a node's share of the keys.
const CACHE_CAPACITY: usize = 256;
const TOP_K: [u32; 3] = [5, 10, 20];
/// The probes ask for the middle one.
const PROBE_K: u32 = 10;
/// Footrule of the nodes' merged authority ranking is over this many.
const FOOTRULE_TOP: usize = 100;
const FOOTRULE_TARGET: f64 = 0.05;

/// One set of query terms, and the nodes that hold its category. With
/// each of the three `k` it makes a distinct cache key.
struct Key {
    terms: Vec<u32>,
    holders: Vec<NodeId>,
}

struct Data {
    collection: Collection,
    truth: Ranking,
    fragments: Vec<Subgraph>,
    indexes: Vec<ServingIndex>,
    /// Term sets in popularity order: rank `r` is drawn with weight
    /// `1/(r+1)`; `k` rotates with the query number, so reply sizes mix
    /// the same way whatever the seed makes popular.
    keys: Vec<Key>,
    /// Cumulative Zipf(1.0) weights over `keys`, normalised to 1.
    cdf: Vec<f64>,
}

/// Every 1-, 2- and 3-subset of a category's eight most frequent topic
/// terms: 92 x 10 = 920 term sets, 2760 cache keys with the three `k`.
fn key_universe(corpus: &Corpus, fragments: &[Subgraph], rng: &mut StdRng) -> Vec<Key> {
    let mut keys = Vec::new();
    for category in 0..corpus.num_categories() {
        let holders: Vec<NodeId> = fragments
            .iter()
            .enumerate()
            .filter(|(_, f)| f.pages().iter().any(|&p| corpus.category(p) == category))
            .map(|(i, _)| i as NodeId)
            .collect();
        let pool: Vec<u32> = corpus
            .top_topic_terms(category, 8)
            .iter()
            .map(|t| t.0)
            .collect();
        for mask in 1u32..1 << pool.len() {
            if mask.count_ones() > 3 {
                continue;
            }
            let terms: Vec<u32> = (0..pool.len())
                .filter(|bit| mask >> bit & 1 == 1)
                .map(|bit| pool[bit])
                .collect();
            keys.push(Key {
                terms,
                holders: holders.clone(),
            });
        }
    }
    keys.shuffle(rng);
    keys
}

fn build(seed: u64, tracer: &Tracer) -> Data {
    let collection = Collection::build(tracer, &amazon_2005(), SCALE);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E87E);
    let corpus = tracer.span("minerva.corpus_generate", 0, || {
        Corpus::generate(
            &collection.cg,
            &collection.truth,
            CorpusParams::default(),
            &mut rng,
        )
    });
    let fragments = tracer.span("serve.contiguous_fragments", 0, || {
        contiguous_fragments(&collection.cg, NODES)
    });
    let indexes = tracer.span("minerva.index_build", 0, || {
        fragments
            .iter()
            .map(|f| ServingIndex::build(&PeerIndex::build(f, &corpus)))
            .collect()
    });
    let keys = key_universe(&corpus, &fragments, &mut rng);
    let total: f64 = (1..=keys.len()).map(|r| 1.0 / r as f64).sum();
    let mut acc = 0.0;
    let cdf = (1..=keys.len())
        .map(|r| {
            acc += 1.0 / r as f64 / total;
            acc
        })
        .collect();
    let data = Data {
        truth: jxp_core::evaluate::centralized_ranking(&collection.truth),
        collection,
        fragments,
        indexes,
        keys,
        cdf,
    };
    // A user waits for the warm-up before the first query is answered.
    tracer.span("node.warmup_meetings", 0, || Serving::start(&data));
    data
}

/// Fresh nodes behind fresh query front ends, warmed up.
struct Serving {
    net: LoopbackNetwork,
    nodes: Vec<Arc<JxpNode>>,
    handlers: Vec<Arc<ServeHandler>>,
    meetings: usize,
}

impl Serving {
    fn start(data: &Data) -> Serving {
        let perms = MipsPermutations::generate(64, 0x5a5a);
        let n_total = data.collection.cg.graph.num_nodes() as u64;
        let net = LoopbackNetwork::new();
        let (mut nodes, mut handlers) = (Vec::new(), Vec::new());
        for (i, fragment) in data.fragments.iter().enumerate() {
            let peer = JxpPeer::new(fragment.clone(), n_total, JxpConfig::optimized());
            let node = Arc::new(JxpNode::new(i as NodeId, peer, &perms));
            let handler = Arc::new(ServeHandler::new(
                Arc::clone(&node),
                data.indexes[i].clone(),
                ServeConfig {
                    cache_capacity: CACHE_CAPACITY,
                    ..ServeConfig::default()
                },
                ServeMetrics::detached(),
            ));
            net.register(i as NodeId, Arc::clone(&handler) as Arc<dyn FrameHandler>);
            nodes.push(node);
            handlers.push(handler);
        }
        let mut serving = Serving {
            net,
            nodes,
            handlers,
            meetings: 0,
        };
        for _ in 0..WARMUP_MEETINGS {
            serving.meet().expect("warm-up meeting over loopback");
        }
        serving
    }

    /// The next meeting of a fixed rotation over all ordered pairs.
    fn meet(&mut self) -> Result<(), jxp_node::TransportError> {
        let n = self.nodes.len();
        let m = self.meetings;
        self.meetings += 1;
        let initiator = m % n;
        let target = (initiator + 1 + (m / n) % (n - 1)) % n;
        self.nodes[initiator]
            .meet(target as NodeId, &self.net, &RetryPolicy::default())
            .map(|_| ())
    }

    fn peers(&self) -> Vec<JxpPeer> {
        self.nodes
            .iter()
            .map(|n| n.with_peer(JxpPeer::clone))
            .collect()
    }

    fn counter(&self, pick: impl Fn(&ServeMetrics) -> u64) -> u64 {
        self.handlers.iter().map(|h| pick(h.metrics())).sum()
    }
}

struct Run {
    unit: Unit,
    query_secs: Vec<f64>,
    meeting_secs: Vec<f64>,
    serving: Serving,
}

fn run(data: &Data, seed: u64, tracer: &Tracer) -> Run {
    let mut serving = Serving::start(data);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E21);
    let mut query_secs = Vec::with_capacity(QUERIES);
    let mut meeting_secs = Vec::new();
    let (mut bytes, mut failed) = (0u64, 0u64);
    for q in 0..QUERIES {
        let u: f64 = rng.gen();
        let key = &data.keys[data
            .cdf
            .partition_point(|&c| c < u)
            .min(data.keys.len() - 1)];
        let target = key.holders[rng.gen_range(0..key.holders.len())];
        let k = TOP_K[q % TOP_K.len()];
        let request = Frame::QueryRequest(QueryPayload {
            query_id: q as u64,
            k,
            terms: key.terms.clone(),
        });
        let start = Instant::now();
        let exchange = tracer.span("serve.query", q as u64, || {
            serving.net.request(target, &request)
        });
        query_secs.push(start.elapsed().as_secs_f64());
        let ok = match exchange {
            Ok(x) => {
                bytes += x.bytes_sent + x.bytes_received;
                match x.reply {
                    Frame::QueryReply(r) => {
                        r.query_id == q as u64
                            && r.hits.len() <= k as usize
                            && r.hits.windows(2).all(|w| w[0].fused >= w[1].fused)
                    }
                    _ => false,
                }
            }
            Err(_) => false,
        };
        failed += u64::from(!ok);
        if (q + 1) % MEETING_EVERY == 0 {
            let start = Instant::now();
            let met = tracer.span("node.meet", q as u64, || serving.meet());
            meeting_secs.push(start.elapsed().as_secs_f64());
            failed += u64::from(met.is_err());
        }
    }
    let peers = serving.peers();
    let ranking = jxp_core::evaluate::total_ranking(&peers);
    let unit = Unit {
        secs: query_secs.iter().sum(),
        ops: QUERIES as u64,
        bytes,
        footrule: metrics::footrule_distance(&ranking, &data.truth, FOOTRULE_TOP),
        hash: dataset::score_hash(peers.iter().map(JxpPeer::scores)),
        attempted: (QUERIES + meeting_secs.len()) as u64,
        failed,
        counts: vec![
            ("cache_hits", serving.counter(|m| m.cache_hits.get())),
            ("cache_misses", serving.counter(|m| m.cache_misses.get())),
            ("cache_stale", serving.counter(|m| m.cache_stale.get())),
        ],
    };
    Run {
        unit,
        query_secs,
        meeting_secs,
        serving,
    }
}

pub fn run_workload(ctx: &mut Ctx) {
    let seed = ctx.seed;
    let data = ctx.setup(|tracer| build(seed, tracer));
    let mut last = None;
    let summary = ctx.measure(1, |tracer, _, _| {
        let done = run(&data, seed, tracer);
        let unit = done.unit.clone();
        last = Some(done);
        unit
    });
    let last = last.expect("at least one repetition ran");
    ctx.check(
        "the interleaved meetings keep the authority ranking on target",
        summary.footrule <= FOOTRULE_TARGET,
    );
    let count = |name: &str| {
        let found = summary.unit.counts.iter().find(|(n, _)| *n == name);
        found.expect("count reported by the unit").1
    };
    ctx.check(
        "every query was either a cache hit or a miss",
        count("cache_hits") + count("cache_misses") == QUERIES as u64,
    );

    if !ctx.trace {
        return;
    }
    data.collection.report_layers(ctx);
    ctx.layer(
        "minerva.index_build_s",
        ctx.span_secs("minerva.index_build"),
    );
    ctx.layer(
        "serve.cache_hit_ratio",
        count("cache_hits") as f64 / QUERIES as f64,
    );
    ctx.layer(
        "serve.stale_miss_ratio",
        count("cache_stale") as f64 / QUERIES as f64,
    );
    ctx.layer("serve.meeting_ms_p50", p50(&last.meeting_secs, 1e3));
    ctx.layer("serve.query_p50_us", p50(&last.query_secs, 1e6));
    ctx.layer("serve.query_p99_us", p99(&last.query_secs, 1e6));
    probe_handlers(ctx, &data, &last.serving);
}

/// The query path below the wire: `ServingIndex::topk` alone, then
/// `ServeHandler::handle` on a cold cache (misses) and again (hits).
fn probe_handlers(ctx: &mut Ctx, data: &Data, serving: &Serving) {
    let sample = &data.keys[..data.keys.len().min(CACHE_CAPACITY)];
    let topk = time_each(sample.len(), |i| {
        let key = &sample[i];
        let terms: Vec<TermId> = key.terms.iter().map(|&t| TermId(t)).collect();
        let index = &data.indexes[key.holders[0] as usize];
        std::hint::black_box(ctx.tracer.span("minerva.topk", i as u64, || {
            index.topk(
                &terms,
                PROBE_K as usize * ServeConfig::default().pool_factor,
            )
        }));
    });
    ctx.layer("minerva.topk_us_p50", p50(&topk, 1e6));

    // One cold front end per node, all keys routed to their first holder:
    // at most 256 keys in all, so the second pass finds every one cached.
    let cold: Vec<ServeHandler> = serving
        .nodes
        .iter()
        .zip(&data.indexes)
        .map(|(node, index)| {
            ServeHandler::new(
                Arc::clone(node),
                index.clone(),
                ServeConfig::default(),
                ServeMetrics::detached(),
            )
        })
        .collect();
    let mut wrong = 0u64;
    let mut pass = |name: &'static str, expect_cached: bool| {
        time_each(sample.len(), |i| {
            let key = &sample[i];
            let request = Frame::QueryRequest(QueryPayload {
                query_id: i as u64,
                k: PROBE_K,
                terms: key.terms.clone(),
            });
            let handler = &cold[key.holders[0] as usize];
            let reply = ctx.tracer.span(name, i as u64, || handler.handle(request));
            wrong += u64::from(
                !matches!(reply, Some(Frame::QueryReply(r)) if r.cached == expect_cached),
            );
        })
    };
    let miss = pass("serve.handle_miss", false);
    let hit = pass("serve.handle_hit", true);
    ctx.layer("serve.answer_miss_us_p50", p50(&miss, 1e6));
    ctx.layer("serve.answer_hit_us_p50", p50(&hit, 1e6));
    ctx.check("cold front ends miss once, then hit", wrong == 0);
}
