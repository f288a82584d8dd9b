//! The benchmark's fixed tables: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root states the same tables for the driver; a test keeps them equal.

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit and direction; end-to-end metrics also
/// carry the share of the baseline median by which they may worsen.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u32 = 10;

/// The driver appends `--workload W --seed S --seconds N --trace T`.
const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// The layers are the crates.
pub const LAYERS: [&str; 14] = [
    "webgraph",
    "pagerank",
    "synopses",
    "core",
    "p2pnet",
    "pool",
    "wire",
    "node",
    "reactor",
    "store",
    "segstore",
    "minerva",
    "serve",
    "telemetry",
];

/// `(name, why it exists)`.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "sim_converge",
        "Fig. 4 shape: sparse Amazon fragments, random meetings, 1 thread. core (payload, absorb, local PageRank) does nearly all the work; no wire, sockets, disk or pool.",
    ),
    (
        "sim_web_premeet",
        "4x denser Web fragments, pre-meetings selection, 2 threads: sweep-heavy PageRank, big payloads, synopses, the pool's pipelined rounds. A sparse/serial gain that costs dense/parallel shows here.",
    ),
    (
        "cluster_reactor",
        "run_cluster over real localhost sockets on the reactor: wire + reactor + node carry the large-frame transport cost that the sim workloads bypass.",
    ),
    (
        "cluster_durable",
        "run_cluster on loopback with a state directory: WAL append and checkpoints as meetings run, then a resume. store does most of the work; transport is bypassed.",
    ),
    (
        "serve_query",
        "One closed-loop client, Zipf query mix on 8 serving nodes, meetings interleaved: serve + minerva + the epoch cache; reads beside writes at a hit rate that repeats exactly.",
    ),
    (
        "segment_pagerank",
        "Power iteration over an on-disk segmented graph, 4 of 16 segments resident: the only workload whose working set exceeds the program's own cache. segstore probe + decode dominate.",
    ),
];

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one;
/// DESIGN notes in README.md say what an "op" is per workload.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("unit_cpu_s", "s", Lower, 0.25),
    e2e("bytes_per_op", "B", Lower, 0.15),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// Numbers of single layers, from the traced run. A workload reports 0
/// for a metric whose probe lives on another workload.
pub const PER_LAYER: [Metric; 75] = [
    layer("webgraph.generate_s", "s", Lower),
    layer("webgraph.crawl_assign_s", "s", Lower),
    layer("pagerank.csr_edges_per_s", "1/s", Higher),
    layer("pagerank.truth_iterations", "count", Lower),
    layer("core.peer_init_s", "s", Lower),
    layer("core.payload_build_us_p50", "us", Lower),
    layer("core.absorb_us_p50", "us", Lower),
    layer("core.absorb_us_p99", "us", Lower),
    layer("core.recompute_us_p50", "us", Lower),
    layer("core.kernel_edges_per_s", "1/s", Higher),
    layer("core.pr_iterations_per_meeting", "count", Lower),
    layer("core.payload_bytes_mean", "B", Lower),
    layer("core.world_entries_mean", "count", Lower),
    layer("core.final_footrule", "ratio", Lower),
    layer("synopses.build_us_p50", "us", Lower),
    layer("synopses.premeet_score_us_p50", "us", Lower),
    layer("p2pnet.step_ms_p50", "ms", Lower),
    layer("p2pnet.step_ms_p99", "ms", Lower),
    layer("p2pnet.rounds", "count", Lower),
    layer("p2pnet.round_width_mean", "count", Higher),
    layer("p2pnet.parallel_speedup", "ratio", Higher),
    layer("p2pnet.meetings_to_target", "count", Lower),
    layer("p2pnet.time_to_target_s", "s", Lower),
    layer("p2pnet.bytes_to_target", "B", Lower),
    layer("pool.steals", "count", Lower),
    layer("pool.empty_round_us_p50", "us", Lower),
    layer("wire.encode_mb_per_s", "MB/s", Higher),
    layer("wire.decode_mb_per_s", "MB/s", Higher),
    layer("wire.frame_bytes_mean", "B", Lower),
    layer("node.loopback_run_s", "s", Lower),
    layer("node.meet_us_p50", "us", Lower),
    layer("reactor.transport_share_s", "s", Lower),
    layer("reactor.inflight_peak", "count", Higher),
    layer("reactor.small_frame_rtt_us_p50", "us", Lower),
    layer("reactor.small_frame_qps_w16", "1/s", Higher),
    layer("store.durable_share_s", "s", Lower),
    layer("store.recover_s", "s", Lower),
    layer("store.wal_append_us_p50", "us", Lower),
    layer("store.checkpoint_ms_p50", "ms", Lower),
    layer("store.load_ms_p50", "ms", Lower),
    layer("store.snapshot_bytes_mean", "B", Lower),
    layer("store.state_bytes", "B", Lower),
    layer("segstore.build_edges_per_s", "1/s", Higher),
    layer("segstore.decode_mb_per_s", "MB/s", Higher),
    layer("segstore.hits", "count", Higher),
    layer("segstore.misses", "count", Lower),
    layer("segstore.resident_edges_per_s", "1/s", Higher),
    layer("segstore.stream_edges_per_s_t2", "1/s", Higher),
    layer("segstore.peak_resident_bytes", "B", Lower),
    layer("minerva.index_build_s", "s", Lower),
    layer("minerva.topk_us_p50", "us", Lower),
    layer("serve.answer_miss_us_p50", "us", Lower),
    layer("serve.answer_hit_us_p50", "us", Lower),
    layer("serve.cache_hit_ratio", "ratio", Higher),
    layer("serve.stale_miss_ratio", "ratio", Lower),
    layer("serve.meeting_ms_p50", "ms", Lower),
    layer("serve.query_p50_us", "us", Lower),
    layer("serve.query_p99_us", "us", Lower),
    layer("telemetry.overhead_ratio", "ratio", Lower),
    layer("trace_overhead_ratio", "ratio", Lower),
    layer("trace_spans", "count", Lower),
    layer("webgraph.self_s", "s", Lower),
    layer("pagerank.self_s", "s", Lower),
    layer("synopses.self_s", "s", Lower),
    layer("core.self_s", "s", Lower),
    layer("p2pnet.self_s", "s", Lower),
    layer("pool.self_s", "s", Lower),
    layer("wire.self_s", "s", Lower),
    layer("node.self_s", "s", Lower),
    layer("reactor.self_s", "s", Lower),
    layer("store.self_s", "s", Lower),
    layer("segstore.self_s", "s", Lower),
    layer("minerva.self_s", "s", Lower),
    layer("serve.self_s", "s", Lower),
    layer("telemetry.self_s", "s", Lower),
];

/// `BENCHMARK.json`, from the tables above.
pub fn benchmark_json() -> Json {
    let metric = |m: &Metric, with_bound: bool| {
        let mut entry = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if with_bound {
            entry.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(entry)
    };
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

/// The end-to-end or per-layer table entry called `name`.
pub fn find(table: &'static [Metric], name: &str) -> Option<&'static Metric> {
    table.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    fn names_are_valid_and_unique(names: &[&str]) {
        for (i, name) in names.iter().enumerate() {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!names[..i].contains(name), "{name} used twice");
        }
    }

    #[test]
    fn tables_are_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        names_are_valid_and_unique(&names);
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for l in LAYERS {
            assert!(
                find(&PER_LAYER, &format!("{l}.self_s")).is_some(),
                "{l} has no self time"
            );
        }
    }

    /// `BENCHMARK.json` is what the driver reads; it must say what this
    /// file says (`jxp-benchmark spec` prints it).
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(committed, benchmark_json());
        let keys: Vec<&str> = committed
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(std::fs::metadata(path).unwrap().len() <= 64 * 1024);
    }
}
