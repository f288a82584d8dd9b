#![deny(missing_docs)]
//! # jxp-cli
//!
//! Command-line driver for the JXP reproduction:
//!
//! ```text
//! jxp-cli generate --dataset amazon --scale 0.1 --out web
//! jxp-cli pagerank --graph web --top 10
//! jxp-cli simulate --dataset amazon --scale 0.1 --meetings 800
//! jxp-cli search   --scale 0.1 --queries 10
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs after a
//! subcommand) to keep the dependency set to the sanctioned crates.

mod args;
mod commands;

pub use args::ParsedArgs;

/// Usage text printed on argument errors.
pub const USAGE: &str = "\
usage: jxp-cli <command> [--key value ...]

commands:
  generate   synthesize a dataset and write it to disk as a segmented
             webgraph directory (the out-of-core jxp-segstore format)
             --out DIR, --dataset amazon|web (default amazon),
             --scale 0..=1 (0.1), --segment-nodes N (4096),
             --edge-list FILE (optional text copy)
  pagerank   compute centralized PageRank (power iteration) over a
             directory written by generate
             --graph DIR, --top K (10), --epsilon 0.85,
             --threads N (0 = all cores)
  simulate   run a JXP P2P network and report convergence
             --dataset amazon|web, --scale (0.05), --meetings N (600),
             --merge light|full, --combine max|avg,
             --strategy random|premeetings, --estimate-n yes|no,
             --sample N, --top K, --seed N,
             --threads N (0 = all cores; results thread-count-invariant),
             --metrics-out FILE (write a telemetry JSON snapshot)
  search     run the Minerva search experiment (Table 2 style)
             --dataset, --scale (0.05), --queries N (10), --meetings N (400),
             --seed N
  cluster    run N networked nodes through M meetings over the wire codec
             --peers N (8), --meetings M (200),
             --transport loopback|reactor,
             --premeetings yes|no (pick partners with the paper's §4.3
             pre-meetings selector; a node's every 5th pick is random),
             --loss P (0; lose each meeting frame, and each reply, with
             probability P in [0, 1), seeded; not with --state-dir),
             --dataset, --scale (0.05), --seed N, --top K,
             --threads N (0 = all cores; results thread-count-invariant),
             --metrics-out FILE (write a telemetry JSON snapshot),
             --state-dir DIR (durable checkpoints + WAL; reruns resume),
             --checkpoint-every N (8), --round-delay-ms MS (0),
             --metrics-listen ADDR (Prometheus scrape endpoint)
  graph      inspect or CRC-verify a segmented webgraph directory
             written by generate
             graph inspect --dir DIR
             graph verify  --dir DIR
             (verify exits nonzero when any segment is corrupt)
  checkpoint inspect or verify a --state-dir written by cluster
             checkpoint inspect --state-dir DIR [--node N|--key KEY]
             checkpoint verify  --state-dir DIR [--node N|--key KEY]
             (verify exits nonzero when a node is unrecoverable)
  metrics    render a telemetry snapshot written by --metrics-out
             --in FILE, --format table|prom|json (table)
  node       single-node socket demo: serve a fragment on an ephemeral port
             and run hello + synopsis probe + meeting against it
             --dataset, --scale (0.02), --seed N, --duration SECS (0)
  serve      run a cluster with per-node top-k query serving (tf*idf +
             live JXP authority fusion, epoch-validated result cache)
             and show the seeded load mix's answers
             --peers N (4), --meetings M (200), --dataset, --scale (0.05),
             --queries N (10), --k K (10), --repeats N (3),
             --concurrency N (2), --threads N (1), --seed N,
             --transport loopback|reactor,
             --metrics-listen ADDR (Prometheus scrape endpoint, e.g.
             127.0.0.1:0 for an ephemeral port),
             --out FILE (also write the run as BENCH_serve.json: qps,
             p50/p99, cache hit rate, precision@10 vs the tf*idf and
             centralized baselines)";

/// The flags `command` (with its action word, for `checkpoint` and
/// `graph`) takes, space-separated as [`USAGE`] lists them; `None` for
/// a command or action that does not exist.
fn accepted_flags(command: &str, action: Option<&str>) -> Option<&'static str> {
    Some(match (command, action) {
        ("generate", _) => "dataset scale out segment-nodes edge-list",
        ("pagerank", _) => "graph top epsilon threads",
        ("simulate", _) => {
            "dataset scale meetings merge combine strategy estimate-n sample top seed threads \
             metrics-out"
        }
        ("search", _) => "dataset scale queries meetings seed",
        ("cluster", _) => {
            "peers meetings transport premeetings loss dataset scale seed top threads \
             metrics-out state-dir checkpoint-every round-delay-ms metrics-listen"
        }
        ("graph", Some("inspect" | "verify")) => "dir",
        ("checkpoint", Some("inspect" | "verify")) => "state-dir node key",
        ("metrics", _) => "in format",
        ("node", _) => "dataset scale seed duration",
        ("serve", _) => {
            "peers meetings dataset scale queries k repeats concurrency threads seed transport \
             metrics-listen out"
        }
        _ => return None,
    })
}

/// Entry point: dispatch a full argument vector (without the program
/// name). Returns a user-facing error string on bad input, including a
/// flag the command does not take, before the command does any work.
pub fn run(argv: &[String]) -> Result<(), String> {
    let (command, rest) = argv.split_first().ok_or("missing command")?;
    // `checkpoint` and `graph` take an action word before their flags.
    let (action, rest) = match command.as_str() {
        "checkpoint" => rest
            .split_first()
            .map(|(a, r)| (Some(a.as_str()), r))
            .ok_or("checkpoint: missing action (inspect|verify)")?,
        "graph" => rest
            .split_first()
            .map(|(a, r)| (Some(a.as_str()), r))
            .ok_or("graph: missing action (inspect|verify)")?,
        _ => (None, rest),
    };
    let parsed = ParsedArgs::parse(rest)?;
    if let Some(accepted) = accepted_flags(command, action) {
        let name = action.map_or_else(|| command.clone(), |a| format!("{command} {a}"));
        parsed.reject_unknown(&name, accepted)?;
    }
    match (command.as_str(), action) {
        ("checkpoint", Some(action)) => commands::checkpoint(action, &parsed),
        ("graph", Some(action)) => commands::graph_cmd(action, &parsed),
        ("generate", _) => commands::generate(&parsed),
        ("pagerank", _) => commands::pagerank_cmd(&parsed),
        ("simulate", _) => commands::simulate(&parsed),
        ("search", _) => commands::search(&parsed),
        ("cluster", _) => commands::cluster(&parsed),
        ("metrics", _) => commands::metrics_cmd(&parsed),
        ("node", _) => commands::node(&parsed),
        ("serve", _) => commands::serve(&parsed),
        ("help" | "--help" | "-h", _) => {
            println!("{USAGE}");
            Ok(())
        }
        (other, _) => Err(format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn unknown_command_is_rejected() {
        assert!(run(&argv("frobnicate")).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn help_succeeds() {
        run(&argv("help")).unwrap();
    }

    #[test]
    fn end_to_end_generate_pagerank_roundtrip() {
        use jxp_pagerank::{pagerank, PageRankConfig};
        use jxp_segstore::SegmentedGraph;

        let dir = std::env::temp_dir().join(format!("jxp_cli_roundtrip_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        run(&argv(&format!(
            "generate --dataset amazon --scale 0.01 --out {} --segment-nodes 64",
            dir.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "pagerank --graph {} --top 5",
            dir.display()
        )))
        .unwrap();
        // The directory's PageRank is the in-memory graph's, bit for bit.
        let g = jxp_webgraph::generators::amazon_2005()
            .generate_scaled(0.01)
            .graph;
        let sg = SegmentedGraph::open(&dir).unwrap();
        assert!(
            sg.manifest().segments.len() > 1,
            "one segment proves little"
        );
        let cfg = PageRankConfig::default();
        let (mem, disk) = (pagerank(&g, &cfg), pagerank(&sg, &cfg));
        assert_eq!(mem.iterations(), disk.iterations());
        let bits = |r: &jxp_pagerank::PageRankResult| -> Vec<u64> {
            r.scores().iter().map(|s| s.to_bits()).collect()
        };
        assert_eq!(bits(&mem), bits(&disk));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retired_format_solver_and_build_action_are_refused() {
        let err = run(&argv("pagerank --graph x --solver gauss-seidel")).unwrap_err();
        assert_eq!(err, "unknown flag --solver for pagerank");
        let err = run(&argv("graph build --out x")).unwrap_err();
        assert!(err.contains("unknown action \"build\""), "{err}");
        // A file that is not a segment directory is refused, not parsed.
        let file = std::env::temp_dir().join(format!("jxp_cli_flat_{}", std::process::id()));
        std::fs::write(&file, b"JXPG").unwrap();
        assert!(run(&argv(&format!("pagerank --graph {}", file.display()))).is_err());
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn zero_counts_are_refused_naming_the_flag() {
        for (line, flag) in [
            ("simulate --sample 0", "sample"),
            ("simulate --top 0", "top"),
            ("search --queries 0", "queries"),
            ("serve --k 0", "k"),
            ("serve --queries 0", "queries"),
            ("serve --concurrency 0", "concurrency"),
            ("serve --repeats 0", "repeats"),
            ("generate --out x --segment-nodes 0", "segment-nodes"),
        ] {
            let err = run(&argv(line)).unwrap_err();
            assert_eq!(err, format!("--{flag} must be at least 1, got 0"), "{line}");
        }
    }

    #[test]
    fn simulate_smoke() {
        run(&argv(
            "simulate --dataset amazon --scale 0.01 --meetings 40 --sample 20 --top 20",
        ))
        .unwrap();
    }

    #[test]
    fn simulate_full_merge_avg_combine() {
        run(&argv(
            "simulate --dataset amazon --scale 0.01 --meetings 30 --merge full --combine avg --strategy premeetings --sample 15 --top 20",
        ))
        .unwrap();
    }

    #[test]
    fn simulate_with_estimated_n() {
        run(&argv(
            "simulate --dataset amazon --scale 0.01 --meetings 30 --estimate-n yes --sample 15 --top 20",
        ))
        .unwrap();
    }

    #[test]
    fn simulate_with_explicit_threads() {
        run(&argv(
            "simulate --dataset amazon --scale 0.01 --meetings 30 --threads 2 --sample 15 --top 20",
        ))
        .unwrap();
    }

    #[test]
    fn cluster_loopback_smoke() {
        run(&argv(
            "cluster --peers 4 --meetings 24 --scale 0.01 --transport loopback",
        ))
        .unwrap();
    }

    #[test]
    fn cluster_with_explicit_threads() {
        run(&argv(
            "cluster --peers 4 --meetings 16 --scale 0.01 --transport loopback --threads 2",
        ))
        .unwrap();
    }

    #[test]
    fn cluster_reactor_with_loss_survives() {
        run(&argv(
            "cluster --peers 4 --meetings 16 --scale 0.01 --transport reactor --loss 0.3",
        ))
        .unwrap();
    }

    #[test]
    fn cluster_refuses_bad_loss_before_any_node_starts() {
        for bad in ["1", "1.5", "-0.1", "NaN"] {
            let err = run(&argv(&format!("cluster --peers 3 --loss {bad}"))).unwrap_err();
            assert!(err.contains("loss must be in [0, 1)"), "{err}");
        }
        // Resume cannot replay a meeting served twice, so a lossy run
        // never journals: the directory is not even created.
        let dir = std::env::temp_dir().join(format!("jxp-cli-lossy-{}", std::process::id()));
        let err = run(&argv(&format!(
            "cluster --peers 3 --loss 0.2 --state-dir {}",
            dir.display()
        )))
        .unwrap_err();
        assert!(err.contains("state directory"), "{err}");
        assert!(!dir.exists());
    }

    #[test]
    fn pagerank_rejects_epsilon_outside_zero_one() {
        let dir = std::env::temp_dir().join(format!("jxp-cli-epsilon-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        run(&argv(&format!(
            "generate --dataset amazon --scale 0.01 --out {}",
            dir.display()
        )))
        .unwrap();
        for bad in ["1.5", "1", "0", "-0.2", "NaN"] {
            let err = run(&argv(&format!(
                "pagerank --graph {} --epsilon {bad}",
                dir.display()
            )))
            .unwrap_err();
            assert!(err.contains("must be in (0, 1)"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_premeetings_smoke() {
        run(&argv(
            "cluster --peers 3 --meetings 12 --scale 0.01 --premeetings yes",
        ))
        .unwrap();
    }

    #[test]
    fn simulate_metrics_out_roundtrips_through_metrics_command() {
        let dir = std::env::temp_dir().join("jxp_cli_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sim_metrics.json");
        run(&argv(&format!(
            "simulate --dataset amazon --scale 0.01 --meetings 30 --sample 15 --top 20 \
             --metrics-out {}",
            path.display()
        )))
        .unwrap();
        let raw = std::fs::read_to_string(&path).unwrap();
        let snap = jxp_telemetry::TelemetrySnapshot::from_json(&raw).unwrap();
        assert_eq!(snap.metrics.counters["jxp_sim_meetings_total"], 30);
        for format in ["table", "prom", "json"] {
            run(&argv(&format!(
                "metrics --in {} --format {format}",
                path.display()
            )))
            .unwrap();
        }
    }

    #[test]
    fn cluster_metrics_out_writes_the_run_hub() {
        let dir = std::env::temp_dir().join("jxp_cli_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cluster_metrics.json");
        run(&argv(&format!(
            "cluster --peers 3 --meetings 12 --scale 0.01 --transport loopback \
             --metrics-out {}",
            path.display()
        )))
        .unwrap();
        let raw = std::fs::read_to_string(&path).unwrap();
        let snap = jxp_telemetry::TelemetrySnapshot::from_json(&raw).unwrap();
        assert!(snap.metrics.counters["jxp_cluster_rounds_total"] > 0);
        let attempted: u64 = (0..3)
            .map(|i| {
                snap.metrics.counters[&format!("jxp_node_meetings_attempted_total{{node=\"{i}\"}}")]
            })
            .sum();
        assert_eq!(attempted, 12);
    }

    #[test]
    fn unknown_flags_are_refused_naming_flag_and_command() {
        for (line, flag, command) in [
            (
                "cluster --stats-endpoint yes",
                "--stats-endpoint",
                "cluster",
            ),
            ("simulate --meeting 40", "--meeting", "simulate"),
            ("generate --seed 9", "--seed", "generate"),
            ("graph inspect --dir x --out y", "--out", "graph inspect"),
        ] {
            let err = run(&argv(line)).unwrap_err();
            assert_eq!(err, format!("unknown flag {flag} for {command}"));
        }
    }

    #[test]
    fn cluster_state_dir_resume_and_checkpoint_commands() {
        let dir = std::env::temp_dir().join(format!("jxp_cli_state_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cluster = format!(
            "cluster --peers 3 --meetings 12 --scale 0.01 --state-dir {}",
            dir.display()
        );
        run(&argv(&cluster)).unwrap();
        // Rerunning over the same state dir resumes (here: a no-op run).
        run(&argv(&cluster)).unwrap();
        for action in ["inspect", "verify"] {
            run(&argv(&format!(
                "checkpoint {action} --state-dir {}",
                dir.display()
            )))
            .unwrap();
            run(&argv(&format!(
                "checkpoint {action} --state-dir {} --node 0",
                dir.display()
            )))
            .unwrap();
        }
        // Each checkpoint line names its snapshot's version and size.
        let current = std::fs::read(dir.join("node-0").join("current.ckpt")).unwrap();
        let snapshot = jxp_store::decode_checkpoint(&current).unwrap().snapshot;
        let line = commands::describe_checkpoint("current", Some(&current));
        let want = format!(
            "{} bytes; JXPP v2 snapshot of {} bytes)",
            current.len(),
            snapshot.len()
        );
        assert!(line.starts_with("current checkpoint: ok (seq "), "{line}");
        assert!(line.ends_with(&want), "{line}");
        assert_eq!(
            commands::describe_checkpoint("previous", None),
            "previous checkpoint: absent"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_refuses_a_state_dir_of_another_protocol_version() {
        // The protocol-1 and protocol-2 fixtures of crates/store: node-0's
        // seed checkpoint and one journaled meeting.
        let fixtures = [
            (
                1,
                include_bytes!("../../store/tests/fixtures/v1/node-0/current.ckpt").as_slice(),
                include_bytes!("../../store/tests/fixtures/v1/node-0/wal.log").as_slice(),
            ),
            (
                2,
                include_bytes!("../../store/tests/fixtures/v2/node-0/current.ckpt").as_slice(),
                include_bytes!("../../store/tests/fixtures/v2/node-0/wal.log").as_slice(),
            ),
        ];
        for (version, checkpoint, wal) in fixtures {
            let dir = std::env::temp_dir()
                .join(format!("jxp_cli_v{version}_state_{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(dir.join("node-0")).unwrap();
            std::fs::write(dir.join("node-0").join("current.ckpt"), checkpoint).unwrap();
            std::fs::write(dir.join("node-0").join("wal.log"), wal).unwrap();
            let state = dir.display();
            let err = run(&argv(&format!(
                "cluster --peers 3 --meetings 12 --scale 0.01 --state-dir {state}"
            )))
            .unwrap_err();
            let want = format!("node-0: state written by protocol {version}, this build speaks 3");
            assert!(err.ends_with(&want), "{err}");
            // The inspection commands name the same cause.
            let err = run(&argv(&format!("checkpoint verify --state-dir {state}"))).unwrap_err();
            assert!(err.contains("unrecoverable"), "{err}");
            // Without the journal, the fixtures' version-1 snapshot is
            // what is refused, by both version numbers.
            std::fs::remove_file(dir.join("node-0").join("wal.log")).unwrap();
            let err = run(&argv(&format!(
                "cluster --peers 3 --meetings 12 --scale 0.01 --state-dir {state}"
            )))
            .unwrap_err();
            let want =
                "node-0: checkpoint holds a JXPP version 1 snapshot, this build reads version 2";
            assert!(err.ends_with(want), "{err}");
            let line = commands::describe_checkpoint("current", Some(checkpoint));
            assert!(line.contains("; JXPP v1 snapshot of "), "{line}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn generate_inspect_verify_roundtrip_and_corruption_detection() {
        let dir = std::env::temp_dir().join(format!("jxp_cli_graph_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let segs = dir.join("segments");
        run(&argv(&format!(
            "generate --dataset amazon --scale 0.02 --out {} --segment-nodes 128",
            segs.display()
        )))
        .unwrap();
        run(&argv(&format!("graph inspect --dir {}", segs.display()))).unwrap();
        run(&argv(&format!("graph verify --dir {}", segs.display()))).unwrap();
        // Flip one byte in a segment container: verify must now fail,
        // and pagerank refuses the directory before its first sweep.
        let seg0 = segs.join("seg-000000.jxps");
        let mut bytes = std::fs::read(&seg0).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&seg0, &bytes).unwrap();
        assert!(run(&argv(&format!("graph verify --dir {}", segs.display()))).is_err());
        let err = run(&argv(&format!("pagerank --graph {}", segs.display()))).unwrap_err();
        assert!(err.ends_with("segment 0 is corrupt"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn graph_command_rejects_bad_input() {
        assert!(run(&argv("graph")).is_err()); // missing action
        assert!(run(&argv("graph inspect")).is_err()); // missing --dir
        assert!(run(&argv("generate --dataset amazon")).is_err()); // missing --out
        assert!(run(&argv("graph frob --dir /tmp/nope")).is_err());
        assert!(run(&argv("graph inspect --dir /nonexistent/segments")).is_err());
        assert!(run(&argv("graph verify --dir /nonexistent/segments")).is_err());
    }

    #[test]
    fn checkpoint_command_rejects_bad_input() {
        assert!(run(&argv("checkpoint")).is_err()); // missing action
        assert!(run(&argv("checkpoint inspect")).is_err()); // missing --state-dir
        assert!(run(&argv("checkpoint frob --state-dir /tmp/nope")).is_err());
        let empty = std::env::temp_dir().join(format!("jxp_cli_empty_{}", std::process::id()));
        std::fs::create_dir_all(&empty).unwrap();
        assert!(run(&argv(&format!(
            "checkpoint verify --state-dir {}",
            empty.display()
        )))
        .is_err()); // nothing to verify
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn metrics_command_rejects_missing_and_garbage_input() {
        assert!(run(&argv("metrics --format table")).is_err()); // missing --in
        assert!(run(&argv("metrics --in /nonexistent/metrics.json")).is_err());
        let dir = std::env::temp_dir().join("jxp_cli_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("garbage.json");
        std::fs::write(&bad, "not json").unwrap();
        assert!(run(&argv(&format!("metrics --in {}", bad.display()))).is_err());
    }

    #[test]
    fn node_socket_demo_smoke() {
        run(&argv("node --scale 0.01")).unwrap();
    }

    #[test]
    fn cluster_rejects_bad_args() {
        assert!(run(&argv("cluster --peers 1")).is_err());
        assert!(run(&argv("cluster --transport carrier-pigeon")).is_err());
        for gone in ["tcp", "threads"] {
            for command in ["cluster", "serve"] {
                let err = run(&argv(&format!("{command} --transport {gone}"))).unwrap_err();
                assert!(err.contains(r#"["loopback", "reactor"]"#), "{err}");
            }
        }
    }

    #[test]
    fn search_smoke() {
        run(&argv("search --scale 0.01 --queries 4 --meetings 60")).unwrap();
    }

    #[test]
    fn serve_smoke_with_metrics_listener() {
        run(&argv(
            "serve --peers 3 --meetings 40 --scale 0.01 --queries 4 --repeats 2 \
             --metrics-listen 127.0.0.1:0",
        ))
        .unwrap();
    }

    #[test]
    fn serve_writes_bench_json() {
        let dir = std::env::temp_dir().join(format!("jxp_cli_serve_out_{}", std::process::id()));
        let out = dir.join("BENCH_serve.json");
        run(&argv(&format!(
            "serve --peers 3 --meetings 40 --scale 0.01 --queries 4 --repeats 2 --out {}",
            out.display()
        )))
        .unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        for key in [
            "\"qps\":",
            "\"cache_hit_rate\":",
            "\"fused_precision\":",
            "\"fusion_wins\":",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_rejects_bad_args() {
        assert!(run(&argv("serve --peers 1")).is_err());
        assert!(run(&argv("serve --scale 0")).is_err());
        assert!(run(&argv("loadgen --peers 3")).is_err());
    }

    #[test]
    fn bad_values_are_reported() {
        assert!(run(&argv("simulate --scale banana")).is_err());
        assert!(run(&argv("simulate --merge sideways")).is_err());
        assert!(run(&argv("pagerank --top 5")).is_err()); // missing --graph
        assert!(run(&argv("generate --dataset mars")).is_err());
    }
}
