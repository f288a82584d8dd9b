//! Every metric a run registers has a row in the metrics catalog of
//! DESIGN.md §10. Two runs record into a hub each: a reactor cluster with
//! pre-meetings and a state directory, and a 2-thread parallel simulation.

use jxp::core::JxpConfig;
use jxp::p2pnet::{Network, NetworkConfig};
use jxp::webgraph::{PageId, Subgraph};
use jxp_node::{run_cluster, ClusterConfig, TransportKind};
use jxp_telemetry::TelemetryHub;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The metric names in the catalog table.
fn catalog() -> BTreeSet<String> {
    let design = include_str!("../DESIGN.md");
    let start = design
        .find("### Metrics catalog")
        .expect("DESIGN.md has a metrics catalog");
    design[start..]
        .lines()
        .skip(1)
        .take_while(|line| !line.starts_with('#'))
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .map(String::from)
        .collect()
}

/// Label-stripped names of every metric in `hub`.
fn names(hub: &TelemetryHub) -> BTreeSet<String> {
    let m = hub.snapshot().metrics;
    m.counters
        .keys()
        .chain(m.gauges.keys())
        .chain(m.histograms.keys())
        .map(|name| name.split('{').next().unwrap_or(name).to_string())
        .collect()
}

/// A ring of `nodes * per` pages, `per` consecutive pages a fragment.
fn ring(nodes: u32, per: u32) -> (Vec<Subgraph>, u64) {
    let total = nodes * per;
    let fragments = (0..nodes)
        .map(|i| {
            Subgraph::from_adjacency(
                (i * per..(i + 1) * per)
                    .map(|p| (PageId(p), vec![PageId((p + 1) % total)]))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    (fragments, u64::from(total))
}

#[test]
fn every_registered_metric_has_a_catalog_row() {
    let (fragments, n_total) = ring(4, 6);
    let truth = vec![1.0 / n_total as f64; n_total as usize];

    let cluster_hub = TelemetryHub::shared();
    let dir = std::env::temp_dir().join(format!("jxp-metrics-catalog-{}", std::process::id()));
    let config = ClusterConfig {
        meetings: 24,
        transport: TransportKind::Reactor,
        premeetings: true,
        state_dir: Some(dir.clone()),
        hub: Some(Arc::clone(&cluster_hub)),
        ..ClusterConfig::default()
    };
    let report = run_cluster(
        fragments.clone(),
        n_total,
        JxpConfig::default(),
        &config,
        Some(&truth),
    );
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(report.meetings_completed, 24);

    let sim_hub = TelemetryHub::shared();
    let mut net = Network::new(
        fragments,
        n_total,
        NetworkConfig {
            threads: 2,
            ..NetworkConfig::default()
        },
        7,
    );
    net.attach_telemetry(Arc::clone(&sim_hub));
    net.attach_convergence_truth(&truth);
    net.run_parallel(24);

    let catalog = catalog();
    for (run, hub, witness) in [
        ("cluster", &cluster_hub, "jxp_store_wal_records_total"),
        ("sim", &sim_hub, "jxp_sim_pool_steals"),
    ] {
        let names = names(hub);
        assert!(names.contains(witness), "{run} recorded no {witness}");
        let missing: Vec<&String> = names.difference(&catalog).collect();
        assert!(
            missing.is_empty(),
            "{run} registers metrics with no catalog row: {missing:?}"
        );
    }
}
