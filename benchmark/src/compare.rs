//! Sets of runs: writing them, summarising one as a baseline, and
//! comparing two by the bounds table.

use crate::json::Json;
use crate::spec::{self, Better, Metric};
use crate::stats;
use std::collections::BTreeMap;

/// `(workload, metric)` → the values of the set's runs, in run order.
type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Values per `(workload, metric)` over the set's runs with `trace`.
fn samples(set: &Json, trace: bool) -> Result<Samples, String> {
    let runs = set
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("set file has no \"runs\" array")?;
    let mut out = Samples::new();
    for run in runs {
        if run.get("trace").and_then(Json::as_f64) != Some(f64::from(u8::from(trace))) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?;
        let metrics = run
            .get("metrics")
            .and_then(Json::members)
            .ok_or("run without metrics")?;
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}/{name} has no numeric value"))?;
            out.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

fn parse_set(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Spread of a set's values; a single run has none.
fn spread(values: &[f64]) -> f64 {
    if values.len() >= 2 {
        stats::spread(values)
    } else {
        0.0
    }
}

/// How one metric moved between two sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// The run-to-run spread of either set is wider than the bound, so
    /// the medians cannot be told apart at that resolution.
    Unresolved,
}

/// Judge `b` against `a` for one metric: the median may worsen by at
/// most `bound` of `a`'s median.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match metric.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > metric.bound {
        Verdict::Regressed
    } else if spread(a) > metric.bound || spread(b) > metric.bound {
        Verdict::Unresolved
    } else if worse_by < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Compare two set files; prints one row per workload and end-to-end
/// metric. `Ok(true)` when nothing regressed and nothing is unresolved.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let a = samples(&parse_set(path_a)?, false)?;
    let b = samples(&parse_set(path_b)?, false)?;
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "change", "spread A", "spread B", "bound"
    );
    let mut clean = true;
    for (workload, _) in spec::WORKLOADS {
        for metric in &spec::END_TO_END {
            let key = (workload.to_string(), metric.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                return Err(format!("{workload}/{} is missing from a set", metric.name));
            };
            let verdict = judge(metric, va, vb);
            clean &= matches!(verdict, Verdict::Unchanged | Verdict::Improved);
            let (ma, mb) = (stats::median(va), stats::median(vb));
            println!(
                "{:<18} {:<14} {:>14.5} {:>14.5} {:>+7.1}% {:>7.1}% {:>7.1}% {:>5.0}%  {:?}",
                workload,
                metric.name,
                ma,
                mb,
                100.0 * (mb - ma) / ma.abs(),
                100.0 * spread(va),
                100.0 * spread(vb),
                100.0 * metric.bound,
                verdict
            );
        }
    }
    Ok(clean)
}

/// Sets summarised per `(workload, metric)`: median, quartiles and
/// sample count beside the metric's unit, direction and bound. The runs
/// of all `paths` are pooled (an untraced and a traced set, say); the
/// host and seed fields are the first set's.
pub fn summarize(paths: &[String]) -> Result<Json, String> {
    let mut sets = paths.iter().map(|p| parse_set(p));
    let mut set = sets.next().ok_or("summarize needs a set file")??;
    for more in sets {
        let more = more?;
        let extra = more
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("set without runs")?;
        match &mut set {
            Json::Obj(members) => match members.iter_mut().find(|(k, _)| k == "runs") {
                Some((_, Json::Arr(runs))) => runs.extend(extra.iter().cloned()),
                _ => return Err("set without runs".to_string()),
            },
            _ => return Err("set file is not an object".to_string()),
        }
    }
    let mut workloads = Vec::new();
    for (workload, why) in spec::WORKLOADS {
        let mut tables = vec![("why".to_string(), Json::str(why))];
        for (label, trace, table) in [
            ("end_to_end", false, &spec::END_TO_END[..]),
            ("per_layer", true, &spec::PER_LAYER[..]),
        ] {
            let values = samples(&set, trace)?;
            let rows = table.iter().filter_map(|m| {
                let v = values.get(&(workload.to_string(), m.name.to_string()))?;
                // A per-layer metric probed on another workload reads 0.
                if trace && v.iter().all(|&x| x == 0.0) {
                    return None;
                }
                let [q1, _, q3] = if v.len() >= 2 {
                    stats::quartiles(v)
                } else {
                    [v[0]; 3]
                };
                let mut row = vec![
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                    ("median", Json::Num(stats::median(v))),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("n", Json::Num(v.len() as f64)),
                ];
                if !trace {
                    row.insert(2, ("bound", Json::Num(m.bound)));
                }
                Some((m.name, Json::obj(row)))
            });
            tables.push((label.to_string(), Json::obj(rows)));
        }
        workloads.push((workload, Json::Obj(tables)));
    }
    let mut doc: Vec<(String, Json)> = ["host_cores", "commit", "seconds", "seeds"]
        .iter()
        .filter_map(|k| set.get(k).map(|v| (k.to_string(), v.clone())))
        .collect();
    doc.push(("workloads".to_string(), Json::obj(workloads)));
    Ok(Json::Obj(doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Metric = Metric {
        name: "t",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: Metric = Metric {
        better: Better::Higher,
        ..LOWER
    };

    #[test]
    fn a_median_within_the_bound_is_unchanged() {
        let a = [1.00, 1.01, 0.99, 1.02];
        assert_eq!(
            judge(&LOWER, &a, &[1.05, 1.06, 1.04, 1.07]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&HIGHER, &a, &[0.95, 0.96, 0.94, 0.97]),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_median_beyond_the_bound_regresses_or_improves_by_direction() {
        let a = [1.00, 1.01, 0.99, 1.02];
        let up = [1.20, 1.21, 1.19, 1.22];
        assert_eq!(judge(&LOWER, &a, &up), Verdict::Regressed);
        assert_eq!(judge(&HIGHER, &a, &up), Verdict::Improved);
        assert_eq!(judge(&LOWER, &up, &a), Verdict::Improved);
        assert_eq!(judge(&HIGHER, &up, &a), Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [0.8, 1.0, 1.2, 0.9, 1.1];
        assert_eq!(
            judge(&LOWER, &noisy, &[1.0, 1.0, 1.0, 1.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&LOWER, &[1.0, 1.0, 1.0, 1.0], &noisy),
            Verdict::Unresolved
        );
        // A clear regression stays a regression even when noisy.
        assert_eq!(
            judge(&LOWER, &[1.0, 1.0, 1.0], &[1.3, 1.6, 1.9]),
            Verdict::Regressed
        );
    }

    #[test]
    fn samples_are_grouped_by_workload_metric_and_trace() {
        let set = Json::parse(
            r#"{"runs": [
                {"workload": "w", "trace": 0, "metrics": {"m": {"value": 1, "unit": "s"}}},
                {"workload": "w", "trace": 1, "metrics": {"l": {"value": 9, "unit": "s"}}},
                {"workload": "w", "trace": 0, "metrics": {"m": {"value": 2, "unit": "s"}}}
            ]}"#,
        )
        .unwrap();
        let plain = samples(&set, false).unwrap();
        assert_eq!(plain[&("w".to_string(), "m".to_string())], [1.0, 2.0]);
        assert_eq!(plain.len(), 1);
        let traced = samples(&set, true).unwrap();
        assert_eq!(traced[&("w".to_string(), "l".to_string())], [9.0]);
    }
}
