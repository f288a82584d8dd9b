//! The JXP benchmark: accuracy per unit cost, end to end and layer by
//! layer. See README.md beside this crate's manifest.
//!
//! ```text
//! jxp-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//!                   [--runs R] [--quick] [--out FILE]
//! jxp-benchmark compare A.json B.json
//! jxp-benchmark summarize SET.json [SET.json ...]
//! jxp-benchmark spec
//! ```

mod compare;
mod dataset;
mod harness;
mod json;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  jxp-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--runs R] [--quick] [--out FILE]
      one workload, one run: measure in this process and print the result line last;
      otherwise: each run in a fresh child process, seeds S..S+R-1, results to FILE
  jxp-benchmark compare A.json B.json   judge set B against set A by the bounds table
  jxp-benchmark summarize SET.json...   medians, quartiles and counts of the pooled sets
  jxp-benchmark spec                    print BENCHMARK.json";

struct RunArgs {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    quick: bool,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut seconds = None;
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: 0.0,
        trace: false,
        runs: 1,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                let known = spec::WORKLOADS.iter().map(|w| w.0).find(|n| n == value);
                parsed.workload = Some(known.ok_or_else(|| format!("unknown workload '{value}'"))?);
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let given: f64 = value.parse().map_err(|_| bad())?;
                if !(given > 0.0 && given <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(given);
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => {
                parsed.runs = value.parse().map_err(|_| bad())?;
                if parsed.runs == 0 {
                    return Err(bad());
                }
            }
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    // A quick run checks the schema and the outputs, not the numbers.
    let default = if parsed.quick {
        1.0
    } else {
        f64::from(spec::RUN_SECONDS)
    };
    parsed.seconds = seconds.unwrap_or(default);
    Ok(parsed)
}

/// One workload, measured in this process.
fn run_here(workload: &'static str, args: &RunArgs) -> bool {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        println!("# warning: {cores} core; the 2-thread workloads measure timeslicing here");
    }
    let mut ctx = harness::Ctx::new(workload, args.seed, args.seconds, args.trace, args.quick);
    assert!(
        workloads::run(workload, &mut ctx),
        "no workload called {workload}"
    );
    ctx.finish()
}

/// Every requested run in a child process of its own, so that peak
/// memory is per run; returns whether all were correct.
fn run_children(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let names: Vec<&str> = match args.workload {
        Some(name) => vec![name],
        None => spec::WORKLOADS.iter().map(|w| w.0).collect(),
    };
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in names {
        for seed in args.seed..args.seed + args.runs {
            let mut child = Command::new(&exe);
            child
                .args(["run", "--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::piped());
            if args.quick {
                child.arg("--quick");
            }
            let output = child
                .output()
                .map_err(|e| format!("start {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let result = stdout
                .lines()
                .last()
                .and_then(|line| Json::parse(line).ok())
                .filter(|r| r.get("metrics").is_some())
                .ok_or_else(|| format!("{workload} seed {seed} printed no result line"))?;
            let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
            all_correct &= correct && output.status.success();
            let mut run = vec![
                ("workload".to_string(), Json::str(workload)),
                ("seed".to_string(), Json::Num(seed as f64)),
                (
                    "trace".to_string(),
                    Json::Num(f64::from(u8::from(args.trace))),
                ),
            ];
            run.extend(
                result
                    .members()
                    .expect("result is an object")
                    .iter()
                    .cloned(),
            );
            runs.push(Json::Obj(run));
        }
    }
    if let Some(path) = &args.out {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let set = Json::obj([
            ("host_cores", Json::Num(cores as f64)),
            ("commit", Json::str(commit())),
            ("seconds", Json::Num(args.seconds)),
            (
                "seeds",
                Json::Arr(
                    (args.seed..args.seed + args.runs)
                        .map(|s| Json::Num(s as f64))
                        .collect(),
                ),
            ),
            ("runs", Json::Arr(runs)),
        ]);
        harness::write_file(std::path::Path::new(path), &set.render_pretty());
        println!("# set written to {path}");
    }
    Ok(all_correct)
}

/// The checkout's commit, when it is a git repository.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let rest = args.get(1..).unwrap_or(&[]);
    match args.first().map(String::as_str) {
        Some("run") => {
            let run = parse_run_args(rest)?;
            match run.workload {
                Some(workload) if run.runs == 1 && run.out.is_none() => {
                    Ok(run_here(workload, &run))
                }
                _ => run_children(&run),
            }
        }
        Some("compare") => match rest {
            [a, b] => compare::compare(a, b),
            _ => Err("compare takes two set files".to_string()),
        },
        Some("summarize") => {
            print!("{}", compare::summarize(rest)?.render_pretty());
            Ok(true)
        }
        Some("spec") => {
            print!("{}", spec::benchmark_json().render_pretty());
            Ok(true)
        }
        _ => Err("expected run, compare, summarize or spec".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
