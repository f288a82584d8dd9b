//! One run of one workload: repeated set-up, the measured repetitions,
//! output checks, and the result line.
//!
//! A workload is a fixed amount of work (a *unit*) built from the seed.
//! The unit is repeated, identically, until the measuring time is used
//! up; a timing is the median over the repetitions and every count must
//! be the same in each of them.

use crate::json::Json;
use crate::spec::{self, Metric};
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// An untraced run sets up at least this often, and again while the
/// set-ups so far took less than `SETUP_FILL_SECS` together, up to
/// `SETUP_MAX_REPS` times; `setup_s` is the median. A 10 ms set-up is
/// slowed for 100-200 ms at a time by whatever else the host does, so
/// its median is steady only over a second's worth of samples.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 100;
const SETUP_FILL_SECS: f64 = 1.0;
/// The unit runs at least this often, however short the measuring time.
const MIN_REPS: u64 = 2;
/// A traced run measures for this share of `--seconds` (alternating
/// traced and untraced repetitions); the layer probes use the rest.
const TRACED_MEASURE_SHARE: f64 = 0.5;

/// What one repetition of a workload's unit did.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Seconds spent inside the timed calls.
    pub secs: f64,
    /// Operations completed (meetings, queries, or edges swept).
    pub ops: u64,
    /// Bytes moved for them (wire bytes, or bytes read from segments).
    pub bytes: u64,
    /// Footrule distance to the exact centralized ranking at the end.
    pub footrule: f64,
    /// FNV-1a over every final score's bits.
    pub hash: u64,
    /// Operations attempted and failed, output checks included.
    pub attempted: u64,
    pub failed: u64,
    /// Further counts that must repeat exactly.
    pub counts: Vec<(&'static str, u64)>,
}

/// The repetitions of a unit, summarised.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Variant 0's first repetition (every other repetition of a variant
    /// agreed with its first, or a check failed).
    pub unit: Unit,
    /// Ops and bytes of one pass over the variants.
    pub ops: u64,
    pub bytes: u64,
    /// The worst footrule any variant ended at.
    pub footrule: f64,
    /// Seconds of one pass over the variants: per variant the median of
    /// its untraced repetitions, summed.
    pub secs: f64,
    /// CPU seconds (all threads, user + system) per repetition, untimed
    /// preparation and sampling included.
    pub cpu_secs: f64,
    pub reps: usize,
}

/// State of one run.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tracer: Tracer,
    /// A fresh directory for files the workload writes; removed at the end.
    pub scratch: PathBuf,
    out_dir: PathBuf,
    single_setup: bool,
    setup_samples: Vec<f64>,
    summary: Option<Summary>,
    traced_secs: Option<f64>,
    attempted: u64,
    failed: u64,
    failed_checks: Vec<String>,
    layer: BTreeMap<&'static str, f64>,
}

/// Directory for the benchmark's own files: beside the executable, so it
/// lies in the build directory of whichever checkout is being measured.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    exe.parent()
        .expect("executable has a directory")
        .join("jxp-benchmark-out")
}

impl Ctx {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, trace: bool, quick: bool) -> Ctx {
        let out_dir = out_dir();
        let scratch = out_dir.join(format!("scratch-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).expect("create scratch directory");
        Ctx {
            workload,
            seed,
            seconds,
            trace,
            tracer: Tracer::new(trace),
            scratch,
            out_dir,
            single_setup: trace || quick,
            setup_samples: Vec::new(),
            summary: None,
            traced_secs: None,
            attempted: 0,
            failed: 0,
            failed_checks: Vec::new(),
            layer: BTreeMap::new(),
        }
    }

    /// Build the workload's inputs, several times; the median time is
    /// `setup_s`. Returns the last build.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&Tracer) -> T) -> T {
        loop {
            let start = Instant::now();
            let built = build(&self.tracer);
            self.setup_samples.push(start.elapsed().as_secs_f64());
            let reps = self.setup_samples.len();
            let filled = self.setup_samples.iter().sum::<f64>() >= SETUP_FILL_SECS;
            if self.single_setup || reps >= SETUP_MAX_REPS || (reps >= SETUP_MIN_REPS && filled) {
                return built;
            }
        }
    }

    /// Repeat the unit until the measuring time is used up.
    ///
    /// The unit comes in `variants` versions that differ only in the
    /// sub-seed (see [`Ctx::variant_seed`]); repetition `r` runs variant
    /// `r % variants`, and every variant runs at least once. Cost per
    /// schedule differs from seed to seed by more than hosts differ from
    /// run to run; summing over a few schedules per run brings the
    /// seed-to-seed spread down to where a bound can be set. A traced
    /// run uses variant 0 alone: one untimed warm-up repetition, then
    /// spans are recorded in every second one, which gives the tracing
    /// overhead from one process.
    pub fn measure(
        &mut self,
        variants: u64,
        mut unit: impl FnMut(&Tracer, u64, u64) -> Unit,
    ) -> Summary {
        let variants = if self.trace { 1 } else { variants };
        // Traced: a warm-up, then two with spans and two without.
        let min_reps = if self.trace {
            5
        } else {
            variants.max(MIN_REPS)
        };
        let window = if self.trace {
            self.seconds * TRACED_MEASURE_SHARE
        } else {
            self.seconds
        };
        let start = Instant::now();
        let cpu_start = process_cpu_secs();
        let mut by_variant: Vec<Vec<Unit>> = vec![Vec::new(); variants as usize];
        let mut plain: Vec<Vec<f64>> = vec![Vec::new(); variants as usize];
        let mut traced = Vec::new();
        let mut reps = 0u64;
        while reps < min_reps || start.elapsed().as_secs_f64() < window {
            let variant = reps % variants;
            let record = self.trace && reps % 2 == 1;
            self.tracer.set_enabled(record);
            let done = unit(&self.tracer, reps, variant);
            if record {
                traced.push(done.secs);
            } else if !(self.trace && reps == 0) {
                plain[variant as usize].push(done.secs);
            }
            by_variant[variant as usize].push(done);
            reps += 1;
        }
        self.tracer.set_enabled(self.trace);
        let cpu_secs = (process_cpu_secs() - cpu_start) / reps as f64;

        let repeatable = by_variant.iter().all(|units| {
            let exact: Vec<_> = units
                .iter()
                .map(|u| (u.ops, u.bytes, u.footrule.to_bits(), u.hash, &u.counts))
                .collect();
            stats::counts_repeat(&exact)
        });
        self.check(
            "every repetition of a variant gives the same counts and scores",
            repeatable,
        );
        for u in by_variant.iter().flatten() {
            self.attempted += u.attempted;
            self.failed += u.failed;
        }
        let firsts = || by_variant.iter().map(|units| &units[0]);
        let summary = Summary {
            ops: firsts().map(|u| u.ops).sum(),
            bytes: firsts().map(|u| u.bytes).sum(),
            footrule: firsts()
                .map(|u| u.footrule)
                .fold(f64::NEG_INFINITY, f64::max),
            secs: plain.iter().map(|secs| stats::median(secs)).sum(),
            cpu_secs,
            reps: reps as usize,
            unit: by_variant[0][0].clone(),
        };
        if !traced.is_empty() {
            self.traced_secs = Some(stats::median(&traced));
        }
        self.summary = Some(summary.clone());
        summary
    }

    /// The seed of variant `variant` of this run's unit.
    pub fn variant_seed(seed: u64, variant: u64) -> u64 {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(variant)
    }

    /// Count one output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failed_checks.push(what.to_string());
        }
    }

    /// Report a per-layer metric.
    ///
    /// # Panics
    /// Panics if `name` is not in [`spec::PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::find(&spec::PER_LAYER, name).is_some(),
            "{name} is not a per-layer metric"
        );
        self.layer.insert(name, value);
    }

    /// Summed duration, in seconds, of the spans called `name`.
    pub fn span_secs(&self, name: &str) -> f64 {
        let spans = self.tracer.spans();
        let ns: u64 = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns())
            .sum();
        ns as f64 / 1e9
    }

    /// Time `f` inside a span, in seconds.
    pub fn timed_span<R>(&self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let result = self.tracer.span(name, id, f);
        (result, start.elapsed().as_secs_f64())
    }

    /// Print every metric with its unit, then the result line; remove
    /// the scratch directory. Returns whether every check passed.
    pub fn finish(mut self) -> bool {
        let summary = self.summary.take().expect("the workload measured its unit");
        let metrics: Vec<(&Metric, f64)> = if self.trace {
            self.finish_trace(&summary);
            spec::PER_LAYER
                .iter()
                .map(|m| (m, self.layer.get(m.name).copied().unwrap_or(0.0)))
                .collect()
        } else {
            let values = [
                stats::median(&self.setup_samples),
                summary.ops as f64 / summary.secs,
                summary.cpu_secs,
                summary.bytes as f64 / summary.ops as f64,
                peak_rss_mb(),
            ];
            spec::END_TO_END.iter().zip(values).collect()
        };

        println!(
            "# {} seed {} trace {}: {} repetitions, {} ops in {:.4} s per pass, {} set-ups",
            self.workload,
            self.seed,
            u8::from(self.trace),
            summary.reps,
            summary.ops,
            summary.secs,
            self.setup_samples.len(),
        );
        for (m, value) in &metrics {
            println!(
                "{:<18} {:<34} {:>20.6} {}",
                self.workload, m.name, value, m.unit
            );
        }
        for what in &self.failed_checks {
            println!("FAILED CHECK: {what}");
        }
        let _ = std::fs::remove_dir_all(&self.scratch);

        let correct = self.failed == 0 && metrics.iter().all(|(_, v)| v.is_finite());
        let line = Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(metrics.iter().map(|(m, value)| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ]);
        println!("{}", line.render());
        correct
    }

    fn finish_trace(&mut self, summary: &Summary) {
        if summary.footrule.is_finite() {
            self.layer("core.final_footrule", summary.footrule);
        }
        if let Some(traced) = self.traced_secs {
            self.layer("trace_overhead_ratio", traced / summary.secs);
        }
        let by_layer = stats::self_time_by_layer(&self.tracer.spans());
        for layer in spec::LAYERS {
            let metric = spec::find(&spec::PER_LAYER, &format!("{layer}.self_s"))
                .expect("every layer has a self-time metric");
            let ns = by_layer.get(layer).copied().unwrap_or(0);
            self.layer.insert(metric.name, ns as f64 / 1e9);
        }
        let spans = self.tracer.spans().len();
        self.layer("trace_spans", spans as f64);
        let path = self.out_dir.join("trace.json");
        write_file(&path, &self.tracer.to_json().render());
        println!("# {spans} spans written to {}", path.display());
    }
}

/// Write `text` to `path`, creating the directory.
///
/// # Panics
/// Panics when the file cannot be written: a result nobody can read is
/// a failed run.
pub fn write_file(path: &Path, text: &str) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds this process has used, all threads (ended ones too),
/// user + system, from `/proc/self/stat`. Its clock ticks are `USER_HZ`,
/// which Linux fixes at 100 for every architecture.
pub fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let after_name = stat.rsplit(')').next().unwrap_or("");
    let ticks: Vec<f64> = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    if ticks.len() == 2 {
        (ticks[0] + ticks[1]) / 100.0
    } else {
        f64::NAN
    }
}

/// Median of `samples` scaled by `scale` (seconds to µs or ms).
pub fn p50(samples: &[f64], scale: f64) -> f64 {
    stats::median(samples) * scale
}

/// 99th percentile of `samples` scaled by `scale`.
///
/// # Panics
/// Panics when fewer than ten samples would lie beyond it.
pub fn p99(samples: &[f64], scale: f64) -> f64 {
    assert!(
        stats::tail_quantile(samples.len()) >= Some(0.99),
        "{} samples do not support a 99th percentile",
        samples.len()
    );
    stats::percentile_of(samples, 0.99) * scale
}

/// Time each call of `f` over `0..n`, in seconds.
pub fn time_each(n: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let start = Instant::now();
            f(i);
            start.elapsed().as_secs_f64()
        })
        .collect()
}
