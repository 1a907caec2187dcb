//! What every workload shares: the run context, the outcome of one
//! repetition, and the loop that repeats a workload for `--seconds`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use nmo::{AnalysisReport, LatencyProfile, Profile, RegionProfile};

use crate::host;
use crate::json::Json;
use crate::spans::Tracer;
use crate::spec::{self, Sizes};
use crate::stats::Summary;

pub struct Ctx {
    pub sizes: Sizes,
    pub seed: u64,
    pub tracer: Arc<Tracer>,
    /// Where temp trace directories and result files go (`benchmark/out`).
    pub out_dir: PathBuf,
}

/// One timed repetition of a workload.
#[derive(Debug, Default)]
pub struct RepOutcome {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Host seconds from session start to `finish` returning.
    pub session_s: f64,
    /// Samples the live session delivered to its sinks.
    pub live_delivered: u64,
    /// Paper Eq. 1 on this repetition (see README: on the synthetic
    /// workloads the true count is the number of records emitted).
    pub accuracy: f64,
    /// Operations attempted / delivered, over the live run and every replay.
    pub attempted: u64,
    pub delivered: u64,
    /// Output checks that failed, as messages.
    pub failures: Vec<String>,
    /// Per-layer values this repetition measured.
    pub layer: Vec<(&'static str, f64)>,
}

impl RepOutcome {
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(message());
        }
    }

    /// Operations that count as failed: the undelivered ones, or all of
    /// them when an output check failed.
    pub fn failed(&self) -> u64 {
        if self.failures.is_empty() {
            self.attempted.saturating_sub(self.delivered)
        } else {
            self.attempted
        }
    }
}

/// Times a region of the harness: wall and process-CPU seconds.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch { wall: Instant::now(), cpu: host::process_cpu_seconds() }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn cpu_s(&self) -> f64 {
        host::process_cpu_seconds() - self.cpu
    }
}

/// Milliseconds a closure took, and its result.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let value = f();
    (started.elapsed().as_secs_f64() * 1e3, value)
}

/// The latency report a session (or replay) produced.
pub fn latency_report(profile: &Profile) -> Option<&LatencyProfile> {
    profile.analyses.iter().find_map(|r| match &r.report {
        AnalysisReport::Latency(l) => Some(l),
        _ => None,
    })
}

pub fn region_report(profile: &Profile) -> Option<&RegionProfile> {
    profile.analyses.iter().find_map(|r| match &r.report {
        AnalysisReport::Regions(l) => Some(l),
        _ => None,
    })
}

/// A directory removed when the guard drops — after each repetition, also
/// when a check fails or the repetition panics.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(parent: &Path, label: &str) -> std::io::Result<TempDir> {
        // Unique per process and per call: unit tests share one process.
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let serial = NEXT.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let dir = parent.join("tmp").join(format!("{label}-{}-{serial}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once the last temp dir is gone.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub setup_s: Vec<f64>,
    pub reps: Vec<RepOutcome>,
    /// Per-layer values by metric name; each metric reports the median of
    /// its values.
    pub layer: BTreeMap<&'static str, Vec<f64>>,
}

impl RunResult {
    pub fn add_layer(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in values {
            self.layer.entry(name).or_default().push(value);
        }
    }
}

/// Repeat `rep` until `seconds` of measuring have passed (at least once).
/// The loop stops early rather than start a repetition that would end more
/// than half its length past the budget.
pub fn repeat_for(seconds: f64, mut rep: impl FnMut(u64) -> RepOutcome) -> Vec<RepOutcome> {
    let started = Instant::now();
    let mut reps = Vec::new();
    loop {
        let rep_started = Instant::now();
        reps.push(rep(reps.len() as u64));
        let last = rep_started.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + last / 2.0 >= seconds {
            return reps;
        }
    }
}

/// The directory that holds `BENCHMARK.json` and `benchmark/`: the working
/// directory when that is the checkout root (how the driver and the README
/// run the program), else the parent of the manifest this binary was built
/// from.
pub fn checkout_root() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from(".")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }
}

/// `benchmark/out`, where result files and temp trace directories go.
pub fn out_dir() -> PathBuf {
    checkout_root().join("benchmark/out")
}

pub fn print_metric_header() {
    println!(
        "{:<44} {:>12} {:>16} {:>16} {:>16} {:>16} {:>4}",
        "metric", "unit", "value", "median", "q1", "q3", "n"
    );
}

/// `value` is what the row's metric reports (`spec::reported` of a run's
/// repetitions, or the median over several runs).
pub fn print_metric_row(name: &str, value: f64, s: &Summary) {
    let unit = spec::unit_of(name);
    println!(
        "{name:<44} {unit:>12} {value:>16.6} {:>16.6} {:>16.6} {:>16.6} {:>4}",
        s.median, s.q1, s.q3, s.n
    );
}

/// One metric of a result file: unit, reported value, summary, and under
/// `values_key` the values the summary was taken over.
pub fn metric_json(name: &str, value: f64, s: &Summary, values_key: &str, values: &[f64]) -> Json {
    Json::obj([
        ("unit", Json::str(spec::unit_of(name))),
        ("value", Json::Num(value)),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("n", Json::Num(s.n as f64)),
        (values_key, Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())),
    ])
}

/// The summary [`metric_json`] wrote.
pub fn summary_from_json(metric: &Json) -> Option<Summary> {
    let field = |f: &str| metric.get(f).and_then(Json::as_f64);
    Some(Summary {
        median: field("median")?,
        q1: field("q1")?,
        q3: field("q3")?,
        n: field("n")? as usize,
    })
}
