//! `nmo-benchmark` — measures the NMO profiler end to end and layer by
//! layer through the real `ProfileSession` spine. See `../../../README.md`.
//!
//! ```text
//! nmo-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload, in this process
//! nmo-benchmark [--seed N] [--seconds S] [--trace] [--smoke] [--runs K]   every workload, one child each
//! nmo-benchmark compare A.json B.json                              two suite files against the bounds
//! ```

mod compare;
mod host;
mod json;
mod loadgen;
mod micro;
mod pipe;
mod run;
mod sim;
mod spans;
mod spec;
mod stats;
mod suite;

use std::sync::Arc;
use std::time::Instant;

use json::Json;
use run::{out_dir, repeat_for, Ctx, RepOutcome, RunResult};
use spans::Tracer;
use spec::{Sizes, Workload};
use stats::Summary;

/// Seconds one run measures when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 30.0;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub runs: usize,
}

const USAGE: &str = "usage: nmo-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--smoke] [--runs K]\n       nmo-benchmark compare A.json B.json";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        runs: 1,
    };
    let mut seconds_given = false;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut value = |name: &str| -> Result<&String, String> {
            i += 1;
            args.get(i).ok_or_else(|| format!("{name} needs a value"))
        };
        match arg {
            "--workload" => {
                let name = value("--workload")?;
                opts.workload = Some(Workload::parse(name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{name}' (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                let v = value("--seed")?;
                opts.seed =
                    v.parse().map_err(|_| format!("--seed: '{v}' is not a whole number"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                opts.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: '{v}' is not a duration"))?;
                seconds_given = true;
            }
            "--runs" => {
                let v = value("--runs")?;
                opts.runs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|r| (1..=100).contains(r))
                    .ok_or_else(|| format!("--runs: '{v}' is not in 1..=100"))?;
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                opts.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if opts.smoke && !seconds_given {
        // One repetition.
        opts.seconds = 0.0;
    }
    Ok(opts)
}

fn main() {
    host::pin_malloc_thresholds();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        match args.as_slice() {
            [_, a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => {
                eprintln!("{USAGE}");
                2
            }
        }
    } else {
        match parse_args(&args) {
            Ok(opts) if opts.workload.is_some() => run_worker(&opts),
            Ok(opts) => suite::run(&opts),
            Err(e) => {
                eprintln!("nmo-benchmark: {e}\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}

/// Seconds of measuring between two set-ups of an untraced run.
const SET_UP_EVERY_S: f64 = 2.5;

/// A synthetic workload's input before its first set-up and between two.
fn no_input(spec: loadgen::LoadSpec) -> Arc<loadgen::Generated> {
    Arc::new(loadgen::Generated { spec, per_core: Vec::new() })
}

/// One workload's prepared state, behind one interface for the run loop.
enum Bench {
    Sim {
        kind: sim::SimKind,
        size: sim::SimSize,
        small: sim::SimSize,
        /// Simulated statistics of the first repetition (see `sim::rep`).
        first: Box<Option<(sim::SimSize, sim::SimStats)>>,
    },
    Pipe {
        kind: pipe::PipeKind,
        data: Arc<loadgen::Generated>,
    },
}

impl Bench {
    /// The workload, with nothing set up yet.
    fn new(workload: Workload, sizes: &Sizes) -> Bench {
        let sim = |kind, size, small| Bench::Sim { kind, size, small, first: Box::new(None) };
        let pipe = |kind, spec| Bench::Pipe { kind, data: no_input(spec) };
        match workload {
            Workload::SimPagerankP4096 => {
                sim(sim::SimKind::PagerankP4096, sizes.pagerank, sizes.pagerank_small)
            }
            Workload::SimStreamP64Live => {
                sim(sim::SimKind::StreamP64Live, sizes.stream, sizes.stream_small)
            }
            Workload::Pipe128cSerial => pipe(pipe::SERIAL, sizes.pipe),
            Workload::TraceRw128c => pipe(pipe::TRACE_RW, sizes.trace),
        }
    }

    /// Set the workload up, for the first time or again; returns the
    /// seconds it took.
    fn set_up(&mut self, ctx: &Ctx) -> f64 {
        let started = Instant::now();
        match self {
            Bench::Sim { kind, size, small, .. } => sim::setup(*kind, *size, *small, ctx),
            Bench::Pipe { kind, data } => {
                let spec = data.spec;
                // Drop the previous input first, so peak memory is that of
                // one set-up.
                *data = no_input(spec);
                *data = pipe::setup(*kind, spec, ctx);
            }
        }
        started.elapsed().as_secs_f64()
    }

    /// One full-size repetition.
    fn rep(&mut self, ctx: &Ctx, mode: pipe::RepMode) -> RepOutcome {
        match self {
            Bench::Sim { kind, size, first, .. } => sim::rep(*kind, *size, ctx, first),
            Bench::Pipe { kind, data } => pipe::rep(*kind, data, data.spec.passes, ctx, mode),
        }
    }

    /// One short repetition (for the lock checker, which is slow).
    fn short_rep(&mut self, ctx: &Ctx) -> RepOutcome {
        match self {
            Bench::Sim { kind, small, first, .. } => sim::rep(*kind, *small, ctx, first),
            Bench::Pipe { kind, data } => {
                let passes = ctx.sizes.short_passes.min(data.spec.passes);
                pipe::rep(*kind, data, passes, ctx, pipe::RepMode::default())
            }
        }
    }
}

/// Run one workload in this process and print its result; the last line of
/// standard output is the driver's JSON object. Returns the exit code.
fn run_worker(opts: &Options) -> i32 {
    let workload = opts.workload.expect("run_worker needs a workload");
    let sizes: Sizes = if opts.smoke { spec::SMOKE } else { spec::FULL };
    let tracer = Arc::new(Tracer::new(false));
    let ctx = Ctx { sizes, seed: opts.seed, tracer: tracer.clone(), out_dir: out_dir() };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("nmo-benchmark: cannot create {}: {e}", ctx.out_dir.display());
        return 1;
    }

    let mut result = RunResult::default();
    let mut bench = Bench::new(workload, &sizes);
    result.setup_s.push(bench.set_up(&ctx));

    let mut traced_reps = Vec::new();
    if opts.trace {
        traced_run(&mut bench, workload, opts, &ctx, &mut result, &mut traced_reps);
    } else {
        // Set-ups recur through the run instead of all coming first: one
        // slow burst of the host then cannot cover every one of them.
        let setup_s = &mut result.setup_s;
        let mut last_set_up = Instant::now();
        result.reps = repeat_for(opts.seconds, |_| {
            if last_set_up.elapsed().as_secs_f64() >= SET_UP_EVERY_S {
                setup_s.push(bench.set_up(&ctx));
                last_set_up = Instant::now();
            }
            bench.rep(&ctx, pipe::RepMode::default())
        });
    }
    drop(bench);

    // -- assemble ------------------------------------------------------------
    let all_reps = || result.reps.iter().chain(traced_reps.iter());
    let attempted: u64 = all_reps().map(|r| r.attempted).sum::<u64>().max(1);
    let failed: u64 = all_reps().map(|r| r.failed()).sum();
    let failures: Vec<String> = all_reps().flat_map(|r| r.failures.iter().cloned()).collect();
    let correct = failures.is_empty();

    // Each metric with the values it was sampled at; `spec::reported` picks
    // the one it reports.
    let of = |f: fn(&RepOutcome) -> f64| result.reps.iter().map(f).collect::<Vec<f64>>();
    let sampled: Vec<(&'static str, Vec<f64>)> = if opts.trace {
        result.add_layer([("failed_frac", failed as f64 / attempted as f64)]);
        spec::PER_LAYER
            .iter()
            .map(|(name, _)| (*name, result.layer.get(name).cloned().unwrap_or_else(|| vec![0.0])))
            .collect()
    } else {
        vec![
            ("setup_s", result.setup_s.clone()),
            ("wall_s", of(|r| r.wall_s)),
            ("cpu_s", of(|r| r.cpu_s)),
            ("peak_rss_mib", vec![host::peak_rss_mib()]),
            ("pipe_msamples_per_s", of(|r| r.live_delivered as f64 / r.session_s.max(1e-9) / 1e6)),
            ("sample_accuracy", of(|r| r.accuracy)),
        ]
    };
    let metrics: Vec<(&'static str, f64, Summary)> = sampled
        .iter()
        .map(|(name, values)| (*name, spec::reported(name, values), Summary::of(values)))
        .collect();

    // -- print ---------------------------------------------------------------
    println!(
        "workload {} | seed {}{} | {} repetition(s) | host_parallelism {} | {}",
        workload.name(),
        opts.seed,
        if workload.seeded() { "" } else { " (unused: this workload's input has a fixed seed)" },
        result.reps.len(),
        host::host_parallelism(),
        if opts.trace {
            "traced run: per-layer metrics"
        } else {
            "untraced run: end-to-end metrics"
        },
    );
    run::print_metric_header();
    for (name, value, s) in &metrics {
        run::print_metric_row(name, *value, s);
    }
    println!("attempted {attempted} | failed {failed} | correct {correct}");
    for failure in &failures {
        println!("CHECK FAILED: {failure}");
    }

    let spans = tracer.spans();
    let metrics_json =
        Json::obj(metrics.iter().zip(&sampled).map(|((name, value, s), (_, values))| {
            (*name, run::metric_json(name, *value, s, "values", values))
        }));
    let detail = Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seed_used", Json::Bool(workload.seeded())),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("smoke", Json::Bool(opts.smoke)),
        ("host_parallelism", Json::Num(host::host_parallelism() as f64)),
        ("repetitions", Json::Num(result.reps.len() as f64)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("failures", Json::Arr(failures.iter().map(Json::str).collect())),
        ("metrics", metrics_json),
    ]);
    let flag = u8::from(opts.trace);
    let detail_path = ctx.out_dir.join(format!("result-{}-trace{flag}.json", workload.name()));
    if let Err(e) = std::fs::write(&detail_path, detail.pretty()) {
        eprintln!("nmo-benchmark: cannot write {}: {e}", detail_path.display());
    }
    if opts.trace {
        println!("{:<28} {:>8} {:>14} {:>14}", "span", "count", "total_ms", "self_ms");
        for (name, count, total_ms, self_ms) in spans::by_name(&spans) {
            println!("{name:<28} {count:>8} {total_ms:>14.3} {self_ms:>14.3}");
        }
        let trace_path = ctx.out_dir.join(format!("trace-{}.json", workload.name()));
        match std::fs::write(&trace_path, spans::chrome_trace(&spans, detail).render()) {
            Ok(()) => println!("{} spans written to {}", spans.len(), trace_path.display()),
            Err(e) => eprintln!("nmo-benchmark: cannot write {}: {e}", trace_path.display()),
        }
    }

    // The driver's line: exactly these keys, every metric with all its digits.
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, value, _)| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(spec::unit_of(name))),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", line.render());
    i32::from(!correct)
}

/// The traced run: untraced and traced repetitions alternate (their ratio
/// prices the tracing), then the extra repetitions and the microbenchmarks
/// that only the per-layer table needs. `result.reps` receives the untraced
/// repetitions, `traced` the traced ones.
fn traced_run(
    bench: &mut Bench,
    workload: Workload,
    opts: &Options,
    ctx: &Ctx,
    result: &mut RunResult,
    traced: &mut Vec<RepOutcome>,
) {
    let tracer = &ctx.tracer;
    // Most of the budget goes to the alternating repetitions; the rest
    // covers the extras below, so a traced run takes no longer than an
    // untraced one.
    let mut rep_index = 0u64;
    let mut pairs = repeat_for(opts.seconds * 0.7, |_| {
        let plain = bench.rep(ctx, pipe::RepMode::default());
        tracer.set_enabled(true);
        let with_spans = {
            let _root = tracer.rep_span("repetition", rep_index);
            bench.rep(ctx, pipe::RepMode { probe: true, ..Default::default() })
        };
        tracer.set_enabled(false);
        rep_index += 1;
        traced.push(with_spans);
        plain
    });
    result.reps.append(&mut pairs);
    for rep in traced.iter() {
        result.add_layer(rep.layer.iter().copied());
    }
    let median_of = |reps: &[RepOutcome], f: fn(&RepOutcome) -> f64| {
        stats::median(&reps.iter().map(f).collect::<Vec<f64>>())
    };
    let plain_wall = median_of(&result.reps, |r| r.wall_s);
    result.add_layer([(
        "trace_overhead_frac",
        median_of(traced, |r| r.wall_s) / plain_wall.max(1e-9) - 1.0,
    )]);

    if workload == Workload::TraceRw128c {
        // What recording costs the live session: the same load once more
        // without `.trace_dir(..)`.
        let bare = bench.rep(ctx, pipe::RepMode { skip_trace: true, ..Default::default() });
        let recorded = median_of(&result.reps, |r| r.session_s);
        result
            .add_layer([("trace.record_overhead_frac", recorded / bare.session_s.max(1e-9) - 1.0)]);
        traced.push(bare);
    }

    tracer.set_enabled(true);
    {
        let _root = tracer.rep_span("microbenchmarks", rep_index);
        result.add_layer(micro::run_all(ctx));
    }
    tracer.set_enabled(false);

    // Last, because the checker cannot be switched off again: one short
    // repetition with every lock acquisition counted.
    parking_lot::check::force_enable();
    let checked = bench.short_rep(ctx);
    let report = parking_lot::lock_report();
    let lock = |name: &str| report.iter().find(|s| s.name == name);
    let acquisitions = |name: &str| lock(name).map_or(0.0, |s| s.acquisitions as f64);
    let max_hold_us = |name: &str| lock(name).map_or(0.0, |s| s.max_hold_ns as f64 / 1e3);
    let ksamples = (checked.live_delivered as f64 / 1e3).max(1e-9);
    let kops = checked
        .layer
        .iter()
        .find(|(name, _)| *name == "arch_sim.mem_access")
        .map_or(0.0, |(_, ops)| ops / 1e3);
    result.add_layer([
        ("lock.bus_inner.acq_per_ksample", acquisitions("bus.inner") / ksamples),
        ("lock.pool_samples.acq_per_ksample", acquisitions("pool.samples") / ksamples),
        (
            "lock.session_coordinator.acq_per_ksample",
            acquisitions("session.coordinator") / ksamples,
        ),
        ("lock.session_merger.acq_per_ksample", acquisitions("session.merger") / ksamples),
        ("lock.spe_store_samples.acq_per_ksample", acquisitions("spe.store.samples") / ksamples),
        (
            "lock.machine_core.acq_per_kop",
            if kops > 0.0 { acquisitions("machine.core") / kops } else { 0.0 },
        ),
        ("lock.bus_inner.max_hold_us", max_hold_us("bus.inner")),
        ("lock.session_merger.max_hold_us", max_hold_us("session.merger")),
    ]);
    traced.push(checked);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let opts = parse_args(&args(&[
            "--workload",
            "trace_rw_128c",
            "--seed",
            "7",
            "--seconds",
            "30",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(opts.workload, Some(Workload::TraceRw128c));
        assert_eq!((opts.seed, opts.seconds, opts.trace), (7, 30.0, true));
        let opts = parse_args(&args(&["--trace", "0", "--seed", "3"])).unwrap();
        assert!(!opts.trace && opts.seed == 3 && opts.workload.is_none());
        let opts = parse_args(&args(&["--smoke", "--trace"])).unwrap();
        assert!(opts.trace && opts.smoke && opts.seconds == 0.0);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--seconds"],
            &["--runs", "0"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
