//! Suite mode: every workload, each in a child process of its own — so
//! `peak_rss_mib` is per workload, and the child's `[nmo] warning:` lines
//! (the period-64 workload prints one loss warning per repetition, by
//! design) are captured into the result file instead of interleaving with
//! the metric table.

use std::process::Command;

use crate::json::Json;
use crate::run::{self, out_dir};
use crate::spec::Workload;
use crate::stats::Summary;
use crate::{host, Options};

/// One child run: its exit status, the driver's JSON line, and the
/// `[nmo] warning:` lines it wrote to standard error.
struct ChildRun {
    ok: bool,
    line: Option<Json>,
    warnings: Vec<String>,
}

fn run_child(workload: Workload, opts: &Options, seed: u64, trace: bool) -> ChildRun {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("nmo-benchmark: cannot find this executable: {e}");
            return ChildRun { ok: false, line: None, warnings: Vec::new() };
        }
    };
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        command.arg("--smoke");
    }
    // `output()` waits for the child and collects both streams.
    let output = match command.output() {
        Ok(output) => output,
        Err(e) => {
            eprintln!("nmo-benchmark: cannot start the {} child: {e}", workload.name());
            return ChildRun { ok: false, line: None, warnings: Vec::new() };
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    let mut warnings = Vec::new();
    for line in stderr.lines() {
        if line.starts_with("[nmo] warning:") {
            warnings.push(line.to_string());
        } else {
            eprintln!("{line}");
        }
    }
    for line in stdout.lines().filter(|l| l.starts_with("CHECK FAILED")) {
        eprintln!("{}: {line}", workload.name());
    }
    let line = stdout.lines().last().and_then(|l| Json::parse(l).ok());
    ChildRun { ok: output.status.success() && line.is_some(), line, warnings }
}

/// `metric -> value` of one child's JSON line.
fn values_of(line: &Json) -> Vec<(String, f64)> {
    line.get("metrics")
        .and_then(Json::as_obj)
        .map(|metrics| {
            metrics
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// The within-run summary (`median`, `q1`, `q3`, `n` over repetitions) the
/// child wrote beside its JSON line.
fn within_run_summary(workload: Workload, trace: bool, metric: &str) -> Option<Summary> {
    let path = out_dir().join(format!("result-{}-trace{}.json", workload.name(), u8::from(trace)));
    let doc = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    run::summary_from_json(doc.get("metrics")?.get(metric)?)
}

pub fn run(opts: &Options) -> i32 {
    let mut all_ok = true;
    let mut workloads_json = Vec::new();
    println!(
        "nmo-benchmark: {} workload(s) x {} run(s), seeds {}.., {} s per run{}{} | host_parallelism {}",
        Workload::ALL.len(),
        opts.runs,
        opts.seed,
        opts.seconds,
        if opts.trace { ", untraced + traced" } else { "" },
        if opts.smoke { ", smoke sizes" } else { "" },
        host::host_parallelism(),
    );
    for workload in Workload::ALL {
        let mut attempted = 0.0;
        let mut failed = 0.0;
        let mut warnings = Vec::new();
        let mut per_metric: Vec<(String, bool, Vec<f64>)> = Vec::new();
        let modes: &[bool] = if opts.trace { &[false, true] } else { &[false] };
        for &trace in modes {
            for run in 0..opts.runs as u64 {
                // Another seed each run, as the driver does.
                let child = run_child(workload, opts, opts.seed.wrapping_add(run), trace);
                all_ok &= child.ok;
                warnings.extend(child.warnings);
                let Some(line) = child.line else { continue };
                all_ok &= line.get("correct") == Some(&Json::Bool(true));
                attempted += line.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
                failed += line.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                for (name, value) in values_of(&line) {
                    match per_metric.iter_mut().find(|(n, t, _)| *n == name && *t == trace) {
                        Some((_, _, values)) => values.push(value),
                        None => per_metric.push((name, trace, vec![value])),
                    }
                }
            }
        }

        println!("\n== {} ==", workload.name());
        if !workload.seeded() {
            println!("(input comes from the workload's fixed internal seed; --seed is unused)");
        }
        run::print_metric_header();
        let mut metrics_json = Vec::new();
        for (name, trace, values) in &per_metric {
            // Several runs: the median of their reported values and the
            // spread between runs. One run: its reported value and the
            // spread between its repetitions.
            let mut summary = Summary::of(values);
            if let ([value], Some(within)) =
                (&values[..], within_run_summary(workload, *trace, name))
            {
                summary = Summary { median: *value, ..within };
            }
            run::print_metric_row(name, summary.median, &summary);
            metrics_json.push((
                name.clone(),
                run::metric_json(name, summary.median, &summary, "runs", values),
            ));
        }
        println!(
            "attempted {attempted} | failed {failed} | {} [nmo] warning line(s) captured",
            warnings.len()
        );
        workloads_json.push((
            workload.name().to_string(),
            Json::obj([
                ("seed_used", Json::Bool(workload.seeded())),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("warnings", Json::Arr(warnings.iter().map(Json::str).collect())),
                ("metrics", Json::Obj(metrics_json)),
            ]),
        ));
    }

    let suite = Json::obj([
        ("host_parallelism", Json::Num(host::host_parallelism() as f64)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("runs", Json::Num(opts.runs as f64)),
        ("smoke", Json::Bool(opts.smoke)),
        ("correct", Json::Bool(all_ok)),
        ("workloads", Json::Obj(workloads_json)),
    ]);
    let path = out_dir().join("suite.json");
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, suite.pretty())) {
        Ok(()) => println!("\nsuite result written to {}", path.display()),
        Err(e) => {
            eprintln!("nmo-benchmark: cannot write {}: {e}", path.display());
            all_ok = false;
        }
    }
    if !all_ok {
        eprintln!("nmo-benchmark: at least one workload failed an output check");
    }
    i32::from(!all_ok)
}
