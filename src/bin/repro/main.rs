//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--exp all|table1|table2|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11]
//!       [--quick|--full|--tiny] [--out results/]
//! ```
//!
//! Each experiment prints an aligned table to stdout and writes a CSV file
//! under the output directory.
//!
//! | Experiment | Content | Function |
//! |---|---|---|
//! | Table I | NMO environment variables | [`experiments::table1`] |
//! | Table II | Platform specification | [`experiments::table2`] |
//! | Fig. 2 | Capacity over time (PageRank, In-memory Analytics) | [`experiments::fig2_fig3_cloud`] |
//! | Fig. 3 | Bandwidth over time (same workloads) | [`experiments::fig2_fig3_cloud`] |
//! | Fig. 4 | STREAM tagged address scatter (from the sample log) | [`experiments::fig4_stream_scatter`] |
//! | Fig. 5/6 | CFD access patterns at 1 and 32 threads (from the sample log) | [`experiments::fig5_fig6_cfd_scatter`] |
//! | Fig. 7 | Samples vs sampling period | [`experiments::fig7_fig8_period_sweeps`] |
//! | Fig. 8 | Accuracy / overhead / collisions vs period | [`experiments::fig7_fig8_period_sweeps`] |
//! | Fig. 9 | Aux-buffer size sweep | [`experiments::fig9_aux_buffer`] |
//! | Fig. 10/11 | Thread-count sweep | [`experiments::fig10_fig11_threads`] |
//!
//! Figures 4–6 plot the samples of a `SampleLogSink` registered beside the
//! `RegionSink`, attributed by [`nmo::tag_of`] / [`nmo::phase_of`] (the
//! rule the sink counts by), in the sample log's `(time_ns, core)` order.
//! Figures 7–11 pair every profiled run with its unprofiled twin through
//! [`nmo::measure`], the one sensitivity runner; `repro` only chooses the
//! sweep points and renders the rows. Each point runs once: a simulated run
//! is a function of its configuration, so the paper's repeated trials would
//! repeat the same numbers.
//!
//! The profiler's own performance — pipeline throughput, the trace store,
//! per-layer costs — is measured by the repository's benchmark
//! (`BENCHMARK.json`, `benchmark/`); `repro` is the paper's evaluation only.

#![forbid(unsafe_code)]

mod experiments;
mod harness;

use std::path::{Path, PathBuf};

use nmo::NmoError;

use experiments::ExperimentResult;
use harness::Scale;

const USAGE: &str = "usage: repro [--exp <id|all>] [--quick|--full|--tiny] [--out <dir>]";

#[derive(Debug, PartialEq)]
struct Args {
    exp: String,
    scale: Scale,
    scale_name: &'static str,
    out: PathBuf,
}

/// Parse the command line (without the program name). `Ok(None)` asks for
/// the help text; `Err` names what is wrong with the arguments.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut parsed = Args {
        exp: "all".to_string(),
        scale: Scale::quick(),
        scale_name: "quick",
        out: PathBuf::from("results"),
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value =
            || args.next().filter(|v| !v.starts_with("--")).ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--exp" => parsed.exp = value()?,
            "--out" => parsed.out = PathBuf::from(value()?),
            "--quick" => (parsed.scale, parsed.scale_name) = (Scale::quick(), "quick"),
            "--full" => (parsed.scale, parsed.scale_name) = (Scale::full(), "full"),
            "--tiny" => (parsed.scale, parsed.scale_name) = (Scale::tiny(), "tiny"),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Some(parsed))
}

const EXPERIMENT_IDS: &[&str] = &[
    "table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11",
];

fn wants(exp: &str, ids: &[&str]) -> bool {
    exp == "all" || ids.contains(&exp)
}

fn emit(results: Vec<ExperimentResult>, out: &Path, max_print_rows: usize) {
    for r in results {
        println!("{}", r.to_table_truncated(max_print_rows));
        match r.write_csv(out) {
            Ok(path) => println!("  -> wrote {path}\n"),
            Err(e) => eprintln!("  !! failed to write {}: {e}", r.id),
        }
    }
}

fn run(args: &Args) -> Result<(), NmoError> {
    let exp = args.exp.as_str();
    if exp != "all" && !EXPERIMENT_IDS.contains(&exp) {
        return Err(NmoError::Config(format!(
            "unknown experiment '{exp}'; valid ids: all {}",
            EXPERIMENT_IDS.join(" ")
        )));
    }
    let scale = &args.scale;

    if wants(exp, &["table1"]) {
        emit(vec![experiments::table1()], &args.out, 20);
    }
    if wants(exp, &["table2"]) {
        emit(vec![experiments::table2()], &args.out, 20);
    }
    if wants(exp, &["fig2", "fig3"]) {
        let threads = scale.sweep_threads.max(4);
        emit(experiments::fig2_fig3_cloud(scale, threads)?, &args.out, 12);
    }
    if wants(exp, &["fig4"]) {
        emit(vec![experiments::fig4_stream_scatter(scale, 2048)?], &args.out, 12);
    }
    if wants(exp, &["fig5", "fig6"]) {
        let many = scale.thread_sweep_max.min(32);
        emit(experiments::fig5_fig6_cfd_scatter(scale, 2048, many)?, &args.out, 12);
    }
    if wants(exp, &["fig7", "fig8"]) {
        emit(experiments::fig7_fig8_period_sweeps(scale)?, &args.out, 40);
    }
    if wants(exp, &["fig9"]) {
        emit(vec![experiments::fig9_aux_buffer(scale, 2048)?], &args.out, 20);
    }
    if wants(exp, &["fig10", "fig11"]) {
        emit(vec![experiments::fig10_fig11_threads(scale, 4096)?], &args.out, 20);
    }
    Ok(())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}\nexperiments: {}", EXPERIMENT_IDS.join(" "));
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let t0 = std::time::Instant::now();
    println!(
        "NMO reproduction harness — scale: {}, output: {}\n",
        args.scale_name,
        args.out.display()
    );
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create output directory {}: {e}", args.out.display());
        std::process::exit(1);
    }
    if let Err(e) = run(&args) {
        eprintln!("experiment failed: {e}");
        std::process::exit(1);
    }
    println!("done in {:.1} s", t0.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn no_arguments_run_everything_at_quick_scale_into_results() {
        let args = parse(&[]).unwrap().unwrap();
        assert_eq!((args.exp.as_str(), args.scale_name), ("all", "quick"));
        assert_eq!(args.out, PathBuf::from("results"));
    }

    #[test]
    fn flags_and_values_are_read() {
        let args = parse(&["--exp", "fig9", "--tiny", "--out", "/tmp/o"]).unwrap().unwrap();
        assert_eq!(args.exp, "fig9");
        assert_eq!((args.scale, args.scale_name), (Scale::tiny(), "tiny"));
        assert_eq!(args.out, PathBuf::from("/tmp/o"));
        assert_eq!(parse(&["-h"]), Ok(None));
    }

    #[test]
    fn a_flag_missing_its_value_is_an_error() {
        for args in [&["--exp"][..], &["--out"], &["--exp", "--tiny"], &["--tiny", "--out"]] {
            let err = parse(args).unwrap_err();
            assert!(err.ends_with("needs a value"), "{args:?}: {err}");
        }
        assert_eq!(parse(&["--bogus"]).unwrap_err(), "unknown argument: --bogus");
    }
}
