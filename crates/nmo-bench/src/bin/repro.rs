//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--exp all|table1|table2|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11]
//!       [--quick|--full|--tiny] [--out results/]
//! ```
//!
//! Each experiment prints an aligned table to stdout and writes a CSV file
//! under the output directory.

use std::path::{Path, PathBuf};

use nmo::NmoError;
use nmo_bench::experiments::{self, ExperimentResult};
use nmo_bench::harness::Scale;

struct Args {
    exp: String,
    scale: Scale,
    scale_name: &'static str,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut exp = "all".to_string();
    let mut scale = Scale::quick();
    let mut scale_name = "quick";
    let mut out = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--exp" => exp = args.next().unwrap_or_else(|| "all".into()),
            "--quick" => {
                scale = Scale::quick();
                scale_name = "quick";
            }
            "--full" => {
                scale = Scale::full();
                scale_name = "full";
            }
            "--tiny" => {
                scale = Scale::tiny();
                scale_name = "tiny";
            }
            "--out" => out = PathBuf::from(args.next().unwrap_or_else(|| "results".into())),
            "--help" | "-h" => {
                println!(
                    "usage: repro [--exp <id|all>] [--quick|--full|--tiny] [--out <dir>]\n\
                     experiments: table1 table2 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 \
                     fig11"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    Args { exp, scale, scale_name, out }
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

trait Truncate {
    fn to_table_truncated(&self, max_rows: usize) -> String;
}

impl Truncate for ExperimentResult {
    fn to_table_truncated(&self, max_rows: usize) -> String {
        if self.rows.len() <= max_rows {
            return self.to_table();
        }
        let mut clipped = self.clone();
        clipped.rows.truncate(max_rows);
        format!(
            "{}  ... ({} more rows in the CSV)\n",
            clipped.to_table(),
            self.rows.len() - max_rows
        )
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
    if wants(exp, &["fig7"]) {
        emit(vec![experiments::fig7_samples_vs_period(scale)?], &args.out, 40);
    }
    if wants(exp, &["fig8"]) {
        emit(vec![experiments::fig8_sensitivity(scale)?], &args.out, 40);
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
    let args = parse_args();
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
