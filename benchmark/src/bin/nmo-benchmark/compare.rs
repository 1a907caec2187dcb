//! `compare A.json B.json`: two suite result files (A = before, B = after)
//! against the bounds fixed in `BENCHMARK.json`.
//!
//! One row per metric and workload. An end-to-end metric is
//! * `worse` when B's median is worse than A's by more than the bound and
//!   by more than either side's own spread,
//! * `unresolved` when a side's spread (interquartile range over median) is
//!   wider than the bound, so the comparison cannot tell,
//! * `ok` otherwise.
//!
//! A per-layer metric has no bound: exact counts are reported as `same` or
//! `differs`, everything else with its change only. Exit code 1 on any
//! `worse`.

use std::path::Path;

use crate::json::Json;
use crate::run::{checkout_root, summary_from_json};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// By how much `after` is worse than `before`, as a share of `before`
/// (negative = better).
pub fn worse_by(before: f64, after: f64, lower_is_better: bool) -> f64 {
    if before == 0.0 {
        return 0.0;
    }
    let change = (after - before) / before.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

pub fn judge(before: Summary, after: Summary, lower_is_better: bool, bound: f64) -> Verdict {
    let spread = before.spread().max(after.spread());
    let worse = worse_by(before.median, after.median, lower_is_better);
    if worse > bound && worse > spread {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn summary_of(suite: &Json, workload: &str, metric: &str) -> Option<Summary> {
    summary_from_json(suite.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?)
}

pub fn run(a: &Path, b: &Path) -> i32 {
    let (before, after, spec) =
        match (load(a), load(b), load(&checkout_root().join("BENCHMARK.json"))) {
            (Ok(a), Ok(b), Ok(s)) => (a, b, s),
            (a, b, s) => {
                for e in [a.err(), b.err(), s.err()].into_iter().flatten() {
                    eprintln!("nmo-benchmark compare: {e}");
                }
                return 2;
            }
        };
    let names = |key: &str| -> Vec<&Json> {
        spec.get(key).and_then(Json::as_arr).map(|a| a.iter().collect()).unwrap_or_default()
    };
    let text = |m: &Json, f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();

    let mut any_worse = false;
    println!(
        "{:<20} {:<40} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound", "spread"
    );
    for workload in names("workloads") {
        let workload = text(workload, "name");
        for metric in names("end_to_end") {
            let name = text(metric, "name");
            let lower = text(metric, "better") != "higher";
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(x), Some(y)) =
                (summary_of(&before, &workload, &name), summary_of(&after, &workload, &name))
            else {
                println!("{workload:<20} {name:<40} missing from one of the files");
                continue;
            };
            let verdict = judge(x, y, lower, bound);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{workload:<20} {name:<40} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}% {:>7.2}%  {}",
                x.median,
                y.median,
                100.0 * (y.median - x.median) / if x.median == 0.0 { 1.0 } else { x.median.abs() },
                100.0 * bound,
                100.0 * x.spread().max(y.spread()),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for metric in names("per_layer") {
            let name = text(metric, "name");
            let (Some(x), Some(y)) =
                (summary_of(&before, &workload, &name), summary_of(&after, &workload, &name))
            else {
                continue;
            };
            if x.median == 0.0 && y.median == 0.0 {
                continue;
            }
            let note = match (text(metric, "unit") == "count", x.median == y.median) {
                (true, true) => "same",
                (true, false) => "differs",
                (false, _) => "-",
            };
            println!(
                "{workload:<20} {name:<40} {:>14.6} {:>14.6} {:>+8.2}% {:>7} {:>7.2}%  {note}",
                x.median,
                y.median,
                100.0 * (y.median - x.median) / if x.median == 0.0 { 1.0 } else { x.median.abs() },
                "-",
                100.0 * x.spread().max(y.spread()),
            );
        }
    }
    if any_worse {
        eprintln!(
            "nmo-benchmark compare: at least one end-to-end metric is worse beyond its bound"
        );
    }
    i32::from(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64, q1: f64, q3: f64) -> Summary {
        Summary { median, q1, q3, n: 7 }
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 11.0, false) + 0.1).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, true), 0.0);
    }

    #[test]
    fn verdicts() {
        let tight = |m: f64| summary(m, m * 0.99, m * 1.01);
        // Within the bound, tight spread.
        assert_eq!(judge(tight(10.0), tight(10.5), true, 0.10), Verdict::Ok);
        // Beyond the bound and beyond the noise.
        assert_eq!(judge(tight(10.0), tight(11.5), true, 0.10), Verdict::Worse);
        // Better is never worse.
        assert_eq!(judge(tight(10.0), tight(5.0), true, 0.10), Verdict::Ok);
        assert_eq!(judge(tight(10.0), tight(11.5), false, 0.10), Verdict::Ok);
        // A spread wider than the bound hides a small change…
        let noisy = summary(10.0, 8.0, 12.0);
        assert_eq!(judge(noisy, tight(10.5), true, 0.10), Verdict::Unresolved);
        // …but not one that is larger than the spread itself.
        assert_eq!(judge(noisy, tight(20.0), true, 0.10), Verdict::Worse);
    }
}
