//! Accuracy, overhead, and sensitivity analysis (paper Section VII).
//!
//! * **Accuracy** follows Eq. (1):
//!   `accuracy = 1 - |mem_counted - samples * period| / mem_counted`,
//!   where `mem_counted` is the `perf stat` baseline count of the
//!   `mem_access` event (the machine's own, `Profile::counters.mem_access`),
//!   `samples` the number of processed SPE samples and `period` the sampling
//!   period.
//! * **Time overhead** is the relative increase of execution time when
//!   profiling is enabled: `(t_profiled - t_baseline) / t_baseline`.
//! * The sweep structures hold one row per sampling period / aux-buffer size
//!   / thread count, mirroring Figures 7–11.

use spe::SpeStatsSnapshot;

/// Eq. (1): sampling accuracy from the baseline count, the number of
/// processed samples, and the sampling period. Clamped to `[0, 1]`.
pub fn accuracy(mem_counted: u64, samples: u64, period: u64) -> f64 {
    if mem_counted == 0 {
        return 0.0;
    }
    let estimate = samples as f64 * period as f64;
    let err = (mem_counted as f64 - estimate).abs() / mem_counted as f64;
    (1.0 - err).clamp(0.0, 1.0)
}

/// Relative time overhead of profiling: `(profiled - baseline) / baseline`.
/// Negative differences (measurement noise) clamp to 0.
pub fn time_overhead(baseline_cycles: u64, profiled_cycles: u64) -> f64 {
    if baseline_cycles == 0 {
        return 0.0;
    }
    ((profiled_cycles as f64 - baseline_cycles as f64) / baseline_cycles as f64).max(0.0)
}

/// The measurements of one profiled run, as used by the sensitivity figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMeasurement {
    /// Sampling period used.
    pub period: u64,
    /// Aux-buffer size in pages.
    pub aux_pages: u64,
    /// Number of worker threads.
    pub threads: usize,
    /// Baseline (unprofiled) execution time in cycles.
    pub baseline_cycles: u64,
    /// Profiled execution time in cycles.
    pub profiled_cycles: u64,
    /// Baseline `mem_access` count.
    pub mem_counted: u64,
    /// Number of SPE samples processed by NMO.
    pub processed_samples: u64,
    /// Aggregated SPE statistics across cores.
    pub spe: SpeStatsSnapshot,
}

impl RunMeasurement {
    /// Accuracy per Eq. (1).
    pub fn accuracy(&self) -> f64 {
        accuracy(self.mem_counted, self.processed_samples, self.period)
    }

    /// Relative time overhead.
    pub fn overhead(&self) -> f64 {
        time_overhead(self.baseline_cycles, self.profiled_cycles)
    }

    /// Sample collisions observed (hardware collisions plus aux-buffer drops
    /// flagged `PERF_AUX_FLAG_COLLISION`, which is what NMO counts).
    pub fn collisions(&self) -> u64 {
        self.spe.collisions + self.spe.truncated_records
    }
}

/// Aggregated result of repeated trials at one parameter point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The independent variable (period, pages, or threads).
    pub x: u64,
    /// Per-trial sample counts (Figure 7 plots every trial).
    pub samples_per_trial: Vec<u64>,
    /// Mean accuracy over trials.
    pub accuracy_mean: f64,
    /// Standard deviation of accuracy over trials.
    pub accuracy_std: f64,
    /// Mean time overhead over trials.
    pub overhead_mean: f64,
    /// Standard deviation of the time overhead.
    pub overhead_std: f64,
    /// Mean collision count over trials.
    pub collisions_mean: f64,
}

impl SweepPoint {
    /// Aggregate a set of trial measurements taken at the same `x`.
    pub fn from_trials(x: u64, trials: &[RunMeasurement]) -> Self {
        let n = trials.len().max(1) as f64;
        let samples_per_trial = trials.iter().map(|t| t.processed_samples).collect();
        let accs: Vec<f64> = trials.iter().map(|t| t.accuracy()).collect();
        let ovhs: Vec<f64> = trials.iter().map(|t| t.overhead()).collect();
        let colls: Vec<f64> = trials.iter().map(|t| t.collisions() as f64).collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / n;
        let std = |v: &[f64], m: f64| (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n).sqrt();
        let am = mean(&accs);
        let om = mean(&ovhs);
        SweepPoint {
            x,
            samples_per_trial,
            accuracy_mean: am,
            accuracy_std: std(&accs, am),
            overhead_mean: om,
            overhead_std: std(&ovhs, om),
            collisions_mean: mean(&colls),
        }
    }

    /// Mean number of processed samples over trials.
    pub fn samples_mean(&self) -> f64 {
        if self.samples_per_trial.is_empty() {
            0.0
        } else {
            self.samples_per_trial.iter().sum::<u64>() as f64 / self.samples_per_trial.len() as f64
        }
    }
}

/// A full sweep (one figure): a labelled series of [`SweepPoint`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sweep {
    /// Series label (workload name).
    pub label: String,
    /// Points, in the order they were collected.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// Create an empty sweep with a label.
    pub fn new(label: impl Into<String>) -> Self {
        Sweep { label: label.into(), points: Vec::new() }
    }

    /// Check whether the mean sample counts scale inversely with the
    /// independent variable (the linearity the paper validates in Fig. 7):
    /// returns the worst-case relative deviation of `samples * x` from its
    /// median across points.
    pub fn inverse_linearity_error(&self) -> f64 {
        let mut products: Vec<f64> = self
            .points
            .iter()
            .map(|p| p.samples_mean() * p.x as f64)
            .filter(|v| *v > 0.0)
            .collect();
        if products.len() < 2 {
            return 0.0;
        }
        // total_cmp instead of partial_cmp().unwrap(): a NaN product (e.g.
        // from a degenerate 0 * inf point) must not panic mid-analysis.
        products.sort_by(f64::total_cmp);
        let median = products[products.len() / 2];
        products.iter().map(|p| (p - median).abs() / median).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_formula_matches_eq1() {
        // Perfect estimate.
        assert!((accuracy(1_000_000, 1000, 1000) - 1.0).abs() < 1e-12);
        // 10% undercount.
        assert!((accuracy(1_000_000, 900, 1000) - 0.9).abs() < 1e-12);
        // 10% overcount is also a 10% error.
        assert!((accuracy(1_000_000, 1100, 1000) - 0.9).abs() < 1e-12);
        // Degenerate cases.
        assert_eq!(accuracy(0, 100, 100), 0.0);
        assert_eq!(accuracy(100, 0, 100), 0.0);
        // Gross overestimate clamps at zero rather than going negative.
        assert_eq!(accuracy(100, 1000, 1000), 0.0);
    }

    #[test]
    fn overhead_formula() {
        assert!((time_overhead(100, 103) - 0.03).abs() < 1e-12);
        assert_eq!(time_overhead(100, 95), 0.0, "clamped at zero");
        assert_eq!(time_overhead(0, 100), 0.0);
    }

    fn meas(period: u64, samples: u64, mem: u64, base: u64, prof: u64) -> RunMeasurement {
        RunMeasurement {
            period,
            aux_pages: 16,
            threads: 1,
            baseline_cycles: base,
            profiled_cycles: prof,
            mem_counted: mem,
            processed_samples: samples,
            spe: SpeStatsSnapshot { collisions: 3, truncated_records: 7, ..Default::default() },
        }
    }

    #[test]
    fn run_measurement_derivations() {
        let m = meas(1000, 950, 1_000_000, 1_000_000, 1_020_000);
        assert!((m.accuracy() - 0.95).abs() < 1e-12);
        assert!((m.overhead() - 0.02).abs() < 1e-12);
        assert_eq!(m.collisions(), 10);
    }

    #[test]
    fn sweep_point_aggregation() {
        let trials = vec![
            meas(1000, 900, 1_000_000, 100, 102),
            meas(1000, 1000, 1_000_000, 100, 104),
            meas(1000, 950, 1_000_000, 100, 103),
        ];
        let p = SweepPoint::from_trials(1000, &trials);
        assert_eq!(p.samples_per_trial.len(), 3);
        assert!((p.samples_mean() - 950.0).abs() < 1e-9);
        assert!(p.accuracy_mean > 0.9 && p.accuracy_mean < 1.0);
        assert!(p.accuracy_std > 0.0);
        assert!((p.overhead_mean - 0.03).abs() < 1e-12);
        assert!((p.collisions_mean - 10.0).abs() < 1e-12);
    }

    #[test]
    fn linearity_check_flags_deviations() {
        let mut sweep = Sweep::new("stream");
        // samples * period constant => perfect inverse linearity.
        for (period, samples) in [(1000u64, 1000u64), (2000, 500), (4000, 250)] {
            sweep.points.push(SweepPoint::from_trials(
                period,
                &[meas(period, samples, 1_000_000, 100, 101)],
            ));
        }
        assert!(sweep.inverse_linearity_error() < 1e-9);

        // Introduce a 50% deficit at one point.
        sweep.points.push(SweepPoint::from_trials(8000, &[meas(8000, 62, 1_000_000, 100, 101)]));
        assert!(sweep.inverse_linearity_error() > 0.3);
    }

    #[test]
    fn empty_sweep_has_zero_error() {
        assert_eq!(Sweep::new("x").inverse_linearity_error(), 0.0);
    }
}
