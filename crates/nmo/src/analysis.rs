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
//! * [`measure`] is the one place a profiled run is paired with its
//!   unprofiled twin: the sweeps of Figures 8–11 (`repro --exp
//!   fig8/fig9/fig10`) and the shape tests call it with one configuration
//!   per sampling period / aux-buffer size / trial.

use arch_sim::MachineCounters;

use crate::config::NmoConfig;
use crate::runtime::Profile;
use crate::NmoError;

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

/// One profiled run measured against its unprofiled twin: the baseline's
/// counters and the profiled run's [`Profile`]. [`measure`] is what makes
/// one.
#[derive(Debug, Clone)]
pub struct RunMeasurement {
    /// The baseline (disabled session) counters: `mem_access` is Eq. 1's
    /// `mem_counted`, `cycles` the unprofiled execution time.
    pub baseline: MachineCounters,
    /// The profiled run.
    pub profile: Profile,
}

impl RunMeasurement {
    /// Accuracy per Eq. (1), at the profiled run's sampling period.
    pub fn accuracy(&self) -> f64 {
        self.profile.accuracy_against(self.baseline.mem_access)
    }

    /// Relative time overhead of the profiled run over the baseline.
    pub fn overhead(&self) -> f64 {
        time_overhead(self.baseline.cycles, self.profile.elapsed_cycles)
    }

    /// Sample collisions as NMO counts them ([`Profile::collisions`]).
    pub fn collisions(&self) -> u64 {
        self.profile.collisions()
    }
}

/// The paper's sensitivity runner (Section VII): run the workload bare once,
/// then once per configuration, and measure each profiled run against that
/// one baseline.
///
/// `run` builds and runs a session of the workload under the configuration
/// it is given. The baseline is `run(NmoConfig::default())`, a disabled
/// session: no backend, so its `observer_cycles` are 0. Repeat a
/// configuration to measure repeated trials against the same baseline.
pub fn measure(
    mut run: impl FnMut(NmoConfig) -> Result<Profile, NmoError>,
    configs: impl IntoIterator<Item = NmoConfig>,
) -> Result<Vec<RunMeasurement>, NmoError> {
    let baseline = run(NmoConfig::default())?.counters;
    configs
        .into_iter()
        .map(|config| Ok(RunMeasurement { baseline, profile: run(config)? }))
        .collect()
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

    /// A profile as a run under `config` would leave it: `mem_access`
    /// retired ops, and `cycles` of execution time.
    fn profile(config: NmoConfig, mem_access: u64, cycles: u64) -> Profile {
        let mut p = Profile::empty("t", config);
        p.counters.mem_access = mem_access;
        p.counters.cycles = cycles;
        p.elapsed_cycles = cycles;
        p
    }

    #[test]
    fn run_measurement_derivations() {
        let mut profiled = profile(NmoConfig::paper_default(1000), 1_000_000, 1_020_000);
        profiled.processed_samples = 950;
        profiled.spe.collisions = 3;
        profiled.spe.truncated_records = 7;
        let m = RunMeasurement {
            baseline: profile(NmoConfig::default(), 1_000_000, 1_000_000).counters,
            profile: profiled,
        };
        assert!((m.accuracy() - 0.95).abs() < 1e-12);
        assert!((m.overhead() - 0.02).abs() < 1e-12);
        assert_eq!(m.collisions(), 10);
    }

    #[test]
    fn measure_runs_the_baseline_once_then_each_config_in_order() {
        let mut seen = Vec::new();
        let run = |config: NmoConfig| {
            seen.push(config.period);
            let samples = if config.enabled { 1_000_000 / config.period } else { 0 };
            // A profiled run costs one cycle per sample it takes.
            let mut p = profile(config, 1_000_000, 1_000_000 + samples);
            p.processed_samples = samples;
            Ok(p)
        };
        let configs = [100, 100, 1000].map(NmoConfig::paper_default);
        let m = measure(run, configs).unwrap();
        assert_eq!(seen, [NmoConfig::default().period, 100, 100, 1000]);
        assert_eq!(m.len(), 3);
        assert!(m.iter().all(|m| m.baseline.cycles == 1_000_000 && m.accuracy() == 1.0));
        assert!((m[0].overhead() - 0.01).abs() < 1e-12);
        assert!((m[2].overhead() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn a_failing_run_fails_the_measurement() {
        let run = |config: NmoConfig| match config.period {
            7 => Err(NmoError::Workload("boom".into())),
            _ => Ok(profile(config, 1_000, 1_000)),
        };
        assert!(measure(run, [NmoConfig::paper_default(7)]).is_err());
    }
}
