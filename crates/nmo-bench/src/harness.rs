//! Shared harness: workload construction, baseline and profiled runs.

use arch_sim::{Machine, MachineConfig};
use nmo::{NmoConfig, NmoError, Profile, ProfileSession, ProfileSessionBuilder, RunMeasurement};
use spe::SpeStatsSnapshot;
use workloads::{
    bfs::GraphKind, BfsBench, CfdBench, InMemAnalytics, PageRank, StreamBench, Workload,
};

/// Which of the five paper workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// STREAM (Triad).
    Stream,
    /// Rodinia CFD.
    Cfd,
    /// Rodinia BFS.
    Bfs,
    /// CloudSuite Graph Analytics (Page Rank).
    PageRank,
    /// CloudSuite In-memory Analytics (ALS).
    InMemAnalytics,
}

impl WorkloadKind {
    /// Display name used in figure legends.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Stream => "stream",
            WorkloadKind::Cfd => "cfd",
            WorkloadKind::Bfs => "bfs",
            WorkloadKind::PageRank => "pagerank",
            WorkloadKind::InMemAnalytics => "inmem-analytics",
        }
    }
}

/// Problem-size scaling of the experiments.
///
/// The paper's runs (1 GiB STREAM arrays, full CloudSuite datasets) would
/// take hours through a software-simulated memory hierarchy, so the harness
/// scales the inputs down while keeping every access *pattern* intact.
/// `Scale::quick()` targets a few minutes for the full figure set;
/// `Scale::full()` is an order of magnitude larger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// STREAM array elements.
    pub stream_elems: usize,
    /// STREAM kernel repetitions.
    pub stream_iters: usize,
    /// CFD mesh elements.
    pub cfd_elements: usize,
    /// CFD solver iterations.
    pub cfd_iters: usize,
    /// BFS vertices.
    pub bfs_vertices: usize,
    /// BFS average degree.
    pub bfs_degree: usize,
    /// PageRank vertices.
    pub pr_vertices: usize,
    /// PageRank iterations.
    pub pr_iters: usize,
    /// In-memory-analytics users.
    pub inmem_users: usize,
    /// In-memory-analytics movies.
    pub inmem_movies: usize,
    /// Ratings per user.
    pub inmem_ratings_per_user: usize,
    /// ALS sweeps.
    pub inmem_sweeps: usize,
    /// Trials per configuration point.
    pub trials: usize,
    /// Threads used by the period sweeps (Figures 7 and 8).
    pub sweep_threads: usize,
    /// Threads used by the aux-buffer sweep (Figure 9).
    pub aux_sweep_threads: usize,
    /// Largest aux-buffer size (pages) in the Figure 9 sweep.
    pub aux_sweep_max_pages: u64,
    /// Thread counts for the Figure 10/11 sweep.
    pub thread_sweep_max: usize,
}

impl Scale {
    /// A few-minutes configuration (default for `repro`).
    ///
    /// The period/aux-buffer sweeps run on 2 threads with large-ish inputs so
    /// the per-core SPE record volume exceeds the default 1 MiB aux buffer at
    /// small sampling periods — the regime where the paper observes sample
    /// drops and the accuracy collapse of Figure 8a.
    pub fn quick() -> Self {
        Scale {
            stream_elems: 8_000_000,
            stream_iters: 2,
            cfd_elements: 100_000,
            cfd_iters: 6,
            bfs_vertices: 1 << 19,
            bfs_degree: 8,
            pr_vertices: 1 << 15,
            pr_iters: 4,
            inmem_users: 3_000,
            inmem_movies: 4_000,
            inmem_ratings_per_user: 40,
            inmem_sweeps: 3,
            trials: 2,
            sweep_threads: 2,
            aux_sweep_threads: 2,
            aux_sweep_max_pages: 512,
            thread_sweep_max: 32,
        }
    }

    /// A larger configuration closer to the paper's setup (tens of minutes).
    pub fn full() -> Self {
        Scale {
            stream_elems: 8_000_000,
            stream_iters: 5,
            cfd_elements: 200_000,
            cfd_iters: 10,
            bfs_vertices: 1 << 20,
            bfs_degree: 8,
            pr_vertices: 1 << 18,
            pr_iters: 6,
            inmem_users: 20_000,
            inmem_movies: 10_000,
            inmem_ratings_per_user: 60,
            inmem_sweeps: 4,
            trials: 5,
            sweep_threads: 16,
            aux_sweep_threads: 32,
            aux_sweep_max_pages: 2048,
            thread_sweep_max: 128,
        }
    }

    /// A tiny configuration for unit/integration tests (sub-second).
    pub fn tiny() -> Self {
        Scale {
            stream_elems: 40_000,
            stream_iters: 2,
            cfd_elements: 2_000,
            cfd_iters: 2,
            bfs_vertices: 1 << 12,
            bfs_degree: 6,
            pr_vertices: 1 << 11,
            pr_iters: 2,
            inmem_users: 200,
            inmem_movies: 400,
            inmem_ratings_per_user: 10,
            inmem_sweeps: 2,
            trials: 2,
            sweep_threads: 4,
            aux_sweep_threads: 4,
            aux_sweep_max_pages: 64,
            thread_sweep_max: 8,
        }
    }

    /// Instantiate a fresh workload of the given kind at this scale.
    pub fn build(&self, kind: WorkloadKind) -> Box<dyn Workload> {
        match kind {
            WorkloadKind::Stream => {
                Box::new(StreamBench::new(self.stream_elems, self.stream_iters))
            }
            WorkloadKind::Cfd => Box::new(CfdBench::new(self.cfd_elements, self.cfd_iters)),
            WorkloadKind::Bfs => {
                Box::new(BfsBench::new(self.bfs_vertices, self.bfs_degree, GraphKind::Uniform))
            }
            WorkloadKind::PageRank => Box::new(PageRank::new(self.pr_vertices, 8, self.pr_iters)),
            WorkloadKind::InMemAnalytics => Box::new(InMemAnalytics::new(
                self.inmem_users,
                self.inmem_movies,
                self.inmem_ratings_per_user,
                self.inmem_sweeps,
            )),
        }
    }
}

/// Result of a baseline (unprofiled) run — the `perf stat` side of Eq. (1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineRun {
    /// Total `mem_access` events counted.
    pub mem_counted: u64,
    /// Execution time in simulated cycles.
    pub cycles: u64,
}

/// The machine preset every experiment runs on (Table II).
pub fn paper_machine() -> Machine {
    Machine::new(MachineConfig::ampere_altra_max())
}

/// Run a workload without any profiling and return the baseline measurements.
pub fn baseline_run(
    kind: WorkloadKind,
    scale: &Scale,
    threads: usize,
) -> Result<BaselineRun, NmoError> {
    let machine = paper_machine();
    let annotations = nmo::Annotations::new();
    let mut workload = scale.build(kind);
    let cores: Vec<usize> = (0..threads).collect();
    workload.setup(&machine, &annotations)?;
    workload.run(&machine, &annotations, &cores)?;
    if !workload.verify() {
        return Err(NmoError::Workload(format!(
            "{} failed verification in baseline run",
            kind.label()
        )));
    }
    let counters = machine.counters();
    Ok(BaselineRun { mem_counted: counters.mem_access, cycles: counters.cycles })
}

/// The session every profiled experiment runs: the paper machine, `threads`
/// cores, the workload at `scale`. A caller that reads a per-sample result
/// adds its sinks before building.
pub fn profiled_session(
    kind: WorkloadKind,
    scale: &Scale,
    threads: usize,
    config: NmoConfig,
) -> ProfileSessionBuilder {
    ProfileSession::builder()
        .machine_config(MachineConfig::ampere_altra_max())
        .config(config)
        .threads(threads)
        .workload(scale.build(kind))
}

/// Run a workload under an NMO profiling session (default sinks: capacity
/// and bandwidth) and return the profile.
pub fn profiled_run(
    kind: WorkloadKind,
    scale: &Scale,
    threads: usize,
    config: NmoConfig,
) -> Result<Profile, NmoError> {
    profiled_session(kind, scale, threads, config).build()?.run()
}

/// Run one trial of the sensitivity study and fold it into a [`RunMeasurement`].
pub fn measure(
    kind: WorkloadKind,
    scale: &Scale,
    threads: usize,
    config: NmoConfig,
    baseline: &BaselineRun,
) -> Result<RunMeasurement, NmoError> {
    let aux_pages = config.aux_pages(64 * 1024);
    let period = config.period;
    let profile = profiled_run(kind, scale, threads, config)?;
    Ok(RunMeasurement {
        period,
        aux_pages,
        threads,
        baseline_cycles: baseline.cycles,
        profiled_cycles: profile.elapsed_cycles,
        mem_counted: baseline.mem_counted,
        processed_samples: profile.processed_samples,
        spe: merge_spe(&profile),
    })
}

fn merge_spe(profile: &Profile) -> SpeStatsSnapshot {
    profile.spe
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmo::NmoConfig;

    #[test]
    fn baseline_and_profiled_runs_agree_on_workload_size() {
        let scale = Scale::tiny();
        let baseline = baseline_run(WorkloadKind::Stream, &scale, 2).unwrap();
        assert!(baseline.mem_counted > 0);
        let profile =
            profiled_run(WorkloadKind::Stream, &scale, 2, NmoConfig::paper_default(200)).unwrap();
        // The profiled run issues the same number of memory accesses.
        assert_eq!(profile.counters.mem_access, baseline.mem_counted);
        assert!(profile.processed_samples > 0);
    }

    #[test]
    fn measure_produces_consistent_measurement() {
        let scale = Scale::tiny();
        let baseline = baseline_run(WorkloadKind::Bfs, &scale, 2).unwrap();
        let m = measure(WorkloadKind::Bfs, &scale, 2, NmoConfig::paper_default(500), &baseline)
            .unwrap();
        assert_eq!(m.period, 500);
        assert!(m.processed_samples > 0);
        assert!(m.accuracy() > 0.0 && m.accuracy() <= 1.0);
        assert!(m.overhead() >= 0.0);
    }

    #[test]
    fn every_workload_kind_builds_and_verifies_at_tiny_scale() {
        let scale = Scale::tiny();
        for kind in [
            WorkloadKind::Stream,
            WorkloadKind::Cfd,
            WorkloadKind::Bfs,
            WorkloadKind::PageRank,
            WorkloadKind::InMemAnalytics,
        ] {
            let b = baseline_run(kind, &scale, 2).unwrap();
            assert!(b.mem_counted > 0, "{}", kind.label());
            assert!(b.cycles > 0, "{}", kind.label());
        }
    }
}
