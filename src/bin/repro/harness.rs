//! Shared harness: the five workloads, their problem sizes, and the session
//! every experiment runs them in.

use arch_sim::MachineConfig;
use nmo::{NmoConfig, ProfileSession, ProfileSessionBuilder};
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
    stream_elems: usize,
    /// STREAM kernel repetitions.
    stream_iters: usize,
    /// CFD mesh elements.
    cfd_elements: usize,
    /// CFD solver iterations.
    cfd_iters: usize,
    /// BFS vertices.
    bfs_vertices: usize,
    /// BFS average degree.
    bfs_degree: usize,
    /// PageRank vertices.
    pr_vertices: usize,
    /// PageRank iterations.
    pr_iters: usize,
    /// In-memory-analytics users.
    inmem_users: usize,
    /// In-memory-analytics movies.
    inmem_movies: usize,
    /// Ratings per user.
    inmem_ratings_per_user: usize,
    /// ALS sweeps.
    inmem_sweeps: usize,
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
            sweep_threads: 4,
            aux_sweep_threads: 4,
            aux_sweep_max_pages: 64,
            thread_sweep_max: 8,
        }
    }

    /// Instantiate a fresh workload of the given kind at this scale.
    fn build(&self, kind: WorkloadKind) -> Box<dyn Workload> {
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

/// The session every experiment runs: the paper machine (Table II),
/// `threads` cores, the workload at `scale`. A caller that reads a
/// per-sample result adds its sinks before building; a sensitivity sweep
/// hands `|c| profiled_session(kind, scale, threads, c).build()?.run()` to
/// [`nmo::measure`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use arch_sim::{Machine, MachineCounters};
    use nmo::{measure, Annotations};

    /// The workload on a bare machine: no session, no profiler.
    fn bare_run(kind: WorkloadKind, scale: &Scale) -> MachineCounters {
        let machine = Machine::new(MachineConfig::ampere_altra_max());
        let annotations = Annotations::new();
        let mut workload = scale.build(kind);
        workload.setup(&machine, &annotations).unwrap();
        workload.run(&machine, &annotations, &[0]).unwrap();
        assert!(workload.verify(), "{} failed verification on a bare machine", kind.label());
        machine.counters()
    }

    /// The sensitivity runner's baseline is the unprofiled run the paper's
    /// Eq. 1 and time overhead are measured against: at one core, a disabled
    /// session retires exactly what a bare machine does, in exactly as many
    /// cycles.
    #[test]
    fn the_baseline_of_every_workload_is_its_bare_run_at_one_core() {
        let scale = Scale::tiny();
        for kind in [
            WorkloadKind::Stream,
            WorkloadKind::Cfd,
            WorkloadKind::Bfs,
            WorkloadKind::PageRank,
            WorkloadKind::InMemAnalytics,
        ] {
            let label = kind.label();
            let bare = bare_run(kind, &scale);
            assert!(bare.mem_access > 0 && bare.cycles > 0, "{label}");

            let run = |c| profiled_session(kind, &scale, 1, c).build()?.run();
            let m = measure(run, [NmoConfig::paper_default(200)]).unwrap().remove(0);
            assert_eq!(m.baseline.mem_access, bare.mem_access, "{label}");
            assert_eq!(m.baseline.cycles, bare.cycles, "{label}");

            // The profiled run retires the same work, samples it, and costs time.
            assert_eq!(m.profile.counters.mem_access, bare.mem_access, "{label}");
            assert!(m.profile.processed_samples > 0, "{label}");
            assert!(m.accuracy() > 0.0 && m.accuracy() <= 1.0, "{label}: {}", m.accuracy());
            assert!(m.overhead() > 0.0, "{label}: {}", m.overhead());
        }
    }
}
