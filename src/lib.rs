//! # nmo-repro — reproduction of "Multi-level Memory-Centric Profiling on ARM
//! Processors with ARM SPE" (SC 2024)
//!
//! This meta-crate ties the workspace together and re-exports the public API
//! of every component:
//!
//! * [`arch_sim`] — the simulated ARM-server machine (caches, DRAM, VM, cores);
//! * [`perf_sub`] — the modelled `perf_event` ABI (attrs, ring/aux buffers, records);
//! * [`spe`] — the ARM Statistical Profiling Extension model (sampling unit,
//!   packet codec, driver, overhead model);
//! * [`nmo`] — the NMO profiler itself: the [`nmo::ProfileSession`] builder,
//!   pluggable [`nmo::SampleBackend`]s (SPE sampling),
//!   pluggable [`nmo::AnalysisSink`]s (capacity/bandwidth/region levels),
//!   the streaming pipeline ([`nmo::ProfileSession::run_streaming`], the
//!   [`nmo::stream`] event bus, live [`nmo::ActiveSession::poll_snapshot`]),
//!   configuration, annotations, and the accuracy & overhead analysis;
//! * [`workloads`] — STREAM, CFD, BFS, PageRank and In-memory Analytics.
//!
//! See `README.md` for a guided tour and a `ProfileSession` quickstart. The
//! runnable entry points are the examples in `examples/` and the `repro`
//! binary in `crates/nmo-bench`.

pub use arch_sim;
pub use nmo;
pub use perf_sub;
pub use spe;
pub use workloads;

/// One-call convenience: run a workload under NMO on a fresh simulated
/// Ampere-Altra-like machine and return the resulting profile.
///
/// This is the "preload the library and set environment variables" usage
/// model of the paper compressed into a function: the configuration can come
/// from [`nmo::NmoConfig::from_env`] or be built programmatically. It is a
/// thin wrapper over [`nmo::ProfileSession`] with its default sinks
/// (capacity and bandwidth); use the session builder directly for custom
/// machines or backends, and for any per-sample result — region
/// attribution, latency histograms, the raw samples — which exists only if
/// its sink is registered.
///
/// ```
/// use nmo_repro::{profile_workload, nmo::NmoConfig, workloads::StreamBench};
///
/// # fn main() -> Result<(), nmo_repro::nmo::NmoError> {
/// let profile = profile_workload(
///     Box::new(StreamBench::new(10_000, 1)),
///     &NmoConfig::paper_default(500),
///     2,
/// )?;
/// assert!(profile.processed_samples > 0);
/// # Ok(())
/// # }
/// ```
pub fn profile_workload(
    workload: Box<dyn workloads::Workload>,
    config: &nmo::NmoConfig,
    threads: usize,
) -> Result<nmo::Profile, nmo::NmoError> {
    nmo::ProfileSession::builder()
        .machine_config(arch_sim::MachineConfig::ampere_altra_max())
        .config(config.clone())
        .threads(threads)
        .workload(workload)
        .build()?
        .run()
}
