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
//!   configuration, annotations, and the accuracy & overhead analysis
//!   ([`nmo::measure`] runs a workload unprofiled once and then under each
//!   configuration, the pairing behind the paper's Figures 8–11);
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
