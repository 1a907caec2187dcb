//! # nmo-bench — benchmark harness and figure/table reproduction
//!
//! This crate regenerates every table and figure of the paper's evaluation
//! (Sections VI and VII) on the simulated platform:
//!
//! | Experiment | Content | Function |
//! |---|---|---|
//! | Table I | NMO environment variables | [`experiments::table1`] |
//! | Table II | Platform specification | [`experiments::table2`] |
//! | Fig. 2 | Capacity over time (PageRank, In-memory Analytics) | [`experiments::fig2_fig3_cloud`] |
//! | Fig. 3 | Bandwidth over time (same workloads) | [`experiments::fig2_fig3_cloud`] |
//! | Fig. 4 | STREAM tagged address scatter (from the sample log) | [`experiments::fig4_stream_scatter`] |
//! | Fig. 5/6 | CFD access patterns at 1 and 32 threads (from the sample log) | [`experiments::fig5_fig6_cfd_scatter`] |
//! | Fig. 7 | Samples vs sampling period (5 trials) | [`experiments::fig7_samples_vs_period`] |
//! | Fig. 8 | Accuracy / overhead / collisions vs period | [`experiments::fig8_sensitivity`] |
//! | Fig. 9 | Aux-buffer size sweep | [`experiments::fig9_aux_buffer`] |
//! | Fig. 10/11 | Thread-count sweep | [`experiments::fig10_fig11_threads`] |
//!
//! Figures 4–6 plot the samples of a `SampleLogSink` registered beside the
//! `RegionSink`, attributed by [`nmo::tag_of`] / [`nmo::phase_of`] (the
//! rule the sink counts by), in the sample log's `(time_ns, core)` order.
//!
//! Figures 8–11 pair every profiled run with its unprofiled twin through
//! [`nmo::measure`], the one sensitivity runner; this crate only chooses the
//! sweep points and renders the rows.
//!
//! The profiler's own performance — pipeline throughput, the trace store,
//! per-layer costs — is measured by the repository's benchmark
//! (`BENCHMARK.json`, `benchmark/`), which drives the real
//! `ProfileSession` spine; this crate is the paper's evaluation only.
//!
//! The `repro` binary drives them all (`repro --exp all --quick`) and writes
//! CSV series under `results/`.

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

pub use harness::{profiled_session, Scale, WorkloadKind};
