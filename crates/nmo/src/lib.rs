//! # nmo — multi-level memory-centric profiling with ARM SPE
//!
//! This crate is the Rust implementation of **NMO**, the profiling tool
//! presented in *"Multi-level Memory-Centric Profiling on ARM Processors with
//! ARM SPE"* (SC 2024). NMO provides three levels of memory-centric
//! profiling:
//!
//! 1. **Temporal capacity usage** ([`capacity`]) — resident set size over
//!    time, for right-sizing memory allocations (Figure 2 of the paper).
//! 2. **Temporal bandwidth usage** ([`bandwidth`]) — bus traffic over time and
//!    arithmetic intensity, for spotting bandwidth-bound phases (Figure 3).
//! 3. **Memory-region-based profiling** ([`regions`]) — precise
//!    virtual-address samples collected with the ARM Statistical Profiling
//!    Extension and attributed to user-tagged objects and execution phases
//!    (Figures 4–6).
//!
//! On tiered-memory machines (local DDR plus CXL-style remote nodes) a
//! fourth view rides on the same samples: [`latency`] builds per-data-source
//! latency distributions (log2 histograms with p50/p90/p99) via
//! [`sink::LatencySink`], separating local-DRAM from remote-DRAM fills —
//! the paper's DDR-vs-CXL comparison.
//!
//! The public API is organised around three seams:
//!
//! * [`session::ProfileSession`] — the entry point. A builder configures the
//!   machine, cores, workload, backends, and sinks; every fallible step
//!   returns [`Result`]`<_, `[`NmoError`]`>`.
//! * [`backend::SampleBackend`] — pluggable data sources. [`backend::SpeBackend`]
//!   samples precise addresses with the ARM SPE model; a user's own backend
//!   can share the profiled cores with it. The `perf stat` counts need no
//!   backend: [`Profile::counters`] are the machine's own exact retire
//!   counts.
//! * [`sink::AnalysisSink`] — pluggable analyses over the collected data.
//!   The paper's levels ship as [`sink::CapacitySink`],
//!   [`sink::BandwidthSink`], [`sink::RegionSink`], and
//!   [`sink::LatencySink`] — all incremental aggregators; keeping the raw
//!   samples is one more, [`sink::SampleLogSink`]. A [`Profile`] holds what
//!   the registered sinks reported and nothing besides.
//! * [`stream`] — the online data plane: backends emit window-stamped
//!   [`stream::SampleBatch`]es onto a bounded [`stream::EventBus`] while
//!   the workload runs ([`session::ProfileSession::run_streaming`]), sinks
//!   consume them through streaming hooks, and
//!   [`session::ActiveSession::poll_snapshot`] exposes a live readout —
//!   the mode long-running services are profiled in.
//! * [`tiering`] — the profile-guided feedback loop: a
//!   [`tiering::HotPageTracker`] aggregates decayed per-page heat from the
//!   sample stream and a pluggable [`tiering::TieringPolicy`] migrates hot
//!   pages between memory tiers mid-run through
//!   [`arch_sim::Machine::migrate_page`] — the first place the profiler's
//!   output changes simulated machine behaviour.
//!
//! Configuration follows Table I of the paper ([`config::NmoConfig`], the
//! `NMO_*` environment variables); source annotations follow the C API of
//! Section III-B ([`annotate`]); the SPE backend opens one perf event per
//! core and decodes the 64-byte SPE records exactly as described in Section
//! IV — on the thread that publishes them: the monitoring thread of Section
//! IV is simulated time ([`spe::OverheadModel`]), not a host thread, so a
//! session started with [`session::ProfileSession::start`] creates no thread
//! at all; the accuracy and overhead metrics of
//! the sensitivity study (Section VII), and [`analysis::measure`], the one
//! runner that measures a profiled run against its unprofiled baseline, live
//! in [`analysis`].
//!
//! Because real SPE hardware is unavailable in this environment, the profiler
//! runs against the simulated machine of the `arch-sim` crate and the SPE
//! model of the `spe` crate — see `README.md` at the repository root.
//!
//! ## Example
//!
//! ```
//! use arch_sim::MachineConfig;
//! use nmo::{NmoConfig, ProfileSession, RegionSink};
//!
//! # fn main() -> Result<(), nmo::NmoError> {
//! let session = ProfileSession::builder()
//!     .machine_config(MachineConfig::small_test())
//!     .config(NmoConfig::paper_default(100))
//!     .threads(1)
//!     .sink(RegionSink::new())
//!     .build()?;
//!
//! let profile = session.run_with(|machine, annotations, cores| {
//!     let data = machine.alloc("data", 1 << 20)?;
//!     annotations.tag_addr("data", data.start, data.end());
//!     let mut engine = machine.attach(cores[0])?;
//!     annotations.start("kernel", engine.now_ns());
//!     for i in 0..10_000u64 {
//!         engine.load(data.start + (i % 1000) * 8, 8);
//!     }
//!     annotations.stop(engine.now_ns());
//!     Ok(())
//! })?;
//!
//! assert!(profile.processed_samples > 0);
//! let regions = profile.regions().expect("a RegionSink was registered");
//! assert!(regions.per_tag.iter().any(|t| t.name == "data"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// Stdout belongs to the binaries; library code returns data or warns on stderr.
// A failure correct use can meet is a `Result`; an `expect` on a broken internal
// condition carries its own `#[allow(clippy::expect_used, reason = "…")]`.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod annotate;
pub mod backend;
pub mod bandwidth;
pub mod capacity;
pub mod config;
pub mod latency;
pub mod regions;
pub mod report;
pub mod runtime;
pub mod session;
pub mod sink;
pub mod stream;
pub mod tiering;
pub mod trace;
pub mod workload;

pub use analysis::{accuracy, measure, time_overhead, RunMeasurement};
pub use annotate::{AddrTag, Annotations, Phase};
pub use backend::{CoreObserver, SampleBackend, ShardDrainer, SpeBackend};
pub use bandwidth::BandwidthSeries;
pub use capacity::CapacitySeries;
pub use config::{Mode, NmoConfig};
pub use latency::{LatencyHistogram, LatencyProfile};
pub use regions::{attribute, phase_of, tag_of, RegionAccumulator, RegionProfile, RegionStats};
pub use runtime::{AddressSample, Profile};
pub use session::{ActiveSession, ProfileSession, ProfileSessionBuilder};
pub use sink::{
    AnalysisRecord, AnalysisReport, AnalysisSink, BandwidthSink, CapacitySink, LatencySink,
    RegionSink, SampleLogSink, ShardState, ShardableSink, SinkShard, StreamContext,
};
pub use stream::{
    BackpressurePolicy, BatchPayload, BatchPool, BusStats, EventBus, PoolStats, SampleBatch,
    ShardSummary, ShardedBus, StreamOptions, StreamSnapshot, StreamStats, Window, WindowClock,
};
pub use tiering::{
    AppliedMigration, HotPageTracker, MigrationDecision, NoMigration, PageStats, TieringPolicy,
    TieringReport, TieringView, TopKHot,
};
pub use trace::{ReplayStats, TraceQuery, TraceReader, TraceSummary, TraceWriterSink};
pub use workload::{Workload, WorkloadReport};

/// Errors produced by the NMO runtime.
///
/// Marked `#[non_exhaustive]`: new backends and sinks may introduce new
/// failure classes, so downstream matches must carry a wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum NmoError {
    /// The underlying perf substrate rejected a configuration.
    Perf(perf_sub::PerfError),
    /// The machine substrate reported an error (e.g. core already in use).
    Sim(arch_sim::SimError),
    /// An I/O error while writing reports.
    Io(std::io::Error),
    /// A [`backend::SampleBackend`] failed to start, stop, or report.
    Backend {
        /// Name of the failing backend.
        backend: String,
        /// What went wrong.
        message: String,
    },
    /// An [`sink::AnalysisSink`] failed to produce its analysis.
    Sink {
        /// Name of the failing sink.
        sink: String,
        /// What went wrong.
        message: String,
    },
    /// A workload failed during setup, execution, or verification.
    Workload(String),
    /// The session was configured inconsistently (no cores, unknown core
    /// ids, missing workload, ...).
    Config(String),
    /// The binary trace store rejected a segment or a replay failed:
    /// truncated or corrupt blocks, checksum mismatches, unsupported
    /// versions, or a query that cannot be served from the stored index.
    Trace(String),
}

impl NmoError {
    /// Construct a [`NmoError::Backend`] from a backend name and message.
    pub fn backend(backend: impl Into<String>, message: impl Into<String>) -> Self {
        NmoError::Backend { backend: backend.into(), message: message.into() }
    }

    /// Construct a [`NmoError::Sink`] from a sink name and message.
    pub fn sink(sink: impl Into<String>, message: impl Into<String>) -> Self {
        NmoError::Sink { sink: sink.into(), message: message.into() }
    }

    /// Construct a [`NmoError::Trace`] from a message.
    pub fn trace(message: impl Into<String>) -> Self {
        NmoError::Trace(message.into())
    }
}

impl std::fmt::Display for NmoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NmoError::Perf(e) => write!(f, "perf error: {e}"),
            NmoError::Sim(e) => write!(f, "machine error: {e}"),
            NmoError::Io(e) => write!(f, "i/o error: {e}"),
            NmoError::Backend { backend, message } => {
                write!(f, "backend '{backend}' failed: {message}")
            }
            NmoError::Sink { sink, message } => write!(f, "sink '{sink}' failed: {message}"),
            NmoError::Workload(msg) => write!(f, "workload error: {msg}"),
            NmoError::Config(msg) => write!(f, "session configuration error: {msg}"),
            NmoError::Trace(msg) => write!(f, "trace error: {msg}"),
        }
    }
}

impl std::error::Error for NmoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NmoError::Perf(e) => Some(e),
            NmoError::Sim(e) => Some(e),
            NmoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<perf_sub::PerfError> for NmoError {
    fn from(e: perf_sub::PerfError) -> Self {
        NmoError::Perf(e)
    }
}

impl From<arch_sim::SimError> for NmoError {
    fn from(e: arch_sim::SimError) -> Self {
        NmoError::Sim(e)
    }
}

impl From<std::io::Error> for NmoError {
    fn from(e: std::io::Error) -> Self {
        NmoError::Io(e)
    }
}
