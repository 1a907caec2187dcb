//! # spe — a model of the ARM Statistical Profiling Extension
//!
//! ARM SPE (Armv8.2+) is the precise-event-sampling facility the paper's NMO
//! profiler builds on. Real SPE hardware works as follows (paper Section
//! II-A, Figure 1):
//!
//! 1. a *sampling interval counter* is loaded with the user-configured
//!    sampling period and decremented as operations are decoded; when it
//!    reaches zero (plus a small random perturbation to avoid bias) the next
//!    operation is selected as a sample;
//! 2. the selected operation is tracked through the execution pipeline,
//!    collecting timings, events, the data virtual address, and the memory
//!    level that served it — if a new sample is selected before the previous
//!    one has finished, the new sample is dropped and a *collision* is
//!    recorded;
//! 3. the finished record is matched against programmable *filters* (operation
//!    type, minimum latency); surviving records are written to the *aux
//!    buffer* as a sequence of packets;
//! 4. when enough data accumulates (the `aux_watermark`), the CPU raises an
//!    interrupt and the kernel publishes a `PERF_RECORD_AUX` record into the
//!    perf ring buffer so the profiler can drain the data. If the aux buffer
//!    fills before the profiler catches up, records are dropped and the AUX
//!    record is flagged truncated/collided.
//!
//! This crate reproduces that machinery in software on top of the `arch-sim`
//! machine (which supplies the operation stream and per-access memory
//! outcomes) and the `perf-sub` substrate (which supplies the buffers,
//! records and wakeups). The [`driver::SpeDriver`] type plays the role of the
//! hardware + kernel driver: it implements `arch_sim::OpObserver`, so
//! attaching it to a simulated core is the equivalent of `perf_event_open`
//! with PMU type `0x2c` on that core.
//!
//! The time overhead of profiling is modelled explicitly (see
//! [`driver::OverheadModel`]): writing records, servicing watermark
//! interrupts, and draining buffers all charge cycles to the profiled core or
//! delay the availability of aux space, which is how the paper's sensitivity
//! results (Figures 8–11) are reproduced.

#![warn(missing_docs)]
// Stdout belongs to the binaries; library code returns data or warns on stderr.
// A failure correct use can meet is a `Result`; an `expect` on a broken internal
// condition carries its own `#[allow(clippy::expect_used, reason = "…")]`.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod driver;
pub mod packet;
pub mod stats;
pub mod unit;

pub use config::SpeConfig;
pub use driver::{OverheadModel, SpeDriver};
pub use packet::{SpeRecord, SPE_RECORD_BYTES};
pub use stats::{SpeStats, SpeStatsSnapshot};
pub use unit::{SampleOutcome, SamplerUnit};
