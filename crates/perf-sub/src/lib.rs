//! # perf-sub — a user-space model of the Linux `perf_event` subsystem
//!
//! NMO (the paper's profiler) is written against the Linux perf ABI: it opens
//! an event with `perf_event_open`, mmaps a ring buffer whose first page is a
//! `perf_event_mmap_page` metadata page, mmaps an aux buffer for ARM SPE
//! data, polls the file descriptor, and reads `PERF_RECORD_AUX` records that
//! describe where in the aux buffer new SPE data landed.
//!
//! Real SPE hardware (and the kernel driver for PMU type `0x2c`) are not
//! available here, so this crate reproduces the *ABI surface* in user space:
//! the same attribute fields, buffer layouts, record formats, flag bits, and
//! clock-conversion fields. The `spe` crate plays the role of the kernel
//! driver + hardware, producing data into these structures; the `nmo` crate
//! plays the role of the profiler, consuming them exactly as described in
//! Section IV of the paper.
//!
//! The crate has no dependency on the machine simulator: it is a pure
//! data-plane substrate (attributes, buffers, records).

#![warn(missing_docs)]
// Stdout belongs to the binaries; library code returns data or warns on stderr.
// A failure correct use can meet is a `Result`; an `expect` on a broken internal
// condition carries its own `#[allow(clippy::expect_used, reason = "…")]`.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::unwrap_used, clippy::expect_used))]

pub mod attr;
pub mod event;
pub mod mmap;
pub mod records;

pub use attr::{PerfEventAttr, PERF_TYPE_ARM_SPE, PERF_TYPE_HARDWARE};
pub use event::{EventId, PerfEvent, RecordDrain};
pub use mmap::{AuxBuffer, MetadataPage, RingBuffer, PAGE_SIZE_64K};
pub use records::{
    AuxRecord, ItraceStartRecord, LostRecord, Record, RecordHeader, PERF_AUX_FLAG_COLLISION,
    PERF_AUX_FLAG_PARTIAL, PERF_AUX_FLAG_TRUNCATED, PERF_RECORD_AUX, PERF_RECORD_ITRACE_START,
    PERF_RECORD_LOST,
};

/// Errors produced by the perf substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerfError {
    /// The attribute combination is not supported (mirrors EINVAL).
    InvalidAttr(String),
    /// A buffer size was not valid (must be a power-of-two number of pages).
    InvalidBufferSize(String),
    /// Attempted to read past the available data.
    WouldBlock,
    /// The record stream contained malformed data.
    CorruptRecord(String),
}

impl std::fmt::Display for PerfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfError::InvalidAttr(m) => write!(f, "invalid perf_event_attr: {m}"),
            PerfError::InvalidBufferSize(m) => write!(f, "invalid buffer size: {m}"),
            PerfError::WouldBlock => write!(f, "no data available (EAGAIN)"),
            PerfError::CorruptRecord(m) => write!(f, "corrupt record: {m}"),
        }
    }
}

impl std::error::Error for PerfError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PerfError>;
